//! Every example's "Run with" line is the command that runs it: CI runs
//! `cargo run --release --example <file stem>` for each `examples/*.rs`,
//! and the examples belong to the root `vadalog` package, so a line that
//! names another example or passes `-p`/`--package` sends a reader to a
//! command that fails.

use std::path::Path;

#[test]
fn every_example_names_its_own_run_command() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("Run with")).collect();
        assert_eq!(
            lines.len(),
            1,
            "{stem}: one `Run with` line, found {lines:?}"
        );
        let line = lines[0];
        let command = line
            .split('`')
            .nth(1)
            .unwrap_or_else(|| panic!("{stem}: no `command` in {line:?}"));
        assert_eq!(
            command,
            format!("cargo run --example {stem}"),
            "{stem}: the run line must name this example and no package"
        );
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} examples found in {dir:?}");
}
