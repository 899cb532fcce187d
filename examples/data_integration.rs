//! Data integration / data exchange flavour: load an external CSV source via
//! `@bind`, map it into a target schema with existential ids, and check an
//! EGD on the result (the Doctors scenario of Section 6.5 in miniature).
//!
//! Run with `cargo run --example data_integration`.

use std::io::Write;
use vadalog_engine::Reasoner;

fn main() {
    // Write a small CSV "source database" to a temp file.
    let dir = std::env::temp_dir().join("vadalog_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv_path = dir.join("doctors.csv");
    let mut file = std::fs::File::create(&csv_path).expect("create csv");
    writeln!(file, "1001,dr_house,diagnostics,princeton").unwrap();
    writeln!(file, "1002,dr_wilson,oncology,princeton").unwrap();
    writeln!(file, "1003,dr_grey,surgery,seattle_grace").unwrap();
    drop(file);

    let program = format!(
        r#"
        @bind("Doctor", "csv:{}").

        Hospital("princeton", "nj"). Hospital("seattle_grace", "wa").

        % Source-to-target mapping with invented hospital ids.
        Doctor(npi, name, spec, hospital) -> TargetDoctor(npi, name, spec).
        Doctor(npi, name, spec, hospital) -> WorksAt(npi, hospital).
        Hospital(hname, state) -> TargetHospital(hid, hname, state).
        WorksAt(npi, hname), TargetHospital(hid, hname, state) -> Employment(npi, hid).

        % Functional dependency on the target, checked on ground values only.
        Dom(h1), Dom(h2), TargetHospital(h1, n, s1), TargetHospital(h2, n, s2) -> h1 = h2.

        @output("TargetDoctor").
        @output("Employment").
    "#,
        csv_path.display()
    );

    let result = Reasoner::new()
        .reason_text(&program)
        .expect("reasoning failed");

    println!("Target doctors:");
    for fact in result.output("TargetDoctor") {
        println!("  {fact}");
    }
    println!("\nEmployment (doctor id -> invented hospital id):");
    for fact in result.output("Employment") {
        println!("  {fact}");
    }
    println!("\nConstraint violations: {:?}", result.violations);
    std::fs::remove_file(&csv_path).ok();
}
