//! A run stopped by a cap says so. `Pipeline::run` records which cap ended
//! the sweeps while they were still deriving facts, and `vadalog run` fails
//! with the truncated output instead of passing it off as the fixpoint. An
//! uncapped run reports no cap.

use vadalog_cli::CliError;
use vadalog_engine::{Reasoner, ReasonerOptions, RunCap};
use vadalog_parser::parse_program;

/// A 6-node chain: the transitive closure holds 15 `Reach` facts, and the
/// store holds 20 facts at the fixpoint.
const CHAIN: &str = r#"
Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(4, 5). Edge(5, 6).
Edge(x, y) -> Reach(x, y).
Reach(x, y), Edge(y, z) -> Reach(x, z).
@output("Reach").
"#;

fn run_cli(extra: &[&str]) -> Result<String, CliError> {
    let path = std::env::temp_dir().join(format!(
        "vadalog_capped_runs_{}_{}.vada",
        std::process::id(),
        extra.join("_").replace('-', "")
    ));
    std::fs::write(&path, CHAIN).unwrap();
    let mut args = vec!["run".to_string(), path.to_string_lossy().into_owned()];
    args.extend(extra.iter().map(|a| a.to_string()));
    let out = vadalog_cli::run_cli(&args);
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn fact_cap_is_recorded_and_fails_the_cli() {
    let program = parse_program(CHAIN).unwrap();
    let capped = Reasoner::with_options(ReasonerOptions {
        max_facts: 8,
        ..ReasonerOptions::default()
    })
    .reason(&program)
    .unwrap();
    assert_eq!(capped.stats.pipeline.capped, Some(RunCap::Facts(8)));
    assert!(capped.output("Reach").len() < 15);

    match run_cli(&["--max-facts", "8"]) {
        Err(CliError::Truncated { output, cap }) => {
            assert_eq!(cap, RunCap::Facts(8));
            let header = output.lines().next().unwrap();
            assert!(header.starts_with("% Reach (") && header != "% Reach (15 facts)");
            let message = CliError::Truncated { output, cap }.to_string();
            assert!(message.contains("--max-facts"), "{message}");
        }
        other => panic!("a capped run must not pass for a complete one: {other:?}"),
    }
}

#[test]
fn sweep_cap_is_recorded() {
    let program = parse_program(CHAIN).unwrap();
    let capped = Reasoner::with_options(ReasonerOptions {
        max_iterations: 2,
        ..ReasonerOptions::default()
    })
    .reason(&program)
    .unwrap();
    assert_eq!(capped.stats.pipeline.capped, Some(RunCap::Iterations(2)));
}

#[test]
fn uncapped_run_reports_no_cap() {
    let program = parse_program(CHAIN).unwrap();
    let full = Reasoner::new().reason(&program).unwrap();
    assert_eq!(full.stats.pipeline.capped, None);
    assert_eq!(full.output("Reach").len(), 15);
    // A cap the run's fixpoint does not exceed is no cap, even when the
    // fixpoint holds exactly that many facts.
    let out = run_cli(&["--max-facts", "20"]).unwrap();
    assert!(out.starts_with("% Reach (15 facts)\n"), "{out}");
}

#[test]
fn fact_cap_one_below_the_fixpoint_is_recorded() {
    let program = parse_program(CHAIN).unwrap();
    let capped = Reasoner::with_options(ReasonerOptions {
        max_facts: 19,
        ..ReasonerOptions::default()
    })
    .reason(&program)
    .unwrap();
    assert_eq!(capped.stats.pipeline.capped, Some(RunCap::Facts(19)));
}
