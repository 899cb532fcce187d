//! Quickstart: company control with plain Datalog rules (Example 2 without
//! aggregation).
//!
//! Run with `cargo run --example quickstart`.

use vadalog_engine::Reasoner;

fn main() {
    let program = r#"
        % Who controls whom, starting from direct majority ownership.
        Own("acme", "subsidiary", 0.62).
        Own("subsidiary", "leaf", 0.80).
        Own("acme", "minor", 0.10).

        Own(x, y, w), w > 0.5 -> Control(x, y).
        Control(x, y), Control(y, z) -> Control(x, z).

        @output("Control").
    "#;

    let result = Reasoner::new()
        .reason_text(program)
        .expect("reasoning failed");

    println!("Control relationships:");
    for fact in result.output("Control") {
        println!("  {fact}");
    }
    println!(
        "\n{} facts derived in {:?} ({} rules compiled)",
        result.stats.pipeline.facts_derived,
        result.stats.execution_time,
        result.stats.compiled_rules
    );
}
