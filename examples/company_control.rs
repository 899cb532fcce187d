//! Company control with monotonic aggregation (Example 2 of the paper):
//! a company controls another if it directly owns more than half of it, or
//! if the companies it controls *jointly* own more than half of it.
//!
//! Run with `cargo run --example company_control`.

use vadalog_engine::Reasoner;

fn main() {
    let program = r#"
        % Ownership shares (comp1 owns w of comp2).
        Own("holding", "alpha", 0.60).
        Own("holding", "beta",  0.55).
        Own("alpha",   "target", 0.30).
        Own("beta",    "target", 0.25).
        Own("outsider","target", 0.45).

        % Example 2: direct control, plus joint control through msum.
        Own(x, y, w), w > 0.5 -> Control(x, y).
        Control(x, y), Own(y, z, w), v = msum(w, <y>), v > 0.5 -> Control(x, z).

        @output("Control").
    "#;

    let result = Reasoner::new()
        .reason_text(program)
        .expect("reasoning failed");

    println!("Control relationships (including joint control):");
    for fact in result.output("Control") {
        println!("  {fact}");
    }
    // "holding" controls alpha and beta directly, and therefore controls
    // "target" through their combined 55% stake, while "outsider" does not.
    assert!(result
        .output("Control")
        .iter()
        .any(|f| f.args[0].as_str() == Some("holding") && f.args[1].as_str() == Some("target")));
}
