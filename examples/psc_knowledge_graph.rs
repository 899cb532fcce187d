//! Persons of significant control over a small knowledge graph (Examples 7
//! and 11 of the paper): existential quantification invents unknown
//! controllers, wardedness keeps the reasoning finite, and the certain-answer
//! post-processing separates ground conclusions from anonymous witnesses.
//!
//! Run with `cargo run --example psc_knowledge_graph`.

use vadalog_engine::Reasoner;

fn main() {
    let program = r#"
        Company("HSBC"). Company("HSB"). Company("IBA").
        Controls("HSBC", "HSB"). Controls("HSB", "IBA").
        KeyPerson("alice", "HSBC").

        % Example 7: significantly controlled companies.
        Company(x) -> Owns(p, s, x).
        Owns(p, s, x) -> Stock(x, s).
        Owns(p, s, x) -> PSC(x, p).
        PSC(x, p), Controls(x, y) -> Owns(p, s, y).
        PSC(x, p), PSC(y, p) -> StrongLink(x, y).
        StrongLink(x, y) -> Owns(p, s, x).
        StrongLink(x, y) -> Owns(p, s, y).
        Stock(x, s) -> Company(x).

        % Known key persons are persons of significant control too.
        KeyPerson(p, x) -> PSC(x, p).

        @output("PSC").
        @output("StrongLink").
    "#;

    let reasoner = Reasoner::new();
    let result = reasoner.reason_text(program).expect("reasoning failed");

    println!("Persons of significant control (including anonymous witnesses):");
    for fact in result.output("PSC") {
        println!("  {fact}");
    }
    println!("\nStrong links between companies:");
    for fact in result.output("StrongLink") {
        println!("  {fact}");
    }

    // The same program restricted to certain answers (no labelled nulls):
    // the paper's `@post` post-processing directive on the sink.
    let certain = reasoner
        .reason_text(&format!("{program}\n@post(\"PSC\", \"certain\")."))
        .expect("reasoning failed");
    println!("\nCertain PSC answers (ground only):");
    for fact in certain.output("PSC") {
        println!("  {fact}");
    }

    println!(
        "\nTermination: {} candidate facts suppressed by Algorithm 1, {} isomorphism checks",
        result.stats.pipeline.strategy.suppressed,
        result.stats.pipeline.strategy.isomorphism_checks
    );
}
