//! End-to-end tests for the modelling features of Sections 2 and 5 that go
//! beyond plain TGDs: stratified negation, negative constraints (`→ ⊥`),
//! equality-generating dependencies, and the `Dom(*)` active-domain guard of
//! Example 6.

use vadalog_engine::{JoinStrategy, Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

// ------------------------------------------------------------- negation

#[test]
fn stratified_negation_computes_the_complement() {
    // Active companies are companies not known to be dissolved.
    let src = "Company(\"a\"). Company(\"b\"). Company(\"c\").\n\
               Dissolved(\"b\").\n\
               Company(x), not Dissolved(x) -> Active(x).\n\
               @output(\"Active\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    let active: Vec<Fact> = result.output("Active");
    assert_eq!(active.len(), 2);
    assert!(active.contains(&Fact::new("Active", vec!["a".into()])));
    assert!(active.contains(&Fact::new("Active", vec!["c".into()])));
    assert!(!active.contains(&Fact::new("Active", vec!["b".into()])));
}

#[test]
fn negation_composes_with_recursion_across_strata() {
    // Reachability in stratum 0, then "isolated" nodes in stratum 1.
    let src = "Edge(\"a\", \"b\"). Edge(\"b\", \"c\"). Node(\"a\"). Node(\"b\"). Node(\"c\"). Node(\"d\").\n\
               Edge(x, y) -> Reach(x, y).\n\
               Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
               Reach(x, y) -> Connected(x).\n\
               Reach(x, y) -> Connected(y).\n\
               Node(x), not Connected(x) -> Isolated(x).\n\
               @output(\"Isolated\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    let isolated = result.output("Isolated");
    assert_eq!(isolated, vec![Fact::new("Isolated", vec!["d".into()])]);
}

#[test]
fn non_stratifiable_negation_is_detected_by_the_analysis() {
    use vadalog_analysis::PredicateGraph;
    let src = "P(x), not Q(x) -> Q(x).";
    let program = parse_program(src).unwrap();
    let graph = PredicateGraph::build(&program);
    assert!(graph.stratify().is_err());
}

// ----------------------------------------------------- negative constraints

#[test]
fn negative_constraints_report_violations_without_stopping_reasoning() {
    // Rule 6 of Example 6: no company may own itself.
    let src = "Own(\"a\", \"a\", 0.3). Own(\"a\", \"b\", 0.7).\n\
               Own(x, x, w) -> false.\n\
               Own(x, y, w), w > 0.5 -> Control(x, y).\n\
               @output(\"Control\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    assert_eq!(
        result.violations.len(),
        1,
        "the self-ownership must be flagged"
    );
    // reasoning still produced the unrelated control fact
    assert_eq!(
        result.output("Control"),
        vec![Fact::new("Control", vec!["a".into(), "b".into(),])]
    );
}

#[test]
fn satisfied_constraints_stay_silent() {
    let src = "Own(\"a\", \"b\", 0.6).\n\
               Own(x, x, w) -> false.\n\
               @output(\"Own\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    assert!(result.violations.is_empty());
}

// ------------------------------------------------------------------- EGDs

#[test]
fn egd_violations_are_reported_on_ground_data() {
    // Example 6, rule 5: an incorporation must have a unique owner.
    let src = "Incorp(\"y\", \"z\").\n\
               Own(\"o1\", \"y\", 0.6). Own(\"o2\", \"z\", 0.6).\n\
               Incorp(y, z), Own(x1, y, w1), Own(x2, z, w2) -> x1 = x2.\n\
               @output(\"Incorp\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    assert!(
        !result.violations.is_empty(),
        "distinct owners o1/o2 must violate the EGD"
    );
}

#[test]
fn egds_hold_when_the_equated_values_coincide() {
    let src = "Incorp(\"y\", \"z\").\n\
               Own(\"o\", \"y\", 0.6). Own(\"o\", \"z\", 0.6).\n\
               Incorp(y, z), Own(x1, y, w1), Own(x2, z, w2) -> x1 = x2.\n\
               @output(\"Incorp\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    assert!(result.violations.is_empty());
}

#[test]
fn violation_lists_are_identical_across_worker_counts() {
    // A constraint over 210 `Own` rows and an EGD over 150 `Incorp` rows.
    // With more than one worker, both checks split the rows of the atom
    // that drives their join into chunks; they must report the same
    // violations in the same order as the one-worker run, under both join
    // strategies.
    let mut src = String::from(
        "Own(x, x, w) -> false.\n\
         Incorp(y, z), Own(x1, y, w1), Own(x2, z, w2) -> x1 = x2.\n\
         Own(x, y, w), w > 0.5 -> Control(x, y).\n\
         @output(\"Control\").\n",
    );
    // Companies c2k and c2k+1 share the owner ok, so only the odd
    // incorporations (c2k+1 into c2k+2) break the EGD: 75 of them.
    for j in 0..200 {
        src.push_str(&format!("Own(\"o{}\", \"c{j}\", 0.6).\n", j / 2));
    }
    for i in 0..150 {
        src.push_str(&format!("Incorp(\"c{i}\", \"c{}\").\n", i + 1));
    }
    // Ten self-owned companies break the constraint.
    for k in 0..10 {
        src.push_str(&format!("Own(\"s{k}\", \"s{k}\", 0.2).\n"));
    }
    let run = |parallelism: usize, join_strategy: JoinStrategy| {
        let result = Reasoner::with_options(ReasonerOptions {
            parallelism,
            join_strategy,
            ..ReasonerOptions::default()
        })
        .reason_text(&src)
        .unwrap();
        (result.violations, result.stats.pipeline.intra_filter_chunks)
    };
    let (sequential, sequential_chunks) = run(1, JoinStrategy::FreeJoin);
    let count = |prefix: &str| sequential.iter().filter(|v| v.starts_with(prefix)).count();
    assert_eq!(count("constraint violated:"), 10, "{sequential:#?}");
    assert_eq!(count("egd violated:"), 75, "{sequential:#?}");
    for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
        assert_eq!(sequential, run(1, join_strategy).0);
        for parallelism in [2, 4] {
            let (violations, chunks) = run(parallelism, join_strategy);
            assert_eq!(sequential, violations, "{parallelism} workers");
            assert!(
                chunks > sequential_chunks,
                "{parallelism} workers never split"
            );
        }
    }
}

// ------------------------------------------------------------------ Dom(*)

#[test]
fn dom_guard_restricts_rules_to_ground_values() {
    // Example 6 uses Dom(*) so the EGD is never checked against labelled
    // nulls produced by the existential rule. Here the same guard keeps a
    // copy rule from propagating anonymous witnesses.
    let src = "Company(\"a\").\n\
               Company(x) -> Owns(p, s, x).\n\
               Dom(p), Owns(p, s, x) -> KnownOwner(p, x).\n\
               @output(\"KnownOwner\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    // The only Owns fact has an anonymous owner, so the Dom guard filters it.
    assert!(result.output("KnownOwner").is_empty());
    assert!(!result.facts_of("Owns").is_empty());

    // With a ground owner present, the guarded rule fires for it.
    let src_with_ground = "Company(\"a\"). Owns(\"alice\", \"60\", \"a\").\n\
               Company(x) -> Owns(p, s, x).\n\
               Dom(p), Owns(p, s, x) -> KnownOwner(p, x).\n\
               @output(\"KnownOwner\").";
    let result = Reasoner::new().reason_text(src_with_ground).unwrap();
    assert_eq!(
        result.output("KnownOwner"),
        vec![Fact::new("KnownOwner", vec!["alice".into(), "a".into()])]
    );
}

// ------------------------------------------- certain answers + constraints

#[test]
fn certain_answer_post_processing_composes_with_constraints() {
    let options = ReasonerOptions {
        certain_answers_only: true,
        ..ReasonerOptions::default()
    };
    let src = "Company(\"a\"). Company(\"b\"). Control(\"a\", \"b\"). KeyPerson(\"bob\", \"a\").\n\
               Company(x) -> KeyPerson(p, x).\n\
               Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).\n\
               KeyPerson(p, x), Control(x, x) -> false.\n\
               @output(\"KeyPerson\").";
    let result = Reasoner::with_options(options).reason_text(src).unwrap();
    assert!(result.violations.is_empty());
    assert!(result.output("KeyPerson").iter().all(Fact::is_ground));
    assert!(result
        .output("KeyPerson")
        .contains(&Fact::new("KeyPerson", vec!["bob".into(), "b".into()])));
}
