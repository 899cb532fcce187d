//! Tier-1 smoke for the join executor: every stage kind of the stage
//! interpreter — all-probe plans, an intersect stage between ear probes, an
//! intersect stage alone, and an intersect stage over tries mounted on a
//! layered session base — runs under the root `cargo test`, each checked
//! against the naive chase and the `Binary` reference.

use std::collections::BTreeSet;
use vadalog::engine::JoinStrategy;
use vadalog::{Reasoner, ReasonerOptions};
use vadalog_chase::{run_chase, ChaseOptions, WardedStrategy};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

const EDGES: &str = "Edge(1, 2). Edge(2, 3). Edge(1, 3). Edge(3, 4). Edge(2, 4). Edge(1, 4).\n\
                     Edge(4, 1). Pend(3, 30). Pend(4, 40). Pend(4, 41).\n";

/// Run `rules` over [`EDGES`] through `reason_text` and compare `output`
/// fact-for-fact with the `Binary` reference (same rows, same order) and
/// with the chase (same set). Returns the default run for stat assertions.
fn check(rules: &str, output: &str) -> vadalog::RunResult {
    let src = format!("{EDGES}{rules}\n@output(\"{output}\").");
    let run = Reasoner::new().reason_text(&src).unwrap();
    assert!(!run.output(output).is_empty(), "{output} is empty");

    let binary = Reasoner::with_options(ReasonerOptions {
        join_strategy: JoinStrategy::Binary,
        ..Default::default()
    })
    .reason_text(&src)
    .unwrap();
    assert_eq!(binary.stats.pipeline.wcoj_activations, 0);
    assert_eq!(binary.stats.pipeline.hybrid_activations, 0);
    assert_eq!(run.output(output), binary.output(output), "vs Binary");

    let program = parse_program(&src).unwrap();
    let chase = run_chase(
        &program,
        &mut WardedStrategy::new(),
        &ChaseOptions::default(),
    );
    let set = |facts: Vec<Fact>| facts.into_iter().collect::<BTreeSet<Fact>>();
    assert_eq!(
        set(run.output(output)),
        set(chase.facts_of(output)),
        "vs chase"
    );
    run
}

#[test]
fn acyclic_bodies_run_probe_stages_only() {
    let run = check("Edge(x, y), Edge(y, z), Pend(z, w) -> Path(x, w).", "Path");
    let s = &run.stats.pipeline;
    assert_eq!((s.wcoj_activations, s.hybrid_activations), (0, 0));
    assert_eq!(s.wcoj_seeks, 0);
    assert!(s.index_probes > 0);
}

#[test]
fn lollipop_bodies_leapfrog_the_core_between_ear_probes() {
    let run = check(
        "Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, y, z, w).",
        "Lolli",
    );
    let s = &run.stats.pipeline;
    assert!(s.hybrid_activations > 0);
    assert_eq!(s.wcoj_activations, 0);
    assert!(s.wcoj_intersections > 0 && s.index_probes > 0);
}

#[test]
fn triangle_bodies_are_one_intersect_stage() {
    let run = check(
        "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).",
        "Triangle",
    );
    let s = &run.stats.pipeline;
    assert!(s.wcoj_activations > 0);
    assert_eq!(s.hybrid_activations, 0);
    // (1,2,3), (1,2,4), (1,3,4), (2,3,4).
    assert_eq!(run.output("Triangle").len(), 4);
}

#[test]
fn layered_session_queries_leapfrog_on_base_indexes() {
    // The `T` trie walks a three-column permutation no binary probe plans,
    // and after an append the base is a layer chain: the session builds the
    // core's trie lists on the base, and the cursors walk those runs.
    let src = "T(0, 2, 3). A(2, 4). B(3, 4). Pend(0, 100).\n\
               T(x, y, u), A(y, v), B(u, v), Pend(x, w) -> Out(x, y, u, v, w).\n\
               @output(\"Out\").";
    let program = parse_program(src).unwrap();
    let int = |p: &str, args: &[i64]| Fact::new(p, args.iter().map(|a| Value::Int(*a)).collect());
    let batch = [
        int("T", &[1, 5, 6]),
        int("A", &[5, 7]),
        int("B", &[6, 7]),
        int("Pend", &[1, 101]),
    ];
    let mut session = Reasoner::new().session(&program).unwrap();
    session.append_facts(batch.clone()).unwrap();
    let query = Atom {
        predicate: intern("Out"),
        terms: std::iter::once(Term::Const(Value::Int(1)))
            .chain(["y", "u", "v", "w"].map(Term::var))
            .collect(),
    };
    let answer = session.query(&query).unwrap();
    assert!(answer.run.stats.pipeline.hybrid_activations > 0);

    let mut union = program.clone();
    for f in batch {
        union.add_fact(f);
    }
    let fresh = Reasoner::new().reason_query(&union, &query).unwrap();
    assert_eq!(answer.answers, fresh.answers);
    assert_eq!(answer.answers, vec![int("Out", &[1, 5, 6, 7, 101])]);
}
