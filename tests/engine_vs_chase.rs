//! Cross-engine agreement tests: the pipeline engine, the terminating chase
//! and the baseline engines must agree on ground answers for programs in
//! their common fragment.

use vadalog_chase::baselines::seminaive_datalog;
use vadalog_chase::{run_chase, ChaseOptions, WardedStrategy};
use vadalog_engine::Reasoner;
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

fn ground_facts_of(facts: &[Fact]) -> std::collections::BTreeSet<Fact> {
    facts.iter().filter(|f| f.is_ground()).cloned().collect()
}

#[test]
fn datalog_transitive_closure_agreement() {
    let src = "Edge(\"a\", \"b\"). Edge(\"b\", \"c\"). Edge(\"c\", \"d\"). Edge(\"d\", \"a\").\n\
               Edge(x, y) -> Reach(x, y).\n\
               Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
               @output(\"Reach\").";
    let program = parse_program(src).unwrap();

    let engine = Reasoner::new().reason(&program).unwrap();
    let mut strategy = WardedStrategy::new();
    let chase = run_chase(&program, &mut strategy, &ChaseOptions::default());
    let seminaive = seminaive_datalog(&program, 100);

    let engine_reach = ground_facts_of(&engine.output("Reach"));
    let chase_reach = ground_facts_of(&chase.facts_of("Reach"));
    let seminaive_reach = ground_facts_of(&seminaive.facts_of("Reach"));

    assert_eq!(engine_reach.len(), 16, "4-cycle closure has 16 pairs");
    assert_eq!(engine_reach, chase_reach);
    assert_eq!(engine_reach, seminaive_reach);
}

#[test]
fn warded_program_with_existentials_agreement_on_ground_atoms() {
    let src = "Company(\"a\"). Company(\"b\"). Control(\"a\", \"b\"). KeyPerson(\"kim\", \"a\").\n\
               Company(x) -> KeyPerson(p, x).\n\
               Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).\n\
               @output(\"KeyPerson\").";
    let program = parse_program(src).unwrap();

    let engine = Reasoner::new().reason(&program).unwrap();
    let mut strategy = WardedStrategy::new();
    let chase = run_chase(&program, &mut strategy, &ChaseOptions::default());

    assert_eq!(
        ground_facts_of(&engine.output("KeyPerson")),
        ground_facts_of(&chase.facts_of("KeyPerson"))
    );
}

#[test]
fn rewriting_does_not_change_ground_answers() {
    let src = "KeyPerson(\"c1\", \"ann\"). KeyPerson(\"c2\", \"ann\").\n\
               Company(\"c1\"). Company(\"c2\"). Company(\"c3\").\n\
               Control(\"c1\", \"c3\").\n\
               KeyPerson(x, p) -> PSC(x, p).\n\
               Company(x) -> PSC(x, p).\n\
               Control(y, x), PSC(y, p) -> PSC(x, p).\n\
               PSC(x, p), PSC(y, p), x > y -> StrongLink(x, y).\n\
               @output(\"StrongLink\").";
    let program = parse_program(src).unwrap();

    let with_rewriting = Reasoner::new().reason(&program).unwrap();
    let without = Reasoner::with_options(vadalog_engine::ReasonerOptions {
        apply_rewriting: false,
        ..Default::default()
    })
    .reason(&program)
    .unwrap();

    let a = ground_facts_of(&with_rewriting.output("StrongLink"));
    let b = ground_facts_of(&without.output("StrongLink"));
    // Ground strong links derivable without nulls must be present in both.
    assert!(a.contains(&Fact::new("StrongLink", vec!["c2".into(), "c1".into()])));
    assert!(a.is_superset(&b) || b.is_superset(&a));
}

#[test]
fn parallel_sweep_agrees_with_chase_and_itself_at_every_thread_count() {
    // The same parity source as above, run through the engine at several
    // worker counts: every run must be bit-identical (same facts in the same
    // insertion order, same null ids), and all of them must agree with the
    // terminating chase on ground answers.
    let src = "Company(\"a\"). Company(\"b\"). Control(\"a\", \"b\"). KeyPerson(\"kim\", \"a\").\n\
               Company(x) -> KeyPerson(p, x).\n\
               Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).\n\
               @output(\"KeyPerson\").";
    let program = parse_program(src).unwrap();

    let runs: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            Reasoner::with_options(vadalog_engine::ReasonerOptions {
                parallelism: threads,
                ..Default::default()
            })
            .reason(&program)
            .unwrap()
        })
        .collect();
    for r in &runs[1..] {
        assert_eq!(
            runs[0].facts_of("KeyPerson"),
            r.facts_of("KeyPerson"),
            "engine output must be bit-identical across thread counts"
        );
        assert_eq!(
            runs[0].stats.pipeline.facts_derived,
            r.stats.pipeline.facts_derived
        );
    }

    let mut strategy = WardedStrategy::new();
    let chase = run_chase(&program, &mut strategy, &ChaseOptions::default());
    for r in &runs {
        assert_eq!(
            ground_facts_of(&r.output("KeyPerson")),
            ground_facts_of(&chase.facts_of("KeyPerson"))
        );
    }
}

#[test]
fn violations_agree_between_engine_and_chase() {
    let src = "Own(\"a\", \"a\", 0.2). Own(\"a\", \"b\", 0.9).\n\
               Own(x, y, w) -> SoftLink(x, y).\n\
               Own(x, x, w) -> false.\n\
               @output(\"SoftLink\").";
    let program = parse_program(src).unwrap();
    let engine = Reasoner::new().reason(&program).unwrap();
    let mut strategy = WardedStrategy::new();
    let chase = run_chase(&program, &mut strategy, &ChaseOptions::default());
    assert_eq!(engine.violations.len(), 1);
    assert_eq!(chase.violations.len(), 1);
}
