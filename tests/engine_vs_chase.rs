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

/// A constraint/EGD program, the number of violations it has, and the
/// exact messages among them that the row pins.
type ViolationRow = (&'static str, usize, &'static [&'static str]);

/// Programs whose checks exercise every path of the engine's check
/// evaluation: residual literals, negation, EGD heads, a `Dom` guard, the
/// intersect stage, an empty positive body, the assignment kinds the
/// oracle evaluates, skips or rejects, and a check over a rule whose delta
/// plan probes out of join order.
const VIOLATION_TABLE: &[ViolationRow] = &[
    // A residual (expression) condition and a negated atom.
    (
        "Own(\"a\", \"b\", 0.9). Own(\"b\", \"c\", 0.4). Own(\"c\", \"c\", 0.8).\n\
         Own(\"d\", \"a\", 0.7). Listed(\"a\").\n\
         Own(x, y, w), not Listed(x), w * 2 > 1.0 -> false.",
        2,
        &[],
    ),
    // A plain EGD, violated both ways.
    ("A(1, 2). A(1, 3). A(x, y), A(x, z) -> y = z.", 2, &[]),
    // DoctorsFD's shape: a `Dom`-guarded EGD over constant hospital ids.
    (
        "TargetHospital(\"h1\", \"ann\", \"rome\"). TargetHospital(\"h2\", \"ann\", \"oslo\").\n\
         TargetHospital(\"h3\", \"bob\", \"rome\"). TargetHospital(\"h3\", \"cy\", \"rome\").\n\
         Dom(h1), Dom(h2), TargetHospital(h1, n, c1), TargetHospital(h2, n, c2) -> h1 = h2.",
        2,
        &[],
    ),
    // A triangle body: the intersect stage under `FreeJoin`.
    (
        "Edge(1, 2). Edge(2, 3). Edge(1, 3). Edge(3, 4). Edge(2, 4). Edge(4, 1).\n\
         Edge(x, y), Edge(y, z), Edge(x, z) -> false.",
        2,
        &[],
    ),
    // No positive atom: evaluated once, on the empty binding.
    (
        "A(1). not A(2) -> false.",
        1,
        &["constraint violated: not A(2) -> ⊥ under {}"],
    ),
    // An assignment shows up in the message.
    (
        "A(1). A(2). A(x), y = x + 1, y > 2 -> false.",
        1,
        &["constraint violated: A(x), y = (x + 1), y > 2 -> ⊥ under {y ↦ 3, x ↦ 2}"],
    ),
    // An aggregate assignment is skipped, so `c` stays unbound.
    (
        "A(1, 2). A(1, 3). A(x, y), A(x, z), c = mcount(y) -> c = 1.",
        0,
        &[],
    ),
    // A Skolem assignment rejects the match.
    ("A(1). A(x), y = #f(x) -> false.", 0, &[]),
    // The strong-links reproducer: on the recursive `PSC` delta the planner
    // probes `KeyPerson` (sharing `p`) before `Control`, which the join
    // order puts next; the matches must come out as the canonical order's.
    (
        "Control(1, 2). Control(2, 3). Control(1, 4). KeyPerson(1, \"ann\").\n\
         KeyPerson(2, \"bob\"). Seed(0, \"ann\"). Seed(1, \"bob\").\n\
         Seed(x, p) -> PSC(x, p).\n\
         Control(a, b), KeyPerson(a, p), PSC(y, p), b > y -> S(b, y).\n\
         Control(y, x), PSC(y, p) -> PSC(x, p).\n\
         S(b, y) -> false.",
        4,
        &[],
    ),
];

#[test]
fn violations_agree_between_engine_and_chase() {
    use vadalog_engine::{JoinStrategy, ReasonerOptions};
    // The plain EGD and the triangle again over a larger EDB, so that at
    // more than one worker the checks' driving windows split into chunks.
    // Neither padding adds a violation: each padded `x` has one `y`, and a
    // chain has no triangle.
    let pad = |fact: fn(usize) -> String, src: &str| -> String {
        (10..40).map(fact).collect::<String>() + src
    };
    let grown = [
        (
            pad(|k| format!("A({k}, {k}). "), VIOLATION_TABLE[1].0),
            VIOLATION_TABLE[1].1,
        ),
        (
            pad(|k| format!("Edge({k}, {}). ", k + 1), VIOLATION_TABLE[3].0),
            VIOLATION_TABLE[3].1,
        ),
    ];
    let rows = VIOLATION_TABLE
        .iter()
        .map(|&(src, count, pinned)| (src.to_string(), count, pinned))
        .chain(grown.into_iter().map(|(src, count)| (src, count, &[][..])));
    // Total work items per worker count, over every program.
    let mut chunks = [0u64; 2];
    for (src, count, pinned) in rows {
        let program = parse_program(&src).unwrap();
        let mut strategy = WardedStrategy::new();
        let mut expected = run_chase(&program, &mut strategy, &ChaseOptions::default()).violations;
        expected.sort();
        assert_eq!(expected.len(), count, "{src}\n{expected:#?}");
        for message in pinned {
            assert!(
                expected.iter().any(|v| v == message),
                "{src}\n{expected:#?}"
            );
        }
        // The engine's list is one list at every worker count and join
        // strategy, and as a multiset it is the chase's.
        let mut lists = Vec::new();
        for (p, parallelism) in [1, 4].into_iter().enumerate() {
            for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
                let options = ReasonerOptions {
                    parallelism,
                    join_strategy,
                    ..ReasonerOptions::default()
                };
                let result = Reasoner::with_options(options).reason(&program).unwrap();
                chunks[p] += result.stats.pipeline.intra_filter_chunks;
                lists.push(result.violations);
            }
        }
        for list in &lists[1..] {
            assert_eq!(&lists[0], list, "{src}");
        }
        let mut engine = lists.swap_remove(0);
        engine.sort();
        assert_eq!(engine, expected, "{src}");
    }
    assert!(chunks[1] > chunks[0], "no check window split: {chunks:?}");
}
