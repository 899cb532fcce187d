//! The admission-mode boundary: a run that can never hold a labelled null
//! (no rule invents one, no stored fact carries one) admits through the
//! store's own exact-duplicate test and never calls its termination
//! strategy; a run that can hold one — rules with existentials or Skolem
//! terms, or EDB nulls under plain rules — keeps Algorithm 1.

use std::collections::{BTreeMap, BTreeSet};
use vadalog_chase::{
    run_chase, Candidate, ChaseOptions, Step, StrategyHeap, StrategyStats, TerminationStrategy,
    WardedStrategy,
};
use vadalog_engine::{AccessPlan, Pipeline, Reasoner, ReasonerOptions, TerminationKind};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;
use vadalog_rewrite::prepare_for_execution;
use vadalog_storage::FactStore;

/// A strategy a null-free run must never touch.
struct Forbidden;

impl TerminationStrategy for Forbidden {
    fn admit(&mut self, _store: &FactStore, candidate: &Candidate<'_>, _step: &Step) -> bool {
        panic!(
            "admit({}) on a null-free run",
            Fact::new_sym(candidate.predicate(), resolve_values(candidate.row()))
        );
    }

    fn stats(&self) -> StrategyStats {
        StrategyStats::default()
    }

    fn heap_bytes(&self) -> StrategyHeap {
        StrategyHeap::default()
    }

    fn name(&self) -> &'static str {
        "forbidden"
    }
}

fn str_fact(predicate: &str, args: &[&str]) -> Fact {
    Fact::new(predicate, args.iter().map(|a| Value::str(a)).collect())
}

fn null(n: u64) -> Value {
    Value::Null(NullId(n))
}

/// Every fact of the store, grouped by predicate name.
fn contents(store: &FactStore) -> BTreeMap<String, BTreeSet<Fact>> {
    let mut out: BTreeMap<String, BTreeSet<Fact>> = BTreeMap::new();
    for fact in store.iter() {
        out.entry(fact.predicate_name().to_string())
            .or_default()
            .insert(fact);
    }
    out
}

/// (a) A null-free program runs through `Pipeline` — load, run, load more
/// ground facts into the same pipeline, run — without a single strategy call,
/// and ends with the instance the reference chase under Algorithm 1
/// computes.
#[test]
fn null_free_runs_never_call_the_strategy() {
    let rules = parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         Reach(x, y), not Blocked(y) -> Open(x, y).\n\
         Reach(x, y), Reach(y, x) -> Cycle(x).",
    )
    .unwrap();
    let first = [
        str_fact("Edge", &["a", "b"]),
        str_fact("Edge", &["b", "c"]),
        str_fact("Blocked", &["c"]),
    ];
    let second = [str_fact("Edge", &["c", "a"]), str_fact("Edge", &["c", "d"])];

    let compiled = prepare_for_execution(&rules);
    let plan = AccessPlan::compile(&compiled);
    assert!(!plan.invents_nulls);
    let mut pipeline = Pipeline::new(&plan, Box::new(Forbidden));
    pipeline.load_facts(first.iter().cloned());
    pipeline.run();
    pipeline.load_facts(second.iter().cloned());
    pipeline.run();

    let stats = pipeline.stats();
    assert_eq!(stats.strategy.admitted, stats.facts_derived as u64);
    assert_eq!(stats.strategy.duplicates, stats.facts_suppressed as u64);
    assert_eq!(stats.strategy.isomorphism_checks, 0);
    assert_eq!(stats.strategy.suppressed, 0);

    let mut union = rules.clone();
    for f in first.into_iter().chain(second) {
        union.add_fact(f);
    }
    let chase = run_chase(&union, &mut WardedStrategy::new(), &ChaseOptions::default());
    assert_eq!(contents(pipeline.store()), contents(&chase.store));
}

/// (b) EDB nulls under rules that invent none: the run can hold a null, so
/// Algorithm 1 still decides, and the swap `E(ν2, ν1)` of the stored
/// `E(ν1, ν2)` is suppressed as isomorphic — through `Reasoner::reason`
/// and through a query session's `query` and `reason`.
#[test]
fn edb_nulls_keep_the_strategy_without_existentials() {
    let mut program = parse_program("E(x, y) -> E(y, x).\n@output(\"E\").").unwrap();
    program.add_fact(str_fact("E", &["a", "b"]));
    program.add_fact(Fact::new("E", vec![null(1), null(2)]));
    let swapped = Fact::new("E", vec![null(2), null(1)]);
    let expected: BTreeSet<Fact> = [
        str_fact("E", &["a", "b"]),
        str_fact("E", &["b", "a"]),
        Fact::new("E", vec![null(1), null(2)]),
    ]
    .into();

    let run = Reasoner::new().reason(&program).unwrap();
    assert_eq!(
        run.output("E").into_iter().collect::<BTreeSet<_>>(),
        expected
    );
    let s = run.stats.pipeline;
    assert_eq!(s.facts_derived, 1, "only E(b, a) is new");
    // E(b, a) → E(a, b) is an exact duplicate; E(ν1, ν2) → E(ν2, ν1) is
    // the isomorphic swap.
    assert_eq!(s.facts_suppressed, 2);
    assert_eq!(
        (s.strategy.duplicates, s.strategy.suppressed),
        (1, 1),
        "{:?}",
        s.strategy
    );
    assert_eq!(s.strategy.isomorphism_checks, 2);
    assert_eq!(s.strategy.stop_provenances, 1);

    let mut session = Reasoner::new().session(&program).unwrap();
    let all = Atom {
        predicate: intern("E"),
        terms: vec![Term::var("x"), Term::var("y")],
    };
    let answered = session.query(&all).unwrap();
    assert!(!answered.answers.contains(&swapped));
    assert_eq!(
        answered.answers.into_iter().collect::<BTreeSet<_>>(),
        expected
    );
    assert_eq!(answered.run.stats.pipeline.strategy.suppressed, 1);
    let bound = Atom {
        predicate: intern("E"),
        terms: vec![Term::Const(Value::str("a")), Term::var("y")],
    };
    let from_run: Vec<Fact> = run
        .output("E")
        .into_iter()
        .filter(|f| f.args[0] == Value::str("a"))
        .collect();
    assert_eq!(session.query(&bound).unwrap().answers, from_run);

    let full = session.reason().unwrap();
    assert_eq!(full.stats.total_facts, 3);
    assert_eq!(full.stats.pipeline.strategy.suppressed, 1);
    assert_eq!(full.outputs, run.outputs);
}

/// (c) Two matches of one emission produce the same head row, a third
/// repeats an EDB fact: the store's dedup admits the first and counts the
/// other two exactly as Algorithm 1 did.
#[test]
fn duplicates_inside_one_emission_are_counted_once_each() {
    let mut program = parse_program("A(x, y) -> B(x).\n@output(\"B\").").unwrap();
    for f in [
        str_fact("A", &["1", "2"]),
        str_fact("A", &["1", "3"]),
        str_fact("A", &["4", "5"]),
        str_fact("B", &["4"]),
    ] {
        program.add_fact(f);
    }
    let run = Reasoner::new().reason(&program).unwrap();
    let s = run.stats.pipeline;
    assert_eq!((s.facts_derived, s.facts_suppressed), (1, 2));
    assert_eq!((s.strategy.admitted, s.strategy.duplicates), (1, 2));
    // Algorithm 1 also ran one (necessarily negative) isomorphism check on
    // the admitted ground row; the store's dedup needs none.
    assert_eq!(s.strategy.isomorphism_checks, 0);
    assert_eq!(
        run.facts_of("B"),
        vec![str_fact("B", &["4"]), str_fact("B", &["1"])],
        "FactId order: EDB row first, then the one admitted row"
    );

    // Under `trivial-iso` the same rows are now counted as duplicates
    // (they were isomorphism-check suppressions): the suppressed total and
    // the instance do not move.
    let trivial = Reasoner::with_options(ReasonerOptions {
        termination: TerminationKind::TrivialIso,
        ..ReasonerOptions::default()
    })
    .reason(&program)
    .unwrap();
    let t = trivial.stats.pipeline;
    assert_eq!((t.facts_derived, t.facts_suppressed), (1, 2));
    assert_eq!((t.strategy.duplicates, t.strategy.suppressed), (2, 0));
    assert_eq!(trivial.facts_of("B"), run.facts_of("B"));
}

/// (d) The documented weakening: a null-free pipeline that has run and then
/// loads a null-carrying fact registers nothing. Every fact it stores —
/// the derived one included — is a root to the strategy, and the next run
/// decides under it. Here the instance still equals a run under the
/// strategy from the start.
#[test]
fn a_null_ends_the_null_free_mode_without_registering_the_store() {
    let rules = parse_program("E(x, y) -> E(y, x).").unwrap();
    let compiled = prepare_for_execution(&rules);
    let plan = AccessPlan::compile(&compiled);
    let mut pipeline = Pipeline::new(&plan, Box::new(WardedStrategy::new()));
    pipeline.load_facts([str_fact("E", &["a", "b"])]);
    pipeline.run();
    let s = pipeline.stats();
    assert_eq!(s.facts_derived, 1);
    assert_eq!(
        s.strategy,
        StrategyStats {
            admitted: 1,
            duplicates: 1,
            ..StrategyStats::default()
        },
        "null-free so far: the store's dedup decided"
    );

    let with_nulls = Fact::new("E", vec![null(1), null(2)]);
    pipeline.load_facts([with_nulls.clone()]);
    pipeline.run();
    let s = pipeline.stats();
    assert_eq!(s.strategy.suppressed, 1, "the swap is isomorphic");
    assert_eq!(s.strategy.isomorphism_checks, 1);
    assert_eq!(s.facts_derived, 1);

    let mut union = rules.clone();
    union.add_fact(str_fact("E", &["a", "b"]));
    union.add_fact(with_nulls);
    let fresh = Reasoner::new().reason(&union).unwrap();
    assert_eq!(contents(pipeline.store()), contents(&fresh.store));
}
