//! Property-based tests for the end-to-end reasoner: the streaming pipeline
//! with termination-strategy wrappers must agree with the reference chase
//! implementations on randomly generated programs.

use proptest::prelude::*;
use std::collections::BTreeSet;
use vadalog_chase::baselines::seminaive_datalog;
use vadalog_engine::{Reasoner, ReasonerOptions, TerminationKind};
use vadalog_model::prelude::*;

// ---------------------------------------------------------------- generators

/// A random directed graph as Edge facts over a small node domain.
fn graph_edb(domain: usize) -> impl Strategy<Value = Vec<Fact>> {
    prop::collection::vec((0..domain, 0..domain), 1..25).prop_map(|pairs| {
        let mut facts = Vec::new();
        for (a, b) in pairs {
            facts.push(Fact::new(
                "Edge",
                vec![Value::str(&format!("n{a}")), Value::str(&format!("n{b}"))],
            ));
        }
        facts
    })
}

/// A recursive Datalog program over the graph (transitive closure plus a
/// projection), as text, with the EDB inlined.
fn datalog_program() -> impl Strategy<Value = Program> {
    graph_edb(6).prop_map(|facts| {
        let mut program = vadalog_parser::parse_program(
            "Edge(x, y) -> Reach(x, y).\n\
             Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
             Reach(x, y) -> Connected(x).\n\
             @output(\"Reach\").\n\
             @output(\"Connected\").",
        )
        .unwrap();
        for f in facts {
            program.add_fact(f);
        }
        program
    })
}

/// A warded program with existentials (Example 7 shape) over a random
/// company-control EDB.
fn warded_program() -> impl Strategy<Value = Program> {
    prop::collection::vec((0usize..5, 0usize..5), 1..8).prop_map(|pairs| {
        let mut program = vadalog_parser::parse_program(
            "Company(x) -> Owns(p, s, x).\n\
             Owns(p, s, x) -> Stock(x, s).\n\
             Owns(p, s, x) -> PSC(x, p).\n\
             PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
             PSC(x, p), PSC(y, p) -> StrongLink(x, y).\n\
             StrongLink(x, y) -> Owns(p, s, x).\n\
             Stock(x, s) -> Company(x).\n\
             @output(\"StrongLink\").\n\
             @output(\"PSC\").",
        )
        .unwrap();
        for (a, b) in pairs {
            let ca = Value::str(&format!("c{a}"));
            let cb = Value::str(&format!("c{b}"));
            program.add_fact(Fact::new("Company", vec![ca.clone()]));
            if a != b {
                program.add_fact(Fact::new("Controls", vec![ca, cb]));
            }
        }
        program
    })
}

fn ground_set(facts: &[Fact]) -> BTreeSet<Fact> {
    facts.iter().filter(|f| f.is_ground()).cloned().collect()
}

// ----------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On Datalog programs the streaming engine computes exactly the
    /// semi-naive fixpoint, for every output predicate.
    #[test]
    fn engine_matches_seminaive_on_datalog(p in datalog_program()) {
        let engine = Reasoner::new().reason(&p).expect("engine run failed");
        let baseline = seminaive_datalog(&p, 10_000);
        for pred in ["Reach", "Connected"] {
            let engine_facts: BTreeSet<Fact> = engine.output(pred).into_iter().collect();
            let baseline_facts: BTreeSet<Fact> =
                baseline.facts_of(pred).into_iter().collect();
            prop_assert_eq!(
                engine_facts,
                baseline_facts,
                "engine and semi-naive disagree on {}",
                pred
            );
        }
        prop_assert!(engine.violations.is_empty());
    }

    /// The engine's warded termination strategy and the exhaustive
    /// isomorphism baseline produce the same ground answers end to end.
    #[test]
    fn engine_warded_matches_trivial(p in warded_program()) {
        let warded = Reasoner::new().reason(&p).expect("warded run failed");
        let trivial = Reasoner::with_options(ReasonerOptions {
            termination: TerminationKind::TrivialIso,
            ..ReasonerOptions::default()
        })
        .reason(&p)
        .expect("trivial run failed");
        for pred in ["StrongLink", "PSC"] {
            prop_assert_eq!(
                ground_set(&warded.output(pred)),
                ground_set(&trivial.output(pred)),
                "ground answers differ for {}",
                pred
            );
        }
    }

    /// Reasoning is deterministic: running the same program twice yields the
    /// same outputs (null identifiers may differ, so compare ground facts and
    /// per-predicate counts).
    #[test]
    fn reasoning_is_deterministic(p in warded_program()) {
        let a = Reasoner::new().reason(&p).expect("first run failed");
        let b = Reasoner::new().reason(&p).expect("second run failed");
        for pred in ["StrongLink", "PSC"] {
            prop_assert_eq!(ground_set(&a.output(pred)), ground_set(&b.output(pred)));
            prop_assert_eq!(a.output(pred).len(), b.output(pred).len());
        }
    }

    /// Disabling the rewriting pass cannot change the ground answers of a
    /// program that has no harmful joins (rewriting is then a no-op
    /// semantically).
    #[test]
    fn rewriting_is_semantically_transparent_on_datalog(p in datalog_program()) {
        let with = Reasoner::new().reason(&p).expect("run failed");
        let without = Reasoner::with_options(ReasonerOptions {
            apply_rewriting: false,
            ..ReasonerOptions::default()
        })
        .reason(&p)
        .expect("run failed");
        for pred in ["Reach", "Connected"] {
            prop_assert_eq!(
                ground_set(&with.output(pred)),
                ground_set(&without.output(pred))
            );
        }
    }

    /// The certain-answer post-processing never *adds* facts and only keeps
    /// ground ones.
    #[test]
    fn certain_answers_are_a_ground_subset(p in warded_program()) {
        let all = Reasoner::new().reason(&p).expect("run failed");
        let mut post = p.clone();
        for pred in ["StrongLink", "PSC"] {
            post.annotations
                .push(Annotation::new(AnnotationKind::Post, pred, vec!["certain".into()]));
        }
        let certain = Reasoner::new().reason(&post).expect("run failed");
        for pred in ["StrongLink", "PSC"] {
            let all_set: BTreeSet<Fact> = all.output(pred).into_iter().collect();
            for f in certain.output(pred) {
                prop_assert!(f.is_ground());
                prop_assert!(
                    all_set.contains(&f),
                    "certain answer {} not among the full answers",
                    f
                );
            }
        }
    }

    /// Query-driven reasoning (magic sets when applicable) returns exactly
    /// the bottom-up answers restricted to the query's bound constants.
    #[test]
    fn query_driven_answers_match_bottom_up(p in datalog_program(), source in 0usize..6) {
        let query = Atom {
            predicate: intern("Reach"),
            terms: vec![
                Term::Const(Value::str(&format!("n{source}"))),
                Term::var("y"),
            ],
        };
        let driven = Reasoner::new().reason_query(&p, &query).expect("query run failed");
        let full = Reasoner::new().reason(&p).expect("full run failed");
        let expected: BTreeSet<Fact> = full
            .output("Reach")
            .into_iter()
            .filter(|f| f.args[0] == Value::str(&format!("n{source}")))
            .collect();
        let got: BTreeSet<Fact> = driven.answers.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// Run statistics are coherent: the reported total fact count matches the
    /// store, and the compiled rule count is at least the source rule count
    /// minus constraints (rewriting only ever splits/adds rules).
    #[test]
    fn run_stats_are_coherent(p in warded_program()) {
        let result = Reasoner::new().reason(&p).expect("run failed");
        prop_assert_eq!(result.stats.total_facts, result.store.len());
        prop_assert!(result.stats.compiled_rules >= p.rules.len());
        prop_assert!(result.stats.fragment.is_some());
    }
}
