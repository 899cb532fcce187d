//! Property test for layer compaction: a session that merges cold base
//! layers whenever the chain exceeds `compact_layers` must stay
//! **bit-identical** to a session that never compacts — same answers in the
//! same order, same outputs — across random append schedules and query
//! points, at every thread count. Compaction is a pure representation
//! change: `Relation::compacted` preserves `FactId` assignment (iter order
//! over unique rows reproduces the sequential ids), so nothing downstream
//! may observe it.

use proptest::prelude::*;
use vadalog_engine::{Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;

fn edge(a: usize, b: usize) -> Fact {
    Fact::new(
        "Edge",
        vec![Value::str(&format!("n{a}")), Value::str(&format!("n{b}"))],
    )
}

fn chain_program(edges: &[(usize, usize)]) -> Program {
    let mut program = vadalog_parser::parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .unwrap();
    for (a, b) in edges {
        program.add_fact(edge(*a, *b));
    }
    program
}

fn reach_query(source: usize) -> Atom {
    Atom {
        predicate: intern("Reach"),
        terms: vec![
            Term::Const(Value::str(&format!("n{source}"))),
            Term::var("y"),
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compacting_sessions_answer_bit_identically(
        initial in prop::collection::vec((0usize..8, 0usize..8), 1..10),
        batches in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..8), 1..4),
            1..8,
        ),
        sources in prop::collection::vec(0usize..8, 1..4),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let program = chain_program(&initial);
        let opts = |compact_layers: usize| ReasonerOptions {
            parallelism: threads,
            compact_layers,
            ..ReasonerOptions::default()
        };
        // Aggressive compaction (threshold 2) vs compaction off.
        let mut compacting = Reasoner::with_options(opts(2)).session(&program).unwrap();
        let mut plain = Reasoner::with_options(opts(0)).session(&program).unwrap();

        for batch in &batches {
            let facts: Vec<Fact> = batch.iter().map(|(a, b)| edge(*a, *b)).collect();
            let rc = compacting.append_facts(facts.clone()).unwrap();
            let rp = plain.append_facts(facts).unwrap();
            prop_assert_eq!(rc.appended, rp.appended);
            prop_assert_eq!(rc.stamp, rp.stamp, "stamps must track appends only");
            // querying between appends exercises cones at every stamp
            for source in &sources {
                let a = compacting.query(&reach_query(*source)).unwrap();
                let b = plain.query(&reach_query(*source)).unwrap();
                prop_assert_eq!(
                    &a.answers,
                    &b.answers,
                    "answers diverge (order included) at stamp {}",
                    rc.stamp
                );
            }
        }
        // the threshold bounds the chain; the plain session keeps layering
        prop_assert!(compacting.base_layers() <= 2);
        if plain.base_layers() > 2 {
            prop_assert!(compacting.compactions() > 0);
        }
        // the full instance (fallback pipeline) agrees too, order included
        let a = compacting.reason().unwrap().outputs;
        let b = plain.reason().unwrap().outputs;
        prop_assert_eq!(a, b, "materialised outputs diverge after compaction");
    }
}
