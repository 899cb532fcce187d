//! Property test for segment merging: a session whose appends seal rows
//! into base segments, merged size-tiered at promotion, must stay
//! **bit-identical** to a fresh session over the union EDB — same answers
//! in the same order, same outputs — across random append schedules and
//! query points, at every thread count, while no base relation of `n`
//! rows holds more than ⌊log2 n⌋ + 1 segments. Merging is a pure
//! representation change: `FactId`s stay insertion positions, so nothing
//! downstream may observe it.

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
    fn merging_sessions_answer_like_a_union_rebuild(
        initial in prop::collection::vec((0usize..8, 0usize..8), 1..10),
        batches in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..8), 1..4),
            1..8,
        ),
        sources in prop::collection::vec(0usize..8, 1..4),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let opts = ReasonerOptions {
            parallelism: threads,
            ..ReasonerOptions::default()
        };
        let mut union = chain_program(&initial);
        let mut session = Reasoner::with_options(opts).session(&union).unwrap();

        for batch in &batches {
            let facts: Vec<Fact> = batch.iter().map(|(a, b)| edge(*a, *b)).collect();
            session.append_facts(facts.clone()).unwrap();
            for f in facts {
                union.add_fact(f);
            }
            // `Edge` is the only base relation; its rows are the union's
            // distinct edges.
            let rows = union.facts.iter().collect::<std::collections::HashSet<_>>().len();
            prop_assert!(session.base_layers() <= rows.ilog2() as usize + 1);
            // querying between appends exercises cones at every stamp
            let mut fresh = Reasoner::with_options(opts).session(&union).unwrap();
            for source in &sources {
                let a = session.query(&reach_query(*source)).unwrap();
                let b = fresh.query(&reach_query(*source)).unwrap();
                prop_assert_eq!(
                    &a.answers,
                    &b.answers,
                    "answers diverge (order included) at stamp {}",
                    session.base_stamp()
                );
            }
        }
        // the full instance (fallback pipeline) agrees too, order included
        let a = session.reason().unwrap().outputs;
        let b = Reasoner::with_options(opts).session(&union).unwrap().reason().unwrap().outputs;
        prop_assert_eq!(a, b, "materialised outputs diverge after merging");
    }
}
