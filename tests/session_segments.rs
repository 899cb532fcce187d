//! A session's base keeps appended rows in size-tiered segments: after
//! every one of 40 single-edge appends no base relation of `n` rows holds
//! more than ⌊log2 n⌋ + 1 segments, and the session answers queries and
//! computes the full instance exactly as a fresh session over the union
//! EDB does, order included.

use vadalog::{Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

fn edge(a: usize, b: usize) -> Fact {
    Fact::new("Edge", vec![Value::Int(a as i64), Value::Int(b as i64)])
}

fn reach(source: usize) -> Atom {
    Atom::new(
        "Reach",
        vec![Term::Const(Value::Int(source as i64)), Term::var("y")],
    )
}

#[test]
fn appended_segments_stay_logarithmic_and_answers_exact() {
    let mut union = parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .unwrap();
    union.add_fact(edge(0, 1));
    let mut session = Reasoner::with_options(ReasonerOptions::default())
        .session(&union)
        .unwrap();
    for i in 1..=40 {
        let fact = edge(i, (i * 7 + 1) % 41);
        assert_eq!(session.append_facts([fact.clone()]).unwrap().appended, 1);
        union.add_fact(fact);
        let rows = i + 1;
        let bound = rows.ilog2() as usize + 1;
        assert!(
            session.base_layers() <= bound,
            "{} segments over {rows} rows",
            session.base_layers()
        );
        if i % 8 == 0 {
            let mut fresh = Reasoner::new().session(&union).unwrap();
            for source in [0, i / 2, i] {
                assert_eq!(
                    session.query(&reach(source)).unwrap().answers,
                    fresh.query(&reach(source)).unwrap().answers,
                    "Reach({source}, y) after {i} appends"
                );
            }
            assert_eq!(
                session.reason().unwrap().outputs,
                fresh.reason().unwrap().outputs,
                "outputs after {i} appends"
            );
        }
    }
    assert!(session.compactions() > 0);
}
