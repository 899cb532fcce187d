//! Query-driven workload: repeated **bound queries over a large EDB**, the
//! regime the `QuerySession` snapshot + magic-sets machinery targets.
//!
//! The program is a long `Edge` chain closed transitively into `Reach`: a
//! full bottom-up run derives the quadratic closure (`n·(n+1)/2` facts),
//! while a bound query `Reach("n_i", y)` only needs the linear suffix from
//! its source. Answering many such queries therefore separates four
//! execution modes sharply:
//!
//! * *session + magic* — one EDB intern/index build, per-query magic runs
//!   over copy-on-write snapshots (the tentpole configuration);
//! * *session, no magic* — snapshot reuse but full bottom-up per query;
//! * *fresh + magic* — per-query store rebuild, magic rewrite each time;
//! * *fresh bottom-up* — per-query store rebuild and full closure, answers
//!   post-filtered (the paper-era baseline).

use vadalog_model::prelude::*;

/// The chain program: `n` `Edge` facts `n0 → n1 → … → n_n`, transitive
/// closure rules, an `@output` annotation, and `bulk_rows` extra `Attr`
/// facts. The bulk rows model the realistic large-EDB regime: no query
/// touches them, but every **fresh** run re-interns, re-stores and
/// re-indexes all of them, while a session pays that cost exactly once and
/// shares the frozen rows by reference.
pub fn chain(n: usize, bulk_rows: usize) -> Program {
    let mut program = vadalog_parser::parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .expect("static program parses");
    for i in 0..n {
        program.add_fact(Fact::new(
            "Edge",
            vec![
                Value::str(&format!("n{i}")),
                Value::str(&format!("n{}", i + 1)),
            ],
        ));
    }
    for j in 0..bulk_rows {
        program.add_fact(Fact::new(
            "Attr",
            vec![
                Value::str(&format!("n{}", j % (n + 1))),
                Value::Int(j as i64),
            ],
        ));
    }
    program
}

/// `count` bound query atoms `Reach("n_s", y)` with sources spread evenly
/// over the first half of the chain (so every query has a non-trivial
/// answer set).
pub fn bound_queries(n: usize, count: usize) -> Vec<Atom> {
    let stride = (n / 2).max(1) / count.max(1);
    (0..count)
        .map(|q| Atom {
            predicate: intern("Reach"),
            terms: vec![
                Term::Const(Value::str(&format!("n{}", q * stride.max(1)))),
                Term::var("y"),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_and_queries_are_well_formed() {
        let program = chain(20, 30);
        assert_eq!(program.facts.len(), 50);
        assert_eq!(program.rules.len(), 2);
        let queries = bound_queries(20, 5);
        assert_eq!(queries.len(), 5);
        assert!(queries.iter().all(|q| q.terms[0].is_const()));
        // sources are distinct, so the queries exercise the seed path (not
        // just the compile cache)
        let sources: std::collections::BTreeSet<_> = queries
            .iter()
            .filter_map(|q| q.terms[0].as_const().cloned())
            .collect();
        assert_eq!(sources.len(), 5);
    }
}
