//! Crash-recovery workload: **durable appends and cold replay** over a
//! growing EDB — the regime of `QuerySession::recover` and the write-ahead
//! log.
//!
//! A reasoning server that survives restarts pays for durability twice:
//! once on the hot path (every acknowledged append is fsync'd to the log
//! before the session promotes it) and once at startup (recovery replays
//! the logged batches over the seed EDB to rebuild the exact pre-crash
//! session). This module generates the schedule that prices both sides: a
//! chain-closure program whose EDB grows by `batches` durable batches of
//! `batch_size` edges each, plus a set of bound probe queries asked after
//! replay — the check that recovery produced an answerable session, not
//! just a parsed log.
//!
//! The chain shape is deliberate: each appended edge extends the linear
//! `Reach` suffix behind it, so a probe query after replay derives over
//! every replayed layer. Recovery end to end
//! is: open the log, verify checksums, replay every batch through the
//! layered base, answer a probe query. The two natural comparison points
//! are the same appends without a log attached (the durability premium)
//! and a from-scratch rebuild that re-derives everything (what a restart
//! would cost with no log at all).

use vadalog_model::prelude::*;

/// The recovered program: `n` seed `Edge` facts `n0 → n1 → … → n_n` closed
/// transitively into `Reach`.
pub fn chain_program(n: usize) -> Program {
    let mut program = vadalog_parser::parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .expect("static program parses");
    for i in 0..n {
        program.add_fact(edge(i));
    }
    program
}

/// The durable append schedule: `batches` batches of `batch_size` chain
/// edges each, continuing where [`chain_program`]'s EDB left off.
/// Deterministic — the batch contents are a pure function of
/// `(n, batches, batch_size)`, so a replayed log and a freshly generated
/// schedule describe the same session.
pub fn append_batches(n: usize, batches: usize, batch_size: usize) -> Vec<Vec<Fact>> {
    (0..batches)
        .map(|b| {
            (0..batch_size)
                .map(|k| edge(n + b * batch_size + k))
                .collect()
        })
        .collect()
}

/// Bound `Reach` probe queries spread over the seed chain, asked after
/// recovery: `count` sources at even strides through the first `n` nodes.
/// Their answer sets cover both seed-EDB facts and facts derived from
/// replayed appends, so a replay that dropped or reordered a batch shows
/// up as a wrong answer count.
pub fn probe_queries(n: usize, count: usize) -> Vec<Atom> {
    let stride = (n.max(1) / count.max(1)).max(1);
    (0..count)
        .map(|q| Atom {
            predicate: intern("Reach"),
            terms: vec![
                Term::Const(Value::str(&format!("n{}", q * stride))),
                Term::var("y"),
            ],
        })
        .collect()
}

/// Chain edge `n_i → n_{i+1}`.
fn edge(i: usize) -> Fact {
    Fact::new(
        "Edge",
        vec![
            Value::str(&format!("n{i}")),
            Value::str(&format!("n{}", i + 1)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_contiguous() {
        let program = chain_program(12);
        assert_eq!(program.facts.len(), 12);
        assert_eq!(program.rules.len(), 2);
        let schedule = append_batches(12, 3, 4);
        assert_eq!(schedule.len(), 3);
        assert!(schedule.iter().all(|b| b.len() == 4));
        assert_eq!(schedule, append_batches(12, 3, 4));
        // the first appended edge continues the chain end
        assert_eq!(
            schedule[0][0],
            Fact::new("Edge", vec![Value::str("n12"), Value::str("n13")])
        );
    }

    #[test]
    fn probes_are_distinct_bound_sources() {
        let probes = probe_queries(100, 4);
        assert_eq!(probes.len(), 4);
        let sources: Vec<_> = probes
            .iter()
            .map(|q| q.terms[0].as_const().unwrap().clone())
            .collect();
        assert_eq!(
            sources,
            vec![
                Value::str("n0"),
                Value::str("n25"),
                Value::str("n50"),
                Value::str("n75")
            ]
        );
    }
}
