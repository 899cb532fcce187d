//! Streaming-append workload: incremental view maintenance over a growing
//! EDB, the regime the layered-base `QuerySession::append_facts` machinery
//! targets.
//!
//! The program closes an `Edge` chain transitively into `Reach` and folds a
//! per-source `mcount` out-degree aggregate, so appends exercise both the
//! delta join path and the monotonic-aggregate path. The initial EDB holds
//! the first `n` chain edges; the stream then delivers `batches` batches of
//! `batch_size` edges each, extending the chain at its live end.
//!
//! Extending the chain *at the end* is the sharply separating shape: every
//! appended edge `n_k → n_{k+1}` derives the `k` new `Reach(n_i, n_{k+1})`
//! suffix facts and nothing else, so a session's live instance re-derives
//! `O(chain length)` facts per batch — the wake-list re-activates only the
//! `Edge`/`Reach` readers and the persistent cursors skip everything
//! already at fixpoint — where a fresh session over the union EDB (the
//! reference its outputs are checked against) pays the full
//! `O(chain length²)` closure. [`expected_reach_facts`] gives the size of
//! that closure after the whole schedule.

use vadalog_model::prelude::*;

/// The streamed program: `n` initial `Edge` facts `n0 → n1 → … → n_n`,
/// transitive closure into `Reach`, and an `OutDegree` `mcount` aggregate
/// per source.
pub fn stream_program(n: usize) -> Program {
    let mut program = vadalog_parser::parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         Reach(x, y), c = mcount(y) -> OutDegree(x, c).\n\
         @output(\"Reach\"). @output(\"OutDegree\").",
    )
    .expect("static program parses");
    for i in 0..n {
        program.add_fact(edge(i));
    }
    program
}

/// The append schedule: `batches` batches of `batch_size` chain edges each,
/// continuing where [`stream_program`]'s EDB left off (`n_n → n_{n+1}`
/// onwards). Deterministic — the batch contents are a pure function of
/// `(n, batches, batch_size)`.
pub fn append_batches(n: usize, batches: usize, batch_size: usize) -> Vec<Vec<Fact>> {
    (0..batches)
        .map(|b| {
            (0..batch_size)
                .map(|k| edge(n + b * batch_size + k))
                .collect()
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

/// Total number of `Reach` facts after the whole schedule has been applied:
/// the closure of a chain with `total` edges has `total·(total+1)/2` pairs.
pub fn expected_reach_facts(n: usize, batches: usize, batch_size: usize) -> usize {
    let total = n + batches * batch_size;
    total * (total + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_contiguous() {
        let program = stream_program(10);
        assert_eq!(program.facts.len(), 10);
        assert_eq!(program.rules.len(), 3);
        let schedule = append_batches(10, 3, 4);
        assert_eq!(schedule.len(), 3);
        assert!(schedule.iter().all(|b| b.len() == 4));
        assert_eq!(schedule, append_batches(10, 3, 4));
        // the first appended edge continues the chain end
        assert_eq!(
            schedule[0][0],
            Fact::new("Edge", vec![Value::str("n10"), Value::str("n11")])
        );
        assert_eq!(expected_reach_facts(10, 3, 4), 22 * 23 / 2);
    }
}
