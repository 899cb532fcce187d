//! Crash-recovery property test: a session killed by an injected fault at
//! a random WAL or promotion point, after a random append schedule, must
//! recover to **exactly** the durable prefix — the same stamps, the same
//! layer chain, the same answers in the same order as a fresh session that
//! applied the replayed batches and never crashed. Runs at parallelism 1
//! and 4 (the recovery path must be thread-count independent like
//! everything else).
//!
//! Durability contract checked here:
//!
//! * every **acknowledged** append (one whose `append_facts` returned `Ok`,
//!   i.e. whose record was fsync'd) survives the crash;
//! * the recovered session is bit-identical to a fresh session over the
//!   replayed prefix — a torn or unacknowledged tail may be dropped, but
//!   never half-applied.
//!
//! This file holds exactly one `#[test]` so nothing in the process runs
//! unguarded while a scenario is armed (armed fault points are
//! process-global); proptest cases run sequentially within it.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use vadalog_engine::{QuerySession, Reasoner, ReasonerOptions};
use vadalog_fault as fault;
use vadalog_model::prelude::*;
use vadalog_model::{Atom, Program};

static CASE: AtomicU64 = AtomicU64::new(0);

fn chain_program(n: usize) -> Program {
    let mut program = vadalog_parser::parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .unwrap();
    for i in 0..n {
        program.add_fact(edge(i, i + 1));
    }
    program
}

fn edge(a: usize, b: usize) -> Fact {
    Fact::new(
        "Edge",
        vec![Value::str(&format!("n{a}")), Value::str(&format!("n{b}"))],
    )
}

fn reach_query(source: &str) -> Atom {
    Atom {
        predicate: intern("Reach"),
        terms: vec![Term::Const(Value::str(source)), Term::var("y")],
    }
}

fn options(threads: usize) -> ReasonerOptions {
    ReasonerOptions {
        parallelism: threads,
        ..ReasonerOptions::default()
    }
}

/// The fault points a crash schedule may arm: the WAL I/O points (append
/// encode, torn write, fsync) and the in-memory commit points (registration,
/// promotion, post-promotion bookkeeping) — the latter always panic.
const CRASH_POINTS: [&str; 6] = [
    "wal.append",
    "wal.partial_write",
    "wal.fsync",
    "session.register",
    "session.promote",
    "session.post_promote",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_rebuilds_exactly_the_durable_prefix(
        // random append schedule: 1..=5 batches of 1..=3 edges over a small
        // node domain, so duplicate facts and all-duplicate batches occur
        schedule in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..8), 1..=3),
            1..=5,
        ),
        point in prop::sample::select(CRASH_POINTS.to_vec()),
        hit in 0u64..5,
        action in prop::sample::select(vec![fault::Action::Error, fault::Action::Panic]),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "vadalog-prop-recovery-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let program = chain_program(3);
        let batches: Vec<Vec<Fact>> = schedule
            .iter()
            .map(|batch| batch.iter().map(|&(a, b)| edge(a, b)).collect())
            .collect();

        // -------------------------------------------- run until the crash
        let mut acked = 0usize;
        let mut attempted = 0usize;
        {
            let _scenario = fault::Scenario::arm().fail_at(point, hit, action);
            let (session, _) =
                QuerySession::recover(&program, options(threads), &path).unwrap();
            let mut session = session;
            for batch in &batches {
                attempted += 1;
                let batch = batch.clone();
                // a panic is the simulated kill; an Err is an I/O failure —
                // either way the "process" stops appending here
                match catch_unwind(AssertUnwindSafe(|| session.append_facts(batch))) {
                    Ok(Ok(_)) => acked += 1,
                    Ok(Err(_)) | Err(_) => break,
                }
            }
        }

        // ------------------------------------------------------- recover
        let (mut recovered, report) =
            QuerySession::recover(&program, options(threads), &path).unwrap();
        prop_assert!(
            report.batches_replayed >= acked,
            "lost an acknowledged append: replayed {} < acked {acked} (point {point}@{hit})",
            report.batches_replayed,
        );
        prop_assert!(
            report.batches_replayed <= attempted,
            "replayed {} batches but only {attempted} were ever written",
            report.batches_replayed,
        );

        // ------------------- compare against a fresh, never-crashed session
        let mut control = Reasoner::with_options(options(threads))
            .session(&program)
            .unwrap();
        for batch in batches.iter().take(report.batches_replayed) {
            control.append_facts(batch.clone()).unwrap();
        }
        prop_assert_eq!(recovered.base_stamp(), control.base_stamp(), "stamp diverges");
        prop_assert_eq!(recovered.base_layers(), control.base_layers(), "layers diverge");
        for source in ["n0", "n2", "n5"] {
            let query = reach_query(source);
            prop_assert_eq!(
                recovered.query(&query).unwrap().answers,
                control.query(&query).unwrap().answers,
                "answers diverge for {} after crash at {}@{} ({:?}, {} threads)",
                source, point, hit, action, threads
            );
        }

        let _ = std::fs::remove_file(&path);
    }
}
