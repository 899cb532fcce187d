//! Fault-injected crash and failure tests for the query session.
//!
//! Every test arms a [`vadalog_fault::Scenario`] **for its entire body**:
//! the scenario guard holds the global fault lock, so the tests in this
//! binary serialise and never observe one another's armed rules. Armed
//! fault points are process-global — tests that arm them must not share a
//! test process with tests that exercise the same code paths unguarded,
//! which is why these live in their own integration binary instead of the
//! library test module.

use vadalog_engine::{QuerySession, Reasoner, ReasonerError, ReasonerOptions};
use vadalog_fault as fault;
use vadalog_model::prelude::*;
use vadalog_model::{Atom, Program};
use vadalog_parser::parse_program;

fn chain_program(n: usize) -> Program {
    let mut program = parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .unwrap();
    for i in 0..n {
        program.add_fact(edge(i));
    }
    program
}

fn edge(i: usize) -> Fact {
    Fact::new(
        "Edge",
        vec![
            Value::str(&format!("n{i}")),
            Value::str(&format!("n{}", i + 1)),
        ],
    )
}

fn reach_query(source: &str) -> Atom {
    Atom {
        predicate: intern("Reach"),
        terms: vec![Term::Const(Value::str(source)), Term::var("y")],
    }
}

fn temp_wal(name: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("vadalog-fault-wal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// An append whose WAL write fails via an injected fault leaves the
/// session exactly as before the call; the next append succeeds.
#[test]
fn failed_wal_append_leaves_the_session_unchanged() {
    let _scenario = fault::Scenario::arm().fail_at("wal.append", 0, fault::Action::Error);
    let path = temp_wal("walfail");
    let program = chain_program(4);
    let (mut session, _) =
        QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
    assert!(session.wal_attached());
    assert!(matches!(
        session.append_facts([edge(4)]),
        Err(ReasonerError::Wal(_))
    ));
    assert_eq!(session.base_stamp(), 0, "failed append must not promote");
    assert_eq!(session.appends(), 0);
    // hit 0 is consumed: the retry logs and promotes normally
    session.append_facts([edge(4)]).unwrap();
    assert_eq!(session.query(&reach_query("n0")).unwrap().answers.len(), 5);
}

/// A crash mid-record (injected partial write) leaves a torn tail:
/// recovery truncates it with a typed warning and rebuilds exactly the
/// durable prefix — same answers as a fresh session on that prefix.
#[test]
fn recovery_truncates_torn_tail_and_keeps_durable_prefix() {
    // hit 0 is the first (intact) append; hit 1 tears the second one
    let _scenario = fault::Scenario::arm().fail_at("wal.partial_write", 1, fault::Action::Error);
    let path = temp_wal("torn");
    let program = chain_program(4);
    {
        let (mut session, _) =
            QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
        session.append_facts([edge(4)]).unwrap();
        assert!(session.append_facts([edge(5)]).is_err());
    }
    let (mut recovered, report) =
        QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
    assert_eq!(report.batches_replayed, 1);
    assert!(report.torn_tail.is_some(), "torn tail must be reported");
    let mut prefix_session = {
        let mut p = program.clone();
        p.add_fact(edge(4));
        Reasoner::new().session(&p).unwrap()
    };
    // Same answers as a fresh session over the durable prefix. (The
    // stamps differ by construction: the recovered session replayed one
    // append, the fresh one inlined the fact.)
    assert_eq!(
        recovered.query(&reach_query("n0")).unwrap().answers,
        prefix_session.query(&reach_query("n0")).unwrap().answers,
    );
}

/// A panic while the core is locked (injected at the promotion fault
/// point) poisons the mutex; the next locker heals deliberately — stamp
/// bumped, memos dropped, counter incremented — and keeps answering.
#[test]
fn poisoned_core_is_healed_with_a_stamp_bump() {
    let _scenario = fault::Scenario::arm().fail_at("session.promote", 0, fault::Action::Panic);
    let program = chain_program(6);
    let mut session = Reasoner::new().session(&program).unwrap();
    let baseline = session.query(&reach_query("n0")).unwrap().answers;
    assert_eq!(session.base_stamp(), 0);
    {
        let mut fork = session.fork();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fork.append_facts([edge(6)])
        }));
        assert!(caught.is_err(), "injected panic must unwind");
    }
    // next lock heals: poison cleared, stamp bumped past every memo
    assert_eq!(session.poison_heals(), 1);
    assert_eq!(session.base_stamp(), 1, "heal must invalidate via stamp");
    assert_eq!(session.cone_cache_invalidations(), 1);
    let after = session.query(&reach_query("n0")).unwrap();
    assert_eq!(after.answers, baseline, "healed session keeps answering");
    // the heal is once, not per lock
    assert_eq!(session.poison_heals(), 1);
}
