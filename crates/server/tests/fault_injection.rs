//! Fault-injected server tests: panic isolation, worker respawn, and
//! deliberate healing of a poisoned shared core.
//!
//! Every test arms a [`vadalog_fault::Scenario`] for its entire body; the
//! scenario guard holds the global fault lock, so the tests in this binary
//! serialise and never observe one another's armed rules. Armed fault
//! points are process-global, which is why these tests live in their own
//! integration binary rather than the library test module.

use vadalog_fault as fault;
use vadalog_model::prelude::*;
use vadalog_model::Atom;
use vadalog_server::{ReasoningServer, Request, Response, ServerConfig};

fn chain_src(n: usize) -> String {
    let mut src = String::from(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").\n",
    );
    for i in 0..n {
        src.push_str(&format!("Edge(\"n{i}\", \"n{}\").\n", i + 1));
    }
    src
}

fn reach(source: &str) -> Atom {
    Atom {
        predicate: intern("Reach"),
        terms: vec![Term::Const(Value::str(source)), Term::var("y")],
    }
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

/// A panicking request costs exactly that request: the caller gets a typed
/// [`Response::WorkerPanicked`], the (only) worker respawns, and the very
/// next request is answered normally.
#[test]
fn a_panicking_request_costs_exactly_one_request() {
    let _scenario = fault::Scenario::arm().fail_at("server.dispatch", 0, fault::Action::Panic);
    let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
    let server = ReasoningServer::start(
        &program,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    match server.call(Request::Query(reach("n0"))) {
        Response::WorkerPanicked { message } => {
            assert!(message.contains("injected crash"), "got: {message}")
        }
        other => panic!("unexpected: {other:?}"),
    }
    // With a single worker, an answer to the next request proves the pool
    // respawned rather than losing its only thread.
    match server.call(Request::Query(reach("n0"))) {
        Response::Answers { answers, .. } => assert_eq!(answers.len(), 3),
        other => panic!("unexpected: {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_respawns, 1);
    assert_eq!(stats.answered, 1);
    server.shutdown();
}

/// A panic in the middle of a layer promotion poisons the shared core; the
/// respawning worker heals it (stamp bump, memo invalidation) and the
/// server keeps answering — and the retried append then succeeds.
#[test]
fn a_mid_promotion_panic_is_healed_and_the_server_keeps_answering() {
    let _scenario = fault::Scenario::arm().fail_at("session.promote", 0, fault::Action::Panic);
    let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
    let server = ReasoningServer::start(
        &program,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    match server.call(Request::Append(vec![edge(3)])) {
        Response::WorkerPanicked { .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_respawns, 1);
    assert_eq!(stats.poison_heals, 1, "respawn must heal the poisoned core");
    // The panicked append was not applied; queries still answer on the
    // pre-append EDB (the heal bumped the stamp to drop stale memos).
    match server.call(Request::Query(reach("n0"))) {
        Response::Answers {
            answers,
            observed_stamp,
            ..
        } => {
            assert_eq!(answers.len(), 3);
            assert_eq!(observed_stamp, 1, "heal bumps the stamp");
        }
        other => panic!("unexpected: {other:?}"),
    }
    // Retrying the append (hit 0 is consumed) succeeds.
    match server.call(Request::Append(vec![edge(3)])) {
        Response::Appended { appended, .. } => assert_eq!(appended, 1),
        other => panic!("unexpected: {other:?}"),
    }
    match server.call(Request::Query(reach("n0"))) {
        Response::Answers { answers, .. } => assert_eq!(answers.len(), 4),
        other => panic!("unexpected: {other:?}"),
    }
    server.shutdown();
}

/// A WAL write failure surfaces as a typed error response — not a panic —
/// and leaves the durable session unchanged, so the retry succeeds.
#[test]
fn a_wal_append_failure_is_a_typed_error_not_a_crash() {
    let _scenario = fault::Scenario::arm().fail_at("wal.append", 0, fault::Action::Error);
    let path =
        std::env::temp_dir().join(format!("vadalog-server-fault-wal-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
    let (server, report) = ReasoningServer::recover(
        &program,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        &path,
    )
    .unwrap();
    assert_eq!(report.batches_replayed, 0);
    assert!(server.stats().wal_attached);
    match server.call(Request::Append(vec![edge(3)])) {
        Response::Error(msg) => assert!(msg.contains("injected fault"), "got: {msg}"),
        other => panic!("unexpected: {other:?}"),
    }
    match server.call(Request::Append(vec![edge(3)])) {
        Response::Appended {
            appended, stamp, ..
        } => assert_eq!((appended, stamp), (1, 1)),
        other => panic!("unexpected: {other:?}"),
    }
    server.shutdown();
    // The next incarnation replays exactly the one durable append.
    let (server, report) =
        ReasoningServer::recover(&program, ServerConfig::default(), &path).unwrap();
    assert_eq!(report.batches_replayed, 1);
    match server.call(Request::Query(reach("n0"))) {
        Response::Answers { answers, .. } => assert_eq!(answers.len(), 4),
        other => panic!("unexpected: {other:?}"),
    }
    server.shutdown();
}
