//! `serve.*`: a closed loop against `ReasoningServer`.
//!
//! **Closed loop, one driver thread, two requests outstanding** (clients 0
//! and 1 of `submit_from`): the next request is submitted only when the
//! oldest outstanding one has been received, so a slower server is offered
//! less load. Latency runs from `submit_from` to the return of
//! `Ticket::recv`, with replies collected in submission order.
//!
//! The traced pass replays the same request list on a bare `QuerySession`
//! (no queue, no worker threads) to split the server's latency into the
//! session's share and the server's own.

use std::collections::VecDeque;
use std::time::Instant;

use vadalog_engine::{PipelineStats, QuerySession, ReasonerError, ReasonerOptions, RecoveryReport};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;
use vadalog_server::{ReasoningServer, Request, Response, ServerConfig, ServerStats, Ticket};

use crate::digest::{text_digest, MultisetDigest};
use crate::reason::pipeline_metrics;
use crate::report::Report;
use crate::run::{peak_rss_mb, write_trace, RunConfig, ScratchWal};
use crate::stats::{median, Summary};
use crate::trace::{by_name, Tracer};
use crate::workload::{serve_input, Kind, Op, ServeInput, Size, Workload, APPEND_EVERY};

/// Requests kept in flight by the driver.
pub const OUTSTANDING: usize = 2;

/// Worker threads of the server under test (every other setting is
/// `ServerConfig::default()`).
const WORKERS: usize = 2;

/// Hot entities queried at the end of `serve.mixed` on the live server, the
/// bare session and the session recovered from the WAL.
const PROBES: usize = 8;

/// Drive `submit`/`complete` as a closed loop with at most `outstanding`
/// requests in flight. `next` yields the next request, or `None` once the
/// list is exhausted or the window has closed; the loop then drains.
/// `complete` receives each ticket in submission order together with the
/// instant it was submitted at.
pub fn closed_loop<R, T>(
    outstanding: usize,
    mut next: impl FnMut() -> Option<R>,
    mut submit: impl FnMut(u64, &R) -> T,
    mut complete: impl FnMut(R, T, Instant),
) {
    let mut in_flight: VecDeque<(R, T, Instant, u64)> = VecDeque::with_capacity(outstanding);
    let mut free_clients: Vec<u64> = (0..outstanding as u64).rev().collect();
    let mut exhausted = false;
    loop {
        while !exhausted && in_flight.len() < outstanding {
            match next() {
                Some(request) => {
                    let client = free_clients.pop().expect("a client per free slot");
                    let submitted = Instant::now();
                    let ticket = submit(client, &request);
                    in_flight.push_back((request, ticket, submitted, client));
                }
                None => exhausted = true,
            }
        }
        let Some((request, ticket, submitted, client)) = in_flight.pop_front() else {
            return;
        };
        complete(request, ticket, submitted);
        free_clients.push(client);
    }
}

/// Latencies and failures of one pass over a request list.
#[derive(Default)]
struct PassOutcome {
    query_ms: Vec<f64>,
    append_ms: Vec<f64>,
    /// Query latencies of the blocks that were / were not recorded as spans.
    recorded_ms: Vec<f64>,
    unrecorded_ms: Vec<f64>,
    /// Answer count per query, in request order.
    answer_counts: Vec<usize>,
    failures: Vec<String>,
}

impl PassOutcome {
    fn completed(&self) -> usize {
        self.query_ms.len() + self.append_ms.len()
    }

    /// Move the pass's operations and failures into the report.
    fn account(&mut self, report: &mut Report) {
        report.attempted += (self.completed() + self.failures.len()) as u64;
        report.failed += self.failures.len() as u64;
        report.problems.append(&mut self.failures);
    }
}

fn to_request(input: &ServeInput, op: Op) -> Request {
    match op {
        Op::Query { rank } => Request::Query(input.query(rank)),
        Op::Append { parent, child } => Request::Append(ServeInput::append(parent, child)),
    }
}

/// A started, warmed server and what it was started from.
struct Warm {
    input: ServeInput,
    program: Program,
    server: ReasoningServer,
    /// The server's log (`serve.mixed` only attaches it).
    wal: ScratchWal,
    /// Whether appends are part of the workload (and the WAL attached).
    durable: bool,
    /// Answer count per hot rank, as the warm-up saw it.
    warm_counts: Vec<usize>,
    generate_s: f64,
}

impl Warm {
    /// Without appends every answer set must keep its warm-up size.
    fn expected_counts(&self) -> Option<&[usize]> {
        (!self.durable).then_some(&self.warm_counts[..])
    }
}

/// Set-up: generate the KG text, parse it, start the server (EDB load, WAL
/// open) and query every hot entity once, so each is a cached cone.
fn set_up(
    workload: &Workload,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Warm, String> {
    let durable = workload.kind == Kind::ServeMixed;
    let setup_start = Instant::now();
    let input = serve_input(workload.kind, cfg.size);
    let generate_s = setup_start.elapsed().as_secs_f64();
    let program = tracer
        .span("parser.parse", 0, || parse_program(&input.text))
        .map_err(|e| format!("parse_program failed: {e}"))?;
    let wal = ScratchWal::new(&cfg.out_dir, workload.name)?;
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = tracer
        .span("server.start", 0, || {
            if durable {
                ReasoningServer::recover(&program, config, wal.path()).map(|(server, _)| server)
            } else {
                ReasoningServer::start(&program, config)
            }
        })
        .map_err(|e| format!("server start failed: {e}"))?;

    tracer.enter("server.warmup", 0);
    let mut warm_counts = Vec::with_capacity(input.hot.len());
    let mut warm_answers = MultisetDigest::default();
    for rank in 0..input.hot.len() {
        match server
            .submit_from(0, Request::Query(input.query(rank)))
            .recv()
        {
            Response::Answers { answers, .. } => {
                report.check(Ok(()));
                warm_answers.extend(&answers);
                warm_counts.push(answers.len());
            }
            other => {
                report.check(Err(format!("warm-up query {rank}: {other:?}")));
                warm_counts.push(usize::MAX);
            }
        }
    }
    tracer.exit();
    report.metric("setup_s", setup_start.elapsed().as_secs_f64(), "s");
    report.pin(
        cfg.pin_key(workload.name, "input"),
        text_digest(&input.text),
    );
    report.pin(
        cfg.pin_key(workload.name, "warm_answers"),
        warm_answers.render(),
    );
    Ok(Warm {
        input,
        program,
        server,
        wal,
        durable,
        warm_counts,
        generate_s,
    })
}

/// Run `ops` through the server until `keep_going` says stop. When the tracer
/// is on, every other block of [`APPEND_EVERY`] requests is recorded as
/// spans, which gives both halves of the tracing-overhead comparison from one
/// pass with the same mix of positions relative to the appends in each half.
fn server_pass(
    warm: &Warm,
    ops: impl Iterator<Item = Op>,
    keep_going: impl Fn() -> bool,
    tracer: &mut Tracer,
) -> PassOutcome {
    let mut outcome = PassOutcome::default();
    let mut ops = ops.enumerate();
    let (server, input) = (&warm.server, &warm.input);
    let expected_counts = warm.expected_counts();
    let origin = Instant::now();
    let origin_ns = tracer.now_ns();
    closed_loop(
        OUTSTANDING,
        || keep_going().then(|| ops.next()).flatten(),
        |client, (_, op): &(usize, Op)| server.submit_from(client, to_request(input, *op)),
        |(index, op), ticket: Ticket, submitted| {
            let response = ticket.recv();
            let done = Instant::now();
            let ms = (done - submitted).as_secs_f64() * 1e3;
            let record = (index / APPEND_EVERY) % 2 == 1;
            let span_name = match (&response, op) {
                (Response::Answers { answers, .. }, Op::Query { rank }) => {
                    outcome.query_ms.push(ms);
                    outcome.answer_counts.push(answers.len());
                    if record {
                        outcome.recorded_ms.push(ms);
                    } else {
                        outcome.unrecorded_ms.push(ms);
                    }
                    if expected_counts.is_some_and(|counts| counts[rank] != answers.len()) {
                        outcome.failures.push(format!(
                            "request {index}: {} answers for rank {rank}",
                            answers.len()
                        ));
                    }
                    "server.query"
                }
                (Response::Appended { .. }, Op::Append { .. }) => {
                    outcome.append_ms.push(ms);
                    "server.append"
                }
                (other, _) => {
                    outcome
                        .failures
                        .push(format!("request {index} ({op:?}): {other:?}"));
                    "server.failed"
                }
            };
            if record {
                let at = |t: Instant| origin_ns + (t - origin).as_nanos() as u64;
                tracer.record(span_name, index as u64, at(submitted), at(done));
            }
        },
    );
    outcome
}

/// Ask the probe queries through `ask`; one answer digest per probe.
fn probes(
    input: &ServeInput,
    report: &mut Report,
    mut ask: impl FnMut(Atom) -> Result<Vec<Fact>, String>,
) -> Vec<String> {
    (0..PROBES.min(input.hot.len()))
        .map(|rank| match ask(input.query(rank)) {
            Ok(answers) => MultisetDigest::of(&answers).render(),
            Err(e) => {
                report.check(Err(format!("probe {rank}: {e}")));
                String::new()
            }
        })
        .collect()
}

fn probe_server(server: &ReasoningServer, input: &ServeInput, report: &mut Report) -> Vec<String> {
    probes(input, report, |query| {
        match server.call(Request::Query(query)) {
            Response::Answers { answers, .. } => Ok(answers),
            other => Err(format!("{other:?}")),
        }
    })
}

fn probe_session(
    session: &mut QuerySession,
    input: &ServeInput,
    report: &mut Report,
) -> Vec<String> {
    probes(input, report, |query| {
        session
            .query(&query)
            .map(|result| result.answers)
            .map_err(|e| e.to_string())
    })
}

fn same_probes(what: &str, got: &[String], live: &[String]) -> Result<(), String> {
    if got == live {
        Ok(())
    } else {
        Err(format!(
            "{what} answers {got:?} differ from the live server's {live:?}"
        ))
    }
}

/// Durability: a session recovered from the WAL bytes alone has replayed
/// exactly the acknowledged appends and answers the probes as the live
/// server last did. Returns the recovery report and the probe answers.
fn check_recovery(
    recovered: Result<(QuerySession, RecoveryReport), ReasonerError>,
    acknowledged: usize,
    live: &[String],
    input: &ServeInput,
    report: &mut Report,
) -> Option<(RecoveryReport, Vec<String>)> {
    let (mut session, recovery) = match recovered {
        Ok(recovered) => recovered,
        Err(e) => {
            report.check(Err(format!("recover failed: {e}")));
            return None;
        }
    };
    report.check(if recovery.batches_replayed == acknowledged {
        Ok(())
    } else {
        Err(format!(
            "{acknowledged} appends acknowledged, {} batches in the WAL",
            recovery.batches_replayed
        ))
    });
    let answers = probe_session(&mut session, input, report);
    report.check(same_probes("recovered", &answers, live));
    Some((recovery, answers))
}

pub fn run(workload: &Workload, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(cfg.trace);
    match set_up(workload, cfg, &mut tracer, &mut report) {
        Ok(warm) if cfg.trace => traced_pass(workload, cfg, warm, tracer, &mut report),
        Ok(warm) => timed_pass(cfg, warm, &mut tracer, &mut report),
        Err(e) => report.check(Err(e)),
    }
    report
}

/// The end-to-end pass: the seeded request list until the window closes.
fn timed_pass(cfg: &RunConfig, warm: Warm, tracer: &mut Tracer, report: &mut Report) {
    let section = Instant::now();
    let mut outcome = server_pass(
        &warm,
        warm.input.ops(cfg.seed),
        || section.elapsed() < cfg.window,
        tracer,
    );
    let section_s = section.elapsed().as_secs_f64();
    let completed = outcome.completed();
    outcome.account(report);
    let Warm {
        input,
        program,
        server,
        wal,
        durable,
        generate_s,
        ..
    } = warm;
    let stats = server.stats();
    let live = if durable {
        probe_server(&server, &input, report)
    } else {
        Vec::new()
    };
    server.shutdown();
    if durable {
        let recovered = QuerySession::recover(&program, ReasonerOptions::default(), wal.path());
        check_recovery(recovered, outcome.append_ms.len(), &live, &input, report);
    }

    if outcome.query_ms.is_empty() {
        return;
    }
    let queries = Summary::of(&outcome.query_ms);
    report.metric("op_p50_ms", queries.p50, "ms");
    report.metric("ops_per_s", completed as f64 / section_s, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.detail("server.queries", queries.count as f64, "count");
    report.detail("server.query_min_ms", queries.min, "ms");
    report.detail("server.query_max_ms", queries.max, "ms");
    if let Some(p95) = queries.supported(95.0) {
        report.detail("server.query_p95_ms", p95, "ms");
    }
    if let Some((p, value)) = queries.tail {
        report.detail("server.query_tail_pct", p, "%");
        report.detail("server.query_tail_ms", value, "ms");
    }
    if !outcome.append_ms.is_empty() {
        report.detail("server.appends", outcome.append_ms.len() as f64, "count");
        report.detail("server.append_p50_ms", median(&outcome.append_ms), "ms");
    }
    report.detail("setup.generate_s", generate_s, "s");
    report.detail("input.bytes", input.text.len() as f64, "B");
    server_stats_detail(report, &stats);
}

fn server_stats_detail(report: &mut Report, s: &ServerStats) {
    for (name, value) in [
        ("answered", s.answered),
        ("appends", s.appends),
        ("shed_overload", s.shed_overload),
        ("shed_client_quota", s.shed_client_quota),
        ("shed_timeout", s.shed_timeout),
        ("shed_shutdown", s.shed_shutdown),
        ("errors", s.errors),
        ("worker_panics", s.worker_panics),
        ("cone_hits", s.cone_hits),
        ("cone_subsumption_hits", s.cone_subsumption_hits),
        ("cone_misses", s.cone_misses),
        ("cone_invalidations", s.cone_invalidations),
        ("cone_evictions", s.cone_evictions),
        ("cone_entries", s.cone_entries as u64),
        ("compile_cache_hits", s.compile_cache_hits),
        ("compactions", s.compactions as u64),
        ("base_layers", s.base_layers as u64),
        ("max_queue_depth", s.max_queue_depth as u64),
    ] {
        report.detail(&format!("server.stats.{name}"), value as f64, "count");
    }
    for (bucket, count) in s.queue_depth_hist.iter().enumerate() {
        report.detail(
            &format!("server.stats.queue_depth_hist.{bucket}"),
            *count as f64,
            "count",
        );
    }
}

/// Add `s` into `total`, field by field, for the counters the per-layer
/// metrics use.
fn accumulate(total: &mut PipelineStats, s: &PipelineStats) {
    total.join_probes += s.join_probes;
    total.index_probes += s.index_probes;
    total.scan_fallbacks += s.scan_fallbacks;
    total.wcoj_seeks += s.wcoj_seeks;
    total.hybrid_activations += s.hybrid_activations;
    total.facts_derived += s.facts_derived;
    total.facts_suppressed += s.facts_suppressed;
    total.nulls_invented += s.nulls_invented;
}

/// Requests of the traced pass: a fixed count, so that every counter repeats
/// exactly.
fn traced_requests(kind: Kind, size: Size) -> usize {
    match (kind, size) {
        (_, Size::Quick) => 40,
        (Kind::ServeMixed, Size::Full) => 160,
        (_, Size::Full) => 40_000,
    }
}

/// Latencies of the bare-session replay, by class.
#[derive(Default)]
struct BareOutcome {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    append_ms: Vec<f64>,
    answer_counts: Vec<usize>,
    /// `PipelineStats` summed over the queries.
    engine: PipelineStats,
}

/// Pass B: the request list, one request at a time, on a bare session in the
/// state the server was in after its warm-up. Returns the session for the
/// final probes.
fn bare_pass(
    ops: &[Op],
    input: &ServeInput,
    program: &Program,
    wal: Option<&ScratchWal>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(QuerySession, BareOutcome), String> {
    let mut session = tracer
        .span("storage.load", 0, || match wal {
            Some(wal) => QuerySession::recover(program, ReasonerOptions::default(), wal.path())
                .map(|(session, _)| session),
            None => QuerySession::new(program, ReasonerOptions::default()),
        })
        .map_err(|e| format!("bare session failed: {e}"))?;
    tracer.enter("engine.session.warmup", 0);
    for rank in 0..input.hot.len() {
        if let Err(e) = session.query(&input.query(rank)) {
            report.check(Err(format!("bare warm-up {rank}: {e}")));
        }
    }
    tracer.exit();

    let mut bare = BareOutcome::default();
    for (index, op) in ops.iter().enumerate() {
        let hits_before = session.cone_cache_hits();
        let start = tracer.now_ns();
        let outcome = match *op {
            Op::Query { rank } => session.query(&input.query(rank)).map(|result| {
                accumulate(&mut bare.engine, &result.run.stats.pipeline);
                bare.answer_counts.push(result.answers.len());
            }),
            Op::Append { parent, child } => session
                .append_facts(ServeInput::append(parent, child))
                .map(|_| ()),
        };
        let end = tracer.now_ns();
        let ms = (end - start) as f64 / 1e6;
        // A query is a hit or a miss after the fact.
        let name = match op {
            Op::Append { .. } => {
                bare.append_ms.push(ms);
                "engine.session.append"
            }
            Op::Query { .. } if session.cone_cache_hits() > hits_before => {
                bare.hit_ms.push(ms);
                "engine.session.query_hit"
            }
            Op::Query { .. } => {
                bare.miss_ms.push(ms);
                "engine.session.query_miss"
            }
        };
        tracer.record(name, index as u64, start, end);
        report.check(outcome.map_err(|e| format!("bare request {index} ({op:?}): {e}")));
    }
    Ok((session, bare))
}

/// Durable minus in-memory `append_facts`: two fresh sessions fed the list's
/// appends alternately, one span per call.
fn wal_premium_pass(
    ops: &[Op],
    program: &Program,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let wal = ScratchWal::new(&cfg.out_dir, "premium")?;
    let (mut on_disk, _) = QuerySession::recover(program, ReasonerOptions::default(), wal.path())
        .map_err(|e| e.to_string())?;
    let mut in_memory =
        QuerySession::new(program, ReasonerOptions::default()).map_err(|e| e.to_string())?;
    for (index, op) in ops.iter().enumerate() {
        let Op::Append { parent, child } = *op else {
            continue;
        };
        for (name, session) in [
            ("storage.wal.append_durable", &mut on_disk),
            ("storage.wal.append_memory", &mut in_memory),
        ] {
            let outcome = tracer.span(name, index as u64, || {
                session.append_facts(ServeInput::append(parent, child))
            });
            report.check(outcome.map(|_| ()).map_err(|e| format!("{name}: {e}")));
        }
    }
    Ok(())
}

/// The per-layer pass: a fixed request list through the server (pass A), the
/// same list on a bare session (pass B), and for `serve.mixed` the price of
/// the WAL and the recovery from it.
fn traced_pass(
    workload: &Workload,
    cfg: &RunConfig,
    warm: Warm,
    mut tracer: Tracer,
    report: &mut Report,
) {
    let requests = traced_requests(workload.kind, cfg.size);
    let ops: Vec<Op> = warm.input.ops(cfg.seed).take(requests).collect();

    let mut served = server_pass(&warm, ops.iter().copied(), || true, &mut tracer);
    served.account(report);
    let Warm {
        input,
        program,
        server,
        wal: server_wal,
        durable,
        ..
    } = warm;
    let stats = server.stats();
    let live = probe_server(&server, &input, report);
    server.shutdown();

    let bare_wal = match ScratchWal::new(&cfg.out_dir, "bare") {
        Ok(wal) => wal,
        Err(e) => return report.check(Err(e)),
    };
    let bare_log = durable.then_some(&bare_wal);
    let bare = match bare_pass(&ops, &input, &program, bare_log, &mut tracer, report) {
        Ok((mut session, bare)) => {
            // Without appends the two passes answer every request
            // identically; with them, two requests in flight may straddle an
            // append, so only the final state is compared.
            if !durable {
                report.check(if bare.answer_counts == served.answer_counts {
                    Ok(())
                } else {
                    Err("bare session and server disagree on answer counts".to_string())
                });
            }
            let answers = probe_session(&mut session, &input, report);
            report.check(same_probes("bare session", &answers, &live));
            bare
        }
        Err(e) => return report.check(Err(e)),
    };

    if durable {
        if let Err(e) = wal_premium_pass(&ops, &program, cfg, &mut tracer, report) {
            report.check(Err(format!("WAL premium pass failed: {e}")));
        }
        // Recovery from the log the server wrote.
        let recovered = tracer.span("engine.session.recover", 0, || {
            QuerySession::recover(&program, ReasonerOptions::default(), server_wal.path())
        });
        if let Some((recovery, answers)) =
            check_recovery(recovered, served.append_ms.len(), &live, &input, report)
        {
            report.detail(
                "engine.session.recover.batches",
                recovery.batches_replayed as f64,
                "count",
            );
            report.detail(
                "engine.session.recover.facts",
                recovery.facts_replayed as f64,
                "count",
            );
            // The final state is a function of the request list alone.
            report.pin(
                cfg.pin_key(workload.name, "final_probes"),
                MultisetDigest::of(&answers).render(),
            );
        }
    }

    let layers = by_name(tracer.spans());
    let total_of = |name: &str| layers.get(name).map_or(0.0, |l| median(&l.total_s));
    let server_queries = Summary::of(&served.query_ms);
    let bare_queries: Vec<f64> = bare.hit_ms.iter().chain(&bare.miss_ms).copied().collect();
    let bare_p50 = median(&bare_queries);
    report.metric("parser.parse_s", total_of("parser.parse"), "s");
    report.metric("storage.load_s", total_of("storage.load"), "s");
    report.metric("engine.exec_ms", bare_p50, "ms");
    // Queue, fork and channel: what the server adds to the bare session.
    report.metric("outside_engine_ms", server_queries.p50 - bare_p50, "ms");
    report.metric(
        "trace.overhead_pct",
        (median(&served.recorded_ms) / median(&served.unrecorded_ms) - 1.0) * 100.0,
        "%",
    );
    pipeline_metrics(report, &bare.engine);
    for (name, value) in [
        ("session.cone_hits", stats.cone_hits),
        ("session.cone_misses", stats.cone_misses),
        ("session.cone_invalidations", stats.cone_invalidations),
        ("session.compactions", stats.compactions as u64),
        ("server.max_queue_depth", stats.max_queue_depth as u64),
    ] {
        report.metric(name, value as f64, "count");
    }

    report.detail("server.requests", requests as f64, "count");
    report.detail("server.query_p50_ms", server_queries.p50, "ms");
    if let Some(p95) = server_queries.supported(95.0) {
        report.detail("server.query_p95_ms", p95, "ms");
    }
    if !served.append_ms.is_empty() {
        report.detail("server.append_p50_ms", median(&served.append_ms), "ms");
    }
    for (layer, name) in [
        ("server.start", "server.start_s"),
        ("server.warmup", "server.warmup_s"),
        ("engine.session.warmup", "engine.session.warmup_s"),
    ] {
        report.detail(name, total_of(layer), "s");
    }
    for (name, samples) in [
        ("engine.session.query_hit", &bare.hit_ms),
        ("engine.session.query_miss", &bare.miss_ms),
        ("engine.session.append", &bare.append_ms),
    ] {
        report.detail(&format!("{name}.samples"), samples.len() as f64, "count");
        if !samples.is_empty() {
            report.detail(&format!("{name}_ms"), median(samples), "ms");
        }
    }
    if durable {
        let durable_ms = total_of("storage.wal.append_durable") * 1e3;
        let memory_ms = total_of("storage.wal.append_memory") * 1e3;
        report.detail("storage.wal.append_durable_ms", durable_ms, "ms");
        report.detail("storage.wal.append_memory_ms", memory_ms, "ms");
        report.detail("storage.wal.premium_ms", durable_ms - memory_ms, "ms");
        report.detail(
            "engine.session.recover_s",
            total_of("engine.session.recover"),
            "s",
        );
    }
    // Where a query's latency goes: the bare session's share and the
    // server's own.
    let session_share = bare_p50 / server_queries.p50 * 100.0;
    report.detail("share.engine.session.query", session_share, "%");
    report.detail("share.server.overhead", 100.0 - session_share, "%");
    report.detail("parser.bytes", input.text.len() as f64, "B");
    report.detail("parser.facts", program.facts.len() as f64, "count");
    report.detail("parser.rules", program.rules.len() as f64, "count");
    server_stats_detail(report, &stats);
    report.check(write_trace(&tracer, cfg, workload.name));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    #[test]
    fn closed_loop_never_exceeds_its_window_and_completes_in_order() {
        let in_flight = Cell::new(0usize);
        let max_in_flight = Cell::new(0usize);
        let clients = RefCell::new(Vec::new());
        let completed = RefCell::new(Vec::new());
        let mut list = 0..25u32;
        closed_loop(
            OUTSTANDING,
            || list.next(),
            |client, request: &u32| {
                in_flight.set(in_flight.get() + 1);
                max_in_flight.set(max_in_flight.get().max(in_flight.get()));
                clients.borrow_mut().push(client);
                *request * 10
            },
            |request, ticket, submitted| {
                assert_eq!(ticket, request * 10);
                assert!(submitted <= Instant::now());
                in_flight.set(in_flight.get() - 1);
                completed.borrow_mut().push(request);
            },
        );
        assert_eq!(max_in_flight.get(), OUTSTANDING);
        assert_eq!(in_flight.get(), 0);
        assert_eq!(*completed.borrow(), (0..25).collect::<Vec<_>>());
        // the two slots are two clients, and each slot's next request goes
        // out under the client that just completed
        assert_eq!(&clients.borrow()[..4], &[0, 1, 0, 1]);
    }

    #[test]
    fn closed_loop_drains_when_the_window_closes_early() {
        let mut budget = 3;
        let mut done = 0;
        closed_loop(
            OUTSTANDING,
            || {
                budget -= 1;
                (budget >= 0).then_some(())
            },
            |_, _| (),
            |_, _, _| done += 1,
        );
        assert_eq!(done, 3);
        let mut never = 0;
        closed_loop(OUTSTANDING, || None::<()>, |_, _| (), |_, _, _| never += 1);
        assert_eq!(never, 0);
    }
}
