//! # vadalog-server
//!
//! A concurrent reasoning server over one shared knowledge graph: many
//! callers submit query atoms and fact appends against a single
//! [`vadalog_engine::QuerySession`], served by a bounded pool of worker
//! threads. The paper presents Vadalog as the reasoning core *service* of a
//! larger KGMS — this crate is that service boundary for the reproduction.
//!
//! The design is three pieces:
//!
//! * **One session, many forks.** The server opens one session over the
//!   program and [`QuerySession::fork`]s it once per worker. Forks share
//!   the EDB base, the compiled-plan cache, the ensure-index memos
//!   and — the perf headline — the *magic-cone derivation cache*: a cone
//!   derived by any worker is a cache hit for every later query with the
//!   same predicate, constants and variable pattern, which gets the cached
//!   answers verbatim. Reads run against copy-on-write
//!   overlays and never block appends; appends promote new immutable base
//!   segments and invalidate exactly the cones they can reach.
//! * **Admission control.** The submission queue is bounded
//!   ([`ServerConfig::queue_cap`]): a submit against a full queue is shed
//!   *immediately* with a typed [`Response::Overloaded`] — no work is
//!   queued that the server has no capacity to absorb. Every accepted
//!   request carries a deadline ([`ServerConfig::timeout`]); a worker that
//!   dequeues an expired request sheds it with [`Response::TimedOut`]
//!   rather than burning reasoning time on an answer nobody is waiting
//!   for. Shedding is graceful: the caller always receives a reply.
//! * **Snapshot-stamped responses.** Every answer is tagged with the
//!   [`Response::Answers::observed_stamp`] — the base stamp its
//!   copy-on-write snapshot was taken at. The server guarantees *snapshot
//!   isolation*: an answer with stamp `s` is exactly what a fresh session
//!   over the EDB prefix up to stamp `s` would produce (the property test
//!   in `tests/` hammers this with concurrent readers and appenders).
//!
//! On top of those, the server is built to survive partial failure:
//!
//! * **Panic isolation.** Each request executes under
//!   [`std::panic::catch_unwind`]: a panicking request costs exactly that
//!   request — the caller receives a typed [`Response::WorkerPanicked`],
//!   the worker discards its possibly-tainted session handle, re-forks a
//!   fresh one off the shared core (the "respawn";
//!   [`ServerStats::worker_respawns`] counts them) and keeps serving. A
//!   panic that poisoned the shared core's mutex is **healed deliberately**
//!   by the engine on the next lock: the base stamp is bumped so every memo
//!   keyed to possibly-half-mutated state is invalidated
//!   ([`ServerStats::poison_heals`]).
//! * **Durability.** [`ReasoningServer::recover`] opens the shared session
//!   over a write-ahead log: every accepted append is fsync'd before its
//!   promotion is acknowledged, and a restart replays the log into a
//!   bit-identical session (see `vadalog_engine::QuerySession::recover`).
//!   The log is the server's only file: shutdown writes nothing beside it.
//! * **Per-client fairness.** [`ReasoningServer::submit_from`] tags each
//!   request with a client id; one client may only hold
//!   [`ServerConfig::client_quota`] queue slots, so a hot client is shed
//!   with [`Response::Overloaded`] instead of starving everyone else.
//!
//! ```
//! use vadalog_server::{ReasoningServer, Request, Response, ServerConfig};
//! use vadalog_model::prelude::*;
//!
//! let program = vadalog_parser::parse_program(
//!     "Edge(\"a\", \"b\"). Edge(\"b\", \"c\").\n\
//!      Edge(x, y) -> Reach(x, y).\n\
//!      Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
//!      @output(\"Reach\").",
//! )
//! .unwrap();
//! let server = ReasoningServer::start(&program, ServerConfig::default()).unwrap();
//! let query = Atom {
//!     predicate: intern("Reach"),
//!     terms: vec![Term::Const(Value::str("a")), Term::var("y")],
//! };
//! match server.submit(Request::Query(query)).recv() {
//!     Response::Answers { answers, .. } => assert_eq!(answers.len(), 2),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! server.shutdown();
//! ```

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vadalog_engine::{QuerySession, Reasoner, ReasonerError, ReasonerOptions, RecoveryReport};
use vadalog_fault as fault;
use vadalog_model::{Atom, Fact, Program};

/// Configuration of a [`ReasoningServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (each owns a fork of the shared session). `0` starts
    /// no workers — queued requests are never executed (useful to test
    /// admission control and shutdown shedding deterministically).
    pub workers: usize,
    /// Maximum requests waiting in the submission queue. A submit against
    /// a full queue is shed with [`Response::Overloaded`]. `0` sheds every
    /// request (useful to test admission control).
    pub queue_cap: usize,
    /// Per-request queueing deadline: a request still queued after this
    /// long is shed with [`Response::TimedOut`] instead of being executed.
    pub timeout: Duration,
    /// Maximum queue slots any one client (as tagged by
    /// [`ReasoningServer::submit_from`]) may hold at once; an over-quota
    /// client is shed with [`Response::Overloaded`] while other clients'
    /// requests are still admitted. `0` disables the per-client bound.
    pub client_quota: usize,
    /// Reasoner options for the shared session (parallelism, join
    /// strategy, cone-cache bounds, ...).
    pub options: ReasonerOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 128,
            timeout: Duration::from_secs(30),
            client_quota: 32,
            options: ReasonerOptions::default(),
        }
    }
}

/// One request against the shared knowledge graph.
#[derive(Clone, Debug)]
pub enum Request {
    /// Answer a query atom (constants bound, variables free).
    Query(Atom),
    /// Append ground EDB facts (promoted into the base as one batch).
    Append(Vec<Fact>),
}

/// The server's reply to one request. Every submitted request receives
/// exactly one response — shed requests included.
#[derive(Clone, Debug)]
pub enum Response {
    /// The answers to a query, **sorted canonically** (concurrent servers
    /// make run order meaningless across workers).
    Answers {
        answers: Vec<Fact>,
        /// Whether the magic-sets rewrite answered the query (vs the
        /// bottom-up fallback).
        used_magic_sets: bool,
        /// The base stamp the answer's snapshot observed: the answer
        /// equals a fresh session over exactly the appends promoted at or
        /// before this stamp.
        observed_stamp: u64,
    },
    /// An append was applied (or was a complete duplicate: `appended` 0).
    Appended {
        appended: usize,
        duplicates: usize,
        /// The base stamp after this append; responses observing a stamp
        /// `>= this` reflect the appended facts.
        stamp: u64,
    },
    /// Shed at submission: the queue was at capacity.
    Overloaded {
        /// Queue depth observed at submission.
        queue_depth: usize,
    },
    /// Shed at dequeue: the request out-waited its deadline.
    TimedOut {
        /// How long the request sat in the queue.
        waited: Duration,
    },
    /// The worker executing this request **panicked**. The panic cost
    /// exactly this request: it was caught, the worker re-forked a fresh
    /// session handle and kept serving, and any mutex poison left on the
    /// shared core is healed (memos invalidated via the stamp) on the next
    /// lock. See [`ServerStats::worker_panics`] /
    /// [`ServerStats::worker_respawns`].
    WorkerPanicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// Shed at shutdown: the request was still queued when
    /// [`ReasoningServer::shutdown`] drained the queue — it was never
    /// executed.
    ShedAtShutdown,
    /// The reply channel dropped without any response being sent — the
    /// serving thread vanished mid-request (process teardown, a worker
    /// killed externally). Distinct from [`Response::ShedAtShutdown`] (an
    /// orderly drain) and [`Response::WorkerPanicked`] (a caught panic):
    /// this is the "no one will ever reply" case.
    Disconnected,
    /// The request failed (non-ground append, unsupported fragment, ...).
    Error(String),
}

/// Handle to one submitted request's eventual [`Response`].
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Block until the response arrives. Every path through the server
    /// replies with a typed response — a worker panic as
    /// [`Response::WorkerPanicked`], a shutdown drain as
    /// [`Response::ShedAtShutdown`] — so a dropped channel with no reply at
    /// all means the serving side is gone: [`Response::Disconnected`].
    pub fn recv(self) -> Response {
        self.rx.recv().unwrap_or(Response::Disconnected)
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Response> {
        self.rx.try_recv().ok()
    }
}

struct Job {
    request: Request,
    reply: mpsc::Sender<Response>,
    /// Client id the request was submitted under (0 for untagged
    /// [`ReasoningServer::submit`] calls), for the per-client queue quota.
    client: u64,
    enqueued: Instant,
    deadline: Instant,
}

/// The submission queue plus its per-client occupancy, guarded together: a
/// client's count is incremented at admission and decremented when its job
/// leaves the queue (dequeue or shutdown drain), so the quota bounds *queued*
/// requests, not lifetime submissions.
#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    per_client: HashMap<u64, usize>,
}

impl QueueState {
    fn pop(&mut self) -> Option<Job> {
        let job = self.jobs.pop_front()?;
        if let Some(count) = self.per_client.get_mut(&job.client) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.per_client.remove(&job.client);
            }
        }
        Some(job)
    }
}

/// Queue-depth histogram buckets: depths `0, 1, 2-3, 4-7, 8-15, >=16`
/// observed at submission time.
pub const QUEUE_DEPTH_BUCKETS: usize = 6;

fn depth_bucket(depth: usize) -> usize {
    match depth {
        0 => 0,
        1 => 1,
        2..=3 => 2,
        4..=7 => 3,
        8..=15 => 4,
        _ => 5,
    }
}

/// Label for bucket `i` of [`ServerStats::queue_depth_hist`].
pub fn depth_bucket_label(i: usize) -> &'static str {
    ["0", "1", "2-3", "4-7", "8-15", "16+"][i]
}

#[derive(Default)]
struct Counters {
    answered: AtomicU64,
    appends: AtomicU64,
    shed_overload: AtomicU64,
    shed_client_quota: AtomicU64,
    shed_timeout: AtomicU64,
    shed_shutdown: AtomicU64,
    errors: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    max_queue_depth: AtomicUsize,
    queue_depth_hist: [AtomicU64; QUEUE_DEPTH_BUCKETS],
}

/// A point-in-time statistics snapshot of a running server: the admission
/// control counters plus the shared session's cache counters.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Queries answered (cone-cache hits included).
    pub answered: u64,
    /// Appends applied.
    pub appends: u64,
    /// Requests shed at submission (queue full).
    pub shed_overload: u64,
    /// Requests shed at submission because their client was over its
    /// [`ServerConfig::client_quota`] share of the queue.
    pub shed_client_quota: u64,
    /// Requests shed at dequeue (deadline expired while queued).
    pub shed_timeout: u64,
    /// Requests still queued when shutdown drained the queue.
    pub shed_shutdown: u64,
    /// Requests that failed.
    pub errors: u64,
    /// Requests whose execution panicked (each cost exactly one request).
    pub worker_panics: u64,
    /// Fresh session forks taken by workers after a panic — capacity is
    /// never permanently lost to a panicking request.
    pub worker_respawns: u64,
    /// Times a panic poisoned the shared core and the next locker healed it
    /// (stamp bumped, memos invalidated) — see
    /// `vadalog_engine::QuerySession::poison_heals`.
    pub poison_heals: u64,
    /// Deepest queue observed at any submission.
    pub max_queue_depth: usize,
    /// Queue depth at submission, bucketed — see [`depth_bucket_label`].
    pub queue_depth_hist: [u64; QUEUE_DEPTH_BUCKETS],
    /// Cone-cache exact hits across all workers.
    pub cone_hits: u64,
    /// Always 0: the cone cache answers exact repeats only. Kept only for
    /// the benchmark's API footprint.
    pub cone_subsumption_hits: u64,
    /// Cone-cache misses (queries that derived their cone).
    pub cone_misses: u64,
    /// Cone entries dropped by append invalidation.
    pub cone_invalidations: u64,
    /// Cone entries evicted by the LRU cap/bytes budget
    /// (`ReasonerOptions::cone_cache_cap` / `cone_cache_bytes`).
    pub cone_evictions: u64,
    /// Cone entries currently cached.
    pub cone_entries: usize,
    /// Estimated bytes currently held by the cone cache.
    pub cone_approx_bytes: usize,
    /// Whether a write-ahead log is attached (appends are durable).
    pub wal_attached: bool,
    /// Hits in the (predicate, adornment) compiled-plan cache.
    pub compile_cache_hits: u64,
    /// Segment merges the base's promotions made.
    pub compactions: usize,
    /// Current base stamp (number of promoted append batches).
    pub base_stamp: u64,
    /// The most row segments a base relation holds.
    pub base_layers: usize,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    shutdown: Mutex<bool>,
    counters: Counters,
}

/// The concurrent reasoning server — see the [module docs](self).
pub struct ReasoningServer {
    shared: Arc<Shared>,
    /// A fork of the shared session kept by the server handle itself, for
    /// statistics snapshots (all counters live in the shared core).
    session: QuerySession,
    config: ServerConfig,
    workers: Vec<JoinHandle<()>>,
}

impl ReasoningServer {
    /// Open the shared session over `program` and start the worker pool.
    pub fn start(
        program: &Program,
        config: ServerConfig,
    ) -> Result<ReasoningServer, ReasonerError> {
        let session = Reasoner::with_options(config.options).session(program)?;
        Ok(Self::from_session(session, config))
    }

    /// Open the shared session over `program` **and the write-ahead log at
    /// `wal_path`**, replaying any durable appends from a previous
    /// incarnation (bit-identical recovery — see
    /// [`QuerySession::recover`]), then start the worker pool. Subsequent
    /// accepted appends are fsync'd to the log before their promotion is
    /// acknowledged.
    pub fn recover(
        program: &Program,
        config: ServerConfig,
        wal_path: &Path,
    ) -> Result<(ReasoningServer, RecoveryReport), ReasonerError> {
        let (session, report) = QuerySession::recover(program, config.options, wal_path)?;
        Ok((Self::from_session(session, config), report))
    }

    fn from_session(session: QuerySession, config: ServerConfig) -> ReasoningServer {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            shutdown: Mutex::new(false),
            counters: Counters::default(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                // Fork *before* spawning: the fork shares the session core,
                // the worker owns its handle.
                let fork = session.fork();
                std::thread::spawn(move || worker_loop(shared, fork))
            })
            .collect();
        ReasoningServer {
            shared,
            session,
            config,
            workers,
        }
    }

    /// Submit a request. Returns immediately with a [`Ticket`] for the
    /// eventual response; admission control may already have shed the
    /// request (the ticket then holds [`Response::Overloaded`]).
    ///
    /// Equivalent to [`ReasoningServer::submit_from`] with client id `0`.
    pub fn submit(&self, request: Request) -> Ticket {
        self.submit_from(0, request)
    }

    /// Submit a request on behalf of `client`. Admission control sheds the
    /// request with [`Response::Overloaded`] if the queue is full **or** if
    /// this client already holds [`ServerConfig::client_quota`] queue slots
    /// — the per-client bound keeps one hot client from starving the rest
    /// of the queue ([`ServerStats::shed_client_quota`] counts these).
    pub fn submit_from(&self, client: u64, request: Request) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        let depth = queue.jobs.len();
        let c = &self.shared.counters;
        c.queue_depth_hist[depth_bucket(depth)].fetch_add(1, Ordering::Relaxed);
        c.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        if depth >= self.config.queue_cap {
            drop(queue);
            c.shed_overload.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Response::Overloaded { queue_depth: depth });
            return Ticket { rx };
        }
        if self.config.client_quota > 0
            && queue.per_client.get(&client).copied().unwrap_or(0) >= self.config.client_quota
        {
            drop(queue);
            c.shed_client_quota.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Response::Overloaded { queue_depth: depth });
            return Ticket { rx };
        }
        *queue.per_client.entry(client).or_insert(0) += 1;
        queue.jobs.push_back(Job {
            request,
            reply: tx,
            client,
            enqueued: now,
            deadline: now + self.config.timeout,
        });
        drop(queue);
        self.shared.available.notify_one();
        Ticket { rx }
    }

    /// Convenience: submit-and-wait.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).recv()
    }

    /// A statistics snapshot: admission counters plus the shared session's
    /// cache counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let mut hist = [0u64; QUEUE_DEPTH_BUCKETS];
        for (out, bucket) in hist.iter_mut().zip(&c.queue_depth_hist) {
            *out = bucket.load(Ordering::Relaxed);
        }
        ServerStats {
            answered: c.answered.load(Ordering::Relaxed),
            appends: c.appends.load(Ordering::Relaxed),
            shed_overload: c.shed_overload.load(Ordering::Relaxed),
            shed_client_quota: c.shed_client_quota.load(Ordering::Relaxed),
            shed_timeout: c.shed_timeout.load(Ordering::Relaxed),
            shed_shutdown: c.shed_shutdown.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            worker_respawns: c.worker_respawns.load(Ordering::Relaxed),
            poison_heals: self.session.poison_heals(),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            queue_depth_hist: hist,
            cone_hits: self.session.cone_cache_hits(),
            cone_misses: self.session.cone_cache_misses(),
            cone_invalidations: self.session.cone_cache_invalidations(),
            cone_evictions: self.session.cone_cache_evictions(),
            cone_entries: self.session.cone_cache_entries(),
            cone_approx_bytes: self.session.cone_cache_approx_bytes(),
            wal_attached: self.session.wal_attached(),
            compile_cache_hits: self.session.magic_compile_cache_hits(),
            compactions: self.session.compactions(),
            base_stamp: self.session.base_stamp(),
            base_layers: self.session.base_layers(),
            ..ServerStats::default()
        }
    }

    /// Orderly shutdown: workers finish their in-flight request, queued
    /// requests are shed with a typed [`Response::ShedAtShutdown`] reply
    /// and all threads are joined.
    pub fn shutdown(mut self) {
        {
            let mut down = self
                .shared
                .shutdown
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            *down = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Reply to anything still queued: an orderly drain, typed so the
        // caller can distinguish it from a vanished server.
        let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        while let Some(job) = queue.pop() {
            self.shared
                .counters
                .shed_shutdown
                .fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Response::ShedAtShutdown);
        }
    }
}

fn worker_loop(shared: Arc<Shared>, mut session: QuerySession) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = queue.pop() {
                    break Some(job);
                }
                if *shared.shutdown.lock().unwrap_or_else(|p| p.into_inner()) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(|p| p.into_inner());
                queue = guard;
            }
        };
        let Some(job) = job else { return };
        let now = Instant::now();
        if now > job.deadline {
            shared.counters.shed_timeout.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Response::TimedOut {
                waited: now - job.enqueued,
            });
            continue;
        }
        let Job { request, reply, .. } = job;
        // Panic isolation: a panicking request costs exactly this request.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The dispatch fault point models "this request's execution
            // blows up": any armed action becomes a panic here.
            if let Err(e) = fault::point("server.dispatch") {
                panic!("injected fault: {e}");
            }
            execute(&mut session, request, &shared.counters)
        }));
        match outcome {
            Ok(response) => {
                let _ = reply.send(response);
            }
            Err(payload) => {
                shared
                    .counters
                    .worker_panics
                    .fetch_add(1, Ordering::Relaxed);
                // Respawn before replying: discard the possibly-tainted
                // handle and re-fork off the shared core — forking locks the
                // core, so a mutex poisoned by this panic is healed right
                // here (stamp bump, memo invalidation) before the caller
                // sees the response or the worker takes another job.
                session = session.fork();
                shared
                    .counters
                    .worker_respawns
                    .fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(Response::WorkerPanicked {
                    message: panic_message(payload.as_ref()),
                });
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn execute(session: &mut QuerySession, request: Request, counters: &Counters) -> Response {
    match request {
        Request::Query(atom) => match session.query(&atom) {
            Ok(result) => {
                counters.answered.fetch_add(1, Ordering::Relaxed);
                let mut answers = result.answers;
                answers.sort();
                Response::Answers {
                    answers,
                    used_magic_sets: result.used_magic_sets,
                    observed_stamp: result.run.stats.base_stamp,
                }
            }
            Err(e) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(e.to_string())
            }
        },
        Request::Append(facts) => match session.append_facts(facts) {
            Ok(report) => {
                counters.appends.fetch_add(1, Ordering::Relaxed);
                Response::Appended {
                    appended: report.appended,
                    duplicates: report.duplicates,
                    stamp: report.stamp,
                }
            }
            Err(e) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(e.to_string())
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_model::prelude::*;

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

    #[test]
    fn answers_queries_and_reflects_appends() {
        let program = vadalog_parser::parse_program(&chain_src(4)).unwrap();
        let server = ReasoningServer::start(&program, ServerConfig::default()).unwrap();
        let Response::Answers {
            answers,
            used_magic_sets,
            observed_stamp,
        } = server.call(Request::Query(reach("n0")))
        else {
            panic!("expected answers")
        };
        assert_eq!(answers.len(), 4);
        assert!(used_magic_sets);
        assert_eq!(observed_stamp, 0);

        let Response::Appended {
            appended, stamp, ..
        } = server.call(Request::Append(vec![Fact::new(
            "Edge",
            vec![Value::str("n4"), Value::str("n5")],
        )]))
        else {
            panic!("expected append report")
        };
        assert_eq!((appended, stamp), (1, 1));

        let Response::Answers {
            answers,
            observed_stamp,
            ..
        } = server.call(Request::Query(reach("n0")))
        else {
            panic!("expected answers")
        };
        assert_eq!(answers.len(), 5, "append must be visible");
        assert_eq!(observed_stamp, 1);
        let stats = server.stats();
        assert_eq!(stats.answered, 2);
        assert_eq!(stats.appends, 1);
        assert_eq!(stats.base_stamp, 1);
        server.shutdown();
    }

    #[test]
    fn repeat_queries_hit_the_shared_cone_cache() {
        let program = vadalog_parser::parse_program(&chain_src(6)).unwrap();
        let server = ReasoningServer::start(
            &program,
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let first = server.call(Request::Query(reach("n0")));
        // repeats land on arbitrary workers; all of them share the cone
        for _ in 0..8 {
            let again = server.call(Request::Query(reach("n0")));
            match (&first, &again) {
                (Response::Answers { answers: a, .. }, Response::Answers { answers: b, .. }) => {
                    assert_eq!(a, b)
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.answered, 9);
        assert_eq!(stats.cone_misses, 1, "one derivation serves all workers");
        assert_eq!(stats.cone_hits, 8);
        server.shutdown();
    }

    #[test]
    fn zero_capacity_sheds_every_request_as_overloaded() {
        let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
        let server = ReasoningServer::start(
            &program,
            ServerConfig {
                queue_cap: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        match server.call(Request::Query(reach("n0"))) {
            Response::Overloaded { queue_depth } => assert_eq!(queue_depth, 0),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(server.stats().shed_overload, 1);
        server.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_as_timeouts() {
        let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
        let server = ReasoningServer::start(
            &program,
            ServerConfig {
                workers: 1,
                timeout: Duration::ZERO,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // A zero deadline has always expired by dequeue time.
        match server.call(Request::Query(reach("n0"))) {
            Response::TimedOut { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(server.stats().shed_timeout, 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_sheds_queued_requests_with_a_typed_response() {
        let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
        // No workers: submissions queue and are never executed, so the
        // shutdown drain is deterministic.
        let server = ReasoningServer::start(
            &program,
            ServerConfig {
                workers: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..3)
            .map(|_| server.submit(Request::Query(reach("n0"))))
            .collect();
        server.shutdown();
        for ticket in tickets {
            match ticket.recv() {
                Response::ShedAtShutdown => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn hot_clients_are_bounded_by_the_per_client_quota() {
        let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
        // No workers: the queue only fills, so admission decisions are
        // deterministic.
        let server = ReasoningServer::start(
            &program,
            ServerConfig {
                workers: 0,
                queue_cap: 8,
                client_quota: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // A hot client hammers the queue: only `client_quota` slots stick.
        let hot: Vec<Ticket> = (0..5)
            .map(|_| server.submit_from(1, Request::Query(reach("n0"))))
            .collect();
        let shed = hot
            .iter()
            .filter(|t| matches!(t.try_recv(), Some(Response::Overloaded { .. })))
            .count();
        assert_eq!(shed, 3, "3 of 5 must be shed over-quota");
        assert_eq!(server.stats().shed_client_quota, 3);
        assert_eq!(server.stats().shed_overload, 0, "queue itself never filled");
        // Another client is still admitted despite the hot one.
        let other = server.submit_from(2, Request::Query(reach("n0")));
        assert!(
            other.try_recv().is_none(),
            "client 2 must be queued, not shed"
        );
        server.shutdown();
    }

    #[test]
    fn quota_slots_are_returned_when_jobs_leave_the_queue() {
        let program = vadalog_parser::parse_program(&chain_src(3)).unwrap();
        let server = ReasoningServer::start(
            &program,
            ServerConfig {
                workers: 1,
                queue_cap: 8,
                client_quota: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Sequential calls never hold more than one slot at a time, so a
        // quota of 1 sheds nothing: the slot is released at dequeue.
        for _ in 0..4 {
            match server.submit_from(7, Request::Query(reach("n0"))).recv() {
                Response::Answers { answers, .. } => assert_eq!(answers.len(), 3),
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(server.stats().shed_client_quota, 0);
        server.shutdown();
    }

    #[test]
    fn a_dropped_reply_channel_reads_as_disconnected() {
        // Simulate the serving side vanishing without any reply: the ticket
        // must report Disconnected, not panic.
        let (tx, rx) = mpsc::channel::<Response>();
        drop(tx);
        let ticket = Ticket { rx };
        match ticket.recv() {
            Response::Disconnected => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn non_ground_appends_reply_with_a_typed_error() {
        let program = vadalog_parser::parse_program(&chain_src(2)).unwrap();
        let server = ReasoningServer::start(&program, ServerConfig::default()).unwrap();
        let bad = Fact::new_sym(
            intern("Edge"),
            vec![Value::str("a"), Value::Null(NullId(1))],
        );
        match server.call(Request::Append(vec![bad])) {
            Response::Error(msg) => assert!(msg.contains("ground"), "got: {msg}"),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(server.stats().errors, 1);
        server.shutdown();
    }
}
