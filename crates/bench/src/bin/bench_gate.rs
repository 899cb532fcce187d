//! CI bench-regression gate.
//!
//! Smoke-runs the fig5a (iWarded SynthA–H) and fig8c (body-atom scaling)
//! workloads at laptop scale, compares each wall-clock time against the
//! committed `BENCH_baseline.json`, and exits non-zero when any workload
//! regressed by more than the tolerance (default 25%, the CI budget).
//!
//! ```text
//! bench_gate                         # gate against BENCH_baseline.json
//! bench_gate --write-baseline        # refresh the baseline on this machine
//! bench_gate --baseline <path>       # gate against another file
//! bench_gate --tolerance 0.4        # allow up to 40% regression
//! bench_gate --speedups              # report parallel-vs-sequential ratios
//! bench_gate --range-ablation        # condition pushdown vs post-filter
//! bench_gate --intra-ablation        # intra-filter sharding on vs off,
//!                                    # plus the adaptive-range ablation
//! bench_gate --query-ablation        # session reuse on/off x magic on/off
//!                                    # on the repeated-bound-query workload
//! bench_gate --hybrid-ablation       # free-join executor vs binary joins on
//!                                    # the cyclic and mixed graph workloads
//! bench_gate --ivm-ablation          # incremental append maintenance vs
//!                                    # full rebuild on the streaming workload
//! bench_gate --serve-ablation        # shared cone derivation cache on vs
//!                                    # off on the overlapping-query stream
//! bench_gate --recover-ablation      # WAL durability premium + cold replay
//!                                    # vs from-scratch rebuild
//! ```
//!
//! Baselines are wall-clock and therefore hardware-specific: regenerate with
//! `--write-baseline` when the reference machine changes, and override the
//! budget with `--tolerance`/`VADALOG_BENCH_TOLERANCE` on noisy runners.

use std::time::Instant;
use vadalog_engine::{default_parallelism, JoinStrategy, QuerySession, Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;
use vadalog_workloads::{graph, iwarded, query, range, recover, scaling, serve, stream};

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The shared measurement discipline of every timing in this file: one
/// warm-up call, then best-of-`iters` wall-clock of `run`.
fn best_of(iters: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        run();
        best = best.min(ms(start.elapsed()));
    }
    best
}

/// Best-of-`iters` wall-clock of one engine run (after one warm-up run).
fn time_engine(program: &Program, parallelism: usize, iters: usize) -> f64 {
    let options = ReasonerOptions {
        parallelism,
        ..Default::default()
    };
    time_with(program, &options, iters)
}

/// The range-guard configurations shared by the gate and `--range-ablation`:
/// `(name, companies, edges, θ)`. θ = 0.95 is the high-selectivity regime
/// the sorted-run pushdown targets; θ = 0.50 checks the mid range.
fn range_configs() -> Vec<(String, usize, usize, f64)> {
    vec![
        ("fig5r_range/theta50".to_string(), 120, 2_000, 0.50),
        ("fig5r_range/theta95".to_string(), 60, 6_000, 0.95),
    ]
}

/// The cyclic-join graph configurations shared by the gate and
/// `--hybrid-ablation`: `(name, m, closing, fan, shape, gated)` — layer
/// width, sparse closing-edge count and pendant fan of the layered
/// worst-case instances in [`graph`]. The triangle / 4-clique / 5-cycle
/// bodies are fully cyclic (an intersect stage and nothing else; the
/// largest triangle entry is the acceptance size for the ≥3×
/// leapfrog-vs-binary bar); the lollipop and diamond carry acyclic pendant
/// ears around a cyclic core. The gate runs the `gated` rows only: the
/// small triangle and the 4-clique exist for the ablation's scaling
/// picture.
type CyclicConfig = (&'static str, usize, usize, usize, &'static str, bool);

fn cyclic_configs() -> Vec<CyclicConfig> {
    vec![
        ("fig10_graph/triangle_small", 60, 120, 0, "triangle", false),
        ("fig10_graph/triangle", 190, 150, 0, "triangle", true),
        ("fig10_graph/clique4", 70, 500, 0, "clique4", false),
        ("hybrid_graph/lollipop", 90, 60, 2, "lollipop", true),
        ("hybrid_graph/diamond", 30, 45, 1, "diamond", true),
        ("hybrid_graph/five_cycle", 10, 50, 0, "five_cycle", true),
    ]
}

/// The program of one [`cyclic_configs`] row and its output predicate.
fn cyclic_program(m: usize, closing: usize, fan: usize, shape: &str) -> (Program, &'static str) {
    match shape {
        "triangle" => (graph::triangle(m, closing, 97), "Triangle"),
        "clique4" => (graph::four_clique(m, closing, 97), "Clique"),
        "lollipop" => (graph::lollipop(m, closing, fan, 97), "Lollipop"),
        "diamond" => (graph::diamond(m, closing, fan, 97), "Diamond"),
        _ => (graph::five_cycle(m, closing, 97), "Penta"),
    }
}

/// Report free-join-vs-binary wall-clock on the cyclic and mixed graph
/// workloads (the BENCH_pr6.json / BENCH_pr10.json ablations; the
/// acceptance bars are ≥3× on the largest triangle and ≥1.5× on the
/// lollipop and diamond).
fn report_hybrid_ablation(iters: usize) {
    println!("{{");
    let configs = cyclic_configs();
    for (i, (name, m, closing, fan, shape, _)) in configs.iter().enumerate() {
        let (program, out) = cyclic_program(*m, *closing, *fan, shape);
        let time = |join_strategy| {
            let options = ReasonerOptions {
                join_strategy,
                ..Default::default()
            };
            time_with(&program, &options, iters)
        };
        let free_join = time(JoinStrategy::FreeJoin);
        let binary = time(JoinStrategy::Binary);
        let result = Reasoner::new().reason(&program).expect("run failed");
        let stats = &result.stats.pipeline;
        let sep = if i + 1 == configs.len() { "" } else { "," };
        println!(
            "  \"{name}\": {{ \"free_join_ms\": {free_join:.2}, \"binary_ms\": {binary:.2}, \
             \"speedup\": {:.2}, \"wcoj_activations\": {}, \"hybrid_activations\": {}, \
             \"wcoj_seeks\": {}, \"wcoj_intersections\": {}, \"hashtrie_builds\": {}, \
             \"hashtrie_reuses\": {}, \"matches\": {} }}{sep}",
            binary / free_join,
            stats.wcoj_activations,
            stats.hybrid_activations,
            stats.wcoj_seeks,
            stats.wcoj_intersections,
            stats.hashtrie_builds,
            stats.hashtrie_reuses,
            result.output(out).len(),
        );
    }
    println!("}}");
}

/// The gated workloads: every fig5a scenario, the fig8c join pipeline and
/// the range-guard sweeps at laptop scale (mirrors the criterion benches'
/// smoke configuration).
fn workloads() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for scenario in iwarded::Scenario::all() {
        let mut spec = scenario.spec();
        spec.facts_per_input = 60;
        spec.domain_size = 25;
        out.push((
            format!("fig5a_iwarded/{}", scenario.name()),
            iwarded::generate(&spec, 42),
        ));
    }
    for &k in &[2usize, 4, 8] {
        out.push((format!("fig8c_atoms/{k}"), scaling::atom_count(k, 300, 33)));
    }
    for (name, companies, edges, theta) in range_configs() {
        out.push((name, range::guarded_control(companies, edges, theta, 97)));
    }
    // The cyclic and mixed graph workloads behind `--hybrid-ablation`.
    for (name, m, closing, fan, shape, gated) in cyclic_configs() {
        if gated {
            out.push((name.to_string(), cyclic_program(m, closing, fan, shape).0));
        }
    }
    out
}

/// Best-of-`iters` wall-clock with condition pushdown forced on or off.
fn time_pushdown(program: &Program, pushdown: bool, iters: usize) -> f64 {
    let options = ReasonerOptions {
        condition_pushdown: pushdown,
        ..Default::default()
    };
    time_with(program, &options, iters)
}

/// Report pushdown-vs-post-filter wall-clock on the range workloads (used to
/// record the BENCH_pr3.json ablation; the acceptance bar is ≥2× at high
/// selectivity).
fn report_range_ablation(iters: usize) {
    println!("{{");
    let configs = range_configs();
    for (i, (name, companies, edges, theta)) in configs.iter().enumerate() {
        let program = range::guarded_control(*companies, *edges, *theta, 97);
        let pushdown = time_pushdown(&program, true, iters);
        let postfilter = time_pushdown(&program, false, iters);
        let result = Reasoner::new().reason(&program).expect("run failed");
        let sep = if i + 1 == configs.len() { "" } else { "," };
        println!(
            "  \"{name}\": {{ \"pushdown_ms\": {pushdown:.2}, \"postfilter_ms\": {postfilter:.2}, \
             \"speedup\": {:.2}, \"range_probes\": {}, \"controls\": {} }}{sep}",
            postfilter / pushdown,
            result.stats.pipeline.range_probes,
            result.output("Control").len(),
        );
    }
    println!("}}");
}

/// Best-of-`iters` wall-clock under arbitrary reasoner options (one warm-up
/// run first).
fn time_with(program: &Program, options: &ReasonerOptions, iters: usize) -> f64 {
    let reasoner = Reasoner::with_options(*options);
    best_of(iters, || {
        let result = reasoner.reason(program).expect("engine run failed");
        std::hint::black_box(result.stats.total_facts);
    })
}

/// Report the intra-filter ablations (used to record BENCH_pr4.json):
///
/// * **sharding on vs off** on the join-heaviest workloads — fig8c_atoms/16
///   (one 16-atom filter per batch) and the fig5r_range sweeps — plus the
///   chunk-width slack: work items per productive activation with sharding
///   on, i.e. how many independent units a single-filter batch exposes to
///   the worker pool;
/// * **adaptive range selection on vs off** on the two-guard workload,
///   where the planner's static first choice ranges the coarse weight
///   column and the run-directory statistics must re-pick the fine capital
///   column.
fn report_intra_ablation(iters: usize) {
    let threads = default_parallelism().max(4);
    let configs: Vec<(String, Program)> = vec![
        ("fig8c_atoms/16".into(), scaling::atom_count(16, 300, 33)),
        (
            "fig5r_range/theta50".into(),
            range::guarded_control(120, 2_000, 0.50, 97),
        ),
        (
            "fig5r_range/theta95".into(),
            range::guarded_control(60, 6_000, 0.95, 97),
        ),
    ];
    println!("{{");
    println!("  \"sharding\": {{");
    for (i, (name, program)) in configs.iter().enumerate() {
        let sharded_opts = ReasonerOptions {
            parallelism: threads,
            intra_filter_parallelism: 4,
            ..Default::default()
        };
        let unsharded_opts = ReasonerOptions {
            parallelism: threads,
            intra_filter_parallelism: 1,
            ..Default::default()
        };
        let sharded = time_with(program, &sharded_opts, iters);
        let unsharded = time_with(program, &unsharded_opts, iters);
        let stats = Reasoner::with_options(sharded_opts)
            .reason(program)
            .expect("stats run failed")
            .stats
            .pipeline;
        // chunks_per_activation is a coarse average (the numerator includes
        // items of unproductive activations); batch_width_hist is the exact
        // per-batch evidence — a batch of width w exposed w independent
        // work items to the pool.
        let slack = stats.intra_filter_chunks as f64 / stats.productive_activations.max(1) as f64;
        let h = stats.batch_width_hist;
        let sep = if i + 1 == configs.len() { "" } else { "," };
        println!(
            "    \"{name}\": {{ \"sharded_ms\": {sharded:.2}, \"unsharded_ms\": {unsharded:.2}, \
             \"speedup\": {:.2}, \"chunks\": {}, \"productive_activations\": {}, \
             \"chunks_per_activation\": {slack:.1}, \
             \"batch_width_hist\": {{ \"1\": {}, \"2-3\": {}, \"4-7\": {}, \"8-15\": {}, \"16+\": {} }} }}{sep}",
            unsharded / sharded,
            stats.intra_filter_chunks,
            stats.productive_activations,
            h[0], h[1], h[2], h[3], h[4],
        );
    }
    println!("  }},");
    println!("  \"adaptive_range\": {{");
    let program = range::two_guard_control(80, 4_000, 0.5, 0.2, 97);
    let adaptive_opts = ReasonerOptions {
        parallelism: threads,
        ..Default::default()
    };
    let static_opts = ReasonerOptions {
        parallelism: threads,
        adaptive_ranges: false,
        ..Default::default()
    };
    let adaptive = time_with(&program, &adaptive_opts, iters);
    let fixed = time_with(&program, &static_opts, iters);
    let result = Reasoner::with_options(adaptive_opts)
        .reason(&program)
        .expect("adaptive run failed");
    println!(
        "    \"fig5r2_two_guard\": {{ \"adaptive_ms\": {adaptive:.2}, \"static_ms\": {fixed:.2}, \
         \"speedup\": {:.2}, \"adaptive_range_picks\": {}, \"controls\": {} }}",
        fixed / adaptive,
        result.stats.pipeline.adaptive_range_picks,
        result.output("Control").len(),
    );
    println!("  }}");
    println!("}}");
}

/// The gated query-session workload: `queries` bound `Reach` queries over
/// an `n`-edge chain, answered end to end on one session (EDB interned and
/// indexed once, per-query magic runs on copy-on-write snapshots).
const QUERY_CHAIN_N: usize = 220;
const QUERY_CHAIN_QUERIES: usize = 12;
/// Bulk EDB rows no query touches: fresh runs re-intern them per query,
/// the session interns them once (the large-EDB regime of the workload).
const QUERY_CHAIN_BULK: usize = 12_000;

/// Best-of-`iters` wall-clock of the full session workload: session build
/// plus every query. The session is rebuilt each iteration, so the time
/// honestly includes the one-off EDB build the reuse amortises.
fn time_query_session(program: &Program, queries: &[Atom], magic: bool, iters: usize) -> f64 {
    let reasoner = Reasoner::new();
    let run = || {
        let mut session = reasoner
            .session(program)
            .expect("session build failed")
            .with_magic(magic);
        let mut answers = 0usize;
        for q in queries {
            answers += session
                .query(q)
                .expect("session query failed")
                .answers
                .len();
        }
        std::hint::black_box(answers);
    };
    best_of(iters, run)
}

/// Best-of-`iters` wall-clock of the per-query fresh baseline: either
/// `reason_query` (fresh store + magic rewrite per query) or a plain
/// bottom-up run with value-level post-filtering per query.
fn time_query_fresh(program: &Program, queries: &[Atom], magic: bool, iters: usize) -> f64 {
    let reasoner = Reasoner::new();
    let run = || {
        let mut answers = 0usize;
        for q in queries {
            if magic {
                answers += reasoner
                    .reason_query(program, q)
                    .expect("fresh query failed")
                    .answers
                    .len();
            } else {
                let full = reasoner.reason(program).expect("fresh run failed");
                answers += full
                    .store
                    .facts_of(q.predicate)
                    .iter()
                    .filter(|f| q.match_fact(f, &Substitution::new()).is_some())
                    .count();
            }
        }
        std::hint::black_box(answers);
    };
    best_of(iters, run)
}

/// Report the 2x2 query ablation — session reuse on/off x magic on/off —
/// on the repeated-bound-query workload, plus the session's reuse evidence
/// (EDB builds, snapshot rows reused, compile cache hits). The acceptance
/// bar is `speedup_vs_fresh_bottomup >= 2` for the session+magic corner.
fn report_query_ablation(iters: usize) {
    let program = query::chain(QUERY_CHAIN_N, QUERY_CHAIN_BULK);
    let queries = query::bound_queries(QUERY_CHAIN_N, QUERY_CHAIN_QUERIES);
    let session_magic = time_query_session(&program, &queries, true, iters);
    let session_plain = time_query_session(&program, &queries, false, iters);
    let fresh_magic = time_query_fresh(&program, &queries, true, iters);
    let fresh_plain = time_query_fresh(&program, &queries, false, iters);
    // Reuse evidence from one instrumented session pass.
    let mut session = Reasoner::new()
        .session(&program)
        .expect("session build failed");
    let mut last = None;
    for q in &queries {
        last = Some(session.query(q).expect("session query failed"));
    }
    let last = last.expect("at least one query");
    println!("{{");
    println!(
        "  \"workload\": {{ \"chain_edges\": {QUERY_CHAIN_N}, \"bound_queries\": {} }},",
        queries.len()
    );
    println!("  \"session_magic_ms\": {session_magic:.2},");
    println!("  \"session_bottomup_ms\": {session_plain:.2},");
    println!("  \"fresh_magic_ms\": {fresh_magic:.2},");
    println!("  \"fresh_bottomup_ms\": {fresh_plain:.2},");
    println!(
        "  \"speedup_vs_fresh_bottomup\": {:.2},",
        fresh_plain / session_magic
    );
    println!(
        "  \"speedup_vs_fresh_magic\": {:.2},",
        fresh_magic / session_magic
    );
    println!(
        "  \"session\": {{ \"edb_builds\": {}, \"base_index_builds\": {}, \
         \"compile_cache_hits\": {}, \"edb_rows_reused_last_run\": {}, \
         \"overlay_rows_last_run\": {} }}",
        session.edb_builds(),
        session.base_index_builds(),
        session.magic_compile_cache_hits(),
        last.run.stats.pipeline.edb_rows_reused,
        last.run.stats.pipeline.snapshot_overlay_rows,
    );
    println!("}}");
}

/// The gated streaming-append workload: an `n`-edge chain closed into
/// `Reach` with an `mcount` out-degree aggregate, then `batches` batches of
/// `batch_size` edges streamed onto the chain end. Each appended edge only
/// derives the linear `Reach` suffix behind it, so the incremental session
/// does `O(chain)` work per batch where the rebuild ablation re-derives the
/// full `O(chain²)` closure.
const STREAM_N: usize = 150;
const STREAM_BATCHES: usize = 8;
const STREAM_BATCH_SIZE: usize = 4;

/// Best-of-`iters` wall-clock of the full streaming schedule: session build
/// and initial materialisation, then append + re-materialise per batch.
/// `incremental = false` is the rebuild ablation — appends drop the
/// live instance and every `materialise` runs the chase from the layered
/// EDB again.
fn time_stream(program: &Program, schedule: &[Vec<Fact>], incremental: bool, iters: usize) -> f64 {
    let reasoner = Reasoner::with_options(ReasonerOptions {
        incremental,
        ..Default::default()
    });
    best_of(iters, || {
        let mut session = reasoner.session(program).expect("session build failed");
        session.materialise().expect("initial materialise failed");
        let mut total = 0usize;
        for batch in schedule {
            session
                .append_facts(batch.iter().cloned())
                .expect("append failed");
            total = session
                .materialise()
                .expect("incremental materialise failed")
                .total_facts;
        }
        std::hint::black_box(total);
    })
}

/// Report incremental-vs-rebuild wall-clock on the streaming workload (used
/// to record the BENCH_pr7.json ablation; the acceptance bar is ≥3× at this
/// gated size), plus the maintenance evidence of one instrumented
/// incremental pass.
fn report_ivm_ablation(iters: usize) {
    let program = stream::stream_program(STREAM_N);
    let schedule = stream::append_batches(STREAM_N, STREAM_BATCHES, STREAM_BATCH_SIZE);
    let incremental = time_stream(&program, &schedule, true, iters);
    let rebuild = time_stream(&program, &schedule, false, iters);

    let mut session = Reasoner::new().session(&program).expect("session build");
    session.materialise().expect("initial materialise");
    let mut reactivated = 0usize;
    let mut derived = 0usize;
    for batch in &schedule {
        let report = session
            .append_facts(batch.iter().cloned())
            .expect("append failed");
        reactivated += report.reactivated_filters;
        derived += report.derived;
    }
    let last = session.materialise().expect("final materialise");
    let reach = stream::expected_reach_facts(STREAM_N, STREAM_BATCHES, STREAM_BATCH_SIZE);
    println!("{{");
    println!(
        "  \"workload\": {{ \"chain_edges\": {STREAM_N}, \"batches\": {STREAM_BATCHES}, \
         \"batch_size\": {STREAM_BATCH_SIZE}, \"expected_reach_facts\": {reach} }},"
    );
    println!("  \"incremental_ms\": {incremental:.2},");
    println!("  \"rebuild_ms\": {rebuild:.2},");
    println!("  \"speedup\": {:.2},", rebuild / incremental);
    println!(
        "  \"session\": {{ \"appends\": {}, \"appended_rows\": {}, \"base_layers\": {}, \
         \"reactivated_filters\": {reactivated}, \"derived_by_deltas\": {derived}, \
         \"asleep_skips\": {}, \"total_facts\": {} }}",
        session.appends(),
        session.appended_rows(),
        session.base_layers(),
        last.stats.asleep_skips,
        last.total_facts,
    );
    println!("}}");
}

/// The gated serve workload: `SERVE_DISTINCT` bound sources cycled
/// round-robin for `SERVE_REPEATS` rounds over the large-EDB chain — the
/// repeated-overlapping-query stream a reasoning server sees. With the
/// shared cone cache on, only the first round derives anything; every
/// later round is answered from stored cones.
const SERVE_CHAIN_N: usize = 220;
const SERVE_BULK: usize = 12_000;
const SERVE_DISTINCT: usize = 6;
const SERVE_REPEATS: usize = 8;

/// Best-of-`iters` wall-clock of the full serve stream on one session
/// (rebuilt per iteration, so the cache starts cold each time and the
/// one-off EDB build is honestly included), with the cone cache on or off.
fn time_serve(program: &Program, queries: &[Atom], cone_cache: bool, iters: usize) -> f64 {
    let reasoner = Reasoner::with_options(ReasonerOptions {
        cone_cache,
        ..Default::default()
    });
    best_of(iters, || {
        let mut session = reasoner.session(program).expect("session build failed");
        let mut answers = 0usize;
        for q in queries {
            answers += session.query(q).expect("serve query failed").answers.len();
        }
        std::hint::black_box(answers);
    })
}

/// Report cone-cache-on vs cone-cache-off wall-clock on the overlapping
/// query stream (used to record the BENCH_pr8.json ablation; the acceptance
/// bar is ≥3× with the cache on), plus the cache evidence of one
/// instrumented pass.
fn report_serve_ablation(iters: usize) {
    let program = query::chain(SERVE_CHAIN_N, SERVE_BULK);
    let queries = serve::overlapping_queries(SERVE_CHAIN_N, SERVE_DISTINCT, SERVE_REPEATS);
    let cached = time_serve(&program, &queries, true, iters);
    let uncached = time_serve(&program, &queries, false, iters);

    let mut session = Reasoner::new().session(&program).expect("session build");
    for q in &queries {
        session.query(q).expect("serve query failed");
    }
    println!("{{");
    println!(
        "  \"workload\": {{ \"chain_edges\": {SERVE_CHAIN_N}, \"bulk_rows\": {SERVE_BULK}, \
         \"distinct_sources\": {SERVE_DISTINCT}, \"repeats\": {SERVE_REPEATS}, \
         \"queries\": {} }},",
        queries.len()
    );
    println!("  \"cone_cache_ms\": {cached:.2},");
    println!("  \"no_cache_ms\": {uncached:.2},");
    println!("  \"speedup\": {:.2},", uncached / cached);
    println!(
        "  \"session\": {{ \"cone_hits\": {}, \"cone_subsumption_hits\": {}, \
         \"cone_misses\": {}, \"cone_entries\": {}, \"compile_cache_hits\": {}, \
         \"edb_builds\": {} }}",
        session.cone_cache_hits(),
        session.cone_cache_subsumption_hits(),
        session.cone_cache_misses(),
        session.cone_cache_entries(),
        session.magic_compile_cache_hits(),
        session.edb_builds(),
    );
    println!("}}");
}

/// The gated recovery workload: a chain-closure session that durably
/// appended `RECOVER_BATCHES` batches of `RECOVER_BATCH_SIZE` edges to a
/// write-ahead log, then restarts. The gated entry times the cold restart
/// end to end — open the log, verify checksums, replay every batch through
/// the layered base, answer a probe query.
const RECOVER_N: usize = 1500;
const RECOVER_BATCHES: usize = 40;
const RECOVER_BATCH_SIZE: usize = 8;

/// A scratch WAL path (plus its warm-cost sidecar) under the system temp
/// directory; both files are removed before and after use.
fn scratch_wal(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "vadalog-bench-recover-{tag}-{}",
        std::process::id()
    ))
}

fn remove_wal(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(vadalog_storage::costs_path(path));
}

/// Write the durable append schedule once (outside any timing), leaving a
/// complete log behind for the replay measurements.
fn populate_wal(program: &Program, schedule: &[Vec<Fact>], path: &std::path::Path) {
    remove_wal(path);
    let (mut session, _) = QuerySession::recover(program, ReasonerOptions::default(), path)
        .expect("session build failed");
    for batch in schedule {
        session.append_facts(batch.clone()).expect("append failed");
    }
}

/// Best-of-`iters` wall-clock of one cold recovery: replay the full log
/// over the seed EDB and answer one probe query. The log is written once
/// beforehand; every iteration replays the same bytes.
fn time_recover_replay(
    program: &Program,
    schedule: &[Vec<Fact>],
    probe: &Atom,
    parallelism: usize,
    iters: usize,
) -> f64 {
    let path = scratch_wal("replay");
    populate_wal(program, schedule, &path);
    let options = ReasonerOptions {
        parallelism,
        ..Default::default()
    };
    let t = best_of(iters, || {
        let (mut session, report) =
            QuerySession::recover(program, options, &path).expect("recovery failed");
        assert_eq!(report.batches_replayed, schedule.len(), "lost a batch");
        let answers = session.query(probe).expect("probe query failed").answers;
        std::hint::black_box(answers.len());
    });
    remove_wal(&path);
    t
}

/// Best-of-`iters` wall-clock of the live append schedule, with or without
/// a log attached — the difference is the durability premium (fsync per
/// acknowledged batch).
fn time_recover_appends(
    program: &Program,
    schedule: &[Vec<Fact>],
    probe: &Atom,
    durable: bool,
    iters: usize,
) -> f64 {
    let path = scratch_wal("appends");
    let t = best_of(iters, || {
        let mut session = if durable {
            remove_wal(&path);
            QuerySession::recover(program, ReasonerOptions::default(), &path)
                .expect("session build failed")
                .0
        } else {
            Reasoner::new()
                .session(program)
                .expect("session build failed")
        };
        for batch in schedule {
            session.append_facts(batch.clone()).expect("append failed");
        }
        let answers = session.query(probe).expect("probe query failed").answers;
        std::hint::black_box(answers.len());
    });
    remove_wal(&path);
    t
}

/// Report the recovery ablation (used to record the BENCH_pr9.json
/// numbers): cold replay wall-clock vs the from-scratch rebuild that
/// re-runs every append live, plus the durability premium of logged vs
/// unlogged appends, plus the replay evidence of one instrumented
/// recovery.
fn report_recover_ablation(iters: usize) {
    let program = recover::chain_program(RECOVER_N);
    let schedule = recover::append_batches(RECOVER_N, RECOVER_BATCHES, RECOVER_BATCH_SIZE);
    let probe = &recover::probe_queries(RECOVER_N, 4)[1];
    let replay = time_recover_replay(&program, &schedule, probe, default_parallelism(), iters);
    let durable = time_recover_appends(&program, &schedule, probe, true, iters);
    let in_memory = time_recover_appends(&program, &schedule, probe, false, iters);

    let path = scratch_wal("evidence");
    populate_wal(&program, &schedule, &path);
    let (session, report) = QuerySession::recover(&program, ReasonerOptions::default(), &path)
        .expect("recovery failed");
    println!("{{");
    println!(
        "  \"workload\": {{ \"chain_edges\": {RECOVER_N}, \"batches\": {RECOVER_BATCHES}, \
         \"batch_size\": {RECOVER_BATCH_SIZE} }},"
    );
    println!("  \"replay_ms\": {replay:.2},");
    println!("  \"durable_appends_ms\": {durable:.2},");
    println!("  \"in_memory_appends_ms\": {in_memory:.2},");
    println!(
        "  \"durability_premium\": {:.2},",
        durable / in_memory.max(f64::EPSILON)
    );
    println!(
        "  \"recovery\": {{ \"batches_replayed\": {}, \"facts_replayed\": {}, \
         \"torn_tail\": {}, \"base_layers\": {}, \"base_stamp\": {} }}",
        report.batches_replayed,
        report.facts_replayed,
        report.torn_tail.is_some(),
        session.base_layers(),
        session.base_stamp(),
    );
    println!("}}");
    remove_wal(&path);
}

/// Parse the flat `"name": ms` map out of the baseline file. Tolerates (and
/// skips) non-numeric entries such as a `"host"` annotation.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some((key, value)) = line.split_once(':') {
            let key = key.trim().trim_matches('"');
            if let Ok(v) = value.trim().parse::<f64>() {
                out.push((key.to_string(), v));
            }
        }
    }
    out
}

fn render_baseline(measured: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, t)) in measured.iter().enumerate() {
        let sep = if i + 1 == measured.len() { "" } else { "," };
        out.push_str(&format!("  \"{name}\": {t:.2}{sep}\n"));
    }
    out.push_str("}\n");
    out
}

/// Report parallel-vs-sequential wall-clock on the fig8 scaling
/// configurations (used to record BENCH_*.json numbers).
fn report_speedups(threads: usize, iters: usize) {
    let configs: Vec<(String, Program)> = vec![
        ("fig8a_dbsize/500".into(), scaling::db_size(500, 31)),
        ("fig8a_dbsize/2000".into(), scaling::db_size(2_000, 31)),
        ("fig8b_rules/100".into(), scaling::rule_blocks(1, 32)),
        ("fig8b_rules/200".into(), scaling::rule_blocks(2, 32)),
        ("fig8b_rules/500".into(), scaling::rule_blocks(5, 32)),
        ("fig8c_atoms/8".into(), scaling::atom_count(8, 300, 33)),
        ("fig8c_atoms/16".into(), scaling::atom_count(16, 300, 33)),
    ];
    println!("{{");
    for (i, (name, program)) in configs.iter().enumerate() {
        let seq = time_engine(program, 1, iters);
        let par = time_engine(program, threads, iters);
        let sep = if i + 1 == configs.len() { "" } else { "," };
        println!(
            "  \"{name}\": {{ \"sequential_ms\": {seq:.2}, \"parallel_ms\": {par:.2}, \
             \"threads\": {threads}, \"speedup\": {:.2} }}{sep}",
            seq / par
        );
    }
    println!("}}");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut write_baseline = false;
    let mut speedups = false;
    let mut range_ablation = false;
    let mut intra_ablation = false;
    let mut query_ablation = false;
    let mut hybrid_ablation = false;
    let mut ivm_ablation = false;
    let mut serve_ablation = false;
    let mut recover_ablation = false;
    let mut baseline_path = String::from("BENCH_baseline.json");
    let mut tolerance: f64 = std::env::var("VADALOG_BENCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let iters = 5;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--speedups" => speedups = true,
            "--range-ablation" => range_ablation = true,
            "--intra-ablation" => intra_ablation = true,
            "--query-ablation" => query_ablation = true,
            "--hybrid-ablation" => hybrid_ablation = true,
            "--ivm-ablation" => ivm_ablation = true,
            "--serve-ablation" => serve_ablation = true,
            "--recover-ablation" => recover_ablation = true,
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance needs a fraction, e.g. 0.25")
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if speedups {
        report_speedups(default_parallelism().max(4), iters);
        return;
    }
    if range_ablation {
        report_range_ablation(iters);
        return;
    }
    if intra_ablation {
        report_intra_ablation(iters);
        return;
    }
    if query_ablation {
        report_query_ablation(iters);
        return;
    }
    if hybrid_ablation {
        report_hybrid_ablation(iters);
        return;
    }
    if ivm_ablation {
        report_ivm_ablation(iters);
        return;
    }
    if serve_ablation {
        report_serve_ablation(iters);
        return;
    }
    if recover_ablation {
        report_recover_ablation(iters);
        return;
    }

    let mut measured = Vec::new();
    for (name, program) in workloads() {
        let t = time_engine(&program, default_parallelism(), iters);
        println!("{name}: {t:.2} ms");
        measured.push((name, t));
    }
    // The query-session workload: one session, repeated bound queries over
    // a large EDB (gated like every other entry).
    {
        let program = query::chain(QUERY_CHAIN_N, QUERY_CHAIN_BULK);
        let queries = query::bound_queries(QUERY_CHAIN_N, QUERY_CHAIN_QUERIES);
        let t = time_query_session(&program, &queries, true, iters);
        let name = "fig9_query/session_chain".to_string();
        println!("{name}: {t:.2} ms");
        measured.push((name, t));
    }
    // The streaming-append workload: incremental maintenance across layered
    // EDB promotions (gated like every other entry).
    {
        let program = stream::stream_program(STREAM_N);
        let schedule = stream::append_batches(STREAM_N, STREAM_BATCHES, STREAM_BATCH_SIZE);
        let t = time_stream(&program, &schedule, true, iters);
        let name = "fig11_stream/append".to_string();
        println!("{name}: {t:.2} ms");
        measured.push((name, t));
    }
    // The serve workload: the repeated-overlapping-query stream with the
    // shared cone derivation cache on (gated like every other entry).
    {
        let program = query::chain(SERVE_CHAIN_N, SERVE_BULK);
        let queries = serve::overlapping_queries(SERVE_CHAIN_N, SERVE_DISTINCT, SERVE_REPEATS);
        let t = time_serve(&program, &queries, true, iters);
        let name = "fig12_serve/cone_cache".to_string();
        println!("{name}: {t:.2} ms");
        measured.push((name, t));
    }
    // The recovery workload: cold WAL replay of a durable append schedule
    // (gated like every other entry).
    {
        let program = recover::chain_program(RECOVER_N);
        let schedule = recover::append_batches(RECOVER_N, RECOVER_BATCHES, RECOVER_BATCH_SIZE);
        let probe = &recover::probe_queries(RECOVER_N, 4)[1];
        let t = time_recover_replay(&program, &schedule, probe, default_parallelism(), iters);
        let name = "fig13_recover/replay".to_string();
        println!("{name}: {t:.2} ms");
        measured.push((name, t));
    }

    if write_baseline {
        std::fs::write(&baseline_path, render_baseline(&measured))
            .expect("failed to write baseline");
        println!("baseline written to {baseline_path}");
        return;
    }

    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&text);
    let mut failures = Vec::new();
    for (name, t) in &measured {
        match baseline.iter().find(|(n, _)| n == name) {
            Some((_, base)) => {
                let budget = base * (1.0 + tolerance);
                if *t > budget {
                    failures.push(format!(
                        "{name}: {t:.2} ms exceeds {budget:.2} ms \
                         (baseline {base:.2} ms + {:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
            None => failures.push(format!("{name}: missing from baseline {baseline_path}")),
        }
    }
    if failures.is_empty() {
        println!(
            "bench gate passed: {} workloads within {:.0}% of baseline",
            measured.len(),
            tolerance * 100.0
        );
    } else {
        eprintln!("bench gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
