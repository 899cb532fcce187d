//! `reason.*`: program text in, `@output` facts out.
//!
//! The end-to-end pass times `Reasoner::reason_text` and nothing else. The
//! traced pass replays the same call stage by stage through the public
//! functions `Reasoner::reason` is made of, with a span around each, and
//! checks that the staged run derived exactly what `reason_text` did.

use std::time::Instant;

use vadalog_analysis::classify;
use vadalog_chase::WardedStrategy;
use vadalog_engine::{AccessPlan, Pipeline, PipelineStats, Reasoner, RunResult};
use vadalog_parser::parse_program;
use vadalog_rewrite::prepare_for_execution;

use crate::digest::{text_digest, MultisetDigest};
use crate::report::Report;
use crate::run::{peak_rss_mb, write_trace, RunConfig};
use crate::stats::{median, Summary};
use crate::trace::{by_name, Tracer};
use crate::workload::{reason_input, Size, Workload};

/// `ReasonerOptions::default().max_iterations`; `Pipeline::new` alone would
/// leave the sweep cap unbounded.
const MAX_ITERATIONS: usize = 100_000;

/// Staged/untraced pairs of the traced pass.
fn traced_reps(size: Size) -> u64 {
    match size {
        Size::Full => 5,
        Size::Quick => 2,
    }
}

/// The deterministic counters of a run (everything in `PipelineStats` but
/// the `steals` scheduling diagnostic and the session-only fields).
pub fn counters(s: &PipelineStats) -> Vec<(&'static str, u64)> {
    vec![
        ("iterations", s.iterations as u64),
        ("sweep_batches", s.sweep_batches as u64),
        ("productive_activations", s.productive_activations as u64),
        ("facts_derived", s.facts_derived as u64),
        ("facts_suppressed", s.facts_suppressed as u64),
        ("join_probes", s.join_probes),
        ("index_probes", s.index_probes),
        ("range_probes", s.range_probes),
        ("scan_fallbacks", s.scan_fallbacks),
        ("nulls_invented", s.nulls_invented),
        ("intra_filter_chunks", s.intra_filter_chunks),
        ("wcoj_activations", s.wcoj_activations),
        ("wcoj_seeks", s.wcoj_seeks),
        ("wcoj_intersections", s.wcoj_intersections),
        ("hybrid_activations", s.hybrid_activations),
        ("hashtrie_builds", s.hashtrie_builds),
        ("hashtrie_reuses", s.hashtrie_reuses),
        ("adaptive_range_picks", s.adaptive_range_picks),
        ("asleep_skips", s.asleep_skips),
        ("strategy.admitted", s.strategy.admitted),
        ("strategy.duplicates", s.strategy.duplicates),
        ("strategy.suppressed", s.strategy.suppressed),
        ("strategy.isomorphism_checks", s.strategy.isomorphism_checks),
        (
            "strategy.pruned_by_provenance",
            s.strategy.pruned_by_provenance,
        ),
        ("strategy.stop_provenances", s.strategy.stop_provenances),
    ]
}

/// What two runs over the same text must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    total_facts: usize,
    /// Facts per output predicate.
    outputs: Vec<(String, usize)>,
    counters: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    fn of(result: &RunResult) -> Fingerprint {
        Fingerprint {
            total_facts: result.stats.total_facts,
            outputs: result
                .outputs
                .iter()
                .map(|(p, facts)| (p.as_str(), facts.len()))
                .collect(),
            counters: counters(&result.stats.pipeline),
        }
    }

    fn matches(&self, other: &Fingerprint, what: &str) -> Result<(), String> {
        if self.total_facts != other.total_facts {
            return Err(format!(
                "{what}: {} facts, reference has {}",
                other.total_facts, self.total_facts
            ));
        }
        if self.outputs != other.outputs {
            return Err(format!(
                "{what}: outputs {:?}, reference has {:?}",
                other.outputs, self.outputs
            ));
        }
        match self
            .counters
            .iter()
            .zip(&other.counters)
            .find(|(a, b)| a != b)
        {
            Some((want, got)) => Err(format!(
                "{what}: counter {} is {}, reference has {}",
                got.0, got.1, want.1
            )),
            None => Ok(()),
        }
    }
}

/// One `reason_text` call: the result (or the failure, recorded) and its wall
/// seconds.
fn reason_once(text: &str, report: &mut Report) -> Option<(RunResult, f64)> {
    let start = Instant::now();
    let outcome = Reasoner::new().reason_text(std::hint::black_box(text));
    let wall = start.elapsed().as_secs_f64();
    match outcome {
        Ok(result) => {
            report.check(Ok(()));
            Some((result, wall))
        }
        Err(e) => {
            report.check(Err(format!("reason_text failed: {e}")));
            None
        }
    }
}

pub fn run(workload: &Workload, cfg: &RunConfig) -> Report {
    let mut report = Report::default();

    // Set-up: generate the input, then the first run of a fresh process
    // (cold interner, cold allocator, cold page cache).
    let setup_start = Instant::now();
    let text = reason_input(workload.kind, cfg.size, cfg.seed);
    let generate_s = setup_start.elapsed().as_secs_f64();
    let cold = reason_once(&text, &mut report);
    report.metric("setup_s", setup_start.elapsed().as_secs_f64(), "s");
    let Some((cold, cold_s)) = cold else {
        return report;
    };

    report.pin(cfg.pin_key(workload.name, "input"), text_digest(&text));
    let mut outputs = MultisetDigest::default();
    for (predicate, facts) in &cold.outputs {
        outputs.extend(facts);
        report.pin(
            cfg.pin_key(workload.name, &format!("count/{predicate}")),
            facts.len().to_string(),
        );
    }
    report.pin(cfg.pin_key(workload.name, "outputs"), outputs.render());
    if !cold.violations.is_empty() {
        report.check(Err(format!(
            "{} constraint violations",
            cold.violations.len()
        )));
    }
    let reference = Fingerprint::of(&cold);

    if cfg.trace {
        // The raw sink relations, which the staged run is compared on (it
        // has no access to the reasoner's private output post-processing).
        let sinks: Vec<(String, usize)> = cold
            .outputs
            .keys()
            .map(|p| (p.as_str(), cold.store.facts_of(*p).len()))
            .collect();
        drop(cold);
        traced_pass(workload, cfg, &text, &reference, &sinks, &mut report);
        return report;
    }
    drop(cold);

    // Timed section: whole calls until the window closes, never fewer than
    // three per process (nine per run). Dropping the result is part of the
    // section (it is what a caller pays before the next call) but not of the
    // call's latency.
    let min_reps = match cfg.size {
        Size::Full => 3,
        Size::Quick => 2,
    };
    let mut walls = Vec::new();
    let section = Instant::now();
    while walls.len() < min_reps || section.elapsed() < cfg.window {
        let Some((result, wall)) = reason_once(&text, &mut report) else {
            break;
        };
        walls.push(wall);
        if let Err(problem) = reference.matches(&Fingerprint::of(&result), "timed repetition") {
            report.check(Err(problem));
        }
    }
    let section_s = section.elapsed().as_secs_f64();
    if walls.is_empty() {
        return report;
    }

    let calls = Summary::of(&walls);
    report.metric("op_p50_ms", calls.p50 * 1e3, "ms");
    report.metric("ops_per_s", walls.len() as f64 / section_s, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.detail("reason.samples", calls.count as f64, "count");
    report.detail("reason.min_s", calls.min, "s");
    report.detail("reason.max_s", calls.max, "s");
    report.detail("setup.generate_s", generate_s, "s");
    report.detail("setup.cold_run_s", cold_s, "s");
    report.detail("facts.total", reference.total_facts as f64, "count");
    report.detail("input.bytes", text.len() as f64, "B");
    report
}

/// Untraced `reason_text` calls alternating with staged, traced replays.
fn traced_pass(
    workload: &Workload,
    cfg: &RunConfig,
    text: &str,
    reference: &Fingerprint,
    sinks: &[(String, usize)],
    report: &mut Report,
) {
    let mut tracer = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut last_stats = PipelineStats::default();
    let mut shape = (0usize, 0usize, 0usize, 0usize);
    for op in 0..traced_reps(cfg.size) {
        let Some((result, wall)) = reason_once(text, report) else {
            return;
        };
        untraced.push(wall);
        if let Err(problem) = reference.matches(&Fingerprint::of(&result), "untraced repetition") {
            report.check(Err(problem));
        }
        drop(result);

        // The stages of `Reasoner::reason`, default options.
        tracer.enter("reason.staged", op);
        let program = tracer.span("parser.parse", op, || parse_program(text));
        let program = match program {
            Ok(p) => p,
            Err(e) => {
                tracer.exit();
                report.check(Err(format!("parse_program failed: {e}")));
                return;
            }
        };
        let fragment = tracer.span("analysis.classify", op, || classify(&program));
        let compiled = tracer.span("rewrite.prepare", op, || prepare_for_execution(&program));
        let plan = tracer.span("engine.plan.compile", op, || AccessPlan::compile(&compiled));
        let mut pipeline = tracer.span("storage.load", op, || {
            let mut pipeline = Pipeline::new(&plan, Box::new(WardedStrategy::new()))
                .with_max_iterations(MAX_ITERATIONS);
            pipeline.load_facts(compiled.facts.iter().cloned());
            pipeline
        });
        let violations = tracer.span("engine.pipeline.run", op, || pipeline.run());
        let stats = pipeline.stats();
        let (store, outputs) = tracer.span("engine.outputs", op, || {
            let store = pipeline.into_store();
            let outputs: Vec<_> = plan
                .sinks
                .iter()
                .map(|sink| (sink.as_str(), store.facts_of(*sink)))
                .collect();
            (store, outputs)
        });
        shape = (
            program.facts.len(),
            program.rules.len(),
            compiled.rules.len(),
            plan.filters.len(),
        );
        tracer.span("engine.drop_plan", op, || {
            drop((plan, compiled, program, fragment))
        });
        tracer.exit();

        // Same instance, same counters as `reason_text`.
        let staged = Fingerprint {
            total_facts: store.len(),
            outputs: reference.outputs.clone(),
            counters: counters(&stats),
        };
        report.check(reference.matches(&staged, "staged run"));
        let staged_sinks: Vec<(String, usize)> = outputs
            .iter()
            .map(|(p, facts)| (p.clone(), facts.len()))
            .collect();
        report.check(if staged_sinks == sinks && violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "staged run: sinks {staged_sinks:?}, reason_text has {sinks:?}"
            ))
        });
        last_stats = stats;
        tracer.span("teardown", op, || drop((store, outputs)));
    }

    let layers = by_name(tracer.spans());
    let total_of = |name: &str| layers.get(name).map_or(0.0, |l| median(&l.total_s));
    let staged_s = total_of("reason.staged");
    let run_s = total_of("engine.pipeline.run");
    report.metric("parser.parse_s", total_of("parser.parse"), "s");
    report.metric("storage.load_s", total_of("storage.load"), "s");
    report.metric("engine.exec_ms", run_s * 1e3, "ms");
    report.metric("outside_engine_ms", (staged_s - run_s) * 1e3, "ms");
    // Each staged replay against the untraced call that ran just before it:
    // the median of the pairs' ratios does not see the host drifting between
    // pairs.
    let ratios: Vec<f64> = layers
        .get("reason.staged")
        .map(|l| {
            l.total_s
                .iter()
                .zip(&untraced)
                .map(|(s, u)| s / u)
                .collect()
        })
        .unwrap_or_default();
    report.metric("trace.overhead_pct", (median(&ratios) - 1.0) * 100.0, "%");
    pipeline_metrics(report, &last_stats);
    for name in [
        "session.cone_hits",
        "session.cone_misses",
        "session.cone_invalidations",
        "session.compactions",
        "server.max_queue_depth",
    ] {
        report.metric(name, 0.0, "count");
    }

    report.detail("reason.untraced_s", median(&untraced), "s");
    report.detail("reason.staged_s", staged_s, "s");
    for (layer, name) in [
        ("analysis.classify", "analysis.classify_s"),
        ("rewrite.prepare", "rewrite.prepare_s"),
        ("engine.plan.compile", "engine.plan.compile_s"),
        ("engine.pipeline.run", "engine.pipeline.run_s"),
        ("engine.outputs", "engine.outputs_s"),
        ("engine.drop_plan", "engine.drop_plan_s"),
        ("teardown", "teardown_s"),
    ] {
        report.detail(name, total_of(layer), "s");
    }
    // Self time per layer as a share of the staged call: the "who owns the
    // wall" table.
    for (name, times) in &layers {
        if *name != "teardown" {
            report.detail(
                &format!("share.{name}"),
                median(&times.self_s) / staged_s * 100.0,
                "%",
            );
        }
    }
    report.detail("parser.bytes", text.len() as f64, "B");
    report.detail("parser.facts", shape.0 as f64, "count");
    report.detail("parser.rules", shape.1 as f64, "count");
    report.detail("rewrite.rules_out", shape.2 as f64, "count");
    report.detail("engine.plan.filters", shape.3 as f64, "count");
    report.detail("storage.rows_loaded", shape.0 as f64, "count");
    for (name, value) in counters(&last_stats) {
        report.detail(&format!("engine.pipeline.{name}"), value as f64, "count");
    }
    report.detail("engine.pipeline.steals", last_stats.steals as f64, "count");
    report.check(write_trace(&tracer, cfg, workload.name));
}

/// The `PipelineStats` counters and waste ratios that are per-layer metrics
/// on every workload.
pub fn pipeline_metrics(report: &mut Report, s: &PipelineStats) {
    let share = |part: f64, whole: f64| {
        if whole > 0.0 {
            part / whole * 100.0
        } else {
            0.0
        }
    };
    report.metric("engine.join_probes", s.join_probes as f64, "count");
    report.metric("engine.index_probes", s.index_probes as f64, "count");
    report.metric("engine.scan_fallbacks", s.scan_fallbacks as f64, "count");
    report.metric(
        "engine.scan_fallback_share",
        share(s.scan_fallbacks as f64, s.join_probes as f64),
        "%",
    );
    report.metric("engine.wcoj_seeks", s.wcoj_seeks as f64, "count");
    report.metric(
        "engine.hybrid_activations",
        s.hybrid_activations as f64,
        "count",
    );
    report.metric("engine.facts_derived", s.facts_derived as f64, "count");
    report.metric("engine.nulls_invented", s.nulls_invented as f64, "count");
    report.metric("chase.facts_suppressed", s.facts_suppressed as f64, "count");
    report.metric(
        "chase.suppressed_share",
        share(
            s.facts_suppressed as f64,
            (s.facts_derived + s.facts_suppressed) as f64,
        ),
        "%",
    );
}
