//! Implementation of the CLI subcommands.
//!
//! Every command renders its result into a `String` so the behaviour is
//! directly unit-testable; `main.rs` only prints the string (or the error)
//! and sets the exit code.

use crate::options::{CliCommand, CliOptions, OptionError, USAGE};
use std::fmt;
use std::fmt::Write as _;
use vadalog_analysis::{analyze_program, classify, rule_strata, PredicateGraph};
use vadalog_engine::{
    CompiledProgram, FilterNode, JoinStrategy, OutputFacts, QuerySession, Reasoner, ReasonerError,
    ReasonerOptions, RecoveryReport, RunCap, RunResult, Stage,
};
use vadalog_fault::FaultRule;
use vadalog_model::prelude::*;
use vadalog_parser::{parse_program, parse_rule, rule_to_text, ParseError};
use vadalog_storage::{write_csv_facts, FactStore, IndexStats};

/// Errors surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line arguments.
    Options(OptionError),
    /// The program file could not be read.
    Io(String, std::io::Error),
    /// The program (or the query atom) did not parse.
    Parse(ParseError),
    /// The reasoner failed.
    Reasoner(ReasonerError),
    /// The query atom was malformed (e.g. empty or not a single atom).
    BadQueryAtom(String),
    /// A `+Fact(...)` append argument was malformed or not ground.
    BadAppend(String),
    /// Writing CSV output failed.
    CsvOut(String),
    /// The `VADALOG_FAULTS` fault-injection spec did not parse.
    BadFaultSpec(String),
    /// A `VADALOG_*` engine variable held a value outside its domain.
    BadEnv {
        /// The variable.
        var: &'static str,
        /// Its value.
        value: String,
        /// What the variable accepts.
        expected: &'static str,
    },
    /// A run stopped at a cap before reaching its fixpoint: `output` is
    /// what the command rendered from the truncated instance.
    Truncated {
        /// The rendered (partial) output.
        output: String,
        /// The cap that stopped the run.
        cap: RunCap,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Options(e) => write!(f, "{e}\n\n{USAGE}"),
            CliError::Io(path, e) => write!(f, "cannot read {path}: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Reasoner(e) => write!(f, "reasoning error: {e}"),
            CliError::BadQueryAtom(m) => write!(f, "bad query atom: {m}"),
            CliError::BadAppend(m) => write!(f, "bad append: {m}"),
            CliError::CsvOut(m) => write!(f, "cannot write CSV output: {m}"),
            CliError::BadFaultSpec(m) => write!(f, "bad VADALOG_FAULTS spec: {m}"),
            CliError::BadEnv {
                var,
                value,
                expected,
            } => write!(f, "bad {var} value `{value}`: expected {expected}"),
            CliError::Truncated { cap, .. } => {
                match cap {
                    RunCap::Facts(n) => {
                        write!(f, "the run stored more than {n} facts (--max-facts)")?
                    }
                    RunCap::Iterations(n) => write!(f, "the run reached the sweep cap ({n})")?,
                }
                write!(f, " before its fixpoint: the output is truncated")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<OptionError> for CliError {
    fn from(e: OptionError) -> Self {
        CliError::Options(e)
    }
}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<ReasonerError> for CliError {
    fn from(e: ReasonerError) -> Self {
        CliError::Reasoner(e)
    }
}

/// What the `vadalog` binary takes from its environment, resolved once at
/// startup by [`resolve_env`].
#[derive(Debug)]
pub struct EnvConfig {
    /// The engine options with the `VADALOG_*` variables applied.
    pub options: ReasonerOptions,
    /// The `VADALOG_FAULTS` schedule (empty when unset), for the binary to
    /// arm for its whole lifetime.
    pub faults: Vec<FaultRule>,
}

/// Resolve the `vadalog` binary's environment on top of `base` — the one
/// place the engine's `VADALOG_*` variables are read. `lookup` returns a
/// variable's value (`main.rs` passes `std::env::var`; tests inject a map,
/// so no test mutates the process environment). An unset or blank variable
/// leaves `base` alone; any other value outside the variable's domain is a
/// typed error:
///
/// * `VADALOG_PARALLELISM` — worker count (also the intra-filter shard
///   bound), a positive integer;
/// * `VADALOG_CONE_CACHE_CAP`, `VADALOG_CONE_CACHE_BYTES` — cone-cache entry
///   cap and byte budget, non-negative integers (`0` = unbounded);
/// * `VADALOG_FAULTS` — a `vadalog_fault::parse_spec` schedule.
pub fn resolve_env(
    base: ReasonerOptions,
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<EnvConfig, CliError> {
    let var = |name: &'static str| {
        lookup(name)
            .map(|v| v.trim().to_owned())
            .filter(|v| !v.is_empty())
            .map(|v| (name, v))
    };
    let mut options = base;
    if let Some(v) = var("VADALOG_PARALLELISM") {
        options.parallelism = env_count(v, 1)?;
    }
    if let Some(v) = var("VADALOG_CONE_CACHE_CAP") {
        options.cone_cache_cap = env_count(v, 0)?;
    }
    if let Some(v) = var("VADALOG_CONE_CACHE_BYTES") {
        options.cone_cache_bytes = env_count(v, 0)?;
    }
    let faults = match var("VADALOG_FAULTS") {
        Some((_, spec)) => vadalog_fault::parse_spec(&spec).map_err(CliError::BadFaultSpec)?,
        None => Vec::new(),
    };
    Ok(EnvConfig { options, faults })
}

/// A `VADALOG_*` variable's value as a count of at least `min`.
fn env_count((var, value): (&'static str, String), min: usize) -> Result<usize, CliError> {
    match value.parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(CliError::BadEnv {
            var,
            value,
            expected: if min == 0 {
                "a non-negative integer"
            } else {
                "a positive integer"
            },
        }),
    }
}

/// Parse arguments, dispatch, return the text to print — under
/// [`ReasonerOptions::default`]. See [`run_cli_with`].
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    run_cli_with(args, ReasonerOptions::default())
}

/// The CLI with its engine options supplied: `base` is what the command
/// line's flags apply on top of. `main.rs` passes the defaults under the
/// resolved environment ([`resolve_env`]); the root `config_matrix` test
/// drives every configuration axis through here in-process.
pub fn run_cli_with(args: &[String], base: ReasonerOptions) -> Result<String, CliError> {
    let options = CliOptions::parse(args)?;
    let engine = options.reasoner_options(base);
    match &options.command {
        CliCommand::Help => Ok(USAGE.to_string()),
        CliCommand::Version => Ok(format!("vadalog {}", env!("CARGO_PKG_VERSION"))),
        CliCommand::Run => cmd_run(&options, engine),
        CliCommand::Classify => cmd_classify(&options),
        CliCommand::Explain => cmd_explain(&options, engine),
        CliCommand::Query { atoms } => cmd_query(&options, engine, atoms),
        CliCommand::Serve { atoms } => cmd_serve(&options, engine, atoms),
    }
}

fn load_program(options: &CliOptions) -> Result<Program, CliError> {
    let src = std::fs::read_to_string(&options.program_path)
        .map_err(|e| CliError::Io(options.program_path.clone(), e))?;
    Ok(parse_program(&src)?)
}

// ------------------------------------------------------------------- run

fn cmd_run(options: &CliOptions, engine: ReasonerOptions) -> Result<String, CliError> {
    let program = load_program(options)?;
    let reasoner = Reasoner::with_options(engine);
    let result = reasoner.reason(&program)?;
    let mut out = String::new();
    render_outputs(&mut out, &result, options)?;
    if options.stats {
        render_stats(&mut out, &result);
    }
    finish(out, result.stats.pipeline.capped)
}

/// A command's result: its output, or [`CliError::Truncated`] carrying it
/// when a run stopped at a cap.
fn finish(output: String, capped: Option<RunCap>) -> Result<String, CliError> {
    match capped {
        None => Ok(output),
        Some(cap) => Err(CliError::Truncated { output, cap }),
    }
}

fn selected_outputs<'r>(
    result: &'r RunResult,
    options: &'r CliOptions,
) -> impl Iterator<Item = (String, &'r OutputFacts)> + 'r {
    result
        .outputs
        .iter()
        .map(|(p, facts)| (p.as_str(), facts))
        .filter(|(p, _)| options.outputs.is_empty() || options.outputs.contains(p))
}

fn render_outputs(
    out: &mut String,
    result: &RunResult,
    options: &CliOptions,
) -> Result<(), CliError> {
    for (predicate, facts) in selected_outputs(result, options) {
        if let Some(dir) = &options.csv_dir {
            std::fs::create_dir_all(dir).map_err(|e| CliError::CsvOut(e.to_string()))?;
            let path = format!("{dir}/{predicate}.csv");
            write_csv_facts(&path, facts).map_err(|e| CliError::CsvOut(e.to_string()))?;
            let _ = writeln!(
                out,
                "% {predicate}: {} facts written to {path}",
                facts.len()
            );
        } else {
            let _ = writeln!(out, "% {predicate} ({} facts)", facts.len());
            let mut sorted: Vec<&Fact> = facts.iter().collect();
            sorted.sort();
            for f in sorted {
                let _ = writeln!(out, "{}", vadalog_parser::fact_to_text(f));
            }
        }
    }
    if !result.violations.is_empty() {
        let _ = writeln!(out, "% {} constraint violations:", result.violations.len());
        for v in &result.violations {
            let _ = writeln!(out, "%   {v}");
        }
    }
    Ok(())
}

fn render_stats(out: &mut String, result: &RunResult) {
    let stats = &result.stats;
    let _ = writeln!(out, "% --- run statistics ---");
    if let Some(fragment) = stats.fragment {
        let _ = writeln!(out, "% fragment:            {fragment}");
    }
    let _ = writeln!(out, "% compiled rules:      {}", stats.compiled_rules);
    let _ = writeln!(out, "% compile time:        {:?}", stats.compile_time);
    let _ = writeln!(out, "% load time:           {:?}", stats.load_time);
    let _ = writeln!(out, "% execution time:      {:?}", stats.execution_time);
    let _ = writeln!(out, "% total facts:         {}", stats.total_facts);
    let bytes = result.store.heap_bytes();
    let (own, base) = (bytes.own, bytes.base);
    let _ = writeln!(
        out,
        "% store bytes:         rows {} / dedup {} / indexes {} (shared base: rows {} / dedup {} / indexes {}), {:.1} B/fact",
        own.rows,
        own.dedup,
        own.indexes,
        base.rows,
        base.dedup,
        base.indexes,
        bytes.total().total() as f64 / result.store.len().max(1) as f64
    );
    render_largest_indexes(out, &result.store);
    let heap = stats.pipeline.strategy_heap;
    let _ = writeln!(
        out,
        "% strategy bytes:      facts {} / forest {} / provenance {} / patterns {}, {} total, {:.1} B/fact",
        heap.facts,
        heap.forest,
        heap.provenance,
        heap.patterns,
        stats.pipeline.strategy_bytes,
        stats.pipeline.strategy_bytes as f64 / result.store.len().max(1) as f64
    );
    let _ = writeln!(
        out,
        "% facts derived:       {}",
        stats.pipeline.facts_derived
    );
    let _ = writeln!(
        out,
        "% facts suppressed:    {}",
        stats.pipeline.facts_suppressed
    );
    let _ = writeln!(
        out,
        "% index probes:        {}",
        stats.pipeline.index_probes
    );
    let _ = writeln!(
        out,
        "% range probes:        {} (conditions pushed into the index)",
        stats.pipeline.range_probes
    );
    let _ = writeln!(
        out,
        "% scan fallbacks:      {}",
        stats.pipeline.scan_fallbacks
    );
    let _ = writeln!(
        out,
        "% join chunks:         {} (intra-filter work items over {} batches)",
        stats.pipeline.intra_filter_chunks, stats.pipeline.sweep_batches
    );
    let _ = writeln!(
        out,
        "% chunk steals:        {} (scheduling diagnostic, run-dependent)",
        stats.pipeline.steals
    );
    let _ = writeln!(
        out,
        "% peak batch matches:  {} (full matches one batch held before emission)",
        stats.pipeline.peak_batch_matches
    );
    let _ = writeln!(
        out,
        "% wcoj activations:    {} (cyclic-body activations on the leapfrog path)",
        stats.pipeline.wcoj_activations
    );
    let _ = writeln!(
        out,
        "% wcoj seeks:          {} (trie-cursor repositionings while leapfrogging)",
        stats.pipeline.wcoj_seeks
    );
    let _ = writeln!(
        out,
        "% wcoj intersections:  {} (values surviving a full per-variable intersection)",
        stats.pipeline.wcoj_intersections
    );
    let _ = writeln!(
        out,
        "% hybrid activations:  {} (activations leapfrogging only the cyclic core)",
        stats.pipeline.hybrid_activations
    );
    let _ = writeln!(
        out,
        "% edb rows reused:     {} (interned snapshot rows shared from the session base)",
        stats.pipeline.edb_rows_reused
    );
    let _ = writeln!(
        out,
        "% overlay rows:        {} (rows written into the copy-on-write overlay)",
        stats.pipeline.snapshot_overlay_rows
    );
    let _ = writeln!(
        out,
        "% base layers:         {} (most shared segments beneath the overlay)",
        stats.pipeline.base_layers
    );
    let _ = writeln!(
        out,
        "% asleep skips:        {} (quiescent filters skipped by the wake-list scheduler)",
        stats.pipeline.asleep_skips
    );
    let _ = writeln!(
        out,
        "% magic cache hits:    {} (session (predicate, adornment) compile reuse)",
        stats.pipeline.magic_compile_cache_hits
    );
    let h = &stats.pipeline.batch_width_hist;
    let _ = writeln!(
        out,
        "% batch width hist:    1:{} 2-3:{} 4-7:{} 8-15:{} 16+:{}",
        h[0], h[1], h[2], h[3], h[4]
    );
    let _ = writeln!(
        out,
        "% isomorphism checks:  {}",
        stats.pipeline.strategy.isomorphism_checks
    );
    let _ = writeln!(
        out,
        "% iso comparisons:     {}",
        stats.pipeline.iso_comparisons
    );
}

/// The `% largest indexes:` block: up to five column lists of the store by
/// heap bytes (own and shared parts summed), one line each.
fn render_largest_indexes(out: &mut String, store: &FactStore) {
    let mut lists: Vec<(Sym, Box<[usize]>, IndexStats)> = store
        .predicates()
        .into_iter()
        .filter_map(|p| Some((p, store.relation(p)?)))
        .flat_map(|(p, rel)| {
            rel.index_stats()
                .into_iter()
                .map(move |(cols, stats)| (p, cols, stats))
        })
        .collect();
    // Stable: equal sizes keep predicate order.
    lists.sort_by_key(|(_, _, stats)| std::cmp::Reverse(stats.bytes));
    if lists.is_empty() {
        let _ = writeln!(out, "% largest indexes:     none");
        return;
    }
    let _ = writeln!(out, "% largest indexes:");
    for (p, cols, stats) in lists.iter().take(5) {
        let _ = writeln!(
            out,
            "%   {} {:?} {} entries / {} keys / {}",
            p.as_str(),
            cols,
            stats.entries,
            stats.distinct_keys,
            human_bytes(stats.bytes)
        );
    }
}

/// `bytes` in decimal units with one decimal: `6.6 MB`, `12.3 kB`, `96 B`.
fn human_bytes(bytes: usize) -> String {
    match bytes {
        b if b >= 1_000_000 => format!("{:.1} MB", b as f64 / 1e6),
        b if b >= 1_000 => format!("{:.1} kB", b as f64 / 1e3),
        b => format!("{b} B"),
    }
}

// -------------------------------------------------------------- classify

fn cmd_classify(options: &CliOptions) -> Result<String, CliError> {
    let program = load_program(options)?;
    let report = classify(&program);
    let analysis = analyze_program(&program);
    let graph = PredicateGraph::build(&program);

    let mut out = String::new();
    let _ = writeln!(out, "program:    {}", options.program_path);
    let _ = writeln!(
        out,
        "rules:      {} ({} facts, {} annotations)",
        program.rules.len(),
        program.facts.len(),
        program.annotations.len()
    );
    let _ = writeln!(out, "fragment:   {}", report.primary());
    let _ = writeln!(out, "datalog:             {}", report.is_datalog);
    let _ = writeln!(out, "linear:              {}", report.is_linear);
    let _ = writeln!(out, "guarded:             {}", report.is_guarded);
    let _ = writeln!(out, "warded:              {}", report.is_warded);
    let _ = writeln!(out, "harmless warded:     {}", report.is_harmless_warded);
    let _ = writeln!(
        out,
        "weakly frontier gd.: {}",
        report.is_weakly_frontier_guarded
    );
    let _ = writeln!(
        out,
        "harmful joins:       {}",
        analysis.harmful_join_count()
    );
    let _ = writeln!(out, "recursive:           {}", graph.is_recursive());
    match rule_strata(&program) {
        Ok(strata) => {
            let _ = writeln!(out, "stratifiable:        true ({} strata)", strata.len());
        }
        Err(e) => {
            let _ = writeln!(out, "stratifiable:        false ({e})");
        }
    }
    let violations = analysis.violations();
    if violations.is_empty() {
        let _ = writeln!(out, "wardedness violations: none");
    } else {
        let _ = writeln!(out, "wardedness violations:");
        for (rule_index, messages) in violations {
            for m in messages {
                let _ = writeln!(out, "  rule {rule_index}: {m}");
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- explain

fn cmd_explain(options: &CliOptions, engine: ReasonerOptions) -> Result<String, CliError> {
    let program = load_program(options)?;
    let compiled = CompiledProgram::compile(&program, &engine)?;
    let (rewritten, plan) = (&compiled.program, &compiled.plan);
    let folds = plan.fold_stratum();
    let free_join = engine.join_strategy == JoinStrategy::FreeJoin;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- logic optimizer: {} source rules -> {} executable rules",
        program.rules.len(),
        rewritten.rules.len()
    );
    for r in &rewritten.rules {
        let _ = writeln!(out, "{}", rule_to_text(r));
    }
    let _ = writeln!(out, "\n-- reasoning access plan");
    let sources: Vec<String> = plan
        .sources
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    let sinks: Vec<String> = plan.sinks.iter().map(|s| s.as_str().to_string()).collect();
    let _ = writeln!(out, "sources: {}", sources.join(", "));
    let _ = writeln!(out, "sinks:   {}", sinks.join(", "));
    let strata: Vec<String> = plan
        .strata
        .iter()
        .map(|stratum| {
            let ids: Vec<String> = stratum
                .filters
                .iter()
                .map(|&f| plan.filters[f].rule_id.to_string())
                .collect();
            let tag = if stratum.fold { "final " } else { "" };
            format!("{tag}[{}]", ids.join(", "))
        })
        .collect();
    let _ = writeln!(out, "strata:  {}", strata.join(" "));
    let _ = writeln!(out, "filters: {}", plan.filters.len());
    for (f, filter) in plan.filters.iter().enumerate() {
        let fold = folds.contains(&f);
        let _ = writeln!(
            out,
            "  filter {} [{}{}{}]: {}",
            filter.rule_id,
            if filter.rule.is_linear() {
                "linear"
            } else {
                "join"
            },
            if filter.has_aggregation {
                ", aggregate"
            } else {
                ""
            },
            if fold { ", final" } else { "" },
            rule_to_text(&filter.rule)
        );
        // A fold-stratum filter drives from one position, picked by the
        // relation sizes after the fixpoint: each position is a candidate
        // driver, and the filter plans the lists of all of them.
        let lead = if fold { "driver" } else { "delta" };
        write_probe_orders(&mut out, filter, None, lead, free_join);
    }
    if !plan.checks.is_empty() {
        let _ = writeln!(out, "checks:  {}", plan.checks.len());
        for check in &plan.checks {
            let _ = writeln!(
                out,
                "  check {}: {}",
                check.rule_id,
                rule_to_text(&check.rule)
            );
            write_probe_orders(&mut out, check, check.check_driver(), "delta", free_join);
        }
    }
    Ok(out)
}

/// One line per delta position of `node` that an activation driving
/// `driver` runs (only that position when set: a check's driver), starting
/// with `lead`: the delta atom, then the stages the position runs
/// (`FilterNode::stages`) in order — a probe stage as its atom with the
/// columns it probes exactly (`[..]`, or `scan`), its range column and a
/// `*` when the delta-aware order moved it off its canonical position, an
/// intersect stage as `leapfrog core:` and the core's trie atoms. Then one
/// `indexes:` line: the index column lists those activations ensure, by
/// predicate in first-use order, or `none`.
fn write_probe_orders(
    out: &mut String,
    node: &FilterNode,
    driver: Option<usize>,
    lead: &str,
    free_join: bool,
) {
    let atoms = node.rule.body_atoms();
    for dp in node.driven(driver) {
        let mut line = format!("    {lead} {}", atoms[dp.steps[0].atom]);
        for stage in node.stages(dp, free_join) {
            match *stage {
                Stage::Probe(i) => {
                    let step = &dp.steps[i];
                    let cols = if step.prefix_len == 0 {
                        "scan".to_string()
                    } else {
                        format!("{:?}", step.prefix_cols())
                    };
                    let _ = write!(line, " -> {} {cols}", atoms[step.atom]);
                    if let Some(col) = step.range_col() {
                        let _ = write!(line, " range {col}");
                    }
                    if step.canonical != i {
                        line.push_str(" *");
                    }
                }
                Stage::Intersect => {
                    let core = dp.core.as_ref().expect("an intersect stage has a core");
                    let tries: Vec<String> = core
                        .tries
                        .iter()
                        .map(|t| atoms[t.atom].to_string())
                        .collect();
                    let _ = write!(line, " -> leapfrog core: {}", tries.join(", "));
                }
            }
        }
        let _ = writeln!(out, "{line}");
    }
    let mut lists: Vec<(Sym, &[usize])> = Vec::new();
    for list in node.index_lists(driver, free_join) {
        if !lists.contains(&list) {
            lists.push(list);
        }
    }
    let lists: Vec<String> = lists
        .iter()
        .map(|(predicate, cols)| format!("{} {cols:?}", predicate.as_str()))
        .collect();
    let shown = if lists.is_empty() {
        "none".to_string()
    } else {
        lists.join(", ")
    };
    let _ = writeln!(out, "    indexes: {shown}");
}

// ----------------------------------------------------------------- query

/// Parse a query atom such as `Reach("a", y)` by wrapping it into a
/// syntactically complete rule.
pub fn parse_query_atom(text: &str) -> Result<Atom, CliError> {
    let wrapped = format!("{text} -> __CliQuery__(__q__).");
    let rule = parse_rule(&wrapped).map_err(|e| CliError::BadQueryAtom(format!("{text}: {e}")))?;
    let atoms = rule.body_atoms();
    match atoms.as_slice() {
        [single] => Ok((*single).clone()),
        _ => Err(CliError::BadQueryAtom(format!(
            "expected exactly one atom, found {}",
            atoms.len()
        ))),
    }
}

/// One processed `query` argument: answer a query atom, or append a ground
/// fact to the session EDB.
enum QueryStep {
    Answer(Atom),
    Append(Fact),
}

/// Parse a `+Fact(...)` append argument into its ground fact. An atom with
/// variables is a hard error — "append this pattern" has no sound reading,
/// and before appends existed the CLI path silently dropped any post-freeze
/// EDB mutation.
fn parse_append_fact(text: &str) -> Result<Fact, CliError> {
    let body = text.strip_prefix('+').expect("append args start with `+`");
    let atom = parse_query_atom(body).map_err(|e| match e {
        CliError::BadQueryAtom(m) => CliError::BadAppend(m),
        other => other,
    })?;
    atom.to_fact().ok_or_else(|| {
        CliError::BadAppend(format!(
            "{body}: append requires a ground fact, not a pattern"
        ))
    })
}

fn cmd_query(
    options: &CliOptions,
    engine: ReasonerOptions,
    atom_texts: &[String],
) -> Result<String, CliError> {
    let program = load_program(options)?;
    // All arguments are parsed up front (a bad atom or append fails the
    // whole command before any reasoning starts), then processed in
    // command-line order on ONE query session: the program is normalised
    // and its EDB interned + indexed exactly once, every query atom runs
    // against a copy-on-write snapshot of that base, and every `+Fact(...)`
    // promotes its overlay into the base for the atoms after it.
    let steps: Vec<QueryStep> = atom_texts
        .iter()
        .map(|t| {
            if t.starts_with('+') {
                parse_append_fact(t).map(QueryStep::Append)
            } else {
                parse_query_atom(t).map(QueryStep::Answer)
            }
        })
        .collect::<Result<_, _>>()?;
    let mut out = String::new();
    let mut session = match &options.wal {
        Some(path) => {
            let (session, report) =
                QuerySession::recover(&program, engine, std::path::Path::new(path))?;
            render_recovery(&mut out, path, &report);
            session
        }
        None => Reasoner::with_options(engine).session(&program)?,
    };

    let mut answered = 0usize;
    let mut capped = None;
    for (atom_text, step) in atom_texts.iter().zip(&steps) {
        match step {
            QueryStep::Answer(query) => {
                let result = session.query(query)?;
                answered += 1;
                capped = capped.or(result.run.stats.pipeline.capped);
                let _ = writeln!(
                    out,
                    "% query {} answered {} magic sets ({} answers)",
                    atom_text,
                    if result.used_magic_sets {
                        "with"
                    } else {
                        "without"
                    },
                    result.answers.len()
                );
                let mut sorted = result.answers.clone();
                sorted.sort();
                for f in sorted {
                    let _ = writeln!(out, "{}", vadalog_parser::fact_to_text(&f));
                }
                if options.stats {
                    render_stats(&mut out, &result.run);
                }
            }
            QueryStep::Append(fact) => {
                let report = session.append_facts([fact.clone()])?;
                let _ = writeln!(
                    out,
                    "% append {} stored {} ({} duplicate, {} base layers)",
                    &atom_text[1..],
                    report.appended,
                    report.duplicates,
                    report.base_layers
                );
            }
        }
    }
    if options.stats && (answered > 1 || session.appends() > 0) {
        let _ = writeln!(out, "% --- session statistics ---");
        let _ = writeln!(out, "% queries answered:    {}", session.queries_answered());
        let _ = writeln!(out, "% edb builds:          {}", session.edb_builds());
        let _ = writeln!(
            out,
            "% base index builds:   {}",
            session.base_index_builds()
        );
        let _ = writeln!(
            out,
            "% compile cache hits:  {}",
            session.magic_compile_cache_hits()
        );
        let _ = writeln!(out, "% appends:             {}", session.appends());
        let _ = writeln!(out, "% appended rows:       {}", session.appended_rows());
        let _ = writeln!(
            out,
            "% store layers:        {} (most segments in a base relation)",
            session.base_layers()
        );
        for (pred, cols, runs) in session.layer_index_stats() {
            if runs.len() < 2 {
                continue; // a single run shows no spread
            }
            let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            let per_run: Vec<String> = runs
                .iter()
                .map(|(entries, keys)| format!("{entries}/{keys}"))
                .collect();
            let _ = writeln!(
                out,
                "% layer index:         {pred}({}) rows/keys per run: {}",
                cols.join(","),
                per_run.join(" ")
            );
        }
    }
    finish(out, capped)
}

/// Render a [`RecoveryReport`] (the `--wal` startup lines) into `out`.
fn render_recovery(out: &mut String, path: &str, report: &RecoveryReport) {
    let _ = writeln!(
        out,
        "% wal {path}: replayed {} append batches ({} facts)",
        report.batches_replayed, report.facts_replayed
    );
    if let Some(torn) = &report.torn_tail {
        let _ = writeln!(
            out,
            "% warning: torn tail truncated at byte {} ({} bytes dropped: {})",
            torn.offset, torn.dropped_bytes, torn.reason
        );
    }
}

// ----------------------------------------------------------------- serve

/// Answer the arguments through the concurrent reasoning server: every
/// atom/append becomes one request submitted up front (repeated `--repeat`
/// times), workers execute them concurrently over the shared session, and
/// responses print in submission order. With `--workers 1` the single
/// worker drains the queue FIFO, so effects are sequentially ordered like
/// `query`; with more workers the interleaving is the server's.
fn cmd_serve(
    options: &CliOptions,
    engine: ReasonerOptions,
    atom_texts: &[String],
) -> Result<String, CliError> {
    use vadalog_server::{
        depth_bucket_label, ReasoningServer, Request, Response, ServerConfig, Ticket,
        QUEUE_DEPTH_BUCKETS,
    };

    let program = load_program(options)?;
    let steps: Vec<QueryStep> = atom_texts
        .iter()
        .map(|t| {
            if t.starts_with('+') {
                parse_append_fact(t).map(QueryStep::Append)
            } else {
                parse_query_atom(t).map(QueryStep::Answer)
            }
        })
        .collect::<Result<_, _>>()?;
    let config = ServerConfig {
        workers: options.workers,
        queue_cap: options.queue_cap,
        timeout: std::time::Duration::from_millis(options.timeout_ms),
        options: engine,
        ..ServerConfig::default()
    };
    let mut out = String::new();
    let server = match &options.wal {
        Some(path) => {
            let (server, report) =
                ReasoningServer::recover(&program, config, std::path::Path::new(path))?;
            render_recovery(&mut out, path, &report);
            server
        }
        None => ReasoningServer::start(&program, config)?,
    };

    let mut submitted: Vec<(&String, Ticket)> = Vec::new();
    for _ in 0..options.repeat {
        for (text, step) in atom_texts.iter().zip(&steps) {
            let request = match step {
                QueryStep::Answer(atom) => Request::Query(atom.clone()),
                QueryStep::Append(fact) => Request::Append(vec![fact.clone()]),
            };
            submitted.push((text, server.submit(request)));
        }
    }

    for (text, ticket) in submitted {
        match ticket.recv() {
            Response::Answers {
                answers,
                used_magic_sets,
                observed_stamp,
            } => {
                let _ = writeln!(
                    out,
                    "% serve {} answered {} magic sets ({} answers, stamp {})",
                    text,
                    if used_magic_sets { "with" } else { "without" },
                    answers.len(),
                    observed_stamp
                );
                for f in &answers {
                    let _ = writeln!(out, "{}", vadalog_parser::fact_to_text(f));
                }
            }
            Response::Appended {
                appended,
                duplicates,
                stamp,
            } => {
                let _ = writeln!(
                    out,
                    "% serve append {} stored {appended} ({duplicates} duplicate, stamp {stamp})",
                    &text[1..]
                );
            }
            Response::Overloaded { queue_depth } => {
                let _ = writeln!(
                    out,
                    "% serve {text} shed: overloaded (queue depth {queue_depth})"
                );
            }
            Response::TimedOut { waited } => {
                let _ = writeln!(out, "% serve {text} shed: timed out after {waited:?}");
            }
            Response::WorkerPanicked { message } => {
                let _ = writeln!(
                    out,
                    "% serve {text} failed: worker panicked ({message}); the pool respawned"
                );
            }
            Response::ShedAtShutdown => {
                let _ = writeln!(out, "% serve {text} shed: server shut down first");
            }
            Response::Disconnected => {
                let _ = writeln!(out, "% serve {text} lost: reply channel disconnected");
            }
            Response::Error(e) => {
                let _ = writeln!(out, "% serve {text} error: {e}");
            }
        }
    }

    if options.stats {
        let stats = server.stats();
        let _ = writeln!(out, "% --- server statistics ---");
        let _ = writeln!(out, "% queries answered:    {}", stats.answered);
        let _ = writeln!(out, "% appends applied:     {}", stats.appends);
        let _ = writeln!(out, "% shed (overloaded):   {}", stats.shed_overload);
        let _ = writeln!(out, "% shed (client quota): {}", stats.shed_client_quota);
        let _ = writeln!(out, "% shed (timed out):    {}", stats.shed_timeout);
        let _ = writeln!(out, "% request errors:      {}", stats.errors);
        let _ = writeln!(
            out,
            "% worker panics:       {} ({} respawns, {} poison heals)",
            stats.worker_panics, stats.worker_respawns, stats.poison_heals
        );
        let _ = writeln!(out, "% max queue depth:     {}", stats.max_queue_depth);
        let hist: Vec<String> = (0..QUEUE_DEPTH_BUCKETS)
            .map(|i| format!("{}:{}", depth_bucket_label(i), stats.queue_depth_hist[i]))
            .collect();
        let _ = writeln!(out, "% queue depth hist:    {}", hist.join(" "));
        let _ = writeln!(out, "% cone cache hits:     {}", stats.cone_hits);
        let _ = writeln!(out, "% cone cache misses:   {}", stats.cone_misses);
        let _ = writeln!(
            out,
            "% cone invalidations:  {} (entries dropped by appends)",
            stats.cone_invalidations
        );
        let _ = writeln!(
            out,
            "% cone evictions:      {} (LRU cap/bytes budget)",
            stats.cone_evictions
        );
        let _ = writeln!(
            out,
            "% cone entries:        {} (~{} bytes)",
            stats.cone_entries, stats.cone_approx_bytes
        );
        let _ = writeln!(
            out,
            "% compile cache hits:  {} ((predicate, adornment) plan reuse)",
            stats.compile_cache_hits
        );
        let _ = writeln!(
            out,
            "% compactions:         {} (base segment merges)",
            stats.compactions
        );
        let _ = writeln!(
            out,
            "% base stamp:          {} (promoted append batches)",
            stats.base_stamp
        );
        let _ = writeln!(
            out,
            "% base layers:         {} (most segments in a base relation)",
            stats.base_layers
        );
        let _ = writeln!(
            out,
            "% wal attached:        {} (appends fsync'd before acknowledgement)",
            stats.wal_attached
        );
    }
    server.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Write a temporary program file and return its path.
    fn temp_program(name: &str, contents: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("vadalog_cli_test_{}_{}", std::process::id(), name));
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(contents.as_bytes()).unwrap();
        path.to_string_lossy().to_string()
    }

    const CONTROL_PROGRAM: &str = "\
        Own(\"acme\", \"sub\", 0.6).\n\
        Own(\"sub\", \"leaf\", 0.9).\n\
        Own(x, y, w), w > 0.5 -> Control(x, y).\n\
        Control(x, y), Control(y, z) -> Control(x, z).\n\
        @output(\"Control\").\n";

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_version() {
        assert!(run_cli(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run_cli(&args(&["version"]))
            .unwrap()
            .starts_with("vadalog "));
    }

    #[test]
    fn run_prints_output_facts() {
        let path = temp_program("run.vada", CONTROL_PROGRAM);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        assert!(out.contains("% Control (3 facts)"));
        assert!(out.contains("Control(\"acme\", \"sub\")."));
        assert!(out.contains("Control(\"acme\", \"leaf\")."));
        assert!(out.contains("% fragment:"));
        assert!(out.contains("% compile time:"));
        assert!(out.contains("% load time:"));
        assert!(out.contains("% index probes:"));
        assert!(out.contains("% range probes:"));
        assert!(out.contains("% scan fallbacks:"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_report_pushed_down_range_probes() {
        // The guarded join probes Own on (y, w>θ): the range-probe counter
        // must be non-zero and surfaced by --stats.
        let src = "Own(\"a\", \"b\", 0.6). Own(\"b\", \"c\", 0.9). Own(\"b\", \"d\", 0.1).\n\
                   Own(x, y, w), w > 0.5 -> Control(x, y).\n\
                   Control(x, y), Own(y, z, w), w > 0.5 -> Control(x, z).\n\
                   @output(\"Control\").\n";
        let path = temp_program("rangestats.vada", src);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        let probes: u64 = out
            .lines()
            .find(|l| l.starts_with("% range probes:"))
            .and_then(|l| l.split_whitespace().nth(3).and_then(|n| n.parse().ok()))
            .expect("range probe line present");
        assert!(
            probes > 0,
            "guarded join must push the condition down:\n{out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_split_the_strategy_heap_into_parts_that_sum_to_its_total() {
        // Example 7's existential rules run under Algorithm 1: every part
        // of its bookkeeping holds something.
        let src = "Company(\"HSBC\"). Company(\"HSB\"). Controls(\"HSBC\", \"HSB\").\n\
                   Company(x) -> Owns(p, s, x).\n\
                   Owns(p, s, x) -> Stock(x, s).\n\
                   Owns(p, s, x) -> PSC(x, p).\n\
                   PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
                   Stock(x, s) -> Company(x).\n\
                   @output(\"PSC\").\n";
        let path = temp_program("strategyheap.vada", src);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        let line = out
            .lines()
            .find_map(|l| l.strip_prefix("% strategy bytes:"))
            .expect("strategy bytes line present");
        let numbers: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect();
        let [facts, forest, provenance, patterns, total] = numbers[..5] else {
            panic!("five byte counts expected: {line}");
        };
        assert!(line.trim_start().starts_with("facts "), "{line}");
        assert_eq!(facts + forest + provenance + patterns, total, "{line}");
        assert!(facts > 0 && provenance > 0, "{line}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_list_the_largest_indexes_by_bytes() {
        // A triangle over 24 edges (a chain with chords): the leapfrog
        // indexes Edge on composite lists, the pendant rule probes Tag.
        let mut src = String::new();
        for i in 0..12 {
            src += &format!(
                "Edge({i}, {}). Edge({i}, {}). Tag({i}, \"t\").\n",
                i + 1,
                i + 2
            );
        }
        src += "Edge(x, y), Edge(y, z), Edge(x, z) -> Tri(x, y, z).\n\
                Tri(x, y, z), Tag(z, t) -> Tagged(x, t).\n\
                @output(\"Tagged\").\n";
        let path = temp_program("largestindexes.vada", &src);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out
            .lines()
            .skip_while(|l| *l != "% largest indexes:")
            .skip(1)
            .map_while(|l| l.strip_prefix("%   "))
            .collect();
        assert!(!lines.is_empty() && lines.len() <= 5, "{out}");
        let mut sizes = Vec::new();
        for line in &lines {
            // `Edge [0, 1] 24 entries / 24 keys / 1.2 kB`
            let (head, size) = line.rsplit_once(" / ").unwrap();
            let (value, unit) = size.split_once(' ').unwrap();
            let scale = match unit {
                "MB" => 1e6,
                "kB" => 1e3,
                "B" => 1.0,
                _ => panic!("unit in {line}"),
            };
            sizes.push(value.parse::<f64>().unwrap() * scale);
            assert!(
                head.contains(" entries / ") && head.ends_with(" keys"),
                "{line}"
            );
        }
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{lines:?}");
        let edge = lines
            .iter()
            .find(|l| l.starts_with("Edge ["))
            .expect("an Edge list");
        assert!(edge.contains(" 24 entries / "), "{edge}");

        let path = temp_program("noindexes.vada", "A(1).\nA(x) -> B(x).\n@output(\"B\").\n");
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("% largest indexes:     none\n"), "{out}");
    }

    #[test]
    fn stats_report_intra_filter_chunks_and_batch_widths() {
        // A join-heavy recursive program: --stats must surface the two-level
        // scheduler's counters (work items, steals, width histogram).
        let mut src = String::from(
            "Edge(x, y) -> Reach(x, y).\n\
             Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
             @output(\"Reach\").\n",
        );
        for i in 0..40 {
            src.push_str(&format!("Edge(\"n{i}\", \"n{}\").\n", i + 1));
        }
        let path = temp_program("chunkstats.vada", &src);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        let field = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| {
                    l[name.len()..]
                        .split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                })
                .unwrap_or_else(|| panic!("{name} line present and numeric:\n{out}"))
        };
        assert!(
            field("% join chunks:") > 0,
            "every activation runs as at least one work item:\n{out}"
        );
        // steals is present (its value is run-dependent).
        field("% chunk steals:");
        // The largest batch is the first: `Edge -> Reach` matches all 40
        // edges, and each later sweep extends the paths by one edge, with
        // one match fewer each time.
        assert_eq!(field("% peak batch matches:"), 40);
        assert!(out.contains("% batch width hist:    1:"), "{out}");
        // The transitive-closure body is acyclic: the WCOJ counters must be
        // surfaced and zero.
        assert_eq!(field("% wcoj activations:"), 0);
        assert_eq!(field("% wcoj seeks:"), 0);
        assert_eq!(field("% wcoj intersections:"), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_report_wcoj_counters_on_cyclic_bodies() {
        // A triangle body compiles to an intersect stage with no ears, and
        // --stats must surface its activation/seek/intersection counters.
        let mut src = String::from(
            "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
             @output(\"Triangle\").\n",
        );
        for (a, b) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4)] {
            src.push_str(&format!("Edge({a}, {b}).\n"));
        }
        let path = temp_program("wcojstats.vada", &src);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        let field = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| {
                    l[name.len()..]
                        .split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                })
                .unwrap_or_else(|| panic!("{name} line present and numeric:\n{out}"))
        };
        assert!(field("% wcoj activations:") > 0, "{out}");
        assert!(field("% wcoj seeks:") > 0, "{out}");
        // Four triangles: (1,2,3), (1,2,4), (1,3,4), (2,3,4).
        assert_eq!(field("% wcoj intersections:"), 4, "{out}");
        assert!(out.contains("Triangle(1, 2, 3)"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_report_hybrid_counters_on_mixed_bodies() {
        // A triangle with a pendant tail: the body compiles to binary ear
        // probes around a leapfrog over the core, and --stats must surface
        // the hybrid counters.
        let mut src = String::from(
            "Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, y, z, w).\n\
             @output(\"Lolli\").\n",
        );
        for (a, b) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4)] {
            src.push_str(&format!("Edge({a}, {b}).\n"));
        }
        src.push_str("Pend(3, 30).\nPend(4, 40).\n");
        let path = temp_program("hybridstats.vada", &src);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        let field = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| {
                    l[name.len()..]
                        .split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                })
                .unwrap_or_else(|| panic!("{name} line present and numeric:\n{out}"))
        };
        assert!(field("% hybrid activations:") > 0, "{out}");
        assert_eq!(field("% wcoj activations:"), 0, "{out}");
        assert!(out.contains("Lolli(1, 2, 3, 30)"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_filters_selected_outputs() {
        let src = format!("{CONTROL_PROGRAM}@output(\"Own\").\n");
        let path = temp_program("filter.vada", &src);
        let out = run_cli(&args(&["run", &path, "--output", "Own"])).unwrap();
        assert!(out.contains("% Own"));
        assert!(!out.contains("% Control"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_writes_csv_outputs() {
        let path = temp_program("csv.vada", CONTROL_PROGRAM);
        let dir = std::env::temp_dir().join(format!("vadalog_cli_csv_{}", std::process::id()));
        let out = run_cli(&args(&["run", &path, "--csv-out", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("facts written to"));
        let csv = std::fs::read_to_string(dir.join("Control.csv")).unwrap();
        assert!(csv.lines().count() >= 3);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classify_reports_the_fragment() {
        let path = temp_program("classify.vada", CONTROL_PROGRAM);
        let out = run_cli(&args(&["classify", &path])).unwrap();
        assert!(out.contains("fragment:   Datalog"));
        assert!(out.contains("warded:              true"));
        assert!(out.contains("recursive:           true"));
        assert!(
            out.contains("stratifiable:        true (1 strata)"),
            "{out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn classify_and_explain_show_the_strata_negation_needs() {
        let src = "E(1, 2). V(1). V(3).\n\
                   V(x), not Touched(x) -> Isolated(x).\n\
                   E(x, y) -> Touched(x).\n\
                   Isolated(x), n = mcount(x) -> Count(n).\n";
        let path = temp_program("strata.vada", src);
        let out = run_cli(&args(&["classify", &path])).unwrap();
        assert!(
            out.contains("stratifiable:        true (2 strata)"),
            "{out}"
        );
        let out = run_cli(&args(&["explain", &path])).unwrap();
        assert!(out.contains("\nstrata:  [1] [0] final [2]\n"), "{out}");
        std::fs::write(&path, "A(1). A(x), not Q(x) -> Q(x).\n").unwrap();
        let out = run_cli(&args(&["classify", &path])).unwrap();
        assert!(
            out.contains("stratifiable:        false (program is not stratifiable: predicate Q")
        );
        for command in ["run", "explain"] {
            let err = run_cli(&args(&[command, &path])).unwrap_err();
            assert!(
                matches!(err, CliError::Reasoner(ReasonerError::Unstratifiable(_))),
                "{command}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A free-join delta line lists the stages its position runs: the
    /// triangle's leapfrog core alone, the lollipop's core and then its ear
    /// probe, and none of the all-probe steps of the core atoms.
    #[test]
    fn explain_prints_the_stages_a_free_join_position_runs() {
        let path = temp_program(
            "explain_cores.vada",
            "Edge(1, 2). Edge(2, 3). Edge(1, 3). Pend(3, 30).\n\
             Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
             Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, y, z, w).\n\
             @output(\"Triangle\"). @output(\"Lolli\").",
        );
        let out = run_cli(&args(&["explain", &path])).unwrap();
        let deltas: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("    delta Edge(x, y)"))
            .collect();
        assert_eq!(
            deltas,
            [
                "    delta Edge(x, y) -> leapfrog core: Edge(x, z), Edge(y, z)",
                "    delta Edge(x, y) -> leapfrog core: Edge(x, z), Edge(y, z) -> Pend(z, w) [0]",
            ],
            "{out}"
        );
        assert!(
            out.contains(
                "    delta Pend(z, w) -> leapfrog core: Edge(x, y), Edge(x, z), Edge(y, z)\n"
            ),
            "{out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_shows_plan_and_rules() {
        let program = format!(
            "{CONTROL_PROGRAM}\
             Control(a, b), KeyPerson(a, p), PSC(y, p), b > y -> S(b, y).\n\
             Control(x, y), Own(x, y, w), n = mcount(y), n >= 1 -> Holdings(x, n).\n\
             Control(x, y), Own(y, z, w), w > 0.5, z < \"zz\" -> Deep(x, z).\n"
        );
        let path = temp_program("explain.vada", &program);
        let out = run_cli(&args(&["explain", &path])).unwrap();
        assert!(out.contains("reasoning access plan"));
        assert!(out.contains("sinks:   Control"));
        assert!(out.contains("filters: "));
        // One swept stratum, then the sink aggregate's fold stratum.
        assert!(out.contains("\nstrata:  [0, 1, 2, 4] final [3]\n"), "{out}");
        // The PSC delta probes outward: KeyPerson (sharing `p`) before
        // Control, which the join order puts first; both are marked moved.
        let psc = out
            .lines()
            .find(|l| l.trim_start().starts_with("delta PSC(y, p)"))
            .expect("a probe-order line for the PSC delta");
        assert_eq!(
            psc.trim(),
            "delta PSC(y, p) -> KeyPerson(a, p) [1] * -> Control(a, b) [0] range 1 *"
        );
        assert!(out.contains("    delta Control(x, y) -> Control(y, z) [0]\n"));
        // Two pushable ranges on the Own step: it ranges over the first in
        // body order (`w`, column 2), and `z < "zz"` stays a guard.
        assert!(
            out.contains("    delta Control(x, y) -> Own(y, z, w) [0] range 2\n"),
            "{out}"
        );
        // The sink aggregate runs in the fold stratum, driven from its
        // smallest body relation after the fixpoint, which the program
        // alone does not tell: one `driver` line per candidate driver, then
        // the union of their index lists.
        let mut holdings = out
            .lines()
            .skip_while(|l| !(l.starts_with("  filter") && l.contains("Holdings")));
        let filter = holdings.next().expect("a filter line for Holdings");
        assert!(filter.contains("[join, aggregate, final]"), "{out}");
        let probe_lines: Vec<&str> = holdings.take_while(|l| l.starts_with("    ")).collect();
        assert_eq!(
            probe_lines,
            [
                "    driver Control(x, y) -> Own(x, y, w) [0, 1]",
                "    driver Own(x, y, w) -> Control(x, y) [0, 1]",
                "    indexes: Own [0, 1], Control [0, 1]"
            ]
        );
        // Each filter names the index lists its activations ensure; a
        // filter that probes nothing says so.
        assert!(
            out.contains("    delta Own(x, y, w)\n    indexes: none\n"),
            "{out}"
        );
        assert!(
            out.contains("    delta Control(y, z) -> Control(x, y) [1]\n    indexes: Control [0], Control [1]\n"),
            "{out}"
        );
        std::fs::remove_file(&path).ok();

        // A ranged step ensures its prefix and range column as one list,
        // and no list of the prefix alone.
        let path = temp_program(
            "explain_ranged.vada",
            "Own(\"a\", \"b\", 0.7). Own(\"b\", \"c\", 0.8).\n\
             Own(x, y, w), w > 0.5 -> Control(x, y).\n\
             Control(x, y), Own(y, z, w), w > 0.5 -> Control(x, z).\n",
        );
        let out = run_cli(&args(&["explain", &path])).unwrap();
        let ranged: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("  filter 1 "))
            .skip(1)
            .collect();
        assert_eq!(
            ranged,
            [
                "    delta Control(x, y) -> Own(y, z, w) [0] range 2",
                "    delta Own(y, z, w) -> Control(x, y) [1]",
                "    indexes: Own [0, 2], Control [1]"
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_runs_nothing() {
        // A fold-stratum filter over a source that cannot be read: the plan
        // is a function of the program, so explain prints it and reads no
        // data, while run reports the source.
        let path = temp_program(
            "explain_unbound.vada",
            "@bind(\"E\", \"csv:/nonexistent/e.csv\").\n\
             E(x, y), n = mcount(y) -> Fan(x, n).\n",
        );
        let out = run_cli(&args(&["explain", &path])).unwrap();
        assert!(out.contains("\nstrata:  final [0]\n"), "{out}");
        assert!(
            out.contains("[linear, aggregate, final]: E(x, y), n = mcount(y) -> Fan(x, n).\n    driver E(x, y)\n    indexes: none\n"),
            "{out}"
        );
        let err = run_cli(&args(&["run", &path])).unwrap_err();
        assert!(
            matches!(err, CliError::Reasoner(ReasonerError::Source(_))),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_compiles_what_run_runs_under_the_same_flags() {
        // A harmful join: the rewrite turns 3 source rules into 10, and
        // `--no-rewriting` runs the 3 as written. Explain must say so.
        let path = temp_program(
            "explain_flags.vada",
            "Company(\"a\"). Company(\"b\"). Control(\"a\", \"b\").\n\
             Company(x) -> PSC(x, p).\n\
             Control(y, x), PSC(y, p) -> PSC(x, p).\n\
             PSC(x, p), PSC(y, p), x > y, w = mcount(p), w >= 1 -> StrongLink(x, y, w).\n\
             @output(\"StrongLink\").\n",
        );
        for (flags, rules) in [(&[][..], 10), (&["--no-rewriting"][..], 3)] {
            let explain = run_cli(&args(&[&["explain", &path][..], flags].concat())).unwrap();
            assert!(
                explain.starts_with(&format!(
                    "-- logic optimizer: 3 source rules -> {rules} executable rules\n"
                )),
                "{flags:?}:\n{explain}"
            );
            let run = run_cli(&args(&[&["run", &path, "--stats"][..], flags].concat())).unwrap();
            assert!(
                run.contains(&format!("% compiled rules:      {rules}\n")),
                "{flags:?}:\n{run}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_answers_through_magic_sets() {
        let path = temp_program("query.vada", CONTROL_PROGRAM);
        let out = run_cli(&args(&["query", &path, "Control(\"acme\", y)"])).unwrap();
        assert!(out.contains("with magic sets"));
        assert!(out.contains("Control(\"acme\", \"sub\")."));
        assert!(out.contains("Control(\"acme\", \"leaf\")."));
        assert!(!out.contains("Control(\"sub\", \"leaf\")."));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_session_mode_answers_many_atoms_and_reports_reuse() {
        let path = temp_program("session.vada", CONTROL_PROGRAM);
        let out = run_cli(&args(&[
            "query",
            &path,
            "Control(\"acme\", y)",
            "Control(\"sub\", y)",
            "Control(\"acme\", y)",
            "--stats",
        ]))
        .unwrap();
        // each atom gets its own answer block...
        assert_eq!(out.matches("% query Control").count(), 3);
        assert!(out.contains("Control(\"acme\", \"sub\")."));
        assert!(out.contains("Control(\"sub\", \"leaf\")."));
        // ...every run reuses the shared interned EDB snapshot...
        let reused: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("% edb rows reused:"))
            .collect();
        assert_eq!(reused.len(), 3);
        assert!(
            reused.iter().all(|l| l.contains("reused:     2 ")),
            "all three runs must reuse the 2 EDB rows:\n{out}"
        );
        // ...and the session block proves one EDB build + compile reuse.
        assert!(out.contains("% queries answered:    3"), "{out}");
        assert!(out.contains("% edb builds:          1"), "{out}");
        // all three atoms share the (Control, bf) adornment: one compile,
        // two cache hits
        assert!(out.contains("% compile cache hits:  2"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_report_snapshot_and_magic_cache_counters() {
        // --stats surfaces the snapshot counters on every run: `run` is a
        // one-shot session, so its run reads the EDB from the base too.
        let path = temp_program("snapstats.vada", CONTROL_PROGRAM);
        let out = run_cli(&args(&["run", &path, "--stats"])).unwrap();
        let field = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| {
                    l[name.len()..]
                        .split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                })
                .unwrap_or_else(|| panic!("{name} line present and numeric:\n{out}"))
        };
        assert_eq!(
            field("% edb rows reused:"),
            2,
            "both Own rows are in the base"
        );
        assert!(
            field("% overlay rows:") > 0,
            "derived rows are overlay-owned"
        );
        assert_eq!(field("% base layers:"), 1, "a fresh base is one segment");
        assert!(
            !out.contains("% load time:           0ns"),
            "load time is the EDB intern and freeze:\n{out}"
        );
        assert_eq!(field("% magic cache hits:"), 0);
        std::fs::remove_file(&path).ok();

        // A session query run reports genuine reuse through the same lines.
        let path = temp_program("snapstats2.vada", CONTROL_PROGRAM);
        let out = run_cli(&args(&["query", &path, "Control(\"acme\", y)", "--stats"])).unwrap();
        let reused: u64 = out
            .lines()
            .find(|l| l.starts_with("% edb rows reused:"))
            .and_then(|l| l.split_whitespace().nth(4).and_then(|n| n.parse().ok()))
            .expect("edb rows reused line present");
        assert_eq!(reused, 2, "the session base holds both Own rows:\n{out}");
        std::fs::remove_file(&path).ok();
    }

    const CHAIN_PROGRAM: &str = "\
        Edge(\"n0\", \"n1\").\n\
        Edge(\"n1\", \"n2\").\n\
        Edge(x, y) -> Reach(x, y).\n\
        Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
        @output(\"Reach\").\n";

    #[test]
    fn query_appends_take_effect_in_command_line_order() {
        let path = temp_program("append.vada", CHAIN_PROGRAM);
        let out = run_cli(&args(&[
            "query",
            &path,
            "Reach(\"n0\", y)",
            "+Edge(\"n2\", \"n3\")",
            "+Edge(\"n2\", \"n3\")",
            "Reach(\"n0\", y)",
            "--stats",
        ]))
        .unwrap();
        // before the append n3 is unreachable, after it it is reachable —
        // the pre-PR7 session silently dropped post-freeze EDB mutations.
        let (before, after) = out.split_once("% append").expect("append line present");
        assert!(before.contains("(2 answers)"), "{out}");
        assert!(!before.contains("Reach(\"n0\", \"n3\")."), "{out}");
        assert!(after.contains("(3 answers)"), "{out}");
        assert!(after.contains("Reach(\"n0\", \"n3\")."), "{out}");
        // the duplicate second append stores nothing
        // (the appended row's segment merges into the two-row one: 2 <= 2 * 1)
        assert!(
            after.starts_with(" Edge(\"n2\", \"n3\") stored 1 (0 duplicate, 1 base layers)\n"),
            "{out}"
        );
        assert!(
            after.contains("Edge(\"n2\", \"n3\") stored 0 (1 duplicate, 1 base layers)\n"),
            "{out}"
        );
        // the session block surfaces the segment counters (the duplicate
        // append promoted nothing, so one append sticks)
        assert!(out.contains("% appends:             1"), "{out}");
        assert!(out.contains("% appended rows:       1"), "{out}");
        assert!(out.contains("% store layers:        1"), "{out}");
        assert!(!out.contains("reactivations"), "{out}");
        // the post-append run reads the merged segment
        assert!(out.contains("% base layers:         1"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_appends_reject_patterns_and_bad_facts() {
        // Regression (satellite): a non-ground append must be a hard error,
        // not a silent no-op.
        let path = temp_program("badappend.vada", CHAIN_PROGRAM);
        let err = run_cli(&args(&[
            "query",
            &path,
            "Reach(\"n0\", y)",
            "+Edge(\"n2\", z)",
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::BadAppend(m) if m.contains("ground")),
            "{err:?}"
        );
        let err = run_cli(&args(&[
            "query",
            &path,
            "Reach(\"n0\", y)",
            "+not an atom (",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::BadAppend(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_wal_appends_survive_a_restart() {
        let path = temp_program("walquery.vada", CHAIN_PROGRAM);
        let wal = std::env::temp_dir().join(format!("vadalog_cli_wal_{}", std::process::id()));
        let wal = wal.to_string_lossy().to_string();
        let stale = format!("{wal}.costs");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&stale).ok();
        // First incarnation: append an edge and see it.
        let out = run_cli(&args(&[
            "query",
            &path,
            "+Edge(\"n2\", \"n3\")",
            "Reach(\"n0\", y)",
            "--wal",
            &wal,
        ]))
        .unwrap();
        assert!(out.contains("replayed 0 append batches"), "{out}");
        assert!(out.contains("(3 answers)"), "{out}");
        // Second incarnation: the append replays from the log, and the
        // log is the only file written beside the program.
        let restarted =
            run_cli(&args(&["query", &path, "Reach(\"n0\", y)", "--wal", &wal])).unwrap();
        assert!(
            restarted.contains("replayed 1 append batches (1 facts)"),
            "{restarted}"
        );
        assert!(restarted.contains("(3 answers)"), "{restarted}");
        assert!(restarted.contains("Reach(\"n0\", \"n3\")."), "{restarted}");
        assert!(!std::path::Path::new(&stale).exists());
        // Upgrade path: a cost sidecar an older build left beside the log
        // is ignored — recovery succeeds with the same answers and says
        // nothing about it.
        std::fs::write(&stale, b"\x00garbage from an older build").unwrap();
        let upgraded =
            run_cli(&args(&["query", &path, "Reach(\"n0\", y)", "--wal", &wal])).unwrap();
        assert!(!upgraded.contains("warm"), "{upgraded}");
        assert!(!upgraded.contains("sidecar"), "{upgraded}");
        assert_eq!(upgraded, restarted);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&stale).ok();
    }

    #[test]
    fn serve_wal_reports_durability_in_stats() {
        let path = temp_program("walserve.vada", CHAIN_PROGRAM);
        let wal = std::env::temp_dir().join(format!("vadalog_cli_walsrv_{}", std::process::id()));
        let wal = wal.to_string_lossy().to_string();
        std::fs::remove_file(&wal).ok();
        let out = run_cli(&args(&[
            "serve",
            &path,
            "+Edge(\"n2\", \"n3\")",
            "Reach(\"n0\", y)",
            "--workers",
            "1",
            "--wal",
            &wal,
            "--stats",
        ]))
        .unwrap();
        assert!(out.contains("replayed 0 append batches"), "{out}");
        assert!(out.contains("% wal attached:        true"), "{out}");
        assert!(
            out.contains("% worker panics:       0 (0 respawns"),
            "{out}"
        );
        assert!(out.contains("% shed (client quota): 0"), "{out}");
        // The restarted server replays the durable append.
        let out = run_cli(&args(&[
            "serve",
            &path,
            "Reach(\"n0\", y)",
            "--workers",
            "1",
            "--wal",
            &wal,
        ]))
        .unwrap();
        assert!(out.contains("replayed 1 append batches"), "{out}");
        assert!(out.contains("(3 answers, stamp 1)"), "{out}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn serve_answers_repeats_through_the_cone_cache() {
        let path = temp_program("serve.vada", CHAIN_PROGRAM);
        let out = run_cli(&args(&[
            "serve",
            &path,
            "Reach(\"n0\", y)",
            "--workers",
            "2",
            "--repeat",
            "3",
            "--stats",
        ]))
        .unwrap();
        // three rounds of the same query, all answered with magic sets
        assert_eq!(
            out.matches("% serve Reach(\"n0\", y) answered with magic sets (2 answers")
                .count(),
            3,
            "{out}"
        );
        assert!(out.contains("Reach(\"n0\", \"n1\")."), "{out}");
        assert!(out.contains("Reach(\"n0\", \"n2\")."), "{out}");
        // The server statistics prove the cone cache answered the repeats.
        // With two workers the first two rounds may race before the first
        // entry is published, so accept one or two misses — but every round
        // is accounted for and at least one repeat must hit.
        assert!(out.contains("% queries answered:    3"), "{out}");
        let stat = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| {
                    l[name.len()..]
                        .split_whitespace()
                        .next()
                        .and_then(|n| n.parse().ok())
                })
                .unwrap_or_else(|| panic!("{name} line present and numeric:\n{out}"))
        };
        let (hits, misses) = (stat("% cone cache hits:"), stat("% cone cache misses:"));
        assert_eq!(hits + misses, 3, "{out}");
        assert!(hits >= 1, "repeats must reuse the cone cache:\n{out}");
        assert!(out.contains("% queue depth hist:    0:"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_single_worker_orders_appends_like_query() {
        // One worker drains FIFO: the append lands between the two queries,
        // so the second answer sees the appended edge and a later stamp.
        let path = temp_program("serveappend.vada", CHAIN_PROGRAM);
        let out = run_cli(&args(&[
            "serve",
            &path,
            "Reach(\"n0\", y)",
            "+Edge(\"n2\", \"n3\")",
            "Reach(\"n0\", y)",
            "--workers",
            "1",
            "--stats",
        ]))
        .unwrap();
        let (before, after) = out.split_once("% serve append").expect("append line");
        assert!(before.contains("(2 answers, stamp 0)"), "{out}");
        assert!(after.starts_with(" Edge(\"n2\", \"n3\") stored 1 (0 duplicate, stamp 1)"));
        assert!(after.contains("(3 answers, stamp 1)"), "{out}");
        assert!(after.contains("Reach(\"n0\", \"n3\")."), "{out}");
        // the append invalidated the first query's cone entry
        assert!(out.contains("% cone invalidations:  1"), "{out}");
        assert!(out.contains("% base stamp:          1"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_zero_queue_cap_sheds_requests() {
        let path = temp_program("serveshed.vada", CHAIN_PROGRAM);
        let out = run_cli(&args(&[
            "serve",
            &path,
            "Reach(\"n0\", y)",
            "--queue-cap",
            "0",
            "--stats",
        ]))
        .unwrap();
        assert!(out.contains("shed: overloaded (queue depth 0)"), "{out}");
        assert!(out.contains("% shed (overloaded):   1"), "{out}");
        assert!(out.contains("% queries answered:    0"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_query_atoms_are_rejected() {
        let path = temp_program("badquery.vada", CONTROL_PROGRAM);
        let err = run_cli(&args(&["query", &path, "not an atom ("])).unwrap_err();
        assert!(matches!(err, CliError::BadQueryAtom(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_are_reported() {
        let err = run_cli(&args(&["run", "/nonexistent/path.vada"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_, _)));
    }

    #[test]
    fn parse_errors_are_reported() {
        let path = temp_program("broken.vada", "Own(x y) -> Control.");
        let err = run_cli(&args(&["run", &path])).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn i64_min_round_trips_through_run_and_its_magnitude_alone_is_a_parse_error() {
        let src = "P(-9223372036854775808). P(9223372036854775807).\n\
                   P(x) -> Q(x).\n\
                   @output(\"Q\").";
        let path = temp_program("i64_bounds.vada", src);
        let out = run_cli(&args(&["run", &path])).unwrap();
        assert!(out.contains("Q(-9223372036854775808)."), "{out}");
        assert!(out.contains("Q(9223372036854775807)."), "{out}");
        std::fs::remove_file(&path).ok();

        let path = temp_program("i64_overflow.vada", "P(1).\nP(9223372036854775808).");
        let err = run_cli(&args(&["run", &path])).unwrap_err();
        let CliError::Parse(parse) = &err else {
            panic!("expected a parse error, got {err}");
        };
        assert_eq!((parse.line, parse.column), (2, 3));
        assert!(parse
            .message
            .contains("invalid integer literal 9223372036854775808"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_aggregate_inside_a_larger_expression_is_a_parse_error() {
        let src = "P(1, \"a\"). P(1, \"b\"). P(2, \"c\").\n\
                   P(x, y), w = mcount(y) * 10 -> Q(x, w).\n\
                   @output(\"Q\").";
        let path = temp_program("nested_aggregate.vada", src);
        let err = run_cli(&args(&["run", &path])).unwrap_err();
        let CliError::Parse(parse) = &err else {
            panic!("expected a parse error, got {err}");
        };
        assert_eq!(
            parse.kind,
            vadalog_parser::ParseErrorKind::MisplacedAggregate {
                rule: "P(x, y), w = (mcount(y) * 10) -> Q(x, w)".to_string()
            }
        );
        assert_eq!(parse.line, 2);
        assert!(err.to_string().contains("w = (mcount(y) * 10)"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_answers_equal_run_answers_when_a_derived_predicate_has_facts() {
        // `Edge` is both stored and derived (by a rule that never fires):
        // the magic rewrite must still read its stored rows.
        let src = "Edge(0, 1). Edge(1, 2). Edge(2, 3). Edge(3, 0).\n\
                   Triangle(x, y, z) -> Edge(z, x).\n\
                   Edge(x, y) -> Reach(x, y).\n\
                   Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
                   @output(\"Reach\").";
        let path = temp_program("stored_and_derived.vada", src);
        let run = run_cli(&args(&["run", &path])).unwrap();
        let query = run_cli(&args(&["query", &path, "Reach(0, y)"])).unwrap();
        assert!(query.contains("with magic sets (4 answers)"), "{query}");
        for y in 0..4 {
            let fact = format!("Reach(0, {y}).");
            assert!(run.contains(&fact), "{run}");
            assert!(query.contains(&fact), "{query}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn require_warded_rejects_unsupported_programs() {
        let src =
            "A(x) -> B(x, n).\nC(x) -> D(x, m).\nB(x, n), D(x, m) -> E(n, m).\n@output(\"E\").";
        let path = temp_program("beyond.vada", src);
        let err = run_cli(&args(&["run", &path, "--require-warded"])).unwrap_err();
        assert!(matches!(err, CliError::Reasoner(_)));
        std::fs::remove_file(&path).ok();
    }

    /// [`resolve_env`] over a fixed variable map, recording every name it
    /// looks up.
    fn resolve(vars: &[(&str, &str)]) -> (Result<EnvConfig, CliError>, Vec<String>) {
        let asked = std::cell::RefCell::new(Vec::new());
        let result = resolve_env(ReasonerOptions::default(), |name| {
            asked.borrow_mut().push(name.to_owned());
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        });
        (result, asked.into_inner())
    }

    #[test]
    fn env_resolver_applies_the_engine_variables() {
        let defaults = ReasonerOptions::default();
        let (env, asked) = resolve(&[]);
        let env = env.unwrap();
        assert_eq!(env.options.parallelism, defaults.parallelism);
        assert_eq!(env.options.cone_cache_cap, defaults.cone_cache_cap);
        assert!(env.faults.is_empty());
        // Exactly the four surviving variables are read.
        assert_eq!(
            asked,
            [
                "VADALOG_PARALLELISM",
                "VADALOG_CONE_CACHE_CAP",
                "VADALOG_CONE_CACHE_BYTES",
                "VADALOG_FAULTS"
            ]
        );

        // Retired variables are ignored, whatever they hold.
        let (env, _) = resolve(&[
            ("VADALOG_PARALLELISM", " 3 "),
            ("VADALOG_CONE_CACHE_CAP", "0"),
            ("VADALOG_CONE_CACHE_BYTES", "4096"),
            ("VADALOG_FAULTS", "wal.fsync@1=error"),
            ("VADALOG_IVM", "0"),
            ("VADALOG_COMPACT_LAYERS", "1.5"),
        ]);
        let env = env.unwrap();
        assert_eq!(env.options.parallelism, 3);
        assert_eq!(env.options.cone_cache_cap, 0);
        assert_eq!(env.options.cone_cache_bytes, 4096);
        assert_eq!(env.faults.len(), 1);
        assert_eq!(env.faults[0].point, "wal.fsync");
        // Blank = unset.
        let (env, _) = resolve(&[
            ("VADALOG_CONE_CACHE_CAP", ""),
            ("VADALOG_CONE_CACHE_BYTES", " "),
        ]);
        let env = env.unwrap();
        assert_eq!(env.options.cone_cache_cap, defaults.cone_cache_cap);
        assert_eq!(env.options.cone_cache_bytes, defaults.cone_cache_bytes);
    }

    #[test]
    fn env_resolver_rejects_malformed_values() {
        for (var, value) in [
            ("VADALOG_PARALLELISM", "abc"),
            ("VADALOG_PARALLELISM", "0"),
            ("VADALOG_CONE_CACHE_CAP", "lots"),
            ("VADALOG_CONE_CACHE_BYTES", "-1"),
        ] {
            match resolve(&[(var, value)]).0 {
                Err(CliError::BadEnv {
                    var: v, value: got, ..
                }) => {
                    assert_eq!((v, got.as_str()), (var, value));
                }
                other => panic!("{var}={value} must be rejected, got {other:?}"),
            }
        }
        let err = resolve(&[("VADALOG_FAULTS", "nonsense")]).0.unwrap_err();
        assert!(matches!(err, CliError::BadFaultSpec(_)), "{err:?}");
        let err = resolve(&[("VADALOG_PARALLELISM", "abc")]).0.unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad VADALOG_PARALLELISM value `abc`: expected a positive integer"
        );
    }

    #[test]
    fn query_atom_parser_accepts_constants_and_vars() {
        let atom = parse_query_atom("Reach(\"a\", y)").unwrap();
        assert_eq!(atom.predicate.as_str(), "Reach");
        assert_eq!(atom.arity(), 2);
        assert!(atom.terms[0].is_const());
        assert!(atom.terms[1].is_var());
    }
}
