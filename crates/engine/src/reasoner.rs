//! The public [`Reasoner`] facade: parse → analyse → rewrite → compile →
//! execute → post-process, end to end.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use vadalog_analysis::{classify, Fragment};
use vadalog_chase::{ExactDedupStrategy, TerminationStrategy, TrivialIsoStrategy, WardedStrategy};
use vadalog_model::prelude::*;
use vadalog_parser::{parse_program, ParseError};
use vadalog_rewrite::prepare_rules;
use vadalog_storage::read_csv_facts;

use crate::pipeline::{Pipeline, PipelineStats};
use crate::plan::AccessPlan;

/// Which termination strategy the reasoner wraps around its filters.
///
/// The kind only matters when a run can hold a labelled null: a program
/// whose rules invent none, over data that holds none, is admitted by the
/// store's exact-duplicate test under every kind (see [`crate::pipeline`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TerminationKind {
    /// Algorithm 1 (warded forest + lifted linear forest). The default.
    Warded,
    /// The §6.6 baseline: exhaustive isomorphism checks over all facts.
    TrivialIso,
    /// Exact duplicate elimination only (terminates only on finite chases).
    ExactDedup,
}

/// Reasoner configuration: the one place the execution knobs live. A
/// [`Pipeline`] holds a copy ([`Pipeline::with_options`]), a
/// [`crate::QuerySession`] and the reasoning server hand theirs down.
/// [`ReasonerOptions::default`] is constants plus
/// [`std::thread::available_parallelism`]; no library crate reads the
/// environment — the `vadalog` binary resolves its `VADALOG_*` variables on
/// top of the defaults (`docs/CLI.md`).
#[derive(Clone, Copy, Debug)]
pub struct ReasonerOptions {
    /// Termination strategy.
    pub termination: TerminationKind,
    /// Apply the logic optimizer + harmful-join elimination before compiling.
    pub apply_rewriting: bool,
    /// Worker threads for the parallel filter sweep (1 = fully sequential).
    /// Parallelism only accelerates the read-only join phase of each sweep
    /// batch. Default [`crate::pipeline::default_parallelism`].
    ///
    /// The worker count is also the intra-filter shard bound: with more
    /// than one worker, one filter's delta window is split into at most
    /// this many contiguous chunks per activation, so a batch dominated by
    /// a single join-heavy filter still loads every worker. The final
    /// instance — and every statistic except the chunk-layout diagnostics
    /// and the scheduling diagnostic [`crate::PipelineStats::steals`] — is
    /// bit-identical at every setting.
    pub parallelism: usize,
    /// How rule bodies with a cyclic core (joins whose hypergraph fails the
    /// GYO acyclicity test) are executed: the free-join plan that leapfrogs
    /// the core between binary ear probes (the default), or binary probe
    /// joins everywhere — the reference the property suites compare
    /// against. Acyclic bodies always run binary joins. The final instance
    /// is bit-identical at either setting.
    pub join_strategy: crate::pipeline::JoinStrategy,
    /// Cap on round-robin sweeps (safety valve for unsupported programs).
    pub max_iterations: usize,
    /// Cap on stored facts.
    pub max_facts: usize,
    /// Reject programs outside Warded Datalog± instead of running them
    /// best-effort under the iteration cap.
    pub require_warded: bool,
    /// Drop facts containing labelled nulls from the outputs (certain-answer
    /// post-processing, the paper's `@post` directive).
    pub certain_answers_only: bool,
    /// Cap on the number of entries the shared cone cache retains
    /// (0 = unbounded; default 1024). Past the cap the least-recently-hit
    /// entry is evicted — the monotonic-growth guard of a long-lived
    /// reasoning server. Eviction only ever costs re-derivation; answers
    /// are identical at every setting.
    pub cone_cache_cap: usize,
    /// Approximate-bytes budget of the shared cone cache (0 = unbounded;
    /// default 64 MiB). Sizes are estimated from cached answer and output
    /// rows; eviction is LRU, same as the entry cap.
    pub cone_cache_bytes: usize,
    /// Merge a session relation's base layer chain back into one plain
    /// snapshot whenever an append pushes it past this many layers
    /// (0 disables compaction; default 16). Compaction preserves rows and
    /// `FactId`s exactly, so results are bit-identical across compaction
    /// points.
    pub compact_layers: usize,
}

impl Default for ReasonerOptions {
    fn default() -> Self {
        ReasonerOptions {
            termination: TerminationKind::Warded,
            apply_rewriting: true,
            parallelism: crate::pipeline::default_parallelism(),
            join_strategy: crate::pipeline::JoinStrategy::default(),
            max_iterations: 100_000,
            max_facts: 20_000_000,
            require_warded: false,
            certain_answers_only: false,
            cone_cache_cap: 1024,
            cone_cache_bytes: 64 * 1024 * 1024,
            compact_layers: 16,
        }
    }
}

/// Errors raised by the reasoner.
#[derive(Debug)]
pub enum ReasonerError {
    /// The program text did not parse.
    Parse(ParseError),
    /// The program is outside the supported fragment and `require_warded`
    /// was set.
    Unsupported {
        /// The fragment the classifier assigned.
        fragment: Fragment,
    },
    /// An external source referenced by `@bind` could not be read.
    Source(String),
    /// A fact handed to `QuerySession::append_facts` (or the CLI's
    /// `+Fact(...)` append syntax) was not a ground atom — appends mutate
    /// the EDB and must not contain variables.
    NonGroundAppend {
        /// Rendering of the offending atom.
        atom: String,
    },
    /// The session's write-ahead log could not be written or replayed. When
    /// this is returned from `QuerySession::append_facts` the append was
    /// **not** applied: the in-memory base, strategy template and caches are
    /// exactly as before the call.
    Wal(vadalog_storage::WalError),
}

impl std::fmt::Display for ReasonerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReasonerError::Parse(e) => write!(f, "{e}"),
            ReasonerError::Unsupported { fragment } => {
                write!(
                    f,
                    "program is outside Warded Datalog± (classified as {fragment})"
                )
            }
            ReasonerError::Source(m) => write!(f, "source error: {m}"),
            ReasonerError::NonGroundAppend { atom } => {
                write!(f, "append requires a ground fact, got `{atom}`")
            }
            ReasonerError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReasonerError {}

impl From<ParseError> for ReasonerError {
    fn from(e: ParseError) -> Self {
        ReasonerError::Parse(e)
    }
}

/// Statistics of one reasoning run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock time spent rewriting and compiling.
    pub compile_time: Duration,
    /// Wall-clock time spent interning and loading the extensional
    /// database (inline facts and `@bind` sources). Zero for session runs,
    /// whose EDB was loaded once when the session opened.
    pub load_time: Duration,
    /// Wall-clock time spent executing the pipeline.
    pub execution_time: Duration,
    /// Number of rules after rewriting.
    pub compiled_rules: usize,
    /// Fragment the input program was classified into.
    pub fragment: Option<Fragment>,
    /// Pipeline-level statistics.
    pub pipeline: PipelineStats,
    /// Number of facts in the final instance.
    pub total_facts: usize,
    /// The session base layer stamp this run observed
    /// ([`vadalog_storage::StoreBase::stamp`] at snapshot time): the exact
    /// append prefix the answers reflect. Always 0 for plain (non-session)
    /// runs, whose EDB is their own. The reasoning server tags every
    /// response with it so concurrent read/append interleavings can be
    /// checked against a fresh session on the same prefix.
    pub base_stamp: u64,
}

/// The result of a reasoning run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Output facts per `@output` predicate (post-processed).
    pub outputs: BTreeMap<Sym, Vec<Fact>>,
    /// The full final instance.
    pub store: vadalog_storage::FactStore,
    /// Violated constraints / EGDs.
    pub violations: Vec<String>,
    /// Run statistics.
    pub stats: RunStats,
}

impl RunResult {
    /// Output facts of one predicate (empty if it is not an output or has no
    /// facts).
    pub fn output(&self, predicate: &str) -> Vec<Fact> {
        self.outputs
            .get(&intern(predicate))
            .cloned()
            .unwrap_or_default()
    }

    /// All facts of one predicate in the final instance (outputs or not).
    pub fn facts_of(&self, predicate: &str) -> Vec<Fact> {
        self.store.facts_of(intern(predicate))
    }
}

/// The Vadalog reasoner.
#[derive(Clone, Debug, Default)]
pub struct Reasoner {
    options: ReasonerOptions,
}

impl Reasoner {
    /// A reasoner with default options (warded termination strategy,
    /// rewriting enabled).
    pub fn new() -> Self {
        Reasoner {
            options: ReasonerOptions::default(),
        }
    }

    /// A reasoner with explicit options.
    pub fn with_options(options: ReasonerOptions) -> Self {
        Reasoner { options }
    }

    /// Current options (for tweaking via struct update syntax).
    pub fn options(&self) -> &ReasonerOptions {
        &self.options
    }

    /// Parse and run a program given as text.
    pub fn reason_text(&self, src: &str) -> Result<RunResult, ReasonerError> {
        let program = parse_program(src)?;
        self.reason(&program)
    }

    /// Run a parsed program.
    pub fn reason(&self, program: &Program) -> Result<RunResult, ReasonerError> {
        self.reason_with_edb(program, &[])
    }

    /// Run `program` over its own facts followed by `extra_edb` (a query
    /// run's magic program carries only the seed; the EDB stays in the
    /// source program). Neither is copied: the rewrites see rules and
    /// annotations only, and the loader reads the facts where they are.
    fn reason_with_edb(
        &self,
        program: &Program,
        extra_edb: &[Fact],
    ) -> Result<RunResult, ReasonerError> {
        let compile_start = Instant::now();

        let report = classify(program);
        if self.options.require_warded && !report.is_supported() {
            return Err(ReasonerError::Unsupported {
                fragment: report.primary(),
            });
        }

        // Step 1: logic optimizer (+ harmful-join elimination).
        let rewritten;
        let compiled = if self.options.apply_rewriting {
            rewritten = prepare_rules(program);
            &rewritten
        } else {
            program
        };

        // Steps 2-4: access plan + executable pipeline.
        let plan = AccessPlan::compile(compiled);
        let strategy = make_strategy(self.options.termination);
        let mut pipeline = Pipeline::new(&plan, strategy).with_options(&self.options);
        let compile_time = compile_start.elapsed();

        // Load the extensional database: inline facts + @bind CSV sources.
        let load_start = Instant::now();
        pipeline.load_facts(program.facts.iter().chain(extra_edb));
        pipeline.load_facts(load_bound_facts(compiled)?);
        let load_time = load_start.elapsed();

        // Execute.
        let exec_start = Instant::now();
        let violations = pipeline.run();
        let execution_time = exec_start.elapsed();

        // Collect and post-process outputs.
        let pipeline_stats = pipeline.stats();
        let store = pipeline.into_store();
        let outputs = collect_outputs(compiled, &plan, &store, &self.options);

        Ok(RunResult {
            outputs,
            violations,
            stats: RunStats {
                compile_time,
                load_time,
                execution_time,
                compiled_rules: compiled.rules.len(),
                fragment: Some(report.primary()),
                pipeline: pipeline_stats,
                total_facts: store.len(),
                base_stamp: 0,
            },
            store,
        })
    }
}

/// The result of a query-driven reasoning run (see [`Reasoner::reason_query`]).
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The facts of the query predicate that match the query atom (bound
    /// positions agree with the query constants).
    pub answers: Vec<Fact>,
    /// Whether the magic-sets transformation was applied.
    pub used_magic_sets: bool,
    /// The underlying run result (instance, violations, statistics).
    pub run: RunResult,
}

impl Reasoner {
    /// Answer a single query atom over a program, applying the magic-sets
    /// transformation when the query-relevant slice of the program is plain
    /// Datalog (the paper's "foreseen" Datalog optimization, Sections 6.5
    /// and 7).
    ///
    /// The query atom uses constants for bound arguments and variables for
    /// free ones — `Control("hsbc", y)` asks which companies `hsbc`
    /// controls. When magic sets do not apply (existentials, aggregation or
    /// negation in the relevant slice, or a fully free query) the program is
    /// evaluated bottom-up as usual and the answers are filtered.
    pub fn reason_query(
        &self,
        program: &Program,
        query: &Atom,
    ) -> Result<QueryResult, ReasonerError> {
        // Magic sets need single-atom heads; the logic optimizer establishes
        // that, so run it first on a copy used only for the applicability
        // check and the transformation itself. The rewritten rules carry no
        // facts: the magic program holds only its seed, and the run loads
        // the EDB from `program` after it — the order a magic program
        // holding a copy of the EDB would load.
        let normalised = prepare_rules(program);
        let edb: BTreeSet<Sym> = program
            .facts
            .iter()
            .map(|f| f.predicate)
            .chain(
                normalised
                    .annotations
                    .iter()
                    .filter(|a| a.kind == AnnotationKind::Bind)
                    .map(|a| a.predicate),
            )
            .collect();
        let (mut run, used_magic_sets) = match vadalog_rewrite::magic_sets(&normalised, query, &edb)
        {
            Ok(magic) => (self.reason_with_edb(&magic.program, &program.facts)?, true),
            Err(_) => (self.reason(program)?, false),
        };

        // Answer via an id-level probe on the query's bound positions: only
        // the matching rows are materialised (the outputs entry shares them
        // when no @output annotation already collected the predicate).
        let answers = query_answers(&mut run.store, query);
        run.outputs
            .entry(query.predicate)
            .or_insert_with(|| answers.clone());
        Ok(QueryResult {
            answers,
            used_magic_sets,
            run,
        })
    }

    /// Open a [`crate::session::QuerySession`] over `program` with this
    /// reasoner's options: the EDB is interned and indexed **once**, then
    /// any number of query atoms are answered against copy-on-write
    /// snapshots of that base, with the magic-sets rewrite compiled once per
    /// (predicate, adornment) pair.
    pub fn session(
        &self,
        program: &Program,
    ) -> Result<crate::session::QuerySession, ReasonerError> {
        crate::session::QuerySession::new(program, self.options)
    }
}

/// The facts a program's `@bind("P", "csv:...")` annotations denote, read
/// in annotation order. The single EDB-source loader shared by
/// [`Reasoner::reason`] and [`crate::session::QuerySession`] — any new
/// source scheme or read-flag change lands in both entry points at once.
pub(crate) fn load_bound_facts(program: &Program) -> Result<Vec<Fact>, ReasonerError> {
    let mut out = Vec::new();
    for annotation in &program.annotations {
        if annotation.kind == AnnotationKind::Bind {
            if let Some(spec) = annotation.args.first() {
                if let Some(path) = spec.strip_prefix("csv:") {
                    let facts = read_csv_facts(path, &annotation.predicate.as_str(), false)
                        .map_err(|e| ReasonerError::Source(e.to_string()))?;
                    out.extend(facts);
                }
            }
        }
    }
    Ok(out)
}

/// The termination-strategy box a [`TerminationKind`] denotes.
pub(crate) fn make_strategy(kind: TerminationKind) -> Box<dyn TerminationStrategy> {
    match kind {
        TerminationKind::Warded => Box::new(WardedStrategy::new()),
        TerminationKind::TrivialIso => Box::new(TrivialIsoStrategy::new()),
        TerminationKind::ExactDedup => Box::new(ExactDedupStrategy::new()),
    }
}

/// Collect and post-process the `@output` predicates of a finished run
/// (final-aggregate reduction, certain-answer filtering). Shared by
/// [`Reasoner::reason`] and [`crate::session::QuerySession`].
pub(crate) fn collect_outputs(
    compiled: &Program,
    plan: &AccessPlan,
    store: &vadalog_storage::FactStore,
    options: &ReasonerOptions,
) -> BTreeMap<Sym, Vec<Fact>> {
    let aggregate_outputs = aggregate_output_shape(plan);
    let mut outputs = BTreeMap::new();
    for sink in &plan.sinks {
        let mut facts = store.facts_of(*sink);
        if let Some((group_positions, agg_position, increasing)) = aggregate_outputs.get(sink) {
            facts = keep_final_per_group(facts, group_positions, *agg_position, *increasing);
        }
        if options.certain_answers_only
            || compiled.annotations.iter().any(|a| {
                a.kind == AnnotationKind::Post
                    && a.predicate == *sink
                    && a.args.iter().any(|s| s == "certain")
            })
        {
            facts.retain(Fact::is_ground);
        }
        outputs.insert(*sink, facts);
    }
    outputs
}

/// Materialise exactly the facts of `query.predicate` that match the query
/// atom, via an **id-level probe on the bound argument positions**: the
/// constant columns are probed as a composite index prefix (built on demand
/// over the result store), repeated query variables are enforced as id
/// equalities, and only the matching rows are resolved into [`Fact`]s — the
/// whole-relation materialise-and-filter the old answer extraction paid is
/// gone.
pub(crate) fn query_answers(store: &mut vadalog_storage::FactStore, query: &Atom) -> Vec<Fact> {
    // Bound columns and their interned ids. A constant that was never
    // interned cannot occur in any stored row.
    let mut cols: Vec<usize> = Vec::new();
    let mut key: Vec<ValueId> = Vec::new();
    for (col, term) in query.terms.iter().enumerate() {
        if let Term::Const(c) = term {
            match find_value_id(c) {
                Some(id) => {
                    cols.push(col);
                    key.push(id);
                }
                None => return Vec::new(),
            }
        }
    }
    // Positions sharing one query variable must carry equal ids.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut by_var: BTreeMap<Var, Vec<usize>> = BTreeMap::new();
        for (col, term) in query.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                by_var.entry(*v).or_default().push(col);
            }
        }
        groups.extend(by_var.into_values().filter(|g| g.len() > 1));
    }
    if store.relation(query.predicate).is_none() {
        return Vec::new();
    }
    let arity = query.arity();
    let ids: Vec<vadalog_storage::FactId> = if cols.is_empty() {
        let rel = store.relation(query.predicate).expect("checked above");
        (0..rel.len() as u32).map(vadalog_storage::FactId).collect()
    } else {
        store.relation_mut(query.predicate).ensure_index(&cols);
        let rel = store.relation(query.predicate).expect("checked above");
        let mut scratch = Vec::new();
        let probe = rel
            .probe_if_indexed(&cols, &key, None, &mut scratch)
            .expect("index was just built");
        probe.as_slice(&scratch).to_vec()
    };
    let rel = store.relation(query.predicate).expect("checked above");
    let mut answers = Vec::new();
    for id in ids {
        let row = rel.row(id);
        let ok = row.len() == arity
            && cols.iter().zip(&key).all(|(c, k)| row[*c] == *k)
            && groups
                .iter()
                .all(|g| g[1..].iter().all(|i| row[*i] == row[g[0]]));
        if ok {
            answers.push(rel.fact(query.predicate, id));
        }
    }
    answers
}

/// For every sink predicate written by an aggregate rule whose aggregate
/// variable appears in the head, work out the group positions, the aggregate
/// position and the monotonicity direction.
fn aggregate_output_shape(plan: &AccessPlan) -> BTreeMap<Sym, (Vec<usize>, usize, bool)> {
    let mut out = BTreeMap::new();
    for filter in &plan.filters {
        if !filter.has_aggregation {
            continue;
        }
        for assignment in filter.rule.assignments() {
            let Some(agg) = assignment.aggregate() else {
                continue;
            };
            for head in filter.rule.head_atoms() {
                if let Some(agg_position) = head
                    .terms
                    .iter()
                    .position(|t| t.as_var() == Some(assignment.var))
                {
                    let group_positions: Vec<usize> = (0..head.terms.len())
                        .filter(|i| *i != agg_position)
                        .collect();
                    let increasing = !matches!(agg.func, AggFunc::MMin);
                    out.insert(head.predicate, (group_positions, agg_position, increasing));
                }
            }
        }
    }
    out
}

/// Keep, for each group, only the fact carrying the final (best) aggregate
/// value.
fn keep_final_per_group(
    facts: Vec<Fact>,
    group_positions: &[usize],
    agg_position: usize,
    increasing: bool,
) -> Vec<Fact> {
    let mut best: BTreeMap<Vec<Value>, Fact> = BTreeMap::new();
    for f in facts {
        if agg_position >= f.args.len() {
            continue;
        }
        let key: Vec<Value> = group_positions
            .iter()
            .filter_map(|i| f.args.get(*i).cloned())
            .collect();
        match best.get(&key) {
            Some(existing) => {
                // Sets (munion) grow monotonically under ⊆: larger sets are
                // later; every other aggregate compares by value.
                let better = match (&f.args[agg_position], &existing.args[agg_position]) {
                    (Value::Set(a), Value::Set(b)) => {
                        if increasing {
                            a.len() > b.len()
                        } else {
                            a.len() < b.len()
                        }
                    }
                    (new, old) => {
                        if increasing {
                            new > old
                        } else {
                            new < old
                        }
                    }
                };
                if better {
                    best.insert(key, f);
                }
            }
            None => {
                best.insert(key, f);
            }
        }
    }
    best.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_company_control() {
        let result = Reasoner::new()
            .reason_text(
                "Own(\"acme\", \"sub\", 0.6).\n\
                 Own(\"sub\", \"leaf\", 0.9).\n\
                 Own(x, y, w), w > 0.5 -> Control(x, y).\n\
                 Control(x, y), Control(y, z) -> Control(x, z).\n\
                 @output(\"Control\").",
            )
            .unwrap();
        assert_eq!(result.output("Control").len(), 3);
        assert_eq!(result.stats.fragment, Some(Fragment::Datalog));
        assert!(result.violations.is_empty());
    }

    #[test]
    fn existentials_and_certain_answers() {
        let options = ReasonerOptions {
            certain_answers_only: true,
            ..ReasonerOptions::default()
        };
        let result = Reasoner::with_options(options)
            .reason_text(
                "Company(\"a\"). Company(\"b\"). Control(\"a\", \"b\"). KeyPerson(\"Bob\", \"a\").\n\
                 Company(x) -> KeyPerson(p, x).\n\
                 Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).\n\
                 @output(\"KeyPerson\").",
            )
            .unwrap();
        let output = result.output("KeyPerson");
        // only null-free facts survive the certain-answer post-processing
        assert!(output.iter().all(Fact::is_ground));
        assert!(output.contains(&Fact::new("KeyPerson", vec!["Bob".into(), "b".into()])));
        // the raw instance still holds the anonymous witnesses
        assert!(result.facts_of("KeyPerson").len() > output.len());
    }

    #[test]
    fn aggregate_outputs_keep_only_final_values() {
        let result = Reasoner::new()
            .reason_text(
                "Sale(\"shop1\", \"mon\", 5.0). Sale(\"shop1\", \"tue\", 3.0). Sale(\"shop2\", \"mon\", 7.0).\n\
                 Sale(s, d, v), t = msum(v, <d>) -> Total(s, t).\n\
                 @output(\"Total\").",
            )
            .unwrap();
        let totals = result.output("Total");
        assert_eq!(totals.len(), 2);
        assert!(totals.contains(&Fact::new("Total", vec!["shop1".into(), Value::Float(8.0)])));
        assert!(totals.contains(&Fact::new("Total", vec!["shop2".into(), Value::Float(7.0)])));
    }

    #[test]
    fn unsupported_programs_are_rejected_when_requested() {
        let options = ReasonerOptions {
            require_warded: true,
            ..ReasonerOptions::default()
        };
        let err = Reasoner::with_options(options)
            .reason_text(
                "A(x) -> B(x, n).\n\
                 C(x) -> D(x, m).\n\
                 B(x, n), D(x, m) -> E(n, m).",
            )
            .unwrap_err();
        assert!(matches!(err, ReasonerError::Unsupported { .. }));
    }

    #[test]
    fn parse_errors_are_propagated() {
        let err = Reasoner::new()
            .reason_text("Own(x, y w) -> Control(x, y).")
            .unwrap_err();
        assert!(matches!(err, ReasonerError::Parse(_)));
    }

    #[test]
    fn strong_links_scenario_with_mcount() {
        // Example 13 shape: StrongLink when two companies share at least N
        // persons of significant control.
        let result = Reasoner::new()
            .reason_text(
                "KeyPerson(\"c1\", \"alice\"). KeyPerson(\"c1\", \"bob\").\n\
                 KeyPerson(\"c2\", \"alice\"). KeyPerson(\"c2\", \"bob\").\n\
                 KeyPerson(\"c3\", \"carol\").\n\
                 Company(\"c1\"). Company(\"c2\"). Company(\"c3\").\n\
                 KeyPerson(x, p) -> PSC(x, p).\n\
                 Company(x) -> PSC(x, p).\n\
                 Control(y, x), PSC(y, p) -> PSC(x, p).\n\
                 PSC(x, p), PSC(y, p), x > y, w = mcount(p), w >= 2 -> StrongLink(x, y, w).\n\
                 @output(\"StrongLink\").",
            )
            .unwrap();
        let links = result.output("StrongLink");
        // c2-c1 share alice and bob (2 persons); c3 shares nobody.
        assert!(links
            .iter()
            .any(|f| f.args[0] == Value::str("c2") && f.args[1] == Value::str("c1")));
        assert!(!links
            .iter()
            .any(|f| f.args[0] == Value::str("c3") || f.args[1] == Value::str("c3")));
    }

    #[test]
    fn query_driven_reasoning_uses_magic_sets_on_datalog() {
        let mut program = parse_program(
            "Edge(x, y) -> Reach(x, y).\n\
             Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
             @output(\"Reach\").",
        )
        .unwrap();
        // Two disconnected chains; a query about the first chain must not
        // depend on the second one at all.
        for i in 0..5 {
            program.add_fact(Fact::new(
                "Edge",
                vec![
                    Value::str(&format!("a{i}")),
                    Value::str(&format!("a{}", i + 1)),
                ],
            ));
            program.add_fact(Fact::new(
                "Edge",
                vec![
                    Value::str(&format!("b{i}")),
                    Value::str(&format!("b{}", i + 1)),
                ],
            ));
        }
        let query = Atom {
            predicate: intern("Reach"),
            terms: vec![Term::Const(Value::str("a0")), Term::var("y")],
        };
        let result = Reasoner::new().reason_query(&program, &query).unwrap();
        assert!(result.used_magic_sets);
        // a0 reaches a1..a5
        assert_eq!(result.answers.len(), 5);
        assert!(result.answers.iter().all(|f| f.args[0] == Value::str("a0")));
        // the magic evaluation must not have derived anything about the b-chain
        assert!(result
            .run
            .store
            .facts_of(intern("Reach"))
            .iter()
            .all(|f| f.args[0] != Value::str("b0")));

        // and the answers agree with plain bottom-up evaluation
        let full = Reasoner::new().reason(&program).unwrap();
        let expected: std::collections::BTreeSet<Fact> = full
            .output("Reach")
            .into_iter()
            .filter(|f| f.args[0] == Value::str("a0"))
            .collect();
        let got: std::collections::BTreeSet<Fact> = result.answers.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn query_driven_reasoning_falls_back_on_existential_programs() {
        let src = "Company(\"acme\"). Controls(\"acme\", \"sub\").\n\
                   Company(x) -> Owns(p, s, x).\n\
                   Owns(p, s, x) -> PSC(x, p).\n\
                   PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
                   @output(\"PSC\").";
        let program = parse_program(src).unwrap();
        let query = Atom {
            predicate: intern("PSC"),
            terms: vec![Term::Const(Value::str("sub")), Term::var("p")],
        };
        let result = Reasoner::new().reason_query(&program, &query).unwrap();
        assert!(!result.used_magic_sets);
        assert!(!result.answers.is_empty());
        assert!(result
            .answers
            .iter()
            .all(|f| f.args[0] == Value::str("sub")));
    }

    #[test]
    fn trivial_strategy_gives_the_same_ground_answers() {
        let src = "Company(\"HSBC\"). Company(\"HSB\").\n\
                   Controls(\"HSBC\", \"HSB\").\n\
                   Company(x) -> Owns(p, s, x).\n\
                   Owns(p, s, x) -> PSC(x, p).\n\
                   PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
                   @output(\"PSC\").";
        let warded = Reasoner::new().reason_text(src).unwrap();
        let options = ReasonerOptions {
            termination: TerminationKind::TrivialIso,
            ..ReasonerOptions::default()
        };
        let trivial = Reasoner::with_options(options).reason_text(src).unwrap();
        let companies = |r: &RunResult| -> std::collections::BTreeSet<Value> {
            r.output("PSC").iter().map(|f| f.args[0].clone()).collect()
        };
        assert_eq!(companies(&warded), companies(&trivial));
    }
}
