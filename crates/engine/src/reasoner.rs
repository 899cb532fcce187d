//! The public [`Reasoner`] facade: parse → analyse → rewrite → compile →
//! execute → post-process, end to end.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use vadalog_analysis::{Fragment, StratificationError};
use vadalog_chase::{TerminationStrategy, TrivialIsoStrategy, WardedStrategy};
use vadalog_model::prelude::*;
use vadalog_parser::{parse_program, ParseError};

use crate::outputs::OutputFacts;
use crate::pipeline::PipelineStats;

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
}

/// Reasoner configuration: the one place the execution knobs live. A
/// [`crate::Pipeline`] holds a copy ([`crate::Pipeline::with_options`]), a
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
    /// The worker count is also the intra-filter shard bound: one filter's
    /// delta window is split into at most this many contiguous chunks per
    /// activation, so a batch dominated by a single join-heavy filter
    /// still loads every worker. The final instance — and every statistic
    /// except the chunk-layout diagnostics and the scheduling diagnostic
    /// [`crate::PipelineStats::steals`] — is bit-identical at every
    /// setting.
    pub parallelism: usize,
    /// How rule bodies with a cyclic core (joins whose hypergraph fails the
    /// GYO acyclicity test) are executed: the free-join plan that leapfrogs
    /// the core between binary ear probes (the default), or binary probe
    /// joins everywhere — the reference the property suites compare
    /// against. Acyclic bodies always run binary joins. The final instance
    /// is bit-identical at either setting.
    pub join_strategy: crate::pipeline::JoinStrategy,
    /// Cap on round-robin sweeps, summed over the strata (safety valve
    /// for unsupported programs).
    pub max_iterations: usize,
    /// Cap on stored facts.
    pub max_facts: usize,
    /// Reject programs outside Warded Datalog± instead of running them
    /// best-effort under the iteration cap.
    pub require_warded: bool,
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
            cone_cache_cap: 1024,
            cone_cache_bytes: 64 * 1024 * 1024,
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
    /// **not** applied: the in-memory base and caches are exactly as before
    /// the call.
    Wal(vadalog_storage::WalError),
    /// The program negates a predicate inside its own recursion, so it has
    /// no stratification (see `vadalog_analysis::rule_strata`) and no
    /// stratum order would make its negation sound.
    Unstratifiable(StratificationError),
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
            ReasonerError::Unstratifiable(e) => write!(f, "{e}"),
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
    /// Wall-clock time spent classifying, rewriting and compiling (and
    /// ensuring the plan's indexes on the session base).
    pub compile_time: Duration,
    /// Wall-clock time spent interning the extensional database (inline
    /// facts and `@bind` sources) and freezing it into the session base:
    /// reported by a one-shot [`Reasoner::reason`]. Zero for the runs of an
    /// open [`crate::QuerySession`], whose EDB was loaded once when the
    /// session opened.
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
    /// append prefix the answers reflect. Always 0 for a one-shot
    /// [`Reasoner::reason`], whose base never had an append. The reasoning
    /// server tags every response with it so concurrent read/append
    /// interleavings can be checked against a fresh session on the same
    /// prefix.
    pub base_stamp: u64,
}

/// The result of a reasoning run.
///
/// Its outputs are views over its final store ([`OutputFacts`]): a fact is
/// resolved only when a caller reads it, and each view keeps the store
/// alive, also after the result itself is dropped.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Output facts per `@output` predicate (post-processed), each a view
    /// over the run's final store.
    pub outputs: BTreeMap<Sym, OutputFacts>,
    /// The full final instance, shared with the output views.
    pub store: Arc<vadalog_storage::FactStore>,
    /// Violated constraints / EGDs.
    pub violations: Vec<String>,
    /// Run statistics.
    pub stats: RunStats,
}

impl RunResult {
    /// Output facts of one predicate (empty if it is not an output or has no
    /// facts), copied out of its view.
    pub fn output(&self, predicate: &str) -> Vec<Fact> {
        self.outputs
            .get(&intern(predicate))
            .map(OutputFacts::to_vec)
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

    /// Run a parsed program: a one-shot [`crate::session::QuerySession`]
    /// that runs its bottom-up plan once, the way
    /// [`Reasoner::reason_query`] answers one query. A program with no
    /// stratification is refused with [`ReasonerError::Unstratifiable`].
    pub fn reason(&self, program: &Program) -> Result<RunResult, ReasonerError> {
        crate::session::QuerySession::new(program, self.options)?.reason_once()
    }
}

/// The result of a query-driven reasoning run (see [`Reasoner::reason_query`]).
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The facts of the query predicate that match the query atom (bound
    /// positions agree with the query constants); on a predicate an
    /// aggregate writes, each group's final value only, as in
    /// [`RunResult::outputs`].
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
    ///
    /// This is a one-shot [`crate::session::QuerySession`]: the session
    /// path is the one place queries are compiled and answered.
    pub fn reason_query(
        &self,
        program: &Program,
        query: &Atom,
    ) -> Result<QueryResult, ReasonerError> {
        crate::session::QuerySession::new(program, self.options)?.query(query)
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

/// The termination-strategy box a [`TerminationKind`] denotes.
pub(crate) fn make_strategy(kind: TerminationKind) -> Box<dyn TerminationStrategy> {
    match kind {
        TerminationKind::Warded => Box::new(WardedStrategy::new()),
        TerminationKind::TrivialIso => Box::new(TrivialIsoStrategy::new()),
    }
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
        let result = Reasoner::new()
            .reason_text(
                "Company(\"a\"). Company(\"b\"). Control(\"a\", \"b\"). KeyPerson(\"Bob\", \"a\").\n\
                 Company(x) -> KeyPerson(p, x).\n\
                 Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).\n\
                 @output(\"KeyPerson\"). @post(\"KeyPerson\", \"certain\").",
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
