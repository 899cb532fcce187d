//! Query sessions: copy-on-write EDB snapshots with id-level magic sets and
//! a shared magic-cone derivation cache.
//!
//! [`Reasoner::reason_query`] pays three per-query costs a servable engine
//! cannot: it re-runs the magic-sets rewrite and recompiles the plan, it
//! re-interns and re-indexes the entire extensional database into a fresh
//! store, and — for a program that can hold a labelled null — it
//! re-registers every EDB fact with the termination strategy. A
//! [`QuerySession`] amortises all three across any number of query atoms:
//!
//! * **Storage** — the EDB is interned once, its planned indexes are built
//!   once, and the whole store is frozen into a shareable
//!   [`vadalog_storage::StoreBase`]. Every query runs against a
//!   copy-on-write [`StoreBase::overlay`]: base rows and sorted runs are
//!   shared by reference, derived (IDB) rows land in per-query overlays,
//!   and probes compose the two in ascending `FactId` order — so a session
//!   run is bit-identical to a fresh run with the same insertion history,
//!   at every thread count.
//! * **Rewrite** — the adorned (magic) program and its access plan are
//!   compiled once per `(predicate, adornment)` pair and cached
//!   ([`PipelineStats::magic_compile_cache_hits`] counts reuse). The magic
//!   seed fact is interned directly into the overlay, and the bound prefix
//!   of each magic predicate reaches the planner like any other bound
//!   column set — a composite-probe prefix over the sorted runs.
//! * **Engine** — the plan's EDB index column lists
//!   ([`AccessPlan::planned_index_cols`]) are ensured on the shared base
//!   between queries, so the per-batch `ensure_index` pre-pass only ever
//!   flushes overlay tails; base runs are never re-sorted. When the rules
//!   invent nulls or the EDB holds one, the termination strategy is
//!   pre-registered once and cloned per run
//!   ([`vadalog_chase::TerminationStrategy::clone_box`]), preserving null
//!   ids and admission decisions exactly. Otherwise every run is null-free
//!   and never calls the strategy (see [`crate::pipeline`]), so the
//!   template stays empty and the per-run clone copies nothing.
//!
//! # The shared session core and the cone cache
//!
//! All of the above state lives in one **shared core** behind an
//! `Arc<Mutex<..>>`: [`QuerySession::fork`] hands out additional handles to
//! the *same* base, strategy template, compiled-plan cache, ensure-index
//! memos and derivation cache, so a pool of worker threads (the
//! `vadalog-server` crate) serves many concurrent callers over one
//! knowledge graph. Queries hold the lock only to snapshot (overlay +
//! strategy clone + compiled `Arc`) and to publish results — the pipeline
//! itself runs outside the lock, so reads never block appends for longer
//! than a promotion takes.
//!
//! The **magic-cone derivation cache** is the perf headline of the shared
//! core: per `(predicate, `[`ConePattern`]`)` it stores the answers the
//! magic evaluation derived, keyed to the base [`StoreBase::stamp`]. A
//! repeat query returns the cached answers without running anything; a
//! *more-bound* query whose pattern is [subsumed] by a cached freer cone is
//! answered by filtering the cached answers ([`ConePattern::admits`]) —
//! sound and exact on the plain-Datalog slices the magic rewrite accepts.
//! [`QuerySession::append_facts`] invalidates precisely: entries whose cone
//! (the transitive rule dependencies of their predicate) intersects the
//! appended predicates are dropped, every other entry is revalidated
//! against the new stamp. The same cache persists each filter's measured
//! per-delta-row join cost across runs ([`Pipeline::measured_costs`]), so
//! the shard planner starts warm on repeat shapes.
//!
//! Answers are extracted with the id-level bound-position probe of
//! [`crate::reasoner`]'s `query_answers` — only matching rows are ever
//! materialised.
//!
//! [subsumed]: ConePattern::subsumes
//! [`Reasoner::reason_query`]: crate::Reasoner::reason_query
//! [`StoreBase::overlay`]: vadalog_storage::StoreBase::overlay
//! [`StoreBase::stamp`]: vadalog_storage::StoreBase::stamp
//! [`PipelineStats::magic_compile_cache_hits`]: crate::PipelineStats::magic_compile_cache_hits
//! [`AccessPlan::planned_index_cols`]: crate::AccessPlan::planned_index_cols
//! [`Pipeline::measured_costs`]: crate::Pipeline::measured_costs

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vadalog_analysis::{classify, Fragment};
use vadalog_chase::TerminationStrategy;
use vadalog_fault as fault;
use vadalog_model::prelude::*;
use vadalog_rewrite::{magic_sets, prepare_rules, Adornment, ConePattern};
use vadalog_storage::{
    costs_path, load_costs, save_costs, FactStore, StoreBase, TornTail, Wal, WarmCosts,
};

use crate::pipeline::{PipelineStats, SuspendedPipeline};
use crate::plan::AccessPlan;
use crate::reasoner::{
    collect_outputs, make_strategy, query_answers, QueryResult, Reasoner, ReasonerError,
    ReasonerOptions, RunResult, RunStats,
};

/// One executable compilation of a query shape: the program actually run
/// (magic-rewritten or the full program), its access plan, and the facts
/// that must be loaded on top of the shared EDB base (the magic seeds).
struct CompiledQuery {
    /// The program handed to the pipeline (post logic-optimizer).
    program: Program,
    /// Its access plan.
    plan: AccessPlan,
    /// The magic seed predicate (`m_Q__bf` style) whose single fact — the
    /// query's bound constants, minted per query — is interned directly
    /// into the overlay on top of the shared EDB base. `None` for
    /// fallbacks. The adorned *rules* never mention the query constants, so
    /// one compilation serves every constant vector of the adornment.
    seed_predicate: Option<Sym>,
    /// EDB index column lists the plan probes, pre-built on the base.
    planned_cols: BTreeMap<Sym, BTreeSet<Vec<usize>>>,
    /// Classification of the program being run (for stats / require_warded).
    fragment: Fragment,
    supported: bool,
}

/// How a `(predicate, adornment)` pair is answered. Compilations are
/// `Arc`-shared so a query can snapshot its artefact under the core lock
/// and run the pipeline outside it.
enum CompiledKind {
    /// The magic-sets rewrite applied: run the adorned program.
    Magic(Arc<CompiledQuery>),
    /// Outside the magic fragment (or magic disabled): run the full program
    /// bottom-up (shared across all fallback adornments) and post-filter.
    Fallback,
}

/// One cached magic-cone derivation: the answers (and output post-
/// processing) of a query pattern, valid exactly while `stamp` matches the
/// shared base.
struct ConeEntry {
    pattern: ConePattern,
    /// The base layer stamp the answers were derived against. Refreshed by
    /// appends that provably cannot reach this cone, dropped otherwise.
    stamp: u64,
    /// The cached answers, in the original run's deterministic order
    /// (direct entries) or canonically sorted (entries derived by
    /// subsumption filtering).
    answers: Vec<Fact>,
    /// The run's post-processed `@output` map.
    outputs: BTreeMap<Sym, Vec<Fact>>,
    fragment: Fragment,
    compiled_rules: usize,
    /// Logical clock value of this entry's last hit (or its insertion) —
    /// the LRU eviction key.
    last_hit: u64,
    /// Estimated heap footprint of the cached rows, counted against the
    /// cache's bytes budget.
    approx_bytes: usize,
}

/// The shared magic-cone derivation cache (see the [module docs](self)),
/// bounded by an entry cap and an approximate-bytes budget with
/// least-recently-hit eviction.
#[derive(Default)]
struct ConeCache {
    entries: HashMap<Sym, Vec<ConeEntry>>,
    /// Entry cap (0 = unbounded), from [`ReasonerOptions::cone_cache_cap`].
    cap: usize,
    /// Approximate-bytes budget (0 = unbounded), from
    /// [`ReasonerOptions::cone_cache_bytes`].
    bytes_budget: usize,
    /// Estimated bytes currently cached, maintained with the entries.
    approx_bytes: usize,
    /// Logical clock: bumped on every hit and insertion, stamped into the
    /// touched entry as `last_hit`.
    tick: u64,
    hits: u64,
    subsumption_hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
}

/// What a cone-cache hit hands back to the query path (cloned out of the
/// entry so the cache can be touched mutably while the result is built).
type ConeHit = (Vec<Fact>, BTreeMap<Sym, Vec<Fact>>, Fragment, usize);

impl ConeCache {
    fn new(cap: usize, bytes_budget: usize) -> ConeCache {
        ConeCache {
            cap,
            bytes_budget,
            ..ConeCache::default()
        }
    }

    fn touch(tick: &mut u64, entry: &mut ConeEntry) {
        *tick += 1;
        entry.last_hit = *tick;
    }

    /// Exact-pattern entry at `stamp`, if cached; refreshes its LRU clock.
    fn hit_exact(&mut self, predicate: Sym, pattern: &ConePattern, stamp: u64) -> Option<ConeHit> {
        let entry = self
            .entries
            .get_mut(&predicate)?
            .iter_mut()
            .find(|e| e.stamp == stamp && e.pattern == *pattern)?;
        Self::touch(&mut self.tick, entry);
        Some((
            entry.answers.clone(),
            entry.outputs.clone(),
            entry.fragment,
            entry.compiled_rules,
        ))
    }

    /// A cached entry whose (freer) pattern subsumes `pattern` at `stamp`;
    /// refreshes its LRU clock.
    fn hit_subsuming(
        &mut self,
        predicate: Sym,
        pattern: &ConePattern,
        stamp: u64,
    ) -> Option<ConeHit> {
        let entry = self
            .entries
            .get_mut(&predicate)?
            .iter_mut()
            .find(|e| e.stamp == stamp && e.pattern.subsumes(pattern))?;
        Self::touch(&mut self.tick, entry);
        Some((
            entry.answers.clone(),
            entry.outputs.clone(),
            entry.fragment,
            entry.compiled_rules,
        ))
    }

    /// Insert an entry unless an exact-pattern entry at the same stamp
    /// already exists (first write wins, keeping repeat hits consistent),
    /// then evict least-recently-hit entries until the cache is back under
    /// its cap and bytes budget.
    fn insert(&mut self, predicate: Sym, mut entry: ConeEntry) {
        let entries = self.entries.entry(predicate).or_default();
        if entries
            .iter()
            .any(|e| e.stamp == entry.stamp && e.pattern == entry.pattern)
        {
            return;
        }
        Self::touch(&mut self.tick, &mut entry);
        entry.approx_bytes = approx_entry_bytes(&entry);
        self.approx_bytes += entry.approx_bytes;
        entries.push(entry);
        self.evict_to_budget();
    }

    /// Evict by ascending `last_hit` while over either budget.
    fn evict_to_budget(&mut self) {
        loop {
            let over_cap = self.cap > 0 && self.len() > self.cap;
            let over_bytes = self.bytes_budget > 0 && self.approx_bytes > self.bytes_budget;
            if !over_cap && !over_bytes {
                return;
            }
            let victim = self
                .entries
                .iter()
                .flat_map(|(p, es)| es.iter().map(|e| (*p, e.last_hit)))
                .min_by_key(|&(_, last_hit)| last_hit);
            let Some((predicate, last_hit)) = victim else {
                return;
            };
            let entries = self.entries.get_mut(&predicate).expect("victim predicate");
            let idx = entries
                .iter()
                .position(|e| e.last_hit == last_hit)
                .expect("victim entry");
            let removed = entries.remove(idx);
            self.approx_bytes -= removed.approx_bytes;
            if entries.is_empty() {
                self.entries.remove(&predicate);
            }
            self.evictions += 1;
        }
    }

    /// Drop every entry (poison heal), counting the drops as invalidations.
    fn clear_all(&mut self) {
        let dropped = self.len() as u64;
        self.invalidations += dropped;
        self.entries.clear();
        self.approx_bytes = 0;
    }

    /// Total cached entries.
    fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }
}

/// Estimated heap footprint of one cone entry: cached answer and output
/// rows dominate, so strings and containers are costed and every other
/// value is a word-sized constant. An estimate only — it gates the cache's
/// bytes budget, nothing else.
fn approx_entry_bytes(entry: &ConeEntry) -> usize {
    fn value_bytes(v: &Value) -> usize {
        match v {
            Value::Str(s) => 24 + s.len(),
            Value::List(items) => 24 + items.iter().map(value_bytes).sum::<usize>(),
            Value::Set(items) => 24 + items.iter().map(value_bytes).sum::<usize>(),
            _ => 16,
        }
    }
    fn fact_bytes(f: &Fact) -> usize {
        32 + f.args.iter().map(value_bytes).sum::<usize>()
    }
    let answers: usize = entry.answers.iter().map(fact_bytes).sum();
    let outputs: usize = entry
        .outputs
        .values()
        .flat_map(|facts| facts.iter().map(fact_bytes))
        .sum();
    64 + entry.pattern.arity() * 16 + answers + outputs
}

/// The state shared by every fork of a session (see
/// [`QuerySession::fork`]): the layered EDB base, the pre-registered
/// termination-strategy template, the compiled-plan and ensure-index
/// caches, the cone derivation cache and the session counters. One mutex
/// guards it all — queries snapshot under the lock and run outside it, so
/// the critical sections stay short; the boxed strategy template is the
/// reason for `Mutex` over `RwLock` (it is `Send` but not `Sync`).
struct SessionCore {
    options: ReasonerOptions,
    /// The frozen EDB: interned rows + pre-flushed sorted runs, shared by
    /// every query's overlay store.
    base: StoreBase,
    /// Termination strategy with the EDB pre-registered (when
    /// [`SessionCore::registers_edb`]), cloned per run.
    strategy_template: Box<dyn TerminationStrategy>,
    /// Can some rule of the program mint a labelled null
    /// ([`crate::plan::rule_invents_nulls`])?
    rules_invent_nulls: bool,
    /// (predicate, adornment) → compiled artefact.
    compiled: HashMap<(Sym, Adornment), CompiledKind>,
    /// The shared bottom-up fallback compilation, built on first need.
    fallback: Option<Arc<CompiledQuery>>,
    /// Apply the magic-sets rewrite when the query slice allows it (default
    /// on; off = always bottom-up — the session half of the query ablation).
    /// Shared across forks so an ablation toggles the whole server.
    use_magic: bool,
    /// Layer-stamp memo of the per-plan ensure-index pass: the base stamp
    /// at which each compiled magic shape last had its planned EDB indexes
    /// ensured. A repeat query skips the whole walk until `append_facts`
    /// promotes a new layer ([`StoreBase::stamp`] moves) — the cache
    /// invalidation key of the layered-base scheme. Living in the shared
    /// core, the memo covers **every** fork: a warm server performs zero
    /// redundant `ensure_index` passes no matter which worker compiled the
    /// shape first (previously the memo was per session, so each new
    /// session re-walked every plan once).
    ensured_stamps: HashMap<(Sym, Adornment), u64>,
    /// Same memo for the shared bottom-up fallback plan.
    fallback_ensured_stamp: Option<u64>,
    /// The shared magic-cone derivation cache.
    cones: ConeCache,
    /// Session-shared cache of on-demand hash-trie builds, stamp-keyed
    /// like the ensure-index memo and handed to every pipeline the session
    /// builds, so the forks of one base reuse each other's builds (see
    /// [`vadalog_storage::HashTrieCache`]). `append_facts` promotions
    /// prune stale generations via `retain_stamp`.
    hashtries: Arc<vadalog_storage::HashTrieCache>,
    /// Per compiled magic shape: the filters' measured per-delta-row join
    /// costs from the most recent run, seeding the shard planner of the
    /// next run of the same shape ([`crate::Pipeline::with_warm_costs`]).
    warm_costs: HashMap<(Sym, Adornment), Vec<Option<f64>>>,
    /// Same persistence for the shared bottom-up fallback plan.
    fallback_costs: Option<Vec<Option<f64>>>,
    /// rule-graph edges head predicate → body predicates, for the precise
    /// cone invalidation of [`QuerySession::append_facts`].
    rule_inputs: HashMap<Sym, BTreeSet<Sym>>,
    /// Predicates holding rows in the base: the magic rewrite bridges the
    /// stored rows of those that rules also derive (see
    /// [`vadalog_rewrite::magic_sets`]).
    edb_predicates: BTreeSet<Sym>,
    /// Memo: predicate → its transitive input predicates (itself included).
    deps: HashMap<Sym, BTreeSet<Sym>>,
    /// The session's write-ahead log, when durability is on: every accepted
    /// `append_facts` batch is fsync'd here **before** the layer promotion
    /// is acknowledged, so [`QuerySession::recover`] can rebuild the exact
    /// layer chain. Shared by every fork (appends through any handle log).
    wal: Option<Wal>,
    /// Times a panicking worker poisoned the core mutex and the next locker
    /// healed it (stamp bumped, cones and ensure-index memos dropped).
    poison_heals: u64,
    edb_builds: usize,
    base_index_builds: usize,
    magic_cache_hits: u64,
    queries_answered: usize,
    appends: usize,
    appended_rows: usize,
    delta_reactivations: usize,
    compactions: usize,
}

impl SessionCore {
    /// Must EDB facts be registered with the strategy template? Only when
    /// some run over this session can hold a labelled null — the test each
    /// pipeline applies to its own plan and store: a null-free run never
    /// reads the template, so registering for it would be pure cost.
    fn registers_edb(&self) -> bool {
        self.rules_invent_nulls || self.base.holds_nulls()
    }

    /// The transitive input predicates of `predicate` (itself included):
    /// every predicate whose facts can reach it through the rules. Appends
    /// outside this set provably cannot change the predicate's cone.
    fn dependencies(&mut self, predicate: Sym) -> BTreeSet<Sym> {
        if let Some(d) = self.deps.get(&predicate) {
            return d.clone();
        }
        let mut seen = BTreeSet::from([predicate]);
        let mut frontier = vec![predicate];
        while let Some(p) = frontier.pop() {
            if let Some(inputs) = self.rule_inputs.get(&p) {
                for q in inputs {
                    if seen.insert(*q) {
                        frontier.push(*q);
                    }
                }
            }
        }
        self.deps.insert(predicate, seen.clone());
        seen
    }

    /// Invalidate the cone cache after an append of `appended` predicates:
    /// entries whose dependency cone intersects the appended set are
    /// dropped, all others are revalidated against `new_stamp`.
    fn invalidate_cones(&mut self, appended: &BTreeSet<Sym>, new_stamp: u64) {
        let predicates: Vec<Sym> = self.cones.entries.keys().copied().collect();
        for p in predicates {
            let reachable = self.dependencies(p);
            let affected = appended.iter().any(|a| reachable.contains(a));
            let entries = self.cones.entries.get_mut(&p).expect("key just listed");
            if affected {
                self.cones.invalidations += entries.len() as u64;
                self.cones.approx_bytes -= entries.iter().map(|e| e.approx_bytes).sum::<usize>();
                entries.clear();
            } else {
                for e in entries.iter_mut() {
                    e.stamp = new_stamp;
                }
            }
        }
    }

    /// Record that `appended` predicates hold rows. A rule-derived one
    /// holding its first rows changes the magic rewrite (it now needs its
    /// bridge), so every magic compile, with its ensure-index memo and warm
    /// costs, is dropped and recompiled on next use.
    fn note_edb_predicates(&mut self, appended: &BTreeSet<Sym>) {
        let mut first_derived_rows = false;
        for p in appended {
            first_derived_rows |=
                self.edb_predicates.insert(*p) && self.rule_inputs.contains_key(p);
        }
        if first_derived_rows {
            self.compiled
                .retain(|_, kind| matches!(kind, CompiledKind::Fallback));
            self.ensured_stamps.clear();
            self.warm_costs.clear();
        }
    }

    /// Walk a compiled plan's EDB index column lists on the shared base,
    /// memoised against the base stamp (`key = None` is the fallback plan).
    fn ensure_plan_indexes(&mut self, key: Option<&(Sym, Adornment)>, compiled: &CompiledQuery) {
        let stamp = self.base.stamp();
        let ensured = match key {
            Some(k) => self.ensured_stamps.get(k).copied(),
            None => self.fallback_ensured_stamp,
        };
        if ensured == Some(stamp) {
            return;
        }
        let mut fresh_builds = 0;
        for (pred, col_lists) in &compiled.planned_cols {
            for cols in col_lists {
                if self.base.ensure_index(*pred, cols) {
                    fresh_builds += 1;
                }
            }
        }
        self.base_index_builds += fresh_builds;
        match key {
            Some(k) => {
                self.ensured_stamps.insert(k.clone(), stamp);
            }
            None => self.fallback_ensured_stamp = Some(stamp),
        }
    }

    /// The poison-heal policy: a panic while the core was locked may have
    /// interrupted a mutation mid-flight (a half-promoted append, a
    /// half-registered strategy batch), so nothing derived from the old
    /// state may be reused. Bump the base stamp — the invalidation key every
    /// memo hangs off — and drop the cone cache and ensure-index memos
    /// outright. This restores **availability** (the server keeps answering
    /// from a consistent-by-construction snapshot); exact bit-identity after
    /// a mid-append crash is the WAL's job ([`QuerySession::recover`]).
    fn heal_after_poison(&mut self) {
        self.poison_heals += 1;
        self.base.bump_stamp();
        self.cones.clear_all();
        self.ensured_stamps.clear();
        self.fallback_ensured_stamp = None;
    }
}

/// Lock the shared core. A poisoned lock — some worker panicked while
/// holding it — is **healed deliberately** rather than silently swallowed:
/// [`SessionCore::heal_after_poison`] invalidates every memo keyed to the
/// possibly-half-mutated state, the poison flag is cleared so later lockers
/// see a clean mutex, and a stat counter records the event.
fn lock_core(shared: &Mutex<SessionCore>) -> MutexGuard<'_, SessionCore> {
    match shared.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut core = poisoned.into_inner();
            core.heal_after_poison();
            shared.clear_poison();
            core
        }
    }
}

/// A fault point inside the append commit section, where returning an error
/// would leave the core half-mutated: any injected schedule here crashes the
/// thread (the crash-recovery tests' kill switch), it never returns.
fn crash_point(name: &'static str) {
    if let Err(e) = fault::point(name) {
        panic!("{e}");
    }
}

/// A reusable query-answering session over one program: the EDB is interned
/// and indexed exactly once, every query atom runs against a copy-on-write
/// snapshot of that base, adorned programs are compiled once per
/// `(predicate, adornment)` pair, and derived magic cones are shared across
/// queries — and across every fork — through the subsumption-checked
/// derivation cache. See the [module docs](self).
pub struct QuerySession {
    options: ReasonerOptions,
    /// The original program's rules and annotations (compiled once for the
    /// bottom-up fallback); its facts live in the base.
    program: Arc<Program>,
    /// `prepare_rules(program)`, which carries no facts: the input of the
    /// magic-sets rewrite (facts live in the base, seeds are minted by the
    /// rewrite).
    rules_only: Arc<Program>,
    /// The live materialised instance: the fallback pipeline's complete run
    /// state, suspended between [`QuerySession::materialise`] calls.
    /// [`QuerySession::append_facts`] advances it incrementally by resuming
    /// it, loading the appended facts and re-running — only the filters the appended
    /// predicates reach wake up, and aggregates fold just the new
    /// contributions. Per fork (the one piece of state that is): a fork's
    /// live instance goes stale when a *sibling* appends, which the
    /// `live_stamp` check below detects and discards.
    live: Option<SuspendedPipeline>,
    /// The base stamp the live instance is current at.
    live_stamp: u64,
    /// Everything else — see [`SessionCore`].
    shared: Arc<Mutex<SessionCore>>,
}

/// Report of one [`QuerySession::append_facts`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppendReport {
    /// Facts appended (fresh rows promoted into the new base layer).
    pub appended: usize,
    /// Facts already present — set semantics makes them no-ops.
    pub duplicates: usize,
    /// Base layers composed after this append (deepest relation chain;
    /// 1 = the original snapshot only).
    pub base_layers: usize,
    /// Filters of the live materialised instance woken because their
    /// inputs intersect the appended predicates (0 when no live instance
    /// exists).
    pub reactivated_filters: usize,
    /// Facts the live instance derived while folding in the delta.
    pub derived: usize,
    /// The base layer stamp after this append: unchanged when nothing
    /// promoted, bumped by one otherwise. Responses tagged with an
    /// observed stamp `>= this` reflect the appended facts.
    pub stamp: u64,
    /// Relations whose layer chains were merged back into one snapshot
    /// because this append pushed them past
    /// [`ReasonerOptions::compact_layers`].
    pub compacted_relations: usize,
}

/// Report of one [`QuerySession::recover`] call.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// WAL batches replayed over the seed EDB, in append order.
    pub batches_replayed: usize,
    /// Facts across the replayed batches (duplicates included — the log
    /// records submitted batches verbatim).
    pub facts_replayed: usize,
    /// Present when the log ended in a torn/corrupt record that was
    /// truncated away (the classic partial-write-then-crash tail).
    pub torn_tail: Option<TornTail>,
    /// Adorned plans whose measured warm costs were restored from the
    /// sidecar (cross-restart warmth for the shard planner).
    pub warm_plans: usize,
    /// Whether the bottom-up fallback plan's costs were restored.
    pub warm_fallback: bool,
    /// The warm-cost sidecar existed but was corrupt and ignored — recovery
    /// proceeds cold, it never blocks on advisory state.
    pub corrupt_costs: bool,
}

/// One planned EDB index on the layered base, as reported by
/// [`QuerySession::layer_index_stats`]: predicate name, indexed column
/// list, and per-layer `(entries, distinct_keys)` pairs deepest (oldest)
/// layer first.
pub type LayerIndexStats = (String, Vec<usize>, Vec<(usize, usize)>);

/// Report of one [`QuerySession::materialise`] pass.
#[derive(Clone, Debug, Default)]
pub struct MaterialiseReport {
    /// Facts in the live instance after the pass (EDB + derived).
    pub total_facts: usize,
    /// Facts derived by this pass (0 when the instance was already at its
    /// fixpoint — repeat materialisations are cheap no-op sweeps).
    pub derived: usize,
    /// Constraint/EGD violations of the instance.
    pub violations: Vec<String>,
    /// Cumulative pipeline statistics of the live instance.
    pub stats: PipelineStats,
}

impl QuerySession {
    /// Open a session: normalise the program, intern the extensional
    /// database (inline facts plus `@bind` CSV sources, in program order —
    /// the one EDB intern pass of the session), register it with the
    /// termination strategy template when some run can hold a labelled
    /// null, and freeze the store into the shared base.
    pub fn new(program: &Program, options: ReasonerOptions) -> Result<QuerySession, ReasonerError> {
        let rules_only = prepare_rules(program);
        let bound = crate::reasoner::load_bound_facts(&rules_only)?;
        let edb = || program.facts.iter().chain(&bound);
        // Every plan the session runs is compiled from `program` (the
        // bottom-up fallback, without rewriting when that is off) or from
        // its normalised rules (the magic rewrites), so checking both covers
        // each pipeline's own `invents_nulls` test.
        let rules_invent_nulls = program
            .rules
            .iter()
            .chain(&rules_only.rules)
            .any(crate::plan::rule_invents_nulls);
        let mut strategy = make_strategy(options.termination);
        let register = rules_invent_nulls || edb().any(|f| !f.is_ground());
        let mut store = FactStore::new();
        store.load_facts(edb(), |_, f, row| {
            if register {
                strategy.register_base(f.predicate, row);
            }
        });
        // head predicate → body predicates, for precise cone invalidation.
        let mut rule_inputs: HashMap<Sym, BTreeSet<Sym>> = HashMap::new();
        for rule in &rules_only.rules {
            let inputs = rule.body_predicates();
            for head in rule.head_atoms() {
                rule_inputs
                    .entry(head.predicate)
                    .or_default()
                    .extend(inputs.iter().copied());
            }
        }
        let core = SessionCore {
            options,
            base: store.freeze(),
            strategy_template: strategy,
            rules_invent_nulls,
            compiled: HashMap::new(),
            fallback: None,
            use_magic: true,
            ensured_stamps: HashMap::new(),
            fallback_ensured_stamp: None,
            cones: ConeCache::new(options.cone_cache_cap, options.cone_cache_bytes),
            hashtries: Arc::new(vadalog_storage::HashTrieCache::new()),
            warm_costs: HashMap::new(),
            fallback_costs: None,
            rule_inputs,
            edb_predicates: edb().map(|f| f.predicate).collect(),
            deps: HashMap::new(),
            wal: None,
            poison_heals: 0,
            edb_builds: 1,
            base_index_builds: 0,
            magic_cache_hits: 0,
            queries_answered: 0,
            appends: 0,
            appended_rows: 0,
            delta_reactivations: 0,
            compactions: 0,
        };
        Ok(QuerySession {
            options,
            program: Arc::new(Program {
                rules: program.rules.clone(),
                facts: Vec::new(),
                annotations: program.annotations.clone(),
            }),
            rules_only: Arc::new(rules_only),
            live: None,
            live_stamp: 0,
            shared: Arc::new(Mutex::new(core)),
        })
    }

    /// Open a **durable** session: replay the write-ahead log at `wal_path`
    /// (created empty when absent) over the seed EDB, then attach the log so
    /// every future [`QuerySession::append_facts`] batch is fsync'd before
    /// its promotion is acknowledged.
    ///
    /// Replay drives the replayed batches through the exact live append
    /// path (registration order, promotions, compaction points), so the
    /// recovered session is **bit-identical** to the never-crashed one on
    /// the durable prefix: same stamps, same `FactId`s, same labelled-null
    /// ids, same answers. A torn or corrupt tail record — a crash mid-write
    /// — is detected by checksum, truncated, and reported as
    /// [`RecoveryReport::torn_tail`]; the warm measured-cost sidecar
    /// (`<wal>.costs`, see [`QuerySession::persist_warm_costs`]) is restored
    /// when present so the shard planner starts warm across restarts.
    pub fn recover(
        program: &Program,
        options: ReasonerOptions,
        wal_path: &Path,
    ) -> Result<(QuerySession, RecoveryReport), ReasonerError> {
        let open = Wal::open(wal_path).map_err(ReasonerError::Wal)?;
        let mut session = Self::new(program, options)?;
        let mut report = RecoveryReport {
            torn_tail: open.torn_tail,
            ..RecoveryReport::default()
        };
        for batch in open.batches {
            report.batches_replayed += 1;
            report.facts_replayed += batch.len();
            session.append_inner(batch, false)?;
        }
        match load_costs(&costs_path(wal_path)) {
            Ok(Some(warm)) => {
                let mut core = session.core();
                for (pred, adornment, costs) in warm.per_plan {
                    core.warm_costs
                        .insert((intern(&pred), Adornment(adornment)), costs);
                    report.warm_plans += 1;
                }
                if let Some(fallback) = warm.fallback {
                    core.fallback_costs = Some(fallback);
                    report.warm_fallback = true;
                }
            }
            Ok(None) => {}
            Err(_) => report.corrupt_costs = true,
        }
        session.core().wal = Some(open.wal);
        Ok((session, report))
    }

    /// Persist the measured warm-cost table to the WAL's sidecar
    /// (`<wal>.costs`) so the next [`QuerySession::recover`] seeds its shard
    /// planner warm. Returns `Ok(false)` when no WAL is attached (nothing to
    /// persist alongside). Called by the CLI at session end; safe to call at
    /// any quiescent point.
    pub fn persist_warm_costs(&self) -> Result<bool, ReasonerError> {
        let core = self.core();
        let Some(wal) = core.wal.as_ref() else {
            return Ok(false);
        };
        let mut per_plan: Vec<(String, Vec<bool>, Vec<Option<f64>>)> = core
            .warm_costs
            .iter()
            .map(|((pred, adornment), costs)| (pred.as_str(), adornment.0.clone(), costs.clone()))
            .collect();
        // The in-memory table is a HashMap; sort so the sidecar bytes are a
        // function of its contents alone.
        per_plan.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        let warm = WarmCosts {
            per_plan,
            fallback: core.fallback_costs.clone(),
        };
        save_costs(&costs_path(wal.path()), &warm).map_err(ReasonerError::Wal)?;
        Ok(true)
    }

    /// Whether a write-ahead log is attached (appends are durable).
    pub fn wal_attached(&self) -> bool {
        self.core().wal.is_some()
    }

    /// Lock the shared core, healing a poisoned lock deliberately — see
    /// [`lock_core`].
    fn core(&self) -> MutexGuard<'_, SessionCore> {
        lock_core(&self.shared)
    }

    /// A second handle onto the **same** session: shared EDB base, strategy
    /// template, compiled-plan cache, ensure-index memos and cone cache —
    /// everything except the live materialised instance, which stays per
    /// handle. Forks are how the reasoning server gives each worker thread
    /// its own `&mut` session while all of them answer over one knowledge
    /// graph: appends through any fork are visible to every other fork's
    /// next query, and a cone derived by one worker is a cache hit for all.
    pub fn fork(&self) -> QuerySession {
        QuerySession {
            options: self.options,
            program: Arc::clone(&self.program),
            rules_only: Arc::clone(&self.rules_only),
            live: None,
            live_stamp: 0,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Enable or disable the magic-sets rewrite (default on). With it off
    /// every query runs the full program bottom-up against the shared
    /// snapshot and post-filters. Shared across forks.
    pub fn with_magic(self, enabled: bool) -> Self {
        self.core().use_magic = enabled;
        self
    }

    /// Number of EDB intern-and-freeze passes this session performed
    /// (always 1: the acceptance invariant the stats counters assert).
    pub fn edb_builds(&self) -> usize {
        self.core().edb_builds
    }

    /// Number of index builds performed on the shared EDB base so far.
    /// Grows only when a query introduces a *new* plan shape; repeating
    /// queries (any constants, same adornment) adds nothing.
    pub fn base_index_builds(&self) -> usize {
        self.core().base_index_builds
    }

    /// Hits in the (predicate, adornment) → compiled-plan cache so far.
    pub fn magic_compile_cache_hits(&self) -> u64 {
        self.core().magic_cache_hits
    }

    /// Queries answered so far (cone-cache hits included), across all forks.
    pub fn queries_answered(&self) -> usize {
        self.core().queries_answered
    }

    /// `append_facts` calls that promoted at least one new base layer.
    pub fn appends(&self) -> usize {
        self.core().appends
    }

    /// EDB rows appended across all [`QuerySession::append_facts`] calls
    /// (duplicates excluded).
    pub fn appended_rows(&self) -> usize {
        self.core().appended_rows
    }

    /// Base layers composed under the session (deepest relation chain;
    /// 1 = the original frozen snapshot only).
    pub fn base_layers(&self) -> usize {
        self.core().base.layer_count()
    }

    /// Monotonic layer stamp of the shared base (see [`StoreBase::stamp`]).
    pub fn base_stamp(&self) -> u64 {
        self.core().base.stamp()
    }

    /// Filters of the live instance woken by appended deltas across all
    /// appends — the "work scoped to what the append reaches" counter.
    pub fn delta_reactivations(&self) -> usize {
        self.core().delta_reactivations
    }

    /// Queries answered straight from the cone cache (exact pattern match
    /// at the current stamp), across all forks.
    pub fn cone_cache_hits(&self) -> u64 {
        self.core().cones.hits
    }

    /// Queries answered by filtering a cached **subsuming** (freer) cone
    /// down to the query pattern, across all forks.
    pub fn cone_cache_subsumption_hits(&self) -> u64 {
        self.core().cones.subsumption_hits
    }

    /// Magic-path queries that found no usable cone entry and derived their
    /// cone by running the pipeline.
    pub fn cone_cache_misses(&self) -> u64 {
        self.core().cones.misses
    }

    /// Cone entries dropped because an append reached their dependency
    /// cone.
    pub fn cone_cache_invalidations(&self) -> u64 {
        self.core().cones.invalidations
    }

    /// Cone entries currently cached.
    pub fn cone_cache_entries(&self) -> usize {
        self.core().cones.len()
    }

    /// Relations whose layer chains were merged back into one snapshot by
    /// the [`ReasonerOptions::compact_layers`] threshold, cumulatively.
    pub fn compactions(&self) -> usize {
        self.core().compactions
    }

    /// Cone entries evicted by the LRU cap/bytes budget
    /// ([`ReasonerOptions::cone_cache_cap`] /
    /// [`ReasonerOptions::cone_cache_bytes`]), across all forks.
    pub fn cone_cache_evictions(&self) -> u64 {
        self.core().cones.evictions
    }

    /// Estimated bytes currently held by the cone cache.
    pub fn cone_cache_approx_bytes(&self) -> usize {
        self.core().cones.approx_bytes
    }

    /// Times a panicking worker poisoned the shared core and the next
    /// locker healed it (`SessionCore::heal_after_poison`: a deliberate
    /// stamp bump invalidating every memo, never silent reuse).
    pub fn poison_heals(&self) -> u64 {
        self.core().poison_heals
    }

    /// Append ground EDB facts to the session.
    ///
    /// The rows are interned into a copy-on-write overlay of the shared
    /// base and **promoted** into a new immutable layer
    /// ([`StoreBase::promote`]): existing layers, retained query results
    /// and pre-built sorted runs are untouched, and subsequent queries
    /// compose all layers in ascending `FactId` order — so a session with
    /// appends answers queries byte-identically to a fresh session built
    /// on the union EDB. When the promotion pushes a relation's layer chain
    /// past [`ReasonerOptions::compact_layers`], the chain is merged back
    /// into one plain snapshot (same rows, same `FactId`s — results are
    /// bit-identical across compaction points).
    ///
    /// Promotions advance the base [`StoreBase::stamp`] and invalidate the
    /// cone cache **precisely**: entries whose predicate transitively
    /// depends on an appended predicate are dropped, all others are
    /// revalidated at the new stamp.
    ///
    /// When a live materialised instance exists (see
    /// [`QuerySession::materialise`]), the instance is advanced
    /// **incrementally**: the appended facts are loaded as deltas, only the
    /// filters whose inputs intersect the appended predicates re-activate,
    /// and aggregate states fold the new contributions instead of
    /// re-grouping.
    ///
    /// Returns [`ReasonerError::NonGroundAppend`] when a fact contains a
    /// labelled null or other non-ground value — appends extend the EDB
    /// and must be ground.
    pub fn append_facts<I>(&mut self, facts: I) -> Result<AppendReport, ReasonerError>
    where
        I: IntoIterator<Item = Fact>,
    {
        self.append_inner(facts.into_iter().collect(), true)
    }

    /// The append path behind [`QuerySession::append_facts`] and WAL
    /// replay — `log` is off exactly when the batch is being replayed from
    /// the log it was already written to ([`QuerySession::recover`]).
    fn append_inner(&mut self, facts: Vec<Fact>, log: bool) -> Result<AppendReport, ReasonerError> {
        for f in &facts {
            if !f.is_ground() {
                return Err(ReasonerError::NonGroundAppend {
                    atom: f.to_string(),
                });
            }
        }
        let mut report = AppendReport::default();
        // Lock through a clone of the Arc so the guard does not borrow
        // `self` — the live-instance maintenance below needs `&mut
        // self.live` while the core stays locked.
        let shared = Arc::clone(&self.shared);
        let mut core = lock_core(&shared);
        let core = &mut *core;
        // Durability first: the batch is fsync'd into the WAL before any
        // in-memory state moves, so a failed log write aborts the append
        // with the core untouched, and a crash anywhere after this line is
        // replayed on recovery. The *submitted* batch is logged verbatim —
        // duplicates included — because replay must feed a registering
        // strategy template the exact sequence the live session saw.
        if log {
            if let Some(wal) = core.wal.as_mut() {
                wal.append_batch(&facts).map_err(ReasonerError::Wal)?;
            }
        }
        crash_point("session.register");
        let stamp_before = core.base.stamp();
        let mut overlay = core.base.overlay();
        // Mirror `QuerySession::new`: when the session registers its EDB,
        // every appended fact registers with the strategy template
        // (duplicates included), so the layered session replays the
        // registration order of a fresh session over the union EDB exactly.
        // Appends are ground, so they never change whether it registers.
        let register = core.registers_edb();
        let strategy = &mut core.strategy_template;
        report.appended = overlay.load_facts(&facts, |_, f, row| {
            if register {
                strategy.register_base(f.predicate, row);
            }
        });
        report.duplicates = facts.len() - report.appended;
        if report.appended > 0 {
            crash_point("session.promote");
            core.base.promote(overlay);
            crash_point("session.post_promote");
            core.appends += 1;
            core.appended_rows += report.appended;
            let new_stamp = core.base.stamp();
            let appended_preds: BTreeSet<Sym> = facts.iter().map(|f| f.predicate).collect();
            core.invalidate_cones(&appended_preds, new_stamp);
            core.note_edb_predicates(&appended_preds);
            core.hashtries.retain_stamp(new_stamp);
            if core.options.compact_layers > 0
                && core.base.layer_count() > core.options.compact_layers
            {
                report.compacted_relations = core.base.compact(core.options.compact_layers);
                core.compactions += report.compacted_relations;
            }
            if self.live.is_some() && self.live_stamp == stamp_before {
                let (reactivated, derived) = Self::advance_live(core, &mut self.live, &facts);
                report.reactivated_filters = reactivated;
                report.derived = derived;
                self.live_stamp = new_stamp;
            } else {
                // No live instance yet, or a sibling fork appended since
                // this fork's instance was materialised: the resume would
                // miss that delta, so rebuild from the layered base on
                // next use.
                self.live = None;
            }
        }
        report.base_layers = core.base.layer_count();
        report.stamp = core.base.stamp();
        Ok(report)
    }

    /// Advance the live instance by the appended delta: resume the
    /// suspended fallback pipeline, wake the readers of the appended
    /// predicates, load the facts and re-run to the new fixpoint.
    fn advance_live(
        core: &mut SessionCore,
        live: &mut Option<SuspendedPipeline>,
        facts: &[Fact],
    ) -> (usize, usize) {
        let compiled = Arc::clone(
            core.fallback
                .as_ref()
                .expect("a live instance implies a compiled fallback"),
        );
        let state = live.take().expect("caller checked live.is_some()");
        let mut pipeline = crate::Pipeline::resume(&compiled.plan, state);
        let preds: BTreeSet<Sym> = facts.iter().map(|f| f.predicate).collect();
        let reactivated = pipeline.wake_readers(&preds);
        core.delta_reactivations += reactivated;
        let derived_before = pipeline.stats().facts_derived;
        // The live pipeline holds its own strategy clone, not the template:
        // `load_facts` registers the appended facts with it when its run can
        // hold a null (a null-free live instance skips that), along with
        // waking the readers.
        pipeline.load_facts(facts.iter().cloned());
        pipeline.run();
        let derived = pipeline.stats().facts_derived - derived_before;
        *live = Some(pipeline.suspend());
        (reactivated, derived)
    }

    /// Materialise (or incrementally refresh) the session's full bottom-up
    /// instance — the whole-program fixpoint [`Reasoner::reason`] computes,
    /// kept **live** across [`QuerySession::append_facts`] calls. The first
    /// call compiles the fallback plan and runs from the layered base;
    /// subsequent calls resume the suspended pipeline and are no-op sweeps
    /// unless appends arrived in between.
    pub fn materialise(&mut self) -> Result<MaterialiseReport, ReasonerError> {
        // As in `append_facts`: lock through a clone of the Arc so `self.live`
        // stays mutably borrowable while the core is locked.
        let shared = Arc::clone(&self.shared);
        let mut core = lock_core(&shared);
        if core.fallback.is_none() {
            core.fallback = Some(Arc::new(Self::compile(&self.program, None, &self.options)));
        }
        let compiled = Arc::clone(core.fallback.as_ref().expect("built above"));
        if self.options.require_warded && !compiled.supported {
            return Err(ReasonerError::Unsupported {
                fragment: compiled.fragment,
            });
        }
        // Ensure the plan's EDB indexes on the base, unless already ensured
        // at this layer stamp.
        core.ensure_plan_indexes(None, &compiled);
        let stamp = core.base.stamp();
        if self.live.is_some() && self.live_stamp != stamp {
            // A sibling fork appended: this handle's instance is stale.
            self.live = None;
        }
        let warm = core.fallback_costs.clone();
        let mut pipeline = match self.live.take() {
            Some(state) => crate::Pipeline::resume(&compiled.plan, state),
            None => {
                let mut p =
                    crate::Pipeline::new(&compiled.plan, core.strategy_template.clone_box())
                        .with_store(core.base.overlay())
                        .with_options(&self.options)
                        .with_hashtrie_cache(core.hashtries.clone(), stamp);
                if let Some(costs) = warm {
                    p = p.with_warm_costs(costs);
                }
                p
            }
        };
        drop(core);
        let derived_before = pipeline.stats().facts_derived;
        let violations = pipeline.run();
        let stats = pipeline.stats();
        let total_facts = pipeline.store().len();
        self.core().fallback_costs = Some(pipeline.measured_costs().to_vec());
        self.live = Some(pipeline.suspend());
        self.live_stamp = stamp;
        Ok(MaterialiseReport {
            total_facts,
            derived: stats.facts_derived - derived_before,
            violations,
            stats,
        })
    }

    /// The `@output` predicates of the live instance, post-processed the
    /// way [`Reasoner::reason`] post-processes them (final-aggregate
    /// reduction, certain-answer filtering). Materialises first when
    /// needed.
    pub fn outputs(&mut self) -> Result<BTreeMap<Sym, Vec<Fact>>, ReasonerError> {
        self.materialise()?;
        let compiled = Arc::clone(
            self.core()
                .fallback
                .as_ref()
                .expect("materialise compiled the fallback"),
        );
        let live = self
            .live
            .as_ref()
            .expect("materialise left a live instance");
        Ok(collect_outputs(
            &compiled.program,
            &compiled.plan,
            live.store(),
            &self.options,
        ))
    }

    /// Per-layer statistics of every planned EDB index on the layered base,
    /// deepest (oldest) layer first. The indexes exist exactly because some
    /// compiled plan ensured them between queries, so this is the
    /// plan-level analysis surface for the layer chain — it shows how each
    /// promoted append layer spreads across the probe-relevant indexes
    /// (CLI `query --stats`).
    pub fn layer_index_stats(&self) -> Vec<LayerIndexStats> {
        let core = self.core();
        let mut out = Vec::new();
        for (pred, rel) in core.base.relations() {
            for cols in rel.indexed_col_lists() {
                if let Some(layers) = rel.index_stats_per_layer(&cols) {
                    out.push((
                        pred.as_str().to_string(),
                        cols.to_vec(),
                        layers
                            .iter()
                            .map(|s| (s.entries, s.distinct_keys))
                            .collect(),
                    ));
                }
            }
        }
        out
    }

    /// Answer one query atom against the session snapshot. Constants are
    /// bound arguments, variables free ones — `Control("hsbc", y)` asks
    /// which companies `hsbc` controls. Results (facts *and* labelled-null
    /// ids) are identical to a fresh [`Reasoner::reason_query`] over the
    /// same program, at every parallelism level. Magic-path answers may be
    /// served from the shared cone cache: exact repeats return the cached
    /// run verbatim, more-bound queries filter a cached subsuming cone
    /// (answers canonically sorted).
    pub fn query(&mut self, query: &Atom) -> Result<QueryResult, ReasonerError> {
        let compile_start = Instant::now();
        let key = (query.predicate, Adornment::of_query(query));
        let mut core = self.core();
        let core_ref = &mut *core;
        if core_ref.compiled.contains_key(&key) {
            core_ref.magic_cache_hits += 1;
        } else {
            let kind = if core_ref.use_magic {
                match magic_sets(&self.rules_only, query, &core_ref.edb_predicates) {
                    Ok(magic) => {
                        let seed = magic
                            .program
                            .facts
                            .first()
                            .map(|f| f.predicate)
                            .expect("magic rewrites always mint a seed fact");
                        CompiledKind::Magic(Arc::new(Self::compile(
                            &magic.program,
                            Some(seed),
                            &self.options,
                        )))
                    }
                    Err(_) => CompiledKind::Fallback,
                }
            } else {
                CompiledKind::Fallback
            };
            if matches!(kind, CompiledKind::Fallback) && core_ref.fallback.is_none() {
                core_ref.fallback =
                    Some(Arc::new(Self::compile(&self.program, None, &self.options)));
            }
            core_ref.compiled.insert(key.clone(), kind);
        }
        let (compiled, used_magic_sets): (Arc<CompiledQuery>, bool) = match &core_ref.compiled[&key]
        {
            CompiledKind::Magic(c) => (Arc::clone(c), true),
            CompiledKind::Fallback => (
                Arc::clone(core_ref.fallback.as_ref().expect("built above")),
                false,
            ),
        };
        if self.options.require_warded && !compiled.supported {
            return Err(ReasonerError::Unsupported {
                fragment: compiled.fragment,
            });
        }

        let stamp = core_ref.base.stamp();
        // The shared derivation cache: magic cones only (fallback answers
        // may carry labelled nulls whose ids depend on run history).
        let pattern = ConePattern::of_query(query);
        if used_magic_sets && self.options.cone_cache {
            if let Some((answers, outputs, fragment, compiled_rules)) =
                core_ref.cones.hit_exact(query.predicate, &pattern, stamp)
            {
                let result = Self::cached_result(
                    core_ref,
                    query,
                    answers,
                    outputs,
                    fragment,
                    compiled_rules,
                    stamp,
                    compile_start,
                );
                core_ref.cones.hits += 1;
                core_ref.queries_answered += 1;
                return Ok(result);
            }
            if let Some((cone_answers, _, fragment, compiled_rules)) =
                core_ref
                    .cones
                    .hit_subsuming(query.predicate, &pattern, stamp)
            {
                // Specialise the freer cone: filter, then sort canonically
                // (the filtered subsequence follows the *subsuming* run's
                // order, which is not the order a direct run of this query
                // would produce — sorting makes the result a function of
                // the answer set alone).
                let mut answers: Vec<Fact> = cone_answers
                    .into_iter()
                    .filter(|f| pattern.admits(f))
                    .collect();
                answers.sort();
                let mut outputs = BTreeMap::new();
                outputs.insert(query.predicate, answers.clone());
                core_ref.cones.insert(
                    query.predicate,
                    ConeEntry {
                        pattern: pattern.clone(),
                        stamp,
                        answers: answers.clone(),
                        outputs: outputs.clone(),
                        fragment,
                        compiled_rules,
                        last_hit: 0,
                        approx_bytes: 0,
                    },
                );
                let result = Self::cached_result(
                    core_ref,
                    query,
                    answers,
                    outputs,
                    fragment,
                    compiled_rules,
                    stamp,
                    compile_start,
                );
                core_ref.cones.subsumption_hits += 1;
                core_ref.queries_answered += 1;
                return Ok(result);
            }
            core_ref.cones.misses += 1;
        }

        // Ensure the plan's EDB indexes exist on the shared base. The walk
        // is memoised per plan shape against the base's layer stamp: a
        // repeat query — through *any* fork — skips it entirely, and an
        // `append_facts` promotion (stamp bump) invalidates the memo so
        // freshly layered relations get their planned indexes
        // flushed/built.
        core_ref.ensure_plan_indexes(used_magic_sets.then_some(&key), &compiled);

        // Snapshot everything the run needs, then release the lock: the
        // pipeline executes against its private copy-on-write overlay, so
        // concurrent appends and other workers' queries proceed meanwhile.
        let overlay = core_ref.base.overlay();
        let strategy = core_ref.strategy_template.clone_box();
        let warm = if used_magic_sets {
            core_ref.warm_costs.get(&key).cloned()
        } else {
            core_ref.fallback_costs.clone()
        };
        let magic_hits_snapshot = core_ref.magic_cache_hits;
        let hashtries = core_ref.hashtries.clone();
        let trie_stamp = core_ref.base.stamp();
        drop(core);
        let compile_time = compile_start.elapsed();

        // Execute against the copy-on-write overlay, with a clone of the
        // strategy template (empty, and never called, on a null-free run).
        let exec_start = Instant::now();
        let mut pipeline = crate::Pipeline::new(&compiled.plan, strategy)
            .with_store(overlay)
            .with_options(&self.options)
            .with_hashtrie_cache(hashtries, trie_stamp);
        if let Some(costs) = warm {
            pipeline = pipeline.with_warm_costs(costs);
        }
        if let Some(seed) = compiled.seed_predicate {
            // The magic seed: the query's bound constants, interned directly.
            let seed_args: Vec<Value> = query
                .terms
                .iter()
                .filter_map(Term::as_const)
                .cloned()
                .collect();
            pipeline.load_facts([Fact::new_sym(seed, seed_args)]);
        }
        let violations = pipeline.run();
        let execution_time = exec_start.elapsed();

        let mut pipeline_stats = pipeline.stats();
        pipeline_stats.magic_compile_cache_hits = magic_hits_snapshot;
        let measured = pipeline.measured_costs().to_vec();
        let mut store = pipeline.into_store();
        let answers = query_answers(&mut store, query);
        let mut outputs = collect_outputs(&compiled.program, &compiled.plan, &store, &self.options);
        outputs
            .entry(query.predicate)
            .or_insert_with(|| answers.clone());

        // Publish: warm costs always; the derived cone only when the base
        // has not moved meanwhile (a concurrent append would make the
        // entry stale the moment it lands) and the run was clean.
        let mut core = self.core();
        if used_magic_sets {
            core.warm_costs.insert(key.clone(), measured);
        } else {
            core.fallback_costs = Some(measured);
        }
        if used_magic_sets
            && self.options.cone_cache
            && violations.is_empty()
            && core.base.stamp() == stamp
        {
            core.cones.insert(
                query.predicate,
                ConeEntry {
                    pattern,
                    stamp,
                    answers: answers.clone(),
                    outputs: outputs.clone(),
                    fragment: compiled.fragment,
                    compiled_rules: compiled.program.rules.len(),
                    last_hit: 0,
                    approx_bytes: 0,
                },
            );
        }
        core.queries_answered += 1;
        drop(core);

        Ok(QueryResult {
            answers,
            used_magic_sets,
            run: RunResult {
                outputs,
                violations,
                stats: RunStats {
                    compile_time,
                    load_time: Duration::ZERO,
                    execution_time,
                    compiled_rules: compiled.program.rules.len(),
                    fragment: Some(compiled.fragment),
                    pipeline: pipeline_stats,
                    total_facts: store.len(),
                    base_stamp: stamp,
                },
                store,
            },
        })
    }

    /// Assemble a [`QueryResult`] for a cone-cache hit: the cached answers
    /// over a fresh overlay of the current base (no pipeline runs). The
    /// stats mirror what a run would report about the *snapshot* — EDB rows
    /// reused, layers composed — with zero derivation work.
    #[allow(clippy::too_many_arguments)]
    fn cached_result(
        core: &SessionCore,
        query: &Atom,
        answers: Vec<Fact>,
        mut outputs: BTreeMap<Sym, Vec<Fact>>,
        fragment: Fragment,
        compiled_rules: usize,
        stamp: u64,
        compile_start: Instant,
    ) -> QueryResult {
        let store = core.base.overlay();
        let pipeline_stats = PipelineStats {
            edb_rows_reused: store.base_rows() as u64,
            base_layers: store.max_layer_depth() as u64,
            magic_compile_cache_hits: core.magic_cache_hits,
            ..PipelineStats::default()
        };
        outputs
            .entry(query.predicate)
            .or_insert_with(|| answers.clone());
        let total_facts = store.len();
        QueryResult {
            answers,
            used_magic_sets: true,
            run: RunResult {
                outputs,
                violations: Vec::new(),
                stats: RunStats {
                    compile_time: compile_start.elapsed(),
                    load_time: Duration::ZERO,
                    execution_time: Duration::ZERO,
                    compiled_rules,
                    fragment: Some(fragment),
                    pipeline: pipeline_stats,
                    total_facts,
                    base_stamp: stamp,
                },
                store,
            },
        }
    }

    /// Compile one runnable program exactly the way [`Reasoner::reason`]
    /// would: classify, apply the logic optimizer (per the options), build
    /// the access plan and enumerate its EDB index column lists.
    fn compile(
        program: &Program,
        seed_predicate: Option<Sym>,
        options: &ReasonerOptions,
    ) -> CompiledQuery {
        let report = classify(program);
        let compiled = if options.apply_rewriting {
            prepare_rules(program)
        } else {
            program.clone()
        };
        let plan = AccessPlan::compile(&compiled);
        let planned_cols = plan.planned_index_cols();
        CompiledQuery {
            program: compiled,
            plan,
            seed_predicate,
            planned_cols,
            fragment: report.primary(),
            supported: report.is_supported(),
        }
    }
}

impl Reasoner {
    /// Alias of [`Reasoner::session`] taking program text.
    pub fn session_text(&self, src: &str) -> Result<QuerySession, ReasonerError> {
        let program = vadalog_parser::parse_program(src)?;
        self.session(&program)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_parser::parse_program;

    fn chain_program(n: usize) -> Program {
        let mut program = parse_program(
            "Edge(x, y) -> Reach(x, y).\n\
             Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
             @output(\"Reach\").",
        )
        .unwrap();
        for i in 0..n {
            program.add_fact(Fact::new(
                "Edge",
                vec![
                    Value::str(&format!("n{i}")),
                    Value::str(&format!("n{}", i + 1)),
                ],
            ));
        }
        program
    }

    fn reach_query(source: &str) -> Atom {
        Atom {
            predicate: intern("Reach"),
            terms: vec![Term::Const(Value::str(source)), Term::var("y")],
        }
    }

    #[test]
    fn session_answers_match_fresh_query_runs() {
        let program = chain_program(12);
        let mut session = Reasoner::new().session(&program).unwrap();
        for source in ["n0", "n5", "n11", "n3", "n0"] {
            let query = reach_query(source);
            let fresh = Reasoner::new().reason_query(&program, &query).unwrap();
            let live = session.query(&query).unwrap();
            assert_eq!(live.used_magic_sets, fresh.used_magic_sets);
            let sort = |mut v: Vec<Fact>| {
                v.sort();
                v
            };
            assert_eq!(
                sort(live.answers),
                sort(fresh.answers),
                "answers diverge for source {source}"
            );
        }
    }

    #[test]
    fn session_builds_the_edb_exactly_once_across_many_queries() {
        let program = chain_program(40);
        let mut session = Reasoner::new().session(&program).unwrap();
        assert_eq!(session.edb_builds(), 1);
        let mut reused = 0u64;
        for i in 0..12 {
            let result = session.query(&reach_query(&format!("n{}", i * 3))).unwrap();
            assert!(result.used_magic_sets);
            // every run reads the shared interned EDB rows...
            assert_eq!(result.run.stats.pipeline.edb_rows_reused, 40);
            // ...and writes only its own derivations into the overlay.
            assert!(result.run.stats.pipeline.snapshot_overlay_rows > 0);
            assert!(
                result.run.stats.pipeline.snapshot_overlay_rows
                    < result.run.stats.total_facts as u64
            );
            reused += result.run.stats.pipeline.edb_rows_reused;
        }
        // the acceptance invariant: N >= 10 queries, one EDB intern+index
        // build, zero per-query rebuilds.
        assert_eq!(session.edb_builds(), 1);
        assert_eq!(session.queries_answered(), 12);
        assert!(reused >= 12 * 40);
        let builds_after_first_shape = session.base_index_builds();
        session.query(&reach_query("n1")).unwrap();
        assert_eq!(
            session.base_index_builds(),
            builds_after_first_shape,
            "repeating a query shape must not build any base index"
        );
        // and the compile cache served every repeat of the (Reach, bf) pair
        assert_eq!(session.magic_compile_cache_hits(), 12);
    }

    #[test]
    fn session_overlays_never_leak_between_queries() {
        let program = chain_program(6);
        let mut session = Reasoner::new().session(&program).unwrap();
        let first = session.query(&reach_query("n0")).unwrap();
        let second = session.query(&reach_query("n5")).unwrap();
        // the second run must not see the first run's magic derivations
        assert_eq!(second.answers.len(), 1);
        assert_eq!(first.answers.len(), 6);
        // symmetric check via the instance: no Reach fact about n0 may
        // exist in the second run's store
        assert!(second
            .run
            .store
            .facts_of(intern("Reach"))
            .iter()
            .all(|f| f.args[0] != Value::str("n0")));
    }

    #[test]
    fn retained_results_do_not_degrade_base_indexing() {
        // Holding earlier QueryResults keeps their overlay Arcs alive; a
        // later query with a NEW plan shape must still get its EDB indexes
        // onto the base (one copy-on-write relation clone) instead of
        // silently falling back to a full base-covering rebuild per query.
        let mut program = chain_program(10);
        program.add_rule(
            parse_program("Reach(x, y), Mark(y) -> Hit(x, y).")
                .unwrap()
                .rules[0]
                .clone(),
        );
        for i in 0..10 {
            program.add_fact(Fact::new("Mark", vec![Value::str(&format!("n{i}"))]));
        }
        let mut session = Reasoner::new().session(&program).unwrap();
        let retained = session.query(&reach_query("n0")).unwrap();
        // new shape while `retained` is alive: the Hit slice probes Mark
        let hit = Atom {
            predicate: intern("Hit"),
            terms: vec![Term::Const(Value::str("n0")), Term::var("y")],
        };
        let second = session.query(&hit).unwrap();
        assert!(!second.answers.is_empty());
        assert_eq!(
            second.run.store.full_index_builds(),
            0,
            "the overlay must never rebuild base-covering indexes"
        );
        // and the retained result still reads its original snapshot
        assert_eq!(retained.answers.len(), 10);
    }

    #[test]
    fn session_falls_back_and_matches_fresh_runs_on_existential_programs() {
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
        let mut session = Reasoner::new().session(&program).unwrap();
        let live = session.query(&query).unwrap();
        let fresh = Reasoner::new().reason_query(&program, &query).unwrap();
        assert!(!live.used_magic_sets);
        // exact equality including labelled-null ids: the cloned strategy
        // template and the shared overlay replay the fresh run bit for bit
        assert_eq!(live.answers, fresh.answers);
        let repeat = session.query(&query).unwrap();
        assert_eq!(repeat.answers, fresh.answers);
        assert_eq!(session.magic_compile_cache_hits(), 1);
    }

    #[test]
    fn disabling_magic_still_answers_from_the_snapshot() {
        let program = chain_program(8);
        let mut session = Reasoner::new().session(&program).unwrap().with_magic(false);
        let result = session.query(&reach_query("n0")).unwrap();
        assert!(!result.used_magic_sets);
        assert_eq!(result.answers.len(), 8);
        assert_eq!(result.run.stats.pipeline.edb_rows_reused, 8);
    }

    /// Facts appended between queries must be visible to the next query —
    /// and byte-identical (answers, order, ids) to a fresh session built on
    /// the union EDB. The regression half: before `append_facts` existed,
    /// post-freeze EDB mutation attempts were silently lost with the next
    /// query's overlay.
    #[test]
    fn appended_facts_answer_byte_identically_to_a_union_rebuild() {
        let program = chain_program(8);
        let mut session = Reasoner::new().session(&program).unwrap();
        let before = session.query(&reach_query("n0")).unwrap();
        assert_eq!(before.answers.len(), 8);

        // Append two edges extending the chain, in two batches.
        let edge = |a: &str, b: &str| Fact::new("Edge", vec![Value::str(a), Value::str(b)]);
        let r1 = session.append_facts([edge("n8", "n9")]).unwrap();
        assert_eq!((r1.appended, r1.duplicates), (1, 0));
        assert_eq!(r1.base_layers, 2);
        let r2 = session
            .append_facts([edge("n9", "n10"), edge("n8", "n9")])
            .unwrap();
        assert_eq!((r2.appended, r2.duplicates), (1, 1), "set semantics hold");
        assert_eq!(r2.base_layers, 3);
        assert_eq!(session.appends(), 2);
        assert_eq!(session.appended_rows(), 2);
        assert_eq!(session.base_stamp(), 2);

        // Union reference: fresh session over initial ∪ appended EDB.
        let mut union_program = chain_program(8);
        union_program.add_fact(edge("n8", "n9"));
        union_program.add_fact(edge("n9", "n10"));
        union_program.add_fact(edge("n8", "n9"));
        let mut rebuilt = Reasoner::new().session(&union_program).unwrap();
        for source in ["n0", "n8", "n5", "n10"] {
            let live = session.query(&reach_query(source)).unwrap();
            let fresh = rebuilt.query(&reach_query(source)).unwrap();
            assert_eq!(
                live.answers, fresh.answers,
                "layered session diverges from union rebuild at {source}"
            );
        }
        // layered probes report their composition in the run stats
        let run = session.query(&reach_query("n0")).unwrap();
        assert!(run.run.stats.pipeline.base_layers >= 3);
    }

    /// A predicate that rules derive and facts also populate: the magic
    /// rewrite must read its stored rows, both when the session opens with
    /// them and when an append gives the predicate its first rows after a
    /// query was compiled without them.
    #[test]
    fn stored_rows_of_a_derived_predicate_reach_magic_answers() {
        let rules = "Triangle(x, y, z) -> Edge(z, x).\n\
                     Edge(x, y) -> Reach(x, y).\n\
                     Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
                     @output(\"Reach\").";
        let edges: Vec<Fact> = [(0, 1), (1, 2), (2, 3), (3, 0)]
            .iter()
            .map(|&(a, b)| Fact::new("Edge", vec![Value::Int(a), Value::Int(b)]))
            .collect();
        let query = Atom::new("Reach", vec![Term::Const(Value::Int(0)), Term::var("y")]);
        let mut with_facts = parse_program(rules).unwrap();
        for e in &edges {
            with_facts.add_fact(e.clone());
        }
        let run = Reasoner::new().reason(&with_facts).unwrap();
        let expected: Vec<Fact> = run
            .output("Reach")
            .iter()
            .filter(|f| f.args[0] == Value::Int(0))
            .cloned()
            .collect();
        assert_eq!(expected.len(), 4);

        let one_shot = Reasoner::new().reason_query(&with_facts, &query).unwrap();
        assert!(one_shot.used_magic_sets);
        assert_eq!(one_shot.answers, expected);
        let mut opened = Reasoner::new().session(&with_facts).unwrap();
        assert_eq!(opened.query(&query).unwrap().answers, expected);

        let mut program = parse_program(rules).unwrap();
        program.add_fact(Fact::new("Other", vec![Value::Int(9)]));
        let mut session = Reasoner::new().session(&program).unwrap();
        let before = session.query(&query).unwrap();
        assert!(before.used_magic_sets && before.answers.is_empty());
        session.append_facts(edges).unwrap();
        let after = session.query(&query).unwrap();
        assert!(after.used_magic_sets);
        assert_eq!(after.answers, expected);
    }

    /// A cyclic query over a layered (appended-to) base routes its
    /// leapfrog tries through the session's stamp-keyed [`HashTrieCache`]:
    /// the first query after an append builds hash tries for the layered
    /// `Edge` view, sibling query shapes at the same stamp reuse them, and
    /// the next append invalidates the whole generation.
    #[test]
    fn layered_cyclic_queries_build_and_reuse_hash_tries() {
        // A ternary core atom in a cyclic triangle with binary companions:
        // the `T` trie walks a three-column permutation the binary probe
        // steps never plan (their prefixes follow the step-order variable
        // determination, not the leapfrog level ranking) — exactly the
        // unindexed-atom case the hash-trie build path covers.
        let mut program = parse_program(
            "T(x, y, u), A(y, v), B(u, v), Pend(x, w) \
             -> Out(x, y, u, v, w).\n\
             @output(\"Out\").",
        )
        .unwrap();
        let t = |a: i64, b: i64, c: i64| {
            Fact::new("T", vec![Value::Int(a), Value::Int(b), Value::Int(c)])
        };
        let bin = |p: &str, a: i64, b: i64| Fact::new(p, vec![Value::Int(a), Value::Int(b)]);
        for f in [
            t(0, 2, 3),
            bin("A", 2, 4),
            bin("B", 3, 4),
            bin("Pend", 0, 100),
        ] {
            program.add_fact(f);
        }
        let mut session = Reasoner::new().session(&program).unwrap();
        // Promote a layer so the core views are layered and read-only — the
        // regime where the pipeline builds hash tries instead of composite
        // sorted runs over the whole chain.
        let batch1 = [
            t(1, 5, 6),
            bin("A", 5, 7),
            bin("B", 6, 7),
            bin("Pend", 1, 101),
        ];
        session.append_facts(batch1.clone()).unwrap();
        let query = |x: i64| Atom {
            predicate: intern("Out"),
            terms: vec![
                Term::Const(Value::Int(x)),
                Term::var("y"),
                Term::var("u"),
                Term::var("v"),
                Term::var("w"),
            ],
        };
        let first = session.query(&query(0)).unwrap();
        let s = &first.run.stats.pipeline;
        assert!(!first.answers.is_empty());
        assert!(
            s.hashtrie_builds > 0,
            "layered cyclic query must build hash tries (stats: {s:?})"
        );
        // A different bound constant is a different cone, so the pipeline
        // runs again — but the tries are served from the shared cache.
        let second = session.query(&query(1)).unwrap();
        let s2 = &second.run.stats.pipeline;
        assert!(!second.answers.is_empty());
        assert_eq!(s2.hashtrie_builds, 0, "same stamp must reuse, not rebuild");
        assert!(s2.hashtrie_reuses > 0, "stats: {s2:?}");
        // An append moves the stamp: the old generation is dropped and the
        // next query rebuilds against the new layer chain.
        let batch2 = [
            t(2, 9, 10),
            bin("A", 9, 11),
            bin("B", 10, 11),
            bin("Pend", 2, 102),
        ];
        session.append_facts(batch2.clone()).unwrap();
        let third = session.query(&query(2)).unwrap();
        assert!(third.run.stats.pipeline.hashtrie_builds > 0);
        // Answers stay correct throughout: compare against a fresh run on
        // the union EDB.
        let mut union_program = program.clone();
        for f in batch1.into_iter().chain(batch2) {
            union_program.add_fact(f);
        }
        let fresh = Reasoner::new()
            .reason_query(&union_program, &query(2))
            .unwrap();
        let sort = |mut v: Vec<Fact>| {
            v.sort();
            v
        };
        assert_eq!(sort(third.answers), sort(fresh.answers));
    }

    #[test]
    fn append_rejects_non_ground_facts() {
        let program = chain_program(2);
        let mut session = Reasoner::new().session(&program).unwrap();
        let null_fact = Fact::new_sym(
            intern("Edge"),
            vec![Value::str("a"), Value::Null(NullId(7))],
        );
        let err = session.append_facts([null_fact]).unwrap_err();
        assert!(matches!(err, ReasonerError::NonGroundAppend { .. }));
        // nothing was promoted
        assert_eq!(session.base_stamp(), 0);
    }

    /// The live materialised instance is maintained incrementally: appends
    /// wake only the filters they reach, aggregates fold the delta, and
    /// the resulting outputs equal a from-scratch materialisation over the
    /// union EDB.
    #[test]
    fn incremental_materialisation_matches_rebuild() {
        let src = "Edge(x, y) -> Reach(x, y).\n\
                   Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
                   Reach(x, y), c = mcount(y) -> OutDegree(x, c).\n\
                   Unrelated(a, b) -> Island(a, b).\n\
                   @output(\"Reach\"). @output(\"OutDegree\"). @output(\"Island\").";
        let mut program = parse_program(src).unwrap();
        for i in 0..6 {
            program.add_fact(Fact::new(
                "Edge",
                vec![
                    Value::str(&format!("n{i}")),
                    Value::str(&format!("n{}", i + 1)),
                ],
            ));
        }
        program.add_fact(Fact::new(
            "Unrelated",
            vec![Value::str("u"), Value::str("v")],
        ));

        let mut session = Reasoner::new().session(&program).unwrap();
        let first = session.materialise().unwrap();
        assert!(first.derived > 0);
        // at fixpoint, a repeat materialise is a no-op sweep
        let repeat = session.materialise().unwrap();
        assert_eq!(repeat.derived, 0);
        assert_eq!(repeat.total_facts, first.total_facts);

        let edge = |a: &str, b: &str| Fact::new("Edge", vec![Value::str(a), Value::str(b)]);
        let mut union_program = program.clone();
        for (a, b) in [("n6", "n7"), ("n7", "n8")] {
            let report = session.append_facts([edge(a, b)]).unwrap();
            assert!(report.appended == 1);
            assert!(
                report.reactivated_filters > 0,
                "append must wake the Edge readers"
            );
            assert!(report.derived > 0, "the delta must derive new reach facts");
            union_program.add_fact(edge(a, b));
        }
        let incremental = session.outputs().unwrap();

        let mut rebuilt = Reasoner::new().session(&union_program).unwrap();
        let scratch = rebuilt.outputs().unwrap();
        let canon = |m: &BTreeMap<Sym, Vec<Fact>>| -> BTreeMap<Sym, Vec<Fact>> {
            m.iter()
                .map(|(p, fs)| {
                    let mut fs = fs.clone();
                    fs.sort();
                    (*p, fs)
                })
                .collect()
        };
        assert_eq!(
            canon(&incremental),
            canon(&scratch),
            "incremental maintenance diverges from rebuild"
        );
        // the delta runs skipped the quiescent filters wholesale
        let stats = session.materialise().unwrap().stats;
        assert!(
            stats.asleep_skips > 0,
            "wake-list must have skipped filters"
        );
        assert!(session.delta_reactivations() > 0);
    }

    #[test]
    fn session_text_parses_and_opens() {
        let mut session = Reasoner::new()
            .session_text(
                "Own(\"a\", \"b\", 0.6). Own(\"b\", \"c\", 0.9).\n\
                 Own(x, y, w), w > 0.5 -> Control(x, y).\n\
                 Control(x, y), Control(y, z) -> Control(x, z).\n\
                 @output(\"Control\").",
            )
            .unwrap();
        let query = Atom {
            predicate: intern("Control"),
            terms: vec![Term::Const(Value::str("a")), Term::var("y")],
        };
        let result = session.query(&query).unwrap();
        assert_eq!(result.answers.len(), 2);
    }

    /// Repeating a magic query at an unchanged stamp is answered straight
    /// from the cone cache: identical answers, zero pipeline work.
    #[test]
    fn cone_cache_serves_exact_repeats_without_running() {
        let program = chain_program(8);
        let mut session = Reasoner::new().session(&program).unwrap();
        let first = session.query(&reach_query("n0")).unwrap();
        assert_eq!(session.cone_cache_misses(), 1);
        let repeat = session.query(&reach_query("n0")).unwrap();
        assert_eq!(session.cone_cache_hits(), 1);
        assert_eq!(repeat.answers, first.answers, "cached answers verbatim");
        assert!(repeat.used_magic_sets);
        // no pipeline ran: the overlay holds zero derived rows...
        assert_eq!(repeat.run.stats.pipeline.snapshot_overlay_rows, 0);
        assert_eq!(repeat.run.stats.pipeline.facts_derived, 0);
        // ...but the snapshot stats still report the shared base.
        assert_eq!(repeat.run.stats.pipeline.edb_rows_reused, 8);
        assert_eq!(session.cone_cache_entries(), 1);

        // With the cache disabled, repeats re-run and never hit.
        let mut cold = Reasoner::with_options(ReasonerOptions {
            cone_cache: false,
            ..Default::default()
        })
        .session(&program)
        .unwrap();
        cold.query(&reach_query("n0")).unwrap();
        let rerun = cold.query(&reach_query("n0")).unwrap();
        assert_eq!(cold.cone_cache_hits(), 0);
        assert!(rerun.run.stats.pipeline.snapshot_overlay_rows > 0);
    }

    /// A more-bound query is answered by filtering a cached subsuming
    /// (freer) cone — no pipeline run — and matches a fresh direct run.
    #[test]
    fn cone_cache_subsumption_specialises_a_freer_cone() {
        let program = chain_program(8);
        let mut session = Reasoner::new().session(&program).unwrap();
        // seed the cache with the freer bound-free cone of n3
        let free = session.query(&reach_query("n3")).unwrap();
        assert!(free.used_magic_sets);
        assert_eq!(session.cone_cache_misses(), 1);

        // the fully-bound query Reach("n3", "n6") is subsumed by it
        let bound_query = Atom {
            predicate: intern("Reach"),
            terms: vec![Term::Const(Value::str("n3")), Term::Const(Value::str("n6"))],
        };
        let bound = session.query(&bound_query).unwrap();
        assert_eq!(session.cone_cache_subsumption_hits(), 1);
        assert_eq!(bound.run.stats.pipeline.facts_derived, 0);
        let fresh = Reasoner::new()
            .reason_query(&program, &bound_query)
            .unwrap();
        let sort = |mut v: Vec<Fact>| {
            v.sort();
            v
        };
        assert_eq!(sort(bound.answers.clone()), sort(fresh.answers));
        assert_eq!(bound.answers.len(), 1);
        // the specialised cone was cached: an exact repeat now hits
        session.query(&bound_query).unwrap();
        assert_eq!(session.cone_cache_hits(), 1);
    }

    /// Forks share everything: the base, the compiled plans, the cone
    /// cache — and appends through one fork invalidate (precisely) for all.
    #[test]
    fn forks_share_cones_compiles_and_appends() {
        let program = chain_program(6);
        let mut a = Reasoner::new().session(&program).unwrap();
        let mut b = a.fork();
        let first = a.query(&reach_query("n0")).unwrap();
        // the fork hits both the compile cache and the cone cache
        let via_fork = b.query(&reach_query("n0")).unwrap();
        assert_eq!(via_fork.answers, first.answers);
        assert_eq!(b.magic_compile_cache_hits(), 1);
        assert_eq!(b.cone_cache_hits(), 1);

        // an append through `a` is visible to `b`'s next query, and the
        // Edge-dependent Reach cone is dropped (not merely refreshed)
        let edge = |x: &str, y: &str| Fact::new("Edge", vec![Value::str(x), Value::str(y)]);
        let report = a.append_facts([edge("n6", "n7")]).unwrap();
        assert_eq!(report.stamp, 1);
        assert!(b.cone_cache_invalidations() >= 1);
        let after = b.query(&reach_query("n0")).unwrap();
        assert_eq!(after.answers.len(), 7, "fork sees the appended edge");
        assert_eq!(after.run.stats.base_stamp, 1);
        assert_eq!(b.cone_cache_misses(), 2);
    }

    /// Appends to predicates outside a cone's transitive dependencies
    /// revalidate its entries instead of dropping them.
    #[test]
    fn appends_outside_the_cone_keep_entries_valid() {
        let mut program = chain_program(4);
        program.add_rule(parse_program("Other(x, y) -> Island(x, y).").unwrap().rules[0].clone());
        program.add_fact(Fact::new("Other", vec![Value::str("u"), Value::str("v")]));
        let mut session = Reasoner::new().session(&program).unwrap();
        let first = session.query(&reach_query("n0")).unwrap();
        // append to Other: Reach's cone (Reach, Edge) is untouched
        session
            .append_facts([Fact::new("Other", vec![Value::str("u2"), Value::str("v2")])])
            .unwrap();
        assert_eq!(session.cone_cache_invalidations(), 0);
        let repeat = session.query(&reach_query("n0")).unwrap();
        assert_eq!(session.cone_cache_hits(), 1, "entry survived the append");
        assert_eq!(repeat.answers, first.answers);
        assert_eq!(repeat.run.stats.base_stamp, 1, "revalidated at new stamp");
    }

    /// The compact_layers threshold bounds the base chain depth; answers
    /// before and after compaction match a union rebuild exactly.
    #[test]
    fn compaction_bounds_layer_depth_and_preserves_answers() {
        let program = chain_program(4);
        let edge = |i: usize| {
            Fact::new(
                "Edge",
                vec![
                    Value::str(&format!("n{i}")),
                    Value::str(&format!("n{}", i + 1)),
                ],
            )
        };
        let mut session = Reasoner::with_options(ReasonerOptions {
            compact_layers: 3,
            ..Default::default()
        })
        .session(&program)
        .unwrap();
        let mut union_program = program.clone();
        for i in 4..12 {
            session.append_facts([edge(i)]).unwrap();
            union_program.add_fact(edge(i));
        }
        assert!(
            session.base_layers() <= 3,
            "chain depth must stay bounded, got {}",
            session.base_layers()
        );
        assert!(session.compactions() > 0);
        assert_eq!(session.base_stamp(), 8, "compaction never bumps the stamp");
        let live = session.query(&reach_query("n0")).unwrap();
        let fresh = Reasoner::new()
            .reason_query(&union_program, &reach_query("n0"))
            .unwrap();
        let sort = |mut v: Vec<Fact>| {
            v.sort();
            v
        };
        assert_eq!(sort(live.answers), sort(fresh.answers));
    }

    fn temp_wal(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("vadalog-session-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(costs_path(&path));
        path
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

    /// Recovery replays the WAL through the live append path: answers,
    /// stamps and layer chains are bit-identical to the session that never
    /// crashed — including a replayed duplicate batch.
    #[test]
    fn wal_recovery_is_bit_identical_to_the_live_session() {
        let path = temp_wal("bitident");
        let program = chain_program(4);
        let (live_answers, live_stamp, live_layers) = {
            let (mut session, report) =
                QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
            assert_eq!(report.batches_replayed, 0);
            session.append_facts([edge(4), edge(5)]).unwrap();
            // a duplicate batch: promotes nothing, but still registers —
            // the log must replay it for registration-order identity
            session.append_facts([edge(4)]).unwrap();
            session.append_facts([edge(6)]).unwrap();
            let answers = session.query(&reach_query("n0")).unwrap().answers;
            (answers, session.base_stamp(), session.base_layers())
        };
        let (mut recovered, report) =
            QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
        assert_eq!(report.batches_replayed, 3);
        assert_eq!(report.facts_replayed, 4);
        assert!(report.torn_tail.is_none());
        assert_eq!(recovered.base_stamp(), live_stamp);
        assert_eq!(recovered.base_layers(), live_layers);
        let recovered_answers = recovered.query(&reach_query("n0")).unwrap().answers;
        assert_eq!(recovered_answers, live_answers, "recovered answers diverge");
        assert_eq!(recovered_answers.len(), 7);
    }

    /// The measured warm-cost table survives a restart through the sidecar.
    #[test]
    fn warm_costs_persist_across_recovery() {
        let path = temp_wal("warm");
        let program = chain_program(8);
        {
            let (mut session, _) =
                QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
            session.query(&reach_query("n0")).unwrap();
            assert!(session.persist_warm_costs().unwrap());
        }
        let (_, report) =
            QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
        assert!(report.warm_plans >= 1, "adorned plan costs restored");
        assert!(!report.corrupt_costs);
        // corrupt sidecar: recovery proceeds cold with the flag set
        let sidecar = costs_path(&path);
        std::fs::write(&sidecar, b"garbage").unwrap();
        let (_, report) =
            QuerySession::recover(&program, ReasonerOptions::default(), &path).unwrap();
        assert!(report.corrupt_costs);
        assert_eq!(report.warm_plans, 0);
    }

    /// The cone cache evicts least-recently-hit entries past the entry cap
    /// and counts the evictions.
    #[test]
    fn cone_cache_evicts_least_recently_hit_past_the_cap() {
        let program = chain_program(12);
        let mut session = Reasoner::with_options(ReasonerOptions {
            cone_cache_cap: 2,
            ..Default::default()
        })
        .session(&program)
        .unwrap();
        session.query(&reach_query("n0")).unwrap();
        session.query(&reach_query("n1")).unwrap();
        // touch n0 so n1 is the LRU victim when n2 lands
        session.query(&reach_query("n0")).unwrap();
        assert_eq!(session.cone_cache_hits(), 1);
        session.query(&reach_query("n2")).unwrap();
        assert_eq!(session.cone_cache_entries(), 2);
        assert_eq!(session.cone_cache_evictions(), 1);
        assert!(session.cone_cache_approx_bytes() > 0);
        // n0 survived (recently hit) ...
        session.query(&reach_query("n0")).unwrap();
        assert_eq!(session.cone_cache_hits(), 2);
        // ... n1 did not: re-deriving it is a miss (3 cold + this one)
        session.query(&reach_query("n1")).unwrap();
        assert_eq!(session.cone_cache_misses(), 4);
    }

    /// A tiny bytes budget evicts by estimated size as well.
    #[test]
    fn cone_cache_bytes_budget_evicts() {
        let program = chain_program(12);
        let mut session = Reasoner::with_options(ReasonerOptions {
            cone_cache_bytes: 256,
            ..Default::default()
        })
        .session(&program)
        .unwrap();
        session.query(&reach_query("n0")).unwrap();
        session.query(&reach_query("n1")).unwrap();
        assert!(session.cone_cache_evictions() >= 1);
        assert!(session.cone_cache_approx_bytes() <= 256);
    }
}
