//! The runnable pipeline: slot-machine joins, termination-strategy wrappers,
//! monotonic aggregation and a scheduler that runs the plan's strata in
//! order, each swept round-robin to its fixpoint (Section 4).
//!
//! # Index-aware joins and condition pushdown
//!
//! The pipeline runs the filters [`AccessPlan::compile`] compiled once:
//! an activation snapshots its delta windows, ensures the index lists its
//! plan names ([`FilterNode::index_lists`]), splits its chunks and hands
//! the workers a reference to the compiled filter. A filter's first
//! activation also builds its constant-holding parts
//! ([`FilterNode::interned`]); no later one compiles anything. Each join
//! step probes its relation's **sorted-run index** on the composite prefix
//! of columns already determined (constants and variables bound by
//! earlier steps) and, where the planner classified a
//! comparison condition as pushable, narrows the same probe with a
//! **range filter** on the condition column (`w > 0.5` becomes part of
//! the index access instead of a post-join filter). Pushed conditions are additionally enforced as
//! id-level **guards** (order-key comparisons, resolving only on key ties)
//! at the first step where both sides are bound, so the residual
//! literals evaluated in emission only ever see the narrowed candidate set.
//! Those run on the binding too: a comparison of variables and constants is
//! the same id-level check, an aggregate keys its state on ids, and only an
//! expression (arithmetic, a call, a Skolem term) resolves the variables it
//! reads. Probe results arrive in ascending `FactId` order by construction,
//! which keeps enumeration deterministic.
//!
//! # Two-level parallel sweeps: batches of chunks
//!
//! Each round-robin sweep of a stratum is executed as a sequence of
//! **batches**: the stratum's filters are scanned in index order, quiescent
//! filters (no input grew since their last activation) are skipped, and a
//! batch grows until it reaches a filter whose input predicates intersect
//! the output predicates of a filter already in the batch — that filter
//! starts the next batch, so within a batch every join reads only
//! relations frozen at batch start.
//!
//! Within a batch the unit of parallel work is not the filter but the
//! **(filter, chunk)** pair: every non-quiescent filter's delta windows (the
//! `FactId`-ascending slices of new rows driving its activation) are split
//! into contiguous chunks by one rule: a window of `rows` rows becomes
//! `rows / CHUNK_MIN_ROWS` chunks, clamped to `[1, parallelism]` (see
//! [`crate::plan::plan_chunk_count`]). All chunks of all filters in the
//! batch go onto one work-stealing queue, so a batch dominated by a single
//! join-heavy filter still loads every worker: its chunks interleave with
//! the other filters' jobs. Each worker claims
//! items against the frozen `&FactStore` with private probe/range counters
//! and a reusable [`vadalog_storage::JoinScratch`], and writes each item's
//! full matches into one flat buffer of ids: a match is a row of its
//! positive body variables' ids ([`FilterNode::body_width`] of them), not
//! an allocation of its own. Afterwards each filter's chunk buffers are
//! concatenated **in chunk order** (which restores the sequential
//! delta-scan order exactly) and the filters are merged **sequentially in
//! filter-index order** through the emission path, which loads each row
//! into one reusable binding and rebuilds every slot past the body
//! (negation, conditions, aggregation, Skolem/null invention, then each
//! head row offered to the store, which cuts exact duplicates and inserts
//! admitted rows at once).
//!
//! Because batch boundaries, the chunk layout (a function of the delta row
//! counts and the worker count only), match enumeration order and the
//! merge order are all independent of worker scheduling, a run is
//! bit-identical — same rows, same `FactId`s, same labelled null ids, same
//! instance statistics — at every parallelism level, including the fully
//! sequential one; the workers only move the (dominant) read-only join work
//! off the critical path. Only the layout diagnostics
//! ([`PipelineStats::intra_filter_chunks`],
//! [`PipelineStats::batch_width_hist`]) follow the worker count, and only
//! [`PipelineStats::steals`] follows scheduling. The knob is
//! [`ReasonerOptions::parallelism`] (default [`default_parallelism`]): it
//! sizes the worker pool and bounds the chunks per delta window. At 1 every
//! non-empty window is one chunk, and the batch's chunks run inline in
//! queue order; a pipeline takes the knob through
//! [`Pipeline::with_options`] and reads no environment.
//!
//! # Null-free runs skip the termination strategy
//!
//! Algorithm 1 cuts chase branches that repeat *labelled nulls*. A run that
//! can never hold one gives it nothing to decide: a ground candidate is
//! isomorphic to a fact only when it equals it, so no stop provenance is
//! ever learnt and the strategy's answer is exactly "not a duplicate". A
//! pipeline is therefore **null-free** while its plan cannot invent a null
//! ([`AccessPlan::invents_nulls`]) and its store holds none
//! ([`FactStore::holds_nulls`]); it then never calls its
//! [`TerminationStrategy`]: [`Relation::insert_row`]'s own duplicate test
//! is the admission decision, counted into [`PipelineStats::strategy`] as
//! `admitted` / `duplicates` (every other strategy counter stays 0).
//!
//! On every run the store decides exact duplicates: a head row its relation
//! already holds is counted as a duplicate and never reaches the strategy
//! ([`offer_row`]). The strategy names facts by the store's `(predicate,
//! FactId)` and reads rows from the store, so a stored fact it never saw is
//! simply the root of its own trees. Loading a fact that carries a null
//! therefore ends the null-free mode without registering anything: the
//! facts stored so far, derived ones included, are roots to the strategy,
//! and admission continues under it (see [`Pipeline::load_facts`]).
//!
//! # Strata
//!
//! [`Pipeline::run`] is one loop over the plan's strata
//! ([`AccessPlan::strata`]), lowest first. A swept stratum runs its filters
//! round-robin, sweep after sweep, until a sweep derives nothing; only then
//! does the next stratum start. A filter's negated relations lie in lower
//! strata, so they are complete before it runs, and a negated atom is
//! checked against its final relation. A negation-free program is one
//! swept stratum. [`PipelineStats::iterations`] and the `max_iterations`
//! cap count sweeps summed over all strata; a cap stops the run in the
//! stratum where it fires, and no later stratum runs.
//!
//! The last stratum can be the fold stratum ([`crate::plan::Stratum::fold`]):
//! sink aggregates, whose heads nothing reads. Each of its filters runs
//! once over the complete instance, as a batch of its own: driven from the
//! body position whose relation has the fewest rows
//! ([`FilterNode::final_driver`]), every other position reading its whole
//! relation, as a check does. Every match folds into a fresh aggregate
//! state and stops there; then the first match of each group, in
//! first-seen order, goes through the ordinary emission path, where
//! re-folding it reads the group's final value. One fact per group is
//! offered, instead of one per match that improves the value. The checks
//! run after the last stratum.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use vadalog_analysis::RuleKind;
use vadalog_chase::{
    offer_row, FactRef, Offer, Step, StrategyHeap, StrategyStats, TerminationStrategy,
};
use vadalog_model::prelude::*;
use vadalog_storage::{
    leapfrog_join, materialise, undo_to, ActiveDomain, FactId, FactStore, JoinScratch,
    ProbeBuffers, Relation, RowPattern, TrieCursor, WcojCounters,
};

use crate::aggregate::AggregateState;
use crate::plan::{
    chunk_windows, plan_chunk_count, AccessPlan, AggArg, CompiledExpr, Core, FilterNode, Guard,
    Interned, ProbeStep, Residual, Source, Stage,
};
use crate::reasoner::ReasonerOptions;

/// Default worker count for the parallel sweep:
/// [`std::thread::available_parallelism`] (1 if that is unavailable). Reads
/// no environment; the `vadalog` binary resolves `VADALOG_PARALLELISM` on top
/// of it.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How rule bodies with a cyclic core are joined. Acyclic bodies always run
/// the all-probe plan; the final instance is bit-identical either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// The free-join executor (the default): leapfrog the cyclic core — the
    /// irreducible residue of GYO ear reduction, which for a fully cyclic
    /// body is every atom — while acyclic ears keep binary probe stages
    /// before and after it.
    #[default]
    FreeJoin,
    /// The all-probe plan for every body: the reference the property
    /// suites and `tests/config_matrix.rs` compare the free-join executor
    /// against.
    Binary,
}

/// The full matches of a work item, then of a job's whole batch: one flat
/// row per match of the ids of the positive body variables, `stride`
/// (the filter's [`FilterNode::body_width`]) ids each. Every full match
/// binds all of them, so a row needs no unbound marker; the variables past
/// them (negated-only, assigned, existential) are computed again when the
/// match is emitted. `len` counts rows apart from `ids`, since a body
/// without variables has rows of width 0.
struct MatchBuf {
    stride: usize,
    len: usize,
    ids: Vec<ValueId>,
}

impl MatchBuf {
    fn new(stride: usize) -> Self {
        MatchBuf {
            stride,
            len: 0,
            ids: Vec::new(),
        }
    }

    /// Append the full match `binding` holds.
    fn push(&mut self, binding: &[Option<ValueId>]) {
        self.ids.extend(body_ids(binding, self.stride));
        self.len += 1;
    }

    /// Append one row of `stride` ids.
    fn push_row(&mut self, row: &[ValueId]) {
        self.ids.extend_from_slice(row);
        self.len += 1;
    }

    /// Append another buffer's rows after this one's.
    fn append(&mut self, other: MatchBuf) {
        if self.len == 0 {
            *self = other;
        } else {
            self.ids.extend_from_slice(&other.ids);
            self.len += other.len;
        }
    }

    /// The rows, in the order they were appended.
    fn rows(&self) -> impl Iterator<Item = &[ValueId]> {
        (0..self.len).map(|m| &self.ids[m * self.stride..(m + 1) * self.stride])
    }
}

/// The ids of a full match's body variables: the first `stride` slots of
/// its binding.
fn body_ids(binding: &[Option<ValueId>], stride: usize) -> impl Iterator<Item = ValueId> + '_ {
    binding[..stride]
        .iter()
        .map(|id| id.expect("a full match binds every body variable"))
}

/// Load `row` into `binding` for emission: the body slots bound to its
/// ids, every later slot unbound.
fn load_row(binding: &mut [Option<ValueId>], row: &[ValueId]) {
    let (body, rest) = binding.split_at_mut(row.len());
    for (slot, id) in body.iter_mut().zip(row) {
        *slot = Some(*id);
    }
    rest.fill(None);
}

/// Per-item join statistics, summed per batch into [`PipelineStats`]; the
/// sums do not depend on how the work was chunked, so totals match the
/// sequential engine exactly.
#[derive(Clone, Copy, Default)]
struct JoinCounters {
    join_probes: u64,
    index_probes: u64,
    range_probes: u64,
    scan_fallbacks: u64,
    /// Leapfrog cursor seeks (intersect stages only).
    wcoj_seeks: u64,
    /// Values surviving a full leapfrog intersection.
    wcoj_intersections: u64,
}

impl JoinCounters {
    /// Fold another item's counters in (u64 sums: the total is independent
    /// of how the work was chunked).
    fn merge(&mut self, other: JoinCounters) {
        self.join_probes += other.join_probes;
        self.index_probes += other.index_probes;
        self.range_probes += other.range_probes;
        self.scan_fallbacks += other.scan_fallbacks;
        self.wcoj_seeks += other.wcoj_seeks;
        self.wcoj_intersections += other.wcoj_intersections;
    }
}

/// One contiguous shard of a delta window: rows `[from, to)` of body
/// position `delta_idx`'s delta. Chunks are kept in ascending
/// `(delta_idx, from)` order so concatenating their match buffers restores
/// the sequential enumeration order exactly.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    delta_idx: usize,
    from: usize,
    to: usize,
}

/// One entry of a batch's work queue: a chunk of a job.
#[derive(Clone, Copy, Debug)]
struct WorkItem {
    /// Index into the batch's job list.
    job: usize,
    /// Index into the job's [`FilterJob::chunks`].
    chunk: usize,
}

impl CompiledExpr {
    /// The substitution the expression is evaluated over.
    fn subst(&self, binding: &[Option<ValueId>], assigned: &[Option<Datum>]) -> Substitution {
        let mut subst = Substitution::new();
        for &(var, src) in self.reads.iter() {
            if let Some(value) = read_value(src, binding, assigned) {
                subst.bind(var, value);
            }
        }
        subst
    }
}

/// An aggregation argument or an assignment's result: an interned id, or a
/// value not interned (yet).
enum Datum {
    Id(ValueId),
    Value(Value),
}

impl Datum {
    fn id(&self) -> ValueId {
        match self {
            Datum::Id(id) => *id,
            Datum::Value(value) => intern_value(value),
        }
    }

    fn value(&self) -> Value {
        match self {
            Datum::Id(id) => resolve_value(*id),
            Datum::Value(value) => value.clone(),
        }
    }
}

/// The stored fact `pattern` matched under `binding`, named by the store.
/// A body pattern is fully bound after the join, so instantiating it into
/// `row` (scratch) cannot fail.
fn stored_parent(
    store: &FactStore,
    pattern: &RowPattern,
    binding: &[Option<ValueId>],
    row: &mut Vec<ValueId>,
) -> Option<FactRef> {
    row.clear();
    if !pattern.instantiate_into(binding, row) {
        return None;
    }
    FactRef::find(store, pattern.predicate, row)
}

/// The value of `src` in the current match (`None`: unbound).
fn read_value(
    src: Source,
    binding: &[Option<ValueId>],
    assigned: &[Option<Datum>],
) -> Option<Value> {
    match src {
        Source::Slot(slot) => binding[slot].map(resolve_value),
        Source::Assigned(r) => assigned[r].as_ref().map(Datum::value),
    }
}

/// The id of `src` in the current match (`None`: unbound).
fn read_id(
    src: Source,
    binding: &[Option<ValueId>],
    assigned: &[Option<Datum>],
) -> Option<ValueId> {
    match src {
        Source::Slot(slot) => binding[slot],
        Source::Assigned(r) => assigned[r].as_ref().map(Datum::id),
    }
}

/// What [`Pipeline::accept`] runs a match for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pass {
    /// A sweep activation: aggregates fold into the filter's state and
    /// Skolem terms mint nulls.
    Fire,
    /// The fold stratum's fold: like [`Pass::Fire`], but the match stops
    /// at the (single) aggregate once it has folded.
    Fold,
    /// A constraint / EGD check: no state changes.
    Check,
}

/// Per-match scratch of [`Pipeline::accept`], reused across matches: the
/// residual literals' results, the group and mcount keys of an aggregate,
/// and the negation probes' buffers.
#[derive(Default)]
struct ResidualScratch {
    assigned: Vec<Option<Datum>>,
    group_ids: Vec<ValueId>,
    key_ids: Vec<ValueId>,
    neg_bufs: ProbeBuffers,
}

/// One activation: the compiled filter it runs, its delta windows, its
/// join strategy and its shard plan. Prepared sequentially and shipped to
/// the sweep workers by reference.
struct FilterJob<'p> {
    /// Index of the filter in the plan; check `c` runs as job
    /// `filters.len() + c`.
    f_idx: usize,
    /// The compiled filter.
    node: &'p FilterNode,
    /// Its constant-holding parts.
    interned: &'p Interned,
    /// Do the positions with a [`Core`] run its intersect stage
    /// (`JoinStrategy::FreeJoin`)? The all-probe steps otherwise.
    free_join: bool,
    /// Per-body-position `(consumed, snapshot)` delta windows.
    deltas: Vec<(usize, usize)>,
    /// Every non-empty delta window split into contiguous chunks, in
    /// `(delta_idx, from)` order; one chunk per window at one worker.
    chunks: Vec<Chunk>,
}

impl FilterJob<'_> {
    /// An empty match buffer for this job's filter.
    fn matches(&self) -> MatchBuf {
        MatchBuf::new(self.node.body_width)
    }

    /// Semi-naive row limit of body position `pos` when `delta_idx` drives
    /// the join: positions strictly before the delta position are
    /// restricted to old facts, so each new combination is seen exactly
    /// once.
    fn limit(&self, pos: usize, delta_idx: usize) -> usize {
        if pos < delta_idx {
            self.deltas[pos].0
        } else {
            self.deltas[pos].1
        }
    }
}

/// What every stage of one chunk's join reads: the frozen store, the job,
/// the delta position and the stage list chosen for it.
struct JoinCx<'a, 'r> {
    store: &'r FactStore,
    job: &'a FilterJob<'a>,
    delta_idx: usize,
    /// The delta position's steps.
    steps: &'a [ProbeStep],
    /// Are full matches buffered with their support vectors and sorted per
    /// delta row (an intersect stage or a reordered plan), rather than
    /// pushed straight into the results in enumeration order?
    restore_order: bool,
    /// The plan's stages after the delta scan.
    stages: &'a [Stage],
    /// The free-join plan `stages` belongs to; `None` for the all-probe
    /// plan.
    core: Option<&'a Core>,
    /// Relation and semi-naive limit of each core trie, parallel to
    /// `core.tries`.
    core_rels: &'a [(&'r Relation, usize)],
}

/// Statistics of a pipeline run.
#[derive(Clone, Copy, Default, Debug)]
pub struct PipelineStats {
    /// Round-robin sweeps, summed over all swept strata.
    pub iterations: usize,
    /// Disjoint-input filter batches executed across all sweeps (each batch
    /// is one parallel join fan-out followed by one deterministic merge),
    /// plus one batch per fold-stratum filter pass and the one batch of
    /// constraint/EGD checks when the plan has any.
    pub sweep_batches: usize,
    /// Filter activations that produced at least one new fact.
    pub productive_activations: usize,
    /// Facts admitted into the instance (beyond the EDB).
    pub facts_derived: usize,
    /// Candidate facts suppressed by the termination wrapper.
    pub facts_suppressed: usize,
    /// Join probes performed (candidate facts examined).
    pub join_probes: u64,
    /// Probes answered by a dynamic index instead of a scan.
    pub index_probes: u64,
    /// Index probes that additionally pushed a comparison condition down as
    /// a sorted-run range scan.
    pub range_probes: u64,
    /// Join steps that fell back to scanning the row table (no usable index
    /// or no bound probe column).
    pub scan_fallbacks: u64,
    /// Labelled nulls invented.
    pub nulls_invented: u64,
    /// Join work items executed across all batches: delta-window chunks,
    /// one per non-empty window at one worker. With more workers,
    /// `intra_filter_chunks / productive_activations` measures the
    /// intra-filter parallel slack. A function of the delta window sizes and
    /// the worker count (the shard bound) — repeatable run to run.
    pub intra_filter_chunks: u64,
    /// The most matches one batch held at once: the full matches its join
    /// collected, summed over its filters, before their emission. A
    /// function of the data alone, like the match count, so it is the same
    /// at every worker count; each match is held as
    /// [`FilterNode::body_width`] ids.
    pub peak_batch_matches: u64,
    /// Chunks picked up by a worker other than the one that claimed their
    /// filter's first chunk (per filter and batch: distinct claiming
    /// workers − 1). A scheduling diagnostic: unlike every other counter it
    /// depends on thread timing and is **not** deterministic across runs.
    pub steals: u64,
    /// Delta positions with an intersect stage and no ears (fully cyclic
    /// rule bodies, every non-delta atom a leapfrog trie), summed over the
    /// activations that drive them under [`JoinStrategy::FreeJoin`]: a
    /// sweep activation counts every such position of its filter, whether
    /// or not its delta window holds rows; a check or fold-stratum run
    /// counts its driver's. Not a count of plans compiled, nor of
    /// productive activations.
    pub wcoj_activations: u64,
    /// Leapfrog cursor seeks performed by intersect stages. A pure function
    /// of the store contents — deterministic at every thread
    /// count and chunk size.
    pub wcoj_seeks: u64,
    /// Values that survived a full per-variable leapfrog intersection.
    pub wcoj_intersections: u64,
    /// Delta positions with an intersect stage over a proper cyclic core
    /// (bodies with acyclic ears around it, probed before or after the
    /// leapfrog, or scanned as the delta atom), summed over activations as
    /// [`PipelineStats::wcoj_activations`] is.
    pub hybrid_activations: u64,
    /// Always 0: every leapfrog trie walks its relation's own sorted-run
    /// index. Kept only for the benchmark's API footprint.
    pub hashtrie_builds: u64,
    /// Always 0, like [`PipelineStats::hashtrie_builds`]. Kept only for the
    /// benchmark's API footprint.
    pub hashtrie_reuses: u64,
    /// Always 0: a step probes the pushed range its plan names. Kept only
    /// for the benchmark's API footprint, like
    /// [`PipelineStats::hashtrie_builds`].
    pub adaptive_range_picks: u64,
    /// Interned EDB rows reused from a shared copy-on-write snapshot base
    /// (see [`vadalog_storage::StoreBase`]): rows this run read without
    /// re-interning or re-indexing them. 0 for a bare [`Pipeline`] over a
    /// store of its own; every `Reasoner` run reads a session base.
    pub edb_rows_reused: u64,
    /// Rows the run wrote into its copy-on-write overlays (equals
    /// `facts_derived` plus loaded non-base facts on a session run; on a
    /// plain store it counts every row, EDB included).
    pub snapshot_overlay_rows: u64,
    /// Hits in the session's (program, adornment) → compiled-plan cache.
    /// Filled in by `QuerySession` (cumulative over the session at the time
    /// of the run); always 0 for a bare [`Pipeline`] run.
    pub magic_compile_cache_hits: u64,
    /// Shared row segments under this run's store (the most any relation
    /// holds): 0 for a bare [`Pipeline`] over a store of its own, 1 for a
    /// fresh session overlay, up to
    /// ⌊log2 rows⌋ + 1 after `append_facts` promotions (see
    /// [`vadalog_storage::StoreBase::promote`]).
    pub base_layers: u64,
    /// Filter activations skipped by the wake-list without snapshotting
    /// their delta windows: the filter was asleep (no input grew since it
    /// last went quiescent). A pure function of the data — writes wake
    /// readers deterministically — so the counter is thread-invariant.
    pub asleep_skips: u64,
    /// Per-batch histogram of parallel join work items: batches of width
    /// 1, 2–3, 4–7, 8–15 and ≥16 (see [`BATCH_WIDTH_BUCKETS`]).
    pub batch_width_hist: [u64; BATCH_WIDTH_BUCKETS],
    /// Termination-strategy statistics.
    pub strategy: StrategyStats,
    /// The cap that stopped the sweeps while they were still deriving
    /// facts: the instance is then a truncated prefix of the fixpoint, not
    /// the fixpoint. `None` when the last sweep derived nothing. The fact
    /// cap fires only once the store holds more than `max_facts` facts, so
    /// a fixpoint of at most `max_facts` facts is never reported capped; a
    /// run that meets the sweep cap exactly at its fixpoint still reports
    /// it, as the sweep that would have confirmed the fixpoint never ran.
    pub capped: Option<RunCap>,
    /// Heap bytes the termination strategy held at the end of the run,
    /// counted by capacity: [`PipelineStats::strategy_heap`]'s total.
    pub strategy_bytes: u64,
    /// [`PipelineStats::strategy_bytes`] by structure: fact records,
    /// forest members, the provenance trie and pattern forms
    /// ([`TerminationStrategy::heap_bytes`]).
    pub strategy_heap: StrategyHeap,
    /// Stored rows the termination strategy compared candidates with
    /// ([`TerminationStrategy::iso_comparisons`]): the work behind
    /// `strategy.isomorphism_checks`.
    pub iso_comparisons: u64,
}

/// A [`ReasonerOptions`] cap that stopped a run before its fixpoint (see
/// [`PipelineStats::capped`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunCap {
    /// `max_iterations` sweeps ran, summed over the strata.
    Iterations(usize),
    /// The store held more than `max_facts` facts.
    Facts(usize),
}

/// Number of buckets in [`PipelineStats::batch_width_hist`]: widths 1, 2–3,
/// 4–7, 8–15 and ≥16.
pub const BATCH_WIDTH_BUCKETS: usize = 5;

/// Histogram bucket of a batch executing `items` parallel work items.
fn batch_width_bucket(items: usize) -> usize {
    match items {
        0..=1 => 0,
        2..=3 => 1,
        4..=7 => 2,
        8..=15 => 3,
        _ => 4,
    }
}

/// A runnable pipeline over an [`AccessPlan`]: the plan borrow plus the
/// run state — store, termination strategy, per-filter cursors, aggregate
/// states, skolem/null factories, wake list and statistics.
pub struct Pipeline<'a> {
    plan: &'a AccessPlan,
    strategy: Box<dyn TerminationStrategy>,
    store: FactStore,
    nulls: NullFactory,
    /// cursors[filter][body_atom_position] = facts of that predicate already
    /// consumed by the filter at that position.
    cursors: Vec<Vec<usize>>,
    /// Aggregation state: per filter, one per aggregate of its rule.
    agg_states: Vec<Vec<AggregateState>>,
    /// Deterministic Skolem-term cache: (function, arguments) -> labelled null.
    skolems: HashMap<(Sym, Vec<Value>), Value>,
    /// The execution knobs (see [`ReasonerOptions`]); every setting yields
    /// the same final instance, only the access paths and scheduling move.
    options: ReasonerOptions,
    /// Wake-list of the semi-naive scheduler: `awake[f] == false` means no
    /// input of filter `f` has grown since it last went quiescent, so the
    /// sweep skips it without snapshotting its delta windows. Writes wake
    /// readers (via [`FilterNode::reads_any`]), so the flag is a pure
    /// function of the data and the activation set matches cursor-only
    /// scheduling exactly.
    awake: Vec<bool>,
    /// Admission mode (see the module docs): `true` while the plan cannot
    /// invent a null and the store holds none, so the strategy is never
    /// called and the store's dedup admits.
    null_free: bool,
    /// Rows the store's dedup decided: every `duplicates`, and the
    /// `admitted` of a null-free run. Added to the strategy's own counts in
    /// [`PipelineStats::strategy`].
    dedup_stats: StrategyStats,
    stats: PipelineStats,
}

impl<'a> Pipeline<'a> {
    /// Build a pipeline over a plan with the given termination strategy,
    /// under [`ReasonerOptions::default`] with no sweep cap.
    pub fn new(plan: &'a AccessPlan, strategy: Box<dyn TerminationStrategy>) -> Self {
        let n = plan.filters.len();
        Pipeline {
            plan,
            strategy,
            store: FactStore::new(),
            nulls: NullFactory::new(),
            cursors: plan
                .filters
                .iter()
                .map(|f| vec![0; f.rule.body_atoms().len()])
                .collect(),
            agg_states: vec![Vec::new(); n],
            skolems: HashMap::new(),
            options: ReasonerOptions {
                max_iterations: usize::MAX,
                ..ReasonerOptions::default()
            },
            awake: vec![true; n],
            null_free: !plan.invents_nulls,
            dedup_stats: StrategyStats::default(),
            stats: PipelineStats::default(),
        }
    }

    /// Run under `options`' execution knobs: worker count (also the shard
    /// bound), join strategy and the sweep/fact caps (worker count clamped
    /// to ≥ 1). The final instance — rows, `FactId`s, labelled-null ids —
    /// is bit-identical at every setting of the first two; only the
    /// probe/seek counters reflect which access paths ran.
    pub fn with_options(mut self, options: &ReasonerOptions) -> Self {
        self.options = ReasonerOptions {
            parallelism: options.parallelism.max(1),
            ..*options
        };
        self
    }

    /// Cap the number of sweeps, summed over the strata.
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        self.options.max_iterations = max;
        self
    }

    /// Load the extensional database. The loaded predicates' readers are
    /// woken, so a [`Pipeline::run`] after an earlier one treats the new
    /// rows as deltas. Such a run only adds facts: one derived earlier
    /// through a negated atom the new rows now match stays, so it equals a
    /// fresh run over all the rows only on a plan without negation.
    ///
    /// The first fact that carries a labelled null ends a null-free run
    /// (see the module docs). Nothing is registered with the strategy: it
    /// reads stored facts from the store, and a fact it never admitted is
    /// the root of its own trees with the empty provenance. Before the
    /// first [`Pipeline::run`] that is exactly what a run under the
    /// strategy from the start would see. On a pipeline that has already
    /// derived facts under the null-free mode it is a weakening: those
    /// facts are roots, instead of where a run under the strategy from the
    /// start would have placed them.
    pub fn load_facts<I>(&mut self, facts: I)
    where
        I: IntoIterator,
        I::Item: Borrow<Fact>,
    {
        let mut preds: BTreeSet<Sym> = BTreeSet::new();
        self.store.load_facts(facts.into_iter().inspect(|f| {
            preds.insert(f.borrow().predicate);
        }));
        self.null_free &= !self.store.holds_nulls();
        self.wake_readers(&preds);
    }

    /// Wake every filter reading one of `preds` (their delta windows may
    /// have grown).
    fn wake_readers(&mut self, preds: &BTreeSet<Sym>) {
        for (g, filter) in self.plan.filters.iter().enumerate() {
            if !self.awake[g] && filter.reads_any(preds) {
                self.awake[g] = true;
            }
        }
    }

    /// Start from a pre-populated store — typically a copy-on-write overlay
    /// over a session's frozen EDB base (see
    /// [`vadalog_storage::StoreBase::overlay`]). The admission mode is
    /// re-decided from the plan and [`FactStore::holds_nulls`]. The
    /// strategy needs nothing registered: it reads the store's facts as
    /// roots. Facts loaded afterwards via [`Pipeline::load_facts`] go on
    /// top.
    pub fn with_store(mut self, store: FactStore) -> Self {
        self.null_free = !self.plan.invents_nulls && !store.holds_nulls();
        self.store = store;
        self
    }

    /// Run the plan's strata in order, each to its fixpoint (see the
    /// module docs' "Strata"); returns the violations of the plan's
    /// constraint/EGD checks.
    pub fn run(&mut self) -> Vec<String> {
        self.stats.edb_rows_reused = self.store.base_rows() as u64;
        self.stats.base_layers = self.store.max_segments() as u64;
        // Populate the Dom relation when the plan references it.
        let dom_sym = intern(vadalog_rewrite::DOM_PREDICATE);
        if self
            .plan
            .filters
            .iter()
            .any(|f| f.inputs.contains(&dom_sym))
            || self
                .plan
                .checks
                .iter()
                .any(|c| c.rule.body_predicates().contains(&dom_sym))
        {
            let dom = ActiveDomain::from_facts(self.store.iter())
                .to_facts(vadalog_rewrite::DOM_PREDICATE);
            if self.store.load_facts(&dom) > 0 {
                // On a run after more loads, new constants may extend Dom:
                // its readers must see the delta.
                self.wake_readers(&BTreeSet::from([dom_sym]));
            }
        }

        // One loop over the plan's strata, lowest first: a stratum starts
        // once every stratum below it has reached its fixpoint, so each
        // relation a filter negates is complete when the filter runs. A
        // cap stops the run where it fires: no later stratum runs over an
        // incomplete instance.
        self.stats.capped = None;
        let plan = self.plan;
        for stratum in &plan.strata {
            if stratum.fold {
                self.fold_stratum(&stratum.filters);
            } else if !self.sweep_to_fixpoint(&stratum.filters) {
                break;
            }
        }

        self.stats.nulls_invented = self.nulls.produced();
        let strategy = self.strategy.stats();
        self.stats.strategy = StrategyStats {
            admitted: strategy.admitted + self.dedup_stats.admitted,
            duplicates: strategy.duplicates + self.dedup_stats.duplicates,
            ..strategy
        };
        self.stats.strategy_heap = self.strategy.heap_bytes();
        self.stats.strategy_bytes = self.stats.strategy_heap.total();
        self.stats.iso_comparisons = self.strategy.iso_comparisons();
        self.stats.snapshot_overlay_rows = self.store.overlay_rows() as u64;

        self.run_checks()
    }

    /// Sweep one stratum's `filters` round-robin until a sweep derives
    /// nothing. Returns `false` when a cap stopped it first (see
    /// [`PipelineStats::capped`]).
    fn sweep_to_fixpoint(&mut self, filters: &[usize]) -> bool {
        loop {
            if self.stats.iterations >= self.options.max_iterations {
                self.stats.capped = Some(RunCap::Iterations(self.options.max_iterations));
                return false;
            }
            if self.store.len() > self.options.max_facts {
                self.stats.capped = Some(RunCap::Facts(self.options.max_facts));
                return false;
            }
            self.stats.iterations += 1;
            let mut any = false;
            // Round-robin sweep: every filter gets one activation per sweep,
            // in a fixed order, which the paper found to balance the workload
            // and propagate facts breadth-first. The sweep is executed as a
            // sequence of disjoint-input batches (see the module docs): each
            // batch's joins fan out over the worker pool against the frozen
            // store, then the matches are merged in filter-index order, so
            // the result is bit-identical to activating the filters one at
            // a time.
            let mut next = 0;
            while next < filters.len() {
                let (jobs, scanned_to) = self.build_batch(filters, next);
                next = scanned_to;
                if jobs.is_empty() {
                    continue;
                }
                let results = self.collect_batch(&jobs);
                for (job, matches) in jobs.iter().zip(results) {
                    if self.emit(job, matches) {
                        any = true;
                        self.stats.productive_activations += 1;
                        // The filter wrote rows: wake the readers of its
                        // head predicates so their next prepare sees the
                        // delta even if they had gone quiescent.
                        let plan = self.plan;
                        self.wake_readers(&plan.filters[job.f_idx].outputs);
                    }
                }
            }
            if !any {
                return true;
            }
        }
    }

    /// Run the fold stratum (see the module docs): each of its `filters`
    /// whose body relations grew since its last pass runs once over the
    /// complete instance, in filter order, one batch per filter.
    fn fold_stratum(&mut self, filters: &[usize]) {
        let plan = self.plan;
        for &f_idx in filters {
            let filter = &plan.filters[f_idx];
            let rows: Vec<usize> = filter
                .rule
                .body_atoms()
                .iter()
                .map(|atom| self.store.relation(atom.predicate).map_or(0, Relation::len))
                .collect();
            // The last pass's emission left the cursors at the lengths it read.
            if rows == self.cursors[f_idx] {
                continue;
            }
            let driver = filter.final_driver(&rows);
            let (job, matches) = self
                .run_whole(&[(filter, f_idx, driver)])
                .pop()
                .expect("one run gives one job");
            self.agg_states[f_idx] = vec![AggregateState::new()];
            let mut firsts = MatchBuf::new(matches.stride);
            let mut scratch = ResidualScratch::default();
            let mut binding = vec![None; filter.slots.len()];
            for row in matches.rows() {
                load_row(&mut binding, row);
                let groups = self.agg_states[f_idx][0].groups();
                if self.accept(&job, Pass::Fold, &mut binding, &mut scratch)
                    && self.agg_states[f_idx][0].groups() > groups
                {
                    firsts.push_row(row);
                }
            }
            if self.emit(&job, firsts) {
                self.stats.productive_activations += 1;
            }
        }
    }

    /// Activate each `(node, job number, driver)` for one run over the
    /// complete instance and collect them as one batch. The driver's window
    /// is its whole relation, and every other position reads its whole
    /// relation; only the driver's position runs. Returns each job with its
    /// matches, in order. The checks and the fold stratum share it.
    fn run_whole<'p>(
        &mut self,
        runs: &[(&'p FilterNode, usize, Option<usize>)],
    ) -> Vec<(FilterJob<'p>, MatchBuf)> {
        let mut jobs = Vec::with_capacity(runs.len());
        for &(node, f_idx, driver) in runs {
            let deltas = node
                .body_predicates
                .iter()
                .enumerate()
                .map(|(pos, predicate)| {
                    let len = self.store.relation(*predicate).map_or(0, Relation::len);
                    (if Some(pos) == driver { 0 } else { len }, len)
                })
                .collect();
            jobs.push(self.activate(node, f_idx, deltas, driver));
        }
        let results = self.collect_batch(&jobs);
        jobs.into_iter().zip(results).collect()
    }

    /// Check the plan's constraints and EGDs on the final instance, as one
    /// batch on the join executor ([`Pipeline::run_whole`]), each driven
    /// from its [`FilterNode::check_driver`]. A check with no positive atom
    /// is evaluated once, on the empty binding. Violations come in check
    /// order, and within a check in the executor's enumeration order, which
    /// no worker count or join strategy changes.
    fn run_checks(&mut self) -> Vec<String> {
        let plan = self.plan;
        if plan.checks.is_empty() {
            return Vec::new();
        }
        // Check jobs are numbered after the filters, so the executor's
        // per-job state (its trie memos) never mixes the two.
        let first = plan.filters.len();
        let runs: Vec<(&FilterNode, usize, Option<usize>)> = plan
            .checks
            .iter()
            .enumerate()
            .map(|(c, check)| (check, first + c, check.check_driver()))
            .collect();
        let results = self.run_whole(&runs);
        let mut violations = Vec::new();
        let mut scratch = ResidualScratch::default();
        for (job, mut matches) in results {
            let node = job.node;
            if node.body_predicates.is_empty() {
                matches.push_row(&[]);
            }
            let rule = &node.rule;
            let mut binding = vec![None; node.slots.len()];
            for row in matches.rows() {
                load_row(&mut binding, row);
                if !self.accept(&job, Pass::Check, &mut binding, &mut scratch) {
                    continue;
                }
                // The substitution the message prints: the binding, with
                // each assigned variable read exactly as computed.
                let mut m = materialise(&node.slots, &binding);
                for (residual, value) in job.interned.residuals.iter().zip(&scratch.assigned) {
                    if let (Residual::Assign { var, .. }, Some(value)) = (residual, value) {
                        m.bind(*var, value.value());
                    }
                }
                match &rule.head {
                    RuleHead::Falsum => {
                        violations.push(format!("constraint violated: {rule} under {m}"))
                    }
                    RuleHead::Equality(a, b) => {
                        let resolve = |t: &Term| match t {
                            Term::Const(c) => Some(c.clone()),
                            Term::Var(v) => m.get(*v).cloned(),
                        };
                        if let (Some(l), Some(r)) = (resolve(a), resolve(b)) {
                            if l.is_ground() && r.is_ground() && l != r {
                                violations.push(format!("egd violated: {rule} binds {l} ≠ {r}"));
                            }
                        }
                    }
                    RuleHead::Atoms(_) => {}
                }
            }
        }
        violations
    }

    /// The final instance.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Consume the pipeline, returning the final instance.
    pub fn into_store(self) -> FactStore {
        self.store
    }

    /// Run statistics.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Build one sweep batch from a stratum's `filters`, starting at
    /// position `start`: scan them in order, preparing every non-quiescent
    /// one, and stop at the first filter whose inputs (positive or negated
    /// body predicates) intersect the outputs of a filter already in the
    /// batch — that filter must see the batch's inserts, so it starts the
    /// next batch. Returns the prepared jobs and the position the scan
    /// stopped at.
    fn build_batch(&mut self, filters: &[usize], start: usize) -> (Vec<FilterJob<'a>>, usize) {
        let mut jobs = Vec::new();
        let mut batch_outputs: BTreeSet<Sym> = BTreeSet::new();
        let mut i = start;
        while i < filters.len() {
            let filter = &self.plan.filters[filters[i]];
            if !jobs.is_empty() && filter.reads_any(&batch_outputs) {
                break;
            }
            if let Some(job) = self.prepare(filters[i]) {
                batch_outputs.extend(filter.outputs.iter().copied());
                jobs.push(job);
            }
            i += 1;
        }
        (jobs, i)
    }

    /// Prepare one filter for activation: snapshot its delta windows and
    /// [`Pipeline::activate`] it. Returns `None` when the filter is
    /// quiescent (no input grew since its last activation) — at fixpoint
    /// approach most filters are quiescent in every sweep, and skip all
    /// per-activation work.
    fn prepare(&mut self, f_idx: usize) -> Option<FilterJob<'a>> {
        if !self.awake[f_idx] {
            // No input grew since the filter last went quiescent: skip it
            // without even snapshotting its delta windows. Equivalent to
            // the cursor check below (asleep implies empty deltas), so the
            // activation set — and the final instance — is unchanged.
            self.stats.asleep_skips += 1;
            return None;
        }
        let filter = &self.plan.filters[f_idx];
        if filter.body_predicates.is_empty() {
            return None;
        }
        let deltas: Vec<(usize, usize)> = self.cursors[f_idx]
            .iter()
            .zip(filter.body_predicates.iter())
            .map(|(from, predicate)| {
                let to = self.store.relation(*predicate).map_or(0, Relation::len);
                (*from, to)
            })
            .collect();
        if deltas.iter().all(|(from, to)| from >= to) {
            self.awake[f_idx] = false;
            return None;
        }
        let job = self.activate(filter, f_idx, deltas, None);
        let aggregates = job
            .interned
            .residuals
            .iter()
            .filter(|r| matches!(r, Residual::Aggregate { .. }))
            .count();
        if self.agg_states[f_idx].len() < aggregates {
            self.agg_states[f_idx].resize_with(aggregates, AggregateState::new);
        }
        Some(job)
    }

    /// Start an activation of `node`, as job `f_idx`, over the delta
    /// windows `deltas`, driving `driver` (every delta position when
    /// `None`): intern its constants at its first activation
    /// ([`FilterNode::interned`]); ensure (and flush) the index lists its
    /// driven positions probe ([`FilterNode::index_lists`]), so the batch's
    /// workers never hit the `probe_if_indexed` miss path against the
    /// frozen store; count its intersect stages; and split every non-empty
    /// window into contiguous chunks by its row count and the worker count
    /// alone ([`plan_chunk_count`]). Sequential-path only: interner writes
    /// and index builds happen in a fixed order.
    fn activate<'p>(
        &mut self,
        node: &'p FilterNode,
        f_idx: usize,
        deltas: Vec<(usize, usize)>,
        driver: Option<usize>,
    ) -> FilterJob<'p> {
        let interned = node.interned();
        let free_join = self.options.join_strategy == JoinStrategy::FreeJoin;
        for (predicate, cols) in node.index_lists(driver, free_join) {
            self.store.relation_mut(predicate).ensure_index(cols);
        }
        if free_join {
            for core in node.driven(driver).filter_map(|dp| dp.core.as_ref()) {
                if core.ears > 0 {
                    self.stats.hybrid_activations += 1;
                } else {
                    self.stats.wcoj_activations += 1;
                }
            }
        }
        let mut chunks = Vec::new();
        for (delta_idx, &(from, to)) in deltas.iter().enumerate() {
            if from >= to {
                continue;
            }
            let k = plan_chunk_count(to - from, self.options.parallelism);
            for (a, b) in chunk_windows(from, to, k) {
                chunks.push(Chunk {
                    delta_idx,
                    from: a,
                    to: b,
                });
            }
        }
        FilterJob {
            f_idx,
            node,
            interned,
            free_join,
            deltas,
            chunks,
        }
    }

    /// Run the (read-only) join phase of one batch at (filter, chunk)
    /// granularity: every work item, a delta-window chunk, goes onto one
    /// shared queue, so chunks of a join-heavy filter interleave with the
    /// other filters' jobs. Items run on a scoped worker pool when more
    /// than one worker is configured; each item's matches land in its own
    /// slot and are merged per filter **in chunk order**, so the merged
    /// buffers (and every counter total) are independent of worker
    /// scheduling. The batch's work items, steals and join counters are
    /// folded into the statistics.
    fn collect_batch(&mut self, jobs: &[FilterJob]) -> Vec<MatchBuf> {
        let items: Vec<WorkItem> = jobs
            .iter()
            .enumerate()
            .flat_map(|(job, j)| (0..j.chunks.len()).map(move |chunk| WorkItem { job, chunk }))
            .collect();
        let workers = self.options.parallelism.min(items.len());
        // Thread spawn costs ~tens of µs; a batch whose delta windows hold
        // only a handful of new rows joins faster inline. The cutover only
        // affects scheduling, never results.
        const PARALLEL_MIN_DELTA_ROWS: usize = 64;
        let delta_rows: usize = jobs
            .iter()
            .map(|j| {
                j.deltas
                    .iter()
                    .map(|(from, to)| to.saturating_sub(*from))
                    .sum::<usize>()
            })
            .sum();
        if workers <= 1 || delta_rows < PARALLEL_MIN_DELTA_ROWS {
            // Inline: run the items in queue order with one reusable
            // scratch, accumulating straight into the per-job buffers.
            let mut out: Vec<MatchBuf> = jobs.iter().map(FilterJob::matches).collect();
            let mut counters = JoinCounters::default();
            let mut scratch = JoinScratch::default();
            for item in &items {
                Self::collect_chunk(
                    &self.store,
                    &mut counters,
                    &jobs[item.job],
                    item.chunk,
                    &mut scratch,
                    &mut out[item.job],
                );
            }
            self.record_batch(items.len(), 0, counters, &out);
            return out;
        }
        let store = &self.store;
        let next_item = AtomicUsize::new(0);
        // Per-item result slots: (matches, counters, claiming worker).
        type ItemResult = (MatchBuf, JoinCounters, usize);
        let results: Vec<Mutex<Option<ItemResult>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (results, items, next_item) = (&results, &items, &next_item);
                scope.spawn(move || {
                    let mut scratch = JoinScratch::default();
                    loop {
                        let k = next_item.fetch_add(1, AtomicOrdering::Relaxed);
                        if k >= items.len() {
                            break;
                        }
                        let item = &items[k];
                        let mut matches = jobs[item.job].matches();
                        let mut counters = JoinCounters::default();
                        Self::collect_chunk(
                            store,
                            &mut counters,
                            &jobs[item.job],
                            item.chunk,
                            &mut scratch,
                            &mut matches,
                        );
                        *results[k].lock().unwrap_or_else(|e| e.into_inner()) =
                            Some((matches, counters, w));
                    }
                });
            }
        });
        // Merge per job in item (= chunk) order: concatenation restores the
        // sequential enumeration order, counter sums are split-invariant.
        let mut out: Vec<MatchBuf> = jobs.iter().map(FilterJob::matches).collect();
        let mut totals = JoinCounters::default();
        let mut claimers: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];
        for (item, slot) in items.iter().zip(results) {
            let (matches, counters, worker) = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every work item is claimed by exactly one worker");
            out[item.job].append(matches);
            totals.merge(counters);
            if !claimers[item.job].contains(&worker) {
                claimers[item.job].push(worker);
            }
        }
        let steals = claimers
            .iter()
            .map(|c| c.len().saturating_sub(1) as u64)
            .sum();
        self.record_batch(items.len(), steals, totals, &out);
        out
    }

    /// Fold one batch's execution record into the statistics: the batch,
    /// its work items (its parallel width), its steals, the join counters
    /// summed over its items and the matches it holds for emission.
    fn record_batch(
        &mut self,
        items: usize,
        steals: u64,
        counters: JoinCounters,
        matches: &[MatchBuf],
    ) {
        let stats = &mut self.stats;
        let held = matches.iter().map(|m| m.len as u64).sum();
        stats.peak_batch_matches = stats.peak_batch_matches.max(held);
        stats.sweep_batches += 1;
        stats.intra_filter_chunks += items as u64;
        stats.steals += steals;
        stats.batch_width_hist[batch_width_bucket(items)] += 1;
        stats.join_probes += counters.join_probes;
        stats.index_probes += counters.index_probes;
        stats.range_probes += counters.range_probes;
        stats.scan_fallbacks += counters.scan_fallbacks;
        stats.wcoj_seeks += counters.wcoj_seeks;
        stats.wcoj_intersections += counters.wcoj_intersections;
    }

    /// Merge one filter's collected matches into the instance: post-join
    /// literals (negation, conditions, assignments incl. aggregation), null
    /// and Skolem invention, then each head row offered to the store
    /// ([`offer_row`]): a row its relation holds is a duplicate, a new one
    /// goes to the termination strategy unless the run is null-free, and an
    /// admitted row is inserted at once, so the next match's negation probe
    /// sees it. Runs sequentially in filter-index order. Returns whether
    /// any new fact was admitted.
    fn emit(&mut self, job: &FilterJob, matches: MatchBuf) -> bool {
        let f_idx = job.f_idx;
        let node = job.node;
        for (pos, (_, to)) in job.deltas.iter().enumerate() {
            self.cursors[f_idx][pos] = *to;
        }
        if matches.len == 0 {
            return false;
        }

        let rule = &self.plan.analysis.rules[node.rule_id as usize];
        let (rule_id, kind, ward_index) = (node.rule_id, rule.kind, rule.ward);
        let patterns = &job.interned.patterns;
        let mut produced = false;

        let mut scratch = ResidualScratch::default();
        let mut row = Vec::new();
        let mut binding = vec![None; node.slots.len()];
        for ids in matches.rows() {
            load_row(&mut binding, ids);
            if !self.accept(job, Pass::Fire, &mut binding, &mut scratch) {
                continue;
            }

            // The stored parents for the termination strategy, found by
            // their rows; a null-free run never asks for them.
            let parent =
                |wanted: RuleKind, pattern: Option<&RowPattern>, row: &mut Vec<ValueId>| {
                    if kind != wanted || self.null_free {
                        return None;
                    }
                    stored_parent(&self.store, pattern?, &binding, row)
                };
            let step = Step {
                rule_id,
                kind,
                linear_parent: parent(RuleKind::Linear, patterns.first(), &mut row),
                ward_parent: parent(
                    RuleKind::Warded,
                    ward_index.and_then(|w| patterns.get(w)),
                    &mut row,
                ),
            };

            // Existential witnesses: fresh nulls, interned straight into the
            // binding (a null id hashes as two integers).
            for slot in node.existential_slots.iter() {
                binding[*slot] = Some(intern_value(&self.nulls.fresh_value()));
            }

            for hp in job.interned.head_patterns.iter() {
                row.clear();
                if !hp.instantiate_into(&binding, &mut row) {
                    continue;
                }
                let strategy: Option<&mut dyn TerminationStrategy> = if self.null_free {
                    None
                } else {
                    Some(&mut *self.strategy)
                };
                match offer_row(&mut self.store, strategy, hp.predicate, &row, &step) {
                    Offer::Admitted => {
                        self.stats.facts_derived += 1;
                        if self.null_free {
                            self.dedup_stats.admitted += 1;
                        }
                        produced = true;
                    }
                    Offer::Duplicate => {
                        self.stats.facts_suppressed += 1;
                        self.dedup_stats.duplicates += 1;
                    }
                    Offer::Suppressed => self.stats.facts_suppressed += 1,
                }
            }
        }
        produced
    }

    /// Does a match survive its job's residual literals? They run in order
    /// on the binding: negated atoms probed at the id level against the
    /// current store, comparisons of variables and constants on ids,
    /// aggregates keyed on ids, and an expression resolves only the
    /// variables it reads. Results are interned into their slots, so head
    /// emission stays row-based, and kept as computed in `scratch.assigned`.
    ///
    /// Under [`Pass::Fire`] the aggregates fold into the filter's state and
    /// the Skolem terms mint nulls; [`Pass::Fold`] does the same but accepts
    /// the match as soon as its aggregate has folded, without interning the
    /// result or running the literals after it. A [`Pass::Check`] changes
    /// no state and follows the oracle: it skips aggregates, and a Skolem
    /// term rejects the match.
    fn accept(
        &mut self,
        job: &FilterJob,
        pass: Pass,
        binding: &mut [Option<ValueId>],
        scratch: &mut ResidualScratch,
    ) -> bool {
        let ResidualScratch {
            assigned,
            group_ids,
            key_ids,
            neg_bufs,
        } = scratch;
        assigned.resize_with(job.interned.residuals.len(), || None);
        for (r, residual) in job.interned.residuals.iter().enumerate() {
            let (result, slot) = match residual {
                Residual::Negated(n) => {
                    let np = &job.interned.neg_patterns[*n];
                    if let Some(rel) = self.store.relation(np.predicate) {
                        if np.any_match_with(rel, binding, neg_bufs) {
                            return false;
                        }
                    }
                    continue;
                }
                Residual::Cond(cond) => {
                    if !cond.holds(binding) {
                        return false;
                    }
                    continue;
                }
                Residual::Test { op, left, right } => {
                    let l = left.expr.eval(&left.subst(binding, assigned));
                    let r = right.expr.eval(&right.subst(binding, assigned));
                    match (l, r) {
                        (Ok(l), Ok(r)) if op.eval(&l, &r) => continue,
                        _ => return false,
                    }
                }
                Residual::Assign { expr, slot, .. } => {
                    let subst = expr.subst(binding, assigned);
                    let value = if pass != Pass::Check {
                        self.eval_with_skolems(&expr.expr, &subst)
                    } else {
                        expr.expr.eval(&subst).ok()
                    };
                    match value {
                        Some(value) => (Datum::Value(value), slot),
                        None => return false,
                    }
                }
                Residual::Aggregate { .. } if pass == Pass::Check => {
                    assigned[r] = None;
                    continue;
                }
                Residual::Aggregate {
                    func,
                    arg,
                    group,
                    contributors,
                    slot,
                    state,
                } => {
                    let arg = match arg {
                        AggArg::Slot(slot) => match binding[*slot] {
                            Some(id) => Datum::Id(id),
                            None => return false,
                        },
                        AggArg::Expr(e) => match e.expr.eval(&e.subst(binding, assigned)) {
                            Ok(value) => Datum::Value(value),
                            Err(_) => return false,
                        },
                    };
                    group_ids.clear();
                    group_ids.extend(group.iter().filter_map(|slot| binding[*slot]));
                    let aggregate = &mut self.agg_states[job.f_idx][*state];
                    let result = match func {
                        AggFunc::MCount => {
                            // Distinct contributor tuples, or distinct
                            // arguments without (bound) contributors.
                            key_ids.clear();
                            key_ids.extend(
                                contributors
                                    .iter()
                                    .filter_map(|c| read_id(*c, binding, assigned)),
                            );
                            if key_ids.is_empty() {
                                key_ids.push(arg.id());
                            }
                            let count = aggregate.count(group_ids, key_ids);
                            Datum::Value(Value::Int(count as i64))
                        }
                        AggFunc::MUnion if pass == Pass::Fold => {
                            aggregate.add_member(group_ids, arg.id(), || arg.value());
                            return true;
                        }
                        AggFunc::MUnion => {
                            let member = arg.id();
                            Datum::Id(aggregate.union(group_ids, member, || arg.value()))
                        }
                        AggFunc::MSum | AggFunc::MProd | AggFunc::MMin | AggFunc::MMax => {
                            let Some(x) = arg.value().as_f64() else {
                                return false;
                            };
                            let window = contributors
                                .iter()
                                .filter_map(|c| read_value(*c, binding, assigned))
                                .collect();
                            let folded = aggregate.fold(*func, group_ids, window, x);
                            Datum::Value(Value::Float(folded))
                        }
                    };
                    if pass == Pass::Fold {
                        return true;
                    }
                    (result, slot)
                }
            };
            if let Some(slot) = slot {
                binding[*slot] = Some(result.id());
            }
            assigned[r] = Some(result);
        }
        true
    }

    fn eval_with_skolems(&mut self, expr: &Expr, subst: &Substitution) -> Option<Value> {
        match expr {
            Expr::Skolem(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval_with_skolems(a, subst)?);
                }
                let key = (*name, values);
                if let Some(v) = self.skolems.get(&key) {
                    return Some(v.clone());
                }
                let null = self.nulls.fresh_value();
                self.skolems.insert(key, null.clone());
                Some(null)
            }
            other => other.eval(subst).ok(),
        }
    }

    /// Do all of the guards `picked` (indices into `guards`) hold under
    /// `binding`? Pure id-level comparisons ([`Guard::holds`]): order keys
    /// decide, ties resolve, unbound slots reject.
    fn check_guards(guards: &[Guard], picked: &[usize], binding: &[Option<ValueId>]) -> bool {
        picked.iter().all(|&g| guards[g].holds(binding))
    }

    /// Semi-naive slot-machine join over one work item, chunk `chunk` of
    /// `job`: scan its rows `[from, to)` of body position `delta_idx`
    /// ([`Chunk`]) and run each through the delta position's stage list
    /// ([`Pipeline::join_stage`]) — the free-join plan when the position
    /// has one, the strategy is `FreeJoin` and the frozen store can hand
    /// out its trie cursors, the all-probe plan otherwise. Each new
    /// combination is enumerated exactly once across the window's chunks,
    /// and the matches of one delta row always land in `results` in the
    /// canonical all-probe plan's enumeration order, so emission order is
    /// deterministic and chunk concatenation equals the unsharded scan.
    ///
    /// **One order for every plan.** Under set semantics each full binding
    /// is supported by exactly one fact per atom, and the all-probe nested
    /// loop in canonical sequence (`[delta] ++ join order`) enumerates a
    /// delta row's matches in ascending lexicographic order of the
    /// (n−1)-wide support vector over canonical positions `1..n` (postings
    /// are `FactId`-ascending at every step) — so that plan pushes straight
    /// into `results`. A plan with an intersect stage enumerates the same
    /// match set in leapfrog value order, and a reordered plan (probing
    /// outward from the delta atom) in its own nested-loop order; every
    /// stage writes its support fact at its atom's canonical position, and
    /// the row's matches are sorted by that vector before they are
    /// appended, which restores the canonical order exactly. Semi-naive
    /// limits apply per stage: probes cut postings at their atom's limit,
    /// core support facts are filtered at the leaf.
    ///
    /// The whole join runs at the id level: patterns are matched against
    /// **borrowed** rows with the worker's [`JoinScratch`] (binding array,
    /// undo trail, per-stage postings buffers, probe-key buffer, support
    /// vector, the intersect stage's match buffers and the flat rows the
    /// per-row sort orders) — zero `Fact` clones, no steady-state
    /// allocation across chunks. A full match is copied into `results` as
    /// one flat row of its body variables' ids; only that buffer grows.
    fn collect_chunk(
        store: &FactStore,
        counters: &mut JoinCounters,
        job: &FilterJob,
        chunk: usize,
        js: &mut JoinScratch,
        results: &mut MatchBuf,
    ) {
        let Chunk {
            delta_idx,
            from,
            to,
        } = job.chunks[chunk];
        let (node, interned) = (job.node, job.interned);
        let Some(rel) = store.relation(node.body_predicates[delta_idx]) else {
            return;
        };
        let plan = &node.deltas[delta_idx];
        let core = plan.core.as_ref().filter(|_| job.free_join);
        let mut core_rels: Vec<(&Relation, usize)> = Vec::new();
        let mut cursors: Vec<TrieCursor<'_>> = Vec::new();
        if let Some(ch) = core {
            for trie in &ch.tries {
                let limit = job.limit(trie.atom, delta_idx);
                let Some(rel) = store.relation(node.body_predicates[trie.atom]) else {
                    return; // a body relation with no facts: the join is empty
                };
                if limit == 0 {
                    return;
                }
                core_rels.push((rel, limit));
            }
            for (trie, (rel, _)) in ch.tries.iter().zip(&core_rels) {
                cursors.push(rel.trie_cursor(&trie.cols).expect(
                    "activate ensures and flushes every trie list, and a snapshot base's \
                     layers are flushed when frozen or promoted",
                ));
            }
        }
        js.reset(node.slots.len(), node.body_predicates.len());
        if core.is_some() {
            // Re-adopt the open-span memos of this work item's previous
            // chunk: one filter activation re-opens the same bound prefixes
            // across its chunks (and once per prefix-ear combination within
            // one), and the store is frozen for the whole batch, so
            // memoised spans stay valid. Memos only speed `open` up — they
            // never change what a cursor enumerates.
            let bank = js.memo_bank((job.f_idx, delta_idx), cursors.len());
            for (cursor, memo) in cursors.iter_mut().zip(bank) {
                cursor.adopt_memo(std::mem::take(memo));
            }
        }
        let steps = &plan.steps;
        let cx = JoinCx {
            store,
            job,
            delta_idx,
            steps,
            restore_order: core.is_some() || plan.reordered,
            stages: node.stages(plan, job.free_join),
            core,
            core_rels: &core_rels,
        };
        let width = steps.len() - 1;
        // positions before delta_idx only use old facts, positions after
        // it use everything up to the snapshot.
        for fact_pos in from..to.min(rel.len()) {
            let row = rel.row(FactId(fact_pos as u32));
            counters.join_probes += 1;
            if interned.patterns[delta_idx].match_row(row, &mut js.binding, &mut js.trail) {
                if Self::check_guards(&interned.guards, &steps[0].guards, &js.binding) {
                    Self::join_stage(&cx, 0, &mut cursors, counters, js, results);
                    if cx.restore_order {
                        let JoinScratch {
                            keybuf,
                            rows,
                            pending,
                            ..
                        } = js;
                        pending.sort_by(|a, b| {
                            keybuf[a.0..a.0 + width].cmp(&keybuf[b.0..b.0 + width])
                        });
                        let stride = results.stride;
                        for &(_, row) in pending.iter() {
                            results.push_row(&rows[row..row + stride]);
                        }
                        pending.clear();
                        rows.clear();
                        keybuf.clear();
                    }
                }
                undo_to(&mut js.binding, &mut js.trail, 0);
            }
        }
        // Hand the open-span memos back for the item's next chunk.
        for (cursor, memo) in cursors.iter_mut().zip(js.trie_memos.iter_mut()) {
            *memo = cursor.take_memo();
        }
    }

    /// The stage interpreter: run stage `stage` of the chunk's plan under
    /// the current partial binding, recursing into the next stage once per
    /// extension. Past the last stage the binding is a full match: a plan
    /// with an intersect stage first checks the deferred core guards. The
    /// canonical all-probe plan pushes the match's row straight into
    /// `results` (its enumeration order *is* the emission order); an
    /// intersect or reordered plan records the row and its support vector
    /// in the scratch's flat buffers for the per-row order-restoring sort
    /// in [`Pipeline::collect_chunk`].
    #[inline(always)]
    fn join_stage<'r>(
        cx: &JoinCx<'_, 'r>,
        stage: usize,
        cursors: &mut [TrieCursor<'r>],
        counters: &mut JoinCounters,
        js: &mut JoinScratch,
        results: &mut MatchBuf,
    ) {
        match (cx.stages.get(stage), cx.core) {
            (Some(Stage::Probe(step)), _) => {
                Self::probe_stage(cx, stage, *step, cursors, counters, js, results)
            }
            (Some(Stage::Intersect), Some(ch)) => {
                Self::intersect_stage(cx, stage, ch, cursors, counters, js, results)
            }
            (Some(Stage::Intersect), None) => {
                unreachable!("only a free-join plan has an intersect stage")
            }
            (None, core) => {
                let guards = &cx.job.interned.guards;
                if core
                    .is_some_and(|ch| !Self::check_guards(guards, &ch.deferred_guards, &js.binding))
                {
                    return;
                }
                if cx.restore_order {
                    js.pending.push((js.keybuf.len(), js.rows.len()));
                    js.keybuf.extend_from_slice(&js.support);
                    js.rows.extend(body_ids(&js.binding, results.stride));
                } else {
                    results.push(&js.binding);
                }
            }
        }
    }

    /// Probe stage: match one atom on its bound columns — the planner's
    /// composite prefix and (optional) pushed range condition, whose index
    /// the activation ensured and flushed, so the probe hits; a scan when
    /// the step has no bound column — and run the next stage under
    /// every extension that passes the step's guards, recording the matched
    /// support fact at its atom's canonical sequence position.
    fn probe_stage<'r>(
        cx: &JoinCx<'_, 'r>,
        stage: usize,
        step_pos: usize,
        cursors: &mut [TrieCursor<'r>],
        counters: &mut JoinCounters,
        js: &mut JoinScratch,
        results: &mut MatchBuf,
    ) {
        let step = &cx.steps[step_pos];
        let interned = cx.job.interned;
        let pattern = &interned.patterns[step.atom];
        let limit = cx.job.limit(step.atom, cx.delta_idx);
        if limit == 0 {
            return;
        }
        let Some(rel) = cx.store.relation(pattern.predicate) else {
            return;
        };
        let mark = js.trail.len();
        let extend = |id: FactId,
                      cursors: &mut [TrieCursor<'r>],
                      counters: &mut JoinCounters,
                      js: &mut JoinScratch,
                      results: &mut MatchBuf| {
            counters.join_probes += 1;
            if pattern.match_row(rel.row(id), &mut js.binding, &mut js.trail) {
                if Self::check_guards(&interned.guards, &step.guards, &js.binding) {
                    js.support[step.canonical - 1] = id;
                    Self::join_stage(cx, stage + 1, cursors, counters, js, results);
                }
                undo_to(&mut js.binding, &mut js.trail, mark);
            }
        };
        let mut scratch = std::mem::take(&mut js.postings[step_pos]);
        let mut ranged = false;
        let probed = if !step.index_cols.is_empty() {
            let range_filter = step.range.and_then(|r| r.filter(interned, &js.binding));
            ranged = range_filter.is_some();
            let JoinScratch { binding, key, .. } = js;
            pattern.probe(
                rel,
                &step.index_cols,
                step.prefix_len,
                range_filter.as_ref(),
                key,
                binding,
                &mut scratch,
            )
        } else {
            None
        };
        match probed {
            Some(probe) => {
                counters.index_probes += 1;
                if ranged {
                    counters.range_probes += 1;
                }
                let ids = probe.as_slice(&scratch);
                // Postings come back FactId-ascending: cut at the
                // semi-naive limit instead of filtering per id.
                let cut = ids.partition_point(|id| id.index() < limit);
                for id in &ids[..cut] {
                    extend(*id, cursors, counters, js, results);
                }
            }
            None => {
                counters.scan_fallbacks += 1;
                for i in 0..limit.min(rel.len()) {
                    extend(FactId(i as u32), cursors, counters, js, results);
                }
            }
        }
        scratch.clear();
        js.postings[step_pos] = scratch;
    }

    /// Intersect stage, entered once per prefix-ear combination: open every
    /// core trie on its (delta ∪ prefix)-bound columns, leapfrog the core's
    /// free variables (AGM-bounded — no 2-path blowup on triangles and
    /// cliques), and buffer each core match's level values and support
    /// facts. Phase two then replays the buffered matches — binding the
    /// level slots and writing the core support facts at their sequence
    /// positions — and runs the next stage underneath each. Buffering
    /// decouples the leapfrog's cursor borrow from the later stages'
    /// scratch use; the per-row sort in [`Pipeline::collect_chunk`] makes
    /// the emission order independent of it either way.
    fn intersect_stage<'r>(
        cx: &JoinCx<'_, 'r>,
        stage: usize,
        ch: &Core,
        cursors: &mut [TrieCursor<'r>],
        counters: &mut JoinCounters,
        js: &mut JoinScratch,
        results: &mut MatchBuf,
    ) {
        let interned = cx.job.interned;
        if !Self::check_guards(&interned.guards, &ch.pre_guards, &js.binding) {
            return;
        }
        for (trie, cursor) in ch.tries.iter().zip(cursors.iter_mut()) {
            let filled = interned.patterns[trie.atom].fill_probe_key(
                &trie.cols[..trie.prefix_len],
                &js.binding,
                &mut js.key,
            );
            debug_assert!(filled, "trie prefixes are bound before the leapfrog");
            if !(filled && cursor.open(&js.key)) {
                return; // empty prefix span: zero core matches
            }
        }
        js.corevals.clear();
        js.corefacts.clear();
        let mut wc = WcojCounters::default();
        {
            let JoinScratch {
                binding,
                corevals,
                corefacts,
                leaves,
                ..
            } = js;
            leapfrog_join(
                cursors,
                &ch.levels,
                binding,
                &mut wc,
                &mut |li, binding| {
                    Self::check_guards(&interned.guards, &ch.level_guards[li], binding)
                },
                &mut |binding, cursors| {
                    let start = corefacts.len();
                    for (cursor, (rel, limit)) in cursors.iter().zip(cx.core_rels) {
                        leaves.clear();
                        cursor.leaf_facts(leaves);
                        // Set semantics: at most one stored row has these
                        // column values at this arity; wider or narrower
                        // rows sharing the leaf span are other facts
                        // entirely. A support fact at or past its atom's
                        // semi-naive limit disqualifies the match, just as
                        // a probe's partition-point cut would.
                        let support = leaves
                            .iter()
                            .copied()
                            .find(|f| f.index() < *limit && rel.row(*f).len() == cursor.arity());
                        match support {
                            Some(f) => corefacts.push(f),
                            None => {
                                corefacts.truncate(start);
                                return;
                            }
                        }
                    }
                    for level in &ch.levels {
                        corevals
                            .push(binding[level.slot].expect("leapfrog binds every level slot"));
                    }
                },
            );
        }
        counters.wcoj_seeks += wc.seeks;
        counters.wcoj_intersections += wc.intersections;
        let n_levels = ch.levels.len();
        let n_tries = ch.tries.len();
        for m in 0..js.corefacts.len() / n_tries {
            for (t, trie) in ch.tries.iter().enumerate() {
                js.support[trie.canonical - 1] = js.corefacts[m * n_tries + t];
            }
            let mark = js.trail.len();
            for (li, level) in ch.levels.iter().enumerate() {
                js.binding[level.slot] = Some(js.corevals[m * n_levels + li]);
                js.trail.push(level.slot);
            }
            Self::join_stage(cx, stage + 1, cursors, counters, js, results);
            undo_to(&mut js.binding, &mut js.trail, mark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outputs::collect_outputs;
    use vadalog_chase::{run_chase, ChaseOptions, WardedStrategy};
    use vadalog_parser::parse_program;

    fn run_pipeline(src: &str) -> (FactStore, PipelineStats, Vec<String>) {
        let program = parse_program(src).unwrap();
        let plan = AccessPlan::compile(&program);
        let mut pipeline = Pipeline::new(&plan, Box::new(WardedStrategy::new()));
        pipeline.load_facts(program.facts.clone());
        let violations = pipeline.run();
        let stats = pipeline.stats();
        (pipeline.into_store(), stats, violations)
    }

    #[test]
    fn transitive_closure_with_conditions() {
        let (store, stats, violations) = run_pipeline(
            "Own(\"a\", \"b\", 0.6). Own(\"b\", \"c\", 0.7). Own(\"c\", \"d\", 0.2).\n\
             Own(x, y, w), w > 0.5 -> Control(x, y).\n\
             Control(x, y), Control(y, z) -> Control(x, z).",
        );
        assert_eq!(store.facts_of(intern("Control")).len(), 3);
        assert!(violations.is_empty());
        assert!(stats.facts_derived >= 3);
        assert!(stats.index_probes > 0);
    }

    #[test]
    fn example7_terminates_and_produces_psc_for_every_company() {
        let (store, stats, _) = run_pipeline(
            "Company(HSBC). Company(HSB). Company(IBA).\n\
             Controls(HSBC, HSB). Controls(HSB, IBA).\n\
             Company(x) -> Owns(p, s, x).\n\
             Owns(p, s, x) -> Stock(x, s).\n\
             Owns(p, s, x) -> PSC(x, p).\n\
             PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
             PSC(x, p), PSC(y, p) -> StrongLink(x, y).\n\
             StrongLink(x, y) -> Owns(p, s, x).\n\
             StrongLink(x, y) -> Owns(p, s, y).\n\
             Stock(x, s) -> Company(x).",
        );
        let psc = store.facts_of(intern("PSC"));
        for c in ["HSBC", "HSB", "IBA"] {
            assert!(
                psc.iter().any(|f| f.args[0] == Value::str(c)),
                "no PSC for {c}"
            );
        }
        assert!(!store.facts_of(intern("StrongLink")).is_empty());
        assert!(stats.iterations < 50);
        assert!(stats.facts_suppressed > 0, "termination wrapper must prune");
    }

    #[test]
    fn example2_company_control_with_msum() {
        // Control via majority including indirectly-held shares (Example 2).
        let (store, _, _) = run_pipeline(
            "Own(\"a\", \"b\", 0.6).\n\
             Own(\"b\", \"c\", 0.3). Own(\"a\", \"c\", 0.3).\n\
             Own(x, y, w), w > 0.5 -> Control(x, y).\n\
             Control(x, y), Own(y, z, w), v = msum(w, <y>), v > 0.5 -> Control(x, z).",
        );
        let control = store.facts_of(intern("Control"));
        // a controls b directly; a controls c because 0.3 (via b) + 0.3
        // (direct, counted through the contributor window)... direct Own is
        // not a Control contribution by itself, so check the paper's
        // semantics: contributions come from controlled companies y with
        // Own(y, c, w). a controls b, Own(b, c, 0.3) gives 0.3 — not enough.
        assert!(control.contains(&Fact::new("Control", vec!["a".into(), "b".into()])));
        assert!(!control.contains(&Fact::new("Control", vec!["a".into(), "c".into()])));

        // Now a richer instance where joint ownership crosses the threshold.
        let (store2, _, _) = run_pipeline(
            "Own(\"a\", \"b\", 0.6). Own(\"a\", \"d\", 0.8).\n\
             Own(\"b\", \"c\", 0.3). Own(\"d\", \"c\", 0.3).\n\
             Own(x, y, w), w > 0.5 -> Control(x, y).\n\
             Control(x, y), Own(y, z, w), v = msum(w, <y>), v > 0.5 -> Control(x, z).",
        );
        let control2 = store2.facts_of(intern("Control"));
        assert!(control2.contains(&Fact::new("Control", vec!["a".into(), "c".into()])));
    }

    #[test]
    fn skolem_assignments_are_deterministic() {
        let (store, _, _) = run_pipeline(
            "Employee(\"alice\", \"acme\"). Employee(\"alice\", \"acme2\").\n\
             Employee(x, c), k = #key(x) -> PersonKey(x, k).",
        );
        let keys = store.facts_of(intern("PersonKey"));
        // both matches produce the same skolem null for alice
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn constraints_are_checked_after_fixpoint() {
        let (_, _, violations) = run_pipeline(
            "Own(\"a\", \"a\", 0.4). Own(\"a\", \"b\", 0.6).\n\
             Own(x, x, w) -> false.",
        );
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn checks_compile_index_and_count_only_their_driver() {
        let src = "A(1, 2). B(2, 3). C(3, 1). A(4, 5). B(5, 6). C(6, 4). A(7, 8).\n\
                   A(x, y), B(y, z), C(z, x) -> false.";
        let (_, stats, violations) = run_pipeline(src);
        let program = parse_program(src).unwrap();
        let chase = run_chase(
            &program,
            &mut WardedStrategy::new(),
            &ChaseOptions::default(),
        );
        assert_eq!(violations.len(), 2);
        let sorted = |v: &[String]| v.iter().cloned().collect::<BTreeSet<String>>();
        assert_eq!(sorted(&violations), sorted(&chase.violations));
        // The triangle check runs one cyclic plan, its driver's; the other
        // two delta positions neither run nor count.
        assert_eq!((stats.wcoj_activations, stats.hybrid_activations), (1, 0));

        // Only the driver's (atom `A`'s) column lists are planned for
        // session pre-builds: `A` itself is never probed. The core tries
        // are `B` over `[0, 1]` and `C` over `[1, 0]` (`z`, the one free
        // variable, last).
        let plan = AccessPlan::compile(&program);
        assert_eq!(plan.checks[0].check_driver(), Some(0));
        let planned = plan.planned_index_cols(JoinStrategy::FreeJoin);
        let lists = |cols: &[&[usize]]| -> BTreeSet<Vec<usize>> {
            cols.iter().map(|c| c.to_vec()).collect()
        };
        assert_eq!(
            planned,
            std::collections::BTreeMap::from([
                (intern("B"), lists(&[&[0, 1]])),
                (intern("C"), lists(&[&[1, 0]])),
            ])
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_and_batches_independent_filters() {
        let src = "Edge(\"a\", \"b\"). Edge(\"b\", \"c\"). Edge(\"c\", \"d\"). Mark(\"a\").\n\
                   Edge(x, y) -> Reach(x, y).\n\
                   Mark(x) -> Seen(x).\n\
                   Reach(x, y), Edge(y, z) -> Reach(x, z).";
        let program = parse_program(src).unwrap();
        let plan = AccessPlan::compile(&program);
        let run = |threads: usize| {
            let mut p = Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(
                &ReasonerOptions {
                    parallelism: threads,
                    ..ReasonerOptions::default()
                },
            );
            p.load_facts(program.facts.clone());
            p.run();
            p
        };
        let seq = run(1);
        let par = run(4);
        for pred in ["Edge", "Mark", "Reach", "Seen"] {
            assert_eq!(
                seq.store().facts_of(intern(pred)),
                par.store().facts_of(intern(pred)),
                "store contents must be bit-identical on {pred}"
            );
        }
        assert_eq!(seq.stats().facts_derived, par.stats().facts_derived);
        assert_eq!(seq.stats().join_probes, par.stats().join_probes);
        // Batch structure is a property of the plan + data, not the thread
        // count: Edge->Reach and Mark->Seen have disjoint inputs and share
        // the first batch; the recursive filter reads Reach (written by the
        // first filter) and must start the next batch.
        assert_eq!(seq.stats().sweep_batches, par.stats().sweep_batches);
        assert!(
            par.stats().sweep_batches >= 2,
            "the recursive filter must be split into its own batch"
        );
        let activations_upper = par.stats().iterations * plan.filters.len();
        assert!(
            par.stats().sweep_batches < activations_upper,
            "independent filters must share batches ({} batches vs {} activations)",
            par.stats().sweep_batches,
            activations_upper
        );
    }

    #[test]
    fn steps_probe_the_planned_range_and_guard_the_other_conditions() {
        // Two pushable ranges on the Own step: `w > 0.5` over a 2-distinct
        // column and `y < 50` over a 100-distinct column. The step probes
        // the planner's range, the first in body order (`w`), whatever the
        // data; `y < 50` is checked as an id-level guard.
        let mut src = String::from("Mark(x), Own(x, y, w), w > 0.5, y < 50 -> Control(x, y).\n");
        for i in 0..5 {
            src.push_str(&format!("Mark(\"c{i}\").\n"));
        }
        for i in 0..100 {
            let w = if i % 2 == 0 { 0.7 } else { 0.3 };
            src.push_str(&format!("Own(\"c{}\", {i}, {w}).\n", i % 5));
        }
        let program = parse_program(&src).unwrap();
        let plan = AccessPlan::compile(&program);
        let filter = &plan.filters[0];
        let own_step = &filter.deltas[0].steps[1];
        assert_eq!(own_step.atom, 1);
        assert_eq!(own_step.range_col(), Some(2), "the w-range");
        let y = filter.slots[&Var::new("y")];
        assert!(
            own_step
                .guards
                .iter()
                .any(|&g| filter.interned().guards[g].slot == y),
            "y < 50 is a guard"
        );
        let mut pipeline = Pipeline::new(&plan, Box::new(WardedStrategy::new()));
        pipeline.load_facts(program.facts.clone());
        pipeline.run();
        assert!(pipeline.stats().range_probes > 0);
        assert_eq!(pipeline.stats().adaptive_range_picks, 0);
        let control = pipeline.store().facts_of(intern("Control"));
        // Even y with w = 0.7 below 50: the guard cut y >= 50.
        assert_eq!(control.len(), 25);
        // The probe is an access path, never a filter: the chase's naive
        // matcher (no indexes, conditions evaluated after matching) agrees.
        let chase = run_chase(
            &program,
            &mut WardedStrategy::new(),
            &ChaseOptions::default(),
        );
        let as_set = |facts: Vec<Fact>| facts.into_iter().collect::<BTreeSet<Fact>>();
        assert_eq!(as_set(control), as_set(chase.facts_of("Control")));
    }

    #[test]
    fn a_one_worker_activation_runs_each_non_empty_window_as_one_chunk() {
        // Filter 1 over 80 `Edge` and 80 `Reach` rows, its `Reach` window
        // already consumed: only the `Edge` window holds rows, enough for
        // four workers to run on threads.
        let mut src =
            String::from("Edge(x, y) -> Reach(x, y).\nReach(x, y), Edge(y, z) -> Reach(x, z).\n");
        for i in 0..80 {
            src.push_str(&format!("Edge({i}, {}). Reach({i}, {}).\n", i + 1, i + 1));
        }
        let program = parse_program(&src).unwrap();
        let plan = AccessPlan::compile(&program);
        let activation = |parallelism: usize| {
            let mut p = Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(
                &ReasonerOptions {
                    parallelism,
                    ..ReasonerOptions::default()
                },
            );
            p.load_facts(program.facts.clone());
            p.cursors[1][0] = 80;
            let job = p.prepare(1).expect("the Edge window holds rows");
            let chunks: Vec<(usize, usize, usize)> = job
                .chunks
                .iter()
                .map(|c| (c.delta_idx, c.from, c.to))
                .collect();
            let matches = p.collect_batch(&[job]).pop().expect("one job");
            (chunks, matches, p.stats())
        };
        let (chunks, one, one_stats) = activation(1);
        assert_eq!(chunks, [(1, 0, 80)]);
        assert_eq!(one_stats.intra_filter_chunks, 1);
        let (chunks, four, four_stats) = activation(4);
        assert_eq!(chunks, [(1, 0, 20), (1, 20, 40), (1, 40, 60), (1, 60, 80)]);
        assert_eq!(four_stats.intra_filter_chunks, 4);
        // The same matches in the same order, found by the same probes.
        assert_eq!((one.len, &one.ids), (four.len, &four.ids));
        assert_eq!(one.len, 79);
        assert_eq!(one_stats.join_probes, four_stats.join_probes);
        assert_eq!(one_stats.index_probes, four_stats.index_probes);
    }

    #[test]
    fn intra_filter_sharding_is_bit_identical_and_splits_activations() {
        // A single join-heavy recursive filter whose delta windows are large
        // enough to shard: the unit the tentpole parallelises.
        let mut src = String::from(
            "Edge(x, y) -> Reach(x, y).\n\
             Reach(x, y), Edge(y, z) -> Reach(x, z).\n",
        );
        for i in 0..60 {
            src.push_str(&format!("Edge(\"n{i}\", \"n{}\").\n", i + 1));
        }
        let program = parse_program(&src).unwrap();
        let plan = AccessPlan::compile(&program);
        let run = |threads: usize| {
            let mut p = Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(
                &ReasonerOptions {
                    parallelism: threads,
                    ..ReasonerOptions::default()
                },
            );
            p.load_facts(program.facts.clone());
            p.run();
            p
        };
        let base = run(1);
        // Every batch is recorded in the width histogram.
        assert_eq!(
            base.stats().batch_width_hist.iter().sum::<u64>() as usize,
            base.stats().sweep_batches
        );
        for threads in [2, 4, 8] {
            let sharded = run(threads);
            for pred in ["Edge", "Reach"] {
                // Exact Vec equality: same facts in the same FactId order.
                assert_eq!(
                    base.store().facts_of(intern(pred)),
                    sharded.store().facts_of(intern(pred)),
                    "instances diverge on {pred} (threads={threads})"
                );
            }
            // Every instance statistic is split-invariant.
            assert_eq!(base.stats().facts_derived, sharded.stats().facts_derived);
            assert_eq!(base.stats().join_probes, sharded.stats().join_probes);
            assert_eq!(base.stats().index_probes, sharded.stats().index_probes);
            assert_eq!(base.stats().sweep_batches, sharded.stats().sweep_batches);
            // ...but the activations really were split into more work items.
            assert!(
                sharded.stats().intra_filter_chunks > base.stats().intra_filter_chunks,
                "sharding must create more work items ({} vs {})",
                sharded.stats().intra_filter_chunks,
                base.stats().intra_filter_chunks
            );
        }
        // The chunk layout is repeatable: identical options give identical
        // chunk counts (and histograms) run after run.
        let a = run(4);
        let b = run(4);
        assert_eq!(a.stats().intra_filter_chunks, b.stats().intra_filter_chunks);
        assert_eq!(a.stats().batch_width_hist, b.stats().batch_width_hist);
    }

    #[test]
    fn cyclic_bodies_leapfrog_and_match_binary_joins_exactly() {
        // A recursive program whose cyclic (triangle) body keeps growing:
        // Edge feeds Triangle, Triangle feeds Edge back, so the intersect stage
        // sees deltas at every body position across several iterations. A
        // pushed condition rides along to exercise the level guards.
        let mut src = String::from(
            "Raw(x, y) -> Edge(x, y).\n\
             Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
             Edge(x, y), Edge(y, z), Edge(x, z), x < z -> Lt(x, z).\n\
             Triangle(x, y, z) -> Edge(z, x).\n",
        );
        let mut s = 7u64;
        let mut step = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % 16
        };
        for _ in 0..120 {
            let (a, b) = (step(), step());
            src.push_str(&format!("Raw({a}, {b}).\n"));
        }
        let program = parse_program(&src).unwrap();
        let plan = AccessPlan::compile(&program);
        let run = |strategy: JoinStrategy, threads: usize| {
            let mut p = Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(
                &ReasonerOptions {
                    join_strategy: strategy,
                    parallelism: threads,
                    ..ReasonerOptions::default()
                },
            );
            p.load_facts(program.facts.clone());
            p.run();
            p
        };
        let binary = run(JoinStrategy::Binary, 1);
        assert_eq!(binary.stats().wcoj_activations, 0);
        assert_eq!(binary.stats().wcoj_intersections, 0);
        assert!(
            !binary.store().facts_of(intern("Triangle")).is_empty(),
            "the generated graph must contain triangles"
        );
        let sequential = run(JoinStrategy::FreeJoin, 1);
        for threads in [1, 2, 4, 8] {
            let wcoj = run(JoinStrategy::FreeJoin, threads);
            if threads > 1 {
                // Some activation split, the intersect stage's included.
                assert!(
                    wcoj.stats().intra_filter_chunks > sequential.stats().intra_filter_chunks,
                    "no activation split at {threads} workers"
                );
            }
            for pred in ["Raw", "Edge", "Triangle", "Lt"] {
                // Exact Vec equality: same rows in the same FactId order.
                assert_eq!(
                    binary.store().facts_of(intern(pred)),
                    wcoj.store().facts_of(intern(pred)),
                    "instances diverge on {pred} (threads={threads})"
                );
            }
            assert_eq!(binary.stats().facts_derived, wcoj.stats().facts_derived);
            assert_eq!(
                binary.stats().facts_suppressed,
                wcoj.stats().facts_suppressed
            );
            assert_eq!(binary.stats().iterations, wcoj.stats().iterations);
            assert_eq!(binary.stats().sweep_batches, wcoj.stats().sweep_batches);
            assert!(
                wcoj.stats().wcoj_activations > 0,
                "fully cyclic bodies must compile an intersect stage with no ears"
            );
            assert!(wcoj.stats().wcoj_intersections > 0);
        }
        // The intersect stage's work counters are identical across thread
        // counts, and its chunk layout repeats at a fixed thread count.
        let a = sequential;
        let b = run(JoinStrategy::FreeJoin, 8);
        let c = run(JoinStrategy::FreeJoin, 8);
        assert_eq!(a.stats().join_probes, b.stats().join_probes);
        assert_eq!(a.stats().wcoj_seeks, b.stats().wcoj_seeks);
        assert_eq!(a.stats().wcoj_intersections, b.stats().wcoj_intersections);
        assert_eq!(a.stats().wcoj_activations, b.stats().wcoj_activations);
        assert_eq!(b.stats().intra_filter_chunks, c.stats().intra_filter_chunks);
        assert_eq!(b.stats().batch_width_hist, c.stats().batch_width_hist);
    }

    #[test]
    fn acyclic_bodies_never_get_an_intersect_stage() {
        let (_, stats, _) = run_pipeline(
            "Edge(\"a\", \"b\"). Edge(\"b\", \"c\").\n\
             Edge(x, y) -> Reach(x, y).\n\
             Reach(x, y), Edge(y, z) -> Reach(x, z).",
        );
        assert_eq!(stats.wcoj_activations, 0);
        assert_eq!(stats.wcoj_seeks, 0);
        assert_eq!(stats.wcoj_intersections, 0);
    }

    #[test]
    fn final_stratum_reruns_give_the_aggregates_of_a_fresh_run_over_the_union() {
        // Sink aggregates over an EDB predicate and over a derived one, a
        // threshold included: they run in the fold stratum.
        let rules = "E(x, y) -> R(x, y).\n\
                     R(x, y), E(y, z) -> R(x, z).\n\
                     E(x, y), n = mcount(y) -> Degree(x, n).\n\
                     R(x, y), n = mcount(y), n >= 2 -> Reach2(x, n).\n\
                     E(x, y), u = munion(y) -> Targets(x, u).\n\
                     @output(\"Degree\"). @output(\"Reach2\"). @output(\"Targets\").";
        let edge = |a: &str, b: &str| Fact::new("E", vec![Value::str(a), Value::str(b)]);
        let first = [edge("a", "b"), edge("b", "c")];
        let more = [edge("a", "d"), edge("c", "e"), edge("f", "a")];
        let program = parse_program(rules).unwrap();
        let plan = AccessPlan::compile(&program);
        assert_eq!(plan.fold_stratum(), [2, 3, 4], "every aggregate is a sink");
        let outputs = |p: &Pipeline| {
            collect_outputs(&program, &plan, &std::sync::Arc::new(p.store().clone()))
        };

        let mut grown = Pipeline::new(&plan, Box::new(WardedStrategy::new()));
        grown.load_facts(first.iter());
        grown.run();
        grown.load_facts(more.iter());
        grown.run();
        let mut fresh = Pipeline::new(&plan, Box::new(WardedStrategy::new()));
        fresh.load_facts(first.iter().chain(&more));
        fresh.run();
        assert_eq!(outputs(&grown), outputs(&fresh));
        let fresh_outputs = outputs(&fresh);
        let reach2 = fresh_outputs[&intern("Reach2")].as_slice();
        assert!(reach2.contains(&Fact::new("Reach2", vec![Value::str("a"), Value::Int(4)])));

        // A run with nothing new leaves the fold stratum idle.
        let (facts, batches) = (grown.stats().facts_derived, grown.stats().sweep_batches);
        grown.run();
        assert_eq!(grown.stats().facts_derived, facts);
        assert_eq!(grown.stats().sweep_batches, batches);
        assert_eq!(outputs(&grown), outputs(&fresh));
    }

    #[test]
    fn iteration_cap_is_respected() {
        let program = parse_program("P(\"a\").\nP(x) -> Q(x, y).\nQ(x, y) -> P(y).").unwrap();
        let plan = AccessPlan::compile(&program);
        let mut pipeline =
            Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_max_iterations(5);
        pipeline.load_facts(program.facts.clone());
        pipeline.run();
        assert!(pipeline.stats().iterations <= 5);
    }

    #[test]
    fn trivial_iso_reads_rows_loaded_after_its_last_check_from_the_store() {
        let program = parse_program("P(x) -> Q(x, n).\nQ(x, n) -> R(x, n).").unwrap();
        let plan = AccessPlan::compile(&program);
        let strategy = crate::reasoner::make_strategy(crate::TerminationKind::TrivialIso);
        let mut pipeline = Pipeline::new(&plan, strategy);
        pipeline.load_facts([Fact::new("P", vec![Value::str("a")])]);
        pipeline.run();
        // Q(a, ν) and R(a, ν): two checks, both admitted.
        let first = pipeline.stats().strategy;
        assert_eq!(
            (first.admitted, first.suppressed, first.isomorphism_checks),
            (2, 0, 2)
        );

        // R(b, ν1000) is loaded after the strategy last read R's rows; the
        // next run derives R(b, ν) from P(b), isomorphic to it.
        pipeline.load_facts([
            Fact::new("R", vec![Value::str("b"), Value::Null(NullId(1000))]),
            Fact::new("P", vec![Value::str("b")]),
        ]);
        pipeline.run();
        let second = pipeline.stats().strategy;
        assert_eq!(
            (
                second.admitted,
                second.duplicates,
                second.suppressed,
                second.isomorphism_checks
            ),
            (3, 0, 1, 4),
            "Q(b, ν) is admitted, R(b, ν) is suppressed"
        );
        let r = pipeline.store().facts_of(intern("R"));
        assert_eq!(r.len(), 2, "{r:?}");
    }
}
