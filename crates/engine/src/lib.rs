//! # vadalog-engine
//!
//! The Vadalog reasoner proper: the paper's Section 4 architecture on top of
//! the substrates provided by the other crates.
//!
//! A reasoning run goes through the four compilation steps of the paper:
//!
//! 1. the **logic optimizer** (`vadalog-rewrite`) rewrites the rules
//!    (multiple-head elimination, existential isolation, harmful-join
//!    elimination);
//! 2. the **logic compiler** ([`plan`]) turns the rules into a *reasoning
//!    access plan*: one filter per rule, a pipe wherever a rule's body
//!    unifies with another rule's head, source filters for `@input`
//!    predicates and sinks for `@output` predicates;
//! 3. the **execution optimizer** reorders joins inside each filter
//!    (bound-variables-first greedy ordering) — see [`plan::JoinOrder`] —
//!    and compiles each filter, once, into the form the pipeline runs:
//!    variable slots and, per delta position, probe steps, an optional
//!    intersect stage and the index column lists its activation ensures
//!    ([`plan::FilterNode`]); the id-level patterns, guards and residual
//!    literals, which hold interned rule constants, are built once too, at
//!    the filter's first activation ([`plan::Interned`]). `vadalog
//!    explain` and a session's index pre-build read the same compiled form;
//! 4. the **query compiler** ([`pipeline`]) instantiates the runnable
//!    pipeline over that plan: slot-machine joins with dynamic in-memory
//!    indices, non-blocking monotonic aggregation ([`aggregate`]), Skolem
//!    functions, and a termination-strategy wrapper around every filter
//!    (`vadalog-chase`'s Algorithm 1) whenever the run can hold a labelled
//!    null — a null-free run admits through the store's own dedup.
//!
//! The plan's strata ([`AccessPlan::strata`], from
//! `vadalog_analysis::rule_strata`) run in order, lowest first. Within a
//! stratum, filters are scheduled round-robin and consume their
//! predecessors' new facts incrementally until every filter reports a
//! *real miss* (no further facts can ever arrive), which is the same
//! fixpoint the paper's pull-based volcano iterators reach when every
//! `next()` chain bottoms out; then the next stratum starts, so a negated
//! relation is complete before any filter reads it. A negation-free
//! program is one stratum. Sink aggregates form the last, fold stratum:
//! each runs once over the complete instance, emitting one fact per group
//! (see [`pipeline`]'s "Strata"). A program that negates a predicate
//! inside its own recursion is refused with
//! [`ReasonerError::Unstratifiable`].
//!
//! # The two-level scheduler: batches of chunks, deterministic merges
//!
//! Parallel execution is organised on two levels, both deterministic:
//!
//! **Level 1 — batches across filters.** Each round-robin sweep executes as
//! a sequence of **disjoint-input batches**: filters are scanned in index
//! order, quiescent ones are skipped, and a batch ends just before the
//! first filter whose input predicates (positive or negated) intersect the
//! outputs of a filter already in the batch. Within a batch every join
//! reads relations frozen at batch start.
//!
//! **Level 2 — chunks within a filter.** The unit of parallel work inside a
//! batch is the **(filter, chunk)** pair: every activation's delta windows
//! (the `FactId`-ascending slices of new rows driving it) are split into
//! contiguous chunks by one rule: `rows / CHUNK_MIN_ROWS` chunks, clamped to
//! `[1, parallelism]` ([`plan::plan_chunk_count`]), so the layout depends on
//! the window's row count and the worker count alone. All chunks of all filters in
//! the batch share one work-stealing queue, so a batch dominated by a
//! single join-heavy filter (the fig8c regime) still loads every worker.
//! Each worker claims items against the shared frozen `&FactStore` with
//! private probe counters and a reusable
//! [`vadalog_storage::JoinScratch`], and keeps each item's full matches in
//! one flat buffer: a match is a row of its positive body variables' ids
//! ([`FilterNode::body_width`] of them), not an allocation of its own.
//!
//! After the join phase, each filter's chunk buffers are concatenated **in
//! chunk order** — which restores the sequential delta-scan enumeration
//! exactly — and the filters are merged **sequentially in filter-index
//! order** through the emission path, which loads each row into one
//! reusable binding and rebuilds the slots past the body (negation
//! probes, conditions, monotonic aggregation, labelled-null and Skolem
//! invention, admission), each head row offered to the store: a row its
//! relation holds is a duplicate, a new one goes to the termination
//! strategy (on a run that can hold a null) and an admitted one is
//! inserted at once.
//!
//! **Determinism guarantee:** batch boundaries, the chunk layout (a
//! function of the delta row counts and the worker count), per-chunk match
//! enumeration order and both merge orders are all functions of the plan,
//! the data and the options, never of worker scheduling — so a run is
//! *bit-identical* at every parallelism level: same rows in the same `FactId` order, same
//! labelled-null ids, same instance statistics (the layout diagnostics
//! [`PipelineStats::intra_filter_chunks`] / `batch_width_hist` follow the
//! worker count, and [`PipelineStats::steals`] follows scheduling). The
//! knob is [`ReasonerOptions::parallelism`] (default
//! [`pipeline::default_parallelism`], i.e.
//! [`std::thread::available_parallelism`]): it sizes the worker pool and
//! bounds the chunks per delta window (1 = one chunk per window, inline,
//! with zero threading overhead), handed to a pipeline with
//! [`Pipeline::with_options`]. [`ReasonerOptions`] is the only place the
//! execution knobs live, and this crate reads no environment: the `vadalog`
//! binary resolves its `VADALOG_*` variables into a `ReasonerOptions` at
//! startup.
//!
//! When a join step has **several pushable range conditions**, it probes
//! the first in body order and checks the others as id-level guards. The
//! plan is fixed when it is compiled: no run statistics re-pick a range or
//! re-rank a leapfrog order, so `vadalog explain` prints exactly what runs.
//!
//! # Join plan and executor
//!
//! Every rule body runs through **one stage interpreter** over a
//! per-delta-position plan: after the delta scan, a sequence of stages,
//! each either *probe one atom on its bound columns* or *intersect the
//! cyclic core's trie cursors level by level*. The execution optimizer
//! picks the stage kinds **per rule body** from GYO ear reduction
//! ([`vadalog_analysis::cyclic_core`]):
//!
//! * **Acyclic body → all probe stages**: the greedy
//!   bound-variables-first order of [`plan::JoinOrder`], one probe stage
//!   per body atom. This is the right plan for the α-acyclic bodies that
//!   dominate ontological programs — every stage narrows the candidate
//!   set.
//! * **Cyclic core → one intersect stage** ([`plan::Core`]). Cyclic
//!   bodies are exactly where any binary plan must materialise an open
//!   path (e.g. the 2-paths of a triangle query) that the closing atom
//!   then discards, an intermediate that can be asymptotically larger than
//!   the AGM output bound; the intersect stage instead intersects the
//!   candidates of **one variable at a time** across every core atom
//!   containing it, staying inside the bound. Only the *cyclic core* — the
//!   irreducible residue of the reduction — leapfrogs; the acyclic ears
//!   around it keep probe stages: prefix ears bind the core tries' open
//!   prefixes, the core's free variables leapfrog (by descending atom
//!   degree), and suffix ears enumerate under each core match. A fully
//!   cyclic body (triangle, clique) is the plan with no ears.
//!
//! The trie side lives in `vadalog-storage`: a
//! [`vadalog_storage::TrieCursor`] walks a composite sorted-run index as a
//! trie — one level per indexed column — under a fixed contract: `open`
//! positions the cursor on the first key of a prefix's sub-trie, `seek`
//! advances to the least key `>= target` via galloping search (never
//! backwards), `descend`/`up` move between levels, and enumeration order
//! at every level is ascending `ValueId` with ties broken by run age.
//! Because the cursors are pure functions of the frozen store, the
//! leapfrog intersection ([`vadalog_storage::leapfrog_join`]) enumerates
//! bindings in a canonical order; every stage records its support fact,
//! and a plan with an intersect stage sorts each delta row's matches by
//! their support-fact vectors, which restores the all-probe enumeration
//! order **exactly** — so the plan shape is invisible downstream: same
//! rows in the same `FactId` order, same labelled-null ids, same
//! deterministic statistics, at every thread count and chunk size.
//! [`ReasonerOptions::join_strategy`] can force the all-probe plan everywhere
//! ([`pipeline::JoinStrategy::Binary`]) — the reference the property
//! suites compare against. Every trie walks its relation's own index,
//! built on demand like any probe index; a query session pre-builds the
//! plan's trie lists on its shared base once per layer stamp
//! ([`AccessPlan::planned_index_cols`]), so sibling queries and forks
//! mount their tries on the same runs. Plans and per-variable
//! intersection work are surfaced as
//! [`PipelineStats::wcoj_activations`] (fully cyclic body, no ears),
//! [`PipelineStats::hybrid_activations`] (cyclic core with ears),
//! [`PipelineStats::wcoj_seeks`] and
//! [`PipelineStats::wcoj_intersections`] (CLI `--stats`).
//!
//! The determinism guarantees above are instances of the workspace-wide
//! bit-identity contract, stated once in `docs/ARCHITECTURE.md` together
//! with the crate map and the layer-by-layer description of a reasoning
//! run.
//!
//! The public entry point is [`Reasoner`]; [`Reasoner::reason`] is a
//! one-shot [`QuerySession`] that compiles the program once
//! ([`CompiledProgram::compile`], what `vadalog explain` prints).
//!
//! ```
//! use vadalog_engine::Reasoner;
//!
//! let program = r#"
//!     Own("acme", "sub", 0.6).
//!     Own("sub", "leaf", 0.9).
//!     Own(x, y, w), w > 0.5 -> Control(x, y).
//!     Control(x, y), Control(y, z) -> Control(x, z).
//!     @output("Control").
//! "#;
//! let result = Reasoner::new().reason_text(program).unwrap();
//! assert_eq!(result.output("Control").len(), 3);
//! ```

pub mod aggregate;
pub mod outputs;
pub mod pipeline;
pub mod plan;
pub mod reasoner;
pub mod session;

pub use outputs::OutputFacts;
pub use pipeline::{
    default_parallelism, JoinStrategy, Pipeline, PipelineStats, RunCap, BATCH_WIDTH_BUCKETS,
};
pub use plan::{
    chunk_windows, plan_chunk_count, AccessPlan, Core, DeltaPlan, FilterNode, Guard, Interned,
    JoinOrder, ProbeStep, RangeBound, Stage, Stratum, Trie,
};
pub use reasoner::{
    QueryResult, Reasoner, ReasonerError, ReasonerOptions, RunResult, RunStats, TerminationKind,
};
pub use session::{AppendReport, CompiledProgram, LayerIndexStats, QuerySession, RecoveryReport};
