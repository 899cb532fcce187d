//! # vadalog-storage
//!
//! The storage substrate of the Vadalog reproduction (Section 4 of the
//! paper: record managers, dynamic in-memory indices and memory
//! management):
//!
//! * [`store`] — the in-memory [`store::FactStore`]: one relation per
//!   predicate with set semantics, per-column *dynamic hash indices* built
//!   lazily on first use (the indexing half of the slot-machine join), and
//!   deterministic iteration for reproducible runs;
//! * [`pattern`] — interned [`pattern::RowPattern`]s: atoms compiled to the
//!   id level, matched against borrowed rows with an undo trail — the probe
//!   half of the zero-clone join core;
//! * [`csv`] — the CSV *record managers* used by `@bind("P", "csv:...")`
//!   annotations to turn external files into facts and to materialise
//!   reasoning output;
//! * [`domain`] — maintenance of the active constant domain `ACDom` /
//!   `Dom` (Section 2), used to guard the grounded copies produced by
//!   harmful-join elimination and to restrict EGD/constraint checking to
//!   ground values.
//!
//! # Storage layout and interning design
//!
//! The paper's slot-machine join wins by probing incrementally-built dynamic
//! indices instead of scanning; this crate makes those probes allocation-free
//! by storing tuples as **interned rows** rather than as [`Fact`]s:
//!
//! * every constant and labelled null is interned exactly once into the
//!   process-wide value table of `vadalog-model`, yielding a 4-byte
//!   [`ValueId`] whose equality coincides with [`Value`] equality (including
//!   the `Int(2)` = `Float(2.0)` identification) — so an equi-join on ids is
//!   an equi-join on values. Interning also caches each value's
//!   [`OrderKey`], an order-preserving `(class, bits)` key whose integer
//!   comparison is a monotone refinement of the comparison order conditions
//!   use;
//! * a [`Relation`] stores one `Box<[ValueId]>` row per distinct tuple, in
//!   insertion order; a row's [`FactId`] is its insertion position.
//!   Set-semantics dedup is a row-hash → `FactId` map: the row bytes live
//!   once in the row table, the dedup side holds only 8-byte hashes and ids
//!   (the seed stored every fact twice — `Vec<Fact>` plus `HashSet<Fact>`).
//!
//! # Sorted columnar postings
//!
//! Dynamic indices are **sorted runs over column lists** rather than
//! per-column hash maps, so one index answers three probe shapes:
//!
//! * **exact composite probes** — an index over `(c1, c2, ...)` keeps one
//!   `(OrderKey, ValueId)` pair per column per row, sorted per column with
//!   `FactId` as the final tie-break; equal composite keys form contiguous
//!   groups located by a small per-run **directory** (composite-key hash →
//!   group), so a multi-column equality probe is a single lookup instead of
//!   N postings intersections;
//! * **range scans** — comparison conditions over orderable values
//!   (`w > 0.5`, `x <= y`) binary-search the runs by order key under an
//!   optional exact prefix ([`RangeFilter`]): everything strictly inside the
//!   key range is emitted without resolving a value, entries tying the
//!   bound's key are checked exactly, labelled nulls are skipped by class;
//! * **merge-based intersection** — probes spanning several runs merge
//!   their (disjoint, ascending) insertion segments, so postings always come
//!   back in ascending `FactId` order: the enumeration order that keeps the
//!   engine's parallel sweep bit-identical at every worker count.
//!
//! An index over rows that already exist — the loaded EDB, a compacted
//! layer chain, a fallback over a shared base — is built as **one run** by
//! one sort: each column's distinct ids get dense ranks in
//! `(OrderKey, ValueId)` order, a `u32` permutation is counting-sorted by
//! the rank tuples, and keys, `FactId`s and the directory are written once,
//! the directory sized to the group count. Tails remain the incremental
//! path: inserts into an indexed relation append to an index **tail** that
//! probes scan linearly; a full tail, or [`Relation::ensure_index`] on an
//! existing index (the engine calls it while preparing each batch, before
//! freezing the store for the worker pool), flushes the tail into a fresh
//! run by the same build and merges adjacent runs size-tiered.
//! [`Relation::probe_if_indexed`] yields postings either borrowed straight
//! from a single run ([`Probe::Run`]) or collected into a caller-owned
//! scratch buffer, so the hot exact probe stays allocation-free.
//!
//! # Sorted-trie cursors (worst-case-optimal joins)
//!
//! The same runs double as **tries**: entries sorted per column mean the
//! rows sharing a value prefix are one contiguous span per run, with the
//! next column's distinct values in ascending `(OrderKey, ValueId)` order
//! inside it. [`TrieCursor`] (from [`store::Relation::trie_cursor`]) walks
//! that shape — `open` on an exact prefix, `key`/`seek`/`seek_past` over the
//! current column, `descend`/`up` between columns, `leaf_facts` at full
//! depth — composing a copy-on-write base's runs before the overlay's so
//! leaf enumeration stays `FactId`-ascending. [`wcoj::leapfrog_join`] drives
//! one cursor per atom through the per-variable intersection of a
//! leapfrog-triejoin; the engine selects it for cyclic rule bodies where
//! binary joins pay the intermediate-result blowup. A cursor is only handed
//! out when every involved tail is flushed (the `ensure_index` pre-pass
//! guarantees this on the hot path); the fallback to binary probing is a
//! pure function of store state, hence deterministic across threads.
//!
//! # Copy-on-write EDB snapshots
//!
//! A relation is either **plain** (it owns every row) or a **copy-on-write
//! overlay** over a shared, immutable base relation. [`FactStore::freeze`]
//! turns a fully-loaded store into a [`StoreBase`]: every relation's index
//! tails are flushed (the shared runs are final and never re-sorted) and
//! wrapped in an `Arc`. [`StoreBase::overlay`] then hands out mutable
//! stores whose relations share the base's interned rows, dedup map *and*
//! sorted runs/directories by reference — the per-query storage of a query
//! session costs zero re-interning and zero re-indexing:
//!
//! * `FactId`s compose: base rows keep their positions, overlay rows
//!   continue the same id space (`base.len()..`), so an overlay is
//!   observationally identical to a plain relation with the same insertion
//!   history — same ids, same enumeration order, bit-identical parallel
//!   sweeps;
//! * probes compose: base postings (all strictly smaller ids) are emitted
//!   before overlay postings, preserving the ascending `FactId` order the
//!   engine's deterministic merge relies on. An overlay index not yet built
//!   degrades to a linear scan of the (small) overlay rows, exactly like an
//!   unflushed tail;
//! * maintenance composes: `ensure_index` on an overlay only ever flushes
//!   the overlay's own tail. When the base lacks a column list entirely the
//!   overlay builds a one-off fallback index covering the base rows too
//!   (counted by [`Relation::full_index_builds`] — a prepared session keeps
//!   this at zero via [`StoreBase::ensure_index`], which extends the base's
//!   index set in place between queries while no overlay is alive).
//!
//! Bases themselves stack into **layer chains**: [`StoreBase::promote`]
//! turns an overlay holding appended facts into a new immutable base layer
//! with its own pre-flushed sorted runs, and bumps the base *stamp* so
//! engine-side memos keyed on it invalidate. Probes compose the whole chain
//! deepest-layer-first — ascending `FactId` order by construction — so a
//! consumer cannot tell whether rows arrived in one snapshot or across k
//! appends. This is the layering clause of the workspace-wide bit-identity
//! contract (`docs/ARCHITECTURE.md`).
//!
//! The join layers above ([`pattern`], `vadalog-engine::pipeline`,
//! `vadalog-chase`) match compiled patterns against `Relation::row` borrows
//! and bind ids in place, cloning **zero** `Fact`s per probe; real facts are
//! materialised only at the API boundary ([`store::FactStore::facts_of`],
//! iteration, outputs, `Display`).
//!
//! [`Fact`]: vadalog_model::Fact
//! [`Value`]: vadalog_model::Value
//! [`ValueId`]: vadalog_model::ValueId
//! [`OrderKey`]: vadalog_model::OrderKey
//! [`Relation`]: store::Relation
//! [`Relation::ensure_index`]: store::Relation::ensure_index
//! [`Relation::probe_if_indexed`]: store::Relation::probe_if_indexed
//! [`Relation::row`]: store::Relation::row
//! [`Relation::full_index_builds`]: store::Relation::full_index_builds
//! [`FactId`]: store::FactId
//! [`RangeFilter`]: store::RangeFilter
//! [`Probe::Run`]: store::Probe::Run
//! [`FactStore::freeze`]: store::FactStore::freeze
//! [`StoreBase`]: store::StoreBase
//! [`StoreBase::overlay`]: store::StoreBase::overlay
//! [`StoreBase::ensure_index`]: store::StoreBase::ensure_index
//! [`StoreBase::promote`]: store::StoreBase::promote

pub mod csv;
pub mod domain;
pub mod pattern;
pub mod store;
pub mod wal;
pub mod wcoj;

pub use csv::{read_csv_facts, write_csv_facts, CsvError};
pub use domain::ActiveDomain;
pub use pattern::{
    materialise, number_variables, undo_to, JoinScratch, ProbeBuffers, RowPattern, Slot,
};
pub use store::{
    DeltaBatch, FactId, FactStore, IndexStats, OpenSpans, Probe, RangeFilter, Relation, StoreBase,
    TrieCursor,
};
pub use wal::{TornTail, Wal, WalError, WalOpen};
pub use wcoj::{leapfrog_join, WcojCounters, WcojLevel};
