//! # vadalog-storage
//!
//! The storage substrate of the Vadalog reproduction (Section 4 of the
//! paper: record managers, dynamic in-memory indices and memory
//! management):
//!
//! * [`store`] — the in-memory [`store::FactStore`]: one relation per
//!   predicate with set semantics, *dynamic sorted-run indices* over column
//!   lists built lazily on first use (the indexing half of the slot-machine
//!   join), and deterministic iteration for reproducible runs;
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
//! * a [`Relation`] keeps its distinct tuples back to back in one flat
//!   [`RowArena`] (one `Vec<ValueId>` of ids plus one `u32` end offset per
//!   row), in insertion order; a row's [`FactId`] is its insertion position.
//!   Set-semantics dedup is an open-addressed table of 8-byte slots, each a
//!   32-bit row-hash tag next to a row position, at most 7/8 full: the row
//!   ids live once in the arena and no row has an allocation of its own
//!   (an arity-3 row costs 12 B of ids, 4 B of end offset and 8–18 B of
//!   dedup slots). [`Relation::heap_bytes`] reports the split.
//!
//! # Sorted columnar postings
//!
//! Dynamic indices are **sorted runs over column lists** rather than
//! per-column hash maps, so one index answers three probe shapes:
//!
//! * **dictionary-coded runs** — each run of an index over
//!   `(c1, c2, ...)` keeps, per column, a dictionary of its distinct
//!   `(OrderKey, ValueId)` pairs in ascending order, and per row one `u32`
//!   rank per column plus the row's [`FactId`], sorted by rank tuple with
//!   `FactId` as the final tie-break. Rank order is pair order, so the runs
//!   sort as if they held the pairs, at 4 B per column instead of 24;
//! * **one lookup path** — equal composite keys form contiguous groups, and
//!   every probe (exact, prefix, range or a trie cursor's `open`) finds its
//!   span the same way: each bound value is looked up in its column's
//!   dictionary (its order key read through the interner's shard read
//!   lock) and the span narrows column by column by rank, so a
//!   multi-column equality probe is one narrowing pass instead of N
//!   postings intersections;
//! * **range scans** — comparison conditions over orderable values
//!   (`w > 0.5`, `x <= y`) map the bound's order key to a pair of rank
//!   bounds in the column's dictionary and binary-search the runs by rank
//!   under an optional exact prefix ([`RangeFilter`]): everything strictly
//!   inside the key range is emitted without resolving a value, entries
//!   tying the bound's key are checked exactly, labelled nulls (one block
//!   of ranks) are skipped;
//! * **merge-based intersection** — probes spanning several runs merge
//!   their (disjoint, ascending) insertion segments, so postings always come
//!   back in ascending `FactId` order: the enumeration order that keeps the
//!   engine's parallel sweep bit-identical at every worker count.
//!
//! An index over rows that already exist — the loaded EDB, a session base
//! or an overlay's segments — is built as **one run** by
//! one sort: each column's distinct ids get dense ranks in
//! `(OrderKey, ValueId)` order (the sorted pairs are the column's
//! dictionary), a `u32` permutation is counting-sorted by the rank tuples,
//! and ranks and `FactId`s are written once. Tails remain the incremental
//! path: inserts into an indexed relation append to an index **tail** that
//! probes scan linearly; a full tail, or [`Relation::ensure_index`] on an
//! existing index (the engine calls it while preparing each batch, before
//! freezing the store for the worker pool), flushes the tail into a fresh
//! run by the same build and merges adjacent runs size-tiered (the merge
//! unions the two runs' dictionaries and recodes their ranks).
//! [`Relation::probe_if_indexed`] yields postings either borrowed straight
//! from a single run's whole-key group ([`Probe::Run`]) or collected into a
//! caller-owned scratch buffer, so no probe allocates.
//!
//! # Sorted-trie cursors (worst-case-optimal joins)
//!
//! The same runs double as **tries**: entries sorted per column mean the
//! rows sharing a value prefix are one contiguous span per run, with the
//! next column's distinct values in ascending `(OrderKey, ValueId)` order
//! inside it. [`TrieCursor`] (from [`store::Relation::trie_cursor`]) walks
//! that shape — `open` on an exact prefix, `key`/`seek`/`seek_past` over the
//! current column (pairs in, pairs out: each run's dictionary turns a seek
//! target into a rank bound), `descend`/`up` between columns, `leaf_facts`
//! at full depth — walking the runs oldest first, so leaf enumeration stays
//! `FactId`-ascending. [`wcoj::leapfrog_join`] drives
//! one cursor per atom through the per-variable intersection of a
//! leapfrog-triejoin; the engine selects it for cyclic rule bodies where
//! binary joins pay the intermediate-result blowup. A cursor is only handed
//! out when every involved tail is flushed; the engine's `ensure_index`
//! pass at every activation guarantees this, so it has no other way to
//! read a core atom.
//!
//! # Copy-on-write EDB snapshots
//!
//! A relation is a list of sealed, immutable row **segments** (rows plus
//! dedup table, oldest first, `Arc`-shared) plus its own mutable rows, and
//! each of its indexes is one list of `Arc`-shared sorted runs plus a tail
//! covering **all** of its rows. [`FactStore::freeze`] turns a fully-loaded
//! store into a [`StoreBase`]: every relation's rows are sealed into a
//! segment and its index tails flushed (the shared runs are final and
//! never re-sorted). [`StoreBase::overlay`] then hands out mutable stores
//! whose relations start with the base's segment and run lists — the
//! per-query storage of a query session copies no row and no run:
//!
//! * `FactId`s are insertion positions: segment rows keep theirs, own rows
//!   continue the same id space, so an overlay is observationally
//!   identical to a plain relation with the same insertion history — same
//!   ids, same enumeration order, bit-identical parallel sweeps;
//! * probes read one index: its runs cover disjoint ascending insertion
//!   ranges and the overlay's inserts land in its tail, so postings come
//!   out in the ascending `FactId` order the engine's deterministic merge
//!   relies on;
//! * maintenance: `ensure_index` on an overlay flushes its tail into a run;
//!   a column list the base lacks is built once over every row (counted by
//!   [`Relation::full_index_builds`] — a prepared session keeps this at
//!   zero via [`StoreBase::ensure_index`], which extends the base's index
//!   set between queries, copying only lists of `Arc`s when a retained
//!   overlay shares the relation).
//!
//! Appends grow the base by **segments**: [`StoreBase::promote`] seals an
//! overlay holding appended facts into a new segment, flushes its index
//! tails, merges the newest segments by the size-tiered rule the runs use
//! (so `n` rows make at most ⌊log2 n⌋ + 1 segments, with no option), and
//! bumps the base *stamp* so engine-side memos keyed on it invalidate. A
//! consumer cannot tell whether rows arrived in one snapshot or across k
//! appends. This is the snapshot clause of the workspace-wide bit-identity
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
    table_bytes, FactId, FactStore, HeapBytes, IndexStats, OpenSpans, Probe, RangeFilter, Relation,
    RowArena, StoreBase, StoreBytes, TrieCursor, Vacancy,
};
pub use wal::{TornTail, Wal, WalError, WalOpen};
pub use wcoj::{leapfrog_join, WcojCounters, WcojLevel};
