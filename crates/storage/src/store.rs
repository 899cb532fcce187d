//! In-memory fact store with interned rows and dynamic **sorted-run**
//! indices.
//!
//! A [`FactStore`] keeps one [`Relation`] per predicate. Relations have set
//! semantics (duplicate insertion is a no-op) and maintain *dynamic indices*:
//! an index over a column list is only materialised the first time a lookup
//! on those columns is requested, and is kept incrementally up to date
//! afterwards — this is the storage half of the paper's "slot machine join",
//! which builds indexes while iterators are being consumed and uses them even
//! when still incomplete.
//!
//! # Storage layout
//!
//! The store never holds a [`Fact`] at rest. Each relation stores its tuples
//! as **rows** of [`ValueId`]s over the global value interner of
//! `vadalog-model`, back to back in one flat [`RowArena`], identified by a
//! [`FactId`] equal to the row's insertion position. Set-semantics
//! deduplication is an open-addressed table of 8-byte slots, each a hash tag
//! next to a row position: the row ids exist exactly once, in the arena, and
//! no row has an allocation of its own.
//!
//! # Sorted-run indices
//!
//! Every dynamic index covers an ordered **column list** (a single column or
//! a composite prefix) and keeps its postings as a small set of **sorted
//! runs** plus an unsorted tail:
//!
//! * a `SortedRun` holds, per indexed row, one `(OrderKey, ValueId)` pair
//!   per column plus the row's `FactId`, sorted lexicographically per column
//!   (order key first, id as a grouping tie-break) with `FactId` as the final
//!   tie-break. A per-run **directory** maps the hash of each distinct
//!   composite key to its contiguous entry group, so exact composite probes
//!   are one hash lookup per run — no per-column intersection;
//! * **range scans** binary-search the run by order key: everything strictly
//!   inside the key range is emitted without resolving a value, only entries
//!   whose key ties the bound's key are checked exactly (and labelled nulls,
//!   which never satisfy an ordering comparison, are skipped by class);
//! * an index built over existing rows ([`Relation::ensure_index`]) is
//!   **one** run, made by one sort over per-column dense ranks;
//! * inserts into an indexed relation append to the index's **tail** — the
//!   incremental path. A full tail, or [`Relation::ensure_index`] on an
//!   existing index, flushes it into a fresh run (the same one-sort build)
//!   and merges adjacent runs size-tiered, so maintenance stays amortised
//!   `O(log n)` per row. Probes scan the (small) tail linearly, so an
//!   unflushed index is still exact;
//! * probes spanning several runs are **merged by `FactId`**: runs cover
//!   disjoint ascending insertion ranges, so results are always yielded in
//!   `FactId` order — the enumeration order the engine's deterministic
//!   parallel sweep relies on.
//!
//! [`Relation::probe_if_indexed`] hands postings out either as a borrowed
//! slice of a single run or through a caller-owned scratch buffer, so the
//! common exact probe costs one hash of the composite key and zero
//! allocations.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::Arc;
use vadalog_model::prelude::*;

/// Identifier of a stored row within one [`Relation`]: its insertion
/// position. `Copy`, 4 bytes, and totally ordered by insertion time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub u32);

impl FactId {
    /// The row position as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The 32-bit dedup tag of a row: its Fx hash, folded so the top bits (the
/// [`DedupTable`]'s home slot) depend on every id.
fn row_tag(row: &[ValueId]) -> u32 {
    let h = FxBuildHasher::default().hash_one(row);
    ((h ^ (h >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// Hash of a composite key (the raw ids), used by the per-run directory.
fn ids_hash(ids: &[ValueId]) -> u64 {
    FxBuildHasher::default().hash_one(ids)
}

/// Tail length at which an index flushes itself into a sorted run even
/// without an [`Relation::ensure_index`] call, bounding the linear tail scan
/// every probe performs.
const TAIL_AUTO_FLUSH: usize = 4096;

/// Facts [`FactStore::load_facts`] interns per batch: bounds the interned
/// rows held before insertion and how long the interner stays locked.
const LOAD_CHUNK: usize = 4096;

/// A pushed-down comparison condition, evaluated by the index: keeps the
/// bound's interned id and order key so range scans can binary-search by key
/// and only resolve values on key ties (see [`CmpOp::eval_ids`]).
#[derive(Clone, Copy, Debug)]
pub struct RangeFilter {
    op: CmpOp,
    bound: ValueId,
    key: OrderKey,
}

impl RangeFilter {
    /// A filter selecting the values `v` with `v op bound`. Only ordering
    /// operators (`<`, `<=`, `>`, `>=`) are rangeable — equality is an exact
    /// probe, inequality is not indexable.
    pub fn new(op: CmpOp, bound: ValueId) -> RangeFilter {
        debug_assert!(
            matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge),
            "only ordering comparisons can be range filters"
        );
        RangeFilter {
            op,
            bound,
            key: order_key_of(bound),
        }
    }

    /// Does `v` satisfy the filter? Exact (`CmpOp::eval` semantics): order
    /// keys decide, ties resolve.
    pub fn matches(&self, v: ValueId) -> bool {
        self.op.eval_ids(v, self.bound)
    }

    /// A filter whose bound is a labelled null matches nothing (ordering a
    /// null against anything is `false`).
    fn never(&self) -> bool {
        self.key.is_null_class()
    }

    /// Does the filter select values *below* the bound?
    fn is_upper(&self) -> bool {
        matches!(self.op, CmpOp::Lt | CmpOp::Le)
    }
}

/// Aggregate statistics of one materialised sorted-run index, read from its
/// run directories: how many rows it indexes and how many distinct composite
/// keys they group into. Read per layer by
/// [`Relation::index_stats_per_layer`], which `vadalog query --stats`
/// prints; no plan reads it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    /// Indexed rows across all sorted runs and the unflushed tail.
    pub entries: usize,
    /// Distinct composite keys, summed over the runs' directories (a key
    /// split across runs counts once per run). Unflushed tail rows count as
    /// one key each — an upper bound that vanishes after a flush.
    pub distinct_keys: usize,
}

/// The result of an index probe: postings in ascending [`FactId`] order.
#[derive(Debug)]
pub enum Probe<'a> {
    /// Borrowed directly from a single sorted run — the zero-copy fast path
    /// of exact composite probes.
    Run(&'a [FactId]),
    /// The probe spanned several runs, a range boundary or the tail; the
    /// result was collected into the caller's scratch buffer.
    Buffered,
}

impl<'a> Probe<'a> {
    /// View the postings, whichever way the probe yielded them. `scratch`
    /// must be the buffer passed to the probe call.
    pub fn as_slice<'s>(&self, scratch: &'s [FactId]) -> &'s [FactId]
    where
        'a: 's,
    {
        match self {
            Probe::Run(ids) => ids,
            Probe::Buffered => scratch,
        }
    }
}

/// First index in `[0, n)` for which `less` is false (classic lower bound).
fn lower_bound(mut lo: usize, mut hi: usize, mut less: impl FnMut(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if less(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One sorted run of an index: `k` `(OrderKey, ValueId)` pairs per entry
/// (entry-major), the matching `FactId`s, and the directory of composite-key
/// groups. Entries are sorted per column by `(key, id)` with `FactId` as the
/// final tie-break, so equal composite keys form contiguous, FactId-ordered
/// groups and every column is range-scannable under its prefix.
#[derive(Clone, Debug, Default)]
pub(crate) struct SortedRun {
    keys: Vec<(OrderKey, ValueId)>,
    facts: Vec<FactId>,
    /// composite-key hash → (start, len) of the group. On the rare hash
    /// collision the directory keeps one group and probes for the other fall
    /// back to binary search.
    dir: FxHashMap<u64, (u32, u32)>,
}

impl SortedRun {
    fn entry(&self, k: usize, i: usize) -> &[(OrderKey, ValueId)] {
        &self.keys[i * k..(i + 1) * k]
    }

    fn entry_ids_eq(&self, k: usize, i: usize, ids: &[ValueId]) -> bool {
        self.entry(k, i).iter().zip(ids).all(|((_, v), id)| v == id)
    }

    /// Build a run from unsorted entries — each a `FactId` and its `k` ids —
    /// given in ascending `FactId` order, with **one sort**: every column's
    /// distinct ids get dense ranks in `(OrderKey, ValueId)` order, a `u32`
    /// permutation is sorted by the rank tuples (a stable counting pass per
    /// column, last column first, so insertion order is the final
    /// tie-break), and keys, facts and the directory are written once, in
    /// final order. Besides the run itself the build holds `O(n)` `u32`s
    /// (ranks, permutation, scratch) plus one rank table per column.
    pub(crate) fn from_entries<I, R>(k: usize, entries: I) -> SortedRun
    where
        I: IntoIterator<Item = (FactId, R)>,
        R: IntoIterator<Item = ValueId>,
    {
        let entries = entries.into_iter();
        let (lower, _) = entries.size_hint();
        let mut columns: Vec<(FxHashMap<ValueId, u32>, Vec<ValueId>)> =
            (0..k).map(|_| Default::default()).collect();
        let mut ranks: Vec<u32> = Vec::with_capacity(lower * k);
        let mut facts: Vec<FactId> = Vec::with_capacity(lower);
        for (fact, ids) in entries {
            assert!(
                facts.last().is_none_or(|last| *last < fact),
                "entries come in ascending FactId order"
            );
            facts.push(fact);
            for ((slot_of, distinct), id) in columns.iter_mut().zip(ids) {
                let next = distinct.len() as u32;
                let slot = *slot_of.entry(id).or_insert(next);
                if slot == next {
                    distinct.push(id);
                }
                ranks.push(slot);
            }
        }
        let n = facts.len();
        assert_eq!(ranks.len(), n * k, "every entry carries k ids");

        // First-seen slots -> ranks in (OrderKey, ValueId) order, per column.
        let mut pairs: Vec<Vec<(OrderKey, ValueId)>> = Vec::with_capacity(k);
        for (c, (_, distinct)) in columns.into_iter().enumerate() {
            let keys = order_keys_of(&distinct);
            let pair = |slot: u32| (keys[slot as usize], distinct[slot as usize]);
            let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
            order.sort_unstable_by_key(|&slot| pair(slot));
            let mut rank_of = vec![0u32; order.len()];
            for (rank, &slot) in order.iter().enumerate() {
                rank_of[slot as usize] = rank as u32;
            }
            for r in ranks.iter_mut().skip(c).step_by(k) {
                *r = rank_of[*r as usize];
            }
            pairs.push(order.into_iter().map(pair).collect());
        }

        // LSD counting sort of the permutation by rank tuple.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut scratch: Vec<u32> = vec![0; n];
        let mut starts: Vec<u32> = Vec::new();
        for c in (0..k).rev() {
            let distinct = pairs[c].len();
            if distinct <= 1 {
                continue;
            }
            let rank = |p: u32| ranks[p as usize * k + c] as usize;
            starts.clear();
            starts.resize(distinct + 1, 0);
            for &p in &perm {
                starts[rank(p) + 1] += 1;
            }
            for r in 1..=distinct {
                starts[r] += starts[r - 1];
            }
            for &p in &perm {
                let slot = &mut starts[rank(p)];
                scratch[*slot as usize] = p;
                *slot += 1;
            }
            std::mem::swap(&mut perm, &mut scratch);
        }
        drop(scratch);

        // Write the run in final order; group boundaries are rank changes.
        let tuple = |p: u32| &ranks[p as usize * k..(p as usize + 1) * k];
        let groups = usize::from(n > 0)
            + perm
                .windows(2)
                .filter(|w| tuple(w[0]) != tuple(w[1]))
                .count();
        let mut run = SortedRun {
            keys: Vec::with_capacity(n * k),
            facts: Vec::with_capacity(n),
            dir: FxHashMap::with_capacity_and_hasher(groups, Default::default()),
        };
        let mut ids: Vec<ValueId> = Vec::with_capacity(k);
        let mut group_start = 0;
        for (i, &p) in perm.iter().enumerate() {
            if i > 0 && tuple(perm[i - 1]) != tuple(p) {
                run.insert_group(k, group_start, i, &mut ids);
                group_start = i;
            }
            run.keys
                .extend(tuple(p).iter().zip(&pairs).map(|(r, col)| col[*r as usize]));
            run.facts.push(facts[p as usize]);
        }
        if n > 0 {
            run.insert_group(k, group_start, n, &mut ids);
        }
        run
    }

    /// Build a run over `rows` (each with its `FactId`, ascending) projected
    /// on `cols`. Rows too narrow for the column list are skipped — they can
    /// never match a probe of this width.
    pub(crate) fn from_rows<'a>(
        cols: &[usize],
        rows: impl IntoIterator<Item = (FactId, &'a [ValueId])>,
    ) -> SortedRun {
        SortedRun::from_entries(
            cols.len(),
            rows.into_iter()
                .filter(|(_, row)| cols.iter().all(|c| *c < row.len()))
                .map(|(id, row)| (id, cols.iter().map(move |c| row[*c]))),
        )
    }

    /// Record the entry group `[start, end)` in the directory. On a hash
    /// collision the later group wins (probes for the other fall back to
    /// binary search).
    fn insert_group(&mut self, k: usize, start: usize, end: usize, ids: &mut Vec<ValueId>) {
        ids.clear();
        ids.extend(self.entry(k, start).iter().map(|(_, v)| *v));
        self.dir
            .insert(ids_hash(ids), (start as u32, (end - start) as u32));
    }

    /// Merge two sorted runs covering adjacent insertion ranges.
    fn merge(k: usize, a: SortedRun, b: SortedRun) -> SortedRun {
        let n = a.facts.len() + b.facts.len();
        let mut keys = Vec::with_capacity(n * k);
        let mut facts = Vec::with_capacity(n);
        let (mut i, mut j) = (0, 0);
        while i < a.facts.len() && j < b.facts.len() {
            let take_a = a
                .entry(k, i)
                .cmp(b.entry(k, j))
                .then_with(|| a.facts[i].cmp(&b.facts[j]))
                .is_le();
            if take_a {
                keys.extend_from_slice(a.entry(k, i));
                facts.push(a.facts[i]);
                i += 1;
            } else {
                keys.extend_from_slice(b.entry(k, j));
                facts.push(b.facts[j]);
                j += 1;
            }
        }
        keys.extend_from_slice(&a.keys[i * k..]);
        facts.extend_from_slice(&a.facts[i..]);
        keys.extend_from_slice(&b.keys[j * k..]);
        facts.extend_from_slice(&b.facts[j..]);
        let mut run = SortedRun {
            keys,
            facts,
            dir: FxHashMap::default(),
        };
        run.rebuild_dir(k);
        run
    }

    /// Rebuild the composite-key directory: one entry per distinct key group.
    fn rebuild_dir(&mut self, k: usize) {
        self.dir.clear();
        let n = self.facts.len();
        let mut ids: Vec<ValueId> = Vec::with_capacity(k);
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && self.entry(k, start) == self.entry(k, end) {
                end += 1;
            }
            self.insert_group(k, start, end, &mut ids);
            start = end;
        }
    }

    /// Contiguous group of entries whose first `pairs.len()` columns equal
    /// `pairs`, as an entry-index span.
    fn group_span(&self, k: usize, pairs: &[(OrderKey, ValueId)]) -> (usize, usize) {
        let n = self.facts.len();
        let p = pairs.len();
        let lo = lower_bound(0, n, |i| self.entry(k, i)[..p] < *pairs);
        let hi = lower_bound(lo, n, |i| self.entry(k, i)[..p] <= *pairs);
        (lo, hi)
    }

    /// Exact full-composite probe: directory hit, or (on a directory hash
    /// collision) a binary-search fallback. The returned slice is in
    /// ascending `FactId` order.
    fn exact_group(&self, k: usize, ids: &[ValueId]) -> &[FactId] {
        match self.dir.get(&ids_hash(ids)) {
            None => &[],
            Some(&(start, len)) => {
                let s = start as usize;
                if self.entry_ids_eq(k, s, ids) {
                    &self.facts[s..s + len as usize]
                } else {
                    // Directory collision: locate the group the slow way.
                    let pairs: Vec<(OrderKey, ValueId)> =
                        ids.iter().map(|v| (order_key_of(*v), *v)).collect();
                    let (lo, hi) = self.group_span(k, &pairs);
                    &self.facts[lo..hi]
                }
            }
        }
    }

    /// Append to `out` the facts of entries in `[g0, g1)` whose column `p`
    /// satisfies `range`. Entries strictly inside the key range are emitted
    /// with only a null-class check; entries tying the bound's key are
    /// checked exactly.
    fn collect_range(
        &self,
        k: usize,
        (g0, g1): (usize, usize),
        p: usize,
        range: &RangeFilter,
        out: &mut Vec<FactId>,
    ) {
        let key_at = |i: usize| self.entry(k, i)[p].0;
        let lo = lower_bound(g0, g1, |i| key_at(i) < range.key);
        let hi = lower_bound(lo, g1, |i| key_at(i) <= range.key);
        let interior = if range.is_upper() { g0..lo } else { hi..g1 };
        for i in interior {
            if !key_at(i).is_null_class() {
                out.push(self.facts[i]);
            }
        }
        for i in lo..hi {
            if range.matches(self.entry(k, i)[p].1) {
                out.push(self.facts[i]);
            }
        }
    }
}

/// A dynamic index over an ordered column list: sorted runs over disjoint
/// ascending insertion ranges plus an unsorted tail of recent inserts.
#[derive(Clone, Debug)]
struct SortedIndex {
    cols: Box<[usize]>,
    runs: Vec<SortedRun>,
    /// `cols.len()` ids per tail row, in insertion order.
    tail_ids: Vec<ValueId>,
    tail_facts: Vec<FactId>,
    /// For an overlay relation (one with a copy-on-write base): does this
    /// index cover the base rows too? `true` only for the fallback indexes
    /// built when the shared base lacks the column list — probes then use
    /// this index alone instead of composing base + overlay.
    covers_base: bool,
}

impl SortedIndex {
    fn new(cols: &[usize]) -> SortedIndex {
        SortedIndex {
            cols: cols.into(),
            runs: Vec::new(),
            tail_ids: Vec::new(),
            tail_facts: Vec::new(),
            covers_base: false,
        }
    }

    fn k(&self) -> usize {
        self.cols.len()
    }

    /// Register a newly inserted row. Rows too narrow for the column list
    /// are not indexed (they can never match a probe of this width).
    fn push_row(&mut self, id: FactId, row: &[ValueId]) {
        if self.cols.iter().all(|c| *c < row.len()) {
            for c in self.cols.iter() {
                self.tail_ids.push(row[*c]);
            }
            self.tail_facts.push(id);
            if self.tail_facts.len() >= TAIL_AUTO_FLUSH {
                self.flush();
            }
        }
    }

    /// Sort the tail into a fresh run and merge adjacent runs size-tiered,
    /// keeping the run count logarithmic in the relation size.
    fn flush(&mut self) {
        if self.tail_facts.is_empty() {
            return;
        }
        let k = self.k();
        let tail_ids = std::mem::take(&mut self.tail_ids);
        let tail_facts = std::mem::take(&mut self.tail_facts);
        self.runs.push(SortedRun::from_entries(
            k,
            tail_facts
                .iter()
                .enumerate()
                .map(|(i, f)| (*f, tail_ids[i * k..(i + 1) * k].iter().copied())),
        ));
        while self.runs.len() >= 2 {
            let n = self.runs.len();
            if self.runs[n - 2].facts.len() <= self.runs[n - 1].facts.len() * 2 {
                let b = self.runs.pop().expect("len checked");
                let a = self.runs.pop().expect("len checked");
                self.runs.push(SortedRun::merge(k, a, b));
            } else {
                break;
            }
        }
    }

    /// Probe the index: exact on the first `prefix.len()` columns, plus an
    /// optional range filter on the next column. Postings come back in
    /// ascending `FactId` order — borrowed from a single run when possible,
    /// otherwise collected into `out`.
    fn probe<'r>(
        &'r self,
        prefix: &[ValueId],
        range: Option<&RangeFilter>,
        out: &mut Vec<FactId>,
    ) -> Probe<'r> {
        out.clear();
        match self.probe_append(prefix, range, out) {
            Some(run) => Probe::Run(run),
            None => Probe::Buffered,
        }
    }

    /// The composable core of [`SortedIndex::probe`]: **append** matching
    /// postings to `out` (which may already hold smaller `FactId`s from a
    /// copy-on-write base probe), or — when the whole result is one borrowed
    /// run group and nothing was appended — return that slice instead and
    /// leave `out` untouched. Either way the ids this index contributes are
    /// in ascending `FactId` order.
    fn probe_append<'r>(
        &'r self,
        prefix: &[ValueId],
        range: Option<&RangeFilter>,
        out: &mut Vec<FactId>,
    ) -> Option<&'r [FactId]> {
        let k = self.k();
        debug_assert!(prefix.len() + usize::from(range.is_some()) <= k);
        if range.is_some_and(RangeFilter::never) {
            return None;
        }

        if range.is_none() && prefix.len() == k {
            // Exact composite probe: directory lookups, zero allocations.
            let start = out.len();
            let mut single: Option<&[FactId]> = None;
            let mut multi = false;
            for run in &self.runs {
                let group = run.exact_group(k, prefix);
                if group.is_empty() {
                    continue;
                }
                match single {
                    None if !multi => single = Some(group),
                    _ => {
                        if let Some(first) = single.take() {
                            out.extend_from_slice(first);
                        }
                        multi = true;
                        out.extend_from_slice(group);
                    }
                }
            }
            for (i, f) in self.tail_facts.iter().enumerate() {
                if self.tail_ids[i * k..(i + 1) * k] == *prefix {
                    out.push(*f);
                }
            }
            match single {
                // Runs cover ascending disjoint insertion ranges and the
                // tail is newest, so concatenations stay FactId-ordered.
                Some(group) if out.len() == start => Some(group),
                Some(group) => {
                    // A single run plus tail matches: splice in run order
                    // (only the tail was appended past `start`).
                    out.splice(start..start, group.iter().copied());
                    None
                }
                None => None,
            }
        } else {
            // Prefix and/or range probe: binary search per run by order key.
            let pairs: Vec<(OrderKey, ValueId)> =
                prefix.iter().map(|v| (order_key_of(*v), *v)).collect();
            let p = prefix.len();
            for run in &self.runs {
                let span = run.group_span(k, &pairs);
                if span.0 >= span.1 {
                    continue;
                }
                let before = out.len();
                match range {
                    Some(r) => run.collect_range(k, span, p, r, out),
                    None => out.extend_from_slice(&run.facts[span.0..span.1]),
                }
                // Within one run a multi-key span is key-ordered, not
                // FactId-ordered; runs themselves are ascending segments.
                out[before..].sort_unstable();
            }
            for (i, f) in self.tail_facts.iter().enumerate() {
                let ids = &self.tail_ids[i * k..(i + 1) * k];
                if ids[..p] == *prefix && range.is_none_or(|r| r.matches(ids[p])) {
                    out.push(*f);
                }
            }
            None
        }
    }
}

/// A memoised [`TrieCursor::open`] result: whether the prefix span is
/// non-empty, plus the per-run `(lo, hi)` spans to restore on a repeat.
/// Public only as the element type of the hoisted memo bank
/// ([`crate::pattern::JoinScratch::trie_memos`]) — the spans are opaque to
/// everything outside [`TrieCursor`].
pub type OpenSpans = (bool, Box<[(u32, u32)]>);

/// A sorted-**trie** cursor over one relation's run index: the
/// leapfrog-triejoin face of the sorted columnar postings.
///
/// The runs of an index over `(c1, ..., ck)` are already tries in disguise:
/// entries are sorted lexicographically per column, so the entries sharing a
/// value prefix form one contiguous span per run, and the distinct values of
/// the next column appear in ascending `(OrderKey, ValueId)` order within
/// that span. A `TrieCursor` walks this shape directly — no new storage
/// format — by keeping one `(lo, hi, pos)` span per run per opened column:
///
/// * [`TrieCursor::open`] positions the cursor on the span of an exact value
///   prefix (the columns a join binding already determines);
/// * [`TrieCursor::key`] / [`TrieCursor::seek`] / [`TrieCursor::seek_past`]
///   enumerate the current column's values in ascending pair order,
///   leapfrogging via binary search within each run's span;
/// * [`TrieCursor::descend`] / [`TrieCursor::up`] move between columns,
///   narrowing every run's span to the entries carrying the chosen value;
/// * at full depth [`TrieCursor::leaf_facts`] yields the matching `FactId`s
///   in ascending order (runs cover disjoint ascending insertion ranges, and
///   a copy-on-write base's runs come before the overlay's).
///
/// Values are compared as `(OrderKey, ValueId)` pairs — the runs' sort
/// order. Pair equality coincides with id equality (ids are global interns
/// and a value's order key is a pure function of the value), so an
/// intersection on pairs is an intersection on values.
///
/// A cursor is only handed out by [`Relation::trie_cursor`] when every
/// involved index tail is flushed and (for overlays without their own index)
/// no unindexed overlay rows exist — otherwise the caller must fall back to
/// the probe/scan path. The store state is identical on every worker thread,
/// so the fallback decision is deterministic.
#[derive(Clone, Debug)]
pub struct TrieCursor<'r> {
    /// Columns per entry of the underlying index.
    k: usize,
    /// The composed runs: a copy-on-write base's runs first (strictly
    /// smaller `FactId`s), then the overlay's own.
    runs: Vec<&'r SortedRun>,
    /// One `(lo, hi, pos)` span per run per opened column, flattened: the
    /// last `runs.len()` triples are the current column's frame.
    frames: Vec<(u32, u32, u32)>,
    /// Columns currently bound (prefix columns after `open`, plus one per
    /// `descend`).
    depth: usize,
    /// Scratch for `open`'s prefix pairs (reused across rows).
    pairs: Vec<(OrderKey, ValueId)>,
    /// Memo of [`TrieCursor::open`] spans by prefix: join drivers re-open
    /// the same few prefix values once per delta row, and the underlying
    /// runs are frozen for the cursor's lifetime, so each distinct prefix
    /// pays the per-run binary searches once and every repeat is a hash
    /// lookup. Keyed on the raw prefix ids (`spans[i]` is run `i`'s
    /// `(lo, hi)`).
    open_memo: HashMap<Box<[ValueId]>, OpenSpans>,
}

impl<'r> TrieCursor<'r> {
    pub(crate) fn new(k: usize, runs: Vec<&'r SortedRun>) -> TrieCursor<'r> {
        TrieCursor {
            k,
            runs,
            frames: Vec::new(),
            depth: 0,
            pairs: Vec::new(),
            open_memo: HashMap::new(),
        }
    }

    /// Number of indexed columns (the trie's full depth).
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Install an open-span memo previously [taken](TrieCursor::take_memo)
    /// from a cursor over the **same frozen runs** — the engine hoists memos
    /// into its per-worker [`JoinScratch`](crate::pattern::JoinScratch) so
    /// consecutive chunks of one filter activation (store frozen, identical
    /// run composition) skip the per-run binary searches for prefixes they
    /// already opened. A memo whose span count does not match this cursor's
    /// run count is silently discarded: restoring it would index the wrong
    /// runs.
    pub fn adopt_memo(&mut self, memo: HashMap<Box<[ValueId]>, OpenSpans>) {
        let compatible = memo
            .values()
            .next()
            .is_none_or(|(_, spans)| spans.len() == self.runs.len());
        if compatible {
            self.open_memo = memo;
        }
    }

    /// Take the cursor's open-span memo, leaving an empty one behind. Memos
    /// only ever accelerate [`TrieCursor::open`] — adopting or clearing one
    /// never changes a cursor's results, so the hoist cannot perturb the
    /// bit-identity contract.
    pub fn take_memo(&mut self) -> HashMap<Box<[ValueId]>, OpenSpans> {
        std::mem::take(&mut self.open_memo)
    }

    /// Columns currently bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Position the cursor on the entries whose first `prefix.len()` columns
    /// equal `prefix`, discarding any previous position. Returns `false`
    /// when no entry matches (the cursor is then exhausted at every depth).
    pub fn open(&mut self, prefix: &[ValueId]) -> bool {
        debug_assert!(prefix.len() <= self.k);
        self.frames.clear();
        self.depth = prefix.len();
        if let Some((any, spans)) = self.open_memo.get(prefix) {
            self.frames
                .extend(spans.iter().map(|&(lo, hi)| (lo, hi, lo)));
            return *any;
        }
        self.pairs.clear();
        self.pairs
            .extend(prefix.iter().map(|v| (order_key_of(*v), *v)));
        let mut any = false;
        for run in &self.runs {
            let (lo, hi) = if self.pairs.is_empty() {
                (0, run.facts.len())
            } else {
                run.group_span(self.k, &self.pairs)
            };
            any |= lo < hi;
            self.frames.push((lo as u32, hi as u32, lo as u32));
        }
        self.open_memo.insert(
            prefix.into(),
            (
                any,
                self.frames.iter().map(|&(lo, hi, _)| (lo, hi)).collect(),
            ),
        );
        any
    }

    /// The smallest `(OrderKey, ValueId)` pair at the current column across
    /// all runs, or `None` when the cursor is exhausted at this depth.
    pub fn key(&self) -> Option<(OrderKey, ValueId)> {
        debug_assert!(self.depth < self.k, "key() at leaf depth");
        let base = self.frames.len() - self.runs.len();
        let mut best: Option<(OrderKey, ValueId)> = None;
        for (r, run) in self.runs.iter().enumerate() {
            let (_, hi, pos) = self.frames[base + r];
            if pos < hi {
                let pair = run.entry(self.k, pos as usize)[self.depth];
                best = Some(match best {
                    Some(b) if b <= pair => b,
                    _ => pair,
                });
            }
        }
        best
    }

    /// Advance the current column to the first value `>= target` (pair
    /// order). A no-op for runs already at or past the target.
    pub fn seek(&mut self, target: (OrderKey, ValueId)) {
        self.advance(target, false);
    }

    /// Advance the current column strictly past `target`.
    pub fn seek_past(&mut self, target: (OrderKey, ValueId)) {
        self.advance(target, true);
    }

    fn advance(&mut self, target: (OrderKey, ValueId), past: bool) {
        let base = self.frames.len() - self.runs.len();
        for (r, run) in self.runs.iter().enumerate() {
            let (lo, hi, pos) = self.frames[base + r];
            let d = self.depth;
            let next = lower_bound(pos as usize, hi as usize, |i| {
                let pair = run.entry(self.k, i)[d];
                if past {
                    pair <= target
                } else {
                    pair < target
                }
            });
            self.frames[base + r] = (lo, hi, next as u32);
        }
    }

    /// Bind the current column to `value` (which the caller observed via
    /// [`TrieCursor::key`] after seeking every run to it) and move one
    /// column deeper: every run's span narrows to its entries equal to
    /// `value` at this column.
    pub fn descend(&mut self, value: (OrderKey, ValueId)) {
        debug_assert!(self.depth < self.k);
        let base = self.frames.len() - self.runs.len();
        for (r, run) in self.runs.iter().enumerate() {
            let (_, hi, pos) = self.frames[base + r];
            let d = self.depth;
            let child_hi = lower_bound(pos as usize, hi as usize, |i| {
                run.entry(self.k, i)[d] <= value
            });
            self.frames.push((pos, child_hi as u32, pos));
        }
        self.depth += 1;
    }

    /// Reset the current column's positions to the start of their spans,
    /// undoing any [`TrieCursor::seek`]s at this depth (the spans themselves
    /// are untouched). A leapfrog level calls this on exit so the cursors it
    /// seeked — but never descended — re-enumerate from the start when the
    /// enclosing level advances.
    pub fn rewind(&mut self) {
        let base = self.frames.len() - self.runs.len();
        for frame in &mut self.frames[base..] {
            frame.2 = frame.0;
        }
    }

    /// Undo the innermost [`TrieCursor::descend`], restoring the parent
    /// column's spans and positions.
    pub fn up(&mut self) {
        debug_assert!(self.frames.len() > self.runs.len(), "up() past the root");
        self.frames.truncate(self.frames.len() - self.runs.len());
        self.depth -= 1;
    }

    /// Append the `FactId`s of the entries at the current (full-depth)
    /// position, in ascending order. With set semantics at most one row of
    /// width `arity()` can match a full binding, but a relation holding
    /// wider rows may contribute several — callers matching an atom filter
    /// by row width.
    pub fn leaf_facts(&self, out: &mut Vec<FactId>) {
        debug_assert_eq!(self.depth, self.k, "leaf_facts() above leaf depth");
        let base = self.frames.len() - self.runs.len();
        for (r, run) in self.runs.iter().enumerate() {
            let (lo, hi, _) = self.frames[base + r];
            out.extend_from_slice(&run.facts[lo as usize..hi as usize]);
        }
    }
}

/// Rows of mixed arity in one flat buffer: every row's ids back to back in
/// one `Vec<ValueId>`, plus each row's end offset (row `i` spans
/// `ends[i - 1]..ends[i]`, row 0 starts at 0). A row costs its ids and one
/// `u32`, with no allocation of its own. This is the layout of a relation's
/// rows.
#[derive(Clone, Debug, Default)]
pub struct RowArena {
    values: Vec<ValueId>,
    ends: Vec<u32>,
}

impl RowArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Does the arena hold no row?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Row `i`, in push order.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[ValueId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.values[start..self.ends[i] as usize]
    }

    /// Every row, in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[ValueId]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Append a copy of `row`.
    pub fn push(&mut self, row: &[ValueId]) {
        self.values.extend_from_slice(row);
        self.close_row();
    }

    fn close_row(&mut self) {
        let end = u32::try_from(self.values.len()).expect("row arena overflow: u32 offsets");
        self.ends.push(end);
    }

    /// Heap bytes held, counted by capacity.
    fn heap_bytes(&self) -> usize {
        self.values.capacity() * size_of::<ValueId>() + self.ends.capacity() * size_of::<u32>()
    }
}

/// A layer's set-semantics dedup: an open-addressed, linear-probing table of
/// its own rows' positions. Each 8-byte slot packs a row's 32-bit hash tag
/// (high half) next to its local position + 1 (low half; 0 marks an empty
/// slot), so a probe compares tags and reads a row from the arena only on a
/// tag match. A row's home slot is the top bits of its tag, so growing
/// re-places every slot from its tag alone, without touching a row. The
/// table is a power of two at most 7/8 full.
#[derive(Clone, Debug, Default)]
struct DedupTable {
    slots: Vec<u64>,
    len: usize,
}

impl DedupTable {
    /// A table that holds `rows` entries without growing.
    fn with_capacity(rows: usize) -> DedupTable {
        let mut table = DedupTable::default();
        if rows > 0 {
            table.slots = vec![0; (rows * 8).div_ceil(7).next_power_of_two().max(16)];
        }
        table
    }

    fn home(&self, tag: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (((tag as u64) << 32) >> (64 - bits)) as usize
    }

    /// Look for an entry under `tag` whose row `eq` accepts: `Ok(local)` when
    /// found, else `Err(slot)`, the empty slot that ended the probe (where
    /// [`DedupTable::insert_at`] puts a new entry under `tag`).
    fn find(&self, tag: u32, mut eq: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            if (slot >> 32) as u32 == tag && eq((slot as u32 - 1) as usize) {
                return Ok((slot as u32 - 1) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record local row `local` under `tag` at `slot`, the empty slot a
    /// failed [`DedupTable::find`] for `tag` returned.
    fn insert_at(&mut self, mut slot: usize, tag: u32, local: usize) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
            slot = self.find(tag, |_| false).expect_err("no entry matches");
        }
        self.slots[slot] = (tag as u64) << 32 | (local as u64 + 1);
        self.len += 1;
    }

    /// Double the table (16 slots at least) and re-place every entry.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; cap]);
        let mask = cap - 1;
        for slot in old.into_iter().filter(|s| *s != 0) {
            let mut i = self.home((slot >> 32) as u32);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u64>()
    }
}

/// Heap bytes of store structures, counted by capacity: row arenas, dedup
/// tables, and sorted-run indexes (runs, directories and tails). Hash-map
/// directories are estimated from their capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// Row arenas: ids plus row ends.
    pub rows: usize,
    /// Dedup tables.
    pub dedup: usize,
    /// Sorted-run indexes.
    pub indexes: usize,
}

impl HeapBytes {
    /// Sum of the three parts.
    pub fn total(&self) -> usize {
        self.rows + self.dedup + self.indexes
    }
}

impl std::ops::AddAssign for HeapBytes {
    fn add_assign(&mut self, other: HeapBytes) {
        self.rows += other.rows;
        self.dedup += other.dedup;
        self.indexes += other.indexes;
    }
}

/// [`HeapBytes`] of a relation or a store, the layers it owns listed apart
/// from the shared immutable base layers below them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreBytes {
    /// The relation's own rows, dedup and indexes (all of a plain one).
    pub own: HeapBytes,
    /// Every layer of the copy-on-write base chain.
    pub base: HeapBytes,
}

impl StoreBytes {
    /// Own plus base.
    pub fn total(&self) -> HeapBytes {
        let mut total = self.own;
        total += self.base;
        total
    }
}

/// Estimated heap bytes of a hash table that holds `capacity` entries of
/// `entry` bytes: a power-of-two bucket count at most 7/8 full, each bucket
/// one entry plus one control byte.
pub fn table_bytes(capacity: usize, entry: usize) -> usize {
    match capacity {
        0 => 0,
        cap => (cap * 8 / 7).next_power_of_two() * (entry + 1),
    }
}

/// Estimated heap bytes of a hash map ([`table_bytes`]).
fn map_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    table_bytes(map.capacity(), size_of::<(K, V)>())
}

impl SortedIndex {
    fn heap_bytes(&self) -> usize {
        let runs: usize = self
            .runs
            .iter()
            .map(|run| {
                run.keys.capacity() * size_of::<(OrderKey, ValueId)>()
                    + run.facts.capacity() * size_of::<FactId>()
                    + map_bytes(&run.dir)
            })
            .sum();
        runs + self.runs.capacity() * size_of::<SortedRun>()
            + self.tail_ids.capacity() * size_of::<ValueId>()
            + self.tail_facts.capacity() * size_of::<FactId>()
    }
}

/// A single relation: all rows of one predicate.
///
/// Every layer keeps its own rows in one [`RowArena`] (rows of any arity
/// back to back, no allocation per row) and deduplicates them through an
/// open-addressed table of row positions; rows are compared in the arena,
/// never boxed. [`Relation::heap_bytes`] reports what the layers hold.
///
/// A relation is either **plain** (it owns every row, `base` is `None`) or a
/// **copy-on-write overlay** over a shared, immutable base relation: the base
/// keeps its interned rows *and* its sorted runs/directories behind an `Arc`,
/// the overlay owns only the rows inserted after the snapshot. `FactId`s of
/// base rows are their original positions; overlay rows continue the same id
/// space (`base.len()..`), so probes composing base postings before overlay
/// postings stay ascending by construction — exactly the enumeration order a
/// plain relation with the same insertion history would produce.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    /// The shared immutable snapshot this relation overlays, if any. The
    /// base may itself be an overlay: promoted layers form a chain (oldest
    /// layer at the bottom), and every composed operation walks it.
    base: Option<Arc<Relation>>,
    /// Row arena: the single copy of every tuple owned by *this* relation,
    /// in insertion order (overlay rows only, when `base` is set). Row `i`
    /// of the arena is `FactId(base_row_count() + i)`.
    rows: RowArena,
    /// Set-semantics dedup over this relation's own rows (arena positions,
    /// not `FactId`s); the base chain's tables are consulted first.
    dedup: DedupTable,
    /// Dynamic sorted-run indices, one per requested column list. In an
    /// overlay they usually cover only the overlay rows (the base brings its
    /// own runs); a [`SortedIndex::covers_base`] index is the fallback for
    /// column lists the base never indexed.
    indices: Vec<SortedIndex>,
    /// Number of full (base-covering) index builds this overlay performed —
    /// the rebuild work a well-prepared snapshot avoids entirely.
    full_index_builds: u64,
}

impl Relation {
    /// Create an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty overlay over a shared immutable base: the
    /// copy-on-write snapshot entry point. The base's rows, dedup table and
    /// sorted-run indexes are reused as-is; inserts land in the overlay. The
    /// base may itself be a promoted layer chain (see
    /// [`StoreBase::promote`]).
    pub fn with_base(base: Arc<Relation>) -> Self {
        Relation {
            base: Some(base),
            ..Self::default()
        }
    }

    /// Number of rows contributed by the whole shared base chain (0 for
    /// plain relations).
    pub fn base_row_count(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len())
    }

    /// Number of immutable layers below this relation's own rows (0 for a
    /// plain relation, k for an overlay of a k-layer chain).
    pub fn layer_depth(&self) -> usize {
        let mut depth = 0;
        let mut base = self.base.as_deref();
        while let Some(b) = base {
            depth += 1;
            base = b.base.as_deref();
        }
        depth
    }

    /// Number of rows owned by this relation itself (everything, for a plain
    /// relation; the copy-on-write overlay otherwise).
    pub fn overlay_row_count(&self) -> usize {
        self.rows.len()
    }

    /// Full (base-covering) index builds this overlay performed because the
    /// base lacked a planned column list. 0 on plain relations.
    pub fn full_index_builds(&self) -> u64 {
        self.full_index_builds
    }

    /// Heap bytes of this relation's own layer and, apart, of every layer of
    /// its base chain, counted by capacity.
    pub fn heap_bytes(&self) -> StoreBytes {
        let mut bytes = StoreBytes {
            own: self.layer_bytes(),
            base: HeapBytes::default(),
        };
        let mut base = self.base.as_deref();
        while let Some(layer) = base {
            bytes.base += layer.layer_bytes();
            base = layer.base.as_deref();
        }
        bytes
    }

    fn layer_bytes(&self) -> HeapBytes {
        HeapBytes {
            rows: self.rows.heap_bytes(),
            dedup: self.dedup.heap_bytes(),
            indexes: self.indices.iter().map(SortedIndex::heap_bytes).sum(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.base_row_count() + self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a row; returns its fresh [`FactId`], or `None` if an equal row
    /// is already present (in the shared base or in this relation).
    pub fn insert_row(&mut self, row: &[ValueId]) -> Option<FactId> {
        let base_len = self.base_row_count();
        let local = self.rows.len();
        assert!(
            base_len + local < u32::MAX as usize,
            "relation overflow: FactId space exhausted"
        );
        let tag = row_tag(row);
        if self.base_chain_find(tag, row).is_some() {
            return None;
        }
        let rows = &self.rows;
        let slot = self.dedup.find(tag, |i| rows.row(i) == row).err()?;
        self.dedup.insert_at(slot, tag, local);
        let id = FactId((base_len + local) as u32);
        self.index_new_row(id, row);
        self.rows.push(row);
        Some(id)
    }

    /// Keep the already-materialised indices up to date with a new row (the
    /// row joins each index's tail; probes scan the tail, so the index stays
    /// exact without re-sorting per insert).
    fn index_new_row(&mut self, id: FactId, row: &[ValueId]) {
        for index in self.indices.iter_mut() {
            index.push_row(id, row);
        }
    }

    /// Insert a fact (interning its arguments); returns `true` if it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.insert_row(&fact.intern_args()).is_some()
    }

    /// Insert a batch of rows in order: dedup, row arena and every
    /// materialised index are updated per row exactly as repeated
    /// [`Relation::insert_row`] calls would. Returns the number of rows that
    /// were new.
    pub fn insert_rows<I>(&mut self, rows: I) -> usize
    where
        I: IntoIterator,
        I::Item: AsRef<[ValueId]>,
    {
        let mut fresh = 0;
        for row in rows {
            if self.insert_row(row.as_ref()).is_some() {
                fresh += 1;
            }
        }
        fresh
    }

    /// The `FactId` of `row` in this relation's own arena (not its base
    /// chain), if it holds it.
    fn own_find(&self, tag: u32, row: &[ValueId]) -> Option<FactId> {
        let local = self.dedup.find(tag, |i| self.rows.row(i) == row).ok()?;
        Some(FactId((self.base_row_count() + local) as u32))
    }

    /// The `FactId` of `row` in some layer of the base chain (not this
    /// relation's own rows). Each layer's table indexes its own arena.
    fn base_chain_find(&self, tag: u32, row: &[ValueId]) -> Option<FactId> {
        let mut base = self.base.as_deref();
        while let Some(layer) = base {
            if let Some(id) = layer.own_find(tag, row) {
                return Some(id);
            }
            base = layer.base.as_deref();
        }
        None
    }

    /// The `FactId` of exactly this row, if the relation (or its base
    /// chain) holds it.
    pub fn find_row(&self, row: &[ValueId]) -> Option<FactId> {
        let tag = row_tag(row);
        self.own_find(tag, row)
            .or_else(|| self.base_chain_find(tag, row))
    }

    /// Does the relation contain exactly this row?
    pub fn contains_row(&self, row: &[ValueId]) -> bool {
        self.find_row(row).is_some()
    }

    /// Does the relation contain exactly this fact?
    pub fn contains(&self, fact: &Fact) -> bool {
        // A value that was never interned cannot occur in any stored row.
        let mut row = Vec::with_capacity(fact.args.len());
        for v in &fact.args {
            match find_value_id(v) {
                Some(id) => row.push(id),
                None => return false,
            }
        }
        self.contains_row(&row)
    }

    /// The row of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this relation (or its base).
    pub fn row(&self, id: FactId) -> &[ValueId] {
        let i = id.index();
        let mut rel = self;
        loop {
            let layer_start = rel.base_row_count();
            if i >= layer_start {
                return rel.rows.row(i - layer_start);
            }
            rel = rel
                .base
                .as_deref()
                .expect("id below the layer boundary implies a base layer");
        }
    }

    /// All rows in insertion order (`FactId(i)` is position `i`): the shared
    /// base chain's rows first (oldest layer at the bottom), then this
    /// relation's own.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[ValueId]> {
        let mut layers: Vec<&Relation> = vec![self];
        let mut base = self.base.as_deref();
        while let Some(b) = base {
            layers.push(b);
            base = b.base.as_deref();
        }
        layers.into_iter().rev().flat_map(|layer| layer.rows.iter())
    }

    /// Materialise the fact stored at `id`.
    pub fn fact(&self, predicate: Sym, id: FactId) -> Fact {
        Fact::new_sym(
            predicate,
            self.row(id).iter().map(|v| resolve_value(*v)).collect(),
        )
    }

    /// Position of the index covering exactly `cols`, if materialised.
    fn index_of(&self, cols: &[usize]) -> Option<usize> {
        self.indices.iter().position(|ix| &*ix.cols == cols)
    }

    /// Force construction of the sorted-run index over `cols` (a single
    /// column or a composite prefix, probe-order). If the index already
    /// exists its tail is flushed, so subsequent probes run entirely on
    /// sorted runs — the pre-pass the engine performs before freezing a
    /// store for a parallel batch. A new index over existing rows is built
    /// as **one** run by one sort (`SortedRun::from_entries`); only rows
    /// inserted afterwards go through the tail.
    ///
    /// On a copy-on-write overlay only the **overlay's** tail is ever
    /// flushed; the shared base's runs are immutable and reused as-is. When
    /// the base already carries the index over `cols`, the overlay index
    /// covers just the overlay rows and probes compose the two; when the
    /// base lacks it, a fallback index covering base rows too is built once
    /// (counted in [`Relation::full_index_builds`]).
    pub fn ensure_index(&mut self, cols: &[usize]) {
        if let Some(i) = self.index_of(cols) {
            self.indices[i].flush();
            return;
        }
        let base_len = self.base_row_count();
        let base_has = self.base.as_ref().is_some_and(|b| b.has_index(cols));
        let mut index = SortedIndex::new(cols);
        let base_rows = match &self.base {
            Some(base) if !base_has => {
                index.covers_base = true;
                self.full_index_builds += 1;
                Some(base.iter_rows())
            }
            _ => None,
        };
        let own_rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| (base_len + i, row));
        let run = SortedRun::from_rows(
            cols,
            base_rows
                .into_iter()
                .flatten()
                .enumerate()
                .chain(own_rows)
                .map(|(i, row)| (FactId(i as u32), row)),
        );
        if !run.facts.is_empty() {
            index.runs.push(run);
        }
        self.indices.push(index);
    }

    /// Can probes over `cols` be answered from index structures (this
    /// relation's own, its base chain's, or all composed)? A layer chain is
    /// probeable when every layer below either indexes `cols` itself or is
    /// covered by a descendant's base-covering fallback.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        match (&self.base, self.index_of(cols)) {
            (None, over) => over.is_some(),
            (Some(_), Some(i)) if self.indices[i].covers_base => true,
            (Some(base), _) => base.has_index(cols),
        }
    }

    /// Flush the tails of all materialised indices into sorted runs.
    pub fn flush_indexes(&mut self) {
        for index in self.indices.iter_mut() {
            index.flush();
        }
    }

    /// Probe the index over `cols` without building it: exact match on the
    /// first `prefix.len()` columns plus an optional [`RangeFilter`] on the
    /// following column. `None` on an index miss (the caller falls back to a
    /// scan — the "optimistic" get of the slot-machine join). Postings are
    /// yielded in ascending [`FactId`] order, either borrowed from a single
    /// sorted run or collected into `out`.
    ///
    /// On a copy-on-write overlay the probe **composes** the whole layer
    /// chain's prebuilt runs with the overlay's own index (deeper layers
    /// first — their ids are strictly smaller, so the concatenation stays
    /// ascending). An overlay whose index was never built falls back to a
    /// linear scan of the (usually small) overlay rows, exactly like an
    /// unflushed tail.
    pub fn probe_if_indexed<'r>(
        &'r self,
        cols: &[usize],
        prefix: &[ValueId],
        range: Option<&RangeFilter>,
        out: &mut Vec<FactId>,
    ) -> Option<Probe<'r>> {
        if self.base.is_none() {
            let over = self.index_of(cols).map(|i| &self.indices[i]);
            return over.map(|ix| ix.probe(prefix, range, out));
        }
        if !self.has_index(cols) {
            // Some layer of the chain never indexed these columns and no
            // fallback index covers it: a miss (a partial index alone would
            // be incomplete — it cannot see the other layers' rows).
            return None;
        }
        out.clear();
        let run = self
            .probe_compose(cols, prefix, range, out)
            .expect("has_index implies a composable chain");
        Some(match run {
            Some(run) => Probe::Run(run),
            None => Probe::Buffered,
        })
    }

    /// Chain-recursive core of [`Relation::probe_if_indexed`]: append this
    /// relation's and its whole base chain's matching postings to `out` in
    /// ascending [`FactId`] order. Preserves [`SortedIndex::probe_append`]'s
    /// contract — `Some(Some(run))` means the entire contribution is the
    /// borrowed run group and *nothing* was appended; `Some(None)` means the
    /// contribution (possibly empty) went into `out`; `None` is an index
    /// miss somewhere in the chain.
    fn probe_compose<'r>(
        &'r self,
        cols: &[usize],
        prefix: &[ValueId],
        range: Option<&RangeFilter>,
        out: &mut Vec<FactId>,
    ) -> Option<Option<&'r [FactId]>> {
        let over = self.index_of(cols).map(|i| &self.indices[i]);
        let Some(base) = self.base.as_deref() else {
            return Some(over?.probe_append(prefix, range, out));
        };
        if let Some(ix) = over {
            if ix.covers_base {
                return Some(ix.probe_append(prefix, range, out));
            }
        }
        let start = out.len();
        let base_run = base.probe_compose(cols, prefix, range, out)?;
        let appended_base = out.len() > start;
        let over_start = out.len();
        let over_run = match over {
            Some(oix) => oix.probe_append(prefix, range, out),
            None => {
                self.scan_overlay_rows(cols, prefix, range, out);
                None
            }
        };
        let appended_over = out.len() > over_start;
        Some(match (base_run, over_run) {
            (Some(b), Some(o)) => {
                // Both sides are whole borrowed groups; a single slice
                // cannot represent their concatenation, so buffer both.
                out.extend_from_slice(b);
                out.extend_from_slice(o);
                None
            }
            (Some(b), None) if !appended_over => Some(b),
            (Some(b), None) => {
                // Deeper ids come first: splice the base group in front of
                // what the overlay appended.
                out.splice(over_start..over_start, b.iter().copied());
                None
            }
            (None, Some(o)) if !appended_base => Some(o),
            (None, Some(o)) => {
                out.extend_from_slice(o);
                None
            }
            (None, None) => None,
        })
    }

    /// Append, in insertion (= ascending `FactId`) order, the overlay rows
    /// matching `prefix` on `cols` (plus the optional range on the next
    /// column) — the scan that stands in for a not-yet-built overlay index.
    fn scan_overlay_rows(
        &self,
        cols: &[usize],
        prefix: &[ValueId],
        range: Option<&RangeFilter>,
        out: &mut Vec<FactId>,
    ) {
        let base_len = self.base_row_count();
        let p = prefix.len();
        for (i, row) in self.rows.iter().enumerate() {
            if cols.iter().any(|c| *c >= row.len()) {
                continue;
            }
            if cols[..p].iter().zip(prefix).all(|(c, v)| row[*c] == *v)
                && range.is_none_or(|r| r.matches(row[cols[p]]))
            {
                out.push(FactId((base_len + i) as u32));
            }
        }
    }

    /// Look up rows whose column `col` equals `value`, building the dynamic
    /// index for that column on first use.
    pub fn lookup(&mut self, col: usize, value: ValueId) -> Vec<FactId> {
        self.ensure_index(&[col]);
        self.lookup_if_indexed(col, value)
            .expect("index was just built")
    }

    /// Like [`Relation::lookup`] but without building a missing index
    /// (returns `None` on an index miss). Single-column convenience over
    /// [`Relation::probe_if_indexed`].
    pub fn lookup_if_indexed(&self, col: usize, value: ValueId) -> Option<Vec<FactId>> {
        let mut out = Vec::new();
        let probe = self.probe_if_indexed(&[col], &[value], None, &mut out)?;
        Some(match probe {
            Probe::Run(ids) => ids.to_vec(),
            Probe::Buffered => out,
        })
    }

    /// Number of dynamic indices currently materialised (an overlay counts
    /// its base chain's indexes too; a column list indexed in several layers
    /// counts once).
    pub fn index_count(&self) -> usize {
        self.indexed_col_lists().len()
    }

    /// The distinct column lists indexed anywhere in this relation's layer
    /// chain, discovery order (own indexes first, then deeper layers').
    pub fn indexed_col_lists(&self) -> Vec<Box<[usize]>> {
        let mut lists: Vec<Box<[usize]>> = Vec::new();
        let mut layer = Some(self);
        while let Some(rel) = layer {
            for ix in &rel.indices {
                if !lists.iter().any(|c| **c == *ix.cols) {
                    lists.push(ix.cols.clone());
                }
            }
            layer = rel.base.as_deref();
        }
        lists
    }

    /// Fold one index's run directories and tail into `stats`.
    fn accumulate_stats(index: &SortedIndex, stats: &mut IndexStats) {
        for run in &index.runs {
            stats.entries += run.facts.len();
            stats.distinct_keys += run.dir.len();
        }
        stats.entries += index.tail_facts.len();
        stats.distinct_keys += index.tail_facts.len();
    }

    /// Per-layer contribution of this relation (not its base chain) to the
    /// stats of the index over `cols`: the layer's own directories, or one
    /// key per row when the layer never indexed `cols` (probes scan those
    /// rows, like an unflushed tail).
    fn layer_stats(&self, cols: &[usize]) -> IndexStats {
        let mut stats = IndexStats::default();
        match self.index_of(cols) {
            Some(i) => Self::accumulate_stats(&self.indices[i], &mut stats),
            None => {
                stats.entries += self.rows.len();
                stats.distinct_keys += self.rows.len();
            }
        }
        stats
    }

    /// Run-directory statistics of the index over `cols`, itemised per
    /// layer, deepest layer first and this relation's own contribution last
    /// — the composition a probe actually walks. `None` on an index miss
    /// anywhere in the chain, like [`Relation::probe_if_indexed`]. Rows a
    /// layer never indexed count as one key each, like an unflushed tail.
    pub fn index_stats_per_layer(&self, cols: &[usize]) -> Option<Vec<IndexStats>> {
        if !self.has_index(cols) {
            return None;
        }
        if let Some(i) = self.index_of(cols) {
            if self.base.is_none() || self.indices[i].covers_base {
                // One covering index: the whole chain reads as one layer.
                let mut stats = IndexStats::default();
                Self::accumulate_stats(&self.indices[i], &mut stats);
                return Some(vec![stats]);
            }
        }
        let mut per_layer = self
            .base
            .as_deref()
            .expect("has_index on a plain relation implies an own index")
            .index_stats_per_layer(cols)?;
        per_layer.push(self.layer_stats(cols));
        Some(per_layer)
    }

    /// A [`TrieCursor`] over the sorted runs of the index over `cols`, for
    /// leapfrog-triejoin probing. Composes exactly like
    /// [`Relation::probe_if_indexed`]: a plain relation walks its own runs;
    /// an overlay walks its base-covering fallback index if it built one,
    /// and otherwise the whole layer chain's runs deepest-first followed by
    /// the overlay's own — deeper `FactId`s are strictly smaller, so leaf
    /// enumeration stays ascending.
    ///
    /// Returns `None` — the caller falls back to the binary probe/scan path
    /// — when the index is missing in some layer, when any involved tail is
    /// unflushed, or when unindexed overlay rows exist (a trie walk cannot
    /// see either). The engine's `ensure_index` pre-pass and
    /// [`StoreBase::promote`]'s per-layer index mirroring make all three
    /// conditions false on the hot path.
    pub fn trie_cursor(&self, cols: &[usize]) -> Option<TrieCursor<'_>> {
        let mut runs: Vec<&SortedRun> = Vec::new();
        self.collect_trie_runs(cols, &mut runs)?;
        Some(TrieCursor::new(cols.len(), runs))
    }

    /// Chain-recursive run collection for [`Relation::trie_cursor`]:
    /// deepest layer's runs first. `None` when any layer cannot contribute
    /// fully-sorted runs.
    fn collect_trie_runs<'r>(
        &'r self,
        cols: &[usize],
        runs: &mut Vec<&'r SortedRun>,
    ) -> Option<()> {
        fn sorted_runs(ix: &SortedIndex) -> Option<&SortedIndex> {
            ix.tail_facts.is_empty().then_some(ix)
        }
        let over = self.index_of(cols).map(|i| &self.indices[i]);
        match self.base.as_deref() {
            None => {
                runs.extend(sorted_runs(over?)?.runs.iter());
            }
            Some(base) => {
                if let Some(ix) = over {
                    if ix.covers_base {
                        runs.extend(sorted_runs(ix)?.runs.iter());
                        return Some(());
                    }
                }
                base.collect_trie_runs(cols, runs)?;
                match over {
                    Some(oix) => runs.extend(sorted_runs(oix)?.runs.iter()),
                    None if self.rows.is_empty() => {}
                    None => return None,
                }
            }
        }
        Some(())
    }

    /// Materialise all facts of this relation under `predicate`, in
    /// insertion order.
    pub fn to_facts(&self, predicate: Sym) -> Vec<Fact> {
        self.iter_rows()
            .map(|row| Fact::new_sym(predicate, resolve_values(row)))
            .collect()
    }

    /// Merge this relation's whole layer chain into one **plain** relation
    /// with identical contents: same rows under the same [`FactId`]s
    /// (rows re-insert in [`Relation::iter_rows`] order — deepest layer
    /// first, which is exactly ascending-id insertion order — and layers
    /// never share a row, so the sequentially assigned ids reproduce the
    /// originals), and a freshly built, flushed sorted-run index for every
    /// column list indexed anywhere in the chain. Long-lived sessions use
    /// this to keep the layer depth — and thus per-probe composition work —
    /// bounded (see `StoreBase::compact`); retained overlays of the old
    /// chain keep their `Arc`s and are unaffected.
    pub fn compacted(&self) -> Relation {
        let mut flat = Relation {
            dedup: DedupTable::with_capacity(self.len()),
            ..Relation::new()
        };
        flat.rows
            .values
            .reserve_exact(self.iter_rows().map(<[ValueId]>::len).sum());
        flat.rows.ends.reserve_exact(self.len());
        for row in self.iter_rows() {
            let inserted = flat.insert_row(row);
            debug_assert!(inserted.is_some(), "layers never share a row");
        }
        for cols in self.indexed_col_lists() {
            flat.ensure_index(&cols);
        }
        flat.flush_indexes();
        flat
    }
}

/// The fact store: a map from predicate symbols to relations.
#[derive(Clone, Debug, Default)]
pub struct FactStore {
    relations: BTreeMap<Sym, Relation>,
    /// Some fact inserted through [`FactStore::insert`] (here or in the
    /// snapshot this store overlays) carried a labelled null. See
    /// [`FactStore::holds_nulls`].
    holds_nulls: bool,
}

impl FactStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from an initial set of facts.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(facts: I) -> Self {
        let mut store = Self::new();
        for f in facts {
            store.insert(f);
        }
        store
    }

    /// Insert a fact; returns `true` if it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let ground = fact.is_ground();
        self.insert_row(fact.predicate, &fact.intern_args(), ground)
    }

    /// Insert a fact its caller has already interned; `ground` says whether
    /// the fact is free of labelled nulls ([`Fact::is_ground`]). Returns
    /// `true` if it was new. This is [`FactStore::insert`] for a loader
    /// that also hands the row to someone else, so it interns once.
    pub fn insert_row(&mut self, predicate: Sym, row: &[ValueId], ground: bool) -> bool {
        self.holds_nulls |= !ground;
        self.relation_mut(predicate).insert_row(row).is_some()
    }

    /// Intern and insert a batch of facts, in order: the one loader of
    /// extensional data (inline facts, `@bind` sources, a session's base
    /// and its appends, the `Dom` relation). Facts may be owned or borrowed;
    /// none is copied. Values are interned 4,096 facts at a time into one
    /// flat id buffer, reused across chunks, with every interner shard
    /// locked once per chunk ([`intern_rows`]). A fact carrying a labelled
    /// null sets [`FactStore::holds_nulls`]. Returns the number of rows that
    /// were new.
    pub fn load_facts<I>(&mut self, facts: I) -> usize
    where
        I: IntoIterator,
        I::Item: Borrow<Fact>,
    {
        let mut facts = facts.into_iter();
        let mut chunk: Vec<I::Item> = Vec::new();
        let mut ids: Vec<ValueId> = Vec::new();
        let mut fresh = 0;
        loop {
            chunk.clear();
            chunk.extend(facts.by_ref().take(LOAD_CHUNK));
            if chunk.is_empty() {
                return fresh;
            }
            ids.clear();
            intern_rows(chunk.iter().map(|f| f.borrow().args.as_slice()), &mut ids);
            let mut start = 0;
            for fact in &chunk {
                let fact = fact.borrow();
                let row = &ids[start..start + fact.args.len()];
                start += fact.args.len();
                fresh += usize::from(self.insert_row(fact.predicate, row, fact.is_ground()));
            }
        }
    }

    /// Did a fact carrying a labelled null enter through
    /// [`FactStore::insert`] — into this store or, for an overlay, into the
    /// snapshot below it? That Fact-level path is how extensional data
    /// arrives; rows written through [`FactStore::relation_mut`] (a
    /// pipeline's derived rows) never set the bit, so a store whose nulls
    /// were all invented by rules reports `false`. The reasoning pipeline
    /// uses it to decide whether a run can hold a null at all.
    pub fn holds_nulls(&self) -> bool {
        self.holds_nulls
    }

    /// Does the store contain the fact?
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(&fact.predicate)
            .map(|r| r.contains(fact))
            .unwrap_or(false)
    }

    /// The relation of `predicate`, if any facts exist for it.
    pub fn relation(&self, predicate: Sym) -> Option<&Relation> {
        self.relations.get(&predicate)
    }

    /// Mutable access to the relation of `predicate`, creating it if needed.
    pub fn relation_mut(&mut self, predicate: Sym) -> &mut Relation {
        self.relations.entry(predicate).or_default()
    }

    /// Heap bytes of every relation, own layers apart from base layers,
    /// counted by capacity ([`Relation::heap_bytes`]).
    pub fn heap_bytes(&self) -> StoreBytes {
        let mut bytes = StoreBytes::default();
        for rel in self.relations.values() {
            let r = rel.heap_bytes();
            bytes.own += r.own;
            bytes.base += r.base;
        }
        bytes
    }

    /// Facts of a predicate, materialised in insertion order (empty if
    /// unknown). This is the API boundary: internally everything stays in
    /// row form.
    pub fn facts_of(&self, predicate: Sym) -> Vec<Fact> {
        self.relations
            .get(&predicate)
            .map(|r| r.to_facts(predicate))
            .unwrap_or_default()
    }

    /// Iterate over all facts of all predicates, predicate-ordered,
    /// materialising each on the fly.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations
            .iter()
            .flat_map(|(p, r)| (0..r.len()).map(|i| r.fact(*p, FactId(i as u32))))
    }

    /// All predicates with at least one fact.
    pub fn predicates(&self) -> Vec<Sym> {
        self.relations.keys().copied().collect()
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of facts of a predicate.
    pub fn count(&self, predicate: Sym) -> usize {
        self.relations
            .get(&predicate)
            .map(Relation::len)
            .unwrap_or(0)
    }

    /// Rows contributed by shared copy-on-write bases across all relations
    /// (0 for a plain store) — the interned EDB rows a snapshot run reused
    /// instead of rebuilding.
    pub fn base_rows(&self) -> usize {
        self.relations.values().map(Relation::base_row_count).sum()
    }

    /// Rows owned by the relations themselves: everything for a plain
    /// store, the copy-on-write overlays otherwise.
    pub fn overlay_rows(&self) -> usize {
        self.relations
            .values()
            .map(Relation::overlay_row_count)
            .sum()
    }

    /// Full (base-covering) index rebuilds performed by overlays because a
    /// shared base lacked a planned column list — 0 when the snapshot was
    /// prepared with every planned index.
    pub fn full_index_builds(&self) -> u64 {
        self.relations
            .values()
            .map(Relation::full_index_builds)
            .sum()
    }

    /// Deepest layer chain under any relation of this store (0 when every
    /// relation is plain): the number of immutable layers a probe composes
    /// below the live overlay.
    pub fn max_layer_depth(&self) -> usize {
        self.relations
            .values()
            .map(Relation::layer_depth)
            .max()
            .unwrap_or(0)
    }

    /// Freeze this store into a shareable, immutable EDB base: every
    /// relation's index tails are flushed (so the shared runs are final and
    /// never re-sorted) and wrapped in an [`Arc`]. Overlay stores created
    /// with [`StoreBase::overlay`] reuse the interned rows and the sorted
    /// runs without copying either.
    pub fn freeze(mut self) -> StoreBase {
        for rel in self.relations.values_mut() {
            rel.flush_indexes();
        }
        StoreBase {
            relations: self
                .relations
                .into_iter()
                .map(|(p, r)| (p, Arc::new(r)))
                .collect(),
            stamp: 0,
            holds_nulls: self.holds_nulls,
        }
    }
}

/// A shareable, immutable EDB snapshot: the copy-on-write base of a query
/// session. Holds one `Arc`'d [`Relation`] per predicate — interned rows,
/// dedup table and pre-flushed sorted runs included — and hands out cheap
/// [`StoreBase::overlay`] stores whose relations write only to their
/// private overlays. Between runs (when no overlay is alive) the owner can
/// still extend the base's *index set* in place via
/// [`StoreBase::ensure_index`]; the rows themselves are immutable for the
/// lifetime of the snapshot.
///
/// Appending facts does not mutate existing layers either:
/// [`StoreBase::promote`] freezes a mutated overlay into a **new immutable
/// layer** on top of its snapshot, so relations grow as layer chains (oldest
/// base at the bottom, most recent append layer on top) and every composed
/// probe yields postings deepest-layer-first, staying [`FactId`]-ascending.
/// Each promotion bumps the base's [`StoreBase::stamp`], the invalidation
/// key for anything computed against a particular layering.
#[derive(Clone, Debug, Default)]
pub struct StoreBase {
    relations: BTreeMap<Sym, Arc<Relation>>,
    /// Monotonic layer stamp: bumped by every [`StoreBase::promote`] that
    /// adds a layer.
    stamp: u64,
    /// [`FactStore::holds_nulls`] of every store frozen or promoted into
    /// this base.
    holds_nulls: bool,
}

impl StoreBase {
    /// A mutable copy-on-write store over this base: every relation starts
    /// as an empty overlay sharing the base's rows and indexes.
    pub fn overlay(&self) -> FactStore {
        FactStore {
            relations: self
                .relations
                .iter()
                .map(|(p, r)| (*p, Relation::with_base(Arc::clone(r))))
                .collect(),
            holds_nulls: self.holds_nulls,
        }
    }

    /// Does the snapshot hold a fact that carried a labelled null (see
    /// [`FactStore::holds_nulls`])? Overlays inherit the bit, promotions
    /// merge it in, compaction keeps it.
    pub fn holds_nulls(&self) -> bool {
        self.holds_nulls
    }

    /// Build (or flush) the index over `cols` on the base relation of
    /// `predicate`. Returns `true` when a new index was built.
    ///
    /// When the session is the sole owner of the relation (no overlay store
    /// alive) the index is built in place. When a caller still holds
    /// overlays of an earlier snapshot — retained `QueryResult` stores, for
    /// instance — a *fresh* build copies the relation once
    /// ([`Arc::make_mut`]) and indexes the copy: later overlays share the
    /// newly indexed base, the retained ones keep their original snapshot
    /// untouched. One relation copy per new plan shape is strictly cheaper
    /// than the per-query full fallback builds every future overlay would
    /// otherwise pay; a mere tail flush is never worth a copy and stays a
    /// no-op while shared (frozen bases have empty tails anyway).
    pub fn ensure_index(&mut self, predicate: Sym, cols: &[usize]) -> bool {
        let Some(arc) = self.relations.get_mut(&predicate) else {
            return false;
        };
        if arc.has_index(cols) {
            if let Some(rel) = Arc::get_mut(arc) {
                rel.ensure_index(cols);
            }
            return false;
        }
        Arc::make_mut(arc).ensure_index(cols);
        true
    }

    /// Promote a mutated overlay store (created by [`StoreBase::overlay`])
    /// into this base: every relation that gained rows becomes a new
    /// immutable layer on top of its snapshot, with its index tails flushed
    /// and an own per-layer index built for every column list the chain
    /// below already indexes — so composed probes and trie cursors keep
    /// running entirely on sorted runs. Untouched relations keep their
    /// existing `Arc` (no new layer); predicates new in `store` enter as
    /// plain single-layer relations.
    ///
    /// Returns the number of relations that gained a layer; when that is
    /// non-zero the [`StoreBase::stamp`] is bumped.
    pub fn promote(&mut self, store: FactStore) -> usize {
        self.holds_nulls |= store.holds_nulls;
        let mut promoted = 0;
        for (p, mut rel) in store.relations {
            if rel.overlay_row_count() == 0 {
                continue;
            }
            for cols in rel.indexed_col_lists() {
                rel.ensure_index(&cols);
            }
            rel.flush_indexes();
            promoted += 1;
            self.relations.insert(p, Arc::new(rel));
        }
        if promoted > 0 {
            self.stamp += 1;
        }
        promoted
    }

    /// Monotonic layer stamp: bumped every time [`StoreBase::promote`] adds
    /// a layer. Cached artefacts keyed to a stamp (per-plan ensure-index
    /// passes, materialised instances) are invalid once it moves.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Force the stamp forward without promoting a layer — the
    /// memo-invalidation hammer of the session's poison-heal policy: after
    /// a panic that may have interrupted a promotion mid-flight, everything
    /// keyed to the old stamp (ensure-index memos, cone entries, live
    /// materialised instances) must go stale at once rather than silently
    /// reuse half-promoted state.
    pub fn bump_stamp(&mut self) {
        self.stamp += 1;
    }

    /// Merge every relation whose layer chain exceeds `max_layers` back
    /// into a single plain snapshot ([`Relation::compacted`]): same rows,
    /// same [`FactId`]s, every indexed column list rebuilt as one flushed
    /// covering index. Returns the number of relations compacted.
    ///
    /// Compaction is **content-preserving**, so the [`StoreBase::stamp`] is
    /// *not* bumped: results, memos and caches keyed to the stamp stay
    /// valid (the rebuilt covering indexes answer every probe the layered
    /// indexes did). Retained overlay stores keep `Arc`s of the old chains
    /// and are unaffected. This is what keeps per-probe layer composition
    /// bounded on a long-lived reasoning server that appends forever.
    pub fn compact(&mut self, max_layers: usize) -> usize {
        if max_layers == 0 {
            return 0;
        }
        let mut compacted = 0;
        for arc in self.relations.values_mut() {
            if 1 + arc.layer_depth() > max_layers {
                *arc = Arc::new(arc.compacted());
                compacted += 1;
            }
        }
        compacted
    }

    /// Deepest layer chain across relations (1 = all plain, k = some
    /// relation composes k layers). 1 on an empty base.
    pub fn layer_count(&self) -> usize {
        self.relations
            .values()
            .map(|r| 1 + r.layer_depth())
            .max()
            .unwrap_or(1)
    }

    /// The base relation of `predicate`, if any facts exist for it.
    pub fn relation(&self, predicate: Sym) -> Option<&Relation> {
        self.relations.get(&predicate).map(Arc::as_ref)
    }

    /// Every relation of the snapshot, in predicate order.
    pub fn relations(&self) -> impl Iterator<Item = (Sym, &Relation)> {
        self.relations.iter().map(|(p, r)| (*p, r.as_ref()))
    }

    /// Total number of facts in the snapshot.
    pub fn len(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FromIterator<Fact> for FactStore {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Self {
        Self::from_facts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn own(a: &str, b: &str, w: f64) -> Fact {
        Fact::new("Own", vec![a.into(), b.into(), Value::Float(w)])
    }

    /// The index statistics over `cols` with every layer summed.
    fn summed_stats(rel: &Relation, cols: &[usize]) -> Option<IndexStats> {
        let mut stats = IndexStats::default();
        for layer in rel.index_stats_per_layer(cols)? {
            stats.entries += layer.entries;
            stats.distinct_keys += layer.distinct_keys;
        }
        Some(stats)
    }

    #[test]
    fn set_semantics() {
        let mut store = FactStore::new();
        assert!(store.insert(own("a", "b", 0.6)));
        assert!(!store.insert(own("a", "b", 0.6)));
        assert!(store.insert(own("a", "b", 0.7)));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&own("a", "b", 0.6)));
        assert!(!store.contains(&own("z", "b", 0.6)));
    }

    #[test]
    fn dynamic_index_is_built_on_first_lookup_and_maintained() {
        let mut store = FactStore::new();
        store.insert(own("a", "b", 0.6));
        store.insert(own("a", "c", 0.2));
        store.insert(own("d", "c", 0.9));
        let rel = store.relation_mut(intern("Own"));
        assert_eq!(rel.index_count(), 0);
        let hits = rel.lookup(0, Value::str("a").interned());
        assert_eq!(hits.len(), 2);
        assert_eq!(rel.index_count(), 1);
        // inserting after the index exists keeps it consistent (tail path)
        rel.insert(own("a", "e", 0.1));
        assert_eq!(rel.lookup(0, Value::str("a").interned()).len(), 3);
        // optimistic lookup on a non-indexed column reports a miss
        assert!(rel
            .lookup_if_indexed(1, Value::str("c").interned())
            .is_none());
        assert!(rel
            .lookup_if_indexed(0, Value::str("zzz").interned())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn composite_probe_matches_both_columns_in_one_lookup() {
        let mut rel = Relation::new();
        rel.insert(own("a", "b", 0.6));
        rel.insert(own("a", "c", 0.2));
        rel.insert(own("d", "b", 0.9));
        rel.insert(own("a", "b", 0.3));
        rel.ensure_index(&[0, 1]);
        let key = [Value::str("a").interned(), Value::str("b").interned()];
        let mut scratch = Vec::new();
        let probe = rel
            .probe_if_indexed(&[0, 1], &key, None, &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(0), FactId(3)]);
        // prefix probe: only the first column bound
        let probe = rel
            .probe_if_indexed(&[0, 1], &key[..1], None, &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(0), FactId(1), FactId(3)]);
    }

    #[test]
    fn range_probe_answers_comparisons_from_the_index() {
        let mut rel = Relation::new();
        for (i, w) in [0.1, 0.9, 0.5, 0.7, 0.3].iter().enumerate() {
            rel.insert(own(&format!("c{i}"), "t", *w));
        }
        // a labelled null in the range column never satisfies an ordering
        rel.insert(Fact::new(
            "Own",
            vec!["c9".into(), "t".into(), Value::Null(NullId(77))],
        ));
        rel.ensure_index(&[2]);
        let mut scratch = Vec::new();
        let gt = RangeFilter::new(CmpOp::Gt, Value::Float(0.5).interned());
        let probe = rel
            .probe_if_indexed(&[2], &[], Some(&gt), &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(1), FactId(3)]);
        let le = RangeFilter::new(CmpOp::Le, Value::Float(0.5).interned());
        let probe = rel
            .probe_if_indexed(&[2], &[], Some(&le), &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(0), FactId(2), FactId(4)]);
        // composite prefix + range: Own("c1", _, w > 0.5)
        rel.ensure_index(&[0, 2]);
        let probe = rel
            .probe_if_indexed(
                &[0, 2],
                &[Value::str("c1").interned()],
                Some(&gt),
                &mut scratch,
            )
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(1)]);
    }

    #[test]
    fn probes_see_unflushed_tail_rows() {
        let mut rel = Relation::new();
        rel.insert(own("a", "b", 0.6));
        rel.ensure_index(&[2]);
        // Inserted after the flush: lives in the tail until the next ensure.
        rel.insert(own("c", "d", 0.8));
        let mut scratch = Vec::new();
        let gt = RangeFilter::new(CmpOp::Gt, Value::Float(0.5).interned());
        let probe = rel
            .probe_if_indexed(&[2], &[], Some(&gt), &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(0), FactId(1)]);
        // flushing merges the tail into the runs without changing results
        rel.ensure_index(&[2]);
        let probe = rel
            .probe_if_indexed(&[2], &[], Some(&gt), &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(0), FactId(1)]);
    }

    #[test]
    fn index_stats_report_group_widths() {
        let mut rel = Relation::new();
        // column 0 has 2 distinct keys over 6 rows (mean width 3), column 1
        // has 6 distinct keys (mean width 1).
        for i in 0..6 {
            rel.insert(Fact::new(
                "P",
                vec![Value::Int((i % 2) as i64), Value::Int(i as i64)],
            ));
        }
        assert!(
            summed_stats(&rel, &[0]).is_none(),
            "unbuilt index has no stats"
        );
        rel.ensure_index(&[0]);
        rel.ensure_index(&[1]);
        let wide = summed_stats(&rel, &[0]).unwrap();
        let narrow = summed_stats(&rel, &[1]).unwrap();
        assert_eq!(wide.entries, 6);
        assert_eq!(wide.distinct_keys, 2);
        assert_eq!(narrow.distinct_keys, 6);
        // tail rows count as one key each until the next flush
        rel.insert(Fact::new("P", vec![Value::Int(0), Value::Int(99)]));
        let with_tail = summed_stats(&rel, &[0]).unwrap();
        assert_eq!(with_tail.entries, 7);
        assert_eq!(with_tail.distinct_keys, 3);
        // after a flush the new row lives in its own run (too small to be
        // size-tier merged), so its key still counts once per run it spans
        rel.ensure_index(&[0]);
        assert_eq!(summed_stats(&rel, &[0]).unwrap().distinct_keys, 3);
        assert_eq!(summed_stats(&rel, &[0]).unwrap().entries, 7);
    }

    #[test]
    fn facts_of_and_counts() {
        let store: FactStore = vec![
            own("a", "b", 0.6),
            Fact::new("Company", vec!["a".into()]),
            Fact::new("Company", vec!["b".into()]),
        ]
        .into_iter()
        .collect();
        assert_eq!(store.count(intern("Company")), 2);
        assert_eq!(store.count(intern("Own")), 1);
        assert_eq!(store.count(intern("Missing")), 0);
        assert_eq!(store.facts_of(intern("Company")).len(), 2);
        assert_eq!(store.predicates().len(), 2);
        assert_eq!(store.iter().count(), 3);
    }

    #[test]
    fn lookup_by_position_returns_insertion_ids() {
        let mut rel = Relation::new();
        rel.insert(own("a", "b", 0.6));
        rel.insert(own("c", "b", 0.3));
        let hits = rel.lookup(1, Value::str("b").interned());
        assert_eq!(hits, vec![FactId(0), FactId(1)]);
        assert_eq!(rel.row(FactId(1))[0], Value::str("c").interned());
        // materialisation round-trips through the interner
        assert_eq!(rel.fact(intern("Own"), FactId(1)), own("c", "b", 0.3));
    }

    #[test]
    fn nulls_are_valid_index_keys() {
        let mut rel = Relation::new();
        let n = Value::Null(NullId(7));
        rel.insert(Fact::new("PSC", vec!["x".into(), n.clone()]));
        rel.insert(Fact::new("PSC", vec!["y".into(), n.clone()]));
        assert_eq!(rel.lookup(1, n.interned()).len(), 2);
    }

    #[test]
    fn rows_are_stored_once_and_borrowable() {
        let mut rel = Relation::new();
        assert!(rel.insert(own("a", "b", 0.5)));
        assert!(!rel.insert(own("a", "b", 0.5)));
        let row = rel.row(FactId(0)).to_vec();
        assert!(rel.contains_row(&row));
        assert_eq!(rel.iter_rows().count(), 1);
        // the exact-probe fast path borrows the run's postings, no clone
        rel.ensure_index(&[0]);
        let mut scratch = Vec::new();
        match rel
            .probe_if_indexed(&[0], &row[..1], None, &mut scratch)
            .unwrap()
        {
            Probe::Run(ids) => assert_eq!(ids, &[FactId(0)]),
            Probe::Buffered => panic!("single-run exact probe must borrow"),
        }
    }

    #[test]
    fn insert_rows_counts_only_fresh_rows() {
        let mut rel = Relation::new();
        rel.insert(own("a", "b", 0.6));
        let batch: Vec<Box<[ValueId]>> = vec![
            own("a", "b", 0.6).intern_args(), // already present
            own("c", "d", 0.5).intern_args(),
            own("c", "d", 0.5).intern_args(), // in-batch duplicate
        ];
        assert_eq!(rel.insert_rows(batch), 1);
        assert_eq!(rel.len(), 2);
    }

    /// The flat layout's footprint, counted by capacity: an arity-3 row
    /// costs 12 B of ids, 4 B of end offset and its share of dedup slots.
    #[test]
    fn arena_rows_and_dedup_take_at_most_40_bytes_per_row() {
        let ids: Vec<ValueId> = (0..100i64).map(|i| Value::Int(i).interned()).collect();
        let mut rel = Relation::new();
        for i in 0..100_000 {
            let row = [ids[i % 100], ids[i / 100 % 100], ids[i / 10_000]];
            assert_eq!(rel.insert_row(&row), Some(FactId(i as u32)));
        }
        let bytes = rel.heap_bytes();
        assert_eq!(bytes.base, HeapBytes::default());
        assert_eq!(bytes.own.indexes, 0);
        let per_row = (bytes.own.rows + bytes.own.dedup) as f64 / 100_000.0;
        assert!(per_row <= 40.0, "{per_row} B/row");
    }

    #[test]
    fn heterogeneous_arity_rows_coexist() {
        // no schema enforcement at this layer: rows of different arity under
        // one predicate must not confuse dedup or indices
        let mut rel = Relation::new();
        assert!(rel.insert(Fact::new("P", vec![1i64.into()])));
        assert!(rel.insert(Fact::new("P", vec![1i64.into(), 2i64.into()])));
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.lookup(1, Value::Int(2).interned()), vec![FactId(1)]);
    }

    /// A base/overlay pair and a plain relation with the same insertion
    /// history must be observationally identical: same `FactId`s, same
    /// probe results, same dedup decisions.
    #[test]
    fn overlay_composes_with_base_bit_identically() {
        let facts: Vec<Fact> = (0..20)
            .map(|i| {
                own(
                    &format!("c{}", i % 4),
                    &format!("t{}", i % 3),
                    i as f64 / 20.0,
                )
            })
            .collect();
        let (edb, idb) = facts.split_at(12);

        // Plain reference: everything inserted into one relation.
        let mut plain = Relation::new();
        plain.ensure_index(&[0]);
        plain.ensure_index(&[0, 1]);
        for f in facts.iter() {
            plain.insert(f.clone());
        }
        plain.ensure_index(&[0]);
        plain.ensure_index(&[0, 1]);

        // Snapshot: EDB frozen with the same indexes, IDB in the overlay.
        let mut base = Relation::new();
        base.ensure_index(&[0]);
        base.ensure_index(&[0, 1]);
        for f in edb.iter() {
            base.insert(f.clone());
        }
        base.flush_indexes();
        let mut overlay = Relation::with_base(Arc::new(base));
        for f in idb.iter() {
            overlay.insert(f.clone());
        }
        overlay.ensure_index(&[0]);
        overlay.ensure_index(&[0, 1]);

        assert_eq!(overlay.len(), plain.len());
        assert_eq!(overlay.base_row_count(), 12);
        assert_eq!(overlay.full_index_builds(), 0);
        for i in 0..plain.len() {
            assert_eq!(overlay.row(FactId(i as u32)), plain.row(FactId(i as u32)));
        }
        // duplicates across the base boundary are rejected
        assert!(!overlay.insert(edb[0].clone()));
        assert!(!overlay.insert(idb[0].clone()));
        assert!(overlay.contains(&edb[3]));
        // single-column, composite and range probes agree exactly
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        for c in ["c0", "c1", "c2", "c3"] {
            let key = [Value::str(c).interned(), Value::str("t1").interned()];
            for (cols, k) in [(&[0usize][..], 1usize), (&[0usize, 1][..], 2)] {
                let a = plain
                    .probe_if_indexed(cols, &key[..k], None, &mut s1)
                    .unwrap()
                    .as_slice(&s1)
                    .to_vec();
                let b = overlay
                    .probe_if_indexed(cols, &key[..k], None, &mut s2)
                    .unwrap()
                    .as_slice(&s2)
                    .to_vec();
                assert_eq!(a, b, "probe diverges on {cols:?} {c}");
            }
        }
        assert_eq!(
            summed_stats(&plain, &[0, 1]).map(|s| s.entries),
            summed_stats(&overlay, &[0, 1]).map(|s| s.entries)
        );
    }

    /// Probes against a base index with no overlay index yet fall back to
    /// scanning the overlay rows — like an unflushed tail — and a base
    /// without the index triggers exactly one full fallback build.
    #[test]
    fn overlay_without_index_scans_and_full_builds_are_counted() {
        let mut base = Relation::new();
        base.ensure_index(&[1]);
        base.insert(own("a", "b", 0.1));
        base.insert(own("c", "b", 0.2));
        let base = Arc::new(base);

        let mut overlay = Relation::with_base(Arc::clone(&base));
        overlay.insert(own("d", "b", 0.3));
        // no overlay index over [1] yet: base runs + overlay scan compose
        let mut scratch = Vec::new();
        let probe = overlay
            .probe_if_indexed(&[1], &[Value::str("b").interned()], None, &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(0), FactId(1), FactId(2)]);
        // a column list the base never indexed: miss first, then one full
        // fallback build that covers the base rows too
        assert!(overlay
            .probe_if_indexed(&[0], &[Value::str("a").interned()], None, &mut scratch)
            .is_none());
        overlay.ensure_index(&[0]);
        assert_eq!(overlay.full_index_builds(), 1);
        assert_eq!(
            overlay.lookup_if_indexed(0, Value::str("a").interned()),
            Some(vec![FactId(0)])
        );
        overlay.ensure_index(&[0]); // flush only, no second build
        assert_eq!(overlay.full_index_builds(), 1);
    }

    #[test]
    fn store_base_overlay_reuses_rows_and_prebuilt_indexes() {
        let mut store = FactStore::new();
        for i in 0..6 {
            store.insert(own(&format!("c{i}"), "t", i as f64 / 6.0));
        }
        store.relation_mut(intern("Own")).ensure_index(&[0]);
        let mut base = store.freeze();
        assert_eq!(base.len(), 6);
        // building an index that exists is not a fresh build
        assert!(!base.ensure_index(intern("Own"), &[0]));
        assert!(base.ensure_index(intern("Own"), &[2]));
        assert!(!base.ensure_index(intern("Missing"), &[0]));

        let mut overlay = base.overlay();
        assert_eq!(overlay.base_rows(), 6);
        assert_eq!(overlay.overlay_rows(), 0);
        assert!(overlay.insert(own("x", "t", 0.9)));
        assert!(!overlay.insert(own("c0", "t", 0.0)), "base dedup holds");
        assert_eq!(overlay.overlay_rows(), 1);
        assert_eq!(overlay.len(), 7);
        // overlay writes never touch the base
        assert_eq!(base.len(), 6);
        // ...and a second overlay starts clean
        assert_eq!(base.overlay().len(), 6);
        // while an overlay store is alive a *fresh* index still builds —
        // the relation is copied once (retained overlays keep their
        // original snapshot) and later overlays share the indexed copy
        assert!(base.ensure_index(intern("Own"), &[1]));
        assert!(
            !overlay.relation(intern("Own")).unwrap().has_index(&[1]),
            "retained overlays must keep their pre-copy snapshot"
        );
        let mut scratch = Vec::new();
        assert!(base
            .overlay()
            .relation(intern("Own"))
            .unwrap()
            .probe_if_indexed(&[1], &[Value::str("t").interned()], None, &mut scratch)
            .is_some());
        drop(overlay);
        // already indexed: not a fresh build, sole ownership or not
        assert!(!base.ensure_index(intern("Own"), &[1]));
        assert_eq!(base.relation(intern("Own")).unwrap().len(), 6);
        assert!(!base.is_empty());
    }

    #[test]
    fn many_inserts_trigger_auto_flush_and_stay_consistent() {
        let mut rel = Relation::new();
        rel.ensure_index(&[0]);
        let n = super::TAIL_AUTO_FLUSH + 100;
        for i in 0..n {
            rel.insert(Fact::new(
                "P",
                vec![Value::Int((i % 7) as i64), Value::Int(i as i64)],
            ));
        }
        let hits = rel.lookup(0, Value::Int(3).interned());
        let expected: Vec<FactId> = (0..n)
            .filter(|i| i % 7 == 3)
            .map(|i| FactId(i as u32))
            .collect();
        assert_eq!(hits, expected, "postings must stay FactId-ordered");
    }

    /// A k-layer chain built through repeated `promote` must be
    /// observationally identical to a plain relation with the same
    /// insertion history: same `FactId`s, probe results, dedup decisions
    /// and trie-cursor leaves.
    #[test]
    fn layer_chain_composes_bit_identically_with_plain() {
        let batches: Vec<Vec<Fact>> = (0..4)
            .map(|b| {
                (0..8)
                    .map(|i| {
                        own(
                            &format!("c{}", (b * 8 + i) % 5),
                            &format!("t{}", i % 3),
                            (b * 8 + i) as f64 / 32.0,
                        )
                    })
                    .collect()
            })
            .collect();

        // Plain reference.
        let mut plain = Relation::new();
        plain.ensure_index(&[0]);
        plain.ensure_index(&[0, 1]);
        for f in batches.iter().flatten() {
            plain.insert(f.clone());
        }
        plain.ensure_index(&[0]);
        plain.ensure_index(&[0, 1]);

        // Layered: first batch frozen, every later batch promoted.
        let mut store = FactStore::new();
        for f in &batches[0] {
            store.insert(f.clone());
        }
        store.relation_mut(intern("Own")).ensure_index(&[0]);
        store.relation_mut(intern("Own")).ensure_index(&[0, 1]);
        let mut base = store.freeze();
        assert_eq!(base.stamp(), 0);
        for batch in &batches[1..] {
            let mut overlay = base.overlay();
            for f in batch {
                overlay.insert(f.clone());
            }
            assert_eq!(base.promote(overlay), 1);
        }
        assert_eq!(base.stamp(), 3);
        assert_eq!(base.layer_count(), 4);

        let layered = base.relation(intern("Own")).unwrap();
        assert_eq!(layered.len(), plain.len());
        assert_eq!(layered.layer_depth(), 3);
        for i in 0..plain.len() {
            assert_eq!(layered.row(FactId(i as u32)), plain.row(FactId(i as u32)));
        }
        let rows_plain: Vec<_> = plain.iter_rows().collect();
        let rows_layered: Vec<_> = layered.iter_rows().collect();
        assert_eq!(rows_plain, rows_layered);
        // dedup composes across every layer
        let mut probe_overlay = base.overlay();
        let rel = probe_overlay.relation_mut(intern("Own"));
        for batch in &batches {
            assert!(!rel.insert(batch[0].clone()), "chain dedup must hold");
        }
        // probes agree on every key, composite and single-column alike
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        for c in ["c0", "c1", "c2", "c3", "c4"] {
            let key = [Value::str(c).interned(), Value::str("t1").interned()];
            for (cols, k) in [(&[0usize][..], 1usize), (&[0usize, 1][..], 2)] {
                let a = plain
                    .probe_if_indexed(cols, &key[..k], None, &mut s1)
                    .unwrap()
                    .as_slice(&s1)
                    .to_vec();
                let b = layered
                    .probe_if_indexed(cols, &key[..k], None, &mut s2)
                    .unwrap()
                    .as_slice(&s2)
                    .to_vec();
                assert_eq!(a, b, "layered probe diverges on {cols:?} {c}");
            }
        }
        // promoted layers carry their own pre-flushed runs: the trie walk
        // composes them without falling back
        for c in ["c0", "c1", "c2", "c3", "c4"] {
            for t in ["t0", "t1", "t2"] {
                let key = [Value::str(c).interned(), Value::str(t).interned()];
                let mut plain_cursor = plain.trie_cursor(&[0, 1]).unwrap();
                let mut layered_cursor = layered.trie_cursor(&[0, 1]).unwrap();
                let mut plain_leaves = Vec::new();
                let mut layered_leaves = Vec::new();
                if plain_cursor.open(&key) {
                    plain_cursor.leaf_facts(&mut plain_leaves);
                }
                if layered_cursor.open(&key) {
                    layered_cursor.leaf_facts(&mut layered_leaves);
                }
                assert_eq!(
                    plain_leaves, layered_leaves,
                    "trie leaves diverge on {c},{t}"
                );
            }
        }
        assert_eq!(
            summed_stats(&plain, &[0]).map(|s| s.entries),
            summed_stats(layered, &[0]).map(|s| s.entries)
        );
    }

    /// `promote` leaves untouched relations alone (no layer, no stamp
    /// churn), mirrors the chain's index set onto the new layer, and
    /// reports per-layer index stats deepest-first.
    #[test]
    fn promote_mirrors_indexes_and_itemises_per_layer_stats() {
        let mut store = FactStore::new();
        store.insert(Fact::new("E", vec![Value::str("a"), Value::str("b")]));
        store.insert(Fact::new("F", vec![Value::str("x")]));
        store.relation_mut(intern("E")).ensure_index(&[0]);
        let mut base = store.freeze();

        // An overlay that only read (no rows): no promotion, no stamp bump.
        let untouched = base.overlay();
        assert_eq!(base.promote(untouched), 0);
        assert_eq!(base.stamp(), 0);

        let mut overlay = base.overlay();
        overlay.insert(Fact::new("E", vec![Value::str("b"), Value::str("c")]));
        assert_eq!(base.promote(overlay), 1);
        assert_eq!(base.stamp(), 1);
        let e = base.relation(intern("E")).unwrap();
        let f = base.relation(intern("F")).unwrap();
        assert_eq!(e.layer_depth(), 1);
        assert_eq!(f.layer_depth(), 0, "untouched relations gain no layer");
        // the new layer carries its own index over [0]: stats itemise both
        // layers and the trie cursor runs entirely on sorted runs
        let per_layer = e.index_stats_per_layer(&[0]).unwrap();
        assert_eq!(per_layer.len(), 2);
        assert_eq!(per_layer[0].entries, 1);
        assert_eq!(per_layer[1].entries, 1);
        assert!(e.trie_cursor(&[0]).is_some());
        // new predicates enter as plain relations
        let mut overlay = base.overlay();
        overlay.insert(Fact::new("G", vec![Value::str("g")]));
        assert_eq!(base.promote(overlay), 1);
        assert_eq!(base.relation(intern("G")).unwrap().layer_depth(), 0);
    }

    /// The labelled-null bit is set by Fact-level inserts only and survives
    /// freeze, overlay, promote and compact.
    #[test]
    fn holds_nulls_travels_with_the_snapshot() {
        let mut store = FactStore::new();
        store.insert(Fact::new("E", vec![Value::str("a"), Value::str("b")]));
        let row = vec![intern_value(&Value::Null(NullId(3)))].into_boxed_slice();
        store.relation_mut(intern("D")).insert_row(&row);
        assert!(!store.holds_nulls(), "row-level writes never set the bit");
        let mut base = store.freeze();
        assert!(!base.holds_nulls() && !base.overlay().holds_nulls());

        let mut overlay = base.overlay();
        overlay.insert(Fact::new(
            "E",
            vec![Value::str("b"), Value::Null(NullId(4))],
        ));
        assert!(overlay.holds_nulls());
        base.promote(overlay);
        assert!(base.holds_nulls());
        assert!(base.overlay().holds_nulls());
        base.compact(1);
        assert!(base.overlay().holds_nulls());
    }
}
