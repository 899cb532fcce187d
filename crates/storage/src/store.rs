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
//! * a `SortedRun` is **dictionary-coded**: per column it keeps a
//!   dictionary of the run's distinct `(OrderKey, ValueId)` pairs in
//!   ascending order, and per indexed row `k` `u32` ranks into those
//!   dictionaries plus the row's `FactId` (12 B for a two-column entry;
//!   two pairs and a `FactId` would take 52 B). Entries are sorted by rank tuple
//!   (rank order is pair order: order key first, id as a grouping
//!   tie-break) with `FactId` as the final tie-break, so every in-run
//!   comparison is a `u32` comparison;
//! * every probe — exact, prefix, range or a trie cursor's `open` — reads
//!   the run one way: it maps each bound value to a rank by binary search
//!   in its column's dictionary (reading the value's order key through the
//!   interner's shard read lock; a value the run does not hold answers
//!   empty at once) and narrows the run column by column. A range
//!   filter becomes a pair of rank bounds: everything ranked strictly
//!   inside the key range is emitted without resolving a value, only
//!   entries whose key ties the bound's key are checked exactly, and
//!   labelled nulls, which never satisfy an ordering comparison, are one
//!   contiguous block of ranks and skipped as such;
//! * an index built over existing rows ([`Relation::ensure_index`]) is
//!   **one** run, made by one sort over per-column dense ranks;
//! * inserts into an indexed relation append to the index's **tail** — the
//!   incremental path. A full tail, or [`Relation::ensure_index`] on an
//!   existing index, flushes it into a fresh run (the same one-sort build)
//!   and merges adjacent runs size-tiered (dictionaries unioned, ranks
//!   recoded into the union), so maintenance stays amortised `O(log n)` per
//!   row. Probes scan the (small) tail linearly, so an unflushed index is
//!   still exact;
//! * probes spanning several runs are **merged by `FactId`**: runs cover
//!   disjoint ascending insertion ranges, so results are always yielded in
//!   `FactId` order — the enumeration order the engine's deterministic
//!   parallel sweep relies on.
//!
//! [`Relation::probe_if_indexed`] hands postings out either as a borrowed
//! slice of a single run's whole-key group or through a caller-owned
//! scratch buffer, so no probe allocates.

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
/// runs and tail: how many rows it indexes, how many distinct composite
/// keys they group into, and the heap bytes it holds. Read per column list
/// by [`Relation::index_stats`], whose largest entries `vadalog run
/// --stats` prints; no plan reads it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    /// Indexed rows across all sorted runs and the unflushed tail.
    pub entries: usize,
    /// Distinct composite keys, counted at each run's rank-tuple boundaries
    /// (a key split across runs counts once per run). Unflushed tail rows
    /// count as one key each — an upper bound that vanishes after a flush.
    pub distinct_keys: usize,
    /// Heap bytes of the runs (ranks, `FactId`s, dictionaries)
    /// and the tail, counted by capacity as in [`HeapBytes::indexes`].
    pub bytes: usize,
}

/// The result of an index probe: postings in ascending [`FactId`] order.
#[derive(Debug)]
pub enum Probe<'a> {
    /// Borrowed directly from a single sorted run: an exact probe (every
    /// column bound, no range) whose whole result is one run's key group.
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

/// [`lower_bound`] searched outward from `lo`: `O(log d)` comparisons for
/// an answer `d` entries past `lo`, so the end of a short key group costs a
/// few comparisons however long the run is. Exact probes find their group
/// by binary search (runs keep no hash directory); with a plain binary
/// search for the group's end too, `serve.mixed` read `op_p50_ms` about 7%
/// above a hashed group lookup on a 2-CPU machine, and level with it
/// galloping.
fn gallop(lo: usize, hi: usize, mut less: impl FnMut(usize) -> bool) -> usize {
    if lo >= hi || !less(lo) {
        return lo;
    }
    let (mut below, mut step) = (lo, 1);
    loop {
        let probe = below + step;
        if probe >= hi || !less(probe) {
            return lower_bound(below + 1, probe.min(hi), less);
        }
        below = probe;
        step *= 2;
    }
}

/// A column value as a run's dictionaries hold it: the order key the runs
/// sort by, then the interned id as a grouping tie-break.
type Pair = (OrderKey, ValueId);

/// One sorted run of an index, **dictionary-coded**: per column, the run's
/// distinct `(OrderKey, ValueId)` pairs in ascending order (its dictionary);
/// per entry, `k` `u32` ranks into those dictionaries (entry-major) and the
/// entry's `FactId`. Entries are sorted by rank tuple with `FactId` as the
/// final tie-break. Rank order is pair order, so equal composite keys form
/// contiguous, FactId-ordered groups, every column is range-scannable under
/// its prefix, and every in-run comparison is a `u32` comparison.
#[derive(Clone, Debug)]
pub(crate) struct SortedRun {
    ranks: Vec<u32>,
    facts: Vec<FactId>,
    /// One dictionary per column: rank `r` of column `c` is `dicts[c][r]`.
    dicts: Box<[Box<[Pair]>]>,
}

impl SortedRun {
    fn entry(&self, k: usize, i: usize) -> &[u32] {
        &self.ranks[i * k..(i + 1) * k]
    }

    fn rank(&self, k: usize, i: usize, c: usize) -> u32 {
        self.ranks[i * k + c]
    }

    /// The pair entry `i` holds at column `c`.
    fn pair(&self, k: usize, i: usize, c: usize) -> Pair {
        self.dicts[c][self.rank(k, i, c) as usize]
    }

    /// Build a run from unsorted entries — each a `FactId` and its `k` ids —
    /// given in ascending `FactId` order, with **one sort**: every column's
    /// distinct ids get dense ranks in `(OrderKey, ValueId)` order (the
    /// sorted distinct pairs are the column's dictionary), a `u32`
    /// permutation is sorted by the rank tuples (a stable counting pass per
    /// column, last column first, so insertion order is the final
    /// tie-break), and ranks and facts are written once, in final order.
    /// Besides the run itself the build holds `O(n)` `u32`s (ranks,
    /// permutation, scratch) plus one rank table per column.
    pub(crate) fn from_entries<I, R>(k: usize, entries: I) -> SortedRun
    where
        I: IntoIterator<Item = (FactId, R)>,
        R: IntoIterator<Item = ValueId>,
    {
        let entries = entries.into_iter();
        let (lower, _) = entries.size_hint();
        let mut columns: Vec<(FxHashMap<ValueId, u32>, Vec<ValueId>)> =
            (0..k).map(|_| Default::default()).collect();
        let mut coded: Vec<u32> = Vec::with_capacity(lower * k);
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
                coded.push(slot);
            }
        }
        let n = facts.len();
        assert_eq!(coded.len(), n * k, "every entry carries k ids");

        // First-seen slots -> ranks in (OrderKey, ValueId) order, per column.
        let mut dicts: Vec<Box<[Pair]>> = Vec::with_capacity(k);
        for (c, (_, distinct)) in columns.into_iter().enumerate() {
            let keys = order_keys_of(&distinct);
            let pair = |slot: u32| (keys[slot as usize], distinct[slot as usize]);
            let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
            order.sort_unstable_by_key(|&slot| pair(slot));
            let mut rank_of = vec![0u32; order.len()];
            for (rank, &slot) in order.iter().enumerate() {
                rank_of[slot as usize] = rank as u32;
            }
            for r in coded.iter_mut().skip(c).step_by(k) {
                *r = rank_of[*r as usize];
            }
            dicts.push(order.into_iter().map(pair).collect());
        }

        // LSD counting sort of the permutation by rank tuple.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut scratch: Vec<u32> = vec![0; n];
        let mut starts: Vec<u32> = Vec::new();
        for c in (0..k).rev() {
            let distinct = dicts[c].len();
            if distinct <= 1 {
                continue;
            }
            let rank = |p: u32| coded[p as usize * k + c] as usize;
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

        // Write the run in final order.
        let mut run = SortedRun {
            ranks: Vec::with_capacity(n * k),
            facts: Vec::with_capacity(n),
            dicts: dicts.into_boxed_slice(),
        };
        for &p in &perm {
            run.ranks
                .extend_from_slice(&coded[p as usize * k..(p as usize + 1) * k]);
            run.facts.push(facts[p as usize]);
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

    /// Merge two sorted runs covering adjacent insertion ranges: each
    /// column's dictionaries are unioned and both runs' ranks recoded into
    /// the union (a run whose dictionary already is the union keeps its
    /// ranks), then the entries merge by rank tuple and `FactId`.
    fn merge(k: usize, mut a: SortedRun, mut b: SortedRun) -> SortedRun {
        let mut dicts: Vec<Box<[Pair]>> = Vec::with_capacity(k);
        for c in 0..k {
            let (dict, a_to, b_to) = union_dicts(&a.dicts[c], &b.dicts[c]);
            for (run, to) in [(&mut a, a_to), (&mut b, b_to)] {
                if to.len() < dict.len() {
                    for r in run.ranks.iter_mut().skip(c).step_by(k) {
                        *r = to[*r as usize];
                    }
                }
            }
            dicts.push(dict);
        }
        let n = a.facts.len() + b.facts.len();
        let mut ranks = Vec::with_capacity(n * k);
        let mut facts = Vec::with_capacity(n);
        let (mut i, mut j) = (0, 0);
        while i < a.facts.len() && j < b.facts.len() {
            let take_a = a
                .entry(k, i)
                .cmp(b.entry(k, j))
                .then_with(|| a.facts[i].cmp(&b.facts[j]))
                .is_le();
            if take_a {
                ranks.extend_from_slice(a.entry(k, i));
                facts.push(a.facts[i]);
                i += 1;
            } else {
                ranks.extend_from_slice(b.entry(k, j));
                facts.push(b.facts[j]);
                j += 1;
            }
        }
        ranks.extend_from_slice(&a.ranks[i * k..]);
        facts.extend_from_slice(&a.facts[i..]);
        ranks.extend_from_slice(&b.ranks[j * k..]);
        facts.extend_from_slice(&b.facts[j..]);
        SortedRun {
            ranks,
            facts,
            dicts: dicts.into_boxed_slice(),
        }
    }

    /// Contiguous group of entries whose leading columns equal `pairs`, as
    /// an entry-index span: each pair is looked up in its column's
    /// dictionary (a pair the run does not hold leaves the span empty at
    /// once, before later pairs are read), then the span narrows column by
    /// column by rank.
    fn group_span(&self, k: usize, pairs: impl IntoIterator<Item = Pair>) -> (usize, usize) {
        let (mut lo, mut hi) = (0, self.facts.len());
        for (c, pair) in pairs.into_iter().enumerate() {
            let Ok(r) = self.dicts[c].binary_search(&pair) else {
                return (lo, lo);
            };
            let r = r as u32;
            lo = lower_bound(lo, hi, |i| self.rank(k, i, c) < r);
            hi = gallop(lo, hi, |i| self.rank(k, i, c) <= r);
        }
        (lo, hi)
    }

    /// Distinct rank tuples (composite keys) of the run: one per group
    /// boundary.
    fn distinct_keys(&self, k: usize) -> usize {
        let n = self.facts.len();
        usize::from(n > 0)
            + (1..n)
                .filter(|&i| self.entry(k, i - 1) != self.entry(k, i))
                .count()
    }

    /// Append to `out` the facts of entries in `[g0, g1)` whose column `p`
    /// satisfies `range`. The bound's key maps to a pair of rank bounds in
    /// the column's dictionary: entries ranked strictly inside the key range
    /// are emitted without resolving a value, minus the labelled nulls (one
    /// contiguous block of ranks, since order keys sort by class first);
    /// entries tying the bound's key are checked exactly.
    fn collect_range(
        &self,
        k: usize,
        (g0, g1): (usize, usize),
        p: usize,
        range: &RangeFilter,
        out: &mut Vec<FactId>,
    ) {
        let dict = &self.dicts[p];
        let rank_at = |i: usize| self.rank(k, i, p);
        let below = dict.partition_point(|(key, _)| *key < range.key) as u32;
        let tied =
            below + dict[below as usize..].partition_point(|(key, _)| *key <= range.key) as u32;
        let lo = lower_bound(g0, g1, |i| rank_at(i) < below);
        let hi = lower_bound(lo, g1, |i| rank_at(i) < tied);
        let (i0, i1) = if range.is_upper() { (g0, lo) } else { (hi, g1) };
        let null_floor = Value::Null(NullId(0)).order_key();
        let nulls = dict.partition_point(|(key, _)| *key < null_floor);
        let nulls_end =
            (nulls + dict[nulls..].partition_point(|(key, _)| key.is_null_class())) as u32;
        let n0 = lower_bound(i0, i1, |i| rank_at(i) < nulls as u32);
        let n1 = lower_bound(n0, i1, |i| rank_at(i) < nulls_end);
        out.extend_from_slice(&self.facts[i0..n0]);
        out.extend_from_slice(&self.facts[n1..i1]);
        for i in lo..hi {
            if range.matches(dict[rank_at(i) as usize].1) {
                out.push(self.facts[i]);
            }
        }
    }
}

/// The union of two dictionaries (sorted, distinct), with each input's
/// rank → union-rank map.
fn union_dicts(a: &[Pair], b: &[Pair]) -> (Box<[Pair]>, Vec<u32>, Vec<u32>) {
    let mut union: Vec<Pair> = Vec::with_capacity(a.len().max(b.len()));
    let (mut a_to, mut b_to) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => *x.min(y),
            (Some(x), None) => *x,
            (None, Some(y)) => *y,
            (None, None) => unreachable!("loop condition"),
        };
        let rank = union.len() as u32;
        if a.get(i) == Some(&next) {
            a_to.push(rank);
            i += 1;
        }
        if b.get(j) == Some(&next) {
            b_to.push(rank);
            j += 1;
        }
        union.push(next);
    }
    (union.into_boxed_slice(), a_to, b_to)
}

/// The size-tiered merge rule of index runs and row segments: while the
/// second-newest item holds at most twice the rows of the newest, the two
/// merge into one. Every item then holds more than twice the rows of the
/// next newer one, so `n` rows make at most ⌊log2 n⌋ + 1 items and a row is
/// copied `O(log n)` times over its life. Returns the number of merges.
fn merge_tiered<T>(
    items: &mut Vec<T>,
    rows: impl Fn(&T) -> usize,
    mut merge: impl FnMut(T, T) -> T,
) -> usize {
    let mut merges = 0;
    while let [.., older, newer] = items.as_slice() {
        if rows(older) > 2 * rows(newer) {
            break;
        }
        let newer = items.pop().expect("two items");
        let older = items.pop().expect("two items");
        items.push(merge(older, newer));
        merges += 1;
    }
    merges
}

/// A dynamic index over an ordered column list, covering every row of its
/// relation: sorted runs over disjoint ascending insertion ranges, oldest
/// first, plus an unsorted tail of recent inserts. Runs are immutable and
/// `Arc`-shared, and so are the run list and the column list, so an
/// overlay's copy of an index shares all three with its snapshot; its first
/// flush copies the list.
#[derive(Clone, Debug)]
struct SortedIndex {
    cols: Arc<[usize]>,
    runs: Arc<Vec<Arc<SortedRun>>>,
    /// `cols.len()` ids per tail row, in insertion order.
    tail_ids: Vec<ValueId>,
    tail_facts: Vec<FactId>,
}

impl SortedIndex {
    fn new(cols: &[usize]) -> SortedIndex {
        SortedIndex {
            cols: cols.into(),
            runs: Arc::default(),
            tail_ids: Vec::new(),
            tail_facts: Vec::new(),
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

    /// Sort the tail into a fresh run and merge the newest runs by
    /// [`merge_tiered`], keeping the run count logarithmic in the relation
    /// size. A run this index holds alone is merged in place; one it
    /// shares with a snapshot is copied first.
    fn flush(&mut self) {
        if self.tail_facts.is_empty() {
            return;
        }
        let k = self.k();
        let tail_ids = std::mem::take(&mut self.tail_ids);
        let tail_facts = std::mem::take(&mut self.tail_facts);
        let runs = Arc::make_mut(&mut self.runs);
        runs.push(Arc::new(SortedRun::from_entries(
            k,
            tail_facts
                .iter()
                .enumerate()
                .map(|(i, f)| (*f, tail_ids[i * k..(i + 1) * k].iter().copied())),
        )));
        merge_tiered(
            runs,
            |run| run.facts.len(),
            |a, b| {
                Arc::new(SortedRun::merge(
                    k,
                    Arc::unwrap_or_clone(a),
                    Arc::unwrap_or_clone(b),
                ))
            },
        );
    }

    /// Probe the index: exact on the first `prefix.len()` columns, plus an
    /// optional range filter on the next column. Postings come back in
    /// ascending `FactId` order: when the probe binds every column exactly,
    /// its whole result is one run's group and the tail holds no match,
    /// that group is borrowed; otherwise they are collected into `out`.
    ///
    /// Every run answers by one path: each bound value is looked up in its
    /// column's dictionary ([`SortedRun::group_span`], reading order keys
    /// through the interner's shard read locks), and a range narrows the
    /// span by rank. No probe allocates.
    fn probe<'r>(
        &'r self,
        prefix: &[ValueId],
        range: Option<&RangeFilter>,
        out: &mut Vec<FactId>,
    ) -> Probe<'r> {
        out.clear();
        let k = self.k();
        let p = prefix.len();
        debug_assert!(p + usize::from(range.is_some()) <= k);
        if range.is_some_and(RangeFilter::never) {
            return Probe::Buffered;
        }
        // A whole-key group is FactId-ordered; any wider span is key-ordered.
        let exact = range.is_none() && p == k;
        let mut single: Option<&'r [FactId]> = None;
        for run in self.runs.iter() {
            let span = run.group_span(k, prefix.iter().map(|v| (order_key_of(*v), *v)));
            if span.0 >= span.1 {
                continue;
            }
            if exact && single.is_none() && out.is_empty() {
                single = Some(&run.facts[span.0..span.1]);
                continue;
            }
            if let Some(first) = single.take() {
                out.extend_from_slice(first);
            }
            let before = out.len();
            match range {
                Some(r) => run.collect_range(k, span, p, r, out),
                None => out.extend_from_slice(&run.facts[span.0..span.1]),
            }
            // Runs cover ascending disjoint insertion ranges, so sorting
            // each run's share keeps the whole result FactId-ordered.
            if !exact {
                out[before..].sort_unstable();
            }
        }
        for (i, f) in self.tail_facts.iter().enumerate() {
            let ids = &self.tail_ids[i * k..(i + 1) * k];
            if ids[..p] == *prefix && range.is_none_or(|r| r.matches(ids[p])) {
                out.push(*f);
            }
        }
        match single {
            Some(group) if out.is_empty() => Probe::Run(group),
            Some(group) => {
                // One run group plus tail matches: the tail is newest, so
                // the group goes in front of what the tail appended.
                out.splice(0..0, group.iter().copied());
                Probe::Buffered
            }
            None => Probe::Buffered,
        }
    }

    /// Heap bytes (ranks, `FactId`s, dictionaries and run headers, counted
    /// by capacity) of the runs holding a row below `shared_below` — a
    /// segment's row, so the run came with the snapshot or merged one of
    /// its runs in — and, apart, of the other runs and the tail. The run
    /// list goes with the first part when the relation has segments.
    fn heap_bytes(&self, shared_below: usize) -> (usize, usize) {
        let (mut shared, mut own) = (0, 0);
        let list = self.runs.capacity() * size_of::<Arc<SortedRun>>();
        if shared_below > 0 {
            shared += list;
        } else {
            own += list;
        }
        for run in self.runs.iter() {
            let bytes = size_of::<SortedRun>()
                + run.ranks.capacity() * size_of::<u32>()
                + run.facts.capacity() * size_of::<FactId>()
                + run.dicts.len() * size_of::<Box<[Pair]>>()
                + run.dicts.iter().map(|d| d.len()).sum::<usize>() * size_of::<Pair>();
            if run.facts.iter().any(|f| f.index() < shared_below) {
                shared += bytes;
            } else {
                own += bytes;
            }
        }
        own += self.tail_ids.capacity() * size_of::<ValueId>()
            + self.tail_facts.capacity() * size_of::<FactId>();
        (shared, own)
    }

    /// Entries, keys and bytes of the runs and the tail together.
    fn stats(&self) -> IndexStats {
        let (shared, own) = self.heap_bytes(0);
        let mut stats = IndexStats {
            entries: self.tail_facts.len(),
            distinct_keys: self.tail_facts.len(),
            bytes: shared + own,
        };
        for run in self.runs.iter() {
            stats.entries += run.facts.len();
            stats.distinct_keys += run.distinct_keys(self.k());
        }
        stats
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
/// entries are sorted lexicographically by rank tuple, so the entries
/// sharing a value prefix form one contiguous span per run, and the distinct
/// values of the next column appear in ascending `(OrderKey, ValueId)` order
/// within that span. A `TrieCursor` walks this shape directly — no new
/// storage format — by keeping one `(lo, hi, pos)` span per run per opened
/// column. Each run codes values by its own dictionaries, so the cursor's
/// API speaks pairs: it reads a run's current pair from the dictionary, and
/// turns a seek target into a rank bound in that run's dictionary before it
/// binary-searches the span by rank:
///
/// * [`TrieCursor::open`] positions the cursor on the span of an exact value
///   prefix (the columns a join binding already determines);
/// * [`TrieCursor::key`] / [`TrieCursor::seek`] / [`TrieCursor::seek_past`]
///   enumerate the current column's values in ascending pair order,
///   leapfrogging via binary search within each run's span;
/// * [`TrieCursor::descend`] / [`TrieCursor::up`] move between columns,
///   narrowing every run's span to the entries carrying the chosen value;
/// * at full depth [`TrieCursor::leaf_facts`] yields the matching `FactId`s
///   in ascending order (runs cover disjoint ascending insertion ranges,
///   oldest first).
///
/// Values are compared as `(OrderKey, ValueId)` pairs — the runs' sort
/// order. Pair equality coincides with id equality (ids are global interns
/// and a value's order key is a pure function of the value), so an
/// intersection on pairs is an intersection on values.
///
/// A cursor is only handed out by [`Relation::trie_cursor`] when the
/// index's tail is flushed. The engine ensures and flushes every trie list
/// before it freezes a store for a batch, so it always gets one.
#[derive(Clone, Debug)]
pub struct TrieCursor<'r> {
    /// Columns per entry of the underlying index.
    k: usize,
    /// The index's runs, oldest (smallest `FactId`s) first.
    runs: Vec<&'r SortedRun>,
    /// One `(lo, hi, pos)` span per run per opened column, flattened: the
    /// last `runs.len()` triples are the current column's frame.
    frames: Vec<(u32, u32, u32)>,
    /// Columns currently bound (prefix columns after `open`, plus one per
    /// `descend`).
    depth: usize,
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
        let mut any = false;
        for run in &self.runs {
            let (lo, hi) = run.group_span(self.k, prefix.iter().map(|v| (order_key_of(*v), *v)));
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
        let mut best: Option<Pair> = None;
        for (r, run) in self.runs.iter().enumerate() {
            let (_, hi, pos) = self.frames[base + r];
            if pos < hi {
                let pair = run.pair(self.k, pos as usize, self.depth);
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

    /// Per run: the target becomes a rank bound by binary search in the
    /// run's dictionary for the current column, then the position moves to
    /// the first entry of the span ranked at or past that bound.
    fn advance(&mut self, target: Pair, past: bool) {
        let base = self.frames.len() - self.runs.len();
        let (k, d) = (self.k, self.depth);
        for (r, run) in self.runs.iter().enumerate() {
            let (lo, hi, pos) = self.frames[base + r];
            if pos >= hi {
                continue;
            }
            let from = run.rank(k, pos as usize, d) as usize;
            let dict = &run.dicts[d][from..];
            let bound = from
                + if past {
                    dict.partition_point(|pair| *pair <= target)
                } else {
                    dict.partition_point(|pair| *pair < target)
                };
            if bound == from {
                continue; // already at or past the target
            }
            let bound = bound as u32;
            let next = lower_bound(pos as usize, hi as usize, |i| run.rank(k, i, d) < bound);
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
        let (k, d) = (self.k, self.depth);
        for r in 0..self.runs.len() {
            let run = self.runs[r];
            let (_, hi, pos) = self.frames[base + r];
            // The first rank past `value`: the next one when the run sits
            // on `value`, else found in the dictionary.
            let past = match (pos < hi).then(|| run.rank(k, pos as usize, d)) {
                Some(at) if run.dicts[d][at as usize] == value => at + 1,
                _ => run.dicts[d].partition_point(|pair| *pair <= value) as u32,
            };
            let child_hi = lower_bound(pos as usize, hi as usize, |i| run.rank(k, i, d) < past);
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

/// Set-semantics dedup over one row arena: an open-addressed,
/// linear-probing table of the arena's row positions. Each 8-byte slot packs a row's 32-bit hash tag
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
/// tables, and sorted-run indexes (runs and tails).
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

/// [`HeapBytes`] of a relation or a store, what it owns listed apart from
/// what it shares with the snapshot it was made from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreBytes {
    /// The relation's own rows, dedup, index tails and the index runs
    /// holding only own rows (all of a plain relation).
    pub own: HeapBytes,
    /// The shared segments and the index runs holding a segment's row
    /// (shared with the snapshot, or merged from one of its runs).
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

/// Room for a row its relation does not hold: what [`Relation::vacancy`]
/// found and [`Relation::fill`] uses, so the row is hashed and probed once.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vacancy {
    tag: u32,
    slot: usize,
    id: FactId,
}

impl Vacancy {
    /// The [`FactId`] the row gets when it is filled in.
    pub fn id(&self) -> FactId {
        self.id
    }
}

/// A sealed stretch of a relation's rows: rows `start..start + rows.len()`
/// in insertion order and their dedup table. Immutable once sealed and
/// `Arc`-shared by every relation made from the same snapshot.
#[derive(Clone, Debug)]
struct Segment {
    start: usize,
    rows: RowArena,
    dedup: DedupTable,
}

impl Segment {
    fn end(&self) -> usize {
        self.start + self.rows.len()
    }

    /// The `FactId` of `row`, if this segment holds it.
    fn find(&self, tag: u32, row: &[ValueId]) -> Option<FactId> {
        let local = self.dedup.find(tag, |i| self.rows.row(i) == row).ok()?;
        Some(FactId((self.start + local) as u32))
    }

    /// Merge two adjacent segments: `newer`'s rows are appended to `older`
    /// and entered in its dedup table. An `older` segment held alone grows
    /// in place; a shared one is copied first.
    fn merge(older: Arc<Segment>, newer: Arc<Segment>) -> Arc<Segment> {
        let mut merged = Arc::unwrap_or_clone(older);
        for row in newer.rows.iter() {
            let tag = row_tag(row);
            let slot = merged
                .dedup
                .find(tag, |_| false)
                .expect_err("segments never share a row");
            merged.dedup.insert_at(slot, tag, merged.rows.len());
            merged.rows.push(row);
        }
        Arc::new(merged)
    }
}

/// A single relation: all rows of one predicate.
///
/// Rows live in [`RowArena`]s (rows of any arity back to back, no
/// allocation per row), each deduplicated through an open-addressed table
/// of row positions; rows are compared in the arena, never boxed. A
/// relation holds:
///
/// * a list of sealed, immutable **segments** (rows plus dedup table,
///   oldest first), `Arc`-shared with every relation made from the same
///   snapshot;
/// * its **own** mutable rows, which continue the `FactId` space after the
///   segments' rows;
/// * one `SortedIndex` per requested column list, each covering **all**
///   of the relation's rows: `Arc`-shared sorted runs plus a tail.
///
/// A relation built by inserts alone has no segment. An **overlay** of a
/// snapshot ([`Relation::with_base`], [`StoreBase::overlay`]) starts with
/// the snapshot's segment and run lists, so it copies no row and no run,
/// and its inserts land in its own rows and index tails. Sealing
/// ([`FactStore::freeze`], [`StoreBase::promote`]) turns the own rows into
/// a new segment, flushes every tail into the runs, and merges the newest
/// segments by the runs' size-tiered rule. `FactId`s are insertion
/// positions whichever way the rows are split, so a relation is
/// observationally identical to a plain one with the same insertion
/// history. [`Relation::heap_bytes`] reports what it holds.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    /// Sealed row segments, oldest first: segment rows precede own rows.
    segments: Arc<Vec<Arc<Segment>>>,
    /// The relation's own rows: row `i` is `FactId(base_row_count() + i)`.
    rows: RowArena,
    /// Set-semantics dedup over the own rows (arena positions, not
    /// `FactId`s); the segments' tables are consulted too.
    dedup: DedupTable,
    /// Dynamic sorted-run indices, one per requested column list.
    indices: Vec<SortedIndex>,
    /// Index builds this relation made over rows it holds in segments: the
    /// rebuild work a well-prepared snapshot avoids entirely.
    full_index_builds: u64,
}

impl Relation {
    /// Create an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an overlay of `base`: the copy-on-write snapshot entry point.
    /// The overlay shares the base's segment list and index run lists (the
    /// base's own rows, if it has any, are sealed into a segment first,
    /// copied when another handle shares the base); inserts land in the
    /// overlay, and its first seal or flush copies the list it changes.
    pub fn with_base(base: Arc<Relation>) -> Self {
        let mut rel = Arc::unwrap_or_clone(base);
        rel.seal();
        rel.full_index_builds = 0;
        rel
    }

    /// Seal the own rows into a new segment, flush every index tail into
    /// the runs, and merge the newest segments by [`merge_tiered`].
    /// Returns the number of segment merges.
    fn seal(&mut self) -> usize {
        self.flush_indexes();
        if self.rows.is_empty() {
            return 0;
        }
        let start = self.base_row_count();
        let segments = Arc::make_mut(&mut self.segments);
        segments.push(Arc::new(Segment {
            start,
            rows: std::mem::take(&mut self.rows),
            dedup: std::mem::take(&mut self.dedup),
        }));
        merge_tiered(segments, |s| s.rows.len(), Segment::merge)
    }

    /// Number of rows held in sealed segments (0 for a plain relation).
    pub fn base_row_count(&self) -> usize {
        self.segments.last().map_or(0, |s| s.end())
    }

    /// Number of sealed segments (0 for a plain relation).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of rows owned by this relation itself (everything, for a plain
    /// relation; the rows past the segments otherwise).
    pub fn overlay_row_count(&self) -> usize {
        self.rows.len()
    }

    /// Index builds this relation made over rows it holds in segments,
    /// because its snapshot lacked a planned column list. 0 on plain
    /// relations.
    pub fn full_index_builds(&self) -> u64 {
        self.full_index_builds
    }

    /// Heap bytes of this relation, what it owns apart from what it shares
    /// with its snapshot (see [`StoreBytes`]), counted by capacity.
    pub fn heap_bytes(&self) -> StoreBytes {
        let mut bytes = StoreBytes {
            own: HeapBytes {
                rows: self.rows.heap_bytes(),
                dedup: self.dedup.heap_bytes(),
                indexes: 0,
            },
            base: HeapBytes::default(),
        };
        for segment in self.segments.iter() {
            bytes.base.rows += segment.rows.heap_bytes();
            bytes.base.dedup += segment.dedup.heap_bytes();
        }
        for index in &self.indices {
            let (shared, own) = index.heap_bytes(self.base_row_count());
            bytes.base.indexes += shared;
            bytes.own.indexes += own;
        }
        bytes
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
    /// is already present (in a segment or in the own rows).
    pub fn insert_row(&mut self, row: &[ValueId]) -> Option<FactId> {
        let vacancy = self.vacancy(row)?;
        Some(self.fill(vacancy, row))
    }

    /// Where `row` would go: `None` when the relation holds it, otherwise
    /// the row's dedup tag, the free slot of the own rows' table that ended
    /// the probe, and the [`FactId`] the row gets. [`Relation::fill`]
    /// stores it there, so a caller that decides in between (a termination
    /// strategy, which only reads the store) hashes and probes the row once.
    pub fn vacancy(&self, row: &[ValueId]) -> Option<Vacancy> {
        assert!(
            self.len() < u32::MAX as usize,
            "relation overflow: FactId space exhausted"
        );
        let id = FactId(self.len() as u32);
        let tag = row_tag(row);
        let slot = self.dedup.find(tag, |i| self.rows.row(i) == row).err()?;
        if self.segments.iter().any(|s| s.find(tag, row).is_some()) {
            return None;
        }
        Some(Vacancy { tag, slot, id })
    }

    /// Insert `row` where [`Relation::vacancy`] found room for it, growing
    /// the dedup table if it is full, and return its [`FactId`].
    ///
    /// # Panics
    /// Panics if the relation changed since `vacancy` was taken.
    pub fn fill(&mut self, vacancy: Vacancy, row: &[ValueId]) -> FactId {
        let Vacancy { tag, slot, id } = vacancy;
        assert_eq!(
            id.index(),
            self.len(),
            "a vacancy is filled before any other insert"
        );
        self.dedup.insert_at(slot, tag, self.rows.len());
        for index in self.indices.iter_mut() {
            index.push_row(id, row);
        }
        self.rows.push(row);
        id
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

    /// The `FactId` of exactly this row, if the relation holds it.
    pub fn find_row(&self, row: &[ValueId]) -> Option<FactId> {
        let tag = row_tag(row);
        match self.dedup.find(tag, |i| self.rows.row(i) == row) {
            Ok(local) => Some(FactId((self.base_row_count() + local) as u32)),
            Err(_) => self.segments.iter().find_map(|s| s.find(tag, row)),
        }
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
    /// Panics if `id` was not issued by this relation (or its snapshot).
    pub fn row(&self, id: FactId) -> &[ValueId] {
        let i = id.index();
        match i.checked_sub(self.base_row_count()) {
            Some(own) => self.rows.row(own),
            None => {
                let s = &self.segments[self.segments.partition_point(|s| s.end() <= i)];
                s.rows.row(i - s.start)
            }
        }
    }

    /// All rows in insertion order (`FactId(i)` is position `i`): the
    /// segments' rows, oldest first, then the own rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[ValueId]> {
        self.segments
            .iter()
            .flat_map(|s| s.rows.iter())
            .chain(self.rows.iter())
    }

    /// Materialise the fact stored at `id`.
    pub fn fact(&self, predicate: Sym, id: FactId) -> Fact {
        Fact::new_sym(
            predicate,
            self.row(id).iter().map(|v| resolve_value(*v)).collect(),
        )
    }

    /// The index covering exactly `cols`, if materialised.
    fn index(&self, cols: &[usize]) -> Option<&SortedIndex> {
        self.indices.iter().find(|ix| &*ix.cols == cols)
    }

    /// Force construction of the sorted-run index over `cols` (a single
    /// column or a composite prefix, probe-order). If the index already
    /// exists its tail is flushed, so subsequent probes run entirely on
    /// sorted runs — the pre-pass the engine performs before freezing a
    /// store for a parallel batch. A new index over existing rows is built
    /// as **one** run over all of them by one sort
    /// (`SortedRun::from_entries`), counted in
    /// [`Relation::full_index_builds`] when some of them are in segments;
    /// only rows inserted afterwards go through the tail.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        if let Some(index) = self.indices.iter_mut().find(|ix| &*ix.cols == cols) {
            index.flush();
            return;
        }
        if !self.segments.is_empty() {
            self.full_index_builds += 1;
        }
        let mut index = SortedIndex::new(cols);
        let run = SortedRun::from_rows(
            cols,
            self.iter_rows()
                .enumerate()
                .map(|(i, row)| (FactId(i as u32), row)),
        );
        if !run.facts.is_empty() {
            index.runs = Arc::new(vec![Arc::new(run)]);
        }
        self.indices.push(index);
    }

    /// Is the index over `cols` materialised?
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.index(cols).is_some()
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
    pub fn probe_if_indexed<'r>(
        &'r self,
        cols: &[usize],
        prefix: &[ValueId],
        range: Option<&RangeFilter>,
        out: &mut Vec<FactId>,
    ) -> Option<Probe<'r>> {
        Some(self.index(cols)?.probe(prefix, range, out))
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

    /// Number of dynamic indices currently materialised.
    pub fn index_count(&self) -> usize {
        self.indices.len()
    }

    /// The indexed column lists, in build order.
    pub fn indexed_col_lists(&self) -> Vec<Box<[usize]>> {
        self.indices.iter().map(|ix| (*ix.cols).into()).collect()
    }

    /// Statistics of every materialised index, in
    /// [`Relation::indexed_col_lists`] order.
    pub fn index_stats(&self) -> Vec<(Box<[usize]>, IndexStats)> {
        self.indices
            .iter()
            .map(|ix| ((*ix.cols).into(), ix.stats()))
            .collect()
    }

    /// `(entries, distinct keys)` of each sorted run of the index over
    /// `cols`, oldest run first; `None` when the index is not materialised.
    /// Unflushed tail rows are not listed.
    pub fn index_run_stats(&self, cols: &[usize]) -> Option<Vec<(usize, usize)>> {
        let index = self.index(cols)?;
        Some(
            index
                .runs
                .iter()
                .map(|run| (run.facts.len(), run.distinct_keys(index.k())))
                .collect(),
        )
    }

    /// A [`TrieCursor`] over the sorted runs of the index over `cols`, for
    /// leapfrog-triejoin probing. Runs cover ascending insertion ranges
    /// oldest first, so leaf enumeration is `FactId`-ascending.
    ///
    /// Returns `None` when the index is missing or its tail is unflushed (a
    /// trie walk cannot see tail rows). The engine's `ensure_index` pass at
    /// every activation makes both false wherever the engine asks, so it
    /// treats `None` as a broken invariant.
    pub fn trie_cursor(&self, cols: &[usize]) -> Option<TrieCursor<'_>> {
        let index = self.index(cols)?;
        index
            .tail_facts
            .is_empty()
            .then(|| TrieCursor::new(cols.len(), index.runs.iter().map(|run| &**run).collect()))
    }

    /// Materialise all facts of this relation under `predicate`, in
    /// insertion order.
    pub fn to_facts(&self, predicate: Sym) -> Vec<Fact> {
        self.iter_rows()
            .map(|row| Fact::new_sym(predicate, resolve_values(row)))
            .collect()
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
        self.insert_row(fact.predicate, &fact.intern_args())
    }

    /// Insert a fact its caller has already interned; returns `true` if it
    /// was new. A row holding a labelled null ([`ValueId::is_null`]) sets
    /// [`FactStore::holds_nulls`]. This is [`FactStore::insert`] for a
    /// loader that also hands the row to someone else, so it interns once.
    pub fn insert_row(&mut self, predicate: Sym, row: &[ValueId]) -> bool {
        self.holds_nulls |= row.iter().any(|id| id.is_null());
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
                fresh += usize::from(self.insert_row(fact.predicate, row));
            }
        }
    }

    /// Did a fact carrying a labelled null enter through
    /// [`FactStore::insert`] or [`FactStore::insert_row`] — into this store
    /// or, for an overlay, into the snapshot below it? That path is how
    /// extensional data
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

    /// Heap bytes of every relation, own parts apart from shared ones,
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

    /// Rows the relations hold in shared segments (0 for a plain store) —
    /// the interned EDB rows a snapshot run reused instead of rebuilding.
    pub fn base_rows(&self) -> usize {
        self.relations.values().map(Relation::base_row_count).sum()
    }

    /// Rows owned by the relations themselves: everything for a plain
    /// store, the rows past the segments otherwise.
    pub fn overlay_rows(&self) -> usize {
        self.relations
            .values()
            .map(Relation::overlay_row_count)
            .sum()
    }

    /// Index builds the relations made over rows they hold in segments,
    /// because a shared snapshot lacked a planned column list — 0 when the
    /// snapshot was prepared with every planned index.
    pub fn full_index_builds(&self) -> u64 {
        self.relations
            .values()
            .map(Relation::full_index_builds)
            .sum()
    }

    /// The most segments any relation of this store holds (0 when every
    /// relation is plain).
    pub fn max_segments(&self) -> usize {
        self.relations
            .values()
            .map(Relation::segment_count)
            .max()
            .unwrap_or(0)
    }

    /// Freeze this store into a shareable, immutable EDB base: every
    /// relation's rows are sealed into a segment and its index tails are
    /// flushed (so the shared runs are final and never re-sorted), and the
    /// relation is wrapped in an [`Arc`]. Overlay stores created with
    /// [`StoreBase::overlay`] reuse the interned rows and the sorted runs
    /// without copying either.
    pub fn freeze(self) -> StoreBase {
        let mut base = StoreBase {
            holds_nulls: self.holds_nulls,
            ..StoreBase::default()
        };
        for (p, mut rel) in self.relations {
            base.merges += rel.seal();
            base.relations.insert(p, Arc::new(rel));
        }
        base
    }
}

/// A shareable, immutable EDB snapshot: the copy-on-write base of a query
/// session. Holds one `Arc`'d [`Relation`] per predicate, every row sealed
/// in segments and every index tail flushed, and hands out cheap
/// [`StoreBase::overlay`] stores whose relations write only their own rows.
/// Between runs the owner can extend the base's *index set* via
/// [`StoreBase::ensure_index`]; the rows themselves are immutable for the
/// lifetime of the snapshot.
///
/// Appending facts does not mutate shared segments or runs either:
/// [`StoreBase::promote`] seals a mutated overlay's rows into a new segment
/// and merges the newest segments size-tiered, so a relation of `n` rows
/// holds at most ⌊log2 n⌋ + 1 segments. Each promotion bumps the base's
/// [`StoreBase::stamp`], the invalidation key for anything computed against
/// a particular snapshot.
#[derive(Clone, Debug, Default)]
pub struct StoreBase {
    relations: BTreeMap<Sym, Arc<Relation>>,
    /// Monotonic stamp: bumped by every [`StoreBase::promote`] that adds
    /// rows.
    stamp: u64,
    /// Segment merges made by the freeze and the promotions so far.
    merges: usize,
    /// [`FactStore::holds_nulls`] of every store frozen or promoted into
    /// this base.
    holds_nulls: bool,
}

impl StoreBase {
    /// A mutable copy-on-write store over this base: every relation starts
    /// as an overlay holding the base's segment and run lists.
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
    /// merge it in.
    pub fn holds_nulls(&self) -> bool {
        self.holds_nulls
    }

    /// Build the index over `cols` on the base relation of `predicate`.
    /// Returns `true` when a new index was built.
    ///
    /// When the session is the sole owner of the relation (no overlay store
    /// alive) the index is built in place. When a caller still holds
    /// overlays of an earlier snapshot — retained `QueryResult` stores, for
    /// instance — [`Arc::make_mut`] first copies the relation's list of
    /// indexes (`Arc`s, never rows or runs) and indexes the copy: later
    /// overlays share the newly indexed base, the retained ones keep their
    /// original snapshot untouched.
    pub fn ensure_index(&mut self, predicate: Sym, cols: &[usize]) -> bool {
        match self.relations.get_mut(&predicate) {
            Some(arc) if !arc.has_index(cols) => {
                Arc::make_mut(arc).ensure_index(cols);
                true
            }
            _ => false,
        }
    }

    /// Promote a mutated overlay store (created by [`StoreBase::overlay`])
    /// into this base: every relation that gained rows is sealed — its own
    /// rows become a new segment, its index tails are flushed into runs,
    /// and its newest segments merge by the size-tiered rule of the runs —
    /// and replaces the base's relation. Untouched relations keep their
    /// existing `Arc`; predicates new in `store` enter with one segment.
    ///
    /// Returns the number of relations that gained rows; when that is
    /// non-zero the [`StoreBase::stamp`] is bumped.
    pub fn promote(&mut self, store: FactStore) -> usize {
        self.holds_nulls |= store.holds_nulls;
        let mut promoted = 0;
        for (p, mut rel) in store.relations {
            if rel.overlay_row_count() == 0 {
                continue;
            }
            // Drop the base's handle first, so the merges unwrap segments
            // and runs no other handle shares instead of copying them.
            self.relations.remove(&p);
            self.merges += rel.seal();
            promoted += 1;
            self.relations.insert(p, Arc::new(rel));
        }
        if promoted > 0 {
            self.stamp += 1;
        }
        promoted
    }

    /// Monotonic stamp: bumped every time [`StoreBase::promote`] adds rows.
    /// Cached artefacts keyed to a stamp (per-plan ensure-index passes,
    /// materialised instances) are invalid once it moves.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Force the stamp forward without promoting anything — the
    /// memo-invalidation hammer of the session's poison-heal policy: after
    /// a panic that may have interrupted a promotion mid-flight, everything
    /// keyed to the old stamp (ensure-index memos, cone entries, live
    /// materialised instances) must go stale at once rather than silently
    /// reuse half-promoted state.
    pub fn bump_stamp(&mut self) {
        self.stamp += 1;
    }

    /// Segment merges made so far, by the freeze and every promotion.
    pub fn segment_merges(&self) -> usize {
        self.merges
    }

    /// The most segments any relation holds; 1 on an empty base.
    pub fn max_segments(&self) -> usize {
        self.relations
            .values()
            .map(|r| r.segment_count())
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

    /// The statistics of the index over `cols`, if materialised.
    fn summed_stats(rel: &Relation, cols: &[usize]) -> Option<IndexStats> {
        let mut stats = rel.index_stats().into_iter();
        stats.find(|(c, _)| **c == *cols).map(|(_, s)| s)
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

    /// A vacancy is found once and filled where its probe ended, also when
    /// the fill grows the dedup table; a row a segment holds has none.
    #[test]
    fn a_vacancy_is_filled_where_the_probe_ended() {
        let held = own("a", "b", 0.6).intern_args();
        let mut base = Relation::new();
        base.insert_row(&held);
        let mut rel = Relation::with_base(Arc::new(base));
        assert_eq!(rel.vacancy(&held), None, "the base holds it");
        for i in 1..=100u32 {
            let row = own(&format!("v{i}"), "b", 0.6).intern_args();
            let vacancy = rel.vacancy(&row).expect("a new row");
            assert_eq!(vacancy.id(), FactId(i));
            assert_eq!(rel.fill(vacancy, &row), FactId(i));
            assert_eq!(rel.vacancy(&row), None);
            assert_eq!(rel.find_row(&row), Some(FactId(i)));
        }
        assert_eq!(rel.len(), 101);
    }

    #[test]
    #[should_panic(expected = "a vacancy is filled before any other insert")]
    fn a_stale_vacancy_is_refused() {
        let mut rel = Relation::new();
        let (a, b) = (
            own("a", "b", 0.6).intern_args(),
            own("c", "d", 0.5).intern_args(),
        );
        let vacancy = rel.vacancy(&a).expect("empty relation");
        rel.insert_row(&b);
        rel.fill(vacancy, &a);
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

    /// `heap_bytes().indexes` is, per run, `k` `u32` ranks and one `FactId`
    /// per entry and `k` dictionaries of the column's distinct pairs (plus
    /// the run headers): on `n`
    /// rows with `d` distinct values per column, after a one-sort build and
    /// again after a flushed tail merged into it.
    #[test]
    fn index_bytes_are_ranks_facts_and_dictionaries() {
        let d = 50;
        let ids: Vec<ValueId> = (0..d as i64)
            .map(|i| Value::Int(7_000 + i).interned())
            .collect();
        // Row i is (i mod d, (i / d + i) mod d): every column takes all d
        // values and, for i < d², every row is a distinct composite key.
        let row = |i: usize| [ids[i % d], ids[(i / d + i) % d]];
        let mut rel = Relation::new();
        let dicts = |k: usize| k * size_of::<Box<[Pair]>>() + k * d * size_of::<Pair>();
        let expected = |rel: &Relation, n: usize| {
            let headers: usize = rel
                .indices
                .iter()
                .map(|ix| {
                    ix.runs.capacity() * size_of::<Arc<SortedRun>>()
                        + ix.runs.len() * size_of::<SortedRun>()
                })
                .sum();
            let composite = n * 2 * 4 + n * 4 + dicts(2);
            let single = n * 4 + n * 4 + dicts(1);
            headers + composite + single
        };
        for i in 0..1200 {
            rel.insert_row(&row(i));
        }
        rel.ensure_index(&[0, 1]);
        rel.ensure_index(&[1]);
        assert_eq!(rel.heap_bytes().own.indexes, expected(&rel, 1200));
        for i in 1200..2400 {
            rel.insert_row(&row(i));
        }
        rel.flush_indexes();
        assert!(
            rel.indices.iter().all(|ix| ix.runs.len() == 1),
            "runs merged"
        );
        assert_eq!(rel.heap_bytes().own.indexes, expected(&rel, 2400));
    }

    /// An overlay's index run counts as base bytes while it holds a
    /// segment's row, and as own bytes when it holds only overlay rows.
    #[test]
    fn overlay_runs_of_own_rows_count_as_own_bytes() {
        let ids: Vec<ValueId> = (0..64).map(|i| Value::Int(8_000 + i).interned()).collect();
        let mut rel = Relation::new();
        for id in &ids[..32] {
            rel.insert_row(&[*id]);
        }
        rel.ensure_index(&[0]);
        let mut overlay = Relation::with_base(Arc::new(rel));
        let before = overlay.heap_bytes();
        assert_eq!(before.own.indexes, 0);
        assert!(before.base.indexes > 0);
        for id in &ids[32..36] {
            overlay.insert_row(&[*id]);
        }
        overlay.flush_indexes();
        let runs = &overlay.indices[0].runs;
        assert_eq!(runs.len(), 2, "4 rows do not merge into 32");
        let run = &runs[1];
        let own_run = size_of::<SortedRun>()
            + run.ranks.capacity() * size_of::<u32>()
            + run.facts.capacity() * size_of::<FactId>()
            + size_of::<Box<[Pair]>>()
            + run.dicts[0].len() * size_of::<Pair>();
        assert_eq!(overlay.heap_bytes().own.indexes, own_run);
        for id in &ids[36..] {
            overlay.insert_row(&[*id]);
        }
        overlay.flush_indexes();
        assert_eq!(overlay.indices[0].runs.len(), 1, "the runs merged");
        assert_eq!(overlay.heap_bytes().own.indexes, 0);
    }

    #[test]
    fn gallop_finds_what_lower_bound_finds() {
        for hi in 0..40 {
            for split in 0..=hi {
                for lo in 0..=hi {
                    let less = |i: usize| i < split;
                    assert_eq!(gallop(lo, hi, less), lower_bound(lo, hi, less));
                }
            }
        }
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

    /// An overlay's copy of a base index sees the overlay rows through its
    /// tail, and a column list the base never indexed is built once over
    /// every row and counted.
    #[test]
    fn overlay_indexes_cover_every_row_and_full_builds_are_counted() {
        let mut base = Relation::new();
        base.ensure_index(&[1]);
        base.insert(own("a", "b", 0.1));
        base.insert(own("c", "b", 0.2));
        let base = Arc::new(base);

        let mut overlay = Relation::with_base(Arc::clone(&base));
        overlay.insert(own("d", "b", 0.3));
        // the base's index over [1]: its run plus the overlay's tail
        let mut scratch = Vec::new();
        let probe = overlay
            .probe_if_indexed(&[1], &[Value::str("b").interned()], None, &mut scratch)
            .unwrap();
        assert_eq!(probe.as_slice(&scratch), &[FactId(0), FactId(1), FactId(2)]);
        // a column list the base never indexed: miss first, then one full
        // build over the base rows and the overlay's
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

    /// A relation grown by repeated `promote` must be observationally
    /// identical to a plain relation with the same insertion history: same
    /// `FactId`s, probe results, dedup decisions and trie-cursor leaves.
    #[test]
    fn promoted_segments_behave_like_a_plain_relation() {
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

        // Segmented: first batch frozen, every later batch promoted.
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
        // 8 + 8 merge into 16, + 8 into 24; the last 8 stays apart
        // (24 > 2 * 8).
        assert_eq!(base.max_segments(), 2);
        assert_eq!(base.segment_merges(), 2);

        let layered = base.relation(intern("Own")).unwrap();
        assert_eq!(layered.len(), plain.len());
        assert_eq!(layered.segment_count(), 2);
        for i in 0..plain.len() {
            assert_eq!(layered.row(FactId(i as u32)), plain.row(FactId(i as u32)));
        }
        let rows_plain: Vec<_> = plain.iter_rows().collect();
        let rows_layered: Vec<_> = layered.iter_rows().collect();
        assert_eq!(rows_plain, rows_layered);
        // dedup spans every segment
        let mut probe_overlay = base.overlay();
        let rel = probe_overlay.relation_mut(intern("Own"));
        for batch in &batches {
            assert!(!rel.insert(batch[0].clone()), "segment dedup must hold");
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
                assert_eq!(a, b, "segmented probe diverges on {cols:?} {c}");
            }
        }
        // promotion flushed every tail: the trie walk runs on sorted runs
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

    /// `promote` leaves untouched relations alone (no new segment, no
    /// stamp churn), keeps every index of the promoted relation covering
    /// all its rows, and merges the segments and runs it can.
    #[test]
    fn promote_seals_rows_and_keeps_indexes_whole() {
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
        // one row each: the segments merge (1 <= 2 * 1), and so do the runs
        assert_eq!((e.segment_count(), e.base_row_count()), (1, 2));
        assert_eq!(f.segment_count(), 1, "untouched relations keep theirs");
        assert_eq!(base.segment_merges(), 1);
        assert_eq!(e.index_run_stats(&[0]), Some(vec![(2, 2)]));
        assert!(e.trie_cursor(&[0]).is_some());
        assert_eq!(e.index_run_stats(&[1]), None);
        // new predicates enter with one segment
        let mut overlay = base.overlay();
        overlay.insert(Fact::new("G", vec![Value::str("g")]));
        assert_eq!(base.promote(overlay), 1);
        assert_eq!(base.relation(intern("G")).unwrap().segment_count(), 1);
    }

    /// Segments stay within the size-tiered bound whatever the batch sizes,
    /// and each append's merges keep every `FactId`.
    #[test]
    fn segments_stay_logarithmic_in_the_rows() {
        let mut store = FactStore::new();
        store.insert(Fact::new("E", vec![Value::Int(0)]));
        let mut base = store.freeze();
        let mut next = 1i64;
        for batch in (1..60).map(|i| 1 + i % 7) {
            let mut overlay = base.overlay();
            for _ in 0..batch {
                overlay.insert(Fact::new("E", vec![Value::Int(next)]));
                next += 1;
            }
            base.promote(overlay);
            let e = base.relation(intern("E")).unwrap();
            assert!(e.segment_count() <= e.len().ilog2() as usize + 1);
            for i in 0..e.len() {
                assert_eq!(
                    resolve_value(e.row(FactId(i as u32))[0]),
                    Value::Int(i as i64)
                );
            }
        }
        assert!(base.segment_merges() > 0);
    }

    /// The labelled-null bit is set by Fact-level inserts only and survives
    /// freeze, overlay and promote.
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
    }
}
