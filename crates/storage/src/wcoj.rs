//! The worst-case-optimal (leapfrog-triejoin) intersection driver over
//! [`TrieCursor`]s.
//!
//! Binary joins materialise every intermediate: a triangle query
//! `Edge(x,y), Edge(y,z), Edge(x,z)` first enumerates all 2-paths — which
//! can be quadratically larger than the triangle count. The generic-join
//! family instead picks a **global variable order** and, per variable,
//! intersects the candidate values of *every* atom containing it before
//! binding; the run time is then bounded by the fractional-edge-cover
//! (AGM) bound of the query, i.e. by the worst-case output size.
//!
//! This module holds only the algorithm: [`leapfrog_join`] drives one
//! [`TrieCursor`] per atom through the per-variable intersection, calling
//! back into the owner for guard checks and leaf emission. Planning (which
//! atoms form the cyclic core, the variable order, the per-atom column
//! orders) lives in `vadalog-engine`, whose intersect stage is the one
//! caller: it seeds the cursors via [`TrieCursor::open`] with the columns
//! the delta row and the prefix-ear probes already bind.
//!
//! Determinism: values are enumerated in ascending `(OrderKey, ValueId)`
//! order — a pure function of the store contents — and leaf facts come back
//! `FactId`-ascending, so the driver's output order is identical on every
//! thread and at every chunk size.
//!
//! [`TrieCursor`]: crate::store::TrieCursor
//! [`TrieCursor::open`]: crate::store::TrieCursor::open

use crate::store::TrieCursor;
use vadalog_model::prelude::*;

/// One variable level of a leapfrog join: the binding slot the variable
/// writes and the cursors (atom positions) whose tries contain it.
#[derive(Clone, Debug)]
pub struct WcojLevel {
    /// Index into the rule's binding array.
    pub slot: usize,
    /// Indices into the cursor slice — every atom the variable occurs in.
    pub cursors: Vec<usize>,
}

/// Work counters of a leapfrog run: `seeks` counts cursor repositionings
/// (the leapfrogging itself), `intersections` counts values found in the
/// intersection of all participating tries (i.e. successful level
/// bindings). Both are pure functions of the store contents, so they merge
/// deterministically across parallel chunks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WcojCounters {
    /// Cursor seek operations performed while leapfrogging.
    pub seeks: u64,
    /// Values that survived a full per-variable intersection.
    pub intersections: u64,
}

impl WcojCounters {
    /// Fold another run's counters into this one.
    pub fn merge(&mut self, other: &WcojCounters) {
        self.seeks += other.seeks;
        self.intersections += other.intersections;
    }
}

/// Leaf callback of [`leapfrog_join`]: invoked with the full binding and
/// the cursors positioned at their leaves (read support facts via
/// [`TrieCursor::leaf_facts`](crate::store::TrieCursor::leaf_facts)).
pub type LeafEmit<'a, 'r> = dyn FnMut(&[Option<ValueId>], &[TrieCursor<'r>]) + 'a;

/// Run one leapfrog-triejoin over opened cursors.
///
/// `cursors` must each have been [`open`](TrieCursor::open)ed on their bound
/// prefix (and every open must have returned `true` — an empty prefix span
/// means zero matches, the caller skips the join). `levels` lists the free
/// variables in the global order; each level's variable is intersected
/// across its cursors, bound into `binding`, checked by
/// `level_ok(level_index, binding)` (pushed-condition guards — a `false`
/// prunes the subtree), and on reaching the last level `emit` is called
/// with the full binding and the cursors positioned at their leaves.
/// `binding` slots written by the driver are restored to `None` on return.
pub fn leapfrog_join<'r>(
    cursors: &mut [TrieCursor<'r>],
    levels: &[WcojLevel],
    binding: &mut [Option<ValueId>],
    counters: &mut WcojCounters,
    level_ok: &mut dyn FnMut(usize, &[Option<ValueId>]) -> bool,
    emit: &mut LeafEmit<'_, 'r>,
) {
    lf_level(cursors, levels, 0, binding, counters, level_ok, emit);
}

#[allow(clippy::too_many_arguments)]
fn lf_level<'r>(
    cursors: &mut [TrieCursor<'r>],
    levels: &[WcojLevel],
    li: usize,
    binding: &mut [Option<ValueId>],
    counters: &mut WcojCounters,
    level_ok: &mut dyn FnMut(usize, &[Option<ValueId>]) -> bool,
    emit: &mut LeafEmit<'_, 'r>,
) {
    let Some(level) = levels.get(li) else {
        emit(binding, cursors);
        return;
    };
    debug_assert!(
        !level.cursors.is_empty(),
        "every level variable occurs in some atom"
    );
    // Find the next value present in every participating trie: take the
    // current maximum as the target and seek the laggards up to it; any
    // overshoot raises the target, any exhausted cursor ends the level.
    'outer: while let Some(first) = cursors[level.cursors[0]].key() {
        let mut target = first;
        let mut stable = false;
        while !stable {
            stable = true;
            for &c in &level.cursors {
                match cursors[c].key() {
                    Some(pair) if pair == target => {}
                    Some(pair) if pair > target => {
                        target = pair;
                        stable = false;
                    }
                    Some(_) => {
                        counters.seeks += 1;
                        cursors[c].seek(target);
                        match cursors[c].key() {
                            Some(pair) if pair == target => {}
                            Some(pair) => {
                                target = pair;
                                stable = false;
                            }
                            None => break 'outer,
                        }
                    }
                    None => break 'outer,
                }
            }
        }
        counters.intersections += 1;
        binding[level.slot] = Some(target.1);
        if level_ok(li, binding) {
            for &c in &level.cursors {
                cursors[c].descend(target);
            }
            lf_level(cursors, levels, li + 1, binding, counters, level_ok, emit);
            for &c in &level.cursors {
                cursors[c].up();
            }
        }
        binding[level.slot] = None;
        for &c in &level.cursors {
            counters.seeks += 1;
            cursors[c].seek_past(target);
        }
    }
    binding[level.slot] = None;
    // Every cursor enters a level at the start of its current span (open
    // and descend both leave `pos = lo`); restore that invariant so the
    // enclosing level's next value re-enumerates this column from scratch.
    for &c in &level.cursors {
        cursors[c].rewind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FactId, Relation};

    fn edge(a: i64, b: i64) -> Fact {
        Fact::new("E", vec![a.into(), b.into()])
    }

    fn triangle_levels() -> Vec<WcojLevel> {
        // Variable order x, y, z over Edge(x,y), Edge(y,z), Edge(x,z):
        // cursor 0 has cols (x, y), cursor 1 (y, z), cursor 2 (x, z).
        vec![
            WcojLevel {
                slot: 0,
                cursors: vec![0, 2],
            },
            WcojLevel {
                slot: 1,
                cursors: vec![0, 1],
            },
            WcojLevel {
                slot: 2,
                cursors: vec![1, 2],
            },
        ]
    }

    fn run_triangles(rel: &Relation) -> Vec<(i64, i64, i64)> {
        let mut cursors = vec![
            rel.trie_cursor(&[0, 1]).unwrap(),
            rel.trie_cursor(&[0, 1]).unwrap(),
            rel.trie_cursor(&[0, 1]).unwrap(),
        ];
        for c in &mut cursors {
            assert!(c.open(&[]));
        }
        let levels = triangle_levels();
        let mut binding = vec![None; 3];
        let mut counters = WcojCounters::default();
        let mut out = Vec::new();
        leapfrog_join(
            &mut cursors,
            &levels,
            &mut binding,
            &mut counters,
            &mut |_, _| true,
            &mut |b, cs| {
                let mut facts = Vec::new();
                cs[0].leaf_facts(&mut facts);
                assert_eq!(facts.len(), 1, "set semantics: one leaf fact");
                let val = |s: Option<ValueId>| match resolve_value(s.unwrap()) {
                    Value::Int(i) => i,
                    v => panic!("unexpected {v:?}"),
                };
                out.push((val(b[0]), val(b[1]), val(b[2])));
            },
        );
        assert!(counters.intersections > 0);
        out
    }

    #[test]
    fn leapfrog_finds_exactly_the_triangles() {
        let mut rel = Relation::new();
        // Two triangles (1,2,3) and (2,3,4) plus noise edges.
        for (a, b) in [
            (1, 2),
            (2, 3),
            (1, 3),
            (3, 4),
            (2, 4),
            (5, 6),
            (6, 7),
            (1, 7),
        ] {
            rel.insert(edge(a, b));
        }
        rel.ensure_index(&[0, 1]);
        assert_eq!(run_triangles(&rel), vec![(1, 2, 3), (2, 3, 4)]);
    }

    #[test]
    fn leapfrog_respects_level_guards() {
        let mut rel = Relation::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)] {
            rel.insert(edge(a, b));
        }
        rel.ensure_index(&[0, 1]);
        let mut cursors = vec![
            rel.trie_cursor(&[0, 1]).unwrap(),
            rel.trie_cursor(&[0, 1]).unwrap(),
            rel.trie_cursor(&[0, 1]).unwrap(),
        ];
        for c in &mut cursors {
            assert!(c.open(&[]));
        }
        let levels = triangle_levels();
        let mut binding = vec![None; 3];
        let mut counters = WcojCounters::default();
        let two = Value::Int(2).interned();
        let mut hits = 0usize;
        leapfrog_join(
            &mut cursors,
            &levels,
            &mut binding,
            &mut counters,
            // Prune every subtree where x != 2 at level 0.
            &mut |li, b| li != 0 || b[0] == Some(two),
            &mut |_, _| hits += 1,
        );
        assert_eq!(hits, 1, "only (2,3,4) survives the x = 2 guard");
        assert!(binding.iter().all(Option::is_none), "driver restores slots");
    }

    #[test]
    fn trie_cursor_composes_runs_and_requires_flushed_tails() {
        let mut rel = Relation::new();
        for (a, b) in [(1, 2), (3, 4)] {
            rel.insert(edge(a, b));
        }
        rel.ensure_index(&[0, 1]);
        // Force a second run so the cursor must compose several.
        for (a, b) in [(1, 5), (0, 9)] {
            rel.insert(edge(a, b));
        }
        assert!(rel.trie_cursor(&[0, 1]).is_none(), "unflushed tail");
        rel.flush_indexes();
        let mut cur = rel.trie_cursor(&[0, 1]).unwrap();
        assert!(cur.open(&[Value::Int(1).interned()]));
        // Children of x = 1 across both runs, in ascending value order.
        let mut seen = Vec::new();
        while let Some(pair) = cur.key() {
            cur.descend(pair);
            let mut facts = Vec::new();
            cur.leaf_facts(&mut facts);
            seen.push((resolve_value(pair.1), facts));
            cur.up();
            cur.seek_past(pair);
        }
        assert_eq!(
            seen,
            vec![
                (Value::Int(2), vec![FactId(0)]),
                (Value::Int(5), vec![FactId(2)]),
            ]
        );
        assert!(!cur.open(&[Value::Int(7).interned()]), "empty prefix span");
        assert!(rel.trie_cursor(&[1, 0]).is_none(), "missing index");
    }

    #[test]
    fn trie_cursor_composes_base_and_overlay_fact_id_ascending() {
        use crate::store::FactStore;
        let mut store = FactStore::new();
        for (a, b) in [(1, 2), (2, 3)] {
            store.insert(edge(a, b));
        }
        store.relation_mut(intern("E")).ensure_index(&[0, 1]);
        let base = store.freeze();
        let mut overlay = base.overlay();
        overlay.insert(edge(1, 3));
        let rel = overlay.relation_mut(intern("E"));
        assert!(
            rel.trie_cursor(&[0, 1]).is_none(),
            "unindexed overlay rows are invisible to a trie walk"
        );
        rel.ensure_index(&[0, 1]);
        let mut cur = rel.trie_cursor(&[0, 1]).unwrap();
        assert!(cur.open(&[Value::Int(1).interned()]));
        let mut pairs = Vec::new();
        while let Some(pair) = cur.key() {
            cur.descend(pair);
            let mut facts = Vec::new();
            cur.leaf_facts(&mut facts);
            pairs.push((resolve_value(pair.1), facts));
            cur.up();
            cur.seek_past(pair);
        }
        assert_eq!(
            pairs,
            vec![
                (Value::Int(2), vec![FactId(0)]),
                (Value::Int(3), vec![FactId(2)]),
            ]
        );
    }
}
