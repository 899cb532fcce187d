//! On-demand hash-directory tries for atoms without a matching composite
//! sorted run.
//!
//! The leapfrog path (see [`crate::wcoj`]) walks [`TrieCursor`]s over a
//! relation's sorted-run index for the trie's column order. When no such
//! index exists — typically a layered copy-on-write relation whose shared
//! base never materialised the column list — building one via
//! [`Relation::ensure_index`] means a *base-covering* rebuild over every
//! layer's rows (counted in `Relation::full_index_builds`), and the result
//! is welded into the overlay, invisible to sibling forks of the same base.
//!
//! A [`HashTrie`] is the cheap alternative: one ephemeral `SortedRun`
//! built straight from [`Relation::iter_rows`] (projected on the trie's
//! columns, `FactId` = insertion position), whose directory doubles as the
//! hash-probe face — the same `(OrderKey, ValueId)`-sorted, `FactId`
//! tie-broken layout every index run uses. [`HashTrie::cursor`] therefore
//! hands out a standard [`TrieCursor`] with the **identical cursor
//! contract**: values enumerate in ascending pair order, leaf facts come
//! back `FactId`-ascending, and `open`/`seek`/`descend` behave exactly as
//! over an index's runs. The leapfrog output — and every counter — is
//! bit-identical whichever backend serves a trie, because both enumerate
//! the same key sets in the same order.
//!
//! Builds are deterministic (they run on the engine's sequential prepare
//! path) and cached two ways: per-pipeline by `(predicate, columns, row
//! count)`, and across the queries of a session fork family via
//! [`HashTrieCache`], keyed additionally by the session base's promotion
//! *stamp* so layer promotions and appends invalidate precisely — the
//! stamp-keyed sibling of the session's ensure-index memo.

use crate::store::{FactId, Relation, SortedRun, TrieCursor};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use vadalog_model::prelude::*;

/// A per-(relation, column-order) trie built on demand from rows — the
/// backend a leapfrog trie falls back to when the relation has no matching
/// composite sorted run. See the [module docs](self) for the contract.
#[derive(Clone, Debug)]
pub struct HashTrie {
    cols: Box<[usize]>,
    /// Relation row count at build time; a cached trie is only valid for a
    /// relation of exactly this length (rows are append-only, so equal
    /// length over the same frozen base implies equal contents).
    rows: usize,
    run: SortedRun,
}

impl HashTrie {
    /// Project `relation` on `cols` into one sorted run. Rows too narrow
    /// for the column list are skipped — they can never match a probe of
    /// this width, exactly as [`Relation::ensure_index`] skips them.
    pub fn build(relation: &Relation, cols: &[usize]) -> HashTrie {
        HashTrie {
            cols: cols.into(),
            rows: relation.len(),
            run: SortedRun::from_rows(
                cols,
                relation
                    .iter_rows()
                    .enumerate()
                    .map(|(i, row)| (FactId(i as u32), row)),
            ),
        }
    }

    /// The column order this trie was built for.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The relation row count at build time (the cache-validity check).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A [`TrieCursor`] over the trie's single run — same contract as
    /// [`Relation::trie_cursor`], so the leapfrog driver cannot tell the
    /// backends apart.
    pub fn cursor(&self) -> TrieCursor<'_> {
        TrieCursor::new(self.cols.len(), vec![&self.run])
    }
}

/// A session-shared cache of [`HashTrie`] builds, keyed by
/// `(predicate, columns, base stamp)`. A session core holds one behind an
/// `Arc` and hands it to every pipeline it builds, so forked sessions over
/// the same frozen base reuse each other's builds; a base promotion (layer
/// append) bumps the stamp, and [`HashTrieCache::retain_stamp`] drops the
/// stale generation. Only tries over **pure base views** (relations with
/// zero overlay rows) are cached here — an overlay's own rows differ per
/// fork, so those tries stay in the pipeline-local cache.
#[derive(Debug, Default)]
pub struct HashTrieCache {
    inner: Mutex<HashMap<HashTrieKey, Arc<HashTrie>>>,
}

/// Cache key: `(predicate, columns, base stamp)`.
type HashTrieKey = (Sym, Box<[usize]>, u64);

impl HashTrieCache {
    /// An empty cache.
    pub fn new() -> HashTrieCache {
        HashTrieCache::default()
    }

    /// Look up the trie for `(predicate, cols)` under `stamp`.
    pub fn get(&self, predicate: Sym, cols: &[usize], stamp: u64) -> Option<Arc<HashTrie>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.get(&(predicate, cols.into(), stamp)).cloned()
    }

    /// Cache a built trie under `stamp`.
    pub fn insert(&self, predicate: Sym, cols: &[usize], stamp: u64, trie: Arc<HashTrie>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.insert((predicate, cols.into(), stamp), trie);
    }

    /// Drop every entry built for a stamp other than `stamp` — the precise
    /// invalidation a base promotion performs.
    pub fn retain_stamp(&self, stamp: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.retain(|(_, _, s), _| *s == stamp);
    }

    /// Number of cached tries (all stamps).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FactStore;

    fn edge(a: i64, b: i64) -> Fact {
        Fact::new("E", vec![a.into(), b.into()])
    }

    /// Walk every tuple below `prefix`, descending to leaf depth, and
    /// report `(value path, leaf facts)` — the canonical contract probe.
    fn walk(cur: &mut TrieCursor<'_>, prefix: &[ValueId]) -> Vec<(Vec<Value>, Vec<FactId>)> {
        let mut out = Vec::new();
        if !cur.open(prefix) {
            return out;
        }
        let levels = cur.arity() - prefix.len();
        walk_level(cur, levels, &mut Vec::new(), &mut out);
        out
    }

    fn walk_level(
        cur: &mut TrieCursor<'_>,
        levels: usize,
        path: &mut Vec<Value>,
        out: &mut Vec<(Vec<Value>, Vec<FactId>)>,
    ) {
        while let Some(pair) = cur.key() {
            cur.descend(pair);
            path.push(resolve_value(pair.1));
            if levels == 1 {
                let mut facts = Vec::new();
                cur.leaf_facts(&mut facts);
                out.push((path.clone(), facts));
            } else {
                walk_level(cur, levels - 1, path, out);
            }
            path.pop();
            cur.up();
            cur.seek_past(pair);
        }
    }

    #[test]
    fn hashtrie_matches_the_indexed_cursor_contract() {
        let mut rel = Relation::new();
        for (a, b) in [(3, 1), (1, 2), (1, 5), (2, 3), (0, 9)] {
            rel.insert(edge(a, b));
        }
        rel.ensure_index(&[0, 1]);
        let ht = HashTrie::build(&rel, &[0, 1]);
        assert_eq!(ht.rows(), 5);
        assert_eq!(ht.cols(), &[0, 1]);
        // Same enumeration under the root and under a prefix.
        let mut indexed = rel.trie_cursor(&[0, 1]).unwrap();
        let mut hashed = ht.cursor();
        assert_eq!(walk(&mut indexed, &[]), walk(&mut hashed, &[]));
        let one = Value::Int(1).interned();
        assert_eq!(walk(&mut indexed, &[one]), walk(&mut hashed, &[one]));
        let missing = Value::Int(7).interned();
        assert!(!ht.cursor().open(&[missing]));
    }

    #[test]
    fn hashtrie_covers_layered_relations_without_a_base_index() {
        // Base indexed only on [0]; a trie over [1, 0] has no composite run
        // anywhere in the chain, so the overlay cannot hand out a cursor —
        // the exact situation the hash trie exists for.
        let mut store = FactStore::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3)] {
            store.insert(edge(a, b));
        }
        store.relation_mut(intern("E")).ensure_index(&[0]);
        let base = store.freeze();
        let mut overlay = base.overlay();
        overlay.insert(edge(3, 3));
        let rel = overlay.relation_mut(intern("E"));
        assert!(rel.trie_cursor(&[1, 0]).is_none());
        let ht = HashTrie::build(rel, &[1, 0]);
        let got = walk(&mut ht.cursor(), &[Value::Int(3).interned()]);
        // Rows with second column 3: (2,3) id 1, (1,3) id 2, (3,3) id 3 —
        // first-column values ascending, leaf facts FactId-ascending.
        assert_eq!(
            got,
            vec![
                (vec![Value::Int(1)], vec![FactId(2)]),
                (vec![Value::Int(2)], vec![FactId(1)]),
                (vec![Value::Int(3)], vec![FactId(3)]),
            ]
        );
    }

    #[test]
    fn hashtrie_skips_rows_too_narrow_for_the_column_list() {
        let mut rel = Relation::new();
        rel.insert(Fact::new("P", vec![1i64.into()]));
        rel.insert(Fact::new("P", vec![2i64.into(), 9i64.into()]));
        let ht = HashTrie::build(&rel, &[0, 1]);
        let all = walk(&mut ht.cursor(), &[]);
        assert_eq!(
            all,
            vec![(vec![Value::Int(2), Value::Int(9)], vec![FactId(1)])]
        );
    }

    #[test]
    fn cache_is_stamp_keyed_and_prunes_stale_generations() {
        let mut rel = Relation::new();
        rel.insert(edge(1, 2));
        let cache = HashTrieCache::new();
        let pred = intern("E");
        let trie = Arc::new(HashTrie::build(&rel, &[0, 1]));
        cache.insert(pred, &[0, 1], 7, trie.clone());
        assert!(cache.get(pred, &[0, 1], 7).is_some());
        assert!(cache.get(pred, &[0, 1], 8).is_none());
        assert!(cache.get(pred, &[1, 0], 7).is_none());
        cache.insert(pred, &[1, 0], 8, trie);
        assert_eq!(cache.len(), 2);
        cache.retain_stamp(8);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(pred, &[0, 1], 7).is_none());
        assert!(cache.get(pred, &[1, 0], 8).is_some());
    }
}
