//! Termination strategies (Section 3.4, Algorithm 1) and the guide
//! structures they maintain: the warded forest (ground structure `G`) and the
//! lifted linear forest (summary structure `S`).
//!
//! The store decides exact duplicates; a strategy decides only on rows the
//! store does not hold yet ([`offer_row`], which hashes and probes each
//! offered row once). It names every fact by the store's identity, a
//! predicate and a [`FactId`] ([`FactRef`]), and reads rows from the
//! [`FactStore`] it is passed, so it keeps no copy of them. A candidate is
//! offered with the `FactId` it will get, and its parents by theirs.
//! Isomorphism is decided on rows: a `ValueId` says whether it is a labelled
//! null, so no value is resolved and the interner is never asked.
//! [`WardedStrategy`] compares the candidate's row with each tree member's
//! stored row ([`rows_isomorphic`]), allocating nothing, and keeps only
//! Algorithm 1's metadata: a record of three ids per fact that needs one,
//! the members of each warded tree, and the pattern forms
//! ([`row_pattern_key`]) of linear-forest roots and stop provenances.

use std::mem::size_of;
use vadalog_analysis::RuleKind;
use vadalog_model::iso::{
    row_iso_key, row_pattern_key, rows_isomorphic, PatternKey, PatternTerm, RowCanonTerm, RowIsoKey,
};
use vadalog_model::prelude::*;
use vadalog_storage::{table_bytes, FactId, FactStore, Relation};

/// A stored fact, named by the store: its predicate and its [`FactId`] in
/// that predicate's relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FactRef {
    /// The fact's predicate.
    pub predicate: Sym,
    /// The fact's id in the predicate's relation.
    pub id: FactId,
}

impl FactRef {
    /// The stored fact with this row, if `store` holds it.
    pub fn find(store: &FactStore, predicate: Sym, row: &[ValueId]) -> Option<FactRef> {
        let id = store.relation(predicate)?.find_row(row)?;
        Some(FactRef { predicate, id })
    }

    /// The fact's row in `store`.
    ///
    /// # Panics
    /// Panics if `store` does not hold the fact.
    fn row(self, store: &FactStore) -> &[ValueId] {
        store
            .relation(self.predicate)
            .expect("a named fact is stored")
            .row(self.id)
    }
}

/// A candidate fact offered to a termination strategy: a row its relation
/// does not hold yet, with the [`FactId`] it gets if admitted.
#[derive(Clone, Copy)]
pub struct Candidate<'a> {
    fact: FactRef,
    row: &'a [ValueId],
}

impl<'a> Candidate<'a> {
    /// The candidate `row` of `predicate`, to be stored as `id`.
    pub fn new(predicate: Sym, id: FactId, row: &'a [ValueId]) -> Candidate<'a> {
        Candidate {
            fact: FactRef { predicate, id },
            row,
        }
    }

    /// The fact the candidate becomes if admitted.
    pub fn fact(&self) -> FactRef {
        self.fact
    }

    /// The candidate's predicate.
    pub fn predicate(&self) -> Sym {
        self.fact.predicate
    }

    /// The candidate's interned row.
    pub fn row(&self) -> &[ValueId] {
        self.row
    }
}

/// The chase step a candidate comes from: the rule, its kind, and the
/// stored body facts the strategy attaches the candidate to. For a linear
/// rule that is its single body fact, for a warded rule the fact bound to
/// the ward.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// The rule's id in the program's wardedness analysis.
    pub rule_id: u32,
    /// The rule's kind.
    pub kind: RuleKind,
    /// The linear parent (linear rules only).
    pub linear_parent: Option<FactRef>,
    /// The ward parent (warded rules only).
    pub ward_parent: Option<FactRef>,
}

/// What became of a derived row offered to the store ([`offer_row`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Offer {
    /// The relation already held the row.
    Duplicate,
    /// The termination strategy rejected the row.
    Suppressed,
    /// The row was inserted.
    Admitted,
}

/// Offer one derived row to the store. A row its relation already holds is
/// a duplicate. Otherwise `strategy`, when there is one, decides, and an
/// admitted row is inserted at once, as the `FactId` it was offered with.
/// Without a strategy (a run that can hold no labelled null) the store's
/// dedup is the whole decision. Either way the row is hashed and probed
/// once: the strategy reads the store only through `&FactStore`, so the
/// [`Relation::vacancy`] taken before it decides is still valid after.
pub fn offer_row(
    store: &mut FactStore,
    strategy: Option<&mut dyn TerminationStrategy>,
    predicate: Sym,
    row: &[ValueId],
    step: &Step,
) -> Offer {
    let Some(strategy) = strategy else {
        return match store.relation_mut(predicate).insert_row(row) {
            Some(_) => Offer::Admitted,
            None => Offer::Duplicate,
        };
    };
    let vacancy = match store.relation(predicate) {
        Some(rel) => rel.vacancy(row),
        None => Relation::new().vacancy(row),
    };
    let Some(vacancy) = vacancy else {
        return Offer::Duplicate;
    };
    if !strategy.admit(store, &Candidate::new(predicate, vacancy.id(), row), step) {
        return Offer::Suppressed;
    }
    store.relation_mut(predicate).fill(vacancy, row);
    Offer::Admitted
}

/// Statistics collected by a termination strategy.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StrategyStats {
    /// Facts admitted (chase steps allowed to fire).
    pub admitted: u64,
    /// Facts suppressed because they were exact duplicates. The store
    /// decides these before any strategy is asked, so the producer counts
    /// them ([`Offer::Duplicate`]).
    pub duplicates: u64,
    /// Facts suppressed by the termination logic (isomorphism / stop
    /// provenance / redundant tree).
    pub suppressed: u64,
    /// Isomorphism checks actually performed.
    pub isomorphism_checks: u64,
    /// Chase steps skipped without any isomorphism check thanks to a learnt
    /// stop provenance (vertical + horizontal pruning).
    pub pruned_by_provenance: u64,
    /// Stop provenances currently stored in the summary structure.
    pub stop_provenances: u64,
}

/// A termination strategy's heap bytes by the structure holding them,
/// counted by capacity (hash tables estimated with [`table_bytes`]). The
/// parts sum to [`StrategyHeap::total`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StrategyHeap {
    /// Fact records: the warded strategy's per-fact metadata table.
    pub facts: u64,
    /// Forest members: the warded forest's tree member lists and detached
    /// roots.
    pub forest: u64,
    /// The provenance trie.
    pub provenance: u64,
    /// Pattern forms: the cached patterns of linear-forest roots and the
    /// summary structure (the trivial strategy's key set and read cursors).
    pub patterns: u64,
}

impl StrategyHeap {
    /// All parts together.
    pub fn total(&self) -> u64 {
        self.facts + self.forest + self.provenance + self.patterns
    }
}

/// A termination strategy decides whether each candidate fact produced by a
/// chase step (or by a pipeline filter) should be kept.
///
/// It is asked only about rows the store does not hold ([`offer_row`]),
/// and reads every row it needs from the store it is passed. A stored fact
/// the strategy never admitted (an extensional fact, say) is the root of its
/// own trees with the empty provenance.
pub trait TerminationStrategy: Send {
    /// Decide whether the candidate should be produced. Returns `true` to
    /// admit; the producer then stores it as [`Candidate::fact`].
    fn admit(&mut self, store: &FactStore, candidate: &Candidate<'_>, step: &Step) -> bool;

    /// Statistics snapshot.
    fn stats(&self) -> StrategyStats;

    /// Heap bytes the strategy holds, by structure.
    fn heap_bytes(&self) -> StrategyHeap;

    /// Stored rows compared with candidates, summed over every isomorphism
    /// check: the work the checks did, where [`StrategyStats`] counts the
    /// checks. The warded strategy compares with tree members of the
    /// candidate's predicate and arity; a strategy that decides by one hash
    /// probe (or by none) compares with no row.
    fn iso_comparisons(&self) -> u64 {
        0
    }

    /// Human-readable name (used in benchmark output).
    fn name(&self) -> &'static str;
}

/// Per-fact bookkeeping of Algorithm 1's *fact structure*: three ids, no
/// heap. A stored fact without a record has [`FactMeta::root`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FactMeta {
    /// Root of this fact's tree in the linear forest.
    l_root: FactRef,
    /// Root of this fact's tree in the warded forest.
    w_root: FactRef,
    /// Rules applied from `l_root` to reach this fact (the provenance in the
    /// linear forest), as a node of the [`ProvenanceTrie`].
    provenance: u32,
}

impl FactMeta {
    /// The record of a fact that roots its own linear and warded trees,
    /// with the empty provenance.
    fn root(fact: FactRef) -> FactMeta {
        FactMeta {
            l_root: fact,
            w_root: fact,
            provenance: ProvenanceTrie::EMPTY,
        }
    }
}
/// Every rule sequence the lifted linear forest has seen, hash-consed into
/// a trie: a provenance is one node id, the empty sequence is
/// [`ProvenanceTrie::EMPTY`], and "is a prefix of" is an ancestor test.
#[derive(Clone)]
struct ProvenanceTrie {
    /// Per node: its parent (the sequence without its last rule) and its
    /// length. The empty sequence is its own parent.
    nodes: Vec<(u32, u32)>,
    /// (sequence, rule) → the sequence extended by the rule.
    children: FxHashMap<(u32, u32), u32>,
}

impl Default for ProvenanceTrie {
    fn default() -> Self {
        ProvenanceTrie {
            nodes: vec![(Self::EMPTY, 0)],
            children: FxHashMap::default(),
        }
    }
}

impl ProvenanceTrie {
    /// The empty rule sequence.
    const EMPTY: u32 = 0;

    /// The sequence `node` followed by `rule`.
    fn extend(&mut self, node: u32, rule: u32) -> u32 {
        let nodes = &mut self.nodes;
        *self.children.entry((node, rule)).or_insert_with(|| {
            let child = u32::try_from(nodes.len()).expect("provenance trie exceeds u32");
            let len = nodes[node as usize].1 + 1;
            nodes.push((node, len));
            child
        })
    }

    fn len(&self, node: u32) -> u32 {
        self.nodes[node as usize].1
    }

    /// Is `prefix` an ordered left-subsequence (prefix) of `seq`?
    fn is_prefix(&self, prefix: u32, mut seq: u32) -> bool {
        let len = self.len(prefix);
        if len > self.len(seq) {
            return false;
        }
        while self.len(seq) > len {
            seq = self.nodes[seq as usize].0;
        }
        seq == prefix
    }

    /// Is `prefix` a prefix of `seq` and strictly shorter?
    fn is_strict_prefix(&self, prefix: u32, seq: u32) -> bool {
        self.len(prefix) < self.len(seq) && self.is_prefix(prefix, seq)
    }

    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<(u32, u32)>()
            + table_bytes(self.children.capacity(), size_of::<((u32, u32), u32)>())
    }
}

/// The ground structure `G`: the trees of the warded forest, by root. A tree
/// is a list of [`FactRef`]s; a check reads each member's row from the store
/// and compares it with the candidate's in place, so no canonical form is
/// built or kept.
#[derive(Clone, Default)]
struct WardedForest {
    /// Root → the tree's members other than the root. A fact that roots
    /// its own tree is a member of it without an entry here, so a tree with
    /// no other member has no entry at all.
    members: FxHashMap<FactRef, Vec<FactRef>>,
    /// Roots that are not members of their own tree. A fact admitted
    /// strictly within a stop provenance is stored (a later candidate
    /// may name it as its parent) but joins no tree.
    detached_roots: FxHashSet<FactRef>,
}

impl WardedForest {
    /// Add `fact` to the tree rooted at `root`.
    fn add(&mut self, root: FactRef, fact: FactRef) {
        if fact != root {
            self.members.entry(root).or_default().push(fact);
        }
    }

    /// Does the tree rooted at `root` hold a fact isomorphic to the
    /// candidate? `root` is the candidate itself, not yet stored, when the
    /// candidate would root a fresh tree. Every member row of the
    /// candidate's predicate and arity that is compared counts in
    /// `comparisons`.
    fn holds_isomorph(
        &self,
        store: &FactStore,
        root: FactRef,
        candidate: &Candidate<'_>,
        comparisons: &mut u64,
    ) -> bool {
        let (predicate, row) = (candidate.predicate(), candidate.row());
        // Only facts of the candidate's predicate can be isomorphic to it.
        let Some(rel) = store.relation(predicate) else {
            return false;
        };
        let root_member = root != candidate.fact() && !self.detached_roots.contains(&root);
        let others = self.members.get(&root).map_or(&[][..], Vec::as_slice);
        root_member
            .then_some(&root)
            .into_iter()
            .chain(others)
            .filter(|fact| fact.predicate == predicate)
            .map(|fact| rel.row(fact.id))
            .filter(|stored| stored.len() == row.len())
            .any(|stored| {
                *comparisons += 1;
                rows_isomorphic(stored, row)
            })
    }

    fn heap_bytes(&self) -> usize {
        let members: usize = self.members.values().map(|m| m.capacity()).sum();
        table_bytes(
            self.members.capacity(),
            size_of::<(FactRef, Vec<FactRef>)>(),
        ) + members * size_of::<FactRef>()
            + table_bytes(self.detached_roots.capacity(), size_of::<FactRef>())
    }
}

/// Algorithm 1: the warded termination strategy.
///
/// The **ground structure** `G` groups admitted facts by the root of their
/// tree in the warded forest, so isomorphism checks stay local to one tree.
/// The **summary structure** `S` maps the *pattern* of a linear-forest root
/// to the stop-provenances learnt for it, so that whole chase branches are
/// cut without any isomorphism check once the same rule sequence is attempted
/// from a pattern-isomorphic root (the lifted linear forest).
#[derive(Clone, Default)]
pub struct WardedStrategy {
    /// The fact structure of every admitted fact whose record is not
    /// [`FactMeta::root`].
    metas: FxHashMap<FactRef, FactMeta>,
    ground: WardedForest,
    provenances: ProvenanceTrie,
    /// Pattern canonical form of each stored fact that served as a
    /// linear-forest root, computed on first use.
    root_patterns: FxHashMap<FactRef, PatternKey>,
    /// Pattern of a linear-forest root → stop provenances.
    summary: FxHashMap<PatternKey, Vec<u32>>,
    stats: StrategyStats,
    /// See [`TerminationStrategy::iso_comparisons`].
    iso_comparisons: u64,
}

impl WardedStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        Self::default()
    }

    fn meta_of(&self, fact: FactRef) -> FactMeta {
        self.metas
            .get(&fact)
            .copied()
            .unwrap_or_else(|| FactMeta::root(fact))
    }

    /// Record an admitted fact's structure; a root needs no record.
    fn record(&mut self, fact: FactRef, meta: FactMeta) {
        if meta != FactMeta::root(fact) {
            self.metas.insert(fact, meta);
        }
    }
}

impl TerminationStrategy for WardedStrategy {
    fn admit(&mut self, store: &FactStore, candidate: &Candidate<'_>, step: &Step) -> bool {
        let fact = candidate.fact();
        // Compute the fact structure from the relevant parent.
        let own_root = FactMeta::root(fact);
        let meta = match step.kind {
            RuleKind::Linear => match step.linear_parent {
                Some(parent) => {
                    let pm = self.meta_of(parent);
                    FactMeta {
                        provenance: self.provenances.extend(pm.provenance, step.rule_id),
                        ..pm
                    }
                }
                None => FactMeta {
                    provenance: self.provenances.extend(ProvenanceTrie::EMPTY, step.rule_id),
                    ..own_root
                },
            },
            RuleKind::Warded => match step.ward_parent {
                Some(parent) => FactMeta {
                    w_root: self.meta_of(parent).w_root,
                    ..own_root
                },
                None => own_root,
            },
            RuleKind::NonLinear => {
                // Other non-linear rules open a new tree of the warded
                // forest; the store already cut exact duplicates, so the
                // tree is new by construction, and its root needs no record.
                self.stats.admitted += 1;
                return true;
            }
        };

        // Pattern of the linear-forest root: the candidate's own pattern
        // when it roots a fresh tree, otherwise the cached pattern of the
        // stored root.
        let own_pattern;
        let pattern = if meta.l_root == fact {
            own_pattern = row_pattern_key(fact.predicate, candidate.row());
            &own_pattern
        } else {
            let root = meta.l_root;
            &*self
                .root_patterns
                .entry(root)
                .or_insert_with(|| row_pattern_key(root.predicate, root.row(store)))
        };
        if let Some(stops) = self.summary.get(pattern) {
            let trie = &self.provenances;
            // Beyond a learnt stop provenance: cut without checking.
            if stops.iter().any(|&s| trie.is_prefix(s, meta.provenance)) {
                self.stats.pruned_by_provenance += 1;
                self.stats.suppressed += 1;
                return false;
            }
            // Strictly within a stop provenance: keep exploring, no
            // isomorphism check needed. The fact can be a parent, but it
            // joins no tree of the warded forest.
            if stops
                .iter()
                .any(|&s| trie.is_strict_prefix(meta.provenance, s))
            {
                self.stats.admitted += 1;
                self.record(fact, meta);
                if meta.w_root == fact {
                    self.ground.detached_roots.insert(fact);
                }
                return true;
            }
        }
        // Local detection: isomorphism check against the fact's tree in the
        // warded forest, comparing rows in place.
        self.stats.isomorphism_checks += 1;
        if self
            .ground
            .holds_isomorph(store, meta.w_root, candidate, &mut self.iso_comparisons)
        {
            // Learn the stop provenance for this pattern.
            self.summary
                .entry(pattern.clone())
                .or_default()
                .push(meta.provenance);
            self.stats.stop_provenances += 1;
            self.stats.suppressed += 1;
            false
        } else {
            self.record(fact, meta);
            self.ground.add(meta.w_root, fact);
            self.stats.admitted += 1;
            true
        }
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }

    fn heap_bytes(&self) -> StrategyHeap {
        let pattern_bytes = |key: &PatternKey| key.args.capacity() * size_of::<PatternTerm>();
        let summary: usize = self
            .summary
            .iter()
            .map(|(key, stops)| pattern_bytes(key) + stops.capacity() * size_of::<u32>())
            .sum();
        let patterns = table_bytes(
            self.root_patterns.capacity(),
            size_of::<(FactRef, PatternKey)>(),
        ) + self
            .root_patterns
            .values()
            .map(pattern_bytes)
            .sum::<usize>()
            + table_bytes(self.summary.capacity(), size_of::<(PatternKey, Vec<u32>)>())
            + summary;
        StrategyHeap {
            facts: table_bytes(self.metas.capacity(), size_of::<(FactRef, FactMeta)>()) as u64,
            forest: self.ground.heap_bytes() as u64,
            provenance: self.provenances.heap_bytes() as u64,
            patterns: patterns as u64,
        }
    }

    fn iso_comparisons(&self) -> u64 {
        self.iso_comparisons
    }

    fn name(&self) -> &'static str {
        "warded (Algorithm 1)"
    }
}

/// The §6.6 baseline: every candidate is checked for isomorphism against
/// *all* stored facts of its predicate (hash indexed by isomorphism
/// canonical form, as the paper's "carefully optimized" trivial technique).
/// The key set is filled from the store: before each check it takes in the
/// rows of the candidate's predicate stored since the last one, loaded and
/// admitted alike.
#[derive(Clone, Default)]
pub struct TrivialIsoStrategy {
    seen: FxHashSet<RowIsoKey>,
    /// Per predicate: how many of its stored rows `seen` holds.
    read: FxHashMap<Sym, usize>,
    stats: StrategyStats,
}

impl TrivialIsoStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of canonical facts stored.
    pub fn stored(&self) -> usize {
        self.seen.len()
    }
}

impl TerminationStrategy for TrivialIsoStrategy {
    fn admit(&mut self, store: &FactStore, candidate: &Candidate<'_>, _step: &Step) -> bool {
        let predicate = candidate.predicate();
        if let Some(rel) = store.relation(predicate) {
            let read = self.read.entry(predicate).or_default();
            for id in *read..rel.len() {
                self.seen
                    .insert(row_iso_key(predicate, rel.row(FactId(id as u32))));
            }
            *read = rel.len();
        }
        self.stats.isomorphism_checks += 1;
        if self.seen.contains(&row_iso_key(predicate, candidate.row())) {
            self.stats.suppressed += 1;
            false
        } else {
            self.stats.admitted += 1;
            true
        }
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }

    fn heap_bytes(&self) -> StrategyHeap {
        let patterns = table_bytes(self.seen.capacity(), size_of::<RowIsoKey>())
            + self
                .seen
                .iter()
                .map(|key| key.args.capacity() * size_of::<RowCanonTerm>())
                .sum::<usize>()
            + table_bytes(self.read.capacity(), size_of::<(Sym, usize)>());
        StrategyHeap {
            patterns: patterns as u64,
            ..StrategyHeap::default()
        }
    }

    fn name(&self) -> &'static str {
        "trivial isomorphism check"
    }
}

/// Admit everything that is not an exact duplicate: the store has already
/// cut those, so this strategy admits every candidate it is offered. This
/// is what an engine without null-aware termination does; it terminates
/// only on programs whose chase is finite (e.g. plain Datalog after
/// Skolemization).
#[derive(Clone, Default)]
pub struct ExactDedupStrategy {
    stats: StrategyStats,
}

impl ExactDedupStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TerminationStrategy for ExactDedupStrategy {
    fn admit(&mut self, _store: &FactStore, _candidate: &Candidate<'_>, _step: &Step) -> bool {
        self.stats.admitted += 1;
        true
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }

    fn heap_bytes(&self) -> StrategyHeap {
        StrategyHeap::default()
    }

    fn name(&self) -> &'static str {
        "exact duplicate elimination"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owns(p: u64, s: u64, c: &str) -> Fact {
        Fact::new(
            "Owns",
            vec![Value::Null(NullId(p)), Value::Null(NullId(s)), c.into()],
        )
    }

    fn fact(predicate: &str, null: u64, c: &str) -> Fact {
        Fact::new(predicate, vec![Value::Null(NullId(null)), c.into()])
    }

    /// A store and a strategy, driven the way producers drive them: every
    /// derived fact through [`offer_row`].
    struct Harness<S> {
        store: FactStore,
        strategy: S,
    }

    impl<S: TerminationStrategy> Harness<S> {
        fn new(strategy: S) -> Self {
            Harness {
                store: FactStore::new(),
                strategy,
            }
        }

        /// Store an extensional fact; the strategy never sees it.
        fn base(&mut self, fact: &Fact) {
            self.store.insert(fact.clone());
        }

        /// The store's name for a stored fact.
        fn stored(&self, fact: &Fact) -> FactRef {
            FactRef::find(&self.store, fact.predicate, &fact.intern_args()).expect("stored")
        }

        fn offer(
            &mut self,
            fact: &Fact,
            rule_id: u32,
            kind: RuleKind,
            linear_parent: Option<&Fact>,
            ward_parent: Option<&Fact>,
        ) -> Offer {
            let step = Step {
                rule_id,
                kind,
                linear_parent: linear_parent.map(|f| self.stored(f)),
                ward_parent: ward_parent.map(|f| self.stored(f)),
            };
            let row = fact.intern_args();
            offer_row(
                &mut self.store,
                Some(&mut self.strategy),
                fact.predicate,
                &row,
                &step,
            )
        }

        fn admit(
            &mut self,
            fact: &Fact,
            rule_id: u32,
            kind: RuleKind,
            linear_parent: Option<&Fact>,
            ward_parent: Option<&Fact>,
        ) -> bool {
            self.offer(fact, rule_id, kind, linear_parent, ward_parent) == Offer::Admitted
        }

        fn stats(&self) -> StrategyStats {
            self.strategy.stats()
        }
    }

    #[test]
    fn warded_strategy_cuts_isomorphic_linear_chains() {
        let mut h = Harness::new(WardedStrategy::new());
        let company = Fact::new("Company", vec!["HSBC".into()]);
        h.base(&company);

        // Company(HSBC) --rule0--> Owns(ν0, ν1, HSBC)
        let o1 = owns(0, 1, "HSBC");
        assert!(h.admit(&o1, 0, RuleKind::Linear, Some(&company), None));
        // Owns --rule7--> Company(HSBC): the store holds it already.
        assert_eq!(
            h.offer(&company, 7, RuleKind::Linear, Some(&o1), None),
            Offer::Duplicate
        );
        // Applying rule0 again from the same root with fresh nulls gives an
        // isomorphic fact in the same warded tree: suppressed, stop
        // provenance learnt.
        let o2 = owns(10, 11, "HSBC");
        assert!(!h.admit(&o2, 0, RuleKind::Linear, Some(&company), None));
        assert_eq!(h.stats().stop_provenances, 1);
        assert!(h.stats().suppressed >= 1);
    }

    #[test]
    fn warded_strategy_reuses_stop_provenance_across_patterns() {
        let mut h = Harness::new(WardedStrategy::new());
        let c1 = Fact::new("Company", vec!["HSBC".into()]);
        let c2 = Fact::new("Company", vec!["IBA".into()]);
        h.base(&c1);
        h.base(&c2);

        // Learn the stop provenance on the HSBC tree.
        assert!(h.admit(&owns(0, 1, "HSBC"), 0, RuleKind::Linear, Some(&c1), None));
        assert!(!h.admit(&owns(2, 3, "HSBC"), 0, RuleKind::Linear, Some(&c1), None));
        let checks_before = h.stats().isomorphism_checks;
        assert_eq!(h.stats().stop_provenances, 1);

        // The IBA root is pattern-isomorphic to the HSBC one, so attempting
        // the same rule sequence from it is pruned horizontally without any
        // further isomorphism check (Algorithm 1, line 3 after line 9 stored
        // the provenance keyed by the root's pattern).
        assert!(!h.admit(&owns(4, 5, "IBA"), 0, RuleKind::Linear, Some(&c2), None));
        let after = h.stats();
        assert!(after.pruned_by_provenance >= 1);
        assert_eq!(after.isomorphism_checks, checks_before);
    }

    #[test]
    fn steps_within_a_stop_provenance_are_parents_but_not_tree_members() {
        let mut h = Harness::new(WardedStrategy::new());
        let hsbc = Fact::new("Company", vec!["HSBC".into()]);
        let iba = Fact::new("Company", vec!["IBA".into()]);
        h.base(&hsbc);
        h.base(&iba);

        // Learn the stop provenance [0, 1] on the HSBC root: rule 1 after
        // rule 0 gives a fact isomorphic to the one rule 0 gave.
        let p1 = fact("P", 1, "HSBC");
        assert!(h.admit(&p1, 0, RuleKind::Linear, Some(&hsbc), None));
        assert!(!h.admit(&fact("P", 2, "HSBC"), 1, RuleKind::Linear, Some(&p1), None));
        assert_eq!(h.stats().stop_provenances, 1);

        // From the pattern-isomorphic IBA root, rule 0 is a step strictly
        // within [0, 1]: admitted without an isomorphism check.
        let before = h.stats();
        let p3 = fact("P", 3, "IBA");
        assert!(h.admit(&p3, 0, RuleKind::Linear, Some(&iba), None));
        let after = h.stats();
        assert_eq!(after.isomorphism_checks, before.isomorphism_checks);
        assert_eq!(after.admitted, before.admitted + 1);

        // It is a usable parent: rule 1 from it completes the stop
        // provenance of its root's pattern and is pruned.
        assert!(!h.admit(&fact("P", 4, "IBA"), 1, RuleKind::Linear, Some(&p3), None));
        assert_eq!(
            h.stats().pruned_by_provenance,
            after.pruned_by_provenance + 1
        );

        // It is not a member of the IBA tree: an isomorphic fact attached to
        // that tree finds nothing to be isomorphic to.
        let checks = h.stats().isomorphism_checks;
        assert!(h.admit(&fact("P", 5, "IBA"), 3, RuleKind::Warded, None, Some(&iba)));
        assert_eq!(h.stats().isomorphism_checks, checks + 1);
    }

    #[test]
    fn a_root_admitted_within_a_stop_provenance_is_not_in_its_own_tree() {
        let mut h = Harness::new(WardedStrategy::new());
        let root = fact("S", 0, "a");
        h.base(&root);
        // Rule 5 from the root gives a fact isomorphic to the root itself:
        // stop provenance [5] for the pattern S(null, constant).
        assert!(!h.admit(&fact("S", 1, "a"), 5, RuleKind::Linear, Some(&root), None));
        assert_eq!(h.stats().stop_provenances, 1);

        // A warded fact without a ward roots its own linear and
        // warded trees with the empty provenance, strictly within [5]:
        // admitted unchecked.
        let detached = fact("S", 2, "b");
        assert!(h.admit(&detached, 3, RuleKind::Warded, None, None));
        // A linear step from it lands in its warded tree, where the root is
        // not a member: no isomorphic fact, so it is admitted.
        let checks = h.stats().isomorphism_checks;
        assert!(h.admit(
            &fact("S", 3, "b"),
            6,
            RuleKind::Linear,
            Some(&detached),
            None
        ));
        assert_eq!(h.stats().isomorphism_checks, checks + 1);
    }

    #[test]
    fn warded_rules_attach_to_the_ward_parents_tree() {
        let mut h = Harness::new(WardedStrategy::new());
        let psc_x = Fact::new("PSC", vec!["HSBC".into(), Value::Null(NullId(0))]);
        let psc_y = Fact::new("PSC", vec!["IBA".into(), Value::Null(NullId(1))]);
        h.base(&Fact::new("Controls", vec!["HSBC".into(), "HSB".into()]));
        h.base(&psc_x);
        h.base(&psc_y);

        // PSC(HSBC, ν0), Controls(HSBC, HSB) → Owns(ν0, ν9, HSB): warded rule
        // whose ward parent is the PSC fact.
        assert!(h.admit(&owns(0, 9, "HSB"), 3, RuleKind::Warded, None, Some(&psc_x)));
        // The fact joined the ward's tree: an isomorphic fact under another
        // ward is admitted, under the same ward it is suppressed.
        assert!(h.admit(&owns(0, 11, "HSB"), 3, RuleKind::Warded, None, Some(&psc_y)));
        assert!(!h.admit(&owns(0, 10, "HSB"), 3, RuleKind::Warded, None, Some(&psc_x)));
        assert_eq!(h.stats().isomorphism_checks, 3);
        // Only the third check met a member of its predicate: the roots are
        // PSC facts, so the first two compared no row.
        assert_eq!(h.strategy.iso_comparisons(), 1);
    }

    #[test]
    fn non_linear_rules_start_new_trees_and_the_store_cuts_duplicates() {
        let mut h = Harness::new(WardedStrategy::new());
        let sl = Fact::new("StrongLink", vec!["a".into(), "b".into()]);
        assert!(h.admit(&sl, 4, RuleKind::NonLinear, None, None));
        assert_eq!(
            h.offer(&sl, 4, RuleKind::NonLinear, None, None),
            Offer::Duplicate
        );
        assert_eq!(h.stats().admitted, 1);
        // A fresh tree's root needs no record.
        assert!(h.strategy.metas.is_empty());
    }

    #[test]
    fn trivial_strategy_checks_globally() {
        let mut h = Harness::new(TrivialIsoStrategy::new());
        h.base(&Fact::new("Company", vec!["HSBC".into()]));
        let a = owns(0, 1, "HSBC");
        let b = owns(5, 6, "HSBC");
        assert!(h.admit(&a, 0, RuleKind::Linear, None, None));
        // isomorphic to a, regardless of any tree structure
        assert!(!h.admit(&b, 3, RuleKind::Warded, None, None));
        // The key set holds the stored rows of the predicates it was asked
        // about: the one Owns row, not the Company row.
        assert_eq!(h.strategy.stored(), 1);
        assert_eq!(h.stats().suppressed, 1);
        assert_eq!(h.stats().isomorphism_checks, 2);
    }

    #[test]
    fn exact_dedup_admits_isomorphic_but_distinct_nulls() {
        let mut h = Harness::new(ExactDedupStrategy::new());
        let a = owns(0, 1, "HSBC");
        let b = owns(5, 6, "HSBC");
        assert!(h.admit(&a, 0, RuleKind::Linear, None, None));
        assert!(h.admit(&b, 0, RuleKind::Linear, None, None));
        assert_eq!(
            h.offer(&a, 0, RuleKind::Linear, None, None),
            Offer::Duplicate
        );
        assert_eq!(h.stats().admitted, 2);
    }

    #[test]
    fn a_fact_only_the_store_holds_roots_its_linear_and_warded_trees() {
        let mut h = Harness::new(WardedStrategy::new());
        let company = Fact::new("Company", vec!["HSBC".into()]);
        h.base(&company);
        let root = h.stored(&company);
        // The strategy never saw the stored fact and holds nothing for it.
        assert!(h.strategy.metas.is_empty());
        assert_eq!(h.strategy.meta_of(root), FactMeta::root(root));

        // Company(HSBC) --rule0--> Owns(ν0, ν1, HSBC): the stored parent
        // roots the new fact's linear tree and its warded tree.
        let o1 = owns(0, 1, "HSBC");
        assert!(h.admit(&o1, 0, RuleKind::Linear, Some(&company), None));
        let meta = h.strategy.meta_of(h.stored(&o1));
        assert_eq!((meta.l_root, meta.w_root), (root, root));
        assert_eq!(h.strategy.provenances.len(meta.provenance), 1);

        // As in `warded_strategy_cuts_isomorphic_linear_chains`: rule0 again
        // from the same root is isomorphic within the root's warded tree,
        // so it is suppressed and the stop provenance [0] is learnt.
        assert!(!h.admit(
            &owns(10, 11, "HSBC"),
            0,
            RuleKind::Linear,
            Some(&company),
            None
        ));
        assert_eq!(h.stats().stop_provenances, 1);
        assert_eq!(h.stats().isomorphism_checks, 2);

        // The learnt provenance is keyed by the stored root's pattern: from
        // another stored, pattern-isomorphic root the step is pruned
        // without a check.
        let iba = Fact::new("Company", vec!["IBA".into()]);
        h.base(&iba);
        assert!(!h.admit(&owns(12, 13, "IBA"), 0, RuleKind::Linear, Some(&iba), None));
        let s = h.stats();
        assert_eq!((s.pruned_by_provenance, s.suppressed), (1, 2));
        assert_eq!(s.isomorphism_checks, 2);

        // A warded step whose ward is the stored root joins the same warded
        // tree, where Owns(ν0, ν1, HSBC) is isomorphic to it.
        assert!(!h.admit(
            &owns(14, 15, "HSBC"),
            3,
            RuleKind::Warded,
            None,
            Some(&company)
        ));
        assert_eq!(h.stats().isomorphism_checks, 3);
        assert_eq!(h.stats().admitted, 1);
    }

    #[test]
    fn prefix_relation() {
        let mut trie = ProvenanceTrie::default();
        let empty = ProvenanceTrie::EMPTY;
        let one = trie.extend(empty, 1);
        let one_two = trie.extend(one, 2);
        let two = trie.extend(empty, 2);
        let one_two_three = trie.extend(one_two, 3);
        assert_eq!(trie.extend(one, 2), one_two);
        assert!(trie.is_prefix(empty, one_two));
        assert!(trie.is_prefix(one, one_two));
        assert!(trie.is_prefix(one_two, one_two));
        assert!(!trie.is_prefix(two, one_two));
        assert!(!trie.is_prefix(one_two_three, one_two));
        assert!(trie.is_strict_prefix(one, one_two));
        assert!(!trie.is_strict_prefix(one_two, one_two));
    }
}
