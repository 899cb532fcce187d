//! Termination strategies (Section 3.4, Algorithm 1) and the guide
//! structures they maintain: the warded forest (ground structure `G`) and the
//! lifted linear forest (summary structure `S`).
//!
//! Strategies decide on interned rows. A candidate is a predicate and a
//! borrowed `ValueId` row, and so is every parent. The exact-duplicate test
//! hashes a handful of `u32`s, and the isomorphism and pattern canonical
//! forms are built from the row ([`row_iso_key`], [`row_pattern_key`]), so
//! no value is ever resolved. [`WardedStrategy`] keeps each registered fact
//! exactly once: its row in one append-only arena, plus a fixed-size
//! record of three ids. Canonical forms are cached only for the facts that need
//! them: linear-forest roots and tree members that took part in a check.

use std::hash::BuildHasher;
use vadalog_analysis::RuleKind;
use vadalog_model::iso::{row_iso_key, row_pattern_key, PatternKey, RowIsoKey};
use vadalog_model::prelude::*;

/// A candidate fact offered to a termination strategy: a predicate and an
/// interned row borrowed from the producer.
#[derive(Clone, Copy)]
pub struct Candidate<'a> {
    predicate: Sym,
    row: &'a [ValueId],
}

impl<'a> Candidate<'a> {
    /// A candidate from an interned row.
    pub fn from_row(predicate: Sym, row: &'a [ValueId]) -> Candidate<'a> {
        Candidate { predicate, row }
    }

    /// The candidate's predicate.
    pub fn predicate(&self) -> Sym {
        self.predicate
    }

    /// The candidate's interned row.
    pub fn row(&self) -> &[ValueId] {
        self.row
    }
}

/// A body fact the candidate was derived from, in interned-row form: the
/// linear parent or the ward. Strategies only ever use parents as lookup
/// keys into their fact structures, so no materialised fact is needed.
#[derive(Clone, Copy)]
pub struct ParentRef<'a> {
    /// The parent's predicate.
    pub predicate: Sym,
    /// The parent's interned row.
    pub row: &'a [ValueId],
}

impl<'a> ParentRef<'a> {
    /// A parent reference from predicate and row.
    pub fn new(predicate: Sym, row: &'a [ValueId]) -> ParentRef<'a> {
        ParentRef { predicate, row }
    }
}

/// End of a [`RowTable`] hash chain.
const NO_FACT: u32 = u32::MAX;

/// One registered fact of a [`RowTable`].
#[derive(Clone, Copy)]
struct RowEntry {
    predicate: Sym,
    /// Where the fact's row starts in the arena; it ends where the next
    /// fact's row starts.
    start: u32,
    /// The previously registered fact with the same row hash, or `NO_FACT`.
    chain: u32,
}

/// Registered facts, each kept once: their rows concatenated in one
/// append-only `ValueId` arena, with dense fact ids (registration order),
/// found through a row-hash → id chain. This is the strategies'
/// exact-identity bookkeeping; a probe hashes the borrowed row and
/// allocates nothing.
#[derive(Clone, Default)]
struct RowTable {
    values: Vec<ValueId>,
    entries: Vec<RowEntry>,
    /// Row hash → the last fact registered with that hash.
    heads: FxHashMap<u64, u32>,
}

impl RowTable {
    /// The id the next registered fact gets.
    fn next_id(&self) -> u32 {
        u32::try_from(self.entries.len()).expect("strategy fact ids exceed u32")
    }

    fn predicate(&self, id: u32) -> Sym {
        self.entries[id as usize].predicate
    }

    fn row(&self, id: u32) -> &[ValueId] {
        let start = self.entries[id as usize].start as usize;
        let end = self
            .entries
            .get(id as usize + 1)
            .map_or(self.values.len(), |next| next.start as usize);
        &self.values[start..end]
    }

    /// The id of a registered fact, or the row hash to register it under.
    fn lookup(&self, predicate: Sym, row: &[ValueId]) -> Result<u32, u64> {
        let hash = FxBuildHasher::default().hash_one((predicate, row));
        let mut id = self.heads.get(&hash).copied().unwrap_or(NO_FACT);
        while id != NO_FACT {
            if self.predicate(id) == predicate && self.row(id) == row {
                return Ok(id);
            }
            id = self.entries[id as usize].chain;
        }
        Err(hash)
    }

    /// Register a fact that [`RowTable::lookup`] did not find, under the
    /// hash it returned.
    fn push(&mut self, hash: u64, predicate: Sym, row: &[ValueId]) -> u32 {
        let id = self.next_id();
        let start = u32::try_from(self.values.len()).expect("strategy row arena exceeds u32");
        self.values.extend_from_slice(row);
        let chain = self.heads.insert(hash, id).unwrap_or(NO_FACT);
        self.entries.push(RowEntry {
            predicate,
            start,
            chain,
        });
        id
    }
}

/// Statistics collected by a termination strategy.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StrategyStats {
    /// Facts admitted (chase steps allowed to fire).
    pub admitted: u64,
    /// Facts suppressed because they were exact duplicates.
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

/// A termination strategy decides whether each candidate fact produced by a
/// chase step (or by a pipeline filter) should be kept.
///
/// `parents` are the body facts the step joined; for linear rules the single
/// parent, for warded rules the fact bound to the ward must be passed as
/// `ward_parent` so the strategy can attach the new fact to the right tree of
/// the warded forest.
///
/// Strategies are `Send` so a boxed template can live inside a shared
/// session core and be cloned into worker threads (the concurrent reasoning
/// server hands every worker its own clone per run).
pub trait TerminationStrategy: Send {
    /// Register an extensional (database) fact, as an interned row, before
    /// the chase starts.
    ///
    /// The engine pipeline registers only when its run can hold a labelled
    /// null — a plan that invents nulls, or a store holding one; a
    /// null-free run never calls the strategy at all. Registration order
    /// fixes only internal ids, so it matters just for the bit-identical
    /// replay of null-inventing programs.
    fn register_base(&mut self, predicate: Sym, row: &[ValueId]);

    /// Clone this strategy, state included, behind a fresh box. Query
    /// sessions register the (large, shared) extensional database once into
    /// a template strategy and clone it per query run — a structure copy
    /// instead of re-hashing every EDB fact — so each run still starts from
    /// exactly the state a fresh [`TerminationStrategy::register_base`]
    /// pass would have produced.
    fn clone_box(&self) -> Box<dyn TerminationStrategy>;

    /// Decide whether the candidate should be produced. Returns `true` to
    /// admit.
    fn admit(
        &mut self,
        candidate: &Candidate<'_>,
        rule_id: u32,
        kind: RuleKind,
        linear_parent: Option<ParentRef<'_>>,
        ward_parent: Option<ParentRef<'_>>,
    ) -> bool;

    /// Convenience wrapper for fact-level producers (the plain chase): admit
    /// a materialised fact, interning its row on the spot.
    fn admit_fact(
        &mut self,
        fact: &Fact,
        rule_id: u32,
        kind: RuleKind,
        linear_parent: Option<&Fact>,
        ward_parent: Option<&Fact>,
    ) -> bool {
        let row = fact.intern_args();
        let linear_row = linear_parent.map(|p| (p.predicate, p.intern_args()));
        let ward_row = ward_parent.map(|p| (p.predicate, p.intern_args()));
        self.admit(
            &Candidate::from_row(fact.predicate, &row),
            rule_id,
            kind,
            linear_row.as_ref().map(|(p, r)| ParentRef::new(*p, r)),
            ward_row.as_ref().map(|(p, r)| ParentRef::new(*p, r)),
        )
    }

    /// Statistics snapshot.
    fn stats(&self) -> StrategyStats;

    /// Human-readable name (used in benchmark output).
    fn name(&self) -> &'static str;
}

/// Per-fact bookkeeping of Algorithm 1's *fact structure*: three ids, no
/// heap.
#[derive(Clone, Copy, Debug)]
struct FactMeta {
    /// Root of this fact's tree in the linear forest.
    l_root: u32,
    /// Root of this fact's tree in the warded forest.
    w_root: u32,
    /// Rules applied from `l_root` to reach this fact (the provenance in the
    /// linear forest), as a node of the [`ProvenanceTrie`].
    provenance: u32,
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
}

/// The ground structure `G`: the trees of the warded forest, by root.
#[derive(Clone, Default)]
struct WardedForest {
    /// Root → the tree's members other than the root. A fact that roots
    /// its own tree is a member of it without an entry here, so a tree with
    /// no other member has no entry at all.
    members: FxHashMap<u32, Vec<u32>>,
    /// Roots that are not members of their own tree. A fact admitted
    /// strictly within a stop provenance is registered (a later candidate
    /// may name it as its parent) but joins no tree.
    detached_roots: FxHashSet<u32>,
    /// Isomorphism canonical form of each member that took part in a
    /// check, computed on first use (most registered facts never do).
    iso_keys: FxHashMap<u32, RowIsoKey>,
}

impl WardedForest {
    /// Add registered fact `id` to the tree rooted at `root`.
    fn add(&mut self, root: u32, id: u32) {
        if id != root {
            self.members.entry(root).or_default().push(id);
        }
    }

    /// Does the tree rooted at `root` hold a fact isomorphic to the
    /// candidate? `root` may be the candidate's own id, not yet registered,
    /// when the candidate would root a fresh tree.
    fn holds_isomorph(
        &mut self,
        rows: &RowTable,
        root: u32,
        predicate: Sym,
        row: &[ValueId],
    ) -> bool {
        let root_member = root < rows.next_id() && !self.detached_roots.contains(&root);
        let others = self.members.get(&root).map_or(&[][..], Vec::as_slice);
        let mut candidate_key = None;
        for &id in root_member.then_some(&root).into_iter().chain(others) {
            if rows.predicate(id) != predicate || rows.row(id).len() != row.len() {
                continue;
            }
            let key = self
                .iso_keys
                .entry(id)
                .or_insert_with(|| row_iso_key(predicate, rows.row(id)));
            if *key == *candidate_key.get_or_insert_with(|| row_iso_key(predicate, row)) {
                return true;
            }
        }
        false
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
    rows: RowTable,
    /// Per registered fact, by id.
    metas: Vec<FactMeta>,
    ground: WardedForest,
    provenances: ProvenanceTrie,
    /// Pattern canonical form of each registered fact that served as a
    /// linear-forest root, computed on first use.
    root_patterns: FxHashMap<u32, PatternKey>,
    /// Pattern of a linear-forest root → stop provenances.
    summary: FxHashMap<PatternKey, Vec<u32>>,
    stats: StrategyStats,
}

impl WardedStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, hash: u64, predicate: Sym, row: &[ValueId], meta: FactMeta) -> u32 {
        let id = self.rows.push(hash, predicate, row);
        self.metas.push(meta);
        id
    }

    fn meta_of(&self, parent: ParentRef<'_>) -> Option<FactMeta> {
        let id = self.rows.lookup(parent.predicate, parent.row).ok()?;
        Some(self.metas[id as usize])
    }
}

impl TerminationStrategy for WardedStrategy {
    fn clone_box(&self) -> Box<dyn TerminationStrategy> {
        Box::new(self.clone())
    }

    fn register_base(&mut self, predicate: Sym, row: &[ValueId]) {
        if let Err(hash) = self.rows.lookup(predicate, row) {
            let id = self.rows.next_id();
            let meta = FactMeta {
                l_root: id,
                w_root: id,
                provenance: ProvenanceTrie::EMPTY,
            };
            self.register(hash, predicate, row, meta);
        }
    }

    fn admit(
        &mut self,
        candidate: &Candidate<'_>,
        rule_id: u32,
        kind: RuleKind,
        linear_parent: Option<ParentRef<'_>>,
        ward_parent: Option<ParentRef<'_>>,
    ) -> bool {
        let (predicate, row) = (candidate.predicate(), candidate.row());
        // Exact duplicates never contribute anything new to the answer.
        // This is the hot exit: one hash-chain probe.
        let hash = match self.rows.lookup(predicate, row) {
            Ok(_) => {
                self.stats.duplicates += 1;
                return false;
            }
            Err(hash) => hash,
        };

        // Compute the fact structure from the relevant parent.
        let next_id = self.rows.next_id();
        let own_root = FactMeta {
            l_root: next_id,
            w_root: next_id,
            provenance: ProvenanceTrie::EMPTY,
        };
        let meta = match kind {
            RuleKind::Linear => match linear_parent.and_then(|p| self.meta_of(p)) {
                Some(pm) => FactMeta {
                    provenance: self.provenances.extend(pm.provenance, rule_id),
                    ..pm
                },
                None => FactMeta {
                    provenance: self.provenances.extend(ProvenanceTrie::EMPTY, rule_id),
                    ..own_root
                },
            },
            RuleKind::Warded => match ward_parent.and_then(|p| self.meta_of(p)) {
                Some(pm) => FactMeta {
                    w_root: pm.w_root,
                    ..own_root
                },
                None => own_root,
            },
            RuleKind::NonLinear => {
                // Other non-linear rules open a new tree of the warded
                // forest; exact duplicates were already filtered above, so
                // the tree is new by construction.
                self.register(hash, predicate, row, own_root);
                self.stats.admitted += 1;
                return true;
            }
        };

        // Pattern of the linear-forest root: the candidate's own pattern
        // when it roots a fresh tree, otherwise the cached pattern of the
        // registered root.
        let own_pattern;
        let pattern = if meta.l_root == next_id {
            own_pattern = row_pattern_key(predicate, row);
            &own_pattern
        } else {
            let rows = &self.rows;
            &*self.root_patterns.entry(meta.l_root).or_insert_with(|| {
                row_pattern_key(rows.predicate(meta.l_root), rows.row(meta.l_root))
            })
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
                let id = self.register(hash, predicate, row, meta);
                if meta.w_root == id {
                    self.ground.detached_roots.insert(id);
                }
                return true;
            }
        }
        // Local detection: isomorphism check against the fact's tree in the
        // warded forest, comparing cached canonical forms.
        self.stats.isomorphism_checks += 1;
        if self
            .ground
            .holds_isomorph(&self.rows, meta.w_root, predicate, row)
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
            let id = self.register(hash, predicate, row, meta);
            self.ground.add(meta.w_root, id);
            self.stats.admitted += 1;
            true
        }
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "warded (Algorithm 1)"
    }
}

/// The §6.6 baseline: every generated fact is stored and every candidate is
/// checked for isomorphism against *all* previously generated facts (hash
/// indexed by isomorphism canonical form, as the paper's "carefully
/// optimized" trivial technique).
#[derive(Clone, Default)]
pub struct TrivialIsoStrategy {
    seen: FxHashSet<RowIsoKey>,
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
    fn clone_box(&self) -> Box<dyn TerminationStrategy> {
        Box::new(self.clone())
    }

    fn register_base(&mut self, predicate: Sym, row: &[ValueId]) {
        self.seen.insert(row_iso_key(predicate, row));
    }

    fn admit(
        &mut self,
        candidate: &Candidate<'_>,
        _rule_id: u32,
        _kind: RuleKind,
        _linear_parent: Option<ParentRef<'_>>,
        _ward_parent: Option<ParentRef<'_>>,
    ) -> bool {
        self.stats.isomorphism_checks += 1;
        if self
            .seen
            .insert(row_iso_key(candidate.predicate(), candidate.row()))
        {
            self.stats.admitted += 1;
            true
        } else {
            self.stats.suppressed += 1;
            false
        }
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "trivial isomorphism check"
    }
}

/// Admit everything that is not an exact duplicate. This is what an engine
/// without null-aware termination does; it terminates only on programs whose
/// chase is finite (e.g. plain Datalog after Skolemization).
#[derive(Clone, Default)]
pub struct ExactDedupStrategy {
    seen: RowTable,
    stats: StrategyStats,
}

impl ExactDedupStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TerminationStrategy for ExactDedupStrategy {
    fn clone_box(&self) -> Box<dyn TerminationStrategy> {
        Box::new(self.clone())
    }

    fn register_base(&mut self, predicate: Sym, row: &[ValueId]) {
        if let Err(hash) = self.seen.lookup(predicate, row) {
            self.seen.push(hash, predicate, row);
        }
    }

    fn admit(
        &mut self,
        candidate: &Candidate<'_>,
        _rule_id: u32,
        _kind: RuleKind,
        _linear_parent: Option<ParentRef<'_>>,
        _ward_parent: Option<ParentRef<'_>>,
    ) -> bool {
        match self.seen.lookup(candidate.predicate(), candidate.row()) {
            Ok(_) => {
                self.stats.duplicates += 1;
                false
            }
            Err(hash) => {
                self.seen.push(hash, candidate.predicate(), candidate.row());
                self.stats.admitted += 1;
                true
            }
        }
    }

    fn stats(&self) -> StrategyStats {
        self.stats
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

    fn register(strategy: &mut dyn TerminationStrategy, fact: &Fact) {
        strategy.register_base(fact.predicate, &fact.intern_args());
    }

    #[test]
    fn warded_strategy_cuts_isomorphic_linear_chains() {
        let mut strategy = WardedStrategy::new();
        let company = Fact::new("Company", vec!["HSBC".into()]);
        register(&mut strategy, &company);

        // Company(HSBC) --rule0--> Owns(ν0, ν1, HSBC)
        let o1 = owns(0, 1, "HSBC");
        assert!(strategy.admit_fact(&o1, 0, RuleKind::Linear, Some(&company), None));
        // Owns --rule7--> Company(HSBC): duplicate of the base fact.
        assert!(!strategy.admit_fact(&company, 7, RuleKind::Linear, Some(&o1), None));
        // Applying rule0 again from the same root with fresh nulls gives an
        // isomorphic fact in the same warded tree: suppressed, stop
        // provenance learnt.
        let o2 = owns(10, 11, "HSBC");
        assert!(!strategy.admit_fact(&o2, 0, RuleKind::Linear, Some(&company), None));
        assert_eq!(strategy.stats().stop_provenances, 1);
        assert!(strategy.stats().suppressed >= 1);
    }

    #[test]
    fn warded_strategy_reuses_stop_provenance_across_patterns() {
        let mut strategy = WardedStrategy::new();
        let c1 = Fact::new("Company", vec!["HSBC".into()]);
        let c2 = Fact::new("Company", vec!["IBA".into()]);
        register(&mut strategy, &c1);
        register(&mut strategy, &c2);

        // Learn the stop provenance on the HSBC tree.
        assert!(strategy.admit_fact(&owns(0, 1, "HSBC"), 0, RuleKind::Linear, Some(&c1), None));
        assert!(!strategy.admit_fact(&owns(2, 3, "HSBC"), 0, RuleKind::Linear, Some(&c1), None));
        let checks_before = strategy.stats().isomorphism_checks;
        assert_eq!(strategy.stats().stop_provenances, 1);

        // The IBA root is pattern-isomorphic to the HSBC one, so attempting
        // the same rule sequence from it is pruned horizontally without any
        // further isomorphism check (Algorithm 1, line 3 after line 9 stored
        // the provenance keyed by the root's pattern).
        assert!(!strategy.admit_fact(&owns(4, 5, "IBA"), 0, RuleKind::Linear, Some(&c2), None));
        let after = strategy.stats();
        assert!(after.pruned_by_provenance >= 1);
        assert_eq!(after.isomorphism_checks, checks_before);
    }

    #[test]
    fn steps_within_a_stop_provenance_are_parents_but_not_tree_members() {
        let mut strategy = WardedStrategy::new();
        let hsbc = Fact::new("Company", vec!["HSBC".into()]);
        let iba = Fact::new("Company", vec!["IBA".into()]);
        register(&mut strategy, &hsbc);
        register(&mut strategy, &iba);

        // Learn the stop provenance [0, 1] on the HSBC root: rule 1 after
        // rule 0 gives a fact isomorphic to the one rule 0 gave.
        let p1 = fact("P", 1, "HSBC");
        assert!(strategy.admit_fact(&p1, 0, RuleKind::Linear, Some(&hsbc), None));
        assert!(!strategy.admit_fact(&fact("P", 2, "HSBC"), 1, RuleKind::Linear, Some(&p1), None));
        assert_eq!(strategy.stats().stop_provenances, 1);

        // From the pattern-isomorphic IBA root, rule 0 is a step strictly
        // within [0, 1]: admitted without an isomorphism check.
        let before = strategy.stats();
        let p3 = fact("P", 3, "IBA");
        assert!(strategy.admit_fact(&p3, 0, RuleKind::Linear, Some(&iba), None));
        let after = strategy.stats();
        assert_eq!(after.isomorphism_checks, before.isomorphism_checks);
        assert_eq!(after.admitted, before.admitted + 1);

        // It is a usable parent: rule 1 from it completes the stop
        // provenance of its root's pattern and is pruned.
        assert!(!strategy.admit_fact(&fact("P", 4, "IBA"), 1, RuleKind::Linear, Some(&p3), None));
        assert_eq!(
            strategy.stats().pruned_by_provenance,
            after.pruned_by_provenance + 1
        );

        // It is not a member of the IBA tree: an isomorphic fact attached to
        // that tree finds nothing to be isomorphic to.
        let checks = strategy.stats().isomorphism_checks;
        assert!(strategy.admit_fact(&fact("P", 5, "IBA"), 3, RuleKind::Warded, None, Some(&iba)));
        assert_eq!(strategy.stats().isomorphism_checks, checks + 1);
    }

    #[test]
    fn a_root_admitted_within_a_stop_provenance_is_not_in_its_own_tree() {
        let mut strategy = WardedStrategy::new();
        let root = fact("S", 0, "a");
        register(&mut strategy, &root);
        // Rule 5 from the root gives a fact isomorphic to the root itself:
        // stop provenance [5] for the pattern S(null, constant).
        assert!(!strategy.admit_fact(&fact("S", 1, "a"), 5, RuleKind::Linear, Some(&root), None));
        assert_eq!(strategy.stats().stop_provenances, 1);

        // A warded fact without a registered ward roots its own linear and
        // warded trees with the empty provenance, strictly within [5]:
        // admitted unchecked.
        let detached = fact("S", 2, "b");
        assert!(strategy.admit_fact(&detached, 3, RuleKind::Warded, None, None));
        // A linear step from it lands in its warded tree, where the root is
        // not a member: no isomorphic fact, so it is admitted.
        let checks = strategy.stats().isomorphism_checks;
        assert!(strategy.admit_fact(
            &fact("S", 3, "b"),
            6,
            RuleKind::Linear,
            Some(&detached),
            None
        ));
        assert_eq!(strategy.stats().isomorphism_checks, checks + 1);
    }

    #[test]
    fn warded_rules_attach_to_the_ward_parents_tree() {
        let mut strategy = WardedStrategy::new();
        let psc_x = Fact::new("PSC", vec!["HSBC".into(), Value::Null(NullId(0))]);
        let psc_y = Fact::new("PSC", vec!["IBA".into(), Value::Null(NullId(1))]);
        register(
            &mut strategy,
            &Fact::new("Controls", vec!["HSBC".into(), "HSB".into()]),
        );
        register(&mut strategy, &psc_x);
        register(&mut strategy, &psc_y);

        // PSC(HSBC, ν0), Controls(HSBC, HSB) → Owns(ν0, ν9, HSB): warded rule
        // whose ward parent is the PSC fact.
        assert!(strategy.admit_fact(&owns(0, 9, "HSB"), 3, RuleKind::Warded, None, Some(&psc_x)));
        // The fact joined the ward's tree: an isomorphic fact under another
        // ward is admitted, under the same ward it is suppressed.
        assert!(strategy.admit_fact(&owns(0, 11, "HSB"), 3, RuleKind::Warded, None, Some(&psc_y)));
        assert!(!strategy.admit_fact(&owns(0, 10, "HSB"), 3, RuleKind::Warded, None, Some(&psc_x)));
        assert_eq!(strategy.stats().isomorphism_checks, 3);
    }

    #[test]
    fn non_linear_rules_start_new_trees_and_duplicates_are_cut() {
        let mut strategy = WardedStrategy::new();
        let sl = Fact::new("StrongLink", vec!["a".into(), "b".into()]);
        assert!(strategy.admit_fact(&sl, 4, RuleKind::NonLinear, None, None));
        assert!(!strategy.admit_fact(&sl, 4, RuleKind::NonLinear, None, None));
        assert_eq!(strategy.stats().duplicates, 1);
    }

    #[test]
    fn trivial_strategy_checks_globally() {
        let mut strategy = TrivialIsoStrategy::new();
        register(&mut strategy, &Fact::new("Company", vec!["HSBC".into()]));
        let a = owns(0, 1, "HSBC");
        let b = owns(5, 6, "HSBC");
        assert!(strategy.admit_fact(&a, 0, RuleKind::Linear, None, None));
        // isomorphic to a, regardless of any tree structure
        assert!(!strategy.admit_fact(&b, 3, RuleKind::Warded, None, None));
        assert_eq!(strategy.stored(), 2);
        assert_eq!(strategy.stats().suppressed, 1);
    }

    #[test]
    fn exact_dedup_admits_isomorphic_but_distinct_nulls() {
        let mut strategy = ExactDedupStrategy::new();
        let a = owns(0, 1, "HSBC");
        let b = owns(5, 6, "HSBC");
        assert!(strategy.admit_fact(&a, 0, RuleKind::Linear, None, None));
        assert!(strategy.admit_fact(&b, 0, RuleKind::Linear, None, None));
        assert!(!strategy.admit_fact(&a, 0, RuleKind::Linear, None, None));
        assert_eq!(strategy.stats().admitted, 2);
        assert_eq!(strategy.stats().duplicates, 1);
    }

    #[test]
    fn row_table_keeps_each_row_once_across_hash_chains() {
        let mut table = RowTable::default();
        let p = intern("P");
        let q = intern("Q");
        let row = [intern_value(&Value::Int(1)), intern_value(&Value::Int(2))];
        let hash = table.lookup(p, &row).unwrap_err();
        let id = table.push(hash, p, &row);
        assert_eq!(table.lookup(p, &row), Ok(id));
        assert!(table.lookup(q, &row).is_err());
        // A forced collision chains behind the first fact and both resolve.
        let other = [intern_value(&Value::Int(3))];
        let second = table.push(hash, q, &other);
        assert_eq!(table.row(second), &other);
        assert_eq!(table.row(id), &row);
        assert_eq!(table.entries[second as usize].chain, id);
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
