//! Termination strategies (Section 3.4, Algorithm 1) and the guide
//! structures they maintain: the warded forest (ground structure `G`) and the
//! lifted linear forest (summary structure `S`).

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use vadalog_analysis::RuleKind;
use vadalog_model::iso::{facts_isomorphic, iso_key, pattern_key, IsoKey, PatternKey};
use vadalog_model::prelude::*;

/// A candidate fact offered to a termination strategy, carried primarily in
/// interned-row form.
///
/// The hot producer (the engine pipeline) builds candidates directly from
/// `ValueId` rows, so exact-duplicate bookkeeping hashes a handful of `u32`s
/// and never touches a string. The materialised [`Fact`] — which the
/// isomorphism machinery of Algorithm 1 needs — is created lazily via
/// [`Candidate::fact`] and cached, so a candidate rejected as an exact
/// duplicate costs no materialisation at all.
pub struct Candidate<'a> {
    predicate: Sym,
    row: &'a [ValueId],
    fact: OnceCell<Fact>,
}

impl<'a> Candidate<'a> {
    /// A candidate from an interned row (the zero-clone producer path).
    pub fn from_row(predicate: Sym, row: &'a [ValueId]) -> Candidate<'a> {
        Candidate {
            predicate,
            row,
            fact: OnceCell::new(),
        }
    }

    /// A candidate from a materialised fact and its pre-interned row (the
    /// chase producer path, where the fact already exists).
    pub fn from_fact(fact: &Fact, row: &'a [ValueId]) -> Candidate<'a> {
        let cell = OnceCell::new();
        let _ = cell.set(fact.clone());
        Candidate {
            predicate: fact.predicate,
            row,
            fact: cell,
        }
    }

    /// The candidate's predicate.
    pub fn predicate(&self) -> Sym {
        self.predicate
    }

    /// The candidate's interned row.
    pub fn row(&self) -> &[ValueId] {
        self.row
    }

    /// The materialised fact (resolved out of the value table on first use).
    pub fn fact(&self) -> &Fact {
        self.fact
            .get_or_init(|| Fact::new_sym(self.predicate, resolve_values(self.row)))
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

/// Per-predicate row → fact-structure-id map: the strategies' exact-identity
/// bookkeeping. Lookups borrow a candidate's row (`Box<[ValueId]>:
/// Borrow<[ValueId]>`), so probing never allocates.
#[derive(Clone, Default)]
struct RowIds {
    by_predicate: FxHashMap<Sym, FxHashMap<Box<[ValueId]>, usize>>,
}

impl RowIds {
    fn get(&self, predicate: Sym, row: &[ValueId]) -> Option<usize> {
        self.by_predicate.get(&predicate)?.get(row).copied()
    }

    fn contains(&self, predicate: Sym, row: &[ValueId]) -> bool {
        self.get(predicate, row).is_some()
    }

    fn insert(&mut self, predicate: Sym, row: Box<[ValueId]>, id: usize) {
        self.by_predicate
            .entry(predicate)
            .or_default()
            .insert(row, id);
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
    /// Register an extensional (database) fact before the chase starts.
    ///
    /// The engine pipeline registers only when its run can hold a labelled
    /// null — a plan that invents nulls, or a store holding one; a
    /// null-free run never calls the strategy at all. Registration order
    /// fixes only internal ids, so it matters just for the bit-identical
    /// replay of null-inventing programs.
    fn register_base(&mut self, fact: &Fact);

    /// Clone this strategy, state included, behind a fresh box. Query
    /// sessions register the (large, shared) extensional database once into
    /// a template strategy and clone it per query run — a structure copy
    /// instead of re-materialising and re-hashing every EDB fact — so each
    /// run still starts from exactly the state a fresh
    /// [`TerminationStrategy::register_base`] pass would have produced.
    fn clone_box(&self) -> Box<dyn TerminationStrategy>;

    /// Decide whether the candidate should be produced. Returns `true` to
    /// admit. Exact-duplicate checks run on the candidate's interned row;
    /// [`Candidate::fact`] is only materialised when the isomorphism
    /// machinery actually needs a value-level view.
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
            &Candidate::from_fact(fact, &row),
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

/// Per-fact bookkeeping of Algorithm 1's *fact structure*.
#[derive(Clone, Debug)]
struct FactMeta {
    /// Root of this fact's tree in the linear forest.
    l_root: usize,
    /// Root of this fact's tree in the warded forest.
    w_root: usize,
    /// Rules applied from `l_root` to reach this fact (the provenance in the
    /// linear forest).
    provenance: Vec<u32>,
}

/// Algorithm 1: the warded termination strategy.
///
/// The **ground structure** `G` groups admitted facts by the root of their
/// tree in the warded forest, so isomorphism checks stay local to one tree.
/// The **summary structure** `S` maps the *pattern* of a linear-forest root
/// to the stop-provenances learnt for it, so that whole chase branches are
/// cut without any isomorphism check once the same rule sequence is attempted
/// from a pattern-isomorphic root (the lifted linear forest).
#[derive(Clone)]
pub struct WardedStrategy {
    facts: Vec<Fact>,
    /// Isomorphism canonical form of each registered fact, computed lazily
    /// the first time the fact takes part in a tree membership check (most
    /// registered facts never do).
    iso_keys: Vec<OnceCell<IsoKey>>,
    /// Pattern canonical form of each registered fact, filled in lazily the
    /// first time the fact serves as a linear-forest root.
    pattern_keys: Vec<Option<PatternKey>>,
    metas: Vec<FactMeta>,
    ids: RowIds,
    /// w_root -> members of that warded-forest tree.
    ground: HashMap<usize, Vec<usize>>,
    /// pattern of l_root -> stop provenances.
    summary: HashMap<PatternKey, Vec<Vec<u32>>>,
    stats: StrategyStats,
}

impl Default for WardedStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl WardedStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        WardedStrategy {
            facts: Vec::new(),
            iso_keys: Vec::new(),
            pattern_keys: Vec::new(),
            metas: Vec::new(),
            ids: RowIds::default(),
            ground: HashMap::new(),
            summary: HashMap::new(),
            stats: StrategyStats::default(),
        }
    }

    fn register(&mut self, fact: Fact, row: Box<[ValueId]>, meta: FactMeta) -> usize {
        let id = self.facts.len();
        self.ids.insert(fact.predicate, row, id);
        self.iso_keys.push(OnceCell::new());
        self.pattern_keys.push(None);
        self.facts.push(fact);
        self.metas.push(meta);
        id
    }

    fn meta_of(&self, parent: ParentRef<'_>) -> Option<(usize, &FactMeta)> {
        self.ids
            .get(parent.predicate, parent.row)
            .map(|id| (id, &self.metas[id]))
    }

    /// Pattern key of registered fact `id`, computed on first use.
    fn pattern_key_of(&mut self, id: usize) -> PatternKey {
        if let Some(k) = &self.pattern_keys[id] {
            return k.clone();
        }
        let k = pattern_key(&self.facts[id]);
        self.pattern_keys[id] = Some(k.clone());
        k
    }

    /// Number of trees currently in the warded forest.
    pub fn warded_tree_count(&self) -> usize {
        self.ground.len()
    }
}

/// Is `prefix` an ordered left-subsequence (prefix) of `longer`?
fn is_prefix(prefix: &[u32], longer: &[u32]) -> bool {
    prefix.len() <= longer.len() && prefix.iter().zip(longer.iter()).all(|(a, b)| a == b)
}

impl TerminationStrategy for WardedStrategy {
    fn clone_box(&self) -> Box<dyn TerminationStrategy> {
        Box::new(self.clone())
    }

    fn register_base(&mut self, fact: &Fact) {
        let row = fact.intern_args();
        if self.ids.contains(fact.predicate, &row) {
            return;
        }
        let id = self.facts.len();
        let meta = FactMeta {
            l_root: id,
            w_root: id,
            provenance: Vec::new(),
        };
        self.register(fact.clone(), row, meta);
        self.ground.entry(id).or_default().push(id);
    }

    fn admit(
        &mut self,
        candidate: &Candidate<'_>,
        rule_id: u32,
        kind: RuleKind,
        linear_parent: Option<ParentRef<'_>>,
        ward_parent: Option<ParentRef<'_>>,
    ) -> bool {
        // Exact duplicates never contribute anything new to the answer.
        // This is the hot exit: a row-map probe, no materialisation.
        if self.ids.contains(candidate.predicate(), candidate.row()) {
            self.stats.duplicates += 1;
            return false;
        }

        // Compute the fact structure from the relevant parent.
        let next_id = self.facts.len();
        let (meta, effective_kind) = match kind {
            RuleKind::Linear => {
                let parent = linear_parent.and_then(|p| self.meta_of(p));
                match parent {
                    Some((_, pm)) => {
                        let mut provenance = pm.provenance.clone();
                        provenance.push(rule_id);
                        (
                            FactMeta {
                                l_root: pm.l_root,
                                w_root: pm.w_root,
                                provenance,
                            },
                            RuleKind::Linear,
                        )
                    }
                    None => (
                        FactMeta {
                            l_root: next_id,
                            w_root: next_id,
                            provenance: vec![rule_id],
                        },
                        RuleKind::Linear,
                    ),
                }
            }
            RuleKind::Warded => {
                let parent = ward_parent.and_then(|p| self.meta_of(p));
                match parent {
                    Some((_, pm)) => (
                        FactMeta {
                            l_root: next_id,
                            w_root: pm.w_root,
                            provenance: Vec::new(),
                        },
                        RuleKind::Warded,
                    ),
                    None => (
                        FactMeta {
                            l_root: next_id,
                            w_root: next_id,
                            provenance: Vec::new(),
                        },
                        RuleKind::Warded,
                    ),
                }
            }
            RuleKind::NonLinear => (
                FactMeta {
                    l_root: next_id,
                    w_root: next_id,
                    provenance: Vec::new(),
                },
                RuleKind::NonLinear,
            ),
        };

        match effective_kind {
            RuleKind::Linear | RuleKind::Warded => {
                // Pattern of the linear-forest root: the candidate's own
                // pattern when it roots a fresh tree, otherwise the cached
                // pattern of the registered root.
                let pattern = if meta.l_root == next_id {
                    pattern_key(candidate.fact())
                } else {
                    self.pattern_key_of(meta.l_root)
                };
                if let Some(stops) = self.summary.get(&pattern) {
                    // Beyond a learnt stop provenance: cut without checking.
                    if stops.iter().any(|s| is_prefix(s, &meta.provenance)) {
                        self.stats.pruned_by_provenance += 1;
                        self.stats.suppressed += 1;
                        return false;
                    }
                    // Strictly within a stop provenance: keep exploring, no
                    // isomorphism check needed.
                    if stops
                        .iter()
                        .any(|s| meta.provenance.len() < s.len() && is_prefix(&meta.provenance, s))
                    {
                        self.stats.admitted += 1;
                        self.register(
                            candidate.fact().clone(),
                            candidate.row().to_vec().into_boxed_slice(),
                            meta,
                        );
                        return true;
                    }
                }
                // Local detection: isomorphism check against the fact's tree
                // in the warded forest, comparing cached canonical forms.
                let fact = candidate.fact();
                self.stats.isomorphism_checks += 1;
                let candidate_key = iso_key(fact);
                let found_iso = self.ground.get(&meta.w_root).is_some_and(|tree| {
                    tree.iter().any(|id| {
                        let g = &self.facts[*id];
                        g.predicate == fact.predicate
                            && g.args.len() == fact.args.len()
                            && *self.iso_keys[*id].get_or_init(|| iso_key(g)) == candidate_key
                            && facts_isomorphic(g, fact)
                    })
                });
                if found_iso {
                    // Learn the stop provenance for this pattern.
                    self.summary
                        .entry(pattern)
                        .or_default()
                        .push(meta.provenance.clone());
                    self.stats.stop_provenances += 1;
                    self.stats.suppressed += 1;
                    false
                } else {
                    let w_root = meta.w_root;
                    let id = self.register(
                        fact.clone(),
                        candidate.row().to_vec().into_boxed_slice(),
                        meta,
                    );
                    self.ground.entry(w_root).or_default().push(id);
                    self.stats.admitted += 1;
                    true
                }
            }
            RuleKind::NonLinear => {
                // Other non-linear rules open a new tree of the warded
                // forest; exact duplicates were already filtered above, so
                // the tree is new by construction.
                let id = self.register(
                    candidate.fact().clone(),
                    candidate.row().to_vec().into_boxed_slice(),
                    meta,
                );
                self.ground.entry(id).or_default().push(id);
                self.stats.admitted += 1;
                true
            }
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
#[derive(Clone)]
pub struct TrivialIsoStrategy {
    seen: HashSet<IsoKey>,
    stats: StrategyStats,
}

impl Default for TrivialIsoStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl TrivialIsoStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        TrivialIsoStrategy {
            seen: HashSet::new(),
            stats: StrategyStats::default(),
        }
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

    fn register_base(&mut self, fact: &Fact) {
        self.seen.insert(iso_key(fact));
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
        if self.seen.insert(iso_key(candidate.fact())) {
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
#[derive(Clone)]
pub struct ExactDedupStrategy {
    seen: RowIds,
    stats: StrategyStats,
}

impl Default for ExactDedupStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactDedupStrategy {
    /// Create an empty strategy.
    pub fn new() -> Self {
        ExactDedupStrategy {
            seen: RowIds::default(),
            stats: StrategyStats::default(),
        }
    }
}

impl TerminationStrategy for ExactDedupStrategy {
    fn clone_box(&self) -> Box<dyn TerminationStrategy> {
        Box::new(self.clone())
    }

    fn register_base(&mut self, fact: &Fact) {
        self.seen.insert(fact.predicate, fact.intern_args(), 0);
    }

    fn admit(
        &mut self,
        candidate: &Candidate<'_>,
        _rule_id: u32,
        _kind: RuleKind,
        _linear_parent: Option<ParentRef<'_>>,
        _ward_parent: Option<ParentRef<'_>>,
    ) -> bool {
        if self.seen.contains(candidate.predicate(), candidate.row()) {
            self.stats.duplicates += 1;
            false
        } else {
            self.seen.insert(
                candidate.predicate(),
                candidate.row().to_vec().into_boxed_slice(),
                0,
            );
            self.stats.admitted += 1;
            true
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

    #[test]
    fn warded_strategy_cuts_isomorphic_linear_chains() {
        let mut strategy = WardedStrategy::new();
        let company = Fact::new("Company", vec!["HSBC".into()]);
        strategy.register_base(&company);

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
        strategy.register_base(&c1);
        strategy.register_base(&c2);

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
    fn warded_rules_attach_to_the_ward_parents_tree() {
        let mut strategy = WardedStrategy::new();
        let psc_x = Fact::new("PSC", vec!["HSBC".into(), Value::Null(NullId(0))]);
        strategy.register_base(&Fact::new("Controls", vec!["HSBC".into(), "HSB".into()]));
        strategy.register_base(&psc_x);
        let trees_before = strategy.warded_tree_count();

        // PSC(HSBC, ν0), Controls(HSBC, HSB) → Owns(ν0, ν9, HSB): warded rule
        // whose ward parent is the PSC fact.
        let new_owns = Fact::new(
            "Owns",
            vec![Value::Null(NullId(0)), Value::Null(NullId(9)), "HSB".into()],
        );
        assert!(strategy.admit_fact(&new_owns, 3, RuleKind::Warded, None, Some(&psc_x)));
        // No new tree of the warded forest is created: the fact joins the
        // ward's tree.
        assert_eq!(strategy.warded_tree_count(), trees_before);
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
        strategy.register_base(&Fact::new("Company", vec!["HSBC".into()]));
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
    fn prefix_relation() {
        assert!(is_prefix(&[], &[1, 2]));
        assert!(is_prefix(&[1], &[1, 2]));
        assert!(is_prefix(&[1, 2], &[1, 2]));
        assert!(!is_prefix(&[2], &[1, 2]));
        assert!(!is_prefix(&[1, 2, 3], &[1, 2]));
    }
}
