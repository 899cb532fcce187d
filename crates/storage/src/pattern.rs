//! Interned row patterns: the id-level compilation of an [`Atom`] that the
//! zero-clone join core matches against borrowed relation rows.
//!
//! A [`RowPattern`] maps each argument position of an atom to a [`Slot`]:
//! either an interned constant (`ValueId`, interned once at compile time) or
//! a *variable slot* — an index into a per-rule binding array
//! `[Option<ValueId>]`. Matching a pattern against a borrowed `&[ValueId]`
//! row is then a short loop of `u32` comparisons that binds free slots in
//! place, with an undo trail for backtracking: no `Fact` is cloned, no
//! `Substitution` hash map is touched, and nothing allocates on the
//! per-probe path. Real [`Substitution`]s are materialised from the binding
//! array only for accepted matches (see [`materialise`]).

use crate::store::{FactId, OpenSpans, Probe, RangeFilter, Relation};
use std::collections::HashMap;
use vadalog_model::prelude::*;

/// One argument position of a compiled pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    /// An interned constant the row must equal at this position.
    Const(ValueId),
    /// A variable: index into the rule's binding array.
    Var(usize),
}

impl Slot {
    /// The id this slot is determined to under `binding`: the constant's id,
    /// or the variable's bound id (`None` while unbound).
    pub fn value(self, binding: &[Option<ValueId>]) -> Option<ValueId> {
        match self {
            Slot::Const(c) => Some(c),
            Slot::Var(v) => binding[v],
        }
    }
}

/// An atom compiled against a rule-level variable numbering.
#[derive(Clone, Debug)]
pub struct RowPattern {
    /// The predicate the pattern probes.
    pub predicate: Sym,
    /// One slot per argument position.
    pub slots: Box<[Slot]>,
}

/// Reusable buffers for [`RowPattern::probe_determined`] and
/// [`RowPattern::any_match_with`]: hold one per loop so repeated probes
/// allocate nothing in the steady state.
#[derive(Default, Debug)]
pub struct ProbeBuffers {
    trail: Vec<usize>,
    cols: Vec<usize>,
    key: Vec<ValueId>,
    /// Postings scratch; read a probe's result through [`Probe::as_slice`].
    pub scratch: Vec<FactId>,
}

/// Reusable per-worker join state for the engine's chunked slot-machine
/// join: the binding array, the undo trail, one postings scratch buffer per
/// join depth, the composite probe-key buffer, and the support-vector and
/// match buffers of plans with a leapfrog stage. A worker holds one
/// `JoinScratch` for its whole lifetime and [`JoinScratch::reset`]s it per
/// (filter, chunk) work item, so processing any number of chunks allocates
/// nothing in the steady state — the chunk-scoped counterpart of
/// [`ProbeBuffers`].
#[derive(Default, Debug)]
pub struct JoinScratch {
    /// One slot per rule variable, bound during matching.
    pub binding: Vec<Option<ValueId>>,
    /// Newly-bound slot numbers, for backtracking via [`undo_to`].
    pub trail: Vec<usize>,
    /// Per-join-depth postings buffers (read through [`Probe::as_slice`]).
    pub postings: Vec<Vec<FactId>>,
    /// Composite probe-key buffer (see [`RowPattern::fill_probe_key`]).
    pub key: Vec<ValueId>,
    /// Support facts of the current partial match, one per non-delta join
    /// step (sequence step `s` writes slot `s − 1`).
    pub support: Vec<FactId>,
    /// Flat (levels-wide per match) leapfrog values of the current
    /// leapfrog stage's matches.
    pub corevals: Vec<ValueId>,
    /// Flat (tries-wide per match) leapfrog support facts, parallel to
    /// `corevals`.
    pub corefacts: Vec<FactId>,
    /// Flat (`support`-wide per match) support vectors of the current
    /// delta row's accepted full matches.
    pub keybuf: Vec<FactId>,
    /// `(keybuf offset, binding)` of the current delta row's accepted
    /// matches, sorted by support vector before emission.
    pub pending: Vec<(usize, Vec<Option<ValueId>>)>,
    /// Leaf-facts buffer of the leapfrog's support-fact filter.
    pub leaves: Vec<FactId>,
    /// Hoisted trie open-span memos, one per leapfrog trie of the work item
    /// identified by [`JoinScratch::memo_token`]. Trie cursors are created
    /// fresh per chunk, but consecutive chunks of one filter activation
    /// re-open the same few prefixes against the same frozen runs — the
    /// driver adopts these memos into its cursors on entry and takes them
    /// back on exit, so the per-run binary searches are paid once per
    /// activation instead of once per chunk. Deliberately **not** cleared by
    /// [`JoinScratch::reset`]; a token mismatch clears them instead.
    pub trie_memos: Vec<HashMap<Box<[ValueId]>, OpenSpans>>,
    /// Identity of the work item the memos belong to — the engine keys it
    /// `(filter index, delta position)`, unique within one frozen batch
    /// (a scratch never outlives a batch, so stale-store reuse is
    /// impossible by construction).
    pub memo_token: Option<(usize, usize)>,
}

impl JoinScratch {
    /// Prepare for a job with `slots` variables and `depths` join steps:
    /// every slot unbound, the trail empty, one (cleared) postings buffer
    /// available per depth, one support slot per non-delta step, the match
    /// buffers empty. Capacity is retained across resets; the trie memo
    /// bank survives too (see [`JoinScratch::trie_memos`]).
    pub fn reset(&mut self, slots: usize, depths: usize) {
        self.binding.clear();
        self.binding.resize(slots, None);
        self.trail.clear();
        if self.postings.len() < depths {
            self.postings.resize_with(depths, Vec::new);
        }
        for buf in &mut self.postings {
            buf.clear();
        }
        self.key.clear();
        self.support.clear();
        self.support.resize(depths.saturating_sub(1), FactId(0));
        self.corevals.clear();
        self.corefacts.clear();
        self.keybuf.clear();
        self.pending.clear();
        self.leaves.clear();
    }

    /// Borrow the memo bank for the work item identified by `token`: on a
    /// token match the existing memos are kept (the previous chunk of the
    /// same activation filled them); otherwise the bank is cleared and
    /// resized to `tries` empty memos. Always leaves exactly `tries` memos.
    pub fn memo_bank(
        &mut self,
        token: (usize, usize),
        tries: usize,
    ) -> &mut [HashMap<Box<[ValueId]>, OpenSpans>] {
        if self.memo_token != Some(token) || self.trie_memos.len() != tries {
            self.trie_memos.clear();
            self.trie_memos.resize_with(tries, HashMap::new);
            self.memo_token = Some(token);
        }
        &mut self.trie_memos
    }
}

/// Assign a dense slot number to every distinct variable of `atoms`
/// (first-occurrence order), shared by all patterns of one rule.
pub fn number_variables(atoms: &[&Atom]) -> HashMap<Var, usize> {
    let mut slots = HashMap::new();
    for atom in atoms {
        for v in atom.variables() {
            let next = slots.len();
            slots.entry(v).or_insert(next);
        }
    }
    slots
}

impl RowPattern {
    /// Compile `atom`, interning its constants once. Variables missing from
    /// `slots` (possible for negated atoms whose variables never occur
    /// positively) must have been numbered by [`number_variables`] too — pass
    /// all atoms of the rule there.
    pub fn compile(atom: &Atom, slots: &HashMap<Var, usize>) -> RowPattern {
        RowPattern {
            predicate: atom.predicate,
            slots: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Slot::Const(intern_value(c)),
                    Term::Var(v) => Slot::Var(slots[v]),
                })
                .collect(),
        }
    }

    /// Try to extend `binding` so this pattern matches `row`.
    ///
    /// On success returns `true` with newly-bound slot numbers appended to
    /// `trail` (so the caller can backtrack with [`undo_to`]). On failure
    /// returns `false` with `binding` and `trail` exactly as before the call.
    pub fn match_row(
        &self,
        row: &[ValueId],
        binding: &mut [Option<ValueId>],
        trail: &mut Vec<usize>,
    ) -> bool {
        if self.slots.len() != row.len() {
            return false;
        }
        let mark = trail.len();
        for (slot, v) in self.slots.iter().zip(row.iter()) {
            let ok = match slot {
                Slot::Const(c) => c == v,
                Slot::Var(s) => match binding[*s] {
                    Some(bound) => bound == *v,
                    None => {
                        binding[*s] = Some(*v);
                        trail.push(*s);
                        true
                    }
                },
            };
            if !ok {
                undo_to(binding, trail, mark);
                return false;
            }
        }
        true
    }

    /// Instantiate this pattern under `binding` into a concrete row:
    /// constants copy their interned id, variables copy their bound id.
    /// `None` if any variable slot is unbound (mirrors `Atom::apply`
    /// returning `None` on an incomplete substitution).
    pub fn instantiate(&self, binding: &[Option<ValueId>]) -> Option<Box<[ValueId]>> {
        self.slots
            .iter()
            .map(|s| match s {
                Slot::Const(c) => Some(*c),
                Slot::Var(v) => binding[*v],
            })
            .collect::<Option<Vec<ValueId>>>()
            .map(Vec::into_boxed_slice)
    }

    /// Fill `key` with the probe key of `cols` under `binding`: the id each
    /// column is determined to (constant or bound variable). Returns `false`
    /// (leaving `key` truncated) if any of the columns is still free — the
    /// probe-key half of the pattern's prefix/range probe modes.
    pub fn fill_probe_key(
        &self,
        cols: &[usize],
        binding: &[Option<ValueId>],
        key: &mut Vec<ValueId>,
    ) -> bool {
        key.clear();
        for col in cols {
            match self.slots.get(*col).and_then(|s| s.value(binding)) {
                Some(id) => key.push(id),
                None => return false,
            }
        }
        true
    }

    /// Probe `relation` on every column this pattern already determines
    /// under `binding` (constants and bound variables): the composite index
    /// over exactly those columns when it exists, else any single determined
    /// column's index. `None` when no determined column has an index (the
    /// caller scans). The shared probe-selection strategy of the negation
    /// probe and the chase's left-to-right join.
    pub fn probe_determined<'r>(
        &self,
        relation: &'r Relation,
        binding: &[Option<ValueId>],
        bufs: &mut ProbeBuffers,
    ) -> Option<Probe<'r>> {
        bufs.cols.clear();
        bufs.key.clear();
        for (col, s) in self.slots.iter().enumerate() {
            if let Some(id) = s.value(binding) {
                bufs.cols.push(col);
                bufs.key.push(id);
            }
        }
        if bufs.cols.is_empty() {
            return None;
        }
        relation
            .probe_if_indexed(&bufs.cols, &bufs.key, None, &mut bufs.scratch)
            .or_else(|| {
                bufs.cols.iter().zip(&bufs.key).find_map(|(col, id)| {
                    relation.probe_if_indexed(&[*col], &[*id], None, &mut bufs.scratch)
                })
            })
    }

    /// Does any row of `relation` match this pattern under `binding`?
    ///
    /// Used for negation probes: prefers one composite probe over all
    /// determined columns (constants and bound variables) when that index
    /// exists, then any single determined column's index, falling back to a
    /// scan of the row table — never cloning a fact either way. `binding` is
    /// left untouched. Allocates its buffers per call; hot paths should hold
    /// a [`ProbeBuffers`] and use [`RowPattern::any_match_with`].
    pub fn any_match(&self, relation: &Relation, binding: &mut [Option<ValueId>]) -> bool {
        self.any_match_with(relation, binding, &mut ProbeBuffers::default())
    }

    /// [`RowPattern::any_match`] with caller-owned reusable buffers (no
    /// allocation in the steady state).
    pub fn any_match_with(
        &self,
        relation: &Relation,
        binding: &mut [Option<ValueId>],
        bufs: &mut ProbeBuffers,
    ) -> bool {
        bufs.trail.clear();
        match self.probe_determined(relation, binding, bufs) {
            Some(hit) => {
                let ProbeBuffers { trail, scratch, .. } = bufs;
                let ids: &[FactId] = hit.as_slice(scratch);
                ids.iter().any(|id| {
                    let matched = self.match_row(relation.row(*id), binding, trail);
                    undo_to(binding, trail, 0);
                    matched
                })
            }
            None => relation.iter_rows().any(|row| {
                let hit = self.match_row(row, binding, &mut bufs.trail);
                undo_to(binding, &mut bufs.trail, 0);
                hit
            }),
        }
    }

    /// Probe `relation` for the rows matching this pattern under `binding`,
    /// using the index over `cols` (exact prefix plus optional range on the
    /// following column) — the pattern-level face of the sorted-run probe
    /// API. `None` when the index is missing or a prefix column is unbound;
    /// the ids come back in ascending [`FactId`] order.
    #[allow(clippy::too_many_arguments)]
    pub fn probe<'r>(
        &self,
        relation: &'r Relation,
        cols: &[usize],
        prefix_len: usize,
        range: Option<&RangeFilter>,
        key: &mut Vec<ValueId>,
        binding: &[Option<ValueId>],
        out: &mut Vec<FactId>,
    ) -> Option<Probe<'r>> {
        if !self.fill_probe_key(&cols[..prefix_len], binding, key) {
            return None;
        }
        relation.probe_if_indexed(cols, key, range, out)
    }
}

/// Unbind every slot recorded in `trail` past `mark`, truncating the trail.
pub fn undo_to(binding: &mut [Option<ValueId>], trail: &mut Vec<usize>, mark: usize) {
    for s in trail.drain(mark..) {
        binding[s] = None;
    }
}

/// Materialise a real [`Substitution`] from a binding array — the API
/// boundary where interned ids become values again. Called once per accepted
/// match, never per probe.
pub fn materialise(slots: &HashMap<Var, usize>, binding: &[Option<ValueId>]) -> Substitution {
    let mut subst = Substitution::new();
    for (var, slot) in slots {
        if let Some(id) = binding[*slot] {
            subst.bind(*var, resolve_value(id));
        }
    }
    subst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::vars(pred, vars)
    }

    #[test]
    fn match_binds_and_backtracks() {
        let a = atom("P", &["x", "y"]);
        let slots = number_variables(&[&a]);
        let p = RowPattern::compile(&a, &slots);
        let row = [Value::Int(1).interned(), Value::Int(2).interned()];
        let mut binding = vec![None; slots.len()];
        let mut trail = Vec::new();
        assert!(p.match_row(&row, &mut binding, &mut trail));
        assert_eq!(trail.len(), 2);
        assert_eq!(binding[slots[&Var::new("x")]], Some(row[0]));
        undo_to(&mut binding, &mut trail, 0);
        assert!(binding.iter().all(Option::is_none));
    }

    #[test]
    fn repeated_variables_force_equality() {
        let a = atom("P", &["x", "x"]);
        let slots = number_variables(&[&a]);
        let p = RowPattern::compile(&a, &slots);
        let eq = [Value::Int(3).interned(), Value::Int(3).interned()];
        let ne = [Value::Int(3).interned(), Value::Int(4).interned()];
        let mut binding = vec![None; slots.len()];
        let mut trail = Vec::new();
        assert!(p.match_row(&eq, &mut binding, &mut trail));
        undo_to(&mut binding, &mut trail, 0);
        assert!(!p.match_row(&ne, &mut binding, &mut trail));
        // failed match must leave no residue
        assert!(binding.iter().all(Option::is_none));
        assert!(trail.is_empty());
    }

    #[test]
    fn constants_are_compiled_to_ids() {
        let a = Atom::new("P", vec![Term::constant("k"), Term::var("y")]);
        let slots = number_variables(&[&a]);
        let p = RowPattern::compile(&a, &slots);
        let good = [Value::str("k").interned(), Value::Int(9).interned()];
        let bad = [Value::str("other").interned(), Value::Int(9).interned()];
        let mut binding = vec![None; slots.len()];
        let mut trail = Vec::new();
        assert!(p.match_row(&good, &mut binding, &mut trail));
        undo_to(&mut binding, &mut trail, 0);
        assert!(!p.match_row(&bad, &mut binding, &mut trail));
    }

    #[test]
    fn any_match_probes_relation() {
        let mut rel = Relation::new();
        rel.insert(Fact::new("Q", vec!["a".into(), 1i64.into()]));
        rel.insert(Fact::new("Q", vec!["b".into(), 2i64.into()]));
        let a = atom("Q", &["u", "w"]);
        let b = Atom::new("Q", vec![Term::constant("b"), Term::var("w")]);
        let c = Atom::new("Q", vec![Term::constant("zz"), Term::var("w")]);
        let slots = number_variables(&[&a, &b, &c]);
        let mut binding = vec![None; slots.len()];
        assert!(RowPattern::compile(&a, &slots).any_match(&rel, &mut binding));
        assert!(RowPattern::compile(&b, &slots).any_match(&rel, &mut binding));
        assert!(!RowPattern::compile(&c, &slots).any_match(&rel, &mut binding));
        // with an index present the probe path is exercised
        rel.ensure_index(&[0]);
        assert!(RowPattern::compile(&b, &slots).any_match(&rel, &mut binding));
        assert!(!RowPattern::compile(&c, &slots).any_match(&rel, &mut binding));
        assert!(binding.iter().all(Option::is_none));
    }

    #[test]
    fn materialise_resolves_only_bound_slots() {
        let a = atom("P", &["x", "y"]);
        let slots = number_variables(&[&a]);
        let mut binding = vec![None; slots.len()];
        binding[slots[&Var::new("x")]] = Some(Value::str("v").interned());
        let subst = materialise(&slots, &binding);
        assert_eq!(subst.get(Var::new("x")), Some(&Value::str("v")));
        assert_eq!(subst.get(Var::new("y")), None);
    }
}
