//! The reasoning access plan: the logic compiler and execution optimizer
//! (Section 4, steps 2 and 3).

use std::collections::{BTreeMap, BTreeSet};
use vadalog_analysis::{analyze_program, rule_strata, ProgramWardedness};
use vadalog_model::prelude::*;

/// The join order chosen for one rule: a permutation of the body-atom
/// indices, to be probed left to right.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JoinOrder(pub Vec<usize>);

impl JoinOrder {
    /// Greedy bound-variables-first ordering: start from the atom with the
    /// most constants (most selective), then repeatedly pick the atom sharing
    /// the most variables with what is already bound — the execution
    /// optimizer's join rearrangement.
    pub fn optimize(rule: &Rule) -> JoinOrder {
        let atoms = rule.body_atoms();
        if atoms.len() <= 1 {
            return JoinOrder((0..atoms.len()).collect());
        }
        let mut remaining: Vec<usize> = (0..atoms.len()).collect();
        let mut order = Vec::with_capacity(atoms.len());
        let mut bound: BTreeSet<Var> = BTreeSet::new();

        // first: most constants, break ties by fewer variables
        remaining.sort_by_key(|&i| {
            let a = &atoms[i];
            let consts = a.constants().count();
            (std::cmp::Reverse(consts), a.variable_set().len())
        });
        let first = remaining.remove(0);
        bound.extend(atoms[first].variables());
        order.push(first);

        while !remaining.is_empty() {
            // pick the atom sharing the most variables with `bound`
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, &i)| atoms[i].variable_set().intersection(&bound).count())
                .map(|(pos, i)| (pos, *i))
                .unwrap();
            let chosen = remaining.remove(pos);
            bound.extend(atoms[chosen].variables());
            order.push(chosen);
        }
        JoinOrder(order)
    }
}

/// The bound side of a pushable condition: a constant, or a variable that is
/// join-bound by the positive body.
#[derive(Clone, Debug)]
pub enum BoundTerm {
    /// A constant bound, known at compile time.
    Const(Value),
    /// A variable bound, resolved from the join binding at probe time.
    Var(Var),
}

/// A body condition the planner classified as **index-pushable**: normalised
/// to `var op bound`, with `var` bound by a positive body atom and `bound`
/// either a constant or another join-bound variable. Pushed conditions are
/// enforced at the id level inside the join (as index range probes where the
/// operator is an ordering, as cheap id-comparison guards always) and are
/// skipped by the residual, substitution-level evaluation in emission.
#[derive(Clone, Debug)]
pub struct PushedCondition {
    /// Index of the condition in the rule's body literal list.
    pub literal: usize,
    /// The probed variable.
    pub var: Var,
    /// The comparison, normalised so it reads `var op bound`.
    pub op: CmpOp,
    /// The other side.
    pub bound: BoundTerm,
}

impl PushedCondition {
    /// Can this condition drive an index range scan (ordering operators)?
    /// Equality/inequality conditions are guard-only.
    pub fn is_rangeable(&self) -> bool {
        matches!(self.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
    }
}

/// The probe the planner chose for one join step: an exact composite prefix
/// over the columns already determined when the step runs, plus at most one
/// pushed range condition on a free column.
#[derive(Clone, Debug, Default)]
pub struct StepProbe {
    /// Columns probed exactly (constants and variables bound by earlier
    /// steps), in ascending column order.
    pub prefix_cols: Vec<usize>,
    /// The pushed range condition this step probes with, as `(column,
    /// index into the filter's `pushed` list)`: the first viable one in
    /// body order. Every other pushable condition stays an id-level guard.
    pub range: Option<(usize, usize)>,
    /// The range probes the condition's *bound* variable (var-var condition
    /// used in the mirrored orientation: `w <= v` probing `v >= w`).
    pub range_flipped: bool,
}

impl StepProbe {
    /// The column list of the index this probe needs (prefix columns plus
    /// the range column, if any).
    pub fn index_cols(&self) -> Vec<usize> {
        let mut cols = self.prefix_cols.clone();
        if let Some((col, _)) = self.range {
            cols.push(col);
        }
        cols
    }
}

/// One step of a delta-join evaluation order: which body atom runs, how it
/// is probed, and which pushed conditions become checkable once the step's
/// variables are bound.
#[derive(Clone, Debug)]
pub struct StepPlan {
    /// Body-atom position this step matches.
    pub atom: usize,
    /// Position of the atom in the delta position's canonical sequence
    /// (`[delta] ++ join order`): where the step's support fact lands in
    /// the support vector that fixes the emission order. Equal to the step
    /// index unless the plan was reordered.
    pub canonical: usize,
    /// The chosen index probe (empty for the delta scan at step 0).
    pub probe: StepProbe,
    /// Pushed conditions (indices into the filter's `pushed` list) whose
    /// variables are all bound after this step — checked as id-level guards
    /// immediately after each successful match of the step.
    pub guards: Vec<usize>,
}

/// One atom's trie in the intersect stage of a free-join plan: which columns
/// are determined before the stage opens (the cursor's `open` prefix) and
/// which carry the free variables the leapfrog intersects.
#[derive(Clone, Debug)]
pub struct TriePlan {
    /// Body-atom position this trie matches.
    pub atom: usize,
    /// Columns bound before the leapfrog runs — constants and variables of
    /// the delta atom or a prefix ear — in ascending column order.
    pub bound_cols: Vec<usize>,
    /// The remaining columns, keyed by their variable. The trie's index
    /// column list is `bound_cols` followed by these columns ordered by the
    /// plan's variable order ([`HybridPlan::trie_cols`]).
    pub var_cols: Vec<(Var, usize)>,
}

/// The **free-join** plan of one delta position, chosen by the planner when
/// the body's join hypergraph is cyclic: binary probe steps for the acyclic
/// *ears* of the body, wrapped around a leapfrog stage over only the
/// **cyclic core** (the irreducible residue of GYO ear reduction — see
/// `vadalog_analysis::cyclic_core`), where binary joins pay the classic
/// intermediate-result blowup. A lollipop body (triangle plus a pendant
/// path) runs the triangle worst-case-optimally while the pendant atoms
/// keep their cheap index probes; a fully cyclic body (triangle, clique)
/// is the degenerate case with no ears — every non-delta atom is a core
/// trie. Acyclic bodies have no such plan: the all-probe step list is
/// already worst-case optimal for them.
#[derive(Clone, Debug)]
pub struct HybridPlan {
    /// Step indices (into [`DeltaPlan::steps`]) of the leading ear steps
    /// probed binary-style *before* the leapfrog, in evaluation order. Their
    /// variables count as bound in the core tries' `bound_cols`.
    pub prefix_steps: Vec<usize>,
    /// Free variables of the core tries with their degree (number of core
    /// tries containing them), descending degree, first-occurrence
    /// tie-break: the leapfrog's level order, as the pipeline runs it.
    /// Higher degree first maximises early intersection pruning.
    pub var_order: Vec<(Var, usize)>,
    /// One trie per core atom other than the delta atom, in evaluation
    /// order. `bound_cols` covers constants plus variables bound by the
    /// delta atom or a prefix step (never by a suffix ear, even when that
    /// ear precedes the core atom in the binary sequence — the executor
    /// runs every suffix ear after the leapfrog).
    pub tries: Vec<TriePlan>,
    /// Step indices of the remaining ear steps, probed binary-style *after*
    /// the leapfrog, in evaluation order. Every variable a suffix step's
    /// probe or guards need is bound by then: the executor runs all
    /// sequence-earlier atoms (prefix, core, earlier suffix ears) first, a
    /// superset of the binary plan's bound set at that step.
    pub suffix_steps: Vec<usize>,
    /// Body atoms outside the cyclic core: the prefix and suffix steps,
    /// plus the delta atom when it is an ear itself. 0 for a fully cyclic
    /// body.
    pub ears: usize,
}

impl HybridPlan {
    /// The core variable order of [`HybridPlan::var_order`] without the
    /// degrees: descending degree, first occurrence within equal degrees.
    pub fn static_order(&self) -> Vec<Var> {
        self.var_order.iter().map(|(v, _)| *v).collect()
    }

    /// Does the body have acyclic ears around the core? `false` for a fully
    /// cyclic body, whose every atom is a core atom.
    pub fn has_ears(&self) -> bool {
        self.ears > 0
    }

    /// The index column list of `trie` under the variable order `order`:
    /// the bound prefix, then the variable columns sorted by their
    /// variable's position in `order`.
    pub fn trie_cols(trie: &TriePlan, order: &[Var]) -> Vec<usize> {
        let mut cols = trie.bound_cols.clone();
        let mut vcols: Vec<(usize, usize)> = trie
            .var_cols
            .iter()
            .map(|(v, c)| {
                let rank = order
                    .iter()
                    .position(|u| u == v)
                    .expect("every trie variable appears in the order");
                (rank, *c)
            })
            .collect();
        vcols.sort_unstable();
        cols.extend(vcols.into_iter().map(|(_, c)| c));
        cols
    }
}

/// The planned evaluation order for one delta position of the semi-naive
/// join, probing outward from the delta atom: the delta atom first, then
/// the remaining atoms in join order, except that an atom with no
/// determined column (no constant, no variable bound so far) is put off
/// while a remaining atom has one. A position with a free-join plan keeps
/// the canonical sequence (`[delta] ++ join order`) unchanged. Each step
/// carries its probe, its guards and its atom's canonical position, which
/// keeps the support vector, and with it the emission order, that of the
/// canonical plan.
#[derive(Clone, Debug)]
pub struct DeltaPlan {
    /// Steps in evaluation order; `steps[0]` scans the delta window.
    pub steps: Vec<StepPlan>,
    /// The free-join alternative to `steps[1..]`, present iff the body has
    /// a cyclic core whose non-delta atoms are all trie-compatible (no
    /// repeated variables). The pipeline takes it when the stores can hand
    /// out trie cursors; `steps` remains the always-valid fallback, and
    /// keeps the canonical sequence.
    pub hybrid: Option<HybridPlan>,
    /// Do the steps run in an order other than the canonical sequence? The
    /// executor then sorts each delta row's matches by their canonical
    /// support vector, as it does for an intersect stage.
    pub reordered: bool,
}

/// Longest composite prefix the planner probes (diminishing selectivity
/// returns against index build cost beyond a few columns).
const MAX_PROBE_PREFIX: usize = 3;

/// Fewest delta rows an intra-filter chunk carries: a chunk smaller than
/// this costs more to schedule than to join inline.
const CHUNK_MIN_ROWS: usize = 8;

/// Number of contiguous chunks a delta window of `rows` rows is split into
/// for the intra-filter parallel join: `rows / CHUNK_MIN_ROWS`, clamped to
/// `[1, parallelism]`. `parallelism` is the worker count
/// ([`crate::ReasonerOptions::parallelism`]); 1 disables sharding.
///
/// The count depends on the window length and the worker count alone —
/// never on the plan, index statistics, run history or scheduling — and
/// chunks are re-concatenated in order, so every merged buffer and instance
/// statistic is identical at every thread count.
pub fn plan_chunk_count(rows: usize, parallelism: usize) -> usize {
    (rows / CHUNK_MIN_ROWS).clamp(1, parallelism.max(1))
}

/// Split the window `[from, to)` into `chunks` contiguous, near-equal-length
/// windows, earlier windows absorbing the remainder. Concatenating the
/// windows in order reproduces `[from, to)` exactly — the property that
/// makes a chunked join's merge bit-identical to the sequential scan.
pub fn chunk_windows(from: usize, to: usize, chunks: usize) -> Vec<(usize, usize)> {
    let len = to.saturating_sub(from);
    let k = chunks.clamp(1, len.max(1));
    let (base, rem) = (len / k, len % k);
    let mut out = Vec::with_capacity(k);
    let mut start = from;
    for i in 0..k {
        let size = base + usize::from(i < rem);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// One filter of the reasoning access plan (a node of the pipeline).
#[derive(Clone, Debug)]
pub struct FilterNode {
    /// Index of the rule this filter evaluates.
    pub rule_id: u32,
    /// The rule itself.
    pub rule: Rule,
    /// The chosen join order over the rule's body atoms.
    pub join_order: JoinOrder,
    /// Predicates this filter reads (its pipes from other filters/sources).
    pub inputs: BTreeSet<Sym>,
    /// Predicates this filter writes.
    pub outputs: BTreeSet<Sym>,
    /// Does the rule carry a monotonic aggregation?
    pub has_aggregation: bool,
    /// Conditions classified as index-pushable (see [`PushedCondition`]);
    /// the remaining conditions stay residual and are evaluated in emission,
    /// on the narrowed candidate set only: on ids when both sides are
    /// variables or constants, otherwise over the values of the variables
    /// they read.
    pub pushed: Vec<PushedCondition>,
    /// Per-delta-position probe/guard plans, indexed by body-atom position.
    pub delta_plans: Vec<DeltaPlan>,
}

impl FilterNode {
    /// Compile rule `rule_id` into a filter: its pipes, join order, pushed
    /// conditions and per-delta-position probe plans. TGDs and checks
    /// (constraints, EGDs) compile alike; a check has no outputs.
    fn compile(rule_id: u32, rule: &Rule) -> FilterNode {
        let join_order = JoinOrder::optimize(rule);
        let pushed = classify_conditions(rule);
        let delta_plans = plan_deltas(rule, &join_order, &pushed);
        FilterNode {
            rule_id,
            inputs: rule
                .body_predicates()
                .into_iter()
                .chain(rule.negated_atoms().iter().map(|a| a.predicate))
                .collect(),
            outputs: rule.head_predicates().into_iter().collect(),
            join_order,
            has_aggregation: rule.has_aggregation(),
            pushed,
            delta_plans,
            rule: rule.clone(),
        }
    }

    /// Would this filter read any of `outputs`? Used by the parallel sweep
    /// to bound a batch: a filter whose inputs (positive or negated body
    /// predicates) intersect the outputs already produced inside the batch
    /// must not share it — it has to see those inserts before joining.
    pub fn reads_any(&self, outputs: &BTreeSet<Sym>) -> bool {
        self.inputs.intersection(outputs).next().is_some()
    }

    /// The body position a check is driven by: its join order's first
    /// atom, the one delta position a check's run compiles and probes
    /// from. `None` for a body with no positive atom.
    pub fn check_driver(&self) -> Option<usize> {
        self.join_order.0.first().copied()
    }

    /// The body position a fold-stratum run drives from: the one whose
    /// relation has the fewest rows (`rows[pos]`), the first on ties.
    /// `None` for a body with no positive atom.
    pub fn final_driver(&self, rows: &[usize]) -> Option<usize> {
        (0..rows.len()).min_by_key(|&pos| rows[pos])
    }
}

/// Is `rule` shaped so that its aggregate's final value per group is the
/// only value a sink needs, computed by one pass over the complete
/// relations? It has exactly one aggregate, `mcount`, `mmax`, `mmin` or
/// `munion`; every body literal after the aggregate is a positive atom or a
/// comparison of the aggregate variable with a constant that stays true as
/// the value grows (`>`/`>=` for `mcount` and `mmax`, `<`/`<=` for `mmin`,
/// none for `munion`), in either operand order; no atom is negated; and the
/// rule invents no null. Folding a member twice leaves these four
/// aggregates unchanged, so re-running a group's first match after the
/// pass reads the final value.
pub fn folds_to_final(rule: &Rule) -> bool {
    if !rule.negated_atoms().is_empty() || rule_invents_nulls(rule) {
        return false;
    }
    let mut aggregates = rule.body.iter().enumerate().filter_map(|(i, l)| match l {
        Literal::Assignment(a) if a.expr.contains_aggregate() => Some((i, a)),
        _ => None,
    });
    let (Some((at, assignment)), None) = (aggregates.next(), aggregates.next()) else {
        return false;
    };
    let Some(aggregate) = assignment.aggregate() else {
        return false;
    };
    let growing: &[CmpOp] = match aggregate.func {
        AggFunc::MCount | AggFunc::MMax => &[CmpOp::Gt, CmpOp::Ge],
        AggFunc::MMin => &[CmpOp::Lt, CmpOp::Le],
        AggFunc::MUnion => &[],
        AggFunc::MSum | AggFunc::MProd => return false,
    };
    let is_var = |e: &Expr| matches!(e, Expr::Term(Term::Var(v)) if *v == assignment.var);
    rule.body[at + 1..].iter().all(|l| match l {
        Literal::Atom(_) => true,
        Literal::Condition(c) => {
            let op = if is_var(&c.left) && literal_constant(&c.right).is_some() {
                Some(c.op)
            } else if is_var(&c.right) && literal_constant(&c.left).is_some() {
                Some(c.op.flipped())
            } else {
                None
            };
            op.is_some_and(|op| growing.contains(&op))
        }
        _ => false,
    })
}

/// Classify the rule's conditions into index-pushable vs residual.
///
/// A condition is pushable when it is shaped `var op bound` (possibly
/// mirrored — the operator is flipped) with `var` bound by a positive body
/// atom, `bound` a constant or another positively-bound variable, neither
/// side defined by an assignment, and no *stateful* assignment (monotonic
/// aggregation or Skolem term, whose evaluation order is observable)
/// occurring earlier in the body: pushing a condition past one would change
/// which matches feed the aggregate/Skolem state. Everything else stays
/// residual and is evaluated in body order by emission, on the match's id
/// binding (an expression operand resolves only the variables it reads).
fn classify_conditions(rule: &Rule) -> Vec<PushedCondition> {
    let positive: BTreeSet<Var> = rule
        .body_atoms()
        .iter()
        .flat_map(|a| a.variables())
        .collect();
    let assigned: BTreeSet<Var> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Assignment(a) => Some(a.var),
            _ => None,
        })
        .collect();
    let first_stateful = rule
        .body
        .iter()
        .position(|l| {
            matches!(l, Literal::Assignment(a)
                if a.expr.contains_aggregate() || a.expr.contains_skolem())
        })
        .unwrap_or(usize::MAX);

    let joinable = |v: &Var| positive.contains(v) && !assigned.contains(v);
    let mut pushed = Vec::new();
    for (literal, l) in rule.body.iter().enumerate() {
        let Literal::Condition(cond) = l else {
            continue;
        };
        if literal > first_stateful {
            continue;
        }
        let normalised = match (&cond.left, &cond.right) {
            (Expr::Term(Term::Var(v)), Expr::Term(Term::Var(u))) => {
                Some((*v, cond.op, BoundTerm::Var(*u)))
            }
            (Expr::Term(Term::Var(v)), rhs) => {
                literal_constant(rhs).map(|c| (*v, cond.op, BoundTerm::Const(c)))
            }
            (lhs, Expr::Term(Term::Var(v))) => {
                literal_constant(lhs).map(|c| (*v, cond.op.flipped(), BoundTerm::Const(c)))
            }
            _ => None,
        };
        let Some((var, op, bound)) = normalised else {
            continue;
        };
        if !joinable(&var) {
            continue;
        }
        if let BoundTerm::Var(u) = &bound {
            if !joinable(u) {
                continue;
            }
        }
        pushed.push(PushedCondition {
            literal,
            var,
            op,
            bound,
        });
    }
    pushed
}

/// The literal constant an expression denotes, folding the parser's
/// `Unary(Neg, Const)` shape for negative numbers.
pub(crate) fn literal_constant(e: &Expr) -> Option<Value> {
    match e {
        Expr::Term(Term::Const(c)) => Some(c.clone()),
        Expr::Unary(UnaryOp::Neg, inner) => match inner.as_ref() {
            Expr::Term(Term::Const(Value::Int(i))) => Some(Value::Int(-i)),
            Expr::Term(Term::Const(Value::Float(f))) => Some(Value::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

/// The free-join plan for one delta position, or `None` when the cyclic
/// `core` (body-atom positions, from `vadalog_analysis::cyclic_core`) is
/// empty or some non-delta core atom is trie-incompatible (repeated
/// variables — a trie column cannot enforce intra-atom equality).
/// `sequence` is the binary evaluation order (`[delta] ++ join order`);
/// ears and tries follow it so the executor can sort each delta row's
/// matches into exactly the binary join's enumeration order. A core that
/// covers the whole body yields the plan with no ears.
fn plan_hybrid(rule: &Rule, sequence: &[usize], core: &[usize]) -> Option<HybridPlan> {
    let atoms = rule.body_atoms();
    if core.is_empty() {
        return None;
    }
    let is_core = |pos: usize| core.contains(&pos);
    // Variables bound before the leapfrog: the delta atom's, plus those of
    // the maximal leading run of ear steps.
    let mut bound = atoms[sequence[0]].variable_set();
    let mut prefix_steps = Vec::new();
    let mut s = 1;
    while s < sequence.len() && !is_core(sequence[s]) {
        prefix_steps.push(s);
        bound.extend(atoms[sequence[s]].variables());
        s += 1;
    }
    let mut tries = Vec::new();
    let mut suffix_steps = Vec::new();
    for (step, &pos) in sequence.iter().enumerate().skip(s) {
        if !is_core(pos) {
            suffix_steps.push(step);
            continue;
        }
        let atom = atoms[pos];
        let mut seen = BTreeSet::new();
        if atom.variables().any(|v| !seen.insert(v)) {
            return None;
        }
        let mut bound_cols = Vec::new();
        let mut var_cols = Vec::new();
        for (col, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Const(_) => bound_cols.push(col),
                Term::Var(v) if bound.contains(v) => bound_cols.push(col),
                Term::Var(v) => var_cols.push((*v, col)),
            }
        }
        tries.push(TriePlan {
            atom: pos,
            bound_cols,
            var_cols,
        });
    }
    if tries.len() < 2 {
        return None;
    }
    // Free variables in first-occurrence (trie) order, with their degree;
    // descending degree, stable within equal degrees.
    let mut var_order: Vec<(Var, usize)> = Vec::new();
    for trie in &tries {
        for (v, _) in &trie.var_cols {
            match var_order.iter_mut().find(|(u, _)| u == v) {
                Some((_, d)) => *d += 1,
                None => var_order.push((*v, 1)),
            }
        }
    }
    var_order.sort_by_key(|(_, d)| std::cmp::Reverse(*d));
    Some(HybridPlan {
        prefix_steps,
        var_order,
        tries,
        suffix_steps,
        ears: atoms.len() - core.len(),
    })
}

/// The delta-aware probe order of one delta position: walk the canonical
/// sequence (`[delta] ++ join order`) from the delta atom, taking next the
/// first remaining atom with a determined column (a constant, or a variable
/// bound so far), and only when none has one the first remaining atom. An
/// atom that shares nothing with the bindings so far would otherwise scan
/// (or range-scan) its whole relation once per partial match, leaving the
/// rejection to a later atom.
fn probe_outward(atoms: &[&Atom], canonical: &[usize]) -> Vec<usize> {
    let mut bound = atoms[canonical[0]].variable_set();
    let mut remaining = canonical[1..].to_vec();
    let mut sequence = vec![canonical[0]];
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .position(|&pos| {
                atoms[pos].terms.iter().any(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
            })
            .unwrap_or(0);
        let pos = remaining.remove(next);
        bound.extend(atoms[pos].variables());
        sequence.push(pos);
    }
    sequence
}

/// Plan the probe and guard placement for every delta position of the
/// semi-naive join: for each evaluation order — the canonical sequence
/// (`[delta] ++ join order`) when the body gets a free-join plan there (see
/// [`plan_hybrid`]), its [`probe_outward`] order otherwise — pick per step
/// the exact composite prefix (bound variables and constants, ascending
/// columns, capped at [`MAX_PROBE_PREFIX`]), attach at most one rangeable
/// pushed condition on a free column whose bound side is already
/// determined, and schedule every pushed condition as a guard at the first
/// step where all its variables are bound.
fn plan_deltas(rule: &Rule, join_order: &JoinOrder, pushed: &[PushedCondition]) -> Vec<DeltaPlan> {
    let atoms = rule.body_atoms();
    let core = if atoms.len() >= 3 {
        vadalog_analysis::cyclic_core(&atoms)
    } else {
        Vec::new()
    };
    let mut plans = Vec::with_capacity(atoms.len());
    for delta in 0..atoms.len() {
        let canonical: Vec<usize> = std::iter::once(delta)
            .chain(join_order.0.iter().copied().filter(|p| *p != delta))
            .collect();
        let hybrid = plan_hybrid(rule, &canonical, &core);
        let sequence = if hybrid.is_some() {
            canonical.clone()
        } else {
            probe_outward(&atoms, &canonical)
        };
        let mut bound: BTreeSet<Var> = BTreeSet::new();
        let mut pending: Vec<usize> = (0..pushed.len()).collect();
        let mut steps = Vec::with_capacity(sequence.len());
        for (s, &atom_idx) in sequence.iter().enumerate() {
            let atom = atoms[atom_idx];
            let probe = if s == 0 {
                StepProbe::default()
            } else {
                let prefix_cols: Vec<usize> = atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    })
                    .map(|(col, _)| col)
                    .take(MAX_PROBE_PREFIX)
                    .collect();
                // A pushed range condition on a still-free column of this
                // atom whose bound side is already determined. Var-var
                // conditions range in either orientation (`w <= v` probes
                // `v >= w` when `w` is the side already bound).
                let range_col = |probe_var: Var, other_ready: bool| -> Option<usize> {
                    if !other_ready || bound.contains(&probe_var) {
                        return None;
                    }
                    atom.terms.iter().enumerate().find_map(|(col, t)| {
                        (t.as_var() == Some(probe_var) && !prefix_cols.contains(&col))
                            .then_some(col)
                    })
                };
                // The first viable condition in body order; a var-var one
                // ranges forward when it can, mirrored otherwise.
                let range = pending.iter().copied().find_map(|c| {
                    let cond = &pushed[c];
                    if !cond.is_rangeable() {
                        return None;
                    }
                    let forward = range_col(
                        cond.var,
                        match &cond.bound {
                            BoundTerm::Const(_) => true,
                            BoundTerm::Var(u) => bound.contains(u),
                        },
                    );
                    let flipped = match &cond.bound {
                        BoundTerm::Var(u) => range_col(*u, bound.contains(&cond.var)),
                        BoundTerm::Const(_) => None,
                    };
                    forward
                        .map(|col| (col, c, false))
                        .or(flipped.map(|col| (col, c, true)))
                });
                StepProbe {
                    prefix_cols,
                    range: range.map(|(col, c, _)| (col, c)),
                    range_flipped: range.is_some_and(|(_, _, flipped)| flipped),
                }
            };
            bound.extend(atom.variables());
            let (ready, waiting): (Vec<usize>, Vec<usize>) = pending.iter().partition(|&&c| {
                let cond = &pushed[c];
                bound.contains(&cond.var)
                    && match &cond.bound {
                        BoundTerm::Const(_) => true,
                        BoundTerm::Var(u) => bound.contains(u),
                    }
            });
            pending = waiting;
            steps.push(StepPlan {
                atom: atom_idx,
                canonical: canonical
                    .iter()
                    .position(|&p| p == atom_idx)
                    .expect("the sequence permutes the canonical one"),
                probe,
                guards: ready,
            });
        }
        debug_assert!(
            pending.is_empty(),
            "pushable conditions are positively bound by construction"
        );
        plans.push(DeltaPlan {
            steps,
            hybrid,
            reordered: sequence != canonical,
        });
    }
    plans
}

/// One stratum of an [`AccessPlan`]'s schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stratum {
    /// The stratum's filters, as ascending indices into
    /// [`AccessPlan::filters`].
    pub filters: Vec<usize>,
    /// Is this the fold stratum? Its filters are sink aggregates (see
    /// [`folds_to_final`] for the rule's shape) whose head predicates no
    /// filter or check reads. Instead of being swept to a fixpoint, each
    /// runs once over the complete instance and emits one fact per
    /// aggregate group. Only the last stratum can be one.
    pub fold: bool,
}

/// The reasoning access plan: filters, sources and sinks.
#[derive(Clone, Debug)]
pub struct AccessPlan {
    /// One filter per (TGD) rule, in rule order.
    pub filters: Vec<FilterNode>,
    /// The schedule: the strata of [`vadalog_analysis::rule_strata`], in
    /// order, each holding its filters except the sink aggregates, which
    /// form the last, fold stratum. Strata left empty are dropped. A
    /// negation-free program has one swept stratum, every filter but the
    /// sink aggregates in filter order. An unstratifiable program, which
    /// [`crate::Reasoner`] and [`crate::QuerySession`] refuse to run, gets
    /// that one swept stratum too.
    pub strata: Vec<Stratum>,
    /// Source predicates (extensional data enters the pipeline here).
    pub sources: BTreeSet<Sym>,
    /// Sink predicates (`@output`, or derived as in [`Program::output_predicates`]).
    pub sinks: BTreeSet<Sym>,
    /// Constraint / EGD rules, compiled like the filters and checked after
    /// the pipeline reaches its fixpoint (they never produce facts).
    pub checks: Vec<FilterNode>,
    /// The wardedness analysis of the compiled program (rule kinds, wards).
    pub analysis: ProgramWardedness,
    /// Can some filter mint a labelled null ([`rule_invents_nulls`])? A
    /// plan that cannot, run over a store holding no null, never needs the
    /// termination strategy: its pipeline admits through the store's own
    /// exact-duplicate test.
    pub invents_nulls: bool,
}

/// Can firing `rule` mint a labelled null? True for a TGD with an
/// existential head variable or with an assignment whose expression holds a
/// Skolem term — the pipeline's only two null factories.
pub fn rule_invents_nulls(rule: &Rule) -> bool {
    rule.is_tgd()
        && (rule.has_existentials() || rule.assignments().iter().any(|a| a.expr.contains_skolem()))
}

impl AccessPlan {
    /// Compile a program into an access plan.
    pub fn compile(program: &Program) -> AccessPlan {
        let analysis = analyze_program(program);
        let (filters, checks): (Vec<FilterNode>, Vec<FilterNode>) = program
            .rules
            .iter()
            .enumerate()
            .map(|(idx, rule)| FilterNode::compile(idx as u32, rule))
            .partition(|f| f.rule.is_tgd());
        let read: BTreeSet<Sym> = filters
            .iter()
            .chain(&checks)
            .flat_map(|f| f.inputs.iter().copied())
            .collect();
        let folds: Vec<bool> = filters
            .iter()
            .map(|f| folds_to_final(&f.rule) && f.outputs.is_disjoint(&read))
            .collect();
        // Filters are the TGDs in rule order, so a rule's filter is found
        // by its id.
        let swept = match rule_strata(program) {
            Ok(strata) => strata
                .iter()
                .map(|rules| {
                    rules
                        .iter()
                        .map(|&r| {
                            filters
                                .binary_search_by_key(&(r as u32), |f| f.rule_id)
                                .expect("a rule with a head is a filter")
                        })
                        .collect()
                })
                .collect(),
            Err(_) => vec![(0..filters.len()).collect()],
        };
        let mut strata: Vec<Stratum> = swept
            .into_iter()
            .map(|members: Vec<usize>| Stratum {
                filters: members.into_iter().filter(|&f| !folds[f]).collect(),
                fold: false,
            })
            .chain([Stratum {
                filters: (0..filters.len()).filter(|&f| folds[f]).collect(),
                fold: true,
            }])
            .collect();
        strata.retain(|s| !s.filters.is_empty());
        AccessPlan {
            invents_nulls: filters.iter().any(|f| rule_invents_nulls(&f.rule)),
            filters,
            strata,
            sources: program.edb_predicates(),
            sinks: program.output_predicates(),
            checks,
            analysis,
        }
    }

    /// The filters of the fold stratum (see [`Stratum::fold`]); empty when
    /// the plan has none.
    pub fn fold_stratum(&self) -> &[usize] {
        match self.strata.last() {
            Some(stratum) if stratum.fold => &stratum.filters,
            _ => &[],
        }
    }

    /// Every index column list the pipeline's per-activation pre-pass
    /// `ensure_index`es for this plan, keyed by predicate: for each join
    /// step the exact composite prefix and the prefix extended by its
    /// pushed range column, each cyclic core's leapfrog trie column lists
    /// under the plan's variable order, and the negation probes'
    /// single/composite column sets — for every delta position of a filter,
    /// and for a check only its driver's ([`FilterNode::check_driver`]).
    ///
    /// A query session pre-builds exactly these lists on its frozen EDB
    /// base (see `vadalog_storage::StoreBase::ensure_index`), so per-query
    /// overlay runs never fall back to a full base-covering index build.
    pub fn planned_index_cols(&self) -> BTreeMap<Sym, BTreeSet<Vec<usize>>> {
        let mut out: BTreeMap<Sym, BTreeSet<Vec<usize>>> = BTreeMap::new();
        let add = |out: &mut BTreeMap<Sym, BTreeSet<Vec<usize>>>, p: Sym, cols: Vec<usize>| {
            if !cols.is_empty() {
                out.entry(p).or_default().insert(cols);
            }
        };
        let checks = self.checks.iter().map(|c| (c, c.check_driver()));
        for (filter, only) in self.filters.iter().map(|f| (f, None)).chain(checks) {
            let atoms = filter.rule.body_atoms();
            let driven = filter
                .delta_plans
                .iter()
                .enumerate()
                .filter(|(d, _)| only.is_none_or(|o| o == *d));
            for (_, dp) in driven {
                if let Some(hp) = &dp.hybrid {
                    // The core's trie column lists, whether or not ears
                    // wrap the core; the binary-step lists below stay the
                    // fallback.
                    let order = hp.static_order();
                    for trie in &hp.tries {
                        let predicate = atoms[trie.atom].predicate;
                        add(&mut out, predicate, HybridPlan::trie_cols(trie, &order));
                    }
                }
                for sp in dp.steps.iter().skip(1) {
                    let predicate = atoms[sp.atom].predicate;
                    add(&mut out, predicate, sp.probe.prefix_cols.clone());
                    add(&mut out, predicate, sp.probe.index_cols());
                }
            }
            for atom in filter.rule.negated_atoms() {
                let mut determined: Vec<usize> = Vec::new();
                for (col, term) in atom.terms.iter().enumerate() {
                    let worth_indexing = match term {
                        Term::Const(_) => true,
                        Term::Var(v) => {
                            atoms.iter().any(|other| other.variables().any(|w| w == *v))
                        }
                    };
                    if worth_indexing {
                        add(&mut out, atom.predicate, vec![col]);
                        determined.push(col);
                    }
                }
                if determined.len() > 1 {
                    add(&mut out, atom.predicate, determined);
                }
            }
        }
        out
    }

    /// The pipes of the plan: which filters feed which, as a map from filter
    /// index to the indices of the filters that consume its output.
    pub fn pipes(&self) -> BTreeMap<usize, Vec<usize>> {
        let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, producer) in self.filters.iter().enumerate() {
            for (j, consumer) in self.filters.iter().enumerate() {
                if producer
                    .outputs
                    .intersection(&consumer.inputs)
                    .next()
                    .is_some()
                {
                    out.entry(i).or_default().push(j);
                }
            }
        }
        out
    }

    /// Is the plan recursive (some filter transitively feeds itself)?
    pub fn is_recursive(&self) -> bool {
        let pipes = self.pipes();
        // simple DFS cycle check over filter indices
        for start in 0..self.filters.len() {
            let mut stack = vec![start];
            let mut seen = BTreeSet::new();
            while let Some(n) = stack.pop() {
                for &next in pipes.get(&n).map(|v| v.as_slice()).unwrap_or(&[]) {
                    if next == start {
                        return true;
                    }
                    if seen.insert(next) {
                        stack.push(next);
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_parser::parse_program;

    #[test]
    fn join_order_prefers_constants_and_connected_atoms() {
        let rule = vadalog_parser::parse_rule(
            "Owns(x, y, w), Company(\"HSBC\"), Controls(y, z) -> Reach(x, z)",
        )
        .unwrap();
        let order = JoinOrder::optimize(&rule);
        // The constant-bearing Company atom goes first.
        assert_eq!(order.0[0], 1);
        assert_eq!(order.0.len(), 3);
    }

    #[test]
    fn plan_separates_filters_and_checks() {
        let program = parse_program(
            "Own(x, y, w), w > 0.5 -> Control(x, y).\n\
             Own(x, x, w) -> false.\n\
             @output(\"Control\").",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        assert_eq!(plan.filters.len(), 1);
        assert_eq!(plan.checks.len(), 1);
        assert!(plan.sinks.contains(&intern("Control")));
        assert!(plan.sources.contains(&intern("Own")));
        assert!(!plan.is_recursive());
    }

    #[test]
    fn recursive_plans_are_detected() {
        let program = parse_program(
            "Own(x, y, w), w > 0.5 -> Control(x, y).\n\
             Control(x, y), Control(y, z) -> Control(x, z).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        assert!(plan.is_recursive());
        let pipes = plan.pipes();
        // the transitive closure filter feeds itself
        assert!(pipes.get(&1).map(|v| v.contains(&1)).unwrap_or(false));
    }

    #[test]
    fn batch_independence_is_read_write_disjointness() {
        let program = parse_program(
            "Edge(x, y) -> Reach(x, y).\n\
             Mark(x) -> Seen(x).\n\
             Reach(x, y), not Seen(y) -> Open(x, y).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        let mut produced = BTreeSet::new();
        produced.extend(plan.filters[0].outputs.iter().copied()); // {Reach}
        assert!(
            !plan.filters[1].reads_any(&produced),
            "Mark->Seen is independent"
        );
        assert!(
            plan.filters[2].reads_any(&produced),
            "the Open filter reads Reach and must start a new batch"
        );
        produced.extend(plan.filters[1].outputs.iter().copied()); // +{Seen}
                                                                  // negated inputs count as reads too
        assert!(plan.filters[2].reads_any(&BTreeSet::from([intern("Seen")])));
    }

    #[test]
    fn aggregation_filters_are_flagged() {
        let program = parse_program(
            "Control(x, y), Own(y, z, w), v = msum(w, <y>), v > 0.5 -> Control(x, z).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        assert!(plan.filters[0].has_aggregation);
    }

    #[test]
    fn sink_aggregates_qualify_for_the_fold_stratum_by_shape() {
        // (rules, does filter 0 run in the fold stratum?). Filter 0 writes
        // `L`; a second rule or a check reads it where the row says so.
        let table = [
            // One qualifying row per function and threshold operator,
            // either operand order.
            ("S(a, p), w = mcount(p) -> L(a, w).", true),
            ("S(a, p), w = mcount(p), w > 1 -> L(a, w).", true),
            ("S(a, p), w = mcount(p), w >= 2 -> L(a, w).", true),
            ("S(a, p), w = mcount(p), 2 <= w -> L(a, w).", true),
            ("S(a, p), w = mcount(p, <a>), 1 < w -> L(p, w).", true),
            ("V(g, x), w = mmax(x), w > 3 -> L(g, w).", true),
            ("V(g, x), w = mmax(x), 3 <= w -> L(g, w).", true),
            ("V(g, x), w = mmin(x), w < 3 -> L(g, w).", true),
            ("V(g, x), w = mmin(x), 3 >= w -> L(g, w).", true),
            ("V(g, x), w = munion(x) -> L(g, w).", true),
            // Atoms after the aggregate, conditions and assignments before.
            (
                "S(a, p), a != \"z\", k = p, w = mcount(k), T(a), w >= 2 -> L(a, w).",
                true,
            ),
            // The rows that must not qualify.
            ("V(g, x), w = msum(x) -> L(g, w).", false),
            ("V(g, x), w = mprod(x) -> L(g, w).", false),
            ("S(a, p), w = mcount(p), w * 10 != 30 -> L(a, w).", false),
            ("S(a, p), w = mcount(p), w <= 3 -> L(a, w).", false),
            ("S(a, p), w = mcount(p), w == 3 -> L(a, w).", false),
            ("V(g, x), w = mmin(x), w > 3 -> L(g, w).", false),
            ("V(g, x), w = munion(x), w > 3 -> L(g, w).", false),
            ("S(a, p), w = mcount(p), a > \"b\" -> L(a, w).", false),
            ("S(a, p), not T(a), w = mcount(p) -> L(a, w).", false),
            (
                "S(a, p), w = mcount(p) -> L(a, w).\nL(a, w) -> M(a).",
                false,
            ),
            (
                "S(a, p), w = mcount(p) -> L(a, w).\nL(a, w), w > 9 -> false.",
                false,
            ),
            ("S(a, p), w = mcount(p) -> L(a, w, n).", false),
        ];
        for (src, expected) in table {
            let plan = AccessPlan::compile(&parse_program(src).unwrap());
            assert_eq!(plan.fold_stratum() == [0], expected, "{src}");
        }
    }

    #[test]
    fn strata_follow_negation_and_end_with_the_fold_stratum() {
        let strata = |src: &str| AccessPlan::compile(&parse_program(src).unwrap()).strata;
        let swept = |filters: &[usize]| Stratum {
            filters: filters.to_vec(),
            fold: false,
        };
        let fold = |filters: &[usize]| Stratum {
            filters: filters.to_vec(),
            fold: true,
        };
        // Negation-free: one swept stratum in filter order (the check,
        // rule 1, is no filter), then the sink aggregate, filter 1.
        assert_eq!(
            strata(
                "E(x, y) -> T(x, y).\n\
                 T(x, x) -> false.\n\
                 T(x, y), n = mcount(y) -> D(x, n).\n\
                 T(x, y), E(y, z) -> T(x, z)."
            ),
            [swept(&[0, 2]), fold(&[1])]
        );
        // Rules written top stratum first run bottom stratum first.
        assert_eq!(
            strata(
                "V(x), not I(x) -> M(x).\n\
                 V(x), not T(x) -> I(x).\n\
                 E(x, y) -> T(x)."
            ),
            [swept(&[2]), swept(&[1]), swept(&[0])]
        );
        // An unstratifiable program compiles to one swept stratum.
        assert_eq!(strata("A(x), not Q(x) -> Q(x)."), [swept(&[0])]);
    }

    #[test]
    fn final_drivers_are_the_smallest_relation_first_on_ties() {
        let plan = AccessPlan::compile(
            &parse_program("A(x), B(x, y), C(y), w = mcount(y) -> L(x, w).").unwrap(),
        );
        let filter = &plan.filters[0];
        assert_eq!(filter.final_driver(&[5, 3, 4]), Some(1));
        assert_eq!(filter.final_driver(&[3, 3, 4]), Some(0));
        assert_eq!(filter.final_driver(&[5, 4, 4]), Some(1));
        assert_eq!(filter.final_driver(&[]), None);
    }

    #[test]
    fn conditions_are_classified_index_pushable_vs_residual() {
        let program = parse_program(
            "Own(x, y, w), w > 0.5, x != y, w * 2 > 1.0 -> Control(x, y).\n\
             Own(x, y, w), v = msum(w, <y>), v > 0.5 -> Strong(x).\n\
             P(x), Q(y), x <= y -> R(x, y).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        // `w > 0.5` and `x != y` are var-op-bound; `w * 2 > 1.0` is an
        // expression and stays residual.
        let f0 = &plan.filters[0];
        assert_eq!(f0.pushed.len(), 2);
        assert!(f0.pushed[0].is_rangeable());
        assert_eq!(f0.pushed[0].var, Var::new("w"));
        assert!(!f0.pushed[1].is_rangeable()); // != is guard-only
        assert_eq!(
            f0.pushed.iter().map(|p| p.literal).collect::<BTreeSet<_>>(),
            BTreeSet::from([1, 2])
        );
        // `v > 0.5` reads an aggregate-assigned variable: residual.
        assert!(plan.filters[1].pushed.is_empty());
        // variable-variable comparison across atoms is pushable
        let f2 = &plan.filters[2];
        assert_eq!(f2.pushed.len(), 1);
        assert!(matches!(f2.pushed[0].bound, BoundTerm::Var(u) if u == Var::new("y")));
    }

    #[test]
    fn conditions_behind_stateful_assignments_stay_residual() {
        let program = parse_program(
            "Emp(x, s), k = #key(x), s > 10 -> Keyed(x, k).\n\
             Emp(x, s), s > 10, k = #key(x) -> Keyed(x, k).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        // Pushing `s > 10` past the Skolem assignment would change which
        // matches mint nulls; before it, pushing is safe.
        assert!(plan.filters[0].pushed.is_empty());
        assert_eq!(plan.filters[1].pushed.len(), 1);
    }

    #[test]
    fn chunk_count_follows_rows_and_workers_only() {
        // An empty window, and parallelism 1, never split.
        assert_eq!(plan_chunk_count(0, 8), 1);
        assert_eq!(plan_chunk_count(10_000, 1), 1);
        // Fewer than two chunks' worth of rows stays whole.
        assert_eq!(plan_chunk_count(CHUNK_MIN_ROWS - 1, 8), 1);
        assert_eq!(plan_chunk_count(2 * CHUNK_MIN_ROWS - 1, 8), 1);
        assert_eq!(plan_chunk_count(2 * CHUNK_MIN_ROWS, 8), 2);
        assert_eq!(plan_chunk_count(5 * CHUNK_MIN_ROWS + 3, 8), 5);
        // The worker count caps the split.
        assert_eq!(plan_chunk_count(1_000, 2), 2);
        assert_eq!(plan_chunk_count(400, 64), 400 / CHUNK_MIN_ROWS);
        assert_eq!(plan_chunk_count(10_000, 64), 64);
        let windows = chunk_windows(10, 21, 4);
        assert_eq!(windows, vec![(10, 13), (13, 16), (16, 19), (19, 21)]);
        // Concatenation reproduces the window exactly, chunks never empty.
        for (n, k) in [(1usize, 1usize), (5, 2), (7, 7), (100, 3), (3, 8)] {
            let ws = chunk_windows(0, n, k);
            assert!(ws.iter().all(|(a, b)| a < b));
            assert_eq!(ws.first().unwrap().0, 0);
            assert_eq!(ws.last().unwrap().1, n);
            for pair in ws.windows(2) {
                assert_eq!(pair[0].1, pair[1].0);
            }
        }
    }

    #[test]
    fn steps_with_several_pushable_ranges_probe_the_first_and_guard_all() {
        let program =
            parse_program("Control(x, y), Own(y, z, w), w > 0.5, z < 100 -> Control(x, z).")
                .unwrap();
        let plan = AccessPlan::compile(&program);
        let own_step = &plan.filters[0].delta_plans[0].steps[1];
        // Both `w > 0.5` (col 2) and `z < 100` (col 1) could range this
        // step; the plan probes the first in body order, and only its
        // column extends the index list.
        assert_eq!(own_step.probe.range, Some((2, 0)));
        assert!(!own_step.probe.range_flipped);
        assert_eq!(own_step.probe.index_cols(), vec![0, 2]);
        // Both conditions are guarded at this step.
        assert_eq!(own_step.guards, vec![0, 1]);
        let planned = plan.planned_index_cols();
        assert!(!planned[&intern("Own")].contains(&vec![0usize, 1]));
    }

    #[test]
    fn fully_cyclic_bodies_get_the_plan_with_no_ears_acyclic_bodies_none() {
        let program = parse_program(
            "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
             Edge(x, y), Edge(y, z) -> Path(x, z).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        let tri = &plan.filters[0];
        for dp in &tri.delta_plans {
            let hp = dp.hybrid.as_ref().expect("the triangle body is cyclic");
            assert!(!hp.has_ears(), "the core covers the whole body");
            assert_eq!(hp.tries.len(), 2);
            // The delta atom binds two of the three variables; the third is
            // free and occurs in both remaining tries.
            assert_eq!(hp.var_order.len(), 1);
            assert_eq!(hp.var_order[0].1, 2);
            let order = hp.static_order();
            for trie in &hp.tries {
                assert_eq!(trie.bound_cols.len(), 1);
                assert_eq!(HybridPlan::trie_cols(trie, &order).len(), 2);
            }
        }
        // Binary step plans stay planned alongside as the fallback.
        assert_eq!(tri.delta_plans[0].steps.len(), 3);
        assert!(plan.filters[1]
            .delta_plans
            .iter()
            .all(|dp| dp.hybrid.is_none()));
        // The trie column lists are registered for session pre-builds.
        let planned = plan.planned_index_cols();
        assert!(planned[&intern("Edge")].contains(&vec![0usize, 1]));
    }

    #[test]
    fn lollipop_bodies_leapfrog_the_core_only() {
        let program = parse_program(
            "E(x, y), E(y, z), E(x, z), P(z, w), Q(w, u) -> T(x, w, u).\n\
             E(x, y), E(y, z), P(z, w) -> Path(x, w).\n\
             E(x, y), E(y, z), E(x, z), K(\"hub\", x) -> HubTri(x, y, z).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        // Lollipop: every delta position gets the plan — the triangle core
        // minus the delta atom always leaves at least two tries.
        let lolli = &plan.filters[0];
        for (delta, dp) in lolli.delta_plans.iter().enumerate() {
            let hp = dp.hybrid.as_ref().expect("lollipop body has a core");
            assert!(hp.has_ears());
            let seq_atoms: Vec<usize> = dp.steps.iter().map(|s| s.atom).collect();
            // Core tries cover exactly the triangle atoms {0, 1, 2} minus
            // the delta; pendant atoms 3 and 4 stay binary ear steps.
            let mut core_atoms: Vec<usize> = hp.tries.iter().map(|t| t.atom).collect();
            core_atoms.sort_unstable();
            let expect: Vec<usize> = [0usize, 1, 2].into_iter().filter(|p| *p != delta).collect();
            assert_eq!(core_atoms, expect, "delta {delta}");
            for &step in hp.prefix_steps.iter().chain(&hp.suffix_steps) {
                assert!(!expect.contains(&seq_atoms[step]));
            }
            assert_eq!(
                hp.prefix_steps.len() + hp.tries.len() + hp.suffix_steps.len(),
                dp.steps.len() - 1,
                "every non-delta atom is routed exactly once"
            );
            assert!(!hp.var_order.is_empty());
        }
        // Acyclic body: no plan.
        assert!(plan.filters[1]
            .delta_plans
            .iter()
            .all(|dp| dp.hybrid.is_none()));
        // The join order puts the constant-bearing `K` atom first, so with a
        // triangle atom as the delta it is probed *before* the leapfrog and
        // its variables count as bound in the core tries.
        let hub = plan.filters[2].delta_plans[0].hybrid.as_ref().unwrap();
        assert_eq!(hub.prefix_steps, vec![1]);
        assert!(hub.suffix_steps.is_empty());
        // An ear-wrapped core registers its trie lists under the plan's
        // order for session pre-builds, like a fully cyclic body.
        let planned = plan.planned_index_cols();
        let order = hub.static_order();
        for trie in &hub.tries {
            assert!(planned[&intern("E")].contains(&HybridPlan::trie_cols(trie, &order)));
        }
    }

    #[test]
    fn repeated_variables_in_a_core_atom_disable_the_plan_per_delta() {
        let program = parse_program(
            "E(x, y), E(y, z), L(x, z, z) -> T(x).\n\
             E(x, y), E(y, z), E(x, z), L(z, z) -> T(x).",
        )
        .unwrap();
        let plan = AccessPlan::compile(&program);
        // Whenever L(x, z, z) is a non-delta core atom its repeated
        // variable makes the core trie-incompatible; with L as the delta
        // the remaining two atoms are fine.
        for (delta, dp) in plan.filters[0].delta_plans.iter().enumerate() {
            assert_eq!(dp.hybrid.is_some(), delta == 2, "delta {delta}");
        }
        // A repeated-variable *ear* is probed binary-style and never
        // becomes a trie, so it disables nothing.
        assert!(plan.filters[1]
            .delta_plans
            .iter()
            .all(|dp| dp.hybrid.is_some()));
    }

    /// The shape of the HJE-unrolled strong-links rules: a `PSC` delta
    /// shares nothing with `Control`, which the join order puts next.
    const REPRODUCER: &str = "Control(a, b), KeyPerson(a, p), PSC(y, p), b > y -> S(b, y).";

    #[test]
    fn deltas_probe_outward_and_keep_canonical_positions() {
        let plan = AccessPlan::compile(&parse_program(REPRODUCER).unwrap());
        let filter = &plan.filters[0];
        assert_eq!(filter.join_order.0, vec![0, 1, 2]);
        let psc = &filter.delta_plans[2];
        let atoms: Vec<usize> = psc.steps.iter().map(|s| s.atom).collect();
        assert_eq!(atoms, vec![2, 1, 0], "PSC, KeyPerson, Control");
        let canonical: Vec<usize> = psc.steps.iter().map(|s| s.canonical).collect();
        assert_eq!(canonical, vec![0, 2, 1]);
        assert!(psc.reordered);
        // `KeyPerson` probes `p` (column 1); `Control` then probes `a`
        // (column 0) and ranges `b > y` on column 1 instead of scanning.
        assert_eq!(psc.steps[1].probe.prefix_cols, vec![1]);
        assert_eq!(psc.steps[2].probe.prefix_cols, vec![0]);
        assert_eq!(psc.steps[2].probe.range, Some((1, 0)));
        // Deltas whose next atom in join order is already connected keep
        // the canonical sequence.
        for dp in &filter.delta_plans[..2] {
            assert!(!dp.reordered);
            assert!(dp.steps.iter().enumerate().all(|(i, s)| s.canonical == i));
        }
    }

    #[test]
    fn no_step_scans_while_a_connected_atom_waits() {
        // `vadalog_workloads::dbpedia::strong_links_program(3)`, whose
        // HJE-unrolled rules are where the canonical order scanned.
        let program = parse_program(
            "KeyPerson(x, p) -> PSC(x, p).\n\
             Company(x) -> PSC(x, p).\n\
             Control(y, x), PSC(y, p) -> PSC(x, p).\n\
             PSC(x, p), PSC(y, p), x > y, w = mcount(p), w >= 3 -> StrongLink(x, y, w).\n\
             @output(\"StrongLink\").",
        )
        .unwrap();
        let plan = AccessPlan::compile(&vadalog_rewrite::prepare_rules(&program));
        let mut reordered = 0;
        for filter in &plan.filters {
            let atoms = filter.rule.body_atoms();
            for dp in &filter.delta_plans {
                reordered += usize::from(dp.reordered);
                let mut bound = atoms[dp.steps[0].atom].variable_set();
                for (s, step) in dp.steps.iter().enumerate().skip(1) {
                    if step.probe.prefix_cols.is_empty() {
                        let waiting = dp.steps[s + 1..].iter().find(|later| {
                            atoms[later.atom].terms.iter().any(|t| match t {
                                Term::Const(_) => true,
                                Term::Var(v) => bound.contains(v),
                            })
                        });
                        assert!(
                            waiting.is_none(),
                            "rule {}: step {s} scans while atom {} is connected",
                            filter.rule_id,
                            waiting.unwrap().atom
                        );
                    }
                    bound.extend(atoms[step.atom].variables());
                }
            }
        }
        assert!(reordered > 0, "the unrolled rules need the outward order");
    }

    #[test]
    fn cyclic_cores_keep_the_canonical_sequence() {
        let program =
            parse_program("E(x, y), E(y, z), E(x, z), P(z, w), Q(w, u) -> T(x, w, u).").unwrap();
        let plan = AccessPlan::compile(&program);
        let filter = &plan.filters[0];
        let atoms = filter.rule.body_atoms();
        let mut would_move = 0;
        for (delta, dp) in filter.delta_plans.iter().enumerate() {
            assert!(dp.hybrid.is_some());
            assert!(!dp.reordered, "delta {delta}");
            let canonical: Vec<usize> = std::iter::once(delta)
                .chain(filter.join_order.0.iter().copied().filter(|p| *p != delta))
                .collect();
            let sequence: Vec<usize> = dp.steps.iter().map(|s| s.atom).collect();
            assert_eq!(sequence, canonical, "delta {delta}");
            would_move += usize::from(probe_outward(&atoms, &canonical) != canonical);
        }
        // The `Q` delta would move `P` forward in an acyclic body.
        assert!(would_move > 0);
    }

    #[test]
    fn delta_plans_pick_composite_prefixes_and_range_columns() {
        let program =
            parse_program("Control(x, y), Own(y, z, w), w > 0.5 -> Control(x, z).").unwrap();
        let plan = AccessPlan::compile(&program);
        let filter = &plan.filters[0];
        assert_eq!(filter.delta_plans.len(), 2);
        // Delta on Control (atom 0): the Own step probes y (column 0, bound
        // by Control) as an exact prefix and pushes `w > 0.5` as a range on
        // column 2 — one composite index instead of probe-then-filter.
        let d0 = &filter.delta_plans[0];
        assert_eq!(d0.steps[0].atom, 0);
        assert!(
            d0.steps[0].probe.index_cols().is_empty(),
            "delta step scans"
        );
        let own_step = &d0.steps[1];
        assert_eq!(own_step.atom, 1);
        assert_eq!(own_step.probe.prefix_cols, vec![0]);
        assert_eq!(own_step.probe.range, Some((2, 0)));
        assert_eq!(own_step.probe.index_cols(), vec![0, 2]);
        // The guard lands where w becomes bound (the Own step).
        assert_eq!(own_step.guards, vec![0]);
        // Delta on Own: w is bound by the delta scan itself, so the guard
        // attaches to step 0 and the Control step probes column 1 (= y).
        let d1 = &filter.delta_plans[1];
        assert_eq!(d1.steps[0].atom, 1);
        assert_eq!(d1.steps[0].guards, vec![0]);
        assert_eq!(d1.steps[1].probe.prefix_cols, vec![1]);
        assert_eq!(d1.steps[1].probe.range, None);
    }
}
