//! The reasoning access plan: the logic compiler and execution optimizer
//! (Section 4, steps 2 and 3).
//!
//! [`AccessPlan::compile`] compiles each rule once into the form the
//! pipeline runs: a [`FilterNode`] holds the rule's variable slots and,
//! per delta position, a [`DeltaPlan`]: the probe [`ProbeStep`]s with their
//! index columns, range bounds and guards, the optional intersect stage
//! over the cyclic core ([`Core`]), and through them the index column
//! lists that position's activation ensures ([`FilterNode::index_lists`]).
//! The parts that hold rule constants — the body, negated and head
//! [`RowPattern`]s, the pushed conditions at the id level and the residual
//! literals ([`Interned`]) — are built once too, at the filter's first
//! activation, so the data loaded before it decides how a number is
//! interned, as it would without a plan. An activation only snapshots its
//! delta windows, ensures its lists and splits its chunks; `vadalog
//! explain` and a session's index pre-build
//! ([`AccessPlan::planned_index_cols`]) read the same compiled form.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;
use vadalog_analysis::{analyze_program, rule_strata, ProgramWardedness};
use vadalog_model::prelude::*;
use vadalog_storage::{number_variables, RangeFilter, RowPattern, Slot, WcojLevel};

use crate::pipeline::JoinStrategy;

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
enum BoundTerm {
    Const(Value),
    Var(Var),
}

/// A body condition classified as **index-pushable**: normalised to `var op
/// bound`, with `var` bound by a positive body atom and `bound` either a
/// constant or another join-bound variable. A pushed condition is enforced
/// inside the join, as a [`Guard`] always and as an index range where the
/// operator is an ordering, and emission skips it.
#[derive(Clone, Debug)]
struct PushedCondition {
    /// Index of the condition in the rule's body literal list.
    literal: usize,
    var: Var,
    /// The comparison, normalised so it reads `var op bound`.
    op: CmpOp,
    bound: BoundTerm,
}

impl PushedCondition {
    /// Can this condition drive an index range scan (ordering operators)?
    /// Equality/inequality conditions are guard-only.
    fn is_rangeable(&self) -> bool {
        matches!(self.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
    }
}

/// A pushed condition compiled to the id level: `binding[slot] op bound`,
/// checked with [`CmpOp::eval_ids`] (order keys decide, ties resolve).
#[derive(Clone, Copy, Debug)]
pub struct Guard {
    /// Binding slot of the probed variable.
    pub slot: usize,
    /// The comparison, reading `binding[slot] op bound`.
    pub op: CmpOp,
    /// The bound side: an interned constant or another binding slot.
    pub bound: Slot,
}

impl Guard {
    /// Does the guard hold under `binding`? Unbound slots reject, as an
    /// unbound variable fails a condition in the substitution evaluator.
    pub fn holds(&self, binding: &[Option<ValueId>]) -> bool {
        match (binding[self.slot], self.bound.value(binding)) {
            (Some(left), Some(right)) => self.op.eval_ids(left, right),
            _ => false,
        }
    }
}

/// The range bound of a step's probe: a constant bound is built once, at
/// the filter's first activation ([`Interned::ranges`]); a variable bound
/// is read from the binding per probe.
#[derive(Clone, Copy, Debug)]
pub enum RangeBound {
    /// Constant bound: the index of its pushed condition (see
    /// [`Interned::guards`]).
    Const(usize),
    /// Variable bound: the binding slot holding it, and the operator.
    Var {
        /// Binding slot of the bound.
        slot: usize,
        /// The comparison the probed column must satisfy against it.
        op: CmpOp,
    },
}

impl RangeBound {
    /// The filter to probe with under `binding` (`None` if the bound slot is
    /// unbound — the probe then degrades to the exact prefix only).
    pub fn filter(&self, interned: &Interned, binding: &[Option<ValueId>]) -> Option<RangeFilter> {
        match self {
            RangeBound::Const(guard) => interned.ranges[*guard],
            RangeBound::Var { slot, op } => binding[*slot].map(|id| RangeFilter::new(*op, id)),
        }
    }
}

/// One step of a delta position's evaluation order: the body atom it
/// matches, the index it probes and the guards that become checkable once
/// its variables are bound.
#[derive(Clone, Debug)]
pub struct ProbeStep {
    /// Body-atom position this step matches.
    pub atom: usize,
    /// Position of the atom in the delta position's canonical sequence
    /// (`[delta] ++ join order`): its support fact lands at `canonical - 1`
    /// of the support vector that fixes the emission order. Equal to the
    /// step index unless the plan was reordered.
    pub canonical: usize,
    /// Column list of the index to probe: the exact prefix (constants and
    /// variables bound by earlier steps, ascending, at most three columns)
    /// followed by the range column, if any. Empty = scan (always for the
    /// delta scan at step 0).
    pub index_cols: Box<[usize]>,
    /// How many of `index_cols` are exact-prefix columns.
    pub prefix_len: usize,
    /// The pushed range condition probed on `index_cols[prefix_len]`: the
    /// first viable one in body order. Every pushed condition, this one
    /// included, is also checked as a guard.
    pub range: Option<RangeBound>,
    /// Guards checked right after each successful match of this step: the
    /// pushed conditions whose variables are all bound by then, as indices
    /// into [`Interned::guards`].
    pub guards: Box<[usize]>,
}

impl ProbeStep {
    /// The exact-prefix columns of the probe.
    pub fn prefix_cols(&self) -> &[usize] {
        &self.index_cols[..self.prefix_len]
    }

    /// The column the probe ranges over, if any.
    pub fn range_col(&self) -> Option<usize> {
        self.range.map(|_| self.index_cols[self.prefix_len])
    }
}

/// One trie of an intersect stage: the body atom it matches and the index
/// column list its cursor walks — the columns bound before the leapfrog,
/// then the free-variable columns in the core's level order.
#[derive(Clone, Debug)]
pub struct Trie {
    /// Body-atom position this trie matches.
    pub atom: usize,
    /// The atom's position in the canonical sequence (see
    /// [`ProbeStep::canonical`]).
    pub canonical: usize,
    /// Full index column list (covers every column of the atom).
    pub cols: Box<[usize]>,
    /// How many leading `cols` are bound before the leapfrog (constants,
    /// delta variables and prefix-ear variables): the cursor's `open`
    /// prefix.
    pub prefix_len: usize,
}

/// One stage of a delta position's join, run after the delta scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Probe one atom on its bound columns: the [`ProbeStep`] at this index of
    /// [`DeltaPlan::steps`].
    Probe(usize),
    /// Intersect the core's tries level by level (see [`Core`]).
    Intersect,
}

/// The **free-join** plan of one delta position, present when the body's
/// join hypergraph has a cyclic core: probe stages for the acyclic *ears*
/// of the body, wrapped around one intersect stage over only the **cyclic
/// core** (the irreducible residue of GYO ear reduction — see
/// `vadalog_analysis::cyclic_core`), where binary joins pay the classic
/// intermediate-result blowup. A lollipop body (triangle plus a pendant
/// path) runs the triangle worst-case-optimally while the pendant atoms
/// keep their index probes; a fully cyclic body (triangle, clique) has no
/// ears — every non-delta atom is a core trie. Acyclic bodies have no such
/// plan: the all-probe step list is already worst-case optimal for them.
///
/// Ear stages run their [`ProbeStep`]s as planned: every guard checkable at an
/// ear's sequence position is still checkable at its stage. The core
/// steps' guards are re-placed onto the leapfrog levels; a core guard that
/// also reads a variable only a suffix ear binds waits for the full match.
#[derive(Clone, Debug)]
pub struct Core {
    /// Prefix-ear probes (the leading ear steps, whose variables count as
    /// bound in the tries' prefixes), the intersect stage, then suffix-ear
    /// probes.
    pub stages: Box<[Stage]>,
    /// One trie per core atom other than the delta atom, in sequence order.
    pub tries: Box<[Trie]>,
    /// Leapfrog levels: the tries' free variables by descending degree
    /// (number of tries containing them), first occurrence within equal
    /// degrees. Higher degree first prunes earliest.
    pub levels: Box<[WcojLevel]>,
    /// Core guards checkable before the leapfrog opens (all slots bound by
    /// the delta row or a prefix ear). Core guards are indices into
    /// [`Interned::guards`], as a step's are.
    pub pre_guards: Box<[usize]>,
    /// Per-level core guards, checked as soon as the level's variable binds.
    pub level_guards: Box<[Box<[usize]>]>,
    /// Core guards reading a variable only a suffix ear binds, checked at
    /// full match depth.
    pub deferred_guards: Box<[usize]>,
    /// Body atoms outside the cyclic core: the ear steps, plus the delta
    /// atom when it is an ear itself. 0 for a fully cyclic body.
    pub ears: usize,
}

/// The compiled evaluation of one delta position of the semi-naive join,
/// probing outward from the delta atom: the delta atom first, then the
/// remaining atoms in join order, except that an atom with no determined
/// column (no constant, no variable bound so far) is put off while a
/// remaining atom has one. A position with a [`Core`] keeps the canonical
/// sequence (`[delta] ++ join order`).
#[derive(Clone, Debug)]
pub struct DeltaPlan {
    /// Steps in evaluation order; `steps[0]` scans the delta window. With a
    /// [`Core`], its stages run the ear steps only; the core atoms' steps
    /// run under `JoinStrategy::Binary`, which probes every atom.
    pub steps: Box<[ProbeStep]>,
    /// Do the steps run in an order other than the canonical sequence? The
    /// executor then sorts each delta row's matches by their canonical
    /// support vector, as it does for an intersect stage.
    pub reordered: bool,
    /// The free-join plan, present iff the body has a cyclic core whose
    /// non-delta atoms are at least two and all trie-compatible (no
    /// repeated variable: a trie column cannot enforce intra-atom equality).
    pub core: Option<Core>,
}

/// Where emission reads a variable that an expression mentions.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source {
    /// A binding slot, resolved when read (unbound slots are skipped).
    Slot(usize),
    /// The result of the residual literal at this index: an assignment
    /// earlier in the body, read exactly as computed — `Float(2.0)` stays a
    /// float even where `Int(2)` owns the interned id.
    Assigned(usize),
}

/// An expression with the variables it reads: it is evaluated over a
/// substitution holding those only.
#[derive(Clone, Debug)]
pub(crate) struct CompiledExpr {
    pub(crate) expr: Expr,
    pub(crate) reads: Box<[(Var, Source)]>,
}

impl CompiledExpr {
    fn compile(expr: &Expr, source: impl Fn(Var) -> Option<Source>) -> Self {
        CompiledExpr {
            expr: expr.clone(),
            reads: expr
                .variables()
                .into_iter()
                .filter_map(|v| source(v).map(|src| (v, src)))
                .collect(),
        }
    }
}

/// An aggregation's argument.
#[derive(Clone, Debug)]
pub(crate) enum AggArg {
    /// A body variable: its binding slot, read as an id.
    Slot(usize),
    /// Anything else, evaluated.
    Expr(CompiledExpr),
}

/// A residual body literal — a condition the join does not enforce, an
/// assignment or a negated atom — compiled against the rule's slot
/// numbering. Emission runs a filter's residuals in order on each match's
/// binding; an assignment's result goes to its variable's binding slot,
/// when an atom mentions the variable (`slot`), and to the match's
/// assigned results.
#[derive(Clone, Debug)]
pub(crate) enum Residual {
    /// `not P(..)`: the negated pattern at this index of
    /// [`Interned::neg_patterns`] matches no stored row.
    Negated(usize),
    /// A comparison of variables and constants, checked on ids.
    Cond(Guard),
    /// A comparison with an expression operand, evaluated on values.
    Test {
        op: CmpOp,
        left: CompiledExpr,
        right: CompiledExpr,
    },
    /// `var = expr`: arithmetic, calls, Skolem terms.
    Assign {
        var: Var,
        expr: CompiledExpr,
        slot: Option<usize>,
    },
    /// `var = maggr(arg, <contributors>)`.
    Aggregate {
        func: AggFunc,
        arg: AggArg,
        /// Group-by slots: the head variables other than `var` bound here.
        group: Box<[usize]>,
        contributors: Box<[Source]>,
        slot: Option<usize>,
        /// Index of the occurrence's state among the filter's aggregates.
        state: usize,
    },
}

/// Compile `rule`'s residual literals — its assignments, its conditions
/// other than the `pushed` ones, and its negated atoms — in body order
/// against `slots`, interning their constants. A negated atom is placed at
/// the first point where every variable it shares with the body is bound:
/// ahead of every other residual when the positive atoms bind them all,
/// else right after the assignment that binds the last of them. A variable
/// only negated atoms mention stays unbound and matches any value.
fn compile_residuals(
    rule: &Rule,
    slots: &HashMap<Var, usize>,
    pushed: &[PushedCondition],
) -> Box<[Residual]> {
    let positive: BTreeSet<Var> = rule
        .body_atoms()
        .iter()
        .flat_map(|a| a.variables())
        .collect();
    let head = rule.head_variables();
    // variable -> index of the residual that last assigned it.
    let mut assigned: HashMap<Var, usize> = HashMap::new();
    // Per negated atom, the body literal it follows (`None`: the join).
    let points = &rule
        .negated_atoms()
        .iter()
        .map(|atom| {
            atom.variables()
                .filter(|v| !positive.contains(v))
                .filter_map(|v| {
                    rule.body
                        .iter()
                        .position(|l| matches!(l, Literal::Assignment(a) if a.var == v))
                })
                .max()
        })
        .collect::<Vec<_>>();
    let negations_at = |point: Option<usize>| {
        (0..points.len())
            .filter(move |&n| points[n] == point)
            .map(Residual::Negated)
    };
    let mut out: Vec<Residual> = negations_at(None).collect();
    let mut aggregates = 0;
    for (i, literal) in rule.body.iter().enumerate() {
        let source = |v: Var| match assigned.get(&v) {
            Some(&r) => Some(Source::Assigned(r)),
            None => slots.get(&v).map(|&slot| Source::Slot(slot)),
        };
        let residual = match literal {
            Literal::Condition(cond) if !pushed.iter().any(|p| p.literal == i) => {
                // An id operand: a constant, or a variable whose current
                // value sits in its binding slot (an assigned variable's
                // slot holds the interned result, and ids compare like
                // the values they intern).
                let operand = |e: &Expr| match e {
                    Expr::Term(Term::Var(v)) => slots.get(v).map(|&slot| Slot::Var(slot)),
                    other => literal_constant(other).map(|c| Slot::Const(intern_value(&c))),
                };
                match (operand(&cond.left), operand(&cond.right)) {
                    (Some(Slot::Var(slot)), Some(bound)) => Residual::Cond(Guard {
                        slot,
                        op: cond.op,
                        bound,
                    }),
                    (Some(bound @ Slot::Const(_)), Some(Slot::Var(slot))) => {
                        Residual::Cond(Guard {
                            slot,
                            op: cond.op.flipped(),
                            bound,
                        })
                    }
                    _ => Residual::Test {
                        op: cond.op,
                        left: CompiledExpr::compile(&cond.left, source),
                        right: CompiledExpr::compile(&cond.right, source),
                    },
                }
            }
            Literal::Assignment(asg) => {
                let slot = slots.get(&asg.var).copied();
                let residual = match asg.aggregate() {
                    Some(agg) => {
                        let bound = |v: &Var| positive.contains(v) || assigned.contains_key(v);
                        // A body variable is read as its id; anything
                        // else (an assigned variable included) evaluated.
                        let arg_source = match agg.arg.as_ref() {
                            Expr::Term(Term::Var(v)) => source(*v),
                            _ => None,
                        };
                        let arg = match arg_source {
                            Some(Source::Slot(slot)) => AggArg::Slot(slot),
                            _ => AggArg::Expr(CompiledExpr::compile(&agg.arg, source)),
                        };
                        let state = aggregates;
                        aggregates += 1;
                        Residual::Aggregate {
                            func: agg.func,
                            arg,
                            group: head
                                .iter()
                                .filter(|v| **v != asg.var && bound(v))
                                .filter_map(|v| slots.get(v).copied())
                                .collect(),
                            contributors: agg
                                .contributors
                                .iter()
                                .filter_map(|c| source(*c))
                                .collect(),
                            slot,
                            state,
                        }
                    }
                    None => Residual::Assign {
                        var: asg.var,
                        expr: CompiledExpr::compile(&asg.expr, source),
                        slot,
                    },
                };
                assigned.insert(asg.var, out.len());
                residual
            }
            _ => continue,
        };
        out.push(residual);
        out.extend(negations_at(Some(i)));
    }
    out.into_boxed_slice()
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
/// ([`crate::ReasonerOptions::parallelism`]); at 1 a window is one chunk.
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

/// The part of a filter's compiled form that holds interned rule
/// constants: its patterns, its pushed conditions at the id level with the
/// range filters of their constant bounds, and its residual literals.
/// Built by [`FilterNode::interned`] at the filter's first activation, not
/// by [`AccessPlan::compile`]: the interner keeps the representation of a
/// number that arrives first (`Int(7)` or `Float(7.0)`), so a rule constant
/// interned before the data would change how the data's numbers are
/// stored, and what integer arithmetic on them derives.
#[derive(Clone, Debug)]
pub struct Interned {
    /// Positive body patterns, in body order.
    pub patterns: Box<[RowPattern]>,
    /// Negated body patterns, in body order.
    pub neg_patterns: Box<[RowPattern]>,
    /// Head patterns.
    pub head_patterns: Box<[RowPattern]>,
    /// The pushed conditions, in body order; steps and cores name them by
    /// index.
    pub guards: Box<[Guard]>,
    /// Per pushed condition, the range filter of its constant bound, when
    /// it has one and its operator is an ordering.
    pub ranges: Box<[Option<RangeFilter>]>,
    /// The rule's residual literals, in body order: every assignment and
    /// every condition the join does not enforce (on ids when both sides
    /// are variables or constants, otherwise over the values of the
    /// variables they read).
    pub(crate) residuals: Box<[Residual]>,
}

/// One filter of the reasoning access plan (a node of the pipeline), in the
/// form the pipeline runs: its rule compiled against one dense variable
/// numbering shared by all patterns (body, negation and heads — head-only
/// variables such as existentials and assignment targets get slots too).
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
    /// The rule's variable numbering: the positive body variables first,
    /// as slots `0..body_width`, then the negated atoms' and the head's.
    pub slots: HashMap<Var, usize>,
    /// Number of distinct positive body variables. A full match of the
    /// body binds exactly slots `0..body_width`, so the pipeline keeps a
    /// match as that many ids.
    pub body_width: usize,
    /// Positive body predicates, in body order.
    pub body_predicates: Box<[Sym]>,
    /// Binding slots of the existential head variables.
    pub existential_slots: Box<[usize]>,
    /// Per-delta-position plans, indexed by body-atom position.
    pub deltas: Box<[DeltaPlan]>,
    /// The all-probe stage list, shared by every delta position: one probe
    /// stage per non-delta step.
    pub(crate) probe_stages: Box<[Stage]>,
    /// Index column lists of the negation probes: per negated atom, each
    /// column holding a constant or a variable the body binds (a positive
    /// atom or an assignment, which its probe runs after), then all of them
    /// as one composite when there are several.
    neg_index_cols: Box<[(Sym, Box<[usize]>)]>,
    /// The index-pushable conditions, in body order.
    pushed: Box<[PushedCondition]>,
    /// The constant-holding parts, built at the first activation.
    interned: OnceLock<Interned>,
}

impl FilterNode {
    /// Compile rule `rule_id` into a filter: its pipes, join order, pushed
    /// conditions, patterns, residual literals and per-delta-position
    /// plans. TGDs and checks (constraints, EGDs) compile alike; a check
    /// has no outputs.
    fn compile(rule_id: u32, rule: &Rule) -> FilterNode {
        let join_order = JoinOrder::optimize(rule);
        let pushed = classify_conditions(rule);
        let body: Vec<&Atom> = rule.body_atoms();
        let negated = rule.negated_atoms();
        let head = rule.head_atoms();
        let all: Vec<&Atom> = body.iter().chain(&negated).chain(&head).copied().collect();
        // First-occurrence order numbers the body's variables first.
        let slots = number_variables(&all);
        let body_width = number_variables(&body).len();
        // Per pushed condition, the slots it reads: its variable's, and its
        // bound variable's when the bound is not a constant.
        let reads: Vec<(usize, Option<usize>)> = pushed
            .iter()
            .map(|p| match &p.bound {
                BoundTerm::Const(_) => (slots[&p.var], None),
                BoundTerm::Var(u) => (slots[&p.var], Some(slots[u])),
            })
            .collect();
        // Per body atom, per column, the variable's slot (`None`: a constant).
        let atom_slots: Vec<Vec<Option<usize>>> = body
            .iter()
            .map(|a| {
                a.terms
                    .iter()
                    .map(|t| t.as_var().map(|v| slots[&v]))
                    .collect()
            })
            .collect();
        let deltas = plan_deltas(rule, &join_order, &pushed, &reads, &atom_slots);
        let mut neg_index_cols = Vec::new();
        let bound = rule.body_bound_variables();
        for atom in &negated {
            let determined: Vec<usize> = atom
                .terms
                .iter()
                .enumerate()
                .filter(|(_, term)| match term {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .map(|(col, _)| col)
                .collect();
            for col in &determined {
                neg_index_cols.push((atom.predicate, Box::from([*col])));
            }
            if determined.len() > 1 {
                neg_index_cols.push((atom.predicate, determined.into_boxed_slice()));
            }
        }
        FilterNode {
            rule_id,
            inputs: rule
                .body_predicates()
                .into_iter()
                .chain(negated.iter().map(|a| a.predicate))
                .collect(),
            outputs: rule.head_predicates().into_iter().collect(),
            join_order,
            has_aggregation: rule.has_aggregation(),
            existential_slots: rule
                .existential_variables()
                .iter()
                .filter_map(|v| slots.get(v).copied())
                .collect(),
            probe_stages: (1..body.len()).map(Stage::Probe).collect(),
            body_predicates: body.iter().map(|a| a.predicate).collect(),
            slots,
            body_width,
            deltas,
            neg_index_cols: neg_index_cols.into_boxed_slice(),
            pushed: pushed.into_boxed_slice(),
            interned: OnceLock::new(),
            rule: rule.clone(),
        }
    }

    /// The filter's constant-holding parts ([`Interned`]), compiled and
    /// their constants interned on the first call — the pipeline makes it
    /// at the filter's first activation, on its sequential path, so
    /// interner writes happen in a fixed order — and read on every later
    /// one.
    pub fn interned(&self) -> &Interned {
        self.interned.get_or_init(|| {
            let slots = &self.slots;
            let compile = |atoms: Vec<&Atom>| -> Box<[RowPattern]> {
                atoms
                    .iter()
                    .map(|a| RowPattern::compile(a, slots))
                    .collect()
            };
            let patterns = compile(self.rule.body_atoms());
            let neg_patterns = compile(self.rule.negated_atoms());
            let head_patterns = compile(self.rule.head_atoms());
            let guards: Box<[Guard]> = self
                .pushed
                .iter()
                .map(|p| Guard {
                    slot: slots[&p.var],
                    op: p.op,
                    bound: match &p.bound {
                        BoundTerm::Const(c) => Slot::Const(intern_value(c)),
                        BoundTerm::Var(u) => Slot::Var(slots[u]),
                    },
                })
                .collect();
            let ranges = self
                .pushed
                .iter()
                .zip(&guards)
                .map(|(p, g)| match g.bound {
                    Slot::Const(id) if p.is_rangeable() => Some(RangeFilter::new(g.op, id)),
                    _ => None,
                })
                .collect();
            Interned {
                patterns,
                neg_patterns,
                head_patterns,
                guards,
                ranges,
                residuals: compile_residuals(&self.rule, slots, &self.pushed),
            }
        })
    }

    /// Would this filter read any of `outputs`? Used by the parallel sweep
    /// to bound a batch: a filter whose inputs (positive or negated body
    /// predicates) intersect the outputs already produced inside the batch
    /// must not share it — it has to see those inserts before joining.
    pub fn reads_any(&self, outputs: &BTreeSet<Sym>) -> bool {
        self.inputs.intersection(outputs).next().is_some()
    }

    /// The body position a check is driven by: its join order's first
    /// atom, the one delta position a check's run drives. `None` for a
    /// body with no positive atom.
    pub fn check_driver(&self) -> Option<usize> {
        self.join_order.0.first().copied()
    }

    /// The body position a fold-stratum run drives from: the one whose
    /// relation has the fewest rows (`rows[pos]`), the first on ties.
    /// `None` for a body with no positive atom.
    ///
    /// The pick depends on the data, so the plan lists the index lists of
    /// every position ([`AccessPlan::planned_index_cols`]). It pays for
    /// that: driving each fold filter from [`FilterNode::check_driver`]
    /// instead, fixed at compile time, read on one `reason.links` run
    /// `join_probes` 486,300 → 3,698,569, `index_probes` 42,704 →
    /// 3,254,973 and `engine.exec_ms` 186.7 → 648.6.
    pub fn final_driver(&self, rows: &[usize]) -> Option<usize> {
        (0..rows.len()).min_by_key(|&pos| rows[pos])
    }

    /// The delta positions an activation driving `driver` runs: that one,
    /// or every position when `None` (a sweep activation).
    pub fn driven(&self, driver: Option<usize>) -> impl Iterator<Item = &DeltaPlan> + '_ {
        let only = driver.map_or(0..self.deltas.len(), |d| d..d + 1);
        self.deltas[only].iter()
    }

    /// The stages a delta position runs: its core's under `free_join`,
    /// the all-probe list otherwise.
    pub fn stages<'a>(&'a self, dp: &'a DeltaPlan, free_join: bool) -> &'a [Stage] {
        match &dp.core {
            Some(core) if free_join => &core.stages,
            _ => &self.probe_stages,
        }
    }

    /// The index column lists an activation driving `driver` (see
    /// [`FilterNode::driven`]) ensures, keyed by predicate, in order: per
    /// driven position the lists of the stages it runs
    /// (`FilterNode::stages`), a probe stage its step's list and an
    /// intersect stage its core tries' lists; then the negation probes'
    /// lists. Lists may repeat. This is the one list: the pipeline ensures
    /// it, a session pre-builds its union
    /// ([`AccessPlan::planned_index_cols`]) and `vadalog explain` prints it.
    pub fn index_lists(
        &self,
        driver: Option<usize>,
        free_join: bool,
    ) -> impl Iterator<Item = (Sym, &[usize])> + '_ {
        let predicate = move |atom: usize| self.body_predicates[atom];
        self.driven(driver)
            .flat_map(move |dp| {
                self.stages(dp, free_join).iter().flat_map(move |stage| {
                    let (steps, tries): (&[ProbeStep], &[Trie]) = match *stage {
                        Stage::Probe(s) => (std::slice::from_ref(&dp.steps[s]), &[]),
                        Stage::Intersect => {
                            let core = dp.core.as_ref().expect("an intersect stage has a core");
                            (&[], &core.tries)
                        }
                    };
                    let steps = steps.iter().filter(|step| !step.index_cols.is_empty());
                    steps
                        .map(move |step| (predicate(step.atom), &*step.index_cols))
                        .chain(tries.iter().map(move |t| (predicate(t.atom), &*t.cols)))
                })
            })
            .chain(self.neg_index_cols.iter().map(|(p, cols)| (*p, &**cols)))
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
fn literal_constant(e: &Expr) -> Option<Value> {
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

/// Compile the free-join plan of one delta position from its `steps` (in
/// the canonical sequence) and the body's cyclic `core` (body-atom
/// positions): the leading ear steps become prefix probes, the core atoms
/// tries, the other ear steps suffix probes. A trie's prefix holds its
/// constants and the variables the delta atom or a prefix ear binds (never
/// a suffix ear's, even when that ear precedes the core atom in the
/// sequence: every suffix ear runs after the leapfrog), then its free
/// variables in level order. Each core step's guards go to the earliest
/// point where every slot they read is bound: before the leapfrog, at a
/// level, or at full match depth. Checking earlier than the binary step
/// only prunes sooner — guards are pure binding predicates, so the
/// surviving match set is identical. `atom_slots` and `reads` are as in
/// [`plan_deltas`].
fn plan_core(
    steps: &[ProbeStep],
    atom_slots: &[Vec<Option<usize>>],
    reads: &[(usize, Option<usize>)],
    core: &[usize],
    ears: usize,
) -> Core {
    let is_core = |step: usize| core.contains(&steps[step].atom);
    let var_slots = |step: usize| atom_slots[steps[step].atom].iter().flatten().copied();
    let prefix: Vec<usize> = (1..steps.len()).take_while(|&s| !is_core(s)).collect();
    // Slots bound before the leapfrog opens: the delta atom's plus every
    // prefix ear's.
    let bound_pre: Vec<usize> = std::iter::once(0)
        .chain(prefix.iter().copied())
        .flat_map(var_slots)
        .collect();
    let core_steps: Vec<usize> = (prefix.len() + 1..steps.len())
        .filter(|&s| is_core(s))
        .collect();
    // Free slots in first-occurrence (trie) order with their degree, then
    // by descending degree, stable within equal degrees.
    let mut order: Vec<(usize, usize)> = Vec::new();
    for &s in &core_steps {
        for slot in var_slots(s).filter(|slot| !bound_pre.contains(slot)) {
            match order.iter_mut().find(|(u, _)| *u == slot) {
                Some((_, degree)) => *degree += 1,
                None => order.push((slot, 1)),
            }
        }
    }
    order.sort_by_key(|(_, degree)| std::cmp::Reverse(*degree));
    let rank = |slot: usize| order.iter().position(|(u, _)| *u == slot);
    let tries: Box<[Trie]> = core_steps
        .iter()
        .map(|&s| {
            let mut cols: Vec<usize> = Vec::new();
            let mut free: Vec<(usize, usize)> = Vec::new();
            for (col, slot) in atom_slots[steps[s].atom].iter().enumerate() {
                match slot {
                    Some(v) if !bound_pre.contains(v) => {
                        free.push((rank(*v).expect("a free slot has a level"), col))
                    }
                    _ => cols.push(col),
                }
            }
            let prefix_len = cols.len();
            free.sort_unstable();
            cols.extend(free.into_iter().map(|(_, col)| col));
            Trie {
                atom: steps[s].atom,
                canonical: steps[s].canonical,
                cols: cols.into_boxed_slice(),
                prefix_len,
            }
        })
        .collect();
    let levels: Box<[WcojLevel]> = order
        .iter()
        .map(|&(slot, _)| WcojLevel {
            slot,
            cursors: core_steps
                .iter()
                .enumerate()
                .filter(|(_, &s)| var_slots(s).any(|v| v == slot))
                .map(|(i, _)| i)
                .collect(),
        })
        .collect();

    let mut pre_guards = Vec::new();
    let mut level_guards: Vec<Vec<usize>> = vec![Vec::new(); levels.len()];
    let mut deferred_guards = Vec::new();
    for &s in &core_steps {
        for &g in steps[s].guards.iter() {
            let (slot, bound) = reads[g];
            let involved: Vec<usize> = std::iter::once(slot).chain(bound).collect();
            if involved.iter().all(|slot| bound_pre.contains(slot)) {
                pre_guards.push(g);
                continue;
            }
            let placed = (0..levels.len()).find(|&i| {
                involved.iter().all(|slot| {
                    bound_pre.contains(slot) || levels[..=i].iter().any(|l| l.slot == *slot)
                })
            });
            match placed {
                Some(i) => level_guards[i].push(g),
                None => deferred_guards.push(g),
            }
        }
    }
    let suffix = (prefix.len() + 1..steps.len()).filter(|&s| !is_core(s));
    let stages = prefix
        .iter()
        .copied()
        .map(Stage::Probe)
        .chain([Stage::Intersect])
        .chain(suffix.map(Stage::Probe))
        .collect();
    Core {
        stages,
        tries,
        levels,
        pre_guards: pre_guards.into_boxed_slice(),
        level_guards: level_guards
            .into_iter()
            .map(Vec::into_boxed_slice)
            .collect(),
        deferred_guards: deferred_guards.into_boxed_slice(),
        ears,
    }
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

/// Plan every delta position of the semi-naive join: for each evaluation
/// order — the canonical sequence (`[delta] ++ join order`) when the
/// position gets a [`Core`] (at least two non-delta core atoms, none with a
/// repeated variable), its [`probe_outward`] order otherwise — pick per
/// step the exact composite prefix (bound variables and constants,
/// ascending columns, capped at [`MAX_PROBE_PREFIX`]), attach at most one
/// rangeable pushed condition on a free column whose bound side is already
/// determined, and schedule every pushed condition as a guard at the first
/// step where all its variables are bound. `reads` holds per pushed
/// condition its variable's slot and its bound variable's, `atom_slots`
/// per body atom and column the variable's slot (`None`: a constant).
fn plan_deltas(
    rule: &Rule,
    join_order: &JoinOrder,
    pushed: &[PushedCondition],
    reads: &[(usize, Option<usize>)],
    atom_slots: &[Vec<Option<usize>>],
) -> Box<[DeltaPlan]> {
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
        let tries: Vec<usize> = canonical[1..]
            .iter()
            .copied()
            .filter(|p| core.contains(p))
            .collect();
        let has_core = tries.len() >= 2
            && tries.iter().all(|&p| {
                let mut seen = BTreeSet::new();
                atoms[p].variables().all(|v| seen.insert(v))
            });
        let sequence = if has_core {
            canonical.clone()
        } else {
            probe_outward(&atoms, &canonical)
        };
        let mut bound: BTreeSet<Var> = BTreeSet::new();
        let mut pending: Vec<usize> = (0..pushed.len()).collect();
        let mut steps = Vec::with_capacity(sequence.len());
        for (s, &atom_idx) in sequence.iter().enumerate() {
            let atom = atoms[atom_idx];
            let (mut index_cols, mut range) = (Vec::new(), None);
            if s > 0 {
                index_cols = atom
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
                        (t.as_var() == Some(probe_var) && !index_cols.contains(&col)).then_some(col)
                    })
                };
                // The first viable condition in body order; a var-var one
                // ranges forward when it can, mirrored otherwise.
                let chosen = pending.iter().copied().find_map(|c| {
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
                if let Some((col, c, flipped)) = chosen {
                    let (op, (slot, bound)) = (pushed[c].op, reads[c]);
                    range = Some(match (flipped, bound) {
                        // Mirrored var-var orientation: probe the bound-side
                        // variable with the flipped op.
                        (true, _) => RangeBound::Var {
                            slot,
                            op: op.flipped(),
                        },
                        (false, None) => RangeBound::Const(c),
                        (false, Some(slot)) => RangeBound::Var { slot, op },
                    });
                    index_cols.push(col);
                }
            }
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
            steps.push(ProbeStep {
                atom: atom_idx,
                canonical: canonical
                    .iter()
                    .position(|&p| p == atom_idx)
                    .expect("the sequence permutes the canonical one"),
                prefix_len: index_cols.len() - usize::from(range.is_some()),
                index_cols: index_cols.into_boxed_slice(),
                range,
                guards: ready.into_boxed_slice(),
            });
        }
        debug_assert!(
            pending.is_empty(),
            "pushable conditions are positively bound by construction"
        );
        let core =
            has_core.then(|| plan_core(&steps, atom_slots, reads, &core, atoms.len() - core.len()));
        plans.push(DeltaPlan {
            steps: steps.into_boxed_slice(),
            reordered: sequence != canonical,
            core,
        });
    }
    plans.into_boxed_slice()
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

    /// Every index column list the plan's activations ensure under
    /// `strategy`, keyed by predicate: the union of
    /// [`FilterNode::index_lists`] over every delta position of every
    /// filter, and over each check's driver ([`FilterNode::check_driver`]).
    /// Under free join a position with a core contributes its ear probes'
    /// and tries' lists, not the all-probe lists of its core atoms; under
    /// `JoinStrategy::Binary` it contributes the all-probe lists. A
    /// fold-stratum filter's driver depends on the data, so all its
    /// positions count, and some of their lists may go unprobed by a run.
    ///
    /// The fold filters' union is kept on purpose: their data-dependent
    /// driver ([`FilterNode::final_driver`]) made 7.6× fewer join probes on
    /// `reason.links` than one fixed at compile time, and `vadalog explain`
    /// prints the union without running the program.
    ///
    /// A query session pre-builds these lists on its frozen EDB
    /// base (see `vadalog_storage::StoreBase::ensure_index`), so per-query
    /// overlay runs never fall back to a full base-covering index build.
    pub fn planned_index_cols(
        &self,
        strategy: JoinStrategy,
    ) -> BTreeMap<Sym, BTreeSet<Vec<usize>>> {
        let free_join = strategy == JoinStrategy::FreeJoin;
        let mut out: BTreeMap<Sym, BTreeSet<Vec<usize>>> = BTreeMap::new();
        let filters = self.filters.iter().map(|f| f.index_lists(None, free_join));
        let checks = self
            .checks
            .iter()
            .map(|c| c.index_lists(c.check_driver(), free_join));
        for (predicate, cols) in filters.chain(checks).flatten() {
            out.entry(predicate).or_default().insert(cols.to_vec());
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

    /// Do `step`'s guards probe the variables `names`, in that order?
    fn guards_probe(filter: &FilterNode, step: &ProbeStep, names: &[&str]) -> bool {
        let slots: Vec<usize> = names.iter().map(|n| filter.slots[&Var::new(n)]).collect();
        let guards = &filter.interned().guards;
        step.guards.iter().map(|&g| guards[g].slot).eq(slots)
    }

    /// Does `filter`'s `step` range with a constant bound that keeps `kept`
    /// and drops `dropped`?
    fn ranges_over(filter: &FilterNode, step: &ProbeStep, kept: Value, dropped: Value) -> bool {
        match step.range {
            Some(bound @ RangeBound::Const(_)) => {
                let range = bound.filter(filter.interned(), &[]).unwrap();
                range.matches(intern_value(&kept)) && !range.matches(intern_value(&dropped))
            }
            _ => false,
        }
    }

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
    fn rule_constants_are_interned_at_the_first_activation() {
        // Values no other test interns: the interner is process-global.
        let bound = Value::Float(7907.25);
        let head = Value::str("plan-time-constant-7907");
        let program =
            parse_program("N(x), x <= 7907.25, y = x + 1 -> Low(x, \"plan-time-constant-7907\").")
                .unwrap();
        let plan = AccessPlan::compile(&program);
        assert_eq!(find_value_id(&bound), None);
        assert_eq!(find_value_id(&head), None);
        let interned = plan.filters[0].interned();
        assert_eq!(interned.guards.len(), 1);
        assert!(interned.ranges[0].is_some());
        assert!(find_value_id(&bound).is_some());
        assert!(find_value_id(&head).is_some());
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
        let pushed = |f: usize| classify_conditions(&plan.filters[f].rule);
        // `w > 0.5` and `x != y` are var-op-bound; `w * 2 > 1.0` is an
        // expression and stays residual.
        let f0 = pushed(0);
        assert_eq!(f0.len(), 2);
        assert!(f0[0].is_rangeable());
        assert_eq!(f0[0].var, Var::new("w"));
        assert!(!f0[1].is_rangeable()); // != is guard-only
        assert_eq!(
            f0.iter().map(|p| p.literal).collect::<BTreeSet<_>>(),
            BTreeSet::from([1, 2])
        );
        // `v > 0.5` reads an aggregate-assigned variable: residual.
        assert!(pushed(1).is_empty());
        // variable-variable comparison across atoms is pushable
        let f2 = pushed(2);
        assert_eq!(f2.len(), 1);
        assert!(matches!(f2[0].bound, BoundTerm::Var(u) if u == Var::new("y")));
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
        assert!(classify_conditions(&plan.filters[0].rule).is_empty());
        assert_eq!(classify_conditions(&plan.filters[1].rule).len(), 1);
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
        let filter = &plan.filters[0];
        let own_step = &filter.deltas[0].steps[1];
        // Both `w > 0.5` (col 2) and `z < 100` (col 1) could range this
        // step; the plan probes the first in body order, and only its
        // column extends the index list.
        assert_eq!(own_step.range_col(), Some(2));
        assert!(ranges_over(
            filter,
            own_step,
            Value::Float(0.7),
            Value::Float(0.3)
        ));
        // A constant bound: the forward orientation, never a flipped one.
        assert!(matches!(own_step.range, Some(RangeBound::Const(_))));
        assert_eq!(*own_step.index_cols, [0, 2]);
        // Both conditions are guarded at this step.
        assert!(guards_probe(filter, own_step, &["w", "z"]));
        let planned = plan.planned_index_cols(JoinStrategy::FreeJoin);
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
        for dp in tri.deltas.iter() {
            let core = dp.core.as_ref().expect("the triangle body is cyclic");
            assert_eq!(core.ears, 0, "the core covers the whole body");
            assert_eq!(core.tries.len(), 2);
            // The delta atom binds two of the three variables; the third is
            // free and occurs in both remaining tries.
            assert_eq!(core.levels.len(), 1);
            assert_eq!(core.levels[0].cursors.len(), 2);
            for trie in core.tries.iter() {
                assert_eq!(trie.prefix_len, 1);
                assert_eq!(trie.cols.len(), 2);
            }
        }
        // Binary step plans stay planned alongside as the fallback.
        assert_eq!(tri.deltas[0].steps.len(), 3);
        assert!(plan.filters[1].deltas.iter().all(|dp| dp.core.is_none()));
        // The trie column lists are registered for session pre-builds.
        let planned = plan.planned_index_cols(JoinStrategy::FreeJoin);
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
        for (delta, dp) in lolli.deltas.iter().enumerate() {
            let core = dp.core.as_ref().expect("lollipop body has a core");
            assert!(core.ears > 0);
            let seq_atoms: Vec<usize> = dp.steps.iter().map(|s| s.atom).collect();
            // Core tries cover exactly the triangle atoms {0, 1, 2} minus
            // the delta; pendant atoms 3 and 4 stay binary ear steps.
            let mut core_atoms: Vec<usize> = core.tries.iter().map(|t| t.atom).collect();
            core_atoms.sort_unstable();
            let expect: Vec<usize> = [0usize, 1, 2].into_iter().filter(|p| *p != delta).collect();
            assert_eq!(core_atoms, expect, "delta {delta}");
            let ear_steps: Vec<usize> = core
                .stages
                .iter()
                .filter_map(|stage| match stage {
                    Stage::Probe(step) => Some(*step),
                    Stage::Intersect => None,
                })
                .collect();
            for &step in &ear_steps {
                assert!(!expect.contains(&seq_atoms[step]));
            }
            assert_eq!(
                ear_steps.len() + core.tries.len(),
                dp.steps.len() - 1,
                "every non-delta atom is routed exactly once"
            );
            assert!(!core.levels.is_empty());
        }
        // Acyclic body: no plan.
        assert!(plan.filters[1].deltas.iter().all(|dp| dp.core.is_none()));
        // The join order puts the constant-bearing `K` atom first, so with a
        // triangle atom as the delta it is probed *before* the leapfrog and
        // its variables count as bound in the core tries.
        let hub = plan.filters[2].deltas[0].core.as_ref().unwrap();
        assert_eq!(*hub.stages, [Stage::Probe(1), Stage::Intersect]);
        // An ear-wrapped core registers its trie lists under the plan's
        // order for session pre-builds, like a fully cyclic body.
        let planned = plan.planned_index_cols(JoinStrategy::FreeJoin);
        for trie in hub.tries.iter() {
            assert!(planned[&intern("E")].contains(&trie.cols.to_vec()));
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
        for (delta, dp) in plan.filters[0].deltas.iter().enumerate() {
            assert_eq!(dp.core.is_some(), delta == 2, "delta {delta}");
        }
        // A repeated-variable *ear* is probed binary-style and never
        // becomes a trie, so it disables nothing.
        assert!(plan.filters[1].deltas.iter().all(|dp| dp.core.is_some()));
    }

    /// The shape of the HJE-unrolled strong-links rules: a `PSC` delta
    /// shares nothing with `Control`, which the join order puts next.
    const REPRODUCER: &str = "Control(a, b), KeyPerson(a, p), PSC(y, p), b > y -> S(b, y).";

    #[test]
    fn deltas_probe_outward_and_keep_canonical_positions() {
        let plan = AccessPlan::compile(&parse_program(REPRODUCER).unwrap());
        let filter = &plan.filters[0];
        assert_eq!(filter.join_order.0, vec![0, 1, 2]);
        let psc = &filter.deltas[2];
        let atoms: Vec<usize> = psc.steps.iter().map(|s| s.atom).collect();
        assert_eq!(atoms, vec![2, 1, 0], "PSC, KeyPerson, Control");
        let canonical: Vec<usize> = psc.steps.iter().map(|s| s.canonical).collect();
        assert_eq!(canonical, vec![0, 2, 1]);
        assert!(psc.reordered);
        // `KeyPerson` probes `p` (column 1); `Control` then probes `a`
        // (column 0) and ranges `b > y` on column 1 instead of scanning.
        assert_eq!(psc.steps[1].prefix_cols(), [1]);
        assert_eq!(psc.steps[2].prefix_cols(), [0]);
        assert_eq!(psc.steps[2].range_col(), Some(1));
        assert!(matches!(psc.steps[2].range, Some(RangeBound::Var { .. })));
        // Deltas whose next atom in join order is already connected keep
        // the canonical sequence.
        for dp in &filter.deltas[..2] {
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
            for dp in filter.deltas.iter() {
                reordered += usize::from(dp.reordered);
                let mut bound = atoms[dp.steps[0].atom].variable_set();
                for (s, step) in dp.steps.iter().enumerate().skip(1) {
                    if step.prefix_len == 0 {
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
        for (delta, dp) in filter.deltas.iter().enumerate() {
            assert!(dp.core.is_some());
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
        assert_eq!(filter.deltas.len(), 2);
        // Delta on Control (atom 0): the Own step probes y (column 0, bound
        // by Control) as an exact prefix and pushes `w > 0.5` as a range on
        // column 2 — one composite index instead of probe-then-filter.
        let d0 = &filter.deltas[0];
        assert_eq!(d0.steps[0].atom, 0);
        assert!(d0.steps[0].index_cols.is_empty(), "delta step scans");
        let own_step = &d0.steps[1];
        assert_eq!(own_step.atom, 1);
        assert_eq!(own_step.prefix_cols(), [0]);
        assert_eq!(own_step.range_col(), Some(2));
        assert!(ranges_over(
            filter,
            own_step,
            Value::Float(0.7),
            Value::Float(0.3)
        ));
        assert_eq!(*own_step.index_cols, [0, 2]);
        // The guard lands where w becomes bound (the Own step).
        assert!(guards_probe(filter, own_step, &["w"]));
        // Delta on Own: w is bound by the delta scan itself, so the guard
        // attaches to step 0 and the Control step probes column 1 (= y).
        let d1 = &filter.deltas[1];
        assert_eq!(d1.steps[0].atom, 1);
        assert!(guards_probe(filter, &d1.steps[0], &["w"]));
        assert_eq!(d1.steps[1].prefix_cols(), [1]);
        assert_eq!(d1.steps[1].range_col(), None);
    }
}
