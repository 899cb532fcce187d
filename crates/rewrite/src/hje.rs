//! Harmful-Join Elimination (Section 3.2 of the paper).
//!
//! The termination strategy of Algorithm 1 is only correct for *harmless*
//! warded programs (Theorem 2), so warded programs containing harmful joins
//! (two body atoms joined on a variable that can bind to labelled nulls) are
//! first rewritten into an equivalent harmless-warded set of rules.
//!
//! The algorithm follows the paper's two phases:
//!
//! * **cause elimination** — for every harmful rule α:
//!   * *grounding*: a copy of α restricted to ground values of the harmful
//!     variable is kept, guarded by the active-domain predicate
//!     [`DOM_PREDICATE`] (the paper introduces an auxiliary primed predicate
//!     for this; guarding the copy directly with `Dom(h)` is equivalent and
//!     keeps the rule count lower);
//!   * *direct / indirect causes*: every rule β whose head can produce the
//!     null flowing into the harmful position is inlined into α. Direct
//!     causes (β invents the null existentially) replace the harmful
//!     variable with a Skolem term `f_β(frontier)`; indirect causes
//!     (β merely propagates the null) splice β's body in and keep the
//!     variable harmful, to be resolved in a later round;
//! * **Skolem simplification** — rules whose Skolem terms cannot be
//!   satisfied are dropped (*virtual joins*: a Skolem equated with a
//!   constant, two distinct Skolem functions equated, or a Skolem equated
//!   with a nesting of itself), and rules where the same Skolem term meets
//!   itself are *linearized* by unifying the two occurrences.
//!
//! The rewriting is a bounded fixpoint: wardedness guarantees termination in
//! theory (worst-case exponentially many rules), and the implementation
//! additionally enforces generous caps on rounds and generated rules; if a
//! cap is hit the outcome is flagged `complete = false` and the engine falls
//! back to the conservative termination behaviour for the remaining rules.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vadalog_analysis::positions::{affected_positions, AffectedPositions, Position};
use vadalog_model::prelude::*;

/// Name of the active-domain guard predicate (the paper's `Dom`).
///
/// The storage layer and both evaluation engines populate this unary
/// predicate with every constant occurring in the extensional database, as
/// Section 2 prescribes for `ACDom`.
pub const DOM_PREDICATE: &str = "Dom";

/// Maximum number of worklist iterations before giving up.
const MAX_ROUNDS: usize = 200_000;
/// Maximum number of rules the rewriting may generate.
const MAX_RULES: usize = 20_000;
/// Maximum Skolem nesting depth; deeper terms are treated as unsatisfiable
/// recursive applications (virtual join case 1c).
const MAX_SKOLEM_DEPTH: usize = 4;
/// Maximum number of cause-elimination steps applied to a single rule before
/// it is replaced by its `Dom`-grounded copy.
///
/// The paper's algorithm terminates because the composition can be *folded*
/// back onto already-derived predicates (Example 9 reuses `StrongLink`
/// recursively); implementing that folding in full generality is out of scope
/// here, so indirect causes are unfolded only up to this depth. Rules cut off
/// by the budget keep their grounded copy, so the output is always
/// harmless-warded; the price is that null-joins reachable only through
/// longer propagation chains are not rewritten (the outcome is flagged
/// `complete = false`; ROADMAP.md tracks the answers this loses as open
/// item 2, "Harmful-join elimination that loses no answers").
const UNFOLD_BUDGET: usize = 6;

/// Result of harmful-join elimination.
#[derive(Clone, Debug)]
pub struct HjeOutcome {
    /// The rewritten program.
    pub program: Program,
    /// Number of worklist steps performed.
    pub rounds: usize,
    /// Number of rules generated (before final deduplication).
    pub generated_rules: usize,
    /// Number of candidate rules dropped as virtual joins.
    pub dropped_virtual_joins: usize,
    /// Whether the fixpoint completed within the caps.
    pub complete: bool,
}

/// Skolem-extended terms used only inside the rewriting.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum STerm {
    Var(Var),
    Const(Value),
    /// Skolem term `f_β(args)`, identified by the index of the originating
    /// rule β in the input program.
    Sk(usize, Vec<STerm>),
}

impl STerm {
    fn from_term(t: &Term) -> STerm {
        match t {
            Term::Var(v) => STerm::Var(*v),
            Term::Const(c) => STerm::Const(c.clone()),
        }
    }

    fn to_term(&self) -> Option<Term> {
        match self {
            STerm::Var(v) => Some(Term::Var(*v)),
            STerm::Const(c) => Some(Term::Const(c.clone())),
            STerm::Sk(_, _) => None,
        }
    }

    fn depth(&self) -> usize {
        match self {
            STerm::Sk(_, args) => 1 + args.iter().map(STerm::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    fn has_skolem(&self) -> bool {
        matches!(self, STerm::Sk(_, _))
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct SAtom {
    predicate: Sym,
    args: Vec<STerm>,
}

impl SAtom {
    fn from_atom(a: &Atom) -> SAtom {
        SAtom {
            predicate: a.predicate,
            args: a.terms.iter().map(STerm::from_term).collect(),
        }
    }

    fn to_atom(&self) -> Option<Atom> {
        let mut terms = Vec::with_capacity(self.args.len());
        for a in &self.args {
            terms.push(a.to_term()?);
        }
        Some(Atom {
            predicate: self.predicate,
            terms,
        })
    }
}

#[derive(Clone, Debug)]
struct SRule {
    label: Option<String>,
    atoms: Vec<SAtom>,
    rest: Vec<Literal>,
    head: RuleHead,
    /// Number of cause-elimination steps already applied to this rule.
    depth: usize,
}

impl SRule {
    fn from_rule(r: &Rule) -> SRule {
        let atoms = r.body_atoms().iter().map(|a| SAtom::from_atom(a)).collect();
        let rest = r
            .body
            .iter()
            .filter(|l| !matches!(l, Literal::Atom(_)))
            .cloned()
            .collect();
        SRule {
            label: r.label.clone(),
            atoms,
            rest,
            head: r.head.clone(),
            depth: 0,
        }
    }

    fn to_rule(&self) -> Option<Rule> {
        let mut body: Vec<Literal> = Vec::with_capacity(self.atoms.len() + self.rest.len());
        for a in &self.atoms {
            body.push(Literal::Atom(a.to_atom()?));
        }
        body.extend(self.rest.iter().cloned());
        Some(Rule {
            label: self.label.clone(),
            body,
            head: self.head.clone(),
        })
    }

    /// Variables that occur in the head or in non-atom literals; these must
    /// never be bound to Skolem terms.
    fn protected_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        match &self.head {
            RuleHead::Atoms(atoms) => {
                for a in atoms {
                    out.extend(a.variables());
                }
            }
            RuleHead::Falsum => {}
            RuleHead::Equality(a, b) => {
                if let Some(v) = a.as_var() {
                    out.insert(v);
                }
                if let Some(v) = b.as_var() {
                    out.insert(v);
                }
            }
        }
        for l in &self.rest {
            out.extend(l.variables());
        }
        out
    }
}

type Subst = BTreeMap<Var, STerm>;

fn walk(t: &STerm, subst: &Subst) -> STerm {
    match t {
        STerm::Var(v) => match subst.get(v) {
            Some(bound) => walk(bound, subst),
            None => t.clone(),
        },
        STerm::Sk(id, args) => STerm::Sk(*id, args.iter().map(|a| walk(a, subst)).collect()),
        STerm::Const(_) => t.clone(),
    }
}

fn occurs(v: Var, t: &STerm) -> bool {
    match t {
        STerm::Var(x) => *x == v,
        STerm::Const(_) => false,
        STerm::Sk(_, args) => args.iter().any(|a| occurs(v, a)),
    }
}

fn unify(a: &STerm, b: &STerm, subst: &mut Subst) -> bool {
    let a = walk(a, subst);
    let b = walk(b, subst);
    match (&a, &b) {
        (STerm::Var(x), STerm::Var(y)) if x == y => true,
        (STerm::Var(x), other) => {
            if occurs(*x, other) {
                false
            } else {
                subst.insert(*x, other.clone());
                true
            }
        }
        (other, STerm::Var(y)) => {
            if occurs(*y, other) {
                false
            } else {
                subst.insert(*y, other.clone());
                true
            }
        }
        (STerm::Const(c1), STerm::Const(c2)) => c1 == c2,
        (STerm::Sk(i, args1), STerm::Sk(j, args2)) => {
            i == j
                && args1.len() == args2.len()
                && args1
                    .iter()
                    .zip(args2.iter())
                    .all(|(x, y)| unify(x, y, subst))
        }
        _ => false,
    }
}

fn apply_atom(atom: &SAtom, subst: &Subst) -> SAtom {
    SAtom {
        predicate: atom.predicate,
        args: atom.args.iter().map(|a| walk(a, subst)).collect(),
    }
}

/// Apply a substitution to a model-level term; fails if a protected variable
/// would become a Skolem term.
fn apply_model_term(t: &Term, subst: &Subst) -> Option<Term> {
    match t {
        Term::Var(v) => walk(&STerm::Var(*v), subst).to_term(),
        Term::Const(_) => Some(t.clone()),
    }
}

fn apply_head(head: &RuleHead, subst: &Subst) -> Option<RuleHead> {
    Some(match head {
        RuleHead::Atoms(atoms) => {
            let mut out = Vec::with_capacity(atoms.len());
            for a in atoms {
                let mut terms = Vec::with_capacity(a.terms.len());
                for t in &a.terms {
                    terms.push(apply_model_term(t, subst)?);
                }
                out.push(Atom {
                    predicate: a.predicate,
                    terms,
                });
            }
            RuleHead::Atoms(out)
        }
        RuleHead::Falsum => RuleHead::Falsum,
        RuleHead::Equality(a, b) => {
            RuleHead::Equality(apply_model_term(a, subst)?, apply_model_term(b, subst)?)
        }
    })
}

fn apply_rest(rest: &[Literal], subst: &Subst) -> Option<Vec<Literal>> {
    // Conditions and assignments may only reference variables bound to plain
    // terms; a Skolem binding there makes the rule unusable.
    let mut out = Vec::with_capacity(rest.len());
    for lit in rest {
        for v in lit.variables() {
            if let Some(bound) = subst.get(&v) {
                if walk(bound, subst).has_skolem() {
                    return None;
                }
            }
        }
        out.push(substitute_literal_vars(lit, subst));
    }
    Some(out)
}

fn substitute_literal_vars(lit: &Literal, subst: &Subst) -> Literal {
    let map_expr = |e: &Expr| substitute_expr(e, subst);
    match lit {
        Literal::Atom(a) => Literal::Atom(substitute_atom_terms(a, subst)),
        Literal::Negated(a) => Literal::Negated(substitute_atom_terms(a, subst)),
        Literal::Condition(c) => {
            Literal::Condition(Condition::new(map_expr(&c.left), c.op, map_expr(&c.right)))
        }
        Literal::Assignment(a) => Literal::Assignment(Assignment::new(a.var, map_expr(&a.expr))),
    }
}

fn substitute_atom_terms(a: &Atom, subst: &Subst) -> Atom {
    Atom {
        predicate: a.predicate,
        terms: a
            .terms
            .iter()
            .map(|t| apply_model_term(t, subst).unwrap_or_else(|| t.clone()))
            .collect(),
    }
}

fn substitute_expr(e: &Expr, subst: &Subst) -> Expr {
    match e {
        Expr::Term(t) => Expr::Term(apply_model_term(t, subst).unwrap_or_else(|| t.clone())),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(substitute_expr(inner, subst))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(substitute_expr(a, subst)),
            Box::new(substitute_expr(b, subst)),
        ),
        Expr::Call(n, args) => {
            Expr::Call(*n, args.iter().map(|a| substitute_expr(a, subst)).collect())
        }
        Expr::Skolem(n, args) => {
            Expr::Skolem(*n, args.iter().map(|a| substitute_expr(a, subst)).collect())
        }
        Expr::Aggregate(agg) => Expr::Aggregate(Aggregation {
            func: agg.func,
            arg: Box::new(substitute_expr(&agg.arg, subst)),
            contributors: agg.contributors.clone(),
        }),
    }
}

/// A cause: an input rule that can put a value into a given predicate
/// position.
#[derive(Clone, Debug)]
struct Cause {
    /// Index of the rule in the input program.
    rule_index: usize,
    /// The head atom of the cause (for multi-head rules, the relevant one).
    head_atom: Atom,
    /// The full rule.
    rule: Rule,
}

/// How the cause feeds the position: by inventing the null (direct) or by
/// propagating a frontier variable (indirect).
enum CauseKind {
    Direct { frontier: Vec<Var> },
    Indirect { via: Var },
}

fn cause_kind(cause: &Cause, position: usize) -> Option<CauseKind> {
    let term = cause.head_atom.terms.get(position)?;
    match term {
        Term::Var(v) => {
            if cause.rule.existential_variables().contains(v) {
                Some(CauseKind::Direct {
                    frontier: cause.rule.frontier_variables().into_iter().collect(),
                })
            } else {
                Some(CauseKind::Indirect { via: *v })
            }
        }
        Term::Const(_) => None,
    }
}

/// Rename all variables of a rule with a unique suffix so they cannot clash
/// with the rule being rewritten.
fn rename_rule(rule: &Rule, suffix: usize) -> Rule {
    let mut mapping: BTreeMap<Var, Var> = BTreeMap::new();
    for v in rule.all_variables() {
        mapping.insert(v, Var::new(&format!("{}__c{}", v.name(), suffix)));
    }
    let rename_term = |t: &Term| match t {
        Term::Var(v) => Term::Var(mapping[v]),
        Term::Const(_) => t.clone(),
    };
    let rename_atom = |a: &Atom| Atom {
        predicate: a.predicate,
        terms: a.terms.iter().map(rename_term).collect(),
    };
    let subst: Subst = mapping
        .iter()
        .map(|(from, to)| (*from, STerm::Var(*to)))
        .collect();
    Rule {
        label: rule.label.clone(),
        body: rule
            .body
            .iter()
            .map(|l| match l {
                Literal::Atom(a) => Literal::Atom(rename_atom(a)),
                Literal::Negated(a) => Literal::Negated(rename_atom(a)),
                other => substitute_literal_vars(other, &subst),
            })
            .collect(),
        head: match &rule.head {
            RuleHead::Atoms(atoms) => RuleHead::Atoms(atoms.iter().map(rename_atom).collect()),
            RuleHead::Falsum => RuleHead::Falsum,
            RuleHead::Equality(a, b) => RuleHead::Equality(rename_term(a), rename_term(b)),
        },
    }
}

/// Classification of one pending rule: where is the next harmful thing to
/// eliminate?
enum Pending {
    /// A harmful join on a plain variable between at least two body atoms.
    HarmfulVar(Var),
    /// A Skolem term occurring in some body atom (to be resolved against the
    /// causes of that atom).
    SkolemAt { atom: usize, position: usize },
    /// Nothing left to do.
    Clean,
}

fn harmful_vars(rule: &SRule, affected: &AffectedPositions) -> Vec<Var> {
    let mut occ: BTreeMap<Var, Vec<(usize, Position)>> = BTreeMap::new();
    for (ai, atom) in rule.atoms.iter().enumerate() {
        for (pi, t) in atom.args.iter().enumerate() {
            if let STerm::Var(v) = t {
                occ.entry(*v)
                    .or_default()
                    .push((ai, Position::new(atom.predicate, pi)));
            }
        }
    }
    let mut out = Vec::new();
    for (v, occurrences) in occ {
        let atoms: BTreeSet<usize> = occurrences.iter().map(|(a, _)| *a).collect();
        if atoms.len() < 2 {
            continue;
        }
        if occurrences.iter().all(|(_, p)| affected.contains(*p)) {
            out.push(v);
        }
    }
    out
}

fn classify_pending(rule: &SRule, affected: &AffectedPositions) -> Pending {
    for (ai, atom) in rule.atoms.iter().enumerate() {
        for (pi, t) in atom.args.iter().enumerate() {
            if walk(t, &Subst::new()).has_skolem() {
                return Pending::SkolemAt {
                    atom: ai,
                    position: pi,
                };
            }
        }
    }
    if let Some(v) = harmful_vars(rule, affected).into_iter().next() {
        return Pending::HarmfulVar(v);
    }
    Pending::Clean
}

/// Eliminate harmful joins from a (warded) program. Rewrites rules and
/// annotations only: the outcome's program carries no facts.
pub fn eliminate_harmful_joins(program: &Program) -> HjeOutcome {
    let affected = affected_positions(program);

    // Collect the causes once: every TGD head atom of the input program.
    let mut causes: BTreeMap<Sym, Vec<Cause>> = BTreeMap::new();
    for (idx, rule) in program.rules.iter().enumerate() {
        for head_atom in rule.head_atoms() {
            causes.entry(head_atom.predicate).or_default().push(Cause {
                rule_index: idx,
                head_atom: head_atom.clone(),
                rule: rule.clone(),
            });
        }
    }

    let mut final_rules: Vec<Rule> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut worklist: VecDeque<SRule> = VecDeque::new();
    let mut rename_counter = 0usize;
    let mut rounds = 0usize;
    let mut generated = 0usize;
    let mut dropped = 0usize;
    let mut complete = true;

    for rule in &program.rules {
        if !rule.is_tgd() {
            // Constraints and EGDs are checked on ground values only (the
            // paper's Dom(*) discipline); they pass through unchanged.
            final_rules.push(rule.clone());
            continue;
        }
        let srule = SRule::from_rule(rule);
        worklist.push_back(srule);
    }

    while let Some(rule) = worklist.pop_front() {
        rounds += 1;
        if rule.depth > UNFOLD_BUDGET {
            // Out of unfolding budget: fall back to the grounded copy.
            complete = false;
            if let Some(grounded) = ground_guarded_copy(&rule, &affected) {
                push_unique(&mut final_rules, &mut seen, grounded);
            }
            continue;
        }
        if rounds > MAX_ROUNDS || final_rules.len() + worklist.len() > MAX_RULES {
            complete = false;
            // Keep the remaining pending rules in their grounded form only.
            if let Some(grounded) = ground_guarded_copy(&rule, &affected) {
                push_unique(&mut final_rules, &mut seen, grounded);
            }
            for r in worklist.drain(..) {
                if let Some(grounded) = ground_guarded_copy(&r, &affected) {
                    push_unique(&mut final_rules, &mut seen, grounded);
                }
            }
            break;
        }

        match classify_pending(&rule, &affected) {
            Pending::Clean => {
                if let Some(r) = rule.to_rule() {
                    push_unique(&mut final_rules, &mut seen, r);
                }
            }
            Pending::HarmfulVar(h) => {
                // Grounding: keep a copy restricted to ground values of h.
                if let Some(grounded) = rule.to_rule().map(|r| add_dom_guard(&r, h)) {
                    push_unique(&mut final_rules, &mut seen, grounded);
                }
                // Cause elimination on the first atom holding h.
                let atom_idx = rule
                    .atoms
                    .iter()
                    .position(|a| a.args.contains(&STerm::Var(h)))
                    .expect("harmful variable must occur in some atom");
                let results = eliminate_at(
                    &rule,
                    atom_idx,
                    &STerm::Var(h),
                    &causes,
                    &mut rename_counter,
                    &mut dropped,
                );
                for r in results {
                    generated += 1;
                    worklist.push_back(r);
                }
            }
            Pending::SkolemAt { atom, position } => {
                let sk = rule.atoms[atom].args[position].clone();
                let results =
                    eliminate_at(&rule, atom, &sk, &causes, &mut rename_counter, &mut dropped);
                for r in results {
                    generated += 1;
                    worklist.push_back(r);
                }
            }
        }
    }

    let mut out = Program {
        rules: final_rules,
        facts: Vec::new(),
        annotations: program.annotations.clone(),
    };
    // Deduplicate once more at the model level (different variable names can
    // yield textually distinct but identical rules; cheap string dedup only).
    let mut dedup_seen = BTreeSet::new();
    out.rules.retain(|r| dedup_seen.insert(r.to_string()));

    HjeOutcome {
        program: out,
        rounds,
        generated_rules: generated,
        dropped_virtual_joins: dropped,
        complete,
    }
}

fn push_unique(rules: &mut Vec<Rule>, seen: &mut BTreeSet<String>, rule: Rule) {
    if seen.insert(rule.to_string()) {
        rules.push(rule);
    }
}

/// `Dom(h), body → head`: the grounded copy of a harmful rule.
fn add_dom_guard(rule: &Rule, h: Var) -> Rule {
    let mut body = vec![Literal::Atom(Atom {
        predicate: intern(DOM_PREDICATE),
        terms: vec![Term::Var(h)],
    })];
    body.extend(rule.body.iter().cloned());
    Rule {
        label: rule.label.clone(),
        body,
        head: rule.head.clone(),
    }
}

/// Grounded copy used when the rewriting is cut short: guard every harmful
/// variable of the rule with `Dom`.
fn ground_guarded_copy(rule: &SRule, affected: &AffectedPositions) -> Option<Rule> {
    let base = rule.to_rule()?;
    let mut out = base;
    for h in harmful_vars(rule, affected) {
        out = add_dom_guard(&out, h);
    }
    Some(out)
}

/// Replace body atom `atom_idx` of `rule` using every cause of its predicate,
/// resolving the harmful value `target` (a variable or a Skolem term) at the
/// positions where it occurs in that atom.
fn eliminate_at(
    rule: &SRule,
    atom_idx: usize,
    target: &STerm,
    causes: &BTreeMap<Sym, Vec<Cause>>,
    rename_counter: &mut usize,
    dropped: &mut usize,
) -> Vec<SRule> {
    let mut out = Vec::new();
    let atom = &rule.atoms[atom_idx];
    let Some(cause_list) = causes.get(&atom.predicate) else {
        // No rule can ever feed this atom with a null: only the grounded
        // copy (already emitted by the caller for variables) is needed.
        return out;
    };
    let target_positions: Vec<usize> = atom
        .args
        .iter()
        .enumerate()
        .filter(|(_, t)| *t == target)
        .map(|(i, _)| i)
        .collect();
    let protected = rule.protected_vars();

    'causes: for cause in cause_list {
        *rename_counter += 1;
        let renamed = rename_rule(&cause.rule, *rename_counter);
        // Find the corresponding (renamed) head atom.
        let renamed_head = renamed
            .head_atoms()
            .into_iter()
            .find(|a| a.predicate == atom.predicate)
            .cloned()
            .expect("cause head atom must exist after renaming");

        let mut subst = Subst::new();
        // Unify non-target positions of the cause head with the atom.
        for (i, arg) in atom.args.iter().enumerate() {
            if target_positions.contains(&i) {
                continue;
            }
            let head_term = STerm::from_term(&renamed_head.terms[i]);
            if !unify(arg, &head_term, &mut subst) {
                continue 'causes;
            }
        }

        // Work out what flows into the target positions.
        let renamed_cause = Cause {
            rule_index: cause.rule_index,
            head_atom: renamed_head.clone(),
            rule: renamed.clone(),
        };
        let mut replacement_for_target: Option<STerm> = None;
        let mut ok = true;
        for &pos in &target_positions {
            match cause_kind(&renamed_cause, pos) {
                Some(CauseKind::Direct { frontier }) => {
                    let sk = STerm::Sk(
                        cause.rule_index,
                        frontier
                            .iter()
                            .map(|v| walk(&STerm::Var(*v), &subst))
                            .collect(),
                    );
                    if sk.depth() > MAX_SKOLEM_DEPTH {
                        ok = false;
                        break;
                    }
                    // The target must equal the invented Skolem term.
                    match target {
                        STerm::Var(h) => {
                            if protected.contains(h) {
                                // A harmful-join variable never occurs in the
                                // head of a warded rule; if it does the rule
                                // is beyond what we can rewrite — drop it.
                                ok = false;
                                break;
                            }
                            if !unify(&STerm::Var(*h), &sk, &mut subst) {
                                ok = false;
                                break;
                            }
                        }
                        other => {
                            // Skolem-vs-Skolem: virtual join unless the same
                            // function with unifiable arguments
                            // (linearization).
                            if !unify(other, &sk, &mut subst) {
                                ok = false;
                                break;
                            }
                        }
                    }
                    replacement_for_target = Some(sk);
                }
                Some(CauseKind::Indirect { via }) => {
                    // The cause propagates its own variable into the
                    // position: identify it with the target.
                    if !unify(&STerm::Var(via), target, &mut subst) {
                        ok = false;
                        break;
                    }
                    replacement_for_target = Some(walk(target, &subst));
                }
                None => {
                    // The cause writes a constant there: it can never feed a
                    // null, so it contributes nothing beyond the grounded
                    // copy.
                    ok = false;
                    break;
                }
            }
        }
        if !ok || replacement_for_target.is_none() {
            *dropped += 1;
            continue;
        }

        // Build the new rule: α with the target atom replaced by the cause's
        // body, everything under the combined substitution.
        let mut new_atoms: Vec<SAtom> = Vec::new();
        for (i, a) in rule.atoms.iter().enumerate() {
            if i == atom_idx {
                for b in renamed.body_atoms() {
                    new_atoms.push(apply_atom(&SAtom::from_atom(b), &subst));
                }
            } else {
                new_atoms.push(apply_atom(a, &subst));
            }
        }
        let Some(new_rest) = apply_rest(&rule.rest, &subst) else {
            *dropped += 1;
            continue;
        };
        let mut new_rest = new_rest;
        // Carry over the cause's own conditions / assignments.
        let cause_rest: Vec<Literal> = renamed
            .body
            .iter()
            .filter(|l| !matches!(l, Literal::Atom(_)))
            .cloned()
            .collect();
        match apply_rest(&cause_rest, &subst) {
            Some(extra) => new_rest.extend(extra),
            None => {
                *dropped += 1;
                continue;
            }
        }
        let Some(new_head) = apply_head(&rule.head, &subst) else {
            *dropped += 1;
            continue;
        };
        // Drop rules whose Skolem terms grew beyond the recursion cap
        // (virtual join case 1c).
        if new_atoms
            .iter()
            .any(|a| a.args.iter().any(|t| t.depth() > MAX_SKOLEM_DEPTH))
        {
            *dropped += 1;
            continue;
        }
        out.push(SRule {
            label: rule.label.clone(),
            atoms: new_atoms,
            rest: new_rest,
            head: new_head,
            depth: rule.depth + 1,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_analysis::analyze_program;
    use vadalog_parser::parse_program;

    fn run(src: &str) -> HjeOutcome {
        eliminate_harmful_joins(&parse_program(src).unwrap())
    }

    const EXAMPLE5: &str = "KeyPerson(x, p) -> PSC(x, p).\n\
                            Company(x) -> PSC(x, p).\n\
                            Control(y, x), PSC(y, p) -> PSC(x, p).\n\
                            PSC(x, p), PSC(y, p), x > y -> StrongLink(x, y).";

    #[test]
    fn example5_becomes_harmless_warded() {
        let out = run(EXAMPLE5);
        let analysis = analyze_program(&out.program);
        assert!(analysis.is_warded(), "output must stay warded");
        assert!(
            analysis.is_harmless_warded(),
            "harmful joins must be eliminated:\n{}",
            out.program
        );
    }

    #[test]
    fn example5_keeps_a_dom_grounded_copy() {
        let out = run(EXAMPLE5);
        let has_dom_rule = out.program.rules.iter().any(|r| {
            r.body_predicates().contains(&intern(DOM_PREDICATE))
                && r.head_predicates().contains(&intern("StrongLink"))
        });
        assert!(has_dom_rule, "grounded copy missing:\n{}", out.program);
    }

    #[test]
    fn example5_derives_control_based_strong_links() {
        // The rewriting must produce rules deriving StrongLink directly from
        // Company/Control without going through nulls (the transitive-closure
        // flavoured rules of Example 9).
        let out = run(EXAMPLE5);
        let derived: Vec<&Rule> = out
            .program
            .rules
            .iter()
            .filter(|r| {
                r.head_predicates().contains(&intern("StrongLink"))
                    && !r.body_predicates().contains(&intern("PSC"))
                    && !r.body_predicates().contains(&intern(DOM_PREDICATE))
            })
            .collect();
        assert!(
            !derived.is_empty(),
            "expected null-free StrongLink rules, got:\n{}",
            out.program
        );
        // At least one of them must mention Company (the direct cause of the
        // existential) in its body.
        assert!(
            derived
                .iter()
                .any(|r| r.body_predicates().contains(&intern("Company"))),
            "expected a Company-based rule:\n{}",
            out.program
        );
    }

    #[test]
    fn harmless_programs_pass_through_unchanged() {
        let src = "Company(x) -> KeyPerson(p, x).\n\
                   Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).";
        let out = run(src);
        assert!(out.complete);
        assert_eq!(out.program.rules.len(), 2);
        assert_eq!(out.dropped_virtual_joins, 0);
    }

    #[test]
    fn plain_datalog_is_untouched() {
        let src = "Own(x, y, w), w > 0.5 -> Control(x, y).\n\
                   Control(x, y), Control(y, z) -> Control(x, z).";
        let out = run(src);
        assert_eq!(out.program.rules.len(), 2);
        assert!(analyze_program(&out.program).is_harmless_warded());
    }

    #[test]
    fn constraints_and_egds_are_preserved() {
        let src = "Own(x, y, w) -> SoftLink(x, y).\n\
                   Own(x, x, w) -> false.\n\
                   Incorp(y, z), Own(x1, y, w1), Own(x2, z, w1) -> x1 = x2.";
        let out = run(src);
        assert!(out
            .program
            .rules
            .iter()
            .any(|r| matches!(r.head, RuleHead::Falsum)));
        assert!(out
            .program
            .rules
            .iter()
            .any(|r| matches!(r.head, RuleHead::Equality(_, _))));
    }

    #[test]
    fn example7_strong_link_rule_is_rewritten() {
        let src = "Company(x) -> Owns(p, s, x).\n\
                   Owns(p, s, x) -> Stock(x, s).\n\
                   Owns(p, s, x) -> PSC(x, p).\n\
                   PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
                   PSC(x, p), PSC(y, p) -> StrongLink(x, y).\n\
                   StrongLink(x, y) -> Owns(p, s, x).\n\
                   StrongLink(x, y) -> Owns(p, s, y).\n\
                   Stock(x, s) -> Company(x).";
        let out = run(src);
        let analysis = analyze_program(&out.program);
        assert!(
            analysis.is_harmless_warded(),
            "expected harmless warded output (complete={}):\n{}",
            out.complete,
            out.program
        );
        // The original harmful rule must be gone.
        for r in &out.program.rules {
            let preds = r.body_predicates();
            let psc_count = preds.iter().filter(|p| **p == intern("PSC")).count();
            if psc_count >= 2 {
                assert!(
                    preds.contains(&intern(DOM_PREDICATE)),
                    "PSC-PSC joins must be Dom-guarded: {r}"
                );
            }
        }
    }

    #[test]
    fn conditions_survive_the_rewriting() {
        let out = run(EXAMPLE5);
        // Every StrongLink rule must still carry the x > y style guard (on
        // whatever the variables were renamed to) or be Dom-guarded; in
        // particular the grounded copy keeps the original condition.
        let grounded = out
            .program
            .rules
            .iter()
            .find(|r| {
                r.body_predicates().contains(&intern(DOM_PREDICATE))
                    && r.head_predicates().contains(&intern("StrongLink"))
            })
            .unwrap();
        assert_eq!(grounded.conditions().len(), 1);
    }
}
