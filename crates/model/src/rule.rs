//! Rules: existential rules (tuple-generating dependencies), negative
//! constraints and equality-generating dependencies, together with body
//! conditions and assignments (Section 2 and Section 5 of the paper).

use crate::atom::Atom;
use crate::expr::{Aggregation, CmpOp, Expr};
use crate::term::{Term, Var};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a rule inside a [`crate::program::Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RuleId(pub u32);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ{}", self.0)
    }
}

/// An atom in a rule head. Alias of [`Atom`]; kept as a distinct name so
/// signatures read like the paper ("head atoms").
pub type HeadAtom = Atom;

/// A comparison condition in a rule body, e.g. `w > 0.5`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Condition {
    /// Left-hand expression.
    pub left: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand expression.
    pub right: Expr,
}

impl Condition {
    /// Convenience constructor.
    pub fn new(left: Expr, op: CmpOp, right: Expr) -> Self {
        Condition { left, op, right }
    }

    /// Variables mentioned on either side.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = self.left.variables();
        for v in self.right.variables() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// An assignment in a rule body, e.g. `v = msum(w, <y>)` or
/// `total = w1 + w2`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Assignment {
    /// The variable being defined.
    pub var: Var,
    /// The defining expression (may contain a monotonic aggregation).
    pub expr: Expr,
}

impl Assignment {
    /// Convenience constructor.
    pub fn new(var: Var, expr: Expr) -> Self {
        Assignment { var, expr }
    }

    /// The aggregation this assignment defines, when it has the paper's
    /// form `z = maggr(x, ⟨c̄⟩)`: the aggregation is the whole right-hand
    /// side.
    pub fn aggregate(&self) -> Option<&Aggregation> {
        match &self.expr {
            Expr::Aggregate(agg) => Some(agg),
            _ => None,
        }
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.var, self.expr)
    }
}

/// A body literal: a (possibly negated) atom, a condition or an assignment.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// A positive atom.
    Atom(Atom),
    /// A negated atom (`not R(x̄)`), interpreted under stratified negation.
    Negated(Atom),
    /// A comparison condition.
    Condition(Condition),
    /// An assignment.
    Assignment(Assignment),
}

impl Literal {
    /// The positive atom, if this literal is one.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// Variables mentioned by the literal.
    pub fn variables(&self) -> Vec<Var> {
        match self {
            Literal::Atom(a) | Literal::Negated(a) => a.variables().collect(),
            Literal::Condition(c) => c.variables(),
            Literal::Assignment(a) => {
                let mut vs = a.expr.variables();
                if !vs.contains(&a.var) {
                    vs.push(a.var);
                }
                vs
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Atom(a) => write!(f, "{a}"),
            Literal::Negated(a) => write!(f, "not {a}"),
            Literal::Condition(c) => write!(f, "{c}"),
            Literal::Assignment(a) => write!(f, "{a}"),
        }
    }
}

/// The head of a rule.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RuleHead {
    /// Ordinary (possibly multi-atom) TGD head, with implicit existential
    /// quantification of head-only variables.
    Atoms(Vec<HeadAtom>),
    /// Negative constraint: `ϕ(x̄) → ⊥`.
    Falsum,
    /// Equality-generating dependency: `ϕ(x̄) → xi = xj`.
    Equality(Term, Term),
}

impl fmt::Display for RuleHead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleHead::Atoms(atoms) => {
                for (i, a) in atoms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            RuleHead::Falsum => write!(f, "⊥"),
            RuleHead::Equality(a, b) => write!(f, "{a} = {b}"),
        }
    }
}

/// A Vadalog rule.
///
/// A rule is a first-order sentence `∀x̄∀ȳ (ϕ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄))` where the
/// body ϕ is a conjunction of [`Literal`]s and the head ψ is a [`RuleHead`].
/// Existential variables are *implicit*: every head variable that is not
/// bound by a positive body atom or by an assignment is existentially
/// quantified, as in Examples 3–7 of the paper.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    /// Optional textual label (the paper numbers rules `1:`, `2:`, ...).
    pub label: Option<String>,
    /// Body literals.
    pub body: Vec<Literal>,
    /// Head.
    pub head: RuleHead,
}

impl Rule {
    /// Build a plain TGD from body atoms and head atoms.
    pub fn tgd(body: Vec<Atom>, head: Vec<Atom>) -> Self {
        Rule {
            label: None,
            body: body.into_iter().map(Literal::Atom).collect(),
            head: RuleHead::Atoms(head),
        }
    }

    /// Build a rule with arbitrary body literals and a single head atom.
    pub fn new(body: Vec<Literal>, head: Atom) -> Self {
        Rule {
            label: None,
            body,
            head: RuleHead::Atoms(vec![head]),
        }
    }

    /// Build a negative constraint `body → ⊥`.
    pub fn constraint(body: Vec<Literal>) -> Self {
        Rule {
            label: None,
            body,
            head: RuleHead::Falsum,
        }
    }

    /// Build an equality-generating dependency `body → a = b`.
    pub fn egd(body: Vec<Literal>, a: Term, b: Term) -> Self {
        Rule {
            label: None,
            body,
            head: RuleHead::Equality(a, b),
        }
    }

    /// Attach a label, builder-style.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = Some(label.to_string());
        self
    }

    /// The positive body atoms, in order.
    pub fn body_atoms(&self) -> Vec<&Atom> {
        self.body.iter().filter_map(Literal::as_atom).collect()
    }

    /// The negated body atoms, in order.
    pub fn negated_atoms(&self) -> Vec<&Atom> {
        self.body
            .iter()
            .filter_map(|l| match l {
                Literal::Negated(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// The body conditions, in order.
    pub fn conditions(&self) -> Vec<&Condition> {
        self.body
            .iter()
            .filter_map(|l| match l {
                Literal::Condition(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// The body assignments, in order.
    pub fn assignments(&self) -> Vec<&Assignment> {
        self.body
            .iter()
            .filter_map(|l| match l {
                Literal::Assignment(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// The head atoms (empty for constraints and EGDs).
    pub fn head_atoms(&self) -> Vec<&Atom> {
        match &self.head {
            RuleHead::Atoms(atoms) => atoms.iter().collect(),
            _ => Vec::new(),
        }
    }

    /// Is this a *linear* rule, i.e. does the body contain at most one
    /// (positive) atom? (Section 2.1.)
    pub fn is_linear(&self) -> bool {
        self.body_atoms().len() <= 1
    }

    /// Is this a plain TGD (atoms head, no negation, no constraints/EGDs)?
    pub fn is_tgd(&self) -> bool {
        matches!(self.head, RuleHead::Atoms(_))
    }

    /// Variables bound by the body: variables of positive atoms plus
    /// assignment-defined variables.
    pub fn body_bound_variables(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for a in self.body_atoms() {
            out.extend(a.variables());
        }
        for asg in self.assignments() {
            out.insert(asg.var);
        }
        out
    }

    /// Variables appearing in the head.
    pub fn head_variables(&self) -> BTreeSet<Var> {
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
        out
    }

    /// The existentially quantified variables of the rule: head variables not
    /// bound by the body.
    pub fn existential_variables(&self) -> BTreeSet<Var> {
        let bound = self.body_bound_variables();
        self.head_variables()
            .into_iter()
            .filter(|v| !bound.contains(v))
            .collect()
    }

    /// Frontier variables: head variables that *are* bound by the body.
    pub fn frontier_variables(&self) -> BTreeSet<Var> {
        let bound = self.body_bound_variables();
        self.head_variables()
            .into_iter()
            .filter(|v| bound.contains(v))
            .collect()
    }

    /// Does this rule have existential quantification in its head?
    pub fn has_existentials(&self) -> bool {
        !self.existential_variables().is_empty()
    }

    /// All distinct variables in the rule.
    pub fn all_variables(&self) -> BTreeSet<Var> {
        let mut out = self.body_bound_variables();
        for l in &self.body {
            out.extend(l.variables());
        }
        out.extend(self.head_variables());
        out
    }

    /// Does any body assignment contain a monotonic aggregation?
    pub fn has_aggregation(&self) -> bool {
        self.assignments()
            .iter()
            .any(|a| a.expr.contains_aggregate())
    }

    /// The first monotonic aggregation the rule places anywhere but as the
    /// whole right-hand side of an assignment (see
    /// [`Assignment::aggregate`]): inside a larger expression, inside
    /// another aggregation's argument, or in a condition. `None` when every
    /// aggregation has the paper's form.
    pub fn misplaced_aggregate(&self) -> Option<&Aggregation> {
        self.body.iter().find_map(|l| match l {
            Literal::Assignment(a) => match &a.expr {
                Expr::Aggregate(agg) => agg.arg.find_aggregate(),
                other => other.find_aggregate(),
            },
            Literal::Condition(c) => c.left.find_aggregate().or_else(|| c.right.find_aggregate()),
            Literal::Atom(_) | Literal::Negated(_) => None,
        })
    }

    /// Predicates appearing in positive body atoms.
    pub fn body_predicates(&self) -> Vec<crate::symbol::Sym> {
        self.body_atoms().iter().map(|a| a.predicate).collect()
    }

    /// Predicates appearing in the head.
    pub fn head_predicates(&self) -> Vec<crate::symbol::Sym> {
        self.head_atoms().iter().map(|a| a.predicate).collect()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(l) = &self.label {
            write!(f, "{l}: ")?;
        }
        for (i, lit) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{lit}")?;
        }
        write!(f, " -> {}", self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, Aggregation};

    /// Rule 1 of Example 7: Company(x) → ∃p∃s Owns(p, s, x)
    fn company_owns() -> Rule {
        Rule::tgd(
            vec![Atom::vars("Company", &["x"])],
            vec![Atom::vars("Owns", &["p", "s", "x"])],
        )
    }

    /// Rule 4 of Example 7: PSC(x,p), Controls(x,y) → ∃s Owns(p, s, y)
    fn psc_controls_owns() -> Rule {
        Rule::tgd(
            vec![
                Atom::vars("PSC", &["x", "p"]),
                Atom::vars("Controls", &["x", "y"]),
            ],
            vec![Atom::vars("Owns", &["p", "s", "y"])],
        )
    }

    #[test]
    fn existential_variables_are_head_only_variables() {
        let r = company_owns();
        let ex: Vec<_> = r.existential_variables().into_iter().collect();
        assert_eq!(ex, vec![Var::new("p"), Var::new("s")]);
        assert_eq!(
            r.frontier_variables().into_iter().collect::<Vec<_>>(),
            vec![Var::new("x")]
        );
        assert!(r.has_existentials());
        assert!(r.is_linear());
    }

    #[test]
    fn non_linear_rule_detection() {
        let r = psc_controls_owns();
        assert!(!r.is_linear());
        assert_eq!(
            r.existential_variables().into_iter().collect::<Vec<_>>(),
            vec![Var::new("s")]
        );
    }

    #[test]
    fn assignment_bound_variables_are_not_existential() {
        // Control(x,y), Own(y,z,w), v = msum(w, <y>), v > 0.5 -> Control(x,z)
        let r = Rule {
            label: None,
            body: vec![
                Literal::Atom(Atom::vars("Control", &["x", "y"])),
                Literal::Atom(Atom::vars("Own", &["y", "z", "w"])),
                Literal::Assignment(Assignment::new(
                    Var::new("v"),
                    Expr::Aggregate(Aggregation {
                        func: AggFunc::MSum,
                        arg: Box::new(Expr::var("w")),
                        contributors: vec![Var::new("y")],
                    }),
                )),
                Literal::Condition(Condition::new(
                    Expr::var("v"),
                    CmpOp::Gt,
                    Expr::constant(0.5),
                )),
            ],
            head: RuleHead::Atoms(vec![Atom::vars("Control", &["x", "z"])]),
        };
        assert!(r.existential_variables().is_empty());
        assert!(r.has_aggregation());
        assert_eq!(r.conditions().len(), 1);
        assert_eq!(r.assignments().len(), 1);
        assert_eq!(r.body_atoms().len(), 2);
    }

    #[test]
    fn constraints_and_egds() {
        // Own(x, x, w) -> ⊥  (rule 6 of Example 6)
        let c = Rule::constraint(vec![Literal::Atom(Atom::vars("Own", &["x", "x", "w"]))]);
        assert!(!c.is_tgd());
        assert!(c.head_atoms().is_empty());
        assert_eq!(c.head_variables().len(), 0);

        // Incorp(y,z), Own(x1,y,w1), Own(x2,z,w1) -> x1 = x2 (rule 5, Example 6)
        let e = Rule::egd(
            vec![
                Literal::Atom(Atom::vars("Incorp", &["y", "z"])),
                Literal::Atom(Atom::vars("Own", &["x1", "y", "w1"])),
                Literal::Atom(Atom::vars("Own", &["x2", "z", "w1"])),
            ],
            Term::var("x1"),
            Term::var("x2"),
        );
        assert!(!e.is_tgd());
        assert_eq!(e.head_variables().len(), 2);
        assert!(e.existential_variables().is_empty());
    }

    #[test]
    fn negated_atoms_are_tracked_separately() {
        let r = Rule {
            label: None,
            body: vec![
                Literal::Atom(Atom::vars("Company", &["x"])),
                Literal::Negated(Atom::vars("Dissolved", &["x"])),
            ],
            head: RuleHead::Atoms(vec![Atom::vars("Active", &["x"])]),
        };
        assert_eq!(r.body_atoms().len(), 1);
        assert_eq!(r.negated_atoms().len(), 1);
    }

    #[test]
    fn display_reads_like_the_paper() {
        let r = company_owns().with_label("1");
        assert_eq!(r.to_string(), "1: Company(x) -> Owns(p, s, x)");
    }

    #[test]
    fn predicate_lists() {
        let r = psc_controls_owns();
        let body: Vec<String> = r.body_predicates().iter().map(|s| s.as_str()).collect();
        assert_eq!(body, vec!["PSC", "Controls"]);
        let head: Vec<String> = r.head_predicates().iter().map(|s| s.as_str()).collect();
        assert_eq!(head, vec!["Owns"]);
    }
}
