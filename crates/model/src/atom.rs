//! Atoms: predicate applications over terms, as they appear in rule bodies
//! and heads.

use crate::fact::Fact;
use crate::substitution::Substitution;
use crate::symbol::{intern, Sym};
use crate::term::{Term, Var};
use crate::value::Value;
use std::fmt;

/// An atom `R(t1, ..., tn)` over a schema: a predicate symbol applied to a
/// tuple of terms (constants or variables).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The predicate symbol.
    pub predicate: Sym,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom from a predicate name and terms.
    pub fn new(predicate: &str, terms: Vec<Term>) -> Self {
        Atom {
            predicate: intern(predicate),
            terms,
        }
    }

    /// Build an atom whose arguments are all variables, by name.
    pub fn vars(predicate: &str, vars: &[&str]) -> Self {
        Atom {
            predicate: intern(predicate),
            terms: vars.iter().map(|v| Term::var(v)).collect(),
        }
    }

    /// The arity (number of argument positions) of this atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterator over the variables occurring in this atom (with duplicates,
    /// in positional order).
    pub fn variables(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// The set of distinct variables occurring in this atom.
    pub fn variable_set(&self) -> std::collections::BTreeSet<Var> {
        self.variables().collect()
    }

    /// Apply a substitution, producing a ground [`Fact`] if every variable is
    /// bound, `None` otherwise.
    pub fn apply(&self, subst: &Substitution) -> Option<Fact> {
        let mut values = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            match t {
                Term::Const(v) => values.push(v.clone()),
                Term::Var(v) => values.push(subst.get(*v)?.clone()),
            }
        }
        Some(Fact::new_sym(self.predicate, values))
    }

    /// Try to extend `subst` so that this atom matches `fact`. Returns the
    /// extended substitution on success.
    ///
    /// This is the single-atom unification step used by every rule-matching
    /// loop in the workspace (chase steps, joins, tests).
    pub fn match_fact(&self, fact: &Fact, subst: &Substitution) -> Option<Substitution> {
        if self.predicate != fact.predicate || self.terms.len() != fact.args.len() {
            return None;
        }
        let mut out = subst.clone();
        for (t, v) in self.terms.iter().zip(fact.args.iter()) {
            match t {
                Term::Const(c) => {
                    if c != v {
                        return None;
                    }
                }
                Term::Var(var) => match out.get(*var) {
                    Some(bound) => {
                        if bound != v {
                            return None;
                        }
                    }
                    None => out.bind(*var, v.clone()),
                },
            }
        }
        Some(out)
    }

    /// Whether all argument terms are constants.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_const)
    }

    /// Convert a ground atom into a fact; `None` if any term is a variable.
    pub fn to_fact(&self) -> Option<Fact> {
        let mut values = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            values.push(t.as_const()?.clone());
        }
        Some(Fact::new_sym(self.predicate, values))
    }

    /// Constant values appearing in this atom (positional order).
    pub fn constants(&self) -> impl Iterator<Item = &Value> {
        self.terms.iter().filter_map(|t| t.as_const())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn own_atom() -> Atom {
        // Own(x, y, w)
        Atom::vars("Own", &["x", "y", "w"])
    }

    #[test]
    fn arity_and_variables() {
        let a = own_atom();
        assert_eq!(a.arity(), 3);
        assert_eq!(a.variable_set().len(), 3);
    }

    #[test]
    fn match_fact_binds_variables() {
        let a = own_atom();
        let f = Fact::new("Own", vec!["acme".into(), "sub".into(), Value::Float(0.6)]);
        let s = a.match_fact(&f, &Substitution::new()).unwrap();
        assert_eq!(s.get(Var::new("x")), Some(&Value::str("acme")));
        assert_eq!(s.get(Var::new("w")), Some(&Value::Float(0.6)));
    }

    #[test]
    fn match_fact_respects_existing_bindings() {
        let a = own_atom();
        let f = Fact::new("Own", vec!["acme".into(), "sub".into(), Value::Float(0.6)]);
        let mut s = Substitution::new();
        s.bind(Var::new("x"), Value::str("other"));
        assert!(a.match_fact(&f, &s).is_none());
        let mut s2 = Substitution::new();
        s2.bind(Var::new("x"), Value::str("acme"));
        assert!(a.match_fact(&f, &s2).is_some());
    }

    #[test]
    fn match_fact_checks_repeated_variables() {
        // SelfOwn(x, x) must only match facts with equal arguments.
        let a = Atom::vars("SelfOwn", &["x", "x"]);
        let good = Fact::new("SelfOwn", vec!["a".into(), "a".into()]);
        let bad = Fact::new("SelfOwn", vec!["a".into(), "b".into()]);
        assert!(a.match_fact(&good, &Substitution::new()).is_some());
        assert!(a.match_fact(&bad, &Substitution::new()).is_none());
    }

    #[test]
    fn match_fact_rejects_wrong_predicate_or_arity() {
        let a = own_atom();
        let other = Fact::new("Controls", vec!["a".into(), "b".into(), 1i64.into()]);
        assert!(a.match_fact(&other, &Substitution::new()).is_none());
        let short = Fact::new("Own", vec!["a".into()]);
        assert!(a.match_fact(&short, &Substitution::new()).is_none());
    }

    #[test]
    fn apply_produces_fact_when_fully_bound() {
        let a = own_atom();
        let mut s = Substitution::new();
        s.bind(Var::new("x"), Value::str("a"));
        s.bind(Var::new("y"), Value::str("b"));
        assert!(a.apply(&s).is_none());
        s.bind(Var::new("w"), Value::Float(0.9));
        let f = a.apply(&s).unwrap();
        assert_eq!(f.args.len(), 3);
        assert_eq!(f.predicate, intern("Own"));
    }

    #[test]
    fn ground_atom_converts_to_fact() {
        let a = Atom::new("Company", vec![Term::constant("HSBC")]);
        assert!(a.is_ground());
        let f = a.to_fact().unwrap();
        assert_eq!(f.to_string(), "Company(\"HSBC\")");
    }

    #[test]
    fn display_form() {
        let a = own_atom();
        assert_eq!(a.to_string(), "Own(x, y, w)");
    }
}
