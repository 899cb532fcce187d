//! Variable substitutions (bindings of rule variables to values).

use crate::term::Var;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A substitution σ: a partial mapping from variables to values.
///
/// Backed by a `BTreeMap` so iteration is deterministic — determinism of rule
/// application order is what makes the chase (and therefore every count in
/// `benchmark/RESULTS.md`) reproducible.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Substitution {
    bindings: BTreeMap<Var, Value>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `var` to `value`, overwriting any previous binding.
    pub fn bind(&mut self, var: Var, value: Value) {
        self.bindings.insert(var, value);
    }

    /// The value bound to `var`, if any.
    pub fn get(&self, var: Var) -> Option<&Value> {
        self.bindings.get(&var)
    }

    /// Whether `var` is bound.
    pub fn contains(&self, var: Var) -> bool {
        self.bindings.contains_key(&var)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Is the substitution empty?
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterate over the bindings in deterministic (variable) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        self.bindings.iter()
    }

    /// Merge another substitution into this one; fails (returns `false`) on
    /// conflicting bindings, in which case `self` is left unchanged.
    pub fn merge(&mut self, other: &Substitution) -> bool {
        for (v, val) in other.iter() {
            if let Some(existing) = self.get(*v) {
                if existing != val {
                    return false;
                }
            }
        }
        for (v, val) in other.iter() {
            self.bind(*v, val.clone());
        }
        true
    }

    /// Restrict the substitution to the given variables.
    pub fn project(&self, vars: &[Var]) -> Substitution {
        let mut out = Substitution::new();
        for v in vars {
            if let Some(val) = self.get(*v) {
                out.bind(*v, val.clone());
            }
        }
        out
    }

    /// The set of variables bound by this substitution.
    pub fn domain(&self) -> Vec<Var> {
        self.bindings.keys().copied().collect()
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, val)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {val}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Var, Value)> for Substitution {
    fn from_iter<T: IntoIterator<Item = (Var, Value)>>(iter: T) -> Self {
        Substitution {
            bindings: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_get() {
        let mut s = Substitution::new();
        assert!(s.is_empty());
        s.bind(Var::new("x"), Value::Int(1));
        assert_eq!(s.get(Var::new("x")), Some(&Value::Int(1)));
        assert!(s.contains(Var::new("x")));
        assert!(!s.contains(Var::new("y")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_detects_conflicts_and_is_atomic() {
        let mut a = Substitution::new();
        a.bind(Var::new("x"), Value::Int(1));
        let mut b = Substitution::new();
        b.bind(Var::new("x"), Value::Int(2));
        b.bind(Var::new("y"), Value::Int(3));
        assert!(!a.merge(&b));
        // a unchanged on failed merge
        assert_eq!(a.len(), 1);
        assert!(!a.contains(Var::new("y")));

        let mut c = Substitution::new();
        c.bind(Var::new("y"), Value::Int(3));
        assert!(a.merge(&c));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn project_restricts_domain() {
        let s: Substitution = [
            (Var::new("x"), Value::Int(1)),
            (Var::new("y"), Value::Int(2)),
            (Var::new("z"), Value::Int(3)),
        ]
        .into_iter()
        .collect();
        let p = s.project(&[Var::new("x"), Var::new("z"), Var::new("missing")]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(Var::new("z")), Some(&Value::Int(3)));
        assert_eq!(p.get(Var::new("y")), None);
    }

    #[test]
    fn iteration_is_deterministic() {
        let s: Substitution = [
            (Var::new("b"), Value::Int(2)),
            (Var::new("a"), Value::Int(1)),
        ]
        .into_iter()
        .collect();
        let order: Vec<_> = s.iter().map(|(v, _)| *v).collect();
        let order2: Vec<_> = s.iter().map(|(v, _)| *v).collect();
        assert_eq!(order, order2);
        assert_eq!(order.len(), 2);
    }
}
