//! Ground facts (tuples): predicate applications over values.

use crate::symbol::{intern, Sym};
use crate::value::{NullId, Value, ValueId};
use std::fmt;

/// A fact `R(v1, ..., vn)`: a tuple of [`Value`]s (constants and/or labelled
/// nulls) under a predicate symbol.
///
/// Facts are the currency of the chase, the engine pipeline and the storage
/// layer; they are hashable and totally ordered so they can live in hash
/// indices and BTree-based deterministic containers alike.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// Predicate symbol.
    pub predicate: Sym,
    /// Argument values.
    pub args: Vec<Value>,
}

impl Fact {
    /// Build a fact from a predicate name and argument values.
    pub fn new(predicate: &str, args: Vec<Value>) -> Self {
        Fact {
            predicate: intern(predicate),
            args,
        }
    }

    /// Build a fact from an already-interned predicate symbol.
    pub fn new_sym(predicate: Sym, args: Vec<Value>) -> Self {
        Fact { predicate, args }
    }

    /// The arity of this fact.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Is the fact ground, i.e. free of labelled nulls?
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Value::is_ground)
    }

    /// The distinct labelled nulls occurring in this fact, in positional
    /// order of first occurrence.
    pub fn nulls(&self) -> Vec<NullId> {
        let mut out = Vec::new();
        for v in &self.args {
            collect_nulls(v, &mut out);
        }
        out
    }

    /// Replace every occurrence of labelled nulls according to `rename`,
    /// leaving unmapped nulls untouched.
    pub fn rename_nulls(&self, rename: &std::collections::HashMap<NullId, Value>) -> Fact {
        Fact {
            predicate: self.predicate,
            args: self.args.iter().map(|v| rename_value(v, rename)).collect(),
        }
    }

    /// Human-readable predicate name.
    pub fn predicate_name(&self) -> String {
        self.predicate.as_str()
    }

    /// Intern every argument, yielding the fact's row form — the compact
    /// integer key the storage layer and the termination strategies use for
    /// set-semantics bookkeeping. Equal facts yield equal rows.
    pub fn intern_args(&self) -> Box<[ValueId]> {
        crate::value::intern_values(&self.args)
    }
}

fn collect_nulls(v: &Value, out: &mut Vec<NullId>) {
    match v {
        Value::Null(n) if !out.contains(n) => out.push(*n),
        Value::Null(_) => {}
        Value::List(vs) => {
            for v in vs {
                collect_nulls(v, out);
            }
        }
        Value::Set(vs) => {
            for v in vs {
                collect_nulls(v, out);
            }
        }
        _ => {}
    }
}

fn rename_value(v: &Value, rename: &std::collections::HashMap<NullId, Value>) -> Value {
    match v {
        Value::Null(n) => rename.get(n).cloned().unwrap_or_else(|| v.clone()),
        Value::List(vs) => Value::List(vs.iter().map(|v| rename_value(v, rename)).collect()),
        Value::Set(vs) => Value::Set(vs.iter().map(|v| rename_value(v, rename)).collect()),
        _ => v.clone(),
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, v) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn groundness_checks_nested_nulls() {
        let ground = Fact::new("Own", vec!["a".into(), "b".into(), Value::Float(0.3)]);
        assert!(ground.is_ground());
        let with_null = Fact::new("Owns", vec![Value::Null(NullId(1)), "x".into()]);
        assert!(!with_null.is_ground());
        let nested = Fact::new(
            "P",
            vec![Value::List(vec![Value::Int(1), Value::Null(NullId(2))])],
        );
        assert!(!nested.is_ground());
    }

    #[test]
    fn nulls_are_collected_in_first_occurrence_order_without_duplicates() {
        let f = Fact::new(
            "Q",
            vec![
                Value::Null(NullId(5)),
                Value::Int(3),
                Value::Null(NullId(2)),
                Value::Null(NullId(5)),
            ],
        );
        assert_eq!(f.nulls(), vec![NullId(5), NullId(2)]);
    }

    #[test]
    fn rename_nulls_substitutes_recursively() {
        let f = Fact::new(
            "Q",
            vec![
                Value::Null(NullId(1)),
                Value::List(vec![Value::Null(NullId(1)), Value::Int(7)]),
            ],
        );
        let mut map = HashMap::new();
        map.insert(NullId(1), Value::str("bob"));
        let renamed = f.rename_nulls(&map);
        assert!(renamed.is_ground());
        assert_eq!(renamed.args[0], Value::str("bob"));
    }

    #[test]
    fn facts_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Fact::new("P", vec![1i64.into()]));
        set.insert(Fact::new("P", vec![1i64.into()]));
        set.insert(Fact::new("P", vec![2i64.into()]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_matches_paper_notation() {
        let f = Fact::new("KeyPerson", vec!["HSBC".into(), Value::Null(NullId(0))]);
        assert_eq!(f.to_string(), "KeyPerson(\"HSBC\", ν0)");
    }
}
