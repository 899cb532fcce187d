//! Isomorphism, pattern-isomorphism and homomorphism machinery (Section 3).
//!
//! * Two facts are **isomorphic** when they have the same predicate, the same
//!   constants in the same positions, and there is a bijection between their
//!   labelled nulls (Section 3.1).
//! * Two facts are **pattern-isomorphic** when they have the same predicate
//!   and there are bijections between their constants *and* between their
//!   labelled nulls (Section 3.3) — e.g. `P(1, 2, ν1, ν2)` is
//!   pattern-isomorphic to `P(3, 4, ν7, ν2)` but not to `P(5, 5, ν1, ν2)`.
//! * An instance `J` maps **homomorphically** into `J'` when there is a
//!   mapping of labelled nulls to values (identity on constants) sending
//!   every fact of `J` to a fact of `J'` (Section 2.1, universal answers).
//!
//! Both isomorphism notions are implemented as *canonical forms* so that
//! equality of the canonical form coincides with the relation; the canonical
//! forms are `Hash + Eq` and can be used directly as keys of the ground and
//! summary structures of Algorithm 1.
//!
//! Each form has a value-level constructor over a [`Fact`] and a row-level
//! one over an interned row (`row_iso_key`, `row_pattern_key`). The row
//! forms never resolve a value and never consult the interner: `ValueId`
//! equality is [`Value`] equality, so constants compare as ids, and a
//! position holds a labelled null exactly when its id says so
//! ([`ValueId::is_null`]). A composite value holding a null is a constant
//! in both forms. [`rows_isomorphic`] decides isomorphism of two rows
//! directly, without building either form.

use crate::fact::Fact;
use crate::symbol::Sym;
use crate::value::{NullId, Value, ValueId};
use std::collections::HashMap;

/// Canonical form of a fact up to renaming of labelled nulls.
///
/// Nulls are replaced by their index of first occurrence; constants are kept
/// verbatim. Two facts are isomorphic iff their `IsoKey`s are equal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IsoKey {
    /// The predicate.
    pub predicate: Sym,
    /// Canonicalised arguments.
    pub args: Vec<CanonTerm>,
}

/// Canonical form of a fact up to renaming of both constants and nulls.
///
/// Constants and nulls are each replaced by their index of first occurrence
/// (within their own class). Two facts are pattern-isomorphic iff their
/// `PatternKey`s are equal. This is the paper's `π(a)` representative.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PatternKey {
    /// The predicate.
    pub predicate: Sym,
    /// Canonicalised arguments.
    pub args: Vec<PatternTerm>,
}

/// One argument position of an [`IsoKey`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CanonTerm {
    /// A constant kept verbatim.
    Const(Value),
    /// The i-th distinct labelled null of the fact.
    Null(u32),
}

/// One argument position of a [`PatternKey`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PatternTerm {
    /// The i-th distinct constant of the fact.
    Const(u32),
    /// The i-th distinct labelled null of the fact.
    Null(u32),
}

/// Compute the isomorphism canonical form of a fact.
pub fn iso_key(fact: &Fact) -> IsoKey {
    let mut null_ids: HashMap<NullId, u32> = HashMap::new();
    let args = fact
        .args
        .iter()
        .map(|v| match v {
            Value::Null(n) => {
                let next = null_ids.len() as u32;
                CanonTerm::Null(*null_ids.entry(*n).or_insert(next))
            }
            other => CanonTerm::Const(other.clone()),
        })
        .collect();
    IsoKey {
        predicate: fact.predicate,
        args,
    }
}

/// Compute the pattern-isomorphism canonical form of a fact.
pub fn pattern_key(fact: &Fact) -> PatternKey {
    let mut null_ids: HashMap<NullId, u32> = HashMap::new();
    let mut const_ids: HashMap<Value, u32> = HashMap::new();
    let args = fact
        .args
        .iter()
        .map(|v| match v {
            Value::Null(n) => {
                let next = null_ids.len() as u32;
                PatternTerm::Null(*null_ids.entry(*n).or_insert(next))
            }
            other => {
                let next = const_ids.len() as u32;
                PatternTerm::Const(*const_ids.entry(other.clone()).or_insert(next))
            }
        })
        .collect();
    PatternKey {
        predicate: fact.predicate,
        args,
    }
}

/// Canonical form of an interned row up to renaming of labelled nulls: the
/// row-level [`IsoKey`]. Two rows have equal `RowIsoKey`s iff the facts
/// they intern are isomorphic.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RowIsoKey {
    /// The predicate.
    pub predicate: Sym,
    /// Canonicalised arguments.
    pub args: Vec<RowCanonTerm>,
}

/// One argument position of a [`RowIsoKey`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RowCanonTerm {
    /// A constant, kept as its interned id.
    Const(ValueId),
    /// The i-th distinct labelled null of the row.
    Null(u32),
}

/// Canonicalise an interned row: each distinct id gets the number of its
/// first occurrence among the ids of its class (labelled nulls, or
/// constants), and `term(is_null, id, number)` builds its argument. Rows
/// are short, so an earlier occurrence is found by a scan instead of a map.
fn canonical_row<T: Copy>(row: &[ValueId], term: impl Fn(bool, ValueId, u32) -> T) -> Vec<T> {
    let mut args: Vec<T> = Vec::with_capacity(row.len());
    let mut next = [0u32; 2];
    for (i, &id) in row.iter().enumerate() {
        match row[..i].iter().position(|&e| e == id) {
            Some(j) => args.push(args[j]),
            None => {
                let null = id.is_null();
                let number = &mut next[usize::from(null)];
                args.push(term(null, id, *number));
                *number += 1;
            }
        }
    }
    args
}

/// Compute the isomorphism canonical form of an interned row.
pub fn row_iso_key(predicate: Sym, row: &[ValueId]) -> RowIsoKey {
    let args = canonical_row(row, |null, id, number| {
        if null {
            RowCanonTerm::Null(number)
        } else {
            RowCanonTerm::Const(id)
        }
    });
    RowIsoKey { predicate, args }
}

/// Are two interned rows of one predicate isomorphic? They are when they
/// hold the same constants at the same positions, labelled nulls at the
/// same positions, and each null first occurs where its counterpart does.
/// Equal to `row_iso_key(p, a) == row_iso_key(p, b)`, without allocating.
pub fn rows_isomorphic(a: &[ValueId], b: &[ValueId]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).enumerate().all(|(i, (&x, &y))| {
            if !x.is_null() {
                return x == y;
            }
            // Rows are short, so the first occurrence is found by a scan.
            let first = |row: &[ValueId], id| row[..i].iter().position(|&e| e == id);
            y.is_null() && first(a, x) == first(b, y)
        })
}

/// Compute the pattern-isomorphism canonical form of an interned row. It is
/// the same [`PatternKey`] that [`pattern_key`] gives for the fact the row
/// interns.
pub fn row_pattern_key(predicate: Sym, row: &[ValueId]) -> PatternKey {
    let args = canonical_row(row, |null, _, number| {
        if null {
            PatternTerm::Null(number)
        } else {
            PatternTerm::Const(number)
        }
    });
    PatternKey { predicate, args }
}

/// Are two facts isomorphic (Section 3.1)?
pub fn facts_isomorphic(a: &Fact, b: &Fact) -> bool {
    a.predicate == b.predicate && a.args.len() == b.args.len() && iso_key(a) == iso_key(b)
}

/// Are two facts pattern-isomorphic (Section 3.3)?
pub fn facts_pattern_isomorphic(a: &Fact, b: &Fact) -> bool {
    a.predicate == b.predicate && a.args.len() == b.args.len() && pattern_key(a) == pattern_key(b)
}

/// Search for a homomorphism from `source` into `target`: a mapping of
/// labelled nulls of `source` to values (constants or nulls of `target`)
/// that is the identity on constants and sends every fact of `source` to
/// some fact of `target`.
///
/// Returns the null mapping if one exists. The search is a straightforward
/// backtracking over facts — fine for the test-sized instances where it is
/// used (universal-solution checks); the engine never calls this in a hot
/// path, which is precisely the point the paper makes about avoiding
/// homomorphism checks.
pub fn find_homomorphism(source: &[Fact], target: &[Fact]) -> Option<HashMap<NullId, Value>> {
    // Index target facts by predicate for fewer candidate checks.
    let mut by_pred: HashMap<Sym, Vec<&Fact>> = HashMap::new();
    for f in target {
        by_pred.entry(f.predicate).or_default().push(f);
    }
    let mut mapping: HashMap<NullId, Value> = HashMap::new();
    if map_facts(source, 0, &by_pred, &mut mapping) {
        Some(mapping)
    } else {
        None
    }
}

/// Does `source` map homomorphically into `target`?
pub fn is_homomorphic(source: &[Fact], target: &[Fact]) -> bool {
    find_homomorphism(source, target).is_some()
}

/// Are two instances homomorphically equivalent (each maps into the other)?
pub fn homomorphically_equivalent(a: &[Fact], b: &[Fact]) -> bool {
    is_homomorphic(a, b) && is_homomorphic(b, a)
}

fn map_facts(
    source: &[Fact],
    idx: usize,
    target: &HashMap<Sym, Vec<&Fact>>,
    mapping: &mut HashMap<NullId, Value>,
) -> bool {
    if idx == source.len() {
        return true;
    }
    let fact = &source[idx];
    let candidates = match target.get(&fact.predicate) {
        Some(c) => c,
        None => return false,
    };
    for cand in candidates {
        if cand.args.len() != fact.args.len() {
            continue;
        }
        let mut added: Vec<NullId> = Vec::new();
        let mut ok = true;
        for (sv, tv) in fact.args.iter().zip(cand.args.iter()) {
            match sv {
                Value::Null(n) => match mapping.get(n) {
                    Some(bound) => {
                        if bound != tv {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        mapping.insert(*n, tv.clone());
                        added.push(*n);
                    }
                },
                constant => {
                    if constant != tv {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok && map_facts(source, idx + 1, target, mapping) {
            return true;
        }
        for n in added {
            mapping.remove(&n);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn null(n: u64) -> Value {
        Value::Null(NullId(n))
    }

    #[test]
    fn iso_ignores_null_identity_but_not_constants() {
        let a = Fact::new("PSC", vec!["HSB".into(), null(1)]);
        let b = Fact::new("PSC", vec!["HSB".into(), null(9)]);
        let c = Fact::new("PSC", vec!["IBA".into(), null(1)]);
        assert!(facts_isomorphic(&a, &b));
        assert!(!facts_isomorphic(&a, &c));
    }

    #[test]
    fn iso_respects_null_equality_pattern_within_a_fact() {
        // P(ν1, ν1) is NOT isomorphic to P(ν1, ν2): no bijection maps one to
        // the other.
        let a = Fact::new("P", vec![null(1), null(1)]);
        let b = Fact::new("P", vec![null(1), null(2)]);
        assert!(!facts_isomorphic(&a, &b));
        let c = Fact::new("P", vec![null(7), null(7)]);
        assert!(facts_isomorphic(&a, &c));
    }

    #[test]
    fn pattern_iso_matches_paper_example() {
        // P(1, 2, x, y) ~pattern~ P(3, 4, z, y) but not P(5, 5, z, y).
        let a = Fact::new("P", vec![1i64.into(), 2i64.into(), null(10), null(11)]);
        let b = Fact::new("P", vec![3i64.into(), 4i64.into(), null(20), null(11)]);
        let c = Fact::new("P", vec![5i64.into(), 5i64.into(), null(20), null(11)]);
        assert!(facts_pattern_isomorphic(&a, &b));
        assert!(!facts_pattern_isomorphic(&a, &c));
    }

    #[test]
    fn pattern_iso_distinguishes_constant_vs_null_positions() {
        let a = Fact::new("Q", vec!["x".into(), null(1)]);
        let b = Fact::new("Q", vec![null(1), "x".into()]);
        assert!(!facts_pattern_isomorphic(&a, &b));
    }

    #[test]
    fn iso_implies_pattern_iso() {
        let a = Fact::new("Owns", vec![null(1), null(2), "HSBC".into()]);
        let b = Fact::new("Owns", vec![null(3), null(4), "HSBC".into()]);
        assert!(facts_isomorphic(&a, &b));
        assert!(facts_pattern_isomorphic(&a, &b));
    }

    #[test]
    fn homomorphism_example_from_section_2() {
        // J1 and J2 from the paper (Example 3 discussion): both are answers,
        // and J1 maps into J2 by sending ν1 to Bob... actually J1 has an
        // extra KeyPerson(c, ν1); the homomorphism maps ν1 ↦ Bob.
        let j1 = vec![
            Fact::new("KeyPerson", vec!["b".into(), "Bob".into()]),
            Fact::new("KeyPerson", vec!["c".into(), "Bob".into()]),
            Fact::new("KeyPerson", vec!["c".into(), null(1)]),
        ];
        let j2 = vec![
            Fact::new("KeyPerson", vec!["b".into(), "Bob".into()]),
            Fact::new("KeyPerson", vec!["c".into(), "Bob".into()]),
        ];
        assert!(is_homomorphic(&j1, &j2));
        assert!(is_homomorphic(&j2, &j1));
        assert!(homomorphically_equivalent(&j1, &j2));
    }

    #[test]
    fn homomorphism_fails_when_constants_disagree() {
        let a = vec![Fact::new("P", vec!["x".into()])];
        let b = vec![Fact::new("P", vec!["y".into()])];
        assert!(!is_homomorphic(&a, &b));
    }

    #[test]
    fn homomorphism_respects_shared_nulls_across_facts() {
        // Source: P(ν1), Q(ν1) — the same null must map to the same value.
        let source = vec![Fact::new("P", vec![null(1)]), Fact::new("Q", vec![null(1)])];
        let target_good = vec![
            Fact::new("P", vec!["a".into()]),
            Fact::new("Q", vec!["a".into()]),
        ];
        let target_bad = vec![
            Fact::new("P", vec!["a".into()]),
            Fact::new("Q", vec!["b".into()]),
        ];
        assert!(is_homomorphic(&source, &target_good));
        assert!(!is_homomorphic(&source, &target_bad));
    }

    #[test]
    fn homomorphism_requires_backtracking() {
        // P(ν1) can map to P(a) or P(b), but Q(ν1) only exists for b:
        // the search must backtrack from the a-choice.
        let source = vec![Fact::new("P", vec![null(1)]), Fact::new("Q", vec![null(1)])];
        let target = vec![
            Fact::new("P", vec!["a".into()]),
            Fact::new("P", vec!["b".into()]),
            Fact::new("Q", vec!["b".into()]),
        ];
        let h = find_homomorphism(&source, &target).unwrap();
        assert_eq!(h.get(&NullId(1)), Some(&Value::str("b")));
    }
}
