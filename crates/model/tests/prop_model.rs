//! Property-based tests for the core data model: values, facts,
//! isomorphism / pattern-isomorphism keys, substitutions and atom matching.
//!
//! These check the invariants the chase and the termination machinery of
//! Section 3 of the paper rely on: isomorphism must be an equivalence
//! relation insensitive to bijective null renaming, pattern-isomorphism must
//! additionally be insensitive to bijective constant renaming, and atom
//! matching must agree with substitution application.

use proptest::prelude::*;
use std::collections::HashMap;
use vadalog_model::prelude::*;
use vadalog_model::{
    facts_isomorphic, facts_pattern_isomorphic, iso_key, pattern_key, row_iso_key, row_pattern_key,
    rows_isomorphic, PatternKey, RowIsoKey,
};

/// A small pool of predicate names so that collisions are frequent enough to
/// be interesting.
fn predicate_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["P", "Q", "Own", "Control", "PSC", "StrongLink"])
        .prop_map(|s| s.to_string())
}

/// Ground values only (no nulls, no composites).
fn ground_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        prop::sample::select(vec!["a", "b", "c", "hsbc", "iba"]).prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Values that may also be labelled nulls (drawn from a small pool so the
/// same null shows up in several positions).
fn value_with_nulls() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => ground_value(),
        2 => (0u64..6).prop_map(|n| Value::Null(NullId(n))),
    ]
}

fn fact_with_nulls() -> impl Strategy<Value = Fact> {
    (
        predicate_name(),
        prop::collection::vec(value_with_nulls(), 1..5),
    )
        .prop_map(|(p, args)| Fact::new(&p, args))
}

/// Values whose equality the interner must get right: `Int(2)` and
/// `Float(2.0)` are one value, and a list holding a null is a constant
/// (renaming the null inside it changes the value).
fn tricky_value() -> impl Strategy<Value = Value> {
    prop::sample::select(vec![
        Value::Int(2),
        Value::Float(2.0),
        Value::List(vec![Value::Null(NullId(1))]),
        Value::List(vec![Value::Null(NullId(2))]),
    ])
}

/// Facts mixing [`value_with_nulls`] with [`tricky_value`]s, over a
/// small predicate pool so key comparisons often meet equal predicates.
fn fact_for_keys() -> impl Strategy<Value = Fact> {
    (
        prop::sample::select(vec!["P", "Q"]),
        prop::collection::vec(
            prop_oneof![3 => value_with_nulls(), 1 => tricky_value()],
            1..5,
        ),
    )
        .prop_map(|(p, args)| Fact::new(p, args))
}

/// The row-level canonical forms of a fact, built from its interned row.
fn row_keys(f: &Fact) -> (RowIsoKey, PatternKey) {
    let row = f.intern_args();
    (
        row_iso_key(f.predicate, &row),
        row_pattern_key(f.predicate, &row),
    )
}

fn ground_fact() -> impl Strategy<Value = Fact> {
    (
        predicate_name(),
        prop::collection::vec(ground_value(), 1..5),
    )
        .prop_map(|(p, args)| Fact::new(&p, args))
}

/// Apply a bijective renaming of labelled nulls (offsetting ids into a fresh
/// range keeps the map injective).
fn rename_nulls_bijectively(f: &Fact, offset: u64) -> Fact {
    let rename: HashMap<NullId, Value> = f
        .nulls()
        .into_iter()
        .map(|n| (n, Value::Null(NullId(n.0 + offset))))
        .collect();
    f.rename_nulls(&rename)
}

proptest! {
    // ---------------------------------------------------------------- iso

    /// Isomorphism is reflexive.
    #[test]
    fn iso_is_reflexive(f in fact_with_nulls()) {
        prop_assert!(facts_isomorphic(&f, &f));
        prop_assert_eq!(iso_key(&f), iso_key(&f));
        prop_assert_eq!(row_keys(&f), row_keys(&f));
    }

    /// Bijectively renaming labelled nulls never changes the isomorphism
    /// class (Section 3.1: "there exists a bijection of labelled nulls into
    /// labelled nulls").
    #[test]
    fn iso_invariant_under_null_renaming(f in fact_with_nulls(), offset in 100u64..200) {
        let renamed = rename_nulls_bijectively(&f, offset);
        prop_assert!(facts_isomorphic(&f, &renamed));
        prop_assert_eq!(iso_key(&f), iso_key(&renamed));
        prop_assert_eq!(row_keys(&f).0, row_keys(&renamed).0);
    }

    /// Isomorphic facts agree on predicate, arity and on every constant
    /// position.
    #[test]
    fn iso_preserves_constants(f in fact_with_nulls(), offset in 100u64..200) {
        let renamed = rename_nulls_bijectively(&f, offset);
        prop_assert_eq!(f.predicate, renamed.predicate);
        prop_assert_eq!(f.arity(), renamed.arity());
        for (a, b) in f.args.iter().zip(renamed.args.iter()) {
            if a.is_ground() {
                prop_assert_eq!(a, b);
            }
        }
    }

    /// Two ground facts are isomorphic iff they are equal.
    #[test]
    fn ground_iso_is_equality(a in ground_fact(), b in ground_fact()) {
        prop_assert_eq!(facts_isomorphic(&a, &b), a == b);
    }

    /// iso_key equality and facts_isomorphic agree (the key is a canonical
    /// form, which is what lets the ground structure use it as a hash key),
    /// and so does the row-level key the warded strategy compares.
    #[test]
    fn iso_key_agrees_with_predicate(a in fact_for_keys(), b in fact_for_keys()) {
        let iso = facts_isomorphic(&a, &b);
        prop_assert_eq!(iso_key(&a) == iso_key(&b), iso);
        prop_assert_eq!(row_keys(&a).0 == row_keys(&b).0, iso);
    }

    /// The allocation-free row comparison the warded strategy runs decides
    /// exactly what comparing row-level keys decides, on unrelated pairs
    /// and on bijective null renamings of one fact (mostly isomorphic).
    #[test]
    fn rows_isomorphic_agrees_with_row_iso_keys(
        a in fact_for_keys(),
        b in fact_for_keys(),
        offset in 100u64..200,
    ) {
        let renamed = rename_nulls_bijectively(&a, offset);
        let (ra, rb, rr) = (a.intern_args(), b.intern_args(), renamed.intern_args());
        let p = a.predicate;
        for (x, y) in [(&ra, &rb), (&rb, &ra), (&ra, &rr), (&rr, &rb), (&ra, &ra)] {
            prop_assert_eq!(
                rows_isomorphic(x, y),
                row_iso_key(p, x) == row_iso_key(p, y)
            );
        }
        // The renaming reaches nulls inside lists too, which changes those
        // constants: the renamed fact is isomorphic only without them.
        prop_assert_eq!(rows_isomorphic(&ra, &rr), facts_isomorphic(&a, &renamed));
    }

    /// An id carries the null flag exactly when it interns a labelled null;
    /// a composite holding a null is a constant.
    #[test]
    fn null_flag_matches_the_interned_value(f in fact_for_keys()) {
        for v in &f.args {
            let id = intern_value(v);
            prop_assert_eq!(id.is_null(), matches!(resolve_value(id), Value::Null(_)));
        }
    }

    // ------------------------------------------------------- pattern iso

    /// Isomorphism implies pattern-isomorphism (constants map by identity,
    /// which is a bijection).
    #[test]
    fn iso_implies_pattern_iso(f in fact_with_nulls(), offset in 100u64..200) {
        let renamed = rename_nulls_bijectively(&f, offset);
        prop_assert!(facts_pattern_isomorphic(&f, &renamed));
        prop_assert_eq!(pattern_key(&f), pattern_key(&renamed));
        prop_assert_eq!(row_keys(&f).1, row_keys(&renamed).1);
    }

    /// pattern_key equality and facts_pattern_isomorphic agree, and so does
    /// the row-level key, which is the value-level key itself.
    #[test]
    fn pattern_key_agrees_with_predicate(a in fact_for_keys(), b in fact_for_keys()) {
        let pattern_iso = facts_pattern_isomorphic(&a, &b);
        prop_assert_eq!(pattern_key(&a) == pattern_key(&b), pattern_iso);
        prop_assert_eq!(row_keys(&a).1 == row_keys(&b).1, pattern_iso);
        prop_assert_eq!(row_keys(&a).1, pattern_key(&a));
    }

    /// Renaming *constants* bijectively preserves the pattern class: the
    /// paper's example is P(1,2,x,y) ≈ P(3,4,z,y) but ≉ P(5,5,z,y).
    #[test]
    fn pattern_iso_invariant_under_constant_renaming(
        p in predicate_name(),
        ints in prop::collection::vec(0i64..10, 1..5),
        shift in 100i64..200,
    ) {
        let a = Fact::new(&p, ints.iter().map(|i| Value::Int(*i)).collect());
        // A strictly monotone shift is a bijection on the used constants.
        let b = Fact::new(&p, ints.iter().map(|i| Value::Int(*i + shift)).collect());
        prop_assert!(facts_pattern_isomorphic(&a, &b));
    }

    /// Collapsing two distinct constants to the same constant breaks
    /// pattern-isomorphism (there is no bijection any more).
    #[test]
    fn pattern_iso_detects_collapsed_constants(x in 0i64..50, y in 51i64..100) {
        let distinct = Fact::new("P", vec![Value::Int(x), Value::Int(y)]);
        let collapsed = Fact::new("P", vec![Value::Int(x), Value::Int(x)]);
        prop_assert!(!facts_pattern_isomorphic(&distinct, &collapsed));
    }

    // ------------------------------------------------------ homomorphism

    /// Every set of facts maps homomorphically into itself, and into any
    /// superset of itself.
    #[test]
    fn homomorphism_into_superset(
        facts in prop::collection::vec(fact_with_nulls(), 0..6),
        extra in prop::collection::vec(ground_fact(), 0..4),
    ) {
        use vadalog_model::is_homomorphic;
        prop_assert!(is_homomorphic(&facts, &facts));
        let mut superset = facts.clone();
        superset.extend(extra);
        prop_assert!(is_homomorphic(&facts, &superset));
    }

    /// Ground facts are preserved verbatim by any homomorphism, so a set of
    /// ground facts maps into a target iff it is a subset of it.
    #[test]
    fn ground_homomorphism_is_containment(
        source in prop::collection::vec(ground_fact(), 0..5),
        target in prop::collection::vec(ground_fact(), 0..8),
    ) {
        use vadalog_model::is_homomorphic;
        let contained = source.iter().all(|f| target.contains(f));
        prop_assert_eq!(is_homomorphic(&source, &target), contained);
    }

    // ------------------------------------------------------ substitutions

    /// Binding then reading back returns the bound value; unbound variables
    /// stay unbound.
    #[test]
    fn substitution_bind_get(vals in prop::collection::vec(ground_value(), 1..6)) {
        let mut s = Substitution::new();
        for (i, v) in vals.iter().enumerate() {
            s.bind(Var::new(&format!("x{i}")), v.clone());
        }
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(s.get(Var::new(&format!("x{i}"))), Some(v));
        }
        prop_assert_eq!(s.get(Var::new("unbound")), None);
        prop_assert_eq!(s.len(), vals.len());
    }

    /// Merging substitutions with disjoint domains always succeeds and is
    /// order-insensitive on the resulting bindings.
    #[test]
    fn substitution_merge_disjoint(
        left in prop::collection::vec(ground_value(), 1..4),
        right in prop::collection::vec(ground_value(), 1..4),
    ) {
        let mut a = Substitution::new();
        for (i, v) in left.iter().enumerate() {
            a.bind(Var::new(&format!("l{i}")), v.clone());
        }
        let mut b = Substitution::new();
        for (i, v) in right.iter().enumerate() {
            b.bind(Var::new(&format!("r{i}")), v.clone());
        }
        let mut ab = a.clone();
        prop_assert!(ab.merge(&b));
        let mut ba = b.clone();
        prop_assert!(ba.merge(&a));
        prop_assert_eq!(ab.len(), ba.len());
        for (v, val) in ab.iter() {
            prop_assert_eq!(ba.get(*v), Some(val));
        }
    }

    /// Merging a substitution with itself never fails and never changes it.
    #[test]
    fn substitution_merge_idempotent(vals in prop::collection::vec(ground_value(), 1..5)) {
        let mut s = Substitution::new();
        for (i, v) in vals.iter().enumerate() {
            s.bind(Var::new(&format!("x{i}")), v.clone());
        }
        let mut merged = s.clone();
        prop_assert!(merged.merge(&s));
        prop_assert_eq!(merged.len(), s.len());
    }

    /// Merging conflicting bindings fails.
    #[test]
    fn substitution_merge_conflict(a in ground_value(), b in ground_value()) {
        prop_assume!(a != b);
        let mut s1 = Substitution::new();
        s1.bind(Var::new("x"), a);
        let mut s2 = Substitution::new();
        s2.bind(Var::new("x"), b);
        let mut merged = s1.clone();
        prop_assert!(!merged.merge(&s2));
    }

    /// project() keeps exactly the requested variables.
    #[test]
    fn substitution_project(vals in prop::collection::vec(ground_value(), 2..6), keep in 1usize..3) {
        let mut s = Substitution::new();
        for (i, v) in vals.iter().enumerate() {
            s.bind(Var::new(&format!("x{i}")), v.clone());
        }
        let kept: Vec<Var> = (0..keep.min(vals.len())).map(|i| Var::new(&format!("x{i}"))).collect();
        let projected = s.project(&kept);
        prop_assert_eq!(projected.len(), kept.len());
        for v in &kept {
            prop_assert_eq!(projected.get(*v), s.get(*v));
        }
    }

    // ------------------------------------------------------- atom matching

    /// If an atom with distinct variables is applied to a substitution and
    /// produces a fact, then matching that fact against the atom recovers a
    /// substitution compatible with the original.
    #[test]
    fn apply_then_match_roundtrip(
        p in predicate_name(),
        vals in prop::collection::vec(ground_value(), 1..5),
    ) {
        let vars: Vec<String> = (0..vals.len()).map(|i| format!("v{i}")).collect();
        let atom = Atom::vars(&p, &vars.iter().map(String::as_str).collect::<Vec<_>>());
        let mut s = Substitution::new();
        for (name, v) in vars.iter().zip(vals.iter()) {
            s.bind(Var::new(name), v.clone());
        }
        let fact = atom.apply(&s).expect("fully bound atom must ground");
        let recovered = atom
            .match_fact(&fact, &Substitution::new())
            .expect("matching the fact we just built must succeed");
        for name in &vars {
            prop_assert_eq!(recovered.get(Var::new(name)), s.get(Var::new(name)));
        }
        // and applying the recovered substitution reproduces the fact
        prop_assert_eq!(atom.apply(&recovered), Some(fact));
    }

    /// Matching fails whenever predicate or arity disagree.
    #[test]
    fn match_respects_predicate_and_arity(f in ground_fact()) {
        let vars: Vec<String> = (0..f.arity() + 1).map(|i| format!("v{i}")).collect();
        let wrong_arity = Atom::vars(
            &f.predicate_name(),
            &vars.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        prop_assert!(wrong_arity.match_fact(&f, &Substitution::new()).is_none());

        let vars: Vec<String> = (0..f.arity()).map(|i| format!("v{i}")).collect();
        let wrong_pred = Atom::vars(
            "ZZZ_NotARealPredicate",
            &vars.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        prop_assert!(wrong_pred.match_fact(&f, &Substitution::new()).is_none());
    }

    /// A repeated variable in the atom only matches facts with equal values
    /// at those positions.
    #[test]
    fn repeated_variables_force_equality(a in ground_value(), b in ground_value()) {
        let atom = Atom::vars("P", &["x", "x"]);
        let fact = Fact::new("P", vec![a.clone(), b.clone()]);
        let matched = atom.match_fact(&fact, &Substitution::new()).is_some();
        prop_assert_eq!(matched, a == b);
    }

    // ------------------------------------------------------------- values

    /// Value ordering is a total order: antisymmetric and transitive on the
    /// generated triples, and consistent with equality.
    #[test]
    fn value_order_is_total(a in value_with_nulls(), b in value_with_nulls(), c in value_with_nulls()) {
        use std::cmp::Ordering::*;
        // consistency of eq and cmp
        prop_assert_eq!(a == b, a.cmp(&b) == Equal);
        // antisymmetry
        if a.cmp(&b) == Less {
            prop_assert_eq!(b.cmp(&a), Greater);
        }
        // transitivity
        if a.cmp(&b) != Greater && b.cmp(&c) != Greater {
            prop_assert!(a.cmp(&c) != Greater);
        }
    }

    /// Equal values hash equally (required for the hash-based indices).
    #[test]
    fn equal_values_hash_equally(a in value_with_nulls(), b in value_with_nulls()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            a.hash(&mut ha);
            let mut hb = DefaultHasher::new();
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// A fact is ground exactly when it mentions no nulls.
    #[test]
    fn groundness_matches_null_census(f in fact_with_nulls()) {
        prop_assert_eq!(f.is_ground(), f.nulls().is_empty());
    }

    /// Renaming nulls to fresh ids leaves the null count unchanged, and
    /// renaming them all to constants makes the fact ground.
    #[test]
    fn rename_nulls_to_constants_grounds(f in fact_with_nulls()) {
        let rename: HashMap<NullId, Value> = f
            .nulls()
            .into_iter()
            .map(|n| (n, Value::Int(n.0 as i64)))
            .collect();
        let grounded = f.rename_nulls(&rename);
        prop_assert!(grounded.is_ground());
        prop_assert_eq!(grounded.arity(), f.arity());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expression evaluation: integer addition and multiplication are
    /// commutative under the engine's evaluator.
    #[test]
    fn expr_arithmetic_commutes(a in -1000i64..1000, b in -1000i64..1000) {
        let subst = Substitution::new();
        for op in [BinOp::Add, BinOp::Mul] {
            let lhs = Expr::Binary(op, Box::new(Expr::constant(a)), Box::new(Expr::constant(b)));
            let rhs = Expr::Binary(op, Box::new(Expr::constant(b)), Box::new(Expr::constant(a)));
            prop_assert_eq!(lhs.eval(&subst).unwrap(), rhs.eval(&subst).unwrap());
        }
    }

    /// Comparison operators and their flipped versions agree when the
    /// operands are swapped.
    #[test]
    fn cmp_flip_is_consistent(a in ground_value(), b in ground_value()) {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Neq] {
            prop_assert_eq!(op.eval(&a, &b), op.flipped().eval(&b, &a));
        }
    }
}
