//! Property-based tests for the storage substrate: relations with dynamic
//! indices, the fact store, the active domain and the CSV record manager.

use proptest::prelude::*;
use vadalog_model::prelude::*;
use vadalog_storage::{
    read_csv_facts, write_csv_facts, ActiveDomain, FactStore, RangeFilter, Relation,
};

// ---------------------------------------------------------------- strategies

fn ground_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        prop::sample::select(vec!["a", "b", "c", "d", "acme"]).prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn value_with_nulls() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => ground_value(),
        1 => (0u64..4).prop_map(|n| Value::Null(NullId(n))),
    ]
}

/// Mixed-type column values for the sorted-run probe tests: numerics with
/// cross-variant equality, strings sharing an 8-byte prefix (order-key
/// collisions), booleans and labelled nulls.
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-6i64..6).prop_map(Value::Int),
        3 => (-12i64..12).prop_map(|i| Value::Float(i as f64 / 4.0)),
        2 => prop::sample::select(vec![
            "a", "b", "shared-prefix-one", "shared-prefix-two", "shared-prefix-one-more",
        ])
        .prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => (0u64..4).prop_map(|n| Value::Null(NullId(n))),
    ]
}

fn fact(arity: std::ops::Range<usize>) -> impl Strategy<Value = Fact> {
    (
        prop::sample::select(vec!["P", "Q", "Own", "Control"]),
        prop::collection::vec(value_with_nulls(), arity),
    )
        .prop_map(|(p, args)| Fact::new(p, args))
}

/// Facts of a fixed predicate and arity, convenient for relation-level tests.
fn uniform_facts(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Fact>> {
    prop::collection::vec(
        prop::collection::vec(ground_value(), 3).prop_map(|args| Fact::new("R", args)),
        n,
    )
}

// ----------------------------------------------------------------- relations

proptest! {
    /// A relation stores each distinct fact exactly once, regardless of how
    /// many times it is inserted.
    #[test]
    fn relation_deduplicates(facts in uniform_facts(0..30)) {
        let mut rel = Relation::new();
        let mut distinct = std::collections::BTreeSet::new();
        for f in &facts {
            let fresh = distinct.insert(f.clone());
            prop_assert_eq!(rel.insert(f.clone()), fresh);
        }
        prop_assert_eq!(rel.len(), distinct.len());
        for f in &facts {
            prop_assert!(rel.contains(f));
        }
    }

    /// Indexed lookup returns exactly the positions a full scan would.
    #[test]
    fn index_lookup_matches_scan(facts in uniform_facts(1..40), col in 0usize..3) {
        let mut rel = Relation::new();
        for f in &facts {
            rel.insert(f.clone());
        }
        let stored: Vec<Fact> = rel.to_facts(intern("R"));
        // probe with every value that occurs in the column, plus one absent value
        let mut probes: Vec<Value> = stored.iter().map(|f| f.args[col].clone()).collect();
        probes.push(Value::str("definitely-absent-value"));
        for probe in probes {
            let via_index: Vec<usize> =
                rel.lookup(col, probe.interned()).iter().map(|id| id.index()).collect();
            let via_scan: Vec<usize> = stored
                .iter()
                .enumerate()
                .filter(|(_, f)| f.args[col] == probe)
                .map(|(i, _)| i)
                .collect();
            let mut a = via_index.clone();
            a.sort_unstable();
            prop_assert_eq!(a, via_scan);
        }
        // once built, the index is also available through the read-only path
        prop_assert!(rel.lookup_if_indexed(col, Value::str("x").interned()).is_some() || rel.index_count() == 0 || col >= 3);
    }

    /// Building an index never changes what the relation contains.
    #[test]
    fn ensure_index_preserves_contents(facts in uniform_facts(0..30), col in 0usize..3) {
        let mut rel = Relation::new();
        for f in &facts {
            rel.insert(f.clone());
        }
        let before: Vec<Fact> = rel.to_facts(intern("R"));
        rel.ensure_index(&[col]);
        let after: Vec<Fact> = rel.to_facts(intern("R"));
        prop_assert_eq!(before, after);
        prop_assert!(rel.index_count() >= 1);
    }

    /// Inserting facts after an index is built keeps the index consistent.
    #[test]
    fn index_stays_consistent_after_inserts(
        first in uniform_facts(1..15),
        second in uniform_facts(1..15),
        col in 0usize..3,
    ) {
        let mut rel = Relation::new();
        for f in &first {
            rel.insert(f.clone());
        }
        rel.ensure_index(&[col]);
        for f in &second {
            rel.insert(f.clone());
        }
        let stored: Vec<Fact> = rel.to_facts(intern("R"));
        for probe in stored.iter().map(|f| f.args[col].clone()) {
            let mut via_index: Vec<usize> =
                rel.lookup(col, probe.interned()).iter().map(|id| id.index()).collect();
            via_index.sort_unstable();
            let via_scan: Vec<usize> = stored
                .iter()
                .enumerate()
                .filter(|(_, f)| f.args[col] == probe)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(via_index, via_scan);
        }
    }

    // ---------------------------------------------------- sorted-run probes

    /// Exact, composite and range probes over sorted runs agree with the
    /// post-filter reference (a full scan applying the same semantics:
    /// id equality for exact columns, `CmpOp::eval` for ranges) on random
    /// relations with labelled nulls and mixed-type columns — and the frozen
    /// relation answers identically from 1, 2 and 8 concurrent threads.
    #[test]
    fn sorted_run_probes_match_post_filter_reference(
        first in prop::collection::vec(prop::collection::vec(mixed_value(), 3), 1..25),
        second in prop::collection::vec(prop::collection::vec(mixed_value(), 3), 0..15),
        probe_row in prop::collection::vec(mixed_value(), 3),
        op in prop::sample::select(vec![CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]),
    ) {
        let mut rel = Relation::new();
        for args in &first {
            rel.insert(Fact::new("R", args.clone()));
        }
        // Indexes built mid-stream so probes cross runs *and* the tail.
        rel.ensure_index(&[0]);
        rel.ensure_index(&[0, 1]);
        rel.ensure_index(&[0, 2]);
        rel.ensure_index(&[2]);
        for args in &second {
            rel.insert(Fact::new("R", args.clone()));
        }
        let stored: Vec<Fact> = rel.to_facts(intern("R"));
        // Probe values: one from the data when available, one arbitrary.
        let v0 = probe_row[0].interned();
        let v1 = probe_row[1].interned();
        let bound = probe_row[2].interned();
        let range = RangeFilter::new(op, bound);

        let reference = |pred: &dyn Fn(&Fact) -> bool| -> Vec<usize> {
            stored.iter().enumerate().filter(|(_, f)| pred(f)).map(|(i, _)| i).collect()
        };
        let probe = |cols: &[usize], prefix: &[ValueId], range: Option<&RangeFilter>| -> Vec<usize> {
            let mut scratch = Vec::new();
            let hit = rel.probe_if_indexed(cols, prefix, range, &mut scratch)
                .expect("index was built");
            hit.as_slice(&scratch).iter().map(|id| id.index()).collect()
        };

        // exact single-column
        let exact = probe(&[0], &[v0], None);
        prop_assert_eq!(&exact, &reference(&|f: &Fact| f.args[0].interned() == v0));
        // exact composite
        let composite = probe(&[0, 1], &[v0, v1], None);
        prop_assert_eq!(
            &composite,
            &reference(&|f: &Fact| f.args[0].interned() == v0 && f.args[1].interned() == v1)
        );
        // pure range
        let bound_value = probe_row[2].clone();
        let ranged = probe(&[2], &[], Some(&range));
        prop_assert_eq!(
            &ranged,
            &reference(&|f: &Fact| op.eval(&f.args[2], &bound_value))
        );
        // composite prefix + range
        let prefixed = probe(&[0, 2], &[v0], Some(&range));
        prop_assert_eq!(
            &prefixed,
            &reference(&|f: &Fact| f.args[0].interned() == v0 && op.eval(&f.args[2], &bound_value))
        );

        // concurrent readers at thread counts 1, 2 and 8 all agree
        for threads in [1usize, 2, 8] {
            let results: Vec<Vec<Vec<usize>>> = std::thread::scope(|scope| {
                (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            vec![
                                probe(&[0], &[v0], None),
                                probe(&[0, 1], &[v0, v1], None),
                                probe(&[2], &[], Some(&range)),
                                probe(&[0, 2], &[v0], Some(&range)),
                            ]
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            });
            for r in &results {
                prop_assert_eq!(r[0].clone(), exact.clone(), "exact diverges at {} threads", threads);
                prop_assert_eq!(r[1].clone(), composite.clone());
                prop_assert_eq!(r[2].clone(), ranged.clone());
                prop_assert_eq!(r[3].clone(), prefixed.clone());
            }
        }
    }

    // ----------------------------------------------------------- fact store

    /// The store partitions facts by predicate and counts them consistently.
    #[test]
    fn store_partitions_by_predicate(facts in prop::collection::vec(fact(1..4), 0..40)) {
        let store = FactStore::from_facts(facts.clone());
        let distinct: std::collections::BTreeSet<Fact> = facts.iter().cloned().collect();
        prop_assert_eq!(store.len(), distinct.len());
        // per-predicate counts sum to the total
        let sum: usize = store.predicates().iter().map(|p| store.count(*p)).sum();
        prop_assert_eq!(sum, store.len());
        // facts_of returns exactly the facts with that predicate
        for p in store.predicates() {
            for f in store.facts_of(p) {
                prop_assert_eq!(f.predicate, p);
                prop_assert!(distinct.contains(&f));
            }
        }
        // membership agrees with the input
        for f in &facts {
            prop_assert!(store.contains(f));
        }
    }

    /// Iterating the store yields every inserted fact exactly once.
    #[test]
    fn store_iteration_is_exhaustive(facts in prop::collection::vec(fact(1..4), 0..40)) {
        let store = FactStore::from_facts(facts.clone());
        let iterated: std::collections::BTreeSet<Fact> = store.iter().collect();
        let distinct: std::collections::BTreeSet<Fact> = facts.into_iter().collect();
        prop_assert_eq!(iterated, distinct);
    }

    // -------------------------------------------------------- active domain

    /// The active domain contains exactly the ground constants of the facts
    /// (labelled nulls are excluded, per the paper's ACDom definition).
    #[test]
    fn active_domain_is_exactly_the_ground_constants(
        facts in prop::collection::vec(fact(1..4), 0..30),
    ) {
        let dom = ActiveDomain::from_facts(facts.iter());
        for f in &facts {
            for v in &f.args {
                match v {
                    Value::Null(_) => prop_assert!(!dom.contains(v)),
                    other => prop_assert!(dom.contains(other)),
                }
            }
        }
        // every domain element occurs in some fact
        for c in dom.iter() {
            prop_assert!(facts.iter().any(|f| f.args.contains(c)));
        }
        // and the Dom(*) materialisation has one unary fact per constant
        let dom_facts = dom.to_facts("Dom");
        prop_assert_eq!(dom_facts.len(), dom.len());
        for f in &dom_facts {
            prop_assert_eq!(f.arity(), 1);
            prop_assert!(dom.contains(&f.args[0]));
        }
    }

    // ------------------------------------------------------------------ CSV

    /// Writing ground facts to CSV and reading them back preserves them
    /// (values are limited to the types the CSV record manager round-trips).
    #[test]
    fn csv_roundtrip(rows in prop::collection::vec(
        prop::collection::vec(prop_oneof![
            (-1000i64..1000).prop_map(Value::Int),
            prop::sample::select(vec!["alpha", "beta corp", "x-1", "HSBC"]).prop_map(Value::str),
            any::<bool>().prop_map(Value::Bool),
        ], 3),
        1..30,
    )) {
        let facts: Vec<Fact> = rows.into_iter().map(|args| Fact::new("Row", args)).collect();
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "vadalog_prop_csv_{}_{}.csv",
            std::process::id(),
            {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                facts.hash(&mut h);
                h.finish()
            }
        ));
        write_csv_facts(&path, &facts).expect("write failed");
        let read = read_csv_facts(&path, "Row", false).expect("read failed");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(read, facts);
    }
}
