//! A sorted-run index built in one sort over existing rows answers every
//! probe exactly like one maintained incrementally from empty, through
//! tails, auto-flushes and size-tiered merges — on plain relations, on
//! copy-on-write overlays (own index, base-covering fallback) and on a
//! promoted layer chain. Both sides must return the same `FactId`-ascending
//! postings for every exact, prefix and range probe.

use proptest::prelude::*;
use std::sync::Arc;
use vadalog_model::prelude::*;
use vadalog_storage::{FactStore, RangeFilter, Relation};

/// Mixed-type values from a small pool: numerics with cross-variant
/// equality (`2` = `2.0`), strings sharing an 8-byte prefix (order-key
/// ties), booleans and labelled nulls — so rows repeat often.
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-5i64..5).prop_map(Value::Int),
        3 => (-10i64..10).prop_map(|i| Value::Float(i as f64 / 2.0)),
        2 => prop::sample::select(vec![
            "a", "b", "shared-prefix-one", "shared-prefix-two", "shared-prefix-one-more",
        ])
        .prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::Bool),
        1 => (0u64..3).prop_map(|n| Value::Null(NullId(n))),
    ]
}

/// Rows of one arity in 1..=3; up to 7,000 of them, so over a third of the cases
/// cross the 4,096-row tail auto-flush and merge runs.
fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (1usize..4).prop_flat_map(|arity| {
        prop::collection::vec(prop::collection::vec(mixed_value(), arity), 0..7000)
    })
}

/// Column lists over `arity` columns: single first/last column, the full
/// row, and (arity ≥ 2) a reordered pair.
fn col_lists(arity: usize) -> Vec<Vec<usize>> {
    let mut lists = vec![vec![0], vec![arity - 1], (0..arity).collect()];
    if arity >= 2 {
        lists.push(vec![arity - 1, 0]);
    }
    lists.dedup();
    lists
}

/// One probe: exact on `prefix`, plus an optional range on the next column.
type ProbeCase = (Vec<ValueId>, Option<RangeFilter>);

/// Probes over `cols`: exact and prefix probes on the projections of
/// sampled rows plus a never-stored value, and a range probe with every
/// ordering operator under each sampled prefix.
fn probes(rows: &[Box<[ValueId]>], cols: &[usize], absent: ValueId) -> Vec<ProbeCase> {
    let sample: Vec<&Box<[ValueId]>> = rows.iter().step_by(rows.len() / 24 + 1).collect();
    let mut out: Vec<ProbeCase> = Vec::new();
    for p in 1..=cols.len() {
        out.push((vec![absent; p], None));
        for row in &sample {
            out.push((cols[..p].iter().map(|c| row[*c]).collect(), None));
        }
    }
    for p in 0..cols.len() {
        for row in sample.iter().take(6) {
            let prefix: Vec<ValueId> = cols[..p].iter().map(|c| row[*c]).collect();
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                out.push((prefix.clone(), Some(RangeFilter::new(op, row[cols[p]]))));
            }
        }
    }
    out
}

/// Postings of every probe, checked `FactId`-ascending.
fn answers(rel: &Relation, cols: &[usize], cases: &[ProbeCase]) -> Vec<Vec<u32>> {
    let mut scratch = Vec::new();
    cases
        .iter()
        .map(|(prefix, range)| {
            let hit = rel
                .probe_if_indexed(cols, prefix, range.as_ref(), &mut scratch)
                .expect("index is built");
            let ids: Vec<u32> = hit.as_slice(&scratch).iter().map(|id| id.0).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "postings not ascending"
            );
            ids
        })
        .collect()
}

fn interned(rows: &[Vec<Value>]) -> Vec<Box<[ValueId]>> {
    rows.iter().map(|r| intern_values(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn one_sort_build_equals_incremental_maintenance(rows in rows()) {
        let arity = rows.first().map_or(1, Vec::len);
        let ids = interned(&rows);
        let absent = Value::string(String::from("never-stored")).interned();
        let half = ids.len() / 2;
        let lists = col_lists(arity);

        // Incremental reference: every index exists before the first insert.
        let mut incremental = Relation::new();
        for cols in &lists {
            incremental.ensure_index(cols);
        }
        incremental.insert_rows(ids.iter().cloned());

        // Plain relation, indexes built once over all rows.
        let mut bulk = Relation::new();
        bulk.insert_rows(ids.iter().cloned());
        for cols in &lists {
            bulk.ensure_index(cols);
        }

        // Overlays over a bulk-indexed base: own index built after the
        // inserts, or before them (tails).
        let mut indexed_base = Relation::new();
        indexed_base.insert_rows(ids[..half].iter().cloned());
        for cols in &lists {
            indexed_base.ensure_index(cols);
        }
        let indexed_base = Arc::new(indexed_base);
        let mut overlay_bulk = Relation::with_base(Arc::clone(&indexed_base));
        overlay_bulk.insert_rows(ids[half..].iter().cloned());
        let mut overlay_tail = Relation::with_base(Arc::clone(&indexed_base));
        for cols in &lists {
            overlay_bulk.ensure_index(cols);
            overlay_tail.ensure_index(cols);
        }
        overlay_tail.insert_rows(ids[half..].iter().cloned());

        // Base-covering fallback: the base never indexed anything.
        let mut plain_base = Relation::new();
        plain_base.insert_rows(ids[..half].iter().cloned());
        let mut fallback = Relation::with_base(Arc::new(plain_base));
        fallback.insert_rows(ids[half..].iter().cloned());
        for cols in &lists {
            fallback.ensure_index(cols);
        }

        // Promoted layer chain: a frozen base, an appended overlay promoted
        // on top (its per-layer indexes mirror the base's).
        let predicate = intern("BulkR");
        let mut store = FactStore::new();
        for row in &ids[..half] {
            store.insert_row(predicate, row);
        }
        let mut base = store.freeze();
        for cols in &lists {
            base.ensure_index(predicate, cols);
        }
        let mut overlay = base.overlay();
        for row in &ids[half..] {
            overlay.insert_row(predicate, row);
        }
        base.promote(overlay);
        let promoted = base.overlay();

        let mut stored: Vec<Box<[ValueId]>> = Vec::new();
        for row in incremental.iter_rows() {
            stored.push(row.into());
        }
        for cols in &lists {
            let cases = probes(&stored, cols, absent);
            let expected = answers(&incremental, cols, &cases);
            prop_assert_eq!(&answers(&bulk, cols, &cases), &expected, "plain {:?}", cols);
            prop_assert_eq!(&answers(&overlay_bulk, cols, &cases), &expected, "overlay {:?}", cols);
            prop_assert_eq!(&answers(&overlay_tail, cols, &cases), &expected, "overlay tail {:?}", cols);
            prop_assert_eq!(&answers(&fallback, cols, &cases), &expected, "fallback {:?}", cols);
            if let Some(rel) = promoted.relation(predicate) {
                prop_assert_eq!(&answers(rel, cols, &cases), &expected, "promoted {:?}", cols);
            }
        }
        incremental.flush_indexes();
        for cols in &lists {
            let cases = probes(&stored, cols, absent);
            prop_assert_eq!(
                &answers(&incremental, cols, &cases),
                &answers(&bulk, cols, &cases),
                "flushed {:?}",
                cols
            );
        }
    }
}
