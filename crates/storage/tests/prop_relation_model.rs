//! A relation against a naive model: a `Vec<Vec<ValueId>>` of the distinct
//! rows in insertion order. Over random insert sequences of mixed arity
//! (0 to 3), with duplicates inside one batch and across segments, and long
//! enough to grow the dedup table several times, every dedup decision,
//! `FactId`, `row`, `find_row`, `contains_row`, `iter_rows` and `len` must
//! equal the model's. The same sequence runs into a plain relation and into
//! a segmented one (freeze, overlay, promote, whose segments merge
//! size-tiered).

use proptest::prelude::*;
use vadalog_model::prelude::*;
use vadalog_storage::{FactId, FactStore, Relation, StoreBase};

/// Row values: mostly from a small pool (so rows repeat), sometimes from a
/// wide one (so most arity-3 rows are distinct and the table grows).
fn value() -> impl Strategy<Value = i64> {
    prop_oneof![7 => 0i64..4, 3 => 0i64..60]
}

/// Up to 2,500 rows of arity 0 to 3 each.
fn rows() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(
        (0usize..4).prop_flat_map(|arity| prop::collection::vec(value(), arity)),
        0..2500,
    )
}

fn interned(rows: &[Vec<i64>]) -> Vec<Vec<ValueId>> {
    rows.iter()
        .map(|row| row.iter().map(|v| Value::Int(*v).interned()).collect())
        .collect()
}

/// Segment boundaries of `n` rows from per-mille split points.
fn segments(n: usize, splits: &[u16]) -> Vec<std::ops::Range<usize>> {
    let mut cuts: Vec<usize> = splits.iter().map(|s| n * *s as usize / 1000).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The model's dedup decision for `row`: its fresh `FactId`, or `None` for a
/// duplicate (and the model records a fresh row).
fn model_insert(model: &mut Vec<Vec<ValueId>>, row: &[ValueId]) -> Option<FactId> {
    if model.iter().any(|r| r == row) {
        return None;
    }
    model.push(row.to_vec());
    Some(FactId(model.len() as u32 - 1))
}

/// Everything a relation answers about its rows equals the model.
fn assert_matches(rel: &Relation, model: &[Vec<ValueId>], absent: &[Vec<ValueId>]) {
    assert_eq!(rel.len(), model.len());
    let stored: Vec<Vec<ValueId>> = rel.iter_rows().map(<[ValueId]>::to_vec).collect();
    assert_eq!(stored, model);
    for (i, row) in model.iter().enumerate() {
        assert_eq!(rel.row(FactId(i as u32)), &row[..]);
        assert_eq!(rel.find_row(row), Some(FactId(i as u32)));
        assert!(rel.contains_row(row));
    }
    for row in absent {
        assert_eq!(rel.find_row(row), None);
        assert!(!rel.contains_row(row));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn relation_equals_naive_model(rows in rows(), splits in prop::collection::vec(0u16..1000, 0..4)) {
        let rows = interned(&rows);
        // Rows no sequence holds: arity 4, and a value outside both pools.
        let outside = Value::Int(1000).interned();
        let absent = vec![vec![outside], vec![Value::Int(0).interned(); 4]];
        let p = intern("Modelled");

        // The model's decision for every row of the sequence.
        let mut model = Vec::new();
        let expected: Vec<Option<FactId>> =
            rows.iter().map(|row| model_insert(&mut model, row)).collect();

        // Plain relation, one insert at a time.
        let mut plain = Relation::new();
        for (row, want) in rows.iter().zip(&expected) {
            assert_eq!(plain.insert_row(row), *want);
        }
        assert_matches(&plain, &model, &absent);

        let segs = segments(rows.len(), &splits);
        // Segments: the first batch frozen, each later one appended on an
        // overlay and promoted, so duplicates cross segments.
        let mut base: Option<StoreBase> = None;
        for seg in &segs {
            let mut store = base.as_ref().map_or_else(FactStore::new, StoreBase::overlay);
            for i in seg.clone() {
                assert_eq!(store.relation_mut(p).insert_row(&rows[i]), expected[i]);
            }
            match base.as_mut() {
                None => base = Some(store.freeze()),
                Some(b) => {
                    b.promote(store);
                }
            }
        }
        let base = base.expect("at least one batch");
        let mut overlay = base.overlay();
        let rel = overlay.relation_mut(p);
        if !model.is_empty() {
            let bound = rel.len().ilog2() as usize + 1;
            assert!((1..=bound).contains(&rel.segment_count()));
        }
        assert_matches(rel, &model, &absent);
        // The segmented relation keeps deduplicating.
        for row in &rows {
            assert_eq!(rel.insert_row(row), None);
        }
    }
}
