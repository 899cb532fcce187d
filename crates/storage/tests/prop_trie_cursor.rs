//! A `TrieCursor` walks an index's sorted runs as a trie. Every operation —
//! `open`, `key`, `seek`, `seek_past`, `descend`, `up`, `rewind` and
//! `leaf_facts` — is checked against a brute-force model: the index's
//! entries as `(OrderKey, ValueId)` tuples sorted with `FactId` as the final
//! tie-break, where a cursor position is a span of that list plus the
//! strongest seek target at the current column. Relations hold several runs
//! (a tail that auto-flushes at 4,096 rows, then flushes that merge runs
//! size-tiered), one run built by one sort, and a base-plus-overlay chain.

use proptest::prelude::*;
use std::sync::Arc;
use vadalog_model::prelude::*;
use vadalog_storage::{FactId, Relation, TrieCursor};

type Pair = (OrderKey, ValueId);

/// Mixed-type values from a small pool: numerics with cross-variant
/// equality (`2` = `2.0`), strings sharing an 8-byte prefix (order-key
/// ties), booleans and labelled nulls.
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

/// 6,000 to 8,000 arity-3 rows: after set-semantics dedup well over 4,096
/// distinct ones, so a tail fills and auto-flushes.
fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(mixed_value(), 3), 6000..8000)
}

/// A script of cursor operations: an opcode and a parameter each.
fn script() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..9, any::<u32>()), 150..300)
}

const COL_LISTS: [&[usize]; 4] = [&[0], &[2], &[0, 1, 2], &[2, 0]];

fn pair(id: ValueId) -> Pair {
    (order_key_of(id), id)
}

/// The model of one index: every row's projection on the index columns,
/// sorted by pair tuple and then `FactId`.
struct Model {
    k: usize,
    entries: Vec<(Vec<Pair>, FactId)>,
}

impl Model {
    fn new(rel: &Relation, cols: &[usize]) -> Model {
        let mut entries: Vec<(Vec<Pair>, FactId)> = rel
            .iter_rows()
            .enumerate()
            .map(|(i, row)| {
                (
                    cols.iter().map(|c| pair(row[*c])).collect(),
                    FactId(i as u32),
                )
            })
            .collect();
        entries.sort();
        Model {
            k: cols.len(),
            entries,
        }
    }

    /// Every full key with its facts, in trie order.
    fn leaves(&self) -> Vec<(Vec<Pair>, Vec<FactId>)> {
        let mut out: Vec<(Vec<Pair>, Vec<FactId>)> = Vec::new();
        for (key, fact) in &self.entries {
            match out.last_mut() {
                Some((last, facts)) if last == key => facts.push(*fact),
                _ => out.push((key.clone(), vec![*fact])),
            }
        }
        out
    }
}

/// One model frame: the entries under the bound prefix, plus the strongest
/// seek at the frame's column (`true` = strictly past).
type Frame = (Vec<usize>, Option<(Pair, bool)>);

/// A model cursor: one frame per bound depth past the opened prefix.
struct ModelCursor<'m> {
    model: &'m Model,
    frames: Vec<Frame>,
    depth: usize,
}

impl<'m> ModelCursor<'m> {
    fn open(model: &'m Model, prefix: &[ValueId]) -> (ModelCursor<'m>, bool) {
        let span: Vec<usize> = (0..model.entries.len())
            .filter(|&i| {
                let key = &model.entries[i].0;
                key.iter().zip(prefix).all(|(p, id)| p.1 == *id)
            })
            .collect();
        let any = !span.is_empty();
        let cursor = ModelCursor {
            model,
            frames: vec![(span, None)],
            depth: prefix.len(),
        };
        (cursor, any)
    }

    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        let (span, floor) = self.frames.last().expect("a frame");
        let d = self.depth;
        span.iter().copied().filter(move |&i| {
            let v = self.model.entries[i].0[d];
            floor.is_none_or(|(t, strict)| if strict { v > t } else { v >= t })
        })
    }

    fn key(&self) -> Option<Pair> {
        self.live()
            .next()
            .map(|i| self.model.entries[i].0[self.depth])
    }

    fn seek(&mut self, target: Pair, strict: bool) {
        let floor = &mut self.frames.last_mut().expect("a frame").1;
        let stronger = match *floor {
            None => true,
            Some((t, s)) => target > t || (target == t && strict && !s),
        };
        if stronger {
            *floor = Some((target, strict));
        }
    }

    fn descend(&mut self, value: Pair) {
        let d = self.depth;
        let span: Vec<usize> = self
            .live()
            .filter(|&i| self.model.entries[i].0[d] == value)
            .collect();
        self.frames.push((span, None));
        self.depth += 1;
    }

    fn up(&mut self) {
        self.frames.pop();
        self.depth -= 1;
    }

    fn rewind(&mut self) {
        self.frames.last_mut().expect("a frame").1 = None;
    }

    fn leaf_facts(&self) -> Vec<FactId> {
        let span = &self.frames.last().expect("a frame").0;
        span.iter().map(|&i| self.model.entries[i].1).collect()
    }
}

/// Walk the whole trie under the empty prefix: every full key with its
/// leaf facts, in the order the cursor enumerates them.
fn walk(cursor: &mut TrieCursor<'_>) -> Vec<(Vec<Pair>, Vec<FactId>)> {
    fn level(
        cursor: &mut TrieCursor<'_>,
        path: &mut Vec<Pair>,
        out: &mut Vec<(Vec<Pair>, Vec<FactId>)>,
    ) {
        if cursor.depth() == cursor.arity() {
            let mut facts = Vec::new();
            cursor.leaf_facts(&mut facts);
            out.push((path.clone(), facts));
            return;
        }
        while let Some(value) = cursor.key() {
            cursor.descend(value);
            path.push(value);
            level(cursor, path, out);
            path.pop();
            cursor.up();
            cursor.seek_past(value);
        }
        cursor.rewind();
    }
    let mut out = Vec::new();
    if cursor.open(&[]) {
        level(cursor, &mut Vec::new(), &mut out);
    }
    out
}

/// Run `script` on a real cursor and on the model in lockstep; `ctx` names
/// the relation and index in a failure.
fn replay(
    cursor: &mut TrieCursor<'_>,
    model: &Model,
    script: &[(u32, u32)],
    targets: &[Pair],
    prefixes: &[Vec<ValueId>],
    ctx: &str,
) {
    let pick_prefix = |param: u32| &prefixes[param as usize % prefixes.len()];
    let first = pick_prefix(script.first().map_or(0, |op| op.1));
    let (mut shadow, any) = ModelCursor::open(model, first);
    assert_eq!(cursor.open(first), any, "{ctx}: first open");
    let mut opened = first.len();
    for (step, &(op, param)) in script.iter().enumerate() {
        let target = targets[param as usize % targets.len()];
        let at_leaf = shadow.depth == model.k;
        match op {
            0 if !at_leaf => {
                cursor.seek(target);
                shadow.seek(target, false);
            }
            1 if !at_leaf => {
                cursor.seek_past(target);
                shadow.seek(target, true);
            }
            2 | 3 if !at_leaf => {
                if let Some(value) = shadow.key() {
                    cursor.descend(value);
                    shadow.descend(value);
                }
            }
            4 if shadow.depth > opened => {
                cursor.up();
                shadow.up();
            }
            5 if !at_leaf => {
                cursor.rewind();
                shadow.rewind();
            }
            6 => {
                let prefix = pick_prefix(param);
                let (fresh, any) = ModelCursor::open(model, prefix);
                assert_eq!(
                    cursor.open(prefix),
                    any,
                    "{ctx}: open {prefix:?} at step {step}"
                );
                shadow = fresh;
                opened = prefix.len();
            }
            7 => {
                let memo = cursor.take_memo();
                cursor.adopt_memo(memo);
            }
            _ => {}
        }
        assert_eq!(cursor.depth(), shadow.depth, "{ctx}: depth at step {step}");
        if shadow.depth == model.k {
            let mut facts = Vec::new();
            cursor.leaf_facts(&mut facts);
            assert_eq!(
                facts,
                shadow.leaf_facts(),
                "{ctx}: leaf facts at step {step}"
            );
        } else {
            assert_eq!(
                cursor.key(),
                shadow.key(),
                "{ctx}: key at step {step} (op {op})"
            );
        }
    }
}

/// Relations holding the same rows under the same `FactId`s, each with
/// every index in `COL_LISTS` flushed: several runs, one run, and a
/// base-plus-overlay chain.
fn relations(ids: &[Box<[ValueId]>]) -> Vec<(&'static str, Relation)> {
    let chunked = |rel: &mut Relation, rows: &[Box<[ValueId]>]| {
        for chunk in rows.chunks(900) {
            rel.insert_rows(chunk.iter().cloned());
            rel.flush_indexes();
        }
    };
    let mut runs = Relation::new();
    for cols in COL_LISTS {
        runs.ensure_index(cols);
    }
    let split = ids.len().min(4500);
    runs.insert_rows(ids[..split].iter().cloned());
    chunked(&mut runs, &ids[split..]);

    let mut bulk = Relation::new();
    bulk.insert_rows(ids.iter().cloned());
    for cols in COL_LISTS {
        bulk.ensure_index(cols);
    }

    let half = ids.len() / 2;
    let mut base = Relation::new();
    base.insert_rows(ids[..half].iter().cloned());
    for cols in COL_LISTS {
        base.ensure_index(cols);
    }
    let mut overlay = Relation::with_base(Arc::new(base));
    for cols in COL_LISTS {
        overlay.ensure_index(cols);
    }
    chunked(&mut overlay, &ids[half..]);
    vec![("runs", runs), ("bulk", bulk), ("overlay", overlay)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn trie_cursor_agrees_with_a_sorted_model(rows in rows(), script in script()) {
        let ids: Vec<Box<[ValueId]>> = rows.iter().map(|r| intern_values(r)).collect();
        let absent = Value::string(String::from("never-stored-trie")).interned();
        let relations = relations(&ids);
        let (_, reference) = &relations[0];
        prop_assert!(reference.len() > 4096, "{} distinct rows", reference.len());
        for cols in COL_LISTS {
            let model = Model::new(reference, cols);
            let leaves = model.leaves();
            // Seek targets: every pair stored in any column, plus one absent.
            let mut targets: Vec<Pair> = model.entries.iter().flat_map(|(key, _)| key.clone()).collect();
            targets.push(pair(absent));
            targets.sort();
            targets.dedup();
            // Prefixes of sampled entries at every depth, plus absent ones.
            let mut prefixes: Vec<Vec<ValueId>> = vec![Vec::new(), vec![absent]];
            for (key, _) in model.entries.iter().step_by(model.entries.len() / 16 + 1) {
                for p in 1..=cols.len() {
                    prefixes.push(key[..p].iter().map(|pair| pair.1).collect());
                }
            }
            for (name, rel) in &relations {
                let mut cursor = rel.trie_cursor(cols).expect("flushed index");
                prop_assert_eq!(cursor.arity(), cols.len());
                prop_assert_eq!(&walk(&mut cursor), &leaves, "{} walk over {:?}", name, cols);
                let mut cursor = rel.trie_cursor(cols).expect("flushed index");
                let ctx = format!("{name} {cols:?}");
                replay(&mut cursor, &model, &script, &targets, &prefixes, &ctx);
            }
        }
    }
}
