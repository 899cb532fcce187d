//! Non-blocking monotonic aggregation (Section 5, "Monotonic Aggregation").
//!
//! Aggregate functions are stateful record-level operators: every time a rule
//! with an aggregation matches, the group's state is updated and an *updated*
//! aggregate value is emitted immediately (no blocking), so downstream
//! filters see a monotonically improving stream of values whose final element
//! is the true aggregate. Contributor variables implement the paper's
//! windowing: for each distinct contributor tuple only its best (largest for
//! increasing functions, smallest for decreasing ones) argument value enters
//! the aggregate.
//!
//! A **sink** aggregate has no downstream filter to feed, so it does not
//! stream: when no filter or check reads its head and its rule has the shape
//! [`crate::plan::folds_to_final`] accepts (`mcount`, `mmax`, `mmin` or
//! `munion`, only growing thresholds after it), the pipeline skips it during
//! the sweeps and runs it once after the fixpoint. That pass folds every
//! match into the state, then emits once per group, from the group's first
//! match, whose re-fold reads the final value: folding a member twice leaves
//! these four aggregates unchanged.
//!
//! The state is keyed on interned ids, like the join that feeds it: a group
//! is the [`ValueId`]s of its group-by slots, and `mcount` / `munion` keep
//! their distinct members as ids (equal values intern to equal ids, so the
//! counts are those of the values). Only what the result needs is resolved:
//! the numeric argument of `msum`, `mprod`, `mmin` and `mmax`, the
//! contributor tuple of `msum` / `mprod` (their windowing map iterates in
//! value order, which fixes the floating-point summation order), and a new
//! `munion` member.

use std::collections::{BTreeMap, BTreeSet};
use vadalog_model::fxhash::{FxHashMap, FxHashSet};
use vadalog_model::prelude::*;

/// Running state of one aggregation occurrence: the groups it has seen.
#[derive(Clone, Debug, Default)]
pub struct AggregateState {
    /// Group key → group number (index into `groups`).
    index: FxHashMap<Box<[ValueId]>, usize>,
    groups: Vec<Group>,
    /// `(group number, member)` pairs: the distinct ids of `mcount` over
    /// single ids and of `munion`, for all groups in one table.
    members: FxHashSet<(usize, ValueId)>,
}

/// One group's state; the variant follows the occurrence's function.
#[derive(Clone, Debug)]
enum Group {
    /// `mcount` over single ids (the argument, or a sole contributor): the
    /// number of the group's pairs in `members`.
    Count(usize),
    /// `mcount` over contributor tuples.
    Tuples(FxHashSet<Box<[ValueId]>>),
    /// `msum` / `mprod`: contributor tuple → best argument seen.
    Window(BTreeMap<Vec<Value>, f64>),
    /// `mmin` / `mmax`: the extreme so far.
    Extreme(f64),
    /// `munion`: the member values and the id of the set last returned
    /// (`None` until it is asked for, and again after a new member).
    Union {
        values: BTreeSet<Value>,
        set: Option<ValueId>,
    },
}

impl AggregateState {
    /// Create an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of `group`, whose state `init` creates on first sight.
    fn group(&mut self, group: &[ValueId], init: impl FnOnce() -> Group) -> usize {
        if let Some(&g) = self.index.get(group) {
            return g;
        }
        self.index.insert(group.into(), self.groups.len());
        self.groups.push(init());
        self.groups.len() - 1
    }

    /// `mcount`: fold `key` — the argument's id, or the contributor tuple's
    /// ids — into `group` and return its number of distinct keys.
    pub fn count(&mut self, group: &[ValueId], key: &[ValueId]) -> usize {
        let init = || match key {
            [_] => Group::Count(0),
            _ => Group::Tuples(FxHashSet::default()),
        };
        let g = self.group(group, init);
        match (&mut self.groups[g], key) {
            (Group::Count(n), [id]) => {
                if self.members.insert((g, *id)) {
                    *n += 1;
                }
                *n
            }
            (Group::Tuples(tuples), _) => {
                if !tuples.contains(key) {
                    tuples.insert(key.into());
                }
                tuples.len()
            }
            (other, _) => unreachable!("mcount on a {other:?} group"),
        }
    }

    /// `msum` / `mprod` / `mmin` / `mmax`: fold the numeric argument `x`
    /// into `group` and return the updated aggregate. For `msum` and
    /// `mprod` each `contributors` tuple (empty without windowing) counts
    /// with its largest argument, and the result combines the tuples in
    /// value order.
    pub fn fold(
        &mut self,
        func: AggFunc,
        group: &[ValueId],
        contributors: Vec<Value>,
        x: f64,
    ) -> f64 {
        let init = || match func {
            AggFunc::MSum | AggFunc::MProd => Group::Window(BTreeMap::new()),
            _ => Group::Extreme(x),
        };
        let g = self.group(group, init);
        match (&mut self.groups[g], func) {
            (Group::Window(window), AggFunc::MSum | AggFunc::MProd) => {
                let best = window.entry(contributors).or_insert(x);
                if x > *best {
                    *best = x;
                }
                if func == AggFunc::MSum {
                    window.values().sum()
                } else {
                    window.values().product()
                }
            }
            (Group::Extreme(m), AggFunc::MMin) => {
                *m = m.min(x);
                *m
            }
            (Group::Extreme(m), AggFunc::MMax) => {
                *m = m.max(x);
                *m
            }
            (other, _) => unreachable!("{func} on a {other:?} group"),
        }
    }

    /// `munion`: add `member` to `group`'s set. `value` resolves the member
    /// and runs only when it is new.
    pub fn add_member(
        &mut self,
        group: &[ValueId],
        member: ValueId,
        value: impl FnOnce() -> Value,
    ) {
        self.add(group, member, value);
    }

    /// `munion`: add `member` to `group`'s set and return the interned set.
    /// The set is interned when it changed since it was last returned; a
    /// member already present returns the same id.
    pub fn union(
        &mut self,
        group: &[ValueId],
        member: ValueId,
        value: impl FnOnce() -> Value,
    ) -> ValueId {
        let g = self.add(group, member, value);
        let Group::Union { values, set } = &mut self.groups[g] else {
            unreachable!("munion on a non-union group")
        };
        *set.get_or_insert_with(|| intern_value(&Value::Set(values.clone())))
    }

    /// Add a `munion` member and return the group's number; a new member
    /// drops the group's interned set.
    fn add(&mut self, group: &[ValueId], member: ValueId, value: impl FnOnce() -> Value) -> usize {
        let init = || Group::Union {
            values: BTreeSet::new(),
            set: None,
        };
        let g = self.group(group, init);
        let Group::Union { values, set } = &mut self.groups[g] else {
            unreachable!("munion on a non-union group")
        };
        if self.members.insert((g, member)) {
            values.insert(value());
            *set = None;
        }
        g
    }

    /// The number of groups folded so far.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(values: &[Value]) -> Vec<ValueId> {
        values.iter().map(intern_value).collect()
    }

    #[test]
    fn example10_msum_with_contributor_windowing() {
        // P(1,2,5). P(1,2,3). P(1,3,7). P(2,4,2). P(2,4,3). P(2,5,1).
        // P(x, y, w), j = msum(w, <y>) -> Q(x, j).
        let mut state = AggregateState::new();
        let g1 = ids(&[Value::Int(1)]);
        let g2 = ids(&[Value::Int(2)]);
        let mut upd =
            |g: &[ValueId], y: i64, w: f64| state.fold(AggFunc::MSum, g, vec![Value::Int(y)], w);
        assert_eq!(upd(&g1, 2, 5.0), 5.0);
        // same contributor 2 with a smaller value: max(5, 3) keeps 5
        assert_eq!(upd(&g1, 2, 3.0), 5.0);
        // new contributor 3: sum becomes 12
        assert_eq!(upd(&g1, 3, 7.0), 12.0);
        // second group
        assert_eq!(upd(&g2, 4, 2.0), 2.0);
        assert_eq!(upd(&g2, 4, 3.0), 3.0);
        assert_eq!(upd(&g2, 5, 1.0), 4.0);
    }

    #[test]
    fn msum_order_independence_of_final_value() {
        // The intermediate values depend on the order, the final one must not.
        let rows = [(2, 5.0), (2, 3.0), (3, 7.0)];
        let g = ids(&[Value::Int(1)]);
        let run = |order: &mut dyn Iterator<Item = &(i64, f64)>| {
            let mut state = AggregateState::new();
            let mut last = 0.0;
            for (y, w) in order {
                last = state.fold(AggFunc::MSum, &g, vec![Value::Int(*y)], *w);
            }
            last
        };
        assert_eq!(run(&mut rows.iter()), run(&mut rows.iter().rev()));
    }

    #[test]
    fn mcount_counts_distinct_contributions() {
        let mut state = AggregateState::new();
        let g = ids(&[Value::str("acme")]);
        let mut last = 0;
        for p in ["alice", "bob", "alice", "carol"] {
            last = state.count(&g, &[intern_value(&Value::str(p))]);
        }
        assert_eq!(last, 3);
        // Int(2) and Float(2.0) are one value, so one member.
        let mut numbers = AggregateState::new();
        numbers.count(&g, &ids(&[Value::Int(2)]));
        assert_eq!(numbers.count(&g, &ids(&[Value::Float(2.0)])), 1);
    }

    #[test]
    fn mcount_counts_distinct_contributor_tuples() {
        let mut state = AggregateState::new();
        let g = ids(&[Value::str("acme")]);
        let pair = |a: i64, b: i64| ids(&[Value::Int(a), Value::Int(b)]);
        assert_eq!(state.count(&g, &pair(1, 2)), 1);
        assert_eq!(state.count(&g, &pair(1, 2)), 1);
        assert_eq!(state.count(&g, &pair(2, 1)), 2);
    }

    #[test]
    fn mmin_and_mmax_track_extremes() {
        let mut state = AggregateState::new();
        state.fold(AggFunc::MMax, &[], vec![], 3.0);
        assert_eq!(state.fold(AggFunc::MMax, &[], vec![], 1.0), 3.0);

        let mut state2 = AggregateState::new();
        state2.fold(AggFunc::MMin, &[], vec![], 3.0);
        assert_eq!(state2.fold(AggFunc::MMin, &[], vec![], 1.0), 1.0);
    }

    #[test]
    fn munion_accumulates_sets_and_reuses_the_last_id() {
        let mut state = AggregateState::new();
        let g = ids(&[Value::str("x")]);
        let mut add = |p: &str| {
            let v = Value::str(p);
            state.union(&g, intern_value(&v), || v)
        };
        add("p1");
        let both = add("p2");
        assert_eq!(add("p1"), both, "an old member re-emits the same set");
        match resolve_value(both) {
            Value::Set(s) => assert_eq!(s.len(), 2),
            other => panic!("expected set, got {other}"),
        }
    }
}
