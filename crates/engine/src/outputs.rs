//! `@output` facts as views over a run's final store.
//!
//! A run ends with its instance in one [`FactStore`]. What a caller sees of
//! each sink predicate is an [`OutputFacts`]: the `FactId`s the reasoner's
//! post-processing keeps (final-aggregate reduction, certain-answer
//! filtering), chosen at id level when the run ends, over a shared handle
//! on that store. No row becomes a [`Fact`] until a caller reads it, the
//! way the paper's pull-based engine materialises nothing for a consumer
//! that does not read it.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use vadalog_model::prelude::*;
use vadalog_storage::{FactId, FactStore, Relation};

use crate::plan::AccessPlan;

/// The rows of one output predicate, as a view over a run's final store.
///
/// The view holds the `FactId`s it selects and an `Arc` on the store, so it
/// **keeps that store alive** for as long as it (or a clone) lives, however
/// little of it the view selects. [`OutputFacts::len`] and
/// [`OutputFacts::rows`] read ids only. The first read of `&Fact`s
/// ([`OutputFacts::iter`], [`OutputFacts::as_slice`], `for f in &view`)
/// resolves the whole selection once and keeps it; a clone copies whatever
/// has been resolved. Equality compares the resolved facts.
#[derive(Clone)]
pub struct OutputFacts {
    store: Arc<FactStore>,
    predicate: Sym,
    selection: Selection,
    facts: OnceLock<Vec<Fact>>,
}

/// Which rows of its relation a view selects.
#[derive(Clone)]
enum Selection {
    /// Every row, in `FactId` order.
    All,
    /// These rows, in this order.
    Ids(Arc<[FactId]>),
}

impl OutputFacts {
    fn new(store: &Arc<FactStore>, predicate: Sym, selection: Selection) -> OutputFacts {
        OutputFacts {
            store: Arc::clone(store),
            predicate,
            selection,
            facts: OnceLock::new(),
        }
    }

    /// The store the view reads.
    pub(crate) fn store(&self) -> &FactStore {
        &self.store
    }

    /// Number of facts (resolves nothing).
    pub fn len(&self) -> usize {
        match &self.selection {
            Selection::All => self.store.count(self.predicate),
            Selection::Ids(ids) => ids.len(),
        }
    }

    /// Is the output empty (resolves nothing)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selected rows as interned ids, in output order (resolves
    /// nothing).
    pub fn rows(&self) -> impl Iterator<Item = &[ValueId]> + '_ {
        let relation = self.store.relation(self.predicate);
        let (all, picked) = match &self.selection {
            Selection::All => (relation.map(Relation::iter_rows), None),
            Selection::Ids(ids) => (None, relation.map(|r| ids.iter().map(|id| r.row(*id)))),
        };
        all.into_iter()
            .flatten()
            .chain(picked.into_iter().flatten())
    }

    /// The facts, resolved on the first call and kept.
    pub fn as_slice(&self) -> &[Fact] {
        self.facts.get_or_init(|| self.resolve())
    }

    /// Iterate the facts (resolves them on first use, see
    /// [`OutputFacts::as_slice`]).
    pub fn iter(&self) -> std::slice::Iter<'_, Fact> {
        self.as_slice().iter()
    }

    /// An owned copy of the facts: a clone of the resolved facts if a read
    /// already resolved them, a fresh resolution otherwise (which the view
    /// does not keep).
    pub fn to_vec(&self) -> Vec<Fact> {
        match self.facts.get() {
            Some(facts) => facts.clone(),
            None => self.resolve(),
        }
    }

    fn resolve(&self) -> Vec<Fact> {
        let mut facts = Vec::with_capacity(self.len());
        facts.extend(
            self.rows()
                .map(|row| Fact::new_sym(self.predicate, resolve_values(row))),
        );
        facts
    }
}

impl<'a> IntoIterator for &'a OutputFacts {
    type Item = &'a Fact;
    type IntoIter = std::slice::Iter<'a, Fact>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for OutputFacts {
    fn eq(&self, other: &OutputFacts) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for OutputFacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The `@output` predicates of a finished run, post-processed at id level
/// ([`kept_rows`]), as views over `store`. Shared by
/// [`crate::Reasoner::reason`] and [`crate::QuerySession`].
pub(crate) fn collect_outputs(
    compiled: &Program,
    plan: &AccessPlan,
    store: &Arc<FactStore>,
) -> BTreeMap<Sym, OutputFacts> {
    let shapes = aggregate_output_shape(plan);
    let mut outputs = BTreeMap::new();
    for sink in &plan.sinks {
        let selection = match store
            .relation(*sink)
            .and_then(|relation| kept_rows(compiled, &shapes, *sink, relation))
        {
            Some(ids) => Selection::Ids(ids.into()),
            None => Selection::All,
        };
        outputs.insert(*sink, OutputFacts::new(store, *sink, selection));
    }
    outputs
}

/// The rows of `predicate` its post-processing keeps, in `FactId` order, or
/// `None` when it keeps them all: for a predicate an aggregate writes, the
/// final row of each group ([`final_per_group`]); for one annotated
/// `@post("P", "certain")`, only rows free of labelled nulls. The one
/// selection behind both [`collect_outputs`] and [`query_answers`], so a
/// query answers what a run outputs.
fn kept_rows(
    compiled: &Program,
    shapes: &BTreeMap<Sym, AggregateShape>,
    predicate: Sym,
    relation: &Relation,
) -> Option<Vec<FactId>> {
    let shape = shapes.get(&predicate);
    let certain = compiled.annotations.iter().any(|a| {
        a.kind == AnnotationKind::Post
            && a.predicate == predicate
            && a.args.iter().any(|s| s == "certain")
    });
    if shape.is_none() && !certain {
        return None;
    }
    let mut ids = match shape {
        Some(shape) => final_per_group(relation, shape),
        None => (0..relation.len() as u32).map(FactId).collect(),
    };
    if certain {
        ids.retain(|id| relation.row(*id).iter().all(|v| v.is_ground()));
    }
    Some(ids)
}

/// The same views over a store of their own that holds just the rows they
/// select, in view order, with no index: what a cone-cache entry keeps, so
/// that it does not keep the whole run store (magic predicates, indexes)
/// alive. Equal to `outputs` fact for fact.
pub(crate) fn detached(outputs: &BTreeMap<Sym, OutputFacts>) -> BTreeMap<Sym, OutputFacts> {
    let mut store = FactStore::new();
    for (predicate, view) in outputs {
        for row in view.rows() {
            store.insert_row(*predicate, row);
        }
    }
    let store = Arc::new(store);
    outputs
        .keys()
        .map(|p| (*p, OutputFacts::new(&store, *p, Selection::All)))
        .collect()
}

/// The view of `predicate`'s rows `ids`, in that order: a query's answers,
/// listed among a session run's outputs.
pub(crate) fn answer_view(store: &Arc<FactStore>, predicate: Sym, ids: Vec<FactId>) -> OutputFacts {
    OutputFacts::new(store, predicate, Selection::Ids(ids.into()))
}

/// The rows answering `query` over a finished run of `compiled`: what
/// [`collect_outputs`] would select for its predicate ([`kept_rows`]),
/// filtered by the query, in `FactId` order. Takes the store mutably to
/// build the probe index, so it runs before the store is shared.
pub(crate) fn query_answers(
    store: &mut FactStore,
    compiled: &Program,
    plan: &AccessPlan,
    query: &Atom,
) -> Vec<FactId> {
    let mut answers = matching_rows(store, query);
    let kept = store.relation(query.predicate).and_then(|relation| {
        kept_rows(
            compiled,
            &aggregate_output_shape(plan),
            query.predicate,
            relation,
        )
    });
    if let Some(kept) = kept {
        let kept: HashSet<FactId> = kept.into_iter().collect();
        answers.retain(|id| kept.contains(id));
    }
    answers
}

/// Exactly the rows of `query.predicate` that match the query atom, via an
/// **id-level probe on the bound argument positions**: the constant
/// columns are probed as a composite index prefix (built on demand over
/// the result store), and repeated query variables are enforced as id
/// equalities. Nothing is resolved.
fn matching_rows(store: &mut FactStore, query: &Atom) -> Vec<FactId> {
    // Bound columns and their interned ids. A constant that was never
    // interned cannot occur in any stored row.
    let mut cols: Vec<usize> = Vec::new();
    let mut key: Vec<ValueId> = Vec::new();
    for (col, term) in query.terms.iter().enumerate() {
        if let Term::Const(c) = term {
            match find_value_id(c) {
                Some(id) => {
                    cols.push(col);
                    key.push(id);
                }
                None => return Vec::new(),
            }
        }
    }
    // Positions sharing one query variable must carry equal ids.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut by_var: BTreeMap<Var, Vec<usize>> = BTreeMap::new();
        for (col, term) in query.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                by_var.entry(*v).or_default().push(col);
            }
        }
        groups.extend(by_var.into_values().filter(|g| g.len() > 1));
    }
    if store.relation(query.predicate).is_none() {
        return Vec::new();
    }
    let arity = query.arity();
    let ids: Vec<FactId> = if cols.is_empty() {
        let rel = store.relation(query.predicate).expect("checked above");
        (0..rel.len() as u32).map(FactId).collect()
    } else {
        store.relation_mut(query.predicate).ensure_index(&cols);
        let rel = store.relation(query.predicate).expect("checked above");
        let mut scratch = Vec::new();
        let probe = rel
            .probe_if_indexed(&cols, &key, None, &mut scratch)
            .expect("index was just built");
        probe.as_slice(&scratch).to_vec()
    };
    let rel = store.relation(query.predicate).expect("checked above");
    ids.into_iter()
        .filter(|id| {
            let row = rel.row(*id);
            row.len() == arity
                && cols.iter().zip(&key).all(|(c, k)| row[*c] == *k)
                && groups
                    .iter()
                    .all(|g| g[1..].iter().all(|i| row[*i] == row[g[0]]))
        })
        .collect()
}

/// Where a sink aggregate's head keeps its groups and its value: the group
/// positions, the aggregate position and whether the value grows
/// (`false` for `mmin`).
type AggregateShape = (Vec<usize>, usize, bool);

/// For every sink predicate written by an aggregate rule whose aggregate
/// variable appears in the head, work out its [`AggregateShape`].
fn aggregate_output_shape(plan: &AccessPlan) -> BTreeMap<Sym, AggregateShape> {
    let mut out = BTreeMap::new();
    for filter in &plan.filters {
        if !filter.has_aggregation {
            continue;
        }
        for assignment in filter.rule.assignments() {
            let Some(agg) = assignment.aggregate() else {
                continue;
            };
            for head in filter.rule.head_atoms() {
                if let Some(agg_position) = head
                    .terms
                    .iter()
                    .position(|t| t.as_var() == Some(assignment.var))
                {
                    let group_positions: Vec<usize> = (0..head.terms.len())
                        .filter(|i| *i != agg_position)
                        .collect();
                    let increasing = !matches!(agg.func, AggFunc::MMin);
                    out.insert(head.predicate, (group_positions, agg_position, increasing));
                }
            }
        }
    }
    out
}

/// For each group, the row carrying the final (best) aggregate value: the
/// first row, in `FactId` order, whose value no later row beats. Groups
/// come in the order of their resolved key values. Only the aggregate
/// values of rows that could beat a group's best, and each group's key
/// once, are resolved.
fn final_per_group(relation: &Relation, shape: &AggregateShape) -> Vec<FactId> {
    let (group_positions, agg_position, increasing) = shape;
    let mut best: HashMap<Vec<ValueId>, (FactId, ValueId)> = HashMap::new();
    for (i, row) in relation.iter_rows().enumerate() {
        let Some(&value) = row.get(*agg_position) else {
            continue;
        };
        let key: Vec<ValueId> = group_positions
            .iter()
            .filter_map(|p| row.get(*p).copied())
            .collect();
        let id = FactId(i as u32);
        match best.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert((id, value));
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let old = slot.get().1;
                if value != old && beats(&resolve_value(value), &resolve_value(old), *increasing) {
                    slot.insert((id, value));
                }
            }
        }
    }
    let mut groups: Vec<(Vec<Value>, FactId)> = best
        .into_iter()
        .map(|(key, (id, _))| (resolve_values(&key), id))
        .collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    groups.into_iter().map(|(_, id)| id).collect()
}

/// Does aggregate value `new` replace `old` as its group's final value?
/// Sets (`munion`) grow monotonically under ⊆, so a larger set is later;
/// every other aggregate compares by value.
fn beats(new: &Value, old: &Value, increasing: bool) -> bool {
    match (new, old) {
        (Value::Set(a), Value::Set(b)) => {
            if increasing {
                a.len() > b.len()
            } else {
                a.len() < b.len()
            }
        }
        _ => {
            if increasing {
                new > old
            } else {
                new < old
            }
        }
    }
}
