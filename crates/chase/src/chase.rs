//! A chase engine driven by a pluggable termination strategy (Algorithm 2 of
//! the paper, with the naïve step replaced by breadth-first rounds).
//!
//! The engine applies rules in rounds: in each round every rule is matched
//! against the current instance (the paper's round-robin, breadth-first
//! discipline), candidate facts are passed through the termination strategy,
//! and admitted facts are added. The chase stops when a round admits nothing
//! or a configured cap is reached.

use std::collections::{BTreeSet, HashSet};
use vadalog_analysis::{analyze_program, ProgramWardedness, RuleKind};
use vadalog_model::prelude::*;
use vadalog_storage::{ActiveDomain, FactStore};

use crate::strategy::{StrategyStats, TerminationStrategy};

/// Which chase variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaseVariant {
    /// Oblivious chase: a rule fires whenever its body matches (termination
    /// is entirely the strategy's job).
    Oblivious,
    /// Restricted chase: a rule only fires if its head is not already
    /// satisfied by an existing fact (per-step homomorphism check), the
    /// behaviour of back-end based chase systems discussed in Section 7.
    Restricted,
}

/// Options controlling a chase run.
#[derive(Clone, Debug)]
pub struct ChaseOptions {
    /// The chase variant.
    pub variant: ChaseVariant,
    /// Maximum number of rounds (None = unlimited).
    pub max_rounds: Option<usize>,
    /// Maximum number of facts in the instance (None = unlimited).
    pub max_facts: Option<usize>,
}

impl Default for ChaseOptions {
    fn default() -> Self {
        ChaseOptions {
            variant: ChaseVariant::Oblivious,
            max_rounds: None,
            max_facts: Some(5_000_000),
        }
    }
}

/// Statistics of a chase run.
#[derive(Clone, Copy, Default, Debug)]
pub struct ChaseStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Facts admitted by the strategy (beyond the initial database).
    pub facts_generated: usize,
    /// Candidate facts suppressed by the strategy.
    pub facts_suppressed: usize,
    /// Number of rule applications attempted.
    pub rule_applications: usize,
    /// Labelled nulls invented.
    pub nulls_invented: u64,
    /// Rules skipped because they contain aggregations (handled only by the
    /// streaming engine, not by the plain chase).
    pub aggregate_rules_skipped: usize,
    /// Termination-strategy statistics.
    pub strategy: StrategyStats,
}

/// The result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The final instance.
    pub store: FactStore,
    /// Run statistics.
    pub stats: ChaseStats,
    /// Violated negative constraints / EGDs, as human-readable messages.
    pub violations: Vec<String>,
}

impl ChaseResult {
    /// Facts of one predicate, convenience accessor.
    pub fn facts_of(&self, predicate: &str) -> Vec<Fact> {
        self.store.facts_of(intern(predicate))
    }
}

/// Run the chase of `program` under the given termination strategy.
pub fn run_chase(
    program: &Program,
    strategy: &mut dyn TerminationStrategy,
    options: &ChaseOptions,
) -> ChaseResult {
    let analysis = analyze_program(program);
    let mut store = FactStore::new();
    let mut stats = ChaseStats::default();
    let mut violations = Vec::new();
    let nulls = NullFactory::new();

    // Load the extensional database.
    for f in &program.facts {
        store.insert(f.clone());
        strategy.register_base(f);
    }
    // Populate the active-domain predicate if the program refers to it.
    let dom_sym = intern(vadalog_rewrite_dom_name());
    if program
        .rules
        .iter()
        .any(|r| r.body_predicates().contains(&dom_sym))
    {
        let dom = ActiveDomain::from_facts(program.facts.iter());
        for f in dom.to_facts(&dom_sym.as_str()) {
            store.insert(f.clone());
            strategy.register_base(&f);
        }
    }

    let max_rounds = options.max_rounds.unwrap_or(usize::MAX);
    let max_facts = options.max_facts.unwrap_or(usize::MAX);

    // Each chase trigger (rule + body match) fires at most once, as in the
    // standard chase-step definition; re-firing the same trigger would only
    // mint pointless fresh nulls.
    let mut fired: HashSet<(u32, String)> = HashSet::new();
    // One probe-scratch set for the whole run: every match call reuses it.
    let mut match_bufs = MatchBuffers::default();

    loop {
        if stats.rounds >= max_rounds || store.len() >= max_facts {
            break;
        }
        stats.rounds += 1;
        let mut new_facts: Vec<Fact> = Vec::new();

        for (rule_idx, rule) in program.rules.iter().enumerate() {
            if rule.has_aggregation() {
                if stats.rounds == 1 {
                    stats.aggregate_rules_skipped += 1;
                }
                continue;
            }
            let matches = find_matches_with(rule, &store, &mut match_bufs);
            for m in matches {
                let trigger = (rule_idx as u32, m.to_string());
                if !fired.insert(trigger) {
                    continue;
                }
                stats.rule_applications += 1;
                match &rule.head {
                    RuleHead::Falsum => {
                        violations.push(format!("constraint violated: {rule} under {m}"));
                    }
                    RuleHead::Equality(a, b) => {
                        check_egd(rule, a, b, &m, &mut violations);
                    }
                    RuleHead::Atoms(_) => {
                        apply_tgd(
                            rule,
                            rule_idx as u32,
                            &m,
                            &analysis,
                            &nulls,
                            strategy,
                            &store,
                            options.variant,
                            &mut new_facts,
                            &mut stats,
                        );
                    }
                }
            }
        }

        if new_facts.is_empty() {
            break;
        }
        for f in new_facts {
            store.insert(f);
        }
    }

    stats.nulls_invented = nulls.produced();
    stats.strategy = strategy.stats();
    ChaseResult {
        store,
        stats,
        violations,
    }
}

fn vadalog_rewrite_dom_name() -> &'static str {
    // Kept as a function to avoid a dependency cycle on vadalog-rewrite; the
    // name is part of the cross-crate contract (see rewrite::DOM_PREDICATE).
    "Dom"
}

/// Reusable buffers for [`find_matches`]: the composite-probe scratch
/// ([`vadalog_storage::ProbeBuffers`]: probe columns, key and postings) plus the match undo
/// trail. A caller — a chase round, or the engine's constraint checks —
/// holds a single `MatchBuffers` across any number of calls, so the probe
/// path allocates nothing in the steady state.
#[derive(Default, Debug)]
pub struct MatchBuffers {
    probe: vadalog_storage::ProbeBuffers,
    trail: Vec<usize>,
}

/// Find all substitutions satisfying the body of `rule` in `store`
/// (positive atoms joined left-to-right, then negated atoms, conditions and
/// non-aggregate assignments).
///
/// The join runs at the id level against **borrowed** relation rows — no
/// fact is materialised until a binding has survived the positive join and
/// the negation checks. Sorted-run indices are used opportunistically: the
/// probe prefers one composite probe over all determined columns (constants
/// and already-bound variables), then any single determined column's index,
/// and falls back to a scan when neither index exists. Runs on the calling
/// thread.
pub fn find_matches(rule: &Rule, store: &FactStore) -> Vec<Substitution> {
    find_matches_with(rule, store, &mut MatchBuffers::default())
}

/// [`find_matches`] with caller-owned reusable buffers: callers issuing many
/// matches (the chase round loop, the engine's constraint checks) hold one
/// [`MatchBuffers`] across all calls.
pub fn find_matches_with(
    rule: &Rule,
    store: &FactStore,
    bufs: &mut MatchBuffers,
) -> Vec<Substitution> {
    find_matches_shard(rule, store, 0, 1, bufs)
}

/// The matches of [`find_matches_with`] whose first positive atom binds to
/// shard `shard` of `shards` contiguous, near-equal slices of that atom's
/// candidate rows. Concatenating the results of shards `0..shards` in order
/// reproduces the unsharded result exactly, contents and order, because
/// every extension of a first-atom binding stays contiguous. Callers with
/// worker threads of their own (the engine's constraint checks) run the
/// shards in parallel.
pub fn find_matches_shard(
    rule: &Rule,
    store: &FactStore,
    shard: usize,
    shards: usize,
    bufs: &mut MatchBuffers,
) -> Vec<Substitution> {
    use vadalog_storage::{materialise, number_variables, undo_to, FactId, Relation, RowPattern};

    let body_atoms = rule.body_atoms();
    let negated_atoms = rule.negated_atoms();
    let all_atoms: Vec<&Atom> = body_atoms
        .iter()
        .chain(negated_atoms.iter())
        .copied()
        .collect();
    let slots = number_variables(&all_atoms);
    let patterns: Vec<RowPattern> = body_atoms
        .iter()
        .map(|a| RowPattern::compile(a, &slots))
        .collect();
    let neg_patterns: Vec<RowPattern> = negated_atoms
        .iter()
        .map(|a| RowPattern::compile(a, &slots))
        .collect();
    // Resolve every relation once. A missing positive relation means no
    // matches; missing negated relations are trivially satisfied.
    let mut rels: Vec<&Relation> = Vec::with_capacity(patterns.len());
    for pattern in &patterns {
        match store.relation(pattern.predicate) {
            Some(rel) => rels.push(rel),
            None => return Vec::new(),
        }
    }
    // A body without positive atoms has one (empty) first binding: shard 0's.
    if patterns.is_empty() && shard > 0 {
        return Vec::new();
    }

    // Positive atoms left-to-right, breadth-first: every binding so far is
    // extended through the next atom, in enumeration order. The first atom
    // reads only its shard of the candidate rows.
    let window = |len: usize, first: bool| {
        if first {
            len * shard / shards.max(1)..len * (shard + 1) / shards.max(1)
        } else {
            0..len
        }
    };
    let mut bindings: Vec<Vec<Option<ValueId>>> = vec![vec![None; slots.len()]];
    for (idx, (pattern, rel)) in patterns.iter().zip(&rels).enumerate() {
        if bindings.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for binding in &mut bindings {
            // Composite probe over every determined column, then singles.
            let MatchBuffers { probe, trail } = &mut *bufs;
            match pattern.probe_determined(rel, binding, probe) {
                Some(hit) => {
                    let ids = hit.as_slice(&probe.scratch);
                    for id in &ids[window(ids.len(), idx == 0)] {
                        if pattern.match_row(rel.row(*id), binding, trail) {
                            next.push(binding.clone());
                            undo_to(binding, trail, 0);
                        }
                    }
                }
                None => {
                    for i in window(rel.len(), idx == 0) {
                        if pattern.match_row(rel.row(FactId(i as u32)), binding, trail) {
                            next.push(binding.clone());
                            undo_to(binding, trail, 0);
                        }
                    }
                }
            }
        }
        bindings = next;
    }
    // Negated atoms: keep bindings with no matching row.
    for pattern in &neg_patterns {
        if bindings.is_empty() {
            break;
        }
        let Some(rel) = store.relation(pattern.predicate) else {
            continue;
        };
        bindings.retain_mut(|binding| !pattern.any_match_with(rel, binding, &mut bufs.probe));
    }

    // Materialise substitutions at the boundary.
    let mut results: Vec<Substitution> = bindings.iter().map(|b| materialise(&slots, b)).collect();
    // Assignments (non-aggregate) extend the substitution; conditions filter.
    for literal in &rule.body {
        match literal {
            Literal::Assignment(asg) if !asg.expr.contains_aggregate() => {
                let mut next = Vec::new();
                for subst in results.into_iter() {
                    if let Ok(value) = asg.expr.eval(&subst) {
                        let mut s = subst;
                        s.bind(asg.var, value);
                        next.push(s);
                    }
                }
                results = next;
            }
            Literal::Condition(cond) => {
                results.retain(
                    |subst| match (cond.left.eval(subst), cond.right.eval(subst)) {
                        (Ok(l), Ok(r)) => cond.op.eval(&l, &r),
                        _ => false,
                    },
                );
            }
            _ => {}
        }
    }
    results
}

#[allow(clippy::too_many_arguments)]
fn apply_tgd(
    rule: &Rule,
    rule_id: u32,
    subst: &Substitution,
    analysis: &ProgramWardedness,
    nulls: &NullFactory,
    strategy: &mut dyn TerminationStrategy,
    store: &FactStore,
    variant: ChaseVariant,
    new_facts: &mut Vec<Fact>,
    stats: &mut ChaseStats,
) {
    let rule_info = &analysis.rules[rule_id as usize];
    let kind = rule_info.kind;

    // Restricted chase: skip if the head is already satisfied.
    if variant == ChaseVariant::Restricted && head_satisfied(rule, subst, store) {
        return;
    }

    // Invent one fresh null per existential variable for this application.
    let mut extended = subst.clone();
    let existentials: BTreeSet<Var> = rule.existential_variables();
    for v in &existentials {
        extended.bind(*v, nulls.fresh_value());
    }

    // Identify the parents the termination strategy needs.
    let body_atoms = rule.body_atoms();
    let linear_parent = if kind == RuleKind::Linear {
        body_atoms.first().and_then(|a| a.apply(subst))
    } else {
        None
    };
    let ward_parent = if kind == RuleKind::Warded {
        rule_info
            .ward
            .and_then(|w| body_atoms.get(w))
            .and_then(|a| a.apply(subst))
    } else {
        None
    };

    for head in rule.head_atoms() {
        if let Some(fact) = head.apply(&extended) {
            let admitted = strategy.admit_fact(
                &fact,
                rule_id,
                kind,
                linear_parent.as_ref(),
                ward_parent.as_ref(),
            );
            if admitted {
                stats.facts_generated += 1;
                new_facts.push(fact);
            } else {
                stats.facts_suppressed += 1;
            }
        }
    }
}

/// Is the (single-atom) head of `rule` already satisfied under `subst`,
/// treating existential positions as wildcards? This is the per-step
/// homomorphism check of the restricted chase, run against borrowed rows:
/// each required position is interned once, then candidate rows are compared
/// id-by-id without materialising any fact.
fn head_satisfied(rule: &Rule, subst: &Substitution, store: &FactStore) -> bool {
    let existentials = rule.existential_variables();
    rule.head_atoms().iter().all(|head| {
        let Some(rel) = store.relation(head.predicate) else {
            return false;
        };
        // `None` = wildcard (existential position); a constant or bound value
        // that was never interned cannot occur in any stored row.
        let mut required: Vec<Option<ValueId>> = Vec::with_capacity(head.terms.len());
        for t in &head.terms {
            match t {
                Term::Var(var) if existentials.contains(var) => required.push(None),
                Term::Const(c) => match find_value_id(c) {
                    Some(id) => required.push(Some(id)),
                    None => return false,
                },
                Term::Var(var) => match subst.get(*var).and_then(find_value_id) {
                    Some(id) => required.push(Some(id)),
                    None => return false,
                },
            }
        }
        rel.iter_rows().any(|row| {
            row.len() == required.len()
                && required
                    .iter()
                    .zip(row.iter())
                    .all(|(req, v)| req.is_none_or(|id| id == *v))
        })
    })
}

fn check_egd(rule: &Rule, a: &Term, b: &Term, subst: &Substitution, violations: &mut Vec<String>) {
    let resolve = |t: &Term| match t {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => subst.get(*v).cloned(),
    };
    if let (Some(left), Some(right)) = (resolve(a), resolve(b)) {
        // Under the Dom(*) discipline EGDs are only checked on ground values.
        if left.is_ground() && right.is_ground() && left != right {
            violations.push(format!("egd violated: {rule} binds {left} ≠ {right}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{ExactDedupStrategy, TrivialIsoStrategy, WardedStrategy};
    use vadalog_parser::parse_program;

    fn warded_chase(src: &str) -> ChaseResult {
        let program = parse_program(src).unwrap();
        let mut strategy = WardedStrategy::new();
        run_chase(&program, &mut strategy, &ChaseOptions::default())
    }

    #[test]
    fn datalog_transitive_closure() {
        let result = warded_chase(
            "Own(\"a\", \"b\", 0.6). Own(\"b\", \"c\", 0.7). Own(\"c\", \"d\", 0.2).\n\
             Own(x, y, w), w > 0.5 -> Control(x, y).\n\
             Control(x, y), Control(y, z) -> Control(x, z).",
        );
        let control = result.facts_of("Control");
        assert_eq!(control.len(), 3); // a->b, b->c, a->c (c->d is only 0.2)
        assert!(result.violations.is_empty());
    }

    #[test]
    fn example3_universal_answer_with_nulls() {
        // Example 3 + its database D from Section 2.1.
        let result = warded_chase(
            "Company(a). Company(b). Company(c).\n\
             Control(a, b). Control(a, c). KeyPerson(Bob, a).\n\
             Company(x) -> KeyPerson(p, x).\n\
             Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).",
        );
        let key_persons = result.facts_of("KeyPerson");
        // Bob propagates to b and c; each company also gets an invented key
        // person, which propagates along control edges.
        assert!(key_persons.contains(&Fact::new("KeyPerson", vec!["Bob".into(), "a".into()])));
        assert!(key_persons.contains(&Fact::new("KeyPerson", vec!["Bob".into(), "b".into()])));
        assert!(key_persons.contains(&Fact::new("KeyPerson", vec!["Bob".into(), "c".into()])));
        // and it terminates with a bounded number of nulls
        assert!(result.stats.nulls_invented >= 3);
        assert!(key_persons.len() <= 20);
    }

    #[test]
    fn example7_terminates_with_warded_strategy() {
        let result = warded_chase(
            "Company(HSBC). Company(HSB). Company(IBA).\n\
             Controls(HSBC, HSB). Controls(HSB, IBA).\n\
             Company(x) -> Owns(p, s, x).\n\
             Owns(p, s, x) -> Stock(x, s).\n\
             Owns(p, s, x) -> PSC(x, p).\n\
             PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
             PSC(x, p), PSC(y, p) -> StrongLink(x, y).\n\
             StrongLink(x, y) -> Owns(p, s, x).\n\
             StrongLink(x, y) -> Owns(p, s, y).\n\
             Stock(x, s) -> Company(x).",
        );
        // The key claim: the chase of this (infinite-chase) program terminates.
        assert!(result.stats.rounds < 100);
        // Every company must have at least one person of significant control.
        let psc = result.facts_of("PSC");
        for c in ["HSBC", "HSB", "IBA"] {
            assert!(
                psc.iter().any(|f| f.args[0] == Value::str(c)),
                "missing PSC for {c}"
            );
        }
        // Strong links exist (companies sharing a PSC through control chains).
        assert!(!result.facts_of("StrongLink").is_empty());
    }

    #[test]
    fn restricted_chase_reuses_existing_witnesses() {
        let src = "Company(a).\n\
                   KeyPerson(bob, a).\n\
                   Company(x) -> KeyPerson(p, x).";
        let program = parse_program(src).unwrap();
        let mut strategy = ExactDedupStrategy::new();
        let restricted = run_chase(
            &program,
            &mut strategy,
            &ChaseOptions {
                variant: ChaseVariant::Restricted,
                ..Default::default()
            },
        );
        // Bob already witnesses the existential: no new null is needed.
        assert_eq!(restricted.facts_of("KeyPerson").len(), 1);

        let mut strategy2 = ExactDedupStrategy::new();
        let oblivious = run_chase(&program, &mut strategy2, &ChaseOptions::default());
        assert_eq!(oblivious.facts_of("KeyPerson").len(), 2);
    }

    #[test]
    fn constraints_and_egds_are_reported() {
        let result = warded_chase(
            "Own(\"a\", \"a\", 0.3). Own(\"a\", \"b\", 0.9). Own(\"c\", \"b\", 0.8).\n\
             Incorp(\"x\", \"y\").\n\
             Own(x, x, w) -> false.\n\
             Own(x1, y, w), Own(x2, y, w2), x1 != x2 -> x1 = x2.",
        );
        assert_eq!(result.violations.len(), 3); // 1 constraint + the egd both ways
        assert!(result.violations[0].contains("constraint violated"));
    }

    #[test]
    fn negation_is_respected() {
        let result = warded_chase(
            "Company(a). Company(b). Dissolved(b).\n\
             Company(x), not Dissolved(x) -> Active(x).",
        );
        let active = result.facts_of("Active");
        assert_eq!(active, vec![Fact::new("Active", vec!["a".into()])]);
    }

    #[test]
    fn dom_predicate_is_populated_when_referenced() {
        let result = warded_chase(
            "P(\"a\", 1). P(\"b\", 2).\n\
             Dom(x), P(x, n) -> Grounded(x).",
        );
        let grounded = result.facts_of("Grounded");
        assert_eq!(grounded.len(), 2);
    }

    #[test]
    fn trivial_strategy_gives_same_answers_on_small_input() {
        let src = "Company(HSBC). Company(HSB).\n\
                   Controls(HSBC, HSB).\n\
                   Company(x) -> Owns(p, s, x).\n\
                   Owns(p, s, x) -> PSC(x, p).\n\
                   PSC(x, p), Controls(x, y) -> Owns(p, s, y).";
        let program = parse_program(src).unwrap();
        let mut warded = WardedStrategy::new();
        let a = run_chase(&program, &mut warded, &ChaseOptions::default());
        let mut trivial = TrivialIsoStrategy::new();
        let b = run_chase(&program, &mut trivial, &ChaseOptions::default());
        // Same ground PSC conclusions from both strategies.
        let psc_companies = |r: &ChaseResult| -> BTreeSet<Value> {
            r.facts_of("PSC")
                .iter()
                .map(|f| f.args[0].clone())
                .collect()
        };
        assert_eq!(psc_companies(&a), psc_companies(&b));
    }

    #[test]
    fn caps_stop_runaway_chases() {
        // A non-warded program with an infinite restricted chase; the cap
        // keeps the run finite.
        let src = "P(a).\nP(x) -> Q(x, y).\nQ(x, y) -> P(y).";
        let program = parse_program(src).unwrap();
        let mut strategy = ExactDedupStrategy::new();
        let result = run_chase(
            &program,
            &mut strategy,
            &ChaseOptions {
                variant: ChaseVariant::Oblivious,
                max_rounds: Some(10),
                max_facts: None,
            },
        );
        assert_eq!(result.stats.rounds, 10);
        // With the warded strategy the same program terminates on its own.
        let mut warded = WardedStrategy::new();
        let finite = run_chase(&program, &mut warded, &ChaseOptions::default());
        assert!(finite.stats.rounds < 10);
    }

    #[test]
    fn sharded_find_matches_is_identical_to_sequential() {
        // Enough first-atom candidates to split meaningfully, plus negation,
        // a repeated-variable join and a condition, so every literal kind
        // crosses the shard boundary; the second rule's first atom is
        // probed (a constant), not scanned, once `Edge` is indexed.
        let mut program = parse_program(
            "Edge(x, y), Edge(y, z), not Blocked(z), x != z -> Two(x, z).\n\
             Edge(1, y), Edge(y, z) -> Hop(z).\n\
             Blocked(9). Blocked(3).",
        )
        .unwrap();
        for i in 0..300i64 {
            program.add_fact(Fact::new(
                "Edge",
                vec![Value::Int(i % 20), Value::Int((i * 7 + 3) % 20)],
            ));
        }
        let store = FactStore::from_facts(program.facts.clone());
        for rule in &program.rules {
            let sequential = find_matches(rule, &store);
            assert!(!sequential.is_empty());
            let mut bufs = MatchBuffers::default();
            let sharded = |store: &FactStore, shards: usize, bufs: &mut MatchBuffers| {
                (0..shards)
                    .flat_map(|shard| find_matches_shard(rule, store, shard, shards, bufs))
                    .collect::<Vec<_>>()
            };
            for shards in [2usize, 3, 8, 64, 1000] {
                // Exact Vec equality: same substitutions in the same
                // enumeration order, not merely the same set.
                assert_eq!(
                    sequential,
                    sharded(&store, shards, &mut bufs),
                    "order diverges at {shards} shards"
                );
            }
            // The buffer-reusing entry point agrees too, through warm buffers
            // and with indices built so the probe path is exercised.
            assert_eq!(sequential, find_matches_with(rule, &store, &mut bufs));
            let mut indexed = store.clone();
            indexed.relation_mut(intern("Edge")).ensure_index(&[0]);
            indexed.relation_mut(intern("Blocked")).ensure_index(&[0]);
            assert_eq!(sequential, find_matches_with(rule, &indexed, &mut bufs));
            assert_eq!(sequential, sharded(&indexed, 8, &mut bufs));
        }
    }

    #[test]
    fn hybrid_chase_closes_lollipops() {
        // A triangle core with a pendant ear, fed back recursively.
        let result = warded_chase(
            "Edge(a, b). Edge(b, c). Edge(a, c). Pend(c, p). Pend(c, q).\n\
             Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lol(x, y, z, w).\n\
             Lol(x, y, z, w) -> Pend(x, w).",
        );
        let lols = result.facts_of("Lol");
        assert!(lols.contains(&Fact::new(
            "Lol",
            vec!["a".into(), "b".into(), "c".into(), "p".into()]
        )));
        assert!(lols.contains(&Fact::new(
            "Lol",
            vec!["a".into(), "b".into(), "c".into(), "q".into()]
        )));
        // The feedback Pend(a, p)/Pend(a, q) creates no new lollipops
        // (no triangle ends in a), so the chase closes at four facts.
        assert_eq!(result.facts_of("Pend").len(), 4);
        assert_eq!(lols.len(), 2);
        assert!(result.violations.is_empty());
    }

    #[test]
    fn wcoj_chase_closes_triangles() {
        // A fully cyclic body whose derivations feed its own relation.
        let result = warded_chase(
            "Edge(a, b). Edge(b, c). Edge(a, c). Edge(c, d). Edge(b, d).\n\
             Edge(x, y), Edge(y, z), Edge(x, z) -> Tri(x, y, z).\n\
             Tri(x, y, z) -> Edge(z, x).",
        );
        // abc and bcd close immediately; the recursive Edge(z, x) feedback
        // adds Edge(c, a) and Edge(d, b), which create no further triangles.
        let tris = result.facts_of("Tri");
        assert!(tris.contains(&Fact::new("Tri", vec!["a".into(), "b".into(), "c".into()])));
        assert!(tris.contains(&Fact::new("Tri", vec!["b".into(), "c".into(), "d".into()])));
        assert_eq!(tris.len(), 2);
        let edges = result.facts_of("Edge");
        assert!(edges.contains(&Fact::new("Edge", vec!["c".into(), "a".into()])));
        assert!(edges.contains(&Fact::new("Edge", vec!["d".into(), "b".into()])));
        assert!(result.violations.is_empty());
    }

    #[test]
    fn aggregate_rules_are_left_to_the_engine() {
        let result = warded_chase(
            "P(1, 2). P(1, 3).\n\
             P(x, w), s = msum(w) -> Total(x, s).",
        );
        assert_eq!(result.stats.aggregate_rules_skipped, 1);
        assert!(result.facts_of("Total").is_empty());
    }
}
