//! Predicate dependency graph: recursion detection, strongly connected
//! components and stratification of negation.
//!
//! The engine's logic compiler (Section 4, step 2) builds its pipeline from
//! exactly this graph: there is an edge from predicate `p` to predicate `q`
//! whenever some rule has `p` in its body and `q` in its head.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use vadalog_model::prelude::*;

/// An edge annotation: does the dependency go through a positive or a
/// negated body atom?
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EdgeKind {
    /// Dependency through a positive body atom.
    Positive,
    /// Dependency through a negated body atom.
    Negative,
}

/// The predicate dependency graph of a program.
#[derive(Clone, Debug, Default)]
pub struct PredicateGraph {
    nodes: BTreeSet<Sym>,
    /// edges[p] = set of (q, kind) such that q depends on p (p appears in a
    /// body whose head is q).
    successors: BTreeMap<Sym, BTreeSet<(Sym, EdgeKind)>>,
    /// reverse adjacency: predecessors[q] = predicates appearing in bodies of
    /// rules with head q.
    predecessors: BTreeMap<Sym, BTreeSet<(Sym, EdgeKind)>>,
}

/// Error returned when a program cannot be stratified: a predicate is
/// negated inside its own strongly connected component, so it depends on
/// its own negation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StratificationError {
    /// The predicate negated inside its own component.
    pub predicate: String,
}

impl fmt::Display for StratificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program is not stratifiable: predicate {} is negated inside its own recursion",
            self.predicate
        )
    }
}

impl std::error::Error for StratificationError {}

impl PredicateGraph {
    /// Build the dependency graph of a program.
    pub fn build(program: &Program) -> Self {
        let mut g = PredicateGraph::default();
        for p in program.all_predicates() {
            g.nodes.insert(p);
        }
        for rule in &program.rules {
            for head in rule.head_atoms() {
                for body in rule.body_atoms() {
                    g.add_edge(body.predicate, head.predicate, EdgeKind::Positive);
                }
                for body in rule.negated_atoms() {
                    g.add_edge(body.predicate, head.predicate, EdgeKind::Negative);
                }
            }
        }
        g
    }

    fn add_edge(&mut self, from: Sym, to: Sym, kind: EdgeKind) {
        self.nodes.insert(from);
        self.nodes.insert(to);
        self.successors.entry(from).or_default().insert((to, kind));
        self.predecessors
            .entry(to)
            .or_default()
            .insert((from, kind));
    }

    /// All predicates (nodes) in deterministic order.
    pub fn predicates(&self) -> impl Iterator<Item = &Sym> {
        self.nodes.iter()
    }

    /// Strongly connected components (Tarjan), each sorted, in dependency
    /// order: a component is listed after every component it depends on
    /// (the component of a rule's body predicate comes no later than its
    /// head's). Tarjan finishes dependents first; the list is that order
    /// reversed, the order [`PredicateGraph::stratify`] assigns strata in.
    pub fn sccs(&self) -> Vec<Vec<Sym>> {
        // Iterative Tarjan to avoid recursion limits on large programs.
        #[derive(Default, Clone)]
        struct NodeState {
            index: Option<usize>,
            lowlink: usize,
            on_stack: bool,
        }
        let nodes: Vec<Sym> = self.nodes.iter().copied().collect();
        let mut state: BTreeMap<Sym, NodeState> =
            nodes.iter().map(|n| (*n, NodeState::default())).collect();
        let mut index = 0usize;
        let mut stack: Vec<Sym> = Vec::new();
        let mut sccs: Vec<Vec<Sym>> = Vec::new();

        for &start in &nodes {
            if state[&start].index.is_some() {
                continue;
            }
            // Each frame: (node, iterator position over successors)
            let mut call_stack: Vec<(Sym, Vec<Sym>, usize)> = Vec::new();
            let succ_of = |g: &Self, n: Sym| -> Vec<Sym> {
                g.successors
                    .get(&n)
                    .map(|s| s.iter().map(|(p, _)| *p).collect())
                    .unwrap_or_default()
            };
            state.get_mut(&start).unwrap().index = Some(index);
            state.get_mut(&start).unwrap().lowlink = index;
            index += 1;
            stack.push(start);
            state.get_mut(&start).unwrap().on_stack = true;
            call_stack.push((start, succ_of(self, start), 0));

            while let Some((node, succs, mut pos)) = call_stack.pop() {
                let mut descended = false;
                while pos < succs.len() {
                    let next = succs[pos];
                    pos += 1;
                    if state[&next].index.is_none() {
                        // descend
                        state.get_mut(&next).unwrap().index = Some(index);
                        state.get_mut(&next).unwrap().lowlink = index;
                        index += 1;
                        stack.push(next);
                        state.get_mut(&next).unwrap().on_stack = true;
                        call_stack.push((node, succs.clone(), pos));
                        call_stack.push((next, succ_of(self, next), 0));
                        descended = true;
                        break;
                    } else if state[&next].on_stack {
                        let next_index = state[&next].index.unwrap();
                        let e = state.get_mut(&node).unwrap();
                        e.lowlink = e.lowlink.min(next_index);
                    }
                }
                if descended {
                    continue;
                }
                // finished node
                if state[&node].lowlink == state[&node].index.unwrap() {
                    let mut component = Vec::new();
                    while let Some(top) = stack.pop() {
                        state.get_mut(&top).unwrap().on_stack = false;
                        component.push(top);
                        if top == node {
                            break;
                        }
                    }
                    component.sort();
                    sccs.push(component);
                }
                // propagate lowlink to parent
                if let Some((parent, _, _)) = call_stack.last() {
                    let child_low = state[&node].lowlink;
                    let p = state.get_mut(parent).unwrap();
                    p.lowlink = p.lowlink.min(child_low);
                }
            }
        }
        sccs.reverse();
        sccs
    }

    /// Predicates involved in recursion (belonging to an SCC of size > 1, or
    /// with a self-loop).
    pub fn recursive_predicates(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for scc in self.sccs() {
            if scc.len() > 1 {
                out.extend(scc);
            } else {
                let p = scc[0];
                if self
                    .successors
                    .get(&p)
                    .map(|s| s.iter().any(|(q, _)| *q == p))
                    .unwrap_or(false)
                {
                    out.insert(p);
                }
            }
        }
        out
    }

    /// Is the program recursive at all?
    pub fn is_recursive(&self) -> bool {
        !self.recursive_predicates().is_empty()
    }

    /// Each predicate's stratum, from the condensation of
    /// [`PredicateGraph::sccs`]: the components in dependency order, each
    /// at the lowest stratum that is at least every positive predecessor's
    /// and above every negated one's. A stratum therefore rises only across
    /// a negated edge, and a negation-free program is one stratum, 0.
    /// Fails when a negated edge stays inside one component, naming the
    /// negated predicate.
    pub fn stratify(&self) -> Result<BTreeMap<Sym, usize>, StratificationError> {
        let mut stratum: BTreeMap<Sym, usize> = BTreeMap::new();
        for component in self.sccs() {
            let mut level = 0;
            for q in &component {
                for (p, kind) in self.predecessors.get(q).into_iter().flatten() {
                    let negated = *kind == EdgeKind::Negative;
                    match stratum.get(p) {
                        Some(s) => level = level.max(s + usize::from(negated)),
                        // Not yet placed, so `p` is in this component.
                        None if negated => {
                            return Err(StratificationError {
                                predicate: p.as_str(),
                            })
                        }
                        None => {}
                    }
                }
            }
            stratum.extend(component.into_iter().map(|q| (q, level)));
        }
        Ok(stratum)
    }
}

/// The strata every evaluator of `program` runs, lowest first: each the
/// ascending indices into `program.rules` of the rules it evaluates, with
/// strata that hold no rule dropped. A rule belongs to the lowest stratum
/// of its head predicates ([`PredicateGraph::stratify`]): its positive body
/// predicates are at most that stratum and its negated ones strictly below
/// it, so every relation the rule negates is complete once the strata
/// below have reached their fixpoints. Constraints and EGDs have no head
/// and belong to no stratum: they are checked on the final instance. A
/// negation-free program is one stratum holding every rule with a head.
pub fn rule_strata(program: &Program) -> Result<Vec<Vec<usize>>, StratificationError> {
    let strata = PredicateGraph::build(program).stratify()?;
    let mut rules: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (r, rule) in program.rules.iter().enumerate() {
        if let Some(s) = rule.head_atoms().iter().map(|h| strata[&h.predicate]).min() {
            rules.entry(s).or_default().push(r);
        }
    }
    Ok(rules.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_parser::parse_program;

    fn graph(src: &str) -> PredicateGraph {
        PredicateGraph::build(&parse_program(src).unwrap())
    }

    #[test]
    fn edges_follow_body_to_head() {
        let g = graph("Own(x, y, w), w > 0.5 -> Control(x, y).");
        let edge = |p: &str| BTreeSet::from([(intern(p), EdgeKind::Positive)]);
        assert_eq!(g.predecessors[&intern("Control")], edge("Own"));
        assert_eq!(g.successors[&intern("Own")], edge("Control"));
    }

    #[test]
    fn recursion_is_detected_for_self_loops_and_cycles() {
        let g = graph(
            "Control(x, y), Control(y, z) -> Control(x, z).\n\
             Own(x, y, w), w > 0.5 -> Control(x, y).",
        );
        assert!(g.is_recursive());
        assert!(g.recursive_predicates().contains(&intern("Control")));
        assert!(!g.recursive_predicates().contains(&intern("Own")));
    }

    #[test]
    fn example7_has_a_large_scc() {
        let g = graph(
            "Company(x) -> Owns(p, s, x).\n\
             Owns(p, s, x) -> Stock(x, s).\n\
             Owns(p, s, x) -> PSC(x, p).\n\
             PSC(x, p), Controls(x, y) -> Owns(p, s, y).\n\
             PSC(x, p), PSC(y, p) -> StrongLink(x, y).\n\
             StrongLink(x, y) -> Owns(p, s, x).\n\
             StrongLink(x, y) -> Owns(p, s, y).\n\
             Stock(x, s) -> Company(x).",
        );
        let rec = g.recursive_predicates();
        for p in ["Company", "Owns", "Stock", "PSC", "StrongLink"] {
            assert!(rec.contains(&intern(p)), "{p} should be recursive");
        }
        assert!(!rec.contains(&intern("Controls")));
    }

    #[test]
    fn sccs_are_in_dependency_order() {
        let g = graph(
            "A(x) -> B(x).\n\
             B(x) -> C(x).\n\
             C(x) -> B(x).\n\
             C(x) -> D(x).",
        );
        // Components sort by symbol id, which other tests' interning order
        // decides: compare each as a set of names.
        let names: Vec<BTreeSet<String>> = g
            .sccs()
            .iter()
            .map(|c| c.iter().map(|p| p.as_str()).collect())
            .collect();
        let expected: Vec<BTreeSet<String>> = [&["A"][..], &["B", "C"], &["D"]]
            .iter()
            .map(|c| c.iter().map(|p| p.to_string()).collect())
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn stratification_of_negation() {
        let g = graph(
            "Company(x), not Dissolved(x) -> Active(x).\n\
             Active(x), Owns(x, y) -> Reach(x, y).\n\
             Reach(x, y), Owns(y, z) -> Reach(x, z).\n\
             Company(x), not Reach(x, x) -> Acyclic(x).",
        );
        let strata = g.stratify().unwrap();
        let at = |p: &str| strata[&intern(p)];
        assert_eq!(
            ["Company", "Dissolved", "Owns", "Active", "Reach", "Acyclic"].map(at),
            [0, 0, 0, 1, 1, 2]
        );
    }

    #[test]
    fn negation_in_a_cycle_is_rejected_naming_the_negated_predicate() {
        for src in [
            "P(x), not Q(x) -> R(x).\nR(x) -> Q(x).",
            "A(x), not Q(x) -> Q(x).",
        ] {
            let err = graph(src).stratify().unwrap_err();
            assert_eq!(err.predicate, "Q", "{src}");
        }
    }

    #[test]
    fn rules_run_in_the_lowest_stratum_of_their_heads() {
        let program = parse_program(
            "V(x), not Isolated(x) -> Member(x).\n\
             V(x), not Touched(x) -> Isolated(x).\n\
             T(x, y) -> Touched(x).\n\
             T(x, y) -> Touched(y).\n\
             E(x, y) -> T(x, y).\n\
             T(x, y), E(y, z) -> T(x, z).\n\
             Member(x) -> false.",
        )
        .unwrap();
        assert_eq!(
            rule_strata(&program).unwrap(),
            [vec![2, 3, 4, 5], vec![1], vec![0]]
        );
        // Negation-free: one stratum of every rule with a head.
        let program = parse_program("E(x, y) -> T(x, y).\nT(x, x) -> false.").unwrap();
        assert_eq!(rule_strata(&program).unwrap(), [vec![0]]);
    }

    #[test]
    fn acyclic_program_is_not_recursive() {
        let g = graph("A(x) -> B(x).\nB(x) -> C(x).");
        assert!(!g.is_recursive());
        assert_eq!(g.sccs().len(), 3);
    }
}
