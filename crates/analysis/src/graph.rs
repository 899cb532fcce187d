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

/// Error returned when a program cannot be stratified (a negated dependency
/// participates in a cycle).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StratificationError {
    /// A predicate on the offending negative cycle.
    pub predicate: String,
}

impl fmt::Display for StratificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program is not stratifiable: negation through recursion involving predicate {}",
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

    /// Strongly connected components (Tarjan), in reverse topological order
    /// (a component is listed after the components it depends on).
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

    /// Compute a stratification: a mapping from predicates to stratum
    /// numbers such that positive dependencies never decrease the stratum and
    /// negative dependencies strictly increase it. Fails when negation occurs
    /// inside a cycle.
    pub fn stratify(&self) -> Result<BTreeMap<Sym, usize>, StratificationError> {
        let mut stratum: BTreeMap<Sym, usize> = self.nodes.iter().map(|n| (*n, 0usize)).collect();
        let n = self.nodes.len().max(1);
        // Bellman-Ford-style relaxation; more than n*n updates means a
        // negative cycle (negation through recursion).
        for iteration in 0..=(n * n) {
            let mut changed = false;
            for (from, edges) in &self.successors {
                for (to, kind) in edges {
                    let required = match kind {
                        EdgeKind::Positive => stratum[from],
                        EdgeKind::Negative => stratum[from] + 1,
                    };
                    if stratum[to] < required {
                        stratum.insert(*to, required);
                        changed = true;
                        if stratum[to] > n {
                            return Err(StratificationError {
                                predicate: to.as_str(),
                            });
                        }
                    }
                }
            }
            if !changed {
                return Ok(stratum);
            }
            if iteration == n * n {
                break;
            }
        }
        Err(StratificationError {
            predicate: self
                .nodes
                .iter()
                .next()
                .map(|s| s.as_str())
                .unwrap_or_default(),
        })
    }
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
             C(x) -> B(x).",
        );
        let sccs = g.sccs();
        // the {B, C} component must come after {A} is... (reverse topological:
        // component listed after the ones it depends on). Find positions.
        let pos_a = sccs.iter().position(|c| c.contains(&intern("A"))).unwrap();
        let pos_bc = sccs.iter().position(|c| c.contains(&intern("B"))).unwrap();
        assert!(sccs[pos_bc].contains(&intern("C")));
        assert!(pos_a < pos_bc || sccs[pos_bc].len() == 2);
    }

    #[test]
    fn stratification_of_negation() {
        let g = graph(
            "Company(x), not Dissolved(x) -> Active(x).\n\
             Active(x), Owns(x, y) -> Reach(x, y).\n\
             Reach(x, y), Owns(y, z) -> Reach(x, z).",
        );
        let strata = g.stratify().unwrap();
        assert!(strata[&intern("Active")] > strata[&intern("Dissolved")]);
        assert!(strata[&intern("Reach")] >= strata[&intern("Active")]);
    }

    #[test]
    fn negation_in_a_cycle_is_rejected() {
        let g = graph(
            "P(x), not Q(x) -> R(x).\n\
             R(x) -> Q(x).",
        );
        assert!(g.stratify().is_err());
    }

    #[test]
    fn acyclic_program_is_not_recursive() {
        let g = graph("A(x) -> B(x).\nB(x) -> C(x).");
        assert!(!g.is_recursive());
        assert_eq!(g.sccs().len(), 3);
    }
}
