//! Join-hypergraph acyclicity: the GYO (Graham / Yu–Özsoyoğlu) ear-removal
//! test over a rule body's positive atoms.
//!
//! A rule body's **join hypergraph** has one vertex per variable and one
//! hyperedge per positive atom (its variable set). The body is
//! **α-acyclic** iff GYO reduction empties the hypergraph: repeatedly
//! delete *ear* vertices (variables occurring in at most one remaining
//! edge) and edges contained in another remaining edge. Chain and star
//! joins reduce to nothing; a triangle `E(x,y), E(y,z), E(x,z)` — or any
//! clique / cycle pattern — leaves a residue.
//!
//! The engine uses this test to route rule bodies: acyclic bodies keep the
//! binary join pipeline (which is worst-case optimal for them under the
//! classic Yannakakis argument), cyclic bodies switch to the
//! leapfrog-triejoin path in `vadalog-storage::wcoj`, whose run time is
//! bounded by the AGM fractional-cover bound instead of the intermediate
//! result size. [`cyclic_core`] refines the boolean test: it returns the
//! atoms whose edges survive the reduction — the irreducible **cyclic
//! core** — so a hybrid plan can leapfrog only the core while the acyclic
//! ears keep cheap binary probes.

use std::collections::BTreeSet;
use vadalog_model::prelude::*;

/// The **cyclic core** of the join hypergraph of `atoms`: the (sorted)
/// positions of the atoms whose hyperedges survive GYO reduction. Empty for
/// α-acyclic bodies — chains, stars, guarded bodies all reduce to nothing —
/// and for bodies with fewer than three variable-carrying atoms. For a
/// "lollipop" body (a triangle with a pendant path) only the triangle's
/// three atoms come back; for a fully cyclic body every atom does.
///
/// Any partition into core and non-core atoms yields a *correct* hybrid
/// plan (every atom is still enforced, by a leapfrog trie or a binary
/// probe); GYO only decides which atoms benefit from multiway intersection.
pub fn cyclic_core(atoms: &[&Atom]) -> Vec<usize> {
    let mut edges: Vec<(usize, BTreeSet<Var>)> = atoms
        .iter()
        .enumerate()
        .map(|(i, a)| (i, a.variable_set()))
        .filter(|(_, vs)| !vs.is_empty())
        .collect();
    if edges.len() < 3 {
        return Vec::new();
    }
    loop {
        let mut changed = false;
        // Remove edges contained in another remaining edge (duplicates
        // count: one of two equal edges contains the other).
        let mut keep: Vec<(usize, BTreeSet<Var>)> = Vec::with_capacity(edges.len());
        for (i, (pos, e)) in edges.iter().enumerate() {
            let subsumed = edges
                .iter()
                .enumerate()
                .any(|(j, (_, f))| i != j && e.is_subset(f) && (e != f || i > j));
            if !subsumed {
                keep.push((*pos, e.clone()));
            } else {
                changed = true;
            }
        }
        edges = keep;
        // Remove ear variables: those occurring in at most one edge.
        let mut counts: std::collections::BTreeMap<Var, usize> = Default::default();
        for (_, e) in &edges {
            for v in e {
                *counts.entry(*v).or_default() += 1;
            }
        }
        for (_, e) in &mut edges {
            let before = e.len();
            e.retain(|v| counts[v] > 1);
            changed |= e.len() != before;
        }
        edges.retain(|(_, e)| !e.is_empty());
        if !changed {
            break;
        }
    }
    let mut core: Vec<usize> = edges.into_iter().map(|(pos, _)| pos).collect();
    core.sort_unstable();
    core
}

/// Is the join hypergraph of `atoms` (one hyperedge per atom's variable
/// set) α-cyclic under GYO reduction? Bodies with fewer than three atoms
/// are never cyclic; empty variable sets (fully ground atoms) are dropped
/// up front. Equivalent to [`cyclic_core`] being non-empty.
pub fn atoms_are_cyclic(atoms: &[&Atom]) -> bool {
    !cyclic_core(atoms).is_empty()
}

/// [`atoms_are_cyclic`] over a rule's positive body atoms.
pub fn rule_body_is_cyclic(rule: &Rule) -> bool {
    atoms_are_cyclic(&rule.body_atoms())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_parser::parse_rule;

    fn cyclic(src: &str) -> bool {
        rule_body_is_cyclic(&parse_rule(src).unwrap())
    }

    #[test]
    fn chains_stars_and_small_bodies_are_acyclic() {
        assert!(!cyclic("Edge(x, y) -> Reach(x, y)"));
        assert!(!cyclic("Reach(x, y), Edge(y, z) -> Reach(x, z)"));
        assert!(!cyclic("A(x, y), B(y, z), C(z, w) -> D(x, w)"));
        assert!(!cyclic("Hub(h), A(h, x), B(h, y), C(h, z) -> Out(x, y, z)"));
        // A guarded body: the guard edge contains every other edge.
        assert!(!cyclic("G(x, y, z), A(x, y), B(y, z) -> Out(x, z)"));
    }

    #[test]
    fn triangles_cycles_and_cliques_are_cyclic() {
        assert!(cyclic("E(x, y), E(y, z), E(x, z) -> T(x, y, z)"));
        assert!(cyclic("E(x, y), E(y, z), E(z, w), E(w, x) -> Sq(x, z)"));
        assert!(cyclic(
            "E(x, y), E(x, z), E(x, w), E(y, z), E(y, w), E(z, w) -> K4(x, y, z, w)"
        ));
    }

    #[test]
    fn cyclic_core_isolates_the_irreducible_residue() {
        let core = |src: &str| {
            let rule = parse_rule(src).unwrap();
            let atoms = rule.body_atoms();
            cyclic_core(&atoms)
        };
        // Acyclic bodies have an empty core.
        assert!(core("Reach(x, y), Edge(y, z) -> Reach(x, z)").is_empty());
        assert!(core("A(x, y), B(y, z), C(z, w) -> D(x, w)").is_empty());
        // A fully cyclic body is its own core.
        assert_eq!(
            core("E(x, y), E(y, z), E(x, z) -> T(x, y, z)"),
            vec![0, 1, 2]
        );
        // Lollipop: triangle plus a pendant path — only the triangle stays.
        assert_eq!(
            core("E(x, y), E(y, z), E(x, z), P(z, w), Q(w, u) -> T(x, w, u)"),
            vec![0, 1, 2]
        );
        // The pendant may come first; positions track the original body.
        assert_eq!(
            core("P(z, w), E(x, y), E(y, z), E(x, z) -> T(x, w)"),
            vec![1, 2, 3]
        );
        // A 4-cycle core with a pendant tail.
        assert_eq!(
            core("E(a, b), E(b, c), E(c, d), E(d, a), P(d, t) -> Out(a, t)"),
            vec![0, 1, 2, 3]
        );
        // A ground atom neither joins nor blocks the reduction.
        assert_eq!(
            core("E(x, y), E(y, z), E(x, z), Mark(\"k\") -> T(x)"),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn constants_and_ground_atoms_do_not_create_cycles() {
        assert!(!cyclic(
            "E(x, \"a\"), E(\"a\", z), Mark(\"a\") -> Out(x, z)"
        ));
        // The triangle shape survives a constant in an unrelated column.
        assert!(cyclic(
            "E(x, y, \"k\"), E(y, z, \"k\"), E(x, z, \"k\") -> T(x, y, z)"
        ));
    }
}
