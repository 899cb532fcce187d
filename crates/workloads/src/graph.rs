//! Cyclic-join graph workloads: triangle and 4-clique enumeration, the
//! regime the worst-case-optimal join path targets.
//!
//! A binary plan evaluates a cyclic body one atom at a time, so some
//! step enumerates an open path before the closing edge filters it. With
//! a smart planner that step still costs `min(deg(x), deg(y))` per edge
//! `(x, y)` — which [`layered_edges`] drives to `Θ(m)` on *every* dense
//! edge: a complete layer chain `A → B → C` (each layer `m` vertices)
//! gives both endpoints of every core edge degree `m`, while the
//! triangles stay bounded by the `closing` sparse `A → C` edges (each
//! closes exactly `m` triangles, one per middle vertex). The AGM-style
//! per-variable intersection skips the dense block in a single seek —
//! layer ids are contiguous, so `out(a) = B ∪ {few c}` leapfrogs past
//! all of `B` at once when intersected with `out(b) = C` — making these
//! generators the instance family where `--hybrid-ablation` measures the
//! worst-case gap. [`random_edges`] is the plain uniform variant used by
//! the correctness tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

/// `Edge(a, b)` facts over a seeded uniform random directed graph:
/// `edges` independent draws among `nodes` vertices. Self-loops are kept
/// (valid triangle members, equality corners of the intersection) and
/// duplicate draws collapse under the store's set semantics.
pub fn random_edges(nodes: usize, edges: usize, seed: u64) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = nodes.max(2);
    let mut facts = Vec::with_capacity(edges);
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        facts.push(Fact::new(
            "Edge",
            vec![Value::Int(a as i64), Value::Int(b as i64)],
        ));
    }
    facts
}

/// `Edge(a, b)` facts of the layered worst-case instance: `layers`
/// consecutive vertex blocks of `m` vertices each (`L_i = [i·m, (i+1)·m)`)
/// with **complete** edge sets `L_i → L_{i+1}`, plus `closing` uniformly
/// random forward skip edges `L_i → L_j` (`j ≥ i + 2`). The dense chains
/// make every binary step enumerate `Θ(m)` candidates per core edge; the
/// sparse skips bound the output. Duplicate skip draws collapse under set
/// semantics.
pub fn layered_edges(m: usize, layers: usize, closing: usize, seed: u64) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = m.max(1);
    let layers = layers.max(3);
    let mut facts = Vec::with_capacity((layers - 1) * m * m + closing);
    let edge =
        |a: usize, b: usize| Fact::new("Edge", vec![Value::Int(a as i64), Value::Int(b as i64)]);
    for l in 0..layers - 1 {
        for a in l * m..(l + 1) * m {
            for b in (l + 1) * m..(l + 2) * m {
                facts.push(edge(a, b));
            }
        }
    }
    for _ in 0..closing {
        let i = rng.gen_range(0..layers - 2);
        let j = rng.gen_range(i + 2..layers);
        let a = i * m + rng.gen_range(0..m);
        let b = j * m + rng.gen_range(0..m);
        facts.push(edge(a, b));
    }
    facts
}

/// The triangle program alone: one cyclic rule, directed orientation.
pub fn triangle_program() -> Program {
    parse_program(
        "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
         @output(\"Triangle\").",
    )
    .expect("triangle program parses")
}

/// Triangle enumeration over the 3-layer worst-case instance — the
/// canonical cyclic-body workload. `2m²` dense core edges plus `closing`
/// sparse `A → C` edges;
/// each distinct closing edge yields exactly `m` triangles.
pub fn triangle(m: usize, closing: usize, seed: u64) -> Program {
    let mut program = triangle_program();
    for f in layered_edges(m, 3, closing, seed) {
        program.add_fact(f);
    }
    program
}

/// The directed 4-clique program alone: six edge atoms over four
/// variables, every pair oriented low-to-high in body order. The body's
/// GYO reduction leaves the full hypergraph — maximally cyclic — and a
/// binary plan's open path prefix pays the dense-layer degree once per
/// free variable instead of the triangle's once.
pub fn four_clique_program() -> Program {
    parse_program(
        "Edge(x, y), Edge(x, z), Edge(x, w), Edge(y, z), Edge(y, w), Edge(z, w) \
         -> Clique(x, y, z, w).\n\
         @output(\"Clique\").",
    )
    .expect("four-clique program parses")
}

/// 4-clique enumeration over the 4-layer worst-case instance: a clique
/// `(a, b, c, d)` uses three consecutive dense edges plus three sparse
/// skips (`a → c`, `b → d`, `a → d`), so the output stays sparse while
/// every binary prefix pays the dense degree.
pub fn four_clique(m: usize, closing: usize, seed: u64) -> Program {
    let mut program = four_clique_program();
    for f in layered_edges(m, 4, closing, seed) {
        program.add_fact(f);
    }
    program
}

/// `pred(v, k)` pendant-fan facts: `fan` out-edges per vertex of
/// `[from, from + count)`, targets packed contiguously from
/// `from + count` — disjoint from the sources, so one tier's targets can
/// seed the next tier without ever re-entering the cycle relation.
pub fn pendant_fan(pred: &str, from: usize, count: usize, fan: usize) -> Vec<Fact> {
    let base = from + count;
    let mut facts = Vec::with_capacity(count * fan);
    for v in 0..count {
        for j in 0..fan {
            facts.push(Fact::new(
                pred,
                vec![
                    Value::Int((from + v) as i64),
                    Value::Int((base + v * fan + j) as i64),
                ],
            ));
        }
    }
    facts
}

/// The lollipop program alone: a triangle core with an attributed two-hop
/// pendant tail (`z → w → u`, the midpoint `w` carrying a label and a
/// weight — the usual knowledge-graph shape of an entity hanging off a
/// cyclic motif). GYO strips the whole tail, so the free-join plan
/// leapfrogs only the three `Edge` atoms and finishes the tail with binary
/// probes. Dragging the tail atoms into the leapfrog would let `w`'s four
/// occurrences outrank the core variable `z` in the degree-ordered level
/// sequence — the leapfrog would enumerate every pendant midpoint before
/// the core has constrained it — and the all-probe plan enumerates the
/// dense open path of the triangle.
pub fn lollipop_program() -> Program {
    parse_program(
        "Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w), Label(w, a), Weight(w, b), Hop(w, u) \
         -> Lollipop(x, y, z, w, u).\n\
         @output(\"Lollipop\").",
    )
    .expect("lollipop program parses")
}

/// Lollipop enumeration over the 3-layer worst-case triangle instance
/// plus an attributed pendant fan on every vertex: each of the
/// `closing · m` triangles spawns `fan²` two-hop tails. Every pendant
/// midpoint carries exactly one label and one weight, so the attribute
/// atoms never multiply the output — they exist to inflate `w`'s degree in
/// the full-leapfrog variable ranking (see [`lollipop_program`]).
pub fn lollipop(m: usize, closing: usize, fan: usize, seed: u64) -> Program {
    let mut program = lollipop_program();
    for f in layered_edges(m, 3, closing, seed) {
        program.add_fact(f);
    }
    // Pendant tier on the 3·m triangle vertices, then hops and attributes
    // on the tier's targets, ids packed past the cycle vertex space.
    let nodes = 3 * m;
    let tier = nodes * fan;
    for f in pendant_fan("Pend", 0, nodes, fan) {
        program.add_fact(f);
    }
    for f in pendant_fan("Hop", nodes, tier, fan) {
        program.add_fact(f);
    }
    for t in nodes..nodes + tier {
        let t = t as i64;
        program.add_fact(Fact::new("Label", vec![Value::Int(t), Value::Int(t + 1)]));
        program.add_fact(Fact::new("Weight", vec![Value::Int(t), Value::Int(2 * t)]));
    }
    program
}

/// The diamond program alone: a directed 4-cycle (`x → y → z → w` closed
/// by `x → w`) with an attributed two-hop pendant tail, the same tail
/// shape as [`lollipop_program`] over a larger cyclic core. The 4-cycle is
/// the GYO residue; the tail tip `u` (four occurrences) outranks every
/// core variable in the full-leapfrog degree ordering, so the pure WCOJ
/// plan enumerates all pendant midpoints per delta row before the core
/// constrains anything, while the hybrid plan leapfrogs the unpolluted
/// 4-cycle and probes the tail per match.
pub fn diamond_program() -> Program {
    parse_program(
        "Edge(x, y), Edge(y, z), Edge(z, w), Edge(x, w), \
         Pend(w, u), Label(u, a), Weight(u, b), Hop(u, t) \
         -> Diamond(x, y, z, w, u).\n\
         @output(\"Diamond\").",
    )
    .expect("diamond program parses")
}

/// Diamond enumeration over the 4-layer worst-case instance: the chain
/// `L0 → L1 → L2 → L3` is dense, the closing `x → w` skips are sparse, so
/// each distinct `L0 → L3` closing edge closes `m²` quadrangles while a
/// binary plan enumerates the `Θ(m⁴)` open chain. Pendant tiers and
/// attributes mirror [`lollipop`].
pub fn diamond(m: usize, closing: usize, fan: usize, seed: u64) -> Program {
    let mut program = diamond_program();
    for f in layered_edges(m, 4, closing, seed) {
        program.add_fact(f);
    }
    let nodes = 4 * m;
    let tier = nodes * fan;
    for f in pendant_fan("Pend", 0, nodes, fan) {
        program.add_fact(f);
    }
    for f in pendant_fan("Hop", nodes, tier, fan) {
        program.add_fact(f);
    }
    for t in nodes..nodes + tier {
        let t = t as i64;
        program.add_fact(Fact::new("Label", vec![Value::Int(t), Value::Int(t + 1)]));
        program.add_fact(Fact::new("Weight", vec![Value::Int(t), Value::Int(2 * t)]));
    }
    program
}

/// The 5-cycle program alone: fully cyclic (its own GYO residue), so its
/// plan is one intersect stage with no ears — planner-coverage workload,
/// not an ablation target.
pub fn five_cycle_program() -> Program {
    parse_program(
        "Edge(a, b), Edge(b, c), Edge(c, d), Edge(d, e), Edge(a, e) \
         -> Penta(a, b, c, d, e).\n\
         @output(\"Penta\").",
    )
    .expect("five-cycle program parses")
}

/// 5-cycle enumeration over the 5-layer worst-case instance, closed by
/// sparse `L0 → L4` skips (each closing edge closes `m³` pentagons of the
/// dense chain).
pub fn five_cycle(m: usize, closing: usize, seed: u64) -> Program {
    let mut program = five_cycle_program();
    for f in layered_edges(m, 5, closing, seed) {
        program.add_fact(f);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_datalog() {
        let a = layered_edges(20, 3, 50, 7);
        let b = layered_edges(20, 3, 50, 7);
        assert_eq!(a, b);
        assert_ne!(a, layered_edges(20, 3, 50, 8));
        assert_eq!(a.len(), 2 * 20 * 20 + 50);
        assert_eq!(random_edges(100, 500, 7), random_edges(100, 500, 7));
        for program in [triangle(12, 30, 7), four_clique(8, 30, 7)] {
            assert!(vadalog_analysis::classify(&program).is_datalog);
        }
    }

    /// One run under the given join strategy, default options otherwise.
    fn run(
        program: &vadalog_model::prelude::Program,
        strategy: vadalog_engine::JoinStrategy,
    ) -> vadalog_engine::RunResult {
        vadalog_engine::Reasoner::with_options(vadalog_engine::ReasonerOptions {
            join_strategy: strategy,
            ..Default::default()
        })
        .reason(program)
        .expect("run failed")
    }

    #[test]
    fn triangle_bodies_are_cyclic_and_leapfrog() {
        use vadalog_analysis::rule_body_is_cyclic;
        use vadalog_engine::JoinStrategy;
        let tri = triangle(12, 40, 11);
        let clique = four_clique(8, 60, 11);
        assert!(rule_body_is_cyclic(&tri.rules[0]));
        assert!(rule_body_is_cyclic(&clique.rules[0]));
        // Every distinct A -> C closing edge closes exactly m triangles.
        let distinct_closing: std::collections::BTreeSet<_> = layered_edges(12, 3, 40, 11)
            [2 * 12 * 12..]
            .iter()
            .map(|f| f.args.clone())
            .collect();
        // Engine smoke: the intersect stage runs and agrees with the
        // binary-join reference exactly.
        let free = run(&tri, JoinStrategy::FreeJoin);
        assert!(free.stats.pipeline.wcoj_activations > 0);
        assert!(free.stats.pipeline.wcoj_intersections > 0);
        assert_eq!(free.output("Triangle").len(), distinct_closing.len() * 12);
        let binary = run(&tri, JoinStrategy::Binary);
        assert_eq!(binary.stats.pipeline.wcoj_activations, 0);
        assert_eq!(free.output("Triangle"), binary.output("Triangle"));
        assert!(!free.output("Triangle").is_empty());
    }

    #[test]
    fn mixed_workloads_leapfrog_their_core_and_agree_with_binary() {
        use vadalog_engine::JoinStrategy;
        // Lollipop and diamond have a proper cyclic core plus acyclic
        // ears: the plan must wrap an intersect stage in ear probes and
        // agree bit-for-bit with the binary reference. The fully cyclic
        // five-cycle is the plan with no ears.
        for (program, out) in [
            (lollipop(8, 20, 2, 7), "Lollipop"),
            (diamond(6, 30, 2, 7), "Diamond"),
            (five_cycle(4, 20, 7), "Penta"),
        ] {
            let free = run(&program, JoinStrategy::FreeJoin);
            let binary = run(&program, JoinStrategy::Binary);
            assert!(!free.output(out).is_empty(), "{out} output is empty");
            assert_eq!(free.output(out), binary.output(out), "{out}");
            assert_eq!(binary.stats.pipeline.wcoj_activations, 0);
            assert_eq!(binary.stats.pipeline.hybrid_activations, 0);
            if out == "Penta" {
                assert_eq!(free.stats.pipeline.hybrid_activations, 0);
                assert!(free.stats.pipeline.wcoj_activations > 0);
            } else {
                assert!(
                    free.stats.pipeline.hybrid_activations > 0,
                    "{out} must wrap its core in ear probes"
                );
            }
        }
    }

    #[test]
    fn pendant_fans_chain_without_reentering_the_cycle() {
        let nodes = 6;
        let tier1 = pendant_fan("Pend", 0, nodes, 3);
        let tier2 = pendant_fan("Hop", nodes, nodes * 3, 3);
        assert_eq!(tier1.len(), nodes * 3);
        assert_eq!(tier2.len(), nodes * 9);
        // Every tier-1 target is a tier-2 source, and no target of either
        // tier collides with a source id space below it.
        let t2_sources: std::collections::BTreeSet<i64> =
            tier2.iter().map(|f| f.args[0].as_i64().unwrap()).collect();
        for f in &tier1 {
            let target = f.args[1].as_i64().unwrap();
            assert!(target >= nodes as i64);
            assert!(t2_sources.contains(&target));
        }
        for f in &tier2 {
            assert!(f.args[1].as_i64().unwrap() >= (nodes + nodes * 3) as i64);
        }
    }
}
