//! The five workloads: names, rationale, sizes and seeded input generation.
//!
//! The program under test only ever receives what this module generates: a
//! program text, and for `serve.*` a request list.

use vadalog_model::prelude::*;
use vadalog_parser::{parse_program, program_to_text};
use vadalog_workloads::{dbpedia, graph, scaling};

use crate::rng::SplitMix64;

/// The seed whose inputs and outputs `expected.json` pins.
pub const DEFAULT_SEED: u64 = 42;

/// Seed of the company/person graph *topology* shared by `reason.links` and
/// `serve.*`. It is fixed because the cost of those workloads is a property
/// of the topology: at these sizes strong links varies 0.55–1.9 s and
/// cone-hit throughput 13.6–19.4 k/s between topologies, several times the
/// regression bound. The run seed varies everything else (see each
/// workload's `seed_varies`).
pub const TOPOLOGY_SEED: u64 = 0x5eed_0001;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Smoke sizes: every code path and check, well under a second each.
    Quick,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Quick => "quick",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Iwarded,
    Links,
    Graph,
    ServeHot,
    ServeMixed,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// What `--seed` changes in the input.
    pub seed_varies: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "reason.iwarded",
        kind: Kind::Iwarded,
        why: "SynthB (130 warded rules with existentials): emission, null invention and the \
              termination check do the work, joins are cheap",
        seed_varies: "every EDB fact (the rule set is fixed by the scenario)",
    },
    Workload {
        name: "reason.links",
        kind: Kind::Links,
        why: "strong links on a tiny EDB: >85% of the wall is binary joins + mcount behind HJE; \
              bypasses parser, load and output changes",
        seed_varies: "entity labels and fact order (the topology is fixed)",
    },
    Workload {
        name: "reason.graph",
        kind: Kind::Graph,
        why: "lollipop + triangle over one Edge relation: the only workload on the leapfrog and \
              hybrid drivers, and parse/load/outputs are a large share",
        seed_varies: "the sparse closing edges of the layered graph",
    },
    Workload {
        name: "serve.hot",
        kind: Kind::ServeHot,
        why: "every timed query is a cone-cache hit: queue, fork, cone lookup and answer \
              extraction are the whole cost",
        seed_varies: "the request order (KG and hot set are fixed)",
    },
    Workload {
        name: "serve.mixed",
        kind: Kind::ServeMixed,
        why: "one request in ten is a durable append that invalidates every cone: misses, layer \
              growth, compaction and fsync, the cache used the other way",
        seed_varies: "the request order and the appended edges (KG and hot set are fixed)",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Kind {
    pub fn is_serve(self) -> bool {
        matches!(self, Kind::ServeHot | Kind::ServeMixed)
    }
}

/// The triangle rule added over the lollipop program's `Edge` relation.
const TRIANGLE_RULES: &str = "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
                              @output(\"Triangle\").";

/// Companies of the `reason.links` graph (persons: twice as many).
fn links_companies(size: Size) -> usize {
    match size {
        Size::Full => 200,
        Size::Quick => 20,
    }
}

/// The program text of a `reason.*` workload.
pub fn reason_input(kind: Kind, size: Size, seed: u64) -> String {
    let program = match kind {
        Kind::Iwarded => scaling::db_size(
            match size {
                Size::Full => 2500,
                Size::Quick => 30,
            },
            seed,
        ),
        Kind::Links => {
            let companies = links_companies(size);
            let facts = dbpedia::company_graph(companies, 2 * companies, 2, TOPOLOGY_SEED);
            dbpedia::with_facts(
                dbpedia::strong_links_program(3),
                relabel_and_shuffle(facts, companies, 2 * companies, seed),
            )
        }
        Kind::Graph => {
            let m = match size {
                Size::Full => 300,
                Size::Quick => 12,
            };
            let mut program = graph::lollipop(m, m, 1, seed);
            program.extend(parse_program(TRIANGLE_RULES).expect("static rules parse"));
            program
        }
        Kind::ServeHot | Kind::ServeMixed => panic!("{kind:?} is not a reason workload"),
    };
    program_to_text(&program)
}

/// Rename `c<i>` / `p<j>` through seeded permutations and shuffle the facts:
/// an isomorphic graph in a different order, so the work is the same and the
/// bytes, the interning order and the `x > y` outcomes are not.
fn relabel_and_shuffle(facts: Vec<Fact>, companies: usize, persons: usize, seed: u64) -> Vec<Fact> {
    let mut rng = SplitMix64::new(seed);
    let mut company_names: Vec<usize> = (0..companies).collect();
    let mut person_names: Vec<usize> = (0..persons).collect();
    rng.shuffle(&mut company_names);
    rng.shuffle(&mut person_names);
    let rename = |v: &Value| -> Value {
        let Value::Str(s) = v else { return v.clone() };
        let index = |digits: &str| {
            digits
                .parse::<usize>()
                .expect("generator names are <letter><index>")
        };
        match s.split_at(1) {
            ("c", i) => Value::string(format!("c{}", company_names[index(i)])),
            ("p", i) => Value::string(format!("p{}", person_names[index(i)])),
            _ => v.clone(),
        }
    };
    let mut out: Vec<Fact> = facts
        .iter()
        .map(|f| Fact::new_sym(f.predicate, f.args.iter().map(rename).collect()))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Shape of a `serve.*` run.
#[derive(Clone, Debug)]
pub struct ServeInput {
    /// PSC program plus the company/person graph.
    pub text: String,
    /// Company indices of the hot set, hottest first.
    pub hot: Vec<usize>,
    companies: usize,
    kind: Kind,
}

/// One request of the closed loop, before it is turned into the server's
/// types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `PSC("c<hot[rank]>", p)`.
    Query { rank: usize },
    /// `Control("c<parent>", "c<child>")`, `parent < child`.
    Append { parent: usize, child: usize },
}

/// In `serve.mixed` every tenth request is an append.
pub const APPEND_EVERY: usize = 10;

pub fn serve_input(kind: Kind, size: Size) -> ServeInput {
    assert!(kind.is_serve(), "{kind:?} is not a serve workload");
    let (companies, hot_len) = match size {
        Size::Full => (20_000, 64),
        Size::Quick => (200, 8),
    };
    let facts = dbpedia::company_graph(companies, 2 * companies, 2, TOPOLOGY_SEED);
    let text = program_to_text(&dbpedia::with_facts(dbpedia::psc_program(), facts));
    let mut rng = SplitMix64::new(TOPOLOGY_SEED ^ 0x0068_6f74);
    let mut hot = Vec::with_capacity(hot_len);
    while hot.len() < hot_len {
        let c = rng.below(companies);
        if !hot.contains(&c) {
            hot.push(c);
        }
    }
    ServeInput {
        text,
        hot,
        companies,
        kind,
    }
}

impl ServeInput {
    /// The endless seeded request list.
    pub fn ops(&self, seed: u64) -> impl Iterator<Item = Op> + '_ {
        let mut rng = SplitMix64::new(seed);
        (1usize..).map(move |n| match self.kind {
            // Skewed towards the first entries, like per-entity lookups.
            Kind::ServeHot => Op::Query {
                rank: rng.log_uniform(self.hot.len()),
            },
            // Uniform, so that most queries after an append are the first
            // ones on their entity since the invalidation: the median stays
            // on the miss path instead of flipping between hit and miss.
            _ if n % APPEND_EVERY != 0 => Op::Query {
                rank: rng.below(self.hot.len()),
            },
            _ => {
                let child = 1 + rng.below(self.companies - 1);
                Op::Append {
                    parent: rng.below(child),
                    child,
                }
            }
        })
    }

    pub fn query(&self, rank: usize) -> Atom {
        Atom {
            predicate: intern("PSC"),
            terms: vec![
                Term::Const(Value::string(format!("c{}", self.hot[rank]))),
                Term::var("p"),
            ],
        }
    }

    pub fn append(parent: usize, child: usize) -> Vec<Fact> {
        vec![Fact::new(
            "Control",
            vec![
                Value::string(format!("c{parent}")),
                Value::string(format!("c{child}")),
            ],
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::text_digest;

    #[test]
    fn names_are_the_five_the_issue_fixes() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "reason.iwarded",
                "reason.links",
                "reason.graph",
                "serve.hot",
                "serve.mixed"
            ]
        );
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(find("serve.hot").is_some_and(|w| w.kind == Kind::ServeHot));
        assert!(find("nope").is_none());
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for kind in [Kind::Iwarded, Kind::Links, Kind::Graph] {
            let a = reason_input(kind, Size::Quick, 7);
            assert_eq!(
                text_digest(&a),
                text_digest(&reason_input(kind, Size::Quick, 7))
            );
            assert_ne!(
                text_digest(&a),
                text_digest(&reason_input(kind, Size::Quick, 8))
            );
            assert!(parse_program(&a).is_ok());
        }
    }

    #[test]
    fn relabelling_keeps_the_graph_isomorphic() {
        let facts = dbpedia::company_graph(30, 60, 2, TOPOLOGY_SEED);
        let relabelled = relabel_and_shuffle(facts.clone(), 30, 60, 9);
        assert_eq!(facts.len(), relabelled.len());
        let shape = |fs: &[Fact]| {
            let mut counts = std::collections::BTreeMap::new();
            for f in fs {
                *counts.entry(f.predicate_name()).or_insert(0usize) += 1;
            }
            counts
        };
        assert_eq!(shape(&facts), shape(&relabelled));
        // every company and person still occurs exactly once as an entity
        let entities = |fs: &[Fact], pred: &str| {
            let mut names: Vec<String> = fs
                .iter()
                .filter(|f| f.predicate_name() == pred)
                .map(|f| f.args[0].to_string())
                .collect();
            names.sort();
            names
        };
        assert_eq!(
            entities(&facts, "Company"),
            entities(&relabelled, "Company")
        );
        assert_eq!(entities(&facts, "Person"), entities(&relabelled, "Person"));
        assert_ne!(facts, relabelled);
    }

    #[test]
    fn request_lists_are_seeded_and_shaped() {
        let hot = serve_input(Kind::ServeHot, Size::Quick);
        let a: Vec<Op> = hot.ops(5).take(200).collect();
        assert_eq!(a, hot.ops(5).take(200).collect::<Vec<_>>());
        assert_ne!(a, hot.ops(6).take(200).collect::<Vec<_>>());
        assert!(a
            .iter()
            .all(|op| matches!(op, Op::Query { rank } if *rank < hot.hot.len())));

        let mixed = serve_input(Kind::ServeMixed, Size::Quick);
        assert_eq!(mixed.text, hot.text);
        assert_eq!(mixed.hot, hot.hot);
        let ops: Vec<Op> = mixed.ops(5).take(200).collect();
        let appends: Vec<_> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Append { .. }))
            .collect();
        assert_eq!(appends.len(), 200 / APPEND_EVERY);
        assert!(appends.iter().all(|(i, op)| (i + 1) % APPEND_EVERY == 0
            && matches!(op, Op::Append { parent, child } if parent < child && *child < 200)));
        let mut distinct = hot.hot.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), hot.hot.len());
    }
}
