//! DBpedia-style company/person graphs and the four reasoning tasks of
//! Section 6.3 (PSC, AllPSC, SpecStrongLinks, AllStrongLinks).
//!
//! The real DBpedia dump (~67K companies, ~1.5M persons) is replaced by a
//! seeded synthetic generator with the same shape: a control DAG built from
//! parent-company chains plus a key-person relation assigning persons to
//! companies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

/// Generate the extensional facts of a company/person graph.
///
/// * `companies` companies named `c0..`, each with a `Company` fact;
/// * `persons` persons named `p0..`, each with a `Person` fact;
/// * every company except roots gets a `Control(parent, child)` edge whose
///   parent is an earlier company (long control chains, as in the paper);
/// * each company receives up to `key_persons_per_company` `KeyPerson`
///   facts.
pub fn company_graph(
    companies: usize,
    persons: usize,
    key_persons_per_company: usize,
    seed: u64,
) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut facts = Vec::new();
    for c in 0..companies {
        facts.push(Fact::new("Company", vec![Value::string(format!("c{c}"))]));
        if c > 0 {
            // Prefer recent parents: produces long chains with some fan-out.
            let parent = if rng.gen_bool(0.7) {
                c - 1
            } else {
                rng.gen_range(0..c)
            };
            facts.push(Fact::new(
                "Control",
                vec![
                    Value::string(format!("c{parent}")),
                    Value::string(format!("c{c}")),
                ],
            ));
        }
    }
    for p in 0..persons {
        facts.push(Fact::new("Person", vec![Value::string(format!("p{p}"))]));
    }
    if persons > 0 {
        for c in 0..companies {
            let k = rng.gen_range(0..=key_persons_per_company);
            for _ in 0..k {
                let p = rng.gen_range(0..persons);
                facts.push(Fact::new(
                    "KeyPerson",
                    vec![
                        Value::string(format!("c{c}")),
                        Value::string(format!("p{p}")),
                    ],
                ));
            }
        }
    }
    facts
}

/// The PSC program (Example 11): persons with significant control, direct or
/// inherited along the control hierarchy.
pub fn psc_program() -> Program {
    parse_program(
        "KeyPerson(x, p), Person(p) -> PSC(x, p).\n\
         Control(y, x), PSC(y, p) -> PSC(x, p).\n\
         @output(\"PSC\").",
    )
    .expect("static program parses")
}

/// The AllPSC program (Example 12): group all PSCs of a company into one set
/// with `munion`.
pub fn all_psc_program() -> Program {
    parse_program(
        "KeyPerson(x, p), Person(p) -> PSC(x, p).\n\
         Control(y, x), PSC(y, p) -> PSC(x, p).\n\
         PSC(x, p), j = munion(p) -> AllPSC(x, j).\n\
         @output(\"AllPSC\").",
    )
    .expect("static program parses")
}

/// AllPSC with the strong-links program's existential
/// `Company(x) -> PSC(x, p)`: every company gets an anonymous person of
/// significant control that propagates down its control chains, so the
/// termination strategy has labelled nulls to compare (Figure 7).
pub fn all_psc_anonymous_program() -> Program {
    parse_program(
        "KeyPerson(x, p), Person(p) -> PSC(x, p).\n\
         Company(x) -> PSC(x, p).\n\
         Control(y, x), PSC(y, p) -> PSC(x, p).\n\
         PSC(x, p), j = munion(p) -> AllPSC(x, j).\n\
         @output(\"AllPSC\").",
    )
    .expect("static program parses")
}

/// The strong-links program (Example 13): companies sharing at least
/// `min_shared` persons of significant control, with an existential PSC for
/// companies that have none.
pub fn strong_links_program(min_shared: i64) -> Program {
    parse_program(&format!(
        "KeyPerson(x, p) -> PSC(x, p).\n\
         Company(x) -> PSC(x, p).\n\
         Control(y, x), PSC(y, p) -> PSC(x, p).\n\
         PSC(x, p), PSC(y, p), x > y, w = mcount(p), w >= {min_shared} -> StrongLink(x, y, w).\n\
         @output(\"StrongLink\")."
    ))
    .expect("static program parses")
}

/// SpecStrongLinks: strong links of one specific company only.
pub fn spec_strong_links_program(company: &str, min_shared: i64) -> Program {
    parse_program(&format!(
        "KeyPerson(x, p) -> PSC(x, p).\n\
         Company(x) -> PSC(x, p).\n\
         Control(y, x), PSC(y, p) -> PSC(x, p).\n\
         PSC(x, p), PSC(y, p), x == \"{company}\", x > y, w = mcount(p), w >= {min_shared} -> StrongLink(x, y, w).\n\
         @output(\"StrongLink\")."
    ))
    .expect("static program parses")
}

/// Bundle a program with generated facts.
pub fn with_facts(mut program: Program, facts: Vec<Fact>) -> Program {
    for f in facts {
        program.add_fact(f);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_engine::Reasoner;

    #[test]
    fn graph_generation_is_deterministic_and_shaped() {
        let a = company_graph(50, 200, 2, 42);
        let b = company_graph(50, 200, 2, 42);
        assert_eq!(a, b);
        let controls = a.iter().filter(|f| f.predicate_name() == "Control").count();
        assert_eq!(controls, 49);
        let companies = a.iter().filter(|f| f.predicate_name() == "Company").count();
        assert_eq!(companies, 50);
    }

    #[test]
    fn psc_propagates_along_control_chains() {
        let facts = company_graph(30, 60, 2, 7);
        let program = with_facts(psc_program(), facts);
        let result = Reasoner::new().reason(&program).unwrap();
        let psc = result.output("PSC");
        let keypersons = program
            .facts
            .iter()
            .filter(|f| f.predicate_name() == "KeyPerson")
            .count();
        // transitive closure can only add to the direct assignments
        assert!(psc.len() >= keypersons.min(1));
    }

    #[test]
    fn strong_links_smoke_test() {
        let facts = company_graph(20, 30, 3, 11);
        let program = with_facts(strong_links_program(1), facts);
        let result = Reasoner::new().reason(&program).unwrap();
        // No panic, reasonable sizes, and every strong link has a count >= 1.
        for f in result.output("StrongLink") {
            assert!(f.args[2].as_f64().unwrap_or(0.0) >= 1.0);
        }
    }
}
