//! Elementary logic rewritings: multiple-head elimination, existential
//! isolation and redundancy elimination.
//!
//! Every pass rewrites rules and annotations only: its output carries no
//! facts, so a pass never copies the extensional database. Callers load the
//! EDB from the source program (see [`crate::prepare_rules`]).

use std::collections::BTreeSet;
use vadalog_model::prelude::*;

/// Counter used to generate unique auxiliary predicate names within one
/// optimizer run.
#[derive(Default)]
struct FreshNames {
    counter: usize,
}

impl FreshNames {
    fn aux(&mut self, prefix: &str) -> String {
        let name = format!("{prefix}_{}", self.counter);
        self.counter += 1;
        name
    }
}

/// A convenience wrapper bundling the individual passes; equivalent to
/// calling the free functions in sequence.
#[derive(Default)]
pub struct LogicOptimizer;

impl LogicOptimizer {
    /// Create an optimizer.
    pub fn new() -> Self {
        Self
    }

    /// Apply multiple-head elimination, existential isolation and redundancy
    /// elimination (without harmful-join elimination, which is a separate,
    /// more expensive pass). Like every pass, the result carries no facts.
    pub fn optimize(&self, program: &Program) -> Program {
        let p = eliminate_multiple_heads(program);
        let p = isolate_existentials(&p);
        eliminate_redundancies(&p)
    }
}

/// Split rules with multiple head atoms into single-head rules.
///
/// When head atoms share existential variables (as in rule 4 of Example 6,
/// `Incorp(x, y) → ∃z∃w1∃w2 Own(z, x, w1), Own(z, y, w2)`), a naive split
/// would let the two copies invent *different* nulls for `z`. To preserve the
/// semantics an auxiliary predicate carrying the frontier and the shared
/// existential variables is introduced:
///
/// ```text
/// Incorp(x, y) -> MH_0(x, y, z).
/// MH_0(x, y, z) -> Own(z, x, w1).
/// MH_0(x, y, z) -> Own(z, y, w2).
/// ```
pub fn eliminate_multiple_heads(program: &Program) -> Program {
    let mut fresh = FreshNames::default();
    let mut out = Program {
        rules: Vec::new(),
        facts: Vec::new(),
        annotations: program.annotations.clone(),
    };
    for rule in &program.rules {
        match &rule.head {
            RuleHead::Atoms(atoms) if atoms.len() > 1 => {
                let existentials = rule.existential_variables();
                // Existential variables shared by at least two head atoms.
                let mut shared: BTreeSet<Var> = BTreeSet::new();
                for v in &existentials {
                    let holders = atoms
                        .iter()
                        .filter(|a| a.variable_set().contains(v))
                        .count();
                    if holders > 1 {
                        shared.insert(*v);
                    }
                }
                if shared.is_empty() {
                    for atom in atoms {
                        out.rules.push(Rule {
                            label: rule.label.clone(),
                            body: rule.body.clone(),
                            head: RuleHead::Atoms(vec![atom.clone()]),
                        });
                    }
                } else {
                    // Auxiliary predicate over frontier ∪ shared existentials.
                    let frontier = rule.frontier_variables();
                    let mut aux_vars: Vec<Var> = frontier.into_iter().collect();
                    aux_vars.extend(shared.iter().copied());
                    let aux_name = fresh.aux("MH");
                    let aux_atom = Atom {
                        predicate: intern(&aux_name),
                        terms: aux_vars.iter().map(|v| Term::Var(*v)).collect(),
                    };
                    out.rules.push(Rule {
                        label: rule.label.clone(),
                        body: rule.body.clone(),
                        head: RuleHead::Atoms(vec![aux_atom.clone()]),
                    });
                    for atom in atoms {
                        out.rules.push(Rule {
                            label: rule.label.clone(),
                            body: vec![Literal::Atom(aux_atom.clone())],
                            head: RuleHead::Atoms(vec![atom.clone()]),
                        });
                    }
                }
            }
            _ => out.rules.push(rule.clone()),
        }
    }
    out
}

/// Confine existential quantification to linear rules (precondition 2 of
/// Algorithm 1): every non-linear rule with existential head variables is
/// split through an auxiliary predicate carrying its frontier.
///
/// ```text
/// PSC(x, p), Controls(x, y) -> Owns(p, s, y).
/// ```
/// becomes
/// ```text
/// PSC(x, p), Controls(x, y) -> EX_0(p, y).
/// EX_0(p, y) -> Owns(p, s, y).
/// ```
pub fn isolate_existentials(program: &Program) -> Program {
    let mut fresh = FreshNames::default();
    let mut out = Program {
        rules: Vec::new(),
        facts: Vec::new(),
        annotations: program.annotations.clone(),
    };
    for rule in &program.rules {
        let needs_split = rule.is_tgd()
            && !rule.is_linear()
            && rule.has_existentials()
            && rule.head_atoms().len() == 1;
        if !needs_split {
            out.rules.push(rule.clone());
            continue;
        }
        let frontier: Vec<Var> = rule.frontier_variables().into_iter().collect();
        let aux_name = fresh.aux("EX");
        let aux_atom = Atom {
            predicate: intern(&aux_name),
            terms: frontier.iter().map(|v| Term::Var(*v)).collect(),
        };
        out.rules.push(Rule {
            label: rule.label.clone(),
            body: rule.body.clone(),
            head: RuleHead::Atoms(vec![aux_atom.clone()]),
        });
        out.rules.push(Rule {
            label: rule.label.clone(),
            body: vec![Literal::Atom(aux_atom)],
            head: rule.head.clone(),
        });
    }
    out
}

/// Remove duplicate rules and trivial tautologies (a single-head rule whose
/// head atom is syntactically one of its body atoms).
pub fn eliminate_redundancies(program: &Program) -> Program {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out = Program {
        rules: Vec::new(),
        facts: Vec::new(),
        annotations: program.annotations.clone(),
    };
    for rule in &program.rules {
        // Tautology: head atom literally appears in the body.
        if let RuleHead::Atoms(atoms) = &rule.head {
            if atoms.len() == 1 && rule.body_atoms().iter().any(|b| **b == atoms[0]) {
                continue;
            }
        }
        let key = rule.to_string();
        if seen.insert(key) {
            out.rules.push(rule.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_analysis::classify;
    use vadalog_parser::parse_program;

    #[test]
    fn multi_head_without_shared_existentials_splits_plainly() {
        let p = parse_program("StrongLink(x, y) -> Linked(x), Linked(y).").unwrap();
        let out = eliminate_multiple_heads(&p);
        assert_eq!(out.rules.len(), 2);
        assert!(out.rules.iter().all(|r| r.head_atoms().len() == 1));
    }

    #[test]
    fn multi_head_with_shared_existential_uses_an_auxiliary() {
        // Example 6, rule 4: the two Own atoms share the existential z.
        let p = parse_program("Incorp(x, y) -> Own(z, x, w1), Own(z, y, w2).").unwrap();
        let out = eliminate_multiple_heads(&p);
        assert_eq!(out.rules.len(), 3);
        // First rule introduces the auxiliary; the next two consume it.
        let aux_pred = out.rules[0].head_atoms()[0].predicate;
        assert!(aux_pred.as_str().starts_with("MH_"));
        assert_eq!(out.rules[1].body_atoms()[0].predicate, aux_pred);
        assert_eq!(out.rules[2].body_atoms()[0].predicate, aux_pred);
        // z is existential in the first rule only, and shared downstream.
        assert!(out.rules[0]
            .existential_variables()
            .contains(&Var::new("z")));
        assert!(!out.rules[1]
            .existential_variables()
            .contains(&Var::new("z")));
    }

    #[test]
    fn existential_isolation_moves_existentials_to_linear_rules() {
        let p = parse_program(
            "Company(x) -> Owns(p, s, x).\n\
             PSC(x, p), Controls(x, y) -> Owns(p, s, y).",
        )
        .unwrap();
        let out = isolate_existentials(&p);
        assert_eq!(out.rules.len(), 3);
        for r in &out.rules {
            if r.has_existentials() {
                assert!(
                    r.is_linear(),
                    "existentials must be confined to linear rules: {r}"
                );
            }
        }
        // The program is still warded after the transformation.
        assert!(classify(&out).is_warded);
    }

    #[test]
    fn redundancy_elimination_drops_duplicates_and_tautologies() {
        let p = parse_program(
            "Own(x, y, w) -> SoftLink(x, y).\n\
             Own(x, y, w) -> SoftLink(x, y).\n\
             SoftLink(x, y) -> SoftLink(x, y).",
        )
        .unwrap();
        let out = eliminate_redundancies(&p);
        assert_eq!(out.rules.len(), 1);
    }

    #[test]
    fn optimizer_composes_the_passes() {
        let p = parse_program(
            "Incorp(x, y) -> Own(z, x, w1), Own(z, y, w2).\n\
             Own(x, y, w) -> SoftLink(x, y).\n\
             Own(x, y, w) -> SoftLink(x, y).",
        )
        .unwrap();
        let out = LogicOptimizer::new().optimize(&p);
        assert!(out.rules.iter().all(|r| r.head_atoms().len() <= 1));
        // duplicate SoftLink rule removed
        let softlink_rules = out
            .rules
            .iter()
            .filter(|r| r.head_predicates().contains(&intern("SoftLink")))
            .count();
        assert_eq!(softlink_rules, 1);
        for r in &out.rules {
            if r.has_existentials() {
                assert!(r.is_linear());
            }
        }
    }

    #[test]
    fn annotations_are_preserved_and_facts_left_to_the_caller() {
        let p = parse_program(
            "@input(\"Own\").\nOwn(\"a\", \"b\", 0.6).\nOwn(x, y, w) -> SoftLink(x, y).",
        )
        .unwrap();
        let out = LogicOptimizer::new().optimize(&p);
        assert!(out.facts.is_empty());
        assert_eq!(out.annotations.len(), 1);
        assert_eq!(out.rules.len(), 1);
    }
}
