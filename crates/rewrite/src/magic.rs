//! Magic-sets transformation for query-driven reasoning.
//!
//! The paper lists magic sets among the "typical optimizations of Datalog
//! (foreseen as a future optimization)" that systems like RDFox and DLV
//! already apply (Sections 6.1, 6.5 and 7). This module implements the
//! classical transformation for the Datalog fragment of Vadalog: given a
//! query atom with some arguments bound to constants, it produces an adorned
//! program whose evaluation only derives facts *relevant* to the query,
//! together with the magic seed fact.
//!
//! The transformation is restricted to the fragment where it is sound and
//! complete in its textbook form:
//!
//! * no existential quantification in the heads of the rules that (directly
//!   or transitively) define the query predicate,
//! * no aggregation, negation, EGDs or negative constraints on that slice,
//! * single-atom heads (run [`crate::eliminate_multiple_heads`] first —
//!   [`crate::prepare_rules`] already does).
//!
//! Programs outside this slice are reported via [`MagicSetError`], and the
//! engine then simply answers the query bottom-up without the optimization.
//!
//! The rewritten **rules** depend only on the query's *adornment* (which
//! positions are bound), never on the bound constants themselves — those
//! appear solely in the magic seed fact. Query sessions exploit this: one
//! compilation per `(predicate, adornment)` pair serves every constant
//! vector, with a fresh seed interned per query (see the crate docs).

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use vadalog_model::prelude::*;

/// An adornment: one flag per argument position of a predicate, `true` when
/// the position is bound at call time.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Adornment(pub Vec<bool>);

impl Adornment {
    /// The adornment of a query atom: constants are bound, variables free.
    pub fn of_query(query: &Atom) -> Self {
        Adornment(query.terms.iter().map(Term::is_const).collect())
    }

    /// The conventional `b`/`f` string, e.g. `bf` for a bound-free binary
    /// predicate.
    pub fn suffix(&self) -> String {
        self.0.iter().map(|b| if *b { 'b' } else { 'f' }).collect()
    }

    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.0.iter().filter(|b| **b).count()
    }

    /// Is every position free (in which case magic sets cannot restrict
    /// anything)?
    pub fn is_all_free(&self) -> bool {
        self.bound_count() == 0
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.suffix())
    }
}

/// Why the magic-sets transformation refused a program/query pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MagicSetError {
    /// The query predicate is never derived by any rule (it is purely
    /// extensional), so there is nothing to optimize.
    QueryIsExtensional(String),
    /// A rule relevant to the query has existential quantification.
    ExistentialRule(String),
    /// A rule relevant to the query uses aggregation.
    AggregateRule(String),
    /// A rule relevant to the query uses negation.
    NegatedAtom(String),
    /// A rule relevant to the query is a constraint or EGD.
    NonTgdRule(String),
    /// A rule relevant to the query has a multi-atom head (normalise first).
    MultiAtomHead(String),
    /// The query binds nothing, so the transformation would be a no-op.
    NoBoundArguments,
}

impl fmt::Display for MagicSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MagicSetError::QueryIsExtensional(p) => {
                write!(f, "query predicate {p} is extensional; nothing to optimise")
            }
            MagicSetError::ExistentialRule(r) => {
                write!(f, "rule relevant to the query has existentials: {r}")
            }
            MagicSetError::AggregateRule(r) => {
                write!(f, "rule relevant to the query has aggregation: {r}")
            }
            MagicSetError::NegatedAtom(r) => {
                write!(f, "rule relevant to the query has negation: {r}")
            }
            MagicSetError::NonTgdRule(r) => {
                write!(f, "rule relevant to the query is a constraint/EGD: {r}")
            }
            MagicSetError::MultiAtomHead(r) => {
                write!(f, "rule relevant to the query has a multi-atom head: {r}")
            }
            MagicSetError::NoBoundArguments => {
                write!(
                    f,
                    "the query has no bound arguments; magic sets would not restrict anything"
                )
            }
        }
    }
}

impl std::error::Error for MagicSetError {}

/// The result of the transformation.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten program: adorned rules, magic rules, the bridges that
    /// feed stored rows of derived predicates into their adorned copies, the
    /// magic seed fact, a copy of the input program's facts (none when it
    /// carries none — the engine passes rules only and loads the EDB
    /// itself), and a bridge rule from the adorned query predicate back to
    /// the original query predicate name.
    pub program: Program,
    /// The adorned name of the query predicate (`p__bf` style).
    pub adorned_query: Sym,
    /// Number of adorned rules produced.
    pub adorned_rules: usize,
    /// Number of magic rules produced.
    pub magic_rules: usize,
}

fn adorned_name(predicate: Sym, adornment: &Adornment) -> String {
    format!("{}__{}", predicate.as_str(), adornment.suffix())
}

fn magic_name(predicate: Sym, adornment: &Adornment) -> String {
    format!("m_{}__{}", predicate.as_str(), adornment.suffix())
}

/// The intensional predicates of a program (those derived by some TGD head).
pub fn intensional_predicates(program: &Program) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    for r in &program.rules {
        for a in r.head_atoms() {
            out.insert(a.predicate);
        }
    }
    out
}

/// The predicates on which the query predicate (transitively) depends.
fn relevant_predicates(program: &Program, query_predicate: Sym) -> BTreeSet<Sym> {
    let mut relevant = BTreeSet::from([query_predicate]);
    let mut queue = VecDeque::from([query_predicate]);
    while let Some(p) = queue.pop_front() {
        for r in &program.rules {
            if r.head_atoms().iter().any(|h| h.predicate == p) {
                for b in r.body_atoms() {
                    if relevant.insert(b.predicate) {
                        queue.push_back(b.predicate);
                    }
                }
            }
        }
    }
    relevant
}

/// Check that the slice of the program relevant to the query is inside the
/// fragment where the textbook transformation applies.
fn check_applicable(program: &Program, query: &Atom) -> Result<(), MagicSetError> {
    let adornment = Adornment::of_query(query);
    if adornment.is_all_free() {
        return Err(MagicSetError::NoBoundArguments);
    }
    let idb = intensional_predicates(program);
    if !idb.contains(&query.predicate) {
        return Err(MagicSetError::QueryIsExtensional(
            query.predicate.as_str().to_string(),
        ));
    }
    let relevant = relevant_predicates(program, query.predicate);
    for r in &program.rules {
        let head_preds = r.head_predicates();
        let is_relevant = head_preds.iter().any(|p| relevant.contains(p));
        if !is_relevant {
            continue;
        }
        if !r.is_tgd() {
            return Err(MagicSetError::NonTgdRule(r.to_string()));
        }
        if r.head_atoms().len() > 1 {
            return Err(MagicSetError::MultiAtomHead(r.to_string()));
        }
        if r.has_existentials() {
            return Err(MagicSetError::ExistentialRule(r.to_string()));
        }
        if r.has_aggregation() {
            return Err(MagicSetError::AggregateRule(r.to_string()));
        }
        if !r.negated_atoms().is_empty() {
            return Err(MagicSetError::NegatedAtom(r.to_string()));
        }
    }
    Ok(())
}

/// Apply the magic-sets transformation to `program` for the given query atom.
///
/// The query atom uses constants for bound arguments and variables for free
/// ones, e.g. `Control("hsbc", y)` asks for everything controlled by `hsbc`.
/// On success the returned program derives, for the *original* query
/// predicate name, exactly the query-relevant subset of the facts the full
/// program would derive (see the property tests).
///
/// `edb` names the predicates that hold extensional rows when the program
/// runs — its facts, `@bind` sources, or a session's stored base; the
/// program itself may carry no facts. An adorned predicate `p` that rules
/// derive *and* rows populate gets the bridge rule
/// `m_p__a(b̄), p(x̄) -> p__a(x̄)`, so its stored rows reach the adorned
/// copy; without one only the derived rows would. Other predicates get no
/// bridge, so a program without that shape rewrites exactly as before.
pub fn magic_sets(
    program: &Program,
    query: &Atom,
    edb: &BTreeSet<Sym>,
) -> Result<MagicProgram, MagicSetError> {
    check_applicable(program, query)?;

    let idb = intensional_predicates(program);
    let query_adornment = Adornment::of_query(query);

    // Worklist over (predicate, adornment) pairs.
    let mut pending: VecDeque<(Sym, Adornment)> =
        VecDeque::from([(query.predicate, query_adornment.clone())]);
    let mut seen: BTreeSet<(Sym, Adornment)> = BTreeSet::new();

    let mut out = Program::new();
    let mut adorned_rules = 0usize;
    let mut magic_rules = 0usize;

    while let Some((predicate, adornment)) = pending.pop_front() {
        if !seen.insert((predicate, adornment.clone())) {
            continue;
        }
        if edb.contains(&predicate) {
            let vars: Vec<Term> = (0..adornment.0.len())
                .map(|i| Term::var(&format!("v{i}")))
                .collect();
            let magic_atom = Atom {
                predicate: intern(&magic_name(predicate, &adornment)),
                terms: vars
                    .iter()
                    .zip(&adornment.0)
                    .filter(|(_, bound)| **bound)
                    .map(|(t, _)| t.clone())
                    .collect(),
            };
            out.add_rule(Rule::new(
                vec![
                    Literal::Atom(magic_atom),
                    Literal::Atom(Atom {
                        predicate,
                        terms: vars.clone(),
                    }),
                ],
                Atom {
                    predicate: intern(&adorned_name(predicate, &adornment)),
                    terms: vars,
                },
            ));
        }
        for rule in &program.rules {
            let Some(head) = rule.head_atoms().first().copied().cloned() else {
                continue;
            };
            if head.predicate != predicate {
                continue;
            }

            // Variables bound by the head adornment.
            let mut bound: BTreeSet<Var> = BTreeSet::new();
            for (term, is_bound) in head.terms.iter().zip(adornment.0.iter()) {
                if *is_bound {
                    if let Some(v) = term.as_var() {
                        bound.insert(v);
                    }
                }
            }

            // The magic atom guarding this rule: the bound head arguments.
            let magic_head_terms: Vec<Term> = head
                .terms
                .iter()
                .zip(adornment.0.iter())
                .filter(|(_, b)| **b)
                .map(|(t, _)| t.clone())
                .collect();
            let magic_head_atom = Atom {
                predicate: intern(&magic_name(predicate, &adornment)),
                terms: magic_head_terms,
            };

            // Build the adorned rule body, emitting magic rules for IDB atoms
            // via left-to-right sideways information passing.
            let mut new_body: Vec<Literal> = vec![Literal::Atom(magic_head_atom.clone())];
            let mut sip_prefix: Vec<Literal> = vec![Literal::Atom(magic_head_atom.clone())];

            for literal in &rule.body {
                match literal {
                    Literal::Atom(atom) if idb.contains(&atom.predicate) => {
                        // Adornment of this call site: bound iff the variable
                        // is bound by the head or an earlier body literal.
                        let call_adornment = Adornment(
                            atom.terms
                                .iter()
                                .map(|t| match t {
                                    Term::Const(_) => true,
                                    Term::Var(v) => bound.contains(v),
                                })
                                .collect(),
                        );
                        // magic rule: m_q^a(bound args) :- sip prefix. For an
                        // all-free call the magic atom is nullary — derived
                        // exactly when the call site is reachable — so the
                        // adorned q^ff rules still fire (a free call restricts
                        // nothing, but it must not *block* either).
                        let magic_body_atom = Atom {
                            predicate: intern(&magic_name(atom.predicate, &call_adornment)),
                            terms: atom
                                .terms
                                .iter()
                                .zip(call_adornment.0.iter())
                                .filter(|(_, b)| **b)
                                .map(|(t, _)| t.clone())
                                .collect(),
                        };
                        out.add_rule(Rule::new(sip_prefix.clone(), magic_body_atom));
                        magic_rules += 1;
                        pending.push_back((atom.predicate, call_adornment.clone()));
                        // the adorned occurrence in the rewritten rule
                        let adorned_atom = Atom {
                            predicate: intern(&adorned_name(atom.predicate, &call_adornment)),
                            terms: atom.terms.clone(),
                        };
                        new_body.push(Literal::Atom(adorned_atom.clone()));
                        sip_prefix.push(Literal::Atom(adorned_atom));
                        bound.extend(atom.variables());
                    }
                    Literal::Atom(atom) => {
                        // EDB atom: kept as-is, binds its variables.
                        new_body.push(literal.clone());
                        sip_prefix.push(literal.clone());
                        bound.extend(atom.variables());
                    }
                    Literal::Assignment(a) => {
                        new_body.push(literal.clone());
                        sip_prefix.push(literal.clone());
                        bound.insert(a.var);
                    }
                    Literal::Condition(_) | Literal::Negated(_) => {
                        new_body.push(literal.clone());
                        sip_prefix.push(literal.clone());
                    }
                }
            }

            // The adorned rule itself.
            let adorned_head = Atom {
                predicate: intern(&adorned_name(predicate, &adornment)),
                terms: head.terms.clone(),
            };
            out.add_rule(Rule::new(new_body, adorned_head));
            adorned_rules += 1;
        }
    }

    // Magic seed: the bound constants of the query.
    let seed_args: Vec<Value> = query
        .terms
        .iter()
        .filter_map(Term::as_const)
        .cloned()
        .collect();
    out.add_fact(Fact::new(
        &magic_name(query.predicate, &query_adornment),
        seed_args,
    ));

    // Bridge the adorned query predicate back to the original name so that
    // callers (and @output annotations) keep working unchanged.
    let adorned_query = intern(&adorned_name(query.predicate, &query_adornment));
    let bridge_vars: Vec<String> = (0..query.arity()).map(|i| format!("v{i}")).collect();
    let bridge_refs: Vec<&str> = bridge_vars.iter().map(String::as_str).collect();
    out.add_rule(Rule::tgd(
        vec![Atom::vars(&adorned_query.as_str(), &bridge_refs)],
        vec![Atom::vars(&query.predicate.as_str(), &bridge_refs)],
    ));

    // Copy the extensional database and annotations verbatim.
    for f in &program.facts {
        out.add_fact(f.clone());
    }
    for a in &program.annotations {
        out.add_annotation(a.clone());
    }

    Ok(MagicProgram {
        program: out,
        adorned_query,
        adorned_rules,
        magic_rules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_parser::parse_program;

    fn chain_program(n: usize) -> Program {
        let mut program = parse_program(
            "Edge(x, y) -> Reach(x, y).\n\
             Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
             @output(\"Reach\").",
        )
        .unwrap();
        for i in 0..n {
            program.add_fact(Fact::new(
                "Edge",
                vec![
                    Value::str(&format!("n{i}")),
                    Value::str(&format!("n{}", i + 1)),
                ],
            ));
        }
        program
    }

    fn query_from(source: &str) -> Atom {
        Atom {
            predicate: intern("Reach"),
            terms: vec![Term::Const(Value::str(source)), Term::var("y")],
        }
    }

    #[test]
    fn adornments_read_off_the_query() {
        let q = query_from("n0");
        let a = Adornment::of_query(&q);
        assert_eq!(a.suffix(), "bf");
        assert_eq!(a.bound_count(), 1);
        assert!(!a.is_all_free());
    }

    #[test]
    fn transformation_produces_magic_and_adorned_rules() {
        let program = chain_program(5);
        let magic = magic_sets(&program, &query_from("n0"), &BTreeSet::new()).unwrap();
        assert!(magic.adorned_rules >= 2, "both Reach rules must be adorned");
        assert!(
            magic.magic_rules >= 1,
            "the recursive call must get a magic rule"
        );
        // seed fact present
        assert!(magic
            .program
            .facts
            .iter()
            .any(|f| f.predicate_name() == "m_Reach__bf" && f.args == vec![Value::str("n0")]));
    }

    #[test]
    fn all_free_call_sites_get_a_nullary_magic_guard() {
        // A free-bound query turns the recursive rule's Reach call into an
        // all-free call site: its nullary magic guard must still be derived
        // (from the seed), otherwise the adorned ff rules can never fire and
        // the rewrite silently loses answers.
        let program = chain_program(4);
        let q = Atom {
            predicate: intern("Reach"),
            terms: vec![Term::var("x"), Term::Const(Value::str("n4"))],
        };
        let magic = magic_sets(&program, &q, &BTreeSet::new()).unwrap();
        assert!(magic.program.rules.iter().any(|r| r
            .head_atoms()
            .iter()
            .any(|h| { h.predicate.as_str() == "m_Reach__ff" && h.terms.is_empty() })));
    }

    #[test]
    fn unbound_queries_are_rejected() {
        let program = chain_program(3);
        let q = Atom::vars("Reach", &["x", "y"]);
        assert!(matches!(
            magic_sets(&program, &q, &BTreeSet::new()),
            Err(MagicSetError::NoBoundArguments)
        ));
    }

    #[test]
    fn extensional_queries_are_rejected() {
        let program = chain_program(3);
        let q = Atom {
            predicate: intern("Edge"),
            terms: vec![Term::Const(Value::str("n0")), Term::var("y")],
        };
        assert!(matches!(
            magic_sets(&program, &q, &BTreeSet::new()),
            Err(MagicSetError::QueryIsExtensional(_))
        ));
    }

    #[test]
    fn existential_slices_are_rejected() {
        let program = parse_program(
            "Company(x) -> Owns(p, s, x).\n\
             Owns(p, s, x) -> PSC(x, p).",
        )
        .unwrap();
        let q = Atom {
            predicate: intern("PSC"),
            terms: vec![Term::Const(Value::str("acme")), Term::var("p")],
        };
        assert!(matches!(
            magic_sets(&program, &q, &BTreeSet::new()),
            Err(MagicSetError::ExistentialRule(_))
        ));
    }

    #[test]
    fn irrelevant_existentials_do_not_block_the_rewrite() {
        // The existential rule defines a predicate the query never touches.
        let mut program = chain_program(3);
        program.add_rule(parse_program("Company(x) -> Owns(p, s, x).").unwrap().rules[0].clone());
        assert!(magic_sets(&program, &query_from("n0"), &BTreeSet::new()).is_ok());
    }

    #[test]
    fn stored_rows_of_derived_predicates_are_bridged_into_their_adorned_copies() {
        let rules = |program: &Program| -> Vec<String> {
            program.rules.iter().map(ToString::to_string).collect()
        };
        let edge = BTreeSet::from([intern("Edge")]);
        // `Edge` only stored: the same rules with or without the EDB set.
        let program = chain_program(3);
        let plain = magic_sets(&program, &query_from("n0"), &BTreeSet::new()).unwrap();
        let with_edb = magic_sets(&program, &query_from("n0"), &edge).unwrap();
        assert_eq!(rules(&plain.program), rules(&with_edb.program));

        // `Edge` stored and derived: its adorned copy reads the stored rows.
        let mut program = chain_program(3);
        program.add_rule(
            parse_program("Triangle(x, y, z) -> Edge(z, x).")
                .unwrap()
                .rules[0]
                .clone(),
        );
        let magic = magic_sets(&program, &query_from("n0"), &edge).unwrap();
        let bridge = "m_Edge__bf(v0), Edge(v0, v1) -> Edge__bf(v0, v1)";
        assert!(
            rules(&magic.program).iter().any(|r| r == bridge),
            "{:#?}",
            rules(&magic.program)
        );
        let without = magic_sets(&program, &query_from("n0"), &BTreeSet::new()).unwrap();
        assert_eq!(without.program.rules.len() + 1, magic.program.rules.len());
    }
}
