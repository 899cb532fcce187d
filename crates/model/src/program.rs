//! Programs: a set of rules plus inline facts and `@`-annotations.

use crate::fact::Fact;
use crate::rule::{Rule, RuleId};
use crate::symbol::{intern, Sym};
use std::collections::BTreeSet;
use std::fmt;

/// The kind of an `@`-annotation (Section 5, "Annotations").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnnotationKind {
    /// `@input("P")` — P is an extensional (source) predicate.
    Input,
    /// `@output("P")` — P is a sink / answer predicate (the paper's `Ans`).
    Output,
    /// `@bind("P", "source spec")` — bind P to an external source.
    Bind,
    /// `@qbind("P", "query spec")` — bind P to an external query.
    QBind,
    /// `@mapping("P", position, "column")` — harmonise named and positional
    /// perspectives.
    Mapping,
    /// `@post("P", "directive")` — post-processing directive (sorting,
    /// SQL-style aggregation, certain-answer filtering).
    Post,
}

impl AnnotationKind {
    /// The surface keyword of the annotation.
    pub fn keyword(&self) -> &'static str {
        match self {
            AnnotationKind::Input => "input",
            AnnotationKind::Output => "output",
            AnnotationKind::Bind => "bind",
            AnnotationKind::QBind => "qbind",
            AnnotationKind::Mapping => "mapping",
            AnnotationKind::Post => "post",
        }
    }

    /// Parse an annotation keyword.
    pub fn from_keyword(kw: &str) -> Option<AnnotationKind> {
        Some(match kw {
            "input" => AnnotationKind::Input,
            "output" => AnnotationKind::Output,
            "bind" => AnnotationKind::Bind,
            "qbind" => AnnotationKind::QBind,
            "mapping" => AnnotationKind::Mapping,
            "post" => AnnotationKind::Post,
            _ => return None,
        })
    }
}

/// An `@`-annotation attached to a predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Annotation {
    /// The annotation kind.
    pub kind: AnnotationKind,
    /// The annotated predicate.
    pub predicate: Sym,
    /// Further positional arguments (source specs, directives, ...).
    pub args: Vec<String>,
}

impl Annotation {
    /// Convenience constructor.
    pub fn new(kind: AnnotationKind, predicate: &str, args: Vec<String>) -> Self {
        Annotation {
            kind,
            predicate: intern(predicate),
            args,
        }
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}(\"{}\"", self.kind.keyword(), self.predicate)?;
        for a in &self.args {
            write!(f, ", \"{a}\"")?;
        }
        write!(f, ").")
    }
}

/// A Vadalog program: rules, inline facts and annotations.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Program {
    /// The rules, in source order. `RuleId(i)` refers to `rules[i]`.
    pub rules: Vec<Rule>,
    /// Inline facts (ground atoms written directly in the program text).
    pub facts: Vec<Fact>,
    /// Annotations.
    pub annotations: Vec<Annotation>,
}

impl Program {
    /// The empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a program from rules only.
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        Program {
            rules,
            facts: Vec::new(),
            annotations: Vec::new(),
        }
    }

    /// Append a rule, returning its id.
    pub fn add_rule(&mut self, rule: Rule) -> RuleId {
        self.rules.push(rule);
        RuleId((self.rules.len() - 1) as u32)
    }

    /// Append an inline fact.
    pub fn add_fact(&mut self, fact: Fact) {
        self.facts.push(fact);
    }

    /// Append an annotation.
    pub fn add_annotation(&mut self, annotation: Annotation) {
        self.annotations.push(annotation);
    }

    /// Look up a rule by id.
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(id.0 as usize)
    }

    /// Predicates marked `@input`.
    pub fn input_predicates(&self) -> BTreeSet<Sym> {
        self.annotated(AnnotationKind::Input)
    }

    /// Predicates marked `@output` (the answer predicates `Ans`).
    ///
    /// If no `@output` annotation is present, every predicate that appears in
    /// a head but never in a body is treated as an output, which matches how
    /// the paper underlines answer predicates in its examples.
    pub fn output_predicates(&self) -> BTreeSet<Sym> {
        let explicit = self.annotated(AnnotationKind::Output);
        if !explicit.is_empty() {
            return explicit;
        }
        let mut heads = BTreeSet::new();
        let mut bodies = BTreeSet::new();
        for r in &self.rules {
            heads.extend(r.head_predicates());
            bodies.extend(r.body_predicates());
        }
        let derived: BTreeSet<Sym> = heads.difference(&bodies).copied().collect();
        if derived.is_empty() {
            heads
        } else {
            derived
        }
    }

    /// Predicates with an annotation of the given kind.
    pub fn annotated(&self, kind: AnnotationKind) -> BTreeSet<Sym> {
        self.annotations
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.predicate)
            .collect()
    }

    /// Extensional predicates: those marked `@input`, plus every predicate
    /// that occurs in the facts or only in rule bodies.
    pub fn edb_predicates(&self) -> BTreeSet<Sym> {
        let mut out = self.input_predicates();
        for f in &self.facts {
            out.insert(f.predicate);
        }
        let mut heads = BTreeSet::new();
        let mut bodies = BTreeSet::new();
        for r in &self.rules {
            heads.extend(r.head_predicates());
            bodies.extend(r.body_predicates());
            for a in r.negated_atoms() {
                bodies.insert(a.predicate);
            }
        }
        out.extend(bodies.difference(&heads).copied());
        out
    }

    /// All predicates mentioned anywhere in the program.
    pub fn all_predicates(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for r in &self.rules {
            out.extend(r.body_predicates());
            out.extend(r.head_predicates());
            for a in r.negated_atoms() {
                out.insert(a.predicate);
            }
        }
        for f in &self.facts {
            out.insert(f.predicate);
        }
        for a in &self.annotations {
            out.insert(a.predicate);
        }
        out
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the program empty (no rules)?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Merge another program into this one (rules, facts, annotations are
    /// appended).
    pub fn extend(&mut self, other: Program) {
        self.rules.extend(other.rules);
        self.facts.extend(other.facts);
        self.annotations.extend(other.annotations);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.annotations {
            writeln!(f, "{a}")?;
        }
        for fact in &self.facts {
            writeln!(f, "{fact}.")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::rule::Rule;

    fn example3() -> Program {
        // Company(x) → ∃p KeyPerson(p, x)
        // Control(x, y), KeyPerson(p, x) → KeyPerson(p, y)
        let mut p = Program::new();
        p.add_rule(Rule::tgd(
            vec![Atom::vars("Company", &["x"])],
            vec![Atom::vars("KeyPerson", &["p", "x"])],
        ));
        p.add_rule(Rule::tgd(
            vec![
                Atom::vars("Control", &["x", "y"]),
                Atom::vars("KeyPerson", &["p", "x"]),
            ],
            vec![Atom::vars("KeyPerson", &["p", "y"])],
        ));
        p
    }

    #[test]
    fn rule_ids_are_positional() {
        let p = example3();
        assert_eq!(p.len(), 2);
        assert!(p.rule(RuleId(0)).unwrap().is_linear());
        assert!(!p.rule(RuleId(1)).unwrap().is_linear());
        assert!(p.rule(RuleId(2)).is_none());
    }

    #[test]
    fn edb_is_derived_from_rule_structure() {
        let p = example3();
        let edb: Vec<String> = p.edb_predicates().iter().map(|s| s.as_str()).collect();
        assert!(edb.contains(&"Company".to_string()));
        assert!(edb.contains(&"Control".to_string()));
        // KeyPerson is a head predicate (it also appears in a body).
        assert!(!edb.contains(&"KeyPerson".to_string()));
    }

    #[test]
    fn output_defaults_to_head_only_predicates_then_all_heads() {
        let p = example3();
        // KeyPerson appears in both heads and bodies, and nothing else is a
        // head: fall back to all head predicates.
        let out: Vec<String> = p.output_predicates().iter().map(|s| s.as_str()).collect();
        assert_eq!(out, vec!["KeyPerson".to_string()]);
    }

    #[test]
    fn explicit_output_annotation_wins() {
        let mut p = example3();
        p.add_annotation(Annotation::new(AnnotationKind::Output, "Company", vec![]));
        let out: Vec<String> = p.output_predicates().iter().map(|s| s.as_str()).collect();
        assert_eq!(out, vec!["Company".to_string()]);
    }

    #[test]
    fn annotation_keywords_round_trip() {
        for k in [
            AnnotationKind::Input,
            AnnotationKind::Output,
            AnnotationKind::Bind,
            AnnotationKind::QBind,
            AnnotationKind::Mapping,
            AnnotationKind::Post,
        ] {
            assert_eq!(AnnotationKind::from_keyword(k.keyword()), Some(k));
        }
        assert_eq!(AnnotationKind::from_keyword("nope"), None);
    }

    #[test]
    fn extend_merges_programs() {
        let mut p = example3();
        let mut q = Program::new();
        q.add_fact(Fact::new("Company", vec!["HSBC".into()]));
        q.add_annotation(Annotation::new(AnnotationKind::Input, "Company", vec![]));
        p.extend(q);
        assert_eq!(p.facts.len(), 1);
        assert_eq!(p.annotations.len(), 1);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn display_emits_parseable_text_shape() {
        let p = example3();
        let text = p.to_string();
        assert!(text.contains("Company(x) -> KeyPerson(p, x)."));
        assert!(text.contains("Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y)."));
    }
}
