//! # vadalog-model
//!
//! The shared data model underlying the Vadalog reproduction.
//!
//! This crate defines everything the rest of the workspace talks about:
//!
//! * [`Value`] — typed constants and *labelled nulls* (the ν values produced
//!   by existential quantification during the chase),
//! * [`Term`] — constants or variables as they appear in rules,
//! * [`Atom`] and [`Fact`] — predicate applications over terms / values,
//! * [`Rule`], [`Program`] — existential rules (tuple-generating
//!   dependencies), negative constraints, equality-generating dependencies,
//!   conditions, assignments and monotonic aggregations, together with the
//!   `@`-annotations of the Vadalog surface language,
//! * the isomorphism machinery of Section 3 of the paper
//!   ([`iso`]): fact isomorphism (bijection on labelled nulls),
//!   pattern-isomorphism (bijections on both constants and nulls) and
//!   homomorphism checks between instances.
//!
//! All downstream crates (`vadalog-parser`, `vadalog-analysis`,
//! `vadalog-rewrite`, `vadalog-chase`, `vadalog-engine`) operate on these
//! types, so the crate is intentionally dependency-light and allocation
//! conscious: predicate and variable names are interned ([`Sym`]), facts are
//! plain `Vec<Value>` tuples and every canonical form used as a hash key is
//! computed without intermediate maps where possible.

pub mod atom;
pub mod expr;
pub mod fact;
pub mod fxhash;
pub mod iso;
pub mod program;
pub mod rule;
pub mod substitution;
pub mod symbol;
pub mod sync;
pub mod term;
pub mod value;

pub use atom::Atom;
pub use expr::{AggFunc, Aggregation, BinOp, CmpOp, Expr, UnaryOp};
pub use fact::Fact;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use iso::{
    facts_isomorphic, facts_pattern_isomorphic, find_homomorphism, homomorphically_equivalent,
    is_homomorphic, iso_key, pattern_key, row_iso_key, row_pattern_key, IsoKey, PatternKey,
    RowCanonTerm, RowIsoKey,
};
pub use program::{Annotation, AnnotationKind, Program};
pub use rule::{Assignment, Condition, HeadAtom, Literal, Rule, RuleHead, RuleId};
pub use substitution::Substitution;
pub use symbol::{intern, resolve, Sym};
pub use term::{Term, Var};
pub use value::{
    find_value_id, intern_rows, intern_value, intern_values, order_key_of, order_keys_of,
    resolve_value, resolve_values, NullFactory, NullId, OrderKey, Value, ValueId,
};

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use crate::atom::Atom;
    pub use crate::expr::{AggFunc, Aggregation, BinOp, CmpOp, Expr, UnaryOp};
    pub use crate::fact::Fact;
    pub use crate::fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
    pub use crate::program::{Annotation, AnnotationKind, Program};
    pub use crate::rule::{Assignment, Condition, HeadAtom, Literal, Rule, RuleHead, RuleId};
    pub use crate::substitution::Substitution;
    pub use crate::symbol::{intern, resolve, Sym};
    pub use crate::term::{Term, Var};
    pub use crate::value::{
        find_value_id, intern_rows, intern_value, intern_values, order_key_of, order_keys_of,
        resolve_value, resolve_values, NullFactory, NullId, OrderKey, Value, ValueId,
    };
}
