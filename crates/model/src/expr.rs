//! Expressions, conditions, comparison operators, Skolem terms and monotonic
//! aggregations (Section 5 of the paper: "Expressions", "Skolem Functions",
//! "Monotonic Aggregation").

use crate::substitution::Substitution;
use crate::symbol::{intern, Sym};
use crate::term::{Term, Var};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators usable in rule-body conditions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on two values.
    ///
    /// Comparisons involving a labelled null are only defined for equality /
    /// inequality (nulls are compared by identity); ordering a null against
    /// anything yields `false`, mirroring the paper's requirement that
    /// conditions effectively bind to ground values.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Neq => left != right,
            _ => {
                if left.is_null() || right.is_null() {
                    return false;
                }
                let ord = match left.numeric_cmp(right) {
                    Some(o) => o,
                    None => left.cmp(right),
                };
                match self {
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                    CmpOp::Eq | CmpOp::Neq => unreachable!(),
                }
            }
        }
    }

    /// Evaluate the comparison on two **interned** values, resolving them
    /// only when their order keys tie.
    ///
    /// Equality is id equality (equal values intern to equal ids), ordering
    /// goes through [`OrderKey`](crate::value::OrderKey) first: unequal keys
    /// decide the comparison outright (the key order is a monotone
    /// refinement of [`CmpOp::eval`]'s effective order), null-class operands
    /// short-circuit to `false` like in [`CmpOp::eval`], and only key ties
    /// fall back to resolving both sides. This is the id-level condition
    /// check the engine's join guards use — zero resolutions on the typical
    /// probe.
    pub fn eval_ids(self, left: crate::value::ValueId, right: crate::value::ValueId) -> bool {
        use crate::value::{order_key_of, resolve_value};
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Neq => left != right,
            _ => {
                if left == right {
                    let key = order_key_of(left);
                    if key.is_null_class() {
                        return false;
                    }
                    return matches!(self, CmpOp::Le | CmpOp::Ge);
                }
                let (lk, rk) = (order_key_of(left), order_key_of(right));
                if lk.is_null_class() || rk.is_null_class() {
                    return false;
                }
                match lk.cmp(&rk) {
                    Ordering::Less => matches!(self, CmpOp::Lt | CmpOp::Le),
                    Ordering::Greater => matches!(self, CmpOp::Gt | CmpOp::Ge),
                    Ordering::Equal => self.eval(&resolve_value(left), &resolve_value(right)),
                }
            }
        }
    }

    /// Flip the operator as if the operands were swapped (`<` becomes `>`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Binary arithmetic / string operators available in expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition (numeric) or concatenation (strings).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Mod,
    /// Exponentiation.
    Pow,
    /// Boolean and.
    And,
    /// Boolean or.
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "^",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Monotonic aggregation functions (Section 5, "Monotonic Aggregation").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    /// Monotonic sum (`msum`).
    MSum,
    /// Monotonic count (`mcount`).
    MCount,
    /// Monotonic minimum (`mmin`).
    MMin,
    /// Monotonic maximum (`mmax`).
    MMax,
    /// Monotonic product (`mprod`).
    MProd,
    /// Monotonic set union (`munion`).
    MUnion,
}

impl AggFunc {
    /// Parse an aggregation function by its surface name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "msum" => AggFunc::MSum,
            "mcount" => AggFunc::MCount,
            "mmin" => AggFunc::MMin,
            "mmax" => AggFunc::MMax,
            "mprod" => AggFunc::MProd,
            "munion" => AggFunc::MUnion,
            _ => return None,
        })
    }

    /// Surface name of the function.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::MSum => "msum",
            AggFunc::MCount => "mcount",
            AggFunc::MMin => "mmin",
            AggFunc::MMax => "mmax",
            AggFunc::MProd => "mprod",
            AggFunc::MUnion => "munion",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A monotonic aggregation occurrence `maggr(x, ⟨c1, ..., cm⟩)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Aggregation {
    /// The aggregation function.
    pub func: AggFunc,
    /// The aggregated expression (the paper's `x`).
    pub arg: Box<Expr>,
    /// Contributor variables (the paper's `⟨c̄⟩`, used for windowing).
    pub contributors: Vec<Var>,
}

impl fmt::Display for Aggregation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}", self.func, self.arg)?;
        if !self.contributors.is_empty() {
            write!(f, ", <")?;
            for (i, c) in self.contributors.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ">")?;
        }
        write!(f, ")")
    }
}

/// Errors produced while evaluating an expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A variable in the expression is not bound by the substitution.
    UnboundVariable(Var),
    /// The operands have types the operator does not support.
    TypeError(String),
    /// Aggregations are stateful and must be evaluated by the engine's
    /// aggregation operator, not by plain expression evaluation.
    AggregateInPlainExpr,
    /// Skolem terms require a Skolem context (see the engine crate).
    SkolemWithoutContext,
    /// Division by zero or similar arithmetic failure.
    Arithmetic(String),
    /// Unknown function name in a call.
    UnknownFunction(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            EvalError::TypeError(m) => write!(f, "type error: {m}"),
            EvalError::AggregateInPlainExpr => {
                write!(f, "aggregation must be evaluated by the engine")
            }
            EvalError::SkolemWithoutContext => {
                write!(f, "skolem term requires a skolem context")
            }
            EvalError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            EvalError::UnknownFunction(m) => write!(f, "unknown function: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An expression usable in conditions and assignments.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A term (constant or variable).
    Term(Term),
    /// Unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call (string/date/type-conversion operators).
    Call(Sym, Vec<Expr>),
    /// Skolem function term `#f(e1, ..., en)`.
    Skolem(Sym, Vec<Expr>),
    /// Monotonic aggregation.
    Aggregate(Aggregation),
}

impl Expr {
    /// Shorthand: a variable expression.
    pub fn var(name: &str) -> Expr {
        Expr::Term(Term::var(name))
    }

    /// Shorthand: a constant expression.
    pub fn constant(v: impl Into<Value>) -> Expr {
        Expr::Term(Term::Const(v.into()))
    }

    /// Shorthand: a built-in function call.
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Call(intern(name), args)
    }

    /// Shorthand: a Skolem term.
    pub fn skolem(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Skolem(intern(name), args)
    }

    /// All variables mentioned by the expression (deduplicated, in first
    /// occurrence order).
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Term(Term::Var(v)) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Term(Term::Const(_)) => {}
            Expr::Unary(_, e) => e.collect_variables(out),
            Expr::Binary(_, a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
            Expr::Call(_, args) | Expr::Skolem(_, args) => {
                for a in args {
                    a.collect_variables(out);
                }
            }
            Expr::Aggregate(agg) => {
                agg.arg.collect_variables(out);
                for c in &agg.contributors {
                    if !out.contains(c) {
                        out.push(*c);
                    }
                }
            }
        }
    }

    /// Does the expression contain an aggregation?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate(_) => true,
            Expr::Term(_) => false,
            Expr::Unary(_, e) => e.contains_aggregate(),
            Expr::Binary(_, a, b) => a.contains_aggregate() || b.contains_aggregate(),
            Expr::Call(_, args) | Expr::Skolem(_, args) => {
                args.iter().any(Expr::contains_aggregate)
            }
        }
    }

    /// Does the expression contain a Skolem term? Skolem evaluation is
    /// stateful (it consults and extends the engine's Skolem/null registry),
    /// so conditions may not be reordered across assignments containing one.
    pub fn contains_skolem(&self) -> bool {
        match self {
            Expr::Skolem(_, _) => true,
            Expr::Term(_) => false,
            Expr::Unary(_, e) => e.contains_skolem(),
            Expr::Binary(_, a, b) => a.contains_skolem() || b.contains_skolem(),
            Expr::Call(_, args) => args.iter().any(Expr::contains_skolem),
            Expr::Aggregate(agg) => agg.arg.contains_skolem(),
        }
    }

    /// The aggregation inside this expression, if there is exactly one at the
    /// top level or nested.
    pub fn find_aggregate(&self) -> Option<&Aggregation> {
        match self {
            Expr::Aggregate(a) => Some(a),
            Expr::Term(_) => None,
            Expr::Unary(_, e) => e.find_aggregate(),
            Expr::Binary(_, a, b) => a.find_aggregate().or_else(|| b.find_aggregate()),
            Expr::Call(_, args) | Expr::Skolem(_, args) => {
                args.iter().find_map(Expr::find_aggregate)
            }
        }
    }

    /// Evaluate the expression under a substitution.
    ///
    /// Aggregations and Skolem terms are *not* evaluated here — they need
    /// engine state (group tables, the Skolem/null registry); callers in the
    /// engine crate substitute them before calling `eval`.
    pub fn eval(&self, subst: &Substitution) -> Result<Value, EvalError> {
        match self {
            Expr::Term(Term::Const(v)) => Ok(v.clone()),
            Expr::Term(Term::Var(v)) => {
                subst.get(*v).cloned().ok_or(EvalError::UnboundVariable(*v))
            }
            Expr::Unary(op, e) => {
                let v = e.eval(subst)?;
                eval_unary(*op, &v)
            }
            Expr::Binary(op, a, b) => {
                let va = a.eval(subst)?;
                let vb = b.eval(subst)?;
                eval_binary(*op, &va, &vb)
            }
            Expr::Call(name, args) => {
                let vals: Result<Vec<Value>, EvalError> =
                    args.iter().map(|a| a.eval(subst)).collect();
                eval_call(&name.as_str(), &vals?)
            }
            Expr::Skolem(_, _) => Err(EvalError::SkolemWithoutContext),
            Expr::Aggregate(_) => Err(EvalError::AggregateInPlainExpr),
        }
    }
}

fn eval_unary(op: UnaryOp, v: &Value) -> Result<Value, EvalError> {
    match op {
        UnaryOp::Neg => match v {
            Value::Int(i) => checked(i.checked_neg(), "-"),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(EvalError::TypeError(format!("cannot negate {other}"))),
        },
        UnaryOp::Not => match v {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EvalError::TypeError(format!("cannot apply not to {other}"))),
        },
    }
}

fn eval_binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    use Value::*;
    match op {
        BinOp::Add => match (a, b) {
            (Int(x), Int(y)) => checked(x.checked_add(*y), "+"),
            (Str(x), Str(y)) => Ok(Value::string(format!("{x}{y}"))),
            _ => numeric(op, a, b, |x, y| Ok(x + y)),
        },
        BinOp::Sub => match (a, b) {
            (Int(x), Int(y)) => checked(x.checked_sub(*y), "-"),
            _ => numeric(op, a, b, |x, y| Ok(x - y)),
        },
        BinOp::Mul => match (a, b) {
            (Int(x), Int(y)) => checked(x.checked_mul(*y), "*"),
            _ => numeric(op, a, b, |x, y| Ok(x * y)),
        },
        BinOp::Div => match (a, b) {
            (Int(_), Int(0)) => Err(EvalError::Arithmetic("division by zero".into())),
            (Int(x), Int(y)) => checked(x.checked_div(*y), "/"),
            _ => numeric(op, a, b, |x, y| {
                if y == 0.0 {
                    Err(EvalError::Arithmetic("division by zero".into()))
                } else {
                    Ok(x / y)
                }
            }),
        },
        BinOp::Mod => match (a, b) {
            (Int(_), Int(0)) => Err(EvalError::Arithmetic("modulo by zero".into())),
            (Int(x), Int(y)) => checked(x.checked_rem(*y), "%"),
            _ => numeric(op, a, b, |x, y| Ok(x % y)),
        },
        BinOp::Pow => numeric(op, a, b, |x, y| Ok(x.powf(y))),
        BinOp::And => match (a, b) {
            (Bool(x), Bool(y)) => Ok(Bool(*x && *y)),
            _ => Err(EvalError::TypeError(format!("{a} && {b}"))),
        },
        BinOp::Or => match (a, b) {
            (Bool(x), Bool(y)) => Ok(Bool(*x || *y)),
            _ => Err(EvalError::TypeError(format!("{a} || {b}"))),
        },
    }
}

/// An `Int` result, or [`EvalError::Arithmetic`] when the `i64` operation
/// `op` overflowed: integer arithmetic neither wraps nor panics, so a match
/// whose expression overflows derives nothing, as division by zero does.
fn checked(result: Option<i64>, op: &str) -> Result<Value, EvalError> {
    result
        .map(Value::Int)
        .ok_or_else(|| EvalError::Arithmetic(format!("integer overflow in `{op}`")))
}

fn numeric(
    op: BinOp,
    a: &Value,
    b: &Value,
    f: impl Fn(f64, f64) -> Result<f64, EvalError>,
) -> Result<Value, EvalError> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok(Value::Float(f(x, y)?)),
        _ => Err(EvalError::TypeError(format!("{a} {op} {b}"))),
    }
}

fn eval_call(name: &str, args: &[Value]) -> Result<Value, EvalError> {
    match (name, args) {
        ("startsWith", [Value::Str(a), Value::Str(b)]) => Ok(Value::Bool(a.starts_with(&**b))),
        ("endsWith", [Value::Str(a), Value::Str(b)]) => Ok(Value::Bool(a.ends_with(&**b))),
        ("contains", [Value::Str(a), Value::Str(b)]) => Ok(Value::Bool(a.contains(&**b))),
        ("substring", [Value::Str(a), Value::Int(from), Value::Int(to)]) => {
            let from = (*from).max(0) as usize;
            let to = (*to).max(0) as usize;
            let s: String = a.chars().skip(from).take(to.saturating_sub(from)).collect();
            Ok(Value::string(s))
        }
        ("indexOf", [Value::Str(a), Value::Str(b)]) => {
            Ok(Value::Int(a.find(&**b).map(|i| i as i64).unwrap_or(-1)))
        }
        ("length", [Value::Str(a)]) => Ok(Value::Int(a.chars().count() as i64)),
        ("upper", [Value::Str(a)]) => Ok(Value::string(a.to_uppercase())),
        ("lower", [Value::Str(a)]) => Ok(Value::string(a.to_lowercase())),
        ("concat", args) => {
            let mut s = String::new();
            for a in args {
                match a {
                    Value::Str(x) => s.push_str(x),
                    other => s.push_str(&other.to_string()),
                }
            }
            Ok(Value::string(s))
        }
        ("abs", [v]) => match v {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(EvalError::TypeError(format!("abs({other})"))),
        },
        ("toInt", [v]) => match v {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Int(*f as i64)),
            Value::Str(s) => s
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|e| EvalError::TypeError(e.to_string())),
            other => Err(EvalError::TypeError(format!("toInt({other})"))),
        },
        ("toFloat", [v]) => match v {
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Float(f) => Ok(Value::Float(*f)),
            Value::Str(s) => s
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|e| EvalError::TypeError(e.to_string())),
            other => Err(EvalError::TypeError(format!("toFloat({other})"))),
        },
        ("toString", [v]) => Ok(match v {
            Value::Str(s) => Value::Str(s.clone()),
            other => Value::string(other.to_string()),
        }),
        ("min", [a, b]) => Ok(if a <= b { a.clone() } else { b.clone() }),
        ("max", [a, b]) => Ok(if a >= b { a.clone() } else { b.clone() }),
        _ => Err(EvalError::UnknownFunction(format!("{name}/{}", args.len()))),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "!({e})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Skolem(name, args) => {
                write!(f, "#{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Aggregate(a) => write!(f, "{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NullId;

    fn subst(pairs: &[(&str, Value)]) -> Substitution {
        pairs
            .iter()
            .map(|(n, v)| (Var::new(n), v.clone()))
            .collect()
    }

    #[test]
    fn cmp_on_numbers_and_strings() {
        assert!(CmpOp::Gt.eval(&Value::Float(0.6), &Value::Float(0.5)));
        assert!(CmpOp::Ge.eval(&Value::Int(3), &Value::Float(3.0)));
        assert!(CmpOp::Lt.eval(&Value::str("a"), &Value::str("b")));
        assert!(!CmpOp::Lt.eval(&Value::str("b"), &Value::str("a")));
        assert!(CmpOp::Neq.eval(&Value::Int(1), &Value::str("1")));
    }

    #[test]
    fn ordering_a_null_is_false_but_equality_works() {
        let n = Value::Null(NullId(4));
        assert!(!CmpOp::Gt.eval(&n, &Value::Int(0)));
        assert!(!CmpOp::Lt.eval(&n, &Value::Int(0)));
        assert!(CmpOp::Eq.eval(&n, &Value::Null(NullId(4))));
        assert!(CmpOp::Neq.eval(&n, &Value::Null(NullId(5))));
    }

    #[test]
    fn eval_ids_agrees_with_eval_on_tricky_pairs() {
        use crate::value::intern_value;
        let values = vec![
            Value::Int(-2),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::str("abc"),
            Value::str("abd"),
            Value::str("same-8-byte-prefix-1"),
            Value::str("same-8-byte-prefix-2"),
            Value::Bool(true),
            Value::Date(100),
            Value::Null(NullId(40)),
            Value::Null(NullId(41)),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for a in &values {
            for b in &values {
                let (ia, ib) = (intern_value(a), intern_value(b));
                for op in ops {
                    assert_eq!(
                        op.eval_ids(ia, ib),
                        op.eval(a, b),
                        "eval_ids diverges on {a} {op} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn flipped_round_trips() {
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn arithmetic_evaluation() {
        let s = subst(&[("w", Value::Float(0.3)), ("v", Value::Float(0.4))]);
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::var("w")),
            Box::new(Expr::var("v")),
        );
        assert_eq!(e.eval(&s).unwrap(), Value::Float(0.7));

        let int_mul = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::constant(6i64)),
            Box::new(Expr::constant(7i64)),
        );
        assert_eq!(int_mul.eval(&Substitution::new()).unwrap(), Value::Int(42));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = Expr::Binary(
            BinOp::Div,
            Box::new(Expr::constant(1i64)),
            Box::new(Expr::constant(0i64)),
        );
        assert!(matches!(
            e.eval(&Substitution::new()),
            Err(EvalError::Arithmetic(_))
        ));
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let bin = |op, a: i64, b: i64| {
            Expr::Binary(op, Box::new(Expr::constant(a)), Box::new(Expr::constant(b)))
                .eval(&Substitution::new())
        };
        for (op, a, b) in [
            (BinOp::Add, i64::MAX, 1),
            (BinOp::Sub, i64::MIN, 1),
            (BinOp::Mul, i64::MAX, 2),
            (BinOp::Div, i64::MIN, -1),
            (BinOp::Mod, i64::MIN, -1),
        ] {
            assert!(
                matches!(bin(op, a, b), Err(EvalError::Arithmetic(_))),
                "{a} {op} {b}"
            );
        }
        assert_eq!(
            bin(BinOp::Add, i64::MAX - 1, 1).unwrap(),
            Value::Int(i64::MAX)
        );
        let neg = Expr::Unary(UnaryOp::Neg, Box::new(Expr::constant(i64::MIN)));
        assert!(matches!(
            neg.eval(&Substitution::new()),
            Err(EvalError::Arithmetic(_))
        ));
    }

    #[test]
    fn string_functions() {
        let s = subst(&[("n", Value::str("Premier Foods"))]);
        let starts = Expr::call(
            "startsWith",
            vec![Expr::var("n"), Expr::constant("Premier")],
        );
        assert_eq!(starts.eval(&s).unwrap(), Value::Bool(true));
        let len = Expr::call("length", vec![Expr::var("n")]);
        assert_eq!(len.eval(&s).unwrap(), Value::Int(13));
        let up = Expr::call("upper", vec![Expr::constant("hsb")]);
        assert_eq!(up.eval(&Substitution::new()).unwrap(), Value::str("HSB"));
    }

    #[test]
    fn unbound_variable_is_reported() {
        let e = Expr::var("missing");
        assert_eq!(
            e.eval(&Substitution::new()),
            Err(EvalError::UnboundVariable(Var::new("missing")))
        );
    }

    #[test]
    fn aggregate_detection_and_variables() {
        let agg = Expr::Aggregate(Aggregation {
            func: AggFunc::MSum,
            arg: Box::new(Expr::var("w")),
            contributors: vec![Var::new("y")],
        });
        assert!(agg.contains_aggregate());
        assert_eq!(agg.variables(), vec![Var::new("w"), Var::new("y")]);
        assert!(agg.find_aggregate().is_some());
        assert_eq!(
            agg.eval(&Substitution::new()),
            Err(EvalError::AggregateInPlainExpr)
        );
    }

    #[test]
    fn skolem_requires_context() {
        let e = Expr::skolem("f", vec![Expr::constant(1i64)]);
        assert_eq!(
            e.eval(&Substitution::new()),
            Err(EvalError::SkolemWithoutContext)
        );
    }

    #[test]
    fn display_forms() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::var("x")),
            Box::new(Expr::constant(1i64)),
        );
        assert_eq!(e.to_string(), "(x + 1)");
        let agg = Expr::Aggregate(Aggregation {
            func: AggFunc::MSum,
            arg: Box::new(Expr::var("w")),
            contributors: vec![Var::new("y")],
        });
        assert_eq!(agg.to_string(), "msum(w, <y>)");
    }

    #[test]
    fn agg_func_names_round_trip() {
        for f in [
            AggFunc::MSum,
            AggFunc::MCount,
            AggFunc::MMin,
            AggFunc::MMax,
            AggFunc::MProd,
            AggFunc::MUnion,
        ] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("sum"), None);
    }
}
