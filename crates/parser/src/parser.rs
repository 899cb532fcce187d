//! Recursive-descent parser producing [`vadalog_model::Program`]s.
//!
//! The parser pulls tokens from a streaming [`Lexer`] with one token of
//! lookahead and builds a ground clause's [`Fact`] directly from the
//! literal values, without an intermediate atom.

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::{Lexer, SpannedToken, Token};
use vadalog_model::prelude::*;

/// The recursive-descent parser.
///
/// Most users should call [`parse_program`] or [`parse_rule`].
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token and the one after it — all the lookahead the
    /// grammar needs.
    cur: SpannedToken<'a>,
    next: SpannedToken<'a>,
    /// Position of the token [`Parser::bump`] returned last.
    prev: (usize, usize),
    /// The first lexical error. Lexing stops there (the parser sees
    /// `Eof`), and the error wins over any parse result: a program with a
    /// lexical error anywhere reports that error.
    lex_error: Option<ParseError>,
    /// Arguments of the atom being parsed; a fact takes them over as they
    /// are.
    args: Vec<Value>,
    /// The predicate of the last fact, so a run of facts over one
    /// predicate interns its name once.
    last_predicate: Option<(&'a str, Sym)>,
}

/// Parse a whole program (annotations, facts, rules).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    Parser::new(src).program()
}

/// Parse a single rule (without the trailing period being mandatory).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src);
    let rule = match p.statement() {
        Ok(Statement::Rule(r)) => Ok(r),
        Ok(Statement::Fact(_) | Statement::Facts(_)) => {
            Err(p.error_here("expected a rule, found a fact"))
        }
        Ok(Statement::Annotation(_)) => Err(p.error_here("expected a rule, found an annotation")),
        Err(e) => Err(e),
    };
    p.finish(rule)
}

/// A parsed top-level statement.
enum Statement {
    Rule(Rule),
    Fact(Fact),
    Facts(Vec<Fact>),
    Annotation(Annotation),
}

impl<'a> Parser<'a> {
    /// Create a parser over source text.
    pub fn new(src: &'a str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(src),
            cur: SpannedToken {
                token: Token::Eof,
                line: 1,
                column: 1,
            },
            next: SpannedToken {
                token: Token::Eof,
                line: 1,
                column: 1,
            },
            prev: (1, 1),
            lex_error: None,
            args: Vec::new(),
            last_predicate: None,
        };
        parser.cur = parser.lex();
        parser.next = parser.lex();
        parser
    }

    /// The next token from the lexer; `Eof` from the first lexical error on.
    fn lex(&mut self) -> SpannedToken<'a> {
        if self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(t) => return t,
                Err(e) => self.lex_error = Some(e),
            }
        }
        let e = self.lex_error.as_ref().expect("set above");
        SpannedToken {
            token: Token::Eof,
            line: e.line,
            column: e.column,
        }
    }

    /// Settle a parse result: a lexical error anywhere in the input wins,
    /// so the rest of the input is lexed (not parsed) before `result` is
    /// returned.
    fn finish<T>(mut self, result: Result<T, ParseError>) -> Result<T, ParseError> {
        while self.lex_error.is_none() && self.next.token != Token::Eof {
            self.next = self.lex();
        }
        match self.lex_error {
            Some(e) => Err(e),
            None => result,
        }
    }

    fn peek(&self) -> &Token<'a> {
        &self.cur.token
    }

    fn peek_next(&self) -> &Token<'a> {
        &self.next.token
    }

    fn bump(&mut self) -> Token<'a> {
        let after = self.lex();
        let next = std::mem::replace(&mut self.next, after);
        let t = std::mem::replace(&mut self.cur, next);
        self.prev = (t.line, t.column);
        t.token
    }

    fn expect(&mut self, expected: &Token<'_>) -> Result<(), ParseError> {
        if self.peek() == expected {
            self.bump();
            Ok(())
        } else {
            Err(self.error_here(format!("expected '{expected}', found '{}'", self.peek())))
        }
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.cur.line, self.cur.column)
    }

    /// An integer literal's value: its magnitude, negated when `negative`,
    /// with a checked conversion (an out-of-range literal is an error at
    /// the literal, the token [`Parser::bump`] returned last).
    fn int_value(&self, magnitude: u64, negative: bool) -> Result<i64, ParseError> {
        let signed = if negative {
            -i128::from(magnitude)
        } else {
            i128::from(magnitude)
        };
        i64::try_from(signed).map_err(|_| {
            ParseError::new(
                format!("invalid integer literal {magnitude}"),
                self.prev.0,
                self.prev.1,
            )
        })
    }

    /// Parse a complete program.
    pub fn program(mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        let result = self.statements(&mut program);
        self.finish(result.map(|()| program))
    }

    fn statements(&mut self, program: &mut Program) -> Result<(), ParseError> {
        while *self.peek() != Token::Eof {
            match self.statement()? {
                Statement::Rule(r) => {
                    program.add_rule(r);
                }
                Statement::Fact(f) => program.add_fact(f),
                Statement::Facts(fs) => {
                    for f in fs {
                        program.add_fact(f);
                    }
                }
                Statement::Annotation(a) => program.add_annotation(a),
            }
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if *self.peek() == Token::At {
            return Ok(Statement::Annotation(self.annotation()?));
        }
        let start = (self.cur.line, self.cur.column);
        let first = if self.at_atom() {
            let (name, idents) = self.atom_parts()?;
            if matches!(self.peek(), Token::Dot | Token::Eof) {
                // A ground clause of one atom: the fact takes the values.
                self.expect_clause_end()?;
                let predicate = self.predicate(name);
                let args = self.args.drain(..).collect();
                return Ok(Statement::Fact(Fact::new_sym(predicate, args)));
            }
            let atom = self.take_atom(name, &idents);
            self.atom_literal(atom)?
        } else {
            self.conjunct()?
        };
        // Parse the rest of the conjunct list, then decide what kind of
        // clause this is.
        let mut first = vec![first];
        while *self.peek() == Token::Comma {
            self.bump();
            first.push(self.conjunct()?);
        }
        match self.peek() {
            Token::Arrow => {
                self.bump();
                let head = self.head()?;
                self.expect_clause_end()?;
                self.checked_rule(
                    start,
                    Rule {
                        label: None,
                        body: first,
                        head,
                    },
                )
            }
            Token::ColonDash => {
                self.bump();
                // "head :- body": the already-parsed list must be head atoms.
                let mut head_atoms = Vec::with_capacity(first.len());
                for lit in first {
                    match lit {
                        Literal::Atom(a) => head_atoms.push(a),
                        other => {
                            return Err(self.error_here(format!(
                                "only atoms may appear in a rule head, found '{other}'"
                            )))
                        }
                    }
                }
                let body = self.conjunct_list()?;
                self.expect_clause_end()?;
                self.checked_rule(
                    start,
                    Rule {
                        label: None,
                        body,
                        head: RuleHead::Atoms(head_atoms),
                    },
                )
            }
            Token::Dot | Token::Eof => {
                self.expect_clause_end()?;
                // A fact clause: every conjunct must be an atom; bare
                // identifiers become string constants.
                let mut facts = Vec::with_capacity(first.len());
                for lit in first {
                    match lit {
                        Literal::Atom(a) => facts.push(atom_to_fact(&a)),
                        other => {
                            return Err(self.error_here(format!("expected a fact, found '{other}'")))
                        }
                    }
                }
                Ok(Statement::Facts(facts))
            }
            other => Err(self.error_here(format!("expected '->', ':-' or '.', found '{other}'"))),
        }
    }

    /// Accept a parsed rule, or reject one that places an aggregation
    /// outside the form `z = maggr(x, <c̄>)` (the error points at the rule's
    /// first token, at `start`).
    fn checked_rule(&self, start: (usize, usize), rule: Rule) -> Result<Statement, ParseError> {
        let Some(agg) = rule.misplaced_aggregate() else {
            return Ok(Statement::Rule(rule));
        };
        let text = rule.to_string();
        Err(ParseError {
            kind: ParseErrorKind::MisplacedAggregate { rule: text.clone() },
            message: format!(
                "aggregation `{agg}` must be the whole right-hand side of an assignment \
                 `z = maggr(x, <c>)`, in rule `{text}`"
            ),
            line: start.0,
            column: start.1,
        })
    }

    fn expect_clause_end(&mut self) -> Result<(), ParseError> {
        if *self.peek() == Token::Dot {
            self.bump();
            Ok(())
        } else if *self.peek() == Token::Eof {
            Ok(())
        } else {
            Err(self.error_here(format!("expected '.', found '{}'", self.peek())))
        }
    }

    fn annotation(&mut self) -> Result<Annotation, ParseError> {
        self.expect(&Token::At)?;
        let kw = match self.bump() {
            Token::Ident(s) => s,
            other => {
                return Err(self.error_here(format!("expected annotation name, found '{other}'")))
            }
        };
        let kind = AnnotationKind::from_keyword(kw)
            .ok_or_else(|| self.error_here(format!("unknown annotation '@{kw}'")))?;
        self.expect(&Token::LParen)?;
        let mut args: Vec<String> = Vec::new();
        loop {
            match self.bump() {
                Token::Str(s) => args.push(s.into_owned()),
                Token::Ident(s) => args.push(s.to_string()),
                Token::Int(i) => args.push(self.int_value(i, false)?.to_string()),
                Token::Float(f) => args.push(f.to_string()),
                other => {
                    return Err(
                        self.error_here(format!("expected annotation argument, found '{other}'"))
                    )
                }
            }
            match self.bump() {
                Token::Comma => continue,
                Token::RParen => break,
                other => {
                    return Err(self.error_here(format!("expected ',' or ')', found '{other}'")))
                }
            }
        }
        self.expect_clause_end()?;
        if args.is_empty() {
            return Err(self.error_here("annotation needs at least a predicate argument"));
        }
        let predicate = args.remove(0);
        Ok(Annotation::new(kind, &predicate, args))
    }

    fn head(&mut self) -> Result<RuleHead, ParseError> {
        // Falsum head: `false` / `bottom` not followed by '('.
        if let Token::Ident(name) = self.peek() {
            if (*name == "false" || *name == "bottom") && *self.peek_next() != Token::LParen {
                self.bump();
                return Ok(RuleHead::Falsum);
            }
        }
        // Equality head (EGD): ident = ident, with no '(' after the first.
        if matches!(self.peek(), Token::Ident(_)) && *self.peek_next() == Token::Assign {
            let left = match self.bump() {
                Token::Ident(s) => Term::var(s),
                _ => unreachable!(),
            };
            self.bump(); // '='
            let right = match self.bump() {
                Token::Ident(s) => Term::var(s),
                Token::Str(s) => Term::Const(Value::str(&s)),
                Token::Int(i) => Term::Const(Value::Int(self.int_value(i, false)?)),
                Token::Float(f) => Term::Const(Value::Float(f)),
                other => {
                    return Err(self.error_here(format!(
                        "expected term on right-hand side of equality head, found '{other}'"
                    )))
                }
            };
            return Ok(RuleHead::Equality(left, right));
        }
        // Otherwise: a comma-separated list of head atoms.
        let mut atoms = vec![self.atom()?];
        while *self.peek() == Token::Comma {
            self.bump();
            atoms.push(self.atom()?);
        }
        Ok(RuleHead::Atoms(atoms))
    }

    fn conjunct_list(&mut self) -> Result<Vec<Literal>, ParseError> {
        let mut out = vec![self.conjunct()?];
        while *self.peek() == Token::Comma {
            self.bump();
            out.push(self.conjunct()?);
        }
        Ok(out)
    }

    /// Does an atom start here: an identifier that is not an aggregation,
    /// followed by `(`?
    fn at_atom(&self) -> bool {
        matches!(self.peek(), Token::Ident(name) if AggFunc::from_name(name).is_none())
            && *self.peek_next() == Token::LParen
    }

    fn conjunct(&mut self) -> Result<Literal, ParseError> {
        // negation: `not P(x)` or `!P(x)`
        if let Token::Ident(name) = self.peek() {
            if *name == "not" && matches!(self.peek_next(), Token::Ident(_)) {
                self.bump();
                return Ok(Literal::Negated(self.atom()?));
            }
        }
        if *self.peek() == Token::Bang && matches!(self.peek_next(), Token::Ident(_)) {
            self.bump();
            return Ok(Literal::Negated(self.atom()?));
        }
        // assignment: `v = expr`
        if matches!(self.peek(), Token::Ident(_)) && *self.peek_next() == Token::Assign {
            let var = match self.bump() {
                Token::Ident(s) => Var::new(s),
                _ => unreachable!(),
            };
            self.bump(); // '='
            let expr = self.expr()?;
            return Ok(Literal::Assignment(Assignment::new(var, expr)));
        }
        // atom: Ident '(' ...  (unless the ident is an aggregation/builtin
        // used in a condition, which would be written on the RHS instead)
        if self.at_atom() {
            let atom = self.atom()?;
            return self.atom_literal(atom);
        }
        // otherwise: a condition `expr cmp expr`
        let left = self.expr()?;
        let op = self.peek_cmp_op().ok_or_else(|| {
            self.error_here(format!(
                "expected comparison operator, found '{}'",
                self.peek()
            ))
        })?;
        self.bump();
        let right = self.expr()?;
        Ok(Literal::Condition(Condition::new(left, op, right)))
    }

    /// A parsed body atom as a literal: the atom itself, or — when a
    /// comparison operator follows — a condition with a function-style
    /// left-hand side.
    fn atom_literal(&mut self, atom: Atom) -> Result<Literal, ParseError> {
        let Some(op) = self.peek_cmp_op() else {
            return Ok(Literal::Atom(atom));
        };
        self.bump();
        let right = self.expr()?;
        let left = Expr::Call(
            atom.predicate,
            atom.terms.into_iter().map(Expr::Term).collect(),
        );
        Ok(Literal::Condition(Condition::new(left, op, right)))
    }

    fn peek_cmp_op(&self) -> Option<CmpOp> {
        Some(match self.peek() {
            Token::EqEq => CmpOp::Eq,
            Token::Neq => CmpOp::Neq,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let (name, idents) = self.atom_parts()?;
        Ok(self.take_atom(name, &idents))
    }

    /// Parse `name(t1, ..., tn)`, leaving the argument values in
    /// `self.args`. Returns the name and the positions of bare identifiers
    /// (held as string values): variables in a rule, string constants in a
    /// fact — which one is known only at the end of the clause.
    fn atom_parts(&mut self) -> Result<(&'a str, Vec<usize>), ParseError> {
        let name = match self.bump() {
            Token::Ident(s) => s,
            other => {
                return Err(self.error_here(format!("expected predicate name, found '{other}'")))
            }
        };
        self.expect(&Token::LParen)?;
        self.args.clear();
        let mut idents = Vec::new();
        if *self.peek() != Token::RParen {
            loop {
                let value = match self.bump() {
                    Token::Ident("true") => Value::Bool(true),
                    Token::Ident("false") => Value::Bool(false),
                    Token::Ident(s) => {
                        // Interned as a variable name whether the clause
                        // turns out a rule or a fact, so symbol numbering —
                        // and every `Sym`-ordered output — does not depend
                        // on how the clause ends.
                        intern(s);
                        idents.push(self.args.len());
                        Value::str(s)
                    }
                    Token::Str(s) => Value::str(&s),
                    Token::Int(i) => Value::Int(self.int_value(i, false)?),
                    Token::Float(f) => Value::Float(f),
                    Token::Minus => match self.bump() {
                        Token::Int(i) => Value::Int(self.int_value(i, true)?),
                        Token::Float(f) => Value::Float(-f),
                        other => {
                            return Err(self
                                .error_here(format!("expected number after '-', found '{other}'")))
                        }
                    },
                    other => return Err(self.error_here(format!("expected term, found '{other}'"))),
                };
                self.args.push(value);
                match self.bump() {
                    Token::Comma => continue,
                    Token::RParen => break,
                    other => {
                        return Err(self.error_here(format!("expected ',' or ')', found '{other}'")))
                    }
                }
            }
        } else {
            self.bump();
        }
        Ok((name, idents))
    }

    /// The rule atom of [`Parser::atom_parts`]: bare identifiers become
    /// variables, interned before the predicate, in argument order.
    fn take_atom(&mut self, name: &'a str, idents: &[usize]) -> Atom {
        let terms = self
            .args
            .drain(..)
            .enumerate()
            .map(|(i, value)| match value {
                Value::Str(s) if idents.contains(&i) => Term::var(&s),
                value => Term::Const(value),
            })
            .collect();
        Atom {
            predicate: self.predicate(name),
            terms,
        }
    }

    /// Intern a predicate name, reusing the last one's symbol.
    fn predicate(&mut self, name: &'a str) -> Sym {
        match self.last_predicate {
            Some((last, sym)) if last == name => sym,
            _ => {
                let sym = intern(name);
                self.last_predicate = Some((name, sym));
                sym
            }
        }
    }

    /// Expression grammar (precedence climbing):
    /// or → and → additive → multiplicative → power → unary → primary
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while *self.peek() == Token::OrOr {
            self.bump();
            let right = self.and_expr()?;
            left = Expr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.add_expr()?;
        while *self.peek() == Token::AndAnd {
            self.bump();
            let right = self.add_expr()?;
            left = Expr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.mul_expr()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.pow_expr()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.pow_expr()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pow_expr(&mut self) -> Result<Expr, ParseError> {
        let base = self.unary_expr()?;
        if *self.peek() == Token::Caret {
            self.bump();
            // right-associative
            let exp = self.pow_expr()?;
            return Ok(Expr::Binary(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Minus => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Neg, Box::new(self.unary_expr()?)))
            }
            Token::Bang => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Not, Box::new(self.unary_expr()?)))
            }
            _ => self.primary_expr(),
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Token::LParen => {
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::Int(i) => Ok(Expr::constant(self.int_value(i, false)?)),
            Token::Float(f) => Ok(Expr::constant(f)),
            Token::Str(s) => Ok(Expr::Term(Term::Const(Value::str(&s)))),
            Token::Hash => {
                // Skolem term #f(args)
                let name = match self.bump() {
                    Token::Ident(s) => s,
                    other => {
                        return Err(self.error_here(format!(
                            "expected skolem function name after '#', found '{other}'"
                        )))
                    }
                };
                let args = self.call_args()?;
                Ok(Expr::skolem(name, args))
            }
            Token::Ident(name) => {
                if *self.peek() == Token::LParen {
                    if let Some(func) = AggFunc::from_name(name) {
                        return self.aggregation(func);
                    }
                    let args = self.call_args()?;
                    return Ok(Expr::call(name, args));
                }
                match name {
                    "true" => Ok(Expr::constant(true)),
                    "false" => Ok(Expr::constant(false)),
                    _ => Ok(Expr::var(name)),
                }
            }
            other => Err(self.error_here(format!("expected expression, found '{other}'"))),
        }
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if *self.peek() == Token::RParen {
            self.bump();
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            match self.bump() {
                Token::Comma => continue,
                Token::RParen => break,
                other => {
                    return Err(self.error_here(format!("expected ',' or ')', found '{other}'")))
                }
            }
        }
        Ok(args)
    }

    /// Parse `maggr(arg)` or `maggr(arg, <c1, ..., cn>)`.
    fn aggregation(&mut self, func: AggFunc) -> Result<Expr, ParseError> {
        self.expect(&Token::LParen)?;
        let arg = self.expr()?;
        let mut contributors = Vec::new();
        if *self.peek() == Token::Comma {
            self.bump();
            self.expect(&Token::Lt)?;
            loop {
                match self.bump() {
                    Token::Ident(s) => contributors.push(Var::new(s)),
                    other => {
                        return Err(self
                            .error_here(format!("expected contributor variable, found '{other}'")))
                    }
                }
                match self.bump() {
                    Token::Comma => continue,
                    Token::Gt => break,
                    other => {
                        return Err(self.error_here(format!("expected ',' or '>', found '{other}'")))
                    }
                }
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Expr::Aggregate(Aggregation {
            func,
            arg: Box::new(arg),
            contributors,
        }))
    }
}

/// Convert a ground clause atom to a fact, reading bare identifiers as
/// string constants (so `Company(HSBC).` works as written in the paper).
fn atom_to_fact(atom: &Atom) -> Fact {
    let args = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(v) => v.clone(),
            Term::Var(v) => Value::string(v.name()),
        })
        .collect();
    Fact::new_sym(atom.predicate, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example2_company_control() {
        let src = r#"
            % Example 2 of the paper
            Own(x, y, w), w > 0.5 -> Control(x, y).
            Control(x, y), Own(y, z, w), v = msum(w, <y>), v > 0.5 -> Control(x, z).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 2);
        let r2 = &p.rules[1];
        assert_eq!(r2.body_atoms().len(), 2);
        assert_eq!(r2.assignments().len(), 1);
        assert_eq!(r2.conditions().len(), 1);
        assert!(r2.has_aggregation());
        let agg = r2.assignments()[0].expr.find_aggregate().unwrap();
        assert_eq!(agg.func, AggFunc::MSum);
        assert_eq!(agg.contributors, vec![Var::new("y")]);
    }

    #[test]
    fn parses_example7_with_existentials() {
        let src = r#"
            Company(x) -> Owns(p, s, x).
            Owns(p, s, x) -> Stock(x, s).
            Owns(p, s, x) -> PSC(x, p).
            PSC(x, p), Controls(x, y) -> Owns(p, s, y).
            PSC(x, p), PSC(y, p) -> StrongLink(x, y).
            StrongLink(x, y) -> Owns(p, s, x).
            StrongLink(x, y) -> Owns(p, s, y).
            Stock(x, s) -> Company(x).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 8);
        let r1 = &p.rules[0];
        assert_eq!(r1.existential_variables().len(), 2);
        let r4 = &p.rules[3];
        assert_eq!(r4.existential_variables().len(), 1);
        assert!(!r4.is_linear());
    }

    #[test]
    fn parses_facts_with_bare_identifiers_as_constants() {
        let src = r#"
            Company(HSBC). Company(HSB). Company(IBA).
            Controls(HSBC, HSB).
            Own("acme corp", "sub", 0.6).
            Quote(7). Rate(-2.5).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.facts.len(), 7);
        assert_eq!(p.facts[0], Fact::new("Company", vec!["HSBC".into()]));
        assert_eq!(p.facts[5], Fact::new("Quote", vec![Value::Int(7)]));
        assert_eq!(p.facts[6], Fact::new("Rate", vec![Value::Float(-2.5)]));
    }

    #[test]
    fn parses_head_colon_dash_body_form() {
        let src = "Control(x, y) :- Own(x, y, w), w > 0.5.";
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 1);
        let r = &p.rules[0];
        assert_eq!(r.head_atoms()[0].predicate.as_str(), "Control");
        assert_eq!(r.body_atoms()[0].predicate.as_str(), "Own");
    }

    #[test]
    fn parses_constraints_and_egds_from_example6() {
        let src = r#"
            Own(x, y, w) -> SoftLink(x, y).
            SoftLink(x, y) -> SoftLink(y, x).
            Own(z, x, w1), Own(z, y, w2) -> SoftLink(x, y).
            Incorp(x, y) -> Own(z, x, w1), Own(z, y, w2).
            Dom(p), Incorp(y, z), Own(x1, y, w1), Own(x2, z, w1) -> x1 = x2.
            Own(x, x, w) -> false.
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 6);
        assert!(matches!(p.rules[4].head, RuleHead::Equality(_, _)));
        assert!(matches!(p.rules[5].head, RuleHead::Falsum));
        // rule 4 has a multi-atom head
        assert_eq!(p.rules[3].head_atoms().len(), 2);
    }

    #[test]
    fn parses_annotations() {
        let src = r#"
            @input("Own").
            @output("Control").
            @bind("Own", "csv:data/own.csv").
            @mapping("Own", 0, "comp1").
            @post("Control", "orderby(1)").
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.annotations.len(), 5);
        assert_eq!(p.annotations[0].kind, AnnotationKind::Input);
        assert_eq!(p.annotations[2].args, vec!["csv:data/own.csv".to_string()]);
        assert_eq!(p.annotations[3].args.len(), 2);
        assert!(p.input_predicates().contains(&intern("Own")));
        assert!(p.output_predicates().contains(&intern("Control")));
    }

    #[test]
    fn parses_negation_and_skolems_and_builtins() {
        let src = r#"
            Company(x), not Dissolved(x) -> Active(x).
            Employee(x, c), s = #salary(x, c) -> Payroll(x, s).
            Name(x, n), startsWith(n, "Premier") == true -> Flagged(x).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules[0].negated_atoms().len(), 1);
        let sk = &p.rules[1].assignments()[0].expr;
        assert!(matches!(sk, Expr::Skolem(_, _)));
        assert_eq!(p.rules[2].conditions().len(), 1);
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let r = parse_rule("P(x, y), z = x + y * 2 -> Q(z)").unwrap();
        let asg = &r.assignments()[0];
        // x + (y * 2)
        match &asg.expr {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let r2 = parse_rule("P(x), q = (x + 1) * 2 -> Q(q)").unwrap();
        match &r2.assignments()[0].expr {
            Expr::Binary(BinOp::Mul, lhs, _) => {
                assert!(matches!(**lhs, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn mcount_and_munion_with_group_contributors() {
        let src = r#"
            KeyPers(x, p), Pers(p), j = munion(p) -> PSC(x, j).
            PSC(x, p), PSC(y, p), x > y, w = mcount(p), w >= 3 -> StrongLink(x, y, w).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(
            p.rules[0].assignments()[0]
                .expr
                .find_aggregate()
                .unwrap()
                .func,
            AggFunc::MUnion
        );
        assert_eq!(p.rules[1].conditions().len(), 2);
    }

    #[test]
    fn reports_errors_with_positions() {
        let err = parse_program("Own(x, y w) -> Control(x, y).").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected"));

        let err2 = parse_program("@frobnicate(\"P\").").unwrap_err();
        assert!(err2.message.contains("unknown annotation"));

        let err3 = parse_program("P(x) -> ").unwrap_err();
        assert!(err3.message.contains("expected"));
    }

    #[test]
    fn rejects_conditions_in_heads() {
        let err = parse_program("Q(x), x > 1 :- P(x).").unwrap_err();
        assert!(err.message.contains("only atoms"));
    }

    #[test]
    fn aggregations_outside_an_assignment_of_their_own_are_rejected() {
        for (src, rule) in [
            (
                "P(x, y), w = mcount(y) * 10 -> Q(x, w).",
                "P(x, y), w = (mcount(y) * 10) -> Q(x, w)",
            ),
            (
                "P(x, y), mcount(y) > 1 -> Q(x).",
                "P(x, y), mcount(y) > 1 -> Q(x)",
            ),
            (
                "P(x, y), w = msum(mcount(y)) -> Q(x, w).",
                "P(x, y), w = msum(mcount(y)) -> Q(x, w)",
            ),
            (
                "Q(x, w) :- P(x, y), w = 1 + mmax(y).",
                "P(x, y), w = (1 + mmax(y)) -> Q(x, w)",
            ),
        ] {
            let err = parse_program(&format!("P(1, 2).\n{src}")).unwrap_err();
            assert_eq!(
                err.kind,
                ParseErrorKind::MisplacedAggregate {
                    rule: rule.to_string()
                },
                "{src}"
            );
            assert_eq!((err.line, err.column), (2, 1), "{src}");
            assert!(err.message.contains(rule), "{}", err.message);
        }
        // The paper's form, and an aggregate feeding later arithmetic.
        let ok = parse_program("P(x, y), w = mcount(y), v = w * 10 -> Q(x, v).").unwrap();
        assert!(ok.rules[0].misplaced_aggregate().is_none());
    }

    #[test]
    fn empty_argument_atom_is_allowed() {
        let p = parse_program("Tick() -> Tock().").unwrap();
        assert_eq!(p.rules[0].body_atoms()[0].arity(), 0);
    }

    #[test]
    fn i64_min_parses_and_its_bare_magnitude_is_an_error() {
        let p = parse_program("P(-9223372036854775808). P(9223372036854775807).").unwrap();
        assert_eq!(p.facts[0].args[0], Value::Int(i64::MIN));
        assert_eq!(p.facts[1].args[0], Value::Int(i64::MAX));
        let reparsed = parse_program(&crate::program_to_text(&p)).unwrap();
        assert_eq!(reparsed.facts, p.facts);

        let err = parse_program("P(1).\nP(9223372036854775808).").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Syntax);
        assert_eq!((err.line, err.column), (2, 3));
        assert_eq!(err.message, "invalid integer literal 9223372036854775808");
        for src in [
            "P(-9223372036854775809).",
            "P(x), y = 9223372036854775808 -> Q(y).",
            "@output(\"P\", 9223372036854775808).",
        ] {
            let err = parse_program(src).unwrap_err();
            assert!(
                err.message.contains("invalid integer literal"),
                "{src}: {err}"
            );
        }
    }

    #[test]
    fn negative_numbers_in_facts_and_terms() {
        let p = parse_program("Temp(-4). Adjust(x), y = x - -2 -> Out(y).").unwrap();
        assert_eq!(p.facts[0].args[0], Value::Int(-4));
        assert_eq!(p.rules.len(), 1);
    }
}
