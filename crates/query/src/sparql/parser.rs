//! Recursive-descent parser for the SPARQL subset.
//!
//! Nesting is bounded: a query deeper than [`MAX_NESTING`] levels is
//! refused with an ordinary spanned [`QueryParseError`], so neither the
//! parser nor any later walk over the tree it builds (resolution,
//! lowering, evaluation, drop) can overflow a thread's stack.

use super::ast::*;
use super::lexer::{tokenize, LexError, SpannedTok, Tok};
use provbench_rdf::{Iri, Literal, PrefixMap, Term};
use std::fmt;

/// A parse error with a source span, shaped like `rdf::ParseError` and
/// consumable as a `diag`-style [`Span`](provbench_rdf::Span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// 1-based line of the first position past the offending token.
    pub end_line: usize,
    /// 1-based column of the first position past the offending token.
    pub end_column: usize,
    /// Description.
    pub message: String,
}

impl QueryParseError {
    /// The error location as an [`rdf::Span`](provbench_rdf::Span), for
    /// diagnostics rendering.
    pub fn span(&self) -> provbench_rdf::Span {
        provbench_rdf::Span {
            line: self.line,
            column: self.column,
            end_line: self.end_line,
            end_column: self.end_column,
        }
    }
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for QueryParseError {}

impl From<LexError> for QueryParseError {
    fn from(e: LexError) -> Self {
        QueryParseError {
            line: e.line,
            column: e.column,
            end_line: e.line,
            end_column: e.column,
            message: e.message,
        }
    }
}

/// The deepest a query may nest, the one limit of every parser in the
/// workspace. A query counts one level for each group `{ … }`, each
/// OPTIONAL, each parenthesis, each function's argument list and each
/// `!`, and one for each link of a `||`, `&&` or `UNION` chain, which
/// builds a left-deep tree one level taller per link. The deepest
/// accepted query of each of these shapes parses, runs and drops on a
/// thread with a 2 MiB stack, in a debug build too.
pub use provbench_rdf::MAX_NESTING;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    prefixes: PrefixMap,
    /// Nesting levels open at the current token.
    depth: usize,
    /// The deepest level reached so far, chain links included: a chain
    /// reads each operand's height off it.
    deepest: usize,
}

type PResult<T> = Result<T, QueryParseError>;

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// An error spanning the current token.
    fn err_here(&self, message: impl Into<String>) -> QueryParseError {
        self.err_at(self.pos, message)
    }

    /// An error spanning the token at `pos`.
    fn err_at(&self, pos: usize, message: impl Into<String>) -> QueryParseError {
        let t = &self.toks[pos];
        QueryParseError {
            line: t.line,
            column: t.column,
            end_line: t.end_line,
            end_column: t.end_column,
            message: message.into(),
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(self.err_here(message))
    }

    /// The error for a query that crosses [`MAX_NESTING`] at the token
    /// at `pos`.
    fn too_deep(&self, pos: usize) -> QueryParseError {
        self.err_at(pos, format!("query nests deeper than {MAX_NESTING} levels"))
    }

    /// Parse `inner` one nesting level down; the level opens at the
    /// token at `pos`, which the error spans if it is one too many.
    fn nested<T>(&mut self, pos: usize, inner: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep(pos));
        }
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        let parsed = inner(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    /// `operand (link operand)*` as a left-deep tree. Each link puts
    /// the tree built so far and the next operand one level under a new
    /// node; the link that makes the tree deeper than [`MAX_NESTING`]
    /// is refused.
    fn chain<T>(
        &mut self,
        link: impl Fn(&mut Self) -> bool,
        operand: impl Fn(&mut Self) -> PResult<T>,
        join: impl Fn(Box<T>, Box<T>) -> T,
    ) -> PResult<T> {
        let base = self.depth;
        let outer = std::mem::replace(&mut self.deepest, base);
        let mut tree = operand(self)?;
        let mut bottom = self.deepest;
        loop {
            let at = self.pos;
            if !link(self) {
                break;
            }
            self.deepest = base;
            let right = operand(self)?;
            bottom = bottom.max(self.deepest) + 1;
            if bottom > MAX_NESTING {
                return Err(self.too_deep(at));
            }
            tree = join(Box::new(tree), Box::new(right));
        }
        self.deepest = outer.max(bottom);
        Ok(tree)
    }

    /// Consume `tok` if it is next.
    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> PResult<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Keyword(k) if k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> PResult<()> {
        if self.keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    fn expand(&self, prefix: &str, local: &str) -> PResult<Iri> {
        match self.prefixes.get(prefix) {
            Some(ns) => Iri::new(format!("{ns}{local}")).map_err(|_| {
                self.err_here(format!("CURIE {prefix}:{local} expands to an invalid IRI"))
            }),
            None => Err(self.err_here(format!("unbound prefix {prefix:?}"))),
        }
    }

    fn parse_query(&mut self) -> PResult<Query> {
        // Prologue.
        while self.keyword("PREFIX") {
            let (p, l) = match self.bump() {
                Tok::PName(p, l) => (p, l),
                other => return self.err(format!("expected prefix name, found {other:?}")),
            };
            if !l.is_empty() {
                return self.err("prefix declaration must end with a bare `:`");
            }
            let iri = match self.bump() {
                Tok::IriRef(i) => i,
                other => return self.err(format!("expected IRI, found {other:?}")),
            };
            self.prefixes.insert(p, iri);
        }

        // ASK { pattern } — no projections or solution modifiers.
        if self.keyword("ASK") {
            let _ = self.keyword("WHERE");
            let pattern = self.parse_group_graph_pattern()?;
            if !matches!(self.peek(), Tok::Eof) {
                return self.err(format!("unexpected trailing {:?}", self.peek()));
            }
            return Ok(Query {
                form: QueryForm::Ask,
                projections: Vec::new(),
                distinct: false,
                pattern,
                group_by: Vec::new(),
                order_by: Vec::new(),
                limit: Some(1),
                offset: 0,
            });
        }

        self.expect_keyword("SELECT")?;
        let distinct = self.keyword("DISTINCT");
        let mut projections = Vec::new();
        if matches!(self.peek(), Tok::Star) {
            self.bump();
        } else {
            loop {
                match self.peek().clone() {
                    Tok::Var(v) => {
                        self.bump();
                        projections.push(Projection::Var(v));
                    }
                    Tok::OpenParen => {
                        self.bump();
                        projections.push(self.parse_aggregate_projection()?);
                    }
                    _ => break,
                }
            }
            if projections.is_empty() {
                return self.err("SELECT needs at least one projection or `*`");
            }
        }

        // WHERE is optional in SPARQL.
        let _ = self.keyword("WHERE");
        let pattern = self.parse_group_graph_pattern()?;

        let mut group_by = Vec::new();
        if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let Tok::Var(v) = self.peek().clone() {
                self.bump();
                group_by.push(v);
            }
            if group_by.is_empty() {
                return self.err("GROUP BY needs at least one variable");
            }
        }

        let mut order_by = Vec::new();
        if self.keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek().clone() {
                    Tok::Var(v) => {
                        self.bump();
                        order_by.push(OrderKey {
                            var: v,
                            descending: false,
                        });
                    }
                    Tok::Keyword(k) if k == "ASC" || k == "DESC" => {
                        self.bump();
                        self.expect(&Tok::OpenParen, "`(`")?;
                        let v = match self.bump() {
                            Tok::Var(v) => v,
                            other => {
                                return self.err(format!("expected variable, found {other:?}"))
                            }
                        };
                        self.expect(&Tok::CloseParen, "`)`")?;
                        order_by.push(OrderKey {
                            var: v,
                            descending: k == "DESC",
                        });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return self.err("ORDER BY needs at least one key");
            }
        }

        let mut limit = None;
        let mut offset = 0usize;
        loop {
            if self.keyword("LIMIT") {
                match self.bump() {
                    Tok::Integer(n) if n >= 0 => limit = Some(n as usize),
                    other => return self.err(format!("expected limit count, found {other:?}")),
                }
            } else if self.keyword("OFFSET") {
                match self.bump() {
                    Tok::Integer(n) if n >= 0 => offset = n as usize,
                    other => return self.err(format!("expected offset, found {other:?}")),
                }
            } else {
                break;
            }
        }

        if !matches!(self.peek(), Tok::Eof) {
            return self.err(format!("unexpected trailing {:?}", self.peek()));
        }

        Ok(Query {
            form: QueryForm::Select,
            projections,
            distinct,
            pattern,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    /// After the opening `(` of `(COUNT(?x) AS ?alias)`.
    fn parse_aggregate_projection(&mut self) -> PResult<Projection> {
        let func_kw = match self.bump() {
            Tok::Keyword(k) if matches!(k.as_str(), "COUNT" | "MIN" | "MAX") => k,
            other => return self.err(format!("expected aggregate function, found {other:?}")),
        };
        self.expect(&Tok::OpenParen, "`(`")?;
        let (function, var) = match func_kw.as_str() {
            "COUNT" => {
                if matches!(self.peek(), Tok::Star) {
                    self.bump();
                    (AggregateFn::Count, None)
                } else {
                    let distinct = self.keyword("DISTINCT");
                    let v = match self.bump() {
                        Tok::Var(v) => v,
                        other => return self.err(format!("expected variable, found {other:?}")),
                    };
                    (
                        if distinct {
                            AggregateFn::CountDistinct
                        } else {
                            AggregateFn::Count
                        },
                        Some(v),
                    )
                }
            }
            "MIN" | "MAX" => {
                let v = match self.bump() {
                    Tok::Var(v) => v,
                    other => return self.err(format!("expected variable, found {other:?}")),
                };
                (
                    if func_kw == "MIN" {
                        AggregateFn::Min
                    } else {
                        AggregateFn::Max
                    },
                    Some(v),
                )
            }
            _ => unreachable!(),
        };
        self.expect(&Tok::CloseParen, "`)`")?;
        self.expect_keyword("AS")?;
        let alias = match self.bump() {
            Tok::Var(v) => v,
            other => return self.err(format!("expected alias variable, found {other:?}")),
        };
        self.expect(&Tok::CloseParen, "`)`")?;
        Ok(Projection::Aggregate {
            function,
            var,
            alias,
        })
    }

    /// `{ … }`, one nesting level down.
    fn parse_group_graph_pattern(&mut self) -> PResult<GraphPattern> {
        self.nested(self.pos, Self::parse_group_body)
    }

    fn parse_group_body(&mut self) -> PResult<GraphPattern> {
        self.expect(&Tok::OpenBrace, "`{`")?;
        let mut elements: Vec<GraphPattern> = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::CloseBrace => {
                    self.bump();
                    break;
                }
                Tok::Eof => return self.err("unterminated group pattern"),
                Tok::Keyword(k) if k == "OPTIONAL" => {
                    let inner = self.nested(self.pos, |p| {
                        p.bump();
                        p.parse_group_graph_pattern()
                    })?;
                    elements.push(GraphPattern::Optional(Box::new(inner)));
                }
                Tok::Keyword(k) if k == "FILTER" => {
                    // FILTER (expr) or FILTER builtin(...).
                    self.bump();
                    let e = self.parse_primary_expression()?;
                    elements.push(GraphPattern::Filter(e));
                }
                Tok::OpenBrace => {
                    let union = self.chain(
                        |p| p.keyword("UNION"),
                        Self::parse_group_graph_pattern,
                        GraphPattern::Union,
                    )?;
                    elements.push(union);
                }
                Tok::Dot => {
                    self.bump();
                }
                _ => {
                    let triples = self.parse_triples_block()?;
                    elements.push(GraphPattern::Basic(triples));
                }
            }
        }
        Ok(if elements.len() == 1 {
            elements.pop().expect("len checked")
        } else {
            GraphPattern::Group(elements)
        })
    }

    fn parse_triples_block(&mut self) -> PResult<Vec<TriplePattern>> {
        let mut out = Vec::new();
        loop {
            let subject = self.parse_var_or_term()?;
            loop {
                let predicate = self.parse_var_or_iri()?;
                loop {
                    let object = self.parse_var_or_term()?;
                    out.push(TriplePattern {
                        subject: subject.clone(),
                        predicate: predicate.clone(),
                        object,
                    });
                    if matches!(self.peek(), Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                if matches!(self.peek(), Tok::Semicolon) {
                    self.bump();
                    // A dangling `;` before `.`/`}` is tolerated.
                    if matches!(self.peek(), Tok::Dot | Tok::CloseBrace) {
                        break;
                    }
                } else {
                    break;
                }
            }
            if matches!(self.peek(), Tok::Dot) {
                self.bump();
                // Another triples row may follow unless the block ends.
                if matches!(
                    self.peek(),
                    Tok::CloseBrace | Tok::Eof | Tok::Keyword(_) | Tok::OpenBrace
                ) {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn parse_var_or_term(&mut self) -> PResult<VarOrTerm> {
        match self.bump() {
            Tok::Var(v) => Ok(VarOrTerm::Var(v)),
            Tok::IriRef(i) => Ok(VarOrTerm::Term(Term::Iri(self.iri_from(&i)?))),
            Tok::PName(p, l) => Ok(VarOrTerm::Term(Term::Iri(self.expand(&p, &l)?))),
            Tok::String(s) => {
                // Optional ^^datatype.
                if matches!(self.peek(), Tok::DoubleCaret) {
                    self.bump();
                    let dt = match self.bump() {
                        Tok::IriRef(i) => self.iri_from(&i)?,
                        Tok::PName(p, l) => self.expand(&p, &l)?,
                        other => return self.err(format!("expected datatype, found {other:?}")),
                    };
                    Ok(VarOrTerm::Term(Term::Literal(Literal::typed(s, dt))))
                } else {
                    Ok(VarOrTerm::Term(Term::Literal(Literal::simple(s))))
                }
            }
            Tok::Integer(n) => Ok(VarOrTerm::Term(Term::Literal(Literal::integer(n)))),
            Tok::Decimal(d) => Ok(VarOrTerm::Term(Term::Literal(Literal::typed(
                d,
                Iri::new_unchecked(provbench_rdf::xsd::DECIMAL),
            )))),
            Tok::Keyword(k) if k == "TRUE" => {
                Ok(VarOrTerm::Term(Term::Literal(Literal::boolean(true))))
            }
            Tok::Keyword(k) if k == "FALSE" => {
                Ok(VarOrTerm::Term(Term::Literal(Literal::boolean(false))))
            }
            other => self.err(format!("expected term or variable, found {other:?}")),
        }
    }

    fn iri_from(&self, raw: &str) -> PResult<Iri> {
        Iri::new(raw).map_err(|_| self.err_here(format!("invalid IRI <{raw}>")))
    }

    fn parse_var_or_iri(&mut self) -> PResult<VarOrIri> {
        match self.bump() {
            Tok::Var(v) => Ok(VarOrIri::Var(v)),
            Tok::A => Ok(VarOrIri::Iri(Iri::new_unchecked(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            ))),
            Tok::IriRef(i) => Ok(VarOrIri::Iri(self.iri_from(&i)?)),
            Tok::PName(p, l) => Ok(VarOrIri::Iri(self.expand(&p, &l)?)),
            other => self.err(format!("expected predicate, found {other:?}")),
        }
    }

    fn parse_expression(&mut self) -> PResult<Expression> {
        self.chain(
            |p| p.eat(&Tok::OrOr),
            Self::parse_and_expression,
            Expression::Or,
        )
    }

    fn parse_and_expression(&mut self) -> PResult<Expression> {
        self.chain(
            |p| p.eat(&Tok::AndAnd),
            Self::parse_relational_expression,
            Expression::And,
        )
    }

    fn parse_relational_expression(&mut self) -> PResult<Expression> {
        let left = self.parse_unary_expression()?;
        let op = match self.peek() {
            Tok::Eq => CompareOp::Eq,
            Tok::Ne => CompareOp::Ne,
            Tok::Lt => CompareOp::Lt,
            Tok::Le => CompareOp::Le,
            Tok::Gt => CompareOp::Gt,
            Tok::Ge => CompareOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.parse_unary_expression()?;
        Ok(Expression::Compare(op, Box::new(left), Box::new(right)))
    }

    fn parse_unary_expression(&mut self) -> PResult<Expression> {
        if matches!(self.peek(), Tok::Bang) {
            return self.nested(self.pos, |p| {
                p.bump();
                Ok(Expression::Not(Box::new(p.parse_unary_expression()?)))
            });
        }
        self.parse_primary_expression()
    }

    fn parse_primary_expression(&mut self) -> PResult<Expression> {
        // A parenthesis or a function's arguments open a level here.
        let at = self.pos;
        match self.bump() {
            Tok::OpenParen => self.nested(at, |p| {
                let e = p.parse_expression()?;
                p.expect(&Tok::CloseParen, "`)`")?;
                Ok(e)
            }),
            Tok::Var(v) => Ok(Expression::Var(v)),
            Tok::String(s) => {
                if matches!(self.peek(), Tok::DoubleCaret) {
                    self.bump();
                    let dt = match self.bump() {
                        Tok::IriRef(i) => self.iri_from(&i)?,
                        Tok::PName(p, l) => self.expand(&p, &l)?,
                        other => return self.err(format!("expected datatype, found {other:?}")),
                    };
                    Ok(Expression::Constant(Term::Literal(Literal::typed(s, dt))))
                } else {
                    Ok(Expression::Constant(Term::Literal(Literal::simple(s))))
                }
            }
            Tok::Integer(n) => Ok(Expression::Constant(Term::Literal(Literal::integer(n)))),
            Tok::Decimal(d) => Ok(Expression::Constant(Term::Literal(Literal::typed(
                d,
                Iri::new_unchecked(provbench_rdf::xsd::DECIMAL),
            )))),
            Tok::IriRef(i) => Ok(Expression::Constant(Term::Iri(self.iri_from(&i)?))),
            Tok::PName(p, l) => Ok(Expression::Constant(Term::Iri(self.expand(&p, &l)?))),
            Tok::Keyword(k) if k == "TRUE" => {
                Ok(Expression::Constant(Term::Literal(Literal::boolean(true))))
            }
            Tok::Keyword(k) if k == "FALSE" => {
                Ok(Expression::Constant(Term::Literal(Literal::boolean(false))))
            }
            Tok::Keyword(k) if k == "BOUND" => {
                self.expect(&Tok::OpenParen, "`(`")?;
                let v = match self.bump() {
                    Tok::Var(v) => v,
                    other => return self.err(format!("expected variable, found {other:?}")),
                };
                self.expect(&Tok::CloseParen, "`)`")?;
                Ok(Expression::Bound(v))
            }
            Tok::Keyword(k) if k == "STR" => self.nested(at, |p| {
                p.expect(&Tok::OpenParen, "`(`")?;
                let e = p.parse_expression()?;
                p.expect(&Tok::CloseParen, "`)`")?;
                Ok(Expression::Str(Box::new(e)))
            }),
            Tok::Keyword(k) if matches!(k.as_str(), "CONTAINS" | "STRSTARTS" | "STRENDS") => self
                .nested(at, |p| {
                    p.expect(&Tok::OpenParen, "`(`")?;
                    let a = p.parse_expression()?;
                    p.expect(&Tok::Comma, "`,`")?;
                    let b = p.parse_expression()?;
                    p.expect(&Tok::CloseParen, "`)`")?;
                    Ok(match k.as_str() {
                        "CONTAINS" => Expression::Contains(Box::new(a), Box::new(b)),
                        "STRSTARTS" => Expression::StrStarts(Box::new(a), Box::new(b)),
                        _ => Expression::StrEnds(Box::new(a), Box::new(b)),
                    })
                }),
            Tok::Keyword(k)
                if matches!(
                    k.as_str(),
                    "LANG" | "DATATYPE" | "ISIRI" | "ISLITERAL" | "ISBLANK"
                ) =>
            {
                self.nested(at, |p| {
                    p.expect(&Tok::OpenParen, "`(`")?;
                    let e = Box::new(p.parse_expression()?);
                    p.expect(&Tok::CloseParen, "`)`")?;
                    Ok(match k.as_str() {
                        "LANG" => Expression::Lang(e),
                        "DATATYPE" => Expression::Datatype(e),
                        "ISIRI" => Expression::IsIri(e),
                        "ISLITERAL" => Expression::IsLiteral(e),
                        _ => Expression::IsBlank(e),
                    })
                })
            }
            Tok::Keyword(k) if k == "REGEX" => self.nested(at, |p| {
                p.expect(&Tok::OpenParen, "`(`")?;
                let e = p.parse_expression()?;
                p.expect(&Tok::Comma, "`,`")?;
                let pattern = match p.bump() {
                    Tok::String(s) => s,
                    other => return p.err(format!("expected pattern string, found {other:?}")),
                };
                let mut case_insensitive = false;
                if matches!(p.peek(), Tok::Comma) {
                    p.bump();
                    match p.bump() {
                        Tok::String(f) => case_insensitive = f.contains('i'),
                        other => return p.err(format!("expected flags string, found {other:?}")),
                    }
                }
                p.expect(&Tok::CloseParen, "`)`")?;
                Ok(Expression::Regex(Box::new(e), pattern, case_insensitive))
            }),
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

/// Parse a SPARQL query string. A query that nests deeper than
/// [`MAX_NESTING`] levels is an error spanning the token that crossed
/// the limit.
pub fn parse_query(input: &str) -> Result<Query, QueryParseError> {
    parse_nested(input).map(|(query, _)| query)
}

/// [`parse_query`], and the deepest nesting level the query reached.
fn parse_nested(input: &str) -> Result<(Query, usize), QueryParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        prefixes: PrefixMap::common(),
        depth: 0,
        deepest: 0,
    };
    let query = p.parse_query()?;
    Ok((query, p.deepest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let q = parse_query("SELECT ?x WHERE { ?x a prov:Activity }").unwrap();
        assert_eq!(q.projections, vec![Projection::Var("x".into())]);
        assert!(!q.distinct);
        match &q.pattern {
            GraphPattern::Basic(ps) => {
                assert_eq!(ps.len(), 1);
                assert!(matches!(&ps[0].object, VarOrTerm::Term(Term::Iri(i))
                    if i.as_str().ends_with("#Activity")));
            }
            other => panic!("unexpected pattern {other:?}"),
        }
    }

    #[test]
    fn semicolon_and_comma_abbreviations() {
        let q = parse_query(
            "SELECT * WHERE { ?r a prov:Activity ; prov:used ?a, ?b . ?a a prov:Entity }",
        )
        .unwrap();
        match &q.pattern {
            GraphPattern::Basic(ps) => assert_eq!(ps.len(), 4),
            other => panic!("unexpected pattern {other:?}"),
        }
    }

    #[test]
    fn optional_union_filter() {
        let q = parse_query(
            r#"PREFIX e: <http://e/>
            SELECT ?x ?t WHERE {
              { ?x a e:A } UNION { ?x a e:B }
              OPTIONAL { ?x e:time ?t }
              FILTER (BOUND(?t) && ?t > 3)
            }"#,
        )
        .unwrap();
        match &q.pattern {
            GraphPattern::Group(elems) => {
                assert_eq!(elems.len(), 3);
                assert!(matches!(elems[0], GraphPattern::Union(..)));
                assert!(matches!(elems[1], GraphPattern::Optional(..)));
                assert!(matches!(elems[2], GraphPattern::Filter(..)));
            }
            other => panic!("unexpected pattern {other:?}"),
        }
    }

    #[test]
    fn aggregates_and_modifiers() {
        let q = parse_query(
            "SELECT ?t (COUNT(?r) AS ?n) (MIN(?s) AS ?first) WHERE { ?r ?p ?t . ?r ?q ?s } \
             GROUP BY ?t ORDER BY DESC(?n) ?t LIMIT 10 OFFSET 5",
        )
        .unwrap();
        assert!(q.has_aggregates());
        assert_eq!(q.group_by, vec!["t".to_owned()]);
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, 5);
    }

    #[test]
    fn count_star_and_distinct() {
        let q = parse_query(
            "SELECT DISTINCT (COUNT(*) AS ?n) (COUNT(DISTINCT ?x) AS ?m) WHERE { ?x ?p ?o }",
        )
        .unwrap();
        assert!(q.distinct);
        assert!(matches!(
            &q.projections[0],
            Projection::Aggregate {
                function: AggregateFn::Count,
                var: None,
                ..
            }
        ));
        assert!(matches!(
            &q.projections[1],
            Projection::Aggregate {
                function: AggregateFn::CountDistinct,
                var: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn regex_and_str() {
        let q = parse_query(r#"SELECT ?x WHERE { ?x ?p ?o FILTER REGEX(STR(?x), "^http", "i") }"#)
            .unwrap();
        let GraphPattern::Group(elems) = &q.pattern else {
            panic!("expected group")
        };
        assert!(matches!(
            &elems[1],
            GraphPattern::Filter(Expression::Regex(_, p, true)) if p == "^http"
        ));
    }

    #[test]
    fn typed_literals_in_patterns() {
        let q = parse_query(r#"SELECT ?x WHERE { ?x ?p "2013-01-15T10:30:00Z"^^xsd:dateTime }"#)
            .unwrap();
        let GraphPattern::Basic(ps) = &q.pattern else {
            panic!()
        };
        let VarOrTerm::Term(Term::Literal(l)) = &ps[0].object else {
            panic!()
        };
        assert!(l.as_date_time().is_some());
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT ?x").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x nope:y ?z }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } trailing").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT ?x").is_err());
    }

    #[test]
    fn errors_carry_token_spans() {
        // The parser anchors errors at the current token: after
        // consuming `nope:y` that is the `}` on line 2, columns 21..22.
        let e = parse_query("SELECT ?x\nWHERE { ?x a nope:y }").unwrap_err();
        assert_eq!((e.line, e.column), (2, 21));
        assert_eq!((e.end_line, e.end_column), (2, 22));
        let span = e.span();
        assert_eq!((span.line, span.column), (2, 21));
        assert_eq!((span.end_line, span.end_column), (2, 22));
        assert_eq!(e.to_string(), "2:21: unbound prefix \"nope\"");
        // A multi-character offending token spans its full width.
        let e = parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT 3 nope:x").unwrap_err();
        assert!(e.message.contains("unexpected trailing"), "{e}");
        assert_eq!((e.line, e.column), (1, 38));
        assert_eq!((e.end_line, e.end_column), (1, 44));
        // Lexer errors degrade to point spans.
        let e = parse_query("SELECT @").unwrap_err();
        assert_eq!((e.line, e.column), (1, 8));
        assert_eq!((e.end_line, e.end_column), (1, 8));
    }

    #[test]
    fn where_keyword_is_optional() {
        assert!(parse_query("SELECT * { ?x ?p ?o }").is_ok());
    }

    /// A named query shape, built with `n` repetitions.
    type Shape = (&'static str, fn(usize) -> String);

    /// One query of each deep shape.
    const DEEP_SHAPES: [Shape; 8] = [
        ("parentheses", |n| {
            format!(
                "SELECT ?o WHERE {{ ?s ?p ?o FILTER({}?o{}) }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        }),
        ("|| chain", |n| {
            let terms = vec!["?o = 1"; n].join(" || ");
            format!("SELECT ?o WHERE {{ ?s ?p ?o FILTER({terms}) }}")
        }),
        ("&& chain", |n| {
            let terms = vec!["BOUND(?o)"; n].join(" && ");
            format!("SELECT ?o WHERE {{ ?s ?p ?o FILTER({terms}) }}")
        }),
        ("UNION chain", |n| {
            let arms = vec!["{ ?s ?p ?o }"; n].join(" UNION ");
            format!("SELECT ?o WHERE {{ {arms} }}")
        }),
        ("!", |n| {
            format!(
                "SELECT ?o WHERE {{ ?s ?p ?o FILTER({}BOUND(?o)) }}",
                "!".repeat(n)
            )
        }),
        ("groups", |n| {
            format!(
                "SELECT ?o WHERE {}?s ?p ?o{}",
                "{ ".repeat(n),
                " }".repeat(n)
            )
        }),
        ("OPTIONALs", |n| {
            let open = "{ ?s ?p ?o OPTIONAL ".repeat(n);
            format!("SELECT ?o WHERE {open}{{ ?s ?p ?o }}{}", " }".repeat(n))
        }),
        ("STR(", |n| {
            let call = format!("{}?o{}", "STR(".repeat(n), ")".repeat(n));
            format!("SELECT ?o WHERE {{ ?s ?p ?o FILTER({call} != \"\") }}")
        }),
    ];

    /// The largest `n` whose query `make(n)` parses.
    fn deepest_accepted(make: fn(usize) -> String) -> usize {
        let (mut ok, mut refused) = (1, 4 * MAX_NESTING);
        assert!(parse_query(&make(ok)).is_ok() && parse_query(&make(refused)).is_err());
        while refused - ok > 1 {
            let mid = (ok + refused) / 2;
            match parse_query(&make(mid)) {
                Ok(_) => ok = mid,
                Err(_) => refused = mid,
            }
        }
        ok
    }

    #[test]
    fn nesting_past_the_limit_is_a_spanned_error() {
        for (shape, make) in DEEP_SHAPES {
            let n = deepest_accepted(make);
            let (_, depth) = parse_nested(&make(n)).unwrap();
            assert!(depth <= MAX_NESTING, "{shape}: depth {depth}");
            assert!(
                depth + 2 >= MAX_NESTING,
                "{shape}: refused at depth {depth}"
            );
            let e = parse_query(&make(n + 1)).unwrap_err();
            assert!(
                e.message.contains("nests deeper than 128 levels"),
                "{shape}: {e}"
            );
            assert_eq!(e.line, 1, "{shape}: {e}");
            assert!(e.end_column > e.column, "{shape}: {e}");
        }
        // The error spans the token that crossed the limit: here the
        // `(` that opens level 129.
        let text = DEEP_SHAPES[0].1(MAX_NESTING);
        let e = parse_query(&text).unwrap_err();
        let column = "SELECT ?o WHERE { ?s ?p ?o FILTER(".len() + MAX_NESTING - 1;
        assert_eq!((e.column, e.end_column), (column, column + 1), "{e}");
        // A chain is refused at the link that makes it too tall.
        let e = parse_query(&DEEP_SHAPES[1].1(MAX_NESTING + 10)).unwrap_err();
        assert_eq!(&text_at(&DEEP_SHAPES[1].1(MAX_NESTING + 10), &e), "||");
    }

    /// The text an error spans, on a one-line query.
    fn text_at(text: &str, e: &QueryParseError) -> String {
        text[e.column - 1..e.end_column - 1].to_owned()
    }

    /// The deepest accepted query of each shape parses, prepares, runs
    /// and drops on a thread with a 2 MiB stack, the size of a spawned
    /// thread's default stack (and so of a `serve` worker's).
    #[test]
    fn deepest_accepted_queries_run_on_a_2_mib_stack() {
        let (graph, _) = provbench_rdf::parse_turtle(
            "<http://e/a> <http://e/p> 1 . <http://e/b> <http://e/q> \"x\" .",
        )
        .unwrap();
        for (shape, make) in DEEP_SHAPES {
            let text = make(deepest_accepted(make));
            let rows = std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .stack_size(2 << 20)
                    .spawn_scoped(scope, || {
                        let engine = crate::QueryEngine::new(&graph);
                        let prepared = engine.prepare(&text).unwrap();
                        let rows = prepared.rows().unwrap().map(Result::unwrap).count();
                        drop(prepared);
                        rows
                    })
                    .unwrap()
                    .join()
            });
            assert!(rows.is_ok(), "{shape} overflowed or panicked");
        }
    }

    #[test]
    fn exemplar_queries_sit_far_below_the_nesting_limit() {
        use crate::exemplar::*;
        let run = provbench_rdf::Iri::new_unchecked("http://e/run");
        let texts = [
            q1_sparql(),
            q2_runs_sparql("t"),
            q2_failed_sparql("t"),
            q3_inputs_sparql("t"),
            q3_outputs_sparql("t"),
            q4_sparql(&run),
            q5_sparql(&run),
            q6_sparql(&run),
        ];
        for text in texts {
            let (_, depth) = parse_nested(&format!("{PREFIXES}\n{text}")).unwrap();
            assert!(depth <= 5, "depth {depth}: {text}");
        }
    }
}
