//! Recursive-descent parser for Turtle, reused by TriG (`allow_graphs`).

use super::lexer::{Lexer, Token, TokenKind};
use crate::dataset::Dataset;
use crate::error::ParseError;
use crate::namespace::PrefixMap;
use crate::span::{Span, SpanTable, SpannedStatement};
use crate::term::{BlankNode, Iri, Literal, Subject, Term};
use crate::triple::Triple;
use crate::xsd;
use crate::MAX_NESTING;
use std::collections::HashSet;

const RDF_FIRST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first";
const RDF_REST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest";
const RDF_NIL: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: PrefixMap,
    base: Option<String>,
    anon_counter: u64,
    used_labels: HashSet<String>,
    allow_graphs: bool,
    /// The graph currently being filled (`None` = default graph).
    current_graph: Option<Subject>,
    /// When present, every emitted triple is recorded here with its span.
    /// `None` keeps the hot path free of per-triple clones.
    spans: Option<SpanTable>,
    /// Blank-node property lists and collections open at the current
    /// token: at most [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    pub fn new(input: &str, allow_graphs: bool) -> Result<Self, ParseError> {
        let tokens = Lexer::new(input).tokenize()?;
        let used_labels = tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::BlankNodeLabel(l) => Some(l.clone()),
                _ => None,
            })
            .collect();
        Ok(Parser {
            tokens,
            pos: 0,
            prefixes: PrefixMap::new(),
            base: None,
            anon_counter: 0,
            used_labels,
            allow_graphs,
            current_graph: None,
            spans: None,
            depth: 0,
        })
    }

    /// Enable span recording: every emitted triple gets an entry in the
    /// [`SpanTable`] returned by [`Parser::parse_spanned`].
    pub fn record_spans(mut self) -> Self {
        self.spans = Some(SpanTable::new());
        self
    }

    pub fn parse(self) -> Result<(Dataset, PrefixMap), ParseError> {
        let (dataset, prefixes, _) = self.parse_spanned()?;
        Ok((dataset, prefixes))
    }

    /// Like [`Parser::parse`] but also returns the span side table (empty
    /// unless [`Parser::record_spans`] was called).
    pub fn parse_spanned(mut self) -> Result<(Dataset, PrefixMap, SpanTable), ParseError> {
        let mut dataset = Dataset::new();
        loop {
            match self.peek_kind() {
                TokenKind::Eof => break,
                TokenKind::PrefixDirective { sparql_style } => {
                    let sparql = *sparql_style;
                    self.parse_prefix_directive(sparql)?;
                }
                TokenKind::BaseDirective { sparql_style } => {
                    let sparql = *sparql_style;
                    self.parse_base_directive(sparql)?;
                }
                TokenKind::Graph if self.allow_graphs => {
                    self.advance();
                    let name = self.parse_graph_name()?;
                    self.parse_graph_block(&mut dataset, name)?;
                }
                TokenKind::OpenBrace if self.allow_graphs => {
                    // Anonymous `{ ... }` block contributes to the default graph.
                    self.parse_graph_block_body(&mut dataset, None)?;
                }
                _ => self.parse_triples_or_named_block(&mut dataset)?,
            }
        }
        Ok((
            dataset,
            self.prefixes,
            self.spans.take().unwrap_or_default(),
        ))
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_kind_at(&self, offset: usize) -> &TokenKind {
        let i = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(t.line, t.column, msg)
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.peek_kind() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}, found {:?}", self.peek_kind())))
        }
    }

    fn fresh_blank(&mut self) -> BlankNode {
        loop {
            let label = format!("anon{}", self.anon_counter);
            self.anon_counter += 1;
            if !self.used_labels.contains(&label) {
                return BlankNode::new(&label).expect("generated label is valid");
            }
        }
    }

    fn resolve_iri(&self, raw: &str) -> Result<Iri, ParseError> {
        let full = if raw.contains(':') {
            raw.to_owned()
        } else {
            match &self.base {
                Some(base) => format!("{base}{raw}"),
                None => {
                    return Err(ParseError::new(
                        self.peek().line,
                        self.peek().column,
                        format!("relative IRI {raw:?} without a base"),
                    ))
                }
            }
        };
        Iri::new(&full).map_err(|_| {
            ParseError::new(
                self.peek().line,
                self.peek().column,
                format!("invalid IRI {full:?}"),
            )
        })
    }

    fn expand_pname(&self, prefix: &str, local: &str) -> Result<Iri, ParseError> {
        let ns = self.prefixes.get(prefix).ok_or_else(|| {
            ParseError::new(
                self.peek().line,
                self.peek().column,
                format!("unbound prefix {prefix:?}"),
            )
        })?;
        Iri::new(format!("{ns}{local}")).map_err(|_| {
            ParseError::new(
                self.peek().line,
                self.peek().column,
                format!("CURIE {prefix}:{local} expands to an invalid IRI"),
            )
        })
    }

    fn parse_prefix_directive(&mut self, sparql_style: bool) -> Result<(), ParseError> {
        self.advance(); // the directive token
        let (prefix, local) = match self.advance().kind {
            TokenKind::PrefixedName(p, l) => (p, l),
            other => return Err(self.err_here(format!("expected prefix name, found {other:?}"))),
        };
        if !local.is_empty() {
            return Err(self.err_here("prefix declaration must end with a bare `:`"));
        }
        let iri = match self.advance().kind {
            TokenKind::IriRef(i) => i,
            other => return Err(self.err_here(format!("expected IRI, found {other:?}"))),
        };
        self.prefixes.insert(prefix, iri);
        if !sparql_style {
            self.expect(&TokenKind::Dot, "`.` after @prefix")?;
        }
        Ok(())
    }

    fn parse_base_directive(&mut self, sparql_style: bool) -> Result<(), ParseError> {
        self.advance();
        let iri = match self.advance().kind {
            TokenKind::IriRef(i) => i,
            other => return Err(self.err_here(format!("expected IRI, found {other:?}"))),
        };
        self.base = Some(iri);
        if !sparql_style {
            self.expect(&TokenKind::Dot, "`.` after @base")?;
        }
        Ok(())
    }

    fn parse_graph_name(&mut self) -> Result<Subject, ParseError> {
        match self.advance().kind {
            TokenKind::IriRef(i) => Ok(Subject::Iri(self.resolve_iri(&i)?)),
            TokenKind::PrefixedName(p, l) => Ok(Subject::Iri(self.expand_pname(&p, &l)?)),
            TokenKind::BlankNodeLabel(l) => {
                Ok(Subject::Blank(BlankNode::new(&l).map_err(|_| {
                    self.err_here(format!("invalid blank node label {l:?}"))
                })?))
            }
            other => Err(self.err_here(format!("expected graph name, found {other:?}"))),
        }
    }

    fn parse_graph_block(
        &mut self,
        dataset: &mut Dataset,
        name: Subject,
    ) -> Result<(), ParseError> {
        self.parse_graph_block_body(dataset, Some(name))
    }

    fn parse_graph_block_body(
        &mut self,
        dataset: &mut Dataset,
        name: Option<Subject>,
    ) -> Result<(), ParseError> {
        self.expect(&TokenKind::OpenBrace, "`{`")?;
        let saved = self.current_graph.take();
        self.current_graph = name;
        while self.peek_kind() != &TokenKind::CloseBrace {
            if self.peek_kind() == &TokenKind::Eof {
                return Err(self.err_here("unterminated graph block"));
            }
            self.parse_triples_statement(dataset)?;
            // Inside a graph block the final `.` is optional.
            if self.peek_kind() == &TokenKind::Dot {
                self.advance();
            }
        }
        self.advance(); // '}'
        self.current_graph = saved;
        Ok(())
    }

    /// In TriG mode, `<name> { ... }` opens a named graph; otherwise this
    /// is an ordinary triples statement.
    fn parse_triples_or_named_block(&mut self, dataset: &mut Dataset) -> Result<(), ParseError> {
        if self.allow_graphs
            && matches!(
                self.peek_kind(),
                TokenKind::IriRef(_) | TokenKind::PrefixedName(..) | TokenKind::BlankNodeLabel(_)
            )
            && self.peek_kind_at(1) == &TokenKind::OpenBrace
        {
            let name = self.parse_graph_name()?;
            return self.parse_graph_block(dataset, name);
        }
        self.parse_triples_statement(dataset)?;
        self.expect(&TokenKind::Dot, "`.` at end of statement")?;
        Ok(())
    }

    /// Position (line, column) of the next unconsumed token.
    fn pos_here(&self) -> (usize, usize) {
        let t = self.peek();
        (t.line, t.column)
    }

    /// Insert a triple into the current graph; `start` is the position of
    /// the first token of the clause that produced it (used only when span
    /// recording is on).
    fn emit(&mut self, dataset: &mut Dataset, triple: Triple, start: (usize, usize)) {
        if let Some(spans) = &mut self.spans {
            // The last consumed token ends the clause as far as we know.
            let last = &self.tokens[self.pos.saturating_sub(1)];
            spans.push(SpannedStatement {
                graph: self.current_graph.clone(),
                triple: triple.clone(),
                span: Span {
                    line: start.0,
                    column: start.1,
                    end_line: last.line,
                    end_column: last.column,
                },
            });
        }
        match &self.current_graph {
            None => {
                dataset.default_graph_mut().insert(triple);
            }
            Some(name) => {
                dataset.named_graph_mut(name.clone()).insert(triple);
            }
        }
    }

    fn parse_triples_statement(&mut self, dataset: &mut Dataset) -> Result<(), ParseError> {
        match self.peek_kind().clone() {
            TokenKind::OpenBracket => {
                // `[ p o ; ... ]` as subject; predicate-object list optional.
                let subject = self.parse_blank_node_property_list(dataset)?;
                if self.peek_kind() != &TokenKind::Dot {
                    self.parse_predicate_object_list(dataset, &subject)?;
                }
                Ok(())
            }
            TokenKind::OpenParen => {
                let subject = self.parse_collection(dataset)?;
                let subject = subject
                    .as_subject()
                    .ok_or_else(|| self.err_here("collection subject cannot be a literal"))?;
                self.parse_predicate_object_list(dataset, &subject)?;
                Ok(())
            }
            _ => {
                let subject = self.parse_subject()?;
                self.parse_predicate_object_list(dataset, &subject)?;
                Ok(())
            }
        }
    }

    fn parse_subject(&mut self) -> Result<Subject, ParseError> {
        match self.advance().kind {
            TokenKind::IriRef(i) => Ok(Subject::Iri(self.resolve_iri(&i)?)),
            TokenKind::PrefixedName(p, l) => Ok(Subject::Iri(self.expand_pname(&p, &l)?)),
            TokenKind::BlankNodeLabel(l) => {
                Ok(Subject::Blank(BlankNode::new(&l).map_err(|_| {
                    self.err_here(format!("invalid blank node label {l:?}"))
                })?))
            }
            other => Err(self.err_here(format!("expected subject, found {other:?}"))),
        }
    }

    fn parse_predicate(&mut self) -> Result<Iri, ParseError> {
        match self.advance().kind {
            TokenKind::A => Ok(Iri::new_unchecked(RDF_TYPE)),
            TokenKind::IriRef(i) => self.resolve_iri(&i),
            TokenKind::PrefixedName(p, l) => self.expand_pname(&p, &l),
            other => Err(self.err_here(format!("expected predicate, found {other:?}"))),
        }
    }

    fn parse_predicate_object_list(
        &mut self,
        dataset: &mut Dataset,
        subject: &Subject,
    ) -> Result<(), ParseError> {
        loop {
            // The clause starts at the predicate; a comma-continued object
            // starts its own clause at the object token.
            let mut clause_start = self.pos_here();
            let predicate = self.parse_predicate()?;
            loop {
                let object = self.parse_object(dataset)?;
                self.emit(
                    dataset,
                    Triple::new(subject.clone(), predicate.clone(), object),
                    clause_start,
                );
                if self.peek_kind() == &TokenKind::Comma {
                    self.advance();
                    clause_start = self.pos_here();
                } else {
                    break;
                }
            }
            if self.peek_kind() == &TokenKind::Semicolon {
                // Consume runs of semicolons; the list may end after them.
                while self.peek_kind() == &TokenKind::Semicolon {
                    self.advance();
                }
                if matches!(
                    self.peek_kind(),
                    TokenKind::Dot
                        | TokenKind::CloseBracket
                        | TokenKind::CloseBrace
                        | TokenKind::Eof
                ) {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_object(&mut self, dataset: &mut Dataset) -> Result<Term, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::OpenBracket => Ok(self.parse_blank_node_property_list(dataset)?.into()),
            TokenKind::OpenParen => self.parse_collection(dataset),
            TokenKind::IriRef(i) => {
                self.advance();
                Ok(Term::Iri(self.resolve_iri(&i)?))
            }
            TokenKind::PrefixedName(p, l) => {
                self.advance();
                Ok(Term::Iri(self.expand_pname(&p, &l)?))
            }
            TokenKind::BlankNodeLabel(l) => {
                self.advance();
                Ok(Term::Blank(BlankNode::new(&l).map_err(|_| {
                    self.err_here(format!("invalid blank node label {l:?}"))
                })?))
            }
            TokenKind::StringLiteral(s) => {
                self.advance();
                match self.peek_kind().clone() {
                    TokenKind::LangTag(tag) => {
                        self.advance();
                        Ok(Term::Literal(Literal::lang(&s, &tag).map_err(|_| {
                            self.err_here(format!("invalid language tag {tag:?}"))
                        })?))
                    }
                    TokenKind::DoubleCaret => {
                        self.advance();
                        let dt = match self.advance().kind {
                            TokenKind::IriRef(i) => self.resolve_iri(&i)?,
                            TokenKind::PrefixedName(p, l) => self.expand_pname(&p, &l)?,
                            other => {
                                return Err(self
                                    .err_here(format!("expected datatype IRI, found {other:?}")))
                            }
                        };
                        Ok(Term::Literal(Literal::typed(&s, dt)))
                    }
                    _ => Ok(Term::Literal(Literal::simple(&s))),
                }
            }
            TokenKind::Integer(s) => {
                self.advance();
                Ok(Term::Literal(Literal::typed(
                    &s,
                    Iri::new_unchecked(xsd::INTEGER),
                )))
            }
            TokenKind::Decimal(s) => {
                self.advance();
                Ok(Term::Literal(Literal::typed(
                    &s,
                    Iri::new_unchecked(xsd::DECIMAL),
                )))
            }
            TokenKind::Double(s) => {
                self.advance();
                Ok(Term::Literal(Literal::typed(
                    &s,
                    Iri::new_unchecked(xsd::DOUBLE),
                )))
            }
            TokenKind::Boolean(b) => {
                self.advance();
                Ok(Term::Literal(Literal::boolean(b)))
            }
            other => Err(self.err_here(format!("expected object, found {other:?}"))),
        }
    }

    /// Parse `inner` one nesting level down, at the `[` or `(` that
    /// opens the level; past [`MAX_NESTING`] levels, an error at it.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.err_here(format!("input nests deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = inner(self);
        self.depth -= 1;
        parsed
    }

    fn parse_blank_node_property_list(
        &mut self,
        dataset: &mut Dataset,
    ) -> Result<Subject, ParseError> {
        self.nested(|p| {
            p.expect(&TokenKind::OpenBracket, "`[`")?;
            let node = Subject::Blank(p.fresh_blank());
            if p.peek_kind() == &TokenKind::CloseBracket {
                p.advance();
                return Ok(node); // `[]` — a bare anonymous node
            }
            p.parse_predicate_object_list(dataset, &node)?;
            p.expect(&TokenKind::CloseBracket, "`]`")?;
            Ok(node)
        })
    }

    fn parse_collection(&mut self, dataset: &mut Dataset) -> Result<Term, ParseError> {
        self.nested(|p| p.parse_collection_items(dataset))
    }

    fn parse_collection_items(&mut self, dataset: &mut Dataset) -> Result<Term, ParseError> {
        let start = self.pos_here();
        self.expect(&TokenKind::OpenParen, "`(`")?;
        let first_pred = Iri::new_unchecked(RDF_FIRST);
        let rest_pred = Iri::new_unchecked(RDF_REST);
        let nil = Iri::new_unchecked(RDF_NIL);
        let mut items = Vec::new();
        while self.peek_kind() != &TokenKind::CloseParen {
            if self.peek_kind() == &TokenKind::Eof {
                return Err(self.err_here("unterminated collection"));
            }
            items.push(self.parse_object(dataset)?);
        }
        self.advance(); // ')'
        if items.is_empty() {
            return Ok(Term::Iri(nil));
        }
        let nodes: Vec<Subject> = items
            .iter()
            .map(|_| Subject::Blank(self.fresh_blank()))
            .collect();
        for (i, item) in items.into_iter().enumerate() {
            self.emit(
                dataset,
                Triple::new(nodes[i].clone(), first_pred.clone(), item),
                start,
            );
            let rest: Term = if i + 1 < nodes.len() {
                nodes[i + 1].clone().into()
            } else {
                nil.clone().into()
            };
            self.emit(
                dataset,
                Triple::new(nodes[i].clone(), rest_pred.clone(), rest),
                start,
            );
        }
        Ok(nodes[0].clone().into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn parse(input: &str) -> (Graph, PrefixMap) {
        let (ds, prefixes) = Parser::new(input, false).unwrap().parse().unwrap();
        (ds.default_graph().clone(), prefixes)
    }

    #[test]
    fn simple_statement() {
        let (g, _) = parse("<http://e/s> <http://e/p> <http://e/o> .");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn prefixes_and_a() {
        let (g, pm) = parse(
            "@prefix prov: <http://www.w3.org/ns/prov#> .\n\
             <http://e/r> a prov:Activity .",
        );
        assert_eq!(pm.get("prov"), Some("http://www.w3.org/ns/prov#"));
        let t = g.iter().next().unwrap();
        assert_eq!(t.predicate.as_str(), RDF_TYPE);
        assert_eq!(
            t.object.as_iri().unwrap().as_str(),
            "http://www.w3.org/ns/prov#Activity"
        );
    }

    #[test]
    fn sparql_style_directives() {
        let (g, pm) = parse("PREFIX e: <http://e/>\nBASE <http://base/>\ne:s e:p <rel> .");
        assert_eq!(pm.get("e"), Some("http://e/"));
        let t = g.iter().next().unwrap();
        assert_eq!(t.object.as_iri().unwrap().as_str(), "http://base/rel");
    }

    #[test]
    fn semicolons_and_commas() {
        let (g, _) = parse(
            "<http://e/s> <http://e/p1> <http://e/a>, <http://e/b> ;\n\
                           <http://e/p2> \"v\" ;\n.",
        );
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn literals_all_forms() {
        let (g, _) = parse(
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             <http://e/s> <http://e/p> \"plain\", \"fr\"@fr,\n\
               \"2013-01-15T10:30:00Z\"^^xsd:dateTime, 42, 3.14, 1e3, true .",
        );
        assert_eq!(g.len(), 7);
        let objects: Vec<Literal> = g
            .iter()
            .filter_map(|t| t.object.as_literal().cloned())
            .collect();
        assert_eq!(objects.len(), 7);
        assert!(objects.iter().any(|l| l.language() == Some("fr")));
        assert!(objects.iter().any(|l| l.as_date_time().is_some()));
        assert!(objects.iter().any(|l| l.as_integer() == Some(42)));
        assert!(objects.iter().any(|l| l.as_boolean() == Some(true)));
    }

    #[test]
    fn blank_node_property_lists() {
        let (g, _) =
            parse("<http://e/s> <http://e/p> [ <http://e/q> \"inner\" ; <http://e/r> [] ] .");
        // s-p-anon0, anon0-q-inner, anon0-r-anon1
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn bnpl_as_subject() {
        let (g, _) = parse("[ <http://e/p> <http://e/o> ] <http://e/q> \"x\" .");
        assert_eq!(g.len(), 2);
        let (g2, _) = parse("[ <http://e/p> <http://e/o> ] .");
        assert_eq!(g2.len(), 1);
    }

    #[test]
    fn collections_desugar() {
        let (g, _) = parse("<http://e/s> <http://e/p> (<http://e/a> \"b\" 3) .");
        // 1 link triple + 3 first + 3 rest
        assert_eq!(g.len(), 7);
        let nil: Term = Iri::new_unchecked(RDF_NIL).into();
        assert_eq!(g.triples_matching(None, None, Some(&nil)).count(), 1);
        let (g2, _) = parse("<http://e/s> <http://e/p> () .");
        assert_eq!(g2.len(), 1);
        assert_eq!(
            g2.iter().next().unwrap().object.as_iri().unwrap().as_str(),
            RDF_NIL
        );
    }

    /// Documents nesting `n` levels of `[` or `(`, as an object and as a
    /// subject, with the character that opens each level.
    const DEEP_SHAPES: [(fn(usize) -> String, char); 4] = [
        (
            |n| {
                let open = "[ <http://e/p> ".repeat(n);
                format!(
                    "<http://e/a> <http://e/p> {open}<http://e/z>{} .",
                    " ]".repeat(n)
                )
            },
            '[',
        ),
        (
            |n| {
                format!(
                    "<http://e/a> <http://e/p> {}1{} .",
                    "( ".repeat(n),
                    " )".repeat(n)
                )
            },
            '(',
        ),
        (
            |n| {
                let open = "[ <http://e/p> ".repeat(n - 1);
                format!("{open}[ <http://e/p> 1 ]{} .", " ]".repeat(n - 1))
            },
            '[',
        ),
        (
            |n| format!("{}1{} <http://e/p> 2 .", "( ".repeat(n), " )".repeat(n)),
            '(',
        ),
    ];

    /// The deepest accepted nesting of each shape parses as Turtle, as
    /// TriG and with spans on a 2 MiB stack, a spawned thread's default,
    /// in a debug build too; one level more, or thousands, is a spanned
    /// error at the first opener past the limit, never an overflow.
    #[test]
    fn nesting_past_the_limit_is_a_spanned_error() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for (make, opener) in DEEP_SHAPES {
                    for trig in [false, true] {
                        let deepest = make(MAX_NESTING);
                        let (ds, _) = Parser::new(&deepest, trig).unwrap().parse().unwrap();
                        assert!(ds.len() >= MAX_NESTING, "{deepest}");
                        let spanned = Parser::new(&deepest, trig).unwrap().record_spans();
                        let (_, _, spans) = spanned.parse_spanned().unwrap();
                        assert_eq!(spans.len(), ds.len());
                        for n in [MAX_NESTING + 1, 20_000] {
                            let text = make(n);
                            let e = Parser::new(&text, trig).unwrap().parse().unwrap_err();
                            assert!(e.message.contains("nests deeper than 128 levels"), "{e}");
                            let (at, _) = text.match_indices(opener).nth(MAX_NESTING).unwrap();
                            assert_eq!((e.line, e.column), (1, at + 1), "{e}");
                        }
                    }
                }
            })
            .unwrap()
            .join()
            .expect("the deepest accepted documents parse on a 2 MiB stack");
    }

    #[test]
    fn anon_labels_avoid_document_labels() {
        let (g, _) = parse("_:anon0 <http://e/p> [ <http://e/q> \"v\" ] .");
        let labels: HashSet<String> = g
            .iter()
            .flat_map(|t| {
                let mut v = Vec::new();
                if let Subject::Blank(b) = &t.subject {
                    v.push(b.label().to_owned());
                }
                if let Term::Blank(b) = &t.object {
                    v.push(b.label().to_owned());
                }
                v
            })
            .collect();
        // The generated node must not collide with the document's _:anon0.
        assert!(labels.contains("anon0"));
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn unbound_prefix_is_an_error() {
        let err = Parser::new("x:y <http://e/p> <http://e/o> .", false)
            .unwrap()
            .parse()
            .unwrap_err();
        assert!(err.message.contains("unbound prefix"));
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(Parser::new("<http://e/s> <http://e/p> <http://e/o>", false)
            .unwrap()
            .parse()
            .is_err());
    }

    #[test]
    fn relative_iri_without_base_is_an_error() {
        assert!(Parser::new("<s> <http://e/p> <http://e/o> .", false)
            .unwrap()
            .parse()
            .is_err());
    }

    #[test]
    fn trig_named_graphs() {
        let (ds, _) = Parser::new(
            "@prefix e: <http://e/> .\n\
             e:s e:p e:o .\n\
             e:g1 { e:a e:p e:b . e:c e:p e:d }\n\
             GRAPH e:g2 { e:x e:p e:y . }",
            true,
        )
        .unwrap()
        .parse()
        .unwrap();
        assert_eq!(ds.default_graph().len(), 1);
        let g1: Subject = Iri::new("http://e/g1").unwrap().into();
        let g2: Subject = Iri::new("http://e/g2").unwrap().into();
        assert_eq!(ds.named_graph(&g1).unwrap().len(), 2);
        assert_eq!(ds.named_graph(&g2).unwrap().len(), 1);
    }

    #[test]
    fn graphs_rejected_in_plain_turtle() {
        assert!(Parser::new(
            "<http://e/g> { <http://e/a> <http://e/p> <http://e/b> . }",
            false
        )
        .unwrap()
        .parse()
        .is_err());
    }

    #[test]
    fn spans_record_per_clause_positions() {
        let doc = "@prefix e: <http://e/> .\n\
                   e:s e:p e:a, e:b ;\n\
                   \x20\x20\x20\x20e:q \"v\" .\n";
        let (ds, _, spans) = Parser::new(doc, false)
            .unwrap()
            .record_spans()
            .parse_spanned()
            .unwrap();
        assert_eq!(ds.default_graph().len(), 3);
        assert_eq!(spans.len(), 3);
        let find = |local: &str| {
            let obj: Term = Iri::new(format!("http://e/{local}")).unwrap().into();
            spans
                .iter()
                .find(|e| e.triple.object == obj)
                .map(|e| (e.span.line, e.span.column))
        };
        // First clause starts at the predicate, comma continuation at its
        // own object, the `;` continuation at the second predicate.
        assert_eq!(find("a"), Some((2, 5)));
        assert_eq!(find("b"), Some((2, 14)));
        let lit = spans
            .iter()
            .find(|e| e.triple.object.as_literal().is_some())
            .unwrap();
        assert_eq!((lit.span.line, lit.span.column), (3, 5));
        assert!(spans.iter().all(|e| e.graph.is_none()));
    }

    #[test]
    fn spans_disabled_leaves_table_empty() {
        let (_, _, spans) = Parser::new("<http://e/s> <http://e/p> <http://e/o> .", false)
            .unwrap()
            .parse_spanned()
            .unwrap();
        assert!(spans.is_empty());
    }

    #[test]
    fn spans_carry_named_graph() {
        let (ds, _, spans) = Parser::new("@prefix e: <http://e/> .\ne:g { e:a e:p e:b . }", true)
            .unwrap()
            .record_spans()
            .parse_spanned()
            .unwrap();
        let g: Subject = Iri::new("http://e/g").unwrap().into();
        assert_eq!(ds.named_graph(&g).unwrap().len(), 1);
        let entry = spans.iter().next().unwrap();
        assert_eq!(entry.graph.as_ref(), Some(&g));
        assert_eq!(entry.span.line, 2);
    }

    #[test]
    fn unterminated_graph_block() {
        assert!(Parser::new(
            "<http://e/g> { <http://e/a> <http://e/p> <http://e/b> .",
            true
        )
        .unwrap()
        .parse()
        .is_err());
    }
}
