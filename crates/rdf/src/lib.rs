//! # provbench-rdf
//!
//! A self-contained RDF 1.1 substrate used by the ProvBench reproduction.
//!
//! The Wf4Ever PROV-corpus is distributed as RDF (Turtle and TriG files);
//! this crate provides everything required to create, store, query, parse
//! and serialize such data without external RDF tooling:
//!
//! * [`term`] — IRIs, blank nodes and literals ([`Iri`], [`BlankNode`],
//!   [`Literal`], [`Term`]);
//! * [`triple`] — [`Triple`]s and [`Quad`]s;
//! * [`graph`] — an indexed triple store ([`Graph`]) with pattern matching
//!   over SPO/POS/OSP B-tree indexes;
//! * [`dataset`] — named-graph datasets ([`Dataset`]) as needed for
//!   `prov:Bundle`s serialized as TriG graphs;
//! * [`namespace`] — prefix management and CURIE compaction;
//! * [`turtle`], [`ntriples`], [`trig`] — readers and writers for the three
//!   concrete syntaxes the corpus uses;
//! * [`xsd`] — `xsd:dateTime` parsing/formatting and other typed-literal
//!   helpers (no external date/time crate).
//!
//! ## Example
//!
//! ```
//! use provbench_rdf::{Graph, Iri, Literal, Term, Triple};
//!
//! let mut g = Graph::new();
//! let run = Iri::new("http://example.org/run/1").unwrap();
//! let p = Iri::new("http://www.w3.org/ns/prov#startedAtTime").unwrap();
//! g.insert(Triple::new(
//!     run.clone(),
//!     p.clone(),
//!     Term::Literal(Literal::typed(
//!         "2013-01-15T10:30:00Z",
//!         Iri::new("http://www.w3.org/2001/XMLSchema#dateTime").unwrap(),
//!     )),
//! ));
//! assert_eq!(g.len(), 1);
//! assert_eq!(g.triples_matching(Some(&run.into()), Some(&p), None).count(), 1);
//! ```

pub mod canon;
pub mod codec;
pub mod dataset;
pub mod error;
pub mod graph;
mod interner;
pub mod namespace;
pub mod nquads;
pub mod ntriples;
pub mod span;
pub mod term;
pub mod trig;
pub mod triple;
pub mod turtle;
pub mod xsd;

/// The deepest any input may nest, in each of the workspace's
/// recursive-descent parsers. Turtle and TriG count one level for each
/// blank-node property list `[ … ]` and each collection `( … )`; the
/// SPARQL parser (`provbench-query`) counts its groups, parentheses and
/// operator chains. Past it, a parser returns its ordinary spanned
/// error, so a hostile document or query is refused, never a stack
/// overflow, which would abort the whole process. The deepest accepted
/// input parses on a thread with a 2 MiB stack, a spawned thread's
/// default, in a debug build too. The generated corpus and `examples/`
/// nest no `[` or `(` at all, and Q1–Q6 nest at most 5 levels.
pub const MAX_NESTING: usize = 128;

pub use canon::{canonicalize, isomorphic};
pub use dataset::{Dataset, GraphName};
pub use error::{ParseError, RdfError};
pub use graph::{Graph, TermId};
pub use namespace::PrefixMap;
pub use nquads::{parse_nquads, write_nquads};
pub use ntriples::{parse_ntriples, parse_ntriples_spanned, write_ntriples};
pub use span::{Span, SpanTable, SpannedStatement};
pub use term::{BlankNode, Iri, Literal, Subject, Term};
pub use trig::{parse_trig, parse_trig_spanned, write_trig};
pub use triple::{Quad, Triple};
pub use turtle::{parse_turtle, parse_turtle_spanned, write_turtle};
pub use xsd::DateTime;
