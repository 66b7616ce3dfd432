//! The unified query API: [`QueryEngine`] prepares queries against one
//! graph, [`PreparedQuery`] executes them.
//!
//! Preparation parses the query text once; the resulting plan is held
//! behind an [`Arc`] so callers (notably the endpoint's plan cache) can
//! share one parsed query across requests without re-parsing:
//!
//! ```
//! use provbench_query::QueryEngine;
//! use provbench_rdf::parse_turtle;
//!
//! let (graph, _) = parse_turtle(r#"
//!   @prefix prov: <http://www.w3.org/ns/prov#> .
//!   <http://e/r1> a prov:Activity .
//! "#).unwrap();
//! let engine = QueryEngine::new(&graph);
//! let prepared = engine.prepare(
//!     "PREFIX prov: <http://www.w3.org/ns/prov#> SELECT ?r WHERE { ?r a prov:Activity }",
//! ).unwrap();
//! assert_eq!(prepared.select().unwrap().len(), 1);
//! ```

use crate::plan::{self, Rows};
use crate::sparql::ast::Query;
use crate::sparql::eval::{EvalOptions, QueryError, Solutions};
use crate::sparql::parser::parse_query;
use provbench_obs::{Registry, LATENCY_BUCKETS};
use provbench_rdf::Graph;
use std::sync::Arc;
use std::time::Instant;

/// Histogram of query-text parse times, observed by every `prepare`.
const PREPARE_SECONDS: &str = "provbench_query_prepare_seconds";

/// A query engine bound to one graph.
///
/// Cheap to construct (it borrows the graph and copies the options);
/// make one per graph, or per request when per-request options such as
/// deadlines are in play.
///
/// Every engine records prepare/eval timings into a metrics
/// [`Registry`] — the process-wide [`provbench_obs::global`] one by
/// default, or an explicit registry via [`QueryEngine::with_metrics`]
/// (the endpoint threads its own through so `GET /metrics` and tests
/// see exactly the traffic they generated).
#[derive(Clone, Copy, Debug)]
pub struct QueryEngine<'g> {
    graph: &'g Graph,
    options: EvalOptions,
    metrics: Option<&'g Registry>,
}

impl<'g> QueryEngine<'g> {
    /// An engine over `graph` with default options (selectivity planner
    /// on, no deadline or row budget).
    pub fn new(graph: &'g Graph) -> Self {
        QueryEngine {
            graph,
            options: EvalOptions::default(),
            metrics: None,
        }
    }

    /// An engine over `graph` with explicit options.
    pub fn with_options(graph: &'g Graph, options: EvalOptions) -> Self {
        QueryEngine {
            graph,
            options,
            metrics: None,
        }
    }

    /// Record this engine's timings into `registry` instead of the
    /// process-wide global one.
    pub fn with_metrics(mut self, registry: &'g Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The registry this engine records into.
    fn registry(&self) -> &Registry {
        self.metrics
            .unwrap_or_else(|| provbench_obs::global().as_ref())
    }

    /// The evaluation options this engine runs with.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// The graph this engine queries.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The planner's cardinality statistics for the bound graph: every
    /// predicate paired with its triple count, in IRI order.
    ///
    /// Sorted by IRI (not by interner id) so the numbers compare across
    /// graphs with different intern orders — in particular, a cold
    /// source parse versus a warm snapshot load of the same corpus must
    /// report identical statistics, which is how the snapshot loader's
    /// persisted stats are cross-checked end to end.
    pub fn predicate_statistics(&self) -> Vec<(provbench_rdf::Iri, usize)> {
        let mut stats: Vec<(provbench_rdf::Iri, usize)> = self
            .graph
            .predicates()
            .into_iter()
            .map(|p| {
                let count = self
                    .graph
                    .term_to_id(&provbench_rdf::Term::Iri(p.clone()))
                    .map(|id| self.graph.predicate_cardinality(id))
                    .unwrap_or(0);
                (p, count)
            })
            .collect();
        stats.sort_by(|(a, _), (b, _)| a.as_str().cmp(b.as_str()));
        stats
    }

    /// Parse `text` into an executable [`PreparedQuery`].
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery<'g>, QueryError> {
        let start = Instant::now();
        let parsed = parse_query(text);
        self.registry()
            .histogram(
                PREPARE_SECONDS,
                "Time spent parsing SPARQL query text",
                LATENCY_BUCKETS,
            )
            .observe_duration(start.elapsed());
        let query = parsed.map_err(QueryError::Parse)?;
        Ok(self.prepare_parsed(Arc::new(query)))
    }

    /// Wrap an already-parsed query (e.g. one served from a plan cache)
    /// without re-parsing.
    pub fn prepare_parsed(&self, query: Arc<Query>) -> PreparedQuery<'g> {
        PreparedQuery {
            graph: self.graph,
            options: self.options,
            metrics: self.metrics,
            query,
        }
    }
}

/// A parsed query bound to a graph, ready to run any number of times.
#[derive(Clone, Debug)]
pub struct PreparedQuery<'g> {
    graph: &'g Graph,
    options: EvalOptions,
    metrics: Option<&'g Registry>,
    query: Arc<Query>,
}

impl<'g> PreparedQuery<'g> {
    /// The registry evaluations record into.
    fn registry(&self) -> &'g Registry {
        match self.metrics {
            Some(r) => r,
            None => provbench_obs::global().as_ref(),
        }
    }

    /// Evaluate and return the solution rows, fully materialized.
    ///
    /// This is exactly `rows()` collected to the end: same rows, same
    /// order, same errors.
    pub fn select(&self) -> Result<Solutions, QueryError> {
        self.select_with(&self.options)
    }

    /// Evaluate as a boolean: true iff any solution exists. Works for
    /// `ASK` and `SELECT` forms alike.
    ///
    /// Routed through the streaming first-row fast path: evaluation
    /// stops — and its scans stop — as soon as one row is produced,
    /// so an ASK over an adversarial join costs one probe chain, not
    /// the cross product.
    pub fn ask(&self) -> Result<bool, QueryError> {
        let mut rows = self.rows()?;
        match rows.next() {
            Some(Ok(_)) => Ok(true),
            Some(Err(e)) => Err(e),
            None => Ok(false),
        }
    }

    /// Evaluate with different options than the engine's (e.g. a
    /// per-request deadline on a cached plan).
    pub fn select_with(&self, options: &EvalOptions) -> Result<Solutions, QueryError> {
        plan::solutions(self.graph, &self.query, options, Some(self.registry()))
    }

    /// Evaluate lazily: a streaming [`Rows`] iterator over the solution
    /// rows, pulled on demand through the physical plan.
    ///
    /// Dropping the iterator early abandons the remaining work — this
    /// is how `LIMIT`-style consumers avoid paying full-evaluation
    /// cost. A full drain is byte-identical to [`select`](Self::select)
    /// (which is implemented as a collect over this).
    pub fn rows(&self) -> Result<Rows<'g>, QueryError> {
        self.rows_with(&self.options)
    }

    /// Like [`rows`](Self::rows), with per-call options (e.g. a
    /// per-request deadline on a cached plan).
    pub fn rows_with(&self, options: &EvalOptions) -> Result<Rows<'g>, QueryError> {
        plan::rows(self.graph, &self.query, options, Some(self.registry()))
    }

    /// The physical operator tree as indented text: pipeline stages in
    /// execution order, BGPs in planner-chosen join order with
    /// per-operator cardinality estimates from the bound graph's
    /// statistics, and pushdown annotations.
    pub fn explain(&self) -> String {
        plan::explain_on(self.graph, &self.query, &self.options)
    }

    /// The parsed query, shareable (e.g. for a plan cache).
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provbench_rdf::parse_turtle;

    fn graph() -> Graph {
        let (g, _) = parse_turtle(
            r#"
            @prefix e: <http://e/> .
            e:r1 a e:Run ; e:by e:alice .
            e:r2 a e:Run ; e:by e:bob .
            "#,
        )
        .unwrap();
        g
    }

    #[test]
    fn prepare_select_ask_explain() {
        let g = graph();
        let engine = QueryEngine::new(&g);
        let p = engine
            .prepare("PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run } ORDER BY ?r")
            .unwrap();
        let s = p.select().unwrap();
        assert_eq!(s.len(), 2);
        assert!(p.ask().unwrap());
        let plan = p.explain();
        assert!(plan.contains("SELECT plan (planner on)"), "{plan}");
        assert!(plan.contains("est ~"), "{plan}");

        let none = engine
            .prepare("PREFIX e: <http://e/> ASK { ?r a e:Workflow }")
            .unwrap();
        assert!(!none.ask().unwrap());
    }

    #[test]
    fn prepare_surfaces_parse_errors() {
        let g = graph();
        match QueryEngine::new(&g).prepare("SELECT WHERE") {
            Err(QueryError::Parse(e)) => assert!(e.line >= 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn prepared_query_is_reusable_and_shareable() {
        let g = graph();
        let engine = QueryEngine::new(&g);
        let p = engine
            .prepare("PREFIX e: <http://e/> SELECT ?who WHERE { ?r e:by ?who }")
            .unwrap();
        let a = p.select().unwrap();
        let b = p.select().unwrap();
        assert_eq!(a, b);
        // The plan is shared, not re-parsed.
        let again = engine.prepare_parsed(Arc::clone(p.query()));
        assert_eq!(again.select().unwrap(), a);
        assert!(Arc::ptr_eq(p.query(), again.query()));
    }

    #[test]
    fn predicate_statistics_are_iri_ordered_and_intern_order_independent() {
        let g = graph();
        let stats = QueryEngine::new(&g).predicate_statistics();
        let names: Vec<&str> = stats.iter().map(|(p, _)| p.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(stats.len(), 2); // rdf:type and e:by
        assert!(stats.iter().all(|(_, n)| *n == 2));

        // Same triples inserted in a different order intern differently
        // but must report identical statistics.
        let (shuffled, _) = parse_turtle(
            r#"
            @prefix e: <http://e/> .
            e:r2 e:by e:bob . e:r2 a e:Run .
            e:r1 e:by e:alice . e:r1 a e:Run .
            "#,
        )
        .unwrap();
        assert_eq!(QueryEngine::new(&shuffled).predicate_statistics(), stats);
    }

    #[test]
    fn ask_uses_first_row_fast_path_on_adversarial_cross_join() {
        let g = graph();
        // Budget of 2 = one charged row per join level on the
        // first-row path; the materialized cross join (4 triples
        // self-joined, 16 rows) trips it immediately.
        let tight = EvalOptions::default().with_row_budget(2);
        let engine = QueryEngine::with_options(&g, tight);
        let ask = engine.prepare("ASK { ?a ?b ?c . ?d ?e ?f }").unwrap();
        assert!(ask.ask().unwrap());

        let select = engine
            .prepare("SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f }")
            .unwrap();
        match select.select() {
            Err(QueryError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        // ask() takes the same early-exit path even on a SELECT form.
        assert!(select.ask().unwrap());
    }

    #[test]
    fn rows_streams_and_matches_select() {
        let g = graph();
        let engine = QueryEngine::new(&g);
        let p = engine
            .prepare("PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run } ORDER BY ?r")
            .unwrap();
        let rows = p.rows().unwrap();
        assert_eq!(rows.variables(), ["r"]);
        let streamed: Vec<_> = rows.map(Result::unwrap).collect();
        let materialized = p.select().unwrap();
        assert_eq!(streamed, materialized.rows);

        // A partially-consumed iterator can be dropped mid-stream and
        // the plan stays reusable.
        let mut partial = p.rows().unwrap();
        assert!(partial.next().is_some());
        drop(partial);
        assert_eq!(p.select().unwrap().len(), 2);
    }

    #[test]
    fn per_request_options_on_cached_plan() {
        let g = graph();
        let engine = QueryEngine::new(&g);
        let p = engine
            .prepare("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }")
            .unwrap();
        let tight = EvalOptions::default().with_row_budget(5);
        match p.select_with(&tight) {
            Err(QueryError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        // The engine's own (unbounded) options still work.
        assert!(p.select().is_ok());
    }
}
