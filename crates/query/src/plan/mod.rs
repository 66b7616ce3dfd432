//! Physical query plans: lowering, streaming execution, explain.
//!
//! This is the query evaluator. The resolved pattern tree is lowered
//! into a pipeline of pull-based operators (module `ops`) rooted in a
//! [`Rows`] iterator — the streaming half of the engine API
//! ([`PreparedQuery::rows`] returns one; `select()` is a collect over
//! it). Every BGP's joins run in the planner-chosen order. OPTIONAL
//! bodies and UNION arms are operator subtrees, lowered and planned once
//! per query and re-seeded from their input rows, so streaming reaches
//! into them: `LIMIT k` stops pulling (and therefore scanning) after `k`
//! rows, and `ASK` after the first, wherever those rows come from.
//!
//! Pipeline shape, bottom to top:
//!
//! ```text
//! Replay(seed) → Scan → IndexedJoin* / Filter / Optional{body} / Union{left, right}   id space
//!      → Project | Aggregate → Distinct → OrderBy → Slice → AskGate               solution space
//! ```
//!
//! Pipeline breakers — operators that must see their whole input
//! before emitting a row — are `OrderBy`, aggregation/`GROUP BY`,
//! `SELECT *` (its header is data-dependent), and `Union`'s input (both
//! arms replay it; the arms themselves stream). Everything else streams.
//!
//! Row order is that of a nested-loop join: an input row's extensions
//! in index-scan order, before the next input row's. `Union` emits all
//! left-arm rows, then all right-arm rows.
//!
//! [`PreparedQuery::rows`]: crate::PreparedQuery::rows

pub(crate) mod ops;

use crate::sparql::ast::{GraphPattern, Projection, Query, QueryForm, VarOrIri, VarOrTerm};
use crate::sparql::eval::{
    apply_aggregates, estimate, plan_bgp, plan_tp_of_ast, plan_tp_of_resolved, resolve, Bindings,
    EvalOptions, PlanTp, QueryError, RPattern, RTriple, Resolved, Solutions, VarTable, UNBOUND,
};
use ops::{
    AskGateOp, BoxIdOp, BoxSolOp, BufferedSolOp, DistinctOp, FilterOp, JoinOp, OptionalOp,
    OrderByOp, ProjectOp, ReplayOp, SliceOp, UnionOp,
};
use provbench_obs::{Registry, LATENCY_BUCKETS};
use provbench_rdf::Graph;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Histogram of evaluation times, observed once per evaluation (at
/// stream exhaustion, error, or drop — whichever comes first).
pub(crate) const EVAL_SECONDS: &str = "provbench_query_eval_seconds";
/// Counter of evaluations by outcome (`result="ok"|"timeout"|"error"`).
pub(crate) const EVALS_TOTAL: &str = "provbench_query_evals_total";
/// Counter of solution rows emitted by evaluations. Public so callers
/// (the endpoint's `/stats`) can read the same series they feed.
pub const ROWS_EMITTED_TOTAL: &str = "provbench_query_rows_emitted_total";

/// Per-evaluation cost accounting: every intermediate row produced is
/// charged against the row budget, and the deadline is polled every
/// `DEADLINE_STRIDE` rows so `Instant::now` stays off the hot path.
pub(crate) struct EvalState {
    produced: u64,
    deadline: Option<Instant>,
    row_budget: Option<u64>,
}

const DEADLINE_STRIDE: u64 = 1024;

impl EvalState {
    fn new(opts: &EvalOptions) -> Self {
        EvalState {
            produced: 0,
            deadline: opts.deadline,
            row_budget: opts.row_budget,
        }
    }

    #[inline]
    pub(crate) fn charge(&mut self) -> Result<(), QueryError> {
        self.produced += 1;
        if let Some(budget) = self.row_budget {
            if self.produced > budget {
                return Err(QueryError::Timeout(format!(
                    "row budget of {budget} intermediate rows exhausted"
                )));
            }
        }
        if self.produced.is_multiple_of(DEADLINE_STRIDE) {
            if let Some(deadline) = self.deadline {
                if Instant::now() > deadline {
                    return Err(QueryError::Timeout("deadline exceeded".into()));
                }
            }
        }
        Ok(())
    }
}

/// Shared execution context threaded through every operator: the graph
/// and the deadline/row-budget accounting.
pub(crate) struct ExecCtx<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) state: EvalState,
}

// ------------------------------------------------------------ lowering --

/// Lowers one query's resolved pattern into id operators.
struct Lowering<'g> {
    graph: &'g Graph,
    reorder: bool,
}

impl<'g> Lowering<'g> {
    /// Lower `pattern` on top of `op`. Nested groups flatten onto the
    /// chain, and each BGP becomes a chain of joins in planner order.
    fn lower(&self, pattern: RPattern, mut op: BoxIdOp<'g>) -> BoxIdOp<'g> {
        match pattern {
            RPattern::Basic(tps) => {
                let order: Vec<usize> = if self.reorder {
                    let plan_tps: Vec<PlanTp> = tps
                        .iter()
                        .map(|tp| plan_tp_of_resolved(tp, self.graph))
                        .collect();
                    plan_bgp(&plan_tps).into_iter().map(|(i, _)| i).collect()
                } else {
                    (0..tps.len()).collect()
                };
                let mut slots: Vec<Option<RTriple>> = tps.into_iter().map(Some).collect();
                for idx in order {
                    let tp = slots[idx].take().expect("plan orders each pattern once");
                    op = Box::new(JoinOp::new(op, tp));
                }
                op
            }
            RPattern::Group(elems) => elems.into_iter().fold(op, |op, e| self.lower(e, op)),
            RPattern::Filter(expr) => Box::new(FilterOp::new(op, expr)),
            RPattern::Optional(body) => {
                let body = self.subtree(*body);
                Box::new(OptionalOp::new(op, body))
            }
            RPattern::Union(left, right) => {
                let arms = [self.subtree(*left), self.subtree(*right)];
                Box::new(UnionOp::new(op, arms))
            }
        }
    }

    /// An OPTIONAL body or UNION arm: a chain over its own empty
    /// [`ReplayOp`], which the owning operator re-seeds.
    fn subtree(&self, pattern: RPattern) -> BoxIdOp<'g> {
        self.lower(pattern, Box::new(ReplayOp::new(Vec::new())))
    }
}

fn projection_names(query: &Query) -> Vec<String> {
    query
        .projections
        .iter()
        .map(|p| match p {
            Projection::Var(v) => v.clone(),
            Projection::Aggregate { alias, .. } => alias.clone(),
        })
        .collect()
}

fn keep_of(variables: &[String], vars: &VarTable) -> Vec<(usize, String)> {
    variables
        .iter()
        .filter_map(|name| {
            vars.index
                .get(name.as_str())
                .map(|&slot| (slot, name.clone()))
        })
        .collect()
}

struct Built<'g> {
    cx: ExecCtx<'g>,
    op: BoxSolOp<'g>,
    variables: Vec<String>,
}

/// Resolve, plan and lower `query` into an executable pipeline.
///
/// Two pipeline breakers run here, at construction: aggregation and
/// `SELECT *`'s header scan. Everything else is deferred to the first
/// `next()` pull.
fn build<'g>(graph: &'g Graph, query: &Query, opts: &EvalOptions) -> Result<Built<'g>, QueryError> {
    let Resolved {
        vars,
        pattern,
        group_by,
        aggregates,
    } = resolve(query, graph)?;
    let nvars = vars.names.len();
    let mut cx = ExecCtx {
        graph,
        state: EvalState::new(opts),
    };
    let seed = Box::new(ReplayOp::new(vec![vec![UNBOUND; nvars]]));
    let source = Lowering {
        graph,
        reorder: opts.reorder_patterns,
    }
    .lower(pattern, seed);

    let has_aggs = query.has_aggregates() || !query.group_by.is_empty();
    let variables: Vec<String>;
    let mut sol: BoxSolOp<'g>;
    if query.form == QueryForm::Ask {
        // ASK needs no decoded projection — stream empty rows and let
        // the gate stop at the first one.
        variables = Vec::new();
        sol = Box::new(ProjectOp::new(source, Vec::new()));
    } else if has_aggs {
        // Grouping needs every input row: drain the source now.
        let mut src = source;
        let mut id_rows = Vec::new();
        while let Some(r) = src.next(&mut cx)? {
            id_rows.push(r);
        }
        let mut rows = apply_aggregates(&vars, &group_by, &aggregates, id_rows, graph)?;
        variables = if query.projections.is_empty() {
            let mut names: BTreeSet<String> = BTreeSet::new();
            for r in &rows {
                names.extend(r.keys().cloned());
            }
            names.into_iter().collect()
        } else {
            projection_names(query)
        };
        for row in &mut rows {
            row.retain(|k, _| variables.contains(k));
        }
        sol = Box::new(BufferedSolOp::new(rows));
    } else if query.projections.is_empty() {
        // SELECT *: the header (variables bound in at least one row,
        // sorted) is data-dependent, so the id rows materialize first.
        let mut src = source;
        let mut id_rows = Vec::new();
        while let Some(r) = src.next(&mut cx)? {
            id_rows.push(r);
        }
        let mut bound = vec![false; nvars];
        for r in &id_rows {
            for (slot, &raw) in r.iter().enumerate() {
                if raw != UNBOUND {
                    bound[slot] = true;
                }
            }
        }
        let mut names: Vec<String> = vars
            .names
            .iter()
            .enumerate()
            .filter(|(slot, _)| bound[*slot])
            .map(|(_, n)| n.clone())
            .collect();
        names.sort();
        variables = names;
        let keep = keep_of(&variables, &vars);
        sol = Box::new(ProjectOp::new(Box::new(ReplayOp::new(id_rows)), keep));
    } else {
        variables = projection_names(query);
        let keep = keep_of(&variables, &vars);
        sol = Box::new(ProjectOp::new(source, keep));
    }

    // Solution modifiers: DISTINCT → ORDER BY → OFFSET/LIMIT → ASK gate.
    if query.distinct {
        sol = Box::new(DistinctOp::new(sol));
    }
    if !query.order_by.is_empty() {
        sol = Box::new(OrderByOp::new(sol, query.order_by.clone()));
    }
    if query.offset > 0 || query.limit.is_some() {
        sol = Box::new(SliceOp::new(sol, query.offset, query.limit));
    }
    if query.form == QueryForm::Ask {
        sol = Box::new(AskGateOp::new(sol));
    }

    Ok(Built {
        cx,
        op: sol,
        variables,
    })
}

// ----------------------------------------------------------- execution --

/// A streaming query result: the projected header plus an iterator of
/// solution rows, pulled on demand through the physical plan.
///
/// Yielded by [`PreparedQuery::rows`](crate::PreparedQuery::rows).
/// Draining it fully produces exactly the rows (and, on over-budget
/// queries, exactly the error) that `select()` returns — `select()` is
/// literally a collect over this iterator. Stopping early is the point:
/// dropping a partially-consumed `Rows` abandons the remaining scans,
/// releases the deadline/row-budget accounting that lived inside it,
/// and still records its metrics exactly once.
///
/// After the first `Err` (or the end of the stream) the iterator is
/// fused: every later `next()` returns `None`.
pub struct Rows<'g> {
    cx: ExecCtx<'g>,
    op: BoxSolOp<'g>,
    variables: Vec<String>,
    registry: Option<&'g Registry>,
    started: Instant,
    emitted: u64,
    finished: bool,
    recorded: bool,
}

impl<'g> Rows<'g> {
    /// The projected variable names, in projection order — available
    /// before any row is pulled (for `SELECT *` the header was computed
    /// at plan time).
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    fn finalize(&mut self, outcome: &'static str) {
        if self.recorded {
            return;
        }
        self.recorded = true;
        if let Some(registry) = self.registry {
            record(registry, self.started.elapsed(), outcome, self.emitted);
        }
    }
}

impl<'g> Iterator for Rows<'g> {
    type Item = Result<Bindings, QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        match self.op.next(&mut self.cx) {
            Ok(Some(row)) => {
                self.emitted += 1;
                Some(Ok(row))
            }
            Ok(None) => {
                self.finished = true;
                self.finalize("ok");
                None
            }
            Err(e) => {
                self.finished = true;
                self.finalize(outcome_of(&e));
                Some(Err(e))
            }
        }
    }
}

impl<'g> Drop for Rows<'g> {
    fn drop(&mut self) {
        // A partially-consumed stream still records exactly once; rows
        // that were pulled count, abandoned work does not.
        self.finalize("ok");
    }
}

fn outcome_of(e: &QueryError) -> &'static str {
    match e {
        QueryError::Timeout(_) => "timeout",
        _ => "error",
    }
}

fn record(registry: &Registry, elapsed: Duration, outcome: &'static str, emitted: u64) {
    registry
        .histogram(
            EVAL_SECONDS,
            "Query evaluation wall-clock time",
            LATENCY_BUCKETS,
        )
        .observe_duration(elapsed);
    registry
        .counter_with(
            EVALS_TOTAL,
            "Query evaluations by outcome",
            &[("result", outcome)],
        )
        .inc();
    registry
        .counter(
            ROWS_EMITTED_TOTAL,
            "Solution rows emitted by query evaluations",
        )
        .add(emitted);
}

/// Build the physical plan for `query` and return its streaming
/// [`Rows`]. Metrics (evaluation latency, outcome, rows emitted) are
/// recorded into `metrics` exactly once per call — at exhaustion,
/// error, or drop; a failure during plan construction records here.
pub(crate) fn rows<'g>(
    graph: &'g Graph,
    query: &Query,
    opts: &EvalOptions,
    metrics: Option<&'g Registry>,
) -> Result<Rows<'g>, QueryError> {
    let started = Instant::now();
    match build(graph, query, opts) {
        Ok(built) => Ok(Rows {
            cx: built.cx,
            op: built.op,
            variables: built.variables,
            registry: metrics,
            started,
            emitted: 0,
            finished: false,
            recorded: false,
        }),
        Err(e) => {
            if let Some(registry) = metrics {
                record(registry, started.elapsed(), outcome_of(&e), 0);
            }
            Err(e)
        }
    }
}

/// Evaluate to a fully-materialized [`Solutions`]: a collect over
/// [`rows`].
pub(crate) fn solutions(
    graph: &Graph,
    query: &Query,
    opts: &EvalOptions,
    metrics: Option<&Registry>,
) -> Result<Solutions, QueryError> {
    let mut stream = rows(graph, query, opts, metrics)?;
    let variables = stream.variables().to_vec();
    let mut out = Vec::new();
    for row in &mut stream {
        out.push(row?);
    }
    Ok(Solutions {
        variables,
        rows: out,
    })
}

// ------------------------------------------------------------- explain --

fn render_s(p: &VarOrTerm) -> String {
    match p {
        VarOrTerm::Var(v) => format!("?{v}"),
        VarOrTerm::Term(t) => t.to_string(),
    }
}

fn render_p(p: &VarOrIri) -> String {
    match p {
        VarOrIri::Var(v) => format!("?{v}"),
        VarOrIri::Iri(i) => i.to_string(),
    }
}

/// Render the physical operator tree without graph statistics (the
/// planner falls back to structural selectivity). Prefer
/// [`explain_on`], which annotates operators with real estimates.
#[cfg(test)]
pub(crate) fn explain(query: &Query, opts: &EvalOptions) -> String {
    explain_impl(None, query, opts)
}

/// Render the physical operator tree the plan layer would execute for
/// `query` against `graph`: pipeline stages in execution order (BGP
/// joins in planner order, each annotated with its cardinality
/// estimate), then the solution operators with their pushdown notes.
pub(crate) fn explain_on(graph: &Graph, query: &Query, opts: &EvalOptions) -> String {
    explain_impl(Some(graph), query, opts)
}

fn explain_impl(graph: Option<&Graph>, query: &Query, opts: &EvalOptions) -> String {
    let mut out = String::new();
    let form = match query.form {
        QueryForm::Select => "SELECT",
        QueryForm::Ask => "ASK",
    };
    out.push_str(&format!(
        "{form} plan (planner {}):\n",
        if opts.reorder_patterns { "on" } else { "off" }
    ));
    let mut leading = true;
    render_pattern(&query.pattern, 1, &mut leading, graph, opts, &mut out);
    let has_aggs = query.has_aggregates() || !query.group_by.is_empty();
    if has_aggs {
        if query.group_by.is_empty() {
            out.push_str("  Aggregate (materializes)\n");
        } else {
            out.push_str(&format!(
                "  Aggregate GroupBy {:?} (materializes)\n",
                query.group_by
            ));
        }
    }
    if query.form == QueryForm::Select {
        if query.projections.is_empty() && !has_aggs {
            out.push_str("  Project * (materializes: header is data-dependent)\n");
        } else {
            out.push_str(&format!("  Project {:?}\n", projection_names(query)));
        }
    }
    if query.distinct {
        out.push_str("  Distinct (streamed)\n");
    }
    if !query.order_by.is_empty() {
        out.push_str(&format!(
            "  OrderBy {:?} (materializes)\n",
            query.order_by.iter().map(|k| &k.var).collect::<Vec<_>>()
        ));
    }
    if query.offset > 0 {
        out.push_str(&format!("  Offset {}\n", query.offset));
    }
    if let Some(l) = query.limit {
        if query.order_by.is_empty() && !has_aggs {
            out.push_str(&format!(
                "  Limit {l} (pushed: stops the scan after {l} rows)\n"
            ));
        } else {
            out.push_str(&format!("  Limit {l}\n"));
        }
    }
    if query.form == QueryForm::Ask {
        out.push_str("  AskGate (first row short-circuits)\n");
    }
    out
}

fn render_pattern(
    p: &GraphPattern,
    depth: usize,
    leading: &mut bool,
    graph: Option<&Graph>,
    opts: &EvalOptions,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    match p {
        GraphPattern::Basic(tps) => {
            let mut names = VarTable::default();
            let plan_tps: Vec<PlanTp> = tps
                .iter()
                .map(|tp| plan_tp_of_ast(tp, graph, &mut names))
                .collect();
            let order: Vec<(usize, u64)> = if opts.reorder_patterns {
                plan_bgp(&plan_tps)
            } else {
                plan_tps
                    .iter()
                    .enumerate()
                    .map(|(i, tp)| (i, estimate(tp, 0)))
                    .collect()
            };
            for (idx, est) in order {
                let tp = &tps[idx];
                let name = if *leading { "Scan" } else { "IndexedJoin" };
                *leading = false;
                out.push_str(&format!(
                    "{pad}{name} {} {} {}",
                    render_s(&tp.subject),
                    render_p(&tp.predicate),
                    render_s(&tp.object),
                ));
                if graph.is_some() {
                    out.push_str(&format!("  (est ~{est} rows)"));
                }
                out.push('\n');
            }
        }
        GraphPattern::Group(elems) => {
            // Nested groups flatten onto the pipeline spine.
            for e in elems {
                render_pattern(e, depth, leading, graph, opts, out);
            }
        }
        GraphPattern::Optional(inner) => {
            out.push_str(&format!("{pad}Optional (per-row probe)\n"));
            let mut inner_leading = false;
            render_pattern(inner, depth + 1, &mut inner_leading, graph, opts, out);
            *leading = false;
        }
        GraphPattern::Union(l, r) => {
            out.push_str(&format!("{pad}Union (drains input; left arm then right)\n"));
            let mut arm = false;
            render_pattern(l, depth + 1, &mut arm, graph, opts, out);
            let mut arm = false;
            render_pattern(r, depth + 1, &mut arm, graph, opts, out);
            *leading = false;
        }
        GraphPattern::Filter(_) => {
            out.push_str(&format!("{pad}Filter\n"));
        }
    }
}
