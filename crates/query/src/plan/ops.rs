//! Pull-based physical operators.
//!
//! Every operator exposes one method — `next()` — and pulls rows from
//! its child on demand (the Volcano model). Nothing materializes unless
//! an operator is a genuine pipeline breaker (`OrderBy`, aggregation,
//! `SELECT *`'s data-dependent header, `UNION`'s input), so a `LIMIT k`
//! at the top of the pipeline stops the scans at the bottom after `k`
//! rows and `ask()` stops after the first — inside OPTIONAL bodies and
//! UNION arms too.
//!
//! Operators come in two row spaces:
//!
//! - **Id operators** ([`IdOperator`]) stream compact [`IdRow`]s of
//!   interned term ids: [`ReplayOp`] (the source at the bottom of every
//!   chain), [`JoinOp`] (a scan when its input is the seed row, an
//!   indexed nested-loop join otherwise), [`FilterOp`], and the two
//!   operators that own subtrees, [`OptionalOp`] and [`UnionOp`]. A
//!   subtree is an ordinary operator chain over its own [`ReplayOp`],
//!   lowered once per query and restarted on new input rows through
//!   [`IdOperator::reseed`].
//! - **Solution operators** ([`SolOperator`]) stream decoded
//!   [`Bindings`]: [`ProjectOp`], [`BufferedSolOp`], [`DistinctOp`],
//!   [`OrderByOp`], [`SliceOp`], [`AskGateOp`].
//!
//! The split keeps joins in id space (term decode happens exactly once,
//! at projection) and applies the solution modifiers in SPARQL's order —
//! projection, DISTINCT, ORDER BY, OFFSET/LIMIT.

use super::ExecCtx;
use crate::sparql::ast::OrderKey;
use crate::sparql::eval::{
    compare_terms, effective_boolean, eval_expr, slot_term, Bindings, IdRow, QueryError, RExpr,
    RPos, RTriple, UNBOUND,
};
use provbench_rdf::TermId;
use std::collections::BTreeSet;

/// A pull-based operator over compact id rows.
pub(crate) trait IdOperator<'g> {
    /// Produce the next row, or `None` when the stream is exhausted.
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError>;

    /// Restart the stream over new input: hand `rows` down the chain to
    /// the [`ReplayOp`] at its bottom. OPTIONAL re-seeds its body with
    /// each input row, UNION each arm with its buffered input — always
    /// before the first pull or after `next()` returned `None`, when
    /// every operator of the chain is back in its start state.
    fn reseed(&mut self, rows: Vec<IdRow>);
}

pub(crate) type BoxIdOp<'g> = Box<dyn IdOperator<'g> + 'g>;

/// A pull-based operator over decoded solution rows.
pub(crate) trait SolOperator<'g> {
    /// Produce the next row, or `None` when the stream is exhausted.
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError>;
}

pub(crate) type BoxSolOp<'g> = Box<dyn SolOperator<'g> + 'g>;

// -------------------------------------------------------- id operators --

/// The source of an id-row chain: replays the rows it was given. The
/// main pipeline starts from one all-unbound seed row; `SELECT *`
/// replays its materialized rows into the projection; subtrees start
/// empty and are re-seeded by their owner.
pub(crate) struct ReplayOp {
    rows: std::vec::IntoIter<IdRow>,
}

impl ReplayOp {
    pub(crate) fn new(rows: Vec<IdRow>) -> Self {
        ReplayOp {
            rows: rows.into_iter(),
        }
    }
}

impl<'g> IdOperator<'g> for ReplayOp {
    fn next(&mut self, _cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        Ok(self.rows.next())
    }

    fn reseed(&mut self, rows: Vec<IdRow>) {
        self.rows = rows.into_iter();
    }
}

/// Bind a scanned id into a row slot, or check consistency when the
/// pattern repeats a variable.
#[inline]
fn bind_slot(row: &mut IdRow, pos: &RPos, id: TermId) -> bool {
    match pos {
        RPos::Var(v) => {
            let raw = id.to_u32();
            if row[*v] == UNBOUND {
                row[*v] = raw;
                true
            } else {
                row[*v] == raw
            }
        }
        // Ground positions were matched by the index scan itself.
        RPos::Const(_) | RPos::Missing => true,
    }
}

/// Indexed nested-loop join of one triple pattern against the child
/// stream: for each input row, the pattern's positions are resolved to
/// constants (ground terms and already-bound variables) and the graph's
/// B-tree indexes are range-scanned for the rest. With the seed row as
/// input this *is* the leading index scan of the pipeline. Every joined
/// row is charged against the row budget.
pub(crate) struct JoinOp<'g> {
    child: BoxIdOp<'g>,
    tp: RTriple,
    /// The child row currently being expanded.
    row: IdRow,
    scan: Option<Box<dyn Iterator<Item = (TermId, TermId, TermId)> + 'g>>,
}

impl<'g> JoinOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, tp: RTriple) -> Self {
        JoinOp {
            child,
            tp,
            row: Vec::new(),
            scan: None,
        }
    }
}

impl<'g> IdOperator<'g> for JoinOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            if let Some(scan) = &mut self.scan {
                for (sid, pid, oid) in scan.by_ref() {
                    let mut nb = self.row.clone();
                    if bind_slot(&mut nb, &self.tp.s, sid)
                        && bind_slot(&mut nb, &self.tp.p, pid)
                        && bind_slot(&mut nb, &self.tp.o, oid)
                    {
                        cx.state.charge()?;
                        return Ok(Some(nb));
                    }
                }
                self.scan = None;
            }
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            let resolve = |pos: &RPos| -> Option<Option<TermId>> {
                // Outer None = can't match; inner None = wildcard scan.
                match pos {
                    RPos::Const(id) => Some(Some(*id)),
                    RPos::Missing => None,
                    RPos::Var(v) => Some(if row[*v] == UNBOUND {
                        None
                    } else {
                        Some(TermId::from_u32(row[*v]))
                    }),
                }
            };
            let (Some(s), Some(p), Some(o)) = (
                resolve(&self.tp.s),
                resolve(&self.tp.p),
                resolve(&self.tp.o),
            ) else {
                continue; // a ground term the graph never interned
            };
            self.scan = Some(cx.graph.ids_matching(s, p, o));
            self.row = row;
        }
    }

    fn reseed(&mut self, rows: Vec<IdRow>) {
        self.child.reseed(rows);
    }
}

/// Keep only rows whose `FILTER` expression is effectively true.
pub(crate) struct FilterOp<'g> {
    child: BoxIdOp<'g>,
    expr: RExpr,
}

impl<'g> FilterOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, expr: RExpr) -> Self {
        FilterOp { child, expr }
    }
}

impl<'g> IdOperator<'g> for FilterOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            let keep = eval_expr(&self.expr, &row, cx.graph)
                .and_then(|v| effective_boolean(&v))
                .unwrap_or(false);
            if keep {
                return Ok(Some(row));
            }
        }
    }

    fn reseed(&mut self, rows: Vec<IdRow>) {
        self.child.reseed(rows);
    }
}

/// `OPTIONAL`: stream each input row's extensions by the body, or pass
/// the row through unchanged — charged as one produced row — when the
/// body has none. The body is re-seeded with one input row at a time.
pub(crate) struct OptionalOp<'g> {
    child: BoxIdOp<'g>,
    body: BoxIdOp<'g>,
    /// The body is streaming the current input row's extensions.
    probing: bool,
    /// The current input row, until the body yields its first
    /// extension: what passes through if it yields none.
    unmatched: Option<IdRow>,
}

impl<'g> OptionalOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, body: BoxIdOp<'g>) -> Self {
        OptionalOp {
            child,
            body,
            probing: false,
            unmatched: None,
        }
    }
}

impl<'g> IdOperator<'g> for OptionalOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            if self.probing {
                if let Some(row) = self.body.next(cx)? {
                    self.unmatched = None;
                    return Ok(Some(row));
                }
                self.probing = false;
                if let Some(row) = self.unmatched.take() {
                    cx.state.charge()?;
                    return Ok(Some(row));
                }
            }
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            self.body.reseed(vec![row.clone()]);
            self.unmatched = Some(row);
            self.probing = true;
        }
    }

    fn reseed(&mut self, rows: Vec<IdRow>) {
        self.child.reseed(rows);
    }
}

/// `UNION`: all left-arm rows, then all right-arm rows. Both arms need
/// the complete input, so the first pull drains the child into a buffer
/// and re-seeds each arm with it; the arms then stream in turn.
pub(crate) struct UnionOp<'g> {
    child: BoxIdOp<'g>,
    arms: [BoxIdOp<'g>; 2],
    /// The arm being streamed; `None` until the input is buffered.
    active: Option<usize>,
}

impl<'g> UnionOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, arms: [BoxIdOp<'g>; 2]) -> Self {
        UnionOp {
            child,
            arms,
            active: None,
        }
    }
}

impl<'g> IdOperator<'g> for UnionOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            let Some(arm) = self.active else {
                let mut input = Vec::new();
                while let Some(r) = self.child.next(cx)? {
                    input.push(r);
                }
                self.arms[0].reseed(input.clone());
                self.arms[1].reseed(input);
                self.active = Some(0);
                continue;
            };
            if let Some(row) = self.arms[arm].next(cx)? {
                return Ok(Some(row));
            }
            if arm == 1 {
                self.active = None;
                return Ok(None);
            }
            self.active = Some(1);
        }
    }

    fn reseed(&mut self, rows: Vec<IdRow>) {
        self.child.reseed(rows);
    }
}

// -------------------------------------------------- solution operators --

/// Decode the projected slots of each id row into named [`Bindings`].
/// This is the only place terms are decoded on the streaming path.
pub(crate) struct ProjectOp<'g> {
    child: BoxIdOp<'g>,
    keep: Vec<(usize, String)>,
}

impl<'g> ProjectOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, keep: Vec<(usize, String)>) -> Self {
        ProjectOp { child, keep }
    }
}

impl<'g> SolOperator<'g> for ProjectOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        let Some(row) = self.child.next(cx)? else {
            return Ok(None);
        };
        let mut b = Bindings::new();
        for (slot, name) in &self.keep {
            if let Some(t) = slot_term(&row, *slot, cx.graph) {
                b.insert(name.clone(), t.clone());
            }
        }
        Ok(Some(b))
    }
}

/// Replay precomputed solution rows (the aggregate path computes its
/// groups eagerly — grouping needs every input row).
pub(crate) struct BufferedSolOp {
    rows: std::vec::IntoIter<Bindings>,
}

impl BufferedSolOp {
    pub(crate) fn new(rows: Vec<Bindings>) -> Self {
        BufferedSolOp {
            rows: rows.into_iter(),
        }
    }
}

impl<'g> SolOperator<'g> for BufferedSolOp {
    fn next(&mut self, _cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        Ok(self.rows.next())
    }
}

/// `DISTINCT`, streaming: emit each row the first time it is seen, so
/// under a `LIMIT` the pipeline stops once enough *distinct* rows came
/// through.
pub(crate) struct DistinctOp<'g> {
    child: BoxSolOp<'g>,
    seen: BTreeSet<Bindings>,
}

impl<'g> DistinctOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>) -> Self {
        DistinctOp {
            child,
            seen: BTreeSet::new(),
        }
    }
}

impl<'g> SolOperator<'g> for DistinctOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        loop {
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            if self.seen.insert(row.clone()) {
                return Ok(Some(row));
            }
        }
    }
}

/// `ORDER BY`: the pipeline breaker. Drains its child on the first
/// pull, sorts stably (unbound keys first, `DESC` reverses per key),
/// then streams the sorted rows — so `LIMIT` above still short-circuits
/// the *emission*, though not the sort itself.
pub(crate) struct OrderByOp<'g> {
    child: BoxSolOp<'g>,
    keys: Vec<OrderKey>,
    sorted: Option<std::vec::IntoIter<Bindings>>,
}

impl<'g> OrderByOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>, keys: Vec<OrderKey>) -> Self {
        OrderByOp {
            child,
            keys,
            sorted: None,
        }
    }
}

impl<'g> SolOperator<'g> for OrderByOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        if self.sorted.is_none() {
            let mut rows = Vec::new();
            while let Some(r) = self.child.next(cx)? {
                rows.push(r);
            }
            rows.sort_by(|a, b| {
                for key in &self.keys {
                    let (x, y) = (a.get(&key.var), b.get(&key.var));
                    let ord = match (x, y) {
                        (None, None) => std::cmp::Ordering::Equal,
                        (None, Some(_)) => std::cmp::Ordering::Less,
                        (Some(_), None) => std::cmp::Ordering::Greater,
                        (Some(x), Some(y)) => {
                            compare_terms(x, y).unwrap_or(std::cmp::Ordering::Equal)
                        }
                    };
                    let ord = if key.descending { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.sorted = Some(rows.into_iter());
        }
        Ok(self.sorted.as_mut().and_then(|it| it.next()))
    }
}

/// `OFFSET`/`LIMIT`. Once the limit is reached the child is never
/// pulled again — this is the operator that turns `LIMIT k` into an
/// early stop for every streaming operator below it.
pub(crate) struct SliceOp<'g> {
    child: BoxSolOp<'g>,
    skip: usize,
    remaining: Option<usize>,
}

impl<'g> SliceOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>, offset: usize, limit: Option<usize>) -> Self {
        SliceOp {
            child,
            skip: offset,
            remaining: limit,
        }
    }
}

impl<'g> SolOperator<'g> for SliceOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        while self.skip > 0 {
            if self.child.next(cx)?.is_none() {
                self.skip = 0;
                return Ok(None);
            }
            self.skip -= 1;
        }
        let Some(row) = self.child.next(cx)? else {
            return Ok(None);
        };
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        Ok(Some(row))
    }
}

/// The `ASK` gate: pull at most one row from the child and emit the
/// boolean result in `Solutions` shape (one empty row = true, none =
/// false). Everything below it stops after the first solution.
pub(crate) struct AskGateOp<'g> {
    child: BoxSolOp<'g>,
    done: bool,
}

impl<'g> AskGateOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>) -> Self {
        AskGateOp { child, done: false }
    }
}

impl<'g> SolOperator<'g> for AskGateOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(self.child.next(cx)?.map(|_| Bindings::new()))
    }
}
