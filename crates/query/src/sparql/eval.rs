//! What query evaluation needs besides the operators themselves.
//!
//! - **Resolution** compiles the parsed AST against the target graph:
//!   every variable gets a dense slot id, and every ground term is looked
//!   up in the graph's interner once. A constant that the graph has never
//!   interned can match nothing, which resolution records directly.
//!   Solution rows are then compact slabs of `u32` term ids (one slot per
//!   variable), and terms are decoded only at projection time (or inside
//!   `FILTER` expressions, which need lexical values).
//! - **Planner estimates** order each basic graph pattern by estimated
//!   selectivity (bound-term count first, then per-predicate cardinality
//!   from the graph's statistics).
//! - **Expressions** (`FILTER`) and **aggregates** (`GROUP BY`).
//!
//! The physical operators that run a resolved query live in
//! [`crate::plan`].

use super::ast::*;
use super::parser::QueryParseError;
use provbench_rdf::{Graph, Term, TermId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::time::{Duration, Instant};

/// One solution row: variable → bound term.
pub type Bindings = BTreeMap<String, Term>;

/// A query result: projected variables plus solution rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solutions {
    /// Projected variable names, in projection order.
    pub variables: Vec<String>,
    /// Solution rows.
    pub rows: Vec<Bindings>,
}

impl Solutions {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The binding of `var` in row `row`, if any.
    pub fn get(&self, row: usize, var: &str) -> Option<&Term> {
        self.rows.get(row).and_then(|b| b.get(var))
    }
}

/// Why a query failed.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The query text failed to parse.
    Parse(QueryParseError),
    /// The query was structurally invalid for evaluation.
    Eval(String),
    /// Evaluation was aborted: the deadline passed or the row budget
    /// (both set through [`EvalOptions`]) was exhausted.
    Timeout(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Eval(m) => write!(f, "evaluation error: {m}"),
            QueryError::Timeout(m) => write!(f, "evaluation aborted: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Evaluation options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Reorder the triple patterns of each BGP by estimated selectivity
    /// (most-bound first, per-predicate cardinality as tie-break) so
    /// joins stay bound. On by default; turn off for the planner
    /// ablation bench.
    pub reorder_patterns: bool,
    /// Abort evaluation once this instant passes. Checked periodically
    /// on the intermediate-row hot path.
    pub deadline: Option<Instant>,
    /// Abort evaluation after producing this many intermediate rows —
    /// a deterministic cost bound independent of wall-clock speed.
    pub row_budget: Option<u64>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            reorder_patterns: true,
            deadline: None,
            row_budget: None,
        }
    }
}

impl EvalOptions {
    /// Options with the selectivity planner disabled (patterns run in
    /// written order).
    pub fn lexical() -> Self {
        EvalOptions {
            reorder_patterns: false,
            ..EvalOptions::default()
        }
    }

    /// Abort evaluation `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Abort evaluation at the given instant.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Abort evaluation after `rows` intermediate rows.
    pub fn with_row_budget(mut self, rows: u64) -> Self {
        self.row_budget = Some(rows);
        self
    }
}

// ------------------------------------------------------- resolution --

/// Sentinel for an unbound slot in a compact binding row.
pub(crate) const UNBOUND: u32 = u32::MAX;

/// A compact solution row: one `u32` term id per variable slot.
pub(crate) type IdRow = Vec<u32>;

/// Dense variable numbering for one (query, graph) evaluation.
#[derive(Default)]
pub(crate) struct VarTable {
    pub(crate) names: Vec<String>,
    pub(crate) index: HashMap<String, usize>,
}

impl VarTable {
    pub(crate) fn slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        i
    }
}

/// A pattern position after resolution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RPos {
    /// A variable slot.
    Var(usize),
    /// A ground term the graph knows.
    Const(TermId),
    /// A ground term the graph has never interned: matches nothing.
    Missing,
}

#[derive(Clone, Debug)]
pub(crate) struct RTriple {
    pub(crate) s: RPos,
    pub(crate) p: RPos,
    pub(crate) o: RPos,
}

pub(crate) enum RPattern {
    Basic(Vec<RTriple>),
    Group(Vec<RPattern>),
    Optional(Box<RPattern>),
    Union(Box<RPattern>, Box<RPattern>),
    Filter(RExpr),
}

/// [`Expression`] with variables resolved to slots.
pub(crate) enum RExpr {
    Var(usize),
    Constant(Term),
    Compare(CompareOp, Box<RExpr>, Box<RExpr>),
    And(Box<RExpr>, Box<RExpr>),
    Or(Box<RExpr>, Box<RExpr>),
    Not(Box<RExpr>),
    Bound(usize),
    Contains(Box<RExpr>, Box<RExpr>),
    StrStarts(Box<RExpr>, Box<RExpr>),
    StrEnds(Box<RExpr>, Box<RExpr>),
    Lang(Box<RExpr>),
    Datatype(Box<RExpr>),
    IsIri(Box<RExpr>),
    IsLiteral(Box<RExpr>),
    IsBlank(Box<RExpr>),
    Regex(Box<RExpr>, String, bool),
    Str(Box<RExpr>),
}

pub(crate) struct RAggregate {
    pub(crate) function: AggregateFn,
    pub(crate) var: Option<usize>,
    pub(crate) alias: String,
}

/// The query compiled against one graph.
pub(crate) struct Resolved {
    pub(crate) vars: VarTable,
    pub(crate) pattern: RPattern,
    pub(crate) group_by: Vec<usize>,
    pub(crate) aggregates: Vec<RAggregate>,
}

fn resolve_var_or_term(pos: &VarOrTerm, vars: &mut VarTable, graph: &Graph) -> RPos {
    match pos {
        VarOrTerm::Var(v) => RPos::Var(vars.slot(v)),
        VarOrTerm::Term(t) => match graph.term_to_id(t) {
            Some(id) => RPos::Const(id),
            None => RPos::Missing,
        },
    }
}

fn resolve_var_or_iri(pos: &VarOrIri, vars: &mut VarTable, graph: &Graph) -> RPos {
    match pos {
        VarOrIri::Var(v) => RPos::Var(vars.slot(v)),
        VarOrIri::Iri(i) => match graph.term_to_id(&Term::Iri(i.clone())) {
            Some(id) => RPos::Const(id),
            None => RPos::Missing,
        },
    }
}

fn resolve_expr(e: &Expression, vars: &mut VarTable) -> RExpr {
    let go = |e: &Expression, vars: &mut VarTable| Box::new(resolve_expr(e, vars));
    match e {
        Expression::Var(v) => RExpr::Var(vars.slot(v)),
        Expression::Constant(t) => RExpr::Constant(t.clone()),
        Expression::Compare(op, l, r) => RExpr::Compare(*op, go(l, vars), go(r, vars)),
        Expression::And(l, r) => RExpr::And(go(l, vars), go(r, vars)),
        Expression::Or(l, r) => RExpr::Or(go(l, vars), go(r, vars)),
        Expression::Not(i) => RExpr::Not(go(i, vars)),
        Expression::Bound(v) => RExpr::Bound(vars.slot(v)),
        Expression::Contains(h, n) => RExpr::Contains(go(h, vars), go(n, vars)),
        Expression::StrStarts(h, n) => RExpr::StrStarts(go(h, vars), go(n, vars)),
        Expression::StrEnds(h, n) => RExpr::StrEnds(go(h, vars), go(n, vars)),
        Expression::Lang(i) => RExpr::Lang(go(i, vars)),
        Expression::Datatype(i) => RExpr::Datatype(go(i, vars)),
        Expression::IsIri(i) => RExpr::IsIri(go(i, vars)),
        Expression::IsLiteral(i) => RExpr::IsLiteral(go(i, vars)),
        Expression::IsBlank(i) => RExpr::IsBlank(go(i, vars)),
        Expression::Regex(i, p, ci) => RExpr::Regex(go(i, vars), p.clone(), *ci),
        Expression::Str(i) => RExpr::Str(go(i, vars)),
    }
}

/// One triple pattern over `graph`'s ids: the lowering and `explain`
/// plan from this.
pub(crate) fn resolve_triple(tp: &TriplePattern, vars: &mut VarTable, graph: &Graph) -> RTriple {
    RTriple {
        s: resolve_var_or_term(&tp.subject, vars, graph),
        p: resolve_var_or_iri(&tp.predicate, vars, graph),
        o: resolve_var_or_term(&tp.object, vars, graph),
    }
}

fn resolve_pattern(p: &GraphPattern, vars: &mut VarTable, graph: &Graph) -> RPattern {
    match p {
        GraphPattern::Basic(tps) => RPattern::Basic(
            tps.iter()
                .map(|tp| resolve_triple(tp, vars, graph))
                .collect(),
        ),
        GraphPattern::Group(elems) => RPattern::Group(
            elems
                .iter()
                .map(|e| resolve_pattern(e, vars, graph))
                .collect(),
        ),
        GraphPattern::Optional(inner) => {
            RPattern::Optional(Box::new(resolve_pattern(inner, vars, graph)))
        }
        GraphPattern::Union(l, r) => RPattern::Union(
            Box::new(resolve_pattern(l, vars, graph)),
            Box::new(resolve_pattern(r, vars, graph)),
        ),
        GraphPattern::Filter(e) => RPattern::Filter(resolve_expr(e, vars)),
    }
}

pub(crate) fn resolve(query: &Query, graph: &Graph) -> Result<Resolved, QueryError> {
    let mut vars = VarTable::default();
    let pattern = resolve_pattern(&query.pattern, &mut vars, graph);
    // Slots for variables that only appear outside the pattern (they
    // stay unbound, but grouping and aggregation still reference them).
    let group_by: Vec<usize> = query.group_by.iter().map(|v| vars.slot(v)).collect();
    let mut aggregates = Vec::new();
    for p in &query.projections {
        if let Projection::Aggregate {
            function,
            var,
            alias,
        } = p
        {
            let var = match (function, var) {
                (AggregateFn::CountDistinct, None) => {
                    return Err(QueryError::Eval("COUNT(DISTINCT *) unsupported".into()))
                }
                (AggregateFn::Min | AggregateFn::Max, None) => {
                    return Err(QueryError::Eval(format!("{function:?} needs a variable")))
                }
                (_, v) => v.as_deref().map(|v| vars.slot(v)),
            };
            aggregates.push(RAggregate {
                function: *function,
                var,
                alias: alias.clone(),
            });
        }
    }
    for k in &query.order_by {
        vars.slot(&k.var);
    }
    Ok(Resolved {
        vars,
        pattern,
        group_by,
        aggregates,
    })
}

// ----------------------------------------------------------- planner --

/// Planner view of one triple pattern: which slots are variables (by an
/// arbitrary dense key) and the cardinality estimate when unbound.
struct PlanTp {
    /// Variable key per position; `None` = ground.
    vars: [Option<usize>; 3],
    /// Estimated matches with nothing bound (predicate cardinality when
    /// the predicate is ground, graph size otherwise).
    card: u64,
    /// A ground term is absent from the graph: matches nothing.
    missing: bool,
}

/// Greedy join ordering: repeatedly pick the most selective remaining
/// pattern — most bound positions first (ground terms and already-bound
/// variables), smallest cardinality estimate as tie-break — then treat
/// its variables as bound. Returns `(original index, estimate)` pairs in
/// execution order.
fn plan_bgp(tps: &[PlanTp]) -> Vec<(usize, u64)> {
    let mut remaining: Vec<usize> = (0..tps.len()).collect();
    let mut bound: BTreeSet<usize> = BTreeSet::new();
    let mut out = Vec::with_capacity(tps.len());
    while !remaining.is_empty() {
        let mut best = 0usize;
        let mut best_key = (0usize, 0i64);
        for (i, &idx) in remaining.iter().enumerate() {
            let tp = &tps[idx];
            let bound_count = tp
                .vars
                .iter()
                .filter(|v| match v {
                    None => true,
                    Some(v) => bound.contains(v),
                })
                .count();
            let est = estimate(tp, bound_count);
            // Highest bound count, then lowest estimate; first wins ties.
            let key = (bound_count, -(est as i64));
            if i == 0 || key > best_key {
                best = i;
                best_key = key;
            }
        }
        let idx = remaining.remove(best);
        let tp = &tps[idx];
        let bound_count = tp
            .vars
            .iter()
            .filter(|v| match v {
                None => true,
                Some(v) => bound.contains(v),
            })
            .count();
        let est = estimate(tp, bound_count);
        for v in tp.vars.iter().flatten() {
            bound.insert(*v);
        }
        out.push((idx, est));
    }
    out
}

/// The order a BGP's patterns run in over `graph`, each with its
/// estimate: the planner's, or the written order when `reorder` is off.
/// The lowering and `explain` both order BGPs with this.
pub(crate) fn bgp_order(tps: &[RTriple], graph: &Graph, reorder: bool) -> Vec<(usize, u64)> {
    let plan_tps: Vec<PlanTp> = tps
        .iter()
        .map(|tp| plan_tp_of_resolved(tp, graph))
        .collect();
    if reorder {
        plan_bgp(&plan_tps)
    } else {
        plan_tps
            .iter()
            .map(|tp| estimate(tp, 0))
            .enumerate()
            .collect()
    }
}

/// Cardinality estimate for a pattern given how many of its positions
/// are bound at this point of the plan.
fn estimate(tp: &PlanTp, bound_count: usize) -> u64 {
    if tp.missing {
        return 0;
    }
    if bound_count == 3 {
        return 1;
    }
    // A bound join variable narrows the scan; halve per bound position
    // so estimates stay comparable between plans without pretending to
    // more precision than one-dimensional statistics give us.
    tp.card >> bound_count.min(2)
}

fn plan_tp_of_resolved(tp: &RTriple, graph: &Graph) -> PlanTp {
    let var_of = |p: &RPos| match p {
        RPos::Var(v) => Some(*v),
        _ => None,
    };
    let missing = [tp.s, tp.p, tp.o]
        .iter()
        .any(|p| matches!(p, RPos::Missing));
    let card = match tp.p {
        RPos::Const(pid) => graph.predicate_cardinality(pid) as u64,
        RPos::Missing => 0,
        RPos::Var(_) => graph.len() as u64,
    };
    PlanTp {
        vars: [var_of(&tp.s), var_of(&tp.p), var_of(&tp.o)],
        card,
        missing,
    }
}

// ------------------------------------------------------- expressions --

/// A computed expression value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value {
    Term(Term),
    Bool(bool),
}

pub(crate) fn slot_term<'g>(row: &IdRow, slot: usize, graph: &'g Graph) -> Option<&'g Term> {
    if row[slot] == UNBOUND {
        None
    } else {
        Some(graph.id_to_term(TermId::from_u32(row[slot])))
    }
}

pub(crate) fn eval_expr(expr: &RExpr, row: &IdRow, graph: &Graph) -> Option<Value> {
    match expr {
        RExpr::Var(slot) => slot_term(row, *slot, graph).cloned().map(Value::Term),
        RExpr::Constant(t) => Some(Value::Term(t.clone())),
        RExpr::Bound(slot) => Some(Value::Bool(row[*slot] != UNBOUND)),
        RExpr::Not(inner) => {
            let v = eval_expr(inner, row, graph)?;
            Some(Value::Bool(!effective_boolean(&v)?))
        }
        RExpr::And(l, r) => {
            let lv = eval_expr(l, row, graph).and_then(|v| effective_boolean(&v));
            let rv = eval_expr(r, row, graph).and_then(|v| effective_boolean(&v));
            match (lv, rv) {
                (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                (Some(true), Some(true)) => Some(Value::Bool(true)),
                _ => None,
            }
        }
        RExpr::Or(l, r) => {
            let lv = eval_expr(l, row, graph).and_then(|v| effective_boolean(&v));
            let rv = eval_expr(r, row, graph).and_then(|v| effective_boolean(&v));
            match (lv, rv) {
                (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                (Some(false), Some(false)) => Some(Value::Bool(false)),
                _ => None,
            }
        }
        RExpr::Compare(op, l, r) => {
            let lt = match eval_expr(l, row, graph)? {
                Value::Term(t) => t,
                Value::Bool(x) => Term::Literal(provbench_rdf::Literal::boolean(x)),
            };
            let rt = match eval_expr(r, row, graph)? {
                Value::Term(t) => t,
                Value::Bool(x) => Term::Literal(provbench_rdf::Literal::boolean(x)),
            };
            match op {
                CompareOp::Eq => Some(Value::Bool(lt == rt)),
                CompareOp::Ne => Some(Value::Bool(lt != rt)),
                _ => {
                    let ord = compare_terms(&lt, &rt)?;
                    Some(Value::Bool(match op {
                        CompareOp::Lt => ord.is_lt(),
                        CompareOp::Le => ord.is_le(),
                        CompareOp::Gt => ord.is_gt(),
                        CompareOp::Ge => ord.is_ge(),
                        CompareOp::Eq | CompareOp::Ne => unreachable!(),
                    }))
                }
            }
        }
        RExpr::Str(inner) => {
            let v = eval_expr(inner, row, graph)?;
            let s = match v {
                Value::Term(Term::Iri(i)) => i.as_str().to_owned(),
                Value::Term(Term::Literal(l)) => l.lexical().to_owned(),
                Value::Term(Term::Blank(bl)) => bl.label().to_owned(),
                Value::Bool(x) => x.to_string(),
            };
            Some(Value::Term(Term::Literal(provbench_rdf::Literal::simple(
                s,
            ))))
        }
        RExpr::Contains(h, n) | RExpr::StrStarts(h, n) | RExpr::StrEnds(h, n) => {
            let hay = string_of(eval_expr(h, row, graph)?)?;
            let needle = string_of(eval_expr(n, row, graph)?)?;
            Some(Value::Bool(match expr {
                RExpr::Contains(..) => hay.contains(&needle),
                RExpr::StrStarts(..) => hay.starts_with(&needle),
                _ => hay.ends_with(&needle),
            }))
        }
        RExpr::Lang(inner) => {
            let Value::Term(Term::Literal(l)) = eval_expr(inner, row, graph)? else {
                return None;
            };
            Some(Value::Term(Term::Literal(provbench_rdf::Literal::simple(
                l.language().unwrap_or(""),
            ))))
        }
        RExpr::Datatype(inner) => {
            let Value::Term(Term::Literal(l)) = eval_expr(inner, row, graph)? else {
                return None;
            };
            Some(Value::Term(Term::Iri(l.datatype())))
        }
        RExpr::IsIri(inner) => {
            let v = eval_expr(inner, row, graph)?;
            Some(Value::Bool(matches!(v, Value::Term(Term::Iri(_)))))
        }
        RExpr::IsLiteral(inner) => {
            let v = eval_expr(inner, row, graph)?;
            Some(Value::Bool(matches!(v, Value::Term(Term::Literal(_)))))
        }
        RExpr::IsBlank(inner) => {
            let v = eval_expr(inner, row, graph)?;
            Some(Value::Bool(matches!(v, Value::Term(Term::Blank(_)))))
        }
        RExpr::Regex(inner, pattern, ci) => {
            let Value::Term(t) = eval_expr(inner, row, graph)? else {
                return None;
            };
            let text = match &t {
                Term::Literal(l) => l.lexical().to_owned(),
                Term::Iri(i) => i.as_str().to_owned(),
                Term::Blank(_) => return None,
            };
            Some(Value::Bool(simple_regex_match(&text, pattern, *ci)))
        }
    }
}

/// The string form of a value (for the string builtins).
fn string_of(v: Value) -> Option<String> {
    match v {
        Value::Term(Term::Literal(l)) => Some(l.lexical().to_owned()),
        Value::Term(Term::Iri(i)) => Some(i.as_str().to_owned()),
        Value::Term(Term::Blank(_)) => None,
        Value::Bool(b) => Some(b.to_string()),
    }
}

/// Anchored-substring matching: `^` and `$` anchors are honoured; any
/// other metacharacters are treated literally (documented subset).
fn simple_regex_match(text: &str, pattern: &str, case_insensitive: bool) -> bool {
    let (text, pattern) = if case_insensitive {
        (text.to_ascii_lowercase(), pattern.to_ascii_lowercase())
    } else {
        (text.to_owned(), pattern.to_owned())
    };
    let starts = pattern.starts_with('^');
    let ends = pattern.ends_with('$') && pattern.len() > usize::from(starts);
    let core = &pattern[usize::from(starts)..pattern.len() - usize::from(ends)];
    match (starts, ends) {
        (true, true) => text == core,
        (true, false) => text.starts_with(core),
        (false, true) => text.ends_with(core),
        (false, false) => text.contains(core),
    }
}

pub(crate) fn effective_boolean(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Term(Term::Literal(l)) => {
            if let Some(b) = l.as_boolean() {
                return Some(b);
            }
            if let Some(i) = l.as_integer() {
                return Some(i != 0);
            }
            Some(!l.lexical().is_empty())
        }
        Value::Term(_) => None,
    }
}

/// SPARQL-ish ordering: numbers numerically, dateTimes chronologically,
/// other literals lexically, IRIs by string; mixed kinds by kind.
pub(crate) fn compare_terms(a: &Term, b: &Term) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Term::Literal(la), Term::Literal(lb)) => {
            if let (Some(x), Some(y)) = (la.as_integer(), lb.as_integer()) {
                return Some(x.cmp(&y));
            }
            if let (Ok(x), Ok(y)) = (la.lexical().parse::<f64>(), lb.lexical().parse::<f64>()) {
                if is_numeric(la) && is_numeric(lb) {
                    return x.partial_cmp(&y);
                }
            }
            if let (Some(x), Some(y)) = (la.as_date_time(), lb.as_date_time()) {
                return Some(x.cmp(&y));
            }
            Some(la.lexical().cmp(lb.lexical()))
        }
        (Term::Iri(x), Term::Iri(y)) => Some(x.as_str().cmp(y.as_str())),
        (Term::Blank(x), Term::Blank(y)) => Some(x.label().cmp(y.label())),
        // Mixed kinds: blank < IRI < literal (SPARQL's total order spirit).
        _ => Some(kind_rank(a).cmp(&kind_rank(b))),
    }
}

fn is_numeric(l: &provbench_rdf::Literal) -> bool {
    matches!(
        l.datatype().as_str(),
        provbench_rdf::xsd::INTEGER
            | provbench_rdf::xsd::DECIMAL
            | provbench_rdf::xsd::DOUBLE
            | provbench_rdf::xsd::LONG
            | provbench_rdf::xsd::INT
    )
}

fn kind_rank(t: &Term) -> u8 {
    match t {
        Term::Blank(_) => 0,
        Term::Iri(_) => 1,
        Term::Literal(_) => 2,
    }
}

// --------------------------------------------------------- aggregates --

pub(crate) fn apply_aggregates(
    vars: &VarTable,
    group_by: &[usize],
    aggregates: &[RAggregate],
    rows: Vec<IdRow>,
    graph: &Graph,
) -> Result<Vec<Bindings>, QueryError> {
    // Group rows by the GROUP BY key, still in id-space.
    let mut groups: BTreeMap<Vec<u32>, Vec<IdRow>> = BTreeMap::new();
    for row in rows {
        let key: Vec<u32> = group_by.iter().map(|&slot| row[slot]).collect();
        groups.entry(key).or_default().push(row);
    }
    // With no GROUP BY but aggregates present, everything is one group —
    // but zero input rows still produce one row of zero counts.
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    // Decode the group keys and emit output in term order (matching the
    // pre-interning evaluator, which grouped on decoded terms).
    let mut keyed: Vec<(Vec<Option<Term>>, Bindings)> = Vec::with_capacity(groups.len());
    for (key, members) in groups {
        let decoded_key: Vec<Option<Term>> = key
            .iter()
            .map(|&raw| (raw != UNBOUND).then(|| graph.id_to_term(TermId::from_u32(raw)).clone()))
            .collect();
        let mut out_row = Bindings::new();
        for (&slot, term) in group_by.iter().zip(&decoded_key) {
            if let Some(t) = term {
                out_row.insert(vars.names[slot].clone(), t.clone());
            }
        }
        for agg in aggregates {
            let value = match (agg.function, agg.var) {
                (AggregateFn::Count, None) => {
                    Term::Literal(provbench_rdf::Literal::integer(members.len() as i64))
                }
                (AggregateFn::Count, Some(slot)) => Term::Literal(provbench_rdf::Literal::integer(
                    members.iter().filter(|m| m[slot] != UNBOUND).count() as i64,
                )),
                (AggregateFn::CountDistinct, Some(slot)) => {
                    let distinct: BTreeSet<u32> = members
                        .iter()
                        .map(|m| m[slot])
                        .filter(|&raw| raw != UNBOUND)
                        .collect();
                    Term::Literal(provbench_rdf::Literal::integer(distinct.len() as i64))
                }
                (AggregateFn::Min | AggregateFn::Max, Some(slot)) => {
                    let mut best: Option<&Term> = None;
                    for m in &members {
                        if let Some(t) = slot_term(m, slot, graph) {
                            let better = match best {
                                None => true,
                                Some(cur) => {
                                    let ord =
                                        compare_terms(t, cur).unwrap_or(std::cmp::Ordering::Equal);
                                    if agg.function == AggregateFn::Min {
                                        ord.is_lt()
                                    } else {
                                        ord.is_gt()
                                    }
                                }
                            };
                            if better {
                                best = Some(t);
                            }
                        }
                    }
                    match best {
                        Some(t) => t.clone(),
                        None => continue, // no values: leave alias unbound
                    }
                }
                // Unreachable: resolution already rejected these shapes.
                (f, None) => return Err(QueryError::Eval(format!("{f:?} needs a variable"))),
            };
            out_row.insert(agg.alias.clone(), value);
        }
        keyed.push((decoded_key, out_row));
    }
    keyed.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

// ---------------------------------------------------------- execution --

/// Execute a parsed query over a graph, fully materialized: the
/// evaluator tests' entry point into [`crate::plan`].
#[cfg(test)]
pub(crate) fn run(
    graph: &Graph,
    query: &Query,
    opts: &EvalOptions,
) -> Result<Solutions, QueryError> {
    crate::plan::solutions(graph, query, opts, None)
}

/// [`run`] with default options.
#[cfg(test)]
pub(crate) fn execute(graph: &Graph, query: &Query) -> Result<Solutions, QueryError> {
    run(graph, query, &EvalOptions::default())
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_query;
    use super::*;
    use crate::plan::explain_on;
    use provbench_rdf::{parse_turtle, Literal};

    fn graph() -> Graph {
        let (g, _) = parse_turtle(
            r#"
            @prefix e: <http://e/> .
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            e:r1 a e:Run ; e:start "2013-01-01T00:00:00Z"^^xsd:dateTime ; e:by e:alice ; e:size 5 .
            e:r2 a e:Run ; e:start "2013-02-01T00:00:00Z"^^xsd:dateTime ; e:by e:bob ; e:size 9 .
            e:r3 a e:Run ; e:by e:alice ; e:size 2 .
            e:t1 a e:Template .
            e:r1 e:of e:t1 . e:r2 e:of e:t1 .
            "#,
        )
        .unwrap();
        g
    }

    fn run_q(q: &str) -> Solutions {
        let query = parse_query(q).unwrap();
        execute(&graph(), &query).unwrap()
    }

    #[test]
    fn basic_bgp() {
        let s = run_q("PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run }");
        assert_eq!(s.len(), 3);
        assert_eq!(s.variables, vec!["r"]);
    }

    #[test]
    fn join_across_patterns() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?r ?who WHERE { ?r a e:Run . ?r e:by ?who . ?r e:of e:t1 }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?r ?start WHERE { ?r a e:Run OPTIONAL { ?r e:start ?start } } ORDER BY ?r",
        );
        assert_eq!(s.len(), 3);
        assert!(s.get(0, "start").is_some()); // r1
        assert!(s.get(2, "start").is_none()); // r3
    }

    #[test]
    fn union_combines() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?x WHERE { { ?x a e:Run } UNION { ?x a e:Template } }",
        );
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn union_inside_optional_streams_per_row() {
        // Each run's UNION arms in turn (left, then right), then the
        // next run; a run neither arm matches passes through unbound.
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?r ?x WHERE { ?r a e:Run \
             OPTIONAL { { ?r e:start ?x } UNION { ?r e:of ?x } } }",
        );
        let cells: Vec<(String, Option<String>)> = s
            .rows
            .iter()
            .map(|row| (row["r"].to_string(), row.get("x").map(|t| t.to_string())))
            .collect();
        let start = |d: &str| {
            Some(format!(
                "\"2013-{d}-01T00:00:00Z\"^^<http://www.w3.org/2001/XMLSchema#dateTime>"
            ))
        };
        let t1 = Some("<http://e/t1>".to_owned());
        assert_eq!(
            cells,
            vec![
                ("<http://e/r1>".to_owned(), start("01")),
                ("<http://e/r1>".to_owned(), t1.clone()),
                ("<http://e/r2>".to_owned(), start("02")),
                ("<http://e/r2>".to_owned(), t1),
                ("<http://e/r3>".to_owned(), None),
            ]
        );
    }

    #[test]
    fn filter_comparisons() {
        let s = run_q("PREFIX e: <http://e/> SELECT ?r WHERE { ?r e:size ?s FILTER (?s > 4) }");
        assert_eq!(s.len(), 2);
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?r WHERE { ?r e:size ?s FILTER (?s >= 2 && ?s != 9) }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn filter_on_datetime() {
        let s = run_q(
            r#"PREFIX e: <http://e/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
               SELECT ?r WHERE { ?r e:start ?t FILTER (?t < "2013-01-15T00:00:00Z"^^xsd:dateTime) }"#,
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn filter_bound_and_not() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run OPTIONAL { ?r e:start ?t } FILTER (!BOUND(?t)) }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn regex_and_str_filters() {
        let s = run_q(
            r#"PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run FILTER REGEX(STR(?r), "r[0-9]") }"#,
        );
        // Our regex subset is literal: "r[0-9]" matches nothing.
        assert_eq!(s.len(), 0);
        let s = run_q(
            r#"PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run FILTER REGEX(STR(?r), "^http://e/r") }"#,
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn order_limit_offset() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?r ?s WHERE { ?r e:size ?s } ORDER BY DESC(?s) LIMIT 2",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, "s").unwrap(), &Term::Literal(Literal::integer(9)));
        let s2 =
            run_q("PREFIX e: <http://e/> SELECT ?r ?s WHERE { ?r e:size ?s } ORDER BY ?s OFFSET 1");
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.get(0, "s").unwrap(), &Term::Literal(Literal::integer(5)));
    }

    #[test]
    fn group_by_count() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT ?who (COUNT(?r) AS ?n) WHERE { ?r e:by ?who } GROUP BY ?who ORDER BY ?who",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, "n").unwrap(), &Term::Literal(Literal::integer(2))); // alice
        assert_eq!(s.get(1, "n").unwrap(), &Term::Literal(Literal::integer(1)));
        // bob
    }

    #[test]
    fn count_star_on_empty_is_zero() {
        let s = run_q("PREFIX e: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?r a e:Nothing }");
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "n").unwrap(), &Term::Literal(Literal::integer(0)));
    }

    #[test]
    fn min_max_aggregates() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT (MIN(?s) AS ?lo) (MAX(?s) AS ?hi) WHERE { ?r e:size ?s }",
        );
        assert_eq!(s.get(0, "lo").unwrap(), &Term::Literal(Literal::integer(2)));
        assert_eq!(s.get(0, "hi").unwrap(), &Term::Literal(Literal::integer(9)));
    }

    #[test]
    fn distinct_dedups() {
        let s = run_q("PREFIX e: <http://e/> SELECT DISTINCT ?who WHERE { ?r e:by ?who }");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn repeated_variable_join_consistency() {
        // ?x e:of ?x never matches (no self loops).
        let s = run_q("PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:of ?x }");
        assert!(s.is_empty());
    }

    #[test]
    fn select_star_projects_all_vars() {
        let s = run_q("PREFIX e: <http://e/> SELECT * WHERE { ?r e:by ?who }");
        assert_eq!(s.variables, vec!["r", "who"]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ground_triple_check() {
        let s = run_q("PREFIX e: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { e:r1 e:by e:alice }");
        assert_eq!(s.get(0, "n").unwrap(), &Term::Literal(Literal::integer(1)));
    }

    #[test]
    fn unknown_constant_matches_nothing() {
        // e:r9 was never interned by this graph: resolution marks the
        // position Missing and the BGP yields no rows (instead of
        // panicking or scanning).
        let s = run_q("PREFIX e: <http://e/> SELECT ?p WHERE { e:r9 ?p ?o }");
        assert!(s.is_empty());
        let s = run_q("PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run . ?r e:nope ?o }");
        assert!(s.is_empty());
    }

    #[test]
    fn explain_shows_planned_order() {
        let g = graph();
        let explain = |q: &Query, opts: &EvalOptions| explain_on(&g, q, opts);
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?r WHERE { ?x ?p ?o . ?r a e:Run } ORDER BY ?r LIMIT 2",
        )
        .unwrap();
        let on = explain(&q, &EvalOptions::default());
        // The typed pattern must come first under the planner.
        let typed_pos = on.find("?r <http").unwrap();
        let wildcard_pos = on.find("?x ?p ?o").unwrap();
        assert!(typed_pos < wildcard_pos, "{on}");
        assert!(on.contains("planner on"));
        assert!(on.contains("OrderBy"));
        assert!(on.contains("Limit 2"));
        let off = explain(&q, &EvalOptions::lexical());
        let typed_pos = off.find("?r <http").unwrap();
        let wildcard_pos = off.find("?x ?p ?o").unwrap();
        assert!(wildcard_pos < typed_pos, "{off}");
        // Composite patterns render their algebra nodes.
        let q2 = parse_query(
            "SELECT ?x WHERE { { ?x ?p ?o } UNION { ?x ?q ?z } OPTIONAL { ?x ?r ?w } FILTER (1=1) }",
        )
        .unwrap();
        let plan = explain(&q2, &EvalOptions::default());
        for node in ["IndexedJoin", "Union", "Optional", "Filter"] {
            assert!(plan.contains(node), "missing {node} in {plan}");
        }
    }

    #[test]
    fn explain_runs_an_absent_ground_term_first() {
        let (g, _) = parse_turtle(
            r#"@prefix prov: <http://www.w3.org/ns/prov#> .
            <http://e/r1> prov:used <http://e/d1>, <http://e/d2> .
            <http://e/r2> prov:used <http://e/d1> ."#,
        )
        .unwrap();
        let q = parse_query(
            "PREFIX prov: <http://www.w3.org/ns/prov#> \
             SELECT ?a WHERE { ?a prov:used ?b . ?c ?q <http://nope/x> }",
        )
        .unwrap();
        // No triple has the object, so the lowering scans that pattern
        // first, estimated at 0 rows, and explain says so.
        let plan = explain_on(&g, &q, &EvalOptions::default());
        let first = plan.lines().nth(1).unwrap();
        assert_eq!(
            first, "  Scan ?c ?q <http://nope/x>  (est ~0 rows)",
            "{plan}"
        );
        assert!(execute(&g, &q).unwrap().is_empty());
    }

    #[test]
    fn explain_on_shows_estimates() {
        let g = graph();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?r ?who WHERE { ?x ?p ?o . ?r e:by ?who . ?r a e:Run }",
        )
        .unwrap();
        let plan = explain_on(&g, &q, &EvalOptions::default());
        assert!(plan.contains("est ~"), "{plan}");
        // `a` has 4 triples, `e:by` has 3: the planner starts with one of
        // the ground-predicate patterns, never the wildcard.
        let first_line = plan.lines().nth(2).unwrap();
        assert!(!first_line.contains("?x ?p ?o"), "{plan}");
        // The wildcard pattern is estimated at the graph size while
        // unjoined patterns with ground predicates use their statistics.
        assert!(
            plan.contains("(est ~3 rows)") || plan.contains("(est ~1 rows)"),
            "{plan}"
        );
    }

    #[test]
    fn ask_queries() {
        let g = graph();
        let q = parse_query("PREFIX e: <http://e/> ASK { ?r a e:Run }").unwrap();
        assert_eq!(q.form, QueryForm::Ask);
        assert!(!execute(&g, &q).unwrap().is_empty());
        let s = execute(&g, &q).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.variables.is_empty());
        let q = parse_query("PREFIX e: <http://e/> ASK { ?r a e:Nothing }").unwrap();
        assert!(execute(&g, &q).unwrap().is_empty());
        // WHERE keyword also allowed.
        assert!(parse_query("ASK WHERE { ?s ?p ?o }").is_ok());
        // No modifiers after ASK.
        assert!(parse_query("ASK { ?s ?p ?o } LIMIT 3").is_err());
    }

    #[test]
    fn string_builtins() {
        let n = |q: &str| run_q(q).len();
        assert_eq!(
            n("PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run FILTER CONTAINS(STR(?r), \"r2\") }"),
            1
        );
        assert_eq!(
            n("PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run FILTER STRSTARTS(STR(?r), \"http://e/\") }"),
            3
        );
        assert_eq!(
            n("PREFIX e: <http://e/> SELECT ?r WHERE { ?r a e:Run FILTER STRENDS(STR(?r), \"3\") }"),
            1
        );
    }

    #[test]
    fn term_introspection_builtins() {
        // isIRI/isLiteral partition objects.
        let iris = run_q("PREFIX e: <http://e/> SELECT ?o WHERE { ?s e:by ?o FILTER ISIRI(?o) }");
        assert_eq!(iris.len(), 3);
        let lits =
            run_q("PREFIX e: <http://e/> SELECT ?o WHERE { ?s e:size ?o FILTER ISLITERAL(?o) }");
        assert_eq!(lits.len(), 3);
        let blanks = run_q("SELECT ?o WHERE { ?s ?p ?o FILTER ISBLANK(?o) }");
        assert!(blanks.is_empty());
        // DATATYPE of the sizes is xsd:integer.
        let typed = run_q(
            "PREFIX e: <http://e/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> \
             SELECT ?o WHERE { ?s e:size ?o FILTER (DATATYPE(?o) = xsd:integer) }",
        );
        assert_eq!(typed.len(), 3);
        // LANG of a plain literal is "".
        let lang = run_q(
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:size ?o FILTER (LANG(?o) = \"\") }",
        );
        assert_eq!(lang.len(), 3);
    }

    #[test]
    fn planner_reordering_is_semantically_transparent() {
        // A deliberately bad written order: unbound wildcard first.
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?r ?who WHERE { ?r ?p ?x . ?r e:by ?who . ?r a e:Run }",
        )
        .unwrap();
        let with = run(&graph(), &q, &EvalOptions::default()).unwrap();
        let without = run(&graph(), &q, &EvalOptions::lexical()).unwrap();
        let norm = |s: &Solutions| {
            let mut v: Vec<String> = s.rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&with), norm(&without));
    }

    #[test]
    fn planner_prefers_bound_patterns() {
        // wildcard (card = |G|) vs ground predicate and object.
        let g = graph();
        let type_id = g
            .term_to_id(&Term::Iri(iri_of(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            )))
            .unwrap();
        let tps = vec![
            PlanTp {
                vars: [Some(0), Some(1), Some(2)],
                card: g.len() as u64,
                missing: false,
            },
            PlanTp {
                vars: [Some(0), None, None],
                card: g.predicate_cardinality(type_id) as u64,
                missing: false,
            },
        ];
        let order = plan_bgp(&tps);
        assert_eq!(order[0].0, 1, "ground pattern first: {order:?}");
        assert_eq!(order[1].0, 0);
        // Once ?s is bound by the first pattern, the wildcard's estimate
        // shrinks below its unbound cardinality.
        assert!(order[1].1 < g.len() as u64);
    }

    #[test]
    fn row_budget_aborts_cross_join() {
        let g = graph();
        let q = parse_query("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }").unwrap();
        let opts = EvalOptions::default().with_row_budget(100);
        match run(&g, &q, &opts) {
            Err(QueryError::Timeout(m)) => assert!(m.contains("row budget"), "{m}"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        // A generous budget lets the same query finish.
        let opts = EvalOptions::default().with_row_budget(10_000_000);
        assert!(run(&g, &q, &opts).is_ok());
    }

    #[test]
    fn past_deadline_aborts() {
        let g = graph();
        let q = parse_query("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }").unwrap();
        // A deadline in the past trips at the first stride check.
        let opts = EvalOptions::default().with_deadline(Instant::now() - Duration::from_secs(1));
        match run(&g, &q, &opts) {
            Err(QueryError::Timeout(m)) => assert!(m.contains("deadline"), "{m}"),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    fn iri_of(s: &str) -> provbench_rdf::Iri {
        provbench_rdf::Iri::new(s).unwrap()
    }

    #[test]
    fn count_distinct() {
        let s = run_q(
            "PREFIX e: <http://e/> SELECT (COUNT(DISTINCT ?who) AS ?n) WHERE { ?r e:by ?who }",
        );
        assert_eq!(s.get(0, "n").unwrap(), &Term::Literal(Literal::integer(2)));
    }
}
