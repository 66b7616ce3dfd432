//! An indexed, in-memory RDF graph.
//!
//! Triples are interned into `(u32, u32, u32)` keys and stored in three
//! B-tree indexes (SPO, POS, OSP) so that every triple-pattern shape maps
//! to a contiguous range scan over integers.

use crate::error::RdfError;
use crate::interner::Interner;
pub use crate::interner::TermId;
use crate::term::{Iri, Subject, Term};
use crate::triple::Triple;
use std::collections::{BTreeSet, HashMap};

type Key = (TermId, TermId, TermId);

const MIN: TermId = TermId::from_u32(0);
const MAX: TermId = TermId::from_u32(u32::MAX);

/// An in-memory set of triples with SPO/POS/OSP indexes.
#[derive(Default, Clone, Debug)]
pub struct Graph {
    interner: Interner,
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
    /// Triples per predicate id — the planner's cardinality statistics,
    /// maintained incrementally so a lookup is O(1).
    pred_counts: HashMap<TermId, usize>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Whether the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Number of distinct terms appearing in any position.
    pub fn term_count(&self) -> usize {
        self.interner.len()
    }

    /// The interned term table in id order: `TermId::from_u32(i)` resolves
    /// to `interned_terms()[i]`. Together with
    /// [`Graph::ids_matching`]`(None, None, None)` this is the complete
    /// serializable state of a graph.
    pub fn interned_terms(&self) -> &[Term] {
        self.interner.terms()
    }

    /// Rebuild a graph from a term table plus interned id-triples — the
    /// inverse of [`Graph::interned_terms`] +
    /// [`Graph::ids_matching`]`(None, None, None)`, used by the binary
    /// corpus snapshot.
    ///
    /// Every id is validated against the table and every position against
    /// its term kind (subjects must be IRIs or blank nodes, predicates
    /// IRIs), so malformed input yields an error, never a panic or a
    /// graph that violates the RDF data model.
    pub fn from_interned(
        terms: Vec<Term>,
        triples: impl IntoIterator<Item = (u32, u32, u32)>,
    ) -> Result<Graph, RdfError> {
        let corrupt = |msg: String| RdfError::InvalidInterned(msg);
        let interner = Interner::from_terms(terms)
            .ok_or_else(|| corrupt("duplicate term in term table".into()))?;
        let n = u32::try_from(interner.len())
            .map_err(|_| corrupt("term table exceeds u32 id space".into()))?;
        let triples = triples.into_iter();
        let mut rows: Vec<Key> = Vec::with_capacity(triples.size_hint().0);
        for (s, p, o) in triples {
            if s >= n || p >= n || o >= n {
                return Err(corrupt(format!(
                    "triple ({s}, {p}, {o}) references ids beyond the {n}-entry term table"
                )));
            }
            let (s, p, o) = (TermId(s), TermId(p), TermId(o));
            if matches!(interner.resolve(s), Term::Literal(_)) {
                return Err(corrupt(format!("literal in subject position (id {})", s.0)));
            }
            if !matches!(interner.resolve(p), Term::Iri(_)) {
                return Err(corrupt(format!(
                    "non-IRI in predicate position (id {})",
                    p.0
                )));
            }
            rows.push((s, p, o));
        }
        rows.sort_unstable();
        rows.dedup();
        // collect() bulk-builds a B-tree from its (sorted) input in one
        // pass — far cheaper than per-triple inserts for a bulk load.
        let spo: BTreeSet<Key> = rows.iter().copied().collect();
        let pos: BTreeSet<Key> = rows.iter().map(|&(s, p, o)| (p, o, s)).collect();
        let osp: BTreeSet<Key> = rows.iter().map(|&(s, p, o)| (o, s, p)).collect();
        let mut pred_counts: HashMap<TermId, usize> = HashMap::new();
        for &(_, p, _) in &rows {
            *pred_counts.entry(p).or_insert(0) += 1;
        }
        Ok(Graph {
            interner,
            spo,
            pos,
            osp,
            pred_counts,
        })
    }

    /// Insert a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let s = self.interner.intern(&Term::from(triple.subject));
        let p = self.interner.intern(&Term::Iri(triple.predicate));
        let o = self.interner.intern(&triple.object);
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
            *self.pred_counts.entry(p).or_insert(0) += 1;
        }
        added
    }

    /// Remove a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.interner.get(&Term::from(triple.subject.clone())),
            self.interner.get(&Term::Iri(triple.predicate.clone())),
            self.interner.get(&triple.object),
        ) else {
            return false;
        };
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
            if let Some(n) = self.pred_counts.get_mut(&p) {
                *n -= 1;
                if *n == 0 {
                    self.pred_counts.remove(&p);
                }
            }
        }
        removed
    }

    /// Whether the graph contains the triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.interner.get(&Term::from(triple.subject.clone())),
            self.interner.get(&Term::Iri(triple.predicate.clone())),
            self.interner.get(&triple.object),
        ) else {
            return false;
        };
        self.spo.contains(&(s, p, o))
    }

    /// Insert every triple of `other`.
    pub fn extend_from_graph(&mut self, other: &Graph) {
        for t in other.iter() {
            self.insert(t);
        }
    }

    /// Triples of `self` not present in `other`.
    pub fn difference(&self, other: &Graph) -> Graph {
        self.iter().filter(|t| !other.contains(t)).collect()
    }

    /// Triples present in both graphs.
    pub fn intersection(&self, other: &Graph) -> Graph {
        self.iter().filter(|t| other.contains(t)).collect()
    }

    fn decode(&self, (s, p, o): Key) -> Triple {
        let subject = match self.interner.resolve(s) {
            Term::Iri(i) => Subject::Iri(i.clone()),
            Term::Blank(b) => Subject::Blank(b.clone()),
            Term::Literal(_) => unreachable!("literal interned in subject position"),
        };
        let predicate = match self.interner.resolve(p) {
            Term::Iri(i) => i.clone(),
            _ => unreachable!("non-IRI interned in predicate position"),
        };
        Triple {
            subject,
            predicate,
            object: self.interner.resolve(o).clone(),
        }
    }

    /// Iterate over every triple (in SPO index order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(move |&k| self.decode(k))
    }

    // ---------------------------------------------------- id-level API --
    //
    // The query engine evaluates joins entirely over `TermId`s, decoding
    // terms only at projection time. These methods expose the interned
    // view of the graph without any cloning or string comparison.

    /// The id of a term in this graph's interner, if it appears anywhere.
    pub fn term_to_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Resolve an id produced by this graph back to its term.
    ///
    /// # Panics
    /// Panics if the id did not come from this graph.
    pub fn id_to_term(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Number of triples whose predicate is the given id — the planner's
    /// per-predicate cardinality statistic (O(1)).
    pub fn predicate_cardinality(&self, p: TermId) -> usize {
        self.pred_counts.get(&p).copied().unwrap_or(0)
    }

    /// Iterate over interned `(s, p, o)` id-triples matching the pattern;
    /// `None` is a wildcard.
    ///
    /// The id-level twin of [`Graph::triples_matching`]: every shape is a
    /// single range scan over one of the three integer indexes, and no
    /// term is decoded.
    pub fn ids_matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Box<dyn Iterator<Item = (TermId, TermId, TermId)> + '_> {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let hit = self.spo.contains(&(s, p, o));
                Box::new(hit.then_some((s, p, o)).into_iter())
            }
            (Some(s), Some(p), None) => {
                Box::new(self.spo.range((s, p, MIN)..=(s, p, MAX)).copied())
            }
            (Some(s), None, None) => {
                Box::new(self.spo.range((s, MIN, MIN)..=(s, MAX, MAX)).copied())
            }
            (None, Some(p), Some(o)) => Box::new(
                self.pos
                    .range((p, o, MIN)..=(p, o, MAX))
                    .map(|&(p, o, s)| (s, p, o)),
            ),
            (None, Some(p), None) => Box::new(
                self.pos
                    .range((p, MIN, MIN)..=(p, MAX, MAX))
                    .map(|&(p, o, s)| (s, p, o)),
            ),
            (None, None, Some(o)) => Box::new(
                self.osp
                    .range((o, MIN, MIN)..=(o, MAX, MAX))
                    .map(|&(o, s, p)| (s, p, o)),
            ),
            (Some(s), None, Some(o)) => Box::new(
                self.osp
                    .range((o, s, MIN)..=(o, s, MAX))
                    .map(|&(o, s, p)| (s, p, o)),
            ),
            (None, None, None) => Box::new(self.spo.iter().copied()),
        }
    }

    /// Iterate over triples matching the pattern; `None` is a wildcard.
    ///
    /// Every pattern shape is answered by a single range scan over one of
    /// the three indexes (or a point lookup when fully bound).
    pub fn triples_matching<'a>(
        &'a self,
        s: Option<&Subject>,
        p: Option<&Iri>,
        o: Option<&Term>,
    ) -> Box<dyn Iterator<Item = Triple> + 'a> {
        let sid = match s {
            Some(s) => match self.interner.get(&Term::from(s.clone())) {
                Some(id) => Some(id),
                None => return Box::new(std::iter::empty()),
            },
            None => None,
        };
        let pid = match p {
            Some(p) => match self.interner.get(&Term::Iri(p.clone())) {
                Some(id) => Some(id),
                None => return Box::new(std::iter::empty()),
            },
            None => None,
        };
        let oid = match o {
            Some(o) => match self.interner.get(o) {
                Some(id) => Some(id),
                None => return Box::new(std::iter::empty()),
            },
            None => None,
        };
        Box::new(
            self.ids_matching(sid, pid, oid)
                .map(move |k| self.decode(k)),
        )
    }

    /// Objects of triples `(s, p, ?)` — the most common navigation step.
    pub fn objects(&self, s: &Subject, p: &Iri) -> impl Iterator<Item = Term> + '_ {
        self.triples_matching(Some(s), Some(p), None)
            .map(|t| t.object)
    }

    /// First object of `(s, p, ?)`, if any.
    pub fn object(&self, s: &Subject, p: &Iri) -> Option<Term> {
        self.objects(s, p).next()
    }

    /// Subjects of triples `(?, p, o)`.
    pub fn subjects_with(&self, p: &Iri, o: &Term) -> impl Iterator<Item = Subject> + '_ {
        self.triples_matching(None, Some(p), Some(o))
            .map(|t| t.subject)
    }

    /// Distinct subjects of the whole graph (in index order).
    pub fn subjects(&self) -> Vec<Subject> {
        let mut out = Vec::new();
        let mut last: Option<TermId> = None;
        for &(s, _, _) in &self.spo {
            if last != Some(s) {
                last = Some(s);
                match self.interner.resolve(s) {
                    Term::Iri(i) => out.push(Subject::Iri(i.clone())),
                    Term::Blank(b) => out.push(Subject::Blank(b.clone())),
                    Term::Literal(_) => unreachable!(),
                }
            }
        }
        out
    }

    /// Distinct predicates of the whole graph.
    pub fn predicates(&self) -> Vec<Iri> {
        let mut out: Vec<Iri> = Vec::new();
        let mut last: Option<TermId> = None;
        for &(p, _, _) in &self.pos {
            if last != Some(p) {
                last = Some(p);
                if let Term::Iri(i) = self.interner.resolve(p) {
                    out.push(i.clone());
                }
            }
        }
        out
    }
}

impl Extend<Triple> for Graph {
    fn extend<T: IntoIterator<Item = Triple>>(&mut self, iter: T) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

impl PartialEq for Graph {
    /// Two graphs are equal when they contain the same triple set
    /// (ground comparison; blank nodes compare by label).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(&t))
    }
}

impl Eq for Graph {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{BlankNode, Literal};

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(iri(s), iri(p), iri(o))
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        assert!(g.insert(t("http://e/s", "http://e/p", "http://e/o")));
        assert!(!g.insert(t("http://e/s", "http://e/p", "http://e/o")));
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn remove_and_contains() {
        let mut g = Graph::new();
        let tr = t("http://e/s", "http://e/p", "http://e/o");
        g.insert(tr.clone());
        assert!(g.contains(&tr));
        assert!(g.remove(&tr));
        assert!(!g.contains(&tr));
        assert!(!g.remove(&tr));
        assert!(g.is_empty());
        // Removing a triple whose terms were never interned is a no-op.
        assert!(!g.remove(&t("http://e/x", "http://e/y", "http://e/z")));
    }

    #[test]
    fn from_interned_roundtrips_terms_and_triples() {
        let mut g = Graph::new();
        g.insert(t("http://e/s1", "http://e/p1", "http://e/o1"));
        g.insert(t("http://e/s1", "http://e/p2", "http://e/o2"));
        g.insert(Triple::new(
            BlankNode::new("b0").unwrap(),
            iri("http://e/p1"),
            Literal::lang("hi", "en").unwrap(),
        ));
        let terms = g.interned_terms().to_vec();
        let ids: Vec<(u32, u32, u32)> = g
            .ids_matching(None, None, None)
            .map(|(s, p, o)| (s.to_u32(), p.to_u32(), o.to_u32()))
            .collect();
        let rebuilt = Graph::from_interned(terms, ids).unwrap();
        assert_eq!(g, rebuilt);
        assert_eq!(g.term_count(), rebuilt.term_count());
        for id in 0..g.term_count() as u32 {
            let id = TermId::from_u32(id);
            assert_eq!(
                g.predicate_cardinality(id),
                rebuilt.predicate_cardinality(id)
            );
        }
    }

    #[test]
    fn from_interned_rejects_corrupt_input() {
        let s: Term = iri("http://e/s").into();
        let p: Term = iri("http://e/p").into();
        let o: Term = Literal::simple("x").into();
        let table = vec![s.clone(), p.clone(), o.clone()];
        // Well-formed baseline.
        assert!(Graph::from_interned(table.clone(), [(0, 1, 2)]).is_ok());
        // Id beyond the table.
        assert!(Graph::from_interned(table.clone(), [(0, 1, 3)]).is_err());
        // Literal in subject position.
        assert!(Graph::from_interned(table.clone(), [(2, 1, 0)]).is_err());
        // Literal in predicate position.
        assert!(Graph::from_interned(table.clone(), [(0, 2, 1)]).is_err());
        // Duplicate entry in the term table.
        assert!(Graph::from_interned(vec![s.clone(), s.clone()], []).is_err());
        // Errors are the InvalidInterned variant, with a message.
        let err = Graph::from_interned(table, [(9, 9, 9)]).unwrap_err();
        assert!(matches!(err, RdfError::InvalidInterned(_)));
        assert!(err.to_string().contains("invalid interned"));
    }

    /// A graph over a sorted table bisects it; an insert out of its
    /// order indexes it by hash, and every term still resolves.
    #[test]
    fn sorted_table_takes_an_out_of_order_insert() {
        let table: Vec<Term> = ["http://e/m", "http://e/p", "http://e/s"]
            .map(|s| iri(s).into())
            .to_vec();
        let mut g = Graph::from_interned(table, [(2, 1, 0)]).unwrap();
        g.insert(t("http://e/a", "http://e/p", "http://e/z"));
        g.insert(t("http://e/s", "http://e/b", "http://e/m"));
        assert_eq!(g.len(), 3);
        for id in 0..g.term_count() as u32 {
            let id = TermId::from_u32(id);
            assert_eq!(g.term_to_id(g.id_to_term(id)), Some(id));
        }
        let s: Subject = iri("http://e/s").into();
        assert_eq!(g.triples_matching(Some(&s), None, None).count(), 2);
        assert!(g.contains(&t("http://e/a", "http://e/p", "http://e/z")));
        assert!(g.term_to_id(&iri("http://e/none").into()).is_none());
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let mut g = Graph::new();
        g.insert(t("http://e/s1", "http://e/p1", "http://e/o1"));
        g.insert(t("http://e/s1", "http://e/p1", "http://e/o2"));
        g.insert(t("http://e/s1", "http://e/p2", "http://e/o1"));
        g.insert(t("http://e/s2", "http://e/p1", "http://e/o1"));

        let s1: Subject = iri("http://e/s1").into();
        let p1 = iri("http://e/p1");
        let o1: Term = iri("http://e/o1").into();

        let count = |s: Option<&Subject>, p: Option<&Iri>, o: Option<&Term>| {
            g.triples_matching(s, p, o).count()
        };
        assert_eq!(count(None, None, None), 4);
        assert_eq!(count(Some(&s1), None, None), 3);
        assert_eq!(count(None, Some(&p1), None), 3);
        assert_eq!(count(None, None, Some(&o1)), 3);
        assert_eq!(count(Some(&s1), Some(&p1), None), 2);
        assert_eq!(count(Some(&s1), None, Some(&o1)), 2);
        assert_eq!(count(None, Some(&p1), Some(&o1)), 2);
        assert_eq!(count(Some(&s1), Some(&p1), Some(&o1)), 1);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let mut g = Graph::new();
        g.insert(t("http://e/s", "http://e/p", "http://e/o"));
        let unknown: Subject = iri("http://e/nope").into();
        assert_eq!(g.triples_matching(Some(&unknown), None, None).count(), 0);
    }

    #[test]
    fn blank_nodes_and_literals() {
        let mut g = Graph::new();
        let b = BlankNode::new("b0").unwrap();
        g.insert(Triple::new(
            b.clone(),
            iri("http://e/p"),
            Literal::simple("v"),
        ));
        let found: Vec<_> = g
            .triples_matching(Some(&b.clone().into()), None, None)
            .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].object.as_literal().unwrap().lexical(), "v");
    }

    #[test]
    fn navigation_helpers() {
        let mut g = Graph::new();
        g.insert(t("http://e/s", "http://e/p", "http://e/o1"));
        g.insert(t("http://e/s", "http://e/p", "http://e/o2"));
        let s: Subject = iri("http://e/s").into();
        let p = iri("http://e/p");
        assert_eq!(g.objects(&s, &p).count(), 2);
        assert!(g.object(&s, &p).is_some());
        let o: Term = iri("http://e/o1").into();
        assert_eq!(g.subjects_with(&p, &o).count(), 1);
        assert_eq!(g.subjects().len(), 1);
        assert_eq!(g.predicates().len(), 1);
    }

    #[test]
    fn graph_equality_ignores_insertion_order() {
        let mut a = Graph::new();
        let mut b = Graph::new();
        a.insert(t("http://e/1", "http://e/p", "http://e/2"));
        a.insert(t("http://e/3", "http://e/p", "http://e/4"));
        b.insert(t("http://e/3", "http://e/p", "http://e/4"));
        b.insert(t("http://e/1", "http://e/p", "http://e/2"));
        assert_eq!(a, b);
        b.insert(t("http://e/5", "http://e/p", "http://e/6"));
        assert_ne!(a, b);
    }

    #[test]
    fn set_operations() {
        let mut a = Graph::new();
        a.insert(t("http://e/1", "http://e/p", "http://e/2"));
        a.insert(t("http://e/3", "http://e/p", "http://e/4"));
        let mut b = Graph::new();
        b.insert(t("http://e/3", "http://e/p", "http://e/4"));
        b.insert(t("http://e/5", "http://e/p", "http://e/6"));

        let diff = a.difference(&b);
        assert_eq!(diff.len(), 1);
        assert!(diff.contains(&t("http://e/1", "http://e/p", "http://e/2")));
        let inter = a.intersection(&b);
        assert_eq!(inter.len(), 1);
        assert!(inter.contains(&t("http://e/3", "http://e/p", "http://e/4")));
        // a = (a − b) ∪ (a ∩ b).
        let mut rebuilt = diff;
        rebuilt.extend_from_graph(&inter);
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn id_level_api_mirrors_term_level() {
        let mut g = Graph::new();
        g.insert(t("http://e/s1", "http://e/p1", "http://e/o1"));
        g.insert(t("http://e/s1", "http://e/p2", "http://e/o2"));
        g.insert(t("http://e/s2", "http://e/p1", "http://e/o1"));

        let p1 = g.term_to_id(&Term::Iri(iri("http://e/p1"))).unwrap();
        let p2 = g.term_to_id(&Term::Iri(iri("http://e/p2"))).unwrap();
        assert_eq!(g.predicate_cardinality(p1), 2);
        assert_eq!(g.predicate_cardinality(p2), 1);
        assert_eq!(g.ids_matching(None, Some(p1), None).count(), 2);
        assert_eq!(g.ids_matching(None, None, None).count(), 3);

        // Ids decode back to the terms they were interned from.
        for (s, p, o) in g.ids_matching(None, Some(p2), None) {
            assert_eq!(g.id_to_term(s).as_iri().unwrap().as_str(), "http://e/s1");
            assert_eq!(g.id_to_term(p).as_iri().unwrap().as_str(), "http://e/p2");
            assert_eq!(g.id_to_term(o).as_iri().unwrap().as_str(), "http://e/o2");
        }

        // Removal keeps the statistics exact.
        g.remove(&t("http://e/s1", "http://e/p1", "http://e/o1"));
        assert_eq!(g.predicate_cardinality(p1), 1);
        g.remove(&t("http://e/s2", "http://e/p1", "http://e/o1"));
        assert_eq!(g.predicate_cardinality(p1), 0);
        // Unknown term: no id.
        assert!(g.term_to_id(&Term::Iri(iri("http://e/none"))).is_none());
    }

    #[test]
    fn extend_and_from_iterator() {
        let triples = vec![
            t("http://e/a", "http://e/p", "http://e/b"),
            t("http://e/c", "http://e/p", "http://e/d"),
        ];
        let g: Graph = triples.clone().into_iter().collect();
        assert_eq!(g.len(), 2);
        let mut g2 = Graph::new();
        g2.extend_from_graph(&g);
        assert_eq!(g, g2);
    }
}
