//! Term interning: maps terms to dense `u32` symbols so that the graph
//! indexes operate on integers instead of strings.

use crate::term::Term;
use std::collections::HashMap;

/// A dense symbol for an interned [`Term`].
///
/// Ids are per-[`crate::Graph`] and meaningless across graphs. A graph
/// built by insertion numbers its terms in first-seen order; one built by
/// [`crate::Graph::from_interned`] keeps its table's order. The corpus
/// store serves a union graph whose table is canonical — sorted by
/// `Term`'s own order — so its ids, and the order of index scans over
/// them, are the same however it was opened. The query engine evaluates
/// joins over these integers and only resolves them back to terms at
/// projection time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// The raw index. Dense: every id below [`crate::Graph::term_count`]
    /// resolves.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// Rebuild an id from its raw index (e.g. out of a compact binding
    /// row). Resolving an id that this graph's interner never produced
    /// panics.
    pub const fn from_u32(raw: u32) -> Self {
        TermId(raw)
    }
}

/// Bidirectional `Term` ↔ `TermId` map owned by each [`crate::Graph`].
///
/// A table in strictly increasing `Term` order — the canonical table of
/// the served graph, which [`crate::Graph::from_interned`] receives — is
/// its own index: a lookup bisects it, and no hash map is built. Any
/// other table, such as a parsed graph's first-seen one, is indexed by a
/// `HashMap`. An [`Interner::intern`] that would break the order builds
/// that map then, once.
#[derive(Clone, Debug)]
pub(crate) struct Interner {
    /// `None` while `to_term` is strictly increasing.
    to_id: Option<HashMap<Term, TermId>>,
    to_term: Vec<Term>,
}

impl Default for Interner {
    /// An empty interner that indexes its terms by hash, as a graph
    /// built by insertion meets them in no particular order.
    fn default() -> Self {
        Interner {
            to_id: Some(HashMap::new()),
            to_term: Vec::new(),
        }
    }
}

impl Interner {
    /// Intern a term, returning its stable id.
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(id) = self.get(term) {
            return id;
        }
        let id = TermId(u32::try_from(self.to_term.len()).expect("interner overflow"));
        if self.to_id.is_none() && self.to_term.last().is_some_and(|last| last > term) {
            self.to_id = Some(
                self.to_term
                    .iter()
                    .cloned()
                    .zip((0..).map(TermId))
                    .collect(),
            );
        }
        if let Some(to_id) = &mut self.to_id {
            to_id.insert(term.clone(), id);
        }
        self.to_term.push(term.clone());
        id
    }

    /// Look up an id without interning; `None` if never seen.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        match &self.to_id {
            Some(to_id) => to_id.get(term).copied(),
            None => self
                .to_term
                .binary_search(term)
                .ok()
                .map(|i| TermId(i as u32)),
        }
    }

    /// Resolve an id back to its term. Ids are never removed, so any id
    /// produced by this interner resolves.
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.to_term[id.0 as usize]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.to_term.len()
    }

    /// The interned terms in id order: id `i` resolves to `terms()[i]`.
    pub fn terms(&self) -> &[Term] {
        &self.to_term
    }

    /// Rebuild an interner from a term table in id order (the inverse of
    /// [`Interner::terms`]); a strictly increasing table gets no hash
    /// map. Returns `None` if the table contains a duplicate term — a
    /// table that no interner could have produced — or overflows the id
    /// space.
    pub fn from_terms(terms: Vec<Term>) -> Option<Self> {
        u32::try_from(terms.len()).ok()?;
        if terms.windows(2).all(|w| w[0] < w[1]) {
            return Some(Interner {
                to_id: None,
                to_term: terms,
            });
        }
        let mut to_id = HashMap::with_capacity(terms.len());
        for (term, id) in terms.iter().zip((0..).map(TermId)) {
            if to_id.insert(term.clone(), id).is_some() {
                return None;
            }
        }
        Some(Interner {
            to_id: Some(to_id),
            to_term: terms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Iri, Literal};

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::default();
        let t: Term = Iri::new("http://ex.org/a").unwrap().into();
        let a = i.intern(&t);
        let b = i.intern(&t);
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.resolve(a), &t);
    }

    #[test]
    fn distinct_terms_distinct_ids() {
        let mut i = Interner::default();
        let a = i.intern(&Term::Literal(Literal::simple("x")));
        let b = i.intern(&Term::Literal(Literal::lang("x", "en").unwrap()));
        let c = i.intern(&Term::Iri(Iri::new("http://ex.org/x").unwrap()));
        assert!(a != b && b != c && a != c);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::default();
        let t: Term = Literal::simple("y").into();
        assert!(i.get(&t).is_none());
        let id = i.intern(&t);
        assert_eq!(i.get(&t), Some(id));
    }

    /// A sorted table is searched by bisection, builds its map at the
    /// first out-of-order intern, and resolves every term either way.
    #[test]
    fn sorted_tables_bisect_until_the_order_breaks() {
        let term = |s: &str| Term::Iri(Iri::new(format!("http://ex.org/{s}")).unwrap());
        let table: Vec<Term> = ["b", "d", "f"].map(term).to_vec();
        let mut i = Interner::from_terms(table.clone()).unwrap();
        assert!(i.to_id.is_none());
        for (id, t) in table.iter().enumerate() {
            assert_eq!(i.get(t), Some(TermId(id as u32)));
        }
        assert_eq!(i.get(&term("c")), None);
        // A greater term keeps the order, and the table its own index.
        assert_eq!(i.intern(&term("g")), TermId(3));
        assert!(i.to_id.is_none());
        // A smaller one breaks it: the map is built, and every id holds.
        assert_eq!(i.intern(&term("a")), TermId(4));
        assert!(i.to_id.is_some());
        for (id, t) in ["b", "d", "f", "g", "a"].map(term).iter().enumerate() {
            assert_eq!(i.get(t), Some(TermId(id as u32)));
            assert_eq!(i.intern(t), TermId(id as u32));
        }
        assert_eq!(i.len(), 5);
        // A table out of order is hashed; a duplicate is refused.
        assert!(Interner::from_terms(["d", "b"].map(term).to_vec())
            .unwrap()
            .to_id
            .is_some());
        assert!(Interner::from_terms(["b", "b"].map(term).to_vec()).is_none());
    }

    #[test]
    fn raw_roundtrip() {
        let mut i = Interner::default();
        let id = i.intern(&Term::Literal(Literal::simple("z")));
        assert_eq!(TermId::from_u32(id.to_u32()), id);
    }
}
