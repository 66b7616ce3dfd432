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
#[derive(Default, Clone, Debug)]
pub(crate) struct Interner {
    to_id: HashMap<Term, TermId>,
    to_term: Vec<Term>,
}

impl Interner {
    /// Intern a term, returning its stable id.
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.to_id.get(term) {
            return id;
        }
        let id = TermId(u32::try_from(self.to_term.len()).expect("interner overflow"));
        self.to_id.insert(term.clone(), id);
        self.to_term.push(term.clone());
        id
    }

    /// Look up an id without interning; `None` if never seen.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.to_id.get(term).copied()
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
    /// [`Interner::terms`]). Returns `None` if the table contains a
    /// duplicate term — a table that no interner could have produced.
    pub fn from_terms(terms: Vec<Term>) -> Option<Self> {
        let mut to_id = HashMap::with_capacity(terms.len());
        for (i, term) in terms.iter().enumerate() {
            let id = TermId(u32::try_from(i).ok()?);
            if to_id.insert(term.clone(), id).is_some() {
                return None;
            }
        }
        Some(Interner {
            to_id,
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

    #[test]
    fn raw_roundtrip() {
        let mut i = Interner::default();
        let id = i.intern(&Term::Literal(Literal::simple("z")));
        assert_eq!(TermId::from_u32(id.to_u32()), id);
    }
}
