//! Binary encoding primitives for corpus snapshots.
//!
//! The snapshot format (see `docs/snapshot.md` in the repository root)
//! stores a global term table plus per-graph slabs of interned id-triples.
//! This module provides the low-level pieces: LEB128 varints,
//! length-prefixed strings, tagged [`Term`]s, term tables, and
//! delta-compressed triple slabs. All decoders validate as they go —
//! truncated, oversized or type-confused input yields an [`RdfError`],
//! never a panic or unbounded allocation.

use crate::error::RdfError;
use crate::term::{BlankNode, Iri, Literal, Term};

/// Term tags, one byte each, stable across snapshot versions.
const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_LITERAL_SIMPLE: u8 = 2;
const TAG_LITERAL_LANG: u8 = 3;
const TAG_LITERAL_TYPED: u8 = 4;

fn corrupt(msg: impl Into<String>) -> RdfError {
    RdfError::InvalidInterned(msg.into())
}

/// Append `v` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn write_string(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Append a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A validating cursor over an encoded byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn read_byte(&mut self) -> Result<u8, RdfError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| corrupt("truncated input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read an unsigned LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, RdfError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.read_byte()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(corrupt("varint overflows u64"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than 10 bytes"))
    }

    /// Read a varint and check it fits `u32` (ids, counts).
    pub fn read_u32(&mut self) -> Result<u32, RdfError> {
        u32::try_from(self.read_varint()?).map_err(|_| corrupt("value exceeds u32"))
    }

    /// Read a length-prefixed byte string, borrowed from the input. The
    /// length is bounded by the remaining input, so a corrupt prefix
    /// cannot trigger a huge allocation.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], RdfError> {
        let len = self.read_varint()? as usize;
        if len > self.remaining() {
            return Err(corrupt(format!(
                "string length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(bytes)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    pub fn read_str(&mut self) -> Result<&'a str, RdfError> {
        std::str::from_utf8(self.read_bytes()?).map_err(|_| corrupt("string is not valid UTF-8"))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_string(&mut self) -> Result<String, RdfError> {
        self.read_str().map(str::to_owned)
    }
}

/// Append one tagged term.
pub fn write_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(i) => {
            out.push(TAG_IRI);
            write_string(out, i.as_str());
        }
        Term::Blank(b) => {
            out.push(TAG_BLANK);
            write_string(out, b.label());
        }
        Term::Literal(l) => {
            if let Some(tag) = l.language() {
                out.push(TAG_LITERAL_LANG);
                write_string(out, l.lexical());
                write_string(out, tag);
            } else if l.is_simple() {
                out.push(TAG_LITERAL_SIMPLE);
                write_string(out, l.lexical());
            } else {
                out.push(TAG_LITERAL_TYPED);
                write_string(out, l.lexical());
                write_string(out, l.datatype().as_str());
            }
        }
    }
}

/// Read one tagged term, re-validating it through the same constructors
/// the parsers use ([`Iri::new`], [`BlankNode::new`], [`Literal::lang`]).
/// Each string is borrowed from the input and copied once, into the term.
pub fn read_term(r: &mut Reader<'_>) -> Result<Term, RdfError> {
    match r.read_byte()? {
        TAG_IRI => Ok(Term::Iri(Iri::new(r.read_str()?)?)),
        TAG_BLANK => Ok(Term::Blank(BlankNode::new(r.read_str()?)?)),
        TAG_LITERAL_SIMPLE => Ok(Term::Literal(Literal::simple(r.read_str()?))),
        TAG_LITERAL_LANG => {
            let lexical = r.read_str()?;
            let tag = r.read_str()?;
            Ok(Term::Literal(Literal::lang(lexical, tag)?))
        }
        TAG_LITERAL_TYPED => {
            let lexical = r.read_str()?;
            let datatype = Iri::new(r.read_str()?)?;
            Ok(Term::Literal(Literal::typed(lexical, datatype)))
        }
        other => Err(corrupt(format!("unknown term tag {other}"))),
    }
}

/// Append a term table: varint count then tagged terms in id order.
pub fn write_term_table(out: &mut Vec<u8>, terms: &[Term]) {
    write_varint(out, terms.len() as u64);
    for term in terms {
        write_term(out, term);
    }
}

/// Read a term table written by [`write_term_table`].
pub fn read_term_table(r: &mut Reader<'_>) -> Result<Vec<Term>, RdfError> {
    let count = r.read_varint()? as usize;
    // Every encoded term takes at least two bytes (tag + length).
    if count > r.remaining() / 2 {
        return Err(corrupt(format!(
            "term table claims {count} entries but only {} bytes remain",
            r.remaining()
        )));
    }
    let mut terms = Vec::with_capacity(count);
    for _ in 0..count {
        terms.push(read_term(r)?);
    }
    Ok(terms)
}

/// Append a slab of id-triples. `triples` must be sorted ascending (the
/// natural order of [`crate::Graph::ids_matching`]); the subject column is
/// delta-encoded against the previous row, predicates and objects are raw
/// varints.
pub fn write_slab(out: &mut Vec<u8>, triples: &[(u32, u32, u32)]) {
    write_varint(out, triples.len() as u64);
    let mut prev_s = 0u32;
    for &(s, p, o) in triples {
        debug_assert!(s >= prev_s, "slab triples must be sorted by subject");
        write_varint(out, u64::from(s - prev_s));
        write_varint(out, u64::from(p));
        write_varint(out, u64::from(o));
        prev_s = s;
    }
}

/// Read a slab written by [`write_slab`], returning triples in the
/// original sorted order. Id range checks happen later, in
/// [`crate::Graph::from_interned`].
pub fn read_slab(r: &mut Reader<'_>) -> Result<Vec<(u32, u32, u32)>, RdfError> {
    let count = r.read_varint()? as usize;
    // Every row takes at least three bytes.
    if count > r.remaining() / 3 {
        return Err(corrupt(format!(
            "slab claims {count} triples but only {} bytes remain",
            r.remaining()
        )));
    }
    let mut triples = Vec::with_capacity(count);
    let mut prev_s = 0u32;
    for _ in 0..count {
        let delta = r.read_u32()?;
        let s = prev_s
            .checked_add(delta)
            .ok_or_else(|| corrupt("subject delta overflows u32"))?;
        let p = r.read_u32()?;
        let o = r.read_u32()?;
        triples.push((s, p, o));
        prev_s = s;
    }
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Continuation bit set, then nothing.
        assert!(Reader::new(&[0x80]).read_varint().is_err());
        // 10 bytes all-continuation: longer than any u64 varint.
        assert!(Reader::new(&[0xff; 11]).read_varint().is_err());
        // 10-byte varint whose top byte pushes past 64 bits.
        let mut buf = vec![0xff; 9];
        buf.push(0x02);
        assert!(Reader::new(&buf).read_varint().is_err());
    }

    #[test]
    fn string_roundtrip_and_bad_length() {
        let mut buf = Vec::new();
        write_string(&mut buf, "héllo \u{1F600}");
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_string().unwrap(), "héllo \u{1F600}");
        // Length prefix larger than the remaining bytes must error, not
        // allocate.
        let mut bad = Vec::new();
        write_varint(&mut bad, u64::MAX);
        assert!(Reader::new(&bad).read_string().is_err());
        // Invalid UTF-8 payload.
        let mut nonutf8 = Vec::new();
        write_varint(&mut nonutf8, 2);
        nonutf8.extend_from_slice(&[0xff, 0xfe]);
        assert!(Reader::new(&nonutf8).read_string().is_err());
    }

    #[test]
    fn term_roundtrip_all_kinds() {
        let terms: Vec<Term> = vec![
            Iri::new("http://example.org/a").unwrap().into(),
            BlankNode::new("b12").unwrap().into(),
            Literal::simple("plain \"text\"\nwith\tcontrols\u{01}").into(),
            Literal::lang("ciao", "it").unwrap().into(),
            Literal::typed(
                "2013-01-15T10:30:00Z",
                Iri::new(crate::xsd::DATE_TIME).unwrap(),
            )
            .into(),
        ];
        let mut buf = Vec::new();
        write_term_table(&mut buf, &terms);
        let mut r = Reader::new(&buf);
        assert_eq!(read_term_table(&mut r).unwrap(), terms);
        assert!(r.is_empty());
    }

    #[test]
    fn term_decode_rejects_bad_tag_and_bad_iri() {
        assert!(read_term(&mut Reader::new(&[9])).is_err());
        // TAG_IRI with a whitespace-containing IRI must fail validation.
        let mut buf = vec![TAG_IRI];
        write_string(&mut buf, "not an iri");
        assert!(read_term(&mut Reader::new(&buf)).is_err());
        // TAG_LITERAL_LANG with a bad language tag.
        let mut buf = vec![TAG_LITERAL_LANG];
        write_string(&mut buf, "x");
        write_string(&mut buf, "no spaces!");
        assert!(read_term(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn slab_roundtrip_and_bounds() {
        let triples = vec![(0, 5, 2), (0, 7, 1), (3, 5, 0), (3, 5, 9), (10, 0, 0)];
        let mut buf = Vec::new();
        write_slab(&mut buf, &triples);
        let mut r = Reader::new(&buf);
        assert_eq!(read_slab(&mut r).unwrap(), triples);
        assert!(r.is_empty());
        // A count far beyond the payload errors instead of allocating.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1 << 40);
        assert!(read_slab(&mut Reader::new(&bad)).is_err());
        // Truncated rows are caught.
        let mut cut = Vec::new();
        write_slab(&mut cut, &triples);
        cut.truncate(cut.len() - 1);
        assert!(read_slab(&mut Reader::new(&cut)).is_err());
    }

    #[test]
    fn empty_table_and_slab() {
        let mut buf = Vec::new();
        write_term_table(&mut buf, &[]);
        write_slab(&mut buf, &[]);
        let mut r = Reader::new(&buf);
        assert!(read_term_table(&mut r).unwrap().is_empty());
        assert!(read_slab(&mut r).unwrap().is_empty());
        assert!(r.is_empty());
    }
}
