//! Binary corpus snapshots.
//!
//! Parsing the full 198-run corpus from Turtle/TriG is the dominant cost
//! of every cold `query`/`serve`/`lint` invocation. A snapshot caches the
//! parsed corpus in one compact binary file (`corpus.snapshot`, at the
//! corpus root) that memory-loads without touching a parser:
//!
//! ```text
//! header   magic "PBSNAP" (6) | version u16 LE | xxh64(body) u64 LE
//! body     source file count, source byte count        (varints)
//!          source manifest: rel path, size, mtime,
//!                  ctime, xxh64 of the bytes           (per source file)
//!          global term table, sorted                   (tagged terms)
//!          descriptions: system, template, slab        (per workflow)
//!          traces: run id, system, template,
//!                  default slab, named-graph slabs     (per run)
//!          union predicate stats: (pred gid, count)    (planner input)
//! ```
//!
//! The global term table is the served graph's own, in canonical order:
//! `Term`'s, IRIs then blank nodes then literals, each by its string.
//! Slabs hold id-triples over it, sorted and delta-compressed (see
//! [`provbench_rdf::codec`]). On load the union keeps the table's ids,
//! and, being sorted, the table is the union's own index: a lookup
//! bisects it. A warm open builds only the union. Each description and
//! trace keeps its slabs, and builds its graph the first time it is
//! asked for, compacting the ids it uses into a local table — an `Arc`
//! clone per term, no string parsing. Every decode path validates: a bad
//! magic, unknown version, checksum mismatch, malformed term, table out
//! of canonical order, out-of-range id, misplaced term kind, bad or
//! duplicate graph name, or stats disagreement yields [`SnapshotError`]
//! and the caller falls back to a clean rebuild from the RDF sources —
//! never a panic, never silently wrong data. The union's build checks
//! every slab's ids, so a deferred build cannot fail.

use crate::checksum::xxh64;
use crate::fsio::FileStat;
use crate::manifest::SourceRecord;
use crate::store::{Deferred, LoadedCorpus, LoadedDescription, LoadedTrace};
use provbench_rdf::codec::{
    read_slab, read_term_table, write_slab, write_string, write_term_table, Reader,
};
use provbench_rdf::{Dataset, Graph, GraphName, Term, TermId};
use provbench_workflow::System;
use std::fmt;
use std::sync::Arc;

/// Snapshot file name, stored at the corpus directory root.
pub const SNAPSHOT_FILE: &str = "corpus.snapshot";

/// File magic: identifies a ProvBench snapshot regardless of version.
pub const MAGIC: [u8; 6] = *b"PBSNAP";

/// Current format version. Bump on any body-layout change; older readers
/// reject newer files (and vice versa) and rebuild from source.
///
/// History: v1 had no source manifest; v2 adds the per-file
/// `(relative path, byte size)` manifest so a stale-snapshot rebuild can
/// name exactly which files changed; v3 records each file's mtime,
/// ctime and content hash too (see [`crate::manifest`]), so a same-size
/// edit is caught; v4 sorts the term table into canonical order, the
/// served graph's numbering, which [`decode`] checks; v5 checksums the
/// body, and hashes each source, with XXH64 ([`crate::checksum`])
/// instead of FNV-1a.
pub const VERSION: u16 = 5;

/// Fixed header length: magic + version + checksum.
pub const HEADER_LEN: usize = 6 + 2 + 8;

/// Why a snapshot could not be used. Every variant is recoverable — the
/// caller rebuilds from the RDF sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// File shorter than the fixed header.
    Truncated,
    /// The first six bytes are not [`MAGIC`].
    BadMagic,
    /// Version field differs from [`VERSION`].
    Version(u16),
    /// Body bytes do not hash to the checksum in the header.
    Checksum,
    /// The body failed structural validation (bad term, id out of range,
    /// stats mismatch, trailing bytes, …).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "file shorter than the {HEADER_LEN}-byte header"),
            SnapshotError::BadMagic => write!(f, "not a ProvBench snapshot (bad magic)"),
            SnapshotError::Version(v) => {
                write!(f, "snapshot version {v} (this build reads {VERSION})")
            }
            SnapshotError::Checksum => write!(f, "body checksum mismatch"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot body: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// A decoded snapshot: the corpus, the pre-merged union graph, and the
/// source manifest recorded at build time.
#[derive(Debug, Clone)]
pub struct DecodedSnapshot {
    /// The corpus exactly as [`crate::store::load`] would return it.
    pub corpus: LoadedCorpus,
    /// The served graph: the union of every graph, rebuilt from the
    /// slabs over the canonical term table, so its ids are those a cold
    /// open and [`crate::Corpus::combined_graph`] give; cross-checked
    /// against the persisted predicate statistics.
    pub union: Graph,
    /// The record of every source file read at build time, in walk
    /// order: what a warm open checks the directory against.
    pub manifest: Vec<SourceRecord>,
}

fn system_tag(system: System) -> u8 {
    match system {
        System::Taverna => 0,
        System::Wings => 1,
    }
}

fn system_from_tag(tag: u8) -> Result<System, SnapshotError> {
    match tag {
        0 => Ok(System::Taverna),
        1 => Ok(System::Wings),
        other => Err(corrupt(format!("unknown system tag {other}"))),
    }
}

/// One graph as sorted id-triples over a snapshot's term table.
type Slab = Vec<(u32, u32, u32)>;

/// A corpus's graphs in walk order — each description, then per trace
/// its default graph and each named graph — as slabs over the served
/// graph's term table; a named graph's slab comes with its name's id.
pub(crate) type Slabs = Vec<(Option<u32>, Slab)>;

/// The served graph of a corpus: the union of its `descriptions` and
/// `traces`, numbered by one canonical term table. The table holds each
/// term that occurs in a triple, and each graph name, once, in `Term`'s
/// own order: IRIs, then blank nodes, then literals, each by its
/// string. Cold opens, warm opens ([`decode`]) and
/// [`crate::Corpus::combined_graph`] all number the served graph so,
/// and an unordered query returns the same rows from each. Also returns
/// every graph as a slab over that table, for the snapshot.
pub(crate) fn served_graph<'a>(
    descriptions: impl IntoIterator<Item = &'a Graph>,
    traces: impl IntoIterator<Item = &'a Dataset>,
) -> (Graph, Slabs) {
    let graphs: Vec<(Option<Term>, &Graph)> = descriptions
        .into_iter()
        .map(|g| (None, g))
        .chain(traces.into_iter().flat_map(|d| {
            let named = d.named_graphs();
            std::iter::once((None, d.default_graph()))
                .chain(named.map(|(name, g)| (Some(Term::from(name.clone())), g)))
        }))
        .collect();
    // Each graph's triples in its own ids, then one entry per term that
    // occurs in them or names the graph: one sort numbers every term.
    let mut slabs: Vec<Slab> = Vec::with_capacity(graphs.len());
    let mut entries: Vec<(&Term, usize, Option<usize>)> = Vec::new();
    for (gi, (name, graph)) in graphs.iter().enumerate() {
        let ids = graph.ids_matching(None, None, None);
        let slab: Slab = ids
            .map(|(s, p, o)| (s.to_u32(), p.to_u32(), o.to_u32()))
            .collect();
        let mut used = vec![false; graph.term_count()];
        for id in slab.iter().flat_map(|&(s, p, o)| [s, p, o]) {
            used[id as usize] = true;
        }
        let terms = graph.interned_terms().iter().enumerate();
        entries.extend(
            terms
                .filter(|&(l, _)| used[l])
                .map(|(l, t)| (t, gi, Some(l))),
        );
        entries.extend(name.iter().map(|t| (t, gi, None)));
        slabs.push(slab);
    }
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut table: Vec<Term> = Vec::new();
    let mut ids: Vec<Vec<u32>> = graphs
        .iter()
        .map(|(_, g)| vec![0; g.term_count()])
        .collect();
    let mut name_ids = vec![None; graphs.len()];
    for (term, gi, local) in entries {
        if table.last() != Some(term) {
            table.push(term.clone());
        }
        let id = u32::try_from(table.len() - 1).expect("term table overflow");
        match local {
            Some(l) => ids[gi][l] = id,
            None => name_ids[gi] = Some(id),
        }
    }
    for (slab, ids) in slabs.iter_mut().zip(&ids) {
        for t in slab.iter_mut() {
            *t = (ids[t.0 as usize], ids[t.1 as usize], ids[t.2 as usize]);
        }
        slab.sort_unstable();
    }
    let union = union_graph(table, slabs.concat()).expect("a canonical table numbers valid graphs");
    (union, name_ids.into_iter().zip(slabs).collect())
}

/// The union of `triples`, every graph's slab over `table`, which stays
/// its numbering: how [`served_graph`] and [`decode`] build the served
/// graph. Sorted and deduplicated here, the triples reach the graph as
/// one exactly sized buffer.
fn union_graph(table: Vec<Term>, mut triples: Slab) -> Result<Graph, SnapshotError> {
    triples.sort_unstable();
    triples.dedup();
    Graph::from_interned(table, triples).map_err(|e| corrupt(e.to_string()))
}

/// [`served_graph`] of a loaded corpus.
pub(crate) fn served(corpus: &LoadedCorpus) -> (Graph, Slabs) {
    served_graph(
        corpus.descriptions.iter().map(|d| d.graph()),
        corpus.traces.iter().map(|t| t.dataset()),
    )
}

/// One description's or trace's graphs as [`decode`] read them: the
/// default graph's slab, then each named graph's with its name's id, over
/// the snapshot's term table. `decode` checked every id, every term's
/// position and every name, so building them cannot fail.
#[derive(Clone)]
pub(crate) struct RunSlabs {
    table: Arc<[Term]>,
    graphs: Slabs,
}

impl fmt::Debug for RunSlabs {
    /// Each slab's size, not the term table that every run shares.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sizes: Vec<usize> = self.graphs.iter().map(|(_, slab)| slab.len()).collect();
        f.debug_struct("RunSlabs")
            .field("slab_sizes", &sizes)
            .finish_non_exhaustive()
    }
}

impl RunSlabs {
    /// The graph of `slab`: the ids it uses, in table order, become its
    /// own table, still strictly increasing, so the graph bisects it too.
    fn graph(&self, slab: &Slab) -> Graph {
        let mut used: Vec<u32> = slab.iter().flat_map(|&(s, p, o)| [s, p, o]).collect();
        used.sort_unstable();
        used.dedup();
        let local = |id: u32| used.binary_search(&id).expect("a used id") as u32;
        let triples = slab.iter().map(|&(s, p, o)| (local(s), local(p), local(o)));
        let terms = used.iter().map(|&id| self.table[id as usize].clone());
        Graph::from_interned(terms.collect(), triples).expect("decode checked every slab")
    }

    /// A description's graph.
    pub(crate) fn description(&self) -> Graph {
        self.graph(&self.graphs[0].1)
    }

    /// A trace's dataset.
    pub(crate) fn dataset(&self) -> Dataset {
        let mut dataset = Dataset::new();
        for (name, slab) in &self.graphs {
            let graph = self.graph(slab);
            match name {
                None => *dataset.default_graph_mut() = graph,
                Some(id) => {
                    let name = graph_name(&self.table, *id).expect("decode checked every name");
                    *dataset.named_graph_mut(name) = graph;
                }
            }
        }
        dataset
    }
}

/// The graph name that table entry `id` gives: an IRI or a blank node.
fn graph_name(terms: &[Term], id: u32) -> Result<GraphName, SnapshotError> {
    match terms.get(id as usize) {
        Some(Term::Iri(i)) => Ok(i.clone().into()),
        Some(Term::Blank(b)) => Ok(b.clone().into()),
        Some(Term::Literal(_)) => Err(corrupt(format!("literal graph name (id {id})"))),
        None => Err(corrupt(format!("graph name id {id} beyond table"))),
    }
}

/// Serialize a corpus into a complete snapshot file (header + body).
///
/// `source_files`/`source_bytes` count the RDF tree the corpus was
/// parsed from (no reader needs them since the manifest came in) and
/// `manifest` records each of its files (may be empty when the corpus
/// never touched disk); [`decode`] hands it back so the loader can
/// detect a changed source tree, name the changed files, and rebuild.
pub fn encode(
    corpus: &LoadedCorpus,
    source_files: u64,
    source_bytes: u64,
    manifest: &[SourceRecord],
) -> Vec<u8> {
    let (union, slabs) = served(corpus);
    encode_served(corpus, &union, &slabs, source_files, source_bytes, manifest)
}

/// [`encode`] with `corpus`'s [`served`] graph and slabs already built:
/// the term table is the union's own.
pub(crate) fn encode_served(
    corpus: &LoadedCorpus,
    union: &Graph,
    slabs: &Slabs,
    source_files: u64,
    source_bytes: u64,
    manifest: &[SourceRecord],
) -> Vec<u8> {
    let mut slabs = slabs.iter();
    let mut write_next = |body: &mut Vec<u8>| {
        let (name, slab) = slabs.next().expect("one slab per graph");
        if let Some(name) = name {
            provbench_rdf::codec::write_varint(body, u64::from(*name));
        }
        write_slab(body, slab);
    };
    seal(MAGIC, VERSION, |body| {
        provbench_rdf::codec::write_varint(body, source_files);
        provbench_rdf::codec::write_varint(body, source_bytes);
        write_manifest(body, manifest);
        write_term_table(body, union.interned_terms());
        provbench_rdf::codec::write_varint(body, corpus.descriptions.len() as u64);
        for d in &corpus.descriptions {
            body.push(system_tag(d.system));
            write_string(body, &d.template_name);
            write_next(body);
        }
        provbench_rdf::codec::write_varint(body, corpus.traces.len() as u64);
        for t in &corpus.traces {
            write_string(body, &t.run_id);
            body.push(system_tag(t.system));
            write_string(body, &t.template_name);
            write_next(body);
            let named = t.dataset().named_graphs().count();
            provbench_rdf::codec::write_varint(body, named as u64);
            for _ in 0..named {
                write_next(body);
            }
        }
        // Union predicate statistics — the planner's cardinality input,
        // persisted so a warm load can serve it without a counting pass
        // and verified on load as an integrity check.
        let stats: Vec<(u32, usize)> = (0..union.term_count() as u32)
            .map(|p| (p, union.predicate_cardinality(TermId::from_u32(p))))
            .filter(|&(_, count)| count > 0)
            .collect();
        provbench_rdf::codec::write_varint(body, stats.len() as u64);
        for (p, count) in stats {
            provbench_rdf::codec::write_varint(body, u64::from(p));
            provbench_rdf::codec::write_varint(body, count as u64);
        }
    })
}

/// A sealed file: `magic | version u16 LE | xxh64(body) u64 LE`, then
/// the body `write_body` appends. The body is written in place after
/// the header, never copied.
pub fn seal(magic: [u8; 6], version: u16, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    write_body(&mut out);
    let checksum = xxh64(&out[HEADER_LEN..]);
    out[8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Check a sealed file's header against `magic` and `version` and its
/// body against the checksum; the body.
pub fn unseal(bytes: &[u8], magic: [u8; 6], version: u16) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..6] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let found = u16::from_le_bytes([bytes[6], bytes[7]]);
    if found != version {
        return Err(SnapshotError::Version(found));
    }
    let checksum = u64::from_le_bytes(bytes[8..HEADER_LEN].try_into().expect("8 bytes"));
    let body = &bytes[HEADER_LEN..];
    if xxh64(body) != checksum {
        return Err(SnapshotError::Checksum);
    }
    Ok(body)
}

/// The source manifest section, shared by the snapshot and the lint
/// cache.
pub fn write_manifest(out: &mut Vec<u8>, manifest: &[SourceRecord]) {
    provbench_rdf::codec::write_varint(out, manifest.len() as u64);
    for r in manifest {
        write_string(out, &r.path);
        for v in [r.stat.len, r.stat.mtime_ns, r.stat.ctime_ns, r.hash] {
            provbench_rdf::codec::write_varint(out, v);
        }
    }
}

/// Inverse of [`write_manifest`].
pub fn read_manifest(r: &mut Reader<'_>) -> Result<Vec<SourceRecord>, SnapshotError> {
    let c = |e: provbench_rdf::RdfError| corrupt(e.to_string());
    let count = r.read_varint().map_err(c)? as usize;
    let mut manifest = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        manifest.push(SourceRecord {
            path: r.read_string().map_err(c)?,
            stat: FileStat {
                len: r.read_varint().map_err(c)?,
                mtime_ns: r.read_varint().map_err(c)?,
                ctime_ns: r.read_varint().map_err(c)?,
            },
            hash: r.read_varint().map_err(c)?,
        });
    }
    Ok(manifest)
}

fn read_byte(r: &mut Reader<'_>) -> Result<u8, SnapshotError> {
    let v = r.read_varint().map_err(|e| corrupt(e.to_string()))?;
    u8::try_from(v).map_err(|_| corrupt(format!("tag value {v} exceeds one byte")))
}

/// Decode and fully validate a snapshot file. Only the union is built:
/// each description and trace keeps its slabs, and builds its graph on
/// first use. Every check a build would make runs here — the union sees
/// every slab's ids against the table, and each graph name is checked —
/// so a deferred build cannot fail.
pub fn decode(bytes: &[u8]) -> Result<DecodedSnapshot, SnapshotError> {
    let body = unseal(bytes, MAGIC, VERSION)?;
    let c = |e: provbench_rdf::RdfError| corrupt(e.to_string());
    let mut r = Reader::new(body);
    // The source counts: unread since the manifest came in.
    r.read_varint().map_err(c)?;
    r.read_varint().map_err(c)?;
    let manifest = read_manifest(&mut r)?;
    let terms = read_term_table(&mut r).map_err(c)?;
    if let Some(i) = terms.windows(2).position(|w| w[0] >= w[1]) {
        return Err(corrupt(format!(
            "term table out of canonical order at entry {}",
            i + 1
        )));
    }
    let table: Arc<[Term]> = terms.as_slice().into();

    let mut corpus = LoadedCorpus::default();
    // Every slab's triples, for the union.
    let mut union_slab: Slab = Vec::new();
    let mut read_graph = |r: &mut Reader<'_>| {
        let slab = read_slab(r).map_err(c)?;
        union_slab.extend_from_slice(&slab);
        Ok::<_, SnapshotError>(slab)
    };
    let slabs = |graphs| RunSlabs {
        table: Arc::clone(&table),
        graphs,
    };

    let description_count = r.read_varint().map_err(c)? as usize;
    for _ in 0..description_count {
        let system = system_from_tag(read_byte(&mut r)?)?;
        let template_name = r.read_string().map_err(c)?;
        let graphs = vec![(None, read_graph(&mut r)?)];
        corpus.descriptions.push(LoadedDescription {
            system,
            template_name,
            graph: Deferred::from_slabs(slabs(graphs)),
        });
    }

    let trace_count = r.read_varint().map_err(c)? as usize;
    for _ in 0..trace_count {
        let run_id = r.read_string().map_err(c)?;
        let system = system_from_tag(read_byte(&mut r)?)?;
        let template_name = r.read_string().map_err(c)?;
        let mut graphs = vec![(None, read_graph(&mut r)?)];
        let named_count = r.read_varint().map_err(c)? as usize;
        for _ in 0..named_count {
            let name_id = r.read_u32().map_err(c)?;
            let name = graph_name(&terms, name_id)?;
            if graphs.iter().any(|(n, _)| *n == Some(name_id)) {
                return Err(corrupt(format!("duplicate named graph {name:?}")));
            }
            graphs.push((Some(name_id), read_graph(&mut r)?));
        }
        corpus.traces.push(LoadedTrace {
            run_id,
            system,
            template_name,
            dataset: Deferred::from_slabs(slabs(graphs)),
        });
    }

    // The union keeps the table's canonical ids, so the persisted stats
    // can be checked id-for-id.
    let union = union_graph(terms, union_slab)?;

    let stats_count = r.read_varint().map_err(c)? as usize;
    let mut seen_preds = 0usize;
    for _ in 0..stats_count {
        let p = r.read_u32().map_err(c)?;
        let count = r.read_varint().map_err(c)?;
        let actual = union.predicate_cardinality(TermId::from_u32(p)) as u64;
        if actual != count {
            return Err(corrupt(format!(
                "stats claim predicate {p} occurs {count} times, slabs say {actual}"
            )));
        }
        seen_preds += 1;
    }
    if seen_preds != union.predicates().len() {
        return Err(corrupt(format!(
            "stats cover {seen_preds} predicates, union graph has {}",
            union.predicates().len()
        )));
    }
    if !r.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }

    Ok(DecodedSnapshot {
        corpus,
        union,
        manifest,
    })
}

/// `bytes`, a snapshot, with its manifest replaced by `records`, which
/// must record the same files with the same bytes: only their stats may
/// move, because the corpus section, copied as it is, was parsed from
/// those bytes. `None` when they record other bytes, or `bytes` is no
/// snapshot.
pub fn redate(bytes: &[u8], records: &[SourceRecord]) -> Option<Vec<u8>> {
    let body = unseal(bytes, MAGIC, VERSION).ok()?;
    let mut r = Reader::new(body);
    r.read_varint().ok()?;
    r.read_varint().ok()?;
    let counts = &body[..body.len() - r.remaining()];
    let old = read_manifest(&mut r).ok()?;
    let same_bytes = old.iter().map(|r| (&r.path, r.hash));
    if !same_bytes.eq(records.iter().map(|r| (&r.path, r.hash))) {
        return None;
    }
    let corpus = &body[body.len() - r.remaining()..];
    Some(seal(MAGIC, VERSION, |out| {
        out.extend_from_slice(counts);
        write_manifest(out, records);
        out.extend_from_slice(corpus);
    }))
}

/// Lint snapshot file name, stored at the lint root next to
/// [`SNAPSHOT_FILE`] when the lint root is the corpus directory. Its
/// format belongs to `provbench-diag`: a sealed file (see [`seal`]) of
/// [`LINT_MAGIC`] and [`LINT_VERSION`] holding a source manifest.
pub const LINT_SNAPSHOT_FILE: &str = "corpus.lint.snapshot";

/// File magic of the lint snapshot.
pub const LINT_MAGIC: [u8; 6] = *b"PBLINT";

/// Current lint snapshot format version. v2 replaced each entry's
/// content hash with a source manifest (see [`crate::manifest`]); v3
/// seals and hashes with XXH64, as snapshot v5 does.
pub const LINT_VERSION: u16 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;
    use crate::store;
    use provbench_rdf::{Iri, Literal, Triple};

    fn sample_corpus() -> LoadedCorpus {
        // Generate in memory and convert via the loaded types so the
        // snapshot sees exactly what disk loading produces.
        let spec = CorpusSpec {
            max_workflows: Some(70),
            total_runs: 72,
            failed_runs: 1,
            ..CorpusSpec::default()
        };
        let corpus = crate::Corpus::generate(&spec);
        LoadedCorpus {
            descriptions: corpus
                .templates
                .iter()
                .zip(&corpus.descriptions)
                .map(|((system, t), g)| LoadedDescription::new(*system, t.name.clone(), g.clone()))
                .collect(),
            traces: corpus
                .traces
                .iter()
                .map(|t| {
                    let (run_id, template) = (t.run_id.clone(), t.template_name.clone());
                    LoadedTrace::new(run_id, t.system, template, t.dataset.clone())
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip_preserves_corpus_and_union() {
        let corpus = sample_corpus();
        let manifest = sample_manifest(&["a/b.ttl", "c.trig"]);
        let bytes = encode(&corpus, 42, 1234, &manifest);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.manifest, manifest);
        assert_eq!(decoded.corpus.descriptions.len(), corpus.descriptions.len());
        assert_eq!(decoded.corpus.traces.len(), corpus.traces.len());
        for (a, b) in corpus.descriptions.iter().zip(&decoded.corpus.descriptions) {
            assert_eq!(a.system, b.system);
            assert_eq!(a.template_name, b.template_name);
            assert_eq!(a.graph(), b.graph());
        }
        for (a, b) in corpus.traces.iter().zip(&decoded.corpus.traces) {
            assert_eq!(a.run_id, b.run_id);
            assert_eq!(a.system, b.system);
            assert_eq!(a.template_name, b.template_name);
            assert_eq!(a.dataset(), b.dataset());
        }
        assert_eq!(decoded.union, corpus.combined_dataset().union_graph());
        let table = decoded.union.interned_terms();
        assert!(table.windows(2).all(|w| w[0] < w[1]), "table not canonical");
    }

    #[test]
    fn redate_moves_stats_and_keeps_the_corpus() {
        let corpus = sample_corpus();
        let manifest = sample_manifest(&["a/b.ttl", "c.trig"]);
        let bytes = encode(&corpus, 2, 1800, &manifest);
        let mut moved = manifest.clone();
        moved[1].stat.mtime_ns += 1_000_000_000;
        let redated = redate(&bytes, &moved).unwrap();
        let decoded = decode(&redated).unwrap();
        assert_eq!(decoded.manifest, moved);
        assert_eq!(decoded.union, corpus.combined_dataset().union_graph());
        // Other bytes, or other files, cannot be redated into it.
        moved[1].hash += 1;
        assert_eq!(redate(&bytes, &moved), None);
        assert_eq!(redate(&bytes, &manifest[..1]), None);
    }

    #[test]
    fn encoding_is_deterministic() {
        let corpus = sample_corpus();
        assert_eq!(encode(&corpus, 1, 2, &[]), encode(&corpus, 1, 2, &[]));
    }

    #[test]
    fn header_validation() {
        let corpus = sample_corpus();
        let bytes = encode(&corpus, 1, 2, &[]);

        assert_eq!(decode(&bytes[..10]).unwrap_err(), SnapshotError::Truncated);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic).unwrap_err(), SnapshotError::BadMagic);

        let mut bad_version = bytes.clone();
        bad_version[6] = 0xFF;
        bad_version[7] = 0xFF;
        assert_eq!(
            decode(&bad_version).unwrap_err(),
            SnapshotError::Version(0xFFFF)
        );

        // Flip one body byte: checksum must catch it.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(decode(&flipped).unwrap_err(), SnapshotError::Checksum);

        // Truncating the body is also a checksum failure, not a panic.
        let cut = &bytes[..bytes.len() - 20];
        assert_eq!(decode(cut).unwrap_err(), SnapshotError::Checksum);
    }

    #[test]
    fn corrupt_body_with_fixed_checksum_is_rejected() {
        // Re-seal a tampered body with a valid checksum: structural
        // validation has to catch what the checksum no longer can.
        let corpus = sample_corpus();
        let bytes = encode(&corpus, 1, 2, &[]);
        let mut body = bytes[HEADER_LEN..].to_vec();
        let last = body.len() - 1;
        body[last] = body[last].wrapping_add(1);
        let mut resealed = bytes[..8].to_vec();
        resealed.extend_from_slice(&xxh64(&body).to_le_bytes());
        resealed.extend_from_slice(&body);
        assert!(matches!(
            decode(&resealed).unwrap_err(),
            SnapshotError::Corrupt(_) | SnapshotError::Checksum
        ));
    }

    #[test]
    fn stats_mismatch_is_corrupt() {
        // Hand-build a snapshot of one tiny graph, then tamper with the
        // stats section and re-seal the checksum.
        let mut g = Graph::new();
        g.insert(Triple::new(
            Iri::new("http://e/s").unwrap(),
            Iri::new("http://e/p").unwrap(),
            Literal::simple("x"),
        ));
        let corpus = LoadedCorpus {
            descriptions: vec![LoadedDescription::new(System::Taverna, "t".into(), g)],
            traces: vec![],
        };
        let bytes = encode(&corpus, 0, 0, &[]);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.union.len(), 1);

        let mut body = bytes[HEADER_LEN..].to_vec();
        // The stats section is the tail: (pred gid varint, count varint).
        // One predicate with count 1 → last byte is the count. Bump it.
        let last = body.len() - 1;
        assert_eq!(body[last], 1);
        body[last] = 2;
        let mut resealed = bytes[..8].to_vec();
        resealed.extend_from_slice(&xxh64(&body).to_le_bytes());
        resealed.extend_from_slice(&body);
        let err = decode(&resealed).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Corrupt(ref m) if m.contains("stats")),
            "{err}"
        );
    }

    /// A sealed snapshot of one description and one Wings trace over
    /// `table`, with the stats its slabs give: the description's slab,
    /// then the trace's empty default graph and its `named` graphs.
    fn hand_built(table: &[Term], description: Slab, named: &[(u32, Slab)]) -> Vec<u8> {
        use provbench_rdf::codec::write_varint;
        let mut union: Slab = named.iter().flat_map(|(_, s)| s.clone()).collect();
        union.extend_from_slice(&description);
        union.sort_unstable();
        union.dedup();
        let mut counts = std::collections::BTreeMap::new();
        for &(_, p, _) in &union {
            *counts.entry(p).or_insert(0u64) += 1;
        }
        seal(MAGIC, VERSION, |body| {
            write_varint(body, 0);
            write_varint(body, 0);
            write_manifest(body, &[]);
            write_term_table(body, table);
            write_varint(body, 1);
            body.push(system_tag(System::Taverna));
            write_string(body, "t");
            write_slab(body, &description);
            write_varint(body, 1);
            write_string(body, "run");
            body.push(system_tag(System::Wings));
            write_string(body, "t");
            write_slab(body, &[]);
            write_varint(body, named.len() as u64);
            for (name, slab) in named {
                write_varint(body, u64::from(*name));
                write_slab(body, slab);
            }
            write_varint(body, counts.len() as u64);
            for (p, n) in counts {
                write_varint(body, u64::from(p));
                write_varint(body, n);
            }
        })
    }

    /// A per-run slab that no graph could hold is refused by `decode`
    /// itself, so a graph built on first use never fails.
    #[test]
    fn tampered_run_slabs_fail_decode_not_first_use() {
        let iri = |s: &str| Term::Iri(Iri::new(format!("http://e/{s}")).unwrap());
        // Canonical: g = 0, p = 1, s = 2, "x" = 3.
        let table = [iri("g"), iri("p"), iri("s"), Literal::simple("x").into()];
        let ok = hand_built(&table, vec![(2, 1, 3)], &[(0, vec![(2, 1, 0)])]);
        let decoded = decode(&ok).unwrap();
        assert_eq!(decoded.corpus.descriptions[0].graph().len(), 1);
        let dataset = decoded.corpus.traces[0].dataset();
        assert_eq!(dataset.named_graphs().count(), 1);
        assert_eq!(dataset.len(), 1);
        for (bytes, why) in [
            (hand_built(&table, vec![(2, 1, 9)], &[]), "beyond"),
            (
                hand_built(&table, vec![], &[(0, vec![(3, 1, 2)])]),
                "literal in subject",
            ),
            (hand_built(&table, vec![(2, 3, 0)], &[]), "non-IRI"),
            (
                hand_built(&table, vec![], &[(3, vec![(2, 1, 0)])]),
                "literal graph name",
            ),
            (
                hand_built(&table, vec![], &[(0, vec![(2, 1, 0)]), (0, vec![])]),
                "duplicate named graph",
            ),
        ] {
            match decode(&bytes) {
                Err(SnapshotError::Corrupt(m)) => assert!(m.contains(why), "{why}: {m}"),
                other => panic!("{why}: {other:?}"),
            }
        }
    }

    /// The served graph's table is its own index: every lookup, of a
    /// term it holds or of one it does not, answers as a hash map over
    /// the same table does.
    #[test]
    fn served_graph_lookups_agree_with_a_hash_map() {
        let graph = crate::Corpus::generate(&CorpusSpec::default()).combined_graph();
        let table = graph.interned_terms();
        let map: std::collections::HashMap<&Term, TermId> =
            table.iter().zip((0..).map(TermId::from_u32)).collect();
        assert_eq!(map.len(), table.len());
        let absent = |t: &Term| -> Term {
            match t {
                Term::Iri(i) => Iri::new(format!("{}~", i.as_str())).unwrap().into(),
                Term::Blank(b) => provbench_rdf::BlankNode::new(format!("{}x", b.label()))
                    .unwrap()
                    .into(),
                Term::Literal(l) => Literal::simple(format!("{}~", l.lexical())).into(),
            }
        };
        for term in table {
            assert_eq!(graph.term_to_id(term), map.get(term).copied());
            let other = absent(term);
            assert_eq!(graph.term_to_id(&other), map.get(&other).copied());
        }
        assert_eq!(
            graph.term_to_id(&Literal::simple("not in the corpus").into()),
            None
        );
    }

    #[test]
    fn snapshot_is_much_smaller_than_turtle() {
        let corpus = sample_corpus();
        let turtle_bytes: usize = corpus
            .descriptions
            .iter()
            .map(|d| store::serialize_description(d.graph()).len())
            .sum::<usize>()
            + corpus
                .traces
                .iter()
                .map(|t| {
                    provbench_rdf::write_trig(t.dataset(), &provbench_rdf::PrefixMap::common())
                        .len()
                })
                .sum::<usize>();
        let snapshot_bytes = encode(&corpus, 0, 0, &[]).len();
        assert!(
            snapshot_bytes < turtle_bytes,
            "snapshot {snapshot_bytes} B should beat Turtle {turtle_bytes} B"
        );
    }

    fn sample_manifest(paths: &[&str]) -> Vec<SourceRecord> {
        paths
            .iter()
            .zip(1u64..)
            .map(|(path, i)| SourceRecord {
                path: (*path).to_owned(),
                stat: FileStat {
                    len: 600 * i,
                    mtime_ns: 1_700_000_000_123_456_789 + i,
                    ctime_ns: 1_700_000_000_987_654_321 + i,
                },
                hash: 0xFEED_0000 + i,
            })
            .collect()
    }
}
