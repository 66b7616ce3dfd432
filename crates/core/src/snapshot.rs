//! Binary corpus snapshots.
//!
//! Parsing the full 198-run corpus from Turtle/TriG is the dominant cost
//! of every cold `query`/`serve`/`lint` invocation. A snapshot caches the
//! parsed corpus in one compact binary file (`corpus.snapshot`, at the
//! corpus root) that memory-loads without touching a parser:
//!
//! ```text
//! header   magic "PBSNAP" (6) | version u16 LE | fnv1a-64(body) u64 LE
//! body     source file count, source byte count        (varints)
//!          source manifest: rel path, size, mtime,
//!                  ctime, fnv1a-64 of the bytes        (per source file)
//!          global term table                           (tagged terms)
//!          descriptions: system, template, slab        (per workflow)
//!          traces: run id, system, template,
//!                  default slab, named-graph slabs     (per run)
//!          union predicate stats: (pred gid, count)    (planner input)
//! ```
//!
//! Slabs hold id-triples over the *global* term table, sorted and
//! delta-compressed (see [`provbench_rdf::codec`]). On load each graph
//! compacts the global ids it uses into a dense local table — an `Arc`
//! clone per term, no string parsing. Every decode path validates:
//! a bad magic, unknown version, checksum mismatch, malformed term,
//! out-of-range id or stats disagreement yields [`SnapshotError`] and the
//! caller falls back to a clean rebuild from the RDF sources — never a
//! panic, never silently wrong data.

use crate::fsio::FileStat;
use crate::manifest::SourceRecord;
use crate::store::{LoadedCorpus, LoadedDescription, LoadedTrace};
use provbench_rdf::codec::{
    read_slab, read_term_table, write_slab, write_string, write_term_table, Reader,
};
use provbench_rdf::{Dataset, Graph, GraphName, Term, TermId};
use provbench_workflow::execution::fnv1a;
use provbench_workflow::System;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

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
/// edit is caught.
pub const VERSION: u16 = 3;

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
    /// Union of every graph (same as
    /// `corpus.combined_dataset().union_graph()`), rebuilt from the slabs
    /// and cross-checked against the persisted predicate statistics.
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

/// Interner over the whole corpus: every graph's slab shares one table.
#[derive(Default)]
struct GlobalTable {
    ids: HashMap<Term, u32>,
    terms: Vec<Term>,
}

impl GlobalTable {
    fn intern(&mut self, term: &Term) -> u32 {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = u32::try_from(self.terms.len()).expect("term table overflow");
        self.ids.insert(term.clone(), id);
        self.terms.push(term.clone());
        id
    }
}

/// One graph as sorted global-id triples.
type Slab = Vec<(u32, u32, u32)>;

/// Remap one graph's local ids to global ids and return its sorted slab.
fn global_slab(graph: &Graph, table: &mut GlobalTable) -> Slab {
    let gids: Vec<u32> = graph
        .interned_terms()
        .iter()
        .map(|t| table.intern(t))
        .collect();
    let mut slab: Slab = graph
        .ids_matching(None, None, None)
        .map(|(s, p, o)| {
            (
                gids[s.to_u32() as usize],
                gids[p.to_u32() as usize],
                gids[o.to_u32() as usize],
            )
        })
        .collect();
    slab.sort_unstable();
    slab
}

/// Reusable global→local id scratch table: one slot per global term,
/// generation-stamped so clearing between graphs is O(1) instead of a
/// re-allocation or a hash map per slab.
struct Compactor {
    slots: Vec<(u32, u32)>,
    generation: u32,
}

impl Compactor {
    fn new(table_len: usize) -> Self {
        Compactor {
            slots: vec![(0, 0); table_len],
            generation: 0,
        }
    }
}

/// Rebuild a graph from a global-id slab: compact the global ids it uses
/// into a dense local table (first-seen order), then hand off to the
/// validating [`Graph::from_interned`].
fn graph_from_slab(
    terms: &[Term],
    slab: &[(u32, u32, u32)],
    scratch: &mut Compactor,
) -> Result<Graph, SnapshotError> {
    scratch.generation += 1;
    let generation = scratch.generation;
    let mut local_terms: Vec<Term> = Vec::new();
    let mut local_triples = Vec::with_capacity(slab.len());
    {
        let mut local = |gid: u32| -> Result<u32, SnapshotError> {
            let slot = scratch
                .slots
                .get_mut(gid as usize)
                .ok_or_else(|| corrupt(format!("term id {gid} beyond table")))?;
            if slot.0 == generation {
                return Ok(slot.1);
            }
            let l = u32::try_from(local_terms.len()).expect("local table overflow");
            local_terms.push(terms[gid as usize].clone());
            *slot = (generation, l);
            Ok(l)
        };
        for &(s, p, o) in slab {
            local_triples.push((local(s)?, local(p)?, local(o)?));
        }
    }
    Graph::from_interned(local_terms, local_triples).map_err(|e| corrupt(e.to_string()))
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
    let mut table = GlobalTable::default();
    let mut union: BTreeSet<(u32, u32, u32)> = BTreeSet::new();

    // Intern every graph first so the term table can be written before
    // the slabs. Slab order mirrors the corpus vectors.
    let description_slabs: Vec<Slab> = corpus
        .descriptions
        .iter()
        .map(|d| global_slab(&d.graph, &mut table))
        .collect();
    let trace_slabs: Vec<(Slab, Vec<(u32, Slab)>)> = corpus
        .traces
        .iter()
        .map(|t| {
            let default = global_slab(t.dataset.default_graph(), &mut table);
            let named: Vec<(u32, Slab)> = t
                .dataset
                .named_graphs()
                .map(|(name, g)| {
                    let name_id = table.intern(&Term::from(name.clone()));
                    (name_id, global_slab(g, &mut table))
                })
                .collect();
            (default, named)
        })
        .collect();
    for slab in description_slabs
        .iter()
        .chain(trace_slabs.iter().flat_map(|(default, named)| {
            std::iter::once(default).chain(named.iter().map(|(_, slab)| slab))
        }))
    {
        union.extend(slab.iter().copied());
    }

    // Union predicate statistics — the planner's cardinality input,
    // persisted so a warm load can serve it without a counting pass and
    // verified on load as an integrity check.
    let mut stats: BTreeMap<u32, u64> = BTreeMap::new();
    for &(_, p, _) in &union {
        *stats.entry(p).or_insert(0) += 1;
    }

    seal(MAGIC, VERSION, |body| {
        provbench_rdf::codec::write_varint(body, source_files);
        provbench_rdf::codec::write_varint(body, source_bytes);
        write_manifest(body, manifest);
        write_term_table(body, &table.terms);
        provbench_rdf::codec::write_varint(body, corpus.descriptions.len() as u64);
        for (d, slab) in corpus.descriptions.iter().zip(&description_slabs) {
            body.push(system_tag(d.system));
            write_string(body, &d.template_name);
            write_slab(body, slab);
        }
        provbench_rdf::codec::write_varint(body, corpus.traces.len() as u64);
        for (t, (default, named)) in corpus.traces.iter().zip(&trace_slabs) {
            write_string(body, &t.run_id);
            body.push(system_tag(t.system));
            write_string(body, &t.template_name);
            write_slab(body, default);
            provbench_rdf::codec::write_varint(body, named.len() as u64);
            for (name_id, slab) in named {
                provbench_rdf::codec::write_varint(body, u64::from(*name_id));
                write_slab(body, slab);
            }
        }
        provbench_rdf::codec::write_varint(body, stats.len() as u64);
        for (p, count) in &stats {
            provbench_rdf::codec::write_varint(body, u64::from(*p));
            provbench_rdf::codec::write_varint(body, *count);
        }
    })
}

/// A sealed file: `magic | version u16 LE | fnv1a-64(body) u64 LE`, then
/// the body `write_body` appends. The body is written in place after
/// the header, never copied.
pub fn seal(magic: [u8; 6], version: u16, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    write_body(&mut out);
    let checksum = fnv1a(&out[HEADER_LEN..]);
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
    if fnv1a(body) != checksum {
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

/// Decode and fully validate a snapshot file.
pub fn decode(bytes: &[u8]) -> Result<DecodedSnapshot, SnapshotError> {
    let body = unseal(bytes, MAGIC, VERSION)?;
    let c = |e: provbench_rdf::RdfError| corrupt(e.to_string());
    let mut r = Reader::new(body);
    // The source counts: unread since the manifest came in.
    r.read_varint().map_err(c)?;
    r.read_varint().map_err(c)?;
    let manifest = read_manifest(&mut r)?;
    let terms = read_term_table(&mut r).map_err(c)?;

    let mut corpus = LoadedCorpus::default();
    // Slabs are individually sorted; collect them all and sort + dedup
    // once instead of maintaining an ordered set incrementally.
    let mut union_slab: Vec<(u32, u32, u32)> = Vec::new();
    let mut scratch = Compactor::new(terms.len());

    let description_count = r.read_varint().map_err(c)? as usize;
    for _ in 0..description_count {
        let system = system_from_tag(read_byte(&mut r)?)?;
        let template_name = r.read_string().map_err(c)?;
        let slab = read_slab(&mut r).map_err(c)?;
        let graph = graph_from_slab(&terms, &slab, &mut scratch)?;
        union_slab.extend_from_slice(&slab);
        corpus.descriptions.push(LoadedDescription {
            system,
            template_name,
            graph,
        });
    }

    let trace_count = r.read_varint().map_err(c)? as usize;
    for _ in 0..trace_count {
        let run_id = r.read_string().map_err(c)?;
        let system = system_from_tag(read_byte(&mut r)?)?;
        let template_name = r.read_string().map_err(c)?;
        let default_slab = read_slab(&mut r).map_err(c)?;
        let mut dataset = Dataset::new();
        *dataset.default_graph_mut() = graph_from_slab(&terms, &default_slab, &mut scratch)?;
        union_slab.extend_from_slice(&default_slab);
        let named_count = r.read_varint().map_err(c)? as usize;
        for _ in 0..named_count {
            let name_id = r.read_u32().map_err(c)?;
            let name: GraphName = match terms.get(name_id as usize) {
                Some(Term::Iri(i)) => i.clone().into(),
                Some(Term::Blank(b)) => b.clone().into(),
                Some(Term::Literal(_)) => {
                    return Err(corrupt(format!("literal graph name (id {name_id})")))
                }
                None => return Err(corrupt(format!("graph name id {name_id} beyond table"))),
            };
            let slab = read_slab(&mut r).map_err(c)?;
            let graph = graph_from_slab(&terms, &slab, &mut scratch)?;
            union_slab.extend_from_slice(&slab);
            if dataset.named_graph(&name).is_some() {
                return Err(corrupt(format!("duplicate named graph {name:?}")));
            }
            *dataset.named_graph_mut(name) = graph;
        }
        corpus.traces.push(LoadedTrace {
            run_id,
            system,
            template_name,
            dataset,
        });
    }

    // The union graph keeps the global id space (terms table as-is), so
    // the persisted stats can be checked id-for-id.
    union_slab.sort_unstable();
    union_slab.dedup();
    let union = Graph::from_interned(terms, union_slab).map_err(|e| corrupt(e.to_string()))?;

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
/// content hash with a source manifest (see [`crate::manifest`]).
pub const LINT_VERSION: u16 = 2;

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
                .map(|((system, t), g)| LoadedDescription {
                    system: *system,
                    template_name: t.name.clone(),
                    graph: g.clone(),
                })
                .collect(),
            traces: corpus
                .traces
                .iter()
                .map(|t| LoadedTrace {
                    run_id: t.run_id.clone(),
                    system: t.system,
                    template_name: t.template_name.clone(),
                    dataset: t.dataset.clone(),
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
            assert_eq!(a.graph, b.graph);
        }
        for (a, b) in corpus.traces.iter().zip(&decoded.corpus.traces) {
            assert_eq!(a.run_id, b.run_id);
            assert_eq!(a.system, b.system);
            assert_eq!(a.template_name, b.template_name);
            assert_eq!(a.dataset, b.dataset);
        }
        assert_eq!(decoded.union, corpus.combined_dataset().union_graph());
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
        resealed.extend_from_slice(&fnv1a(&body).to_le_bytes());
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
            descriptions: vec![LoadedDescription {
                system: System::Taverna,
                template_name: "t".into(),
                graph: g,
            }],
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
        resealed.extend_from_slice(&fnv1a(&body).to_le_bytes());
        resealed.extend_from_slice(&body);
        let err = decode(&resealed).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Corrupt(ref m) if m.contains("stats")),
            "{err}"
        );
    }

    #[test]
    fn snapshot_is_much_smaller_than_turtle() {
        let corpus = sample_corpus();
        let turtle_bytes: usize = corpus
            .descriptions
            .iter()
            .map(|d| store::serialize_description(&d.graph).len())
            .sum::<usize>()
            + corpus
                .traces
                .iter()
                .map(|t| {
                    provbench_rdf::write_trig(&t.dataset, &provbench_rdf::PrefixMap::common()).len()
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
