//! The per-file half of a lint: file discovery, corpus labels, and the
//! spanned parse plus rule run over one document. The corpus driver
//! that puts them together is [`crate::incremental`].

use crate::diagnostic::{Diagnostic, Severity};
use crate::rules::{FileContext, Registry, PARSE_ERROR};
use provbench_rdf::{parse_trig_spanned, parse_turtle_spanned, Graph, Span, SpanTable};
use provbench_vocab::{opmw, wfdesc, wfprov};
use provbench_workflow::System;
use std::io;
use std::path::{Path, PathBuf};

/// Lint results for one file, diagnostics in deterministic order.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// The file's label (see [`corpus_label`]).
    pub path: String,
    /// All (unsuppressed) diagnostics for the file.
    pub diagnostics: Vec<Diagnostic>,
}

/// The worker count to use when the caller does not specify one.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Whether the linter recognises this path as an RDF file.
pub fn is_rdf_file(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("ttl" | "trig" | "nt")
    )
}

/// Recursively collect every `.ttl`/`.trig`/`.nt` file under `root`
/// (or `root` itself when it is a file), sorted by path.
pub fn collect_rdf_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    if root.is_file() {
        files.push(root.to_path_buf());
        return Ok(files);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            // file_type() comes straight from the directory entry on
            // every platform we care about — no extra stat per file.
            let file_type = entry.file_type()?;
            let path = entry.path();
            if file_type.is_dir() {
                stack.push(path);
            } else if is_rdf_file(&path) {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Guess which system profile applies from the vocabulary a graph
/// actually uses (predicates and IRI objects): OPMW terms mean Wings,
/// wfprov/wfdesc terms mean Taverna. Prefix declarations alone don't
/// count — serializers emit the full common prefix block everywhere. A
/// mixed file gets the majority profile.
pub fn detect_system(graph: &Graph) -> Option<System> {
    let mut wings = 0usize;
    let mut taverna = 0usize;
    let mut tally = |iri: &str| {
        if iri.starts_with(opmw::NS) {
            wings += 1;
        } else if iri.starts_with(wfprov::NS) || iri.starts_with(wfdesc::NS) {
            taverna += 1;
        }
    };
    for t in graph.iter() {
        tally(t.predicate.as_str());
        if let provbench_rdf::Term::Iri(object) = &t.object {
            tally(object.as_str());
        }
    }
    match wings.cmp(&taverna) {
        std::cmp::Ordering::Greater => Some(System::Wings),
        std::cmp::Ordering::Less => Some(System::Taverna),
        std::cmp::Ordering::Equal if taverna > 0 => Some(System::Taverna),
        std::cmp::Ordering::Equal => None,
    }
}

/// Parse one document with span recording: `.trig` labels parse as
/// TriG (its graphs merged), anything else as Turtle. A syntax error
/// becomes a spanned `PB0001` diagnostic.
pub(crate) fn parse_spanned(
    label: &str,
    content: &str,
) -> Result<(Graph, SpanTable), Box<Diagnostic>> {
    let parsed = if label.ends_with(".trig") {
        parse_trig_spanned(content).map(|(ds, _, spans)| (ds.union_graph(), spans))
    } else {
        parse_turtle_spanned(content).map(|(g, _, spans)| (g, spans))
    };
    parsed.map_err(|e| {
        Box::new(
            Diagnostic::new(&PARSE_ERROR, format!("syntax error: {}", e.message))
                .with_file(label)
                .with_span(Some(Span::point(e.line, e.column))),
        )
    })
}

/// Run every rule of `registry` over one parsed document.
pub(crate) fn check_graph(
    label: &str,
    graph: &Graph,
    spans: &SpanTable,
    registry: &Registry,
) -> Vec<Diagnostic> {
    registry.check(&FileContext {
        path: Some(label),
        graph,
        spans,
        system: detect_system(graph),
    })
}

/// Lint one in-memory document. `label` decides the concrete syntax
/// (`.trig` parses as TriG, anything else as Turtle) and is attached to
/// every diagnostic as the file path.
pub fn lint_content(label: &str, content: &str, registry: &Registry) -> Vec<Diagnostic> {
    match parse_spanned(label, content) {
        Err(d) => vec![*d],
        Ok((graph, spans)) => check_graph(label, &graph, &spans, registry),
    }
}

/// The label a corpus file is linted under: the corpus directory's own
/// name plus the file's corpus-relative path, always `/`-separated. The
/// label — and with it every diagnostic fingerprint — is therefore
/// stable across operating systems and across invocation directories
/// (`provbench lint examples` and `provbench lint /abs/path/examples`
/// agree). When `root` is a single file, its path is used as given,
/// separator-normalized.
pub fn corpus_label(root: &Path, path: &Path) -> String {
    let normalize = |p: &Path| {
        let s = p.to_string_lossy().replace('\\', "/");
        s.strip_prefix("./").unwrap_or(&s).to_string()
    };
    match (root.file_name(), path.strip_prefix(root)) {
        (Some(dir), Ok(rel)) if !rel.as_os_str().is_empty() => {
            format!("{}/{}", dir.to_string_lossy(), normalize(rel))
        }
        _ => normalize(path),
    }
}

/// `(errors, warnings, infos)` across all reports, after suppression.
pub fn severity_counts(reports: &[FileReport]) -> (usize, usize, usize) {
    let mut counts = (0usize, 0usize, 0usize);
    for report in reports {
        for d in &report.diagnostics {
            match d.severity {
                Severity::Error => counts.0 += 1,
                Severity::Warning => counts.1 += 1,
                Severity::Info => counts.2 += 1,
            }
        }
    }
    counts
}
