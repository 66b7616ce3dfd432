//! In-memory corpus generation: run the plan on the two engines and
//! collect every trace.

use crate::spec::{CorpusSpec, RunPlan};
use provbench_rdf::{Dataset, Graph, Iri, Subject};
use provbench_taverna::TavernaEngine;
use provbench_wings::WingsEngine;
use provbench_workflow::execution::fnv1a;
use provbench_workflow::generate::generate_catalog;
use provbench_workflow::{ExecutionConfig, System, WorkflowRun, WorkflowTemplate};

/// One run's complete record: the executed run plus its exported trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Stable run identifier (also the file stem on disk).
    pub run_id: String,
    /// Which system produced it.
    pub system: System,
    /// The executed template's name.
    pub template_name: String,
    /// The template's application domain.
    pub domain: String,
    /// 1-based run number within the template.
    pub run_number: usize,
    /// The raw execution record (inputs for the analysis applications).
    pub run: WorkflowRun,
    /// The exported provenance. Taverna traces live entirely in the
    /// default graph; Wings traces put the account bundle in a named
    /// graph.
    pub dataset: Dataset,
}

impl TraceRecord {
    /// Whether the recorded run failed.
    pub fn failed(&self) -> bool {
        self.run.failed()
    }

    /// All trace triples as a single graph (bundle contents merged).
    pub fn union_graph(&self) -> Graph {
        self.dataset.union_graph()
    }
}

/// The generated corpus.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The spec it was generated from.
    pub spec: CorpusSpec,
    /// The run plan.
    pub plan: RunPlan,
    /// The workflow catalog `(system, template)`.
    pub templates: Vec<(System, WorkflowTemplate)>,
    /// One workflow-description graph per catalog entry (wfdesc for
    /// Taverna workflows, OPMW for Wings workflows).
    pub descriptions: Vec<Graph>,
    /// One record per run, in plan order.
    pub traces: Vec<TraceRecord>,
}

/// Execute one planned run and record its trace. Pure function of its
/// inputs, which is what makes parallel generation trivially correct.
fn run_one(
    catalog: &[(System, WorkflowTemplate)],
    planned: &crate::spec::PlannedRun,
    value_payload: usize,
) -> TraceRecord {
    let taverna = TavernaEngine::default();
    let wings = WingsEngine::default();
    let (system, template) = &catalog[planned.template_index];
    let config = ExecutionConfig {
        started_at_ms: planned.started_at_ms,
        seed: planned.seed,
        input_seed: planned.input_seed,
        environment_epoch: planned.environment_epoch,
        failure: planned.failure,
        user: planned.user.clone(),
        value_payload,
    };
    let (run, dataset) = match system {
        System::Taverna => {
            let (run, graph) = taverna.run(template, &config, &planned.run_id);
            let mut ds = Dataset::new();
            *ds.default_graph_mut() = graph;
            (run, ds)
        }
        System::Wings => wings.run(template, &config, &planned.run_id),
    };
    TraceRecord {
        run_id: planned.run_id.clone(),
        system: *system,
        template_name: template.name.clone(),
        domain: template.domain.clone(),
        run_number: planned.run_number,
        run,
        dataset,
    }
}

impl Corpus {
    /// Generate the corpus described by `spec` (deterministic).
    pub fn generate(spec: &CorpusSpec) -> Corpus {
        Corpus::generate_with_threads(spec, 1)
    }

    /// Generate on `threads` worker threads. Every run is an independent
    /// pure computation, so the result is bit-identical to the
    /// sequential one regardless of thread count — only wall-clock time
    /// changes (relevant when `value_payload` scales the corpus toward
    /// the paper's 360 MB).
    pub fn generate_with_threads(spec: &CorpusSpec, threads: usize) -> Corpus {
        let mut catalog = generate_catalog(spec.seed);
        if let Some(max) = spec.max_workflows {
            catalog.truncate(max);
        }
        let plan = RunPlan::build(spec, &catalog);
        let taverna = TavernaEngine::default();
        let wings = WingsEngine::default();

        let descriptions = catalog
            .iter()
            .map(|(system, t)| match system {
                System::Taverna => taverna.describe(t),
                System::Wings => wings.describe(t),
            })
            .collect();

        let traces = crate::par_map(&plan.runs, threads, |p| {
            run_one(&catalog, p, spec.value_payload)
        });

        Corpus {
            spec: spec.clone(),
            plan,
            templates: catalog,
            descriptions,
            traces,
        }
    }

    /// All traces of one system.
    pub fn traces_of(&self, system: System) -> impl Iterator<Item = &TraceRecord> {
        self.traces.iter().filter(move |t| t.system == system)
    }

    /// All traces of one template, in run order.
    pub fn runs_of_template(&self, template_name: &str) -> Vec<&TraceRecord> {
        self.traces
            .iter()
            .filter(|t| t.template_name == template_name)
            .collect()
    }

    /// Number of failed runs.
    pub fn failed_count(&self) -> usize {
        self.traces.iter().filter(|t| t.failed()).count()
    }

    /// Merge the entire corpus into one dataset for cross-trace querying:
    /// workflow descriptions go to the default graph; every Taverna trace
    /// becomes a named graph keyed by its run IRI; Wings traces keep
    /// their bundle graphs and contribute their account metadata to the
    /// default graph.
    pub fn combined_dataset(&self) -> Dataset {
        let mut ds = Dataset::new();
        for d in &self.descriptions {
            ds.default_graph_mut().extend_from_graph(d);
        }
        for trace in &self.traces {
            match trace.system {
                System::Taverna => {
                    let name = Subject::Iri(Iri::new_unchecked(format!(
                        "{}graph",
                        provbench_taverna::run_base_iri(&trace.run_id)
                    )));
                    ds.insert_graph(name, trace.dataset.default_graph());
                }
                System::Wings => ds.merge(&trace.dataset),
            }
        }
        ds
    }

    /// One graph with every triple of the corpus (descriptions + traces),
    /// numbered by the canonical term table a store opened from the
    /// saved corpus serves (see [`crate::store::CorpusStore::union`]).
    pub fn combined_graph(&self) -> Graph {
        let datasets = self.traces.iter().map(|t| &t.dataset);
        crate::snapshot::served_graph(&self.descriptions, datasets).0
    }

    /// A merged graph of all traces of one system only (no descriptions)
    /// — the input to the Table 2/3 coverage analysis.
    pub fn system_graph(&self, system: System) -> Graph {
        let mut g = Graph::new();
        for t in self.traces_of(system) {
            g.extend_from_graph(&t.union_graph());
        }
        g
    }

    /// Grow the corpus by `extra` new runs — the paper's §6: "we expect
    /// new provenance traces will continue to be added to this corpus".
    ///
    /// New runs are appended round-robin over the templates, continuing
    /// each template's run series (run numbers, epochs and virtual time
    /// advance past the series' end). Existing traces are untouched, so
    /// downstream consumers see a strict superset; the extension itself
    /// is deterministic in the original spec.
    pub fn extend_with_runs(&mut self, extra: usize) {
        use provbench_workflow::execution::fnv1a;
        let mut per_template: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for planned in &self.plan.runs {
            *per_template.entry(planned.template_index).or_default() += 1;
        }
        let last_time = self
            .plan
            .runs
            .iter()
            .map(|r| r.started_at_ms)
            .max()
            .unwrap_or(0);
        let w = self.templates.len();
        for k in 0..extra {
            let ti = k % w;
            let count = per_template.entry(ti).or_default();
            *count += 1;
            let run_number = *count;
            let template = &self.templates[ti].1;
            let planned = crate::spec::PlannedRun {
                template_index: ti,
                system: self.templates[ti].0,
                run_number,
                // New runs happen strictly after the original corpus.
                started_at_ms: last_time + (k as i64 + 1) * 86_400_000 + ti as i64 * 3_600_000,
                seed: self
                    .spec
                    .seed
                    .wrapping_mul(0xfeed_f00d)
                    .wrapping_add(fnv1a(template.name.as_bytes()))
                    .wrapping_add(run_number as u64),
                input_seed: self.spec.seed.wrapping_add(ti as u64),
                environment_epoch: (run_number - 1) as u64,
                failure: None,
                user: crate::spec::USERS[(ti + run_number - 1) % crate::spec::USERS.len()]
                    .to_owned(),
                run_id: format!("{}-run-{}", template.name, run_number),
            };
            let trace = run_one(&self.templates, &planned, self.spec.value_payload);
            self.plan.runs.push(planned);
            self.traces.push(trace);
        }
    }

    /// A stable fingerprint of the corpus content (used by determinism
    /// tests and the reproduce binary).
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        for t in &self.traces {
            acc ^= fnv1a(t.run_id.as_bytes());
            acc = acc.rotate_left(9) ^ (t.dataset.len() as u64);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CorpusSpec {
        CorpusSpec {
            max_workflows: Some(6),
            total_runs: 10,
            failed_runs: 2,
            ..CorpusSpec::default()
        }
    }

    #[test]
    fn small_corpus_generates() {
        let c = Corpus::generate(&small_spec());
        assert_eq!(c.templates.len(), 6);
        assert_eq!(c.traces.len(), 10);
        assert_eq!(c.failed_count(), 2);
        assert_eq!(c.descriptions.len(), 6);
        assert!(c.traces.iter().all(|t| !t.dataset.is_empty()));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&small_spec());
        let b = Corpus::generate(&small_spec());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.traces.len(), b.traces.len());
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn parallel_generation_is_bit_identical() {
        let sequential = Corpus::generate(&small_spec());
        for threads in [2, 4, 7] {
            let parallel = Corpus::generate_with_threads(&small_spec(), threads);
            assert_eq!(parallel.fingerprint(), sequential.fingerprint());
            assert_eq!(parallel.traces, sequential.traces, "threads={threads}");
        }
    }

    #[test]
    fn extension_preserves_existing_traces() {
        let base = Corpus::generate(&small_spec());
        let mut extended = base.clone();
        extended.extend_with_runs(5);
        assert_eq!(extended.traces.len(), base.traces.len() + 5);
        // Prefix unchanged.
        for (a, b) in base.traces.iter().zip(&extended.traces) {
            assert_eq!(a, b);
        }
        // New runs continue the per-template series without id clashes.
        let mut ids: Vec<&str> = extended.traces.iter().map(|t| t.run_id.as_str()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate run ids after extension");
        // New runs are strictly later than the original corpus.
        let last_old = base.traces.iter().map(|t| t.run.started_ms).max().unwrap();
        for t in &extended.traces[base.traces.len()..] {
            assert!(t.run.started_ms > last_old);
        }
        // Extension is deterministic.
        let mut again = base.clone();
        again.extend_with_runs(5);
        assert_eq!(extended.fingerprint(), again.fingerprint());
    }

    #[test]
    fn combined_dataset_has_named_graph_per_trace() {
        let c = Corpus::generate(&small_spec());
        let ds = c.combined_dataset();
        // 6 workflows are all Taverna (catalog starts with Genomics), so
        // every trace contributes one named graph.
        assert_eq!(ds.named_graphs().count(), 10);
        assert!(!ds.default_graph().is_empty()); // descriptions
    }

    #[test]
    fn runs_of_template_ordered() {
        let c = Corpus::generate(&small_spec());
        let name = &c.templates[0].1.name;
        let runs = c.runs_of_template(name);
        assert!(!runs.is_empty());
        assert!(runs.windows(2).all(|w| w[0].run_number < w[1].run_number));
    }

    #[test]
    fn system_graph_merges_traces() {
        let c = Corpus::generate(&small_spec());
        let g = c.system_graph(System::Taverna);
        assert!(!g.is_empty());
        assert!(c.system_graph(System::Wings).is_empty());
    }
}
