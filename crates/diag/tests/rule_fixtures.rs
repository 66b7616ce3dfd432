//! One good/bad fixture pair per rule ID: the bad document must trigger
//! exactly that rule (with a source span), the good twin must not.

use provbench_core::{Corpus, CorpusSpec};
use provbench_diag::rules::profile::{TavernaProfile, WingsProfile};
use provbench_diag::{lint_content, Diagnostic, FileContext, Registry};
use provbench_rdf::SpanTable;

const PREFIXES: &str = "\
@prefix prov:   <http://www.w3.org/ns/prov#> .
@prefix wfprov: <http://purl.org/wf4ever/wfprov#> .
@prefix opmw:   <http://www.opmw.org/ontology/> .
@prefix xsd:    <http://www.w3.org/2001/XMLSchema#> .
@prefix ex:     <http://example.org/> .
";

fn lint(label: &str, body: &str) -> Vec<Diagnostic> {
    let doc = format!("{PREFIXES}\n{body}");
    lint_content(label, &doc, &Registry::with_default_rules())
}

/// The bad fixture fires `id` (with file + span); the good one does not.
#[track_caller]
fn check_pair(id: &str, bad: &str, good: &str) {
    let bad_diags = lint("bad.ttl", bad);
    let hit = bad_diags
        .iter()
        .find(|d| d.rule.id == id)
        .unwrap_or_else(|| panic!("{id} did not fire on the bad fixture; got {bad_diags:#?}"));
    assert_eq!(hit.file.as_deref(), Some("bad.ttl"));
    assert!(
        hit.span.is_some(),
        "{id} diagnostic must carry a line/column span; got {hit:#?}"
    );
    let good_diags = lint("good.ttl", good);
    assert!(
        good_diags.iter().all(|d| d.rule.id != id),
        "{id} fired on the good fixture; got {good_diags:#?}"
    );
}

#[test]
fn pb0001_parse_error() {
    let diags = lint_content(
        "bad.ttl",
        "this is not turtle at all",
        &Registry::with_default_rules(),
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule.id, "PB0001");
    assert!(diags[0].span.is_some());
    assert_eq!(diags[0].file.as_deref(), Some("bad.ttl"));
    assert!(lint("good.ttl", "ex:x a prov:Entity .")
        .iter()
        .all(|d| d.rule.id != "PB0001"));
}

#[test]
fn pb0101_ends_before_start() {
    check_pair(
        "PB0101",
        "ex:a prov:startedAtTime \"2013-01-01T00:00:10Z\"^^xsd:dateTime ;
              prov:endedAtTime \"2013-01-01T00:00:00Z\"^^xsd:dateTime .",
        "ex:a prov:startedAtTime \"2013-01-01T00:00:00Z\"^^xsd:dateTime ;
              prov:endedAtTime \"2013-01-01T00:00:10Z\"^^xsd:dateTime .",
    );
}

#[test]
fn pb0102_usage_before_generation() {
    // The user activity ended before the generating activity started.
    check_pair(
        "PB0102",
        "ex:user prov:startedAtTime \"2013-01-01T00:00:00Z\"^^xsd:dateTime ;
                 prov:endedAtTime \"2013-01-01T00:01:00Z\"^^xsd:dateTime ;
                 prov:used ex:d .
         ex:gen prov:startedAtTime \"2013-01-01T01:00:00Z\"^^xsd:dateTime ;
                prov:endedAtTime \"2013-01-01T01:01:00Z\"^^xsd:dateTime .
         ex:d prov:wasGeneratedBy ex:gen .",
        "ex:user prov:startedAtTime \"2013-01-01T02:00:00Z\"^^xsd:dateTime ;
                 prov:endedAtTime \"2013-01-01T02:01:00Z\"^^xsd:dateTime ;
                 prov:used ex:d .
         ex:gen prov:startedAtTime \"2013-01-01T01:00:00Z\"^^xsd:dateTime ;
                prov:endedAtTime \"2013-01-01T01:01:00Z\"^^xsd:dateTime .
         ex:d prov:wasGeneratedBy ex:gen .",
    );
}

#[test]
fn pb0103_multiple_generation() {
    check_pair(
        "PB0103",
        "ex:d prov:wasGeneratedBy ex:a1 , ex:a2 .",
        "ex:d prov:wasGeneratedBy ex:a1 .",
    );
}

#[test]
fn pb0104_derivation_cycle() {
    let bad = "ex:a prov:wasDerivedFrom ex:b .
               ex:b prov:wasDerivedFrom ex:c .
               ex:c prov:wasDerivedFrom ex:a .";
    check_pair(
        "PB0104",
        bad,
        "ex:a prov:wasDerivedFrom ex:b .
         ex:b prov:wasDerivedFrom ex:c .",
    );
    // A purely derivational cycle belongs to PB0104, not PB0107.
    assert!(lint("bad.ttl", bad).iter().all(|d| d.rule.id != "PB0107"));
}

#[test]
fn pb0105_self_derivation() {
    check_pair(
        "PB0105",
        "ex:d prov:wasDerivedFrom ex:d .",
        "ex:d prov:wasDerivedFrom ex:s .",
    );
}

#[test]
fn pb0106_self_communication() {
    check_pair(
        "PB0106",
        "ex:a prov:wasInformedBy ex:a .",
        "ex:a prov:wasInformedBy ex:b .",
    );
}

#[test]
fn pb0107_event_ordering_cycle() {
    // gen(d) ≤ start(a) ≤ gen(s) < gen(d): impossible, yet derivation-
    // acyclic — only the event network sees it.
    let bad = "ex:a prov:wasStartedBy ex:d .
               ex:s prov:wasGeneratedBy ex:a .
               ex:d prov:wasDerivedFrom ex:s .";
    check_pair(
        "PB0107",
        bad,
        "ex:a prov:wasStartedBy ex:s .
         ex:s2 prov:wasGeneratedBy ex:a .
         ex:d prov:wasDerivedFrom ex:s .",
    );
    // And it is not misreported as a derivation cycle.
    assert!(lint("bad.ttl", bad).iter().all(|d| d.rule.id != "PB0104"));
}

#[test]
fn pb0108_entity_activity_disjoint() {
    check_pair(
        "PB0108",
        "ex:x a prov:Entity , prov:Activity .",
        "ex:x a prov:Entity .
         ex:y a prov:Activity .",
    );
}

/// A fully profile-conformant Taverna process run, as a reusable body.
const TAVERNA_CLEAN: &str = "\
ex:workflow-run a wfprov:WorkflowRun ;
    wfprov:describedByWorkflow ex:workflow .
ex:proc a wfprov:ProcessRun ;
    wfprov:wasPartOfWorkflowRun ex:workflow-run ;
    wfprov:describedByProcess ex:workflow-proc ;
    prov:startedAtTime \"2013-01-01T00:00:00Z\"^^xsd:dateTime ;
    prov:endedAtTime \"2013-01-01T00:00:10Z\"^^xsd:dateTime .
ex:art a wfprov:Artifact ;
    prov:value \"42\" .
";

#[test]
fn pb0201_taverna_process_run_parent() {
    check_pair(
        "PB0201",
        "ex:orphan a wfprov:ProcessRun ;
             wfprov:describedByProcess ex:workflow-proc ;
             prov:startedAtTime \"2013-01-01T00:00:00Z\"^^xsd:dateTime ;
             prov:endedAtTime \"2013-01-01T00:00:10Z\"^^xsd:dateTime .",
        TAVERNA_CLEAN,
    );
}

#[test]
fn pb0202_taverna_process_run_times() {
    check_pair(
        "PB0202",
        "ex:workflow-run a wfprov:WorkflowRun ;
             wfprov:describedByWorkflow ex:workflow .
         ex:proc a wfprov:ProcessRun ;
             wfprov:wasPartOfWorkflowRun ex:workflow-run ;
             wfprov:describedByProcess ex:workflow-proc .",
        TAVERNA_CLEAN,
    );
}

#[test]
fn pb0203_taverna_process_run_description() {
    check_pair(
        "PB0203",
        "ex:workflow-run a wfprov:WorkflowRun ;
             wfprov:describedByWorkflow ex:workflow .
         ex:proc a wfprov:ProcessRun ;
             wfprov:wasPartOfWorkflowRun ex:workflow-run ;
             prov:startedAtTime \"2013-01-01T00:00:00Z\"^^xsd:dateTime ;
             prov:endedAtTime \"2013-01-01T00:00:10Z\"^^xsd:dateTime .",
        TAVERNA_CLEAN,
    );
}

#[test]
fn pb0204_taverna_run_description() {
    check_pair(
        "PB0204",
        "ex:workflow-run a wfprov:WorkflowRun .",
        TAVERNA_CLEAN,
    );
}

#[test]
fn pb0205_taverna_artifact_value() {
    check_pair("PB0205", "ex:art a wfprov:Artifact .", TAVERNA_CLEAN);
}

#[test]
fn pb0206_taverna_profile_purity() {
    check_pair(
        "PB0206",
        "ex:art a wfprov:Artifact ;
             prov:value \"42\" ;
             prov:wasAttributedTo ex:agent .",
        TAVERNA_CLEAN,
    );
}

/// A fully profile-conformant Wings execution, as a reusable body.
const WINGS_CLEAN: &str = "\
ex:account a opmw:WorkflowExecutionAccount .
ex:proc a opmw:WorkflowExecutionProcess ;
    opmw:belongsToAccount ex:account ;
    opmw:hasExecutableComponent ex:component ;
    opmw:hasStatus \"SUCCESS\" .
ex:art a opmw:WorkflowExecutionArtifact ;
    opmw:belongsToAccount ex:account ;
    prov:atLocation \"file:///data/a.txt\" .
";

#[test]
fn pb0301_wings_process_account() {
    check_pair(
        "PB0301",
        "ex:proc a opmw:WorkflowExecutionProcess ;
             opmw:hasExecutableComponent ex:component ;
             opmw:hasStatus \"SUCCESS\" .",
        WINGS_CLEAN,
    );
}

#[test]
fn pb0302_wings_process_component() {
    check_pair(
        "PB0302",
        "ex:proc a opmw:WorkflowExecutionProcess ;
             opmw:belongsToAccount ex:account ;
             opmw:hasStatus \"SUCCESS\" .",
        WINGS_CLEAN,
    );
}

#[test]
fn pb0303_wings_process_status() {
    check_pair(
        "PB0303",
        "ex:proc a opmw:WorkflowExecutionProcess ;
             opmw:belongsToAccount ex:account ;
             opmw:hasExecutableComponent ex:component .",
        WINGS_CLEAN,
    );
}

#[test]
fn pb0304_wings_artifact_location() {
    check_pair(
        "PB0304",
        "ex:art a opmw:WorkflowExecutionArtifact ;
             opmw:belongsToAccount ex:account .",
        WINGS_CLEAN,
    );
}

#[test]
fn pb0305_wings_artifact_account() {
    check_pair(
        "PB0305",
        "ex:art a opmw:WorkflowExecutionArtifact ;
             prov:atLocation \"file:///data/a.txt\" .",
        WINGS_CLEAN,
    );
}

#[test]
fn pb0306_wings_profile_purity() {
    check_pair(
        "PB0306",
        "ex:proc a opmw:WorkflowExecutionProcess ;
             opmw:belongsToAccount ex:account ;
             opmw:hasExecutableComponent ex:component ;
             opmw:hasStatus \"SUCCESS\" ;
             prov:startedAtTime \"2013-01-01T00:00:00Z\"^^xsd:dateTime .",
        WINGS_CLEAN,
    );
}

#[test]
fn pb0401_unknown_term() {
    check_pair(
        "PB0401",
        "ex:proc wfprov:describedByParrot ex:x .",
        "ex:proc wfprov:describedByProcess ex:x .",
    );
}

#[test]
fn pb0402_cross_profile_term() {
    // A clearly-Taverna file that also slips in one OPMW property.
    let bad = format!("{TAVERNA_CLEAN}\nex:proc opmw:hasStatus \"SUCCESS\" .");
    check_pair("PB0402", &bad, TAVERNA_CLEAN);
}

#[test]
fn pb0403_outside_inventory() {
    check_pair(
        "PB0403",
        "ex:old prov:wasInvalidatedBy ex:cleanup .",
        "ex:out prov:wasGeneratedBy ex:proc .",
    );
}

#[test]
fn clean_fixtures_are_fully_clean() {
    for (label, body) in [("taverna.ttl", TAVERNA_CLEAN), ("wings.ttl", WINGS_CLEAN)] {
        let diags = lint(label, body);
        assert!(diags.is_empty(), "{label} expected clean, got {diags:#?}");
    }
}

/// Every generated trace follows its own system's profile: the profile
/// packs, run over each trace's union graph with its known system, find
/// nothing.
#[test]
fn generated_traces_are_profile_clean() {
    let corpus = Corpus::generate(&CorpusSpec {
        max_workflows: Some(70),
        total_runs: 80,
        failed_runs: 5,
        ..CorpusSpec::default()
    });
    let mut profiles = Registry::new();
    profiles.register(Box::new(TavernaProfile));
    profiles.register(Box::new(WingsProfile));
    let spans = SpanTable::default();
    for trace in &corpus.traces {
        let graph = trace.union_graph();
        let cx = FileContext {
            path: None,
            graph: &graph,
            spans: &spans,
            system: Some(trace.system),
        };
        let diags = profiles.check(&cx);
        assert!(diags.is_empty(), "{}: {diags:#?}", trace.run_id);
    }
}

#[test]
fn diagnostics_are_ordered_and_stable() {
    let body = "ex:d prov:wasDerivedFrom ex:d .
                ex:a prov:wasInformedBy ex:a .";
    let a = lint("a.ttl", body);
    let b = lint("a.ttl", body);
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort_by_key(|d| d.sort_key());
    assert_eq!(a, sorted, "registry output must already be sorted");
}
