//! Fluent construction of PROV [`Document`]s.

use crate::model::{Activity, Agent, AgentKind, Document, Entity, Relation};
use provbench_rdf::{DateTime, Iri, Literal, Term};

/// Builds a [`Document`], minting identifiers under a base IRI.
#[derive(Clone, Debug)]
pub struct DocumentBuilder {
    base: String,
    doc: Document,
}

impl DocumentBuilder {
    /// A builder minting identifiers under `base` (e.g.
    /// `http://example.org/taverna/run/17/`).
    pub fn new(base: impl Into<String>) -> Self {
        DocumentBuilder {
            base: base.into(),
            doc: Document::new(),
        }
    }

    /// Mint an identifier `base + local`.
    pub fn mint(&self, local: &str) -> Iri {
        Iri::new_unchecked(format!("{}{}", self.base, local))
    }

    /// Declare an entity with a minted id; returns a node builder.
    pub fn entity(&mut self, local: &str) -> EntityBuilder<'_> {
        let id = self.mint(local);
        self.entity_iri(id)
    }

    /// Declare an entity with an explicit id.
    pub fn entity_iri(&mut self, id: Iri) -> EntityBuilder<'_> {
        self.doc
            .entities
            .entry(id.clone())
            .or_insert_with(|| Entity::new(id.clone()));
        EntityBuilder {
            doc: &mut self.doc,
            id,
        }
    }

    /// Declare an activity with a minted id.
    pub fn activity(&mut self, local: &str) -> ActivityBuilder<'_> {
        let id = self.mint(local);
        self.activity_iri(id)
    }

    /// Declare an activity with an explicit id.
    pub fn activity_iri(&mut self, id: Iri) -> ActivityBuilder<'_> {
        self.doc
            .activities
            .entry(id.clone())
            .or_insert_with(|| Activity::new(id.clone()));
        ActivityBuilder {
            doc: &mut self.doc,
            id,
        }
    }

    /// Declare an agent with a minted id.
    pub fn agent(&mut self, local: &str, kind: AgentKind) -> AgentBuilder<'_> {
        let id = self.mint(local);
        self.agent_iri(id, kind)
    }

    /// Declare an agent with an explicit id.
    pub fn agent_iri(&mut self, id: Iri, kind: AgentKind) -> AgentBuilder<'_> {
        self.doc
            .agents
            .entry(id.clone())
            .or_insert_with(|| Agent::new(id.clone(), kind));
        AgentBuilder {
            doc: &mut self.doc,
            id,
        }
    }

    /// `activity prov:used entity`.
    pub fn used(&mut self, activity: &Iri, entity: &Iri, time: Option<DateTime>) {
        self.doc.add_relation(Relation::Used {
            activity: activity.clone(),
            entity: entity.clone(),
            time,
        });
    }

    /// `entity prov:wasGeneratedBy activity`.
    pub fn generated(&mut self, entity: &Iri, activity: &Iri, time: Option<DateTime>) {
        self.doc.add_relation(Relation::WasGeneratedBy {
            entity: entity.clone(),
            activity: activity.clone(),
            time,
        });
    }

    /// `activity prov:wasAssociatedWith agent` (with optional plan).
    pub fn associated(&mut self, activity: &Iri, agent: &Iri, plan: Option<&Iri>) {
        self.doc.add_relation(Relation::WasAssociatedWith {
            activity: activity.clone(),
            agent: agent.clone(),
            plan: plan.cloned(),
        });
    }

    /// `entity prov:wasAttributedTo agent`.
    pub fn attributed(&mut self, entity: &Iri, agent: &Iri) {
        self.doc.add_relation(Relation::WasAttributedTo {
            entity: entity.clone(),
            agent: agent.clone(),
        });
    }

    /// `generated prov:wasDerivedFrom used`.
    pub fn derived(&mut self, generated: &Iri, used: &Iri) {
        self.doc.add_relation(Relation::WasDerivedFrom {
            generated: generated.clone(),
            used: used.clone(),
        });
    }

    /// `derived prov:hadPrimarySource source`.
    pub fn primary_source(&mut self, derived: &Iri, source: &Iri) {
        self.doc.add_relation(Relation::HadPrimarySource {
            derived: derived.clone(),
            source: source.clone(),
        });
    }

    /// `informed prov:wasInformedBy informant`.
    pub fn informed(&mut self, informed: &Iri, informant: &Iri) {
        self.doc.add_relation(Relation::WasInformedBy {
            informed: informed.clone(),
            informant: informant.clone(),
        });
    }

    /// `influencee prov:wasInfluencedBy influencer`.
    pub fn influenced(&mut self, influencee: &Iri, influencer: &Iri) {
        self.doc.add_relation(Relation::WasInfluencedBy {
            influencee: influencee.clone(),
            influencer: influencer.clone(),
        });
    }

    /// An extension-vocabulary relation.
    pub fn other(&mut self, subject: &Iri, predicate: Iri, object: impl Into<Term>) {
        self.doc.add_relation(Relation::Other {
            subject: subject.clone(),
            predicate,
            object: object.into(),
        });
    }

    /// Append an already-constructed relation.
    pub fn relation(&mut self, relation: Relation) {
        self.doc.add_relation(relation);
    }

    /// Attach a named bundle.
    pub fn bundle(&mut self, id: Iri, contents: Document) {
        self.doc.bundles.push((id, contents));
    }

    /// Finish and return the document.
    pub fn build(self) -> Document {
        self.doc
    }

    /// Peek at the document under construction.
    pub fn document(&self) -> &Document {
        &self.doc
    }
}

/// Node builder for entities.
pub struct EntityBuilder<'a> {
    doc: &'a mut Document,
    id: Iri,
}

impl EntityBuilder<'_> {
    fn node(&mut self) -> &mut Entity {
        self.doc
            .entities
            .get_mut(&self.id)
            .expect("entity inserted at builder creation")
    }

    /// Add an extra `rdf:type`.
    pub fn typed(mut self, ty: Iri) -> Self {
        let node = self.node();
        if !node.types.contains(&ty) {
            node.types.push(ty);
        }
        self
    }

    /// Set the `rdfs:label`.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.node().label = Some(label.into());
        self
    }

    /// Set the inline `prov:value`.
    pub fn value(mut self, value: Literal) -> Self {
        self.node().value = Some(value);
        self
    }

    /// Set `prov:atLocation`.
    pub fn location(mut self, location: Iri) -> Self {
        self.node().location = Some(location);
        self
    }

    /// Set `prov:generatedAtTime`.
    pub fn generated_at(mut self, at: DateTime) -> Self {
        self.node().generated_at = Some(at);
        self
    }

    /// Attach an arbitrary attribute.
    pub fn attribute(mut self, predicate: Iri, object: impl Into<Term>) -> Self {
        self.node().attributes.push((predicate, object.into()));
        self
    }

    /// The entity's identifier.
    pub fn id(self) -> Iri {
        self.id
    }
}

/// Node builder for activities.
pub struct ActivityBuilder<'a> {
    doc: &'a mut Document,
    id: Iri,
}

impl ActivityBuilder<'_> {
    fn node(&mut self) -> &mut Activity {
        self.doc
            .activities
            .get_mut(&self.id)
            .expect("activity inserted at builder creation")
    }

    /// Add an extra `rdf:type`.
    pub fn typed(mut self, ty: Iri) -> Self {
        let node = self.node();
        if !node.types.contains(&ty) {
            node.types.push(ty);
        }
        self
    }

    /// Set the `rdfs:label`.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.node().label = Some(label.into());
        self
    }

    /// Set `prov:startedAtTime`.
    pub fn started(mut self, at: DateTime) -> Self {
        self.node().started = Some(at);
        self
    }

    /// Set `prov:endedAtTime`.
    pub fn ended(mut self, at: DateTime) -> Self {
        self.node().ended = Some(at);
        self
    }

    /// Set `prov:atLocation`.
    pub fn location(mut self, location: Iri) -> Self {
        self.node().location = Some(location);
        self
    }

    /// Attach an arbitrary attribute.
    pub fn attribute(mut self, predicate: Iri, object: impl Into<Term>) -> Self {
        self.node().attributes.push((predicate, object.into()));
        self
    }

    /// The activity's identifier.
    pub fn id(self) -> Iri {
        self.id
    }
}

/// Node builder for agents.
pub struct AgentBuilder<'a> {
    doc: &'a mut Document,
    id: Iri,
}

impl AgentBuilder<'_> {
    fn node(&mut self) -> &mut Agent {
        self.doc
            .agents
            .get_mut(&self.id)
            .expect("agent inserted at builder creation")
    }

    /// Add an extra `rdf:type`.
    pub fn typed(mut self, ty: Iri) -> Self {
        let node = self.node();
        if !node.types.contains(&ty) {
            node.types.push(ty);
        }
        self
    }

    /// Set the `foaf:name`.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.node().name = Some(name.into());
        self
    }

    /// Attach an arbitrary attribute.
    pub fn attribute(mut self, predicate: Iri, object: impl Into<Term>) -> Self {
        self.node().attributes.push((predicate, object.into()));
        self
    }

    /// The agent's identifier.
    pub fn id(self) -> Iri {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provbench_vocab as vocab;

    #[test]
    fn builds_a_complete_run_document() {
        let mut b = DocumentBuilder::new("http://example.org/run/1/");
        let input = b.entity("input").label("raw reads").id();
        let output = b
            .entity("output")
            .typed(vocab::wfprov::artifact())
            .value(Literal::simple("42"))
            .id();
        let act = b
            .activity("align")
            .started(DateTime::from_unix_millis(0))
            .ended(DateTime::from_unix_millis(5_000))
            .id();
        let engine = b.agent("engine", AgentKind::Software).name("taverna").id();
        b.used(&act, &input, None);
        b.generated(&output, &act, Some(DateTime::from_unix_millis(5_000)));
        b.associated(&act, &engine, None);
        let doc = b.build();
        assert_eq!(doc.entities.len(), 2);
        assert_eq!(doc.activities.len(), 1);
        assert_eq!(doc.agents.len(), 1);
        assert_eq!(doc.relations.len(), 3);
        assert!(doc.undeclared_references().is_empty());
    }

    #[test]
    fn minting_respects_base() {
        let b = DocumentBuilder::new("urn:run:");
        assert_eq!(b.mint("x").as_str(), "urn:run:x");
    }

    #[test]
    fn redeclaration_preserves_existing_node() {
        let mut b = DocumentBuilder::new("http://e/");
        b.entity("d").label("first");
        let id = b.entity("d").id(); // re-entry must not wipe the label
        let doc = b.build();
        assert_eq!(doc.entities[&id].label.as_deref(), Some("first"));
    }

    #[test]
    fn typed_deduplicates() {
        let mut b = DocumentBuilder::new("http://e/");
        let id = b
            .entity("d")
            .typed(vocab::wfprov::artifact())
            .typed(vocab::wfprov::artifact())
            .id();
        assert_eq!(b.document().entities[&id].types.len(), 1);
    }

    #[test]
    fn bundles_attach() {
        let mut inner = DocumentBuilder::new("http://e/inner/");
        inner.entity("x");
        let mut outer = DocumentBuilder::new("http://e/");
        let bundle_id = outer.mint("bundle1");
        outer.bundle(bundle_id.clone(), inner.build());
        let doc = outer.build();
        assert_eq!(doc.bundles.len(), 1);
        assert_eq!(doc.bundles[0].0, bundle_id);
        assert_eq!(doc.bundles[0].1.entities.len(), 1);
    }
}
