//! ICT infrastructure model: typed construction of the class and object
//! diagrams (methodology Steps 1 and 2).
//!
//! Step 1 (paper Sec. V-B): identify ICT components and create the
//! respective UML classes, applying the availability and network profiles.
//! Step 2: model the deployed topology as an object diagram of instances
//! and links. [`Infrastructure`] owns both diagrams and offers a builder
//! API so generators and user code cannot produce ill-formed models.

use crate::error::{UpsimError, UpsimResult};
use crate::profiles::{availability_profile, network_profile};
use ict_graph::{Graph, NodeId};
use std::collections::HashMap;
use std::sync::Arc;
use uml::class_diagram::{Association, Class, ClassDiagram};
use uml::object_diagram::{InstanceSpecification, Link, ObjectDiagram};
use uml::profile::Profile;
use uml::value::Value;

/// The concrete network-profile stereotype of a device class (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A router.
    Router,
    /// A switch.
    Switch,
    /// A printer.
    Printer,
    /// A client computer.
    Client,
    /// A server computer.
    Server,
}

impl DeviceKind {
    /// The network-profile stereotype name.
    pub fn stereotype(self) -> &'static str {
        match self {
            DeviceKind::Router => "Router",
            DeviceKind::Switch => "Switch",
            DeviceKind::Printer => "Printer",
            DeviceKind::Client => "Client",
            DeviceKind::Server => "Server",
        }
    }
}

/// Specification of a device class (one row of paper Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceClassSpec {
    /// Class name (e.g. `C6500`).
    pub name: String,
    /// Network-profile kind.
    pub kind: DeviceKind,
    /// Mean time between failures, hours.
    pub mtbf: f64,
    /// Mean time to repair, hours.
    pub mttr: f64,
    /// Number of redundant components.
    pub redundant: i64,
    /// Manufacturer (network profile), optional.
    pub manufacturer: Option<String>,
    /// Model designation (network profile), optional.
    pub model: Option<String>,
    /// Processor (computers only), optional.
    pub processor: Option<String>,
}

impl DeviceClassSpec {
    /// Generic constructor.
    pub fn new(name: impl Into<String>, kind: DeviceKind, mtbf: f64, mttr: f64) -> Self {
        DeviceClassSpec {
            name: name.into(),
            kind,
            mtbf,
            mttr,
            redundant: 0,
            manufacturer: None,
            model: None,
            processor: None,
        }
    }

    /// A client computer class.
    pub fn client(name: impl Into<String>, mtbf: f64, mttr: f64) -> Self {
        Self::new(name, DeviceKind::Client, mtbf, mttr)
    }

    /// A server class.
    pub fn server(name: impl Into<String>, mtbf: f64, mttr: f64) -> Self {
        Self::new(name, DeviceKind::Server, mtbf, mttr)
    }

    /// A switch class.
    pub fn switch(name: impl Into<String>, mtbf: f64, mttr: f64) -> Self {
        Self::new(name, DeviceKind::Switch, mtbf, mttr)
    }

    /// A router class.
    pub fn router(name: impl Into<String>, mtbf: f64, mttr: f64) -> Self {
        Self::new(name, DeviceKind::Router, mtbf, mttr)
    }

    /// A printer class.
    pub fn printer(name: impl Into<String>, mtbf: f64, mttr: f64) -> Self {
        Self::new(name, DeviceKind::Printer, mtbf, mttr)
    }

    /// Builder: sets `redundantComponents`.
    pub fn with_redundant(mut self, n: i64) -> Self {
        self.redundant = n;
        self
    }

    /// Builder: sets the manufacturer.
    pub fn with_manufacturer(mut self, m: impl Into<String>) -> Self {
        self.manufacturer = Some(m.into());
        self
    }

    /// Builder: sets the model designation.
    pub fn with_model(mut self, m: impl Into<String>) -> Self {
        self.model = Some(m.into());
        self
    }
}

/// Specification of a link (connector) class — attributes applied to the
/// auto-created associations.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkClassSpec {
    /// Mean time between failures, hours.
    pub mtbf: f64,
    /// Mean time to repair, hours.
    pub mttr: f64,
    /// Number of redundant components.
    pub redundant: i64,
    /// Communication channel (network profile).
    pub channel: String,
    /// Throughput in Mbit/s (network profile).
    pub throughput: f64,
}

impl Default for LinkClassSpec {
    /// The `Cat5e` reconstruction documented in DESIGN.md §4.3: structured
    /// copper cabling with MTBF 500 000 h, MTTR 0.5 h, 1 Gbit/s.
    fn default() -> Self {
        LinkClassSpec {
            mtbf: 500_000.0,
            mttr: 0.5,
            redundant: 0,
            channel: "copper".to_string(),
            throughput: 1000.0,
        }
    }
}

/// An ICT infrastructure: class diagram + object diagram + the profiles
/// applied to them.
///
/// The class-side state — profiles, class diagram, kind table — is held
/// behind `Arc`s with copy-on-write mutation, so cloning an
/// infrastructure (campaign scenario overlays, snapshot generations)
/// shares everything but the object diagram: a topology-only edit like a
/// link cut pays for the instances and links, never for the classes.
#[derive(Debug, Clone)]
pub struct Infrastructure {
    /// Infrastructure name.
    pub name: String,
    /// The availability profile (Fig. 6).
    availability: Arc<Profile>,
    /// The network profile (Fig. 7).
    network: Arc<Profile>,
    /// The class diagram (Step 1 output; Fig. 8 for the case study).
    pub classes: Arc<ClassDiagram>,
    /// The object diagram (Step 2 output; Fig. 9 for the case study).
    pub objects: ObjectDiagram,
    /// Attributes applied to auto-created associations.
    default_link: LinkClassSpec,
    /// Kind per class, for census and lookups.
    kinds: Arc<HashMap<String, DeviceKind>>,
}

impl Infrastructure {
    /// Creates an empty infrastructure.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Infrastructure {
            classes: Arc::new(ClassDiagram::new(format!("{name}-classes"))),
            objects: ObjectDiagram::new(format!("{name}-topology")),
            availability: Arc::new(availability_profile()),
            network: Arc::new(network_profile()),
            default_link: LinkClassSpec::default(),
            kinds: Arc::new(HashMap::new()),
            name,
        }
    }

    /// The availability profile in use.
    pub fn availability_profile(&self) -> &Profile {
        &self.availability
    }

    /// The network profile in use.
    pub fn network_profile(&self) -> &Profile {
        &self.network
    }

    /// Sets the connector attributes used for subsequently auto-created
    /// associations.
    pub fn set_default_link(&mut self, spec: LinkClassSpec) {
        self.default_link = spec;
    }

    /// Step 1: defines a device class with both profiles applied
    /// (`Component;<kind>` in the paper's Fig. 8 notation).
    pub fn define_device_class(&mut self, spec: DeviceClassSpec) -> UpsimResult<()> {
        let classes = Arc::make_mut(&mut self.classes);
        classes.add_class(Class::new(&spec.name))?;
        classes.apply_to_class(
            &self.availability,
            &spec.name,
            "Device",
            &[
                ("MTBF".into(), Value::Real(spec.mtbf)),
                ("MTTR".into(), Value::Real(spec.mttr)),
                ("redundantComponents".into(), Value::Integer(spec.redundant)),
            ],
        )?;
        let mut net_values: Vec<(String, Value)> = Vec::new();
        if let Some(m) = &spec.manufacturer {
            net_values.push(("manufacturer".into(), Value::from(m.clone())));
        }
        if let Some(m) = &spec.model {
            net_values.push(("model".into(), Value::from(m.clone())));
        }
        if matches!(spec.kind, DeviceKind::Client | DeviceKind::Server) {
            if let Some(p) = &spec.processor {
                net_values.push(("processor".into(), Value::from(p.clone())));
            }
        }
        classes.apply_to_class(
            &self.network,
            &spec.name,
            spec.kind.stereotype(),
            &net_values,
        )?;
        Arc::make_mut(&mut self.kinds).insert(spec.name.clone(), spec.kind);
        Ok(())
    }

    /// Step 2: deploys an instance of a previously defined class.
    pub fn add_device(&mut self, instance: impl Into<String>, class: &str) -> UpsimResult<()> {
        let instance = instance.into();
        if self.classes.class(class).is_none() {
            return Err(uml::ModelError::UnknownElement {
                kind: "class",
                name: class.to_string(),
            }
            .into());
        }
        self.objects
            .add_instance(InstanceSpecification::new(instance, class))?;
        Ok(())
    }

    /// Step 2: connects two deployed instances. The association between
    /// their classes is auto-created on first use (stereotyped
    /// `Connector` + `Communication` with the current default link
    /// attributes); the link instantiates it.
    pub fn connect(&mut self, a: &str, b: &str) -> UpsimResult<()> {
        let class_a = self.class_of(a)?.to_string();
        let class_b = self.class_of(b)?.to_string();
        let assoc_name = match self
            .classes
            .associations_between(&class_a, &class_b)
            .first()
        {
            Some(assoc) => assoc.name.clone(),
            None => {
                let name = format!("{class_a}--{class_b}");
                let classes = Arc::make_mut(&mut self.classes);
                classes.add_association(Association::new(&name, &class_a, &class_b))?;
                classes.apply_to_association(
                    &self.availability,
                    &name,
                    "Connector",
                    &[
                        ("MTBF".into(), Value::Real(self.default_link.mtbf)),
                        ("MTTR".into(), Value::Real(self.default_link.mttr)),
                        (
                            "redundantComponents".into(),
                            Value::Integer(self.default_link.redundant),
                        ),
                    ],
                )?;
                classes.apply_to_association(
                    &self.network,
                    &name,
                    "Communication",
                    &[
                        (
                            "channel".into(),
                            Value::from(self.default_link.channel.clone()),
                        ),
                        (
                            "throughput".into(),
                            Value::Real(self.default_link.throughput),
                        ),
                    ],
                )?;
                name
            }
        };
        self.objects.add_link(Link::new(assoc_name, a, b))?;
        Ok(())
    }

    /// Dynamicity: removes a device and all its links (component failure or
    /// decommissioning — paper Sec. V-A3 "network topology changes").
    pub fn remove_device(&mut self, instance: &str) -> UpsimResult<()> {
        if self.objects.instance(instance).is_none() {
            return Err(uml::ModelError::UnknownElement {
                kind: "instance",
                name: instance.to_string(),
            }
            .into());
        }
        self.objects
            .links
            .retain(|l| l.end_a != instance && l.end_b != instance);
        self.objects.instances.retain(|i| i.name != instance);
        Ok(())
    }

    /// Dynamicity: removes the (first) link between two instances.
    pub fn disconnect(&mut self, a: &str, b: &str) -> UpsimResult<bool> {
        match self.link_between(a, b) {
            Some(i) => {
                self.objects.links.remove(i);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// `true` if at least one link joins the two instances (either
    /// direction).
    pub fn linked(&self, a: &str, b: &str) -> bool {
        self.link_between(a, b).is_some()
    }

    fn link_between(&self, a: &str, b: &str) -> Option<usize> {
        self.objects
            .links
            .iter()
            .position(|l| (l.end_a == a && l.end_b == b) || (l.end_a == b && l.end_b == a))
    }

    /// The class name of a deployed instance.
    pub fn class_of(&self, instance: &str) -> UpsimResult<&str> {
        self.objects
            .instance(instance)
            .map(|i| i.class.as_str())
            .ok_or_else(|| {
                UpsimError::Model(uml::ModelError::UnknownElement {
                    kind: "instance",
                    name: instance.to_string(),
                })
            })
    }

    /// `true` if the instance exists.
    pub fn has_device(&self, instance: &str) -> bool {
        self.objects.instance(instance).is_some()
    }

    /// The network-profile kind of an instance.
    pub fn kind_of(&self, instance: &str) -> UpsimResult<DeviceKind> {
        let class = self.class_of(instance)?;
        self.kinds.get(class).copied().ok_or_else(|| {
            UpsimError::Model(uml::ModelError::UnknownElement {
                kind: "device class",
                name: class.to_string(),
            })
        })
    }

    /// Resolves a dependability attribute of an instance through its class
    /// (static attributes, paper Sec. V-A1).
    pub fn device_attr(&self, instance: &str, attribute: &str) -> Option<f64> {
        let inst = self.objects.instance(instance)?;
        self.classes.class(&inst.class)?.value(attribute)?.as_real()
    }

    /// MTBF of an instance (hours).
    pub fn mtbf(&self, instance: &str) -> Option<f64> {
        self.device_attr(instance, "MTBF")
    }

    /// MTTR of an instance (hours).
    pub fn mttr(&self, instance: &str) -> Option<f64> {
        self.device_attr(instance, "MTTR")
    }

    /// `redundantComponents` of an instance.
    pub fn redundant_components(&self, instance: &str) -> Option<i64> {
        let inst = self.objects.instance(instance)?;
        self.classes
            .class(&inst.class)?
            .value("redundantComponents")?
            .as_integer()
    }

    /// MTBF/MTTR of the association behind a link index.
    pub fn link_attr(&self, link_index: usize, attribute: &str) -> Option<f64> {
        let link = self.objects.links.get(link_index)?;
        self.classes
            .association(&link.association)?
            .value(attribute)?
            .as_real()
    }

    /// Number of deployed devices.
    pub fn device_count(&self) -> usize {
        self.objects.instances.len()
    }

    /// Number of deployed links.
    pub fn link_count(&self) -> usize {
        self.objects.links.len()
    }

    /// Census: instance count per class name, sorted by class name.
    pub fn census(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for inst in &self.objects.instances {
            *counts.entry(inst.class.as_str()).or_default() += 1;
        }
        let mut out: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        out.sort();
        out
    }

    /// Validates the object diagram against the class diagram, and every
    /// name against the rules of the model space that Step 5 imports into
    /// (checked here so a pipeline that skips the space rejects the same
    /// models): devices, classes and associations become entities named
    /// with `.` replaced by `_`, so their names must be nonempty and stay
    /// distinct after that rewrite — classes and associations share one
    /// namespace — and class attribute names must be nonempty.
    pub fn validate(&self) -> UpsimResult<()> {
        self.objects.validate(&self.classes)?;
        let classes = self.classes.classes.iter().map(|c| ("class", &c.name));
        let associations = self
            .classes
            .associations
            .iter()
            .map(|a| ("association", &a.name));
        check_entity_names(crate::importers::CLASS_NS, classes.chain(associations))?;
        let devices = self.objects.instances.iter().map(|i| ("device", &i.name));
        check_entity_names(crate::importers::TOPOLOGY_NS, devices)?;
        for class in self.classes.classes.iter() {
            let applied = class.applied.iter().flat_map(|app| &app.values);
            if class
                .attributes
                .iter()
                .chain(applied)
                .any(|(name, _)| name.is_empty())
            {
                return Err(model_space_name(format!(
                    "class '{}' has an attribute with an empty name",
                    class.name
                )));
            }
        }
        Ok(())
    }

    /// Serializes the infrastructure (class + object diagram) as one XML
    /// document — the on-disk interchange format of the `upsim` CLI.
    pub fn to_xml(&self) -> String {
        let classes = xmlio::parse(&uml::xmi::class_diagram_to_xml(&self.classes))
            .expect("self-produced XML parses");
        let objects = xmlio::parse(&uml::xmi::object_diagram_to_xml(&self.objects))
            .expect("self-produced XML parses");
        let root = xmlio::Element::new("infrastructure")
            .with_attr("name", &self.name)
            .with_child(classes.root)
            .with_child(objects.root);
        xmlio::to_string_pretty(&xmlio::Document::new(root))
    }

    /// Parses an infrastructure from the [`Infrastructure::to_xml`] format,
    /// re-validating the object diagram against the class diagram and
    /// re-deriving the device kinds from the network-profile stereotypes.
    pub fn from_xml(xml: &str) -> UpsimResult<Self> {
        let doc = xmlio::parse(xml)?;
        if doc.root.name != "infrastructure" {
            return Err(uml::ModelError::Serialization(format!(
                "expected <infrastructure>, found <{}>",
                doc.root.name
            ))
            .into());
        }
        let name = doc.root.attr("name").unwrap_or("unnamed").to_string();
        let classes_el = doc.root.child_named("classDiagram").ok_or_else(|| {
            UpsimError::Model(uml::ModelError::Serialization(
                "missing <classDiagram>".into(),
            ))
        })?;
        let objects_el = doc.root.child_named("objectDiagram").ok_or_else(|| {
            UpsimError::Model(uml::ModelError::Serialization(
                "missing <objectDiagram>".into(),
            ))
        })?;
        let classes = uml::xmi::class_diagram_from_xml(
            &xmlio::Writer::new(xmlio::WriteOptions::compact()).element(classes_el),
        )?;
        let objects = uml::xmi::object_diagram_from_xml(
            &xmlio::Writer::new(xmlio::WriteOptions::compact()).element(objects_el),
        )?;
        objects.validate(&classes)?;

        let mut kinds = HashMap::new();
        for class in &classes.classes {
            for (stereotype, kind) in [
                ("Router", DeviceKind::Router),
                ("Switch", DeviceKind::Switch),
                ("Printer", DeviceKind::Printer),
                ("Client", DeviceKind::Client),
                ("Server", DeviceKind::Server),
            ] {
                if class.has_stereotype(stereotype) {
                    kinds.insert(class.name.clone(), kind);
                }
            }
        }
        Ok(Infrastructure {
            name,
            availability: Arc::new(availability_profile()),
            network: Arc::new(network_profile()),
            classes: Arc::new(classes),
            objects,
            default_link: LinkClassSpec::default(),
            kinds: Arc::new(kinds),
        })
    }

    /// The graph view: nodes are instance names, edge weights are the link
    /// index into `objects.links` (so link attributes stay reachable).
    /// Also returns the instance-name → node-id map.
    pub fn to_graph(&self) -> (Graph<String, usize>, HashMap<String, NodeId>) {
        let mut g = Graph::new_undirected();
        let mut index = HashMap::with_capacity(self.objects.instances.len());
        for inst in &self.objects.instances {
            let id = g.add_node(inst.name.clone());
            index.insert(inst.name.clone(), id);
        }
        for (i, link) in self.objects.links.iter().enumerate() {
            let a = index[&link.end_a];
            let b = index[&link.end_b];
            g.add_edge(a, b, i);
        }
        (g, index)
    }

    /// The interned graph view used by Step 7: node names resolved to dense
    /// `u32` ids backed by a shared name table, plus a pre-computed
    /// block-cut tree for pruned path discovery. Prefer this over
    /// [`Infrastructure::to_graph`] for anything that enumerates paths.
    pub fn to_interned_graph(&self) -> crate::interned::InternedGraph {
        crate::interned::InternedGraph::from_infrastructure(self)
    }
}

/// The error for a name the model space cannot hold.
fn model_space_name(details: String) -> UpsimError {
    uml::ModelError::WellFormedness {
        rule: "model-space-name",
        details,
    }
    .into()
}

/// Rejects what `vpm::ModelSpace::new_entity` would reject when Step 5
/// imports these `(kind, name)` elements as children of one `namespace`
/// entity: an empty name, or two names equal once `.` becomes `_`.
fn check_entity_names<'a>(
    namespace: &str,
    names: impl Iterator<Item = (&'static str, &'a String)>,
) -> UpsimResult<()> {
    let mut seen: HashMap<String, &str> = HashMap::new();
    for (kind, name) in names {
        if name.is_empty() {
            return Err(model_space_name(format!("{kind} with an empty name")));
        }
        let entity = name.replace('.', "_");
        if let Some(other) = seen.get(&entity) {
            return Err(model_space_name(format!(
                "{kind} '{name}' and '{other}' both import as '{namespace}.{entity}'"
            )));
        }
        seen.insert(entity, name);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Infrastructure {
        let mut infra = Infrastructure::new("toy");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(
                DeviceClassSpec::switch("HP2650", 199_000.0, 0.5).with_manufacturer("HP"),
            )
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60_000.0, 0.1))
            .unwrap();
        infra.add_device("t1", "Comp").unwrap();
        infra.add_device("t2", "Comp").unwrap();
        infra.add_device("e1", "HP2650").unwrap();
        infra.add_device("srv", "Server").unwrap();
        infra.connect("t1", "e1").unwrap();
        infra.connect("t2", "e1").unwrap();
        infra.connect("e1", "srv").unwrap();
        infra
    }

    #[test]
    fn builder_produces_valid_model() {
        let infra = toy();
        infra.validate().unwrap();
        assert_eq!(infra.device_count(), 4);
        assert_eq!(infra.link_count(), 3);
    }

    #[test]
    fn class_attributes_are_static_and_shared() {
        let infra = toy();
        assert_eq!(infra.mtbf("t1"), Some(3000.0));
        assert_eq!(infra.mtbf("t2"), Some(3000.0), "same class, same value");
        assert_eq!(infra.mttr("srv"), Some(0.1));
        assert_eq!(infra.redundant_components("e1"), Some(0));
        assert_eq!(infra.mtbf("ghost"), None);
    }

    #[test]
    fn auto_association_created_once_per_class_pair() {
        let infra = toy();
        // t1-e1 and t2-e1 share the Comp--HP2650 association.
        assert_eq!(infra.classes.associations.len(), 2);
        assert!(infra.classes.associations_between("Comp", "HP2650").len() == 1);
    }

    #[test]
    fn auto_association_carries_connector_and_communication() {
        let infra = toy();
        let assoc = &infra.classes.associations[0];
        assert!(assoc.has_stereotype("Connector"));
        assert!(assoc.has_stereotype("Communication"));
        assert_eq!(
            assoc.value("MTBF").and_then(|v| v.as_real()),
            Some(500_000.0)
        );
        assert_eq!(
            assoc.value("throughput").and_then(|v| v.as_real()),
            Some(1000.0)
        );
        assert_eq!(infra.link_attr(0, "MTBF"), Some(500_000.0));
    }

    #[test]
    fn kinds_and_census() {
        let infra = toy();
        assert_eq!(infra.kind_of("t1").unwrap(), DeviceKind::Client);
        assert_eq!(infra.kind_of("e1").unwrap(), DeviceKind::Switch);
        assert_eq!(
            infra.census(),
            vec![
                ("Comp".to_string(), 2),
                ("HP2650".to_string(), 1),
                ("Server".to_string(), 1)
            ]
        );
    }

    #[test]
    fn graph_view_matches_topology() {
        let infra = toy();
        let (g, index) = infra.to_graph();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(index["e1"]), 3);
        let e = g.find_edge(index["t1"], index["e1"]).unwrap();
        let link_index = *g.edge(e).unwrap();
        assert_eq!(infra.objects.links[link_index].end_a, "t1");
    }

    #[test]
    fn unknown_class_rejected() {
        let mut infra = toy();
        assert!(infra.add_device("x", "Ghost").is_err());
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut infra = toy();
        assert!(infra.add_device("t1", "Comp").is_err());
    }

    #[test]
    fn remove_device_removes_links() {
        let mut infra = toy();
        infra.remove_device("e1").unwrap();
        assert_eq!(infra.device_count(), 3);
        assert_eq!(infra.link_count(), 0);
        assert!(infra.remove_device("e1").is_err());
    }

    #[test]
    fn disconnect_is_orientation_free() {
        let mut infra = toy();
        assert!(infra.disconnect("e1", "t1").unwrap());
        assert_eq!(infra.link_count(), 2);
        assert!(!infra.disconnect("e1", "t1").unwrap());
    }

    #[test]
    fn xml_roundtrip_preserves_model_and_kinds() {
        let infra = toy();
        let xml = infra.to_xml();
        let back = Infrastructure::from_xml(&xml).unwrap();
        assert_eq!(back.name, infra.name);
        assert_eq!(back.classes, infra.classes);
        assert_eq!(back.objects, infra.objects);
        assert_eq!(back.kind_of("t1").unwrap(), DeviceKind::Client);
        assert_eq!(back.kind_of("e1").unwrap(), DeviceKind::Switch);
        assert_eq!(back.mtbf("srv"), Some(60_000.0));
        back.validate().unwrap();
    }

    #[test]
    fn from_xml_rejects_inconsistent_models() {
        let bad = "<infrastructure name=\"x\">\
            <classDiagram name=\"c\"/>\
            <objectDiagram name=\"o\"><instance name=\"a\" class=\"Ghost\"/></objectDiagram>\
            </infrastructure>";
        assert!(Infrastructure::from_xml(bad).is_err());
        assert!(Infrastructure::from_xml("<wrong/>").is_err());
    }

    #[test]
    fn custom_link_spec_applies_to_new_associations() {
        let mut infra = toy();
        infra
            .define_device_class(DeviceClassSpec::printer("Printer", 2880.0, 1.0))
            .unwrap();
        infra.set_default_link(LinkClassSpec {
            mtbf: 100.0,
            mttr: 9.0,
            redundant: 1,
            channel: "fiber".into(),
            throughput: 10_000.0,
        });
        infra.add_device("p1", "Printer").unwrap();
        infra.connect("p1", "e1").unwrap();
        let assoc = infra.classes.associations_between("Printer", "HP2650")[0];
        assert_eq!(
            assoc.value("channel").and_then(|v| v.as_str()),
            Some("fiber")
        );
        assert_eq!(assoc.value("MTBF").and_then(|v| v.as_real()), Some(100.0));
    }
}
