//! Service mapping pairs (methodology Step 4) and the Fig. 3 XML format.
//!
//! Paper Sec. V-A3: *"Atomic services are instantiated by a service mapping
//! pair when defining requester and provider. The mapping, provided as an
//! XML file, contains a unique description of the service mapping pair
//! requester and provider for every atomic service."* Mapping is the key
//! mechanism for dynamicity: changing user perspective, migrating a
//! provider or substituting a service only touches this file.

use crate::error::{UpsimError, UpsimResult};
use crate::importers;
use crate::infrastructure::Infrastructure;
use crate::service::CompositeService;
use std::collections::HashSet;
use xmlio::{Document, Element};

/// One mapping pair: atomic service → (requester, provider).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceMappingPair {
    /// The atomic service id (the activity action name).
    pub atomic_service: String,
    /// Requester component (instance name in the infrastructure).
    pub requester: String,
    /// Provider component (instance name in the infrastructure).
    pub provider: String,
}

impl ServiceMappingPair {
    /// Creates a pair.
    pub fn new(
        atomic_service: impl Into<String>,
        requester: impl Into<String>,
        provider: impl Into<String>,
    ) -> Self {
        ServiceMappingPair {
            atomic_service: atomic_service.into(),
            requester: requester.into(),
            provider: provider.into(),
        }
    }
}

/// The service mapping: one pair per atomic service (unique key), possibly
/// covering more services than a single composite uses — *"additional
/// service mapping pairs could be listed in the mapping file to support
/// other services; they will be ignored when the corresponding atomic
/// service is irrelevant"* (Sec. VI-D).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceMapping {
    pairs: Vec<ServiceMappingPair>,
}

impl ServiceMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        ServiceMapping::default()
    }

    /// Adds or replaces the pair for an atomic service (the atomic service
    /// is the unique key).
    pub fn add(&mut self, pair: ServiceMappingPair) {
        if let Some(existing) = self
            .pairs
            .iter_mut()
            .find(|p| p.atomic_service == pair.atomic_service)
        {
            *existing = pair;
        } else {
            self.pairs.push(pair);
        }
    }

    /// Builder-style [`ServiceMapping::add`].
    pub fn with(mut self, pair: ServiceMappingPair) -> Self {
        self.add(pair);
        self
    }

    /// All pairs, in insertion order.
    pub fn pairs(&self) -> &[ServiceMappingPair] {
        &self.pairs
    }

    /// The pair for an atomic service, if present.
    pub fn pair(&self, atomic_service: &str) -> Option<&ServiceMappingPair> {
        self.pairs
            .iter()
            .find(|p| p.atomic_service == atomic_service)
    }

    /// Removes the pair of an atomic service; returns whether it existed.
    pub fn remove(&mut self, atomic_service: &str) -> bool {
        let before = self.pairs.len();
        self.pairs.retain(|p| p.atomic_service != atomic_service);
        self.pairs.len() != before
    }

    /// Dynamicity: service migration — re-points every pair whose provider
    /// is `from` to `to` (paper Sec. V-A3: "migrating a service from one
    /// provider to another requires updating only the mapping"). Returns
    /// the number of re-pointed pairs.
    pub fn migrate_provider(&mut self, from: &str, to: &str) -> usize {
        let mut n = 0;
        for p in &mut self.pairs {
            if p.provider == from {
                p.provider = to.to_string();
                n += 1;
            }
        }
        n
    }

    /// Dynamicity: user mobility — re-points every pair whose requester is
    /// `from` to `to`. Returns the number of re-pointed pairs.
    pub fn move_requester(&mut self, from: &str, to: &str) -> usize {
        let mut n = 0;
        for p in &mut self.pairs {
            if p.requester == from {
                p.requester = to.to_string();
                n += 1;
            }
        }
        n
    }

    /// The pairs relevant for one composite service, in the service's
    /// declaration order. Errors if an atomic service has no pair.
    pub fn for_service(&self, service: &CompositeService) -> UpsimResult<Vec<&ServiceMappingPair>> {
        service
            .atomic_services()
            .into_iter()
            .map(|atomic| {
                self.pair(atomic)
                    .ok_or_else(|| UpsimError::UnmappedAtomicService(atomic.to_string()))
            })
            .collect()
    }

    /// Validates the mapping against the service and infrastructure:
    /// every atomic service of `service` has a pair, and every pair —
    /// those for other services too, since Step 6 imports them all — names
    /// deployed requester and provider instances and a nonempty atomic
    /// service that stays distinct from the others once `.` and spaces
    /// become `_` (its model-space entity name). Checked here rather than
    /// at import, so a pipeline that skips the model space rejects the
    /// same mappings.
    pub fn validate(
        &self,
        service: &CompositeService,
        infrastructure: &Infrastructure,
    ) -> UpsimResult<()> {
        // The service's own pairs first, so the error names a pair the
        // service actually needs.
        let relevant = self.for_service(service)?;
        for pair in relevant.into_iter().chain(&self.pairs) {
            for (role, component) in [("requester", &pair.requester), ("provider", &pair.provider)]
            {
                if !infrastructure.has_device(component) {
                    return Err(UpsimError::UnknownComponent {
                        atomic_service: pair.atomic_service.clone(),
                        role,
                        component: component.clone(),
                    });
                }
            }
        }
        let mut entities = HashSet::with_capacity(self.pairs.len());
        for pair in &self.pairs {
            if pair.atomic_service.is_empty() {
                return Err(UpsimError::Mapping(
                    "pair with an empty atomic service".into(),
                ));
            }
            let entity = importers::sanitize(&pair.atomic_service);
            if entities.contains(&entity) {
                return Err(UpsimError::Mapping(format!(
                    "atomic service '{}' imports as '{}.{entity}', like an earlier pair",
                    pair.atomic_service,
                    importers::MAPPING_NS,
                )));
            }
            entities.insert(entity);
        }
        Ok(())
    }

    /// Serializes to the paper's XML format (Fig. 3). Multiple pairs are
    /// wrapped in a `<servicemapping>` root (Fig. 3 shows a single
    /// `<atomicservice>` fragment; XML requires one root element).
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("servicemapping");
        for pair in &self.pairs {
            root.push_element(
                Element::new("atomicservice")
                    .with_attr("id", &pair.atomic_service)
                    .with_child(Element::new("requester").with_attr("id", &pair.requester))
                    .with_child(Element::new("provider").with_attr("id", &pair.provider)),
            );
        }
        xmlio::to_string_pretty(&Document::new(root))
    }

    /// Parses the XML format: either a `<servicemapping>` document or a
    /// bare `<atomicservice>` fragment exactly as printed in Fig. 3.
    pub fn from_xml(xml: &str) -> UpsimResult<Self> {
        let doc = Document::parse(xml)?;
        let mut mapping = ServiceMapping::new();
        let items: Vec<&Element> = if doc.root.name == "atomicservice" {
            vec![&doc.root]
        } else if doc.root.name == "servicemapping" {
            doc.root.children_named("atomicservice").collect()
        } else {
            return Err(UpsimError::Mapping(format!(
                "expected <servicemapping> or <atomicservice>, found <{}>",
                doc.root.name
            )));
        };
        for el in items {
            let id = el
                .attr("id")
                .ok_or_else(|| UpsimError::Mapping("<atomicservice> without id".into()))?;
            let requester = el
                .child_named("requester")
                .and_then(|r| r.attr("id"))
                .ok_or_else(|| {
                    UpsimError::Mapping(format!("'{id}': missing <requester id=...>"))
                })?;
            let provider = el
                .child_named("provider")
                .and_then(|p| p.attr("id"))
                .ok_or_else(|| UpsimError::Mapping(format!("'{id}': missing <provider id=...>")))?;
            if mapping.pair(id).is_some() {
                return Err(UpsimError::Mapping(format!(
                    "duplicate mapping pair for atomic service '{id}'"
                )));
            }
            mapping.add(ServiceMappingPair::new(id, requester, provider));
        }
        Ok(mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infrastructure::DeviceClassSpec;

    /// The paper's Table I mapping for the printing service.
    fn table_one() -> ServiceMapping {
        ServiceMapping::new()
            .with(ServiceMappingPair::new("Request printing", "t1", "printS"))
            .with(ServiceMappingPair::new("Login to printer", "p2", "printS"))
            .with(ServiceMappingPair::new(
                "Send document list",
                "printS",
                "p2",
            ))
            .with(ServiceMappingPair::new("Select documents", "p2", "printS"))
            .with(ServiceMappingPair::new("Send documents", "printS", "p2"))
    }

    fn printing() -> CompositeService {
        CompositeService::sequential(
            "printing",
            &[
                "Request printing",
                "Login to printer",
                "Send document list",
                "Select documents",
                "Send documents",
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig3_fragment_parses() {
        let xml = "<atomicservice id=\"atomic_service_1\">\
                   <requester id=\"component_a\"></requester>\
                   <provider id=\"component_b\"></provider>\
                   </atomicservice>";
        let mapping = ServiceMapping::from_xml(xml).unwrap();
        assert_eq!(
            mapping.pair("atomic_service_1"),
            Some(&ServiceMappingPair::new(
                "atomic_service_1",
                "component_a",
                "component_b"
            ))
        );
    }

    #[test]
    fn xml_roundtrip_preserves_order_and_content() {
        let mapping = table_one();
        let xml = mapping.to_xml();
        let back = ServiceMapping::from_xml(&xml).unwrap();
        assert_eq!(mapping, back);
    }

    #[test]
    fn duplicate_pairs_in_xml_rejected() {
        let xml = "<servicemapping>\
                   <atomicservice id=\"a\"><requester id=\"x\"/><provider id=\"y\"/></atomicservice>\
                   <atomicservice id=\"a\"><requester id=\"x\"/><provider id=\"z\"/></atomicservice>\
                   </servicemapping>";
        assert!(ServiceMapping::from_xml(xml).is_err());
    }

    #[test]
    fn add_replaces_existing_key() {
        let mut m = table_one();
        m.add(ServiceMappingPair::new("Request printing", "t15", "printS"));
        assert_eq!(m.pairs().len(), 5);
        assert_eq!(m.pair("Request printing").unwrap().requester, "t15");
    }

    #[test]
    fn for_service_returns_pairs_in_service_order() {
        let mapping = table_one();
        let svc = printing();
        let pairs = mapping.for_service(&svc).unwrap();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0].requester, "t1");
        assert_eq!(pairs[4].provider, "p2");
    }

    #[test]
    fn irrelevant_pairs_are_ignored() {
        let mut mapping = table_one();
        mapping.add(ServiceMappingPair::new("unrelated", "x", "y"));
        let svc = printing();
        assert_eq!(mapping.for_service(&svc).unwrap().len(), 5);
    }

    #[test]
    fn missing_pair_is_reported() {
        let mut mapping = table_one();
        mapping.remove("Select documents");
        let svc = printing();
        assert!(matches!(
            mapping.for_service(&svc),
            Err(UpsimError::UnmappedAtomicService(name)) if name == "Select documents"
        ));
    }

    #[test]
    fn migrate_and_move_repoint_pairs() {
        let mut mapping = table_one();
        assert_eq!(mapping.migrate_provider("printS", "printS2"), 3);
        assert_eq!(
            mapping.pair("Request printing").unwrap().provider,
            "printS2"
        );
        assert_eq!(mapping.move_requester("p2", "p3"), 2);
        assert_eq!(mapping.pair("Login to printer").unwrap().requester, "p3");
    }

    #[test]
    fn validate_against_infrastructure() {
        let mut infra = Infrastructure::new("mini");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        infra.add_device("t1", "Comp").unwrap();
        infra.add_device("printS", "Server").unwrap();
        let svc = CompositeService::sequential("s", &["Request printing"]).unwrap();
        let good =
            ServiceMapping::new().with(ServiceMappingPair::new("Request printing", "t1", "printS"));
        good.validate(&svc, &infra).unwrap();

        let bad =
            ServiceMapping::new().with(ServiceMappingPair::new("Request printing", "t1", "ghost"));
        assert!(matches!(
            bad.validate(&svc, &infra),
            Err(UpsimError::UnknownComponent {
                role: "provider",
                ..
            })
        ));
    }
}
