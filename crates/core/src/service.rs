//! Composite and atomic services (methodology Step 3).
//!
//! Paper Sec. II / V-A2: a composite service is described as a UML activity
//! diagram whose actions are atomic services — abstract functionalities not
//! yet related to concrete ICT components. The same service description can
//! therefore be reused for arbitrary requester/provider pairs in any network
//! providing the atomic services.

use crate::error::UpsimResult;
use uml::activity::Activity;

/// A validated composite service.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeService {
    activity: Activity,
}

impl CompositeService {
    /// Wraps an activity diagram, enforcing the paper's well-formedness
    /// rules (single initial node, no decision nodes, acyclic, ...) and a
    /// nonempty name — Step 5 imports the activity as a model-space entity
    /// of that name.
    pub fn from_activity(activity: Activity) -> UpsimResult<Self> {
        activity.validate()?;
        if activity.name.is_empty() {
            return Err(uml::ModelError::WellFormedness {
                rule: "model-space-name",
                details: "service with an empty name".into(),
            }
            .into());
        }
        Ok(CompositeService { activity })
    }

    /// Builds the common purely sequential service (the shape of the
    /// printing service, paper Fig. 10).
    pub fn sequential(name: impl Into<String>, atomic_services: &[&str]) -> UpsimResult<Self> {
        Self::from_activity(Activity::sequence(name, atomic_services))
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.activity.name
    }

    /// The underlying activity diagram.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// The atomic services in declaration order.
    pub fn atomic_services(&self) -> Vec<&str> {
        self.activity.actions()
    }

    /// The atomic services in a valid execution order.
    pub fn execution_order(&self) -> UpsimResult<Vec<String>> {
        Ok(self.activity.action_order()?)
    }

    /// Serializes the service description as XMI-style XML.
    pub fn to_xml(&self) -> String {
        uml::xmi::activity_to_xml(&self.activity)
    }

    /// Parses a service description from XML, re-validating it.
    pub fn from_xml(xml: &str) -> UpsimResult<Self> {
        Self::from_activity(uml::xmi::activity_from_xml(xml)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uml::activity::NodeKind;

    /// The paper's printing service (Fig. 10).
    pub fn printing() -> CompositeService {
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
    fn printing_service_shape() {
        let svc = printing();
        assert_eq!(svc.name(), "printing");
        assert_eq!(svc.atomic_services().len(), 5);
        assert_eq!(svc.execution_order().unwrap()[0], "Request printing");
        assert_eq!(svc.execution_order().unwrap()[4], "Send documents");
    }

    #[test]
    fn invalid_activity_rejected() {
        let broken = Activity::new("broken"); // no initial/final
        assert!(CompositeService::from_activity(broken).is_err());
    }

    #[test]
    fn xml_roundtrip() {
        let svc = printing();
        let xml = svc.to_xml();
        let back = CompositeService::from_xml(&xml).unwrap();
        assert_eq!(svc, back);
    }

    #[test]
    fn parallel_composition_accepted() {
        let mut a = Activity::new("par");
        let i = a.add_node(NodeKind::Initial);
        let fork = a.add_node(NodeKind::Fork);
        let x = a.add_node(NodeKind::Action("fetch mail".into()));
        let y = a.add_node(NodeKind::Action("send mail".into()));
        let join = a.add_node(NodeKind::Join);
        let fin = a.add_node(NodeKind::Final);
        a.connect(i, fork);
        a.connect(fork, x);
        a.connect(fork, y);
        a.connect(x, join);
        a.connect(y, join);
        a.connect(join, fin);
        let svc = CompositeService::from_activity(a).unwrap();
        assert_eq!(svc.atomic_services(), vec!["fetch mail", "send mail"]);
    }
}
