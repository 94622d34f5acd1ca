//! Model-space importers: methodology Steps 5 and 6.
//!
//! Step 5 imports the UML models (profiles, class diagram, object diagram,
//! activity diagrams) through the native UML importer of the `vpm` crate.
//! Step 6 is the **custom service-mapping importer** the paper had to build
//! as an Eclipse plug-in (Sec. V-C): it parses the mapping and creates, for
//! every pair, a mapping entity with `requester`/`provider` relations to the
//! matching instance entities of the topology namespace.

use crate::error::{UpsimError, UpsimResult};
use crate::infrastructure::Infrastructure;
use crate::mapping::ServiceMapping;
use crate::service::CompositeService;
use vpm::{EntityId, ModelSpace};

/// Namespace for the class diagram.
pub const CLASS_NS: &str = "models.classes";
/// Namespace for the topology object diagram.
pub const TOPOLOGY_NS: &str = "models.topology";
/// Namespace for service activity diagrams.
pub const SERVICE_NS: &str = "services";
/// Namespace for imported mapping pairs.
pub const MAPPING_NS: &str = "mappings";
/// Namespace where discovered paths are recorded (Step 7 output).
pub const PATHS_NS: &str = "paths";

/// The entity name of a mapping pair (and of its recorded paths): the
/// atomic service with `.` and spaces replaced by `_`.
pub(crate) fn sanitize(name: &str) -> String {
    name.replace(['.', ' '], "_")
}

/// The entity name [`import_infrastructure`] gives a device: the object
/// importer replaces `.` by `_` and keeps spaces.
pub(crate) fn topology_entity(component: &str) -> String {
    component.replace('.', "_")
}

/// Step 5a: imports profiles, class diagram and object diagram.
pub fn import_infrastructure(
    space: &mut ModelSpace,
    infrastructure: &Infrastructure,
) -> UpsimResult<EntityId> {
    vpm::uml_import::import_profile(space, infrastructure.availability_profile())?;
    vpm::uml_import::import_profile(space, infrastructure.network_profile())?;
    vpm::uml_import::import_class_diagram(space, &infrastructure.classes, CLASS_NS)?;
    let topology = vpm::uml_import::import_object_diagram(
        space,
        &infrastructure.objects,
        TOPOLOGY_NS,
        CLASS_NS,
    )?;
    Ok(topology)
}

/// Step 5b: imports the composite-service activity diagram.
pub fn import_service(space: &mut ModelSpace, service: &CompositeService) -> UpsimResult<EntityId> {
    Ok(vpm::uml_import::import_activity(
        space,
        service.activity(),
        SERVICE_NS,
    )?)
}

/// Step 6: the custom mapping importer. Creates one entity per pair under
/// [`MAPPING_NS`], related to the requester/provider instance entities.
///
/// Errors with [`UpsimError::UnknownComponent`] if a pair references a
/// component that has no entity in the topology namespace.
pub fn import_mapping(space: &mut ModelSpace, mapping: &ServiceMapping) -> UpsimResult<EntityId> {
    // Re-import from scratch (the mapping is the most volatile model).
    if let Ok(old) = space.resolve(MAPPING_NS) {
        space.delete_entity(old)?;
    }
    let root = space.ensure_path(MAPPING_NS)?;
    let topology = space.resolve(TOPOLOGY_NS)?;
    for pair in mapping.pairs() {
        let entity = space.new_entity(root, &sanitize(&pair.atomic_service))?;
        space.set_value(entity, Some(pair.atomic_service.clone()))?;
        for (role, component) in [("requester", &pair.requester), ("provider", &pair.provider)] {
            let target = space
                .child(topology, &topology_entity(component))?
                .ok_or_else(|| UpsimError::UnknownComponent {
                    atomic_service: pair.atomic_service.clone(),
                    role,
                    component: component.clone(),
                })?;
            space.new_relation(role, entity, target)?;
        }
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infrastructure::DeviceClassSpec;
    use crate::mapping::ServiceMappingPair;

    fn fixture() -> (Infrastructure, CompositeService, ServiceMapping) {
        let mut infra = Infrastructure::new("mini");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        infra.add_device("t1", "Comp").unwrap();
        infra.add_device("printS", "Server").unwrap();
        infra.connect("t1", "printS").unwrap();
        let svc = CompositeService::sequential("print", &["Request printing"]).unwrap();
        let mapping =
            ServiceMapping::new().with(ServiceMappingPair::new("Request printing", "t1", "printS"));
        (infra, svc, mapping)
    }

    #[test]
    fn full_import_populates_all_namespaces() {
        let (infra, svc, mapping) = fixture();
        let mut space = ModelSpace::new();
        import_infrastructure(&mut space, &infra).unwrap();
        import_service(&mut space, &svc).unwrap();
        import_mapping(&mut space, &mapping).unwrap();

        assert!(space.resolve("profiles.availability.Device").is_ok());
        assert!(space.resolve("models.classes.Comp").is_ok());
        assert!(space.resolve("models.topology.t1").is_ok());
        assert!(space.resolve("services.print").is_ok());
        let pair = space.resolve("mappings.Request_printing").unwrap();
        assert_eq!(space.value(pair).unwrap(), Some("Request printing"));

        let t1 = space.resolve("models.topology.t1").unwrap();
        let requester: Vec<_> = space
            .relations_from(pair, "requester")
            .map(|(_, t)| t)
            .collect();
        assert_eq!(requester, vec![t1]);
    }

    #[test]
    fn instances_typed_by_stereotyped_classes() {
        let (infra, _, _) = fixture();
        let mut space = ModelSpace::new();
        import_infrastructure(&mut space, &infra).unwrap();
        let t1 = space.resolve("models.topology.t1").unwrap();
        let client_st = space.resolve("profiles.network.Client").unwrap();
        let component_st = space.resolve("profiles.availability.Component").unwrap();
        // Typed by class, which is typed by its stereotypes — instanceOf is
        // not transitive across levels, so check via the class entity.
        let comp_class = space.resolve("models.classes.Comp").unwrap();
        assert!(space.is_instance_of(t1, comp_class).unwrap());
        assert!(space.is_instance_of(comp_class, client_st).unwrap());
        assert!(space.is_instance_of(comp_class, component_st).unwrap());
    }

    #[test]
    fn mapping_reimport_replaces_previous() {
        let (infra, _, mapping) = fixture();
        let mut space = ModelSpace::new();
        import_infrastructure(&mut space, &infra).unwrap();
        import_mapping(&mut space, &mapping).unwrap();
        let mut moved = mapping.clone();
        moved.move_requester("t1", "printS");
        import_mapping(&mut space, &moved).unwrap();
        let pair = space.resolve("mappings.Request_printing").unwrap();
        let printserver = space.resolve("models.topology.printS").unwrap();
        let requester: Vec<_> = space
            .relations_from(pair, "requester")
            .map(|(_, t)| t)
            .collect();
        assert_eq!(requester, vec![printserver]);
        // No stale relations from the first import.
        assert_eq!(
            space
                .relations()
                .filter(|(_, n, _, _)| *n == "requester")
                .count(),
            1
        );
    }

    #[test]
    fn unknown_component_rejected() {
        let (infra, _, _) = fixture();
        let mut space = ModelSpace::new();
        import_infrastructure(&mut space, &infra).unwrap();
        let bad = ServiceMapping::new().with(ServiceMappingPair::new("x", "ghost", "printS"));
        assert!(matches!(
            import_mapping(&mut space, &bad),
            Err(UpsimError::UnknownComponent {
                role: "requester",
                ..
            })
        ));
    }
}
