//! The eight-step methodology pipeline (paper Fig. 4 / Sec. V-B), with
//! incremental re-execution for dynamic environments.
//!
//! Steps 1–4 are the *inputs* (infrastructure, service, mapping — built
//! manually or by a generator). Steps 5–8 are fully automated here:
//!
//! 5. import infrastructure + service UML models into the model space,
//! 6. import the service mapping pairs (custom importer),
//! 7. discover all paths per mapping pair (DFS with path tracking),
//! 8. merge the paths into the UPSIM object diagram.
//!
//! Steps 5–6 and the path recording build the model space, which only the
//! paper experiments read; with [`UpsimPipeline::record_paths`] off they
//! import nothing and keep only their cache bookkeeping, and Steps 7–8 run
//! over the interned graph alone.
//!
//! Sec. V-A3 observes that each kind of system change touches only some
//! models; the pipeline exploits that: after [`UpsimPipeline::run`] the
//! imports are cached, and updates through [`UpsimPipeline::update_mapping`]
//! / [`UpsimPipeline::update_infrastructure`] /
//! [`UpsimPipeline::substitute_service`] invalidate only the affected
//! steps. [`UpsimRun::timings`] reports per-step wall time with skipped
//! (cached) steps marked, which experiment E10 uses to reproduce the
//! dynamicity claims.

use crate::discovery::{
    discover_with_workspace, record_in_space, DiscoveredPaths, DiscoveryOptions, DiscoveryWorkspace,
};
use crate::error::UpsimResult;
use crate::generate::{generate_upsim, reduction_ratio};
use crate::importers;
use crate::infrastructure::Infrastructure;
use crate::interned::InternedGraph;
use crate::mapping::ServiceMapping;
use crate::service::CompositeService;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uml::object_diagram::ObjectDiagram;
use vpm::ModelSpace;

/// Wall time of one methodology step in one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTiming {
    /// Step label (`"5-import-models"`, ...).
    pub step: &'static str,
    /// Elapsed wall time (zero when cached).
    pub duration: Duration,
    /// `true` when the step was served from cache and did not re-run.
    pub cached: bool,
}

/// Which cached pipeline artifacts are currently valid.
///
/// This is the Sec. V-A3 bookkeeping made inspectable: resident engines
/// (e.g. `upsim-server`) use it to key their own perspective caches and to
/// decide how much re-computation an update actually triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheState {
    /// Step 5 (UML model import) is cached.
    pub models_imported: bool,
    /// Step 6 (mapping import) is cached.
    pub mapping_imported: bool,
    /// The graph view used by Step 7 is cached.
    pub graph_built: bool,
}

impl CacheState {
    /// `true` when a subsequent [`UpsimPipeline::run`] would re-run every
    /// step.
    pub fn is_cold(&self) -> bool {
        !self.models_imported && !self.mapping_imported && !self.graph_built
    }
}

/// The result of one pipeline run.
#[derive(Debug, Clone)]
pub struct UpsimRun {
    /// The generated user-perceived service infrastructure model.
    pub upsim: ObjectDiagram,
    /// Step 7 output per mapping pair, in service execution order.
    pub discovered: Vec<DiscoveredPaths>,
    /// Per-step timings for this run.
    pub timings: Vec<StepTiming>,
    /// `|UPSIM| / |N|` over instances.
    pub reduction_ratio: f64,
}

impl UpsimRun {
    /// Total un-cached wall time of this run.
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// The discovered paths of one atomic service.
    pub fn paths_of(&self, atomic_service: &str) -> Option<&DiscoveredPaths> {
        self.discovered
            .iter()
            .find(|d| d.pair.atomic_service == atomic_service)
    }

    /// The devices this run's UPSIM touches — the invalidation footprint of
    /// the perspective. A topology edit that removes a link between two
    /// devices can only change this run's result when both endpoints appear
    /// here (every discovered path using the link visits both).
    pub fn touched_devices(&self) -> impl Iterator<Item = &str> {
        self.upsim.instances.iter().map(|i| i.name.as_str())
    }

    /// The interned name table shared by this run's discovered paths
    /// (`None` when the mapping had no pairs). All pairs of one run are
    /// discovered over the same graph view, so consumers that translate
    /// node ids — e.g. the availability-model transformation — can key a
    /// single dense cache on this table instead of hashing names.
    pub fn name_table(&self) -> Option<&Arc<crate::interned::NameTable>> {
        self.discovered.first().map(|d| d.name_table())
    }

    /// `true` when a removed link `(a, b)` may invalidate this run.
    pub fn touches_link(&self, a: &str, b: &str) -> bool {
        let mut has_a = false;
        let mut has_b = false;
        for device in self.touched_devices() {
            has_a |= device == a;
            has_b |= device == b;
        }
        has_a && has_b
    }
}

/// The methodology pipeline. Owns the three input models, the model space,
/// and the cached graph view.
///
/// The infrastructure and service are held behind `Arc`s: a resident
/// engine (or a campaign worker) hands the same pinned snapshot to many
/// pipelines without deep-copying the model per pipeline, and
/// [`UpsimPipeline::update_infrastructure`] copies-on-write only when an
/// edit actually lands on a shared model.
pub struct UpsimPipeline {
    infrastructure: Arc<Infrastructure>,
    service: Arc<CompositeService>,
    mapping: ServiceMapping,
    options: DiscoveryOptions,
    /// Build the model space: import the models (Step 5) and the mapping
    /// (Step 6) into it and record discovered paths under Step 7's
    /// reserved tree. On by default — the paper experiments read the
    /// space. Serving and campaign pipelines switch it off: Steps 7–8 run
    /// over the interned graph alone, the space stays empty, and Steps 5–6
    /// only do their cache bookkeeping (their timings stay in the run).
    pub record_paths: bool,
    space: ModelSpace,
    /// `true` while the space holds the current models and mapping; a lean
    /// run that re-executes Step 5 or 6 without importing clears it, so a
    /// later recording run re-imports instead of trusting the flags.
    space_current: bool,
    graph: Option<Arc<InternedGraph>>,
    workspace: DiscoveryWorkspace,
    models_imported: bool,
    mapping_imported: bool,
}

impl UpsimPipeline {
    /// Creates a pipeline, validating the three input models against each
    /// other (Steps 1–4 sanity). Accepts owned models or pre-shared
    /// `Arc`s — passing an `Arc` shares the model instead of copying it.
    pub fn new(
        infrastructure: impl Into<Arc<Infrastructure>>,
        service: impl Into<Arc<CompositeService>>,
        mapping: ServiceMapping,
    ) -> UpsimResult<Self> {
        let infrastructure = infrastructure.into();
        let service = service.into();
        infrastructure.validate()?;
        mapping.validate(&service, &infrastructure)?;
        Ok(UpsimPipeline {
            infrastructure,
            service,
            mapping,
            options: DiscoveryOptions::default(),
            record_paths: true,
            space: ModelSpace::new(),
            space_current: false,
            graph: None,
            workspace: DiscoveryWorkspace::default(),
            models_imported: false,
            mapping_imported: false,
        })
    }

    /// The current infrastructure.
    pub fn infrastructure(&self) -> &Infrastructure {
        &self.infrastructure
    }

    /// The current service.
    pub fn service(&self) -> &CompositeService {
        &self.service
    }

    /// The current mapping.
    pub fn mapping(&self) -> &ServiceMapping {
        &self.mapping
    }

    /// The model space (inspect after a run).
    pub fn space(&self) -> &ModelSpace {
        &self.space
    }

    /// Sets the discovery options (parallelism, limits, pruning).
    pub fn set_options(&mut self, options: DiscoveryOptions) {
        self.options = options;
    }

    /// Injects a pre-built interned graph view shared with other pipelines
    /// over the same infrastructure epoch (resident engines build the view
    /// once per epoch and hand the same `Arc` to every perspective's
    /// pipeline, so a 45-perspective batch interns and prunes once).
    ///
    /// The caller must ensure the view matches [`Self::infrastructure`];
    /// any later [`Self::update_infrastructure`] drops it again.
    pub fn set_shared_graph(&mut self, graph: Arc<InternedGraph>) {
        self.graph = Some(graph);
    }

    /// The cached interned graph view, if Step 7 has built (or been handed)
    /// one since the last topology change.
    pub fn shared_graph(&self) -> Option<&Arc<InternedGraph>> {
        self.graph.as_ref()
    }

    /// Which steps are currently cached (see [`CacheState`]).
    pub fn cache_state(&self) -> CacheState {
        CacheState {
            models_imported: self.models_imported,
            mapping_imported: self.mapping_imported,
            graph_built: self.graph.is_some(),
        }
    }

    /// Dynamicity: replaces the whole mapping. Equivalent to
    /// [`UpsimPipeline::update_mapping`] with a wholesale assignment; used
    /// by engines that evaluate many perspectives against one imported
    /// model (Step 5 stays cached, only Step 6 re-runs).
    pub fn set_mapping(&mut self, mapping: ServiceMapping) -> UpsimResult<()> {
        self.update_mapping(|m| *m = mapping)
    }

    /// Dynamicity: edits the mapping only. Invalidates Step 6 (and the
    /// outputs), keeps Step 5 caches.
    pub fn update_mapping(&mut self, edit: impl FnOnce(&mut ServiceMapping)) -> UpsimResult<()> {
        edit(&mut self.mapping);
        self.mapping.validate(&self.service, &self.infrastructure)?;
        self.mapping_imported = false;
        Ok(())
    }

    /// Dynamicity: edits the infrastructure (topology change). Invalidates
    /// Steps 5–6.
    pub fn update_infrastructure(
        &mut self,
        edit: impl FnOnce(&mut Infrastructure) -> UpsimResult<()>,
    ) -> UpsimResult<()> {
        edit(Arc::make_mut(&mut self.infrastructure))?;
        self.infrastructure.validate()?;
        self.mapping.validate(&self.service, &self.infrastructure)?;
        self.models_imported = false;
        self.mapping_imported = false;
        self.graph = None;
        Ok(())
    }

    /// Dynamicity: service substitution — replaces the service description
    /// and mapping, keeps the network model (paper Sec. V-A3).
    pub fn substitute_service(
        &mut self,
        service: CompositeService,
        mapping: ServiceMapping,
    ) -> UpsimResult<()> {
        mapping.validate(&service, &self.infrastructure)?;
        self.service = Arc::new(service);
        self.mapping = mapping;
        // The activity import is part of Step 5; re-import models.
        self.models_imported = false;
        self.mapping_imported = false;
        Ok(())
    }

    /// Runs Steps 5–8, re-using cached imports where the inputs did not
    /// change, and returns the UPSIM.
    pub fn run(&mut self) -> UpsimResult<UpsimRun> {
        let mut timings = Vec::with_capacity(4);

        // Step 5: import UML models (into the space only when recording).
        let t = Instant::now();
        let cached5 = self.models_imported && (self.space_current || !self.record_paths);
        if !cached5 {
            self.space = ModelSpace::new();
            if self.record_paths {
                importers::import_infrastructure(&mut self.space, &self.infrastructure)?;
                importers::import_service(&mut self.space, &self.service)?;
            }
            self.space_current = self.record_paths;
            self.models_imported = true;
            self.mapping_imported = false;
        }
        timings.push(StepTiming {
            step: "5-import-models",
            duration: if cached5 { Duration::ZERO } else { t.elapsed() },
            cached: cached5,
        });

        // Step 6: import the service mapping.
        let t = Instant::now();
        let cached6 = self.mapping_imported && (self.space_current || !self.record_paths);
        if !cached6 {
            if self.record_paths {
                importers::import_mapping(&mut self.space, &self.mapping)?;
            }
            self.space_current = self.record_paths;
            self.mapping_imported = true;
        }
        timings.push(StepTiming {
            step: "6-import-mapping",
            duration: if cached6 { Duration::ZERO } else { t.elapsed() },
            cached: cached6,
        });

        // Step 7: path discovery per pair (interned graph view cached with
        // Step 5 — or injected by a resident engine via `set_shared_graph`).
        let t = Instant::now();
        if self.graph.is_none() {
            self.graph = Some(Arc::new(self.infrastructure.to_interned_graph()));
        }
        let graph = Arc::clone(self.graph.as_ref().expect("just built"));
        let mut discovered = Vec::new();
        for pair in self.mapping.for_service(&self.service)? {
            discovered.push(discover_with_workspace(
                &graph,
                pair,
                self.options,
                &mut self.workspace,
            )?);
        }
        if self.record_paths {
            for d in &discovered {
                record_in_space(&mut self.space, d)?;
            }
        }
        timings.push(StepTiming {
            step: "7-path-discovery",
            duration: t.elapsed(),
            cached: false,
        });

        // Step 8: merge into the UPSIM.
        let t = Instant::now();
        let upsim = generate_upsim(
            &self.infrastructure,
            &discovered,
            format!("upsim-{}", self.service.name()),
        );
        timings.push(StepTiming {
            step: "8-generate-upsim",
            duration: t.elapsed(),
            cached: false,
        });

        let ratio = reduction_ratio(&self.infrastructure, &upsim);
        Ok(UpsimRun {
            upsim,
            discovered,
            timings,
            reduction_ratio: ratio,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::UpsimError;
    use crate::infrastructure::DeviceClassSpec;
    use crate::mapping::ServiceMappingPair;
    use std::collections::HashMap;
    use uml::value::Value;

    /// t1, t2 - sw - srv1, srv2
    fn fixture() -> (Infrastructure, CompositeService, ServiceMapping) {
        let mut infra = Infrastructure::new("mini");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        for (n, c) in [
            ("t1", "Comp"),
            ("t2", "Comp"),
            ("sw", "Sw"),
            ("srv1", "Server"),
            ("srv2", "Server"),
        ] {
            infra.add_device(n, c).unwrap();
        }
        for (a, b) in [("t1", "sw"), ("t2", "sw"), ("sw", "srv1"), ("sw", "srv2")] {
            infra.connect(a, b).unwrap();
        }
        let svc = CompositeService::sequential("fetch", &["request", "response"]).unwrap();
        let mapping = ServiceMapping::new()
            .with(ServiceMappingPair::new("request", "t1", "srv1"))
            .with(ServiceMappingPair::new("response", "srv1", "t1"));
        (infra, svc, mapping)
    }

    #[test]
    fn full_run_produces_upsim() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        let run = p.run().unwrap();
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t1", "sw", "srv1"]);
        assert_eq!(run.discovered.len(), 2);
        assert!((run.reduction_ratio - 3.0 / 5.0).abs() < 1e-12);
        assert!(run.timings.iter().all(|t| !t.cached));
        // Paths recorded in the space.
        assert!(p.space().resolve("paths.request.p0").is_ok());
    }

    #[test]
    fn second_run_uses_caches() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        let run2 = p.run().unwrap();
        let cached: Vec<&str> = run2
            .timings
            .iter()
            .filter(|t| t.cached)
            .map(|t| t.step)
            .collect();
        assert_eq!(cached, vec!["5-import-models", "6-import-mapping"]);
    }

    #[test]
    fn mapping_update_invalidates_only_step6() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        p.update_mapping(|m| {
            // A user-perspective change touches both roles of the client
            // component: requester of "request", provider of "response".
            m.move_requester("t1", "t2");
            m.migrate_provider("t1", "t2");
        })
        .unwrap();
        let run = p.run().unwrap();
        let by_step: HashMap<&str, bool> = run.timings.iter().map(|t| (t.step, t.cached)).collect();
        assert!(by_step["5-import-models"]);
        assert!(!by_step["6-import-mapping"]);
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t2", "sw", "srv1"]);
    }

    #[test]
    fn invalid_mapping_update_is_rejected_and_state_kept() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        let err = p.update_mapping(|m| {
            m.move_requester("t1", "ghost");
        });
        assert!(err.is_err());
    }

    #[test]
    fn topology_update_invalidates_models() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        // Add a redundant switch path: sw2 between t1 and srv1.
        p.update_infrastructure(|infra| {
            infra.add_device("sw2", "Sw")?;
            infra.connect("t1", "sw2")?;
            infra.connect("sw2", "srv1")?;
            Ok(())
        })
        .unwrap();
        let run = p.run().unwrap();
        assert!(run.timings.iter().all(|t| !t.cached));
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t1", "sw", "srv1", "sw2"]);
        assert_eq!(run.paths_of("request").unwrap().len(), 2);
    }

    #[test]
    fn provider_migration_changes_upsim() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        p.update_mapping(|m| {
            m.migrate_provider("srv1", "srv2");
            m.move_requester("srv1", "srv2");
        })
        .unwrap();
        let run = p.run().unwrap();
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t1", "sw", "srv2"]);
    }

    #[test]
    fn service_substitution_keeps_network_model() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        let svc2 = CompositeService::sequential("backup", &["store"]).unwrap();
        let map2 = ServiceMapping::new().with(ServiceMappingPair::new("store", "t2", "srv2"));
        p.substitute_service(svc2, map2).unwrap();
        let run = p.run().unwrap();
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t2", "sw", "srv2"]);
    }

    #[test]
    fn disconnected_pair_yields_empty_paths_not_error() {
        let (mut i, s, m) = fixture();
        i.disconnect("t1", "sw").unwrap();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        let run = p.run().unwrap();
        assert!(run.paths_of("request").unwrap().is_empty());
        // Response direction equally empty; UPSIM is empty.
        assert!(run.upsim.instances.is_empty());
    }

    #[test]
    fn cache_state_tracks_dynamicity() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m.clone()).unwrap();
        assert!(p.cache_state().is_cold());
        p.run().unwrap();
        assert_eq!(
            p.cache_state(),
            CacheState {
                models_imported: true,
                mapping_imported: true,
                graph_built: true
            }
        );
        // Wholesale mapping replacement invalidates Step 6 only.
        p.set_mapping(m).unwrap();
        let state = p.cache_state();
        assert!(state.models_imported && !state.mapping_imported && state.graph_built);
        // Topology change invalidates everything.
        p.update_infrastructure(|infra| {
            infra.add_device("sw9", "Sw")?;
            infra.connect("sw9", "sw")?;
            Ok(())
        })
        .unwrap();
        assert!(p.cache_state().is_cold());
    }

    #[test]
    fn touches_link_matches_upsim_membership() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        let run = p.run().unwrap();
        // UPSIM is {t1, sw, srv1}: the used link is touched, an unused one
        // (sw, srv2) is not.
        assert!(run.touches_link("t1", "sw"));
        assert!(run.touches_link("sw", "srv1"));
        assert!(!run.touches_link("sw", "srv2"));
        assert!(!run.touches_link("t2", "sw"));
        let touched: Vec<&str> = run.touched_devices().collect();
        assert_eq!(touched, vec!["t1", "sw", "srv1"]);
    }

    /// A lean run leaves the space stale; switching recording back on
    /// re-imports rather than trusting the step flags.
    #[test]
    fn recording_after_a_lean_run_reimports() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        p.record_paths = false;
        p.update_mapping(|m| {
            m.move_requester("t1", "t2");
            m.migrate_provider("t1", "t2");
        })
        .unwrap();
        let lean = p.run().unwrap();
        assert!(lean.timings[0].cached && !lean.timings[1].cached);
        p.record_paths = true;
        let run = p.run().unwrap();
        assert!(run.timings.iter().all(|t| !t.cached));
        let pair = p.space().resolve("mappings.request").unwrap();
        let t2 = p.space().resolve("models.topology.t2").unwrap();
        let requester: Vec<_> = p
            .space()
            .relations_from(pair, "requester")
            .map(|(_, t)| t)
            .collect();
        assert_eq!(requester, vec![t2]);
    }

    /// Builds and runs the fixture, edited by `edit`, in both modes: each
    /// must fail with the error `UpsimPipeline::new` gives, so neither
    /// reaches a model-space import.
    fn rejected_in_both_modes(
        edit: impl FnOnce(&mut Infrastructure, &mut ServiceMapping),
    ) -> UpsimError {
        let (mut i, s, mut m) = fixture();
        edit(&mut i, &mut m);
        let build = || UpsimPipeline::new(i.clone(), s.clone(), m.clone());
        let at_new = build().err().expect("rejected when the pipeline is built");
        for record_paths in [false, true] {
            let run = build().and_then(|mut p| {
                p.record_paths = record_paths;
                p.run()
            });
            assert_eq!(
                run.err(),
                Some(at_new.clone()),
                "record_paths={record_paths}"
            );
        }
        at_new
    }

    #[test]
    fn devices_equal_once_dots_become_underscores_are_rejected() {
        let err = rejected_in_both_modes(|i, _| {
            i.add_device("sw.1", "Sw").unwrap();
            i.add_device("sw_1", "Sw").unwrap();
        });
        assert!(err.to_string().contains("models.topology.sw_1"), "{err}");
    }

    #[test]
    fn device_with_an_empty_name_is_rejected() {
        rejected_in_both_modes(|i, _| i.add_device("", "Sw").unwrap());
    }

    #[test]
    fn classes_equal_once_dots_become_underscores_are_rejected() {
        rejected_in_both_modes(|i, _| {
            for name in ["C.1", "C_1"] {
                let spec = DeviceClassSpec::switch(name, 1000.0, 1.0);
                i.define_device_class(spec).unwrap();
            }
        });
    }

    #[test]
    fn class_named_like_an_association_is_rejected() {
        // `connect` named the Comp–Sw association `Comp--Sw`; classes and
        // associations share the `models.classes` namespace.
        rejected_in_both_modes(|i, _| {
            let spec = DeviceClassSpec::switch("Comp--Sw", 1000.0, 1.0);
            i.define_device_class(spec).unwrap();
        });
    }

    #[test]
    fn class_with_an_empty_name_is_rejected() {
        rejected_in_both_modes(|i, _| {
            let spec = DeviceClassSpec::switch("", 1000.0, 1.0);
            i.define_device_class(spec).unwrap();
        });
    }

    #[test]
    fn class_attribute_with_an_empty_name_is_rejected() {
        rejected_in_both_modes(|i, _| {
            let class = Arc::make_mut(&mut i.classes).class_mut("Sw").unwrap();
            class.attributes.push((String::new(), Value::Real(1.0)));
        });
    }

    #[test]
    fn service_with_an_empty_name_is_rejected() {
        // Step 5 would import the activity under the service's name, so
        // the service itself refuses an empty one: no pipeline is built.
        assert!(CompositeService::sequential("", &["request"]).is_err());
    }

    #[test]
    fn pair_with_an_empty_atomic_service_is_rejected() {
        rejected_in_both_modes(|_, m| m.add(ServiceMappingPair::new("", "t2", "srv2")));
    }

    #[test]
    fn atomic_services_equal_once_sanitized_are_rejected() {
        // Neither pair is the service's; Step 6 would import both as
        // `mappings.backup_job`.
        rejected_in_both_modes(|_, m| {
            m.add(ServiceMappingPair::new("backup job", "t2", "srv2"));
            m.add(ServiceMappingPair::new("backup.job", "t2", "srv2"));
        });
    }

    #[test]
    fn pair_for_another_service_must_name_deployed_devices() {
        let err = rejected_in_both_modes(|_, m| {
            m.add(ServiceMappingPair::new("backup", "t2", "ghost"));
        });
        assert!(matches!(
            err,
            UpsimError::UnknownComponent {
                role: "provider",
                ..
            }
        ));
    }

    #[test]
    fn devices_with_spaces_map_in_both_modes() {
        // The object importer keeps spaces in entity names; Step 6 must
        // look the device up under that same name.
        let (mut i, s, mut m) = fixture();
        i.add_device("print server", "Server").unwrap();
        i.connect("print server", "sw").unwrap();
        m.migrate_provider("srv1", "print server");
        m.move_requester("srv1", "print server");
        let build = |record_paths| {
            let mut p = UpsimPipeline::new(i.clone(), s.clone(), m.clone()).unwrap();
            p.record_paths = record_paths;
            p.run().expect("a space is allowed in a device name");
            p
        };
        build(false);
        let p = build(true);
        let pair = p.space().resolve("mappings.request").unwrap();
        let server = p.space().resolve("models.topology.print server").unwrap();
        let providers: Vec<_> = p
            .space()
            .relations_from(pair, "provider")
            .map(|(_, target)| target)
            .collect();
        assert_eq!(providers, vec![server]);
    }
}
