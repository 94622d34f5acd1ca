//! Property-based end-to-end tests of the methodology pipeline on generated
//! campus networks: the UPSIM invariants of Definition 2 must hold for
//! every topology shape and every mapping.

use netgen::campus::{campus_infrastructure, CampusParams};
use netgen::services::{random_mapping, sequential_service};
use netgen::usi::{all_printing_perspectives, printing_service, usi_infrastructure};
use proptest::prelude::*;
use uml::object_diagram::ObjectDiagram;
use upsim_core::discovery::DiscoveryOptions;
use upsim_core::error::UpsimResult;
use upsim_core::infrastructure::Infrastructure;
use upsim_core::pipeline::UpsimPipeline;
use vpm::ModelSpace;

fn params_strategy() -> impl Strategy<Value = CampusParams> {
    (1usize..=3, 1usize..=4, 1usize..=2, 1usize..=4, 1usize..=3).prop_map(
        |(core, distributions, edges, clients, servers)| CampusParams {
            core,
            distributions,
            edges_per_distribution: edges,
            clients_per_edge: clients,
            servers,
            dual_homed_edges: false,
        },
    )
}

/// What a run produces, comparable across runs: the UPSIM, each pair's
/// sorted named paths, the reduction ratio's bits, and each step's label
/// and `cached` flag.
type Observed = (
    ObjectDiagram,
    Vec<Vec<Vec<String>>>,
    u64,
    Vec<(&'static str, bool)>,
);

fn observe(pipeline: &mut UpsimPipeline) -> Observed {
    let run = pipeline.run().unwrap();
    let mut paths: Vec<_> = run.discovered.iter().map(|d| d.named_paths()).collect();
    paths.iter_mut().for_each(|named| named.sort());
    let steps = run.timings.iter().map(|t| (t.step, t.cached)).collect();
    (run.upsim, paths, run.reduction_ratio.to_bits(), steps)
}

/// Cuts one link and hangs a new device with a dotted name off one end.
fn damage(infra: &mut Infrastructure, seed: u64) -> UpsimResult<()> {
    let link = &infra.objects.links[seed as usize % infra.link_count()];
    let (a, b) = (link.end_a.clone(), link.end_b.clone());
    let class = infra.class_of(&a)?.to_string();
    infra.disconnect(&a, &b)?;
    infra.add_device("spare.0", &class)?;
    infra.connect("spare.0", &a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `record_paths = false` skips the model space and nothing else: on a
    /// USI Table I perspective or a random campus, lean and recording
    /// pipelines agree run for run — cold, after a mapping update, after a
    /// topology update — and the lean pipeline's space stays empty.
    #[test]
    fn lean_pipeline_equals_recording_pipeline(
        usi in any::<bool>(),
        params in params_strategy(),
        service_len in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (infra, service, [first, second]) = if usi {
            let perspectives = all_printing_perspectives();
            let pick = |k: u64| perspectives[k as usize % perspectives.len()].2.clone();
            (usi_infrastructure(), printing_service(), [pick(seed), pick(seed * 7 + 13)])
        } else {
            let infra = campus_infrastructure(params);
            let service = sequential_service("svc", service_len);
            let first = random_mapping(&service, &infra, seed);
            let second = random_mapping(&service, &infra, seed + 1);
            (infra, service, [first, second])
        };
        let mut lean = UpsimPipeline::new(infra.clone(), service.clone(), first.clone()).unwrap();
        lean.record_paths = false;
        let mut full = UpsimPipeline::new(infra, service, first).unwrap();
        prop_assert_eq!(observe(&mut lean), observe(&mut full), "cold");
        for p in [&mut lean, &mut full] {
            p.set_mapping(second.clone()).unwrap();
        }
        prop_assert_eq!(observe(&mut lean), observe(&mut full), "after a mapping update");
        for p in [&mut lean, &mut full] {
            p.update_infrastructure(|infra| damage(infra, seed)).unwrap();
        }
        prop_assert_eq!(observe(&mut lean), observe(&mut full), "after a topology update");
        prop_assert_eq!(lean.space().entity_count(), ModelSpace::new().entity_count());
        prop_assert!(full.space().resolve("models.topology.spare_0").is_ok());
    }

    #[test]
    fn upsim_invariants_hold_on_random_campuses(
        params in params_strategy(),
        service_len in 1usize..5,
        seed in 0u64..1000,
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", service_len);
        let mapping = random_mapping(&service, &infra, seed);
        let mut pipeline = UpsimPipeline::new(infra, service, mapping.clone()).unwrap();
        let run = pipeline.run().unwrap();

        // Definition 2: UPSIM ⊆ N with identical signatures.
        prop_assert!(run.upsim.is_subdiagram_of(&pipeline.infrastructure().objects));
        run.upsim.validate(&pipeline.infrastructure().classes).unwrap();
        prop_assert!(run.reduction_ratio <= 1.0 + 1e-12);

        // Campus networks are connected, so every pair has ≥ 1 path and
        // requester + provider are always in the UPSIM.
        for d in &run.discovered {
            prop_assert!(!d.is_empty(), "pair {:?} found no path", d.pair);
            prop_assert!(run.upsim.instance(&d.pair.requester).is_some());
            prop_assert!(run.upsim.instance(&d.pair.provider).is_some());
            // Every path starts at the requester and ends at the provider.
            for path in d.named_paths() {
                prop_assert_eq!(path.first().unwrap(), &d.pair.requester);
                prop_assert_eq!(path.last().unwrap(), &d.pair.provider);
            }
        }

        // Every UPSIM instance lies on some discovered path.
        for inst in &run.upsim.instances {
            let on_some_path = run.discovered.iter().any(|d| {
                let id = d.name_table().id(&inst.name);
                id.is_some_and(|id| d.interned().iter().any(|p| p.contains(&id)))
            });
            prop_assert!(on_some_path, "{} not on any path", inst.name);
        }
    }

    #[test]
    fn rerun_is_deterministic(params in params_strategy(), seed in 0u64..100) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", 3);
        let mapping = random_mapping(&service, &infra, seed);
        let mut p1 = UpsimPipeline::new(infra.clone(), service.clone(), mapping.clone()).unwrap();
        let mut p2 = UpsimPipeline::new(infra, service, mapping).unwrap();
        let r1 = p1.run().unwrap();
        let r2 = p2.run().unwrap();
        prop_assert_eq!(&r1.upsim, &r2.upsim);
        // And a warm re-run yields the identical UPSIM again.
        let r1b = p1.run().unwrap();
        prop_assert_eq!(&r1.upsim, &r1b.upsim);
    }

    #[test]
    fn pruned_discovery_equals_unpruned_on_random_campuses(
        params in params_strategy(),
        seed in 0u64..100,
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", 2);
        let mapping = random_mapping(&service, &infra, seed);
        let mut pruned = UpsimPipeline::new(infra.clone(), service.clone(), mapping.clone()).unwrap();
        let mut unpruned = UpsimPipeline::new(infra, service, mapping).unwrap();
        unpruned.set_options(DiscoveryOptions { prune: false, ..Default::default() });
        let rp = pruned.run().unwrap();
        let ru = unpruned.run().unwrap();
        prop_assert_eq!(&rp.upsim, &ru.upsim);
        // Block-cut-tree masking must be invisible: identical paths in the
        // identical DFS emission order, per atomic service.
        for (a, b) in rp.discovered.iter().zip(&ru.discovered) {
            prop_assert_eq!(a.interned(), b.interned());
            prop_assert_eq!(&a.link_paths, &b.link_paths);
        }
    }

    #[test]
    fn topology_damage_never_grows_the_path_set(
        params in params_strategy(),
        seed in 0u64..100,
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", 1);
        let mapping = random_mapping(&service, &infra, seed);
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        let before = pipeline.run().unwrap().discovered[0].len();
        // Remove one core-distribution link (if the campus has a redundant
        // one) and re-run: the path count can only shrink.
        let removed = pipeline
            .update_infrastructure(|infra| {
                infra.disconnect("dist0", "core0")?;
                Ok(())
            })
            .is_ok();
        if removed {
            let after = pipeline.run().unwrap().discovered[0].len();
            prop_assert!(after <= before, "paths grew after damage: {before} -> {after}");
        }
    }
}
