//! Cross-validation of the compiled bit-sliced Monte-Carlo kernel
//! ([`dependability::McProgram`]) on full pipeline-built models:
//!
//! * property: on random generated campuses the bit-sliced run agrees
//!   **exactly** (bit for bit) with the trial-at-a-time reference sampler
//!   [`dependability::montecarlo::estimate`], and the estimate is
//!   invariant under the worker count,
//! * property: every legal [`McPlan`] — with or without a probability
//!   overlay, a draw table or a posterior sampler — executes to the same
//!   accumulator under any adversarial split of its blocks,
//! * statistics: over all 45 USI printing perspectives the 95% CI of a
//!   200 000-sample run covers the BDD-exact availability for (almost)
//!   every perspective — the E-series entry in EXPERIMENTS.md records
//!   the deterministic outcome for the committed seed.

use std::sync::atomic::AtomicU64;

use dependability::mcprog::WIDE_WORDS;
use dependability::montecarlo::estimate;
use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use dependability::{
    wide_block_count, GammaPosterior, McAccum, McPlan, McProgram, PosteriorComponent,
};
use netgen::campus::{campus_scenario, CampusParams};
use netgen::usi::{all_printing_perspectives, printing_service, usi_infrastructure};
use proptest::prelude::*;
use upsim_core::pipeline::UpsimPipeline;

/// Builds the availability model of one campus perspective through the
/// full pipeline.
fn campus_model(params: CampusParams) -> ServiceAvailabilityModel {
    let (infra, service, mapping) = campus_scenario(params);
    let mut pipeline =
        UpsimPipeline::new(infra, service, mapping).expect("campus models are consistent");
    let run = pipeline.run().expect("campus pipeline runs");
    ServiceAvailabilityModel::from_run(pipeline.infrastructure(), &run, AnalysisOptions::default())
}

fn path_systems(model: &ServiceAvailabilityModel) -> Vec<Vec<Vec<usize>>> {
    model.systems.iter().map(|s| s.path_sets.clone()).collect()
}

/// Small random campus shapes (kept modest so 64 cases stay fast).
fn params_strategy() -> impl Strategy<Value = CampusParams> {
    (
        1usize..=3,
        1usize..=3,
        1usize..=2,
        1usize..=3,
        1usize..=2,
        any::<bool>(),
    )
        .prop_map(
            |(core, distributions, edges_per_distribution, clients_per_edge, servers, dual)| {
                CampusParams {
                    core,
                    distributions,
                    edges_per_distribution,
                    clients_per_edge,
                    servers,
                    dual_homed_edges: dual,
                }
            },
        )
}

/// Sample counts biased to the ragged edges of the 512-trial block grid:
/// a fraction of one block, exactly one block, one block plus a ragged
/// tail, one trial short of a boundary, one trial over.
fn ragged_samples() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=64,
        Just(512usize),
        513usize..=1025,
        (1usize..=8).prop_map(|k| k * 512 - 1),
        (1usize..=8).prop_map(|k| k * 512 + 1),
    ]
}

/// Loose posteriors (n = 4 pseudo-sojourns) around MTBF 3000h / MTTR 24h.
fn loose_posterior() -> PosteriorComponent {
    PosteriorComponent {
        fail: GammaPosterior {
            alpha: 5.0,
            beta: 5.0 * 3000.0,
        },
        repair: GammaPosterior {
            alpha: 5.0,
            beta: 5.0 * 24.0,
        },
        redundant: 0,
    }
}

/// `claimants` scoped threads drain one shared cursor in `chunk`-block
/// claims; their accumulators merge in join order.
fn execute_split(program: &McProgram, plan: &McPlan, claimants: usize, chunk: u64) -> McAccum {
    let cursor = AtomicU64::new(0);
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..claimants)
            .map(|_| scope.spawn(|_| program.execute(plan, &cursor, chunk, &mut program.scratch())))
            .collect();
        let mut merged = McAccum::default();
        for handle in handles {
            merged.merge(&handle.join().expect("claimant panicked"));
        }
        merged
    })
    .expect("crossbeam scope")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wide (512-trial-block) kernel is an exact reformulation of
    /// per-trial sampling: same draws, same structure function, same
    /// count — for any sample count (including ragged tails), any worker
    /// split on either side, and with or without constant folding.
    #[test]
    fn bitsliced_equals_reference_sampler_on_random_campuses(
        params in params_strategy(),
        samples in 1usize..=2_000,
        workers in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let model = campus_model(params);
        let wide = model.compile_mc().run(samples, workers, seed);
        let reference = estimate(
            &model.availability_vector(),
            &path_systems(&model),
            samples,
            workers,
            seed,
        );
        prop_assert_eq!(wide, reference);
        // Worker-count invariance (the counter-based RNG contract).
        prop_assert_eq!(wide, model.compile_mc().run(samples, 1, seed));
        prop_assert_eq!(wide, model.compile_mc_unfolded().run(samples, 1, seed));
    }

    /// Every legal plan over {no table, table} × {compiled thresholds,
    /// probability overlay}, plus {no sampler, empty sampler, diffuse
    /// sampler} without a table, under adversarial splits: claimant
    /// counts and chunk sizes far from the block count, so most claims
    /// come back empty or ragged. Each split run merges to exactly the
    /// one-worker accumulator (reused-word count included); the table
    /// reuses exactly the words of every slot the overlay left alone; and
    /// point plans are bit-equal to the reference sampler over the
    /// overlaid probabilities.
    #[test]
    fn every_plan_is_partition_invariant_and_exact(
        params in params_strategy(),
        samples in ragged_samples(),
        claimants in prop_oneof![Just(1usize), 2usize..=16],
        chunk in prop_oneof![Just(1u64), 2u64..=5, Just(64u64)],
        perturbed in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let model = campus_model(params);
        let systems = path_systems(&model);
        let base = model.availability_vector();
        // Kill one component and halve another's availability.
        let mut overlay = base.clone();
        let victim = perturbed % base.len();
        overlay[victim] = 0.0;
        let degraded = (victim + 1) % base.len();
        overlay[degraded] *= 0.5;

        let program = model.compile_mc_unfolded();
        let table = program.draw_table(samples, seed);
        let empty = program.posterior_sampler(&[]);
        let diffuse = program.posterior_sampler(&vec![Some(loose_posterior()); base.len()]);
        let one_worker = wide_block_count(samples);
        let mut pathed: Vec<usize> = systems.iter().flatten().flatten().copied().collect();
        pathed.sort_unstable();
        pathed.dedup();

        for probs in [None, Some(overlay.as_slice())] {
            let point = McPlan { probs, ..McPlan::new(samples, seed) };
            let plans = [
                point,
                McPlan { table: Some(&table), ..point },
                McPlan { sampler: Some(&empty), ..point },
                McPlan { sampler: Some(&diffuse), ..point },
            ];
            for plan in plans {
                let whole = program.execute(
                    &plan,
                    &AtomicU64::new(0),
                    one_worker,
                    &mut program.scratch(),
                );
                prop_assert_eq!(execute_split(&program, &plan, claimants, chunk), whole);

                let kept = probs.unwrap_or(&base);
                let unchanged = pathed.iter().filter(|&&c| kept[c] == base[c]).count();
                let reused = match plan.table {
                    Some(_) => (unchanged * WIDE_WORDS) as u64 * one_worker,
                    None => 0,
                };
                prop_assert_eq!(whole.reused_words, reused);

                if plan.sampler.is_none_or(|s| s.is_empty()) {
                    let reference = estimate(kept, &systems, samples, claimants, seed);
                    prop_assert_eq!(whole.result(samples), reference);
                }
            }
        }
        // The thin wrappers are the same executor.
        prop_assert_eq!(
            program.run(samples, claimants, seed),
            program.execute(&McPlan::new(samples, seed), &AtomicU64::new(0), one_worker,
                &mut program.scratch()).result(samples)
        );
        let posterior_plan = McPlan { sampler: Some(&diffuse), ..McPlan::new(samples, seed) };
        let accum = execute_split(&program, &posterior_plan, claimants, chunk);
        prop_assert_eq!(
            program.run_posterior(samples, claimants, seed, &diffuse),
            (accum.result(samples), accum.interval95(samples))
        );
    }
}

/// Acceptance regression: for a fixed `(seed, samples)` the estimate is
/// bit-identical for *any* worker count on a mid-size campus.
#[test]
fn worker_count_never_changes_the_estimate() {
    let model = campus_model(CampusParams {
        core: 2,
        distributions: 4,
        edges_per_distribution: 2,
        clients_per_edge: 4,
        servers: 3,
        dual_homed_edges: true,
    });
    let program = model.compile_mc();
    let reference = program.run(100_001, 1, 2013);
    for workers in [2, 3, 5, 8, 17, 64] {
        assert_eq!(
            program.run(100_001, workers, 2013),
            reference,
            "estimate changed at {workers} workers"
        );
    }
    assert!(
        reference.covers(model.availability_bdd()),
        "CI {:?} misses the exact availability",
        reference.confidence_95()
    );
}

/// Statistical coverage over the whole USI case study: each of the 45
/// printing perspectives gets a 200 000-sample bit-sliced estimate; at a
/// 95% confidence level a couple of misses are expected, so the test
/// asserts a high coverage count plus a tight absolute-error bound
/// everywhere, rather than demanding 45/45. Deterministic for the fixed
/// seed (the kernel's estimates do not depend on the host's cores).
#[test]
fn usi_perspectives_ci_covers_bdd_exact() {
    let shared_graph = std::sync::Arc::new(usi_infrastructure().to_interned_graph());
    let perspectives = all_printing_perspectives();
    assert_eq!(perspectives.len(), 45);
    let mut covered = 0usize;
    for (client, printer, mapping) in perspectives {
        let mut pipeline = UpsimPipeline::new(usi_infrastructure(), printing_service(), mapping)
            .expect("USI models are consistent");
        pipeline.set_shared_graph(std::sync::Arc::clone(&shared_graph));
        let run = pipeline.run().expect("USI pipeline runs");
        let model = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions::default(),
        );
        let exact = model.availability_bdd();
        let mc = model.monte_carlo_bitsliced(200_000, 0, 2013);
        covered += usize::from(mc.covers(exact));
        let sigma = (exact * (1.0 - exact) / 200_000.0).sqrt();
        assert!(
            (mc.estimate - exact).abs() < 5.0 * sigma,
            "{client}->{printer}: estimate {} strays from exact {exact}",
            mc.estimate
        );
    }
    eprintln!("bit-sliced CI covered the exact availability on {covered}/45 perspectives");
    assert!(
        covered >= 40,
        "only {covered}/45 perspectives covered the exact availability"
    );
}
