//! Monte-Carlo kernel benchmark: the scalar reference sampler
//! (`montecarlo::estimate`, trial-at-a-time, counter-based draws) vs the
//! wide bit-sliced kernel (8-word / 512-trial blocks, dispatched to the
//! best SIMD pack routine at runtime) on generated campus networks (44,
//! 358, 1222 devices), emitted as `BENCH_montecarlo.json` for CI
//! tracking.
//!
//! Usage:
//!   `mc_bench [--smoke] [--out <path>]`
//!
//! Per campus the full "fetch" service model (5 atomic services,
//! client `t0_0_0` → `srv0`) is built once through the pipeline; both
//! engines then estimate the same user-perceived availability
//! across the worker-scaling sweep {1, 2, 4, 8} (+ all cores when
//! larger). Every cell records trials/sec and whether its 95% CI covers
//! the BDD-exact availability; the JSON also records `host_cpus` and
//! per-campus `parallel_efficiency` (throughput scaling / workers) for
//! the wide kernel. Hard invariants asserted in-bench, in every mode:
//!
//! * the wide kernel is bit-identical to the scalar reference sampler in
//!   every cell (same draws, same structure function, same count),
//! * the wide estimate is invariant under the worker count
//!   (counter-based draws), so the deterministic CIs must cover the
//!   exact value outright,
//! * the posterior phase (block-resampled component parameters from
//!   synthetic observation traces) is bit-identical — estimate *and*
//!   predictive interval — across the same worker sweep, and the
//!   estimate stays close to the refined model's exact availability
//!   (coverage of the point-refined exact is recorded, not asserted:
//!   the posterior estimate targets the predictive mean, which sits a
//!   Jensen gap away).
//!
//! Outside `--smoke` the wide kernel must additionally clear an 8×
//! trials/sec speedup over the scalar sampler on the largest campus at
//! equal worker counts, and wide trials/sec must be monotone non-decreasing in workers (5%
//! noise floor) across every count the host can truly run in parallel
//! (`workers <= host_cpus` — a 1-CPU container measures oversubscription
//! above that, which is recorded but not asserted).

use std::time::Instant;

use dependability::mcprog::wide_kernel_name;
use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use dependability::{overlay_model, ParamEstimator};
use netgen::campus::{campus_scenario, CampusParams};
use upsim_core::pipeline::UpsimPipeline;

const SEED: u64 = 2013;

/// Components given synthetic observation traces in the posterior phase.
const OBSERVED_COMPONENTS: usize = 6;
/// Closed up/down sojourns per observed component.
const SOJOURNS: usize = 20;

/// One timed cell of the engine × size × workers matrix.
struct Cell {
    devices: usize,
    engine: &'static str,
    workers: usize,
    samples: usize,
    iters: u32,
    total_ns: u128,
    estimate: f64,
    ci: (f64, f64),
    exact: f64,
    covers: bool,
}

impl Cell {
    fn trials_per_sec(&self) -> f64 {
        let trials = self.samples as f64 * f64::from(self.iters.max(1));
        trials / (self.total_ns as f64 / 1e9)
    }
}

/// The three campus sizes of the scaling experiments (device counts match
/// `CampusParams::device_count`).
fn campuses() -> Vec<(usize, CampusParams)> {
    let shape = |distributions, epd, cpe| CampusParams {
        core: 2,
        distributions,
        edges_per_distribution: epd,
        clients_per_edge: cpe,
        servers: 3,
        dual_homed_edges: false,
    };
    vec![
        (44, shape(2, 2, 8)),
        (358, shape(32, 2, 4)),
        (1222, shape(64, 2, 8)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_montecarlo.json")
        .to_string();

    let all_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let samples: usize = if smoke { 50_000 } else { 1_000_000 };
    let iters: u32 = if smoke { 1 } else { 3 };
    let mut cells: Vec<Cell> = Vec::new();

    for (devices, params) in campuses() {
        assert_eq!(params.device_count(), devices, "campus shape drifted");
        let (infra, service, mapping) = campus_scenario(params);
        let mut pipeline =
            UpsimPipeline::new(infra, service, mapping).expect("campus models are consistent");
        let run = pipeline.run().expect("campus pipeline runs");
        let model = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions::default(),
        );
        let exact = model.availability_bdd();
        // Compiled once per perspective — exactly how the server caches it.
        let program = model.compile_mc();

        for workers in worker_counts(all_cores) {
            // Scalar reference sampler (trial-at-a-time, shared draw stream).
            let start = Instant::now();
            let mut mc = model.monte_carlo(samples, workers, SEED);
            for _ in 1..iters {
                mc = model.monte_carlo(samples, workers, SEED);
            }
            cells.push(cell(
                devices, "scalar", workers, samples, iters, start, mc, exact,
            ));

            // Wide kernel (512-trial blocks, runtime SIMD dispatch).
            let start = Instant::now();
            let mut wide = program.run(samples, workers, SEED);
            for _ in 1..iters {
                wide = program.run(samples, workers, SEED);
            }
            assert_eq!(
                wide, mc,
                "wide kernel diverged from the scalar sampler at {devices} devices / {workers} worker(s)"
            );
            cells.push(cell(
                devices, "wide", workers, samples, iters, start, wide, exact,
            ));
        }

        // Posterior phase: the same perspective with synthetic observation
        // traces on a handful of components — traces drawn *from* the
        // authored parameters, so the refined model stays near the
        // authored one and the predictive interval must cover its exact
        // availability. Prices with the block-resampling kernel
        // (unfolded compile: posterior-bearing components keep slots).
        let mut refined = model.clone();
        let estimator = synthetic_estimator(&refined);
        let posteriors = overlay_model(&mut refined, &estimator, false);
        let refined_exact = refined.availability_bdd();
        let posterior_program = refined.compile_mc_unfolded();
        let sampler = posterior_program.posterior_sampler(&posteriors);
        for workers in worker_counts(all_cores) {
            let start = Instant::now();
            let (mut post, mut interval) =
                posterior_program.run_posterior(samples, workers, SEED, &sampler);
            for _ in 1..iters {
                (post, interval) =
                    posterior_program.run_posterior(samples, workers, SEED, &sampler);
            }
            cells.push(Cell {
                devices,
                engine: "posterior",
                workers,
                samples,
                iters,
                total_ns: start.elapsed().as_nanos(),
                estimate: post.estimate,
                ci: interval,
                exact: refined_exact,
                covers: interval.0 <= refined_exact && refined_exact <= interval.1,
            });
        }
    }

    // Every estimate is a pure function of (samples, seed): the
    // worker-count cells must agree bit for bit.
    for (devices, _) in campuses() {
        for engine in ["wide", "posterior"] {
            let estimates: Vec<f64> = cells
                .iter()
                .filter(|c| c.devices == devices && c.engine == engine)
                .map(|c| c.estimate)
                .collect();
            assert!(
                estimates.windows(2).all(|w| w[0] == w[1]),
                "{engine} estimates diverged across worker counts at {devices} devices: {estimates:?}"
            );
        }
        // The posterior predictive interval is part of the determinism
        // contract too: bit-identical across the worker sweep.
        let intervals: Vec<(u64, u64)> = cells
            .iter()
            .filter(|c| c.devices == devices && c.engine == "posterior")
            .map(|c| (c.ci.0.to_bits(), c.ci.1.to_bits()))
            .collect();
        assert!(
            intervals.windows(2).all(|w| w[0] == w[1]),
            "posterior intervals diverged across worker counts at {devices} devices"
        );
    }
    // Every engine now draws the same counter-based stream, so every
    // estimate is deterministic for the fixed seed — assert coverage
    // outright across the whole matrix. Posterior cells are exempt from
    // the hard coverage assert: their estimate targets the posterior
    // predictive *mean* E[A(θ)], which differs from the point-refined
    // exact A(θ̂) by a Jensen gap that a tight enough interval correctly
    // excludes — `covers` is recorded for tracking, and a sanity bound
    // keeps the estimate near the refined exact.
    for cell in &cells {
        if cell.engine == "posterior" {
            assert!(
                (cell.estimate - cell.exact).abs() < 5e-3,
                "posterior estimate {} strays from refined exact {} at {} devices",
                cell.estimate,
                cell.exact,
                cell.devices
            );
            continue;
        }
        assert!(
            cell.covers,
            "{} CI {:?} misses exact {} at {} devices",
            cell.engine, cell.ci, cell.exact, cell.devices
        );
    }
    if !smoke {
        for (devices, workers, speedup) in speedups(&cells) {
            if devices == 1222 {
                assert!(
                    speedup >= 8.0,
                    "wide kernel must clear 8x over scalar at {devices} devices / {workers} worker(s), got {speedup:.2}x"
                );
            }
        }
        // Worker scaling: trials/sec must be monotone non-decreasing in
        // workers (5% noise floor) — but only across counts the host can
        // actually run in parallel. A 4-worker column on a 1-CPU host
        // measures oversubscription, not the kernel, so it is recorded
        // (with `host_cpus` for context) and exempted.
        for (devices, _) in campuses() {
            let sweep: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.devices == devices && c.engine == "wide" && c.workers <= all_cores)
                .collect();
            for pair in sweep.windows(2) {
                assert!(
                    pair[1].trials_per_sec() >= 0.95 * pair[0].trials_per_sec(),
                    "wide throughput fell from {:.0}/s at {} worker(s) to {:.0}/s at {} \
                     worker(s) on {devices} devices (host_cpus={all_cores})",
                    pair[0].trials_per_sec(),
                    pair[0].workers,
                    pair[1].trials_per_sec(),
                    pair[1].workers,
                );
            }
        }
    }

    let json = render_json(smoke, all_cores, &cells);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));

    println!(
        "montecarlo bench → {out} (wide kernel: {})",
        wide_kernel_name()
    );
    println!(
        "{:>8} {:>10} {:>8} {:>9} {:>15} {:>12} {:>7}",
        "devices", "engine", "workers", "samples", "trials/sec", "estimate", "covers"
    );
    for cell in &cells {
        println!(
            "{:>8} {:>10} {:>8} {:>9} {:>15.0} {:>12.6} {:>7}",
            cell.devices,
            cell.engine,
            cell.workers,
            cell.samples,
            cell.trials_per_sec(),
            cell.estimate,
            cell.covers
        );
    }
    for (devices, workers, speedup) in speedups(&cells) {
        println!("wide speedup vs scalar @ {devices} devices / {workers} worker(s): {speedup:.2}x");
    }
    for (devices, workers, ratio) in posterior_overhead(&cells) {
        println!(
            "posterior vs point throughput @ {devices} devices / {workers} worker(s): {ratio:.2}x"
        );
    }
    for (devices, workers, scaling, efficiency) in parallel_efficiency(&cells) {
        println!(
            "wide scaling @ {devices} devices: {workers} workers = {scaling:.2}x \
             (efficiency {efficiency:.2}, host_cpus {all_cores})"
        );
    }
}

/// The worker-scaling sweep `{1, 2, 4, 8}` (+ all cores when larger),
/// pinned even on small hosts so the worker-invariance assert always
/// compares several genuinely different splits. Whether a count can be
/// expected to *speed anything up* is a separate question answered by
/// `host_cpus` in the emitted JSON — the scaling asserts only fire for
/// counts the host can actually run in parallel.
fn worker_counts(all_cores: usize) -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    if all_cores > 8 {
        counts.push(all_cores);
    }
    counts
}

/// Parallel efficiency of every multi-worker wide-kernel cell:
/// `trials/sec at w workers / (w * trials/sec at 1 worker)` per campus —
/// 1.0 is perfect linear scaling, 1/w means added workers bought nothing.
fn parallel_efficiency(cells: &[Cell]) -> Vec<(usize, usize, f64, f64)> {
    let base = |devices| {
        cells
            .iter()
            .find(|c| c.devices == devices && c.engine == "wide" && c.workers == 1)
            .expect("1-worker wide cell present")
            .trials_per_sec()
    };
    cells
        .iter()
        .filter(|c| c.engine == "wide" && c.workers > 1)
        .map(|c| {
            let scaling = c.trials_per_sec() / base(c.devices);
            (c.devices, c.workers, scaling, scaling / c.workers as f64)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn cell(
    devices: usize,
    engine: &'static str,
    workers: usize,
    samples: usize,
    iters: u32,
    start: Instant,
    mc: dependability::montecarlo::MonteCarloResult,
    exact: f64,
) -> Cell {
    Cell {
        devices,
        engine,
        workers,
        samples,
        iters,
        total_ns: start.elapsed().as_nanos(),
        estimate: mc.estimate,
        ci: mc.confidence_95(),
        exact,
        covers: mc.covers(exact),
    }
}

/// Builds a deterministic estimator whose traces are sampled from the
/// model's own authored MTBF/MTTR for the first few components — the
/// refined model stays statistically consistent with the authored one.
fn synthetic_estimator(model: &ServiceAvailabilityModel) -> ParamEstimator {
    let mut state = SEED | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    let mut est = ParamEstimator::new();
    for component in model.components.iter().take(OBSERVED_COMPONENTS) {
        let mut ts = 0u64;
        est.observe(&component.name, true, ts).expect("trace start");
        for _ in 0..SOJOURNS {
            ts += (((-component.mtbf * next().ln()) * 3600.0).ceil() as u64).max(1);
            est.observe(&component.name, false, ts).expect("failure");
            ts += (((-component.mttr * next().ln()) * 3600.0).ceil() as u64).max(1);
            est.observe(&component.name, true, ts).expect("repair");
        }
    }
    est
}

/// Block-resampling cost: posterior vs point wide-kernel trials/sec at
/// equal worker counts, per campus (1.0 = free, lower = overhead).
fn posterior_overhead(cells: &[Cell]) -> Vec<(usize, usize, f64)> {
    let find = |devices, engine, workers| {
        cells
            .iter()
            .find(|c| c.devices == devices && c.engine == engine && c.workers == workers)
            .expect("cell present")
            .trials_per_sec()
    };
    cells
        .iter()
        .filter(|c| c.engine == "posterior")
        .map(|c| {
            (
                c.devices,
                c.workers,
                c.trials_per_sec() / find(c.devices, "wide", c.workers),
            )
        })
        .collect()
}

/// Wide vs scalar trials/sec at equal worker counts, per campus.
fn speedups(cells: &[Cell]) -> Vec<(usize, usize, f64)> {
    let find = |devices, engine, workers| {
        cells
            .iter()
            .find(|c| c.devices == devices && c.engine == engine && c.workers == workers)
            .expect("cell present")
            .trials_per_sec()
    };
    cells
        .iter()
        .filter(|c| c.engine == "wide")
        .map(|c| {
            (
                c.devices,
                c.workers,
                c.trials_per_sec() / find(c.devices, "scalar", c.workers),
            )
        })
        .collect()
}

/// Hand-rolled JSON (numbers + fixed keys only; nothing needs escaping).
fn render_json(smoke: bool, host_cpus: usize, cells: &[Cell]) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"montecarlo\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"wide_kernel\": \"{}\",\n", wide_kernel_name()));
    json.push_str("  \"pair\": \"t0_0_0 -> srv0 (fetch, 5 atomic services)\",\n");
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"devices\": {}, \"engine\": \"{}\", \"workers\": {}, \"samples\": {}, \
             \"iters\": {}, \"total_ns\": {}, \"trials_per_sec\": {:.0}, \"estimate\": {:.9}, \
             \"ci95\": [{:.9}, {:.9}], \"exact\": {:.9}, \"covers\": {}}}{}\n",
            cell.devices,
            cell.engine,
            cell.workers,
            cell.samples,
            cell.iters,
            cell.total_ns,
            cell.trials_per_sec(),
            cell.estimate,
            cell.ci.0,
            cell.ci.1,
            cell.exact,
            cell.covers,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"wide_speedup_vs_scalar\": [");
    let ratios = speedups(cells);
    for (i, (devices, workers, speedup)) in ratios.iter().enumerate() {
        json.push_str(&format!(
            "{{\"devices\": {devices}, \"workers\": {workers}, \"speedup\": {speedup:.3}}}{}",
            if i + 1 == ratios.len() { "" } else { ", " }
        ));
    }
    json.push_str("],\n");
    json.push_str("  \"posterior_vs_point\": [");
    let overheads = posterior_overhead(cells);
    for (i, (devices, workers, ratio)) in overheads.iter().enumerate() {
        json.push_str(&format!(
            "{{\"devices\": {devices}, \"workers\": {workers}, \"throughput_ratio\": {ratio:.3}}}{}",
            if i + 1 == overheads.len() { "" } else { ", " }
        ));
    }
    json.push_str("],\n");
    json.push_str("  \"parallel_efficiency\": [");
    let efficiencies = parallel_efficiency(cells);
    for (i, (devices, workers, scaling, efficiency)) in efficiencies.iter().enumerate() {
        json.push_str(&format!(
            "{{\"devices\": {devices}, \"workers\": {workers}, \"scaling\": {scaling:.3}, \
             \"parallel_efficiency\": {efficiency:.3}}}{}",
            if i + 1 == efficiencies.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    json.push_str("]\n");
    json.push_str("}\n");
    json
}
