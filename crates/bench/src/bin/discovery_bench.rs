//! Discovery micro-benchmark: cold/warm × pruned/unpruned Step-7 path
//! discovery on generated campus networks (44, 358, 1222 devices),
//! emitted as `BENCH_discovery.json` for E9/E11 and CI tracking.
//!
//! Usage:
//!   `discovery_bench [--smoke] [--out <path>]`
//!
//! * `cold`  — every iteration starts from a fresh [`DiscoveryWorkspace`]
//!   (first-query allocation profile),
//! * `warm`  — one workspace reused across iterations (resident-engine
//!   steady state; buffers sit at their high-water mark),
//! * `pruned`/`unpruned` — block-cut-tree DFS masking on or off.
//!
//! The graph (interning + block-cut tree) is built once per campus and
//! shared by all four variants, so the numbers isolate the enumeration
//! itself — exactly what `ict_graph::prune` accelerates. `--smoke` runs a
//! single timed iteration per cell for CI.

use std::time::Instant;

use netgen::campus::{campus_infrastructure, CampusParams};
use upsim_core::discovery::{discover_with_workspace, DiscoveryOptions, DiscoveryWorkspace};
use upsim_core::mapping::ServiceMappingPair;

/// One timed cell of the cold/warm × pruned/unpruned × size matrix.
struct Cell {
    devices: usize,
    mode: &'static str,
    pruned: bool,
    iters: u32,
    total_ns: u128,
    paths: usize,
}

impl Cell {
    fn ns_per_iter(&self) -> f64 {
        self.total_ns as f64 / f64::from(self.iters.max(1))
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
        .unwrap_or("BENCH_discovery.json")
        .to_string();

    let pair = ServiceMappingPair::new("request", "t0_0_0", "srv0");
    let mut cells: Vec<Cell> = Vec::new();

    for (devices, params) in campuses() {
        assert_eq!(params.device_count(), devices, "campus shape drifted");
        let infra = campus_infrastructure(params);
        let view = infra.to_interned_graph();
        // Iteration budget scales down with network size; smoke mode runs
        // one measured iteration per cell so CI stays fast.
        let iters: u32 = if smoke {
            1
        } else {
            match devices {
                0..=99 => 200,
                100..=599 => 50,
                _ => 10,
            }
        };
        for pruned in [true, false] {
            let options = DiscoveryOptions {
                prune: pruned,
                ..Default::default()
            };
            // Cold: a fresh workspace every iteration.
            let mut paths = 0;
            let start = Instant::now();
            for _ in 0..iters {
                let mut workspace = DiscoveryWorkspace::default();
                let found = discover_with_workspace(&view, &pair, options, &mut workspace)
                    .expect("campus pair resolves");
                paths = found.len();
            }
            cells.push(Cell {
                devices,
                mode: "cold",
                pruned,
                iters,
                total_ns: start.elapsed().as_nanos(),
                paths,
            });
            // Warm: one workspace reused, first call excluded from timing
            // so buffers are already at their high-water mark.
            let mut workspace = DiscoveryWorkspace::default();
            discover_with_workspace(&view, &pair, options, &mut workspace)
                .expect("campus pair resolves");
            let start = Instant::now();
            for _ in 0..iters {
                let found = discover_with_workspace(&view, &pair, options, &mut workspace)
                    .expect("campus pair resolves");
                paths = found.len();
            }
            cells.push(Cell {
                devices,
                mode: "warm",
                pruned,
                iters,
                total_ns: start.elapsed().as_nanos(),
                paths,
            });
        }
    }

    // Pruning must not change what is found — assert it here too, not just
    // in the proptests, so a regression also fails the bench job.
    for (devices, _) in campuses() {
        let per_size: Vec<&Cell> = cells.iter().filter(|c| c.devices == devices).collect();
        let counts: Vec<usize> = per_size.iter().map(|c| c.paths).collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "path counts diverged at {devices} devices: {counts:?}"
        );
    }

    let json = render_json(smoke, &cells);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));

    println!("discovery bench → {out}");
    println!(
        "{:>8} {:>6} {:>9} {:>7} {:>14} {:>8}",
        "devices", "mode", "variant", "iters", "ns/iter", "paths"
    );
    for cell in &cells {
        println!(
            "{:>8} {:>6} {:>9} {:>7} {:>14.0} {:>8}",
            cell.devices,
            cell.mode,
            if cell.pruned { "pruned" } else { "unpruned" },
            cell.iters,
            cell.ns_per_iter(),
            cell.paths
        );
    }
    for (devices, speedup) in cold_speedups(&cells) {
        println!("cold speedup (pruned vs unpruned) @ {devices} devices: {speedup:.2}x");
    }
}

/// Cold pruned-vs-unpruned speedup per campus size.
fn cold_speedups(cells: &[Cell]) -> Vec<(usize, f64)> {
    let find = |devices, pruned| {
        cells
            .iter()
            .find(|c| c.devices == devices && c.mode == "cold" && c.pruned == pruned)
            .expect("cell present")
            .ns_per_iter()
    };
    cells
        .iter()
        .filter(|c| c.mode == "cold" && c.pruned)
        .map(|c| (c.devices, find(c.devices, false) / find(c.devices, true)))
        .collect()
}

/// Hand-rolled JSON (numbers + fixed keys only; nothing needs escaping).
fn render_json(smoke: bool, cells: &[Cell]) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"discovery\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"pair\": \"t0_0_0 -> srv0\",\n");
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"devices\": {}, \"mode\": \"{}\", \"pruned\": {}, \"iters\": {}, \
             \"total_ns\": {}, \"ns_per_iter\": {:.1}, \"paths\": {}}}{}\n",
            cell.devices,
            cell.mode,
            cell.pruned,
            cell.iters,
            cell.total_ns,
            cell.ns_per_iter(),
            cell.paths,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"cold_speedup_pruned_vs_unpruned\": {");
    let speedups = cold_speedups(cells);
    for (i, (devices, speedup)) in speedups.iter().enumerate() {
        json.push_str(&format!(
            "\"{devices}\": {speedup:.3}{}",
            if i + 1 == speedups.len() { "" } else { ", " }
        ));
    }
    json.push_str("}\n}\n");
    json
}
