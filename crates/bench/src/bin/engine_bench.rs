//! Engine throughput benchmark: queries/sec through the resident engine
//! on the USI case study — cold (every perspective evaluated), warm
//! (served from the perspective cache), a two-model contention cell
//! where one shard answers warm queries while a neighbour shard absorbs
//! a continuous UPDATE storm, and a connections × pipelining matrix
//! against the real TCP front-end (idle fleets parked on the reactor
//! while one client drives pipelined queries). Emitted as
//! `BENCH_engine.json` for CI tracking.
//!
//! Usage:
//!   `engine_bench [--smoke] [--out <path>]`
//!
//! The contention cell doubles as an isolation check: the queried
//! shard's epoch must stay 0 and its availabilities bit-identical to
//! the uncontended baseline — a neighbour's update storm may cost some
//! throughput (lock and allocator pressure) but never correctness.
//! The pipelining matrix doubles as the capacity check: the process
//! thread count is recorded at peak connections (a thread-per-connection
//! server could not hold thousands of sockets on a handful of threads),
//! and the full run asserts depth-64 pipelining beats sequential
//! round-trips by ≥ 3×.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netgen::usi::{
    all_printing_perspectives, perspective_mapping, printing_service, usi_infrastructure,
};
use upsim_server::{Engine, EngineConfig, ModelSnapshot, ModelSpec, UpdateCommand};

/// One timed cell of the scenario × workers matrix.
struct Cell {
    scenario: &'static str,
    workers: usize,
    queries: u64,
    cache_hits: u64,
    total_ns: u128,
}

impl Cell {
    fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / (self.total_ns as f64 / 1e9)
    }
}

/// One timed cell of the connections × pipelining matrix: `queries` warm
/// queries driven at window `depth` over one connection while `idle`
/// other connections sit parked on the reactor.
struct PipeCell {
    idle: usize,
    depth: usize,
    queries: u64,
    total_ns: u128,
}

impl PipeCell {
    fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / (self.total_ns as f64 / 1e9)
    }
}

fn usi_spec(name: &str) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        snapshot: ModelSnapshot::new(usi_infrastructure(), printing_service())
            .expect("USI models are consistent"),
        mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
    }
}

fn two_model_engine(workers: usize) -> Engine {
    Engine::with_models(
        vec![usi_spec("served"), usi_spec("churned")],
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
    .expect("two distinct names register")
}

fn pairs() -> Vec<(String, String)> {
    all_printing_perspectives()
        .iter()
        .map(|(c, p, _)| (c.clone(), p.clone()))
        .collect()
}

/// Drives `rounds` full sweeps of every USI perspective through one
/// shard, returning (queries, cache hits, availabilities of the last
/// sweep in pair order).
fn sweep(
    engine: &Engine,
    model: Option<&str>,
    pairs: &[(String, String)],
    rounds: u32,
) -> (u64, u64, Vec<u64>) {
    let mut queries = 0u64;
    let mut hits = 0u64;
    let mut last = Vec::new();
    for round in 0..rounds {
        if round + 1 == rounds {
            last = Vec::with_capacity(pairs.len());
        }
        for (client, provider) in pairs {
            let (entry, hit) = engine
                .query_traced_on(model, client, provider)
                .expect("USI perspective evaluates");
            queries += 1;
            hits += u64::from(hit);
            if round + 1 == rounds {
                last.push(entry.availability.to_bits());
            }
        }
    }
    (queries, hits, last)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_engine.json")
        .to_string();

    let all_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cold_iters: u32 = if smoke { 1 } else { 3 };
    let warm_rounds: u32 = if smoke { 20 } else { 400 };
    let the_pairs = pairs();
    assert_eq!(the_pairs.len(), 45);
    let mut cells: Vec<Cell> = Vec::new();

    for workers in worker_counts(all_cores) {
        // Cold: every perspective evaluated through the pipeline (a
        // fresh engine per iteration so nothing is resident).
        let mut queries = 0u64;
        let mut hits = 0u64;
        let start = Instant::now();
        for _ in 0..cold_iters {
            let engine = Engine::new(
                ModelSnapshot::new(usi_infrastructure(), printing_service())
                    .expect("USI models are consistent"),
                EngineConfig {
                    workers,
                    mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
                    ..EngineConfig::default()
                },
            );
            let (q, h, _) = sweep(&engine, None, &the_pairs, 1);
            queries += q;
            hits += h;
            engine.shutdown();
        }
        cells.push(Cell {
            scenario: "cold",
            workers,
            queries,
            cache_hits: hits,
            total_ns: start.elapsed().as_nanos(),
        });

        // Warm: the same sweep against a resident, fully cached engine.
        let engine = two_model_engine(workers);
        sweep(&engine, Some("served"), &the_pairs, 1); // prime the cache
        let start = Instant::now();
        let (queries, hits, _) = sweep(&engine, Some("served"), &the_pairs, warm_rounds);
        cells.push(Cell {
            scenario: "warm",
            workers,
            queries,
            cache_hits: hits,
            total_ns: start.elapsed().as_nanos(),
        });
        engine.shutdown();
    }

    // Two-model contention: the served shard answers the same warm sweep
    // while the churned shard absorbs a disconnect/connect storm from a
    // second thread. Baseline first (same engine shape, no storm) so the
    // ratio isolates the storm's cost.
    let engine = two_model_engine(all_cores);
    sweep(&engine, Some("served"), &the_pairs, 1);
    let start = Instant::now();
    let (queries, hits, baseline_bits) = sweep(&engine, Some("served"), &the_pairs, warm_rounds);
    cells.push(Cell {
        scenario: "two-model-baseline",
        workers: all_cores,
        queries,
        cache_hits: hits,
        total_ns: start.elapsed().as_nanos(),
    });

    let stop = Arc::new(AtomicBool::new(false));
    let storm_engine = engine.clone();
    let storm_stop = Arc::clone(&stop);
    let storm = std::thread::spawn(move || {
        let mut updates = 0u64;
        while !storm_stop.load(Ordering::Relaxed) {
            storm_engine
                .update_on(
                    Some("churned"),
                    UpdateCommand::Disconnect {
                        a: "d1".into(),
                        b: "c2".into(),
                    },
                )
                .expect("storm disconnect");
            storm_engine
                .update_on(
                    Some("churned"),
                    UpdateCommand::Connect {
                        a: "d1".into(),
                        b: "c2".into(),
                    },
                )
                .expect("storm reconnect");
            updates += 2;
        }
        updates
    });
    let start = Instant::now();
    let (queries, hits, contended_bits) = sweep(&engine, Some("served"), &the_pairs, warm_rounds);
    let contended_ns = start.elapsed().as_nanos();
    stop.store(true, Ordering::Relaxed);
    let storm_updates = storm.join().expect("storm thread");
    cells.push(Cell {
        scenario: "two-model-contended",
        workers: all_cores,
        queries,
        cache_hits: hits,
        total_ns: contended_ns,
    });

    // Isolation is a hard invariant, whatever the throughput: the storm
    // never touched the served shard.
    assert_eq!(
        engine.epoch_of("served"),
        Ok(0),
        "update storm leaked into the served shard's epoch"
    );
    assert!(
        engine.epoch_of("churned").expect("churned resolves") >= storm_updates,
        "storm updates went missing"
    );
    assert_eq!(
        baseline_bits, contended_bits,
        "served availabilities drifted under a neighbour's update storm"
    );
    engine.shutdown();

    // Warm sweeps are all cache hits after priming.
    for cell in &cells {
        if cell.scenario != "cold" {
            assert_eq!(
                cell.cache_hits, cell.queries,
                "{}: warm sweep missed the cache",
                cell.scenario
            );
        }
    }

    let contention_ratio = {
        let find = |scenario: &str| {
            cells
                .iter()
                .find(|c| c.scenario == scenario)
                .expect("cell present")
                .queries_per_sec()
        };
        find("two-model-contended") / find("two-model-baseline")
    };

    // Connections × pipelining against the real TCP front-end. Smoke
    // keeps the fleet small enough for CI's default fd limit; the full
    // run parks 8192 sockets on the reactor.
    let idle_counts: &[usize] = if smoke {
        &[1, 64, 256]
    } else {
        &[1, 64, 1024, 8192]
    };
    let depths = [1usize, 8, 64];
    let pipe_queries: u64 = if smoke { 2_000 } else { 20_000 };
    let (pipe_cells, threads_at_peak) = pipeline_matrix(idle_counts, &depths, pipe_queries);

    let pipelined_speedup = {
        let max_idle = *idle_counts.last().expect("at least one idle count");
        let find = |depth: usize| {
            pipe_cells
                .iter()
                .find(|c| c.idle == max_idle && c.depth == depth)
                .expect("matrix cell present")
                .queries_per_sec()
        };
        find(64) / find(1)
    };
    if !smoke {
        assert!(
            pipelined_speedup >= 3.0,
            "depth-64 pipelining only {pipelined_speedup:.2}x over sequential round-trips"
        );
    }

    let json = render_json(
        smoke,
        all_cores,
        &cells,
        storm_updates,
        contention_ratio,
        &pipe_cells,
        threads_at_peak,
        pipelined_speedup,
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));

    println!("engine bench → {out}");
    println!(
        "{:>20} {:>8} {:>9} {:>10} {:>15}",
        "scenario", "workers", "queries", "hits", "queries/sec"
    );
    for cell in &cells {
        println!(
            "{:>20} {:>8} {:>9} {:>10} {:>15.0}",
            cell.scenario,
            cell.workers,
            cell.queries,
            cell.cache_hits,
            cell.queries_per_sec()
        );
    }
    println!(
        "contended/baseline throughput ratio: {contention_ratio:.3} ({storm_updates} storm updates absorbed)"
    );
    println!(
        "{:>20} {:>8} {:>9} {:>15}",
        "idle conns", "depth", "queries", "queries/sec"
    );
    for cell in &pipe_cells {
        println!(
            "{:>20} {:>8} {:>9} {:>15.0}",
            cell.idle,
            cell.depth,
            cell.queries,
            cell.queries_per_sec()
        );
    }
    println!(
        "depth-64 pipelining speedup at peak fleet: {pipelined_speedup:.2}x \
         ({threads_at_peak} process threads at peak connections)"
    );
}

/// Runs the connections × pipelining matrix: one server on an ephemeral
/// port, an idle fleet grown to each target size, and one active client
/// driving `queries` warm `QUERY` lines per depth with a sliding window.
/// Returns the timed cells plus the process thread count observed at
/// peak fleet size — the "no thread per connection" evidence.
fn pipeline_matrix(idle_counts: &[usize], depths: &[usize], queries: u64) -> (Vec<PipeCell>, u64) {
    let engine = Engine::new(
        ModelSnapshot::new(usi_infrastructure(), printing_service())
            .expect("USI models are consistent"),
        EngineConfig {
            workers: 2,
            mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
            ..EngineConfig::default()
        },
    );
    // The fleet plus the active client must fit under the connection cap,
    // or the last socket is shed with `ERR server busy`.
    let max_idle = idle_counts.iter().copied().max().unwrap_or(0);
    let server = upsim_server::serve_with(
        engine,
        "127.0.0.1:0",
        upsim_server::ServerConfig {
            max_connections: max_idle + 16,
            ..upsim_server::ServerConfig::default()
        },
    )
    .expect("bind bench server");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect active client");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    // Prime the cache so every timed query is a warm hit.
    writer.write_all(b"QUERY t1 p1\n").expect("prime query");
    writer.flush().expect("prime flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("prime response");
    assert!(line.starts_with("OK query "), "priming failed: {line}");

    let mut idle: Vec<TcpStream> = Vec::new();
    let mut cells = Vec::new();
    let mut threads_at_peak = 0u64;
    for &target in idle_counts {
        while idle.len() < target {
            idle.push(TcpStream::connect(addr).expect("open idle connection"));
        }
        // Wait until the reactor has registered the whole fleet (+1 for
        // the active client) before timing anything.
        let deadline = Instant::now() + Duration::from_secs(60);
        while (server.metrics().open_connections.load(Ordering::Relaxed) as usize) < target + 1 {
            assert!(
                Instant::now() < deadline,
                "reactor absorbed only {} of {} connections",
                server.metrics().open_connections.load(Ordering::Relaxed),
                target + 1
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        threads_at_peak = process_thread_count();
        for &depth in depths {
            let total_ns = pipelined_sweep(&mut reader, &mut writer, depth, queries);
            cells.push(PipeCell {
                idle: target,
                depth,
                queries,
                total_ns,
            });
        }
    }

    drop(idle);
    drop(reader);
    drop(writer);
    server.stop();
    server.join();
    (cells, threads_at_peak)
}

/// Drives `count` warm `QUERY t1 p1` lines in bursts of `depth` — the
/// protocol's pipelining shape (N commands written before N replies are
/// read, one write per burst); returns the elapsed nanoseconds.
fn pipelined_sweep(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    depth: usize,
    count: u64,
) -> u128 {
    const REQUEST: &[u8] = b"QUERY t1 p1\n";
    let burst_buf: Vec<u8> = REQUEST.repeat(depth);
    let start = Instant::now();
    let mut done = 0u64;
    let mut line = String::new();
    while done < count {
        let burst = depth.min((count - done) as usize);
        writer
            .write_all(&burst_buf[..burst * REQUEST.len()])
            .expect("send burst");
        writer.flush().expect("flush burst");
        for _ in 0..burst {
            line.clear();
            let n = reader.read_line(&mut line).expect("read response");
            assert!(n > 0, "server closed mid-pipeline");
            assert!(line.starts_with("OK query "), "unexpected reply: {line}");
        }
        done += burst as u64;
    }
    start.elapsed().as_nanos()
}

/// The process's live thread count from `/proc/self/status` (0 where the
/// file is unavailable) — with thousands of connections open this stays
/// at main + reactor + workers.
fn process_thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// `{1, all cores}`, deduplicated on a single-core host.
fn worker_counts(all_cores: usize) -> Vec<usize> {
    if all_cores > 1 {
        vec![1, all_cores]
    } else {
        vec![1]
    }
}

/// Hand-rolled JSON (numbers + fixed keys only; nothing needs escaping).
#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    host_cpus: usize,
    cells: &[Cell],
    storm_updates: u64,
    contention_ratio: f64,
    pipe_cells: &[PipeCell],
    threads_at_peak: u64,
    pipelined_speedup: f64,
) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"engine\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str("  \"workload\": \"45 USI perspectives per sweep (printS)\",\n");
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"workers\": {}, \"queries\": {}, \"cache_hits\": {}, \
             \"total_ns\": {}, \"queries_per_sec\": {:.0}}}{}\n",
            cell.scenario,
            cell.workers,
            cell.queries,
            cell.cache_hits,
            cell.total_ns,
            cell.queries_per_sec(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"storm_updates\": {storm_updates},\n"));
    json.push_str(&format!(
        "  \"contended_vs_baseline\": {contention_ratio:.3},\n"
    ));
    json.push_str("  \"pipelining\": [\n");
    for (i, cell) in pipe_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"idle_connections\": {}, \"depth\": {}, \"queries\": {}, \"total_ns\": {}, \
             \"queries_per_sec\": {:.0}}}{}\n",
            cell.idle,
            cell.depth,
            cell.queries,
            cell.total_ns,
            cell.queries_per_sec(),
            if i + 1 == pipe_cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"threads_at_peak_connections\": {threads_at_peak},\n"
    ));
    json.push_str(&format!(
        "  \"pipelined_speedup_depth64\": {pipelined_speedup:.2}\n"
    ));
    json.push_str("}\n");
    json
}
