//! End-to-end benchmark of `upsim serve` over TCP.
//!
//! ```text
//! perfbench --upsim <path/to/upsim> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--detail <file.json>]
//! perfbench --describe
//! ```
//!
//! `--trace 0` boots the real server at least seven times (set-up time
//! is the median of the least-stolen tenth), replays the workload's
//! seeded request stream over TCP for `--seconds`, checks every reply,
//! and reports the end-to-end metrics over the least-stolen tenth of
//! the timed phase's windows. `--trace 1` runs the workload once,
//! untimed, reads the server's `STATS` counters, then replays the same
//! request sequence in-process through the layers' public functions —
//! once untraced, once with a span around every layer call — and
//! reports the per-layer metrics, the unattributed share and the tracing
//! overhead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod mirror;
mod model;
mod procfs;
mod server;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use upsim_server::persist;

use crate::mirror::Mirror;
use crate::server::Server;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::wire::Served;
use crate::workloads::{Phase, Workload};

/// Server starts per timed run: at least `SETUPS_MIN`, more while they
/// take under `SETUPS_SECONDS` in total (at most `SETUPS_MAX`), so a
/// short set-up is sampled more often than a slow one; `setup_s` is
/// the median of their least-stolen tenth.
const SETUPS_MIN: usize = 7;
const SETUPS_MAX: usize = 41;
const SETUPS_SECONDS: f64 = 3.0;

/// Hit round trips timed by the wire probe of the traced run.
const PROBES: usize = 400;

/// Most timed requests the in-process replay re-executes.
const REPLAY_CAP: usize = 20_000;

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
/// Every workload reports each of them; the latency is over all of a
/// workload's timed requests in the kept windows, whatever their verb,
/// and the CPU time over the same windows. Tails are printed per
/// verb but not gated: on a shared host whose hypervisor steals 10-25% of
/// the CPU in some phases, a p95 grew sixfold while the median grew by a
/// quarter.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("server_cpu_us_per_op", "us"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
/// Counters of a layer the workload leaves idle read 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("wire.overhead_us", "us"),
    ("reactor.pipelined_depth_p50", "count"),
    ("reactor.busy_rejections", "count"),
    ("protocol.parse_ns", "ns"),
    ("protocol.render_ns", "ns"),
    ("cache.probe_ns", "ns"),
    ("cache.hit_ratio", "share"),
    ("cache.invalidate_us", "us"),
    ("cache.invalidated_per_write", "count"),
    ("engine.worker_busy_us_per_op", "us"),
    ("engine.queue_wait_us", "us"),
    ("engine.scatter_chunks", "count"),
    ("pipeline.run_us", "us"),
    ("pipeline.import_models_us", "us"),
    ("pipeline.import_mapping_us", "us"),
    ("pipeline.discovery_us", "us"),
    ("pipeline.upsim_us", "us"),
    ("pipeline.evals", "count"),
    ("discovery.paths_per_eval", "count"),
    ("availability.transform_us", "us"),
    ("availability.bdd_us", "us"),
    ("availability.mc_compile_us", "us"),
    ("mc.point_trials_per_s", "1/s"),
    ("mc.posterior_trials_per_s", "1/s"),
    ("mc.run_us", "us"),
    ("campaign.prepare_us", "us"),
    ("campaign.scenario_us", "us"),
    ("campaign.scenarios_per_s", "1/s"),
    ("campaign.crn_reuse", "count"),
    ("snapshot.apply_us", "us"),
    ("snapshot.intern_us", "us"),
    ("persist.append_us", "us"),
    ("persist.bytes_per_write", "B"),
    ("persist.restore_ms", "ms"),
    ("loadgen.lag_ms", "ms"),
    ("unattributed_share", "share"),
    ("trace.overhead_share", "share"),
];

struct Args {
    upsim: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    detail: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        upsim: PathBuf::from(need("--upsim")?),
        workload: need("--workload")?.to_string(),
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed expects an integer")?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
        out_dir: PathBuf::from(value("--out-dir").unwrap_or(".bench_out")),
        detail: value("--detail").map(PathBuf::from),
    })
}

/// What a run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed ahead of the result line.
    report: Vec<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--describe") {
        println!("{}", describe());
        return;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let dir = args.out_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let result = result.and_then(|outcome| {
        match outcome
            .metrics
            .iter()
            .find(|m| !stats::valid_metric_name(m.0))
        {
            Some(bad) => Err(format!("invalid metric name `{}`", bad.0)),
            None => Ok(outcome),
        }
    });
    match result {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            if let Some(path) = &args.detail {
                if let Err(e) = std::fs::write(path, detail_json(&args, &outcome)) {
                    eprintln!("perfbench: write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            println!("{}", result_line(&outcome));
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut workload = workloads::by_name(&args.workload, args.seed, dir)?;
    let server_cpu = if workload.separate_cpus() {
        bind_apart()
    } else {
        None
    };
    let mut outcome = if args.trace {
        traced_run(args, workload.as_mut(), dir, server_cpu)
    } else {
        timed_run(args, workload.as_mut(), server_cpu)
    }?;
    outcome.report.insert(
        1,
        match server_cpu {
            Some(cpu) => format!("  server bound to CPU {cpu}, load generator to another"),
            None => "  server and load generator placed by the scheduler".into(),
        },
    );
    Ok(outcome)
}

/// Binds this process to the first CPU it may use and returns the second
/// for the server; `None` (nothing bound) with fewer than two CPUs or
/// without `taskset`.
fn bind_apart() -> Option<usize> {
    let cpus = procfs::allowed_cpus().ok()?;
    let (&own, &server) = (cpus.first()?, cpus.get(1)?);
    let bound = std::process::Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &own.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .status();
    bound.is_ok_and(|status| status.success()).then_some(server)
}

/// A started server after its warm-up.
struct SetUp {
    server: Server,
    seconds: f64,
    /// Host steal share while it started.
    steal: f64,
    /// `(round trip, server evaluation time)` in µs of the warm-up's
    /// `QUERY` misses.
    misses: Vec<(f64, f64)>,
}

/// Starts the server and runs the warm-up.
fn set_up(args: &Args, w: &mut dyn Workload, cpu: Option<usize>) -> Result<SetUp, String> {
    w.before_spawn()?;
    let ticks = procfs::cpu_ticks()?;
    let start = Instant::now();
    let server = Server::spawn(&args.upsim, &w.server_args(), cpu)?;
    let mut conn = server.connect()?;
    w.warm_up(&mut conn)?;
    Ok(SetUp {
        server,
        seconds: start.elapsed().as_secs_f64(),
        steal: procfs::steal_share(ticks, procfs::cpu_ticks()?),
        misses: conn.misses,
    })
}

/// Server-side counters and resources around the timed phase.
struct Timed {
    phase: Phase,
    /// Wall time from the start of the phase to its last reply.
    elapsed: Duration,
    stats_before: BTreeMap<String, f64>,
    stats_after: BTreeMap<String, f64>,
    rss_mb: f64,
    journal_growth: u64,
}

fn measure(server: &Server, w: &dyn Workload, seconds: f64) -> Result<Timed, String> {
    let pid = server.pid();
    let mut conn = server.connect()?;
    let stats_before = server::stats(&mut conn)?;
    let journal_before = w.journal_bytes();
    let start = Instant::now();
    let phase = w.timed(server, start + Duration::from_secs_f64(seconds))?;
    let elapsed = start.elapsed();
    let journal_growth = w
        .journal_bytes()
        .unwrap_or(0)
        .saturating_sub(journal_before.unwrap_or(0));
    let stats_after = server::stats(&mut conn)?;
    Ok(Timed {
        phase,
        elapsed,
        stats_before,
        stats_after,
        rss_mb: procfs::peak_rss_mb(pid)?,
        journal_growth,
    })
}

impl Timed {
    fn delta(&self, key: &str) -> f64 {
        self.stats_after.get(key).copied().unwrap_or(0.0)
            - self.stats_before.get(key).copied().unwrap_or(0.0)
    }

    fn failed(&self) -> u64 {
        self.phase.done.iter().filter(|d| !d.ok).count() as u64
    }

    /// The phase's windows between consecutive samples, each with the
    /// requests that completed in it; windows without any are left out.
    fn windows(&self) -> Vec<Window> {
        let samples = &self.phase.samples;
        let mut windows: Vec<Window> = samples
            .windows(2)
            .map(|pair| Window {
                steal: procfs::steal_share(pair[0].ticks, pair[1].ticks),
                cpu_s: pair[1].cpu_s - pair[0].cpu_s,
                latencies_us: Vec::new(),
            })
            .collect();
        for d in &self.phase.done {
            // Samples are in time order; the window is the one whose end
            // sample is the first taken at or after the completion.
            let end = samples.partition_point(|s| s.at < d.completed);
            if let Some(window) = end.checked_sub(1).and_then(|i| windows.get_mut(i)) {
                window.latencies_us.push(d.latency.as_secs_f64() * 1e6);
            }
        }
        windows.retain(|w| !w.latencies_us.is_empty());
        windows
    }

    /// Host steal share over the whole phase.
    fn steal(&self) -> f64 {
        match (self.phase.samples.first(), self.phase.samples.last()) {
            (Some(a), Some(b)) => procfs::steal_share(a.ticks, b.ticks),
            _ => 0.0,
        }
    }

    /// Round-trip latencies, in µs, of the requests whose class passes
    /// `keep`.
    fn latencies(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.phase
            .done
            .iter()
            .filter(|d| keep(d.class))
            .map(|d| d.latency.as_secs_f64() * 1e6)
            .collect()
    }

    fn max_lag_ms(&self) -> f64 {
        self.phase
            .done
            .iter()
            .map(|d| d.lag.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }
}

/// A stretch of the timed phase between two samples.
struct Window {
    steal: f64,
    /// Server CPU seconds spent in it.
    cpu_s: f64,
    /// Round trips of the requests that completed in it.
    latencies_us: Vec<f64>,
}

/// The timed phase's requests over the least-stolen tenth of its windows:
/// their median round trip, the server CPU time per request, and what
/// was kept.
struct Quiet {
    p50_us: f64,
    cpu_us_per_op: f64,
    windows: usize,
    of_windows: usize,
    requests: usize,
    max_steal: f64,
}

impl Quiet {
    fn of(windows: Vec<Window>) -> Option<Quiet> {
        let of_windows = windows.len();
        let kept = stats::least_stolen(windows.into_iter().map(|w| (w.steal, w)).collect());
        let latencies: Vec<f64> = kept
            .iter()
            .flat_map(|w| w.latencies_us.iter().copied())
            .collect();
        if latencies.is_empty() {
            return None;
        }
        let cpu_s: f64 = kept.iter().map(|w| w.cpu_s).sum();
        Some(Quiet {
            p50_us: stats::median(&latencies),
            cpu_us_per_op: cpu_s * 1e6 / latencies.len() as f64,
            windows: kept.len(),
            of_windows,
            requests: latencies.len(),
            max_steal: kept.iter().map(|w| w.steal).fold(0.0, f64::max),
        })
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn timed_run(
    args: &Args,
    w: &mut dyn Workload,
    server_cpu: Option<usize>,
) -> Result<Outcome, String> {
    let spec = workloads::describe(w.name());
    let mut setups = Vec::new();
    let server = loop {
        let s = set_up(args, w, server_cpu)?;
        setups.push((s.steal, s.seconds));
        let total: f64 = setups.iter().map(|s| s.1).sum();
        if setups.len() >= SETUPS_MAX || (setups.len() >= SETUPS_MIN && total >= SETUPS_SECONDS) {
            break s.server;
        }
        s.server.stop()?;
    };
    let t = measure(&server, w, args.seconds)?;
    let checks = w.verify(&server, &t.phase)?;
    server.stop()?;

    let quiet = Quiet::of(t.windows()).ok_or("the timed phase completed no request")?;
    let setup_count = setups.len();
    let quiet_setups = stats::least_stolen(setups);
    let attempted = t.phase.done.len() as u64 + checks.attempted;
    let failed = t.failed() + checks.failed;
    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&quiet_setups)),
        ("latency_p50_us", quiet.p50_us),
        ("server_cpu_us_per_op", quiet.cpu_us_per_op),
        ("server_rss_mb", t.rss_mb),
    ]
    .into_iter()
    .collect();
    let metrics: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect();

    let mut report = vec![format!(
        "{} seed={} seconds={} requests={} host_cpus={} workers={}",
        spec.name,
        args.seed,
        args.seconds,
        t.phase.done.len(),
        host_cpus(),
        server::WORKERS
    )];
    report.push(format!(
        "  setup_s = {:.4} s (median of the {} least-stolen of {} set-ups)",
        values["setup_s"],
        quiet_setups.len(),
        setup_count
    ));
    report.push(format!(
        "  latency_p50_us = {:.1} us, server_cpu_us_per_op = {:.1} us (over the {} requests of the {} least-stolen of {} {} ms windows, steal <= {:.3})",
        quiet.p50_us,
        quiet.cpu_us_per_op,
        quiet.requests,
        quiet.windows,
        quiet.of_windows,
        workloads::WINDOW.as_millis(),
        quiet.max_steal
    ));
    let all: Vec<f64> = t.latencies(|_| true);
    let cpu_s = match (t.phase.samples.first(), t.phase.samples.last()) {
        (Some(a), Some(b)) => b.cpu_s - a.cpu_s,
        _ => 0.0,
    };
    report.push(format!(
        "  whole phase: median {:.1} us, server CPU {:.1} us per request; server_rss_mb = {:.1} MB",
        stats::median(&all),
        cpu_s * 1e6 / all.len() as f64,
        t.rss_mb
    ));
    // Not gated: a gated metric is one every workload reports.
    if t.phase.open_loop {
        report.push("  throughput_ops: not reported (open loop: the schedule sets it)".into());
    } else {
        report.push(format!(
            "  throughput_ops = {:.1} ops/s (completed requests over the timed phase)",
            ratio(t.phase.done.len() as f64, t.elapsed.as_secs_f64())
        ));
    }
    let mut verbs: Vec<&str> = spec.classes.iter().map(|c| verb(c)).collect();
    verbs.dedup();
    for verb_name in verbs {
        let Some(s) = Summary::of(&t.latencies(|c| verb(spec.classes[c]) == verb_name)) else {
            continue;
        };
        let (unit, scale) = if verb_name == "campaign" {
            ("ms", 1e-3)
        } else {
            ("us", 1.0)
        };
        let tail = s.tail.map_or_else(
            || "n/a (fewer than 10 samples beyond p90)".to_string(),
            |(pct, v)| format!("{:.1} {unit} at p{pct}", v * scale),
        );
        report.push(format!(
            "  {verb_name}_p50_{unit} = {:.1} {unit}, {verb_name}_tail_{unit} = {tail} (n={})",
            s.p50 * scale,
            s.count
        ));
    }
    let lags: Vec<f64> = t
        .phase
        .done
        .iter()
        .map(|d| d.lag.as_secs_f64() * 1e3)
        .collect();
    report.push(format!(
        "  fail_ratio = {} ({failed} of {attempted}), loadgen.lag_ms = {:.3} (median {:.3})",
        ratio(failed as f64, attempted as f64),
        t.max_lag_ms(),
        stats::median(&lags)
    ));
    report.push(format!(
        "  host steal share during the timed phase = {:.3} (CPU time the hypervisor gave other guests)",
        t.steal()
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report,
    })
}

/// The verb of a request kind: `mc.point` → `mc`.
fn verb(class: &str) -> &str {
    class.split('.').next().unwrap_or(class)
}

/// The module whose public function a replay span times.
fn module_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or_default() {
        "request" => "in-process glue around the layer calls",
        "protocol" => "server::protocol",
        "cache" => "server::cache",
        "snapshot" => "server::snapshot",
        "persist" => "server::persist",
        "pipeline" if span == "pipeline.discovery" => "core::discovery (Step 7)",
        "pipeline" if span == "pipeline.upsim" => "core::generate (Step 8)",
        "pipeline" => "core::pipeline",
        "availability" => "dependability::transform/bdd/params",
        "mc" => "dependability::mcprog",
        "campaign" => "campaign::eval",
        _ => "",
    }
}

/// An in-process replay: the mirror it left, the timed requests it
/// re-executed, their wall time, and where their spans start.
struct Replay {
    mirror: Mirror,
    requests: usize,
    elapsed: Duration,
    first_timed_span: usize,
}

/// Re-executes the set-up lines, then at most `limit` timed lines (and
/// for at most `budget`, when given), each under a `request` root span.
fn replay(
    w: &dyn Workload,
    timed: &[(String, usize)],
    tr: &mut Tracer,
    limit: usize,
    budget: Option<Duration>,
) -> Result<Replay, String> {
    let mut mirror = w.mirror(tr)?;
    let mut run = |tr: &mut Tracer, line: &str| -> Result<(), String> {
        tr.next_request();
        let root = tr.enter("request");
        let result = mirror.execute(tr, line).map(|_| ());
        tr.exit(root);
        result
    };
    for line in w.warm_up_lines() {
        run(tr, &line)?;
    }
    let first_timed_span = tr.spans().len();
    let start = Instant::now();
    let mut requests = 0;
    for (line, _) in timed.iter().take(limit) {
        if budget.is_some_and(|b| start.elapsed() >= b) {
            break;
        }
        run(tr, line)?;
        requests += 1;
    }
    Ok(Replay {
        mirror,
        requests,
        elapsed: start.elapsed(),
        first_timed_span,
    })
}

/// Far above any timestamp a workload observes, so probe observations
/// always advance their component's clock.
const PROBE_TS: u64 = 1_000_000_000;

/// Times, on the workload's own model and after its replay, every layer
/// its request mix may leave uncalled: a sampled `MC`, a one-pair
/// campaign, and a journaled down/up observation of the client that is
/// then restored from the journal. Returns the bytes the observations
/// added to a journal of the probe's own (0 when the mirror already kept
/// one).
fn probe_layers(
    mirror: &mut Mirror,
    tr: &mut Tracer,
    (client, provider): &(String, String),
    dir: &Path,
) -> Result<u64, String> {
    let fallback = mirror.snapshot();
    let journal = dir.join("probe-journal");
    if !mirror.journaled() {
        std::fs::create_dir_all(&journal).map_err(|e| e.to_string())?;
        mirror.journal_to(&journal)?;
    }
    for line in [
        format!("MC {client} {provider} 100000 7 interval"),
        format!("CAMPAIGN kill-each-component pairs:{client}:{provider} mc:2000 top:1"),
        format!("OBSERVE {client} down {PROBE_TS}"),
        format!("OBSERVE {client} up {}", PROBE_TS + 600),
    ] {
        tr.next_request();
        let root = tr.enter("request");
        let result = mirror.execute(tr, &line);
        tr.exit(root);
        result?;
    }
    if !journal.exists() {
        return Ok(0);
    }
    Mirror::restored(&journal, fallback, mirror.mapper(), tr)?;
    std::fs::metadata(persist::journal_path(&journal))
        .map(|m| m.len())
        .map_err(|e| e.to_string())
}

fn traced_run(
    args: &Args,
    w: &mut dyn Workload,
    dir: &Path,
    server_cpu: Option<usize>,
) -> Result<Outcome, String> {
    let spec = workloads::describe(w.name());
    let SetUp {
        server,
        misses: warm_up_misses,
        ..
    } = set_up(args, w, server_cpu)?;
    let t = measure(&server, w, args.seconds)?;
    let checks = w.verify(&server, &t.phase)?;
    // Wire probe: hit round trips on a cached pair, one connection, at
    // the workload's own pipelining depth.
    let (client, provider) = w.probe_pair();
    let probe_line = format!("QUERY {client} {provider}");
    let mut conn = server.connect()?;
    conn.call(&probe_line).map_err(|e| e.to_string())?;
    let mut left = PROBES;
    let probe_start = Instant::now();
    let probes = wire::closed_loop(
        &mut conn,
        t.phase.depth,
        Instant::now() + wire::REPLY_TIMEOUT,
        &mut || {
            left = left.checked_sub(1)?;
            Some(wire::Request {
                line: probe_line.clone(),
                class: 0,
                due: None,
            })
        },
        &mut |_, reply| reply.contains(" source=hit "),
    )
    .map_err(|e| format!("wire probe: {e}"))?;
    let probe_us_per_op = probe_start.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
    if probes.iter().any(|d| !d.ok) {
        return Err("wire probe missed the cache".into());
    }
    drop(conn);
    server.stop()?;

    // In-process replays of the same sequence: untraced (bounded by half
    // the run length), then traced over exactly the same requests.
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let untraced = replay(
        w,
        &t.phase.issued,
        &mut Tracer::new(false),
        REPLAY_CAP,
        Some(budget),
    )?;
    let n = untraced.requests;
    let mut tr = Tracer::new(true);
    let traced = replay(w, &t.phase.issued, &mut tr, n, None)?;
    let mut mirror = traced.mirror;
    let replay_counts = mirror.counts;
    // In-process service time of the probe request, once it is a hit.
    let mut off = Tracer::new(false);
    mirror.execute(&mut off, &probe_line)?;
    let hit_start = Instant::now();
    for _ in 0..PROBES {
        mirror.execute(&mut off, &probe_line)?;
    }
    let hit_service_us = hit_start.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
    // Layers the request mix never calls are timed by one probe each.
    let before_probes = mirror.counts;
    let mut probe_tr = Tracer::new(true);
    let probe_journal_bytes = probe_layers(&mut mirror, &mut probe_tr, &w.probe_pair(), dir)?;
    let probe_counts = mirror.counts.since(&before_probes);
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-{}.tsv", spec.name, args.seed));
    tr.write_tsv(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let replayed = trace::layer_times(tr.spans());
    let probed: Vec<&str> = trace::layer_times(probe_tr.spans())
        .into_iter()
        .filter(|(name, _)| !replayed.contains_key(name))
        .map(|(name, _)| name)
        .collect();
    let mut all = replayed.clone();
    for (name, times) in trace::layer_times(probe_tr.spans()) {
        all.entry(name).or_insert(times);
    }
    let counts_of = |span: &str| {
        if replayed.contains_key(span) {
            replay_counts
        } else {
            probe_counts
        }
    };
    let timed_spans = &tr.spans()[traced.first_timed_span..];
    let timed_layers = trace::layer_times(timed_spans);
    let wire_overhead = probe_us_per_op - hit_service_us;
    // Engine queue wait from the server's own counters: a miss's round
    // trip minus the evaluation time its reply reports (`micros=`, the
    // sample `STATS` eval_mean_us averages) minus the wire overhead. From
    // the timed phase's misses, or the warm-up's when it had none.
    let timed_misses: Vec<(f64, f64)> = t
        .phase
        .done
        .iter()
        .filter_map(|d| match d.served {
            Served::Miss { eval_us } => Some((d.latency.as_secs_f64() * 1e6, eval_us)),
            _ => None,
        })
        .collect();
    let (miss_samples, miss_source) = if timed_misses.is_empty() {
        (warm_up_misses, "set-up")
    } else {
        (timed_misses, "timed")
    };
    let queue_wait = stats::mean(
        &miss_samples
            .iter()
            .map(|(rtt, eval)| rtt - eval)
            .collect::<Vec<f64>>(),
    ) - wire_overhead;
    // Class-0 requests are single jobs (or answered inline), so their
    // round trip decomposes into wire, queue wait (for the share that
    // entered the pool, i.e. was not a cache hit) and in-process layers.
    let class0_done: Vec<&wire::Done> = t.phase.done.iter().filter(|d| d.class == 0).collect();
    let pooled_share = ratio(
        class0_done
            .iter()
            .filter(|d| d.served != Served::Hit)
            .count() as f64,
        class0_done.len() as f64,
    );
    let roots = timed_spans.iter().filter(|s| s.name == "request");
    let class0: std::collections::HashSet<u64> = roots
        .zip(&t.phase.issued)
        .filter(|(_, (_, class))| *class == 0)
        .map(|(span, _)| span.request)
        .collect();
    let class0_spans: Vec<trace::Span> = timed_spans
        .iter()
        .filter(|s| class0.contains(&s.request))
        .cloned()
        .collect();
    let n0 = class0.len() as f64;
    let service0_us = trace::layer_times(&class0_spans)
        .get("request")
        .map_or(0.0, |&(calls, total, _)| {
            ratio(total as f64 / 1e3, calls as f64)
        });
    let rtt0_us = stats::mean(
        &class0_done
            .iter()
            .map(|d| d.gap.as_secs_f64() * 1e6)
            .collect::<Vec<f64>>(),
    );
    let queue0_us = pooled_share * queue_wait;
    let unattributed = trace::unattributed_share(
        &class0_spans,
        "request",
        n0 * (wire_overhead + queue0_us) * 1e3,
        n0 * rtt0_us * 1e3,
    );

    let mean = |name: &str, scale: f64| -> f64 {
        all.get(name).map_or(0.0, |&(calls, total, _)| {
            ratio(total as f64, calls as f64) / scale
        })
    };
    let total_s = |name: &str| all.get(name).map_or(0.0, |t| t.1 as f64 / 1e9);
    let per_run = |name: &str| -> f64 {
        let runs = all.get("pipeline.run").map_or(0, |t| t.0) as f64;
        ratio(all.get(name).map_or(0, |t| t.1) as f64 / 1e3, runs)
    };
    let served = (w.warm_up_lines().len() + t.phase.done.len()) as f64;
    let mc_calls =
        all.get("mc.point").map_or(0, |t| t.0) + all.get("mc.posterior").map_or(0, |t| t.0);
    let campaign_s: f64 = [
        "campaign.prepare",
        "campaign.baseline",
        "campaign.scenario",
        "campaign.aggregate",
    ]
    .iter()
    .map(|n| total_s(n))
    .sum();
    // Write ratios from the server when the timed phase wrote, else from
    // the probe's observations.
    let writes = t.delta("updates");
    let (invalidated_per_write, bytes_per_write) = if writes > 0.0 {
        (
            ratio(t.delta("invalidations"), writes),
            ratio(t.journal_growth as f64, writes),
        )
    } else {
        let probe_writes = probe_counts.writes as f64;
        (
            ratio(probe_counts.invalidated as f64, probe_writes),
            ratio(probe_journal_bytes as f64, probe_writes),
        )
    };
    let hits = t.delta("cache_hits");
    let misses = t.delta("cache_misses");
    let stat = |key: &str| t.stats_after.get(key).copied().unwrap_or(0.0);
    let values: BTreeMap<&str, f64> = [
        ("wire.overhead_us", wire_overhead),
        ("reactor.pipelined_depth_p50", stat("pipelined_depth_p50")),
        ("reactor.busy_rejections", stat("busy_rejections")),
        ("protocol.parse_ns", mean("protocol.parse", 1.0)),
        ("protocol.render_ns", mean("protocol.render", 1.0)),
        ("cache.probe_ns", mean("cache.probe", 1.0)),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        ("cache.invalidate_us", mean("cache.invalidate", 1e3)),
        ("cache.invalidated_per_write", invalidated_per_write),
        (
            "engine.worker_busy_us_per_op",
            ratio(stat("worker_busy_ms") * 1e3, served),
        ),
        ("engine.queue_wait_us", queue_wait),
        ("engine.scatter_chunks", t.delta("scatter_chunks")),
        ("pipeline.run_us", mean("pipeline.run", 1e3)),
        (
            "pipeline.import_models_us",
            per_run("pipeline.import_models"),
        ),
        (
            "pipeline.import_mapping_us",
            per_run("pipeline.import_mapping"),
        ),
        ("pipeline.discovery_us", per_run("pipeline.discovery")),
        ("pipeline.upsim_us", per_run("pipeline.upsim")),
        ("pipeline.evals", t.delta("evals")),
        (
            "discovery.paths_per_eval",
            ratio(replay_counts.paths as f64, replay_counts.evals as f64),
        ),
        (
            "availability.transform_us",
            mean("availability.transform", 1e3),
        ),
        ("availability.bdd_us", mean("availability.bdd", 1e3)),
        (
            "availability.mc_compile_us",
            mean("availability.mc_compile", 1e3),
        ),
        (
            "mc.point_trials_per_s",
            ratio(
                counts_of("mc.point").point_trials as f64,
                total_s("mc.point"),
            ),
        ),
        (
            "mc.posterior_trials_per_s",
            ratio(
                counts_of("mc.posterior").posterior_trials as f64,
                total_s("mc.posterior"),
            ),
        ),
        (
            "mc.run_us",
            ratio(
                (total_s("mc.point") + total_s("mc.posterior")) * 1e6,
                mc_calls as f64,
            ),
        ),
        ("campaign.prepare_us", mean("campaign.prepare", 1e3)),
        ("campaign.scenario_us", mean("campaign.scenario", 1e3)),
        (
            "campaign.scenarios_per_s",
            ratio(counts_of("campaign.scenario").scenarios as f64, campaign_s),
        ),
        ("campaign.crn_reuse", t.delta("crn_reuse")),
        ("snapshot.apply_us", mean("snapshot.apply", 1e3)),
        ("snapshot.intern_us", mean("snapshot.intern", 1e3)),
        ("persist.append_us", mean("persist.append", 1e3)),
        ("persist.bytes_per_write", bytes_per_write),
        ("persist.restore_ms", mean("persist.restore", 1e6)),
        ("loadgen.lag_ms", t.max_lag_ms()),
        ("unattributed_share", unattributed),
        (
            "trace.overhead_share",
            ratio(traced.elapsed.as_secs_f64(), untraced.elapsed.as_secs_f64()) - 1.0,
        ),
    ]
    .into_iter()
    .collect();
    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect();

    let attempted = t.phase.done.len() as u64 + checks.attempted;
    let failed = t.failed() + checks.failed;
    let mut report = vec![format!(
        "{} seed={} traced: {} timed requests over TCP, {n} replayed in-process ({} spans in {})",
        spec.name,
        args.seed,
        t.phase.done.len(),
        tr.spans().len(),
        spans_path.display()
    )];
    report.push(format!(
        "  engine.queue_wait_us = {queue_wait:.1} us over {} {miss_source} QUERY misses (round trip - server micros= - wire)",
        miss_samples.len()
    ));
    report.push(format!(
        "  {} request: RTT {rtt0_us:.1} us per request; wire {wire_overhead:.1} + queue {queue0_us:.1} ({:.0}% pooled) + in-process {service0_us:.1} us",
        spec.classes[0],
        100.0 * pooled_share
    ));
    report.push(format!(
        "  self time per layer over the {n} replayed requests:"
    ));
    let total_self: u64 = timed_layers.values().map(|t| t.2).sum();
    let mut by_self: Vec<_> = timed_layers.iter().collect();
    by_self.sort_by_key(|(_, t)| std::cmp::Reverse(t.2));
    for (name, &(calls, _, self_ns)) in by_self {
        report.push(format!(
            "    {name:<28} {:>12.3} ms {:>6.1}%  calls={calls:<7} {}",
            self_ns as f64 / 1e6,
            100.0 * ratio(self_ns as f64, total_self as f64),
            module_of(name)
        ));
    }
    let stages: Vec<String> = t
        .stats_after
        .keys()
        .filter(|k| k.starts_with("stage["))
        .map(|k| format!("{k}={:.2}", t.delta(k)))
        .collect();
    report.push(format!(
        "  server STATS stage sums over the timed phase: {}",
        stages.join(" ")
    ));
    report.push(format!(
        "  layers timed by one probe call (not called by the request mix): {}",
        if probed.is_empty() {
            "none".to_string()
        } else {
            probed.join(", ")
        }
    ));
    for (name, value, unit) in &metrics {
        report.push(format!("  {name} = {value} {unit}"));
    }
    report.push(format!(
        "  fail_ratio = {} ({failed} of {attempted})",
        ratio(failed as f64, attempted as f64)
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report,
    })
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values are reported as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(outcome: &Outcome) -> String {
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(outcome)
    )
}

fn detail_json(args: &Args, outcome: &Outcome) -> String {
    let report: Vec<String> = outcome.report.iter().map(|l| json_str(l)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \"workers\": {}, \"result\": {}, \"report\": [{}]}}\n",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        host_cpus(),
        server::WORKERS,
        result_line(outcome),
        report.join(", ")
    )
}

/// The workload table as JSON, for the results record.
fn describe() -> String {
    let rows: Vec<String> = workloads::NAMES
        .iter()
        .map(|name| {
            let spec = workloads::describe(name);
            format!(
                "{{\"name\": {}, \"gated\": {}, \"why\": {}, \"model\": {}, \"devices\": {}, \"loop\": {}, \"mix\": {}, \"classes\": [{}]}}",
                json_str(spec.name),
                workloads::GATED.contains(name),
                json_str(spec.why),
                json_str(spec.model),
                spec.devices,
                json_str(spec.loop_kind),
                json_str(spec.mix),
                spec.classes.iter().map(|c| json_str(c)).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in workloads::NAMES {
            let listed = text.contains(&format!("\"name\": \"{name}\""));
            assert_eq!(listed, workloads::GATED.contains(&name), "{name}");
        }
    }

    #[test]
    fn result_line_shape() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("p50_us", f64::NAN, "us")],
            report: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"p50_us\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }
}
