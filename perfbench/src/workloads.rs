//! The four workloads: their inputs, set-up, timed request streams,
//! reply checks and in-process references.
//!
//! | name        | model           | loop                               | stresses                          |
//! |-------------|-----------------|------------------------------------|-----------------------------------|
//! | `hot_read`  | USI case study  | closed, 1 conn × bursts of 16      | reactor, protocol, cache (hits)   |
//! | `cold_eval` | 1222 campus     | closed, 1 conn × depth 1           | pipeline Steps 5–8, availability  |
//! | `analysis`  | 1222 campus     | closed, 1 conn MC + 1 conn CAMPAIGN| MC kernels, campaign evaluation   |
//! | `write_mix` | 1222 campus     | open, fixed rates, 2 conns         | journal, snapshot apply, invalidation |
//!
//! `write_mix` is not in `BENCHMARK.json` (see [`GATED`]).
//!
//! The mix proportions and rates are synthetic choices, made so that each
//! workload isolates its layers; they are not taken from observed traffic.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use upsim_server::protocol;
use upsim_server::{persist, UpdateCommand};

use crate::mirror::Mirror;
use crate::model::{self, CampusFiles, Rng};
use crate::procfs;
use crate::server::{self, Server};
use crate::trace::Tracer;
use crate::wire::{self, Conn, Done, Request};

/// What a workload is, for the printed table and the results record.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub model: &'static str,
    pub devices: usize,
    pub loop_kind: &'static str,
    pub mix: &'static str,
    /// Request kinds by class index, named `<verb>[.<variant>]`. The
    /// printed breakdown groups them by verb (`query`, `mc`, `campaign`,
    /// `write`); class 0 is the kind the traced run decomposes.
    pub classes: &'static [&'static str],
}

/// What the timed phase did.
pub struct Phase {
    pub done: Vec<Done>,
    /// Request lines and their classes in replay order (connections
    /// interleaved).
    pub issued: Vec<(String, usize)>,
    /// Requests kept in flight per connection.
    pub depth: usize,
    /// Requests were sent on a schedule rather than on replies.
    pub open_loop: bool,
    /// Server CPU time and host steal, sampled every [`WINDOW`] from the
    /// start of the loads to their end; consecutive samples bound the
    /// phase's windows.
    pub samples: Vec<procfs::Sample>,
}

/// Length of the windows the timed phase is sampled in.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Correctness checks beyond the per-reply ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

pub trait Workload: Sync {
    fn name(&self) -> &'static str;
    /// `upsim serve` arguments (address and workers are added).
    fn server_args(&self) -> Vec<String>;
    /// Prepares on-disk state for the next server start.
    fn before_spawn(&self) -> Result<(), String> {
        Ok(())
    }
    /// Set-up requests on a fresh server; records reference replies.
    fn warm_up(&mut self, conn: &mut Conn) -> Result<(), String>;
    /// The set-up requests, for the in-process replay.
    fn warm_up_lines(&self) -> Vec<String>;
    /// The timed phase, ending at `deadline`.
    fn timed(&self, server: &Server, deadline: Instant) -> Result<Phase, String>;
    /// End-of-run checks against in-process references.
    fn verify(&self, server: &Server, phase: &Phase) -> Result<Checks, String>;
    /// In-process state equal to a freshly started server's.
    fn mirror(&self, tr: &mut Tracer) -> Result<Mirror, String>;
    /// A pair the server has cached once the timed phase is over.
    fn probe_pair(&self) -> (String, String);
    /// Size of the live server's journal, for workloads that keep one.
    fn journal_bytes(&self) -> Option<u64> {
        None
    }
    /// Whether the server and the load generator run on CPUs of their own.
    fn separate_cpus(&self) -> bool {
        false
    }
}

pub fn by_name(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "hot_read" => Box::new(HotRead::new(seed)),
        "cold_eval" => Box::new(ColdEval::new(seed, dir)?),
        "analysis" => Box::new(Analysis::new(seed, dir)?),
        "write_mix" => Box::new(WriteMix::new(seed, dir)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

pub const NAMES: [&str; 4] = ["hot_read", "cold_eval", "analysis", "write_mix"];

/// The workloads `BENCHMARK.json` lists and holds to its bounds.
/// `write_mix` runs the same way but is left out: its latency is the
/// host disk's `fdatasync` time, which on a shared disk spread 1.5 to 3
/// times its median (IQR/median) over ten runs of the same code.
pub const GATED: [&str; 3] = ["hot_read", "cold_eval", "analysis"];

/// The workload table row of `name` (one of [`NAMES`]).
pub fn describe(name: &str) -> Spec {
    match name {
        "hot_read" => Spec {
            name: "hot_read",
            why: "every request is a cache hit answered inline on the reactor thread, so time is in reactor, protocol and cache; discovery, availability and MC do no work. The 7:1 QUERY:BATCH ratio is a synthetic choice that keeps both reply renderers on the hit path",
            model: "USI case study (--case-study), 45 printS perspectives",
            devices: netgen::usi::usi_infrastructure().device_count(),
            loop_kind: "closed, 1 connection, pipelined bursts of 16; server and load generator each bound to a CPU of its own",
            mix: "QUERY on seeded pairs, every 8th request a 45-pair BATCH in one of 4 seeded orders; cache filled in set-up",
            classes: &["query", "query.batch"],
        },
        "cold_eval" => Spec {
            name: "cold_eval",
            why: "every request misses, so time is in core::pipeline Steps 5-8 and the availability transform; the reactor's share is negligible. The 4:1 QUERY:BATCH ratio is a synthetic choice that also sends misses through the pool's batch fan-out",
            model: "generated campus (CampusParams 2/64/2/8/3), ping-pong mapper, --cache-cap 256",
            devices: model::CAMPUS.device_count(),
            loop_kind: "closed, 1 connection, depth 1",
            mix: "QUERY, every 5th request an 8-pair BATCH, over a seeded shuffle of the 1024 x 3 (client, srv*) pairs, each pair asked once",
            classes: &["query", "query.batch"],
        },
        "analysis" => Spec {
            name: "analysis",
            why: "time is in dependability::mcprog point and block-resampled kernels and campaign::eval; discovery and the journal are idle. The even point/posterior split and one campaign loop beside one MC loop are synthetic choices, so neither kernel nor campaigns can hide the other",
            model: "generated campus (CampusParams 2/64/2/8/3), ping-pong mapper, 4 edge switches observation-refined",
            devices: model::CAMPUS.device_count(),
            loop_kind: "closed, 1 connection MC + 1 connection CAMPAIGN, depth 1",
            mix: "MC <c> <p> 1000000 <seed> interval round robin over 8 warmed perspectives, alternately point and posterior; CAMPAIGN kill-each-component over 4 pairs mc:20000 top:5, alternately without and with posterior",
            classes: &["mc.point", "mc.posterior", "campaign.point", "campaign.posterior"],
        },
        "write_mix" => Spec {
            name: "write_mix",
            why: "time is in server::persist (append + sync_data per write), snapshot apply and re-intern, cache invalidation and the re-evaluations it triggers, with reads beside the writes. Rates and write kinds are synthetic: low enough that the server keeps up on a shared 2-CPU host, with every write kind present",
            model: "generated campus (CampusParams 2/64/2/8/3), ping-pong mapper, --state-dir restored from a seeded 400-entry journal",
            devices: model::CAMPUS.device_count(),
            loop_kind: "open, 40 writes/s on one connection and 5 reads/s on another, latency from the scheduled send",
            mix: "writes in a cycle of ten: 7 OBSERVE, 2 4-event OBSERVE BATCH, 1 UPDATE DISCONNECT then CONNECT of a client access link; reads: QUERY round robin over 16 seeded pairs the writes invalidate",
            classes: &["write", "query"],
        },
        other => panic!("unknown workload `{other}`"),
    }
}

/// One load thread: its request source and reply check.
struct Load<'a> {
    next: Box<dyn FnMut() -> Option<Request> + Send + 'a>,
    check: Box<wire::Check<'a>>,
}

/// One load thread's work on its connection: the requests it answered
/// and the lines (with classes) it sent, in order.
type LoadFn<'a> =
    Box<dyn FnOnce(&mut Conn) -> std::io::Result<(Vec<Done>, Vec<(String, usize)>)> + Send + 'a>;

/// Runs each load on its own connection and thread.
fn run_loads(
    server: &Server,
    depth: usize,
    open_loop: bool,
    loads: Vec<LoadFn<'_>>,
) -> Result<Phase, String> {
    let pid = server.pid();
    let mut samples = vec![procfs::sample(pid)?];
    let results: Vec<Result<_, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = loads
            .into_iter()
            .map(|load| {
                let conn = server.connect();
                scope.spawn(move || load(&mut conn?).map_err(|e| format!("load connection: {e}")))
            })
            .collect();
        // The calling thread samples meanwhile.
        let mut sampled = Ok(());
        while sampled.is_ok() && !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(10));
            if samples.last().is_some_and(|s| s.at.elapsed() >= WINDOW) {
                sampled = procfs::sample(pid).map(|s| samples.push(s));
            }
        }
        let joined: Vec<Result<_, String>> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        sampled.map(|()| joined)
    })?;
    samples.push(procfs::sample(pid)?);
    let mut done = Vec::new();
    let mut streams = Vec::new();
    for result in results {
        let (d, issued) = result?;
        done.extend(d);
        streams.push(issued);
    }
    Ok(Phase {
        done,
        issued: interleave(streams),
        depth,
        open_loop,
        samples,
    })
}

/// Runs each load closed-loop at `depth` until `deadline`.
fn closed_loops(
    server: &Server,
    depth: usize,
    deadline: Instant,
    loads: Vec<Load<'_>>,
) -> Result<Phase, String> {
    let loads = loads
        .into_iter()
        .map(|mut load| -> LoadFn<'_> {
            Box::new(move |conn| {
                let mut issued = Vec::new();
                let mut next = || {
                    let request = (load.next)()?;
                    issued.push((request.line.clone(), request.class));
                    Some(request)
                };
                let done = wire::closed_loop(conn, depth, deadline, &mut next, &mut *load.check)?;
                Ok((done, issued))
            })
        })
        .collect();
    run_loads(server, depth, false, loads)
}

/// Sends each schedule open-loop, checking replies with `check`.
fn open_loops(
    server: &Server,
    loads: Vec<(Vec<Request>, Box<wire::Check<'_>>)>,
) -> Result<Phase, String> {
    let loads = loads
        .into_iter()
        .map(|(schedule, mut check)| -> LoadFn<'_> {
            Box::new(move |conn| {
                let issued = schedule.iter().map(|r| (r.line.clone(), r.class)).collect();
                Ok((wire::open_loop(conn, schedule, &mut *check)?, issued))
            })
        })
        .collect();
    run_loads(server, 1, true, loads)
}

/// Round-robin merge of per-connection request streams.
fn interleave<T: Clone>(streams: Vec<Vec<T>>) -> Vec<T> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for i in 0..longest {
        for stream in &streams {
            if let Some(line) = stream.get(i) {
                out.push(line.clone());
            }
        }
    }
    out
}

fn call_ok(conn: &mut Conn, line: &str) -> Result<String, String> {
    let reply = conn.call(line).map_err(|e| format!("`{line}`: {e}"))?;
    if reply.starts_with("OK") {
        Ok(reply)
    } else {
        Err(format!("`{line}` answered `{reply}`"))
    }
}

fn batch_line(pairs: &[(String, String)]) -> String {
    let mut line = "BATCH".to_string();
    for (client, provider) in pairs {
        line.push_str(&format!(" {client}:{provider}"));
    }
    line
}

/// Exact availabilities of `pairs` from the server, over the binary
/// `BATCH` frame (the text protocol prints nine decimals).
fn exact_availabilities(conn: &mut Conn, pairs: &[(String, String)]) -> Result<Vec<f64>, String> {
    conn.send(&protocol::encode_batch_frame(pairs))
        .map_err(|e| e.to_string())?;
    let payload = protocol::read_frame(conn, 1 << 24).map_err(|e| e.to_string())?;
    protocol::parse_batch_response_frame(&payload)?
        .map_err(|e| format!("binary BATCH answered error `{e}`"))
}

/// Compares the server's exact availabilities of `pairs` with the
/// mirror's, bit for bit.
fn check_exact(
    checks: &mut Checks,
    conn: &mut Conn,
    mirror: &mut Mirror,
    pairs: &[(String, String)],
) -> Result<(), String> {
    let served = exact_availabilities(conn, pairs)?;
    let mut tr = Tracer::new(false);
    for ((client, provider), got) in pairs.iter().zip(served) {
        let (entry, _) = mirror.query(&mut tr, client, provider)?;
        checks.check(entry.availability.to_bits() == got.to_bits(), || {
            format!(
                "{client}->{provider}: served {got:e}, in-process {:e}",
                entry.availability
            )
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// hot_read
// ---------------------------------------------------------------------------

/// USI case study, cache filled in set-up: every timed request is a hit
/// answered on the reactor thread.
pub struct HotRead {
    seed: u64,
    pairs: Vec<(String, String)>,
    /// Seeded orders of the 45-pair `BATCH`.
    batches: Vec<String>,
    /// Reply of every timed request line, recorded in set-up.
    refs: HashMap<String, String>,
}

impl HotRead {
    /// One connection: with a second one, two load threads and the
    /// reactor share two CPUs and the tail measures their preemption.
    const CONNECTIONS: u64 = 1;
    const DEPTH: usize = 16;
    /// Every eighth request is a 45-pair `BATCH`.
    const BATCH_EVERY: usize = 8;

    fn new(seed: u64) -> HotRead {
        let pairs = model::case_study_pairs();
        let mut rng = Rng::derived(seed, 1);
        let batches = (0..4)
            .map(|_| {
                let mut order = pairs.clone();
                rng.shuffle(&mut order);
                batch_line(&order)
            })
            .collect();
        HotRead {
            seed,
            pairs,
            batches,
            refs: HashMap::new(),
        }
    }

    fn query_line(&self, i: usize) -> String {
        let (client, provider) = &self.pairs[i];
        format!("QUERY {client} {provider}")
    }
}

impl Workload for HotRead {
    fn name(&self) -> &'static str {
        "hot_read"
    }

    fn server_args(&self) -> Vec<String> {
        vec!["--case-study".into()]
    }

    /// Every pair once as a miss (filling the cache), then every timed
    /// line once more as a hit, whose reply becomes the reference.
    fn warm_up_lines(&self) -> Vec<String> {
        let queries = (0..self.pairs.len()).map(|i| self.query_line(i));
        let mut lines: Vec<String> = queries.clone().chain(queries).collect();
        lines.extend(self.batches.iter().cloned());
        lines
    }

    fn warm_up(&mut self, conn: &mut Conn) -> Result<(), String> {
        self.refs.clear();
        let lines = self.warm_up_lines();
        let (fill, timed) = lines.split_at(self.pairs.len());
        for line in fill {
            call_ok(conn, line)?;
        }
        for line in timed {
            let reply = call_ok(conn, line)?;
            if line.starts_with("QUERY") && !reply.contains(" source=hit ") {
                return Err(format!("warm-up `{line}` missed the cache: `{reply}`"));
            }
            self.refs.insert(line.clone(), reply);
        }
        Ok(())
    }

    fn timed(&self, server: &Server, deadline: Instant) -> Result<Phase, String> {
        let loads = (0..Self::CONNECTIONS)
            .map(|conn| {
                let mut rng = Rng::derived(self.seed, 100 + conn);
                let mut sent = 0usize;
                Load {
                    next: Box::new(move || {
                        sent += 1;
                        Some(if sent.is_multiple_of(Self::BATCH_EVERY) {
                            Request {
                                line: self.batches[rng.below(self.batches.len())].clone(),
                                class: 1,
                                due: None,
                            }
                        } else {
                            Request {
                                line: self.query_line(rng.below(self.pairs.len())),
                                class: 0,
                                due: None,
                            }
                        })
                    }),
                    check: Box::new(|request, reply| {
                        self.refs.get(&request.line).map(String::as_str) == Some(reply)
                    }),
                }
            })
            .collect();
        closed_loops(server, Self::DEPTH, deadline, loads)
    }

    fn verify(&self, _server: &Server, _phase: &Phase) -> Result<Checks, String> {
        // Every reply was compared byte for byte with its warm-up reply.
        Ok(Checks::default())
    }

    fn mirror(&self, tr: &mut Tracer) -> Result<Mirror, String> {
        let (snapshot, mapper) = model::case_study();
        Ok(Mirror::new(snapshot, mapper, tr))
    }

    fn probe_pair(&self) -> (String, String) {
        self.pairs[0].clone()
    }

    /// The reactor answers every request and the load thread keeps it
    /// busy. Left to the scheduler on a 2-CPU host, the two sometimes
    /// shared one CPU for a whole run, which made requests about 15%
    /// faster than when they ran apart, so runs fell into two groups.
    fn separate_cpus(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// cold_eval
// ---------------------------------------------------------------------------

/// One `cold_eval` request: its line, class and the pairs it asks.
struct Op {
    line: String,
    class: usize,
    pairs: Vec<(String, String)>,
}

/// 1222-device campus, each (client, server) pair asked once: every
/// request misses and runs the pipeline.
pub struct ColdEval {
    files: CampusFiles,
    dir: PathBuf,
    seed: u64,
    /// The whole seeded request sequence; connections claim it in order.
    ops: Vec<Op>,
    cursor: AtomicUsize,
}

impl ColdEval {
    const BATCH_PAIRS: usize = 8;
    /// Every fifth request is an 8-pair `BATCH`.
    const BATCH_EVERY: usize = 5;
    /// Pairs whose exact availability is checked in-process.
    const SAMPLE: usize = 16;
    /// Server cache entries; every run answers several times as many pairs.
    const CACHE_CAP: usize = 256;

    fn new(seed: u64, dir: &Path) -> Result<ColdEval, String> {
        let files = CampusFiles::generate();
        write_campus(dir, &files)?;
        let mut pairs: Vec<(String, String)> = model::campus_clients()
            .into_iter()
            .flat_map(|(client, _)| {
                model::campus_servers()
                    .into_iter()
                    .map(move |server| (client.clone(), server))
            })
            .collect();
        let mut rng = Rng::derived(seed, 2);
        rng.shuffle(&mut pairs);
        let mut ops = Vec::new();
        let mut rest = pairs.as_slice();
        while !rest.is_empty() {
            let batch = ops.len() % Self::BATCH_EVERY == Self::BATCH_EVERY - 1
                && rest.len() >= Self::BATCH_PAIRS;
            let take = if batch { Self::BATCH_PAIRS } else { 1 };
            let (head, tail) = rest.split_at(take);
            let line = if batch {
                batch_line(head)
            } else {
                format!("QUERY {} {}", head[0].0, head[0].1)
            };
            ops.push(Op {
                line,
                class: usize::from(batch),
                pairs: head.to_vec(),
            });
            rest = tail;
        }
        Ok(ColdEval {
            files,
            dir: dir.to_path_buf(),
            seed,
            ops,
            cursor: AtomicUsize::new(0),
        })
    }

    /// A `QUERY` must answer its pair from a fresh evaluation; a `BATCH`
    /// must answer every pair it asked.
    fn check_reply(line: &str, reply: &str) -> bool {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("QUERY") => {
                let (Some(client), Some(provider)) = (words.next(), words.next()) else {
                    return false;
                };
                reply.starts_with(&format!(
                    "OK query client={client} provider={provider} service=fetch availability="
                )) && reply.contains(" source=miss epoch=0 ")
            }
            Some("BATCH") => {
                let pairs: Vec<&str> = words.collect();
                reply.starts_with(&format!("OK batch n={} ", pairs.len()))
                    && pairs
                        .iter()
                        .all(|pair| reply.contains(&format!(" {pair}=")))
            }
            _ => false,
        }
    }
}

fn write_campus(dir: &Path, files: &CampusFiles) -> Result<(), String> {
    std::fs::write(dir.join("infra.xml"), &files.infra_xml).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("service.xml"), &files.service_xml).map_err(|e| e.to_string())
}

fn campus_args(dir: &Path) -> Vec<String> {
    vec![
        "-i".into(),
        dir.join("infra.xml").display().to_string(),
        "-s".into(),
        dir.join("service.xml").display().to_string(),
    ]
}

impl Workload for ColdEval {
    fn name(&self) -> &'static str {
        "cold_eval"
    }

    /// The cache is capped so that its memory stops growing a few seconds
    /// into the run: uncapped, `server_rss_mb` grew with the number of
    /// pairs answered, so it followed the host's speed.
    fn server_args(&self) -> Vec<String> {
        let mut args = campus_args(&self.dir);
        args.extend(["--cache-cap".into(), Self::CACHE_CAP.to_string()]);
        args
    }

    fn before_spawn(&self) -> Result<(), String> {
        self.cursor.store(0, Ordering::SeqCst);
        Ok(())
    }

    fn warm_up(&mut self, conn: &mut Conn) -> Result<(), String> {
        server::stats(conn).map(|_| ())
    }

    fn warm_up_lines(&self) -> Vec<String> {
        Vec::new()
    }

    fn timed(&self, server: &Server, deadline: Instant) -> Result<Phase, String> {
        // One connection: two concurrent evaluations on a 2-CPU host ran
        // each other twice as slow and spread 0.37 (IQR/median) between
        // runs; a BATCH still fans out over both workers.
        let loads = (0..1)
            .map(|_| Load {
                next: Box::new(|| {
                    let index = self.cursor.fetch_add(1, Ordering::SeqCst);
                    self.ops.get(index).map(|op| Request {
                        line: op.line.clone(),
                        class: op.class,
                        due: None,
                    })
                }),
                check: Box::new(|request, reply| Self::check_reply(&request.line, reply)),
            })
            .collect();
        let mut phase = closed_loops(server, 1, deadline, loads)?;
        // Replay in claim order, which is the seeded sequence.
        let claimed = self.cursor.load(Ordering::SeqCst).min(self.ops.len());
        phase.issued = self.ops[..claimed]
            .iter()
            .map(|op| (op.line.clone(), op.class))
            .collect();
        Ok(phase)
    }

    fn verify(&self, server: &Server, phase: &Phase) -> Result<Checks, String> {
        let mut checks = Checks::default();
        let answered: Vec<(String, String)> = self.ops[..phase.issued.len()]
            .iter()
            .flat_map(|op| op.pairs.iter().cloned())
            .collect();
        let mut conn = server.connect()?;
        // Each pair asked once: every lookup was a miss.
        let stats = server::stats(&mut conn)?;
        checks.check(
            stats.get("cache_hits") == Some(&0.0)
                && stats.get("cache_misses") == Some(&(answered.len() as f64)),
            || {
                format!(
                    "expected {} misses and no hits, STATS {stats:?}",
                    answered.len()
                )
            },
        );
        let mut rng = Rng::derived(self.seed, 3);
        let sample: Vec<(String, String)> = (0..Self::SAMPLE.min(answered.len()))
            .map(|_| answered[rng.below(answered.len())].clone())
            .collect();
        let mut mirror = self.mirror(&mut Tracer::new(false))?;
        check_exact(&mut checks, &mut conn, &mut mirror, &sample)?;
        Ok(checks)
    }

    fn mirror(&self, tr: &mut Tracer) -> Result<Mirror, String> {
        Ok(Mirror::new(
            self.files.snapshot()?,
            CampusFiles::mapper(),
            tr,
        ))
    }

    fn probe_pair(&self) -> (String, String) {
        self.ops[0].pairs[0].clone()
    }
}

// ---------------------------------------------------------------------------
// analysis
// ---------------------------------------------------------------------------

/// 1222-device campus with observation-refined switches: 1M-sample `MC …
/// interval` on warmed perspectives beside `CAMPAIGN`s.
pub struct Analysis {
    files: CampusFiles,
    dir: PathBuf,
    seed: u64,
    /// `(client, provider, observed)`.
    perspectives: Vec<(String, String, bool)>,
    observe_lines: Vec<String>,
    campaigns: [String; 2],
    refs: HashMap<String, String>,
    /// Every timed `MC` reply, for the in-process re-derivation.
    mc_replies: Mutex<HashMap<String, String>>,
}

impl Analysis {
    const PERSPECTIVES: usize = 8;
    const MC_SAMPLES: usize = 1_000_000;
    const CAMPAIGN_SAMPLES: usize = 20_000;
    /// MC replies re-derived in-process.
    const SAMPLE: usize = 6;

    fn new(seed: u64, dir: &Path) -> Result<Analysis, String> {
        let files = CampusFiles::generate();
        write_campus(dir, &files)?;
        let mut clients = model::campus_clients();
        let mut rng = Rng::derived(seed, 4);
        rng.shuffle(&mut clients);
        let servers = model::campus_servers();
        let mut perspectives = Vec::new();
        let mut observe_lines = Vec::new();
        let mut edges: Vec<String> = Vec::new();
        let mut observed_edges: Vec<String> = Vec::new();
        for (client, edge) in clients {
            if perspectives.len() == Self::PERSPECTIVES {
                break;
            }
            // Distinct access switches, so observing one refines exactly
            // the perspective of its own client.
            if edges.contains(&edge) {
                continue;
            }
            let observed = perspectives.len() % 2 == 0;
            if observed {
                observed_edges.push(edge.clone());
            }
            edges.push(edge);
            let server = servers[rng.below(servers.len())].clone();
            perspectives.push((client, server, observed));
        }
        // Two closed down-sojourns per observed switch (seconds).
        for (i, edge) in observed_edges.iter().enumerate() {
            let base = 10_000 + 1_000 * i as u64;
            for (state, ts) in [
                ("down", base),
                ("up", base + 600),
                ("down", base + 90_000),
                ("up", base + 90_400),
            ] {
                observe_lines.push(format!("OBSERVE {edge} {state} {ts}"));
            }
        }
        let scope: Vec<String> = perspectives
            .iter()
            .take(4)
            .map(|(c, p, _)| format!("{c}:{p}"))
            .collect();
        let base = format!(
            "CAMPAIGN kill-each-component pairs:{} mc:{}:{} top:5",
            scope.join(","),
            Self::CAMPAIGN_SAMPLES,
            seed % 1_000_000
        );
        let campaigns = [base.clone(), format!("{base} posterior")];
        Ok(Analysis {
            files,
            dir: dir.to_path_buf(),
            seed,
            perspectives,
            observe_lines,
            campaigns,
            refs: HashMap::new(),
            mc_replies: Mutex::new(HashMap::new()),
        })
    }

    fn check_mc(&self, line: &str, reply: &str) -> bool {
        let mut words = line.split_whitespace().skip(1);
        let (Some(client), Some(provider)) = (words.next(), words.next()) else {
            return false;
        };
        let observed = self
            .perspectives
            .iter()
            .any(|(c, p, o)| c == client && p == provider && *o);
        reply.starts_with(&format!(
            "OK mc client={client} provider={provider} service=fetch "
        )) && reply.contains(&format!(" samples={} ", Self::MC_SAMPLES))
            && reply.ends_with(if observed {
                "sampling=posterior"
            } else {
                "sampling=point"
            })
    }
}

impl Workload for Analysis {
    fn name(&self) -> &'static str {
        "analysis"
    }

    fn server_args(&self) -> Vec<String> {
        campus_args(&self.dir)
    }

    fn warm_up_lines(&self) -> Vec<String> {
        let mut lines = self.observe_lines.clone();
        lines.extend(
            self.perspectives
                .iter()
                .map(|(c, p, _)| format!("QUERY {c} {p}")),
        );
        lines.extend(self.campaigns.iter().cloned());
        lines
    }

    fn warm_up(&mut self, conn: &mut Conn) -> Result<(), String> {
        self.refs.clear();
        self.mc_replies.lock().expect("mc replies").clear();
        for line in self.warm_up_lines() {
            let reply = call_ok(conn, &line)?;
            if line.starts_with("CAMPAIGN") {
                self.refs.insert(line, reply);
            }
        }
        Ok(())
    }

    fn timed(&self, server: &Server, deadline: Instant) -> Result<Phase, String> {
        let mut rng = Rng::derived(self.seed, 5);
        let mut sent = 0usize;
        let mc = Load {
            next: Box::new(move || {
                // Round robin, so point and posterior requests alternate.
                let (c, p, observed) = &self.perspectives[sent % self.perspectives.len()];
                sent += 1;
                Some(Request {
                    line: format!(
                        "MC {c} {p} {} {} interval",
                        Self::MC_SAMPLES,
                        rng.next() % 1_000_000_000
                    ),
                    class: usize::from(*observed),
                    due: None,
                })
            }),
            check: Box::new(|request, reply| {
                self.mc_replies
                    .lock()
                    .expect("mc replies")
                    .insert(request.line.clone(), reply.to_string());
                self.check_mc(&request.line, reply)
            }),
        };
        let mut turn = 0usize;
        let campaign = Load {
            next: Box::new(move || {
                turn += 1;
                Some(Request {
                    line: self.campaigns[turn % 2].clone(),
                    class: 2 + turn % 2,
                    due: None,
                })
            }),
            check: Box::new(|request, reply| {
                self.refs.get(&request.line).map(String::as_str) == Some(reply)
            }),
        };
        closed_loops(server, 1, deadline, vec![mc, campaign])
    }

    fn verify(&self, _server: &Server, phase: &Phase) -> Result<Checks, String> {
        let mut checks = Checks::default();
        let mut tr = Tracer::new(false);
        let mut mirror = self.mirror(&mut tr)?;
        for line in self.warm_up_lines() {
            let reply = mirror.execute(&mut tr, &line)?;
            if line.starts_with("CAMPAIGN") {
                checks.check(self.refs.get(&line) == Some(&reply), || {
                    format!("`{line}`: in-process report `{reply}` differs from the served one")
                });
            }
        }
        // MC estimates and intervals, re-derived with the same seeds.
        let mc: Vec<&String> = phase
            .issued
            .iter()
            .map(|(line, _)| line)
            .filter(|line| line.starts_with("MC "))
            .collect();
        let served = self.mc_replies.lock().expect("mc replies");
        let mut rng = Rng::derived(self.seed, 6);
        for _ in 0..Self::SAMPLE.min(mc.len()) {
            let line = mc[rng.below(mc.len())];
            let expected = mirror.execute(&mut tr, line)?;
            checks.check(served.get(line.as_str()) == Some(&expected), || {
                format!(
                    "`{line}`: served {:?}, in-process `{expected}`",
                    served.get(line.as_str())
                )
            });
        }
        Ok(checks)
    }

    fn mirror(&self, tr: &mut Tracer) -> Result<Mirror, String> {
        Ok(Mirror::new(
            self.files.snapshot()?,
            CampusFiles::mapper(),
            tr,
        ))
    }

    fn probe_pair(&self) -> (String, String) {
        let (c, p, _) = &self.perspectives[0];
        (c.clone(), p.clone())
    }
}

// ---------------------------------------------------------------------------
// write_mix
// ---------------------------------------------------------------------------

/// Seeded stream of writes in a fixed cycle of ten: seven `OBSERVE`s
/// and two 4-event `OBSERVE BATCH`es on edge and distribution switches,
/// and one `UPDATE DISCONNECT` of a client access link followed by the
/// `CONNECT` that restores it. The seed picks switches, links and times.
#[derive(Clone)]
struct WriteGen {
    rng: Rng,
    turn: usize,
    ts: u64,
    /// Observed switches and whether each is currently up.
    switches: Vec<(String, bool)>,
    /// `(client, access switch)` links the updates toggle.
    churn: Vec<(String, String)>,
    removed: Option<(String, String)>,
}

impl WriteGen {
    fn flip(&mut self, i: usize) -> (String, bool, u64) {
        self.ts += 1 + self.rng.below(120) as u64;
        let (name, up) = &mut self.switches[i];
        *up = !*up;
        (name.clone(), *up, self.ts)
    }

    fn next(&mut self) -> UpdateCommand {
        if let Some((a, b)) = self.removed.take() {
            return UpdateCommand::Connect { a, b };
        }
        self.turn += 1;
        match self.turn % 10 {
            0 => {
                let (a, b) = self.churn[self.rng.below(self.churn.len())].clone();
                self.removed = Some((a.clone(), b.clone()));
                UpdateCommand::Disconnect { a, b }
            }
            3 | 7 => {
                let mut picked: Vec<usize> = (0..self.switches.len()).collect();
                self.rng.shuffle(&mut picked);
                let events = picked[..4].iter().map(|&i| self.flip(i)).collect();
                UpdateCommand::ObserveBatch { events }
            }
            _ => {
                let i = self.rng.below(self.switches.len());
                let (component, up, ts) = self.flip(i);
                UpdateCommand::Observe { component, up, ts }
            }
        }
    }
}

fn write_line(command: &UpdateCommand) -> String {
    let wire = protocol::render_update_wire(command);
    match command {
        UpdateCommand::Observe { .. } | UpdateCommand::ObserveBatch { .. } => wire,
        _ => format!("UPDATE {wire}"),
    }
}

/// 1222-device campus with `--state-dir`: a seeded journal restored in
/// set-up, then writes and reads at fixed arrival rates.
pub struct WriteMix {
    files: CampusFiles,
    dir: PathBuf,
    query_pairs: Vec<(String, String)>,
    /// The write stream as it stands after the seeded journal.
    writes: WriteGen,
}

impl WriteMix {
    const JOURNAL_ENTRIES: u64 = 400;
    const QUERY_PAIRS: usize = 16;
    const WRITES_PER_S: f64 = 40.0;
    const READS_PER_S: f64 = 5.0;

    fn new(seed: u64, dir: &Path) -> Result<WriteMix, String> {
        let files = CampusFiles::generate();
        write_campus(dir, &files)?;
        let mut rng = Rng::derived(seed, 7);
        let mut clients = model::campus_clients();
        rng.shuffle(&mut clients);
        let servers = model::campus_servers();
        let (queried, rest) = clients.split_at(Self::QUERY_PAIRS);
        let query_pairs: Vec<(String, String)> = queried
            .iter()
            .map(|(client, _)| (client.clone(), servers[rng.below(servers.len())].clone()))
            .collect();
        // Switches on the queried clients' paths, so writes invalidate
        // the read set: their access switches and distribution switches.
        let mut switches: Vec<(String, bool)> = Vec::new();
        for (_, edge) in &queried[..8] {
            let dist = format!(
                "dist{}",
                &edge["edge".len()..edge.find('_').expect("edge<d>_<e>")]
            );
            for name in [edge.clone(), dist] {
                if !switches.iter().any(|(s, _)| *s == name) {
                    switches.push((name, true));
                }
            }
        }
        let mut writes = WriteGen {
            rng: Rng::derived(seed, 8),
            turn: 0,
            ts: 1_000,
            switches,
            churn: rest[..8].to_vec(),
            removed: None,
        };
        let template = dir.join("journal-template");
        std::fs::create_dir_all(&template).map_err(|e| e.to_string())?;
        let mut journal = String::new();
        for epoch in 1..=Self::JOURNAL_ENTRIES {
            journal.push_str(&format!(
                "{epoch} {}\n",
                protocol::render_update_wire(&writes.next())
            ));
        }
        // End the template on a restored link so the topology is intact.
        if let Some((a, b)) = writes.removed.take() {
            let command = UpdateCommand::Connect { a, b };
            let epoch = Self::JOURNAL_ENTRIES + 1;
            journal.push_str(&format!(
                "{epoch} {}\n",
                protocol::render_update_wire(&command)
            ));
        }
        std::fs::write(persist::journal_path(&template), journal).map_err(|e| e.to_string())?;
        Ok(WriteMix {
            files,
            dir: dir.to_path_buf(),
            query_pairs,
            writes,
        })
    }

    fn state_dir(&self) -> PathBuf {
        self.dir.join("state")
    }
}

fn copy_journal(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    std::fs::copy(persist::journal_path(from), persist::journal_path(to))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

impl Workload for WriteMix {
    fn name(&self) -> &'static str {
        "write_mix"
    }

    fn server_args(&self) -> Vec<String> {
        let mut args = campus_args(&self.dir);
        args.push("--state-dir".into());
        args.push(self.state_dir().display().to_string());
        args
    }

    fn before_spawn(&self) -> Result<(), String> {
        copy_journal(&self.dir.join("journal-template"), &self.state_dir())
    }

    fn warm_up_lines(&self) -> Vec<String> {
        self.query_pairs
            .iter()
            .map(|(c, p)| format!("QUERY {c} {p}"))
            .collect()
    }

    fn warm_up(&mut self, conn: &mut Conn) -> Result<(), String> {
        for line in self.warm_up_lines() {
            call_ok(conn, &line)?;
        }
        Ok(())
    }

    fn timed(&self, server: &Server, deadline: Instant) -> Result<Phase, String> {
        let start = Instant::now() + Duration::from_millis(20);
        let seconds = deadline.saturating_duration_since(start).as_secs_f64();
        let mut writes = self.writes.clone();
        let write_schedule: Vec<Request> = (0..(seconds * Self::WRITES_PER_S) as usize)
            .map(|i| Request {
                line: write_line(&writes.next()),
                class: 0,
                due: Some(start + Duration::from_secs_f64(i as f64 / Self::WRITES_PER_S)),
            })
            .collect();
        let read_schedule: Vec<Request> = (0..(seconds * Self::READS_PER_S) as usize)
            .map(|i| {
                let (c, p) = &self.query_pairs[i % self.query_pairs.len()];
                Request {
                    line: format!("QUERY {c} {p}"),
                    class: 1,
                    due: Some(
                        start + Duration::from_secs_f64((i as f64 + 0.5) / Self::READS_PER_S),
                    ),
                }
            })
            .collect();
        let mut last_epoch = 0u64;
        let write_check = Box::new(move |request: &Request, reply: &str| {
            let kind = match request.line.split_whitespace().nth(1) {
                Some("BATCH") => "observe-batch",
                Some("CONNECT") => "connect",
                Some("DISCONNECT") => "disconnect",
                _ => "observe",
            };
            let epoch = reply
                .strip_prefix(&format!("OK update kind={kind} epoch="))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|e| e.parse::<u64>().ok());
            match epoch {
                Some(epoch) if epoch > last_epoch => {
                    last_epoch = epoch;
                    true
                }
                _ => false,
            }
        });
        let read_check = Box::new(|request: &Request, reply: &str| {
            let mut words = request.line.split_whitespace().skip(1);
            let (c, p) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
            reply.starts_with(&format!(
                "OK query client={c} provider={p} service=fetch availability="
            ))
        });
        open_loops(
            server,
            vec![(write_schedule, write_check), (read_schedule, read_check)],
        )
    }

    fn verify(&self, server: &Server, _phase: &Phase) -> Result<Checks, String> {
        let mut checks = Checks::default();
        let mut conn = server.connect()?;
        let live_epoch = server::stats(&mut conn)?.get("epoch").copied();
        // Restore the state directory the run left behind and compare it
        // with the live server: same epoch, same availabilities.
        let mut tr = Tracer::new(false);
        let mut restored = Mirror::restored(
            &self.state_dir(),
            self.files.snapshot()?,
            CampusFiles::mapper(),
            &mut tr,
        )?;
        checks.check(live_epoch == Some(restored.epoch() as f64), || {
            format!("live epoch {live_epoch:?}, restored {}", restored.epoch())
        });
        check_exact(&mut checks, &mut conn, &mut restored, &self.query_pairs)?;
        Ok(checks)
    }

    fn mirror(&self, tr: &mut Tracer) -> Result<Mirror, String> {
        let state = self.dir.join("mirror-state");
        copy_journal(&self.dir.join("journal-template"), &state)?;
        let mut mirror =
            Mirror::restored(&state, self.files.snapshot()?, CampusFiles::mapper(), tr)?;
        mirror.journal_to(&state)?;
        Ok(mirror)
    }

    fn probe_pair(&self) -> (String, String) {
        self.query_pairs[0].clone()
    }

    fn journal_bytes(&self) -> Option<u64> {
        std::fs::metadata(persist::journal_path(&self.state_dir()))
            .map(|m| m.len())
            .ok()
    }
}
