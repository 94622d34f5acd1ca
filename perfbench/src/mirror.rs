//! The in-process twin of one served request, built from the layers'
//! public functions in the order `upsim_server::engine` calls them:
//! `protocol::parse_request`, `PerspectiveCache::get`, the Steps 5–8
//! `UpsimPipeline`, the availability transform, BDD and MC compile,
//! `McProgram::run`/`run_posterior`, the campaign evaluator,
//! `ModelSnapshot::apply`, `Journal::append`, the cache invalidations and
//! the `render_*` functions.
//!
//! The benchmark uses it twice: as the reference its correctness checks
//! compare the server against, and as the traced run, where a span is
//! opened around every call into a layer so each layer's self time can be
//! attributed.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dependability::montecarlo::MonteCarloResult;
use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use upsim_campaign::{
    aggregate, evaluate_baseline_chunk, evaluate_scenario_with, Baseline, CampaignInput,
    CampaignReport, CampaignSpec, EvalCtx,
};
use upsim_core::discovery::DiscoveryOptions;
use upsim_core::interned::InternedGraph;
use upsim_core::pipeline::UpsimPipeline;
use upsim_server::protocol::{self, Request};
use upsim_server::{
    persist, CachedPerspective, Journal, ModelSnapshot, PerspectiveCache, PerspectiveKey,
    PerspectiveMapper, UpdateCommand, UpdateSummary, DEFAULT_CACHE_CAPACITY,
};

use crate::trace::Tracer;

/// Step labels of `StepTiming`, with the span each is recorded as.
const STEP_SPANS: [(&str, &str); 4] = [
    ("5-import-models", "pipeline.import_models"),
    ("6-import-mapping", "pipeline.import_mapping"),
    ("7-path-discovery", "pipeline.discovery"),
    ("8-generate-upsim", "pipeline.upsim"),
];

/// Counts the traced run reports next to the span times.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub evals: u64,
    pub paths: u64,
    pub point_trials: u64,
    pub posterior_trials: u64,
    pub scenarios: u64,
    pub writes: u64,
    /// Cache entries the writes invalidated.
    pub invalidated: u64,
}

impl Counts {
    /// What was counted after `before` was taken.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts {
            evals: self.evals - before.evals,
            paths: self.paths - before.paths,
            point_trials: self.point_trials - before.point_trials,
            posterior_trials: self.posterior_trials - before.posterior_trials,
            scenarios: self.scenarios - before.scenarios,
            writes: self.writes - before.writes,
            invalidated: self.invalidated - before.invalidated,
        }
    }
}

/// One shard's worth of engine state, driven on the calling thread.
pub struct Mirror {
    snapshot: Arc<ModelSnapshot>,
    graph: Arc<InternedGraph>,
    mapper: PerspectiveMapper,
    discovery: DiscoveryOptions,
    /// Warm pipeline and the epoch it was built for.
    pipeline: Option<(u64, UpsimPipeline)>,
    cache: PerspectiveCache,
    epoch: AtomicU64,
    journal: Option<Journal>,
    pub counts: Counts,
}

impl Mirror {
    /// A mirror of a freshly started (or restored) shard.
    pub fn new(snapshot: ModelSnapshot, mapper: PerspectiveMapper, tr: &mut Tracer) -> Mirror {
        let snapshot = Arc::new(snapshot);
        let span = tr.enter("snapshot.intern");
        let graph = snapshot.interned_graph();
        tr.exit(span);
        Mirror {
            epoch: AtomicU64::new(snapshot.epoch),
            snapshot,
            graph,
            mapper,
            // The engine's default Step 7 options.
            discovery: upsim_server::EngineConfig::default().discovery,
            pipeline: None,
            cache: PerspectiveCache::with_capacity(DEFAULT_CACHE_CAPACITY),
            journal: None,
            counts: Counts::default(),
        }
    }

    /// A mirror of a shard restored from `dir` (`persist::restore`).
    pub fn restored(
        dir: &Path,
        fallback: ModelSnapshot,
        mapper: PerspectiveMapper,
        tr: &mut Tracer,
    ) -> Result<Mirror, String> {
        let span = tr.enter("persist.restore");
        let report = persist::restore(dir, fallback).map_err(|e| e.to_string());
        tr.exit(span);
        Ok(Mirror::new(report?.snapshot, mapper, tr))
    }

    /// Journals every later write to `dir` (fsynced, as the server does).
    pub fn journal_to(&mut self, dir: &Path) -> Result<(), String> {
        self.journal = Some(Journal::open(dir).map_err(|e| e.to_string())?);
        Ok(())
    }

    pub fn journaled(&self) -> bool {
        self.journal.is_some()
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// A copy of the current generation (without its built graph view).
    pub fn snapshot(&self) -> ModelSnapshot {
        (*self.snapshot).clone()
    }

    pub fn mapper(&self) -> PerspectiveMapper {
        Arc::clone(&self.mapper)
    }

    /// Parses, executes and renders one request line, as the server's
    /// request path does.
    pub fn execute(&mut self, tr: &mut Tracer, line: &str) -> Result<String, String> {
        let span = tr.enter("protocol.parse");
        let request = protocol::parse_request(line);
        tr.exit(span);
        match request? {
            Request::Query { client, provider } => {
                let (entry, hit) = self.query(tr, &client, &provider)?;
                let span = tr.enter("protocol.render");
                let reply = protocol::render_perspective(&entry, if hit { "hit" } else { "miss" });
                tr.exit(span);
                Ok(reply)
            }
            Request::Batch { pairs } => {
                let mut results = Vec::with_capacity(pairs.len());
                for (client, provider) in &pairs {
                    results.push(Ok(self.query(tr, client, provider)?.0));
                }
                let span = tr.enter("protocol.render");
                let reply = protocol::render_batch(&results);
                tr.exit(span);
                Ok(reply)
            }
            Request::MonteCarlo {
                client,
                provider,
                samples,
                seed,
                interval,
            } => {
                let (entry, hit) = self.query(tr, &client, &provider)?;
                let (result, ci) = self.monte_carlo(tr, &entry, samples, seed, interval);
                let span = tr.enter("protocol.render");
                let reply =
                    protocol::render_mc(&entry, &result, ci, if hit { "hit" } else { "miss" });
                tr.exit(span);
                Ok(reply)
            }
            Request::Update(command) => {
                let summary = self.update(tr, command)?;
                let span = tr.enter("protocol.render");
                let reply = protocol::render_update(&summary);
                tr.exit(span);
                Ok(reply)
            }
            Request::Campaign(spec) => {
                let json = spec.json;
                let report = self.campaign(tr, spec)?;
                let span = tr.enter("protocol.render");
                let reply = protocol::render_campaign(&report, json);
                tr.exit(span);
                Ok(reply)
            }
            other => Err(format!("the mirror does not serve {other:?}")),
        }
    }

    /// Cache probe, then evaluation on a miss; `(entry, hit)`.
    pub fn query(
        &mut self,
        tr: &mut Tracer,
        client: &str,
        provider: &str,
    ) -> Result<(Arc<CachedPerspective>, bool), String> {
        let key = PerspectiveKey::new(client, provider, self.snapshot.service_name());
        let span = tr.enter("cache.probe");
        let hit = self.cache.get(&key);
        tr.exit(span);
        match hit {
            Some(entry) => Ok((entry, true)),
            None => Ok((self.evaluate(tr, key)?, false)),
        }
    }

    /// The engine's uncached evaluation: Steps 5–8, the availability
    /// model with the parameter overlay, exact BDD availability, credible
    /// bounds when parameters are observed, and the MC compile.
    fn evaluate(
        &mut self,
        tr: &mut Tracer,
        key: PerspectiveKey,
    ) -> Result<Arc<CachedPerspective>, String> {
        let start = std::time::Instant::now();
        let snapshot = Arc::clone(&self.snapshot);
        let span = tr.enter("pipeline.setup");
        let mapping = (self.mapper)(&snapshot.service, &key.client, &key.provider);
        let warm = matches!(&self.pipeline, Some((epoch, _)) if *epoch == snapshot.epoch);
        if warm {
            let (_, pipeline) = self.pipeline.as_mut().expect("warm pipeline present");
            pipeline.set_mapping(mapping).map_err(|e| e.to_string())?;
        } else {
            let mut pipeline = UpsimPipeline::new(
                snapshot.infrastructure.clone(),
                snapshot.service.clone(),
                mapping,
            )
            .map_err(|e| e.to_string())?;
            pipeline.record_paths = false;
            pipeline.set_options(self.discovery);
            pipeline.set_shared_graph(Arc::clone(&self.graph));
            self.pipeline = Some((snapshot.epoch, pipeline));
        }
        tr.exit(span);
        let (_, pipeline) = self.pipeline.as_mut().expect("pipeline just ensured");

        let span = tr.enter("pipeline.run");
        let run = pipeline.run().map_err(|e| e.to_string());
        let mut offset = tr.current_start_ns();
        if let Ok(run) = &run {
            for timing in &run.timings {
                if let Some((_, name)) = STEP_SPANS.iter().find(|(step, _)| *step == timing.step) {
                    let dur = timing.duration.as_nanos() as u64;
                    tr.record(name, offset, dur);
                    offset += dur;
                }
            }
        }
        tr.exit(span);
        let run = run?;

        let span = tr.enter("availability.transform");
        let mut model = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions::default(),
        );
        let posterior = dependability::overlay_model(
            &mut model,
            &snapshot.params,
            AnalysisOptions::default().paper_formula,
        );
        tr.exit(span);
        let observed = posterior.iter().filter(|p| p.is_some()).count();

        let span = tr.enter("availability.bdd");
        let availability = model.availability_bdd();
        let availability_ci = (observed > 0).then(|| {
            let corner = |low: bool| -> Vec<f64> {
                model
                    .components
                    .iter()
                    .map(|c| match c.source {
                        dependability::ParamSource::Observed { ci, .. } => {
                            if low {
                                ci.0
                            } else {
                                ci.1
                            }
                        }
                        dependability::ParamSource::Authored => c.availability,
                    })
                    .collect()
            };
            (
                dependability::perturb::availability_with(&model, &corner(true)),
                dependability::perturb::availability_with(&model, &corner(false)),
            )
        });
        tr.exit(span);

        let span = tr.enter("availability.mc_compile");
        let mc_program = Arc::new(model.compile_mc());
        tr.exit(span);

        let path_counts: Vec<(String, usize)> = run
            .discovered
            .iter()
            .map(|d| (d.pair.atomic_service.clone(), d.len()))
            .collect();
        self.counts.evals += 1;
        self.counts.paths += path_counts.iter().map(|(_, n)| *n as u64).sum::<u64>();
        let entry = Arc::new(CachedPerspective {
            key,
            epoch: snapshot.epoch,
            availability,
            upsim_nodes: run.touched_devices().map(str::to_string).collect(),
            path_counts,
            reduction_ratio: run.reduction_ratio,
            eval_micros: start.elapsed().as_micros() as u64,
            mc_program,
            observed,
            availability_ci,
            posterior,
        });
        let span = tr.enter("cache.insert");
        self.cache.insert(Arc::clone(&entry), &self.epoch);
        tr.exit(span);
        Ok(entry)
    }

    /// The wire `MC` kernel call: one thread, point or posterior sampling.
    pub fn monte_carlo(
        &mut self,
        tr: &mut Tracer,
        entry: &CachedPerspective,
        samples: usize,
        seed: u64,
        interval: bool,
    ) -> (MonteCarloResult, Option<(f64, f64)>) {
        let posterior = interval && entry.observed > 0;
        let span = tr.enter(if posterior {
            "mc.posterior"
        } else {
            "mc.point"
        });
        let out = if posterior {
            let sampler = entry.mc_program.posterior_sampler(&entry.posterior);
            let (result, ci) = entry.mc_program.run_posterior(samples, 1, seed, &sampler);
            (result, Some(ci))
        } else {
            let result = entry.mc_program.run(samples, 1, seed);
            let ci = interval.then(|| result.confidence_95());
            (result, ci)
        };
        tr.exit(span);
        if posterior {
            self.counts.posterior_trials += samples as u64;
        } else {
            self.counts.point_trials += samples as u64;
        }
        out
    }

    /// Applies one write as the engine does: derive the next generation,
    /// re-intern after a topology change, journal, bump the epoch, sweep
    /// the cache.
    pub fn update(
        &mut self,
        tr: &mut Tracer,
        command: UpdateCommand,
    ) -> Result<UpdateSummary, String> {
        let span = tr.enter("snapshot.apply");
        let mut next = (*self.snapshot).clone();
        let old_service = next.service_name().to_string();
        let applied = next.apply(&command).map_err(|e| e.to_string());
        tr.exit(span);
        applied?;
        next.epoch = self.snapshot.epoch + 1;
        let (kind, topology) = match &command {
            UpdateCommand::Connect { .. } => ("connect", true),
            UpdateCommand::Disconnect { .. } => ("disconnect", true),
            UpdateCommand::SubstituteService { .. } => ("substitute-service", false),
            UpdateCommand::Observe { .. } => ("observe", false),
            UpdateCommand::ObserveBatch { .. } => ("observe-batch", false),
        };
        if topology {
            let span = tr.enter("snapshot.intern");
            self.graph = next.interned_graph();
            tr.exit(span);
        }
        if let Some(journal) = self.journal.as_mut() {
            let span = tr.enter("persist.append");
            let appended = journal.append(next.epoch, &command);
            tr.exit(span);
            appended.map_err(|e| format!("journal append: {e}"))?;
        }
        self.epoch.store(next.epoch, Ordering::SeqCst);
        let span = tr.enter("cache.invalidate");
        let invalidated = match &command {
            UpdateCommand::Connect { .. } => self.cache.invalidate_all(),
            UpdateCommand::Disconnect { a, b } => self.cache.invalidate_link(a, b),
            UpdateCommand::SubstituteService { .. } => self.cache.invalidate_service(&old_service),
            UpdateCommand::Observe { component, .. } => self.cache.invalidate_component(component),
            UpdateCommand::ObserveBatch { events } => {
                let mut names: Vec<&str> = events.iter().map(|(c, _, _)| c.as_str()).collect();
                names.sort_unstable();
                names.dedup();
                self.cache.invalidate_components(&names)
            }
        };
        tr.exit(span);
        self.snapshot = Arc::new(next);
        self.counts.writes += 1;
        self.counts.invalidated += invalidated as u64;
        Ok(UpdateSummary {
            epoch: self.epoch(),
            invalidated,
            kind,
        })
    }

    /// A campaign priced serially: prepare, baselines, every scenario,
    /// aggregate — the work the engine scatters over its pool, whose
    /// report is worker-count invariant.
    pub fn campaign(
        &mut self,
        tr: &mut Tracer,
        spec: CampaignSpec,
    ) -> Result<CampaignReport, String> {
        let snapshot = Arc::clone(&self.snapshot);
        let span = tr.enter("campaign.prepare");
        let input = CampaignInput::prepare(
            snapshot.infrastructure.clone(),
            snapshot.service.clone(),
            Arc::clone(&self.mapper),
            self.discovery,
            Some(Arc::clone(&self.graph)),
            Arc::clone(&snapshot.params),
            spec,
        );
        tr.exit(span);
        let input = input?;
        let span = tr.enter("campaign.baseline");
        let perspectives = evaluate_baseline_chunk(&input, 0..input.pairs.len());
        tr.exit(span);
        let baseline = Baseline {
            perspectives: perspectives?,
        };
        let mut ctx = EvalCtx::default();
        let mut outcomes = Vec::with_capacity(input.scenarios.len());
        for index in 0..input.scenarios.len() {
            let span = tr.enter("campaign.scenario");
            let outcome = evaluate_scenario_with(&input, &baseline, index, &mut ctx);
            tr.exit(span);
            outcomes.push(outcome?);
        }
        self.counts.scenarios += outcomes.len() as u64;
        let span = tr.enter("campaign.aggregate");
        let report = aggregate(&input, &baseline, &outcomes);
        tr.exit(span);
        Ok(report)
    }
}
