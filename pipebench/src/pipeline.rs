//! One repetition of a workload through the campaign pipeline:
//! TOML → `file::from_str` → `Campaign::expand` → per point
//! `ScenarioEngine::build` / `BuiltScenario::run_to_end` /
//! `BuiltScenario::finish` → `ResultsStore::to_jsonl` →
//! `ResultsStore::from_jsonl` → `aggregate::aggregate` → the
//! `figures::render_*` renderers. Each public call is one span; the
//! benchmark measures from outside and changes no program code.
//!
//! Given a pause hook, a point's simulation runs in slices of [`SLICE`]
//! simulated time (`Simulator::run_until` per slice, `run_to_end` for the
//! last), so the hook can sample the host inside a long point. Slicing
//! leaves the events, their order and the results as they are:
//! `run_to_end` is `run_until` of the end time, and `run_until` stops
//! after the events at its deadline. The caller checks this by comparing
//! every point's event fingerprint with an unsliced repetition's.

use crate::layers::{self, LayerTimes, Slowdown};
use crate::workloads::{render, CampaignFile};
use campaign::runner::{ErrorKind, ErrorRecord, PointError, RunRecord};
use campaign::{aggregate, file, Campaign, ResultsStore};
use experiments::engine::ScenarioEngine;
use experiments::figures::Scale;
use netsim::time::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Wall time per pipeline stage, summed over a repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `campaign::file::from_str`.
    pub parse: Duration,
    /// `Campaign::expand`.
    pub expand: Duration,
    /// `ScenarioEngine::build`.
    pub build: Duration,
    /// `BuiltScenario::run_to_end`.
    pub run: Duration,
    /// `BuiltScenario::finish`.
    pub finish: Duration,
    /// `ResultsStore::to_jsonl` (one `store::render_record` per record).
    pub encode: Duration,
    /// `ResultsStore::from_jsonl`.
    pub decode: Duration,
    /// `aggregate::aggregate` and its table.
    pub aggregate: Duration,
    /// The `figures::render_*` renderers.
    pub render: Duration,
}

impl Stages {
    /// Sum of every stage: the wall the spans cover.
    pub fn total(&self) -> Duration {
        self.parse
            + self.expand
            + self.build
            + self.run
            + self.finish
            + self.encode
            + self.decode
            + self.aggregate
            + self.render
    }
}

/// What one executed point left behind, besides its store line.
#[derive(Debug, Clone)]
pub struct PointTrace {
    /// `campaign:coords` — a stable, human-readable point id.
    pub key: String,
    /// Simulated seconds the point covers.
    pub sim_s: f64,
    /// Build + run + finish wall.
    pub wall: Duration,
    /// `Simulator::events_processed` (0 when the point panicked).
    pub events: u64,
    /// `Simulator::events_fingerprint` (0 when the point panicked).
    pub fingerprint: u64,
    /// Whether the point panicked instead of producing a record.
    pub panicked: bool,
}

/// One repetition's results.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Parse of the first file to the last figure rendered.
    pub wall: Duration,
    /// Parse of the first file to the end of the first build: the wall
    /// before the first simulated event.
    pub setup: Duration,
    /// Per-stage wall.
    pub stages: Stages,
    /// Every point, in campaign then expansion order.
    pub points: Vec<PointTrace>,
    /// Each campaign's store, as `ResultsStore::to_jsonl` wrote it.
    pub stores: Vec<String>,
    /// Node-kind attribution (traced repetitions only).
    pub layers: Option<LayerTimes>,
    /// Sender retransmissions (traced repetitions only).
    pub retransmits: u64,
    /// Qdisc drops summed over link hops (traced repetitions only).
    pub qdisc_drops: u64,
}

impl Rep {
    /// Simulated seconds per wall second over the whole pipeline.
    pub fn sim_x_realtime(&self) -> f64 {
        self.sim_s() / self.wall.as_secs_f64()
    }

    /// Simulated seconds over every point.
    pub fn sim_s(&self) -> f64 {
        self.points.iter().map(|p| p.sim_s).sum()
    }

    /// Simulator events over every point.
    pub fn events(&self) -> u64 {
        self.points.iter().map(|p| p.events).sum()
    }
}

/// How a repetition is traced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracing {
    /// Wrap nodes and qdiscs in timing decorators.
    pub nodes: bool,
    /// A known busy-wait to add inside one kind's decorator.
    pub slowdown: Option<Slowdown>,
}

/// Compile every campaign file. The texts are generated by this crate,
/// so a parse error is a bug in the benchmark or a broken loader.
fn parse(files: &[CampaignFile]) -> Vec<Campaign> {
    files
        .iter()
        .map(|f| {
            file::from_str(&f.toml, Scale::Fast)
                .unwrap_or_else(|e| panic!("benchmark campaign file rejected: {e}"))
        })
        .collect()
}

/// Simulated time between two calls of the pause hook within a point.
pub const SLICE: SimDuration = SimDuration::from_secs(1);

/// Run `files` once through the pipeline on one worker. A `pause` hook
/// is called after every slice of a point's simulation and after every
/// point; the time spent in it is left out of the repetition's wall and
/// its stage and point times. Without one, each point runs in one
/// `run_to_end` call.
pub fn run_rep(
    files: &[CampaignFile],
    tracing: Tracing,
    mut pause: Option<&mut dyn FnMut()>,
) -> Rep {
    let mut stages = Stages::default();
    let t0 = Instant::now();
    let campaigns = parse(files);
    stages.parse = t0.elapsed();
    let t = Instant::now();
    let expanded: Vec<_> = campaigns.iter().map(Campaign::expand).collect();
    stages.expand = t.elapsed();

    let engine = ScenarioEngine::with_threads(1);
    let mut setup = None;
    let mut points = Vec::new();
    let mut stores = Vec::new();
    let mut layer_sum = tracing.nodes.then(LayerTimes::default);
    let (mut retransmits, mut qdisc_drops) = (0, 0);
    let mut paused = Duration::ZERO;
    for ((campaign, pts), f) in campaigns.iter().zip(expanded).zip(files) {
        let mut records = Vec::with_capacity(pts.len());
        let mut errors = Vec::new();
        for p in pts {
            let key = format!("{}:{}", campaign.name, p.coords.key());
            let sim_s = p.spec.duration.as_secs_f64();
            let tp = Instant::now();
            let paused_before = paused;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let t = Instant::now();
                let mut built = engine.build(&p.spec);
                stages.build += t.elapsed();
                setup.get_or_insert_with(|| t0.elapsed());
                let probe = tracing
                    .nodes
                    .then(|| layers::instrument(&mut built, tracing.slowdown));
                let t = Instant::now();
                let paused_at = paused;
                if let Some(pause) = pause.as_mut() {
                    let end = built.end_time();
                    let mut next = SimTime::ZERO + SLICE;
                    while next < end {
                        built.sim.run_until(next);
                        let tp = Instant::now();
                        pause();
                        paused += tp.elapsed();
                        next += SLICE;
                    }
                }
                built.run_to_end();
                stages.run += t.elapsed() - (paused - paused_at);
                let events = built.sim.events_processed();
                let fingerprint = built.sim.events_fingerprint();
                if let (Some(probe), Some(sum)) = (&probe, &mut layer_sum) {
                    sum.add(&probe.times());
                    retransmits += layers::retransmits(&built);
                    qdisc_drops += layers::qdisc_drops(&built);
                }
                let t = Instant::now();
                let report = built.finish();
                stages.finish += t.elapsed();
                (report, events, fingerprint)
            }));
            let wall = tp.elapsed() - (paused - paused_before);
            let (events, fingerprint, panicked) = match outcome {
                Ok((report, events, fingerprint)) => {
                    records.push(RunRecord {
                        ordinal: p.ordinal,
                        coords: p.coords,
                        report,
                    });
                    (events, fingerprint, false)
                }
                Err(payload) => {
                    errors.push(ErrorRecord {
                        ordinal: p.ordinal,
                        coords: p.coords,
                        error: PointError {
                            kind: ErrorKind::Panic,
                            message: panic_text(payload),
                        },
                    });
                    (0, 0, true)
                }
            };
            points.push(PointTrace {
                key,
                sim_s,
                wall,
                events,
                fingerprint,
                panicked,
            });
            if let Some(pause) = pause.as_mut() {
                let t = Instant::now();
                pause();
                paused += t.elapsed();
            }
        }

        let t = Instant::now();
        let text = ResultsStore::with_errors(campaign, records, errors).to_jsonl();
        stages.encode += t.elapsed();
        let t = Instant::now();
        let decoded = ResultsStore::from_jsonl(&text);
        stages.decode += t.elapsed();
        // A store that does not read back leaves no records to render;
        // the caller's store comparison flags every point of it.
        let records = decoded.map(|s| s.records).unwrap_or_default();
        let t = Instant::now();
        let table = aggregate::render_table(&aggregate::aggregate(&records, "scheme"), "scheme");
        stages.aggregate += t.elapsed();
        let t = Instant::now();
        let figure = render(f.figure, &records);
        stages.render += t.elapsed();
        std::hint::black_box((table, figure));
        stores.push(text);
    }
    let wall = t0.elapsed() - paused;
    Rep {
        wall,
        setup: setup.unwrap_or(wall),
        stages,
        points,
        stores,
        layers: layer_sum,
        retransmits,
        qdisc_drops,
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The stores of `files` as the campaign runner writes them at `jobs`
/// workers, plus the run ledger's point durations and utilization
/// inputs. `ledger_dir` receives one `abc-runlog/v1` file per campaign.
pub fn run_with_runner(
    files: &[CampaignFile],
    jobs: usize,
    ledger_dir: &std::path::Path,
) -> (Vec<String>, RunnerStats) {
    let mut stores = Vec::new();
    let mut stats = RunnerStats::default();
    for (i, campaign) in parse(files).iter().enumerate() {
        let path = ledger_dir.join(format!("runlog-{i}.jsonl"));
        let opts = campaign::RunOptions::quiet()
            .with_jobs(Some(jobs))
            .with_keep_going(true)
            .with_runlog(Some(campaign::RunLogConfig::new(&path)));
        let (records, errors) =
            campaign::split_outcomes(campaign::run_campaign_outcomes(campaign, &opts));
        stores.push(ResultsStore::with_errors(campaign, records, errors).to_jsonl());
        match campaign::RunLedger::load(&path) {
            Ok(ledger) => {
                let s = campaign::runlog::stats(&ledger);
                stats.busy_ns += s.busy_ns;
                stats.capacity_ns += s.workers as u64 * s.wall_ns;
                stats
                    .point_ns
                    .extend(ledger.points.iter().map(|p| p.end_ns - p.start_ns));
            }
            Err(e) => stats.ledger_errors.push(e),
        }
    }
    (stores, stats)
}

/// Run-ledger figures summed over a workload's campaigns.
#[derive(Debug, Clone, Default)]
pub struct RunnerStats {
    /// Point-span wall summed over workers.
    pub busy_ns: u64,
    /// `workers × wall` summed over campaigns.
    pub capacity_ns: u64,
    /// Every point span's duration.
    pub point_ns: Vec<u64>,
    /// Ledgers that could not be read back.
    pub ledger_errors: Vec<String>,
}

impl RunnerStats {
    /// Busy share of the worker pool's wall.
    pub fn utilization(&self) -> f64 {
        self.busy_ns as f64 / self.capacity_ns.max(1) as f64
    }

    /// Slowest point span over the median one.
    pub fn straggler_ratio(&self) -> f64 {
        let mut d = self.point_ns.clone();
        d.sort_unstable();
        let max = d.last().copied().unwrap_or(0) as f64;
        let median = d.get(d.len() / 2).copied().unwrap_or(1).max(1) as f64;
        max / median
    }
}
