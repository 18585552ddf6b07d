//! Per-layer timing from outside the program: `Instant` timers around
//! the public entry points of each layer, replayed on the workload's own
//! market. Every traced run calls [`probe_all`], so each workload
//! reports every layer; a workload then overwrites the metrics its own
//! timed pass measured directly (see each workload module).

use crate::sys::{median, percentile, timed, us_since};
use crate::{serve, Report, SCHEMES};
use redspot_core::policy::markov_daly::{HISTORY, MARKOV_BIN_MILLIS};
use redspot_core::telemetry::MetricsRecorder;
use redspot_core::{
    AdaptiveConfig, AdaptiveRunner, ExperimentConfig, MarketCtx, PermutationScan, PolicyKind,
    ScanSeed,
};
use redspot_exp::scheme::RANDOMIZED_BID_SEED;
use redspot_exp::shard::journal::{ShardJournal, DEFAULT_SYNC_EVERY};
use redspot_exp::windows::{experiment_starts, run_span_for};
use redspot_exp::{merge_dir, run_spec, CellRecord, RunRequest, RunSpec, Scheme, ShardManifest};
use redspot_markov::MarkovModel;
use redspot_trace::gen::GenConfig;
use redspot_trace::{Price, SimDuration, SimTime, TraceHandle, TraceSet, Window, ZoneId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The bid every single-bid probe uses: the paper's $0.81 sweet spot.
const PROBE_BID: Price = Price::from_millis(810);

/// `n` decision instants spread evenly over the trace, each with a full
/// 48 h history behind it and an hour of trace after it.
fn instants(traces: &TraceSet, n: u64) -> Vec<SimTime> {
    let lo = (traces.start() + HISTORY).secs();
    let hi = traces.end().secs() - 3600;
    (0..n)
        .map(|i| SimTime::from_secs(lo + (hi - lo) * i / n))
        .collect()
}

/// The run spec for one of [`SCHEMES`].
fn scheme_spec(name: &str, start: SimTime, zones: &[ZoneId]) -> RunSpec {
    let single = |kind| Scheme::Single {
        kind,
        zone: zones[0],
    };
    let redundant = |kind| Scheme::Redundant {
        kind,
        zones: zones.to_vec(),
    };
    let scheme = match name {
        "threshold" => single(PolicyKind::Threshold),
        "rising_edge" => single(PolicyKind::RisingEdge),
        "periodic" => single(PolicyKind::Periodic),
        "markov_daly" => single(PolicyKind::MarkovDaly),
        "spot_on" => single(PolicyKind::SpotOnCadence),
        "randomized_bid" => single(PolicyKind::RandomizedBid(RANDOMIZED_BID_SEED)),
        "redundant_periodic" => redundant(PolicyKind::Periodic),
        "redundant_markov_daly" => redundant(PolicyKind::MarkovDaly),
        "redundant_spot_on" => redundant(PolicyKind::SpotOnCadence),
        "adaptive" => Scheme::Adaptive,
        "large_bid" => Scheme::LargeBid {
            threshold: None,
            zone: zones[0],
        },
        "on_demand" => Scheme::OnDemand,
        other => panic!("unknown scheme {other}"),
    };
    RunSpec {
        start,
        bid: PROBE_BID,
        scheme,
    }
}

/// `trace` layer: synthetic trace generation, per three-zone month.
fn probe_trace(rep: &mut Report, seed: u64) {
    let ms: Vec<f64> = (0..3)
        .map(|i| {
            let t = Instant::now();
            black_box(GenConfig::high_volatility(seed.wrapping_add(i)).generate());
            us_since(t) / 1e3
        })
        .collect();
    rep.set("trace.generate_ms", median(&ms), "ms");
    rep.keep("trace.generate_ms", &ms);
}

/// `markov` layer: model build and both uptime queries over the
/// policies' 48 h history windows on zone 0.
fn probe_markov(rep: &mut Report, traces: &TraceSet) {
    let series = traces.zone(ZoneId(0));
    let (mut build, mut avg, mut exp, mut states) = (vec![], vec![], vec![], vec![]);
    for t in instants(traces, 24) {
        let window = Window::new(t.saturating_sub(HISTORY), t);
        let start = Instant::now();
        let model = MarkovModel::with_bin(series, window, MARKOV_BIN_MILLIS);
        build.push(us_since(start));
        let start = Instant::now();
        black_box(model.average_uptime(PROBE_BID));
        avg.push(us_since(start));
        let price = series.price_at(t).min(PROBE_BID);
        let start = Instant::now();
        black_box(model.expected_uptime(price, PROBE_BID));
        exp.push(us_since(start));
        states.push(model.n_states() as f64);
    }
    rep.set("markov.build_us", median(&build), "us");
    rep.set("markov.average_uptime_us", median(&avg), "us");
    rep.set("markov.expected_uptime_us", median(&exp), "us");
    rep.set("markov.states", median(&states), "count");
    rep.keep("markov.build_us", &build);
    rep.keep("markov.average_uptime_us", &avg);
    rep.keep("markov.expected_uptime_us", &exp);
}

/// `engine` layer: one `run_spec` per scheme and start on a fresh
/// sweep-grade context, timed per cell; also checks every deadline.
fn probe_engine(rep: &mut Report, traces: &TraceSet, seed: u64) {
    let mkt = MarketCtx::for_sweep(traces.clone());
    let base = ExperimentConfig::paper_default().with_seed(seed);
    let zones: Vec<ZoneId> = traces.zone_ids().collect();
    let starts = experiment_starts(traces, run_span_for(base.deadline), 4);
    for name in SCHEMES {
        let (mut us, mut events) = (vec![], vec![]);
        for &start in &starts {
            let spec = scheme_spec(name, start, &zones);
            let t = Instant::now();
            let (result, metrics) = run_spec(&mkt, &spec, &base, MetricsRecorder::new());
            us.push(us_since(t));
            events.push(metrics.events_seen as f64);
            rep.check(result.met_deadline, || {
                format!("engine probe: {name} from {start} missed its deadline")
            });
        }
        rep.set(&format!("engine.cell_us.{name}"), median(&us), "us");
        rep.set(
            &format!("engine.events_per_cell.{name}"),
            crate::sys::mean(&events),
            "count",
        );
        rep.keep(&format!("engine.cell_us.{name}"), &us);
    }
}

/// `adaptive` layer: whole-trace seed build, scan build and advance, and
/// cold/warm decisions through a [`redspot_core::DecisionSession`].
fn probe_adaptive(rep: &mut Report, traces: &TraceSet, seed: u64) {
    let acfg = AdaptiveConfig::default();
    let zones: Vec<ZoneId> = traces.zone_ids().collect();
    let seed_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(ScanSeed::build(traces, &zones, &acfg.bid_grid));
            us_since(t) / 1e3
        })
        .collect();
    let hour = SimDuration::from_hours(1);
    let (mut build, mut advance) = (vec![], vec![]);
    for t in instants(traces, 24) {
        let window = Window::new(t.saturating_sub(acfg.history), t);
        let start = Instant::now();
        let mut scan = PermutationScan::build(traces, &zones, &acfg.bid_grid, window, 1);
        build.push(us_since(start));
        let next = Window::new(t.saturating_sub(acfg.history) + hour, t + hour);
        let start = Instant::now();
        scan.advance(traces, next);
        advance.push(us_since(start));
        black_box(scan.n_steps());
    }
    let cfg = ExperimentConfig::paper_default().with_seed(seed);
    let (work, deadline) = (cfg.app.work, cfg.deadline);
    let runner = AdaptiveRunner::new(TraceHandle::from(traces), traces.start(), cfg);
    let (mut cold, mut warm) = (vec![], vec![]);
    for t in instants(traces, 12) {
        let mut session = runner.session();
        let start = Instant::now();
        black_box(session.decide(t, work, deadline));
        cold.push(us_since(start));
        for _ in 0..2 {
            let start = Instant::now();
            black_box(session.decide(t, work, deadline));
            warm.push(us_since(start));
        }
    }
    rep.set("adaptive.seed_build_ms", median(&seed_ms), "ms");
    rep.set("adaptive.scan_build_us", median(&build), "us");
    rep.set("adaptive.scan_advance_us", median(&advance), "us");
    rep.set("adaptive.decide_cold_us", median(&cold), "us");
    rep.set("adaptive.decide_warm_us", median(&warm), "us");
    rep.keep("adaptive.scan_build_us", &build);
    rep.keep("adaptive.decide_cold_us", &cold);
    rep.keep("adaptive.decide_warm_us", &warm);
}

/// Periodic single-zone cells at the probe bid over `n` starts × every
/// zone: the cheap cell mix the exec and shard probes run.
fn periodic_grid(traces: &TraceSet, base: &ExperimentConfig, n: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for start in experiment_starts(traces, run_span_for(base.deadline), n) {
        for zone in traces.zone_ids() {
            specs.push(RunSpec {
                start,
                bid: PROBE_BID,
                scheme: Scheme::Single {
                    kind: PolicyKind::Periodic,
                    zone,
                },
            });
        }
    }
    specs
}

/// Wall and CPU time of executor batches.
#[derive(Default)]
pub struct Batches {
    /// Wall seconds per batch.
    pub wall: Vec<f64>,
    /// Process CPU seconds per batch.
    pub cpu: Vec<f64>,
}

impl Batches {
    /// Run one `RunRequest` batch, timing it.
    pub fn execute(
        &mut self,
        mkt: &MarketCtx,
        base: &ExperimentConfig,
        specs: &[RunSpec],
        threads: usize,
    ) -> Vec<redspot_core::RunResult> {
        let (outcome, wall, cpu) = timed(|| {
            RunRequest::new(mkt, base, specs)
                .threads(threads)
                .execute()
                .expect("benchmark configs are valid")
        });
        self.wall.push(wall);
        self.cpu.push(cpu);
        outcome.results
    }

    /// Report `exec.*`: batch count, median batch wall time, and
    /// Σ batch CPU / (threads × Σ batch wall).
    pub fn report(&self, rep: &mut Report, threads: usize) {
        let wall: f64 = self.wall.iter().sum();
        let cpu: f64 = self.cpu.iter().sum();
        let ms: Vec<f64> = self.wall.iter().map(|w| w * 1e3).collect();
        rep.set("exec.batches", self.wall.len() as f64, "count");
        rep.set("exec.batch_ms", median(&ms), "ms");
        rep.set(
            "exec.parallel_efficiency",
            cpu / (threads as f64 * wall),
            "ratio",
        );
        rep.keep("exec.batch_ms", &ms);
    }
}

/// `exec` layer: four identical 2-thread batches of Periodic cells.
fn probe_exec(rep: &mut Report, traces: &TraceSet, seed: u64, threads: usize) {
    let mkt = MarketCtx::new(traces.clone());
    let base = ExperimentConfig::paper_default().with_seed(seed);
    let specs = periodic_grid(traces, &base, 40);
    let mut batches = Batches::default();
    for _ in 0..4 {
        let results = batches.execute(&mkt, &base, &specs, threads);
        let missed = results.iter().filter(|r| !r.met_deadline).count() as u64;
        rep.check_n(results.len() as u64, missed, || {
            "exec probe: a cell missed its deadline".into()
        });
    }
    batches.report(rep, threads);
}

/// Timings of one journaled shard, recorded around the public journal
/// calls [`redspot_exp::run_shard`] makes.
#[derive(Default)]
pub struct ShardTimes {
    /// `ShardJournal::append_cell` per cell, µs.
    pub append_us: Vec<f64>,
    /// `ShardJournal::finish` per shard, ms.
    pub finish_ms: Vec<f64>,
    /// Journal bytes per cell record.
    pub record_bytes: Vec<f64>,
}

impl ShardTimes {
    /// Fold another shard's timings in.
    pub fn absorb(&mut self, other: ShardTimes) {
        self.append_us.extend(other.append_us);
        self.finish_ms.extend(other.finish_ms);
        self.record_bytes.extend(other.record_bytes);
    }

    /// Report `shard.*` (merge time comes separately).
    pub fn report(&self, rep: &mut Report, merge_ms: &[f64]) {
        rep.set(
            "shard.append_p50_us",
            percentile(&self.append_us, 0.50),
            "us",
        );
        rep.set(
            "shard.append_p99_us",
            percentile(&self.append_us, 0.99),
            "us",
        );
        rep.set("shard.record_bytes", median(&self.record_bytes), "bytes");
        rep.set("shard.finish_ms", median(&self.finish_ms), "ms");
        rep.set("shard.merge_ms", median(merge_ms), "ms");
        rep.keep("shard.append_us", &self.append_us);
        rep.keep("shard.merge_ms", merge_ms);
    }
}

/// Run one shard exactly as [`redspot_exp::run_shard`] does on a fresh
/// directory — open, then `run_spec` + `append_cell` per cell, then
/// `finish` — with a timer around each journal call.
pub fn journaled_shard(
    mkt: &MarketCtx,
    base: &ExperimentConfig,
    specs: &[RunSpec],
    manifest: &ShardManifest,
    dir: &Path,
) -> Result<ShardTimes, String> {
    let mut times = ShardTimes::default();
    let (mut journal, _) =
        ShardJournal::open(dir, manifest, DEFAULT_SYNC_EVERY).map_err(|e| e.to_string())?;
    for cell in manifest.cells() {
        let (result, metrics) = run_spec(mkt, &specs[cell], base, MetricsRecorder::new());
        let record = CellRecord {
            cell,
            result,
            metrics,
        };
        let t = Instant::now();
        journal.append_cell(&record).map_err(|e| e.to_string())?;
        times.append_us.push(us_since(t));
    }
    let t = Instant::now();
    let path = journal.finish().map_err(|e| e.to_string())?;
    times.finish_ms.push(us_since(t) / 1e3);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    times
        .record_bytes
        .push(bytes as f64 / manifest.cells().len().max(1) as f64);
    Ok(times)
}

/// `shard` layer: three single-shard journaled runs of Periodic cells
/// plus their verified merge.
fn probe_shard(rep: &mut Report, traces: &TraceSet, seed: u64, work: &Path) {
    let mkt = MarketCtx::new(traces.clone());
    let base = ExperimentConfig::paper_default().with_seed(seed);
    let specs = periodic_grid(traces, &base, 32);
    let fp = redspot_exp::fingerprint(&base, &specs);
    let manifest = ShardManifest::plan(specs.len(), 1, 1, fp).expect("1/1 is a valid plan");
    let mut times = ShardTimes::default();
    let mut merge_ms = Vec::new();
    for i in 0..3 {
        let dir = work.join(format!("shard-probe-{i}"));
        let outcome = journaled_shard(&mkt, &base, &specs, &manifest, &dir).and_then(|t| {
            let start = Instant::now();
            let (merged, _) = merge_dir(&dir).map_err(|e| e.to_string())?;
            merge_ms.push(us_since(start) / 1e3);
            Ok((t, merged.n_cells))
        });
        rep.check(matches!(&outcome, Ok((_, n)) if *n == specs.len()), || {
            format!("shard probe: {:?}", outcome.as_ref().err())
        });
        if let Ok((t, _)) = outcome {
            times.absorb(t);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    times.report(rep, &merge_ms);
}

/// Run every layer probe on `traces`. `advise_rtt_us`, when given, are
/// advise round trips the workload measured over TCP; otherwise a short
/// TCP session is run here to get them.
pub fn probe_all(
    rep: &mut Report,
    traces: &TraceSet,
    seed: u64,
    threads: usize,
    work: &Path,
    advise_rtt_us: Option<&[f64]>,
) {
    probe_trace(rep, seed);
    probe_markov(rep, traces);
    probe_engine(rep, traces, seed);
    probe_adaptive(rep, traces, seed);
    probe_exec(rep, traces, seed, threads);
    probe_shard(rep, traces, seed, work);
    let handle_us = serve::handle_probe(rep, traces, seed);
    let rtt = match advise_rtt_us {
        Some(rtt) => rtt.to_vec(),
        None => serve::wire_probe(rep, traces, seed),
    };
    rep.set("serve.wire_us", median(&rtt) - median(&handle_us), "us");
}

/// The computed Markov share of a pass's CPU time: memo misses (each one
/// a chain propagation on a freshly built or memoized model) times the
/// probe's per-call build + `average_uptime` cost. An upper estimate:
/// expected-uptime queries are cheaper and models are shared.
pub fn markov_share_pct(rep: &mut Report, misses: u64, cpu_s: f64) {
    let per_call_us = rep.values["markov.build_us"].0 + rep.values["markov.average_uptime_us"].0;
    let pct = if cpu_s > 0.0 {
        misses as f64 * per_call_us / 1e6 / cpu_s * 100.0
    } else {
        0.0
    };
    rep.set("markov.cpu_share_pct_computed", pct, "%");
}
