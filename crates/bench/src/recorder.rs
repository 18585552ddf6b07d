//! Recorder sink overhead: full engine runs under each shipped
//! [`Recorder`](redspot_core::Recorder), against the `NullRecorder`
//! baseline (the sink forecast sub-simulations and sweeps use).
//!
//! Reports ns/run per sink and the overhead of each relative to
//! `NullRecorder`. Gate: `NullRecorder` must not be measurably slower
//! than `VecRecorder` — the "free when off" property the observability
//! plane promises.

use crate::round;
use redspot_core::{
    Engine, ExperimentConfig, JsonlRecorder, MetricsRecorder, NullRecorder, PolicyKind, Recorder,
    VecRecorder,
};
use redspot_trace::gen::GenConfig;
use redspot_trace::{SimTime, TraceSet, ZoneId};
use serde::Serialize;
use std::time::Instant;

/// Noise-robust blocks: each sink's mean is the *minimum* over this many
/// repeated measurement blocks (a single run is ~10 µs, so one-shot means
/// are dominated by frequency ramps and scheduler jitter on shared CI
/// runners; the block minimum converges on the undisturbed cost).
const BLOCKS: u64 = 5;

#[derive(Serialize)]
struct Scenario {
    policy: &'static str,
    zones: usize,
    profile: &'static str,
}

#[derive(Serialize)]
pub(crate) struct Report {
    scenario: Scenario,
    iters: u64,
    null_ns_per_run: f64,
    vec_ns_per_run: f64,
    metrics_ns_per_run: f64,
    jsonl_sink_ns_per_run: f64,
    vec_overhead_pct: f64,
    metrics_overhead_pct: f64,
    jsonl_sink_overhead_pct: f64,
}

/// Min-of-blocks mean ns per full engine run with the sink `make` builds
/// per iteration. The run result is black-boxed so the simulation cannot
/// be elided along with the recorder.
fn measure<R: Recorder>(traces: &TraceSet, iters: u64, make: impl Fn() -> R) -> f64 {
    let start = SimTime::from_hours(72);
    let run = |n: u64| {
        for _ in 0..n {
            let mut cfg = ExperimentConfig::paper_default();
            cfg.zones = vec![ZoneId(0)];
            let engine =
                Engine::with_recorder(traces, start, cfg, PolicyKind::Periodic.build(), make());
            std::hint::black_box(engine.run_full());
        }
    };
    let per_block = iters.div_ceil(BLOCKS).max(1);
    run(per_block); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..BLOCKS {
        let t = Instant::now();
        run(per_block);
        best = best.min(t.elapsed().as_nanos() as f64 / per_block as f64);
    }
    best
}

/// Time `iters` runs per sink; returns the report and the gate's
/// failure, if any.
pub(crate) fn run(iters: u64, seed: u64) -> (Report, Vec<String>) {
    let traces = GenConfig::high_volatility(seed).generate();

    let null = measure(&traces, iters, || NullRecorder);
    let vec = measure(&traces, iters, VecRecorder::new);
    let metrics = measure(&traces, iters, MetricsRecorder::new);
    let jsonl = measure(&traces, iters, || JsonlRecorder::new(std::io::sink()));

    let overhead = |ns: f64| (ns / null - 1.0) * 100.0;
    println!("recorder sink overhead: single-zone Periodic run, {iters} iterations");
    for (name, ns) in [
        ("NullRecorder", null),
        ("VecRecorder", vec),
        ("MetricsRecorder", metrics),
        ("JsonlRecorder(sink)", jsonl),
    ] {
        println!(
            "  {name:<20} {:>12.0} ns/run  {:>+7.1}% vs null",
            ns,
            overhead(ns),
        );
    }

    let report = Report {
        scenario: Scenario {
            policy: "Periodic",
            zones: 1,
            profile: "high_volatility",
        },
        iters,
        null_ns_per_run: round(null, 0),
        vec_ns_per_run: round(vec, 0),
        metrics_ns_per_run: round(metrics, 0),
        jsonl_sink_ns_per_run: round(jsonl, 0),
        vec_overhead_pct: round(overhead(vec), 1),
        metrics_overhead_pct: round(overhead(metrics), 1),
        jsonl_sink_overhead_pct: round(overhead(jsonl), 1),
    };
    // "Free when off": the elidable sink must not cost more than the
    // retaining one. 10% headroom absorbs shared-runner timing noise.
    let mut failures = Vec::new();
    if null > vec * 1.10 {
        failures.push(format!(
            "recorder: NullRecorder slower than VecRecorder ({null:.0} vs {vec:.0} ns/run)"
        ));
    }
    (report, failures)
}
