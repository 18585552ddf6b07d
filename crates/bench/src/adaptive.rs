//! Adaptive decision-point latency: naive permutation walks vs the shared
//! permutation scan, on the paper-default grid (16 bids × N ∈ {1,2,3} ×
//! 2 policies, 24 h history, 3 zones).
//!
//! Reports ns/decision-point, decisions/s, and the scan's speedup over
//! the naive path. Gate: neither scanned path may be slower than naive.

use crate::round;
use redspot_core::{AdaptiveConfig, AdaptiveRunner, ExperimentConfig, ForecastMode};
use redspot_trace::gen::GenConfig;
use redspot_trace::{SimDuration, SimTime};
use serde::Serialize;
use std::time::Instant;

/// Decision points cycle over this many hourly boundaries after warm-up,
/// mirroring a week of billing-hour decisions.
const CYCLE_HOURS: u64 = 168;

#[derive(Serialize)]
struct Grid {
    bids: usize,
    n_options: usize,
    policies: usize,
    zones: usize,
    history_hours: u64,
}

#[derive(Serialize)]
pub(crate) struct Report {
    grid: Grid,
    decisions: u64,
    naive_ns_per_decision: f64,
    scan_cold_ns_per_decision: f64,
    scan_incremental_ns_per_decision: f64,
    naive_decisions_per_sec: f64,
    scan_cold_decisions_per_sec: f64,
    scan_incremental_decisions_per_sec: f64,
    speedup_cold: f64,
    speedup_incremental: f64,
}

/// Mean ns per decision over `iters` calls at cycling hourly decision
/// points. `fresh_session` drops the scan cache between decisions (naive
/// mode is stateless, so it only matters for the scan).
fn measure(
    runner: &AdaptiveRunner,
    start: SimTime,
    work: SimDuration,
    deadline: SimDuration,
    iters: u64,
    fresh_session: bool,
) -> f64 {
    let at = |i: u64| start + SimDuration::from_hours(i % CYCLE_HOURS);
    let run = |n: u64| {
        if fresh_session {
            for i in 0..n {
                let d = runner.session().decide(at(i), work, deadline);
                std::hint::black_box(d);
            }
        } else {
            let mut session = runner.session();
            for i in 0..n {
                let d = session.decide(at(i), work, deadline);
                std::hint::black_box(d);
            }
        }
    };
    run(iters / 10 + 1); // warm-up
    let t = Instant::now();
    run(iters);
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Time `iters` decisions per path; returns the report and the gate's
/// failure, if any.
pub(crate) fn run(iters: u64, seed: u64) -> (Report, Vec<String>) {
    let traces = GenConfig::high_volatility(seed).generate();
    let cfg = ExperimentConfig::paper_default();
    let work = cfg.app.work;
    let deadline = cfg.deadline;
    let start = SimTime::from_hours(48);
    let acfg = AdaptiveConfig::default();
    let mode = |forecast| AdaptiveConfig {
        forecast,
        ..acfg.clone()
    };

    let naive_runner =
        AdaptiveRunner::new(&traces, start, cfg.clone()).with_config(mode(ForecastMode::Naive));
    let scan_runner =
        AdaptiveRunner::new(&traces, start, cfg).with_config(mode(ForecastMode::Scan));

    let naive = measure(&naive_runner, start, work, deadline, iters, true);
    let cold = measure(&scan_runner, start, work, deadline, iters, true);
    let incr = measure(&scan_runner, start, work, deadline, iters, false);

    let per_sec = |ns: f64| 1e9 / ns;
    let rows = [
        ("naive", naive),
        ("scan (cold build)", cold),
        ("scan (incremental)", incr),
    ];
    println!(
        "adaptive decision point: {} bids x {} N x {} policies, {} h history, {} zones, {} decisions",
        acfg.bid_grid.len(),
        acfg.n_options.len(),
        acfg.policy_kinds.len(),
        acfg.history.secs() / 3_600,
        traces.n_zones(),
        iters,
    );
    for (name, ns) in rows {
        println!(
            "  {name:<20} {:>12.0} ns/decision  {:>10.0} decisions/s  {:>6.2}x vs naive",
            ns,
            per_sec(ns),
            naive / ns,
        );
    }

    let report = Report {
        grid: Grid {
            bids: acfg.bid_grid.len(),
            n_options: acfg.n_options.len(),
            policies: acfg.policy_kinds.len(),
            zones: traces.n_zones(),
            history_hours: acfg.history.secs() / 3_600,
        },
        decisions: iters,
        naive_ns_per_decision: round(naive, 0),
        scan_cold_ns_per_decision: round(cold, 0),
        scan_incremental_ns_per_decision: round(incr, 0),
        naive_decisions_per_sec: round(per_sec(naive), 1),
        scan_cold_decisions_per_sec: round(per_sec(cold), 1),
        scan_incremental_decisions_per_sec: round(per_sec(incr), 1),
        speedup_cold: round(naive / cold, 2),
        speedup_incremental: round(naive / incr, 2),
    };
    let mut failures = Vec::new();
    if cold > naive || incr > naive {
        failures.push(format!(
            "adaptive: scan slower than naive (cold {:.2}x, incremental {:.2}x)",
            naive / cold,
            naive / incr,
        ));
    }
    (report, failures)
}
