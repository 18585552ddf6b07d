//! Sweep throughput: the unified batch plane (shared scan seed, decision
//! cache, Markov uptime memo, work-stealing executor) against the
//! pre-batch-plane sequential path (one thread, no memoization).
//!
//! The workload is a paper-style sensitivity grid: adaptive runs at
//! hourly-offset starts, swept across several slack levels (the paper
//! compares 15 % and 50 % slack). All grid cells execute against one
//! [`MarketCtx`], so the decision cache and uptime memo accumulate across
//! the whole sweep — the sharing a real figure-generation run gets.
//!
//! Reports wall-clock seconds and cells/s for each variant, the speedups,
//! and both caches' hit rates. Gates: every variant's results must be
//! identical (determinism), and the cached sequential path must not be
//! slower than the uncached one.

use crate::round;
use redspot_core::{CacheStats, ExperimentConfig, MarketCtx, MemoStats};
use redspot_exp::exec::RunRequest;
use redspot_exp::scheme::{RunSpec, Scheme};
use redspot_trace::gen::GenConfig;
use redspot_trace::{Price, SimTime};
use serde::Serialize;
use std::time::Instant;

/// Slack levels of the sensitivity grid, percent of `C`.
const SLACKS: [u64; 4] = [10, 15, 25, 50];

#[derive(Serialize)]
pub(crate) struct Report {
    cells: usize,
    starts: usize,
    slack_percents: &'static [u64],
    zones: usize,
    sequential_uncached_secs: f64,
    sequential_cached_secs: f64,
    parallel_cached_secs: f64,
    speedup_cached: f64,
    speedup_parallel: f64,
    decision_cache_hits: u64,
    decision_cache_misses: u64,
    decision_cache_hit_rate: f64,
    decision_cache_tables: usize,
    uptime_memo_hits: u64,
    uptime_memo_misses: u64,
    uptime_memo_hit_rate: f64,
    results_identical: bool,
}

/// Run a grid of about `n_cells` cells under each variant; returns the
/// report and the gates' failures.
pub(crate) fn run(n_cells: usize, seed: u64) -> (Report, Vec<String>) {
    let traces = GenConfig::high_volatility(seed).generate();

    // Grid: `n_cells` = starts × slack levels. Starts are hourly offsets
    // across the usable span of the month (48 h of history bootstrap in
    // front, deadline + margin behind), cycling when needed.
    let bases: Vec<ExperimentConfig> = SLACKS
        .iter()
        .map(|&pct| ExperimentConfig::paper_default().with_slack_percent(pct))
        .collect();
    let max_deadline = bases.iter().map(|b| b.deadline).max().expect("non-empty");
    let span_hours = (traces.end().secs() / 3_600)
        .saturating_sub(48 + max_deadline.secs() / 3_600 + 1)
        .max(1);
    let n_starts = n_cells.div_ceil(SLACKS.len());
    let specs: Vec<RunSpec> = (0..n_starts)
        .map(|i| RunSpec {
            start: SimTime::from_hours(48 + (i as u64 % span_hours)),
            bid: Price::from_millis(810),
            scheme: Scheme::Adaptive,
        })
        .collect();
    let cells = specs.len() * bases.len();

    // Each variant runs the whole grid against one fresh context (no
    // variant warms another's caches); `uncached` + one thread is the
    // pre-batch-plane path.
    struct Variant {
        secs: f64,
        results: Vec<redspot_core::RunResult>,
        cache: CacheStats,
        uptime: MemoStats,
    }
    let time = |mkt: &MarketCtx, threads: usize| -> Variant {
        let t = Instant::now();
        let mut results = Vec::with_capacity(cells);
        let mut cache = CacheStats::default();
        let mut uptime = MemoStats::default();
        for base in &bases {
            let out = RunRequest::new(mkt, base, &specs)
                .threads(threads)
                .execute()
                .expect("paper-default config is valid");
            results.extend(out.results);
            cache.hits += out.cache.hits;
            cache.misses += out.cache.misses;
            cache.entries = out.cache.entries;
            uptime.hits += out.uptime.hits;
            uptime.misses += out.uptime.misses;
            uptime.entries = out.uptime.entries;
        }
        Variant {
            secs: t.elapsed().as_secs_f64(),
            results,
            cache,
            uptime,
        }
    };
    let uncached = time(&MarketCtx::uncached(traces.clone()), 1);
    let cached = time(&MarketCtx::for_sweep(traces.clone()), 1);
    let parallel = time(&MarketCtx::for_sweep(traces.clone()), 0);

    let identical = uncached.results == cached.results && cached.results == parallel.results;
    let per_sec = |s: f64| cells as f64 / s;
    println!(
        "adaptive sweep: {} cells ({} starts x {} slack levels), high volatility, {} zones, results identical: {identical}",
        cells,
        specs.len(),
        bases.len(),
        traces.n_zones(),
    );
    for (name, s) in [
        ("sequential uncached", uncached.secs),
        ("sequential cached", cached.secs),
        ("parallel cached", parallel.secs),
    ] {
        println!(
            "  {name:<20} {s:>8.2} s  {:>8.1} cells/s  {:>6.2}x vs uncached",
            per_sec(s),
            uncached.secs / s,
        );
    }
    println!(
        "  decision cache: {} hits / {} misses ({:.1}% hit rate), {} tables",
        cached.cache.hits,
        cached.cache.misses,
        cached.cache.hit_rate() * 100.0,
        cached.cache.entries,
    );
    println!(
        "  uptime memo:    {} hits / {} misses ({:.1}% hit rate), {} scalars",
        cached.uptime.hits,
        cached.uptime.misses,
        cached.uptime.hit_rate() * 100.0,
        cached.uptime.entries,
    );

    let report = Report {
        cells,
        starts: specs.len(),
        slack_percents: &SLACKS,
        zones: traces.n_zones(),
        sequential_uncached_secs: round(uncached.secs, 3),
        sequential_cached_secs: round(cached.secs, 3),
        parallel_cached_secs: round(parallel.secs, 3),
        speedup_cached: round(uncached.secs / cached.secs, 2),
        speedup_parallel: round(uncached.secs / parallel.secs, 2),
        decision_cache_hits: cached.cache.hits,
        decision_cache_misses: cached.cache.misses,
        decision_cache_hit_rate: round(cached.cache.hit_rate(), 3),
        decision_cache_tables: cached.cache.entries,
        uptime_memo_hits: cached.uptime.hits,
        uptime_memo_misses: cached.uptime.misses,
        uptime_memo_hit_rate: round(cached.uptime.hit_rate(), 3),
        results_identical: identical,
    };
    let mut failures = Vec::new();
    if !identical {
        failures.push("sweep: results differ across variants".to_string());
    }
    if cached.secs > uncached.secs {
        failures.push(format!(
            "sweep: cached sequential sweep slower than uncached ({:.2}s vs {:.2}s)",
            cached.secs, uncached.secs
        ));
    }
    (report, failures)
}
