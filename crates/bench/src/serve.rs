//! Serve advise latency: cold vs warm, through the full request path.
//!
//! The serve registry keeps two tiers of sealed state per market
//! (DESIGN.md §17): ingesting a row invalidates both, so the first
//! advise afterwards is a *cold* scan rebuild, while advises between
//! ingests reuse the *warm* incremental scan. This gate measures both
//! distributions through `Server::handle_line` — JSON parse, registry
//! locking, decide, render — i.e. everything but the socket.
//!
//! Reports p50/p99 per path. Gate: the warm median must be faster than
//! the cold one — the warm-reuse property the two-tier design exists for.

use crate::round;
use redspot_core::serve::Server;
use redspot_trace::gen::GenConfig;
use redspot_trace::ZoneId;
use serde::Serialize;
use std::time::Instant;

const ZONES: usize = 3;
const STEP: u64 = 300;

#[derive(Serialize)]
struct Scenario {
    zones: usize,
    profile: &'static str,
    step_secs: u64,
}

#[derive(Serialize)]
pub(crate) struct Report {
    scenario: Scenario,
    history_rows: u64,
    iters: usize,
    cold_p50_us: f64,
    cold_p99_us: f64,
    warm_p50_us: f64,
    warm_p99_us: f64,
    warm_speedup_p50: f64,
}

/// Drive one request line and insist it succeeded.
fn ok(server: &Server, line: &str) -> String {
    let outcome = server.handle_line(0, line);
    if !outcome.reply.contains("\"ok\":true") {
        eprintln!("error: request failed: {line} -> {}", outcome.reply);
        std::process::exit(1);
    }
    outcome.reply
}

/// Ingest trace row `i` (one price per zone) at its watermark.
fn ingest(server: &Server, traces: &redspot_trace::TraceSet, i: u64) {
    let prices: Vec<String> = (0..ZONES)
        .map(|z| {
            traces.zone(ZoneId(z)).samples()[i as usize]
                .millis()
                .to_string()
        })
        .collect();
    ok(
        server,
        &format!(
            r#"{{"req":"ingest","market":"m1","at":{},"prices":[{}]}}"#,
            i * STEP,
            prices.join(",")
        ),
    );
}

/// The advise query a live client would issue at the market's current
/// watermark: the paper's standard job, one hour into its history.
fn advise_line(rows: u64) -> String {
    let now = rows * STEP - 3600;
    format!(
        r#"{{"req":"advise","market":"m1","now":{now},"remaining_compute":72000,"remaining_time":82800}}"#
    )
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Preload `history_rows` rows, then time `iters` advises per path;
/// returns the report and the gate's failure, if any.
pub(crate) fn run(history_rows: u64, iters: usize, seed: u64) -> (Report, Vec<String>) {
    let traces = GenConfig::high_volatility(seed).generate();
    let budget = traces.zone(ZoneId(0)).len() as u64;
    assert!(
        history_rows + iters as u64 <= budget,
        "{history_rows} history rows + {iters} ingests exceed the {budget} samples generated"
    );

    let server = Server::new();
    ok(
        &server,
        &format!(
            r#"{{"req":"open","market":"m1","zones":{ZONES},"step":{STEP},"era":"classic","bid":810,"seed":{seed}}}"#
        ),
    );
    for i in 0..history_rows {
        ingest(&server, &traces, i);
    }

    // Cold path: every advise follows a fresh ingest, so each one pays
    // the trace-view + scan rebuild at the new watermark.
    let mut cold_us = Vec::with_capacity(iters);
    let mut rows = history_rows;
    for _ in 0..iters {
        ingest(&server, &traces, rows);
        rows += 1;
        let line = advise_line(rows);
        let t = Instant::now();
        std::hint::black_box(ok(&server, &line));
        cold_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }

    // Warm path: repeated advises with no intervening ingest share the
    // sealed session; only the first (uncounted) query rebuilds.
    let line = advise_line(rows);
    ok(&server, &line); // seal
    let mut warm_us = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(ok(&server, &line));
        warm_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }

    cold_us.sort_by(|a, b| a.total_cmp(b));
    warm_us.sort_by(|a, b| a.total_cmp(b));
    let (cold_p50, cold_p99) = (percentile(&cold_us, 0.50), percentile(&cold_us, 0.99));
    let (warm_p50, warm_p99) = (percentile(&warm_us, 0.50), percentile(&warm_us, 0.99));

    println!(
        "serve advise latency: {ZONES} zones, {history_rows} history rows, {iters} samples per path"
    );
    println!("  cold (post-ingest rebuild)  p50 {cold_p50:>9.1} µs   p99 {cold_p99:>9.1} µs");
    println!("  warm (incremental reuse)    p50 {warm_p50:>9.1} µs   p99 {warm_p99:>9.1} µs");
    println!("  warm speedup at p50: {:.1}×", cold_p50 / warm_p50);

    let report = Report {
        scenario: Scenario {
            zones: ZONES,
            profile: "high_volatility",
            step_secs: STEP,
        },
        history_rows,
        iters,
        cold_p50_us: round(cold_p50, 1),
        cold_p99_us: round(cold_p99, 1),
        warm_p50_us: round(warm_p50, 1),
        warm_p99_us: round(warm_p99, 1),
        warm_speedup_p50: round(cold_p50 / warm_p50, 2),
    };
    // The two-tier split exists so that advises between ingests skip the
    // rebuild; if the warm median is not faster, the seal is broken.
    let mut failures = Vec::new();
    if warm_p50 * 1.10 > cold_p50 {
        failures.push(format!(
            "serve: warm advise not faster than cold (p50 {warm_p50:.1} vs {cold_p50:.1} µs)"
        ));
    }
    (report, failures)
}
