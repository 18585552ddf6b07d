//! redbench: the redspot benchmark.
//!
//! ```text
//! cargo run --release --manifest-path redbench/Cargo.toml -- \
//!     --workload <paper_repro|sharded_sweep|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process (so `VmHWM` is
//! that workload's peak), checks its outputs, prints a human-readable
//! report, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The full record
//! (run context, every metric, raw samples) is written to
//! `.redbench_out/`. See `redbench/README.md` for the workloads, the
//! metric definitions and the layer → metric → workload predictions.

mod layers;
mod paper;
mod serve;
mod sweep;
mod sys;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics every workload reports with `--trace 0`. `cpu_s`
/// is measured and printed too, but not reported: on the shared host it
/// drifts by up to a quarter between runs (see README).
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Engine schemes timed cell by cell (metric-name suffixes).
pub const SCHEMES: [&str; 12] = [
    "threshold",
    "rising_edge",
    "periodic",
    "markov_daly",
    "spot_on",
    "randomized_bid",
    "redundant_periodic",
    "redundant_markov_daly",
    "redundant_spot_on",
    "adaptive",
    "large_bid",
    "on_demand",
];

/// Per-layer metrics every workload reports with `--trace 1`, besides
/// the per-scheme engine metrics (see [`per_layer`]).
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("trace.generate_ms", "ms"),
    ("markov.build_us", "us"),
    ("markov.average_uptime_us", "us"),
    ("markov.expected_uptime_us", "us"),
    ("markov.states", "count"),
    ("markov.memo_hits", "count"),
    ("markov.memo_misses", "count"),
    ("markov.memo_entries", "count"),
    ("markov.cpu_share_pct_computed", "%"),
    ("adaptive.seed_build_ms", "ms"),
    ("adaptive.scan_build_us", "us"),
    ("adaptive.scan_advance_us", "us"),
    ("adaptive.decide_cold_us", "us"),
    ("adaptive.decide_warm_us", "us"),
    ("adaptive.cache_hits", "count"),
    ("adaptive.cache_misses", "count"),
    ("adaptive.cache_entries", "count"),
    ("exec.batches", "count"),
    ("exec.batch_ms", "ms"),
    ("exec.parallel_efficiency", "ratio"),
    ("shard.append_p50_us", "us"),
    ("shard.append_p99_us", "us"),
    ("shard.record_bytes", "bytes"),
    ("shard.finish_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.handle_us.ingest", "us"),
    ("serve.handle_us.advise_cold", "us"),
    ("serve.handle_us.advise_warm", "us"),
    ("serve.cold_builds", "count"),
    ("serve.warm_advises", "count"),
    ("serve.wire_us", "us"),
    ("tracing.overhead_pct", "%"),
];

/// The full per-layer metric list, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for s in SCHEMES {
        out.push((format!("engine.cell_us.{s}"), "us"));
        out.push((format!("engine.events_per_cell.{s}"), "count"));
    }
    out
}

/// What one workload invocation measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Every metric computed, by name: `(value, unit)`.
    pub values: BTreeMap<String, (f64, &'static str)>,
    /// Run context (counts, configuration) recorded with the result.
    pub context: Vec<(String, String)>,
    /// Raw samples kept in memory during the run, written at the end.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Human-readable tables printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check_n(1, u64::from(!ok), what);
    }

    /// Record `n` checked operations of which `bad` failed.
    pub fn check_n(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Record a context entry.
    pub fn ctx(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Keep a raw sample series.
    pub fn keep(&mut self, name: &str, xs: &[f64]) {
        self.samples.push((name.to_string(), xs.to_vec()));
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> WorkDir {
        let dir = Path::new(".redbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create .redbench_work");
        WorkDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent behind only if another run is using it.
        let _ = std::fs::remove_dir(".redbench_work");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn metrics_json(rep: &Report, names: &[(String, &'static str)]) -> String {
    let items: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            let (v, _) = rep.values[n.as_str()];
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Write the full record of this run under `.redbench_out/`.
fn write_record(
    args: &Args,
    rep: &Report,
    all: &[(String, &'static str)],
) -> std::io::Result<PathBuf> {
    let dir = Path::new(".redbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let context: Vec<String> = rep
        .context
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let samples: Vec<String> = rep
        .samples
        .iter()
        .map(|(k, xs)| {
            let xs: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
            format!("{}: [{}]", json_str(k), xs.join(","))
        })
        .collect();
    let failures: Vec<String> = rep.failures.iter().map(|f| json_str(f)).collect();
    let body = format!(
        "{{\n\"workload\": {},\n\"seed\": {},\n\"trace\": {},\n\"attempted\": {},\n\"failed\": {},\n\"failures\": [{}],\n\"context\": {{{}}},\n\"metrics\": {},\n\"samples\": {{{}}}\n}}\n",
        json_str(&args.workload),
        args.seed,
        args.trace,
        rep.attempted,
        rep.failed,
        failures.join(", "),
        context.join(", "),
        metrics_json(rep, all),
        samples.join(",\n"),
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: redbench --workload <paper_repro|sharded_sweep|serve_mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    type Workload = fn(&mut Report, u64, f64, bool, &Path);
    let run: Workload = match args.workload.as_str() {
        "paper_repro" => paper::run,
        "sharded_sweep" => sweep::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("error: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let work = WorkDir::new(&args.workload);
    let mut rep = Report::default();
    rep.ctx("workload", &args.workload);
    rep.ctx("seed", args.seed);
    rep.ctx("seconds", args.seconds);
    rep.ctx("traced", args.trace);
    rep.ctx("nproc", sys::nproc());
    rep.ctx("git_commit", sys::git_commit());
    rep.ctx("rustc", sys::rustc_version());
    run(&mut rep, args.seed, args.seconds, args.trace, work.path());
    drop(work);

    let e2e: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    let layer = per_layer();
    let reported = if args.trace { &layer } else { &e2e };
    for (name, unit) in reported {
        match rep.values.get(name) {
            Some(&(v, u)) if v.is_finite() && u == *unit => {}
            other => panic!("metric {name} ({unit}) not measured correctly: {other:?}"),
        }
    }

    let error_rate = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "== redbench {} (seed {}, {} s{}) ==",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for (k, v) in &rep.context {
        println!("  context {k:<28} {v}");
    }
    for note in &rep.notes {
        println!("{note}");
    }
    for (name, (v, unit)) in &rep.values {
        println!("  {name:<36} {v:>16.4} {unit}");
    }
    println!(
        "  {:<36} {:>16.4}   ({} failed / {} attempted)",
        "error_rate", error_rate, rep.failed, rep.attempted
    );
    for f in &rep.failures {
        println!("  FAILED: {f}");
    }
    let all: Vec<(String, &'static str)> = rep
        .values
        .iter()
        .map(|(n, &(_, u))| (n.clone(), u))
        .collect();
    match write_record(&args, &rep, &all) {
        Ok(path) => println!("  record written to {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write the run record: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rep.failed == 0 && rep.attempted > 0,
        rep.attempted.max(1),
        rep.failed,
        metrics_json(&rep, reported)
    );
}
