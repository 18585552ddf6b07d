//! `redspot-bench`: the performance gates, in one run.
//!
//! ```text
//! cargo run --release -p redspot-bench -- [--quick] [--check] [--json FILE]
//! ```
//!
//! Always runs all four gates — adaptive decision latency, recorder sink
//! overhead, serve advise latency, sweep throughput — and prints each
//! one's table. `--json FILE` writes one object with a section per gate;
//! `--check` exits 1 if any gate fails, after printing every failure.
//! Each gate compares paths of the same build against each other, so the
//! gates hold on any machine; the absolute numbers do not.

mod adaptive;
mod recorder;
mod serve;
mod sweep;

use serde::Serialize;

/// Every gate generates its market from this seed.
const SEED: u64 = 42;

/// Workload sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sizes {
    /// Adaptive decisions timed per path.
    decisions: u64,
    /// Engine runs timed per recorder sink.
    recorder_iters: u64,
    /// Price rows ingested before the serve timings start (26 hours of
    /// 300 s samples).
    serve_rows: u64,
    /// Advise samples per serve path.
    serve_iters: usize,
    /// Sweep grid cells.
    sweep_cells: usize,
}

/// The sizes behind the committed `BENCH_gates.json`.
const FULL: Sizes = Sizes {
    decisions: 500,
    recorder_iters: 2_000,
    serve_rows: 312,
    serve_iters: 200,
    sweep_cells: 520,
};

/// The sizes CI runs (`--quick`).
const QUICK: Sizes = Sizes {
    decisions: 60,
    recorder_iters: 500,
    serve_rows: 312,
    serve_iters: 50,
    sweep_cells: 60,
};

const USAGE: &str = "usage: redspot-bench [--quick] [--check] [--json FILE]";

#[derive(Debug, PartialEq, Eq)]
struct Args {
    sizes: Sizes,
    check: bool,
    json: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        sizes: FULL,
        check: false,
        json: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => out.sizes = QUICK,
            "--check" => out.check = true,
            "--json" => out.json = Some(it.next().ok_or("--json needs a file path")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(out)
}

/// `x` rounded to `places` decimals, so the JSON carries the precision
/// the measurement supports.
fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// The `--json` document: one section per gate.
#[derive(Serialize)]
struct Gates {
    adaptive: adaptive::Report,
    recorder: recorder::Report,
    serve: serve::Report,
    sweep: sweep::Report,
}

/// Keep a gate's report and collect its failures.
fn collect<R>(failures: &mut Vec<String>, (report, failed): (R, Vec<String>)) -> R {
    println!();
    failures.extend(failed);
    report
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let s = args.sizes;

    let mut failures = Vec::new();
    let f = &mut failures;
    let gates = Gates {
        adaptive: collect(f, adaptive::run(s.decisions, SEED)),
        recorder: collect(f, recorder::run(s.recorder_iters, SEED)),
        serve: collect(f, serve::run(s.serve_rows, s.serve_iters, SEED)),
        sweep: collect(f, sweep::run(s.sweep_cells, SEED)),
    };

    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(&gates).expect("reports serialize");
        match std::fs::write(path, json + "\n") {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.check && !failures.is_empty() {
        for failure in &failures {
            eprintln!("check failed: {failure}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_are_full_size_without_check_or_json() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                sizes: FULL,
                check: false,
                json: None,
            })
        );
    }

    #[test]
    fn quick_picks_the_ci_sizes_and_the_default_the_full_sizes() {
        assert_eq!(
            QUICK,
            Sizes {
                decisions: 60,
                recorder_iters: 500,
                serve_rows: 312,
                serve_iters: 50,
                sweep_cells: 60,
            }
        );
        assert_eq!(
            FULL,
            Sizes {
                decisions: 500,
                recorder_iters: 2_000,
                serve_rows: 312,
                serve_iters: 200,
                sweep_cells: 520,
            }
        );
        assert_eq!(parse(&["--quick"]).unwrap().sizes, QUICK);
        assert_eq!(
            parse(&["--check", "--quick", "--json", "out.json"]),
            Ok(Args {
                sizes: QUICK,
                check: true,
                json: Some("out.json".into()),
            })
        );
    }

    #[test]
    fn json_needs_a_value() {
        assert_eq!(
            parse(&["--json"]),
            Err("--json needs a file path".to_string())
        );
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for args in [
            &["--iters", "5"][..],
            &["--bogus"],
            &["--quick", "--seed", "7"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with("unknown flag: --"), "{args:?}: {err}");
        }
    }
}
