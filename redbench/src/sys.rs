//! Process counters read from `/proc/self`, sample statistics, and the
//! run context recorded with every result.

use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (every thread, live
/// or joined), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3 (`state`).
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Nanoseconds one `/proc` schedstat file reports on CPU.
fn schedstat_ns(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU nanoseconds of the calling thread, from
/// `/proc/thread-self/schedstat`.
pub fn thread_cpu_ns() -> u64 {
    // The kernel folds a running thread's time into this counter only at
    // scheduler ticks and switches, so a thread that never blocks reads
    // in whole ticks (4 ms here); yielding forces the update first.
    std::thread::yield_now();
    schedstat_ns(Path::new("/proc/thread-self/schedstat"))
}

/// CPU nanoseconds of every live thread of this process, summed over
/// `/proc/self/task/*/schedstat`. Threads that already exited are not
/// counted: for them use [`thread_cpu_ns`] before they end.
pub fn live_threads_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(Result::ok)
                .map(|task| schedstat_ns(&task.path().join("schedstat")))
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads and client connections every workload uses.
pub fn workers() -> usize {
    nproc().min(2)
}

/// Wall and CPU seconds of one closure call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = cpu_seconds();
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` (0 for an empty
/// sample).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Run a command and return its trimmed stdout, if it succeeds.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit under test: `REDBENCH_COMMIT` if set, else `git rev-parse
/// HEAD` in the working directory, else `unknown` (exported checkouts
/// carry no git metadata).
pub fn git_commit() -> String {
    std::env::var("REDBENCH_COMMIT")
        .ok()
        .or_else(|| command_output("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler on `PATH` (the one `cargo run` built this binary with).
pub fn rustc_version() -> String {
    command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}
