//! `sharded_sweep`: a crash-safe bid sweep of cheap fixed policies, split
//! into one shard per worker, the shards run concurrently through
//! `run_shard` at the default fsync cadence, then verified and merged
//! with `merge_dir` — the `redspot sweep --shard K/N` + `redspot merge`
//! pipeline, in process.

use crate::layers::{journaled_shard, markov_share_pct, probe_all, ShardTimes};
use crate::sys::{cpu_seconds, median, peak_rss_mb, timed, us_since, workers};
use crate::{Report, SETUPS};
use redspot_core::{ExperimentConfig, MarketCtx, PolicyKind};
use redspot_exp::windows::{experiment_starts, run_span_for};
use redspot_exp::{
    fingerprint, merge_dir, run_shard, MergedSweep, RunRequest, RunSpec, Scheme, ShardManifest,
};
use redspot_trace::gen::GenConfig;
use redspot_trace::{paper_bid_grid, TraceSet};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// Experiment starts per bid row.
const N_STARTS: usize = 16;

/// The sweep grid in canonical cell order: bid-major rows of Periodic
/// and Spot-on cadence, single-zone on every zone and redundant over all
/// zones, then one on-demand and one Naive Large-bid baseline per start
/// (both ignore the bid).
fn grid(traces: &TraceSet, base: &ExperimentConfig) -> Vec<RunSpec> {
    let starts = experiment_starts(traces, run_span_for(base.deadline), N_STARTS);
    let zones: Vec<_> = traces.zone_ids().collect();
    let bids = paper_bid_grid();
    let mut specs = Vec::new();
    for &bid in &bids {
        for &start in &starts {
            for kind in [PolicyKind::Periodic, PolicyKind::SpotOnCadence] {
                for &zone in &zones {
                    specs.push(RunSpec {
                        start,
                        bid,
                        scheme: Scheme::Single { kind, zone },
                    });
                }
                specs.push(RunSpec {
                    start,
                    bid,
                    scheme: Scheme::Redundant {
                        kind,
                        zones: zones.clone(),
                    },
                });
            }
        }
    }
    for &start in &starts {
        specs.push(RunSpec {
            start,
            bid: bids[0],
            scheme: Scheme::OnDemand,
        });
        specs.push(RunSpec {
            start,
            bid: bids[0],
            scheme: Scheme::LargeBid {
                threshold: None,
                zone: zones[0],
            },
        });
    }
    specs
}

/// Everything one sweep needs, built in set-up.
struct Sweep {
    traces: TraceSet,
    mkt: MarketCtx,
    base: ExperimentConfig,
    specs: Vec<RunSpec>,
    manifests: Vec<ShardManifest>,
}

impl Sweep {
    fn build(seed: u64, n_shards: usize) -> Sweep {
        let traces = GenConfig::high_volatility(seed).generate();
        let mkt = MarketCtx::new(traces.clone());
        let base = ExperimentConfig::paper_default().with_seed(seed);
        let specs = grid(&traces, &base);
        let fp = fingerprint(&base, &specs);
        let manifests = (1..=n_shards)
            .map(|k| ShardManifest::plan(specs.len(), k, n_shards, fp.clone()).expect("valid plan"))
            .collect();
        Sweep {
            traces,
            mkt,
            base,
            specs,
            manifests,
        }
    }

    /// Run every shard concurrently into `dir`, then merge; returns the
    /// serialized merged artifact.
    fn pass(&self, dir: &Path) -> Result<String, String> {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .manifests
                .iter()
                .map(|m| {
                    s.spawn(move || {
                        run_shard(&self.mkt, &self.base, &self.specs, m, dir, None)
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("shard thread")?;
            }
            Ok::<(), String>(())
        })?;
        let (merged, _) = merge_dir(dir).map_err(|e| e.to_string())?;
        serde_json::to_string(&merged).map_err(|e| e.to_string())
    }

    /// [`pass`](Self::pass) with each shard journaled through
    /// [`journaled_shard`] (timers around every journal call) and the
    /// merge timed.
    fn traced_pass(&self, dir: &Path) -> Result<(String, ShardTimes, f64), String> {
        let times = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .manifests
                .iter()
                .map(|m| {
                    s.spawn(move || journaled_shard(&self.mkt, &self.base, &self.specs, m, dir))
                })
                .collect();
            let mut all = ShardTimes::default();
            for h in handles {
                all.absorb(h.join().expect("shard thread")?);
            }
            Ok::<ShardTimes, String>(all)
        })?;
        let t = Instant::now();
        let (merged, _) = merge_dir(dir).map_err(|e| e.to_string())?;
        let merge_ms = us_since(t) / 1e3;
        let json = serde_json::to_string(&merged).map_err(|e| e.to_string())?;
        Ok((json, times, merge_ms))
    }

    /// The single-process reference artifact: one metered `RunRequest`
    /// over the whole grid, as `redspot sweep --out` writes it.
    fn reference(&self, threads: usize) -> String {
        let outcome = RunRequest::new(&self.mkt, &self.base, &self.specs)
            .threads(threads)
            .metered(true)
            .execute()
            .expect("benchmark config is valid");
        let merged = MergedSweep::from_run(
            fingerprint(&self.base, &self.specs),
            outcome.results,
            outcome.metrics.unwrap_or_default(),
        );
        serde_json::to_string(&merged).expect("merged sweeps serialize")
    }
}

fn digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Run the `sharded_sweep` workload.
pub fn run(rep: &mut Report, seed: u64, seconds: f64, traced: bool, work: &Path) {
    let threads = workers();
    rep.ctx("worker_threads", threads);
    rep.ctx("shards", threads);

    let mut setup_s = Vec::new();
    let mut sweep = None;
    for _ in 0..SETUPS {
        let (s, wall, _) = timed(|| Sweep::build(seed, threads));
        setup_s.push(wall);
        sweep = Some(s);
    }
    let sweep = sweep.expect("set-ups ran");
    let n_cells = sweep.specs.len();
    rep.ctx("cells", n_cells);

    // Timed phase: fresh journal directory per pass; the artifacts are
    // kept as digests (plus the first in full) and checked afterwards.
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("pass-{}", walls.len()));
        let t = Instant::now();
        let out = sweep.pass(&dir);
        walls.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
        match out {
            Ok(json) => {
                digests.push(Some(digest(&json)));
                first.get_or_insert(json);
            }
            Err(e) => {
                eprintln!("sweep pass {} failed: {e}", walls.len() - 1);
                digests.push(None);
            }
        }
    }
    let cpu = cpu_seconds() - cpu0;
    let rss = peak_rss_mb();

    rep.set("setup_s", median(&setup_s), "s");
    rep.set("wall_s", median(&walls), "s");
    rep.set("cpu_s", cpu / walls.len() as f64, "s");
    rep.set("peak_rss_mb", rss, "MB");
    rep.set("passes", walls.len() as f64, "count");
    rep.set("cells_per_s", n_cells as f64 / median(&walls), "1/s");
    rep.keep("setup_s", &setup_s);
    rep.keep("pass_wall_s", &walls);

    let memo = sweep.mkt.uptime_stats();
    let cache = sweep.mkt.cache_stats();
    rep.ctx("memo_stats", format!("{memo:?}"));
    rep.ctx("cache_stats", format!("{cache:?}"));

    if traced {
        // Three traced passes, so the overhead compares medians.
        let (mut traced_walls, mut times, mut merge_ms) = (vec![], ShardTimes::default(), vec![]);
        for i in 0..3 {
            let dir = work.join(format!("traced-{i}"));
            let t = Instant::now();
            let out = sweep.traced_pass(&dir);
            traced_walls.push(t.elapsed().as_secs_f64());
            let _ = std::fs::remove_dir_all(&dir);
            match out {
                Ok((json, shard_times, merge)) => {
                    digests.push(Some(digest(&json)));
                    times.absorb(shard_times);
                    merge_ms.push(merge);
                }
                Err(e) => {
                    eprintln!("traced sweep pass failed: {e}");
                    digests.push(None);
                }
            }
        }
        rep.set(
            "tracing.overhead_pct",
            (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
            "%",
        );
        probe_all(rep, &sweep.traces, seed, threads, work, None);
        times.report(rep, &merge_ms);
        rep.set("markov.memo_hits", memo.hits as f64, "count");
        rep.set("markov.memo_misses", memo.misses as f64, "count");
        rep.set("markov.memo_entries", memo.entries as f64, "count");
        markov_share_pct(rep, memo.misses, cpu / walls.len() as f64);
        rep.set("adaptive.cache_hits", cache.hits as f64, "count");
        rep.set("adaptive.cache_misses", cache.misses as f64, "count");
        rep.set("adaptive.cache_entries", cache.entries as f64, "count");
    }

    // Output check, outside the timed phase: the first artifact is
    // byte-identical to the single-process reference, and every pass
    // produced the same bytes as the first.
    let reference = sweep.reference(threads);
    let want = digest(&reference);
    rep.check(first.as_deref() == Some(reference.as_str()), || {
        "first merged artifact differs from the single-process sweep".into()
    });
    for (i, d) in digests.iter().enumerate() {
        let bad = if *d == Some(want) { 0 } else { n_cells as u64 };
        rep.check_n(n_cells as u64, bad, || {
            format!("pass {i}: merged artifact missing or different from the single-process sweep")
        });
    }
}
