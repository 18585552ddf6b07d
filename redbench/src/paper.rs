//! `paper_repro`: the paper-scale reproduction — the library calls
//! `all_figures --full` makes (Figure 2, VAR, queuing, Figure 4,
//! Tables 2–3, Figures 5–6 and the headline) on one `PaperSetup` at 80
//! experiments per window, rendered to text.

use crate::layers::{markov_share_pct, probe_all, Batches};
use crate::sys::{median, peak_rss_mb, timed, workers};
use crate::{Report, SETUPS};
use redspot_core::{CacheStats, MemoStats};
use redspot_exp::experiments::fig4::{self, CellData, Fig4Panel, RED_KINDS, SINGLE_KINDS};
use redspot_exp::experiments::{fig2, fig5, fig6, headline, queuing, tables, var_analysis};
use redspot_exp::report::{boxplot_panel, dollars, REF_LINES};
use redspot_exp::sweep::all_zones;
use redspot_exp::{PaperSetup, RunSpec, Scheme};
use redspot_trace::vol::Volatility;
use redspot_trace::{highlight_bids, Price};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Experiments per volatility window: the paper's scale.
const N_EXPERIMENTS: usize = 80;

/// Seed of the reproduced configuration — both price months and the
/// experiment seed — as `all_figures --full` runs it by default. The work
/// of a pass depends on both: across seeds its CPU time varies by 15–25 %,
/// wider than this benchmark's bounds, so they stay fixed and `--seed`
/// seeds only the queuing study.
const PAPER_SEED: u64 = 42;

/// Spans recorded by a traced pass.
#[derive(Default)]
struct Tracer {
    /// `(section, wall s, cpu s)` in pass order.
    sections: Vec<(&'static str, f64, f64)>,
    /// Figure 4's executor batches.
    batches: Batches,
    /// `(volatility, policy, single/redundant)` of each batch, in order.
    batch_keys: Vec<(Volatility, String, &'static str)>,
    /// Figure-4 cells run and those that missed their deadline.
    cells: u64,
    missed: u64,
}

/// Time `f` as section `name` when tracing.
fn section<T>(tr: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => {
            let (out, wall, cpu) = timed(f);
            t.sections.push((name, wall, cpu));
            out
        }
        None => f(),
    }
}

/// Figure 4 as `fig4::fig4` computes it, one `RunRequest` batch per
/// `(cell, policy, bid)` exactly as `sweep::{single_zone,redundant}_costs`
/// issue them, with each batch timed and every result's deadline checked.
fn fig4_traced(setup: &PaperSetup, t: &mut Tracer) -> Vec<Fig4Panel> {
    let mut panels = Vec::new();
    for vol in [Volatility::Low, Volatility::High] {
        for slack in [15u64, 50] {
            let base = setup.base_config(slack, 300);
            let mkt = setup.ctx(vol);
            let starts = setup.starts(vol, base.deadline);
            let zones = all_zones(mkt.traces());
            let batch = |t: &mut Tracer, kind: &str, shape: &'static str, specs: Vec<RunSpec>| {
                let results = t.batches.execute(mkt, &base, &specs, setup.threads);
                t.batch_keys.push((vol, kind.to_string(), shape));
                t.cells += results.len() as u64;
                t.missed += results.iter().filter(|r| !r.met_deadline).count() as u64;
                dollars(&results)
            };
            let mut singles = Vec::new();
            for kind in SINGLE_KINDS {
                for bid in highlight_bids() {
                    let specs = starts
                        .iter()
                        .flat_map(|&start| {
                            zones.iter().map(move |&zone| RunSpec {
                                start,
                                bid,
                                scheme: Scheme::Single { kind, zone },
                            })
                        })
                        .collect();
                    singles.push((kind, bid, batch(t, kind.label(), "single", specs)));
                }
            }
            let mut reds = Vec::new();
            for kind in RED_KINDS {
                for bid in highlight_bids() {
                    let specs = starts
                        .iter()
                        .map(|&start| RunSpec {
                            start,
                            bid,
                            scheme: Scheme::Redundant {
                                kind,
                                zones: zones.clone(),
                            },
                        })
                        .collect();
                    reds.push((kind, bid, batch(t, kind.label(), "redundant", specs)));
                }
            }
            panels.push(fig4::panel_from_cell(CellData {
                volatility: vol,
                slack_pct: slack,
                tc_secs: 300,
                singles,
                reds,
            }));
        }
    }
    panels
}

/// One reproduction pass, rendered as `all_figures --full` prints it.
/// `seed` seeds the queuing study; everything else comes from `setup`.
fn repro(setup: &PaperSetup, seed: u64, tr: &mut Option<Tracer>) -> String {
    let mut out = String::new();
    let o = &mut out;
    let _ = writeln!(
        o,
        "== redspot: full reproduction (n = {} experiments/window, seed {}) ==\n",
        setup.n_experiments, setup.seed
    );
    let fig = section(tr, "fig2", || fig2::fig2(setup, Price::from_millis(810)));
    let _ = writeln!(o, "{}", fig2::render(&fig));

    let analyses: Vec<_> = section(tr, "var", || {
        [Volatility::Low, Volatility::High]
            .into_iter()
            .filter_map(|v| var_analysis::analyse(setup, v))
            .collect()
    });
    let _ = writeln!(o, "{}", var_analysis::render(&analyses));

    let study = section(tr, "queuing", || queuing::study(seed, 60));
    let _ = writeln!(o, "{}", queuing::render(&study));

    let panels = match tr {
        Some(t) => {
            let (panels, wall, cpu) = timed(|| fig4_traced(setup, t));
            t.sections.push(("fig4", wall, cpu));
            panels
        }
        None => fig4::fig4(setup),
    };
    for (i, panel) in panels.iter().enumerate() {
        let title = format!(
            "Figure 4({}) — {} volatility, slack {}%, t_c = 300 s",
            char::from(b'a' + i as u8),
            panel.cell.volatility,
            panel.cell.slack_pct,
        );
        let _ = writeln!(o, "{}", boxplot_panel(&title, &panel.rows, &REF_LINES));
    }

    for (name, tc) in [("table2", 300), ("table3", 900)] {
        let table = section(tr, name, || tables::optimal_policies(setup, tc));
        let _ = writeln!(o, "{}", tables::render(&table));
    }

    let panels = section(tr, "fig5", || fig5::fig5(setup));
    for (i, panel) in panels.iter().enumerate() {
        let title = format!(
            "Figure 5({}) — {} volatility, t_c = {} s, slack {}%",
            char::from(b'a' + i as u8),
            panel.volatility,
            panel.tc_secs,
            panel.slack_pct,
        );
        let _ = writeln!(o, "{}", boxplot_panel(&title, &panel.rows(), &REF_LINES));
    }

    let panels = section(tr, "fig6", || fig6::fig6(setup));
    for (i, panel) in panels.iter().enumerate() {
        let title = format!(
            "Figure 6({}) — {} volatility, t_c = {} s, slack {}%",
            char::from(b'a' + i as u8),
            panel.volatility,
            panel.tc_secs,
            panel.slack_pct,
        );
        let _ = writeln!(o, "{}", boxplot_panel(&title, &panel.rows(), &REF_LINES));
    }

    let h = section(tr, "headline", || headline::headline(setup));
    let _ = write!(o, "{}", headline::render(&h));
    out
}

/// Both windows' memo and cache counters, summed.
fn counters(setup: &PaperSetup) -> (MemoStats, CacheStats) {
    let mut memo = MemoStats::default();
    let mut cache = CacheStats::default();
    for vol in [Volatility::Low, Volatility::High] {
        let m = setup.ctx(vol).uptime_stats();
        let c = setup.ctx(vol).cache_stats();
        memo.hits += m.hits;
        memo.misses += m.misses;
        memo.entries += m.entries;
        cache.hits += c.hits;
        cache.misses += c.misses;
        cache.entries += c.entries;
    }
    (memo, cache)
}

/// The "where the time goes" tables of a traced pass.
fn breakdown(t: &Tracer, pass_cpu: f64) -> String {
    let mut s = String::from(
        "  where the time goes (traced pass; shares of the pass's measured CPU time)\n",
    );
    let _ = writeln!(
        s,
        "  {:<10} {:>9} {:>9} {:>8}",
        "section", "wall s", "cpu s", "cpu %"
    );
    for (name, wall, cpu) in &t.sections {
        let _ = writeln!(
            s,
            "  {name:<10} {wall:>9.2} {cpu:>9.2} {:>7.1}%",
            cpu / pass_cpu * 100.0
        );
    }
    let mut by_key: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for ((vol, kind, shape), (wall, cpu)) in t
        .batch_keys
        .iter()
        .zip(t.batches.wall.iter().zip(&t.batches.cpu))
    {
        let e = by_key.entry(format!("{vol}/{shape}/{kind}")).or_default();
        e.0 += wall;
        e.1 += cpu;
    }
    let _ = writeln!(
        s,
        "  Figure 4 by window/shape/policy (6 batches each: 3 bids x 2 slack values)"
    );
    let mut rows: Vec<_> = by_key.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    for (key, (wall, cpu)) in rows {
        let _ = writeln!(
            s,
            "  {key:<24} {wall:>9.2} {cpu:>9.2} {:>7.1}%",
            cpu / pass_cpu * 100.0
        );
    }
    s
}

/// Run the `paper_repro` workload.
pub fn run(rep: &mut Report, seed: u64, seconds: f64, traced: bool, work: &Path) {
    let threads = workers();
    rep.ctx("worker_threads", threads);
    rep.ctx("experiments_per_window", N_EXPERIMENTS);
    rep.ctx("paper_seed", PAPER_SEED);
    let build = || {
        let mut s = PaperSetup::new(PAPER_SEED, N_EXPERIMENTS);
        s.threads = threads;
        s
    };

    // Set-up: SETUPS consecutive builds, the last one kept for the first
    // pass. Each later pass gets its own fresh setup (cold memo and
    // caches), built outside the timed passes, so every pass does the
    // same work.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let (s, wall, _) = timed(build);
        setup_s.push(wall);
        setup = Some(s);
    }
    let (mut walls, mut cpus) = (vec![], vec![]);
    let mut first: Option<String> = None;
    let mut same = Vec::new();
    let mut stats = None;
    while walls.is_empty() || walls.iter().sum::<f64>() < seconds {
        let setup = setup.take().unwrap_or_else(build);
        let (text, wall, cpu) = timed(|| repro(&setup, seed, &mut None));
        walls.push(wall);
        cpus.push(cpu);
        same.push(first.as_deref().is_none_or(|f| f == text));
        first.get_or_insert(text);
        stats.get_or_insert_with(|| counters(&setup));
    }
    let rss = peak_rss_mb();
    let text = first.expect("at least one pass ran");
    let (memo, cache) = stats.expect("at least one pass ran");
    let pass_cpu = cpus.iter().sum::<f64>() / cpus.len() as f64;

    rep.set("setup_s", median(&setup_s), "s");
    rep.set("wall_s", median(&walls), "s");
    rep.set("cpu_s", pass_cpu, "s");
    rep.set("peak_rss_mb", rss, "MB");
    rep.set("passes", walls.len() as f64, "count");
    rep.keep("setup_s", &setup_s);
    rep.keep("pass_wall_s", &walls);
    rep.ctx("memo_stats", format!("{memo:?}"));
    rep.ctx("cache_stats", format!("{cache:?}"));
    rep.ctx("rendered_bytes", text.len());

    // Output checks: every pass renders the same bytes, every section is
    // there, and nothing rendered as NaN.
    for (i, ok) in same.iter().enumerate() {
        rep.check(*ok, || format!("pass {i} rendered different text"));
    }
    for marker in [
        "Figure 4(d)",
        "Figure 5(",
        "Figure 6(",
        "t_c = 900",
        "Adaptive",
    ] {
        rep.check(text.contains(marker), || {
            format!("rendered text lacks '{marker}'")
        });
    }
    rep.check(!text.contains("NaN"), || {
        "rendered text contains NaN".into()
    });

    if traced {
        let setup = build();
        let mut tr = Some(Tracer::default());
        let (traced_text, wall, cpu) = timed(|| repro(&setup, seed, &mut tr));
        let tr = tr.expect("tracer present");
        rep.check(traced_text == text, || {
            "traced pass rendered different text".into()
        });
        rep.check_n(tr.cells, tr.missed, || {
            "traced Figure 4: a cell missed its deadline".into()
        });
        rep.set(
            "tracing.overhead_pct",
            (wall / median(&walls) - 1.0) * 100.0,
            "%",
        );
        rep.ctx("traced_pass_cpu_s", cpu);
        for (name, w, c) in &tr.sections {
            rep.set(&format!("section_cpu_s.{name}"), *c, "s");
            rep.set(&format!("section_wall_s.{name}"), *w, "s");
        }
        rep.notes.push(breakdown(&tr, cpu));
        probe_all(
            rep,
            setup.traces(Volatility::High),
            seed,
            threads,
            work,
            None,
        );
        tr.batches.report(rep, threads);
        rep.set("markov.memo_hits", memo.hits as f64, "count");
        rep.set("markov.memo_misses", memo.misses as f64, "count");
        rep.set("markov.memo_entries", memo.entries as f64, "count");
        markov_share_pct(rep, memo.misses, pass_cpu);
        rep.set("adaptive.cache_hits", cache.hits as f64, "count");
        rep.set("adaptive.cache_misses", cache.misses as f64, "count");
        rep.set("adaptive.cache_entries", cache.entries as f64, "count");
    }
}
