//! Ablations of the design choices DESIGN.md §6 calls out: the redundancy
//! degree N, the Daly interval order inside Markov-Daly, and the Adaptive
//! controller's forecast history length.

use crate::report::{maximum, median};
use crate::scheme::{RunSpec, Scheme};
use crate::setup::PaperSetup;
use crate::RunRequest;
use redspot_ckpt::DalyOrder;
use redspot_core::adaptive::{AdaptiveConfig, AdaptiveRunner};
use redspot_core::policy::MarkovDalyPolicy;
use redspot_core::{Engine, PolicyKind};
use redspot_trace::vol::Volatility;
use redspot_trace::{Price, SimDuration};

/// One ablation: what was varied, and a cost sample per variant.
pub struct Ablation {
    /// What was varied, under which fixed parameters.
    pub title: &'static str,
    /// `(variant label, per-run costs in dollars)`, in sweep order.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Render an ablation: median and worst cost per variant.
pub fn render(a: &Ablation) -> String {
    let mut out = format!("Ablation: {}\n", a.title);
    for (label, costs) in &a.rows {
        out.push_str(&format!(
            "  {label}  median ${:>6.2}  worst ${:>6.2}  (n={})\n",
            median(costs),
            maximum(costs),
            costs.len()
        ));
    }
    out
}

/// Redundancy degree N ∈ {1, 2, 3} for Periodic and Markov-Daly. The
/// paper reports diminishing returns below N = 3 on volatile markets.
/// N = 1 runs every zone on its own and merges the samples.
pub fn degree(setup: &PaperSetup) -> Ablation {
    let vol = Volatility::High;
    let base = setup.base_config(15, 300);
    let bid = Price::from_millis(810);
    let zones: Vec<_> = setup.traces(vol).zone_ids().collect();
    let mut rows = Vec::new();
    for kind in [PolicyKind::Periodic, PolicyKind::MarkovDaly] {
        for n in 1..=3usize {
            let schemes: Vec<Scheme> = if n == 1 {
                let single = |&zone| Scheme::Single { kind, zone };
                zones.iter().map(single).collect()
            } else {
                let zones = zones[..n].to_vec();
                vec![Scheme::Redundant { kind, zones }]
            };
            let specs: Vec<RunSpec> = setup
                .starts(vol, base.deadline)
                .into_iter()
                .flat_map(|start| schemes.iter().map(move |s| (start, s.clone())))
                .map(|(start, scheme)| RunSpec { start, bid, scheme })
                .collect();
            let costs = RunRequest::new(setup.ctx(vol), &base, &specs)
                .threads(setup.threads)
                .execute()
                .expect("ablation base config is valid")
                .results
                .iter()
                .map(|r| r.cost_dollars())
                .collect();
            rows.push((format!("{:<12} N={n}", kind.to_string()), costs));
        }
    }
    Ablation {
        title: "redundancy degree (high volatility, t_c = 300 s, slack 15%, B = $0.81)",
        rows,
    }
}

/// Daly first-order vs higher-order optimum checkpoint interval inside
/// single-zone Markov-Daly, every zone on its own.
pub fn daly_order(setup: &PaperSetup) -> Ablation {
    let cfg = setup.base_config(15, 300);
    let mut rows = Vec::new();
    for vol in [Volatility::Low, Volatility::High] {
        let traces = setup.ctx(vol).handle();
        for (name, order) in [
            ("first-order", DalyOrder::FirstOrder),
            ("higher-order", DalyOrder::HigherOrder),
        ] {
            let mut costs = Vec::new();
            for start in setup.starts(vol, cfg.deadline) {
                for zone in traces.zone_ids() {
                    let mut c = cfg.clone();
                    c.zones = vec![zone];
                    c.seed = setup.seed ^ start.secs() ^ zone.0 as u64;
                    let policy = Box::new(MarkovDalyPolicy::with_order(order));
                    costs.push(Engine::new(traces, start, c, policy).run().cost_dollars());
                }
            }
            rows.push((
                format!("{:>4} volatility, {name:<12}", vol.to_string()),
                costs,
            ));
        }
    }
    Ablation {
        title: "Daly estimate order in Markov-Daly (single zone, slack 15%, B = $0.81)",
        rows,
    }
}

/// The Adaptive controller's forecast history over 6, 24 and 48 hours.
/// The paper bootstraps from a 2-day history; Adaptive defaults to 24 h.
///
/// # Panics
/// Panics if any run misses its deadline, which Algorithm 1 rules out.
pub fn history(setup: &PaperSetup) -> Ablation {
    let traces = setup.ctx(Volatility::High).handle();
    let base = setup.base_config(15, 300);
    let mut rows = Vec::new();
    for hours in [6u64, 24, 48] {
        let mut costs = Vec::new();
        for start in setup.starts(Volatility::High, base.deadline) {
            let mut cfg = base.clone();
            cfg.seed = setup.seed ^ start.secs() ^ hours;
            let acfg = AdaptiveConfig {
                history: SimDuration::from_hours(hours),
                ..AdaptiveConfig::default()
            };
            let r = AdaptiveRunner::new(traces, start, cfg)
                .with_config(acfg)
                .run();
            assert!(r.met_deadline, "adaptive run missed its deadline");
            costs.push(r.cost_dollars());
        }
        rows.push((format!("history {hours:>2} h"), costs));
    }
    Ablation {
        title: "adaptive forecast history (high volatility, t_c = 300 s, slack 15%)",
        rows,
    }
}
