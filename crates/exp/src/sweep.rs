//! Sweep helpers: build run-spec batches for the evaluation grid and
//! collect cost samples.

use crate::scheme::{RunSpec, Scheme};
use crate::setup::PaperSetup;
use redspot_core::{ExperimentConfig, PolicyKind};
use redspot_trace::vol::Volatility;
use redspot_trace::{Price, TraceSet, ZoneId};

/// All zone ids of a trace set (the redundancy configuration; the paper
/// reports diminishing returns below N = 3, so best-case redundancy uses
/// all three zones).
pub fn all_zones(traces: &TraceSet) -> Vec<ZoneId> {
    traces.zone_ids().collect()
}

/// Costs (in dollars) of a single-zone policy at one bid, with the three
/// per-zone boxplots **merged** exactly as the paper does "for each
/// single-zone checkpoint policy, we merge the results from all three
/// individual zones".
pub fn single_zone_costs(
    setup: &PaperSetup,
    vol: Volatility,
    base: &ExperimentConfig,
    kind: PolicyKind,
    bid: Price,
) -> Vec<f64> {
    let mut specs = Vec::new();
    for start in setup.starts(vol, base.deadline) {
        for zone in setup.traces(vol).zone_ids() {
            specs.push(RunSpec {
                start,
                bid,
                scheme: Scheme::Single { kind, zone },
            });
        }
    }
    setup.batch_costs(vol, base, specs)
}

/// Costs of a redundancy-based policy (all zones) at one bid.
pub fn redundant_costs(
    setup: &PaperSetup,
    vol: Volatility,
    base: &ExperimentConfig,
    kind: PolicyKind,
    bid: Price,
) -> Vec<f64> {
    let zones = all_zones(setup.traces(vol));
    let specs: Vec<RunSpec> = setup
        .starts(vol, base.deadline)
        .into_iter()
        .map(|start| RunSpec {
            start,
            bid,
            scheme: Scheme::Redundant {
                kind,
                zones: zones.clone(),
            },
        })
        .collect();
    setup.batch_costs(vol, base, specs)
}

/// Costs of the Adaptive meta-policy.
pub fn adaptive_costs(setup: &PaperSetup, vol: Volatility, base: &ExperimentConfig) -> Vec<f64> {
    let specs: Vec<RunSpec> = setup
        .starts(vol, base.deadline)
        .into_iter()
        .map(|start| RunSpec {
            start,
            bid: base.bid,
            scheme: Scheme::Adaptive,
        })
        .collect();
    setup.batch_costs(vol, base, specs)
}

/// Costs of Large-bid at one threshold (zones merged, like other
/// single-zone policies). `None` is the Naive (thresholdless) variant.
pub fn large_bid_costs(
    setup: &PaperSetup,
    vol: Volatility,
    base: &ExperimentConfig,
    threshold: Option<Price>,
) -> Vec<f64> {
    let mut specs = Vec::new();
    for start in setup.starts(vol, base.deadline) {
        for zone in setup.traces(vol).zone_ids() {
            specs.push(RunSpec {
                start,
                bid: base.bid,
                scheme: Scheme::LargeBid { threshold, zone },
            });
        }
    }
    setup.batch_costs(vol, base, specs)
}

/// Pick the entry with the lowest median from labeled cost samples —
/// the paper's "best-case" selection. Returns `(label, costs)`.
pub fn best_by_median(candidates: Vec<(String, Vec<f64>)>) -> Option<(String, Vec<f64>)> {
    candidates
        .into_iter()
        .filter(|(_, c)| !c.is_empty())
        .min_by(|a, b| {
            let ma = crate::report::median(&a.1);
            let mb = crate::report::median(&b.1);
            ma.partial_cmp(&mb).expect("costs are finite")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_by_median_picks_cheapest() {
        let picked = best_by_median(vec![
            ("a".into(), vec![10.0, 12.0]),
            ("b".into(), vec![5.0, 6.0]),
            ("c".into(), vec![]),
        ])
        .unwrap();
        assert_eq!(picked.0, "b");
    }

    #[test]
    fn quick_sweep_produces_merged_samples() {
        let setup = PaperSetup::quick(2);
        let base = setup.base_config(15, 300);
        let costs = single_zone_costs(
            &setup,
            Volatility::Low,
            &base,
            PolicyKind::Periodic,
            Price::from_millis(810),
        );
        // 6 experiments × 3 zones merged.
        assert_eq!(costs.len(), 18);
        // Low volatility at a comfortable bid: every run far below
        // on-demand.
        assert!(costs.iter().all(|&c| c < 48.0), "costs {costs:?}");
    }

    #[test]
    fn redundant_sweep_uses_one_run_per_start() {
        let setup = PaperSetup::quick(2);
        let base = setup.base_config(15, 300);
        let costs = redundant_costs(
            &setup,
            Volatility::Low,
            &base,
            PolicyKind::Periodic,
            Price::from_millis(810),
        );
        assert_eq!(costs.len(), 6);
    }
}
