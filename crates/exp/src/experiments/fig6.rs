//! Figure 6: Large-bid (over a range of cost-control thresholds `L`,
//! plus the thresholdless Naive variant) against Adaptive. The paper's
//! point: Large-bid can beat Adaptive's median at the right threshold,
//! but its *worst case* reaches multiples of the on-demand cost, and the
//! sweet-spot threshold is unknowable in advance.

use crate::report::{maximum, median, panel_letter, render_panels, LabeledBox};
use crate::setup::PaperSetup;
use crate::sweep::{adaptive_costs, large_bid_costs};
use redspot_trace::vol::Volatility;
use redspot_trace::Price;

/// The threshold sweep used in the figure: $0.27 (lowest spot) up to
/// $20.02 ("Max", the largest observed price).
pub fn threshold_grid() -> Vec<Price> {
    vec![
        Price::from_millis(270),
        Price::from_millis(810),
        Price::from_millis(2_400),
        Price::from_millis(5_000),
        Price::MAX_OBSERVED_SPOT,
    ]
}

/// The Large-bid variants: `(label, threshold)` per [`threshold_grid`]
/// entry, then the thresholdless Naive variant.
fn variants() -> Vec<(String, Option<Price>)> {
    let mut variants: Vec<(String, Option<Price>)> = threshold_grid()
        .into_iter()
        .map(|l| {
            let label = if l == Price::MAX_OBSERVED_SPOT {
                "Max".to_string()
            } else {
                l.to_string()
            };
            (label, Some(l))
        })
        .collect();
    variants.push(("Naive".into(), None));
    variants
}

/// Boxplot rows: each Large-bid variant, then Adaptive.
fn rows(large_bid: &[(String, Vec<f64>)], adaptive: &[f64]) -> Vec<LabeledBox> {
    large_bid
        .iter()
        .filter_map(|(l, c)| LabeledBox::from_costs(format!("L={l}"), c))
        .chain(LabeledBox::from_costs("Adaptive", adaptive))
        .collect()
}

/// Worst Large-bid cost across all variants relative to on-demand ($48).
fn large_bid_worst_vs_od(large_bid: &[(String, Vec<f64>)]) -> f64 {
    large_bid
        .iter()
        .map(|(_, c)| maximum(c))
        .fold(0.0f64, f64::max)
        / 48.0
}

/// One Figure-6 panel (one volatility window, one `(t_c, slack)` cell).
pub struct Fig6Panel {
    /// Regime.
    pub volatility: Volatility,
    /// Checkpoint cost, seconds.
    pub tc_secs: u64,
    /// Slack percentage.
    pub slack_pct: u64,
    /// `(threshold label, costs)` per Large-bid variant, Naive last.
    pub large_bid: Vec<(String, Vec<f64>)>,
    /// Adaptive costs.
    pub adaptive: Vec<f64>,
}

impl Fig6Panel {
    /// Boxplot rows: each Large-bid threshold, then Adaptive.
    pub fn rows(&self) -> Vec<LabeledBox> {
        rows(&self.large_bid, &self.adaptive)
    }

    /// Worst observed Large-bid cost across all thresholds, relative to
    /// on-demand ($48) — the paper reports up to 3.8×.
    pub fn large_bid_worst_vs_od(&self) -> f64 {
        large_bid_worst_vs_od(&self.large_bid)
    }

    /// Worst Adaptive cost relative to on-demand.
    pub fn adaptive_worst_vs_od(&self) -> f64 {
        maximum(&self.adaptive) / 48.0
    }

    /// Best Large-bid median across thresholds (the unknowable sweet spot).
    pub fn best_large_bid_median(&self) -> f64 {
        self.large_bid
            .iter()
            .filter(|(_, c)| !c.is_empty())
            .map(|(_, c)| median(c))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Compute one panel.
pub fn panel(setup: &PaperSetup, vol: Volatility, tc_secs: u64, slack_pct: u64) -> Fig6Panel {
    let base = setup.base_config(slack_pct, tc_secs);
    let large_bid = variants()
        .into_iter()
        .map(|(label, l)| (label, large_bid_costs(setup, vol, &base, l)))
        .collect();
    let adaptive = adaptive_costs(setup, vol, &base);
    Fig6Panel {
        volatility: vol,
        tc_secs,
        slack_pct,
        large_bid,
        adaptive,
    }
}

/// The two published panels: low and high volatility at the default
/// `(t_c = 300 s, slack = 15 %)` cell.
pub fn fig6(setup: &PaperSetup) -> Vec<Fig6Panel> {
    [Volatility::Low, Volatility::High]
        .into_iter()
        .map(|vol| panel(setup, vol, 300, 15))
        .collect()
}

/// Panel `i`'s title.
pub fn title(i: usize, panel: &Fig6Panel) -> String {
    format!(
        "Figure 6({}) — {} volatility, t_c = {} s, slack {}%",
        panel_letter(i),
        panel.volatility,
        panel.tc_secs,
        panel.slack_pct,
    )
}

/// Render the panels as titled boxplots separated by blank lines.
pub fn render(panels: &[Fig6Panel]) -> String {
    render_panels(panels, title, Fig6Panel::rows)
}

/// The worst-case stress panel behind the paper's "as high as 3.8x the
/// on-demand costs" observation: experiments bracketing the $20.02
/// extreme spike in the 12-month history ("March 13th to 14th, 2013").
/// Large-bid variants whose threshold exceeds the spike pay spiked hours;
/// Adaptive never exceeds its bound.
pub struct SpikeStress {
    /// `(threshold label, costs)` per Large-bid variant, Naive last.
    pub large_bid: Vec<(String, Vec<f64>)>,
    /// Adaptive costs over the same starts.
    pub adaptive: Vec<f64>,
}

impl SpikeStress {
    /// Worst Large-bid cost across all variants relative to on-demand.
    pub fn large_bid_worst_vs_od(&self) -> f64 {
        large_bid_worst_vs_od(&self.large_bid)
    }

    /// Worst Adaptive cost relative to on-demand.
    pub fn adaptive_worst_vs_od(&self) -> f64 {
        maximum(&self.adaptive) / 48.0
    }

    /// Boxplot rows, Adaptive last.
    pub fn rows(&self) -> Vec<LabeledBox> {
        rows(&self.large_bid, &self.adaptive)
    }
}

/// Run the spike-stress experiment: `n_starts` experiment starts placed
/// across the 30 hours leading into the spike.
pub fn spike_stress(seed: u64, n_starts: usize) -> SpikeStress {
    use crate::scheme::{run_spec, RunSpec, Scheme};
    use redspot_core::{ExperimentConfig, MarketCtx, NullRecorder};
    use redspot_trace::gen::year_history;
    use redspot_trace::{SimTime, ZoneId};

    let mkt = MarketCtx::new(year_history(seed));
    // The spike starts at month 3 + 13 days (see redspot_trace::gen).
    let spike_start_h = 3 * 30 * 24 + 13 * 24;
    let starts: Vec<SimTime> = (0..n_starts.max(1))
        .map(|i| {
            let back = 2 + (i as u64 * 20) % 28; // 2..30 hours before the spike
            SimTime::from_hours(spike_start_h - back)
        })
        .collect();
    let base = ExperimentConfig::paper_default();

    let mut large_bid: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, threshold) in variants() {
        let costs: Vec<f64> = starts
            .iter()
            .map(|&start| {
                // Zone 0 carries the spike.
                let spec = RunSpec {
                    start,
                    bid: base.bid,
                    scheme: Scheme::LargeBid {
                        threshold,
                        zone: ZoneId(0),
                    },
                };
                run_spec(&mkt, &spec, &base, NullRecorder).0.cost_dollars()
            })
            .collect();
        large_bid.push((label, costs));
    }
    let adaptive: Vec<f64> = starts
        .iter()
        .map(|&start| {
            let spec = RunSpec {
                start,
                bid: base.bid,
                scheme: Scheme::Adaptive,
            };
            run_spec(&mkt, &spec, &base, NullRecorder).0.cost_dollars()
        })
        .collect();
    SpikeStress {
        large_bid,
        adaptive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_has_better_worst_case_than_large_bid() {
        // The paper's key Figure-6 claim, on the high-volatility window.
        let setup = PaperSetup::quick(19);
        let p = panel(&setup, Volatility::High, 300, 15);
        assert!(
            p.adaptive_worst_vs_od() <= p.large_bid_worst_vs_od() + 0.05,
            "adaptive worst {}x vs large-bid worst {}x",
            p.adaptive_worst_vs_od(),
            p.large_bid_worst_vs_od()
        );
        assert!(p.adaptive_worst_vs_od() <= 1.2);
    }

    #[test]
    fn panel_has_all_threshold_rows() {
        let setup = PaperSetup::quick(19);
        let p = panel(&setup, Volatility::Low, 300, 15);
        assert_eq!(p.large_bid.len(), 6); // 5 thresholds + Naive
        let rows = p.rows();
        assert_eq!(rows.last().unwrap().label, "Adaptive");
        assert!(rows.iter().any(|r| r.label == "L=Max"));
        assert!(rows.iter().any(|r| r.label == "L=Naive"));
    }

    #[test]
    fn low_volatility_large_bid_is_cheap_at_low_threshold() {
        let setup = PaperSetup::quick(19);
        let p = panel(&setup, Volatility::Low, 300, 15);
        // On a calm market every variant should be far below on-demand.
        assert!(
            p.best_large_bid_median() < 20.0,
            "median {}",
            p.best_large_bid_median()
        );
    }
}

#[cfg(test)]
mod spike_tests {
    use super::*;

    #[test]
    fn extreme_spike_ruins_permissive_large_bids_but_not_adaptive() {
        let s = spike_stress(5, 4);
        // Naive (and Max-threshold) Large-bid pays $20.02 hours: multiples
        // of the $48 on-demand cost (the paper observed up to 3.8x).
        assert!(
            s.large_bid_worst_vs_od() > 1.5,
            "expected a blow-up, worst was {}x",
            s.large_bid_worst_vs_od()
        );
        // Adaptive stays within its bound.
        assert!(
            s.adaptive_worst_vs_od() <= 1.2,
            "adaptive worst {}x",
            s.adaptive_worst_vs_od()
        );
        assert_eq!(s.rows().last().unwrap().label, "Adaptive");
    }
}
