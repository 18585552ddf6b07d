//! Figure 5: the Adaptive policy against best-case Periodic, single-zone
//! Markov-Daly, and best-case redundancy, across the full evaluation grid
//! (volatility × checkpoint cost × slack — eight panels).

use crate::report::{median, panel_letter, render_panels, LabeledBox};
use crate::setup::PaperSetup;
use crate::sweep::{adaptive_costs, best_by_median, redundant_costs, single_zone_costs};
use redspot_core::PolicyKind;
use redspot_trace::vol::Volatility;
use redspot_trace::{highlight_bids, Price};

/// One Figure-5 panel.
pub struct Fig5Panel {
    /// Regime.
    pub volatility: Volatility,
    /// Checkpoint cost, seconds.
    pub tc_secs: u64,
    /// Slack percentage.
    pub slack_pct: u64,
    /// Periodic at the $0.81 sweet-spot bid (zones merged).
    pub periodic: Vec<f64>,
    /// Single-zone Markov-Daly at $0.81 (zones merged).
    pub markov: Vec<f64>,
    /// Best-case redundancy `(label, costs)`.
    pub redundancy: (String, Vec<f64>),
    /// Adaptive.
    pub adaptive: Vec<f64>,
}

impl Fig5Panel {
    /// Boxplot rows in figure order (P, M, R, A).
    pub fn rows(&self) -> Vec<LabeledBox> {
        [
            ("P@$0.81".to_string(), &self.periodic),
            ("M@$0.81".to_string(), &self.markov),
            (format!("{}*", self.redundancy.0), &self.redundancy.1),
            ("Adaptive".to_string(), &self.adaptive),
        ]
        .into_iter()
        .filter_map(|(label, costs)| LabeledBox::from_costs(label, costs))
        .collect()
    }

    /// Median cost of the best non-adaptive candidate.
    pub fn best_existing_median(&self) -> f64 {
        [&self.periodic, &self.markov, &self.redundancy.1]
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(|c| median(c))
            .fold(f64::INFINITY, f64::min)
    }

    /// Median cost of Adaptive.
    pub fn adaptive_median(&self) -> f64 {
        median(&self.adaptive)
    }

    /// Worst-case Adaptive cost relative to on-demand ($48).
    pub fn adaptive_worst_vs_od(&self) -> f64 {
        crate::report::maximum(&self.adaptive) / 48.0
    }
}

/// Compute one panel.
pub fn panel(setup: &PaperSetup, vol: Volatility, tc_secs: u64, slack_pct: u64) -> Fig5Panel {
    let base = setup.base_config(slack_pct, tc_secs);
    let sweet = Price::from_millis(810);
    let periodic = single_zone_costs(setup, vol, &base, PolicyKind::Periodic, sweet);
    let markov = single_zone_costs(setup, vol, &base, PolicyKind::MarkovDaly, sweet);
    let red_candidates = highlight_bids()
        .into_iter()
        .flat_map(|bid| {
            [PolicyKind::Periodic, PolicyKind::MarkovDaly].map(|kind| {
                (
                    format!("R({})@{bid}", kind.label()),
                    redundant_costs(setup, vol, &base, kind, bid),
                )
            })
        })
        .collect();
    let redundancy = best_by_median(red_candidates).unwrap_or(("R(none)".into(), Vec::new()));
    let adaptive = adaptive_costs(setup, vol, &base);
    Fig5Panel {
        volatility: vol,
        tc_secs,
        slack_pct,
        periodic,
        markov,
        redundancy,
        adaptive,
    }
}

/// Compute all eight panels (2 volatility × 2 `t_c` × 2 slack).
pub fn fig5(setup: &PaperSetup) -> Vec<Fig5Panel> {
    let mut panels = Vec::new();
    for vol in [Volatility::Low, Volatility::High] {
        for tc in [300u64, 900] {
            for slack in [15u64, 50] {
                panels.push(panel(setup, vol, tc, slack));
            }
        }
    }
    panels
}

/// Panel `i`'s title.
pub fn title(i: usize, panel: &Fig5Panel) -> String {
    format!(
        "Figure 5({}) — {} volatility, t_c = {} s, slack {}%",
        panel_letter(i),
        panel.volatility,
        panel.tc_secs,
        panel.slack_pct,
    )
}

/// Render the panels as titled boxplots separated by blank lines.
pub fn render(panels: &[Fig5Panel]) -> String {
    render_panels(panels, title, Fig5Panel::rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_is_competitive_on_low_volatility() {
        let setup = PaperSetup::quick(13);
        let p = panel(&setup, Volatility::Low, 300, 15);
        // "Adaptive is always at least competitive with the best of the
        // other three" — allow simulation noise but catch regressions.
        assert!(
            p.adaptive_median() <= p.best_existing_median() * 1.6 + 1.0,
            "adaptive {} vs best existing {}",
            p.adaptive_median(),
            p.best_existing_median()
        );
        assert_eq!(p.rows().len(), 4);
    }

    #[test]
    fn adaptive_bounded_on_high_volatility() {
        let setup = PaperSetup::quick(13);
        let p = panel(&setup, Volatility::High, 300, 15);
        // "Total cost never exceeds 20% above the on-demand cost."
        assert!(
            p.adaptive_worst_vs_od() <= 1.2,
            "worst adaptive cost is {}x on-demand",
            p.adaptive_worst_vs_od()
        );
    }

    #[test]
    fn rows_render_in_figure_order() {
        let setup = PaperSetup::quick(13);
        let p = panel(&setup, Volatility::Low, 300, 50);
        let rows = p.rows();
        assert!(rows[0].label.starts_with("P@"));
        assert!(rows[1].label.starts_with("M@"));
        assert!(rows[2].label.starts_with('R'));
        assert_eq!(rows[3].label, "Adaptive");
    }
}
