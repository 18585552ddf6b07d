//! Figure 4 (and the shared sweep behind Tables 2–3): single-zone
//! checkpoint policies vs best-case redundancy, per volatility window and
//! slack value, at the three highlighted bids.

use crate::report::{median, panel_letter, render_panels, LabeledBox};
use crate::setup::PaperSetup;
use crate::sweep::{best_by_median, redundant_costs, single_zone_costs};
use redspot_core::PolicyKind;
use redspot_trace::vol::Volatility;
use redspot_trace::{highlight_bids, Price};

/// The single-zone policies Figure 4 compares (paper order: Threshold,
/// Rising Edge, Periodic, Markov-Daly; then the policy-diversity
/// additions — Spot-on cadence and randomized bidding — so Tables 2–3
/// pick their winner from the full roster).
pub const SINGLE_KINDS: [PolicyKind; 6] = [
    PolicyKind::Threshold,
    PolicyKind::RisingEdge,
    PolicyKind::Periodic,
    PolicyKind::MarkovDaly,
    PolicyKind::SpotOnCadence,
    PolicyKind::RandomizedBid(crate::scheme::RANDOMIZED_BID_SEED),
];

/// Policies eligible for the redundancy-based best case.
pub const RED_KINDS: [PolicyKind; 3] = [
    PolicyKind::Periodic,
    PolicyKind::MarkovDaly,
    PolicyKind::SpotOnCadence,
];

/// The raw sweep for one evaluation cell `(volatility, slack, t_c)`.
pub struct CellData {
    /// Regime.
    pub volatility: Volatility,
    /// Slack as a percentage of `C`.
    pub slack_pct: u64,
    /// Checkpoint cost in seconds.
    pub tc_secs: u64,
    /// `(kind, bid, merged-zone costs)` for every single-zone combination.
    pub singles: Vec<(PolicyKind, Price, Vec<f64>)>,
    /// `(kind, bid, costs)` for every redundancy combination.
    pub reds: Vec<(PolicyKind, Price, Vec<f64>)>,
}

impl CellData {
    /// The best-case single-zone `(label, costs)` by median.
    pub fn best_single(&self) -> Option<(String, Vec<f64>)> {
        best_by_median(
            self.singles
                .iter()
                .map(|(k, b, c)| (format!("{}@{b}", k.label()), c.clone()))
                .collect(),
        )
    }

    /// The best-case redundancy `(label, costs)` by median.
    pub fn best_redundant(&self) -> Option<(String, Vec<f64>)> {
        best_by_median(
            self.reds
                .iter()
                .map(|(k, b, c)| (format!("R({})@{b}", k.label()), c.clone()))
                .collect(),
        )
    }

    /// Costs for a specific single-zone `(kind, bid)`, if swept.
    pub fn single(&self, kind: PolicyKind, bid: Price) -> Option<&[f64]> {
        self.singles
            .iter()
            .find(|(k, b, _)| *k == kind && *b == bid)
            .map(|(_, _, c)| c.as_slice())
    }
}

/// Run the sweep for one cell.
pub fn sweep_cell(setup: &PaperSetup, vol: Volatility, slack_pct: u64, tc_secs: u64) -> CellData {
    let base = setup.base_config(slack_pct, tc_secs);
    let bids = highlight_bids();
    let mut singles = Vec::new();
    for kind in SINGLE_KINDS {
        for bid in bids {
            singles.push((kind, bid, single_zone_costs(setup, vol, &base, kind, bid)));
        }
    }
    let mut reds = Vec::new();
    for kind in RED_KINDS {
        for bid in bids {
            reds.push((kind, bid, redundant_costs(setup, vol, &base, kind, bid)));
        }
    }
    CellData {
        volatility: vol,
        slack_pct,
        tc_secs,
        singles,
        reds,
    }
}

/// One rendered Figure-4 panel: per-policy boxplots at the $0.81 bid
/// (the bid the paper highlights as the sweet spot) plus the best-case
/// redundancy row.
pub struct Fig4Panel {
    /// The underlying sweep.
    pub cell: CellData,
    /// Boxplot rows in figure order.
    pub rows: Vec<LabeledBox>,
}

/// Build the four Figure-4 panels (low/high volatility × 15 %/50 % slack)
/// at `t_c` = 300 s.
pub fn fig4(setup: &PaperSetup) -> Vec<Fig4Panel> {
    let mut panels = Vec::new();
    for vol in [Volatility::Low, Volatility::High] {
        for slack in [15u64, 50] {
            let cell = sweep_cell(setup, vol, slack, 300);
            panels.push(panel_from_cell(cell));
        }
    }
    panels
}

/// Assemble the boxplot rows for a cell.
pub fn panel_from_cell(cell: CellData) -> Fig4Panel {
    let mut rows = Vec::new();
    for kind in SINGLE_KINDS {
        for bid in highlight_bids() {
            if let Some(costs) = cell.single(kind, bid) {
                if let Some(row) = LabeledBox::from_costs(format!("{}@{bid}", kind.label()), costs)
                {
                    rows.push(row);
                }
            }
        }
    }
    if let Some((label, costs)) = cell.best_redundant() {
        if let Some(row) = LabeledBox::from_costs(format!("{label}*"), &costs) {
            rows.push(row);
        }
    }
    Fig4Panel { cell, rows }
}

/// Panel `i`'s title.
pub fn title(i: usize, panel: &Fig4Panel) -> String {
    format!(
        "Figure 4({}) — {} volatility, slack {}%, t_c = {} s",
        panel_letter(i),
        panel.cell.volatility,
        panel.cell.slack_pct,
        panel.cell.tc_secs,
    )
}

/// Render the panels as titled boxplots separated by blank lines.
pub fn render(panels: &[Fig4Panel]) -> String {
    render_panels(panels, title, |p| p.rows.clone())
}

/// The paper's headline Figure-4 observation for high volatility at low
/// slack: best-case redundancy vs best single-zone, as a relative saving
/// (positive = redundancy cheaper).
pub fn redundancy_saving(cell: &CellData) -> Option<f64> {
    let (_, best_s) = cell.best_single()?;
    let (_, best_r) = cell.best_redundant()?;
    let ms = median(&best_s);
    let mr = median(&best_r);
    (ms > 0.0).then(|| (ms - mr) / ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cell(vol: Volatility) -> CellData {
        // Periodic + Markov-Daly only (Edge/Threshold sweeps are slower
        // and exercised by `redspot figure 4`); two bids.
        let setup = PaperSetup::quick(11);
        let base = setup.base_config(15, 300);
        let bids = [Price::from_millis(810)];
        let mut singles = Vec::new();
        for kind in [PolicyKind::Periodic, PolicyKind::MarkovDaly] {
            for bid in bids {
                singles.push((kind, bid, single_zone_costs(&setup, vol, &base, kind, bid)));
            }
        }
        let reds = vec![(
            PolicyKind::Periodic,
            bids[0],
            redundant_costs(&setup, vol, &base, PolicyKind::Periodic, bids[0]),
        )];
        CellData {
            volatility: vol,
            slack_pct: 15,
            tc_secs: 300,
            singles,
            reds,
        }
    }

    #[test]
    fn low_volatility_single_zone_beats_redundancy() {
        // Table 2, low volatility: Periodic (single zone) wins because
        // redundancy pays for three zones without availability benefit.
        let cell = quick_cell(Volatility::Low);
        let (_, best_s) = cell.best_single().unwrap();
        let (_, best_r) = cell.best_redundant().unwrap();
        assert!(
            median(&best_s) < median(&best_r),
            "single {} vs redundant {}",
            median(&best_s),
            median(&best_r)
        );
    }

    #[test]
    fn panel_rows_are_labeled_and_nonempty() {
        let cell = quick_cell(Volatility::Low);
        let panel = panel_from_cell(cell);
        assert!(panel.rows.len() >= 3);
        assert!(panel.rows.iter().any(|r| r.label.starts_with("P@")));
        assert!(panel.rows.last().unwrap().label.contains('*'));
    }

    #[test]
    fn redundancy_saving_is_computable() {
        let cell = quick_cell(Volatility::High);
        let saving = redundancy_saving(&cell).unwrap();
        assert!(saving.abs() <= 1.0, "saving {saving}");
    }
}
