//! Terminal rendering of the paper's figures and tables: labeled ASCII
//! boxplot panels (Figures 4–6) and markdown tables (Tables 2–3).

use redspot_core::{RunMetrics, RunResult};
use redspot_stats::boxplot::render_row;
use redspot_stats::Boxplot;

/// The paper's reference lines: on-demand cost ($48.00 for 20 h at
/// $2.40/h) and the lowest-spot-price cost ($5.40 for 20 h at $0.27/h).
pub const REF_LINES: [(f64, &str); 2] = [(48.0, "on-demand"), (5.4, "min-spot")];

/// One labeled boxplot row in a panel.
#[derive(Debug, Clone)]
pub struct LabeledBox {
    /// Row label (policy abbreviation, bid, …).
    pub label: String,
    /// The five-number summary.
    pub plot: Boxplot,
}

impl LabeledBox {
    /// Summarize a cost sample under a label. Returns `None` on empty data.
    pub fn from_costs(label: impl Into<String>, costs: &[f64]) -> Option<LabeledBox> {
        Boxplot::from_samples(costs).map(|plot| LabeledBox {
            label: label.into(),
            plot,
        })
    }
}

/// Extract cost-in-dollars samples from run results.
pub fn dollars(results: &[RunResult]) -> Vec<f64> {
    results.iter().map(RunResult::cost_dollars).collect()
}

const PLOT_WIDTH: usize = 56;
const LABEL_WIDTH: usize = 14;

/// Render a titled boxplot panel with reference lines, matching the
/// layout of the paper's cost figures.
pub fn boxplot_panel(title: &str, rows: &[LabeledBox], refs: &[(f64, &str)]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if rows.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let hi_data = rows.iter().map(|r| r.plot.max).fold(0.0f64, f64::max);
    let hi_ref = refs.iter().map(|&(v, _)| v).fold(0.0f64, f64::max);
    let hi = (hi_data.max(hi_ref) * 1.05).max(1.0);
    let lo = 0.0;

    // Reference-line ruler.
    let mut ruler = vec![b' '; PLOT_WIDTH];
    for &(v, _) in refs {
        let pos = (((v - lo) / (hi - lo)).clamp(0.0, 1.0) * (PLOT_WIDTH - 1) as f64) as usize;
        ruler[pos] = b'!';
    }
    let ruler = String::from_utf8(ruler).expect("ASCII");
    out.push_str(&format!("{:>LABEL_WIDTH$}  {}\n", "", ruler));

    for row in rows {
        let bar = render_row(&row.plot, lo, hi, PLOT_WIDTH);
        out.push_str(&format!(
            "{:>LABEL_WIDTH$}  {}  med ${:.2} (n={})\n",
            row.label, bar, row.plot.median, row.plot.n
        ));
    }
    out.push_str(&format!(
        "{:>LABEL_WIDTH$}  ${:.2} … ${:.2}",
        "scale", lo, hi
    ));
    for &(v, name) in refs {
        out.push_str(&format!("   ! {name} = ${v:.2}"));
    }
    out.push('\n');
    out
}

/// The letter of panel `i` in a multi-panel figure: (a), (b), ….
pub fn panel_letter(i: usize) -> char {
    char::from(b'a' + i as u8)
}

/// Render titled boxplot panels separated by blank lines — the layout of
/// every multi-panel cost figure.
pub fn render_panels<P>(
    panels: &[P],
    title: fn(usize, &P) -> String,
    rows: fn(&P) -> Vec<LabeledBox>,
) -> String {
    let rendered: Vec<String> = panels
        .iter()
        .enumerate()
        .map(|(i, p)| boxplot_panel(&title(i, p), &rows(p), &REF_LINES))
        .collect();
    rendered.join("\n")
}

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}|\n",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Render telemetry — a [`RunMetrics`] value from one run, or merged over
/// every run in a sweep — as a markdown table plus derived summary lines
/// (mean commit interval, mean uninterrupted up-run, dwell share).
pub fn sweep_metrics_table(m: &RunMetrics) -> String {
    let row = |k: &str, v: String| vec![k.to_string(), v];
    let mut rows = vec![
        row("runs", m.runs.to_string()),
        row("completed", m.completed.to_string()),
        row("events seen", m.events_seen.to_string()),
        row("restarts", m.restarts.to_string()),
        row("waits", m.waits.to_string()),
        row(
            "out-of-bid terminations",
            m.out_of_bid_terminations.to_string(),
        ),
        row(
            "voluntary terminations",
            m.voluntary_terminations.to_string(),
        ),
        row(
            "checkpoints (started/committed/aborted)",
            format!(
                "{}/{}/{}",
                m.checkpoints_started, m.checkpoints_committed, m.checkpoints_aborted
            ),
        ),
        row("on-demand migrations", m.migrations.to_string()),
        row("adaptive switches", m.adaptive_switches.to_string()),
        row("hours charged", m.hours_charged.to_string()),
        row("spot charged", format!("{}", m.spot_charged)),
    ];
    // Fault-layer symptoms only clutter clean sweeps: show when nonzero.
    let faults = [
        ("boot failures", m.boot_failures),
        ("blackouts", m.blackouts),
        ("checkpoint write failures", m.checkpoint_write_failures),
        ("restore fallbacks", m.restore_fallbacks),
        ("spot request failures", m.spot_request_failures),
        ("breaker trips", m.breaker_trips),
        ("stale price reads", m.stale_price_reads),
        ("terminate lag (s)", m.terminate_lag_secs),
        ("delayed on-demand requests", m.od_delays),
        ("trace write errors", m.trace_write_errors),
    ];
    for (k, v) in faults {
        if v > 0 {
            rows.push(row(k, v.to_string()));
        }
    }
    // Decision-cache traffic exists only on adaptive runs behind a
    // MarketCtx: show when any lookup happened.
    if m.decision_cache_hits + m.decision_cache_misses > 0 {
        rows.push(row(
            "decision cache (hits/misses)",
            format!("{}/{}", m.decision_cache_hits, m.decision_cache_misses),
        ));
    }
    let dwell_total =
        m.dwell.down_secs + m.dwell.booting_secs + m.dwell.up_secs + m.dwell.waiting_secs;
    let mut out = String::from("telemetry:\n");
    out.push_str(&markdown_table(&["metric", "value"], &rows));
    if m.commit_interval.count() > 0 {
        out.push_str(&format!(
            "  commit interval: mean {:.0}s, max {}s over {} gaps\n",
            m.commit_interval.mean_secs(),
            m.commit_interval.max_secs(),
            m.commit_interval.count(),
        ));
    }
    if m.up_run.count() > 0 {
        out.push_str(&format!(
            "  up-run length:   mean {:.0}s, max {}s over {} runs\n",
            m.up_run.mean_secs(),
            m.up_run.max_secs(),
            m.up_run.count(),
        ));
    }
    if dwell_total > 0 {
        out.push_str(&format!(
            "  zone dwell: up {:.1}%, waiting {:.1}%, booting {:.1}%, down {:.1}%\n",
            100.0 * m.dwell.up_secs as f64 / dwell_total as f64,
            100.0 * m.dwell.waiting_secs as f64 / dwell_total as f64,
            100.0 * m.dwell.booting_secs as f64 / dwell_total as f64,
            100.0 * m.dwell.down_secs as f64 / dwell_total as f64,
        ));
    }
    out
}

/// Median of a sample (0.0 when empty — report-level convenience).
pub fn median(xs: &[f64]) -> f64 {
    redspot_stats::descriptive::median(xs).unwrap_or(0.0)
}

/// Maximum of a sample (0.0 when empty).
pub fn maximum(xs: &[f64]) -> f64 {
    redspot_stats::descriptive::max(xs).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_renders_rows_and_refs() {
        let rows = vec![
            LabeledBox::from_costs("P@$0.27", &[5.0, 6.0, 7.0, 8.0]).unwrap(),
            LabeledBox::from_costs("R(best)", &[10.0, 12.0, 14.0]).unwrap(),
        ];
        let panel = boxplot_panel("Figure 4(a)", &rows, &REF_LINES);
        assert!(panel.contains("Figure 4(a)"));
        assert!(panel.contains("P@$0.27"));
        assert!(panel.contains("med $6.50"));
        assert!(panel.contains("on-demand = $48.00"));
        assert!(panel.contains('!'));
    }

    #[test]
    fn empty_panel_is_graceful() {
        let panel = boxplot_panel("empty", &[], &REF_LINES);
        assert!(panel.contains("(no data)"));
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["Volatility", "15%", "50%"],
            &[vec![
                "Low".into(),
                "Periodic".into(),
                "Periodic/Markov-Daly".into(),
            ]],
        );
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("| Low | Periodic |"));
    }

    #[test]
    fn helpers_handle_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(maximum(&[]), 0.0);
        assert!(LabeledBox::from_costs("x", &[]).is_none());
    }
}
