//! The paper's experiments: one subcommand per figure, table, claim and
//! ablation, and `reproduce`, which prints the paper's evaluation in
//! order from the same `render` calls.

use crate::args::ParsedArgs;
use crate::cmd::guard_out;
use redspot_core::PolicyKind;
use redspot_exp::experiments::{
    ablation, fig2, fig4, fig5, fig6, headline as hl, markov_validation as mv, mechanics as mech,
    queuing, robustness as rb, tables, var_analysis as va,
};
use redspot_exp::report::{boxplot_panel, panel_letter, LabeledBox, REF_LINES};
use redspot_exp::results::{self, PanelJson};
use redspot_exp::PaperSetup;
use redspot_trace::vol::Volatility;
use redspot_trace::Price;
use std::path::Path;

/// The bid Figure 2 is drawn at: the paper's $0.81 sweet spot.
const FIG2_BID: Price = Price::from_millis(810);

fn var_section(setup: &PaperSetup) -> String {
    let analyses: Vec<_> = [Volatility::Low, Volatility::High]
        .into_iter()
        .filter_map(|v| va::analyse(setup, v))
        .collect();
    va::render(&analyses)
}

fn queuing_section(seed: u64) -> String {
    queuing::render(&queuing::study(seed, 60))
}

fn table_section(setup: &PaperSetup, tc_secs: u64) -> String {
    tables::render(&tables::optimal_policies(setup, tc_secs))
}

/// `reproduce`: every figure, table and headline claim, in paper order.
pub fn reproduce(parsed: &ParsedArgs) -> Result<String, String> {
    let setup = parsed.paper_setup()?;
    let mut out = format!(
        "== redspot: full reproduction (n = {} experiments/window, seed {}) ==\n\n",
        setup.n_experiments, setup.seed
    );
    let sections = [
        fig2::render(&fig2::fig2(&setup, FIG2_BID)),
        var_section(&setup),
        queuing_section(setup.seed),
        fig4::render(&fig4::fig4(&setup)),
        table_section(&setup, 300),
        table_section(&setup, 900),
        fig5::render(&fig5::fig5(&setup)),
        fig6::render(&fig6::fig6(&setup)),
    ];
    for section in sections {
        out.push_str(&section);
        out.push('\n');
    }
    out.push_str(&hl::render(&hl::headline(&setup)));
    Ok(out)
}

/// `figure`: one paper figure's section, a blank line, then its summary
/// lines. Figures 4–6 also write `--svg` panels and `--json` samples, one
/// line per artifact written.
pub fn figure(parsed: &ParsedArgs) -> Result<String, String> {
    let which = parsed.positional(0).ok_or("which figure? (2|4|5|6)")?;
    if !matches!(which, "2" | "4" | "5" | "6") {
        return Err(format!("unknown figure: {which} (2|4|5|6)"));
    }
    let setup = parsed.paper_setup()?;
    if which == "2" {
        let fig = fig2::fig2(&setup, FIG2_BID);
        let best_single = fig.zones.iter().map(|z| z.2).fold(0.0f64, f64::max);
        return Ok(format!(
            "{}\n  redundancy adds {:.1} percentage points of availability over the best zone\n",
            fig2::render(&fig),
            (fig.combined.1 - best_single) * 100.0
        ));
    }
    if let Some(path) = parsed.get("json") {
        guard_out(parsed, path)?;
    }
    if let Some(dir) = parsed.get("svg") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }
    // Per panel: its summary line, title, boxplot rows and JSON form.
    type Panel = (String, String, Vec<LabeledBox>, PanelJson);
    let (section, panels): (String, Vec<Panel>) = match which {
        "4" => {
            let panels = fig4::fig4(&setup);
            let out = panels.iter().enumerate().map(|(i, p)| {
                let summary = fig4::redundancy_saving(&p.cell).map_or(String::new(), |s| {
                    let (letter, pct) = (panel_letter(i), -s * 100.0);
                    format!("  4({letter}) best redundancy vs best single-zone: {pct:+.1}% median cost\n")
                });
                (summary, fig4::title(i, p), p.rows.clone(), results::from_fig4(p))
            });
            (fig4::render(&panels), out.collect())
        }
        "5" => {
            let panels = fig5::fig5(&setup);
            let out = panels.iter().enumerate().map(|(i, p)| {
                let summary = format!(
                    "  5({}) adaptive median ${:.2} vs best existing ${:.2}; \
                     adaptive worst {:.2}x on-demand\n",
                    panel_letter(i),
                    p.adaptive_median(),
                    p.best_existing_median(),
                    p.adaptive_worst_vs_od(),
                );
                (summary, fig5::title(i, p), p.rows(), results::from_fig5(p))
            });
            (fig5::render(&panels), out.collect())
        }
        _ => {
            let panels = fig6::fig6(&setup);
            let out = panels.iter().enumerate().map(|(i, p)| {
                let summary = format!(
                    "  6({}) worst case vs on-demand: Large-bid {:.2}x, Adaptive {:.2}x\n",
                    panel_letter(i),
                    p.large_bid_worst_vs_od(),
                    p.adaptive_worst_vs_od(),
                );
                (summary, fig6::title(i, p), p.rows(), results::from_fig6(p))
            });
            (fig6::render(&panels), out.collect())
        }
    };
    let mut out = format!("{section}\n");
    out.extend(panels.iter().map(|p| p.0.as_str()));
    if let Some(dir) = parsed.get("svg") {
        for (i, (_, title, rows, _)) in panels.iter().enumerate() {
            let path = format!("{dir}/fig{which}{}.svg", panel_letter(i));
            guard_out(parsed, &path)?;
            redspot_exp::svg::save_panel(Path::new(&path), title, rows, &REF_LINES)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            out.push_str(&format!("  wrote {path}\n"));
        }
    }
    if let Some(path) = parsed.get("json") {
        let json: Vec<PanelJson> = panels.into_iter().map(|p| p.3).collect();
        results::save(Path::new(path), &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("  wrote {path}\n"));
    }
    Ok(out)
}

/// `table`: regenerate Table 2 (t_c = 300 s) or Table 3 (t_c = 900 s).
pub fn table(parsed: &ParsedArgs) -> Result<String, String> {
    let which = parsed.positional(0).ok_or("which table? (2|3)")?;
    let tc = match which {
        "2" => 300,
        "3" => 900,
        other => return Err(format!("unknown table: {other} (2|3)")),
    };
    Ok(table_section(&parsed.paper_setup()?, tc))
}

/// `headline`: the abstract's claims, measured.
pub fn headline(parsed: &ParsedArgs) -> Result<String, String> {
    Ok(hl::render(&hl::headline(&parsed.paper_setup()?)))
}

/// `var-analysis`: Section 3.1 cross-zone independence.
pub fn var_analysis(parsed: &ParsedArgs) -> Result<String, String> {
    Ok(var_section(&parsed.paper_setup()?))
}

/// `queuing-delay`: the Section-5 measurement reproduction.
pub fn queuing_delay(parsed: &ParsedArgs) -> Result<String, String> {
    Ok(queuing_section(parsed.num_or("seed", 42u64)?))
}

/// `spike-stress`: Large-bid vs Adaptive around the $20.02 spike.
pub fn spike_stress(parsed: &ParsedArgs) -> Result<String, String> {
    let seed = parsed.num_or("seed", 42u64)?;
    let n = parsed.num_or("n", 8usize)?;
    let s = fig6::spike_stress(seed, n);
    Ok(format!(
        "{}  worst vs on-demand: Large-bid {:.2}x (paper: up to 3.8x), Adaptive {:.2}x\n",
        boxplot_panel(
            "Spike stress — 12-month history, starts bracketing the $20.02 spike",
            &s.rows(),
            &REF_LINES
        ),
        s.large_bid_worst_vs_od(),
        s.adaptive_worst_vs_od(),
    ))
}

/// `markov-validation`: Appendix-B model vs observed up-times, at
/// `--bid` or else at the three highlighted bids.
pub fn markov_validation(parsed: &ParsedArgs) -> Result<String, String> {
    let bids = validation_bids(parsed)?;
    let setup = parsed.paper_setup()?;
    Ok(bids
        .into_iter()
        .map(|bid| mv::render(&mv::validate(&setup, bid), bid))
        .collect())
}

fn validation_bids(parsed: &ParsedArgs) -> Result<Vec<Price>, String> {
    Ok(match parsed.get("bid") {
        Some(_) => vec![Price::from_dollars(parsed.num_or("bid", 0.81f64)?)],
        None => [810, 1_610, 2_400].map(Price::from_millis).to_vec(),
    })
}

/// `mechanics`: Figures 1 and 3 as timelines of real engine runs on the
/// hand-crafted scenario market.
pub fn mechanics(_parsed: &ParsedArgs) -> Result<String, String> {
    let figures = [
        (
            PolicyKind::Periodic,
            "1 — spot mechanics under Periodic checkpointing",
        ),
        (
            PolicyKind::RisingEdge,
            "3 — the Rising-Edge policy on the same market",
        ),
    ];
    Ok(figures
        .map(|(kind, figure)| {
            let m = mech::run(kind);
            let r = &m.result;
            format!(
                "Figure {figure}:\n\n{}\ncost ${:.2}, checkpoints {}, out-of-bid {}, deadline met {}\n",
                mech::render(&m),
                r.cost_dollars(),
                r.checkpoints,
                r.out_of_bid_terminations,
                r.met_deadline
            )
        })
        .join("\n"))
}

/// `robustness`: does "redundancy wins at low slack" survive
/// block-bootstrap resampling of the high-volatility window?
pub fn robustness(parsed: &ParsedArgs) -> Result<String, String> {
    let s = parsed.paper_setup()?;
    Ok(rb::render(&rb::study(
        s.seed,
        5,
        s.n_experiments,
        s.threads,
    )))
}

/// `ablate`: one of the design-choice ablations.
pub fn ablate(parsed: &ParsedArgs) -> Result<String, String> {
    let which = parsed
        .positional(0)
        .ok_or("which ablation? (n|daly|history)")?;
    let study = match which {
        "n" => ablation::degree,
        "daly" => ablation::daly_order,
        "history" => ablation::history,
        other => return Err(format!("unknown ablation: {other} (n|daly|history)")),
    };
    Ok(ablation::render(&study(&parsed.paper_setup()?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    fn run(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("redspot-cli-paper-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn reproduce_is_each_subcommand_section_in_order() {
        // One experiment per window: the smallest size at which every
        // section has data.
        const SIZE: [&str; 6] = ["--n", "1", "--seed", "42", "--threads", "1"];
        let commands: [&[&str]; 9] = [
            &["figure", "2"],
            &["var-analysis"],
            &["queuing-delay"],
            &["figure", "4"],
            &["table", "2"],
            &["table", "3"],
            &["figure", "5"],
            &["figure", "6"],
            &["headline"],
        ];
        let with_size = |cmd: &[&str]| run(&[cmd, &SIZE[..]].concat()).unwrap();
        let (all, outputs) = std::thread::scope(|s| {
            let subs: Vec<_> = commands
                .iter()
                .map(|cmd| s.spawn(move || with_size(cmd)))
                .collect();
            let all = with_size(&["reproduce"]);
            let outputs: Vec<String> = subs.into_iter().map(|h| h.join().unwrap()).collect();
            (all, outputs)
        });
        assert!(!all.contains("(no data)"), "{all}");
        // A figure prints its section, a blank line, then summary lines.
        let sections: Vec<String> = commands
            .iter()
            .zip(outputs)
            .map(|(cmd, out)| match cmd[0] {
                "figure" => format!("{}\n", out.rsplit_once("\n\n").expect("summary").0),
                _ => out,
            })
            .collect();
        let expected = format!(
            "== redspot: full reproduction (n = 1 experiments/window, seed 42) ==\n\n{}",
            sections.join("\n")
        );
        assert!(all == expected, "reproduce:\n{all}\nsections:\n{expected}");
    }

    #[test]
    fn figure_writes_svg_and_json_artifacts_without_clobbering() {
        let dir = tmp("svg");
        let json = tmp("fig6.json");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&json);
        let out = run(&["figure", "6", "--n", "1", "--svg", &dir, "--json", &json]).unwrap();
        assert!(out.contains("6(b) worst case vs on-demand"), "{out}");
        for stem in ["fig6a", "fig6b"] {
            let svg = std::fs::read_to_string(Path::new(&dir).join(format!("{stem}.svg"))).unwrap();
            assert!(svg.contains("Figure 6("), "{svg}");
        }
        assert_eq!(results::load(Path::new(&json)).unwrap().len(), 2);

        // A second run refuses to clobber either artifact before computing.
        let before = std::fs::read(&json).unwrap();
        let err = run(&["figure", "6", "--n", "1", "--json", &json]).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        assert_eq!(std::fs::read(&json).unwrap(), before);
        let err = run(&["figure", "6", "--n", "1", "--svg", &dir]).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        run(&[
            "figure", "6", "--n", "1", "--svg", &dir, "--json", &json, "--force",
        ])
        .unwrap();
    }

    #[test]
    fn markov_validation_defaults_to_the_three_highlighted_bids() {
        let parse = |args: &[&str]| {
            ParsedArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        assert_eq!(
            validation_bids(&parse(&[])).unwrap(),
            [810, 1_610, 2_400].map(Price::from_millis).to_vec()
        );
        assert_eq!(
            validation_bids(&parse(&["--bid", "1.61"])).unwrap(),
            vec![Price::from_millis(1_610)]
        );
        assert!(validation_bids(&parse(&["--bid", "cheap"])).is_err());
    }

    #[test]
    fn mechanics_robustness_and_ablations_run() {
        let out = run(&["mechanics"]).unwrap();
        assert!(
            out.contains("Figure 1 — ") && out.contains("Figure 3 — "),
            "{out}"
        );
        let out = run(&["robustness", "--n", "1"]).unwrap();
        assert!(out.contains("redundancy win rate"), "{out}");
        for (which, marker) in [
            ("n", "Markov-Daly  N=3"),
            ("daly", "high volatility, higher-order"),
            ("history", "history 48 h"),
        ] {
            let out = run(&["ablate", which, "--n", "1"]).unwrap();
            assert!(out.contains(marker), "{out}");
        }
    }
}
