//! The prose numbers in EXPERIMENTS.md must match the committed paper-scale
//! reproduction (`tests/golden/all_figures_full_seed42.txt`, the output of
//! `redspot reproduce --full`), so the two cannot drift apart.

const GOLDEN: &str = include_str!("golden/all_figures_full_seed42.txt");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The first decimal number in `text`, as written.
fn first_number(text: &str) -> Option<&str> {
    let start = text.find(|c: char| c.is_ascii_digit())?;
    let len = text[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(text.len() - start);
    Some(text[start..start + len].trim_end_matches('.'))
}

/// The three measured numbers of the golden's "Headline claims" block:
/// on-demand ratio, single-zone saving, worst case.
fn golden_headline() -> Vec<&'static str> {
    let block = GOLDEN
        .split_once("Headline claims (measured vs paper):\n")
        .expect("golden has a headline block")
        .1;
    block
        .lines()
        .take(3)
        .map(|line| {
            let measured = line.split_once(':').expect("claim: value").1;
            let measured = measured.split("(paper").next().unwrap_or(measured);
            first_number(measured).expect("measured number")
        })
        .collect()
}

/// The bold number of each row's measured column in EXPERIMENTS.md's
/// "Headline claims (abstract)" table.
fn documented_headline() -> Vec<&'static str> {
    let section = EXPERIMENTS
        .split_once("## Headline claims (abstract)")
        .expect("EXPERIMENTS.md has a headline section")
        .1;
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|row| {
            let measured = row.trim_end_matches('|').rsplit('|').next().expect("cell");
            let bold = measured.split_once("**").expect("bold measured value").1;
            first_number(bold).expect("measured number")
        })
        .collect()
}

#[test]
fn experiments_headline_table_matches_the_golden() {
    let golden = golden_headline();
    assert_eq!(golden.len(), 3, "golden headline block: {golden:?}");
    assert_eq!(
        documented_headline(),
        golden,
        "EXPERIMENTS.md headline table disagrees with the golden reproduction"
    );
}

/// The four medians (P, M, R, Adaptive) of each Figure 5 panel in the
/// golden, in panel order.
fn golden_fig5_medians() -> Vec<Vec<&'static str>> {
    GOLDEN
        .split("\nFigure 5(")
        .skip(1)
        .map(|panel| {
            panel
                .split("\n\n")
                .next()
                .expect("panel block")
                .lines()
                .filter_map(|line| line.split_once("med $"))
                .map(|(_, med)| first_number(med).expect("median"))
                .collect()
        })
        .collect()
}

/// The P, M, R and Adaptive columns of each row of EXPERIMENTS.md's
/// Figure 5 table, bold markers stripped.
fn documented_fig5_medians() -> Vec<Vec<&'static str>> {
    let section = EXPERIMENTS
        .split_once("## Figure 5 ")
        .expect("EXPERIMENTS.md has a Figure 5 section")
        .1;
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with("| ("))
        .map(|row| {
            row.split('|')
                .skip(2) // leading empty cell and the panel name
                .take(4)
                .map(|cell| first_number(cell).expect("median"))
                .collect()
        })
        .collect()
}

#[test]
fn experiments_figure5_table_matches_the_golden() {
    let golden = golden_fig5_medians();
    assert_eq!(golden.len(), 8, "golden Figure 5 panels: {golden:?}");
    assert!(golden.iter().all(|panel| panel.len() == 4), "{golden:?}");
    assert_eq!(
        documented_fig5_medians(),
        golden,
        "EXPERIMENTS.md Figure 5 table disagrees with the golden reproduction"
    );
}

/// Each row of Figure 6 panel `panel` in the golden, as `(label,
/// median)`: `("L=$0.81", "6.26")`, …, `("Adaptive", "6.04")`.
fn golden_fig6_medians(panel: char) -> Vec<(&'static str, &'static str)> {
    GOLDEN
        .split_once(&format!("\nFigure 6({panel})"))
        .expect("golden has the Figure 6 panel")
        .1
        .split("\n\n")
        .next()
        .expect("panel block")
        .lines()
        .filter_map(|line| {
            let (label, med) = line.split_once("med $")?;
            Some((label.split_whitespace().next()?, first_number(med)?))
        })
        .collect()
}

/// The golden median of the row labelled `label`.
fn golden_median(rows: &[(&'static str, &'static str)], label: &str) -> &'static str {
    rows.iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no row {label} in {rows:?}"))
        .1
}

/// The dollar amounts of the measured column of EXPERIMENTS.md's Figure 6
/// row `row`, leaving out Large-bid thresholds (`L ≥ $0.81`, `L = $0.27`).
fn documented_fig6_medians(row: &str) -> Vec<&'static str> {
    let section = EXPERIMENTS
        .split_once("## Figure 6 ")
        .expect("EXPERIMENTS.md has a Figure 6 section")
        .1;
    let section = section.split("\n## ").next().unwrap_or(section);
    let line = section
        .lines()
        .find(|line| line.starts_with(&format!("| {row} |")))
        .unwrap_or_else(|| panic!("Figure 6 table has a {row} row"));
    let measured = line.trim_end_matches('|').rsplit('|').next().expect("cell");
    measured
        .match_indices('$')
        .filter(|&(at, _)| !["L ≥ ", "L = "].iter().any(|t| measured[..at].ends_with(t)))
        .map(|(at, _)| first_number(&measured[at..]).expect("amount"))
        .collect()
}

#[test]
fn experiments_figure6_medians_match_the_golden() {
    // Low: "every L ≥ $0.81 $6.26, A $6.04 (L = $0.27 … $48.00)".
    let low = golden_fig6_medians('a');
    let large_bids = ["L=$0.81", "L=$2.40", "L=$5.00", "L=Max", "L=Naive"];
    let every_l = golden_median(&low, large_bids[0]);
    for label in large_bids {
        assert_eq!(golden_median(&low, label), every_l, "Figure 6(a) {label}");
    }
    assert_eq!(
        documented_fig6_medians("Low volatility"),
        [
            every_l,
            golden_median(&low, "Adaptive"),
            golden_median(&low, "L=$0.27")
        ],
        "EXPERIMENTS.md Figure 6 low-volatility medians disagree with the golden"
    );

    // High: "L(Max/Naive) med $14.96 < A $29.56".
    let high = golden_fig6_medians('b');
    let max = golden_median(&high, "L=Max");
    assert_eq!(golden_median(&high, "L=Naive"), max, "Figure 6(b) Naive");
    assert_eq!(
        documented_fig6_medians("High volatility"),
        [max, golden_median(&high, "Adaptive")],
        "EXPERIMENTS.md Figure 6 high-volatility medians disagree with the golden"
    );
}
