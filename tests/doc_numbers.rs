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
