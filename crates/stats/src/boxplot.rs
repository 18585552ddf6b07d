//! Five-number summaries and ASCII boxplots, matching the boxplot figures
//! in the paper's evaluation (Figures 4–6).

use crate::descriptive::quantile_sorted;
use serde::{Deserialize, Serialize};

/// A Tukey five-number summary with 1.5×IQR whiskers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Boxplot {
    /// Smallest observation.
    pub min: f64,
    /// Lower whisker (smallest observation ≥ q1 − 1.5 IQR).
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker (largest observation ≤ q3 + 1.5 IQR).
    pub whisker_hi: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Boxplot {
    /// Summarize a sample. Returns `None` for an empty slice.
    pub fn from_samples(xs: &[f64]) -> Option<Boxplot> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        let q1 = quantile_sorted(&sorted, 0.25);
        let median = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|&x| x >= lo_fence)
            .unwrap_or(sorted[0]);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(*sorted.last().expect("non-empty"));
        // Interpolated quartiles need not be observations; when every
        // observation past a quartile is an outlier, the whisker collapses
        // onto the box edge (the standard drawing convention).
        let whisker_lo = whisker_lo.min(q1);
        let whisker_hi = whisker_hi.max(q3);
        Some(Boxplot {
            min: sorted[0],
            whisker_lo,
            q1,
            median,
            q3,
            whisker_hi,
            max: *sorted.last().expect("non-empty"),
            n: sorted.len(),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Internal consistency: min ≤ whiskers/quartiles ≤ max in order.
    pub fn is_well_formed(&self) -> bool {
        self.min <= self.whisker_lo
            && self.whisker_lo <= self.q1 + 1e-12
            && self.q1 <= self.median
            && self.median <= self.q3
            && self.q3 - 1e-12 <= self.whisker_hi
            && self.whisker_hi <= self.max
    }
}

/// Render one boxplot as a fixed-width ASCII row spanning `[lo, hi]`,
/// `width` characters wide: `|--[==M==]--|` with outliers elided.
/// Used by the `redspot` figure subcommands to draw Figures 4–6 in the
/// terminal.
pub fn render_row(b: &Boxplot, lo: f64, hi: f64, width: usize) -> String {
    let width = width.max(10);
    let clamp_pos = |x: f64| -> usize {
        if hi <= lo {
            return 0;
        }
        let frac = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((frac * (width - 1) as f64).round() as usize).min(width - 1)
    };
    let mut row = vec![b' '; width];
    let (wl, q1, med, q3, wh) = (
        clamp_pos(b.whisker_lo),
        clamp_pos(b.q1),
        clamp_pos(b.median),
        clamp_pos(b.q3),
        clamp_pos(b.whisker_hi),
    );
    for cell in row.iter_mut().take(wh).skip(wl) {
        *cell = b'-';
    }
    for cell in row.iter_mut().take(q3).skip(q1) {
        *cell = b'=';
    }
    row[wl] = b'|';
    row[wh] = b'|';
    row[q1] = b'[';
    row[q3] = b']';
    row[med] = b'M';
    String::from_utf8(row).expect("ASCII by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_numbers_of_simple_sample() {
        let b = Boxplot::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.n, 5);
        assert!(b.is_well_formed());
    }

    #[test]
    fn whiskers_exclude_outliers() {
        let mut xs: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        xs.push(1000.0); // extreme outlier
        let b = Boxplot::from_samples(&xs).unwrap();
        assert_eq!(b.max, 1000.0);
        assert!(b.whisker_hi <= 20.0);
        assert!(b.is_well_formed());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Boxplot::from_samples(&[]).is_none());
        let b = Boxplot::from_samples(&[7.0]).unwrap();
        assert_eq!(b.min, 7.0);
        assert_eq!(b.median, 7.0);
        assert_eq!(b.max, 7.0);
        assert_eq!(b.iqr(), 0.0);
        assert!(b.is_well_formed());
    }

    #[test]
    fn render_places_median_between_brackets() {
        let b = Boxplot::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let row = render_row(&b, 0.0, 6.0, 40);
        assert_eq!(row.len(), 40);
        let bracket_open = row.find('[').unwrap();
        let m = row.find('M').unwrap();
        let bracket_close = row.find(']').unwrap();
        assert!(bracket_open < m && m < bracket_close);
        assert!(row.find('|').unwrap() < bracket_open);
    }

    #[test]
    fn render_handles_degenerate_scale() {
        let b = Boxplot::from_samples(&[5.0]).unwrap();
        let row = render_row(&b, 5.0, 5.0, 20);
        assert_eq!(row.len(), 20);
    }
}
