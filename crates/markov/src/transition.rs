//! Empirical transition matrices over price states.

use crate::states::StateSpace;
use redspot_trace::Price;

/// A row-stochastic transition matrix `TRANS` where `TRANS[n][m]` is the
/// probability of the spot price moving from state `n` to state `m` in one
/// 5-minute step (Appendix B).
///
/// Stored sparse (CSR): a 48-hour history visits each state's few
/// neighbours only, so most of the `n × n` cells are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    /// Row `i`'s non-zeros are `row_ptr[i]..row_ptr[i + 1]`.
    row_ptr: Vec<usize>,
    /// Column of each non-zero, ascending within a row.
    cols: Vec<u32>,
    /// Probability of each non-zero.
    vals: Vec<f64>,
}

impl TransitionMatrix {
    /// Count transitions between consecutive samples of `history` under
    /// `states`. States that never occur as a source get a self-loop
    /// (the only unbiased choice with zero evidence).
    ///
    /// # Panics
    /// Panics if `history` has fewer than two samples.
    pub fn from_history(states: &StateSpace, history: &[Price]) -> TransitionMatrix {
        assert!(
            history.len() >= 2,
            "need at least two samples for transitions"
        );
        let n = states.len();
        let mut counts = vec![0u32; n * n];
        let mut from = states.state_of(history[0]);
        for &price in &history[1..] {
            let to = states.state_of(price);
            counts[from * n + to] += 1;
            from = to;
        }

        // The dense counts are scratch: keep each row's non-zeros, or the
        // self-loop of a state never seen as a source.
        let nnz = counts
            .chunks_exact(n)
            .map(|row| row.iter().filter(|&&c| c > 0).count().max(1))
            .sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for (row, counts) in counts.chunks_exact(n).enumerate() {
            let total: u32 = counts.iter().sum();
            if total == 0 {
                cols.push(row as u32);
                vals.push(1.0);
            } else {
                for (col, &c) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
                    cols.push(col as u32);
                    vals.push(c as f64 / total as f64);
                }
            }
            row_ptr.push(cols.len());
        }
        TransitionMatrix {
            row_ptr,
            cols,
            vals,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Whether the matrix is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transition probability from state `from` to state `to`.
    pub fn prob(&self, from: usize, to: usize) -> f64 {
        let (cols, vals) = self.row(from);
        match cols.binary_search(&(to as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Row `from`'s non-zeros: ascending columns and their probabilities.
    pub(crate) fn row(&self, from: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[from]..self.row_ptr[from + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// Each row sums to 1 (within tolerance) — used by tests and debug
    /// assertions.
    pub fn is_stochastic(&self) -> bool {
        (0..self.len()).all(|row| {
            let s: f64 = self.row(row).1.iter().sum();
            (s - 1.0).abs() < 1e-9
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    #[test]
    fn counts_simple_chain() {
        // 270 -> 270 -> 900 -> 270
        let hist = vec![p(270), p(270), p(900), p(270)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        assert!(t.is_stochastic());
        // From 270: one self-loop, one to 900.
        assert!((t.prob(0, 0) - 0.5).abs() < 1e-12);
        assert!((t.prob(0, 1) - 0.5).abs() < 1e-12);
        // From 900: always back to 270.
        assert!((t.prob(1, 0) - 1.0).abs() < 1e-12);
        assert_eq!(t.prob(1, 1), 0.0);
    }

    #[test]
    fn unobserved_source_gets_self_loop() {
        // 900 appears only as the final sample: never a source.
        let hist = vec![p(270), p(270), p(900)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        assert!(t.is_stochastic());
        assert!((t.prob(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rows_store_only_observed_transitions() {
        // 270 -> {270, 310}, 310 -> 900, 900 -> 270; 500 never a source.
        let hist = vec![p(270), p(270), p(310), p(900), p(270), p(500)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        assert_eq!(t.len(), 4);
        assert_eq!(t.row(0), (&[0u32, 1, 2][..], &[1.0 / 3.0; 3][..]));
        assert_eq!(t.row(1), (&[3u32][..], &[1.0][..]));
        assert_eq!(t.row(2), (&[2u32][..], &[1.0][..])); // self-loop
        assert_eq!(t.row(3), (&[0u32][..], &[1.0][..]));
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn single_sample_panics() {
        let hist = vec![p(270)];
        let s = StateSpace::from_history(&hist, 10);
        TransitionMatrix::from_history(&s, &hist);
    }
}
