//! Dense reference for the uptime queries, kept for tests only.
//!
//! This is the straightforward reading of Appendix B: a dense `n × n`
//! row-major matrix, and one chain at a time propagated by a masked
//! matrix-vector product into a freshly allocated vector per step. The
//! shipped kernel in [`crate::uptime`] must match it bit for bit; the
//! property test there compares the two.

use crate::states::StateSpace;
use crate::uptime::{EXACT_STEPS, MAX_EXPECTED_STEPS};
use redspot_trace::{Price, PriceSeries, SimDuration, Window};

/// A Markov price model over a dense transition matrix.
pub(crate) struct DenseModel {
    pub(crate) states: StateSpace,
    n: usize,
    /// Row-major probabilities.
    probs: Vec<f64>,
    step_secs: u64,
}

impl DenseModel {
    /// Mirrors [`crate::MarkovModel::with_bin`].
    pub(crate) fn with_bin(series: &PriceSeries, window: Window, bin_millis: u64) -> DenseModel {
        let slice = series.slice(window);
        let samples = slice.samples();
        let states = StateSpace::from_history(samples, bin_millis);
        let history = if samples.len() >= 2 {
            samples.to_vec()
        } else {
            vec![samples[0], samples[0]]
        };
        let n = states.len();
        let mut counts = vec![0u64; n * n];
        for w in history.windows(2) {
            counts[states.state_of(w[0]) * n + states.state_of(w[1])] += 1;
        }
        let mut probs = vec![0.0f64; n * n];
        for row in 0..n {
            let total: u64 = counts[row * n..(row + 1) * n].iter().sum();
            if total == 0 {
                probs[row * n + row] = 1.0;
            } else {
                for col in 0..n {
                    probs[row * n + col] = counts[row * n + col] as f64 / total as f64;
                }
            }
        }
        DenseModel {
            states,
            n,
            probs,
            step_secs: slice.step(),
        }
    }

    /// Transition probability from state `from` to state `to`.
    pub(crate) fn prob(&self, from: usize, to: usize) -> f64 {
        self.probs[from * self.n + to]
    }

    /// One Chapman-Kolmogorov step restricted to *up* states (Eq. 2):
    /// propagate `dist` through the chain, zeroing mass that sits in
    /// masked-out (down) source states first.
    pub(crate) fn step_masked(&self, dist: &[f64], up: &[bool]) -> Vec<f64> {
        let mut next = vec![0.0f64; self.n];
        for (i, (&mass, &alive)) in dist.iter().zip(up).enumerate() {
            if !alive || mass == 0.0 {
                continue;
            }
            let row = &self.probs[i * self.n..(i + 1) * self.n];
            for (nx, &p) in next.iter_mut().zip(row) {
                *nx += mass * p;
            }
        }
        next
    }

    /// The uncapped expected surviving steps of an instance observed up
    /// at `current_price`, or `None` when the query is zero without
    /// propagating.
    pub(crate) fn expected_steps(&self, current_price: Price, bid: Price) -> Option<f64> {
        if current_price > bid {
            return None;
        }
        let up = self.up_mask(bid);
        let mut dist = vec![0.0f64; self.n];
        let state = self.states.state_of(current_price);
        if up[state] {
            dist[state] = 1.0;
        } else {
            dist[up.iter().position(|&u| u)?] = 1.0;
        }

        let mut expected_steps = 0.0f64;
        let tol = 1.0 / self.step_secs as f64;
        let mut prev_alive = 1.0f64;
        for k in 0..EXACT_STEPS {
            dist = self.step_masked(&dist, &up);
            let alive: f64 = dist.iter().sum();
            expected_steps += alive;
            if alive < tol {
                break;
            }
            if k + 1 == EXACT_STEPS {
                let r = (alive / prev_alive).clamp(0.0, 0.999_999);
                expected_steps += alive * r / (1.0 - r);
            }
            prev_alive = alive;
        }
        Some(expected_steps)
    }

    /// Indicator vector `I(i) = 1 iff price_i ≤ bid` (Appendix B, Eq. 2).
    pub(crate) fn up_mask(&self, bid: Price) -> Vec<bool> {
        (0..self.n)
            .map(|i| self.states.price_of(i) <= bid)
            .collect()
    }

    /// Reference `MarkovModel::expected_uptime`.
    pub(crate) fn expected_uptime(&self, current_price: Price, bid: Price) -> SimDuration {
        self.expected_steps(current_price, bid)
            .map_or(SimDuration::ZERO, |steps| self.duration(steps))
    }

    /// Reference `MarkovModel::average_uptime`: one independent chain per
    /// up state.
    pub(crate) fn average_uptime(&self, bid: Price) -> SimDuration {
        let ups: Vec<usize> = (0..self.n)
            .filter(|&i| self.states.price_of(i) <= bid)
            .collect();
        if ups.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = ups
            .iter()
            .map(|&i| self.expected_uptime(self.states.price_of(i), bid).secs())
            .sum();
        SimDuration::from_secs(total / ups.len() as u64)
    }

    fn duration(&self, steps: f64) -> SimDuration {
        let steps = steps.min(MAX_EXPECTED_STEPS);
        SimDuration::from_secs((steps * self.step_secs as f64).round() as u64)
    }
}

mod tests {
    use super::*;
    use redspot_trace::SimTime;

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    #[test]
    fn masked_step_absorbs_down_states() {
        let s = PriceSeries::new(SimTime::ZERO, vec![p(270), p(900), p(270), p(900)]);
        let d = DenseModel::with_bin(&s, Window::new(s.start(), s.end()), 10);
        // Start fully in state 0 (price 270); bid only covers state 0.
        let up = d.up_mask(p(500));
        let d1 = d.step_masked(&[1.0, 0.0], &up);
        // 270 always moves to 900 in this history: all mass lands in the
        // down state.
        assert!((d1[1] - 1.0).abs() < 1e-12);
        // Next step: that mass is absorbed (terminated).
        let d2 = d.step_masked(&d1, &up);
        assert!(d2.iter().sum::<f64>() < 1e-12);
    }
}
