//! Expected zone up-time at a bid price (Appendix B, Eqs. 2–3).
//!
//! Starting from the current price state, probability mass is propagated
//! through the empirical transition matrix with mass in out-of-bid states
//! absorbed (the instance terminates). The expected up-time is the
//! expected number of surviving 5-minute steps; iteration stops once the
//! estimate is stable at seconds granularity (the paper's `Th`).
//!
//! # The propagation kernel
//!
//! Both queries run one private Chapman–Kolmogorov kernel over a set of
//! *chains*, one per start state: [`MarkovModel::expected_uptime`] runs
//! one chain, [`MarkovModel::average_uptime`] one per up state, all in
//! lock-step. Up states are a prefix of the sorted price levels
//! ([`StateSpace::up_count`]), so only the first rows of the sparse
//! transition matrix ([`TransitionMatrix`]) are ever sources.
//!
//! Mass lives in a state-major `[state][lane]` buffer pair that
//! ping-pongs between steps. Lane `c` of a row holds chain `c`'s mass in
//! that state; the live chains are padded with massless lanes to a whole
//! number of four-lane blocks. Each up source row's non-zeros are applied
//! to every live chain in one contiguous inner loop over the row's
//! blocks, and each block's surviving mass is summed in registers. Each
//! chain keeps its own survival sum, `Th` cut-off, geometric tail after
//! 600 exact steps and 8 640-step (30-day) cap. A finished chain's column
//! is dropped and the buffer repacked to the chains still live.
//!
//! # Why it is exact
//!
//! Every chain's result is bit-identical to propagating it alone through
//! a dense matrix into one freshly zeroed vector per step, skipping
//! sources without mass (the test oracle; a property test compares the
//! two bit for bit). For each chain, `next[j]` receives its terms in
//! ascending source order in both, and the surviving mass is summed in
//! ascending state order, starting from zero. The terms the kernel skips
//! are zero matrix entries; the terms it adds that the dense walk skips
//! come from sources without mass. Either way each such term is `+0.0`,
//! and adding `+0.0` to a non-negative finite sum leaves it unchanged.
//! Lanes never mix, so padding lanes cannot reach a chain. Rust never
//! contracts `a * b + c` into a fused multiply-add, so each term rounds
//! the same way.
//!
//! # Chains that cannot be absorbed
//!
//! Before propagating, both queries find the up states from which some
//! down state is reachable: a small fixpoint over the up rows. A chain
//! that starts anywhere else never loses mass, so it gets the 30-day cap
//! directly and never enters the kernel. This is exact. Every row is
//! stochastic, so such a chain's survival after each step stays within
//! rounding of 1, far above `Th`: the chain cannot stop early. After 600
//! steps its per-step survival ratio is within rounding of 1 as well, so
//! `r` clamps to 0.999 999 and the geometric tail adds about 10⁶ steps,
//! far above the 8 640-step cap that the kernel's result would then be
//! clamped to. Lanes never mix, so leaving the chain out of the batch
//! changes no other chain's result.

use crate::states::{StateSpace, DEFAULT_BIN_MILLIS};
use crate::transition::TransitionMatrix;
use redspot_trace::{Price, PriceSeries, SimDuration, Window};

/// A per-zone Markov price model built from a history window.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    states: StateSpace,
    trans: TransitionMatrix,
    /// Seconds per chain step (the history's sampling interval).
    step_secs: u64,
}

/// Iterations before switching to geometric tail extrapolation. Sticky
/// chains (prices that essentially never leave the bid) would otherwise
/// burn thousands of matrix-vector products per query.
pub(crate) const EXACT_STEPS: usize = 600;

/// Chains propagate in blocks of this many lanes. A fixed-width block
/// keeps its arithmetic in registers instead of a loop over a run-time
/// length. Four lanes suit both a lone chain (three of them massless) and
/// a full lock-step batch: on 48-hour windows eight lanes made the lone
/// chain slower, two made both slower.
const LANES: usize = 4;

/// Cap on the expected up-time: 30 days of 5-minute steps. Beyond this the
/// distinction is irrelevant to a ≤ 30-hour experiment.
pub(crate) const MAX_EXPECTED_STEPS: f64 = 8_640.0;

impl MarkovModel {
    /// Build from the portion of `series` inside `window` (the paper uses
    /// a 2-day history) with the default one-cent price quantization.
    ///
    /// ```
    /// use redspot_markov::MarkovModel;
    /// use redspot_trace::{Price, PriceSeries, SimDuration, SimTime, Window};
    /// // A sticky cheap price: long expected up-time at any higher bid.
    /// let series = PriceSeries::new(
    ///     SimTime::ZERO,
    ///     vec![Price::from_dollars(0.27); 288],
    /// );
    /// let model = MarkovModel::from_series(&series, Window::new(series.start(), series.end()));
    /// let uptime = model.expected_uptime(Price::from_dollars(0.27), Price::from_dollars(0.81));
    /// assert!(uptime > SimDuration::from_hours(24));
    /// ```
    pub fn from_series(series: &PriceSeries, window: Window) -> MarkovModel {
        MarkovModel::with_bin(series, window, DEFAULT_BIN_MILLIS)
    }

    /// Build with an explicit quantization bin width.
    pub fn with_bin(series: &PriceSeries, window: Window, bin_millis: u64) -> MarkovModel {
        let slice = series.slice(window);
        let samples = slice.samples();
        let states = StateSpace::from_history(samples, bin_millis);
        let trans = if samples.len() >= 2 {
            TransitionMatrix::from_history(&states, samples)
        } else {
            // Degenerate one-sample history: the price never moves.
            TransitionMatrix::from_history(&states, &[samples[0], samples[0]])
        };
        MarkovModel {
            states,
            trans,
            step_secs: slice.step(),
        }
    }

    /// Number of price states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Expected up-time of a spot instance started now, given the current
    /// spot price and a bid (Eq. 3). Zero when the zone is already
    /// out-of-bid.
    pub fn expected_uptime(&self, current_price: Price, bid: Price) -> SimDuration {
        if current_price > bid {
            return SimDuration::ZERO;
        }
        let n_up = self.states.up_count(bid);
        match self.start_state(current_price, n_up) {
            Some(start) => self.uptimes(&[start], n_up)[0],
            None => SimDuration::ZERO,
        }
    }

    /// The chain's start state for an instance observed up at
    /// `current_price`, given the up states `0..n_up`.
    fn start_state(&self, current_price: Price, n_up: usize) -> Option<usize> {
        let state = self.states.state_of(current_price);
        if state < n_up {
            return Some(state);
        }
        // Quantization snapped the current price into a down state even
        // though current_price <= bid, yet the instance is observably up
        // right now: start from the first up state instead — the cheapest
        // one, not necessarily the nearest.
        (n_up > 0).then_some(0)
    }

    /// Combined expected up-time across several zones at a common bid: the
    /// paper sums per-zone expectations for (near-)independent zones
    /// (Section 4.2), so redundancy's effective MTBF grows with `N`.
    pub fn combined_uptime(
        models: &[MarkovModel],
        current_prices: &[Price],
        bid: Price,
    ) -> SimDuration {
        debug_assert_eq!(models.len(), current_prices.len());
        models
            .iter()
            .zip(current_prices)
            .map(|(m, &p)| m.expected_uptime(p, bid))
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Probabilistic average up-time across all starting states weighted
    /// by their empirical frequency — the Threshold policy's `TimeThresh`.
    pub fn average_uptime(&self, bid: Price) -> SimDuration {
        // Weight each up state equally by its appearance in the state
        // space; a frequency-weighted version would need the raw history,
        // and the uniform version is what the Threshold description needs:
        // "the probabilistic average up time of a zone".
        let n_up = self.states.up_count(bid);
        if n_up == 0 {
            return SimDuration::ZERO;
        }
        let starts: Vec<usize> = (0..n_up).collect();
        let total: u64 = self
            .uptimes(&starts, n_up)
            .into_iter()
            .map(SimDuration::secs)
            .sum();
        SimDuration::from_secs(total / n_up as u64)
    }

    /// The capped expected up-time of one chain per entry of `starts`, in
    /// `starts` order: the cap for a start that cannot reach a down state
    /// (see the module docs), the kernel's answer for the rest.
    fn uptimes(&self, starts: &[usize], n_up: usize) -> Vec<SimDuration> {
        let escapes = self.escaping(n_up);
        let live: Vec<usize> = starts.iter().copied().filter(|&s| escapes[s]).collect();
        let mut steps = if live.is_empty() {
            Vec::new()
        } else {
            self.expected_steps(&live, n_up)
        }
        .into_iter();
        starts
            .iter()
            .map(|&s| {
                self.duration(if escapes[s] {
                    steps.next().expect("one result per live start")
                } else {
                    MAX_EXPECTED_STEPS
                })
            })
            .collect()
    }

    /// Which up states `0..n_up` can reach a down state: those with a row
    /// entry into a down state or into an up state that can. The sweeps
    /// run downwards because down states lie above every up state, so
    /// the few-level price moves of a real history settle in one or two.
    fn escaping(&self, n_up: usize) -> Vec<bool> {
        let mut escapes = vec![false; n_up];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n_up).rev() {
                if !escapes[i]
                    && self
                        .trans
                        .row(i)
                        .0
                        .iter()
                        .any(|&j| j as usize >= n_up || escapes[j as usize])
                {
                    escapes[i] = true;
                    changed = true;
                }
            }
        }
        escapes
    }

    /// Expected surviving steps, capped, as a duration.
    fn duration(&self, steps: f64) -> SimDuration {
        let steps = steps.min(MAX_EXPECTED_STEPS);
        SimDuration::from_secs((steps * self.step_secs as f64).round() as u64)
    }

    /// The propagation kernel (see the module docs): for one chain per
    /// entry of `starts`, each starting with all its mass in that state,
    /// the uncapped `E[steps up] = Σ_k (probability still alive after k
    /// steps)`, in `starts` order. States `0..n_up` are up.
    fn expected_steps(&self, starts: &[usize], n_up: usize) -> Vec<f64> {
        let n = self.states.len();
        // Seconds granularity (Th).
        let tol = 1.0 / self.step_secs as f64;
        // `[state][lane]` mass: the `live` unfinished chains, padded with
        // massless lanes to `stride`, a whole number of blocks.
        let mut live = starts.len();
        let mut stride = live.next_multiple_of(LANES);
        let mut cur = vec![0.0f64; n * stride];
        let mut next = vec![0.0f64; n * stride];
        for (c, &s) in starts.iter().enumerate() {
            cur[s * stride + c] = 1.0;
        }
        // Per live chain: its index in `starts`, its running sum, and its
        // survival after the previous and (per lane) the current step.
        let mut chain: Vec<usize> = (0..live).collect();
        let mut sum = vec![0.0f64; live];
        let mut prev_alive = vec![1.0f64; live];
        let mut alive = vec![0.0f64; stride];
        let mut kept_cols = Vec::with_capacity(live);
        let mut out = vec![0.0f64; live];
        for k in 0..EXACT_STEPS {
            // One Chapman–Kolmogorov step restricted to up sources (Eq. 2):
            // mass sitting in a down state is absorbed.
            let next_live = &mut next[..n * stride];
            next_live.fill(0.0);
            for (i, src) in cur[..n_up * stride].chunks_exact(stride).enumerate() {
                if src.iter().all(|&mass| mass == 0.0) {
                    continue;
                }
                let (cols, vals) = self.trans.row(i);
                for (&j, &p) in cols.iter().zip(vals) {
                    let j = j as usize * stride;
                    let dst = &mut next_live[j..j + stride];
                    for (d, s) in dst.chunks_exact_mut(LANES).zip(src.chunks_exact(LANES)) {
                        for l in 0..LANES {
                            d[l] += s[l] * p;
                        }
                    }
                }
            }
            // Surviving mass per lane, summed in ascending state order.
            for (b, a) in alive[..stride].chunks_exact_mut(LANES).enumerate() {
                let mut acc = [0.0f64; LANES];
                for row in next_live.chunks_exact(stride) {
                    let row = &row[b * LANES..b * LANES + LANES];
                    for l in 0..LANES {
                        acc[l] += row[l];
                    }
                }
                a.copy_from_slice(&acc);
            }

            kept_cols.clear();
            for c in 0..live {
                let s = sum[c] + alive[c];
                if alive[c] < tol {
                    out[chain[c]] = s;
                    continue;
                }
                let w = kept_cols.len();
                sum[w] = if k + 1 == EXACT_STEPS {
                    // Geometric tail: survival decays roughly by a constant
                    // per-step ratio once the distribution has mixed; the
                    // remaining sum is alive · r / (1 − r).
                    let r = (alive[c] / prev_alive[c]).clamp(0.0, 0.999_999);
                    s + alive[c] * r / (1.0 - r)
                } else {
                    s
                };
                chain[w] = chain[c];
                prev_alive[w] = alive[c];
                kept_cols.push(c);
            }
            if kept_cols.len() < live {
                // Drop the finished chains' columns and repack in place:
                // every write lands at or before the entries still to be
                // read. Padding lanes are zeroed so they stay massless.
                let kept = kept_cols.len();
                let kept_stride = kept.next_multiple_of(LANES);
                for j in 0..n {
                    let row = j * kept_stride;
                    for (w, &c) in kept_cols.iter().enumerate() {
                        next[row + w] = next[j * stride + c];
                    }
                    next[row + kept..row + kept_stride].fill(0.0);
                }
                live = kept;
                stride = kept_stride;
                if live == 0 {
                    break;
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        for c in 0..live {
            out[chain[c]] = sum[c];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DenseModel;
    use proptest::prelude::*;
    use redspot_trace::{SimTime, SimTime as T, PRICE_STEP};

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    fn series(prices: &[u64]) -> PriceSeries {
        PriceSeries::new(T::ZERO, prices.iter().map(|&m| p(m)).collect())
    }

    fn model(prices: &[u64]) -> MarkovModel {
        let s = series(prices);
        let w = Window::new(s.start(), s.end());
        MarkovModel::from_series(&s, w)
    }

    #[test]
    fn out_of_bid_has_zero_uptime() {
        let m = model(&[270, 270, 900, 270]);
        assert_eq!(m.expected_uptime(p(900), p(500)), SimDuration::ZERO);
    }

    #[test]
    fn stable_price_gives_long_uptime() {
        // Price never moves: survival forever, capped at 30 days.
        let m = model(&[270; 100]);
        let up = m.expected_uptime(p(270), p(500));
        assert_eq!(up, SimDuration::from_secs(PRICE_STEP * 8_640), "got {up}");
    }

    #[test]
    fn geometric_survival_matches_closed_form() {
        // Two states, P(leave up) = 0.5 per step: E[steps] = 1 (geometric
        // survival: sum of 0.5^k for k>=1).
        let m = model(&[270, 900, 270, 900, 270]);
        let up = m.expected_uptime(p(270), p(500));
        let expected = PRICE_STEP as f64 * 1.0;
        assert!(
            (up.secs() as f64 - expected).abs() <= PRICE_STEP as f64 * 0.1,
            "got {up}, expected ≈{expected}s"
        );
    }

    #[test]
    fn higher_bid_never_reduces_uptime() {
        let hist = [270, 310, 500, 270, 800, 310, 270, 500, 900, 270];
        let m = model(&hist);
        let mut last = SimDuration::ZERO;
        for bid in [300u64, 500, 800, 1000] {
            let up = m.expected_uptime(p(270), p(bid));
            assert!(up >= last, "uptime decreased at bid {bid}");
            last = up;
        }
    }

    #[test]
    fn combined_uptime_sums_zones() {
        let m1 = model(&[270, 900, 270, 900, 270]);
        let m2 = model(&[270; 50]);
        let solo1 = m1.expected_uptime(p(270), p(500));
        let solo2 = m2.expected_uptime(p(270), p(500));
        let combined = MarkovModel::combined_uptime(&[m1, m2], &[p(270), p(270)], p(500));
        assert_eq!(combined, solo1 + solo2);
        assert!(combined > solo1);
    }

    #[test]
    fn average_uptime_positive_when_affordable() {
        let m = model(&[270, 310, 900, 270, 310, 270]);
        assert!(m.average_uptime(p(500)) > SimDuration::ZERO);
        assert_eq!(m.average_uptime(p(100)), SimDuration::ZERO);
    }

    #[test]
    fn quantization_snap_keeps_running_zone_alive() {
        // Bid sits inside the bin holding the current price: the mask may
        // mark that bin down, but the zone is observably up.
        let m = model(&[270, 271, 272, 273, 274, 270]);
        let up = m.expected_uptime(p(274), p(274));
        assert!(up > SimDuration::ZERO);
    }

    #[test]
    fn single_sample_window_degenerates_gracefully() {
        let s = series(&[270, 900, 270]);
        let w = Window::new(SimTime::ZERO, SimTime::from_secs(PRICE_STEP));
        let m = MarkovModel::from_series(&s, w);
        assert_eq!(m.n_states(), 1);
        assert!(m.expected_uptime(p(270), p(500)) > SimDuration::ZERO);
    }

    #[test]
    fn quantization_snap_starts_from_the_cheapest_up_state() {
        // Levels 270 (sticky), 280 (always jumps to 900) and 900. At bid
        // and price 650 the current price snaps to the nearer 900 bin,
        // which is down: the chain restarts from 270, the first up state,
        // not from 280, the nearest one.
        let m = model(&[270, 270, 270, 270, 270, 270, 280, 900, 280, 900, 270]);
        let snapped = m.expected_uptime(p(650), p(650));
        assert_eq!(snapped, m.expected_uptime(p(270), p(650)));
        assert_ne!(snapped, m.expected_uptime(p(280), p(650)));
    }

    #[test]
    fn sticky_chain_reaches_the_geometric_tail() {
        // 270 stays with probability s = 300/301, otherwise leaves for the
        // down state 900: survival after k steps is s^(k-1), still above
        // Th after 600 steps, and the tail completes the geometric sum
        // 1 / (1 - s) = 301 steps.
        let mut hist = vec![270; 301];
        hist.push(900);
        let m = model(&hist);
        let steps = m.expected_steps(&[0], m.states.up_count(p(500)))[0];
        assert!((steps - 301.0).abs() < 1e-6, "got {steps}");
        let s = series(&hist);
        let dense = DenseModel::with_bin(&s, Window::new(s.start(), s.end()), DEFAULT_BIN_MILLIS);
        assert_eq!(
            dense.expected_steps(p(270), p(500)).map(f64::to_bits),
            Some(steps.to_bits())
        );
    }

    #[test]
    fn trapped_start_gets_the_cap_without_the_kernel() {
        // At a 600 bid, 270 and 310 can reach the down state 900. 200 is
        // the last sample, never a source, so it keeps a self-loop; it is
        // entered only from 900, so a chain started there is never
        // absorbed and the others never reach it.
        let hist = [270, 270, 900, 270, 310, 900, 200];
        let m = model(&hist);
        let bid = p(600);
        let n_up = m.states.up_count(bid);
        assert_eq!(m.escaping(n_up), [false, true, true]);
        let cap = SimDuration::from_secs(PRICE_STEP * 8_640);
        assert_eq!(m.expected_uptime(p(200), bid), cap);
        assert!(m.expected_uptime(p(270), bid) < cap);
        // The kernel would have run the trapped chain past the cap.
        assert!(m.expected_steps(&[0], n_up)[0] > MAX_EXPECTED_STEPS);

        let s = series(&hist);
        let dense = DenseModel::with_bin(&s, Window::new(s.start(), s.end()), DEFAULT_BIN_MILLIS);
        for current in [200, 270, 310] {
            assert_eq!(
                m.expected_uptime(p(current), bid),
                dense.expected_uptime(p(current), bid),
                "start {current}"
            );
        }
        assert_eq!(m.average_uptime(bid), dense.average_uptime(bid));
    }

    /// Price levels the generated histories draw from.
    const PALETTE: [u64; 6] = [270, 281, 310, 455, 810, 2_400];

    /// Histories of 1–700 samples as runs of `(palette level, jitter,
    /// length)`: long runs make sticky chains that reach the geometric
    /// tail and the cap, short ones jumpy chains over many states.
    fn history() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![
            proptest::collection::vec((0usize..6, 0u64..30, 1usize..=250), 1..8),
            proptest::collection::vec((0usize..6, 0u64..30, 1usize..=3), 1..40),
        ]
        .prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(level, jitter, len)| std::iter::repeat_n(PALETTE[level] + jitter, len))
                .take(700)
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The sparse lock-step kernel answers every query bit-identically
        /// to the dense one-chain-at-a-time oracle.
        #[test]
        fn kernel_matches_dense_oracle(
            hist in history(),
            wide_bins in 0u64..2,
            bid_mode in 0u64..4,
            raw in 0u64..3_000,
        ) {
            let bin = if wide_bins == 1 { 50 } else { 10 };
            let s = series(&hist);
            let w = Window::new(s.start(), s.end());
            let m = MarkovModel::with_bin(&s, w, bin);
            let dense = DenseModel::with_bin(&s, w, bin);

            let n = m.n_states();
            prop_assert_eq!(n, dense.states.len());
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(m.trans.prob(i, j).to_bits(), dense.prob(i, j).to_bits());
                }
            }

            // Bids below, inside and above the observed levels.
            let lo = *hist.iter().min().unwrap();
            let hi = *hist.iter().max().unwrap();
            let bid = p(match bid_mode {
                0 => lo.saturating_sub(1 + raw % 100),
                1 => hist[raw as usize % hist.len()] + raw % 25,
                2 => hi + raw,
                _ => 200 + raw,
            });

            let up = dense.up_mask(bid);
            let n_up = m.states.up_count(bid);
            prop_assert_eq!(n_up, up.iter().filter(|&&u| u).count());
            prop_assert!(up[..n_up].iter().all(|&u| u));
            if n_up > 0 {
                let starts: Vec<usize> = (0..n_up).collect();
                for (i, steps) in m.expected_steps(&starts, n_up).into_iter().enumerate() {
                    let want = dense.expected_steps(m.states.price_of(i), bid);
                    prop_assert_eq!(Some(steps.to_bits()), want.map(f64::to_bits));
                }
            }
            prop_assert_eq!(m.average_uptime(bid), dense.average_uptime(bid));

            // Current prices on, inside and between the levels — between
            // two levels a price at or under the bid can snap into a down
            // bin — and around the bid itself.
            let mut currents = vec![bid.millis(), bid.millis().saturating_sub(1), bid.millis() + 1];
            for i in 0..n {
                let level = m.states.price_of(i).millis();
                currents.extend([level, level + bin - 1]);
                if i + 1 < n {
                    currents.push((level + m.states.price_of(i + 1).millis()) / 2 + 1);
                }
            }
            for current in currents.into_iter().map(p) {
                prop_assert_eq!(m.expected_uptime(current, bid), dense.expected_uptime(current, bid));
                let steps = (current <= bid)
                    .then(|| m.start_state(current, n_up))
                    .flatten()
                    .map(|s| m.expected_steps(&[s], n_up)[0]);
                prop_assert_eq!(steps.map(f64::to_bits), dense.expected_steps(current, bid).map(f64::to_bits));
            }
        }
    }
}
