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
//! Every query runs one private Chapman–Kolmogorov kernel over a set of
//! *chains*, one per start state: [`MarkovModel::expected_uptime`] runs
//! one chain, [`AverageUptime`] (and [`MarkovModel::average_uptime`])
//! one per up state, all in lock-step. Up states are a prefix of the
//! sorted price levels ([`StateSpace::up_count`]), so only the first rows
//! of the sparse transition matrix ([`TransitionMatrix`]) are ever
//! sources.
//!
//! Mass lives in a state-major `[state][lane]` buffer pair that
//! ping-pongs between steps. Lane `c` of a row holds chain `c`'s mass in
//! that state; the live chains are padded with massless lanes to a whole
//! number of blocks. The block width is a const generic: a lone chain
//! runs one lane, a batch four. Each up source row's non-zeros are
//! applied to every live chain in one contiguous inner loop over the
//! row's blocks, and each block's surviving mass is summed in registers.
//! Each chain keeps its own survival sum, `Th` cut-off, geometric tail
//! after 600 exact steps and 8 640-step (30-day) cap. A finished chain's
//! column is dropped and the buffer repacked to the chains still live.
//! The propagation is resumable: it advances one step per call, so a
//! caller can stop as soon as it has learnt what it needs.
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
//! Lanes never mix, so neither padding lanes nor the block width can
//! reach a chain. Rust never contracts `a * b + c` into a fused
//! multiply-add, so each term rounds the same way.
//!
//! # Chains that cannot be absorbed
//!
//! Before propagating, every query finds the up states from which some
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
//!
//! # The lazy average
//!
//! The Threshold policy only ever *compares* its `TimeThresh` (the
//! average up-time) with an elapsed time, and almost every comparison is
//! decided long before the chains finish. [`AverageUptime`] therefore
//! keeps the propagation open and refines it only until a comparison is
//! decided. Its lower bound is the integer mean over the up states of
//! `duration(min(partial sum, cap))`, with trapped chains at the cap.
//! This bound is exact in both senses that matter:
//!
//! - *It never exceeds the eager result.* A chain's survival sum only
//!   ever adds non-negative terms, and IEEE addition of a non-negative
//!   term never decreases a sum; the geometric tail is non-negative too.
//!   Rounding to seconds, the cap and the integer mean are monotone, so
//!   the bound never decreases and never passes the final value.
//! - *Run to the end, it is the eager result.* Refining performs exactly
//!   the float operations of a run to completion, in the same order, so
//!   the final bound is that result bit for bit — it *is*
//!   [`MarkovModel::average_uptime`], which runs the same type to the end.
//!
//! Hence `at_least(d)` — refine until the bound reaches `d` or the chains
//! finish — answers `average_uptime >= d` exactly.

use crate::states::{StateSpace, DEFAULT_BIN_MILLIS};
use crate::transition::TransitionMatrix;
use redspot_trace::{Price, PriceSeries, SimDuration, Window};
use std::ops::Deref;
use std::sync::Arc;

/// One expected-uptime chain of a model: all mass starts in state
/// `start`, and states `0..n_up` are up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Chain {
    start: usize,
    n_up: usize,
}

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

/// Batched chains propagate in blocks of this many lanes. A fixed-width
/// block keeps its arithmetic in registers instead of a loop over a
/// run-time length; on 48-hour windows eight lanes were slower for a
/// batch, two slower still. A lone chain runs a one-lane block instead:
/// in a four-lane block three of its lanes are massless padding, and one
/// lane takes it in under half the time.
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
        self.chain(current_price, bid)
            .map_or(SimDuration::ZERO, |chain| self.chain_uptime(chain))
    }

    /// The one chain an [`expected_uptime`](Self::expected_uptime) query
    /// propagates, or `None` when the answer is zero without one (the
    /// zone is out of bid, or no state is up). Queries with equal chains
    /// have equal answers, which is what the memo keys on.
    pub(crate) fn chain(&self, current_price: Price, bid: Price) -> Option<Chain> {
        if current_price > bid {
            return None;
        }
        let n_up = self.states.up_count(bid);
        let start = self.start_state(current_price, n_up)?;
        Some(Chain { start, n_up })
    }

    /// Expected up-time of `chain`: [`expected_uptime`](Self::expected_uptime)
    /// of any query that reduces to it.
    pub(crate) fn chain_uptime(&self, Chain { start, n_up }: Chain) -> SimDuration {
        if self.escaping(n_up)[start] {
            self.duration(self.expected_steps(&[start], n_up)[0])
        } else {
            self.duration(MAX_EXPECTED_STEPS)
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

    /// Probabilistic average up-time across all up starting states, each
    /// weighted equally — the Threshold policy's `TimeThresh`. The
    /// run-to-completion case of [`AverageUptime`].
    pub fn average_uptime(&self, bid: Price) -> SimDuration {
        // Weight each up state equally by its appearance in the state
        // space; a frequency-weighted version would need the raw history,
        // and the uniform version is what the Threshold description needs:
        // "the probabilistic average up time of a zone".
        AverageUptime::new(self, bid).exact()
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

    /// The kernel run to completion (see the module docs): for one chain
    /// per entry of `starts`, each starting with all its mass in that
    /// state, the uncapped `E[steps up] = Σ_k (probability still alive
    /// after k steps)`, in `starts` order. States `0..n_up` are up. A lone
    /// chain runs one lane, a batch [`LANES`].
    fn expected_steps(&self, starts: &[usize], n_up: usize) -> Vec<f64> {
        if starts.len() == 1 {
            self.propagate::<1>(starts, n_up)
        } else {
            self.propagate::<LANES>(starts, n_up)
        }
    }

    /// [`MarkovModel::expected_steps`] in blocks of `L` lanes.
    fn propagate<const L: usize>(&self, starts: &[usize], n_up: usize) -> Vec<f64> {
        let mut prop = Propagation::<L>::new(self, starts, n_up);
        while !prop.done() {
            prop.step(&self.trans);
        }
        prop.steps
    }
}

/// The resumable lock-step kernel over blocks of `L` lanes: one chain
/// per start state, advanced one Chapman–Kolmogorov step per
/// [`Propagation::step`].
#[derive(Debug)]
struct Propagation<const L: usize> {
    /// States, of which `0..n_up` are up.
    n: usize,
    n_up: usize,
    /// Seconds granularity (Th), in steps.
    tol: f64,
    /// Steps taken so far.
    k: usize,
    /// Unfinished chains, and the lanes per state row: `live` padded to
    /// a whole number of blocks.
    live: usize,
    stride: usize,
    /// `[state][lane]` mass before and after the current step.
    cur: Vec<f64>,
    next: Vec<f64>,
    /// Per live chain: its index in `starts`, and its survival after the
    /// previous step.
    chain: Vec<usize>,
    prev_alive: Vec<f64>,
    /// Survival after the current step, per lane.
    alive: Vec<f64>,
    kept_cols: Vec<usize>,
    /// Per start: the survival summed so far — a lower bound on the
    /// chain's result, and that result once the chain has finished.
    steps: Vec<f64>,
}

impl<const L: usize> Propagation<L> {
    fn new(model: &MarkovModel, starts: &[usize], n_up: usize) -> Propagation<L> {
        let n = model.states.len();
        let live = starts.len();
        let stride = live.next_multiple_of(L);
        let mut cur = vec![0.0f64; n * stride];
        for (c, &s) in starts.iter().enumerate() {
            cur[s * stride + c] = 1.0;
        }
        Propagation {
            n,
            n_up,
            tol: 1.0 / model.step_secs as f64,
            k: 0,
            live,
            stride,
            next: vec![0.0f64; cur.len()],
            cur,
            chain: (0..live).collect(),
            prev_alive: vec![1.0f64; live],
            alive: vec![0.0f64; stride],
            kept_cols: Vec::with_capacity(live),
            steps: vec![0.0f64; live],
        }
    }

    /// Whether every chain has finished.
    fn done(&self) -> bool {
        self.live == 0
    }

    /// Advance every live chain by one step. After step 600 every chain
    /// still live takes its geometric tail and finishes.
    fn step(&mut self, trans: &TransitionMatrix) {
        let (n, stride) = (self.n, self.stride);
        // One Chapman–Kolmogorov step restricted to up sources (Eq. 2):
        // mass sitting in a down state is absorbed.
        let next_live = &mut self.next[..n * stride];
        next_live.fill(0.0);
        for (i, src) in self.cur[..self.n_up * stride]
            .chunks_exact(stride)
            .enumerate()
        {
            if src.iter().all(|&mass| mass == 0.0) {
                continue;
            }
            let (cols, vals) = trans.row(i);
            if L == 1 {
                // The block loop below written out for one lane: the
                // compiler does not reduce the generic form this far.
                for (&j, &p) in cols.iter().zip(vals) {
                    next_live[j as usize] += src[0] * p;
                }
                continue;
            }
            for (&j, &p) in cols.iter().zip(vals) {
                let j = j as usize * stride;
                let dst = &mut next_live[j..j + stride];
                for (d, s) in dst.chunks_exact_mut(L).zip(src.chunks_exact(L)) {
                    for l in 0..L {
                        d[l] += s[l] * p;
                    }
                }
            }
        }
        // Surviving mass per lane, summed in ascending state order.
        if L == 1 {
            self.alive[0] = next_live.iter().fold(0.0f64, |acc, &mass| acc + mass);
        } else {
            for (b, a) in self.alive[..stride].chunks_exact_mut(L).enumerate() {
                let mut acc = [0.0f64; L];
                for row in next_live.chunks_exact(stride) {
                    let row = &row[b * L..b * L + L];
                    for l in 0..L {
                        acc[l] += row[l];
                    }
                }
                a.copy_from_slice(&acc);
            }
        }

        self.k += 1;
        let last = self.k == EXACT_STEPS;
        self.kept_cols.clear();
        for c in 0..self.live {
            let alive = self.alive[c];
            let sum = &mut self.steps[self.chain[c]];
            *sum += alive;
            if alive < self.tol {
                continue;
            }
            if last {
                // Geometric tail: survival decays roughly by a constant
                // per-step ratio once the distribution has mixed; the
                // remaining sum is alive · r / (1 − r).
                let r = (alive / self.prev_alive[c]).clamp(0.0, 0.999_999);
                *sum += alive * r / (1.0 - r);
                continue;
            }
            let w = self.kept_cols.len();
            self.chain[w] = self.chain[c];
            self.prev_alive[w] = alive;
            self.kept_cols.push(c);
        }
        let kept = self.kept_cols.len();
        if kept < self.live {
            // Drop the finished chains' columns and repack in place:
            // every write lands at or before the entries still to be
            // read. Padding lanes are zeroed so they stay massless.
            let kept_stride = kept.next_multiple_of(L);
            for j in 0..n {
                let row = j * kept_stride;
                for (w, &c) in self.kept_cols.iter().enumerate() {
                    self.next[row + w] = self.next[j * stride + c];
                }
                self.next[row + kept..row + kept_stride].fill(0.0);
            }
            self.live = kept;
            self.stride = kept_stride;
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }
}

/// The average up-time at a bid ([`MarkovModel::average_uptime`]),
/// refined lazily: a certified lower bound that propagates only as many
/// steps as a comparison needs, and reaches the eager value bit for bit
/// when run to the end (see the module docs). `M` holds the model: an
/// `Arc` for a bound that outlives its caller's borrow, a reference for
/// one that does not.
///
/// ```
/// use redspot_markov::{AverageUptime, MarkovModel};
/// use redspot_trace::{Price, PriceSeries, SimDuration, SimTime, Window};
/// use std::sync::Arc;
/// let prices = [270, 310, 900, 270, 310, 270].map(Price::from_millis);
/// let series = PriceSeries::new(SimTime::ZERO, prices.to_vec());
/// let model = Arc::new(MarkovModel::from_series(&series, Window::new(series.start(), series.end())));
/// let bid = Price::from_millis(500);
/// let mut avg = AverageUptime::new(Arc::clone(&model), bid);
/// assert!(avg.at_least(SimDuration::from_secs(1)));
/// assert_eq!(avg.exact(), model.average_uptime(bid));
/// ```
#[derive(Debug)]
pub struct AverageUptime<M = Arc<MarkovModel>> {
    model: M,
    /// One chain per up state that can reach a down state.
    prop: Propagation<LANES>,
    /// Up states: the number of chains the mean is taken over.
    n_up: u64,
    /// Seconds contributed by the trapped chains, each at the cap.
    trapped_secs: u64,
    /// The current lower bound: never above the exact value, never
    /// decreasing, and equal to the exact value once the chains finish.
    lower: SimDuration,
}

impl<M: Deref<Target = MarkovModel>> AverageUptime<M> {
    /// Start the bound for `bid`; no step is propagated yet.
    pub fn new(model: M, bid: Price) -> AverageUptime<M> {
        let n_up = model.states.up_count(bid);
        let escapes = model.escaping(n_up);
        let live: Vec<usize> = (0..n_up).filter(|&s| escapes[s]).collect();
        let trapped = (n_up - live.len()) as u64;
        let mut avg = AverageUptime {
            prop: Propagation::new(&model, &live, n_up),
            n_up: n_up as u64,
            trapped_secs: trapped * model.duration(MAX_EXPECTED_STEPS).secs(),
            lower: SimDuration::ZERO,
            model,
        };
        avg.lower = avg.bound();
        avg
    }

    /// Whether the average up-time is at least `d`, refining the bound
    /// only as far as that takes.
    pub fn at_least(&mut self, d: SimDuration) -> bool {
        while self.lower < d && !self.prop.done() {
            self.prop.step(&self.model.trans);
            self.lower = self.bound();
        }
        self.lower >= d
    }

    /// The average up-time itself: the bound run to the end.
    pub fn exact(&mut self) -> SimDuration {
        while !self.prop.done() {
            self.prop.step(&self.model.trans);
        }
        self.lower = self.bound();
        self.lower
    }

    /// The integer mean of every chain's capped duration so far.
    fn bound(&self) -> SimDuration {
        if self.n_up == 0 {
            return SimDuration::ZERO;
        }
        let propagated: u64 = self
            .prop
            .steps
            .iter()
            .map(|&s| self.model.duration(s).secs())
            .sum();
        SimDuration::from_secs((self.trapped_secs + propagated) / self.n_up)
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

    /// A bid below, inside or above the levels of `hist`, as
    /// `kernel_matches_dense_oracle` draws them.
    fn bid_for(hist: &[u64], bid_mode: u64, raw: u64) -> Price {
        let lo = *hist.iter().min().unwrap();
        let hi = *hist.iter().max().unwrap();
        p(match bid_mode {
            0 => lo.saturating_sub(1 + raw % 100),
            1 => hist[raw as usize % hist.len()] + raw % 25,
            2 => hi + raw,
            _ => 200 + raw,
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The lazy average answers every comparison as the eager one
        /// does, under any interleaving of thresholds: its bound never
        /// decreases, never exceeds the eager value, and runs to exactly
        /// the eager (and dense oracle's) value.
        #[test]
        fn lazy_average_is_exact(
            hist in history(),
            wide_bins in 0u64..2,
            bid_mode in 0u64..4,
            raw in 0u64..3_000,
            probes in proptest::collection::vec((0u64..3, 0u64..2_600_000), 0..12),
        ) {
            let bin = if wide_bins == 1 { 50 } else { 10 };
            let s = series(&hist);
            let w = Window::new(s.start(), s.end());
            let m = Arc::new(MarkovModel::with_bin(&s, w, bin));
            let bid = bid_for(&hist, bid_mode, raw);
            let eager = m.average_uptime(bid);
            let dense = DenseModel::with_bin(&s, w, bin).average_uptime(bid);
            prop_assert_eq!(eager, dense);

            let mut lazy = AverageUptime::new(Arc::clone(&m), bid);
            let mut last = lazy.lower;
            for (mode, secs) in probes {
                // Arbitrary thresholds, fractions of the answer, and the
                // answer give or take two seconds.
                let d = SimDuration::from_secs(match mode {
                    0 => secs,
                    1 => eager.secs() * (secs % 17) / 8,
                    _ => (eager.secs() + secs % 5).saturating_sub(2),
                });
                prop_assert_eq!(lazy.at_least(d), eager >= d, "threshold {}", d);
                let lower = lazy.lower;
                prop_assert!(last <= lower && lower <= eager, "{} -> {} vs {}", last, lower, eager);
                last = lower;
            }
            prop_assert_eq!(lazy.exact(), eager);
            prop_assert_eq!(lazy.lower, eager);
        }

        /// A lone chain on one lane is bit-identical to the same chain
        /// inside a four-lane batch.
        #[test]
        fn one_lane_matches_four_lane_batch(
            hist in history(),
            wide_bins in 0u64..2,
            bid_mode in 0u64..4,
            raw in 0u64..3_000,
        ) {
            let bin = if wide_bins == 1 { 50 } else { 10 };
            let s = series(&hist);
            let m = MarkovModel::with_bin(&s, Window::new(s.start(), s.end()), bin);
            let n_up = m.states.up_count(bid_for(&hist, bid_mode, raw));
            let starts: Vec<usize> = (0..n_up).collect();
            let batch = m.propagate::<LANES>(&starts, n_up);
            for (&start, &steps) in starts.iter().zip(&batch) {
                let lone = m.propagate::<1>(&[start], n_up)[0];
                prop_assert_eq!(lone.to_bits(), steps.to_bits(), "start {}", start);
            }
        }
    }
}
