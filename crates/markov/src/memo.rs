//! Sweep-shared memoization of Markov uptime estimates.
//!
//! Every Markov-Daly reschedule and Threshold decision needs a 48-hour
//! transition model and up to 600 masked propagation steps through it
//! (see [`crate::uptime`]). Across a sweep's cells those models and
//! estimates repeat heavily — runs at overlapping starts walk the same
//! absolute history windows — so a [`UptimeMemo`] caches built
//! [`MarkovModel`]s, and the expected-uptime scalars queried from them.
//!
//! # Averages are refined, not memoised
//!
//! The Threshold policy's `TimeThresh` (the average up-time) is not a
//! memoised scalar. The policy takes only the model from here and holds
//! an [`AverageUptime`](crate::AverageUptime) over it: a lower bound that
//! propagates just the steps each comparison needs. That stays exact
//! without a shared scalar. Each chain's survival sum only grows, by
//! non-negative terms, so the bound never exceeds the eager average; and
//! run to the end it performs the eager float operations, so it *is* the
//! eager average. A comparison the bound decides is therefore the
//! comparison the eager value would have decided.
//!
//! # Keying and determinism
//!
//! A model is a pure function of the samples it was built from, so the
//! cache keys on the *sample index range* the history window covers
//! ([`PriceSeries::window_indices`]), not on the window's raw seconds:
//! two runs whose reschedules land at different offsets inside the same
//! 5-minute price step still hit the same entry. A scalar keys on its
//! model and on the chain the query reduces to (start state, up count),
//! not on the raw prices: two current prices in one quantization bin,
//! or two bids between the same price levels, share an entry. Cached
//! values are reused verbatim — a memoized query returns bit-identical
//! results to an unmemoized one, which is what lets the batch plane
//! promise equal `RunResult`s with the cache on or off.
//!
//! # Scope
//!
//! Keys identify samples only *within one trace set*. A `UptimeMemo`
//! must never be shared across markets; the batch plane enforces this by
//! owning one memo per `MarketCtx`.

use crate::uptime::{Chain, MarkovModel};
use redspot_trace::{Price, PriceSeries, SimDuration, Window};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lock shards: decision points from concurrent runs mostly touch
/// different windows, so a handful of shards removes practically all
/// contention without fancy machinery.
const N_SHARDS: usize = 16;

/// Identity of a built model: which samples it saw and how they were
/// quantized. `step` is the sampling interval in seconds (part of the
/// model via the chain-step duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ModelKey {
    zone: usize,
    lo: usize,
    hi: usize,
    step: u64,
    bin: u64,
}

impl ModelKey {
    fn of(zone: usize, series: &PriceSeries, window: Window, bin_millis: u64) -> ModelKey {
        let (lo, hi) = series.window_indices(window);
        ModelKey {
            zone,
            lo,
            hi,
            step: series.step(),
            bin: bin_millis,
        }
    }

    fn shard(&self) -> usize {
        (self
            .zone
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(self.lo)
            .wrapping_add(self.hi << 8))
            % N_SHARDS
    }
}

/// An expected-uptime query reduced to what its answer depends on: the
/// model and the one chain propagated through it.
type Query = (ModelKey, Chain);

/// Snapshot of a [`UptimeMemo`]'s counters. Hits and misses count scalar
/// expected-uptime queries (the expensive chain propagation); `entries`
/// counts cached scalars across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Scalar queries answered from the cache.
    pub hits: u64,
    /// Scalar queries that had to propagate the chain.
    pub misses: u64,
    /// Cached scalar results.
    pub entries: usize,
}

impl MemoStats {
    /// Hits as a fraction of all queries (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe two-level cache over [`MarkovModel`]: built models keyed
/// by their sample range, and expected-uptime scalars keyed by `(model,
/// start state, up count)`, the chain a `(current price, bid)` query
/// reduces to.
/// See the module docs for the determinism and scoping contract.
#[derive(Debug, Default)]
pub struct UptimeMemo {
    models: [Mutex<HashMap<ModelKey, Arc<MarkovModel>>>; N_SHARDS],
    scalars: [Mutex<HashMap<Query, SimDuration>>; N_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl UptimeMemo {
    /// An empty memo.
    pub fn new() -> UptimeMemo {
        UptimeMemo::default()
    }

    /// The model for `window` of `series`, built on first use. `zone` is
    /// the caller's zone index — part of the key because different zones
    /// can cover identical index ranges with different prices.
    pub fn model(
        &self,
        zone: usize,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
    ) -> Arc<MarkovModel> {
        self.model_for(
            ModelKey::of(zone, series, window, bin_millis),
            series,
            window,
            bin_millis,
        )
    }

    /// Memoized [`MarkovModel::expected_uptime`] of the model for
    /// `window`. Bit-identical to building the model and querying it
    /// directly.
    pub fn expected_uptime(
        &self,
        zone: usize,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
        current_price: Price,
        bid: Price,
    ) -> SimDuration {
        // Mirrors the model's own early-out; no cache traffic needed.
        if current_price > bid {
            return SimDuration::ZERO;
        }
        let key = ModelKey::of(zone, series, window, bin_millis);
        let model = self.model_for(key, series, window, bin_millis);
        let Some(chain) = model.chain(current_price, bid) else {
            return SimDuration::ZERO;
        };
        let query = (key, chain);
        let shard = key.shard();
        if let Some(&v) = self.scalars[shard]
            .lock()
            .expect("memo shard poisoned")
            .get(&query)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = model.chain_uptime(chain);
        self.scalars[shard]
            .lock()
            .expect("memo shard poisoned")
            .insert(query, v);
        v
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .scalars
                .iter()
                .map(|s| s.lock().expect("memo shard poisoned").len())
                .sum(),
        }
    }

    fn model_for(
        &self,
        key: ModelKey,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
    ) -> Arc<MarkovModel> {
        let shard = key.shard();
        if let Some(m) = self.models[shard]
            .lock()
            .expect("memo shard poisoned")
            .get(&key)
        {
            return Arc::clone(m);
        }
        // Build outside the lock: a racing duplicate build is deterministic
        // (identical inputs), and the first insert wins.
        let built = Arc::new(MarkovModel::with_bin(series, window, bin_millis));
        Arc::clone(
            self.models[shard]
                .lock()
                .expect("memo shard poisoned")
                .entry(key)
                .or_insert(built),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AverageUptime;
    use redspot_trace::SimTime;

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    fn series(prices: &[u64]) -> PriceSeries {
        PriceSeries::new(SimTime::ZERO, prices.iter().map(|&m| p(m)).collect())
    }

    #[test]
    fn memoized_queries_match_direct_ones() {
        let s = series(&[270, 310, 500, 270, 800, 310, 270, 500, 900, 270]);
        let w = Window::new(s.start(), s.end());
        let memo = UptimeMemo::new();
        let direct = MarkovModel::with_bin(&s, w, 50);
        for bid in [300u64, 500, 810] {
            assert_eq!(
                memo.expected_uptime(0, &s, w, 50, p(270), p(bid)),
                direct.expected_uptime(p(270), p(bid))
            );
            assert_eq!(
                AverageUptime::new(memo.model(0, &s, w, 50), p(bid)).exact(),
                direct.average_uptime(p(bid))
            );
        }
    }

    #[test]
    fn repeat_queries_hit() {
        let s = series(&[270, 900, 270, 900, 270]);
        let w = Window::new(s.start(), s.end());
        let memo = UptimeMemo::new();
        let a = memo.expected_uptime(0, &s, w, 50, p(270), p(500));
        let b = memo.expected_uptime(0, &s, w, 50, p(270), p(500));
        assert_eq!(a, b);
        let st = memo.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn substep_jitter_shares_an_entry() {
        let s = series(&[270; 20]);
        let memo = UptimeMemo::new();
        let t = |secs: u64| SimTime::ZERO + redspot_trace::SimDuration::from_secs(secs);
        // Same sample range, different raw seconds: second query hits.
        memo.expected_uptime(0, &s, Window::new(t(0), t(1_537)), 50, p(270), p(500));
        memo.expected_uptime(0, &s, Window::new(t(13), t(1_641)), 50, p(270), p(500));
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn queries_that_reduce_to_one_chain_share_an_entry() {
        // 5-cent bins; levels 250, 300, 500 and 900.
        let s = series(&[270, 310, 500, 270, 900, 310, 270, 500, 900, 270]);
        let w = Window::new(s.start(), s.end());
        let direct = MarkovModel::with_bin(&s, w, 50);
        let memo = UptimeMemo::new();
        // Two current prices in the 250 bin.
        let a = memo.expected_uptime(0, &s, w, 50, p(260), p(600));
        let b = memo.expected_uptime(0, &s, w, 50, p(290), p(600));
        // Two bids with the same three up states.
        let c = memo.expected_uptime(0, &s, w, 50, p(290), p(810));
        assert_eq!((a, b, c), (direct.expected_uptime(p(260), p(600)), a, a));
        assert_eq!(direct.expected_uptime(p(290), p(810)), c);
        let st = memo.stats();
        assert_eq!((st.hits, st.misses, st.entries), (2, 1, 1));
        // A different up count is a different chain.
        memo.expected_uptime(0, &s, w, 50, p(290), p(950));
        assert_eq!(memo.stats().entries, 2);
    }

    #[test]
    fn zones_do_not_collide() {
        let cheap = series(&[270; 10]);
        let spiky = series(&[270, 900, 270, 900, 270, 900, 270, 900, 270, 900]);
        let w = Window::new(cheap.start(), cheap.end());
        let memo = UptimeMemo::new();
        let a = memo.expected_uptime(0, &cheap, w, 50, p(270), p(500));
        let b = memo.expected_uptime(1, &spiky, w, 50, p(270), p(500));
        assert!(a > b, "distinct zones must not share entries: {a} vs {b}");
    }

    #[test]
    fn out_of_bid_is_zero_without_cache_traffic() {
        let s = series(&[270; 10]);
        let w = Window::new(s.start(), s.end());
        let memo = UptimeMemo::new();
        assert_eq!(
            memo.expected_uptime(0, &s, w, 50, p(900), p(500)),
            SimDuration::ZERO
        );
        assert_eq!(memo.stats(), MemoStats::default());
    }
}
