//! Randomized-bid policy (Bhuyan et al.: optimal randomized bidding for
//! time-critical workloads on spot markets).
//!
//! Deterministic bids are exploitable and fragile: a fixed bid `B` fails
//! whole fleets simultaneously when the price crosses `B`, and the
//! provider can price-discriminate against the observable bid mass at
//! popular levels. The optimal strategy randomizes: each decision epoch
//! draws a fresh acquisition bid from a heavy-low distribution over
//! `[B/3, B]` with density proportional to `1/b²` — the shape that
//! equalizes expected marginal cost per unit of acquired availability
//! across the support, so no single bid level is systematically
//! overpaid.
//!
//! Mechanically the drawn value acts as the *resume threshold*: down
//! zones are re-requested only while the market trades at or below the
//! current draw, while already-running instances keep the configured cap
//! `B` (reproducing the acquisition-vs-retention split of the randomized
//! strategy). Checkpointing keeps the hour-boundary cadence — every paid
//! hour ends committed — so the deadline guarantee is untouched.
//!
//! The draw is a *pure hash* of `(seed, epoch)`, not a stateful RNG:
//! identical seeds replay bit-identically regardless of how many
//! decision points the engine happens to visit.

use crate::policy::{Policy, PolicyCtx};
use redspot_trace::{Price, SimTime};

/// Randomized acquisition bids, re-drawn once per billing-hour epoch.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedBidPolicy {
    seed: u64,
    /// The epoch the current draw belongs to.
    epoch: Option<u64>,
    /// The drawn acquisition bid (`None` until the first decision point;
    /// the engine then falls back to the configured bid).
    drawn: Option<Price>,
}

/// Seconds per decision epoch (one billing hour).
const EPOCH_SECS: u64 = 3_600;

impl RandomizedBidPolicy {
    /// Construct with a draw seed.
    pub fn new(seed: u64) -> RandomizedBidPolicy {
        RandomizedBidPolicy {
            seed,
            epoch: None,
            drawn: None,
        }
    }

    /// The current drawn acquisition bid (exposed for tests).
    pub fn drawn(&self) -> Option<Price> {
        self.drawn
    }

    /// SplitMix64-style avalanche of `(seed, epoch)` into a uniform
    /// `u ∈ [0, 1)`.
    fn uniform01(seed: u64, epoch: u64) -> f64 {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Inverse CDF of the density `f(b) ∝ 1/b²` on `[lo, hi]`:
    /// `F⁻¹(u) = lo·hi / (hi − u·(hi − lo))`.
    fn draw_bid(seed: u64, epoch: u64, cap: Price) -> Price {
        let hi = cap.millis().max(1) as f64;
        let lo = (cap.millis() / 3).max(1) as f64;
        let u = Self::uniform01(seed, epoch);
        let b = lo * hi / (hi - u * (hi - lo));
        Price::from_millis((b.round() as u64).clamp(lo as u64, hi as u64))
    }

    /// Re-draw if the epoch rolled over since the last decision point.
    fn refresh(&mut self, ctx: &PolicyCtx) {
        let epoch = ctx.now.secs() / EPOCH_SECS;
        if self.epoch != Some(epoch) {
            self.epoch = Some(epoch);
            self.drawn = Some(Self::draw_bid(self.seed, epoch, ctx.bid));
        }
    }

    /// Hour-boundary checkpoint trigger (shared with Periodic's shape).
    fn trigger_time(ctx: &PolicyCtx) -> Option<SimTime> {
        let boundary = ctx.leader_boundary?;
        let t = boundary.saturating_sub(ctx.costs.checkpoint);
        Some(t.max(ctx.now))
    }
}

impl Policy for RandomizedBidPolicy {
    fn name(&self) -> &'static str {
        "Randomized-bid"
    }

    fn checkpoint_now(&mut self, ctx: &PolicyCtx) -> bool {
        self.refresh(ctx);
        match RandomizedBidPolicy::trigger_time(ctx) {
            Some(t) => ctx.now >= t,
            None => false,
        }
    }

    fn reschedule(&mut self, ctx: &PolicyCtx) {
        self.refresh(ctx);
    }

    fn alarm(&mut self, ctx: &PolicyCtx, _before: SimTime) -> Option<SimTime> {
        // Wake at the checkpoint trigger or the next epoch roll-over,
        // whichever comes first, so a fresh draw lands on time even when
        // nothing else is scheduled.
        let next_epoch = SimTime::from_secs((ctx.now.secs() / EPOCH_SECS + 1) * EPOCH_SECS);
        let ckpt = RandomizedBidPolicy::trigger_time(ctx).filter(|&t| t > ctx.now);
        Some(ckpt.map_or(next_epoch, |t| t.min(next_epoch)))
    }

    fn resume_threshold(&self) -> Option<Price> {
        self.drawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{ctx_fixture, NO_HORIZON};
    use redspot_trace::SimTime;

    #[test]
    fn draws_are_deterministic_and_epoch_stable() {
        let fx = ctx_fixture();
        let mut a = RandomizedBidPolicy::new(7);
        let mut b = RandomizedBidPolicy::new(7);
        let ctx = fx.ctx(SimTime::from_secs(100), None);
        a.reschedule(&ctx);
        b.reschedule(&ctx);
        assert_eq!(a.drawn(), b.drawn());
        assert!(a.drawn().is_some());

        // Same epoch → same draw, regardless of how often it's consulted.
        let later = fx.ctx(SimTime::from_secs(3_000), None);
        a.reschedule(&later);
        assert_eq!(a.drawn(), b.drawn());

        // Next epoch → a re-draw (almost surely different).
        let next = fx.ctx(SimTime::from_secs(3_700), None);
        a.reschedule(&next);
        b.reschedule(&next);
        assert_eq!(a.drawn(), b.drawn());
    }

    #[test]
    fn different_seeds_draw_differently() {
        let fx = ctx_fixture();
        let ctx = fx.ctx(SimTime::from_secs(100), None);
        let mut a = RandomizedBidPolicy::new(1);
        let mut b = RandomizedBidPolicy::new(2);
        a.reschedule(&ctx);
        b.reschedule(&ctx);
        assert_ne!(a.drawn(), b.drawn());
    }

    #[test]
    fn draws_stay_inside_the_support() {
        let cap = Price::from_millis(810);
        for seed in 0..50u64 {
            for epoch in 0..50u64 {
                let b = RandomizedBidPolicy::draw_bid(seed, epoch, cap);
                assert!(b >= Price::from_millis(270), "draw {b} below support");
                assert!(b <= cap, "draw {b} above cap");
            }
        }
    }

    #[test]
    fn distribution_is_heavy_low() {
        // Density ∝ 1/b² puts more than half the mass in the lower half
        // of the support.
        let cap = Price::from_millis(810);
        let mid = Price::from_millis((270 + 810) / 2);
        let low = (0..2_000u64)
            .filter(|&e| RandomizedBidPolicy::draw_bid(99, e, cap) <= mid)
            .count();
        assert!(low > 1_100, "only {low}/2000 draws in the lower half");
    }

    #[test]
    fn checkpoints_at_hour_boundaries_like_periodic() {
        let fx = ctx_fixture();
        let boundary = SimTime::from_secs(7_200);
        let mut p = RandomizedBidPolicy::new(3);
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_secs(3_600), Some(boundary))));
        assert!(p.checkpoint_now(&fx.ctx(SimTime::from_secs(6_900), Some(boundary))));
    }

    #[test]
    fn alarm_covers_the_epoch_rollover() {
        let fx = ctx_fixture();
        let mut p = RandomizedBidPolicy::new(3);
        // No boundary: still wakes at the next epoch for a fresh draw.
        let ctx = fx.ctx(SimTime::from_secs(100), None);
        assert_eq!(p.alarm(&ctx, NO_HORIZON), Some(SimTime::from_secs(3_600)));
        // With a checkpoint trigger sooner, that wins.
        let ctx = fx.ctx(SimTime::from_secs(100), Some(SimTime::from_secs(3_000)));
        assert_eq!(p.alarm(&ctx, NO_HORIZON), Some(SimTime::from_secs(2_700)));
    }
}
