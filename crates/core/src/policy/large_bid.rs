//! Large-bid baseline (Section 7.2.2, after Khatua & Mukherjee).
//!
//! The user submits an effectively-unbeatable bid `B` (e.g. $100 — the
//! largest spot price ever observed in the paper's data is $20.02) so EC2
//! never terminates the instance, and controls cost with a second,
//! smaller threshold `L`:
//!
//! * if `S` rises above `L`, the instance finishes its already-paid hour;
//! * if `S` is still above `L` near the hour's end, a checkpoint is taken
//!   and the instance is *manually* terminated;
//! * the instance is re-requested as soon as `S ≤ L`.
//!
//! Strictly single-zone. No upper bound on cost: one price spike inside a
//! billing hour is paid at the spiked hour-start rate.

use crate::policy::{Policy, PolicyCtx};
use redspot_trace::{Price, SimTime};

/// The effectively-unbeatable bid submitted by Large-bid.
pub const LARGE_BID: Price = Price::from_millis(100_000); // $100

/// Large-bid with user cost-control threshold `L`.
#[derive(Debug, Clone, Copy)]
pub struct LargeBidPolicy {
    threshold: Price,
}

impl LargeBidPolicy {
    /// Construct with cost-control threshold `L`. Use
    /// [`LargeBidPolicy::naive`] for the unbounded variant.
    pub fn new(threshold: Price) -> LargeBidPolicy {
        LargeBidPolicy { threshold }
    }

    /// The "Naive" variant of Figure 6: no threshold at all — the
    /// instance always runs, whatever the price.
    pub fn naive() -> LargeBidPolicy {
        LargeBidPolicy {
            threshold: LARGE_BID,
        }
    }

    /// The cost-control threshold `L`.
    pub fn threshold(&self) -> Price {
        self.threshold
    }
}

impl Policy for LargeBidPolicy {
    fn name(&self) -> &'static str {
        "Large-bid"
    }

    fn checkpoint_now(&mut self, ctx: &PolicyCtx) -> bool {
        // Near the end of the paid hour with S still above L: save
        // progress so the voluntary stop at the boundary loses nothing.
        let (Some(boundary), Some(leader)) = (ctx.leader_boundary, ctx.leader) else {
            return false;
        };
        let trigger = boundary.saturating_sub(ctx.costs.checkpoint);
        ctx.now >= trigger && ctx.price(leader) > self.threshold
    }

    fn alarm(&mut self, ctx: &PolicyCtx, _before: SimTime) -> Option<SimTime> {
        let boundary = ctx.leader_boundary?;
        let t = boundary.saturating_sub(ctx.costs.checkpoint);
        (t > ctx.now).then_some(t)
    }

    fn resume_threshold(&self) -> Option<Price> {
        Some(self.threshold)
    }

    fn voluntary_stop(&mut self, ctx: &PolicyCtx, idx: usize) -> bool {
        ctx.price(idx) > self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{ctx_fixture, NO_HORIZON};
    use redspot_trace::{PriceSeries, TraceSet};

    fn m(v: u64) -> Price {
        Price::from_millis(v)
    }

    #[test]
    fn cheap_market_runs_undisturbed() {
        let fx = ctx_fixture(); // flat $0.27
        let mut p = LargeBidPolicy::new(m(810));
        let boundary = SimTime::from_secs(3_600);
        let ctx = fx.ctx(SimTime::from_secs(3_400), Some(boundary));
        assert!(!p.checkpoint_now(&ctx));
        assert!(!p.voluntary_stop(&ctx, 0));
    }

    #[test]
    fn expensive_hour_end_checkpoints_and_stops() {
        let mut fx = ctx_fixture();
        let spike = PriceSeries::new(SimTime::ZERO, vec![m(1_500); 480]);
        let flat = PriceSeries::new(SimTime::ZERO, vec![m(270); 480]);
        fx.traces = TraceSet::new(vec![spike, flat.clone(), flat]);
        let mut p = LargeBidPolicy::new(m(810));
        let boundary = SimTime::from_secs(3_600);

        // Early in the hour: no checkpoint yet.
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_secs(1_000), Some(boundary))));
        // Inside the final t_c of the hour with S > L: checkpoint.
        assert!(p.checkpoint_now(&fx.ctx(SimTime::from_secs(3_350), Some(boundary))));
        // At the boundary with S > L: manual stop.
        assert!(p.voluntary_stop(&fx.ctx(boundary, Some(boundary)), 0));
        // Resume only below L.
        assert_eq!(p.resume_threshold(), Some(m(810)));
    }

    #[test]
    fn naive_variant_never_interferes() {
        let mut fx = ctx_fixture();
        let spike = PriceSeries::new(SimTime::ZERO, vec![m(19_000); 480]);
        let flat = PriceSeries::new(SimTime::ZERO, vec![m(270); 480]);
        fx.traces = TraceSet::new(vec![spike, flat.clone(), flat]);
        let mut p = LargeBidPolicy::naive();
        let boundary = SimTime::from_secs(3_600);
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_secs(3_400), Some(boundary))));
        assert!(!p.voluntary_stop(&fx.ctx(boundary, Some(boundary)), 0));
    }

    #[test]
    fn alarm_points_at_hour_end_checkpoint_slot() {
        let fx = ctx_fixture();
        let mut p = LargeBidPolicy::new(m(810));
        let boundary = SimTime::from_secs(7_200);
        let ctx = fx.ctx(SimTime::from_secs(4_000), Some(boundary));
        assert_eq!(p.alarm(&ctx, NO_HORIZON), Some(SimTime::from_secs(6_900)));
        assert_eq!(
            p.alarm(
                &fx.ctx(SimTime::from_secs(7_000), Some(boundary)),
                NO_HORIZON
            ),
            None
        );
    }
}
