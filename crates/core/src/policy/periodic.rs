//! Periodic policy (Section 4.1): checkpoint at hour boundaries.
//!
//! `ScheduleNextCheckpoint()` places each checkpoint so it *completes*
//! exactly at the end of the current billing hour (`T_s = hour − t_c`):
//! the hour is paid for in full either way, so the checkpoint consumes
//! otherwise-committed budget and every paid hour ends committed.

use crate::policy::{Policy, PolicyCtx};
use redspot_trace::SimTime;

/// Hour-boundary checkpointing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeriodicPolicy;

impl PeriodicPolicy {
    /// Construct the policy.
    pub fn new() -> PeriodicPolicy {
        PeriodicPolicy
    }

    fn trigger_time(ctx: &PolicyCtx) -> Option<SimTime> {
        let boundary = ctx.leader_boundary?;
        let t = boundary.saturating_sub(ctx.costs.checkpoint);
        // A checkpoint longer than the remaining hour still starts now;
        // it will straddle the boundary rather than be skipped.
        Some(t.max(ctx.now))
    }
}

impl Policy for PeriodicPolicy {
    fn name(&self) -> &'static str {
        "Periodic"
    }

    fn checkpoint_now(&mut self, ctx: &PolicyCtx) -> bool {
        match PeriodicPolicy::trigger_time(ctx) {
            // Only trigger inside the window [boundary - tc, boundary); at
            // the boundary itself the engine has already advanced
            // `leader_boundary` to the next hour.
            Some(t) => ctx.now >= t,
            None => false,
        }
    }

    fn alarm(&mut self, ctx: &PolicyCtx, _before: SimTime) -> Option<SimTime> {
        PeriodicPolicy::trigger_time(ctx).filter(|&t| t > ctx.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{ctx_fixture, NO_HORIZON};
    use redspot_trace::{SimDuration, SimTime};

    #[test]
    fn triggers_one_checkpoint_cost_before_boundary() {
        let fx = ctx_fixture();
        let boundary = SimTime::from_secs(7_200);
        let mut p = PeriodicPolicy::new();

        let ctx = fx.ctx(SimTime::from_secs(3_600), Some(boundary));
        assert!(!p.checkpoint_now(&ctx));
        assert_eq!(p.alarm(&ctx, NO_HORIZON), Some(SimTime::from_secs(6_900)));

        let ctx = fx.ctx(SimTime::from_secs(6_900), Some(boundary));
        assert!(p.checkpoint_now(&ctx));
        assert_eq!(p.alarm(&ctx, NO_HORIZON), None); // due now, no future alarm
    }

    #[test]
    fn idle_system_never_triggers() {
        let fx = ctx_fixture();
        let mut p = PeriodicPolicy::new();
        let ctx = fx.ctx(SimTime::from_secs(6_900), None);
        assert!(!p.checkpoint_now(&ctx));
        assert_eq!(p.alarm(&ctx, NO_HORIZON), None);
    }

    #[test]
    fn oversized_checkpoint_starts_immediately() {
        let mut fx = ctx_fixture();
        fx.costs = redspot_ckpt::CkptCosts::symmetric_secs(4_000); // > 1 hour
        let mut p = PeriodicPolicy::new();
        let ctx = fx.ctx(SimTime::from_secs(3_700), Some(SimTime::from_secs(7_200)));
        assert!(p.checkpoint_now(&ctx));
        let _ = SimDuration::ZERO;
    }
}
