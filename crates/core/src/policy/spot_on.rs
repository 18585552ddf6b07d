//! Spot-on cadence policy (interruption-rate-adaptive checkpointing for
//! long-running single-node spot workloads).
//!
//! Fixed-period cadences waste checkpoints on calm markets and lose work
//! on turbulent ones. Spot-on instead *measures* the interruption rate:
//! the trailing price history at the current bid yields the mean
//! affordable spell length (the observed MTBF of the configuration), and
//! the checkpoint interval follows Young's first-order optimum
//! `T = √(2·t_c·MTBF)` — long intervals when interruptions are rare,
//! tight ones when the market churns. Redundant configurations sum their
//! per-zone mean up-spells, mirroring the Markov-Daly combination rule
//! (near-independent zones fail independently, so the fleet's effective
//! MTBF is the sum).
//!
//! Unlike Markov-Daly this needs no price-state model — just the spell
//! walk — which makes it the cheap robust default for single-node jobs.

use crate::policy::{Policy, PolicyCtx};
use redspot_trace::{SimDuration, SimTime};

/// Price history consulted for the interruption-rate estimate.
pub const HISTORY: SimDuration = SimDuration::from_hours(48);

/// Interruption-rate-adaptive checkpoint cadence.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpotOnPolicy {
    /// Scheduled checkpoint time `T_s`.
    ts: Option<SimTime>,
}

impl SpotOnPolicy {
    /// Construct the policy.
    pub fn new() -> SpotOnPolicy {
        SpotOnPolicy { ts: None }
    }

    /// The scheduled checkpoint time, if any (exposed for tests).
    pub fn scheduled(&self) -> Option<SimTime> {
        self.ts
    }

    /// Mean affordable spell length of one zone over the trailing window,
    /// in seconds. Zero when the zone was never affordable.
    fn zone_mean_up_secs(ctx: &PolicyCtx, idx: usize) -> u64 {
        let series = ctx.traces.zone(ctx.zone_ids[idx]);
        let step = series.step().max(1);
        let hist_start = ctx.now.saturating_sub(HISTORY).max(series.start());
        let first = (hist_start.secs().saturating_sub(series.start().secs())) / step;
        let last = (ctx.now.secs().saturating_sub(series.start().secs())) / step;
        let samples = series.samples();
        let last = (last as usize).min(samples.len());
        let first = (first as usize).min(last);

        let mut up_steps = 0u64;
        let mut spells = 0u64;
        let mut in_spell = false;
        for &p in &samples[first..last] {
            if p <= ctx.bid {
                up_steps += 1;
                if !in_spell {
                    spells += 1;
                    in_spell = true;
                }
            } else {
                in_spell = false;
            }
        }
        (up_steps * step).checked_div(spells).unwrap_or(0)
    }

    /// Observed MTBF of the whole configuration: per-zone mean up-spells
    /// summed across zones.
    pub fn observed_mtbf(ctx: &PolicyCtx) -> SimDuration {
        let secs: u64 = (0..ctx.zone_ids.len())
            .map(|i| Self::zone_mean_up_secs(ctx, i))
            .sum();
        SimDuration::from_secs(secs)
    }

    /// Young's first-order optimum `√(2·t_c·MTBF)`, floored at `t_c`
    /// (checkpointing more often than a checkpoint takes is useless) and
    /// capped at a day (beyond that the estimate outruns the history).
    fn young_interval(tc: SimDuration, mtbf: SimDuration) -> SimDuration {
        let t = (2.0 * tc.secs() as f64 * mtbf.secs() as f64).sqrt();
        SimDuration::from_secs((t as u64).clamp(tc.secs().max(1), 24 * 3_600))
    }
}

impl Policy for SpotOnPolicy {
    fn name(&self) -> &'static str {
        "Spot-on"
    }

    fn checkpoint_now(&mut self, ctx: &PolicyCtx) -> bool {
        matches!(self.ts, Some(ts) if ctx.now >= ts)
    }

    fn reschedule(&mut self, ctx: &PolicyCtx) {
        let mtbf = Self::observed_mtbf(ctx);
        if mtbf == SimDuration::ZERO {
            // Never affordable in the window: nothing runs, nothing to
            // checkpoint.
            self.ts = None;
            return;
        }
        self.ts = Some(ctx.now + Self::young_interval(ctx.costs.checkpoint, mtbf));
    }

    fn alarm(&mut self, ctx: &PolicyCtx, _before: SimTime) -> Option<SimTime> {
        self.ts.filter(|&t| t > ctx.now)
    }

    fn interruption_notice(&mut self, ctx: &PolicyCtx, _idx: usize, terminate_at: SimTime) {
        // A reclaim is an interruption observation in itself: tighten the
        // cadence by pulling the next checkpoint to the notice window's
        // edge if it was scheduled beyond it.
        if let Some(ts) = self.ts {
            if ts > terminate_at {
                self.ts = Some(ctx.now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{ctx_fixture, NO_HORIZON};
    use redspot_trace::{Price, PriceSeries, SimTime, TraceSet};

    fn m(v: u64) -> Price {
        Price::from_millis(v)
    }

    #[test]
    fn calm_market_schedules_far_checkpoints() {
        let fx = ctx_fixture(); // flat $0.27, always affordable
        let mut p = SpotOnPolicy::new();
        let now = SimTime::from_hours(24);
        p.reschedule(&fx.ctx(now, None));
        let ts = p.scheduled().expect("affordable market schedules");
        // 3 zones × 24 h mean up-spells → hours-scale Young interval.
        assert!(ts > now + SimDuration::from_hours(2), "ts = {ts}");
        assert!(!p.checkpoint_now(&fx.ctx(now, None)));
        assert!(p.checkpoint_now(&fx.ctx(ts, None)));
        assert_eq!(p.alarm(&fx.ctx(now, None), NO_HORIZON), Some(ts));
    }

    #[test]
    fn churny_market_tightens_the_cadence() {
        let mut fx = ctx_fixture();
        // Price flips above the bid every other step: short spells.
        let flappy: Vec<_> = (0..480)
            .map(|i| if i % 2 == 0 { m(270) } else { m(2_000) })
            .collect();
        fx.traces = TraceSet::new(
            (0..3)
                .map(|_| PriceSeries::new(SimTime::ZERO, flappy.clone()))
                .collect(),
        );
        let now = SimTime::from_hours(24);

        let mut calm = SpotOnPolicy::new();
        calm.reschedule(&ctx_fixture().ctx(now, None));
        let mut churn = SpotOnPolicy::new();
        churn.reschedule(&fx.ctx(now, None));

        let (ts_calm, ts_churn) = (calm.scheduled().unwrap(), churn.scheduled().unwrap());
        assert!(
            ts_churn < ts_calm,
            "churny {ts_churn} should checkpoint sooner than calm {ts_calm}"
        );
    }

    #[test]
    fn unaffordable_market_schedules_nothing() {
        let mut fx = ctx_fixture();
        fx.bid = m(100); // below every price
        let mut p = SpotOnPolicy::new();
        p.reschedule(&fx.ctx(SimTime::from_hours(4), None));
        assert_eq!(p.scheduled(), None);
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_hours(5), None)));
    }

    #[test]
    fn redundancy_lengthens_the_interval() {
        let fx3 = ctx_fixture();
        let mut fx1 = ctx_fixture();
        fx1.zone_ids.truncate(1);
        fx1.up.truncate(1);
        let now = SimTime::from_hours(24);
        let (m3, m1) = (
            SpotOnPolicy::observed_mtbf(&fx3.ctx(now, None)),
            SpotOnPolicy::observed_mtbf(&fx1.ctx(now, None)),
        );
        assert!(m3 > m1, "combined MTBF {m3} should exceed single {m1}");
    }

    #[test]
    fn notice_pulls_the_checkpoint_forward() {
        let fx = ctx_fixture();
        let now = SimTime::from_hours(24);
        let mut p = SpotOnPolicy::new();
        p.reschedule(&fx.ctx(now, None));
        let far = p.scheduled().unwrap();
        let terminate_at = now + SimDuration::from_secs(120);
        assert!(far > terminate_at);
        p.interruption_notice(&fx.ctx(now, None), 0, terminate_at);
        assert_eq!(p.scheduled(), Some(now));
    }

    #[test]
    fn young_interval_is_clamped() {
        let tc = SimDuration::from_secs(300);
        assert_eq!(
            SpotOnPolicy::young_interval(tc, SimDuration::from_secs(1)),
            tc
        );
        assert_eq!(
            SpotOnPolicy::young_interval(tc, SimDuration::from_hours(24 * 365)),
            SimDuration::from_hours(24)
        );
    }
}
