//! Threshold policy (Section 4.4, after Jung et al.): Rising Edge plus
//! two filters that cut Edge's checkpoint overhead.
//!
//! A checkpoint is taken when either
//! 1. the price shows a rising edge **and** has climbed past
//!    `PriceThresh = (S_min + B) / 2`, or
//! 2. the time executed at bid `B` since the last checkpoint/restart
//!    exceeds `TimeThresh`, the probabilistic average up-time of the zone.
//!
//! The rule only ever *compares* `TimeThresh` with an elapsed time, so
//! the policy holds it as an [`AverageUptime`]: a lower bound refined
//! only as far as each comparison needs, which decides every comparison
//! exactly as the eager average would (see [`redspot_markov::uptime`]).
//! Most are decided within a few propagation steps.

use crate::policy::markov_daly::{HISTORY, MARKOV_BIN_MILLIS};
use crate::policy::{Policy, PolicyCtx};
use redspot_markov::{AverageUptime, MarkovModel, UptimeMemo};
use redspot_trace::{Price, SimDuration, SimTime, Window};
use std::sync::Arc;

/// The shortest `TimeThresh` that arms condition 2 (a zero average
/// up-time means nothing is affordable), and how long after its expiry
/// the alarm fires.
const ONE_SEC: SimDuration = SimDuration::from_secs(1);

/// Edge checkpointing filtered by price and time thresholds.
pub struct ThresholdPolicy {
    /// Running minimum observed price per configured zone.
    min_price: Vec<Price>,
    /// `TimeThresh`: probabilistic average up-time, refreshed at each
    /// reschedule and refined lazily.
    time_thresh: Option<AverageUptime>,
    /// Edge dedup, as in [`crate::policy::EdgePolicy`].
    last_step: Option<u64>,
    /// Batch-shared model/uptime cache ([`Policy::attach_uptime_memo`]).
    memo: Option<Arc<UptimeMemo>>,
}

impl ThresholdPolicy {
    /// Construct the policy.
    pub fn new() -> ThresholdPolicy {
        ThresholdPolicy {
            min_price: Vec::new(),
            time_thresh: None,
            last_step: None,
            memo: None,
        }
    }

    /// Current `TimeThresh`, refined to its exact value; `None` when no
    /// zone is affordable (exposed for tests).
    pub fn time_thresh(&mut self) -> Option<SimDuration> {
        let tt = self.time_thresh.as_mut()?.exact();
        (tt > SimDuration::ZERO).then_some(tt)
    }

    fn observe_prices(&mut self, ctx: &PolicyCtx) {
        if self.min_price.len() != ctx.zone_ids.len() {
            self.min_price = vec![Price::MAX_OBSERVED_SPOT * 100; ctx.zone_ids.len()];
        }
        for i in 0..ctx.zone_ids.len() {
            let p = ctx.price(i);
            if p < self.min_price[i] {
                self.min_price[i] = p;
            }
        }
    }
}

impl Default for ThresholdPolicy {
    fn default() -> ThresholdPolicy {
        ThresholdPolicy::new()
    }
}

impl Policy for ThresholdPolicy {
    fn name(&self) -> &'static str {
        "Threshold"
    }

    fn checkpoint_now(&mut self, ctx: &PolicyCtx) -> bool {
        self.observe_prices(ctx);

        // Condition 2: executed longer than the zone's average up-time,
        // if that is positive.
        if let Some(tt) = &mut self.time_thresh {
            let elapsed = ctx.now.since(ctx.last_commit_or_restart);
            if !tt.at_least(elapsed) && tt.at_least(ONE_SEC) {
                return true;
            }
        }

        // Condition 1: rising edge that has climbed past PriceThresh.
        let step = ctx.now.price_step_index();
        if self.last_step == Some(step) {
            return false;
        }
        let hit = (0..ctx.zone_ids.len()).any(|i| {
            ctx.up[i] && ctx.rising_edge(i) && ctx.price(i) >= self.min_price[i].midpoint(ctx.bid)
        });
        if hit {
            self.last_step = Some(step);
        }
        hit
    }

    fn reschedule(&mut self, ctx: &PolicyCtx) {
        // TimeThresh from the leading zone's Markov model; falls back to
        // the first configured zone when idle.
        let zone = ctx.leader.unwrap_or(0);
        let hist_start = ctx.now.saturating_sub(HISTORY).max(ctx.traces.start());
        if ctx.now <= hist_start {
            self.time_thresh = None;
            return;
        }
        let window = Window::new(hist_start, ctx.now);
        let series = ctx.traces.zone(ctx.zone_ids[zone]);
        let model = match &self.memo {
            Some(memo) => memo.model(ctx.zone_ids[zone].0, series, window, MARKOV_BIN_MILLIS),
            None => Arc::new(MarkovModel::with_bin(series, window, MARKOV_BIN_MILLIS)),
        };
        self.time_thresh = Some(AverageUptime::new(model, ctx.bid));
    }

    fn alarm(&mut self, ctx: &PolicyCtx, before: SimTime) -> Option<SimTime> {
        // The expiry `last + TimeThresh + 1 s` matters only if it falls
        // before `before`, i.e. if TimeThresh < before − last − 1 s:
        // refine that far and no further.
        let tt = self.time_thresh.as_mut()?;
        let horizon = before
            .since(ctx.last_commit_or_restart)
            .checked_sub(ONE_SEC)?;
        if tt.at_least(horizon) {
            return None;
        }
        let tt = tt.exact();
        let t = ctx.last_commit_or_restart + tt + ONE_SEC;
        (tt > SimDuration::ZERO && t > ctx.now).then_some(t)
    }

    fn attach_uptime_memo(&mut self, memo: &Arc<UptimeMemo>) {
        self.memo = Some(Arc::clone(memo));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{ctx_fixture, Fixture, NO_HORIZON};
    use redspot_trace::{PriceSeries, SimTime, TraceSet, ZoneId};

    fn m(v: u64) -> Price {
        Price::from_millis(v)
    }

    #[test]
    fn small_edges_below_price_threshold_are_filtered() {
        let mut fx = ctx_fixture();
        // Rising edge from 270 to 300, bid 810: PriceThresh = (270+810)/2
        // = 540 > 300 → filtered out (this is the saving over plain Edge).
        let z = PriceSeries::new(SimTime::ZERO, vec![m(270), m(300), m(300)]);
        let flat = PriceSeries::new(SimTime::ZERO, vec![m(270); 3]);
        fx.traces = TraceSet::new(vec![z, flat.clone(), flat]);
        let mut p = ThresholdPolicy::new();
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_secs(300), None)));
    }

    #[test]
    fn large_edges_past_threshold_trigger() {
        let mut fx = ctx_fixture();
        // Edge from 270 to 600 ≥ PriceThresh 540 (min starts at 270).
        let z = PriceSeries::new(SimTime::ZERO, vec![m(270), m(600), m(600)]);
        let flat = PriceSeries::new(SimTime::ZERO, vec![m(270); 3]);
        fx.traces = TraceSet::new(vec![z, flat.clone(), flat]);
        let mut p = ThresholdPolicy::new();
        // Observe the first step so min_price is 270.
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_secs(0), None)));
        assert!(p.checkpoint_now(&fx.ctx(SimTime::from_secs(300), None)));
        // Deduped within the step.
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_secs(400), None)));
    }

    #[test]
    fn time_threshold_fires_after_average_uptime() {
        let fx = ctx_fixture(); // flat prices
        let mut p = ThresholdPolicy::new();
        p.reschedule(&fx.ctx(SimTime::from_hours(4), None));
        let tt = p
            .time_thresh()
            .expect("affordable market has an average uptime");
        assert!(tt > SimDuration::ZERO);
        // Before the threshold: quiet; after: fire.
        let before = fx.ctx(SimTime::ZERO + tt, None);
        assert!(!p.checkpoint_now(&before));
        let after = fx.ctx(SimTime::ZERO + tt + SimDuration::from_secs(2), None);
        assert!(p.checkpoint_now(&after));
        // Alarm points just past the expiry.
        let early = fx.ctx(SimTime::ZERO, None);
        assert_eq!(
            p.alarm(&early, NO_HORIZON),
            Some(SimTime::ZERO + tt + SimDuration::from_secs(1))
        );
    }

    #[test]
    fn no_time_threshold_when_unaffordable() {
        let mut fx = ctx_fixture();
        fx.bid = m(100);
        let mut p = ThresholdPolicy::new();
        p.reschedule(&fx.ctx(SimTime::from_hours(4), None));
        assert_eq!(p.time_thresh(), None);
        for before in [SimTime::from_hours(5), NO_HORIZON] {
            assert_eq!(p.alarm(&fx.ctx(SimTime::from_hours(4), None), before), None);
        }
    }

    /// Zone 0 spikes out of bid every hour, so `TimeThresh` is a real
    /// average, not the 30-day cap. The last commit is at hour 4, when the
    /// policy reschedules; no zone is up, so condition 1 stays silent.
    fn spiky() -> Fixture {
        let mut fx = ctx_fixture();
        let z: Vec<Price> = (0..480)
            .map(|i| {
                m(match i % 12 {
                    5 => 900,
                    6 | 7 => 310,
                    _ => 270,
                })
            })
            .collect();
        let flat = fx.traces.zone(ZoneId(1)).clone();
        fx.traces = TraceSet::new(vec![PriceSeries::new(SimTime::ZERO, z), flat.clone(), flat]);
        fx.up = vec![false; 3];
        fx.last_commit_or_restart = SimTime::from_hours(4);
        fx
    }

    /// The eager `TimeThresh` of the policy rescheduled at hour 4.
    fn eager_time_thresh(fx: &Fixture) -> SimDuration {
        let window = Window::new(SimTime::ZERO, SimTime::from_hours(4));
        MarkovModel::with_bin(fx.traces.zone(ZoneId(0)), window, MARKOV_BIN_MILLIS)
            .average_uptime(fx.bid)
    }

    #[test]
    fn alarm_is_the_eager_alarm_whenever_it_beats_the_horizon() {
        let fx = spiky();
        let last = fx.last_commit_or_restart;
        let tt = eager_time_thresh(&fx);
        assert!(
            tt > SimDuration::ZERO && tt < SimDuration::from_hours(24),
            "{tt}"
        );
        let expiry = last + tt + ONE_SEC;
        let secs = |t: SimTime, d: i64| SimTime::from_secs(t.secs().saturating_add_signed(d));
        // One long-lived policy sees every query in turn; a fresh one per
        // query starts from an unrefined bound.
        let mut shared = ThresholdPolicy::new();
        shared.reschedule(&fx.ctx(last, None));
        for now in [
            last,
            secs(expiry, -2),
            secs(expiry, -1),
            expiry,
            secs(expiry, 1),
        ] {
            let eager = Some(expiry).filter(|&t| t > now);
            for before in [
                last,
                secs(last, 1),
                secs(last, 2),
                secs(last, 300),
                secs(expiry, -1),
                expiry,
                secs(expiry, 1),
                secs(expiry, 2),
                NO_HORIZON,
            ] {
                let want = eager.filter(|&t| t < before);
                let mut fresh = ThresholdPolicy::new();
                fresh.reschedule(&fx.ctx(last, None));
                assert_eq!(
                    fresh.alarm(&fx.ctx(now, None), before),
                    want,
                    "{now} {before}"
                );
                assert_eq!(
                    shared.alarm(&fx.ctx(now, None), before),
                    want,
                    "{now} {before}"
                );
            }
        }
    }

    #[test]
    fn condition_two_fires_at_the_eager_instants() {
        let fx = spiky();
        let last = fx.last_commit_or_restart;
        let tt = eager_time_thresh(&fx);
        let mut shared = ThresholdPolicy::new();
        shared.reschedule(&fx.ctx(last, None));
        let probe = |p: &mut ThresholdPolicy, elapsed: u64| {
            p.checkpoint_now(&fx.ctx(last + SimDuration::from_secs(elapsed), None))
        };
        let t = tt.secs();
        for elapsed in [0, 1, 300, t / 2, t - 1, t, t + 1, t + 2, t + 3_600, t / 3] {
            let want = elapsed > t;
            let mut fresh = ThresholdPolicy::new();
            fresh.reschedule(&fx.ctx(last, None));
            assert_eq!(probe(&mut fresh, elapsed), want, "elapsed {elapsed}");
            assert_eq!(probe(&mut shared, elapsed), want, "elapsed {elapsed}");
        }
    }
}
