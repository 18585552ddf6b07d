//! Markov-Daly policy (Section 4.2, Appendix B).
//!
//! `ScheduleNextCheckpoint()` estimates the expected up-time `E[T_u]` of
//! the executing configuration from each zone's recent price history
//! (a Markov chain over price states with out-of-bid states absorbing),
//! sums it across zones (redundant zones have near-independent prices, so
//! the combined expected up-time is the sum), and feeds it into Daly's
//! optimum checkpoint interval.

use crate::policy::{Policy, PolicyCtx};
use redspot_ckpt::{optimum_interval, DalyOrder};
use redspot_markov::{MarkovModel, UptimeMemo};
use redspot_trace::{SimDuration, SimTime, Window};
use std::sync::Arc;

/// Price history used to build the Markov state (the paper uses 2 days).
pub const HISTORY: SimDuration = SimDuration::from_hours(48);

/// Quantization bin for Markov price states, milli-dollars. Five cents
/// keeps the state count small enough for sweep-scale simulation while
/// preserving the dynamics (real CC2 prices moved on an even coarser
/// effective grid).
pub const MARKOV_BIN_MILLIS: u64 = 50;

/// Markov expected-uptime + Daly-interval checkpoint scheduling.
pub struct MarkovDalyPolicy {
    /// Scheduled checkpoint time `T_s`.
    ts: Option<SimTime>,
    /// Which Daly estimate to use (higher-order by default; `redspot
    /// ablate daly` compares).
    order: DalyOrder,
    /// Cached per-zone models plus the 5-minute step they were built at
    /// (unused when a shared memo is attached — the memo holds the models).
    models: Vec<MarkovModel>,
    built_at_step: Option<u64>,
    /// History window the current models were built from. Reused for the
    /// rest of the price step, exactly like the models themselves, so the
    /// memoized path sees the same (possibly intra-step-stale) window the
    /// unmemoized path would.
    window: Option<Window>,
    /// Batch-shared model/uptime cache ([`Policy::attach_uptime_memo`]).
    memo: Option<Arc<UptimeMemo>>,
}

impl MarkovDalyPolicy {
    /// Construct with Daly's higher-order estimate.
    pub fn new() -> MarkovDalyPolicy {
        MarkovDalyPolicy::with_order(DalyOrder::HigherOrder)
    }

    /// Construct with an explicit Daly variant.
    pub fn with_order(order: DalyOrder) -> MarkovDalyPolicy {
        MarkovDalyPolicy {
            ts: None,
            order,
            models: Vec::new(),
            built_at_step: None,
            window: None,
            memo: None,
        }
    }

    /// The scheduled checkpoint time, if any (exposed for tests).
    pub fn scheduled(&self) -> Option<SimTime> {
        self.ts
    }

    /// The 48-hour history window ending at `ctx.now` (degenerate
    /// one-step window at the very start of a trace).
    pub(crate) fn history_window(ctx: &PolicyCtx) -> Window {
        let hist_start = ctx.now.saturating_sub(HISTORY).max(ctx.traces.start());
        let hist_end = if ctx.now > hist_start {
            ctx.now
        } else {
            hist_start + SimDuration::from_secs(300)
        };
        Window::new(hist_start, hist_end)
    }

    fn refresh_models(&mut self, ctx: &PolicyCtx) {
        let step = ctx.now.price_step_index();
        let fresh = self.built_at_step == Some(step)
            && self.window.is_some()
            && (self.memo.is_some() || self.models.len() == ctx.zone_ids.len());
        if fresh {
            return;
        }
        let window = Self::history_window(ctx);
        if self.memo.is_none() {
            self.models = ctx
                .zone_ids
                .iter()
                .map(|&z| MarkovModel::with_bin(ctx.traces.zone(z), window, MARKOV_BIN_MILLIS))
                .collect();
        }
        self.window = Some(window);
        self.built_at_step = Some(step);
    }

    /// Combined `E[T_u]` over all configured zones at the current prices.
    pub fn expected_uptime(&mut self, ctx: &PolicyCtx) -> SimDuration {
        self.refresh_models(ctx);
        if let Some(memo) = &self.memo {
            let window = self.window.expect("refresh_models sets the window");
            return ctx
                .zone_ids
                .iter()
                .enumerate()
                .map(|(i, &z)| {
                    memo.expected_uptime(
                        z.0,
                        ctx.traces.zone(z),
                        window,
                        MARKOV_BIN_MILLIS,
                        ctx.price(i),
                        ctx.bid,
                    )
                })
                .fold(SimDuration::ZERO, |a, b| a + b);
        }
        let prices: Vec<_> = (0..ctx.zone_ids.len()).map(|i| ctx.price(i)).collect();
        MarkovModel::combined_uptime(&self.models, &prices, ctx.bid)
    }
}

impl Default for MarkovDalyPolicy {
    fn default() -> MarkovDalyPolicy {
        MarkovDalyPolicy::new()
    }
}

impl Policy for MarkovDalyPolicy {
    fn name(&self) -> &'static str {
        "Markov-Daly"
    }

    fn checkpoint_now(&mut self, ctx: &PolicyCtx) -> bool {
        matches!(self.ts, Some(ts) if ctx.now >= ts)
    }

    fn reschedule(&mut self, ctx: &PolicyCtx) {
        let uptime = self.expected_uptime(ctx);
        if uptime == SimDuration::ZERO {
            // Nothing affordable: nothing to checkpoint either.
            self.ts = None;
            return;
        }
        let interval = optimum_interval(ctx.costs.checkpoint, uptime, self.order);
        self.ts = Some(ctx.now + interval);
    }

    fn alarm(&mut self, ctx: &PolicyCtx, _before: SimTime) -> Option<SimTime> {
        self.ts.filter(|&t| t > ctx.now)
    }

    fn attach_uptime_memo(&mut self, memo: &Arc<UptimeMemo>) {
        self.memo = Some(Arc::clone(memo));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{ctx_fixture, NO_HORIZON};
    use redspot_trace::{Price, PriceSeries, SimTime, TraceSet};

    #[test]
    fn stable_market_schedules_far_checkpoints() {
        let fx = ctx_fixture(); // flat $0.27 everywhere
        let mut p = MarkovDalyPolicy::new();
        let now = SimTime::from_hours(2);
        let ctx = fx.ctx(now, None);
        p.reschedule(&ctx);
        let ts = p
            .scheduled()
            .expect("schedule exists on an affordable market");
        // Flat prices → enormous E[T_u] → multi-hour Daly interval.
        assert!(ts > now + SimDuration::from_hours(2), "ts = {ts}");
        assert!(!p.checkpoint_now(&fx.ctx(now, None)));
        assert!(p.checkpoint_now(&fx.ctx(ts, None)));
        assert_eq!(p.alarm(&fx.ctx(now, None), NO_HORIZON), Some(ts));
    }

    #[test]
    fn volatile_market_schedules_soon() {
        let mut fx = ctx_fixture();
        // Price flips above the bid every other step: short expected uptime.
        let m = |v: u64| Price::from_millis(v);
        let flappy: Vec<_> = (0..480)
            .map(|i| if i % 2 == 0 { m(270) } else { m(2_000) })
            .collect();
        let zones = (0..3)
            .map(|_| PriceSeries::new(SimTime::ZERO, flappy.clone()))
            .collect();
        fx.traces = TraceSet::new(zones);

        let mut stable = MarkovDalyPolicy::new();
        let fx_stable = ctx_fixture();
        let now = SimTime::from_hours(4);
        stable.reschedule(&fx_stable.ctx(now, None));

        let mut volatile = MarkovDalyPolicy::new();
        volatile.reschedule(&fx.ctx(now, None));

        let ts_stable = stable.scheduled().unwrap();
        let ts_volatile = volatile.scheduled().unwrap();
        assert!(
            ts_volatile < ts_stable,
            "volatile {ts_volatile} should checkpoint sooner than stable {ts_stable}"
        );
    }

    #[test]
    fn unaffordable_market_schedules_nothing() {
        let mut fx = ctx_fixture();
        fx.bid = Price::from_millis(100); // below every price
        let mut p = MarkovDalyPolicy::new();
        p.reschedule(&fx.ctx(SimTime::from_hours(2), None));
        assert_eq!(p.scheduled(), None);
        assert!(!p.checkpoint_now(&fx.ctx(SimTime::from_hours(3), None)));
    }

    #[test]
    fn memoized_uptime_is_bit_identical() {
        let fx = ctx_fixture();
        let memo = std::sync::Arc::new(redspot_markov::UptimeMemo::new());
        let mut plain = MarkovDalyPolicy::new();
        let mut shared = MarkovDalyPolicy::new();
        shared.attach_uptime_memo(&memo);
        // Walk decision points at several instants, including two inside
        // one price step (the stale-window reuse path).
        for secs in [7_200u64, 7_230, 7_500, 14_400, 14_401] {
            let ctx = fx.ctx(SimTime::from_secs(secs), None);
            assert_eq!(
                plain.expected_uptime(&ctx),
                shared.expected_uptime(&ctx),
                "diverged at t={secs}s"
            );
        }
        let stats = memo.stats();
        assert!(stats.hits > 0, "repeat decision points should hit");
    }

    #[test]
    fn redundancy_lengthens_the_interval() {
        // Combined E[T_u] over 3 zones > single zone → longer Daly interval.
        let fx3 = ctx_fixture();
        let mut fx1 = ctx_fixture();
        fx1.zone_ids.truncate(1);
        fx1.up.truncate(1);

        let now = SimTime::from_hours(2);
        let mut p3 = MarkovDalyPolicy::new();
        let mut p1 = MarkovDalyPolicy::new();
        let up3 = p3.expected_uptime(&fx3.ctx(now, None));
        let up1 = p1.expected_uptime(&fx1.ctx(now, None));
        assert!(
            up3 > up1,
            "combined uptime {up3} should exceed single {up1}"
        );
    }
}
