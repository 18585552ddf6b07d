//! Checkpoint-scheduling policies (Section 4).
//!
//! Algorithm 1 is parameterized by two functions — `CheckpointCondition()`
//! and `ScheduleNextCheckpoint()`. The [`Policy`] trait generalizes that
//! pair, with two additional hooks the Large-bid baseline needs (a resume
//! threshold distinct from the bid, and voluntary hour-boundary stops).

use redspot_ckpt::CkptCosts;
use redspot_markov::UptimeMemo;
use redspot_trace::{Price, SimTime, TraceSet, ZoneId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub mod edge;
pub mod large_bid;
pub mod markov_daly;
pub mod periodic;
pub mod randomized_bid;
pub mod spot_on;
pub mod threshold;

pub use edge::EdgePolicy;
pub use large_bid::LargeBidPolicy;
pub use markov_daly::MarkovDalyPolicy;
pub use periodic::PeriodicPolicy;
pub use randomized_bid::RandomizedBidPolicy;
pub use spot_on::SpotOnPolicy;
pub use threshold::ThresholdPolicy;

/// Everything a policy may inspect at a decision point.
pub struct PolicyCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Experiment start (history before this is bootstrap data).
    pub start: SimTime,
    /// Current bid `B`.
    pub bid: Price,
    /// Checkpoint/restart costs.
    pub costs: CkptCosts,
    /// Full price traces (policies may look at history up to `now`; the
    /// engine never evaluates them on future prices).
    pub traces: &'a TraceSet,
    /// Zones configured for this experiment.
    pub zone_ids: &'a [ZoneId],
    /// Which configured zones are currently executing (parallel to
    /// `zone_ids`).
    pub up: &'a [bool],
    /// The leading (furthest-progress) executing zone's next billing-hour
    /// boundary, if any zone is executing.
    pub leader_boundary: Option<SimTime>,
    /// The leading executing zone's index into `zone_ids`, if any.
    pub leader: Option<usize>,
    /// Last instant a checkpoint committed or a restart completed — the
    /// Threshold policy's "execution time at B" reference point.
    pub last_commit_or_restart: SimTime,
}

impl PolicyCtx<'_> {
    /// Spot price of configured zone `idx` right now.
    pub fn price(&self, idx: usize) -> Price {
        self.traces.price_at(self.zone_ids[idx], self.now)
    }

    /// Whether configured zone `idx` shows a rising price edge right now.
    pub fn rising_edge(&self, idx: usize) -> bool {
        self.traces
            .zone(self.zone_ids[idx])
            .is_rising_edge(self.now)
    }
}

/// A checkpoint-scheduling policy plugged into Algorithm 1.
pub trait Policy: Send {
    /// Short display name (used in reports).
    fn name(&self) -> &'static str;

    /// `CheckpointCondition()`: should a checkpoint start now? Consulted
    /// at every decision point while a zone is executing and no checkpoint
    /// is in flight.
    fn checkpoint_now(&mut self, ctx: &PolicyCtx) -> bool;

    /// `ScheduleNextCheckpoint()`: called at run start, after every
    /// committed checkpoint, and after restarts, so time-based policies
    /// can (re)schedule their next checkpoint.
    fn reschedule(&mut self, _ctx: &PolicyCtx) {}

    /// The next instant this policy wants to be woken at (its scheduled
    /// checkpoint time `T_s`, a threshold expiry, …). The engine folds
    /// this into its event horizon. `before` is that horizon without the
    /// alarm: the engine ignores any alarm at or after it, so a policy may
    /// return `None` instead of working out an alarm that late.
    fn alarm(&mut self, _ctx: &PolicyCtx, _before: SimTime) -> Option<SimTime> {
        None
    }

    /// Price at or below which a down zone should be re-requested.
    /// `None` means the bid itself (every policy except Large-bid, whose
    /// user threshold `L` is far below its astronomically large `B`).
    fn resume_threshold(&self) -> Option<Price> {
        None
    }

    /// Whether configured zone `idx` should be voluntarily stopped at the
    /// hour boundary occurring now (Large-bid's cost-control stop).
    fn voluntary_stop(&mut self, _ctx: &PolicyCtx, _idx: usize) -> bool {
        false
    }

    /// The provider announced it will reclaim configured zone `idx` at
    /// `terminate_at` (modern era's 2-minute interruption notice). The
    /// engine already drains the zone — it checkpoints the leader inside
    /// the notice window when it can — so the default is a no-op; policies
    /// override this to adjust their own schedules (pull an alarm
    /// forward, mark a zone unattractive, …). Never called in the
    /// classic era.
    fn interruption_notice(&mut self, _ctx: &PolicyCtx, _idx: usize, _terminate_at: SimTime) {}

    /// Attach a batch-shared Markov memoization table (owned by the batch
    /// plane's `MarketCtx`, scoped to one trace set). Policies that
    /// estimate uptimes route their model builds and queries through it;
    /// everything else ignores it. Attaching never changes decisions —
    /// the memo returns bit-identical values to direct computation.
    fn attach_uptime_memo(&mut self, _memo: &Arc<UptimeMemo>) {}
}

/// Constructible policy identifiers — what the experiment harness sweeps
/// over and the adaptive controller switches between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Checkpoint just before each billing-hour boundary (Section 4.1).
    Periodic,
    /// Markov expected-uptime + Daly interval (Section 4.2).
    MarkovDaly,
    /// Checkpoint on rising price edges (Section 4.3).
    RisingEdge,
    /// Edge + price/time thresholds (Section 4.4).
    Threshold,
    /// Large-bid baseline with user cost-control threshold `L`
    /// (Section 7.2.2); the value is `L` in milli-dollars.
    LargeBid(u64),
    /// Optimal randomized bidding (Bhuyan et al.): a fresh acquisition
    /// bid drawn per billing-hour epoch from a `1/b²` distribution over
    /// `[B/3, B]`; the value is the draw seed.
    RandomizedBid(u64),
    /// Spot-on cadence: Young's interval from the observed interruption
    /// rate of the trailing price history.
    SpotOnCadence,
}

impl PolicyKind {
    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Periodic => Box::new(PeriodicPolicy::new()),
            PolicyKind::MarkovDaly => Box::new(MarkovDalyPolicy::new()),
            PolicyKind::RisingEdge => Box::new(EdgePolicy::new()),
            PolicyKind::Threshold => Box::new(ThresholdPolicy::new()),
            PolicyKind::LargeBid(l) => Box::new(LargeBidPolicy::new(Price::from_millis(l))),
            PolicyKind::RandomizedBid(seed) => Box::new(RandomizedBidPolicy::new(seed)),
            PolicyKind::SpotOnCadence => Box::new(SpotOnPolicy::new()),
        }
    }

    /// Display label matching the paper's figure abbreviations.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Periodic => "P",
            PolicyKind::MarkovDaly => "M",
            PolicyKind::RisingEdge => "E",
            PolicyKind::Threshold => "T",
            PolicyKind::LargeBid(_) => "L",
            PolicyKind::RandomizedBid(_) => "B",
            PolicyKind::SpotOnCadence => "S",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Periodic => write!(f, "Periodic"),
            PolicyKind::MarkovDaly => write!(f, "Markov-Daly"),
            PolicyKind::RisingEdge => write!(f, "Rising-Edge"),
            PolicyKind::Threshold => write!(f, "Threshold"),
            PolicyKind::LargeBid(l) => {
                write!(f, "Large-bid(L={})", Price::from_millis(*l))
            }
            PolicyKind::RandomizedBid(seed) => write!(f, "Randomized-bid(s={seed})"),
            PolicyKind::SpotOnCadence => write!(f, "Spot-on"),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::PolicyCtx;
    use redspot_ckpt::CkptCosts;
    use redspot_trace::{Price, PriceSeries, SimTime, TraceSet, ZoneId};

    /// An event horizon past every alarm: [`super::Policy::alarm`] then
    /// reports its alarm whenever it has one.
    pub const NO_HORIZON: SimTime = SimTime::from_secs(u64::MAX);

    /// Owns the borrowed data a [`PolicyCtx`] needs, so policy unit tests
    /// can build contexts without an engine.
    pub struct Fixture {
        pub traces: TraceSet,
        pub zone_ids: Vec<ZoneId>,
        pub up: Vec<bool>,
        pub bid: Price,
        pub costs: CkptCosts,
        pub start: SimTime,
        pub last_commit_or_restart: SimTime,
    }

    impl Fixture {
        pub fn ctx(&self, now: SimTime, leader_boundary: Option<SimTime>) -> PolicyCtx<'_> {
            PolicyCtx {
                now,
                start: self.start,
                bid: self.bid,
                costs: self.costs,
                traces: &self.traces,
                zone_ids: &self.zone_ids,
                up: &self.up,
                leader_boundary,
                leader: self.up.iter().position(|&u| u),
                last_commit_or_restart: self.last_commit_or_restart,
            }
        }
    }

    /// Three zones, flat $0.27 prices for 40 hours, zone 0 executing.
    pub fn ctx_fixture() -> Fixture {
        let samples = vec![Price::from_millis(270); 480];
        let zones = (0..3)
            .map(|_| PriceSeries::new(SimTime::ZERO, samples.clone()))
            .collect();
        Fixture {
            traces: TraceSet::new(zones),
            zone_ids: vec![ZoneId(0), ZoneId(1), ZoneId(2)],
            up: vec![true, false, false],
            bid: Price::from_millis(810),
            costs: CkptCosts::LOW,
            start: SimTime::ZERO,
            last_commit_or_restart: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_matching_policies() {
        assert_eq!(PolicyKind::Periodic.build().name(), "Periodic");
        assert_eq!(PolicyKind::MarkovDaly.build().name(), "Markov-Daly");
        assert_eq!(PolicyKind::RisingEdge.build().name(), "Rising-Edge");
        assert_eq!(PolicyKind::Threshold.build().name(), "Threshold");
        assert_eq!(PolicyKind::LargeBid(270).build().name(), "Large-bid");
        assert_eq!(
            PolicyKind::RandomizedBid(7).build().name(),
            "Randomized-bid"
        );
        assert_eq!(PolicyKind::SpotOnCadence.build().name(), "Spot-on");
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(PolicyKind::Periodic.label(), "P");
        assert_eq!(PolicyKind::MarkovDaly.label(), "M");
        assert_eq!(PolicyKind::RisingEdge.label(), "E");
        assert_eq!(PolicyKind::Threshold.label(), "T");
        assert_eq!(PolicyKind::RandomizedBid(7).label(), "B");
        assert_eq!(PolicyKind::SpotOnCadence.label(), "S");
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(PolicyKind::LargeBid(270).to_string(), "Large-bid(L=$0.27)");
        assert_eq!(PolicyKind::MarkovDaly.to_string(), "Markov-Daly");
        assert_eq!(
            PolicyKind::RandomizedBid(9).to_string(),
            "Randomized-bid(s=9)"
        );
        assert_eq!(PolicyKind::SpotOnCadence.to_string(), "Spot-on");
    }
}
