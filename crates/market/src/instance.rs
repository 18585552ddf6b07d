//! Spot-instance lifecycle (per zone).
//!
//! Algorithm 1 distinguishes **down** (out of bid or not requested),
//! **waiting** (affordable but deliberately not launched, so it can
//! receive a checkpoint from a running zone first), and **up**. We add a
//! **booting** state covering the measured spot queuing delay between
//! request submission and the instance being usable.

use redspot_trace::SimTime;
use serde::{Deserialize, Serialize};

/// Lifecycle state of one zone's spot instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InstanceState {
    /// No instance: out of bid, or not requested.
    Down,
    /// Affordable (`S ≤ B`) but intentionally not yet requested
    /// (Algorithm 1 lines 5–6): the zone waits to restart from the next
    /// fresh checkpoint instead of immediately paying restart costs.
    Waiting,
    /// Spot request submitted; the instance becomes usable at `ready_at`
    /// (launch + queuing delay). Billing has already started.
    Booting {
        /// When the instance becomes usable.
        ready_at: SimTime,
    },
    /// Instance running and executing the application replica.
    Up,
}

impl InstanceState {
    /// Whether a spot instance exists (booting or up) — i.e. whether EC2
    /// is billing for this zone.
    pub fn is_billable(self) -> bool {
        matches!(self, InstanceState::Booting { .. } | InstanceState::Up)
    }

    /// Whether the replica is executing.
    pub fn is_up(self) -> bool {
        self == InstanceState::Up
    }

    /// Whether the zone is in the waiting state.
    pub fn is_waiting(self) -> bool {
        self == InstanceState::Waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn billable_states() {
        assert!(!InstanceState::Down.is_billable());
        assert!(!InstanceState::Waiting.is_billable());
        assert!(InstanceState::Booting {
            ready_at: SimTime::ZERO
        }
        .is_billable());
        assert!(InstanceState::Up.is_billable());
    }

    #[test]
    fn predicates() {
        assert!(InstanceState::Up.is_up());
        assert!(!InstanceState::Waiting.is_up());
        assert!(InstanceState::Waiting.is_waiting());
        assert!(!InstanceState::Down.is_waiting());
    }
}
