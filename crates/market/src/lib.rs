//! # redspot-market
//!
//! EC2 market substrate: the billing eras behind [`MarketRules`] (the
//! paper's 2014 hour-boundary rules, with [`SpotBilling`] as their
//! reference meter, and post-2017 per-second billing), the measured spot
//! queuing-delay model, per-zone instance lifecycle states (down /
//! waiting / booting / up), seeded per-zone blackout schedules for fault
//! injection, shared spot capacity pools, and a fallible [`CloudApi`]
//! control plane with deterministic fault injection.

#![warn(missing_docs)]

pub mod api;
pub mod billing;
pub mod capacity;
pub mod delay;
pub mod instance;
pub mod outage;
pub mod rules;

pub use api::{ApiError, ApiFaultPlan, ApiOk, ApiResult, CloudApi, FaultyApi, PerfectApi};
pub use billing::{on_demand_cost, SpotBilling, StopCause};
pub use capacity::{CapacityPool, ContendedApi, PoolStats};
pub use delay::DelayModel;
pub use instance::InstanceState;
pub use outage::{OutageSchedule, OutageWindow};
pub use rules::{Classic2014, Era, MarketRules, Meter, Modern2017};
