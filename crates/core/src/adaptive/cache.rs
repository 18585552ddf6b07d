//! Decision-table memoization across decision points and sweep cells.
//!
//! A decision point's `(remaining compute, remaining time)` inputs only
//! enter the permutation ranking through [`predicted_cost`], which is a
//! handful of float operations per row. Everything expensive — the zone
//! ranking and every permutation's [`Forecast`] — depends solely on the
//! market, the controller's scope (zones, bid grid, N options, policies,
//! costs, bid cap, forecast mode), and the *effective probe grid* of the
//! history window. This module caches exactly that: a [`DecisionTable`]
//! of `(bid, mask, policy, forecast)` rows in choose-iteration order,
//! keyed by scope and canonical window.
//!
//! # Key semantics
//!
//! Forecasts probe the window on the canonical grid returned by
//! `PriceSeries::forecast_grid`: `lo = max(window.start, series.start)`,
//! `n_steps = max(1, ⌊(min(window.end, series.end) − lo) / PRICE_STEP⌋)`,
//! probes at `lo + i·PRICE_STEP`. When the series is sampled at
//! `PRICE_STEP` (every paper trace), the sample index hit by probe `i` is
//! `⌊a/PRICE_STEP⌋ + i` where `a = lo − series.start` — exactly, because
//! `⌊(a + k·s)/s⌋ = ⌊a/s⌋ + k`. Two windows with equal
//! `(⌊a/PRICE_STEP⌋, n_steps)` therefore read the *same samples* and
//! produce bit-identical tables, even though their decision points sit at
//! different offsets inside a 5-minute step. That quantisation is what
//! makes cross-cell hits real: billing-hour decision points land at
//! arbitrary queuing-delay offsets, but their probe grids collapse into
//! shared buckets. For series sampled at any other step the offset
//! argument does not hold, so the key falls back to the raw clamped
//! window start (still correct — equal keys still mean equal probes —
//! just with fewer collisions to exploit).
//!
//! [`predicted_cost`]: super::forecast::predicted_cost

use super::forecast::Forecast;
use crate::policy::PolicyKind;
use redspot_ckpt::CkptCosts;
use redspot_trace::{Price, SimTime, Window, ZoneId, PRICE_STEP};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::ForecastMode;

/// One evaluated permutation: everything `choose` derives for a row
/// before the `(remaining compute, remaining time)`-dependent ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Bid price.
    pub bid: Price,
    /// The row's `(bid, N)` group: its active-zone mask is
    /// [`DecisionTable::mask`] of this id.
    pub group: u32,
    /// Checkpoint policy.
    pub kind: PolicyKind,
    /// Steady-state forecast of the permutation over the window.
    pub forecast: Forecast,
}

/// Every permutation's forecast at one decision point, in exact
/// choose-iteration order (bid, then N, then policy) so replaying the
/// ranking over a cached table is bit-identical to computing it inline.
///
/// All policies of one `(bid, N)` group share a zone mask, so each mask
/// is stored once, in one flat buffer, rather than once per row: a
/// sweep keeps thousands of tables alive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionTable {
    /// The rows, in choose-iteration order.
    pub rows: Vec<TableRow>,
    /// Zone count of every mask.
    n_zones: usize,
    /// The groups' masks, `n_zones` entries each, in group order.
    masks: Vec<bool>,
}

impl DecisionTable {
    /// An empty table over `n_zones` configured zones.
    pub fn new(n_zones: usize) -> DecisionTable {
        DecisionTable {
            n_zones,
            ..DecisionTable::default()
        }
    }

    /// Start a `(bid, N)` group with active-zone `mask`, returning the id
    /// its rows carry.
    pub fn add_group(&mut self, mask: &[bool]) -> u32 {
        assert_eq!(mask.len(), self.n_zones, "mask over the wrong zone count");
        self.masks.extend_from_slice(mask);
        (self.masks.len() / self.n_zones - 1) as u32
    }

    /// Group `group`'s active-zone mask.
    pub fn mask(&self, group: u32) -> &[bool] {
        let lo = group as usize * self.n_zones;
        &self.masks[lo..lo + self.n_zones]
    }
}

/// The window-independent part of a cache key: a full structural copy of
/// everything the table depends on besides the probe grid. Interned to a
/// small id rather than hashed so key collisions are impossible — a
/// fingerprint collision would silently break bit-identity.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeKey {
    /// Experiment zone list (mask order).
    pub zones: Vec<ZoneId>,
    /// Candidate bid grid, in config order.
    pub bid_grid: Vec<Price>,
    /// Candidate redundancy degrees.
    pub n_options: Vec<usize>,
    /// Candidate checkpoint policies.
    pub policy_kinds: Vec<PolicyKind>,
    /// Checkpoint/restart costs.
    pub costs: CkptCosts,
    /// Bid cap.
    pub max_bid: Price,
    /// Permutation evaluation strategy (Naive and Scan are pinned
    /// bit-identical, but they stay in separate scopes so the cache never
    /// substitutes one mode's arithmetic for the other's).
    pub forecast: ForecastMode,
}

/// Full cache key: an interned scope plus the canonical window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableKey {
    /// Interned [`ScopeKey`] id.
    pub scope: u32,
    /// First probe step (see module docs), or [`u64::MAX`] for windows
    /// with no trace overlap (all such windows yield the same table).
    pub first_step: u64,
    /// Probe count; 0 iff `first_step` is the no-overlap sentinel.
    pub n_steps: u64,
}

/// Canonicalise `window` against a series layout into the
/// `(first_step, n_steps)` half of a [`TableKey`]. Mirrors
/// `PriceSeries::forecast_grid` exactly.
pub fn window_key(
    series_start: SimTime,
    series_step: u64,
    series_end: SimTime,
    window: Window,
) -> (u64, u64) {
    let lo = window.start().max(series_start);
    let hi = window.end().min(series_end);
    if hi <= lo {
        return (u64::MAX, 0);
    }
    let n_steps = ((hi.secs() - lo.secs()) / PRICE_STEP).max(1);
    if series_step == PRICE_STEP {
        ((lo.secs() - series_start.secs()) / PRICE_STEP, n_steps)
    } else {
        // Offset-invariance needs sample step == probe step; fall back to
        // the raw clamped start (exact, fewer cross-window hits).
        (lo.secs(), n_steps)
    }
}

/// Per-run hit/miss tally, folded into `RunMetrics` at the end of a run
/// (the cache's own counters are global across every run sharing it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Decision points answered from the cache.
    pub hits: u64,
    /// Decision points that computed (and inserted) a fresh table.
    pub misses: u64,
}

/// A point-in-time snapshot of a [`DecisionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Distinct tables currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const N_SHARDS: usize = 16;

/// Sweep-wide memoization of decision tables, shared across threads.
///
/// Lock-sharded: the scope table is a tiny interning vector behind one
/// mutex (a sweep has a handful of scopes), and tables live in
/// [`N_SHARDS`] independent map shards selected by key mix, so parallel
/// cells rarely contend. Values are `Arc`s — a hit shares the table,
/// never copies it.
#[derive(Debug, Default)]
pub struct DecisionCache {
    scopes: Mutex<Vec<ScopeKey>>,
    shards: [Mutex<HashMap<TableKey, Arc<DecisionTable>>>; N_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecisionCache {
    /// A fresh, empty cache.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    /// Intern `scope`, returning its stable id. Structural equality — two
    /// scopes share an id iff every field matches.
    pub fn scope_id(&self, scope: &ScopeKey) -> u32 {
        let mut scopes = self.scopes.lock().expect("scope table poisoned");
        if let Some(i) = scopes.iter().position(|s| s == scope) {
            return i as u32;
        }
        scopes.push(scope.clone());
        (scopes.len() - 1) as u32
    }

    fn shard(&self, key: TableKey) -> &Mutex<HashMap<TableKey, Arc<DecisionTable>>> {
        let mix = (key.scope as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.first_step.rotate_left(17))
            .wrapping_add(key.n_steps.rotate_left(41));
        &self.shards[(mix % N_SHARDS as u64) as usize]
    }

    /// Look `key` up, counting the hit or miss.
    pub fn lookup(&self, key: TableKey) -> Option<Arc<DecisionTable>> {
        let found = self
            .shard(key)
            .lock()
            .expect("shard poisoned")
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store `table` under `key`, returning the shared handle. If another
    /// thread raced the insert, its table wins (both are bit-identical by
    /// construction, so either handle is correct). Stored tables live as
    /// long as the sweep, so their spare capacity is released first.
    pub fn insert(&self, key: TableKey, mut table: DecisionTable) -> Arc<DecisionTable> {
        table.rows.shrink_to_fit();
        table.masks.shrink_to_fit();
        let mut shard = self.shard(key).lock().expect("shard poisoned");
        Arc::clone(shard.entry(key).or_insert_with(|| Arc::new(table)))
    }

    /// Snapshot the global counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("shard poisoned").len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(max_bid: u64) -> ScopeKey {
        ScopeKey {
            zones: vec![ZoneId(0), ZoneId(1)],
            bid_grid: vec![Price::from_millis(270), Price::from_millis(810)],
            n_options: vec![1, 2],
            policy_kinds: vec![PolicyKind::Periodic],
            costs: CkptCosts::LOW,
            max_bid: Price::from_millis(max_bid),
            forecast: ForecastMode::Scan,
        }
    }

    #[test]
    fn scopes_intern_structurally() {
        let cache = DecisionCache::new();
        let a = cache.scope_id(&scope(810));
        let b = cache.scope_id(&scope(810));
        let c = cache.scope_id(&scope(3_070));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lookup_insert_roundtrip_and_counters() {
        let cache = DecisionCache::new();
        let key = TableKey {
            scope: 0,
            first_step: 12,
            n_steps: 288,
        };
        assert!(cache.lookup(key).is_none());
        let mut table = DecisionTable::new(2);
        let group = table.add_group(&[true, false]);
        table.rows.push(TableRow {
            bid: Price::from_millis(810),
            group,
            kind: PolicyKind::Periodic,
            forecast: Forecast::EMPTY,
        });
        let stored = cache.insert(key, table.clone());
        assert_eq!(*stored, table);
        let hit = cache.lookup(key).expect("inserted");
        assert!(Arc::ptr_eq(&stored, &hit));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn groups_store_one_mask_each() {
        let mut table = DecisionTable::new(3);
        assert_eq!(table.add_group(&[true, false, false]), 0);
        assert_eq!(table.add_group(&[true, false, true]), 1);
        assert_eq!(table.mask(0), [true, false, false]);
        assert_eq!(table.mask(1), [true, false, true]);
    }

    #[test]
    fn window_keys_quantise_on_paper_step_and_not_otherwise() {
        let start = SimTime::from_hours(1);
        let end = SimTime::from_hours(49); // 48 h of samples
        let w =
            |lo_s: u64, hi_s: u64| Window::new(SimTime::from_secs(lo_s), SimTime::from_secs(hi_s));

        // Same 5-minute bucket, different in-step offsets → same key.
        let a = window_key(start, PRICE_STEP, end, w(2 * 3_600 + 17, 26 * 3_600 + 17));
        let b = window_key(start, PRICE_STEP, end, w(2 * 3_600 + 290, 26 * 3_600 + 290));
        assert_eq!(a, b);
        // Different bucket → different key.
        let c = window_key(start, PRICE_STEP, end, w(2 * 3_600 + 300, 26 * 3_600 + 300));
        assert_ne!(a, c);

        // Non-paper sample step: raw starts, so the offset pair split.
        let a2 = window_key(start, 450, end, w(2 * 3_600 + 17, 26 * 3_600 + 17));
        let b2 = window_key(start, 450, end, w(2 * 3_600 + 290, 26 * 3_600 + 290));
        assert_ne!(a2, b2);

        // No overlap → the shared sentinel.
        let s1 = window_key(start, PRICE_STEP, end, w(0, 3_000));
        let s2 = window_key(start, PRICE_STEP, end, w(50 * 3_600, 60 * 3_600));
        assert_eq!(s1, (u64::MAX, 0));
        assert_eq!(s2, (u64::MAX, 0));

        // Clamping mirrors forecast_grid: lo clamps to the series start.
        let clamped = window_key(start, PRICE_STEP, end, w(0, 26 * 3_600));
        assert_eq!(clamped.0, 0);
    }
}
