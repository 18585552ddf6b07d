//! The permutation scan: Adaptive's decision-point forecast engine.
//!
//! At every decision point the controller must "simulate cost and
//! computation for each permutation of B, N, and policy" (Section 7.1).
//! The naive way — one [`estimate`](super::forecast::estimate) walk of the
//! history window per permutation — re-reads every 5-minute sample per
//! zone ~`|bids| × |N| × |policies|` times and ranks zones by allocating a
//! sliced series per `(bid, N, zone)`. This module replaces all of that
//! with **one** pass per decision point:
//!
//! 1. **Threshold sweep.** The bid grid is sorted, and each `(zone, step)`
//!    price is bucketed once into the *smallest affordable bid index*
//!    `k = min{j : price ≤ bid[j]}` (a binary search). A step is then
//!    affordable at bid `j` iff `k ≤ j`, so every bid's affordability mask
//!    falls out of one scan.
//! 2. **Per-bid bitmasks.** For each zone, the buckets are prefix-OR'd
//!    into one bitmap per bid (bit `i` = step `i` affordable). The union
//!    availability of any zone mask is then a bitwise OR of ≤ `|zones|`
//!    small word vectors, and up-steps / up-runs / failures reduce to
//!    popcounts and edge counts on the union words.
//! 3. **Per-zone per-bid spend and availability prefix sums.** Bucket
//!    totals (step count, price-millis sum) are prefix-summed over the bid
//!    grid; a permutation's spend is the sum of its zones' entries and the
//!    zone ranking (`top_zones`) sorts the per-zone counts — no slicing.
//!
//! The scan produces the *same integers* ([`WindowStats`]) the naive walk
//! produces and shares [`forecast_from_stats`] for the float arithmetic,
//! so its forecasts are **bit-identical** to the naive path (pinned by the
//! property suite in `tests/scan_properties.rs`).
//!
//! Successive decision points share most of their history window, so
//! [`advance`](PermutationScan::advance) retires and appends only the
//! delta steps when the new window's grid is compatible (same step phase,
//! overlapping span) and falls back to a full rebuild otherwise. The cold
//! build distributes zones over a crossbeam-scoped worker pool through a
//! shared atomic cursor — the same rayon-free pattern as
//! `redspot-exp::parallel` — and is bit-identical for any thread count
//! because each zone's ledger is computed independently.

use super::forecast::{forecast_from_stats, Forecast, WindowStats};
use crate::policy::PolicyKind;
use redspot_ckpt::CkptCosts;
use redspot_trace::{Price, SimDuration, SimTime, TraceSet, Window, ZoneId, PRICE_STEP};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel bucket for "no bid in the grid affords this step".
const NO_BID: u16 = u16::MAX;

/// Whole-trace bucketing shared across every scan of a sweep.
///
/// Bucketing a price into its smallest affordable bid index is the only
/// per-sample work a scan build does, and it depends only on the trace and
/// the (sorted) bid grid — not on the decision window. A `ScanSeed`
/// buckets every sample of every zone **once per sweep**; scans built
/// [from a seed](PermutationScan::build_seeded) then answer each window
/// probe with an array lookup instead of a price read plus binary search.
///
/// The lookup replicates `PriceSeries::price_at`'s index clamping exactly
/// (probes before the series start hit sample 0, probes past the end hit
/// the last sample), so seeded scans are bit-identical to unseeded ones.
#[derive(Debug)]
pub struct ScanSeed {
    zones: Vec<ZoneId>,
    /// Sorted copy of the bid grid the buckets were computed against.
    bids: Vec<Price>,
    /// Shared sample layout (TraceSet construction asserts alignment).
    start: SimTime,
    step: u64,
    len: usize,
    /// `[zone position][sample]` → (smallest affordable bid index or
    /// [`NO_BID`], price millis).
    buckets: Vec<Vec<(u16, u64)>>,
}

impl ScanSeed {
    /// Bucket every sample of `zones` against `bid_grid` (any order).
    pub fn build(traces: &TraceSet, zones: &[ZoneId], bid_grid: &[Price]) -> ScanSeed {
        assert!(
            bid_grid.len() < NO_BID as usize,
            "bid grid too large for u16 bucketing"
        );
        assert!(!zones.is_empty(), "scan seed needs at least one zone");
        let mut bids = bid_grid.to_vec();
        bids.sort_unstable();
        let first = traces.zone(zones[0]);
        let buckets = zones
            .iter()
            .map(|&z| {
                traces
                    .zone(z)
                    .samples()
                    .iter()
                    .map(|&p| (min_bid_index(&bids, p), p.millis()))
                    .collect()
            })
            .collect();
        ScanSeed {
            zones: zones.to_vec(),
            bids,
            start: first.start(),
            step: first.step(),
            len: first.len(),
            buckets,
        }
    }

    /// The zone list the seed was bucketed for (mask order).
    pub fn zones(&self) -> &[ZoneId] {
        &self.zones
    }

    /// The sorted bid grid the seed was bucketed against.
    pub fn bids(&self) -> &[Price] {
        &self.bids
    }

    /// The bucket covering `t` for the zone at `zone_pos` — same clamping
    /// as `PriceSeries::price_at`.
    fn bucket_at(&self, zone_pos: usize, t: SimTime) -> (u16, u64) {
        let idx = if t <= self.start {
            0
        } else {
            (((t.secs() - self.start.secs()) / self.step) as usize).min(self.len - 1)
        };
        self.buckets[zone_pos][idx]
    }
}

/// One zone's bucketed history window.
#[derive(Debug, Clone, Default)]
struct ZoneLedger {
    /// Per grid step: (smallest affordable bid index or [`NO_BID`],
    /// price in milli-dollars). A deque so window advance can retire from
    /// the front and append at the back.
    steps: VecDeque<(u16, u64)>,
    /// Running totals per bid bucket: how many steps have exactly this
    /// minimum bid index, and the sum of their price millis. Maintained
    /// incrementally on push/pop so advance does not rescan.
    bucket_count: Vec<u64>,
    bucket_spend: Vec<u64>,
}

impl ZoneLedger {
    fn empty(n_bids: usize) -> ZoneLedger {
        ZoneLedger {
            steps: VecDeque::new(),
            bucket_count: vec![0; n_bids],
            bucket_spend: vec![0; n_bids],
        }
    }

    fn push_back(&mut self, min_idx: u16, millis: u64) {
        if min_idx != NO_BID {
            self.bucket_count[min_idx as usize] += 1;
            self.bucket_spend[min_idx as usize] += millis;
        }
        self.steps.push_back((min_idx, millis));
    }

    fn pop_front(&mut self) {
        let (min_idx, millis) = self.steps.pop_front().expect("pop on empty ledger");
        if min_idx != NO_BID {
            self.bucket_count[min_idx as usize] -= 1;
            self.bucket_spend[min_idx as usize] -= millis;
        }
    }

    fn pop_back(&mut self) {
        let (min_idx, millis) = self.steps.pop_back().expect("pop on empty ledger");
        if min_idx != NO_BID {
            self.bucket_count[min_idx as usize] -= 1;
            self.bucket_spend[min_idx as usize] -= millis;
        }
    }
}

/// Shared forecast structures for every `(B, N, policy)` permutation at
/// one decision point. Build once (or [`advance`](Self::advance)), then
/// derive any permutation's [`Forecast`] and zone ranking in microseconds.
#[derive(Debug)]
pub struct PermutationScan {
    /// Sorted copy of the bid grid. Queries map a config-order bid to its
    /// index here by binary search, so callers may iterate their grid in
    /// any order.
    bids: Vec<Price>,
    /// The experiment's zones, in mask order.
    zones: Vec<ZoneId>,
    /// Worker threads for the cold per-zone build (≤ 1 = serial).
    threads: usize,
    /// Grid origin (clamped window start); meaningless when `n_steps == 0`.
    lo: SimTime,
    /// Probe steps on the canonical grid; 0 = empty effective window.
    n_steps: u64,
    /// Whether `n_steps` came from the sub-step `max(1)` floor; such grids
    /// never advance incrementally.
    floored: bool,
    ledgers: Vec<ZoneLedger>,
    /// `u64` words per bitmap.
    words: usize,
    /// `[zone][bid][word]` cumulative affordability bitmaps: bit `i` set
    /// iff step `i` is affordable at `bids[bid]`.
    masks: Vec<Vec<Vec<u64>>>,
    /// `[zone][bid]` affordable-step counts (prefix sums of the buckets).
    avail: Vec<Vec<u64>>,
    /// `[zone][bid]` affordable spend in price millis.
    spend: Vec<Vec<u64>>,
    /// Pre-bucketed whole-trace samples (sweep-shared); probes become
    /// array lookups when present.
    seed: Option<Arc<ScanSeed>>,
}

/// The bucket for zone `zone_pos`/`zone` at `t`: an array lookup when a
/// seed is attached, otherwise a price read plus binary search.
fn probe(
    traces: &TraceSet,
    seed: Option<&ScanSeed>,
    zone_pos: usize,
    zone: ZoneId,
    bids: &[Price],
    t: SimTime,
) -> (u16, u64) {
    match seed {
        Some(s) => s.bucket_at(zone_pos, t),
        None => {
            let price = traces.price_at(zone, t);
            (min_bid_index(bids, price), price.millis())
        }
    }
}

/// Bucket one zone's prices over the grid. This is the only part of the
/// scan that touches the trace, and the unit of build parallelism.
fn build_ledger(
    traces: &TraceSet,
    seed: Option<&ScanSeed>,
    zone_pos: usize,
    zone: ZoneId,
    lo: SimTime,
    n_steps: u64,
    bids: &[Price],
) -> ZoneLedger {
    let mut ledger = ZoneLedger::empty(bids.len());
    for i in 0..n_steps {
        let t = SimTime::from_secs(lo.secs() + i * PRICE_STEP);
        let (k, millis) = probe(traces, seed, zone_pos, zone, bids, t);
        ledger.push_back(k, millis);
    }
    ledger
}

/// Smallest index whose bid affords `price`, or [`NO_BID`].
fn min_bid_index(bids: &[Price], price: Price) -> u16 {
    let k = bids.partition_point(|&b| b < price);
    if k == bids.len() {
        NO_BID
    } else {
        k as u16
    }
}

impl PermutationScan {
    /// Build the scan for `window`. `zones` is the experiment's zone list
    /// (mask order); `bid_grid` may be in any order. `threads > 1` fans
    /// the per-zone bucketing out over scoped workers.
    pub fn build(
        traces: &TraceSet,
        zones: &[ZoneId],
        bid_grid: &[Price],
        window: Window,
        threads: usize,
    ) -> PermutationScan {
        assert!(
            bid_grid.len() < NO_BID as usize,
            "bid grid too large for u16 bucketing"
        );
        let mut bids = bid_grid.to_vec();
        bids.sort_unstable();
        let mut scan = PermutationScan {
            bids,
            zones: zones.to_vec(),
            threads,
            lo: SimTime::ZERO,
            n_steps: 0,
            floored: false,
            ledgers: Vec::new(),
            words: 0,
            masks: Vec::new(),
            avail: Vec::new(),
            spend: Vec::new(),
            seed: None,
        };
        scan.rebuild(traces, window);
        scan
    }

    /// [`build`](Self::build) from a sweep-shared [`ScanSeed`]: zones and
    /// bid grid come from the seed, and every probe (cold build *and*
    /// incremental advance) is an array lookup instead of a price read.
    /// Bit-identical to an unseeded build of the same window.
    pub fn build_seeded(
        traces: &TraceSet,
        seed: Arc<ScanSeed>,
        window: Window,
        threads: usize,
    ) -> PermutationScan {
        let mut scan = PermutationScan {
            bids: seed.bids.clone(),
            zones: seed.zones.clone(),
            threads,
            lo: SimTime::ZERO,
            n_steps: 0,
            floored: false,
            ledgers: Vec::new(),
            words: 0,
            masks: Vec::new(),
            avail: Vec::new(),
            spend: Vec::new(),
            seed: Some(seed),
        };
        scan.rebuild(traces, window);
        scan
    }

    /// Steps on the current grid (0 = empty effective window).
    pub fn n_steps(&self) -> u64 {
        self.n_steps
    }

    /// Move the scan to a new (typically later) history window. When the
    /// new grid shares the old grid's step phase and overlaps it, only the
    /// delta steps are retired/appended; otherwise the window is rebuilt
    /// from scratch. Either way the result is identical to a cold
    /// [`build`](Self::build) of the new window.
    pub fn advance(&mut self, traces: &TraceSet, window: Window) {
        let grid = traces.zone(self.zones[0]).forecast_grid(window);
        let Some((new_lo, new_n)) = grid else {
            self.ledgers = self
                .zones
                .iter()
                .map(|_| ZoneLedger::empty(self.bids.len()))
                .collect();
            self.n_steps = 0;
            self.floored = false;
            self.rebuild_derived();
            return;
        };
        let new_floored =
            window.end().min(traces.end()).since(new_lo) < SimDuration::from_secs(PRICE_STEP);
        let compatible = self.n_steps > 0
            && !self.floored
            && !new_floored
            && new_lo >= self.lo
            && (new_lo.secs() - self.lo.secs()).is_multiple_of(PRICE_STEP)
            && (new_lo.secs() - self.lo.secs()) / PRICE_STEP < self.n_steps;
        if !compatible {
            self.rebuild(traces, window);
            return;
        }

        let retired = (new_lo.secs() - self.lo.secs()) / PRICE_STEP;
        let kept = self.n_steps - retired;
        for ledger in &mut self.ledgers {
            for _ in 0..retired {
                ledger.pop_front();
            }
            // The clamped end can move backwards relative to the new
            // origin once the window starts running off the trace end.
            for _ in new_n..kept {
                ledger.pop_back();
            }
        }
        if new_n > kept {
            let seed = self.seed.as_deref();
            for (z, (ledger, &zone)) in self.ledgers.iter_mut().zip(&self.zones).enumerate() {
                for i in kept..new_n {
                    let t = SimTime::from_secs(new_lo.secs() + i * PRICE_STEP);
                    let (k, millis) = probe(traces, seed, z, zone, &self.bids, t);
                    ledger.push_back(k, millis);
                }
            }
        }
        self.lo = new_lo;
        self.n_steps = new_n;
        self.floored = new_floored;
        self.rebuild_derived();
    }

    /// Recompute every ledger for `window` from scratch.
    fn rebuild(&mut self, traces: &TraceSet, window: Window) {
        match traces.zone(self.zones[0]).forecast_grid(window) {
            None => {
                self.lo = SimTime::ZERO;
                self.n_steps = 0;
                self.floored = false;
                self.ledgers = self
                    .zones
                    .iter()
                    .map(|_| ZoneLedger::empty(self.bids.len()))
                    .collect();
            }
            Some((lo, n_steps)) => {
                self.lo = lo;
                self.n_steps = n_steps;
                self.floored =
                    window.end().min(traces.end()).since(lo) < SimDuration::from_secs(PRICE_STEP);
                let seed = self.seed.as_deref();
                self.ledgers = if self.threads > 1 && self.zones.len() > 1 {
                    build_ledgers_parallel(
                        traces,
                        seed,
                        &self.zones,
                        lo,
                        n_steps,
                        &self.bids,
                        self.threads,
                    )
                } else {
                    self.zones
                        .iter()
                        .enumerate()
                        .map(|(i, &z)| build_ledger(traces, seed, i, z, lo, n_steps, &self.bids))
                        .collect()
                };
            }
        }
        self.rebuild_derived();
    }

    /// Derive the per-bid bitmaps and prefix sums from the ledgers. Pure
    /// word/integer work — no trace reads — so it stays cheap relative to
    /// the bucketing even though it runs after every advance.
    fn rebuild_derived(&mut self) {
        let n_bids = self.bids.len();
        let words = (self.n_steps as usize).div_ceil(64);
        self.words = words;
        self.masks.clear();
        self.avail.clear();
        self.spend.clear();
        for ledger in &self.ledgers {
            let mut masks = vec![vec![0u64; words]; n_bids];
            for (i, &(k, _)) in ledger.steps.iter().enumerate() {
                if k != NO_BID {
                    masks[k as usize][i / 64] |= 1u64 << (i % 64);
                }
            }
            // Prefix-OR: affordable at bid j ⊇ affordable at bid j-1.
            let mut acc = vec![0u64; words];
            for mask in masks.iter_mut() {
                for (a, m) in acc.iter_mut().zip(mask.iter()) {
                    *a |= *m;
                }
                mask.copy_from_slice(&acc);
            }
            let mut avail = Vec::with_capacity(n_bids);
            let mut spend = Vec::with_capacity(n_bids);
            let (mut count_acc, mut spend_acc) = (0u64, 0u64);
            for k in 0..n_bids {
                count_acc += ledger.bucket_count[k];
                spend_acc += ledger.bucket_spend[k];
                avail.push(count_acc);
                spend.push(spend_acc);
            }
            self.masks.push(masks);
            self.avail.push(avail);
            self.spend.push(spend);
        }
    }

    /// Index of `bid` in the sorted grid.
    ///
    /// # Panics
    /// Panics (debug) if `bid` was not part of the grid the scan was built
    /// with.
    pub fn bid_index(&self, bid: Price) -> usize {
        let j = self.bids.partition_point(|&b| b < bid);
        debug_assert!(
            j < self.bids.len() && self.bids[j] == bid,
            "bid {bid} not in the scan's grid"
        );
        j
    }

    /// Rank zones by availability at `bids[bid_idx]` over the window and
    /// keep the top `n` (stable on ties by preferring lower zone index) —
    /// the scan-side equivalent of `AdaptiveRunner::top_zones`, identical
    /// because equal integer counts divide to equal fractions.
    pub fn top_zones(&self, bid_idx: usize, n: usize) -> Vec<bool> {
        debug_assert!(n >= 1, "top_zones needs n >= 1");
        let mut scored: Vec<(usize, u64)> = (0..self.zones.len())
            .map(|z| (z, self.avail[z][bid_idx]))
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut mask = vec![false; self.zones.len()];
        for &(z, _) in scored.iter().take(n) {
            mask[z] = true;
        }
        mask
    }

    /// Integer window statistics of the union of the masked zones at
    /// `bids[bid_idx]` — the same numbers the naive walk produces.
    pub fn stats(&self, bid_idx: usize, mask: &[bool]) -> WindowStats {
        debug_assert_eq!(mask.len(), self.zones.len());
        if self.n_steps == 0 {
            return WindowStats::default();
        }
        let mut union = vec![0u64; self.words];
        let mut spend_millis = 0u64;
        for (z, &on) in mask.iter().enumerate() {
            if !on {
                continue;
            }
            for (u, &w) in union.iter_mut().zip(&self.masks[z][bid_idx]) {
                *u |= w;
            }
            spend_millis += self.spend[z][bid_idx];
        }

        let mut up_steps = 0u64;
        let mut n_runs = 0u64;
        let mut carry = 0u64; // previous word's top bit, as bit 0
        for &w in &union {
            up_steps += u64::from(w.count_ones());
            // A rise at bit i: set here, clear at i-1 (carry feeds bit 0).
            n_runs += u64::from((w & !((w << 1) | carry)).count_ones());
            carry = w >> 63;
        }
        let last = (self.n_steps - 1) as usize;
        let last_up = (union[last / 64] >> (last % 64)) & 1;
        // Every run ends either in an up→down edge (a failure) or at the
        // window edge (not a failure).
        let failures = n_runs - last_up;
        WindowStats {
            n_steps: self.n_steps,
            up_steps,
            n_runs,
            failures,
            spend_millis,
        }
    }

    /// Forecast one permutation from the shared structures.
    pub fn forecast(
        &self,
        bid_idx: usize,
        mask: &[bool],
        costs: CkptCosts,
        kind: PolicyKind,
    ) -> Forecast {
        forecast_from_stats(self.stats(bid_idx, mask), costs, kind)
    }
}

/// Fan the per-zone bucketing out over scoped workers pulling zone indices
/// from a shared cursor (the `redspot-exp::parallel` pattern). Each zone's
/// ledger is computed independently, so results are bit-identical to the
/// serial build for any thread count.
fn build_ledgers_parallel(
    traces: &TraceSet,
    seed: Option<&ScanSeed>,
    zones: &[ZoneId],
    lo: SimTime,
    n_steps: u64,
    bids: &[Price],
    threads: usize,
) -> Vec<ZoneLedger> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ZoneLedger>>> = zones.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(zones.len()) {
            scope.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= zones.len() {
                    break;
                }
                let ledger = build_ledger(traces, seed, i, zones[i], lo, n_steps, bids);
                *slots[i].lock().expect("slot poisoned") = Some(ledger);
            });
        }
    })
    .expect("scan worker panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::forecast::window_stats;
    use redspot_trace::PriceSeries;

    fn m(v: u64) -> Price {
        Price::from_millis(v)
    }

    fn zig3(hours: u64) -> TraceSet {
        // Three zones with phase-shifted square waves so unions matter.
        let n = (hours * 12) as usize;
        let series = |phase: usize| {
            PriceSeries::new(
                SimTime::ZERO,
                (0..n)
                    .map(|i| {
                        if (i + phase) % 4 < 2 {
                            m(270)
                        } else {
                            m(2_000)
                        }
                    })
                    .collect(),
            )
        };
        TraceSet::new(vec![series(0), series(1), series(2)])
    }

    fn grid() -> Vec<Price> {
        vec![m(270), m(810), m(1_500), m(3_070)]
    }

    fn all_zones(t: &TraceSet) -> Vec<ZoneId> {
        t.zone_ids().collect()
    }

    #[test]
    fn scan_stats_match_naive_walk() {
        let t = zig3(48);
        let w = Window::new(SimTime::from_hours(3), SimTime::from_hours(27));
        let scan = PermutationScan::build(&t, &all_zones(&t), &grid(), w, 1);
        for (j, &bid) in grid().iter().enumerate() {
            for mask in [
                vec![true, false, false],
                vec![false, true, true],
                vec![true, true, true],
            ] {
                let zones: Vec<ZoneId> = t
                    .zone_ids()
                    .zip(&mask)
                    .filter_map(|(z, &on)| on.then_some(z))
                    .collect();
                assert_eq!(
                    scan.stats(j, &mask),
                    window_stats(&t, &zones, w, bid),
                    "bid {bid} mask {mask:?}"
                );
            }
        }
    }

    #[test]
    fn unsorted_and_duplicate_bid_grids_resolve() {
        let t = zig3(24);
        let w = Window::new(SimTime::ZERO, SimTime::from_hours(24));
        let messy = vec![m(1_500), m(270), m(810), m(810)];
        let scan = PermutationScan::build(&t, &all_zones(&t), &messy, w, 1);
        let j = scan.bid_index(m(810));
        assert_eq!(scan.bids[j], m(810));
        let naive = window_stats(&t, &all_zones(&t), w, m(810));
        assert_eq!(scan.stats(j, &[true, true, true]), naive);
    }

    #[test]
    fn empty_effective_window_scans_empty() {
        let t = zig3(24); // covers [0, 24 h)
        let w = Window::new(SimTime::from_hours(24), SimTime::from_hours(30));
        let scan = PermutationScan::build(&t, &all_zones(&t), &grid(), w, 1);
        assert_eq!(scan.n_steps(), 0);
        assert_eq!(scan.stats(0, &[true, true, true]), WindowStats::default());
        assert_eq!(
            scan.forecast(0, &[true, true, true], CkptCosts::LOW, PolicyKind::Periodic),
            Forecast::EMPTY
        );
        // Ties everywhere: ranking falls back to zone order.
        assert_eq!(scan.top_zones(0, 2), vec![true, true, false]);
    }

    #[test]
    fn advance_matches_cold_build_along_a_run() {
        let t = zig3(72);
        let history = SimDuration::from_hours(24);
        let zones = all_zones(&t);
        let mut scan = PermutationScan::build(
            &t,
            &zones,
            &grid(),
            Window::new(SimTime::ZERO, SimTime::from_hours(25)),
            1,
        );
        // Hour-by-hour advance, deliberately running off the trace end so
        // the clamped-end (shrinking) path is exercised too.
        for now_h in 26..80u64 {
            let now = SimTime::from_hours(now_h);
            let w = Window::new(now.saturating_sub(history), now);
            scan.advance(&t, w);
            let cold = PermutationScan::build(&t, &zones, &grid(), w, 1);
            assert_eq!(scan.n_steps(), cold.n_steps(), "at {now_h} h");
            for j in 0..grid().len() {
                assert_eq!(
                    scan.stats(j, &[true, true, true]),
                    cold.stats(j, &[true, true, true]),
                    "at {now_h} h bid {j}"
                );
                assert_eq!(scan.top_zones(j, 2), cold.top_zones(j, 2), "at {now_h} h");
            }
        }
    }

    #[test]
    fn advance_backwards_or_misaligned_rebuilds() {
        let t = zig3(48);
        let zones = all_zones(&t);
        let mut scan = PermutationScan::build(
            &t,
            &zones,
            &grid(),
            Window::new(SimTime::from_hours(10), SimTime::from_hours(34)),
            1,
        );
        for w in [
            // Backwards.
            Window::new(SimTime::from_hours(2), SimTime::from_hours(26)),
            // Misaligned phase (130 s offset).
            Window::new(
                SimTime::from_secs(4 * 3_600 + 130),
                SimTime::from_secs(28 * 3_600 + 130),
            ),
            // Disjoint from the old window.
            Window::new(SimTime::from_hours(40), SimTime::from_hours(47)),
        ] {
            scan.advance(&t, w);
            let cold = PermutationScan::build(&t, &zones, &grid(), w, 1);
            for j in 0..grid().len() {
                assert_eq!(
                    scan.stats(j, &[true, true, true]),
                    cold.stats(j, &[true, true, true])
                );
            }
        }
    }

    #[test]
    fn seeded_build_and_advance_match_unseeded() {
        let t = zig3(72);
        let zones = all_zones(&t);
        let seed = Arc::new(ScanSeed::build(&t, &zones, &grid()));
        assert_eq!(seed.bids(), {
            let mut g = grid();
            g.sort_unstable();
            g
        });
        assert_eq!(seed.zones(), zones);
        let history = SimDuration::from_hours(24);
        let w0 = Window::new(SimTime::ZERO, SimTime::from_hours(25));
        let mut seeded = PermutationScan::build_seeded(&t, Arc::clone(&seed), w0, 1);
        let mut plain = PermutationScan::build(&t, &zones, &grid(), w0, 1);
        // Walk past the trace end so clamped/empty grids go through the
        // seeded probe path too.
        for now_h in 26..80u64 {
            let now = SimTime::from_hours(now_h);
            let w = Window::new(now.saturating_sub(history), now);
            seeded.advance(&t, w);
            plain.advance(&t, w);
            for j in 0..grid().len() {
                assert_eq!(
                    seeded.stats(j, &[true, true, true]),
                    plain.stats(j, &[true, true, true]),
                    "at {now_h} h bid {j}"
                );
                assert_eq!(seeded.top_zones(j, 2), plain.top_zones(j, 2));
            }
        }
    }

    #[test]
    fn seed_lookup_clamps_like_price_at() {
        // Probes before the series start and past its end must hit the
        // first/last sample, exactly as price_at does.
        let t = {
            let series = PriceSeries::new(
                SimTime::from_hours(2),
                vec![m(270), m(900), m(400), m(2_000)],
            );
            TraceSet::new(vec![series])
        };
        let zones = all_zones(&t);
        let seed = ScanSeed::build(&t, &zones, &grid());
        for t_probe in [
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimTime::from_hours(2),
            SimTime::from_secs(2 * 3600 + 299),
            SimTime::from_secs(2 * 3600 + 300),
            SimTime::from_hours(3),
            SimTime::from_hours(50),
        ] {
            let price = t.price_at(ZoneId(0), t_probe);
            let (k, millis) = seed.bucket_at(0, t_probe);
            assert_eq!(k, min_bid_index(&seed.bids, price), "at {t_probe}");
            assert_eq!(millis, price.millis(), "at {t_probe}");
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let t = zig3(60);
        let zones = all_zones(&t);
        let w = Window::new(SimTime::from_hours(5), SimTime::from_hours(29));
        let serial = PermutationScan::build(&t, &zones, &grid(), w, 1);
        let parallel = PermutationScan::build(&t, &zones, &grid(), w, 4);
        for j in 0..grid().len() {
            for n in 1..=3 {
                assert_eq!(serial.top_zones(j, n), parallel.top_zones(j, n));
            }
            assert_eq!(
                serial.stats(j, &[true, true, true]),
                parallel.stats(j, &[true, true, true])
            );
        }
    }
}
