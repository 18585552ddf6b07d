//! The Adaptive meta-policy (Section 7).
//!
//! Adaptive owns the full decision space the user would otherwise have to
//! navigate: the bid `B`, the redundancy degree `N`, and the checkpoint
//! policy. It bootstraps from price history before the experiment, then at
//! every decision point — an out-of-bid termination or a billing-hour
//! end — re-estimates the remaining cost of every permutation over recent
//! history and switches to the cheapest (Section 7.1's conditions (1) and
//! (2); condition (3), compatible switches, is subsumed because policy
//! swaps are always compatible and bid/zone changes are applied through
//! hour-boundary retirement, never mid-hour).

pub mod cache;
pub mod ctx;
pub mod forecast;
pub mod scan;

use crate::config::ExperimentConfig;
use crate::engine::Engine;
use crate::policy::PolicyKind;
use crate::run::RunResult;
use crate::telemetry::{NullRecorder, Recorder, RunMetrics, VecRecorder};
use cache::{CacheTally, DecisionCache, DecisionTable, ScopeKey, TableKey, TableRow};
use ctx::MarketCtx;
use forecast::{estimate, predicted_cost};
use redspot_market::DelayModel;
use redspot_trace::{Price, SimDuration, SimTime, TraceHandle, Window, ZoneId};
use scan::{PermutationScan, ScanSeed};
use std::sync::{Arc, OnceLock};

/// How the controller evaluates the permutation space at a decision point.
///
/// Both modes produce bit-identical decisions (pinned by the property
/// suite); `Naive` exists as the reference implementation and for
/// benchmarking the speedup of the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForecastMode {
    /// One full history walk per `(B, N, policy)` permutation.
    Naive,
    /// One shared [`PermutationScan`] per decision point, advanced
    /// incrementally between decision points.
    #[default]
    Scan,
}

/// Tuning knobs for the adaptive controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Candidate bids (the paper sweeps $0.27–$3.07 in $0.20 steps).
    pub bid_grid: Vec<Price>,
    /// Candidate redundancy degrees (the paper uses 1, 2, 3).
    pub n_options: Vec<usize>,
    /// Candidate checkpoint policies. Edge and Threshold are excluded by
    /// the paper after Section 6 shows their high recovery costs.
    pub policy_kinds: Vec<PolicyKind>,
    /// History length used for forecasting at each decision point.
    pub history: SimDuration,
    /// Hard cap on the bid (user-configurable in the paper).
    pub max_bid: Price,
    /// Permutation evaluation strategy.
    pub forecast: ForecastMode,
    /// Worker threads for the scan's cold build (≤ 1 = serial). Results
    /// are bit-identical for any value.
    pub scan_threads: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        let mut bid_grid = redspot_trace::paper_bid_grid();
        // The $0.81 sweet spot highlighted throughout Section 6.
        bid_grid.push(Price::from_millis(810));
        bid_grid.sort_unstable();
        AdaptiveConfig {
            bid_grid,
            n_options: vec![1, 2, 3],
            policy_kinds: vec![PolicyKind::Periodic, PolicyKind::MarkovDaly],
            history: SimDuration::from_hours(24),
            max_bid: Price::from_millis(3_070),
            forecast: ForecastMode::Scan,
            scan_threads: 1,
        }
    }
}

/// One point in Adaptive's decision space.
#[derive(Debug, Clone, PartialEq)]
pub struct Permutation {
    /// Bid price.
    pub bid: Price,
    /// Active-zone mask over the experiment's configured zones.
    pub mask: Vec<bool>,
    /// Checkpoint policy.
    pub kind: PolicyKind,
    /// Predicted remaining cost, milli-dollars.
    pub predicted_millis: f64,
}

impl Permutation {
    fn describe(&self) -> String {
        let n = self.mask.iter().filter(|&&b| b).count();
        format!("{} N={} B={}", self.kind, n, self.bid)
    }
}

/// Runs one experiment under the Adaptive meta-policy.
///
/// Owns its trace data through a [`TraceHandle`] (no borrow lifetime), so
/// runners — and the [`DecisionSession`]s cloned from them — can live in
/// long-running hosts and move across threads. `Clone` is cheap: every
/// heavy field is behind an `Arc`.
#[derive(Clone)]
pub struct AdaptiveRunner {
    traces: TraceHandle,
    start: SimTime,
    base: ExperimentConfig,
    acfg: AdaptiveConfig,
    delay: DelayModel,
    /// Sweep-shared decision-table cache (attached via
    /// [`with_market_ctx`](Self::with_market_ctx)).
    cache: Option<Arc<DecisionCache>>,
    /// Sweep-shared whole-trace bucketing for seeded scan builds.
    scan_seed: Option<Arc<ScanSeed>>,
    /// Sweep-shared Markov model/uptime memo, attached to every policy
    /// this runner instantiates.
    uptime: Option<Arc<redspot_markov::UptimeMemo>>,
    /// Interned scope id in `cache`, resolved on first use.
    scope: OnceLock<u32>,
}

impl AdaptiveRunner {
    /// Create a runner. `base.zones` is the superset of zones Adaptive may
    /// use (its bid and policy fields are ignored — Adaptive chooses).
    ///
    /// ```
    /// use redspot_core::{AdaptiveRunner, ExperimentConfig};
    /// use redspot_trace::{gen::GenConfig, SimTime};
    /// let traces = GenConfig::low_volatility(1).generate();
    /// let result = AdaptiveRunner::new(
    ///     &traces,
    ///     SimTime::from_hours(72),
    ///     ExperimentConfig::paper_default(),
    /// )
    /// .run();
    /// assert!(result.met_deadline); // guaranteed by Algorithm 1
    /// assert!(result.cost_dollars() < 48.0); // cheaper than on-demand
    /// ```
    pub fn new(
        traces: impl Into<TraceHandle>,
        start: SimTime,
        base: ExperimentConfig,
    ) -> AdaptiveRunner {
        AdaptiveRunner {
            traces: traces.into(),
            start,
            base,
            acfg: AdaptiveConfig::default(),
            delay: DelayModel::paper(),
            cache: None,
            scan_seed: None,
            uptime: None,
            scope: OnceLock::new(),
        }
    }

    /// Override the adaptive tuning.
    pub fn with_config(mut self, acfg: AdaptiveConfig) -> AdaptiveRunner {
        self.acfg = acfg;
        self
    }

    /// Override the queuing-delay model (tests, ablations).
    pub fn with_delay_model(mut self, delay: DelayModel) -> AdaptiveRunner {
        self.delay = delay;
        self
    }

    /// Attach a sweep-shared [`MarketCtx`]: decision tables are looked up
    /// in (and inserted into) its cache, and scan builds reuse its
    /// whole-trace bucketing when the seed's zone list and bid grid match
    /// this runner's. Call *after* [`with_config`](Self::with_config) so
    /// the compatibility check sees the final grid.
    ///
    /// Decisions are bit-identical with or without a context attached
    /// (pinned by `tests/batch_properties.rs`). If `ctx` wraps a
    /// different trace set than this runner's, nothing is attached.
    pub fn with_market_ctx(mut self, mkt: &MarketCtx) -> AdaptiveRunner {
        if !self.traces.ptr_eq(mkt.handle()) && self.traces != *mkt.handle() {
            return self;
        }
        self.cache = mkt.cache().map(Arc::clone);
        self.uptime = mkt.uptime_memo().map(Arc::clone);
        if let Some(seed) = mkt.scan_seed() {
            let mut sorted = self.acfg.bid_grid.clone();
            sorted.sort_unstable();
            if seed.zones() == self.base.zones && seed.bids() == sorted {
                self.scan_seed = Some(Arc::clone(seed));
            }
        }
        self
    }

    /// The history window ending at `now`.
    fn history_window(&self, now: SimTime) -> Option<Window> {
        let lo = now
            .saturating_sub(self.acfg.history)
            .max(self.traces.start());
        (now > lo).then(|| Window::new(lo, now))
    }

    /// Rank zones by availability at `bid` over `window` and keep the top
    /// `n` (stable on ties by preferring lower zone index). Availability
    /// is read over the canonical forecast grid
    /// ([`redspot_trace::PriceSeries::availability_in`]) so the ranking
    /// samples exactly the steps the forecast walks, without allocating a
    /// sliced series per `(bid, N, zone)`.
    ///
    /// # Invariant
    /// `n >= 1`: both `choose_*` paths skip the degenerate `n = 0` option
    /// before ranking (a zero-zone mask would make `estimate` assert), so
    /// this no longer silently promotes `n` to 1 the way earlier versions
    /// did — debug builds assert instead.
    fn top_zones(&self, window: Window, bid: Price, n: usize) -> Vec<bool> {
        debug_assert!(n >= 1, "top_zones needs n >= 1");
        let zones = &self.base.zones;
        let mut scored: Vec<(usize, f64)> = zones
            .iter()
            .enumerate()
            .map(|(i, &z)| (i, self.traces.availability_in(z, window, bid)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("availability is finite")
                .then(a.0.cmp(&b.0))
        });
        let mut mask = vec![false; zones.len()];
        for &(i, _) in scored.iter().take(n) {
            mask[i] = true;
        }
        mask
    }

    /// Evaluate every permutation at `now` and return the cheapest.
    ///
    /// Split into two stages so the expensive one can be memoized: the
    /// [`DecisionTable`] (zone ranking + every permutation's forecast)
    /// depends only on the scope and the window's canonical probe grid,
    /// while [`pick`](Self::pick) applies the
    /// `(remaining compute, remaining time)`-dependent cost ranking row
    /// by row — the same arithmetic, in the same order, the fused loops
    /// used to run.
    fn choose(
        &self,
        scan: &mut Option<PermutationScan>,
        tally: &mut CacheTally,
        now: SimTime,
        remaining_compute: SimDuration,
        remaining_time: SimDuration,
    ) -> Option<Permutation> {
        let window = self.history_window(now)?;
        let table = self.decision_table(scan, tally, window);
        self.pick(&table, remaining_compute, remaining_time)
    }

    /// The decision table for `window`: from the cache when a market
    /// context is attached and the key is already present, otherwise
    /// computed (and, with a cache, inserted).
    ///
    /// On a cache hit the scan is *not* advanced; a later miss either
    /// advances it across the gap (the compatibility check in
    /// [`PermutationScan::advance`] handles arbitrary jumps) or rebuilds,
    /// so hits never change what misses compute.
    fn decision_table(
        &self,
        scan: &mut Option<PermutationScan>,
        tally: &mut CacheTally,
        window: Window,
    ) -> Arc<DecisionTable> {
        let Some(cache) = self.cache.as_ref().filter(|_| !self.base.zones.is_empty()) else {
            return Arc::new(self.build_table(scan, window));
        };
        let scope = *self.scope.get_or_init(|| cache.scope_id(&self.scope_key()));
        let series = self.traces.zone(self.base.zones[0]);
        let (first_step, n_steps) =
            cache::window_key(series.start(), series.step(), series.end(), window);
        let key = TableKey {
            scope,
            first_step,
            n_steps,
        };
        if let Some(table) = cache.lookup(key) {
            tally.hits += 1;
            return table;
        }
        tally.misses += 1;
        cache.insert(key, self.build_table(scan, window))
    }

    /// Full structural copy of everything the table depends on besides
    /// the window (and the market, which scopes the cache itself).
    fn scope_key(&self) -> ScopeKey {
        ScopeKey {
            zones: self.base.zones.clone(),
            bid_grid: self.acfg.bid_grid.clone(),
            n_options: self.acfg.n_options.clone(),
            policy_kinds: self.acfg.policy_kinds.clone(),
            costs: self.base.costs,
            max_bid: self.acfg.max_bid,
            forecast: self.acfg.forecast,
        }
    }

    /// Compute the table for `window`, reusing (and advancing) the cached
    /// scan in scan mode.
    fn build_table(&self, scan: &mut Option<PermutationScan>, window: Window) -> DecisionTable {
        match self.acfg.forecast {
            ForecastMode::Naive => self.build_table_naive(window),
            ForecastMode::Scan => {
                if let Some(s) = scan.as_mut() {
                    s.advance(&self.traces, window);
                } else {
                    *scan = Some(match &self.scan_seed {
                        Some(seed) => PermutationScan::build_seeded(
                            &self.traces,
                            Arc::clone(seed),
                            window,
                            self.acfg.scan_threads,
                        ),
                        None => PermutationScan::build(
                            &self.traces,
                            &self.base.zones,
                            &self.acfg.bid_grid,
                            window,
                            self.acfg.scan_threads,
                        ),
                    });
                }
                self.build_table_scanned(scan.as_ref().expect("scan installed above"))
            }
        }
    }

    /// Reference table builder: one full history walk per permutation.
    fn build_table_naive(&self, window: Window) -> DecisionTable {
        let mut table = DecisionTable::new(self.base.zones.len());
        for &bid in &self.acfg.bid_grid {
            if bid > self.acfg.max_bid {
                continue;
            }
            for &n in &self.acfg.n_options {
                if n == 0 || n > self.base.zones.len() {
                    continue;
                }
                let mask = self.top_zones(window, bid, n);
                let zone_ids: Vec<ZoneId> = self
                    .base
                    .zones
                    .iter()
                    .zip(&mask)
                    .filter_map(|(&z, &m)| m.then_some(z))
                    .collect();
                let group = table.add_group(&mask);
                for &kind in &self.acfg.policy_kinds {
                    let f = estimate(&self.traces, &zone_ids, window, bid, self.base.costs, kind);
                    table.rows.push(TableRow {
                        bid,
                        group,
                        kind,
                        forecast: f,
                    });
                }
            }
        }
        table
    }

    /// Scan-backed table builder: identical iteration order to
    /// [`build_table_naive`](Self::build_table_naive), with every
    /// forecast and zone ranking derived from the shared scan structures.
    fn build_table_scanned(&self, scan: &PermutationScan) -> DecisionTable {
        let mut table = DecisionTable::new(self.base.zones.len());
        for &bid in &self.acfg.bid_grid {
            if bid > self.acfg.max_bid {
                continue;
            }
            let bid_idx = scan.bid_index(bid);
            for &n in &self.acfg.n_options {
                if n == 0 || n > self.base.zones.len() {
                    continue;
                }
                let mask = scan.top_zones(bid_idx, n);
                let group = table.add_group(&mask);
                for &kind in &self.acfg.policy_kinds {
                    let f = scan.forecast(bid_idx, &mask, self.base.costs, kind);
                    table.rows.push(TableRow {
                        bid,
                        group,
                        kind,
                        forecast: f,
                    });
                }
            }
        }
        table
    }

    /// Rank a table's rows by predicted remaining cost and return the
    /// cheapest — the decision-point-dependent half of the old fused
    /// choose loops, bit-identical because rows are stored in iteration
    /// order and all float arithmetic is unchanged.
    fn pick(
        &self,
        table: &DecisionTable,
        remaining_compute: SimDuration,
        remaining_time: SimDuration,
    ) -> Option<Permutation> {
        let mut best: Option<Permutation> = None;
        for row in &table.rows {
            let cost = predicted_cost(
                &row.forecast,
                remaining_compute,
                remaining_time,
                self.base.costs,
            );
            Self::consider(&mut best, row.bid, table.mask(row.group), row.kind, cost);
        }
        best
    }

    /// Keep `cand` iff strictly cheaper than the incumbent (ties keep the
    /// earlier permutation in iteration order, for both modes alike).
    fn consider(
        best: &mut Option<Permutation>,
        bid: Price,
        mask: &[bool],
        kind: PolicyKind,
        cost: f64,
    ) {
        let better = match best {
            None => true,
            Some(b) => cost < b.predicted_millis,
        };
        if better {
            *best = Some(Permutation {
                bid,
                mask: mask.to_vec(),
                kind,
                predicted_millis: cost,
            });
        }
    }

    /// Instantiate `kind`'s policy with the shared uptime memo (if any)
    /// attached — every policy this runner hands to an engine goes
    /// through here.
    fn build_policy(&self, kind: PolicyKind) -> Box<dyn crate::policy::Policy> {
        let mut policy = kind.build();
        if let Some(memo) = &self.uptime {
            policy.attach_uptime_memo(memo);
        }
        policy
    }

    fn apply<R: Recorder>(&self, engine: &mut Engine<R>, perm: &Permutation) {
        engine.set_bid(perm.bid);
        for (i, &active) in perm.mask.iter().enumerate() {
            engine.set_active(i, active);
        }
        engine.set_policy(self.build_policy(perm.kind));
        engine.note_adaptive_switch(perm.describe());
    }

    /// Open a reusable decision session: the entry point for probing
    /// decision points without running an experiment (benchmarks, tools,
    /// the serve daemon). The session owns a clone of this runner (cheap:
    /// all heavy state is `Arc`-shared) plus the scan cache, so successive
    /// [`decide`](DecisionSession::decide) calls at advancing times share
    /// window state through the scan's incremental advance — and the
    /// session is free-standing and `Send`, ready to live in a registry.
    pub fn session(&self) -> DecisionSession {
        DecisionSession {
            runner: self.clone(),
            scan: None,
            tally: CacheTally::default(),
        }
    }

    /// Run the experiment to completion under adaptive control, retaining
    /// the full event log (a [`VecRecorder`] sink).
    pub fn run(self) -> RunResult {
        self.run_with(VecRecorder::new()).0
    }

    /// [`AdaptiveRunner::run`] with a [`NullRecorder`] sink: observation
    /// costs nothing, and `RunResult::events` stays empty (and
    /// unallocated). The right call for sweeps and throwaway runs.
    pub fn run_quiet(self) -> RunResult {
        self.run_with(NullRecorder).0
    }

    /// Run under adaptive control with an explicit telemetry sink,
    /// returning the result and whatever metrics the sink aggregated.
    pub fn run_with<R: Recorder>(self, recorder: R) -> (RunResult, RunMetrics) {
        let mut cfg = self.base.clone();
        let mut scan: Option<PermutationScan> = None;
        let mut tally = CacheTally::default();
        // Bootstrap permutation from history before the experiment starts;
        // fall back to the paper's sweet spot when there is no history.
        let boot = self.choose(
            &mut scan,
            &mut tally,
            self.start,
            cfg.app.work,
            cfg.deadline,
        );
        let (bid, kind) = boot
            .as_ref()
            .map(|p| (p.bid, p.kind))
            .unwrap_or((Price::from_millis(810), PolicyKind::Periodic));
        // The user's bid cap applies to the fallback too.
        let bid = bid.min(self.acfg.max_bid);
        cfg.bid = bid;

        let mut engine = Engine::try_with_parts(
            self.traces.clone(),
            self.start,
            cfg,
            self.build_policy(kind),
            self.delay,
            recorder,
        )
        .expect("invalid experiment configuration");
        let mut current = boot;
        if let Some(p) = &current {
            self.apply(&mut engine, p);
        }

        loop {
            let report = engine.step();
            if report.done {
                break;
            }
            if !(report.termination || report.hour_boundary) || engine.on_demand() {
                continue;
            }
            let remaining_compute = engine.config().app.work - engine.best_position();
            let remaining_time = engine.deadline_abs().since(engine.now());
            if let Some(next) = self.choose(
                &mut scan,
                &mut tally,
                engine.now(),
                remaining_compute,
                remaining_time,
            ) {
                let changed = match &current {
                    Some(cur) => {
                        cur.bid != next.bid || cur.mask != next.mask || cur.kind != next.kind
                    }
                    None => true,
                };
                if changed {
                    self.apply(&mut engine, &next);
                    current = Some(next);
                }
            }
        }
        let (result, mut metrics) = engine.into_result_with_metrics();
        metrics.decision_cache_hits += tally.hits;
        metrics.decision_cache_misses += tally.misses;
        (result, metrics)
    }
}

/// A reusable decision-point evaluator over one [`AdaptiveRunner`],
/// carrying the permutation-scan cache between calls. Obtained from
/// [`AdaptiveRunner::session`].
pub struct DecisionSession {
    runner: AdaptiveRunner,
    scan: Option<PermutationScan>,
    tally: CacheTally,
}

impl DecisionSession {
    /// Evaluate every permutation at `now` and return the cheapest — the
    /// same decision [`AdaptiveRunner::run`] makes at each billing
    /// boundary or termination. Returns `None` when there is no history
    /// before `now` or no permutation is admissible.
    pub fn decide(
        &mut self,
        now: SimTime,
        remaining_compute: SimDuration,
        remaining_time: SimDuration,
    ) -> Option<Permutation> {
        self.runner.choose(
            &mut self.scan,
            &mut self.tally,
            now,
            remaining_compute,
            remaining_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redspot_trace::gen::GenConfig;
    use redspot_trace::{PriceSeries, TraceSet};

    fn m(v: u64) -> Price {
        Price::from_millis(v)
    }

    fn flat3(price: u64, hours: u64) -> TraceSet {
        let samples = vec![m(price); (hours * 12) as usize];
        TraceSet::new(
            (0..3)
                .map(|_| PriceSeries::new(SimTime::ZERO, samples.clone()))
                .collect(),
        )
    }

    fn base() -> ExperimentConfig {
        ExperimentConfig::paper_default()
    }

    #[test]
    fn cheap_stable_market_stays_on_spot_single_zone() {
        let traces = flat3(270, 80);
        // Start mid-trace so there is bootstrap history.
        let start = SimTime::from_hours(30);
        let r = AdaptiveRunner::new(&traces, start, base())
            .with_delay_model(DelayModel::zero())
            .run();
        assert!(r.met_deadline);
        assert!(!r.used_on_demand);
        // Adaptive should pick N = 1 here: one zone at $0.27.
        assert!(r.cost_dollars() < 8.0, "cost {}", r.cost_dollars());
    }

    #[test]
    fn unaffordable_market_costs_at_most_on_demand() {
        let traces = flat3(5_000, 80);
        let start = SimTime::from_hours(30);
        let r = AdaptiveRunner::new(&traces, start, base())
            .with_delay_model(DelayModel::zero())
            .run();
        assert!(r.met_deadline);
        assert!(r.used_on_demand);
        // Bounded: never meaningfully above the on-demand reference.
        assert!(r.cost_dollars() <= 48.0 * 1.2, "cost {}", r.cost_dollars());
    }

    #[test]
    fn adaptive_beats_on_demand_on_realistic_low_volatility() {
        let traces = GenConfig::low_volatility(17).generate();
        let start = SimTime::from_hours(72);
        let r = AdaptiveRunner::new(&traces, start, base())
            .with_delay_model(DelayModel::zero())
            .run();
        assert!(r.met_deadline);
        assert!(
            r.cost_dollars() < 48.0 / 2.0,
            "adaptive should be far below on-demand, got {}",
            r.cost_dollars()
        );
    }

    #[test]
    fn adaptive_bounded_on_high_volatility() {
        let traces = GenConfig::high_volatility(17).generate();
        for start_h in [72u64, 200, 400] {
            let start = SimTime::from_hours(start_h);
            let r = AdaptiveRunner::new(&traces, start, base())
                .with_delay_model(DelayModel::zero())
                .run();
            assert!(r.met_deadline, "missed deadline at start {start_h}h");
            assert!(
                r.cost_dollars() <= 48.0 * 1.2,
                "cost {} above the 120% on-demand bound at start {start_h}h",
                r.cost_dollars()
            );
        }
    }

    #[test]
    fn top_zone_ranking_prefers_available_zones() {
        let cheap = vec![m(270); 288];
        let pricey = vec![m(2_000); 288];
        let traces = TraceSet::new(vec![
            PriceSeries::new(SimTime::ZERO, pricey.clone()),
            PriceSeries::new(SimTime::ZERO, cheap),
            PriceSeries::new(SimTime::ZERO, pricey),
        ]);
        let runner = AdaptiveRunner::new(&traces, SimTime::from_hours(24), base());
        let w = Window::new(SimTime::ZERO, SimTime::from_hours(24));
        assert_eq!(runner.top_zones(w, m(810), 1), vec![false, true, false]);
        let two = runner.top_zones(w, m(810), 2);
        assert!(two[1]);
        assert_eq!(two.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn market_ctx_cache_is_bit_identical_and_counts() {
        let traces = GenConfig::high_volatility(11).generate();
        let mkt = MarketCtx::for_sweep(traces.clone());
        let start = SimTime::from_hours(90);
        let plain = AdaptiveRunner::new(&traces, start, base())
            .with_delay_model(DelayModel::zero())
            .run_quiet();
        // First cached run: all misses (fills the cache).
        let (first, m1) = AdaptiveRunner::new(mkt.traces(), start, base())
            .with_market_ctx(&mkt)
            .with_delay_model(DelayModel::zero())
            .run_with(NullRecorder);
        // Second identical run: every decision point hits.
        let (second, m2) = AdaptiveRunner::new(mkt.traces(), start, base())
            .with_market_ctx(&mkt)
            .with_delay_model(DelayModel::zero())
            .run_with(NullRecorder);
        assert_eq!(plain, first);
        assert_eq!(plain, second);
        // The first run fills the cache (it may still hit intra-run when
        // nearby decision points share a 5-minute probe bucket); the
        // second run never misses.
        assert!(m1.decision_cache_misses > 0);
        assert_eq!(m2.decision_cache_misses, 0);
        assert_eq!(
            m2.decision_cache_hits,
            m1.decision_cache_hits + m1.decision_cache_misses
        );
        let stats = mkt.cache_stats();
        assert_eq!(stats.entries as u64, m1.decision_cache_misses);
    }

    #[test]
    fn market_ctx_with_foreign_traces_attaches_nothing() {
        let traces = GenConfig::low_volatility(5).generate();
        let other = GenConfig::high_volatility(6).generate();
        let mkt = MarketCtx::for_sweep(other);
        let start = SimTime::from_hours(72);
        let plain = AdaptiveRunner::new(&traces, start, base())
            .with_delay_model(DelayModel::zero())
            .run_quiet();
        let (guarded, m) = AdaptiveRunner::new(&traces, start, base())
            .with_market_ctx(&mkt)
            .with_delay_model(DelayModel::zero())
            .run_with(NullRecorder);
        assert_eq!(plain, guarded);
        assert_eq!(m.decision_cache_hits + m.decision_cache_misses, 0);
        assert_eq!(mkt.cache_stats().entries, 0);
    }

    #[test]
    fn records_switch_events() {
        let traces = GenConfig::high_volatility(3).generate();
        let cfg = base();
        let r = AdaptiveRunner::new(&traces, SimTime::from_hours(100), cfg)
            .with_delay_model(DelayModel::zero())
            .run();
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, crate::run::Event::AdaptiveSwitch { .. })));
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use redspot_trace::{PriceSeries, TraceSet};

    fn flat3(price: u64, hours: u64) -> TraceSet {
        let samples = vec![Price::from_millis(price); (hours * 12) as usize];
        TraceSet::new(
            (0..3)
                .map(|_| PriceSeries::new(SimTime::ZERO, samples.clone()))
                .collect(),
        )
    }

    fn base() -> crate::config::ExperimentConfig {
        crate::config::ExperimentConfig::paper_default()
    }

    #[test]
    fn max_bid_below_market_forces_on_demand_but_meets_deadline() {
        let traces = flat3(300, 80);
        let acfg = AdaptiveConfig {
            max_bid: Price::from_millis(100), // below every price
            ..AdaptiveConfig::default()
        };
        let r = AdaptiveRunner::new(&traces, SimTime::from_hours(30), base())
            .with_config(acfg)
            .with_delay_model(redspot_market::DelayModel::zero())
            .run();
        assert!(r.met_deadline);
        assert!(r.used_on_demand);
        assert_eq!(r.od_cost, Price::from_dollars(48.0));
    }

    #[test]
    fn empty_policy_list_still_completes_with_default() {
        let traces = flat3(300, 80);
        let acfg = AdaptiveConfig {
            policy_kinds: vec![],
            ..AdaptiveConfig::default()
        };
        let r = AdaptiveRunner::new(&traces, SimTime::from_hours(30), base())
            .with_config(acfg)
            .with_delay_model(redspot_market::DelayModel::zero())
            .run();
        assert!(r.met_deadline);
    }

    #[test]
    fn single_n_option_restricts_redundancy() {
        let traces = flat3(300, 80);
        let acfg = AdaptiveConfig {
            n_options: vec![3],
            ..AdaptiveConfig::default()
        };
        let cfg = base();
        let r = AdaptiveRunner::new(&traces, SimTime::from_hours(30), cfg)
            .with_config(acfg)
            .with_delay_model(redspot_market::DelayModel::zero())
            .run();
        assert!(r.met_deadline);
        for e in &r.events {
            if let crate::run::Event::AdaptiveSwitch { to, .. } = e {
                assert!(to.contains("N=3"), "unexpected permutation: {to}");
            }
        }
        // Three zones paid on a flat market: roughly 3x the single-zone cost.
        assert!(r.cost_dollars() > 15.0, "cost {}", r.cost_dollars());
    }
}
