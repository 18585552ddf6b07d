//! The paper's evaluation setup: one low-volatility and one
//! high-volatility month of three-zone prices, plus experiment sizing.

use crate::exec::RunRequest;
use crate::scheme::RunSpec;
use crate::windows::{experiment_starts, run_span_for};
use parking_lot::Mutex;
use redspot_core::{ExperimentConfig, MarketCtx};
use redspot_trace::gen::GenConfig;
use redspot_trace::vol::Volatility;
use redspot_trace::{SimDuration, SimTime, TraceSet};
use std::collections::HashMap;

/// Shared evaluation context for every figure and table.
pub struct PaperSetup {
    low: MarketCtx,
    high: MarketCtx,
    /// Costs of every sweep batch run so far (see [`BatchMemo`]).
    batches: Mutex<BatchMemo>,
    /// Experiments per volatility window (the paper runs 80).
    pub n_experiments: usize,
    /// Worker threads for sweeps (0 = all CPUs).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl PaperSetup {
    /// Build the setup with a given experiment count. Each volatility
    /// window gets a sweep-grade [`MarketCtx`] (whole-trace scan seed +
    /// decision cache), built once and shared by every figure and table.
    pub fn new(seed: u64, n_experiments: usize) -> PaperSetup {
        PaperSetup {
            low: MarketCtx::for_sweep(GenConfig::low_volatility(seed).generate()),
            high: MarketCtx::for_sweep(GenConfig::high_volatility(seed.wrapping_add(1)).generate()),
            batches: Mutex::default(),
            n_experiments,
            threads: 0,
            seed,
        }
    }

    /// The paper-scale setup: 80 experiments per window.
    pub fn full(seed: u64) -> PaperSetup {
        PaperSetup::new(seed, 80)
    }

    /// A fast setup for tests and smoke runs.
    pub fn quick(seed: u64) -> PaperSetup {
        PaperSetup::new(seed, 6)
    }

    /// The trace set for a volatility regime.
    ///
    /// # Panics
    /// Panics for [`Volatility::Moderate`], which has no dedicated window
    /// in the paper's evaluation.
    pub fn traces(&self, vol: Volatility) -> &TraceSet {
        self.ctx(vol).traces()
    }

    /// The shared market context for a volatility regime — feed this to
    /// [`crate::exec::RunRequest`] so every cell of a sweep shares one
    /// scan seed and one decision cache.
    ///
    /// # Panics
    /// Panics for [`Volatility::Moderate`], which has no dedicated window
    /// in the paper's evaluation.
    pub fn ctx(&self, vol: Volatility) -> &MarketCtx {
        match vol {
            Volatility::Low => &self.low,
            Volatility::High => &self.high,
            Volatility::Moderate => panic!("no moderate-volatility evaluation window"),
        }
    }

    /// Experiment start times for a volatility regime and deadline.
    pub fn starts(&self, vol: Volatility, deadline: SimDuration) -> Vec<SimTime> {
        experiment_starts(self.traces(vol), run_span_for(deadline), self.n_experiments)
    }

    /// Base experiment configuration for a `(slack %, t_c)` cell of the
    /// evaluation grid. Sweeps run with a `NullRecorder` sink, so there
    /// is no event-log toggle to set here.
    pub fn base_config(&self, slack_pct: u64, tc_secs: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default()
            .with_slack_percent(slack_pct)
            .with_costs(redspot_ckpt::CkptCosts::symmetric_secs(tc_secs));
        cfg.seed = self.seed;
        cfg
    }

    /// The dollar costs of running `specs` on `base` in the `vol` window,
    /// in spec order. A batch this setup has already run is answered from
    /// its memo: Table 2 repeats Figure 4's cells, and Figure 5, Figure 6
    /// and the headline repeat batches of Figures 4 and 5.
    pub(crate) fn batch_costs(
        &self,
        vol: Volatility,
        base: &ExperimentConfig,
        specs: Vec<RunSpec>,
    ) -> Vec<f64> {
        let key = {
            let mut memo = self.batches.lock();
            let key = (vol, memo.config_id(base), specs);
            if let Some(costs) = memo.costs.get(&key) {
                return costs.clone();
            }
            key
        };
        let results = RunRequest::new(self.ctx(vol), base, &key.2)
            .threads(self.threads)
            .execute()
            .expect("sweep base config is valid")
            .results;
        debug_assert!(
            results.iter().all(|r| r.met_deadline),
            "a run missed its deadline"
        );
        let costs = crate::report::dollars(&results);
        self.batches
            .lock()
            .costs
            .entry(key)
            .or_insert(costs)
            .clone()
    }
}

/// Every batch a [`PaperSetup`] has run, keyed by everything its results
/// depend on besides the setup's fixed markets: the window, the base
/// config and the exact spec list. Keys compare by full equality, so two
/// batches share an entry only if they are the same batch. Base configs
/// are interned to small ids, as [`redspot_core::DecisionCache`] interns
/// its scopes. Worker threads are not part of the key: results are the
/// same for any thread count. Changing `n_experiments` or `seed` changes
/// the specs or the base config, so it can never hit a stale entry.
#[derive(Default)]
struct BatchMemo {
    /// Interned base configs; a config's id is its index.
    configs: Vec<ExperimentConfig>,
    /// Cost samples per `(window, config id, specs)`.
    costs: HashMap<(Volatility, usize, Vec<RunSpec>), Vec<f64>>,
}

impl BatchMemo {
    /// Intern `base`, returning its id.
    fn config_id(&mut self, base: &ExperimentConfig) -> usize {
        if let Some(i) = self.configs.iter().position(|c| c == base) {
            return i;
        }
        self.configs.push(base.clone());
        self.configs.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_generates_both_regimes() {
        let s = PaperSetup::quick(5);
        assert_eq!(s.traces(Volatility::Low).n_zones(), 3);
        assert_eq!(s.traces(Volatility::High).n_zones(), 3);
        let starts = s.starts(Volatility::Low, SimDuration::from_hours(23));
        assert_eq!(starts.len(), 6);
    }

    #[test]
    fn base_config_reflects_grid_cell() {
        let s = PaperSetup::quick(5);
        let cfg = s.base_config(50, 900);
        assert_eq!(cfg.slack(), SimDuration::from_hours(10));
        assert_eq!(cfg.costs.checkpoint.secs(), 900);
    }

    #[test]
    fn batch_memo_repeats_exactly_and_never_goes_stale() {
        use crate::sweep::single_zone_costs;
        use redspot_core::PolicyKind;
        use redspot_trace::Price;
        let sweep = |s: &PaperSetup| {
            let base = s.base_config(15, 300);
            single_zone_costs(
                s,
                Volatility::Low,
                &base,
                PolicyKind::MarkovDaly,
                Price::from_millis(810),
            )
        };

        let mut s = PaperSetup::quick(5);
        let first = sweep(&s);
        assert_eq!(sweep(&s), first);
        assert_eq!(first, sweep(&PaperSetup::quick(5)));

        // Fewer experiments: new starts, so new specs.
        s.n_experiments = 4;
        let fewer = sweep(&s);
        assert_eq!(fewer.len(), 4 * 3);
        let mut fresh = PaperSetup::quick(5);
        fresh.n_experiments = 4;
        assert_eq!(fewer, sweep(&fresh));

        // Another experiment seed on the same markets: a new base config,
        // so a third entry rather than the first one again.
        s.n_experiments = 6;
        s.seed = 9;
        let reseeded = sweep(&s);
        let mut fresh = PaperSetup::quick(5);
        fresh.seed = 9;
        assert_eq!(reseeded, sweep(&fresh));
        assert_eq!(s.batches.lock().costs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "no moderate-volatility")]
    fn moderate_regime_is_rejected() {
        PaperSetup::quick(5).traces(Volatility::Moderate);
    }
}
