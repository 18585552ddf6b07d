//! Daly's optimum checkpoint interval.
//!
//! The Markov-Daly policy (Section 4.2) feeds the Markov model's expected
//! zone up-time into Daly's estimate of the optimum time between restart
//! dumps [Daly, FGCS 2006]. Both the first-order estimate
//! `t_opt = sqrt(2 δ M)` and the paper's higher-order refinement are
//! provided; redspot uses the higher-order form by default and ablates the
//! difference (`redspot ablate daly`).

use redspot_trace::SimDuration;

/// Which of Daly's estimates to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DalyOrder {
    /// `t_opt = sqrt(2 δ M) − δ` (Young's classic first-order estimate).
    FirstOrder,
    /// Daly's higher-order estimate:
    /// `t_opt = sqrt(2 δ M)·[1 + ⅓·√(δ/2M) + (1/9)·(δ/2M)] − δ` for
    /// `δ < 2M`, else `t_opt = M`.
    #[default]
    HigherOrder,
}

/// Optimum compute time between checkpoints for checkpoint cost `delta`
/// and mean time between failures `mtbf`.
///
/// ```
/// use redspot_ckpt::{optimum_interval, DalyOrder};
/// use redspot_trace::SimDuration;
/// // 300 s checkpoints on a zone that stays up ~6 h: checkpoint
/// // roughly hourly.
/// let t = optimum_interval(
///     SimDuration::from_secs(300),
///     SimDuration::from_hours(6),
///     DalyOrder::HigherOrder,
/// );
/// assert!(t > SimDuration::from_mins(45) && t < SimDuration::from_mins(90));
/// ```
///
/// Returns at least 1 second: a zero interval would checkpoint forever.
/// When `delta >= 2·mtbf`, checkpointing cannot pay for itself within an
/// expected uptime and Daly prescribes `t_opt = M`.
pub fn optimum_interval(delta: SimDuration, mtbf: SimDuration, order: DalyOrder) -> SimDuration {
    let d = delta.secs() as f64;
    let m = mtbf.secs() as f64;
    if m <= 0.0 {
        return SimDuration::from_secs(1);
    }
    if d >= 2.0 * m {
        return SimDuration::from_secs(mtbf.secs().max(1));
    }
    let base = (2.0 * d * m).sqrt();
    let t = match order {
        DalyOrder::FirstOrder => base - d,
        DalyOrder::HigherOrder => {
            let ratio = d / (2.0 * m);
            base * (1.0 + ratio.sqrt() / 3.0 + ratio / 9.0) - d
        }
    };
    // Both estimates misbehave as δ approaches 2M (the first-order form
    // collapses to zero, which would checkpoint continuously). Clamping to
    // min(δ, M) keeps the interval monotone in the MTBF and continuous
    // with the δ ≥ 2M branch, and never touches the δ ≪ M regime the
    // formulas were derived for.
    let t = t.max(d.min(m));
    SimDuration::from_secs((t.round() as i64).max(1) as u64)
}

/// Expected useful fraction of wall-clock time when checkpointing every
/// `interval` with cost `delta` on a machine with the given `mtbf`,
/// assuming an exponential failure model. Used in tests and ablations to
/// confirm the optimum actually optimizes.
///
/// Efficiency = (interval / (interval + delta)) · P(no failure mid-segment
/// amortized), approximated by the standard expected-work-per-segment
/// formula `e^{-(interval+delta)/M}`-weighted progress.
pub fn efficiency(interval: SimDuration, delta: SimDuration, mtbf: SimDuration) -> f64 {
    let tau = interval.secs() as f64;
    let d = delta.secs() as f64;
    let m = mtbf.secs() as f64;
    if tau <= 0.0 || m <= 0.0 {
        return 0.0;
    }
    // Expected wall-clock to complete one segment of tau useful seconds on
    // an exponential-failure machine with restart cost folded into delta
    // (Daly's model): E[T] = (M + tau_rollback) (e^{(tau+d)/M} - 1) ≈
    // for ranking purposes we use the common first-principles form:

    (tau / (tau + d)) * (-(tau + d) / (2.0 * m)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn first_order_matches_youngs_formula() {
        // delta = 300 s, M = 6 h = 21600 s: sqrt(2*300*21600) = 3600.
        let t = optimum_interval(secs(300), secs(21_600), DalyOrder::FirstOrder);
        assert_eq!(t, secs(3_300));
    }

    #[test]
    fn higher_order_exceeds_first_order() {
        for (d, m) in [(300u64, 21_600u64), (900, 7_200), (60, 86_400)] {
            let lo = optimum_interval(secs(d), secs(m), DalyOrder::FirstOrder);
            let hi = optimum_interval(secs(d), secs(m), DalyOrder::HigherOrder);
            assert!(
                hi >= lo,
                "higher-order {hi} < first-order {lo} for d={d} m={m}"
            );
            // ... but by a modest correction, not a blow-up.
            assert!(hi.secs() < lo.secs() * 2);
        }
    }

    #[test]
    fn saturates_when_checkpoint_dominates() {
        // delta >= 2M: checkpoint as rarely as the expected uptime.
        let t = optimum_interval(secs(900), secs(400), DalyOrder::HigherOrder);
        assert_eq!(t, secs(400));
    }

    #[test]
    fn degenerate_inputs_stay_positive() {
        assert_eq!(
            optimum_interval(secs(300), secs(0), DalyOrder::HigherOrder),
            secs(1)
        );
        assert!(optimum_interval(secs(0), secs(3600), DalyOrder::HigherOrder) >= secs(1));
    }

    #[test]
    fn interval_shrinks_with_shorter_uptime() {
        // As expected up-time falls (more volatility / lower bid), the
        // optimal checkpoint interval must fall too — the mechanism behind
        // the Markov-Daly policy reacting to market conditions.
        let d = secs(300);
        let t_long = optimum_interval(d, secs(24 * 3600), DalyOrder::HigherOrder);
        let t_mid = optimum_interval(d, secs(6 * 3600), DalyOrder::HigherOrder);
        let t_short = optimum_interval(d, secs(3600), DalyOrder::HigherOrder);
        assert!(t_long > t_mid && t_mid > t_short);
    }

    #[test]
    fn optimum_roughly_maximizes_efficiency() {
        let d = secs(300);
        let m = secs(6 * 3600);
        let t_opt = optimum_interval(d, m, DalyOrder::FirstOrder);
        let e_opt = efficiency(t_opt, d, m);
        // Efficiency at the optimum beats clearly-off intervals.
        assert!(e_opt > efficiency(secs(t_opt.secs() / 4), d, m));
        assert!(e_opt > efficiency(secs(t_opt.secs() * 4), d, m));
    }
}
