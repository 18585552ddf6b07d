//! The simulation clock: the run/step loop with its progress fuel, the
//! next-event hop, time advancement, and result assembly.

use super::{Engine, Phase, StepReport};
use crate::run::{Event, RunResult};
use crate::telemetry::{Recorder, RunMetrics};
use redspot_trace::{SimDuration, SimTime};

impl<R: Recorder> Engine<R> {
    /// Run to completion and produce the result.
    pub fn run(mut self) -> RunResult {
        self.run_to_done();
        self.into_result()
    }

    /// Run to completion, producing the result *and* the metrics the
    /// telemetry sink aggregated ([`RunMetrics::default`] for sinks that
    /// do not aggregate).
    pub fn run_full(mut self) -> (RunResult, RunMetrics) {
        self.run_to_done();
        self.into_result_with_metrics()
    }

    /// Drive [`Engine::step`] until done, with a fuel bound so a stuck
    /// engine fails loudly instead of spinning.
    fn run_to_done(&mut self) {
        let mut fuel: u64 = 50_000_000;
        while !self.is_done() {
            self.step();
            fuel -= 1;
            assert!(fuel > 0, "engine failed to make progress");
        }
    }

    /// Advance the simulation by one event horizon, processing everything
    /// due at the current instant first. Debug builds re-check the engine's
    /// internal invariants after every step.
    pub fn step(&mut self) -> StepReport {
        let report = self.step_inner();
        self.check_invariants();
        report
    }

    fn step_inner(&mut self) -> StepReport {
        let mut report = StepReport::default();
        if self.phase == Phase::Done {
            report.done = true;
            return report;
        }

        // Drain everything due *now* until quiescent.
        let mut guard_fuel = 64;
        while self.process_now(&mut report) {
            guard_fuel -= 1;
            assert!(guard_fuel > 0, "event cascade failed to settle");
            if self.phase == Phase::Done {
                report.done = true;
                return report;
            }
        }

        // Hop to the next event.
        if let Phase::OnDemand(finish) = self.phase {
            self.now = finish;
            self.finish_run();
            report.done = true;
            return report;
        }
        let next = self.next_event_time();
        debug_assert!(next > self.now, "event horizon must advance");
        self.advance_to(next);
        report.done = self.phase == Phase::Done;
        report
    }

    /// Consume the engine, producing the final result. The telemetry
    /// sink's retained event log (if any) becomes `RunResult::events`.
    ///
    /// # Panics
    /// Panics if the run has not finished.
    pub fn into_result(mut self) -> RunResult {
        assert!(self.phase == Phase::Done, "run not finished");
        let io_cost = self.io_cost();
        RunResult {
            cost: self.spot_cost + self.od_cost + io_cost,
            spot_cost: self.spot_cost,
            od_cost: self.od_cost,
            io_cost,
            finished_at: self.finished_at,
            met_deadline: self.finished_at <= self.deadline_abs,
            checkpoints: self.checkpoints,
            restarts: self.restarts,
            out_of_bid_terminations: self.oob_terminations,
            used_on_demand: self.used_on_demand,
            api: self.supervisor.stats(),
            events: self.recorder.take_events(),
        }
    }

    /// [`Engine::into_result`] plus the sink's aggregated metrics.
    ///
    /// # Panics
    /// Panics if the run has not finished.
    pub fn into_result_with_metrics(mut self) -> (RunResult, RunMetrics) {
        let metrics = self.recorder.finish();
        (self.into_result(), metrics)
    }

    /// Mark the run finished at the current instant.
    pub(super) fn finish_run(&mut self) {
        self.finished_at = self.now;
        self.phase = Phase::Done;
        self.record(Event::Completed { at: self.now });
    }

    // ------------------------------------------------------------------
    // Time advancement.

    /// The earliest future instant at which anything can happen: a price
    /// movement, a billing boundary, a boot completion, a replica
    /// finishing, a fault wake-up, a checkpoint commit, the deadline
    /// guard, or a policy alarm.
    fn next_event_time(&mut self) -> SimTime {
        let mut t = self.deadline_abs.max(self.now + SimDuration::from_secs(1));

        let consider = |cand: SimTime, now: SimTime, best: &mut SimTime| {
            if cand > now && cand < *best {
                *best = cand;
            }
        };

        // Next price movement in any active zone.
        for (i, z) in self.zones.iter().enumerate() {
            if !z.active && !z.inst.is_billable() {
                continue;
            }
            if let Some((at, _)) = self
                .traces
                .zone(self.cfg.zones[i])
                .next_price_change(self.now)
            {
                consider(at, self.now, &mut t);
            }
        }

        let rules = self.rules();
        for (i, z) in self.zones.iter().enumerate() {
            if let Some(b) = z.billing {
                if let Some(due) = rules.next_settlement(&b) {
                    consider(due, self.now, &mut t);
                    if z.retire {
                        // Wake early enough that the retirement checkpoint
                        // commits exactly at the boundary. When t_c exceeds
                        // the time left in the hour the ideal start is
                        // already past — fire at the next tick instead of
                        // silently dropping the wake-up (which would let
                        // the engine hop straight to the boundary and stop
                        // the zone with no final checkpoint attempt).
                        let cand = due.saturating_sub(self.cfg.costs.checkpoint);
                        if cand > self.now {
                            consider(cand, self.now, &mut t);
                        } else if z.inst.is_up() && self.ckpt.is_none() {
                            consider(self.now + SimDuration::from_secs(1), self.now, &mut t);
                        }
                    }
                }
            }
            if let Some(expiry) = z.notice_until {
                consider(expiry, self.now, &mut t);
            }
            if let redspot_market::InstanceState::Booting { ready_at } = z.inst {
                consider(ready_at, self.now, &mut t);
            }
            if z.inst.is_up() {
                if let Some(pos) = self.replicas.position(i) {
                    let resume = z.busy_until.max(self.now);
                    let finish = resume + (self.cfg.app.work - pos);
                    consider(finish, self.now, &mut t);
                }
            }
        }

        // Fault wake-ups: boot-retry backoff expiries and blackout
        // transitions. Inert under `FaultPlan::none`: `blocked_until`
        // never exceeds `now` and the outage schedules are empty.
        for (i, z) in self.zones.iter().enumerate() {
            if !z.active {
                continue;
            }
            consider(z.blocked_until, self.now, &mut t);
            if let Some(tr) = self.outages[i].next_transition(self.now) {
                consider(tr, self.now, &mut t);
            }
        }

        if let Some(c) = self.ckpt {
            consider(c.done_at, self.now, &mut t);
        }
        consider(self.guard_time(), self.now, &mut t);
        let alarm = self.with_ctx(|policy, ctx| policy.alarm(ctx, t));
        if let Some(a) = alarm {
            consider(a, self.now, &mut t);
        }
        t
    }

    /// Advance the clock to `t`, crediting progress to executing replicas.
    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t > self.now);
        for i in 0..self.zones.len() {
            if !self.zones[i].inst.is_up() {
                continue;
            }
            let from = self.zones[i].busy_until.max(self.now);
            if t > from {
                self.replicas.advance(i, t - from);
            }
        }
        self.now = t;
    }
}
