//! The closed control loop: one policy driving one simulation backend.
//!
//! [`ClosedLoop`] is the one implementation of the paper's per-epoch
//! cycle — observe the last epoch's counters, decide, actuate DVFS —
//! generic over [`fastcap_sim::EpochBackend`] so FastCap / Freq-Par / any
//! [`CappingPolicy`] solves against the exact DES tier or the analytic
//! tier without code changes. Every runner steps it: the bench harness's
//! plain runs, the scenario runner (budget moves, an active-core mask,
//! policy rebuilds on hotplug) and the fleet tiers. Stepping a
//! `ClosedLoop<Server>` is byte-identical to the historical inline
//! `server.run(epochs, |obs| policy.decide(obs).ok())` loop plus the
//! epoch-0 bootstrap decision.
//!
//! A decide error holds the current frequencies for that epoch on every
//! runner — the backends cannot fail mid-run, so neither does the loop —
//! and a traced step records it as a `decide_error` control event plus
//! the `policy.decide_errors` counter.

use crate::policy::CappingPolicy;
use fastcap_core::capper::DvfsDecision;
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::{Error, Result};
use fastcap_sim::metrics::{EpochReport, RunResult};
use fastcap_sim::{EpochBackend, SimConfig};
use fastcap_trace::{DecisionRecord, LaneRecord, TraceEvent, Tracer};

/// A capping policy wired to a simulation backend, stepped one epoch at a
/// time (fleet and scenario use) or run to completion (single-server use).
pub struct ClosedLoop<B: EpochBackend> {
    backend: B,
    /// `None` runs the uncapped baseline: no decisions, every epoch at the
    /// frequencies in force (initially the maximum).
    policy: Option<Box<dyn CappingPolicy>>,
    /// Online cores. The policy models only these, contiguously in mask
    /// order.
    active: Vec<bool>,
    /// Epochs stepped so far (the trace's epoch index).
    epoch: u64,
    /// Backend and policy cost at construction or the last traced step:
    /// the modeled trace clock advances by the work done since.
    clock: (CostCounter, CostCounter),
}

impl<B: EpochBackend> ClosedLoop<B> {
    /// Wires `policy` to `backend`. The policy's configured budget is in
    /// force from epoch 0: with no observation yet, the loop asks the
    /// policy for a [`CappingPolicy::bootstrap`] decision solved from its
    /// initial power laws, so model-predictive policies cap the very first
    /// epoch too. Feedback-only policies (no bootstrap) keep the old
    /// contract — epoch 0 runs uncontrolled at maximum frequencies.
    pub fn new(backend: B, policy: Box<dyn CappingPolicy>) -> Self {
        Self::wire(backend, Some(policy))
    }

    /// The uncapped baseline loop: no policy, so every epoch runs at the
    /// frequencies in force (initially the maximum).
    pub fn uncapped(backend: B) -> Self {
        Self::wire(backend, None)
    }

    fn wire(backend: B, policy: Option<Box<dyn CappingPolicy>>) -> Self {
        let policy_cost = policy
            .as_ref()
            .map_or_else(CostCounter::default, |p| p.decision_cost());
        Self {
            clock: (backend.cost(), policy_cost),
            active: vec![true; backend.config().n_cores],
            backend,
            policy,
            epoch: 0,
        }
    }

    /// The backend being driven.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Deterministic operation counts of the whole loop: the backend's
    /// simulation work merged with the policy's decision-path work.
    pub fn cost(&self) -> CostCounter {
        let mut c = self.backend.cost();
        if let Some(p) = &self.policy {
            c.add(&p.decision_cost());
        }
        c
    }

    /// The backend's configuration.
    pub fn config(&self) -> &SimConfig {
        self.backend.config()
    }

    /// Moves the policy's power cap (fleet re-allocations, scenario budget
    /// steps). Learned state is kept; the next decision re-solves against
    /// the new budget. A no-op for the uncapped loop.
    ///
    /// # Errors
    ///
    /// Propagates [`CappingPolicy::on_budget_change`] (fraction outside
    /// `(0, 1]`); the loop is unchanged on error.
    pub fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        match &mut self.policy {
            Some(p) => p.on_budget_change(fraction),
            None => Ok(()),
        }
    }

    /// Moves the active-core mask (scenario hotplug). From the next step
    /// on, observations are projected onto the online cores before each
    /// decision and decisions are scattered back, offline cores pinned to
    /// the lowest level (the simulator power-gates them regardless).
    ///
    /// The change is offered to the policy as a warm carry
    /// ([`CappingPolicy::on_active_set_change`]): surviving cores keep
    /// their fitted models. `Ok(false)` means the policy declined, and the
    /// caller must [`ClosedLoop::replace_policy`] with one built for the
    /// new online count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a mask whose length is not the
    /// backend's core count, and propagates
    /// [`CappingPolicy::on_active_set_change`].
    pub fn set_active_mask(&mut self, mask: Vec<bool>) -> Result<bool> {
        if mask.len() != self.active.len() {
            return Err(Error::InvalidConfig {
                what: "active-core mask",
                why: format!("{} entries for {} cores", mask.len(), self.active.len()),
            });
        }
        let carried = carry_map(&self.active, &mask);
        self.active = mask;
        match &mut self.policy {
            Some(p) => p.on_active_set_change(&carried),
            None => Ok(true),
        }
    }

    /// Swaps in a rebuilt policy. Its decision-cost counter starts at
    /// zero, so the trace clock's policy snapshot restarts there too.
    pub fn replace_policy(&mut self, policy: Box<dyn CappingPolicy>) {
        self.policy = Some(policy);
        self.clock.1 = CostCounter::default();
    }

    /// Runs one epoch untraced; see [`ClosedLoop::step_traced`].
    pub fn step(&mut self) -> EpochReport {
        self.step_traced(None)
    }

    /// Runs one epoch: observe the last epoch (epoch 0 asks the policy
    /// for its bootstrap decision instead), decide, actuate. A decide
    /// error holds the current frequencies, so stepping never fails.
    ///
    /// When `trace` is `Some`, the epoch appends an epoch span, a decision
    /// record (when the policy decided), a `decide_error` control event
    /// (when it failed) and a lane-engine record to the tracer's ring,
    /// timestamped on the modeled-cost clock ([`ClosedLoop::cost`] deltas
    /// priced by the tracer's weights). Tracing only reads counters the
    /// loop already maintains, so the report is byte-identical with
    /// `trace` `Some` or `None`.
    pub fn step_traced(&mut self, trace: Option<&mut Tracer>) -> EpochReport {
        let obs = self.backend.observation();
        let (observed_w, bank_queue) = obs
            .as_ref()
            .map_or((0.0, 0.0), |o| (o.total_power.get(), o.memory.bank_queue));
        let mut error = None;
        let decision = match (&mut self.policy, obs) {
            (Some(p), Some(o)) => match p.decide(&project(o, &self.active)) {
                Ok(d) => Some(scatter(d, &self.active)),
                Err(e) => {
                    error = Some(e);
                    None
                }
            },
            (Some(p), None) => p.bootstrap().map(|d| scatter(d, &self.active)),
            (None, _) => None,
        };
        let report = self.backend.run_epoch(decision.as_ref());
        if let Some(t) = trace {
            self.record(t, &report, decision.as_ref(), error, observed_w, bank_queue);
        }
        self.epoch += 1;
        report
    }

    /// Runs `epochs` epochs and packages the reports.
    pub fn run(&mut self, epochs: usize) -> RunResult {
        self.run_traced(epochs, None)
    }

    /// [`ClosedLoop::run`] with an optional audit-trail tracer, stepped
    /// through [`ClosedLoop::step_traced`].
    pub fn run_traced(&mut self, epochs: usize, mut trace: Option<&mut Tracer>) -> RunResult {
        let reports = (0..epochs)
            .map(|_| self.step_traced(trace.as_deref_mut()))
            .collect();
        RunResult::new(self.backend.config(), reports)
    }

    /// Appends one stepped epoch's events to `t` and advances its clock.
    fn record(
        &mut self,
        t: &mut Tracer,
        report: &EpochReport,
        decision: Option<&DvfsDecision>,
        error: Option<Error>,
        observed_w: f64,
        bank_queue: f64,
    ) {
        let e = self.epoch;
        let backend_now = self.backend.cost();
        let policy_now = self
            .policy
            .as_ref()
            .map_or_else(CostCounter::default, |p| p.decision_cost());
        let backend_delta = backend_now.delta_since(&self.clock.0);
        let policy_delta = policy_now.delta_since(&self.clock.1);
        self.clock = (backend_now, policy_now);
        let t_start_ns = t.now_ns();
        let mut epoch_delta = backend_delta;
        epoch_delta.add(&policy_delta);
        t.advance(&epoch_delta);
        let measured_w = report.total_power.get();
        t.record_at(
            t_start_ns,
            TraceEvent::EpochSpan {
                epoch: e,
                t_start_ns,
                t_end_ns: t.now_ns(),
                power_w: measured_w,
            },
        );
        if let (Some(p), Some(d)) = (&self.policy, decision) {
            let budget_w = p.in_force_budget().map(fastcap_core::units::Watts::get);
            t.record(TraceEvent::Decision(DecisionRecord {
                epoch: e,
                policy: p.name().to_string(),
                budget_w,
                observed_w,
                solver_iters: policy_delta.solver_iters,
                candidates: policy_delta.grid_points + policy_delta.bus_evals,
                core_freqs: d.core_freqs.clone(),
                mem_freq: d.mem_freq,
                predicted_w: d.predicted_power.get(),
                quantized_w: d.quantized_power.get(),
                trim_w: d.budget_trim.get(),
                measured_w,
                slack_w: budget_w.map(|b| b - measured_w),
                budget_bound: d.budget_bound,
                emergency: d.emergency,
                decide_ns: t.price_ns(&policy_delta),
            }));
            t.metrics.counter_add("policy.decisions", 1);
            if let Some(b) = budget_w {
                if b > 0.0 {
                    t.metrics.histogram_observe(
                        "policy.overshoot_pct",
                        &[0.0, 1.0, 2.0, 5.0, 10.0, 20.0],
                        (measured_w - b) / b * 100.0,
                    );
                }
            }
        }
        if let Some(err) = error {
            t.record(TraceEvent::Control {
                epoch: e,
                kind: "decide_error",
                detail: err.to_string(),
            });
            t.metrics.counter_add("policy.decide_errors", 1);
        }
        t.record(TraceEvent::Lane(LaneRecord {
            epoch: e,
            prefill_draws: backend_delta.rng_draws,
            refill_fallbacks: backend_delta.lane_syncs,
            barrier_waits: backend_delta.barrier_waits,
        }));
        t.metrics.gauge_set("sim.mem_bank_queue", bank_queue);
    }
}

/// Builds the warm-carry map for an online-mask change: entry `j` of the
/// result names the position (within the *previous* online set) of the
/// `j`-th newly-online core, or `None` for a core that was offline before
/// (no prior state). Policies model online cores contiguously in mask
/// order, so positions — not raw core indices — are what carries.
fn carry_map(prev: &[bool], now: &[bool]) -> Vec<Option<usize>> {
    let mut at = 0usize;
    let prev_pos: Vec<Option<usize>> = prev
        .iter()
        .map(|&a| {
            at += usize::from(a);
            a.then(|| at - 1)
        })
        .collect();
    now.iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(c, _)| prev_pos[c])
        .collect()
}

/// Projects an observation onto the online cores (moved through untouched
/// for a full mask).
fn project(mut obs: EpochObservation, mask: &[bool]) -> EpochObservation {
    if mask.iter().all(|&a| a) {
        return obs;
    }
    let mut keep = mask.iter().copied();
    obs.cores.retain(|_| keep.next().unwrap_or(false));
    if !obs.access_weights.is_empty() {
        let mut keep = mask.iter().copied();
        obs.access_weights.retain(|_| keep.next().unwrap_or(false));
    }
    obs
}

/// Scatters a decision over the online cores back to the full core list;
/// offline cores are pinned to the lowest frequency (they are power-gated
/// in the simulator regardless).
fn scatter(d: DvfsDecision, mask: &[bool]) -> DvfsDecision {
    if mask.iter().all(|&a| a) {
        return d;
    }
    let mut it = d.core_freqs.iter().copied();
    let core_freqs = mask
        .iter()
        .map(|&a| if a { it.next().unwrap_or(0) } else { 0 })
        .collect();
    DvfsDecision { core_freqs, ..d }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FastCapPolicy;
    use fastcap_sim::{AnalyticServer, Server};
    use fastcap_workloads::mixes;

    fn cfg() -> SimConfig {
        SimConfig::ispass(4).unwrap().with_time_dilation(200.0)
    }

    fn policy(budget: f64) -> Box<dyn CappingPolicy> {
        let cfg = cfg().controller_config(budget).unwrap();
        Box::new(FastCapPolicy::new(cfg).unwrap())
    }

    /// The extracted loop must reproduce an inline observe → decide →
    /// actuate loop exactly, including the epoch-0 bootstrap decision.
    #[test]
    fn matches_inline_policy_loop() {
        let mix = mixes::by_name("MEM3").unwrap();
        let mut inline_policy = FastCapPolicy::new(cfg().controller_config(0.6).unwrap()).unwrap();
        let mut inline_srv = Server::for_workload(cfg(), &mix, 11).unwrap();
        let mut reports = Vec::new();
        for _ in 0..6 {
            let d = match fastcap_sim::EpochBackend::observation(&inline_srv) {
                Some(obs) => inline_policy.decide(&obs).ok(),
                None => inline_policy.bootstrap(),
            };
            reports.push(fastcap_sim::EpochBackend::run_epoch(
                &mut inline_srv,
                d.as_ref(),
            ));
        }
        let server = Server::for_workload(cfg(), &mix, 11).unwrap();
        let got = ClosedLoop::new(server, policy(0.6)).run(6);
        assert_eq!(got.epochs, reports);
        // And epoch 0 actually ran capped: the bootstrap decision holds
        // the first epoch's power near the cap instead of at peak.
        let peak = cfg().peak_power.get();
        assert!(
            got.epochs[0].total_power.get() < 0.9 * peak,
            "epoch 0 ran uncontrolled: {} of peak {peak}",
            got.epochs[0].total_power
        );
    }

    /// Same policy code, analytic tier — the ladder's cheap rung.
    #[test]
    fn drives_the_analytic_backend() {
        let mix = mixes::by_name("MEM3").unwrap();
        let server = AnalyticServer::for_workload(cfg(), &mix, 11).unwrap();
        let mut cl = ClosedLoop::new(server, policy(0.5));
        let r = cl.run(12);
        assert_eq!(r.epochs.len(), 12);
        let budget = cfg().peak_power.get() * 0.5;
        // The settled mean respects the cap (5% controller tolerance).
        let avg = r.avg_power(6).get();
        assert!(avg <= budget * 1.05, "settled mean {avg} > budget {budget}");
        assert!(cl.backend().ops() > 0);
    }

    #[test]
    fn budget_moves_take_effect_and_validate() {
        let mix = mixes::by_name("MID1").unwrap();
        let server = AnalyticServer::for_workload(cfg(), &mix, 5).unwrap();
        let mut cl = ClosedLoop::new(server, policy(0.9));
        for _ in 0..4 {
            cl.step();
        }
        assert!(cl.set_budget_fraction(1.5).is_err());
        cl.set_budget_fraction(0.6).unwrap();
        let mut post = Vec::new();
        for _ in 0..8 {
            post.push(cl.step().total_power.get());
        }
        let settled = post[4..].iter().sum::<f64>() / 4.0;
        let budget = cfg().peak_power.get() * 0.6;
        assert!(settled <= budget * 1.05, "settled {settled} > {budget}");
    }

    #[test]
    fn carry_map_positions_survivors() {
        // 4 cores, core 1 goes offline: survivors 0,2,3 keep positions.
        let all = [true, true, true, true];
        let off1 = [true, false, true, true];
        assert_eq!(carry_map(&all, &off1), vec![Some(0), Some(2), Some(3)]);
        // Core 1 returns: it is cold (None), the rest map back.
        assert_eq!(
            carry_map(&off1, &all),
            vec![Some(0), None, Some(1), Some(2)]
        );
        // Simultaneous swap: 1 returns while 3 leaves.
        let off3 = [true, true, true, false];
        assert_eq!(carry_map(&off1, &off3), vec![Some(0), None, Some(1)]);
        // No change: identity.
        assert_eq!(
            carry_map(&all, &all),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn projection_and_scatter_are_inverse_shapes() {
        use fastcap_core::counters::{CoreSample, MemorySample};
        use fastcap_core::units::{Hz, Secs, Watts};
        let obs = EpochObservation::single(
            (0..4)
                .map(|i| CoreSample {
                    freq: Hz::from_ghz(4.0),
                    busy_time_per_instruction: Secs::from_nanos(0.3),
                    instructions: 1000 + i,
                    last_level_misses: 100,
                    power: Watts(4.0),
                })
                .collect(),
            MemorySample {
                bus_freq: Hz::from_mhz(800.0),
                bank_queue: 1.0,
                bus_queue: 1.0,
                bank_service_time: Secs::from_nanos(20.0),
                power: Watts(20.0),
            },
            Watts(50.0),
        );
        let mask = [true, false, true, false];
        assert_eq!(project(obs.clone(), &[true; 4]), obs);
        let p = project(obs, &mask);
        assert_eq!(p.cores.len(), 2);
        assert_eq!(p.cores[0].instructions, 1000);
        assert_eq!(p.cores[1].instructions, 1002);
        let d = DvfsDecision {
            core_freqs: vec![7, 3],
            mem_freq: 5,
            predicted_power: Watts(40.0),
            quantized_power: Watts(40.0),
            budget_trim: Watts(0.0),
            degradation: 1.1,
            budget_bound: true,
            emergency: false,
        };
        let full = scatter(d, &mask);
        assert_eq!(full.core_freqs, vec![7, 0, 3, 0]);
        assert_eq!(full.mem_freq, 5);
    }

    /// The uncapped loop never decides: it matches the backend's own
    /// policy-free run, and budget moves are no-ops.
    #[test]
    fn uncapped_loop_matches_a_policy_free_run() {
        let mix = mixes::by_name("MIX1").unwrap();
        let plain = Server::for_workload(cfg(), &mix, 3)
            .unwrap()
            .run(5, |_| None);
        let mut cl = ClosedLoop::uncapped(Server::for_workload(cfg(), &mix, 3).unwrap());
        cl.set_budget_fraction(0.5).unwrap();
        assert!(cl.set_active_mask(vec![true; 3]).is_err());
        assert_eq!(cl.run(5), plain);
    }
}
