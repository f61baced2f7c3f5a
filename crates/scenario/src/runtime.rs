//! The scenario interpreter: compiles a [`Scenario`] into (a) timed
//! control events injected into the simulator's timing wheel and (b) an
//! epoch-indexed policy-side schedule (budget moves, active-core masks),
//! then drives the epoch loop.
//!
//! ## Determinism contract
//!
//! Server-side actions ride the existing `(time, FIFO-seq)` event order of
//! the DES engine; policy-side actions apply at fixed epoch indices before
//! that epoch's decision. Nothing depends on wall clock or worker count,
//! so scenario artifacts are byte-identical at any `--jobs` value, and an
//! empty scenario reproduces a plain run byte for byte (pinned by the
//! proptests in this crate).
//!
//! ## Hotplug and the policy
//!
//! The runner steps one [`ClosedLoop`] over the installed server; the
//! loop owns observe → decide → actuate and the trace records. Budget
//! moves go through [`CappingPolicy::on_budget_change`]: learned state
//! survives and the next decision re-solves against the new cap.
//! Active-set changes move the loop's core mask (observations projected
//! onto the online cores, decisions scattered back) and **warm-carry**
//! the policy: surviving cores keep their fitted models, so the
//! `scn_hotplug` transient isolates re-allocation. Policies that decline
//! the carry ([`CappingPolicy::on_active_set_change`] returns `false`)
//! are **rebuilt** by the factory for the new online core count and
//! re-converge their power models over the next few epochs.

use crate::format::{Action, Scenario};
use fastcap_core::error::{Error, Result};
use fastcap_policies::{CappingPolicy, ClosedLoop};
use fastcap_sim::{ControlAction, RunResult, Server};
use fastcap_trace::{TraceEvent, Tracer};
use fastcap_workloads::{spec, AppInstance, PhaseSpec};

/// Builds a policy for `n_active` online cores under `budget_fraction`.
/// Called once up front and again on every active-set change the policy
/// declines to warm-carry.
pub type PolicyFactory<'a> = dyn FnMut(usize, f64) -> Result<Box<dyn CappingPolicy>> + 'a;

/// A compiled scenario, ready to install on a server and run.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    n_cores: usize,
    initial_budget: f64,
    /// `(epoch, fraction)` budget moves, epoch-sorted (ramps expanded to
    /// one step per epoch).
    budget_schedule: Vec<(u64, f64)>,
    /// `(epoch, mask)` active-set changes, epoch-sorted and cumulative.
    mask_schedule: Vec<(u64, Vec<bool>)>,
    /// Server-side actions, epoch-sorted (stable within an epoch in
    /// declaration order).
    server_actions: Vec<(u64, ControlAction)>,
}

impl ScenarioRunner {
    /// Compiles a validated scenario. `initial_budget` is the budget
    /// fraction in force at epoch 0 (ramps start from the running value).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the scenario fails its lints
    /// or `initial_budget` is outside `(0, 1]`.
    pub fn new(scenario: &Scenario, initial_budget: f64) -> Result<Self> {
        scenario.validate().map_err(|why| Error::InvalidConfig {
            what: "scenario",
            why,
        })?;
        if !(initial_budget > 0.0 && initial_budget <= 1.0) {
            return Err(Error::InvalidConfig {
                what: "scenario",
                why: format!("initial budget fraction {initial_budget} outside (0, 1]"),
            });
        }
        let n = scenario.n_cores;
        let mut events: Vec<&crate::format::ScenarioEvent> = scenario.events.iter().collect();
        events.sort_by_key(|e| e.at_epoch);

        let mut budget_schedule = Vec::new();
        let mut mask_schedule = Vec::new();
        let mut server_actions = Vec::new();
        let mut budget = initial_budget;
        let mut mask = vec![true; n];
        let expand = |cores: &[usize]| -> Vec<usize> {
            if cores.is_empty() {
                (0..n).collect()
            } else {
                cores.to_vec()
            }
        };
        for ev in events {
            let at = ev.at_epoch;
            match &ev.action {
                Action::BudgetStep { fraction } => {
                    budget = *fraction;
                    budget_schedule.push((at, budget));
                }
                Action::BudgetRamp {
                    to_fraction,
                    over_epochs,
                } => {
                    let from = budget;
                    let k = *over_epochs;
                    for j in 0..k {
                        let f = from + (to_fraction - from) * (j + 1) as f64 / k as f64;
                        budget_schedule.push((at + j, f));
                    }
                    budget = *to_fraction;
                }
                Action::CoresOffline { cores } => {
                    for &c in cores {
                        mask[c] = false;
                        server_actions.push((
                            at,
                            ControlAction::SetOnline {
                                core: c,
                                online: false,
                            },
                        ));
                    }
                    mask_schedule.push((at, mask.clone()));
                }
                Action::CoresOnline { cores } => {
                    for &c in cores {
                        mask[c] = true;
                        server_actions.push((
                            at,
                            ControlAction::SetOnline {
                                core: c,
                                online: true,
                            },
                        ));
                    }
                    mask_schedule.push((at, mask.clone()));
                }
                Action::IntensityScale { factor, cores } => {
                    for c in expand(cores) {
                        server_actions.push((
                            at,
                            ControlAction::SetIntensity {
                                core: c,
                                factor: *factor,
                            },
                        ));
                    }
                }
                Action::Overlay {
                    period_epochs,
                    amplitude,
                    cores,
                } => {
                    let phase = PhaseSpec {
                        period_epochs: *period_epochs,
                        amplitude: *amplitude,
                        ripple_period_epochs: 1.0,
                        ripple_amplitude: 0.0,
                        offset: 0.0,
                        mode_period_epochs: 0.0,
                        mode_amplitude: 0.0,
                    };
                    for c in expand(cores) {
                        server_actions.push((
                            at,
                            ControlAction::SetOverlay {
                                core: c,
                                phase: Some(phase),
                            },
                        ));
                    }
                }
                Action::SwapApp { core, app } => {
                    let profile = spec::base(app).expect("linted: app exists");
                    server_actions.push((
                        at,
                        ControlAction::SwapApp {
                            core: *core,
                            // Copy index = core index: deterministic
                            // de-phasing for arrivals on any core.
                            app: Box::new(AppInstance::new(&profile, *core)),
                        },
                    ));
                }
            }
        }
        Ok(Self {
            n_cores: n,
            initial_budget,
            budget_schedule,
            mask_schedule,
            server_actions,
        })
    }

    /// The budget fraction in force at epoch 0.
    pub fn initial_budget(&self) -> f64 {
        self.initial_budget
    }

    /// The platform core count the compiled scenario targets.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// The compiled `(epoch, fraction)` budget moves, epoch-sorted (ramps
    /// expanded to one step per epoch). Artifact runners derive their
    /// transient-metric windows from this rather than hard-coding epochs,
    /// so `--scenario` overrides keep the summaries meaningful.
    pub fn budget_moves(&self) -> &[(u64, f64)] {
        &self.budget_schedule
    }

    /// The compiled `(epoch, online-mask)` hotplug moves, epoch-sorted and
    /// cumulative.
    pub fn mask_moves(&self) -> &[(u64, Vec<bool>)] {
        &self.mask_schedule
    }

    /// The budget fraction in force at each of the first `epochs` epochs
    /// (initial value replayed through the compiled move schedule, each
    /// move effective from its own epoch). The single source of truth for
    /// per-epoch budget semantics — the invariant oracle's compliance
    /// windows and the matrix runner's overshoot denominators both read
    /// this, so they can never disagree.
    pub fn budget_trace(&self, epochs: usize) -> Vec<f64> {
        let mut frac = self.initial_budget;
        let mut moves = self.budget_schedule.iter().peekable();
        (0..epochs as u64)
            .map(|e| {
                while let Some(&&(me, f)) = moves.peek() {
                    if me <= e {
                        frac = f;
                        moves.next();
                    } else {
                        break;
                    }
                }
                frac
            })
            .collect()
    }

    /// The online mask in force at each of the first `epochs` epochs
    /// (`None` until the first hotplug move — the machine is still
    /// full). Like [`ScenarioRunner::budget_trace`], this is the single
    /// source of truth for per-epoch hotplug semantics: the same cursor
    /// the epoch loop applies, replayed for the oracle's offline-gating
    /// windows.
    pub fn mask_trace(&self, epochs: usize) -> Vec<Option<Vec<bool>>> {
        let mut mask: Option<Vec<bool>> = None;
        let mut moves = self.mask_schedule.iter().peekable();
        (0..epochs as u64)
            .map(|e| {
                while let Some((me, m)) = moves.peek() {
                    if *me <= e {
                        mask = Some(m.clone());
                        moves.next();
                    } else {
                        break;
                    }
                }
                mask.clone()
            })
            .collect()
    }

    /// The compiled server-side actions, epoch-sorted.
    pub fn server_moves(&self) -> &[(u64, ControlAction)] {
        &self.server_actions
    }

    /// Schedules the server-side actions into the server's event stream.
    /// Call once, before the first epoch runs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the server's core count does
    /// not match the scenario, or scheduling fails.
    pub fn install(&self, server: &mut Server) -> Result<()> {
        self.check_cores(server)?;
        for (epoch, action) in &self.server_actions {
            server.schedule_control(*epoch, action.clone())?;
        }
        Ok(())
    }

    /// Runs `epochs` epochs of the scenario on an installed server.
    /// `factory` builds the capping policy (and rebuilds it when a hotplug
    /// move is not warm-carried); `None` runs the uncapped baseline
    /// (maximum frequencies) under the same scenario perturbations.
    ///
    /// # Errors
    ///
    /// Propagates policy construction failures and budget-change or
    /// active-set-change rejections; a decide error only holds the
    /// current frequencies for its epoch.
    pub fn run(
        &self,
        server: &mut Server,
        epochs: usize,
        factory: Option<&mut PolicyFactory<'_>>,
    ) -> Result<RunResult> {
        self.run_traced(server, epochs, factory, None)
    }

    /// [`ScenarioRunner::run`] with an optional audit-trail tracer. Each
    /// epoch applies the scenario's budget and mask moves (recording a
    /// control event per move when `trace` is `Some`), then steps the
    /// [`ClosedLoop`], which records the epoch span, decision and lane
    /// records on the modeled-cost clock. Tracing reads the counters the
    /// run already maintains and never mutates them, so the simulated
    /// artifact bytes are identical with `trace` `Some` or `None` (pinned
    /// by this crate's tests and the bench trace goldens).
    ///
    /// # Errors
    ///
    /// As [`ScenarioRunner::run`].
    pub fn run_traced(
        &self,
        server: &mut Server,
        epochs: usize,
        mut factory: Option<&mut PolicyFactory<'_>>,
        mut trace: Option<&mut Tracer>,
    ) -> Result<RunResult> {
        self.check_cores(server)?;
        let n = self.n_cores;
        let mut budget = self.initial_budget;
        let mut cl = match factory.as_mut() {
            Some(f) => ClosedLoop::new(server, f(n, budget)?),
            None => ClosedLoop::uncapped(server),
        };
        let mut bi = 0;
        let mut mi = 0;
        let mut reports = Vec::with_capacity(epochs);
        for e in 0..epochs as u64 {
            let mut mask = None;
            while mi < self.mask_schedule.len() && self.mask_schedule[mi].0 <= e {
                mask = Some(&self.mask_schedule[mi].1);
                mi += 1;
            }
            let mut budget_changed = false;
            while bi < self.budget_schedule.len() && self.budget_schedule[bi].0 <= e {
                budget = self.budget_schedule[bi].1;
                bi += 1;
                budget_changed = true;
            }
            if let (true, Some(t)) = (budget_changed, trace.as_deref_mut()) {
                t.record(TraceEvent::Control {
                    epoch: e,
                    kind: "budget_step",
                    detail: format!("fraction={budget}"),
                });
                t.metrics.counter_add("scenario.budget_moves", 1);
            }
            if let Some(mask) = mask {
                let online = mask.iter().filter(|&&a| a).count();
                if let Some(t) = trace.as_deref_mut() {
                    t.record(TraceEvent::Control {
                        epoch: e,
                        kind: "hotplug",
                        detail: format!("online={online}/{n}"),
                    });
                    t.metrics.counter_add("scenario.hotplug_moves", 1);
                }
                if !cl.set_active_mask(mask.clone())? {
                    // The policy declined the warm carry: rebuild it for
                    // the new online set, already under the in-force
                    // budget.
                    let f = factory.as_mut().expect("only a policy declines carry");
                    cl.replace_policy(f(online, budget)?);
                    budget_changed = false;
                }
            }
            if budget_changed {
                cl.set_budget_fraction(budget)?;
            }
            reports.push(cl.step_traced(trace.as_deref_mut()));
        }
        Ok(RunResult::new(cl.config(), reports))
    }

    fn check_cores(&self, server: &Server) -> Result<()> {
        let n = server.config().n_cores;
        if n == self.n_cores {
            return Ok(());
        }
        Err(Error::InvalidConfig {
            what: "scenario",
            why: format!(
                "scenario targets {} cores but the server has {n}",
                self.n_cores
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ScenarioEvent;
    use fastcap_core::capper::DvfsDecision;
    use fastcap_core::cost::CostCounter;
    use fastcap_core::counters::EpochObservation;
    use fastcap_core::units::Watts;
    use fastcap_policies::FastCapPolicy;
    use fastcap_sim::SimConfig;
    use fastcap_workloads::mixes;

    fn quick_cfg(n: usize) -> SimConfig {
        SimConfig::ispass(n)
            .unwrap()
            .with_time_dilation(100.0)
            .with_meter_noise(0.0)
    }

    fn server(mix: &str, seed: u64) -> Server {
        Server::for_workload(quick_cfg(16), &mixes::by_name(mix).unwrap(), seed).unwrap()
    }

    fn fastcap_factory(
        cfg: &SimConfig,
    ) -> impl FnMut(usize, f64) -> Result<Box<dyn CappingPolicy>> + '_ {
        move |n_active, budget| {
            let ctl = cfg.controller_config_n(budget, n_active)?;
            Ok(Box::new(FastCapPolicy::new(ctl)?) as Box<dyn CappingPolicy>)
        }
    }

    /// FastCap behind a test seam: `carry: false` declines warm carry, so
    /// every hotplug move takes the factory-rebuild fallback, and decide
    /// call `n` fails for each `n` in `fail` (call 1 decides epoch 1;
    /// epoch 0 is the bootstrap).
    struct Stub {
        inner: FastCapPolicy,
        carry: bool,
        fail: &'static [u64],
        calls: u64,
    }

    impl Stub {
        fn boxed(
            inner: FastCapPolicy,
            carry: bool,
            fail: &'static [u64],
        ) -> Box<dyn CappingPolicy> {
            Box::new(Stub {
                inner,
                carry,
                fail,
                calls: 0,
            })
        }
    }

    impl CappingPolicy for Stub {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
            self.calls += 1;
            if self.fail.contains(&self.calls) {
                return Err(Error::InvalidModel {
                    why: format!("stub failure on call {}", self.calls),
                });
            }
            self.inner.decide(obs)
        }
        fn bootstrap(&mut self) -> Option<DvfsDecision> {
            self.inner.bootstrap()
        }
        fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
            self.inner.on_budget_change(fraction)
        }
        fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool> {
            if self.carry {
                self.inner.on_active_set_change(carried)
            } else {
                Ok(false)
            }
        }
        fn decision_cost(&self) -> CostCounter {
            self.inner.decision_cost()
        }
        fn in_force_budget(&self) -> Option<Watts> {
            self.inner.in_force_budget()
        }
    }

    /// A FastCap factory that records each build's online core count;
    /// `carry: false` declines warm carry (see [`Stub`]).
    fn recording_factory<'a>(
        cfg: &'a SimConfig,
        carry: bool,
        builds: &'a mut Vec<usize>,
    ) -> impl FnMut(usize, f64) -> Result<Box<dyn CappingPolicy>> + 'a {
        move |n_active, budget| {
            builds.push(n_active);
            let p = FastCapPolicy::new(cfg.controller_config_n(budget, n_active)?)?;
            Ok(Stub::boxed(p, carry, &[]))
        }
    }

    fn scenario(events: Vec<ScenarioEvent>) -> Scenario {
        Scenario {
            name: "test".into(),
            description: "runtime test".into(),
            n_cores: 16,
            events,
        }
    }

    #[test]
    fn empty_scenario_matches_plain_capped_run() {
        use fastcap_sim::EpochBackend;
        let cfg = quick_cfg(16);
        let mix = mixes::by_name("MID2").unwrap();
        // Plain run, the way the bench harness drives it (observe → decide,
        // with the epoch-0 bootstrap the harness's ClosedLoop also takes).
        let mut plain_policy = FastCapPolicy::new(cfg.controller_config(0.6).unwrap()).unwrap();
        let mut plain = Server::for_workload(cfg.clone(), &mix, 11).unwrap();
        let mut reports = Vec::new();
        for _ in 0..12 {
            let d = match EpochBackend::observation(&plain) {
                Some(obs) => plain_policy.decide(&obs).ok(),
                None => plain_policy.bootstrap(),
            };
            reports.push(EpochBackend::run_epoch(&mut plain, d.as_ref()));
        }
        let r_plain = RunResult::new(&cfg, reports);
        // Scenario run with zero events.
        let runner = ScenarioRunner::new(&Scenario::empty(16), 0.6).unwrap();
        let mut srv = Server::for_workload(cfg.clone(), &mix, 11).unwrap();
        runner.install(&mut srv).unwrap();
        let mut factory = fastcap_factory(&cfg);
        let r_scn = runner.run(&mut srv, 12, Some(&mut factory)).unwrap();
        assert_eq!(r_plain, r_scn);
    }

    #[test]
    fn decide_errors_hold_frequencies_in_both_runners() {
        let cfg = quick_cfg(16);
        let mix = mixes::by_name("MID2").unwrap();
        let flaky = |n_active: usize, budget: f64| -> Result<Box<dyn CappingPolicy>> {
            let ctl = cfg.controller_config_n(budget, n_active)?;
            Ok(Stub::boxed(FastCapPolicy::new(ctl)?, true, &[3, 4, 9]))
        };
        let tracer = || Tracer::new(1 << 12, [1.0; fastcap_core::cost::OPS.len()]);

        let mut t_plain = tracer();
        let srv = Server::for_workload(cfg.clone(), &mix, 11).unwrap();
        let r_plain =
            ClosedLoop::new(srv, flaky(16, 0.6).unwrap()).run_traced(14, Some(&mut t_plain));

        let runner = ScenarioRunner::new(&Scenario::empty(16), 0.6).unwrap();
        let mut srv = Server::for_workload(cfg.clone(), &mix, 11).unwrap();
        runner.install(&mut srv).unwrap();
        let mut factory = flaky;
        let mut t_scn = tracer();
        let r_scn = runner
            .run_traced(&mut srv, 14, Some(&mut factory), Some(&mut t_scn))
            .expect("a decide error must not abort the scenario run");

        assert_eq!(r_plain, r_scn);
        // Each failed epoch holds the frequencies of the epoch before it.
        for e in [3, 4, 9] {
            assert_eq!(
                r_plain.epochs[e].core_freq_idx,
                r_plain.epochs[e - 1].core_freq_idx,
                "epoch {e}"
            );
        }
        let errors = |t: &Tracer| -> Vec<u64> {
            t.events()
                .filter_map(|s| match &s.event {
                    TraceEvent::Control {
                        epoch,
                        kind: "decide_error",
                        ..
                    } => Some(*epoch),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(errors(&t_plain), vec![3, 4, 9]);
        assert_eq!(
            t_plain.metrics.get("policy.decide_errors"),
            Some(&fastcap_trace::Metric::Counter(3))
        );
        // One loop: the whole audit trail matches, not only the errors.
        assert!(t_plain.events().eq(t_scn.events()));
        assert_eq!(t_plain.metrics, t_scn.metrics);
    }

    #[test]
    fn budget_step_caps_power_within_epochs() {
        let cfg = quick_cfg(16);
        let s = scenario(vec![ScenarioEvent {
            at_epoch: 8,
            action: Action::BudgetStep { fraction: 0.5 },
        }]);
        let runner = ScenarioRunner::new(&s, 0.9).unwrap();
        let mut srv = server("MID1", 5);
        runner.install(&mut srv).unwrap();
        let mut factory = fastcap_factory(&cfg);
        let r = runner.run(&mut srv, 20, Some(&mut factory)).unwrap();
        let budget_lo = 120.0 * 0.5;
        // Before the step, power may exceed the later cap...
        assert!(r.epochs[6].total_power.get() > budget_lo);
        // ...within a few epochs after it, power is under the new cap.
        for e in 12..20 {
            assert!(
                r.epochs[e].total_power.get() <= budget_lo * 1.05,
                "epoch {e}: {} over stepped cap",
                r.epochs[e].total_power
            );
        }
    }

    #[test]
    fn budget_ramp_descends_monotonically() {
        let cfg = quick_cfg(16);
        let s = scenario(vec![ScenarioEvent {
            at_epoch: 5,
            action: Action::BudgetRamp {
                to_fraction: 0.5,
                over_epochs: 10,
            },
        }]);
        let runner = ScenarioRunner::new(&s, 0.9).unwrap();
        // The compiled schedule has 10 steps ending exactly at 0.5.
        assert_eq!(runner.budget_schedule.len(), 10);
        assert_eq!(runner.budget_schedule[0].0, 5);
        assert_eq!(runner.budget_schedule[9].0, 14);
        assert!((runner.budget_schedule[9].1 - 0.5).abs() < 1e-12);
        for w in runner.budget_schedule.windows(2) {
            assert!(w[1].1 < w[0].1, "ramp must descend: {w:?}");
        }
        let mut srv = server("MID1", 6);
        runner.install(&mut srv).unwrap();
        let mut factory = fastcap_factory(&cfg);
        let r = runner.run(&mut srv, 22, Some(&mut factory)).unwrap();
        // End state respects the final cap.
        for e in 18..22 {
            assert!(r.epochs[e].total_power.get() <= 60.0 * 1.05, "epoch {e}");
        }
    }

    #[test]
    fn hotplug_rebuilds_and_reallocates() {
        let cfg = quick_cfg(16);
        let s = scenario(vec![
            ScenarioEvent {
                at_epoch: 6,
                action: Action::CoresOffline {
                    cores: vec![0, 1, 2, 3],
                },
            },
            ScenarioEvent {
                at_epoch: 14,
                action: Action::CoresOnline {
                    cores: vec![0, 1, 2, 3],
                },
            },
        ]);
        // A policy that declines warm carry: this test pins the
        // factory-rebuild fallback.
        let runner = ScenarioRunner::new(&s, 0.6).unwrap();
        let mut rebuilds = Vec::new();
        let mut factory = recording_factory(&cfg, false, &mut rebuilds);
        let mut srv = server("MID1", 7);
        runner.install(&mut srv).unwrap();
        let r = runner.run(&mut srv, 20, Some(&mut factory)).unwrap();
        drop(factory);
        assert_eq!(rebuilds, vec![16, 12, 16], "initial + two hotplug rebuilds");
        // Offline window: cores 0-3 are gated, decisions still apply to
        // the remaining 12.
        assert_eq!(r.epochs[10].core_power[2], fastcap_core::units::Watts::ZERO);
        assert!(r.epochs[10].core_power[8].get() > 0.5);
        // After the return, all cores execute again.
        assert!(r.epochs[18].instructions[2] > 0.0);
        // Power stays under the (unchanged) machine budget throughout the
        // steady windows.
        for e in [4, 5, 11, 12, 13, 18, 19] {
            assert!(
                r.epochs[e].total_power.get() <= 72.0 * 1.08,
                "epoch {e}: {}",
                r.epochs[e].total_power
            );
        }
    }

    #[test]
    fn warm_hotplug_carries_models_instead_of_rebuilding() {
        // The warm-carry pin: through an offline/online cycle the policy
        // is built exactly once, the pre-event epochs match the rebuild
        // path byte for byte, and the transient isolates *allocation* —
        // the carried models keep capping tightly where the rebuilt
        // controller must re-fit from its initial laws first.
        let cfg = quick_cfg(16);
        let s = scenario(vec![
            ScenarioEvent {
                at_epoch: 6,
                action: Action::CoresOffline {
                    cores: vec![0, 1, 2, 3],
                },
            },
            ScenarioEvent {
                at_epoch: 14,
                action: Action::CoresOnline {
                    cores: vec![0, 1, 2, 3],
                },
            },
        ]);
        let runner = ScenarioRunner::new(&s, 0.6).unwrap();
        let run_with = |warm: bool| {
            let mut builds = Vec::new();
            let mut factory = recording_factory(&cfg, warm, &mut builds);
            let mut srv = server("MID1", 7);
            runner.install(&mut srv).unwrap();
            let r = runner.run(&mut srv, 24, Some(&mut factory)).unwrap();
            drop(factory);
            (r, builds)
        };
        let (r_warm, b_warm) = run_with(true);
        let (r_rebuild, b_rebuild) = run_with(false);
        assert_eq!(b_rebuild, vec![16, 12, 16], "rebuild path unchanged");
        assert_eq!(b_warm, vec![16], "warm carry never rebuilds");
        for e in 0..6 {
            assert_eq!(
                r_warm.epochs[e], r_rebuild.epochs[e],
                "epoch {e}: identical before the first hotplug event"
            );
        }
        assert_ne!(
            r_warm.epochs[7..14],
            r_rebuild.epochs[7..14],
            "carried models must actually change post-hotplug decisions"
        );
        // After the cores return, the warm policy's worst transient above
        // the cap is no worse than the rebuilt policy's (its models never
        // went cold; only the returning four start fresh either way).
        let budget = 120.0 * 0.6;
        let worst = |r: &RunResult| {
            r.epochs[14..]
                .iter()
                .map(|ep| (ep.total_power.get() - budget) / budget)
                .fold(0.0f64, f64::max)
        };
        assert!(
            worst(&r_warm) <= worst(&r_rebuild) + 1e-9,
            "warm {} vs rebuild {}",
            worst(&r_warm),
            worst(&r_rebuild)
        );
    }

    #[test]
    fn uncapped_baseline_sees_the_same_scenario() {
        let s = scenario(vec![ScenarioEvent {
            at_epoch: 4,
            action: Action::IntensityScale {
                factor: 10.0,
                cores: vec![],
            },
        }]);
        let runner = ScenarioRunner::new(&s, 0.6).unwrap();
        let mut srv = server("MIX2", 9);
        runner.install(&mut srv).unwrap();
        let r = runner.run(&mut srv, 10, None).unwrap();
        // Uncapped: everything stays at maximum frequency...
        assert!(r.epochs[8].core_freq_idx.iter().all(|&i| i == 9));
        // ...but the surge still bites throughput.
        let before: f64 = r.epochs[2].instructions.iter().sum();
        let after: f64 = r.epochs[8].instructions.iter().sum();
        assert!(after < before * 0.6, "surge must bite: {after} vs {before}");
    }

    #[test]
    fn runner_rejects_mismatched_server() {
        let runner = ScenarioRunner::new(&Scenario::empty(4), 0.6).unwrap();
        let mut srv = server("MIX1", 1);
        assert!(runner.install(&mut srv).is_err());
        assert!(runner.run(&mut srv, 4, None).is_err());
    }

    #[test]
    fn runner_rejects_invalid_scenarios_and_budgets() {
        let bad = scenario(vec![ScenarioEvent {
            at_epoch: 1,
            action: Action::BudgetStep { fraction: 2.0 },
        }]);
        assert!(ScenarioRunner::new(&bad, 0.6).is_err());
        assert!(ScenarioRunner::new(&Scenario::empty(16), 0.0).is_err());
    }
}
