//! Timing decorators over the program's public traits.
//!
//! Each decorator forwards every trait method — the defaulted ones too —
//! to the wrapped value and records host time for the calls that do the
//! layer's work. Statistics live behind an `Rc<RefCell<_>>` so the caller
//! keeps a handle after the decorated value has been moved into a
//! `ClosedLoop` or a `Fleet`. The benchmark is single-threaded; nothing
//! here is `Send`.

use fastcap_core::capper::DvfsDecision;
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::units::Watts;
use fastcap_fleet::{ModelTier, ServerEpoch, ServerModel};
use fastcap_policies::CappingPolicy;
use fastcap_sim::{EpochBackend, EpochReport, SimConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Shared handle to a decorator's statistics.
pub type Shared<T> = Rc<RefCell<T>>;

/// A fresh shared statistics record.
#[must_use]
pub fn shared<T: Default>() -> Shared<T> {
    Rc::new(RefCell::new(T::default()))
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// What a [`TimedPolicy`] saw.
#[derive(Debug, Default, Clone)]
pub struct PolicyStats {
    /// Host time of each `decide` call, ns.
    pub decide_ns: Vec<u64>,
    /// `decide` calls that returned an error.
    pub decide_errors: u64,
    /// Host time spent in `bootstrap`, ns.
    pub bootstrap_ns: u64,
    /// Sum of the policy's `decision_cost()` deltas over its decides.
    pub cost: CostCounter,
}

/// A [`CappingPolicy`] that times `decide` and `bootstrap`.
pub struct TimedPolicy {
    inner: Box<dyn CappingPolicy>,
    stats: Shared<PolicyStats>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `stats`.
    #[must_use]
    pub fn boxed(inner: Box<dyn CappingPolicy>, stats: &Shared<PolicyStats>) -> Box<Self> {
        Box::new(Self {
            inner,
            stats: Rc::clone(stats),
        })
    }
}

impl CappingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
        let before = self.inner.decision_cost();
        let t0 = Instant::now();
        let out = self.inner.decide(obs);
        let t1 = Instant::now();
        let delta = self.inner.decision_cost().delta_since(&before);
        let mut s = self.stats.borrow_mut();
        s.decide_ns.push(ns_between(t0, t1));
        s.decide_errors += u64::from(out.is_err());
        s.cost.add(&delta);
        out
    }

    fn bootstrap(&mut self) -> Option<DvfsDecision> {
        let t0 = Instant::now();
        let out = self.inner.bootstrap();
        self.stats.borrow_mut().bootstrap_ns += ns_between(t0, Instant::now());
        out
    }

    fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
        self.inner.on_budget_change(fraction)
    }

    fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool> {
        self.inner.on_active_set_change(carried)
    }

    fn decision_cost(&self) -> CostCounter {
        self.inner.decision_cost()
    }

    fn in_force_budget(&self) -> Option<Watts> {
        self.inner.in_force_budget()
    }
}

/// What a [`TimedBackend`] saw.
#[derive(Debug, Default, Clone)]
pub struct BackendStats {
    /// Host time of each `run_epoch` call, ns.
    pub epoch_ns: Vec<u64>,
    /// Sum of the backend's `cost()` deltas over its epochs.
    pub cost: CostCounter,
}

/// An [`EpochBackend`] that times `run_epoch`.
pub struct TimedBackend<B> {
    inner: B,
    stats: Shared<BackendStats>,
}

impl<B: EpochBackend> TimedBackend<B> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: B, stats: &Shared<BackendStats>) -> Self {
        Self {
            inner,
            stats: Rc::clone(stats),
        }
    }
}

impl<B: EpochBackend> EpochBackend for TimedBackend<B> {
    fn config(&self) -> &SimConfig {
        self.inner.config()
    }

    fn observation(&self) -> Option<EpochObservation> {
        self.inner.observation()
    }

    fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport {
        let before = self.inner.cost();
        let t0 = Instant::now();
        let report = self.inner.run_epoch(decision);
        let ns = ns_between(t0, Instant::now());
        let delta = self.inner.cost().delta_since(&before);
        let mut s = self.stats.borrow_mut();
        s.epoch_ns.push(ns);
        s.cost.add(&delta);
        report
    }

    fn ops(&self) -> u64 {
        self.inner.ops()
    }

    fn cost(&self) -> CostCounter {
        self.inner.cost()
    }
}

/// What the [`TimedModel`]s of one fleet saw. Leaf steps are far too many
/// to keep one sample each, so only sums are kept.
#[derive(Debug, Default, Clone)]
pub struct ModelStats {
    /// `step` calls.
    pub steps: u64,
    /// Host time summed over `step` calls, ns.
    pub step_ns: u64,
    /// `set_budget_fraction` calls.
    pub budget_sets: u64,
    /// Host time summed over `set_budget_fraction` calls, ns.
    pub budget_set_ns: u64,
}

/// A fleet [`ServerModel`] that times `step` and `set_budget_fraction`.
pub struct TimedModel<M> {
    inner: M,
    stats: Shared<ModelStats>,
}

impl<M: ServerModel> TimedModel<M> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: M, stats: &Shared<ModelStats>) -> Self {
        Self {
            inner,
            stats: Rc::clone(stats),
        }
    }
}

impl<M: ServerModel> ServerModel for TimedModel<M> {
    fn tier(&self) -> ModelTier {
        self.inner.tier()
    }

    fn peak_power(&self) -> Watts {
        self.inner.peak_power()
    }

    fn budget_fraction(&self) -> f64 {
        self.inner.budget_fraction()
    }

    fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        let t0 = Instant::now();
        let out = self.inner.set_budget_fraction(fraction);
        let ns = ns_between(t0, Instant::now());
        let mut s = self.stats.borrow_mut();
        s.budget_sets += 1;
        s.budget_set_ns += ns;
        out
    }

    fn step(&mut self) -> ServerEpoch {
        let t0 = Instant::now();
        let out = self.inner.step();
        let ns = ns_between(t0, Instant::now());
        let mut s = self.stats.borrow_mut();
        s.steps += 1;
        s.step_ns += ns;
        out
    }

    fn ops(&self) -> u64 {
        self.inner.ops()
    }

    fn cost(&self) -> CostCounter {
        self.inner.cost()
    }
}

/// Host cost of the clock reads one timed call adds, as
/// `(inside, total)` ns: `inside` is the part that lands within the
/// measured interval (one clock read), `total` what the enclosing caller
/// pays per call (two reads and the statistics update). Used to correct
/// shares of calls too short for the clock to ignore, such as one fleet
/// leaf step.
#[must_use]
pub fn timer_overhead_ns() -> (f64, f64) {
    const ITERS: u32 = 200_000;
    let stats: Shared<ModelStats> = shared();
    let start = Instant::now();
    for _ in 0..ITERS {
        let t0 = Instant::now();
        let ns = ns_between(t0, Instant::now());
        let mut s = stats.borrow_mut();
        s.steps += 1;
        s.step_ns += ns;
    }
    let total = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
    let inside = stats.borrow().step_ns as f64 / f64::from(ITERS);
    (inside, total)
}
