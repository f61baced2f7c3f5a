//! The concrete ladder rungs: [`AnalyticModel`], [`SampledModel`] and
//! [`DesModel`], all [`ServerModel`]s the fleet engine drives uniformly.
//!
//! The Analytic and Des tiers wrap a real capping policy in a
//! [`ClosedLoop`] over the matching [`fastcap_sim::EpochBackend`] — the
//! same observe → decide → actuate cycle the single-server artifacts run,
//! so FastCap / Freq-Par solve against either backend unchanged. The
//! Sampled tier replays a [`ResponseSurface`] recorded once from the DES:
//! per distinct `(mix, n_cores)` pair, mean settled power and throughput
//! are measured on a budget-fraction grid and interpolated piecewise-
//! linearly at runtime, making it the cheapest rung (one lookup per
//! epoch) at the price of steady-state-only fidelity.

use crate::model::{report_bips, ModelTier, ServerEpoch, ServerModel};
use fastcap_core::error::{Error, Result};
use fastcap_core::units::Watts;
use fastcap_policies::{CappingPolicy, ClosedLoop, CpuOnlyPolicy, FastCapPolicy, FreqParPolicy};
use fastcap_sim::{AnalyticServer, EpochBackend, RunResult, Server, SimConfig};
use fastcap_workloads::WorkloadSpec;
use std::sync::Arc;

/// Builds a per-server capping policy by name (`FastCap`, `Freq-Par`,
/// `CPUOnly`) against `cfg` at `fraction` of peak — the fleet-side subset
/// of the bench harness's policy registry.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an unknown name and propagates
/// controller-config validation.
pub fn build_policy(
    cfg: &SimConfig,
    policy: &str,
    fraction: f64,
) -> Result<Box<dyn CappingPolicy>> {
    let ctl = cfg.controller_config(fraction)?;
    Ok(match policy {
        "FastCap" => Box::new(FastCapPolicy::new(ctl)?),
        "Freq-Par" => Box::new(FreqParPolicy::new(ctl)?),
        "CPUOnly" => Box::new(CpuOnlyPolicy::new(ctl)?),
        other => {
            return Err(Error::InvalidConfig {
                what: "fleet policy",
                why: format!("unknown policy `{other}` (FastCap, Freq-Par, CPUOnly)"),
            })
        }
    })
}

/// The exact rung: a capping policy driving the full DES engine. Used at
/// the tree root of accuracy evaluations and for spot-check replays; also
/// the backend that makes a one-server fleet reproduce `fig5` bitwise.
pub struct DesModel {
    inner: ClosedLoop<Server>,
    fraction: f64,
    reports: Vec<fastcap_sim::EpochReport>,
}

impl DesModel {
    /// A DES-backed server running `mix` under `policy` capped at
    /// `fraction` of peak, seeded with `seed` (fleet callers derive one
    /// seed stream per leaf).
    ///
    /// # Errors
    ///
    /// Propagates configuration, workload and policy validation.
    pub fn new(
        cfg: SimConfig,
        mix: &WorkloadSpec,
        policy: &str,
        fraction: f64,
        seed: u64,
    ) -> Result<Self> {
        let p = build_policy(&cfg, policy, fraction)?;
        let server = Server::for_workload(cfg, mix, seed)?;
        Ok(Self {
            inner: ClosedLoop::new(server, p),
            fraction,
            reports: Vec::new(),
        })
    }

    /// The epochs stepped so far, packaged as a [`RunResult`] — the spot-
    /// check and pin-test comparison object.
    #[must_use]
    pub fn result(&self) -> RunResult {
        RunResult::new(self.inner.config(), self.reports.clone())
    }
}

impl ServerModel for DesModel {
    fn tier(&self) -> ModelTier {
        ModelTier::Des
    }

    fn peak_power(&self) -> Watts {
        self.inner.config().peak_power
    }

    fn budget_fraction(&self) -> f64 {
        self.fraction
    }

    fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        self.inner.set_budget_fraction(fraction)?;
        self.fraction = fraction;
        Ok(())
    }

    fn step(&mut self) -> ServerEpoch {
        let sim_epoch = self.inner.config().sim_epoch_length().get();
        let report = self.inner.step();
        let out = ServerEpoch {
            power: report.total_power,
            bips: report_bips(&report, sim_epoch),
        };
        self.reports.push(report);
        out
    }

    fn ops(&self) -> u64 {
        self.inner.backend().ops()
    }

    fn cost(&self) -> fastcap_core::cost::CostCounter {
        self.inner.cost()
    }
}

/// The fast rung: the same policy cycle against the closed-form
/// approximate queueing model.
pub struct AnalyticModel {
    inner: ClosedLoop<AnalyticServer>,
    fraction: f64,
}

impl AnalyticModel {
    /// An analytic-backed server running `mix` under `policy` capped at
    /// `fraction` of peak.
    ///
    /// # Errors
    ///
    /// Propagates configuration, workload and policy validation (the
    /// analytic backend additionally rejects multi-controller configs).
    pub fn new(
        cfg: SimConfig,
        mix: &WorkloadSpec,
        policy: &str,
        fraction: f64,
        seed: u64,
    ) -> Result<Self> {
        let p = build_policy(&cfg, policy, fraction)?;
        let server = AnalyticServer::for_workload(cfg, mix, seed)?;
        Ok(Self {
            inner: ClosedLoop::new(server, p),
            fraction,
        })
    }
}

impl ServerModel for AnalyticModel {
    fn tier(&self) -> ModelTier {
        ModelTier::Analytic
    }

    fn peak_power(&self) -> Watts {
        self.inner.config().peak_power
    }

    fn budget_fraction(&self) -> f64 {
        self.fraction
    }

    fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        self.inner.set_budget_fraction(fraction)?;
        self.fraction = fraction;
        Ok(())
    }

    fn step(&mut self) -> ServerEpoch {
        let sim_epoch = self.inner.config().sim_epoch_length().get();
        let report = self.inner.step();
        ServerEpoch {
            power: report.total_power,
            bips: report_bips(&report, sim_epoch),
        }
    }

    fn ops(&self) -> u64 {
        self.inner.backend().ops()
    }

    fn cost(&self) -> fastcap_core::cost::CostCounter {
        self.inner.cost()
    }
}

/// A per-`(mix, n_cores)` steady-state response surface: mean settled
/// power and throughput on a budget-fraction grid, recorded once from the
/// DES and replayed by piecewise-linear interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSurface {
    /// Mix the surface was recorded for.
    pub mix: String,
    /// Core count the surface was recorded for.
    pub n_cores: usize,
    /// The platform peak power (the fraction denominator).
    pub peak_power: Watts,
    /// Grid fractions, strictly ascending.
    pub fractions: Vec<f64>,
    /// Mean settled power at each grid fraction, watts.
    pub power: Vec<f64>,
    /// Mean settled aggregate throughput at each grid fraction.
    pub bips: Vec<f64>,
}

/// The canonical recording grid. Starts above the small-config power
/// floor and ends at an uncapped run.
pub const SURFACE_GRID: [f64; 7] = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

impl ResponseSurface {
    /// Measures one grid point: a DES run of `mix` under FastCap capped
    /// at `fraction`, returning `(mean settled power, mean settled
    /// bips)` over epochs `skip..`. Artifact sweeps shard these calls —
    /// one sweep point per `(mix, fraction)` — and assemble the surface
    /// with [`ResponseSurface::from_points`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, workload and policy validation.
    pub fn measure_point(
        cfg: &SimConfig,
        mix: &WorkloadSpec,
        fraction: f64,
        epochs: usize,
        skip: usize,
        seed: u64,
    ) -> Result<(f64, f64)> {
        let policy = build_policy(cfg, "FastCap", fraction)?;
        let server = Server::for_workload(cfg.clone(), mix, seed)?;
        let run = ClosedLoop::new(server, policy).run(epochs);
        let power = run.avg_power(skip).get();
        let bips: f64 = run.throughput(skip).iter().sum();
        Ok((power, bips))
    }

    /// Assembles a surface from grid `fractions` and their measured
    /// `(power, bips)` points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for empty, mismatched or
    /// non-ascending grids.
    pub fn from_points(
        mix: &str,
        cfg: &SimConfig,
        fractions: &[f64],
        points: &[(f64, f64)],
    ) -> Result<Self> {
        if fractions.is_empty() || fractions.len() != points.len() {
            return Err(Error::InvalidConfig {
                what: "response surface",
                why: format!(
                    "{} grid fractions but {} measured points",
                    fractions.len(),
                    points.len()
                ),
            });
        }
        if fractions.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::InvalidConfig {
                what: "response surface",
                why: "grid fractions must be strictly ascending".into(),
            });
        }
        Ok(Self {
            mix: mix.to_string(),
            n_cores: cfg.n_cores,
            peak_power: cfg.peak_power,
            fractions: fractions.to_vec(),
            power: points.iter().map(|&(p, _)| p).collect(),
            bips: points.iter().map(|&(_, b)| b).collect(),
        })
    }

    /// Interpolates `(power, bips)` at `fraction`, clamped to the grid
    /// ends.
    #[must_use]
    pub fn eval(&self, fraction: f64) -> (f64, f64) {
        let xs = &self.fractions;
        if fraction <= xs[0] {
            return (self.power[0], self.bips[0]);
        }
        if fraction >= xs[xs.len() - 1] {
            return (self.power[xs.len() - 1], self.bips[xs.len() - 1]);
        }
        // xs is strictly ascending, so the straddling segment exists.
        let k = xs.partition_point(|&x| x <= fraction);
        let (x0, x1) = (xs[k - 1], xs[k]);
        let t = (fraction - x0) / (x1 - x0);
        (
            self.power[k - 1] + t * (self.power[k] - self.power[k - 1]),
            self.bips[k - 1] + t * (self.bips[k] - self.bips[k - 1]),
        )
    }
}

/// The cheapest rung: replayed response surface, one lookup per epoch.
/// Several leaves of the same `(mix, n_cores)` share one recorded surface
/// behind an [`Arc`].
pub struct SampledModel {
    surface: Arc<ResponseSurface>,
    fraction: f64,
    steps: u64,
}

impl SampledModel {
    /// A sampled server replaying `surface`, initially capped at
    /// `fraction`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `fraction` is outside
    /// `(0, 1]`.
    pub fn new(surface: Arc<ResponseSurface>, fraction: f64) -> Result<Self> {
        validate_fraction(fraction)?;
        Ok(Self {
            surface,
            fraction,
            steps: 0,
        })
    }
}

fn validate_fraction(fraction: f64) -> Result<()> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(Error::InvalidConfig {
            what: "budget fraction",
            why: format!("{fraction} outside (0, 1]"),
        });
    }
    Ok(())
}

impl ServerModel for SampledModel {
    fn tier(&self) -> ModelTier {
        ModelTier::Sampled
    }

    fn peak_power(&self) -> Watts {
        self.surface.peak_power
    }

    fn budget_fraction(&self) -> f64 {
        self.fraction
    }

    fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        validate_fraction(fraction)?;
        self.fraction = fraction;
        Ok(())
    }

    fn step(&mut self) -> ServerEpoch {
        self.steps += 1;
        let (power, bips) = self.surface.eval(self.fraction);
        ServerEpoch {
            power: Watts(power),
            bips,
        }
    }

    fn ops(&self) -> u64 {
        self.steps
    }

    fn cost(&self) -> fastcap_core::cost::CostCounter {
        // Each replay step is one piecewise-linear surface lookup.
        fastcap_core::cost::CostCounter {
            grid_points: self.steps,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastcap_workloads::mixes;

    fn cfg() -> SimConfig {
        SimConfig::ispass(4).unwrap().with_time_dilation(200.0)
    }

    #[test]
    fn policy_registry_and_validation() {
        assert!(build_policy(&cfg(), "FastCap", 0.6).is_ok());
        assert!(build_policy(&cfg(), "Freq-Par", 0.6).is_ok());
        assert!(build_policy(&cfg(), "CPUOnly", 0.6).is_ok());
        assert!(build_policy(&cfg(), "NoSuch", 0.6).is_err());
        assert!(build_policy(&cfg(), "FastCap", 0.0).is_err());
    }

    #[test]
    fn des_model_records_its_run() {
        let mix = mixes::by_name("MEM2").unwrap();
        let mut m = DesModel::new(cfg(), &mix, "FastCap", 0.7, 9).unwrap();
        for _ in 0..4 {
            let e = m.step();
            assert!(e.power.get() > 0.0 && e.bips > 0.0);
        }
        let r = m.result();
        assert_eq!(r.epochs.len(), 4);
        assert_eq!(m.tier().name(), "Des");
        assert!(m.ops() > 0);
    }

    #[test]
    fn analytic_model_tracks_budget_moves() {
        let mix = mixes::by_name("MID2").unwrap();
        let mut m = AnalyticModel::new(cfg(), &mix, "FastCap", 0.9, 9).unwrap();
        assert_eq!(m.budget_fraction(), 0.9);
        for _ in 0..4 {
            m.step();
        }
        m.set_budget_fraction(0.6).unwrap();
        assert_eq!(m.budget_fraction(), 0.6);
        let mut settled = 0.0;
        for _ in 0..8 {
            settled = m.step().power.get();
        }
        assert!(settled <= m.peak_power().get() * 0.6 * 1.05);
        assert!(m.set_budget_fraction(0.0).is_err());
    }

    #[test]
    fn surface_interpolates_and_clamps() {
        let s = ResponseSurface {
            mix: "MIX1".into(),
            n_cores: 4,
            peak_power: Watts(60.0),
            fractions: vec![0.4, 0.6, 1.0],
            power: vec![24.0, 36.0, 50.0],
            bips: vec![1.0e9, 2.0e9, 3.0e9],
        };
        assert_eq!(s.eval(0.4), (24.0, 1.0e9));
        assert_eq!(s.eval(0.2), (24.0, 1.0e9), "clamps below");
        assert_eq!(s.eval(1.0), (50.0, 3.0e9));
        let (p, b) = s.eval(0.5);
        assert!((p - 30.0).abs() < 1e-12 && (b - 1.5e9).abs() < 1.0);
        let (p, _) = s.eval(0.8);
        assert!((p - 43.0).abs() < 1e-12);
    }

    #[test]
    fn surface_recording_is_deterministic_and_monotoneish() {
        let mix = mixes::by_name("MIX1").unwrap();
        let a = ResponseSurface::measure_point(&cfg(), &mix, 0.6, 8, 2, 5).unwrap();
        let b = ResponseSurface::measure_point(&cfg(), &mix, 0.6, 8, 2, 5).unwrap();
        assert_eq!(a, b, "same seed, same point");
        let uncapped = ResponseSurface::measure_point(&cfg(), &mix, 1.0, 8, 2, 5).unwrap();
        assert!(uncapped.0 >= a.0 * 0.9, "more budget, no less power");
    }

    #[test]
    fn surface_assembly_validates() {
        let c = cfg();
        assert!(ResponseSurface::from_points("M", &c, &[0.4, 0.6], &[(1.0, 1.0)]).is_err());
        assert!(ResponseSurface::from_points("M", &c, &[], &[]).is_err());
        assert!(
            ResponseSurface::from_points("M", &c, &[0.6, 0.4], &[(1.0, 1.0), (2.0, 2.0)]).is_err()
        );
        let s = ResponseSurface::from_points("M", &c, &[0.4, 0.6], &[(24.0, 1.0), (36.0, 2.0)])
            .unwrap();
        assert_eq!(s.n_cores, 4);
        let mut m = SampledModel::new(Arc::new(s), 0.5).unwrap();
        let e = m.step();
        assert!((e.power.get() - 30.0).abs() < 1e-12);
        assert_eq!(m.ops(), 1);
    }
}
