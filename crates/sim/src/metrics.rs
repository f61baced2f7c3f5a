//! Run results: per-epoch reports and the aggregate metrics used by every
//! figure of the evaluation.

use crate::config::SimConfig;
use fastcap_core::error::{Error, Result};
use fastcap_core::fairness::{self, FairnessReport};
use fastcap_core::units::{Secs, Watts};
use serde::{Deserialize, Serialize};

/// Everything measured over one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: u64,
    /// Core DVFS level in force for (most of) this epoch, per core.
    pub core_freq_idx: Vec<usize>,
    /// Memory DVFS level in force.
    pub mem_freq_idx: usize,
    /// Measured per-core power (dynamic + static).
    pub core_power: Vec<Watts>,
    /// Measured memory subsystem power.
    pub mem_power: Watts,
    /// Measured full-system power.
    pub total_power: Watts,
    /// Instructions retired per core.
    pub instructions: Vec<f64>,
    /// Whether the controller reported an emergency (infeasible budget).
    pub emergency: bool,
}

/// A complete simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Number of cores.
    pub n_cores: usize,
    /// Simulated slice per epoch (after time dilation).
    pub sim_epoch_length: Secs,
    /// The platform's peak power (normalization reference).
    pub peak_power: Watts,
    /// Per-epoch measurements.
    pub epochs: Vec<EpochReport>,
}

impl RunResult {
    /// Packages per-epoch reports with the platform they ran on.
    pub fn new(cfg: &SimConfig, epochs: Vec<EpochReport>) -> Self {
        Self {
            n_cores: cfg.n_cores,
            sim_epoch_length: cfg.sim_epoch_length(),
            peak_power: cfg.peak_power,
            epochs,
        }
    }

    /// Mean full-system power over epochs `skip..`.
    pub fn avg_power(&self, skip: usize) -> Watts {
        let es = &self.epochs[skip.min(self.epochs.len())..];
        if es.is_empty() {
            return Watts::ZERO;
        }
        Watts(es.iter().map(|e| e.total_power.get()).sum::<f64>() / es.len() as f64)
    }

    /// Largest single-epoch average power over epochs `skip..`.
    pub fn max_epoch_power(&self, skip: usize) -> Watts {
        self.epochs[skip.min(self.epochs.len())..]
            .iter()
            .map(|e| e.total_power)
            .fold(Watts::ZERO, Watts::max)
    }

    /// Full-system power per epoch, normalized to the peak (Fig. 3/5).
    pub fn power_trace(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| e.total_power / self.peak_power)
            .collect()
    }

    /// `(cores, memory)` power per epoch, normalized to the peak (Fig. 4).
    pub fn breakdown_trace(&self) -> Vec<(f64, f64)> {
        self.epochs
            .iter()
            .map(|e| {
                let cores: Watts = e.core_power.iter().copied().sum();
                (cores / self.peak_power, e.mem_power / self.peak_power)
            })
            .collect()
    }

    /// Core-frequency ladder index per epoch for one core (Fig. 7).
    pub fn core_freq_trace(&self, core: usize) -> Vec<usize> {
        self.epochs.iter().map(|e| e.core_freq_idx[core]).collect()
    }

    /// Memory-frequency ladder index per epoch (Fig. 8).
    pub fn mem_freq_trace(&self) -> Vec<usize> {
        self.epochs.iter().map(|e| e.mem_freq_idx).collect()
    }

    /// Mean instruction throughput per core (instructions per simulated
    /// second) over epochs `skip..`.
    pub fn throughput(&self, skip: usize) -> Vec<f64> {
        self.throughput_in(skip, self.epochs.len())
    }

    /// Mean instruction throughput per core over the epoch window
    /// `[start, end)` — the per-phase metric of the scenario artifacts
    /// (pre-surge vs in-surge vs recovered). Out-of-range bounds clamp.
    pub fn throughput_in(&self, start: usize, end: usize) -> Vec<f64> {
        let end = end.min(self.epochs.len());
        let start = start.min(end);
        let es = &self.epochs[start..end];
        let span = es.len() as f64 * self.sim_epoch_length.get();
        (0..self.n_cores)
            .map(|i| {
                if span > 0.0 {
                    es.iter().map(|e| e.instructions[i]).sum::<f64>() / span
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Per-core performance degradation versus an uncapped baseline run:
    /// `baseline_throughput / capped_throughput` (≥ 1 under capping; this is
    /// the normalized-CPI metric of Fig. 6 and friends).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] when shapes mismatch or a throughput
    /// is non-positive.
    pub fn degradation_vs(&self, baseline: &RunResult, skip: usize) -> Result<Vec<f64>> {
        if baseline.n_cores != self.n_cores {
            return Err(Error::InvalidModel {
                why: format!(
                    "baseline has {} cores, run has {}",
                    baseline.n_cores, self.n_cores
                ),
            });
        }
        let base = baseline.throughput(skip);
        let mine = self.throughput(skip);
        base.iter()
            .zip(&mine)
            .map(|(&b, &m)| {
                if !(b > 0.0 && m > 0.0) {
                    Err(Error::InvalidModel {
                        why: format!("non-positive throughput: baseline {b}, capped {m}"),
                    })
                } else {
                    Ok(b / m)
                }
            })
            .collect()
    }

    /// Fairness summary of the degradations against a baseline.
    ///
    /// # Errors
    ///
    /// Propagates [`RunResult::degradation_vs`] failures.
    pub fn fairness_vs(&self, baseline: &RunResult, skip: usize) -> Result<FairnessReport> {
        fairness::report(&self.degradation_vs(baseline, skip)?)
    }

    /// Largest per-epoch power-accounting residual
    /// `|total − Σ core − memory − other_static|` in watts — the
    /// counter-conservation probe of the invariant oracle. The simulator
    /// composes total power from exactly these three terms, so anything
    /// beyond float rounding means a measurement path dropped or
    /// double-counted a component.
    pub fn max_conservation_residual(&self, other_static: Watts) -> f64 {
        self.epochs
            .iter()
            .map(|e| {
                let cores: Watts = e.core_power.iter().copied().sum();
                (e.total_power.get() - cores.get() - e.mem_power.get() - other_static.get()).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Number of epochs whose average power exceeded `budget` by more than
    /// `tolerance` (fractional), over epochs `skip..`.
    pub fn violations(&self, budget: Watts, tolerance: f64, skip: usize) -> usize {
        self.epochs[skip.min(self.epochs.len())..]
            .iter()
            .filter(|e| e.total_power.get() > budget.get() * (1.0 + tolerance))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(powers: &[f64]) -> RunResult {
        RunResult {
            n_cores: 2,
            sim_epoch_length: Secs::from_micros(100.0),
            peak_power: Watts(100.0),
            epochs: powers
                .iter()
                .enumerate()
                .map(|(i, &p)| EpochReport {
                    epoch: i as u64,
                    core_freq_idx: vec![9, 5],
                    mem_freq_idx: 7,
                    core_power: vec![Watts(p * 0.3), Watts(p * 0.3)],
                    mem_power: Watts(p * 0.3),
                    total_power: Watts(p),
                    instructions: vec![1000.0, 500.0],
                    emergency: false,
                })
                .collect(),
        }
    }

    #[test]
    fn avg_and_max_power() {
        let r = run(&[50.0, 60.0, 70.0]);
        assert!((r.avg_power(0).get() - 60.0).abs() < 1e-9);
        assert!((r.avg_power(1).get() - 65.0).abs() < 1e-9);
        assert_eq!(r.max_epoch_power(0), Watts(70.0));
        assert_eq!(r.avg_power(10), Watts::ZERO);
    }

    #[test]
    fn traces() {
        let r = run(&[50.0, 60.0]);
        assert_eq!(r.power_trace(), vec![0.5, 0.6]);
        let bd = r.breakdown_trace();
        assert!((bd[0].0 - 0.3).abs() < 1e-9);
        assert!((bd[0].1 - 0.15).abs() < 1e-9);
        assert_eq!(r.core_freq_trace(1), vec![5, 5]);
        assert_eq!(r.mem_freq_trace(), vec![7, 7]);
    }

    #[test]
    fn throughput_and_degradation() {
        let base = run(&[100.0, 100.0]);
        let mut capped = run(&[60.0, 60.0]);
        for e in &mut capped.epochs {
            e.instructions = vec![800.0, 250.0]; // 1.25× and 2× slower
        }
        let d = capped.degradation_vs(&base, 0).unwrap();
        assert!((d[0] - 1.25).abs() < 1e-9);
        assert!((d[1] - 2.0).abs() < 1e-9);
        let f = capped.fairness_vs(&base, 0).unwrap();
        assert!((f.worst - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degradation_validates() {
        let base = run(&[100.0]);
        let mut other = run(&[100.0]);
        other.n_cores = 3;
        assert!(other.degradation_vs(&base, 0).is_err());
        let mut zero = run(&[100.0]);
        for e in &mut zero.epochs {
            e.instructions = vec![0.0, 0.0];
        }
        assert!(zero.degradation_vs(&base, 0).is_err());
    }

    #[test]
    fn windowed_throughput() {
        let mut r = run(&[100.0, 100.0, 100.0, 100.0]);
        r.epochs[2].instructions = vec![2000.0, 1000.0];
        r.epochs[3].instructions = vec![2000.0, 1000.0];
        let early = r.throughput_in(0, 2);
        let late = r.throughput_in(2, 4);
        assert!((late[0] / early[0] - 2.0).abs() < 1e-9);
        assert!((late[1] / early[1] - 2.0).abs() < 1e-9);
        // Full-window form agrees with `throughput`.
        assert_eq!(r.throughput_in(1, r.epochs.len()), r.throughput(1));
        // Degenerate windows clamp to zero throughput.
        assert!(r.throughput_in(9, 12).iter().all(|&t| t == 0.0));
    }

    #[test]
    fn conservation_residual_detects_unaccounted_power() {
        // The synthetic epochs split power 0.3/0.3/0.3, leaving 0.1·p
        // unaccounted when "other" is claimed to be zero.
        let r = run(&[50.0, 60.0]);
        assert!((r.max_conservation_residual(Watts(6.0)) - 1.0).abs() < 1e-9);
        let mut exact = run(&[50.0]);
        exact.epochs[0].total_power = Watts(50.0 * 0.9 + 4.0);
        assert!(exact.max_conservation_residual(Watts(4.0)) < 1e-12);
    }

    #[test]
    fn violation_counting() {
        let r = run(&[58.0, 61.0, 66.0, 59.0]);
        // Budget 60 W, 5% tolerance -> only 66 W counts.
        assert_eq!(r.violations(Watts(60.0), 0.05, 0), 1);
        // Zero tolerance -> 61 and 66.
        assert_eq!(r.violations(Watts(60.0), 0.0, 0), 2);
        assert_eq!(r.violations(Watts(60.0), 0.0, 3), 0);
    }
}
