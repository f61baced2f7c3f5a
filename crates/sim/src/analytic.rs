//! Analytic (approximate-MVA) simulation backend.
//!
//! [`AnalyticServer`] evaluates the same closed queuing network as the
//! discrete-event [`crate::server::Server`] — think → L2 → bank (with
//! transfer blocking) → FCFS bus — but with a fixed-point queueing
//! approximation per epoch instead of event-by-event simulation:
//!
//! * each core is a single-customer class (`X_c = 1 / (Z_c + R_c)`, so a
//!   core never has more than its burst outstanding — the closed-network
//!   population constraint);
//! * bus contention is an M/M/1-style wait at utilization
//!   `ρ_bus = Λ·s_b`;
//! * transfer blocking inflates the effective bank service time to
//!   `s_m + W_bus + s_b` (the bank holds its slot until the transfer
//!   completes), which is then queued at per-bank utilization.
//!
//! Epochs cost `O(N · iterations)` instead of `O(events)`: hundreds of
//! times faster than the DES at large `N`, at the price of stochastic
//! detail (no per-epoch noise beyond the power meter's). Power, counters
//! and the policy interface are bit-compatible with the DES backend
//! ([`crate::power_model`] is shared), so the two can be cross-validated —
//! see `tests/analytic_vs_des.rs` at the workspace root.

use crate::config::SimConfig;
use crate::core_model::CoreSim;
use crate::metrics::{EpochReport, RunResult};
use crate::power_model;
use fastcap_core::capper::DvfsDecision;
use fastcap_core::counters::{CoreSample, EpochObservation, MemorySample};
use fastcap_core::error::{Error, Result};
use fastcap_core::freq::VoltageCurve;
use fastcap_core::units::{Secs, Watts};
use fastcap_workloads::{AppInstance, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Utilization cap that keeps the open-queue wait formulas finite.
const RHO_MAX: f64 = 0.985;
/// Fixed-point iterations (converges geometrically with 0.5 damping).
const ITERATIONS: usize = 60;

/// Per-epoch network solution.
#[derive(Debug, Clone)]
struct NetworkSolution {
    /// Per-core stall-interval completion rate (1/s).
    rate: Vec<f64>,
    /// Bus utilization.
    rho_bus: f64,
    /// Bank utilization (service time only, matching the DES meter).
    bank_util: f64,
    /// Mean bank wait (s).
    w_bank: f64,
    /// Mean effective bank service (s).
    s_eff: f64,
    /// Mean raw bank service (s).
    s_m: f64,
    /// Bus wait (s).
    w_bus: f64,
    /// Read fraction of the traffic.
    read_fraction: f64,
}

/// The analytic many-core server.
#[derive(Debug)]
pub struct AnalyticServer {
    cfg: SimConfig,
    rng: SmallRng,
    cores: Vec<CoreSim>,
    core_freq_idx: Vec<usize>,
    mem_freq_idx: usize,
    mc_vcurve: VoltageCurve,
    epoch_index: u64,
    prev: Option<(Vec<CoreSample>, MemorySample, Watts)>,
}

impl AnalyticServer {
    /// Builds the analytic server for explicit per-core applications.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid configurations or an
    /// application count that does not match `n_cores`. Multi-controller
    /// layouts are not modelled analytically — use the DES backend.
    pub fn new(cfg: SimConfig, apps: Vec<AppInstance>, seed: u64) -> Result<Self> {
        cfg.validate()?;
        if cfg.n_controllers != 1 {
            return Err(Error::InvalidConfig {
                what: "n_controllers",
                why: "the analytic backend models a single memory controller".into(),
            });
        }
        if apps.len() != cfg.n_cores {
            return Err(Error::InvalidConfig {
                what: "apps",
                why: format!("{} applications for {} cores", apps.len(), cfg.n_cores),
            });
        }
        for a in &apps {
            a.profile
                .check()
                .map_err(|why| Error::InvalidConfig { what: "apps", why })?;
        }
        let mc_vcurve = power_model::mc_voltage_curve(&cfg)?;
        let max_core = cfg.core_ladder.len() - 1;
        let max_mem = cfg.mem_ladder.len() - 1;
        Ok(Self {
            cores: apps.into_iter().map(CoreSim::new).collect(),
            core_freq_idx: vec![max_core; cfg.n_cores],
            mem_freq_idx: max_mem,
            rng: SmallRng::seed_from_u64(seed),
            mc_vcurve,
            epoch_index: 0,
            prev: None,
            cfg,
        })
    }

    /// Instantiates a Table III workload onto the configured core count.
    ///
    /// # Errors
    ///
    /// Propagates configuration and instantiation failures.
    pub fn for_workload(cfg: SimConfig, workload: &WorkloadSpec, seed: u64) -> Result<Self> {
        let apps = workload
            .instantiate(cfg.n_cores)
            .map_err(|why| Error::InvalidConfig {
                what: "workload",
                why,
            })?;
        Self::new(cfg, apps, seed)
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Deterministic count of fixed-point solver iterations executed so far
    /// (epochs × cores × iterations-per-solve) — this backend's analogue of
    /// [`crate::Server::events_scheduled`], the work unit of the fleet cost
    /// model.
    pub fn solver_ops(&self) -> u64 {
        self.epoch_index * self.cfg.n_cores as u64 * ITERATIONS as u64
    }

    /// Deterministic operation counts for this backend: everything it does
    /// is fixed-point solver iterations.
    pub fn cost(&self) -> fastcap_core::cost::CostCounter {
        fastcap_core::cost::CostCounter {
            solver_iters: self.solver_ops(),
            ..Default::default()
        }
    }

    /// The observation a policy would receive right now.
    pub fn observation(&self) -> Option<EpochObservation> {
        self.prev
            .as_ref()
            .map(|(cores, mem, total)| EpochObservation::single(cores.clone(), *mem, *total))
    }

    /// Runs `epochs` epochs under `policy` (same contract as
    /// [`crate::server::Server::run`]).
    pub fn run<P>(&mut self, epochs: usize, mut policy: P) -> RunResult
    where
        P: FnMut(&EpochObservation) -> Option<DvfsDecision>,
    {
        let mut reports = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let decision = self.observation().and_then(|obs| policy(&obs));
            reports.push(self.run_epoch(decision.as_ref()));
        }
        RunResult::new(&self.cfg, reports)
    }

    /// Runs one epoch, optionally applying a decision at its start.
    pub fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport {
        if let Some(d) = decision {
            for (i, &idx) in d.core_freqs.iter().enumerate().take(self.cfg.n_cores) {
                self.core_freq_idx[i] = idx.min(self.cfg.core_ladder.len() - 1);
            }
            self.mem_freq_idx = d.mem_freq.min(self.cfg.mem_ladder.len() - 1);
        }
        // Wall-clock-anchored phases, as in the DES backend.
        let wall_epochs = self.epoch_index as f64 * self.cfg.epoch_length.get() / 5.0e-3;
        for (i, core) in self.cores.iter_mut().enumerate() {
            let f = self.cfg.core_ladder.at(self.core_freq_idx[i]);
            core.refresh(wall_epochs, self.cfg.core_mode, f);
        }

        let sol = self.solve_network();
        let report = self.measure(&sol, decision.is_some_and(|d| d.emergency));
        self.epoch_index += 1;
        report
    }

    /// Fixed-point solve of the approximate queueing network.
    fn solve_network(&self) -> NetworkSolution {
        let n = self.cfg.n_cores;
        let banks = self.cfg.banks_per_controller as f64;
        let s_b = self.cfg.bus_transfer_time(self.mem_freq_idx).get();
        let l2 = self.cfg.l2_time.get();

        // Per-core constants at current frequencies.
        let think: Vec<f64> = self
            .cores
            .iter()
            .map(|c| c.think_mean * 1e-12 + l2)
            .collect();
        let s_m_c: Vec<f64> = self
            .cores
            .iter()
            .map(|c| {
                self.cfg
                    .dram
                    .mean_service_time(c.app.profile.row_hit_ratio)
                    .get()
            })
            .collect();
        let wb: Vec<f64> = self.cores.iter().map(|c| c.wb_prob).collect();
        let burst: Vec<f64> = self.cores.iter().map(|c| c.burst as f64).collect();

        let mut rate: Vec<f64> = (0..n).map(|i| 1.0 / (think[i] + s_m_c[i] + s_b)).collect();
        let mut response = s_m_c.clone();
        let (mut rho_bus, mut w_bus, mut w_bank, mut s_eff_mean, mut s_m_mean) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..ITERATIONS {
            // Offered transfer rate: every burst member plus its writeback.
            let lambda: f64 = rate
                .iter()
                .zip(&burst)
                .zip(&wb)
                .map(|((&x, &b), &w)| x * b * (1.0 + w))
                .sum();
            rho_bus = (lambda * s_b).min(RHO_MAX);
            w_bus = s_b * rho_bus / (1.0 - rho_bus);

            // Rate-weighted mean service times.
            let wsum: f64 = rate
                .iter()
                .zip(&burst)
                .zip(&wb)
                .map(|((&x, &b), &w)| x * b * (1.0 + w))
                .sum::<f64>()
                .max(1e-30);
            s_m_mean = rate
                .iter()
                .zip(&burst)
                .zip(&wb)
                .zip(&s_m_c)
                .map(|(((&x, &b), &w), &s)| x * b * (1.0 + w) * s)
                .sum::<f64>()
                / wsum;
            // Transfer blocking: the bank slot is held through the bus wait
            // and transfer.
            s_eff_mean = s_m_mean + w_bus + s_b;
            let rho_bank = (lambda / banks * s_eff_mean).min(RHO_MAX);
            w_bank = s_eff_mean * rho_bank / (1.0 - rho_bank);

            // Per-core response and damped throughput update. An OoO burst
            // overlaps its members: the stall sees one response, not m.
            for i in 0..n {
                response[i] = w_bank + s_m_c[i] + w_bus + s_b;
                let x_new = 1.0 / (think[i] + response[i]);
                rate[i] = 0.5 * rate[i] + 0.5 * x_new;
            }
        }
        let lambda: f64 = rate
            .iter()
            .zip(&burst)
            .zip(&wb)
            .map(|((&x, &b), &w)| x * b * (1.0 + w))
            .sum();
        let bank_util = (lambda * s_m_mean / banks).min(1.0);
        let reads: f64 = rate.iter().zip(&burst).map(|(&x, &b)| x * b).sum();
        NetworkSolution {
            rate,
            rho_bus,
            bank_util,
            w_bank,
            s_eff: s_eff_mean,
            s_m: s_m_mean,
            w_bus,
            read_fraction: if lambda > 0.0 { reads / lambda } else { 1.0 },
        }
    }

    fn noisy(&mut self, w: Watts) -> Watts {
        if self.cfg.meter_noise <= 0.0 {
            return w;
        }
        let g: f64 = (0..3).map(|_| self.rng.gen::<f64>()).sum::<f64>() - 1.5;
        Watts((w.get() * (1.0 + self.cfg.meter_noise * g * 2.0)).max(0.0))
    }

    fn measure(&mut self, sol: &NetworkSolution, emergency: bool) -> EpochReport {
        let span = self.cfg.sim_epoch_length().get();
        let n = self.cfg.n_cores;
        let f_mem = self.cfg.mem_ladder.at(self.mem_freq_idx);

        let mut core_power = Vec::with_capacity(n);
        let mut core_samples = Vec::with_capacity(n);
        let mut instructions = Vec::with_capacity(n);
        for i in 0..n {
            let f = self.cfg.core_ladder.at(self.core_freq_idx[i]);
            let c = &self.cores[i];
            let think_s = c.think_mean * 1e-12;
            let busy_frac = (sol.rate[i] * think_s).min(1.0);
            let p = power_model::core_power(&self.cfg, f, busy_frac);
            let p = self.noisy(p);
            core_power.push(p);
            let instr = sol.rate[i] * self.cores[i].instr_per_interval * span;
            instructions.push(instr);
            core_samples.push(CoreSample {
                freq: f,
                busy_time_per_instruction: Secs(self.cores[i].app.profile.base_cpi / f.get()),
                instructions: instr.max(1.0) as u64,
                last_level_misses: (sol.rate[i] * self.cores[i].burst as f64 * span).max(1.0)
                    as u64,
                power: p,
            });
        }

        let mem_power = power_model::memory_power(
            &self.cfg,
            &self.mc_vcurve,
            f_mem,
            sol.bank_util,
            sol.rho_bus,
            sol.read_fraction,
            1.0,
        );
        let mem_power = self.noisy(mem_power);
        let mem_sample = MemorySample {
            bus_freq: f_mem,
            bank_queue: 1.0 + sol.w_bank / sol.s_eff.max(1e-30),
            bus_queue: 1.0 + sol.w_bus / self.cfg.bus_transfer_time(self.mem_freq_idx).get(),
            bank_service_time: Secs(sol.s_m),
            power: mem_power,
        };

        let cores_total: Watts = core_power.iter().copied().sum();
        let total = cores_total + mem_power + self.cfg.other_power;
        self.prev = Some((core_samples, mem_sample, total));

        EpochReport {
            epoch: self.epoch_index,
            core_freq_idx: self.core_freq_idx.clone(),
            mem_freq_idx: self.mem_freq_idx,
            core_power,
            mem_power,
            total_power: total,
            instructions,
            emergency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastcap_workloads::mixes;

    fn cfg() -> SimConfig {
        SimConfig::ispass(16).unwrap().with_meter_noise(0.0)
    }

    fn server(mix: &str) -> AnalyticServer {
        AnalyticServer::for_workload(cfg(), &mixes::by_name(mix).unwrap(), 1).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(AnalyticServer::for_workload(cfg(), &mixes::by_name("MIX1").unwrap(), 1).is_ok());
        let multi = cfg().with_controllers(4, crate::config::Interleaving::Uniform);
        assert!(
            AnalyticServer::for_workload(multi, &mixes::by_name("MIX1").unwrap(), 1).is_err(),
            "multi-controller must be rejected"
        );
    }

    #[test]
    fn uncapped_epochs_are_sane() {
        let mut s = server("MEM1");
        let r = s.run(6, |_| None);
        for e in &r.epochs {
            assert!(e.total_power.get() > 30.0 && e.total_power.get() < 140.0);
            assert!(e.instructions.iter().all(|&i| i > 0.0));
        }
    }

    #[test]
    fn memory_bound_saturates_the_bus() {
        let mut s = server("MEM1");
        s.run(2, |_| None);
        let obs = s.observation().unwrap();
        // Under saturation the bus queue counter must show contention.
        assert!(obs.memory.bus_queue > 1.5, "U = {}", obs.memory.bus_queue);
    }

    #[test]
    fn ilp_draws_more_than_mem() {
        let mut ilp = server("ILP1");
        let mut mem = server("MEM1");
        let p_ilp = ilp.run(4, |_| None).avg_power(1);
        let p_mem = mem.run(4, |_| None).avg_power(1);
        assert!(p_ilp > p_mem, "ILP {p_ilp} vs MEM {p_mem}");
        assert!(p_ilp.get() > 90.0, "ILP1 near peak, got {p_ilp}");
    }

    #[test]
    fn slowing_cores_reduces_power_and_throughput() {
        let slow = DvfsDecision {
            core_freqs: vec![0; 16],
            mem_freq: 9,
            predicted_power: Watts::ZERO,
            quantized_power: Watts::ZERO,
            budget_trim: Watts::ZERO,
            degradation: 0.5,
            budget_bound: true,
            emergency: false,
        };
        let mut fast = server("MID1");
        let rf = fast.run(4, |_| None);
        let mut slowed = server("MID1");
        let rs = slowed.run(4, |_| Some(slow.clone()));
        assert!(rs.avg_power(1) < rf.avg_power(1));
        assert!(rs.throughput(1).iter().sum::<f64>() < rf.throughput(1).iter().sum::<f64>());
    }

    #[test]
    fn deterministic_with_zero_noise() {
        let mut a = server("MIX2");
        let mut b = server("MIX2");
        assert_eq!(a.run(4, |_| None), b.run(4, |_| None));
    }

    #[test]
    fn closed_loop_with_fastcap_holds_budget() {
        let cfg = cfg();
        let ctl_cfg = cfg.controller_config(0.6).unwrap();
        let budget = ctl_cfg.budget();
        let mut controller = fastcap_core::capper::FastCapController::new(ctl_cfg).unwrap();
        let mut s = AnalyticServer::for_workload(cfg, &mixes::by_name("MIX3").unwrap(), 3).unwrap();
        let r = s.run(20, |obs| controller.decide(obs).ok());
        let avg = r.avg_power(5);
        assert!(
            avg.get() <= budget.get() * 1.06,
            "analytic closed loop: {avg} vs {budget}"
        );
        assert!(avg.get() >= budget.get() * 0.75, "budget unused: {avg}");
    }

    #[test]
    fn scales_to_hundreds_of_cores_quickly() {
        // 256 cores would be hours on the DES; the analytic backend does it
        // instantly. (SimConfig interpolates calibration beyond the paper's
        // presets.)
        let cfg = SimConfig::ispass(256).unwrap().with_meter_noise(0.0);
        let mix = mixes::by_name("MIX1").unwrap();
        let mut s = AnalyticServer::for_workload(cfg, &mix, 5).unwrap();
        let r = s.run(4, |_| None);
        assert_eq!(r.n_cores, 256);
        assert!(r.epochs[3].instructions.iter().all(|&i| i > 0.0));
    }
}
