//! A uniform epoch-stepping interface over the simulation backends.
//!
//! [`EpochBackend`] is the seam the fleet layer's server-model ladder plugs
//! into: the full DES [`Server`] (exact, expensive) and the closed-form
//! [`AnalyticServer`] (approximate, cheap) expose the same
//! observe → decide → step cycle, so a capping policy can drive either
//! without knowing which tier it is talking to. The trait adds nothing the
//! concrete types don't already have — it only names the shared surface —
//! so driving a `Server` through it is byte-identical to driving it
//! directly.
//!
//! `ops()` is the backend's deterministic work counter (scheduled events
//! for the DES, solver iterations for the analytic model). It advances
//! identically at any `--jobs` count, which is what lets the fleet
//! artifacts publish *modeled* nodes/s figures instead of wall-clock ones
//! without breaking the byte-determinism contract.

use crate::analytic::AnalyticServer;
use crate::config::SimConfig;
use crate::metrics::EpochReport;
use crate::server::Server;
use fastcap_core::capper::DvfsDecision;
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;

/// One server-under-control, stepped an epoch at a time.
pub trait EpochBackend {
    /// The configuration in force.
    fn config(&self) -> &SimConfig;

    /// The observation a policy would receive right now (from the last
    /// completed epoch), if any epoch has completed.
    fn observation(&self) -> Option<EpochObservation>;

    /// Runs one epoch, optionally applying a DVFS decision at its start.
    fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport;

    /// Deterministic count of backend work units executed so far. The unit
    /// differs per backend (DES events vs solver iterations); consumers
    /// convert with a per-tier cost constant.
    fn ops(&self) -> u64;

    /// Deterministic per-operation cost breakdown executed so far —
    /// `ops()` split into the cost-model taxonomy so modeled timings can
    /// weight each operation class separately.
    fn cost(&self) -> CostCounter;
}

/// A borrowed backend steps the same as an owned one, so a loop can drive
/// a server its caller keeps (the scenario runner's installed [`Server`]).
impl<B: EpochBackend + ?Sized> EpochBackend for &mut B {
    fn config(&self) -> &SimConfig {
        (**self).config()
    }

    fn observation(&self) -> Option<EpochObservation> {
        (**self).observation()
    }

    fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport {
        (**self).run_epoch(decision)
    }

    fn ops(&self) -> u64 {
        (**self).ops()
    }

    fn cost(&self) -> CostCounter {
        (**self).cost()
    }
}

impl EpochBackend for Server {
    fn config(&self) -> &SimConfig {
        Server::config(self)
    }

    fn observation(&self) -> Option<EpochObservation> {
        Server::observation(self)
    }

    fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport {
        Server::run_epoch(self, decision)
    }

    fn ops(&self) -> u64 {
        self.events_scheduled()
    }

    fn cost(&self) -> CostCounter {
        Server::cost(self)
    }
}

impl EpochBackend for AnalyticServer {
    fn config(&self) -> &SimConfig {
        AnalyticServer::config(self)
    }

    fn observation(&self) -> Option<EpochObservation> {
        AnalyticServer::observation(self)
    }

    fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport {
        AnalyticServer::run_epoch(self, decision)
    }

    fn ops(&self) -> u64 {
        self.solver_ops()
    }

    fn cost(&self) -> CostCounter {
        AnalyticServer::cost(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastcap_workloads::mixes;

    fn cfg() -> SimConfig {
        SimConfig::ispass(4).unwrap().with_time_dilation(200.0)
    }

    /// Driving a backend through the trait must match driving the concrete
    /// type directly, byte for byte.
    #[test]
    fn trait_dispatch_is_transparent() {
        let mix = mixes::by_name("MIX1").unwrap();
        let direct = Server::for_workload(cfg(), &mix, 7)
            .unwrap()
            .run(4, |_| None);
        let mut via: Box<dyn EpochBackend> =
            Box::new(Server::for_workload(cfg(), &mix, 7).unwrap());
        for (i, e) in direct.epochs.iter().enumerate() {
            assert_eq!(&via.run_epoch(None), e, "epoch {i}");
        }
    }

    #[test]
    fn ops_counters_advance_deterministically() {
        let mix = mixes::by_name("MEM2").unwrap();
        let mut des = Server::for_workload(cfg(), &mix, 3).unwrap();
        let mut ana = AnalyticServer::for_workload(cfg(), &mix, 3).unwrap();
        assert_eq!(EpochBackend::ops(&ana), 0);
        for _ in 0..3 {
            EpochBackend::run_epoch(&mut des, None);
            EpochBackend::run_epoch(&mut ana, None);
        }
        // Analytic: epochs × cores × fixed-point iterations, exactly.
        assert_eq!(EpochBackend::ops(&ana), 3 * 4 * 60);
        // DES: positive and repeatable for the same seed.
        let ops1 = EpochBackend::ops(&des);
        assert!(ops1 > 0);
        let mut des2 = Server::for_workload(cfg(), &mix, 3).unwrap();
        for _ in 0..3 {
            EpochBackend::run_epoch(&mut des2, None);
        }
        assert_eq!(EpochBackend::ops(&des2), ops1);
        // Cost breakdowns are consistent with the scalar counters and
        // repeatable for the same seed.
        assert_eq!(EpochBackend::cost(&ana).solver_iters, 3 * 4 * 60);
        let c = EpochBackend::cost(&des);
        assert_eq!(c.event_pushes, ops1);
        assert!(c.event_pops > 0 && c.event_pops <= c.event_pushes);
        assert!(c.rng_draws > 0);
        assert_eq!(EpochBackend::cost(&des2), c);
    }

    #[test]
    fn observation_appears_after_first_epoch() {
        let mix = mixes::by_name("ILP1").unwrap();
        let mut b = AnalyticServer::for_workload(cfg(), &mix, 1).unwrap();
        assert!(EpochBackend::observation(&b).is_none());
        EpochBackend::run_epoch(&mut b, None);
        assert!(EpochBackend::observation(&b).is_some());
    }
}
