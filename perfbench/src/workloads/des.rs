//! `des_mem64`: FastCap at 60 % of peak on MEM1 at 64 cores, full-mode
//! dilation, run as `harness::run_capped` runs it — the capped closed loop
//! over the DES plus its same-seed uncapped baseline. About 200k DES
//! events per epoch against one 64-core decide, so the simulator's event
//! engine dominates host time.

use crate::report::{digest_of, Report};
use crate::timed::{shared, BackendStats, PolicyStats, TimedBackend, TimedPolicy};
use crate::{power_shares, repeat, report_backend, report_decide_share, report_outcome};
use crate::{repeat_timed, report_policies, report_times};
use crate::{secs, Ctx, PolicyCell, UnitTimes, SKIP};
use fastcap_bench::harness::{run_capped, PolicyKind};
use fastcap_core::error::{Error, Result};
use fastcap_policies::{CappingPolicy, ClosedLoop};
use fastcap_sim::{EpochBackend, RunResult, Server, SimConfig};
use fastcap_workloads::{mixes, WorkloadSpec};
use std::time::Instant;

const N_CORES: usize = 64;
const MIX: &str = "MEM1";
const BUDGET: f64 = 0.6;
/// The full-mode dilation of every `fig*` artifact.
const DILATION: f64 = 25.0;
const EPOCHS: usize = 30;

fn inputs() -> Result<(SimConfig, WorkloadSpec)> {
    let cfg = SimConfig::ispass(N_CORES)?.with_time_dilation(DILATION);
    let mix = mixes::by_name(MIX).ok_or_else(|| Error::InvalidConfig {
        what: "mix",
        why: format!("unknown mix `{MIX}`"),
    })?;
    Ok((cfg, mix))
}

/// The baseline server, the capped server and the policy of one unit.
fn build(
    cfg: &SimConfig,
    mix: &WorkloadSpec,
    seed: u64,
) -> Result<(Server, Server, Box<dyn CappingPolicy>)> {
    let policy = PolicyKind::FastCap.build(cfg.controller_config(BUDGET)?)?;
    let base = Server::for_workload(cfg.clone(), mix, seed)?;
    let capped = Server::for_workload(cfg.clone(), mix, seed)?;
    Ok((base, capped, policy))
}

/// Runs the workload's pass and fills `rep`.
///
/// # Errors
///
/// Propagates simulator and policy construction failures.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<()> {
    let (cfg, mix) = inputs()?;
    // The program's own entry point is the reference every unit must
    // reproduce.
    let reference = run_capped(&cfg, &mix, PolicyKind::FastCap, BUDGET, EPOCHS, ctx.seed)?;
    rep.digest(
        "des_mem64",
        digest_of(&(&reference.baseline, &reference.capped)),
    );
    let budget = vec![reference.budget.get(); EPOCHS];
    let d = reference.capped.degradation_vs(&reference.baseline, SKIP)?;
    report_outcome(
        rep,
        &power_shares(&reference.capped, &budget),
        &d,
        "FastCap 64c",
    );

    if !ctx.trace {
        let times = repeat_timed(ctx.seconds, || {
            let t0 = Instant::now();
            let (mut base, capped, policy) = build(&cfg, &mix, ctx.seed)?;
            let setup_s = secs(t0);
            let t1 = Instant::now();
            let baseline = base.run(EPOCHS, |_| None);
            let capped = ClosedLoop::new(capped, policy).run(EPOCHS);
            let wall_s = secs(t1);
            rep.digest("des_mem64", digest_of(&(&baseline, &capped)));
            Ok(UnitTimes { setup_s, wall_s })
        })?;
        report_times(rep, &times);
        return Ok(());
    }

    let backend = shared::<BackendStats>();
    let policy = shared::<PolicyStats>();
    let mut loop_ns = 0.0;
    let units = repeat(ctx.seconds, || {
        let (base, capped, p) = build(&cfg, &mix, ctx.seed)?;
        let mut base = TimedBackend::new(base, &backend);
        let capped = TimedBackend::new(capped, &backend);
        let t1 = Instant::now();
        let epochs = (0..EPOCHS).map(|_| base.run_epoch(None)).collect();
        let capped = ClosedLoop::new(capped, TimedPolicy::boxed(p, &policy)).run(EPOCHS);
        loop_ns += secs(t1) * 1e9;
        let baseline = RunResult {
            n_cores: cfg.n_cores,
            sim_epoch_length: cfg.sim_epoch_length(),
            peak_power: cfg.peak_power,
            epochs,
        };
        rep.digest("des_mem64", digest_of(&(&baseline, &capped)));
        Ok(())
    })?;
    report_backend(rep, ctx, &backend.borrow(), loop_ns, units.len());
    let cells = [PolicyCell {
        kind: PolicyKind::FastCap,
        n_cores: N_CORES,
        stats: policy,
    }];
    report_policies(rep, ctx, &cells);
    report_decide_share(rep, &cells, loop_ns, "baseline and capped loop host time");
    Ok(())
}
