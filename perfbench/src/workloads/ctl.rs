//! `ctl_scaling`: the closed loop over the analytic backend on MIX1, one
//! cell per `(policy, cores)` of [`ctl_cells`], each capped at 60 % of
//! peak and compared against the uncapped analytic run of the same seed
//! and core count. No DES events: host time is the policies' decides and
//! the analytic solve, which is where the paper's scalability claim
//! lives.

use crate::report::{ctl_cells, digest_of, ratio, Report, CTL_CORES};
use crate::timed::{shared, BackendStats, PolicyStats, TimedBackend, TimedPolicy};
use crate::{power_shares, repeat, report_backend, report_decide_share, report_outcome};
use crate::{repeat_timed, report_policies, report_times};
use crate::{secs, Ctx, PolicyCell, UnitTimes, SKIP};
use fastcap_bench::harness::PolicyKind;
use fastcap_core::error::{Error, Result};
use fastcap_policies::{CappingPolicy, ClosedLoop};
use fastcap_sim::{AnalyticServer, EpochBackend, RunResult, SimConfig};
use fastcap_workloads::{mixes, WorkloadSpec};
use std::time::Instant;

const MIX: &str = "MIX1";
const BUDGET: f64 = 0.6;
const DILATION: f64 = 25.0;
/// Epochs per cell. The exhaustive and beam MaxBIPS cells decide in
/// milliseconds, so they run fewer epochs to keep the scalable policies'
/// decides a visible share of the unit.
const EPOCHS: usize = 60;
const MAXBIPS_EPOCHS: usize = 15;

fn epochs(kind: PolicyKind) -> usize {
    match kind {
        PolicyKind::MaxBips | PolicyKind::MaxBipsBeam => MAXBIPS_EPOCHS,
        _ => EPOCHS,
    }
}

fn mix() -> Result<WorkloadSpec> {
    mixes::by_name(MIX).ok_or_else(|| Error::InvalidConfig {
        what: "mix",
        why: format!("unknown mix `{MIX}`"),
    })
}

fn cfg(n_cores: usize) -> Result<SimConfig> {
    Ok(SimConfig::ispass(n_cores)?.with_time_dilation(DILATION))
}

type Cell = (PolicyKind, usize, AnalyticServer, Box<dyn CappingPolicy>);
type Capped = (PolicyKind, usize, RunResult);

/// The baselines (one per core count) and the cells of one unit.
fn build(mix: &WorkloadSpec, seed: u64) -> Result<(Vec<AnalyticServer>, Vec<Cell>)> {
    let bases = CTL_CORES
        .iter()
        .map(|&n| AnalyticServer::for_workload(cfg(n)?, mix, seed))
        .collect::<Result<_>>()?;
    let cells = ctl_cells()
        .into_iter()
        .map(|(kind, n)| {
            let cfg = cfg(n)?;
            let policy = kind.build(cfg.controller_config(BUDGET)?)?;
            Ok((
                kind,
                n,
                AnalyticServer::for_workload(cfg, mix, seed)?,
                policy,
            ))
        })
        .collect::<Result<_>>()?;
    Ok((bases, cells))
}

fn run_result(cfg: &SimConfig, epochs: Vec<fastcap_sim::EpochReport>) -> RunResult {
    RunResult {
        n_cores: cfg.n_cores,
        sim_epoch_length: cfg.sim_epoch_length(),
        peak_power: cfg.peak_power,
        epochs,
    }
}

/// One unit of the end-to-end pass: its times, the baselines and the
/// capped cells.
fn plain_unit(mix: &WorkloadSpec, seed: u64) -> Result<(UnitTimes, Vec<RunResult>, Vec<Capped>)> {
    let t0 = Instant::now();
    let (bases, cells) = build(mix, seed)?;
    let setup_s = secs(t0);
    let t1 = Instant::now();
    let baselines: Vec<RunResult> = bases
        .into_iter()
        .map(|mut b| b.run(EPOCHS, |_| None))
        .collect();
    let capped: Vec<Capped> = cells
        .into_iter()
        .map(|(k, n, s, p)| (k, n, ClosedLoop::new(s, p).run(epochs(k))))
        .collect();
    let wall_s = secs(t1);
    Ok((UnitTimes { setup_s, wall_s }, baselines, capped))
}

/// Reports the simulated outcome of every cell against the baseline of
/// its core count, over the cell's own epochs.
fn outcome(rep: &mut Report, baselines: &[RunResult], capped: &[Capped]) -> Result<()> {
    let (mut shares, mut degr) = (Vec::new(), Vec::new());
    for (kind, n, run) in capped {
        let i = CTL_CORES
            .iter()
            .position(|c| c == n)
            .expect("cell core count");
        let budget = cfg(*n)?.controller_config(BUDGET)?.budget().get();
        shares.extend(power_shares(run, &vec![budget; epochs(*kind)]));
        let mut base = baselines[i].clone();
        base.epochs.truncate(run.epochs.len());
        degr.extend(run.degradation_vs(&base, SKIP)?);
    }
    report_outcome(rep, &shares, &degr, "all 22 cells pooled");
    Ok(())
}

/// Runs the workload's pass and fills `rep`.
///
/// # Errors
///
/// Propagates simulator and policy construction failures.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<()> {
    let mix = mix()?;
    if !ctx.trace {
        let mut outputs = None;
        let times = repeat_timed(ctx.seconds, || {
            let (times, baselines, capped) = plain_unit(&mix, ctx.seed)?;
            rep.digest("ctl_scaling", digest_of(&(&baselines, &capped)));
            outputs.get_or_insert((baselines, capped));
            Ok(times)
        })?;
        report_times(rep, &times);
        let (baselines, capped) = outputs.expect("at least one unit ran");
        return outcome(rep, &baselines, &capped);
    }

    // The traced pass must reproduce the end-to-end pass's outputs.
    let (_, baselines, capped) = plain_unit(&mix, ctx.seed)?;
    rep.digest("ctl_scaling", digest_of(&(&baselines, &capped)));
    outcome(rep, &baselines, &capped)?;
    let backend = shared::<BackendStats>();
    let cells: Vec<PolicyCell> = ctl_cells()
        .into_iter()
        .map(|(kind, n_cores)| PolicyCell {
            kind,
            n_cores,
            stats: shared::<PolicyStats>(),
        })
        .collect();
    // Host time of the baselines and of each cell's closed loop.
    let mut base_ns = 0.0;
    let mut cell_ns = vec![0.0; cells.len()];
    let units = repeat(ctx.seconds, || {
        let (bases, built) = build(&mix, ctx.seed)?;
        let t0 = Instant::now();
        let baselines: Vec<RunResult> = bases
            .into_iter()
            .map(|b| {
                let c = b.config().clone();
                let mut b = TimedBackend::new(b, &backend);
                run_result(&c, (0..EPOCHS).map(|_| b.run_epoch(None)).collect())
            })
            .collect();
        base_ns += secs(t0) * 1e9;
        let capped: Vec<Capped> = built
            .into_iter()
            .zip(&cells)
            .zip(&mut cell_ns)
            .map(|(((k, n, s, p), cell), ns)| {
                let s = TimedBackend::new(s, &backend);
                let p = TimedPolicy::boxed(p, &cell.stats);
                let t = Instant::now();
                let run = ClosedLoop::new(s, p).run(epochs(k));
                *ns += secs(t) * 1e9;
                (k, n, run)
            })
            .collect();
        rep.digest("ctl_scaling", digest_of(&(&baselines, &capped)));
        Ok(())
    })?;
    let loop_ns = base_ns + cell_ns.iter().sum::<f64>();
    report_backend(rep, ctx, &backend.borrow(), loop_ns, units.len());
    report_policies(rep, ctx, &cells);
    report_decide_share(rep, &cells, loop_ns, "loop host time (baselines included)");
    for (cell, ns) in cells.iter().zip(&cell_ns) {
        let decide: u64 = cell.stats.borrow().decide_ns.iter().sum();
        rep.note(format!(
            "{}.{}c: decide {:.1} % of the cell's loop, cell {:.1} % of the loop",
            cell.kind.name(),
            cell.n_cores,
            100.0 * ratio(decide as f64, *ns),
            100.0 * ratio(*ns, loop_ns)
        ));
    }
    rep.note(format!(
        "uncapped baselines: {:.1} % of the loop",
        100.0 * ratio(base_ns, loop_ns)
    ));
    Ok(())
}
