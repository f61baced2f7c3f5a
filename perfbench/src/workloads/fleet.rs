//! `fleet_traced`: a 64 × 64 fleet of four-core Sampled-tier leaves under
//! the checked-in `fleet_settle` timeline, driven by `Fleet::run_traced`
//! with a program tracer and exported as `repro trace` exports it. The
//! response surfaces are recorded in set-up. Host time is the budget
//! tree's passes, the leaf lookups and the tracer.

use crate::report::{digest_bytes, median, ratio, Report};
use crate::timed::{shared, timer_overhead_ns, ModelStats, TimedModel};
use crate::{repeat, repeat_timed, report_outcome, report_times, secs, Ctx, UnitTimes, SKIP};
use fastcap_bench::fleet_support::{
    ensure_conserved, fleet_spec, record_surfaces, sampled_builder, FLEET_MIXES, FLEET_SEED_STREAM,
};
use fastcap_bench::sweep::derive_seed;
use fastcap_bench::Opts;
use fastcap_core::error::{Error, Result};
use fastcap_fleet::{Fleet, FleetRun, LeafSpec, ResponseSurface, SampledModel, ServerModel};
use fastcap_scenario::{rack_name, FleetScenario};
use fastcap_trace::hub::TraceStream;
use fastcap_trace::{chrome_trace_json, metrics_csv, TraceConfig, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const SCENARIO: &str = include_str!("../../../scenarios/fleet/fleet_settle.json");
const RACKS: usize = 64;
const PER_RACK: usize = 64;
const N_CORES: usize = 4;
/// The `fleet_settle` artifact's initial budget fraction.
const BUDGET: f64 = 0.85;
/// Long enough that the run, not the export of the ring's last 8192
/// events, is most of a unit.
const EPOCHS: usize = 2000;

type Surfaces = BTreeMap<String, Arc<ResponseSurface>>;

fn scenario() -> Result<FleetScenario> {
    let scenario = FleetScenario::from_json(SCENARIO).map_err(|why| Error::InvalidConfig {
        what: "fleet scenario",
        why,
    })?;
    let racks: Vec<String> = (0..RACKS).map(rack_name).collect();
    match scenario.lint(&racks).first() {
        None => Ok(scenario),
        Some(first) => Err(Error::InvalidConfig {
            what: "fleet scenario",
            why: first.clone(),
        }),
    }
}

/// The surfaces, recorded at `--jobs 1` and one lane, as the quick
/// `fleet_*` artifacts record them.
fn surfaces(seed: u64) -> Result<Surfaces> {
    let opts = Opts {
        quick: true,
        seed,
        jobs: 1,
        lanes: Some(1),
        ..Opts::default()
    };
    record_surfaces(&opts, N_CORES)
}

/// One leaf per rack, rotating through the mixes: the leaves whose
/// throughput series the degradation metrics read.
fn traced_leaves() -> Vec<usize> {
    (0..RACKS).map(|r| r * PER_RACK + r % PER_RACK).collect()
}

fn build<M: ServerModel>(
    scenario: &FleetScenario,
    seed: u64,
    leaf: &mut dyn FnMut(&LeafSpec, u64, f64) -> Result<M>,
) -> Result<Fleet<M>> {
    let spec = fleet_spec(RACKS, PER_RACK, N_CORES);
    let mut fleet = Fleet::new(
        &spec,
        scenario,
        BUDGET,
        derive_seed(seed, FLEET_SEED_STREAM),
        leaf,
    )?;
    fleet.trace_leaves(&traced_leaves());
    Ok(fleet)
}

/// The traced run and its export, as `repro trace` produces them.
struct Traced {
    run: FleetRun,
    json: String,
    csv: String,
    events: u64,
    dropped: u64,
}

fn run_traced<M: ServerModel>(fleet: &mut Fleet<M>, ctx: &Ctx) -> Result<(Traced, f64, f64)> {
    let mut tracer = Tracer::new(TraceConfig::default().capacity, ctx.weights.ns);
    let t0 = Instant::now();
    let run = fleet.run_traced(EPOCHS, Some(&mut tracer))?;
    let run_s = secs(t0);
    let (events, dropped, metrics) = tracer.into_parts();
    let held = events.len() as u64;
    let t1 = Instant::now();
    let streams = [TraceStream {
        name: format!("fleet/perfbench/b{BUDGET}/e{EPOCHS}/s{}", ctx.seed),
        events,
        dropped,
        metrics,
    }];
    let json = chrome_trace_json(&streams);
    let csv = metrics_csv(&streams);
    let export_s = secs(t1);
    let traced = Traced {
        run,
        json,
        csv,
        events: held + dropped,
        dropped,
    };
    Ok((traced, run_s, export_s))
}

fn check(rep: &mut Report, t: &Traced) {
    rep.check(ensure_conserved("fleet_traced", &t.run).is_ok(), || {
        format!("fleet conservation: {:?}", t.run.violations.first())
    });
    let run = format!("{:?}", t.run);
    let digest = digest_bytes(&[run.as_bytes(), t.json.as_bytes(), t.csv.as_bytes()]);
    rep.digest("fleet_traced", digest);
}

/// Runs the workload's pass and fills `rep`.
///
/// # Errors
///
/// Propagates surface recording, fleet construction and run failures.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<()> {
    let scenario = scenario()?;
    if !ctx.trace {
        let mut first = None;
        let times = repeat_timed(ctx.seconds, || {
            let t0 = Instant::now();
            let surfaces = surfaces(ctx.seed)?;
            let mut fleet = build(&scenario, ctx.seed, &mut sampled_builder(&surfaces))?;
            let setup_s = secs(t0);
            let (traced, run_s, export_s) = run_traced(&mut fleet, ctx)?;
            check(rep, &traced);
            first.get_or_insert((surfaces, traced.run));
            Ok(UnitTimes {
                setup_s,
                wall_s: run_s + export_s,
            })
        })?;
        report_times(rep, &times);
        let (surfaces, run) = first.expect("at least one unit ran");
        report_fleet_outcome(rep, &surfaces, &run);
        return Ok(());
    }

    let stats = shared::<ModelStats>();
    let (mut run_ns, mut twin_ns, mut timed_run_ns) = (0.0, 0.0, 0.0);
    let (mut export_ms, mut leaf_epochs, mut passes) = (Vec::new(), 0u64, 0u64);
    let mut last = None;
    let units = repeat(ctx.seconds, || {
        let surfaces = surfaces(ctx.seed)?;
        // The untraced twin: same inputs, no program tracer.
        let mut twin = build(&scenario, ctx.seed, &mut sampled_builder(&surfaces))?;
        let t0 = Instant::now();
        let untraced = twin.run(EPOCHS)?;
        twin_ns += secs(t0) * 1e9;
        let mut fleet = build(&scenario, ctx.seed, &mut sampled_builder(&surfaces))?;
        let (traced, run_s, export_s) = run_traced(&mut fleet, ctx)?;
        run_ns += run_s * 1e9;
        export_ms.push(export_s * 1e3);
        rep.check(untraced == traced.run, || {
            "fleet: traced and untraced runs differ".to_string()
        });
        check(rep, &traced);
        leaf_epochs += traced
            .run
            .epochs
            .iter()
            .map(|e| e.online_leaves as u64)
            .sum::<u64>();
        passes += fleet.waterfill_passes();
        // The decorated run attributes host time to the leaf models.
        {
            let mut inner = sampled_builder(&surfaces);
            let mut timed_leaf =
                |l: &LeafSpec, seed: u64, f: f64| -> Result<TimedModel<SampledModel>> {
                    Ok(TimedModel::new(inner(l, seed, f)?, &stats))
                };
            let mut decorated = build(&scenario, ctx.seed, &mut timed_leaf)?;
            let (timed, timed_s, _) = run_traced(&mut decorated, ctx)?;
            timed_run_ns += timed_s * 1e9;
            check(rep, &timed);
        }
        let bytes = traced.json.len() + traced.csv.len();
        last = Some((surfaces, traced.run, traced.events, traced.dropped, bytes));
        Ok(())
    })?;
    let n = units.len() as f64;
    let (surfaces, run, events, dropped, bytes) = last.expect("at least one unit ran");
    report_fleet_outcome(rep, &surfaces, &run);
    let s = stats.borrow();
    let calls = (s.steps + s.budget_sets) as f64;
    let (inside, total) = timer_overhead_ns();
    let leaf_ns = (s.step_ns + s.budget_set_ns) as f64 - calls * inside;
    let tree_ns = timed_run_ns - calls * total;
    let how = format!("{} units", units.len());
    rep.set(
        "fleet.leaf_epochs",
        leaf_epochs as f64 / n,
        format!("online leaf-epochs per unit, {how}"),
    );
    rep.set(
        "fleet.waterfill_passes",
        passes as f64 / n,
        format!("per unit, {how}"),
    );
    rep.set(
        "fleet.ns_per_leaf_epoch",
        ratio(run_ns, leaf_epochs as f64),
        format!("traced run host ns over leaf-epochs, {how}"),
    );
    rep.set(
        "fleet.leaf_step_share",
        ratio(leaf_ns, tree_ns).clamp(0.0, 1.0),
        format!("leaf step and budget-set host time over run host time, clock cost {inside:.1}/{total:.1} ns removed"),
    );
    rep.set(
        "fleet.tree_self_share",
        ratio(tree_ns - leaf_ns, tree_ns).clamp(0.0, 1.0),
        "run host time outside leaf calls (tree passes and tracer) over run host time",
    );
    rep.set("trace.events", events as f64, "events recorded per unit");
    rep.set(
        "trace.dropped",
        dropped as f64,
        "events the ring dropped per unit",
    );
    rep.set(
        "trace.bytes",
        bytes as f64,
        "Chrome JSON plus metrics CSV per unit",
    );
    rep.set(
        "trace.export_ms",
        median(&export_ms),
        format!("median of {} exports", export_ms.len()),
    );
    rep.set(
        "trace.overhead_pct",
        100.0 * ratio(run_ns - twin_ns, twin_ns),
        format!("traced over untraced run host time, summed over {how}"),
    );
    Ok(())
}

/// The fleet's simulated outcome: fleet power as a share of the committed
/// root budget, and each traced leaf's uncapped-surface throughput over
/// its settled capped throughput.
fn report_fleet_outcome(rep: &mut Report, surfaces: &Surfaces, run: &FleetRun) {
    let shares: Vec<f64> = run
        .epochs
        .iter()
        .skip(SKIP)
        .map(|e| e.power_w / e.committed_w)
        .collect();
    let degr: Vec<f64> = run
        .traces
        .iter()
        .map(|t| {
            let mix = FLEET_MIXES[t.leaf % FLEET_MIXES.len()];
            let uncapped = surfaces[mix].eval(1.0).1;
            let online: Vec<f64> = t
                .bips
                .iter()
                .skip(SKIP)
                .copied()
                .filter(|&b| b > 0.0)
                .collect();
            uncapped / (online.iter().sum::<f64>() / online.len().max(1) as f64)
        })
        .collect();
    report_outcome(rep, &shares, &degr, "fleet epochs and one leaf per rack");
}
