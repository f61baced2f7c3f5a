//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's end-to-end pass (`--trace 0`) or traced per-layer
//! pass (`--trace 1`), prints provenance, digests and every metric of the
//! pass with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when
//! any check failed or the workload errored.

use fastcap_bench::costmodel::CostModel;
use perfbench::report::{self, Report};
use perfbench::{workloads, Ctx};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: invalid value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A field of `/proc/self/status`, in its own unit (kB for memory).
fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// This thread's `(on-CPU, run-queue wait)` ns so far, from
/// `/proc/thread-self/schedstat`; zeros where it is unavailable.
fn sched_ns() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = text
        .split_whitespace()
        .map(|x| x.parse::<u64>().unwrap_or(0));
    (f.next().unwrap_or(0), f.next().unwrap_or(0))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let weights = match CostModel::embedded() {
        Ok(m) => m.weights,
        Err(e) => {
            eprintln!("embedded COST_MODEL.json is invalid: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        weights,
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} pass={}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace {
            "traced (per-layer)"
        } else {
            "end-to-end"
        }
    );
    println!(
        "provenance commit={} rustc=\"{}\" nproc={nproc} threads=1 jobs=1 lanes=1 profile=release",
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_RUSTC"),
    );

    let mut rep = Report::default();
    if let Err(e) = workloads::run(&args.workload, &ctx, &mut rep) {
        rep.fail(format!("{} errored: {e}", args.workload));
    }
    let (on_cpu, waited) = sched_ns();
    println!(
        "host scheduling: {:.3} s on CPU, {:.3} s waiting for a CPU",
        on_cpu as f64 / 1e9,
        waited as f64 / 1e9
    );
    let threads = proc_status("Threads:").unwrap_or(0.0);
    rep.check(threads == 1.0, || {
        format!("expected one thread, saw {threads}")
    });

    let rows: Vec<(String, &'static str)> = if args.trace {
        report::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        let rss_mb = proc_status("VmHWM:").unwrap_or(0.0) / 1024.0;
        rep.set("peak_rss_mb", rss_mb, "VmHWM of the process");
        report::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    print!("{}", rep.render(&rows));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
