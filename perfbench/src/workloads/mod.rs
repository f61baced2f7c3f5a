//! The benchmark's workloads. Each runs either the end-to-end pass
//! (`Ctx::trace == false`: program code only, timed per unit) or the
//! traced pass (decorated program code, per-layer attribution).

pub mod ctl;
pub mod des;
pub mod fleet;

use crate::report::Report;
use crate::Ctx;
use fastcap_core::error::Result;

/// `(name, why)` of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "des_mem64",
        "sim-bound: FastCap on MEM1 at 64 cores over the DES with its uncapped baseline; event engine dominates, decide is under 1% of host time",
    ),
    (
        "ctl_scaling",
        "decide-bound: 22 policy and core-count cells on the analytic backend, 4 to 256 cores, no DES events; decide is about 80% of host time, the MaxBIPS cells a third",
    ),
    (
        "fleet_traced",
        "tree- and trace-bound: 4096-leaf sampled fleet under fleet_settle, driven with the program tracer and exported",
    ),
];

/// Runs workload `name`'s pass into `rep`.
///
/// # Errors
///
/// Propagates the workload's failures; an unknown name is a config error.
pub fn run(name: &str, ctx: &Ctx, rep: &mut Report) -> Result<()> {
    match name {
        "des_mem64" => des::run(ctx, rep),
        "ctl_scaling" => ctl::run(ctx, rep),
        "fleet_traced" => fleet::run(ctx, rep),
        other => Err(fastcap_core::error::Error::InvalidConfig {
            what: "workload",
            why: format!("unknown workload `{other}`"),
        }),
    }
}
