//! The metric registry, the run report and the statistics helpers.
//!
//! [`END_TO_END`] and [`per_layer`] are the single list of metric names;
//! `BENCHMARK.json` mirrors them and the manifest test keeps the two
//! equal. Every run prints every metric of its pass: a per-layer metric
//! whose layer the workload does not exercise reads 0.

use fastcap_bench::costmodel::fnv1a;
use fastcap_bench::PolicyKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("power_p99_pct_of_cap", "%", "lower"),
    ("avg_degradation", "ratio", "lower"),
    ("worst_degradation", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The four core counts of the `ctl_scaling` sweep.
pub const CTL_CORES: [usize; 4] = [4, 16, 64, 256];

/// The policies swept at every core count of `ctl_scaling`.
pub const CTL_POLICIES: [PolicyKind; 5] = [
    PolicyKind::FastCap,
    PolicyKind::CpuOnly,
    PolicyKind::FreqPar,
    PolicyKind::EqlPwr,
    PolicyKind::EqlFreq,
];

/// Every policy the benchmark runs somewhere.
pub const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::FastCap,
    PolicyKind::CpuOnly,
    PolicyKind::FreqPar,
    PolicyKind::EqlPwr,
    PolicyKind::EqlFreq,
    PolicyKind::MaxBips,
    PolicyKind::MaxBipsBeam,
];

/// The `(policy, cores)` cells of `ctl_scaling`: the five scalable
/// policies at every core count, exhaustive MaxBIPS where it can build
/// (4 cores) and its beam variant at 16.
#[must_use]
pub fn ctl_cells() -> Vec<(PolicyKind, usize)> {
    let mut cells: Vec<(PolicyKind, usize)> = CTL_POLICIES
        .iter()
        .flat_map(|&k| CTL_CORES.iter().map(move |&n| (k, n)))
        .collect();
    cells.push((PolicyKind::MaxBips, 4));
    cells.push((PolicyKind::MaxBipsBeam, 16));
    cells
}

/// Name of a decide-latency cell metric.
#[must_use]
pub fn cell_metric(kind: PolicyKind, n_cores: usize) -> String {
    format!("policies.decide_us_p50.{}.{n_cores}c", kind.name())
}

/// Name of a policy's modeled-over-measured metric.
#[must_use]
pub fn policy_model_metric(kind: PolicyKind) -> String {
    format!("policies.modeled_over_measured.{}", kind.name())
}

/// `(name, unit, better)` of every per-layer metric, in report order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let fixed = |rows: &[(&str, &'static str, &'static str)]| {
        rows.iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect::<Vec<_>>()
    };
    let mut out = fixed(&[
        ("sim.events", "count", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
        ("sim.epoch_us_p50", "us", "lower"),
        ("sim.busy_share", "share", "lower"),
        ("sim.mev_per_s", "Mevents/s", "higher"),
        ("sim.modeled_over_measured", "ratio", "higher"),
        ("policies.decide_calls", "count", "lower"),
        ("policies.decide_errors", "count", "lower"),
        ("policies.decide_share", "share", "lower"),
        ("policies.power_over_cap_pct", "%", "lower"),
        ("policies.fastcap_decide_us_p50", "us", "lower"),
        ("policies.fastcap_decide_us_p99", "us", "lower"),
    ]);
    out.extend(
        ctl_cells()
            .into_iter()
            .map(|(k, n)| (cell_metric(k, n), "us", "lower")),
    );
    out.extend(
        ALL_POLICIES
            .iter()
            .map(|&k| (policy_model_metric(k), "ratio", "higher")),
    );
    out.extend(fixed(&[
        ("core.solver_iters", "count", "lower"),
        ("core.bus_evals", "count", "lower"),
        ("core.grid_points", "count", "lower"),
        ("core.quantize_ops", "count", "lower"),
        ("core.fitter_updates", "count", "lower"),
        ("fleet.leaf_epochs", "count", "lower"),
        ("fleet.waterfill_passes", "count", "lower"),
        ("fleet.ns_per_leaf_epoch", "ns", "lower"),
        ("fleet.leaf_step_share", "share", "lower"),
        ("fleet.tree_self_share", "share", "lower"),
        ("trace.events", "count", "lower"),
        ("trace.dropped", "count", "lower"),
        ("trace.bytes", "bytes", "lower"),
        ("trace.export_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]));
    out
}

/// One reported value and how it was obtained (sample count, statistic).
#[derive(Debug, Clone)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Sample count and statistic, e.g. `median of 17 units`.
    pub how: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, Value>,
    attempted: u64,
    failures: Vec<String>,
    notes: std::collections::BTreeSet<String>,
    digests: Vec<(String, u64)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, how: impl Into<String>) {
        self.values.insert(
            name.into(),
            Value {
                value,
                how: how.into(),
            },
        );
    }

    /// Counts one attempted check or call; records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts `n` attempted calls of which `failed` errored.
    pub fn calls(&mut self, what: &str, n: u64, failed: u64) {
        self.attempted += n;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {n} {what} calls errored"));
        }
    }

    /// Records an output digest and checks it against every earlier
    /// digest recorded under the same label.
    pub fn digest(&mut self, label: &str, digest: u64) {
        let first = self
            .digests
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, d)| d);
        match first {
            None => {
                self.attempted += 1;
                self.digests.push((label.to_string(), digest));
            }
            Some(d) => self.check(d == digest, || {
                format!("{label}: digest {digest:#018x} differs from {d:#018x}")
            }),
        }
    }

    /// Records an observation worth printing that is not a failure.
    pub fn note(&mut self, what: String) {
        self.notes.insert(what);
    }

    /// Records an error that stopped the workload.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the human-readable lines and the final JSON line for the
    /// metrics of one pass (`(name, unit)` rows). A metric the workload
    /// did not set reads 0; a non-finite value is a failure.
    pub fn render(&mut self, rows: &[(String, &'static str)]) -> String {
        let mut out = String::new();
        for (label, d) in &self.digests {
            let _ = writeln!(out, "digest {label} = {d:#018x}");
        }
        let mut json = Vec::new();
        for (name, unit) in rows {
            let v = self.values.get(name).cloned().unwrap_or(Value {
                value: 0.0,
                how: "not exercised by this workload".into(),
            });
            if !v.value.is_finite() {
                self.fail(format!("metric {name} is not finite: {}", v.value));
            }
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ = writeln!(out, "metric {name} = {value} {unit} ({})", v.how);
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for n in &self.notes {
            let _ = writeln!(out, "NOTE: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(1);
        let _ = writeln!(
            out,
            "failed_frac = {} ({failed} of {attempted} checks and calls)",
            failed as f64 / attempted as f64
        );
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            json.join(", ")
        );
        out
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for an empty slice.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (nearest rank); 0 for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanosecond samples as microseconds.
#[must_use]
pub fn micros(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// FNV-1a digest of the `Debug` rendering of `value`. `Debug` prints
/// floats exactly (shortest round-trip form), so equal digests mean
/// bit-equal outputs.
#[must_use]
pub fn digest_of<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// FNV-1a digest of a list of byte strings (their digests, chained).
#[must_use]
pub fn digest_bytes(parts: &[&[u8]]) -> u64 {
    let chained: Vec<u8> = parts.iter().flat_map(|p| fnv1a(p).to_le_bytes()).collect();
    fnv1a(&chained)
}
