//! The process-global trace hub.
//!
//! The repro CLI arms tracing once per process (`--trace FILE`); run
//! loops deep in the stack then check [`hub()`] — a single atomic load
//! when tracing is off — and, when armed, record into a **private**
//! [`Tracer`] which they submit under a deterministic stream name when
//! the run finishes. Submission order depends on `--jobs` scheduling;
//! [`TraceHub::drain_sorted`] sorts streams by name (then serialized
//! content as the tiebreak for duplicate names), so exported bytes do
//! not.

use std::sync::{Mutex, OnceLock};

use fastcap_core::cost::OPS;

use crate::event::Stamped;
use crate::metrics::MetricsRegistry;
use crate::sink::Tracer;

/// Hub configuration, fixed at install time.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring-buffer capacity per stream (events).
    pub capacity: usize,
    /// `COST_MODEL.json` per-op nanosecond weights, [`OPS`]-ordered.
    pub ns_weights: [f64; OPS.len()],
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 13,
            ns_weights: [0.0; OPS.len()],
        }
    }
}

/// One finished, submitted trace stream.
#[derive(Debug, Clone)]
pub struct TraceStream {
    /// Deterministic stream name (policy/mix/seed…), also the Chrome
    /// process name.
    pub name: String,
    /// Stamped events, oldest first.
    pub events: Vec<Stamped>,
    /// Events the bounded ring dropped (oldest-first) during the run.
    pub dropped: u64,
    /// Run-scoped metrics.
    pub metrics: MetricsRegistry,
}

/// Collects finished trace streams from concurrently-running shards.
#[derive(Debug)]
pub struct TraceHub {
    cfg: TraceConfig,
    streams: Mutex<Vec<TraceStream>>,
}

static HUB: OnceLock<TraceHub> = OnceLock::new();

/// Arms process-global tracing. Returns `false` if already armed (the
/// first configuration wins — tracing stays armed for the process
/// lifetime, mirroring the CLI's once-per-invocation `--trace`).
pub fn install(cfg: TraceConfig) -> bool {
    HUB.set(TraceHub {
        cfg,
        streams: Mutex::new(Vec::new()),
    })
    .is_ok()
}

/// The armed hub, if any. This is the once-per-run/epoch check the hot
/// paths make; when tracing is off it is a single atomic load.
#[must_use]
pub fn hub() -> Option<&'static TraceHub> {
    HUB.get()
}

/// Runs `run` with a private tracer when the hub is armed, then submits
/// the stream under `name()`; with `None` (and without building the
/// name) when tracing is off.
pub fn traced<R>(name: impl FnOnce() -> String, run: impl FnOnce(Option<&mut Tracer>) -> R) -> R {
    match hub() {
        None => run(None),
        Some(hub) => {
            let mut tracer = hub.tracer();
            let out = run(Some(&mut tracer));
            hub.submit(name(), tracer);
            out
        }
    }
}

impl TraceHub {
    /// A fresh private tracer configured like the hub.
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.cfg.capacity, self.cfg.ns_weights)
    }

    /// The configured per-op weights (for pricing outside a tracer).
    #[must_use]
    pub fn ns_weights(&self) -> [f64; OPS.len()] {
        self.cfg.ns_weights
    }

    /// Submits a finished run's tracer under `name`.
    pub fn submit(&self, name: String, tracer: Tracer) {
        let (events, dropped, metrics) = tracer.into_parts();
        if events.is_empty() && metrics.is_empty() {
            return;
        }
        self.streams
            .lock()
            .expect("trace hub poisoned")
            .push(TraceStream {
                name,
                events,
                dropped,
                metrics,
            });
    }

    /// Takes all submitted streams, sorted by `(name, event bytes)` so
    /// the result is independent of submission (i.e. `--jobs`) order.
    #[must_use]
    pub fn drain_sorted(&self) -> Vec<TraceStream> {
        let mut streams = std::mem::take(&mut *self.streams.lock().expect("trace hub poisoned"));
        streams.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then_with(|| format!("{:?}", a.events).cmp(&format!("{:?}", b.events)))
        });
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn drain_sorts_streams_by_name_regardless_of_submit_order() {
        // Use a local hub (the global one is process-wide).
        let hub = TraceHub {
            cfg: TraceConfig::default(),
            streams: Mutex::new(Vec::new()),
        };
        for name in ["b/stream", "a/stream", "c/stream"] {
            let mut t = hub.tracer();
            t.record(TraceEvent::Control {
                epoch: 0,
                kind: "budget_step",
                detail: name.to_string(),
            });
            hub.submit(name.to_string(), t);
        }
        let names: Vec<String> = hub.drain_sorted().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a/stream", "b/stream", "c/stream"]);
        // Drained: a second drain is empty.
        assert!(hub.drain_sorted().is_empty());
    }

    #[test]
    fn empty_tracers_are_not_submitted() {
        let hub = TraceHub {
            cfg: TraceConfig::default(),
            streams: Mutex::new(Vec::new()),
        };
        hub.submit("empty".into(), hub.tracer());
        assert!(hub.drain_sorted().is_empty());
    }
}
