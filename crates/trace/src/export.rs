//! Exporters: Chrome trace-event JSON (Perfetto-loadable), a merged
//! metrics CSV, and a terminal summary table.
//!
//! Track layout (per stream = one Chrome "process"): tid 0 carries epoch
//! spans, tid 1 decision instants, tid 2 control instants, tid 3 the
//! lane-engine counter track, tid 4 tree-node counter tracks. Per-core
//! frequency counter tracks and per-node committed-watts tracks are
//! *derived* at export time from decision / tree events, so they cost no
//! ring-buffer capacity during the run.

use std::fmt::{self, Display, Write as _};

use crate::event::{DecisionRecord, TraceEvent};
use crate::hub::TraceStream;
use crate::metrics::MetricsRegistry;

/// Compact JSON appended straight into one buffer, byte for byte as the
/// `serde_json` shim's `to_string` renders the equivalent value tree: no
/// whitespace, floats in shortest round-trip form with a `.0` kept on
/// integral values and `null` for non-finite ones, and the shim's string
/// escapes. Keys are written as given, so callers pass plain ASCII.
#[derive(Default)]
struct Json {
    out: String,
    /// Nothing written yet in the innermost open object or array, so the
    /// next entry needs no leading comma.
    fresh: bool,
}

impl Json {
    fn sep(&mut self) {
        if !std::mem::take(&mut self.fresh) {
            self.out.push(',');
        }
    }

    /// Starts an object entry; the value call that follows completes it.
    fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\":");
        self
    }

    /// Starts an array element; the value call that follows completes it.
    fn elem(&mut self) -> &mut Self {
        self.sep();
        self
    }

    fn nest(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.out.push(open);
        self.fresh = true;
        body(self);
        self.out.push(close);
        self.fresh = false;
    }

    fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.nest('{', '}', body);
    }

    fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.nest('[', ']', body);
    }

    fn text(&mut self, s: impl Display) {
        self.out.push('"');
        let _ = write!(Escaped(&mut self.out), "{s}");
        self.out.push('"');
    }

    fn uint(&mut self, u: u64) {
        let _ = write!(self.out, "{u}");
    }

    fn float(&mut self, f: f64) {
        if f.is_finite() {
            let start = self.out.len();
            let _ = write!(self.out, "{f}");
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
    }

    /// A modeled-clock timestamp in Chrome's microseconds.
    fn us(&mut self, t_ns: u64) {
        self.float(t_ns as f64 / 1000.0);
    }

    fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// One trace event: `name`, `ph`, the instant scope `s` when given,
    /// `pid` and `tid`, then whatever `rest` writes.
    fn event(
        &mut self,
        name: impl Display,
        ph: &str,
        scope: Option<&str>,
        pid: u64,
        tid: u64,
        rest: impl FnOnce(&mut Self),
    ) {
        self.elem().obj(|e| {
            e.key("name").text(name);
            e.key("ph").text(ph);
            if let Some(s) = scope {
                e.key("s").text(s);
            }
            e.key("pid").uint(pid);
            e.key("tid").uint(tid);
            rest(e);
        });
    }

    /// A metadata event naming a process or thread.
    fn meta(&mut self, pid: u64, tid: u64, kind: &str, name: &str) {
        self.event(kind, "M", None, pid, tid, |e| {
            e.key("args").obj(|a| a.key("name").text(name));
        });
    }

    /// A sample on a counter track; `args` writes the counter values.
    fn counter(&mut self, pid: u64, t_ns: u64, name: impl Display, args: impl FnOnce(&mut Self)) {
        self.event(name, "C", None, pid, 3, |e| {
            e.key("ts").us(t_ns);
            e.key("args").obj(args);
        });
    }
}

/// Escapes everything written through it into the wrapped buffer, as the
/// `serde_json` shim escapes strings: `\"`, `\\`, `\n`, `\r`, `\t`, and
/// `\u00XX` for the other C0 controls.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Renders submitted streams as a Chrome trace-event JSON document.
///
/// Pure function of the (already name-sorted) streams: byte-identical
/// output for identical input, no wall clock, no host state. Events are
/// written straight into the output string, so peak memory is about the
/// size of the document.
#[must_use]
pub fn chrome_trace_json(streams: &[TraceStream]) -> String {
    let mut j = Json::default();
    j.obj(|j| {
        j.key("displayTimeUnit").text("ms");
        j.key("traceEvents").arr(|j| {
            for (i, stream) in streams.iter().enumerate() {
                write_stream(j, i as u64 + 1, stream);
            }
        });
    });
    j.out.push('\n');
    j.out
}

fn write_stream(j: &mut Json, pid: u64, stream: &TraceStream) {
    j.meta(pid, 0, "process_name", &stream.name);
    j.meta(pid, 0, "thread_name", "epochs");
    j.meta(pid, 1, "thread_name", "decisions");
    j.meta(pid, 2, "thread_name", "control");
    j.meta(pid, 3, "thread_name", "counters");
    for stamped in &stream.events {
        match &stamped.event {
            TraceEvent::EpochSpan {
                epoch,
                t_start_ns,
                t_end_ns,
                power_w,
            } => {
                j.event(format_args!("epoch {epoch}"), "X", None, pid, 0, |e| {
                    e.key("ts").us(*t_start_ns);
                    e.key("dur").us(t_end_ns.saturating_sub(*t_start_ns));
                    e.key("args").obj(|a| a.key("power_w").float(*power_w));
                });
                j.counter(pid, *t_end_ns, "power_w", |a| {
                    a.key("watts").float(*power_w)
                });
            }
            TraceEvent::Decision(d) => {
                j.event(
                    format_args!("decide {}", d.policy),
                    "i",
                    Some("t"),
                    pid,
                    1,
                    |e| {
                        e.key("ts").us(stamped.t_ns);
                        e.key("args").obj(|a| decision_fields(a, d));
                    },
                );
                for (c, &level) in d.core_freqs.iter().enumerate() {
                    j.counter(pid, stamped.t_ns, format_args!("core{c} freq"), |a| {
                        a.key("level").uint(level as u64)
                    });
                }
            }
            TraceEvent::Control {
                epoch,
                kind,
                detail,
            } => {
                j.event(kind, "i", Some("p"), pid, 2, |e| {
                    e.key("ts").us(stamped.t_ns);
                    e.key("args").obj(|a| {
                        a.key("epoch").uint(*epoch);
                        a.key("detail").text(detail);
                    });
                });
            }
            TraceEvent::Lane(l) => {
                j.counter(pid, stamped.t_ns, "lane_engine", |a| {
                    a.key("prefill_draws").uint(l.prefill_draws);
                    a.key("refill_fallbacks").uint(l.refill_fallbacks);
                    a.key("barrier_waits").uint(l.barrier_waits);
                });
            }
            TraceEvent::TreeAlloc {
                node,
                committed_w,
                children_w,
                ..
            } => {
                j.counter(
                    pid,
                    stamped.t_ns,
                    format_args!("node {node} committed_w"),
                    |a| a.key("watts").float(*committed_w),
                );
                for (c, &w) in children_w.iter().enumerate() {
                    j.counter(
                        pid,
                        stamped.t_ns,
                        format_args!("node {node} child{c}_w"),
                        |a| a.key("watts").float(w),
                    );
                }
            }
        }
    }
    if stream.dropped > 0 {
        j.event("ring_dropped", "i", Some("p"), pid, 2, |e| {
            e.key("ts").us(0);
            e.key("args").obj(|a| a.key("events").uint(stream.dropped));
        });
    }
}

/// The `args` of a decision instant: the whole audit record.
fn decision_fields(a: &mut Json, d: &DecisionRecord) {
    a.key("epoch").uint(d.epoch);
    a.key("policy").text(&d.policy);
    if let Some(b) = d.budget_w {
        a.key("budget_w").float(b);
    }
    a.key("observed_w").float(d.observed_w);
    a.key("solver_iters").uint(d.solver_iters);
    a.key("candidates").uint(d.candidates);
    a.key("core_freqs").arr(|f| {
        for &level in &d.core_freqs {
            f.elem().uint(level as u64);
        }
    });
    a.key("mem_freq").uint(d.mem_freq as u64);
    a.key("predicted_w").float(d.predicted_w);
    a.key("quantized_w").float(d.quantized_w);
    a.key("trim_w").float(d.trim_w);
    a.key("measured_w").float(d.measured_w);
    if let Some(s) = d.slack_w {
        a.key("slack_w").float(s);
    }
    a.key("budget_bound").bool(d.budget_bound);
    a.key("emergency").bool(d.emergency);
    a.key("decide_ns").uint(d.decide_ns);
}

/// Merges every stream's metrics (in stream order — already name-sorted)
/// and renders the combined registry as CSV.
#[must_use]
pub fn metrics_csv(streams: &[TraceStream]) -> String {
    let mut merged = MetricsRegistry::default();
    for s in streams {
        merged.merge(&s.metrics);
    }
    merged.to_csv()
}

/// A per-stream roll-up table for the terminal: event/decision counts,
/// ring drops, mean modeled decision latency, and worst overshoot.
#[must_use]
pub fn terminal_summary(streams: &[TraceStream]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>7} {:>9} {:>6} {:>12} {:>10}",
        "stream", "events", "decisions", "drops", "decide_us", "overshoot%"
    );
    for s in streams {
        let mut decisions = 0u64;
        let mut decide_ns_sum = 0u64;
        let mut worst_overshoot = f64::NEG_INFINITY;
        for stamped in &s.events {
            if let TraceEvent::Decision(d) = &stamped.event {
                decisions += 1;
                decide_ns_sum += d.decide_ns;
                if let Some(b) = d.budget_w {
                    if b > 0.0 {
                        worst_overshoot = worst_overshoot.max((d.measured_w - b) / b * 100.0);
                    }
                }
            }
        }
        let mean_us = if decisions > 0 {
            decide_ns_sum as f64 / decisions as f64 / 1000.0
        } else {
            0.0
        };
        let overshoot = if worst_overshoot.is_finite() {
            format!("{worst_overshoot:+.2}")
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<52} {:>7} {:>9} {:>6} {:>12.2} {:>10}",
            s.name,
            s.events.len(),
            decisions,
            s.dropped,
            mean_us,
            overshoot
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LaneRecord, Stamped};
    use serde_json::Value;

    fn stream_with(events: Vec<TraceEvent>) -> TraceStream {
        TraceStream {
            name: "test/stream".to_string(),
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| Stamped {
                    t_ns: i as u64 * 1000,
                    seq: i as u64,
                    event,
                })
                .collect(),
            dropped: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    fn sample_decision() -> DecisionRecord {
        DecisionRecord {
            epoch: 3,
            policy: "FastCap".to_string(),
            budget_w: Some(80.0),
            observed_w: 78.5,
            solver_iters: 12,
            candidates: 40,
            core_freqs: vec![5, 5, 4],
            mem_freq: 2,
            predicted_w: 79.0,
            quantized_w: 78.2,
            trim_w: 0.5,
            measured_w: 81.0,
            slack_w: Some(-1.0),
            budget_bound: true,
            emergency: false,
            decide_ns: 2500,
        }
    }

    #[test]
    fn chrome_json_parses_and_has_expected_phases() {
        let streams = vec![stream_with(vec![
            TraceEvent::EpochSpan {
                epoch: 0,
                t_start_ns: 0,
                t_end_ns: 1000,
                power_w: 75.0,
            },
            TraceEvent::Decision(sample_decision()),
            TraceEvent::Control {
                epoch: 1,
                kind: "budget_step",
                detail: "fraction=0.5".to_string(),
            },
            TraceEvent::Lane(LaneRecord {
                epoch: 1,
                prefill_draws: 64,
                refill_fallbacks: 2,
                barrier_waits: 1,
            }),
            TraceEvent::TreeAlloc {
                epoch: 0,
                node: "rack0".to_string(),
                committed_w: 100.0,
                children_w: vec![60.0, 40.0],
            },
        ])];
        let json = chrome_trace_json(&streams);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match v.get("traceEvents") {
            Some(Value::Array(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"M"));
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
        // One derived freq counter track per core.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|p| p.as_str()))
            .collect();
        assert!(names.contains(&"core0 freq"));
        assert!(names.contains(&"core2 freq"));
        assert!(names.contains(&"node rack0 committed_w"));
    }

    #[test]
    fn exact_bytes_for_every_event_kind() {
        let mut stream = stream_with(vec![
            TraceEvent::EpochSpan {
                epoch: 0,
                t_start_ns: 0,
                t_end_ns: 1500,
                power_w: -0.0,
            },
            TraceEvent::Decision(sample_decision()),
            TraceEvent::Control {
                epoch: 1,
                kind: "budget_step",
                detail: "say \"hi\" \\ \n\u{1}".to_string(),
            },
            TraceEvent::Lane(LaneRecord {
                epoch: 1,
                prefill_draws: 64,
                refill_fallbacks: 2,
                barrier_waits: 1,
            }),
            TraceEvent::TreeAlloc {
                epoch: 0,
                node: "rack0".to_string(),
                committed_w: f64::NAN,
                children_w: vec![],
            },
        ]);
        stream.dropped = 2;
        let want = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"test/stream"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"epochs"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"decisions"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"control"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"counters"}},"#,
            r#"{"name":"epoch 0","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":1.5,"args":{"power_w":-0.0}},"#,
            r#"{"name":"power_w","ph":"C","pid":1,"tid":3,"ts":1.5,"args":{"watts":-0.0}},"#,
            r#"{"name":"decide FastCap","ph":"i","s":"t","pid":1,"tid":1,"ts":1.0,"args":{"#,
            r#""epoch":3,"policy":"FastCap","budget_w":80.0,"observed_w":78.5,"#,
            r#""solver_iters":12,"candidates":40,"core_freqs":[5,5,4],"mem_freq":2,"#,
            r#""predicted_w":79.0,"quantized_w":78.2,"trim_w":0.5,"measured_w":81.0,"#,
            r#""slack_w":-1.0,"budget_bound":true,"emergency":false,"decide_ns":2500}},"#,
            r#"{"name":"core0 freq","ph":"C","pid":1,"tid":3,"ts":1.0,"args":{"level":5}},"#,
            r#"{"name":"core1 freq","ph":"C","pid":1,"tid":3,"ts":1.0,"args":{"level":5}},"#,
            r#"{"name":"core2 freq","ph":"C","pid":1,"tid":3,"ts":1.0,"args":{"level":4}},"#,
            r#"{"name":"budget_step","ph":"i","s":"p","pid":1,"tid":2,"ts":2.0,"#,
            r#""args":{"epoch":1,"detail":"say \"hi\" \\ \n\u0001"}},"#,
            r#"{"name":"lane_engine","ph":"C","pid":1,"tid":3,"ts":3.0,"#,
            r#""args":{"prefill_draws":64,"refill_fallbacks":2,"barrier_waits":1}},"#,
            r#"{"name":"node rack0 committed_w","ph":"C","pid":1,"tid":3,"ts":4.0,"args":{"watts":null}},"#,
            r#"{"name":"ring_dropped","ph":"i","s":"p","pid":1,"tid":2,"ts":0.0,"args":{"events":2}}"#,
            "]}\n",
        );
        assert_eq!(chrome_trace_json(&[stream]), want);
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
        );
    }

    #[test]
    fn export_is_deterministic() {
        let streams = vec![stream_with(vec![TraceEvent::Decision(sample_decision())])];
        assert_eq!(chrome_trace_json(&streams), chrome_trace_json(&streams));
    }

    #[test]
    fn summary_rolls_up_decisions() {
        let streams = vec![stream_with(vec![TraceEvent::Decision(sample_decision())])];
        let s = terminal_summary(&streams);
        assert!(s.contains("test/stream"));
        assert!(s.contains("+1.25")); // (81-80)/80 overshoot
    }
}
