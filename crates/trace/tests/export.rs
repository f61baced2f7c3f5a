//! Round-trip oracle for the streaming Chrome-trace exporter: whatever
//! the streams hold, the output is exactly what the `serde_json` shim's
//! writer renders for the document it parses to. The shim's writer stays
//! the format spec without a second exporter to keep in step.

use fastcap_trace::hub::TraceStream;
use fastcap_trace::{
    chrome_trace_json, DecisionRecord, LaneRecord, MetricsRegistry, Stamped, TraceEvent,
};
use proptest::prelude::*;
use serde_json::Value;

/// Characters that exercise every escape path next to plain, multi-byte
/// and astral text.
const ALPHABET: &[char] = &[
    'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', '😀',
];

/// `Control` kinds are `&'static str`, so the awkward ones are listed.
const KINDS: &[&str] = &[
    "budget_step",
    "hot\"plug",
    "back\\slash",
    "ctl\u{1}\n\t",
    "",
];

const SPECIAL_FLOATS: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1.0,
    -2.5,
    0.1,
    1e21,
    1e300,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
];

fn text() -> impl Strategy<Value = String> {
    collection::vec(0..ALPHABET.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Special values, arbitrary bit patterns (NaNs, subnormals and all), or
/// ordinary magnitudes.
fn float() -> impl Strategy<Value = f64> {
    (0u8..3, 0..SPECIAL_FLOATS.len(), any::<u64>()).prop_map(|(k, i, bits)| match k {
        0 => SPECIAL_FLOATS[i],
        1 => f64::from_bits(bits),
        _ => (bits >> 20) as f64 / 1e3,
    })
}

fn event() -> impl Strategy<Value = TraceEvent> {
    (
        0u8..5,
        collection::vec(any::<u64>(), 5),
        collection::vec(float(), 7),
        (text(), 0..KINDS.len()),
        collection::vec(any::<usize>(), 0..5),
        collection::vec(float(), 0..4),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(variant, n, f, (txt, kind), core_freqs, children_w, flags)| match variant {
                0 => TraceEvent::EpochSpan {
                    epoch: n[0],
                    t_start_ns: n[1],
                    t_end_ns: n[2],
                    power_w: f[0],
                },
                1 => TraceEvent::Decision(DecisionRecord {
                    epoch: n[0],
                    policy: txt,
                    budget_w: flags.0.then_some(f[0]),
                    observed_w: f[1],
                    solver_iters: n[1],
                    candidates: n[2],
                    core_freqs,
                    mem_freq: n[3] as usize,
                    predicted_w: f[2],
                    quantized_w: f[3],
                    trim_w: f[4],
                    measured_w: f[5],
                    slack_w: flags.1.then_some(f[6]),
                    budget_bound: flags.2,
                    emergency: flags.3,
                    decide_ns: n[4],
                }),
                2 => TraceEvent::Control {
                    epoch: n[0],
                    kind: KINDS[kind],
                    detail: txt,
                },
                3 => TraceEvent::Lane(LaneRecord {
                    epoch: n[0],
                    prefill_draws: n[1],
                    refill_fallbacks: n[2],
                    barrier_waits: n[3],
                }),
                _ => TraceEvent::TreeAlloc {
                    epoch: n[0],
                    node: txt,
                    committed_w: f[0],
                    children_w,
                },
            },
        )
}

fn stream() -> impl Strategy<Value = TraceStream> {
    (
        text(),
        collection::vec((any::<u64>(), event()), 0..12),
        0u8..3,
        any::<u64>(),
    )
        .prop_map(|(name, events, drop_kind, drops)| TraceStream {
            name,
            events: events
                .into_iter()
                .enumerate()
                .map(|(seq, (t_ns, event))| Stamped {
                    t_ns,
                    seq: seq as u64,
                    event,
                })
                .collect(),
            dropped: match drop_kind {
                0 => 0,
                1 => 1,
                _ => drops,
            },
            metrics: MetricsRegistry::default(),
        })
}

/// Chrome events one stream renders to: five metadata events, the events
/// derived from each recorded one, and the drop marker.
fn expected_events(s: &TraceStream) -> usize {
    let derived: usize = s
        .events
        .iter()
        .map(|e| match &e.event {
            TraceEvent::EpochSpan { .. } => 2,
            TraceEvent::Decision(d) => 1 + d.core_freqs.len(),
            TraceEvent::Control { .. } | TraceEvent::Lane(_) => 1,
            TraceEvent::TreeAlloc { children_w, .. } => 1 + children_w.len(),
        })
        .sum();
    5 + derived + usize::from(s.dropped > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn export_matches_the_shim_writer(streams in collection::vec(stream(), 0..4)) {
        let out = chrome_trace_json(&streams);
        let doc: Value = serde_json::from_str(&out).expect("exporter output parses");
        let mut canonical = serde_json::to_string(&doc).expect("shim renders");
        canonical.push('\n');
        prop_assert_eq!(&out, &canonical);
        let events = match doc.get("traceEvents") {
            Some(Value::Array(a)) => a.len(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        prop_assert_eq!(events, streams.iter().map(expected_events).sum::<usize>());
    }
}
