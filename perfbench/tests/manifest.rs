//! `BENCHMARK.json` and `targets.json` must describe exactly what the
//! benchmark prints, within the manifest's naming rules and caps.

use perfbench::report::{per_layer, END_TO_END};
use perfbench::workloads::WORKLOADS;
use serde::Value;
use std::collections::BTreeSet;

fn load(rel: &str) -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_matches_the_metric_registry() {
    let m = load("../BENCHMARK.json");
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let mut seen = BTreeSet::new();

    let workloads = array(field(&m, "workloads"));
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(string(field(w, "name")), name);
        assert_eq!(string(field(w, "why")), why);
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
        assert!(valid_name(name) && seen.insert(name.to_string()), "{name}");
    }

    let e2e = array(field(&m, "end_to_end"));
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(e2e.len(), END_TO_END.len());
    let mut setup_bound = 0.0;
    let mut max_bound = 0.0f64;
    for (e, (name, unit, better)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
        assert_eq!(string(field(e, "name")), name);
        assert_eq!(string(field(e, "unit")), unit);
        assert_eq!(string(field(e, "better")), better);
        let bound = field(e, "bound").as_f64().expect("numeric bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        max_bound = max_bound.max(bound);
        if name == "setup_s" {
            setup_bound = bound;
            assert_eq!((unit, better), ("s", "lower"));
        }
        assert!(
            valid_name(name) && valid_unit(unit) && seen.insert(name.to_string()),
            "{name}"
        );
    }
    assert!(
        setup_bound > 0.0 && setup_bound >= max_bound,
        "setup_s needs the largest bound"
    );

    let layers = array(field(&m, "per_layer"));
    let registry = per_layer();
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), registry.len());
    for (l, (name, unit, better)) in layers.iter().zip(&registry) {
        assert_eq!(keys(l), ["name", "unit", "better"]);
        assert_eq!(string(field(l, "name")), name);
        assert_eq!(string(field(l, "unit")), *unit);
        assert_eq!(string(field(l, "better")), *better);
        assert!(
            valid_name(name) && valid_unit(unit) && seen.insert(name.clone()),
            "{name}"
        );
    }
}

#[test]
fn every_layer_metric_names_its_targets() {
    let targets = field(&load("targets.json"), "targets").clone();
    let layer_names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(
        keys(&targets),
        layer_names.iter().map(String::as_str).collect::<Vec<_>>()
    );
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|(n, _, _)| *n).collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    for name in &layer_names {
        for t in array(field(&targets, name)) {
            assert_eq!(keys(t), ["end_to_end", "workload"], "{name}");
            assert!(
                e2e.contains(string(field(t, "end_to_end"))),
                "{name}: {t:?}"
            );
            assert!(
                workloads.contains(string(field(t, "workload"))),
                "{name}: {t:?}"
            );
        }
    }
}
