//! Decorator fidelity: wrapping a policy, a backend or a fleet model in
//! the benchmark's timing decorators must not change a single output
//! byte, including the program tracer's records. Every trait method is
//! exercised: a dropped `bootstrap` would run epoch 0 uncapped, a dropped
//! `on_active_set_change` would rebuild instead of warm-carrying, a
//! dropped `decision_cost` or `in_force_budget` would change the decision
//! records.

use fastcap_bench::costmodel::CostModel;
use fastcap_bench::PolicyKind;
use fastcap_core::error::Result;
use fastcap_fleet::{canonical_tree, Fleet, FleetRun, ResponseSurface, SampledModel, ServerModel};
use fastcap_policies::{CappingPolicy, ClosedLoop};
use fastcap_scenario::{FleetScenario, Scenario, ScenarioRunner};
use fastcap_sim::{AnalyticServer, RunResult, Server, SimConfig};
use fastcap_trace::Tracer;
use fastcap_workloads::mixes;
use perfbench::report::ALL_POLICIES;
use perfbench::timed::{
    shared, BackendStats, ModelStats, PolicyStats, TimedBackend, TimedModel, TimedPolicy,
};
use std::sync::Arc;

const CORES: usize = 4;

fn cfg() -> SimConfig {
    SimConfig::ispass(CORES).unwrap().with_time_dilation(200.0)
}

fn tracer() -> Tracer {
    Tracer::new(1 << 12, CostModel::embedded().unwrap().weights.ns)
}

fn policy(kind: PolicyKind, budget: f64, n_active: usize) -> Result<Box<dyn CappingPolicy>> {
    kind.build(cfg().controller_config_n(budget, n_active)?)
}

fn events(t: &Tracer) -> String {
    format!("{:?}", t.events().collect::<Vec<_>>())
}

#[test]
fn closed_loop_outputs_are_unchanged_by_decorators() {
    let mix = mixes::by_name("MIX1").unwrap();
    for kind in ALL_POLICIES {
        let mut plain_trace = tracer();
        let server = AnalyticServer::for_workload(cfg(), &mix, 7).unwrap();
        let plain = ClosedLoop::new(server, policy(kind, 0.6, CORES).unwrap())
            .run_traced(12, Some(&mut plain_trace));

        let (b, p) = (shared::<BackendStats>(), shared::<PolicyStats>());
        let mut timed_trace = tracer();
        let server = TimedBackend::new(AnalyticServer::for_workload(cfg(), &mix, 7).unwrap(), &b);
        let timed = ClosedLoop::new(
            server,
            TimedPolicy::boxed(policy(kind, 0.6, CORES).unwrap(), &p),
        )
        .run_traced(12, Some(&mut timed_trace));

        assert_eq!(plain, timed, "{}", kind.name());
        assert_eq!(
            events(&plain_trace),
            events(&timed_trace),
            "{}",
            kind.name()
        );
        assert_eq!(b.borrow().epoch_ns.len(), 12);
        assert_eq!(p.borrow().decide_ns.len(), 11, "{}", kind.name());
    }
}

/// Budget steps and a hotplug cycle on a four-core DES: warm carry, budget
/// moves and rebuilds all pass through the decorator.
#[test]
fn scenario_outputs_are_unchanged_by_decorators() {
    let scenario = Scenario::from_json(
        r#"{"name":"fidelity","description":"budget step and hotplug","n_cores":4,"events":[
            {"at_epoch":3,"action":{"kind":"budget_step","fraction":0.5}},
            {"at_epoch":5,"action":{"kind":"cores_offline","cores":[0]}},
            {"at_epoch":8,"action":{"kind":"cores_online","cores":[0]}}]}"#,
    )
    .unwrap();
    let runner = ScenarioRunner::new(&scenario, 0.8).unwrap();
    let mix = mixes::by_name("MIX3").unwrap();
    let run = |kind: PolicyKind, stats: Option<&perfbench::timed::Shared<PolicyStats>>| {
        let mut server = Server::for_workload(cfg(), &mix, 3).unwrap();
        runner.install(&mut server).unwrap();
        let mut t = tracer();
        let mut factory = |n: usize, b: f64| -> Result<Box<dyn CappingPolicy>> {
            let p = policy(kind, b, n)?;
            Ok(match stats {
                Some(s) => TimedPolicy::boxed(p, s),
                None => p,
            })
        };
        let out: RunResult = runner
            .run_traced(&mut server, 10, Some(&mut factory), Some(&mut t))
            .unwrap();
        (out, events(&t))
    };
    for kind in ALL_POLICIES {
        let stats = shared::<PolicyStats>();
        assert_eq!(run(kind, None), run(kind, Some(&stats)), "{}", kind.name());
        assert!(!stats.borrow().decide_ns.is_empty());
    }
}

#[test]
fn fleet_outputs_are_unchanged_by_decorators() {
    let cfg = cfg();
    let fractions = [0.4, 0.7, 1.0];
    let points = [(40.0, 1.0e9), (60.0, 1.6e9), (80.0, 2.0e9)];
    let surface =
        Arc::new(ResponseSurface::from_points("MIX1", &cfg, &fractions, &points).unwrap());
    let spec = canonical_tree(3, 4, |_, _| ());
    let scenario = FleetScenario::from_json(
        r#"{"name":"fidelity","description":"step and outage","events":[
            {"at_epoch":2,"action":{"kind":"fleet_budget_step","fraction":0.6}},
            {"at_epoch":4,"action":{"kind":"node_offline","node":"rack1"}},
            {"at_epoch":6,"action":{"kind":"node_online","node":"rack1"}}]}"#,
    )
    .unwrap();
    fn run<M: ServerModel>(fleet: &mut Fleet<M>) -> (FleetRun, String) {
        let mut t = tracer();
        let out = fleet.run_traced(10, Some(&mut t)).unwrap();
        (out, events(&t))
    }
    let mut plain = Fleet::new(&spec, &scenario, 0.9, 5, &mut |_: &(), _, f| {
        SampledModel::new(Arc::clone(&surface), f)
    })
    .unwrap();
    let stats = shared::<ModelStats>();
    let mut timed = Fleet::new(&spec, &scenario, 0.9, 5, &mut |_: &(), _, f| {
        Ok(TimedModel::new(
            SampledModel::new(Arc::clone(&surface), f)?,
            &stats,
        ))
    })
    .unwrap();
    assert_eq!(run(&mut plain), run(&mut timed));
    assert_eq!(plain.total_cost(), timed.total_cost());
    let s = stats.borrow();
    assert!(s.steps > 0 && s.budget_sets > 0, "{s:?}");
}
