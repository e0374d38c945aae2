//! Every workload builder, at smoke size (n ≤ 50, ≤ 300 ticks): the same
//! seed gives the same run, another seed another one; and a whole traced
//! run of a smoke workload passes its gate with a self-consistent
//! per-layer table.

use std::time::Instant;

use dynabench::harness::{probe_counters, run_sweep, run_world};
use dynabench::run::{run_workload, RunArgs};
use dynabench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use dynabench::trace::Recorder;
use dynabench::workloads::{plan, Plan, Scale, NAMES};

fn digest(name: &str, seed: u64) -> u64 {
    let mut rec = Recorder::new(false);
    match plan(name, seed, Scale::Smoke).expect("known workload") {
        Plan::World(p) => {
            assert!(p.n <= 50 && p.ticks <= 300, "{name} smoke size");
            let r = run_world(&p, false, &mut rec);
            assert!(r.events > 0 && r.ops.invoked > 0, "{name} does work");
            r.digest
        }
        Plan::Sweep(s) => {
            let r = run_sweep(&s, 2, &mut rec);
            assert!(r.runs <= 50, "{name} smoke size");
            r.digest
        }
    }
}

#[test]
fn builders_are_deterministic_per_seed_and_change_with_it() {
    for name in NAMES {
        assert!(plan(name, 5, Scale::Full).is_some());
        let a = digest(name, 5);
        assert_eq!(a, digest(name, 5), "{name}: same seed, same run");
        assert_ne!(a, digest(name, 6), "{name}: another seed, another run");
    }
    assert!(plan("no_such_workload", 5, Scale::Smoke).is_none());
}

#[test]
fn names_and_reasons_line_up() {
    let named: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(named, NAMES);
    for (name, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: one line");
    }
}

#[test]
fn every_counter_the_harness_reads_exists() {
    assert_eq!(probe_counters(), Vec::<&str>::new());
}

fn smoke(workload: &str, traced: bool) -> dynabench::run::RunOutput {
    run_workload(
        &RunArgs {
            workload: workload.into(),
            seed: 9,
            seconds: 0.05,
            traced,
            scale: Scale::Smoke,
            threads: 2,
        },
        Instant::now(),
    )
    .expect("known workload")
}

#[test]
fn a_traced_world_run_fills_a_self_consistent_layer_table() {
    for workload in ["soak_scale", "space_join", "chaos_loss"] {
        let out = smoke(workload, true);
        let r = &out.result;
        assert!(r.correct, "{workload}: {:?}", r.gate_failures);
        let names: Vec<&str> = r.per_layer.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let value = |name: &str| {
            r.per_layer
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .summary
                .median
        };
        let sum = value("sim.share")
            + value("net.share")
            + value("churn.share")
            + value("core.share")
            + value("testkit.dispatch_residual_share");
        assert!((sum - 1.0).abs() < 1e-9, "{workload}: shares sum to {sum}");
        assert!(value("sim.queue_ns_per_event") > 0.0);
        assert!(value("testkit.profile_overhead_ratio") > 0.0);
        assert_eq!(value("trace.spans"), out.spans.len() as f64);
        assert!(["sim", "net", "churn", "core"].contains(&r.owner.as_deref().unwrap()));
        // Spans nest under one `repeat` span per repeat and never overlap
        // their parent.
        for s in &out.spans {
            assert!(s.start_ns <= s.end_ns);
            if s.parent != 0 {
                let p = &out.spans[s.parent as usize - 1];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
    }
    assert!(smoke("space_join", true)
        .result
        .per_layer
        .iter()
        .any(|m| m.name == "core.payload_entries" && m.summary.median > 0.0));
    assert!(smoke("chaos_loss", true)
        .result
        .per_layer
        .iter()
        .any(|m| m.name == "net.fault_drops" && m.summary.median > 0.0));
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric_and_none_is_zero() {
    for workload in ["churn_edge", "fleet_sweep"] {
        let out = smoke(workload, false);
        let r = &out.result;
        assert!(r.correct, "{workload}: {:?}", r.gate_failures);
        assert!(out.spans.is_empty() && r.per_layer.is_empty());
        let names: Vec<&str> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for m in &r.end_to_end {
            assert!(m.summary.median > 0.0, "{workload}: {} is 0", m.name);
        }
        assert!(r.attempted >= 1);
    }
}

#[test]
fn the_traced_fleet_run_times_the_pool_and_the_checkers() {
    let out = smoke("fleet_sweep", true);
    let r = &out.result;
    assert!(r.correct, "{:?}", r.gate_failures);
    let value = |name: &str| {
        r.per_layer
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .summary
            .median
    };
    assert!(value("fleet.run_points_s") > 0.0);
    assert!(value("fleet.thread_speedup") > 0.0);
    assert!(value("verify.reads_checked") > 0.0);
    assert_eq!(value("sim.events"), 0.0);
    assert_eq!(r.owner.as_deref(), Some("fleet"));
}
