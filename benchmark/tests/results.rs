//! `results.json` schema round-trip and `compare` exit codes on synthetic
//! result files.

use std::path::PathBuf;
use std::process::Command;

use dynabench::compare::compare;
use dynabench::ops::OpsTally;
use dynabench::results::{Env, Metric, Results, WorkloadResult};
use dynabench::spec::{END_TO_END, PER_LAYER};
use dynabench::stats::Summary;

/// A results file with every metric set; host-time medians are `host`.
fn synthetic(host: f64, digest: u64) -> Results {
    let ops = OpsTally {
        invoked: 1000,
        in_bound: 990,
        late: 10,
        ..OpsTally::default()
    };
    let mut w = WorkloadResult::new("soak_scale", 7, digest, &ops);
    w.repeats = vec![("setup".into(), 3), ("timed".into(), 9)];
    w.counts = vec![
        ("sim.events".into(), 123_456),
        ("net.msgs_sent".into(), 120_000),
    ];
    for m in END_TO_END {
        let summary = match m.name {
            "ops_ok_share" => Summary::exact(1.0),
            "ops_in_bound_share" => Summary::exact(0.99),
            "peak_rss_mib" => Summary::exact(310.5),
            _ => Summary {
                median: host,
                q1: host * 0.99,
                q3: host * 1.02,
                n: 9,
            },
        };
        w.end_to_end.push(Metric::new(m.name, m.unit, summary));
    }
    for (i, m) in PER_LAYER.iter().enumerate() {
        w.per_layer.push(Metric::new(
            m.name,
            m.unit,
            Summary::exact(i as f64 + 0.125),
        ));
    }
    w.owner = Some("net".into());
    Results {
        env: Env {
            nproc: 2,
            threads: 2,
            rustc: "rustc 1.95.0".into(),
            git_head: "e3af453".into(),
        },
        seed: 7,
        seconds: 10.0,
        workloads: vec![w],
    }
}

#[test]
fn results_round_trip_through_json() {
    let mut results = synthetic(1.2034, 0xDEAD_BEEF_0123_4567);
    results.workloads[0].set_gate(vec!["a \"quoted\" reason\nwith a newline".into()]);
    let text = results.to_json_text();
    assert_eq!(Results::from_json_text(&text).expect("parses"), results);
    assert!(Results::from_json_text("{\"schema\": \"other/1\"}").is_err());
    assert!(Results::from_json_text("not json").is_err());
}

#[test]
fn the_driver_line_has_exactly_the_contract_keys() {
    let w = &synthetic(1.2034, 1).workloads[0];
    for (traced, expected) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
        let line = w.driver_line(traced);
        assert!(!line.contains('\n'));
        let v = dynabench::json::Json::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), expected);
        for (_, m) in metrics {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

#[test]
fn compare_verdicts() {
    let base = synthetic(1.0, 42);
    // Same code, small noise: within bounds.
    let same = compare(&base, &synthetic(1.03, 42)).unwrap();
    assert_eq!(
        (same.exit_code(), same.regressed, same.mismatched),
        (0, 0, 0)
    );
    // wall_s and setup_s 30% slower: regressed (the throughputs "improve"
    // in this synthetic file, which is not a failure).
    let slow = compare(&base, &synthetic(1.30, 42)).unwrap();
    assert_eq!(slow.exit_code(), 1);
    assert_eq!(slow.regressed, 2);
    // A digest change is an exact mismatch even when timings agree.
    let other = compare(&base, &synthetic(1.0, 43)).unwrap();
    assert_eq!((other.exit_code(), other.mismatched), (1, 1));
    // An exact metric that moved is a mismatch.
    let mut drift = synthetic(1.0, 42);
    drift.workloads[0].end_to_end[6].summary = Summary::exact(0.98);
    assert_eq!(compare(&base, &drift).unwrap().mismatched, 1);
    // Noise wider than the bound: unresolved, not equal — and not a failure.
    let mut noisy = synthetic(1.0, 42);
    noisy.workloads[0].end_to_end[2].summary = Summary {
        median: 1.0,
        q1: 0.8,
        q3: 1.3,
        n: 9,
    };
    let unresolved = compare(&base, &noisy).unwrap();
    assert_eq!((unresolved.exit_code(), unresolved.unresolved), (0, 1));
    assert!(unresolved.report.contains("unresolved"));
    // Different seeds cannot be compared at all.
    let mut reseeded = synthetic(1.0, 42);
    reseeded.seed = 8;
    assert!(compare(&base, &reseeded).is_err());
}

#[test]
fn compare_binary_exit_codes() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, r: &Results| {
        let path = dir.join(name);
        std::fs::write(&path, r.to_json_text()).unwrap();
        path
    };
    let a = write("a.json", &synthetic(1.0, 42));
    let b = write("b.json", &synthetic(1.02, 42));
    let c = write("c.json", &synthetic(1.5, 42));
    let run = |x: &PathBuf, y: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_dynabench"))
            .arg("compare")
            .args([x, y])
            .output()
            .unwrap()
    };
    let same = run(&a, &b);
    assert_eq!(same.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&same.stdout).contains("B/A"));
    assert_eq!(run(&a, &c).status.code(), Some(1));
    assert_eq!(run(&a, &dir.join("missing.json")).status.code(), Some(2));
}
