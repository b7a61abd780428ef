//! The benchmark's own logic: percentile and quartile rules, failure
//! accounting, naming rules, the BENCHMARK.json contract, stamp-checked
//! comparison and machine-speed scaling.

use zkdet_perfbench::op_seconds;
use zkdet_perfbench::report::{compare, RunResult, Stamp};
use zkdet_perfbench::spec::{Workload, END_TO_END, LAYERS, PER_LAYER};
use zkdet_perfbench::stats::{
    quartiles, summarize, tail_percentile, valid_name, valid_unit, Outcome, Tally,
};
use zkdet_telemetry::Value;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(39), None);
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    for n in 1..3000 {
        if let Some(p) = tail_percentile(n) {
            let rank = (p * 10.0).round() as usize * n;
            let rank = rank.div_ceil(1000);
            assert!(n - rank >= 10, "n={n}: p{p} has {} beyond", n - rank);
        }
    }
}

#[test]
fn summary_reports_the_tail_value_and_sample_count() {
    let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
    let s = summarize(&samples).expect("non-empty");
    assert_eq!(s.n, 40);
    assert_eq!(s.median, 20.5);
    assert_eq!(s.tail, Some((75.0, 30.0)));
    let few = summarize(&[2.0, 1.0, 3.0]).expect("non-empty");
    assert_eq!((few.median, few.tail), (2.0, None));
    assert!(summarize(&[]).is_none());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Values from `statistics.quantiles(data, n=4)`.
    let data: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&data), Some((2.75, 5.5, 8.25)));
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn planned_refunds_are_not_failures_and_aborts_are() {
    let mut t = Tally::default();
    t.record(Outcome::Ok, String::new);
    t.record(Outcome::Refunded { planned: true }, String::new);
    assert_eq!((t.attempted, t.failed), (2, 0));
    t.record(Outcome::Refunded { planned: false }, || "unplanned".into());
    t.record(Outcome::Aborted, || "aborted".into());
    t.record(Outcome::Error, || "error".into());
    t.record(Outcome::WrongOutput, || "wrong".into());
    assert_eq!((t.attempted, t.failed), (6, 4));
    assert_eq!(t.fail_ratio(), 4.0 / 6.0);
    assert_eq!(t.failures.len(), 4);
    assert_eq!(Tally::default().fail_ratio(), 0.0);
}

#[test]
fn op_seconds_averages_the_median_of_each_size() {
    // Two sizes; the second appears three times as often but counts once.
    let ops = [(2, 1.0), (8, 3.0), (8, 5.0), (8, 4.0), (2, 1.5)];
    assert_eq!(op_seconds(&ops), Some((1.25 + 4.0) / 2.0));
    assert_eq!(op_seconds(&[]), None);
}

#[test]
fn naming_rules() {
    for ok in [
        "setup_s",
        "op_s",
        "plonk.prove_ms.pi_e",
        "9lives",
        "a-b.c_d",
    ] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "m s", "µs", &"u".repeat(17)] {
        assert!(!valid_unit(bad), "{bad}");
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are used once");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_unit(m.unit), "{}", m.unit);
    }
    for layer in LAYERS {
        assert!(
            PER_LAYER
                .iter()
                .any(|m| m.name == format!("{layer}.self_ms")),
            "{layer}"
        );
    }
    assert!(PER_LAYER.len() <= 128);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = b
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            w.get("name").and_then(Value::as_str).expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(ours.len() >= 2);

    let e2e = b
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    let mut setup_bound = 0.0;
    let mut max_other = 0.0f64;
    for (j, spec) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(j.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(j.get("unit").and_then(Value::as_str), Some(spec.unit));
        assert_eq!(
            j.get("better").and_then(Value::as_str),
            Some(spec.better.as_str())
        );
        let bound = num(j.get("bound").expect("bound"));
        assert!(bound > 0.0 && bound <= 0.25);
        if spec.name == "setup_s" {
            setup_bound = bound;
        } else {
            max_other = max_other.max(bound);
        }
    }
    assert!(setup_bound >= max_other, "setup_s has the largest bound");

    let layer = b
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer");
    assert_eq!(layer.len(), PER_LAYER.len());
    for (j, spec) in layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(j.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(j.get("unit").and_then(Value::as_str), Some(spec.unit));
        assert_eq!(
            j.get("better").and_then(Value::as_str),
            Some(spec.better.as_str())
        );
    }
    let secs = b
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&secs));
}

fn result(seed: u64, cpu: &str, op_s: f64) -> RunResult {
    RunResult {
        stamp: Stamp {
            workload: "sale".into(),
            seed,
            trace: false,
            cores: 2,
            cpu_model: cpu.into(),
            profile: "release".into(),
        },
        correct: true,
        tally: Tally::default(),
        metrics: vec![("op_s".into(), op_s, "s".into())],
        series: Vec::new(),
        profile: None,
    }
}

#[test]
fn compare_refuses_results_with_different_stamps() {
    let a = result(1, "cpu A", 1.0);
    let err = compare(&a, &result(2, "cpu A", 1.0), |_| Some(0.1)).expect_err("seed differs");
    assert_eq!(err, ["seed: 1 != 2"]);
    let err = compare(&a, &result(1, "cpu B", 1.0), |_| Some(0.1)).expect_err("cpu differs");
    assert_eq!(err, ["cpu_model: cpu A != cpu B"]);
    let ok = compare(&a, &result(1, "cpu A", 1.05), |_| Some(0.1)).expect("same stamp");
    assert!(ok.contains("ok"), "{ok}");
    let slow = compare(&a, &result(1, "cpu A", 1.2), |_| Some(0.1)).expect("same stamp");
    assert!(slow.contains("REGRESSION"), "{slow}");
    assert!(!slow.contains("warning"), "{slow}");
}

#[test]
fn compare_warns_when_the_host_speed_moved() {
    let with_host = |kernel_us: f64| {
        let mut r = result(1, "cpu", 1.0);
        r.series.push(zkdet_perfbench::report::Series {
            name: "host_kernel_us".into(),
            unit: "us".into(),
            samples: vec![kernel_us; 3],
        });
        r
    };
    let steady = compare(&with_host(40.0), &with_host(42.0), |_| None).expect("same stamp");
    assert!(!steady.contains("warning"), "{steady}");
    let moved = compare(&with_host(40.0), &with_host(50.0), |_| None).expect("same stamp");
    assert!(moved.contains("warning"), "{moved}");
}

#[test]
fn result_file_round_trips() {
    let mut r = result(7, "cpu", 1.5);
    r.series.push(zkdet_perfbench::report::Series {
        name: "sale_s".into(),
        unit: "s".into(),
        samples: vec![1.0, 2.25],
    });
    r.tally.record(Outcome::Aborted, || "lost".into());
    r.profile = Some("name calls\n".into());
    let back = RunResult::from_json(&Value::parse(&r.to_json().encode()).expect("json"));
    assert_eq!(back, Some(r));
}

#[test]
fn contract_line_has_exactly_the_contract_keys() {
    let line = result(1, "cpu", 0.123_456_789_012).contract_line();
    let v = Value::parse(&line).expect("json");
    assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
    let op = v.get("metrics").and_then(|m| m.get("op_s")).expect("op_s");
    assert_eq!(keys(op), ["value", "unit"]);
    assert_eq!(num(op.get("value").expect("value")), 0.123_456_789_012);
}

#[test]
fn timed_calls_scale_to_the_nominal_kernel_time() {
    use zkdet_perfbench::calib::{window_scale, Stopwatch, Timed, NOMINAL_US};
    // A host whose kernel takes twice the nominal time runs at half speed.
    let slow = Timed::new(2.0, 2.0 * NOMINAL_US);
    assert_eq!((slow.wall_s, slow.scaled_s), (2.0, 1.0));
    // Over a window, slow and fast spells count by their mean reading.
    assert_eq!(window_scale(&[NOMINAL_US, 3.0 * NOMINAL_US]), Some(0.5));
    assert_eq!(window_scale(&[]), None);

    let watch = Stopwatch::start();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (t, kernel_us) = watch.stop();
    assert!(t.wall_s >= 0.02, "{t:?}");
    assert!(kernel_us > 0.0 && kernel_us.is_finite());
    assert_eq!(t, Timed::new(t.wall_s, kernel_us));
}
