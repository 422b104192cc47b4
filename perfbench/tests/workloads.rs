//! Runs every workload at a tiny size through all of its checks, and
//! holds `BENCHMARK.json` to the metrics the program prints.

use perfbench::{median, per_layer, run, Outcome, Workload, END_TO_END, TINY, WORKLOAD_OUTPUTS};
use swat_serve::json::Json;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let outcome = run(workload, seed, 0.0, trace, &TINY);
    assert!(
        outcome.attempted >= 1,
        "{}: nothing attempted",
        workload.name()
    );
    assert_eq!(
        outcome.failed,
        0,
        "{}: failed checks {:?}",
        workload.name(),
        outcome.failures
    );
    for (name, value, _) in outcome.metrics.iter().chain(&outcome.outputs) {
        assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
    }
    outcome
}

fn names(outcome: &Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .chain(&outcome.outputs)
        .find(|(n, _, _)| n == name)
        .map(|(_, v, _)| *v)
        .unwrap_or_else(|| panic!("{name} not reported"))
}

/// The `name`/`unit` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let Json::Obj(doc) = Json::parse(BENCHMARK).expect("BENCHMARK.json parses") else {
        panic!("BENCHMARK.json is not an object");
    };
    let Some((_, Json::Arr(items))) = doc.iter().find(|(k, _)| k == key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|item| {
            let Json::Obj(fields) = item else {
                panic!("{key} entry is not an object")
            };
            let text = |field: &str| match fields.iter().find(|(k, _)| k == field) {
                Some((_, Json::Str(s))) => s.clone(),
                _ => String::new(),
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), end_to_end);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    for (name, _) in listed("end_to_end").iter().chain(&listed("per_layer")) {
        assert!(well_formed(name), "metric name {name:?}");
    }
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for workload in Workload::ALL {
        let untraced = tiny(workload, 3, false);
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&untraced), expected, "{}", workload.name());
        assert!(value(&untraced, "setup_s") > 0.0);
        assert!(value(&untraced, "wall_s") > 0.0);
        assert!(value(&untraced, "peak_rss_mb") > 0.0);
        assert!(!untraced.outputs.is_empty());
        assert!(untraced
            .outputs
            .iter()
            .all(|(n, _, _)| WORKLOAD_OUTPUTS.iter().any(|(o, _)| o == n)));

        let traced = tiny(workload, 3, true);
        let layers = per_layer();
        let expected: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names(&traced), expected, "{}", workload.name());
        assert!(!traced.tracer.spans().is_empty());

        // Self times come from one traced repetition no slower than the
        // median, so they add up to at most the median traced wall time.
        let self_sum: f64 = traced
            .metrics
            .iter()
            .filter(|(n, _, _)| n.starts_with("self_s."))
            .map(|(_, v, _)| *v)
            .sum();
        let walls: Vec<f64> = traced.reps.iter().filter(|r| r.0).map(|r| r.1).collect();
        assert!(self_sum > 0.0);
        assert!(self_sum <= median(&walls) + 1e-9, "{}", workload.name());
    }
}

#[test]
fn each_workload_exercises_its_own_layers_only() {
    let steady = tiny(Workload::Steady, 5, true);
    assert!(value(&steady, "sim.events") > 0.0);
    assert!(value(&steady, "workloads.trace_mb") > 0.0);
    assert!(value(&steady, "metrics.exact_extra_s") != 0.0);
    assert_eq!(value(&steady, "accel.rows"), 0.0);
    assert_eq!(value(&steady, "sim.events.step_complete"), 0.0);

    let decode = tiny(Workload::DecodeFlash, 5, true);
    assert!(value(&decode, "sim.events.step_complete") > 0.0);
    assert!(value(&decode, "sim.shards_per_dispatch") >= 1.0);

    let suite = tiny(Workload::ScenarioSuite, 5, true);
    assert!(value(&suite, "sim.run_s.faults") > 0.0);
    assert!(value(&suite, "sim.events.card_death") > 0.0);
    assert!(value(&suite, "scenario.parse_s") > 0.0);

    let heads = tiny(Workload::PaperHeads, 5, true);
    assert_eq!(value(&heads, "sim.events"), 0.0);
    assert_eq!(
        value(&heads, "accel.rows"),
        TINY.head_tokens.iter().sum::<usize>() as f64
    );
    assert!(value(&heads, "attention.reference_s") > 0.0);
    assert!(value(&heads, "accel.run_s.lf32") > 0.0);
}

/// The simulated outputs a seed determines.
fn simulated(outcome: &Outcome) -> Vec<(String, u64)> {
    outcome
        .outputs
        .iter()
        .filter(|(n, _, _)| n.starts_with("sim_") || n == "max_abs_err")
        .map(|(n, v, _)| (n.clone(), v.to_bits()))
        .collect()
}

#[test]
fn one_seed_repeats_exactly_and_another_seed_differs() {
    for workload in Workload::ALL {
        let first = simulated(&tiny(workload, 8, false));
        let again = simulated(&tiny(workload, 8, false));
        let other = simulated(&tiny(workload, 9, false));
        assert!(!first.is_empty());
        assert_eq!(first, again, "{}", workload.name());
        assert_ne!(first, other, "{} ignores its seed", workload.name());
    }
}
