//! The repository's benchmark: four workloads over the fleet simulator
//! (`swat-serve`) and the SWAT attention datapath (`swat`), timed from
//! outside through their public functions.
//!
//! A run repeats one workload's set-up, timed phase and checks until
//! `--seconds` have passed, then reports medians. An untraced run reports
//! the end-to-end metrics ([`END_TO_END`]); a traced run alternates
//! untraced and traced repetitions and reports the per-layer metrics
//! ([`per_layer`]), read from spans the benchmark records around each
//! call. `README.md` beside this file documents every workload, metric
//! and prediction.

mod heads;
pub mod host;
mod serve;
pub mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

use spans::{Span, Tracer};
use swat_serve::event::Event;

/// How big each workload is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Requests in `steady-1m`.
    pub steady_requests: usize,
    /// Requests in `decode-flash`.
    pub decode_requests: usize,
    /// `scenario-suite` runs each spec at its listed size divided by this.
    pub suite_divisor: usize,
    /// Tokens of the `paper-heads` heads, in [`heads::HEADS`] order.
    pub head_tokens: [usize; 3],
}

/// The sizes the benchmark measures.
pub const FULL: Size = Size {
    steady_requests: 1_000_000,
    decode_requests: 100_000,
    suite_divisor: 1,
    head_tokens: [1024, 1024, 4096],
};

/// Sizes small enough for the benchmark's own tests, which run every
/// check of every workload.
pub const TINY: Size = Size {
    steady_requests: 2_000,
    decode_requests: 1_000,
    suite_divisor: 100,
    head_tokens: [96, 384, 96],
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1M requests, least-loaded dispatch, exact telemetry.
    Steady,
    /// 100k decode-loop requests through a flash crowd under sharded SJF.
    DecodeFlash,
    /// Eight scenario specs held as JSON text, each through a different
    /// kernel arm.
    ScenarioSuite,
    /// Three attention heads on the SWAT datapath, checked against the
    /// masked-softmax reference.
    PaperHeads,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::DecodeFlash,
        Workload::ScenarioSuite,
        Workload::PaperHeads,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady-1m",
            Workload::DecodeFlash => "decode-flash",
            Workload::ScenarioSuite => "scenario-suite",
            Workload::PaperHeads => "paper-heads",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn rep(self, tr: &mut Tracer, seed: u64, size: &Size, traced: bool) -> Rep {
        match self {
            Workload::Steady => serve::steady(size).rep(tr, seed, traced),
            Workload::DecodeFlash => serve::decode_flash(size).rep(tr, seed, traced),
            Workload::ScenarioSuite => serve::suite_rep(tr, seed, size, traced),
            Workload::PaperHeads => heads::rep(tr, seed, size, traced),
        }
    }
}

/// The end-to-end metrics of an untraced run, with units. Every workload
/// reports all three.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// End-to-end outputs that exist on some workloads only. Untraced runs
/// print them before the result line; traced runs report them among the
/// per-layer metrics (0 on workloads they do not apply to).
pub const WORKLOAD_OUTPUTS: [(&str, &str); 9] = [
    ("events_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("sim_p50_s", "s"),
    ("sim_p99_s", "s"),
    ("sim_slo_attain", "ratio"),
    ("sim_energy_j_per_req", "J"),
    ("sim_s_per_head", "s"),
    ("sim_energy_j_per_head", "J"),
    ("max_abs_err", "abs"),
];

/// Every per-layer metric of a traced run, with its unit. A workload that
/// never calls a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("workloads.gen_s", "s");
    add("workloads.trace_mb", "MB");
    add("proc.rss_after_gen_mb", "MB");
    add("metrics.exact_extra_s", "s");
    add("sim.run_s", "s");
    add("sim.ns_per_event", "ns");
    add("sim.events", "count");
    for kind in Event::KIND_NAMES {
        add(&format!("sim.events.{kind}"), "count");
    }
    add("sim.dispatches", "count");
    add("sim.shards_per_dispatch", "ratio");
    add("sim.peak_heap", "count");
    add("sim.peak_queue", "count");
    add("sim.span_s", "s");
    for name in serve::suite_names() {
        add(&format!("sim.run_s.{name}"), "s");
    }
    add("sim.preempt_evictions", "count");
    add("sim.tombstone_ratio", "ratio");
    add("scenario.parse_s", "s");
    add("metrics.emit_s", "s");
    add("metrics.report_bytes", "B");
    for head in heads::HEADS {
        add(&format!("accel.run_s.{}", head.name), "s");
    }
    add("accel.rows", "count");
    add("accel.sim_cycles", "count");
    add("accel.flops", "count");
    add("accel.offchip_bytes", "B");
    add("accel.kv_loads", "count");
    add("accel.kv_reloads", "count");
    add("accel.kv_reload_ratio", "ratio");
    add("attention.reference_s", "s");
    add("trace.overhead_s", "s");
    for group in SELF_GROUPS {
        add(&format!("self_s.{group}"), "s");
    }
    for (name, unit) in WORKLOAD_OUTPUTS {
        add(name, unit);
    }
    out
}

/// Layers whose self time inside the timed phase is reported: the phase
/// itself (benchmark glue between calls) and each layer it calls. Their
/// sum is the wall time of one repetition.
const SELF_GROUPS: [&str; 4] = ["timed", "sim", "metrics", "accel"];

/// What one repetition measured.
#[derive(Debug, Default)]
pub(crate) struct Rep {
    /// Host seconds of each set-up pass.
    setup_s: Vec<f64>,
    /// Host seconds of the timed phase.
    wall_s: f64,
    /// Operations run and checked: simulations or heads.
    ops: u64,
    /// Operations with at least one failed check.
    failed: u64,
    /// One message per failed check.
    failures: Vec<String>,
    /// Simulated outputs and counts: identical on every repetition of a
    /// seed.
    det: Vec<(String, f64)>,
    /// Host measurements read from this repetition's spans (traced
    /// repetitions only).
    layers: Vec<(String, f64)>,
    /// Host throughput of the timed phase (`events_per_s`, `rows_per_s`).
    rate: Option<(&'static str, f64)>,
    /// Whether spans were recorded, and which.
    traced: bool,
    spans: std::ops::Range<usize>,
}

impl Rep {
    /// Records one operation's check result.
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.ops += 1;
        if let Err(problem) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {problem}"));
        }
    }
}

/// Host seconds each set-up pass is repeated for; cheap set-ups run many
/// passes so their median is steady.
const SETUP_BUDGET_S: f64 = 0.05;

/// Runs `f` as set-up passes under a `setup` span until
/// [`SETUP_BUDGET_S`] has passed, recording each pass's time, and keeps
/// the last pass's result.
pub(crate) fn set_up<T>(
    tr: &mut Tracer,
    setup_s: &mut Vec<f64>,
    mut f: impl FnMut(&mut Tracer) -> T,
) -> T {
    let started = Instant::now();
    loop {
        let pass = Instant::now();
        let value = tr.span("setup", &mut f);
        setup_s.push(pass.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            return value;
        }
    }
}

/// Runs `f` as the timed phase: returns its value and host seconds.
pub(crate) fn timed<T>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
    let started = Instant::now();
    let value = tr.span("timed", f);
    (value, started.elapsed().as_secs_f64())
}

/// Total duration of the spans whose name satisfies `pick`.
pub(crate) fn span_total(spans: &[Span], pick: impl Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| pick(&s.name))
        .map(Span::duration_s)
        // From +0.0: an empty f64 `sum` is -0.0, which would print as "-0".
        .fold(0.0, |a, b| a + b)
}

/// Fails unless every value is finite.
pub(crate) fn all_finite(values: &[(String, f64)]) -> Result<(), String> {
    match values.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("{name} is not finite ({v})")),
        None => Ok(()),
    }
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Fewest repetitions of an untraced run, and of each kind in a traced
/// run: enough for a median.
const MIN_REPS: usize = 3;

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations run.
    pub attempted: u64,
    /// Operations with a failed check.
    pub failed: u64,
    /// Failed checks (at most the first 20).
    pub failures: Vec<String>,
    /// The reported metrics: [`END_TO_END`] untraced, [`per_layer`]
    /// traced. Name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The [`WORKLOAD_OUTPUTS`] this workload produces, measured untraced.
    pub outputs: Vec<(String, f64, &'static str)>,
    /// Per repetition: whether it was traced, its wall time and its
    /// set-up passes.
    pub reps: Vec<(bool, f64, Vec<f64>)>,
    /// The spans recorded (empty when untraced).
    pub tracer: Tracer,
}

/// Runs `workload` for `seconds` (and at least [`MIN_REPS`] repetitions
/// of each kind) and derives its metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, size: &Size) -> Outcome {
    let started = Instant::now();
    let mut tracer = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let min_reps = if trace { 2 * MIN_REPS } else { MIN_REPS };
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        // A traced run alternates untraced and traced repetitions, so the
        // tracing overhead is measured in one process.
        let traced = trace && reps.len() % 2 == 1;
        tracer.set_on(traced);
        let first = tracer.spans().len();
        let mut rep = workload.rep(&mut tracer, seed, size, traced);
        rep.traced = traced;
        rep.spans = first..tracer.spans().len();
        reps.push(rep);
    }
    tracer.set_on(false);

    let (attempted, mut failed, mut failures) = tally(&reps);
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let walls = |reps: &[&Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let wall_s = walls(&untraced);

    let mut outputs = Vec::new();
    for (name, unit) in WORKLOAD_OUTPUTS {
        let value = if untraced[0].rate.is_some_and(|(n, _)| n == name) {
            let rates: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.rate)
                .map(|r| r.1)
                .collect();
            Some(median(&rates))
        } else {
            lookup(&reps[0].det, name)
        };
        if let Some(value) = value {
            outputs.push((name.to_string(), value, unit));
        }
    }

    let metrics = if trace {
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        let mut values: BTreeMap<String, f64> = reps[0].det.iter().cloned().collect();
        for (name, _) in &traced[0].layers {
            let sample: Vec<f64> = traced
                .iter()
                .filter_map(|r| lookup(&r.layers, name))
                .collect();
            values.insert(name.clone(), median(&sample));
        }
        for (name, value, _) in &outputs {
            values.insert(name.clone(), *value);
        }
        values.insert("trace.overhead_s".to_string(), walls(&traced) - wall_s);
        // Self times come from one repetition, the lower-middle one by
        // wall time, so they add up to a wall time no larger than the
        // median.
        let mut by_wall = traced.clone();
        by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let middle = by_wall[(by_wall.len() - 1) / 2];
        for (group, value) in self_times(&tracer, middle.spans.clone()) {
            values.insert(format!("self_s.{group}"), value);
        }
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = values.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        let setups: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect();
        vec![
            ("setup_s".to_string(), median(&setups), "s"),
            ("wall_s".to_string(), wall_s, "s"),
            ("peak_rss_mb".to_string(), host::peak_rss_mb(), "MB"),
        ]
    };

    let mut reported: Vec<(String, f64)> =
        metrics.iter().map(|(n, v, _)| (n.clone(), *v)).collect();
    reported.extend(outputs.iter().map(|(n, v, _)| (n.clone(), *v)));
    if let Err(problem) = all_finite(&reported) {
        failed = attempted;
        failures.push(format!("reported metric {problem}"));
    }

    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        outputs,
        reps: reps
            .iter()
            .map(|rep| (rep.traced, rep.wall_s, rep.setup_s.clone()))
            .collect(),
        tracer,
    }
}

/// Operations attempted and failed over all repetitions, with the first
/// failure messages. A repetition whose simulated outputs differ from the
/// first repetition's fails every one of its operations.
fn tally(reps: &[Rep]) -> (u64, u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.ops;
        let mut messages = rep.failures.clone();
        match first_difference(&reps[0].det, &rep.det) {
            Some(diff) => {
                failed += rep.ops;
                messages.push(format!(
                    "not deterministic: {diff} differs from repetition 0"
                ));
            }
            None => failed += rep.failed,
        }
        failures.extend(messages.into_iter().map(|m| format!("repetition {i}: {m}")));
    }
    failures.truncate(20);
    (attempted, failed, failures)
}

fn lookup(values: &[(String, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// The first deterministic value that differs bit for bit, if any.
fn first_difference(expect: &[(String, f64)], got: &[(String, f64)]) -> Option<String> {
    if expect.len() != got.len() {
        return Some("the set of outputs".to_string());
    }
    expect
        .iter()
        .zip(got)
        .find(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
        .map(|(a, _)| a.0.clone())
}

/// Self time inside the `timed` span of one repetition, summed per layer
/// group ([`SELF_GROUPS`]).
fn self_times(tracer: &Tracer, range: std::ops::Range<usize>) -> Vec<(&'static str, f64)> {
    let spans = tracer.spans();
    let own = tracer.self_times();
    let root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    SELF_GROUPS
        .iter()
        .map(|&group| {
            let total = range
                .clone()
                .filter(|&i| spans[root(i)].name == "timed")
                .filter(|&i| {
                    let name = spans[i].name.as_str();
                    name == group || name.split('.').next() == Some(group)
                })
                .map(|i| own[i])
                // From +0.0, as in `span_total`.
                .fold(0.0, |a, b| a + b);
            (group, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-operation repetition whose second check may fail.
    fn rep(output: f64, second_fails: bool) -> Rep {
        let mut rep = Rep {
            det: vec![("sim.events".to_string(), output)],
            ..Rep::default()
        };
        rep.check("a", Ok(()));
        rep.check(
            "b",
            if second_fails {
                Err("broken".to_string())
            } else {
                Ok(())
            },
        );
        rep
    }

    #[test]
    fn failed_checks_and_nondeterminism_count_as_failed_operations() {
        let (attempted, failed, _) = tally(&[rep(1.0, true), rep(1.0, false)]);
        assert_eq!((attempted, failed), (4, 1));

        let (attempted, failed, failures) =
            tally(&[rep(1.0, true), rep(1.0 + f64::EPSILON, false)]);
        assert_eq!((attempted, failed), (4, 3));
        assert!(failures
            .iter()
            .any(|f| f.contains("not deterministic: sim.events")));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
