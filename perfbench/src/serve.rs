//! The three fleet-simulator workloads: `steady-1m`, `decode-flash` and
//! `scenario-suite`.

use std::mem::size_of;

use swat_numeric::SplitMix64;
use swat_serve::arrival::ArrivalProcess;
use swat_serve::event::Event;
use swat_serve::fleet::FleetConfig;
use swat_serve::json::Json;
use swat_serve::metrics::ServeReport;
use swat_serve::policy::{DispatchPolicy, LeastLoaded, ShardedShortestJobFirst};
use swat_serve::scenario::{ScenarioSpec, TrafficModel};
use swat_serve::sim::{Simulation, TrafficSpec};
use swat_serve::trace::{KernelCounters, TelemetryMode};
use swat_serve::Request;
use swat_workloads::{DecodeMix, RequestMix};

use crate::spans::Tracer;
use crate::{host, set_up, span_total, timed, Rep, Size};

/// A single-simulation workload: one seeded open-loop trace on one fleet.
pub(crate) struct FleetWorkload {
    requests: usize,
    cards: usize,
    arrivals: ArrivalProcess,
    decode: Option<DecodeMix>,
    policy: fn() -> Box<dyn DispatchPolicy>,
}

/// `steady-1m`: Poisson 14 rps of the production mix on six cards under
/// least-loaded dispatch, with exact telemetry. No sharding, SJF, decode,
/// faults or scaling, so per-event kernel cost, exact telemetry and trace
/// memory dominate.
pub(crate) fn steady(size: &Size) -> FleetWorkload {
    FleetWorkload {
        requests: size.steady_requests,
        cards: 6,
        arrivals: ArrivalProcess::poisson(14.0),
        decode: None,
        policy: || Box::new(LeastLoaded),
    }
}

/// `decode-flash`: 2–6-step decode plans with 20 % early exit on four
/// cards under adaptive sharded SJF, through a flash crowd (base 4 rps,
/// peak 12 rps at 2000 s, 600 s decay). The fleet's decode capacity is
/// about 4.75 rps, so the queue climbs past a thousand during the crowd
/// and then drains: queue-depth-dependent dispatch does most of the work.
pub(crate) fn decode_flash(size: &Size) -> FleetWorkload {
    FleetWorkload {
        requests: size.decode_requests,
        cards: 4,
        arrivals: ArrivalProcess::flash_crowd(4.0, 12.0, 2000.0, 600.0),
        decode: Some(DecodeMix {
            min_steps: 2,
            max_steps: 6,
            exit_prob: 0.2,
        }),
        policy: || Box::new(ShardedShortestJobFirst::new(4)),
    }
}

impl FleetWorkload {
    pub(crate) fn rep(&self, tr: &mut Tracer, seed: u64, traced: bool) -> Rep {
        let first = tr.spans().len();
        let mut rep = Rep::default();
        let traffic = TrafficSpec {
            arrivals: self.arrivals,
            mix: RequestMix::Production,
            seed,
        };
        let label = format!("{}/{}", traffic.arrivals.name(), traffic.mix.name());
        let mut rss_after_gen = 0.0;
        let (requests, fleet) = set_up(tr, &mut rep.setup_s, |tr| {
            let requests: Vec<Request> = tr.span("workloads.gen", |_| match &self.decode {
                Some(mix) => traffic.decode_requests(self.requests, mix),
                None => traffic.requests(self.requests),
            });
            rss_after_gen = host::rss_mb();
            let fleet = tr.span("fleet.build", |_| FleetConfig::standard(self.cards));
            (requests, fleet)
        });

        let ((report, counters, text), wall_s) = timed(tr, |tr| {
            let sim = Simulation::new(&fleet).arrivals_label(label.as_str());
            let mut policy = (self.policy)();
            let (report, counters) =
                tr.span("sim.run", |_| sim.run_profiled(&mut *policy, &requests));
            let text = tr.span("metrics.emit", |_| report.to_json().pretty());
            (report, counters, text)
        });
        rep.wall_s = wall_s;
        let result = tr.span("check", |_| {
            check_report(&report, &counters, &text, Some(requests.len()))
        });
        rep.check("simulation", result);

        // The traced run also prices exact telemetry: the same trace and
        // schedule again with streaming telemetry.
        if traced {
            let result = tr.span("compare", |tr| {
                let sim = Simulation::new(&fleet)
                    .arrivals_label(label.as_str())
                    .telemetry(TelemetryMode::Streaming);
                let mut policy = (self.policy)();
                let (streamed, streamed_counters) = tr.span("sim.run.streaming", |_| {
                    sim.run_profiled(&mut *policy, &requests)
                });
                conserved(&streamed)?;
                if streamed_counters != counters {
                    return Err("streaming telemetry changed the schedule".to_string());
                }
                Ok(())
            });
            rep.check("streaming simulation", result);
        }

        let events = counters.events_total() as f64;
        let (p50, p99) = report
            .latency
            .as_ref()
            .map_or((0.0, 0.0), |l| (l.p50, l.p99));
        rep.det = kernel_outputs(&[&counters], &[&report], text.len());
        rep.det.extend([
            ("sim_p50_s".to_string(), p50),
            ("sim_p99_s".to_string(), p99),
            (
                "workloads.trace_mb".to_string(),
                (requests.len() * size_of::<Request>()) as f64 / 1e6,
            ),
        ]);
        rep.rate = Some(("events_per_s", events / wall_s));
        if traced {
            let spans = &tr.spans()[first..];
            let passes = rep.setup_s.len() as f64;
            let run_s = span_total(spans, |n| n == "sim.run");
            rep.layers = vec![
                (
                    "workloads.gen_s".to_string(),
                    span_total(spans, |n| n == "workloads.gen") / passes,
                ),
                ("proc.rss_after_gen_mb".to_string(), rss_after_gen),
                ("sim.run_s".to_string(), run_s),
                ("sim.ns_per_event".to_string(), run_s / events * 1e9),
                (
                    "metrics.emit_s".to_string(),
                    span_total(spans, |n| n == "metrics.emit"),
                ),
                (
                    "metrics.exact_extra_s".to_string(),
                    run_s - span_total(spans, |n| n == "sim.run.streaming"),
                ),
            ];
        }
        rep
    }
}

/// The `scenario-suite` specs, as JSON text. Each spec's `seed` is
/// replaced by one drawn from the run's seed, and its `requests` divided
/// by [`Size::suite_divisor`].
const SUITE: &str = include_str!("scenarios.json");

/// The names of the `scenario-suite` specs, in run order.
pub(crate) fn suite_names() -> Vec<String> {
    parse_suite(0, 1)
        .expect("the embedded scenario suite parses")
        .into_iter()
        .map(|s| s.name)
        .collect()
}

fn parse_suite(seed: u64, divisor: usize) -> Result<Vec<ScenarioSpec>, String> {
    let Json::Arr(items) = Json::parse(SUITE)? else {
        return Err("the scenario suite is not a JSON array".to_string());
    };
    let mut seeds = SplitMix64::new(seed);
    items
        .iter()
        .map(|item| {
            let mut spec = ScenarioSpec::from_json(item)?;
            spec.seed = seeds.next_u64();
            spec.requests = (spec.requests / divisor).max(1);
            Ok(spec)
        })
        .collect()
}

/// One `scenario-suite` repetition: parse and validate every spec, then
/// run and emit each.
pub(crate) fn suite_rep(tr: &mut Tracer, seed: u64, size: &Size, traced: bool) -> Rep {
    let first = tr.spans().len();
    let mut rep = Rep::default();
    let parsed = set_up(tr, &mut rep.setup_s, |tr| {
        let specs = tr.span("scenario.parse", |_| parse_suite(seed, size.suite_divisor))?;
        tr.span("scenario.validate", |_| {
            specs
                .iter()
                .try_for_each(|s| s.validate().map_err(|e| format!("{}: {e}", s.name)))
        })?;
        Ok::<_, String>(specs)
    });
    let specs = match parsed {
        Ok(specs) => specs,
        Err(problem) => {
            rep.check("scenario suite", Err(problem));
            return rep;
        }
    };
    let span_names: Vec<String> = specs
        .iter()
        .map(|s| format!("sim.run.{}", s.name))
        .collect();

    let (runs, wall_s) = timed(tr, |tr| {
        specs
            .iter()
            .zip(&span_names)
            .map(|(spec, span)| {
                let run = tr.span(span, |_| spec.run_profiled());
                run.map(|(report, counters)| {
                    let text = tr.span("metrics.emit", |_| report.to_json().pretty());
                    (report, counters, text)
                })
            })
            .collect::<Vec<_>>()
    });
    rep.wall_s = wall_s;

    let mut ok = Vec::new();
    for (spec, run) in specs.iter().zip(runs) {
        let result = tr.span("check", |_| {
            let (report, counters, text) = run?;
            let offered = match spec.traffic {
                TrafficModel::Mix { .. } => Some(spec.requests),
                TrafficModel::Sessions { .. } if report.offered < spec.requests => {
                    return Err(format!(
                        "{} turns offered for {} sessions",
                        report.offered, spec.requests
                    ));
                }
                TrafficModel::Sessions { .. } => None,
            };
            check_report(&report, &counters, &text, offered)?;
            Ok((report, counters, text))
        });
        match result {
            Ok(run) => {
                rep.check(&spec.name, Ok(()));
                ok.push(run);
            }
            Err(problem) => rep.check(&spec.name, Err(problem)),
        }
    }

    let counters: Vec<&KernelCounters> = ok.iter().map(|r| &r.1).collect();
    let reports: Vec<&ServeReport> = ok.iter().map(|r| &r.0).collect();
    let bytes = ok.iter().map(|r| r.2.len()).sum();
    rep.det = kernel_outputs(&counters, &reports, bytes);
    let events: u64 = counters.iter().map(|c| c.events_total()).sum();
    rep.rate = Some(("events_per_s", events as f64 / wall_s));
    if traced {
        let spans = &tr.spans()[first..];
        let run_s = span_total(spans, |n| n.starts_with("sim.run."));
        let passes = rep.setup_s.len() as f64;
        rep.layers = vec![
            ("sim.run_s".to_string(), run_s),
            ("sim.ns_per_event".to_string(), run_s / events as f64 * 1e9),
            (
                "metrics.emit_s".to_string(),
                span_total(spans, |n| n == "metrics.emit"),
            ),
            (
                "scenario.parse_s".to_string(),
                span_total(spans, |n| n == "scenario.parse") / passes,
            ),
        ];
        for (spec, span) in specs.iter().zip(&span_names) {
            rep.layers.push((
                format!("sim.run_s.{}", spec.name),
                span_total(spans, |n| n == span),
            ));
        }
    }
    rep
}

/// Kernel counters and simulated outputs, summed over one or more runs
/// (peaks take the maximum).
fn kernel_outputs(
    counters: &[&KernelCounters],
    reports: &[&ServeReport],
    report_bytes: usize,
) -> Vec<(String, f64)> {
    let sum =
        |f: &dyn Fn(&KernelCounters) -> u64| counters.iter().map(|c| f(c)).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&KernelCounters) -> usize| {
        counters.iter().map(|c| f(c)).max().unwrap_or(0) as f64
    };
    let dispatches = sum(&|c| c.dispatches);
    let completion = Event::KIND_NAMES
        .iter()
        .position(|&k| k == "completion")
        .expect("the kernel has a completion event");
    let completions = sum(&|c| c.events_by_kind[completion]);
    let offered: usize = reports.iter().map(|r| r.offered).sum();
    let completed: usize = reports.iter().map(|r| r.completed).sum();
    let met: usize = reports.iter().map(|r| r.completed - r.slo_violations).sum();
    let energy: f64 = reports.iter().map(|r| r.total_energy_joules()).sum();

    let mut out = vec![("sim.events".to_string(), sum(&|c| c.events_total()))];
    for (i, kind) in Event::KIND_NAMES.iter().enumerate() {
        out.push((format!("sim.events.{kind}"), sum(&|c| c.events_by_kind[i])));
    }
    out.extend([
        ("sim.dispatches".to_string(), dispatches),
        (
            "sim.shards_per_dispatch".to_string(),
            sum(&|c| c.shards_dispatched) / dispatches,
        ),
        ("sim.peak_heap".to_string(), max(&|c| c.peak_event_heap)),
        ("sim.peak_queue".to_string(), max(&|c| c.peak_queue_depth)),
        (
            "sim.span_s".to_string(),
            counters.iter().map(|c| c.sim_span_s).sum(),
        ),
        (
            "sim.preempt_evictions".to_string(),
            sum(&|c| c.preemption_evictions),
        ),
        (
            "sim.tombstone_ratio".to_string(),
            sum(&|c| c.tombstoned_completions) / completions,
        ),
        ("metrics.report_bytes".to_string(), report_bytes as f64),
        ("sim_slo_attain".to_string(), met as f64 / offered as f64),
        (
            "sim_energy_j_per_req".to_string(),
            energy / completed as f64,
        ),
    ]);
    out
}

/// Every request is accounted for exactly once.
fn conserved(report: &ServeReport) -> Result<(), String> {
    let accounted = report.completed + report.rejected + report.failed;
    if accounted != report.offered {
        return Err(format!(
            "completed {} + rejected {} + failed {} != offered {}",
            report.completed, report.rejected, report.failed, report.offered
        ));
    }
    Ok(())
}

/// The per-run checks of a serving simulation: conservation against the
/// trace, finite numbers, and a report whose JSON text re-parses to
/// itself.
fn check_report(
    report: &ServeReport,
    counters: &KernelCounters,
    text: &str,
    offered: Option<usize>,
) -> Result<(), String> {
    conserved(report)?;
    if let Some(expected) = offered {
        if report.offered != expected {
            return Err(format!(
                "offered {} of a {expected}-request trace",
                report.offered
            ));
        }
    }
    if !counters.sim_span_s.is_finite() {
        return Err("kernel span is not finite".to_string());
    }
    let parsed = Json::parse(text).map_err(|e| format!("report JSON does not re-parse: {e}"))?;
    if parsed.pretty() != text {
        return Err("report JSON does not round-trip".to_string());
    }
    finite_json(&parsed)
}

fn finite_json(json: &Json) -> Result<(), String> {
    match json {
        Json::Num(x) if !x.is_finite() => Err(format!("report holds a non-finite number {x}")),
        Json::Arr(items) => items.iter().try_for_each(finite_json),
        Json::Obj(pairs) => pairs.iter().try_for_each(|(_, v)| finite_json(v)),
        _ => Ok(()),
    }
}
