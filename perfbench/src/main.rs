//! Command-line entry of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host metadata and every metric by name and unit, writes the
//! full result (with the spans of a traced run) to `perfbench/out/`, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::host::HostInfo;
use perfbench::{Outcome, Workload, FULL};
use swat_serve::json::Json;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {problem}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = HostInfo::detect();
    let outcome = perfbench::run(
        args.workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        &FULL,
    );

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: cpu={:?} nproc={} rustc={:?} commit={}",
        host.cpu, host.nproc, host.rustc, host.commit
    );
    let traced = outcome.reps.iter().filter(|r| r.0).count();
    println!(
        "repetitions: {} untraced, {traced} traced",
        outcome.reps.len() - traced
    );
    // A traced run's metrics already include the workload outputs.
    let outputs = if args.trace {
        &[][..]
    } else {
        &outcome.outputs[..]
    };
    for (name, value, unit) in outputs.iter().chain(&outcome.metrics) {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    if let Err(problem) = write_result(&args, &host, &outcome) {
        eprintln!("perfbench: could not write the result file: {problem}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// The last line of standard output, the machine-readable result.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Writes the whole result, host metadata and spans included, to
/// `perfbench/out/<workload>-seed<n>-trace<0|1>.json`.
fn write_result(args: &Args, host: &HostInfo, outcome: &Outcome) -> std::io::Result<()> {
    let metrics = |list: &[(String, f64, &str)]| {
        Json::Arr(
            list.iter()
                .map(|(name, value, unit)| {
                    Json::obj([
                        ("name", Json::Str(name.clone())),
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ])
                })
                .collect(),
        )
    };
    let doc = Json::obj([
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host.to_json()),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        (
            "failures",
            Json::arr(outcome.failures.iter().map(|f| Json::Str(f.clone()))),
        ),
        ("metrics", metrics(&outcome.metrics)),
        ("outputs", metrics(&outcome.outputs)),
        (
            "repetitions",
            Json::arr(outcome.reps.iter().map(|(traced, wall_s, setup_s)| {
                Json::obj([
                    ("traced", Json::Bool(*traced)),
                    ("wall_s", Json::Num(*wall_s)),
                    ("setup_s", Json::arr(setup_s.iter().map(|&s| Json::Num(s)))),
                ])
            })),
        ),
        ("spans", outcome.tracer.to_json()),
    ]);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(file, doc.pretty())
}
