//! Report assembly is independent of fold order. The simulator folds
//! completions into its report as they fan in, which under SJF, affinity,
//! sharding or decode is not request-id order; the report must come out
//! byte-identical whatever that order was. Session latency sums are the
//! one place where summation order could leak into the bytes, so the
//! generated traffic has multi-turn sessions whose turns finish out of
//! id order.

use proptest::prelude::*;
use swat_numeric::SplitMix64;
use swat_serve::metrics::{CardSummary, QueueSummary, ServeReport};
use swat_serve::request::CompletedRequest;
use swat_serve::Request;
use swat_workloads::{DecodePlan, RequestClass, RequestShape};

/// Uniform in `[0, 1)` with full mantissa resolution, so latency sums
/// are sensitive to the order they are added in.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// The three outcomes of an offered request.
struct Traffic {
    completed: Vec<CompletedRequest>,
    rejected: Vec<Request>,
    failed: Vec<Request>,
}

/// `n` requests in id order: every class, sessions 0–3, shard widths
/// 1–4, one-shot and 2–6-step decode plans with early exits, and about
/// one in ten requests shed or stranded.
fn traffic(seed: u64, n: u64) -> Traffic {
    let mut rng = SplitMix64::new(seed);
    let mut out = Traffic {
        completed: Vec::new(),
        rejected: Vec::new(),
        failed: Vec::new(),
    };
    for id in 0..n {
        let shape = RequestShape {
            seq_len: 256 << below(&mut rng, 4),
            heads: 1 + below(&mut rng, 8) as usize,
            layers: 1 + below(&mut rng, 4) as usize,
            batch: 1,
        };
        let class = RequestClass::ALL[below(&mut rng, 3) as usize];
        let arrival = id as f64 * 0.1 + unit(&mut rng);
        let mut request =
            Request::classed(id, arrival, shape, class).with_session(below(&mut rng, 4));
        match below(&mut rng, 10) {
            0 => out.rejected.push(request),
            1 => out.failed.push(request),
            _ => {
                let steps = if below(&mut rng, 2) == 0 {
                    1
                } else {
                    2 + below(&mut rng, 5) as u32
                };
                request.decode = DecodePlan {
                    steps,
                    exit_prob: if steps > 1 { 0.3 } else { 0.0 },
                    exit_seed: rng.next_u64(),
                };
                // Early exit: a multi-step plan may stop after any step.
                request.steps_done = 1 + below(&mut rng, u64::from(steps)) as u32;
                let first_step_finished = arrival + 0.01 + 20.0 * unit(&mut rng);
                let finished = if request.steps_done == 1 {
                    first_step_finished
                } else {
                    first_step_finished + 5.0 * unit(&mut rng)
                };
                out.completed.push(CompletedRequest {
                    request,
                    dispatched: arrival,
                    finished,
                    first_step_finished,
                    card: 0,
                    pipeline: 0,
                    shards: 1 + below(&mut rng, 4) as u32,
                });
            }
        }
    }
    out
}

/// Fisher–Yates with the given seed.
fn shuffled<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, below(&mut rng, i as u64 + 1) as usize);
    }
    out
}

fn report(completed: &[CompletedRequest], rejected: &[Request], failed: &[Request]) -> String {
    let cards = vec![CardSummary {
        card: 0,
        group: 0,
        served: completed.len() as u64,
        utilization: 0.5,
        energy_joules: 1.0,
        weight_swaps: 0,
        powered_seconds: 1.0,
        idle_energy_joules: 0.25,
        preempted: 0,
    }];
    let queue = QueueSummary {
        max_depth: 0,
        mean_depth: 0.0,
        timeline: Vec::new(),
        total_samples: 0,
    };
    ServeReport::assemble(
        "order",
        "generated",
        completed,
        rejected,
        failed,
        queue,
        cards,
        Vec::new(),
        Vec::new(),
        None,
        None,
    )
    .to_json()
    .pretty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding the same completions, sheds and strandings in id order
    /// and in a shuffled order produces the same JSON text.
    #[test]
    fn report_bytes_ignore_fold_order(
        seed in any::<u64>(),
        order in any::<u64>(),
        n in 1u64..120,
    ) {
        let t = traffic(seed, n);
        let in_order = report(&t.completed, &t.rejected, &t.failed);
        let reordered = report(
            &shuffled(&t.completed, order),
            &shuffled(&t.rejected, order ^ 1),
            &shuffled(&t.failed, order ^ 2),
        );
        prop_assert_eq!(in_order, reordered);
    }
}

/// The generator covers what the property needs: on a fixed seed the
/// report carries every class, fanned-out widths, decode early exits, and
/// sessions with several turns.
#[test]
fn generated_traffic_exercises_every_block() {
    let t = traffic(7, 400);
    let report = ServeReport::assemble(
        "order",
        "generated",
        &t.completed,
        &t.rejected,
        &t.failed,
        QueueSummary {
            max_depth: 0,
            mean_depth: 0.0,
            timeline: Vec::new(),
            total_samples: 0,
        },
        Vec::new(),
        Vec::new(),
        Vec::new(),
        None,
        None,
    );
    assert_eq!(report.classes.len(), 3);
    assert!(report.max_shards > 1);
    assert!(report.rejected > 0 && report.failed > 0);
    let decode = report.decode.expect("multi-step plans completed");
    assert!(decode.early_exits > 0);
    assert!(decode.step_interval.is_some());
    let sessions = report.sessions.expect("session-tagged traffic");
    assert!(sessions.turns_completed > 2 * sessions.sessions);
}
