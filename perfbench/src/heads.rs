//! The `paper-heads` workload: the paper's SWAT datapath on three
//! attention heads, each checked against the masked-softmax reference.

use swat::{RunReport, SwatAccelerator, SwatConfig};
use swat_attention::reference;
use swat_numeric::SplitMix64;
use swat_tensor::Matrix;

use crate::spans::Tracer;
use crate::{set_up, span_total, timed, Rep, Size};

/// One benchmarked head configuration.
pub(crate) struct Head {
    /// Short name used in metric names (`accel.run_s.<name>`).
    pub name: &'static str,
    config: fn() -> SwatConfig,
    /// Largest accepted `|simulated - reference|`: the bound the core
    /// crate's own tests hold the datapath to for this precision.
    max_err: f32,
}

/// Longformer FP16, BigBird FP16 and Longformer FP32 (Table 2's rows).
/// Soft-float FP16 is far slower on the host than native FP32, so the
/// FP32 head is the workload's control for FP16-only changes.
pub(crate) const HEADS: [Head; 3] = [
    Head {
        name: "lf16",
        config: SwatConfig::longformer_fp16,
        max_err: 0.05,
    },
    Head {
        name: "bb16",
        config: SwatConfig::bigbird_fp16,
        max_err: 0.05,
    },
    Head {
        name: "lf32",
        config: SwatConfig::longformer_fp32,
        max_err: 1e-4,
    },
];

type Qkv = [Matrix<f32>; 3];

fn qkv(rows: usize, head_dim: usize, seed: u64) -> Qkv {
    let mut rng = SplitMix64::new(seed);
    let mut gen = |_: usize, _: usize| rng.next_f32_in(-1.0, 1.0);
    [
        Matrix::from_fn(rows, head_dim, &mut gen),
        Matrix::from_fn(rows, head_dim, &mut gen),
        Matrix::from_fn(rows, head_dim, &mut gen),
    ]
}

/// One repetition: build the accelerators and inputs, run the three
/// heads, then check each against the reference.
pub(crate) fn rep(tr: &mut Tracer, seed: u64, size: &Size, traced: bool) -> Rep {
    let first = tr.spans().len();
    let mut rep = Rep::default();
    let inputs = set_up(tr, &mut rep.setup_s, |tr| {
        let mut seeds = SplitMix64::new(seed);
        HEADS
            .iter()
            .zip(size.head_tokens)
            .map(|(head, rows)| {
                let cfg = (head.config)();
                let accel = tr.span("accel.build", |_| SwatAccelerator::new(cfg.clone()));
                let input = tr.span("accel.qkv", |_| qkv(rows, cfg.head_dim, seeds.next_u64()));
                (accel, input)
            })
            .collect::<Vec<_>>()
    });
    let span_names = HEADS.map(|h| format!("accel.run.{}", h.name));

    let (runs, wall_s) = timed(tr, |tr| {
        inputs
            .iter()
            .zip(&span_names)
            .map(|((accel, [q, k, v]), span)| {
                let accel = accel.as_ref().map_err(|e| e.to_string())?;
                tr.span(span, |_| accel.run(q, k, v))
                    .map_err(|e| e.to_string())
            })
            .collect::<Vec<Result<RunReport, String>>>()
    });
    rep.wall_s = wall_s;

    let mut checked: Vec<(RunReport, f32, u64)> = Vec::new();
    for ((head, (accel, [q, k, v])), run) in HEADS.iter().zip(&inputs).zip(runs) {
        let result = tr.span("check", |tr| {
            let report = run?;
            let accel = accel.as_ref().map_err(|e| e.to_string())?;
            let cfg = accel.config();
            let expect = tr.span("attention.reference", |_| {
                reference::masked_attention(q, k, v, &cfg.pattern_for(q.rows()), cfg.scale)
            });
            if !report.output.as_slice().iter().all(|x| x.is_finite()) {
                return Err("output holds a non-finite value".to_string());
            }
            let err = report.output.max_abs_diff(&expect);
            if err.is_nan() || err > head.max_err {
                return Err(format!(
                    "max |simulated - reference| = {err} > {}",
                    head.max_err
                ));
            }
            Ok((report, err, accel.offchip_bytes(q.rows())))
        });
        match result {
            Ok(ok) => {
                rep.check(head.name, Ok(()));
                checked.push(ok);
            }
            Err(problem) => rep.check(head.name, Err(problem)),
        }
    }

    let sum = |f: &dyn Fn(&(RunReport, f32, u64)) -> f64| checked.iter().map(f).sum::<f64>();
    let heads = checked.len() as f64;
    let rows = sum(&|c| c.0.output.rows() as f64);
    let kv_loads = sum(&|c| c.0.kv_loads as f64);
    let kv_reloads = sum(&|c| c.0.kv_reloads as f64);
    rep.det = vec![
        ("accel.rows".to_string(), rows),
        ("accel.sim_cycles".to_string(), sum(&|c| c.0.cycles as f64)),
        ("accel.flops".to_string(), sum(&|c| c.0.counts.flops as f64)),
        ("accel.offchip_bytes".to_string(), sum(&|c| c.2 as f64)),
        ("accel.kv_loads".to_string(), kv_loads),
        ("accel.kv_reloads".to_string(), kv_reloads),
        ("accel.kv_reload_ratio".to_string(), kv_reloads / kv_loads),
        ("sim_s_per_head".to_string(), sum(&|c| c.0.seconds) / heads),
        (
            "sim_energy_j_per_head".to_string(),
            sum(&|c| c.0.energy_joules) / heads,
        ),
        (
            "max_abs_err".to_string(),
            checked.iter().map(|c| f64::from(c.1)).fold(0.0, f64::max),
        ),
    ];
    rep.rate = Some(("rows_per_s", rows / wall_s));
    if traced {
        let spans = &tr.spans()[first..];
        rep.layers = HEADS
            .iter()
            .zip(&span_names)
            .map(|(head, span)| {
                (
                    format!("accel.run_s.{}", head.name),
                    span_total(spans, |n| n == span),
                )
            })
            .collect();
        rep.layers.push((
            "attention.reference_s".to_string(),
            span_total(spans, |n| n == "attention.reference"),
        ));
    }
    rep
}
