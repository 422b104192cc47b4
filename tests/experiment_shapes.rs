//! Shape assertions for every reproduced figure: these tests encode what
//! the paper's evaluation *shows* (who wins, by roughly what factor, where
//! crossovers fall), so a regression in any model breaks the reproduction
//! visibly. `PAPER.md` states the paper's claims; the per-figure and
//! per-table binaries in `crates/bench/src/bin` (`fig1`, `fig3`,
//! `table2`, …) print the measured numbers these tests pin down.

use swat::{SwatAccelerator, SwatConfig};
use swat_baselines::butterfly::{swat_energy_ratio, swat_speedup, ButterflyAccelerator};
use swat_baselines::{GpuCostModel, GpuKernel};
use swat_model::flops::{layer_costs, AttentionKind};
use swat_model::ModelConfig;

const H: usize = 64;
const W: usize = 256;

fn swat16() -> SwatAccelerator {
    SwatAccelerator::new(SwatConfig::longformer_fp16()).unwrap()
}

fn swat32() -> SwatAccelerator {
    SwatAccelerator::new(SwatConfig::longformer_fp32()).unwrap()
}

// --- Figure 1 -----------------------------------------------------------

#[test]
fn figure1_attention_dominates_at_long_lengths() {
    let cfg = ModelConfig::longformer_base();
    let short = layer_costs(&cfg, 128, AttentionKind::Dense);
    let long = layer_costs(&cfg, 16384, AttentionKind::Dense);
    assert!(short.attention_flops_share() < 0.1);
    assert!(long.attention_flops_share() > 0.7);
    assert!(long.attention_mops_share() > 0.9);
}

// --- Figure 3 -----------------------------------------------------------

#[test]
fn figure3_swat_is_linear_gpu_dense_quadratic() {
    let accel = swat16();
    let gpu = GpuCostModel::mi210();
    let swat_ratio = accel.latency_seconds(16384) / accel.latency_seconds(4096);
    assert!(
        (swat_ratio - 4.0).abs() < 0.05,
        "SWAT 4x tokens = 4x time: {swat_ratio}"
    );
    let gpu_ratio = gpu.attention_seconds(GpuKernel::Dense, 16384, H)
        / gpu.attention_seconds(GpuKernel::Dense, 4096, H);
    assert!(
        gpu_ratio > 6.0,
        "GPU leaves the flat region and grows superlinearly: {gpu_ratio}"
    );
}

#[test]
fn figure3_swat_wins_at_short_and_long_lengths() {
    let gpu = GpuCostModel::mi210();
    let f16 = swat16();
    let f32_ = swat32();
    // Short: GPU is floor-bound, SWAT is ~10x faster.
    assert!(gpu.attention_seconds(GpuKernel::Dense, 512, H) > 5.0 * f16.latency_seconds(512));
    // Middle: FP32 SWAT is comparable to the GPU (within 40%).
    let mid = f32_.latency_seconds(8192) / gpu.attention_seconds(GpuKernel::Dense, 8192, H);
    assert!((0.6..1.4).contains(&mid), "8K comparable: {mid}");
    // Long: SWAT scales better.
    let long = f32_.latency_seconds(16384) / gpu.attention_seconds(GpuKernel::Dense, 16384, H);
    assert!(long < 0.8, "16K: SWAT pulls ahead: {long}");
}

#[test]
fn figure3_chunks_save_memory_but_not_time() {
    let gpu = GpuCostModel::mi210();
    for n in [8192usize, 16384] {
        let dense = gpu.attention_cost(GpuKernel::Dense, n, H);
        let chunks = gpu.attention_cost(GpuKernel::SlidingChunks { w: W }, n, H);
        assert!(chunks.score_memory_bytes * 4 < dense.score_memory_bytes);
        let t = chunks.seconds / dense.seconds;
        assert!((0.5..2.0).contains(&t), "time stays comparable: {t}");
    }
}

// --- Figure 8 -----------------------------------------------------------

#[test]
fn figure8_speedup_anchors_and_monotonicity() {
    let accel = swat16();
    let btf1 = ButterflyAccelerator::btf(1);
    let btf2 = ButterflyAccelerator::btf(2);
    let s1_4k = swat_speedup(&btf1, accel.latency_seconds(4096), 4096);
    let s2_4k = swat_speedup(&btf2, accel.latency_seconds(4096), 4096);
    assert!((6.0..7.5).contains(&s1_4k), "paper: 6.7x, got {s1_4k}");
    assert!((11.0..13.5).contains(&s2_4k), "paper: 12.2x, got {s2_4k}");
    let s1_16k = swat_speedup(&btf1, accel.latency_seconds(16384), 16384);
    assert!((21.0..23.0).contains(&s1_16k), "paper: 22x, got {s1_16k}");
    // Monotone growth with length (declining Butterfly scalability).
    let mut prev = 0.0;
    for n in [1024usize, 2048, 4096, 8192, 16384] {
        let s = swat_speedup(&btf1, accel.latency_seconds(n), n);
        assert!(s > prev);
        prev = s;
    }
}

// --- Figure 9 -----------------------------------------------------------

#[test]
fn figure9_energy_vs_butterfly() {
    let accel = swat16();
    let t = accel.latency_seconds(16384);
    let e1 = swat_energy_ratio(&ButterflyAccelerator::btf(1), t, accel.power_watts(), 16384);
    let e2 = swat_energy_ratio(&ButterflyAccelerator::btf(2), t, accel.power_watts(), 16384);
    assert!((10.0..13.0).contains(&e1), "paper: 11.4x, got {e1}");
    assert!((19.0..23.0).contains(&e2), "paper: 21.9x, got {e2}");
}

#[test]
fn figure9_fp32_vs_gpu_is_u_shaped() {
    let gpu = GpuCostModel::mi210();
    let accel = swat32();
    let ratio =
        |n: usize| gpu.attention_energy(GpuKernel::Dense, n, H) / accel.energy_per_attention(n);
    let r1k = ratio(1024);
    let r8k = ratio(8192);
    let r16k = ratio(16384);
    // Paper: 20x at 1K, minimum 4.2x at 8K, back to 8.4x at 16K.
    assert!((15.0..25.0).contains(&r1k), "1K: {r1k}");
    assert!((3.5..6.0).contains(&r8k), "8K: {r8k}");
    assert!((7.0..10.0).contains(&r16k), "16K: {r16k}");
    assert!(r8k < r1k && r8k < r16k, "minimum near 8K");
}

#[test]
fn figure9_fp16_headline_15x() {
    let gpu = GpuCostModel::mi210();
    let accel = swat16();
    let r = gpu.attention_energy(GpuKernel::Dense, 16384, H) / accel.energy_per_attention(16384);
    assert!((13.0..18.0).contains(&r), "paper headline ~15x, got {r}");
}

// --- Headline claims ----------------------------------------------------

#[test]
fn abstract_claims_hold() {
    // "22x and 5.7x improvement in latency and energy efficiency compared
    // to the baseline FPGA-based accelerator" — the 22x is BTF-1 latency
    // at 16K; 5.7x is the BigBird-config energy ratio at the Longformer
    // standard length region. We pin the latency claim and check the
    // energy ratio brackets 5.7 somewhere in the sweep.
    let accel = swat16();
    let btf1 = ButterflyAccelerator::btf(1);
    let s = swat_speedup(&btf1, accel.latency_seconds(16384), 16384);
    assert!((21.0..23.0).contains(&s));

    let mut bracket = false;
    for n in [1024usize, 2048, 4096, 8192, 16384] {
        let e = swat_energy_ratio(&btf1, accel.latency_seconds(n), accel.power_watts(), n);
        if (4.0..8.0).contains(&e) {
            bracket = true;
        }
    }
    assert!(bracket, "a 5.7x-scale energy ratio appears along the sweep");
}
