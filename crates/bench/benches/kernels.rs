//! Criterion micro-benchmarks of the numerical kernels underlying the
//! quantization pipeline: matmul, Cholesky/inverse factorization, the
//! OBQ layer update, attention-aware Hessian construction, the
//! transformer forward pass, and one projection call fp32 against
//! packed.

use aptq_core::engine::{quantize_layer_obq, quantize_layer_rtn};
use aptq_core::grid::{GridConfig, QuantGrid};
use aptq_core::hessian::HessianAccumulator;
use aptq_lm::{LinearOp, Model, ModelConfig};
use aptq_qmodel::QuantizedLinear;
use aptq_tensor::{init, linalg, Matrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 96, 128, 256] {
        let a = init::normal(n, n, 1.0, &mut init::rng(1));
        let b = init::normal(n, n, 1.0, &mut init::rng(2));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("inverse_cholesky_upper");
    for &n in &[48usize, 96, 128] {
        let g = init::normal(n, n + 4, 1.0, &mut init::rng(3));
        let mut a = g.matmul(&g.transpose());
        linalg::damp_diagonal(&mut a, 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(linalg::inverse_cholesky_upper(&a).unwrap()));
        });
    }
    group.finish();
}

fn bench_obq_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize_layer");
    for &d in &[96usize, 128] {
        let x = init::normal(256, d, 1.0, &mut init::rng(4));
        let w = init::normal(d, d, 0.3, &mut init::rng(5));
        let mut acc = HessianAccumulator::new(d);
        acc.update(&x);
        let h = acc.finish();
        let cfg = GridConfig::default();
        group.bench_with_input(BenchmarkId::new("obq4", d), &d, |bench, _| {
            bench.iter(|| {
                black_box(
                    quantize_layer_obq("bench", &w, &h, QuantGrid::int(4, true), &cfg).unwrap(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("rtn4", d), &d, |bench, _| {
            bench.iter(|| black_box(quantize_layer_rtn(&w, QuantGrid::int(4, true), &cfg)));
        });
    }
    group.finish();
}

fn bench_hessian_collection(c: &mut Criterion) {
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 6);
    let segs: Vec<Vec<u32>> = (0..4)
        .map(|k| (0..48).map(|i| ((i * 3 + k) % 100) as u32).collect())
        .collect();
    let mut group = c.benchmark_group("collect_hessians");
    group.sample_size(10);
    group.bench_function("gptq_mode", |b| {
        b.iter(|| {
            black_box(
                aptq_core::collect_hessians(&model, &segs, aptq_core::HessianMode::LayerInput)
                    .unwrap(),
            )
        });
    });
    group.bench_function("aptq_mode", |b| {
        b.iter(|| {
            black_box(
                aptq_core::collect_hessians(&model, &segs, aptq_core::HessianMode::AttentionAware)
                    .unwrap(),
            )
        });
    });
    group.finish();
}

fn bench_forward(c: &mut Criterion) {
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 7);
    let tokens: Vec<u32> = (0..64).map(|i| (i % 100) as u32).collect();
    let mut group = c.benchmark_group("transformer");
    group.bench_function("forward_64tok", |b| {
        b.iter(|| black_box(model.forward(&tokens)));
    });
    group.bench_function("forward_capture_64tok", |b| {
        b.iter(|| black_box(model.forward_capture(&tokens)));
    });
    group.bench_function("sequence_grads_64tok", |b| {
        b.iter(|| black_box(model.sequence_grads(&tokens)));
    });
    // KV-cache decoding: amortized per-token cost after a 32-token prompt.
    group.bench_function("decode_32_plus_8", |b| {
        b.iter(|| {
            black_box(aptq_lm::decode::generate_greedy_cached(&model, &tokens[..32], 8).unwrap())
        });
    });
    group.finish();
}

fn bench_quantized_decode(c: &mut Criterion) {
    // Steady-state decode from packed storage vs the float path above:
    // same generic DecodeSession, projections executed by the
    // packed QuantizedLinear instead of fp32 matmul.
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 7);
    let tokens: Vec<u32> = (0..64).map(|i| (i % 100) as u32).collect();
    let calib: Vec<Vec<u32>> = (0..4)
        .map(|k| (0..48).map(|i| ((i * 3 + k) % 100) as u32).collect())
        .collect();
    let hs = aptq_core::collect_hessians(&model, &calib, aptq_core::HessianMode::AttentionAware)
        .unwrap();
    let plan = aptq_core::QuantPlan::uniform(&model, 4);
    let q = aptq_qmodel::QuantizedModel::quantize_from(&model, &plan, &hs, &GridConfig::default())
        .unwrap();
    let mut group = c.benchmark_group("quantized");
    group.bench_function("forward_64tok", |b| {
        b.iter(|| black_box(q.forward(&tokens).unwrap()));
    });
    // The same generator and prompt as `transformer/decode_32_plus_8`.
    group.bench_function("decode_32_plus_8", |b| {
        b.iter(|| {
            black_box(aptq_lm::decode::generate_greedy_cached(q.model(), &tokens[..32], 8).unwrap())
        });
    });
    group.finish();
}

fn bench_qlinear(c: &mut Criterion) {
    // One projection call, fp32 against packed 2/3/4-bit RTN copies of
    // the same weight: TinyLlama-S's `wq` (32×32) and `ffn.up` (32×64)
    // on one row (a decode token) and on 64 rows (a batch).
    let model = Model::new(&ModelConfig::tiny_llama_s(100), 7);
    let block = &model.blocks()[0];
    let mut group = c.benchmark_group("qlinear");
    for (name, lin) in [("wq", block.attn.wq()), ("ffn.up", block.ffn.up())] {
        for rows in [1usize, 64] {
            let x = init::normal(rows, lin.d_in(), 1.0, &mut init::rng(8));
            let mut out = Matrix::zeros(rows, lin.d_out());
            group.bench_function(format!("{name}/fp32/{rows}"), |b| {
                b.iter(|| lin.forward_into(black_box(&x), &mut out, None));
            });
            for bits in [2u8, 3, 4] {
                let grid = QuantGrid::int(bits, true);
                let packed = quantize_layer_rtn(lin.weight(), grid, &GridConfig::default()).packed;
                let q = QuantizedLinear::new(packed);
                group.bench_function(format!("{name}/packed{bits}/{rows}"), |b| {
                    b.iter(|| q.forward_into(black_box(&x), &mut out, None));
                });
            }
        }
    }
    group.finish();
}

fn bench_packing(c: &mut Criterion) {
    let codes: Vec<u8> = (0..96 * 96).map(|i| (i % 16) as u8).collect();
    let mut group = c.benchmark_group("packing");
    for bits in [2u8, 4] {
        let masked: Vec<u8> = codes.iter().map(|&v| v & ((1 << bits) - 1)).collect();
        group.bench_with_input(BenchmarkId::new("pack", bits), &bits, |b, &bits| {
            b.iter(|| black_box(aptq_core::pack::pack_codes(&masked, bits)));
        });
        let packed = aptq_core::pack::pack_codes(&masked, bits);
        group.bench_with_input(BenchmarkId::new("unpack", bits), &bits, |b, &bits| {
            b.iter(|| black_box(aptq_core::pack::unpack_codes(&packed, bits, masked.len())));
        });
    }
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = bench_matmul, bench_cholesky, bench_obq_layer, bench_hessian_collection,
        bench_forward, bench_quantized_decode, bench_qlinear, bench_packing
);
criterion_main!(kernels);
