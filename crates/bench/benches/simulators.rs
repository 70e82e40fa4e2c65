//! Exact vs analytic weight-memory simulation cost — the speedup that
//! makes the paper-scale (512 KB × fp32 × VGG) runs tractable.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dnnlife_accel::{
    simulate_analytic, simulate_exact, AcceleratorConfig, AnalyticPolicy, AnalyticSimConfig,
    FlatWeightMemory,
};
use dnnlife_mitigation::{AgingController, DnnLife, Passthrough, PseudoTrbg};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::NumberFormat;
use std::hint::black_box;

fn tiny_memory() -> FlatWeightMemory {
    let mut cfg = AcceleratorConfig::baseline();
    cfg.weight_memory_bytes = 2048;
    FlatWeightMemory::new(
        &cfg,
        &NetworkSpec::custom_mnist(),
        NumberFormat::Int8Symmetric,
        3,
    )
}

fn bench_simulators(c: &mut Criterion) {
    let mem = tiny_memory();
    let cfg = AnalyticSimConfig {
        inferences: 10,
        sample_stride: 1,
        threads: 1,
        shards: 0,
    };

    let mut group = c.benchmark_group("memory_simulation_2kB");
    group.sample_size(20);
    group.bench_function("exact_passthrough_10inf", |b| {
        b.iter_batched_ref(
            || Passthrough::new(8),
            |t| black_box(simulate_exact(&mem, t, 10, 1)),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("exact_dnnlife_10inf", |b| {
        b.iter_batched_ref(
            || DnnLife::new(8, AgingController::new(PseudoTrbg::new(1, 0.5), 4)),
            |t| black_box(simulate_exact(&mem, t, 10, 1)),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("analytic_passthrough", |b| {
        b.iter(|| black_box(simulate_analytic(&mem, &AnalyticPolicy::Passthrough, &cfg)));
    });
    group.bench_function("analytic_barrel", |b| {
        b.iter(|| {
            black_box(simulate_analytic(
                &mem,
                &AnalyticPolicy::BarrelShifter,
                &cfg,
            ))
        });
    });
    group.bench_function("analytic_dnnlife", |b| {
        let policy = AnalyticPolicy::DnnLife {
            bias: 0.5,
            bias_balancing: Some(4),
            seed: 7,
        };
        b.iter(|| black_box(simulate_analytic(&mem, &policy, &cfg)));
    });
    group.finish();

    // The paper-scale configuration, heavily strided so the bench stays
    // in milliseconds while exercising the real K = 117 block stream.
    let full = FlatWeightMemory::new(
        &AcceleratorConfig::baseline(),
        &NetworkSpec::alexnet(),
        NumberFormat::Int8Symmetric,
        3,
    );
    let strided = AnalyticSimConfig {
        inferences: 100,
        sample_stride: 512,
        threads: 1,
        shards: 0,
    };
    let mut group = c.benchmark_group("memory_simulation_alexnet_512KB");
    group.sample_size(10);
    group.bench_function("analytic_none_stride512", |b| {
        b.iter(|| {
            black_box(simulate_analytic(
                &full,
                &AnalyticPolicy::Passthrough,
                &strided,
            ))
        });
    });
    group.bench_function("analytic_dnnlife_stride512", |b| {
        let policy = AnalyticPolicy::DnnLife {
            bias: 0.7,
            bias_balancing: Some(4),
            seed: 7,
        };
        b.iter(|| black_box(simulate_analytic(&full, &policy, &strided)));
    });
    group.finish();
}

criterion_group!(benches, bench_simulators);
criterion_main!(benches);
