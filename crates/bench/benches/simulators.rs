//! Exact vs analytic weight-memory simulation cost — the speedup that
//! makes the paper-scale (512 KB × fp32 × VGG) runs tractable.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dnnlife_accel::{
    simulate_analytic, simulate_exact, AcceleratorConfig, AnalyticPolicy, AnalyticSimConfig,
    BlockSource, FifoSlotMemory, FlatWeightMemory,
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
    group.bench_function("analytic_inversion_stride512", |b| {
        b.iter(|| {
            black_box(simulate_analytic(
                &full,
                &AnalyticPolicy::PeriodicInversion,
                &strided,
            ))
        });
    });
    group.bench_function("analytic_barrel_stride512", |b| {
        b.iter(|| {
            black_box(simulate_analytic(
                &full,
                &AnalyticPolicy::BarrelShifter,
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

/// Sum of every word of the first `blocks` blocks of `plan`.
fn fetch_words(plan: &impl BlockSource, blocks: u64) -> u64 {
    let words = plan.geometry().words;
    let mut sum = 0u64;
    for block in 0..blocks {
        for word in 0..words {
            sum = sum.wrapping_add(plan.word(block, word));
        }
    }
    sum
}

/// The block-word fetch on its own (generate, quantize, encode): every
/// word of AlexNet FIFO slot 0's first 8 tiles, for both int8 formats.
/// The NPU FIFO is 8-bit only, so the fp32 cell reads the same 8·256²
/// words as the first 4 fills of the baseline flat memory.
fn bench_plan_word_fetch(c: &mut Criterion) {
    const TILES: u64 = 8;
    let spec = NetworkSpec::alexnet();
    let mut group = c.benchmark_group("plan_word_fetch");
    group.sample_size(10);
    let words = TILES * FifoSlotMemory::TILE_SIDE * FifoSlotMemory::TILE_SIDE;
    group.throughput(Throughput::Elements(words));
    for (name, format) in [
        ("alexnet_slot0_int8_symmetric", NumberFormat::Int8Symmetric),
        (
            "alexnet_slot0_int8_asymmetric",
            NumberFormat::Int8Asymmetric,
        ),
    ] {
        let slot = FifoSlotMemory::all_slots(&spec, format, 3).swap_remove(0);
        assert!(slot.block_count() >= TILES);
        group.bench_function(name, |b| b.iter(|| black_box(fetch_words(&slot, TILES))));
    }
    let flat = FlatWeightMemory::new(&AcceleratorConfig::baseline(), &spec, NumberFormat::Fp32, 3);
    let fills = words / flat.geometry().words as u64;
    group.bench_function("alexnet_flat_fp32", |b| {
        b.iter(|| black_box(fetch_words(&flat, fills)))
    });
    group.finish();
}

criterion_group!(benches, bench_simulators, bench_plan_word_fetch);
criterion_main!(benches);
