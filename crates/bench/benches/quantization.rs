//! Quantizer and bit-distribution throughput (the Fig. 6 pipeline).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dnnlife_nn::weights::LayerWeightGen;
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::{analyze_layer, NumberFormat, Quantizer};
use std::hint::black_box;

fn bench_quantization(c: &mut Criterion) {
    let spec = NetworkSpec::custom_mnist();
    let gen = LayerWeightGen::new(&spec, 2, 42); // fc1: 204,800 weights
    let range = gen.range(u64::MAX);

    let mut group = c.benchmark_group("quantization");
    group.throughput(Throughput::Elements(10_000));

    group.bench_function("weight_generation_10k", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..10_000u64 {
                acc += gen.weight(black_box(i));
            }
            black_box(acc)
        });
    });

    // Quantizer calibration scan: AlexNet fc6 at the plans' 1M-weight
    // sample cap (`RANGE_CAP` in dnnlife-accel).
    let fc6 = LayerWeightGen::new(&NetworkSpec::alexnet(), 5, 42);
    group.throughput(Throughput::Elements(1_000_000));
    group.bench_function("range_1m", |b| {
        b.iter(|| black_box(fc6.range(black_box(1_000_000))));
    });
    group.throughput(Throughput::Elements(10_000));

    for format in NumberFormat::all() {
        let quantizer = Quantizer::calibrate(format, &range);
        group.bench_function(format!("encode_10k_{format:?}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..10_000u64 {
                    acc ^= u64::from(quantizer.encode(gen.weight(black_box(i))));
                }
                black_box(acc)
            });
        });
    }

    group.sample_size(20);
    group.bench_function("fig6_layer_distribution_50k", |b| {
        let quantizer = Quantizer::calibrate(NumberFormat::Int8Asymmetric, &range);
        b.iter(|| black_box(analyze_layer(&gen, &quantizer, 50_000)));
    });
    group.finish();
}

criterion_group!(benches, bench_quantization);
criterion_main!(benches);
