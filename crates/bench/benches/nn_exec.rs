//! Executor throughput: the batched forward pass that backs the opened
//! zoo — AlexNet at its native 227×227 input and the custom MNIST CNN
//! for scale contrast — measured in images/s and effective GMAC/s under
//! the campaign thread budget, plus the two custom-MNIST shapes
//! `dnnlife inject` actually runs: the batch-100 evaluation forward pass
//! and the batch-24 `Sgd::step` of its training recipe.
//!
//! Besides the Criterion group, the bench re-times every cell directly
//! (best of three passes) and writes the measurements to
//! `BENCH_nn_exec.json` (override the path with the `BENCH_JSON_PATH`
//! env var), uploaded by CI with the other bench artifacts. The step
//! cell reports how much of a training step is *not* the forward pass
//! (`backward_share`: backward, loss and the SGD update).

use criterion::{criterion_group, Criterion};
use dnnlife_faultsim::network::{TRAIN_BATCH, TRAIN_LR, TRAIN_MOMENTUM, TRAIN_WEIGHT_DECAY};
use dnnlife_nn::data::{adapt_batch, SyntheticMnist};
use dnnlife_nn::exec;
use dnnlife_nn::train::Sgd;
use dnnlife_nn::zoo::{build_network, NetworkSpec};
use dnnlife_nn::Sequential;
use dnnlife_nn::Tensor;

/// Images per forward pass. Small enough that a debug-free release
/// pass finishes in seconds, large enough that the per-image
/// round-robin split at a multi-core budget is exercised.
const BATCH: usize = 4;

/// Images per evaluation pass of `dnnlife inject` at `--eval-images 100`.
const EVAL_BATCH: usize = 100;

/// SGD steps per timed pass of the training-step cell.
const STEPS: usize = 5;

fn batch_for(spec: &NetworkSpec, n: usize) -> Tensor {
    let (images, _labels) = SyntheticMnist::new(42).batch(0, n);
    adapt_batch(&images, spec.input_shape())
}

/// `STEPS` training steps of the inject recipe (batch `TRAIN_BATCH`,
/// serial budget) over the first batches of the procedural set.
fn train_steps(net: &mut Sequential, sgd: &mut Sgd, batches: &[(Tensor, Vec<usize>)]) -> f64 {
    exec::with_budget(1, || {
        batches
            .iter()
            .map(|(images, labels)| f64::from(sgd.step(net, images, labels)))
            .sum()
    })
}

fn training_batches() -> Vec<(Tensor, Vec<usize>)> {
    let data = SyntheticMnist::new(42);
    (0..STEPS)
        .map(|step| data.batch((step * TRAIN_BATCH) as u64, TRAIN_BATCH))
        .collect()
}

/// One budgeted batched forward pass; returns a checksum over the
/// logits so the GEMM cannot be optimized away.
fn forward_pass(net: &mut Sequential, images: &Tensor, budget: usize) -> f64 {
    exec::with_budget(budget, || {
        let out = net.forward(images);
        out.data().iter().map(|&v| f64::from(v)).sum()
    })
}

fn bench_nn_exec(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cases = [NetworkSpec::custom_mnist(), NetworkSpec::alexnet()];
    let mut group = c.benchmark_group("im2col_forward");
    group.sample_size(10);
    for spec in &cases {
        let mut net = build_network(spec, 42);
        let images = batch_for(spec, BATCH);
        group.bench_function(format!("{}_b{BATCH}", spec.name()), |b| {
            b.iter(|| forward_pass(&mut net, &images, cores));
        });
    }
    let mnist = NetworkSpec::custom_mnist();
    let mut net = build_network(&mnist, 42);
    let images = batch_for(&mnist, EVAL_BATCH);
    group.bench_function(format!("{}_eval_b{EVAL_BATCH}", mnist.name()), |b| {
        b.iter(|| forward_pass(&mut net, &images, cores));
    });
    let batches = training_batches();
    let mut sgd = Sgd::new(TRAIN_LR, TRAIN_MOMENTUM, TRAIN_WEIGHT_DECAY);
    group.bench_function(format!("{}_sgd_step_b{TRAIN_BATCH}", mnist.name()), |b| {
        b.iter(|| train_steps(&mut net, &mut sgd, &batches));
    });
    group.finish();
}

/// Best-of-`passes` wall-clock seconds (one warm pass first).
fn best_of(mut f: impl FnMut() -> f64, passes: usize) -> f64 {
    std::hint::black_box(f());
    (0..passes)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn emit_json() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut fields = Vec::new();
    let mnist = NetworkSpec::custom_mnist();
    for (spec, batch, cell) in [
        (mnist.clone(), BATCH, mnist.name().to_string()),
        (NetworkSpec::alexnet(), BATCH, "alexnet".to_string()),
        (
            mnist.clone(),
            EVAL_BATCH,
            format!("custom-mnist_eval_b{EVAL_BATCH}"),
        ),
    ] {
        let mut net = build_network(&spec, 42);
        let images = batch_for(&spec, batch);
        let parallel = best_of(|| forward_pass(&mut net, &images, cores), 3);
        let serial = best_of(|| forward_pass(&mut net, &images, 1), 3);
        let macs = spec.macs() as f64 * batch as f64;
        fields.push(format!(
            "  \"{cell}\": {{\"batch\": {batch}, \"images_per_s\": {:.3}, \
             \"gmacs_per_s\": {:.3}, \"serial_images_per_s\": {:.3}, \
             \"serial_gmacs_per_s\": {:.3}, \"parallel_speedup\": {:.3}}}",
            batch as f64 / parallel,
            macs / parallel / 1e9,
            batch as f64 / serial,
            macs / serial / 1e9,
            serial / parallel,
        ));
    }

    let mut net = build_network(&mnist, 42);
    let mut sgd = Sgd::new(TRAIN_LR, TRAIN_MOMENTUM, TRAIN_WEIGHT_DECAY);
    let batches = training_batches();
    let step = best_of(|| train_steps(&mut net, &mut sgd, &batches), 3) / STEPS as f64;
    let images = batch_for(&mnist, TRAIN_BATCH);
    let forward = best_of(|| forward_pass(&mut net, &images, 1), 3);
    fields.push(format!(
        "  \"custom-mnist_sgd_step_b{TRAIN_BATCH}\": {{\"batch\": {TRAIN_BATCH}, \
         \"serial_steps_per_s\": {:.3}, \"step_ms\": {:.3}, \"forward_ms\": {:.3}, \
         \"backward_share\": {:.3}}}",
        1.0 / step,
        step * 1e3,
        forward * 1e3,
        1.0 - forward / step,
    ));

    let json = format!(
        "{{\n  \"bench\": \"nn_exec\",\n  \"host_cores\": {cores},\n{}\n}}\n",
        fields.join(",\n"),
    );
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_nn_exec.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_nn_exec);

fn main() {
    benches();
    emit_json();
}
