//! Telemetry overhead: the observability contract promises that the
//! counters are cheap enough to leave compiled into the hot paths, so
//! this bench pins the cost of (a) a raw counter bump against an
//! enabled vs no-op sink, (b) a `time()` span, and (c) one analytic
//! duty simulation of the Fig. 11 custom-network cell with telemetry
//! off vs on — the end-to-end number that must stay ~1.0×.
//!
//! Like the other benches, the measurements land in
//! `BENCH_telemetry.json` (override with `BENCH_JSON_PATH`) for CI
//! artifact upload.

use criterion::{criterion_group, Criterion};
use dnnlife_accel::{
    simulate_analytic_telemetry, AnalyticPolicy, AnalyticSimConfig, FifoSlotMemory,
};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::NumberFormat;
use dnnlife_telemetry::{Counter, SpanId, Telemetry};

/// Counter bumps per timing pass.
const BUMPS: u64 = 1 << 20;

fn bump_stream(telemetry: &Telemetry) -> u64 {
    for i in 0..BUMPS {
        telemetry.add(Counter::ExactWordWrites, i & 0xff);
    }
    telemetry.get(Counter::ExactWordWrites)
}

fn span_stream(telemetry: &Telemetry) -> u64 {
    let mut acc = 0u64;
    for i in 0..BUMPS / 64 {
        acc ^= telemetry.time(Counter::ShardMergeNanos, || std::hint::black_box(i));
    }
    acc
}

fn hist_stream(telemetry: &Telemetry) -> u64 {
    // Adversarial value spread: every record hits a different octave.
    for i in 0..BUMPS {
        telemetry.observe(
            "bench_latency_us",
            "histogram-record bench stream",
            i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
    }
    telemetry.metrics_snapshot().metrics.len() as u64
}

fn span_emit_stream(telemetry: &Telemetry) -> u64 {
    let mut acc = 0u64;
    for _ in 0..BUMPS / 256 {
        let span = telemetry.span_start("bench_span", SpanId::NONE);
        acc ^= span.raw();
        telemetry.span_end(span);
    }
    acc
}

fn duty_sim(telemetry: Option<&Telemetry>) -> f64 {
    let slot = FifoSlotMemory::all_slots(
        &NetworkSpec::custom_mnist(),
        NumberFormat::Int8Symmetric,
        42,
    )
    .swap_remove(0);
    let duties = simulate_analytic_telemetry(
        &slot,
        &AnalyticPolicy::PeriodicInversion,
        &AnalyticSimConfig {
            inferences: 10,
            sample_stride: 4,
            threads: 1,
            shards: 1,
        },
        telemetry,
        SpanId::NONE,
    );
    duties.iter().sum()
}

/// A journal-backed telemetry writing into the scratch dir — span
/// emission includes the buffered journal write, which is the real
/// enabled-path cost.
fn journaled() -> Telemetry {
    let path =
        std::env::temp_dir().join(format!("dnnlife-bench-spans-{}.jsonl", std::process::id()));
    Telemetry::with_journal(&path).expect("open bench journal")
}

fn bench_telemetry(c: &mut Criterion) {
    let enabled = Telemetry::in_memory();
    let with_journal = journaled();
    let mut group = c.benchmark_group("telemetry_counter");
    group.bench_function("add_enabled", |b| {
        b.iter(|| bump_stream(&enabled));
    });
    group.bench_function("add_noop", |b| {
        b.iter(|| bump_stream(Telemetry::noop()));
    });
    group.bench_function("span_enabled", |b| {
        b.iter(|| span_stream(&enabled));
    });
    group.bench_function("hist_record_enabled", |b| {
        b.iter(|| hist_stream(&enabled));
    });
    group.bench_function("hist_record_noop", |b| {
        b.iter(|| hist_stream(Telemetry::noop()));
    });
    group.bench_function("span_emit_enabled", |b| {
        b.iter(|| span_emit_stream(&with_journal));
    });
    group.bench_function("span_emit_noop", |b| {
        b.iter(|| span_emit_stream(Telemetry::noop()));
    });
    group.finish();

    let mut group = c.benchmark_group("telemetry_duty_sim");
    group.sample_size(10);
    group.bench_function("fig11_slot_off", |b| {
        b.iter(|| duty_sim(None));
    });
    group.bench_function("fig11_slot_on", |b| {
        b.iter(|| duty_sim(Some(&enabled)));
    });
    group.finish();
}

/// Best-of-`passes` wall-clock seconds (one warm pass first).
fn best_of(mut f: impl FnMut() -> u64, passes: usize) -> f64 {
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
    let enabled = Telemetry::in_memory();
    let with_journal = journaled();
    let add_on = best_of(|| bump_stream(&enabled), 3);
    let add_off = best_of(|| bump_stream(Telemetry::noop()), 3);
    let span = best_of(|| span_stream(&enabled), 3);
    let hist_on = best_of(|| hist_stream(&enabled), 3);
    let hist_off = best_of(|| hist_stream(Telemetry::noop()), 3);
    let span_emit_on = best_of(|| span_emit_stream(&with_journal), 3);
    let span_emit_off = best_of(|| span_emit_stream(Telemetry::noop()), 3);
    let sim_off = best_of(|| duty_sim(None) as u64, 3);
    let sim_on = best_of(|| duty_sim(Some(&enabled)) as u64, 3);
    // The contract the registry layer rides on: a histogram record is
    // nanosecond-scale when enabled and effectively free when off.
    let hist_ns = hist_on / BUMPS as f64 * 1e9;
    assert!(
        hist_ns < 1_000.0,
        "histogram record must stay ns-scale, measured {hist_ns:.1} ns"
    );
    assert!(
        hist_off < hist_on,
        "no-op histogram record must undercut the enabled path"
    );
    let span_pair_ns = span_emit_on / (BUMPS / 256) as f64 * 1e9;
    assert!(
        span_emit_off * 50.0 < span_emit_on,
        "no-op span emission must be ~free (off {span_emit_off:.9}s vs on {span_emit_on:.6}s)"
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"host_cores\": {cores},\n  \
         \"counter_add_mops_per_s\": {{\"enabled\": {:.1}, \"noop\": {:.1}}},\n  \
         \"span_mops_per_s\": {:.2},\n  \
         \"hist_record_ns\": {{\"enabled\": {hist_ns:.1}, \"noop\": {:.1}}},\n  \
         \"span_emit_pair_ns\": {{\"enabled\": {span_pair_ns:.1}, \"noop\": {:.1}}},\n  \
         \"duty_sim_fig11_slot\": {{\"off_s\": {sim_off:.6}, \"on_s\": {sim_on:.6}, \
         \"overhead\": {:.3}}}\n}}\n",
        BUMPS as f64 / add_on / 1e6,
        BUMPS as f64 / add_off / 1e6,
        (BUMPS / 64) as f64 / span / 1e6,
        hist_off / BUMPS as f64 * 1e9,
        span_emit_off / (BUMPS / 256) as f64 * 1e9,
        sim_on / sim_off,
    );
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_telemetry.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_telemetry);

fn main() {
    benches();
    emit_json();
}
