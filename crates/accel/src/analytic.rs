//! Closed-form lifetime simulator.
//!
//! The same `K` blocks cycle through the weight memory every inference
//! (§III-B), so a cell's lifetime bit sequence is highly structured and
//! per-policy duty cycles have closed forms:
//!
//! * **no mitigation** — duty is the mean of the cell's `K` block bits;
//! * **periodic inversion** — write `t = p·K + k` is inverted when `t`
//!   is odd. With even `K` every inference stores the same `K` words;
//!   with odd `K`, odd inferences store their complement. Either way
//!   the duty is a fixed combination of one column count;
//! * **barrel shifter** — write `p·K + k` stores block `k` rotated by
//!   `(p·K + k) mod W`, which is block `k` pre-rotated by `k mod W` and
//!   then rotated by `p·K mod W`. So one column count of the
//!   pre-rotated blocks, summed at each inference's rotation, gives
//!   the duty — still exact;
//! * **DNN-Life** — conditioning on the deterministic bias-balancing
//!   MSB schedule, the number of inverted writes among a cell's `T`
//!   writes is a sum of independent Bernoulli draws, i.e. *two binomial
//!   variables* (one for writes where the stored bit would be the data
//!   bit, one for the complement). Sampling those two binomials per
//!   cell reproduces the exact per-cell duty distribution without
//!   simulating a single TRBG draw.
//!
//! One caveat is shared with every analytic treatment: cells in the
//! same word share TRBG draws, so *across* cells duties are weakly
//! correlated; sampling per cell preserves every marginal (and hence
//! the expected histogram) but not that correlation. The cross-
//! validation tests against the event-driven simulator bound the
//! effect.
//!
//! The deterministic policies need one carry-save column count per
//! word (`O(words × K)` word operations) plus a per-cell read-out;
//! DNN-Life's schedule sum is `O(cells × K)`. Work is embarrassingly
//! parallel across words (block sources are random-access).
//! `sample_stride` simulates every n-th word — an unbiased subsample
//! of the cell population for histogram purposes.

use crate::plan::BlockSource;
use crate::rng::SplitMix64;
use dnnlife_numerics::sample_binomial;
use dnnlife_telemetry::{Counter, SpanId, Telemetry};

/// Mitigation policy, in the closed-form parameterisation used by this
/// simulator (mirrors `dnnlife_mitigation::transducer`).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyticPolicy {
    /// No mitigation.
    Passthrough,
    /// Invert every other write to the same location.
    PeriodicInversion,
    /// Rotate each write by a per-location schedule (one more position
    /// per write).
    BarrelShifter,
    /// The paper's randomised inversion.
    DnnLife {
        /// TRBG probability of emitting 1.
        bias: f64,
        /// `Some(m)` enables the M-bit bias-balancing register.
        bias_balancing: Option<u32>,
        /// Seed for the per-cell binomial draws.
        seed: u64,
    },
}

impl AnalyticPolicy {
    /// Short name matching `WriteTransducer::name`.
    pub fn name(&self) -> &'static str {
        match self {
            AnalyticPolicy::Passthrough => "none",
            AnalyticPolicy::PeriodicInversion => "inversion",
            AnalyticPolicy::BarrelShifter => "barrel-shifter",
            AnalyticPolicy::DnnLife { .. } => "dnn-life",
        }
    }
}

/// Simulation parameters.
///
/// The field set is fixed: the benchmark's per-layer replay builds this
/// struct with an exhaustive literal, so cancellation and telemetry
/// travel as [`simulate_analytic_telemetry`] arguments instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyticSimConfig {
    /// Number of inferences over the device lifetime (the paper uses
    /// 100 to estimate duty cycles).
    pub inferences: u64,
    /// Simulate every `sample_stride`-th word (1 = all cells).
    pub sample_stride: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Contiguous word shards the sampled population is split into —
    /// the same work-partitioning axis the exact backend's
    /// `ExactShardConfig::shards` uses, so both backends share one
    /// execution story (`RunOptions { shards }` resolves this for
    /// both). 0 derives one shard per worker thread. **Never
    /// semantic**: the analytic per-cell draws are counter-seeded, so
    /// every shard count produces identical bytes (unlike the exact
    /// backend, where the shard count deals DNN-Life TRBG streams).
    pub shards: usize,
}

impl Default for AnalyticSimConfig {
    fn default() -> Self {
        Self {
            inferences: 100,
            sample_stride: 1,
            threads: 0,
            shards: 0,
        }
    }
}

// The campaign executor calls `simulate_analytic` from scenario worker
// threads while the simulator itself shards cells across inner threads,
// so its inputs must stay `Send + Sync` (`BlockSource` already has the
// `Sync` supertrait). Enforced at compile time so a stray `Rc`/`RefCell`
// in a future policy variant fails here, not in a consumer crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnalyticPolicy>();
    assert_send_sync::<AnalyticSimConfig>();
    assert_send_sync::<crate::plan::FlatWeightMemory>();
    assert_send_sync::<crate::plan::FifoSlotMemory>();
};

/// Runs the analytic simulation, returning per-cell duty cycles for the
/// sampled words (cell order: sampled-word-major, bit 0 first).
///
/// # Panics
///
/// Panics if `sample_stride == 0` or `inferences == 0`.
///
/// This 3-argument form stays next to [`simulate_analytic_telemetry`]
/// because the benchmark's per-layer replay compiles against it.
///
/// # Example
///
/// ```
/// use dnnlife_accel::{simulate_analytic, AcceleratorConfig, AnalyticPolicy,
///                     AnalyticSimConfig, FlatWeightMemory};
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::NumberFormat;
///
/// let mem = FlatWeightMemory::new(
///     &AcceleratorConfig::baseline(),
///     &NetworkSpec::custom_mnist(),
///     NumberFormat::Int8Symmetric,
///     42,
/// );
/// let cfg = AnalyticSimConfig { inferences: 100, sample_stride: 64, threads: 1, shards: 1 };
/// let duties = simulate_analytic(&mem, &AnalyticPolicy::PeriodicInversion, &cfg);
/// assert!(!duties.is_empty());
/// assert!(duties.iter().all(|d| (0.0..=1.0).contains(d)));
/// ```
pub fn simulate_analytic(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
) -> Vec<f64> {
    simulate_analytic_telemetry(source, policy, cfg, None, SpanId::NONE)
}

/// [`simulate_analytic`] with an observability handle: shard and cell
/// counts are rolled into `telemetry`, and each word shard journals an
/// `analytic_shard` trace span under `parent` ([`AnalyticSimConfig`]
/// stays a plain `Eq` value type, so the borrowed handle and span
/// parent ride alongside it instead of inside). Never semantic —
/// duties are byte-identical with or without it.
///
/// # Panics
///
/// Panics if `sample_stride == 0` or `inferences == 0`.
pub fn simulate_analytic_telemetry(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
    telemetry: Option<&Telemetry>,
    parent: SpanId,
) -> Vec<f64> {
    assert!(
        cfg.sample_stride > 0,
        "simulate_analytic: stride must be > 0"
    );
    assert!(
        cfg.inferences > 0,
        "simulate_analytic: inferences must be > 0"
    );
    let geo = source.geometry();
    let width = geo.word_bits as usize;
    let k_blocks = source.block_count();
    for block in 0..k_blocks {
        assert!(
            (source.dwell(block) - 1.0).abs() < 1e-12,
            "simulate_analytic: closed forms assume equal residency \
             (paper assumption (b)); use simulate_exact for weighted dwell"
        );
    }
    let telemetry = telemetry.unwrap_or_else(|| Telemetry::noop());
    let sampled: Vec<usize> = (0..geo.words).step_by(cfg.sample_stride).collect();
    if k_blocks == 0 {
        // An unused memory unit holds its reset state (all zeros).
        telemetry.add(
            Counter::AnalyticCellsSimulated,
            (sampled.len() * width) as u64,
        );
        return vec![0.0; sampled.len() * width];
    }

    // Deterministic per-block counts of MSB-high inferences for the
    // DNN-Life bias-balancing schedule (empty for other policies).
    let m1: Vec<u64> = match policy {
        AnalyticPolicy::DnnLife {
            bias_balancing: Some(m_bits),
            ..
        } => (0..k_blocks)
            .map(|k| {
                (0..cfg.inferences)
                    .filter(|&i| source.global_block_index(i, k) >> (m_bits - 1) & 1 == 1)
                    .count() as u64
            })
            .collect(),
        _ => Vec::new(),
    };

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.threads
    }
    .max(1);
    // Same partitioning story as the exact backend: contiguous balanced
    // word shards, executed by up to `threads` workers. Per-cell duties
    // are counter-seeded, so the partition is never semantic here.
    let shards = if cfg.shards == 0 { threads } else { cfg.shards }.clamp(1, sampled.len().max(1));
    let ranges = crate::exact::shard_ranges(sampled.len(), shards);
    let workers = threads.min(shards);

    /// One shard's work: its sampled-word range and the disjoint
    /// output slice it writes.
    type ShardJob<'a> = (std::ops::Range<usize>, &'a mut [f64]);

    let mut duties = vec![0.0f64; sampled.len() * width];
    {
        let m1 = &m1;
        let sampled = &sampled;
        // Hand each shard its disjoint output slice up front; workers
        // then pull (range, slice) pairs until the queue drains.
        let mut queue: Vec<ShardJob> = Vec::with_capacity(ranges.len());
        let mut rest: &mut [f64] = duties.as_mut_slice();
        for range in ranges {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * width);
            rest = tail;
            queue.push((range, head));
        }
        if workers == 1 {
            for (range, out) in queue {
                let span = telemetry.span_start("analytic_shard", parent);
                simulate_words(source, policy, cfg, k_blocks, m1, &sampled[range], out);
                telemetry.span_end(span);
            }
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let jobs: Vec<std::sync::Mutex<Option<ShardJob>>> = queue
                .drain(..)
                .map(|job| std::sync::Mutex::new(Some(job)))
                .collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let (next, jobs) = (&next, &jobs);
                    scope.spawn(move || loop {
                        let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(job) = jobs.get(slot) else {
                            break;
                        };
                        let (range, out) = job
                            .lock()
                            .expect("job mutex never poisoned")
                            .take()
                            .expect("each job claimed once");
                        let span = telemetry.span_start("analytic_shard", parent);
                        simulate_words(source, policy, cfg, k_blocks, m1, &sampled[range], out);
                        telemetry.span_end(span);
                    });
                }
            });
        }
    }
    telemetry.add(Counter::AnalyticShardsRun, shards as u64);
    telemetry.add(Counter::AnalyticCellsSimulated, duties.len() as u64);
    duties
}

/// Simulates one contiguous range of sampled words.
///
/// Write `t = p·K + k` stores block `k` in inference `p`, and the run
/// is exactly `inferences × K` writes, so each deterministic policy is
/// integer arithmetic on one [`column_counts`] per word; the ones count
/// is divided by the write count (or by `K`) like any exact duty.
fn simulate_words(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
    k_blocks: u64,
    m1: &[u64],
    words: &[usize],
    out: &mut [f64],
) {
    let width = source.geometry().word_bits as usize;
    let mask = low_mask(width);
    let inferences = cfg.inferences;
    let t_writes = inferences * k_blocks;
    let rotations = match policy {
        AnalyticPolicy::BarrelShifter => rotation_counts(inferences, k_blocks, width),
        _ => Vec::new(),
    };
    let mut block_bits: Vec<u64> = vec![0; k_blocks as usize];
    let mut counts = [0u64; 64];
    let counts = &mut counts[..width];

    for (wi, &word) in words.iter().enumerate() {
        let cell_base = word as u64 * width as u64;
        let out = &mut out[wi * width..(wi + 1) * width];
        for (k, bits) in block_bits.iter_mut().enumerate() {
            *bits = source.word(k as u64, word);
        }
        match policy {
            AnalyticPolicy::Passthrough => {
                column_counts(&block_bits, counts);
                for (slot, &c) in out.iter_mut().zip(counts.iter()) {
                    *slot = c as f64 / k_blocks as f64;
                }
            }
            AnalyticPolicy::PeriodicInversion => {
                // Odd writes are inverted. `a` counts the ones of the K
                // writes of an even inference; with odd K every odd
                // inference flips all K parities and stores `K − a`.
                for bits in block_bits.iter_mut().skip(1).step_by(2) {
                    *bits ^= mask;
                }
                column_counts(&block_bits, counts);
                let (even, odd) = (inferences - inferences / 2, inferences / 2);
                for (slot, &a) in out.iter_mut().zip(counts.iter()) {
                    let ones = if k_blocks.is_multiple_of(2) {
                        inferences * a
                    } else {
                        even * a + odd * (k_blocks - a)
                    };
                    *slot = ones as f64 / t_writes as f64;
                }
            }
            AnalyticPolicy::BarrelShifter => {
                // Write p·K + k stores rotl(B_k, (p·K + k) mod W) =
                // rotl(rotl(B_k, k mod W), p·K mod W): count the
                // pre-rotated blocks once, then sum each inference's
                // rotation r of those counts, m[r] times.
                for (k, bits) in block_bits.iter_mut().enumerate() {
                    *bits = rotl(*bits & mask, k % width, width);
                }
                column_counts(&block_bits, counts);
                for (j, slot) in out.iter_mut().enumerate() {
                    let ones: u64 = rotations
                        .iter()
                        .map(|&(r, m)| m * counts[if j >= r { j - r } else { j + width - r }])
                        .sum();
                    *slot = ones as f64 / t_writes as f64;
                }
            }
            AnalyticPolicy::DnnLife {
                bias,
                bias_balancing,
                seed,
            } => {
                dnn_life_duties(
                    &block_bits,
                    inferences,
                    *bias,
                    bias_balancing.is_some().then_some(m1),
                    *seed,
                    cell_base,
                    out,
                );
            }
        }
    }
}

/// Per-bit-position ones counts of `words`: `counts[j]` is the number
/// of words with bit `j` set, for `j < counts.len()` (at most 64).
///
/// A carry-save bit-sliced counter: plane `i` holds bit `i` of all 64
/// column counts at once. Every four words fold into planes 0 and 1
/// through three full adders (Harley–Seal), and only their weight-4
/// carry ripples up the higher planes. The ripple always runs the
/// `⌈log₂(len + 1)⌉` planes the total can reach, so no step branches
/// on the data.
fn column_counts(words: &[u64], counts: &mut [u64]) {
    /// `a + b + c = sum + 2·carry` in each of the 64 columns.
    fn full_add(a: u64, b: u64, c: u64) -> (u64, u64) {
        let half = a ^ b;
        (half ^ c, a & b | half & c)
    }
    fn ripple(planes: &mut [u64], mut carry: u64) {
        for plane in planes {
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
    }
    let depth = (u64::BITS - (words.len() as u64).leading_zeros()) as usize;
    let mut planes = [0u64; 64];
    let mut quads = words.chunks_exact(4);
    for quad in &mut quads {
        let (ones, twos_a) = full_add(planes[0], quad[0], quad[1]);
        let (ones, twos_b) = full_add(ones, quad[2], quad[3]);
        let (twos, fours) = full_add(planes[1], twos_a, twos_b);
        planes[0] = ones;
        planes[1] = twos;
        ripple(&mut planes[2..depth], fours);
    }
    for &word in quads.remainder() {
        ripple(&mut planes[..depth], word);
    }
    for (j, count) in counts.iter_mut().enumerate() {
        *count = planes[..depth]
            .iter()
            .enumerate()
            .map(|(i, plane)| (plane >> j & 1) << i)
            .sum();
    }
}

/// The `(r, m[r])` pairs with `m[r] > 0`, where `m[r]` counts the
/// inferences `p < inferences` whose first write `p·K` sits at rotation
/// `r = p·K mod W`. Inferences `p` and `p + W` share a rotation, so
/// only the first `min(inferences, W)` are visited.
fn rotation_counts(inferences: u64, k_blocks: u64, width: usize) -> Vec<(usize, u64)> {
    let w = width as u64;
    let mut m = vec![0u64; width];
    for p in 0..inferences.min(w) {
        m[(p * (k_blocks % w) % w) as usize] += (inferences - 1 - p) / w + 1;
    }
    m.into_iter().enumerate().filter(|&(_, n)| n > 0).collect()
}

/// The low `width` bits set (`1 ≤ width ≤ 64`; no `1 << 64`).
fn low_mask(width: usize) -> u64 {
    u64::MAX >> (64 - width)
}

/// `x < 2^width` rotated left by `s < width` within a `width`-bit word.
fn rotl(x: u64, s: usize, width: usize) -> u64 {
    if s == 0 {
        x
    } else {
        (x << s | x >> (width - s)) & low_mask(width)
    }
}

/// Duty under DNN-Life randomised inversion: deterministic schedule
/// counts plus two binomial draws per cell.
fn dnn_life_duties(
    block_bits: &[u64],
    inferences: u64,
    bias: f64,
    m1: Option<&[u64]>,
    seed: u64,
    cell_base: u64,
    out: &mut [f64],
) {
    let t_writes = inferences * block_bits.len() as u64;
    for (j, slot) in out.iter_mut().enumerate() {
        // n_plus: writes whose stored bit equals the raw TRBG draw
        // (data 0 & MSB 0, or data 1 & MSB 1); n_minus: the complement.
        let mut n_plus = 0u64;
        for (ki, bits) in block_bits.iter().enumerate() {
            let b = bits >> j & 1;
            let m1k = m1.map_or(0, |m| m[ki]);
            n_plus += if b == 1 { m1k } else { inferences - m1k };
        }
        let n_minus = t_writes - n_plus;
        let mut rng = SplitMix64::for_stream(seed, cell_base + j as u64);
        let x_plus = sample_binomial(&mut rng, n_plus, bias);
        let x_minus = sample_binomial(&mut rng, n_minus, bias);
        *slot = (n_minus + x_plus - x_minus) as f64 / t_writes as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dnn_life_unbiased_concentrates_at_half() {
        // All-ones data, fair TRBG, many writes: duty ≈ 0.5 with
        // variance 1/(4T).
        let bits = vec![0xFFu64; 10];
        let mut out = vec![0.0; 8];
        dnn_life_duties(&bits, 400, 0.5, None, 9, 0, &mut out);
        for d in out {
            assert!((d - 0.5).abs() < 0.05, "duty {d}");
        }
    }

    #[test]
    fn dnn_life_biased_without_balancing_shifts_duty() {
        // Stored = data XOR e with e ~ Bern(0.7): all-ones data → duty
        // ≈ 0.3; all-zeros data → duty ≈ 0.7.
        let ones = vec![0xFFu64; 10];
        let zeros = vec![0x00u64; 10];
        let mut d_ones = vec![0.0; 8];
        let mut d_zeros = vec![0.0; 8];
        dnn_life_duties(&ones, 400, 0.7, None, 9, 0, &mut d_ones);
        dnn_life_duties(&zeros, 400, 0.7, None, 9, 64, &mut d_zeros);
        for d in d_ones {
            assert!((d - 0.3).abs() < 0.05, "ones-data duty {d}");
        }
        for d in d_zeros {
            assert!((d - 0.7).abs() < 0.05, "zeros-data duty {d}");
        }
    }

    #[test]
    fn dnn_life_biased_with_balancing_recovers_half() {
        // The MSB schedule flips half of the writes: a 0.7-biased TRBG
        // still yields ~0.5 duty. Build an m1 schedule with exactly half
        // the inferences MSB-high for every block.
        let bits = vec![0xFFu64; 10];
        let m1 = vec![200u64; 10]; // of 400 inferences
        let mut out = vec![0.0; 8];
        dnn_life_duties(&bits, 400, 0.7, Some(&m1), 9, 0, &mut out);
        for d in out {
            assert!((d - 0.5).abs() < 0.05, "duty {d}");
        }
    }

    #[test]
    fn shard_and_thread_counts_never_change_analytic_bytes() {
        use crate::config::AcceleratorConfig;
        use crate::plan::FlatWeightMemory;
        let mut hw = AcceleratorConfig::baseline();
        hw.weight_memory_bytes = 2048;
        let mem = FlatWeightMemory::new(
            &hw,
            &dnnlife_nn::NetworkSpec::custom_mnist(),
            dnnlife_quant::NumberFormat::Int8Symmetric,
            3,
        );
        let run = |threads: usize, shards: usize, policy: &AnalyticPolicy| {
            simulate_analytic(
                &mem,
                policy,
                &AnalyticSimConfig {
                    inferences: 6,
                    sample_stride: 5,
                    threads,
                    shards,
                },
            )
        };
        for policy in [
            AnalyticPolicy::BarrelShifter,
            AnalyticPolicy::DnnLife {
                bias: 0.7,
                bias_balancing: Some(4),
                seed: 11,
            },
        ] {
            let base = run(1, 1, &policy);
            for (threads, shards) in [(1, 7), (4, 1), (4, 16), (2, 0), (4, 1000)] {
                assert_eq!(
                    run(threads, shards, &policy),
                    base,
                    "{threads} thread(s) × {shards} shard(s) diverged for {policy:?}"
                );
            }
        }
    }

    #[test]
    fn per_cell_rng_is_deterministic() {
        let bits = vec![0x5Au64; 4];
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        dnn_life_duties(&bits, 100, 0.5, None, 77, 1234, &mut a);
        dnn_life_duties(&bits, 100, 0.5, None, 77, 1234, &mut b);
        assert_eq!(a, b);
    }
}
