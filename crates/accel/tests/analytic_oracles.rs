//! The analytic simulator's deterministic closed forms against the
//! per-bit loops they replaced, kept here as oracles: a second,
//! independent implementation of the same duties. Both produce an
//! integer ones count divided by the same write count, so the duties
//! must agree bit for bit.

use dnnlife_accel::{
    simulate_analytic, AnalyticPolicy, AnalyticSimConfig, BlockSource, MemoryGeometry,
};

/// A memory of hand-set block words: `blocks[k][word]`, written in
/// block order every inference.
struct Blocks {
    width: u32,
    blocks: Vec<Vec<u64>>,
}

impl BlockSource for Blocks {
    fn geometry(&self) -> MemoryGeometry {
        MemoryGeometry {
            word_bits: self.width,
            words: self.blocks[0].len(),
        }
    }

    fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn word(&self, block: u64, word: usize) -> u64 {
        self.blocks[block as usize][word]
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        inference * self.block_count() + block
    }

    fn label(&self) -> String {
        format!("{} blocks × {} bits", self.blocks.len(), self.width)
    }
}

fn analytic(source: &Blocks, policy: &AnalyticPolicy, inferences: u64) -> Vec<f64> {
    let cfg = AnalyticSimConfig {
        inferences,
        sample_stride: 1,
        threads: 1,
        shards: 1,
    };
    simulate_analytic(source, policy, &cfg)
}

/// Runs an oracle on every word's `K` block bits, the way the analytic
/// simulator fetched them before its column-count rewrite.
fn oracle(source: &Blocks, policy: &AnalyticPolicy, inferences: u64) -> Vec<f64> {
    let width = source.width as usize;
    let k_blocks = source.block_count();
    let t_writes = inferences * k_blocks;
    let mut duties = vec![0.0; source.geometry().words * width];
    for (word, out) in duties.chunks_mut(width).enumerate() {
        let block_bits: Vec<u64> = (0..k_blocks).map(|k| source.word(k, word)).collect();
        match policy {
            AnalyticPolicy::Passthrough => passthrough_duties(&block_bits, k_blocks, out),
            AnalyticPolicy::PeriodicInversion => inversion_duties(&block_bits, t_writes, out),
            AnalyticPolicy::BarrelShifter => barrel_duties(&block_bits, width, t_writes, out),
            AnalyticPolicy::DnnLife { .. } => unreachable!("randomised policy has no oracle"),
        }
    }
    duties
}

/// Duty with no mitigation: the mean of the cell's block bits.
fn passthrough_duties(block_bits: &[u64], k_blocks: u64, out: &mut [f64]) {
    for (j, slot) in out.iter_mut().enumerate() {
        let ones: u64 = block_bits.iter().map(|b| b >> j & 1).sum();
        *slot = ones as f64 / k_blocks as f64;
    }
}

/// Exact duty under alternating per-location inversion.
fn inversion_duties(block_bits: &[u64], t_writes: u64, out: &mut [f64]) {
    let k = block_bits.len() as u64;
    let cycle = 2 * k; // write pattern repeats every 2K writes
    let full_cycles = t_writes / cycle;
    let rem = t_writes % cycle;
    for (j, slot) in out.iter_mut().enumerate() {
        // Ones per full 2K cycle.
        let mut cycle_ones = 0u64;
        for t in 0..cycle {
            let bit = block_bits[(t % k) as usize] >> j & 1;
            cycle_ones += bit ^ (t & 1);
        }
        let mut ones = full_cycles * cycle_ones;
        for t in 0..rem {
            let bit = block_bits[(t % k) as usize] >> j & 1;
            ones += bit ^ (t & 1);
        }
        *slot = ones as f64 / t_writes as f64;
    }
}

/// Exact duty under the per-location rotation schedule.
fn barrel_duties(block_bits: &[u64], width: usize, t_writes: u64, out: &mut [f64]) {
    let k = block_bits.len() as u64;
    let w = width as u64;
    let g = gcd(k, w);
    let cycle = k / g * w; // lcm(K, W)
    let full_cycles = t_writes / cycle;
    let rem = t_writes % cycle;

    // Per-residue bit sums: u[k][c] = Σ_{p ≡ c (mod g)} bit_k[p].
    // Over one lcm cycle each (k, s ≡ k mod g) pair occurs once, and
    // stored bit j of rot_left(word_k, s) is word_k[(j − s) mod W], so
    // the cycle sum at position j is Σ_k u[k][(j − k) mod g].
    let mut ones = vec![0u64; width];
    if full_cycles > 0 {
        let mut u = vec![0u64; g as usize];
        for (ki, bits) in block_bits.iter().enumerate() {
            u.iter_mut().for_each(|v| *v = 0);
            for p in 0..w {
                u[(p % g) as usize] += bits >> p & 1;
            }
            for (j, slot) in ones.iter_mut().enumerate() {
                let c = (j as u64 + w - (ki as u64 % w)) % w % g;
                *slot += full_cycles * u[c as usize];
            }
        }
    }
    // Remainder writes replayed directly.
    for t in 0..rem {
        let bits = block_bits[(t % k) as usize];
        let s = t % w;
        for (j, slot) in ones.iter_mut().enumerate() {
            let p = (j as u64 + w - s) % w;
            *slot += bits >> p & 1;
        }
    }
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = ones[j] as f64 / t_writes as f64;
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One word's block bits as a single-word memory.
fn one_word(width: u32, bits: &[u64]) -> Blocks {
    Blocks {
        width,
        blocks: bits.iter().map(|&b| vec![b]).collect(),
    }
}

/// Four words per block: all ones, the top bit alone, an alternating
/// pattern shifted by the block index, and a mixed pattern of the
/// block index — each confined to the low `width` bits.
fn hand_set(width: u32, k_blocks: u64) -> Blocks {
    let mask = u64::MAX >> (64 - width);
    let blocks = (0..k_blocks)
        .map(|k| {
            let mixed = (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ k << 7;
            vec![
                mask,
                1 << (width - 1),
                (0x5555_5555_5555_5555u64 << (k % 2)) >> (k % 5) & mask,
                mixed & mask,
            ]
        })
        .collect();
    Blocks { width, blocks }
}

#[test]
fn closed_forms_match_the_oracles_bit_for_bit() {
    let mut uneven_periods = 0;
    for width in [8u64, 13, 32, 39, 64] {
        for k_blocks in [1, 2, width - 1, width, width + 1, 2 * width + 3] {
            let source = hand_set(width as u32, k_blocks);
            for inferences in [1u64, 2, 5, 17, 100] {
                let lcm = k_blocks / gcd(k_blocks, width) * width;
                if inferences * k_blocks % lcm != 0 {
                    uneven_periods += 1;
                }
                for policy in [
                    AnalyticPolicy::Passthrough,
                    AnalyticPolicy::PeriodicInversion,
                    AnalyticPolicy::BarrelShifter,
                ] {
                    let got = analytic(&source, &policy, inferences);
                    let want = oracle(&source, &policy, inferences);
                    assert_eq!(got.len(), want.len());
                    for (cell, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{} K={k_blocks} W={width} inferences={inferences} cell {cell}: {g} vs {w}",
                            policy.name()
                        );
                    }
                }
            }
        }
    }
    // Most runs end partway through a barrel-shifter period, so the
    // oracle's remainder replay is exercised.
    assert!(uneven_periods > 100, "{uneven_periods}");
}

#[test]
fn gcd_basics() {
    assert_eq!(gcd(12, 8), 4);
    assert_eq!(gcd(7, 8), 1);
    assert_eq!(gcd(8, 8), 8);
    assert_eq!(gcd(5, 0), 5);
}

#[test]
fn inversion_balances_odd_k() {
    // K = 3 identical all-ones blocks, T = 6 writes: parities cancel.
    let source = one_word(8, &[0xFF; 3]);
    for d in analytic(&source, &AnalyticPolicy::PeriodicInversion, 2) {
        assert!((d - 0.5).abs() < 1e-12);
    }
}

#[test]
fn inversion_stuck_for_even_k() {
    // K = 2: write parity is locked to block parity, so blocks
    // [0xFF, 0x00] store 0xFF (t even, no invert) and 0xFF (t odd,
    // invert 0x00) → duty 1.0.
    let source = one_word(8, &[0xFF, 0x00]);
    for d in analytic(&source, &AnalyticPolicy::PeriodicInversion, 50) {
        assert!((d - 1.0).abs() < 1e-12, "duty {d}");
    }
}

#[test]
fn barrel_spreads_bits_across_positions() {
    // Single block 0b00000001, W = 8: each position holds the 1 for
    // exactly 1/8 of the writes.
    let source = one_word(8, &[0b1]);
    for d in analytic(&source, &AnalyticPolicy::BarrelShifter, 800) {
        assert!((d - 0.125).abs() < 1e-12, "duty {d}");
    }
}

#[test]
fn barrel_cannot_fix_global_imbalance() {
    // 0b01111111 stays at 7/8 everywhere after rotation.
    let source = one_word(8, &[0b0111_1111]);
    for d in analytic(&source, &AnalyticPolicy::BarrelShifter, 800) {
        assert!((d - 0.875).abs() < 1e-12, "duty {d}");
    }
}

#[test]
fn barrel_remainder_exactness() {
    // T = 51 is not a multiple of lcm(K, W) = 24: compare against
    // brute force.
    let bits = [0b1010_0110u64, 0b0000_1111, 0b1110_0001];
    let (k, w, inferences) = (3u64, 8u64, 17u64);
    let t = inferences * k;
    let out = analytic(
        &one_word(8, &bits),
        &AnalyticPolicy::BarrelShifter,
        inferences,
    );
    for j in 0..8u64 {
        let mut ones = 0u64;
        for tt in 0..t {
            let s = tt % w;
            let p = (j + w - s) % w;
            ones += bits[(tt % k) as usize] >> p & 1;
        }
        let expect = ones as f64 / t as f64;
        assert!(
            (out[j as usize] - expect).abs() < 1e-12,
            "bit {j}: {} vs {expect}",
            out[j as usize]
        );
    }
}
