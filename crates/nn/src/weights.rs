//! Deterministic synthetic "trained-like" weight model.
//!
//! Real pre-trained ImageNet weights are unavailable offline, so this
//! module substitutes a statistical model for them.
//! Each layer's weights are i.i.d. draws from a *two-sided exponential
//! with asymmetric tails*:
//!
//! * the median sits at a small layer-dependent location near zero, so
//!   the sign distribution is close to balanced — this reproduces the
//!   paper's Fig. 6 observation that **symmetric** int8 quantization of
//!   trained weights yields ≈0.5 probability at every bit position;
//! * the positive and negative tail scales differ by a per-layer
//!   asymmetry ratio (trained layers are rarely range-symmetric), which
//!   is exactly what makes **asymmetric** quantization place its
//!   zero-point away from mid-scale and produce the biased bit
//!   distributions of Fig. 6;
//! * the base scale is `b = sqrt(1 / fan_in)`, giving He-magnitude
//!   weights, with tails clamped at 8 scale units.
//!
//! Crucially the model is **counter-based**: weight `i` of layer `l` is a
//! pure function of `(network_seed, l, i)`. The quantization analysis
//! (sequential scan) and the accelerator dataflow (strided block order)
//! therefore observe *identical* values without ever materialising a
//! 138M-element tensor.
//!
//! Weight `i` is [`LayerWeightGen::weight_at`] of a 53-bit uniform
//! ([`LayerWeightGen::uniform_bits`]), and that map is monotone
//! non-decreasing. Two consumers use the order instead of evaluating
//! `ln` per weight: [`LayerWeightGen::range`] keeps only the extreme
//! uniforms, and the accelerator's weight plans turn each layer's int8
//! quantizer into a code table — the ≤ 255 uniforms where the stored
//! code steps up, found once by bisection — so encoding a synthetic
//! word is SplitMix plus a table lookup.

use crate::zoo::NetworkSpec;

/// Counter-based generator for the weights of one layer.
///
/// # Example
///
/// ```
/// use dnnlife_nn::weights::LayerWeightGen;
/// use dnnlife_nn::NetworkSpec;
///
/// let spec = NetworkSpec::custom_mnist();
/// let gen = LayerWeightGen::new(&spec, 0, 42);
/// assert_eq!(gen.len(), 400);
/// // Random access is pure: the same index always gives the same weight.
/// assert_eq!(gen.weight(17), gen.weight(17));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerWeightGen {
    layer_seed: u64,
    count: u64,
    location: f64,
    scale_pos: f64,
    scale_neg: f64,
}

/// Maximum tail length in scale units (trained weight tails are bounded).
const TAIL_CLAMP: f64 = 8.0;

impl LayerWeightGen {
    /// Creates the generator for layer `layer` of `spec` under
    /// `network_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn new(spec: &NetworkSpec, layer: usize, network_seed: u64) -> Self {
        assert!(
            layer < spec.layers().len(),
            "LayerWeightGen: layer {layer} out of range for {}",
            spec.name()
        );
        let ls = &spec.layers()[layer];
        let layer_seed =
            splitmix(splitmix(network_seed ^ 0xD1B5_4A32_D192_ED03).wrapping_add(layer as u64));
        let base_scale = (1.0 / ls.fan_in() as f64).sqrt();
        // Location skew: up to ±5% of the base scale — keeps the sign
        // distribution near balanced while avoiding perfect symmetry.
        let u_loc = unit(splitmix(layer_seed ^ 0xA076_1D64_78BD_642F));
        let location = (u_loc - 0.5) * 0.1 * base_scale;
        // Tail asymmetry ratio in [0.65, 1.55]: positive tail scale is
        // `base·r`, negative is `base/r`, preserving the geometric mean.
        let u_asym = unit(splitmix(layer_seed ^ 0xE703_7ED1_A0B4_28DB));
        let ratio = 0.65 + u_asym * 0.9;
        Self {
            layer_seed,
            count: ls.weight_count(),
            location,
            scale_pos: base_scale * ratio,
            scale_neg: base_scale / ratio,
        }
    }

    /// Number of weights in the layer.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the layer has no weights (never true for valid specs).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Median of the weight distribution.
    pub fn location(&self) -> f32 {
        self.location as f32
    }

    /// Positive-tail exponential scale.
    pub fn scale_pos(&self) -> f32 {
        self.scale_pos as f32
    }

    /// Negative-tail exponential scale.
    pub fn scale_neg(&self) -> f32 {
        self.scale_neg as f32
    }

    /// Geometric-mean tail scale (`sqrt(1 / fan_in)` by construction).
    pub fn scale(&self) -> f32 {
        (self.scale_pos * self.scale_neg).sqrt() as f32
    }

    /// Distribution mean: `location + (scale_pos − scale_neg) / 2`.
    pub fn mean(&self) -> f32 {
        (self.location + 0.5 * (self.scale_pos - self.scale_neg)) as f32
    }

    /// Distribution variance:
    /// `E[X²] − E[X]²` with `E[(X−loc)²] = b₊² + b₋²` for the two-sided
    /// exponential (ignoring the rare tail clamp).
    pub fn variance(&self) -> f32 {
        let m = 0.5 * (self.scale_pos - self.scale_neg);
        (self.scale_pos.powi(2) + self.scale_neg.powi(2) - m * m) as f32
    }

    /// The value of weight `index` (canonical `[out][in][ky][kx]` /
    /// `[out][in]` order).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `index < self.len()`.
    #[inline]
    pub fn weight(&self, index: u64) -> f32 {
        debug_assert!(index < self.count, "weight index out of range");
        self.weight_at(self.uniform_bits(index))
    }

    /// The 53-bit counter-based uniform behind weight `index`:
    /// SplitMix64 of `(layer_seed, index)`, top 53 bits, so always
    /// below 2⁵³. `weight(index) == weight_at(uniform_bits(index))`.
    #[inline]
    pub fn uniform_bits(&self, index: u64) -> u64 {
        splitmix(self.layer_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11
    }

    /// The weight drawn from the 53-bit uniform `k` (`k < 2⁵³`).
    ///
    /// Guaranteed monotone non-decreasing in `k` over the whole
    /// `[0, 2⁵³)`, across the `u = 0.5` branch switch included: `k₁ < k₂`
    /// implies `weight_at(k₁) <= weight_at(k₂)` (the argument is on
    /// [`LayerWeightGen::range`]). Callers may rely on it: `range` keeps
    /// only the extreme uniforms, and the accelerator's weight plans
    /// encode int8 words through a per-layer table of code steps over
    /// `k`.
    #[inline]
    pub fn weight_at(&self, k: u64) -> f32 {
        // Map to (0, 1]: exactly 1 only for the top `k`, whose
        // `k + 0.5` rounds up to 2⁵³ (its weight sits at the tail clamp).
        let u = (k as f64 + 0.5) / (1u64 << 53) as f64;
        // Two-sided exponential with asymmetric tails: each side carries
        // half of the probability mass, so the median is `location`.
        let x = if u < 0.5 {
            // ln(2u) ∈ (−∞, 0]; clamp the tail.
            self.location + self.scale_neg * (2.0 * u).ln().max(-TAIL_CLAMP)
        } else {
            self.location - self.scale_pos * (2.0 * (1.0 - u)).ln().max(-TAIL_CLAMP)
        };
        x as f32
    }

    /// Iterates over all weights in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.count).map(move |i| self.weight(i))
    }

    /// Streaming min/max over the first `limit` weights (or the whole
    /// layer if smaller). The quantization calibration uses this;
    /// sub-sampling very large layers changes the range estimate by well
    /// under the quantization step (the distribution tails are clamped).
    ///
    /// The scan is integer-only: it keeps the smallest and largest
    /// 53-bit uniform `k` among the first `n` indices and evaluates the
    /// weight at just those two. This equals the min/max of the `n`
    /// weights bit for bit, because the weight is a monotone
    /// non-decreasing function of `k`:
    ///
    /// * `k as f64 + 0.5` and the division by 2⁵³ round monotonically
    ///   (ties collapse to equal values, which is harmless).
    /// * Distinct uniforms are ≥ 2⁻⁵³ apart, so the arguments `x` of
    ///   `ln` (`2u` or `2(1 − u)`, both exact, in `[0, 1]`) are
    ///   ≥ 2⁻⁵² apart. Their logarithms then differ by ≥ 2⁻⁵²/x, which
    ///   is more than `e` ulps of `ln x` — far above `ln`'s sub-ulp
    ///   error — so `ln` keeps their order (`ln 0 = −∞` is the least).
    /// * `max(−TAIL_CLAMP)`, the positive scale, the offset and the
    ///   `as f32` narrowing are each monotone under rounding; the
    ///   `u ≥ 0.5` branch negates a non-positive logarithm, so every
    ///   upper-branch weight is ≥ `location` ≥ every lower-branch one.
    ///
    /// Ties in `k` give equal weights, so whichever index attains the
    /// extreme does not matter.
    pub fn range(&self, limit: u64) -> WeightRange {
        let n = self.count.min(limit.max(1));
        if n == 0 {
            return WeightRange {
                min: f32::INFINITY,
                max: f32::NEG_INFINITY,
                sampled: 0,
            };
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for i in 0..n {
            let k = self.uniform_bits(i);
            lo = lo.min(k);
            hi = hi.max(k);
        }
        WeightRange {
            min: self.weight_at(lo),
            max: self.weight_at(hi),
            sampled: n,
        }
    }
}

/// Observed value range of a (possibly sub-sampled) weight stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightRange {
    /// Smallest observed weight.
    pub min: f32,
    /// Largest observed weight.
    pub max: f32,
    /// Number of weights inspected.
    pub sampled: u64,
}

impl WeightRange {
    /// Largest absolute value of the range.
    pub fn abs_max(&self) -> f32 {
        self.min.abs().max(self.max.abs())
    }
}

/// Uniform in `[0, 1)` from 64 random bits.
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64 finaliser.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::NetworkSpec;
    use proptest::prelude::*;

    /// The scalar calibration scan `range` replaced: min/max over the
    /// evaluated weights themselves.
    fn reference_range(gen: &LayerWeightGen, limit: u64) -> WeightRange {
        let n = gen.count.min(limit.max(1));
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..n {
            let w = gen.weight(i);
            lo = lo.min(w);
            hi = hi.max(w);
        }
        WeightRange {
            min: lo,
            max: hi,
            sampled: n,
        }
    }

    const LIMITS: [u64; 6] = [0, 1, 7, 50_000, 1_000_000, u64::MAX];

    /// Checks `range` against the scalar reference, bit for bit, on
    /// every layer of the zoo at every limit in [`LIMITS`]. Scans longer
    /// than `scan_cap` weights are skipped (the reference evaluates a
    /// logarithm per weight).
    fn zoo_ranges_match_reference(seed: u64, scan_cap: u64) -> Result<(), String> {
        for (name, gen) in zoo_layers(seed) {
            for limit in LIMITS {
                if gen.len().min(limit) > scan_cap {
                    continue;
                }
                let (got, want) = (gen.range(limit), reference_range(&gen, limit));
                if got.min.to_bits() != want.min.to_bits()
                    || got.max.to_bits() != want.max.to_bits()
                    || got.sampled != want.sampled
                {
                    return Err(format!(
                        "{name} limit {limit}: {got:?} != reference {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every layer of AlexNet, VGG-16 and custom-MNIST.
    fn zoo_layers(seed: u64) -> Vec<(String, LayerWeightGen)> {
        [
            NetworkSpec::alexnet(),
            NetworkSpec::vgg16(),
            NetworkSpec::custom_mnist(),
        ]
        .iter()
        .flat_map(|spec| {
            (0..spec.layers().len()).map(move |li| {
                (
                    format!("{} layer {li}", spec.name()),
                    LayerWeightGen::new(spec, li, seed),
                )
            })
        })
        .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The integer pre-scan gives the scalar scan's range bit for
        /// bit: AlexNet, VGG-16 and custom-MNIST (whose small layers
        /// are scanned in full, unclamped), every limit up to 1M
        /// weights per scan.
        #[test]
        fn range_is_bit_identical_to_scalar_scan(seed: u64) {
            zoo_ranges_match_reference(seed, 1_000_000)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The premise of the integer pre-scan: the weight never
        /// decreases as its uniform grows, including across the
        /// `u = 0.5` branch and in the rounded top half.
        #[test]
        fn weight_is_monotone_in_its_uniform(
            seed: u64,
            layer in 0usize..16,
            k in 0u64..(1u64 << 53) - 1,
        ) {
            let gen = LayerWeightGen::new(&NetworkSpec::vgg16(), layer, seed);
            prop_assert!(gen.weight_at(k) <= gen.weight_at(k + 1), "k = {k}");
            for edge in [0, (1u64 << 52) - 1, (1u64 << 52), (1u64 << 53) - 2] {
                prop_assert!(gen.weight_at(edge) <= gen.weight_at(edge + 1), "edge {edge}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The guarantee `weight_at` documents, checked directly on every
        /// zoo layer: for `k₁ < k₂` drawn within 2²⁰ of 0, of 2⁵² (the
        /// `u = 0.5` branch switch, straddled) and of 2⁵³,
        /// `weight_at(k₁) <= weight_at(k₂)` — for the drawn gap and for
        /// the adjacent uniform `k₁ + 1`.
        #[test]
        fn weight_at_is_monotone_near_zero_the_branch_and_the_top(
            seed: u64,
            a in 0u64..1 << 20,
            b in 0u64..1 << 20,
        ) {
            let (lo, gap) = (a.min(b), a.abs_diff(b).max(1));
            let top = 1u64 << 53;
            let pairs = [
                (lo, lo + gap),
                ((1 << 52) - (1 << 19) + lo, (1 << 52) - (1 << 19) + lo + gap),
                (top - (1 << 20) - 1 + lo, top - (1 << 20) - 1 + lo + gap),
            ];
            for (name, gen) in zoo_layers(seed) {
                for (k1, k2) in pairs {
                    prop_assert!(k1 < k2 && k2 < top);
                    for k in [k2, k1 + 1] {
                        prop_assert!(
                            gen.weight_at(k1) <= gen.weight_at(k),
                            "{}: weight_at({}) = {} > weight_at({}) = {}",
                            name, k1, gen.weight_at(k1), k, gen.weight_at(k)
                        );
                    }
                }
            }
        }
    }

    /// Full-layer twin of `range_is_bit_identical_to_scalar_scan`: every layer of the zoo
    /// scanned in full (≈ 200M reference weights; release nightly).
    #[test]
    #[ignore]
    fn range_is_bit_identical_to_scalar_scan_on_full_layers() {
        zoo_ranges_match_reference(42, u64::MAX).unwrap();
    }

    #[test]
    fn deterministic_random_access() {
        let spec = NetworkSpec::alexnet();
        let a = LayerWeightGen::new(&spec, 3, 99);
        let b = LayerWeightGen::new(&spec, 3, 99);
        for i in [0u64, 1, 1000, 663_551] {
            assert_eq!(a.weight(i), b.weight(i));
        }
    }

    #[test]
    fn different_layers_and_seeds_differ() {
        let spec = NetworkSpec::alexnet();
        let l0 = LayerWeightGen::new(&spec, 0, 1);
        let l1 = LayerWeightGen::new(&spec, 1, 1);
        let s2 = LayerWeightGen::new(&spec, 0, 2);
        assert_ne!(l0.weight(5), l1.weight(5));
        assert_ne!(l0.weight(5), s2.weight(5));
    }

    #[test]
    fn distribution_moments_match_model() {
        let spec = NetworkSpec::custom_mnist();
        // fc1: fan_in 800 → geometric-mean scale = sqrt(1/800) ≈ 0.03536.
        let gen = LayerWeightGen::new(&spec, 2, 42);
        assert!((gen.scale() - (1.0f32 / 800.0).sqrt()).abs() < 1e-6);
        let n = gen.len();
        let mean: f64 = gen.iter().map(f64::from).sum::<f64>() / n as f64;
        let var: f64 = gen
            .iter()
            .map(|w| (f64::from(w) - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - f64::from(gen.mean())).abs() < 5e-4,
            "mean {mean} vs model {}",
            gen.mean()
        );
        assert!(
            (var / f64::from(gen.variance()) - 1.0).abs() < 0.05,
            "var {var} vs model {}",
            gen.variance()
        );
    }

    #[test]
    fn median_is_near_location() {
        let spec = NetworkSpec::custom_mnist();
        for layer in 0..4 {
            let gen = LayerWeightGen::new(&spec, layer, 3);
            let below = gen.iter().filter(|&w| w < gen.location()).count();
            let frac = below as f64 / gen.len() as f64;
            assert!(
                (frac - 0.5).abs() < 0.02,
                "layer {layer}: median fraction {frac}"
            );
        }
    }

    #[test]
    fn tails_are_asymmetric() {
        // At least some layers must have a clearly asymmetric range; this
        // is what differentiates asymmetric from symmetric quantization.
        let spec = NetworkSpec::vgg16();
        let mut max_ratio = 0.0f32;
        for layer in 0..spec.layers().len() {
            let gen = LayerWeightGen::new(&spec, layer, 42);
            let ratio = gen.scale_pos() / gen.scale_neg();
            max_ratio = max_ratio.max(ratio.max(1.0 / ratio));
        }
        assert!(max_ratio > 1.5, "tail asymmetry too weak: {max_ratio}");
    }

    #[test]
    fn location_skew_is_bounded() {
        for seed in 0..20u64 {
            let spec = NetworkSpec::vgg16();
            for li in 0..spec.layers().len() {
                let gen = LayerWeightGen::new(&spec, li, seed);
                assert!(
                    gen.location().abs() <= 0.05 * gen.scale() + 1e-9,
                    "seed {seed} layer {li}: skew too large"
                );
            }
        }
    }

    #[test]
    fn range_is_consistent_with_clamp() {
        let spec = NetworkSpec::custom_mnist();
        let gen = LayerWeightGen::new(&spec, 1, 7);
        let range = gen.range(u64::MAX);
        assert_eq!(range.sampled, 20_000);
        let bound =
            (TAIL_CLAMP as f32) * gen.scale_pos().max(gen.scale_neg()) + gen.location().abs();
        assert!(range.abs_max() <= bound);
        assert!(range.min < 0.0 && range.max > 0.0);
    }

    #[test]
    fn sampled_range_close_to_full_range() {
        let spec = NetworkSpec::custom_mnist();
        let gen = LayerWeightGen::new(&spec, 2, 11);
        let full = gen.range(u64::MAX);
        let sampled = gen.range(50_000);
        // The sampled range is within ~15% of the full range for a
        // 200k-weight layer.
        assert!(sampled.abs_max() > 0.85 * full.abs_max());
    }
}
