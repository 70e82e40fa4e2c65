//! Dataflow plans: how weight blocks map onto the on-chip memory.
//!
//! Both platforms follow the Fig. 5 discipline — filters are grouped
//! into sets of `f`, each set is split into chunks that fit on chip,
//! and blocks stream through the memory in (layer, set, chunk) order —
//! so both memories are one [`WeightPlan`]: one layer table (shape,
//! weight source, calibrated quantizer), one ECC step, one set of
//! dwell weights. They differ only in the address layout, i.e. where
//! a stream word lands:
//!
//! * [`FlatWeightMemory`] — the baseline accelerator's single weight
//!   buffer: every block rewrites the whole memory.
//! * [`FifoSlotMemory`] — one slot of the TPU-like NPU's four-tile-deep
//!   circular weight FIFO: tiles are written round-robin, so slot `s`
//!   sees tiles `s, s+4, s+8, …` of the global stream.
//!
//! Partial blocks/tiles are **zero-padded**: hardware must load inert
//! values into unused MAC lanes, and zero is the inert value for
//! multiply-accumulate. This is what makes small networks age the NPU
//! FIFO badly in Fig. 11 (most cells hold padding, i.e. constant bits).
//!
//! Sources are *random access* (`word(block, w)` is a pure O(1)
//! function), which the analytic simulator exploits for parallelism and
//! sampling.

use std::sync::Arc;

use dnnlife_mitigation::RemapSchedule;
use dnnlife_nn::weights::{LayerWeightGen, WeightRange};
use dnnlife_nn::zoo::NetworkSpec;
use dnnlife_quant::{EccLayout, NumberFormat, Quantizer, RepairPolicy};

mod layout;

use layout::{FifoSlot, Flat, Layout, PlanLayer};

/// Where one layer's weight values come from: the synthetic
/// counter-based generator (the default — pure `O(1)` random access),
/// or an explicit per-layer table (trained weights supplied by the
/// fault-injection pipeline, so the simulated memory holds exactly the
/// values the executable network computes with).
#[derive(Debug, Clone)]
enum WeightSource {
    /// Synthetic trained-like model (`dnnlife_nn::weights`).
    Gen(LayerWeightGen),
    /// Explicit weight table in canonical `[out][in]` order, shared by
    /// the four FIFO slots of one NPU plan.
    Table(Arc<Vec<f32>>),
}

impl WeightSource {
    fn weight(&self, index: u64) -> f32 {
        match self {
            WeightSource::Gen(gen) => gen.weight(index),
            WeightSource::Table(table) => table[usize::try_from(index).expect("index fits usize")],
        }
    }

    /// Observed range over the first `limit` weights (quantizer
    /// calibration — mirrors [`LayerWeightGen::range`]).
    fn range(&self, limit: u64) -> WeightRange {
        match self {
            WeightSource::Gen(gen) => gen.range(limit),
            WeightSource::Table(table) => {
                let n = (table.len() as u64).min(limit.max(1));
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &w in &table[..n as usize] {
                    lo = lo.min(w);
                    hi = hi.max(w);
                }
                WeightRange {
                    min: lo,
                    max: hi,
                    sampled: n,
                }
            }
        }
    }
}

/// Per-layer synthetic weight sources for `spec` under `seed`.
fn generated_sources(spec: &NetworkSpec, seed: u64) -> Vec<WeightSource> {
    (0..spec.layers().len())
        .map(|li| WeightSource::Gen(LayerWeightGen::new(spec, li, seed)))
        .collect()
}

/// Per-layer sources over explicit tables, validated against `spec`.
fn table_sources(spec: &NetworkSpec, tables: &[Vec<f32>]) -> Vec<WeightSource> {
    assert_eq!(
        tables.len(),
        spec.layers().len(),
        "weight tables: {} tables for {} layers",
        tables.len(),
        spec.layers().len()
    );
    spec.layers()
        .iter()
        .zip(tables)
        .map(|(layer, table)| {
            assert_eq!(
                table.len() as u64,
                layer.weight_count(),
                "weight table for layer {} holds {} weights, spec says {}",
                layer.name(),
                table.len(),
                layer.weight_count()
            );
            WeightSource::Table(Arc::new(table.clone()))
        })
        .collect()
}

/// Sample cap for quantizer range calibration (see
/// [`dnnlife_quant::distribution::DEFAULT_SAMPLE_CAP`]).
const RANGE_CAP: u64 = 1_000_000;

/// The layer table of `spec`: shapes plus one quantizer per layer,
/// calibrated on the first [`RANGE_CAP`] weights of its source, and the
/// code table of every generated int8 layer.
fn layer_table(
    spec: &NetworkSpec,
    format: NumberFormat,
    sources: Vec<WeightSource>,
) -> Vec<PlanLayer> {
    spec.layers()
        .iter()
        .zip(sources)
        .map(|(layer, source)| {
            let quantizer = Quantizer::calibrate(format, &source.range(RANGE_CAP));
            let codes = match &source {
                WeightSource::Gen(gen) => CodeTable::new(*gen, quantizer).map(Arc::new),
                WeightSource::Table(_) => None,
            };
            PlanLayer {
                filters: layer.filter_count(),
                weights_per_filter: layer.weights_per_filter(),
                source,
                quantizer,
                codes,
            }
        })
        .collect()
}

/// The top bits of a 53-bit uniform that index [`CodeTable`]'s buckets.
const BUCKET_BITS: u32 = 12;
/// The shift from a 53-bit uniform to its bucket.
const BUCKET_SHIFT: u32 = 53 - BUCKET_BITS;
/// The largest 53-bit uniform.
const TOP_UNIFORM: u64 = (1 << 53) - 1;

/// One generated layer's int8 stored codes as a step function of the
/// weight's 53-bit uniform.
///
/// [`LayerWeightGen::weight_at`] is monotone non-decreasing in its
/// uniform, and int8 encoding (scale, round, clamp) is monotone in the
/// weight, so the code's *rank* — the code read as `i8` under a
/// symmetric quantizer, as `u8` under an asymmetric one — never falls
/// as the uniform grows: it takes at most 256 values, each on one run
/// of uniforms. The table holds each reached rank's first uniform
/// (found by bisection, ≤ 53 weight evaluations per rank) and its
/// stored code, so [`CodeTable::code`] is SplitMix plus a lookup,
/// bit-identical to `quantizer.encode(gen.weight(index))`.
#[derive(Debug)]
struct CodeTable {
    gen: LayerWeightGen,
    /// The first uniform of each reached rank, ascending from 0, then a
    /// `u64::MAX` sentinel that no uniform reaches.
    starts: Vec<u64>,
    /// The stored code of each reached rank.
    codes: Vec<u8>,
    /// For each of the `2^BUCKET_BITS` equal runs of uniforms: the
    /// index into `starts` of the rank at the run's first uniform.
    buckets: Box<[u8; 1 << BUCKET_BITS]>,
}

impl CodeTable {
    /// The table of `gen` under `quantizer`, or `None` for fp32 (whose
    /// codes are the weight's own bits, not a step function).
    fn new(gen: LayerWeightGen, quantizer: Quantizer) -> Option<Self> {
        let signed = match quantizer {
            Quantizer::Fp32 => return None,
            Quantizer::Int8Symmetric { .. } => true,
            Quantizer::Int8Asymmetric { .. } => false,
        };
        let code = |k: u64| quantizer.encode(gen.weight_at(k)) as u8;
        let rank = |c: u8| {
            if signed {
                i32::from(c as i8)
            } else {
                i32::from(c)
            }
        };
        let top_rank = rank(code(TOP_UNIFORM));
        let (mut starts, mut codes) = (vec![0], vec![code(0)]);
        let mut current = rank(codes[0]);
        while current < top_rank {
            // The smallest uniform whose rank exceeds the current one;
            // it exists, since the top uniform's does. Ranks it jumps
            // over are reached by no uniform and get no entry.
            let (mut lo, mut hi) = (starts[starts.len() - 1] + 1, TOP_UNIFORM);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if rank(code(mid)) > current {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let c = code(lo);
            starts.push(lo);
            codes.push(c);
            current = rank(c);
        }
        let mut buckets = Box::new([0u8; 1 << BUCKET_BITS]);
        for (bucket, entry) in buckets.iter_mut().enumerate() {
            let first = (bucket as u64) << BUCKET_SHIFT;
            let index = starts.partition_point(|&start| start <= first) - 1;
            *entry = u8::try_from(index).expect("an int8 code has at most 256 ranks");
        }
        starts.push(u64::MAX);
        Some(Self {
            gen,
            starts,
            codes,
            buckets,
        })
    }

    /// The stored code of the weight drawn from the 53-bit uniform `k`:
    /// the bucket's rank, refined up the table.
    #[inline]
    fn code_at(&self, k: u64) -> u32 {
        let mut i = usize::from(self.buckets[(k >> BUCKET_SHIFT) as usize]);
        while self.starts[i + 1] <= k {
            i += 1;
        }
        u32::from(self.codes[i])
    }

    /// The stored code of weight `index`.
    #[inline]
    fn code(&self, index: u64) -> u32 {
        self.code_at(self.gen.uniform_bits(index))
    }
}

impl PlanLayer {
    /// The stored (pre-ECC) code of weight `index`: through the code
    /// table when the layer has one, else by encoding the weight.
    #[inline]
    fn data_word(&self, index: u64) -> u64 {
        u64::from(match &self.codes {
            Some(codes) => codes.code(index),
            None => self.quantizer.encode(self.source.weight(index)),
        })
    }
}

/// Physical location of one canonical weight inside a memory unit:
/// which block writes it and at which word address it lands (every
/// repetition of the block rewrites the same address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightAddress {
    /// Block (memory fill / FIFO tile) carrying the weight.
    pub block: u64,
    /// Word address inside the memory unit.
    pub word: usize,
}

/// Shape of one simulated memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryGeometry {
    /// Width of one weight word in bits (8 or 32).
    pub word_bits: u32,
    /// Number of weight words in the memory unit.
    pub words: usize,
}

impl MemoryGeometry {
    /// Total SRAM cells in this unit.
    pub fn cells(&self) -> u64 {
        self.words as u64 * u64::from(self.word_bits)
    }
}

/// A random-access stream of weight blocks targeting one memory unit.
pub trait BlockSource: Sync {
    /// Memory unit shape.
    fn geometry(&self) -> MemoryGeometry;

    /// Number of distinct blocks written per inference (the paper's `K`
    /// for this memory unit).
    fn block_count(&self) -> u64;

    /// The stored word written to address `word` by block `block`
    /// (zero-padded outside the occupied region).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `block >= block_count()` or `word >=
    /// geometry().words`.
    fn word(&self, block: u64, word: usize) -> u64;

    /// Global block-write index of `(inference, block)` — what the
    /// DNN-Life controller's M-bit register counts.
    fn global_block_index(&self, inference: u64, block: u64) -> u64;

    /// Relative residency time of `block` (mean 1.0). The paper's
    /// assumption (b) is equal residency; sources may override this to
    /// model compute-weighted residency (§III-C notes that per-layer
    /// processing times vary). Only the event-driven simulator honours
    /// non-uniform dwell.
    fn dwell(&self, _block: u64) -> f64 {
        1.0
    }

    /// Human-readable label for reports.
    fn label(&self) -> String;
}

/// The address layout of a [`WeightPlan`] — [`FlatWeightMemory`]'s
/// single buffer or [`FifoSlotMemory`]'s FIFO slot. Sealed: the
/// mapping methods are private to this module.
pub trait PlanLayout: Layout {}

impl<L: Layout> PlanLayout for L {}

/// One memory unit's weight plan under the Fig. 5 dataflow: the layer
/// table, the optional SECDED layout and dwell weights, and the address
/// layout `L` that places the stream in the unit. Built as a
/// [`FlatWeightMemory`] or the slots of a [`FifoSlotMemory`].
#[derive(Debug, Clone)]
pub struct WeightPlan<L: PlanLayout> {
    layout: L,
    layers: Vec<PlanLayer>,
    geometry: MemoryGeometry,
    /// Optional SECDED layout: stored words carry parity columns.
    ecc: Option<EccLayout>,
    /// Optional per-block relative residency (mean 1.0).
    dwell_weights: Option<Vec<f64>>,
    label: String,
}

/// The baseline accelerator's weight buffer under the Fig. 5 dataflow.
///
/// Filters are grouped into sets of `f`; each set's weights stream out
/// interleaved (one word per filter lane, matching the `f × N`-wide
/// memory rows of Fig. 4); consecutive sets and layers pack
/// back-to-back; and the stream is chopped into memory-sized fills.
/// Each fill is one *block* in the paper's sense — `K = ceil(DNN size /
/// memory size)`, exactly the quantity Eq. 1 reasons about (117 for
/// 8-bit AlexNet on the 512 KB baseline, 466 for fp32).
///
/// # Example
///
/// ```
/// use dnnlife_accel::{AcceleratorConfig, BlockSource, FlatWeightMemory};
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::NumberFormat;
///
/// let mem = FlatWeightMemory::new(
///     &AcceleratorConfig::baseline(),
///     &NetworkSpec::alexnet(),
///     NumberFormat::Int8Symmetric,
///     42,
/// );
/// assert_eq!(mem.block_count(), 117);
/// ```
pub type FlatWeightMemory = WeightPlan<Flat>;

/// One slot of the TPU-like NPU's circular weight FIFO.
///
/// The FIFO is four tiles deep; the global tile stream (layer by layer,
/// filter-set by filter-set, then row-chunks — the Fig. 5 order with
/// `f = 256`) is written round-robin, so slot `s` holds tiles
/// `s, s + 4, s + 8, …`. Each slot is simulated as its own 256 × 256 ×
/// 8-bit memory unit; Fig. 11 histograms merge the four slots.
///
/// # Example
///
/// ```
/// use dnnlife_accel::{BlockSource, FifoSlotMemory};
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::NumberFormat;
///
/// let slots = FifoSlotMemory::all_slots(
///     &NetworkSpec::custom_mnist(),
///     NumberFormat::Int8Symmetric,
///     42,
/// );
/// assert_eq!(slots.len(), 4);
/// let total: u64 = slots.iter().map(|s| s.block_count()).sum();
/// // The custom network spans 8 tiles: conv1 1, conv2 2, fc1 4, fc2 1.
/// assert_eq!(total, 8);
/// ```
pub type FifoSlotMemory = WeightPlan<FifoSlot>;

impl FlatWeightMemory {
    /// Plans the dataflow of `spec` on `config` with weights stored in
    /// `format`.
    ///
    /// # Panics
    ///
    /// Panics if the memory cannot hold at least one weight.
    pub fn new(
        config: &crate::config::AcceleratorConfig,
        spec: &NetworkSpec,
        format: NumberFormat,
        seed: u64,
    ) -> Self {
        Self::flat(config, spec, format, generated_sources(spec, seed))
    }

    /// Plans the same dataflow with weights read from explicit
    /// per-layer tables (canonical `[out][in]` order) instead of the
    /// synthetic generator — the path the fault-injection pipeline uses
    /// so that the aged memory holds exactly the trained weights the
    /// executable network computes with. Quantizers are calibrated from
    /// the table ranges, matching what [`FlatWeightMemory::new`] does
    /// for generated weights.
    ///
    /// # Panics
    ///
    /// Panics if the table count or any table length disagrees with
    /// `spec`, or if the memory cannot hold at least one weight.
    pub fn with_weight_tables(
        config: &crate::config::AcceleratorConfig,
        spec: &NetworkSpec,
        format: NumberFormat,
        tables: &[Vec<f32>],
    ) -> Self {
        Self::flat(config, spec, format, table_sources(spec, tables))
    }

    fn flat(
        config: &crate::config::AcceleratorConfig,
        spec: &NetworkSpec,
        format: NumberFormat,
        sources: Vec<WeightSource>,
    ) -> Self {
        let word_bits = format.bits() as u32;
        let words = config.weight_capacity(word_bits);
        assert!(words > 0, "FlatWeightMemory: memory holds no weights");
        let layers = layer_table(spec, format, sources);
        Self {
            layout: Flat::new(&layers, config.parallel_filters, words),
            layers,
            geometry: MemoryGeometry {
                word_bits,
                words: words as usize,
            },
            ecc: None,
            dwell_weights: None,
            label: format!("{}/{}/{}", config.name, spec.name(), format),
        }
    }

    /// Length of the dataflow-ordered weight stream (including padded
    /// lanes of ragged final filter sets).
    pub fn stream_len(&self) -> u64 {
        self.layout.stream_len()
    }
}

impl FifoSlotMemory {
    /// FIFO depth in tiles (Table I: "four tiles deep").
    pub const DEPTH: u64 = 4;
    /// Tile side in weights (256 × 256 PE array).
    pub const TILE_SIDE: u64 = 256;

    /// All four slots of the FIFO. The layer table (quantizer
    /// calibration included) is slot-independent, so it is computed
    /// once and shared — building all four slots costs one calibration
    /// sweep, not four.
    ///
    /// # Panics
    ///
    /// Panics if `format` is not 8-bit (the NPU datapath is 8-bit per
    /// Table I).
    pub fn all_slots(spec: &NetworkSpec, format: NumberFormat, seed: u64) -> Vec<Self> {
        Self::slots(spec, format, generated_sources(spec, seed))
    }

    /// All four slots with explicit per-layer weight tables — see
    /// [`FlatWeightMemory::with_weight_tables`]. The slots share the
    /// table allocations.
    ///
    /// # Panics
    ///
    /// Panics if `format` is not 8-bit or the tables disagree with
    /// `spec`.
    pub fn all_slots_with_weight_tables(
        spec: &NetworkSpec,
        format: NumberFormat,
        tables: &[Vec<f32>],
    ) -> Vec<Self> {
        Self::slots(spec, format, table_sources(spec, tables))
    }

    fn slots(spec: &NetworkSpec, format: NumberFormat, sources: Vec<WeightSource>) -> Vec<Self> {
        assert_eq!(
            format.bits(),
            8,
            "FifoSlotMemory: the NPU weight FIFO stores 8-bit weights"
        );
        let layers = layer_table(spec, format, sources);
        FifoSlot::all(&layers)
            .into_iter()
            .enumerate()
            .map(|(slot, layout)| Self {
                layout,
                layers: layers.clone(),
                geometry: MemoryGeometry {
                    word_bits: 8,
                    words: layout::TILE_WORDS as usize,
                },
                ecc: None,
                dwell_weights: None,
                label: format!("tpu-like-npu/{}/{format}/slot{slot}", spec.name()),
            })
            .collect()
    }

    /// Total tiles streamed per inference (across all slots).
    pub fn total_tiles(&self) -> u64 {
        self.layout.total_tiles()
    }
}

impl<L: PlanLayout> WeightPlan<L> {
    /// Wraps the stored words in `policy`'s error-correcting code: the
    /// memory grows the parity columns ([`RepairPolicy::parity_bits`]
    /// extra bits per word, reflected in [`BlockSource::geometry`]),
    /// and every stored word becomes the interleaved codeword of its
    /// data word — so the duty and lifetime models age the parity
    /// cells alongside the data cells (parity is rewritten on every
    /// weight write). The NPU's 8-bit datapath grows to 13-bit SECDED
    /// codewords. A no-repair policy returns the plan unchanged.
    ///
    /// # Panics
    ///
    /// Panics if ECC was already applied, or the policy is invalid for
    /// this word width (see [`RepairPolicy::is_valid_for`]).
    pub fn with_repair(mut self, policy: &RepairPolicy) -> Self {
        let Some(layout) = policy.layout(self.geometry.word_bits) else {
            return self;
        };
        assert!(self.ecc.is_none(), "{}: ECC applied twice", self.label);
        self.geometry.word_bits = layout.width();
        self.ecc = Some(layout);
        self
    }

    /// The calibrated quantizer of layer `layer` — what
    /// [`BlockSource::word`] encodes that layer's weights with, exposed
    /// so fault injection decodes corrupted codes with the exact same
    /// scale/zero-point the memory image was built from.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_quantizer(&self, layer: usize) -> Quantizer {
        self.layers[layer].quantizer
    }

    /// The physical address of canonical weight `index` of layer
    /// `layer` (the inverse of the [`BlockSource::word`] dataflow
    /// mapping): the block that writes it and the word it lands on, or
    /// `None` when another unit holds it. Always `Some` on the flat
    /// memory; exactly one of the four FIFO slots returns `Some` for
    /// every weight.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `index` is out of range.
    pub fn locate_weight(&self, layer: usize, index: u64) -> Option<WeightAddress> {
        let plan = &self.layers[layer];
        assert!(
            index < plan.filters * plan.weights_per_filter,
            "locate_weight: index {index} out of range for layer {layer}"
        );
        self.layout.locate(&self.layers, layer, index)
    }

    /// Per-block residency weights proportional to MAC work — the
    /// compute-weighted alternative to the paper's equal-residency
    /// assumption (b): each stream word dwells for its layer's MACs per
    /// stream word (conv weights are reused across output positions and
    /// stay resident far longer than FC weights), and a block sums its
    /// words. Feed the result to [`WeightPlan::with_dwell_weights`].
    ///
    /// # Panics
    ///
    /// Panics if `spec` has a different layer structure than the plan.
    pub fn layer_proportional_weights(&self, spec: &NetworkSpec) -> Vec<f64> {
        assert_eq!(
            spec.layers().len(),
            self.layers.len(),
            "layer_proportional_weights: spec mismatch"
        );
        let per_word: Vec<f64> = spec
            .layers()
            .iter()
            .enumerate()
            .map(|(li, ls)| ls.macs() as f64 / self.layout.layer_span(li) as f64)
            .collect();
        self.per_layer_dwell_weights(&per_word)
    }

    /// Per-block residency weights from arbitrary per-layer factors:
    /// `factors[li]` is the relative time the memory dwells on one word
    /// of layer `li`, and a block's weight sums the factors of the
    /// stream words it holds (a FIFO tile is wholly owned by one layer,
    /// so its weight is `TILE_SIDE²` times that layer's factor). This
    /// is how custom dwell models are constructed from a
    /// [`NetworkSpec`]'s layer structure.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len()` differs from the plan's layer count.
    pub fn per_layer_dwell_weights(&self, factors: &[f64]) -> Vec<f64> {
        assert_eq!(
            factors.len(),
            self.layers.len(),
            "per_layer_dwell_weights: {} factors for {} layers",
            factors.len(),
            self.layers.len()
        );
        (0..self.layout.block_count())
            .map(|block| {
                let mut work = 0.0f64;
                for (li, factor) in factors.iter().enumerate() {
                    let words = self.layout.layer_words(block, li);
                    if words > 0 {
                        work += words as f64 * factor;
                    }
                }
                work
            })
            .collect()
    }

    /// Zipf-style hot-block residency by **global** stream order: block
    /// `b` dwells for a time proportional to
    /// `(global_block_index(0, b) + 1)^-exponent` — block order on the
    /// flat memory, tile `slot + b·4` on a FIFO slot (slot-local indices
    /// would give every slot's first tile full weight regardless of
    /// where it sits in the stream). `exponent = 0` is uniform; larger
    /// exponents concentrate residency on the first blocks of the stream
    /// (the paper's early conv layers).
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is negative or non-finite.
    pub fn zipf_dwell_weights(&self, exponent: f64) -> Vec<f64> {
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "zipf_dwell_weights: bad exponent {exponent}"
        );
        (0..self.layout.block_count())
            .map(|b| ((self.layout.global_block_index(0, b) + 1) as f64).powf(-exponent))
            .collect()
    }

    /// Installs explicit per-block residency weights (one per block,
    /// any positive scale — duties depend only on ratios). Weights are
    /// normalised to mean 1.0, with a small positive floor for
    /// zero-work padding blocks (the memory still holds them for the
    /// transfer). Honoured by [`crate::simulate_exact`]; the analytic
    /// simulator rejects non-uniform dwell.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.block_count()`, or any weight
    /// is negative or non-finite, or all weights are zero.
    pub fn with_dwell_weights(mut self, weights: Vec<f64>) -> Self {
        self.dwell_weights = Some(normalize_dwell(weights, self.layout.block_count()));
        self
    }
}

/// Normalises raw residency weights to mean 1.0 with a `1e-3` floor.
fn normalize_dwell(mut weights: Vec<f64>, blocks: u64) -> Vec<f64> {
    assert_eq!(
        weights.len() as u64,
        blocks,
        "dwell weights: {} values for {blocks} blocks",
        weights.len()
    );
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "dwell weights must be finite and non-negative"
    );
    let mean = weights.iter().sum::<f64>() / weights.len() as f64;
    assert!(mean > 0.0, "dwell weights must not all be zero");
    for w in &mut weights {
        *w = (*w / mean).max(1e-3);
    }
    weights
}

impl<L: PlanLayout> BlockSource for WeightPlan<L> {
    fn geometry(&self) -> MemoryGeometry {
        self.geometry
    }

    fn block_count(&self) -> u64 {
        self.layout.block_count()
    }

    fn word(&self, block: u64, word: usize) -> u64 {
        assert!(block < self.layout.block_count(), "block out of range");
        assert!(word < self.geometry.words, "word out of range");
        let Some((li, index)) = self.layout.weight_at(&self.layers, block, word as u64) else {
            return 0; // padding (the codeword of 0 is 0)
        };
        let data = self.layers[li].data_word(index);
        match &self.ecc {
            Some(layout) => layout.store(data),
            None => data,
        }
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        self.layout.global_block_index(inference, block)
    }

    fn dwell(&self, block: u64) -> f64 {
        self.dwell_weights
            .as_ref()
            .map_or(1.0, |w| w[block as usize])
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Wear-leveling view of a block source: the physical memory under a
/// periodic hot-row rotation ([`RemapSchedule`]).
///
/// The device lifetime is split into `E` epochs; within each epoch the
/// inner plan's `K` blocks stream as usual, but the logical→physical
/// row mapping is rotated per epoch. Both simulators age *physical*
/// cells, so the rotation is presented as a cyclic `E·K`-block source:
/// block `k′` is epoch `k′ / K` streaming inner block `k′ mod K`, and
/// `word(k′, p)` answers "what does physical word `p` hold then" —
/// `inner.word(k′ mod K, logical(p, epoch))`. Time-averaged physical
/// duty is then exactly the epoch-average of the unremapped duties,
/// with zero changes to either simulator.
///
/// Per-block dwell is inherited from the inner block (`dwell(k′) =
/// inner.dwell(k′ mod K)`), so uniform-dwell plans stay analytic-legal.
#[derive(Debug, Clone)]
pub struct RemappedMemory<S: BlockSource> {
    inner: S,
    schedule: RemapSchedule,
}

impl<S: BlockSource> RemappedMemory<S> {
    /// Wraps `inner` in an `epochs`-epoch rotation over rows of
    /// `row_words` words.
    ///
    /// # Panics
    ///
    /// Panics if the inner word count is not a whole number of
    /// `row_words`-word rows, or `epochs == 0`.
    pub fn new(inner: S, row_words: usize, epochs: u32) -> Self {
        let schedule = RemapSchedule::new(inner.geometry().words, row_words, epochs);
        Self { inner, schedule }
    }

    /// The rotation schedule in effect.
    pub fn schedule(&self) -> &RemapSchedule {
        &self.schedule
    }

    /// The unrotated plan.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: BlockSource> BlockSource for RemappedMemory<S> {
    fn geometry(&self) -> MemoryGeometry {
        self.inner.geometry()
    }

    fn block_count(&self) -> u64 {
        u64::from(self.schedule.epochs()) * self.inner.block_count()
    }

    fn word(&self, block: u64, word: usize) -> u64 {
        let k = self.inner.block_count();
        assert!(block < self.block_count(), "block out of range");
        let epoch = (block / k) as u32;
        let logical = self.schedule.logical_word(word as u64, epoch);
        self.inner.word(block % k, logical as usize)
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        inference * self.block_count() + block
    }

    fn dwell(&self, block: u64) -> f64 {
        self.inner.dwell(block % self.inner.block_count())
    }

    fn label(&self) -> String {
        format!(
            "{}+wear-level:{}",
            self.inner.label(),
            self.schedule.epochs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;

    #[test]
    fn alexnet_block_count_matches_paper_scale() {
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Int8Symmetric,
            1,
        );
        // All AlexNet layers have filter counts divisible by f = 8, so
        // the stream is exactly the 60,954,656 weights; 512 KB fills:
        // ceil(60954656 / 524288) = 117 — the paper's "K = DNN size /
        // memory size".
        assert_eq!(mem.stream_len(), 60_954_656);
        assert_eq!(mem.block_count(), 117);
    }

    #[test]
    fn fp32_quarters_capacity_and_scales_blocks() {
        let int8 = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Int8Symmetric,
            1,
        );
        let fp32 = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Fp32,
            1,
        );
        assert_eq!(fp32.geometry().words, int8.geometry().words / 4);
        // 131072 fp32 words per fill: ceil(60954656 / 131072) = 466.
        assert_eq!(fp32.block_count(), 466);
        // Fp32 codes are the weights' own bits: no code table.
        assert!(fp32.layers.iter().all(|layer| layer.codes.is_none()));
    }

    #[test]
    fn words_are_deterministic_and_in_range() {
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Asymmetric,
            7,
        );
        for block in 0..mem.block_count().min(4) {
            for word in [0usize, 1, 8, 100, mem.geometry().words - 1] {
                let a = mem.word(block, word);
                let b = mem.word(block, word);
                assert_eq!(a, b);
                assert!(a < 256, "8-bit word out of range: {a}");
            }
        }
    }

    #[test]
    fn interleaving_maps_consecutive_words_to_filters() {
        // For f=8: stream words 0..8 are weight 0 of filters 0..8.
        let spec = NetworkSpec::custom_mnist();
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            7,
        );
        let gen = LayerWeightGen::new(&spec, 0, 7);
        let quantizer = {
            let r = gen.range(u64::MAX);
            Quantizer::calibrate(NumberFormat::Int8Symmetric, &r)
        };
        for filter in 0..8u64 {
            let expect = u64::from(quantizer.encode(gen.weight(filter * 25)));
            assert_eq!(mem.word(0, filter as usize), expect, "filter {filter}");
        }
        // Word 8 is weight 1 of filter 0.
        let expect = u64::from(quantizer.encode(gen.weight(1)));
        assert_eq!(mem.word(0, 8), expect);
    }

    #[test]
    fn final_fill_tail_is_zero_padded() {
        // The custom network stream (231,696 words at 8-bit) does not
        // fill the last 512 KB block; its tail must be zero.
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            7,
        );
        assert_eq!(mem.stream_len(), 231_696);
        assert_eq!(mem.block_count(), 1);
        assert_eq!(mem.word(0, mem.geometry().words - 1), 0);
    }

    #[test]
    fn ragged_set_lanes_are_zero_padded() {
        // conv2 of the custom net has 50 filters: the 7th set uses only
        // 2 of its 8 lanes. Stream position of conv2 set 6, weight 0,
        // lane 2 (filter 50 — out of range) must be zero.
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            7,
        );
        // conv1 stream: 2 sets × 8 × 25 = 400 words; conv2 set 6 starts
        // at 400 + 6×8×400 = 19600; lane 2 is word 19602.
        assert_eq!(mem.word(0, 19_602), 0);
        // Lane 0 of that set (filter 48) is real data.
        assert_ne!(mem.word(0, 19_600), 0);
    }

    #[test]
    fn compute_weighted_dwell_favours_conv_fills() {
        let spec = NetworkSpec::alexnet();
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            1,
        );
        let weights = mem.layer_proportional_weights(&spec);
        let mem = mem.with_dwell_weights(weights);
        // Mean dwell is 1.0 by construction.
        let k = mem.block_count();
        let mean: f64 = (0..k).map(|b| mem.dwell(b)).sum::<f64>() / k as f64;
        assert!((mean - 1.0).abs() < 1e-9);
        // The first fill (conv layers, heavy reuse) dwells far longer
        // than a mid-stream FC fill.
        let conv_dwell = mem.dwell(0);
        let fc_dwell = mem.dwell(k / 2); // deep inside fc6
        assert!(
            conv_dwell > 10.0 * fc_dwell,
            "conv {conv_dwell} vs fc {fc_dwell}"
        );
    }

    #[test]
    fn default_dwell_is_uniform() {
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Int8Symmetric,
            1,
        );
        assert_eq!(mem.dwell(0), 1.0);
        assert_eq!(mem.dwell(mem.block_count() - 1), 1.0);
    }

    #[test]
    fn zipf_weights_decay_and_zero_exponent_is_uniform() {
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 2048;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            3,
        );
        let flat = mem.zipf_dwell_weights(0.0);
        assert_eq!(flat.len() as u64, mem.block_count());
        assert!(flat.iter().all(|w| (w - 1.0).abs() < 1e-12));
        // On the flat memory the global block index is the block index.
        let hot = mem.zipf_dwell_weights(1.0);
        for pair in hot.windows(2) {
            assert!(pair[0] > pair[1], "zipf weights must decay: {hot:?}");
        }
        assert!((hot[0] / hot[4] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_dwell_weights_normalize_to_mean_one() {
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 2048;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            3,
        );
        let k = mem.block_count();
        let weights = mem.zipf_dwell_weights(1.3);
        let mem = mem.with_dwell_weights(weights);
        let mean: f64 = (0..k).map(|b| mem.dwell(b)).sum::<f64>() / k as f64;
        assert!((mean - 1.0).abs() < 1e-9, "mean dwell {mean}");
        assert!(mem.dwell(0) > mem.dwell(k - 1));
    }

    #[test]
    fn per_layer_factors_weight_blocks_by_layer_span() {
        // Two factors: double residency for conv1 words, none extra for
        // the rest. custom_mnist has 4 layers.
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 2048;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            3,
        );
        let raw = mem.per_layer_dwell_weights(&[2.0, 1.0, 1.0, 1.0]);
        assert_eq!(raw.len() as u64, mem.block_count());
        // Block 0 holds conv1 (400 words at factor 2) + conv2 start; it
        // must outweigh a pure-conv2 block.
        assert!(raw[0] > raw[1], "conv1 block {} vs {}", raw[0], raw[1]);
    }

    #[test]
    fn npu_dwell_weights_follow_tile_layers() {
        let spec = NetworkSpec::custom_mnist();
        let slots = FifoSlotMemory::all_slots(&spec, NumberFormat::Int8Symmetric, 1);
        // 8 tiles: conv1 (1), conv2 (2), fc1 (4), fc2 (1). Slot 0 holds
        // tiles 0 (conv1) and 4 (fc1); each sums its 256² words.
        let raw = slots[0].per_layer_dwell_weights(&[8.0, 4.0, 2.0, 1.0]);
        assert_eq!(raw, vec![8.0 * 65_536.0, 2.0 * 65_536.0]);
        // The power-of-two word count cancels bit for bit on
        // normalisation: the dwell equals that of the bare factors.
        let words = slots[0].clone().with_dwell_weights(raw);
        let factors = slots[0].clone().with_dwell_weights(vec![8.0, 2.0]);
        for b in 0..2 {
            assert_eq!(words.dwell(b).to_bits(), factors.dwell(b).to_bits());
        }
        // Layer-proportional: conv1 is reused across 576 output
        // positions, fc1 only once per inference, so the conv tile
        // dwells far longer.
        let prop = slots[0].layer_proportional_weights(&spec);
        assert!(
            prop[0] > 4.0 * prop[1],
            "conv {0} vs fc {1}",
            prop[0],
            prop[1]
        );
        let mem = slots[0].clone().with_dwell_weights(prop);
        let mean = (mem.dwell(0) + mem.dwell(1)) / 2.0;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn npu_zipf_dwell_uses_global_tile_order() {
        let spec = NetworkSpec::custom_mnist();
        let slots = FifoSlotMemory::all_slots(&spec, NumberFormat::Int8Symmetric, 1);
        // Slot 1 holds global tiles 1 and 5; at exponent 1 their
        // weights must be 1/2 and 1/6 — a 3:1 ratio, not the 2:1 that
        // slot-local indices (1, 1/2) would give.
        let w = slots[1].zipf_dwell_weights(1.0);
        assert_eq!(w.len(), 2);
        assert!((w[0] - 0.5).abs() < 1e-12, "global tile 1: {}", w[0]);
        assert!((w[1] - 1.0 / 6.0).abs() < 1e-12, "global tile 5: {}", w[1]);
        // Consistency with the flat-memory convention: slot 0's first
        // tile is global tile 0 and gets the weight a flat memory
        // assigns its first block.
        let w0 = slots[0].zipf_dwell_weights(1.0);
        assert_eq!(w0[0], 1.0);
    }

    #[test]
    fn npu_tile_counts() {
        let slots =
            FifoSlotMemory::all_slots(&NetworkSpec::custom_mnist(), NumberFormat::Int8Symmetric, 1);
        // conv1: 16 filters × 25 wpf → 1×1 = 1 tile; conv2: 50×400 → 1×2 = 2;
        // fc1: 256×800 → 1×4 = 4; fc2: 10×256 → 1×1 = 1. Total 8 tiles.
        assert_eq!(slots[0].total_tiles(), 8);
        // Round-robin: each slot gets exactly 2 of the 8 tiles.
        for s in &slots {
            assert_eq!(s.block_count(), 2);
        }
    }

    #[test]
    fn npu_global_index_is_round_robin() {
        let slots =
            FifoSlotMemory::all_slots(&NetworkSpec::custom_mnist(), NumberFormat::Int8Symmetric, 1);
        let slot2 = &slots[2];
        assert_eq!(slot2.global_block_index(0, 0), 2);
        assert_eq!(slot2.global_block_index(0, 1), 6);
        // Second inference continues the global tile count (8 tiles/inf).
        assert_eq!(slot2.global_block_index(1, 0), 10);
    }

    #[test]
    fn npu_rejects_fp32() {
        let result = std::panic::catch_unwind(|| {
            FifoSlotMemory::all_slots(&NetworkSpec::custom_mnist(), NumberFormat::Fp32, 1)
        });
        assert!(result.is_err());
    }

    fn gen_tables(spec: &NetworkSpec, seed: u64) -> Vec<Vec<f32>> {
        (0..spec.layers().len())
            .map(|li| {
                let gen = LayerWeightGen::new(spec, li, seed);
                gen.iter().collect()
            })
            .collect()
    }

    #[test]
    fn table_backed_flat_plan_reproduces_generated_words() {
        let spec = NetworkSpec::custom_mnist();
        let from_gen = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Asymmetric,
            9,
        );
        let from_tables = FlatWeightMemory::with_weight_tables(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Asymmetric,
            &gen_tables(&spec, 9),
        );
        assert_eq!(from_tables.block_count(), from_gen.block_count());
        for word in [0usize, 1, 399, 19_600, 231_695] {
            assert_eq!(from_tables.word(0, word), from_gen.word(0, word));
        }
        assert_eq!(
            from_tables.layer_quantizer(2),
            from_gen.layer_quantizer(2),
            "table calibration must match the generator's range"
        );
    }

    #[test]
    fn table_backed_plan_sees_edited_weights() {
        let spec = NetworkSpec::custom_mnist();
        let mut tables = gen_tables(&spec, 9);
        tables[0][0] = 100.0; // outlier dominating conv1's calibration range
        let mem = FlatWeightMemory::with_weight_tables(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            &tables,
        );
        let addr = mem
            .locate_weight(0, 0)
            .expect("the flat memory holds every weight");
        let code = mem.word(addr.block, addr.word);
        // The outlier dominates the symmetric range, so it encodes to
        // the top code.
        assert_eq!(code as u8 as i8, 127);
    }

    #[test]
    #[should_panic(expected = "weight table for layer")]
    fn table_shape_mismatch_rejected() {
        let spec = NetworkSpec::custom_mnist();
        let mut tables = gen_tables(&spec, 9);
        tables[1].pop();
        let _ = FlatWeightMemory::with_weight_tables(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            &tables,
        );
    }

    #[test]
    fn locate_weight_inverts_the_flat_dataflow() {
        let spec = NetworkSpec::custom_mnist();
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            7,
        );
        for (li, layer) in spec.layers().iter().enumerate() {
            let gen = LayerWeightGen::new(&spec, li, 7);
            let quantizer = mem.layer_quantizer(li);
            let count = layer.weight_count();
            for index in [0, 1, count / 2, count - 1] {
                let addr = mem
                    .locate_weight(li, index)
                    .expect("the flat memory holds every weight");
                assert_eq!(
                    mem.word(addr.block, addr.word),
                    u64::from(quantizer.encode(gen.weight(index))),
                    "layer {li} weight {index} at {addr:?}"
                );
            }
        }
    }

    #[test]
    fn locate_weight_inverts_the_npu_dataflow() {
        let spec = NetworkSpec::custom_mnist();
        let slots = FifoSlotMemory::all_slots(&spec, NumberFormat::Int8Symmetric, 7);
        for (li, layer) in spec.layers().iter().enumerate() {
            let gen = LayerWeightGen::new(&spec, li, 7);
            let quantizer = slots[0].layer_quantizer(li);
            let count = layer.weight_count();
            for index in [0, 1, count / 2, count - 1] {
                let hits: Vec<(usize, WeightAddress)> = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(s, slot)| slot.locate_weight(li, index).map(|a| (s, a)))
                    .collect();
                assert_eq!(hits.len(), 1, "layer {li} weight {index}: {hits:?}");
                let (s, addr) = hits[0];
                assert_eq!(
                    slots[s].word(addr.block, addr.word),
                    u64::from(quantizer.encode(gen.weight(index))),
                    "layer {li} weight {index} in slot {s} at {addr:?}"
                );
            }
        }
    }

    #[test]
    fn ecc_plan_grows_parity_columns_and_encodes_codewords() {
        use dnnlife_quant::{RepairPolicy, SecdedCode};
        let spec = NetworkSpec::custom_mnist();
        let secded = RepairPolicy::Secded { interleave: 1 };
        let plain = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            7,
        );
        let ecc = plain.clone().with_repair(&secded);
        // Geometry: same word count, 5 extra parity columns per word —
        // total cells are data + parity exactly.
        assert_eq!(ecc.geometry().words, plain.geometry().words);
        assert_eq!(ecc.geometry().word_bits, 13);
        assert_eq!(
            ecc.geometry().cells(),
            plain.geometry().cells() + plain.geometry().words as u64 * 5
        );
        // Every stored word is the codeword of the plain data word.
        let code = SecdedCode::for_data_bits(8);
        for word in [0usize, 1, 399, 19_600, 231_695] {
            assert_eq!(ecc.word(0, word), code.encode(plain.word(0, word)));
            assert_eq!(code.syndrome(ecc.word(0, word)), 0);
        }
        // `RepairPolicy::None` is the identity.
        let same = plain.clone().with_repair(&RepairPolicy::None);
        assert_eq!(same.geometry(), plain.geometry());
        assert_eq!(same.word(0, 42), plain.word(0, 42));

        // NPU slots grow the same columns.
        let slots = FifoSlotMemory::all_slots(&spec, NumberFormat::Int8Symmetric, 7);
        let slot_ecc = slots[0].clone().with_repair(&secded);
        assert_eq!(slot_ecc.geometry().word_bits, 13);
        assert_eq!(slot_ecc.geometry().words, slots[0].geometry().words);
        assert_eq!(slot_ecc.word(0, 5), code.encode(slots[0].word(0, 5)));
        // Interleaved layouts permute columns but keep the bit
        // population (the codeword content is identical).
        let scattered = slots[0]
            .clone()
            .with_repair(&RepairPolicy::Secded { interleave: 5 });
        let mut permuted_somewhere = false;
        for w in 0..100usize {
            assert_eq!(
                scattered.word(0, w).count_ones(),
                slot_ecc.word(0, w).count_ones(),
                "word {w}"
            );
            permuted_somewhere |= scattered.word(0, w) != slot_ecc.word(0, w);
        }
        assert!(permuted_somewhere, "stride-5 layout should move columns");
    }

    #[test]
    fn alexnet_npu_tiles() {
        let slots =
            FifoSlotMemory::all_slots(&NetworkSpec::alexnet(), NumberFormat::Int8Symmetric, 1);
        // 61M weights / 64Ki per tile, with per-layer ragged edges: the
        // count is near but above the dense bound.
        let total = slots[0].total_tiles();
        assert!((930..1100).contains(&total), "tiles = {total}");
    }

    /// Every generated layer of the zoo under `format` at `seed`, as the
    /// plans build them: `(name, generator, quantizer, code table)`.
    fn zoo_code_tables(
        format: NumberFormat,
        seed: u64,
    ) -> Vec<(String, LayerWeightGen, Quantizer, Arc<CodeTable>)> {
        let zoo = [
            NetworkSpec::alexnet(),
            NetworkSpec::vgg16(),
            NetworkSpec::custom_mnist(),
        ];
        zoo.iter()
            .flat_map(|spec| {
                layer_table(spec, format, generated_sources(spec, seed))
                    .into_iter()
                    .enumerate()
                    .map(|(li, layer)| {
                        let WeightSource::Gen(gen) = layer.source else {
                            unreachable!("generated sources")
                        };
                        let codes = layer
                            .codes
                            .expect("int8 generated layers have a code table");
                        (
                            format!("{} layer {li}", spec.name()),
                            gen,
                            layer.quantizer,
                            codes,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    const INT8: [NumberFormat; 2] = [NumberFormat::Int8Symmetric, NumberFormat::Int8Asymmetric];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// The code table encodes random weights of every AlexNet,
        /// VGG-16 and custom-MNIST layer exactly as the quantizer does,
        /// under both int8 formats.
        #[test]
        fn code_table_matches_encode_on_random_indices(
            seed: u64,
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 256..257),
        ) {
            for format in INT8 {
                for (name, gen, quantizer, codes) in zoo_code_tables(format, seed) {
                    for &pick in &picks {
                        let index = pick % gen.len();
                        proptest::prop_assert_eq!(
                            codes.code(index),
                            quantizer.encode(gen.weight(index)),
                            "{} {} weight {}", name, format, index
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn code_table_is_exact_on_both_sides_of_every_threshold() {
        for format in INT8 {
            for (name, gen, quantizer, codes) in zoo_code_tables(format, 42) {
                let encode = |k: u64| quantizer.encode(gen.weight_at(k));
                for k in [0, TOP_UNIFORM] {
                    assert_eq!(codes.code_at(k), encode(k), "{name} {format} uniform {k}");
                }
                let thresholds = &codes.starts[1..codes.starts.len() - 1];
                for &t in thresholds {
                    let (below, at) = (codes.code_at(t - 1), codes.code_at(t));
                    assert_eq!(below, encode(t - 1), "{name} {format} below threshold {t}");
                    assert_eq!(at, encode(t), "{name} {format} at threshold {t}");
                    assert_ne!(below, at, "{name} {format}: {t} is not a step");
                }
            }
        }
    }

    #[test]
    fn tiny_plan_with_skipped_tail_ranks_matches_direct_encoding() {
        // Symmetric calibration spans the longer tail, so the shorter
        // tail's ranks are never reached and get no table entry.
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 2048;
        let spec = NetworkSpec::custom_mnist();
        let format = NumberFormat::Int8Symmetric;
        let plan = FlatWeightMemory::new(&cfg, &spec, format, 3);
        let ranks = |layer: &PlanLayer| {
            let codes = &layer.codes.as_ref().expect("code table").codes;
            (codes[0] as i8, codes[codes.len() - 1] as i8, codes.len())
        };
        assert!(
            plan.layers
                .iter()
                .map(ranks)
                .any(|(lo, hi, n)| (lo > -127 || hi < 127) && n < 255),
            "some layer must skip tail ranks: {:?}",
            plan.layers.iter().map(ranks).collect::<Vec<_>>()
        );
        // Every word of every block equals the table-backed twin's,
        // which encodes each weight directly.
        let direct =
            FlatWeightMemory::with_weight_tables(&cfg, &spec, format, &gen_tables(&spec, 3));
        assert!(direct.layers.iter().all(|layer| layer.codes.is_none()));
        for block in 0..plan.block_count() {
            for word in 0..plan.geometry().words {
                assert_eq!(
                    plan.word(block, word),
                    direct.word(block, word),
                    "block {block} word {word}"
                );
            }
        }
    }

    fn small_flat() -> FlatWeightMemory {
        FlatWeightMemory::new(
            &AcceleratorConfig::crossbar(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            7,
        )
    }

    #[test]
    fn crossbar_geometry_matches_tile_budget() {
        let mem = small_flat();
        // 64 tiles × 128 WL × 128 BL single-bit cells = 131072 8-bit words.
        assert_eq!(mem.geometry().words, 131_072);
        assert_eq!(mem.geometry().word_bits, 8);
        // Custom MNIST (231,696 weights) streams as two crossbar fills.
        assert_eq!(mem.block_count(), 2);
    }

    #[test]
    fn remapped_memory_is_the_inner_plan_viewed_through_the_schedule() {
        let inner = small_flat();
        let k = inner.block_count();
        let remapped = RemappedMemory::new(inner.clone(), 16, 4);
        assert_eq!(remapped.block_count(), 4 * k);
        assert_eq!(remapped.geometry(), inner.geometry());
        let schedule = *remapped.schedule();
        for block in [0u64, k, 2 * k + 1, 4 * k - 1] {
            let epoch = (block / k) as u32;
            for word in [0usize, 17, 4000, 131_071] {
                let logical = schedule.logical_word(word as u64, epoch) as usize;
                assert_eq!(
                    remapped.word(block, word),
                    inner.word(block % k, logical),
                    "block {block} word {word}"
                );
            }
        }
        // Epoch 0 is the identity view.
        for word in 0..64 {
            assert_eq!(remapped.word(0, word), inner.word(0, word));
        }
    }

    #[test]
    fn remapped_memory_preserves_per_epoch_word_population() {
        let inner = small_flat();
        let k = inner.block_count();
        let remapped = RemappedMemory::new(inner.clone(), 16, 3);
        // Rotation only moves words, so each epoch's sum over physical
        // addresses equals the inner plan's sum over logical addresses.
        for inner_block in 0..k {
            let want: u64 = (0..inner.geometry().words)
                .map(|w| inner.word(inner_block, w))
                .sum();
            for epoch in 0..3u64 {
                let got: u64 = (0..inner.geometry().words)
                    .map(|w| remapped.word(epoch * k + inner_block, w))
                    .sum();
                assert_eq!(got, want, "epoch {epoch} block {inner_block}");
            }
        }
    }

    #[test]
    fn remapped_memory_inherits_dwell_per_inner_block() {
        let inner = small_flat().with_dwell_weights(vec![3.0, 1.0]);
        let d0 = inner.dwell(0);
        let d1 = inner.dwell(1);
        let remapped = RemappedMemory::new(inner, 16, 4);
        for epoch in 0..4u64 {
            assert_eq!(remapped.dwell(epoch * 2), d0);
            assert_eq!(remapped.dwell(epoch * 2 + 1), d1);
        }
    }

    #[test]
    fn remapped_memory_label_names_the_rotation() {
        let remapped = RemappedMemory::new(small_flat(), 16, 4);
        assert!(
            remapped.label().ends_with("+wear-level:4"),
            "{}",
            remapped.label()
        );
    }
}
