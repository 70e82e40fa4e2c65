//! Address layouts: where the Fig. 5 weight stream lands in one memory
//! unit.
//!
//! A layout holds only the address mapping of a [`super::WeightPlan`];
//! the layer table, the ECC step and the dwell weights live in the plan
//! and are shared by both layouts.

use std::sync::Arc;

use dnnlife_quant::Quantizer;

use super::{CodeTable, FifoSlotMemory, WeightAddress, WeightSource};

/// One row of a plan's layer table: the layer's shape, where its weight
/// values come from, the quantizer calibrated on them and, for a
/// generated source under an int8 quantizer, the code table that
/// encodes its words.
#[derive(Debug, Clone)]
pub struct PlanLayer {
    pub(super) filters: u64,
    pub(super) weights_per_filter: u64,
    pub(super) source: WeightSource,
    pub(super) quantizer: Quantizer,
    pub(super) codes: Option<Arc<CodeTable>>,
}

/// The address mapping of one memory unit. Sealed: implemented only by
/// [`Flat`] and [`FifoSlot`].
pub trait Layout: Clone + std::fmt::Debug + Send + Sync {
    /// Blocks the unit receives per inference (the paper's `K`).
    fn block_count(&self) -> u64;

    /// The canonical weight `(layer, index)` that block `block` writes
    /// to word `word`, or `None` for a zero-padded word.
    fn weight_at(&self, layers: &[PlanLayer], block: u64, word: u64) -> Option<(usize, u64)>;

    /// The inverse of [`Layout::weight_at`]: where canonical weight
    /// `index` of layer `layer` lands in this unit, or `None` if another
    /// unit holds it.
    fn locate(&self, layers: &[PlanLayer], layer: usize, index: u64) -> Option<WeightAddress>;

    /// Global block-write index of `(inference, block)`.
    fn global_block_index(&self, inference: u64, block: u64) -> u64;

    /// Stream words of layer `layer` that block `block` holds.
    fn layer_words(&self, block: u64, layer: usize) -> u64;

    /// Stream words layer `layer` spans over the whole stream, across
    /// every unit it is split over.
    fn layer_span(&self, layer: usize) -> u64;
}

/// The index of the layer whose span contains `pos`, given each
/// layer's exclusive end position in stream order.
fn layer_of(ends: &[u64], pos: u64) -> usize {
    ends.partition_point(|&end| end <= pos)
}

/// Where layer `layer`'s span starts, given the layers' exclusive ends.
fn start_of(ends: &[u64], layer: usize) -> u64 {
    layer.checked_sub(1).map_or(0, |prev| ends[prev])
}

/// The baseline accelerator's single weight buffer: filter sets of `f`
/// stream out interleaved (one word per filter lane), consecutive sets
/// and layers pack back-to-back, and the stream is chopped into
/// memory-sized fills.
#[derive(Debug, Clone)]
pub struct Flat {
    parallel_filters: u64,
    words: u64,
    /// Exclusive end of each layer in the dataflow-ordered stream; a
    /// layer spans `sets × f × weights_per_filter` words (ragged final
    /// sets carry zero-padded lanes).
    ends: Vec<u64>,
    blocks: u64,
}

impl Flat {
    pub(super) fn new(layers: &[PlanLayer], parallel_filters: u64, words: u64) -> Self {
        let mut end = 0;
        let ends = layers
            .iter()
            .map(|l| {
                end +=
                    l.filters.div_ceil(parallel_filters) * parallel_filters * l.weights_per_filter;
                end
            })
            .collect();
        Self {
            parallel_filters,
            words,
            ends,
            blocks: end.div_ceil(words),
        }
    }

    /// Length of the stream, padded lanes included.
    pub(super) fn stream_len(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }
}

impl Layout for Flat {
    fn block_count(&self) -> u64 {
        self.blocks
    }

    fn weight_at(&self, layers: &[PlanLayer], block: u64, word: u64) -> Option<(usize, u64)> {
        let pos = block * self.words + word;
        if pos >= self.stream_len() {
            return None; // tail of the final fill
        }
        let li = layer_of(&self.ends, pos);
        let layer = &layers[li];
        let local = pos - start_of(&self.ends, li);
        let f = self.parallel_filters;
        let set_len = f * layer.weights_per_filter;
        let (set, in_set) = (local / set_len, local % set_len);
        // Interleaved rows: consecutive stream words cycle over the f
        // filter lanes of the set.
        let filter = set * f + in_set % f;
        // A lane past the last filter is padding of a ragged final set.
        (filter < layer.filters).then(|| (li, filter * layer.weights_per_filter + in_set / f))
    }

    fn locate(&self, layers: &[PlanLayer], layer: usize, index: u64) -> Option<WeightAddress> {
        let wpf = layers[layer].weights_per_filter;
        let f = self.parallel_filters;
        let (filter, weight_index) = (index / wpf, index % wpf);
        let pos =
            start_of(&self.ends, layer) + filter / f * (f * wpf) + weight_index * f + filter % f;
        Some(WeightAddress {
            block: pos / self.words,
            word: (pos % self.words) as usize,
        })
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        inference * self.blocks + block
    }

    fn layer_words(&self, block: u64, layer: usize) -> u64 {
        let lo = (block * self.words).max(start_of(&self.ends, layer));
        let hi = ((block + 1) * self.words).min(self.ends[layer]);
        hi.saturating_sub(lo)
    }

    fn layer_span(&self, layer: usize) -> u64 {
        self.ends[layer] - start_of(&self.ends, layer)
    }
}

/// Words in one FIFO tile.
pub(super) const TILE_WORDS: u64 = FifoSlotMemory::TILE_SIDE * FifoSlotMemory::TILE_SIDE;

/// One slot of the NPU's circular weight FIFO: the global tile stream
/// (layer by layer, filter set by filter set, then row chunks) is
/// written round-robin over [`FifoSlotMemory::DEPTH`] slots, so slot `s`
/// holds tiles `s, s + DEPTH, s + 2·DEPTH, …`.
#[derive(Debug, Clone)]
pub struct FifoSlot {
    slot: u64,
    /// Exclusive end of each layer in the global tile stream.
    tile_ends: Vec<u64>,
    /// Row chunks (tiles per filter set) of each layer.
    row_tiles: Vec<u64>,
    blocks: u64,
}

impl FifoSlot {
    /// The layouts of every slot of the FIFO.
    pub(super) fn all(layers: &[PlanLayer]) -> Vec<Self> {
        let side = FifoSlotMemory::TILE_SIDE;
        let row_tiles: Vec<u64> = layers
            .iter()
            .map(|l| l.weights_per_filter.div_ceil(side))
            .collect();
        let mut end = 0;
        let tile_ends: Vec<u64> = layers
            .iter()
            .zip(&row_tiles)
            .map(|(l, rows)| {
                end += l.filters.div_ceil(side) * rows;
                end
            })
            .collect();
        (0..FifoSlotMemory::DEPTH)
            .map(|slot| Self {
                slot,
                tile_ends: tile_ends.clone(),
                row_tiles: row_tiles.clone(),
                blocks: end.saturating_sub(slot).div_ceil(FifoSlotMemory::DEPTH),
            })
            .collect()
    }

    /// Tiles streamed per inference across all slots.
    pub(super) fn total_tiles(&self) -> u64 {
        self.tile_ends.last().copied().unwrap_or(0)
    }

    fn tile(&self, block: u64) -> u64 {
        self.slot + block * FifoSlotMemory::DEPTH
    }
}

impl Layout for FifoSlot {
    fn block_count(&self) -> u64 {
        self.blocks
    }

    fn weight_at(&self, layers: &[PlanLayer], block: u64, word: u64) -> Option<(usize, u64)> {
        let tile = self.tile(block);
        let li = layer_of(&self.tile_ends, tile);
        let layer = &layers[li];
        let local = tile - start_of(&self.tile_ends, li);
        let side = FifoSlotMemory::TILE_SIDE;
        // Tile (filter set, row chunk); word (weight in chunk, filter in set).
        let filter = local / self.row_tiles[li] * side + word % side;
        let weight_index = local % self.row_tiles[li] * side + word / side;
        (filter < layer.filters && weight_index < layer.weights_per_filter)
            .then(|| (li, filter * layer.weights_per_filter + weight_index))
    }

    fn locate(&self, layers: &[PlanLayer], layer: usize, index: u64) -> Option<WeightAddress> {
        let wpf = layers[layer].weights_per_filter;
        let side = FifoSlotMemory::TILE_SIDE;
        let (filter, weight_index) = (index / wpf, index % wpf);
        let tile = start_of(&self.tile_ends, layer)
            + filter / side * self.row_tiles[layer]
            + weight_index / side;
        (tile % FifoSlotMemory::DEPTH == self.slot).then(|| WeightAddress {
            block: tile / FifoSlotMemory::DEPTH,
            word: ((weight_index % side) * side + filter % side) as usize,
        })
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        inference * self.total_tiles() + self.tile(block)
    }

    fn layer_words(&self, block: u64, layer: usize) -> u64 {
        if layer_of(&self.tile_ends, self.tile(block)) == layer {
            TILE_WORDS
        } else {
            0
        }
    }

    fn layer_span(&self, layer: usize) -> u64 {
        (self.tile_ends[layer] - start_of(&self.tile_ends, layer)) * TILE_WORDS
    }
}
