//! Datasets: procedural MNIST-like digits plus an IDX-format loader.
//!
//! The offline build environment has no real MNIST, so this module
//! renders digit glyphs procedurally: each digit class is a set of
//! stroke polylines in the unit square, rasterised to 28×28 with a
//! per-sample random affine jitter (rotation, scale, translation) and
//! additive pixel noise. The generator is counter-based: sample `i` is a
//! pure function of `(dataset_seed, i)`, so train/test splits are
//! reproducible and no data is stored.
//!
//! This substitutes for MNIST in the paper's custom-network
//! experiments: the weight-memory aging results depend
//! only on the trained weight values and inference count, not on the
//! specific imagery.
//!
//! When the real dataset *is* available, [`MnistSource::from_env`]
//! loads IDX-format MNIST from the directory named by
//! [`MNIST_DIR_ENV`]; without that variable it falls back to the
//! hermetic [`SyntheticMnist`], so CI never needs network access.
//! Dataset selection is an environment concern only — it is
//! deliberately **not** a coordinate of any experiment spec or content
//! hash, so stores produced under either source share keys (their
//! accuracy values of course differ).
//!
//! [`adapt_batch`] bridges the 28×28 single-channel images to the
//! bigger zoo inputs (AlexNet's 3×227×227, VGG-16's 3×224×224) by
//! nearest-neighbour upscaling and channel replication.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};

/// Image side length (matches MNIST).
pub const IMAGE_SIDE: usize = 28;
/// Pixels per image.
pub const IMAGE_PIXELS: usize = IMAGE_SIDE * IMAGE_SIDE;
/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;

/// Deterministic procedural MNIST-like digit dataset.
///
/// # Example
///
/// ```
/// use dnnlife_nn::data::SyntheticMnist;
///
/// let data = SyntheticMnist::new(1);
/// let (images, labels) = data.batch(0, 8);
/// assert_eq!(images.shape(), &[8, 1, 28, 28]);
/// assert_eq!(labels.len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticMnist {
    seed: u64,
}

impl SyntheticMnist {
    /// Creates a dataset with the given seed. Distinct seeds give
    /// statistically independent datasets.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates sample `index`, returning the flat image and its label.
    pub fn sample(&self, index: u64) -> ([f32; IMAGE_PIXELS], usize) {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, index));
        let label = (index % NUM_CLASSES as u64) as usize;
        let image = render_digit(label, &mut rng);
        (image, label)
    }

    /// Generates `n` consecutive samples starting at `start` as an
    /// `[n, 1, 28, 28]` tensor plus labels.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn batch(&self, start: u64, n: usize) -> (Tensor, Vec<usize>) {
        assert!(n > 0, "SyntheticMnist::batch: n must be > 0");
        let mut data = Vec::with_capacity(n * IMAGE_PIXELS);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let (img, label) = self.sample(start + i as u64);
            data.extend_from_slice(&img);
            labels.push(label);
        }
        (
            Tensor::from_vec(&[n, 1, IMAGE_SIDE, IMAGE_SIDE], data),
            labels,
        )
    }
}

/// Environment variable naming a directory with IDX-format MNIST files
/// (`train-images-idx3-ubyte` / `train-labels-idx1-ubyte`, dotted
/// variants accepted).
pub const MNIST_DIR_ENV: &str = "DNNLIFE_MNIST_DIR";

/// Real MNIST loaded from the standard IDX files.
///
/// Indices wrap modulo the set size, so callers that address samples by
/// large counters (e.g. the evaluation holdout offset) stay in range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdxMnist {
    images: Vec<u8>,
    labels: Vec<u8>,
    count: u64,
}

impl IdxMnist {
    /// Loads the training images + labels pair from `dir`.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending file when a file is
    /// missing, unreadable, has a wrong IDX magic/geometry, or the two
    /// files disagree on the sample count.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let images_path = find_idx_file(dir, "train-images", "idx3-ubyte")?;
        let labels_path = find_idx_file(dir, "train-labels", "idx1-ubyte")?;
        let images_raw =
            std::fs::read(&images_path).map_err(|e| format!("{}: {e}", images_path.display()))?;
        let labels_raw =
            std::fs::read(&labels_path).map_err(|e| format!("{}: {e}", labels_path.display()))?;

        let (magic, dims) = parse_idx_header(&images_raw, 4)
            .map_err(|e| format!("{}: {e}", images_path.display()))?;
        if magic != 0x0000_0803 {
            return Err(format!(
                "{}: IDX magic {magic:#010x}, expected 0x00000803 (u8 images, 3 dims)",
                images_path.display()
            ));
        }
        let (count, rows, cols) = (dims[0] as usize, dims[1] as usize, dims[2] as usize);
        if rows != IMAGE_SIDE || cols != IMAGE_SIDE {
            return Err(format!(
                "{}: {rows}×{cols} images, expected {IMAGE_SIDE}×{IMAGE_SIDE}",
                images_path.display()
            ));
        }
        let images = images_raw[16..].to_vec();
        if images.len() != count * IMAGE_PIXELS {
            return Err(format!(
                "{}: {} pixel bytes for {count} images, expected {}",
                images_path.display(),
                images.len(),
                count * IMAGE_PIXELS
            ));
        }

        let (magic, dims) = parse_idx_header(&labels_raw, 1)
            .map_err(|e| format!("{}: {e}", labels_path.display()))?;
        if magic != 0x0000_0801 {
            return Err(format!(
                "{}: IDX magic {magic:#010x}, expected 0x00000801 (u8 labels, 1 dim)",
                labels_path.display()
            ));
        }
        if dims[0] as usize != count {
            return Err(format!(
                "{}: {} labels for {count} images",
                labels_path.display(),
                dims[0]
            ));
        }
        let labels = labels_raw[8..].to_vec();
        if labels.len() != count {
            return Err(format!(
                "{}: {} label bytes, expected {count}",
                labels_path.display(),
                labels.len()
            ));
        }
        if let Some(bad) = labels.iter().find(|&&l| l as usize >= NUM_CLASSES) {
            return Err(format!(
                "{}: label {bad} out of range 0..{NUM_CLASSES}",
                labels_path.display()
            ));
        }
        if count == 0 {
            return Err(format!("{}: empty dataset", images_path.display()));
        }
        Ok(Self {
            images,
            labels,
            count: count as u64,
        })
    }

    /// Number of samples in the set.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample `index % count`, normalised to `[0, 1]`.
    pub fn sample(&self, index: u64) -> ([f32; IMAGE_PIXELS], usize) {
        let i = (index % self.count) as usize;
        let mut image = [0.0f32; IMAGE_PIXELS];
        for (dst, &src) in image
            .iter_mut()
            .zip(&self.images[i * IMAGE_PIXELS..(i + 1) * IMAGE_PIXELS])
        {
            *dst = f32::from(src) / 255.0;
        }
        (image, self.labels[i] as usize)
    }
}

/// Header = big-endian `magic` plus `dims` u32 dimension sizes.
fn parse_idx_header(raw: &[u8], dims: usize) -> Result<(u32, Vec<u32>), String> {
    let header = 4 * (1 + dims);
    if raw.len() < header {
        return Err(format!(
            "{} bytes is too short for an IDX header",
            raw.len()
        ));
    }
    let word =
        |i: usize| u32::from_be_bytes([raw[4 * i], raw[4 * i + 1], raw[4 * i + 2], raw[4 * i + 3]]);
    Ok((word(0), (1..=dims).map(word).collect()))
}

fn find_idx_file(dir: &Path, stem: &str, ext: &str) -> Result<PathBuf, String> {
    let dashed = dir.join(format!("{stem}-{ext}"));
    if dashed.is_file() {
        return Ok(dashed);
    }
    let dotted = dir.join(format!("{stem}.{ext}"));
    if dotted.is_file() {
        return Ok(dotted);
    }
    Err(format!(
        "{}: neither {stem}-{ext} nor {stem}.{ext} found",
        dir.display()
    ))
}

/// The dataset behind training and evaluation batches: real IDX MNIST
/// when [`MNIST_DIR_ENV`] points at it, the procedural fallback
/// otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum MnistSource {
    /// Hermetic procedural digits (the default; CI uses only this).
    Synthetic(SyntheticMnist),
    /// Real MNIST; sample indices wrap modulo the set size and the
    /// dataset seed is ignored (the on-disk ordering is the ordering).
    Idx(IdxMnist),
}

impl MnistSource {
    /// Selects the dataset for `seed`: IDX MNIST when [`MNIST_DIR_ENV`]
    /// is set and non-empty, [`SyntheticMnist`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but the directory does not hold a
    /// loadable IDX pair — a misconfigured opt-in must fail loud, not
    /// silently fall back to synthetic data.
    pub fn from_env(seed: u64) -> Self {
        match std::env::var(MNIST_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => match IdxMnist::load(Path::new(&dir)) {
                Ok(data) => MnistSource::Idx(data),
                Err(e) => panic!("{MNIST_DIR_ENV}: {e}"),
            },
            _ => MnistSource::Synthetic(SyntheticMnist::new(seed)),
        }
    }

    /// Generates `n` consecutive samples starting at `start` as an
    /// `[n, 1, 28, 28]` tensor plus labels (same contract as
    /// [`SyntheticMnist::batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn batch(&self, start: u64, n: usize) -> (Tensor, Vec<usize>) {
        match self {
            MnistSource::Synthetic(data) => data.batch(start, n),
            MnistSource::Idx(data) => {
                assert!(n > 0, "MnistSource::batch: n must be > 0");
                let mut pixels = Vec::with_capacity(n * IMAGE_PIXELS);
                let mut labels = Vec::with_capacity(n);
                for i in 0..n {
                    let (img, label) = data.sample(start + i as u64);
                    pixels.extend_from_slice(&img);
                    labels.push(label);
                }
                (
                    Tensor::from_vec(&[n, 1, IMAGE_SIDE, IMAGE_SIDE], pixels),
                    labels,
                )
            }
        }
    }
}

/// Adapts a `[n, 1, 28, 28]` batch to the `[channels, h, w]` input an
/// executable zoo network expects, by nearest-neighbour upscaling and
/// replicating the single channel. Returns the batch unchanged when the
/// target already matches, so the custom-MNIST path is byte-identical
/// to feeding the batch directly.
///
/// # Panics
///
/// Panics if `images` is not a `[n, 1, 28, 28]` batch.
pub fn adapt_batch(images: &Tensor, target: [usize; 3]) -> Tensor {
    assert_eq!(
        &images.shape()[1..],
        &[1, IMAGE_SIDE, IMAGE_SIDE],
        "adapt_batch: source must be [n, 1, {IMAGE_SIDE}, {IMAGE_SIDE}]"
    );
    if target == [1, IMAGE_SIDE, IMAGE_SIDE] {
        return images.clone();
    }
    let n = images.shape()[0];
    let [c, h, w] = target;
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = images.data();
    let dst = out.data_mut();
    for img in 0..n {
        for y in 0..h {
            let sy = y * IMAGE_SIDE / h;
            for x in 0..w {
                let sx = x * IMAGE_SIDE / w;
                let v = src[(img * IMAGE_SIDE + sy) * IMAGE_SIDE + sx];
                for ch in 0..c {
                    dst[((img * c + ch) * h + y) * w + x] = v;
                }
            }
        }
    }
    out
}

/// SplitMix64-style mixing of `(seed, index)` into an RNG seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stroke skeleton for each digit: polylines in the unit square
/// (x right, y down).
fn digit_strokes(digit: usize) -> Vec<Vec<(f32, f32)>> {
    fn ellipse(cx: f32, cy: f32, rx: f32, ry: f32) -> Vec<(f32, f32)> {
        (0..=16)
            .map(|i| {
                let t = i as f32 / 16.0 * std::f32::consts::TAU;
                (cx + rx * t.cos(), cy + ry * t.sin())
            })
            .collect()
    }
    match digit {
        0 => vec![ellipse(0.5, 0.5, 0.20, 0.30)],
        1 => vec![vec![(0.38, 0.28), (0.54, 0.16), (0.54, 0.84)]],
        2 => vec![vec![
            (0.32, 0.30),
            (0.42, 0.17),
            (0.62, 0.17),
            (0.68, 0.33),
            (0.55, 0.50),
            (0.32, 0.82),
            (0.70, 0.82),
        ]],
        3 => vec![vec![
            (0.32, 0.22),
            (0.55, 0.15),
            (0.68, 0.28),
            (0.50, 0.46),
            (0.68, 0.62),
            (0.56, 0.82),
            (0.32, 0.78),
        ]],
        4 => vec![
            vec![(0.60, 0.15), (0.30, 0.58), (0.74, 0.58)],
            vec![(0.62, 0.38), (0.62, 0.85)],
        ],
        5 => vec![vec![
            (0.68, 0.16),
            (0.36, 0.16),
            (0.34, 0.45),
            (0.58, 0.44),
            (0.70, 0.60),
            (0.58, 0.80),
            (0.32, 0.80),
        ]],
        6 => vec![vec![
            (0.64, 0.15),
            (0.44, 0.35),
            (0.34, 0.60),
            (0.40, 0.80),
            (0.60, 0.82),
            (0.66, 0.64),
            (0.52, 0.54),
            (0.36, 0.62),
        ]],
        7 => vec![vec![(0.30, 0.17), (0.70, 0.17), (0.46, 0.84)]],
        8 => vec![
            ellipse(0.50, 0.32, 0.15, 0.16),
            ellipse(0.50, 0.66, 0.18, 0.19),
        ],
        9 => vec![
            ellipse(0.52, 0.35, 0.16, 0.17),
            vec![(0.68, 0.40), (0.58, 0.84)],
        ],
        _ => panic!("digit_strokes: digit {digit} out of range"),
    }
}

/// Rasterises a digit with random affine jitter and noise.
fn render_digit(digit: usize, rng: &mut StdRng) -> [f32; IMAGE_PIXELS] {
    let mut image = [0.0f32; IMAGE_PIXELS];

    // Per-sample affine jitter.
    let angle: f32 = (rng.random::<f32>() - 0.5) * 0.5; // ±0.25 rad
    let scale: f32 = 0.85 + rng.random::<f32>() * 0.25;
    let dx: f32 = (rng.random::<f32>() - 0.5) * 0.14;
    let dy: f32 = (rng.random::<f32>() - 0.5) * 0.14;
    let (sin, cos) = angle.sin_cos();

    let transform = |(x, y): (f32, f32)| -> (f32, f32) {
        let (cx, cy) = (x - 0.5, y - 0.5);
        let (rx, ry) = (cx * cos - cy * sin, cx * sin + cy * cos);
        (0.5 + scale * rx + dx, 0.5 + scale * ry + dy)
    };

    let side = IMAGE_SIDE as f32;
    let sigma = 0.65f32; // stroke half-width in pixels
    for stroke in digit_strokes(digit) {
        for pair in stroke.windows(2) {
            let (x0, y0) = transform(pair[0]);
            let (x1, y1) = transform(pair[1]);
            let (px0, py0) = (x0 * side, y0 * side);
            let (px1, py1) = (x1 * side, y1 * side);
            let seg_len = ((px1 - px0).powi(2) + (py1 - py0).powi(2)).sqrt();
            let steps = (seg_len / 0.4).ceil().max(1.0) as usize;
            for s in 0..=steps {
                let t = s as f32 / steps as f32;
                let (px, py) = (px0 + t * (px1 - px0), py0 + t * (py1 - py0));
                stamp(&mut image, px, py, sigma);
            }
        }
    }

    // Additive noise and clamping.
    for v in &mut image {
        let noise: f32 = (rng.random::<f32>() - 0.5) * 0.08;
        *v = (*v + noise).clamp(0.0, 1.0);
    }
    image
}

/// Adds a Gaussian intensity blob centred at `(px, py)`.
fn stamp(image: &mut [f32; IMAGE_PIXELS], px: f32, py: f32, sigma: f32) {
    let radius = 2i32;
    let cx = px.round() as i32;
    let cy = py.round() as i32;
    for y in (cy - radius).max(0)..=(cy + radius).min(IMAGE_SIDE as i32 - 1) {
        for x in (cx - radius).max(0)..=(cx + radius).min(IMAGE_SIDE as i32 - 1) {
            let d2 = (x as f32 - px).powi(2) + (y as f32 - py).powi(2);
            let intensity = (-d2 / (2.0 * sigma * sigma)).exp();
            let idx = y as usize * IMAGE_SIDE + x as usize;
            image[idx] = image[idx].max(intensity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_index() {
        let d = SyntheticMnist::new(5);
        let (a, la) = d.sample(17);
        let (b, lb) = d.sample(17);
        assert_eq!(la, lb);
        assert_eq!(a, b);
    }

    #[test]
    fn different_indices_differ() {
        let d = SyntheticMnist::new(5);
        let (a, _) = d.sample(0);
        let (b, _) = d.sample(10); // same label (0), different jitter
        assert_ne!(a, b);
    }

    #[test]
    fn pixel_range_and_energy() {
        let d = SyntheticMnist::new(1);
        for i in 0..NUM_CLASSES as u64 {
            let (img, _) = d.sample(i);
            assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let energy: f32 = img.iter().sum();
            // A rendered digit has clearly more ink than noise alone.
            assert!(energy > 10.0, "digit {i} energy {energy}");
        }
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = SyntheticMnist::new(1);
        let (_, labels) = d.batch(0, 20);
        assert_eq!(&labels[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(&labels[10..], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean inter-class L2 distance must exceed mean intra-class
        // distance — a weak but meaningful separability check.
        let d = SyntheticMnist::new(2);
        let samples: Vec<([f32; IMAGE_PIXELS], usize)> = (0..60).map(|i| d.sample(i)).collect();
        let dist = |a: &[f32; IMAGE_PIXELS], b: &[f32; IMAGE_PIXELS]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
        };
        let mut intra = (0.0f32, 0u32);
        let mut inter = (0.0f32, 0u32);
        for i in 0..samples.len() {
            for j in (i + 1)..samples.len() {
                let dv = dist(&samples[i].0, &samples[j].0);
                if samples[i].1 == samples[j].1 {
                    intra = (intra.0 + dv, intra.1 + 1);
                } else {
                    inter = (inter.0 + dv, inter.1 + 1);
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f32;
        let inter_mean = inter.0 / inter.1 as f32;
        assert!(
            inter_mean > intra_mean * 1.1,
            "inter {inter_mean} vs intra {intra_mean}"
        );
    }

    #[test]
    fn batch_shape() {
        let d = SyntheticMnist::new(9);
        let (images, labels) = d.batch(100, 32);
        assert_eq!(images.shape(), &[32, 1, 28, 28]);
        assert_eq!(labels.len(), 32);
    }

    /// Writes a minimal IDX pair (3 samples) into a fresh temp dir.
    fn write_idx_pair(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dnnlife-idx-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let count = 3u32;
        let mut images = Vec::new();
        images.extend_from_slice(&0x0000_0803u32.to_be_bytes());
        images.extend_from_slice(&count.to_be_bytes());
        images.extend_from_slice(&(IMAGE_SIDE as u32).to_be_bytes());
        images.extend_from_slice(&(IMAGE_SIDE as u32).to_be_bytes());
        for i in 0..count as usize * IMAGE_PIXELS {
            images.push((i % 251) as u8);
        }
        std::fs::write(dir.join("train-images-idx3-ubyte"), images).unwrap();
        let mut labels = Vec::new();
        labels.extend_from_slice(&0x0000_0801u32.to_be_bytes());
        labels.extend_from_slice(&count.to_be_bytes());
        labels.extend_from_slice(&[7u8, 0, 3]);
        std::fs::write(dir.join("train-labels-idx1-ubyte"), labels).unwrap();
        dir
    }

    #[test]
    fn idx_loader_round_trips_and_wraps() {
        let dir = write_idx_pair("ok");
        let data = IdxMnist::load(&dir).unwrap();
        assert_eq!(data.count(), 3);
        let (img, label) = data.sample(0);
        assert_eq!(label, 7);
        assert_eq!(img[1], 1.0 / 255.0);
        assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Indices wrap modulo the set size.
        let (wrapped, wrapped_label) = data.sample(3 + 2);
        assert_eq!(wrapped_label, 3);
        assert_eq!(wrapped, data.sample(2).0);
        // The MnistSource batch path agrees with direct samples.
        let source = MnistSource::Idx(data.clone());
        let (batch, labels) = source.batch(1, 2);
        assert_eq!(batch.shape(), &[2, 1, 28, 28]);
        assert_eq!(labels, vec![0, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idx_loader_rejects_bad_magic() {
        let dir = write_idx_pair("badmagic");
        let path = dir.join("train-images-idx3-ubyte");
        let mut raw = std::fs::read(&path).unwrap();
        raw[3] = 0x99;
        std::fs::write(&path, raw).unwrap();
        let err = IdxMnist::load(&dir).unwrap_err();
        assert!(err.contains("IDX magic"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idx_loader_names_missing_files() {
        let dir = std::env::temp_dir().join(format!("dnnlife-idx-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = IdxMnist::load(&dir).unwrap_err();
        assert!(err.contains("train-images"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synthetic_source_matches_raw_dataset() {
        let source = MnistSource::Synthetic(SyntheticMnist::new(11));
        let (a, la) = source.batch(40, 6);
        let (b, lb) = SyntheticMnist::new(11).batch(40, 6);
        assert_eq!(a.data(), b.data());
        assert_eq!(la, lb);
    }

    #[test]
    fn adapt_batch_identity_is_byte_exact() {
        let (images, _) = SyntheticMnist::new(3).batch(0, 4);
        let adapted = adapt_batch(&images, [1, 28, 28]);
        assert_eq!(adapted.data(), images.data());
    }

    #[test]
    fn adapt_batch_upscales_and_replicates_channels() {
        let (images, _) = SyntheticMnist::new(3).batch(0, 2);
        let adapted = adapt_batch(&images, [3, 227, 227]);
        assert_eq!(adapted.shape(), &[2, 3, 227, 227]);
        // Channels are replicas of each other.
        for img in 0..2 {
            for y in [0usize, 100, 226] {
                for x in [0usize, 113, 226] {
                    let v = adapted.at4(img, 0, y, x);
                    assert_eq!(v, adapted.at4(img, 1, y, x));
                    assert_eq!(v, adapted.at4(img, 2, y, x));
                    // Nearest-neighbour: the source pixel at the scaled
                    // coordinate.
                    let (sy, sx) = (y * 28 / 227, x * 28 / 227);
                    assert_eq!(v, images.at4(img, 0, sy, sx));
                }
            }
        }
    }
}
