//! Deterministic training of the network under test.
//!
//! Fault injection needs a network whose accuracy is worth degrading:
//! the synthetic "trained-like" weight model reproduces trained-weight
//! *statistics* (which is all the duty-cycle analysis needs) but scores
//! at chance on the classification task. This module actually trains
//! the spec's zoo network — any of them, via the im2col executor — on
//! the MNIST source (procedural by default, IDX files when
//! `DNNLIFE_MNIST_DIR` opts in) with a fixed SGD recipe: a pure
//! function of the spec's
//! [`dnnlife_core::FaultInjectionSpec::train_seed`], shared by every
//! policy/format cell of a campaign so all cells corrupt the same
//! weights. Batches are adapted to the network's input geometry
//! (nearest-neighbour upscale + channel replication) by
//! [`dnnlife_nn::data::adapt_batch`]; for the custom MNIST network the
//! adapter is the identity, so its training bytes are unchanged from
//! the pre-zoo-executor recipe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dnnlife_core::experiment::NetworkKind;
use dnnlife_core::FaultInjectionSpec;
use dnnlife_nn::data::{adapt_batch, MnistSource};
use dnnlife_nn::train::Sgd;
use dnnlife_nn::zoo::{build_network, extract_layer_weights};
use dnnlife_nn::Sequential;

/// Training mini-batch size.
pub const TRAIN_BATCH: usize = 24;
/// SGD learning rate.
pub const TRAIN_LR: f32 = 0.05;
/// SGD momentum.
pub const TRAIN_MOMENTUM: f32 = 0.9;
/// SGD L2 weight decay.
pub const TRAIN_WEIGHT_DECAY: f32 = 1e-4;

/// A trained (or deliberately untrained, `train_steps == 0`) network
/// snapshot: every parameter tensor by name, plus the weight tables in
/// layer order for the memory planner.
#[derive(Debug, Clone)]
pub struct TrainedNetwork {
    network: NetworkKind,
    params: Vec<(String, Vec<f32>)>,
    layer_weights: Vec<Vec<f32>>,
}

/// Memo key: `(train_seed, train_steps)`.
type TrainingKey = (u64, u32);

/// One key's memo entry. Its mutex is held for the whole training run,
/// so concurrent callers of one key wait for the first trainer instead
/// of training alongside it.
#[derive(Default)]
struct TrainingEntry {
    /// The finished snapshot; `None` until a run completes (a cancelled
    /// run leaves it `None`, so the next caller trains).
    trained: Option<TrainedNetwork>,
    /// Training runs started for this key.
    runs: u32,
}

/// Per-process memo of finished training runs, keyed by
/// `(train_seed, train_steps)` — the seed carries a per-network tag, so
/// distinct networks never collide. Every policy/format cell of one
/// campaign shares the recipe by construction (the seed ignores the
/// scenario's policy axes), so a 4-cell campaign trains once instead
/// of four times, even when its cells start concurrently. Purely an
/// execution cache: the stored snapshot is the deterministic function
/// of the key, so results are unchanged.
fn training_entry(key: TrainingKey) -> Arc<Mutex<TrainingEntry>> {
    static CACHE: OnceLock<Mutex<HashMap<TrainingKey, Arc<Mutex<TrainingEntry>>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(cache.entry(key).or_default())
}

impl TrainedNetwork {
    /// Runs the deterministic recipe for `spec` (serial, so the f32
    /// arithmetic is bit-reproducible), memoized per process on
    /// `(train_seed, train_steps)`: concurrent callers of one key wait
    /// for a single run. Returns `None` iff `cancel` was raised between
    /// SGD steps; a waiter behind a cancelled run trains itself.
    pub fn train(spec: &FaultInjectionSpec, cancel: Option<&AtomicBool>) -> Option<Self> {
        let entry = training_entry((spec.train_seed(), spec.train_steps));
        // A panicked trainer leaves `trained` empty; the next caller
        // simply trains again.
        let mut entry = entry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = &entry.trained {
            return Some(hit.clone());
        }
        entry.runs += 1;
        let trained = Self::train_uncached(spec, cancel)?;
        entry.trained = Some(trained.clone());
        Some(trained)
    }

    fn train_uncached(spec: &FaultInjectionSpec, cancel: Option<&AtomicBool>) -> Option<Self> {
        let network = spec.scenario.network;
        let seed = spec.train_seed();
        let net_spec = network.spec();
        let input_shape = net_spec.input_shape();
        let mut net = build_network(&net_spec, seed);
        if spec.train_steps > 0 {
            let data = MnistSource::from_env(seed);
            let mut sgd = Sgd::new(TRAIN_LR, TRAIN_MOMENTUM, TRAIN_WEIGHT_DECAY);
            for step in 0..u64::from(spec.train_steps) {
                if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                    return None;
                }
                let (images, labels) = data.batch(step * TRAIN_BATCH as u64, TRAIN_BATCH);
                let images = adapt_batch(&images, input_shape);
                let _ = sgd.step(&mut net, &images, &labels);
            }
        }
        let mut params = Vec::new();
        net.visit_params(&mut |p| params.push((p.name.to_string(), p.value.to_vec())));
        let layer_weights = extract_layer_weights(&mut net);
        Some(Self {
            network,
            params,
            layer_weights,
        })
    }

    /// The trained weight tables in layer order (biases excluded —
    /// the paper's weight memory stores filter/neuron weights only, so
    /// biases are never corrupted).
    pub fn layer_weights(&self) -> &[Vec<f32>] {
        &self.layer_weights
    }

    /// Builds a fresh executable network carrying the snapshot's
    /// parameters (weights *and* trained biases). Each injection worker
    /// instantiates its own copy, then swaps corrupted weight tables in
    /// per trial.
    pub fn instantiate(&self) -> Sequential {
        let mut net = build_network(&self.network.spec(), 0);
        let mut index = 0usize;
        net.visit_params(&mut |p| {
            let (name, values) = &self.params[index];
            assert_eq!(p.name, name, "parameter order drifted");
            p.value.copy_from_slice(values);
            index += 1;
        });
        assert_eq!(index, self.params.len(), "parameter count drifted");
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnlife_core::experiment::{ExperimentSpec, PolicySpec};
    use dnnlife_nn::zoo::build_custom_mnist;

    fn spec(train_steps: u32) -> FaultInjectionSpec {
        let mut s = FaultInjectionSpec::paper_default(ExperimentSpec::fig11(
            NetworkKind::CustomMnist,
            PolicySpec::None,
            7,
        ));
        s.train_steps = train_steps;
        s
    }

    #[test]
    fn untrained_snapshot_matches_the_synthetic_model() {
        let s = spec(0);
        let t = TrainedNetwork::train(&s, None).expect("uncancelled");
        let mut reference = build_custom_mnist(s.train_seed());
        let tables = extract_layer_weights(&mut reference);
        assert_eq!(t.layer_weights(), &tables[..]);
    }

    #[test]
    fn training_is_deterministic_and_changes_weights() {
        let s = spec(2);
        let a = TrainedNetwork::train(&s, None).expect("uncancelled");
        let b = TrainedNetwork::train(&s, None).expect("uncancelled");
        assert_eq!(a.layer_weights(), b.layer_weights());
        let untrained = TrainedNetwork::train(&spec(0), None).expect("uncancelled");
        assert_ne!(a.layer_weights(), untrained.layer_weights());
    }

    #[test]
    fn instantiate_restores_every_parameter() {
        let s = spec(1);
        let t = TrainedNetwork::train(&s, None).expect("uncancelled");
        let mut net = t.instantiate();
        let mut count = 0usize;
        net.visit_params(&mut |p| {
            let (name, values) = &t.params[count];
            assert_eq!(p.name, name);
            assert_eq!(p.value, &values[..]);
            count += 1;
        });
        assert_eq!(count, t.params.len());
    }

    #[test]
    fn untrained_alexnet_snapshot_is_buildable() {
        // The runnable gate is gone: AlexNet trains (0 steps here) and
        // instantiates through the same path as the custom network.
        let mut s = spec(0);
        s.scenario.network = NetworkKind::Alexnet;
        assert!(s.is_valid(), "AlexNet spec must be injectable");
        // Building the 61M-parameter network is nightly-tier work; the
        // cheap assertion here is that the spec passes validity and the
        // seeds are network-distinct.
        assert_ne!(s.train_seed(), spec(0).train_seed());
    }

    #[test]
    fn pre_raised_cancel_aborts_training() {
        let flag = AtomicBool::new(true);
        assert!(TrainedNetwork::train(&spec(5), Some(&flag)).is_none());
    }

    /// Concurrent cells of one campaign share one training run: eight
    /// threads released together on a fresh key start exactly one.
    #[test]
    fn concurrent_callers_of_one_key_train_once() {
        // A data seed no other test uses keeps the key (and its run
        // count) private to this test.
        let mut s = spec(3);
        s.data_seed = 0x5EED_0C0C;
        let key = (s.train_seed(), s.train_steps);
        let barrier = std::sync::Barrier::new(8);
        let snapshots: Vec<TrainedNetwork> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        TrainedNetwork::train(&s, None).expect("uncancelled")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(training_entry(key).lock().unwrap().runs, 1);
        for t in &snapshots[1..] {
            assert_eq!(t.layer_weights(), snapshots[0].layer_weights());
        }
    }

    /// A cancelled run leaves no snapshot behind: the next caller of the
    /// key trains instead of inheriting the abort.
    #[test]
    fn cancelled_run_leaves_the_key_trainable() {
        let mut s = spec(2);
        s.data_seed = 0xCA5C_E11E;
        let key = (s.train_seed(), s.train_steps);
        let flag = AtomicBool::new(true);
        assert!(TrainedNetwork::train(&s, Some(&flag)).is_none());
        assert!(TrainedNetwork::train(&s, None).is_some());
        assert_eq!(training_entry(key).lock().unwrap().runs, 2);
    }
}
