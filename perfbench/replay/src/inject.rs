//! Replay of the `inject-mnist` workload:
//! `dnnlife inject --platform baseline --trials 3 --ages 0,7
//! --eval-images 100 --train-steps 60`.
//!
//! Trains once (cold), then per cell: the weight-cell duty simulation,
//! the failure probabilities once per age, one forward pass over the
//! evaluation batch per trial × age (the clean network — a forward
//! pass costs the same whatever the weight values), one layer-by-layer
//! pass for per-layer GMAC/s, and finally the whole cell through
//! `run_injection`, which reuses the process's training memo. Every
//! forward pass must reproduce the cell's stored clean accuracy.

use std::hint::black_box;

use dnnlife_campaign::{InjectionGrid, InjectionParams, InjectionRecord};
use dnnlife_core::experiment::{fig11_policies, NetworkKind, Platform};
use dnnlife_core::MemoryTech;
use dnnlife_faultsim::inject::HOLDOUT_OFFSET;
use dnnlife_faultsim::{run_injection, InjectOptions, TrainedNetwork, WeightCellDuties};
use dnnlife_nn::data::{adapt_batch, MnistSource};
use dnnlife_nn::train::accuracy;
use dnnlife_nn::zoo::apply_layer_weights;
use dnnlife_nn::{nan_tolerant_argmax, Sequential, Tensor};
use dnnlife_quant::NumberFormat;
use dnnlife_sram::snm::CalibratedSnmModel;
use dnnlife_sram::ReadFailureModel;

use crate::macs::{layer_macs, network_macs};
use crate::{check_record, per_second, replay_store, store_lines, Args, Metrics};

/// Runs `net` layer by layer over `images`, adding each layer's time
/// to `nn.forward.<name>.ms`, and returns the batch accuracy.
fn layered_accuracy(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    m: &mut Metrics,
) -> f64 {
    let mut x = images.clone();
    for i in 0..net.len() {
        let layer = net.layer_mut(i);
        let name = format!("nn.forward.{}.ms", layer.name());
        x = m.time(&name, || layer.forward(&x));
    }
    let classes = x.shape()[1];
    let correct = x
        .data()
        .chunks(classes)
        .zip(labels)
        .filter(|(row, &label)| nan_tolerant_argmax(row) == label)
        .count();
    correct as f64 / labels.len() as f64
}

pub fn replay(args: &Args, m: &mut Metrics) -> Result<(), String> {
    let params = InjectionParams {
        base_seed: args.seed,
        ages_years: vec![0.0, 7.0],
        trials: 3,
        eval_images: 100,
        train_steps: 60,
        ..InjectionParams::default()
    };
    let grid = m.time("campaign.grid.ms", || {
        InjectionGrid::build(
            "inject",
            Platform::Baseline,
            NetworkKind::CustomMnist,
            NumberFormat::Int8Symmetric,
            &fig11_policies(),
            &params,
        )
    });
    let cli = store_lines::<InjectionRecord>(&args.store)?;
    let first = grid.specs.first().ok_or("empty injection grid")?;
    if grid
        .specs
        .iter()
        .any(|s| (s.train_seed(), s.train_steps) != (first.train_seed(), first.train_steps))
    {
        return Err("the cells do not share one training recipe".to_string());
    }
    let trained = m
        .time("faultsim.train.ms", || TrainedNetwork::train(first, None))
        .ok_or("training cancelled")?;
    m.add("faultsim.train.calls", 1.0);

    let network = first.scenario.network.spec();
    let image_macs = network_macs(&network) as f64;
    let snm = CalibratedSnmModel::paper();
    let mut records = Vec::with_capacity(grid.len());
    for spec in &grid.specs {
        let label = spec.label();
        if spec.scenario.tech != MemoryTech::SramNbti {
            return Err(format!("{label}: only SRAM/NBTI cells are replayed"));
        }
        let (duties, quantizers) = m.time("faultsim.duty.ms", || {
            WeightCellDuties::compute(&spec.scenario, trained.layer_weights(), 1, 0)
        });
        m.add("faultsim.duty.cells", duties.cells() as f64);
        let failure_model = ReadFailureModel {
            noise_sigma_mv: spec.noise_sigma_mv,
            ..ReadFailureModel::default_65nm()
        };
        for &years in &spec.ages_years {
            black_box(m.time("faultsim.failure_probs.ms", || {
                duties.failure_probabilities(&snm, &failure_model, years)
            }));
        }

        // The fault-free network computes with the dequantized codes.
        let clean: Vec<Vec<f32>> = trained
            .layer_weights()
            .iter()
            .zip(&quantizers)
            .map(|(table, q)| {
                table
                    .iter()
                    .map(|&w| q.decode_corrupted(q.encode(w)))
                    .collect()
            })
            .collect();
        let (images, labels) = MnistSource::from_env(spec.eval_seed())
            .batch(HOLDOUT_OFFSET, spec.eval_images as usize);
        let images = adapt_batch(&images, network.input_shape());
        let mut net = trained.instantiate();
        apply_layer_weights(&mut net, &network, &clean);
        let mut scores = Vec::new();
        for _ in 0..spec.trials as usize * spec.ages_years.len() {
            scores.push(m.time("nn.forward.ms", || accuracy(&mut net, &images, &labels)));
            m.add("nn.forward.macs", image_macs * labels.len() as f64);
        }
        scores.push(layered_accuracy(&mut net, &images, &labels, m));
        m.add("nn.forward.layered_images", labels.len() as f64);

        let opts = InjectOptions {
            threads: 1,
            ..InjectOptions::default()
        };
        let result = m
            .time("faultsim.cell.ms", || run_injection(spec, &opts))
            .ok_or("injection cancelled")?;
        if scores.iter().any(|&s| s != result.clean_accuracy) {
            return Err(format!(
                "{label}: replayed forward passes do not reproduce the clean accuracy"
            ));
        }
        let record = InjectionRecord::new(spec.clone(), result);
        check_record(&record, &cli, &label)?;
        records.push(record);
    }
    replay_store(records, &grid.keys(), &args.work, &args.store, m)?;

    m.add(
        "nn.forward.gmac_per_s",
        per_second(m.get("nn.forward.macs"), m.get("nn.forward.ms")) / 1e9,
    );
    let images = m.get("nn.forward.layered_images");
    for layer in network.layers() {
        let macs = layer_macs(layer) as f64 * images;
        let ms = m.get(&format!("nn.forward.{}.ms", layer.name()));
        m.add(
            &format!("nn.forward.{}.gmac_per_s", layer.name()),
            per_second(macs, ms) / 1e9,
        );
    }
    // The layer busy times that tile the CLI's own work, for the
    // driver's unattributed-CPU readout.
    m.add(
        "replay.partition.ms",
        m.get("campaign.grid.ms")
            + m.get("faultsim.train.ms")
            + m.get("faultsim.cell.ms")
            + m.get("campaign.store.append.ms")
            + m.get("campaign.store.finalize.ms"),
    );
    Ok(())
}
