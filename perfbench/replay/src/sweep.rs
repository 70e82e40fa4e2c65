//! Replay of the two sweep workloads (`fig9-exact`, `fig11-analytic`).
//!
//! Per scenario, in grid order: quantizer calibration per layer, the
//! memory plan, the simulator kernel on every memory unit, then the
//! whole scenario through `run_experiment_with`. The scenario call
//! repeats the plan and kernel internally, so `core.other.ms` (dwell,
//! transducer build, degradation aggregation) is the scenario time
//! minus the plan and kernel times.

use dnnlife_accel::{
    simulate_analytic, simulate_exact_sharded, AcceleratorConfig, AnalyticSimConfig, BlockSource,
    ExactShardConfig, FifoSlotMemory, FlatWeightMemory,
};
use dnnlife_campaign::grid::SweepOptions;
use dnnlife_campaign::{CampaignGrid, ScenarioRecord};
use dnnlife_core::experiment::{run_experiment_with, Platform, PolicySpec, RunOptions};
use dnnlife_core::{ExperimentSpec, ShardPolicy, SimulatorBackend};
use dnnlife_mitigation::{
    AgingController, BarrelShifter, DnnLife, Passthrough, PeriodicInversion, PseudoTrbg,
    WriteTransducer,
};
use dnnlife_nn::weights::LayerWeightGen;
use dnnlife_numerics::Summary;
use dnnlife_quant::Quantizer;

use crate::{check_record, per_second, replay_store, store_lines, Args, Metrics};

/// Weights swept per layer for quantizer calibration — the plans'
/// calibration cap.
const RANGE_CAP: u64 = 1_000_000;

/// One sweep workload: the CLI flags it runs with, as API values.
pub struct SweepWorkload {
    grid: &'static str,
    backend: SimulatorBackend,
    stride: usize,
    inferences: u64,
}

/// `dnnlife sweep --grid fig9 --backend exact --stride 256 --inferences 100`.
pub const FIG9_EXACT: SweepWorkload = SweepWorkload {
    grid: "fig9",
    backend: SimulatorBackend::Exact,
    stride: 256,
    inferences: 100,
};

/// `dnnlife sweep --grid fig11 --stride 16`.
pub const FIG11_ANALYTIC: SweepWorkload = SweepWorkload {
    grid: "fig11",
    backend: SimulatorBackend::Analytic,
    stride: 16,
    inferences: 100,
};

/// A built memory plan: its units in unit order and its per-layer
/// quantizers.
struct Plan {
    units: Vec<Box<dyn BlockSource>>,
    quantizers: Vec<Quantizer>,
}

fn build_plan(spec: &ExperimentSpec) -> Result<Plan, String> {
    let network = spec.network.spec();
    let layers = network.layers().len();
    match spec.platform {
        Platform::Baseline => {
            let mem = FlatWeightMemory::new(
                &AcceleratorConfig::baseline(),
                &network,
                spec.format,
                spec.seed,
            )
            .with_repair(&spec.repair);
            let quantizers = (0..layers).map(|li| mem.layer_quantizer(li)).collect();
            Ok(Plan {
                units: vec![Box::new(mem)],
                quantizers,
            })
        }
        Platform::TpuLike => {
            let slots: Vec<FifoSlotMemory> =
                FifoSlotMemory::all_slots(&network, spec.format, spec.seed)
                    .into_iter()
                    .map(|slot| slot.with_repair(&spec.repair))
                    .collect();
            let quantizers = (0..layers).map(|li| slots[0].layer_quantizer(li)).collect();
            Ok(Plan {
                units: slots
                    .into_iter()
                    .map(|slot| Box::new(slot) as Box<dyn BlockSource>)
                    .collect(),
                quantizers,
            })
        }
        other => Err(format!("platform {other:?} is not replayed")),
    }
}

/// The exact backend's write transducer for one memory unit, seeded
/// like the scenario runner seeds it.
fn transducer(
    spec: &ExperimentSpec,
    width: u32,
    words: usize,
    unit: u64,
) -> Result<Box<dyn WriteTransducer>, String> {
    Ok(match spec.policy {
        PolicySpec::None => Box::new(Passthrough::new(width)),
        PolicySpec::Inversion => Box::new(PeriodicInversion::new(width, words)),
        PolicySpec::BarrelShifter => Box::new(BarrelShifter::new(width, words)),
        PolicySpec::DnnLife {
            bias,
            bias_balancing,
            m_bits,
        } => {
            let trbg = PseudoTrbg::new(spec.policy_seed().wrapping_add(unit), bias);
            let controller = if bias_balancing {
                AgingController::new(trbg, m_bits)
            } else {
                AgingController::without_balancing(trbg)
            };
            Box::new(DnnLife::new(width, controller))
        }
        PolicySpec::WearLevel { .. } => {
            return Err("wear-leveling scenarios are not replayed".to_string())
        }
    })
}

/// Runs the workload's kernel on every non-empty unit of `plan`,
/// returning the duty summary over all units in unit order.
fn run_kernels(spec: &ExperimentSpec, plan: &Plan, m: &mut Metrics) -> Result<Summary, String> {
    let mut duty = Summary::new();
    for (unit, source) in plan.units.iter().enumerate() {
        if source.block_count() == 0 {
            continue;
        }
        let geo = source.geometry();
        let sampled = geo.words.div_ceil(spec.sample_stride);
        let shards = ShardPolicy::default().resolve(sampled);
        let duties = match spec.backend {
            SimulatorBackend::Exact => {
                let prototype = transducer(spec, geo.word_bits, geo.words, unit as u64)?;
                let cfg = ExactShardConfig {
                    shards,
                    threads: 1,
                    ..ExactShardConfig::default()
                };
                let duties = m
                    .time("accel.exact_kernel.ms", || {
                        simulate_exact_sharded(
                            source.as_ref(),
                            prototype.as_ref(),
                            spec.inferences,
                            spec.sample_stride,
                            &cfg,
                        )
                    })
                    .ok_or("exact kernel cancelled")?;
                m.add(
                    "accel.exact_kernel.word_writes",
                    (sampled as u64 * source.block_count() * spec.inferences) as f64,
                );
                duties
            }
            SimulatorBackend::Analytic => {
                let cfg = AnalyticSimConfig {
                    inferences: spec.inferences,
                    sample_stride: spec.sample_stride,
                    threads: 1,
                    shards,
                };
                let policy = spec.policy.analytic(spec.policy_seed());
                let duties = m.time("accel.analytic_kernel.ms", || {
                    simulate_analytic(source.as_ref(), &policy, &cfg)
                });
                m.add("accel.analytic_kernel.cells", duties.len() as f64);
                duties
            }
        };
        for d in duties {
            duty.record(d);
        }
    }
    Ok(duty)
}

pub fn replay(workload: &SweepWorkload, args: &Args, m: &mut Metrics) -> Result<(), String> {
    let options = SweepOptions {
        base_seed: args.seed,
        sample_stride: workload.stride,
        inferences: workload.inferences,
        backend: workload.backend,
        ..SweepOptions::default()
    };
    let grid = m
        .time("campaign.grid.ms", || {
            CampaignGrid::named(workload.grid, options)
        })
        .ok_or_else(|| format!("unknown grid `{}`", workload.grid))?;
    let cli = store_lines::<ScenarioRecord>(&args.store)?;

    let mut records = Vec::with_capacity(grid.len());
    for spec in &grid.scenarios {
        let label = spec.content_key();
        if !spec.dwell.is_uniform() {
            return Err(format!("{label}: only uniform dwell is replayed"));
        }
        let network = spec.network.spec();
        let calibrated: Vec<Quantizer> = (0..network.layers().len())
            .map(|li| {
                m.time("quant.calibrate.ms", || {
                    let range = LayerWeightGen::new(&network, li, spec.seed).range(RANGE_CAP);
                    Quantizer::calibrate(spec.format, &range)
                })
            })
            .collect();
        m.add("quant.calibrate.calls", calibrated.len() as f64);

        let plan = m.time("accel.plan_build.ms", || build_plan(spec))?;
        m.add("accel.plan_build.calls", 1.0);
        if plan.quantizers != calibrated {
            return Err(format!(
                "{label}: replayed calibration differs from the plan's quantizers"
            ));
        }
        let duty = run_kernels(spec, &plan, m)?;

        let opts = RunOptions {
            threads: 1,
            ..RunOptions::default()
        };
        let result = m
            .time("core.scenario.ms", || run_experiment_with(spec, &opts))
            .ok_or("scenario cancelled")?;
        if result.duty != duty {
            return Err(format!(
                "{}: replayed kernel duties differ from the scenario's",
                result.label
            ));
        }
        let record = ScenarioRecord::annotated(spec.clone(), result, ShardPolicy::default());
        check_record(&record, &cli, &record.result.label)?;
        records.push(record);
    }
    replay_store(records, &grid.keys(), &args.work, &args.store, m)?;

    let other = m.get("core.scenario.ms")
        - m.get("accel.plan_build.ms")
        - m.get("accel.exact_kernel.ms")
        - m.get("accel.analytic_kernel.ms");
    m.add("core.other.ms", other);
    m.add(
        "accel.exact_kernel.words_per_s",
        per_second(
            m.get("accel.exact_kernel.word_writes"),
            m.get("accel.exact_kernel.ms"),
        ),
    );
    m.add(
        "accel.analytic_kernel.cells_per_s",
        per_second(
            m.get("accel.analytic_kernel.cells"),
            m.get("accel.analytic_kernel.ms"),
        ),
    );
    // The layer busy times that tile the CLI's own work, for the
    // driver's unattributed-CPU readout.
    m.add(
        "replay.partition.ms",
        m.get("campaign.grid.ms")
            + m.get("core.scenario.ms")
            + m.get("campaign.store.append.ms")
            + m.get("campaign.store.finalize.ms"),
    );
    Ok(())
}
