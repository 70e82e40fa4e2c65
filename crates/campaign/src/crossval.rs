//! Matched analytic↔exact cross-validation over a campaign grid.
//!
//! For every scenario, [`dnnlife_core::cross_validate`] runs the
//! closed-form analytic simulator (uniform dwell — paper assumption
//! (b)) and the event-driven exact simulator (the scenario's dwell
//! model) on the same memory plan with the same derived seed, and
//! reports per-cell duty divergence. Under uniform dwell this is a
//! correctness check of the closed forms; under a non-uniform dwell
//! model the divergence quantifies how much assumption (b) distorts
//! that scenario. This module fans the pairs out across the shared
//! campaign worker pool, keeping results in scenario order.
//!
//! The fan-out honours the campaign cancellation token: a raised token
//! (the CLI's Ctrl-C handler) aborts in-flight pairs *mid-scenario* —
//! the exact side polls the flag at block granularity — instead of
//! letting a minutes-long pair run to completion first.

use std::sync::atomic::Ordering;

use dnnlife_core::{cross_validate_with, CrossValidation, ExperimentSpec, RunOptions};
use dnnlife_telemetry::SpanId;

use crate::executor::{execute_shared_pool, requested_threads};
use crate::CampaignOptions;

/// Runs [`dnnlife_core::cross_validate_with`] for every scenario on the
/// shared pool, returning results in scenario order.
///
/// Of `options`, `threads` is the two-level budget (each pair gets its
/// share of spare threads), `shards` the exact-side word-shard policy
/// (the documented tolerances hold for every shard count), and
/// `cancel` the external token. `resume` and `verbose` do not apply:
/// validation has no store. Each pair runs under a root `scenario`
/// trace span, its simulator counters accumulate into
/// `options.instrumentation`'s telemetry, and each finished pair ticks
/// its progress reporter. Never semantic.
///
/// Returns `None` iff `options.cancel` was raised before every pair
/// finished. Completed pairs are discarded in that case — a
/// cross-validation report is only meaningful over the whole grid.
pub fn validate_scenarios(
    scenarios: &[ExperimentSpec],
    options: &CampaignOptions,
) -> Option<Vec<CrossValidation>> {
    let instr = options.instrumentation;
    let telemetry = instr.telemetry();
    if let Some(progress) = instr.progress {
        progress.set_total(scenarios.len());
    }
    let mut slots: Vec<Option<CrossValidation>> = vec![None; scenarios.len()];
    execute_shared_pool(
        scenarios,
        requested_threads(options.threads),
        options.cancel,
        |spec, _index, threads, cancel| {
            let span = telemetry.span_start("scenario", SpanId::NONE);
            let opts = RunOptions {
                threads,
                shards: options.shards,
                cancel: Some(cancel),
                telemetry: instr.telemetry,
                parent_span: span,
            };
            let cv = cross_validate_with(spec, &opts);
            telemetry.span_end(span);
            cv
        },
        |index, cv| {
            slots[index] = Some(cv);
            instr.tick();
            true
        },
    );
    if let Some(progress) = instr.progress {
        progress.finish();
    }
    if options
        .cancel
        .is_some_and(|flag| flag.load(Ordering::Relaxed))
    {
        return None;
    }
    Some(
        slots
            .into_iter()
            .map(|slot| slot.expect("every scenario validated"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CampaignGrid, SweepOptions};
    use dnnlife_core::SimulatorBackend;

    #[test]
    fn validate_preserves_scenario_order_and_tolerances() {
        let grid = CampaignGrid::fig11(SweepOptions {
            sample_stride: 1024,
            inferences: 8,
            backend: SimulatorBackend::Exact,
            ..SweepOptions::default()
        });
        let subset: Vec<_> = grid.scenarios.into_iter().take(4).collect();
        let options = CampaignOptions {
            threads: 2,
            ..CampaignOptions::default()
        };
        let results = validate_scenarios(&subset, &options).expect("no cancel token");
        assert_eq!(results.len(), subset.len());
        for (spec, cv) in subset.iter().zip(&results) {
            assert!(cv.label.contains(spec.network.display_name()));
            assert!(cv.within_tolerance(), "{}: {cv:?}", cv.label);
        }
    }

    #[test]
    fn pre_raised_cancel_aborts_validation_promptly() {
        // Scenario pairs whose exact side would run for minutes; a
        // pre-raised token must return None near-instantly.
        let grid = CampaignGrid::fig11(SweepOptions {
            sample_stride: 4,
            inferences: 50_000,
            backend: SimulatorBackend::Exact,
            ..SweepOptions::default()
        });
        let flag = std::sync::atomic::AtomicBool::new(true);
        let started = std::time::Instant::now();
        let options = CampaignOptions {
            threads: 2,
            cancel: Some(&flag),
            ..CampaignOptions::default()
        };
        let result = validate_scenarios(&grid.scenarios, &options);
        assert!(result.is_none());
        assert!(
            started.elapsed().as_secs() < 30,
            "cancelled validation took {:?}",
            started.elapsed()
        );
    }
}
