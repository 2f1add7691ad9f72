//! The per-day oracles the benchmark checks labels against.
//!
//! Cold days: the batch `MawilabPipeline::run` on the same input.
//! Warm days: batch `MawilabPipeline` has no warm mode, so the oracle
//! is its batch form with the warm hooks added — whole-trace detector
//! observation, batch `extract_traffic` and batch
//! `label_communities`, with the same `WarmState` calls `run_warm`
//! makes. With nothing carried it is `MawilabPipeline::run` step for
//! step.

use super::view;
use super::workload::{Day, DayInput, Inputs};
use mawilab_bench::archive::DEFAULT_WARM_DECAY;
use mawilab_combiner::{label_confidences, VoteTable};
use mawilab_core::{MawilabPipeline, PipelineConfig, WarmState};
use mawilab_detectors::{standard_configurations, ChunkView, TraceView};
use mawilab_label::label_communities;
use mawilab_model::{FlowTable, Trace};
use mawilab_similarity::extract_traffic;

/// The oracle's label view of every day; `None` where the input
/// could not be loaded. Cold days are independent, so they fan out
/// over the days.
pub fn views(config: &PipelineConfig, inputs: &Inputs) -> Vec<Option<u64>> {
    if inputs.warm {
        let mut warm = WarmState::new(DEFAULT_WARM_DECAY);
        return inputs
            .days
            .iter()
            .map(|day| Some(batch_warm(config, &whole_trace(day)?, &mut warm)))
            .collect();
    }
    let batch = MawilabPipeline::new(config.clone());
    mawilab_exec::par_map(&inputs.days, |day| {
        let r = batch.run(&whole_trace(day)?);
        Some(view::render(
            &r.communities,
            &r.decisions,
            &r.labeled.communities,
        ))
    })
}

fn whole_trace(day: &Day) -> Option<Trace> {
    day.load()
        .and_then(DayInput::into_trace)
        .map_err(|e| eprintln!("{}: oracle input unreadable: {e}", day.date))
        .ok()
}

fn batch_warm(config: &PipelineConfig, trace: &Trace, warm: &mut WarmState) -> u64 {
    let flows = FlowTable::build(&trace.packets);
    let view = TraceView::new(trace, &flows);
    warm.begin_day(trace.meta.era, trace.meta.date);
    let carried: &WarmState = warm;
    let runs = mawilab_exec::par_map(&standard_configurations(), |detector| {
        let mut inc = detector.incremental();
        let label = inc.label();
        inc.warm_begin(
            &trace.meta,
            carried.prior_for(&label),
            carried.effective_decay(),
        );
        inc.observe(&ChunkView::whole_trace(trace));
        let alarms = inc.finish();
        (label, alarms, inc.export_prior())
    });
    let mut alarms = Vec::new();
    for (label, found, prior) in runs {
        alarms.extend(found);
        warm.absorb_prior(label, prior);
    }
    let traffic = extract_traffic(&view, &alarms, config.granularity);
    let seed = warm.seed_for(&alarms);
    let (communities, _) =
        config
            .estimator()
            .estimate_from_traffic_seeded(alarms, traffic, seed.as_ref());
    warm.absorb_day(&communities);
    let votes = VoteTable::from_communities(&communities);
    let decisions = config.strategy.build().classify(&votes);
    let confidences = label_confidences(&votes, &decisions, config.confidence_thresholds);
    let labeled = label_communities(
        &view,
        &communities,
        &decisions,
        &confidences,
        config.min_support,
    );
    view::render(&communities, &decisions, &labeled)
}
