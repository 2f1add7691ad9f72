//! The traced replay: `OnlinePipeline::run_warm` re-enacted from the
//! benchmark's side, calling each layer's public functions in the
//! order `online.rs` calls them and timing every call.
//!
//! Detector configurations run one after another here (the real run
//! fans them out), so the sum of all spans is the single-threaded
//! cost of the day. The replay skips only the horizon-window
//! emission, which re-buckets finished labels and changes none. Its
//! label view must equal the untraced run's on every day before any
//! layer number is reported.

use super::report::Metric;
use super::view;
use super::workload::{DayInput, Inputs};
use mawilab_bench::archive::DEFAULT_WARM_DECAY;
use mawilab_combiner::{label_confidences, VoteTable};
use mawilab_core::{OnlinePipeline, PipelineConfig, WarmState, DEFAULT_LAG_US};
use mawilab_detectors::{standard_configurations, ChunkView, IncrementalDetector};
use mawilab_graph::{louvain, louvain_seeded};
use mawilab_label::{label_communities_streaming, CommunityEvidence, MawilabLabel};
use mawilab_model::{ItemIndex, PacketSource, SourceError};
use mawilab_similarity::{AlarmCommunities, HorizonExtractor};
use std::time::Instant;

/// Runs `f`, adding its wall time to `acc` (seconds).
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Per-layer spans (seconds) and counts, summed over the replayed
/// days. Field names follow the metric names.
#[derive(Default)]
pub struct Layers {
    /// `<family>.<tuning>` of each detector configuration, in
    /// configuration order.
    configs: Vec<String>,
    // model
    next_chunk_s: f64,
    ids_of_s: f64,
    packets: f64,
    chunks: f64,
    items: f64,
    // detectors, per configuration
    begin_s: f64,
    observe_s: Vec<f64>,
    finish_s: Vec<f64>,
    alarms: Vec<f64>,
    // similarity
    horizon_observe_s: f64,
    horizon_finalize_s: f64,
    build_graph_s: f64,
    retired_records: f64,
    fresh_records: f64,
    retired_flows: f64,
    edges: f64,
    matched_units: f64,
    // graph
    louvain_s: f64,
    assemble_s: f64,
    communities: f64,
    // combiner
    classify_s: f64,
    confidence_s: f64,
    accepted: f64,
    // label
    evidence_observe_s: f64,
    evidence_retain_s: f64,
    label_communities_s: f64,
    labeled: f64,
    anomalous: f64,
    // warm
    prior_s: f64,
    seed_s: f64,
    absorb_day_s: f64,
    seeded_days: f64,
}

impl Layers {
    pub fn new() -> Self {
        let configs: Vec<String> = standard_configurations()
            .iter()
            .map(|d| format!("{}.{}", d.kind().to_string().to_lowercase(), d.tuning()))
            .collect();
        let n = configs.len();
        Layers {
            configs,
            observe_s: vec![0.0; n],
            finish_s: vec![0.0; n],
            alarms: vec![0.0; n],
            ..Layers::default()
        }
    }

    /// Every span, for the sequential total.
    fn spans(&self) -> impl Iterator<Item = f64> + '_ {
        [
            self.next_chunk_s,
            self.ids_of_s,
            self.begin_s,
            self.horizon_observe_s,
            self.horizon_finalize_s,
            self.build_graph_s,
            self.louvain_s,
            self.assemble_s,
            self.classify_s,
            self.confidence_s,
            self.evidence_observe_s,
            self.evidence_retain_s,
            self.label_communities_s,
            self.prior_s,
            self.seed_s,
            self.absorb_day_s,
        ]
        .into_iter()
        .chain(self.observe_s.iter().copied())
        .chain(self.finish_s.iter().copied())
    }

    /// The per-layer metrics as means per round, from sums over
    /// `rounds` replays; `untraced_wall_s` is the labeling wall time
    /// of the untraced passes over the same days.
    pub fn metrics(&self, rounds: f64, untraced_wall_s: f64) -> Vec<Metric> {
        let mut m = vec![
            Metric::new("model.next_chunk_s", self.next_chunk_s, "s"),
            Metric::new("model.ids_of_s", self.ids_of_s, "s"),
            Metric::new("model.packets", self.packets, "count"),
            Metric::new("model.chunks", self.chunks, "count"),
            Metric::new("model.items", self.items, "count"),
            Metric::new("detectors.begin_s", self.begin_s, "s"),
        ];
        for (k, config) in self.configs.iter().enumerate() {
            let name = |what: &str| format!("detectors.{config}.{what}");
            m.push(Metric::new(&name("observe_s"), self.observe_s[k], "s"));
            m.push(Metric::new(&name("finish_s"), self.finish_s[k], "s"));
            m.push(Metric::new(&name("alarms"), self.alarms[k], "count"));
        }
        let traced_total_s: f64 = self.spans().sum();
        m.extend([
            Metric::new("similarity.horizon_observe_s", self.horizon_observe_s, "s"),
            Metric::new(
                "similarity.horizon_finalize_s",
                self.horizon_finalize_s,
                "s",
            ),
            Metric::new("similarity.build_graph_s", self.build_graph_s, "s"),
            Metric::new("similarity.retired_records", self.retired_records, "count"),
            Metric::new("similarity.fresh_records", self.fresh_records, "count"),
            Metric::new("similarity.retired_flows", self.retired_flows, "count"),
            Metric::new("similarity.edges", self.edges, "count"),
            Metric::new(
                "similarity.matched_frac",
                self.matched_units / self.items.max(1.0),
                "ratio",
            ),
            Metric::new("graph.louvain_s", self.louvain_s, "s"),
            Metric::new("graph.assemble_s", self.assemble_s, "s"),
            Metric::new("graph.communities", self.communities, "count"),
            Metric::new("combiner.classify_s", self.classify_s, "s"),
            Metric::new("combiner.confidence_s", self.confidence_s, "s"),
            Metric::new("combiner.accepted", self.accepted, "count"),
            Metric::new("label.evidence_observe_s", self.evidence_observe_s, "s"),
            Metric::new("label.evidence_retain_s", self.evidence_retain_s, "s"),
            Metric::new("label.label_communities_s", self.label_communities_s, "s"),
            Metric::new("label.labeled", self.labeled, "count"),
            Metric::new("label.anomalous", self.anomalous, "count"),
            Metric::new("warm.prior_s", self.prior_s, "s"),
            Metric::new("warm.seed_s", self.seed_s, "s"),
            Metric::new("warm.absorb_day_s", self.absorb_day_s, "s"),
            Metric::new("warm.seeded_days", self.seeded_days, "count"),
            Metric::new("exec.traced_total_s", traced_total_s, "s"),
            Metric::new("exec.untraced_wall_s", untraced_wall_s, "s"),
            Metric::new(
                "exec.fanout_gain",
                traced_total_s / untraced_wall_s.max(1e-12),
                "ratio",
            ),
        ]);
        for metric in m.iter_mut().filter(|m| m.unit != "ratio") {
            metric.value /= rounds;
        }
        m
    }
}

/// Replays every day of the workload (one fresh warm state per pass
/// on `archive-warm`, as in the untraced pass), returning each day's
/// label view.
pub fn replay_pass(
    pipeline: &OnlinePipeline,
    inputs: &Inputs,
    layers: &mut Layers,
) -> Vec<Option<u64>> {
    let mut warm = inputs.warm.then(|| WarmState::new(DEFAULT_WARM_DECAY));
    let views = inputs
        .days
        .iter()
        .map(|day| {
            let replayed = day.load().and_then(|input| {
                replay_day(pipeline.config(), &input, warm.as_mut(), layers)
                    .map_err(|e| e.to_string())
            });
            replayed
                .map_err(|e| eprintln!("{}: traced replay failed: {e}", day.date))
                .ok()
        })
        .collect();
    if let Some(w) = &warm {
        layers.seeded_days += w.seeded_days() as f64;
    }
    views
}

/// One day of `OnlinePipeline::run_warm`, layer by layer.
fn replay_day(
    config: &PipelineConfig,
    input: &DayInput,
    mut warm: Option<&mut WarmState>,
    l: &mut Layers,
) -> Result<u64, SourceError> {
    let mut source = input.clone().open()?;
    let meta = source.meta().clone();

    if let Some(w) = warm.as_deref_mut() {
        timed(&mut l.prior_s, || w.begin_day(meta.era, meta.date));
    }
    let mut incs: Vec<Box<dyn IncrementalDetector>> = timed(&mut l.begin_s, || {
        let mut incs: Vec<Box<dyn IncrementalDetector>> = standard_configurations()
            .iter()
            .map(|d| d.incremental())
            .collect();
        for inc in &mut incs {
            match warm.as_deref() {
                Some(w) => {
                    let label = inc.label();
                    inc.warm_begin(&meta, w.prior_for(&label), w.effective_decay());
                }
                None => inc.begin(&meta),
            }
        }
        incs
    });
    let mut index = ItemIndex::new(config.granularity);
    let mut evidence = CommunityEvidence::new(config.granularity);
    let mut horizon = HorizonExtractor::new(DEFAULT_LAG_US);
    let mut ids: Vec<u32> = Vec::new();
    loop {
        let t = Instant::now();
        let next = source.next_chunk()?;
        l.next_chunk_s += t.elapsed().as_secs_f64();
        let Some(chunk) = next else { break };
        l.chunks += 1.0;
        l.packets += chunk.packets.len() as f64;
        let view = ChunkView::of_chunk(&meta, chunk);
        for (k, inc) in incs.iter_mut().enumerate() {
            timed(&mut l.observe_s[k], || inc.observe(&view));
        }
        timed(&mut l.ids_of_s, || index.ids_of(&chunk.packets, &mut ids));
        timed(&mut l.horizon_observe_s, || {
            horizon.observe(chunk.window, &chunk.packets, &ids)
        });
        timed(&mut l.evidence_observe_s, || {
            evidence.observe_units(&chunk.packets, &ids)
        });
    }
    let mut alarms = Vec::new();
    for (k, inc) in incs.iter_mut().enumerate() {
        let found = timed(&mut l.finish_s[k], || inc.finish());
        l.alarms[k] += found.len() as f64;
        alarms.extend(found);
    }
    if let Some(w) = warm.as_deref_mut() {
        timed(&mut l.prior_s, || {
            for inc in &mut incs {
                let label = inc.label();
                w.absorb_prior(label, inc.export_prior());
            }
        });
    }
    drop(incs);

    let resolved = timed(&mut l.horizon_finalize_s, || horizon.finalize(&alarms));
    timed(&mut l.evidence_retain_s, || {
        evidence.retain_matched(&resolved.matched)
    });
    l.items += index.item_count() as f64;
    l.matched_units += resolved.matched.len() as f64;
    l.retired_records += resolved.stats.retired_records as f64;
    l.fresh_records += resolved.stats.fresh_records as f64;
    l.retired_flows += resolved.stats.retired_flows as f64;

    let seed = match warm.as_deref_mut() {
        Some(w) => timed(&mut l.seed_s, || w.seed_for(&alarms)),
        None => None,
    };
    let estimator = config.estimator();
    let traffic = resolved.traffic;
    let graph = timed(&mut l.build_graph_s, || estimator.build_graph(&traffic));
    l.edges += graph.edge_count() as f64;
    let partition = timed(&mut l.louvain_s, || match &seed {
        Some(seed) => louvain_seeded(&graph, estimator.resolution, seed),
        None => louvain(&graph, estimator.resolution),
    });
    let communities = timed(&mut l.assemble_s, || {
        AlarmCommunities::new(alarms, traffic, graph, partition, estimator.granularity)
    });
    l.communities += communities.community_count() as f64;
    if let Some(w) = warm {
        timed(&mut l.absorb_day_s, || w.absorb_day(&communities));
    }

    let (votes, decisions) = timed(&mut l.classify_s, || {
        let votes = VoteTable::from_communities(&communities);
        let decisions = config.strategy.build().classify(&votes);
        (votes, decisions)
    });
    l.accepted += decisions.iter().filter(|d| d.accepted).count() as f64;
    let confidences = timed(&mut l.confidence_s, || {
        label_confidences(&votes, &decisions, config.confidence_thresholds)
    });
    let labeled = timed(&mut l.label_communities_s, || {
        label_communities_streaming(
            meta.window(),
            &index,
            &evidence,
            &communities,
            &decisions,
            &confidences,
            config.min_support,
        )
    });
    l.labeled += labeled.len() as f64;
    l.anomalous += labeled
        .iter()
        .filter(|c| c.label == MawilabLabel::Anomalous)
        .count() as f64;
    Ok(view::render(&communities, &decisions, &labeled))
}
