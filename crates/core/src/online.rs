//! The single-pass online MAWILab pipeline: one drain, labels on a
//! sliding horizon.
//!
//! A live link cannot be replayed, so [`OnlinePipeline`] labels a
//! source in **one drain**: as each chunk streams past, every
//! detector family's accumulator observes it *and* the extraction/labeling
//! evidence is banked (traffic-unit ids from the incremental
//! `ItemIndex`, compact `(FlowKey, ts, id)` records in the
//! [`HorizonExtractor`], monoidal per-unit [`CommunityEvidence`]
//! profiles). Nothing is ever re-read: a
//! [`NoRewindSource`](mawilab_model::NoRewindSource)-wrapped source
//! completes a whole archive sweep with zero rewind calls. Its
//! equivalence oracle is the batch
//! [`MawilabPipeline::run`](crate::MawilabPipeline::run) on the
//! materialised trace.
//!
//! ## The sliding horizon
//!
//! ```text
//!  stream ──► chunk chunk chunk chunk chunk chunk ─ ─ ─►
//!             └─────────────┘ └───────────┘
//!               retired (past   fresh (inside
//!               the lag):        the lag): raw
//!               compact per-     per-chunk
//!               flow runs        records
//!                      ▲                   ▲
//!                      │◄───── lag ───────►│ high-water mark
//! ```
//!
//! The lag governs **evidence retention**, not alarm timing: the
//! paper's detectors calibrate on whole-trace state (PCA subspace,
//! Gamma fits, KL reference histograms), so alarms finalize at end of
//! stream and byte-identity with the batch oracle holds at *every*
//! lag — `lag = 0` (all evidence compacted on arrival) through
//! `lag ≥ stream` (all evidence raw) produce identical labels, which
//! `tests/online_equivalence.rs` pins across seeds × chunk widths ×
//! thread counts.
//!
//! ## Per-horizon emission
//!
//! Labels are published as [`LabeledWindow`]s on a fixed horizon grid
//! (default [`DEFAULT_HORIZON_US`]): window *W* seals when the
//! high-water mark passes `W.end + lag`, so on a dense stream the
//! label latency is bounded by **lag + one chunk** (an empty-bin gap
//! defers the seal to the next traffic, like any event-driven
//! system). Windows not yet sealed when the stream ends seal at
//! end-of-stream with `sealed_by_finish` set. The flattened windows
//! are exactly the run's labeled communities — emission re-buckets,
//! it never re-labels.

use crate::pipeline::{LabeledReport, PipelineConfig, PipelineTimings};
use crate::warm::WarmState;
use mawilab_combiner::{label_confidences, Decision, VoteTable};
use mawilab_detectors::{standard_configurations, ChunkView, Detector, FamilyRun};
use mawilab_label::{
    label_communities_streaming, window_communities, CommunityEvidence, LabeledWindow,
};
use mawilab_model::{ItemIndex, PacketSource, SourceError};
use mawilab_similarity::{AlarmCommunities, HorizonExtractor, HorizonStats};
use std::time::Instant;

/// Default evidence-retention lag: 30 s — six default chunks, two
/// orders of magnitude below a day, comfortably above every
/// detector's analysis bin.
pub const DEFAULT_LAG_US: u64 = 30_000_000;

/// Default horizon window width: 60 s of labels per emission.
pub const DEFAULT_HORIZON_US: u64 = 60_000_000;

/// Chunk/packet counters of one full drain of a source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Chunks the drain consumed.
    pub chunks: usize,
    /// Packets the drain consumed.
    pub packets: u64,
}

/// Ingest statistics of one streaming run, kept per drain. The
/// single-pass [`OnlinePipeline`] records exactly one drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// One entry per drain of the source, in drain order.
    pub drains: Vec<DrainStats>,
    /// Evidence-retention lag of the sliding horizon.
    pub horizon_lag_us: Option<u64>,
    /// Largest number of packets alive at once — the size of the
    /// biggest single chunk. This is the constant-memory bound.
    pub peak_chunk_packets: usize,
    /// Distinct traffic units assigned during extraction.
    pub items: usize,
    /// Detector accumulators the drain fed: one per family for the
    /// standard configurations, however many tunings share it.
    pub accumulators: usize,
}

impl StreamStats {
    /// Number of times the source was drained (1 = single-pass).
    pub fn passes(&self) -> usize {
        self.drains.len()
    }

    /// Chunks of the stream, as seen by the first drain.
    pub fn chunks(&self) -> usize {
        self.drains.first().map_or(0, |d| d.chunks)
    }

    /// Packets of the stream, as seen by the first drain.
    pub fn packets(&self) -> u64 {
        self.drains.first().map_or(0, |d| d.packets)
    }

    /// Total packets pulled across **all** drains — the real ingest
    /// cost.
    pub fn packets_drained(&self) -> u64 {
        self.drains.iter().map(|d| d.packets).sum()
    }
}

/// Everything the streaming pipeline produced for one stream.
#[derive(Debug)]
pub struct StreamingReport {
    /// Step-2 output: alarms, traffic sets, graph, partition.
    pub communities: AlarmCommunities,
    /// Step-3 input: the 12-configuration vote table.
    pub votes: VoteTable,
    /// Step-3 output: one decision per community.
    pub decisions: Vec<Decision>,
    /// Step-4 output: labeled communities.
    pub labeled: LabeledReport,
    /// Wall-clock accounting (detect = the drain, extract = the
    /// end-of-stream resolve, then graph / Louvain / combine / label).
    pub timings: PipelineTimings,
    /// Ingest statistics.
    pub stats: StreamStats,
}

impl StreamingReport {
    /// Total number of alarms the detectors raised.
    pub fn alarm_count(&self) -> usize {
        self.communities.alarms.len()
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.communities.community_count()
    }
}

/// Everything one single-pass run produced: the full
/// [`StreamingReport`] plus the per-horizon label feed.
#[derive(Debug)]
pub struct OnlineReport {
    /// The run's report — its alarms, traffic sets, votes, decisions
    /// and labels are byte-identical to what the batch
    /// [`MawilabPipeline::run`](crate::MawilabPipeline::run) produces
    /// on the materialised stream.
    pub report: StreamingReport,
    /// The label feed: one [`LabeledWindow`] per horizon window, in
    /// window order. Flattening their communities reproduces
    /// `report.labeled.communities` exactly.
    pub windows: Vec<LabeledWindow>,
    /// The evidence-retention lag the run used, µs.
    pub lag_us: u64,
    /// The horizon window width, µs.
    pub horizon_us: u64,
    /// Retire/fresh accounting of the horizon extractor.
    pub horizon_stats: HorizonStats,
}

impl OnlineReport {
    /// Largest label latency across windows sealed by the moving
    /// high-water mark (finish-sealed windows measure stream end, not
    /// the horizon mechanism).
    pub fn max_sealed_latency_us(&self) -> u64 {
        self.windows
            .iter()
            .filter(|w| !w.sealed_by_finish)
            .map(|w| w.latency_us())
            .max()
            .unwrap_or(0)
    }
}

/// Tracks which horizon windows the stream's high-water mark has
/// sealed, and when.
struct SealTracker {
    origin_us: u64,
    horizon_us: u64,
    lag_us: u64,
    high_water_us: u64,
    /// Seal time of window `k`, for `k < sealed.len()`; later windows
    /// are still open.
    sealed: Vec<u64>,
}

impl SealTracker {
    fn new(origin_us: u64, horizon_us: u64, lag_us: u64) -> Self {
        SealTracker {
            origin_us,
            horizon_us,
            lag_us,
            high_water_us: origin_us,
            sealed: Vec::new(),
        }
    }

    /// Window `k`'s nominal end.
    fn window_end(&self, k: usize) -> u64 {
        self.origin_us + (k as u64 + 1) * self.horizon_us
    }

    /// Advances the high-water mark to a chunk end, sealing every
    /// window whose `end + lag` it passed.
    fn advance(&mut self, chunk_end_us: u64) {
        let before_us = self.high_water_us;
        self.high_water_us = self.high_water_us.max(chunk_end_us);
        debug_assert!(
            self.high_water_us >= before_us,
            "watermark must be monotone non-decreasing"
        );
        while self
            .window_end(self.sealed.len())
            .saturating_add(self.lag_us)
            <= self.high_water_us
        {
            self.sealed.push(self.high_water_us);
        }
        debug_assert!(
            self.sealed.windows(2).all(|w| w[0] <= w[1]),
            "seal times must be monotone non-decreasing"
        );
        debug_assert!(
            self.sealed.last().is_none_or(|&s| s <= self.high_water_us),
            "a window cannot seal after the watermark that sealed it"
        );
    }

    /// Horizon windows needed to cover the stream (and any community
    /// span start).
    fn window_count(&self, max_community_start_us: Option<u64>) -> usize {
        let cover_end = self
            .high_water_us
            .max(max_community_start_us.map_or(0, |s| s + 1));
        if cover_end <= self.origin_us {
            return 0;
        }
        ((cover_end - self.origin_us).div_ceil(self.horizon_us)) as usize
    }
}

/// The end-to-end single-pass MAWILab pipeline.
pub struct OnlinePipeline {
    config: PipelineConfig,
    detectors: Vec<Box<dyn Detector>>,
    lag_us: u64,
    horizon_us: u64,
}

impl OnlinePipeline {
    /// Builds the pipeline with the paper's 12 standard detector
    /// configurations and the default lag/horizon.
    pub fn new(config: PipelineConfig) -> Self {
        OnlinePipeline {
            config,
            detectors: standard_configurations(),
            lag_us: DEFAULT_LAG_US,
            horizon_us: DEFAULT_HORIZON_US,
        }
    }

    /// Replaces the detector set (any [`Detector`] works; configurations
    /// with equal accumulator specs share one accumulator).
    pub fn with_detectors(mut self, detectors: Vec<Box<dyn Detector>>) -> Self {
        self.detectors = detectors;
        self
    }

    /// Sets the evidence-retention lag (µs). Labels are byte-identical
    /// at any lag; the lag trades raw-evidence memory against how
    /// long a hypothetical early-finalizing detector set could still
    /// reach back.
    pub fn with_lag_us(mut self, lag_us: u64) -> Self {
        self.lag_us = lag_us;
        self
    }

    /// Sets the horizon window width (µs) of the label feed.
    pub fn with_horizon_us(mut self, horizon_us: u64) -> Self {
        assert!(horizon_us > 0, "horizon width must be positive");
        self.horizon_us = horizon_us;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Drains the source **once** and runs all four steps. Never
    /// calls [`rewind`](PacketSource::rewind).
    pub fn run<S: PacketSource + ?Sized>(
        &self,
        source: &mut S,
    ) -> Result<OnlineReport, SourceError> {
        self.run_warm(source, None)
    }

    /// [`run`](Self::run) with day-over-day warm state: detector
    /// finishes blend their baselines with the carried priors
    /// ([`FamilyRun::finish`]), the Louvain
    /// stage is seeded from yesterday's communities, and the finished
    /// day's state is absorbed back for tomorrow. `None` — or warm
    /// state with `decay == 0.0` — is the cold path, byte for byte.
    pub fn run_warm<S: PacketSource + ?Sized>(
        &self,
        source: &mut S,
        mut warm: Option<&mut WarmState>,
    ) -> Result<OnlineReport, SourceError> {
        let meta = source.meta().clone();
        let origin_us = meta.window().start_us;
        let mut stats = StreamStats {
            horizon_lag_us: Some(self.lag_us),
            ..Default::default()
        };
        let mut drain = DrainStats::default();

        // The one drain: the family accumulators observe each chunk
        // (detector state is chunk-boundary invariant, so every alarm
        // equals the batch run's), while the extraction/labeling
        // evidence is banked alongside.
        let t0 = Instant::now();
        if let Some(w) = warm.as_deref_mut() {
            w.begin_day(meta.era, meta.date);
        }
        let mut detectors = FamilyRun::begin(&self.detectors, &meta);
        stats.accumulators = detectors.accumulator_count();
        let mut index = ItemIndex::new(self.config.granularity);
        let mut evidence = CommunityEvidence::new(self.config.granularity);
        let mut horizon = HorizonExtractor::new(self.lag_us);
        let mut seals = SealTracker::new(origin_us, self.horizon_us, self.lag_us);
        let mut ids: Vec<u32> = Vec::new();
        while let Some(chunk) = source.next_chunk()? {
            drain.chunks += 1;
            drain.packets += chunk.packets.len() as u64;
            stats.peak_chunk_packets = stats.peak_chunk_packets.max(chunk.packets.len());
            detectors.observe(&ChunkView::of_chunk(&meta, chunk));
            index.ids_of(&chunk.packets, &mut ids);
            horizon.observe(chunk.window, &chunk.packets, &ids);
            evidence.observe_units(&chunk.packets, &ids);
            seals.advance(chunk.window.end_us);
        }
        // The gap-compounded decay: a multi-day calendar gap shrinks
        // yesterday's priors by decay^gap, so an epoch jump is
        // effectively a cold start.
        let finished = match warm.as_deref() {
            Some(w) => detectors.finish(|label| w.prior_for(label), w.effective_decay()),
            None => detectors.finish(|_| None, 0.0),
        };
        if let Some(w) = warm.as_deref_mut() {
            for (label, prior) in finished.priors {
                w.absorb_prior(label, prior);
            }
        }
        let alarms = finished.alarms;
        stats.drains = vec![drain];
        let detect = t0.elapsed();

        // End of stream: resolve the finished alarms against the
        // banked evidence.
        let t1 = Instant::now();
        let resolved = horizon.finalize(&alarms);
        evidence.retain_matched(&resolved.matched);
        stats.items = index.item_count();
        let horizon_stats = resolved.stats;
        let extract = t1.elapsed();

        // Steps 2–4: the batch pipeline's own code. Warm state
        // only *seeds* Louvain — the similarity graph itself is built
        // exactly as in the cold path, so the fixed point refinement
        // converges to is still a cold-reachable partition. At zero
        // decay (or no warm state) the seed is `None` and the cold
        // path runs, byte for byte.
        let seed = warm.as_deref_mut().and_then(|w| w.seed_for(&alarms));
        let (communities, mining) = self.config.estimator().estimate_from_traffic_seeded(
            alarms,
            resolved.traffic,
            seed.as_ref(),
        );
        if let Some(w) = warm {
            w.absorb_day(&communities);
        }

        let t2 = Instant::now();
        let votes = VoteTable::from_communities(&communities);
        let decisions = self.config.strategy.build().classify(&votes);
        let confidences = label_confidences(&votes, &decisions, self.config.confidence_thresholds);
        let combine = t2.elapsed();

        let t3 = Instant::now();
        let labeled = LabeledReport {
            communities: label_communities_streaming(
                meta.window(),
                &index,
                &evidence,
                &communities,
                &decisions,
                &confidences,
                self.config.min_support,
            ),
        };
        let label = t3.elapsed();

        // Bucket the labels onto the horizon grid and attach seal
        // times. Stream end seals every still-open window.
        let max_start = labeled.communities.iter().map(|c| c.window.start_us).max();
        let n_windows = seals.window_count(max_start);
        let stream_end_us = seals.high_water_us;
        let windows: Vec<LabeledWindow> =
            window_communities(origin_us, self.horizon_us, n_windows, &labeled.communities)
                .into_iter()
                .enumerate()
                .map(|(k, communities)| LabeledWindow {
                    window: mawilab_model::chunk_window(origin_us, self.horizon_us, k as u64),
                    sealed_at_us: seals.sealed.get(k).copied().unwrap_or(stream_end_us),
                    sealed_by_finish: k >= seals.sealed.len(),
                    communities,
                })
                .collect();
        // Count watermark seals that landed before their window's end
        // — the clock inversion `latency_us` used to clamp to 0.
        // Always 0 by `SealTracker` construction; a tripwire stat, not
        // an expected population.
        let mut horizon_stats = horizon_stats;
        horizon_stats.negative_latency =
            windows.iter().filter(|w| w.sealed_before_end()).count() as u64;

        Ok(OnlineReport {
            report: StreamingReport {
                communities,
                votes,
                decisions,
                labeled,
                timings: PipelineTimings {
                    detect,
                    extract,
                    graph: mining.graph,
                    louvain: mining.louvain,
                    combine,
                    label,
                },
                stats,
            },
            windows,
            lag_us: self.lag_us,
            horizon_us: self.horizon_us,
            horizon_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MawilabPipeline;
    use mawilab_model::{NoRewindSource, TraceChunker, DEFAULT_CHUNK_US};
    use mawilab_synth::{SynthConfig, TraceGenerator};

    fn small_trace() -> mawilab_synth::LabeledTrace {
        TraceGenerator::new(SynthConfig::default().with_seed(99)).generate()
    }

    #[test]
    fn single_pass_report_matches_batch_through_a_sealed_source() {
        let lt = small_trace();
        let config = PipelineConfig::default();
        let oracle = MawilabPipeline::new(config.clone()).run(&lt.trace);

        let mut source = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US));
        let online = OnlinePipeline::new(config).run(&mut source).unwrap();
        assert_eq!(source.rewinds_refused(), 0, "single-pass must never rewind");

        assert_eq!(online.report.communities.alarms, oracle.communities.alarms);
        assert_eq!(
            online.report.communities.traffic,
            oracle.communities.traffic
        );
        assert_eq!(online.report.votes, oracle.votes);
        assert_eq!(online.report.decisions, oracle.decisions);
        assert_eq!(
            online.report.labeled.communities.len(),
            oracle.labeled.communities.len()
        );
        // Ingest accounting: one drain of the whole stream.
        assert_eq!(online.report.stats.passes(), 1);
        assert!(
            online.report.stats.chunks() > 1,
            "expected a multi-chunk stream"
        );
        assert_eq!(online.report.stats.packets(), lt.trace.len() as u64);
        assert_eq!(
            online.report.stats.packets_drained(),
            online.report.stats.packets()
        );
        assert!(online.report.stats.peak_chunk_packets < lt.trace.len());
        assert_eq!(online.report.stats.horizon_lag_us, Some(DEFAULT_LAG_US));
        // The 12 standard configurations share one accumulator per
        // family.
        assert_eq!(online.report.stats.accumulators, 4);
    }

    #[test]
    fn windows_flatten_back_to_the_labeled_communities() {
        let lt = small_trace();
        let mut source = TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US);
        let online = OnlinePipeline::new(PipelineConfig::default())
            .run(&mut source)
            .unwrap();
        assert!(!online.windows.is_empty());
        let flattened: Vec<usize> = online
            .windows
            .iter()
            .flat_map(|w| &w.communities)
            .map(|c| c.community)
            .collect();
        let direct: Vec<usize> = online
            .report
            .labeled
            .communities
            .iter()
            .map(|c| c.community)
            .collect();
        assert_eq!(flattened, direct, "emission re-buckets, never re-labels");
        // Interior windows hold exactly the communities whose span
        // starts inside them (window 0 / the last window also absorb
        // off-grid folds).
        let last = online.windows.len() - 1;
        for (k, w) in online.windows.iter().enumerate() {
            for c in &w.communities {
                let in_window = w.window.contains(c.window.start_us);
                let folded_front = k == 0 && c.window.start_us < w.window.start_us;
                let folded_back = k == last && c.window.start_us >= w.window.end_us;
                assert!(
                    in_window || folded_front || folded_back,
                    "community start {} outside window {:?}",
                    c.window.start_us,
                    w.window
                );
            }
        }
    }

    #[test]
    fn seal_latency_is_bounded_by_lag_plus_one_chunk_on_a_dense_stream() {
        // The default synth trace is 60 s — shrink the horizon so
        // several windows seal while the stream is still flowing.
        let lt = small_trace();
        let lag = 5_000_000;
        let horizon = 10_000_000;
        let mut source = TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US);
        let online = OnlinePipeline::new(PipelineConfig::default())
            .with_lag_us(lag)
            .with_horizon_us(horizon)
            .run(&mut source)
            .unwrap();
        let sealed: Vec<&LabeledWindow> = online
            .windows
            .iter()
            .filter(|w| !w.sealed_by_finish)
            .collect();
        assert!(
            !sealed.is_empty(),
            "no window sealed by the high-water mark"
        );
        for w in &sealed {
            assert!(
                w.latency_us() <= lag + DEFAULT_CHUNK_US,
                "window {:?} latency {} exceeds lag + one chunk",
                w.window,
                w.latency_us()
            );
        }
        assert!(online.max_sealed_latency_us() <= lag + DEFAULT_CHUNK_US);
        // The trailing lag's worth of windows seals at stream end.
        assert!(online.windows.iter().any(|w| w.sealed_by_finish));
    }

    #[test]
    fn warm_run_at_zero_decay_matches_cold_run() {
        let lt = small_trace();
        let config = PipelineConfig::default();
        let mut cold_source = TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US);
        let cold = OnlinePipeline::new(config.clone())
            .run(&mut cold_source)
            .unwrap();

        let mut warm_state = WarmState::new(0.0);
        let mut source = TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US);
        let warm = OnlinePipeline::new(config)
            .run_warm(&mut source, Some(&mut warm_state))
            .unwrap();

        assert_eq!(
            warm.report.communities.alarms,
            cold.report.communities.alarms
        );
        assert_eq!(
            warm.report.communities.partition,
            cold.report.communities.partition
        );
        assert_eq!(warm.report.votes, cold.report.votes);
        assert_eq!(warm.report.decisions, cold.report.decisions);
        assert_eq!(warm_state.days(), 1);
        assert_eq!(warm_state.seeded_days(), 0, "zero decay must never seed");
        assert_eq!(warm_state.carried_signatures(), 0);
    }

    #[test]
    fn warm_state_carries_priors_and_communities_across_days() {
        let config = PipelineConfig::default();
        let pipeline = OnlinePipeline::new(config);
        let mut warm = WarmState::new(0.5);
        for seed in [99u64, 100] {
            let lt = TraceGenerator::new(SynthConfig::default().with_seed(seed)).generate();
            let mut source = TraceChunker::new(lt.trace.clone(), DEFAULT_CHUNK_US);
            pipeline.run_warm(&mut source, Some(&mut warm)).unwrap();
        }
        assert_eq!(warm.days(), 2);
        assert!(
            warm.carried_signatures() > 0,
            "an alarming day must leave a community carry"
        );
        assert!(
            warm.prior_for("PCA/optimal").is_some(),
            "PCA baselines must be carried"
        );
    }

    #[test]
    fn empty_stream_yields_no_windows() {
        let meta = mawilab_model::TraceMeta::standard(mawilab_model::TraceDate::new(2004, 6, 2));
        let trace = mawilab_model::Trace::new(meta, vec![]);
        let mut source = TraceChunker::new(trace, DEFAULT_CHUNK_US);
        let online = OnlinePipeline::new(PipelineConfig::default())
            .run(&mut source)
            .unwrap();
        assert_eq!(online.report.alarm_count(), 0);
        assert!(online.windows.is_empty());
        assert_eq!(online.report.stats.chunks(), 0);
        assert_eq!(online.report.stats.passes(), 1);
    }
}
