//! # mawilab-detectors
//!
//! From-scratch implementations of the four unsupervised backbone
//! anomaly detectors the paper combines (§3.2), each reporting alarms
//! at its own traffic granularity:
//!
//! | Detector | Technique | Alarm granularity |
//! |---|---|---|
//! | [`pca`]   | random-projection sketches + principal-subspace residuals (Lakhina'04 / Li'06 / Kanda'10) | source host |
//! | [`gamma`] | sketches + multi-resolution Gamma modelling (Dewaele'07) | source *or* destination host |
//! | [`hough`] | Hough-transform line detection on 2-D traffic images (Fontugne & Fukuda'11) | aggregated flow sets |
//! | [`kl`]    | Kullback–Leibler divergence on feature histograms + association rules (Brauckhoff'09) | 4-tuple feature rules |
//!
//! Each detector ships with the paper's **three parameter tunings**
//! (conservative / optimal / sensitive), yielding the 12
//! *configurations* whose votes the combiner consumes.
//! [`standard_configurations`] builds all twelve.
//!
//! A tuning changes only values read after the trace is accumulated
//! (PCA's `k` and threshold, Gamma's λ, Hough's pixel and line
//! thresholds, KL's λ and top cells), so each family is split in two:
//! a tuning-independent [`Accumulator`], begun from an
//! [`AccumulatorSpec`] and fed chunk by chunk, and a per-tuning
//! [`Detector::finish`] that reads it without changing it. Three
//! drivers put the halves together, all over the same code:
//!
//! * [`FamilyRun`] — the production path: one accumulator per family
//!   (4 packet walks per chunk for the standard set, not 12) and 12
//!   tuned finishes;
//! * [`Detector::incremental`] — one configuration over its own
//!   accumulator, chunk by chunk: the oracle `FamilyRun` is pinned to;
//! * [`Detector::analyze`] / [`run_all`] — the batch form, the whole
//!   trace as one chunk, per configuration.
//!
//! Granularity diversity is the whole point: these alarm types cannot
//! be compared naively, which is what motivates the similarity
//! estimator (`mawilab-similarity`).

#![forbid(unsafe_code)]

pub mod alarm;
pub mod gamma;
pub mod hough;
pub mod kl;
pub mod pca;
pub mod warm;

pub use alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
pub use gamma::GammaDetector;
pub use hough::HoughDetector;
pub use kl::KlDetector;
pub use pca::PcaDetector;
pub use warm::{DetectorPrior, GammaPrior, KlPrior, PcaPrior};

use mawilab_model::{FlowTable, Packet, PacketChunk, TimeWindow, Trace, TraceMeta};

/// A trace plus its precomputed flow index — the shared input of all
/// detectors.
pub struct TraceView<'a> {
    /// The trace under analysis.
    pub trace: &'a Trace,
    /// Flow index of the same trace.
    pub flows: &'a FlowTable,
}

impl<'a> TraceView<'a> {
    /// Bundles a trace with its flow table.
    pub fn new(trace: &'a Trace, flows: &'a FlowTable) -> Self {
        assert_eq!(
            trace.len(),
            flows.packet_count(),
            "flow table for a different trace"
        );
        TraceView { trace, flows }
    }
}

/// One chunk of a packet stream, as seen by an incremental detector.
///
/// The whole trace fed as a single chunk and the same trace fed as
/// many time-binned chunks accumulate into identical detector state:
/// every detector bins packets by absolute timestamp against
/// `meta.window()`, never by chunk boundary.
pub struct ChunkView<'a> {
    /// Metadata of the trace being streamed.
    pub meta: &'a TraceMeta,
    /// Nominal time bin of this chunk.
    pub window: TimeWindow,
    /// The chunk's packets, in arrival order.
    pub packets: &'a [Packet],
}

impl<'a> ChunkView<'a> {
    /// View over one streamed chunk.
    pub fn of_chunk(meta: &'a TraceMeta, chunk: &'a PacketChunk) -> Self {
        ChunkView {
            meta,
            window: chunk.window,
            packets: &chunk.packets,
        }
    }

    /// View presenting an entire in-memory trace as one chunk — the
    /// batch adapter's input.
    pub fn whole_trace(trace: &'a Trace) -> Self {
        ChunkView {
            meta: &trace.meta,
            window: trace.meta.window(),
            packets: &trace.packets,
        }
    }
}

/// The tuning-independent parameters of one family's accumulator: the
/// sketch, picture or histogram geometry its `observe` reads.
/// Configurations whose specs are equal accumulate identical state, so
/// a [`FamilyRun`] gives them one accumulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccumulatorSpec {
    /// PCA sketch geometry.
    Pca(pca::PcaSketch),
    /// Gamma sketch geometry.
    Gamma(gamma::GammaSketch),
    /// Hough picture geometry.
    Hough(hough::HoughPictures),
    /// KL histogram geometry.
    Kl(kl::KlHistograms),
}

impl AccumulatorSpec {
    /// Starts an accumulator over one trace. The accumulator exists
    /// only from here on, so it can never be fed before it has a
    /// window.
    pub fn begin(&self, meta: &TraceMeta) -> Accumulator {
        match self {
            AccumulatorSpec::Pca(s) => Accumulator::Pca(s.begin(meta)),
            AccumulatorSpec::Gamma(s) => Accumulator::Gamma(s.begin(meta)),
            AccumulatorSpec::Hough(s) => Accumulator::Hough(s.begin(meta)),
            AccumulatorSpec::Kl(s) => Accumulator::Kl(s.begin(meta)),
        }
    }
}

/// The per-trace state of one detector family, shared by every tuning
/// of it: count matrices, series, pictures or histograms, keyed by
/// absolute time bin. Accumulated state is chunk-boundary invariant,
/// so any chunking of the same packet sequence — including the whole
/// trace as a single chunk — accumulates the same state.
pub enum Accumulator {
    /// PCA sketch counts.
    Pca(pca::PcaAccumulator),
    /// Gamma per-direction count series.
    Gamma(gamma::GammaAccumulator),
    /// Hough pictures with their flow sets.
    Hough(hough::HoughAccumulator),
    /// KL histograms and per-bin tuple counts.
    Kl(kl::KlAccumulator),
}

impl Accumulator {
    /// Folds one chunk of packets into the state.
    pub fn observe(&mut self, chunk: &ChunkView<'_>) {
        match self {
            Accumulator::Pca(a) => a.observe(chunk),
            Accumulator::Gamma(a) => a.observe(chunk),
            Accumulator::Hough(a) => a.observe(chunk),
            Accumulator::Kl(a) => a.observe(chunk),
        }
    }
}

/// What one configuration's finish produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Finished {
    /// The configuration's alarms.
    pub alarms: Vec<Alarm>,
    /// The updated baseline to carry into the next day. `None` when the
    /// family has no warm support (Hough) or the day produced no state
    /// to carry (empty or too-short trace) — the caller then keeps its
    /// previous prior.
    pub prior: Option<DetectorPrior>,
}

/// The prior a finish blends with: `None` unless there is a prior and
/// `decay > 0`. Zero decay is an exact cold start (see [`warm`]).
fn warm_prior(prior: Option<&DetectorPrior>, decay: f64) -> Option<(&DetectorPrior, f64)> {
    prior.filter(|_| decay > 0.0).map(|p| (p, decay))
}

/// A traffic anomaly detector with one fixed parameter set
/// (a *configuration* in the paper's terminology).
///
/// A configuration is split in two: the family
/// [`accumulator`](Detector::accumulator) it folds packets into, which
/// the three tunings of a family share, and its tuned
/// [`finish`](Detector::finish), a read-only function of that state.
/// [`analyze`](Detector::analyze), [`incremental`](Detector::incremental)
/// and [`FamilyRun`] are the only drivers, so batch and streaming runs
/// share one implementation and cannot drift apart.
pub trait Detector: Send + Sync {
    /// Which of the four detector families this configuration is.
    fn kind(&self) -> DetectorKind;

    /// The tuning of this configuration.
    fn tuning(&self) -> Tuning;

    /// The accumulator this configuration reads at finish.
    fn accumulator(&self) -> AccumulatorSpec;

    /// Runs this tuning's analysis over an accumulator begun from
    /// [`accumulator`](Detector::accumulator) and fed the whole trace.
    /// `warm` is the carried prior and its decay weight: its family's
    /// baselines are EWMA-blended with it (see [`warm`]); `None` is a
    /// cold start. An accumulator of another family yields nothing.
    fn finish(&self, acc: &Accumulator, warm: Option<(&DetectorPrior, f64)>) -> Finished;

    /// Builds the per-configuration streaming form of this
    /// configuration: its own accumulator plus its finish.
    fn incremental(&self) -> Box<dyn IncrementalDetector>;

    /// Analyzes a trace and reports alarms: the whole trace as one
    /// chunk through this configuration's own accumulator.
    fn analyze(&self, view: &TraceView<'_>) -> Vec<Alarm> {
        let mut acc = self.accumulator().begin(&view.trace.meta);
        acc.observe(&ChunkView::whole_trace(view.trace));
        self.finish(&acc, None).alarms
    }

    /// Unique label, e.g. `"Gamma/sensitive"`.
    fn label(&self) -> String {
        format!("{}/{}", self.kind(), self.tuning())
    }
}

/// The streaming form of one detector configuration: an adapter that
/// owns a private family accumulator and runs the configuration's
/// finish over it. [`FamilyRun`] is the multi-configuration form,
/// sharing one accumulator per family.
///
/// Lifecycle: one [`begin`](IncrementalDetector::begin) (or
/// [`warm_begin`](IncrementalDetector::warm_begin)), any number of
/// [`observe`](IncrementalDetector::observe) calls over consecutive
/// chunks, one [`finish`](IncrementalDetector::finish). `observe`
/// before `begin` does nothing and `finish` before `begin` reports no
/// alarms.
pub trait IncrementalDetector: Send {
    /// Which of the four detector families this configuration is.
    fn kind(&self) -> DetectorKind;

    /// The tuning of this configuration.
    fn tuning(&self) -> Tuning;

    /// Starts a fresh accumulator from the trace metadata.
    fn begin(&mut self, meta: &TraceMeta);

    /// Folds one chunk of packets into the accumulated state.
    fn observe(&mut self, chunk: &ChunkView<'_>);

    /// Runs the analysis over the accumulated state and reports
    /// alarms. The accumulator is spent afterwards; call
    /// [`begin`](IncrementalDetector::begin) to reuse the detector.
    fn finish(&mut self) -> Vec<Alarm>;

    /// Warm-started [`begin`](IncrementalDetector::begin): the finish
    /// blends its baselines with an exponentially-decaying prior
    /// carried from previous days (see [`warm`]). `decay == 0.0` or a
    /// `None`/shape-mismatched prior is an exact cold start
    /// (byte-identical alarms); Hough has no warm support and always
    /// runs cold.
    fn warm_begin(&mut self, meta: &TraceMeta, prior: Option<&DetectorPrior>, decay: f64);

    /// The updated baseline to carry into the next day, available
    /// after [`finish`](IncrementalDetector::finish) (see
    /// [`Finished::prior`]).
    fn export_prior(&mut self) -> Option<DetectorPrior>;

    /// Unique label, e.g. `"Gamma/sensitive"`.
    fn label(&self) -> String {
        format!("{}/{}", self.kind(), self.tuning())
    }
}

/// The one [`IncrementalDetector`] implementation: one configuration
/// over its own accumulator.
pub(crate) struct ConfigRun<D> {
    det: D,
    acc: Option<Accumulator>,
    /// Carried prior + decay; `None` = cold start.
    warm: Option<(DetectorPrior, f64)>,
    /// Filled by `finish` for `export_prior`.
    export: Option<DetectorPrior>,
}

impl<D: Detector> ConfigRun<D> {
    pub(crate) fn new(det: D) -> Self {
        ConfigRun {
            det,
            acc: None,
            warm: None,
            export: None,
        }
    }
}

impl<D: Detector> IncrementalDetector for ConfigRun<D> {
    fn kind(&self) -> DetectorKind {
        self.det.kind()
    }

    fn tuning(&self) -> Tuning {
        self.det.tuning()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.acc = Some(self.det.accumulator().begin(meta));
        self.warm = None;
        self.export = None;
    }

    fn observe(&mut self, chunk: &ChunkView<'_>) {
        if let Some(acc) = &mut self.acc {
            acc.observe(chunk);
        }
    }

    fn finish(&mut self) -> Vec<Alarm> {
        let Some(acc) = self.acc.take() else {
            return Vec::new();
        };
        let warm = self.warm.as_ref().map(|(p, w)| (p, *w));
        let done = self.det.finish(&acc, warm);
        self.export = done.prior;
        done.alarms
    }

    fn warm_begin(&mut self, meta: &TraceMeta, prior: Option<&DetectorPrior>, decay: f64) {
        self.begin(meta);
        self.warm = warm_prior(prior, decay).map(|(p, w)| (p.clone(), w));
    }

    fn export_prior(&mut self) -> Option<DetectorPrior> {
        self.export.take()
    }
}

/// The paper's experimental setup: 4 detectors × 3 tunings = 12
/// configurations (§3.2). Order: PCA, Gamma, Hough, KL; conservative,
/// optimal, sensitive within each.
pub fn standard_configurations() -> Vec<Box<dyn Detector>> {
    let mut v: Vec<Box<dyn Detector>> = Vec::with_capacity(12);
    for t in Tuning::ALL {
        v.push(Box::new(PcaDetector::new(t)));
    }
    for t in Tuning::ALL {
        v.push(Box::new(GammaDetector::new(t)));
    }
    for t in Tuning::ALL {
        v.push(Box::new(HoughDetector::new(t)));
    }
    for t in Tuning::ALL {
        v.push(Box::new(KlDetector::new(t)));
    }
    v
}

/// Runs a set of configurations over one trace, in parallel via the
/// workspace fan-out helper ([`mawilab_exec::par_map`], honoring
/// `MAWILAB_THREADS`), returning the concatenated alarms in
/// configuration order (each alarm already carries its detector kind
/// and tuning).
pub fn run_all(configs: &[Box<dyn Detector>], view: &TraceView<'_>) -> Vec<Alarm> {
    mawilab_exec::par_map(configs, |c| c.analyze(view)).concat()
}

/// Chunks below this packet count are observed inline rather than
/// fanned out over the accumulators: a fan-out is a scoped-thread
/// round per call, and for near-empty chunks (narrow chunk widths,
/// quiet periods) the spawn/join barrier would dwarf the detector work
/// itself. The cutover is by chunk size only — never by thread count —
/// so output stays identical at any `MAWILAB_THREADS` setting
/// (accumulators are independent; only the schedule changes).
const FANOUT_MIN_CHUNK_PACKETS: usize = 1024;

/// A set of configurations streamed over one trace with one
/// accumulator per family: configurations whose
/// [`accumulator`](Detector::accumulator) specs are equal share one, so
/// the paper's 12 standard configurations walk each packet 4 times,
/// not 12, and hold one copy of each family's state. Every
/// configuration's finish then reads its family's state, read only.
///
/// Alarms and exported priors equal independent per-configuration
/// [`IncrementalDetector`] runs, byte for byte.
pub struct FamilyRun<'a> {
    configs: &'a [Box<dyn Detector>],
    accumulators: Vec<Accumulator>,
    /// Index into `accumulators` of each configuration's accumulator.
    shared: Vec<usize>,
}

/// What a [`FamilyRun`] finish produced, in configuration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FamilyFinish {
    /// Every configuration's alarms, concatenated in configuration
    /// order — the order [`run_all`] concatenates batch results in.
    pub alarms: Vec<Alarm>,
    /// Each configuration's label and exported prior.
    pub priors: Vec<(String, Option<DetectorPrior>)>,
}

impl<'a> FamilyRun<'a> {
    /// Groups `configs` into family accumulators and begins each over
    /// the trace.
    pub fn begin(configs: &'a [Box<dyn Detector>], meta: &TraceMeta) -> Self {
        let mut specs: Vec<AccumulatorSpec> = Vec::new();
        let shared = configs
            .iter()
            .map(|c| {
                let spec = c.accumulator();
                specs.iter().position(|s| *s == spec).unwrap_or_else(|| {
                    specs.push(spec);
                    specs.len() - 1
                })
            })
            .collect();
        FamilyRun {
            configs,
            accumulators: specs.iter().map(|s| s.begin(meta)).collect(),
            shared,
        }
    }

    /// Number of accumulators the configurations were grouped into.
    pub fn accumulator_count(&self) -> usize {
        self.accumulators.len()
    }

    /// Folds one chunk into every accumulator, in parallel across
    /// accumulators (the chunk is shared read-only) unless the chunk is
    /// small.
    pub fn observe(&mut self, chunk: &ChunkView<'_>) {
        if chunk.packets.len() < FANOUT_MIN_CHUNK_PACKETS {
            for acc in &mut self.accumulators {
                acc.observe(chunk);
            }
        } else {
            mawilab_exec::par_for_each_mut(&mut self.accumulators, |acc| acc.observe(chunk));
        }
    }

    /// Runs every configuration's finish over its family's state, in
    /// parallel across configurations. `prior_for` looks up the prior
    /// carried under a configuration's label; `decay` is its weight
    /// (`0.0`, or no prior, is a cold start).
    pub fn finish<'p>(
        self,
        prior_for: impl Fn(&str) -> Option<&'p DetectorPrior>,
        decay: f64,
    ) -> FamilyFinish {
        let jobs: Vec<_> = self
            .configs
            .iter()
            .zip(&self.shared)
            .map(|(c, &a)| {
                let label = c.label();
                let warm = warm_prior(prior_for(&label), decay);
                (c.as_ref(), &self.accumulators[a], warm, label)
            })
            .collect();
        let done = mawilab_exec::par_map(&jobs, |(c, acc, warm, _)| c.finish(acc, *warm));
        let mut out = FamilyFinish::default();
        for ((.., label), finished) in jobs.into_iter().zip(done) {
            out.alarms.extend(finished.alarms);
            out.priors.push((label, finished.prior));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mawilab_synth::{SynthConfig, TraceGenerator};

    #[test]
    fn standard_set_is_twelve_configurations() {
        let configs = standard_configurations();
        assert_eq!(configs.len(), 12);
        let mut labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12, "duplicate configuration labels");
        // 3 per family.
        for kind in [
            DetectorKind::Pca,
            DetectorKind::Gamma,
            DetectorKind::Hough,
            DetectorKind::Kl,
        ] {
            assert_eq!(configs.iter().filter(|c| c.kind() == kind).count(), 3);
        }
    }

    #[test]
    fn run_all_matches_sequential_runs() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(42)).generate();
        let flows = mawilab_model::FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let configs = standard_configurations();
        let par = run_all(&configs, &view);
        let seq: Vec<Alarm> = configs.iter().flat_map(|c| c.analyze(&view)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    #[should_panic(expected = "different trace")]
    fn mismatched_flow_table_panics() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(1)).generate();
        let empty = mawilab_model::FlowTable::build(&[]);
        TraceView::new(&lt.trace, &empty);
    }

    #[test]
    fn incremental_is_chunk_boundary_invariant() {
        use mawilab_model::{PacketSource, TraceChunker};
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(42)).generate();
        let flows = mawilab_model::FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        for config in standard_configurations() {
            let batch = config.analyze(&view);
            for bin_us in [2_000_000u64, 5_000_000, 60_000_000] {
                let mut inc = config.incremental();
                inc.begin(&lt.trace.meta);
                let mut source = TraceChunker::new(lt.trace.clone(), bin_us);
                while let Some(chunk) = source.next_chunk().unwrap() {
                    inc.observe(&ChunkView::of_chunk(&lt.trace.meta, chunk));
                }
                let streamed = inc.finish();
                assert_eq!(
                    streamed,
                    batch,
                    "{} diverges between batch and {}s chunks",
                    config.label(),
                    bin_us / 1_000_000
                );
            }
        }
    }

    /// One full incremental pass; returns (alarms, exported prior).
    fn warm_pass(
        config: &dyn Detector,
        lt: &mawilab_synth::LabeledTrace,
        prior: Option<&DetectorPrior>,
        decay: f64,
    ) -> (Vec<Alarm>, Option<DetectorPrior>) {
        use mawilab_model::{PacketSource, TraceChunker};
        let mut inc = config.incremental();
        inc.warm_begin(&lt.trace.meta, prior, decay);
        let mut source = TraceChunker::new(lt.trace.clone(), 5_000_000);
        while let Some(chunk) = source.next_chunk().unwrap() {
            inc.observe(&ChunkView::of_chunk(&lt.trace.meta, chunk));
        }
        let alarms = inc.finish();
        let export = inc.export_prior();
        (alarms, export)
    }

    /// `warm_begin` with no prior, or any prior at decay 0, must be
    /// byte-identical to a cold `begin` for every configuration.
    #[test]
    fn warm_begin_at_zero_decay_is_cold() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(42)).generate();
        for config in standard_configurations() {
            let (cold, cold_export) = warm_pass(config.as_ref(), &lt, None, 0.0);
            // A real prior from a previous (different) day.
            let prev = TraceGenerator::new(SynthConfig::default().with_seed(43)).generate();
            let (_, prior) = warm_pass(config.as_ref(), &prev, None, 0.0);
            let (warm_no_prior, _) = warm_pass(config.as_ref(), &lt, None, 0.7);
            let (warm_zero_decay, zero_export) =
                warm_pass(config.as_ref(), &lt, prior.as_ref(), 0.0);
            assert_eq!(
                cold,
                warm_no_prior,
                "{}: no-prior warm diverged",
                config.label()
            );
            assert_eq!(
                cold,
                warm_zero_decay,
                "{}: decay=0 warm diverged",
                config.label()
            );
            // decay=0 exports must equal the cold day's own baselines.
            assert_eq!(
                cold_export,
                zero_export,
                "{}: decay=0 export diverged",
                config.label()
            );
        }
    }

    /// With a genuine prior and positive decay, exports keep their
    /// shape and stay finite — the EWMA evolves rather than resets.
    #[test]
    fn warm_priors_evolve_with_stable_shape() {
        fn all_finite(p: &DetectorPrior) -> bool {
            match p {
                DetectorPrior::Pca(p) => p.rows.iter().all(|r| {
                    r.e_med.is_finite()
                        && r.e_mad.is_finite()
                        && r.coord_sigma.iter().all(|s| s.is_finite())
                }),
                DetectorPrior::Gamma(p) => p.rows.iter().all(|r| {
                    r.med.iter().all(|v| v.is_finite()) && r.scale.iter().all(|v| v.is_finite())
                }),
                DetectorPrior::Kl(p) => p
                    .features
                    .iter()
                    .all(|&(m, s)| m.is_finite() && s.is_finite()),
            }
        }
        fn shape(p: &DetectorPrior) -> Vec<usize> {
            match p {
                DetectorPrior::Pca(p) => p.rows.iter().map(|r| r.coord_sigma.len()).collect(),
                DetectorPrior::Gamma(p) => p.rows.iter().map(|r| r.med.len()).collect(),
                DetectorPrior::Kl(p) => vec![p.features.len()],
            }
        }
        let day1 = TraceGenerator::new(SynthConfig::default().with_seed(50)).generate();
        let day2 = TraceGenerator::new(SynthConfig::default().with_seed(51)).generate();
        let mut warm_supported = 0;
        for config in standard_configurations() {
            let (_, prior) = warm_pass(config.as_ref(), &day1, None, 0.0);
            if config.kind() == DetectorKind::Hough {
                assert!(prior.is_none(), "Hough unexpectedly exports a prior");
                continue;
            }
            let prior = prior.expect("warm detector exported no prior");
            assert!(all_finite(&prior), "{}: non-finite prior", config.label());
            let (alarms, evolved) = warm_pass(config.as_ref(), &day2, Some(&prior), 0.4);
            let evolved = evolved.expect("warm run exported no prior");
            assert_eq!(
                shape(&prior),
                shape(&evolved),
                "{}: shape drifted",
                config.label()
            );
            assert!(
                all_finite(&evolved),
                "{}: non-finite evolved prior",
                config.label()
            );
            assert_ne!(prior, evolved, "{}: prior did not evolve", config.label());
            assert!(alarms.iter().all(|a| a.score.is_finite()));
            warm_supported += 1;
        }
        assert_eq!(warm_supported, 9, "PCA, Gamma, KL × 3 tunings carry priors");
    }

    #[test]
    fn family_run_matches_run_all() {
        use mawilab_model::{PacketSource, TraceChunker};
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(7)).generate();
        let flows = mawilab_model::FlowTable::build(&lt.trace.packets);
        let view = TraceView::new(&lt.trace, &flows);
        let configs = standard_configurations();
        let batch = run_all(&configs, &view);

        let mut run = FamilyRun::begin(&configs, &lt.trace.meta);
        assert_eq!(run.accumulator_count(), 4, "one accumulator per family");
        let mut source = TraceChunker::new(lt.trace.clone(), 5_000_000);
        while let Some(chunk) = source.next_chunk().unwrap() {
            run.observe(&ChunkView::of_chunk(&lt.trace.meta, chunk));
        }
        let done = run.finish(|_| None, 0.0);
        assert_eq!(done.alarms, batch);
        let labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        let finished: Vec<&String> = done.priors.iter().map(|(l, _)| l).collect();
        assert_eq!(finished, labels.iter().collect::<Vec<_>>());
    }

    /// The per-configuration adapter tolerates misuse without a panic:
    /// observe before begin is a no-op, finish before begin is silent.
    #[test]
    fn adapter_before_begin_is_inert() {
        let lt = TraceGenerator::new(SynthConfig::default().with_seed(7)).generate();
        for config in standard_configurations() {
            let mut inc = config.incremental();
            inc.observe(&ChunkView::whole_trace(&lt.trace));
            assert!(inc.finish().is_empty(), "{}", config.label());
            assert!(inc.export_prior().is_none(), "{}", config.label());
        }
    }
}
