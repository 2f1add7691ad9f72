//! Family-accumulator equivalence: the oracle of `FamilyRun`.
//!
//! `FamilyRun` groups a configuration set into one accumulator per
//! detector family and runs every configuration's tuned finish over
//! its family's shared state. It must equal independent
//! per-configuration `IncrementalDetector` runs — each folding every
//! packet into its own accumulator — alarm for alarm in configuration
//! order and prior for prior per label, across seeds × chunk widths ×
//! warm priors × `MAWILAB_THREADS`, and for configuration sets that
//! share accumulators in any pattern.
//!
//! Tests in this binary share `ENV_LOCK` where they touch the
//! process-wide `MAWILAB_THREADS` variable.

use mawilab::detectors::{
    standard_configurations, ChunkView, Detector, DetectorPrior, FamilyFinish, FamilyRun,
    GammaDetector, HoughDetector, KlDetector, PcaDetector, Tuning,
};
use mawilab::model::{PacketSource, Trace, TraceChunker};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};
use std::collections::HashMap;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

type Priors = HashMap<String, DetectorPrior>;
type Configs = Vec<Box<dyn Detector>>;

fn synth(seed: u64) -> Trace {
    TraceGenerator::new(SynthConfig::default().with_seed(seed).with_anomalies(vec![
        AnomalySpec::SynFlood {
            victim: 40,
            dport: 80,
            rate_pps: 250.0,
            duration_s: 12.0,
            spoofed: true,
        },
        AnomalySpec::SasserWorm {
            infected: 3,
            scans: 900,
            rate_pps: 60.0,
        },
    ]))
    .generate()
    .trace
}

/// Feeds the trace as `chunk_us`-wide chunks, or whole when `None`.
fn feed(trace: &Trace, chunk_us: Option<u64>, mut observe: impl FnMut(&ChunkView<'_>)) {
    let Some(chunk_us) = chunk_us else {
        observe(&ChunkView::whole_trace(trace));
        return;
    };
    let mut source = TraceChunker::new(trace.clone(), chunk_us);
    while let Some(chunk) = source.next_chunk().unwrap() {
        observe(&ChunkView::of_chunk(&trace.meta, chunk));
    }
}

/// The oracle: every configuration through its own accumulator.
fn per_config(
    configs: &[Box<dyn Detector>],
    trace: &Trace,
    chunk_us: Option<u64>,
    priors: &Priors,
    decay: f64,
) -> FamilyFinish {
    let mut out = FamilyFinish::default();
    for config in configs {
        let mut inc = config.incremental();
        let label = inc.label();
        inc.warm_begin(&trace.meta, priors.get(&label), decay);
        feed(trace, chunk_us, |chunk| inc.observe(chunk));
        out.alarms.extend(inc.finish());
        out.priors.push((label, inc.export_prior()));
    }
    out
}

/// The kernel: one accumulator per family.
fn family(
    configs: &[Box<dyn Detector>],
    trace: &Trace,
    chunk_us: Option<u64>,
    priors: &Priors,
    decay: f64,
) -> (usize, FamilyFinish) {
    let mut run = FamilyRun::begin(configs, &trace.meta);
    let accumulators = run.accumulator_count();
    feed(trace, chunk_us, |chunk| run.observe(chunk));
    (accumulators, run.finish(|label| priors.get(label), decay))
}

/// The priors a cold run of the previous day exports, by label.
fn previous_day_priors(configs: &[Box<dyn Detector>], seed: u64) -> Priors {
    per_config(configs, &synth(seed + 1), None, &Priors::new(), 0.0)
        .priors
        .into_iter()
        .filter_map(|(label, prior)| Some((label, prior?)))
        .collect()
}

fn assert_same(got: &FamilyFinish, want: &FamilyFinish, case: &str) {
    assert_eq!(got.alarms.len(), want.alarms.len(), "{case}: alarm count");
    for (g, w) in got.alarms.iter().zip(&want.alarms) {
        assert_eq!(g, w, "{case}: alarm differs");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{case}: score bits");
    }
    assert_eq!(got.priors, want.priors, "{case}: exported priors differ");
}

#[test]
fn family_run_equals_per_config_runs_across_seeds_chunks_priors_and_threads() {
    let _lock = ENV_LOCK.lock().unwrap();
    let configs = standard_configurations();
    for seed in [11u64, 222, 3333] {
        let trace = synth(seed);
        let prior = previous_day_priors(&configs, seed);
        assert_eq!(prior.len(), 9, "PCA, Gamma and KL each carry 3 priors");
        let cold = Priors::new();
        for chunk_us in [Some(1_000_000u64), Some(5_000_000), None] {
            let mut cold_exports = None;
            for (priors, decay) in [(&cold, 0.0), (&prior, 0.0), (&prior, 0.15)] {
                let want = per_config(&configs, &trace, chunk_us, priors, decay);
                if decay == 0.0 {
                    // Zero decay is a cold start, prior or not.
                    let exports = cold_exports.get_or_insert_with(|| want.clone());
                    assert_same(&want, exports, "decay 0 vs cold");
                } else {
                    assert_ne!(
                        Some(&want.priors),
                        cold_exports.as_ref().map(|c| &c.priors),
                        "seed {seed}: the carried prior did not take effect"
                    );
                }
                for threads in ["1", "2", "4", "13"] {
                    std::env::set_var("MAWILAB_THREADS", threads);
                    let (accumulators, got) = family(&configs, &trace, chunk_us, priors, decay);
                    assert_eq!(accumulators, 4);
                    let case = format!(
                        "seed {seed}, chunk {chunk_us:?}, {} priors at decay {decay}, \
                         MAWILAB_THREADS={threads}",
                        priors.len()
                    );
                    assert_same(&got, &want, &case);
                }
                std::env::remove_var("MAWILAB_THREADS");
            }
        }
    }
}

#[test]
fn configuration_sets_group_by_accumulator_spec() {
    let trace = synth(11);
    let standard = standard_configurations();
    let prior = previous_day_priors(&standard, 11);
    let cases: Vec<(&str, Configs, usize)> = vec![
        ("standard set", standard_configurations(), 4),
        (
            "one KL configuration",
            vec![Box::new(KlDetector::new(Tuning::Sensitive))],
            1,
        ),
        (
            "two PCA tunings",
            vec![
                Box::new(PcaDetector::new(Tuning::Conservative)),
                Box::new(PcaDetector::new(Tuning::Sensitive)),
            ],
            1,
        ),
        (
            "a duplicated tuning",
            vec![
                Box::new(GammaDetector::new(Tuning::Optimal)),
                Box::new(HoughDetector::new(Tuning::Sensitive)),
                Box::new(GammaDetector::new(Tuning::Optimal)),
            ],
            2,
        ),
        (
            "KL before PCA",
            vec![
                Box::new(KlDetector::new(Tuning::Optimal)),
                Box::new(PcaDetector::new(Tuning::Conservative)),
                Box::new(HoughDetector::new(Tuning::Optimal)),
                Box::new(KlDetector::new(Tuning::Conservative)),
                Box::new(PcaDetector::new(Tuning::Sensitive)),
            ],
            3,
        ),
        ("no configurations", Vec::new(), 0),
    ];
    for (case, configs, groups) in &cases {
        for decay in [0.0, 0.15] {
            let want = per_config(configs, &trace, Some(5_000_000), &prior, decay);
            let (accumulators, got) = family(configs, &trace, Some(5_000_000), &prior, decay);
            assert_eq!(accumulators, *groups, "{case}: accumulator count");
            assert_same(&got, &want, case);
        }
    }
}
