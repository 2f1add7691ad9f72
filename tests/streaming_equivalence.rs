//! Streaming/batch equivalence at the chunk widths the online suite
//! does not cover.
//!
//! `tests/online_equivalence.rs` pins `OnlinePipeline` to the batch
//! oracle `MawilabPipeline::run` at 5 s and 20 s chunks. Here the same
//! streamed run must match batch at the two extremes of chunking: 1 s
//! chunks, so detector time bins and flows straddle many chunk
//! boundaries, and one chunk wider than the whole 60 s trace, so the
//! stream degenerates to a single chunk. Every run is sealed behind a
//! [`NoRewindSource`].

use mawilab::core::{MawilabPipeline, OnlinePipeline, PipelineConfig, StreamingReport};
use mawilab::label::LabeledCommunity;
use mawilab::model::{Granularity, NoRewindSource, TraceChunker};
use mawilab::synth::{AnomalySpec, SynthConfig, TraceGenerator};

/// Many chunk boundaries per detector bin.
const NARROW_CHUNK_US: u64 = 1_000_000;
/// Wider than the 60 s synthetic trace: the whole trace is one chunk.
const WHOLE_TRACE_CHUNK_US: u64 = 90_000_000;

fn synth(seed: u64) -> mawilab::synth::LabeledTrace {
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
}

fn stream(
    lt: &mawilab::synth::LabeledTrace,
    config: &PipelineConfig,
    chunk_us: u64,
) -> StreamingReport {
    let mut sealed = NoRewindSource::new(TraceChunker::new(lt.trace.clone(), chunk_us));
    let online = OnlinePipeline::new(config.clone())
        .run(&mut sealed)
        .unwrap();
    assert_eq!(sealed.rewinds_refused(), 0, "streamed run rewound");
    online.report
}

/// Field-by-field comparison of labeled communities (the struct holds
/// f64 metrics, so no derived PartialEq).
fn assert_labels_identical(streamed: &[LabeledCommunity], batch: &[LabeledCommunity]) {
    assert_eq!(streamed.len(), batch.len(), "community count differs");
    for (s, b) in streamed.iter().zip(batch) {
        assert_eq!(s.community, b.community);
        assert_eq!(
            s.label, b.label,
            "taxonomy label of community {}",
            s.community
        );
        assert_eq!(
            s.confidence.score.to_bits(),
            b.confidence.score.to_bits(),
            "confidence score of community {}",
            s.community
        );
        assert_eq!(
            s.heuristic, b.heuristic,
            "heuristic of community {}",
            s.community
        );
        assert_eq!(s.window, b.window, "window of community {}", s.community);
        assert_eq!(s.alarms, b.alarms);
        assert_eq!(s.detectors, b.detectors);
        assert_eq!(
            s.summary.rules, b.summary.rules,
            "rules of community {}",
            s.community
        );
        assert_eq!(s.summary.transactions, b.summary.transactions);
        assert!((s.summary.rule_degree - b.summary.rule_degree).abs() < 1e-12);
        assert!((s.summary.rule_support - b.summary.rule_support).abs() < 1e-12);
    }
}

#[test]
fn streaming_equals_batch_across_seeds_and_bin_widths() {
    for seed in [11u64, 222, 3333] {
        let lt = synth(seed);
        let config = PipelineConfig::default();
        let batch = MawilabPipeline::new(config.clone()).run(&lt.trace);
        for bin_us in [NARROW_CHUNK_US, WHOLE_TRACE_CHUNK_US] {
            let streamed = stream(&lt, &config, bin_us);
            assert_eq!(
                streamed.communities.alarms, batch.communities.alarms,
                "alarms differ (seed {seed}, bin {bin_us})"
            );
            assert_eq!(
                streamed.communities.traffic, batch.communities.traffic,
                "traffic sets differ (seed {seed}, bin {bin_us})"
            );
            assert_eq!(
                streamed.votes, batch.votes,
                "votes differ (seed {seed}, bin {bin_us})"
            );
            assert_eq!(
                streamed.decisions, batch.decisions,
                "decisions differ (seed {seed}, bin {bin_us})"
            );
            assert_labels_identical(&streamed.labeled.communities, &batch.labeled.communities);
        }
    }
}

#[test]
fn streaming_equals_batch_at_every_granularity() {
    let lt = synth(77);
    for granularity in [
        Granularity::Packet,
        Granularity::Uniflow,
        Granularity::Biflow,
    ] {
        let config = PipelineConfig {
            granularity,
            ..Default::default()
        };
        let batch = MawilabPipeline::new(config.clone()).run(&lt.trace);
        let streamed = stream(&lt, &config, NARROW_CHUNK_US);
        assert_eq!(
            streamed.decisions, batch.decisions,
            "decisions differ at {granularity}"
        );
        assert_eq!(
            streamed.communities.traffic, batch.communities.traffic,
            "traffic differs at {granularity}"
        );
        assert_labels_identical(&streamed.labeled.communities, &batch.labeled.communities);
    }
}
