//! KL-divergence detector: histogram monitoring + anomaly extraction
//! via association rules.
//!
//! Reproduces detector 4 of the paper (§3.2, after Brauckhoff et al.
//! [8]): per time bin, one histogram per traffic feature (source/
//! destination address, source/destination port) summarises the
//! feature distribution; the Kullback–Leibler divergence between
//! consecutive bins spikes when an anomaly shifts a distribution.
//! For each spiking (feature, bin) pair the histogram cells that
//! contribute most to the divergence select the *suspicious* packets,
//! and the modified Apriori algorithm condenses them into association
//! rules — so this detector's alarms are 4-tuples with wildcards,
//! the most expressive granularity of the four.
//!
//! The paper finds this detector the most accurate of the ensemble
//! (Fig. 6(c)); its rules bind tightly to real anomaly features, which
//! is why its tunings are the most precise rather than the loudest.

use crate::alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
use crate::warm::{blend, DetectorPrior, KlPrior};
use crate::{
    Accumulator, AccumulatorSpec, ChunkView, ConfigRun, Detector, Finished, IncrementalDetector,
};
use mawilab_mining::{mine_rules, Transaction};
use mawilab_model::{TimeWindow, TraceMeta};
use mawilab_stats::{kl_contributions, kl_divergence_counts, mad, median, Histogram};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// The four monitored features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feature {
    SrcAddr,
    DstAddr,
    SrcPort,
    DstPort,
}

const FEATURES: [Feature; 4] = [
    Feature::SrcAddr,
    Feature::DstAddr,
    Feature::SrcPort,
    Feature::DstPort,
];

impl Feature {
    /// Histogram key of one packet — delegated to
    /// [`PacketTuple::feature_key`] so histogram population and
    /// suspicious-tuple lookup share a single encoding.
    fn key(self, p: &mawilab_model::Packet) -> u64 {
        PacketTuple::of(p).feature_key(self)
    }
}

/// The 4-tuple a packet contributes to rule mining. Packets sharing a
/// tuple are interchangeable for the detector's extraction step, so
/// the accumulator stores tuple *counts* per time bin instead of the
/// packets themselves — the piece that makes KL streamable without
/// retaining packets. The count maps grow with per-bin tuple
/// *diversity*: far below packet volume on normal traffic, but
/// adversarial spoofed-source floods can approach one entry per
/// packet within the flooded bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PacketTuple {
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
}

impl PacketTuple {
    fn of(p: &mawilab_model::Packet) -> Self {
        PacketTuple {
            src: u32::from(p.src),
            dst: u32::from(p.dst),
            sport: p.sport,
            dport: p.dport,
        }
    }

    /// The single feature-key encoding ([`Feature::key`] delegates
    /// here): addresses raw, ports tagged into disjoint bit ranges.
    fn feature_key(&self, f: Feature) -> u64 {
        match f {
            Feature::SrcAddr => self.src as u64,
            Feature::DstAddr => self.dst as u64,
            Feature::SrcPort => self.sport as u64 | 1 << 40,
            Feature::DstPort => self.dport as u64 | 1 << 41,
        }
    }

    fn transaction(&self) -> Transaction {
        Transaction::new(
            Ipv4Addr::from(self.src),
            self.sport,
            Ipv4Addr::from(self.dst),
            self.dport,
        )
    }
}

/// The histogram geometry of the KL family: everything the
/// accumulator reads while observing. The three tunings share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KlHistograms {
    /// Time-bin width, microseconds.
    bin_us: u64,
    /// Histogram cells per feature.
    hist_bins: usize,
}

/// The KL-divergence histogram detector (one configuration).
#[derive(Debug, Clone)]
pub struct KlDetector {
    tuning: Tuning,
    histograms: KlHistograms,
    /// Divergence threshold multiplier λ (μ + λσ over the series).
    lambda: f64,
    /// Histogram cells inspected per spike.
    top_cells: usize,
    /// Apriori support threshold over the suspicious packets.
    min_support: f64,
}

impl KlDetector {
    /// Builds the detector with one of the paper's three tunings.
    pub fn new(tuning: Tuning) -> Self {
        let (lambda, top_cells) = match tuning {
            Tuning::Conservative => (3.5, 2),
            Tuning::Optimal => (2.5, 3),
            Tuning::Sensitive => (1.8, 4),
        };
        KlDetector {
            tuning,
            histograms: KlHistograms {
                bin_us: 5_000_000,
                hist_bins: 128,
            },
            lambda,
            top_cells,
            min_support: 0.2,
        }
    }
}

/// Ports whose bare presence is background, not anomaly signature.
const SERVICE_PORTS: [u16; 9] = [80, 8080, 443, 53, 25, 22, 21, 20, 123];

fn is_bare_service_port(rule: &mawilab_model::TrafficRule) -> bool {
    let port = rule.sport.or(rule.dport);
    matches!(port, Some(p) if SERVICE_PORTS.contains(&p))
}

impl Detector for KlDetector {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Kl
    }

    fn tuning(&self) -> Tuning {
        self.tuning
    }

    fn accumulator(&self) -> AccumulatorSpec {
        AccumulatorSpec::Kl(self.histograms.clone())
    }

    fn finish(&self, acc: &Accumulator, warm: Option<(&DetectorPrior, f64)>) -> Finished {
        let Accumulator::Kl(acc) = acc else {
            return Finished::default();
        };
        if acc.hists.is_empty() || acc.seen == 0 {
            return Finished::default();
        }
        let warm = warm.and_then(|(p, w)| match p {
            DetectorPrior::Kl(p) => Some((p, w)),
            _ => None,
        });
        let (alarms, export) = self.finish_analysis(acc, warm);
        Finished {
            alarms,
            prior: Some(DetectorPrior::Kl(export)),
        }
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        Box::new(ConfigRun::new(self.clone()))
    }
}

impl KlHistograms {
    /// Starts the family accumulator over one trace.
    pub fn begin(&self, meta: &TraceMeta) -> KlAccumulator {
        let window = meta.window();
        let t_bins = (window.len_us() / self.bin_us) as usize;
        let (hists, bin_tuples) = if t_bins < 3 {
            (Vec::new(), Vec::new())
        } else {
            (
                FEATURES
                    .iter()
                    .map(|_| {
                        (0..t_bins)
                            .map(|_| Histogram::new(self.hist_bins))
                            .collect()
                    })
                    .collect(),
                vec![HashMap::new(); t_bins],
            )
        };
        KlAccumulator {
            geometry: self.clone(),
            window,
            t_bins,
            seen: 0,
            hists,
            bin_tuples,
        }
    }
}

/// The KL family accumulator: chunk observation folds packets into
/// per-(feature, bin) histograms plus per-bin 4-tuple counts keyed by
/// absolute time bin; every tuning's divergence thresholding and rule
/// mining read it at finish.
pub struct KlAccumulator {
    geometry: KlHistograms,
    window: TimeWindow,
    t_bins: usize,
    seen: u64,
    /// `hists[feature][t]`; empty when the trace is too short.
    hists: Vec<Vec<Histogram>>,
    /// Distinct 4-tuples with multiplicities, per time bin.
    bin_tuples: Vec<HashMap<PacketTuple, u32>>,
}

impl KlAccumulator {
    /// Folds one chunk of packets into the histograms and tuple counts.
    pub fn observe(&mut self, chunk: &ChunkView<'_>) {
        if self.hists.is_empty() {
            return;
        }
        let (start_us, bin_us) = (self.window.start_us, self.geometry.bin_us);
        self.seen += chunk.packets.len() as u64;
        for p in chunk.packets {
            let t = ((p.ts_us.saturating_sub(start_us) / bin_us) as usize).min(self.t_bins - 1);
            for (fi, f) in FEATURES.iter().enumerate() {
                self.hists[fi][t].add(f.key(p));
            }
            *self.bin_tuples[t].entry(PacketTuple::of(p)).or_insert(0) += 1;
        }
    }
}

impl KlDetector {
    /// This tuning's analysis over the accumulated histogram state
    /// (read only). When a carried prior is supplied, the per-feature
    /// divergence baselines are EWMA-blended with it before
    /// thresholding; the blended baselines are returned as the next
    /// day's prior either way.
    fn finish_analysis(
        &self,
        acc: &KlAccumulator,
        warm: Option<(&KlPrior, f64)>,
    ) -> (Vec<Alarm>, KlPrior) {
        let KlAccumulator {
            window,
            t_bins,
            hists,
            bin_tuples,
            ..
        } = acc;
        let (window, t_bins, bin_us) = (*window, *t_bins, acc.geometry.bin_us);
        let mut alarms = Vec::new();
        let mut export = KlPrior::default();
        let mut seen: HashSet<(usize, mawilab_model::TrafficRule)> = HashSet::new();
        for (fi, f) in FEATURES.iter().enumerate() {
            // Divergence series between consecutive bins, on raw
            // counts with Laplace smoothing (pseudo-count ½ per cell):
            // sparse cells flipping between 0 and a few packets must
            // not drown a real distribution shift.
            const PSEUDO: f64 = 0.5;
            let series: Vec<f64> = (1..t_bins)
                .map(|t| {
                    kl_divergence_counts(hists[fi][t].counts(), hists[fi][t - 1].counts(), PSEUDO)
                })
                .collect();
            // Robust baseline: the anomaly's own spikes must not lift
            // the threshold (median/MAD instead of mean/σ); blended
            // with the carried prior when one applies (cold runs keep
            // today's values bitwise).
            let mut spread = mad(&series);
            let mut center = median(&series);
            if let Some((p, w)) = warm {
                if let Some(&(p_center, p_spread)) = p.features.get(fi) {
                    center = blend(center, p_center, w);
                    spread = blend(spread, p_spread, w);
                }
            }
            export.features.push((center, spread));
            if spread < 1e-12 {
                continue; // flat series: nothing to flag
            }
            let thr = center + self.lambda * spread;
            for (si, &d) in series.iter().enumerate() {
                if d <= thr {
                    continue;
                }
                let t = si + 1;
                // Cells contributing most to the divergence, under the
                // same Laplace smoothing as the series itself.
                let mut contrib: Vec<(usize, f64)> =
                    kl_contributions(hists[fi][t].counts(), hists[fi][t - 1].counts(), PSEUDO)
                        .into_iter()
                        .enumerate()
                        .filter(|&(_, v)| v > 0.0)
                        .collect();
                contrib.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN contribution")); // lint:allow(panic-free-data-plane): contributions are filtered finite (> 0.0) above
                let top: HashSet<usize> = contrib
                    .iter()
                    .take(self.top_cells)
                    .map(|&(c, _)| c)
                    .collect();
                if top.is_empty() {
                    continue;
                }
                // Suspicious packets: feature value in a top cell.
                // The accumulated 4-tuples stand in for the packets
                // (multiplicity preserved; sorted for a deterministic
                // mining input — Apriori support counting is
                // order-insensitive anyway).
                let sample_hist = &hists[fi][t];
                let mut tuples: Vec<(&PacketTuple, u32)> =
                    bin_tuples[t].iter().map(|(tp, &n)| (tp, n)).collect();
                tuples.sort_unstable_by_key(|(tp, _)| **tp);
                let mut suspicious: Vec<Transaction> = Vec::new();
                for (tp, n) in tuples {
                    if top.contains(&sample_hist.bin_of(tp.feature_key(*f))) {
                        suspicious
                            .extend(std::iter::repeat_with(|| tp.transaction()).take(n as usize));
                    }
                }
                if suspicious.len() < 5 {
                    continue;
                }
                let mined = mine_rules(&suspicious, self.min_support);
                let bin_window = TimeWindow::new(
                    window.start_us + t as u64 * bin_us,
                    (window.start_us + (t as u64 + 1) * bin_us).min(window.end_us),
                );
                for (rule, _count) in mined.rules {
                    if rule.degree() == 0 {
                        continue;
                    }
                    // A degree-1 rule that only names a well-known
                    // service port describes the background, not a
                    // change signature — Brauckhoff et al.'s extraction
                    // filters such baseline itemsets out.
                    if rule.degree() == 1 && is_bare_service_port(&rule) {
                        continue;
                    }
                    if seen.insert((t, rule)) {
                        alarms.push(Alarm {
                            detector: DetectorKind::Kl,
                            tuning: self.tuning,
                            window: bin_window,
                            scope: AlarmScope::Rule(rule),
                            score: d / (thr + 1e-12),
                        });
                    }
                }
            }
        }
        (alarms, export)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceView;
    use mawilab_model::FlowTable;
    use mawilab_synth::{AnomalySpec, SynthConfig, TraceGenerator};

    fn run(tuning: Tuning, cfg: SynthConfig) -> (Vec<Alarm>, mawilab_synth::LabeledTrace) {
        let lt = TraceGenerator::new(cfg).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms = KlDetector::new(tuning).analyze(&TraceView::new(&lt.trace, &flows));
        (alarms, lt)
    }

    fn flood() -> SynthConfig {
        // Victim 60: an unpopular host, so the flood shifts the
        // dst-address histogram hard (victim 0 is the Zipf rank-1
        // host whose distribution barely moves).
        SynthConfig::default()
            .with_seed(406)
            .with_anomalies(vec![AnomalySpec::SynFlood {
                victim: 60,
                dport: 80,
                rate_pps: 350.0,
                duration_s: 12.0,
                spoofed: true,
            }])
    }

    #[test]
    fn flood_yields_a_rule_binding_the_victim() {
        let (alarms, lt) = run(Tuning::Sensitive, flood());
        assert!(!alarms.is_empty());
        let victim = lt.truth.anomalies()[0].rule.dst.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::Rule(r) => {
                r.dst == Some(victim) || r.src == Some(victim) || r.dport == Some(80)
            }
            _ => false,
        });
        assert!(hit, "no rule mentions the victim; alarms: {:#?}", alarms);
    }

    #[test]
    fn worm_yields_a_rule_binding_port_445_or_source() {
        let cfg =
            SynthConfig::default()
                .with_seed(405)
                .with_anomalies(vec![AnomalySpec::SasserWorm {
                    infected: 1,
                    scans: 1500,
                    rate_pps: 120.0,
                }]);
        let (alarms, lt) = run(Tuning::Sensitive, cfg);
        let src = lt.truth.anomalies()[0].rule.src.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::Rule(r) => r.dport == Some(445) || r.src == Some(src),
            _ => false,
        });
        assert!(hit, "worm features not extracted: {:#?}", alarms);
    }

    #[test]
    fn all_rules_are_nontrivial_4tuples() {
        let (alarms, _) = run(Tuning::Sensitive, flood());
        for a in &alarms {
            match &a.scope {
                AlarmScope::Rule(r) => assert!(r.degree() >= 1),
                other => panic!("unexpected scope {other:?}"),
            }
            assert_eq!(a.detector, DetectorKind::Kl);
        }
    }

    #[test]
    fn alarm_windows_are_one_bin_wide() {
        let (alarms, _) = run(Tuning::Sensitive, flood());
        let d = KlDetector::new(Tuning::Sensitive);
        for a in &alarms {
            assert!(a.window.len_us() <= d.histograms.bin_us);
        }
    }

    #[test]
    fn no_duplicate_rules_per_bin() {
        let (alarms, _) = run(Tuning::Sensitive, flood());
        let mut seen = HashSet::new();
        for a in &alarms {
            if let AlarmScope::Rule(r) = &a.scope {
                assert!(seen.insert((a.window.start_us, *r)), "duplicate rule alarm");
            }
        }
    }

    #[test]
    fn sensitive_detects_at_least_conservative() {
        let (sens, _) = run(Tuning::Sensitive, flood());
        let (cons, _) = run(Tuning::Conservative, flood());
        assert!(sens.len() >= cons.len());
    }

    #[test]
    fn deterministic() {
        let (a, _) = run(Tuning::Optimal, flood());
        let (b, _) = run(Tuning::Optimal, flood());
        assert_eq!(a, b);
    }

    #[test]
    fn quiet_trace_produces_few_alarms() {
        let cfg = SynthConfig::default().with_seed(9).with_anomalies(vec![]);
        let (alarms, _) = run(Tuning::Conservative, cfg);
        assert!(
            alarms.len() <= 8,
            "{} alarms on pure background",
            alarms.len()
        );
    }

    #[test]
    fn empty_trace_is_silent() {
        let lt = TraceGenerator::new(
            SynthConfig::default()
                .with_seed(1)
                .with_background_pps(0.000001)
                .with_anomalies(vec![]),
        )
        .generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms = KlDetector::new(Tuning::Sensitive).analyze(&TraceView::new(&lt.trace, &flows));
        assert!(alarms.is_empty());
    }
}
