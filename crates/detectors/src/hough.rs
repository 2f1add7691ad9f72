//! Hough-transform detector: line detection in 2-D traffic pictures.
//!
//! Reproduces detector 3 of the paper (§3.2, after Fontugne & Fukuda
//! [14]): traffic is rendered as two scatter pictures — (time ×
//! destination port) and (time × hashed destination address) — in
//! which anomalies appear as *lines*: a SYN flood or heavy transfer is
//! a horizontal line (one port / one host, long duration), a port
//! scan sweeps ports and a worm sweeps addresses, drawing slanted or
//! vertical streaks. The Hough transform votes every active pixel
//! onto the (ρ, θ) parameter plane; accumulator peaks are detected
//! lines, and the alarm is the **set of flows** whose packets drew the
//! line's pixels — the aggregated-flow granularity the paper ascribes
//! to this detector.

use crate::alarm::{Alarm, AlarmScope, DetectorKind, Tuning};
use crate::{
    Accumulator, AccumulatorSpec, ChunkView, ConfigRun, Detector, DetectorPrior, Finished,
    IncrementalDetector,
};
use mawilab_model::{FlowKey, TimeWindow, TraceMeta};
use std::collections::{HashMap, HashSet};

/// Picture cells: `(x, y)` pixel → (packet count, contributing flow
/// keys). Flow keys are kept so an anomalous line can be resolved
/// back to the exact flows that drew it.
type PictureCells = HashMap<(u16, u16), (u32, HashSet<FlowKey>)>;

/// Which picture a pixel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Picture {
    /// y = destination port (bucketed).
    Port,
    /// y = destination address (hashed).
    Addr,
}

/// The picture geometry of the Hough family: everything the
/// accumulator reads while painting. The three tunings share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoughPictures {
    /// Picture width (time bins).
    time_bins: usize,
    /// Picture height.
    y_bins: usize,
}

/// The Hough-transform line detector (one configuration).
#[derive(Debug, Clone)]
pub struct HoughDetector {
    tuning: Tuning,
    pictures: HoughPictures,
    /// Packets needed to activate a pixel.
    pixel_min: u32,
    /// Accumulator votes needed to accept a line.
    min_line_pixels: usize,
    /// Maximum lines reported per picture.
    max_lines: usize,
    /// Angular resolution of the accumulator.
    n_angles: usize,
    /// ρ resolution of the accumulator.
    rho_bins: usize,
}

impl HoughDetector {
    /// Builds the detector with one of the paper's three tunings.
    pub fn new(tuning: Tuning) -> Self {
        let (pixel_min, min_line_pixels, max_lines) = match tuning {
            Tuning::Conservative => (4, 40, 10),
            Tuning::Optimal => (3, 26, 18),
            Tuning::Sensitive => (2, 14, 28),
        };
        HoughDetector {
            tuning,
            pictures: HoughPictures {
                time_bins: 120,
                y_bins: 1024,
            },
            pixel_min,
            min_line_pixels,
            max_lines,
            n_angles: 24,
            rho_bins: 256,
        }
    }

    /// This tuning's line detection over one accumulated picture (read
    /// only).
    fn finish_picture(
        &self,
        painted: &HoughAccumulator,
        cells: &PictureCells,
        out: &mut Vec<Alarm>,
    ) {
        let HoughAccumulator {
            geometry: HoughPictures { time_bins, y_bins },
            window,
            bin_us,
            ..
        } = *painted;
        // Per-row (y) baseline: the median count across all time bins
        // of the row, zeros included. A pixel is *anomalous* only when
        // it exceeds the baseline by `pixel_min` — constant service
        // rows (port 80 HTTP, popular hosts) have a high baseline and
        // stop producing always-on false lines, while transient
        // floods/scans rise far above their row's median.
        let mut row_counts: HashMap<u16, Vec<u32>> = HashMap::new();
        for (&(_, y), (c, _)) in cells {
            row_counts.entry(y).or_default().push(*c);
        }
        let mut row_median: HashMap<u16, u32> = HashMap::new();
        for (y, mut counts) in row_counts {
            let zeros = time_bins.saturating_sub(counts.len());
            let mid = time_bins / 2;
            let med = if zeros > mid {
                0
            } else {
                counts.sort_unstable();
                counts[mid - zeros]
            };
            row_median.insert(y, med);
        }
        // Active pixels in a deterministic order.
        let mut pixels: Vec<((u16, u16), &HashSet<FlowKey>)> = cells
            .iter()
            .filter(|(&(_, y), (c, _))| {
                c.saturating_sub(*row_median.get(&y).unwrap_or(&0)) >= self.pixel_min
            })
            .map(|(k, (_, flows))| (*k, flows))
            .collect();
        pixels.sort_by_key(|(k, _)| *k);
        if pixels.len() < self.min_line_pixels {
            return;
        }

        // Hough accumulation in normalised [0,1]² coordinates.
        // ρ ∈ [-1, √2] for θ ∈ [0, π).
        let rho_min = -1.0f64;
        let rho_span = 1.0 + std::f64::consts::SQRT_2;
        let rho_step = rho_span / self.rho_bins as f64;
        let angles: Vec<(f64, f64)> = (0..self.n_angles)
            .map(|i| {
                let th = std::f64::consts::PI * i as f64 / self.n_angles as f64;
                (th.cos(), th.sin())
            })
            .collect();
        let mut acc: HashMap<(u16, u16), u32> = HashMap::new();
        let coord = |(x, y): (u16, u16)| {
            (
                (x as f64 + 0.5) / time_bins as f64,
                (y as f64 + 0.5) / y_bins as f64,
            )
        };
        for &(px, _) in &pixels {
            let (xn, yn) = coord(px);
            for (ai, &(c, s)) in angles.iter().enumerate() {
                let rho = xn * c + yn * s;
                let ri = (((rho - rho_min) / rho_step) as usize).min(self.rho_bins - 1);
                *acc.entry((ai as u16, ri as u16)).or_insert(0) += 1;
            }
        }

        // Peak extraction with simple non-maximum suppression.
        let mut peaks: Vec<((u16, u16), u32)> = acc
            .iter()
            .filter(|(_, &v)| v as usize >= self.min_line_pixels)
            .map(|(&k, &v)| (k, v))
            .collect();
        peaks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut taken: Vec<(u16, u16)> = Vec::new();
        let mut used_pixels: HashSet<(u16, u16)> = HashSet::new();
        for (key, votes) in peaks {
            if taken.len() >= self.max_lines {
                break;
            }
            let near_existing = taken.iter().any(|&(a, r)| {
                (a as i32 - key.0 as i32).abs() <= 1 && (r as i32 - key.1 as i32).abs() <= 2
            });
            if near_existing {
                continue;
            }
            // Gather this line's pixels.
            let (c, s) = angles[key.0 as usize];
            let mut flows: HashSet<FlowKey> = HashSet::new();
            let mut x_min = u16::MAX;
            let mut x_max = 0u16;
            let mut fresh = 0usize;
            for &(px, flowset) in &pixels {
                let (xn, yn) = coord(px);
                let rho = xn * c + yn * s;
                let ri = (((rho - rho_min) / rho_step) as usize).min(self.rho_bins - 1);
                if ri as u16 == key.1 {
                    flows.extend(flowset.iter().copied());
                    x_min = x_min.min(px.0);
                    x_max = x_max.max(px.0);
                    if used_pixels.insert(px) {
                        fresh += 1;
                    }
                }
            }
            // Require the line to be mostly new pixels; otherwise it is
            // a re-description of an already-reported line.
            if fresh * 2 < self.min_line_pixels {
                continue;
            }
            taken.push(key);
            let mut keys: Vec<FlowKey> = flows.into_iter().collect();
            keys.sort();
            keys.truncate(5_000);
            out.push(Alarm {
                detector: DetectorKind::Hough,
                tuning: self.tuning,
                window: TimeWindow::new(
                    window.start_us + x_min as u64 * bin_us,
                    (window.start_us + (x_max as u64 + 1) * bin_us).min(window.end_us),
                ),
                scope: AlarmScope::FlowSet(keys),
                score: votes as f64 / self.min_line_pixels as f64,
            });
        }
    }
}

impl Detector for HoughDetector {
    fn kind(&self) -> DetectorKind {
        DetectorKind::Hough
    }

    fn tuning(&self) -> Tuning {
        self.tuning
    }

    fn accumulator(&self) -> AccumulatorSpec {
        AccumulatorSpec::Hough(self.pictures.clone())
    }

    /// Line detection over both pictures. Hough carries no warm prior.
    fn finish(&self, acc: &Accumulator, _warm: Option<(&DetectorPrior, f64)>) -> Finished {
        let Accumulator::Hough(acc) = acc else {
            return Finished::default();
        };
        let mut alarms = Vec::new();
        if acc.seen > 0 {
            for (_, cells) in &acc.pictures {
                self.finish_picture(acc, cells, &mut alarms);
            }
        }
        Finished {
            alarms,
            prior: None,
        }
    }

    fn incremental(&self) -> Box<dyn IncrementalDetector> {
        Box::new(ConfigRun::new(self.clone()))
    }
}

impl HoughPictures {
    /// Pixel of one packet in one picture.
    fn pixel(
        &self,
        picture: Picture,
        window_start_us: u64,
        bin_us: u64,
        p: &mawilab_model::Packet,
    ) -> (u16, u16) {
        let x =
            ((p.ts_us.saturating_sub(window_start_us) / bin_us) as usize).min(self.time_bins - 1);
        let y = match picture {
            Picture::Port => (p.dport as usize * self.y_bins) >> 16, // port/64
            Picture::Addr => (u32::from(p.dst).wrapping_mul(2_654_435_761) as usize) % self.y_bins,
        };
        (x as u16, y as u16)
    }

    /// Starts the family accumulator over one trace.
    pub fn begin(&self, meta: &TraceMeta) -> HoughAccumulator {
        let window = meta.window();
        HoughAccumulator {
            geometry: self.clone(),
            window,
            bin_us: (window.len_us() / self.time_bins as u64).max(1),
            seen: 0,
            pictures: [
                (Picture::Port, HashMap::new()),
                (Picture::Addr, HashMap::new()),
            ],
        }
    }
}

/// The Hough family accumulator: chunk observation paints packets
/// into the two sparse pictures (pixel → count + contributing flow
/// keys, keyed by absolute time bin); every tuning's Hough transform
/// and peak extraction read it at finish.
pub struct HoughAccumulator {
    geometry: HoughPictures,
    window: TimeWindow,
    bin_us: u64,
    seen: u64,
    pictures: [(Picture, PictureCells); 2],
}

impl HoughAccumulator {
    /// Paints one chunk of packets into both pictures.
    pub fn observe(&mut self, chunk: &ChunkView<'_>) {
        self.seen += chunk.packets.len() as u64;
        for p in chunk.packets {
            let key = FlowKey::of(p);
            for (picture, cells) in &mut self.pictures {
                let px = self
                    .geometry
                    .pixel(*picture, self.window.start_us, self.bin_us, p);
                let cell = cells.entry(px).or_default();
                cell.0 += 1;
                cell.1.insert(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceView;
    use mawilab_model::{FlowTable, Protocol};
    use mawilab_synth::{AnomalySpec, SynthConfig, TraceGenerator};

    fn run(tuning: Tuning, cfg: SynthConfig) -> (Vec<Alarm>, mawilab_synth::LabeledTrace) {
        let lt = TraceGenerator::new(cfg).generate();
        let flows = FlowTable::build(&lt.trace.packets);
        let alarms = HoughDetector::new(tuning).analyze(&TraceView::new(&lt.trace, &flows));
        (alarms, lt)
    }

    fn worm() -> SynthConfig {
        SynthConfig::default()
            .with_seed(303)
            .with_anomalies(vec![AnomalySpec::SasserWorm {
                infected: 2,
                scans: 1500,
                rate_pps: 60.0,
            }])
    }

    #[test]
    fn detects_worm_sweep_as_flow_set() {
        let (alarms, lt) = run(Tuning::Sensitive, worm());
        assert!(!alarms.is_empty());
        let infected = lt.truth.anomalies()[0].rule.src.unwrap();
        // Some alarm's flow set must contain flows from the worm.
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::FlowSet(keys) => {
                keys.iter()
                    .filter(|k| k.src == infected && k.dport == 445)
                    .count()
                    > 20
            }
            _ => false,
        });
        assert!(
            hit,
            "no alarm captured the 445 sweep; {} alarms",
            alarms.len()
        );
    }

    #[test]
    fn detects_port_scan_line() {
        let cfg =
            SynthConfig::default()
                .with_seed(304)
                .with_anomalies(vec![AnomalySpec::PortScan {
                    scanner: 1,
                    victim: 3,
                    ports: 3000,
                    rate_pps: 120.0,
                }]);
        let (alarms, lt) = run(Tuning::Sensitive, cfg);
        let scanner = lt.truth.anomalies()[0].rule.src.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::FlowSet(keys) => keys.iter().filter(|k| k.src == scanner).count() > 50,
            _ => false,
        });
        assert!(hit, "scan not captured; {} alarms", alarms.len());
    }

    #[test]
    fn flood_appears_as_horizontal_line() {
        let cfg =
            SynthConfig::default()
                .with_seed(305)
                .with_anomalies(vec![AnomalySpec::PingFlood {
                    src: 2,
                    dst: 4,
                    rate_pps: 250.0,
                    duration_s: 30.0,
                }]);
        let (alarms, lt) = run(Tuning::Optimal, cfg);
        let src = lt.truth.anomalies()[0].rule.src.unwrap();
        let hit = alarms.iter().any(|a| match &a.scope {
            AlarmScope::FlowSet(keys) => keys
                .iter()
                .any(|k| k.src == src && k.proto == Protocol::Icmp),
            _ => false,
        });
        assert!(hit, "flood line missed");
    }

    #[test]
    fn all_alarms_are_flow_sets_with_nonempty_keys() {
        let (alarms, _) = run(Tuning::Sensitive, worm());
        for a in &alarms {
            match &a.scope {
                AlarmScope::FlowSet(keys) => assert!(!keys.is_empty()),
                other => panic!("unexpected scope {other:?}"),
            }
            assert_eq!(a.detector, DetectorKind::Hough);
        }
    }

    #[test]
    fn sensitive_finds_at_least_conservative() {
        let (sens, _) = run(Tuning::Sensitive, worm());
        let (cons, _) = run(Tuning::Conservative, worm());
        assert!(sens.len() >= cons.len());
    }

    #[test]
    fn line_count_is_capped() {
        let d = HoughDetector::new(Tuning::Sensitive);
        let (alarms, _) = run(Tuning::Sensitive, SynthConfig::default().with_seed(306));
        assert!(alarms.len() <= 2 * d.max_lines, "{} alarms", alarms.len());
    }

    #[test]
    fn deterministic() {
        let (a, _) = run(Tuning::Optimal, worm());
        let (b, _) = run(Tuning::Optimal, worm());
        assert_eq!(a, b);
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
        let alarms =
            HoughDetector::new(Tuning::Sensitive).analyze(&TraceView::new(&lt.trace, &flows));
        assert!(alarms.is_empty());
    }
}
