//! The three workloads and their inputs, generated from the seed.

use mawilab_model::pcap::{read_pcap, write_pcap, PcapError};
use mawilab_model::{
    PacketChunk, PacketSource, SourceError, StreamingPcapReader, Trace, TraceChunker, TraceDate,
    TraceMeta, DEFAULT_CHUNK_US,
};
use mawilab_synth::{AnomalySpec, ArchiveConfig, ArchiveSimulator, SynthConfig, TraceGenerator};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Consecutive archive days of the two archive workloads: 2006-06-01
/// to 2006-07-31, across the 2006-07-01 link-era boundary.
pub const ARCHIVE_DAYS: usize = 61;
/// Consecutive flood days from 2004-06-02. One day's cost swings
/// with its seed (Gamma's alarm count alone varies threefold between
/// seeds), so a run labels many short days and reports medians over
/// them, which rest on many days rather than on whichever single day
/// comes out in the middle. Nine 300 s days keep a flood run, oracle
/// included, near 30 s.
pub const FLOOD_DAYS: usize = 9;
/// Length of each flood day.
pub const FLOOD_DAY_S: u32 = 300;
/// Targets of each flood day's one-packet-per-flow Sasser sweep: at
/// 250 packets/s it runs for most of the day.
pub const FLOOD_SWEEP_TARGETS: usize = 67_000;
/// Ports of each flood day's vertical scan, at 80 packets/s.
pub const FLOOD_SCAN_PORTS: u16 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 61 archive days, each labeled cold.
    ArchiveCold,
    /// The same days through one warm state.
    ArchiveWarm,
    /// 300 s days with a scan flood, ingested from pcap files.
    PcapFlood,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "archive-cold" => Ok(Workload::ArchiveCold),
            "archive-warm" => Ok(Workload::ArchiveWarm),
            "pcap-flood" => Ok(Workload::PcapFlood),
            other => Err(format!("unknown workload {other}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArchiveCold => "archive-cold",
            Workload::ArchiveWarm => "archive-warm",
            Workload::PcapFlood => "pcap-flood",
        }
    }

    /// Prepares the workload's days from `seed`. Every day is
    /// generated once here: an archive day to learn its size (it is
    /// dropped again and regenerated when labeled, so only the day in
    /// use is resident), a flood day to write its pcap file under
    /// `work_dir`.
    pub fn setup(self, seed: u64, work_dir: &Path) -> Result<Inputs, String> {
        match self {
            Workload::ArchiveCold | Workload::ArchiveWarm => {
                let duration_s = ArchiveConfig::default().duration_s;
                let days = TraceDate::new(2006, 6, 1)
                    .consecutive(ARCHIVE_DAYS)
                    .into_iter()
                    .map(|date| {
                        let config = day_config(seed, date, duration_s);
                        Day {
                            date,
                            packets: TraceGenerator::new(config.clone())
                                .generate()
                                .trace
                                .packets
                                .len(),
                            origin: Origin::Archive(config),
                        }
                    })
                    .collect();
                Ok(Inputs {
                    days,
                    warm: self == Workload::ArchiveWarm,
                })
            }
            Workload::PcapFlood => {
                std::fs::create_dir_all(work_dir).map_err(|e| e.to_string())?;
                let days = TraceDate::new(2004, 6, 2)
                    .consecutive(FLOOD_DAYS)
                    .into_iter()
                    .map(|date| flood_day(seed, date, work_dir))
                    .collect::<Result<_, _>>()?;
                Ok(Inputs { days, warm: false })
            }
        }
    }
}

/// One scale-1 archive day's generator configuration. The seed (as
/// `ArchiveConfig::base_seed`) drives every random stream of the day
/// (hosts, timing, placement, the background mix); the day's size —
/// background rate and anomaly list — is the default archive's, so
/// seeds do not change how much traffic the day holds, and a run's
/// figures (the peak RSS above all, set by the largest day) do not
/// follow which days a seed made large.
fn day_config(seed: u64, date: TraceDate, duration_s: u32) -> SynthConfig {
    let day = |base_seed| {
        ArchiveSimulator::new(ArchiveConfig {
            base_seed,
            scale: 1.0,
            duration_s,
        })
        .config_for(date)
    };
    let shape = day(ArchiveConfig::default().base_seed);
    let mut config = day(seed);
    config.background_pps = shape.background_pps;
    config.anomalies = shape.anomalies;
    config
}

/// One flood day written to a pcap file: an archive day with a
/// one-packet-per-flow sweep and a port scan added.
fn flood_day(seed: u64, date: TraceDate, work_dir: &Path) -> Result<Day, String> {
    let mut config = day_config(seed, date, FLOOD_DAY_S);
    let mut mix = seed
        .wrapping_add(date.days_since_epoch() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut host = || {
        mix = mix.rotate_left(17).wrapping_add(0xD6E8_FEB8_6659_FD93);
        (mix % 200) as usize
    };
    config.anomalies.push(AnomalySpec::SasserWorm {
        infected: host(),
        scans: FLOOD_SWEEP_TARGETS,
        rate_pps: 250.0,
    });
    config.anomalies.push(AnomalySpec::PortScan {
        scanner: host(),
        victim: host(),
        ports: FLOOD_SCAN_PORTS,
        rate_pps: 80.0,
    });
    let trace = TraceGenerator::new(config).generate().trace;
    let path = work_dir.join(format!("pcap-flood-{seed}-{date}.pcap"));
    let mut w = BufWriter::new(File::create(&path).map_err(|e| e.to_string())?);
    write_pcap(&mut w, &trace).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    Ok(Day {
        date,
        packets: trace.packets.len(),
        origin: Origin::Pcap {
            path,
            meta: trace.meta.clone(),
        },
    })
}

/// Where a day comes from.
enum Origin {
    /// Generated into memory whenever it is loaded.
    Archive(SynthConfig),
    /// The pcap file written at set-up.
    Pcap { path: PathBuf, meta: TraceMeta },
}

/// One day of a workload.
pub struct Day {
    pub date: TraceDate,
    /// Packets in the day, as generated at set-up.
    packets: usize,
    origin: Origin,
}

impl Day {
    /// The day's input, outside every timed region. An archive day is
    /// generated anew and must come out as it did at set-up.
    pub fn load(&self) -> Result<DayInput<'_>, String> {
        let input = match &self.origin {
            Origin::Archive(config) => {
                DayInput::Memory(TraceGenerator::new(config.clone()).generate().trace)
            }
            Origin::Pcap { path, meta } => DayInput::Pcap { path, meta },
        };
        match &input {
            DayInput::Memory(trace) if trace.packets.len() != self.packets => Err(format!(
                "regenerated with {} packets, {} at set-up",
                trace.packets.len(),
                self.packets
            )),
            _ => Ok(input),
        }
    }
}

/// A day's input, loaded. A labeling opens its source from a clone,
/// made before the timed open: `TraceChunker` takes ownership of an
/// in-memory day.
#[derive(Clone)]
pub enum DayInput<'a> {
    /// Generated into memory; fed through `TraceChunker`.
    Memory(Trace),
    /// Written to a pcap file; fed through `StreamingPcapReader`.
    Pcap { path: &'a Path, meta: &'a TraceMeta },
}

/// A day's source, opened.
pub enum DaySource {
    Memory(TraceChunker),
    Pcap(StreamingPcapReader<BufReader<File>>),
}

impl DayInput<'_> {
    /// The whole day as one trace, for the batch oracle: the pcap is
    /// read back, so the oracle sees exactly what the stream saw.
    pub fn into_trace(self) -> Result<Trace, String> {
        match self {
            DayInput::Memory(trace) => Ok(trace),
            DayInput::Pcap { path, meta } => {
                let file = File::open(path).map_err(|e| e.to_string())?;
                let (trace, _skipped) =
                    read_pcap(BufReader::new(file), meta.clone()).map_err(|e| e.to_string())?;
                Ok(trace)
            }
        }
    }

    /// Opens the day's source at the default 5 s chunk width.
    pub fn open(self) -> Result<DaySource, SourceError> {
        match self {
            DayInput::Memory(trace) => Ok(DaySource::Memory(TraceChunker::try_new(
                trace,
                DEFAULT_CHUNK_US,
            )?)),
            DayInput::Pcap { path, meta } => {
                let file = File::open(path).map_err(PcapError::from)?;
                Ok(DaySource::Pcap(StreamingPcapReader::new(
                    BufReader::new(file),
                    meta.clone(),
                    DEFAULT_CHUNK_US,
                )?))
            }
        }
    }
}

impl PacketSource for DaySource {
    fn meta(&self) -> &TraceMeta {
        match self {
            DaySource::Memory(s) => s.meta(),
            DaySource::Pcap(s) => s.meta(),
        }
    }

    fn bin_us(&self) -> u64 {
        match self {
            DaySource::Memory(s) => s.bin_us(),
            DaySource::Pcap(s) => s.bin_us(),
        }
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        match self {
            DaySource::Memory(s) => s.next_chunk(),
            DaySource::Pcap(s) => s.next_chunk(),
        }
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        match self {
            DaySource::Memory(s) => s.rewind(),
            DaySource::Pcap(s) => s.rewind(),
        }
    }
}

/// Everything a run labels.
pub struct Inputs {
    pub days: Vec<Day>,
    /// Label the days through one carried `WarmState`.
    pub warm: bool,
}

impl Inputs {
    pub fn oracle_name(&self) -> &'static str {
        if self.warm {
            "batch warm replay"
        } else {
            "MawilabPipeline::run"
        }
    }

    /// Removes files written at set-up.
    pub fn cleanup(&self) {
        for day in &self.days {
            if let Origin::Pcap { path, .. } = &day.origin {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}
