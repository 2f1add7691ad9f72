//! End-to-end and per-layer benchmark of the production labeling
//! path, `OnlinePipeline::run` / `run_warm`.
//!
//! ```text
//! labeling --workload <archive-cold|archive-warm|pcap-flood> --seed <n>
//!          --seconds <s> --trace <0|1> --work-dir <dir> [--commit <id>]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this
//! target and sets the allocator and thread policy of the process.
//!
//! * `--trace 0` labels each of the workload's days back to back for
//!   its share of `--seconds` (at least once), takes each day's
//!   medians over its repeats, and reports the end-to-end metrics:
//!   throughput, per-day and finalize latency, per-chunk ingest cost,
//!   peak RSS and set-up time.
//! * `--trace 1` alternates an untraced pass with a traced replay
//!   (see `replay`) and reports the per-layer metrics.
//!
//! Either way every labeled day is then compared with its oracle
//! outside the timed region: the batch `MawilabPipeline::run` on the
//! same input (a batch replay with the same warm hooks on
//! `archive-warm`). A day that errors or differs is a failed
//! operation. The last stdout line is the JSON result; the line
//! before it records the run context.

mod labeling {
    pub mod clock;
    pub mod oracle;
    pub mod replay;
    pub mod report;
    pub mod view;
    pub mod workload;
}

use labeling::clock::ClockedSource;
use labeling::report::{harrell_davis, percentile, BenchResult, Metric};
use labeling::workload::{DayInput, Inputs, Workload};
use labeling::{oracle, replay, view};
use mawilab_bench::archive::DEFAULT_WARM_DECAY;
use mawilab_core::{OnlinePipeline, OnlineReport, WarmState};
use mawilab_model::{NoRewindSource, SourceError};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut commit = String::from("unknown");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        // `cargo bench` passes `--bench` to harness-less targets.
        if flag == "--bench" {
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        commit,
    })
}

/// One timed labeling of a day.
struct DaySample {
    packets: u64,
    day_s: f64,
    finalize_s: f64,
    chunk_s: Vec<f64>,
}

/// Labels one day through the production path, timing it from
/// opening the source to getting labels back.
fn label_day(
    pipeline: &OnlinePipeline,
    input: &DayInput,
    warm: Option<&mut WarmState>,
) -> Result<(OnlineReport, DaySample), SourceError> {
    let staged = input.clone();
    let opened = Instant::now();
    let mut source = ClockedSource::new(NoRewindSource::new(staged.open()?));
    let report = pipeline.run_warm(&mut source, warm)?;
    let done = Instant::now();
    let (inner, clock) = source.into_parts();
    if inner.rewinds_refused() > 0 {
        return Err(SourceError::RewindUnsupported("single-pass source"));
    }
    let end_of_stream = clock.end_of_stream.unwrap_or(done);
    Ok((
        report,
        DaySample {
            packets: clock.packets,
            day_s: (done - opened).as_secs_f64(),
            finalize_s: (done - end_of_stream).as_secs_f64(),
            chunk_s: clock.chunk_s,
        },
    ))
}

/// Label views of every labeling, indexed by day.
type Views = Vec<Vec<Option<u64>>>;

impl DaySample {
    /// Medians over the repeats of one day, chunk by chunk.
    fn median(runs: &[DaySample]) -> Option<DaySample> {
        let first = runs.first()?;
        let of = |f: &dyn Fn(&DaySample) -> Option<f64>| {
            percentile(&runs.iter().filter_map(f).collect::<Vec<_>>(), 0.5)
        };
        Some(DaySample {
            packets: first.packets,
            day_s: of(&|s| Some(s.day_s)),
            finalize_s: of(&|s| Some(s.finalize_s)),
            chunk_s: (0..first.chunk_s.len())
                .map(|i| of(&|s| s.chunk_s.get(i).copied()))
                .collect(),
        })
    }
}

/// The timed phase: each day is loaded (untimed; only that day's
/// input is resident), then labeled back to back, once and then as
/// often as its share of the remaining budget allows (a zero budget
/// is one untraced pass). A day's figures are the medians over its
/// repeats, so every day counts once in the percentiles whatever the
/// host's speed. On a warm workload every repeat starts from the
/// state the previous day left.
///
/// Returns a sample per day, the repeats per day, and the alarms and
/// communities of one labeling of every day.
fn measure(
    pipeline: &OnlinePipeline,
    inputs: &Inputs,
    budget: Duration,
    views: &mut Views,
) -> (Vec<DaySample>, Vec<u32>, [usize; 2]) {
    let start = Instant::now();
    let mut warm = inputs.warm.then(|| WarmState::new(DEFAULT_WARM_DECAY));
    let mut samples = Vec::with_capacity(inputs.days.len());
    let mut reps = Vec::with_capacity(inputs.days.len());
    let mut found = [0; 2];
    for (d, day) in inputs.days.iter().enumerate() {
        let slice = budget.saturating_sub(start.elapsed()) / (inputs.days.len() - d) as u32;
        let input = match day.load() {
            Ok(input) => input,
            Err(e) => {
                eprintln!("{}: input failed to load: {e}", day.date);
                views[d].push(None);
                reps.push(0);
                continue;
            }
        };
        let before = warm.clone();
        let started = Instant::now();
        let mut runs = Vec::new();
        let mut n: u32 = 0;
        while n == 0 || started.elapsed() * (n + 1) / n <= slice {
            let mut state = before.clone();
            match label_day(pipeline, &input, state.as_mut()) {
                Ok((report, sample)) => {
                    if n == 0 {
                        found[0] += report.report.communities.alarms.len();
                        found[1] += report.report.communities.community_count();
                    }
                    views[d].push(Some(view::of_online(&report)));
                    runs.push(sample);
                }
                Err(e) => {
                    eprintln!("{}: labeling failed: {e}", day.date);
                    views[d].push(None);
                }
            }
            warm = state;
            n += 1;
        }
        samples.extend(DaySample::median(&runs));
        reps.push(n);
    }
    (samples, reps, found)
}

/// Counts the labelings in `views` that errored or differ from the
/// oracle's view of their day.
fn mismatches(views: &Views, expected: &[Option<u64>]) -> u64 {
    let mut failed = 0;
    for (d, (got, want)) in views.iter().zip(expected).enumerate() {
        for g in got {
            if g.is_none() || g != want {
                eprintln!("day {d}: label view differs from the oracle");
                failed += 1;
            }
        }
    }
    failed
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labeling: {e}");
            return ExitCode::from(2);
        }
    };
    let config = mawilab_bench::archive::archive_config();

    // Set-up: input generation (plus the pcap file) and pipeline
    // construction, repeated so `setup_s` is a median.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's inputs before building anew.
        drop(built.take());
        let t = Instant::now();
        let inputs = match args.workload.setup(args.seed, &args.work_dir) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("labeling: set-up failed: {e}");
                return ExitCode::from(1);
            }
        };
        let pipeline = OnlinePipeline::new(config.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((inputs, pipeline));
    }
    let Some((inputs, pipeline)) = built else {
        return ExitCode::from(1);
    };
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        // Restart the peak-RSS mark so `peak_rss_mb` covers labeling
        // only, not the set-up repetitions.
        if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
            eprintln!("labeling: cannot reset the peak-RSS mark: {e}");
            inputs.cleanup();
            return ExitCode::from(1);
        }
    }

    let mut result = BenchResult::default();
    let mut context = Vec::new();
    let mut views: Views = vec![Vec::new(); inputs.days.len()];
    if !args.trace {
        let (samples, reps, [alarms, communities]) =
            measure(&pipeline, &inputs, budget, &mut views);
        let Some(peak_rss_kb) = mawilab_bench::harness::peak_rss_kb() else {
            eprintln!("labeling: VmHWM is unreadable");
            inputs.cleanup();
            return ExitCode::from(1);
        };
        let peak_rss_mb = peak_rss_kb as f64 / 1024.0;

        let packets: u64 = samples.iter().map(|s| s.packets).sum();
        let wall: f64 = samples.iter().map(|s| s.day_s).sum();
        let days: Vec<f64> = samples.iter().map(|s| s.day_s).collect();
        let finals: Vec<f64> = samples.iter().map(|s| s.finalize_s).collect();
        // Every chunk of every day: the days of a workload are alike in
        // size, so no single input sets the tail.
        let chunks: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.chunk_s.iter().map(|c| c * 1e3))
            .collect();
        result
            .metrics
            .push(Metric::new("packets_per_s", packets as f64 / wall, "1/s"));
        result
            .metrics
            .push(Metric::new("day_s_p50", harrell_davis(&days, 0.5), "s"));
        result
            .metrics
            .push(Metric::new("day_s_p80", harrell_davis(&days, 0.8), "s"));
        result.metrics.push(Metric::new(
            "finalize_s_p50",
            harrell_davis(&finals, 0.5),
            "s",
        ));
        result.metrics.push(Metric::new(
            "chunk_ms_p50",
            harrell_davis(&chunks, 0.5),
            "ms",
        ));
        result.metrics.push(Metric::new(
            "chunk_ms_p90",
            harrell_davis(&chunks, 0.9),
            "ms",
        ));
        result
            .metrics
            .push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
        result
            .metrics
            .push(Metric::new("setup_s", percentile(&setup_s, 0.5), "s"));
        context.push(("day_samples", days.len().to_string()));
        context.push(("chunk_samples", chunks.len().to_string()));
        context.push((
            "reps_per_day_min",
            reps.iter().min().unwrap_or(&0).to_string(),
        ));
        context.push((
            "reps_per_day_max",
            reps.iter().max().unwrap_or(&0).to_string(),
        ));
        context.push(("packets", packets.to_string()));
        context.push(("alarms", alarms.to_string()));
        context.push(("communities", communities.to_string()));
    } else {
        // Rounds of an untraced pass and the traced replay of the
        // same days, filling the budget. Both views go to the oracle
        // check, so the replay is held to the untraced labels day for
        // day.
        let start = Instant::now();
        let mut layers = replay::Layers::new();
        let mut untraced_wall = 0.0;
        let mut rounds = 0;
        while rounds == 0 || start.elapsed() * (rounds + 1) / rounds <= budget {
            let (once, _, _) = measure(&pipeline, &inputs, Duration::ZERO, &mut views);
            untraced_wall += once.iter().map(|s| s.day_s).sum::<f64>();
            let traced = replay::replay_pass(&pipeline, &inputs, &mut layers);
            for (d, v) in traced.into_iter().enumerate() {
                views[d].push(v);
            }
            rounds += 1;
        }
        result.metrics = layers.metrics(rounds as f64, untraced_wall);
        context.push(("rounds", rounds.to_string()));
    }

    // Oracle check, outside every timed region and after peak RSS.
    let expected = oracle::views(&config, &inputs);
    result.attempted = views.iter().map(|v| v.len() as u64).sum();
    result.failed = mismatches(&views, &expected);
    result.correct = result.failed == 0;
    inputs.cleanup();

    context.push(("workload", args.workload.name().to_string()));
    context.push(("seed", args.seed.to_string()));
    context.push(("commit", args.commit.clone()));
    context.push(("days", inputs.days.len().to_string()));
    context.push(("oracle", inputs.oracle_name().to_string()));
    let first: Vec<Option<u64>> = views.iter().map(|v| v.first().copied().flatten()).collect();
    context.push(("label_digest", view::digest(&first)));
    context.push((
        "hardware_threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .to_string(),
    ));
    context.push(("exec_threads", mawilab_exec::thread_count().to_string()));
    context.push(("MAWILAB_THREADS", env_or_unset("MAWILAB_THREADS")));
    context.push(("MALLOC_ARENA_MAX", env_or_unset("MALLOC_ARENA_MAX")));
    context.push((
        "MALLOC_MMAP_THRESHOLD_",
        env_or_unset("MALLOC_MMAP_THRESHOLD_"),
    ));
    context.push(("setup_reps", SETUP_REPS.to_string()));
    println!("{}", labeling::report::context_json(&context));
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}
