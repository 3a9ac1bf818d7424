//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! traced variant and prints every per-layer metric (0 for a layer the
//! workload does not exercise). The last stdout line is the result
//! object; the line before it is the run's host metadata. The process
//! exits 1 if any operation failed or any output was wrong, and 2 on a
//! usage error.

mod inputs;
mod recon;
mod serve;
mod stats;

use inputs::Mix;
use jigsaw_core::engine::WorkerPool;
use jigsaw_fft::{Direction, FftNd};
use jigsaw_num::C64;
use stats::{json_str, median, result_json, Metric, Tally};
use std::time::Instant;

/// What one run measured.
pub struct Report {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// The metrics the run produced.
    pub metrics: Vec<Metric>,
    /// Run facts printed with the host metadata, as raw JSON values.
    pub notes: Vec<(&'static str, String)>,
}

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 2] = ["serve-hot", "serve-churn"];

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("output_err", "ratio"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// The per-layer metrics every traced run prints.
const PER_LAYER: [(&str, &str); 31] = [
    ("protocol.encode_submit_ms", "ms"),
    ("protocol.decode_submit_ms", "ms"),
    ("protocol.encode_result_ms", "ms"),
    ("protocol.decode_result_ms", "ms"),
    ("cache.key_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.insert_ms", "ms"),
    ("cache.build_ms", "ms"),
    ("nufft.plan_new_ms", "ms"),
    ("nufft.plan_trajectory_ms", "ms"),
    ("nufft.grid_ms", "ms"),
    ("nufft.fft_ms", "ms"),
    ("nufft.apod_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("daemon.queue_wait_p50_ms", "ms"),
    ("daemon.job_p50_ms", "ms"),
    ("sense.rhs_ms", "ms"),
    ("toeplitz.build_ms", "ms"),
    ("toeplitz.apply_batch_ms", "ms"),
    ("recon.iter_ms", "ms"),
    ("recon.cg_iterations", "count"),
    ("fft.process_ms", "ms"),
    ("gridding.serial_ms", "ms"),
    ("gridding.slice_dice_ms", "ms"),
    ("gridding.binned_ms", "ms"),
    ("gridding.slice_dice_checks", "count"),
    ("gridding.kernel_accumulations", "count"),
    ("engine.busy_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median wall time of one forward 512² `FftNd::process_with` on the
/// global worker pool, in milliseconds.
pub fn fft_process_ms() -> f64 {
    const G: usize = 512;
    const CALLS: usize = 12;
    let fft = FftNd::<f64>::new(&[G, G]);
    let mut rng = inputs::Rng::new(0x5eed);
    let input: Vec<C64> = (0..G * G)
        .map(|_| C64::new(rng.next_signed(), rng.next_signed()))
        .collect();
    let mut buf = input.clone();
    let mut times = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        buf.copy_from_slice(&input);
        let t0 = Instant::now();
        fft.process_with(WorkerPool::global(), &mut buf, Direction::Forward);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&buf);
    }
    median(&times)
}

/// Host-wide CPU ticks since boot from `/proc/stat`: (all, stolen by
/// the hypervisor).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Online CPUs, as `nproc` counts them without an affinity mask.
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Target features this binary was compiled with.
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {$(
            if cfg!(target_feature = $name) {
                f.push($name);
            }
        )*};
    }
    probe!("sse2", "sse4.1", "sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    f
}

/// The commit being measured, if `git` is installed and the working
/// directory is a repository.
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn meta_json(args: &Args, report: &Report, wall: f64, steal_frac: f64) -> String {
    let features: Vec<String> = target_features().iter().map(|f| json_str(f)).collect();
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", online_cpus().to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(0)
                .to_string(),
        ),
        ("target_features", format!("[{}]", features.join(", "))),
        (
            "git_rev",
            git_rev().map_or("null".to_string(), |r| json_str(&r)),
        ),
        ("telemetry_enabled", jigsaw_telemetry::enabled().to_string()),
        ("fail_ratio", report.tally.fail_ratio().to_string()),
        ("host_steal_frac", steal_frac.to_string()),
        ("run_wall_s", wall.to_string()),
    ];
    fields.extend(report.notes.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}

/// Every metric of `table`, taking measured values from `report` and 0
/// for a metric the workload does not exercise.
fn complete(table: &[(&'static str, &'static str)], report: &Report) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let ticks0 = cpu_ticks();
    let mix = if args.workload == "serve-hot" {
        Mix::Hot
    } else {
        Mix::Churn
    };
    let outcome = if !args.trace {
        serve::run(mix, args.seed, args.seconds)
    } else if mix == Mix::Hot {
        // The serve-hot traced run also measures the offline CG-SENSE
        // layers (see `recon`).
        serve::run_traced(mix, args.seed, args.seconds).and_then(|mut r| {
            let recon = recon::layers(args.seed)?;
            r.tally.merge(recon.tally);
            r.metrics.extend(recon.metrics);
            r.notes.extend(recon.notes);
            Ok(r)
        })
    } else {
        serve::run_traced(mix, args.seed, args.seconds)
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let ticks1 = cpu_ticks();
    let steal_frac =
        ticks1.1.saturating_sub(ticks0.1) as f64 / ticks1.0.saturating_sub(ticks0.0).max(1) as f64;
    let table: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = complete(table, &report);
    for m in &metrics {
        eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = report.tally.failed == 0 && report.tally.attempted > 0;
    println!("{}", meta_json(&args, &report, wall, steal_frac));
    println!("{}", result_json(correct, report.tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
