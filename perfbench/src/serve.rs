//! The `serve-hot` and `serve-churn` workloads: a closed loop of
//! clients driving the real daemon (`serve::serve_unix`) over a Unix
//! socket through `serve::ServeClient`, and — in the traced run — the
//! same request sequence replayed in-process, one layer call at a time.

use crate::inputs::{nudft_pixels, oracle_pixels, Mix, ServeInputs, SERVE_N};
use crate::stats::{median, scraped_quantile_ms, tail, Metric, Outcome, Tally};
use crate::{fft_process_ms, rss_peak_mib, Report};
use jigsaw_core::engine::WorkerPool;
use jigsaw_core::serve::protocol::{encode, read_frame};
use jigsaw_core::serve::{
    plan_key, serve_unix, CachedPlan, Frame, JobRequest, JobResult, PlanCache, RetryPolicy,
    ServeClient, ServeOptions, StatsSnapshot,
};
use jigsaw_core::{NufftConfig, NufftPlan};
use jigsaw_num::C64;
use jigsaw_telemetry as telemetry;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon starts per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Largest error a reply's checked pixels may show, as the RMS pixel
/// error over the RMS magnitude `‖values‖₂` that an adjoint of
/// uncorrelated samples has at any pixel. The default plan quantizes
/// coordinates to 1/(L·G) of a cycle (L = 32, G = 512), a phase error
/// of up to π·|k|/(L·G) at pixel offset `k`: about 2.4e-2 at the edge
/// of the field of view. Any wrong or misrouted image errs by O(1).
const ORACLE_TOL: f64 = 0.1;
/// A reply that takes longer than this counts as a timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A daemon running on a thread of this process, with the control
/// connection that started it.
struct Daemon {
    path: PathBuf,
    thread: JoinHandle<jigsaw_core::Result<()>>,
    control: ServeClient<UnixStream>,
}

impl Daemon {
    /// Start a daemon on a fresh socket and wait for its first `Pong`.
    fn start(path: PathBuf) -> Result<Self, String> {
        let opts = ServeOptions::default();
        let p = path.clone();
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || serve_unix(&p, &opts))
            .map_err(|e| format!("spawning daemon: {e}"))?;
        let policy = RetryPolicy {
            retries: 12,
            backoff_ms: 1,
            seed: 0,
        };
        let mut control = ServeClient::connect_with_retry(&path, &policy)
            .map_err(|e| format!("connecting to {}: {e}", path.display()))?;
        control
            .set_read_timeout(READ_TIMEOUT)
            .map_err(|e| format!("read timeout: {e}"))?;
        control.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(Self {
            path,
            thread,
            control,
        })
    }

    fn stats(&mut self) -> Result<Box<StatsSnapshot>, String> {
        self.control.stats().map_err(|e| format!("stats: {e}"))
    }

    /// Shut the daemon down and wait for its thread.
    fn stop(mut self) -> Result<(), String> {
        self.control
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(self.control);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon on {}: {e}", self.path.display())),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Socket `k` of this process, relative to the working directory (the
/// checkout), which keeps the path short and inside it.
fn socket_path(k: usize) -> PathBuf {
    PathBuf::from(format!("perfbench-{}-{k}.sock", std::process::id()))
}

/// One answered (or failed) request of the closed loop.
struct Sample {
    index: u64,
    latency_ms: f64,
    /// `None` until the oracle has checked the reply.
    outcome: Option<Outcome>,
    pixels: Vec<C64>,
    cache_hit: bool,
}

impl Sample {
    /// A request that ended without a reply worth checking.
    fn failed(index: u64, latency_ms: f64, outcome: Outcome) -> Self {
        Self {
            index,
            latency_ms,
            outcome: Some(outcome),
            pixels: Vec::new(),
            cache_hit: false,
        }
    }
}

/// Classify a response frame to request `req`.
fn sample_of(req: &JobRequest, frame: Frame, latency_ms: f64, pixels: &[usize]) -> Sample {
    match frame {
        Frame::Result(r) if r.tag == req.tag && r.image.len() == SERVE_N * SERVE_N => Sample {
            index: req.tag,
            latency_ms,
            outcome: None,
            pixels: pixels.iter().map(|&p| r.image[p]).collect(),
            cache_hit: r.cache_hit,
        },
        Frame::Error(_) => Sample::failed(req.tag, latency_ms, Outcome::Error),
        Frame::Overloaded(_) => Sample::failed(req.tag, latency_ms, Outcome::Overloaded),
        _ => Sample::failed(req.tag, latency_ms, Outcome::WrongOutput),
    }
}

/// A closed loop of `clients` connections for `seconds`: each sends its
/// next `Submit` once the previous `Result` is decoded. Request indices
/// come from the shared counter `next`. Returns the samples and the
/// wall time from the start to the last answer.
fn closed_loop(
    path: &Path,
    inputs: &ServeInputs,
    next: &AtomicU64,
    seconds: f64,
    clients: usize,
    pixels: &[usize],
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut last = 0.0;
                    let mut client = match ServeClient::connect(path) {
                        Ok(c) if c.set_read_timeout(READ_TIMEOUT).is_ok() => c,
                        _ => {
                            out.push(Sample::failed(u64::MAX, 0.0, Outcome::Timeout));
                            return (out, last);
                        }
                    };
                    while start.elapsed().as_secs_f64() < seconds {
                        let req = inputs.request(next.fetch_add(1, Ordering::Relaxed));
                        let t0 = Instant::now();
                        let answer = client.roundtrip(&req);
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        last = start.elapsed().as_secs_f64();
                        match answer {
                            Ok(frame) => out.push(sample_of(&req, frame, latency_ms, pixels)),
                            Err(_) => {
                                out.push(Sample::failed(req.tag, latency_ms, Outcome::Timeout));
                                break;
                            }
                        }
                    }
                    (out, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = per_client.iter().map(|p| p.1).fold(0.0, f64::max);
    (per_client.into_iter().flat_map(|p| p.0).collect(), wall)
}

/// Check every pending sample against the direct NuDFT of its own
/// request, after the timed phase (see [`ORACLE_TOL`]). Returns the
/// relative L2 error over all checked pixels of all samples.
fn oracle(inputs: &ServeInputs, samples: &mut [Sample], pixels: &[usize]) -> f64 {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chunk = samples.len().div_ceil(threads).max(1);
    let sums: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = samples
            .chunks_mut(chunk)
            .map(|part| {
                s.spawn(move || {
                    let (mut num, mut den) = (0.0, 0.0);
                    for smp in part.iter_mut().filter(|s| s.outcome.is_none()) {
                        let req = inputs.request(smp.index);
                        let exact = nudft_pixels(SERVE_N, &req.coords, &req.values, pixels);
                        let n: f64 = smp
                            .pixels
                            .iter()
                            .zip(&exact)
                            .map(|(a, b)| (*a - *b).norm_sqr())
                            .sum();
                        let d: f64 = exact.iter().map(|z| z.norm_sqr()).sum();
                        let energy: f64 = req.values.iter().map(|v| v.norm_sqr()).sum();
                        let scale = energy * pixels.len() as f64;
                        let ok = scale > 0.0 && (n / scale).sqrt() <= ORACLE_TOL;
                        smp.outcome = Some(if ok {
                            Outcome::Ok
                        } else {
                            Outcome::WrongOutput
                        });
                        num += n;
                        den += d;
                    }
                    (num, den)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let (num, den) = sums.iter().fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    if den > 0.0 {
        (num / den).sqrt()
    } else {
        0.0
    }
}

fn tally_of(samples: &[Sample]) -> Tally {
    let mut t = Tally::default();
    for s in samples {
        t.record(s.outcome.unwrap_or(Outcome::WrongOutput));
    }
    t
}

/// Start a daemon and send the set-up requests on its control
/// connection: the hot trajectories, or churn windows that fill the
/// cache. Returns the daemon and the seconds from start to the last
/// set-up answer.
fn set_up(inputs: &ServeInputs, k: usize, tally: &mut Tally) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let mut daemon = Daemon::start(socket_path(k))?;
    for j in 0..inputs.setup_count() {
        let req = inputs.setup_request(j);
        let ok = matches!(daemon.control.roundtrip(&req), Ok(Frame::Result(r)) if r.tag == req.tag);
        tally.record(if ok { Outcome::Ok } else { Outcome::Error });
    }
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

fn client_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2)
}

/// The untraced run: end-to-end metrics.
pub fn run(mix: Mix, seed: u64, seconds: f64) -> Result<Report, String> {
    telemetry::set_enabled(false);
    let inputs = ServeInputs::new(mix, seed);
    let pixels = oracle_pixels();
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    for k in 1..SETUP_REPEATS {
        let (d, secs) = set_up(&inputs, k, &mut tally)?;
        setups.push(secs);
        d.stop()?;
    }
    let (daemon, secs) = set_up(&inputs, SETUP_REPEATS, &mut tally)?;
    setups.push(secs);
    let clients = client_count();
    let next = AtomicU64::new(0);
    let (mut samples, wall) = closed_loop(&daemon.path, &inputs, &next, seconds, clients, &pixels);
    daemon.stop()?;
    let err = oracle(&inputs, &mut samples, &pixels);
    tally.merge(tally_of(&samples));

    let ok: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.outcome == Some(Outcome::Ok))
        .collect();
    let lat: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let t = tail(&lat);
    let hits = ok.iter().filter(|s| s.cache_hit).count();
    Ok(Report {
        tally,
        metrics: vec![
            Metric::new("latency_p50_ms", median(&lat), "ms"),
            Metric::new("throughput_per_s", ok.len() as f64 / wall.max(1e-9), "1/s"),
            Metric::new("output_err", err, "ratio"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("rss_peak_mib", rss_peak_mib(), "MiB"),
        ],
        notes: vec![
            ("clients", clients.to_string()),
            ("tail_ms", t.value.to_string()),
            ("tail_percentile", t.percentile.to_string()),
            ("tail_samples", t.samples.to_string()),
            ("cache_hits_timed", hits.to_string()),
            ("setup_repeats", SETUP_REPEATS.to_string()),
        ],
    })
}

/// Per-request seconds in each layer of the in-process replay.
#[derive(Default)]
struct Ledger {
    requests: usize,
    wall: f64,
    encode_submit: f64,
    decode_submit: f64,
    key: f64,
    lookup: f64,
    plan_new: f64,
    plan_trajectory: f64,
    insert: f64,
    grid: f64,
    fft: f64,
    apod: f64,
    encode_result: f64,
    decode_result: f64,
}

impl Ledger {
    fn attributed(&self) -> f64 {
        self.encode_submit
            + self.decode_submit
            + self.key
            + self.lookup
            + self.plan_new
            + self.plan_trajectory
            + self.insert
            + self.grid
            + self.fft
            + self.apod
            + self.encode_result
            + self.decode_result
    }

    /// Mean milliseconds per request of a layer total.
    fn ms(&self, total: f64) -> f64 {
        total * 1e3 / self.requests.max(1) as f64
    }
}

/// Serve one request in-process through the daemon's layers in the
/// order the daemon calls them, timing each call. Returns the decoded
/// reply.
fn replay_one(
    cache: &PlanCache,
    cfg: &NufftConfig,
    req: &JobRequest,
    ledger: &mut Ledger,
) -> Result<JobResult, String> {
    let frame = Frame::Submit(req.clone());
    let t0 = Instant::now();
    let wire = encode(&frame);
    let t1 = Instant::now();
    let decoded = match read_frame(&mut wire.as_slice()) {
        Ok(Frame::Submit(r)) => r,
        other => return Err(format!("submit did not round-trip: {other:?}")),
    };
    let t2 = Instant::now();
    let key = plan_key(cfg, &decoded.coords);
    let t3 = Instant::now();
    let found = cache.lookup(&key);
    let t4 = Instant::now();
    ledger.encode_submit += (t1 - t0).as_secs_f64();
    ledger.decode_submit += (t2 - t1).as_secs_f64();
    ledger.key += (t3 - t2).as_secs_f64();
    ledger.lookup += (t4 - t3).as_secs_f64();
    let cache_hit = found.is_some();
    let entry = match found {
        Some(e) => e,
        None => {
            let t5 = Instant::now();
            let plan = NufftPlan::<f64, 2>::new(cfg.clone()).map_err(|e| e.to_string())?;
            let t6 = Instant::now();
            let traj = plan
                .plan_trajectory(&decoded.coords)
                .map_err(|e| e.to_string())?;
            let t7 = Instant::now();
            let entry = cache.insert(Arc::new(CachedPlan {
                key,
                cfg: cfg.clone(),
                plan,
                traj,
                coords: decoded.coords.as_slice().into(),
                weights: Arc::from([] as [f64; 0]),
                toeplitz: None,
            }));
            let t8 = Instant::now();
            ledger.plan_new += (t6 - t5).as_secs_f64();
            ledger.plan_trajectory += (t7 - t6).as_secs_f64();
            ledger.insert += (t8 - t7).as_secs_f64();
            entry
        }
    };
    let out = entry
        .plan
        .adjoint_batch_planned(&entry.traj, &[&decoded.values])
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or("planned adjoint returned no image")?;
    ledger.grid += out.timings.interp_seconds;
    ledger.fft += out.timings.fft_seconds;
    ledger.apod += out.timings.apod_seconds;
    let reply = Frame::Result(JobResult {
        tag: decoded.tag,
        cache_hit,
        n: decoded.n,
        image: out.image,
    });
    let t9 = Instant::now();
    let wire = encode(&reply);
    let t10 = Instant::now();
    let result = match read_frame(&mut wire.as_slice()) {
        Ok(Frame::Result(r)) => r,
        other => return Err(format!("result did not round-trip: {other:?}")),
    };
    let t11 = Instant::now();
    ledger.encode_result += (t10 - t9).as_secs_f64();
    ledger.decode_result += (t11 - t10).as_secs_f64();
    ledger.wall += (t11 - t0).as_secs_f64();
    ledger.requests += 1;
    Ok(result)
}

/// Sum of per-worker busy nanoseconds in a stats snapshot.
fn busy_ns(s: &StatsSnapshot) -> u64 {
    s.workers.iter().map(|w| w.busy_ns).sum()
}

/// The traced run: per-layer metrics.
pub fn run_traced(mix: Mix, seed: u64, seconds: f64) -> Result<Report, String> {
    telemetry::set_enabled(false);
    let inputs = ServeInputs::new(mix, seed);
    let pixels = oracle_pixels();
    let mut tally = Tally::default();
    let (mut daemon, _) = set_up(&inputs, 0, &mut tally)?;
    let clients = client_count();
    let next = AtomicU64::new(0);
    let phase = seconds / 3.0;

    // Phases A and B: the closed loop untraced, then with the program's
    // telemetry on, alternated twice so drift hits both alike. The
    // registry histograms only record while telemetry is on, so they
    // hold phase B alone.
    let s0 = daemon.stats()?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut busy, mut wall_a) = (0u64, 0.0);
    for traced_phase in [false, true, false, true] {
        telemetry::set_enabled(traced_phase);
        let before = daemon.stats()?;
        let t = Instant::now();
        let (samples, _) = closed_loop(&daemon.path, &inputs, &next, phase / 2.0, clients, &pixels);
        if traced_phase {
            traced.extend(samples);
        } else {
            wall_a += t.elapsed().as_secs_f64();
            busy += busy_ns(&*daemon.stats()?) - busy_ns(&before);
            untraced.extend(samples);
        }
    }
    let s2 = daemon.stats()?;
    daemon.stop()?;

    // Phase C: the request sequence replayed in-process, layer by layer.
    let cfg = NufftConfig::with_n(SERVE_N);
    let cache = PlanCache::new(ServeOptions::default().cache_capacity);
    let mut warm = Ledger::default();
    for k in 0..inputs.setup_count() {
        let req = inputs.setup_request(k);
        replay_one(&cache, &cfg, &req, &mut warm)?;
    }
    let mut ledger = Ledger::default();
    let mut replayed = Vec::new();
    let tc = Instant::now();
    let mut i = 0;
    while tc.elapsed().as_secs_f64() < phase {
        let req = inputs.request(i);
        let r = replay_one(&cache, &cfg, &req, &mut ledger)?;
        replayed.push(Sample {
            index: i,
            latency_ms: 0.0,
            outcome: None,
            pixels: pixels.iter().map(|&p| r.image[p]).collect(),
            cache_hit: r.cache_hit,
        });
        i += 1;
    }
    let fft_ms = fft_process_ms();

    oracle(&inputs, &mut untraced, &pixels);
    oracle(&inputs, &mut traced, &pixels);
    oracle(&inputs, &mut replayed, &pixels);
    for set in [&untraced, &traced, &replayed] {
        tally.merge(tally_of(set));
    }

    let p50 = |set: &[Sample]| {
        median(
            &set.iter()
                .filter(|s| s.outcome == Some(Outcome::Ok))
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let hits = s2.cache.hits - s0.cache.hits;
    let misses = s2.cache.misses - s0.cache.misses;
    let workers = s2.workers.len().max(1) as f64;
    let busy_frac = busy as f64 / 1e9 / (workers * wall_a);
    let l = &ledger;
    Ok(Report {
        tally,
        metrics: vec![
            Metric::new("protocol.encode_submit_ms", l.ms(l.encode_submit), "ms"),
            Metric::new("protocol.decode_submit_ms", l.ms(l.decode_submit), "ms"),
            Metric::new("protocol.encode_result_ms", l.ms(l.encode_result), "ms"),
            Metric::new("protocol.decode_result_ms", l.ms(l.decode_result), "ms"),
            Metric::new("cache.key_ms", l.ms(l.key), "ms"),
            Metric::new("cache.lookup_ms", l.ms(l.lookup), "ms"),
            Metric::new("cache.insert_ms", l.ms(l.insert), "ms"),
            Metric::new("cache.build_ms", l.ms(l.plan_new + l.plan_trajectory), "ms"),
            Metric::new("nufft.plan_new_ms", l.ms(l.plan_new), "ms"),
            Metric::new("nufft.plan_trajectory_ms", l.ms(l.plan_trajectory), "ms"),
            Metric::new("nufft.grid_ms", l.ms(l.grid), "ms"),
            Metric::new("nufft.fft_ms", l.ms(l.fft), "ms"),
            Metric::new("nufft.apod_ms", l.ms(l.apod), "ms"),
            Metric::new(
                "cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "cache.evictions",
                (s2.cache.evictions - s0.cache.evictions) as f64,
                "count",
            ),
            Metric::new(
                "daemon.queue_wait_p50_ms",
                scraped_quantile_ms(&s2, "serve.queue_wait_ns", 0.5).unwrap_or(0.0),
                "ms",
            ),
            Metric::new(
                "daemon.job_p50_ms",
                scraped_quantile_ms(&s2, "serve.job_latency_ns", 0.5).unwrap_or(0.0),
                "ms",
            ),
            Metric::new("fft.process_ms", fft_ms, "ms"),
            Metric::new("engine.busy_frac", busy_frac, "ratio"),
            Metric::new(
                "unattributed_frac",
                1.0 - l.attributed() / l.wall.max(1e-12),
                "ratio",
            ),
            Metric::new(
                "trace_overhead",
                p50(&traced) / p50(&untraced).max(1e-12),
                "ratio",
            ),
        ],
        notes: vec![
            ("clients", clients.to_string()),
            ("replayed_requests", l.requests.to_string()),
            ("replay_request_ms", l.ms(l.wall).to_string()),
            ("untraced_p50_ms", p50(&untraced).to_string()),
            ("traced_p50_ms", p50(&traced).to_string()),
            ("pool_workers", WorkerPool::global().size().to_string()),
        ],
    })
}
