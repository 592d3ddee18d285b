//! End-to-end benchmark of the Qserv reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <lookup|scan|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates a seeded catalog, loads it on disk with the
//! library's cluster loader, starts the TCP proxy, and drives the
//! paper's query classes through `qserv_proxy::ProxyClient`. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! replays a seeded sample of the workload's queries layer by layer and
//! reports per-layer metrics. The last line of standard output is the
//! result object; see `e2ebench/README.md` for every metric.

mod drive;
mod part;
mod queries;
mod replay;
mod report;
mod sky;
mod stats;

use drive::{Cluster, Loop, Sample};
use queries::{Class, Query, QueryGen, Rng};
use report::Report;
use sky::{Sky, SkySpec, COARSE, FINE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One benchmark workload.
pub struct Workload {
    /// Its name on the command line.
    pub name: &'static str,
    /// The dataset it runs on.
    pub sky: SkySpec,
    /// Classes of the closed-loop connection, in equal shares.
    pub closed: &'static [Class],
    /// Whether each round of `closed` runs in a seeded order (otherwise
    /// the classes strictly alternate).
    pub shuffle: bool,
    /// Closed-loop pool size, in rounds of `closed` per second of run:
    /// enough that the loop rarely wraps around (a wrap repeats queries,
    /// which is harmless: the result cache is off by default).
    pub rounds_per_s: usize,
    /// An open-loop connection: its classes and rate (queries/s).
    pub open: Option<(&'static [Class], f64)>,
}

impl Workload {
    /// The stream whose latencies the headline metrics report: the open
    /// loop where there is one (the interactive users), else the closed
    /// loop.
    pub fn foreground(&self) -> Loop {
        if self.open.is_some() {
            Loop::Open
        } else {
            Loop::Closed
        }
    }
}

const LOOKUPS: &[Class] = &[Class::Lv1, Class::Lv2, Class::Lv3];

/// Every workload the benchmark defines.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lookup",
        sky: FINE,
        closed: LOOKUPS,
        shuffle: true,
        rounds_per_s: 400,
        open: None,
    },
    Workload {
        name: "scan",
        sky: COARSE,
        closed: &[Class::Hv1, Class::Hv2, Class::Hv3, Class::Shv1],
        shuffle: true,
        rounds_per_s: 20,
        open: None,
    },
    Workload {
        name: "mixed",
        sky: FINE,
        closed: &[Class::Hv1, Class::Hv3],
        shuffle: false,
        rounds_per_s: 20,
        open: Some((LOOKUPS, 10.0)),
    },
];

/// The command line.
pub struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child processes of a timed run: which part to measure.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--part" => {
                let k: usize = value.parse().map_err(|e| format!("--part: {e}"))?;
                if k >= part::PARTS {
                    return Err(format!("--part must be below {}", part::PARTS));
                }
                part = Some(k)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part,
    })
}

/// The run's scratch directory under the working directory; removed
/// when dropped, on success or failure.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>`.
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the shared parent only if no concurrent run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The workload's query pools: closed loop, then open loop (empty when
/// there is none). Parameters come only from `seed`.
pub fn pools(w: &Workload, sky: &Sky, seed: u64, seconds: u64) -> (Vec<Query>, Vec<Query>) {
    let mut gen = QueryGen::new(sky, Rng::new(seed, 2));
    let rounds = w.rounds_per_s * seconds as usize;
    let closed = if w.shuffle {
        gen.mix(w.closed, rounds)
    } else {
        (0..rounds)
            .flat_map(|_| w.closed.iter())
            .map(|&c| gen.make(c))
            .collect()
    };
    let open = match w.open {
        Some((classes, rate)) => {
            // Twice the schedule: the loop outlasts its schedule while
            // the closed loop finishes its last query.
            let n = (2.0 * rate * seconds as f64).round() as usize;
            let mut gen = QueryGen::new(sky, Rng::new(seed, 3));
            let mut q = gen.mix(classes, n.div_ceil(classes.len()));
            q.truncate(n);
            q
        }
        None => Vec::new(),
    };
    (closed, open)
}

/// Untimed load before every timed run, so lazy set-up (connections,
/// thread pools, first reads of chunk files) is over when timing starts.
const WARM_UP: Duration = Duration::from_millis(1500);

/// The samples of one drive.
pub struct Driven {
    /// The untimed warm-up (checked, but not in the metrics).
    pub warm: Vec<Sample>,
    /// The timed run.
    pub timed: Vec<Sample>,
}

/// Runs the workload's connections for `run`: the closed loop over
/// `closed`, and the open loop over `open` when the workload has one.
fn run_loops(
    w: &Workload,
    addr: std::net::SocketAddr,
    closed: &[Query],
    open: &[Query],
    run: Duration,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now();
    let closed_busy = AtomicBool::new(true);
    std::thread::scope(|s| {
        let busy = &closed_busy;
        let open_handle = w
            .open
            .map(|(_, rate)| s.spawn(move || drive::open_loop(addr, open, rate, start, run, busy)));
        let closed_samples = drive::closed_loop(addr, closed, start, run);
        closed_busy.store(false, Ordering::SeqCst);
        let mut samples = closed_samples?;
        if let Some(h) = open_handle {
            samples.extend(h.join().map_err(|_| "open loop panicked".to_string())??);
        }
        Ok(samples)
    })
}

/// Warms the cluster up for [`WARM_UP`], then drives the workload for
/// `run`. The timed closed loop continues in `closed` where the warm-up
/// stopped.
pub fn drive(
    w: &Workload,
    cluster: &Cluster,
    closed: &[Query],
    open: &[Query],
    run: Duration,
) -> Result<Driven, String> {
    let addr = cluster.addr();
    let warm = run_loops(w, addr, closed, open, WARM_UP)?;
    let mut closed = closed.to_vec();
    let used = warm.iter().filter(|s| s.origin == Loop::Closed).count();
    let len = closed.len();
    closed.rotate_left(used % len);
    let mut timed = run_loops(w, addr, &closed, open, run)?;
    // Sample indices refer to the caller's pool.
    for s in timed.iter_mut().filter(|s| s.origin == Loop::Closed) {
        s.query = (s.query + used) % len;
    }
    Ok(Driven { warm, timed })
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    if !args.trace {
        return report::end_to_end(w, &part::run_parts(args)?);
    }
    let work = WorkDir::create(w.name)?;
    let sky = Sky::generate(w.sky, Rng::new(args.seed, 1).next_u64());
    let (closed, open) = pools(w, &sky, args.seed, args.seconds);
    let (cluster, build) = Cluster::start(&sky, &work.0.join("cluster"))?;
    let run = Duration::from_secs(args.seconds);
    let report = replay::traced_run(args.seed, w, &cluster, build, &closed, &open, run);
    cluster.stop()?;
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.part {
        Some(k) => part::run_part(&args, k).map(|p| print!("{}", p.to_lines())),
        None => run(&args).map(|report| {
            for line in &report.detail {
                println!("{line}");
            }
            println!("{}", report.result_json());
        }),
    };
    if let Err(e) = outcome {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}
