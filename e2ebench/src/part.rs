//! A timed run is measured in [`PARTS`] child processes, one after the
//! other. Each child generates the catalog, sets the cluster up once,
//! drives its share of the workload, and reports back in a line format;
//! the parent pools the parts. One set-up per process keeps the measured
//! heap free of earlier clusters' freed memory (with three set-ups and
//! two teardowns in one process the lookup tail was far less steady; see
//! the README), and separate processes average out what stays fixed for
//! a process's lifetime.

use crate::drive::{fill_covered, Cluster, Loop, Sample};
use crate::queries::{Class, Rng};
use crate::report::Measured;
use crate::sky::Sky;
use crate::{drive, pools, Args, WorkDir};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Child processes per timed run.
pub const PARTS: usize = 3;

/// What one child measured.
#[derive(Debug, Default)]
pub struct Part {
    setup_s: f64,
    stored_per_row: f64,
    rss_mib: f64,
    samples: Vec<Sample>,
    warm_sent: usize,
    warm_errors: Vec<String>,
    checks: Vec<String>,
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs part `k` of a timed run in this process.
pub fn run_part(args: &Args, k: usize) -> Result<Part, String> {
    let w = args.workload;
    let sky = Sky::generate(w.sky, Rng::new(args.seed, 1).next_u64());
    let (mut closed, open) = pools(w, &sky, args.seed, args.seconds);
    // Each part starts at its own place in the closed-loop pool and
    // takes its own slice of the open-loop pool.
    let len = closed.len();
    closed.rotate_left(k * len / PARTS);
    let open = &open[k * open.len() / PARTS..(k + 1) * open.len() / PARTS];
    let run = Duration::from_secs_f64(args.seconds as f64 / PARTS as f64);

    let work = WorkDir::create(&format!("{}-{k}", w.name))?;
    let (cluster, setup) = Cluster::start(&sky, &work.0.join("cluster"))?;
    let stored = cluster.stored_bytes()?;
    let driven = drive(w, &cluster, &closed, open, run)?;
    let mut samples = driven.timed;
    let checks = fill_covered(&cluster, &sky, &closed, &mut samples)?;
    let rss_mib = peak_rss_mib()?;
    cluster.stop()?;
    Ok(Part {
        setup_s: setup.as_secs_f64(),
        stored_per_row: stored as f64 / sky.rows() as f64,
        rss_mib,
        samples,
        warm_sent: driven.warm.len(),
        warm_errors: driven.warm.into_iter().filter_map(|s| s.error).collect(),
        checks,
    })
}

fn origin_tag(o: Loop) -> &'static str {
    match o {
        Loop::Closed => "closed",
        Loop::Open => "open",
    }
}

impl Part {
    /// The line format a child prints.
    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "setup {}\nstored {}\nrss {}\nwarm_sent {}\n",
            self.setup_s, self.stored_per_row, self.rss_mib, self.warm_sent
        );
        for s in &self.samples {
            out.push_str(&format!(
                "sample {} {} {} {} {} {} {}",
                origin_tag(s.origin),
                s.class.name(),
                s.query,
                s.latency.as_nanos(),
                s.first_row.as_nanos(),
                s.late.as_nanos(),
                s.covered.map_or("-".to_string(), |c| c.to_string())
            ));
            if let Some(e) = &s.error {
                out.push_str(&format!(" {}", e.replace('\n', " ")));
            }
            out.push('\n');
        }
        for e in &self.warm_errors {
            out.push_str(&format!("warm_error {}\n", e.replace('\n', " ")));
        }
        for c in &self.checks {
            out.push_str(&format!("check {}\n", c.replace('\n', " ")));
        }
        out
    }

    /// Parses [`Part::to_lines`] output.
    fn parse(text: &str) -> Result<Part, String> {
        let mut p = Part::default();
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|e| format!("bad number {v:?}: {e}"))
        };
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("bad {v:?}: {e}"));
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "setup" => p.setup_s = num(rest)?,
                "stored" => p.stored_per_row = num(rest)?,
                "rss" => p.rss_mib = num(rest)?,
                "warm_sent" => p.warm_sent = int(rest)? as usize,
                "warm_error" => p.warm_errors.push(rest.to_string()),
                "check" => p.checks.push(rest.to_string()),
                "sample" => {
                    let f: Vec<&str> = rest.splitn(8, ' ').collect();
                    if f.len() < 7 {
                        return Err(format!("short sample line {line:?}"));
                    }
                    p.samples.push(Sample {
                        origin: if f[0] == "open" {
                            Loop::Open
                        } else {
                            Loop::Closed
                        },
                        class: Class::from_name(f[1])
                            .ok_or_else(|| format!("bad class {}", f[1]))?,
                        query: int(f[2])? as usize,
                        latency: Duration::from_nanos(int(f[3])?),
                        first_row: Duration::from_nanos(int(f[4])?),
                        late: Duration::from_nanos(int(f[5])?),
                        covered: match f[6] {
                            "-" => None,
                            c => Some(int(c)?),
                        },
                        error: f.get(7).map(|e| e.to_string()),
                    });
                }
                _ => return Err(format!("unexpected line from a part: {line:?}")),
            }
        }
        Ok(p)
    }
}

/// Runs every part of a timed run, each in a child process of this
/// executable, one after the other, and pools what they measured.
pub fn run_parts(args: &Args) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut parts = Vec::with_capacity(PARTS);
    for k in 0..PARTS {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--part", &k.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn part {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("part {k} exited with {}", out.status));
        }
        let text =
            String::from_utf8(out.stdout).map_err(|_| format!("part {k}: output is not UTF-8"))?;
        parts.push(Part::parse(&text).map_err(|e| format!("part {k}: {e}"))?);
    }
    let median_of = |f: fn(&Part) -> f64| {
        crate::stats::median(&parts.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    Ok(Measured {
        setups: parts.iter().map(|p| p.setup_s).collect(),
        stored_per_row: median_of(|p| p.stored_per_row),
        rss_mib: median_of(|p| p.rss_mib),
        warm_sent: parts.iter().map(|p| p.warm_sent).sum(),
        warm_errors: parts.iter().flat_map(|p| p.warm_errors.clone()).collect(),
        checks: parts.iter().flat_map(|p| p.checks.clone()).collect(),
        samples: parts.into_iter().flat_map(|p| p.samples).collect(),
    })
}
