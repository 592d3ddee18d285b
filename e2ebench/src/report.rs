//! Turning samples into the reported metrics, and refusing numbers that
//! cannot be true.

use crate::drive::{Loop, Sample};
use crate::queries::Class;
use crate::stats::{geomean, mean, median, tail, Tail, MIN_BEYOND};
use crate::Workload;
use std::collections::BTreeMap;

/// A run's result: the last stdout line, plus detail lines before it.
pub struct Report {
    /// Every answer matched and every number passed its sanity check.
    pub correct: bool,
    /// Queries sent (warm-up included).
    pub attempted: u64,
    /// Queries that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// JSON lines printed before the result line.
    pub detail: Vec<String>,
}

impl Report {
    /// The result object the last stdout line carries.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (which fail the sanity checks
/// anyway) print as `null` rather than producing invalid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Collects violated sanity checks.
#[derive(Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Records `msg` unless `ok`.
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }

    /// Every metric must be a finite, strictly positive number.
    pub fn positive(&mut self, metrics: &[(String, f64, &'static str)]) {
        for (name, v, _) in metrics {
            self.require(v.is_finite() && *v > 0.0, || {
                format!("{name} = {v} is not a positive finite number")
            });
        }
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency statistics of one group of samples, per class.
struct Latencies {
    /// Per class: latencies and times to first row, ms.
    by_class: BTreeMap<Class, (Vec<f64>, Vec<f64>)>,
}

impl Latencies {
    fn of<'a>(samples: impl Iterator<Item = &'a Sample>) -> Latencies {
        let mut by_class: BTreeMap<Class, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for s in samples {
            let e = by_class.entry(s.class).or_default();
            e.0.push(ms(s.latency));
            e.1.push(ms(s.first_row));
        }
        Latencies { by_class }
    }

    fn medians(&self, first_row: bool) -> Vec<f64> {
        self.by_class
            .values()
            .filter_map(|(lat, fr)| median(if first_row { fr } else { lat }))
            .collect()
    }

    /// Every latency divided by its class median: the pooled shape of
    /// the tail, free of the mix between classes of different cost.
    fn ratios(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (lat, _) in self.by_class.values() {
            if let Some(m) = median(lat) {
                out.extend(lat.iter().map(|l| l / m));
            }
        }
        out
    }
}

/// Time segments of a timed run; the reported tail is the median of
/// their tails, so one burst of stalls does not set it.
const SEGMENTS: usize = 3;

/// What a timed run measured.
pub struct Measured {
    /// Each set-up (cluster load plus proxy start), seconds.
    pub setups: Vec<f64>,
    /// Bytes under the storage directory per loaded row.
    pub stored_per_row: f64,
    /// Peak resident set of a measuring process, MiB.
    pub rss_mib: f64,
    /// Untimed warm-up queries sent.
    pub warm_sent: usize,
    /// Warm-up failures.
    pub warm_errors: Vec<String>,
    /// Every timed query, each loop's in the order sent.
    pub samples: Vec<Sample>,
    /// Violated sanity checks found while measuring.
    pub checks: Vec<String>,
}

/// Computes the end-to-end metrics of a timed run.
pub fn end_to_end(w: &Workload, m: &Measured) -> Result<Report, String> {
    let mut checks = Checks(m.checks.clone());
    let samples = &m.samples;
    let errors: Vec<&str> = samples
        .iter()
        .filter_map(|s| s.error.as_deref())
        .chain(m.warm_errors.iter().map(String::as_str))
        .collect();
    let failed = errors.len() as u64;
    let attempted = (samples.len() + m.warm_sent) as u64;
    let ok = |origin: Loop| {
        samples
            .iter()
            .filter(move |s| s.origin == origin && s.error.is_none())
    };

    // The foreground stream's latency: per class, then combined with
    // equal weight per class so the class mix cannot move the number.
    let fg_origin = w.foreground();
    let fg = Latencies::of(ok(fg_origin));
    let fg_classes = match w.open {
        Some((c, _)) => c,
        None => w.closed,
    };
    for c in fg_classes {
        checks.require(fg.by_class.contains_key(c), || {
            format!("no successful {} sample", c.name())
        });
    }
    let p50 = geomean(&fg.medians(false)).unwrap_or(f64::NAN);
    let fg_samples: Vec<&Sample> = ok(fg_origin).collect();
    let segment_tails: Vec<Option<(f64, Tail)>> = (0..SEGMENTS)
        .map(|i| {
            let n = fg_samples.len();
            let seg = Latencies::of(
                fg_samples[i * n / SEGMENTS..(i + 1) * n / SEGMENTS]
                    .iter()
                    .copied(),
            );
            let t = tail(&seg.ratios(), MIN_BEYOND)?;
            Some((geomean(&seg.medians(false))? * t.value, t))
        })
        .collect();
    checks.require(segment_tails.iter().all(Option::is_some), || {
        format!(
            "a segment has too few foreground samples for a tail (needs more than {MIN_BEYOND})"
        )
    });
    let tail_ms = median(
        &segment_tails
            .iter()
            .flatten()
            .map(|(ms, _)| *ms)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::NAN);
    let first_row = geomean(&fg.medians(true)).unwrap_or(f64::NAN);

    // Closed-loop throughput, and the rows its queries covered: the
    // rows stored in the chunks each query was dispatched to.
    let bg = Latencies::of(ok(Loop::Closed));
    for c in w.closed {
        checks.require(bg.by_class.contains_key(c), || {
            format!("no successful closed-loop {} sample", c.name())
        });
    }
    let class_means: Vec<f64> = bg.by_class.values().filter_map(|(l, _)| mean(l)).collect();
    let qps = 1e3 * class_means.len() as f64 / class_means.iter().sum::<f64>();
    let mut covered: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in ok(Loop::Closed) {
        if let Some(rows) = s.covered {
            covered.entry(s.class).or_default().push(rows as f64);
        }
    }
    let covered_rows: f64 = covered.values().filter_map(|r| mean(r)).sum();
    let covered_secs: f64 = class_means.iter().sum::<f64>() / 1e3;
    checks.require(covered.len() == w.closed.len(), || {
        "a closed-loop class has no covered-rows lookup".to_string()
    });
    checks.require(covered_rows >= 1.0, || {
        "closed loop covered no rows".to_string()
    });

    let metrics: Vec<(String, f64, &'static str)> = vec![
        ("setup_s".into(), median(&m.setups).unwrap_or(f64::NAN), "s"),
        ("p50_ms".into(), p50, "ms"),
        ("tail_ms".into(), tail_ms, "ms"),
        ("first_row_ms".into(), first_row, "ms"),
        ("qps".into(), qps, "1/s"),
        ("rows_per_s".into(), covered_rows / covered_secs, "rows/s"),
        ("peak_rss_mib".into(), m.rss_mib, "MiB"),
        ("stored_bytes_per_row".into(), m.stored_per_row, "B/row"),
    ];
    checks.positive(&metrics);

    let mut groups = vec![(Loop::Closed, &bg)];
    if fg_origin == Loop::Open {
        groups.insert(0, (Loop::Open, &fg));
    }
    let per_class: Vec<String> = groups
        .iter()
        .flat_map(|(o, l)| {
            l.by_class.iter().map(move |(c, (lat, fr))| {
                let t = tail(lat, MIN_BEYOND);
                format!(
                    "\"{}.{}\": {{\"n\": {}, \"p50_ms\": {}, \"tail_pct\": {}, \"tail_ms\": {}, \"first_row_ms\": {}}}",
                    if *o == Loop::Open { "open" } else { "closed" },
                    c.name(),
                    lat.len(),
                    json_num(median(lat).unwrap_or(f64::NAN)),
                    json_num(t.map_or(f64::NAN, |t| t.pct)),
                    json_num(t.map_or(f64::NAN, |t| t.value)),
                    json_num(median(fr).unwrap_or(f64::NAN)),
                )
            })
        })
        .collect();
    let late: Vec<f64> = samples.iter().map(|s| ms(s.late)).collect();
    let detail = format!(
        "{{\"detail\": {{\"workload\": \"{}\", \"sky\": \"{}\", \
         \"setups_s\": [{}], \"segment_tails\": [{}], \"error_frac\": {}, \
         \"harness.late_ms\": {}, \"classes\": {{{}}}, \"errors\": [{}]}}}}",
        w.name,
        w.sky.name,
        m.setups
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", "),
        segment_tails
            .iter()
            .flatten()
            .map(|(ms, t)| format!(
                "{{\"tail_ms\": {}, \"pct\": {}, \"samples\": {}}}",
                json_num(*ms),
                json_num(t.pct),
                t.samples
            ))
            .collect::<Vec<_>>()
            .join(", "),
        json_num(failed as f64 / attempted as f64),
        json_num(mean(&late).unwrap_or(f64::NAN)),
        per_class.join(", "),
        errors
            .iter()
            .take(5)
            .map(|e| format!("{e:?}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    for c in &checks.0 {
        eprintln!("e2ebench: check failed: {c}");
    }
    Ok(Report {
        correct: checks.0.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail: vec![detail],
    })
}
