//! The traced run: per-layer numbers from the benchmark's own timers.
//!
//! The program is not instrumented for this. Instead, a seeded sample of
//! the workload's queries is replayed by calling each layer's public
//! functions directly — the proxy client, the query service, the
//! frontend, the planner's parts, the chunk-query renderer, the fabric,
//! the worker, the result dump codec and the merger — and timing every
//! call from here. A layer's self time is its call's time minus the
//! time of the calls it makes into the layers below.

use crate::drive::Cluster;
use crate::queries::{Class, Query, Rng, Summary};
use crate::report::{json_num, Checks, Report};
use crate::stats::{mean, median};
use crate::Workload;
use qserv::analysis::{analyze, JoinClass};
use qserv::rewrite::{build_plan, render_chunk_message};
use qserv::service::{names, QueryClass};
use qserv::worker::Worker;
use qserv::{Merger, Qserv};
use qserv_engine::dump::{dump_table, load_dump};
use qserv_proxy::ProxyClient;
use qserv_sqlparse::parse_select;
use qserv_xrd::cluster::{query_path, result_path};
use qserv_xrd::{md5_hex, DataServer, OfsPlugin};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries replayed per class, and how many times each real (not
/// replayed) call is repeated. Scans are few and long, so
/// their timings are already steady.
fn sample_plan(class: Class) -> (usize, usize) {
    match class {
        Class::Lv1 | Class::Lv2 | Class::Lv3 => (8, 5),
        Class::Hv1 | Class::Hv2 | Class::Hv3 | Class::Shv1 => (1, 2),
    }
}

/// Wraps a worker's fabric plugin to time it: a fabric write runs the
/// plugin in-line, so the write's time minus the plugin's is the
/// fabric's own.
struct TimedPlugin {
    worker: Arc<Worker>,
    on: Arc<AtomicBool>,
    busy_ns: Arc<AtomicU64>,
}

impl OfsPlugin for TimedPlugin {
    fn on_file_closed(&self, server: &DataServer, path: &str, data: &[u8]) {
        if !self.on.load(Ordering::Relaxed) {
            return self.worker.on_file_closed(server, path, data);
        }
        let t = Instant::now();
        self.worker.on_file_closed(server, path, data);
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Times closures when on; just calls them when off.
struct Meter {
    on: bool,
}

impl Meter {
    fn time<T>(&self, slot: &mut Duration, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *slot += t.elapsed();
        out
    }
}

/// One replayed query, as timed and counted. Durations are summed over
/// the query's chunks where a layer runs per chunk.
#[derive(Clone, Debug, Default)]
struct Layers {
    // Fastest of the repeated real calls.
    proxy_total: Duration,
    /// The proxy call minus the service's record (wait + run) of that
    /// execution.
    proxy_outside: Duration,
    /// The service call minus its reply's wait + run.
    service_outside: Duration,
    verb_total: Duration,
    service_self: Duration,
    master_total: Duration,
    explain: Duration,
    /// Fastest of repeated front-end calls: parse, analyze, build_plan.
    front: [Duration; 3],
    // The replayed pipeline.
    parse: Duration,
    analyze: Duration,
    build_plan: Duration,
    render: Duration,
    round_trip: Duration,
    plugin: Duration,
    exec: Duration,
    dump: Duration,
    load: Duration,
    fold: Duration,
    finish: Duration,
    wall: Duration,
    untimed_wall: Duration,
    // Counts.
    chunks: u64,
    chunks_dispatched: u64,
    chunks_retried: u64,
    peak_buffered_parts: u64,
    qerror_pct: u64,
    part_rows: u64,
    result_bytes: u64,
    pages_scanned: u64,
    pages_pruned: u64,
    statements: u64,
    vectorized: u64,
}

impl Layers {
    /// Time the replayed calls cover.
    fn covered(&self) -> Duration {
        self.parse
            + self.analyze
            + self.build_plan
            + self.render
            + self.round_trip
            + self.exec
            + self.dump
            + self.load
            + self.fold
            + self.finish
    }

    /// Sums `o` into `self` (the largest `peak_buffered_parts`). The
    /// destructuring names every field, so a new one cannot be missed.
    fn add(&mut self, o: &Layers) {
        let Layers {
            proxy_total,
            proxy_outside,
            service_outside,
            verb_total,
            service_self,
            master_total,
            explain,
            parse,
            analyze,
            build_plan,
            render,
            round_trip,
            plugin,
            exec,
            dump,
            load,
            fold,
            finish,
            wall,
            untimed_wall,
            chunks,
            chunks_dispatched,
            chunks_retried,
            qerror_pct,
            part_rows,
            result_bytes,
            pages_scanned,
            pages_pruned,
            statements,
            vectorized,
            front,
            peak_buffered_parts,
        } = o;
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += *$f; )* };
        }
        sum!(
            proxy_total,
            proxy_outside,
            service_outside,
            verb_total,
            service_self,
            master_total,
            explain,
            parse,
            analyze,
            build_plan,
            render,
            round_trip,
            plugin,
            exec,
            dump,
            load,
            fold,
            finish,
            wall,
            untimed_wall,
            chunks,
            chunks_dispatched,
            chunks_retried,
            qerror_pct,
            part_rows,
            result_bytes,
            pages_scanned,
            pages_pruned,
            statements,
            vectorized
        );
        for (a, b) in self.front.iter_mut().zip(front) {
            *a += *b;
        }
        self.peak_buffered_parts = self.peak_buffered_parts.max(*peak_buffered_parts);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Signed difference in microseconds (negative means the measurement
/// cannot be true, which the checks refuse).
fn diff_us(a: Duration, b: Duration) -> f64 {
    us(a) - us(b)
}

/// The fastest of repeated timings of one call: interference (another
/// thread, a page fault) only ever adds time, so the minimum is the
/// steadiest estimate of the call's own cost.
fn fastest(xs: Vec<Duration>) -> Duration {
    xs.into_iter().min().unwrap_or_default()
}

fn worker_statements(q: &Qserv) -> (u64, u64) {
    q.workers().iter().fold((0, 0), |(s, v), w| {
        (
            s + w.stats.statements.load(Ordering::Relaxed),
            v + w.stats.vectorized(),
        )
    })
}

/// Replays `sql` through the layers one call at a time. Returns the
/// timed (or, with the meter off, only the wall) breakdown and the
/// merged answer.
fn pipeline(
    qserv: &Qserv,
    sql: &str,
    chunks: &[i32],
    tag: &str,
    meter: &Meter,
    plugin_ns: &AtomicU64,
) -> Result<(Layers, Summary), String> {
    let mut l = Layers::default();
    let wall = Instant::now();
    let stmt = meter
        .time(&mut l.parse, || parse_select(sql))
        .map_err(|e| format!("parse: {e}"))?;
    let analysis = meter
        .time(&mut l.analyze, || analyze(&stmt, qserv.meta()))
        .map_err(|e| format!("analyze: {e}"))?;
    let plan = meter
        .time(&mut l.build_plan, || build_plan(&analysis, qserv.meta()))
        .map_err(|e| format!("build_plan: {e}"))?;
    let mut merger = Merger::new(&plan);
    for (seq, &chunk) in chunks.iter().enumerate() {
        let subchunks = if plan.join == JoinClass::SubchunkNear {
            match &analysis.spatial {
                Some(spec) => qserv
                    .chunker()
                    .subchunks_intersecting(chunk, &spec.bounding_box()),
                None => qserv.chunker().subchunks_of(chunk),
            }
            .map_err(|e| format!("subchunks of {chunk}: {e}"))?
        } else {
            Vec::new()
        };
        let body = meter.time(&mut l.render, || {
            render_chunk_message(&plan, qserv.meta(), chunk, &subchunks)
        });
        // A unique tag line, as the master adds, keeps result paths apart.
        let message = format!("-- QID: {tag}-{seq}\n{body}");
        let plugin_before = plugin_ns.load(Ordering::Relaxed);
        let (server, payload) = meter.time(&mut l.round_trip, || {
            let rp = result_path(&md5_hex(message.as_bytes()));
            let cluster = qserv.cluster();
            let server = cluster
                .write_file(&query_path(chunk), message.as_bytes().to_vec())
                .map_err(|e| format!("fabric write chunk {chunk}: {e}"))?;
            let payload = cluster
                .read_file(server, &rp)
                .map_err(|e| format!("fabric read chunk {chunk}: {e}"))?;
            cluster
                .unlink(server, &rp)
                .map_err(|e| format!("fabric unlink chunk {chunk}: {e}"))?;
            Ok::<_, String>((server, payload))
        })?;
        l.plugin += Duration::from_nanos(plugin_ns.load(Ordering::Relaxed) - plugin_before);
        l.result_bytes += payload.len() as u64;
        let worker = &qserv.workers()[server];
        let before = worker_statements(qserv);
        let (table, scan) = meter
            .time(&mut l.exec, || {
                worker.execute_message_detailed(chunk, &message)
            })
            .map_err(|e| format!("worker chunk {chunk}: {e}"))?;
        let after = worker_statements(qserv);
        l.statements += after.0 - before.0;
        l.vectorized += after.1 - before.1;
        l.pages_scanned += scan.pages_scanned;
        l.pages_pruned += scan.pages_pruned;
        l.part_rows += table.num_rows() as u64;
        let dumped = meter.time(&mut l.dump, || dump_table("result", &table));
        std::hint::black_box(dumped);
        let text = std::str::from_utf8(&payload)
            .map_err(|_| format!("chunk {chunk}: result is not UTF-8"))?;
        if text.starts_with("ERROR:") {
            return Err(format!("chunk {chunk}: {text}"));
        }
        // The worker prefixes cold-scan counters as one comment line.
        let text = match text.strip_prefix("-- QSERV_SCAN:") {
            Some(rest) => rest.split_once('\n').map_or("", |(_, t)| t),
            None => text,
        };
        let (_, part) = meter
            .time(&mut l.load, || load_dump(text))
            .map_err(|e| format!("load_dump chunk {chunk}: {e}"))?;
        meter
            .time(&mut l.fold, || merger.fold(seq, part))
            .map_err(|e| format!("fold chunk {chunk}: {e}"))?;
        l.chunks += 1;
    }
    let merged = meter
        .time(&mut l.finish, || merger.finish())
        .map_err(|e| format!("finish: {e}"))?;
    l.wall = wall.elapsed();
    Ok((l, Summary::of(&merged)))
}

/// The real calls timed for each replayed query, in rotating order.
enum Call {
    Proxy,
    Verb,
    Service,
    Master,
    Explain,
}

/// Times the real calls for one query (`repeats` rounds, rotating the
/// order), then replays it timed and untimed.
fn measure(
    cluster: &Cluster,
    client: &mut ProxyClient,
    q: &Query,
    n: usize,
    repeats: usize,
    plugin_on: &AtomicBool,
    plugin_ns: &AtomicU64,
) -> Result<Layers, String> {
    let qserv = &cluster.qserv;
    let service = cluster.server.service();
    let check = |what: &str, got: Summary| {
        q.expect
            .check(&got)
            .map_err(|e| format!("{} via {what}: wrong answer: {e}", q.class.name()))
    };
    let (mut proxy, mut proxy_outside, mut verb) = (vec![], vec![], vec![]);
    let (mut svc_self, mut svc_outside, mut master, mut explain) = (vec![], vec![], vec![], vec![]);
    let mut chunks = Vec::new();
    let mut stats = None;
    let calls = [
        Call::Proxy,
        Call::Verb,
        Call::Service,
        Call::Master,
        Call::Explain,
    ];
    for r in 0..repeats {
        for k in 0..calls.len() {
            let t = Instant::now();
            match calls[(k + r + n) % calls.len()] {
                Call::Proxy => {
                    let (table, _) = client.query(&q.sql).map_err(|e| format!("proxy: {e}"))?;
                    let took = t.elapsed();
                    check("proxy", Summary::of(&table))?;
                    // The service's record of this very execution.
                    let rec = service
                        .status()
                        .into_iter()
                        .max_by_key(|s| s.qid)
                        .ok_or("service kept no status record")?;
                    proxy.push(took);
                    proxy_outside.push(
                        took.checked_sub(rec.wait + rec.run)
                            .ok_or("the service's record outlasts the proxy call")?,
                    );
                }
                Call::Verb => {
                    let (table, _, _) = client
                        .query_traced(&q.sql)
                        .map_err(|e| format!("TRACE: {e}"))?;
                    verb.push(t.elapsed());
                    check("TRACE", Summary::of(&table))?;
                }
                Call::Service => {
                    let reply = service
                        .submit(&q.sql)
                        .map_err(|e| format!("service submit: {e}"))?
                        .wait();
                    let took = t.elapsed();
                    let (table, _) = reply.result.map_err(|e| format!("service: {e}"))?;
                    check("service", Summary::of(&table))?;
                    svc_self.push(
                        took.checked_sub(reply.run)
                            .ok_or("the service's run outlasts its submit/wait")?,
                    );
                    svc_outside.push(
                        took.checked_sub(reply.wait + reply.run)
                            .ok_or("the service's record outlasts its submit/wait")?,
                    );
                }
                Call::Master => {
                    let (table, s) = qserv
                        .query_with_stats(&q.sql)
                        .map_err(|e| format!("master: {e}"))?;
                    master.push(t.elapsed());
                    check("master", Summary::of(&table))?;
                    stats = Some(s);
                }
                Call::Explain => {
                    let plan = qserv.explain(&q.sql).map_err(|e| format!("explain: {e}"))?;
                    explain.push(t.elapsed());
                    chunks = plan.chunks;
                }
            }
        }
    }
    let stats = stats.ok_or("no repeats")?;
    // The front-end calls take microseconds, so one preempted call would
    // swamp them: keep the fastest of several.
    let mut front: [Vec<Duration>; 3] = Default::default();
    for _ in 0..FRONT_REPEATS {
        let t = Instant::now();
        let stmt = parse_select(&q.sql).map_err(|e| format!("parse: {e}"))?;
        front[0].push(t.elapsed());
        let t = Instant::now();
        let analysis = analyze(&stmt, qserv.meta()).map_err(|e| format!("analyze: {e}"))?;
        front[1].push(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(
            build_plan(&analysis, qserv.meta()).map_err(|e| format!("build_plan: {e}"))?,
        );
        front[2].push(t.elapsed());
    }
    // Timed and untimed replays, alternating which goes first.
    let mut timed = None;
    let mut untimed = Duration::ZERO;
    for pass in 0..2 {
        let on = (pass + n).is_multiple_of(2);
        plugin_on.store(on, Ordering::Relaxed);
        let tag = format!("e2ebench-{n}-{pass}");
        let (l, got) = pipeline(qserv, &q.sql, &chunks, &tag, &Meter { on }, plugin_ns)?;
        check("replay", got)?;
        if on {
            timed = Some(l);
        } else {
            untimed = l.wall;
        }
    }
    plugin_on.store(false, Ordering::Relaxed);
    let mut l = timed.expect("one timed pass");
    l.untimed_wall = untimed;
    l.proxy_total = fastest(proxy);
    l.proxy_outside = fastest(proxy_outside);
    l.service_self = fastest(svc_self);
    l.service_outside = fastest(svc_outside);
    l.verb_total = fastest(verb);
    l.master_total = fastest(master);
    l.explain = fastest(explain);
    l.front = front.map(fastest);
    l.chunks_dispatched = stats.chunks_dispatched as u64;
    l.chunks_retried = stats.chunks_retried as u64;
    l.peak_buffered_parts = stats.peak_buffered_parts as u64;
    l.qerror_pct = stats.planner_qerror_pct;
    Ok(l)
}

/// Repeats of each front-end call (parse, analyze, build_plan) per query.
const FRONT_REPEATS: usize = 5;

/// Metrics that are one timed call minus others; measurement noise can
/// make them negative, which cannot be true.
const SELF_TIMES: [&str; 4] = [
    "proxy.self_us",
    "planner.self_us",
    "master.us_per_chunk",
    "xrd.self_us_per_chunk",
];

/// The per-layer metrics of a group of replayed queries.
fn layer_metrics(l: &Layers, n: usize) -> Vec<(String, f64, &'static str)> {
    let n = n as f64;
    let chunks = l.chunks.max(1) as f64;
    let rows = l.part_rows as f64;
    // The proxy's own time: the client call minus the service's record
    // (wait + run) of the same execution, minus the service's admission
    // work, which that record does not cover and which a direct
    // submission measures the same way.
    let proxy_self = diff_us(l.proxy_outside, l.service_outside);
    let [parse, analyze, build_plan] = l.front;
    let planner_self = diff_us(l.explain, parse + analyze + build_plan);
    let master = diff_us(l.master_total, l.explain);
    let xrd_self = diff_us(l.round_trip, l.plugin);
    let pages = (l.pages_scanned + l.pages_pruned) as f64;
    vec![
        ("proxy.self_us".into(), proxy_self / n, "us"),
        ("service.self_us".into(), us(l.service_self) / n, "us"),
        ("sqlparse.parse_us".into(), us(parse) / n, "us"),
        ("analysis.analyze_us".into(), us(analyze) / n, "us"),
        ("rewrite.build_plan_us".into(), us(build_plan) / n, "us"),
        ("planner.self_us".into(), planner_self / n, "us"),
        (
            "rewrite.render_us_per_chunk".into(),
            us(l.render) / chunks,
            "us",
        ),
        ("planner.qerror_pct".into(), l.qerror_pct as f64 / n, "%"),
        (
            "master.us_per_chunk".into(),
            master / l.chunks_dispatched.max(1) as f64,
            "us",
        ),
        (
            "master.overlap_x".into(),
            us(l.render + l.round_trip + l.load + l.fold) / master,
            "x",
        ),
        (
            "master.chunks_retried".into(),
            l.chunks_retried as f64,
            "count",
        ),
        ("xrd.self_us_per_chunk".into(), xrd_self / chunks, "us"),
        (
            "xrd.result_bytes_per_row".into(),
            l.result_bytes as f64 / rows,
            "B/row",
        ),
        ("worker.exec_us_per_chunk".into(), us(l.exec) / chunks, "us"),
        (
            "worker.vectorized_frac".into(),
            l.vectorized as f64 / l.statements.max(1) as f64,
            "ratio",
        ),
        ("engine.dump_us_per_row".into(), us(l.dump) / rows, "us"),
        (
            "engine.load_dump_us_per_row".into(),
            us(l.load) / rows,
            "us",
        ),
        (
            "engine.pages_scanned".into(),
            l.pages_scanned as f64 / n,
            "count",
        ),
        (
            "engine.pages_pruned_frac".into(),
            if pages > 0.0 {
                l.pages_pruned as f64 / pages
            } else {
                0.0
            },
            "ratio",
        ),
        ("merge.fold_us_per_chunk".into(), us(l.fold) / chunks, "us"),
        ("merge.finish_us".into(), us(l.finish) / n, "us"),
        (
            "merge.peak_buffered_parts".into(),
            l.peak_buffered_parts as f64,
            "count",
        ),
        (
            "obs.trace_verb_overhead_frac".into(),
            us(l.verb_total) / us(l.proxy_total) - 1.0,
            "ratio",
        ),
        (
            "trace.unattributed_frac".into(),
            1.0 - us(l.covered()) / us(l.wall),
            "ratio",
        ),
        (
            "harness.trace_overhead_frac".into(),
            us(l.wall) / us(l.untimed_wall) - 1.0,
            "ratio",
        ),
    ]
}

/// The traced run: drive the workload once over TCP (for the service's
/// queueing and the generator's lateness under real load), then replay
/// a seeded sample of its queries layer by layer.
#[allow(clippy::too_many_arguments)]
pub fn traced_run(
    seed: u64,
    w: &Workload,
    cluster: &Cluster,
    build: Duration,
    closed: &[Query],
    open: &[Query],
    run: Duration,
) -> Result<Report, String> {
    let mut checks = Checks::default();
    let stored = cluster.stored_bytes()?;
    let driven = crate::drive(w, cluster, closed, open, run)?;
    let samples = &driven.timed;
    let failed = driven
        .timed
        .iter()
        .chain(&driven.warm)
        .filter(|s| s.error.is_some())
        .count() as u64;
    let late: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
    let service = cluster.server.service();
    let mut waits: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in service.status() {
        waits
            .entry(s.class.as_str())
            .or_default()
            .push(s.wait.as_secs_f64() * 1e3);
    }
    let all_waits: Vec<f64> = waits.values().flatten().copied().collect();
    let snap = service.metrics_snapshot();
    let rejected = snap.counter(names::REJECTED_INTERACTIVE) + snap.counter(names::REJECTED_SCAN);

    // Time every worker's plugin from here on.
    let plugin_on = Arc::new(AtomicBool::new(false));
    let plugin_ns = Arc::new(AtomicU64::new(0));
    for (node, worker) in cluster.qserv.workers().iter().enumerate() {
        cluster.qserv.cluster().servers()[node].install_plugin(Arc::new(TimedPlugin {
            worker: Arc::clone(worker),
            on: Arc::clone(&plugin_on),
            busy_ns: Arc::clone(&plugin_ns),
        }));
    }

    // The seeded sample: per class, queries drawn from the pools.
    let mut rng = Rng::new(seed, 4);
    let mut classes: Vec<Class> = w.closed.to_vec();
    classes.extend(w.open.map_or(&[][..], |(c, _)| c));
    let mut client = ProxyClient::connect(cluster.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut per_class: BTreeMap<Class, (usize, Layers)> = BTreeMap::new();
    let mut n = 0;
    let mut calls = 0;
    for &class in &classes {
        let pool: Vec<&Query> = closed
            .iter()
            .chain(open)
            .filter(|q| q.class == class)
            .collect();
        let (count, repeats) = sample_plan(class);
        for _ in 0..count {
            let q = pool[rng.below(pool.len() as u64) as usize];
            let l = measure(cluster, &mut client, q, n, repeats, &plugin_on, &plugin_ns)?;
            calls += 4 * repeats + 2;
            let e = per_class.entry(class).or_default();
            e.0 += 1;
            e.1.add(&l);
            n += 1;
        }
    }
    drop(client);

    let mut total = Layers::default();
    for (_, l) in per_class.values() {
        total.add(l);
    }
    checks.require(total.chunks > 0 && total.part_rows > 0, || {
        "the replay dispatched no chunk rows".to_string()
    });
    let mut metrics = layer_metrics(&total, n);
    for (name, v, _) in metrics
        .iter()
        .filter(|(k, _, _)| SELF_TIMES.contains(&k.as_str()))
    {
        checks.require(*v >= 0.0, || format!("{name} is negative ({v:.1} us)"));
    }
    metrics.extend([
        (
            "service.wait_ms".to_string(),
            mean(&all_waits).unwrap_or(f64::NAN),
            "ms",
        ),
        ("service.rejected".to_string(), rejected as f64, "count"),
        (
            "harness.late_ms".to_string(),
            mean(&late).unwrap_or(f64::NAN),
            "ms",
        ),
        ("loader.build_s".to_string(), build.as_secs_f64(), "s"),
        ("loader.stored_bytes".to_string(), stored as f64, "B"),
    ]);
    for (name, v, _) in &metrics {
        checks.require(v.is_finite(), || format!("{name} is not finite"));
    }

    let mut class_lines = Vec::new();
    for (class, (count, l)) in &per_class {
        // A class's self time can be smaller than the noise of the two
        // calls it is the difference of; it is then reported as
        // unresolved rather than as a negative time.
        let mut unresolved = Vec::new();
        let body: Vec<String> = layer_metrics(l, *count)
            .iter()
            .map(|(k, v, _)| {
                if SELF_TIMES.contains(&k.as_str()) && *v < 0.0 {
                    unresolved.push(format!("\"{k}\""));
                    format!("\"{k}\": null")
                } else {
                    format!("\"{k}\": {}", json_num(*v))
                }
            })
            .collect();
        class_lines.push(format!(
            "\"{}\": {{\"sampled\": {count}, \"unresolved\": [{}], {}}}",
            class.name(),
            unresolved.join(", "),
            body.join(", ")
        ));
    }
    let wait_by_class: Vec<String> = [QueryClass::Interactive, QueryClass::Scan]
        .iter()
        .map(|c| {
            let v = waits.get(c.as_str()).map(|w| mean(w).unwrap_or(f64::NAN));
            format!(
                "\"service.wait_ms.{}\": {}",
                c.as_str(),
                v.map_or("null".to_string(), json_num)
            )
        })
        .collect();
    let detail = format!(
        "{{\"detail\": {{\"workload\": \"{}\", \"sampled_queries\": {n}, \"late_p50_ms\": {}, \
         {}, \"classes\": {{{}}}}}}}",
        w.name,
        json_num(median(&late).unwrap_or(f64::NAN)),
        wait_by_class.join(", "),
        class_lines.join(", ")
    );
    for c in &checks.0 {
        eprintln!("e2ebench: check failed: {c}");
    }
    Ok(Report {
        correct: checks.0.is_empty() && failed == 0,
        attempted: (samples.len() + driven.warm.len() + calls) as u64,
        failed,
        metrics,
        detail: vec![detail],
    })
}
