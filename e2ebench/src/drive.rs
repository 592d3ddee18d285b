//! Cluster set-up and the TCP load generators.
//!
//! Every query of a timed run crosses the whole system: it is sent as
//! SQL text over a real socket to `qserv_proxy::ProxyServer`, which
//! hands it to the query service, the frontend, the master, the fabric
//! and the workers, and streams the merged rows back.

use crate::queries::{Class, Query, Summary};
use crate::sky::Sky;
use crate::stats::{due_latency, due_time, lateness};
use qserv::{ClusterBuilder, Qserv};
use qserv_proxy::{ProxyClient, ProxyServer};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker nodes in every cluster.
const NODES: usize = 4;

/// A loaded cluster serving on a local TCP port.
pub struct Cluster {
    /// The frontend, for the traced replay's direct calls.
    pub qserv: Arc<Qserv>,
    /// The proxy the timed runs talk to.
    pub server: ProxyServer,
    dir: PathBuf,
}

impl Cluster {
    /// Partitions and loads `sky` into on-disk chunk files under `dir`
    /// and starts the proxy. Returns the cluster and the time both took.
    pub fn start(sky: &Sky, dir: &Path) -> Result<(Cluster, Duration), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let started = Instant::now();
        let qserv = Arc::new(
            ClusterBuilder::new(NODES)
                .chunker(sky.spec.chunker())
                .storage_dir(dir)
                .build(&sky.patch.objects, &sky.patch.sources),
        );
        let server = ProxyServer::start(Arc::clone(&qserv), "127.0.0.1:0")
            .map_err(|e| format!("start proxy: {e}"))?;
        let took = started.elapsed();
        Ok((
            Cluster {
                qserv,
                server,
                dir: dir.to_path_buf(),
            },
            took,
        ))
    }

    /// The proxy's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Bytes of chunk files under the storage directory.
    pub fn stored_bytes(&self) -> Result<u64, String> {
        dir_bytes(&self.dir)
    }

    /// Stops the proxy, drops the cluster and deletes its files.
    pub fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        drop(self.qserv);
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()))
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// One query as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    /// Time from sending to the first result row (or to the end, for an
    /// empty result).
    pub first_row: Duration,
    /// Time from sending to the end of the response.
    pub total: Duration,
    /// The rows, reduced for checking.
    pub summary: Summary,
}

/// Sends `sql` and consumes the streamed response.
pub fn send(client: &mut ProxyClient, sql: &str) -> Result<Reply, String> {
    let sent = Instant::now();
    let mut stream = client.query_stream(sql).map_err(|e| e.to_string())?;
    let mut summary = Summary::default();
    let mut first_row = None;
    while let Some(batch) = stream.next_batch().map_err(|e| e.to_string())? {
        if !batch.rows.is_empty() && first_row.is_none() {
            first_row = Some(sent.elapsed());
        }
        summary.add_rows(&batch.rows);
    }
    let total = sent.elapsed();
    Ok(Reply {
        first_row: first_row.unwrap_or(total),
        total,
        summary,
    })
}

/// Which generator produced a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loop {
    /// Next query sent when the previous one completes.
    Closed,
    /// Queries sent on a fixed schedule.
    Open,
}

/// One timed query.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The generator that sent it.
    pub origin: Loop,
    /// Index into that generator's query pool.
    pub query: usize,
    /// Its class.
    pub class: Class,
    /// Latency: from sending (closed loop) or from the due time (open loop).
    pub latency: Duration,
    /// Time to the first row, measured from the same origin.
    pub first_row: Duration,
    /// How late the generator sent it: after the due time (open loop),
    /// or after the previous reply arrived (closed loop).
    pub late: Duration,
    /// Rows stored in the chunks it was dispatched to (looked up after
    /// the run, for some successful closed-loop samples).
    pub covered: Option<u64>,
    /// Why it failed, if it did: an error, a `BUSY` refusal, or a wrong
    /// answer.
    pub error: Option<String>,
}

fn connect(addr: SocketAddr) -> Result<ProxyClient, String> {
    ProxyClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends `q` and checks its answer; a failed session is replaced so the
/// next query starts on a clean connection.
fn send_checked(
    client: &mut ProxyClient,
    addr: SocketAddr,
    q: &Query,
) -> Result<Result<Reply, String>, String> {
    match send(client, &q.sql) {
        Ok(reply) => Ok(q
            .expect
            .check(&reply.summary)
            .map(|()| reply)
            .map_err(|e| format!("{} wrong answer: {e}", q.class.name()))),
        Err(e) => {
            *client = connect(addr)?;
            Ok(Err(format!("{} failed: {e}", q.class.name())))
        }
    }
}

/// A closed loop over one connection: sends `pool` in order (cycling)
/// until `run` has elapsed since `start`.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[Query],
    start: Instant,
    run: Duration,
) -> Result<Vec<Sample>, String> {
    let mut client = connect(addr)?;
    let mut samples = Vec::new();
    let mut prev_done = start;
    while start.elapsed() < run {
        let i = samples.len() % pool.len();
        let q = &pool[i];
        let sent = Instant::now();
        let late = sent - prev_done;
        let outcome = send_checked(&mut client, addr, q)?;
        let total = sent.elapsed();
        prev_done = Instant::now();
        samples.push(match outcome {
            Ok(reply) => Sample {
                origin: Loop::Closed,
                query: i,
                class: q.class,
                latency: reply.total,
                first_row: reply.first_row,
                late,
                covered: None,
                error: None,
            },
            Err(e) => Sample {
                origin: Loop::Closed,
                query: i,
                class: q.class,
                latency: total,
                first_row: total,
                late,
                covered: None,
                error: Some(e),
            },
        });
    }
    Ok(samples)
}

/// An open loop over one connection: query `k` is due at
/// `start + k / rate` and is `pool[k % pool.len()]`. A query is sent at
/// its due time, or as soon as the previous reply arrives if that is
/// later; its latency counts from the due time either way. The loop
/// sends every query due within `run`, and keeps to its schedule after
/// that for as long as `closed_busy` is set, so that the closed loop's
/// last query runs under the same load as the others.
pub fn open_loop(
    addr: SocketAddr,
    pool: &[Query],
    rate_per_s: f64,
    start: Instant,
    run: Duration,
    closed_busy: &AtomicBool,
) -> Result<Vec<Sample>, String> {
    let mut client = connect(addr)?;
    let mut samples = Vec::new();
    for k in 0.. {
        let due = due_time(k as u64, rate_per_s);
        if due >= run && !closed_busy.load(Ordering::SeqCst) {
            break;
        }
        let now = start.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        let q = &pool[k % pool.len()];
        let sent = start.elapsed();
        let outcome = send_checked(&mut client, addr, q)?;
        let done = start.elapsed();
        let (first_row, error) = match outcome {
            Ok(reply) => (sent + reply.first_row, None),
            Err(e) => (done, Some(e)),
        };
        samples.push(Sample {
            origin: Loop::Open,
            query: k % pool.len(),
            class: q.class,
            latency: due_latency(due, done),
            first_row: due_latency(due, first_row),
            late: lateness(due, sent),
            covered: None,
            error,
        });
    }
    Ok(samples)
}

/// Closed-loop queries per class whose covered rows are looked up
/// (each needs a planning call, several milliseconds on `fine`).
const COVERED_PER_CLASS: usize = 30;

/// Records, for the first successful closed-loop samples of each class,
/// the rows stored in the chunks their query was planned onto: the
/// Source rows for LV2, the Object rows otherwise. Returns the checks
/// that failed.
pub fn fill_covered(
    cluster: &Cluster,
    sky: &Sky,
    pool: &[Query],
    samples: &mut [Sample],
) -> Result<Vec<String>, String> {
    let stats = cluster.qserv.table_stats();
    let mut per_class: HashMap<Class, usize> = HashMap::new();
    let mut checks = Vec::new();
    for s in samples
        .iter_mut()
        .filter(|s| s.origin == Loop::Closed && s.error.is_none())
    {
        let looked_up = per_class.entry(s.class).or_default();
        if *looked_up == COVERED_PER_CLASS {
            continue;
        }
        *looked_up += 1;
        let q = &pool[s.query];
        let table = if q.class == Class::Lv2 {
            "Source"
        } else {
            "Object"
        };
        let plan = cluster
            .qserv
            .explain(&q.sql)
            .map_err(|e| format!("explain {}: {e}", q.class.name()))?;
        let rows: u64 = plan
            .chunks
            .iter()
            .map(|&c| stats.chunk_rows(table, c as i64).unwrap_or(0))
            .sum();
        if q.class.full_sky() && rows != sky.objects() as u64 {
            checks.push(format!(
                "{} covered {rows} rows, the sky holds {}",
                q.class.name(),
                sky.objects()
            ));
        }
        s.covered = Some(rows);
    }
    Ok(checks)
}
