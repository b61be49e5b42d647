//! `serve-mixed`: an open-loop read/write/query mix against one
//! `atscale-serve` daemon, every reply checked against in-process
//! execution, and a traced run that replays the same mix in-process
//! through the codec, the store and the simulator.

use crate::calib::{self, Calibrator};
use crate::layers::{
    execute_all, execute_both, reply_round_trip, trace_store_and_codec, Counts, LayerReport,
    LoadStats,
};
use crate::report::{self, Fnv, Outcome, Tracer};
use crate::sim::fresh_store;
use crate::Args;
use atscale::gen::splitmix64;
use atscale::mmu::MachineConfig;
use atscale::results::QueryFilter;
use atscale::vm::PageSize;
use atscale::workloads::WorkloadId;
use atscale::{RunRecord, RunSpec, RunStore, SweepConfig};
use atscale_serve::loadgen::{self, Arrival};
use atscale_serve::protocol::{self, Reply, Request, Submit};
use atscale_serve::{Client, ClientError, SubmitOptions};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-mixed";

/// Offered load, requests per second (Poisson arrivals).
const RATE: f64 = 600.0;
/// Pre-warmed specs reads draw from.
const POOL: usize = 64;
/// Daemon worker threads.
const WORKERS: usize = 1;
/// Connections the load generator spreads requests over, round-robin.
const CONNECTIONS: usize = 2;
/// Latency limit a request must meet, milliseconds.
const SLO_MS: f64 = 50.0;
/// Daemon set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 5;
/// Equal slices of the timed phase, by request; the reported daemon CPU
/// per request is the median over them, so one slice that a burst of
/// host load lands in does not move the result.
const WINDOWS: usize = 3;
/// Span ids of the pool's records in the traced replay, clear of the
/// request ids (1, 2, …).
const POOL_SPAN_IDS: u64 = 1 << 32;
/// Requests of the mix the traced run replays in-process.
const REPLAY: usize = 3_000;
/// How long unanswered requests are waited for after the last send.
const DRAIN: Duration = Duration::from_secs(30);
/// Requests per 100 of each class. Writes execute on the worker that also
/// answers reads; at this mix the daemon uses about 0.7 of a CPU (1.2 ms
/// per request at 600 req/s).
const READS: usize = 90;
const WRITES: usize = 8;
const QUERIES: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Read,
    Write,
    Query,
}

/// One request of the mix.
struct Planned {
    class: Class,
    due_ns: u64,
    /// The submitted spec (reads and writes) or the queried spec's
    /// workload (queries).
    spec: RunSpec,
}

/// Builds the pool and the request plan for `seed`. Arrival times and
/// pool picks come from `loadgen::schedule`; classes are dealt in blocks of
/// 100 (exactly `READS`, `WRITES` and `QUERIES` per block, in a shuffled
/// order), write specs walk every test-size shape in a shuffled order, and
/// the pool's shapes are the same for every seed (`pool_shapes`), so each
/// run carries the same mix of work.
fn mix(seed: u64, count: usize) -> (Vec<RunSpec>, Vec<Planned>) {
    let pool: Vec<RunSpec> = pool_shapes()
        .into_iter()
        .enumerate()
        .map(|(i, shape)| shaped_spec(shape, seed, 2 * i as u64))
        .collect();
    let write_shapes = shuffled(seed ^ 0x7772_6974, shapes());
    let mut classes = Vec::with_capacity(count + 100);
    while classes.len() < count {
        let block = [Class::Read; READS]
            .into_iter()
            .chain([Class::Write; WRITES])
            .chain([Class::Query; QUERIES])
            .collect();
        classes.extend(shuffled(seed ^ classes.len() as u64, block));
    }
    let mut writes = 0;
    let plan = loadgen::schedule(seed, RATE, count, POOL)
        .into_iter()
        .zip(classes)
        .map(|(Arrival { at_ns, spec }, class)| {
            let spec = if class == Class::Write {
                writes += 1;
                let shape = write_shapes[(writes - 1) % write_shapes.len()];
                // Odd stream positions never coincide with the pool's.
                shaped_spec(shape, seed, 2 * (POOL + writes) as u64 + 1)
            } else {
                pool[spec]
            };
            Planned {
                class,
                due_ns: at_ns,
                spec,
            }
        })
        .collect();
    (pool, plan)
}

/// One test-sweep shape: workload, footprint, page size.
type Shape = (WorkloadId, u64, PageSize);

/// Every test-sweep shape: 13 workloads x 3 footprints x 3 page sizes.
fn shapes() -> Vec<Shape> {
    let mut out = Vec::new();
    for w in WorkloadId::all() {
        for fp in SweepConfig::test().footprints() {
            for page in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
                out.push((w, fp, page));
            }
        }
    }
    out
}

/// The pool's shapes: workloads dealt round-robin (each four or five
/// times), each round on another footprint and page size, so footprints
/// and page sizes are spread evenly. Fixed, because the pool's footprints
/// set most of the set-up's cost: with a seeded choice of shapes the
/// median set-up of one seed took 40% more CPU than another's.
fn pool_shapes() -> Vec<Shape> {
    let footprints = SweepConfig::test().footprints();
    let pages = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];
    let workloads = WorkloadId::all();
    (0..POOL)
        .map(|i| {
            let (w, round) = (i % workloads.len(), i / workloads.len());
            (
                workloads[w],
                footprints[(w + round) % 3],
                pages[(w + round + round / 3) % 3],
            )
        })
        .collect()
}

/// Fisher-Yates shuffle driven by a splitmix64 stream from `seed`.
fn shuffled<T>(seed: u64, mut items: Vec<T>) -> Vec<T> {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items
}

/// A test-sweep-budget spec of `shape`, its seed the `n`th of `seed`'s
/// stream.
fn shaped_spec((workload, footprint, page): Shape, seed: u64, n: u64) -> RunSpec {
    let sweep = SweepConfig {
        seed,
        ..SweepConfig::test()
    };
    let mut spec = sweep.spec(workload, footprint).with_page_size(page);
    spec.seed = splitmix64(seed ^ splitmix64(n));
    spec
}

/// A running daemon and its store directory.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &Path, store: &Path) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(bin)
            .args(["--tcp", &addr, "--io", "epoll", "--reactors", "1"])
            .args(["--workers", &WORKERS.to_string(), "--store"])
            .arg(store)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Daemon { child, addr })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects (retrying while the daemon binds) and shakes hands.
    fn connect(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            match Client::connect_tcp(&self.addr) {
                Ok(mut client) => {
                    client.hello().map_err(|e| format!("handshake: {e}"))?;
                    return Ok(client);
                }
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Asks the daemon to drain and exit, and waits for it.
    fn stop(mut self, client: &mut Client) {
        let _ = client.shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemon binary, built next to this one.
fn daemon_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let bin = me.with_file_name("atscale-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is not built", bin.display()))
    }
}

/// One set-up: spawn a daemon on a fresh store, wait for its `Welcome`,
/// and pre-warm the read pool. Returns the daemon, a control connection,
/// the set-up time (CPU seconds the daemon used from its start until the
/// pool was warm), and how many pool specs failed to execute.
fn set_up_once(
    bin: &Path,
    store: &Path,
    pool: &[RunSpec],
) -> Result<(Daemon, Client, f64, u64), String> {
    let _ = std::fs::remove_dir_all(store);
    std::fs::create_dir_all(store).map_err(|e| format!("store dir: {e}"))?;
    let mut daemon = Daemon::spawn(bin, store)?;
    let mut client = daemon.connect()?;
    let failed = match client.run_many(pool, SubmitOptions::default()) {
        Ok(records) if records.len() == pool.len() => 0,
        Err(ClientError::Failed(jobs)) => jobs.len() as u64,
        Ok(_) => return Err("pre-warm returned too few records".to_string()),
        Err(e) => return Err(format!("pre-warm: {e}")),
    };
    let cpu = report::cpu_seconds(daemon.pid()).ok_or("daemon /proc stat")?;
    Ok((daemon, client, cpu, failed))
}

/// How one request ended, as the reader threads saw it.
#[derive(Default, Clone)]
struct Resolution {
    done: Option<Instant>,
    ok: bool,
    /// Digests of the records delivered for it.
    records: Vec<u64>,
}

/// Shared between the sender and the reader threads.
struct Book {
    resolutions: Mutex<Vec<Resolution>>,
    /// Per connection, the ids of queries awaiting their (id-less) answer,
    /// in send order.
    queries: Vec<Mutex<VecDeque<u64>>>,
    resolved: AtomicU64,
}

impl Book {
    /// Marks request `id` answered at `at`; `ok` judges it from what it
    /// received. Later answers for the same id are ignored.
    fn resolve(&self, id: u64, at: Instant, ok: impl FnOnce(&Resolution) -> bool) {
        let mut all = self
            .resolutions
            .lock()
            .expect("reader threads do not panic");
        if let Some(r) = id.checked_sub(1).and_then(|i| all.get_mut(i as usize)) {
            if r.done.is_none() {
                r.ok = ok(r);
                r.done = Some(at);
                self.resolved.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

fn read_replies(conn: usize, stream: TcpStream, book: &Book) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let at = Instant::now();
        let Ok(reply) = protocol::decode::<Reply>(line.trim()) else {
            continue;
        };
        match reply {
            Reply::Record(done) => {
                let mut h = Fnv::new();
                h.write(protocol::encode(&done.record).as_bytes());
                let mut all = book
                    .resolutions
                    .lock()
                    .expect("reader threads do not panic");
                if let Some(r) = done.id.checked_sub(1).and_then(|i| all.get_mut(i as usize)) {
                    r.records.push(h.finish());
                }
            }
            Reply::BatchDone(d) => book.resolve(d.id, at, |r| {
                d.delivered == 1 && d.failed == 0 && d.expired == 0 && r.records.len() == 1
            }),
            Reply::Overloaded(o) => book.resolve(o.id, at, |_| false),
            Reply::Error(e) if e.id != 0 => book.resolve(e.id, at, |_| false),
            Reply::QueryResult(_) | Reply::Error(_) => {
                let ok = matches!(reply, Reply::QueryResult(ref q) if !q.groups.is_empty());
                let next = book.queries[conn]
                    .lock()
                    .expect("sender does not panic")
                    .pop_front();
                if let Some(id) = next {
                    book.resolve(id, at, |_| ok);
                }
            }
            _ => {}
        }
    }
}

/// What the timed phase measured.
struct Phase {
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    resolutions: Vec<Resolution>,
    /// Daemon CPU milliseconds per request in each of the `WINDOWS`
    /// slices.
    window_cpu_ms: Vec<f64>,
}

/// Sends the plan open-loop over `CONNECTIONS` connections to the daemon
/// `pid` listening on `addr`; every request is timed from its due time.
/// The daemon's CPU time is read as each window's first request falls
/// due, and once more after the drain. Returns once all are answered or
/// the drain window closes.
fn drive(addr: &str, pid: u32, plan: &[Planned]) -> Result<Phase, String> {
    let book = Arc::new(Book {
        resolutions: Mutex::new(vec![Resolution::default(); plan.len()]),
        queries: (0..CONNECTIONS)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect(),
        resolved: AtomicU64::new(0),
    });
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for conn in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let book = Arc::clone(&book);
        readers.push(std::thread::spawn(move || {
            read_replies(conn, reader, &book)
        }));
        writers.push(stream);
    }
    let hello = protocol::encode(&Request::Hello(protocol::Hello {
        protocol: atscale_serve::PROTOCOL_VERSION,
    })) + "\n";
    for w in &mut writers {
        w.write_all(hello.as_bytes())
            .map_err(|e| format!("hello: {e}"))?;
    }

    let cpu = || report::cpu_seconds(pid).ok_or("daemon /proc stat");
    let bounds: Vec<usize> = (0..=WINDOWS).map(|k| k * plan.len() / WINDOWS).collect();
    let mut cpu_marks = Vec::with_capacity(WINDOWS + 1);
    let start = Instant::now() + Duration::from_millis(20);
    let mut lags_ms = Vec::with_capacity(plan.len());
    for (i, p) in plan.iter().enumerate() {
        let id = i as u64 + 1;
        let due = start + Duration::from_nanos(p.due_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if bounds[..WINDOWS].contains(&i) {
            cpu_marks.push(cpu()?);
        }
        let conn = i % CONNECTIONS;
        let request = match p.class {
            Class::Read | Class::Write => Request::Submit(Submit {
                id,
                specs: vec![p.spec],
                deadline_ms: None,
                no_cache: false,
                sample_interval: 0,
            }),
            Class::Query => {
                book.queries[conn]
                    .lock()
                    .expect("readers do not panic")
                    .push_back(id);
                Request::Query(QueryFilter {
                    workload: Some(p.spec.workload.to_string()),
                    ..QueryFilter::default()
                })
            }
        };
        let line = protocol::encode(&request) + "\n";
        lags_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if writers[conn].write_all(line.as_bytes()).is_err() {
            book.resolve(id, Instant::now(), |_| false);
        }
    }
    let drain_end = Instant::now() + DRAIN;
    while book.resolved.load(Ordering::SeqCst) < plan.len() as u64 && Instant::now() < drain_end {
        std::thread::sleep(Duration::from_millis(5));
    }
    cpu_marks.push(cpu()?);
    let window_cpu_ms = (0..WINDOWS)
        .map(|k| (cpu_marks[k + 1] - cpu_marks[k]) * 1e3 / (bounds[k + 1] - bounds[k]) as f64)
        .collect();
    for w in &writers {
        let _ = w.shutdown(Shutdown::Both);
    }
    for r in readers {
        r.join()
            .map_err(|_| "a reader thread panicked".to_string())?;
    }
    let given_up = Instant::now();
    let resolutions = std::mem::take(&mut *book.resolutions.lock().expect("readers joined"));
    // An unanswered request waited at least until the load generator gave up.
    let latencies_ms = plan
        .iter()
        .zip(&resolutions)
        .map(|(p, r)| {
            let due = start + Duration::from_nanos(p.due_ns);
            r.done
                .unwrap_or(given_up)
                .saturating_duration_since(due)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    Ok(Phase {
        latencies_ms,
        lags_ms,
        resolutions,
        window_cpu_ms,
    })
}

/// Checks every delivered record against an in-process `execute_run` of
/// the same spec. Returns, per request, whether it failed (unanswered,
/// refused, errored, or answered with a different record), and how many
/// answered requests carried a different record.
fn verify(plan: &[Planned], phase: &Phase) -> (Vec<bool>, u64) {
    let mut distinct: BTreeMap<String, (RunSpec, Vec<usize>)> = BTreeMap::new();
    for (i, (p, r)) in plan.iter().zip(&phase.resolutions).enumerate() {
        if p.class != Class::Query && r.ok {
            distinct
                .entry(protocol::encode(&p.spec))
                .or_insert_with(|| (p.spec, Vec::new()))
                .1
                .push(i);
        }
    }
    let specs: Vec<RunSpec> = distinct.values().map(|(s, _)| *s).collect();
    // Every one of these executed on the daemon, so none should panic here.
    let fresh: Vec<Option<String>> = execute_all(&specs, 2)
        .iter()
        .map(|r| r.as_ref().map(protocol::encode))
        .collect();
    let mut failed: Vec<bool> = phase.resolutions.iter().map(|r| !r.ok).collect();
    let mut mismatched = 0;
    for ((_, requests), record) in distinct.values().zip(&fresh) {
        let want = record.as_ref().map(|r| {
            let mut h = Fnv::new();
            h.write(r.as_bytes());
            h.finish()
        });
        for &i in requests {
            if want.is_none_or(|w| phase.resolutions[i].records != [w]) {
                failed[i] = true;
                mismatched += 1;
            }
        }
    }
    (failed, mismatched)
}

fn class_latencies(plan: &[Planned], phase: &Phase, class: Class) -> Vec<f64> {
    let mut v: Vec<f64> = plan
        .iter()
        .zip(&phase.latencies_ms)
        .filter(|(p, _)| p.class == class)
        .map(|(_, &l)| l)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Per-class latency quantiles, each at a rank with at least ten samples
/// beyond it (checked, and reported with its sample count).
fn load_stats(plan: &[Planned], phase: &Phase, failed: &[bool]) -> LoadStats {
    let reads = class_latencies(plan, phase, Class::Read);
    let writes = class_latencies(plan, phase, Class::Write);
    let queries = class_latencies(plan, phase, Class::Query);
    let mut lags = phase.lags_ms.clone();
    lags.sort_by(f64::total_cmp);
    for (name, n, q) in [
        ("read p99", reads.len(), 0.99),
        ("write p95", writes.len(), 0.95),
        ("lag p99", lags.len(), 0.99),
    ] {
        if report::tail_quantile(n).is_none_or(|max| max < q) {
            eprintln!("{NAME}: {name} has fewer than ten of {n} samples beyond it");
        }
    }
    let misses = phase
        .latencies_ms
        .iter()
        .zip(failed)
        .filter(|(&l, &f)| f || l > SLO_MS)
        .count();
    LoadStats {
        read_p50_ms: report::quantile(&reads, 0.5),
        read_p99_ms: report::quantile(&reads, 0.99),
        write_p50_ms: report::quantile(&writes, 0.5),
        write_p95_ms: report::quantile(&writes, 0.95),
        query_p50_ms: report::quantile(&queries, 0.5),
        lag_p99_ms: report::quantile(&lags, 0.99),
        slo_miss_share: misses as f64 / plan.len() as f64,
        reads: reads.len() as u64,
        writes: writes.len() as u64,
        queries: queries.len() as u64,
    }
}

pub fn run(args: &Args, root: &Path, spans: &Path) -> Result<Outcome, String> {
    let bin = daemon_bin()?;
    let count = (RATE * args.seconds as f64).round() as usize;
    let (pool, plan) = mix(args.seed, count);

    // The calibration kernel runs first, after each set-up, and after the
    // timed phase.
    let mut calibrator = Calibrator::new();
    let mut kernel_s = vec![calibrator.measure()];
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let store = root.join(format!("store-{i}"));
        let (daemon, mut client, secs, failed) = set_up_once(&bin, &store, &pool)?;
        setups.push(secs);
        kernel_s.push(calibrator.measure());
        if i + 1 < SETUPS {
            daemon.stop(&mut client);
        } else {
            live = Some((daemon, client, failed));
        }
    }
    let (daemon, mut client, pool_failed) = live.expect("at least one set-up");
    let setup_s = report::median(&setups);

    let pid = daemon.pid();
    let phase = drive(&daemon.addr, pid, &plan)?;
    let peak = report::peak_rss_mb(pid).ok_or("daemon /proc status")?;
    let stats = client
        .server_stats()
        .map_err(|e| format!("server stats: {e}"))?;
    daemon.stop(&mut client);
    kernel_s.push(calibrator.measure());

    let (failed, mismatched) = verify(&plan, &phase);
    let n_failed = failed.iter().filter(|&&f| f).count() as u64 + pool_failed;
    let load = load_stats(&plan, &phase, &failed);
    let mut all = phase.latencies_ms.clone();
    all.sort_by(f64::total_cmp);
    eprintln!(
        "{NAME}: seed {} setup {setup_s:.3}s CPU (median of {setups:.3?}); {} requests ({} read, {} write, {} query), \
         {n_failed} failed ({pool_failed} in pre-warm, {mismatched} mismatched); p50 {:.3} ms, read p99 {:.3} ms, write p50 {:.3} ms, lag p99 {:.3} ms, \
         daemon cpu per request {:.3?} ms, kernel {:.4?} s, executions {}, cache hits {}",
        args.seed,
        plan.len(),
        load.reads,
        load.writes,
        load.queries,
        report::quantile(&all, 0.5),
        load.read_p99_ms,
        load.write_p50_ms,
        load.lag_p99_ms,
        phase.window_cpu_ms,
        kernel_s,
        stats.executions,
        stats.cache_hits,
    );
    // A job the simulator cannot run fails on the daemon and counts as a
    // failed operation; only a delivered record that differs from
    // in-process execution makes the output incorrect.
    let mut out = Outcome {
        correct: mismatched == 0,
        attempted: plan.len() as u64 + pool.len() as u64,
        failed: n_failed,
        metrics: Vec::new(),
    };
    if !args.trace {
        let scale = calib::scale(&kernel_s);
        out.push(
            "cpu_ms_per_op",
            report::median(&phase.window_cpu_ms) * scale,
            "ms",
        );
        out.push("setup_s", setup_s * scale, "s");
        return Ok(out);
    }

    let (tracer, counts, tally) = replay_traced(root, &pool, &plan[..REPLAY.min(plan.len())]);
    out.correct &= tally.mismatched == 0;
    out.failed += tally.failed + tally.mismatched;
    if let Err(e) = tracer.write_jsonl(spans) {
        eprintln!("cannot write spans to {}: {e}", spans.display());
    }
    let lookups = stats.cache_hits + stats.executions;
    LayerReport {
        tracer: &tracer,
        counts: &counts,
        // The daemon runs jobs through its own workers, not `run_many`.
        parallel_efficiency: 0.0,
        cache_hit_ratio: stats.cache_hits as f64 / lookups.max(1) as f64,
        executions: stats.executions,
        peak_rss_mb: peak,
        load,
    }
    .push(&mut out);
    Ok(out)
}

/// What the in-process replay found wrong: operations that failed (the
/// simulator panicked) and results that differ from the daemon's path.
#[derive(Default)]
struct Tally {
    failed: u64,
    mismatched: u64,
}

/// Replays the start of the mix in-process, each layer call in its own
/// span: request and reply through the codec, reads from and writes to a
/// fresh segmented store, queries on it, and each write executed with
/// `execute_run` and then followed through every layer.
fn replay_traced(root: &Path, pool: &[RunSpec], plan: &[Planned]) -> (Tracer, Counts, Tally) {
    let config = MachineConfig::haswell();
    let store = fresh_store(root, "replay-store");
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut tally = Tally::default();
    let pooled = execute_all(pool, 2);
    let warmed: Vec<(u64, RunRecord)> = pooled
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((POOL_SPAN_IDS + i as u64, r.clone()?)))
        .collect();
    tally.failed += (pool.len() - warmed.len()) as u64;
    tally.mismatched += trace_store_and_codec(&warmed, &store, &config, &mut tracer);
    for (i, p) in plan.iter().enumerate() {
        let id = i as u64 + 1;
        let request = match p.class {
            Class::Query => Request::Query(QueryFilter {
                workload: Some(p.spec.workload.to_string()),
                ..QueryFilter::default()
            }),
            _ => Request::Submit(Submit {
                id,
                specs: vec![p.spec],
                deadline_ms: None,
                no_cache: false,
                sample_interval: 0,
            }),
        };
        let line = tracer.time("protocol.encode", id, None, || protocol::encode(&request));
        if tracer
            .time("protocol.decode", id, None, || {
                protocol::decode::<Request>(&line)
            })
            .is_err()
        {
            tally.mismatched += 1;
        }
        match p.class {
            Class::Read => {
                let key = RunStore::key(&p.spec, &config);
                match tracer.time("store.load", id, None, || store.load(&key)) {
                    Some(record) => tally.mismatched += reply_round_trip(&record, id, &mut tracer),
                    // Reads of a pool spec that failed to execute fail too.
                    None if pool
                        .iter()
                        .zip(&pooled)
                        .any(|(s, r)| *s == p.spec && r.is_none()) =>
                    {
                        tally.failed += 1;
                    }
                    None => tally.mismatched += 1,
                }
            }
            Class::Write => {
                let record = match execute_both(&p.spec, &config, &mut tracer, id, &mut counts) {
                    Ok(Some(record)) => record,
                    Ok(None) => {
                        tally.failed += 1;
                        continue;
                    }
                    Err(_) => {
                        tally.mismatched += 1;
                        continue;
                    }
                };
                let key = RunStore::key(&p.spec, &config);
                if tracer
                    .time("store.save", id, None, || store.save(&key, &record))
                    .is_err()
                {
                    tally.failed += 1;
                }
                tally.mismatched += reply_round_trip(&record, id, &mut tracer);
            }
            Class::Query => {
                let filter = QueryFilter {
                    workload: Some(p.spec.workload.to_string()),
                    ..QueryFilter::default()
                };
                let answer = tracer.time("store.query", id, None, || store.query(&filter));
                if answer.is_none_or(|a| a.groups.is_empty()) {
                    tally.mismatched += 1;
                }
            }
        }
    }
    (tracer, counts, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_dealt_in_blocks() {
        let (pool, plan) = mix(5, 1_000);
        let (pool2, plan2) = mix(5, 1_000);
        assert_eq!(pool, pool2);
        assert_eq!(pool.len(), POOL);
        assert!(plan
            .iter()
            .zip(&plan2)
            .all(|(a, b)| a.spec == b.spec && a.due_ns == b.due_ns));
        let count = |c: Class| plan.iter().filter(|p| p.class == c).count();
        assert_eq!(count(Class::Read), 900);
        assert_eq!(count(Class::Write), 80);
        assert_eq!(count(Class::Query), 20);
        assert!(plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let (_, other) = mix(6, 1_000);
        assert!(plan.iter().zip(&other).any(|(a, b)| a.spec != b.spec));
        let shapes = pool_shapes();
        for w in WorkloadId::all() {
            let own: Vec<&Shape> = shapes.iter().filter(|s| s.0 == w).collect();
            assert!(
                own.len() == 4 || own.len() == 5,
                "{w} is in the pool {} times",
                own.len()
            );
            assert!(own.iter().enumerate().all(|(i, s)| !own[..i].contains(s)));
        }
        for (spec, shape) in pool.iter().zip(&shapes) {
            assert_eq!(
                (spec.workload, spec.nominal_footprint, spec.page_size),
                *shape
            );
        }
    }

    #[test]
    fn writes_are_never_pool_specs_and_never_repeat() {
        let (pool, plan) = mix(9, 4_000);
        let writes: Vec<RunSpec> = plan
            .iter()
            .filter(|p| p.class == Class::Write)
            .map(|p| p.spec)
            .collect();
        for (i, w) in writes.iter().enumerate() {
            assert!(!pool.contains(w));
            assert!(!writes[..i].contains(w));
        }
        // Reads and queries draw from the pool.
        assert!(plan
            .iter()
            .filter(|p| p.class != Class::Write)
            .all(|p| pool.contains(&p.spec)));
    }

    #[test]
    fn shapes_cover_the_test_sweep() {
        assert_eq!(shapes().len(), 13 * 3 * 3);
        let mut s = shuffled(3, (0..50).collect::<Vec<u32>>());
        assert_ne!(s, (0..50).collect::<Vec<u32>>());
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<u32>>());
    }
}
