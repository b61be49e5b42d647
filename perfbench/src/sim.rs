//! The two simulation workloads: spec lists swept through
//! `Harness::run_many`, checked against committed record digests, and a
//! traced run that times each layer through its public functions.

use crate::calib::{self, Calibrator};
use crate::layers::{execute_both, trace_store_and_codec, Counts, LayerReport, LoadStats};
use crate::report::{self, Fnv, Outcome, Tracer};
use crate::Args;
use atscale::mmu::{ArchKind, MachineConfig};
use atscale::vm::PageSize;
use atscale::workloads::WorkloadId;
use atscale::{execute_run_reference, Harness, RunRecord, RunSpec, RunStore, SweepConfig};
use atscale_serve::protocol;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Record digests of every sim workload at the commit that defined this
/// benchmark, one `workload seed digest` line per entry.
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 7;

/// Mixed into each spec's seed for the warm-up pass.
const WARM_UP_SEED: u64 = 0x5741_524d_5550;

/// Baseline specs re-executed through the reference pipeline when a seed
/// has no committed digest.
const SPOT_CHECKS: usize = 6;

/// Which of the two sim workloads, with its spec list and thread counts.
pub struct SimWorkload {
    pub name: &'static str,
    pub specs: Vec<RunSpec>,
    /// Threads of the set-ups and measured sweeps: one, because the gated
    /// figure is CPU time, which a second thread would not lower but would
    /// make depend on what shares the host's cores with it.
    pub threads: usize,
    /// Threads of the traced run's `run_many`, whose wall time gives
    /// `experiment.parallel_efficiency`.
    pub traced_threads: usize,
    /// Seconds one sweep takes on a quiet 2-core host. A run makes
    /// `--seconds / sweep_s` sweeps (at least one), so how much work it
    /// measures does not depend on how fast the host is at the time.
    pub sweep_s: u64,
    /// Specs per chunk of a measured sweep; a short calibration pass runs
    /// between chunks.
    pub chunk: usize,
    /// Indices into `specs` the traced run follows through every layer.
    pub traced: Vec<usize>,
}

fn id(label: &str) -> WorkloadId {
    WorkloadId::parse(label).expect("registered workload label")
}

impl SimWorkload {
    /// Looks a sim workload up by name, its specs derived from `seed` as
    /// `SweepConfig::spec` derives them.
    pub fn named(name: &str, seed: u64) -> Option<SimWorkload> {
        match name {
            "sim-overhead-points" => Some(Self::overhead_points(seed)),
            "sim-large-footprint" => Some(Self::large_footprint(seed)),
            _ => None,
        }
    }

    /// All 13 workloads at 256 MB and 1 GB on each page size, plus each at
    /// 1 GB / 4 KB on the three alternative translation architectures, at
    /// the quick sweep's budgets: 117 specs, swept on one thread and traced
    /// on two.
    fn overhead_points(seed: u64) -> SimWorkload {
        let sweep = SweepConfig {
            seed,
            ..SweepConfig::quick()
        };
        let mut specs = Vec::new();
        for w in WorkloadId::all() {
            for fp in [256u64 << 20, 1 << 30] {
                let base = sweep.spec(w, fp);
                specs.push(base);
                specs.push(base.with_page_size(PageSize::Size2M));
                specs.push(base.with_page_size(PageSize::Size1G));
            }
        }
        for w in WorkloadId::all() {
            let base = sweep.spec(w, 1 << 30);
            for arch in [ArchKind::Victima, ArchKind::DramCache, ArchKind::NoTlb] {
                specs.push(base.with_arch(arch));
            }
        }
        // Every workload at 256 MB / 4 KB, plus the three page sizes and
        // the three alternative designs of the two heaviest model builds.
        let mut traced: Vec<usize> = (0..13).map(|w| w * 6).collect();
        for label in ["tc-kron", "mcf-rand"] {
            let w = WorkloadId::all()
                .iter()
                .position(|&x| x == id(label))
                .expect("registered");
            traced.extend([w * 6 + 4, w * 6 + 5]);
            traced.extend((0..3).map(|a| 78 + w * 3 + a));
        }
        traced.sort_unstable();
        SimWorkload {
            name: "sim-overhead-points",
            specs,
            threads: 1,
            traced_threads: 2,
            sweep_s: 20,
            chunk: 9,
            traced,
        }
    }

    /// Four workloads at 16 GB and 64 GB on 4 KB and 2 MB pages with short
    /// budgets, so address-space set-up dominates: 16 specs on one thread.
    fn large_footprint(seed: u64) -> SimWorkload {
        let sweep = SweepConfig {
            warmup_instr: 20_000,
            budget_instr: 200_000,
            seed,
            ..SweepConfig::quick()
        };
        let mut specs = Vec::new();
        for label in ["cc-urand", "tc-kron", "mcf-rand", "memcached-uniform"] {
            for fp in [16u64 << 30, 64 << 30] {
                let base = sweep.spec(id(label), fp);
                specs.push(base);
                specs.push(base.with_page_size(PageSize::Size2M));
            }
        }
        let traced = (0..specs.len()).collect();
        SimWorkload {
            name: "sim-large-footprint",
            specs,
            threads: 1,
            traced_threads: 1,
            sweep_s: 9,
            chunk: 4,
            traced,
        }
    }
}

/// Digest of a record list, in order.
pub fn digest(records: &[RunRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.write(protocol::encode(r).as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// What the committed table expects of a `(workload, seed)` sweep.
#[derive(Clone, Copy, PartialEq)]
enum Expected {
    Digest(u64),
    /// The sweep panicked when the table was taken.
    Panic,
    /// The table has no entry for this seed.
    Unknown,
}

fn expected(workload: &str, seed: u64) -> Expected {
    for line in EXPECTED.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, s, d] = f[..] {
            if w == workload && s.parse::<u64>() == Ok(seed) {
                return match u64::from_str_radix(d, 16) {
                    Ok(digest) => Expected::Digest(digest),
                    Err(_) => Expected::Panic,
                };
            }
        }
    }
    Expected::Unknown
}

/// A fresh segment-backed store in its own directory under `root`.
pub fn fresh_store(root: &Path, tag: &str) -> RunStore {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    RunStore::open_segmented(&dir).expect("open a fresh segmented run store")
}

/// The warm-up list a set-up runs: for each workload in the list, its
/// cheapest spec (smallest footprint, largest page) cut to the test
/// sweep's budgets. Each is a prefix of a spec the sweep runs in full, so
/// the warm-up fails only where the sweep itself would.
fn warmup_specs(w: &SimWorkload) -> Vec<RunSpec> {
    let test = SweepConfig::test();
    let mut warm: Vec<RunSpec> = Vec::new();
    for s in w.specs.iter().filter(|s| s.arch == ArchKind::Baseline) {
        let cost = |x: &RunSpec| (x.nominal_footprint, u64::MAX - x.page_size.bytes());
        match warm.iter_mut().find(|x| x.workload == s.workload) {
            Some(x) if cost(s) < cost(x) => *x = *s,
            Some(_) => {}
            None => warm.push(*s),
        }
    }
    for s in &mut warm {
        s.warmup_instr = test.warmup_instr;
        s.budget_instr = test.budget_instr;
    }
    warm
}

/// One set-up: open a fresh store, build the harness, and push the
/// warm-up list through it. Returns the CPU seconds this process spent on
/// it, worker threads included.
fn setup_once(root: &Path, tag: &str, w: &SimWorkload) -> f64 {
    let pid = std::process::id();
    let cpu0 = report::cpu_seconds(pid).expect("own /proc stat");
    let harness = Harness::new()
        .with_threads(w.threads)
        .with_store(fresh_store(root, tag));
    let warm = warmup_specs(w);
    if catch_unwind(AssertUnwindSafe(|| harness.run_many(&warm))).is_err() {
        eprintln!(
            "{}: a warm-up spec panicked; its full spec will too",
            w.name
        );
    }
    report::cpu_seconds(pid).expect("own /proc stat") - cpu0
}

/// Runs `SETUPS` set-ups, each followed by a pass of `calibrator`'s
/// kernel (appended to `kernel_s`), and returns the median set-up's CPU
/// seconds.
fn set_up(
    root: &Path,
    w: &SimWorkload,
    calibrator: &mut Calibrator,
    kernel_s: &mut Vec<f64>,
) -> f64 {
    let times: Vec<f64> = (0..SETUPS)
        .map(|i| {
            let cpu = setup_once(root, &format!("setup-{i}"), w);
            kernel_s.push(calibrator.measure());
            cpu
        })
        .collect();
    report::median(&times)
}

/// The untimed warm-up before the measured sweeps: every spec of the list
/// at the test sweep's budgets and under another seed, through the same
/// chunked `run_many`. It faults in the memory a sweep's structures need
/// and fills the process-wide caches that depend only on sizes (the ζ
/// memo), which made a process's first sweep cost up to 24% more CPU than
/// its second. With other seeds, it shares no model input with the
/// measured specs, so a cache of built models would not carry over.
fn warm_up(w: &SimWorkload, root: &Path) {
    let test = SweepConfig::test();
    let specs: Vec<RunSpec> = w
        .specs
        .iter()
        .map(|s| RunSpec {
            seed: s.seed ^ WARM_UP_SEED,
            warmup_instr: test.warmup_instr,
            budget_instr: test.budget_instr,
            ..*s
        })
        .collect();
    let harness = Harness::new()
        .with_threads(w.threads)
        .with_store(fresh_store(root, "warm-up"));
    for chunk in specs.chunks(w.chunk) {
        if catch_unwind(AssertUnwindSafe(|| harness.run_many(chunk))).is_err() {
            eprintln!("{}: a warm-up spec panicked", w.name);
        }
    }
}

/// What one measured sweep did.
struct Sweep {
    /// The records in spec order; `None` if a chunk panicked.
    records: Option<Vec<RunRecord>>,
    /// Specs in chunks that panicked.
    failed: u64,
    wall_s: f64,
    /// Process CPU seconds of the chunks.
    cpu_s: f64,
}

/// One measured sweep: the whole spec list through `run_many` into a fresh
/// store, `w.chunk` specs at a time, with a short calibration pass before
/// the first chunk and after each (appended to `short_s`), so the passes
/// sample the host all through the sweep.
fn sweep(
    w: &SimWorkload,
    store: RunStore,
    calibrator: &mut Calibrator,
    short_s: &mut Vec<f64>,
) -> Sweep {
    let pid = std::process::id();
    let harness = Harness::new().with_threads(w.threads).with_store(store);
    let mut out = Sweep {
        records: Some(Vec::with_capacity(w.specs.len())),
        failed: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    short_s.push(calibrator.measure_short());
    for chunk in w.specs.chunks(w.chunk) {
        let cpu0 = report::cpu_seconds(pid).expect("own /proc stat");
        let t0 = Instant::now();
        let done = catch_unwind(AssertUnwindSafe(|| harness.run_many(chunk)));
        out.wall_s += t0.elapsed().as_secs_f64();
        out.cpu_s += report::cpu_seconds(pid).expect("own /proc stat") - cpu0;
        short_s.push(calibrator.measure_short());
        match (done, &mut out.records) {
            (Ok(done), Some(records)) => records.extend(done),
            (Ok(_), None) => {}
            (Err(_), _) => {
                out.failed += chunk.len() as u64;
                out.records = None;
            }
        }
    }
    out
}

/// The measured run: the set-ups, the warm-up pass, then `--seconds /
/// sweep_s` sweeps of the whole spec list (at least one), each into a
/// fresh store. The sweeps' CPU times are scaled by the median of the
/// short calibration passes interleaved with them; the set-ups by the
/// median of the full passes, one before them and one after each.
pub fn run(w: &SimWorkload, args: &Args, root: &Path) -> Outcome {
    let mut calibrator = Calibrator::new();
    let mut kernel_s = vec![calibrator.measure()];
    let raw_setup_s = set_up(root, w, &mut calibrator, &mut kernel_s);
    warm_up(w, root);
    let mut sweeps_ms = Vec::new();
    let mut cpu_ms_per_spec = Vec::new();
    let mut short_s = Vec::new();
    let mut digests = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut spot: Option<Vec<RunRecord>> = None;
    for i in 0..(args.seconds / w.sweep_s).max(1) {
        let store = fresh_store(root, &format!("sweep-{i}"));
        let done = sweep(w, store, &mut calibrator, &mut short_s);
        attempted += w.specs.len() as u64;
        failed += done.failed;
        digests.push(done.records.as_deref().map(digest));
        if spot.is_none() {
            spot = done.records;
        }
        sweeps_ms.push(done.wall_s * 1e3);
        cpu_ms_per_spec.push(done.cpu_s * 1e3 / w.specs.len() as f64);
    }

    // Output check: every sweep's records against the committed digest
    // for this seed. A sweep that panics is a failed operation (its digest
    // reads `None`), not a wrong output, unless the table recorded a digest
    // for it. A seed without a digest gets a weaker check, and says so:
    // the run's sweeps must agree with each other, and a spread of
    // baseline specs with the frozen reference pipeline. That catches a
    // fast path drifting from the model, not a change to the model itself.
    let expected = expected(w.name, args.seed);
    if expected == Expected::Unknown {
        eprintln!(
            "{}: warning: seed {} has no committed digest (expected_digests.txt \
             covers seeds 0-63); checking against the reference pipeline only",
            w.name, args.seed
        );
    }
    let mut correct = true;
    for (i, d) in digests.iter().enumerate() {
        let ok = match (expected, d) {
            (Expected::Digest(e), Some(d)) => *d == e,
            (Expected::Panic, Some(_)) | (Expected::Digest(_), None) => false,
            (Expected::Unknown, Some(_)) => *d == digests[0],
            (_, None) => true,
        };
        if !ok {
            correct = false;
            // A panicked sweep already counts as failed.
            if d.is_some() {
                failed += w.specs.len() as u64;
            }
            eprintln!(
                "{}: sweep {i} digest {d:016x?} does not match the table",
                w.name
            );
        }
    }
    if expected == Expected::Unknown {
        if let Some(records) = &spot {
            let config = MachineConfig::haswell();
            let baseline: Vec<usize> = (0..w.specs.len())
                .filter(|&i| w.specs[i].arch == ArchKind::Baseline)
                .collect();
            let step = baseline.len().div_ceil(SPOT_CHECKS);
            for &i in baseline.iter().step_by(step) {
                let reference = execute_run_reference(&w.specs[i], &config);
                if protocol::encode(&reference) != protocol::encode(&records[i]) {
                    eprintln!("{}: spec {i} differs from the reference pipeline", w.name);
                    correct = false;
                }
            }
        }
    }
    eprintln!(
        "{}: seed {} setup {raw_setup_s:.3}s CPU, {} sweeps of {} specs: {:?} ms, \
         CPU per spec {:.1?} ms, full passes {:.4?} s, short passes {:.4?} s, \
         digest {:016x} ({})",
        w.name,
        args.seed,
        sweeps_ms.len(),
        w.specs.len(),
        sweeps_ms.iter().map(|v| v.round()).collect::<Vec<_>>(),
        cpu_ms_per_spec,
        kernel_s,
        short_s,
        digests.first().copied().flatten().unwrap_or(0),
        match expected {
            Expected::Digest(_) => "committed digest",
            Expected::Panic => "table expects a panic",
            Expected::Unknown => "no committed digest; reference spot check",
        },
    );
    let mut out = Outcome {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    out.push(
        "cpu_ms_per_op",
        report::median(&cpu_ms_per_spec) * calib::scale(&short_s),
        "ms",
    );
    out.push("setup_s", raw_setup_s * calib::scale(&kernel_s), "s");
    out
}

/// The traced run: the traced subset swept through `run_many`, then each
/// spec executed serially with `execute_run` and followed through every
/// layer.
pub fn run_traced(w: &SimWorkload, root: &Path, out_path: &Path) -> Outcome {
    for i in 0..SETUPS {
        setup_once(root, &format!("setup-{i}"), w);
    }
    let config = MachineConfig::haswell();
    let specs: Vec<RunSpec> = w.traced.iter().map(|&i| w.specs[i]).collect();
    let mut tracer = Tracer::new();
    let mut failed = 0u64;

    let harness = Harness::new()
        .with_threads(w.traced_threads)
        .with_store(fresh_store(root, "traced-sweep"));
    let swept = tracer.time("experiment.run_many", 0, None, || {
        catch_unwind(AssertUnwindSafe(|| harness.run_many(&specs))).ok()
    });

    // A spec the simulator cannot run is a failed operation; a record
    // that differs between the three paths is a wrong output.
    let mut counts = Counts::default();
    let mut traced = Vec::with_capacity(specs.len());
    let mut mismatched = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        match execute_both(spec, &config, &mut tracer, i as u64, &mut counts) {
            Ok(Some(record)) => {
                let in_sweep = swept.as_ref().map(|records| protocol::encode(&records[i]));
                if in_sweep.is_some_and(|s| s != protocol::encode(&record)) {
                    eprintln!("{}: {} differs in the sweep", w.name, spec.label());
                    mismatched += 1;
                }
                traced.push((i as u64, record));
            }
            Ok(None) => {
                eprintln!("{}: {} panicked", w.name, spec.label());
                failed += 1;
            }
            Err(e) => {
                eprintln!("{}: {}: {e}", w.name, spec.label());
                mismatched += 1;
            }
        }
    }
    let store = fresh_store(root, "traced-store");
    mismatched += trace_store_and_codec(&traced, &store, &config, &mut tracer);

    let serial_s = tracer.total_s("run.execute");
    let run_many_s = tracer.total_s("experiment.run_many");
    if let Err(e) = tracer.write_jsonl(out_path) {
        eprintln!("cannot write spans to {}: {e}", out_path.display());
    }
    eprintln!(
        "{}: traced {} specs: run_many {run_many_s:.2}s, serial {serial_s:.2}s; spans in {}",
        w.name,
        specs.len(),
        out_path.display()
    );
    let mut out = Outcome {
        correct: mismatched == 0,
        attempted: specs.len() as u64,
        failed: failed + mismatched,
        metrics: Vec::new(),
    };
    // No daemon and no open-loop load generator here: those layers stay
    // zero.
    LayerReport {
        tracer: &tracer,
        counts: &counts,
        parallel_efficiency: serial_s / (w.traced_threads as f64 * run_many_s),
        cache_hit_ratio: 0.0,
        executions: 0,
        peak_rss_mb: report::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        load: LoadStats::default(),
    }
    .push(&mut out);
    out
}

/// Prints `workload seed digest` lines for a range of seeds: the table
/// `expected_digests.txt` is made of. A seed whose sweep panics is listed
/// as `panic`.
pub fn print_digests(workload: &str, seeds: std::ops::RangeInclusive<u64>) {
    for seed in seeds {
        let w = SimWorkload::named(workload, seed).expect("a sim workload");
        let harness = Harness::new().with_threads(w.threads);
        match catch_unwind(AssertUnwindSafe(|| harness.run_many(&w.specs))) {
            Ok(records) => println!("{} {seed} {:016x}", w.name, digest(&records)),
            Err(_) => println!("{} {seed} panic", w.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_lists_have_the_documented_shape() {
        let op = SimWorkload::named("sim-overhead-points", 42).unwrap();
        assert_eq!(op.specs.len(), 117);
        assert_eq!((op.threads, op.traced_threads), (1, 2));
        assert_eq!(op.traced.len(), 23);
        assert!(op.traced.iter().all(|&i| i < op.specs.len()));
        let alternatives = op.specs.iter().filter(|s| s.arch != ArchKind::Baseline);
        assert_eq!(alternatives.count(), 39);
        let lf = SimWorkload::named("sim-large-footprint", 42).unwrap();
        assert_eq!((lf.specs.len(), lf.threads, lf.traced.len()), (16, 1, 16));
        assert_eq!(lf.traced_threads, 1);
        assert!(SimWorkload::named("nope", 42).is_none());
        let warm = warmup_specs(&op);
        assert_eq!(warm.len(), 13);
        assert!(warm
            .iter()
            .all(|s| s.nominal_footprint == 256 << 20 && s.page_size == PageSize::Size1G));
        let warm = warmup_specs(&lf);
        assert_eq!(warm.len(), 4);
        assert!(warm
            .iter()
            .all(|s| s.nominal_footprint == 16 << 30 && s.page_size == PageSize::Size2M));
    }

    #[test]
    fn specs_derive_from_the_seed() {
        let a = SimWorkload::named("sim-overhead-points", 1).unwrap().specs;
        let b = SimWorkload::named("sim-overhead-points", 1).unwrap().specs;
        let c = SimWorkload::named("sim-overhead-points", 2).unwrap().specs;
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a[0],
            SweepConfig {
                seed: 1,
                ..SweepConfig::quick()
            }
            .spec(a[0].workload, 256 << 20)
        );
    }

    #[test]
    fn digest_table_covers_seeds_0_to_63() {
        for name in ["sim-overhead-points", "sim-large-footprint"] {
            for seed in 0..64 {
                assert!(expected(name, seed) != Expected::Unknown, "{name} {seed}");
            }
            assert!(expected(name, 64) == Expected::Unknown);
        }
    }
}
