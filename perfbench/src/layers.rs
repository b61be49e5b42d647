//! Per-layer timing: each layer's public entry points called one at a
//! time, each call in its own span, plus the exact simulated counts and the
//! per-layer metric list every traced run prints.

use crate::report::{Outcome, Tracer};
use atscale::mmu::{
    ArchKind, ArchMachine, BaselineArch, CountingSink, DramCacheArch, MachineConfig, NoTlbArch,
    RecordingSink, TraceEvent, TranslationArchitecture, VictimaArch,
};
use atscale::results::QueryFilter;
use atscale::vm::{AddressSpace, BackingPolicy};
use atscale::{execute_run, Harness, RunRecord, RunSpec, RunStore};
use atscale_serve::protocol::{self, RecordDone, Reply};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Exact simulated counts of one run, summed over the traced specs.
#[derive(Default)]
pub struct Counts {
    walks_initiated: u64,
    stlb_misses: u64,
    pt_accesses: u64,
    walk_cycles: u64,
    l1d_misses: u64,
    llc_misses: u64,
    pages_faulted: u64,
    events: u64,
    accesses: u64,
}

impl Counts {
    fn add_record(&mut self, r: &RunRecord) {
        use atscale::cache::HitLevel;
        let c = &r.result.counters;
        self.walks_initiated += c.walks_initiated();
        self.stlb_misses += c.stlb_miss_loads + c.stlb_miss_stores;
        self.pt_accesses += c.pt_accesses;
        self.walk_cycles += c.walk_duration_cycles;
        let data = &r.result.hierarchy.data;
        self.l1d_misses += data.total() - data.at(HitLevel::L1);
        self.llc_misses += data.at(HitLevel::Memory);
    }
}

/// Follows one spec through every layer, each call in its own span:
/// model build, machine construction, address-space set-up, the drive
/// (what `execute_run` does, timed piecewise), generation into a counting
/// sink, and replay of a trace recorded (untimed) through a real machine
/// into a fresh, set-up machine. Returns the driven record, or what broke.
fn traced_spec<A: TranslationArchitecture>(
    spec: &RunSpec,
    config: &MachineConfig,
    tracer: &mut Tracer,
    id: u64,
    counts: &mut Counts,
) -> Result<RunRecord, String> {
    let policy = BackingPolicy::uniform(spec.page_size);
    let build = || spec.workload.build_model(spec.nominal_footprint, spec.seed);
    let root = tracer.open("spec", id, None);
    let mut model = tracer.time("workloads.build", id, Some(root), build);
    let mut machine = tracer.time("mmu.new", id, Some(root), || {
        ArchMachine::<A>::new(*config, policy, model.profile())
    });
    tracer
        .time("vm.setup", id, Some(root), || {
            model.setup(machine.space_mut())
        })
        .map_err(|e| format!("setup: {e}"))?;
    counts.pages_faulted += machine.space().stats().minor_faults;
    machine.set_limits(spec.warmup_instr, spec.budget_instr);
    // As in `execute_run`, the drive ends with the machine finished and
    // the model dropped.
    let result = tracer.time("drive", id, Some(root), move || {
        model.run(&mut machine);
        let result = machine.finish();
        drop(model);
        result
    });
    tracer.close(root);
    let driven = RunRecord {
        spec: *spec,
        result,
    };

    // Generation alone, into a sink that stops at the same budget.
    let mut model = build();
    let mut space = AddressSpace::new(policy);
    model
        .setup(&mut space)
        .map_err(|e| format!("gen setup: {e}"))?;
    let mut sink = CountingSink::with_budget(spec.warmup_instr + spec.budget_instr);
    tracer.time("workloads.gen", id, None, || model.run(&mut sink));

    // Record the stream through a real machine (untimed).
    let mut model = build();
    let mut recorder_machine = ArchMachine::<A>::new(*config, policy, model.profile());
    model
        .setup(recorder_machine.space_mut())
        .map_err(|e| format!("record setup: {e}"))?;
    recorder_machine.set_limits(spec.warmup_instr, spec.budget_instr);
    let trace = {
        let mut rec = RecordingSink::new(&mut recorder_machine);
        model.run(&mut rec);
        rec.into_trace()
    };
    drop(recorder_machine);

    // Replay the whole trace: no budget, so the machine takes every
    // event the drive took, overshoot included.
    let mut model = build();
    let mut machine = ArchMachine::<A>::new(*config, policy, model.profile());
    model
        .setup(machine.space_mut())
        .map_err(|e| format!("replay setup: {e}"))?;
    machine.set_limits(spec.warmup_instr, 0);
    let delivered = tracer.time("mmu.replay", id, None, || trace.replay(&mut machine));
    let replayed = machine.finish();
    if delivered != trace.len() {
        return Err(format!("replay stopped at {delivered} of {}", trace.len()));
    }
    if replayed.counters != driven.result.counters {
        return Err("replayed counters differ from the drive's".to_string());
    }
    counts.events += trace.len() as u64;
    counts.accesses += trace
        .events()
        .iter()
        .filter(|e| !matches!(e, TraceEvent::Instructions(_)))
        .count() as u64;
    counts.add_record(&driven);
    Ok(driven)
}

pub fn traced_dispatch(
    spec: &RunSpec,
    config: &MachineConfig,
    tracer: &mut Tracer,
    id: u64,
    counts: &mut Counts,
) -> Result<RunRecord, String> {
    catch_unwind(AssertUnwindSafe(|| match spec.arch {
        ArchKind::Baseline => traced_spec::<BaselineArch>(spec, config, tracer, id, counts),
        ArchKind::Victima => traced_spec::<VictimaArch>(spec, config, tracer, id, counts),
        ArchKind::DramCache => traced_spec::<DramCacheArch>(spec, config, tracer, id, counts),
        ArchKind::NoTlb => traced_spec::<NoTlbArch>(spec, config, tracer, id, counts),
    }))
    .unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Runs `spec` both ways: `execute_run` as one call (span `run.execute`)
/// and piecewise through every layer ([`traced_dispatch`]). Which goes
/// first alternates with `id`, so neither always inherits memory the other
/// just faulted in. `Ok(None)` means the simulator cannot run the spec (a
/// failed operation); `Err` means the two paths disagree.
pub fn execute_both(
    spec: &RunSpec,
    config: &MachineConfig,
    tracer: &mut Tracer,
    id: u64,
    counts: &mut Counts,
) -> Result<Option<RunRecord>, String> {
    let serial_first = id.is_multiple_of(2);
    let mut serial = None;
    let mut traced = None;
    for step in 0..2 {
        if (step == 0) == serial_first {
            serial = tracer.time("run.execute", id, None, || try_execute(spec, config));
        } else {
            traced = Some(traced_dispatch(spec, config, tracer, id, counts));
        }
    }
    match (serial, traced.expect("both paths ran")) {
        (None, _) => Ok(None),
        (Some(s), Ok(t)) if protocol::encode(&s) == protocol::encode(&t) => Ok(Some(s)),
        (Some(_), Ok(_)) => Err("piecewise record differs from execute_run's".to_string()),
        (Some(_), Err(e)) => Err(e),
    }
}

/// `execute_run`, with a panic turned into `None`.
pub fn try_execute(spec: &RunSpec, config: &MachineConfig) -> Option<RunRecord> {
    catch_unwind(|| execute_run(spec, config)).ok()
}

/// Executes every spec in-process through `run_many` on `threads`
/// threads. If a spec panics, the list is re-run one spec at a time so
/// that only the panicking specs come back `None`.
pub fn execute_all(specs: &[RunSpec], threads: usize) -> Vec<Option<RunRecord>> {
    let harness = Harness::new().with_threads(threads);
    match catch_unwind(AssertUnwindSafe(|| harness.run_many(specs))) {
        Ok(records) => records.into_iter().map(Some).collect(),
        Err(_) => {
            let config = MachineConfig::haswell();
            specs.iter().map(|s| try_execute(s, &config)).collect()
        }
    }
}

/// The reply leg of a served record: encode its `Record` frame, decode it
/// as a client would. Returns 1 if the record does not survive the trip.
pub fn reply_round_trip(record: &RunRecord, id: u64, tracer: &mut Tracer) -> u64 {
    let frame = Reply::Record(RecordDone {
        id,
        index: 0,
        cached: false,
        deduped: false,
        source: "sim".to_string(),
        arch: record.spec.arch.to_string(),
        record: record.clone(),
    });
    let line = tracer.time("protocol.encode", id, None, || protocol::encode(&frame));
    match tracer.time("protocol.decode", id, None, || {
        protocol::decode::<Reply>(&line)
    }) {
        Ok(Reply::Record(done)) if protocol::encode(&done.record) == protocol::encode(record) => 0,
        _ => 1,
    }
}

/// Times the results store and the wire codec on a set of records, as a
/// served sweep would use them: save, load and one query per workload on a
/// fresh segmented store; encode and decode of each record's reply frame.
/// Returns the number of mismatches found.
pub fn trace_store_and_codec(
    records: &[(u64, RunRecord)],
    store: &RunStore,
    config: &MachineConfig,
    tracer: &mut Tracer,
) -> u64 {
    let mut bad = 0;
    let mut workloads = BTreeMap::new();
    for (id, record) in records {
        let key = RunStore::key(&record.spec, config);
        if tracer
            .time("store.save", *id, None, || store.save(&key, record))
            .is_err()
        {
            bad += 1;
        }
        let loaded = tracer.time("store.load", *id, None, || store.load(&key));
        if loaded.map(|r| protocol::encode(&r)) != Some(protocol::encode(record)) {
            bad += 1;
        }
        workloads.insert(record.spec.workload.to_string(), *id);
        bad += reply_round_trip(record, *id, tracer);
    }
    for (workload, id) in workloads {
        let filter = QueryFilter {
            workload: Some(workload),
            ..QueryFilter::default()
        };
        let answer = tracer.time("store.query", id, None, || store.query(&filter));
        if answer.is_none_or(|a| a.groups.is_empty()) {
            bad += 1;
        }
    }
    bad
}

/// What the serve workload's open-loop load generator saw, for the
/// per-layer list.
#[derive(Default)]
pub struct LoadStats {
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub write_p50_ms: f64,
    pub write_p95_ms: f64,
    pub query_p50_ms: f64,
    pub lag_p99_ms: f64,
    pub slo_miss_share: f64,
    pub reads: u64,
    pub writes: u64,
    pub queries: u64,
}

/// Everything a traced run measured. Layers a workload bypasses keep
/// their zero defaults.
pub struct LayerReport<'a> {
    pub tracer: &'a Tracer,
    pub counts: &'a Counts,
    /// `experiment.serial_s / (threads * run_many wall)`; zero where no
    /// `run_many` runs.
    pub parallel_efficiency: f64,
    pub cache_hit_ratio: f64,
    pub executions: u64,
    /// VmHWM of the process that did the work: the benchmark process for
    /// sims, the daemon for serve.
    pub peak_rss_mb: f64,
    pub load: LoadStats,
}

impl LayerReport<'_> {
    /// Pushes every per-layer metric, in the order `BENCHMARK.json` lists
    /// them.
    pub fn push(&self, out: &mut Outcome) {
        let t = self.tracer;
        let c = self.counts;
        let per = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
        out.push("workloads.build_s", t.total_s("workloads.build"), "s");
        out.push("workloads.gen_s", t.total_s("workloads.gen"), "s");
        out.push(
            "workloads.gen_ns_per_event",
            per(t.total_s("workloads.gen"), c.events),
            "ns",
        );
        out.push("vm.setup_s", t.total_s("vm.setup"), "s");
        out.push("vm.pages_faulted", c.pages_faulted as f64, "count");
        out.push(
            "vm.setup_ns_per_page",
            per(t.total_s("vm.setup"), c.pages_faulted),
            "ns",
        );
        out.push("mmu.new_s", t.total_s("mmu.new"), "s");
        out.push("mmu.replay_s", t.total_s("mmu.replay"), "s");
        out.push(
            "mmu.ns_per_access",
            per(t.total_s("mmu.replay"), c.accesses),
            "ns",
        );
        out.push("mmu.walks_initiated", c.walks_initiated as f64, "count");
        out.push("mmu.stlb_misses", c.stlb_misses as f64, "count");
        out.push("mmu.pt_accesses", c.pt_accesses as f64, "count");
        out.push("mmu.walk_cycles", c.walk_cycles as f64, "count");
        out.push("cache.l1d_misses", c.l1d_misses as f64, "count");
        out.push("cache.llc_misses", c.llc_misses as f64, "count");
        let serial_s = t.total_s("run.execute");
        out.push("run.drive_s", t.total_s("drive"), "s");
        out.push("experiment.serial_s", serial_s, "s");
        out.push(
            "experiment.run_many_s",
            t.total_s("experiment.run_many"),
            "s",
        );
        out.push(
            "experiment.parallel_efficiency",
            self.parallel_efficiency,
            "ratio",
        );
        out.push("run.execute_ms", t.mean_s("run.execute") * 1e3, "ms");
        out.push("store.load_us", t.mean_s("store.load") * 1e6, "us");
        out.push("store.save_ms", t.mean_s("store.save") * 1e3, "ms");
        out.push("store.query_ms", t.mean_s("store.query") * 1e3, "ms");
        out.push(
            "protocol.decode_us",
            t.mean_s("protocol.decode") * 1e6,
            "us",
        );
        out.push(
            "protocol.encode_us",
            t.mean_s("protocol.encode") * 1e6,
            "us",
        );
        out.push("server.cache_hit_ratio", self.cache_hit_ratio, "ratio");
        out.push("server.executions", self.executions as f64, "count");
        let d = &self.load;
        out.push("loadgen.read_p50_ms", d.read_p50_ms, "ms");
        out.push("loadgen.read_p99_ms", d.read_p99_ms, "ms");
        out.push("loadgen.write_p50_ms", d.write_p50_ms, "ms");
        out.push("loadgen.write_p95_ms", d.write_p95_ms, "ms");
        out.push("loadgen.query_p50_ms", d.query_p50_ms, "ms");
        out.push("loadgen.lag_p99_ms", d.lag_p99_ms, "ms");
        out.push("loadgen.slo_miss_share", d.slo_miss_share, "ratio");
        out.push("loadgen.reads", d.reads as f64, "count");
        out.push("loadgen.writes", d.writes as f64, "count");
        out.push("loadgen.queries", d.queries as f64, "count");
        out.push("bench.peak_rss_mb", self.peak_rss_mb, "MB");
        // How far the piecewise layer calls drift from the serial
        // `execute_run` calls they re-enact.
        let layered_s = t.total_s("workloads.build")
            + t.total_s("mmu.new")
            + t.total_s("vm.setup")
            + t.total_s("drive");
        out.push(
            "bench.trace_overhead_share",
            (layered_s - serial_s) / serial_s,
            "ratio",
        );
    }
}
