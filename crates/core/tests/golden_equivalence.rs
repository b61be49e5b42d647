//! Golden equivalence: the optimised hot path must be *bit-for-bit*
//! indistinguishable from the reference pipeline.
//!
//! The serve daemon's single-flight dedup and the run-cache layer both key
//! on serialized [`RunRecord`]s, so the PR-4 hot-path restructuring
//! (batched sink API, TLB frame payloads, adaptive translation memo,
//! page-table chain memo, zeta memoisation) is only admissible if it
//! changes *nothing* observable. These tests run every workload through
//! both pipelines and compare the serialized bytes — not approximate
//! equality, not counter-by-counter: bytes.

use atscale::{execute_run, execute_run_reference, Harness, RunSpec, SweepConfig};
use atscale_mmu::{BatchSink, Machine};
use atscale_vm::{BackingPolicy, PageSize};
use atscale_workloads::WorkloadId;

fn record_bytes(record: &atscale::RunRecord) -> Vec<u8> {
    serde_json::to_vec(record).expect("RunRecord serializes")
}

/// Every workload, every sweep footprint: the batched fast path and the
/// force-slow reference pipeline produce byte-identical records.
#[test]
fn fast_path_matches_reference_for_every_workload() {
    let sweep = SweepConfig::test();
    let config = atscale_mmu::MachineConfig::haswell();
    for workload in WorkloadId::all() {
        for footprint in sweep.footprints() {
            let spec = sweep.spec(workload, footprint);
            let fast = record_bytes(&execute_run(&spec, &config));
            let reference = record_bytes(&execute_run_reference(&spec, &config));
            assert_eq!(
                fast, reference,
                "pipelines diverged for {workload} at {footprint} bytes"
            );
        }
    }
}

/// The equivalence must hold for superpage-backed runs too — they exercise
/// the 2 MB L1 TLB, the size-tagged L2 entries and the shorter walk paths.
#[test]
fn fast_path_matches_reference_across_page_sizes() {
    let sweep = SweepConfig::test();
    let config = atscale_mmu::MachineConfig::haswell();
    for page_size in [PageSize::Size2M, PageSize::Size1G] {
        for workload in [
            WorkloadId::parse("cc-urand").unwrap(),
            WorkloadId::parse("streamcluster-rand").unwrap(),
        ] {
            let spec = sweep.spec(workload, 64 << 20).with_page_size(page_size);
            let fast = record_bytes(&execute_run(&spec, &config));
            let reference = record_bytes(&execute_run_reference(&spec, &config));
            assert_eq!(
                fast, reference,
                "pipelines diverged for {workload} at {page_size}"
            );
        }
    }
}

/// Driving the machine through the [`BatchSink`] buffering adaptor — the
/// chunking path per-item kernels can opt into — must also leave the record
/// bytes unchanged: buffered delivery preserves event order and the stop
/// position exactly.
#[test]
fn batch_sink_drive_matches_direct_drive() {
    let sweep = SweepConfig::test();
    let config = atscale_mmu::MachineConfig::haswell();
    for workload in [
        WorkloadId::parse("pr-urand").unwrap(),
        WorkloadId::parse("mcf-rand").unwrap(),
    ] {
        let spec = sweep.spec(workload, 32 << 20);
        let direct = record_bytes(&execute_run(&spec, &config));

        // execute_run, inlined, with the drive going through a BatchSink.
        let mut model = spec.workload.build_model(spec.nominal_footprint, spec.seed);
        let mut machine = Machine::new(
            config,
            BackingPolicy::uniform(spec.page_size),
            model.profile(),
        );
        model
            .setup(machine.space_mut())
            .expect("setup fits the simulated heap");
        machine.set_limits(spec.warmup_instr, spec.budget_instr);
        {
            let mut sink = BatchSink::new(&mut machine);
            model.run(&mut sink);
        } // drop flushes the tail
        let result = machine.finish();
        let batched = record_bytes(&atscale::RunRecord { spec, result });

        assert_eq!(direct, batched, "BatchSink drive diverged for {workload}");
    }
}

/// `run_many` returns byte-identical records whether the specs are executed
/// on one worker thread or several: per-slot result publication and
/// work-stealing order must not leak into the records.
#[test]
fn run_many_is_thread_count_invariant() {
    let sweep = SweepConfig::test();
    let specs: Vec<RunSpec> = WorkloadId::all()
        .into_iter()
        .take(6)
        .map(|w| sweep.spec(w, 32 << 20))
        .collect();
    let single: Vec<Vec<u8>> = Harness::new()
        .with_threads(1)
        .run_many(&specs)
        .iter()
        .map(record_bytes)
        .collect();
    let parallel: Vec<Vec<u8>> = Harness::new()
        .with_threads(4)
        .run_many(&specs)
        .iter()
        .map(record_bytes)
        .collect();
    assert_eq!(single, parallel);
}

/// Set-up itself, compared below the record level: every workload's bulk
/// pre-fault (implicit leaf nodes included) leaves the same address space
/// as the reference pipeline's page-by-page `touch_uncached` loop — the
/// same walk path for every page of every segment, the same stats, the
/// same physical high-water mark.
#[test]
fn bulk_setup_matches_per_page_setup_for_every_workload() {
    let sweep = SweepConfig::test();
    let footprint = *sweep.footprints().last().expect("sweep has points");
    for workload in WorkloadId::all() {
        for page_size in PageSize::ALL {
            let spec = sweep.spec(workload, footprint);
            let space = |reference: bool| {
                let mut model = spec.workload.build_model(spec.nominal_footprint, spec.seed);
                let mut space = atscale_vm::AddressSpace::new(BackingPolicy::uniform(page_size));
                space.set_reference_mode(reference);
                model
                    .setup(&mut space)
                    .expect("setup fits the simulated heap");
                space
            };
            let (bulk, per_page) = (space(false), space(true));
            assert!(
                page_size != PageSize::Size4K || bulk.table().implicit_leaves() > 0,
                "{workload} at 4K pre-faulted no whole leaf node"
            );
            assert_eq!(bulk.stats(), per_page.stats(), "{workload} {page_size}");
            assert_eq!(
                bulk.frames().high_water_mark(),
                per_page.frames().high_water_mark(),
                "{workload} {page_size}"
            );
            for seg in per_page.segments() {
                let mut va = seg.base();
                while va < seg.end() {
                    let path = per_page.walk(va).expect("set-up maps every page");
                    assert_eq!(bulk.walk(va), Some(path), "{workload} {page_size} {va}");
                    va = va.page_base(path.page_size).add(path.page_size.bytes());
                }
            }
        }
    }
}
