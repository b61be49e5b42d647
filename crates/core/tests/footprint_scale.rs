//! Set-up cost follows leaf nodes, not pages: a 512 GB single-point run.
//!
//! Pre-faulting 512 GB of 4 KB pages is 2^27 faults page by page; with
//! implicit leaf nodes it is 2^18 closed-form descriptors and a few hundred
//! interior nodes, so the whole run takes well under a second in a release
//! build. CI also runs this file in release under a 60 s timeout.

use atscale::{execute_run, ArchKind, RunSpec};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;

#[test]
fn half_terabyte_single_point_run() {
    let footprint = 512u64 << 30;
    let spec = RunSpec {
        workload: WorkloadId::parse("cc-urand").unwrap(),
        nominal_footprint: footprint,
        page_size: PageSize::Size4K,
        seed: 1,
        warmup_instr: 1_000,
        budget_instr: 20_000,
        arch: ArchKind::Baseline,
    };
    let record = execute_run(&spec, &atscale_mmu::MachineConfig::haswell());
    let counters = record.result.counters;
    assert!(counters.inst_retired >= 20_000);
    assert!(
        counters.minor_faults >= footprint >> 12,
        "set-up faulted {} pages of a {footprint}-byte instance",
        counters.minor_faults
    );
    assert!(
        counters.stlb_miss_loads > 0,
        "a 512 GB random walk misses the STLB"
    );
}
