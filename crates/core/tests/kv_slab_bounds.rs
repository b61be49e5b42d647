//! memcached-uniform stays inside its item slab.
//!
//! The KV model reads or writes eight value lines up to 960 bytes past a
//! random item address. Drawn near the end of the slab, those lines used
//! to run into the guard page and abort the run with "not in any segment"
//! (11 of the 600 specs `SweepConfig::test` derives for sweep seeds
//! 0–199). The value addresses now go through `Region::at`, which returns
//! the same address for every in-range offset, so only those aborted runs
//! change.

use atscale::{execute_run, execute_run_reference, SweepConfig};
use atscale_workloads::WorkloadId;

fn spec(seed: u64, footprint: u64) -> atscale::RunSpec {
    let sweep = SweepConfig {
        seed,
        ..SweepConfig::test()
    };
    assert!(
        sweep.footprints().contains(&footprint),
        "{footprint} is not a test-sweep footprint"
    );
    sweep.spec(WorkloadId::parse("memcached-uniform").unwrap(), footprint)
}

/// FNV-1a over a record's JSON bytes.
fn digest(record: &atscale::RunRecord) -> u64 {
    serde_json::to_vec(record)
        .expect("RunRecord serializes")
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Every (sweep seed, footprint) that used to abort now runs, and the fast
/// pipeline still matches the reference one on it.
#[test]
fn specs_that_overran_the_slab_now_run() {
    let config = atscale_mmu::MachineConfig::haswell();
    let overran = [
        (0, 16_777_216),
        (14, 16_777_216),
        (15, 47_453_133),
        (44, 16_777_216),
        (45, 16_777_216),
        (64, 16_777_216),
        (92, 16_777_216),
        (95, 16_777_216),
        (99, 47_453_133),
        (107, 16_777_216),
        (150, 16_777_216),
    ];
    for (seed, footprint) in overran {
        let spec = spec(seed, footprint);
        let fast = execute_run(&spec, &config);
        assert_eq!(
            digest(&fast),
            digest(&execute_run_reference(&spec, &config)),
            "pipelines diverged for sweep seed {seed} at {footprint} bytes"
        );
    }
}

/// Specs that never left the slab give the records they gave before the
/// clamp (digests taken from the unclamped model).
#[test]
fn specs_inside_the_slab_keep_their_records() {
    let config = atscale_mmu::MachineConfig::haswell();
    let unchanged = [
        (1, 16_777_216, 0x0b88_ed8c_9e69_b29c),
        (2, 47_453_133, 0xd13c_91e9_ac7f_779d),
        (3, 134_217_728, 0x91f8_acc2_9d05_3456),
        (13, 16_777_216, 0x628b_938c_ced0_1660),
        (16, 47_453_133, 0x6628_f2f5_c60d_0837),
        (43, 134_217_728, 0x00bb_6559_8798_d849),
        (98, 16_777_216, 0xe6e7_cd6e_32b8_2801),
        (151, 47_453_133, 0x4a8b_090c_9fba_bc1b),
    ];
    for (seed, footprint, expected) in unchanged {
        let record = execute_run(&spec(seed, footprint), &config);
        assert_eq!(
            digest(&record),
            expected,
            "record changed for sweep seed {seed} at {footprint} bytes"
        );
    }
}
