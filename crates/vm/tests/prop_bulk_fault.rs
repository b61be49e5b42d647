//! Bulk pre-faulting against the per-page oracle.
//!
//! `AddressSpace::fault_range` maps whole 4 KiB leaf nodes at a time and
//! stores them in closed form; in reference mode it faults one page at a
//! time through `touch_uncached`. These properties build the same random
//! layout in two fresh spaces, pre-fault one each way, and require every
//! observable to agree: the walk and probe of every page and every guard
//! page, `stats()`, and the frame allocator's high-water mark.

use atscale_vm::{AddressSpace, BackingPolicy, CheckInvariants, PageSize, Segment, VirtAddr};
use proptest::prelude::*;

/// One segment: a size selector, a partial-range selector (used when a
/// multiple of 4) and a pre-touched page selector (used when a multiple of
/// 3).
type SegPlan = (u64, u64, u64);

/// The six policies: 4K/2M/1G, strict and graceful fallback.
fn policy(idx: usize) -> BackingPolicy {
    let size = PageSize::ALL[idx % 3];
    if idx < 3 {
        BackingPolicy::uniform(size)
    } else {
        BackingPolicy::uniform_graceful(size)
    }
}

/// Segment bytes for a selector. Small sizes put several adjacent segments
/// in one PT node; medium ones cover whole leaf nodes with ragged ends; the
/// large class (1 GiB policies only) holds one 1 GiB page plus a tail.
fn segment_bytes(sel: u64, requested: PageSize) -> u64 {
    match sel % 5 {
        0 | 1 => 1 + (sel >> 3) % (300 << 12),
        2 | 3 => 1 + (sel >> 3) % (14 << 20),
        _ if requested == PageSize::Size1G => (1 << 30) + (sel >> 3) % (6 << 20),
        _ => 1 + (sel >> 3) % (24 << 20),
    }
}

/// Lays out `plan` in `space` and pre-faults it in the order given by
/// `order` (0: allocation order; 1: the last segment first, as the graph
/// models fault their hot stack first; 2: reversed). A segment with a
/// partial selector first faults a sub-range, and one with a touch
/// selector has one page demand-faulted before any pre-fault.
fn build(space: &mut AddressSpace, plan: &[SegPlan], order: usize) -> Vec<Segment> {
    let requested = space.policy().requested();
    let segs: Vec<Segment> = plan
        .iter()
        .enumerate()
        .map(|(i, &(sel, _, _))| {
            space
                .alloc_heap(&format!("s{i}"), segment_bytes(sel, requested))
                .unwrap()
        })
        .collect();
    for (seg, &(_, _, touch)) in segs.iter().zip(plan) {
        if touch % 3 == 0 {
            let off = (touch % seg.len()) & !7;
            space.touch_uncached(seg.base().add(off)).unwrap();
        }
    }
    let mut idx: Vec<usize> = (0..segs.len()).collect();
    match order {
        1 => idx.rotate_right(1),
        2 => idx.reverse(),
        _ => {}
    }
    for i in idx {
        let (seg, (_, partial, _)) = (&segs[i], plan[i]);
        if partial % 4 == 0 {
            let off = (partial >> 2) % seg.len();
            let len = (partial >> 32) % (seg.len() - off) + 1;
            space.fault_range(seg.base().add(off), len).unwrap();
        }
        space.fault_range(seg.base(), seg.len()).unwrap();
    }
    segs
}

fn plans() -> impl Strategy<Value = Vec<SegPlan>> {
    prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1..7)
}

proptest! {
    /// Bulk and per-page pre-faulting are indistinguishable: every page
    /// and guard page walks and probes the same, and the spaces' stats and
    /// physical high-water marks match.
    #[test]
    fn bulk_fault_matches_per_page_oracle(
        plan in plans(),
        policy_idx in 0usize..6,
        order in 0usize..3,
    ) {
        let mut bulk = AddressSpace::new(policy(policy_idx));
        let mut oracle = AddressSpace::new(policy(policy_idx));
        oracle.set_reference_mode(true);
        let segs = build(&mut bulk, &plan, order);
        build(&mut oracle, &plan, order);

        for seg in &segs {
            let mut va = seg.base();
            while va < seg.end() {
                let path = oracle.walk(va);
                prop_assert!(path.is_some(), "oracle left {va} unmapped");
                let size = path.map_or(PageSize::Size4K, |p| p.page_size);
                for probe in [va, va.add(size.bytes() - 8)] {
                    prop_assert_eq!(bulk.walk(probe), oracle.walk(probe), "walk of {}", probe);
                    prop_assert_eq!(bulk.probe_walk(probe), oracle.probe_walk(probe));
                }
                va = va.add(size.bytes());
            }
            for guard in [seg.end(), seg.end().add(4095), seg.end().add(4096)] {
                prop_assert_eq!(bulk.probe_walk(guard), oracle.probe_walk(guard), "guard {}", guard);
            }
        }
        prop_assert_eq!(bulk.stats(), oracle.stats());
        prop_assert_eq!(bulk.frames().high_water_mark(), oracle.frames().high_water_mark());
        prop_assert_eq!(oracle.table().implicit_leaves(), 0);
        bulk.check_invariants();
        oracle.check_invariants();
    }
}

/// A range running past its segment faults everything up to the segment's
/// end, then reports the first address outside it — in both modes.
#[test]
fn overrunning_range_faults_its_segment_then_errors() {
    for reference in [false, true] {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        space.set_reference_mode(reference);
        let seg = space.alloc_heap("a", 3 << 20).unwrap();
        let err = space.fault_range(seg.base(), seg.len() + 4096).unwrap_err();
        assert_eq!(err, atscale_vm::VmError::Unmapped(seg.end()));
        assert_eq!(space.stats().minor_faults, (3 << 20) / 4096);
        let outside = space.fault_range(VirtAddr::new(0x1000), 8).unwrap_err();
        assert_eq!(
            outside,
            atscale_vm::VmError::Unmapped(VirtAddr::new(0x1000))
        );
    }
}

/// Set-up storage is flat in footprint: pre-faulting one 512 GiB 4K segment
/// leaves one descriptor per leaf node and only the interior nodes (root,
/// PDPT, 512 PDs) in the arena — the 128 Mi pages cost no per-page memory.
#[test]
fn half_terabyte_prefault_stores_one_descriptor_per_leaf() {
    let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
    let bytes = 512u64 << 30;
    let seg = space.alloc_heap("huge", bytes).unwrap();
    space.fault_range(seg.base(), seg.len()).unwrap();
    let table = space.table();
    assert_eq!(table.implicit_leaves() as u64, bytes >> 21);
    assert!(
        table.explicit_nodes() <= 600,
        "{} explicit nodes for one contiguous segment",
        table.explicit_nodes()
    );
    let stats = space.stats();
    assert_eq!(stats.minor_faults, bytes >> 12);
    assert_eq!(stats.table.pages_by_size[0], bytes >> 12);
    assert_eq!(
        stats.table.total_nodes(),
        (table.explicit_nodes() + table.implicit_leaves()) as u64
    );
    let last = seg.end().as_u64() - 8;
    let path = space.walk(VirtAddr::new(last)).expect("last page mapped");
    assert_eq!(path.steps().len(), 4);
    space.check_invariants();
}
