//! The simulated address space: segments + page table + demand paging.

use crate::layout::HeapLayout;
use crate::{
    BackingPolicy, CheckInvariants, FrameAllocator, PageSize, PageTable, PageTableStats, PhysAddr,
    ProbeResult, Segment, SegmentId, VirtAddr, VmError, WalkPath,
};

/// A successful virtual-to-physical translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated physical address (page frame + offset).
    pub paddr: PhysAddr,
    /// Size of the mapping's page.
    pub page_size: PageSize,
}

/// Result of [`AddressSpace::touch`]: the walk path for the address, plus
/// whether this touch demand-mapped the page (a minor fault).
#[derive(Debug, Clone, Copy)]
pub struct TouchOutcome {
    /// Root-to-leaf walk path for the containing page.
    pub path: WalkPath,
    /// Size of the page backing the address.
    pub page_size: PageSize,
    /// `true` if this call created the mapping (first touch).
    pub minor_fault: bool,
}

/// Aggregate statistics about an [`AddressSpace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SpaceStats {
    /// Demand-paging faults taken so far (first touches).
    pub minor_faults: u64,
    /// Faults whose backing fell back below the requested page size.
    pub fallback_faults: u64,
    /// Page-table occupancy.
    pub table: PageTableStats,
    /// Bytes of simulated physical memory backing data pages.
    pub data_bytes: u64,
    /// Bytes of simulated physical memory backing page-table nodes.
    pub table_bytes: u64,
    /// Number of allocated segments.
    pub segments: usize,
    /// Total virtual bytes reserved by segments.
    pub virtual_bytes: u64,
}

impl SpaceStats {
    /// Resident-set-size analogue: data + page-table bytes actually backed.
    ///
    /// This is the "memory footprint" quantity the paper plots sweeps
    /// against (measured in the 4 KB configuration).
    pub fn footprint_bytes(&self) -> u64 {
        self.data_bytes + self.table_bytes
    }
}

/// A simulated process address space.
///
/// Combines a [`HeapLayout`] (virtual allocation), a [`BackingPolicy`]
/// (page-size selection, paper §III-A/B), a [`PageTable`] and a
/// [`FrameAllocator`]. Pages are mapped on first touch, counting minor
/// faults, so arbitrarily large virtual allocations cost nothing until used.
///
/// # Example
///
/// ```
/// use atscale_vm::{AddressSpace, BackingPolicy, PageSize};
///
/// # fn main() -> Result<(), atscale_vm::VmError> {
/// let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size2M));
/// let seg = space.alloc_heap("edges", 64 << 20)?;
/// let first = space.touch(seg.base())?;
/// assert!(first.minor_fault);
/// assert_eq!(first.page_size, PageSize::Size2M);
/// let again = space.touch(seg.base().add(1024))?;
/// assert!(!again.minor_fault, "same 2 MiB page already mapped");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    policy: BackingPolicy,
    heap: HeapLayout,
    segments: Vec<Segment>,
    table: PageTable,
    frames: FrameAllocator,
    minor_faults: u64,
    fallback_faults: u64,
    /// Direct-mapped translation memo: slot `(va >> 12) % MEMO_SLOTS` caches
    /// the full walk path keyed by the 4 KiB-page number. Mappings are
    /// immutable once created (this space never unmaps), so a memo entry can
    /// never go stale; a conflicting page number simply overwrites the slot.
    memo: Vec<Option<(u64, WalkPath)>>,
    /// Probes observed in the current adaptive-memo window.
    memo_probes: u32,
    /// Hits observed in the current adaptive-memo window.
    memo_hits: u32,
    /// Whether [`touch`](Self::touch) still consults the memo. The memo pays
    /// for itself only while the touched working set fits its reach: a hit
    /// saves a radix walk, but a miss costs a probe plus an entry write.
    /// Once a full window's hit rate drops below [`MEMO_KEEP_HITS`] /
    /// [`MEMO_WINDOW`], the memo switches itself off for the rest of the
    /// space's life. The decision is a pure function of the touch sequence,
    /// so runs stay deterministic, and the memo never affects results either
    /// way — only how they are computed.
    memo_enabled: bool,
    /// Force-slow reference mode: [`fault_range`](Self::fault_range) faults
    /// page by page through [`touch_uncached`](Self::touch_uncached)
    /// instead of in bulk.
    reference_mode: bool,
}

/// Translation-memo slots. Power of two so the slot index is a mask; sized
/// to cover a 32 MiB resident set of 4 KiB pages without conflict misses.
const MEMO_SLOTS: usize = 8192;

/// Touches per adaptive-memo observation window.
const MEMO_WINDOW: u32 = 1 << 16;

/// Hits a window must produce for the memo to stay enabled (25% — below
/// that, probe-and-write overhead on the misses outweighs the walks the
/// hits save; measured on the 256 MB+ footprints of the quick sweep, where
/// the memo's 32 MiB reach covers almost nothing of the working set).
const MEMO_KEEP_HITS: u32 = MEMO_WINDOW / 4;

impl AddressSpace {
    /// Creates an empty address space with the given backing policy.
    pub fn new(policy: BackingPolicy) -> Self {
        let mut frames = FrameAllocator::new();
        let table = PageTable::new(&mut frames);
        AddressSpace {
            policy,
            heap: HeapLayout::new(),
            segments: Vec::new(),
            table,
            frames,
            minor_faults: 0,
            fallback_faults: 0,
            memo: vec![None; MEMO_SLOTS],
            memo_probes: 0,
            memo_hits: 0,
            memo_enabled: true,
            reference_mode: false,
        }
    }

    /// Switches [`fault_range`](Self::fault_range) onto the per-page
    /// reference loop (a [`touch_uncached`](Self::touch_uncached) per
    /// page). Both produce the same frames, page-table nodes, walk paths
    /// and [`SpaceStats`]; the simulator's force-slow reference pipeline
    /// turns this on so the golden tests can hold the bulk path to it.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
    }

    /// The policy this space was created with.
    pub fn policy(&self) -> BackingPolicy {
        self.policy
    }

    /// Allocates a named heap segment of `bytes` bytes and returns a copy of
    /// its descriptor. Nothing is mapped until touched.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] from the heap allocator (zero-sized or
    /// exhausted).
    pub fn alloc_heap(&mut self, name: &str, bytes: u64) -> Result<Segment, VmError> {
        let base = self.heap.alloc(bytes, self.policy.requested())?;
        let id = SegmentId::new(self.segments.len() as u32);
        let len = (bytes + 4095) & !4095;
        let seg = Segment::new(id, name, base, len, self.policy.requested());
        self.segments.push(seg.clone());
        Ok(seg)
    }

    /// Ensures the page containing `va` is mapped (demand paging) and
    /// returns its walk path.
    ///
    /// Warm translations are answered from a direct-mapped memo instead of
    /// re-walking the radix tree; because a walk of a mapped page is a pure
    /// read and mappings are immutable, the memoised answer is always
    /// exactly what the walk would return. The memo is *adaptive*: once an
    /// observation window shows its hit rate has collapsed (a working set
    /// far beyond the memo's 32 MiB reach), it switches itself off and
    /// `touch` degenerates to the direct walk — paying a probe and an entry
    /// write per touch is a measured net loss on large-footprint sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unmapped`] if `va` is outside every segment —
    /// the simulated equivalent of a segmentation fault.
    #[inline]
    pub fn touch(&mut self, va: VirtAddr) -> Result<TouchOutcome, VmError> {
        // One predictable branch and nothing else on the self-disabled
        // path: once a streaming working set has switched the memo off,
        // `touch` must cost exactly a direct walk — the memo machinery
        // (window bookkeeping, probe, slot write) lives outlined in
        // `touch_memoised` so it cannot weigh the fast path down.
        if self.memo_enabled {
            self.touch_memoised(va)
        } else {
            self.touch_uncached(va)
        }
    }

    /// The memoised arm of [`touch`](Self::touch): window accounting, the
    /// direct-mapped probe, and the fill on miss. Deliberately *not*
    /// inline — it only runs while the memo is paying for itself, and
    /// keeping it out of line keeps the disabled-path dispatcher tiny.
    fn touch_memoised(&mut self, va: VirtAddr) -> Result<TouchOutcome, VmError> {
        if self.memo_probes >= MEMO_WINDOW {
            self.memo_enabled = self.memo_hits >= MEMO_KEEP_HITS;
            self.memo_probes = 0;
            self.memo_hits = 0;
            if !self.memo_enabled {
                return self.touch_uncached(va);
            }
        }
        self.memo_probes += 1;
        let page = va.as_u64() >> 12;
        let slot = (page as usize) & (MEMO_SLOTS - 1);
        if let Some((key, path)) = self.memo[slot] {
            if key == page {
                self.memo_hits += 1;
                return Ok(TouchOutcome {
                    path,
                    page_size: path.page_size,
                    minor_fault: false,
                });
            }
        }
        let outcome = self.touch_uncached(va)?;
        self.memo[slot] = Some((page, outcome.path));
        Ok(outcome)
    }

    /// [`touch`](Self::touch) without the translation memo: always consults
    /// the page table directly. This is the reference implementation the
    /// memoised path must agree with; the simulator's force-slow reference
    /// mode uses it verbatim. Inline so the dispatcher's disabled arm
    /// collapses to the walk itself.
    #[inline]
    pub fn touch_uncached(&mut self, va: VirtAddr) -> Result<TouchOutcome, VmError> {
        if let Some(path) = self.table.walk(va) {
            return Ok(TouchOutcome {
                path,
                page_size: path.page_size,
                minor_fault: false,
            });
        }
        let seg = self.segment_containing(va).ok_or(VmError::Unmapped(va))?;
        let resolved = self.policy.resolve(seg, va);
        let frame = self.frames.alloc_page(resolved.size);
        // `map_with_path` hands back the walk path it just built, which is
        // identical to what a fresh `walk(va)` would produce (the path of a
        // page depends only on radix indices the whole page shares) — so the
        // confirmation re-walk is skipped.
        let (_created, path) = self.table.map_with_path(
            va.page_base(resolved.size),
            resolved.size,
            frame,
            &mut self.frames,
        );
        debug_assert_eq!(
            Some(path),
            self.table.walk(va),
            "map_with_path must return exactly what walk({va}) sees"
        );
        self.minor_faults += 1;
        if resolved.fell_back {
            self.fallback_faults += 1;
        }
        Ok(TouchOutcome {
            path,
            page_size: resolved.size,
            minor_fault: true,
        })
    }

    /// Faults in every page that overlaps `[start, start + len)` (the
    /// set-up phase's pre-fault), in ascending address order, skipping pages
    /// already mapped.
    ///
    /// The result — frames, page-table node addresses, walk paths, fault
    /// counts — is exactly that of touching one address in each page in
    /// turn, but a 4 KiB leaf node the range covers whole costs one
    /// `PageTable::map_full_leaf` instead of 512 faults. The translation
    /// memo is neither consulted nor filled.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unmapped`] for the first address of the range that
    /// lies outside the segment containing `start`, after faulting in every
    /// page before it — as the per-page loop would.
    pub fn fault_range(&mut self, start: VirtAddr, len: u64) -> Result<(), VmError> {
        let end = start.as_u64().saturating_add(len);
        let mut va = start;
        if self.reference_mode {
            while va.as_u64() < end {
                let size = self.touch_uncached(va)?.page_size;
                va = va.page_base(size).add(size.bytes());
            }
            return Ok(());
        }
        if len == 0 {
            return Ok(());
        }
        let seg = self
            .segment_containing(start)
            .ok_or(VmError::Unmapped(start))?
            .clone();
        let stop = end.min(seg.end().as_u64());
        const LEAF_SPAN: u64 = PageSize::Size2M.bytes();
        while va.as_u64() < stop {
            let fetched = match self.table.probe_walk(va) {
                ProbeResult::Mapped(path) => {
                    va = va.page_base(path.page_size).add(path.page_size.bytes());
                    continue;
                }
                ProbeResult::NotPresent { fetched } => fetched,
            };
            let resolved = self.policy.resolve(&seg, va);
            // A 2 MiB-aligned range resolves the same size at every page (a
            // larger page either fits around all of them or around none),
            // and a hole above level 1 means its PT node does not exist yet.
            let faults = if resolved.size == PageSize::Size4K
                && va.is_aligned(LEAF_SPAN)
                && stop - va.as_u64() >= LEAF_SPAN
                && fetched.steps().last().is_some_and(|hole| hole.level > 1)
            {
                self.table.map_full_leaf(va, &mut self.frames);
                va = va.add(LEAF_SPAN);
                LEAF_SPAN / PageSize::Size4K.bytes()
            } else {
                let frame = self.frames.alloc_page(resolved.size);
                let base = va.page_base(resolved.size);
                self.table.map(base, resolved.size, frame, &mut self.frames);
                va = base.add(resolved.size.bytes());
                1
            };
            self.minor_faults += faults;
            if resolved.fell_back {
                self.fallback_faults += faults;
            }
        }
        if stop < end {
            return Err(VmError::Unmapped(VirtAddr::new(stop)));
        }
        Ok(())
    }

    /// Translates `va` if it is mapped. Does not fault pages in.
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        self.table.walk(va).map(|path| Translation {
            paddr: path.frame_base.add(va.page_offset(path.page_size)),
            page_size: path.page_size,
        })
    }

    /// Returns the walk path for `va` if mapped. Does not fault pages in.
    pub fn walk(&self, va: VirtAddr) -> Option<WalkPath> {
        self.table.walk(va)
    }

    /// Hardware-faithful walk attempt: returns either the full path or the
    /// prefix fetched before a non-present entry. Does not fault pages in —
    /// this is what a *speculative* walk sees.
    pub fn probe_walk(&self, va: VirtAddr) -> ProbeResult {
        self.table.probe_walk(va)
    }

    /// The segment containing `va`, if any.
    pub fn segment_containing(&self, va: VirtAddr) -> Option<&Segment> {
        // Segments are allocated at monotonically increasing bases.
        let idx = self.segments.partition_point(|s| s.base() <= va);
        idx.checked_sub(1)
            .map(|i| &self.segments[i])
            .filter(|s| s.contains(va))
    }

    /// The page table (read-only: occupancy and node-storage counts).
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// The simulated physical-memory allocator (read-only).
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// All allocated segments, in allocation order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Aggregate statistics (faults, footprint, page-table occupancy).
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            minor_faults: self.minor_faults,
            fallback_faults: self.fallback_faults,
            table: self.table.stats(),
            data_bytes: self.frames.data_bytes(),
            table_bytes: self.frames.table_node_bytes(),
            segments: self.segments.len(),
            virtual_bytes: self.heap.allocated_bytes(),
        }
    }
}

impl CheckInvariants for AddressSpace {
    fn check_invariants(&self) {
        self.table.check_invariants();
        let table = self.table.stats();
        crate::invariant!(
            self.frames.table_node_bytes() == table.table_bytes(),
            "frame allocator backed {} table bytes but the table occupies {}",
            self.frames.table_node_bytes(),
            table.table_bytes()
        );
        let data_bytes: u64 = PageSize::ALL
            .iter()
            .zip(table.pages_by_size)
            .map(|(size, pages)| pages * size.bytes())
            .sum();
        crate::invariant!(
            self.frames.data_bytes() == data_bytes,
            "frame allocator backed {} data bytes but mapped pages cover {}",
            self.frames.data_bytes(),
            data_bytes
        );
        crate::invariant!(
            self.minor_faults == table.total_pages(),
            "every minor fault maps exactly one page: {} faults, {} pages",
            self.minor_faults,
            table.total_pages()
        );
        crate::invariant!(
            self.fallback_faults <= self.minor_faults,
            "fallback faults ({}) are a subset of minor faults ({})",
            self.fallback_faults,
            self.minor_faults
        );
        let segment_bytes: u64 = self.segments.iter().map(Segment::len).sum();
        crate::invariant!(
            self.heap.allocated_bytes() == segment_bytes,
            "heap handed out {} bytes but segments cover {}",
            self.heap.allocated_bytes(),
            segment_bytes
        );
        for pair in self.segments.windows(2) {
            crate::invariant!(
                pair[0].end() <= pair[1].base(),
                "segments {:?} and {:?} overlap or are out of order",
                pair[0].name(),
                pair[1].name()
            );
        }
        for entry in self.memo.iter().flatten() {
            let (page, path) = *entry;
            crate::invariant!(
                self.table.walk(VirtAddr::new(page << 12)) == Some(path),
                "translation memo disagrees with the page table for page {page:#x}"
            );
        }
        crate::invariant!(
            self.memo_probes <= MEMO_WINDOW,
            "memo window overran: {} probes in a {}-probe window",
            self.memo_probes,
            MEMO_WINDOW
        );
        crate::invariant!(
            self.memo_hits <= self.memo_probes,
            "memo hits ({}) exceed probes ({}) in the current window",
            self.memo_hits,
            self.memo_probes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_paging_counts_faults_once_per_page() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg = space.alloc_heap("a", 16 << 12).unwrap();
        for i in 0..4u64 {
            let t = space.touch(seg.base().add(i * 4096)).unwrap();
            assert!(t.minor_fault);
        }
        for i in 0..4u64 {
            let t = space.touch(seg.base().add(i * 4096 + 128)).unwrap();
            assert!(!t.minor_fault);
        }
        assert_eq!(space.stats().minor_faults, 4);
    }

    #[test]
    fn out_of_segment_access_is_a_segfault() {
        let mut space = AddressSpace::new(BackingPolicy::default());
        let err = space.touch(VirtAddr::new(0xdead_0000)).unwrap_err();
        assert!(matches!(err, VmError::Unmapped(_)));
    }

    #[test]
    fn translation_preserves_page_offset() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size2M));
        let seg = space.alloc_heap("a", 4 << 21).unwrap();
        let va = seg.base().add((1 << 21) + 12345);
        space.touch(va).unwrap();
        let t = space.translate(va).unwrap();
        assert_eq!(t.page_size, PageSize::Size2M);
        assert_eq!(t.paddr.page_offset(PageSize::Size2M), 12345);
    }

    #[test]
    fn one_gig_policy_falls_back_for_small_segments() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size1G));
        let small = space.alloc_heap("small", 256 << 20).unwrap();
        let t = space.touch(small.base()).unwrap();
        assert_eq!(t.page_size, PageSize::Size4K);
        assert_eq!(space.stats().fallback_faults, 1);

        let big = space.alloc_heap("big", 2 << 30).unwrap();
        let t = space.touch(big.base()).unwrap();
        assert_eq!(t.page_size, PageSize::Size1G);
    }

    #[test]
    fn segment_lookup_finds_correct_segment() {
        let mut space = AddressSpace::new(BackingPolicy::default());
        let a = space.alloc_heap("a", 8192).unwrap();
        let b = space.alloc_heap("b", 8192).unwrap();
        assert_eq!(
            space.segment_containing(a.base().add(4096)).unwrap().name(),
            "a"
        );
        assert_eq!(space.segment_containing(b.base()).unwrap().name(), "b");
        // Guard gap between the two belongs to neither.
        assert!(space.segment_containing(a.end()).is_none());
        assert_eq!(space.segments().len(), 2);
    }

    #[test]
    fn footprint_counts_data_and_table_bytes() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg = space.alloc_heap("a", 1 << 20).unwrap();
        for i in 0..256u64 {
            space.touch(seg.base().add(i * 4096)).unwrap();
        }
        let stats = space.stats();
        assert_eq!(stats.data_bytes, 256 * 4096);
        assert!(stats.table_bytes >= 4 * 4096);
        assert_eq!(
            stats.footprint_bytes(),
            stats.data_bytes + stats.table_bytes
        );
        assert_eq!(stats.virtual_bytes, 1 << 20);
    }

    #[test]
    fn memoised_touch_agrees_with_uncached_touch() {
        let mut memo = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let mut plain = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg_m = memo.alloc_heap("a", 64 << 20).unwrap();
        let seg_p = plain.alloc_heap("a", 64 << 20).unwrap();
        assert_eq!(seg_m.base(), seg_p.base());
        // A stride that wraps the 8192-slot memo several times, revisiting
        // pages so hits, misses and conflict evictions all occur.
        for round in 0..3u64 {
            for i in 0..20_000u64 {
                let va = seg_m.base().add(((i * 37 + round) % (64 << 8)) * 4096 / 16);
                let a = memo.touch(va).unwrap();
                let b = plain.touch_uncached(va).unwrap();
                assert_eq!(a.path, b.path);
                assert_eq!(a.page_size, b.page_size);
                assert_eq!(a.minor_fault, b.minor_fault);
            }
        }
        assert_eq!(memo.stats(), plain.stats());
        memo.check_invariants();
    }

    #[test]
    fn memo_disables_itself_on_streaming_touches_and_stays_correct() {
        let mut adaptive = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let mut plain = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg_a = adaptive.alloc_heap("a", 1 << 30).unwrap();
        let seg_p = plain.alloc_heap("a", 1 << 30).unwrap();
        assert_eq!(seg_a.base(), seg_p.base());
        // A sequential first-touch sweep (every touch a new page) never hits
        // the memo; after one full observation window it must switch off.
        let pages = (MEMO_WINDOW as u64) + 1000;
        for i in 0..pages {
            let a = adaptive.touch(seg_a.base().add(i * 4096)).unwrap();
            let b = plain.touch_uncached(seg_p.base().add(i * 4096)).unwrap();
            assert_eq!(a.path, b.path);
            assert_eq!(a.minor_fault, b.minor_fault);
        }
        assert!(
            !adaptive.memo_enabled,
            "a zero-hit window must disable the memo"
        );
        // Disabled ≠ wrong: re-touches still agree with the direct walk.
        for i in (0..pages).step_by(511) {
            let a = adaptive.touch(seg_a.base().add(i * 4096)).unwrap();
            let b = plain.touch_uncached(seg_p.base().add(i * 4096)).unwrap();
            assert_eq!(a.path, b.path);
            assert!(!a.minor_fault);
        }
        assert_eq!(adaptive.stats(), plain.stats());
        adaptive.check_invariants();
    }

    #[test]
    fn memo_stays_enabled_on_a_resident_working_set() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg = space.alloc_heap("a", 16 << 20).unwrap();
        // 4096 resident pages, touched round-robin for several windows: hit
        // rate approaches 100%, so the memo must stay on.
        let pages = 4096u64;
        let rounds = 3 * (MEMO_WINDOW as u64) / pages;
        for round in 0..rounds {
            for i in 0..pages {
                let t = space.touch(seg.base().add(i * 4096)).unwrap();
                assert_eq!(t.minor_fault, round == 0);
            }
        }
        assert!(
            space.memo_enabled,
            "a hot working set must keep the memo on"
        );
        space.check_invariants();
    }

    #[test]
    fn memo_conflicts_overwrite_and_stay_correct() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg = space.alloc_heap("a", 256 << 20).unwrap();
        // Two pages 8192 * 4096 bytes apart share a memo slot.
        let a = seg.base();
        let b = seg.base().add(8192 * 4096);
        let first = space.touch(a).unwrap();
        let second = space.touch(b).unwrap();
        assert_ne!(first.path.frame_base, second.path.frame_base);
        // Re-touching `a` must re-walk (slot now holds `b`) and still agree.
        let again = space.touch(a).unwrap();
        assert!(!again.minor_fault);
        assert_eq!(again.path, first.path);
        space.check_invariants();
    }

    #[test]
    fn walk_path_is_shorter_for_superpages() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size1G));
        let seg = space.alloc_heap("big", 2 << 30).unwrap();
        let t = space.touch(seg.base()).unwrap();
        assert_eq!(t.path.steps().len(), 2);
    }
}
