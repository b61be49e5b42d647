//! Sparse 4-level radix page table.
//!
//! The table mirrors x86-64 long-mode paging: a 512-ary radix tree with the
//! root at level 4 (PML4) and leaves at level 1 (PT), 2 (PD, 2 MiB pages) or
//! 3 (PDPT, 1 GiB pages). Each node occupies one 4 KiB frame of *simulated*
//! physical memory, so every walk step has a concrete physical address —
//! `node_base + 8 * index` — which the page-table walker fetches through the
//! simulated cache hierarchy. This is what lets the reproduction observe the
//! paper's Figure 8 (where in the hierarchy PTEs are found) without hardware
//! counters.
//!
//! Nodes are materialised on demand: a 600 GB virtual footprint costs host
//! memory only for the pages a workload actually touches.

use crate::{FrameAllocator, PageSize, PhysAddr, VirtAddr, PTE_SIZE};

/// Number of radix levels (x86-64 long mode without LA57).
pub const PT_LEVELS: u8 = 4;

const ENTRIES: usize = 512;

const PRESENT: u64 = 1;
const PS: u64 = 1 << 7;
const PAYLOAD_SHIFT: u64 = 12;

/// One step of a page-table walk: the entry the walker must fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Radix level of the entry (4 = PML4 … 1 = PT).
    pub level: u8,
    /// Physical address of the 8-byte entry.
    pub entry_paddr: PhysAddr,
}

/// The full path of a successful walk, root to leaf.
///
/// The page-table walker consults the paging-structure caches to decide how
/// many of these steps it may skip; an uncached walk fetches all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPath {
    steps: [WalkStep; PT_LEVELS as usize],
    len: u8,
    /// Size of the mapped page.
    pub page_size: PageSize,
    /// Physical base address of the mapped page.
    pub frame_base: PhysAddr,
}

impl WalkPath {
    /// The steps of the walk, ordered root (level 4) first.
    #[inline]
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }

    /// The leaf step (the entry that holds the translation).
    #[inline]
    pub fn leaf(&self) -> WalkStep {
        self.steps[self.len as usize - 1]
    }
}

/// The prefix of a walk that terminated at a non-present entry.
///
/// The final step in [`PartialWalk::steps`] is the non-present entry whose
/// fetch revealed the hole; everything before it was a present interior
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialWalk {
    pub(crate) steps: [WalkStep; PT_LEVELS as usize],
    pub(crate) len: u8,
}

impl PartialWalk {
    /// The entries fetched, root first; the last is non-present.
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }
}

/// Outcome of [`PageTable::probe_walk`]: a hardware-faithful walk attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The address is mapped; the full path is available.
    Mapped(WalkPath),
    /// The walk hit a non-present entry after fetching `fetched` entries
    /// (a page fault on the architectural path; silently dropped on a
    /// speculative path).
    NotPresent {
        /// The entries the walker fetched before discovering the hole.
        fetched: PartialWalk,
    },
}

/// Occupancy statistics for a [`PageTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PageTableStats {
    /// Node count per level, indexed `[level-1]` (so `[3]` is the root level).
    pub nodes_by_level: [u64; PT_LEVELS as usize],
    /// Mapped page count per size, in [`PageSize::ALL`] order.
    pub pages_by_size: [u64; 3],
}

impl PageTableStats {
    /// Total number of nodes (each 4 KiB of simulated physical memory).
    pub fn total_nodes(&self) -> u64 {
        self.nodes_by_level.iter().sum()
    }

    /// Total bytes of simulated physical memory consumed by the table itself.
    pub fn table_bytes(&self) -> u64 {
        self.total_nodes() * 4096
    }

    /// Total mapped pages of all sizes.
    pub fn total_pages(&self) -> u64 {
        self.pages_by_size.iter().sum()
    }
}

/// A sparse 4-level radix page table.
///
/// Nodes live in one flat arena: node `i` owns entries
/// `[i * 512, (i + 1) * 512)` of a single `Vec<u64>`, with its simulated
/// physical base in a parallel `node_paddrs` vector. Walks are therefore a
/// chain of direct index computations over two contiguous allocations —
/// no per-node pointer chase, no per-node boxed array — which matters
/// because the walker runs on every TLB miss of every simulated access.
///
/// A 4 KiB leaf (PT) node whose 512 pages were all mapped by one
/// `map_full_leaf` call is not stored in the arena at all: its PD entry
/// points at an `ImplicitLeaf` descriptor from which every entry address
/// and frame follows in closed form. Walks report the same steps and
/// frames either way; only host memory and set-up time differ (DESIGN.md
/// §19).
///
/// # Example
///
/// ```
/// use atscale_vm::{FrameAllocator, PageSize, PageTable, VirtAddr};
///
/// let mut frames = FrameAllocator::new();
/// let mut table = PageTable::new(&mut frames);
/// let frame = frames.alloc_page(PageSize::Size4K);
/// table.map(VirtAddr::new(0x4000_0000), PageSize::Size4K, frame, &mut frames);
///
/// let path = table.walk(VirtAddr::new(0x4000_0123)).expect("mapped");
/// assert_eq!(path.steps().len(), 4);
/// assert_eq!(path.frame_base, frame);
/// ```
pub struct PageTable {
    /// `node_count * ENTRIES` packed entries; node `i` owns
    /// `entries[i * ENTRIES..(i + 1) * ENTRIES]`.
    entries: Vec<u64>,
    /// Simulated physical base address of each node's 4 KiB frame.
    node_paddrs: Vec<u64>,
    /// Fully mapped PT nodes stored in closed form; a PD entry with the
    /// [`IMPLICIT`] bit carries an index into this vector.
    implicit: Vec<ImplicitLeaf>,
    stats: PageTableStats,
    /// Virtual address of the most recent `map`, anchoring the chain memo.
    chain_va: u64,
    /// Interior-node chain of the most recent `map`: `chain_nodes[l - 1]` is
    /// the arena index of the node whose entries are indexed at level `l`.
    /// Valid for levels `chain_depth..=PT_LEVELS`; interior entries are
    /// never rewritten (map only fills absent slots), so a remembered chain
    /// can never go stale — a later `map` sharing a virtual-address prefix
    /// re-enters the tree at the deepest shared node instead of the root.
    /// Demand faulting touches pages in address order, so consecutive maps
    /// usually share everything down to the PT node.
    chain_nodes: [usize; PT_LEVELS as usize],
    /// Deepest level for which `chain_nodes` is valid; 0 = no map yet. It
    /// stops at 2 (the PD node) after a [`map_full_leaf`](Self::map_full_leaf),
    /// whose PT node has no arena index.
    chain_depth: u8,
}

/// Software-available PD-entry bit (ignored by x86-64 hardware): the
/// entry's payload indexes `PageTable::implicit`, not the node arena.
const IMPLICIT: u64 = 1 << 9;

/// A fully mapped 4 KiB leaf (PT) node in closed form.
///
/// [`PageTable::map_full_leaf`] reproduces 512 ascending demand faults, each
/// allocating its data frame before any node it creates: page 0's frame,
/// then the new table nodes top-down (the PT node last), then pages
/// 1–511 back to back. So page 0 sits at `first_frame`, the node at
/// `first_frame + nodes_after * 4 KiB`, and page `i > 0` at
/// `paddr + i * 4 KiB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ImplicitLeaf {
    /// Simulated physical base of the node's own 4 KiB frame.
    paddr: u64,
    /// Data frame of the node's page 0.
    first_frame: u64,
    /// Table nodes allocated after `first_frame` (1–3: the PT node plus any
    /// PD and PDPT nodes its first fault created).
    nodes_after: u64,
    /// Arena position (`node * ENTRIES + index`) of the PD entry pointing
    /// here, so a materialised or moved descriptor can rewrite it.
    parent_slot: usize,
}

impl ImplicitLeaf {
    /// Data frame of page `idx` (0–511).
    #[inline]
    fn frame(&self, idx: usize) -> u64 {
        if idx == 0 {
            self.first_frame
        } else {
            self.paddr + idx as u64 * 4096
        }
    }
}

impl PageTable {
    /// Creates an empty table with just the root (PML4) node.
    pub fn new(frames: &mut FrameAllocator) -> Self {
        let root_paddr = frames.alloc_table_node();
        let mut stats = PageTableStats::default();
        stats.nodes_by_level[PT_LEVELS as usize - 1] = 1;
        PageTable {
            entries: vec![0u64; ENTRIES],
            node_paddrs: vec![root_paddr.as_u64()],
            implicit: Vec::new(),
            stats,
            chain_va: 0,
            chain_nodes: [0; PT_LEVELS as usize],
            chain_depth: 0,
        }
    }

    /// Appends a fresh (all-zero) node to the arena, returning its index.
    fn push_node(&mut self, paddr: PhysAddr) -> usize {
        let idx = self.node_paddrs.len();
        self.entries.resize(self.entries.len() + ENTRIES, 0);
        self.node_paddrs.push(paddr.as_u64());
        idx
    }

    /// Maps the page of size `size` containing `va` to the physical page at
    /// `frame_base`, materialising interior nodes as needed.
    ///
    /// Returns the number of page-table nodes that had to be created.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped, if a *larger* page overlapping
    /// `va` is already mapped (overlap would corrupt the radix tree), or if
    /// `frame_base` is not aligned to `size`.
    pub fn map(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        frame_base: PhysAddr,
        frames: &mut FrameAllocator,
    ) -> u8 {
        self.map_with_path(va, size, frame_base, frames).0
    }

    /// [`map`](Self::map), additionally returning the walk path of the page
    /// just mapped — byte-for-byte what [`walk`](Self::walk) would return
    /// for any address inside the page, since the path depends only on the
    /// radix indices at levels ≥ the leaf level, which every address in the
    /// page shares. Demand-paging callers use this to skip the confirmation
    /// re-walk after a fault.
    pub fn map_with_path(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        frame_base: PhysAddr,
        frames: &mut FrameAllocator,
    ) -> (u8, WalkPath) {
        assert!(
            frame_base.is_aligned(size.bytes()),
            "frame {frame_base} not aligned to {size}"
        );
        let leaf_level = size.leaf_level();
        let created = self.descend(va, leaf_level, frames);
        let node_idx = self.chain_nodes[usize::from(leaf_level) - 1];
        let slot = &mut self.entries[node_idx * ENTRIES + va.pt_index(leaf_level)];
        assert_eq!(*slot & PRESENT, 0, "page at {va} ({size}) already mapped");
        let ps_bit = if leaf_level > 1 { PS } else { 0 };
        *slot = PRESENT | ps_bit | ((frame_base.as_u64() >> PAYLOAD_SHIFT) << PAYLOAD_SHIFT);
        self.stats.pages_by_size[match size {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }] += 1;
        self.chain_va = va.as_u64();
        self.chain_depth = leaf_level;
        let mut steps = [WalkStep {
            level: 0,
            entry_paddr: PhysAddr::new(0),
        }; PT_LEVELS as usize];
        let mut n = 0usize;
        for level in (leaf_level..=PT_LEVELS).rev() {
            steps[n] = WalkStep {
                level,
                entry_paddr: self.entry_paddr(self.chain_nodes[usize::from(level) - 1], va, level),
            };
            n += 1;
        }
        (
            created,
            WalkPath {
                steps,
                len: n as u8,
                page_size: size,
                frame_base,
            },
        )
    }

    /// Maps all 512 4 KiB pages under the PT node covering the 2 MiB-aligned
    /// `va`, allocating frames exactly as 512 ascending demand faults would
    /// (each fault's data frame first, then the nodes it creates), and
    /// stores the node as an `ImplicitLeaf` descriptor instead of 512 arena
    /// entries.
    ///
    /// Returns the number of page-table nodes created, the PT node included.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 2 MiB-aligned or if its PD entry is already
    /// present (some page of the range, or a larger page over it, is
    /// mapped).
    pub(crate) fn map_full_leaf(&mut self, va: VirtAddr, frames: &mut FrameAllocator) -> u8 {
        assert!(
            va.is_aligned(PageSize::Size2M.bytes()),
            "a full leaf node starts 2 MiB-aligned, not at {va}"
        );
        let first_frame = frames.alloc_page(PageSize::Size4K).as_u64();
        let created = self.descend(va, 2, frames);
        let parent_slot = self.chain_nodes[1] * ENTRIES + va.pt_index(2);
        assert_eq!(
            self.entries[parent_slot] & PRESENT,
            0,
            "leaf node at {va} already present"
        );
        let paddr = frames.alloc_table_node().as_u64();
        let nodes_after = u64::from(created) + 1;
        let rest = frames.alloc_pages(PageSize::Size4K, ENTRIES as u64 - 1);
        debug_assert_eq!(paddr, first_frame + nodes_after * 4096);
        debug_assert_eq!(rest.as_u64(), paddr + 4096);
        self.entries[parent_slot] =
            PRESENT | IMPLICIT | ((self.implicit.len() as u64) << PAYLOAD_SHIFT);
        self.implicit.push(ImplicitLeaf {
            paddr,
            first_frame,
            nodes_after,
            parent_slot,
        });
        self.stats.nodes_by_level[0] += 1;
        self.stats.pages_by_size[0] += ENTRIES as u64;
        self.chain_va = va.as_u64() + (ENTRIES as u64 - 1) * 4096;
        self.chain_depth = 2;
        created + 1
    }

    /// Physical address of the level-`level` entry for `va` in arena node
    /// `node`.
    #[inline]
    fn entry_paddr(&self, node: usize, va: VirtAddr, level: u8) -> PhysAddr {
        PhysAddr::new(self.node_paddrs[node]).add(va.pt_index(level) as u64 * PTE_SIZE)
    }

    /// Descends from the root (or from the deepest chain-memo node whose
    /// position `va` shares) to the node indexed at `leaf_level` on `va`'s
    /// path, creating absent interior nodes top-down. On return
    /// `chain_nodes[l - 1]` holds the path's node for every level
    /// `l >= leaf_level`. An implicit leaf node on the way down is
    /// materialised first, so writes only ever reach the arena.
    ///
    /// Returns the number of nodes created.
    fn descend(&mut self, va: VirtAddr, leaf_level: u8, frames: &mut FrameAllocator) -> u8 {
        let mut created = 0u8;
        let mut node_idx = 0usize;
        let mut level = PT_LEVELS;
        if self.chain_depth > 0 {
            // Re-enter at the deepest remembered node whose position the new
            // address shares: a match of all radix indices above level `l`
            // is a match of the bits from `12 + 9l` up.
            let mut l = self.chain_depth.max(leaf_level);
            while l < PT_LEVELS {
                let shift = 12 + 9 * u32::from(l);
                if va.as_u64() >> shift == self.chain_va >> shift {
                    node_idx = self.chain_nodes[usize::from(l) - 1];
                    level = l;
                    break;
                }
                l += 1;
            }
        }
        while level > leaf_level {
            self.chain_nodes[usize::from(level) - 1] = node_idx;
            let slot = node_idx * ENTRIES + va.pt_index(level);
            let entry = self.entries[slot];
            node_idx = if entry & PRESENT == 0 {
                let child_paddr = frames.alloc_table_node();
                let child = self.push_node(child_paddr);
                self.stats.nodes_by_level[level as usize - 2] += 1;
                self.entries[slot] = PRESENT | ((child as u64) << PAYLOAD_SHIFT);
                created += 1;
                child
            } else if entry & IMPLICIT != 0 {
                self.materialise((entry >> PAYLOAD_SHIFT) as usize)
            } else {
                assert_eq!(
                    entry & PS,
                    0,
                    "cannot map a level-{leaf_level} page at {va}: a larger page already covers it"
                );
                (entry >> PAYLOAD_SHIFT) as usize
            };
            level -= 1;
        }
        self.chain_nodes[usize::from(leaf_level) - 1] = node_idx;
        created
    }

    /// Converts implicit leaf `d` into an ordinary arena node with the same
    /// physical address and entries, and returns its arena index. The last
    /// descriptor moves into slot `d`, and its PD entry is rewritten to
    /// match.
    fn materialise(&mut self, d: usize) -> usize {
        let leaf = self.implicit.swap_remove(d);
        let node = self.push_node(PhysAddr::new(leaf.paddr));
        for (i, entry) in self.entries[node * ENTRIES..(node + 1) * ENTRIES]
            .iter_mut()
            .enumerate()
        {
            *entry = PRESENT | leaf.frame(i);
        }
        self.entries[leaf.parent_slot] = PRESENT | ((node as u64) << PAYLOAD_SHIFT);
        if let Some(moved) = self.implicit.get(d) {
            self.entries[moved.parent_slot] = PRESENT | IMPLICIT | ((d as u64) << PAYLOAD_SHIFT);
        }
        node
    }

    /// Walks the tree for `va` like hardware would, reporting either the
    /// complete path or the prefix of entries fetched before hitting a
    /// non-present entry.
    ///
    /// Speculative (wrong-path) accesses frequently probe unmapped
    /// addresses; the walker still fetches real page-table entries until it
    /// discovers the hole, and those fetches cost cache bandwidth — the
    /// waste the paper's §V-D quantifies.
    pub fn probe_walk(&self, va: VirtAddr) -> ProbeResult {
        let mut steps = [WalkStep {
            level: 0,
            entry_paddr: PhysAddr::new(0),
        }; PT_LEVELS as usize];
        let mut node_idx = 0usize;
        let mut level = PT_LEVELS;
        let mut n = 0usize;
        // Re-enter through the chain memo when the address shares a prefix
        // with the last-mapped page (the common case while demand paging
        // faults pages in address order). The *reported* steps are identical
        // to a root-first traversal — the skipped levels' entries are filled
        // in from the remembered nodes, only their re-reads are avoided; a
        // remembered node can never go stale because interior entries are
        // write-once.
        if self.chain_depth > 0 {
            let mut l = self.chain_depth;
            while l < PT_LEVELS {
                let shift = 12 + 9 * u32::from(l);
                if va.as_u64() >> shift == self.chain_va >> shift {
                    node_idx = self.chain_nodes[usize::from(l) - 1];
                    level = l;
                    break;
                }
                l += 1;
            }
            let mut skipped = PT_LEVELS;
            while skipped > level {
                let node = self.chain_nodes[usize::from(skipped) - 1];
                let idx = va.pt_index(skipped);
                steps[n] = WalkStep {
                    level: skipped,
                    entry_paddr: PhysAddr::new(self.node_paddrs[node]).add(idx as u64 * PTE_SIZE),
                };
                n += 1;
                skipped -= 1;
            }
        }
        loop {
            let idx = va.pt_index(level);
            steps[n] = WalkStep {
                level,
                entry_paddr: PhysAddr::new(self.node_paddrs[node_idx]).add(idx as u64 * PTE_SIZE),
            };
            n += 1;
            let entry = self.entries[node_idx * ENTRIES + idx];
            if entry & PRESENT == 0 {
                return ProbeResult::NotPresent {
                    fetched: PartialWalk {
                        steps,
                        len: n as u8,
                    },
                };
            }
            let is_leaf = level == 1 || entry & (PS | IMPLICIT) != 0;
            if is_leaf {
                if entry & IMPLICIT != 0 {
                    let leaf = &self.implicit[(entry >> PAYLOAD_SHIFT) as usize];
                    let idx = va.pt_index(1);
                    steps[n] = WalkStep {
                        level: 1,
                        entry_paddr: PhysAddr::new(leaf.paddr + idx as u64 * PTE_SIZE),
                    };
                    return ProbeResult::Mapped(WalkPath {
                        steps,
                        len: n as u8 + 1,
                        page_size: PageSize::Size4K,
                        frame_base: PhysAddr::new(leaf.frame(idx)),
                    });
                }
                let page_size = match level {
                    1 => PageSize::Size4K,
                    2 => PageSize::Size2M,
                    3 => PageSize::Size1G,
                    _ => unreachable!("PS bit at level 4 is never set by map()"),
                };
                return ProbeResult::Mapped(WalkPath {
                    steps,
                    len: n as u8,
                    page_size,
                    frame_base: PhysAddr::new(entry & !0xfffu64),
                });
            }
            node_idx = (entry >> PAYLOAD_SHIFT) as usize;
            level -= 1;
        }
    }

    /// Walks the tree for `va`, returning the full root-to-leaf path, or
    /// `None` if no translation exists (a page fault in a real machine).
    pub fn walk(&self, va: VirtAddr) -> Option<WalkPath> {
        match self.probe_walk(va) {
            ProbeResult::Mapped(path) => Some(path),
            ProbeResult::NotPresent { .. } => None,
        }
    }
    /// Returns `true` if a translation exists for `va`.
    pub fn is_mapped(&self, va: VirtAddr) -> bool {
        self.walk(va).is_some()
    }

    /// Occupancy statistics (node and page counts).
    pub fn stats(&self) -> PageTableStats {
        self.stats
    }

    /// Nodes stored as 512-entry arena slices (interior nodes and partly
    /// mapped leaves). With [`implicit_leaves`](Self::implicit_leaves) this
    /// sums to `stats().total_nodes()`.
    pub fn explicit_nodes(&self) -> usize {
        self.node_paddrs.len()
    }

    /// Fully mapped 4 KiB leaf nodes stored in closed form.
    pub fn implicit_leaves(&self) -> usize {
        self.implicit.len()
    }
}

impl crate::CheckInvariants for PageTable {
    fn check_invariants(&self) {
        crate::invariant!(
            self.stats.total_nodes() == (self.node_paddrs.len() + self.implicit.len()) as u64,
            "page-table stats claim {} nodes but the arena holds {} and {} leaves are implicit",
            self.stats.total_nodes(),
            self.node_paddrs.len(),
            self.implicit.len()
        );
        crate::invariant!(
            self.stats.nodes_by_level[0] >= self.implicit.len() as u64
                && self.stats.pages_by_size[0] >= self.implicit.len() as u64 * ENTRIES as u64,
            "{} implicit leaves exceed the {} PT nodes / {} 4K pages the stats claim",
            self.implicit.len(),
            self.stats.nodes_by_level[0],
            self.stats.pages_by_size[0]
        );
        for (d, leaf) in self.implicit.iter().enumerate() {
            crate::invariant!(
                leaf.parent_slot < self.entries.len()
                    && self.entries[leaf.parent_slot]
                        == PRESENT | IMPLICIT | ((d as u64) << PAYLOAD_SHIFT),
                "implicit leaf {d} is not referenced by its PD entry (slot {})",
                leaf.parent_slot
            );
            crate::invariant!(
                (1..PT_LEVELS as u64).contains(&leaf.nodes_after)
                    && leaf.paddr == leaf.first_frame + leaf.nodes_after * 4096,
                "implicit leaf {d} breaks the frame layout: {leaf:?}"
            );
        }
        crate::invariant!(
            self.entries.len() == self.node_paddrs.len() * ENTRIES,
            "entry arena ({}) out of step with node count ({})",
            self.entries.len(),
            self.node_paddrs.len()
        );
        crate::invariant!(
            self.stats.nodes_by_level[PT_LEVELS as usize - 1] == 1,
            "a 4-level table has exactly one root node, stats claim {}",
            self.stats.nodes_by_level[PT_LEVELS as usize - 1]
        );
        if self.chain_depth > 0 {
            // The chain memo must agree with a fresh walk of the anchor: it
            // reaches the anchor's leaf level (or stops at its implicit
            // leaf's PD node) and names the nodes that walk passes through.
            let path = self
                .walk(VirtAddr::new(self.chain_va))
                .expect("chain memo anchors a mapped page");
            crate::invariant!(
                path.leaf().level == self.chain_depth
                    || (path.leaf().level == 1 && self.chain_depth == 2),
                "chain depth {} disagrees with the anchor's leaf level {}",
                self.chain_depth,
                path.leaf().level
            );
            for l in self.chain_depth..=PT_LEVELS {
                let node = self.chain_nodes[usize::from(l) - 1];
                let step = path.steps()[usize::from(PT_LEVELS - l)];
                crate::invariant!(
                    node < self.node_paddrs.len()
                        && self.node_paddrs[node] == step.entry_paddr.as_u64() & !0xfff,
                    "chain node at level {l} is not the anchor's node"
                );
            }
        }
    }
}

impl std::fmt::Debug for PageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageTable")
            .field("nodes", &self.node_paddrs.len())
            .field("implicit_leaves", &self.implicit.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FrameAllocator, PageTable) {
        let mut frames = FrameAllocator::new();
        let table = PageTable::new(&mut frames);
        (frames, table)
    }

    #[test]
    fn map_and_walk_4k() {
        let (mut frames, mut table) = setup();
        let frame = frames.alloc_page(PageSize::Size4K);
        let created = table.map(
            VirtAddr::new(0x1234_5000),
            PageSize::Size4K,
            frame,
            &mut frames,
        );
        assert_eq!(created, 3, "fresh 4K mapping creates PDPT, PD, PT nodes");

        let path = table.walk(VirtAddr::new(0x1234_5678)).unwrap();
        assert_eq!(path.page_size, PageSize::Size4K);
        assert_eq!(path.frame_base, frame);
        assert_eq!(path.steps().len(), 4);
        let levels: Vec<u8> = path.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, [4, 3, 2, 1]);
    }

    #[test]
    fn map_and_walk_superpages() {
        let (mut frames, mut table) = setup();
        let frame2m = frames.alloc_page(PageSize::Size2M);
        let frame1g = frames.alloc_page(PageSize::Size1G);
        table.map(
            VirtAddr::new(0x4000_0000),
            PageSize::Size2M,
            frame2m,
            &mut frames,
        );
        table.map(
            VirtAddr::new(0x1_0000_0000),
            PageSize::Size1G,
            frame1g,
            &mut frames,
        );

        let p2 = table.walk(VirtAddr::new(0x400f_fff0)).unwrap();
        assert_eq!(p2.page_size, PageSize::Size2M);
        assert_eq!(p2.steps().len(), 3);
        assert_eq!(p2.frame_base, frame2m);

        let p1 = table.walk(VirtAddr::new(0x1_2345_6789)).unwrap();
        assert_eq!(p1.page_size, PageSize::Size1G);
        assert_eq!(p1.steps().len(), 2);
        assert_eq!(p1.frame_base, frame1g);
    }

    #[test]
    fn unmapped_addresses_fault() {
        let (mut frames, mut table) = setup();
        assert!(table.walk(VirtAddr::new(0x9999_9000)).is_none());
        let frame = frames.alloc_page(PageSize::Size4K);
        table.map(VirtAddr::new(0x1000), PageSize::Size4K, frame, &mut frames);
        // Neighbouring page in the same PT node is still unmapped.
        assert!(table.walk(VirtAddr::new(0x2000)).is_none());
        assert!(table.is_mapped(VirtAddr::new(0x1fff)));
    }

    #[test]
    fn sibling_pages_share_interior_nodes() {
        let (mut frames, mut table) = setup();
        let f1 = frames.alloc_page(PageSize::Size4K);
        let f2 = frames.alloc_page(PageSize::Size4K);
        let c1 = table.map(VirtAddr::new(0x0000), PageSize::Size4K, f1, &mut frames);
        let c2 = table.map(VirtAddr::new(0x1000), PageSize::Size4K, f2, &mut frames);
        assert_eq!(c1, 3);
        assert_eq!(c2, 0, "second page in same PT reuses all nodes");
        assert_eq!(table.stats().total_nodes(), 4); // root + 3
    }

    #[test]
    fn walk_steps_have_distinct_physical_addresses() {
        let (mut frames, mut table) = setup();
        let frame = frames.alloc_page(PageSize::Size4K);
        table.map(
            VirtAddr::new(0x7f12_3456_7000),
            PageSize::Size4K,
            frame,
            &mut frames,
        );
        let path = table.walk(VirtAddr::new(0x7f12_3456_7000)).unwrap();
        let mut paddrs: Vec<u64> = path
            .steps()
            .iter()
            .map(|s| s.entry_paddr.as_u64())
            .collect();
        paddrs.sort_unstable();
        paddrs.dedup();
        assert_eq!(paddrs.len(), 4);
        assert_eq!(path.leaf().level, 1);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let (mut frames, mut table) = setup();
        let f1 = frames.alloc_page(PageSize::Size4K);
        let f2 = frames.alloc_page(PageSize::Size4K);
        table.map(VirtAddr::new(0x1000), PageSize::Size4K, f1, &mut frames);
        table.map(VirtAddr::new(0x1000), PageSize::Size4K, f2, &mut frames);
    }

    #[test]
    #[should_panic(expected = "larger page already covers")]
    fn mapping_under_superpage_panics() {
        let (mut frames, mut table) = setup();
        let f1 = frames.alloc_page(PageSize::Size2M);
        let f2 = frames.alloc_page(PageSize::Size4K);
        table.map(VirtAddr::new(0x20_0000), PageSize::Size2M, f1, &mut frames);
        table.map(VirtAddr::new(0x20_1000), PageSize::Size4K, f2, &mut frames);
    }

    #[test]
    fn stats_track_sizes_and_levels() {
        let (mut frames, mut table) = setup();
        for i in 0..3u64 {
            let f = frames.alloc_page(PageSize::Size4K);
            table.map(VirtAddr::new(i * 0x1000), PageSize::Size4K, f, &mut frames);
        }
        let f2m = frames.alloc_page(PageSize::Size2M);
        table.map(
            VirtAddr::new(0x8000_0000),
            PageSize::Size2M,
            f2m,
            &mut frames,
        );
        let stats = table.stats();
        assert_eq!(stats.pages_by_size, [3, 1, 0]);
        assert_eq!(stats.total_pages(), 4);
        assert_eq!(stats.nodes_by_level[3], 1, "one root");
        assert!(stats.table_bytes() >= 4 * 4096);
    }

    #[test]
    fn probe_walk_reports_partial_prefix_for_unmapped() {
        let (mut frames, mut table) = setup();
        // Completely unmapped address: only the root entry is fetched.
        match table.probe_walk(VirtAddr::new(0x7000_0000_0000)) {
            ProbeResult::NotPresent { fetched } => {
                assert_eq!(fetched.steps().len(), 1);
                assert_eq!(fetched.steps()[0].level, 4);
            }
            ProbeResult::Mapped(_) => panic!("expected unmapped"),
        }
        // Map a sibling page so interior nodes exist, then probe a hole in
        // the same PT node: the walker fetches all 4 levels before failing.
        let f = frames.alloc_page(PageSize::Size4K);
        table.map(VirtAddr::new(0x1000), PageSize::Size4K, f, &mut frames);
        match table.probe_walk(VirtAddr::new(0x2000)) {
            ProbeResult::NotPresent { fetched } => {
                assert_eq!(fetched.steps().len(), 4);
                assert_eq!(fetched.steps()[3].level, 1);
            }
            ProbeResult::Mapped(_) => panic!("expected unmapped"),
        }
    }

    #[test]
    fn probe_walk_agrees_with_walk_for_mapped_pages() {
        let (mut frames, mut table) = setup();
        let f = frames.alloc_page(PageSize::Size2M);
        table.map(VirtAddr::new(0x4000_0000), PageSize::Size2M, f, &mut frames);
        let va = VirtAddr::new(0x4000_1234);
        match table.probe_walk(va) {
            ProbeResult::Mapped(path) => assert_eq!(Some(path), table.walk(va)),
            ProbeResult::NotPresent { .. } => panic!("expected mapped"),
        }
    }

    #[test]
    fn map_with_path_matches_a_fresh_walk() {
        use crate::CheckInvariants;
        let (mut frames, mut table) = setup();
        // Sequential pages (chain memo hits), a far jump (chain miss), a
        // return near the start (partial-prefix re-entry), and superpages.
        let mut plan: Vec<(u64, PageSize)> = (0..600u64)
            .map(|i| (0x1000_0000 + i * 0x1000, PageSize::Size4K))
            .collect();
        plan.push((0x7f00_0000_0000, PageSize::Size4K));
        plan.push((0x1000_0000 + 600 * 0x1000, PageSize::Size4K));
        plan.push((0x40_0000_0000, PageSize::Size1G));
        plan.push((0x5000_0000_0000 + (2 << 20), PageSize::Size2M));
        plan.push((0x5000_0000_0000, PageSize::Size2M));
        for (va, size) in plan {
            let va = VirtAddr::new(va);
            let f = frames.alloc_page(size);
            let (_, path) = table.map_with_path(va, size, f, &mut frames);
            assert_eq!(Some(path), table.walk(va), "path for {va} ({size})");
            // Any other address inside the page shares the identical path.
            let inner = VirtAddr::new(va.as_u64() + size.bytes() - 1);
            assert_eq!(Some(path), table.walk(inner));
        }
        table.check_invariants();
    }

    /// Every 4 KiB page of the 2 MiB range at `va`, page by page.
    fn map_leaf_per_page(table: &mut PageTable, frames: &mut FrameAllocator, va: u64) {
        for i in 0..ENTRIES as u64 {
            let f = frames.alloc_page(PageSize::Size4K);
            table.map(VirtAddr::new(va + i * 4096), PageSize::Size4K, f, frames);
        }
    }

    #[test]
    fn full_leaf_matches_per_page_maps() {
        use crate::CheckInvariants;
        let (mut frames_a, mut bulk) = setup();
        let (mut frames_b, mut per_page) = setup();
        // A fresh PDPT + PD + PT (3 nodes after page 0), then the next leaf
        // under the same PD (1 node after), then one across a 1 GiB line.
        for va in [0x4000_0000u64, 0x4020_0000, 0x8000_0000] {
            bulk.map_full_leaf(VirtAddr::new(va), &mut frames_a);
            map_leaf_per_page(&mut per_page, &mut frames_b, va);
        }
        assert_eq!(bulk.implicit_leaves(), 3);
        assert_eq!(per_page.implicit_leaves(), 0);
        for va in [0x4000_0000u64, 0x4020_0000, 0x8000_0000] {
            for i in 0..ENTRIES as u64 {
                let addr = VirtAddr::new(va + i * 4096 + 8 * i);
                assert_eq!(bulk.probe_walk(addr), per_page.probe_walk(addr), "{addr}");
            }
        }
        let hole = VirtAddr::new(0x4040_0000);
        assert_eq!(bulk.probe_walk(hole), per_page.probe_walk(hole));
        assert_eq!(bulk.stats(), per_page.stats());
        assert_eq!(frames_a.high_water_mark(), frames_b.high_water_mark());
        assert_eq!(frames_a.table_node_bytes(), frames_b.table_node_bytes());
        bulk.check_invariants();
    }

    #[test]
    fn materialise_keeps_walks_and_reindexes_the_moved_descriptor() {
        use crate::CheckInvariants;
        let (mut frames, mut table) = setup();
        let leaves = [0x4000_0000u64, 0x4020_0000, 0x4040_0000];
        for va in leaves {
            table.map_full_leaf(VirtAddr::new(va), &mut frames);
        }
        let probe = |t: &PageTable| -> Vec<ProbeResult> {
            leaves
                .iter()
                .flat_map(|&va| (0..ENTRIES as u64).map(move |i| va + i * 4096))
                .map(|va| t.probe_walk(VirtAddr::new(va)))
                .collect()
        };
        let before = probe(&table);
        let stats = table.stats();
        table.materialise(0);
        assert_eq!(table.implicit_leaves(), 2);
        assert_eq!(
            table.explicit_nodes(),
            3 + 1,
            "root, PDPT, PD and the materialised leaf"
        );
        assert_eq!(probe(&table), before);
        assert_eq!(table.stats(), stats);
        table.check_invariants();
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn mapping_into_an_implicit_leaf_materialises_it_then_refuses() {
        let (mut frames, mut table) = setup();
        table.map_full_leaf(VirtAddr::new(0x4000_0000), &mut frames);
        let f = frames.alloc_page(PageSize::Size4K);
        table.map(VirtAddr::new(0x4000_3000), PageSize::Size4K, f, &mut frames);
    }

    #[test]
    fn frame_base_roundtrips_through_entry_encoding() {
        // Large physical addresses must survive the PTE packing.
        let (mut frames, mut table) = setup();
        for _ in 0..100 {
            frames.alloc_page(PageSize::Size1G); // push the bump pointer high
        }
        let frame = frames.alloc_page(PageSize::Size1G);
        assert!(frame.as_u64() > 100 << 30);
        table.map(
            VirtAddr::new(0x40_0000_0000),
            PageSize::Size1G,
            frame,
            &mut frames,
        );
        let path = table.walk(VirtAddr::new(0x40_0000_0000)).unwrap();
        assert_eq!(path.frame_base, frame);
    }
}
