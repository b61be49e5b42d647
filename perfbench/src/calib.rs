//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants, and their load moves
//! how much CPU time the same work takes: one seed of
//! `sim-overhead-points` read 166–220 ms of CPU per spec over fifteen
//! runs, and within one process two sweeps of the same specs differed by
//! up to a fifth. So fixed kernels, part of this package and not of the
//! workspace, run next to the measured work, and CPU times are scaled by
//! `REFERENCE_S / the kernel's time`: they read as CPU time on a host
//! where the kernel takes `REFERENCE_S`. A change to the workspace moves
//! only the measured times, never the kernels.
//!
//! Two kernels share one 32 MiB table, larger than a core's L2, so both
//! work out of the L3 that other tenants contend for:
//!
//! - the full pass, run at the start of a run, after each set-up and
//!   after the serve workload's timed phase: a dependent chain of hashed
//!   read-modify-writes over the table. Over fifteen runs of one seed of
//!   `sim-overhead-points` it halved the quartile spread (0.18 to 0.10).
//! - the short pass, interleaved with the chunks of a sim sweep: a
//!   miniature of the simulated machine, so the host's state slows it the
//!   way it slows the simulator. A set-associative TLB whose misses walk
//!   four levels of a page table held in the table, and a cache of tags,
//!   fed a hashed address stream that mixes strides with jumps. Beside
//!   eleven single-thread sweeps of one spec list, its CPU time tracked
//!   the sweeps' with correlation 0.90; the dependent chain, run the same
//!   way, reached 0.70, and a register-only hash chain 0.54–0.80.

/// Words in the table: 32 MiB.
const WORDS: usize = 4 << 20;
/// Dependent steps per full pass.
const STEPS: u64 = 1_500_000;
/// TLB: 64 sets of 4 ways.
const TLB_SETS: usize = 64;
const TLB_WAYS: usize = 4;
/// Cache tags: 4096 sets of 8 ways (256 KiB of tags).
const CACHE_SETS: usize = 4096;
const CACHE_WAYS: usize = 8;
/// Accesses per short pass: about 0.1 s, long enough that the
/// scheduler's 4 ms accounting granularity stays a few percent of it.
const SHORT_STEPS: u64 = 800_000;
/// Accesses of the miniature machine that take as long as a full pass.
const SHORT_PER_FULL: u64 = 2_000_000;
/// CPU seconds one full pass took on a quiet host (2-vCPU Xeon, 2.0 GHz,
/// 2 MiB L2 per core, 105 MiB L3).
pub const REFERENCE_S: f64 = 0.28;

/// The kernels' state, allocated and touched once.
pub struct Calibrator {
    table: Vec<u64>,
    tlb: Vec<u64>,
    cache: Vec<u64>,
}

impl Calibrator {
    /// Allocates and touches the tables (untimed).
    pub fn new() -> Calibrator {
        Calibrator {
            table: (0..WORDS as u64).map(mix).collect(),
            tlb: vec![u64::MAX; TLB_SETS * TLB_WAYS],
            cache: vec![u64::MAX; CACHE_SETS * CACHE_WAYS],
        }
    }

    /// Runs one full pass and returns its CPU seconds.
    pub fn measure(&mut self) -> f64 {
        let start = thread_cpu_ns();
        std::hint::black_box(chain(&mut self.table));
        (thread_cpu_ns() - start) as f64 / 1e9
    }

    /// Runs a short pass of the miniature machine and returns its CPU
    /// seconds scaled up to `SHORT_PER_FULL` accesses, so `scale` reads it
    /// like `measure`'s.
    pub fn measure_short(&mut self) -> f64 {
        let start = thread_cpu_ns();
        std::hint::black_box(self.machine(SHORT_STEPS));
        let secs = (thread_cpu_ns() - start) as f64 / 1e9;
        secs * (SHORT_PER_FULL as f64 / SHORT_STEPS as f64)
    }

    /// `steps` accesses: a TLB lookup (a miss walks four dependent
    /// page-table levels and fills a way), then a cache-tag lookup (a hit
    /// moves to the front, a miss evicts the last way). As in the
    /// simulator, the next address depends on hits and misses, not on the
    /// values a walk loads, so walks of successive steps may overlap.
    fn machine(&mut self, steps: u64) -> u64 {
        let mask = WORDS - 1;
        let mut addr = 0x1234_5678u64;
        let mut hits = 0u64;
        let mut loaded = 0u64;
        for step in 0..steps {
            let r = mix(step ^ hits);
            addr = if r & 3 == 0 {
                r & ((1 << 34) - 1)
            } else {
                addr.wrapping_add((r >> 8) & 0xfff)
            };
            let vpn = addr >> 12;
            let set = (vpn as usize % TLB_SETS) * TLB_WAYS;
            let ways = &mut self.tlb[set..set + TLB_WAYS];
            if ways.contains(&vpn) {
                hits += 1;
            } else {
                let mut node = vpn;
                for level in 0..4u64 {
                    let i = mix(node ^ (level << 60)) as usize & mask;
                    node = self.table[i] ^ (vpn >> (9 * level));
                    self.table[i] = self.table[i].wrapping_add(1);
                }
                ways[(r >> 32) as usize % TLB_WAYS] = vpn;
                loaded ^= node;
            }
            let line = addr >> 6;
            let set = (line as usize % CACHE_SETS) * CACHE_WAYS;
            let ways = &mut self.cache[set..set + CACHE_WAYS];
            match ways.iter().position(|&t| t == line) {
                Some(w) => {
                    ways[..=w].rotate_right(1);
                    hits += 1;
                }
                None => {
                    ways.rotate_right(1);
                    ways[0] = line;
                }
            }
        }
        hits ^ loaded
    }
}

/// The scale that turns CPU times into reference-host CPU time, from the
/// seconds the kernel passes measured with them took.
pub fn scale(kernel_s: &[f64]) -> f64 {
    REFERENCE_S / crate::report::median(kernel_s)
}

/// A chain of hashed, read-modify-write table accesses, each address
/// depending on the value the last one read.
fn chain(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for step in 0..STEPS {
        let x = mix(acc ^ step);
        let slot = &mut table[x as usize & mask];
        acc = acc.wrapping_add(*slot);
        *slot ^= x;
    }
    acc
}

/// splitmix64's finaliser.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// CPU nanoseconds the calling thread has run, from
/// `/proc/thread-self/schedstat` (ticks of a few ms for the running
/// thread; the short pass is long enough for that).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat")
}
