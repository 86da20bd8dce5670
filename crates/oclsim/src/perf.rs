//! Event counting and the analytic timing model.

use crate::device::DeviceProfile;

/// Size of one global-memory transaction segment in bytes (one cache line /
/// coalescing unit).
pub const SEGMENT_BYTES: u64 = 128;

/// Events observed while executing a kernel on the virtual device.
///
/// Equality is field-wise and exact — the differential tests compare the
/// plan engine against the reference interpreter with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Raw scalar loads from global memory.
    pub global_loads: u64,
    /// Raw scalar stores to global memory.
    pub global_stores: u64,
    /// Coalesced global load transactions (128-byte segments per warp).
    pub load_transactions: u64,
    /// Coalesced global store transactions.
    pub store_transactions: u64,
    /// Distinct global segments touched (compulsory traffic).
    pub unique_segments: u64,
    /// Scalar local-memory accesses (loads + stores).
    pub local_accesses: u64,
    /// Arithmetic operations retired (all work-items, including idle-lane
    /// charges from divergence).
    pub alu_ops: u64,
    /// The portion of `alu_ops` charged for idle SIMD lanes (divergence).
    pub divergence_ops: u64,
    /// Work-group barriers executed (per group).
    pub barriers: u64,
    /// Total work-items launched.
    pub work_items: u64,
    /// Total work-groups launched.
    pub work_groups: u64,
    /// Work-items per group.
    pub wg_size: u64,
    /// Local memory bytes used per group.
    pub local_bytes_per_group: u64,
    /// Internal: segment dedup set (not part of the public report).
    pub(crate) seen_segments: SegmentSet,
}

/// The distinct global segments a launch touches: a growable bitset over
/// segment ids plus its population count. Segment ids are dense from 0,
/// because global buffers are laid out segment-aligned from address 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SegmentSet {
    words: Vec<u64>,
    len: u64,
}

impl SegmentSet {
    /// Adds segment `seg`.
    pub(crate) fn insert(&mut self, seg: u64) {
        let word = (seg / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (seg % 64);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Number of distinct segments inserted.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Adds every segment of `other`.
    pub(crate) fn union_with(&mut self, other: &SegmentSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.len = self.words.iter().map(|w| u64::from(w.count_ones())).sum();
    }
}

impl KernelStats {
    /// Total coalesced transactions (loads + stores).
    pub fn transactions(&self) -> u64 {
        self.load_transactions + self.store_transactions
    }

    /// Models the kernel runtime in seconds on `dev`.
    ///
    /// The model combines four throughput terms and a latency term:
    ///
    /// * ALU: `alu_ops / (CUs · lanes · clock)`;
    /// * DRAM: compulsory traffic plus the fraction of redundant
    ///   transactions that miss the cache, at peak bandwidth;
    /// * local memory: accesses at LDS throughput on devices with hardware
    ///   local memory — on devices without (Mali), local traffic is billed
    ///   as additional global traffic instead;
    /// * barriers;
    /// * latency: one memory round-trip per transaction, divided by the
    ///   warps available to hide it (occupancy-limited).
    ///
    /// All throughput terms are scaled by an underutilisation factor when
    /// the launch cannot fill the machine (this is what starves the small
    /// SRAD grids on the big GPUs, §7.1).
    pub fn model_time(&self, dev: &DeviceProfile) -> f64 {
        let cus = dev.compute_units as f64;
        let clock_hz = dev.clock_ghz * 1e9;

        // --- occupancy ---------------------------------------------------
        let wg_size = self.wg_size.max(1) as f64;
        let warps_per_group = (wg_size / dev.warp_width as f64).ceil().max(1.0);
        let lmem_groups = if self.local_bytes_per_group > 0 {
            (dev.lmem_bytes_per_cu as f64 / self.local_bytes_per_group as f64).max(1.0)
        } else {
            f64::INFINITY
        };
        let groups_per_cu = (dev.max_groups_per_cu as f64)
            .min(lmem_groups)
            .min((dev.max_wg_size as f64 / wg_size).max(1.0) * dev.max_groups_per_cu as f64);
        let total_groups = self.work_groups.max(1) as f64;
        let resident_groups = groups_per_cu.min((total_groups / cus).max(1.0));
        let warps_per_cu = (resident_groups * warps_per_group).max(1.0);

        // Underutilisation: not enough parallelism to fill all CUs/lanes.
        let total_warps = (self.work_items.max(1) as f64 / dev.warp_width as f64).ceil();
        let fill = (total_warps / (cus * dev.warps_to_hide_latency)).clamp(0.05, 1.0);

        // --- throughput terms --------------------------------------------
        let t_alu = self.alu_ops as f64 / (cus * dev.alu_ops_per_cu_cycle * clock_hz) / fill;

        let redundant = self.transactions().saturating_sub(self.unique_segments) as f64;
        let dram_transactions =
            self.unique_segments as f64 + redundant * (1.0 - dev.cache_hit_redundant);
        let mut dram_bytes = dram_transactions * SEGMENT_BYTES as f64;

        let t_local = if dev.has_hw_local {
            self.local_accesses as f64 / (cus * dev.lmem_ops_per_cu_cycle * clock_hz) / fill
        } else {
            // No hardware local memory (Mali): "local" buffers live in
            // ordinary memory, so every staging access is plain memory
            // traffic — `toLocal` is pure overhead on this device.
            dram_bytes += self.local_accesses as f64 * 16.0;
            0.0
        };

        let t_mem = dram_bytes / (dev.gmem_bandwidth_gbps * 1e9) / fill;

        // --- latency term -------------------------------------------------
        // Only transactions that actually reach DRAM pay the full round
        // trip; cache hits resolve quickly enough to be hidden.
        let lat_cycles = dram_transactions * dev.gmem_latency_cycles / (cus * warps_per_cu);
        let t_lat = lat_cycles / clock_hz;

        // --- barriers ------------------------------------------------------
        // A barrier costs roughly a pipeline drain per resident group.
        let t_bar = self.barriers as f64 * 40.0 / clock_hz / cus.max(1.0);

        dev.launch_overhead_us * 1e-6 + t_alu.max(t_mem).max(t_local).max(t_lat) + t_bar
    }

    /// Elements updated per second given an output element count.
    pub fn elements_per_second(&self, dev: &DeviceProfile, out_elements: usize) -> f64 {
        out_elements as f64 / self.model_time(dev)
    }

    /// Finalises internal bookkeeping (called once by the executor).
    pub(crate) fn finalise(&mut self) {
        self.unique_segments = self.seen_segments.len();
        self.seen_segments = SegmentSet::default();
    }

    /// Moves the additive event counters out — every field but the launch
    /// shape and the segment bookkeeping — leaving them zero.
    pub(crate) fn take_counters(&mut self) -> KernelStats {
        KernelStats {
            global_loads: std::mem::take(&mut self.global_loads),
            global_stores: std::mem::take(&mut self.global_stores),
            load_transactions: std::mem::take(&mut self.load_transactions),
            store_transactions: std::mem::take(&mut self.store_transactions),
            local_accesses: std::mem::take(&mut self.local_accesses),
            alu_ops: std::mem::take(&mut self.alu_ops),
            divergence_ops: std::mem::take(&mut self.divergence_ops),
            barriers: std::mem::take(&mut self.barriers),
            ..KernelStats::default()
        }
    }

    /// Adds `times` copies of `group`'s additive event counters.
    pub(crate) fn add_counters(&mut self, group: &KernelStats, times: u64) {
        self.global_loads += group.global_loads * times;
        self.global_stores += group.global_stores * times;
        self.load_transactions += group.load_transactions * times;
        self.store_transactions += group.store_transactions * times;
        self.local_accesses += group.local_accesses * times;
        self.alu_ops += group.alu_ops * times;
        self.divergence_ops += group.divergence_ops * times;
        self.barriers += group.barriers * times;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_stats() -> KernelStats {
        KernelStats {
            global_loads: 5_000_000,
            divergence_ops: 0,
            global_stores: 1_000_000,
            load_transactions: 700_000,
            store_transactions: 130_000,
            unique_segments: 160_000,
            local_accesses: 0,
            alu_ops: 10_000_000,
            barriers: 0,
            work_items: 1_000_000,
            work_groups: 4096,
            wg_size: 256,
            local_bytes_per_group: 0,
            seen_segments: SegmentSet::default(),
        }
    }

    #[test]
    fn bigger_gpu_is_faster_on_big_kernels() {
        let s = base_stats();
        let t_nv = s.model_time(&DeviceProfile::k20c());
        let t_arm = s.model_time(&DeviceProfile::mali_t628());
        assert!(
            t_arm > t_nv * 5.0,
            "Mali ({t_arm:.2e}s) should be much slower than K20c ({t_nv:.2e}s)"
        );
    }

    #[test]
    fn removing_redundant_traffic_helps_more_on_weak_caches() {
        // Same kernel, once with heavy redundant traffic, once with the
        // redundancy eliminated (as overlapped tiling + local memory does).
        let redundant = base_stats();
        let mut tiled = base_stats();
        tiled.load_transactions = 200_000; // mostly compulsory
        tiled.local_accesses = 6_000_000;
        tiled.local_bytes_per_group = 5 * 1024;
        tiled.barriers = 8192;

        let nv = DeviceProfile::k20c();
        let amd = DeviceProfile::hd7970();
        let speedup_nv = redundant.model_time(&nv) / tiled.model_time(&nv);
        let speedup_amd = redundant.model_time(&amd) / tiled.model_time(&amd);
        assert!(
            speedup_nv > speedup_amd,
            "tiling should pay off more on the K20c ({speedup_nv:.2}x) than on the \
             cache-rich HD7970 ({speedup_amd:.2}x)"
        );
    }

    #[test]
    fn local_memory_staging_hurts_on_mali() {
        let plain = base_stats();
        let mut staged = base_stats();
        staged.local_accesses = 12_000_000;
        staged.local_bytes_per_group = 4 * 1024;
        staged.barriers = 8192;

        let arm = DeviceProfile::mali_t628();
        assert!(
            staged.model_time(&arm) > plain.model_time(&arm),
            "toLocal staging must be pure overhead on Mali"
        );
    }

    #[test]
    fn small_grids_starve_big_gpus() {
        let mut small = base_stats();
        small.work_items = 4096; // SRAD-sized
        small.work_groups = 16;
        small.global_loads /= 256;
        small.global_stores /= 256;
        small.load_transactions /= 256;
        small.store_transactions /= 256;
        small.unique_segments /= 256;
        small.alu_ops /= 256;

        let nv = DeviceProfile::k20c();
        let big_rate = base_stats().elements_per_second(&nv, 1_000_000);
        let small_rate = small.elements_per_second(&nv, 4096);
        assert!(
            small_rate < big_rate / 3.0,
            "small grids should achieve a fraction of peak element rate \
             (got {small_rate:.2e} vs {big_rate:.2e})"
        );
    }
}
