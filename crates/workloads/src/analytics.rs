//! The in-memory data-analytics workloads (§5.2): hash join, histogram,
//! and radix partitioning.

use crate::params::WorkloadParams;
use pei_cpu::trace::{Op, PhasedTrace};
use pei_mem::BackingStore;
use pei_types::{Addr, OperandValue, PimOpKind, BLOCK_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys per hash bucket (matches `pei_core::ops`'s HashProbe layout).
const BUCKET_KEYS: usize = 4;
/// Offset of the next-bucket pointer within a bucket.
const NEXT_OFFSET: u64 = (BLOCK_BYTES - 8) as u64;
/// Probe chains interleaved per thread (the software unrolling of §5.2).
const UNROLL: usize = 4;

#[derive(Debug, Clone, Copy)]
struct NativeBucket {
    keys: [u64; BUCKET_KEYS],
    next: Option<u32>,
}

/// Hash Join (HJ): builds a bucketized hash table from relation R, then
/// probes it with keys from relation S using the `pim.hprobe` operation,
/// chasing overflow chains through the returned next-bucket pointers.
/// Four probes are interleaved per thread so the out-of-order core can
/// overlap their PIM operations (§5.2).
#[derive(Debug)]
pub struct HashJoin {
    n_buckets_main: usize,
    buckets: Vec<NativeBucket>,
    bucket_base: Addr,
    probes: Vec<u64>,
    cursor: usize,
    threads: usize,
    budget: i64,
    chunk: usize,
    matches: u64,
    hops: u64,
    done: bool,
}

impl HashJoin {
    /// Builds a table of roughly `footprint` bytes and an (unbounded,
    /// budget-capped) probe stream.
    pub fn new(footprint: usize, params: &WorkloadParams) -> (Self, BackingStore) {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x6a11);
        let n_buckets = (footprint / BLOCK_BYTES).max(16);
        // Load factor ~2 keys/bucket: some chains, mostly direct hits.
        let n_keys = n_buckets * 2;
        let mut buckets: Vec<NativeBucket> = (0..n_buckets)
            .map(|_| NativeBucket {
                keys: [0; BUCKET_KEYS],
                next: None,
            })
            .collect();
        let mut keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            let key = rng.gen_range(1..u64::MAX);
            keys.push(key);
            let mut b = (key % n_buckets as u64) as usize;
            loop {
                if let Some(slot) = buckets[b].keys.iter().position(|&k| k == 0) {
                    buckets[b].keys[slot] = key;
                    break;
                }
                match buckets[b].next {
                    Some(nb) => b = nb as usize,
                    None => {
                        buckets.push(NativeBucket {
                            keys: [0; BUCKET_KEYS],
                            next: None,
                        });
                        let nb = (buckets.len() - 1) as u32;
                        buckets[b].next = Some(nb);
                        b = nb as usize;
                    }
                }
            }
        }
        // Materialize in simulated memory.
        let mut store = BackingStore::with_base(params.heap_base);
        let bucket_base = store.alloc((buckets.len() * BLOCK_BYTES) as u64, 64);
        for (i, b) in buckets.iter().enumerate() {
            let mut block = [0u8; BLOCK_BYTES];
            for (dst, k) in block.chunks_exact_mut(8).zip(b.keys) {
                dst.copy_from_slice(&k.to_le_bytes());
            }
            let next_addr = b
                .next
                .map_or(0, |nb| bucket_base.offset(nb as u64 * BLOCK_BYTES as u64).0);
            let next = NEXT_OFFSET as usize;
            block[next..next + 8].copy_from_slice(&next_addr.to_le_bytes());
            store.write_bytes(bucket_base.offset((i * BLOCK_BYTES) as u64), &block);
        }
        // Probe stream: half hits, half misses, shuffled.
        let n_probes = (params.pei_budget.min(4_000_000) as usize).max(64);
        let probes: Vec<u64> = (0..n_probes)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    keys[rng.gen_range(0..keys.len())]
                } else {
                    rng.gen_range(1..u64::MAX)
                }
            })
            .collect();
        let hj = HashJoin {
            n_buckets_main: n_buckets,
            buckets,
            bucket_base,
            probes,
            cursor: 0,
            threads: params.threads,
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / 4).max(UNROLL * 4),
            matches: 0,
            hops: 0,
            done: false,
        };
        (hj, store)
    }

    fn bucket_addr(&self, b: usize) -> Addr {
        self.bucket_base.offset((b * BLOCK_BYTES) as u64)
    }

    /// Functionally walks the chain for `key`: `(bucket indexes, found)`.
    fn chain_of(&self, key: u64) -> (Vec<usize>, bool) {
        let mut b = (key % self.n_buckets_main as u64) as usize;
        let mut hops = Vec::new();
        loop {
            hops.push(b);
            if self.buckets[b].keys.contains(&key) {
                return (hops, true);
            }
            match self.buckets[b].next {
                Some(nb) => b = nb as usize,
                None => return (hops, false),
            }
        }
    }

    /// Reference probe outcome for validation: `(matches, chain hops)`.
    pub fn reference_counts(&self) -> (u64, u64) {
        self.probes
            .iter()
            .map(|&k| {
                let (hops, found) = self.chain_of(k);
                (u64::from(found), hops.len() as u64)
            })
            .fold((0, 0), |(m, h), (dm, dh)| (m + dm, h + dh))
    }

    /// Matches/hops the generator observed while emitting the trace.
    pub fn generated_counts(&self) -> (u64, u64) {
        (self.matches, self.hops)
    }
}

impl PhasedTrace for HashJoin {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        "HJ"
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        if self.done || self.budget <= 0 || self.cursor >= self.probes.len() {
            if self.done {
                return None;
            }
            self.done = true;
            return Some(vec![vec![Op::Pfence]; self.threads]);
        }
        let take = (self.chunk * self.threads).min(self.probes.len() - self.cursor);
        let slice = &self.probes[self.cursor..self.cursor + take];
        self.cursor += take;
        let mut phase: Vec<Vec<Op>> = (0..self.threads).map(|_| Vec::new()).collect();
        for (t, chunk) in slice.chunks(take.div_ceil(self.threads)).enumerate() {
            let ops = &mut phase[t.min(self.threads - 1)];
            let mut pei_index = 0usize; // per-thread emitted PEI counter
            for group in chunk.chunks(UNROLL) {
                // Functional chains for this group.
                let chains: Vec<(Vec<usize>, bool)> =
                    group.iter().map(|&k| self.chain_of(k)).collect();
                for (_, found) in &chains {
                    self.matches += u64::from(*found);
                }
                let max_hops = chains.iter().map(|(c, _)| c.len()).max().unwrap_or(0);
                // Track, per probe in the group, the global index of its
                // previously emitted hop so dependent hops carry exact
                // dep distances.
                let mut last_idx: Vec<Option<usize>> = vec![None; group.len()];
                for hop in 0..max_hops {
                    for (p, &key) in group.iter().enumerate() {
                        let (chain, _) = &chains[p];
                        if hop >= chain.len() {
                            continue;
                        }
                        self.hops += 1;
                        let dep = last_idx[p]
                            .map(|prev| (pei_index - prev) as u16)
                            .unwrap_or(0);
                        ops.push(Op::Compute(3)); // hash / pointer extract
                        ops.push(Op::Pei {
                            op: PimOpKind::HashProbe,
                            target: self.bucket_addr(chain[hop]),
                            input: OperandValue::U64(key),
                            dep_dist: dep,
                        });
                        last_idx[p] = Some(pei_index);
                        pei_index += 1;
                        self.budget -= 1;
                    }
                }
                ops.push(Op::Compute(UNROLL as u32 * 2)); // consume results
            }
        }
        Some(phase)
    }
}

/// Histogram (HG): builds a 256-bin histogram from 32-bit integers. The
/// `pim.histbin` operation computes the bin indexes of a whole cache
/// block (16 values) in memory, returning 16 bytes — the host then bumps
/// its (cache-resident) bins.
#[derive(Debug)]
pub struct HistogramW {
    data_base: Addr,
    hist_base: Addr,
    data: Vec<u32>,
    shift: u8,
    hist: [u64; 256],
    cursor_block: usize,
    passes_left: usize,
    partition_pass: bool,
    out_base: Option<Addr>,
    out_cursor: [usize; 256],
    bin_start: [usize; 256],
    threads: usize,
    budget: i64,
    chunk: usize,
    done: bool,
}

impl HistogramW {
    /// Plain histogram (HG): one pass over `footprint` bytes of data.
    pub fn histogram(footprint: usize, params: &WorkloadParams) -> (Self, BackingStore) {
        Self::build(footprint, params, 1, false)
    }

    /// Radix partitioning (RP): `passes` histogram passes over the same
    /// relation (the paper's repeated-query scenario, scaled down from
    /// 100) followed by the data-movement pass.
    pub fn radix_partition(
        footprint: usize,
        params: &WorkloadParams,
        passes: usize,
    ) -> (Self, BackingStore) {
        Self::build(footprint / 2, params, passes, true)
    }

    fn build(
        data_bytes: usize,
        params: &WorkloadParams,
        passes: usize,
        partition: bool,
    ) -> (Self, BackingStore) {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x4157);
        let n_ints = (data_bytes / 4).next_multiple_of(16).max(16);
        let data: Vec<u32> = (0..n_ints).map(|_| rng.gen()).collect();
        let mut store = BackingStore::with_base(params.heap_base);
        let data_base = store.alloc(n_ints as u64 * 4, 64);
        store.write_u32s(data_base, &data);
        let hist_base = store.alloc(256 * 8, 64);
        let out_base = partition.then(|| store.alloc(n_ints as u64 * 4, 64));
        let shift = 24u8; // top byte of each word selects the bin
        let mut hist = [0u64; 256];
        for &v in &data {
            hist[((v >> shift) & 0xff) as usize] += 1;
        }
        let mut bin_start = [0usize; 256];
        let mut acc = 0usize;
        for b in 0..256 {
            bin_start[b] = acc;
            acc += hist[b] as usize;
        }
        let h = HistogramW {
            data_base,
            hist_base,
            data,
            shift,
            hist: [0; 256], // rebuilt during generation
            cursor_block: 0,
            passes_left: passes,
            partition_pass: partition,
            out_base,
            out_cursor: [0; 256],
            bin_start,
            threads: params.threads,
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / 40).max(4),
            done: false,
        };
        (h, store)
    }

    fn n_blocks(&self) -> usize {
        self.data.len() / 16
    }

    fn bin_of(&self, i: usize) -> usize {
        ((self.data[i] >> self.shift) & 0xff) as usize
    }

    /// Reference histogram of the input data.
    pub fn reference(&self) -> [u64; 256] {
        let mut h = [0u64; 256];
        for &v in &self.data {
            h[((v >> self.shift) & 0xff) as usize] += 1;
        }
        h
    }

    /// Histogram accumulated while generating (equals the reference once
    /// a full pass completed within budget).
    pub fn generated(&self) -> &[u64; 256] {
        &self.hist
    }
}

impl PhasedTrace for HistogramW {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        if self.partition_pass {
            "RP"
        } else {
            "HG"
        }
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        if self.done || self.budget <= 0 {
            return None;
        }
        if self.cursor_block >= self.n_blocks() {
            // Pass finished.
            self.cursor_block = 0;
            if self.passes_left > 0 {
                self.passes_left -= 1;
            }
            if self.passes_left == 0 {
                if self.partition_pass {
                    self.partition_pass = false; // run the move pass next
                } else {
                    self.done = true;
                    return None;
                }
            }
        }
        let blocks_per_thread = self.chunk;
        let take = (blocks_per_thread * self.threads).min(self.n_blocks() - self.cursor_block);
        let in_histogram_passes = self.passes_left > 0;
        let mut phase: Vec<Vec<Op>> = (0..self.threads).map(|_| Vec::new()).collect();
        for i in 0..take {
            let blk = self.cursor_block + i;
            let t = i % self.threads;
            let ops = &mut phase[t];
            let target = self.data_base.offset(blk as u64 * 64);
            ops.push(Op::Pei {
                op: PimOpKind::HistBin,
                target,
                input: OperandValue::from_bytes(&[self.shift]),
                dep_dist: 0,
            });
            self.budget -= 1;
            ops.push(Op::Compute(6)); // unpack the 16 bin indexes
            if in_histogram_passes {
                for e in 0..16 {
                    let bin = self.bin_of(blk * 16 + e);
                    self.hist[bin] += 1;
                    let addr = self.hist_base.offset(bin as u64 * 8);
                    ops.push(Op::load(addr));
                    ops.push(Op::store(addr));
                }
            } else {
                // Partition move pass: read the source block once, then
                // scatter its elements to their partitions.
                let out = self.out_base.expect("partition pass has an output");
                ops.push(Op::load(target));
                for e in 0..16 {
                    let bin = self.bin_of(blk * 16 + e);
                    let slot = self.bin_start[bin] + self.out_cursor[bin];
                    self.out_cursor[bin] += 1;
                    ops.push(Op::store(out.offset(slot as u64 * 4)));
                    ops.push(Op::Compute(1));
                }
            }
        }
        self.cursor_block += take;
        Some(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(t: &mut dyn PhasedTrace) -> u64 {
        let mut peis = 0;
        while let Some(p) = t.next_phase() {
            for ops in &p {
                peis += ops.iter().filter(|o| matches!(o, Op::Pei { .. })).count() as u64;
            }
        }
        peis
    }

    #[test]
    fn hash_table_layout_round_trips_through_store() {
        let params = WorkloadParams::quick_test(2);
        let (hj, store) = HashJoin::new(16 * 1024, &params);
        // Every native key must be findable in the simulated memory via
        // the same chain walk the PIM op performs.
        for b in 0..hj.n_buckets_main.min(50) {
            let base = hj.bucket_addr(b);
            for s in 0..BUCKET_KEYS {
                assert_eq!(
                    store.read_u64(base.offset(s as u64 * 8)),
                    hj.buckets[b].keys[s]
                );
            }
            let next = store.read_u64(base.offset(NEXT_OFFSET));
            match hj.buckets[b].next {
                Some(nb) => assert_eq!(next, hj.bucket_addr(nb as usize).0),
                None => assert_eq!(next, 0),
            }
        }
    }

    #[test]
    fn hj_generated_counts_match_reference() {
        let mut params = WorkloadParams::quick_test(2);
        params.pei_budget = u64::MAX;
        let (mut hj, _store) = HashJoin::new(8 * 1024, &params);
        // Cap probes for test speed.
        hj.probes.truncate(500);
        let peis = drain(&mut hj);
        let (ref_matches, ref_hops) = hj.reference_counts();
        let (gen_matches, gen_hops) = hj.generated_counts();
        assert_eq!(gen_matches, ref_matches);
        assert_eq!(gen_hops, ref_hops);
        assert_eq!(peis, ref_hops, "one probe PEI per chain hop");
    }

    #[test]
    fn hj_dependent_hops_have_positive_dep() {
        let mut params = WorkloadParams::quick_test(1);
        params.pei_budget = u64::MAX;
        let (mut hj, _store) = HashJoin::new(4 * 1024, &params);
        hj.probes.truncate(200);
        let mut saw_dep = false;
        while let Some(p) = hj.next_phase() {
            for ops in &p {
                for o in ops {
                    if let Op::Pei { dep_dist, .. } = o {
                        if *dep_dist > 0 {
                            saw_dep = true;
                        }
                    }
                }
            }
        }
        assert!(saw_dep, "chains should produce dependent probes");
    }

    #[test]
    fn hg_histogram_matches_reference() {
        let params = WorkloadParams::quick_test(2);
        let (mut hg, _store) = HistogramW::histogram(8 * 1024, &params);
        let peis = drain(&mut hg);
        assert_eq!(hg.generated(), &hg.reference());
        assert_eq!(peis as usize, hg.n_blocks());
    }

    #[test]
    fn rp_emits_histogram_then_move_pass() {
        let params = WorkloadParams::quick_test(2);
        let (mut rp, _store) = HistogramW::radix_partition(8 * 1024, &params, 2);
        let mut stores_to_out = 0usize;
        let out_base = rp.out_base.unwrap();
        while let Some(p) = rp.next_phase() {
            for ops in &p {
                for o in ops {
                    if let Op::Store { addr } = o {
                        if addr.0 >= out_base.0 {
                            stores_to_out += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(stores_to_out, rp.data.len(), "every element moved once");
        // Every output slot used exactly once.
        let used: usize = rp.out_cursor.iter().sum();
        assert_eq!(used, rp.data.len());
    }
}
