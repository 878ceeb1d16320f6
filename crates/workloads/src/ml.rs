//! The machine-learning / data-mining workloads (§5.3): streamcluster and
//! SVM-RFE.

use crate::params::WorkloadParams;
use pei_cpu::trace::{Op, PhasedTrace};
use pei_mem::BackingStore;
use pei_types::{Addr, OperandValue, PimOpKind, BLOCK_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Streamcluster (SC): online clustering whose bottleneck is Euclidean
/// distance between points and a few cluster centers. Each point is one
/// cache block of sixteen `f32` coordinates; the `pim.eudist` operation
/// takes the center as a 64-byte input operand and returns the 4-byte
/// squared distance (§5.3: "passing a cluster center as an input operand
/// since there are much more data points than cluster centers").
#[derive(Debug)]
pub struct StreamCluster {
    points_base: Addr,
    n_points: usize,
    centers: Vec<[f32; 16]>,
    points: Vec<[f32; 16]>,
    cursor: usize,
    center: usize,
    threads: usize,
    budget: i64,
    chunk: usize,
    done: bool,
}

impl StreamCluster {
    /// Number of cluster centers evaluated per point. The kernel streams
    /// over *all points per center* (the paper's "distance from few
    /// cluster centers to many data points"), so each point block is
    /// touched once per center pass — cache-resident for small inputs,
    /// a cold stream for large ones.
    pub const CENTERS: usize = 8;

    /// Builds `footprint` bytes of 16-dimensional points plus
    /// [`Self::CENTERS`] centers.
    pub fn new(footprint: usize, params: &WorkloadParams) -> (Self, BackingStore) {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5c);
        let n_points = (footprint / BLOCK_BYTES).max(16);
        let mut store = BackingStore::with_base(params.heap_base);
        let points_base = store.alloc((n_points * BLOCK_BYTES) as u64, 64);
        let mut points = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            let mut pt = [0f32; 16];
            for x in &mut pt {
                *x = rng.gen_range(-10.0f32..10.0);
            }
            points.push(pt);
        }
        // A point fills its block exactly, so the points are one run.
        store.write_f32s(points_base, points.as_flattened());
        let centers = (0..Self::CENTERS)
            .map(|_| {
                let mut c = [0f32; 16];
                for x in &mut c {
                    *x = rng.gen_range(-10.0f32..10.0);
                }
                c
            })
            .collect();
        let sc = StreamCluster {
            points_base,
            n_points,
            centers,
            points,
            cursor: 0,
            center: 0,
            threads: params.threads,
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / (2 * Self::CENTERS)).max(4),
            done: false,
        };
        (sc, store)
    }

    #[cfg(test)]
    fn center_operand(&self, c: usize) -> OperandValue {
        let mut bytes = Vec::with_capacity(64);
        for x in &self.centers[c] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        OperandValue::from_bytes(&bytes)
    }

    /// Reference squared distance between point `p` and center `c`.
    pub fn reference_dist(&self, p: usize, c: usize) -> f32 {
        self.points[p]
            .iter()
            .zip(&self.centers[c])
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Point count.
    pub fn n_points(&self) -> usize {
        self.n_points
    }
}

impl PhasedTrace for StreamCluster {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        "SC"
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        if self.done || self.budget <= 0 {
            return None;
        }
        if self.cursor >= self.n_points {
            self.center += 1;
            if self.center >= Self::CENTERS {
                self.done = true;
                return None;
            }
            self.cursor = 0;
        }
        let take = (self.chunk * self.threads)
            .min(self.n_points - self.cursor)
            .min(self.budget as usize);
        let mut phase: Vec<Vec<Op>> = (0..self.threads).map(|_| Vec::new()).collect();
        let operand_bytes = {
            let mut bytes = Vec::with_capacity(64);
            for x in &self.centers[self.center] {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            bytes
        };
        for i in 0..take {
            let p = self.cursor + i;
            let ops = &mut phase[i % self.threads];
            let target = self.points_base.offset((p * BLOCK_BYTES) as u64);
            ops.push(Op::Pei {
                op: PimOpKind::EuclideanDist,
                target,
                input: OperandValue::from_bytes(&operand_bytes),
                dep_dist: 0,
            });
            self.budget -= 1;
            ops.push(Op::Compute(4)); // compare against the running min
        }
        self.cursor += take;
        Some(phase)
    }
}

/// SVM-RFE (SVM): the kernel computes dot products between one
/// hyperplane vector `w` and a very large number of instance vectors `x`.
/// Each `pim.dot` handles a 4-dimensional `f64` chunk; `w`'s matching
/// chunk travels as the 32-byte input operand and the 8-byte partial dot
/// product returns (§5.3). Instance chunks are laid out one per cache
/// block (the remaining 32 bytes hold the next feature group's metadata,
/// matching the column-major feature matrix of SVM-RFE).
#[derive(Debug)]
pub struct SvmRfe {
    x_base: Addr,
    n_instances: usize,
    dims: usize,
    w: Vec<f64>,
    x: Vec<Vec<f64>>,
    cursor: usize,
    passes_left: usize,
    threads: usize,
    budget: i64,
    chunk: usize,
}

impl SvmRfe {
    /// RFE iterations (the SVM kernel re-scans the instance matrix once
    /// per feature-elimination step).
    pub const PASSES: usize = 3;

    /// Builds `footprint` bytes of `dims`-dimensional instances.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not a multiple of 4.
    pub fn new(footprint: usize, dims: usize, params: &WorkloadParams) -> (Self, BackingStore) {
        assert_eq!(dims % 4, 0, "dims must be a multiple of 4");
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x57b);
        let blocks_per_instance = dims / 4;
        let n_instances = (footprint / (blocks_per_instance * BLOCK_BYTES)).max(8);
        let mut store = BackingStore::with_base(params.heap_base);
        let x_base = store.alloc((n_instances * blocks_per_instance * BLOCK_BYTES) as u64, 64);
        let mut x = Vec::with_capacity(n_instances);
        for i in 0..n_instances {
            let mut inst = Vec::with_capacity(dims);
            for _ in 0..dims {
                inst.push(rng.gen_range(-1.0..1.0));
            }
            // Four values per block; the block's other half stays zero.
            for (blk, chunk) in inst.chunks_exact(4).enumerate() {
                let at = (i * blocks_per_instance + blk) * BLOCK_BYTES;
                store.write_f64s(x_base.offset(at as u64), chunk);
            }
            x.push(inst);
        }
        let w: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let svm = SvmRfe {
            x_base,
            n_instances,
            dims,
            w,
            x,
            cursor: 0,
            passes_left: Self::PASSES,
            threads: params.threads,
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / 8).max(4),
        };
        (svm, store)
    }

    fn w_operand(&self, chunk: usize) -> OperandValue {
        let mut bytes = Vec::with_capacity(32);
        for d in 0..4 {
            bytes.extend_from_slice(&self.w[chunk * 4 + d].to_le_bytes());
        }
        OperandValue::from_bytes(&bytes)
    }

    /// Reference dot product `w · x[i]`.
    pub fn reference_dot(&self, i: usize) -> f64 {
        self.x[i].iter().zip(&self.w).map(|(a, b)| a * b).sum()
    }

    /// Instance count.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }
}

impl PhasedTrace for SvmRfe {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        "SVM"
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        if self.budget <= 0 {
            return None;
        }
        if self.cursor >= self.n_instances {
            if self.passes_left <= 1 {
                return None;
            }
            self.passes_left -= 1;
            self.cursor = 0;
        }
        let blocks_per_instance = self.dims / 4;
        let take = (self.chunk * self.threads)
            .min(self.n_instances - self.cursor)
            .min((self.budget as usize).div_ceil(blocks_per_instance));
        let mut phase: Vec<Vec<Op>> = (0..self.threads).map(|_| Vec::new()).collect();
        for i in 0..take {
            let inst = self.cursor + i;
            let ops = &mut phase[i % self.threads];
            for blk in 0..blocks_per_instance {
                let target = self
                    .x_base
                    .offset(((inst * blocks_per_instance + blk) * BLOCK_BYTES) as u64);
                ops.push(Op::Pei {
                    op: PimOpKind::DotProduct,
                    target,
                    input: self.w_operand(blk),
                    dep_dist: 0,
                });
                ops.push(Op::Compute(2)); // accumulate partial dot
                self.budget -= 1;
            }
            ops.push(Op::Compute(4)); // margin computation
        }
        self.cursor += take;
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
    fn sc_emits_k_peis_per_point() {
        let params = WorkloadParams::quick_test(2);
        let (mut sc, _store) = StreamCluster::new(4 * 1024, &params);
        let n = sc.n_points();
        let peis = drain(&mut sc);
        assert_eq!(peis as usize, n * StreamCluster::CENTERS);
    }

    #[test]
    fn sc_store_matches_native_points() {
        let params = WorkloadParams::quick_test(1);
        let (sc, store) = StreamCluster::new(2 * 1024, &params);
        for p in 0..sc.n_points() {
            for d in 0..16 {
                let a = sc.points_base.offset((p * BLOCK_BYTES + d * 4) as u64);
                assert_eq!(store.read_f32(a), sc.points[p][d]);
            }
        }
        // The PIM op applied to the store must equal the reference.
        let mut sim_store = store;
        let out = pei_core::ops::apply(
            PimOpKind::EuclideanDist,
            sc.points_base,
            &sc.center_operand(0),
            &mut sim_store,
        );
        let got = f32::from_le_bytes(out.as_bytes().unwrap().try_into().unwrap());
        assert!((got - sc.reference_dist(0, 0)).abs() < 1e-3);
    }

    #[test]
    fn svm_dot_products_match_reference_through_the_pim_op() {
        let params = WorkloadParams::quick_test(1);
        let (svm, store) = SvmRfe::new(2 * 1024, 16, &params);
        let mut sim_store = store;
        let blocks = svm.dims / 4;
        for i in 0..svm.n_instances().min(10) {
            let mut total = 0.0;
            for blk in 0..blocks {
                let target = svm.x_base.offset(((i * blocks + blk) * BLOCK_BYTES) as u64);
                let out = pei_core::ops::apply(
                    PimOpKind::DotProduct,
                    target,
                    &svm.w_operand(blk),
                    &mut sim_store,
                );
                total += out.as_f64().unwrap();
            }
            assert!((total - svm.reference_dot(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn svm_emits_dims_over_4_peis_per_instance() {
        let params = WorkloadParams::quick_test(2);
        let (mut svm, _store) = SvmRfe::new(4 * 1024, 16, &params);
        let n = svm.n_instances();
        let peis = drain(&mut svm);
        assert_eq!(peis as usize, n * 4 * SvmRfe::PASSES);
    }

    #[test]
    fn budget_caps_sc() {
        let mut params = WorkloadParams::quick_test(1);
        params.pei_budget = 20;
        let (mut sc, _store) = StreamCluster::new(64 * 1024, &params);
        let peis = drain(&mut sc);
        assert!(peis < 200, "peis = {peis}");
    }
}
