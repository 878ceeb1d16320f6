//! The workload registry: a uniform constructor over all ten case-study
//! applications, used by the experiment harnesses.

use crate::analytics::{HashJoin, HistogramW};
use crate::graph::Graph;
use crate::graph_kernels::{Atf, FrontierMin, Pagerank, Wcc};
use crate::ml::{StreamCluster, SvmRfe};
use crate::params::{InputSize, WorkloadParams};
use pei_cpu::trace::PhasedTrace;
use pei_mem::BackingStore;
use std::sync::Arc;

/// The ten workloads of §5, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Average Teenage Follower (graph).
    Atf,
    /// Breadth-First Search (graph).
    Bfs,
    /// PageRank (graph).
    Pr,
    /// Single-Source Shortest Path (graph).
    Sp,
    /// Weakly Connected Components (graph).
    Wcc,
    /// Hash Join (analytics).
    Hj,
    /// Histogram (analytics).
    Hg,
    /// Radix Partitioning (analytics).
    Rp,
    /// Streamcluster (ML).
    Sc,
    /// SVM-RFE (ML).
    Svm,
}

impl Workload {
    /// All workloads, in Figure 6 order.
    pub const ALL: [Workload; 10] = [
        Workload::Atf,
        Workload::Bfs,
        Workload::Pr,
        Workload::Sp,
        Workload::Wcc,
        Workload::Hj,
        Workload::Hg,
        Workload::Rp,
        Workload::Sc,
        Workload::Svm,
    ];

    /// The five graph workloads (they share input graphs, Table 3).
    pub const GRAPH: [Workload; 5] = [
        Workload::Atf,
        Workload::Bfs,
        Workload::Pr,
        Workload::Sp,
        Workload::Wcc,
    ];

    /// Short name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Atf => "ATF",
            Workload::Bfs => "BFS",
            Workload::Pr => "PR",
            Workload::Sp => "SP",
            Workload::Wcc => "WCC",
            Workload::Hj => "HJ",
            Workload::Hg => "HG",
            Workload::Rp => "RP",
            Workload::Sc => "SC",
            Workload::Svm => "SVM",
        }
    }

    /// Builds the workload for the given input size: returns the initial
    /// simulated memory and the trace generator.
    pub fn build(
        self,
        size: InputSize,
        params: &WorkloadParams,
    ) -> (BackingStore, Box<dyn PhasedTrace>) {
        let footprint = size.footprint(params.l3_bytes);
        match self {
            Workload::Atf | Workload::Bfs | Workload::Pr | Workload::Sp | Workload::Wcc => {
                let g = graph_for(footprint, params.seed);
                self.build_on_graph(g, params)
            }
            Workload::Hj => {
                let (w, s) = HashJoin::new(footprint, params);
                (s, Box::new(w))
            }
            Workload::Hg => {
                let (w, s) = HistogramW::histogram(footprint, params);
                (s, Box::new(w))
            }
            Workload::Rp => {
                let (w, s) = HistogramW::radix_partition(footprint, params, 4);
                (s, Box::new(w))
            }
            Workload::Sc => {
                let (w, s) = StreamCluster::new(footprint, params);
                (s, Box::new(w))
            }
            Workload::Svm => {
                let (w, s) = SvmRfe::new(footprint, 16, params);
                (s, Box::new(w))
            }
        }
    }

    /// Builds a graph workload on an explicit graph (the Fig. 2 / Fig. 8
    /// nine-graph sweeps construct their own graph series). Accepts a
    /// plain [`Graph`] or a shared [`Arc<Graph>`] from
    /// [`crate::cache`]; kernels only read the graph, so an `Arc` clone
    /// is enough.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a graph workload.
    pub fn build_on_graph(
        self,
        g: impl Into<Arc<Graph>>,
        params: &WorkloadParams,
    ) -> (BackingStore, Box<dyn PhasedTrace>) {
        let g = g.into();
        match self {
            Workload::Atf => {
                let (w, s) = Atf::new(g, params);
                (s, Box::new(w))
            }
            Workload::Bfs => {
                let (w, s) = FrontierMin::bfs(g, params, 0);
                (s, Box::new(w))
            }
            Workload::Pr => {
                let (w, s) = Pagerank::new(g, params, 2);
                (s, Box::new(w))
            }
            Workload::Sp => {
                let (w, s) = FrontierMin::sssp(g, params, 0);
                (s, Box::new(w))
            }
            Workload::Wcc => {
                let (w, s) = Wcc::new(g, params);
                (s, Box::new(w))
            }
            other => panic!("{other:?} is not a graph workload"),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The `(n, avg_deg)` of the power-law graph behind a graph input of
/// `footprint` bytes: its PEI-visible data (~48 B per vertex across
/// fields + CSR) lands near the footprint.
pub fn graph_shape(footprint: usize) -> (usize, usize) {
    ((footprint / 48).max(64), 10)
}

/// Builds the power-law graph of [`graph_shape`]`(footprint)`. The
/// graph comes from the process-wide [`crate::cache`], so repeated
/// builds of the same `(footprint, seed)` — e.g. the four machine
/// configurations of one figure cell — share a single allocation.
pub fn graph_for(footprint: usize, seed: u64) -> Arc<Graph> {
    let (n, avg_deg) = graph_shape(footprint);
    crate::cache::shared_power_law(n, avg_deg, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_generates() {
        let params = WorkloadParams {
            pei_budget: 2_000,
            ..WorkloadParams::quick_test(2)
        };
        for w in Workload::ALL {
            let (_store, mut trace) = w.build(InputSize::Small, &params);
            assert_eq!(trace.threads(), 2, "{w}");
            let mut phases = 0;
            let mut ops = 0usize;
            while let Some(p) = trace.next_phase() {
                phases += 1;
                ops += p.iter().map(|v| v.len()).sum::<usize>();
                assert!(phases < 100_000, "{w} runaway");
            }
            assert!(ops > 0, "{w} produced an empty trace");
        }
    }

    #[test]
    fn footprint_scales_with_size() {
        let params = WorkloadParams::quick_test(2);
        let (s_small, _) = Workload::Sc.build(InputSize::Small, &params);
        let (s_large, _) = Workload::Sc.build(InputSize::Large, &params);
        assert!(s_large.heap_top().0 > s_small.heap_top().0);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = Workload::ALL.iter().map(|w| w.label()).collect();
        assert_eq!(
            labels,
            vec!["ATF", "BFS", "PR", "SP", "WCC", "HJ", "HG", "RP", "SC", "SVM"]
        );
    }

    #[test]
    #[should_panic(expected = "not a graph workload")]
    fn non_graph_on_graph_panics() {
        let params = WorkloadParams::quick_test(1);
        let g = Graph::power_law(10, 2, 1);
        Workload::Hj.build_on_graph(g, &params);
    }
}
