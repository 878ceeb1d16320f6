//! The five large-scale graph-processing workloads (§5.1): ATF, BFS, PR,
//! SP, WCC.
//!
//! Each kernel executes functionally during trace generation (frontiers,
//! convergence and PEI effects are computed on native state) while
//! emitting the per-thread op streams the timing simulator replays.
//! PEI-visible arrays are also materialized in the backing store so the
//! simulated PCUs compute real values; for kernels whose arrays are
//! updated *only* by PEIs (ATF, BFS, SP, WCC) the simulator's final
//! memory is bit-comparable with the reference run.

use crate::graph::{Graph, GraphLayout};
use crate::params::{partition, WorkloadParams};
use pei_cpu::trace::{Op, PhasedTrace};
use pei_mem::BackingStore;
use pei_types::{OperandValue, PimOpKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Emits the ops for scanning vertex `v`'s out-edges: the `xadj` load,
/// adjacency-block loads (one per 16 edges), and a per-edge callback.
fn emit_vertex_scan(
    layout: &GraphLayout,
    g: &Graph,
    v: usize,
    ops: &mut Vec<Op>,
    mut per_edge: impl FnMut(u32, &mut Vec<Op>),
) {
    ops.push(Op::load(layout.xadj_addr(v)));
    ops.push(Op::Compute(2));
    let start = g.xadj[v] as usize;
    let end = g.xadj[v + 1] as usize;
    for e in start..end {
        if e == start || e % 16 == 0 {
            ops.push(Op::load(layout.adj_addr(e)));
        }
        per_edge(g.adj[e], ops);
    }
}

/// Per-thread progress over statically partitioned vertex ranges.
#[derive(Debug)]
struct Chunker {
    ranges: Vec<std::ops::Range<usize>>,
    cursors: Vec<usize>,
}

impl Chunker {
    fn new(n: usize, threads: usize) -> Self {
        let ranges = partition(n, threads);
        let cursors = ranges.iter().map(|r| r.start).collect();
        Chunker { ranges, cursors }
    }

    fn reset(&mut self) {
        for (c, r) in self.cursors.iter_mut().zip(&self.ranges) {
            *c = r.start;
        }
    }

    /// Next per-thread vertex subranges of at most `max` vertices each;
    /// `None` when every thread has finished its range.
    fn next(&mut self, max: usize) -> Option<Vec<std::ops::Range<usize>>> {
        if self
            .cursors
            .iter()
            .zip(&self.ranges)
            .all(|(c, r)| *c >= r.end)
        {
            return None;
        }
        Some(
            self.cursors
                .iter_mut()
                .zip(&self.ranges)
                .map(|(c, r)| {
                    let s = *c;
                    let e = (s + max).min(r.end);
                    *c = e;
                    s..e
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// ATF — Average Teenage Follower
// ---------------------------------------------------------------------

/// Average Teenage Follower: counts, for every vertex, its teenage
/// followers by incrementing `followers[w]` for each successor `w` of a
/// teen vertex — one `pim.inc8` per edge from a teen.
#[derive(Debug)]
pub struct Atf {
    g: Arc<Graph>,
    layout: GraphLayout,
    teen: Vec<bool>,
    followers: Vec<u64>,
    threads: usize,
    chunker: Chunker,
    budget: i64,
    chunk: usize,
    fence_emitted: bool,
}

impl Atf {
    /// Field index of the follower-count array.
    pub const FIELD_FOLLOWERS: usize = 0;

    /// Builds the workload over `g`, returning the generator and the
    /// initial simulated memory.
    pub fn new(g: impl Into<Arc<Graph>>, params: &WorkloadParams) -> (Self, BackingStore) {
        let g = g.into();
        let mut store = BackingStore::with_base(params.heap_base);
        let layout = GraphLayout::alloc(&mut store, &g, 1);
        // Follower counters start at zero (already zeroed memory).
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xa7f);
        let teen: Vec<bool> = (0..g.n).map(|_| rng.gen_bool(0.1)).collect();
        let n = g.n;
        let atf = Atf {
            g,
            layout,
            teen,
            followers: vec![0; n],
            threads: params.threads,
            chunker: Chunker::new(n, params.threads),
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / 8).max(16),
            fence_emitted: false,
        };
        (atf, store)
    }

    /// Reference result: follower counts from a sequential run.
    pub fn reference(&self) -> &[u64] {
        &self.followers
    }

    /// Address of `followers[v]` (for validation against the sim store).
    pub fn followers_addr(&self, v: usize) -> pei_types::Addr {
        self.layout.field_addr(Self::FIELD_FOLLOWERS, v)
    }
}

impl PhasedTrace for Atf {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        "ATF"
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        if self.budget <= 0 || self.chunker.next(0).is_none() {
            if self.fence_emitted {
                return None;
            }
            self.fence_emitted = true;
            return Some(vec![vec![Op::Pfence]; self.threads]);
        }
        let ranges = self.chunker.next(self.chunk)?;
        let mut phase = Vec::with_capacity(self.threads);
        for r in ranges {
            let mut ops = Vec::new();
            for v in r {
                ops.push(Op::Compute(2));
                if !self.teen[v] {
                    continue;
                }
                let (layout, g) = (&self.layout, &self.g);
                let followers = &mut self.followers;
                let mut emitted = 0i64;
                emit_vertex_scan(layout, g, v, &mut ops, |w, ops| {
                    followers[w as usize] += 1;
                    ops.push(Op::pei(
                        PimOpKind::IncU64,
                        layout.field_addr(Self::FIELD_FOLLOWERS, w as usize),
                        OperandValue::None,
                    ));
                    ops.push(Op::Compute(2));
                    emitted += 1;
                });
                self.budget -= emitted;
            }
            phase.push(ops);
        }
        Some(phase)
    }
}

// ---------------------------------------------------------------------
// PR — PageRank (Figure 1 of the paper)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrStage {
    Update,
    Fence,
    Recompute,
    Done,
}

/// PageRank: `pim.fadd` propagates `0.85 * pagerank[v] / out_degree(v)`
/// to every successor's `next_pagerank`, with a pfence before the
/// recompute loop (lines 10 and 13–18 of Figure 1).
#[derive(Debug)]
pub struct Pagerank {
    g: Arc<Graph>,
    layout: GraphLayout,
    pagerank: Vec<f64>,
    next_pagerank: Vec<f64>,
    threads: usize,
    chunker: Chunker,
    stage: PrStage,
    iter: usize,
    max_iter: usize,
    budget: i64,
    chunk: usize,
}

impl Pagerank {
    /// Field index of the `pagerank` array.
    pub const FIELD_PR: usize = 0;
    /// Field index of the `next_pagerank` array (the PEI target).
    pub const FIELD_NEXT: usize = 1;

    /// Builds the workload with `max_iter` PageRank iterations.
    pub fn new(
        g: impl Into<Arc<Graph>>,
        params: &WorkloadParams,
        max_iter: usize,
    ) -> (Self, BackingStore) {
        let g = g.into();
        let mut store = BackingStore::with_base(params.heap_base);
        let layout = GraphLayout::alloc(&mut store, &g, 2);
        let n = g.n;
        let init = 1.0 / n as f64;
        let base = 0.15 / n as f64;
        let next_pagerank = vec![base; n];
        store.write_f64s(layout.field_addr(Self::FIELD_NEXT, 0), &next_pagerank);
        let pr = Pagerank {
            g,
            layout,
            pagerank: vec![init; n],
            next_pagerank,
            threads: params.threads,
            chunker: Chunker::new(n, params.threads),
            stage: PrStage::Update,
            iter: 0,
            max_iter,
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / 8).max(16),
        };
        (pr, store)
    }

    /// Reference pagerank values after the generated iterations.
    pub fn reference(&self) -> &[f64] {
        &self.pagerank
    }

    /// Address of `next_pagerank[v]`.
    pub fn next_addr(&self, v: usize) -> pei_types::Addr {
        self.layout.field_addr(Self::FIELD_NEXT, v)
    }
}

impl PhasedTrace for Pagerank {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        "PR"
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        loop {
            match self.stage {
                PrStage::Done => return None,
                PrStage::Update => {
                    let ranges = if self.budget > 0 {
                        self.chunker.next(self.chunk)
                    } else {
                        None // budget window ends mid-iteration, like the
                             // paper's fixed instruction window
                    };
                    let Some(ranges) = ranges else {
                        self.stage = PrStage::Fence;
                        continue;
                    };
                    let mut phase = Vec::with_capacity(self.threads);
                    for r in ranges {
                        let mut ops = Vec::new();
                        for v in r {
                            ops.push(Op::load(self.layout.field_addr(Self::FIELD_PR, v)));
                            ops.push(Op::Compute(6)); // delta = 0.85*pr/deg
                            let deg = self.g.out_degree(v);
                            if deg == 0 {
                                continue;
                            }
                            let delta = 0.85 * self.pagerank[v] / deg as f64;
                            let (layout, g) = (&self.layout, &self.g);
                            let next = &mut self.next_pagerank;
                            let mut emitted = 0i64;
                            emit_vertex_scan(layout, g, v, &mut ops, |w, ops| {
                                next[w as usize] += delta;
                                ops.push(Op::pei(
                                    PimOpKind::AddF64,
                                    layout.field_addr(Self::FIELD_NEXT, w as usize),
                                    OperandValue::F64(delta),
                                ));
                                ops.push(Op::Compute(1));
                                emitted += 1;
                            });
                            self.budget -= emitted;
                        }
                        phase.push(ops);
                    }
                    return Some(phase);
                }
                PrStage::Fence => {
                    // If the budget ran out mid-iteration, fence and stop
                    // (the paper's simulation window also ends mid-run).
                    self.stage = if self.budget > 0 {
                        PrStage::Recompute
                    } else {
                        PrStage::Done
                    };
                    self.chunker.reset();
                    return Some(vec![vec![Op::Pfence]; self.threads]);
                }
                PrStage::Recompute => {
                    let Some(ranges) = self.chunker.next(self.chunk) else {
                        // Iteration finished.
                        self.iter += 1;
                        self.chunker.reset();
                        if self.iter >= self.max_iter || self.budget <= 0 {
                            return None;
                        }
                        self.stage = PrStage::Update;
                        continue;
                    };
                    let base = 0.15 / self.g.n as f64;
                    let mut phase = Vec::with_capacity(self.threads);
                    for r in ranges {
                        let mut ops = Vec::new();
                        for v in r {
                            // diff += |next - pr|; pr = next; next = base
                            ops.push(Op::load(self.layout.field_addr(Self::FIELD_NEXT, v)));
                            ops.push(Op::Compute(4));
                            ops.push(Op::store(self.layout.field_addr(Self::FIELD_PR, v)));
                            ops.push(Op::store(self.layout.field_addr(Self::FIELD_NEXT, v)));
                            self.pagerank[v] = self.next_pagerank[v];
                            self.next_pagerank[v] = base;
                        }
                        phase.push(ops);
                    }
                    return Some(phase);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Frontier kernels — BFS and SP (Bellman-Ford) share their machinery
// ---------------------------------------------------------------------

/// Breadth-first search (level-synchronous) or single-source shortest
/// path (parallel Bellman-Ford), both built on `pim.min8` relaxations of
/// a per-vertex distance field over an active frontier.
#[derive(Debug)]
pub struct FrontierMin {
    g: Arc<Graph>,
    layout: GraphLayout,
    dist: Vec<u64>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    frontier_pos: usize,
    threads: usize,
    budget: i64,
    chunk: usize,
    weighted: bool,
    name: &'static str,
    fence_pending: bool,
    done: bool,
}

impl FrontierMin {
    /// Field index of the distance/level array.
    pub const FIELD_DIST: usize = 0;

    /// Level-synchronous BFS from `src`.
    pub fn bfs(
        g: impl Into<Arc<Graph>>,
        params: &WorkloadParams,
        src: usize,
    ) -> (Self, BackingStore) {
        Self::build(g, params, src, false, "BFS")
    }

    /// Parallel Bellman-Ford from `src` with deterministic edge weights
    /// `1 + (v + w) % 16`.
    pub fn sssp(
        g: impl Into<Arc<Graph>>,
        params: &WorkloadParams,
        src: usize,
    ) -> (Self, BackingStore) {
        Self::build(g, params, src, true, "SP")
    }

    fn build(
        g: impl Into<Arc<Graph>>,
        params: &WorkloadParams,
        src: usize,
        weighted: bool,
        name: &'static str,
    ) -> (Self, BackingStore) {
        let g = g.into();
        let mut store = BackingStore::with_base(params.heap_base);
        let layout = GraphLayout::alloc(&mut store, &g, 1);
        let n = g.n;
        let mut dist = vec![u64::MAX; n];
        dist[src] = 0;
        store.write_u64s(layout.field_addr(Self::FIELD_DIST, 0), &dist);
        let k = FrontierMin {
            g,
            layout,
            dist,
            frontier: vec![src as u32],
            next_frontier: Vec::new(),
            frontier_pos: 0,
            threads: params.threads,
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / 8).max(16),
            weighted,
            name,
            fence_pending: false,
            done: false,
        };
        (k, store)
    }

    #[cfg(test)]
    fn weight(&self, v: usize, w: u32) -> u64 {
        if self.weighted {
            1 + ((v as u64 + w as u64) % 16)
        } else {
            1
        }
    }

    /// Reference distances/levels.
    pub fn reference(&self) -> &[u64] {
        &self.dist
    }

    /// Address of `dist[v]`.
    pub fn dist_addr(&self, v: usize) -> pei_types::Addr {
        self.layout.field_addr(Self::FIELD_DIST, v)
    }
}

impl PhasedTrace for FrontierMin {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        self.name
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        if self.done {
            return None;
        }
        if self.fence_pending {
            self.fence_pending = false;
            // Advance to the next level.
            self.frontier = std::mem::take(&mut self.next_frontier);
            self.frontier.sort_unstable();
            self.frontier.dedup();
            self.frontier_pos = 0;
            if self.frontier.is_empty() || self.budget <= 0 {
                self.done = true;
            }
            return Some(vec![vec![Op::Pfence]; self.threads]);
        }
        // Process a chunk of the current frontier, round-robin across
        // threads. A spent budget truncates the remaining frontier.
        if self.budget <= 0 {
            self.frontier_pos = self.frontier.len();
        }
        let remaining = self.frontier.len() - self.frontier_pos;
        if remaining == 0 {
            self.fence_pending = true;
            return self.next_phase();
        }
        let take = remaining.min(self.chunk * self.threads);
        let slice: Vec<u32> = self.frontier[self.frontier_pos..self.frontier_pos + take].to_vec();
        self.frontier_pos += take;
        let mut phase: Vec<Vec<Op>> = (0..self.threads).map(|_| Vec::new()).collect();
        for (i, &vu) in slice.iter().enumerate() {
            let t = i % self.threads;
            let v = vu as usize;
            let ops = &mut phase[t];
            ops.push(Op::load(self.layout.field_addr(Self::FIELD_DIST, v)));
            ops.push(Op::Compute(3));
            let dv = self.dist[v];
            let (layout, g) = (&self.layout, &self.g);
            let weighted = self.weighted;
            let dist = &mut self.dist;
            let next_frontier = &mut self.next_frontier;
            let mut emitted = 0i64;
            emit_vertex_scan(layout, g, v, ops, |w, ops| {
                let wt = if weighted {
                    1 + ((v as u64 + w as u64) % 16)
                } else {
                    1
                };
                let cand = dv.saturating_add(wt);
                if cand < dist[w as usize] {
                    dist[w as usize] = cand;
                    next_frontier.push(w);
                }
                ops.push(Op::pei(
                    PimOpKind::MinU64,
                    layout.field_addr(Self::FIELD_DIST, w as usize),
                    OperandValue::U64(cand),
                ));
                ops.push(Op::Compute(1));
                emitted += 1;
            });
            self.budget -= emitted;
        }
        Some(phase)
    }
}

// ---------------------------------------------------------------------
// WCC — label propagation to a fixpoint
// ---------------------------------------------------------------------

/// Connected components via min-label propagation along edges
/// (`pim.min8`), iterated to a fixpoint. Propagation follows edge
/// direction, as in the paper's PEGASUS-style formulation over the
/// directed CSR; the reference implementation matches exactly.
#[derive(Debug)]
pub struct Wcc {
    g: Arc<Graph>,
    layout: GraphLayout,
    label: Vec<u64>,
    shadow: Vec<u64>,
    changed: bool,
    threads: usize,
    chunker: Chunker,
    budget: i64,
    chunk: usize,
    fence_pending: bool,
    done: bool,
}

impl Wcc {
    /// Field index of the label array.
    pub const FIELD_LABEL: usize = 0;

    /// Builds the workload.
    pub fn new(g: impl Into<Arc<Graph>>, params: &WorkloadParams) -> (Self, BackingStore) {
        let g = g.into();
        let mut store = BackingStore::with_base(params.heap_base);
        let layout = GraphLayout::alloc(&mut store, &g, 1);
        let n = g.n;
        let label: Vec<u64> = (0..n as u64).collect();
        store.write_u64s(layout.field_addr(Self::FIELD_LABEL, 0), &label);
        let w = Wcc {
            g,
            layout,
            shadow: label.clone(),
            label,
            changed: false,
            threads: params.threads,
            chunker: Chunker::new(n, params.threads),
            budget: params.pei_budget.min(i64::MAX as u64) as i64,
            chunk: (params.phase_chunk / 8).max(16),
            fence_pending: false,
            done: false,
        };
        (w, store)
    }

    /// Reference labels at the generated fixpoint.
    pub fn reference(&self) -> &[u64] {
        &self.label
    }

    /// Address of `label[v]`.
    pub fn label_addr(&self, v: usize) -> pei_types::Addr {
        self.layout.field_addr(Self::FIELD_LABEL, v)
    }
}

impl PhasedTrace for Wcc {
    fn threads(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &str {
        "WCC"
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        if self.done {
            return None;
        }
        if self.fence_pending {
            self.fence_pending = false;
            self.chunker.reset();
            // Labels read in the next iteration are the post-PEI values.
            self.label.copy_from_slice(&self.shadow);
            if !self.changed || self.budget <= 0 {
                self.done = true;
            }
            self.changed = false;
            return Some(vec![vec![Op::Pfence]; self.threads]);
        }
        let ranges = if self.budget > 0 {
            self.chunker.next(self.chunk)
        } else {
            None
        };
        let Some(ranges) = ranges else {
            self.fence_pending = true;
            return self.next_phase();
        };
        let mut phase = Vec::with_capacity(self.threads);
        for r in ranges {
            let mut ops = Vec::new();
            for v in r {
                ops.push(Op::load(self.layout.field_addr(Self::FIELD_LABEL, v)));
                ops.push(Op::Compute(2));
                let lv = self.label[v];
                let (layout, g) = (&self.layout, &self.g);
                let shadow = &mut self.shadow;
                let changed = &mut self.changed;
                let mut emitted = 0i64;
                emit_vertex_scan(layout, g, v, &mut ops, |w, ops| {
                    if lv < shadow[w as usize] {
                        shadow[w as usize] = lv;
                        *changed = true;
                    }
                    ops.push(Op::pei(
                        PimOpKind::MinU64,
                        layout.field_addr(Self::FIELD_LABEL, w as usize),
                        OperandValue::U64(lv),
                    ));
                    ops.push(Op::Compute(1));
                    emitted += 1;
                });
                self.budget -= emitted;
            }
            phase.push(ops);
        }
        Some(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::WorkloadParams;

    fn tiny_graph() -> Graph {
        Graph::power_law(200, 5, 11)
    }

    fn drain(trace: &mut dyn PhasedTrace) -> (u64, u64) {
        // (phases, peis)
        let mut phases = 0;
        let mut peis = 0;
        while let Some(p) = trace.next_phase() {
            phases += 1;
            for ops in &p {
                peis += ops.iter().filter(|o| matches!(o, Op::Pei { .. })).count() as u64;
            }
        }
        (phases, peis)
    }

    #[test]
    fn atf_pei_count_matches_reference_sum() {
        let (mut atf, _store) = Atf::new(tiny_graph(), &WorkloadParams::quick_test(2));
        let (_, peis) = drain(&mut atf);
        let total: u64 = atf.reference().iter().sum();
        assert_eq!(peis, total, "one increment PEI per teen edge");
        assert!(peis > 0);
    }

    #[test]
    fn pagerank_mass_is_conserved() {
        let g = tiny_graph();
        // Sinks leak mass; use only the non-sink property: sum stays near
        // 1 within the damping model when most vertices have out-edges.
        let (mut pr, _store) = Pagerank::new(g, &WorkloadParams::quick_test(2), 2);
        drain(&mut pr);
        let sum: f64 = pr.reference().iter().sum();
        assert!(sum > 0.3 && sum < 1.5, "pagerank sum = {sum}");
        assert!(pr.reference().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn bfs_levels_match_sequential_bfs() {
        let g = tiny_graph();
        let reference = {
            let mut dist = vec![u64::MAX; g.n];
            let mut q = std::collections::VecDeque::from([0usize]);
            dist[0] = 0;
            while let Some(v) = q.pop_front() {
                for &w in g.succ(v) {
                    if dist[w as usize] == u64::MAX {
                        dist[w as usize] = dist[v] + 1;
                        q.push_back(w as usize);
                    }
                }
            }
            dist
        };
        let (mut bfs, _store) = FrontierMin::bfs(g, &WorkloadParams::quick_test(2), 0);
        drain(&mut bfs);
        assert_eq!(bfs.reference(), &reference[..]);
    }

    #[test]
    fn sssp_satisfies_triangle_inequality_on_edges() {
        let g = tiny_graph();
        let (mut sp, _store) = FrontierMin::sssp(g, &WorkloadParams::quick_test(2), 0);
        drain(&mut sp);
        let dist = sp.reference().to_vec();
        for v in 0..sp.g.n {
            if dist[v] == u64::MAX {
                continue;
            }
            for &w in sp.g.succ(v) {
                let wt = sp.weight(v, w);
                assert!(
                    dist[w as usize] <= dist[v] + wt,
                    "edge ({v},{w}) violates relaxation"
                );
            }
        }
        assert_eq!(dist[0], 0);
    }

    #[test]
    fn wcc_reaches_directed_fixpoint() {
        let g = tiny_graph();
        let (mut wcc, _store) = Wcc::new(g, &WorkloadParams::quick_test(2));
        drain(&mut wcc);
        let label = wcc.reference().to_vec();
        // Fixpoint: no edge can further lower a label.
        for v in 0..wcc.g.n {
            for &w in wcc.g.succ(v) {
                assert!(label[w as usize] <= label[v]);
            }
        }
    }

    #[test]
    fn budget_caps_generation() {
        let mut params = WorkloadParams::quick_test(2);
        params.pei_budget = 50;
        let (mut atf, _store) = Atf::new(tiny_graph(), &params);
        let (_, peis) = drain(&mut atf);
        // Budget is a soft cap (chunk granularity) but must bite.
        assert!(peis < 1000, "peis = {peis}");
    }

    #[test]
    fn phases_have_one_vec_per_thread() {
        let (mut pr, _store) = Pagerank::new(tiny_graph(), &WorkloadParams::quick_test(3), 1);
        while let Some(p) = pr.next_phase() {
            assert_eq!(p.len(), 3);
        }
    }
}
