//! Synthetic power-law graphs and their simulated-memory layout.
//!
//! The paper evaluates on nine real-world graphs (62 K–5 M vertices) from
//! SNAP and LAW with power-law degree distributions. We generate synthetic
//! graphs with the same property — a heavy-tailed in-degree distribution —
//! because that skew is exactly what drives the paper's per-block locality
//! results (§7.1: high-degree vertices receive most updates and become
//! cache-resident). Vertex ids are randomly permuted so hot vertices don't
//! artificially cluster into a few cache blocks.

use pei_mem::BackingStore;
use pei_types::Addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A directed graph in CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Vertex count.
    pub n: usize,
    /// CSR row offsets (`n + 1` entries).
    pub xadj: Vec<u32>,
    /// CSR column indices (destination vertices).
    pub adj: Vec<u32>,
}

impl Graph {
    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.adj.len()
    }

    /// Successors of `v`.
    pub fn succ(&self, v: usize) -> &[u32] {
        &self.adj[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Generates a power-law graph with `n` vertices and roughly
    /// `n * avg_deg` edges.
    ///
    /// Destinations are drawn from a Zipf-like distribution
    /// (`dst ∝ u^alpha` over a random permutation), producing the
    /// heavy-tailed in-degree skew of social graphs; sources are uniform.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn power_law(n: usize, avg_deg: usize, seed: u64) -> Graph {
        let (perm, mut rng) = popularity(n, seed);
        let m = n * avg_deg;
        // Two passes over one edge stream build the CSR arrays directly,
        // with no (src, dst) list of twice `adj`'s size: the first counts
        // each source's edges, the second drops each destination into
        // its source's row.
        let stream = rng.clone();
        let mut next = vec![0u32; n + 1];
        for _ in 0..m {
            if let Some((s, _)) = sample_edge(&mut rng, &perm) {
                next[s as usize + 1] += 1;
            }
        }
        for i in 0..n {
            next[i + 1] += next[i];
        }
        let mut adj = vec![0u32; next[n] as usize];
        let mut rng = stream;
        for _ in 0..m {
            if let Some((s, d)) = sample_edge(&mut rng, &perm) {
                adj[next[s as usize] as usize] = d;
                next[s as usize] += 1;
            }
        }
        // `next[v]` is now where row `v` ends. Sort and dedup each row,
        // compacting `adj` towards the front.
        let mut xadj = vec![0u32; n + 1];
        let (mut row, mut len) = (0, 0);
        for v in 0..n {
            let end = next[v] as usize;
            adj[row..end].sort_unstable();
            let mut last = None;
            for i in row..end {
                let d = adj[i];
                if last != Some(d) {
                    last = Some(d);
                    adj[len] = d;
                    len += 1;
                }
            }
            xadj[v + 1] = len as u32;
            row = end;
        }
        adj.truncate(len);
        // Every cached graph keeps `adj` resident; drop the duplicates'
        // slack.
        adj.shrink_to_fit();
        Graph { n, xadj, adj }
    }
}

/// The generator's random vertex permutation (popularity rank → vertex
/// id), and its RNG positioned at the start of the edge stream.
///
/// # Panics
///
/// Panics if `n == 0`.
fn popularity(n: usize, seed: u64) -> (Vec<u32>, StdRng) {
    assert!(n > 0, "graph must have vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    (perm, rng)
}

/// The next candidate edge of the stream: `None` for a self-loop.
fn sample_edge(rng: &mut StdRng, perm: &[u32]) -> Option<(u32, u32)> {
    let n = perm.len();
    let src = rng.gen_range(0..n as u32);
    // u^3 concentrates mass on low ranks: P(rank r) ~ r^(-2/3)
    // tail, a recognizable power law.
    let u: f64 = rng.gen_range(0.0f64..1.0);
    let rank = ((u * u * u) * n as f64) as usize;
    let dst = perm[rank.min(n - 1)];
    (src != dst).then_some((src, dst))
}

/// Addresses of a graph's data structures in simulated memory: the CSR
/// arrays plus `fields` per-vertex 8-byte value arrays (pagerank, levels,
/// labels, counters, ...).
#[derive(Debug, Clone)]
pub struct GraphLayout {
    /// Base of the CSR offset array (4 B per entry).
    pub xadj: Addr,
    /// Base of the CSR adjacency array (4 B per entry).
    pub adj: Addr,
    /// Bases of the per-vertex 8-byte field arrays.
    pub fields: Vec<Addr>,
}

impl GraphLayout {
    /// Reserves simulated address space for `g` with `fields` per-vertex
    /// arrays. Only PEI-visible field contents need to be written by the
    /// caller; the CSR arrays exist for address generation (their traffic
    /// is timing-only).
    pub fn alloc(store: &mut BackingStore, g: &Graph, fields: usize) -> GraphLayout {
        let xadj = store.alloc((g.n as u64 + 1) * 4, 64);
        let adj = store.alloc(g.edges() as u64 * 4, 64);
        let fields = (0..fields)
            .map(|_| store.alloc(g.n as u64 * 8, 64))
            .collect();
        GraphLayout { xadj, adj, fields }
    }

    /// Address of `xadj[v]`.
    pub fn xadj_addr(&self, v: usize) -> Addr {
        self.xadj.offset(v as u64 * 4)
    }

    /// Address of `adj[e]`.
    pub fn adj_addr(&self, e: usize) -> Addr {
        self.adj.offset(e as u64 * 4)
    }

    /// Address of field `f` of vertex `v`.
    pub fn field_addr(&self, f: usize, v: usize) -> Addr {
        self.fields[f].offset(v as u64 * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_is_well_formed() {
        let g = Graph::power_law(1000, 8, 42);
        assert_eq!(g.xadj.len(), g.n + 1);
        assert_eq!(g.xadj[0], 0);
        assert_eq!(*g.xadj.last().unwrap() as usize, g.edges());
        assert!(g.xadj.windows(2).all(|w| w[0] <= w[1]));
        assert!(g.adj.iter().all(|&d| (d as usize) < g.n));
        assert!(g.edges() > 4 * g.n, "should be reasonably dense");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = Graph::power_law(20_000, 10, 1);
        let mut indeg = vec![0u32; g.n];
        for &d in &g.adj {
            indeg[d as usize] += 1;
        }
        indeg.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = indeg.iter().map(|&x| x as u64).sum();
        let top1pct: u64 = indeg[..g.n / 100].iter().map(|&x| x as u64).sum();
        // Power-law: the hottest 1 % of vertices receive a large share of
        // all edges (uniform would give ~1 %).
        assert!(
            top1pct as f64 / total as f64 > 0.15,
            "top-1% share = {}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Graph::power_law(500, 6, 9);
        let b = Graph::power_law(500, 6, 9);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.xadj, b.xadj);
        let c = Graph::power_law(500, 6, 10);
        assert_ne!(a.adj, c.adj);
    }

    #[test]
    fn adj_is_exact_size() {
        let g = Graph::power_law(5000, 8, 11);
        assert_eq!(g.adj.capacity(), g.adj.len());
    }

    /// The two-pass build gives exactly the graph of collecting the edge
    /// stream, sorting it and dropping duplicates.
    #[test]
    fn matches_sorted_edge_list_reference() {
        for (n, avg_deg, seed) in [(1, 4, 0), (300, 3, 5), (20_000, 10, 24301)] {
            let (perm, mut rng) = popularity(n, seed);
            let mut edges: Vec<(u32, u32)> = (0..n * avg_deg)
                .filter_map(|_| sample_edge(&mut rng, &perm))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let mut xadj = vec![0u32; n + 1];
            for &(s, _) in &edges {
                xadj[s as usize + 1] += 1;
            }
            for i in 0..n {
                xadj[i + 1] += xadj[i];
            }
            let adj: Vec<u32> = edges.iter().map(|&(_, d)| d).collect();
            let g = Graph::power_law(n, avg_deg, seed);
            assert_eq!((g.xadj, g.adj), (xadj, adj), "n = {n}");
        }
    }

    #[test]
    fn succ_matches_csr() {
        let g = Graph::power_law(100, 4, 3);
        let mut count = 0;
        for v in 0..g.n {
            count += g.succ(v).len();
            assert_eq!(g.succ(v).len(), g.out_degree(v));
        }
        assert_eq!(count, g.edges());
    }

    #[test]
    fn layout_addresses_are_disjoint() {
        let mut store = BackingStore::new();
        let g = Graph::power_law(100, 4, 3);
        let l = GraphLayout::alloc(&mut store, &g, 2);
        let f0 = l.field_addr(0, 0).0;
        let f0_end = l.field_addr(0, 99).0 + 8;
        let f1 = l.field_addr(1, 0).0;
        assert!(f0_end <= f1, "field arrays must not overlap");
        assert!(l.xadj.0 < l.adj.0);
        assert_eq!(l.field_addr(0, 5).0 - f0, 40);
    }
}
