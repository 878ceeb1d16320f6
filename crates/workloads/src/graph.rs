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
use std::sync::atomic::{AtomicU32, Ordering};

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
    /// The build runs on up to one core per part of the edge stream (see
    /// `power_law_parts` for how the parts are built and why the graph
    /// does not depend on their number). The part count is a machine
    /// fact, not an option: the cores [`std::thread::available_parallelism`]
    /// reports, capped so each part has at least `MIN_EDGES_PER_PART`
    /// candidate edges and the parts' per-vertex counters together stay
    /// within half of `adj`. Small graphs are built in one part on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if `n * avg_deg` exceeds `u32::MAX`.
    pub fn power_law(n: usize, avg_deg: usize, seed: u64) -> Graph {
        let most = (n.saturating_mul(avg_deg) / MIN_EDGES_PER_PART).min(avg_deg / 2);
        let parts = if most > 1 {
            most.min(std::thread::available_parallelism().map_or(1, |c| c.get()))
        } else {
            1
        };
        power_law_parts(n, avg_deg, seed, parts)
    }
}

/// Fewest candidate edges worth a part of their own. A second part saved
/// 18–42 % of a build with a core idle and cost 4–8 % with none idle (a
/// grid worker building while the others simulate); below this size per
/// part it saves under 3 ms a build, so small graphs stay on the calling
/// thread (EXPERIMENTS.md, "Parallel graph generation").
const MIN_EDGES_PER_PART: usize = 1 << 17;

/// [`Graph::power_law`] built in `parts` segments of the edge stream.
///
/// The stream holds `m = n * avg_deg` candidate edges, each a uniform
/// source and a power-law destination; a self-loop candidate is no edge.
/// A *segment* is one of `parts` equal slices of that stream.
///
/// 1. *Count* (serial): walk the stream once, drawing only each
///    candidate's source. Keep each segment's RNG state at its start
///    and its per-source counts. Self-loops are counted too: telling
///    them apart would mean evaluating the destination.
/// 2. *Place*: row `v` starts at the sum of all counts of the rows
///    before it, and segment `p` writes its part of row `v` after the
///    slots of segments `0..p`. No two segments share a slot.
/// 3. *Scatter* (one thread per segment): replay the segment from its
///    saved RNG state and write each destination into the next slot of
///    its source's row. A self-loop writes the row's own id.
/// 4. *Sort and dedup* (one thread per vertex range): sort each row,
///    drop repeats and the row's own id, and compact the range. A last
///    serial pass moves the ranges together and fixes `xadj`.
///
/// Every row receives the same multiset of candidate destinations
/// however the stream is split, and every row ends sorted and free of
/// duplicates, so the graph is the same for every `parts`.
fn power_law_parts(n: usize, avg_deg: usize, seed: u64, parts: usize) -> Graph {
    let (perm, mut rng) = popularity(n, seed);
    let m = n
        .checked_mul(avg_deg)
        .and_then(|m| u32::try_from(m).ok())
        .expect("a graph's n * avg_deg must fit in u32") as usize;
    let mut segments = Vec::with_capacity(parts);
    let mut done = 0;
    for p in 1..=parts {
        let end = m * p / parts;
        let start = rng.clone();
        let mut next = vec![0u32; n];
        for _ in done..end {
            next[rng.gen_range(0..n as u32) as usize] += 1;
            rng.gen::<u64>(); // the destination's draw
        }
        segments.push((start, end - done, next));
        done = end;
    }
    // Turn each segment's counts into the slot of its first candidate in
    // each row; `xadj` holds the rows' starts until the dedup.
    let mut xadj = vec![0u32; n + 1];
    let mut slot = 0;
    for v in 0..n {
        xadj[v] = slot;
        for (_, _, next) in &mut segments {
            let count = next[v];
            next[v] = slot;
            slot += count;
        }
    }
    xadj[n] = slot;

    let mut adj = vec![0u32; m];
    {
        const _: () = assert!(std::mem::align_of::<AtomicU32>() == std::mem::align_of::<u32>());
        // SAFETY: `AtomicU32` has the same size, alignment (asserted
        // above) and bit validity as `u32`, and `adj` is exclusively
        // borrowed for the view's lifetime. Segments store to disjoint
        // slots, so the relaxed stores are plain writes that never race;
        // joining the segments' threads orders every store before `adj`
        // is read again. The view keeps the allocator's lazily zeroed
        // `vec![0; m]`: the safe way to share `adj`, a `Vec<AtomicU32>`
        // built element by element, zero-fills it serially before the
        // scatter and measured 16 % slower at two parts (EXPERIMENTS.md,
        // "Parallel graph generation").
        let slots: &[AtomicU32] =
            unsafe { &*(adj.as_mut_slice() as *mut [u32] as *const [AtomicU32]) };
        on_threads(segments, |(mut rng, len, mut next)| {
            for _ in 0..len {
                let src = rng.gen_range(0..n as u32) as usize;
                let dst = destination(&mut rng, &perm);
                slots[next[src] as usize].store(dst, Ordering::Relaxed);
                next[src] += 1;
            }
        });
    }

    // Split the rows into `parts` vertex ranges, each with its slice of
    // `adj` and its rows' ends in `xadj`.
    let mut ranges = Vec::with_capacity(parts);
    let (mut rest_adj, mut rest_ends) = (adj.as_mut_slice(), &mut xadj[1..]);
    let (mut lo, mut base) = (0, 0);
    for p in 1..=parts {
        let hi = n * p / parts;
        let (ends, tail) = std::mem::take(&mut rest_ends).split_at_mut(hi - lo);
        rest_ends = tail;
        let end = ends.last().map_or(base, |&e| e as usize);
        let (rows, tail) = std::mem::take(&mut rest_adj).split_at_mut(end - base);
        rest_adj = tail;
        ranges.push((lo, base, rows, ends));
        (lo, base) = (hi, end);
    }
    // Each range sorts and dedups its rows in place, leaving each row's
    // end relative to the range's compacted rows.
    let kept = on_threads(ranges, |(lo, base, rows, ends)| {
        let (mut start, mut len) = (0, 0);
        for (v, end) in (lo as u32..).zip(ends.iter_mut()) {
            let stop = *end as usize - base;
            rows[start..stop].sort_unstable();
            let mut last = None;
            for i in start..stop {
                let d = rows[i];
                if d != v && last != Some(d) {
                    last = Some(d);
                    rows[len] = d;
                    len += 1;
                }
            }
            *end = len as u32;
            start = stop;
        }
        (lo..lo + ends.len(), base, len)
    });
    let mut len = 0;
    for (vertices, base, kept) in kept {
        if base > len {
            adj.copy_within(base..base + kept, len);
        }
        for end in &mut xadj[vertices.start + 1..=vertices.end] {
            *end += len as u32;
        }
        len += kept;
    }
    adj.truncate(len);
    // Every cached graph keeps `adj` resident; drop the duplicates'
    // slack.
    adj.shrink_to_fit();
    Graph { n, xadj, adj }
}

/// Runs `work` on every item, the first on the calling thread and each
/// other on a scoped thread of its own; returns the results in item
/// order.
fn on_threads<T: Send, R: Send>(items: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let work = &work;
    let mut items = items.into_iter();
    std::thread::scope(|s| {
        let first = items.next();
        let others: Vec<_> = items.map(|item| s.spawn(move || work(item))).collect();
        first
            .map(work)
            .into_iter()
            .chain(others.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    })
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

/// A candidate edge's destination, the second of its two draws (the
/// first is its uniform source).
fn destination(rng: &mut StdRng, perm: &[u32]) -> u32 {
    let n = perm.len();
    // u^3 concentrates mass on low ranks: P(rank r) ~ r^(-2/3)
    // tail, a recognizable power law.
    let u: f64 = rng.gen_range(0.0f64..1.0);
    let rank = ((u * u * u) * n as f64) as usize;
    perm[rank.min(n - 1)]
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

    /// The reference edge stream: the next candidate edge, `None` for a
    /// self-loop.
    fn sample_edge(rng: &mut StdRng, perm: &[u32]) -> Option<(u32, u32)> {
        let n = perm.len();
        let src = rng.gen_range(0..n as u32);
        let u: f64 = rng.gen_range(0.0f64..1.0);
        let rank = ((u * u * u) * n as f64) as usize;
        let dst = perm[rank.min(n - 1)];
        (src != dst).then_some((src, dst))
    }

    /// The segment build gives exactly the graph of collecting the edge
    /// stream, sorting it and dropping duplicates, at the default part
    /// count and at three parts.
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
            assert_eq!((g.xadj, g.adj), (xadj.clone(), adj.clone()), "n = {n}");
            let g = power_law_parts(n, avg_deg, seed, 3);
            assert_eq!((g.xadj, g.adj), (xadj, adj), "n = {n}, 3 parts");
        }
    }

    /// The graph does not depend on the part count, including more parts
    /// than rows and segments shorter than one row.
    #[test]
    fn parts_do_not_change_the_graph() {
        for (n, avg_deg, seed) in [(1, 4, 0), (2, 3, 1), (300, 3, 5), (20_000, 10, 24301)] {
            let one = power_law_parts(n, avg_deg, seed, 1);
            for parts in 2..=5 {
                let g = power_law_parts(n, avg_deg, seed, parts);
                assert_eq!(g.xadj, one.xadj, "n = {n}, {parts} parts");
                assert_eq!(g.adj, one.adj, "n = {n}, {parts} parts");
                assert_eq!(g.adj.capacity(), g.adj.len(), "n = {n}, {parts} parts");
            }
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
