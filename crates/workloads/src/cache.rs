//! Process-wide cache of generated workload inputs.
//!
//! One Figure-6 cell simulates the *same* input under four machine
//! configurations (Ideal-Host, Host-Only, PIM-Only, Locality-Aware), and
//! the five graph workloads of one input size all read the same
//! power-law graph (Table 3). Without sharing, every `Workload::build`
//! call regenerates that graph from scratch, which dominates setup time
//! at paper scale. This module interns generated graphs behind [`Arc`]s
//! keyed by their full generation parameters `(n, avg_deg, seed)`, so
//! generation happens once per distinct input no matter how many
//! configurations, workloads, or worker threads ask for it.
//!
//! Lookups are single-flight: the first caller of a new key builds the
//! graph and every concurrent caller of that key waits for its result,
//! while callers of other keys go on (and build) unhindered. Fig. 2's
//! Host-Only and PIM-Only cells of one graph, run on two grid workers,
//! thus share one build instead of racing two.
//!
//! Correctness relies on generation being a pure function of the key
//! (see [`Graph::power_law`]): a cache hit is observationally identical
//! to a fresh build, which is what keeps parallel experiment tables
//! byte-identical to serial ones (EXPERIMENTS.md, "Determinism
//! contract").
//!
//! Entries stay until [`release`]d or [`clear`]ed. A batch of figure
//! cells releases each of its graphs when the last cell that reads it
//! finishes (`pei_bench::runner::run_specs`); a long-lived host such as
//! the `pei-serve` daemon keeps them resident across jobs.
//!
//! Non-graph inputs (hash-join relations, point sets, ...) are generated
//! inline by their workload constructors in a single linear pass; they
//! are cheap relative to graph construction and stay uncached.
//!
//! # Examples
//!
//! ```
//! use pei_workloads::cache;
//!
//! let a = cache::shared_power_law(500, 8, 42);
//! let b = cache::shared_power_law(500, 8, 42);
//! assert!(std::sync::Arc::ptr_eq(&a, &b), "second lookup is a hit");
//! ```

use crate::graph::Graph;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Generation parameters that fully determine a power-law graph:
/// `(n, avg_deg, seed)`.
pub type GraphKey = (usize, usize, u64);

/// One key's graph, set once by the caller that builds it.
type Slot = Arc<OnceLock<Arc<Graph>>>;

fn graph_cache() -> &'static Mutex<HashMap<GraphKey, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<GraphKey, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// How many times each key has been generated in this process.
fn build_counts() -> &'static Mutex<HashMap<GraphKey, usize>> {
    static COUNTS: OnceLock<Mutex<HashMap<GraphKey, usize>>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the power-law graph for `(n, avg_deg, seed)`, generating it
/// on first request and sharing the same [`Arc`] thereafter.
///
/// The cache lock is held only to find or insert the key's slot, never
/// during a build. The first caller of a new key builds it; concurrent
/// callers of the same key block until that build is done and get its
/// [`Arc`]. If the build panics, the slot stays empty and the next
/// caller builds again.
pub fn shared_power_law(n: usize, avg_deg: usize, seed: u64) -> Arc<Graph> {
    let key = (n, avg_deg, seed);
    let slot = Arc::clone(
        graph_cache()
            .lock()
            .expect("no graph-cache holder panics")
            .entry(key)
            .or_default(),
    );
    Arc::clone(slot.get_or_init(|| {
        *build_counts()
            .lock()
            .expect("no build-count holder panics")
            .entry(key)
            .or_default() += 1;
        Arc::new(Graph::power_law(n, avg_deg, seed))
    }))
}

/// Drops the cached graph of `key`, if any. Holders of its [`Arc`]
/// keep it alive; the next lookup of the key builds it again. Only peak
/// memory, never results, is affected.
pub fn release(key: GraphKey) {
    graph_cache()
        .lock()
        .expect("no graph-cache holder panics")
        .remove(&key);
}

/// Drops every cached input, releasing the memory. Entries regenerate
/// on demand; only peak memory, never results, is affected.
pub fn clear() {
    graph_cache().lock().unwrap().clear();
}

/// How many times [`shared_power_law`] has generated `key` in this
/// process: 1 while its first graph is cached, more once a released
/// or cleared key was asked for again.
pub fn builds(key: GraphKey) -> usize {
    build_counts()
        .lock()
        .expect("no build-count holder panics")
        .get(&key)
        .copied()
        .unwrap_or(0)
}

/// Number of distinct inputs currently interned (or being built).
pub fn len() -> usize {
    graph_cache().lock().unwrap().len()
}

/// Whether the cache is empty.
pub fn is_empty() -> bool {
    len() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_allocation() {
        let a = shared_power_law(100, 4, 0xdead);
        let b = shared_power_law(100, 4, 0xdead);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.n, 100);
    }

    #[test]
    fn distinct_keys_distinct_graphs() {
        let a = shared_power_law(100, 4, 1);
        let b = shared_power_law(100, 4, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.adj, b.adj);
    }

    #[test]
    fn cached_equals_fresh() {
        let cached = shared_power_law(200, 6, 77);
        let fresh = Graph::power_law(200, 6, 77);
        assert_eq!(cached.xadj, fresh.xadj);
        assert_eq!(cached.adj, fresh.adj);
    }

    #[test]
    fn shared_from_many_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| shared_power_law(300, 5, 0xbeef)))
            .collect();
        let graphs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for g in &graphs[1..] {
            assert_eq!(g.adj, graphs[0].adj);
        }
    }

    /// Eight threads released at once onto a new key build it once and
    /// all get the one result. The key is used by no other test: tests
    /// share the process-wide cache.
    #[test]
    fn racing_callers_share_one_build() {
        const KEY: GraphKey = (40_000, 10, 0x51f1);
        let start = std::sync::Barrier::new(8);
        let graphs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        shared_power_law(KEY.0, KEY.1, KEY.2)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(graphs.iter().all(|g| Arc::ptr_eq(g, &graphs[0])));
        assert_eq!(builds(KEY), 1);
    }

    /// A released key is built again on its next lookup, while an
    /// `Arc` taken before the release stays valid. The key is used by
    /// no other test.
    #[test]
    fn released_key_is_built_again() {
        const KEY: GraphKey = (300, 4, 0x7e1e);
        let before = shared_power_law(KEY.0, KEY.1, KEY.2);
        release(KEY);
        let after = shared_power_law(KEY.0, KEY.1, KEY.2);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(before.adj, after.adj);
        assert_eq!(builds(KEY), 2);
    }
}
