//! Virtual-memory support (§4.4): per-core TLBs and the virtual→physical
//! page mapping.
//!
//! PEIs use virtual addresses just like normal instructions; the issuing
//! core translates the (single) target cache block through its own TLB, so
//! the PMU, caches, and memory cubes all operate on physical addresses and
//! no address-translation hardware is needed in memory. The paper's §4.4
//! claim that a PEI costs exactly one TLB access — guaranteed by the
//! single-cache-block restriction — is checked by the test suite.

use pei_types::{Addr, Cycle};

/// Page size: 4 KiB.
pub const PAGE_SHIFT: u32 = 12;

/// TLB parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Fully associative entries (64, a typical L1 DTLB).
    pub entries: usize,
    /// Page-table-walk penalty on a miss, in host cycles.
    pub walk_latency: Cycle,
}

impl TlbConfig {
    /// A typical configuration: 64 entries, 120-cycle walk.
    pub fn typical() -> Self {
        TlbConfig {
            entries: 64,
            walk_latency: 120,
        }
    }
}

/// The virtual→physical page mapping of the simulated process.
///
/// `Identity` maps pages one-to-one (the default; virtual addresses are
/// usable as physical everywhere). `Shuffled` applies a seeded Feistel
/// permutation to the page number, scattering consecutive virtual pages
/// across physical memory the way a long-running OS would — which changes
/// DRAM channel/bank interleaving and L3 set mapping, without breaking
/// any invariant (the permutation is bijective).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMap {
    /// Physical = virtual.
    Identity,
    /// Seeded bijective scramble of the low 32 bits of the page number.
    Shuffled {
        /// Permutation seed.
        seed: u64,
    },
}

impl PageMap {
    /// Translates a virtual page number to its physical frame number.
    pub fn translate_page(self, vpn: u64) -> u64 {
        match self {
            PageMap::Identity => vpn,
            PageMap::Shuffled { seed } => {
                // 4-round Feistel network over the low 32 bits of the VPN:
                // bijective for any round function. High bits pass through.
                let mut l = (vpn & 0xffff) as u32;
                let mut r = ((vpn >> 16) & 0xffff) as u32;
                for round in 0..4u64 {
                    let k = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(round);
                    let f = (r as u64)
                        .wrapping_mul(0x2545_f491_4f6c_dd1d)
                        .wrapping_add(k);
                    let f = ((f >> 24) & 0xffff) as u32;
                    let nl = r;
                    r = l ^ f;
                    l = nl;
                }
                (vpn & !0xffff_ffff) | ((r as u64) << 16) | l as u64
            }
        }
    }

    /// Translates a full byte address (page offset preserved).
    pub fn translate(self, vaddr: Addr) -> Addr {
        let vpn = vaddr.0 >> PAGE_SHIFT;
        let off = vaddr.0 & ((1 << PAGE_SHIFT) - 1);
        Addr((self.translate_page(vpn) << PAGE_SHIFT) | off)
    }
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    lru: u32,
}

/// A fully associative, LRU translation lookaside buffer.
///
/// # Examples
///
/// ```
/// use pei_cpu::tlb::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::typical());
/// assert!(!tlb.access(0x1000_0000 >> 12)); // cold miss (fills)
/// assert!(tlb.access(0x1000_0000 >> 12)); // hit
/// ```
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    entries: Vec<TlbEntry>,
    clock: u32,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            cfg,
            entries: Vec::with_capacity(cfg.entries),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `vpn`, returning `true` on a hit. A miss fills the entry
    /// (evicting the LRU one if full), so the retry after the walk hits.
    pub fn access(&mut self, vpn: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.iter_mut().find(|e| e.vpn == vpn) {
            e.lru = clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.cfg.entries {
            self.entries.push(TlbEntry { vpn, lru: clock });
        } else {
            let victim = self
                .entries
                .iter_mut()
                .min_by_key(|e| e.lru)
                .expect("nonempty");
            *victim = TlbEntry { vpn, lru: clock };
        }
        false
    }

    /// Page-walk penalty in host cycles.
    pub fn walk_latency(&self) -> Cycle {
        self.cfg.walk_latency
    }

    /// `(hits, misses)` so far. Their sum is the total translation count —
    /// the §4.4 "one TLB access per PEI" check uses it.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill_and_lru_eviction() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            walk_latency: 100,
        });
        assert!(!t.access(1));
        assert!(!t.access(2));
        assert!(t.access(1)); // 2 is now LRU
        assert!(!t.access(3)); // evicts 2
        assert!(t.access(1));
        assert!(!t.access(2), "2 was evicted");
        assert_eq!(t.stats(), (2, 4));
    }

    #[test]
    fn identity_map_is_identity() {
        for a in [0u64, 0x1000, 0xdead_beef, u64::MAX >> 1] {
            assert_eq!(PageMap::Identity.translate(Addr(a)), Addr(a));
        }
    }

    #[test]
    fn shuffled_map_is_bijective_on_a_window() {
        let map = PageMap::Shuffled { seed: 42 };
        let mut seen = pei_engine::FastSet::default();
        for vpn in 0..100_000u64 {
            assert!(
                seen.insert(map.translate_page(vpn)),
                "collision at vpn {vpn}"
            );
        }
    }

    #[test]
    fn shuffled_map_preserves_page_offsets() {
        let map = PageMap::Shuffled { seed: 7 };
        let v = Addr(0x1234_5678);
        let p = map.translate(v);
        assert_eq!(p.0 & 0xfff, v.0 & 0xfff);
        assert_ne!(p, v, "seed 7 should move this page");
    }

    #[test]
    fn shuffled_maps_differ_by_seed() {
        let a = PageMap::Shuffled { seed: 1 };
        let b = PageMap::Shuffled { seed: 2 };
        let moved = (0..1000u64)
            .filter(|&vpn| a.translate_page(vpn) != b.translate_page(vpn))
            .count();
        assert!(moved > 900);
    }
}
