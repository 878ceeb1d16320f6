//! The functional backing store: the simulated machine's actual bytes.
//!
//! A sparse, page-granular memory. Workload generators allocate simulated
//! data structures here (through [`BackingStore::alloc`]) and both the
//! reference implementations and the simulated PCUs read/write the same
//! bytes, which is what lets integration tests check that PEI execution
//! produces bit-identical results to a sequential reference run.

use pei_engine::FastMap;
use pei_types::{Addr, BlockAddr, BLOCK_BYTES};

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Sparse paged physical memory plus a bump allocator for simulated heaps.
///
/// # Examples
///
/// ```
/// use pei_mem::BackingStore;
///
/// let mut mem = BackingStore::new();
/// let a = mem.alloc(1024, 64);
/// assert_eq!(a.0 % 64, 0);
/// mem.write_f64(a, 2.5);
/// assert_eq!(mem.read_f64(a), 2.5);
/// ```
#[derive(Debug, Default, Clone)]
pub struct BackingStore {
    pages: FastMap<u64, Box<[u8; PAGE_BYTES]>>,
    brk: u64,
}

impl BackingStore {
    /// Creates an empty store with the heap starting at 256 MiB (clear of
    /// the null page and of low fixed addresses tests like to use).
    pub fn new() -> Self {
        Self::with_base(0x1000_0000)
    }

    /// Creates an empty store whose heap starts at `base` (multiprogrammed
    /// experiments give each co-running workload a disjoint heap).
    pub fn with_base(base: u64) -> Self {
        BackingStore {
            pages: FastMap::default(),
            brk: base,
        }
    }

    /// Copies every materialized page of `other` into this store.
    ///
    /// # Panics
    ///
    /// Panics if the two stores have materialized overlapping pages —
    /// merging is for workloads built on disjoint heap bases.
    pub fn merge_from(&mut self, other: &BackingStore) {
        for (page, data) in &other.pages {
            assert!(
                self.pages.insert(*page, data.clone()).is_none(),
                "overlapping pages while merging backing stores"
            );
        }
        self.brk = self.brk.max(other.brk);
    }

    /// Allocates `bytes` of simulated memory aligned to `align` and returns
    /// its base address. Memory is zero-initialized on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.brk = (self.brk + align - 1) & !(align - 1);
        let base = self.brk;
        self.brk += bytes;
        Addr(base)
    }

    /// Allocates one cache block worth of memory, block-aligned.
    pub fn alloc_block(&mut self) -> Addr {
        self.alloc(BLOCK_BYTES as u64, BLOCK_BYTES as u64)
    }

    /// Current top of the simulated heap.
    pub fn heap_top(&self) -> Addr {
        Addr(self.brk)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES]))
    }

    /// Reads `buf.len()` bytes starting at `addr`. Untouched memory reads
    /// as zero.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let mut a = addr.0;
        let mut done = 0;
        while done < buf.len() {
            let off = (a & (PAGE_BYTES as u64 - 1)) as usize;
            let n = (PAGE_BYTES - off).min(buf.len() - done);
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            a += n as u64;
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let mut a = addr.0;
        let mut done = 0;
        while done < data.len() {
            let off = (a & (PAGE_BYTES as u64 - 1)) as usize;
            let n = (PAGE_BYTES - off).min(data.len() - done);
            self.page_mut(a)[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
            a += n as u64;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f64` at `addr`.
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: Addr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f32` at `addr`.
    pub fn read_f32(&self, addr: Addr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` at `addr`.
    pub fn write_f32(&mut self, addr: Addr, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Writes `vals` as consecutive little-endian `u32`s from `addr`, with
    /// one page lookup per page instead of one per value.
    pub fn write_u32s(&mut self, addr: Addr, vals: &[u32]) {
        self.write_le(addr, vals, |v| v.to_le_bytes());
    }

    /// Writes `vals` as consecutive little-endian `u64`s from `addr`.
    pub fn write_u64s(&mut self, addr: Addr, vals: &[u64]) {
        self.write_le(addr, vals, |v| v.to_le_bytes());
    }

    /// Writes `vals` as consecutive `f32`s from `addr`.
    pub fn write_f32s(&mut self, addr: Addr, vals: &[f32]) {
        self.write_le(addr, vals, |v| v.to_le_bytes());
    }

    /// Writes `vals` as consecutive `f64`s from `addr`.
    pub fn write_f64s(&mut self, addr: Addr, vals: &[f64]) {
        self.write_le(addr, vals, |v| v.to_le_bytes());
    }

    fn write_le<T: Copy, const N: usize>(
        &mut self,
        addr: Addr,
        mut vals: &[T],
        le: impl Fn(T) -> [u8; N],
    ) {
        let mut a = addr.0;
        while let Some(&first) = vals.first() {
            let off = (a & (PAGE_BYTES as u64 - 1)) as usize;
            let fit = ((PAGE_BYTES - off) / N).min(vals.len());
            if fit == 0 {
                // The value straddles a page boundary.
                self.write_bytes(Addr(a), &le(first));
                vals = &vals[1..];
                a += N as u64;
                continue;
            }
            let page = &mut self.page_mut(a)[off..off + fit * N];
            for (dst, &v) in page.chunks_exact_mut(N).zip(&vals[..fit]) {
                dst.copy_from_slice(&le(v));
            }
            vals = &vals[fit..];
            a += (fit * N) as u64;
        }
    }

    /// Copies out one whole cache block.
    pub fn read_block(&self, block: BlockAddr) -> [u8; BLOCK_BYTES] {
        let mut b = [0u8; BLOCK_BYTES];
        self.read_bytes(block.base(), &mut b);
        b
    }

    /// Overwrites one whole cache block.
    pub fn write_block(&mut self, block: BlockAddr, data: &[u8; BLOCK_BYTES]) {
        self.write_bytes(block.base(), data);
    }

    /// Number of 4 KiB pages materialized so far (footprint statistics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Relocates every materialized page through `map` (virtual page
    /// number → physical frame number). Used when the machine runs with a
    /// non-identity page table: workloads build data at virtual addresses
    /// and the simulated physical memory holds it at the mapped frames.
    ///
    /// # Panics
    ///
    /// Panics if `map` sends two materialized pages to the same frame
    /// (it must be injective).
    pub fn remap_pages(&mut self, map: impl Fn(u64) -> u64) {
        let old = std::mem::take(&mut self.pages);
        for (vpn, data) in old {
            assert!(
                self.pages.insert(map(vpn), data).is_none(),
                "page map is not injective at vpn {vpn:#x}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_first_read() {
        let mem = BackingStore::new();
        assert_eq!(mem.read_u64(Addr(0x5000)), 0);
        let mut buf = [1u8; 100];
        mem.read_bytes(Addr(0x1234), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn rw_round_trip_scalars() {
        let mut mem = BackingStore::new();
        mem.write_u64(Addr(8), 0xdead_beef_cafe_f00d);
        assert_eq!(mem.read_u64(Addr(8)), 0xdead_beef_cafe_f00d);
        mem.write_f64(Addr(16), -1.25e300);
        assert_eq!(mem.read_f64(Addr(16)), -1.25e300);
        mem.write_u32(Addr(24), 77);
        assert_eq!(mem.read_u32(Addr(24)), 77);
        mem.write_f32(Addr(28), 3.5);
        assert_eq!(mem.read_f32(Addr(28)), 3.5);
    }

    #[test]
    fn cross_page_write_read() {
        let mut mem = BackingStore::new();
        let addr = Addr(PAGE_BYTES as u64 - 3);
        let data: Vec<u8> = (0..10).collect();
        mem.write_bytes(addr, &data);
        let mut back = [0u8; 10];
        mem.read_bytes(addr, &mut back);
        assert_eq!(&back[..], &data[..]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn with_base_and_merge() {
        let mut a = BackingStore::new();
        let pa = a.alloc(64, 64);
        a.write_u64(pa, 1);
        let mut b = BackingStore::with_base(0x4000_0000);
        let pb = b.alloc(64, 64);
        b.write_u64(pb, 2);
        assert!(pb.0 >= 0x4000_0000);
        a.merge_from(&b);
        assert_eq!(a.read_u64(pa), 1);
        assert_eq!(a.read_u64(pb), 2);
        assert!(a.heap_top().0 >= 0x4000_0000);
    }

    #[test]
    #[should_panic(expected = "overlapping pages")]
    fn merge_rejects_overlap() {
        let mut a = BackingStore::new();
        let p = a.alloc(64, 64);
        a.write_u64(p, 1);
        let mut b = BackingStore::new();
        let q = b.alloc(64, 64);
        b.write_u64(q, 2);
        a.merge_from(&b);
    }

    #[test]
    fn alloc_respects_alignment_and_disjointness() {
        let mut mem = BackingStore::new();
        let a = mem.alloc(100, 64);
        let b = mem.alloc(10, 8);
        let c = mem.alloc(1, 4096);
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 8, 0);
        assert_eq!(c.0 % 4096, 0);
        assert!(b.0 >= a.0 + 100);
        assert!(c.0 >= b.0 + 10);
    }

    #[test]
    fn block_round_trip() {
        let mut mem = BackingStore::new();
        let addr = mem.alloc_block();
        let mut blk = [0u8; BLOCK_BYTES];
        for (i, b) in blk.iter_mut().enumerate() {
            *b = i as u8;
        }
        mem.write_block(addr.block(), &blk);
        assert_eq!(mem.read_block(addr.block()), blk);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_rejected() {
        BackingStore::new().alloc(8, 3);
    }
}
