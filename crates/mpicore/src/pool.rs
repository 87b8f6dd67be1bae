//! Pre-registered segment buffer pools (§4.2, §7.2).
//!
//! One large buffer is allocated page-aligned and registered once at MPI
//! initialization, then carved into fixed-size segment buffers handed
//! out LIFO (so recently used — cache-warm — buffers are reused first).
//! Exhaustion is counted; the protocol layer falls back to dynamic
//! allocation + on-the-fly registration, the second solution of §4.3.3.

use ibdt_memreg::{AddressSpace, MemError, RegTable, Va};
use std::collections::HashSet;

/// A pack/unpack staging buffer (pool segment or dynamic fallback).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageBuf {
    pub va: Va,
    pub len: u64,
    pub lkey: u32,
    pub rkey: u32,
    /// True when allocated dynamically (fallback path, §4.3.3).
    pub dynamic: bool,
}

/// A pool of equally sized, pre-registered segment buffers.
#[derive(Debug, Default)]
pub struct SegmentPool {
    seg_size: u64,
    base: Va,
    lkey: u32,
    rkey: u32,
    free: Vec<Va>,
    total: usize,
    exhaustions: u64,
    acquires: u64,
}

impl SegmentPool {
    /// Allocates and registers a pool of `total_size` bytes divided into
    /// `seg_size`-byte buffers.
    pub fn new(
        space: &mut AddressSpace,
        regs: &mut RegTable,
        total_size: u64,
        seg_size: u64,
    ) -> Result<Self, MemError> {
        let mut pool = Self::default();
        pool.reset(space, regs, total_size, seg_size)?;
        Ok(pool)
    }

    /// Carves the pool out of `space` and registers it: the backing
    /// region is allocated page-aligned, the free list refilled in
    /// place (capacity kept) and the counters zeroed. [`SegmentPool::new`]
    /// ends here too; world recycling calls it against a *reset* space
    /// and table, where deterministic allocation reproduces a fresh
    /// pool's base, keys and free-list order.
    pub fn reset(
        &mut self,
        space: &mut AddressSpace,
        regs: &mut RegTable,
        total_size: u64,
        seg_size: u64,
    ) -> Result<(), MemError> {
        assert!(seg_size > 0, "segment size must be positive");
        let count = total_size / seg_size;
        let base = space.alloc_page_aligned(count * seg_size)?;
        let reg = regs.register(base, count * seg_size);
        self.seg_size = seg_size;
        self.base = base;
        self.lkey = reg.lkey;
        self.rkey = reg.rkey;
        // LIFO with the lowest addresses on top.
        self.free.clear();
        self.free
            .extend((0..count).rev().map(|i| base + i * seg_size));
        self.total = count as usize;
        self.exhaustions = 0;
        self.acquires = 0;
        Ok(())
    }

    /// Segment size in bytes.
    pub fn seg_size(&self) -> u64 {
        self.seg_size
    }

    /// Local key of the pool registration.
    pub fn lkey(&self) -> u32 {
        self.lkey
    }

    /// Remote key of the pool registration.
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// Takes one segment buffer, or `None` when exhausted.
    pub fn acquire(&mut self) -> Option<Va> {
        match self.free.pop() {
            Some(va) => {
                self.acquires += 1;
                Some(va)
            }
            None => {
                self.exhaustions += 1;
                None
            }
        }
    }

    /// Takes up to `n` segment buffers (fewer when the pool runs dry).
    pub fn acquire_up_to(&mut self, n: usize) -> Vec<Va> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.acquire() {
                Some(va) => out.push(va),
                None => break,
            }
        }
        out
    }

    /// Returns a segment buffer to the pool.
    pub fn release(&mut self, va: Va) {
        debug_assert!(
            va >= self.base
                && va < self.base + (self.total as u64) * self.seg_size
                && (va - self.base).is_multiple_of(self.seg_size),
            "released address is not a pool segment"
        );
        debug_assert!(!self.free.contains(&va), "double release of pool segment");
        self.free.push(va);
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Total buffers in the pool.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Times [`Self::acquire`] found the pool empty.
    pub fn exhaustions(&self) -> u64 {
        self.exhaustions
    }

    /// Total successful acquires.
    pub fn acquires(&self) -> u64 {
        self.acquires
    }
}

/// Reusable host-side scratch buffers for the zero-allocation hot
/// path: packed-byte staging (`Vec<u8>`), block/SGE lists
/// (`Vec<(Va, u64)>`), block-length lists (`Vec<u64>`), stage-buffer
/// lists and index sets. Buffers are taken, used, and returned; their
/// capacity survives, so steady-state sends stop allocating after the
/// first few messages. Purely host-side — no modelled cost, no effect
/// on the virtual clock. The pool lives in its rank's state, so a
/// recycled cluster keeps every shelf warm across runs.
///
/// Byte buffers are shelved by size class — class `c` holds capacities
/// in `[2^c, 2^(c+1))` — and a take of `len` bytes pops the smallest
/// non-empty class that fits, found in O(1) from an occupancy bitmap,
/// so a small request never grows a buffer while large ones sit idle.
/// Every shelf is bounded ([`SHELF_BYTES`] per byte class,
/// [`SHELF_CAP`] containers per list shelf); a put beyond the bound
/// frees the buffer, so the pool's footprint cannot ratchet up.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// Byte buffers, indexed by size class.
    bytes: Vec<Vec<Vec<u8>>>,
    /// Bit `c` set when `bytes[c]` is non-empty.
    byte_classes: u64,
    blocks: Vec<Vec<(Va, u64)>>,
    lens: Vec<Vec<u64>>,
    stage: Vec<Vec<StageBuf>>,
    sets: Vec<HashSet<u32>>,
    reuses: u64,
    allocs: u64,
}

/// Minimum capacity of a pooled byte buffer (covers every control
/// message wire size).
const MIN_BYTES_CAP: usize = 64;

/// Capacity bytes one byte-buffer size class may shelve (at least two
/// buffers are kept in every class).
const SHELF_BYTES: usize = 8 << 20;

/// Containers one list shelf (blocks, lengths, stage lists, sets) may
/// hold.
const SHELF_CAP: usize = 256;

/// Size class of a buffer of capacity `cap` (> 0): `floor(log2 cap)`.
fn class_of(cap: usize) -> usize {
    cap.ilog2() as usize
}

/// A container a [`ScratchPool`] shelf holds: cleared on reuse, and
/// shelved only while it owns heap capacity.
trait Reusable: Default {
    fn clear(&mut self);
    fn capacity(&self) -> usize;
}

impl<T> Reusable for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }
}

impl Reusable for HashSet<u32> {
    fn clear(&mut self) {
        HashSet::clear(self);
    }
    fn capacity(&self) -> usize {
        HashSet::capacity(self)
    }
}

impl ScratchPool {
    /// Creates an empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes the reuse/alloc counters, keeping every shelved buffer
    /// (world recycling).
    pub fn reset_counters(&mut self) {
        self.reuses = 0;
        self.allocs = 0;
    }

    /// Takes a cleared container off `shelf`, or a new empty one.
    fn take<T: Reusable>(shelf: &mut Vec<T>, reuses: &mut u64, allocs: &mut u64) -> T {
        match shelf.pop() {
            Some(mut v) => {
                *reuses += 1;
                v.clear();
                v
            }
            None => {
                *allocs += 1;
                T::default()
            }
        }
    }

    /// Shelves `v` unless it holds no heap capacity or the shelf is
    /// full.
    fn put<T: Reusable>(shelf: &mut Vec<T>, v: T) {
        if v.capacity() > 0 && shelf.len() < SHELF_CAP {
            shelf.push(v);
        }
    }

    /// Takes a zeroed byte buffer of exactly `len` bytes, reusing the
    /// smallest shelved buffer whose class guarantees the capacity; a
    /// new buffer's capacity is `len` rounded up to a power of two (at
    /// least [`MIN_BYTES_CAP`]), so it returns to the class it serves.
    pub fn take_bytes(&mut self, len: usize) -> Vec<u8> {
        let need = len.max(MIN_BYTES_CAP).next_power_of_two();
        let fits = self.byte_classes & (u64::MAX << class_of(need));
        let mut v = if fits == 0 {
            self.allocs += 1;
            Vec::with_capacity(need)
        } else {
            let c = fits.trailing_zeros() as usize;
            let shelf = &mut self.bytes[c];
            let mut v = shelf.pop().expect("occupancy bit set");
            if shelf.is_empty() {
                self.byte_classes &= !(1 << c);
            }
            self.reuses += 1;
            v.clear();
            v
        };
        v.resize(len, 0);
        v
    }

    /// Returns a byte buffer to its size class's shelf; a buffer with
    /// no capacity, or one whose shelf is full, is freed.
    pub fn put_bytes(&mut self, v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        let c = class_of(v.capacity());
        if self.bytes.len() <= c {
            self.bytes.resize_with(c + 1, Vec::new);
        }
        let shelf = &mut self.bytes[c];
        if shelf.len() < (SHELF_BYTES >> c).max(2) {
            shelf.push(v);
            self.byte_classes |= 1 << c;
        }
    }

    /// `(containers, byte-buffer capacity)` currently shelved: what the
    /// pool holds between runs.
    pub fn pooled(&self) -> (usize, usize) {
        let byte_bufs = self.bytes.iter().flatten();
        let count = byte_bufs.clone().count()
            + self.blocks.len()
            + self.lens.len()
            + self.stage.len()
            + self.sets.len();
        (count, byte_bufs.map(Vec::capacity).sum())
    }

    /// Takes an empty block/SGE list, reusing returned capacity.
    pub fn take_blocks(&mut self) -> Vec<(Va, u64)> {
        Self::take(&mut self.blocks, &mut self.reuses, &mut self.allocs)
    }

    /// Returns a block/SGE list to the pool.
    pub fn put_blocks(&mut self, v: Vec<(Va, u64)>) {
        Self::put(&mut self.blocks, v);
    }

    /// Takes an empty block-length list, reusing returned capacity.
    pub fn take_lens(&mut self) -> Vec<u64> {
        Self::take(&mut self.lens, &mut self.reuses, &mut self.allocs)
    }

    /// Returns a block-length list to the pool.
    pub fn put_lens(&mut self, v: Vec<u64>) {
        Self::put(&mut self.lens, v);
    }

    /// Takes an empty stage-buffer list, reusing returned capacity.
    pub(crate) fn take_stage(&mut self) -> Vec<StageBuf> {
        Self::take(&mut self.stage, &mut self.reuses, &mut self.allocs)
    }

    /// Returns a stage-buffer list for reuse.
    pub(crate) fn put_stage(&mut self, v: Vec<StageBuf>) {
        Self::put(&mut self.stage, v);
    }

    /// Takes an empty index set, reusing a returned set's table.
    pub(crate) fn take_set(&mut self) -> HashSet<u32> {
        Self::take(&mut self.sets, &mut self.reuses, &mut self.allocs)
    }

    /// Returns an index set for reuse.
    pub(crate) fn put_set(&mut self, v: HashSet<u32>) {
        Self::put(&mut self.sets, v);
    }

    /// Times a take was served from a returned buffer.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Times a take had to allocate fresh.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(total: u64, seg: u64) -> (AddressSpace, RegTable, SegmentPool) {
        let mut space = AddressSpace::new(1 << 24);
        let mut regs = RegTable::new();
        let pool = SegmentPool::new(&mut space, &mut regs, total, seg).unwrap();
        (space, regs, pool)
    }

    #[test]
    fn pool_carves_expected_count() {
        let (_, _, pool) = fixture(1 << 20, 128 * 1024);
        assert_eq!(pool.total(), 8);
        assert_eq!(pool.available(), 8);
    }

    #[test]
    fn acquire_release_cycle() {
        let (_, _, mut pool) = fixture(4 * 4096, 4096);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.available(), 2);
        pool.release(a);
        assert_eq!(pool.available(), 3);
        // LIFO: the released buffer comes back first.
        assert_eq!(pool.acquire().unwrap(), a);
    }

    #[test]
    fn exhaustion_counted() {
        let (_, _, mut pool) = fixture(2 * 4096, 4096);
        assert!(pool.acquire().is_some());
        assert!(pool.acquire().is_some());
        assert!(pool.acquire().is_none());
        assert!(pool.acquire().is_none());
        assert_eq!(pool.exhaustions(), 2);
        assert_eq!(pool.acquires(), 2);
    }

    #[test]
    fn acquire_up_to_partial() {
        let (_, _, mut pool) = fixture(3 * 4096, 4096);
        let got = pool.acquire_up_to(5);
        assert_eq!(got.len(), 3);
        assert_eq!(pool.exhaustions(), 1);
    }

    #[test]
    fn segments_are_disjoint_and_registered() {
        let (_, regs, mut pool) = fixture(8 * 4096, 4096);
        let mut seen = std::collections::HashSet::new();
        while let Some(va) = pool.acquire() {
            assert!(seen.insert(va), "duplicate segment");
            regs.check(pool.lkey(), va, 4096).unwrap();
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a pool segment")]
    fn release_of_foreign_address_panics_in_debug() {
        let (_, _, mut pool) = fixture(2 * 4096, 4096);
        pool.release(0xDEAD_BEEF);
    }
}

#[cfg(test)]
mod scratch_tests {
    use super::ScratchPool;

    #[test]
    fn bytes_round_trip_reuses_capacity() {
        let mut p = ScratchPool::new();
        let a = p.take_bytes(64);
        assert_eq!(a.len(), 64);
        assert_eq!((p.reuses(), p.allocs()), (0, 1));
        p.put_bytes(a);
        let b = p.take_bytes(32);
        assert_eq!(b.len(), 32);
        assert!(b.iter().all(|&x| x == 0), "reused buffer is zeroed");
        assert_eq!((p.reuses(), p.allocs()), (1, 1));
    }

    #[test]
    fn blocks_round_trip() {
        let mut p = ScratchPool::new();
        let mut v = p.take_blocks();
        v.push((0x1000, 8));
        p.put_blocks(v);
        let w = p.take_blocks();
        assert!(w.is_empty(), "reused list comes back cleared");
        assert!(w.capacity() >= 1, "capacity survives the round trip");
        assert_eq!((p.reuses(), p.allocs()), (1, 1));
    }

    #[test]
    fn lens_round_trip() {
        let mut p = ScratchPool::new();
        let mut v = p.take_lens();
        v.push(512);
        p.put_lens(v);
        let w = p.take_lens();
        assert!(w.is_empty(), "reused list comes back cleared");
        assert!(w.capacity() >= 1, "capacity survives the round trip");
        assert_eq!((p.reuses(), p.allocs()), (1, 1));
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut p = ScratchPool::new();
        p.put_bytes(Vec::new());
        p.put_blocks(Vec::new());
        p.put_lens(Vec::new());
        let _ = p.take_bytes(1);
        assert_eq!((p.reuses(), p.allocs()), (0, 1));
    }
}
