//! Per-rank flat address spaces.
//!
//! Each simulated process owns an [`AddressSpace`]: a flat byte array
//! addressed by [`Va`] (virtual address). Every copy the schemes perform
//! — packing, RDMA placement, unpacking — really moves bytes here, so an
//! incorrect protocol produces observably wrong data, not just wrong
//! timings.
//!
//! Allocation is a bump allocator with alignment; benchmarks that model
//! "a fresh buffer every iteration" (Fig. 14) simply keep allocating.
//!
//! # Backing-store recycling
//!
//! Spaces are hundreds of megabytes of *virtual* memory but touch only
//! a sliver of it. A fresh `vec![0; cap]` is a lazy `mmap`, so every
//! byte the simulation writes pays a first-touch page fault — and a
//! short-lived space (one per rank per benchmark iteration) would pay
//! the whole fault bill again each time, dwarfing the simulated work.
//! A space that outlives its run (its cluster is recycled) is therefore
//! [reset](AddressSpace::reset) in place instead: a **dirty page
//! bitmap** (one bit per 4 KiB page, maintained by every mutable
//! access) names exactly the pages that can differ from zero, and the
//! reset re-zeros those and keeps the warm, already faulted-in buffer.
//! Observable behaviour is identical to a fresh zeroed allocation.

use crate::error::MemError;

/// A virtual address inside one rank's [`AddressSpace`].
pub type Va = u64;

/// Dirty-tracking granularity (one page).
const PAGE: u64 = 4096;

/// Flat byte memory for one simulated rank.
#[derive(Debug)]
pub struct AddressSpace {
    mem: Vec<u8>,
    brk: u64,
    allocs: u64,
    /// One bit per page; set when a mutable access may have written
    /// the page. Exact (no over-approximation), so a reset re-zeros
    /// only bytes that were really reachable by a write.
    dirty: Vec<u64>,
    /// True once the buffer has served a previous tenancy.
    recycled: bool,
    /// Bytes re-zeroed when the current tenancy began.
    zeroed: u64,
}

/// Bitmap words needed for `capacity` bytes of pages.
fn bitmap_words(capacity: u64) -> usize {
    (capacity.div_ceil(PAGE) as usize).div_ceil(64)
}

impl AddressSpace {
    /// Creates an address space of `capacity` bytes, zero-initialized.
    ///
    /// Address 0 is reserved (never returned by [`Self::alloc`]) so that
    /// 0 can be used as a null address in protocol messages.
    pub fn new(capacity: u64) -> Self {
        let mut space = Self {
            mem: vec![0u8; capacity as usize],
            brk: 0,
            allocs: 0,
            dirty: vec![0u64; bitmap_words(capacity)],
            recycled: false,
            zeroed: 0,
        };
        space.reset();
        space
    }

    /// Starts a new tenancy in place: dirty pages re-zeroed, bump
    /// pointer back at the null guard, allocation count cleared. The
    /// buffer itself is kept, so its pages stay faulted in; observable
    /// contents afterwards are all-zero, as from a fresh space. A
    /// space nothing was allocated in or written to stays in its
    /// current tenancy.
    pub fn reset(&mut self) {
        let capacity = self.mem.len() as u64;
        let mut zeroed = 0u64;
        for (w, slot) in self.dirty.iter_mut().enumerate() {
            let mut word = std::mem::take(slot);
            while word != 0 {
                let page = (w as u64) * 64 + word.trailing_zeros() as u64;
                let lo = page * PAGE;
                let hi = (lo + PAGE).min(capacity);
                self.mem[lo as usize..hi as usize].fill(0);
                zeroed += hi - lo;
                word &= word - 1;
            }
        }
        if self.allocs > 0 || zeroed > 0 {
            self.recycled = true;
            self.zeroed = zeroed;
        }
        self.brk = 64; // reserve a null guard region
        self.allocs = 0;
    }

    /// How the current tenancy's backing store was obtained:
    /// `(fresh allocations, reuses, bytes re-zeroed)` — `(1, 0, 0)`
    /// for a newly built space, `(0, 1, bytes)` once a reset recycled
    /// it.
    pub fn recycle_stats(&self) -> (u64, u64, u64) {
        let r = u64::from(self.recycled);
        (1 - r, r, self.zeroed)
    }

    /// Records that `[addr, addr+len)` may have been written by
    /// setting the covered pages' bits. Bounds were validated by the
    /// caller.
    fn mark_dirty(&mut self, addr: Va, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE;
        let last = (addr + len - 1) / PAGE;
        let (fw, fb) = ((first / 64) as usize, first % 64);
        let (lw, lb) = ((last / 64) as usize, last % 64);
        if fw == lw {
            self.dirty[fw] |= (!0u64 << fb) & (!0u64 >> (63 - lb));
        } else {
            self.dirty[fw] |= !0u64 << fb;
            for w in &mut self.dirty[fw + 1..lw] {
                *w = !0;
            }
            self.dirty[lw] |= !0u64 >> (63 - lb);
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.mem.len() as u64
    }

    /// Bytes still available to the allocator.
    pub fn remaining(&self) -> u64 {
        self.capacity() - self.brk
    }

    /// Number of allocations performed.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// Allocates `len` bytes aligned to `align` (a power of two).
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<Va, MemError> {
        debug_assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        let end = base.checked_add(len).ok_or(MemError::OutOfMemory {
            requested: len,
            remaining: self.remaining(),
        })?;
        if end > self.capacity() {
            return Err(MemError::OutOfMemory {
                requested: len,
                remaining: self.remaining(),
            });
        }
        self.brk = end;
        self.allocs += 1;
        Ok(base)
    }

    /// Allocates `len` bytes page-aligned (4 KiB).
    pub fn alloc_page_aligned(&mut self, len: u64) -> Result<Va, MemError> {
        self.alloc(len, 4096)
    }

    fn check(&self, addr: Va, len: u64) -> Result<(), MemError> {
        let end = addr.checked_add(len).ok_or(MemError::OutOfBounds {
            addr,
            len,
            capacity: self.capacity(),
        })?;
        if end > self.capacity() {
            return Err(MemError::OutOfBounds {
                addr,
                len,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }

    /// Immutable view of `[addr, addr+len)`.
    pub fn slice(&self, addr: Va, len: u64) -> Result<&[u8], MemError> {
        self.check(addr, len)?;
        Ok(&self.mem[addr as usize..(addr + len) as usize])
    }

    /// Mutable view of `[addr, addr+len)`.
    ///
    /// Conservatively marks the whole range dirty — keep views as
    /// narrow as the write actually needs, or recycled spaces pay to
    /// re-zero bytes that were never touched.
    pub fn slice_mut(&mut self, addr: Va, len: u64) -> Result<&mut [u8], MemError> {
        self.check(addr, len)?;
        self.mark_dirty(addr, len);
        Ok(&mut self.mem[addr as usize..(addr + len) as usize])
    }

    /// Copies `data` into memory at `addr`.
    pub fn write(&mut self, addr: Va, data: &[u8]) -> Result<(), MemError> {
        self.slice_mut(addr, data.len() as u64)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn read(&self, addr: Va, len: u64) -> Result<Vec<u8>, MemError> {
        Ok(self.slice(addr, len)?.to_vec())
    }

    /// Copies `len` bytes within this address space (non-overlapping
    /// regions; overlapping copies are a protocol bug and panic in debug
    /// builds).
    pub fn copy_within(&mut self, src: Va, dst: Va, len: u64) -> Result<(), MemError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        debug_assert!(
            src + len <= dst || dst + len <= src || src == dst,
            "overlapping copy_within"
        );
        self.mark_dirty(dst, len);
        self.mem
            .copy_within(src as usize..(src + len) as usize, dst as usize);
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `byte`.
    pub fn fill(&mut self, addr: Va, len: u64, byte: u8) -> Result<(), MemError> {
        self.slice_mut(addr, len)?.fill(byte);
        Ok(())
    }
}

/// Copies bytes between two address spaces — the functional half of an
/// RDMA operation. `src` and `dst` may belong to different ranks.
pub fn copy_between(
    src: &AddressSpace,
    src_addr: Va,
    dst: &mut AddressSpace,
    dst_addr: Va,
    len: u64,
) -> Result<(), MemError> {
    let data = src.slice(src_addr, len)?;
    dst.slice_mut(dst_addr, len)?.copy_from_slice(data);
    Ok(())
}

/// Copies a gather list into a scatter list — the placement half of an
/// RDMA transfer, with no staging buffer in between. Each list is a
/// sequence of `(addr, len)` ranges; `src` reads the gather side, and
/// `dst` names the space that receives the scatter side, or `None`
/// when source and destination are one space (a rank addressing
/// itself), which then copies with [`AddressSpace::copy_within`].
///
/// Bytes are placed in list order until the gather list is exhausted;
/// the scatter list may hold more room than that. Returns the bytes
/// copied. A scatter list with less room than the gather list holds
/// fails with [`MemError::OutOfBounds`] naming the unplaced rest of
/// the gather element, `capacity` being the scatter list's room.
pub fn copy_sg(
    src: &mut AddressSpace,
    gather: impl IntoIterator<Item = (Va, u64)>,
    dst: Option<&mut AddressSpace>,
    scatter: impl IntoIterator<Item = (Va, u64)>,
) -> Result<u64, MemError> {
    match dst {
        Some(dst) => zip_pieces(gather, scatter, |s, d, n| copy_between(src, s, dst, d, n)),
        None => zip_pieces(gather, scatter, |s, d, n| src.copy_within(s, d, n)),
    }
}

/// Walks a gather and a scatter list in lockstep and calls `copy(src,
/// dst, len)` once per piece that is contiguous on both sides.
fn zip_pieces(
    gather: impl IntoIterator<Item = (Va, u64)>,
    scatter: impl IntoIterator<Item = (Va, u64)>,
    mut copy: impl FnMut(Va, Va, u64) -> Result<(), MemError>,
) -> Result<u64, MemError> {
    let mut scatter = scatter.into_iter();
    let (mut d_addr, mut d_left) = (0, 0);
    let mut total = 0;
    for (mut s_addr, mut s_left) in gather {
        while s_left > 0 {
            while d_left == 0 {
                let Some(next) = scatter.next() else {
                    return Err(MemError::OutOfBounds {
                        addr: s_addr,
                        len: s_left,
                        capacity: total,
                    });
                };
                (d_addr, d_left) = next;
            }
            let n = s_left.min(d_left);
            copy(s_addr, d_addr, n)?;
            (s_addr, s_left) = (s_addr + n, s_left - n);
            (d_addr, d_left) = (d_addr + n, d_left - n);
            total += n;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut a = AddressSpace::new(1 << 20);
        let p = a.alloc(10, 1).unwrap();
        assert!(p >= 64, "null guard respected");
        let q = a.alloc(10, 4096).unwrap();
        assert_eq!(q % 4096, 0);
        assert!(q > p);
    }

    #[test]
    fn alloc_exhaustion_errors() {
        let mut a = AddressSpace::new(1024);
        assert!(a.alloc(512, 1).is_ok());
        let err = a.alloc(1024, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut a = AddressSpace::new(4096);
        let p = a.alloc(16, 8).unwrap();
        a.write(p, &[1, 2, 3, 4]).unwrap();
        assert_eq!(a.read(p, 4).unwrap(), vec![1, 2, 3, 4]);
        // untouched memory is zero
        assert_eq!(a.read(p + 4, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let a = AddressSpace::new(128);
        assert!(matches!(
            a.slice(120, 16).unwrap_err(),
            MemError::OutOfBounds { .. }
        ));
        // overflow-proof
        assert!(a.slice(u64::MAX - 4, 8).is_err());
    }

    #[test]
    fn copy_within_moves_bytes() {
        let mut a = AddressSpace::new(4096);
        let p = a.alloc(64, 8).unwrap();
        a.write(p, b"hello").unwrap();
        a.copy_within(p, p + 32, 5).unwrap();
        assert_eq!(a.read(p + 32, 5).unwrap(), b"hello");
    }

    #[test]
    fn copy_between_spaces() {
        let mut a = AddressSpace::new(4096);
        let mut b = AddressSpace::new(4096);
        let pa = a.alloc(8, 8).unwrap();
        let pb = b.alloc(8, 8).unwrap();
        a.write(pa, &[9; 8]).unwrap();
        copy_between(&a, pa, &mut b, pb, 8).unwrap();
        assert_eq!(b.read(pb, 8).unwrap(), vec![9; 8]);
    }

    /// Gather and scatter lists cut at different points place the
    /// gathered bytes in order, across spaces and within one.
    #[test]
    fn copy_sg_walks_both_lists_in_order() {
        let mut a = AddressSpace::new(4096);
        let src: Vec<u8> = (1..=10).collect();
        a.write(100, &src[..4]).unwrap();
        a.write(200, &src[4..]).unwrap();
        let gather = [(100, 4), (200, 6)];
        let scatter = [(1000, 3), (2000, 5), (3000, 8)];
        let mut b = AddressSpace::new(4096);
        assert_eq!(copy_sg(&mut a, gather, Some(&mut b), scatter), Ok(10));
        assert_eq!(b.read(1000, 3).unwrap(), [1, 2, 3]);
        assert_eq!(b.read(2000, 5).unwrap(), [4, 5, 6, 7, 8]);
        assert_eq!(b.read(3000, 8).unwrap(), [9, 10, 0, 0, 0, 0, 0, 0]);
        assert_eq!(copy_sg(&mut a, gather, None, scatter), Ok(10));
        assert_eq!(a.read(1000, 3).unwrap(), [1, 2, 3]);
        assert_eq!(a.read(2000, 5).unwrap(), [4, 5, 6, 7, 8]);
        assert_eq!(a.read(3000, 2).unwrap(), [9, 10]);
    }

    #[test]
    fn copy_sg_rejects_a_short_scatter_list() {
        let mut a = AddressSpace::new(4096);
        let mut b = AddressSpace::new(4096);
        assert_eq!(
            copy_sg(&mut a, [(100, 8)], Some(&mut b), [(200, 4), (300, 2)]),
            Err(MemError::OutOfBounds {
                addr: 106,
                len: 2,
                capacity: 6
            })
        );
    }

    #[test]
    fn fill_sets_bytes() {
        let mut a = AddressSpace::new(4096);
        let p = a.alloc(32, 8).unwrap();
        a.fill(p, 32, 0xAB).unwrap();
        assert_eq!(a.read(p, 32).unwrap(), vec![0xAB; 32]);
    }

    /// A recycled backing store must be indistinguishable from a fresh
    /// zeroed allocation, whatever the previous tenant wrote through
    /// (write, fill, copy_within, raw slice_mut).
    #[test]
    fn recycled_space_reads_all_zero() {
        let cap = 1u64 << 20;
        let mut a = AddressSpace::new(cap);
        a.write(100, &[0xFF; 64]).unwrap();
        a.fill(8192, 4096, 0xEE).unwrap();
        a.copy_within(100, cap - 200, 64).unwrap();
        a.slice_mut(500_000, 10).unwrap().fill(0xDD);
        a.reset();
        assert!(
            a.slice(0, cap).unwrap().iter().all(|&x| x == 0),
            "recycled space leaked previous contents"
        );
        assert_eq!(a.alloc(8, 8).unwrap(), 64, "bump pointer back at the guard");
    }

    #[test]
    fn recycling_reuses_buffers_and_zeroes_only_dirty_pages() {
        let cap = (1u64 << 20) + 12_288;
        let mut a = AddressSpace::new(cap);
        assert_eq!(a.recycle_stats(), (1, 0, 0));
        for i in 1..5u64 {
            a.write(4096 * i, &[1; 100]).unwrap();
            a.reset();
            // Each reset re-zeroed one dirty page, not the whole megabyte.
            assert_eq!(a.recycle_stats(), (0, 1, PAGE));
        }
        a.alloc(8, 8).unwrap();
        a.reset();
        assert_eq!(
            a.recycle_stats(),
            (0, 1, 0),
            "a clean tenancy re-zeros nothing"
        );
        let mut b = AddressSpace::new(cap);
        b.reset();
        assert_eq!(
            b.recycle_stats(),
            (1, 0, 0),
            "an unused space is still fresh"
        );
    }

    #[test]
    fn scattered_writes_recycle_to_all_zero() {
        let cap = 64u64 * 1024 * 1024;
        let mut a = AddressSpace::new(cap);
        // Scattered writes, including page- and word-boundary
        // straddles, across the whole space.
        for i in 0..500u64 {
            let addr = (i * 97_003) % (cap - 8);
            a.write(addr, &[0xA5; 8]).unwrap();
        }
        a.reset();
        assert!(
            a.slice(0, cap).unwrap().iter().all(|&x| x == 0),
            "dirty bitmap missed a written page"
        );
    }
}
