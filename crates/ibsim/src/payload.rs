//! Reference-counted payload slabs: the shared-memory transport's
//! bounce segment.
//!
//! In double-copy mode a shared-memory sender copies its bytes into a
//! bounce segment and completes; the receiver copies them out later.
//! [`ShmChannel`](crate::shm::ShmChannel) models that segment as a
//! [`Payload`]. (The IB fabric stages nothing: it places each transfer
//! straight from the sender's memory at arrival.) Rather than a fresh
//! `Vec<u8>` per work request, a [`Payload`] is a slab handle:
//!
//! * the backing buffer is **pooled**: the last handle returns the
//!   whole `Arc<Slab>` — buffer *and* refcount control block — to a
//!   thread-local free list, and the next gather reuses both, so
//!   steady-state traffic allocates nothing;
//! * the handle is **cheaply cloneable** (`Arc` inside) with byte-range
//!   *views* ([`Payload::view`]), so sharing a payload never clones its
//!   bytes;
//! * scatter reads straight from the slab into the destination
//!   [`AddressSpace`](ibdt_memreg::AddressSpace) — no intermediate
//!   buffer.
//!
//! The pool is deliberately thread-local and unsynchronized: the
//! simulator is single-threaded per world, and tests that run many
//! worlds in parallel each get their own pool. Pool occupancy is
//! bounded ([`MAX_POOLED`]) so pathological bursts don't pin memory.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Maximum number of idle slabs kept per thread.
const MAX_POOLED: usize = 64;

thread_local! {
    static POOL: RefCell<Vec<Arc<Slab>>> = const { RefCell::new(Vec::new()) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REUSES: Cell<u64> = const { Cell::new(0) };
}

/// Takes a uniquely-owned slab with at least `cap` capacity from the
/// pool, or allocates one. Pooling the whole `Arc` (not just the inner
/// vector) means a steady-state build reuses the control block too —
/// zero heap traffic per payload once the pool is warm.
fn take_slab(cap: usize) -> Arc<Slab> {
    let pooled = POOL.try_with(|p| p.borrow_mut().pop()).ok().flatten();
    match pooled {
        Some(mut a) => {
            REUSES.with(|c| c.set(c.get() + 1));
            // Pooled slabs are only admitted with strong_count == 1
            // and no weak handles, so get_mut always succeeds.
            let s = Arc::get_mut(&mut a).expect("pooled slab is uniquely owned");
            s.0.clear();
            s.0.reserve(cap);
            a
        }
        None => {
            ALLOCS.with(|c| c.set(c.get() + 1));
            Arc::new(Slab(Vec::with_capacity(cap)))
        }
    }
}

/// Backing slab. The last [`Payload`] handle returns the whole
/// `Arc<Slab>` to the thread pool from `Payload::drop`; this `Drop`
/// only runs when the pool is full (or torn down) and the `Arc` truly
/// dies.
#[derive(Debug)]
struct Slab(Vec<u8>);

/// Recycles `a` if it is the sole owner and the pool has room;
/// otherwise lets it drop normally.
fn recycle(a: Arc<Slab>) {
    if Arc::strong_count(&a) == 1 && Arc::weak_count(&a) == 0 {
        // try_with: thread teardown may have destroyed the pool.
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < MAX_POOLED {
                p.push(a);
            }
        });
    }
}

/// A reference-counted, pooled payload buffer with an offset/len view.
///
/// Cloning shares the backing slab; [`Payload::view`] narrows the
/// window without copying. The bytes are immutable once built — the
/// same discipline verbs imposes on a posted buffer.
#[derive(Debug)]
pub struct Payload {
    buf: std::mem::ManuallyDrop<Arc<Slab>>,
    off: usize,
    len: usize,
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload {
            buf: std::mem::ManuallyDrop::new(Arc::clone(&self.buf)),
            off: self.off,
            len: self.len,
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        // SAFETY: `buf` is taken exactly once, here, and never touched
        // again. ManuallyDrop exists solely so the last handle can move
        // the whole Arc into the slab pool instead of freeing it.
        let a = unsafe { std::mem::ManuallyDrop::take(&mut self.buf) };
        recycle(a);
    }
}

impl Payload {
    fn wrap(a: Arc<Slab>, off: usize, len: usize) -> Payload {
        Payload {
            buf: std::mem::ManuallyDrop::new(a),
            off,
            len,
        }
    }

    /// Builds a payload by filling a pooled slab through `fill`, which
    /// appends exactly the payload bytes to the provided buffer.
    pub fn build<F: FnOnce(&mut Vec<u8>)>(cap: usize, fill: F) -> Payload {
        let mut a = take_slab(cap);
        let s = Arc::get_mut(&mut a).expect("fresh slab is uniquely owned");
        fill(&mut s.0);
        let len = s.0.len();
        Payload::wrap(a, 0, len)
    }

    /// Wraps an existing vector (no pooling on the way in; the buffer
    /// still returns to the pool when the last handle drops).
    pub fn from_vec(v: Vec<u8>) -> Payload {
        let len = v.len();
        Payload::wrap(Arc::new(Slab(v)), 0, len)
    }

    /// Copies a byte slice into a pooled slab.
    pub fn copy_from_slice(bytes: &[u8]) -> Payload {
        Payload::build(bytes.len(), |v| v.extend_from_slice(bytes))
    }

    /// A sub-range view sharing this payload's slab. `off + len` must
    /// be within `self.len()`.
    pub fn view(&self, off: usize, len: usize) -> Payload {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "payload view [{off}, {off}+{len}) out of range 0..{}",
            self.len
        );
        Payload::wrap(Arc::clone(&self.buf), self.off + off, len)
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.0[self.off..self.off + self.len]
    }

    /// Bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(allocations, pool reuses)` performed by this thread's slab
    /// pool since the last [`Payload::reset_pool_stats`].
    pub fn pool_stats() -> (u64, u64) {
        (ALLOCS.with(Cell::get), REUSES.with(Cell::get))
    }

    /// Zeroes this thread's slab pool counters (bench/test harness).
    pub fn reset_pool_stats() {
        ALLOCS.with(|c| c.set(0));
        REUSES.with(|c| c.set(0));
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back() {
        let p = Payload::build(16, |v| v.extend_from_slice(b"hello slab"));
        assert_eq!(p.as_slice(), b"hello slab");
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
    }

    #[test]
    fn views_share_without_copying() {
        let p = Payload::copy_from_slice(b"0123456789");
        let v = p.view(2, 5);
        assert_eq!(v.as_slice(), b"23456");
        let vv = v.view(1, 3);
        assert_eq!(vv.as_slice(), b"345");
        // Clones and views point at the same slab.
        let c = p.clone();
        assert_eq!(c.as_slice().as_ptr(), p.as_slice().as_ptr());
        assert_eq!(v.as_slice().as_ptr(), unsafe {
            p.as_slice().as_ptr().add(2)
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_view_panics() {
        let p = Payload::copy_from_slice(b"abc");
        let _ = p.view(1, 3);
    }

    #[test]
    fn slabs_recycle_through_the_pool() {
        Payload::reset_pool_stats();
        for _ in 0..10 {
            let p = Payload::build(256, |v| v.extend_from_slice(&[7; 100]));
            drop(p);
        }
        let (allocs, reuses) = Payload::pool_stats();
        assert_eq!(allocs + reuses, 10);
        assert!(
            reuses >= 9,
            "expected near-total reuse, got allocs={allocs} reuses={reuses}"
        );
    }

    #[test]
    fn view_keeps_slab_alive_after_parent_drop() {
        let p = Payload::copy_from_slice(b"keepalive");
        let v = p.view(4, 5);
        drop(p);
        assert_eq!(v.as_slice(), b"alive");
    }
}
