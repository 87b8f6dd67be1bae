//! A fixed reference load, timed next to every point, that tracks how
//! fast the host runs at that moment.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Buffers of the reference load, built once.
pub struct Calib {
    src: Vec<u8>,
    dst: Vec<u8>,
    ring: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

const COPY_BYTES: usize = 1 << 20;
const RING: usize = 1 << 16;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calib {
    /// Builds the buffers. The chase ring links every slot into one
    /// cycle in shuffled order, which the prefetcher cannot follow.
    pub fn new() -> Calib {
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        let mut x = 88_172_645_463_325_252u64;
        for i in (1..RING).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            ring.swap(i, j);
        }
        let mut next = vec![0u32; RING];
        for k in 0..RING {
            next[ring[k] as usize] = ring[(k + 1) % RING];
        }
        Calib {
            src: (0..COPY_BYTES).map(|i| (i * 7 + 3) as u8).collect(),
            dst: vec![0; 32 * 4096],
            ring: next,
            heap: BinaryHeap::with_capacity(4096),
        }
    }

    /// Host ns of one round of the reference load. A first, untimed
    /// round brings its data back into cache, so the figure does not
    /// depend on how much cache the point before it used.
    pub fn sample(&mut self) -> u64 {
        self.round();
        let t = Instant::now();
        self.round();
        t.elapsed().as_nanos() as u64
    }

    /// The reference load: a priority queue, a pointer chase, a
    /// strided gather copy and allocation churn, the kinds of work the
    /// simulator does. It calls nothing in the library.
    fn round(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        self.heap.clear();
        for i in 0..3_000u64 {
            self.heap.push(Reverse((xorshift(&mut x) >> 20, i)));
            if self.heap.len() > 1024 {
                acc = acc.wrapping_add(self.heap.pop().map_or(0, |Reverse((k, _))| k));
            }
        }
        let mut i = (acc as usize) % RING;
        for _ in 0..2_000 {
            i = self.ring[i] as usize;
        }
        let base = (i % 16) * 32_768;
        for b in 0..32 {
            let from = base + b * 8192 + (acc as usize % 8) * 64;
            let to = b * 4096;
            self.dst[to..to + 4096].copy_from_slice(&self.src[from..from + 4096]);
        }
        acc = acc.wrapping_add(self.dst[777] as u64);
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(64);
        for k in 0..1_000usize {
            let len = 64 + (xorshift(&mut x) as usize & 0xfff);
            let mut v = Vec::with_capacity(len);
            v.resize(len, k as u8);
            if bufs.len() == 64 {
                acc = acc.wrapping_add(bufs.swap_remove((k * 31) % 64).len() as u64);
            }
            bufs.push(v);
        }
        black_box(acc);
    }
}
