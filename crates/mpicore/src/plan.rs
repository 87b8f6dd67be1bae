//! Pure planning helpers for the copy-reduced schemes.
//!
//! These functions turn block lists into RDMA work-request plans and are
//! kept free of protocol state so they can be unit-tested exhaustively:
//!
//! * [`chunk_gather`] — split a block list into gather lists of at most
//!   `max_sge` entries (RWG-UP, §5.1),
//! * [`plan_multi_w`] — pair the sender's and receiver's block lists
//!   stream-wise into one RDMA write per *receiver-contiguous* range
//!   with a sender gather list (Multi-W, §5.3/§5.4.2). The two sides may
//!   have completely different layouts; blocks are split at every
//!   boundary mismatch.

use ibdt_datatype::{Datatype, TransferPlan, TypeRegistry};
use ibdt_memreg::Va;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One planned RDMA write: gather `sges` (absolute addresses) into the
/// contiguous destination `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedWr {
    /// Source gather list: `(addr, len)` pairs.
    pub sges: Vec<(Va, u64)>,
    /// Destination address (contiguous).
    pub dst: Va,
    /// Total bytes (== sum of sge lens).
    pub len: u64,
}

/// Splits `blocks` into chunks of at most `max_sge` entries, returning
/// for each chunk its gather list and total length.
pub fn chunk_gather(blocks: &[(Va, u64)], max_sge: usize) -> Vec<(Vec<(Va, u64)>, u64)> {
    assert!(max_sge > 0);
    blocks
        .chunks(max_sge)
        .map(|c| (c.to_vec(), c.iter().map(|&(_, l)| l).sum()))
        .collect()
}

/// Plans the Multi-W write list.
///
/// `snd` and `rcv` are the two sides' contiguous block lists in stream
/// order (absolute addresses); their total lengths must match. Each
/// planned write targets one receiver-contiguous byte range and gathers
/// at most `max_sge` sender pieces; receiver blocks needing more gather
/// entries are split into multiple writes.
pub fn plan_multi_w(snd: &[(Va, u64)], rcv: &[(Va, u64)], max_sge: usize) -> Vec<PlannedWr> {
    assert!(max_sge > 0);
    debug_assert_eq!(
        snd.iter().map(|&(_, l)| l).sum::<u64>(),
        rcv.iter().map(|&(_, l)| l).sum::<u64>(),
        "sender and receiver type signatures must match in size"
    );
    let mut out = Vec::new();
    let mut si = 0usize; // sender block index
    let mut soff = 0u64; // offset within sender block

    for &(raddr, rlen) in rcv {
        let mut covered = 0u64;
        while covered < rlen {
            // Build one WR for as much of this receiver block as max_sge
            // sender pieces cover.
            let mut sges: Vec<(Va, u64)> = Vec::new();
            let mut wr_len = 0u64;
            while covered + wr_len < rlen && sges.len() < max_sge {
                let (sa, sl) = snd[si];
                let avail = sl - soff;
                let need = rlen - covered - wr_len;
                let take = avail.min(need);
                sges.push((sa + soff, take));
                wr_len += take;
                soff += take;
                if soff == sl {
                    si += 1;
                    soff = 0;
                }
            }
            out.push(PlannedWr {
                sges,
                dst: raddr + covered,
                len: wr_len,
            });
            covered += wr_len;
        }
    }
    debug_assert!(si == snd.len() || (si == snd.len() - 1 && soff == 0) || snd[si].1 == soff);
    out
}

/// Hybrid-scheme partition of a message's stream (§10 future work:
/// scheme selection "within different parts of a single datatype
/// message").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridPart {
    /// Stream intervals `[lo, hi)` whose receiver block is large
    /// enough for a direct zero-copy write. Each interval corresponds
    /// to exactly one receiver-contiguous block.
    pub direct: Vec<(u64, u64)>,
    /// Stream intervals that travel packed (small receiver blocks),
    /// in stream order.
    pub packed: Vec<(u64, u64)>,
    /// Total packed bytes (sum of packed interval lengths).
    pub packed_bytes: u64,
}

/// Partitions a message by receiver block size: blocks of at least
/// `threshold` bytes are written directly, the rest is packed. Both
/// sides compute the same partition from the receiver's block lengths
/// (shipped in the rendezvous reply), so no extra negotiation is
/// needed.
pub fn hybrid_partition(rcv_block_lens: &[u64], threshold: u64) -> HybridPart {
    let mut direct = Vec::new();
    let mut packed: Vec<(u64, u64)> = Vec::new();
    let mut packed_bytes = 0;
    let mut pos = 0u64;
    for &len in rcv_block_lens {
        let iv = (pos, pos + len);
        if len >= threshold {
            direct.push(iv);
        } else {
            // Merge stream-adjacent packed intervals.
            match packed.last_mut() {
                Some((_, hi)) if *hi == iv.0 => *hi = iv.1,
                _ => packed.push(iv),
            }
            packed_bytes += len;
        }
        pos += len;
    }
    HybridPart {
        direct,
        packed,
        packed_bytes,
    }
}

/// Walks a range `[lo, hi)` of the *substream* (the concatenation of
/// `intervals` in order) in place, calling `f(a, b)` for each stream
/// interval it maps back to, in order. Allocation-free, so the packed
/// paths can run it once per segment.
pub fn for_each_substream_piece(
    intervals: impl IntoIterator<Item = (u64, u64)>,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, u64),
) {
    debug_assert!(lo <= hi);
    let mut pos = 0u64; // substream position at the start of interval
    for (a, b) in intervals {
        let len = b - a;
        let end = pos + len;
        if end > lo && pos < hi {
            let clip_lo = lo.saturating_sub(pos);
            let clip_hi = (hi - pos).min(len);
            if clip_hi > clip_lo {
                f(a + clip_lo, a + clip_hi);
            }
        }
        pos = end;
        if pos >= hi {
            break;
        }
    }
}

/// Immediate-data encoding for rendezvous segments: 16 bits of sequence
/// number, 16 bits of segment index.
pub fn imm_of(seq: u64, k: u32) -> u32 {
    debug_assert!(k <= 0xFFFF, "segment index overflows immediate encoding");
    (((seq & 0xFFFF) as u32) << 16) | (k & 0xFFFF)
}

/// Inverse of [`imm_of`]: `(seq16, k)`.
pub fn imm_parse(imm: u32) -> (u16, u32) {
    ((imm >> 16) as u16, imm & 0xFFFF)
}

/// Process-wide pool of compiled plans, shared across ranks and
/// cluster instances the way payload slabs and address-space backing
/// stores are pooled: a parameter sweep builds a fresh cluster per
/// point but keeps sending the *same* datatype, and recompiling the
/// plan per cluster was the last fixed per-iteration allocation burst.
/// Keyed by `(Datatype::id(), count)` — ids come from a process-global
/// counter and are never reused, and a type's structure is immutable
/// after construction, so a pooled plan can never go stale. Bounded;
/// on overflow the pool is cleared (plans are cheap to recompile).
type SharedPlanMap = HashMap<(u64, u64), Arc<TransferPlan>>;
static SHARED_PLANS: Mutex<Option<SharedPlanMap>> = Mutex::new(None);
const SHARED_PLAN_CAP: usize = 256;

fn shared_plan_lookup(id: u64, count: u64) -> Option<Arc<TransferPlan>> {
    let guard = SHARED_PLANS.lock().ok()?;
    guard.as_ref()?.get(&(id, count)).cloned()
}

fn shared_plan_publish(id: u64, count: u64, plan: &Arc<TransferPlan>) {
    if let Ok(mut guard) = SHARED_PLANS.lock() {
        let map = guard.get_or_insert_with(HashMap::new);
        if map.len() >= SHARED_PLAN_CAP {
            map.clear();
        }
        map.insert((id, count), plan.clone());
    }
}

/// Per-rank LRU cache of compiled [`TransferPlan`]s, keyed by the
/// §5.4.2 datatype-cache version: `(type index, type version, count)`.
/// The registry assigns the index/version, so a freed-and-reused type
/// index can never alias a stale plan — the bumped version changes the
/// key, exactly as it invalidates the wire-level layout cache.
///
/// Compilation charges no modelled (virtual-clock) time — plans only
/// amortize *host* work — so enabling or disabling the cache cannot
/// perturb simulated results.
#[derive(Debug)]
pub struct PlanCache {
    enabled: bool,
    cap: usize,
    map: HashMap<(u32, u32, u64), (Arc<TransferPlan>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Canonicalize lookups (TEMPI dedup): off by default so identical
    /// spellings keep their classic per-spelling slots.
    canon: bool,
    canonical_hits: u64,
    canonicalized: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `cap` plans. A disabled cache
    /// compiles on every lookup (the equivalence-test baseline).
    pub fn new(enabled: bool, cap: usize) -> Self {
        Self {
            enabled,
            cap,
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            canon: false,
            canonical_hits: 0,
            canonicalized: 0,
        }
    }

    /// Empties the cache and zeroes every counter, keeping map
    /// capacity, and re-applies the configuration. Lookups after a
    /// reset behave bit-identically to those of a fresh
    /// `PlanCache::new(enabled, cap).with_canonicalization(canon)` —
    /// world recycling relies on this.
    pub fn reset(&mut self, enabled: bool, cap: usize, canon: bool) {
        self.enabled = enabled;
        self.cap = cap;
        self.canon = canon;
        self.map.clear();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.canonical_hits = 0;
        self.canonicalized = 0;
    }

    /// Canonicalizes every lookup first (see
    /// [`MpiConfig::canonicalize`](crate::config::MpiConfig::canonicalize)):
    /// equivalently-spelled types share one cache slot and one
    /// compiled plan.
    pub fn with_canonicalization(mut self, on: bool) -> Self {
        self.canon = on;
        self
    }

    /// Returns the plan for `count` instances of `ty`, compiling and
    /// caching on miss. `registry` supplies the versioned tag the key
    /// is derived from.
    pub fn lookup(
        &mut self,
        registry: &mut TypeRegistry,
        ty: &Datatype,
        count: u64,
    ) -> Arc<TransferPlan> {
        // Canonicalize before both the enabled and disabled branches:
        // the compiled plan must be the same object either way, which
        // is what keeps cache-on/off observationally equivalent with
        // canonicalization enabled.
        let canon_ty;
        let mut respelled = false;
        let ty = if self.canon {
            canon_ty = ty.canonical();
            if canon_ty.id() != ty.id() {
                self.canonicalized += 1;
                respelled = true;
            }
            &canon_ty
        } else {
            ty
        };
        if !self.enabled || self.cap == 0 {
            self.misses += 1;
            return Arc::new(TransferPlan::compile(ty, count));
        }
        let tag = registry.register(ty);
        let key = (tag.index, tag.version, count);
        self.tick += 1;
        let tick = self.tick;
        if let Some((plan, last)) = self.map.get_mut(&key) {
            self.hits += 1;
            if respelled {
                self.canonical_hits += 1;
            }
            *last = tick;
            return plan.clone();
        }
        self.misses += 1;
        let plan = shared_plan_lookup(ty.id(), count).unwrap_or_else(|| {
            let p = Arc::new(TransferPlan::compile(ty, count));
            shared_plan_publish(ty.id(), count, &p);
            p
        });
        if self.map.len() >= self.cap {
            // Evict the least recently used entry. The cap is small, so
            // a linear scan beats maintaining an ordered structure.
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| k)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (plan.clone(), tick));
        plan
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// `(canonical hits, types canonicalized)`: hits served because a
    /// *respelled* type resolved to an already-cached canonical
    /// layout, and lookups whose type was rewritten at all.
    pub fn canon_stats(&self) -> (u64, u64) {
        (self.canonical_hits, self.canonicalized)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_gather_splits_at_limit() {
        let blocks: Vec<(Va, u64)> = (0..10).map(|i| (i * 100, 8)).collect();
        let chunks = chunk_gather(&blocks, 4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].0.len(), 4);
        assert_eq!(chunks[2].0.len(), 2);
        assert_eq!(chunks.iter().map(|(_, l)| l).sum::<u64>(), 80);
    }

    #[test]
    fn chunk_gather_empty() {
        assert!(chunk_gather(&[], 4).is_empty());
    }

    #[test]
    fn multiw_identical_layouts_one_wr_per_block() {
        let blocks: Vec<(Va, u64)> = vec![(0, 16), (100, 16), (200, 16)];
        let rcv: Vec<(Va, u64)> = vec![(1000, 16), (1100, 16), (1200, 16)];
        let plan = plan_multi_w(&blocks, &rcv, 64);
        assert_eq!(plan.len(), 3);
        for (i, wr) in plan.iter().enumerate() {
            assert_eq!(wr.sges, vec![(i as u64 * 100, 16)]);
            assert_eq!(wr.dst, 1000 + i as u64 * 100);
            assert_eq!(wr.len, 16);
        }
    }

    #[test]
    fn multiw_sender_finer_than_receiver_gathers() {
        // Sender: 4 blocks of 8; receiver: 1 block of 32.
        let snd: Vec<(Va, u64)> = (0..4).map(|i| (i * 50, 8)).collect();
        let rcv = vec![(9000, 32)];
        let plan = plan_multi_w(&snd, &rcv, 64);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].sges.len(), 4);
        assert_eq!(plan[0].dst, 9000);
        assert_eq!(plan[0].len, 32);
    }

    #[test]
    fn multiw_receiver_finer_than_sender_splits() {
        // Sender: 1 block of 32; receiver: 4 blocks of 8.
        let snd = vec![(500u64, 32u64)];
        let rcv: Vec<(Va, u64)> = (0..4).map(|i| (7000 + i * 100, 8)).collect();
        let plan = plan_multi_w(&snd, &rcv, 64);
        assert_eq!(plan.len(), 4);
        for (i, wr) in plan.iter().enumerate() {
            assert_eq!(wr.sges, vec![(500 + i as u64 * 8, 8)]);
            assert_eq!(wr.dst, 7000 + i as u64 * 100);
        }
    }

    #[test]
    fn multiw_misaligned_boundaries() {
        // Sender blocks 12+20; receiver blocks 8+24. Splits at 8, 12.
        let snd = vec![(0u64, 12u64), (100, 20)];
        let rcv = vec![(1000u64, 8u64), (2000, 24)];
        let plan = plan_multi_w(&snd, &rcv, 64);
        // WR1: rcv[0] = snd[0][0..8]. WR2: rcv[1] = snd[0][8..12] +
        // snd[1][0..20].
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].sges, vec![(0, 8)]);
        assert_eq!(plan[0].dst, 1000);
        assert_eq!(plan[1].sges, vec![(8, 4), (100, 20)]);
        assert_eq!(plan[1].dst, 2000);
        assert_eq!(plan[1].len, 24);
    }

    #[test]
    fn multiw_respects_max_sge() {
        // Receiver one 64-byte block; sender 8 blocks of 8; max_sge 3.
        let snd: Vec<(Va, u64)> = (0..8).map(|i| (i * 10, 8)).collect();
        let rcv = vec![(5000u64, 64u64)];
        let plan = plan_multi_w(&snd, &rcv, 3);
        assert_eq!(plan.len(), 3); // 3 + 3 + 2 sges
        assert_eq!(plan[0].sges.len(), 3);
        assert_eq!(plan[0].dst, 5000);
        assert_eq!(plan[1].dst, 5000 + 24);
        assert_eq!(plan[2].sges.len(), 2);
        let total: u64 = plan.iter().map(|w| w.len).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn multiw_total_preserved_random_shapes() {
        // Deterministic pseudo-random split of 1 KiB into blocks.
        let mut s = Vec::new();
        let mut r = Vec::new();
        let (mut sa, mut ra) = (0u64, 1 << 20);
        let mut rem_s = 1024u64;
        let mut x = 7u64;
        while rem_s > 0 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let l = (x % 96 + 1).min(rem_s);
            s.push((sa, l));
            sa += l + x % 33;
            rem_s -= l;
        }
        let mut rem_r = 1024u64;
        while rem_r > 0 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let l = (x % 80 + 1).min(rem_r);
            r.push((ra, l));
            ra += l + x % 17;
            rem_r -= l;
        }
        let plan = plan_multi_w(&s, &r, 5);
        let total: u64 = plan.iter().map(|w| w.len).sum();
        assert_eq!(total, 1024);
        for wr in &plan {
            assert!(wr.sges.len() <= 5);
            assert_eq!(wr.len, wr.sges.iter().map(|&(_, l)| l).sum::<u64>());
        }
        // Destination ranges are disjoint and cover the receiver blocks.
        let mut dsts: Vec<(u64, u64)> = plan.iter().map(|w| (w.dst, w.len)).collect();
        dsts.sort_unstable();
        for w in dsts.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn hybrid_partition_splits_by_threshold() {
        // Blocks: 100, 4000, 50, 50, 8000 with threshold 1024.
        let p = hybrid_partition(&[100, 4000, 50, 50, 8000], 1024);
        assert_eq!(p.direct, vec![(100, 4100), (4200, 12200)]);
        // The two 50-byte blocks are stream-adjacent and merge.
        assert_eq!(p.packed, vec![(0, 100), (4100, 4200)]);
        assert_eq!(p.packed_bytes, 200);
    }

    #[test]
    fn hybrid_partition_all_large() {
        let p = hybrid_partition(&[2048, 2048], 1024);
        assert_eq!(p.direct.len(), 2);
        assert!(p.packed.is_empty());
        assert_eq!(p.packed_bytes, 0);
    }

    #[test]
    fn hybrid_partition_all_small() {
        let p = hybrid_partition(&[16, 16, 16], 1024);
        assert!(p.direct.is_empty());
        assert_eq!(p.packed, vec![(0, 48)]);
        assert_eq!(p.packed_bytes, 48);
    }

    #[test]
    fn hybrid_partition_empty() {
        let p = hybrid_partition(&[], 1024);
        assert!(p.direct.is_empty() && p.packed.is_empty());
    }

    fn substream_to_stream(ivs: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for_each_substream_piece(ivs.iter().copied(), lo, hi, |a, b| out.push((a, b)));
        out
    }

    #[test]
    fn substream_mapping_whole() {
        let ivs = [(10u64, 20u64), (50, 55), (100, 130)];
        // Substream is 10 + 5 + 30 = 45 bytes.
        assert_eq!(substream_to_stream(&ivs, 0, 45), ivs.to_vec());
    }

    #[test]
    fn substream_mapping_partial() {
        let ivs = [(10u64, 20u64), (50, 55), (100, 130)];
        // [8, 17) of the substream: last 2 bytes of iv0, all of iv1,
        // first 2 bytes of iv2.
        assert_eq!(
            substream_to_stream(&ivs, 8, 17),
            vec![(18, 20), (50, 55), (100, 102)]
        );
        // Entirely inside one interval: substream [16,18) falls in the
        // third interval (iv0 covers [0,10), iv1 [10,15), iv2 [15,45)).
        assert_eq!(substream_to_stream(&ivs, 16, 18), vec![(101, 103)]);
        assert_eq!(substream_to_stream(&ivs, 11, 13), vec![(51, 53)]);
        // Empty range.
        assert!(substream_to_stream(&ivs, 7, 7).is_empty());
    }

    #[test]
    fn substream_lengths_preserved() {
        let ivs = [(0u64, 7u64), (100, 103), (200, 250)];
        let total = 7 + 3 + 50;
        for lo in 0..total {
            for hi in lo..=total {
                let mapped = substream_to_stream(&ivs, lo, hi);
                let n: u64 = mapped.iter().map(|(a, b)| b - a).sum();
                assert_eq!(n, hi - lo, "lo={lo} hi={hi}");
            }
        }
    }

    #[test]
    fn imm_roundtrip() {
        let imm = imm_of(0x1_F00D, 7);
        let (seq16, k) = imm_parse(imm);
        assert_eq!(seq16, 0xF00D);
        assert_eq!(k, 7);
    }

    fn vec_ty(stride: i64) -> Datatype {
        Datatype::vector(4, 8, stride, &Datatype::int()).expect("valid vector")
    }

    #[test]
    fn plan_cache_hits_on_repeat_lookup() {
        let mut reg = TypeRegistry::new();
        let mut pc = PlanCache::new(true, 8);
        let ty = vec_ty(64);
        let a = pc.lookup(&mut reg, &ty, 3);
        let b = pc.lookup(&mut reg, &ty, 3);
        assert!(Arc::ptr_eq(&a, &b), "second lookup returns the cached Arc");
        assert_eq!(pc.stats(), (1, 1, 0));
        // A different count is a different plan.
        let c = pc.lookup(&mut reg, &ty, 4);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(pc.stats(), (1, 2, 0));
    }

    #[test]
    fn plan_cache_disabled_always_misses() {
        let mut reg = TypeRegistry::new();
        let mut pc = PlanCache::new(false, 8);
        let ty = vec_ty(64);
        let a = pc.lookup(&mut reg, &ty, 3);
        let b = pc.lookup(&mut reg, &ty, 3);
        assert!(!Arc::ptr_eq(&a, &b), "disabled cache recompiles every time");
        assert_eq!(pc.stats(), (0, 2, 0));
        assert!(pc.is_empty());
        // Identical output either way.
        assert_eq!(a.blocks(), b.blocks());
        assert_eq!(a.total_bytes(), b.total_bytes());
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut reg = TypeRegistry::new();
        let mut pc = PlanCache::new(true, 2);
        let t1 = vec_ty(64);
        let t2 = vec_ty(72);
        let t3 = vec_ty(80);
        pc.lookup(&mut reg, &t1, 1);
        pc.lookup(&mut reg, &t2, 1);
        // Touch t1 so t2 is the LRU entry, then force an eviction.
        pc.lookup(&mut reg, &t1, 1);
        pc.lookup(&mut reg, &t3, 1);
        assert_eq!(pc.len(), 2);
        let (_, _, evictions) = pc.stats();
        assert_eq!(evictions, 1);
        // t1 survived the eviction (t2 was least recently used).
        let before = pc.stats().0;
        pc.lookup(&mut reg, &t1, 1);
        assert_eq!(pc.stats().0, before + 1, "t1 still hits");
        pc.lookup(&mut reg, &t2, 1);
        assert_eq!(pc.stats().1, 4, "t2 was evicted and misses");
    }

    #[test]
    fn plan_cache_keyed_by_registry_version() {
        // Two structurally identical but distinct Datatype values get
        // distinct registry tags, so they occupy distinct cache slots.
        let mut reg = TypeRegistry::new();
        let mut pc = PlanCache::new(true, 8);
        let t1 = vec_ty(64);
        let t2 = vec_ty(64);
        pc.lookup(&mut reg, &t1, 2);
        pc.lookup(&mut reg, &t2, 2);
        assert_eq!(pc.stats(), (0, 2, 0), "distinct identities never collide");
        assert_eq!(pc.len(), 2);
    }

    #[test]
    fn plan_cache_zero_capacity_never_stores() {
        let mut reg = TypeRegistry::new();
        let mut pc = PlanCache::new(true, 0);
        let ty = vec_ty(64);
        pc.lookup(&mut reg, &ty, 1);
        pc.lookup(&mut reg, &ty, 1);
        assert!(pc.is_empty());
        assert_eq!(pc.stats(), (0, 2, 0));
    }
}
