#![warn(missing_docs)]
//! Deterministic test support with zero dependencies.
//!
//! The workspace builds in fully offline environments, so the
//! randomized test suites cannot pull in `proptest` or `rand`.
//! This crate provides the small surface they actually need:
//!
//! - [`Rng`]: a seeded SplitMix64 generator with range, boolean,
//!   choice, shuffle, and byte-fill helpers. Identical seeds produce
//!   identical streams on every platform — the determinism the chaos
//!   suite asserts on.
//! - [`cases`]: a seeded-case harness that runs a closure over `n`
//!   derived seeds and reports the failing seed, so a failure is
//!   reproducible with a one-line unit test.
//! - [`shrink`] / [`shrink_report`]: a delta-debugging minimizer for
//!   failing event lists (fault plans, operation sequences): halving
//!   passes followed by single-event removal, repeated to a fixed
//!   point, so a chaos failure is reported as the smallest event list
//!   that still reproduces it.

/// Seeded deterministic random generator (SplitMix64).
///
/// SplitMix64 passes BigCrush, needs only a `u64` of state, and is
/// trivially portable — more than enough to drive test-case
/// generation and fault-plan sampling.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from `seed`. Identical seeds yield
    /// identical streams.
    pub fn new(seed: u64) -> Self {
        // Pre-mix so that small consecutive seeds (0, 1, 2, ...) do
        // not produce correlated leading outputs.
        let mut r = Rng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        };
        r.next_u64();
        r
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Multiply-shift bounded generation (Lemire); the tiny bias is
        // irrelevant for test generation and keeps this branch-free.
        let wide = (self.next_u64() as u128) * (span as u128);
        lo + (wide >> 64) as u64
    }

    /// Uniform value in `[lo, hi)` over signed integers.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = (hi as i128 - lo as i128) as u64;
        let off = self.range_u64(0, span);
        (lo as i128 + off as i128) as i64
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare against a 53-bit uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Uniform element reference from a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Uniform copy from a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        *self.choose(items)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Derives an independent generator (for sub-streams that must not
    /// perturb the parent's sequence).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Base seed for a chaos suite: `default`, unless the
/// `IBDT_CHAOS_SEED` environment variable overrides it.
///
/// The variable accepts decimal (`12345`) or `0x`-prefixed hex
/// (`0xC4A00001`); an unparsable value panics rather than silently
/// running the default matrix. This is how a CI failure is replayed
/// locally: the harness prints the failing base seed, and
/// `IBDT_CHAOS_SEED=<that> cargo test` reruns the exact fault plans.
pub fn chaos_seed(default: u64) -> u64 {
    match std::env::var("IBDT_CHAOS_SEED") {
        Err(_) => default,
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|e| panic!("IBDT_CHAOS_SEED={s:?} is not a u64: {e}"))
        }
    }
}

/// Runs `f` once per derived seed, `n` times, panicking with the
/// failing case index and seed on the first failure.
///
/// The closure receives a fresh [`Rng`] per case; to replay case `i`
/// in isolation, call `f(&mut Rng::new(seed_for(base_seed, i)))`, or
/// rerun the whole suite with `IBDT_CHAOS_SEED=<base>` when the suite
/// derives its base seed through [`chaos_seed`].
pub fn cases<F: FnMut(&mut Rng)>(base_seed: u64, n: u32, mut f: F) {
    for i in 0..n {
        let seed = seed_for(base_seed, i);
        let mut rng = Rng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!("testkit: case {i} of {n} failed (seed {seed:#x}, base {base_seed:#x})");
            eprintln!("testkit: set IBDT_CHAOS_SEED={base_seed:#x} to reproduce this suite");
            std::panic::resume_unwind(payload);
        }
    }
}

/// The per-case seed used by [`cases`], exposed for replaying a single
/// failing case.
pub fn seed_for(base_seed: u64, case: u32) -> u64 {
    Rng::new(base_seed ^ ((case as u64) << 32 | 0x5EED)).next_u64()
}

/// Result of a [`shrink_report`] run.
#[derive(Debug, Clone)]
pub struct ShrinkReport<T> {
    /// The minimal failing event list: removing any single remaining
    /// event makes the predicate pass (1-minimality).
    pub minimal: Vec<T>,
    /// Events in the original failing list.
    pub initial: usize,
    /// Predicate evaluations spent, including the initial check.
    pub probes: u64,
}

impl<T> ShrinkReport<T> {
    /// One-line human summary for failure messages.
    pub fn summary(&self) -> String {
        format!(
            "shrunk {} -> {} events in {} probes",
            self.initial,
            self.minimal.len(),
            self.probes
        )
    }
}

/// Minimizes a failing event list: returns the smallest sublist (in
/// original order) on which `fails` still returns `true`.
///
/// `fails` must be deterministic — it is the reproducer (typically
/// "rerun the simulation with this fault plan and check the bad
/// outcome still happens"). The input itself must fail; this is
/// asserted, because "minimize a passing input" is always a bug in
/// the harness.
///
/// The strategy is greedy delta debugging: try to delete chunks of
/// half the list, then quarters, and so on down to single events,
/// repeating the single-event pass until no event can be removed. The
/// result is 1-minimal; like all ddmin variants it can miss smaller
/// non-contiguous subsets, which is the standard trade for a probe
/// count linear-ish in the list length rather than exponential.
pub fn shrink<T: Clone>(input: &[T], fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    shrink_report(input, fails).minimal
}

/// [`shrink`], also reporting probe-count statistics for harness logs.
pub fn shrink_report<T: Clone>(
    input: &[T],
    mut fails: impl FnMut(&[T]) -> bool,
) -> ShrinkReport<T> {
    let mut probes = 1u64;
    assert!(
        fails(input),
        "shrink needs a failing input (the full list must reproduce)"
    );
    let mut cur = input.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let end = (i + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - i));
            cand.extend_from_slice(&cur[..i]);
            cand.extend_from_slice(&cur[end..]);
            probes += 1;
            if fails(&cand) {
                // The chunk was irrelevant; drop it and retry the same
                // position, which now holds the next chunk.
                cur = cand;
                shrunk = true;
            } else {
                i = end;
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !shrunk {
            break;
        }
    }
    ShrinkReport {
        minimal: cur,
        initial: input.len(),
        probes,
    }
}

/// A counting wrapper around the system allocator.
///
/// Install it as the global allocator in a bench or test binary to
/// measure heap traffic:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ibdt_testkit::CountingAlloc = ibdt_testkit::CountingAlloc;
/// ```
///
/// Allocation events are alloc, alloc_zeroed, and growing reallocs;
/// diff two readings around a region to count its allocations.
/// [`CountingAlloc::allocations`] counts the calling thread only, so a
/// reading is exact even while the test harness runs sibling tests on
/// parallel threads. [`CountingAlloc::process_allocations`] sums every
/// thread, for regions that fan work out to worker threads (the sharded
/// scale driver). Both counters are cheap enough to leave on for every
/// benchmark run.
pub struct CountingAlloc;

static PROCESS_ALLOCATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

std::thread_local! {
    // `const`-initialized and without a destructor: touching it from
    // inside the allocator neither allocates nor registers a
    // thread-local destructor.
    static THREAD_ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl CountingAlloc {
    /// Allocation events on the calling thread since it started.
    pub fn allocations() -> u64 {
        THREAD_ALLOCATIONS
            .try_with(std::cell::Cell::get)
            .unwrap_or(0)
    }

    /// Allocation events on every thread since process start.
    pub fn process_allocations() -> u64 {
        PROCESS_ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn count() {
        PROCESS_ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // `try_with`: an allocation during thread teardown, after the
        // slot is gone, still counts process-wide instead of aborting.
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: defers entirely to `System`; the count is side-band.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        Self::count();
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        Self::count();
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        Self::count();
        std::alloc::System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let s = r.range_i64(-5, 3);
            assert!((-5..3).contains(&s));
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut r = Rng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2000..4000).contains(&hits), "p=0.3 produced {hits}/10000");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut a = [0u8; 37];
        let mut b = [0u8; 37];
        Rng::new(5).fill_bytes(&mut a);
        Rng::new(5).fill_bytes(&mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    #[should_panic(expected = "boom on case 3")]
    fn cases_propagates_failure() {
        let mut i = 0;
        cases(0xDEAD, 10, |_| {
            if i == 3 {
                panic!("boom on case 3");
            }
            i += 1;
        });
    }

    #[test]
    fn chaos_seed_env_override() {
        // Single test owning the variable — keep all assertions here so
        // parallel test threads never race on the process environment.
        std::env::remove_var("IBDT_CHAOS_SEED");
        assert_eq!(chaos_seed(7), 7);
        std::env::set_var("IBDT_CHAOS_SEED", "0xDEAD");
        assert_eq!(chaos_seed(7), 0xDEAD);
        std::env::set_var("IBDT_CHAOS_SEED", "12345");
        assert_eq!(chaos_seed(7), 12345);
        std::env::remove_var("IBDT_CHAOS_SEED");
    }

    #[test]
    fn cases_seeds_are_replayable() {
        let mut first = Vec::new();
        cases(77, 4, |rng| first.push(rng.next_u64()));
        for (i, &v) in first.iter().enumerate() {
            assert_eq!(Rng::new(seed_for(77, i as u32)).next_u64(), v);
        }
    }

    #[test]
    fn shrink_finds_conjunctive_minimum() {
        // Fails iff both 3 and 7 are present: the minimal reproducer
        // is exactly [3, 7], whatever noise surrounds them.
        let noisy: Vec<u32> = vec![9, 1, 3, 4, 4, 2, 7, 8, 0, 5, 6, 12, 11];
        let report = shrink_report(&noisy, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(report.minimal, vec![3, 7]);
        assert_eq!(report.initial, noisy.len());
        assert!(report.probes > 1);
        assert!(report.summary().contains("-> 2 events"));
    }

    #[test]
    fn shrink_finds_single_culprit() {
        let noisy: Vec<u32> = (0..100).collect();
        let minimal = shrink(&noisy, |s| s.contains(&83));
        assert_eq!(minimal, vec![83]);
    }

    #[test]
    fn shrink_keeps_order_and_is_one_minimal() {
        // Fails iff it contains at least 3 even numbers; the minimum
        // is any 3 evens, in their original relative order.
        let noisy: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let minimal = shrink(&noisy, |s| s.iter().filter(|v| *v % 2 == 0).count() >= 3);
        assert_eq!(minimal.len(), 3);
        assert!(minimal.iter().all(|v| v % 2 == 0));
        let mut sorted = minimal.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, minimal, "original order must be preserved");
        // 1-minimality: removing any remaining event must pass.
        for i in 0..minimal.len() {
            let mut cand = minimal.clone();
            cand.remove(i);
            assert!(cand.iter().filter(|v| *v % 2 == 0).count() < 3);
        }
    }

    #[test]
    fn shrink_can_reach_empty() {
        // A predicate that always fails shrinks to the empty list —
        // the failure was never input-dependent.
        let minimal = shrink(&[1, 2, 3], |_| true);
        assert!(minimal.is_empty());
    }

    #[test]
    #[should_panic(expected = "failing input")]
    fn shrink_rejects_passing_input() {
        shrink(&[1, 2, 3], |_| false);
    }
}
