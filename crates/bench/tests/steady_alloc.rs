//! Steady-state allocation gate: N repeated "persistent" eager sends
//! of the same (datatype, count) perform **zero** heap allocations
//! after warmup. This is the test-suite twin of the
//! `repeated_send/persistent_eager` hotpath benchmark — same loop,
//! same counting allocator, but an exact assertion instead of a
//! report.
//!
//! The allocation counter is per thread, so the delta covers this
//! test's own sends only, whatever else the harness runs in parallel.

use ibdt_datatype::{Datatype, TypeRegistry};
use ibdt_ibsim::Payload;
use ibdt_mpicore::plan::PlanCache;
use ibdt_mpicore::pool::ScratchPool;
use ibdt_testkit::CountingAlloc;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn repeated_persistent_sends_allocate_nothing_after_warmup() {
    let ty = Datatype::vector(128, 2, 4096, &Datatype::int()).unwrap();
    let n = ty.size();
    let buf = vec![0x3Cu8; ty.true_ub() as usize + 64];
    let mut registry = TypeRegistry::new();
    let mut cache = PlanCache::new(true, 64);
    let mut scratch = ScratchPool::new();

    let send = |registry: &mut TypeRegistry, cache: &mut PlanCache, scratch: &mut ScratchPool| {
        let plan = cache.lookup(registry, black_box(&ty), 1);
        let mut staging = scratch.take_bytes(n as usize);
        plan.pack(0, n, &buf, 0, &mut staging).unwrap();
        let payload = Payload::build(n as usize, |v| v.extend_from_slice(&staging));
        black_box(payload.as_slice());
        scratch.put_bytes(staging);
        drop(payload);
    };

    // Warmup: fill the plan cache, the scratch pool, and the payload
    // slab pool.
    for _ in 0..64 {
        send(&mut registry, &mut cache, &mut scratch);
    }

    // The counter is per thread, so the harness's own bookkeeping on
    // other threads cannot race into the window: one window is exact.
    let before = CountingAlloc::allocations();
    for _ in 0..512 {
        send(&mut registry, &mut cache, &mut scratch);
    }
    let delta = CountingAlloc::allocations() - before;
    assert_eq!(
        delta, 0,
        "512 steady-state sends performed {delta} heap allocations; \
         the hot path must be allocation-free after warmup"
    );
}
