//! Host-side hot-path microbenchmarks for the compiled transfer-plan
//! subsystem: plan compilation, plan-vs-segment pack, the repeated-send
//! pack/SGE-build loop (the workload the per-rank plan cache targets),
//! and an x1-style column sweep of the full stack with the cache on and
//! off. All numbers are **wall-clock host time** — the virtual clock is
//! proven unaffected by `tests/plan_equivalence.rs`.
//!
//! Writes `BENCH_hotpath.json` in the current directory:
//! `{ "<name>": { "ns_per_op": f64, "bytes_per_sec": f64,
//! "allocs_per_op": f64 } }` (`bytes_per_sec` is 0 for benchmarks
//! without a natural byte count).
//!
//! The binary installs a counting global allocator, so every entry
//! also reports heap allocations per operation — the steady-state
//! entries are gated at **zero** by `tools/bench_gate.py`.

use ibdt_datatype::{Datatype, Segment, TransferPlan, TypeRegistry};
use ibdt_ibsim::Payload;
use ibdt_mpicore::plan::{chunk_gather, PlanCache};
use ibdt_mpicore::pool::ScratchPool;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Scheme};
use ibdt_testkit::CountingAlloc;
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Report {
    entries: Vec<(String, f64, f64, f64)>,
}

impl Report {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Times `f` adaptively and records + prints the result.
    ///
    /// Calibrates an iteration count to a ~15 ms pass, then takes the
    /// **best of several passes**: on a shared/virtualized host the
    /// minimum is the only robust location estimate (interference only
    /// ever adds time), and the committed JSON doubles as a CI
    /// regression gate, so a noise spike must not look like a
    /// regression. Allocations are counted over the same passes and
    /// reported per op, also as the minimum — pool warm-up in an early
    /// pass must not mask a steady state that allocates nothing. The
    /// count is process-wide, so the sharded scale entries include
    /// their worker threads.
    fn bench(&mut self, name: &str, bytes: Option<u64>, mut f: impl FnMut()) -> f64 {
        for _ in 0..3 {
            f();
        }
        let mut iters = 1u64;
        let per_pass = loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt.as_millis() >= 15 || iters >= 1 << 22 {
                break dt.as_nanos() as f64 / iters as f64;
            }
            iters *= 4;
        };
        let mut per = per_pass;
        let mut allocs = f64::INFINITY;
        for _ in 0..4 {
            let a0 = CountingAlloc::process_allocations();
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            per = per.min(t0.elapsed().as_nanos() as f64 / iters as f64);
            let da = CountingAlloc::process_allocations() - a0;
            allocs = allocs.min(da as f64 / iters as f64);
        }
        let bps = bytes.map_or(0.0, |b| b as f64 / per * 1e9);
        match bytes {
            Some(_) => println!(
                "{name:<52} {per:>12.0} ns/op  {:>9.1} MB/s  {allocs:>8.2} allocs/op",
                bps / 1e6
            ),
            None => println!("{name:<52} {per:>12.0} ns/op  {allocs:>30.2} allocs/op"),
        }
        self.entries.push((name.to_string(), per, bps, allocs));
        per
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (name, per, bps, allocs)) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "  \"{name}\": {{ \"ns_per_op\": {per:.1}, \"bytes_per_sec\": {bps:.1}, \"allocs_per_op\": {allocs:.3} }}"
            ));
            s.push_str(if i + 1 == self.entries.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("}\n");
        s
    }
}

/// The paper's workload shape: `MPI_Type_vector(128, cols, 4096, MPI_INT)`.
fn vector_ty(cols: u64) -> Datatype {
    Datatype::vector(128, cols, 4096, &Datatype::int()).unwrap()
}

/// 64-byte-aligned buffer. Large `malloc` blocks land at `base ≡ 16
/// (mod 64)` (mmap chunk header), which would let allocator luck
/// decide whether the kernels' wide stores split cache lines — pin the
/// alignment so runs are comparable.
struct AlignedBuf {
    raw: Vec<u8>,
    off: usize,
    len: usize,
}

impl AlignedBuf {
    fn new(len: usize, fill: u8) -> Self {
        let raw = vec![fill; len + 64];
        let off = raw.as_ptr().align_offset(64);
        AlignedBuf { raw, off, len }
    }
}

impl std::ops::Deref for AlignedBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.raw[self.off..self.off + self.len]
    }
}

impl std::ops::DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        let (off, len) = (self.off, self.len);
        &mut self.raw[off..off + len]
    }
}

fn bench_plan_compile(r: &mut Report) {
    for cols in [4u64, 64, 1024] {
        let ty = vector_ty(cols);
        r.bench(&format!("plan_compile/vector_cols/{cols}"), None, || {
            black_box(TransferPlan::compile(black_box(&ty), 1));
        });
    }
}

fn bench_pack(r: &mut Report) {
    for cols in [4u64, 64, 1024] {
        let ty = vector_ty(cols);
        let plan = TransferPlan::compile(&ty, 1);
        let seg = Segment::new(&ty, 1);
        let n = plan.total_bytes();
        let buf = AlignedBuf::new(ty.true_ub() as usize + 64, 0xA5);
        let mut out = AlignedBuf::new(n as usize, 0);
        r.bench(&format!("pack/segment/vector_cols/{cols}"), Some(n), || {
            seg.pack(0, n, black_box(&buf[..]), 0, black_box(&mut out[..]))
                .unwrap();
        });
        r.bench(&format!("pack/plan/vector_cols/{cols}"), Some(n), || {
            plan.pack(0, n, black_box(&buf[..]), 0, black_box(&mut out[..]))
                .unwrap();
        });
        let stream = AlignedBuf::new(n as usize, 0x5A);
        let mut user = AlignedBuf::new(ty.true_ub() as usize + 64, 0);
        r.bench(&format!("unpack/plan/vector_cols/{cols}"), Some(n), || {
            plan.unpack(0, n, black_box(&stream[..]), black_box(&mut user[..]), 0)
                .unwrap();
        });
    }
}

/// Copy-kernel microbenches: one shape per kernel class, pack and
/// unpack, against the naive segment walk on the same shape. The label
/// carries the kernel the plan compiler actually selected, so a
/// classification regression shows up as a renamed metric.
fn bench_kernels(r: &mut Report) {
    let shapes: Vec<(&str, Datatype, u64)> = vec![
        (
            "contig",
            Datatype::contiguous(4096, &Datatype::byte()).unwrap(),
            1,
        ),
        ("const_stride", vector_ty(64), 1),
        // Pad the vector's extent so repetitions don't butt up against
        // the last row (adjacent seams would merge into unequal blocks
        // and demote the shape to Generic).
        (
            "two_level",
            Datatype::resized(
                &vector_ty(64),
                0,
                Datatype::vector(128, 64, 4096, &Datatype::int())
                    .unwrap()
                    .extent()
                    + 4096,
            )
            .unwrap(),
            4,
        ),
        (
            "generic",
            Datatype::hindexed(
                &[(48, 0), (16, 640), (96, 1280), (32, 4096), (48, 6144)],
                &Datatype::byte(),
            )
            .unwrap(),
            8,
        ),
    ];
    for (shape, ty, count) in &shapes {
        let plan = TransferPlan::compile(ty, *count);
        let seg = Segment::new(ty, *count);
        let n = plan.total_bytes();
        let kernel = format!("{:?}", plan.kernel());
        let kernel = kernel.split([' ', '{']).next().unwrap_or("?");
        let span = (ty.true_ub() as u64 + ty.extent().unsigned_abs() * count) as usize + 64;
        let buf = AlignedBuf::new(span, 0xA5);
        let mut out = AlignedBuf::new(n as usize, 0);
        r.bench(
            &format!("kernel/pack/{shape}/{kernel}/bytes/{n}"),
            Some(n),
            || {
                plan.pack(0, n, black_box(&buf[..]), 0, black_box(&mut out[..]))
                    .unwrap();
            },
        );
        let stream = AlignedBuf::new(n as usize, 0x5A);
        let mut user = AlignedBuf::new(span, 0);
        r.bench(
            &format!("kernel/unpack/{shape}/{kernel}/bytes/{n}"),
            Some(n),
            || {
                plan.unpack(0, n, black_box(&stream[..]), black_box(&mut user[..]), 0)
                    .unwrap();
            },
        );
        r.bench(
            &format!("kernel/pack_naive/{shape}/bytes/{n}"),
            Some(n),
            || {
                seg.pack(0, n, black_box(&buf[..]), 0, black_box(&mut out[..]))
                    .unwrap();
            },
        );
    }
}

/// Event-queue microbenches: the timing wheel against the retired
/// binary heap on an identical deterministic schedule/pop churn (a mix
/// of near-future inserts and batch pops, the simulator's access
/// pattern).
fn bench_queue(r: &mut Report) {
    use ibdt_simcore::{EventQueue, HeapQueue};
    const OPS: usize = 4096;
    // xorshift-driven mix: 3 schedules per 2 pops, horizon 1–64 µs.
    // `clock` persists across ops so virtual time stays monotone on a
    // long-lived queue, exactly as inside a simulation.
    fn churn(clock: &mut u64, mut next: impl FnMut(&mut u64, u64) -> Option<(u64, u32)>) {
        let mut s = 0x9E37_79B9u64;
        let mut n = 0usize;
        while n < OPS {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if let Some((t, _)) = next(clock, s) {
                *clock = t;
            }
            n += 1;
        }
    }
    // Queues are constructed once and drained at the end of each op:
    // the measured loop is the *steady state* of a long simulation,
    // where slot/arena storage is warm. The steady-state gate requires
    // the wheel at exactly 0 allocs/op here (its slot vectors recycle
    // through the spare pool).
    let mut wq: EventQueue<u32> = EventQueue::new();
    let mut wclock = 0u64;
    r.bench(&format!("queue/wheel/churn/ops/{OPS}"), None, || {
        let mut pending = 0u64;
        churn(&mut wclock, |clock, s| {
            if s % 5 < 3 || pending == 0 {
                wq.schedule(*clock + 1 + (s >> 8) % 64_000, s as u32);
                pending += 1;
                None
            } else {
                pending -= 1;
                black_box(wq.pop())
            }
        });
        while let Some((t, _)) = wq.pop() {
            wclock = t;
        }
        black_box(wq.len());
    });
    let mut hq: HeapQueue<u32> = HeapQueue::new();
    let mut hclock = 0u64;
    r.bench(&format!("queue/heap/churn/ops/{OPS}"), None, || {
        let mut pending = 0u64;
        churn(&mut hclock, |clock, s| {
            if s % 5 < 3 || pending == 0 {
                hq.schedule(*clock + 1 + (s >> 8) % 64_000, s as u32);
                pending += 1;
                None
            } else {
                pending -= 1;
                black_box(hq.pop())
            }
        });
        while let Some((t, _)) = hq.pop() {
            hclock = t;
        }
        black_box(hq.len());
    });
}

/// The tentpole comparison: per-send fixed host work, repeated across
/// many sends of the SAME (datatype, count) — the steady state of every
/// figure workload. Two components, mirroring the two hot paths in
/// `progress.rs`:
///
/// * `pack_eager` — the eager path: pack one 1 KiB vector message.
///   Old: re-instantiate the segment walker + allocate fresh staging.
///   New: plan-cache hit + scratch-pool staging.
/// * `sge_build` — the zero-copy descriptor path (RWG-UP / Multi-W):
///   build the absolute SGE chunk list for the whole message.
///   Old: re-materialize `flat().repeat(count)` + fresh list.
///   New: iterate the plan's cached merged blocks into a scratch list.
///
/// The bulk byte copy of large packed sends is identical on both paths
/// (see `pack/segment` vs `pack/plan` above); what the cache removes is
/// this per-send fixed overhead, so the speedup is measured on it.
fn bench_repeated_send(r: &mut Report) -> (f64, f64) {
    let max_sge = 16usize;
    let base: u64 = 0x10_0000;

    // Eager-style pack: vector(128, 2, 4096) = 128 blocks, 1 KiB total.
    let ety = vector_ty(2);
    let n = ety.size();
    let ebuf = vec![0x3Cu8; ety.true_ub() as usize + 64];
    let old_pack = r.bench(
        &format!("repeated_send/pack_eager/old/bytes/{n}"),
        Some(n),
        || {
            let seg = Segment::new(black_box(&ety), 1);
            let mut staging = vec![0u8; n as usize];
            seg.pack(0, n, &ebuf, 0, &mut staging).unwrap();
            // Copy-cost accounting walked every block again.
            black_box(seg.block_count_in(0, n).unwrap());
            black_box(staging);
        },
    );
    let mut registry = TypeRegistry::new();
    let mut cache = PlanCache::new(true, 64);
    let mut scratch = ScratchPool::new();
    let new_pack = r.bench(
        &format!("repeated_send/pack_eager/new/bytes/{n}"),
        Some(n),
        || {
            let plan = cache.lookup(&mut registry, black_box(&ety), 1);
            let mut staging = scratch.take_bytes(n as usize);
            plan.pack(0, n, &ebuf, 0, &mut staging).unwrap();
            // O(log blocks) via the prefix-sum index.
            black_box(plan.block_count_in(0, n).unwrap());
            scratch.put_bytes(staging);
        },
    );

    // SGE/descriptor build: vector(128, 64, 4096) × 4 = 512 blocks.
    let sty = vector_ty(64);
    let count = 4u64;
    let old_sge = r.bench("repeated_send/sge_build/old/blocks/512", None, || {
        // RWG-UP posting instantiated a fresh walker per message, and
        // isend re-derived the block statistics (a sort for the
        // median) on every send before building descriptors.
        black_box(Segment::new(black_box(&sty), count));
        black_box(black_box(&sty).flat().stats(count));
        let blocks: Vec<(u64, u64)> = black_box(&sty)
            .flat()
            .repeat(count)
            .into_iter()
            .map(|(o, l)| ((base as i64 + o) as u64, l))
            .collect();
        black_box(chunk_gather(&blocks, max_sge));
    });
    let splan = cache.lookup(&mut registry, &sty, count);
    let new_sge = r.bench("repeated_send/sge_build/new/blocks/512", None, || {
        black_box(black_box(&splan).stats());
        let mut blocks = scratch.take_blocks();
        blocks.extend(
            black_box(&splan)
                .blocks()
                .iter()
                .map(|&(o, l)| ((base as i64 + o) as u64, l)),
        );
        let chunks = chunk_gather(&blocks, max_sge);
        scratch.put_blocks(blocks);
        black_box(chunks);
    });

    (old_pack + old_sge, new_pack + new_sge)
}

/// The allocation-free steady state, end to end on the host side: N
/// repeated "persistent" eager sends of the same (datatype, count) —
/// plan-cache hit, scratch-pool staging, pack, and a pooled payload
/// slab (buffer + `Arc` control block both reused). After the warm-up
/// passes this loop performs **zero** heap allocations per send;
/// `tools/bench_gate.py` fails CI if `allocs_per_op` ever leaves 0.
fn bench_persistent(r: &mut Report) {
    let ty = vector_ty(2);
    let n = ty.size();
    let buf = vec![0x3Cu8; ty.true_ub() as usize + 64];
    let mut registry = TypeRegistry::new();
    let mut cache = PlanCache::new(true, 64);
    let mut scratch = ScratchPool::new();
    r.bench(
        &format!("repeated_send/persistent_eager/bytes/{n}"),
        Some(n),
        || {
            let plan = cache.lookup(&mut registry, black_box(&ty), 1);
            let mut staging = scratch.take_bytes(n as usize);
            plan.pack(0, n, &buf, 0, &mut staging).unwrap();
            let payload = Payload::build(n as usize, |v| v.extend_from_slice(&staging));
            black_box(payload.as_slice());
            scratch.put_bytes(staging);
            drop(payload);
        },
    );
}

/// Canonicalization benches. Asserts — in the binary, so the ci.sh
/// bench smoke enforces it — that three spellings of one layout
/// compile exactly one plan, then measures the steady-state respelled
/// lookup (a canonical-hit: `OnceLock` read + LRU hit, zero allocs)
/// and the full normalize-an-unseen-spelling path.
fn bench_canon(r: &mut Report) -> (u64, u64) {
    let int = Datatype::int();
    // vector(128, 16, 4096): 128 blocks of 16 ints every 16384 bytes —
    // under three spellings (hvector strides in bytes, hindexed
    // displacements in bytes, block lengths in elements throughout).
    let v = vector_ty(16);
    let hv = Datatype::hvector(128, 16, 16384, &int).unwrap();
    let entries: Vec<(u64, i64)> = (0..128).map(|i| (16, i * 16384)).collect();
    let hx = Datatype::hindexed(&entries, &int).unwrap();

    let mut registry = TypeRegistry::new();
    let mut cache = PlanCache::new(true, 64).with_canonicalization(true);
    cache.lookup(&mut registry, &v, 1);
    cache.lookup(&mut registry, &hv, 1);
    cache.lookup(&mut registry, &hx, 1);
    let (_, misses, _) = cache.stats();
    let (canon_hits, canonicalized) = cache.canon_stats();
    assert_eq!(
        misses, 1,
        "three spellings of one layout must compile exactly one plan"
    );
    assert!(
        canon_hits >= 2,
        "respelled lookups must hit the canonical plan"
    );

    r.bench("canon/respelled_lookup/vector_cols/16", None, || {
        black_box(cache.lookup(&mut registry, black_box(&hx), 1));
    });
    r.bench("canon/normalize_fresh/blocks/128", None, || {
        // An unseen spelling every op: tree build + flatten + normal
        // form + intern-table probe (hits the shared canonical node).
        let t = Datatype::hindexed(black_box(&entries), &int).unwrap();
        black_box(t.canonical());
    });
    (canon_hits, canonicalized)
}

/// Device-tier benches: wall-clock host cost of a full simulated
/// bandwidth run with device-resident buffers — the staged bounce
/// pipeline (explicit 8 KiB chunks vs the adaptive chunk model) on top
/// of BC-SPUP. Returns the staging-chunk count for the summary line.
fn bench_device(r: &mut Report) -> u64 {
    use ibdt_workloads::bandwidth_device;
    let ty = vector_ty(256);
    let mut chunks = 0u64;
    for (label, chunk) in [("chunk/8192", 8192u64), ("chunk/auto", 0)] {
        r.bench(&format!("device/bandwidth_staged/{label}"), None, || {
            let mut spec = ClusterSpec::default();
            spec.mpi.scheme = Scheme::BcSpup;
            spec.mpi.staging_chunk = chunk;
            let res = bandwidth_device(&spec, &ty, 1, 4);
            assert!(res.stats.staging_chunks > 0, "staged pipeline unused");
            chunks = res.stats.staging_chunks;
            black_box(res.bytes_per_sec);
        });
    }
    chunks
}

/// x1-style sweep: wall-clock host time of a full simulated ping-pong
/// per column count, plan cache on vs off. Virtual results are
/// identical; only the host pays differently.
fn bench_sweep(r: &mut Report) {
    for cols in [4u64, 64, 512] {
        for cache in [true, false] {
            let label = format!(
                "sweep_x1/pingpong_cols/{cols}/cache_{}",
                if cache { "on" } else { "off" }
            );
            let ty = vector_ty(cols);
            r.bench(&label, None, || {
                let mut spec = ClusterSpec::default();
                spec.mpi.scheme = Scheme::BcSpup;
                spec.mpi.plan_cache = cache;
                let mut cluster = Cluster::new(spec);
                let span = ty.true_ub() as u64 + 64;
                let sbuf = cluster.alloc(0, span, 4096);
                let rbuf = cluster.alloc(1, span, 4096);
                let mut p0 = Vec::new();
                let mut p1 = Vec::new();
                for tag in 0..4 {
                    p0.push(AppOp::Isend {
                        peer: 1,
                        buf: sbuf,
                        count: 1,
                        ty: ty.clone(),
                        tag,
                    });
                    p0.push(AppOp::WaitAll);
                    p1.push(AppOp::Irecv {
                        peer: 0,
                        buf: rbuf,
                        count: 1,
                        ty: ty.clone(),
                        tag,
                    });
                    p1.push(AppOp::WaitAll);
                }
                black_box(cluster.run(vec![p0, p1]));
                cluster.recycle();
            });
        }
    }
}

/// Shared-memory transport sweep: wall-clock host cost of a full
/// simulated ping-pong over the shm channel, one entry per copy mode.
/// The double-copy run bounces every byte through the shared segment;
/// the single-copy run issues per-block CMA copies — both exercise the
/// transport's chunking/occupancy machinery end to end. Clusters
/// recycle across iterations like the x1 sweep, so steady-state
/// allocations gate at the same level.
fn bench_shm(r: &mut Report) {
    use ibdt_mpicore::{ShmConfig, ShmCopyMode, TransportConfig};
    for (label, mode) in [
        ("double", ShmCopyMode::Double),
        ("single", ShmCopyMode::Single),
    ] {
        let ty = vector_ty(64);
        r.bench(&format!("shm/pingpong_cols/64/{label}"), None, || {
            let mut spec = ClusterSpec::default();
            spec.mpi.scheme = Scheme::Adaptive;
            spec.transport = TransportConfig::Shm(ShmConfig {
                copy_mode: mode,
                ..ShmConfig::default()
            });
            let mut cluster = Cluster::new(spec);
            let span = ty.true_ub() as u64 + 64;
            let sbuf = cluster.alloc(0, span, 4096);
            let rbuf = cluster.alloc(1, span, 4096);
            let mut p0 = Vec::new();
            let mut p1 = Vec::new();
            for tag in 0..4 {
                p0.push(AppOp::Isend {
                    peer: 1,
                    buf: sbuf,
                    count: 1,
                    ty: ty.clone(),
                    tag,
                });
                p0.push(AppOp::WaitAll);
                p1.push(AppOp::Irecv {
                    peer: 0,
                    buf: rbuf,
                    count: 1,
                    ty: ty.clone(),
                    tag,
                });
                p1.push(AppOp::WaitAll);
            }
            black_box(cluster.run(vec![p0, p1]));
            cluster.recycle();
        });
    }
}

/// Incast overload: wall-clock host time of a full 8→1 eager incast
/// simulation with the bounded CQ on, flow control off vs credits=32.
/// This is the overload machinery's host-side cost — credit tables,
/// piggyback encoding, CqAck events — gated in CI like the other
/// simulation sweeps.
fn bench_incast(r: &mut Report) {
    use ibdt_workloads::{incast, incast_spec};
    for credits in [0u32, 32] {
        let label = format!("incast/fanin/8/credits/{credits}");
        r.bench(&label, None, || {
            let mut sp = incast_spec(9, credits);
            sp.net.cq_depth = 256;
            black_box(incast(&sp, 12, 512, 2_000));
        });
    }
}

/// Sharded scale driver (§14): wall-clock host time of a vector
/// Alltoall at a mid-size rank count, one shard vs eight. Result
/// bit-identity across shard and thread counts is asserted by the
/// workloads tests; the gate here watches host cost and allocations.
fn bench_scale(r: &mut Report) {
    use ibdt_workloads::{run_scale, ScaleConfig};
    for shards in [1usize, 8] {
        let label = format!("scale/alltoall/256/shards/{shards}");
        r.bench(&label, None, || {
            let cfg = ScaleConfig {
                ranks: 256,
                shards,
                ..ScaleConfig::default()
            };
            black_box(run_scale(&cfg));
        });
    }
}

fn main() {
    let mut r = Report::new();
    bench_plan_compile(&mut r);
    bench_pack(&mut r);
    bench_kernels(&mut r);
    bench_queue(&mut r);
    let (old, new) = bench_repeated_send(&mut r);
    bench_persistent(&mut r);
    let (canon_hits, canonicalized) = bench_canon(&mut r);
    let staging_chunks = bench_device(&mut r);
    bench_sweep(&mut r);
    bench_shm(&mut r);
    bench_incast(&mut r);
    bench_scale(&mut r);
    let speedup = old / new;
    println!("\nrepeated_send speedup (old/new): {speedup:.2}x");
    println!(
        "canonicalization: {canonicalized} respelled types, {canon_hits} canonical plan hits \
         (3 spellings -> 1 compile asserted)"
    );
    println!("device staging: {staging_chunks} bounce chunks per bandwidth run");
    r.entries
        .push(("repeated_send/speedup".into(), speedup, 0.0, 0.0));
    std::fs::write("BENCH_hotpath.json", r.to_json()).expect("write BENCH_hotpath.json");
    println!("wrote BENCH_hotpath.json ({} entries)", r.entries.len());
}
