//! Cluster recycling: a recycled cluster must behave exactly like a
//! newly built one.
//!
//! [`Cluster::recycle`] parks a finished cluster in a thread-local
//! pool keyed by shape (rank count, memory capacity, transport kind);
//! [`Cluster::new`] with any spec of that shape resets and reuses it.
//! The contract is exact — same virtual-time results, same receiver
//! memory, and the same `RunStats` as a newly built cluster, apart from
//! the two host-side counters that describe the reused buffers
//! themselves (`scratch_pool`, `space_pool`) — so a sweep can recycle
//! freely without perturbing any published number. These tests drive
//! the whole `RunStats` through its `Debug` form, which covers every
//! other field (the payload-pool delta included) without a curated
//! allow-list.

use ibdt_datatype::Datatype;
use ibdt_mpicore::{
    AppOp, Cluster, ClusterSpec, Program, RunStats, Scheme, ShmConfig, ShmCopyMode, TransportConfig,
};
use ibdt_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn ib_spec(scheme: Scheme) -> ClusterSpec {
    let mut spec = ClusterSpec::default();
    spec.mpi.scheme = scheme;
    spec
}

fn shm_spec(mode: ShmCopyMode) -> ClusterSpec {
    let mut spec = ClusterSpec::default();
    spec.mpi.scheme = Scheme::Adaptive;
    spec.transport = TransportConfig::Shm(ShmConfig {
        copy_mode: mode,
        ..ShmConfig::default()
    });
    spec
}

/// The paper's vector type: `cols` columns of a 128 x 4096 int array.
fn vector_cols(cols: u64) -> Datatype {
    Datatype::vector(128, cols, 4096, &Datatype::int()).unwrap()
}

/// One ping-pong round per tag over `cols` columns: eager for small
/// column counts, rendezvous for large — both protocol tiers and the
/// echo direction exercise the reset send *and* receive state.
fn programs(ty: &Datatype, sbuf: u64, rbuf: u64) -> Vec<Program> {
    let mut p0: Program = vec![AppOp::MarkTime { slot: 0 }];
    let mut p1: Program = Vec::new();
    for tag in 0..3 {
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
    p1.push(AppOp::Isend {
        peer: 0,
        buf: rbuf,
        count: 1,
        ty: ty.clone(),
        tag: 9,
    });
    p1.push(AppOp::WaitAll);
    p0.push(AppOp::Irecv {
        peer: 1,
        buf: sbuf,
        count: 1,
        ty: ty.clone(),
        tag: 9,
    });
    p0.push(AppOp::WaitAll);
    p0.push(AppOp::MarkTime { slot: 1 });
    vec![p0, p1]
}

/// One workload run on a cluster built by [`run_workload`].
struct Run {
    stats: RunStats,
    /// Full `Debug` fingerprint of `stats`.
    fp: String,
    /// Receiver memory after the run.
    mem: Vec<u8>,
    /// Allocations in `Cluster::new` alone.
    build_allocs: u64,
    /// Allocations in `Cluster::new` plus the run.
    allocs: u64,
}

/// Builds a cluster for `spec` (transparently pool-hitting if one of
/// its shape was recycled), runs one ping-pong workload over `cols`
/// columns — on device-resident buffers when `device` — and recycles
/// the cluster afterwards iff `recycle`.
fn run_workload(spec: &ClusterSpec, cols: u64, device: bool, recycle: bool) -> Run {
    let ty = vector_cols(cols);
    let spec = spec.clone();
    let a0 = CountingAlloc::allocations();
    let mut cluster = Cluster::new(spec);
    let build_allocs = CountingAlloc::allocations() - a0;
    let span = ty.true_ub() as u64 + 64;
    let (sbuf, rbuf) = if device {
        (
            cluster.alloc_device(0, span, 4096),
            cluster.alloc_device(1, span, 4096),
        )
    } else {
        (cluster.alloc(0, span, 4096), cluster.alloc(1, span, 4096))
    };
    cluster.fill_pattern(0, sbuf, span, 42);
    let progs = programs(&ty, sbuf, rbuf);
    let stats = cluster.run(progs);
    let allocs = CountingAlloc::allocations() - a0;
    let mem = cluster.read_mem(1, rbuf, span);
    if recycle {
        cluster.recycle();
    }
    Run {
        fp: format!("{stats:?}"),
        stats,
        mem,
        build_allocs,
        allocs,
    }
}

/// Removes the two host-side counters that describe the reused
/// buffers themselves from a `RunStats` fingerprint: `scratch_pool`
/// (a recycled rank's scratch shelves are warm, so takes count reuses
/// where a new rank's count allocations) and `space_pool` (a recycled
/// address space reports one reuse and its re-zeroed bytes where a new
/// one reports one fresh allocation). Everything else must match
/// exactly.
fn scrub_host_pools(fp: &str) -> String {
    let mut out = fp.to_string();
    for (start, end) in [("scratch_pool: [", "]"), ("space_pool: (", ")")] {
        let s = out.find(start).expect("field present in Debug output");
        let e = out[s..].find(end).expect("field terminator") + s + end.len();
        out.replace_range(s..e, "");
    }
    out
}

/// Asserts that `reused` ran on a recycled cluster and otherwise
/// matches the newly built `fresh` run exactly.
fn assert_same_run(fresh: &Run, reused: &Run, nprocs: u64) {
    assert_eq!(
        fresh.stats.space_pool.0, nprocs,
        "reference was not a new build"
    );
    assert_eq!(
        (reused.stats.space_pool.0, reused.stats.space_pool.1),
        (0, nprocs),
        "build did not reuse the parked cluster"
    );
    assert_eq!(
        scrub_host_pools(&fresh.fp),
        scrub_host_pools(&reused.fp),
        "recycled RunStats diverged from a new build"
    );
    assert_eq!(fresh.mem, reused.mem, "recycled receiver memory diverged");
}

/// Same spec, same workload: the recycled run must reproduce the new
/// build's run exactly, while constructing with strictly fewer
/// allocations.
fn assert_recycled_identical(spec: &ClusterSpec) {
    // Warms this thread's payload slab pool, which outlives clusters;
    // dropped, not recycled, so the next build is a new one.
    let _ = run_workload(spec, 4, false, false);
    let fresh = run_workload(spec, 4, false, true);
    // The recycle above parked the cluster; this run must pool-hit.
    let reused = run_workload(spec, 4, false, false);
    assert_same_run(&fresh, &reused, 2);
    assert!(
        reused.allocs < fresh.allocs,
        "pool hit saved no allocations (fresh {}, recycled {}) — recycling is not engaging",
        fresh.allocs,
        reused.allocs
    );
}

#[test]
fn recycled_run_bit_identical_ib() {
    assert_recycled_identical(&ib_spec(Scheme::BcSpup));
}

#[test]
fn recycled_run_bit_identical_ib_adaptive() {
    assert_recycled_identical(&ib_spec(Scheme::Adaptive));
}

#[test]
fn recycled_run_bit_identical_shm_double() {
    assert_recycled_identical(&shm_spec(ShmCopyMode::Double));
}

#[test]
fn recycled_run_bit_identical_shm_single() {
    assert_recycled_identical(&shm_spec(ShmCopyMode::Single));
}

/// A recycled cluster must not leak its previous run into a
/// *different* workload: running Q on a cluster that previously ran P
/// must equal running Q on a new cluster.
#[test]
fn recycled_cluster_forgets_previous_run() {
    let spec = ib_spec(Scheme::BcSpup);
    let _ = run_workload(&spec, 64, false, false); // warm the payload pool
                                                   // New-build reference for workload Q (64 columns -> rendezvous).
    let q_fresh = run_workload(&spec, 64, false, false);
    // Run workload P (4 columns -> eager) and recycle.
    let _ = run_workload(&spec, 4, false, true);
    // The pooled cluster (which ran P) now runs Q.
    let q_reused = run_workload(&spec, 64, false, false);
    assert_same_run(&q_fresh, &q_reused, 2);
}

/// Parks a cluster that ran under `from` (buffers on the device iff
/// `from_dev`), then builds for `to` — which must reuse it — and
/// compares that run with a new build of `to`.
fn assert_reuse_across_specs(from: &ClusterSpec, from_dev: bool, to: &ClusterSpec, to_dev: bool) {
    for cols in [4, 64] {
        let _ = run_workload(to, cols, to_dev, false); // warm the payload pool
                                                       // This test's thread holds no parked cluster here: a new build.
        let fresh = run_workload(to, cols, to_dev, false);
        let _ = run_workload(from, cols, from_dev, true);
        let reused = run_workload(to, cols, to_dev, false);
        assert_same_run(&fresh, &reused, 2);
    }
}

#[test]
fn reuse_across_schemes() {
    assert_reuse_across_specs(
        &ib_spec(Scheme::BcSpup),
        false,
        &ib_spec(Scheme::MultiW),
        false,
    );
}

#[test]
fn reuse_with_pindown_and_internal_buffer_reuse_off() {
    let mut to = ib_spec(Scheme::MultiW);
    to.mpi.pindown_cache = false;
    to.mpi.reuse_internal_bufs = false;
    assert_reuse_across_specs(&ib_spec(Scheme::MultiW), false, &to, false);
}

#[test]
fn reuse_with_flow_control_on() {
    let mut to = ib_spec(Scheme::BcSpup);
    to.mpi.flow_control = true;
    to.mpi.eager_credits = 2;
    assert_reuse_across_specs(&ib_spec(Scheme::BcSpup), false, &to, false);
}

#[test]
fn reuse_with_plan_cache_off() {
    let mut to = ib_spec(Scheme::BcSpup);
    to.mpi.plan_cache = false;
    assert_reuse_across_specs(&ib_spec(Scheme::BcSpup), false, &to, false);
}

#[test]
fn reuse_between_host_and_device_runs() {
    let spec = ib_spec(Scheme::BcSpup);
    assert_reuse_across_specs(&spec, false, &spec, true);
    assert_reuse_across_specs(&spec, true, &spec, false);
}

#[test]
fn reuse_across_shm_copy_modes() {
    assert_reuse_across_specs(
        &shm_spec(ShmCopyMode::Double),
        false,
        &shm_spec(ShmCopyMode::Single),
        false,
    );
}

/// Cycling more specs of one shape than the pool holds clusters must
/// not rebuild: every build reuses the one parked cluster, so a build
/// allocates no more than rebuilding a single spec does.
#[test]
fn cycling_schemes_of_one_shape_does_not_rebuild() {
    const ROUNDS: u64 = 4;
    let schemes = [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::MultiW,
        Scheme::Adaptive,
    ];
    let one = ib_spec(Scheme::BcSpup);
    let _ = run_workload(&one, 4, false, true);
    let same: u64 = (0..ROUNDS * schemes.len() as u64)
        .map(|_| run_workload(&one, 4, false, true).build_allocs)
        .sum();
    let mut cycled = 0;
    for _ in 0..ROUNDS {
        for &scheme in &schemes {
            cycled += run_workload(&ib_spec(scheme), 4, false, true).build_allocs;
        }
    }
    assert!(
        cycled <= same,
        "cycling {} schemes allocated {cycled} in {} builds, rebuilding one spec {same}",
        schemes.len(),
        ROUNDS * schemes.len() as u64
    );
}
