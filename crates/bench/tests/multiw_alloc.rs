//! Multi-W posts one RDMA write per receiver-contiguous block, so a
//! halo column of `n` doubles is `n` work requests. The host cost of a
//! message must not scale with that count in heap allocations: the
//! planner keeps each write's gather list inline and the fabric sends
//! the list's unsignaled writes as one recycled train.
//!
//! The allocation counter is per thread, so the deltas cover this
//! test's own runs only, whatever else the harness runs in parallel.

use ibdt_datatype::Datatype;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Program, Scheme};
use ibdt_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one 2-rank run that sends `msgs` Multi-W messages of
/// a `rows`-row halo column (`vector(rows, 1, 258, double)`: one write
/// per row), one after another, on a recycled cluster.
fn run_allocs(rows: u64, msgs: u32) -> u64 {
    let ty = Datatype::vector(rows, 1, 258, &Datatype::double()).unwrap();
    let mut spec = ClusterSpec::default();
    spec.mpi.scheme = Scheme::MultiW;
    let before = CountingAlloc::allocations();
    let mut cluster = Cluster::new(spec);
    let span = ty.true_ub() as u64 + 64;
    let (sbuf, rbuf) = (cluster.alloc(0, span, 4096), cluster.alloc(1, span, 4096));
    cluster.fill_pattern(0, sbuf, span, 5);
    let op = |peer, buf, tag| {
        let ty = ty.clone();
        if peer == 1 {
            AppOp::Isend { peer, buf, count: 1, ty, tag }
        } else {
            AppOp::Irecv { peer, buf, count: 1, ty, tag }
        }
    };
    let progs: Vec<Program> = [(1, sbuf), (0, rbuf)]
        .into_iter()
        .map(|(peer, buf)| {
            (0..msgs)
                .flat_map(|tag| [op(peer, buf, tag), AppOp::WaitAll])
                .collect()
        })
        .collect();
    let stats = cluster.run(progs);
    assert_eq!(stats.total_errors(), 0);
    assert_eq!(stats.wqes, u64::from(msgs) * (rows + 2), "RndvStart, reply and one write per row");
    cluster.recycle();
    CountingAlloc::allocations() - before
}

/// Heap allocations per extra message, from two warm runs of 8 and 16
/// messages, rounded to the nearest whole number: a one-off allocation
/// (a table growing in one run and not the other) is not a per-message
/// cost.
fn allocs_per_message(rows: u64) -> u64 {
    for _ in 0..3 {
        run_allocs(rows, 16);
    }
    let (few, many) = (run_allocs(rows, 8), run_allocs(rows, 16));
    (many.saturating_sub(few) + 4) / 8
}

#[test]
fn multiw_message_allocations_do_not_scale_with_wqes() {
    let per_256 = allocs_per_message(256);
    let per_512 = allocs_per_message(512);
    assert!(
        per_256 <= 16,
        "a 256-WQE Multi-W message allocates {per_256} times ({per_512} at 512 WQEs)"
    );
    assert_eq!(
        per_256, per_512,
        "doubling the WQEs per message moved its allocations"
    );
}
