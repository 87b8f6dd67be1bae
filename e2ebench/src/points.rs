//! The four workloads, each a fixed list of points, and the code that
//! runs one point through the library's public API and checks its
//! output.
//!
//! Cluster points mirror the program shapes of
//! `ibdt_workloads::drivers` (ping-pong with 2 warm-up and 5 measured
//! round trips, a 100-message bandwidth window, 3 barrier-separated
//! Alltoalls after one warm-up round) so their virtual results can be
//! held to the committed figure CSVs. They are rebuilt here rather
//! than called because the drivers do not expose the set-up / run /
//! verify phases separately, and the benchmark times each one.

use crate::layers::Layers;
use ibdt_datatype::Datatype;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Program, ReduceOp, RunStats, Scheme};
use ibdt_workloads::{run_scale, struct_datatype, ScaleConfig, ScalePattern, VectorWorkload};
use std::time::Instant;

/// Ping-pong round trips before the measured ones (as in Fig. 8).
const PP_WARMUP: u32 = 2;
/// Measured ping-pong round trips (as in Fig. 8).
const PP_ITERS: u32 = 5;
/// Messages in the bandwidth window (§8.2, Fig. 9).
const BW_WINDOW: u32 = 100;
/// Measured Alltoalls per point (as in Fig. 11).
const A2A_ITERS: u32 = 3;
/// Halo tile interior side, in doubles.
const HALO_N: u64 = 256;
/// Halo tile width including the one-cell halo.
const HALO_W: u64 = HALO_N + 2;
/// Halo iterations per point.
const HALO_ITERS: u32 = 200;
/// Virtual compute per halo iteration, ns.
const HALO_COMPUTE_NS: u64 = 20_000;
/// Ranks of the scale workload.
pub const SCALE_RANKS: u32 = 1024;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "p2p_vector",
    "alltoall_struct",
    "halo_allreduce",
    "scale_alltoall",
];

/// What one point runs.
#[derive(Debug, Clone)]
pub enum Kind {
    /// 2-rank ping-pong of one vector instance.
    PingPong { cols: u64 },
    /// 2-rank 100-message bandwidth window of one vector instance.
    Bandwidth { cols: u64 },
    /// 8-rank struct Alltoall.
    Alltoall { last_block_ints: u64 },
    /// 4-rank 2×2 torus halo exchange plus Allreduce.
    Halo,
    /// The sharded scale driver, sequential.
    Scale,
}

impl Kind {
    /// The datatype the point sends, one instance per message, with a
    /// name that is equal for equal layouts.
    pub fn datatype(&self) -> (String, Datatype) {
        match *self {
            Kind::PingPong { cols } | Kind::Bandwidth { cols } => (
                format!("vector(128, {cols}, 4096, int)"),
                VectorWorkload::new(cols).ty,
            ),
            Kind::Alltoall { last_block_ints } => (
                format!("fig10_struct(last={last_block_ints})"),
                struct_datatype(last_block_ints),
            ),
            Kind::Halo => ("vector(256, 1, 258, double)".into(), halo_col_type()),
            Kind::Scale => (
                "vector(128, 4, 4096, int)".into(),
                VectorWorkload::new(4).ty,
            ),
        }
    }
}

/// One point of a workload.
#[derive(Debug, Clone)]
pub struct Point {
    /// Stable name, used in the trace and the determinism report.
    pub name: String,
    /// What the point runs.
    pub kind: Kind,
    /// Cluster configuration (unused by [`Kind::Scale`]).
    pub spec: ClusterSpec,
    /// Scheme column of the committed figure CSVs, if any.
    pub csv_series: Option<&'static str>,
    /// Fig. 14 worst-case buffer setting.
    pub worst: bool,
}

fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::Generic => "Generic",
        Scheme::BcSpup => "BC-SPUP",
        Scheme::RwgUp => "RWG-UP",
        Scheme::PRrs => "P-RRS",
        Scheme::MultiW => "Multi-W",
        Scheme::Adaptive => "Adaptive",
        Scheme::Hybrid => "Hybrid",
    }
}

/// The four schemes the paper's figures plot; only these have CSV
/// columns.
fn in_figures(s: Scheme) -> bool {
    matches!(
        s,
        Scheme::Generic | Scheme::BcSpup | Scheme::RwgUp | Scheme::MultiW
    )
}

fn spec(scheme: Scheme, nprocs: u32, worst: bool) -> ClusterSpec {
    let mut s = ClusterSpec {
        nprocs,
        ..ClusterSpec::default()
    };
    s.mpi.scheme = scheme;
    if worst {
        s.mpi.pindown_cache = false;
        s.mpi.reuse_internal_bufs = false;
    }
    s
}

/// The points of `workload`, or `None` for an unknown name. Points
/// sharing a cluster spec are adjacent so the thread-local cluster
/// pool serves them.
pub fn points(workload: &str) -> Option<Vec<Point>> {
    let mut out = Vec::new();
    match workload {
        "p2p_vector" => {
            let mut configs: Vec<(Scheme, bool)> = [
                Scheme::Generic,
                Scheme::BcSpup,
                Scheme::RwgUp,
                Scheme::PRrs,
                Scheme::MultiW,
                Scheme::Hybrid,
                Scheme::Adaptive,
            ]
            .into_iter()
            .map(|s| (s, false))
            .collect();
            configs.extend([(Scheme::Generic, true), (Scheme::MultiW, true)]);
            for (scheme, worst) in configs {
                for cols in [4u64, 64, 2048] {
                    let tag = if worst { "/worst" } else { "" };
                    let csv_series = in_figures(scheme).then(|| scheme_name(scheme));
                    for kind in [Kind::PingPong { cols }, Kind::Bandwidth { cols }] {
                        let what = match kind {
                            Kind::PingPong { .. } => "pingpong",
                            _ => "bw",
                        };
                        out.push(Point {
                            name: format!("{what}/{}{tag}/cols={cols}", scheme_name(scheme)),
                            kind,
                            spec: spec(scheme, 2, worst),
                            csv_series,
                            worst,
                        });
                    }
                }
            }
        }
        "alltoall_struct" => {
            for scheme in [
                Scheme::Generic,
                Scheme::BcSpup,
                Scheme::RwgUp,
                Scheme::MultiW,
                Scheme::Adaptive,
            ] {
                for last_block_ints in [2048u64, 131072] {
                    out.push(Point {
                        name: format!("alltoall/{}/last={last_block_ints}", scheme_name(scheme)),
                        kind: Kind::Alltoall { last_block_ints },
                        spec: spec(scheme, 8, false),
                        csv_series: in_figures(scheme).then(|| scheme_name(scheme)),
                        worst: false,
                    });
                }
            }
        }
        "halo_allreduce" => {
            for scheme in [Scheme::Adaptive, Scheme::MultiW] {
                out.push(Point {
                    name: format!("halo/{}", scheme_name(scheme)),
                    kind: Kind::Halo,
                    spec: spec(scheme, 4, false),
                    csv_series: None,
                    worst: false,
                });
            }
        }
        "scale_alltoall" => out.push(Point {
            name: format!("scale/alltoall/ranks={SCALE_RANKS}"),
            kind: Kind::Scale,
            spec: ClusterSpec::default(),
            csv_series: None,
            worst: false,
        }),
        _ => return None,
    }
    Some(out)
}

/// The virtual-clock result of one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Virt {
    /// Virtual time of one operation (one-way ping-pong, one Alltoall,
    /// one halo iteration), ns.
    OpNs(u64),
    /// 100-message window: virtual interval and bytes moved.
    Window { interval_ns: u64, bytes: u64 },
    /// Scale driver finish time, ns (deliberately not end-to-end).
    ScaleFinishNs(u64),
}

impl Virt {
    /// Window bandwidth in MB/s, computed exactly as the figure code
    /// does so the value matches `results/fig9.csv` digit for digit.
    pub fn mbs(interval_ns: u64, bytes: u64) -> f64 {
        bytes as f64 / (interval_ns as f64 / 1e9) / 1e6
    }
}

/// One timed phase: start (ns since the benchmark epoch) and duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Start, ns since the epoch.
    pub start: u64,
    /// Duration, ns.
    pub dur: u64,
}

/// Host-time split of one point.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostNs {
    /// Building the point's datatypes (and, for the scale point, its
    /// config).
    pub types: Phase,
    /// `Cluster::new`.
    pub new: Phase,
    /// `alloc` and the buffer fill.
    pub alloc_fill: Phase,
    /// `Cluster::run` or `run_scale`.
    pub run: Phase,
    /// Output verification.
    pub verify: Phase,
}

impl HostNs {
    /// Set-up time: datatypes, `Cluster::new`, `alloc` and fill.
    pub fn setup(&self) -> u64 {
        self.types.dur + self.new.dur + self.alloc_fill.dur
    }
}

/// Runs `f`, returning its value and the phase it took.
fn timed<T>(epoch: Instant, f: impl FnOnce() -> T) -> (T, Phase) {
    let start = epoch.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let v = f();
    let dur = t.elapsed().as_nanos() as u64;
    (v, Phase { start, dur })
}

/// Everything one run of a point produced.
#[derive(Debug)]
pub struct Outcome {
    /// Host timings.
    pub host: HostNs,
    /// Output verified and no typed error.
    pub ok: bool,
    /// Why `ok` is false.
    pub why: String,
    /// Virtual-clock result.
    pub virt: Virt,
    /// Exact values that must repeat on every run of this point
    /// (virtual times, event and byte counts, the scale fingerprint).
    pub key: Vec<u64>,
    /// Per-layer counts, read after the run (traced passes only).
    pub layers: Option<Layers>,
    /// The datatype the point's copy kernels replay over, one instance
    /// per message.
    pub replay_type: Option<Datatype>,
}

/// Deterministic 64-bit mix of a seed and a stream index (SplitMix64
/// finaliser); the only source of input variation.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes of `buf` (a view starting at the datatype origin) covered by
/// one instance of `ty`, concatenated in type order.
fn gather(buf: &[u8], ty: &Datatype) -> Vec<u8> {
    let mut out = Vec::with_capacity(ty.size() as usize);
    for (off, len) in ty.flat().repeat(1) {
        out.extend_from_slice(&buf[off as usize..(off as u64 + len) as usize]);
    }
    out
}

fn first_error(stats: &RunStats) -> String {
    stats
        .errors
        .iter()
        .enumerate()
        .find_map(|(r, e)| e.first().map(|e| format!("rank {r}: {e:?}")))
        .unwrap_or_default()
}

/// The point's program, buffers and check, built after set-up.
struct Prepared {
    progs: Vec<Program>,
    check: Check,
}

/// What to compare after the run.
enum Check {
    /// Rank 1's buffer (and, for ping-pong, rank 0's) must hold the
    /// snapshot rank 0's buffer had before the run, at the type's
    /// blocks.
    P2p {
        ty: Datatype,
        b0: u64,
        b1: u64,
        span: u64,
        expect: Vec<u8>,
        echo: bool,
    },
    /// Block `i` of rank `j`'s receive buffer equals block `j` of rank
    /// `i`'s send buffer.
    Alltoall {
        ty: Datatype,
        sbufs: Vec<u64>,
        rbufs: Vec<u64>,
        block: u64,
    },
    /// Every halo equals the neighbour's edge, and every rank's
    /// Allreduce result is the element-wise sum of the right edges.
    Halo { tiles: Vec<u64>, rbufs: Vec<u64> },
}

/// Runs one point: set-up, the timed run, verification, and (when
/// `traced`) the per-layer read-out.
pub fn run_point(p: &Point, seed: u64, traced: bool, epoch: Instant) -> Outcome {
    if let Kind::Scale = p.kind {
        return run_scale_point(traced, epoch);
    }
    let mut host = HostNs::default();
    let ((_, ty), ph) = timed(epoch, || p.kind.datatype());
    host.types = ph;
    let (mut cluster, ph) = timed(epoch, || Cluster::new(p.spec.clone()));
    host.new = ph;
    let (prep, ph) = timed(epoch, || match p.kind {
        Kind::PingPong { .. } => setup_p2p(&mut cluster, &ty, seed, true),
        Kind::Bandwidth { .. } => setup_p2p(&mut cluster, &ty, seed, false),
        Kind::Alltoall { .. } => setup_alltoall(&mut cluster, &ty, seed),
        Kind::Halo => setup_halo(&mut cluster, &ty, seed),
        Kind::Scale => unreachable!("handled above"),
    });
    host.alloc_fill = ph;
    let Prepared { progs, check } = prep.finish(&cluster);

    let (stats, ph) = timed(epoch, || cluster.run(progs));
    host.run = ph;

    let (mut why, ph) = timed(epoch, || verify(&cluster, &check).err().unwrap_or_default());
    host.verify = ph;
    if stats.total_errors() > 0 {
        why = format!(
            "{} typed errors, first {}",
            stats.total_errors(),
            first_error(&stats)
        );
    }

    let mark = |slot| stats.marks[0].iter().find(|m| m.0 == slot).map(|m| m.1);
    let marked = match (mark(0), mark(1)) {
        (Some(a), Some(b)) if b >= a => b - a,
        _ => {
            if why.is_empty() {
                why = "rank 0 did not reach its closing timer mark".into();
            }
            0
        }
    };
    let virt = match p.kind {
        Kind::PingPong { .. } => Virt::OpNs(marked / (2 * PP_ITERS as u64)),
        Kind::Bandwidth { .. } => Virt::Window {
            interval_ns: marked,
            bytes: BW_WINDOW as u64 * ty.size(),
        },
        Kind::Alltoall { .. } => Virt::OpNs(marked / A2A_ITERS as u64),
        Kind::Halo => Virt::OpNs(marked / HALO_ITERS as u64),
        Kind::Scale => unreachable!("handled above"),
    };
    let key = vec![
        marked,
        stats.finish_ns,
        stats.events_scheduled,
        stats.bytes_copied,
        stats.wqes,
        stats.bytes_on_wire,
    ];
    let layers = traced.then(|| Layers::from_cluster(&cluster, &stats));
    cluster.recycle();
    Outcome {
        host,
        ok: why.is_empty(),
        why,
        virt,
        key,
        layers,
        replay_type: Some(ty),
    }
}

impl Prepared {
    /// Snapshots what the check needs from the filled buffers. Runs
    /// after the set-up timer stops.
    fn finish(mut self, cluster: &Cluster) -> Prepared {
        if let Check::P2p {
            ty,
            b0,
            span,
            expect,
            ..
        } = &mut self.check
        {
            *expect = gather(&cluster.read_mem(0, *b0, *span), ty);
        }
        self
    }
}

/// One-instance `Isend`.
fn send(peer: u32, buf: u64, ty: &Datatype, tag: u32) -> AppOp {
    AppOp::Isend {
        peer,
        buf,
        count: 1,
        ty: ty.clone(),
        tag,
    }
}

/// One-instance `Irecv`.
fn recv(peer: u32, buf: u64, ty: &Datatype, tag: u32) -> AppOp {
    AppOp::Irecv {
        peer,
        buf,
        count: 1,
        ty: ty.clone(),
        tag,
    }
}

/// Ping-pong (`echo`) or bandwidth window between ranks 0 and 1, as
/// `drivers::pingpong` / `drivers::bandwidth` build them.
fn setup_p2p(cluster: &mut Cluster, ty: &Datatype, seed: u64, echo: bool) -> Prepared {
    let span = ty.true_ub().max(8) as u64 + 64;
    let b0 = cluster.alloc(0, span, 4096);
    let b1 = cluster.alloc(1, span, 4096);
    cluster.fill_pattern(0, b0, span, mix(seed, 1));
    let (mut p0, mut p1): (Program, Program) = (Vec::new(), Vec::new());
    if echo {
        for i in 0..PP_WARMUP + PP_ITERS {
            if i == PP_WARMUP {
                p0.push(AppOp::MarkTime { slot: 0 });
            }
            p0.extend([send(1, b0, ty, 1), AppOp::WaitAll]);
            p0.extend([recv(1, b0, ty, 2), AppOp::WaitAll]);
            p1.extend([recv(0, b1, ty, 1), AppOp::WaitAll]);
            p1.extend([send(0, b1, ty, 2), AppOp::WaitAll]);
        }
        p0.push(AppOp::MarkTime { slot: 1 });
    } else {
        let reply = Datatype::int();
        let rbuf0 = cluster.alloc(0, 8, 8);
        let rbuf1 = cluster.alloc(1, 8, 8);
        // One warm-up message populates caches and pools.
        p0.extend([send(1, b0, ty, 1), AppOp::WaitAll]);
        p1.extend([recv(0, b1, ty, 1), AppOp::WaitAll]);
        p0.push(AppOp::MarkTime { slot: 0 });
        for _ in 0..BW_WINDOW {
            p0.extend([send(1, b0, ty, 1), AppOp::WaitAll]);
            p1.extend([recv(0, b1, ty, 1), AppOp::WaitAll]);
        }
        p1.extend([send(0, rbuf1, &reply, 9), AppOp::WaitAll]);
        p0.extend([recv(1, rbuf0, &reply, 9), AppOp::WaitAll]);
        p0.push(AppOp::MarkTime { slot: 1 });
    }
    Prepared {
        progs: vec![p0, p1],
        check: Check::P2p {
            ty: ty.clone(),
            b0,
            b1,
            span,
            expect: Vec::new(),
            echo,
        },
    }
}

/// One warm-up Alltoall, a barrier, then [`A2A_ITERS`] timed ones, as
/// `drivers::alltoall_time` builds them.
fn setup_alltoall(cluster: &mut Cluster, ty: &Datatype, seed: u64) -> Prepared {
    let n = cluster.nprocs();
    let block = ty.extent() as u64;
    let span = block * n as u64 + ty.true_ub().max(0) as u64 + 64;
    let (mut sbufs, mut rbufs) = (Vec::new(), Vec::new());
    for r in 0..n {
        let sb = cluster.alloc(r, span, 4096);
        let rb = cluster.alloc(r, span, 4096);
        cluster.fill_pattern(r, sb, span, mix(seed, 100 + r as u64));
        sbufs.push(sb);
        rbufs.push(rb);
    }
    let a2a = |r: usize| AppOp::Alltoall {
        sbuf: sbufs[r],
        rbuf: rbufs[r],
        count: 1,
        sty: ty.clone(),
        rty: ty.clone(),
    };
    let progs = (0..n as usize)
        .map(|r| {
            let mut p: Program = vec![a2a(r), AppOp::Barrier];
            if r == 0 {
                p.push(AppOp::MarkTime { slot: 0 });
            }
            p.extend((0..A2A_ITERS).map(|_| a2a(r)));
            p.push(AppOp::Barrier);
            if r == 0 {
                p.push(AppOp::MarkTime { slot: 1 });
            }
            p
        })
        .collect();
    Prepared {
        progs,
        check: Check::Alltoall {
            ty: ty.clone(),
            sbufs,
            rbufs,
            block,
        },
    }
}

/// `vector(256, 1, 258, double)`: one tile column.
fn halo_col_type() -> Datatype {
    Datatype::vector(HALO_N, 1, HALO_W as i64, &Datatype::double()).expect("halo column type")
}

/// Byte offset of cell `(row, col)` in a halo tile.
fn at(row: u64, col: u64) -> u64 {
    (row * HALO_W + col) * 8
}

/// 2×2 torus: per iteration, two contiguous 2 KiB rows and two column
/// halos each way, then the left halo column is copied into the
/// reduction buffer and `Allreduce(Sum)`-ed over the column type, then
/// 20 µs of compute. The copy keeps the tile out of the reduction:
/// the binomial reduce uses intermediate ranks' send buffers as
/// accumulators.
fn setup_halo(cluster: &mut Cluster, col: &Datatype, seed: u64) -> Prepared {
    let n = cluster.nprocs();
    let row = Datatype::contiguous(HALO_N * 8, &Datatype::byte()).expect("halo row type");
    let tile_bytes = HALO_W * HALO_W * 8;
    let red_bytes = col.true_ub() as u64 + 64;
    let (mut tiles, mut red) = (Vec::new(), Vec::new());
    for r in 0..n {
        let t = cluster.alloc(r, tile_bytes, 4096);
        // Small integers as doubles, so the Allreduce sum is exact in
        // any order.
        let mut data = vec![0u8; tile_bytes as usize];
        for i in 1..=HALO_N {
            for j in 1..=HALO_N {
                let v = (mix(seed, (r as u64) << 32 | i << 16 | j) % 4096) as f64;
                let o = at(i, j) as usize;
                data[o..o + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        cluster.write_mem(r, t, &data);
        tiles.push(t);
        let bufs: [u64; 3] = std::array::from_fn(|_| cluster.alloc(r, red_bytes, 4096));
        red.push(bufs);
    }
    let progs = (0..n)
        .map(|r| {
            let tile = tiles[r as usize];
            let [sred, rred, scratch] = red[r as usize];
            // On a 2×2 torus both horizontal neighbours are the same
            // rank, as are both vertical ones; tags tell the
            // directions apart.
            let (left, right, up, down) = (r ^ 1, r ^ 1, r ^ 2, r ^ 2);
            let mut p: Program = Vec::new();
            if r == 0 {
                p.push(AppOp::MarkTime { slot: 0 });
            }
            for _ in 0..HALO_ITERS {
                p.extend([
                    recv(left, tile + at(1, 0), col, 1),
                    recv(right, tile + at(1, HALO_W - 1), col, 2),
                    recv(up, tile + at(0, 1), &row, 3),
                    recv(down, tile + at(HALO_W - 1, 1), &row, 4),
                    send(right, tile + at(1, HALO_N), col, 1),
                    send(left, tile + at(1, 1), col, 2),
                    send(down, tile + at(HALO_N, 1), &row, 3),
                    send(up, tile + at(1, 1), &row, 4),
                    AppOp::WaitAll,
                    AppOp::CombineBuffers {
                        dst: sred,
                        src: tile + at(1, 0),
                        count: 1,
                        ty: col.clone(),
                        op: ReduceOp::Replace,
                    },
                    AppOp::Allreduce {
                        sbuf: sred,
                        rbuf: rred,
                        scratch,
                        count: 1,
                        ty: col.clone(),
                        op: ReduceOp::Sum,
                    },
                    AppOp::Compute {
                        ns: HALO_COMPUTE_NS,
                    },
                ]);
            }
            if r == 0 {
                p.push(AppOp::MarkTime { slot: 1 });
            }
            p
        })
        .collect();
    Prepared {
        progs,
        check: Check::Halo {
            tiles,
            rbufs: red.iter().map(|b| b[1]).collect(),
        },
    }
}

fn verify(cluster: &Cluster, check: &Check) -> Result<(), String> {
    match check {
        Check::P2p {
            ty,
            b0,
            b1,
            span,
            expect,
            echo,
        } => {
            let got1 = gather(&cluster.read_mem(1, *b1, *span), ty);
            if got1 != *expect {
                return Err("rank 1 received bytes differ from rank 0's source".into());
            }
            if *echo && gather(&cluster.read_mem(0, *b0, *span), ty) != *expect {
                return Err("echoed bytes differ from rank 0's source".into());
            }
            Ok(())
        }
        Check::Alltoall {
            ty,
            sbufs,
            rbufs,
            block,
        } => {
            let len = ty.true_ub().max(0) as u64;
            let blocks = ty.flat().repeat(1);
            for (i, &sb) in sbufs.iter().enumerate() {
                for (j, &rb) in rbufs.iter().enumerate() {
                    let src = cluster.read_mem(i as u32, sb + j as u64 * block, len);
                    let dst = cluster.read_mem(j as u32, rb + i as u64 * block, len);
                    let same = blocks.iter().all(|&(o, l)| {
                        let r = o as usize..(o as u64 + l) as usize;
                        src[r.clone()] == dst[r]
                    });
                    if !same {
                        return Err(format!("alltoall block {i}->{j} differs"));
                    }
                }
            }
            Ok(())
        }
        Check::Halo { tiles, rbufs } => {
            let tile_bytes = HALO_W * HALO_W * 8;
            let t: Vec<Vec<u8>> = (0..tiles.len())
                .map(|r| cluster.read_mem(r as u32, tiles[r], tile_bytes))
                .collect();
            let cell = |r: usize, i: u64, j: u64| {
                let o = at(i, j) as usize;
                &t[r][o..o + 8]
            };
            for r in 0..4usize {
                let (h, v) = (r ^ 1, r ^ 2);
                for i in 1..=HALO_N {
                    if cell(r, i, 0) != cell(h, i, HALO_N)
                        || cell(r, i, HALO_W - 1) != cell(h, i, 1)
                    {
                        return Err(format!("rank {r} column halo differs at row {i}"));
                    }
                    if cell(r, 0, i) != cell(v, HALO_N, i)
                        || cell(r, HALO_W - 1, i) != cell(v, 1, i)
                    {
                        return Err(format!("rank {r} row halo differs at column {i}"));
                    }
                }
            }
            let f = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte cell"));
            let col_span = at(HALO_N - 1, 0) + 8;
            for (r, &rb) in rbufs.iter().enumerate() {
                let got = cluster.read_mem(r as u32, rb, col_span);
                for i in 0..HALO_N {
                    let want: f64 = (0..4).map(|q| f(cell(q, i + 1, HALO_N))).sum();
                    let o = (i * HALO_W * 8) as usize;
                    if f(&got[o..o + 8]) != want {
                        return Err(format!("rank {r} allreduce element {i} is not the sum"));
                    }
                }
            }
            Ok(())
        }
    }
}

/// The scale driver at [`SCALE_RANKS`] ranks, 4 columns, window 4, one
/// shard on one thread. Its inputs do not depend on the seed. Set-up
/// is building the datatype whose size the check uses, and the config.
fn run_scale_point(traced: bool, epoch: Instant) -> Outcome {
    let mut host = HostNs::default();
    let ((wl, cfg), ph) = timed(epoch, || {
        let wl = VectorWorkload::new(4);
        let cfg = ScaleConfig {
            ranks: SCALE_RANKS,
            shards: 1,
            threads: 1,
            columns: wl.columns,
            window: 4,
            pattern: ScalePattern::Alltoall,
            ..ScaleConfig::default()
        };
        (wl, cfg)
    });
    host.types = ph;
    let (rep, ph) = timed(epoch, || run_scale(&cfg));
    host.run = ph;

    let n = SCALE_RANKS as u64;
    let want = n * (n - 1);
    let (why, ph) = timed(epoch, || {
        if rep.msgs == want && rep.bytes == want * wl.size && rep.crashed == 0 && rep.lost == 0 {
            return String::new();
        }
        format!(
            "scale: {} msgs / {} bytes delivered (want {want} / {}), {} crashed, {} lost",
            rep.msgs,
            rep.bytes,
            want * wl.size,
            rep.crashed,
            rep.lost
        )
    });
    host.verify = ph;
    Outcome {
        host,
        ok: why.is_empty(),
        why,
        virt: Virt::ScaleFinishNs(rep.finish_ns),
        key: vec![
            rep.msgs,
            rep.bytes,
            rep.finish_ns,
            rep.rounds,
            rep.fingerprint,
            rep.state_bytes as u64,
        ],
        layers: traced.then(|| Layers::from_scale(&rep)),
        replay_type: None,
    }
}
