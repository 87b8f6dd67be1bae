//! The simulated cluster: world driver, program interpreter, public API.
//!
//! A [`Cluster`] owns the fabric, every rank's memory and MPI state, and
//! interprets one [`Program`] per rank. [`Cluster::run`] drives the
//! discrete-event engine to quiescence and returns [`RunStats`].

use crate::coll;
use crate::config::MpiConfig;
use crate::error::MpiError;
use crate::progress::{self, ActiveMsgs, Ctx, Ev};
use crate::rank::RankState;
use crate::stats::RunStats;
use ibdt_datatype::Datatype;
use ibdt_ibsim::{
    Cqe, Fabric, FaultPlan, HostConfig, NetConfig, NodeMem, Payload, RecvWr, Sge, SgeList,
    ShmChannel, Transport, TransportConfig,
};
use ibdt_memreg::Va;
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;
use std::collections::VecDeque;

/// Element-wise reduction operators for [`AppOp::CombineBuffers`] and
/// the reduction collectives. Elements are interpreted per the
/// datatype's uniform primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `dst = src` (internal: seeds an accumulator).
    Replace,
    /// `dst = dst + src` (wrapping for integers).
    Sum,
    /// `dst = max(dst, src)`.
    Max,
}

/// One operation of a rank program.
#[derive(Debug, Clone)]
pub enum AppOp {
    /// Nonblocking send of `count` instances of `ty` at `buf`.
    Isend {
        /// Destination rank.
        peer: u32,
        /// User buffer address (datatype offset 0).
        buf: Va,
        /// Instance count.
        count: u64,
        /// Datatype.
        ty: Datatype,
        /// Tag.
        tag: u32,
    },
    /// Nonblocking receive.
    Irecv {
        /// Source rank.
        peer: u32,
        /// User buffer address.
        buf: Va,
        /// Instance count.
        count: u64,
        /// Datatype.
        ty: Datatype,
        /// Tag.
        tag: u32,
    },
    /// Block until every request issued so far on this rank completed.
    WaitAll,
    /// Spin the CPU for `ns` virtual nanoseconds (models application
    /// compute, or manual pack/unpack in the Fig. 2 `Manual` scheme).
    Compute {
        /// Busy time.
        ns: Time,
    },
    /// Record the current virtual time under `slot` (benchmark timers).
    MarkTime {
        /// Timer slot id.
        slot: u32,
    },
    /// `MPI_Alltoall` with datatypes (expanded to point-to-point ops).
    Alltoall {
        /// Send buffer base (block for rank 0).
        sbuf: Va,
        /// Receive buffer base.
        rbuf: Va,
        /// Instances of `sty` sent to each rank.
        count: u64,
        /// Send datatype.
        sty: Datatype,
        /// Receive datatype.
        rty: Datatype,
    },
    /// `MPI_Bcast` from `root` (binomial tree).
    Bcast {
        /// Root rank.
        root: u32,
        /// Buffer.
        buf: Va,
        /// Instance count.
        count: u64,
        /// Datatype.
        ty: Datatype,
    },
    /// `MPI_Allgather` (ring).
    Allgather {
        /// Send buffer (this rank's contribution).
        sbuf: Va,
        /// Receive buffer (all contributions, by rank).
        rbuf: Va,
        /// Instances per rank.
        count: u64,
        /// Datatype (same both sides).
        ty: Datatype,
    },
    /// `MPI_Barrier` (dissemination).
    Barrier,
    /// §6's `MPI_Info` analogue: tell the library this buffer will be
    /// used for many operations, so it is registered (and cached) ahead
    /// of the first communication.
    HintReusedBuffer {
        /// Buffer start.
        addr: Va,
        /// Buffer length.
        len: u64,
    },
    /// `MPI_Gather` to `root` (flat algorithm).
    Gather {
        /// Root rank.
        root: u32,
        /// This rank's contribution.
        sbuf: Va,
        /// Root's receive buffer (ignored elsewhere).
        rbuf: Va,
        /// Instances per rank.
        count: u64,
        /// Datatype.
        ty: Datatype,
    },
    /// `MPI_Scatter` from `root`.
    Scatter {
        /// Root rank.
        root: u32,
        /// Root's send buffer (ignored elsewhere).
        sbuf: Va,
        /// This rank's receive buffer.
        rbuf: Va,
        /// Instances per rank.
        count: u64,
        /// Datatype.
        ty: Datatype,
    },
    /// `MPI_Reduce` to `root` (binomial tree). `scratch` must hold one
    /// message and be distinct from `sbuf`/`rbuf`; `sbuf` is clobbered
    /// on intermediate ranks.
    Reduce {
        /// Root rank.
        root: u32,
        /// Contribution (accumulator on non-root ranks).
        sbuf: Va,
        /// Result buffer on the root.
        rbuf: Va,
        /// Scratch buffer for incoming partial results.
        scratch: Va,
        /// Instance count.
        count: u64,
        /// Datatype (uniform primitive).
        ty: Datatype,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// `MPI_Allreduce` (reduce to 0 + bcast).
    Allreduce {
        /// Contribution.
        sbuf: Va,
        /// Result buffer (valid on every rank afterwards).
        rbuf: Va,
        /// Scratch buffer.
        scratch: Va,
        /// Instance count.
        count: u64,
        /// Datatype (uniform primitive).
        ty: Datatype,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Element-wise combine of two local buffers (the reduction
    /// building block): `dst[i] = op(dst[i], src[i])` over the
    /// datatype's elements.
    CombineBuffers {
        /// Accumulator buffer.
        dst: Va,
        /// Incoming buffer.
        src: Va,
        /// Instance count.
        count: u64,
        /// Datatype (uniform primitive).
        ty: Datatype,
        /// Operator.
        op: ReduceOp,
    },
    /// `MPI_Win_create` (collective): exposes `[addr, addr+len)` for
    /// one-sided access under window id `win`. Registers the region and
    /// barriers, after which window information is globally visible.
    WinCreate {
        /// Window id (caller-chosen, same on all ranks).
        win: u32,
        /// Exposed region start.
        addr: Va,
        /// Exposed region length.
        len: u64,
    },
    /// `MPI_Put` with derived datatypes on both sides (one-sided
    /// Multi-W; completed by the next fence).
    Put {
        /// Window id.
        win: u32,
        /// Target rank.
        target: u32,
        /// Origin buffer.
        obuf: Va,
        /// Origin instance count.
        ocount: u64,
        /// Origin datatype.
        oty: Datatype,
        /// Byte offset of the target layout inside the window.
        toff: u64,
        /// Target instance count.
        tcount: u64,
        /// Target datatype (an origin-side handle, as in MPI).
        tty: Datatype,
    },
    /// `MPI_Get` (one-sided reads; completed by the next fence).
    Get {
        /// Window id.
        win: u32,
        /// Target rank.
        target: u32,
        /// Origin buffer.
        obuf: Va,
        /// Origin instance count.
        ocount: u64,
        /// Origin datatype.
        oty: Datatype,
        /// Byte offset of the target layout inside the window.
        toff: u64,
        /// Target instance count.
        tcount: u64,
        /// Target datatype.
        tty: Datatype,
    },
    /// `MPI_Win_fence`: completes this rank's outstanding RMA, releases
    /// origin registrations, then barriers.
    Fence,
}

/// A rank's program.
pub type Program = Vec<AppOp>;

/// Cluster construction parameters.
///
/// [`Cluster::new`] reuses a [recycled](Cluster::recycle) cluster whose
/// spec has the same `nprocs`, `mem_capacity` and transport kind; every
/// other field is re-read when the cluster is reset.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of ranks.
    pub nprocs: u32,
    /// Network cost model.
    pub net: NetConfig,
    /// Host cost model.
    pub host: HostConfig,
    /// MPI configuration.
    pub mpi: MpiConfig,
    /// Per-rank address space capacity in bytes.
    pub mem_capacity: u64,
    /// Seeded fault-injection plan for the fabric (inert by default).
    pub faults: FaultPlan,
    /// Which transport backend moves the bytes (IB fabric by default;
    /// selecting the shared-memory channel leaves every committed IB
    /// result untouched).
    pub transport: TransportConfig,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self {
            nprocs: 2,
            net: NetConfig::default(),
            host: HostConfig::default(),
            mpi: MpiConfig::default(),
            mem_capacity: 256 << 20,
            faults: FaultPlan::none(),
            transport: TransportConfig::Ib,
        }
    }
}

/// The cluster's byte-moving backend. An enum rather than a boxed
/// trait object so the backend lives inline in the `Cluster` (no
/// allocation, pooling-friendly) while every caller still drives it
/// through `&mut dyn Transport`.
#[derive(Debug)]
// The size skew between the variants is the point: boxing the fabric
// would reintroduce the allocation this enum exists to avoid.
#[allow(clippy::large_enum_variant)]
enum Backend {
    /// The InfiniBand fabric.
    Ib(Fabric),
    /// The shared-memory channel.
    Shm(ShmChannel),
}

impl Backend {
    fn t(&self) -> &dyn Transport {
        match self {
            Backend::Ib(f) => f,
            Backend::Shm(c) => c,
        }
    }

    fn t_mut(&mut self) -> &mut dyn Transport {
        match self {
            Backend::Ib(f) => f,
            Backend::Shm(c) => c,
        }
    }
}

#[derive(Debug)]
enum Blocked {
    No,
    WaitAll,
    Compute {
        until: Time,
    },
    /// Waiting for outstanding one-sided operations to complete.
    Fence,
}

#[derive(Debug)]
struct Interp {
    prog: VecDeque<AppOp>,
    blocked: Blocked,
    finished_at: Option<Time>,
}

/// The simulated MPI cluster.
pub struct Cluster {
    spec: ClusterSpec,
    /// The event engine (created by the first reset), parked here
    /// between runs so a recycled cluster keeps its event-wheel arena;
    /// taken out while it drives the cluster.
    engine: Option<Engine<Cluster>>,
    fabric: Backend,
    mems: Vec<NodeMem>,
    ranks: Vec<RankState>,
    active: Vec<ActiveMsgs>,
    interp: Vec<Interp>,
    marks: Vec<Vec<(u32, Time)>>,
    /// One-sided windows: `(win id, rank)` -> entry.
    windows: std::collections::HashMap<(u32, u32), crate::rma::WinEntry>,
    ran: bool,
    /// Events handled, counted only in audit mode to decimate the
    /// invariant checks.
    events_handled: u64,
    /// Reused completion buffer handed to [`Fabric::handle`] each NIC
    /// event, so steady-state event handling allocates nothing.
    cqe_buf: Vec<(u32, Cqe)>,
    /// Thread-local payload-pool counter baseline captured at reset,
    /// so [`RunStats`] reports this run's payload activity as a delta.
    payload_pool_base: (u64, u64),
}

/// What a cluster's allocations are sized by — rank count, per-rank
/// memory and transport kind — and so what the spare pool is keyed
/// by. Everything else in a [`ClusterSpec`] is re-read by
/// [`Cluster::reset`].
fn shape(spec: &ClusterSpec) -> (u32, u64, bool) {
    (
        spec.nprocs,
        spec.mem_capacity,
        matches!(spec.transport, TransportConfig::Shm(_)),
    )
}

thread_local! {
    /// Retired clusters waiting for a spec of the same [shape] to come
    /// around again. A parameter sweep varies schemes, configuration
    /// and message geometry but rebuilds the same shape per point;
    /// recycling the whole `Cluster` (engine, fabric queues, address
    /// spaces, rank state, caches) removes the per-point construction
    /// allocations and first-touch page faults. A reset cluster is
    /// bit-identical in behaviour to a fresh one (see
    /// [`Cluster::reset`]).
    static CLUSTER_SPARE: std::cell::RefCell<Vec<Cluster>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Cluster spare-list bound. Sweeps alternate between at most a couple
/// of shapes, so a small pool suffices; an idle cluster pins its
/// address-space backing (MiBs), so the cap stays deliberately low.
const CLUSTER_SPARE_CAP: usize = 4;

impl Cluster {
    /// Builds a cluster: memories, MPI state, eager receive rings.
    ///
    /// If a [recycled](Cluster::recycle) cluster of the same shape (rank
    /// count, memory capacity, transport kind) is available on this
    /// thread it is reset under `spec` and returned instead of building
    /// a new one. Either way the cluster is initialized by
    /// [`Cluster::reset`].
    pub fn new(spec: ClusterSpec) -> Self {
        let key = shape(&spec);
        let parked = CLUSTER_SPARE
            .try_with(|s| {
                let mut s = s.borrow_mut();
                s.iter()
                    .position(|c| shape(&c.spec) == key)
                    .map(|i| s.remove(i))
            })
            .ok()
            .flatten();
        let mut cluster = parked.unwrap_or_else(|| Self::shell(&spec));
        cluster.reset(spec);
        cluster
    }

    /// An uninitialized cluster of `spec`'s shape: every per-rank and
    /// per-node container exists, but no memory is allocated in the
    /// address spaces and no receive is posted.
    fn shell(spec: &ClusterSpec) -> Self {
        let n = spec.nprocs as usize;
        let fabric = match &spec.transport {
            TransportConfig::Ib => Backend::Ib(Fabric::new(n, spec.net.clone())),
            TransportConfig::Shm(c) => Backend::Shm(ShmChannel::new(n, *c)),
        };
        Self {
            spec: spec.clone(),
            engine: None,
            fabric,
            mems: (0..n).map(|_| NodeMem::new(spec.mem_capacity)).collect(),
            ranks: (0..spec.nprocs)
                .map(|r| RankState::new(r, spec.nprocs))
                .collect(),
            active: (0..n).map(|_| ActiveMsgs::new(n)).collect(),
            interp: Vec::new(),
            marks: vec![Vec::new(); n],
            windows: std::collections::HashMap::new(),
            ran: false,
            events_handled: 0,
            cqe_buf: Vec::new(),
            payload_pool_base: (0, 0),
        }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> u32 {
        self.spec.nprocs
    }

    /// Allocates `len` bytes in `rank`'s address space.
    pub fn alloc(&mut self, rank: u32, len: u64, align: u64) -> Va {
        self.mems[rank as usize]
            .space
            .alloc(len, align)
            .expect("address space exhausted")
    }

    /// Allocates `len` bytes of *device-resident* memory in `rank`'s
    /// address space: the range is marked in the rank's
    /// [`TierMap`](ibdt_memreg::TierMap), so pack/unpack touching it
    /// routes through the DMA cost model (staged bounce pipeline for
    /// segmented schemes, one synchronous gather/scatter DMA for eager
    /// paths). Bytes still live in the same flat space — correctness
    /// checking is tier-blind.
    pub fn alloc_device(&mut self, rank: u32, len: u64, align: u64) -> Va {
        // Allocating device memory implies the tier exists; flipping the
        // flag here (rather than requiring callers to pre-enable it)
        // means a cluster with no device allocations models exactly the
        // host-only cost model regardless of configuration.
        self.spec.host.device.enabled = true;
        if let Err(e) = self.spec.host.validate() {
            panic!("invalid host configuration: {e}");
        }
        let va = self.alloc(rank, len, align);
        self.mems[rank as usize].tiers.mark_device(va, len);
        va
    }

    /// Writes bytes into a rank's memory (test/bench setup).
    pub fn write_mem(&mut self, rank: u32, addr: Va, data: &[u8]) {
        self.mems[rank as usize]
            .space
            .write(addr, data)
            .expect("write within capacity");
    }

    /// Reads bytes from a rank's memory (verification).
    pub fn read_mem(&self, rank: u32, addr: Va, len: u64) -> Vec<u8> {
        self.mems[rank as usize]
            .space
            .read(addr, len)
            .expect("read within capacity")
    }

    /// Fills a range with a deterministic byte pattern keyed by `seed`.
    pub fn fill_pattern(&mut self, rank: u32, addr: Va, len: u64, seed: u64) {
        let data: Vec<u8> = (0..len)
            .map(|i| {
                ((i.wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(977)))
                    >> 3) as u8
            })
            .collect();
        self.write_mem(rank, addr, &data);
    }

    /// Runs one program per rank to quiescence; returns statistics.
    ///
    /// A `Cluster` is single-shot: the virtual clock, resource schedules
    /// and counters all start at zero, so reuse would conflate runs.
    pub fn run(&mut self, programs: Vec<Program>) -> RunStats {
        assert!(
            !self.ran,
            "Cluster::run is single-shot; build a new cluster"
        );
        assert_eq!(
            programs.len(),
            self.spec.nprocs as usize,
            "one program per rank"
        );
        self.ran = true;
        // Extend into the (possibly reset-and-retained) interp vector
        // rather than reassigning, so a recycled cluster's run keeps
        // its capacity.
        self.interp.clear();
        self.interp.extend(programs.into_iter().map(|p| Interp {
            prog: p.into(),
            blocked: Blocked::No,
            finished_at: None,
        }));
        let mut engine = self.engine.take().expect("engine parked between runs");
        for r in 0..self.spec.nprocs {
            engine.seed(0, Ev::Resume { rank: r });
        }
        // Realize the fault plan's scheduled link failures as engine
        // events (port down / port up at their virtual instants).
        for (t, e) in self.fabric.t().fault_events() {
            engine.seed(t, Ev::Nic(e));
        }
        // Budget: generous runaway guard proportional to work. With
        // fault injection active the guard doubles as a watchdog — an
        // exhausted budget becomes a typed `Incomplete` error on every
        // unfinished rank instead of a panic, so a chaos plan that
        // wedges the protocol still terminates with a diagnosis.
        let faulty = self.fabric.t().faults_active();
        let (finish, exhausted) = engine.run_bounded(self, 200_000_000);
        assert!(
            !exhausted || faulty,
            "simulation exceeded its event budget at t={finish} without fault \
             injection — protocol livelock"
        );
        // Sanity: every program must have finished (a hang here is a
        // protocol deadlock) — unless an injected fault surfaced as a
        // typed error or tripped the watchdog, in which case an
        // incomplete program is the expected degraded outcome and is
        // recorded as such.
        // A node still down at quiescence crash-stopped for good: its
        // own program cannot have finished, and peers that never
        // exchanged traffic with it after the crash may have observed
        // nothing — the crash itself is the error condition.
        let crashed = (0..self.spec.nprocs).any(|r| self.fabric.t().node_down(r));
        let had_errors = exhausted
            || crashed
            || (0..self.spec.nprocs as usize).any(|r| {
                !self.ranks[r].errors.is_empty()
                    || self.ranks[r].reqs.iter().any(|q| q.error.is_some())
            });
        for r in 0..self.spec.nprocs as usize {
            let it = &self.interp[r];
            let unfinished = !it.prog.is_empty() || it.finished_at.is_none();
            if had_errors {
                if unfinished || !self.active[r].is_idle() {
                    self.ranks[r].errors.push(MpiError::Incomplete);
                }
                continue;
            }
            assert!(
                !unfinished,
                "rank {r} deadlocked with {} ops left (blocked: {:?})",
                it.prog.len(),
                it.blocked
            );
            assert!(
                self.active[r].is_idle(),
                "rank {r} finished with in-flight rendezvous state"
            );
        }
        if self.spec.mpi.audit {
            // Strict (quiescent) laws need a clean run with nothing
            // unmatched; the base conservation laws hold regardless.
            let clean = !had_errors
                && (0..self.spec.nprocs as usize).all(|r| self.ranks[r].unexpected.is_empty());
            self.audit_invariants(clean);
        }
        let events_scheduled = engine.events_scheduled();
        self.engine = Some(engine);
        self.collect_stats(finish, events_scheduled)
    }

    /// Returns a finished cluster to the thread-local spare pool so a
    /// later [`Cluster::new`] of the same shape can reuse it instead of
    /// rebuilding. Clusters with an active fault plan are dropped
    /// instead, so chaos runs stay single-shot.
    pub fn recycle(self) {
        if !self.spec.faults.is_inert() {
            return;
        }
        let _ = CLUSTER_SPARE.try_with(|s| {
            let mut s = s.borrow_mut();
            // Evict the oldest entry rather than refusing when full: a
            // sweep interleaved with other workloads must still find
            // *its* cluster on the next point, so the most recent
            // retiree always lands in the pool.
            if s.len() >= CLUSTER_SPARE_CAP {
                s.remove(0);
            }
            s.push(self);
        });
    }

    /// Initializes the cluster for a run under `spec`, in place — the
    /// one init path for new and recycled clusters. `spec` must have
    /// this cluster's [shape]; every other value it holds is re-read
    /// here (MPI, network, shm and host configuration, fault plan).
    /// The contract is exact: a recycled cluster behaves
    /// bit-identically to a newly built one — same virtual-time
    /// results and same `RunStats` apart from the host-side
    /// `scratch_pool` and `space_pool` counters, which report the warm
    /// buffers it reuses.
    fn reset(&mut self, spec: ClusterSpec) {
        debug_assert_eq!(shape(&spec), shape(&self.spec), "reset across shapes");
        if let Err(e) = spec.host.validate() {
            panic!("invalid host configuration: {e}");
        }
        self.spec = spec;
        let spec = &self.spec;
        self.payload_pool_base = Payload::pool_stats();
        match (&mut self.fabric, &spec.transport) {
            (Backend::Ib(f), TransportConfig::Ib) => {
                f.reset(spec.net.clone());
                f.set_fault_plan(spec.faults.clone());
            }
            (Backend::Shm(c), TransportConfig::Shm(cfg)) => {
                assert!(
                    spec.faults.is_inert(),
                    "fault injection requires the IB transport"
                );
                c.reset(*cfg);
            }
            _ => unreachable!("the shape includes the transport kind"),
        }
        for (rs, mem) in self.ranks.iter_mut().zip(&mut self.mems) {
            mem.space.reset();
            mem.regs.reset();
            mem.tiers.clear();
            rs.reset(&spec.mpi, mem);
        }
        // Pre-post the eager receive rings (§3.1's pre-posted internal
        // buffers).
        let mut noop = |_t: Time, _e: ibdt_ibsim::NicEvent| {};
        for rs in &self.ranks {
            for peer in (0..spec.nprocs).filter(|&p| p != rs.rank) {
                for i in 0..spec.mpi.eager_bufs_per_peer {
                    let va = rs.recv_buf_addr(&spec.mpi, rs.eager_region, peer, i);
                    self.fabric
                        .t_mut()
                        .post_recv(
                            0,
                            rs.rank,
                            peer,
                            RecvWr {
                                wr_id: va,
                                sges: SgeList::of(Sge {
                                    addr: va,
                                    len: spec.mpi.eager_buf_size,
                                    lkey: rs.eager_lkey,
                                }),
                            },
                            &self.mems,
                            &mut noop,
                        )
                        .expect("initial eager ring post");
                }
            }
        }
        self.engine.get_or_insert_with(Engine::new).reset();
        for a in &mut self.active {
            a.reset();
        }
        for m in &mut self.marks {
            m.clear();
        }
        self.interp.clear();
        self.windows.clear();
        self.ran = false;
        self.events_handled = 0;
        self.cqe_buf.clear();
    }

    /// Debug-mode invariant auditor (`MpiConfig::audit`): asserts the
    /// flow-control conservation laws over every ordered rank pair.
    /// With sender `a` and receiver `b` (all counters per peer):
    ///
    /// - credits never negative and never exceed the configured pool:
    ///   `held(a→b) + sent(a→b) == eager_credits + received(a→b)`;
    /// - every matched message is granted back or still owed:
    ///   `granted(b←a) + owed(b←a) == matched(b←a)`;
    /// - the monotone chain `received(a→b) ≤ granted(b←a)` and
    ///   `matched(b←a) ≤ sent(a→b)` (grants/messages in flight);
    /// - the payload-bearing unexpected occupancy counter agrees with a
    ///   queue scan.
    ///
    /// At clean quiescence additionally `sent(a→b) == matched(b←a)` —
    /// no message was lost or duplicated across any degradation
    /// transition. Panics on violation; wired into the chaos and incast
    /// soak suites, not production runs.
    ///
    /// **Crash-stop failures.** When a peer dies, the quiescent law
    /// legitimately breaks: credits held by the dead rank never return
    /// and messages sent to it are never matched, so `sent > matched`
    /// is the *correct* end state — which is why the quiescent check
    /// is gated on a clean (error-free, crash-free) run. The base
    /// conservation laws above survive a crash untouched: each one
    /// reads either a single rank's own counters (which freeze at the
    /// instant its host halts) or a monotone cross-pair inequality
    /// (`received ≤ granted`, `matched ≤ sent`) that a frozen side can
    /// only leave slack in, never violate. The crash-stop chaos suite
    /// runs with the auditor on to hold exactly this line.
    fn audit_invariants(&self, quiescent: bool) {
        let n = self.spec.nprocs as usize;
        let pool = u64::from(self.spec.mpi.eager_credits);
        for a in 0..n {
            let ra = &self.ranks[a];
            let payload_entries = ra
                .unexpected
                .iter()
                .filter(|u| {
                    matches!(u, crate::rank::Unexpected::Eager { data, .. } if !data.is_empty())
                })
                .count();
            assert_eq!(
                ra.unexpected_eager, payload_entries,
                "rank {a}: unexpected-queue occupancy counter out of sync"
            );
            for b in 0..n {
                if a == b {
                    continue;
                }
                let rb = &self.ranks[b];
                assert_eq!(
                    u64::from(ra.fc[b].credits) + ra.fc[b].sent,
                    pool + ra.fc[b].received,
                    "rank {a}→{b}: credit conservation violated"
                );
                assert!(
                    u64::from(ra.fc[b].credits) <= pool,
                    "rank {a}→{b}: credits exceed the configured pool"
                );
                assert_eq!(
                    rb.fc[a].granted + u64::from(rb.fc[a].owed),
                    rb.fc[a].matched,
                    "rank {b}←{a}: matched messages neither granted nor owed"
                );
                assert!(
                    ra.fc[b].received <= rb.fc[a].granted,
                    "rank {a}→{b}: more credits received than ever granted"
                );
                assert!(
                    rb.fc[a].matched <= ra.fc[b].sent,
                    "rank {b}←{a}: more messages matched than credits consumed"
                );
                if quiescent {
                    assert_eq!(
                        ra.fc[b].sent, rb.fc[a].matched,
                        "rank {a}→{b}: eager message lost or duplicated \
                         (sent ≠ matched at clean quiescence)"
                    );
                }
            }
        }
    }

    fn collect_stats(&self, finish: Time, events_scheduled: u64) -> RunStats {
        let n = self.spec.nprocs as usize;
        let fstats = self.fabric.t().stats();
        let (pa, pr) = Payload::pool_stats();
        RunStats {
            finish_ns: finish,
            rank_finish_ns: self
                .interp
                .iter()
                .map(|i| i.finished_at.unwrap_or(finish))
                .collect(),
            counters: self.ranks.iter().map(|r| r.counters).collect(),
            cpu_busy_ns: self.ranks.iter().map(|r| r.cpu.total_busy()).collect(),
            reg_ops: (0..n).map(|r| self.mems[r].regs.op_counts()).collect(),
            pindown: self.ranks.iter().map(|r| r.pindown.stats()).collect(),
            plan_cache: self.ranks.iter().map(|r| r.plans.stats()).collect(),
            scratch_pool: self
                .ranks
                .iter()
                .map(|r| (r.scratch.reuses(), r.scratch.allocs()))
                .collect(),
            wqes: fstats.wqes,
            bytes_on_wire: fstats.bytes_on_wire,
            rnr_events: fstats.rnr_events,
            drops_injected: fstats.drops_injected,
            corruptions_injected: fstats.corruptions_injected,
            delays_injected: fstats.delays_injected,
            stalls_injected: fstats.stalls_injected,
            retransmits: fstats.retransmits,
            rnr_backoff_retries: fstats.rnr_backoff_retries,
            qp_errors: fstats.qp_errors,
            flushed_wqes: fstats.flushed_wqes,
            migrations: fstats.migrations,
            cq_overflows: fstats.cq_overflows,
            recv_low_water: fstats.recv_low_water,
            node_crashes: fstats.node_crashes,
            cq_peak: (0..n).map(|r| self.fabric.t().cq_peak(r as u32)).collect(),
            fabric_per_rank: self.fabric.t().node_stats().to_vec(),
            errors: self
                .ranks
                .iter()
                .map(|rs| {
                    rs.errors
                        .iter()
                        .copied()
                        .chain(rs.reqs.iter().filter_map(|q| q.error))
                        .collect()
                })
                .collect(),
            marks: self.marks.clone(),
            pack_wire_overlap_ns: (0..n)
                .map(|r| {
                    let cpu_trace = self.ranks[r].cpu.trace().expect("cpu traced");
                    let tx_trace = self.fabric.t().tx_engine(r as u32).trace().expect("tx traced");
                    cpu_trace.overlap_with("pack", tx_trace, "wire")
                })
                .collect(),
            bytes_copied: self
                .ranks
                .iter()
                .map(|r| r.counters.bytes_packed + r.counters.bytes_unpacked)
                .sum(),
            payload_pool: (
                pa.saturating_sub(self.payload_pool_base.0),
                pr.saturating_sub(self.payload_pool_base.1),
            ),
            space_pool: self.mems.iter().fold((0, 0, 0), |acc, m| {
                let (f, r, z) = m.space.recycle_stats();
                (acc.0 + f, acc.1 + r, acc.2 + z)
            }),
            events_scheduled,
            plan_cache_canonical_hits: self
                .ranks
                .iter()
                .map(|r| r.plans.canon_stats().0)
                .sum(),
            canonicalized_types: self.ranks.iter().map(|r| r.plans.canon_stats().1).sum(),
            staging_chunks: self.ranks.iter().map(|r| r.counters.staging_chunks).sum(),
            shm_bounce_chunks: fstats.shm_bounce_chunks,
            shm_cma_ops: fstats.shm_cma_ops,
        }
    }

    /// Post-run access to a rank's CPU span trace (pack/unpack/post/...
    /// intervals) for overlap analysis and timeline rendering.
    pub fn cpu_trace(&self, rank: u32) -> &ibdt_simcore::trace::Trace {
        self.ranks[rank as usize].cpu.trace().expect("cpu traced")
    }

    /// Post-run access to a rank's NIC transmit-engine span trace.
    pub fn tx_trace(&self, rank: u32) -> &ibdt_simcore::trace::Trace {
        self.fabric.t().tx_engine(rank).trace().expect("tx traced")
    }

    /// Post-run access to a rank's pack/unpack pool statistics:
    /// `(pack acquires, pack exhaustions, unpack acquires, unpack
    /// exhaustions)`.
    pub fn pool_stats(&self, rank: u32) -> (u64, u64, u64, u64) {
        let r = &self.ranks[rank as usize];
        (
            r.pack_pool.acquires(),
            r.pack_pool.exhaustions(),
            r.unpack_pool.acquires(),
            r.unpack_pool.exhaustions(),
        )
    }

    /// Element-wise reduction of two local buffers over a datatype's
    /// elements. Functional immediately; host time charged on the CPU.
    #[allow(clippy::too_many_arguments)]
    fn combine_buffers(
        &mut self,
        sched: &mut Scheduler<'_, Ev>,
        rank: u32,
        dst: Va,
        src: Va,
        count: u64,
        ty: &Datatype,
        op: ReduceOp,
    ) {
        let r = rank as usize;
        let prim = ty
            .uniform_primitive()
            .expect("reductions require a uniform-primitive datatype");
        let w = prim.size() as usize;
        let rs = &mut self.ranks[r];
        // An unimplemented (operator, primitive) combination fails the
        // reduction typed instead of tearing the simulation down; the
        // accumulator is left untouched.
        if let Err(e) = combine_element(&mut [0; 8][..w], &[0; 8][..w], op, prim) {
            rs.errors.push(e);
            return;
        }
        // Walk both operands' blocks through the rank's cached plan and
        // fold them element by element, in place: blocks hold whole
        // elements, so no staging copy is needed.
        let plan = rs.plan_for(ty, count);
        let n = plan.total_bytes();
        let space = &mut self.mems[r].space;
        plan.for_each_block(0, n, |off, len| {
            for at in (0..len).step_by(w) {
                let mut elem = [0; 8];
                let s = space.slice((src as i64 + off) as u64 + at, w as u64);
                elem[..w].copy_from_slice(s.expect("src covers the datatype"));
                let d = space.slice_mut((dst as i64 + off) as u64 + at, w as u64);
                let acc = d.expect("dst covers the datatype");
                combine_element(acc, &elem[..w], op, prim).expect("combination checked above");
            }
        })
        .expect("range valid");
        // Cost: read both operands, write one, ~1 ns/element ALU.
        let cost =
            ibdt_simcore::time::transfer_ns(3 * n, self.spec.host.copy_bw_bps) + n / prim.size();
        rs.cpu.reserve_labeled(sched.now(), cost, "reduce");
    }

    /// Fence epilogue: release origin registrations and barrier.
    fn finish_fence(&mut self, sched: &mut Scheduler<'_, Ev>, rank: u32) {
        let r = rank as usize;
        let regs: Vec<_> = self.ranks[r].rma_regs.drain(..).collect();
        let mut cost = 0;
        for reg in regs {
            cost += self.ranks[r]
                .pindown
                .release(&mut self.mems[r].regs, &self.spec.host.reg, reg.lkey)
                .expect("fence releases acquired registrations");
        }
        if cost > 0 {
            self.ranks[r]
                .cpu
                .reserve_labeled(sched.now(), cost, "dereg");
        }
        let ops = coll::barrier(rank, self.spec.nprocs);
        splice_front(&mut self.interp[r].prog, ops);
    }

    fn interp_advance(&mut self, sched: &mut Scheduler<'_, Ev>, rank: u32) {
        let r = rank as usize;
        loop {
            match self.interp[r].blocked {
                Blocked::WaitAll => {
                    if !self.ranks[r].all_reqs_done() {
                        return;
                    }
                    self.interp[r].blocked = Blocked::No;
                }
                Blocked::Compute { until } => {
                    if sched.now() < until {
                        return;
                    }
                    self.interp[r].blocked = Blocked::No;
                }
                Blocked::Fence => {
                    if self.ranks[r].rma_outstanding > 0 {
                        return;
                    }
                    self.interp[r].blocked = Blocked::No;
                    self.finish_fence(sched, rank);
                }
                Blocked::No => {}
            }
            let Some(op) = self.interp[r].prog.pop_front() else {
                if self.ranks[r].all_reqs_done() && self.interp[r].finished_at.is_none() {
                    self.interp[r].finished_at = Some(sched.now());
                }
                return;
            };
            match op {
                AppOp::Isend {
                    peer,
                    buf,
                    count,
                    ty,
                    tag,
                } => {
                    let Cluster {
                        fabric,
                        mems,
                        ranks,
                        active,
                        spec,
                        ..
                    } = self;
                    let mut ctx = Ctx {
                        fabric: fabric.t_mut(),
                        mems,
                        net: &spec.net,
                        host: &spec.host,
                        cfg: &spec.mpi,
                        sched,
                    };
                    progress::isend(
                        &mut ranks[r],
                        &mut active[r],
                        &mut ctx,
                        peer,
                        buf,
                        count,
                        &ty,
                        tag,
                    );
                }
                AppOp::Irecv {
                    peer,
                    buf,
                    count,
                    ty,
                    tag,
                } => {
                    let Cluster {
                        fabric,
                        mems,
                        ranks,
                        active,
                        spec,
                        ..
                    } = self;
                    let mut ctx = Ctx {
                        fabric: fabric.t_mut(),
                        mems,
                        net: &spec.net,
                        host: &spec.host,
                        cfg: &spec.mpi,
                        sched,
                    };
                    progress::irecv(
                        &mut ranks[r],
                        &mut active[r],
                        &mut ctx,
                        peer,
                        buf,
                        count,
                        &ty,
                        tag,
                    );
                }
                AppOp::WaitAll => {
                    self.interp[r].blocked = Blocked::WaitAll;
                }
                AppOp::Compute { ns } => {
                    let done = self.ranks[r]
                        .cpu
                        .reserve_labeled(sched.now(), ns, "compute");
                    self.interp[r].blocked = Blocked::Compute { until: done };
                    sched.at(done, Ev::Resume { rank });
                }
                AppOp::MarkTime { slot } => {
                    self.marks[r].push((slot, sched.now()));
                }
                AppOp::Alltoall {
                    sbuf,
                    rbuf,
                    count,
                    sty,
                    rty,
                } => {
                    let ops = coll::alltoall(rank, self.spec.nprocs, sbuf, rbuf, count, &sty, &rty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Bcast {
                    root,
                    buf,
                    count,
                    ty,
                } => {
                    let ops = coll::bcast(rank, self.spec.nprocs, root, buf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Allgather {
                    sbuf,
                    rbuf,
                    count,
                    ty,
                } => {
                    let ops = coll::allgather(rank, self.spec.nprocs, sbuf, rbuf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Barrier => {
                    let ops = coll::barrier(rank, self.spec.nprocs);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Gather {
                    root,
                    sbuf,
                    rbuf,
                    count,
                    ty,
                } => {
                    let ops = coll::gather(rank, self.spec.nprocs, root, sbuf, rbuf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Scatter {
                    root,
                    sbuf,
                    rbuf,
                    count,
                    ty,
                } => {
                    let ops = coll::scatter(rank, self.spec.nprocs, root, sbuf, rbuf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Reduce {
                    root,
                    sbuf,
                    rbuf,
                    scratch,
                    count,
                    ty,
                    op,
                } => {
                    let ops = coll::reduce(
                        rank,
                        self.spec.nprocs,
                        root,
                        sbuf,
                        rbuf,
                        scratch,
                        count,
                        &ty,
                        op,
                    );
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Allreduce {
                    sbuf,
                    rbuf,
                    scratch,
                    count,
                    ty,
                    op,
                } => {
                    let ops = coll::allreduce(
                        rank,
                        self.spec.nprocs,
                        sbuf,
                        rbuf,
                        scratch,
                        count,
                        &ty,
                        op,
                    );
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::CombineBuffers {
                    dst,
                    src,
                    count,
                    ty,
                    op,
                } => {
                    self.combine_buffers(sched, rank, dst, src, count, &ty, op);
                }
                AppOp::WinCreate { win, addr, len } => {
                    let Cluster {
                        mems,
                        ranks,
                        spec,
                        windows,
                        ..
                    } = self;
                    let rs = &mut ranks[r];
                    let reg = mems[r].regs.register(addr, len);
                    rs.cpu
                        .reserve_labeled(sched.now(), spec.host.reg.reg_cost(addr, len), "reg");
                    windows.insert(
                        (win, rank),
                        crate::rma::WinEntry {
                            base: addr,
                            len,
                            rkey: reg.rkey,
                        },
                    );
                    // Collective: window info is usable after the
                    // barrier completes on all ranks.
                    let ops = coll::barrier(rank, self.spec.nprocs);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Put {
                    win,
                    target,
                    obuf,
                    ocount,
                    oty,
                    toff,
                    tcount,
                    tty,
                } => {
                    let entry = *self
                        .windows
                        .get(&(win, target))
                        .expect("Put before the target created the window");
                    let Cluster {
                        fabric,
                        mems,
                        ranks,
                        spec,
                        ..
                    } = self;
                    let mut ctx = Ctx {
                        fabric: fabric.t_mut(),
                        mems,
                        net: &spec.net,
                        host: &spec.host,
                        cfg: &spec.mpi,
                        sched,
                    };
                    crate::rma::put(
                        &mut ranks[r],
                        &mut ctx,
                        target,
                        entry,
                        obuf,
                        ocount,
                        &oty,
                        toff,
                        tcount,
                        &tty,
                    );
                }
                AppOp::Get {
                    win,
                    target,
                    obuf,
                    ocount,
                    oty,
                    toff,
                    tcount,
                    tty,
                } => {
                    let entry = *self
                        .windows
                        .get(&(win, target))
                        .expect("Get before the target created the window");
                    let Cluster {
                        fabric,
                        mems,
                        ranks,
                        spec,
                        ..
                    } = self;
                    let mut ctx = Ctx {
                        fabric: fabric.t_mut(),
                        mems,
                        net: &spec.net,
                        host: &spec.host,
                        cfg: &spec.mpi,
                        sched,
                    };
                    crate::rma::get(
                        &mut ranks[r],
                        &mut ctx,
                        target,
                        entry,
                        obuf,
                        ocount,
                        &oty,
                        toff,
                        tcount,
                        &tty,
                    );
                }
                AppOp::Fence => {
                    if self.ranks[r].rma_outstanding > 0 {
                        self.interp[r].blocked = Blocked::Fence;
                        return;
                    }
                    self.finish_fence(sched, rank);
                }
                AppOp::HintReusedBuffer { addr, len } => {
                    // Register through the pin-down cache and release
                    // immediately: the cached entry makes the first
                    // communication on this buffer a registration hit.
                    let Cluster {
                        mems, ranks, spec, ..
                    } = self;
                    let rs = &mut ranks[r];
                    let acq = rs
                        .pindown
                        .acquire(&mut mems[r].regs, &spec.host.reg, addr, len);
                    let rel = rs
                        .pindown
                        .release(&mut mems[r].regs, &spec.host.reg, acq.reg.lkey)
                        .expect("hint registration releases");
                    rs.cpu
                        .reserve_labeled(sched.now(), acq.cost_ns + rel, "hint-reg");
                }
            }
        }
    }

    /// True when `rank`'s host has crash-stopped for good: its node is
    /// down ([`NicEvent::NodeDown`]) with no restart pending. A halted
    /// rank's CPU and completion events are discarded — the process is
    /// gone. A *restartable* down window deliberately leaves the
    /// program running against the dead fabric: its posts fail into
    /// the connection manager, which bridges the window and re-drives
    /// everything once the node returns (checkpoint-restore
    /// semantics; see DESIGN.md §15).
    fn rank_halted(&self, rank: u32) -> bool {
        self.fabric.t().node_down(rank) && !self.fabric.t().node_will_restart(rank)
    }

    /// Schedules interpreter resumption for ranks with fresh
    /// completions.
    fn drain_completions(&mut self, sched: &mut Scheduler<'_, Ev>, rank: u32) {
        let r = rank as usize;
        if !self.ranks[r].newly_completed.is_empty() || self.ranks[r].rma_event {
            self.ranks[r].newly_completed.clear();
            self.ranks[r].rma_event = false;
            sched.at(sched.now(), Ev::Resume { rank });
        }
    }
}

/// Decodes a fixed-width little-endian operand, failing typed
/// ([`MpiError::Truncated`]) instead of panicking when the slice is
/// short — a corrupted layout must not bring the whole simulation down.
fn le_operand<const N: usize>(b: &[u8]) -> Result<[u8; N], MpiError> {
    b.try_into().map_err(|_| MpiError::Truncated {
        expected: N as u32,
        got: b.len() as u32,
    })
}

/// One element of [`Cluster::combine_buffers`]: `da = op(da, db)` over
/// primitive `prim`, with typed errors for short operands and
/// unimplemented combinations.
fn combine_element(
    da: &mut [u8],
    db: &[u8],
    op: ReduceOp,
    prim: ibdt_datatype::Primitive,
) -> Result<(), MpiError> {
    use ibdt_datatype::Primitive;
    match (op, prim) {
        (ReduceOp::Replace, _) => da.copy_from_slice(db),
        (ReduceOp::Sum, Primitive::Int) => {
            let v = i32::from_le_bytes(le_operand(da)?)
                .wrapping_add(i32::from_le_bytes(le_operand(db)?));
            da.copy_from_slice(&v.to_le_bytes());
        }
        (ReduceOp::Max, Primitive::Int) => {
            let v = i32::from_le_bytes(le_operand(da)?).max(i32::from_le_bytes(le_operand(db)?));
            da.copy_from_slice(&v.to_le_bytes());
        }
        (ReduceOp::Sum, Primitive::Double) => {
            let v = f64::from_le_bytes(le_operand(da)?) + f64::from_le_bytes(le_operand(db)?);
            da.copy_from_slice(&v.to_le_bytes());
        }
        (ReduceOp::Max, Primitive::Double) => {
            let v = f64::from_le_bytes(le_operand(da)?).max(f64::from_le_bytes(le_operand(db)?));
            da.copy_from_slice(&v.to_le_bytes());
        }
        (_, _) => return Err(MpiError::UnsupportedReduction),
    }
    Ok(())
}

fn splice_front(prog: &mut VecDeque<AppOp>, ops: Vec<AppOp>) {
    for op in ops.into_iter().rev() {
        prog.push_front(op);
    }
}

impl World for Cluster {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Nic(e) => {
                let mut completions = std::mem::take(&mut self.cqe_buf);
                completions.clear();
                {
                    let Cluster { fabric, mems, .. } = self;
                    fabric.t_mut().handle(
                        sched.now(),
                        e,
                        mems,
                        &mut |t, e| sched.at(t, Ev::Nic(e)),
                        &mut completions,
                    );
                }
                for &(node, cqe) in &completions {
                    if self.rank_halted(node) {
                        // The rank crash-stopped: its CPU never sees
                        // the completion. The CQ-consumer ack below
                        // still runs so the fabric's occupancy
                        // accounting stays balanced.
                        if self.spec.net.cq_depth != usize::MAX {
                            sched.at(sched.now(), Ev::CqAck { rank: node, n: 1 });
                        }
                        continue;
                    }
                    {
                        let Cluster {
                            fabric,
                            mems,
                            ranks,
                            active,
                            spec,
                            ..
                        } = self;
                        let mut ctx = Ctx {
                            fabric: fabric.t_mut(),
                            mems,
                            net: &spec.net,
                            host: &spec.host,
                            cfg: &spec.mpi,
                            sched,
                        };
                        progress::on_cqe(
                            &mut ranks[node as usize],
                            &mut active[node as usize],
                            &mut ctx,
                            cqe,
                        );
                    }
                    self.drain_completions(sched, node);
                    // Bounded-CQ consumer model: the slot is returned
                    // once the rank's CPU has drained the completion.
                    // Unbounded (default) runs schedule no extra events,
                    // keeping committed results bit-identical.
                    if self.spec.net.cq_depth != usize::MAX {
                        // The CPU may have been idle when the CQE landed,
                        // leaving `available_at` behind the clock.
                        let at = self.ranks[node as usize]
                            .cpu
                            .available_at()
                            .max(sched.now());
                        sched.at(at, Ev::CqAck { rank: node, n: 1 });
                    }
                }
                self.cqe_buf = completions;
            }
            Ev::Cpu { rank, act } => {
                if self.rank_halted(rank) {
                    return;
                }
                {
                    let Cluster {
                        fabric,
                        mems,
                        ranks,
                        active,
                        spec,
                        ..
                    } = self;
                    let mut ctx = Ctx {
                        fabric: fabric.t_mut(),
                        mems,
                        net: &spec.net,
                        host: &spec.host,
                        cfg: &spec.mpi,
                        sched,
                    };
                    progress::on_cpu(
                        &mut ranks[rank as usize],
                        &mut active[rank as usize],
                        &mut ctx,
                        act,
                    );
                }
                self.drain_completions(sched, rank);
            }
            Ev::Resume { rank } => {
                if self.rank_halted(rank) {
                    return;
                }
                self.interp_advance(sched, rank);
            }
            Ev::CqAck { rank, n } => {
                self.fabric.t_mut().cq_consume(rank, n as usize);
            }
        }
        if self.spec.mpi.audit {
            // Decimated: the full check is O(nprocs²), far too hot for
            // every event of a 65-rank incast soak.
            self.events_handled += 1;
            if self.events_handled.is_multiple_of(64) {
                self.audit_invariants(false);
            }
        }
    }
}
