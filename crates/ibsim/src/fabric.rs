//! The simulated fabric: HCAs, queue pairs, and the switch.
//!
//! Topology: `n` nodes, fully connected through one switch, one
//! reliable-connection queue pair per ordered node pair (as MVAPICH sets
//! up). Each node has one NIC transmit engine modelled as a FIFO
//! [`SerialResource`]; serialization on this engine plus a fixed
//! propagation delay gives RC's per-QP in-order delivery for free.
//!
//! Functional behaviour:
//!
//! * data is **gathered at post time** from the sender's address space
//!   (protocols must not mutate a posted buffer before its completion —
//!   true of verbs as well) and **placed at arrival time**,
//! * rkey checks happen at the responder, like real IB; failures produce
//!   an error completion at the requester and move no data,
//! * a send (or write-with-immediate) arriving at a QP with an empty
//!   receive queue parks in an RNR queue and is delivered when a
//!   receive is posted; the RNR counter lets tests assert that the MPI
//!   layer's flow control avoids this path.
//!
//! Reliability behaviour (active when a [`FaultPlan`] is installed or
//! the retry budgets are finite):
//!
//! * each wire crossing consults the fault plan; a **dropped** transfer
//!   is retransmitted after [`NetConfig::transport_timeout_ns`], a
//!   **corrupted** one after the ICRC NAK round trip — both bounded by
//!   [`NetConfig::retry_cnt`] attempts, after which the requester gets a
//!   [`CqeStatus::RetryExceeded`] completion and the QP transitions to
//!   the error state (outstanding WQEs flush with
//!   [`CqeStatus::FlushErr`], later posts fail with
//!   [`PostError::QpError`]),
//! * RNR parking becomes a **timed NAK/backoff loop** when
//!   [`NetConfig::rnr_retry`] is finite: delivery retries back off
//!   exponentially and budget exhaustion errors the sender's QP with
//!   [`CqeStatus::RnrRetryExceeded`],
//! * because retransmission can reorder transfers, the receive side
//!   enforces per-QP sequence order (a reorder buffer standing in for
//!   RC's go-back-N) whenever fault injection is active, so RC's
//!   in-order guarantee survives injected loss.
//!
//! Connection lifecycle (see DESIGN.md §10):
//!
//! * every directional QP walks the verbs state machine
//!   RESET→INIT→RTR→RTS (plus SQD, SQE and ERR); fabrics start with all
//!   QPs implicitly in RTS, matching MVAPICH's connect-at-init,
//! * transport exhaustion or a dead port moves a QP to ERR, flushing
//!   outstanding WQEs with [`CqeStatus::FlushErr`]; the embedding MPI
//!   layer tears the QP down ([`Fabric::reestablish_qp`]) and re-drives,
//! * each node has two ports (0 = primary, 1 = alternate); a QP's path
//!   uses the same port number at both ends. When the port under a QP's
//!   current path dies and APM is enabled, the QP fails over to the
//!   alternate path after [`NetConfig::apm_migration_ns`]; otherwise it
//!   errors,
//! * each (re)incarnation of a QP carries an epoch; traffic from a
//!   previous incarnation that is still in flight when the QP is reset
//!   is discarded on arrival, so re-driven traffic can never be
//!   duplicated by a stale packet.

use crate::fault::{Fate, FaultPlan, FaultState};
use crate::model::NetConfig;
use crate::payload::Payload;
use crate::wr::{Cqe, CqeStatus, Opcode, PostError, RecvWr, SendWr, Sge, SgeList};
use ibdt_memreg::{AddressSpace, MemError, RegTable, TierMap};
use ibdt_simcore::paged::PagedTable;
use ibdt_simcore::resource::SerialResource;
use ibdt_simcore::slab::{Handle, Slab};
use ibdt_simcore::time::Time;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;

/// One rank's memory: address space + registration table + tier map.
#[derive(Debug)]
pub struct NodeMem {
    /// Flat memory.
    pub space: AddressSpace,
    /// Live registrations (lkey/rkey namespace).
    pub regs: RegTable,
    /// Which ranges of the space are device-resident (all host by
    /// default; see [`ibdt_memreg::TierMap`]).
    pub tiers: TierMap,
}

impl NodeMem {
    /// Creates a node memory of `capacity` bytes, all host-tier.
    pub fn new(capacity: u64) -> Self {
        Self {
            space: AddressSpace::new(capacity),
            regs: RegTable::new(),
            tiers: TierMap::new(),
        }
    }
}

/// Events internal to the fabric. The embedding world forwards these to
/// [`Fabric::handle`] when they fire.
#[derive(Debug)]
pub enum NicEvent {
    /// A transfer arrives at `dst`'s HCA.
    Arrive {
        /// Destination node.
        dst: u32,
        /// The in-flight transfer.
        xfer: Transfer,
    },
    /// A locally generated completion becomes visible (post-ACK).
    LocalCqe {
        /// Node whose CQ receives the entry.
        node: u32,
        /// The entry.
        cqe: Cqe,
    },
    /// Re-examine the RNR park queue of `(node, peer)` after a receive
    /// was posted.
    RnrRetry {
        /// Node owning the receive queue.
        node: u32,
        /// Peer whose parked transfers should be retried.
        peer: u32,
    },
    /// The requester's transport timer fired for an unacknowledged
    /// transfer (dropped or NAKed): retransmit or give up.
    RetryTimeout {
        /// Generational slab handle ([`ibdt_simcore::slab::Handle`]
        /// bits) of the transfer awaiting retransmission. A stale
        /// handle (the transfer was flushed meanwhile) resolves to
        /// nothing, exactly as the former hash-map ticket miss did.
        xfer_id: u64,
    },
    /// A timed RNR backoff retry for a parked transfer.
    RnrTimedRetry {
        /// Node owning the receive queue.
        node: u32,
        /// Peer whose parked transfer is retried.
        peer: u32,
        /// Ticket of the parked transfer.
        park_id: u64,
    },
    /// A port fails (scheduled from [`FaultPlan::link_faults`]). QPs
    /// whose current path crosses it migrate (APM) or error.
    PortDown {
        /// Node whose port fails.
        node: u32,
        /// Failing port (0 = primary, 1 = alternate).
        port: u8,
    },
    /// A failed port comes back. Migrated QPs stay on their alternate
    /// path (as real APM does); errored QPs wait for re-establishment.
    PortUp {
        /// Node whose port recovers.
        node: u32,
        /// Recovering port.
        port: u8,
    },
    /// A node crashes ([`FaultPlan::node_faults`]): both of its ports
    /// go down, every queue pair touching it — in either direction —
    /// transitions to the error state, and in-flight traffic is flushed
    /// with error completions. No APM migration is possible: the
    /// alternate port died with the node.
    NodeDown {
        /// Node that crashes.
        node: u32,
    },
    /// A crashed node restarts: both ports recover, but every errored
    /// queue pair stays dead until the embedder re-establishes it
    /// ([`Fabric::reestablish_qp`]) — exactly the contract after a
    /// port-loss QP error.
    NodeUp {
        /// Node that restarts.
        node: u32,
    },
    /// A shared-memory transfer becomes visible at `dst`
    /// ([`crate::shm::ShmChannel`] events share this enum so the
    /// embedding world needs one event type per backend family).
    /// `id` indexes the channel's in-flight slab. The IB fabric never
    /// emits or receives one.
    ShmArrive {
        /// Destination rank.
        dst: u32,
        /// In-flight slab handle bits.
        id: u64,
    },
}

/// Queue-pair lifecycle states (IB spec §10.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Freshly created or torn down; accepts nothing.
    Reset,
    /// Initialized: receive descriptors may be posted.
    Init,
    /// Ready to receive.
    Rtr,
    /// Ready to send — the only state accepting send work requests.
    Rts,
    /// Send-queue drained (administrative quiesce).
    Sqd,
    /// Send-queue error (a non-flush completion error halted the SQ).
    Sqe,
    /// Error: outstanding WQEs flushed, posts rejected.
    Err,
}

/// A rejected queue-pair state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpTransitionError {
    /// State the QP was in.
    pub from: QpState,
    /// Requested target state.
    pub to: QpState,
}

impl fmt::Display for QpTransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal QP transition {:?} -> {:?}", self.from, self.to)
    }
}

impl std::error::Error for QpTransitionError {}

/// An in-flight transfer (one WR's payload).
#[derive(Debug)]
pub struct Transfer {
    src: u32,
    /// Per-QP-direction sequence number (RC ordering under faults).
    seq: u64,
    /// Transmission attempts so far (0 = first).
    attempt: u32,
    /// Connection incarnation of the QP that launched this transfer;
    /// a stale epoch at arrival means the QP was reset mid-flight and
    /// the transfer is discarded.
    epoch: u32,
    kind: TransferKind,
}

#[derive(Debug)]
enum TransferKind {
    /// Channel-semantics send payload.
    Send {
        wr_id: u64,
        data: Payload,
        signaled: bool,
    },
    /// RDMA write payload (optionally with immediate data).
    Write {
        wr_id: u64,
        addr: u64,
        rkey: u32,
        data: Payload,
        imm: Option<u32>,
        signaled: bool,
    },
    /// RDMA read request.
    ReadRequest {
        wr_id: u64,
        addr: u64,
        rkey: u32,
        len: u64,
        scatter: SgeList,
        signaled: bool,
    },
    /// RDMA read response carrying the data back.
    ReadResponse {
        wr_id: u64,
        data: Payload,
        scatter: SgeList,
        signaled: bool,
    },
}

impl TransferKind {
    fn wr_id(&self) -> u64 {
        match self {
            TransferKind::Send { wr_id, .. }
            | TransferKind::Write { wr_id, .. }
            | TransferKind::ReadRequest { wr_id, .. }
            | TransferKind::ReadResponse { wr_id, .. } => *wr_id,
        }
    }

    /// Payload bytes this transfer occupies on the wire.
    fn wire_bytes(&self) -> u64 {
        match self {
            TransferKind::Send { data, .. }
            | TransferKind::Write { data, .. }
            | TransferKind::ReadResponse { data, .. } => data.len() as u64,
            TransferKind::ReadRequest { .. } => 0,
        }
    }
}

/// A send-queue slot: the WQE occupies the queue until the NIC finishes
/// processing it at `done`; `wr_id` lets an error transition flush it.
#[derive(Debug, Clone, Copy)]
struct SqEntry {
    done: Time,
    wr_id: u64,
}

/// A transfer parked for RNR, with its backoff-retry bookkeeping.
#[derive(Debug)]
struct ParkedEntry {
    id: u64,
    attempt: u32,
    xfer: Transfer,
}

/// A transfer awaiting retransmission after a drop or NAK.
#[derive(Debug)]
struct PendingRetry {
    /// Monotonic admission stamp. Slab iteration visits slots in index
    /// order (which drifts from insertion order as slots recycle), so
    /// flush paths sort on this stamp to reproduce the oldest-first
    /// order the former sorted-ticket flush produced.
    order: u64,
    dst: u32,
    tx_dur: Time,
    extra_delay: Time,
    xfer: Transfer,
}

impl PendingRetry {
    /// `(requester, responder)` of the QP this WQE belongs to. A read
    /// response travels responder→requester, but the WQE lives at the
    /// requester.
    fn endpoints(&self) -> (u32, u32) {
        match self.xfer.kind {
            TransferKind::ReadResponse { .. } => (self.dst, self.xfer.src),
            _ => (self.xfer.src, self.dst),
        }
    }
}

#[derive(Debug)]
struct Node {
    tx: SerialResource,
    /// Receive queues, indexed by peer rank. Paged: a page of queues
    /// materializes the first time a peer actually posts, so a node in
    /// a large fabric that talks to few peers holds few pages. An
    /// untouched entry reads as an empty queue — exactly the dense
    /// table's initial state.
    recvq: PagedTable<VecDeque<RecvWr>>,
    /// Parked transfers awaiting a receive descriptor (RNR), by peer.
    parked: PagedTable<VecDeque<ParkedEntry>>,
    /// Posted-but-unprocessed send WQEs per peer QP (send-queue
    /// occupancy accounting + flush-with-error bookkeeping), by peer.
    sq_busy: PagedTable<VecDeque<SqEntry>>,
}

/// Fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Work requests processed by transmit engines.
    pub wqes: u64,
    /// Payload bytes serialized onto links (retransmissions included).
    pub bytes_on_wire: u64,
    /// Times a send/write-imm found no receive descriptor posted.
    pub rnr_events: u64,
    /// Completions generated.
    pub cqes: u64,
    /// Transfers dropped by fault injection.
    pub drops_injected: u64,
    /// Transfers corrupted by fault injection (ICRC NAK path).
    pub corruptions_injected: u64,
    /// Transfers delayed by fault injection.
    pub delays_injected: u64,
    /// NIC transmit-engine stalls injected.
    pub stalls_injected: u64,
    /// Transport retransmissions performed.
    pub retransmits: u64,
    /// Timed RNR backoff retries performed.
    pub rnr_backoff_retries: u64,
    /// Queue pairs transitioned to the error state.
    pub qp_errors: u64,
    /// Work requests flushed with error by a QP transition.
    pub flushed_wqes: u64,
    /// Automatic Path Migration failovers performed.
    pub migrations: u64,
    /// Completion-queue overflows: deliveries rejected because the
    /// destination CQ held [`NetConfig::cq_depth`] unconsumed entries
    /// (each one errors the offending queue pair).
    pub cq_overflows: u64,
    /// Times consuming a receive descriptor crossed below
    /// [`NetConfig::recv_low_watermark`] (SRQ-limit-style event).
    pub recv_low_water: u64,
    /// Crash-stop node failures realized ([`NicEvent::NodeDown`]).
    pub node_crashes: u64,
    /// Bounce-segment slots traversed (shared-memory double copy;
    /// always zero on the IB fabric).
    pub shm_bounce_chunks: u64,
    /// CMA-style single-copy passes performed (shared-memory single
    /// copy; always zero on the IB fabric).
    pub shm_cma_ops: u64,
}

/// Per-direction QP state, indexed `src * n + dst` through a paged
/// sparse-dense table: memory scales with the directions actually
/// exercised, not n², while every lookup the per-message hot path
/// used to hash stays a couple of indexed loads. Defaults encode the
/// "absent entry" semantics: RTS state, epoch 0, path 0, sequence
/// counters at 0 — an untouched direction behaves exactly like a
/// freshly constructed one, so reads never materialize pages.
#[derive(Debug)]
struct DirState {
    /// Lifecycle state; fabrics start fully connected (RTS), matching
    /// MVAPICH's connect-at-init.
    state: QpState,
    /// True when the direction errored (retry budget exhausted / dead
    /// path); folded out of the old `qp_err` set.
    err: bool,
    /// Connection incarnation (bumped on reset).
    epoch: u32,
    /// Port carrying the current path.
    path: u8,
    /// Next sequence number to transmit.
    tx_seq: u64,
    /// Next expected sequence number (fault mode).
    rx_expected: u64,
    /// Reorder buffer (fault mode); empty maps hold no heap storage.
    rx_ooo: BTreeMap<u64, Transfer>,
    /// APM failover in progress: sends stall until this instant.
    migrating_until: Option<Time>,
}

impl Default for DirState {
    fn default() -> Self {
        DirState {
            state: QpState::Rts,
            err: false,
            epoch: 0,
            path: 0,
            tx_seq: 0,
            rx_expected: 0,
            rx_ooo: BTreeMap::new(),
            migrating_until: None,
        }
    }
}

/// The simulated InfiniBand fabric.
#[derive(Debug)]
pub struct Fabric {
    cfg: NetConfig,
    nodes: Vec<Node>,
    stats: FabricStats,
    /// Fault-decision stream; `None` = lossless fabric, zero overhead.
    faults: Option<FaultState>,
    /// Ticket counter for park entries.
    next_id: u64,
    /// Monotonic admission counter for retransmit entries (flush-order
    /// stamp; see [`PendingRetry::order`]).
    next_order: u64,
    /// Transfers awaiting retransmission. Slab handles travel through
    /// [`NicEvent::RetryTimeout`] as `u64`s; stale handles (flushed
    /// transfers) resolve to `None` on removal.
    inflight: Slab<PendingRetry>,
    /// Paged per-direction QP state, indexed `src * n + dst`.
    dirs: PagedTable<DirState>,
    /// Number of directions currently mid-migration (fast-path gate
    /// standing in for the old map's `is_empty`).
    migrating: usize,
    /// Port liveness per node (`[primary, alternate]`).
    ports_down: Vec<[bool; 2]>,
    /// Number of `(node, port)` pairs currently down (fast-path gate).
    ports_down_count: usize,
    /// Crash-stop liveness per node ([`NicEvent::NodeDown`]). A down
    /// node holds both ports down; the flag additionally answers the
    /// membership query [`Fabric::node_down`] the MPI layer uses to
    /// distinguish a dead peer from a flaky link. Materialized lazily
    /// on the first crash so fault-free clusters never allocate it.
    nodes_down: Vec<bool>,
    /// Per-node reliability counters (retransmits, RNR backoff retries,
    /// QP errors, flushed WQEs, migrations, injected fates) attributed
    /// to the requester/transmitter.
    node_stats: Vec<FabricStats>,
    /// Completion-queue occupancy per node: entries produced but not
    /// yet acknowledged as consumed ([`Fabric::cq_consume`]). Only
    /// maintained when [`NetConfig::cq_depth`] is bounded, so the
    /// classic unbounded configuration pays nothing.
    cq_used: Vec<usize>,
    /// High-water mark of `cq_used` per node.
    cq_peak: Vec<usize>,
}

impl Fabric {
    /// Creates a fabric of `n` fully connected nodes.
    pub fn new(n: usize, cfg: NetConfig) -> Self {
        let mut fabric = Self {
            cfg: NetConfig::default(),
            nodes: (0..n)
                .map(|_| Node {
                    tx: SerialResource::new("nic-tx").with_trace(),
                    recvq: PagedTable::new(n),
                    parked: PagedTable::new(n),
                    sq_busy: PagedTable::new(n),
                })
                .collect(),
            stats: FabricStats::default(),
            faults: None,
            next_id: 0,
            next_order: 0,
            inflight: Slab::new(),
            dirs: PagedTable::new(n * n),
            migrating: 0,
            ports_down: Vec::new(),
            ports_down_count: 0,
            nodes_down: Vec::new(),
            node_stats: Vec::new(),
            cq_used: Vec::new(),
            cq_peak: Vec::new(),
        };
        fabric.reset(cfg);
        fabric
    }

    /// True when the completion queues are bounded.
    #[inline]
    fn cq_bounded(&self) -> bool {
        self.cfg.cq_depth != usize::MAX
    }

    /// Records one completion entering `node`'s CQ.
    #[inline]
    fn cq_admit(&mut self, node: u32) {
        if self.cq_bounded() {
            let used = &mut self.cq_used[node as usize];
            *used += 1;
            let peak = &mut self.cq_peak[node as usize];
            if *used > *peak {
                *peak = *used;
            }
        }
    }

    /// True when `node`'s CQ cannot accept another entry.
    #[inline]
    fn cq_full(&self, node: u32) -> bool {
        self.cq_bounded() && self.cq_used[node as usize] >= self.cfg.cq_depth
    }

    /// Acknowledges that `node`'s consumer polled `n` completions off
    /// its CQ, freeing their slots. The embedder calls this when the
    /// host CPU actually catches up with the queue (not at delivery
    /// time), so occupancy genuinely builds under incast.
    pub fn cq_consume(&mut self, node: u32, n: usize) {
        if self.cq_bounded() {
            let used = &mut self.cq_used[node as usize];
            *used = used.saturating_sub(n);
        }
    }

    /// Current completion-queue occupancy of `node` (0 when unbounded).
    pub fn cq_used(&self, node: u32) -> usize {
        self.cq_used[node as usize]
    }

    /// High-water completion-queue occupancy of `node`.
    pub fn cq_peak(&self, node: u32) -> usize {
        self.cq_peak[node as usize]
    }

    /// Receive descriptors currently posted on the QP `node <- peer`
    /// (the upper layer's low-watermark probe).
    pub fn recvq_len(&self, node: u32, peer: u32) -> usize {
        self.nodes[node as usize].recvq[peer as usize].len()
    }

    /// A delivery needed a CQ slot at `dst` and found none: the verbs
    /// `IBV_EVENT_CQ_ERR` path. The offending QP errors; the requester
    /// learns through a typed [`CqeStatus::CqOverflow`] completion
    /// (error completions bypass the bound — they are the recovery
    /// signal). The receive descriptor is left posted and the payload
    /// is discarded, so the re-driven transfer finds the ring intact.
    fn cq_overflow<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        src: u32,
        wr_id: u64,
        sink: &mut F,
    ) {
        self.stats.cq_overflows += 1;
        self.node_stats[dst as usize].cq_overflows += 1;
        self.sched_local(
            sink,
            src,
            Cqe {
                peer: dst,
                wr_id,
                is_recv: false,
                byte_len: 0,
                imm: None,
                status: CqeStatus::CqOverflow,
            },
            now,
        );
        self.fail_qp(now, src, dst, sink);
    }

    #[inline]
    fn dir(&self, src: u32, dst: u32) -> &DirState {
        &self.dirs[src as usize * self.nodes.len() + dst as usize]
    }

    #[inline]
    fn dir_mut(&mut self, src: u32, dst: u32) -> &mut DirState {
        &mut self.dirs[src as usize * self.nodes.len() + dst as usize]
    }

    /// Installs a fault plan. An inert plan (all rates zero) removes
    /// fault processing entirely, keeping the fabric's timing identical
    /// to one that never had a plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_inert() {
            None
        } else {
            Some(FaultState::new(plan))
        };
    }

    /// Starts a fault-free run under `cfg` in place, keeping every
    /// heap container's capacity: transmit engines idle at t=0 with
    /// cleared traces, receive/park/send queues empty but warm,
    /// per-direction QP state back at RTS/epoch 0, stats and counters
    /// zeroed. [`Fabric::new`] ends here too, so a recycled fabric
    /// behaves bit-identically to a fresh one. Arm fault injection
    /// afterwards with [`Fabric::set_fault_plan`] if needed.
    pub fn reset(&mut self, cfg: NetConfig) {
        let n = self.nodes.len();
        self.cfg = cfg;
        for node in &mut self.nodes {
            node.tx.reset();
            node.recvq.reset_entries(|q| q.clear());
            node.parked.reset_entries(|q| q.clear());
            node.sq_busy.reset_entries(|q| q.clear());
        }
        self.stats = FabricStats::default();
        self.faults = None;
        self.next_id = 0;
        self.next_order = 0;
        self.inflight.clear();
        self.dirs.reset_entries(|d| *d = DirState::default());
        self.migrating = 0;
        self.ports_down.clear();
        self.ports_down.resize(n, [false; 2]);
        self.ports_down_count = 0;
        self.nodes_down.clear();
        self.node_stats.clear();
        self.node_stats.resize(n, FabricStats::default());
        self.cq_used.clear();
        self.cq_used.resize(n, 0);
        self.cq_peak.clear();
        self.cq_peak.resize(n, 0);
    }

    /// True when fault injection is active.
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// True when the directional QP `node -> peer` is in the error
    /// state (retry budget exhausted).
    pub fn qp_errored(&self, node: u32, peer: u32) -> bool {
        self.dir(node, peer).err
    }

    /// Lifecycle state of the directional QP `node -> peer`.
    pub fn qp_state(&self, node: u32, peer: u32) -> QpState {
        self.dir(node, peer).state
    }

    /// Connection incarnation of the directional QP `node -> peer`
    /// (bumped each time the QP is torn down to RESET).
    pub fn qp_epoch(&self, node: u32, peer: u32) -> u32 {
        self.epoch_of((node, peer))
    }

    /// True when `port` of `node` is currently down.
    pub fn port_down(&self, node: u32, port: u8) -> bool {
        self.ports_down[node as usize][port as usize]
    }

    /// True when `node` is currently crashed ([`NicEvent::NodeDown`]
    /// fired and no restart has happened yet). This is the membership
    /// view a subnet-manager-style health service would export; the
    /// MPI layer consults it to escalate a connection failure into a
    /// peer-death diagnosis.
    pub fn node_down(&self, node: u32) -> bool {
        self.nodes_down.get(node as usize).copied().unwrap_or(false)
    }

    /// True when any node is currently crashed.
    pub fn any_node_down(&self) -> bool {
        self.nodes_down.iter().any(|&d| d)
    }

    /// True when every scheduled crash of `node` carries a restart
    /// window — i.e. the installed plan never kills the node for good.
    /// Mirrors the out-of-band knowledge a membership service
    /// accumulates: a node with a pending restart is "suspected", one
    /// crashed with no restart is "failed".
    pub fn node_will_restart(&self, node: u32) -> bool {
        match &self.faults {
            None => true,
            Some(fs) => fs
                .plan()
                .node_faults
                .iter()
                .filter(|nf| nf.node == node)
                .all(|nf| nf.restart_after_ns.is_some()),
        }
    }

    /// Port carrying the current path of the directional QP
    /// `node -> peer` (0 = primary until a migration happens).
    pub fn qp_port(&self, node: u32, peer: u32) -> u8 {
        self.dir(node, peer).path
    }

    /// The installed fault plan, when fault injection is active.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
    }

    /// The `(time, event)` pairs the embedder must seed into its engine
    /// to realize the installed plan's scheduled faults: port failures
    /// from [`FaultPlan::link_faults`] and crash-stop node failures
    /// from [`FaultPlan::node_faults`].
    pub fn fault_events(&self) -> Vec<(Time, NicEvent)> {
        let Some(fs) = &self.faults else {
            return Vec::new();
        };
        let mut evs = Vec::new();
        for lf in &fs.plan().link_faults {
            evs.push((
                lf.at_ns,
                NicEvent::PortDown {
                    node: lf.node,
                    port: lf.port,
                },
            ));
            evs.push((
                lf.at_ns + lf.down_ns,
                NicEvent::PortUp {
                    node: lf.node,
                    port: lf.port,
                },
            ));
        }
        for nf in &fs.plan().node_faults {
            evs.push((nf.at_ns, NicEvent::NodeDown { node: nf.node }));
            if let Some(after) = nf.restart_after_ns {
                evs.push((nf.at_ns + after, NicEvent::NodeUp { node: nf.node }));
            }
        }
        evs
    }

    /// Requests a lifecycle transition on the directional QP
    /// `node -> peer` (the verbs `ibv_modify_qp`). Legal transitions
    /// are the spec's: RESET→INIT→RTR→RTS, RTS⇄SQD, SQE→RTS, any→ERR,
    /// any→RESET. Entering ERR flushes outstanding WQEs (error CQEs
    /// through `sink`); entering RESET silently releases everything and
    /// bumps the connection epoch.
    pub fn modify_qp<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        target: QpState,
        sink: &mut F,
    ) -> Result<(), QpTransitionError> {
        let from = self.qp_state(node, peer);
        let legal = matches!(
            (from, target),
            (QpState::Reset, QpState::Init)
                | (QpState::Init, QpState::Rtr)
                | (QpState::Rtr, QpState::Rts)
                | (QpState::Rts, QpState::Sqd)
                | (QpState::Sqd, QpState::Rts)
                | (QpState::Sqe, QpState::Rts)
                | (_, QpState::Err)
                | (_, QpState::Reset)
        );
        if !legal {
            return Err(QpTransitionError { from, to: target });
        }
        match target {
            QpState::Err => self.fail_qp(now, node, peer, sink),
            QpState::Reset => self.reset_qp(node, peer),
            other => {
                self.dir_mut(node, peer).state = other;
            }
        }
        Ok(())
    }

    /// Tears the directional QP `node -> peer` down to RESET: drops all
    /// connection state (send-queue slots, retransmit timers, parked
    /// and reordered transfers, sequence numbers) without generating
    /// completions, clears the error flag, bumps the connection epoch
    /// so stale in-flight traffic is discarded on arrival, and
    /// re-selects a live port for the path. Posted receive descriptors
    /// survive (the re-established connection re-uses them, equivalent
    /// to the CM re-posting identical descriptors).
    pub fn reset_qp(&mut self, node: u32, peer: u32) {
        let dir = (node, peer);
        // Prefer a path whose port is up at both ends.
        let port = [0u8, 1]
            .into_iter()
            .find(|&p| !self.port_down(node, p) && !self.port_down(peer, p))
            .unwrap_or(0);
        let d = self.dir_mut(node, peer);
        d.err = false;
        d.state = QpState::Reset;
        d.epoch += 1;
        d.tx_seq = 0;
        d.rx_expected = 0;
        d.rx_ooo.clear();
        d.path = port;
        if d.migrating_until.take().is_some() {
            self.migrating -= 1;
        }
        if let Some(q) = self.nodes[node as usize]
            .sq_busy
            .get_mut_touched(peer as usize)
        {
            q.clear();
        }
        if let Some(q) = self.nodes[peer as usize]
            .parked
            .get_mut_touched(node as usize)
        {
            q.clear();
        }
        let handles: Vec<Handle> = self
            .inflight
            .iter()
            .filter(|(_, p)| p.endpoints() == dir)
            .map(|(h, _)| h)
            .collect();
        for h in handles {
            self.inflight.remove(h);
        }
    }

    /// Convenience for the MPI connection manager: the full
    /// RESET→INIT→RTR→RTS handshake on the directional QP
    /// `node -> peer`, compressed to one call (the caller charges the
    /// handshake latency on its own clock before invoking this).
    pub fn reestablish_qp(&mut self, node: u32, peer: u32) {
        self.reset_qp(node, peer);
        self.dir_mut(node, peer).state = QpState::Rts;
    }

    /// Per-node reliability counters, indexed by node id. Only the
    /// counters attributable to one side are maintained here
    /// (retransmits, RNR backoff retries, QP errors, flushed WQEs,
    /// migrations, injected drop/corrupt/delay/stall fates); the
    /// aggregate [`Fabric::stats`] remains authoritative for the rest.
    pub fn node_stats(&self) -> &[FabricStats] {
        &self.node_stats
    }

    fn epoch_of(&self, dir: (u32, u32)) -> u32 {
        self.dir(dir.0, dir.1).epoch
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty fabric.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cost model in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Heap bytes held by the paged connection-state tables: the
    /// per-direction QP table plus every node's receive/park/send-queue
    /// tables. Scales with the communication pairs actually touched,
    /// not n² — the quantity the rank-scaling experiment plots.
    pub fn table_bytes(&self) -> usize {
        self.dirs.heap_bytes()
            + self
                .nodes
                .iter()
                .map(|n| n.recvq.heap_bytes() + n.parked.heap_bytes() + n.sq_busy.heap_bytes())
                .sum::<usize>()
    }

    /// Pages materialized in the per-direction QP table (each covering
    /// [`ibdt_simcore::paged::PAGE`] ordered pairs).
    pub fn dir_pages_touched(&self) -> usize {
        self.dirs.pages_touched()
    }

    /// The transmit engine of `node` (utilization / trace inspection).
    pub fn tx_engine(&self, node: u32) -> &SerialResource {
        &self.nodes[node as usize].tx
    }

    fn validate_sges(&self, node: u32, sges: &[Sge], mem: &NodeMem) -> Result<(), PostError> {
        if sges.len() > self.cfg.max_sge {
            return Err(PostError::TooManySges {
                got: sges.len(),
                max: self.cfg.max_sge,
            });
        }
        debug_assert!((node as usize) < self.nodes.len());
        for s in sges {
            mem.regs
                .check(s.lkey, s.addr, s.len)
                .map_err(PostError::BadLocalKey)?;
        }
        Ok(())
    }

    /// Gathers an SGE list into a pooled payload slab — the single
    /// allocation (usually a pool reuse) that the transfer, its
    /// retransmissions, and its delivery all share.
    fn gather(sges: &[Sge], space: &AddressSpace) -> Payload {
        let total: usize = sges.iter().map(|s| s.len as usize).sum();
        Payload::build(total, |data| {
            for s in sges {
                data.extend_from_slice(
                    space
                        .slice(s.addr, s.len)
                        .expect("sge validated against a live registration"),
                );
            }
        })
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Admits a transfer into the retransmit slab, returning the
    /// handle its timer event carries.
    fn admit_inflight(&mut self, dst: u32, tx_dur: Time, extra_delay: Time, xfer: Transfer) -> u64 {
        let order = self.next_order;
        self.next_order += 1;
        self.inflight
            .insert(PendingRetry {
                order,
                dst,
                tx_dur,
                extra_delay,
                xfer,
            })
            .bits()
    }

    fn alloc_seq(&mut self, src: u32, dst: u32) -> u64 {
        let s = &mut self.dir_mut(src, dst).tx_seq;
        let seq = *s;
        *s += 1;
        seq
    }

    /// Serializes one transfer onto the sender's transmit engine and
    /// decides its fate: delivery (possibly jittered), a drop recovered
    /// by the transport timer, or a corruption recovered by the NAK
    /// round trip. Returns the serialization finish time.
    #[allow(clippy::too_many_arguments)]
    fn launch<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        dst: u32,
        xfer: Transfer,
        tx_dur: Time,
        extra_delay: Time,
        retransmit: bool,
        sink: &mut F,
    ) -> Time {
        let src = xfer.src;
        if retransmit {
            self.stats.retransmits += 1;
            self.node_stats[src as usize].retransmits += 1;
            self.stats.bytes_on_wire += xfer.kind.wire_bytes();
        }
        let mut start = ready_at;
        // An APM failover in progress stalls the direction's sends
        // until the alternate path is validated. The count gates the
        // per-direction read off the common (no-migration) path.
        if self.migrating > 0 {
            let d = self.dir_mut(src, dst);
            if let Some(until) = d.migrating_until {
                if until > start {
                    start = until;
                } else {
                    d.migrating_until = None;
                    self.migrating -= 1;
                }
            }
        }
        if let Some(fs) = &mut self.faults {
            if let Some(stall) = fs.stall() {
                self.stats.stalls_injected += 1;
                self.node_stats[src as usize].stalls_injected += 1;
                start = self.nodes[src as usize].tx.reserve_labeled(
                    ready_at.max(start),
                    stall,
                    "stall",
                );
            }
        }
        let ser_done = self.nodes[src as usize]
            .tx
            .reserve_labeled(start, tx_dur, "wire");
        let arrive_at = ser_done + self.cfg.prop_delay_ns + extra_delay;
        let fate = match &mut self.faults {
            Some(fs) => fs.fate(),
            None => Fate::Deliver { jitter_ns: 0 },
        };
        match fate {
            Fate::Deliver { jitter_ns } => {
                if jitter_ns > 0 {
                    self.stats.delays_injected += 1;
                    self.node_stats[src as usize].delays_injected += 1;
                }
                sink(arrive_at + jitter_ns, NicEvent::Arrive { dst, xfer });
            }
            Fate::Drop => {
                self.stats.drops_injected += 1;
                self.node_stats[src as usize].drops_injected += 1;
                let id = self.admit_inflight(dst, tx_dur, extra_delay, xfer);
                sink(
                    ser_done + self.cfg.transport_timeout_ns,
                    NicEvent::RetryTimeout { xfer_id: id },
                );
            }
            Fate::Corrupt => {
                self.stats.corruptions_injected += 1;
                self.node_stats[src as usize].corruptions_injected += 1;
                let id = self.admit_inflight(dst, tx_dur, extra_delay, xfer);
                // Bad ICRC: the payload crossed the wire and the
                // responder NAKs it; retransmission can start after the
                // NAK returns.
                sink(
                    arrive_at + self.cfg.prop_delay_ns + self.cfg.cqe_ns,
                    NicEvent::RetryTimeout { xfer_id: id },
                );
            }
        }
        ser_done
    }

    /// Posts one send work request on the QP `node -> peer`.
    ///
    /// `ready_at` is when the descriptor reaches the HCA (the caller has
    /// already charged the posting CPU time). Completions and arrivals
    /// are scheduled through `sink`.
    pub fn post_send<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut F,
    ) -> Result<(), PostError> {
        self.post_send_inner(ready_at, node, peer, wr, mems, sink, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn post_send_inner<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut F,
        batched: bool,
    ) -> Result<(), PostError> {
        if peer as usize >= self.nodes.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        {
            let d = self.dir(node, peer);
            if d.err {
                return Err(PostError::QpError { peer });
            }
            // The dense default is RTS (connect-at-init), so this one
            // read covers both the former "any lifecycle entry exists"
            // gate and the state check.
            if !matches!(d.state, QpState::Rts) {
                return Err(PostError::QpNotReady { peer });
            }
        }
        if self.ports_down_count > 0 && !self.ensure_path(ready_at, node, peer) {
            // The current path's port is down and no alternate is
            // available: the send could only time out, so the QP errors
            // immediately (the transport retry budget would drain
            // against a dead link).
            self.fail_qp(ready_at, node, peer, sink);
            return Err(PostError::QpError { peer });
        }
        let mem = &mems[node as usize];
        self.validate_sges(node, &wr.sges, mem)?;
        if matches!(
            wr.opcode,
            Opcode::RdmaWrite | Opcode::RdmaWriteImm(_) | Opcode::RdmaRead
        ) && wr.remote.is_none()
        {
            return Err(PostError::MissingRemote);
        }

        let bytes = wr.total_len();
        let (tx_dur, extra_delay) = match wr.opcode {
            // A read request is small on the wire; its payload crosses
            // on the responder's transmit engine.
            Opcode::RdmaRead => (
                self.cfg.tx_ns_batched(wr.sges.len(), 0, batched),
                self.cfg.rdma_read_extra_ns,
            ),
            _ => (self.cfg.tx_ns_batched(wr.sges.len(), bytes, batched), 0),
        };
        // Send-queue depth: WQEs occupy the queue from post until the
        // NIC finishes processing them.
        {
            let q = &mut self.nodes[node as usize].sq_busy[peer as usize];
            while q.front().is_some_and(|e| e.done <= ready_at) {
                q.pop_front();
            }
            if q.len() >= self.cfg.sq_depth {
                return Err(PostError::QueueFull {
                    depth: self.cfg.sq_depth,
                });
            }
        }
        self.stats.wqes += 1;

        let kind = match wr.opcode {
            Opcode::Send => {
                self.stats.bytes_on_wire += bytes;
                TransferKind::Send {
                    wr_id: wr.wr_id,
                    data: Self::gather(&wr.sges, &mem.space),
                    signaled: wr.signaled,
                }
            }
            Opcode::RdmaWrite | Opcode::RdmaWriteImm(_) => {
                self.stats.bytes_on_wire += bytes;
                let (addr, rkey) = wr.remote.expect("checked above");
                let imm = match wr.opcode {
                    Opcode::RdmaWriteImm(v) => Some(v),
                    _ => None,
                };
                TransferKind::Write {
                    wr_id: wr.wr_id,
                    addr,
                    rkey,
                    data: Self::gather(&wr.sges, &mem.space),
                    imm,
                    signaled: wr.signaled,
                }
            }
            Opcode::RdmaRead => {
                let (addr, rkey) = wr.remote.expect("checked above");
                TransferKind::ReadRequest {
                    wr_id: wr.wr_id,
                    addr,
                    rkey,
                    len: bytes,
                    scatter: wr.sges,
                    signaled: wr.signaled,
                }
            }
        };
        let seq = self.alloc_seq(node, peer);
        let epoch = self.epoch_of((node, peer));
        let xfer = Transfer {
            src: node,
            seq,
            attempt: 0,
            epoch,
            kind,
        };
        let wr_id = wr.wr_id;
        let ser_done = self.launch(ready_at, peer, xfer, tx_dur, extra_delay, false, sink);
        self.nodes[node as usize].sq_busy[peer as usize].push_back(SqEntry {
            done: ser_done,
            wr_id,
        });
        Ok(())
    }

    /// Posts a list of descriptors in one call (the extended interface
    /// of §7.4). Functionally identical to posting one by one; the CPU
    /// saving is priced by the caller via
    /// [`NetConfig::post_list_ns`].
    pub fn post_send_list<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
        mems: &[NodeMem],
        sink: &mut F,
    ) -> Result<(), PostError> {
        for wr in wrs {
            self.post_send_inner(ready_at, node, peer, wr, mems, sink, true)?;
        }
        Ok(())
    }

    /// Posts a receive descriptor on the QP `node <- peer`.
    pub fn post_recv<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        mems: &[NodeMem],
        sink: &mut F,
    ) -> Result<(), PostError> {
        if peer as usize >= self.nodes.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        self.validate_sges(node, &wr.sges, &mems[node as usize])?;
        let n = &mut self.nodes[node as usize];
        let q = &mut n.recvq[peer as usize];
        if q.capacity() == 0 {
            // First post on this direction: size the ring in a single
            // step instead of dribbling through doubling growth.
            q.reserve(16);
        }
        q.push_back(wr);
        if !n.parked[peer as usize].is_empty() {
            sink(now, NicEvent::RnrRetry { node, peer });
        }
        Ok(())
    }

    /// Handles a fabric event, appending completions that become visible
    /// to the MPI progress engines **now** onto `out`. The caller owns
    /// (and typically reuses) the completion buffer, so steady-state
    /// event handling allocates nothing. `out` is not cleared here;
    /// entries are appended after whatever the caller left in it.
    pub fn handle<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        ev: NicEvent,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        match ev {
            NicEvent::LocalCqe { node, cqe } => {
                self.stats.cqes += 1;
                self.cq_admit(node);
                out.push((node, cqe));
            }
            NicEvent::Arrive { dst, xfer } => self.arrive(now, dst, xfer, mems, sink, out),
            NicEvent::RnrRetry { node, peer } => {
                self.drain_parked(now, node, peer, mems, sink, out)
            }
            NicEvent::RetryTimeout { xfer_id } => self.retry_timeout(now, xfer_id, sink),
            NicEvent::RnrTimedRetry {
                node,
                peer,
                park_id,
            } => self.rnr_timed_retry(now, node, peer, park_id, mems, sink, out),
            NicEvent::PortDown { node, port } => self.handle_port_down(now, node, port, sink),
            NicEvent::PortUp { node, port } => {
                let down = &mut self.ports_down[node as usize][port as usize];
                if *down {
                    *down = false;
                    self.ports_down_count -= 1;
                }
            }
            NicEvent::NodeDown { node } => self.handle_node_down(now, node, sink),
            NicEvent::ShmArrive { .. } => {
                unreachable!("shared-memory event delivered to the IB fabric")
            }
            NicEvent::NodeUp { node } => {
                if self.node_down(node) {
                    self.nodes_down[node as usize] = false;
                    for port in 0..2u8 {
                        let down = &mut self.ports_down[node as usize][port as usize];
                        if *down {
                            *down = false;
                            self.ports_down_count -= 1;
                        }
                    }
                }
            }
        }
    }

    /// A node crashed: both ports die at once, so no QP touching it can
    /// migrate — every live direction to or from the node transitions
    /// to the error state and flushes its in-flight traffic. The ports
    /// are marked down *before* the QP sweep so the APM check in any
    /// concurrently delivered event sees a node with no usable path.
    fn handle_node_down<F: FnMut(Time, NicEvent)>(&mut self, now: Time, node: u32, sink: &mut F) {
        if self.node_down(node) {
            return;
        }
        if self.nodes_down.is_empty() {
            self.nodes_down = vec![false; self.nodes.len()];
        }
        self.nodes_down[node as usize] = true;
        self.stats.node_crashes += 1;
        self.node_stats[node as usize].node_crashes += 1;
        for port in 0..2u8 {
            let down = &mut self.ports_down[node as usize][port as usize];
            if !*down {
                *down = true;
                self.ports_down_count += 1;
            }
        }
        let n = self.nodes.len() as u32;
        for other in 0..n {
            if other == node {
                continue;
            }
            for dir in [(node, other), (other, node)] {
                let d = self.dir(dir.0, dir.1);
                if d.err || matches!(d.state, QpState::Reset) {
                    continue;
                }
                self.fail_qp(now, dir.0, dir.1, sink);
            }
        }
    }

    /// A port died: every RTS queue pair whose current path crosses it
    /// either migrates to the alternate path (APM) or errors.
    fn handle_port_down<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        port: u8,
        sink: &mut F,
    ) {
        {
            let down = &mut self.ports_down[node as usize][port as usize];
            if !*down {
                *down = true;
                self.ports_down_count += 1;
            }
        }
        let n = self.nodes.len() as u32;
        for other in 0..n {
            if other == node {
                continue;
            }
            for dir in [(node, other), (other, node)] {
                {
                    let d = self.dir(dir.0, dir.1);
                    if d.err || !matches!(d.state, QpState::Rts) || d.path != port {
                        continue;
                    }
                }
                let alt = 1 - port;
                if self.cfg.apm_enabled
                    && !self.port_down(dir.0, alt)
                    && !self.port_down(dir.1, alt)
                {
                    self.migrate(now, dir, alt);
                } else {
                    self.fail_qp(now, dir.0, dir.1, sink);
                }
            }
        }
    }

    /// True when the direction has a usable path, migrating to the
    /// alternate port on the fly if the current one is down (lazy APM:
    /// covers a QP re-established while its old port is still dark).
    fn ensure_path(&mut self, now: Time, node: u32, peer: u32) -> bool {
        let dir = (node, peer);
        let port = self.dir(node, peer).path;
        if !self.port_down(node, port) && !self.port_down(peer, port) {
            return true;
        }
        let alt = 1 - port;
        if self.cfg.apm_enabled && !self.port_down(node, alt) && !self.port_down(peer, alt) {
            self.migrate(now, dir, alt);
            return true;
        }
        false
    }

    fn migrate(&mut self, now: Time, dir: (u32, u32), alt: u8) {
        let until = now + self.cfg.apm_migration_ns;
        let d = self.dir_mut(dir.0, dir.1);
        d.path = alt;
        if d.migrating_until.replace(until).is_none() {
            self.migrating += 1;
        }
        self.stats.migrations += 1;
        self.node_stats[dir.0 as usize].migrations += 1;
    }

    /// Transport timer: retransmit the pending transfer, or exhaust the
    /// retry budget and error the QP.
    fn retry_timeout<F: FnMut(Time, NicEvent)>(&mut self, now: Time, xfer_id: u64, sink: &mut F) {
        let Some(mut p) = self.inflight.remove(Handle::from_bits(xfer_id)) else {
            // Flushed by a QP error transition in the meantime (the
            // stale generation makes the removal a miss).
            return;
        };
        let (requester, responder) = p.endpoints();
        p.xfer.attempt += 1;
        if p.xfer.attempt > self.cfg.retry_cnt {
            let status = CqeStatus::RetryExceeded {
                attempts: p.xfer.attempt,
            };
            sink(
                now + self.cfg.cqe_ns,
                NicEvent::LocalCqe {
                    node: requester,
                    cqe: Cqe {
                        peer: responder,
                        wr_id: p.xfer.kind.wr_id(),
                        is_recv: false,
                        byte_len: 0,
                        imm: None,
                        status,
                    },
                },
            );
            self.fail_qp(now, requester, responder, sink);
        } else {
            let dst = p.dst;
            self.launch(now, dst, p.xfer, p.tx_dur, p.extra_delay, true, sink);
        }
    }

    /// Timed RNR backoff: try delivery again; burn a retry if the
    /// receiver still has no descriptor; exhaust the budget and error
    /// the sender's QP when it runs out.
    #[allow(clippy::too_many_arguments)]
    fn rnr_timed_retry<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        park_id: u64,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        self.drain_parked(now, node, peer, mems, sink, out);
        let Some(q) = self.nodes[node as usize]
            .parked
            .get_mut_touched(peer as usize)
        else {
            return;
        };
        let Some(pos) = q.iter().position(|p| p.id == park_id) else {
            // Delivered (or flushed) in the meantime.
            return;
        };
        self.stats.rnr_backoff_retries += 1;
        self.node_stats[peer as usize].rnr_backoff_retries += 1;
        let entry = &mut q[pos];
        entry.attempt += 1;
        if entry.attempt > self.cfg.rnr_retry {
            let entry = q.remove(pos).expect("position just found");
            let status = CqeStatus::RnrRetryExceeded {
                attempts: entry.attempt,
            };
            // The RNR NAK that exhausts the budget travels back to the
            // sender, whose QP then errors.
            self.sched_local(
                sink,
                peer,
                Cqe {
                    peer: node,
                    wr_id: entry.xfer.kind.wr_id(),
                    is_recv: false,
                    byte_len: 0,
                    imm: None,
                    status,
                },
                now,
            );
            self.fail_qp(now, peer, node, sink);
        } else {
            let key = ((node as u64) << 48) ^ ((peer as u64) << 32) ^ park_id;
            let at = now + self.cfg.rnr_backoff_jittered_ns(entry.attempt, key);
            sink(
                at,
                NicEvent::RnrTimedRetry {
                    node,
                    peer,
                    park_id,
                },
            );
        }
    }

    /// Transitions the directional QP `requester -> responder` to the
    /// error state: outstanding WQEs (send-queue slots, transfers
    /// awaiting retransmission, parked transfers, reorder-buffer
    /// residents) flush with [`CqeStatus::FlushErr`]; later posts fail
    /// with [`PostError::QpError`]; in-flight arrivals are discarded.
    fn fail_qp<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        requester: u32,
        responder: u32,
        sink: &mut F,
    ) {
        {
            let d = self.dir_mut(requester, responder);
            if d.err {
                return;
            }
            d.err = true;
            d.state = QpState::Err;
        }
        self.stats.qp_errors += 1;
        self.node_stats[requester as usize].qp_errors += 1;
        let mut flushed: HashSet<u64> = HashSet::new();
        let mut flush_wrs: Vec<u64> = Vec::new();

        // Send-queue slots whose NIC processing hasn't finished.
        if let Some(q) = self.nodes[requester as usize]
            .sq_busy
            .get_mut_touched(responder as usize)
        {
            for e in q.drain(..) {
                if e.done > now && flushed.insert(e.wr_id) {
                    flush_wrs.push(e.wr_id);
                }
            }
        }
        // Transfers awaiting retransmission on this QP, flushed in
        // admission order: the slab iterates slots in index order, so
        // sort on the monotonic admission stamp to reproduce the
        // oldest-first order the former sorted-ticket flush produced.
        let mut ids: Vec<(u64, Handle)> = self
            .inflight
            .iter()
            .filter(|(_, p)| p.endpoints() == (requester, responder))
            .map(|(h, p)| (p.order, h))
            .collect();
        ids.sort_unstable();
        for (_, h) in ids {
            let p = self.inflight.remove(h).expect("handle collected above");
            let wr = p.xfer.kind.wr_id();
            if flushed.insert(wr) {
                flush_wrs.push(wr);
            }
        }
        // Transfers parked for RNR at the responder.
        if let Some(q) = self.nodes[responder as usize]
            .parked
            .get_mut_touched(requester as usize)
        {
            for e in q.drain(..) {
                let wr = e.xfer.kind.wr_id();
                if flushed.insert(wr) {
                    flush_wrs.push(wr);
                }
            }
        }
        // Reorder-buffer residents that will never be released.
        {
            let d = self.dir_mut(requester, responder);
            for (_, x) in std::mem::take(&mut d.rx_ooo) {
                let wr = x.kind.wr_id();
                if flushed.insert(wr) {
                    flush_wrs.push(wr);
                }
            }
            d.rx_expected = 0;
        }

        self.stats.flushed_wqes += flush_wrs.len() as u64;
        self.node_stats[requester as usize].flushed_wqes += flush_wrs.len() as u64;
        for wr_id in flush_wrs {
            sink(
                now + self.cfg.cqe_ns,
                NicEvent::LocalCqe {
                    node: requester,
                    cqe: Cqe {
                        peer: responder,
                        wr_id,
                        is_recv: false,
                        byte_len: 0,
                        imm: None,
                        status: CqeStatus::FlushErr,
                    },
                },
            );
        }
    }

    /// Delivers parked transfers of `(node, peer)` while receive
    /// descriptors are available.
    fn drain_parked<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        loop {
            let node_st = &mut self.nodes[node as usize];
            if node_st.recvq[peer as usize].is_empty() {
                break;
            }
            let Some(entry) = node_st
                .parked
                .get_mut_touched(peer as usize)
                .and_then(|q| q.pop_front())
            else {
                break;
            };
            self.deliver(now, node, entry.xfer, mems, sink, out);
        }
    }

    /// Entry point for transfers reaching `dst`: discards traffic on
    /// errored QPs and, when fault injection is active, enforces per-QP
    /// sequence order through the reorder buffer before delivery.
    fn arrive<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        xfer: Transfer,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        let dir = (xfer.src, dst);
        {
            let d = self.dir(dir.0, dir.1);
            if xfer.epoch != d.epoch {
                // Launched by a previous incarnation of this QP (reset
                // while the transfer was in flight): stale, discard.
                self.stats.flushed_wqes += 1;
                self.node_stats[xfer.src as usize].flushed_wqes += 1;
                return;
            }
            if d.err {
                // The QP died while this transfer was in flight: flush it.
                self.stats.flushed_wqes += 1;
                self.node_stats[xfer.src as usize].flushed_wqes += 1;
                return;
            }
        }
        if self.faults.is_none() {
            self.deliver(now, dst, xfer, mems, sink, out);
            return;
        }
        {
            let d = self.dir_mut(dir.0, dir.1);
            if xfer.seq > d.rx_expected {
                d.rx_ooo.insert(xfer.seq, xfer);
                return;
            }
            debug_assert_eq!(xfer.seq, d.rx_expected, "duplicate delivery on RC QP");
        }
        self.deliver(now, dst, xfer, mems, sink, out);
        // Release consecutive reorder-buffer residents.
        loop {
            let d = self.dir_mut(dir.0, dir.1);
            d.rx_expected += 1;
            let next = d.rx_expected;
            let Some(x) = d.rx_ooo.remove(&next) else {
                break;
            };
            self.deliver(now, dst, x, mems, sink, out);
        }
    }

    fn deliver<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        xfer: Transfer,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        let src = xfer.src;
        let seq = xfer.seq;
        let attempt = xfer.attempt;
        let epoch = xfer.epoch;
        match xfer.kind {
            TransferKind::Send {
                wr_id,
                data,
                signaled,
            } => {
                if self.cq_full(dst) {
                    self.cq_overflow(now, dst, src, wr_id, sink);
                    return;
                }
                match self.consume_recv(dst, src, data.len() as u64) {
                    ConsumeOutcome::NoDescriptor => {
                        self.stats.rnr_events += 1;
                        self.park(
                            now,
                            dst,
                            src,
                            Transfer {
                                src,
                                seq,
                                attempt,
                                epoch,
                                kind: TransferKind::Send {
                                    wr_id,
                                    data,
                                    signaled,
                                },
                            },
                            sink,
                        );
                    }
                    ConsumeOutcome::TooSmall(rwr) => {
                        self.cq_admit(dst);
                        out.push((
                            dst,
                            Cqe {
                                peer: src,
                                wr_id: rwr.wr_id,
                                is_recv: true,
                                byte_len: 0,
                                imm: None,
                                status: CqeStatus::LocalLengthError {
                                    sent: data.len() as u64,
                                    capacity: rwr.capacity(),
                                },
                            },
                        ));
                        self.sched_local(
                            sink,
                            src,
                            Cqe {
                                peer: dst,
                                wr_id,
                                is_recv: false,
                                byte_len: 0,
                                imm: None,
                                status: CqeStatus::RemoteAccess(MemError::OutOfBounds {
                                    addr: 0,
                                    len: data.len() as u64,
                                    capacity: rwr.capacity(),
                                }),
                            },
                            now,
                        );
                    }
                    ConsumeOutcome::Ok(rwr) => {
                        Self::scatter(&rwr.sges, data.as_slice(), &mut mems[dst as usize].space);
                        self.stats.cqes += 1;
                        self.cq_admit(dst);
                        out.push((
                            dst,
                            Cqe {
                                peer: src,
                                wr_id: rwr.wr_id,
                                is_recv: true,
                                byte_len: data.len() as u64,
                                imm: None,
                                status: CqeStatus::Success,
                            },
                        ));
                        if signaled {
                            self.sched_local(
                                sink,
                                src,
                                Cqe {
                                    peer: dst,
                                    wr_id,
                                    is_recv: false,
                                    byte_len: data.len() as u64,
                                    imm: None,
                                    status: CqeStatus::Success,
                                },
                                now,
                            );
                        }
                    }
                }
            }
            TransferKind::Write {
                wr_id,
                addr,
                rkey,
                data,
                imm,
                signaled,
            } => {
                // A write-with-immediate needs a CQ slot at the target
                // just like a send does.
                if imm.is_some() && self.cq_full(dst) {
                    self.cq_overflow(now, dst, src, wr_id, sink);
                    return;
                }
                // Write-with-immediate consumes a receive descriptor; if
                // none is posted the transfer parks (RNR), data unplaced.
                if imm.is_some() && self.nodes[dst as usize].recvq[src as usize].is_empty() {
                    self.stats.rnr_events += 1;
                    self.park(
                        now,
                        dst,
                        src,
                        Transfer {
                            src,
                            seq,
                            attempt,
                            epoch,
                            kind: TransferKind::Write {
                                wr_id,
                                addr,
                                rkey,
                                data,
                                imm,
                                signaled,
                            },
                        },
                        sink,
                    );
                    return;
                }
                let mem = &mut mems[dst as usize];
                match mem.regs.check(rkey, addr, data.len() as u64) {
                    Err(e) => {
                        self.sched_local(
                            sink,
                            src,
                            Cqe {
                                peer: dst,
                                wr_id,
                                is_recv: false,
                                byte_len: 0,
                                imm: None,
                                status: CqeStatus::RemoteAccess(e),
                            },
                            now,
                        );
                        // The responder NAKs the access; on RC that
                        // terminates the connection — later WQEs must
                        // not complete (they would let the requester
                        // believe partially-rejected data all landed).
                        self.fail_qp(now, src, dst, sink);
                    }
                    Ok(()) => {
                        mem.space
                            .write(addr, data.as_slice())
                            .expect("rkey check guarantees bounds");
                        if let Some(v) = imm {
                            let rwr = self.nodes[dst as usize].recvq[src as usize]
                                .pop_front()
                                .expect("checked non-empty above");
                            self.stats.cqes += 1;
                            self.cq_admit(dst);
                            out.push((
                                dst,
                                Cqe {
                                    peer: src,
                                    wr_id: rwr.wr_id,
                                    is_recv: true,
                                    byte_len: data.len() as u64,
                                    imm: Some(v),
                                    status: CqeStatus::Success,
                                },
                            ));
                        }
                        if signaled {
                            self.sched_local(
                                sink,
                                src,
                                Cqe {
                                    peer: dst,
                                    wr_id,
                                    is_recv: false,
                                    byte_len: data.len() as u64,
                                    imm: None,
                                    status: CqeStatus::Success,
                                },
                                now,
                            );
                        }
                    }
                }
            }
            TransferKind::ReadRequest {
                wr_id,
                addr,
                rkey,
                len,
                scatter,
                signaled,
            } => {
                let mem = &mems[dst as usize];
                match mem.regs.check(rkey, addr, len) {
                    Err(e) => {
                        self.sched_local(
                            sink,
                            src,
                            Cqe {
                                peer: dst,
                                wr_id,
                                is_recv: false,
                                byte_len: 0,
                                imm: None,
                                status: CqeStatus::RemoteAccess(e),
                            },
                            now,
                        );
                        // RC semantics: a remote-access NAK errors the
                        // requesting queue pair (see the Write arm).
                        self.fail_qp(now, src, dst, sink);
                    }
                    Ok(()) => {
                        let data = Payload::build(len as usize, |v| {
                            v.extend_from_slice(
                                mem.space
                                    .slice(addr, len)
                                    .expect("rkey check guarantees bounds"),
                            )
                        });
                        // The response occupies the responder's transmit
                        // engine for its serialization time (and is
                        // itself subject to fault injection).
                        let dur = self.cfg.tx_ns(1, len);
                        self.stats.wqes += 1;
                        self.stats.bytes_on_wire += len;
                        let rseq = self.alloc_seq(dst, src);
                        let repoch = self.epoch_of((dst, src));
                        let resp = Transfer {
                            src: dst,
                            seq: rseq,
                            attempt: 0,
                            epoch: repoch,
                            kind: TransferKind::ReadResponse {
                                wr_id,
                                data,
                                scatter,
                                signaled,
                            },
                        };
                        self.launch(now, src, resp, dur, 0, false, sink);
                    }
                }
            }
            TransferKind::ReadResponse {
                wr_id,
                data,
                scatter,
                signaled,
            } => {
                Self::scatter(&scatter, data.as_slice(), &mut mems[dst as usize].space);
                if signaled {
                    self.stats.cqes += 1;
                    self.cq_admit(dst);
                    out.push((
                        dst,
                        Cqe {
                            peer: src,
                            wr_id,
                            is_recv: false,
                            byte_len: data.len() as u64,
                            imm: None,
                            status: CqeStatus::Success,
                        },
                    ));
                }
            }
        }
    }

    fn sched_local<F: FnMut(Time, NicEvent)>(&self, sink: &mut F, node: u32, cqe: Cqe, now: Time) {
        // ACK travels back one propagation delay; then the CQE is
        // generated.
        sink(
            now + self.cfg.prop_delay_ns + self.cfg.cqe_ns,
            NicEvent::LocalCqe { node, cqe },
        );
    }

    /// Parks a transfer awaiting a receive descriptor. With a finite
    /// `rnr_retry` budget the RNR NAK starts a timed backoff loop;
    /// with the infinite budget (the IB value 7, our default) the
    /// transfer waits silently until a receive is posted.
    fn park<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        src: u32,
        xfer: Transfer,
        sink: &mut F,
    ) {
        let id = self.alloc_id();
        self.nodes[dst as usize].parked[src as usize].push_back(ParkedEntry {
            id,
            attempt: 0,
            xfer,
        });
        if !self.cfg.rnr_infinite() {
            // Jitter the backoff per parked transfer: an incast cohort
            // parked in the same instant must not retry in lockstep.
            let key = ((dst as u64) << 48) ^ ((src as u64) << 32) ^ id;
            sink(
                now + self.cfg.rnr_backoff_jittered_ns(0, key),
                NicEvent::RnrTimedRetry {
                    node: dst,
                    peer: src,
                    park_id: id,
                },
            );
        }
    }

    fn consume_recv(&mut self, dst: u32, src: u32, len: u64) -> ConsumeOutcome {
        let wm = self.cfg.recv_low_watermark;
        let Some(q) = self.nodes[dst as usize].recvq.get_mut_touched(src as usize) else {
            return ConsumeOutcome::NoDescriptor;
        };
        let outcome = match q.front() {
            None => return ConsumeOutcome::NoDescriptor,
            Some(r) if r.capacity() < len => {
                let rwr = q.pop_front().expect("front exists");
                ConsumeOutcome::TooSmall(rwr)
            }
            Some(_) => ConsumeOutcome::Ok(q.pop_front().expect("front exists")),
        };
        // SRQ-limit-style watermark: count the crossing (edge, not
        // level) so the embedder sees one event per dip and can grant
        // credits / repost before the queue empties into RNR.
        if wm > 0 && q.len() + 1 == wm {
            self.stats.recv_low_water += 1;
            self.node_stats[dst as usize].recv_low_water += 1;
        }
        outcome
    }

    fn scatter(sges: &[Sge], data: &[u8], space: &mut AddressSpace) {
        let mut off = 0usize;
        for s in sges {
            if off >= data.len() {
                break;
            }
            let take = (s.len as usize).min(data.len() - off);
            space
                .write(s.addr, &data[off..off + take])
                .expect("sge validated at post");
            off += take;
        }
        debug_assert_eq!(off, data.len(), "scatter capacity checked before");
    }
}

enum ConsumeOutcome {
    NoDescriptor,
    TooSmall(RecvWr),
    Ok(RecvWr),
}
