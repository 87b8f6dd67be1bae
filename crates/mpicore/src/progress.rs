//! The MPI progress engine: eager and rendezvous protocol state
//! machines for every datatype communication scheme.
//!
//! Structure: [`isend`]/[`irecv`] start operations; [`on_cqe`] reacts to
//! fabric completions (control arrivals, segment immediates, local data
//! completions); [`on_cpu`] reacts to host-work completions (a segment
//! packed/unpacked, registration finished). All host work is charged on
//! the rank's FIFO CPU resource, so pack ∥ wire ∥ unpack overlap — the
//! paper's central mechanism — emerges from the schedule rather than
//! being asserted.
//!
//! Functional-now, complete-later: memory effects (packing bytes,
//! placing data) happen at event-processing time; *completion events*
//! fire when the modelled cost has elapsed. MPI's buffer-ownership rules
//! make this safe: a correct program never touches a buffer while an
//! operation that uses it is in flight.

use crate::config::{MpiConfig, Scheme};
use crate::error::MpiError;
use crate::msg::{CtrlMsg, ReplyBody, SegList};
use crate::plan::{for_each_substream_piece, hybrid_partition, imm_of, imm_parse, plan_multi_w};
use crate::rank::{PostedRecv, RankState, ReqId, ReqKind, Unexpected};
use crate::table::{ImmMap, MsgTable};
use ibdt_datatype::{Datatype, FlatLayout, TransferPlan};
use ibdt_ibsim::{
    Cqe, HostConfig, NetConfig, NicEvent, NodeMem, Opcode, PostError, RecvWr, SendWr, Sge, SgeList,
    Transport, TransportClass,
};
use ibdt_memreg::{ogr, Registration, Va};
use ibdt_simcore::engine::Scheduler;
use ibdt_simcore::pipeline::{two_stage_finish_ns, MAX_PIPELINE_BUFS};
use ibdt_simcore::time::Time;
use ibdt_simcore::InlineVec;
use std::collections::HashSet;
use std::sync::Arc;

/// Top-level simulation event for the MPI world.
#[derive(Debug)]
pub enum Ev {
    /// A fabric event (arrivals, local completions, RNR retries).
    Nic(NicEvent),
    /// Host work finished on `rank`.
    Cpu {
        /// The rank whose CPU finished.
        rank: u32,
        /// What finished.
        act: CpuAct,
    },
    /// Re-run the program interpreter of `rank`.
    Resume {
        /// The rank to resume.
        rank: u32,
    },
    /// The rank's CPU finished draining `n` entries from its completion
    /// queue — returns that many slots to the bounded CQ. Scheduled only
    /// when `cq_depth` is finite, so default runs see no new events.
    CqAck {
        /// The rank whose completion queue drained.
        rank: u32,
        /// Completion entries consumed.
        n: u32,
    },
}

/// Host-work completions that drive protocol state forward.
#[derive(Debug, Clone, Copy)]
pub enum CpuAct {
    /// Sender packed segment `k` of message `(peer, seq)`.
    PackSeg {
        /// Destination rank of the send.
        peer: u32,
        /// Message sequence number.
        seq: u64,
        /// Segment index.
        k: u32,
    },
    /// Receiver unpacked segment `k`.
    UnpackSeg {
        /// Source rank.
        peer: u32,
        /// Sequence number.
        seq: u64,
        /// Segment index.
        k: u32,
    },
    /// Receiver unpacked the whole message at once (the Fig. 12
    /// no-segment-unpack RWG-UP ablation).
    UnpackAll {
        /// Source rank.
        peer: u32,
        /// Sequence number.
        seq: u64,
    },
    /// Sender finished registering its user buffer (RWG-UP / Multi-W).
    SenderRegDone {
        /// Destination rank.
        peer: u32,
        /// Sequence number.
        seq: u64,
    },
    /// Receiver finished its rendezvous preparation; the stored reply
    /// can be sent.
    ReceiverReady {
        /// Source rank.
        peer: u32,
        /// Sequence number.
        seq: u64,
    },
    /// An eager-path send finished packing (request complete).
    SendDone {
        /// The completed request.
        req: ReqId,
    },
    /// An eager-path receive finished unpacking (request complete).
    RecvDone {
        /// The completed request.
        req: ReqId,
    },
    /// The rendezvous-reply timeout fired for message `(peer, seq)`
    /// (scheduled only when `rndv_reply_timeout_ns > 0`).
    ReplyTimeout {
        /// Destination rank of the stalled send.
        peer: u32,
        /// Message sequence number.
        seq: u64,
    },
    /// The connection-manager handshake to `peer` finished: the queue
    /// pair is re-established and suspended traffic can be re-driven.
    Reconnect {
        /// The reconnected peer.
        peer: u32,
    },
}

/// Shared mutable context threaded through the protocol functions.
pub struct Ctx<'a, 'b> {
    /// The transport backend (IB fabric or shared-memory channel),
    /// driven through the [`Transport`] trait.
    pub fabric: &'a mut dyn Transport,
    /// All ranks' memories.
    pub mems: &'a mut Vec<NodeMem>,
    /// Network cost model.
    pub net: &'a NetConfig,
    /// Host cost model.
    pub host: &'a HostConfig,
    /// MPI configuration.
    pub cfg: &'a MpiConfig,
    /// Event scheduler.
    pub sched: &'a mut Scheduler<'b, Ev>,
}

impl Ctx<'_, '_> {
    pub(crate) fn now(&self) -> Time {
        self.sched.now()
    }

    pub(crate) fn post_send(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
    ) -> Result<(), PostError> {
        let Self {
            fabric,
            mems,
            sched,
            ..
        } = self;
        fabric.post_send(ready_at, node, peer, wr, mems, &mut |t, e| {
            sched.at(t, Ev::Nic(e))
        })
    }

    pub(crate) fn post_send_list(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
    ) -> Result<(), PostError> {
        let Self {
            fabric,
            mems,
            sched,
            ..
        } = self;
        fabric.post_send_list(ready_at, node, peer, wrs, mems, &mut |t, e| {
            sched.at(t, Ev::Nic(e))
        })
    }

    fn post_recv(&mut self, now: Time, node: u32, peer: u32, wr: RecvWr) {
        let Self {
            fabric,
            mems,
            sched,
            ..
        } = self;
        fabric
            .post_recv(now, node, peer, wr, mems, &mut |t, e| {
                sched.at(t, Ev::Nic(e))
            })
            .expect("protocol posted an invalid receive");
    }

    fn cpu_event(&mut self, at: Time, rank: u32, act: CpuAct) {
        self.sched.at(at, Ev::Cpu { rank, act });
    }
}

/// Work-request id namespaces (low bits carry a value, high byte the
/// kind).
const WR_KIND_SHIFT: u32 = 56;
const WR_EAGER: u64 = 1 << WR_KIND_SHIFT; // low bits: send ring buffer va
const WR_DATA: u64 = 2 << WR_KIND_SHIFT; // low bits: seq
const WR_READ: u64 = 3 << WR_KIND_SHIFT; // low bits: seq
/// One-sided RMA work requests (completion tracked per fence epoch).
pub(crate) const WR_RMA: u64 = 4 << WR_KIND_SHIFT;
const WR_LOW_MASK: u64 = (1 << WR_KIND_SHIFT) - 1;

/// Immediate segment index reserved for the Hybrid completion marker.
const MARKER_K: u32 = 0xFFFF;

/// Where the sender aims its data, per the rendezvous reply.
#[derive(Debug)]
enum SendTargets {
    /// Generic: one unpack buffer.
    Buffer { addr: Va, rkey: u32 },
    /// BC-SPUP / RWG-UP: per-segment unpack buffers.
    Segments(SegList),
    /// Multi-W: receiver block list and covering regions.
    MultiW {
        rcv_blocks: Vec<(Va, u64)>,
        regions: Vec<Region>,
    },
    /// P-RRS: receiver will read; sender announces packed segments.
    ReadGo,
    /// Hybrid (§10 future work): BC-SPUP segment buffers for the packed
    /// intervals, plus the direct part — `(stream lo, stream hi,
    /// destination va)` per large receiver block, inside `regions`.
    Hybrid {
        segs: SegList,
        direct: Vec<(u64, u64, Va)>,
        regions: Vec<Region>,
    },
}

/// A receiver region registered for direct writes: `(addr, len, rkey)`.
type Region = (Va, u64, u32);

pub(crate) use crate::pool::StageBuf;

/// Stream intervals `[lo, hi)` that travel packed, in stream order:
/// `[0, size)` for every segmented scheme except Hybrid, whose packed
/// part is the small-block intervals of its threshold partition. The
/// single interval lives inline, so the common case allocates nothing.
type Intervals = InlineVec<(u64, u64), 1>;

/// Total bytes of `ivs` (the packed substream's length).
fn ivs_bytes(ivs: &[(u64, u64)]) -> u64 {
    ivs.iter().map(|&(a, b)| b - a).sum()
}

/// Sender-side state of one rendezvous message.
#[derive(Debug)]
struct SendMsg {
    req: ReqId,
    peer: u32,
    seq: u64,
    /// Match tag, kept so a §5.4.2 renegotiation can re-send the
    /// rendezvous start verbatim.
    tag: u32,
    buf: Va,
    count: u64,
    ty: Datatype,
    size: u64,
    scheme: Scheme,
    nsegs: u32,
    seg_size: u64,
    /// Stream intervals the segments carry (see [`Intervals`]).
    packed_ivs: Intervals,
    pack_bufs: Vec<StageBuf>,
    packed: u32,
    posted_segs: u32,
    pack_chain_running: bool,
    /// Single-block sender (contiguous data): zero-copy paths apply.
    contig: bool,
    targets: Option<SendTargets>,
    /// Hybrid: the direct writes and the completion marker went out.
    direct_posted: bool,
    marker_posted: bool,
    reg_done: bool,
    user_regs: Vec<Registration>,
    /// P-RRS: completion arrives via Fin instead of a local data CQE.
    completed: bool,
    /// Set when a data post failed; the caller of [`try_post_ready`]
    /// aborts the message.
    failed: Option<MpiError>,
    /// Rendezvous-reply probes sent so far (§reply timeout).
    rerequests: u32,
    /// Multi-W / Hybrid degraded mode: the pinning budget barred
    /// registering the user buffer, so the directly written data is
    /// staged through a copy buffer and written into the receiver's
    /// blocks from there.
    mw_stage: bool,
    /// User-buffer bytes this message charged against
    /// `reg_budget_bytes`.
    pinned_bytes: u64,
    /// Set after a protection-fault fallback (§5.4.2): the message was
    /// renegotiated once as BC-SPUP; a second remote-access error is
    /// fatal.
    renegotiated: bool,
    /// Stale pack completions to discard after a renegotiation reset
    /// the pack pipeline.
    drop_packs: u32,
}

/// Receiver-side state of one rendezvous message.
#[derive(Debug)]
struct RecvMsg {
    req: ReqId,
    peer: u32,
    seq: u64,
    buf: Va,
    count: u64,
    ty: Datatype,
    size: u64,
    scheme: Scheme,
    nsegs: u32,
    seg_size: u64,
    /// Stream intervals the segments carry (see [`Intervals`]).
    packed_ivs: Intervals,
    unpack_bufs: Vec<StageBuf>,
    segs_arrived: u32,
    segs_unpacked: u32,
    user_regs: Vec<Registration>,
    pending_reply: Option<Vec<u8>>,
    /// P-RRS: outstanding RDMA reads and announced segments.
    reads_outstanding: u32,
    segs_announced: u32,
    /// Hybrid: the completion marker arrived.
    marker_seen: bool,
    completed: bool,
    /// User-buffer bytes this message charged against
    /// `reg_budget_bytes`.
    pinned_bytes: u64,
    /// Copy of the sent reply, kept for probe-triggered resends.
    reply_copy: Option<Vec<u8>>,
    /// Segment indices already written (dedup across recovery
    /// re-drives: a resumed sender may repeat delivered segments).
    segs_seen: HashSet<u32>,
    /// Stale unpack completions to discard after a renegotiation reset
    /// the unpack pipeline.
    drop_unpacks: u32,
}

/// Active rendezvous messages of one rank. Records live in slab-backed
/// dense tables ([`MsgTable`]) keyed `(peer, seq)` — message lifecycle
/// is index arithmetic, not hash insert/remove per message.
#[derive(Debug)]
pub struct ActiveMsgs {
    sends: MsgTable<SendMsg>,
    recvs: MsgTable<RecvMsg>,
    /// Immediate-data demux: `(peer, seq16)` → full sequence number.
    imm_map: ImmMap,
}

impl ActiveMsgs {
    /// Empty tables for a rank with `nprocs` peers.
    pub fn new(nprocs: usize) -> Self {
        ActiveMsgs {
            sends: MsgTable::new(nprocs),
            recvs: MsgTable::new(nprocs),
            imm_map: ImmMap::new(nprocs),
        }
    }

    /// True when no rendezvous transfers are in flight.
    pub fn is_idle(&self) -> bool {
        self.sends.is_empty() && self.recvs.is_empty()
    }

    /// Empties all tables, keeping their capacity (world recycling).
    pub fn reset(&mut self) {
        self.sends.reset();
        self.recvs.reset();
        self.imm_map.reset();
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Starts a nonblocking send.
#[allow(clippy::too_many_arguments)]
pub fn isend(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
) -> ReqId {
    assert!(
        peer != crate::rank::ANY_SOURCE && tag != crate::rank::ANY_TAG,
        "wildcards are receive-side only"
    );
    let req = rs.new_req(ReqKind::Send);
    let size = count * ty.size();
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.cfg.call_overhead_ns, "call");

    if peer == rs.rank {
        self_send(rs, ctx, req, buf, count, ty, tag);
        return req;
    }
    if size <= ctx.cfg.eager_threshold {
        // Credit-based flow control (MVAPICH RDMA channel, cs/0310059):
        // an eager data message needs a credit and a slot under the
        // pending-queue bound. Without either, degrade the message to
        // rendezvous — eager data and RndvStart share the same in-order
        // control stream (ring + pending FIFO), so per-(peer, tag)
        // matching order is preserved across the spill. Zero-size
        // messages carry no payload worth bounding and stay eager.
        if !ctx.cfg.flow_control || size == 0 {
            eager_send(rs, ctx, req, peer, buf, count, ty, tag, size);
            return req;
        }
        if ctx.cfg.pending_cap > 0 && rs.eager_pending.len() >= ctx.cfg.pending_cap {
            // Rung 2 of the degradation ladder: throttled eager.
            rs.counters.pending_spills += 1;
        } else if rs.fc[peer as usize].credits == 0 {
            // Rung 3: the peer's receive resources are exhausted.
            rs.counters.credit_spills += 1;
        } else {
            rs.fc[peer as usize].credits -= 1;
            rs.fc[peer as usize].sent += 1;
            eager_send(rs, ctx, req, peer, buf, count, ty, tag, size);
            return req;
        }
    }

    rs.counters.rndv_sends += 1;
    let seq = rs.take_seq(peer);
    let scheme = ctx.cfg.scheme;
    // Generic transfers the whole packed message in one piece (Fig. 1);
    // the segmented schemes use the §7.2 rule.
    let (seg_size, nsegs) = if scheme == Scheme::Generic {
        (size, 1)
    } else {
        (ctx.cfg.segment_size(size), ctx.cfg.segment_count(size))
    };
    let tplan = rs.plan_for(ty, count);
    let stats = tplan.stats();

    let start = CtrlMsg::RndvStart {
        tag,
        seq,
        size,
        scheme: scheme.to_wire(),
        nsegs,
        seg_size,
        blk_min: stats.min,
        blk_median: stats.median,
    };
    send_ctrl_msg(rs, ctx, peer, &start, 0);

    let mut msg = SendMsg {
        req,
        peer,
        seq,
        tag,
        buf,
        count,
        ty: ty.clone(),
        size,
        scheme,
        nsegs,
        seg_size,
        packed_ivs: Intervals::of((0, size)),
        pack_bufs: rs.scratch.take_stage(),
        packed: 0,
        posted_segs: 0,
        pack_chain_running: false,
        contig: stats.min >= size,
        targets: None,
        direct_posted: false,
        marker_posted: false,
        reg_done: false,
        user_regs: Vec::new(),
        completed: false,
        failed: None,
        rerequests: 0,
        mw_stage: false,
        pinned_bytes: 0,
        renegotiated: false,
        drop_packs: 0,
    };
    if ctx.cfg.rndv_reply_timeout_ns > 0 {
        let at = ctx.now() + ctx.cfg.rndv_reply_timeout_ns;
        ctx.cpu_event(at, rs.rank, CpuAct::ReplyTimeout { peer, seq });
    }

    // Early work that overlaps the handshake (§4.3.1, §7.3, §7.4).
    // A single-block (contiguous) send never packs: MVAPICH's standard
    // rendezvous is zero-copy for contiguous messages (§3.1), so the
    // sender registers the user buffer and waits for the receiver's
    // choice.
    if stats.min >= size {
        // Budget failure is deferred: the reply handler retries and
        // degrades per-scheme if pinning is still impossible.
        let _ = sender_register(rs, ctx, &mut msg);
        am.sends.insert((peer, seq), msg);
        return req;
    }
    match scheme {
        // Dynamic whole-message pack buffer (the original path).
        Scheme::Generic => stage_whole(rs, ctx, &mut msg),
        Scheme::BcSpup | Scheme::PRrs => {
            start_packing(rs, ctx, &mut msg);
        }
        Scheme::RwgUp | Scheme::MultiW => {
            let _ = sender_register(rs, ctx, &mut msg);
        }
        Scheme::Hybrid => {
            // Predict the direct part from the sender's own layout
            // (symmetric types are the common case) and register those
            // blocks during the handshake; the reply-time registration
            // tops up any coverage the receiver's partition adds. A
            // budget refusal is settled by that top-up.
            let mut own = rs.scratch.take_blocks();
            abs_blocks_into(&tplan, buf, &mut own);
            own.retain(|&(_, l)| l >= ctx.cfg.hybrid_block_threshold);
            if !own.is_empty() {
                let _ = sender_pin(rs, ctx, &mut msg, &own, 0);
            }
            rs.scratch.put_blocks(own);
        }
        Scheme::Adaptive => {
            // The receiver decides, but the sender predicts from its own
            // block statistics (§6's MPI_Info-style hint) so the early
            // work overlaps the handshake. A wrong guess costs only a
            // cached registration or an unused pool pack.
            let predicted = adaptive_choose(
                ctx.cfg,
                ctx.fabric.class(),
                size,
                stats.min,
                stats.median,
                stats.min,
                stats.median,
            );
            // A zero-copy guess pins the user buffer; when the pinning
            // budget is exhausted, pre-pack instead, which every
            // fallback path can consume.
            let zero_copy = matches!(predicted, Scheme::RwgUp | Scheme::MultiW | Scheme::PRrs);
            if !zero_copy || !sender_register(rs, ctx, &mut msg) {
                start_packing(rs, ctx, &mut msg);
            }
        }
    }
    am.sends.insert((peer, seq), msg);
    req
}

/// Starts a nonblocking receive.
#[allow(clippy::too_many_arguments)]
pub fn irecv(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
) -> ReqId {
    let req = rs.new_req(ReqKind::Recv);
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.cfg.call_overhead_ns, "call");

    match rs.match_unexpected(peer, tag) {
        Some(Unexpected::Eager {
            peer: src, data, ..
        }) => {
            if !data.is_empty() {
                fc_unexpected_removed(rs, ctx);
            }
            fc_on_eager_matched(rs, ctx, src, data.len() as u64);
            eager_deliver(rs, ctx, req, buf, count, ty, &data);
        }
        Some(Unexpected::Rndv {
            peer,
            seq,
            size,
            scheme,
            nsegs,
            seg_size,
            blk_min,
            blk_median,
            ..
        }) => {
            let posted = PostedRecv {
                req,
                peer,
                tag,
                buf,
                count,
                ty: ty.clone(),
            };
            receiver_start(
                rs, am, ctx, posted, seq, size, scheme, nsegs, seg_size, blk_min, blk_median,
            );
        }
        None => {
            rs.posted.push_back(PostedRecv {
                req,
                peer,
                tag,
                buf,
                count,
                ty: ty.clone(),
            });
        }
    }
    req
}

/// Handles a completion queue entry for `rank`.
pub fn on_cqe(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, cqe: Cqe) {
    if !cqe.status.is_ok() {
        on_cqe_error(rs, am, ctx, cqe);
        return;
    }
    if cqe.is_recv {
        // Charge CQE handling.
        rs.cpu.reserve_labeled(ctx.now(), ctx.net.cqe_ns, "cqe");
        match cqe.imm {
            None => {
                // Copy the eager bytes out through a recycled scratch
                // buffer (the ring slot is reposted before dispatch, so
                // the bytes cannot be borrowed in place).
                let va = cqe.wr_id;
                let mut bytes = rs.scratch.take_bytes(cqe.byte_len as usize);
                bytes.copy_from_slice(
                    ctx.mems[rs.rank as usize]
                        .space
                        .slice(va, cqe.byte_len)
                        .expect("eager buffer readable"),
                );
                repost_eager_recv(rs, ctx, cqe.peer, va);
                on_ctrl(rs, am, ctx, cqe.peer, &bytes);
                rs.scratch.put_bytes(bytes);
            }
            Some(imm) => {
                // Segment arrival notification; the consumed descriptor
                // is replaced.
                let va = cqe.wr_id;
                repost_eager_recv(rs, ctx, cqe.peer, va);
                on_segment_arrival(rs, am, ctx, cqe.peer, imm, cqe.byte_len);
            }
        }
    } else {
        match cqe.wr_id & !WR_LOW_MASK {
            WR_EAGER => {
                let va = cqe.wr_id & WR_LOW_MASK;
                rs.eager_send_free.push(va);
                drain_pending_eager(rs, ctx);
            }
            WR_DATA => {
                let seq = cqe.wr_id & WR_LOW_MASK;
                sender_done(rs, am, ctx, cqe.peer, seq, false);
            }
            WR_READ => {
                let seq = cqe.wr_id & WR_LOW_MASK;
                receiver_read_done(rs, am, ctx, cqe.peer, seq);
            }
            WR_RMA => {
                debug_assert!(rs.rma_outstanding > 0);
                rs.rma_outstanding -= 1;
                rs.rma_event = true;
            }
            other => {
                // A WR id outside every known namespace is a protocol
                // bug; surface it as a typed error instead of tearing
                // the whole simulation down.
                debug_assert!(false, "unknown WR id namespace {other:#x}");
                rs.errors.push(MpiError::UnknownMessage {
                    peer: cqe.peer,
                    seq: cqe.wr_id & WR_LOW_MASK,
                });
            }
        }
    }
}

/// Handles a failed completion: recover the resources the dead work
/// request held and fail the owning request with a typed error.
/// Duplicate flush CQEs (many data WRs share one `wr_id`) find the
/// message already gone and fall through silently.
fn on_cqe_error(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, cqe: Cqe) {
    rs.counters.cqe_errors += 1;
    let mut err = MpiError::from_cqe(cqe.peer, cqe.status);
    if cqe.is_recv {
        // A failed receive completion (bad eager length): the
        // descriptor is consumed — record the rank-level error.
        rs.errors.push(err);
        return;
    }
    let peer = cqe.peer;
    let kind = cqe.wr_id & !WR_LOW_MASK;
    let low = cqe.wr_id & WR_LOW_MASK;
    // Transport-class failures (flush, retry exhaustion) hand the
    // affected traffic to the connection manager instead of failing
    // the owning requests; the reconnect event re-drives it.
    if ctx.cfg.recovery && recoverable(&err) && matches!(kind, WR_EAGER | WR_DATA | WR_READ) {
        if ensure_reconnect(rs, ctx, peer) {
            let r = rs.reconn.get_mut(&peer).expect("entry ensured above");
            match kind {
                WR_EAGER => r.eager_slots.push(low),
                WR_DATA => {
                    if am.sends.contains_key(&(peer, low)) {
                        r.sends.insert(low);
                    }
                }
                _ => {
                    if am.recvs.contains_key(&(peer, low)) {
                        r.recvs.insert(low);
                    }
                }
            }
            return;
        }
        err = give_up_error(rs, ctx, peer);
        drain_suspended(rs, am, ctx, peer, err);
    }
    match kind {
        WR_EAGER => {
            rs.eager_send_free.push(low);
            rs.errors.push(err);
            drain_pending_eager(rs, ctx);
        }
        WR_DATA => {
            // §5.4.2: a remote-access error on a zero-copy write means
            // the receiver's registration was evicted under the
            // transfer. Renegotiate the message as BC-SPUP once
            // instead of failing it.
            if matches!(err, MpiError::RemoteAccess { .. }) {
                match am.sends.get(&(peer, low)) {
                    Some(m)
                        if ctx.cfg.recovery
                            && !m.renegotiated
                            && matches!(m.scheme, Scheme::MultiW | Scheme::Hybrid) =>
                    {
                        renegotiate_send(rs, am, ctx, peer, low);
                        return;
                    }
                    Some(m) if m.renegotiated => {
                        err = MpiError::Registration { peer };
                    }
                    _ => {}
                }
            }
            if let Some(msg) = am.sends.remove(&(peer, low)) {
                abort_send(rs, ctx, msg, err);
            }
        }
        WR_READ => {
            abort_recv(rs, am, ctx, peer, low, err);
        }
        WR_RMA => {
            rs.rma_outstanding = rs.rma_outstanding.saturating_sub(1);
            rs.rma_event = true;
            rs.errors.push(err);
        }
        _ => rs.errors.push(err),
    }
}

/// Fails a send whose data can no longer be delivered: releases staging
/// buffers and registrations and completes the request with `err`.
fn abort_send(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, mut msg: SendMsg, err: MpiError) {
    if msg.completed {
        return;
    }
    msg.completed = true;
    sender_release(rs, ctx, &mut msg);
    rs.fail_req(msg.req, err);
}

/// Fails a receive: releases unpack buffers and registrations, drops
/// the immediate-data mapping, and completes the request with `err`.
/// Silently returns when the message is already gone (duplicate flush).
fn abort_recv(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    err: MpiError,
) {
    let Some(mut msg) = am.recvs.remove(&(peer, seq)) else {
        return;
    };
    msg.completed = true;
    am.imm_map.remove(&(peer, (seq & 0xFFFF) as u16));
    receiver_release(rs, ctx, &mut msg);
    rs.fail_req(msg.req, err);
}

/// Handles a host-work completion for `rank`.
pub fn on_cpu(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, act: CpuAct) {
    match act {
        CpuAct::SendDone { req } => rs.complete_req(req),
        CpuAct::RecvDone { req } => rs.complete_req(req),
        CpuAct::PackSeg { peer, seq, k } => {
            let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
                return;
            };
            if msg.drop_packs > 0 {
                // Stale completion from a pack pipeline a renegotiation
                // tore down; the new pipeline runs its own chain.
                msg.drop_packs -= 1;
                am.sends.insert((peer, seq), msg);
                return;
            }
            debug_assert_eq!(msg.packed, k, "pack completions out of order");
            msg.packed = k + 1;
            msg.pack_chain_running = false;
            rs.counters.packs += 1;
            rs.counters.bytes_packed += seg_len(&msg, k);
            if let Some(mut msg) = post_ready(rs, am, ctx, msg) {
                start_pack_chain(rs, ctx, &mut msg);
                am.sends.insert((peer, seq), msg);
            }
        }
        CpuAct::SenderRegDone { peer, seq } => {
            let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
                return;
            };
            msg.reg_done = true;
            if let Some(msg) = post_ready(rs, am, ctx, msg) {
                am.sends.insert((peer, seq), msg);
            }
        }
        CpuAct::ReceiverReady { peer, seq } => {
            let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
                return;
            };
            if let Some(reply) = msg.pending_reply.take() {
                let mut copy = take_ctrl_buf(rs);
                copy.extend_from_slice(&reply);
                msg.reply_copy = Some(copy);
                send_ctrl(rs, ctx, peer, reply, 0);
            }
        }
        CpuAct::ReplyTimeout { peer, seq } => {
            let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
                return;
            };
            if msg.targets.is_some() || msg.completed {
                // The reply arrived in the meantime.
                am.sends.insert((peer, seq), msg);
                return;
            }
            if msg.rerequests >= ctx.cfg.rndv_max_rerequests {
                abort_send(rs, ctx, msg, MpiError::ReplyTimeout { peer, seq });
                return;
            }
            msg.rerequests += 1;
            rs.counters.rndv_rerequests += 1;
            send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvProbe { seq }, 0);
            let at = ctx.now() + ctx.cfg.rndv_reply_timeout_ns;
            ctx.cpu_event(at, rs.rank, CpuAct::ReplyTimeout { peer, seq });
            am.sends.insert((peer, seq), msg);
        }
        CpuAct::UnpackSeg { peer, seq, .. } => {
            let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
                return;
            };
            if msg.drop_unpacks > 0 {
                // Stale completion from before a renegotiation reset
                // the unpack pipeline.
                msg.drop_unpacks -= 1;
                return;
            }
            msg.segs_unpacked += 1;
            rs.counters.unpacks += 1;
            // Hybrid completes only once its marker confirms the direct
            // writes landed too.
            if msg.segs_unpacked == msg.nsegs && (msg.scheme != Scheme::Hybrid || msg.marker_seen) {
                receiver_complete(rs, am, ctx, peer, seq);
            }
        }
        CpuAct::UnpackAll { peer, seq } => {
            let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
                return;
            };
            if msg.drop_unpacks > 0 {
                msg.drop_unpacks -= 1;
                return;
            }
            rs.counters.unpacks += 1;
            msg.segs_unpacked = msg.nsegs;
            receiver_complete(rs, am, ctx, peer, seq);
        }
        CpuAct::Reconnect { peer } => do_reconnect(rs, am, ctx, peer),
    }
}

// ---------------------------------------------------------------------
// Credit-based eager flow control (MVAPICH RDMA channel, cs/0310059)
// ---------------------------------------------------------------------

/// True while the receiver withholds credit grants: the payload-bearing
/// unexpected backlog reached half of `unexpected_cap`, so senders must
/// starve and degrade to rendezvous (whose unexpected entries are
/// header-only) instead of growing the queue further.
fn fc_grants_blocked(rs: &RankState, cfg: &MpiConfig) -> bool {
    cfg.unexpected_cap > 0 && rs.unexpected_eager * 2 >= cfg.unexpected_cap
}

/// Takes an encode buffer, prepending any credits owed to `peer` so
/// they ride piggybacked in front of the message about to be encoded —
/// zero extra wire traffic whenever there is reverse traffic to carry
/// them.
fn take_ctrl_buf_credits(rs: &mut RankState, cfg: &MpiConfig, peer: u32) -> Vec<u8> {
    let mut bytes = take_ctrl_buf(rs);
    if cfg.flow_control && peer != rs.rank && !fc_grants_blocked(rs, cfg) {
        let owed = rs.fc[peer as usize].owed;
        if owed > 0 {
            CtrlMsg::CreditUpdate { credits: owed }.encode_into(&mut bytes);
            rs.fc[peer as usize].owed = 0;
            rs.fc[peer as usize].granted += owed as u64;
            rs.counters.credits_piggybacked += owed as u64;
        }
    }
    bytes
}

/// Accounts a matched eager payload from `peer`. The credit is returned
/// at *match* time (not arrival): piggybacked on the next outgoing
/// message to `peer`, or — when half the peer's credit pool is owed and
/// no reverse traffic has carried it back — via an explicit
/// `CreditUpdate`, so a starved sender is always unblocked eventually.
fn fc_on_eager_matched(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32, size: u64) {
    if !ctx.cfg.flow_control || size == 0 || peer == rs.rank {
        return;
    }
    rs.fc[peer as usize].matched += 1;
    rs.fc[peer as usize].owed += 1;
    if fc_grants_blocked(rs, ctx.cfg) {
        rs.counters.grants_deferred += 1;
        return;
    }
    if rs.fc[peer as usize].owed >= (ctx.cfg.eager_credits / 2).max(1) {
        fc_send_credits(rs, ctx, peer);
    }
}

/// Sends an explicit `CreditUpdate` carrying everything owed to `peer`.
fn fc_send_credits(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32) {
    let owed = rs.fc[peer as usize].owed;
    if owed == 0 {
        return;
    }
    rs.fc[peer as usize].owed = 0;
    rs.fc[peer as usize].granted += owed as u64;
    rs.counters.credit_msgs += 1;
    send_ctrl_msg(rs, ctx, peer, &CtrlMsg::CreditUpdate { credits: owed }, 0);
}

/// A payload-bearing unexpected entry was matched out of the queue:
/// update occupancy, and when the backlog just dropped below the
/// grant-withholding threshold, flush deferred grants to every peer so
/// starved senders resume (degradation is graceful both ways).
fn fc_unexpected_removed(rs: &mut RankState, ctx: &mut Ctx<'_, '_>) {
    let was_blocked = fc_grants_blocked(rs, ctx.cfg);
    debug_assert!(rs.unexpected_eager > 0, "occupancy tracking out of sync");
    rs.unexpected_eager -= 1;
    if was_blocked && !fc_grants_blocked(rs, ctx.cfg) {
        for peer in 0..rs.nprocs {
            if rs.fc[peer as usize].owed > 0 {
                fc_send_credits(rs, ctx, peer);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Device tier: staged bounce-buffer pipeline (DESIGN §16, TEMPI)
// ---------------------------------------------------------------------

/// True when the user buffer at `buf` is device-resident on `rank`.
/// The enabled-flag and empty-map checks keep this a two-branch
/// predicate on the default (all-host) configuration, which is the
/// bit-identity guarantee for the pre-device-tier cost model.
fn buf_on_device(ctx: &Ctx<'_, '_>, rank: u32, buf: Va) -> bool {
    if !ctx.host.device.enabled {
        return false;
    }
    let tiers = &ctx.mems[rank as usize].tiers;
    !tiers.is_empty() && tiers.is_device(buf)
}

/// Extra synchronous DMA charge for an unsegmented path (eager, self,
/// batched unpack) touching a device-resident buffer. The whole packed
/// image crosses the bus in one gather/scatter DMA — cost is modelled
/// on packed bytes, not extent. Returns 0 for host buffers, so adding
/// it is free on the classic paths.
fn device_direct_ns(ctx: &Ctx<'_, '_>, rank: u32, buf: Va, bytes: u64, to_device: bool) -> Time {
    if bytes == 0 || !buf_on_device(ctx, rank, buf) {
        0
    } else {
        ctx.host.dma_ns(bytes, to_device)
    }
}

/// Registration surcharge for pinning device-resident memory (the
/// driver must translate and pin device pages for RDMA; one extra
/// fixed-cost ioctl per registration batch).
fn device_reg_extra(ctx: &Ctx<'_, '_>, rank: u32, buf: Va) -> Time {
    if buf_on_device(ctx, rank, buf) {
        ctx.host.device.reg_extra_ns
    } else {
        0
    }
}

/// Picks the bounce-chunk size for a staged device transfer. An
/// explicit [`MpiConfig::staging_chunk`] wins; otherwise the adaptive
/// model (the §6 selector extended to the host↔device axis) evaluates
/// the closed-form two-stage pipeline over power-of-two chunks from
/// 4 KiB to 4 MiB and takes the argmin, ties to the smaller chunk.
fn staging_chunk_for(
    cfg: &MpiConfig,
    host: &HostConfig,
    bytes: u64,
    blocks: usize,
    to_device: bool,
) -> u64 {
    if cfg.staging_chunk != 0 {
        return cfg.staging_chunk;
    }
    let bufs = cfg.staging_bufs.clamp(1, MAX_PIPELINE_BUFS);
    let mut best_c = 4096u64;
    let mut best_t = Time::MAX;
    let mut c = 4096u64;
    loop {
        let n = bytes.div_ceil(c).max(1);
        let chunk_bytes = |k: u64| (k * c + c).min(bytes) - k * c;
        let cpu = |k: u64| {
            let cb = chunk_bytes(k);
            let cblocks = ((blocks as u64 * cb).div_ceil(bytes)).max(1) as usize;
            host.copy_ns(cblocks, cb)
        };
        let dma = |k: u64| host.dma_ns(chunk_bytes(k), to_device);
        // Unpack stages CPU-scatter before DMA-out; pack DMAs in before
        // CPU-gather. The finish time is symmetric, but keep the order
        // honest for when the stages' costs diverge.
        let t = if to_device {
            two_stage_finish_ns(n, bufs, cpu, dma)
        } else {
            two_stage_finish_ns(n, bufs, dma, cpu)
        };
        if t < best_t {
            best_t = t;
            best_c = c;
        }
        if c >= bytes || c >= (4 << 20) {
            break;
        }
        c <<= 1;
    }
    best_c
}

/// Charges the modelled cost of one pack/unpack of `bytes` packed bytes
/// (spanning `blocks` layout blocks) against the user buffer at `buf`,
/// returning the finish time.
///
/// Host-resident buffers charge the classic element-wise copy on the
/// rank's CPU — bit-identical to the pre-device-tier model. Device
/// buffers stream through a bounded ring of bounce buffers: the CPU
/// packs/unpacks chunk `k` while the DMA engine moves chunk `k-1`
/// (TEMPI's staged pipeline, arXiv:2012.14363). Both stages reserve
/// real serial resources, so the overlap is visible in the trace.
fn charge_copy(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    buf: Va,
    blocks: usize,
    bytes: u64,
    to_device: bool,
    label: &'static str,
) -> Time {
    if bytes == 0 || !buf_on_device(ctx, rs.rank, buf) {
        let cost = ctx.host.copy_ns(blocks.max(1), bytes);
        return rs.cpu.reserve_labeled(ctx.now(), cost, label);
    }
    let chunk = staging_chunk_for(ctx.cfg, ctx.host, bytes, blocks, to_device);
    let bufs = ctx.cfg.staging_bufs.clamp(1, MAX_PIPELINE_BUFS);
    let n = bytes.div_ceil(chunk);
    let now = ctx.now();
    // Ring of bounce-buffer release times: chunk k may not start until
    // chunk k-bufs has fully drained its slot.
    let mut ring = [now; MAX_PIPELINE_BUFS];
    let mut finish = now;
    for k in 0..n {
        let lo = k * chunk;
        let cbytes = (lo + chunk).min(bytes) - lo;
        let cblocks = ((blocks as u64 * cbytes).div_ceil(bytes)).max(1) as usize;
        let cpu_cost = ctx.host.copy_ns(cblocks, cbytes);
        let dma_cost = ctx.host.dma_ns(cbytes, to_device);
        let slot = (k % bufs as u64) as usize;
        let gate = ring[slot];
        finish = if to_device {
            // Unpack: CPU scatters the chunk into a bounce image, DMA
            // pushes it to the device.
            let cpu_done = rs.cpu.reserve_labeled(gate, cpu_cost, label);
            rs.dma.reserve_labeled(cpu_done, dma_cost, "dma")
        } else {
            // Pack: DMA pulls the chunk down, CPU gathers it onward.
            let dma_done = rs.dma.reserve_labeled(gate, dma_cost, "dma");
            rs.cpu.reserve_labeled(dma_done, cpu_cost, label)
        };
        ring[slot] = finish;
    }
    rs.counters.staging_chunks += n;
    finish
}

// ---------------------------------------------------------------------
// Eager path (§7.1)
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn eager_send(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    req: ReqId,
    peer: u32,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
    size: u64,
) {
    rs.counters.eager_sends += 1;
    let seq = rs.take_seq(peer);
    let plan = rs.plan_for(ty, count);
    let mut payload = rs.scratch.take_bytes(size as usize);
    pack_range(ctx, rs.rank, &plan, buf, 0, size, &mut payload);
    let cost = eager_copy_ns(ctx, rs.rank, &plan, buf, false);
    rs.counters.packs += 1;
    rs.counters.bytes_packed += size;

    let mut bytes = take_ctrl_buf_credits(rs, ctx.cfg, peer);
    CtrlMsg::EagerData { tag, seq, size }.encode_into(&mut bytes);
    bytes.extend_from_slice(&payload);
    rs.scratch.put_bytes(payload);
    send_ctrl(rs, ctx, peer, bytes, cost);

    // The send request completes when packing is done (the user buffer
    // is then reusable).
    let done = rs.cpu.available_at();
    ctx.cpu_event(done, rs.rank, CpuAct::SendDone { req });
}

/// Host cost of packing (or, `to_device`, unpacking) a whole eager
/// message at `buf`: the element-wise copy; Generic's original path
/// (Fig. 1) through a temporary buffer plus a copy into or out of the
/// eager buffer; and, for a device-resident buffer, one synchronous DMA
/// (eager messages are too small to stage).
fn eager_copy_ns(
    ctx: &Ctx<'_, '_>,
    rank: u32,
    plan: &TransferPlan,
    buf: Va,
    to_device: bool,
) -> Time {
    let size = plan.total_bytes();
    let (blocks, _) = plan.block_count_in(0, size).expect("range valid");
    let mut cost = ctx.host.copy_ns(blocks.max(1), size);
    if ctx.cfg.scheme == Scheme::Generic {
        cost += ctx.host.malloc_ns + ctx.host.memcpy_ns(size) + ctx.host.free_ns;
    }
    cost + device_direct_ns(ctx, rank, buf, size, to_device)
}

/// Unpacks an eager payload into the user buffer and schedules request
/// completion.
fn eager_deliver(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    req: ReqId,
    buf: Va,
    count: u64,
    ty: &Datatype,
    data: &[u8],
) {
    let plan = rs.plan_for(ty, count);
    let size = plan.total_bytes();
    assert_eq!(data.len() as u64, size, "eager size mismatch");
    unpack_from_slice(ctx, rs.rank, &plan, buf, 0, size, data);
    let cost = eager_copy_ns(ctx, rs.rank, &plan, buf, true);
    rs.counters.unpacks += 1;
    rs.counters.bytes_unpacked += size;
    let done = rs.cpu.reserve_labeled(ctx.now(), cost, "unpack");
    ctx.cpu_event(done, rs.rank, CpuAct::RecvDone { req });
}

fn self_send(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    req: ReqId,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
) {
    let plan = rs.plan_for(ty, count);
    let size = plan.total_bytes();
    // `data` escapes into the unexpected queue, so it cannot come from
    // the scratch pool.
    let data = pack_to_vec(ctx, rs.rank, &plan, buf, 0, size);
    let (blocks, _) = plan.block_count_in(0, size).expect("range valid");
    let cost =
        ctx.host.copy_ns(blocks.max(1), size) + device_direct_ns(ctx, rs.rank, buf, size, false);
    let done = rs.cpu.reserve_labeled(ctx.now(), cost, "pack");
    ctx.cpu_event(done, rs.rank, CpuAct::SendDone { req });

    let seq = rs.take_seq(rs.rank);
    if let Some(p) = rs.match_posted(rs.rank, tag) {
        eager_deliver(rs, ctx, p.req, p.buf, p.count, &p.ty, &data);
    } else {
        let payload_bearing = !data.is_empty();
        rs.unexpected.push_back(Unexpected::Eager {
            peer: rs.rank,
            tag,
            seq,
            data,
        });
        if payload_bearing {
            rs.unexpected_eager += 1;
            rs.counters.peak_unexpected =
                rs.counters.peak_unexpected.max(rs.unexpected_eager as u64);
        }
    }
}

/// Sends a control/eager message, taking a ring buffer or queueing.
/// `extra_cpu_ns` is work (e.g. packing) that precedes the post.
/// Encodes `msg` into a recycled per-rank buffer (no allocation in
/// steady state) and sends it as a control message.
fn send_ctrl_msg(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    msg: &CtrlMsg,
    extra_cpu_ns: Time,
) {
    let mut bytes = take_ctrl_buf_credits(rs, ctx.cfg, peer);
    msg.encode_into(&mut bytes);
    send_ctrl(rs, ctx, peer, bytes, extra_cpu_ns);
}

/// Pops a cleared encode buffer from the rank's free-list.
fn take_ctrl_buf(rs: &mut RankState) -> Vec<u8> {
    // Served from the scratch pool so encode buffers inherit its
    // thread-local spill: a fresh cluster's first control messages
    // reuse capacity retired by the previous one.
    let mut v = rs.scratch.take_bytes(0);
    v.clear();
    v
}

/// Returns an encode buffer whose bytes have been copied out (into a
/// ring slot) for reuse.
fn recycle_ctrl_buf(rs: &mut RankState, buf: Vec<u8>) {
    rs.scratch.put_bytes(buf);
}

fn send_ctrl(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    bytes: Vec<u8>,
    extra_cpu_ns: Time,
) {
    assert!(
        bytes.len() as u64 <= ctx.cfg.eager_buf_size,
        "control message ({} B) exceeds eager buffer",
        bytes.len()
    );
    rs.counters.ctrl_msgs += 1;
    let label = if extra_cpu_ns > 0 { "pack" } else { "ctrl" };
    let cost = extra_cpu_ns + ctx.cfg.ctrl_overhead_ns + ctx.net.post_single_ns;
    let ready = rs.cpu.reserve_labeled(ctx.now(), cost, label);
    match rs.eager_send_free.pop() {
        Some(va) => post_ctrl_slot(rs, ctx, ready, peer, va, bytes),
        None => {
            rs.eager_pending
                .push_back(crate::rank::PendingEager { peer, bytes });
            rs.counters.peak_pending = rs.counters.peak_pending.max(rs.eager_pending.len() as u64);
        }
    }
}

/// Copies the encoded `bytes` into send-ring slot `va` and posts the
/// slot to `peer` at `ready`. A dead QP parks the message with the
/// connection manager, which re-sends it after re-establishment.
///
/// One zero byte — an invalid message kind — follows the message in
/// the slot. Slots are reused without clearing, so a recovery re-post
/// must re-derive the wire length by decoding; with piggybacked credit
/// prefixes the terminator is what makes the end of a slot (in
/// particular a standalone `CreditUpdate`) unambiguous against stale
/// bytes from the slot's previous occupant.
fn post_ctrl_slot(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    ready: Time,
    peer: u32,
    va: Va,
    bytes: Vec<u8>,
) {
    let space = &mut ctx.mems[rs.rank as usize].space;
    space.write(va, &bytes).expect("eager ring buffer writable");
    if (bytes.len() as u64) < ctx.cfg.eager_buf_size {
        space
            .write(va + bytes.len() as u64, &[0])
            .expect("eager ring buffer writable");
    }
    if let Err(e) = post_slot(rs, ctx, ready, peer, va, bytes.len() as u64) {
        rs.eager_send_free.push(va);
        if post_suspends(rs, ctx, peer, e) {
            rs.reconn
                .get_mut(&peer)
                .expect("entry ensured above")
                .pending_ctrl
                .push(bytes);
            return;
        }
        rs.errors.push(MpiError::Post { peer, err: e });
    }
    recycle_ctrl_buf(rs, bytes);
}

/// Posts the first `len` bytes of send-ring slot `va` to `peer`.
fn post_slot(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    ready: Time,
    peer: u32,
    va: Va,
    len: u64,
) -> Result<(), PostError> {
    let wr = SendWr {
        wr_id: WR_EAGER | va,
        opcode: Opcode::Send,
        sges: SgeList::of(Sge {
            addr: va,
            len,
            lkey: rs.eager_lkey,
        }),
        remote: None,
        signaled: true,
    };
    ctx.post_send(ready, rs.rank, peer, wr)
}

fn drain_pending_eager(rs: &mut RankState, ctx: &mut Ctx<'_, '_>) {
    while !rs.eager_pending.is_empty() && !rs.eager_send_free.is_empty() {
        let p = rs.eager_pending.pop_front().expect("checked non-empty");
        let va = rs.eager_send_free.pop().expect("checked non-empty");
        let ready = rs.cpu.reserve_labeled(
            ctx.now(),
            ctx.cfg.ctrl_overhead_ns + ctx.net.post_single_ns,
            "ctrl",
        );
        post_ctrl_slot(rs, ctx, ready, p.peer, va, p.bytes);
    }
}

fn repost_eager_recv(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32, va: Va) {
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.net.post_recv_ns, "post-recv");
    let wr = RecvWr {
        wr_id: va,
        sges: SgeList::of(Sge {
            addr: va,
            len: ctx.cfg.eager_buf_size,
            lkey: rs.eager_lkey,
        }),
    };
    let now = ctx.now();
    ctx.post_recv(now, rs.rank, peer, wr);
    // SRQ-limit-style reaction: the receive ring for this peer dipped to
    // its low watermark before the repost — the receiver is falling
    // behind. Flush any owed credits immediately so the peer learns the
    // true resource state instead of stalling on a piggyback that may
    // never come.
    if ctx.cfg.flow_control
        && ctx.net.recv_low_watermark > 0
        && !fc_grants_blocked(rs, ctx.cfg)
        && ctx.fabric.recvq_len(rs.rank, peer) <= ctx.net.recv_low_watermark
    {
        fc_send_credits(rs, ctx, peer);
    }
}

// ---------------------------------------------------------------------
// Control message dispatch
// ---------------------------------------------------------------------

fn on_ctrl(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    bytes: &[u8],
) {
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.cfg.ctrl_overhead_ns, "ctrl");
    // Piggybacked `CreditUpdate`s precede the carried message in the
    // same buffer; consume that prefix, then dispatch the message.
    let mut off = 0usize;
    loop {
        let Some((msg, hdr_len)) = CtrlMsg::decode(&bytes[off..]) else {
            rs.errors.push(MpiError::MalformedCtrl { peer });
            return;
        };
        off += hdr_len;
        if let CtrlMsg::CreditUpdate { credits } = msg {
            rs.fc[peer as usize].credits += credits;
            rs.fc[peer as usize].received += u64::from(credits);
            if off >= bytes.len() {
                return; // standalone credit message
            }
            continue;
        }
        match msg {
            CtrlMsg::EagerData { tag, seq, size } => {
                let payload = &bytes[off..off + size as usize];
                match rs.match_posted(peer, tag) {
                    Some(p) => {
                        fc_on_eager_matched(rs, ctx, peer, size);
                        eager_deliver(rs, ctx, p.req, p.buf, p.count, &p.ty, payload);
                    }
                    None => {
                        // Copy to a dynamic buffer (charged) and queue.
                        rs.cpu.reserve_labeled(
                            ctx.now(),
                            ctx.host.malloc_ns + ctx.host.memcpy_ns(size),
                            "unexpected",
                        );
                        rs.unexpected.push_back(Unexpected::Eager {
                            peer,
                            tag,
                            seq,
                            data: payload.to_vec(),
                        });
                        if size > 0 {
                            rs.unexpected_eager += 1;
                            rs.counters.peak_unexpected =
                                rs.counters.peak_unexpected.max(rs.unexpected_eager as u64);
                        }
                    }
                }
            }
            CtrlMsg::RndvStart {
                tag,
                seq,
                size,
                scheme,
                nsegs,
                seg_size,
                blk_min,
                blk_median,
            } => {
                if am.recvs.contains_key(&(peer, seq)) {
                    // A duplicate start for a live transfer: a flushed
                    // original was never delivered (flush precludes
                    // delivery), so this is exclusively the sender's
                    // §5.4.2 protection-fault renegotiation.
                    receiver_renegotiate(rs, am, ctx, peer, seq, size, nsegs, seg_size);
                    return;
                }
                match rs.match_posted(peer, tag) {
                    Some(mut p) => {
                        // The posted receive may carry wildcards; the protocol
                        // needs the concrete source.
                        p.peer = peer;
                        p.tag = tag;
                        receiver_start(
                            rs, am, ctx, p, seq, size, scheme, nsegs, seg_size, blk_min, blk_median,
                        );
                    }
                    None => rs.unexpected.push_back(Unexpected::Rndv {
                        peer,
                        tag,
                        seq,
                        size,
                        scheme,
                        nsegs,
                        seg_size,
                        blk_min,
                        blk_median,
                    }),
                }
            }
            CtrlMsg::RndvReply { seq, scheme, body } => {
                sender_on_reply(rs, am, ctx, peer, seq, scheme, body);
            }
            CtrlMsg::SegReady {
                seq,
                k,
                addr,
                rkey,
                len,
            } => {
                receiver_on_seg_ready(rs, am, ctx, peer, seq, k, addr, rkey, len);
            }
            CtrlMsg::Fin { seq } => {
                sender_done(rs, am, ctx, peer, seq, true);
            }
            CtrlMsg::RndvProbe { seq } => {
                // The sender suspects its RndvStart or our reply was lost.
                // Resend the reply if it already went out; otherwise it is
                // still pending and will go out on its own.
                let resend = am.recvs.get(&(peer, seq)).and_then(|m| {
                    if m.pending_reply.is_none() {
                        m.reply_copy.clone()
                    } else {
                        None
                    }
                });
                if let Some(r) = resend {
                    send_ctrl(rs, ctx, peer, r, 0);
                }
            }
            CtrlMsg::RndvResume { seq } => {
                on_resume_request(rs, am, ctx, peer, seq);
            }
            CtrlMsg::RndvResumeAck { seq, from_k, done } => {
                on_resume_ack(rs, am, ctx, peer, seq, from_k, done);
            }
            CtrlMsg::CreditUpdate { .. } => unreachable!("consumed by the prefix loop"),
        }
        return;
    }
}

/// A recovering peer asks where to restart transfer `seq`. Answered
/// from the receiver's acknowledged-prefix state; for P-RRS the local
/// *sender* re-announces its packed segments instead.
fn on_resume_request(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    if let Some(msg) = am.recvs.get(&(peer, seq)) {
        // Per-QP FIFO delivery plus flush-kills-the-suffix means the
        // arrived count is exactly the delivered contiguous prefix for
        // the segment-ordered schemes; Multi-W/Hybrid restart from the
        // beginning (their writes are idempotent and the completion
        // marker is posted last).
        let from_k = match msg.scheme {
            Scheme::BcSpup | Scheme::RwgUp => msg.segs_arrived,
            _ => 0,
        };
        let ack = CtrlMsg::RndvResumeAck {
            seq,
            from_k,
            done: false,
        };
        send_ctrl_msg(rs, ctx, peer, &ack, 0);
        return;
    }
    if rs.done_seqs.contains(&(peer, seq)) {
        let ack = CtrlMsg::RndvResumeAck {
            seq,
            from_k: 0,
            done: true,
        };
        send_ctrl_msg(rs, ctx, peer, &ack, 0);
        return;
    }
    if am.sends.contains_key(&(peer, seq)) {
        // P-RRS: the recovering receiver drives the reads.
        reannounce(rs, am, ctx, peer, seq);
        return;
    }
    if !ctx.fabric.faults_active() {
        rs.errors.push(MpiError::UnknownMessage { peer, seq });
    }
}

/// The peer answered our resume request: skip the acknowledged prefix
/// and re-drive the rest (or finish outright when the transfer had
/// already completed remotely).
fn on_resume_ack(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    from_k: u32,
    done: bool,
) {
    let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
        return;
    };
    if done {
        // Everything (including the receiver-side completion) landed
        // before the failure; only our completion CQE was lost.
        sender_complete(rs, ctx, msg);
        return;
    }
    rs.counters.resumed_chunks += from_k as u64;
    msg.posted_segs = from_k.min(msg.nsegs);
    if msg.posted_segs >= msg.nsegs && matches!(msg.scheme, Scheme::BcSpup | Scheme::RwgUp) {
        // Every segment already reached the receiver; only the final
        // (signaled) completion was lost to the flush. The sender's
        // data duty is done.
        sender_complete(rs, ctx, msg);
        return;
    }
    // Hybrid restarts whole phases: direct writes and the marker are
    // idempotent.
    msg.direct_posted = false;
    msg.marker_posted = false;
    if let Some(mut msg) = post_ready(rs, am, ctx, msg) {
        // Restart staging (a no-op for schemes without pack buffers).
        start_pack_chain(rs, ctx, &mut msg);
        am.sends.insert((peer, seq), msg);
    }
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------

/// Adaptive scheme choice (§6), run on the receiver where both sides'
/// block statistics are known.
pub fn adaptive_choose(
    cfg: &MpiConfig,
    transport: TransportClass,
    size: u64,
    snd_min: u64,
    snd_median: u64,
    rcv_min: u64,
    rcv_median: u64,
) -> Scheme {
    let _ = (snd_min, rcv_min);
    match transport {
        TransportClass::Ib => {
            if size < cfg.adaptive_copy_reduced_min {
                return Scheme::BcSpup;
            }
            if snd_median >= cfg.adaptive_multiw_block && rcv_median >= cfg.adaptive_multiw_block {
                return Scheme::MultiW;
            }
            // Asymmetric cases (§5.2): a contiguous sender favours
            // receiver-driven reads; a contiguous receiver favours
            // gather writes.
            if snd_median >= size {
                return Scheme::PRrs;
            }
            if rcv_median >= size {
                return Scheme::RwgUp;
            }
            if rcv_median >= cfg.adaptive_multiw_block {
                // Large receiver blocks: unpack is cheap, gather write
                // wins.
                return Scheme::RwgUp;
            }
            Scheme::BcSpup
        }
        TransportClass::ShmDouble => {
            // Every byte bounces through the shared segment twice no
            // matter the scheme: the zero-copy schemes' registration
            // avoidance buys nothing, while BC-SPUP's packed pipeline
            // feeds the segment slots perfectly.
            Scheme::BcSpup
        }
        TransportClass::ShmSingle => {
            // Direct cross-process copies exist, but every work
            // request pays a syscall setup — per-block schemes need
            // much larger blocks than on IB to amortize it.
            if size < cfg.adaptive_copy_reduced_min {
                return Scheme::BcSpup;
            }
            let blk = cfg.adaptive_shm_multiw_block;
            if snd_median >= blk && rcv_median >= blk {
                return Scheme::MultiW;
            }
            if snd_median >= size {
                return Scheme::PRrs;
            }
            if rcv_median >= size {
                return Scheme::RwgUp;
            }
            Scheme::BcSpup
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn receiver_start(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    p: PostedRecv,
    seq: u64,
    size: u64,
    scheme_wire: u8,
    nsegs: u32,
    seg_size: u64,
    blk_min: u64,
    blk_median: u64,
) {
    let Some(proposal) = Scheme::from_wire(scheme_wire) else {
        rs.fail_req(p.req, MpiError::MalformedCtrl { peer: p.peer });
        return;
    };
    let rstats = rs.plan_for(&p.ty, p.count).stats();
    // Contiguous on both sides: the standard zero-copy rendezvous
    // (§3.1) — one RDMA write from user buffer to user buffer,
    // regardless of the configured datatype scheme. Multi-W with a
    // single block is exactly that path.
    let both_contiguous = size > 0 && blk_min >= size && rstats.min >= size;
    let mut scheme = if both_contiguous {
        Scheme::MultiW
    } else {
        match proposal {
            Scheme::Adaptive => adaptive_choose(
                ctx.cfg,
                ctx.fabric.class(),
                size,
                blk_min,
                blk_median,
                rstats.min,
                rstats.median,
            ),
            s => s,
        }
    };
    assert_eq!(
        p.count * p.ty.size(),
        size,
        "type signature mismatch between send and receive"
    );

    let mut msg = RecvMsg {
        req: p.req,
        peer: p.peer,
        seq,
        buf: p.buf,
        count: p.count,
        ty: p.ty,
        size,
        scheme,
        nsegs,
        seg_size,
        unpack_bufs: rs.scratch.take_stage(),
        segs_arrived: 0,
        segs_unpacked: 0,
        user_regs: Vec::new(),
        pending_reply: None,
        reads_outstanding: 0,
        segs_announced: 0,
        packed_ivs: Intervals::of((0, size)),
        marker_seen: false,
        completed: false,
        pinned_bytes: 0,
        reply_copy: None,
        segs_seen: rs.scratch.take_set(),
        drop_unpacks: 0,
    };
    am.imm_map.insert((p.peer, (seq & 0xFFFF) as u16), seq);

    // The zero-copy replies need the user buffer pinned: Multi-W and
    // Hybrid register the blocks they receive directly (their reply may
    // also outgrow an eager buffer — a "complicated datatype" per §5.3),
    // P-RRS the whole buffer for scattered reads.
    let zero_copy = match scheme {
        Scheme::MultiW | Scheme::Hybrid => build_layout_reply(rs, ctx, &mut msg).map(|reply| {
            let (cost, label) = if scheme == Scheme::MultiW {
                // Guaranteed by build_layout_reply's 2× budget check.
                (receiver_reg_cost(rs, ctx, &mut msg).unwrap_or(0), "reg")
            } else {
                (ctx.cfg.ctrl_overhead_ns, "ctrl")
            };
            maybe_evict_reply_reg(rs, ctx, &msg);
            (reply, cost, label)
        }),
        Scheme::PRrs => receiver_reg_cost(rs, ctx, &mut msg).map(|cost| {
            let reply = encode_reply(rs, seq, scheme, ReplyBody::ReadGo);
            (reply, cost, "reg")
        }),
        _ => None,
    };
    let (reply, cost, label) = match zero_copy {
        Some(prepared) => prepared,
        None => {
            if matches!(scheme, Scheme::MultiW | Scheme::Hybrid | Scheme::PRrs) {
                // Degrade to the copy-based BC-SPUP path (§4.3.3
                // graceful fallback).
                rs.counters.scheme_fallbacks += 1;
                scheme = Scheme::BcSpup;
                msg.scheme = scheme;
            }
            let body = match scheme {
                Scheme::Generic => {
                    // One dynamic unpack buffer for the whole message.
                    let sb = acquire_stage(rs, ctx, size);
                    msg.unpack_bufs.push(sb);
                    ReplyBody::Buffer {
                        addr: sb.va,
                        rkey: sb.rkey,
                    }
                }
                Scheme::BcSpup | Scheme::RwgUp => ReplyBody::Segments {
                    segs: assign_unpack_bufs(rs, ctx, &mut msg),
                },
                Scheme::MultiW | Scheme::Hybrid | Scheme::PRrs | Scheme::Adaptive => {
                    unreachable!("resolved above")
                }
            };
            let reply = encode_reply(rs, seq, scheme, body);
            (reply, ctx.cfg.ctrl_overhead_ns, "ctrl")
        }
    };
    queue_reply(rs, ctx, &mut msg, reply, cost, label);
    am.recvs.insert((msg.peer, seq), msg);
}

/// Encodes a rendezvous reply into a recycled control buffer.
fn encode_reply(rs: &mut RankState, seq: u64, scheme: Scheme, body: ReplyBody) -> Vec<u8> {
    let mut buf = take_ctrl_buf(rs);
    CtrlMsg::RndvReply {
        seq,
        scheme: scheme.to_wire(),
        body,
    }
    .encode_into(&mut buf);
    buf
}

/// Queues the encoded `reply` and schedules [`CpuAct::ReceiverReady`]
/// once `cost` ns of preparation (labelled `label`) ran on the CPU.
fn queue_reply(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut RecvMsg,
    reply: Vec<u8>,
    cost: Time,
    label: &'static str,
) {
    msg.pending_reply = Some(reply);
    let done = rs.cpu.reserve_labeled(ctx.now(), cost, label);
    ctx.cpu_event(
        done,
        rs.rank,
        CpuAct::ReceiverReady {
            peer: msg.peer,
            seq: msg.seq,
        },
    );
}

/// Acquires one unpack buffer per segment, returning their targets.
fn assign_unpack_bufs(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut RecvMsg) -> SegList {
    let mut segs = SegList::new();
    for _ in 0..msg.nsegs {
        let sb = acquire_pool_seg(rs, ctx, true);
        segs.push((sb.va, sb.rkey));
        msg.unpack_bufs.push(sb);
    }
    segs
}

/// Pins `regions` (OGR-planned user-buffer regions) through the
/// pin-down cache, charging their bytes against `reg_budget_bytes`.
/// Returns the host cost, or `None` when the budget would be exceeded —
/// in which case nothing is acquired and the caller falls back to a
/// copy-based path.
fn try_acquire_user_regs(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    regions: &[(Va, u64)],
    regs_out: &mut Vec<Registration>,
    pinned_out: &mut u64,
) -> Option<Time> {
    let need: u64 = regions.iter().map(|&(_, l)| l).sum();
    if rs.pinned_user_bytes.saturating_add(need) > ctx.cfg.reg_budget_bytes {
        return None;
    }
    rs.pinned_user_bytes += need;
    *pinned_out += need;
    let mut cost = 0;
    for &(a, l) in regions {
        let acq = rs
            .pindown
            .acquire(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, a, l);
        cost += acq.cost_ns;
        regs_out.push(acq.reg);
    }
    Some(cost)
}

/// Registers the receiver's user buffer via OGR + pin-down cache;
/// returns the host cost, or `None` when the pinning budget is
/// exhausted.
fn receiver_reg_cost(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut RecvMsg) -> Option<Time> {
    let plan = rs.plan_for(&msg.ty, msg.count);
    let mut blocks = rs.scratch.take_blocks();
    abs_blocks_into(&plan, msg.buf, &mut blocks);
    let regions = ogr::plan(&blocks, &ctx.host.reg).regions;
    rs.scratch.put_blocks(blocks);
    let cost = try_acquire_user_regs(rs, ctx, &regions, &mut msg.user_regs, &mut msg.pinned_bytes);
    cost.map(|c| c + device_reg_extra(ctx, rs.rank, msg.buf))
}

/// Segment size of Hybrid's packed part (1 when nothing is packed).
fn packed_seg_size(cfg: &MpiConfig, packed_bytes: u64) -> u64 {
    if packed_bytes == 0 {
        1
    } else {
        cfg.segment_size(packed_bytes).min(cfg.max_seg_size)
    }
}

/// Builds the Multi-W or Hybrid reply (per `msg.scheme`): offers the
/// receiver layout unless this peer already caches it, probes the
/// encoded size with placeholder keys, then pins the directly written
/// blocks and fills in the real keys. Multi-W writes every block
/// directly; Hybrid only those of at least `hybrid_block_threshold`
/// bytes, and packs the rest into unpack segments, recording the
/// partition on `msg`. Returns `None` — having acquired nothing — when
/// the reply cannot fit an eager buffer or the pinning budget refuses.
fn build_layout_reply(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut RecvMsg,
) -> Option<Vec<u8>> {
    let hybrid = msg.scheme == Scheme::Hybrid;
    let threshold = ctx.cfg.hybrid_block_threshold;
    let tplan = rs.plan_for(&msg.ty, msg.count);
    let mut blocks = rs.scratch.take_blocks();
    abs_blocks_into(&tplan, msg.buf, &mut blocks);
    let part = hybrid.then(|| {
        let mut lens = rs.scratch.take_lens();
        lens.extend(blocks.iter().map(|&(_, l)| l));
        let part = hybrid_partition(&lens, threshold);
        rs.scratch.put_lens(lens);
        blocks.retain(|&(_, l)| l >= threshold);
        part
    });
    let plan = ogr::plan(&blocks, &ctx.host.reg);
    rs.scratch.put_blocks(blocks);
    // Multi-W's caller re-acquires the same regions through
    // receiver_reg_cost (the pin-down cache refcounts the duplicate and
    // the budget is charged twice), so it needs twice the headroom.
    let need: u64 = plan.regions.iter().map(|&(_, l)| l).sum();
    let headroom = if hybrid { need } else { need.saturating_mul(2) };
    if rs.pinned_user_bytes.saturating_add(headroom) > ctx.cfg.reg_budget_bytes {
        return None;
    }
    let seg_size = part
        .as_ref()
        .map_or(1, |p| packed_seg_size(ctx.cfg, p.packed_bytes));
    let nsegs = part
        .as_ref()
        .map_or(0, |p| p.packed_bytes.div_ceil(seg_size) as u32);

    let tag = rs.registry.register(&msg.ty);
    let key = (msg.peer, tag.index, tag.version);
    let layout = (!rs.sent_layouts.contains(&key)).then(|| msg.ty.flat().as_ref().clone());
    let (seq, base, count, scheme) = (msg.seq, msg.buf, msg.count, msg.scheme);
    let encode = move |layout, regions, segs| {
        let body = if hybrid {
            ReplyBody::Hybrid {
                base,
                tag,
                count,
                layout,
                regions,
                segs,
                threshold,
            }
        } else {
            ReplyBody::MultiW {
                base,
                tag,
                count,
                layout,
                regions,
            }
        };
        CtrlMsg::RndvReply {
            seq,
            scheme: scheme.to_wire(),
            body,
        }
        .encode()
    };
    let mut regions: Vec<Region> = plan.regions.iter().map(|&(a, l)| (a, l, 0)).collect();
    let probe = encode(
        layout.clone(),
        regions.clone(),
        (0..nsegs).map(|_| (0, 0)).collect(),
    );
    if probe.len() as u64 > ctx.cfg.eager_buf_size {
        return None;
    }
    if layout.is_some() {
        rs.sent_layouts.insert(key);
    }
    // Commit: pin the regions (the budget was checked above) and fill
    // in the real rkeys, then acquire the unpack segments.
    let first = msg.user_regs.len();
    let cost = try_acquire_user_regs(
        rs,
        ctx,
        &plan.regions,
        &mut msg.user_regs,
        &mut msg.pinned_bytes,
    )
    .expect("budget checked above");
    for (r, reg) in regions.iter_mut().zip(&msg.user_regs[first..]) {
        r.2 = reg.rkey;
    }
    rs.cpu.reserve_labeled(ctx.now(), cost, "reg");
    let segs = match part {
        Some(part) => {
            msg.nsegs = nsegs;
            msg.seg_size = seg_size;
            msg.packed_ivs = part.packed.into();
            assign_unpack_bufs(rs, ctx, msg)
        }
        None => SegList::new(),
    };
    Some(encode(layout, regions, segs))
}

/// A data segment (or whole message) arrived, announced by immediate
/// data.
fn on_segment_arrival(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    imm: u32,
    _byte_len: u64,
) {
    let (seq16, k) = imm_parse(imm);
    let Some(&seq) = am.imm_map.get(&(peer, seq16)) else {
        // Stale duplicate after the message was aborted or completed.
        // Under fault injection a recovery re-drive can legitimately
        // repeat traffic; only protocol-clean runs treat it as an error.
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage {
                peer,
                seq: seq16 as u64,
            });
        }
        return;
    };
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    if k != MARKER_K && !msg.segs_seen.insert(k) {
        // A resumed sender repeated a segment that already landed
        // (idempotent RDMA write): count it once.
        return;
    }
    msg.segs_arrived += 1;
    match msg.scheme {
        Scheme::Hybrid if k == MARKER_K => {
            // The marker is posted last on the QP: the direct writes
            // landed; complete once the packed part is unpacked too.
            msg.marker_seen = true;
            if msg.segs_unpacked == msg.nsegs {
                receiver_complete(rs, am, ctx, peer, seq);
            }
        }
        // Generic's whole message is its one segment.
        Scheme::Generic | Scheme::BcSpup | Scheme::RwgUp | Scheme::Hybrid => {
            if ctx.cfg.segment_unpack || msg.scheme != Scheme::RwgUp {
                unpack_segment(rs, ctx, msg, k);
            } else if msg.segs_arrived == msg.nsegs {
                // Fig. 12 ablation: unpack everything only after the
                // last segment arrived. Costs stay a per-segment
                // `copy_ns` sum — ceil rounding makes that differ from
                // one whole-message charge, and the figure measures it.
                let mut total_cost = 0;
                for kk in 0..msg.nsegs {
                    let (blocks, len) = unpack_segment_do(rs, ctx, msg, kk);
                    total_cost += ctx.host.copy_ns(blocks.max(1), len);
                }
                // Device destination: the batched image crosses in one
                // scatter-DMA (nothing left to overlap with).
                total_cost += device_direct_ns(ctx, rs.rank, msg.buf, msg.size, true);
                rs.counters.bytes_unpacked += msg.size;
                let done = rs.cpu.reserve_labeled(ctx.now(), total_cost, "unpack");
                ctx.cpu_event(done, rs.rank, CpuAct::UnpackAll { peer, seq });
            }
        }
        Scheme::MultiW => {
            // Zero-copy: data is already in place; the immediate on the
            // last write is the completion notification.
            receiver_complete(rs, am, ctx, peer, seq);
        }
        Scheme::PRrs | Scheme::Adaptive => {
            // No write-path segments exist for these schemes; a stray
            // arrival is a stale duplicate or protocol corruption.
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
    }
}

/// Unpacks segment `k` (functional now) and schedules the completion.
fn unpack_segment(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut RecvMsg, k: u32) {
    let (blocks, len) = unpack_segment_do(rs, ctx, msg, k);
    rs.counters.bytes_unpacked += len;
    let buf = msg.buf;
    let done = charge_copy(rs, ctx, buf, blocks, len, true, "unpack");
    ctx.cpu_event(
        done,
        rs.rank,
        CpuAct::UnpackSeg {
            peer: msg.peer,
            seq: msg.seq,
            k,
        },
    );
}

/// Performs the functional unpack of segment `k` into the stream
/// intervals it carries, returning the block and byte counts the
/// caller charges costs on (segment-at-a-time paths route through
/// [`charge_copy`]; the Fig. 12 batch ablation sums per-segment
/// `copy_ns` itself so its ceil-rounded total is unchanged).
fn unpack_segment_do(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut RecvMsg,
    k: u32,
) -> (usize, u64) {
    let rank = rs.rank;
    let plan = rs.plan_for(&msg.ty, msg.count);
    let lo = k as u64 * msg.seg_size;
    let hi = (lo + msg.seg_size).min(ivs_bytes(&msg.packed_ivs));
    let mut data = rs.scratch.take_bytes((hi - lo) as usize);
    data.copy_from_slice(
        ctx.mems[rank as usize]
            .space
            .slice(msg.unpack_bufs[k as usize].va, hi - lo)
            .expect("unpack buffer readable"),
    );
    let (mut cursor, mut blocks) = (0usize, 0usize);
    for_each_substream_piece(msg.packed_ivs.iter().copied(), lo, hi, |a, b| {
        let n = (b - a) as usize;
        let piece = &data[cursor..cursor + n];
        unpack_from_slice(ctx, rank, &plan, msg.buf, a, b, piece);
        cursor += n;
        blocks += plan.block_count_in(a, b).expect("range valid").0;
    });
    rs.scratch.put_bytes(data);
    (blocks, hi - lo)
}

fn receiver_complete(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(mut msg) = am.recvs.remove(&(peer, seq)) else {
        return;
    };
    if msg.completed {
        return;
    }
    msg.completed = true;
    am.imm_map.remove(&(peer, (seq & 0xFFFF) as u16));
    // Remember completion so a recovering sender's resume request can
    // be answered with `done` instead of a renegotiation.
    rs.done_seqs.insert((peer, seq));
    receiver_release(rs, ctx, &mut msg);
    if msg.scheme == Scheme::PRrs {
        // Tell the sender its pack buffers are free.
        send_ctrl_msg(rs, ctx, peer, &CtrlMsg::Fin { seq }, 0);
    }
    rs.complete_req(msg.req);
}

/// Releases a receive message's staging buffers, user registrations,
/// and budget charge (shared by completion and abort).
fn receiver_release(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut RecvMsg) {
    release_stage_bufs(rs, ctx, &mut msg.unpack_bufs, true);
    if let Some(v) = msg.pending_reply.take() {
        rs.scratch.put_bytes(v);
    }
    if let Some(v) = msg.reply_copy.take() {
        rs.scratch.put_bytes(v);
    }
    rs.scratch.put_set(std::mem::take(&mut msg.segs_seen));
    release_user_regs(rs, ctx, &mut msg.user_regs, &mut msg.pinned_bytes);
}

/// Releases a message's user-buffer registrations and returns their
/// budget charge (shared by both sides' completion and abort).
fn release_user_regs(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    regs: &mut Vec<Registration>,
    pinned: &mut u64,
) {
    let mut cost = 0;
    for r in regs.drain(..) {
        // A `BadKey` means the pin-down cache force-evicted the region
        // under the transfer (§5.4.2) — already deregistered.
        if let Ok(c) =
            rs.pindown
                .release(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, r.lkey)
        {
            cost += c;
        }
    }
    if cost > 0 {
        rs.cpu.reserve_labeled(ctx.now(), cost, "dereg");
    }
    rs.pinned_user_bytes = rs.pinned_user_bytes.saturating_sub(*pinned);
    *pinned = 0;
}

/// P-RRS: a packed segment is available on the sender; issue reads.
#[allow(clippy::too_many_arguments)]
fn receiver_on_seg_ready(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    k: u32,
    addr: Va,
    rkey: u32,
    len: u64,
) {
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    if !msg.segs_seen.insert(k) {
        // Duplicate announcement from a recovery re-drive (the reset
        // below re-counts distinct segments only).
        return;
    }
    msg.segs_announced += 1;
    let lo = k as u64 * msg.seg_size;
    let plan = rs.plan_for(&msg.ty, msg.count);
    let mut wrs = Vec::new();
    // Read-Scatter: each read lands in up to `max_sge` user blocks.
    let regs = &msg.user_regs;
    for_each_gather(
        ctx.net,
        &plan,
        msg.buf,
        regs,
        (lo, lo + len),
        |sges, at, _| {
            wrs.push(SendWr {
                wr_id: WR_READ | seq,
                opcode: Opcode::RdmaRead,
                sges,
                remote: Some((addr + at, rkey)),
                signaled: true,
            })
        },
    );
    let n = wrs.len();
    msg.reads_outstanding += n as u32;
    rs.counters.data_wrs += n as u64;
    let posted = wrs.into_iter().try_for_each(|wr| {
        let ready = rs
            .cpu
            .reserve_labeled(ctx.now(), ctx.net.post_single_ns, "post");
        ctx.post_send(ready, rs.rank, peer, wr)
    });
    if let Err(e) = posted {
        // A dead QP hands the read-driven transfer to the connection
        // manager instead of failing the receive.
        if post_suspends(rs, ctx, peer, e) {
            rs.reconn
                .get_mut(&peer)
                .expect("entry ensured above")
                .recvs
                .insert(seq);
            return;
        }
        abort_recv(rs, am, ctx, peer, seq, MpiError::Post { peer, err: e });
    }
}

fn receiver_read_done(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        return;
    };
    // Saturating: a recovery reset may have zeroed the counter while a
    // straggling completion was already in flight.
    msg.reads_outstanding = msg.reads_outstanding.saturating_sub(1);
    if msg.reads_outstanding == 0 && msg.segs_announced == msg.nsegs {
        receiver_complete(rs, am, ctx, peer, seq);
    }
}

// ---------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------

fn sender_on_reply(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    scheme_wire: u8,
    mut body: ReplyBody,
) {
    let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
        // The send was aborted earlier (flush/timeout) or already
        // completed; the reply is a stale straggler.
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    if msg.targets.is_some() {
        // Duplicate reply: a probe-triggered resend raced the original.
        am.sends.insert((peer, seq), msg);
        return;
    }
    let Some(reply_scheme) = Scheme::from_wire(scheme_wire) else {
        rs.errors.push(MpiError::MalformedCtrl { peer });
        am.sends.insert((peer, seq), msg);
        return;
    };
    // Multi-W and Hybrid replies name the receiver's layout — shipped
    // with the reply or cached from an earlier one. Resolve it once into
    // absolute receiver blocks.
    let rcv_blocks: Vec<(Va, u64)> = match &mut body {
        ReplyBody::MultiW {
            base,
            tag,
            count,
            layout,
            ..
        }
        | ReplyBody::Hybrid {
            base,
            tag,
            count,
            layout,
            ..
        } => {
            let layout: Arc<FlatLayout> = match layout.take() {
                Some(l) => {
                    let l = Arc::new(l);
                    rs.layout_cache.insert(peer, *tag, l.clone());
                    l
                }
                None => match rs.layout_cache.lookup(peer, *tag) {
                    Some(l) => l,
                    None => {
                        // The promised cached layout is gone — the
                        // reply cannot be acted on.
                        rs.errors.push(MpiError::MalformedCtrl { peer });
                        am.sends.insert((peer, seq), msg);
                        return;
                    }
                },
            };
            layout
                .repeat(*count)
                .into_iter()
                .map(|(o, l)| ((*base as i64 + o) as u64, l))
                .collect()
        }
        _ => Vec::new(),
    };
    msg.scheme = reply_scheme;
    let targets = match body {
        ReplyBody::Buffer { addr, rkey } => SendTargets::Buffer { addr, rkey },
        ReplyBody::Segments { segs } => SendTargets::Segments(segs),
        ReplyBody::ReadGo => SendTargets::ReadGo,
        ReplyBody::MultiW { regions, .. } => SendTargets::MultiW {
            rcv_blocks,
            regions,
        },
        ReplyBody::Hybrid {
            regions,
            segs,
            threshold,
            ..
        } => {
            // Both sides derive the same partition from the receiver's
            // block lengths; each direct interval is one large receiver
            // block, in order.
            let mut lens = rs.scratch.take_lens();
            lens.extend(rcv_blocks.iter().map(|&(_, l)| l));
            let part = hybrid_partition(&lens, threshold);
            rs.scratch.put_lens(lens);
            let direct = part
                .direct
                .iter()
                .zip(rcv_blocks.iter().filter(|&&(_, l)| l >= threshold))
                .map(|(&(lo, hi), &(dst, _))| (lo, hi, dst))
                .collect();
            msg.nsegs = segs.len() as u32;
            msg.seg_size = packed_seg_size(ctx.cfg, part.packed_bytes);
            msg.packed_ivs = part.packed.into();
            SendTargets::Hybrid {
                segs,
                direct,
                regions,
            }
        }
    };
    msg.targets = Some(targets);

    // Where the reply wants the user buffer pinned and the budget
    // refuses, degrade to a copy path on this side only (§4.3.3).
    let wants_pin = match msg.scheme {
        Scheme::RwgUp | Scheme::MultiW => true,
        Scheme::PRrs => msg.contig,
        _ => false,
    };
    if wants_pin && !msg.reg_done && msg.user_regs.is_empty() && !sender_register(rs, ctx, &mut msg)
    {
        rs.counters.scheme_fallbacks += 1;
        match msg.scheme {
            // The receiver's blocks are already pinned on its side:
            // stage the whole message and stream it into those blocks.
            Scheme::MultiW => (msg.mw_stage, msg.reg_done) = (true, true),
            // Packed writes into the same segment targets.
            Scheme::RwgUp => msg.scheme = Scheme::BcSpup,
            // Announce packed pool segments, like a non-contiguous sender.
            _ => msg.contig = false,
        }
    }
    // Ensure the early work matching the *reply's* scheme is running —
    // the receiver may have picked differently (adaptive decision,
    // Multi-W fallback, or the zero-copy contiguous path).
    match msg.scheme {
        Scheme::Generic if msg.pack_bufs.is_empty() => stage_whole(rs, ctx, &mut msg),
        Scheme::MultiW if msg.mw_stage && msg.pack_bufs.is_empty() => {
            stage_whole(rs, ctx, &mut msg)
        }
        // A contiguous P-RRS sender never packs: the receiver reads
        // straight out of the registered user buffer (§5.2's
        // asymmetric case, where P-RRS shines).
        Scheme::PRrs if msg.contig => {}
        // Segmentation is unchanged — nsegs/seg_size were in the start
        // message and the receiver echoes them.
        Scheme::BcSpup | Scheme::PRrs if msg.pack_bufs.is_empty() => {
            start_packing(rs, ctx, &mut msg)
        }
        Scheme::Hybrid => top_up_direct_regs(rs, ctx, &mut msg),
        Scheme::Adaptive => unreachable!("reply always carries a concrete scheme"),
        _ => {}
    }

    if let Some(msg) = post_ready(rs, am, ctx, msg) {
        am.sends.insert((peer, seq), msg);
    }
}

/// Tops the isend-time Hybrid registration up to exactly the sender
/// blocks feeding the receiver's direct part (the packed part travels
/// through pool buffers and needs none). Sets `reg_done` synchronously
/// when nothing needs pinning; when the budget refuses, the direct part
/// is staged through a copy buffer instead (Multi-W's degraded mode).
fn top_up_direct_regs(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    let (direct, _) = direct_part(msg);
    let tplan = rs.plan_for(&msg.ty, msg.count);
    let mbuf = msg.buf;
    let mut blocks = rs.scratch.take_blocks();
    for &(lo, hi, _) in direct {
        tplan
            .for_each_block(lo, hi, |off, l| {
                blocks.push(((mbuf as i64 + off) as u64, l));
            })
            .expect("range valid");
    }
    // Drop blocks already covered by registrations acquired earlier
    // (the prediction, or the contiguous-sender fast path).
    blocks.retain(|&(a, l)| !msg.user_regs.iter().any(|r| r.covers(a, l)));
    if blocks.is_empty() {
        // Posting may proceed as soon as any in-flight registration
        // completes.
        if msg.user_regs.is_empty() {
            msg.reg_done = true;
        }
    } else {
        msg.reg_done = false;
        if !sender_pin(rs, ctx, msg, &blocks, 0) {
            rs.counters.scheme_fallbacks += 1;
            msg.mw_stage = true;
            msg.reg_done = true;
        }
    }
    rs.scratch.put_blocks(blocks);
}

/// Pins `blocks` of the sender's user buffer through the budgeted
/// acquire and schedules [`CpuAct::SenderRegDone`] once the
/// registration (plus `extra_ns`) ran. Returns `false` — acquiring and
/// scheduling nothing — when the pinning budget would be exceeded.
fn sender_pin(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut SendMsg,
    blocks: &[(Va, u64)],
    extra_ns: Time,
) -> bool {
    let regions = ogr::plan(blocks, &ctx.host.reg).regions;
    let acquired =
        try_acquire_user_regs(rs, ctx, &regions, &mut msg.user_regs, &mut msg.pinned_bytes);
    let Some(cost) = acquired else {
        return false;
    };
    let done = rs.cpu.reserve_labeled(ctx.now(), cost + extra_ns, "reg");
    ctx.cpu_event(
        done,
        rs.rank,
        CpuAct::SenderRegDone {
            peer: msg.peer,
            seq: msg.seq,
        },
    );
    true
}

/// Registers the sender's user buffer via OGR (RWG-UP / Multi-W).
/// Returns `false` — acquiring nothing and scheduling nothing — when
/// the pinning budget would be exceeded.
fn sender_register(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) -> bool {
    let plan = rs.plan_for(&msg.ty, msg.count);
    let mut blocks = rs.scratch.take_blocks();
    abs_blocks_into(&plan, msg.buf, &mut blocks);
    let extra = device_reg_extra(ctx, rs.rank, msg.buf);
    let pinned = sender_pin(rs, ctx, msg, &blocks, extra);
    rs.scratch.put_blocks(blocks);
    pinned
}

/// Packs the whole message as one segment into a dynamically allocated
/// staging buffer (Generic, and Multi-W's degraded mode).
fn stage_whole(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    msg.nsegs = 1;
    msg.seg_size = msg.size.max(1);
    let sb = acquire_stage(rs, ctx, msg.size);
    msg.pack_bufs.push(sb);
    start_pack_chain(rs, ctx, msg);
}

/// Assigns pack staging buffers for all segments and starts the pack
/// chain.
fn start_packing(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    for _ in 0..msg.nsegs {
        let sb = acquire_pool_seg(rs, ctx, false);
        msg.pack_bufs.push(sb);
    }
    start_pack_chain(rs, ctx, msg);
}

/// Starts (or continues) the sender's pack chain: one segment at a time
/// on the CPU, so posting interleaves with packing (§4.3.1 pipelining).
/// Segment `k` gathers its share of the packed stream intervals.
fn start_pack_chain(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    let k = msg.packed;
    // Hybrid assigns its pack buffers only once the direct writes are
    // out; schemes that never pack own none.
    if msg.pack_chain_running || k >= msg.nsegs || k as usize >= msg.pack_bufs.len() {
        return;
    }
    let lo = k as u64 * msg.seg_size;
    let hi = lo + seg_len(msg, k);
    let dst = msg.pack_bufs[k as usize].va;
    let done = pack_into(rs, ctx, msg, msg.packed_ivs.iter().copied(), lo, hi, dst);
    msg.pack_chain_running = true;
    ctx.cpu_event(
        done,
        rs.rank,
        CpuAct::PackSeg {
            peer: msg.peer,
            seq: msg.seq,
            k,
        },
    );
}

/// Packs range `[lo, hi)` of the substream formed by the stream
/// intervals `ivs` from the user buffer into the staging buffer at
/// `dst` (functional now), charging the copy; returns its finish time.
fn pack_into(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &SendMsg,
    ivs: impl IntoIterator<Item = (u64, u64)>,
    lo: u64,
    hi: u64,
    dst: Va,
) -> Time {
    let rank = rs.rank;
    let plan = rs.plan_for(&msg.ty, msg.count);
    let mut data = rs.scratch.take_bytes((hi - lo) as usize);
    let (mut cursor, mut blocks) = (0usize, 0usize);
    for_each_substream_piece(ivs, lo, hi, |a, b| {
        let n = (b - a) as usize;
        let out = &mut data[cursor..cursor + n];
        pack_range(ctx, rank, &plan, msg.buf, a, b, out);
        cursor += n;
        blocks += plan.block_count_in(a, b).expect("range valid").0;
    });
    debug_assert_eq!(cursor as u64, hi - lo);
    ctx.mems[rank as usize]
        .space
        .write(dst, &data)
        .expect("pack buffer writable");
    rs.scratch.put_bytes(data);
    charge_copy(rs, ctx, msg.buf, blocks, hi - lo, false, "pack")
}

/// Bytes segment `k` carries: its share of the packed substream.
fn seg_len(msg: &SendMsg, k: u32) -> u64 {
    let lo = k as u64 * msg.seg_size;
    (lo + msg.seg_size).min(ivs_bytes(&msg.packed_ivs)) - lo
}

/// Hybrid's direct part: the `(stream lo, stream hi, destination va)`
/// intervals and the receiver regions covering them (empty for every
/// other scheme).
fn direct_part(msg: &SendMsg) -> (&[(u64, u64, Va)], &[Region]) {
    match &msg.targets {
        Some(SendTargets::Hybrid {
            direct, regions, ..
        }) => (direct, regions),
        _ => (&[], &[]),
    }
}

/// Receiver unpack buffer `(addr, rkey)` of segment `k`, read by value
/// so the target list is not cloned per post.
fn seg_target(msg: &SendMsg, k: u32) -> (Va, u32) {
    match &msg.targets {
        Some(SendTargets::Segments(s) | SendTargets::Hybrid { segs: s, .. }) => s[k as usize],
        _ => unreachable!("segment schemes carry segment targets"),
    }
}

/// Posts whatever data the current state allows.
fn try_post_ready(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    match (&msg.targets, msg.scheme) {
        (None, _) => {}
        (Some(SendTargets::Buffer { addr, rkey }), Scheme::Generic) => {
            if msg.packed == msg.nsegs && msg.posted_segs == 0 {
                // Whole message packed into pack_bufs (one buffer per
                // segment — Generic uses a single whole-size buffer).
                debug_assert_eq!(msg.nsegs, 1, "Generic packs whole messages");
                let sb = msg.pack_bufs[0];
                let wr = SendWr {
                    wr_id: WR_DATA | msg.seq,
                    opcode: Opcode::RdmaWriteImm(imm_of(msg.seq, 0)),
                    sges: SgeList::of(Sge {
                        addr: sb.va,
                        len: msg.size,
                        lkey: sb.lkey,
                    }),
                    remote: Some((*addr, *rkey)),
                    signaled: true,
                };
                if post_one(rs, ctx, msg, wr) {
                    msg.posted_segs = 1;
                }
            }
        }
        (Some(SendTargets::Segments(_)), Scheme::BcSpup) => {
            post_packed_segs(rs, ctx, msg);
        }
        (Some(SendTargets::Segments(_)), Scheme::RwgUp) => {
            // Resume-aware: after a connection recovery `posted_segs`
            // holds the receiver-acknowledged prefix, and the gather
            // writes restart from that segment boundary.
            if !msg.reg_done || msg.posted_segs >= msg.nsegs {
                return;
            }
            let plan = rs.plan_for(&msg.ty, msg.count);
            let mut wrs = Vec::new();
            for k in msg.posted_segs..msg.nsegs {
                let (dst, rkey) = seg_target(msg, k);
                let lo = k as u64 * msg.seg_size;
                let range = (lo, lo + seg_len(msg, k));
                push_gather_writes(ctx.net, &plan, msg, range, dst, |_, _| rkey, &mut wrs);
                if let Some(last) = wrs.last_mut() {
                    last.opcode = Opcode::RdmaWriteImm(imm_of(msg.seq, k));
                    last.signaled = k == msg.nsegs - 1;
                }
            }
            if post_wrs(rs, ctx, msg, wrs, false) {
                msg.posted_segs = msg.nsegs;
            }
        }
        (Some(SendTargets::ReadGo), Scheme::PRrs) if msg.contig => {
            // Announce segments pointing directly into the registered
            // user buffer; nothing was packed.
            if !msg.reg_done || msg.posted_segs > 0 {
                return;
            }
            let base = msg.buf as i64 + msg.ty.true_lb();
            for k in 0..msg.nsegs {
                let addr = (base + (k as u64 * msg.seg_size) as i64) as Va;
                let len = seg_len(msg, k);
                let rkey = msg
                    .user_regs
                    .iter()
                    .find(|r| r.covers(addr, len))
                    .expect("registration covers the contiguous buffer")
                    .rkey;
                let ready = CtrlMsg::SegReady {
                    seq: msg.seq,
                    k,
                    addr,
                    rkey,
                    len,
                };
                send_ctrl_msg(rs, ctx, msg.peer, &ready, 0);
            }
            msg.posted_segs = msg.nsegs;
        }
        (Some(SendTargets::ReadGo), Scheme::PRrs) => {
            while msg.posted_segs < msg.packed {
                let k = msg.posted_segs;
                let sb = msg.pack_bufs[k as usize];
                let ready = CtrlMsg::SegReady {
                    seq: msg.seq,
                    k,
                    addr: sb.va,
                    rkey: sb.rkey,
                    len: seg_len(msg, k),
                };
                send_ctrl_msg(rs, ctx, msg.peer, &ready, 0);
                msg.posted_segs += 1;
            }
        }
        (
            Some(SendTargets::MultiW {
                rcv_blocks,
                regions,
            }),
            Scheme::MultiW,
        ) if msg.mw_stage => {
            // Degraded Multi-W: the packed stream sits in pack_bufs;
            // write it into the receiver's (stream-ordered) blocks.
            if msg.packed < msg.nsegs || msg.posted_segs > 0 {
                return;
            }
            let mut wrs = Vec::new();
            push_staged_writes(
                msg,
                &msg.pack_bufs,
                msg.seg_size,
                rcv_blocks.iter().copied(),
                regions,
                &mut wrs,
            );
            if post_wrs(rs, ctx, msg, with_imm_last(wrs, msg.seq), ctx.cfg.list_post) {
                msg.posted_segs = msg.nsegs;
            }
        }
        (
            Some(SendTargets::MultiW {
                rcv_blocks,
                regions,
            }),
            Scheme::MultiW,
        ) => {
            if !msg.reg_done || msg.posted_segs > 0 {
                return;
            }
            let tplan = rs.plan_for(&msg.ty, msg.count);
            let mut snd_blocks = rs.scratch.take_blocks();
            abs_blocks_into(&tplan, msg.buf, &mut snd_blocks);
            let plan = plan_multi_w(&snd_blocks, rcv_blocks, ctx.net.max_sge);
            rs.scratch.put_blocks(snd_blocks);
            let wrs = plan
                .into_iter()
                .map(|p| SendWr {
                    wr_id: WR_DATA | msg.seq,
                    opcode: Opcode::RdmaWrite,
                    sges: p
                        .sges
                        .iter()
                        .map(|&(a, l)| Sge {
                            addr: a,
                            len: l,
                            lkey: lkey_for(&msg.user_regs, a, l),
                        })
                        .collect(),
                    remote: Some((p.dst, region_key(regions, p.dst, p.len))),
                    signaled: false,
                })
                .collect();
            if post_wrs(rs, ctx, msg, with_imm_last(wrs, msg.seq), ctx.cfg.list_post) {
                msg.posted_segs = msg.nsegs;
            }
        }
        (Some(SendTargets::Hybrid { .. }), Scheme::Hybrid) => {
            // Multi-W-style direct writes once registration is done,
            // then the packed segments as BC-SPUP posts them, then the
            // completion marker; each step stops the walk on failure.
            if msg.reg_done
                && post_direct(rs, ctx, msg)
                && post_packed_segs(rs, ctx, msg)
                && post_marker(rs, ctx, msg)
            {
                start_pack_chain(rs, ctx, msg);
            }
        }
        (Some(t), s) => {
            debug_assert!(false, "targets {t:?} inconsistent with scheme {s:?}");
            msg.failed = Some(MpiError::UnknownMessage {
                peer: msg.peer,
                seq: msg.seq,
            });
        }
    }
}

/// Posts the packed segments that are ready, in order: segment `k`'s
/// pack buffer is written into the receiver's unpack buffer `k`,
/// announced by its immediate (BC-SPUP, §4.2, and Hybrid's packed
/// part). BC-SPUP signals its last segment; Hybrid's marker completes
/// the send instead. Returns `false` when a post failed.
fn post_packed_segs(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) -> bool {
    while msg.posted_segs < msg.packed {
        let k = msg.posted_segs;
        let (dst, rkey) = seg_target(msg, k);
        let sb = msg.pack_bufs[k as usize];
        let wr = SendWr {
            wr_id: WR_DATA | msg.seq,
            opcode: Opcode::RdmaWriteImm(imm_of(msg.seq, k)),
            sges: SgeList::of(Sge {
                addr: sb.va,
                len: seg_len(msg, k),
                lkey: sb.lkey,
            }),
            remote: Some((dst, rkey)),
            signaled: msg.scheme != Scheme::Hybrid && k == msg.nsegs - 1,
        };
        if !post_one(rs, ctx, msg, wr) {
            return false;
        }
        msg.posted_segs += 1;
    }
    true
}

/// Hybrid: posts the direct part once — RWG-UP gather writes from the
/// pinned user buffer, or, when the pinning budget refused the sender
/// (`mw_stage`), Multi-W-style writes out of a staging copy — then
/// assigns the packed part's buffers, which starts its pack chain.
/// Returns `false` when a post failed.
fn post_direct(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) -> bool {
    if msg.direct_posted {
        return true;
    }
    msg.direct_posted = true;
    let stage = msg.mw_stage.then(|| stage_direct(rs, ctx, msg));
    let plan = rs.plan_for(&msg.ty, msg.count);
    let (direct, regions) = direct_part(msg);
    let mut wrs = Vec::new();
    match stage {
        Some(sb) => {
            let dsts = direct.iter().map(|&(lo, hi, dst)| (dst, hi - lo));
            push_staged_writes(msg, &[sb], sb.len, dsts, regions, &mut wrs);
        }
        None => {
            for &(lo, hi, dst) in direct {
                let rkey = |a, l| region_key(regions, a, l);
                push_gather_writes(ctx.net, &plan, msg, (lo, hi), dst, rkey, &mut wrs);
            }
        }
    }
    if !post_wrs(rs, ctx, msg, wrs, ctx.cfg.list_post) {
        return false;
    }
    if msg.pack_bufs.is_empty() {
        start_packing(rs, ctx, msg);
    }
    true
}

/// Hybrid under a refused sender top-up: packs the direct intervals into
/// one staging buffer, kept after the packed part's buffers, and returns
/// it (a recovery re-drive reuses the copy already made).
fn stage_direct(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) -> StageBuf {
    if msg.pack_bufs.is_empty() {
        start_packing(rs, ctx, msg);
    }
    if let Some(&sb) = msg.pack_bufs.get(msg.nsegs as usize) {
        return sb;
    }
    let ivs = direct_part(msg).0.iter().map(|&(lo, hi, _)| (lo, hi));
    let bytes = ivs.clone().map(|(lo, hi)| hi - lo).sum();
    let sb = acquire_stage(rs, ctx, bytes);
    pack_into(rs, ctx, msg, ivs, 0, bytes, sb.va);
    msg.pack_bufs.push(sb);
    sb
}

/// Hybrid: once every packed segment is out, posts the completion
/// marker — ordered last on the QP, so its arrival implies all data
/// landed. Returns `false` when the post failed.
fn post_marker(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) -> bool {
    if msg.marker_posted || msg.posted_segs < msg.nsegs {
        return true;
    }
    msg.marker_posted = true;
    let target = match &msg.targets {
        Some(SendTargets::Hybrid { segs, regions, .. }) => segs
            .first()
            .copied()
            .or_else(|| regions.first().map(|&(a, _, k)| (a, k))),
        _ => None,
    };
    let Some(remote) = target else {
        // A rendezvous message always has a target; fail typed
        // rather than panicking on the protocol violation.
        debug_assert!(false, "non-empty message has no hybrid target");
        msg.failed = Some(MpiError::UnknownMessage {
            peer: msg.peer,
            seq: msg.seq,
        });
        return false;
    };
    let wr = SendWr {
        wr_id: WR_DATA | msg.seq,
        opcode: Opcode::RdmaWriteImm(imm_of(msg.seq, MARKER_K)),
        sges: SgeList::new(),
        remote: Some(remote),
        signaled: true,
    };
    post_one(rs, ctx, msg, wr)
}

/// Appends RWG-UP gather writes (§5.1) moving stream range `range` of
/// the pinned user buffer to the contiguous remote range at `dst`, keyed
/// by `rkey(addr, len)`.
fn push_gather_writes(
    net: &NetConfig,
    plan: &TransferPlan,
    msg: &SendMsg,
    range: (u64, u64),
    dst: Va,
    rkey: impl Fn(Va, u64) -> u32,
    out: &mut Vec<SendWr>,
) {
    for_each_gather(
        net,
        plan,
        msg.buf,
        &msg.user_regs,
        range,
        |sges, at, len| {
            out.push(SendWr {
                wr_id: WR_DATA | msg.seq,
                opcode: Opcode::RdmaWrite,
                sges,
                remote: Some((dst + at, rkey(dst + at, len))),
                signaled: false,
            })
        },
    );
}

/// Walks stream range `[lo, hi)` of the registered user buffer at `buf`
/// as gather/scatter lists of at most `max_sge` blocks, calling
/// `f(sges, at, len)` per list — `at` is the list's offset within the
/// range and `len` its byte count.
fn for_each_gather(
    net: &NetConfig,
    plan: &TransferPlan,
    buf: Va,
    regs: &[Registration],
    (lo, hi): (u64, u64),
    mut f: impl FnMut(SgeList, u64, u64),
) {
    let (mut sges, mut at, mut len) = (SgeList::new(), 0u64, 0u64);
    plan.for_each_block(lo, hi, |off, l| {
        let addr = (buf as i64 + off) as u64;
        let lkey = lkey_for(regs, addr, l);
        sges.push(Sge { addr, len: l, lkey });
        len += l;
        if sges.len() == net.max_sge {
            f(std::mem::take(&mut sges), at, len);
            (at, len) = (at + len, 0);
        }
    })
    .expect("range valid");
    if !sges.is_empty() {
        f(sges, at, len);
    }
}

/// Appends unsignaled writes streaming a staged packed image — `stage`
/// buffers of `seg_size` bytes each, read from the start — into the
/// destination blocks `dsts` in stream order, one write per piece that
/// stays inside one staging buffer (Multi-W's degraded mode).
fn push_staged_writes(
    msg: &SendMsg,
    stage: &[StageBuf],
    seg_size: u64,
    dsts: impl IntoIterator<Item = (Va, u64)>,
    regions: &[Region],
    out: &mut Vec<SendWr>,
) {
    let mut pos = 0u64;
    for (dst, l) in dsts {
        let mut off = 0u64;
        while off < l {
            let k = ((pos + off) / seg_size) as usize;
            let sb = stage[k];
            let in_seg = (pos + off) - k as u64 * seg_size;
            let n = (l - off).min(seg_size - in_seg);
            out.push(SendWr {
                wr_id: WR_DATA | msg.seq,
                opcode: Opcode::RdmaWrite,
                sges: SgeList::of(Sge {
                    addr: sb.va + in_seg,
                    len: n,
                    lkey: sb.lkey,
                }),
                remote: Some((dst + off, region_key(regions, dst + off, n))),
                signaled: false,
            });
            off += n;
        }
        pos += l;
    }
}

/// Turns the last of a message's writes into the signaled write whose
/// immediate announces completion to the receiver (Multi-W).
fn with_imm_last(mut wrs: Vec<SendWr>, seq: u64) -> Vec<SendWr> {
    let last = wrs.last_mut().expect("rendezvous messages are never empty");
    last.opcode = Opcode::RdmaWriteImm(imm_of(seq, 0));
    last.signaled = true;
    wrs
}

/// Posts one data work request after `post_single_ns` of CPU. A refused
/// post is recorded in `msg.failed` for the caller of
/// [`try_post_ready`] to resolve; returns `false` then.
fn post_one(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg, wr: SendWr) -> bool {
    let ready = rs
        .cpu
        .reserve_labeled(ctx.now(), ctx.net.post_single_ns, "post");
    rs.counters.data_wrs += 1;
    let res = ctx.post_send(ready, rs.rank, msg.peer, wr);
    post_settled(rs, msg, res)
}

/// Posts `wrs` in order: as one doorbell list when `list` (§7.4,
/// Fig. 13), else one post each. Returns `false` when a post failed
/// (recorded in `msg.failed`).
fn post_wrs(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut SendMsg,
    wrs: Vec<SendWr>,
    list: bool,
) -> bool {
    if !list || wrs.is_empty() {
        return wrs.into_iter().all(|wr| post_one(rs, ctx, msg, wr));
    }
    let n = wrs.len();
    rs.counters.data_wrs += n as u64;
    let ready = rs
        .cpu
        .reserve_labeled(ctx.now(), ctx.net.post_list_ns(n), "post");
    let res = ctx.post_send_list(ready, rs.rank, msg.peer, wrs);
    post_settled(rs, msg, res)
}

/// The failure arm shared by every data post: count the error and park
/// it in `msg.failed`.
fn post_settled(rs: &mut RankState, msg: &mut SendMsg, res: Result<(), PostError>) -> bool {
    match res {
        Ok(()) => true,
        Err(err) => {
            rs.counters.post_errors += 1;
            msg.failed = Some(MpiError::Post {
                peer: msg.peer,
                err,
            });
            false
        }
    }
}

/// The send's data duty is done: the last data WR completed locally,
/// or (`fin`, P-RRS) the receiver reports it read everything.
fn sender_done(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    fin: bool,
) {
    let Some(msg) = am.sends.remove(&(peer, seq)) else {
        // The send was already aborted; a Fin is then a stale straggler.
        if fin && !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    debug_assert!(!msg.completed);
    sender_complete(rs, ctx, msg);
}

/// Completes a send whose data was delivered.
fn sender_complete(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, mut msg: SendMsg) {
    msg.completed = true;
    sender_release(rs, ctx, &mut msg);
    rs.complete_req(msg.req);
}

/// Posts what `msg`'s state allows. A recorded post failure hands the
/// message to [`resolve_send_failure`] and yields `None`; otherwise the
/// caller gets it back to park in the table.
fn post_ready(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    mut msg: SendMsg,
) -> Option<SendMsg> {
    try_post_ready(rs, ctx, &mut msg);
    match msg.failed.take() {
        Some(err) => {
            resolve_send_failure(rs, am, ctx, msg, err);
            None
        }
        None => Some(msg),
    }
}

/// P-RRS recovery: re-announce every packed segment; the recovering
/// receiver deduplicates and re-reads idempotently.
fn reannounce(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, peer: u32, seq: u64) {
    let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
        return;
    };
    msg.posted_segs = 0;
    if let Some(msg) = post_ready(rs, am, ctx, msg) {
        am.sends.insert((peer, seq), msg);
    }
}

fn sender_release(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    release_stage_bufs(rs, ctx, &mut msg.pack_bufs, false);
    release_user_regs(rs, ctx, &mut msg.user_regs, &mut msg.pinned_bytes);
}

// ---------------------------------------------------------------------
// Staging buffers (pool with dynamic fallback, §4.3.3)
// ---------------------------------------------------------------------

/// One segment buffer from the pre-registered unpack or pack pool,
/// or a dynamic one when the pool is exhausted.
fn acquire_pool_seg(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, unpack: bool) -> StageBuf {
    let pool = if unpack {
        &mut rs.unpack_pool
    } else {
        &mut rs.pack_pool
    };
    match pool.acquire() {
        Some(va) => StageBuf {
            va,
            len: pool.seg_size(),
            lkey: pool.lkey(),
            rkey: pool.rkey(),
            dynamic: false,
        },
        None => {
            rs.counters.pool_fallbacks += 1;
            acquire_stage(rs, ctx, ctx.cfg.max_seg_size)
        }
    }
}

/// Dynamically allocates and registers a staging buffer of `size`
/// bytes (the Generic scheme's per-operation buffers, and the pool
/// fallback). Memory is recycled through a freelist, but malloc/free
/// costs are charged every time — matching dynamically allocated
/// buffers in the original implementation. Registration goes through
/// the pin-down cache when `reuse_internal_bufs` is set ("Datatype" in
/// Fig. 2 amortizes registration; "DT+reg" registers every operation).
fn acquire_stage(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, size: u64) -> StageBuf {
    rs.counters.dynamic_allocs += 1;
    let va = match rs.internal.free.get_mut(&size).and_then(Vec::pop) {
        Some(va) => va,
        None => ctx.mems[rs.rank as usize]
            .space
            .alloc_page_aligned(size)
            .expect("address space exhausted (raise capacity)"),
    };
    let mut cost = ctx.host.malloc_ns;
    let acq = if ctx.cfg.reuse_internal_bufs {
        rs.pindown.acquire(
            &mut ctx.mems[rs.rank as usize].regs,
            &ctx.host.reg,
            va,
            size,
        )
    } else {
        // "DT+reg": force a fresh registration every operation.
        let reg = ctx.mems[rs.rank as usize].regs.register(va, size);
        cost += ctx.host.reg.reg_cost(va, size);
        ibdt_memreg::cache::Acquire {
            reg,
            cost_ns: 0,
            hit: false,
        }
    };
    cost += acq.cost_ns;
    rs.cpu.reserve_labeled(ctx.now(), cost, "malloc+reg");
    StageBuf {
        va,
        len: size,
        lkey: acq.reg.lkey,
        rkey: acq.reg.rkey,
        dynamic: true,
    }
}

/// Returns a message's staging buffers (pool segments, or dynamic
/// buffers with their free + deregistration charge) and hands the
/// emptied list back to the scratch pool.
fn release_stage_bufs(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    bufs: &mut Vec<StageBuf>,
    unpack: bool,
) {
    let mut cost = 0;
    for sb in bufs.iter() {
        if sb.dynamic {
            cost += ctx.host.free_ns;
            if ctx.cfg.reuse_internal_bufs {
                // `BadKey` = already evicted under the transfer; the
                // deregistration was paid by the evictor.
                if let Ok(c) =
                    rs.pindown
                        .release(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, sb.lkey)
                {
                    cost += c;
                }
            } else if let Ok(reg) = ctx.mems[rs.rank as usize]
                .regs
                .deregister(ibdt_memreg::MrHandle(sb.lkey))
            {
                cost += ctx.host.reg.dereg_cost(reg.addr, reg.len);
            }
            rs.internal.free.entry(sb.len).or_default().push(sb.va);
        } else if unpack {
            rs.unpack_pool.release(sb.va);
        } else {
            rs.pack_pool.release(sb.va);
        }
    }
    if cost > 0 {
        rs.cpu.reserve_labeled(ctx.now(), cost, "free");
    }
    let mut bufs = std::mem::take(bufs);
    bufs.clear();
    rs.scratch.put_stage(bufs);
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Fills `out` with the absolute-address contiguous blocks of the
/// plan's message at `buf`. `out` is cleared first so callers can pass
/// a [`ScratchPool`](crate::pool::ScratchPool) vector and keep the
/// steady-state path allocation-free.
fn abs_blocks_into(plan: &TransferPlan, buf: Va, out: &mut Vec<(Va, u64)>) {
    out.clear();
    out.extend(
        plan.blocks()
            .iter()
            .map(|&(o, l)| ((buf as i64 + o) as u64, l)),
    );
}

/// Local key covering the range. A missing covering registration is a
/// protocol bug; the sentinel key makes the fabric reject the post with
/// a typed [`PostError`] instead of panicking here.
fn lkey_for(regs: &[Registration], addr: Va, len: u64) -> u32 {
    regs.iter()
        .find(|r| r.covers(addr, len))
        .map_or(u32::MAX, |r| r.lkey)
}

/// Remote key covering the range; the sentinel key fails the
/// responder's rkey check with a typed remote-access completion.
fn region_key(regions: &[Region], addr: Va, len: u64) -> u32 {
    regions
        .iter()
        .find(|&&(a, l, _)| addr >= a && addr + len <= a + l)
        .map_or(u32::MAX, |r| r.2)
}

/// Functional pack of a stream range into a caller-provided buffer of
/// exactly `hi - lo` bytes (typically scratch-pool storage).
fn pack_range(
    ctx: &mut Ctx<'_, '_>,
    rank: u32,
    plan: &TransferPlan,
    buf: Va,
    lo: u64,
    hi: u64,
    out: &mut [u8],
) {
    let space = &ctx.mems[rank as usize].space;
    let mem = space.slice(0, space.capacity()).expect("whole space view");
    plan.pack(lo, hi, mem, buf as usize, out)
        .expect("user buffer covers the datatype");
}

/// Functional pack of a stream range into a fresh vector (used when the
/// packed bytes must outlive the call, e.g. self-sends).
fn pack_to_vec(
    ctx: &mut Ctx<'_, '_>,
    rank: u32,
    plan: &TransferPlan,
    buf: Va,
    lo: u64,
    hi: u64,
) -> Vec<u8> {
    let mut out = vec![0u8; (hi - lo) as usize];
    pack_range(ctx, rank, plan, buf, lo, hi, &mut out);
    out
}

/// Functional unpack of a stream range from a slice into the user
/// buffer.
///
/// The mutable view is narrowed to the plan's block envelope so the
/// address space's dirty tracking (backing-store recycling) covers
/// only the user buffer, not the whole memory.
fn unpack_from_slice(
    ctx: &mut Ctx<'_, '_>,
    rank: u32,
    plan: &TransferPlan,
    buf: Va,
    lo: u64,
    hi: u64,
    data: &[u8],
) {
    let space = &mut ctx.mems[rank as usize].space;
    let cap = space.capacity();
    let (env_lo, env_hi) = plan.envelope();
    let vstart = ((buf as i128 + env_lo).clamp(0, cap as i128) as u64).min(buf.min(cap));
    let vend = ((buf as i128 + env_hi).clamp(vstart as i128, cap as i128)) as u64;
    let mem = space
        .slice_mut(vstart, vend - vstart)
        .expect("envelope view in range");
    plan.unpack(lo, hi, data, mem, (buf - vstart) as usize)
        .expect("user buffer covers the datatype");
}

// ---------------------------------------------------------------------
// Connection manager: QP-death detection, re-establishment, re-drive
// ---------------------------------------------------------------------

/// True for transport-class failures the connection manager can recover
/// from by re-establishing the queue pair (as opposed to protocol
/// errors, which no reconnect can fix).
fn recoverable(err: &MpiError) -> bool {
    matches!(
        err,
        MpiError::Flushed { .. }
            | MpiError::RetryExceeded { .. }
            | MpiError::RnrRetryExceeded { .. }
            | MpiError::CqOverflow { .. }
            | MpiError::Post {
                err: PostError::QpError { .. } | PostError::QpNotReady { .. },
                ..
            }
    )
}

/// True when the membership view has declared `peer` dead for good:
/// its node suffered a crash-stop failure and no restart is pending.
/// Mirrors the out-of-band health service (subnet manager) a real
/// connection manager consults — a node that will restart is merely
/// *suspected* and stays worth reconnect attempts; one that will not
/// is *failed* and every retry toward it is wasted work.
fn peer_failed(ctx: &Ctx<'_, '_>, peer: u32) -> bool {
    ctx.fabric.node_down(peer) && !ctx.fabric.node_will_restart(peer)
}

/// The terminal error once the connection manager gives up on `peer`:
/// the crash-stop diagnosis [`MpiError::PeerFailed`] when the
/// membership view reports the node dead, the transient
/// [`MpiError::ConnectionLost`] otherwise.
fn give_up_error(rs: &RankState, ctx: &Ctx<'_, '_>, peer: u32) -> MpiError {
    if peer_failed(ctx, peer) {
        MpiError::PeerFailed { peer }
    } else {
        let attempts = rs.reconn.get(&peer).map_or(0, |r| r.attempts);
        MpiError::ConnectionLost { peer, attempts }
    }
}

/// Drains everything the connection manager had suspended toward
/// `peer`: eager ring slots return to the free list (re-driving sends
/// queued behind them), suspended rendezvous sends and receives fail
/// with `err`. Called at give-up time so no request stays parked on a
/// connection that is never coming back — the "complete what is
/// completable, fail the rest typed, never hang" half of the failure
/// contract.
fn drain_suspended(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    err: MpiError,
) {
    let Some(r) = rs.reconn.get_mut(&peer) else {
        return;
    };
    r.active = false;
    let eager_slots = std::mem::take(&mut r.eager_slots);
    let sends: Vec<u64> = r.sends.iter().copied().collect();
    let recvs: Vec<u64> = r.recvs.iter().copied().collect();
    r.sends.clear();
    r.recvs.clear();
    r.pending_ctrl.clear();
    for va in eager_slots {
        rs.eager_send_free.push(va);
        rs.errors.push(err);
    }
    drain_pending_eager(rs, ctx);
    for seq in sends {
        if let Some(msg) = am.sends.remove(&(peer, seq)) {
            abort_send(rs, ctx, msg, err);
        }
    }
    for seq in recvs {
        abort_recv(rs, am, ctx, peer, seq, err);
    }
}

/// Ensures a reconnect handshake to `peer` is scheduled, modelling the
/// connection manager's out-of-band exchange with `reconnect_ns`
/// latency. Returns `false` when the re-establishment budget is
/// exhausted or the peer is diagnosed as failed — the caller then
/// fails the traffic with [`give_up_error`].
fn ensure_reconnect(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32) -> bool {
    if peer_failed(ctx, peer) {
        return false;
    }
    let rank = rs.rank;
    let at = ctx.now() + ctx.cfg.reconnect_ns;
    let r = rs.reconn.get_or_default(peer);
    if r.attempts >= ctx.cfg.max_reconnects {
        return false;
    }
    if !r.active {
        r.active = true;
        ctx.cpu_event(at, rank, CpuAct::Reconnect { peer });
    }
    true
}

/// Settles a refused control-path post toward `peer`: `true` when the
/// connection manager took the traffic over (a dead QP; the caller
/// parks it for the reconnect re-drive), `false` after counting the
/// post error.
fn post_suspends(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32, e: PostError) -> bool {
    if ctx.cfg.recovery
        && matches!(e, PostError::QpError { .. } | PostError::QpNotReady { .. })
        && ensure_reconnect(rs, ctx, peer)
    {
        return true;
    }
    rs.counters.post_errors += 1;
    false
}

/// Routes a failed send either into the connection manager (suspended,
/// re-driven after reconnect) or into a typed abort.
fn resolve_send_failure(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    msg: SendMsg,
    err: MpiError,
) {
    let peer = msg.peer;
    if ctx.cfg.recovery && recoverable(&err) {
        if ensure_reconnect(rs, ctx, peer) {
            rs.reconn
                .get_mut(&peer)
                .expect("entry ensured above")
                .sends
                .insert(msg.seq);
            am.sends.insert((peer, msg.seq), msg);
            return;
        }
        let err = give_up_error(rs, ctx, peer);
        drain_suspended(rs, am, ctx, peer, err);
        abort_send(rs, ctx, msg, err);
        return;
    }
    abort_send(rs, ctx, msg, err);
}

/// The reconnect handshake to `peer` finished: re-establish the errored
/// QP directions and re-drive everything the failure suspended, in
/// deterministic order (ring slots, queued control, sends, receives).
fn do_reconnect(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, peer: u32) {
    if peer_failed(ctx, peer) {
        // The handshake raced a crash-stop diagnosis: the peer is dead
        // for good, so re-establishing its QPs would only feed more
        // traffic into a black hole. Drain instead.
        let err = MpiError::PeerFailed { peer };
        drain_suspended(rs, am, ctx, peer, err);
        return;
    }
    let Some(mut r) = rs.reconn.remove(&peer) else {
        return;
    };
    r.active = false;
    r.attempts += 1;
    for (a, b) in [(rs.rank, peer), (peer, rs.rank)] {
        if ctx.fabric.qp_errored(a, b) {
            ctx.fabric.reestablish_qp(a, b);
        }
    }
    rs.counters.qp_reestablished += 1;
    let eager_slots = std::mem::take(&mut r.eager_slots);
    let pending_ctrl = std::mem::take(&mut r.pending_ctrl);
    let sends: Vec<u64> = r.sends.iter().copied().collect();
    let recvs: Vec<u64> = r.recvs.iter().copied().collect();
    r.sends.clear();
    r.recvs.clear();
    // The entry (with its attempt count) stays: a connection that keeps
    // dying must eventually fail typed instead of looping forever.
    rs.reconn.insert(peer, r);
    for va in eager_slots {
        resend_eager_slot(rs, ctx, peer, va);
    }
    for bytes in pending_ctrl {
        send_ctrl(rs, ctx, peer, bytes, 0);
    }
    for seq in sends {
        resume_send(rs, am, ctx, peer, seq);
    }
    for seq in recvs {
        resume_recv(rs, am, ctx, peer, seq);
    }
}

/// Re-posts a flushed eager/control send from its ring slot. The slot
/// still holds the encoded bytes, and a flushed WQE was never delivered
/// (flush precludes delivery), so the re-post cannot duplicate a
/// message the peer already consumed. The wire length is recovered from
/// the encoded header.
fn resend_eager_slot(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32, va: Va) {
    let bytes = ctx.mems[rs.rank as usize]
        .space
        .read(va, ctx.cfg.eager_buf_size)
        .expect("eager ring buffer readable");
    // The slot may open with piggybacked `CreditUpdate`s; the wire
    // length covers the whole prefix plus the carried message. The zero
    // terminator each slot write appends decodes to `None`, marking the
    // end of a slot that carries only credits.
    let mut off = 0usize;
    let len = loop {
        match CtrlMsg::decode(&bytes[off..]) {
            None if off > 0 => break off as u64,
            None => {
                // Nothing decodable at all (protocol bug): return the
                // slot to the ring rather than resending garbage.
                rs.eager_send_free.push(va);
                drain_pending_eager(rs, ctx);
                return;
            }
            Some((m, hdr_len)) => {
                off += hdr_len;
                match m {
                    CtrlMsg::CreditUpdate { .. } => continue,
                    CtrlMsg::EagerData { size, .. } => break off as u64 + size,
                    _ => break off as u64,
                }
            }
        }
    };
    let ready = rs.cpu.reserve_labeled(
        ctx.now(),
        ctx.cfg.ctrl_overhead_ns + ctx.net.post_single_ns,
        "ctrl",
    );
    if let Err(e) = post_slot(rs, ctx, ready, peer, va, len) {
        if post_suspends(rs, ctx, peer, e) {
            rs.reconn
                .get_mut(&peer)
                .expect("entry ensured above")
                .eager_slots
                .push(va);
            return;
        }
        rs.eager_send_free.push(va);
        rs.errors.push(MpiError::Post { peer, err: e });
    }
}

/// Re-drives a suspended rendezvous send after re-establishment.
fn resume_send(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(msg) = am.sends.get(&(peer, seq)) else {
        return;
    };
    if msg.completed {
        return;
    }
    match &msg.targets {
        None => {
            // No reply yet. The start itself may have been flushed (it
            // was re-posted from its ring slot just before this call);
            // probe so the receiver resends a reply that crossed the
            // failure.
            send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvProbe { seq }, 0);
        }
        Some(SendTargets::ReadGo) => reannounce(rs, am, ctx, peer, seq),
        Some(_) => {
            // Data-bearing schemes restart from the receiver's
            // acknowledged chunk boundary — ask where that is.
            send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvResume { seq }, 0);
        }
    }
}

/// Re-drives a suspended read-driven (P-RRS) receive: reset the
/// announcement bookkeeping and ask the sender to re-announce. Repeated
/// reads are idempotent, so restarting from zero is always safe.
fn resume_recv(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        return;
    };
    if msg.completed {
        return;
    }
    msg.reads_outstanding = 0;
    msg.segs_announced = 0;
    msg.segs_seen.clear();
    send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvResume { seq }, 0);
}

/// §5.4.2 protection fault: the receiver's pinned region vanished under
/// a zero-copy transfer (remote-access NAK on our write). Fall back to
/// the copy-based BC-SPUP path by renegotiating the message once.
fn renegotiate_send(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
        return;
    };
    rs.counters.protection_fallbacks += 1;
    msg.renegotiated = true;
    // Tear down the zero-copy generation: registrations, staging, and
    // any pack pipeline still in flight.
    sender_release(rs, ctx, &mut msg);
    if msg.pack_chain_running {
        msg.drop_packs += 1;
        msg.pack_chain_running = false;
    }
    msg.reg_done = false;
    msg.packed_ivs = Intervals::of((0, msg.size));
    msg.mw_stage = false;
    msg.targets = None;
    msg.posted_segs = 0;
    msg.packed = 0;
    msg.scheme = Scheme::BcSpup;
    msg.seg_size = ctx.cfg.segment_size(msg.size);
    msg.nsegs = ctx.cfg.segment_count(msg.size);
    // A duplicate start for a live transfer is the renegotiation signal
    // (a flushed original was never delivered, so no ambiguity).
    let stats = rs.plan_for(&msg.ty, msg.count).stats();
    let start = CtrlMsg::RndvStart {
        tag: msg.tag,
        seq,
        size: msg.size,
        scheme: Scheme::BcSpup.to_wire(),
        nsegs: msg.nsegs,
        seg_size: msg.seg_size,
        blk_min: stats.min,
        blk_median: stats.median,
    };
    send_ctrl_msg(rs, ctx, peer, &start, 0);
    start_packing(rs, ctx, &mut msg);
    am.sends.insert((peer, seq), msg);
}

/// Receiver side of the §5.4.2 fallback: rebuild a live receive as
/// BC-SPUP after the sender renegotiated (its geometry arrives with the
/// duplicate start).
#[allow(clippy::too_many_arguments)]
fn receiver_renegotiate(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    size: u64,
    nsegs: u32,
    seg_size: u64,
) {
    let Some(mut msg) = am.recvs.remove(&(peer, seq)) else {
        return;
    };
    debug_assert_eq!(msg.size, size, "renegotiated size changed");
    // Unpack completions still in flight belong to the torn-down
    // generation (arrived-but-not-unpacked packed segments).
    msg.drop_unpacks += msg.segs_arrived.saturating_sub(msg.segs_unpacked);
    receiver_release(rs, ctx, &mut msg);
    msg.scheme = Scheme::BcSpup;
    msg.nsegs = nsegs;
    msg.seg_size = seg_size;
    msg.segs_arrived = 0;
    msg.segs_unpacked = 0;
    msg.segs_seen.clear();
    msg.packed_ivs = Intervals::of((0, size));
    msg.marker_seen = false;
    msg.reads_outstanding = 0;
    msg.segs_announced = 0;
    msg.reply_copy = None;
    let segs = assign_unpack_bufs(rs, ctx, &mut msg);
    let reply = encode_reply(rs, seq, Scheme::BcSpup, ReplyBody::Segments { segs });
    queue_reply(rs, ctx, &mut msg, reply, ctx.cfg.ctrl_overhead_ns, "ctrl");
    am.recvs.insert((peer, seq), msg);
}

/// Deterministic §5.4.2 eviction injection: with `evict_rate` set in
/// the fault plan, force-evict the first user registration backing a
/// zero-copy reply right after it is pinned. The draw hashes the plan
/// seed with the transfer identity, so it reproduces across runs and is
/// independent of event interleaving (the fabric's own decision stream
/// is untouched).
fn maybe_evict_reply_reg(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &RecvMsg) {
    let (rate, seed) = match ctx.fabric.fault_plan() {
        Some(p) => (p.evict_rate, p.seed),
        None => return,
    };
    if rate <= 0.0 || msg.user_regs.is_empty() {
        return;
    }
    let ident = ((rs.rank as u64) << 40) ^ ((msg.peer as u64) << 20) ^ msg.seq;
    let mut h = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ident | 1));
    // SplitMix64 finalizer: decorrelate the identity hash.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if rate >= 1.0 || u < rate {
        let _ = rs
            .pindown
            .force_evict(&mut ctx.mems[rs.rank as usize].regs, msg.user_regs[0].lkey);
    }
}
