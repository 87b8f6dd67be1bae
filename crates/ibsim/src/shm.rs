//! Shared-memory transport backend.
//!
//! Models intra-node MPI communication the way Nemesis-style channels
//! implement it, with two selectable copy disciplines:
//!
//! * **Double copy** ([`ShmCopyMode::Double`]): the sender packs into a
//!   bounded shared bounce segment slot by slot and the receiver
//!   unpacks out of it — two copies per byte, pipelined across
//!   `seg_bytes / slot_bytes` slots (segment-slot flow control bounds
//!   the overlap exactly as [`two_stage_finish_ns`] describes).
//! * **Single copy** ([`ShmCopyMode::Single`]): a CMA-style
//!   cross-process copy (`process_vm_readv`-like) moves the bytes in
//!   one pass, paying a per-work-request syscall setup cost
//!   [`ShmConfig::cma_setup_ns`]. The per-WR setup is what makes
//!   many-small-WR schemes (Multi-W) lose on this transport while they
//!   win on IB.
//!
//! Copy **placement** is explicit and charged on the correct rank's
//! serial copy engine (the per-node [`SerialResource`] doubling as the
//! progress-engine CPU for transport copies):
//!
//! | opcode            | double copy                    | single copy           |
//! |-------------------|--------------------------------|-----------------------|
//! | `Send`            | in: sender, out: receiver      | receiver pulls        |
//! | `RdmaWrite[Imm]`  | in: sender, out: receiver      | sender pushes         |
//! | `RdmaRead`        | in: responder, out: requester  | requester pulls       |
//!
//! Functional behaviour mirrors [`Fabric`](crate::fabric::Fabric):
//! payloads are gathered at post time and placed at delivery time,
//! lkey/rkey checks run against the same registration tables (the MPI
//! layer registers identically on every transport), and a send or
//! write-with-immediate arriving with no receive descriptor parks in
//! an RNR queue drained on the next receive post. The backend has no
//! fault injection, QP lifecycle, or crash-stop membership: the
//! [`Transport`] queries answer with the inert values, and installing
//! a non-inert fault plan is rejected.
//!
//! The model is deterministic: no randomness, no host-time reads, so
//! the same seed and configuration produce an identical
//! `RunStats` fingerprint on every run.

use crate::fabric::{FabricStats, NicEvent, NodeMem};
use crate::fault::FaultPlan;
use crate::payload::Payload;
use crate::transport::{Transport, TransportClass};
use crate::wr::{Cqe, CqeStatus, Opcode, PostError, RecvWr, SendWr, Sge, SgeList};
use ibdt_memreg::AddressSpace;
use ibdt_simcore::pipeline::two_stage_finish_ns;
use ibdt_simcore::resource::SerialResource;
use ibdt_simcore::slab::{Handle, Slab};
use ibdt_simcore::time::{transfer_ns, Time};
use std::collections::VecDeque;
use std::fmt;

/// How many copies each byte pays crossing the shared-memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmCopyMode {
    /// Bounce through a bounded shared segment: copy in, copy out.
    Double,
    /// CMA-style direct cross-process copy: one copy, one syscall
    /// setup per work request.
    Single,
}

/// Shared-memory channel cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShmConfig {
    /// Copy discipline.
    pub copy_mode: ShmCopyMode,
    /// Bounce segment capacity per in-flight transfer (double copy).
    pub seg_bytes: u64,
    /// Bounce slot granularity; `seg_bytes / slot_bytes` slots bound
    /// the copy-in/copy-out overlap.
    pub slot_bytes: u64,
    /// Memcpy bandwidth into/out of the shared segment.
    pub bounce_bw_bps: u64,
    /// Per-slot bookkeeping (head/tail publication) on the bounce path.
    pub slot_overhead_ns: Time,
    /// Per-work-request syscall setup on the single-copy path.
    pub cma_setup_ns: Time,
    /// Cross-process copy bandwidth on the single-copy path.
    pub cma_bw_bps: u64,
    /// Peer-notification latency (futex/doorbell wake).
    pub doorbell_ns: Time,
    /// Local completion visibility delay.
    pub cqe_ns: Time,
    /// Scatter/gather entries accepted per work request.
    pub max_sge: usize,
}

impl Default for ShmConfig {
    fn default() -> Self {
        // Calibrated against single-node runs of the arXiv:2511.13804
        // study: bounce memcpy ~6 GB/s (two crossings of the memory
        // bus), CMA ~9 GB/s with a ~700 ns process_vm_readv setup.
        ShmConfig {
            copy_mode: ShmCopyMode::Double,
            seg_bytes: 128 * 1024,
            slot_bytes: 16 * 1024,
            bounce_bw_bps: 6_000_000_000,
            slot_overhead_ns: 150,
            cma_setup_ns: 2_000,
            cma_bw_bps: 9_000_000_000,
            doorbell_ns: 120,
            cqe_ns: 60,
            max_sge: 64,
        }
    }
}

/// A rejected shared-memory configuration (see [`ShmConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmConfigError {
    /// `seg_bytes` is zero.
    ZeroSegment,
    /// `slot_bytes` is zero.
    ZeroSlot,
    /// A slot does not fit in the segment.
    SlotExceedsSegment {
        /// Offending slot size.
        slot: u64,
        /// Segment capacity.
        seg: u64,
    },
    /// The segment is not a whole number of slots.
    SegmentNotSlotMultiple {
        /// Offending slot size.
        slot: u64,
        /// Segment capacity.
        seg: u64,
    },
    /// `bounce_bw_bps` is zero.
    ZeroBounceBandwidth,
    /// `cma_bw_bps` is zero.
    ZeroCmaBandwidth,
    /// `max_sge` is zero.
    ZeroMaxSge,
}

impl fmt::Display for ShmConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmConfigError::ZeroSegment => write!(f, "ShmConfig.seg_bytes must be positive"),
            ShmConfigError::ZeroSlot => write!(f, "ShmConfig.slot_bytes must be positive"),
            ShmConfigError::SlotExceedsSegment { slot, seg } => write!(
                f,
                "ShmConfig.slot_bytes ({slot}) exceeds seg_bytes ({seg})"
            ),
            ShmConfigError::SegmentNotSlotMultiple { slot, seg } => write!(
                f,
                "ShmConfig.seg_bytes ({seg}) is not a multiple of slot_bytes ({slot})"
            ),
            ShmConfigError::ZeroBounceBandwidth => {
                write!(f, "ShmConfig.bounce_bw_bps must be positive")
            }
            ShmConfigError::ZeroCmaBandwidth => {
                write!(f, "ShmConfig.cma_bw_bps must be positive")
            }
            ShmConfigError::ZeroMaxSge => write!(f, "ShmConfig.max_sge must be positive"),
        }
    }
}

impl std::error::Error for ShmConfigError {}

impl ShmConfig {
    /// Checks the configuration, rejecting parameter combinations the
    /// cost model cannot price (division by zero, empty pipelines)
    /// with a typed error instead of panicking or silently clamping.
    pub fn validate(&self) -> Result<(), ShmConfigError> {
        if self.seg_bytes == 0 {
            return Err(ShmConfigError::ZeroSegment);
        }
        if self.slot_bytes == 0 {
            return Err(ShmConfigError::ZeroSlot);
        }
        if self.slot_bytes > self.seg_bytes {
            return Err(ShmConfigError::SlotExceedsSegment {
                slot: self.slot_bytes,
                seg: self.seg_bytes,
            });
        }
        if !self.seg_bytes.is_multiple_of(self.slot_bytes) {
            return Err(ShmConfigError::SegmentNotSlotMultiple {
                slot: self.slot_bytes,
                seg: self.seg_bytes,
            });
        }
        if self.bounce_bw_bps == 0 {
            return Err(ShmConfigError::ZeroBounceBandwidth);
        }
        if self.cma_bw_bps == 0 {
            return Err(ShmConfigError::ZeroCmaBandwidth);
        }
        if self.max_sge == 0 {
            return Err(ShmConfigError::ZeroMaxSge);
        }
        Ok(())
    }

    /// Number of bounce slots available for overlap.
    fn slots(&self) -> usize {
        (self.seg_bytes / self.slot_bytes) as usize
    }

    /// Chunking of an `n`-byte bounce transfer: `(chunks, per-chunk
    /// copy time)`. Chunks are sized evenly (ceil) so the closed-form
    /// pipeline bound stays exact.
    fn bounce_chunks(&self, n: u64) -> (u64, Time) {
        let chunks = n.div_ceil(self.slot_bytes).max(1);
        let per = n.div_ceil(chunks);
        (
            chunks,
            self.slot_overhead_ns + transfer_ns(per, self.bounce_bw_bps),
        )
    }

    /// Single-copy cost of one `n`-byte work request.
    fn cma_ns(&self, n: u64) -> Time {
        self.cma_setup_ns + transfer_ns(n, self.cma_bw_bps)
    }
}

/// What a delivered shared-memory transfer does at the destination.
#[derive(Debug)]
enum ShmKind {
    /// Channel-semantics send payload.
    Send {
        wr_id: u64,
        data: Payload,
        signaled: bool,
        /// Double copy: completion floor from the slot-flow-control
        /// pipeline (the receiver cannot finish unpacking before it).
        pipe_floor: Time,
    },
    /// RDMA-write payload (optionally with immediate data). On the
    /// single-copy path the data was already pushed by the sender and
    /// `placed` is true; delivery only performs the rkey-checked write
    /// when the bounce path carries it.
    Write {
        wr_id: u64,
        addr: u64,
        rkey: u32,
        data: Payload,
        imm: Option<u32>,
        signaled: bool,
        pipe_floor: Time,
        placed: bool,
    },
    /// RDMA-read payload arriving back at the requester; the copy cost
    /// was charged at post time.
    ReadResponse {
        wr_id: u64,
        data: Payload,
        scatter: SgeList,
        signaled: bool,
    },
}

#[derive(Debug)]
struct ShmXfer {
    src: u32,
    kind: ShmKind,
}

#[derive(Debug)]
struct ShmNode {
    /// Per-rank transport copy engine (the progress-engine CPU doing
    /// bounce/CMA copies), traced for the pack/wire overlap statistic.
    engine: SerialResource,
    /// Receive descriptors per peer.
    recvq: Vec<VecDeque<RecvWr>>,
    /// RNR-parked transfers per peer.
    parked: Vec<VecDeque<ShmXfer>>,
}

/// The shared-memory channel: `n` ranks on one node, pairwise
/// segments/CMA permissions, no switch and no NIC.
#[derive(Debug)]
pub struct ShmChannel {
    cfg: ShmConfig,
    nodes: Vec<ShmNode>,
    inflight: Slab<ShmXfer>,
    stats: FabricStats,
    node_stats: Vec<FabricStats>,
}

impl ShmChannel {
    /// Creates a channel connecting `n` ranks. Panics on an invalid
    /// configuration — validate first with [`ShmConfig::validate`]
    /// (the embedding `Cluster` does).
    pub fn new(n: usize, cfg: ShmConfig) -> Self {
        let mut channel = ShmChannel {
            cfg,
            nodes: (0..n)
                .map(|_| ShmNode {
                    engine: SerialResource::new("shm-copy").with_trace(),
                    recvq: (0..n).map(|_| VecDeque::new()).collect(),
                    parked: (0..n).map(|_| VecDeque::new()).collect(),
                })
                .collect(),
            inflight: Slab::new(),
            stats: FabricStats::default(),
            node_stats: vec![FabricStats::default(); n],
        };
        channel.reset(cfg);
        channel
    }

    /// Starts a run under `cfg` in place, keeping queue and trace
    /// capacity: copy engines idle at t=0, receive/park queues empty
    /// but warm, stats zeroed. [`ShmChannel::new`] ends here too, so a
    /// recycled channel behaves bit-identically to a fresh one. Panics
    /// on an invalid configuration.
    pub fn reset(&mut self, cfg: ShmConfig) {
        if let Err(e) = cfg.validate() {
            panic!("invalid shm configuration: {e}");
        }
        self.cfg = cfg;
        for n in &mut self.nodes {
            n.engine.reset();
            for q in &mut n.recvq {
                q.clear();
            }
            for q in &mut n.parked {
                q.clear();
            }
        }
        self.inflight.clear();
        self.stats = FabricStats::default();
        for s in &mut self.node_stats {
            *s = FabricStats::default();
        }
    }

    /// The channel's configuration.
    pub fn config(&self) -> &ShmConfig {
        &self.cfg
    }

    /// Number of ranks on the channel.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the channel connects no ranks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn validate_sges(&self, sges: &[Sge], mem: &NodeMem) -> Result<(), PostError> {
        if sges.len() > self.cfg.max_sge {
            return Err(PostError::TooManySges {
                got: sges.len(),
                max: self.cfg.max_sge,
            });
        }
        for s in sges {
            mem.regs
                .check(s.lkey, s.addr, s.len)
                .map_err(PostError::BadLocalKey)?;
        }
        Ok(())
    }

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

    /// Charges the sender-side bounce copy-in and returns `(sender
    /// completion instant, first-chunk doorbell instant, pipeline
    /// completion floor)`.
    fn charge_bounce_in(&mut self, ready_at: Time, node: u32, bytes: u64) -> (Time, Time, Time) {
        let (chunks, per) = self.cfg.bounce_chunks(bytes);
        let in_total = per * chunks;
        let in_done =
            self.nodes[node as usize]
                .engine
                .reserve_labeled(ready_at, in_total, "wire");
        let in_start = in_done - in_total;
        let floor = in_start + two_stage_finish_ns(chunks, self.cfg.slots(), |_| per, |_| per);
        self.stats.shm_bounce_chunks += chunks;
        self.node_stats[node as usize].shm_bounce_chunks += chunks;
        (in_done, in_start + per + self.cfg.doorbell_ns, floor)
    }

    /// Charges the receiver-side bounce copy-out starting `now`,
    /// bounded below by the slot-flow-control `pipe_floor`.
    fn charge_bounce_out(&mut self, now: Time, node: u32, bytes: u64, pipe_floor: Time) -> Time {
        let (chunks, per) = self.cfg.bounce_chunks(bytes);
        let out_done = self.nodes[node as usize]
            .engine
            .reserve_labeled(now, per * chunks, "wire");
        out_done.max(pipe_floor)
    }

    /// Charges one single-copy CMA pass on `node`'s engine.
    fn charge_cma(&mut self, at: Time, node: u32, bytes: u64) -> Time {
        let done = self.nodes[node as usize]
            .engine
            .reserve_labeled(at, self.cfg.cma_ns(bytes), "wire");
        self.stats.shm_cma_ops += 1;
        self.node_stats[node as usize].shm_cma_ops += 1;
        done
    }

    fn sched_arrive(&mut self, at: Time, dst: u32, xfer: ShmXfer, sink: &mut dyn FnMut(Time, NicEvent)) {
        let id = self.inflight.insert(xfer).bits();
        sink(at, NicEvent::ShmArrive { dst, id });
    }

    fn sched_local(&self, sink: &mut dyn FnMut(Time, NicEvent), node: u32, cqe: Cqe, at: Time) {
        sink(at + self.cfg.cqe_ns, NicEvent::LocalCqe { node, cqe });
    }

    fn park(&mut self, dst: u32, src: u32, xfer: ShmXfer) {
        self.stats.rnr_events += 1;
        self.nodes[dst as usize].parked[src as usize].push_back(xfer);
    }

    fn drain_parked(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        mems: &mut [NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
        out: &mut Vec<(u32, Cqe)>,
    ) {
        loop {
            if self.nodes[node as usize].recvq[peer as usize].is_empty() {
                break;
            }
            let Some(xfer) = self.nodes[node as usize].parked[peer as usize].pop_front() else {
                break;
            };
            self.deliver(now, node, xfer, mems, sink, out);
        }
    }

    fn deliver(
        &mut self,
        now: Time,
        dst: u32,
        xfer: ShmXfer,
        mems: &mut [NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
        out: &mut Vec<(u32, Cqe)>,
    ) {
        let src = xfer.src;
        match xfer.kind {
            ShmKind::Send {
                wr_id,
                data,
                signaled,
                pipe_floor,
            } => {
                let q = &mut self.nodes[dst as usize].recvq[src as usize];
                let Some(front) = q.front() else {
                    self.park(
                        dst,
                        src,
                        ShmXfer {
                            src,
                            kind: ShmKind::Send {
                                wr_id,
                                data,
                                signaled,
                                pipe_floor,
                            },
                        },
                    );
                    return;
                };
                if front.capacity() < data.len() as u64 {
                    let rwr = q.pop_front().expect("front exists");
                    self.stats.cqes += 1;
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
                    return;
                }
                let rwr = q.pop_front().expect("front exists");
                // Receiver-side copy: unpack out of the segment
                // (double) or pull across processes (single).
                let visible = match self.cfg.copy_mode {
                    ShmCopyMode::Double => {
                        self.charge_bounce_out(now, dst, data.len() as u64, pipe_floor)
                    }
                    ShmCopyMode::Single => self.charge_cma(now, dst, data.len() as u64),
                };
                Self::scatter(&rwr.sges, data.as_slice(), &mut mems[dst as usize].space);
                self.sched_local(
                    sink,
                    dst,
                    Cqe {
                        peer: src,
                        wr_id: rwr.wr_id,
                        is_recv: true,
                        byte_len: data.len() as u64,
                        imm: None,
                        status: CqeStatus::Success,
                    },
                    visible,
                );
                if signaled && matches!(self.cfg.copy_mode, ShmCopyMode::Single) {
                    // Single copy: the sender's buffer is only free
                    // once the receiver finished pulling from it.
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
                        visible + self.cfg.doorbell_ns,
                    );
                }
            }
            ShmKind::Write {
                wr_id,
                addr,
                rkey,
                data,
                imm,
                signaled,
                pipe_floor,
                placed,
            } => {
                if imm.is_some() && self.nodes[dst as usize].recvq[src as usize].is_empty() {
                    self.park(
                        dst,
                        src,
                        ShmXfer {
                            src,
                            kind: ShmKind::Write {
                                wr_id,
                                addr,
                                rkey,
                                data,
                                imm,
                                signaled,
                                pipe_floor,
                                placed,
                            },
                        },
                    );
                    return;
                }
                let mem = &mut mems[dst as usize];
                if let Err(e) = mem.regs.check(rkey, addr, data.len() as u64) {
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
                    return;
                }
                let visible = if placed {
                    // Single copy: the sender already pushed the bytes
                    // and paid for them at post time.
                    now
                } else {
                    let v = match self.cfg.copy_mode {
                        ShmCopyMode::Double => {
                            self.charge_bounce_out(now, dst, data.len() as u64, pipe_floor)
                        }
                        ShmCopyMode::Single => self.charge_cma(now, dst, data.len() as u64),
                    };
                    mem.space
                        .write(addr, data.as_slice())
                        .expect("rkey check guarantees bounds");
                    v
                };
                if let Some(v) = imm {
                    let rwr = self.nodes[dst as usize].recvq[src as usize]
                        .pop_front()
                        .expect("checked non-empty above");
                    self.sched_local(
                        sink,
                        dst,
                        Cqe {
                            peer: src,
                            wr_id: rwr.wr_id,
                            is_recv: true,
                            byte_len: data.len() as u64,
                            imm: Some(v),
                            status: CqeStatus::Success,
                        },
                        visible,
                    );
                }
                if signaled && !placed && matches!(self.cfg.copy_mode, ShmCopyMode::Single) {
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
                        visible + self.cfg.doorbell_ns,
                    );
                }
            }
            ShmKind::ReadResponse {
                wr_id,
                data,
                scatter,
                signaled,
            } => {
                Self::scatter(&scatter, data.as_slice(), &mut mems[dst as usize].space);
                if signaled {
                    self.stats.cqes += 1;
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

impl Transport for ShmChannel {
    fn class(&self) -> TransportClass {
        match self.cfg.copy_mode {
            ShmCopyMode::Double => TransportClass::ShmDouble,
            ShmCopyMode::Single => TransportClass::ShmSingle,
        }
    }

    fn post_send(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        if peer as usize >= self.nodes.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        let mem = &mems[node as usize];
        self.validate_sges(&wr.sges, mem)?;
        if matches!(
            wr.opcode,
            Opcode::RdmaWrite | Opcode::RdmaWriteImm(_) | Opcode::RdmaRead
        ) && wr.remote.is_none()
        {
            return Err(PostError::MissingRemote);
        }
        let bytes = wr.total_len();
        self.stats.wqes += 1;
        self.node_stats[node as usize].wqes += 1;
        match wr.opcode {
            Opcode::Send => {
                self.stats.bytes_on_wire += bytes;
                let data = Self::gather(&wr.sges, &mem.space);
                match self.cfg.copy_mode {
                    ShmCopyMode::Double => {
                        let (in_done, doorbell, floor) =
                            self.charge_bounce_in(ready_at, node, bytes);
                        if wr.signaled {
                            // Bounce decouples the sender: its buffer
                            // is free once the copy-in finishes.
                            self.sched_local(
                                sink,
                                node,
                                Cqe {
                                    peer,
                                    wr_id: wr.wr_id,
                                    is_recv: false,
                                    byte_len: bytes,
                                    imm: None,
                                    status: CqeStatus::Success,
                                },
                                in_done,
                            );
                        }
                        self.sched_arrive(
                            doorbell,
                            peer,
                            ShmXfer {
                                src: node,
                                kind: ShmKind::Send {
                                    wr_id: wr.wr_id,
                                    data,
                                    signaled: false,
                                    pipe_floor: floor,
                                },
                            },
                            sink,
                        );
                    }
                    ShmCopyMode::Single => {
                        self.sched_arrive(
                            ready_at + self.cfg.doorbell_ns,
                            peer,
                            ShmXfer {
                                src: node,
                                kind: ShmKind::Send {
                                    wr_id: wr.wr_id,
                                    data,
                                    signaled: wr.signaled,
                                    pipe_floor: 0,
                                },
                            },
                            sink,
                        );
                    }
                }
            }
            Opcode::RdmaWrite | Opcode::RdmaWriteImm(_) => {
                self.stats.bytes_on_wire += bytes;
                let (addr, rkey) = wr.remote.expect("checked above");
                let imm = match wr.opcode {
                    Opcode::RdmaWriteImm(v) => Some(v),
                    _ => None,
                };
                let data = Self::gather(&wr.sges, &mem.space);
                match self.cfg.copy_mode {
                    ShmCopyMode::Double => {
                        let (in_done, doorbell, floor) =
                            self.charge_bounce_in(ready_at, node, bytes);
                        if wr.signaled {
                            self.sched_local(
                                sink,
                                node,
                                Cqe {
                                    peer,
                                    wr_id: wr.wr_id,
                                    is_recv: false,
                                    byte_len: bytes,
                                    imm: None,
                                    status: CqeStatus::Success,
                                },
                                in_done,
                            );
                        }
                        self.sched_arrive(
                            doorbell,
                            peer,
                            ShmXfer {
                                src: node,
                                kind: ShmKind::Write {
                                    wr_id: wr.wr_id,
                                    addr,
                                    rkey,
                                    data,
                                    imm,
                                    signaled: false,
                                    pipe_floor: floor,
                                    placed: false,
                                },
                            },
                            sink,
                        );
                    }
                    ShmCopyMode::Single => {
                        // The sender pushes directly into the peer's
                        // pages (process_vm_writev): pack-on-send
                        // placement, charged on the sender's engine.
                        let push_done = self.charge_cma(ready_at, node, bytes);
                        if wr.signaled {
                            self.sched_local(
                                sink,
                                node,
                                Cqe {
                                    peer,
                                    wr_id: wr.wr_id,
                                    is_recv: false,
                                    byte_len: bytes,
                                    imm: None,
                                    status: CqeStatus::Success,
                                },
                                push_done,
                            );
                        }
                        self.sched_arrive(
                            push_done + self.cfg.doorbell_ns,
                            peer,
                            ShmXfer {
                                src: node,
                                kind: ShmKind::Write {
                                    wr_id: wr.wr_id,
                                    addr,
                                    rkey,
                                    data,
                                    imm,
                                    signaled: false,
                                    pipe_floor: 0,
                                    placed: false,
                                },
                            },
                            sink,
                        );
                    }
                }
            }
            Opcode::RdmaRead => {
                let (addr, rkey) = wr.remote.expect("checked above");
                if let Err(e) = mems[peer as usize].regs.check(rkey, addr, bytes) {
                    self.sched_local(
                        sink,
                        node,
                        Cqe {
                            peer,
                            wr_id: wr.wr_id,
                            is_recv: false,
                            byte_len: 0,
                            imm: None,
                            status: CqeStatus::RemoteAccess(e),
                        },
                        ready_at,
                    );
                    return Ok(());
                }
                self.stats.bytes_on_wire += bytes;
                let data = Payload::build(bytes as usize, |v| {
                    v.extend_from_slice(
                        mems[peer as usize]
                            .space
                            .slice(addr, bytes)
                            .expect("rkey check guarantees bounds"),
                    )
                });
                let done = match self.cfg.copy_mode {
                    ShmCopyMode::Double => {
                        // The responder's progress engine packs into
                        // the segment after the doorbell; the
                        // requester unpacks out.
                        let (chunks, per) = self.cfg.bounce_chunks(bytes);
                        let in_done = self.nodes[peer as usize].engine.reserve_labeled(
                            ready_at + self.cfg.doorbell_ns,
                            per * chunks,
                            "wire",
                        );
                        let in_start = in_done - per * chunks;
                        let floor = in_start
                            + two_stage_finish_ns(chunks, self.cfg.slots(), |_| per, |_| per);
                        self.stats.shm_bounce_chunks += chunks;
                        self.node_stats[peer as usize].shm_bounce_chunks += chunks;
                        self.charge_bounce_out(in_start + per, node, bytes, floor)
                    }
                    ShmCopyMode::Single => self.charge_cma(ready_at, node, bytes),
                };
                self.sched_arrive(
                    done,
                    node,
                    ShmXfer {
                        src: peer,
                        kind: ShmKind::ReadResponse {
                            wr_id: wr.wr_id,
                            data,
                            scatter: wr.sges,
                            signaled: wr.signaled,
                        },
                    },
                    sink,
                );
            }
        }
        Ok(())
    }

    fn post_send_list(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        for wr in wrs {
            Transport::post_send(self, ready_at, node, peer, wr, mems, sink)?;
        }
        Ok(())
    }

    fn post_recv(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        if peer as usize >= self.nodes.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        self.validate_sges(&wr.sges, &mems[node as usize])?;
        let n = &mut self.nodes[node as usize];
        n.recvq[peer as usize].push_back(wr);
        if !n.parked[peer as usize].is_empty() {
            sink(now, NicEvent::RnrRetry { node, peer });
        }
        Ok(())
    }

    fn handle(
        &mut self,
        now: Time,
        ev: NicEvent,
        mems: &mut [NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
        out: &mut Vec<(u32, Cqe)>,
    ) {
        match ev {
            NicEvent::ShmArrive { dst, id } => {
                let xfer = self
                    .inflight
                    .remove(Handle::from_bits(id))
                    .expect("shm transfers are never flushed");
                self.deliver(now, dst, xfer, mems, sink, out);
            }
            NicEvent::LocalCqe { node, cqe } => {
                self.stats.cqes += 1;
                out.push((node, cqe));
            }
            NicEvent::RnrRetry { node, peer } => {
                self.drain_parked(now, node, peer, mems, sink, out)
            }
            other => unreachable!("shm channel received fabric-only event {other:?}"),
        }
    }

    fn cq_consume(&mut self, _node: u32, _n: usize) {}

    fn cq_peak(&self, _node: u32) -> usize {
        0
    }

    fn recvq_len(&self, node: u32, peer: u32) -> usize {
        self.nodes[node as usize].recvq[peer as usize].len()
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            plan.is_inert(),
            "the shared-memory transport does not support fault injection"
        );
    }

    fn faults_active(&self) -> bool {
        false
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        None
    }

    fn fault_events(&self) -> Vec<(Time, NicEvent)> {
        Vec::new()
    }

    fn qp_errored(&self, _node: u32, _peer: u32) -> bool {
        false
    }

    fn reestablish_qp(&mut self, _node: u32, _peer: u32) {}

    fn node_down(&self, _node: u32) -> bool {
        false
    }

    fn node_will_restart(&self, _node: u32) -> bool {
        // Vacuously true, matching the fabric's no-fault-plan answer:
        // nothing is permanently down on this backend.
        true
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }

    fn node_stats(&self) -> &[FabricStats] {
        &self.node_stats
    }

    fn tx_engine(&self, node: u32) -> &SerialResource {
        &self.nodes[node as usize].engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShmConfig {
        ShmConfig::default()
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(cfg().validate(), Ok(()));
    }

    #[test]
    fn zero_segment_rejected() {
        let c = ShmConfig {
            seg_bytes: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroSegment));
    }

    #[test]
    fn zero_slot_rejected() {
        let c = ShmConfig {
            slot_bytes: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroSlot));
    }

    #[test]
    fn oversized_slot_rejected() {
        let c = ShmConfig {
            seg_bytes: 4096,
            slot_bytes: 8192,
            ..cfg()
        };
        assert_eq!(
            c.validate(),
            Err(ShmConfigError::SlotExceedsSegment {
                slot: 8192,
                seg: 4096
            })
        );
    }

    #[test]
    fn ragged_segment_rejected() {
        let c = ShmConfig {
            seg_bytes: 10_000,
            slot_bytes: 4096,
            ..cfg()
        };
        assert_eq!(
            c.validate(),
            Err(ShmConfigError::SegmentNotSlotMultiple {
                slot: 4096,
                seg: 10_000
            })
        );
    }

    #[test]
    fn zero_bandwidths_rejected() {
        let c = ShmConfig {
            bounce_bw_bps: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroBounceBandwidth));
        let c = ShmConfig {
            cma_bw_bps: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroCmaBandwidth));
        let c = ShmConfig { max_sge: 0, ..cfg() };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroMaxSge));
    }

    #[test]
    fn errors_display_mentions_field() {
        let msg = ShmConfigError::SlotExceedsSegment {
            slot: 8192,
            seg: 4096,
        }
        .to_string();
        assert!(msg.contains("slot_bytes"), "{msg}");
        assert!(msg.contains("8192"), "{msg}");
    }
}
