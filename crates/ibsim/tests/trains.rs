//! Doorbell trains: a post list's maximal runs of consecutive
//! unsignaled plain RDMA writes travel as one arrival event.
//!
//! The train fires at its last member's arrival time and takes that
//! member's place in the event order, so for a protocol that keeps the
//! verbs contract (no touching a posted buffer before a later completion
//! on the same queue pair) nothing observable moves: the same bytes
//! land, the same completions appear at the same instants in the same
//! order, and every member keeps its own transmit-engine reservation.
//! The one visible difference is reserved for misuse — a key torn down
//! under an in-flight member faults when the train arrives.

use ibdt_ibsim::{
    Cqe, CqeStatus, Fabric, FabricStats, NetConfig, NicEvent, NodeMem, Opcode, RecvWr, SendWr,
    Sge, SgeList,
};
use ibdt_memreg::{MemError, MrHandle};
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;
use ibdt_simcore::trace::Span;

struct Harness {
    fabric: Fabric,
    mems: Vec<NodeMem>,
    /// Every completion with the instant it became visible and, for a
    /// receive completion, a hash of the receiving node's target
    /// windows then: what its protocol may read once the completion
    /// announces the data. (A send completion logs 0: the peer may
    /// still be receiving the writes posted after it.)
    log: Vec<(Time, u32, Cqe, u64)>,
    /// `(node, addr)` of the `WIN`-byte windows the hash covers.
    windows: Vec<(usize, u64)>,
}

impl World for Harness {
    type Event = NicEvent;
    fn handle(&mut self, sched: &mut Scheduler<'_, NicEvent>, ev: NicEvent) {
        let now = sched.now();
        let mut done = Vec::new();
        self.fabric.handle(
            now,
            ev,
            &mut self.mems,
            &mut |t, e| sched.at(t, e),
            &mut done,
        );
        for (n, c) in done {
            let seen = if c.is_recv { self.windows_hash(n) } else { 0 };
            self.log.push((now, n, c, seen));
        }
    }
}

impl Harness {
    /// FNV-1a over node `node`'s target windows.
    fn windows_hash(&self, node: u32) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(n, addr) in &self.windows {
            if n != node as usize {
                continue;
            }
            for &b in self.mems[n].space.slice(addr, WIN).unwrap() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}

/// Bytes of each node's source and target windows.
const WIN: u64 = 64 * 1024;
/// When every list reaches the HCA.
const READY: Time = 1_000;

/// One node's registered windows: `src` (patterned) and `dst`.
#[derive(Clone, Copy)]
struct Bufs {
    src: u64,
    lkey: u32,
    dst: u64,
    rkey: u32,
    recv: u64,
    recv_key: u32,
}

fn harness() -> (Harness, [Bufs; 2]) {
    let mut h = Harness {
        fabric: Fabric::new(2, NetConfig::default()),
        mems: (0..2).map(|_| NodeMem::new(1 << 20)).collect(),
        log: Vec::new(),
        windows: Vec::new(),
    };
    let bufs = [0usize, 1].map(|n| {
        let mem = &mut h.mems[n];
        let src = mem.space.alloc_page_aligned(WIN).unwrap();
        let dst = mem.space.alloc_page_aligned(WIN).unwrap();
        let recv = mem.space.alloc_page_aligned(WIN).unwrap();
        for i in 0..WIN {
            mem.space
                .write(src + i, &[(i as u8).wrapping_mul(7) ^ n as u8])
                .unwrap();
        }
        Bufs {
            src,
            lkey: mem.regs.register(src, WIN).lkey,
            dst,
            rkey: mem.regs.register(dst, WIN).rkey,
            recv,
            recv_key: mem.regs.register(recv, WIN).lkey,
        }
    });
    h.windows = (0..2)
        .flat_map(|n| [(n, bufs[n].dst), (n, bufs[n].recv)])
        .collect();
    (h, bufs)
}

fn sges(pieces: &[(u64, u64)], lkey: u32) -> SgeList {
    pieces
        .iter()
        .map(|&(addr, len)| Sge { addr, len, lkey })
        .collect()
}

/// A list mixing every opcode: runs of unsignaled plain writes (some
/// gathering several pieces) broken by a write-with-immediate, a send,
/// an RDMA read and a signaled write, which each travel alone.
fn mixed_list(me: &Bufs, peer: &Bufs) -> Vec<SendWr> {
    let mut wrs = Vec::new();
    let mut id = 0u64;
    let mut off = 0u64;
    let mut write = |wrs: &mut Vec<SendWr>, pieces: u64, len: u64, opcode, signaled| {
        let gather: Vec<(u64, u64)> = (0..pieces)
            .map(|p| (me.src + off + p * 2 * len, len))
            .collect();
        id += 1;
        wrs.push(SendWr {
            wr_id: id,
            opcode,
            sges: sges(&gather, me.lkey),
            remote: Some((peer.dst + off, peer.rkey)),
            signaled,
        });
        off += 2 * pieces * len;
    };
    for (pieces, len) in [(1, 8), (1, 8), (3, 16), (1, 512), (2, 8)] {
        write(&mut wrs, pieces, len, Opcode::RdmaWrite, false);
    }
    write(&mut wrs, 1, 64, Opcode::RdmaWriteImm(7), true);
    for (pieces, len) in [(1, 8), (4, 8), (1, 1024)] {
        write(&mut wrs, pieces, len, Opcode::RdmaWrite, false);
    }
    wrs.push(SendWr {
        wr_id: 100,
        opcode: Opcode::Send,
        sges: sges(&[(me.src, 256)], me.lkey),
        remote: None,
        signaled: true,
    });
    write(&mut wrs, 1, 8, Opcode::RdmaWrite, false);
    wrs.push(SendWr {
        wr_id: 101,
        opcode: Opcode::RdmaRead,
        sges: sges(&[(me.dst + WIN - 512, 512)], me.rkey),
        remote: Some((peer.src, peer.lkey)),
        signaled: false,
    });
    for (pieces, len) in [(1, 8), (1, 8), (2, 32), (1, 8)] {
        write(&mut wrs, pieces, len, Opcode::RdmaWrite, false);
    }
    write(&mut wrs, 1, 8, Opcode::RdmaWrite, true);
    wrs
}

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Outcome {
    mem: Vec<Vec<u8>>,
    log: Vec<(Time, u32, Cqe, u64)>,
    spans: Vec<Vec<Span>>,
    stats: FabricStats,
}

/// Posts `mixed_list` both ways at `READY` — as two lists, or as one
/// one-element list per WR — and runs to quiescence. Returns what the
/// run left observable (final windows, every completion with the
/// windows' contents when it appeared, `wire` spans, counters) and how
/// many events the engine handled.
fn run(as_lists: bool) -> (Outcome, u64) {
    let (mut h, bufs) = harness();
    let mut eng = Engine::new();
    for (node, peer) in [(0u32, 1u32), (1, 0)] {
        let b = bufs[node as usize];
        for k in 0..2 {
            let wr = RecvWr {
                wr_id: 900 + k,
                sges: sges(&[(b.recv + k * 4096, 4096)], b.recv_key),
            };
            let mut evs = Vec::new();
            h.fabric
                .post_recv(0, node, peer, wr, &h.mems, &mut |t, e| evs.push((t, e)))
                .unwrap();
            assert!(evs.is_empty());
        }
    }
    for (node, peer) in [(0u32, 1u32), (1, 0)] {
        let wrs = mixed_list(&bufs[node as usize], &bufs[peer as usize]);
        let lists = if as_lists {
            vec![wrs]
        } else {
            wrs.into_iter().map(|wr| vec![wr]).collect()
        };
        let mut evs = Vec::new();
        for list in lists {
            h.fabric
                .post_send_list(READY, node, peer, list, &h.mems, &mut |t, e| {
                    evs.push((t, e))
                })
                .unwrap();
        }
        for (t, e) in evs {
            eng.seed(t, e);
        }
    }
    eng.run_to_quiescence(&mut h, 10_000);
    let mem = bufs
        .iter()
        .enumerate()
        .flat_map(|(n, b)| [b.dst, b.recv].map(|a| h.mems[n].space.read(a, WIN).unwrap()))
        .collect();
    let spans = (0..2)
        .map(|n| h.fabric.tx_engine(n).trace().unwrap().spans().to_vec())
        .collect();
    let out = Outcome {
        mem,
        log: h.log,
        spans,
        stats: h.fabric.stats(),
    };
    (out, eng.handled())
}

#[test]
fn a_post_list_equals_one_element_lists_at_the_same_instant() {
    let (trains, train_events) = run(true);
    let (single, single_events) = run(false);
    assert!(trains.log.iter().all(|(_, _, c, _)| c.status.is_ok()));
    assert_eq!(trains.stats.wqes, 2 * 17 + 2, "every WR and read response");
    assert_eq!(trains, single);
    // Per direction, the runs of 5, 3, 1 and 4 unsignaled plain writes
    // arrive as 4 events instead of 13.
    assert_eq!(single_events - train_events, 2 * (4 + 2 + 3));
}

#[test]
fn a_landed_train_no_longer_reads_its_sources() {
    let (mut h, [a, b]) = harness();
    let mut eng = Engine::new();
    let wrs = mixed_list(&a, &b);
    let members: Vec<(u64, u64, u64)> = wrs[..5]
        .iter()
        .map(|wr| (wr.sges[0].addr, wr.sges[0].len, wr.remote.unwrap().0))
        .collect();
    // The receives that the immediate and the send consume.
    for k in 0..2 {
        let wr = RecvWr {
            wr_id: 900 + k,
            sges: sges(&[(b.recv + k * 4096, 4096)], b.recv_key),
        };
        h.fabric
            .post_recv(0, 1, 0, wr, &h.mems, &mut |_, _| unreachable!())
            .unwrap();
    }
    let mut evs = Vec::new();
    h.fabric
        .post_send_list(READY, 0, 1, wrs, &h.mems, &mut |t, e| evs.push((t, e)))
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    // Posted, not landed: the train reads these bytes when it arrives.
    for &(src, len, _) in &members {
        h.mems[0].space.fill(src, len, 0xAB).unwrap();
    }
    eng.run_to_quiescence(&mut h, 10_000);
    assert!(h.log.iter().any(|(_, n, c, _)| *n == 0 && c.wr_id == 15));
    for &(src, len, dst) in &members {
        h.mems[0].space.fill(src, len, 0xCD).unwrap();
        assert_eq!(h.mems[1].space.read(dst, len).unwrap(), vec![0xAB; len as usize]);
    }
    eng.run_to_quiescence(&mut h, 10_000);
    for &(_, len, dst) in &members {
        assert_eq!(h.mems[1].space.read(dst, len).unwrap(), vec![0xAB; len as usize]);
    }
}

/// Misuse timing: a target key torn down under the first member of a
/// train faults when the train arrives — one event later than the
/// member's own arrival would have — and places none of the members.
#[test]
fn a_key_torn_down_under_a_train_faults_at_the_train_arrival() {
    let fault_time = |as_list: bool| {
        let (mut h, [a, b]) = harness();
        let mut eng = Engine::new();
        let wrs: Vec<SendWr> = mixed_list(&a, &b).into_iter().take(5).collect();
        let lists = if as_list {
            vec![wrs]
        } else {
            wrs.into_iter().map(|wr| vec![wr]).collect()
        };
        let mut evs = Vec::new();
        for list in lists {
            h.fabric
                .post_send_list(READY, 0, 1, list, &h.mems, &mut |t, e| evs.push((t, e)))
                .unwrap();
        }
        for (t, e) in evs {
            eng.seed(t, e);
        }
        h.mems[1].regs.deregister(MrHandle(b.rkey)).unwrap();
        eng.run_to_quiescence(&mut h, 10_000);
        let &(t, _, cqe, _) = h.log.iter().find(|(_, _, c, _)| c.wr_id == 1).unwrap();
        assert_eq!(
            cqe.status,
            CqeStatus::RemoteAccess(MemError::BadKey { key: b.rkey })
        );
        assert!(h.fabric.qp_errored(0, 1));
        assert_eq!(h.mems[1].space.read(b.dst, 4096).unwrap(), vec![0; 4096]);
        let wire = h.fabric.tx_engine(0).trace().unwrap().spans().to_vec();
        (t, wire)
    };
    let (train_t, wire) = fault_time(true);
    let (single_t, _) = fault_time(false);
    let cfg = NetConfig::default();
    let ack = cfg.prop_delay_ns + cfg.cqe_ns;
    let arrival = |span: &Span| span.end + cfg.prop_delay_ns;
    assert_eq!(single_t, arrival(&wire[0]) + ack);
    assert_eq!(train_t, arrival(&wire[4]) + ack);
}
