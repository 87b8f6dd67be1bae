//! Arrival-time placement: the fabric reads a posted source when it
//! places the transfer, straight from the sender's registered memory.
//!
//! Verbs promise nothing about a posted buffer until its completion, so
//! the bytes a transfer delivers are the source's bytes at placement:
//! a write to the source after the post but before arrival is
//! delivered, a write after the sender's completion is not. The source
//! keys are checked again at placement; a registration torn down
//! before arrival ends the work request with a typed
//! [`CqeStatus::LocalProtection`] completion, places nothing and errors
//! the queue pair.

use ibdt_ibsim::{
    Cqe, CqeStatus, Fabric, NetConfig, NicEvent, NodeMem, Opcode, RecvWr, SendWr, Sge,
};
use ibdt_memreg::{MemError, MrHandle};
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;

struct Harness {
    fabric: Fabric,
    mems: Vec<NodeMem>,
    log: Vec<(u32, Cqe)>,
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
        self.log.extend(done);
    }
}

const LEN: u64 = 4096;

fn harness() -> Harness {
    Harness {
        fabric: Fabric::new(2, NetConfig::default()),
        mems: (0..2).map(|_| NodeMem::new(1 << 20)).collect(),
        log: Vec::new(),
    }
}

/// A registered, zeroed `LEN`-byte buffer on `node`: `(addr, key)`.
fn reg_buf(h: &mut Harness, node: usize) -> (u64, u32) {
    let addr = h.mems[node].space.alloc_page_aligned(LEN).unwrap();
    (addr, h.mems[node].regs.register(addr, LEN).lkey)
}

fn sge(addr: u64, len: u64, lkey: u32) -> Sge {
    Sge { addr, len, lkey }
}

fn post_send(h: &mut Harness, eng: &mut Engine<Harness>, wr: SendWr) {
    let mut evs = Vec::new();
    h.fabric
        .post_send(0, 0, 1, wr, &h.mems, &mut |t, e| evs.push((t, e)))
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
}

fn post_recv(h: &mut Harness, eng: &mut Engine<Harness>, at: Time, addr: u64, lkey: u32) {
    let mut evs = Vec::new();
    let wr = RecvWr {
        wr_id: 900,
        sges: vec![sge(addr, LEN, lkey)].into(),
    };
    h.fabric
        .post_recv(at, 1, 0, wr, &h.mems, &mut |t, e| evs.push((t, e)))
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
}

fn write_wr(src: u64, lkey: u32, dst: u64, rkey: u32) -> SendWr {
    SendWr {
        wr_id: 1,
        opcode: Opcode::RdmaWrite,
        sges: vec![sge(src, LEN, lkey)].into(),
        remote: Some((dst, rkey)),
        signaled: true,
    }
}

/// The sender-side completion of work request `wr_id`.
fn send_cqe(h: &Harness, wr_id: u64) -> Cqe {
    h.log
        .iter()
        .find(|(node, c)| *node == 0 && !c.is_recv && c.wr_id == wr_id)
        .map(|&(_, c)| c)
        .expect("sender completion")
}

fn fill(h: &mut Harness, node: usize, addr: u64, byte: u8) {
    h.mems[node].space.fill(addr, LEN, byte).unwrap();
}

/// Asserts that every byte of the `LEN`-byte buffer at `addr` on
/// `node` is `byte`, naming the first one that is not.
#[track_caller]
fn assert_all(h: &Harness, node: usize, addr: u64, byte: u8) {
    let got = h.mems[node].space.read(addr, LEN).unwrap();
    if let Some(i) = got.iter().position(|&b| b != byte) {
        panic!("node {node} byte {i}: {:#04x}, want {byte:#04x}", got[i]);
    }
}

#[test]
fn write_delivers_the_source_bytes_at_arrival() {
    let mut h = harness();
    let mut eng = Engine::new();
    let (src, lkey) = reg_buf(&mut h, 0);
    let (dst, rkey) = reg_buf(&mut h, 1);
    fill(&mut h, 0, src, 0xAA);
    post_send(&mut h, &mut eng, write_wr(src, lkey, dst, rkey));
    // Posted, not yet placed: the placement reads these bytes.
    fill(&mut h, 0, src, 0xBB);
    eng.run_to_quiescence(&mut h, 1_000);
    assert!(send_cqe(&h, 1).status.is_ok());
    assert_all(&h, 1, dst, 0xBB);
    // After the sender's completion the buffer is the sender's again.
    fill(&mut h, 0, src, 0xCC);
    eng.run_to_quiescence(&mut h, 1_000);
    assert_all(&h, 1, dst, 0xBB);
}

#[test]
fn parked_send_reads_its_source_when_a_receive_arrives() {
    let mut h = harness();
    let mut eng = Engine::new();
    let (src, lkey) = reg_buf(&mut h, 0);
    let (dst, dkey) = reg_buf(&mut h, 1);
    fill(&mut h, 0, src, 0x11);
    post_send(
        &mut h,
        &mut eng,
        SendWr {
            wr_id: 2,
            opcode: Opcode::Send,
            sges: vec![sge(src, LEN / 2, lkey), sge(src + LEN / 2, LEN / 2, lkey)].into(),
            remote: None,
            signaled: true,
        },
    );
    // No receive posted: the send parks (RNR) without completing.
    eng.run_to_quiescence(&mut h, 1_000);
    assert_eq!(h.fabric.stats().rnr_events, 1);
    assert!(h.log.is_empty());
    fill(&mut h, 0, src, 0x22);
    let now = eng.now();
    post_recv(&mut h, &mut eng, now, dst, dkey);
    eng.run_to_quiescence(&mut h, 1_000);
    assert!(send_cqe(&h, 2).status.is_ok());
    assert_all(&h, 1, dst, 0x22);
}

#[test]
fn read_response_reads_the_responder_at_arrival() {
    let mut h = harness();
    let mut eng = Engine::new();
    let (local, lkey) = reg_buf(&mut h, 0);
    let (remote, rkey) = reg_buf(&mut h, 1);
    fill(&mut h, 1, remote, 0x33);
    post_send(
        &mut h,
        &mut eng,
        SendWr {
            wr_id: 3,
            opcode: Opcode::RdmaRead,
            sges: vec![sge(local, LEN, lkey)].into(),
            remote: Some((remote, rkey)),
            signaled: true,
        },
    );
    // The request reaches the responder and launches the response.
    assert!(eng.step(&mut h));
    assert!(!eng.is_quiescent(), "response in flight");
    fill(&mut h, 1, remote, 0x44);
    eng.run_to_quiescence(&mut h, 1_000);
    assert!(send_cqe(&h, 3).status.is_ok());
    assert_all(&h, 0, local, 0x44);
}

#[test]
fn deregistered_write_source_fails_with_local_protection() {
    let mut h = harness();
    let mut eng = Engine::new();
    let (src, lkey) = reg_buf(&mut h, 0);
    let (dst, rkey) = reg_buf(&mut h, 1);
    fill(&mut h, 0, src, 0xAA);
    post_send(&mut h, &mut eng, write_wr(src, lkey, dst, rkey));
    h.mems[0].regs.deregister(MrHandle(lkey)).unwrap();
    eng.run_to_quiescence(&mut h, 1_000);
    assert_eq!(
        send_cqe(&h, 1).status,
        CqeStatus::LocalProtection(MemError::BadKey { key: lkey })
    );
    assert_all(&h, 1, dst, 0); // no bytes placed
    assert!(h.fabric.qp_errored(0, 1));
    assert_eq!(h.fabric.stats().qp_errors, 1);
}

#[test]
fn deregistered_send_source_places_nothing_and_keeps_the_receive() {
    let mut h = harness();
    let mut eng = Engine::new();
    // Two gather elements under two registrations; only the second
    // one is torn down, and still not a byte of the first lands.
    let (a, akey) = reg_buf(&mut h, 0);
    let (b, bkey) = reg_buf(&mut h, 0);
    let (dst, dkey) = reg_buf(&mut h, 1);
    fill(&mut h, 0, a, 0x55);
    fill(&mut h, 0, b, 0x66);
    post_recv(&mut h, &mut eng, 0, dst, dkey);
    post_send(
        &mut h,
        &mut eng,
        SendWr {
            wr_id: 4,
            opcode: Opcode::Send,
            sges: vec![sge(a, 64, akey), sge(b, 64, bkey)].into(),
            remote: None,
            signaled: true,
        },
    );
    h.mems[0].regs.deregister(MrHandle(bkey)).unwrap();
    eng.run_to_quiescence(&mut h, 1_000);
    assert_eq!(
        send_cqe(&h, 4).status,
        CqeStatus::LocalProtection(MemError::BadKey { key: bkey })
    );
    assert!(
        h.log.iter().all(|(_, c)| !c.is_recv),
        "no receive completion"
    );
    assert_all(&h, 1, dst, 0); // no bytes placed
    assert_eq!(
        h.fabric.recvq_len(1, 0),
        1,
        "receive descriptor still posted"
    );
    assert!(h.fabric.qp_errored(0, 1));
}
