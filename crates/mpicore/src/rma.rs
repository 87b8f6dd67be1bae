//! MPI-2 one-sided communication (RMA) with derived datatypes.
//!
//! §1 lists remote memory access among the consumers of derived
//! datatypes, and the versioned datatype cache of §5.4.2 originates in
//! Träff et al.'s one-sided implementation (ref [14]). This module
//! provides the fence-synchronized core of MPI-2 RMA:
//!
//! * a **window** exposes a registered region of each rank's memory;
//!   window information (base, length, rkey) is exchanged at creation,
//! * **Put** writes `origin_count` instances of an origin datatype into
//!   a target datatype layout inside the target's window — implemented
//!   exactly like Multi-W (§5.3): one RDMA write per target-contiguous
//!   block with an origin gather list, list-posted,
//! * **Get** mirrors it with RDMA reads: one read per target-contiguous
//!   block scattered into the origin layout (the Read-Scatter feature
//!   of §2),
//! * **Fence** completes all outstanding RMA of the epoch, then
//!   barriers.
//!
//! Both transfers are genuinely one-sided: the target's CPU does no
//! work — only its HCA places or serves data.

use crate::error::MpiError;
use crate::plan::plan_multi_w;
use crate::progress::{Ctx, WR_RMA};
use crate::rank::RankState;
use ibdt_datatype::Datatype;
use ibdt_ibsim::{Opcode, SendWr, Sge};
use ibdt_memreg::{ogr, Va};

/// Window metadata as seen by every rank: one entry per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinEntry {
    /// Base address of the exposed region in the owner's memory.
    pub base: Va,
    /// Length of the exposed region.
    pub len: u64,
    /// rkey granting remote access.
    pub rkey: u32,
}

/// Absolute blocks of `count` instances of `ty` at `buf`.
fn abs_blocks(ty: &Datatype, count: u64, buf: Va) -> Vec<(Va, u64)> {
    ty.flat()
        .repeat(count)
        .into_iter()
        .map(|(o, l)| ((buf as i64 + o) as u64, l))
        .collect()
}

/// Registers the origin buffer blocks (pin-down cached); the
/// registrations are parked on `rs.rma_regs` until the next fence.
fn register_origin(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, blocks: &[(Va, u64)]) {
    let plan = ogr::plan(blocks, &ctx.host.reg);
    let mut cost = 0;
    for &(a, l) in &plan.regions {
        let acq = rs
            .pindown
            .acquire(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, a, l);
        cost += acq.cost_ns;
        rs.rma_regs.push(acq.reg);
    }
    rs.cpu.reserve_labeled(ctx.now(), cost, "reg");
}

fn lkey_for(rs: &RankState, addr: Va, len: u64) -> u32 {
    rs.rma_regs
        .iter()
        .find(|r| r.covers(addr, len))
        .expect("origin blocks registered before posting")
        .lkey
}

/// `MPI_Put`: one-sided write of origin data into the target window at
/// byte offset `target_off`, laid out as `target_count` instances of
/// `target_ty`.
#[allow(clippy::too_many_arguments)]
pub fn put(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    target: u32,
    win: WinEntry,
    origin_buf: Va,
    origin_count: u64,
    origin_ty: &Datatype,
    target_off: u64,
    target_count: u64,
    target_ty: &Datatype,
) {
    assert_eq!(
        origin_count * origin_ty.size(),
        target_count * target_ty.size(),
        "put size mismatch"
    );
    if origin_ty.size() * origin_count == 0 {
        return;
    }
    let origin_blocks = abs_blocks(origin_ty, origin_count, origin_buf);
    let target_blocks = abs_blocks(target_ty, target_count, win.base + target_off);
    for &(a, l) in &target_blocks {
        assert!(
            a >= win.base && a + l <= win.base + win.len,
            "put outside the target window"
        );
    }
    if target == rs.rank {
        local_copy(rs, ctx, &origin_blocks, &target_blocks);
        return;
    }
    register_origin(rs, ctx, &origin_blocks);
    let wrs: Vec<SendWr> = plan_multi_w(&origin_blocks, &target_blocks, ctx.net.max_sge)
        .into_iter()
        .map(|p| SendWr {
            wr_id: WR_RMA,
            opcode: Opcode::RdmaWrite,
            sges: p
                .sges
                .iter()
                .map(|&(a, l)| Sge {
                    addr: a,
                    len: l,
                    lkey: lkey_for(rs, a, l),
                })
                .collect(),
            remote: Some((p.dst, win.rkey)),
            signaled: false,
        })
        .collect();
    post_rma(rs, ctx, target, wrs);
}

/// `MPI_Get`: one-sided read of target-window data into the origin
/// layout.
#[allow(clippy::too_many_arguments)]
pub fn get(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    target: u32,
    win: WinEntry,
    origin_buf: Va,
    origin_count: u64,
    origin_ty: &Datatype,
    target_off: u64,
    target_count: u64,
    target_ty: &Datatype,
) {
    assert_eq!(
        origin_count * origin_ty.size(),
        target_count * target_ty.size(),
        "get size mismatch"
    );
    if origin_ty.size() * origin_count == 0 {
        return;
    }
    let origin_blocks = abs_blocks(origin_ty, origin_count, origin_buf);
    let target_blocks = abs_blocks(target_ty, target_count, win.base + target_off);
    for &(a, l) in &target_blocks {
        assert!(
            a >= win.base && a + l <= win.base + win.len,
            "get outside the target window"
        );
    }
    if target == rs.rank {
        local_copy(rs, ctx, &target_blocks, &origin_blocks);
        return;
    }
    register_origin(rs, ctx, &origin_blocks);
    // One read per target-contiguous range, scattering into origin
    // pieces; plan_multi_w's "receiver" is the remote contiguous side.
    let wrs: Vec<SendWr> = plan_multi_w(&origin_blocks, &target_blocks, ctx.net.max_sge)
        .into_iter()
        .map(|p| SendWr {
            wr_id: WR_RMA,
            opcode: Opcode::RdmaRead,
            sges: p
                .sges
                .iter()
                .map(|&(a, l)| Sge {
                    addr: a,
                    len: l,
                    lkey: lkey_for(rs, a, l),
                })
                .collect(),
            remote: Some((p.dst, win.rkey)),
            signaled: false,
        })
        .collect();
    post_rma(rs, ctx, target, wrs);
}

/// Posts an RMA descriptor list with one signaled sentinel at the end.
fn post_rma(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, target: u32, mut wrs: Vec<SendWr>) {
    let n = wrs.len();
    if n == 0 {
        return;
    }
    if let Some(last) = wrs.last_mut() {
        last.signaled = true;
    }
    rs.rma_outstanding += 1;
    rs.counters.data_wrs += n as u64;
    let res = if ctx.cfg.list_post {
        let ready = rs
            .cpu
            .reserve_labeled(ctx.now(), ctx.net.post_list_ns(n), "post");
        ctx.post_send_list(ready, rs.rank, target, wrs)
    } else {
        let mut res = Ok(());
        for wr in wrs {
            let ready = rs
                .cpu
                .reserve_labeled(ctx.now(), ctx.net.post_single_ns, "post");
            res = ctx.post_send(ready, rs.rank, target, wr);
            if res.is_err() {
                break;
            }
        }
        res
    };
    if let Err(e) = res {
        // Undo the epoch charge so the next fence does not hang waiting
        // for a sentinel completion that will never arrive.
        rs.counters.post_errors += 1;
        rs.errors.push(MpiError::Post {
            peer: target,
            err: e,
        });
        rs.rma_outstanding -= 1;
        rs.rma_event = true;
    }
}

/// Local (self-target) RMA: a datatype-to-datatype memory copy.
fn local_copy(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    src_blocks: &[(Va, u64)],
    dst_blocks: &[(Va, u64)],
) {
    let total: u64 = src_blocks.iter().map(|&(_, l)| l).sum();
    // Gather source bytes, scatter to destination, block by block.
    let mut data = Vec::with_capacity(total as usize);
    {
        let space = &ctx.mems[rs.rank as usize].space;
        for &(a, l) in src_blocks {
            data.extend_from_slice(space.slice(a, l).expect("src in bounds"));
        }
    }
    let space = &mut ctx.mems[rs.rank as usize].space;
    let mut off = 0usize;
    for &(a, l) in dst_blocks {
        space
            .write(a, &data[off..off + l as usize])
            .expect("dst in bounds");
        off += l as usize;
    }
    let blocks = src_blocks.len() + dst_blocks.len();
    let cost = ctx.host.copy_ns(blocks.max(1), total);
    rs.cpu.reserve_labeled(ctx.now(), cost, "pack");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn win_entry_is_plain_data() {
        let w = WinEntry {
            base: 0x1000,
            len: 4096,
            rkey: 7,
        };
        assert_eq!(w, w);
    }
}
