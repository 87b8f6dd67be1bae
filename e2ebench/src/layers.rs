//! Per-layer counts read from outside the program after a run —
//! `RunStats`, the always-on CPU and NIC span traces, and the scale
//! report — plus the host-time replays that split a run's wall time
//! by layer.
//!
//! Every virtual-clock number here is exact and repeats from run to
//! run. The replayed host numbers re-execute one layer's public
//! functions over the work a point did; they estimate that layer's
//! share of the run, they do not observe it.

use ibdt_datatype::{Datatype, TransferPlan};
use ibdt_mpicore::{Cluster, RunStats};
use ibdt_simcore::queue::EventQueue;
use ibdt_workloads::ScaleReport;
use std::hint::black_box;
use std::time::Instant;

/// Counts summed over a pass's points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// `datatype`: bytes moved by the pack/unpack kernels.
    pub bytes_copied: u64,
    /// `datatype`: plan-cache hits.
    pub plan_hits: u64,
    /// `datatype`: plan-cache misses (plan compiles).
    pub plan_misses: u64,
    /// `memreg`: register plus deregister operations.
    pub reg_ops: u64,
    /// `memreg`: pin-down cache hits.
    pub pindown_hits: u64,
    /// `memreg`: pin-down cache misses.
    pub pindown_misses: u64,
    /// `memreg`: CPU time in `reg`, `dereg` and `hint-reg` spans.
    pub virt_reg_ns: u64,
    /// `ibsim`: work requests processed.
    pub wqes: u64,
    /// `ibsim`: payload bytes on links.
    pub bytes_on_wire: u64,
    /// `ibsim`: NIC transmit time in `wire` spans.
    pub virt_wire_ns: u64,
    /// `ibsim`: retransmits, RNR events and RNR retries.
    pub retries: u64,
    /// `mpicore`: CPU time in `pack` spans.
    pub virt_pack_ns: u64,
    /// `mpicore`: CPU time in `unpack` spans.
    pub virt_unpack_ns: u64,
    /// `mpicore`: CPU time in `post` and `post-recv` spans.
    pub virt_post_ns: u64,
    /// `mpicore`: CPU time in `ctrl` spans.
    pub virt_ctrl_ns: u64,
    /// `mpicore`: sender pack overlapping its own NIC's wire time.
    pub virt_overlap_ns: u64,
    /// `mpicore`: CPU busy time, all ranks.
    pub virt_cpu_busy_ns: u64,
    /// `mpicore`: ranks × finish time — the denominator of the busy
    /// fraction.
    pub virt_rank_ns: u64,
    /// `mpicore`: scratch-pool reuses.
    pub scratch_reuses: u64,
    /// `mpicore`: scratch-pool fresh allocations.
    pub scratch_allocs: u64,
    /// `ibsim` payload slab pool: fresh allocations.
    pub payload_fresh: u64,
    /// `ibsim` payload slab pool: reuses.
    pub payload_reuses: u64,
    /// `simcore`: events scheduled.
    pub events: u64,
    /// `scale`: messages delivered.
    pub msgs: u64,
    /// `scale`: conservative windows executed.
    pub rounds: u64,
    /// `scale`: model state, bytes per rank.
    pub state_bytes_per_rank: u64,
    /// `scale`: virtual finish time.
    pub virt_finish_ns: u64,
}

impl Layers {
    /// Reads one finished cluster run.
    pub fn from_cluster(c: &Cluster, s: &RunStats) -> Layers {
        let n = c.nprocs();
        let cpu = |labels: &[&str]| -> u64 {
            (0..n)
                .map(|r| {
                    let t = c.cpu_trace(r);
                    labels.iter().map(|l| t.busy_with_label(l)).sum::<u64>()
                })
                .sum()
        };
        let sum2 = |v: &[(u64, u64)]| v.iter().fold((0, 0), |a, x| (a.0 + x.0, a.1 + x.1));
        let sum3 = |v: &[(u64, u64, u64)]| v.iter().fold((0, 0), |a, x| (a.0 + x.0, a.1 + x.1));
        let (reg, dereg) = sum2(&s.reg_ops);
        let (pin_hit, pin_miss) = sum3(&s.pindown);
        let (plan_hit, plan_miss) = sum3(&s.plan_cache);
        let (scratch_reuse, scratch_alloc) = sum2(&s.scratch_pool);
        Layers {
            bytes_copied: s.bytes_copied,
            plan_hits: plan_hit,
            plan_misses: plan_miss,
            reg_ops: reg + dereg,
            pindown_hits: pin_hit,
            pindown_misses: pin_miss,
            virt_reg_ns: cpu(&["reg", "dereg", "hint-reg"]),
            wqes: s.wqes,
            bytes_on_wire: s.bytes_on_wire,
            virt_wire_ns: (0..n).map(|r| c.tx_trace(r).busy_with_label("wire")).sum(),
            retries: s.retransmits + s.rnr_events + s.rnr_backoff_retries,
            virt_pack_ns: cpu(&["pack"]),
            virt_unpack_ns: cpu(&["unpack"]),
            virt_post_ns: cpu(&["post", "post-recv"]),
            virt_ctrl_ns: cpu(&["ctrl"]),
            virt_overlap_ns: s.pack_wire_overlap_ns.iter().sum(),
            virt_cpu_busy_ns: s.cpu_busy_ns.iter().sum(),
            virt_rank_ns: n as u64 * s.finish_ns,
            scratch_reuses: scratch_reuse,
            scratch_allocs: scratch_alloc,
            payload_fresh: s.payload_pool.0,
            payload_reuses: s.payload_pool.1,
            events: s.events_scheduled,
            ..Layers::default()
        }
    }

    /// Reads one scale-driver report.
    pub fn from_scale(r: &ScaleReport) -> Layers {
        Layers {
            msgs: r.msgs,
            rounds: r.rounds,
            state_bytes_per_rank: (r.state_bytes / r.ranks as usize) as u64,
            virt_finish_ns: r.finish_ns,
            ..Layers::default()
        }
    }

    /// Adds another point's counts.
    pub fn add(&mut self, o: &Layers) {
        self.bytes_copied += o.bytes_copied;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.reg_ops += o.reg_ops;
        self.pindown_hits += o.pindown_hits;
        self.pindown_misses += o.pindown_misses;
        self.virt_reg_ns += o.virt_reg_ns;
        self.wqes += o.wqes;
        self.bytes_on_wire += o.bytes_on_wire;
        self.virt_wire_ns += o.virt_wire_ns;
        self.retries += o.retries;
        self.virt_pack_ns += o.virt_pack_ns;
        self.virt_unpack_ns += o.virt_unpack_ns;
        self.virt_post_ns += o.virt_post_ns;
        self.virt_ctrl_ns += o.virt_ctrl_ns;
        self.virt_overlap_ns += o.virt_overlap_ns;
        self.virt_cpu_busy_ns += o.virt_cpu_busy_ns;
        self.virt_rank_ns += o.virt_rank_ns;
        self.scratch_reuses += o.scratch_reuses;
        self.scratch_allocs += o.scratch_allocs;
        self.payload_fresh += o.payload_fresh;
        self.payload_reuses += o.payload_reuses;
        self.events += o.events;
        self.msgs += o.msgs;
        self.rounds += o.rounds;
        self.state_bytes_per_rank += o.state_bytes_per_rank;
        self.virt_finish_ns += o.virt_finish_ns;
    }

    /// The virtual-clock and count fields, which must repeat exactly on
    /// every traced pass. Pool counters are host-side recycling state
    /// and are left out.
    pub fn exact(&self) -> Layers {
        Layers {
            scratch_reuses: 0,
            scratch_allocs: 0,
            payload_fresh: 0,
            payload_reuses: 0,
            ..self.clone()
        }
    }
}

/// `hits / (hits + misses)`, or 0 when nothing was attempted.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Replays `TransferPlan::pack` then `unpack` over one instance of `ty`
/// until at least `bytes` have been copied; returns host ns. The plan
/// is compiled before the timer starts.
pub fn replay_kernels(ty: &Datatype, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let plan = TransferPlan::compile(ty, 1);
    let total = plan.total_bytes();
    let (lo, hi) = plan.envelope();
    let base = usize::try_from(-lo.min(0)).expect("envelope fits in memory");
    let len = usize::try_from(hi - lo.min(0)).expect("envelope fits in memory");
    let mut user: Vec<u8> = (0..len).map(|i| i as u8).collect();
    let mut packed = vec![0u8; total as usize];
    let t = Instant::now();
    let mut done = 0;
    while done < bytes {
        plan.pack(0, total, &user, base, &mut packed)
            .expect("replay pack in bounds");
        plan.unpack(0, total, black_box(&packed), &mut user, base)
            .expect("replay unpack in bounds");
        black_box(&mut user);
        done += 2 * total;
    }
    t.elapsed().as_nanos() as u64
}

/// Median host µs of `TransferPlan::compile` for one instance of `ty`,
/// over 5 compiles.
pub fn compile_us(ty: &Datatype) -> f64 {
    let mut v: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(TransferPlan::compile(black_box(ty), 1));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[2]
}

/// Replays `events` schedule/pop pairs through an `EventQueue` held at
/// `depth` pending events with seeded time steps; returns host ns.
pub fn replay_queue(events: u64, depth: u64, seed: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = seed | 1;
    let mut step = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        1 + (rng & 4095)
    };
    for i in 0..depth {
        q.schedule(step(), i);
    }
    let t = Instant::now();
    for _ in 0..events {
        let (now, e) = q.pop().expect("queue held at depth");
        q.schedule(now + step(), black_box(e));
    }
    t.elapsed().as_nanos() as u64
}
