//! End-to-end benchmark of the ibdt simulator on both of its clocks.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <p2p_vector|alltoall_struct|halo_allreduce|scale_alltoall> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --smoke
//! ```
//!
//! One process, one thread: a workload's points run one after another.
//! A first pass warms caches and pools and fixes every point's exact
//! virtual results; timed passes then repeat until `--seconds` have
//! passed. A fixed reference round is timed beside every point, and
//! host times are reported at the nominal speed it defines (see
//! `calib.rs`). Every point of every pass is verified. With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1`
//! untraced and traced passes alternate, the traced ones are read out
//! layer by layer, and their spans are written as Chrome trace-event
//! JSON under `e2ebench/out/`. The exit code is non-zero whenever an
//! output was wrong. See `e2ebench/README.md` for the metric map.

mod calib;
mod golden;
mod layers;
mod points;
mod spans;

use calib::Calib;
use golden::Golden;
use layers::{compile_us, ratio, replay_kernels, replay_queue, Layers};
use points::{run_point, Outcome, Point, Virt, WORKLOADS};
use spans::Spans;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit. Units starting with
/// `virt_` are on the simulated clock; `replay_ms` marks host time
/// measured by replaying one layer's functions outside the run.
const PER_LAYER: [(&str, &str); 36] = [
    ("virt_op_us", "virt_us"),
    ("virt_bw_mbs", "virt_MB/s"),
    ("datatype.bytes_copied", "bytes"),
    ("datatype.plan_compiles", "count"),
    ("datatype.plan_hit_ratio", "ratio"),
    ("datatype.host_kernel_ms", "replay_ms"),
    ("datatype.host_compile_us", "us"),
    ("memreg.reg_ops", "count"),
    ("memreg.pindown_hit_ratio", "ratio"),
    ("memreg.virt_reg_us", "virt_us"),
    ("ibsim.wqes", "count"),
    ("ibsim.bytes_on_wire", "bytes"),
    ("ibsim.virt_wire_us", "virt_us"),
    ("ibsim.retries", "count"),
    ("mpicore.virt_pack_us", "virt_us"),
    ("mpicore.virt_unpack_us", "virt_us"),
    ("mpicore.virt_post_us", "virt_us"),
    ("mpicore.virt_ctrl_us", "virt_us"),
    ("mpicore.virt_overlap_us", "virt_us"),
    ("mpicore.virt_cpu_busy_frac", "ratio"),
    ("mpicore.scratch_hit_ratio", "ratio"),
    ("mpicore.payload_reuse_ratio", "ratio"),
    ("mpicore.host_new_ms", "ms"),
    ("mpicore.host_alloc_fill_ms", "ms"),
    ("simcore.events", "count"),
    ("simcore.host_queue_ms", "replay_ms"),
    ("simcore.host_ns_per_event", "ns"),
    ("mpicore_ibsim.host_residual_ms", "ms"),
    ("scale.msgs", "count"),
    ("scale.rounds", "count"),
    ("scale.state_bytes_per_rank", "bytes"),
    ("scale.virt_finish_ms", "virt_ms"),
    ("scale.host_ns_per_msg", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("host.wall_raw_s", "s"),
    ("host.ref_round_us", "us"),
];

/// Directory of this package; the committed CSVs and
/// `BENCHMARK.json` sit one level up.
fn pkg_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| bad(&e))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err(bad(&"must be within 0..=3600"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !a.smoke && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// One pass over a workload's points.
#[derive(Default)]
struct Pass {
    traced: bool,
    new_ns: u64,
    alloc_fill_ns: u64,
    kernel_ns: u64,
    queue_ns: u64,
    layers: Layers,
    /// Per point, in point order: `Cluster::run` / `run_scale` ns.
    point_run_ns: Vec<u64>,
    /// Per point, in point order: set-up ns.
    point_setup_ns: Vec<u64>,
    keys: Vec<Vec<u64>>,
    virts: Vec<Option<Virt>>,
    /// Per point, in point order: a reference round just before it,
    /// then one more after the last point.
    ref_ns: Vec<u64>,
}

/// Host ns of one reference round at nominal speed: its typical time
/// on the machine the bounds were set on, a 2-vCPU Xeon VM at 2.0 GHz.
/// Calibrated host times are expressed at this speed.
const REF_NOMINAL_NS: f64 = 400_000.0;

impl Pass {
    /// Factor that takes point `i`'s host times to nominal speed: the
    /// nominal reference round over the mean of the rounds just before
    /// and just after the point.
    fn calibration(&self, i: usize) -> f64 {
        let local = (self.ref_ns[i] + self.ref_ns[i + 1]) as f64 / 2.0;
        REF_NOMINAL_NS / local.max(1.0)
    }
}

/// A workload being measured.
struct Bench {
    workload: String,
    points: Vec<Point>,
    seed: u64,
    epoch: Instant,
    spans: Spans,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The first pass: every later pass must repeat its exact results.
    reference: Option<Pass>,
    /// Per-layer counts of the first traced pass; the exact ones must
    /// repeat on every later traced pass.
    traced_layers: Option<Layers>,
    calib: Calib,
}

impl Bench {
    fn new(workload: &str, seed: u64) -> Bench {
        Bench {
            workload: workload.to_owned(),
            points: points::points(workload).expect("workload checked by parse_args"),
            seed,
            epoch: Instant::now(),
            spans: Spans::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            reference: None,
            traced_layers: None,
            calib: Calib::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fail(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("e2ebench: FAIL {msg}");
        }
        self.errors.push(msg);
    }

    /// Runs every point once.
    fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = Pass {
            traced,
            ..Pass::default()
        };
        let pass_start = self.now();
        let pass_span = if traced {
            self.spans
                .record(0, &format!("pass/{}", self.workload), "pass", pass_start, 0)
        } else {
            0
        };
        for i in 0..self.points.len() {
            self.attempted += 1;
            pass.ref_ns.push(self.calib.sample());
            let p = &self.points[i];
            let (seed, epoch) = (self.seed, self.epoch);
            let o = match catch_unwind(AssertUnwindSafe(|| run_point(p, seed, traced, epoch))) {
                Ok(o) => o,
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                        .unwrap_or_default();
                    let name = p.name.clone();
                    self.failed += 1;
                    self.fail(format!("{name}: panicked: {msg}"));
                    pass.keys.push(Vec::new());
                    pass.virts.push(None);
                    pass.point_run_ns.push(0);
                    pass.point_setup_ns.push(0);
                    continue;
                }
            };
            let name = p.name.clone();
            if !o.ok {
                self.failed += 1;
                self.fail(format!("{name}: {}", o.why));
            } else if let Some(r) = &self.reference {
                if r.keys[i] != o.key {
                    self.failed += 1;
                    self.fail(format!(
                        "{name}: exact results {:?} differ from the first pass's {:?} \
                         (traced: {traced})",
                        o.key, r.keys[i]
                    ));
                }
            }
            pass.new_ns += o.host.new.dur;
            pass.alloc_fill_ns += o.host.alloc_fill.dur;
            pass.point_run_ns.push(o.host.run.dur);
            pass.point_setup_ns.push(o.host.setup());
            if traced {
                self.trace_point(&mut pass, pass_span, i, &o);
            }
            pass.keys.push(o.key);
            pass.virts.push(Some(o.virt));
        }
        pass.ref_ns.push(self.calib.sample());
        if traced {
            let end = self.now();
            self.spans.set_dur(pass_span, end - pass_start);
            match &self.traced_layers {
                None => self.traced_layers = Some(pass.layers.clone()),
                Some(l) if l.exact() != pass.layers.exact() => {
                    let msg = format!(
                        "per-layer counts of a traced pass differ from the first traced \
                         pass: {:?} vs {:?}",
                        pass.layers.exact(),
                        l.exact()
                    );
                    self.fail(msg);
                }
                Some(_) => {}
            }
        }
        pass
    }

    /// Replays the point's layers and records its spans.
    fn trace_point(&mut self, pass: &mut Pass, parent: u64, i: usize, o: &Outcome) {
        let h = &o.host;
        let p = &self.points[i];
        let depth = 8 * p.spec.nprocs as u64;
        let pt = self
            .spans
            .record(parent, &p.name, "point", h.types.start, 0);
        let setup_end = h.alloc_fill.start + h.alloc_fill.dur;
        let setup = self.spans.record(
            pt,
            "setup",
            "setup",
            h.types.start,
            setup_end.max(h.types.start) - h.types.start,
        );
        self.spans
            .record(setup, "datatypes", "setup", h.types.start, h.types.dur);
        if h.new.dur > 0 {
            self.spans
                .record(setup, "Cluster::new", "setup", h.new.start, h.new.dur);
            self.spans.record(
                setup,
                "alloc+fill",
                "setup",
                h.alloc_fill.start,
                h.alloc_fill.dur,
            );
        }
        self.spans.record(pt, "run", "run", h.run.start, h.run.dur);
        self.spans
            .record(pt, "verify", "verify", h.verify.start, h.verify.dur);
        let l = o.layers.clone().unwrap_or_default();
        if let Some(ty) = &o.replay_type {
            let start = self.now();
            let ns = replay_kernels(ty, l.bytes_copied);
            self.spans
                .record(pt, "replay.kernels", "replay", start, self.now() - start);
            pass.kernel_ns += ns;
        }
        if l.events > 0 {
            let start = self.now();
            let ns = replay_queue(l.events, depth, self.seed);
            self.spans
                .record(pt, "replay.queue", "replay", start, self.now() - start);
            pass.queue_ns += ns;
        }
        let end = self.now();
        self.spans.set_dur(pt, end - h.types.start);
        pass.layers.add(&l);
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`, or `None` with ten samples or fewer.
fn tail(mut v: Vec<f64>) -> Option<(u64, f64)> {
    let n = v.len() as u64;
    if n <= 10 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let k = 100 * (n - 10) / n;
    let idx = (k * n).div_ceil(100).max(1) - 1;
    Some((k, v[idx as usize]))
}

fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|x| *x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Timed passes, after the warm-up pass, after which the memory
/// high-water mark is read. A fixed count keeps `peak_rss_mb`
/// independent of how many passes the time budget allowed.
const RSS_PASSES: usize = 2;

/// Process memory high-water mark, MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let s = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = s
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order:
/// exact counts from the first traced pass, host times as medians over
/// the traced passes.
fn layer_metrics(
    b: &Bench,
    traced: &[&Pass],
    untraced_run_ms: f64,
    virt_op_us: f64,
    virt_bw_mbs: f64,
) -> [(&'static str, f64); 34] {
    let l = b.traced_layers.clone().unwrap_or_default();
    let host_ms = |f: fn(&Pass) -> u64| median(traced.iter().map(|p| f(p) as f64 / 1e6).collect());
    let run_ms = host_ms(|p| p.point_run_ns.iter().sum());
    let mut types: BTreeMap<String, ibdt_datatype::Datatype> = BTreeMap::new();
    for p in &b.points {
        let (k, ty) = p.kind.datatype();
        types.insert(k, ty);
    }
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let us = |ns: u64| ns as f64 / 1e3;
    [
        ("virt_op_us", virt_op_us),
        ("virt_bw_mbs", virt_bw_mbs),
        ("datatype.bytes_copied", l.bytes_copied as f64),
        ("datatype.plan_compiles", l.plan_misses as f64),
        ("datatype.plan_hit_ratio", ratio(l.plan_hits, l.plan_misses)),
        ("datatype.host_kernel_ms", host_ms(|p| p.kernel_ns)),
        (
            "datatype.host_compile_us",
            types.values().map(compile_us).sum(),
        ),
        ("memreg.reg_ops", l.reg_ops as f64),
        (
            "memreg.pindown_hit_ratio",
            ratio(l.pindown_hits, l.pindown_misses),
        ),
        ("memreg.virt_reg_us", us(l.virt_reg_ns)),
        ("ibsim.wqes", l.wqes as f64),
        ("ibsim.bytes_on_wire", l.bytes_on_wire as f64),
        ("ibsim.virt_wire_us", us(l.virt_wire_ns)),
        ("ibsim.retries", l.retries as f64),
        ("mpicore.virt_pack_us", us(l.virt_pack_ns)),
        ("mpicore.virt_unpack_us", us(l.virt_unpack_ns)),
        ("mpicore.virt_post_us", us(l.virt_post_ns)),
        ("mpicore.virt_ctrl_us", us(l.virt_ctrl_ns)),
        ("mpicore.virt_overlap_us", us(l.virt_overlap_ns)),
        (
            "mpicore.virt_cpu_busy_frac",
            per(l.virt_cpu_busy_ns as f64, l.virt_rank_ns),
        ),
        (
            "mpicore.scratch_hit_ratio",
            ratio(l.scratch_reuses, l.scratch_allocs),
        ),
        (
            "mpicore.payload_reuse_ratio",
            ratio(l.payload_reuses, l.payload_fresh),
        ),
        ("mpicore.host_new_ms", host_ms(|p| p.new_ns)),
        ("mpicore.host_alloc_fill_ms", host_ms(|p| p.alloc_fill_ns)),
        ("simcore.events", l.events as f64),
        ("simcore.host_queue_ms", host_ms(|p| p.queue_ns)),
        ("simcore.host_ns_per_event", per(run_ms * 1e6, l.events)),
        (
            "mpicore_ibsim.host_residual_ms",
            if l.events == 0 {
                0.0
            } else {
                median(
                    traced
                        .iter()
                        .map(|p| {
                            let run: u64 = p.point_run_ns.iter().sum();
                            (run as f64 - p.kernel_ns as f64 - p.queue_ns as f64) / 1e6
                        })
                        .collect(),
                )
            },
        ),
        ("scale.msgs", l.msgs as f64),
        ("scale.rounds", l.rounds as f64),
        ("scale.state_bytes_per_rank", l.state_bytes_per_rank as f64),
        ("scale.virt_finish_ms", l.virt_finish_ns as f64 / 1e6),
        ("scale.host_ns_per_msg", per(run_ms * 1e6, l.msgs)),
        ("trace.overhead_frac", run_ms / untraced_run_ms - 1.0),
    ]
}

/// Everything one invocation measured.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
}

/// Measures `workload` for `seconds`, alternating traced passes in
/// when `trace` is set, and prints the human-readable summary.
fn measure(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let golden = Golden::load(&pkg_dir().join("../results"))?;
    let mut b = Bench::new(workload, seed);
    let reference = b.pass(false);
    let mut csv_cells = 0;
    let mut drift = Vec::new();
    for (p, v) in b.points.iter().zip(&reference.virts) {
        match v.as_ref().map(|v| golden.check(p, v)) {
            Some(Ok(n)) => csv_cells += n,
            Some(Err(e)) => drift.push(e),
            None => {}
        }
    }
    for e in drift {
        b.failed += 1;
        b.fail(e);
    }
    b.reference = Some(reference);

    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss = None;
    loop {
        let traced = trace && passes.len() % 2 == 1;
        passes.push(b.pass(traced));
        if passes.len() == RSS_PASSES {
            rss = Some(peak_rss_mb()?);
        }
        let have_traced = !trace || passes.iter().any(|p| p.traced);
        if t0.elapsed() >= budget && have_traced {
            break;
        }
    }
    let reference = b.reference.take().expect("set above");
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let npoints = b.points.len();
    let run: fn(&Pass, usize) -> u64 = |p, i| p.point_run_ns[i];
    let setup: fn(&Pass, usize) -> u64 = |p, i| p.point_setup_ns[i];
    // A point's time in one pass, in seconds, raw or at nominal speed.
    let secs = |p: &Pass, f: fn(&Pass, usize) -> u64, i: usize, calibrated: bool| -> f64 {
        let scale = if calibrated { p.calibration(i) } else { 1.0 };
        f(p, i) as f64 * scale / 1e9
    };
    let totals = |f: fn(&Pass, usize) -> u64, calibrated: bool| -> Vec<f64> {
        plain
            .iter()
            .map(|p| (0..npoints).map(|i| secs(p, f, i, calibrated)).sum())
            .collect()
    };
    // Each point's median over passes, summed: a pass as it runs
    // without interference, so one slow burst on the host moves no
    // point's figure.
    let typical = |f: fn(&Pass, usize) -> u64, calibrated: bool| -> f64 {
        (0..npoints)
            .map(|i| median(plain.iter().map(|p| secs(p, f, i, calibrated)).collect()))
            .sum()
    };
    let wall = totals(run, false);
    let ref_round_us = median(
        plain
            .iter()
            .flat_map(|p| p.ref_ns.iter().map(|ns| *ns as f64 / 1e3))
            .collect(),
    );

    let mut e2e = BTreeMap::new();
    e2e.insert("wall_s", typical(run, true));
    e2e.insert("setup_s", typical(setup, true));
    e2e.insert("peak_rss_mb", rss.map_or_else(peak_rss_mb, Ok)?);

    let ops: Vec<f64> = reference
        .virts
        .iter()
        .filter_map(|v| match v {
            Some(Virt::OpNs(ns)) => Some(*ns as f64 / 1e3),
            _ => None,
        })
        .collect();
    let bws: Vec<f64> = reference
        .virts
        .iter()
        .filter_map(|v| match v {
            Some(Virt::Window { interval_ns, bytes }) => Some(Virt::mbs(*interval_ns, *bytes)),
            _ => None,
        })
        .collect();

    println!(
        "# e2ebench workload={workload} seed={seed} seconds={seconds} trace={} points={} \
         passes=1 warm-up + {} untraced + {} traced",
        trace as u8,
        b.points.len(),
        plain.len(),
        traced.len()
    );
    for (name, f) in [("wall_s", run), ("setup_s", setup)] {
        let v = totals(f, true);
        let t = match tail(v.clone()) {
            Some((k, x)) => format!("p{k} {x:.6} s"),
            None => "no percentile has 10 samples beyond it".into(),
        };
        println!(
            "{name:<28} {:>14.6} s         at nominal speed, per-point medians summed; whole passes: median {:.6} s, {t}, n={}; raw {:.6} s",
            e2e[name],
            median(v.clone()),
            v.len(),
            typical(f, false)
        );
    }
    println!(
        "# host speed: reference round median {ref_round_us:.1} us (nominal {:.1} us)",
        REF_NOMINAL_NS / 1e3
    );
    println!(
        "{:<28} {:>14.3} MiB       process high-water after warm-up + {RSS_PASSES} passes",
        "peak_rss_mb", e2e["peak_rss_mb"]
    );
    let failed_frac = b.failed as f64 / b.attempted.max(1) as f64;
    println!(
        "{:<28} {:>14} ratio     {} of {} operations (point runs) failed",
        "failed_frac", failed_frac, b.failed, b.attempted
    );
    let virt_op_us = geomean(&ops);
    let virt_bw_mbs = geomean(&bws);
    println!(
        "{:<28} {:>14.4} virt_us   geometric mean over {} points{}",
        "virt_op_us",
        virt_op_us,
        ops.len(),
        if ops.is_empty() {
            " (not defined on this workload)"
        } else {
            ""
        }
    );
    println!(
        "{:<28} {:>14.4} virt_MB/s geometric mean over {} windows{}",
        "virt_bw_mbs",
        virt_bw_mbs,
        bws.len(),
        if bws.is_empty() {
            " (not defined on this workload)"
        } else {
            ""
        }
    );
    println!(
        "# exact virtual results repeated on every pass ({} untraced, {} traced); \
         {csv_cells} points equal their committed results/*.csv cell",
        plain.len(),
        traced.len()
    );

    let mut per_layer = BTreeMap::new();
    if trace {
        let untraced_run_ms = median(wall.clone()) * 1e3;
        let host = [
            ("host.wall_raw_s", typical(run, false)),
            ("host.ref_round_us", ref_round_us),
        ];
        for (k, v) in layer_metrics(&b, &traced, untraced_run_ms, virt_op_us, virt_bw_mbs)
            .into_iter()
            .chain(host)
        {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, u)| *u)
                .expect("every entry is in PER_LAYER");
            println!("{k:<34} {v:>16.4} {unit}");
            per_layer.insert(k, v);
        }
        println!("# replay_ms: the layer's public functions re-run over the point's work, not observed inside the run");
        println!("# 0 means the layer is not exercised by this workload");
        let path = pkg_dir()
            .join("out")
            .join(format!("trace-{workload}-seed{seed}.json"));
        b.spans
            .write_chrome(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# {} spans written to {}", b.spans.len(), path.display());
    }
    for (k, v) in e2e.iter().chain(per_layer.iter()) {
        if !v.is_finite() {
            b.fail(format!("metric {k} is not finite: {v}"));
        }
    }
    for (k, v) in &e2e {
        if *v <= 0.0 {
            b.fail(format!("end-to-end metric {k} is not positive: {v}"));
        }
    }
    Ok(Report {
        correct: b.errors.is_empty(),
        attempted: b.attempted,
        failed: b.failed,
        end_to_end: e2e,
        per_layer,
    })
}

fn json_line(r: &Report, trace: bool) -> String {
    let (map, table): (_, &[(&str, &str)]) = if trace {
        (&r.per_layer, &PER_LAYER)
    } else {
        (&r.end_to_end, &END_TO_END)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = map[name];
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Runs every workload once, untraced and traced, and checks that
/// every metric is present, finite, carries its unit, and is listed
/// with that unit in `BENCHMARK.json`.
fn smoke() -> Result<(), String> {
    let manifest = std::fs::read_to_string(pkg_dir().join("../BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let compact: String = manifest.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        if !compact.contains(&entry) {
            return Err(format!(
                "BENCHMARK.json does not list {name} with unit {unit}"
            ));
        }
    }
    for w in WORKLOADS {
        if !compact.contains(&format!("\"name\":\"{w}\"")) {
            return Err(format!("BENCHMARK.json does not list workload {w}"));
        }
        let r = measure(w, 1, 0.0, true)?;
        if !r.correct || r.failed != 0 {
            return Err(format!(
                "{w}: {} of {} operations failed",
                r.failed, r.attempted
            ));
        }
        for trace in [false, true] {
            let line = json_line(&r, trace);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in table {
                let want = format!("\"{name}\": {{\"value\": ");
                let unit_s = format!("\"unit\": \"{unit}\"}}");
                let at = line
                    .find(&want)
                    .ok_or(format!("{w}: metric {name} missing from {line}"))?;
                if !line[at..].contains(&unit_s) {
                    return Err(format!("{w}: metric {name} lacks unit {unit}"));
                }
            }
        }
        let trace =
            std::fs::read_to_string(pkg_dir().join("out").join(format!("trace-{w}-seed1.json")))
                .map_err(|e| format!("{w}: trace file: {e}"))?;
        if !trace.starts_with('{') || !trace.contains("\"name\":\"run\"") {
            return Err(format!("{w}: trace file lacks run spans"));
        }
        println!("smoke: {w} OK");
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        match smoke() {
            Ok(()) => println!("smoke OK"),
            Err(e) => {
                eprintln!("e2ebench smoke: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let report = match measure(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", json_line(&report, args.trace));
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 11..200u64 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (k, x) = tail(v).expect("more than ten samples");
            let beyond = (n as f64 - 1.0 - x) as u64;
            assert!(beyond >= 10, "n={n} p{k} leaves {beyond} beyond");
        }
        assert!(tail(vec![1.0; 10]).is_none());
    }

    #[test]
    fn calibration_scales_by_the_rounds_around_a_point() {
        let p = Pass {
            ref_ns: vec![400_000, 800_000, 200_000],
            ..Pass::default()
        };
        assert!((p.calibration(0) - 400.0 / 600.0).abs() < 1e-12);
        assert!((p.calibration(1) - 400.0 / 500.0).abs() < 1e-12);
        assert!(Calib::new().sample() > 0);
    }

    #[test]
    fn per_layer_table_is_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let len = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn paths_resolve_to_committed_results() {
        assert!(pkg_dir().join("../results/fig8.csv").exists());
    }
}
