//! Benchmarks of the protocol planning paths (real work, not simulated
//! time): Multi-W write planning, Hybrid partitioning, OGR, and layout
//! wire encode/decode. Plain timing harness — no Criterion offline.

use ibdt_datatype::{Datatype, FlatLayout};
use ibdt_mpicore::plan::{chunk_gather, for_each_multi_w, hybrid_partition};
use std::hint::black_box;
use std::time::Instant;

fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 50 || iters >= 1 << 20 {
            let per = dt.as_nanos() as f64 / iters as f64;
            println!("{name:<44} {per:>12.0} ns/iter");
            return;
        }
        iters *= 4;
    }
}

fn blocks(n: u64, len: u64, stride: u64, base: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (base + i * stride, len)).collect()
}

fn bench_plan_multi_w() {
    for n in [128u64, 1024, 8192] {
        let snd = blocks(n, 512, 2048, 0);
        // Receiver misaligned: 3 sender blocks per 2 receiver blocks.
        let rcv = blocks(n * 512 / 768, 768, 4096, 1 << 30);
        bench(&format!("plan_multi_w/misaligned/{n}"), || {
            let mut wrs = 0usize;
            for_each_multi_w(black_box(&snd), black_box(&rcv), 64, |w| {
                wrs += black_box(w).sges.len();
            });
            black_box(wrs);
        });
    }
}

fn bench_hybrid_partition() {
    for n in [128usize, 4096] {
        let lens: Vec<u64> = (0..n).map(|i| if i % 2 == 0 { 8192 } else { 64 }).collect();
        bench(&format!("hybrid_partition/alternating/{n}"), || {
            black_box(hybrid_partition(black_box(&lens), 1024).packed_bytes);
        });
    }
}

fn bench_chunk_gather() {
    let bl = blocks(4096, 256, 1024, 0);
    bench("chunk_gather_4096_blocks", || {
        black_box(chunk_gather(black_box(&bl), 64).len());
    });
}

fn bench_layout_wire() {
    let ty = Datatype::vector(2048, 128, 4096, &Datatype::int()).unwrap();
    let flat = ty.flat();
    let enc = flat.encode();
    bench("layout_wire/encode_2048_blocks", || {
        black_box(flat.encode().len());
    });
    bench("layout_wire/decode_2048_blocks", || {
        black_box(FlatLayout::decode(black_box(&enc)).unwrap().blocks.len());
    });
}

fn main() {
    bench_plan_multi_w();
    bench_hybrid_partition();
    bench_chunk_gather();
    bench_layout_wire();
}
