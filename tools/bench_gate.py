#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_hotpath.json against the
committed baseline and fail on a >15% regression of any gated metric.

Usage: bench_gate.py <baseline.json> <fresh.json>

Two kinds of gate:

* **Time** — the end-to-end metrics (plan-level pack/unpack, the
  simulated sweeps, and the repeated-send speedup) must stay within
  TOLERANCE of the baseline. Raw microbench entries (kernel/*,
  queue/*, plan_compile/*) stay informational: single-digit-ns loops
  swing past 15% on a shared host without any code change.
* **Allocations** — `allocs_per_op` is deterministic (no host noise),
  so it gates strictly: the steady-state entries under
  ZERO_ALLOC_PREFIXES must report exactly 0, and every other gated
  entry must not allocate more than its baseline (+ half an alloc of
  float slack).
"""

import json
import sys

GATED_PREFIXES = (
    "pack/plan/",
    "unpack/plan/",
    "pack/segment/",
    "sweep_x1/",
    "shm/",
    "incast/",
    "scale/",
    "device/",
    "canon/",
    "multiw/",
)
ZERO_ALLOC_PREFIXES = (
    "repeated_send/persistent_eager/",
    "repeated_send/pack_eager/new/",
    # A canonical-hit lookup is an OnceLock read + LRU hit: no heap.
    "canon/respelled_lookup/",
)
# Absolute allocation ceilings, independent of the baseline: a
# cache-on sweep iteration is a full cluster build + 4-message
# ping-pong + teardown, measured at 17 allocs/op because whole
# `Cluster` instances are recycled across sweep points, keyed by shape
# (rank count, memory capacity, transport kind). The recycled cluster
# keeps its engine, scratch shelves, segment free-lists, receive
# rings, table pages and trace buffers, so no other pooling layer is
# involved. What remains is per-run program/interp setup and stats
# collection. The ceiling holds the line well under the pre-pooling
# 66 while leaving headroom for incidental first-touch variation.
ABS_ALLOC_CAPS = {
    "sweep_x1/pingpong_cols/4/cache_on": 24,
    "sweep_x1/pingpong_cols/64/cache_on": 24,
    "sweep_x1/pingpong_cols/512/cache_on": 24,
    # The shm transport rides the same recycled-cluster lifecycle, so
    # it gates at the same level.
    "shm/pingpong_cols/64/double": 24,
    "shm/pingpong_cols/64/single": 24,
    # One Multi-W message of a 256-row halo column is 256 RDMA writes.
    # Gather lists stay inline and the writes travel as one recycled
    # doorbell train, so the run costs the sweep's per-run setup plus a
    # fixed handful per message (measured 31); an allocation per write
    # would put it near 300.
    "multiw/halo_col/wqes/256": 40,
}
TOLERANCE = 1.15
ALLOC_SLACK = 0.5


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base = json.load(open(sys.argv[1]))
    new = json.load(open(sys.argv[2]))

    failures = []
    gated = 0
    for name, v in base.items():
        if name == "repeated_send/speedup":
            # Stored as a ratio; higher is better.
            gated += 1
            got = new.get(name, {}).get("ns_per_op")
            if got is None or got < v["ns_per_op"] / TOLERANCE:
                failures.append(
                    f"{name}: speedup {got} < {v['ns_per_op']:.2f}/{TOLERANCE}"
                )
            continue
        if name.startswith(ZERO_ALLOC_PREFIXES):
            gated += 1
            allocs = new.get(name, {}).get("allocs_per_op")
            if allocs is None:
                failures.append(f"{name}: missing from fresh run")
            elif allocs != 0:
                failures.append(
                    f"{name}: {allocs} allocs/op, steady state must be 0"
                )
        if not name.startswith(GATED_PREFIXES):
            continue
        gated += 1
        got = new.get(name, {}).get("ns_per_op")
        if got is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        if got > v["ns_per_op"] * TOLERANCE:
            failures.append(
                f"{name}: {got:.1f} ns vs baseline {v['ns_per_op']:.1f} ns "
                f"(+{(got / v['ns_per_op'] - 1) * 100:.0f}%)"
            )
        base_allocs = v.get("allocs_per_op")
        new_allocs = new.get(name, {}).get("allocs_per_op")
        if base_allocs is not None and new_allocs is not None:
            if new_allocs > base_allocs + ALLOC_SLACK:
                failures.append(
                    f"{name}: {new_allocs} allocs/op vs baseline {base_allocs}"
                )
    # Absolute ceilings bind on the fresh run alone, so they hold even
    # for entries absent from (or regressed into) the baseline.
    for name, cap in ABS_ALLOC_CAPS.items():
        gated += 1
        allocs = new.get(name, {}).get("allocs_per_op")
        if allocs is None:
            failures.append(f"{name}: missing from fresh run")
        elif allocs > cap:
            failures.append(
                f"{name}: {allocs} allocs/op exceeds absolute cap {cap}"
            )

    if failures:
        print("bench gate FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"bench gate OK ({gated} metrics within {TOLERANCE}x of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
