#!/usr/bin/env python3
"""Walkthrough: scanning a prime range against a frozen bound.

A scan is deterministic by construction: the range is sharded, batches of
consecutive shards (at most 2^17 integers each) are computed row by row
with no row depending on another, and results are merged in shard order,
so neither the worker count nor the batching changes a byte of output.
Worker processes start only for two batches or more, at most one per
batch; the 20,000-wide range below is one batch, so its 2-worker run is
computed in this process too.  Checkpoints commit at the end of every
batch and name the next shard, and a resumed run reproduces the
uninterrupted output exactly.
"""

import json
import os
import tempfile

from nonresidues import scan as sc

task = sc.ScanTask.make(
    p_lo=10**7, p_hi=10**7 + 20_000, n_max=1, n0=1, p0=1e7, c=1.530,
    shard_width=5_000,
)
print("=" * 72)
print(f" Task {task.task_hash()[:16]}...: primes in [{task.p_lo}, {task.p_hi}],")
print(f" quadratic characters, frozen C = {task.c}")
print("=" * 72)

print("\nFirst records:")
for i, rec in enumerate(sc.scan_records(task)):
    print(f"  p={rec.p}  d={rec.d}  q_1={rec.q[0]:3d}  ratio={rec.ratio[0]:.5f}  "
          f"ok={all(rec.bound_ok)}")
    if i == 5:
        break

print("\nWorker counts cannot change the output:")
s1 = sc.run_scan(task, workers=1)
s2 = sc.run_scan(task, workers=2)
print(f"  summaries byte-identical: {s1.to_json() == s2.to_json()}")

print("\nInterruption and resume:")
with tempfile.TemporaryDirectory() as td:
    full, part = os.path.join(td, "full.jsonl"), os.path.join(td, "part.jsonl")
    ck = os.path.join(td, "ck.json")
    sc.run_scan(task, out_path=full)
    sc.run_scan(task, out_path=part, checkpoint_path=ck, stop_after_shards=2)
    done = json.load(open(ck))["next_shard"]
    print(f"  interrupted after shard {done - 1} of {task.shard_count}")
    summary = sc.run_scan(task, out_path=part, checkpoint_path=ck)
    same = open(full, "rb").read() == open(part, "rb").read()
    print(f"  resumed records byte-identical to uninterrupted run: {same}")

print("\nSummary:")
agg = summary.aggregate
stats = agg.per_n[0]
print(f"  records:    {agg.records}")
print(f"  violations: {agg.violations}   (a theorem on this range)")
print(f"  max q_1:    {stats.max_q} at (p, d) = {stats.max_q_witness}")
print(f"  max ratio:  {stats.max_ratio:.5f} at (p, d) = {stats.max_ratio_witness}")
print(f"  headroom:   the worst ratio is {task.c / stats.max_ratio:.0f}x below C")
