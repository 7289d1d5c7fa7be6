#!/usr/bin/env python3
"""Exact-count repeatability test for the traced benchmark run.

Runs the traced run (--trace 1) of each workload twice with the same
seed and checks that every exact count — allocation words, WAL bytes,
pulled lines and bytes, sampled keys, flush calls — is bit-for-bit
identical, and that both runs passed their correctness checks. Later
changes can then make count-based claims from these metrics.

    python3 perfbench/test_counts.py [--seed N] [WORKLOAD ...]

Run from the root of the source tree; exits 1 on any difference.
"""

import json
import subprocess
import sys

EXACT = [
    "store.apply.words_per_record",
    "store.flush.calls",
    "wal.bytes_per_record",
    "engine.sampled_keys",
    "router.pull.lines_per_query",
    "router.pull.bytes_per_query",
    "mc.words_per_trial",
] + [f"engine.{k}.words" for k in
     ["max", "or", "distinct", "dominance", "jaccard", "l1", "union", "intersection"]]

WORKLOADS = ["ingest", "query", "offline"]


def traced(workload, seed):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "1"],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload}: traced run exited {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run failed its correctness checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv):
    seed = 7
    names = []
    it = iter(argv)
    for a in it:
        if a == "--seed":
            seed = int(next(it))
        else:
            names.append(a)
    bad = 0
    for w in names or WORKLOADS:
        first, second = traced(w, seed), traced(w, seed)
        for k in EXACT:
            same = repr(first[k]) == repr(second[k])
            bad += not same
            print(f"{w:8s} {k:32s} {first[k]!r:>22} {second[k]!r:>22} {'ok' if same else 'DIFFERS'}")
    if bad:
        sys.exit(f"{bad} exact count(s) differ between identical traced runs")
    print("all exact counts repeat")


if __name__ == "__main__":
    main(sys.argv[1:])
