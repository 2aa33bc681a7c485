#!/usr/bin/env python3
"""Self-test of the benchmark: determinism of its counts, and its gate.

    python3 perfbench/test_determinism.py

1. For a fixed seed every count metric repeats exactly across two runs
   (wire bytes, receipts and DataPlaneOps per observation, gaps reported,
   undelivered share, ...), and another seed changes the input-dependent
   ones.  Run on short_rounds_hostile, the workload with gaps.
2. A deliberately wrong finding makes the correctness gate fail the run:
   non-zero exit and "correct": false.

Exits non-zero on the first failed expectation.  Takes about a minute.
"""

import json
import sys
from types import SimpleNamespace

import run

WORKLOAD = "short_rounds_hostile"
# Count metrics: identical for a seed, whatever the host is doing.
END_TO_END_COUNTS = ("wire_bytes_per_obs", "hop_state_mb")
PER_LAYER_COUNTS = (
    "collector.hashes_per_obs", "collector.memory_accesses_per_obs",
    "collector.sweep_accesses_per_obs", "collector.sample_records_per_obs",
    "collector.aggregates_per_obs", "collector.arena_mb_peak",
    "collector.unknown_path_packets", "dissem.envelopes_per_round",
    "dissem.framing_share", "dissem.transport_fault_share",
    "dissem.store_rejected_share", "dissem.fetch_useful_share",
    "dissem.gaps_reported", "dissem.undelivered_share",
    "core.add_round_calls", "core.expired_unmatched",
)
# Counts that depend on the generated inputs, so a new seed moves them.
SEED_DEPENDENT = ("wire_bytes_per_obs", "collector.sample_records_per_obs",
                  "dissem.gaps_reported", "dissem.undelivered_share")


def result(binary, workload, seed, trace, extra=()):
    args = SimpleNamespace(workload=workload, seed=seed, seconds=1,
                           trace=trace)
    proc = run.run(binary, args, extra)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def counts(binary, seed):
    out = {}
    for trace, names in ((0, END_TO_END_COUNTS), (1, PER_LAYER_COUNTS)):
        code, res = result(binary, WORKLOAD, seed, trace)
        expect(code == 0 and res["correct"], f"seed {seed} trace {trace} run")
        out.update({n: res["metrics"][n]["value"] for n in names})
    return out


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    binary = run.build()
    first, again, other = counts(binary, 1), counts(binary, 1), counts(binary, 2)
    for name, value in first.items():
        expect(again[name] == value,
               f"{name} repeats for one seed ({value} vs {again[name]})")
    for name in SEED_DEPENDENT:
        expect(other[name] != first[name],
               f"{name} changes with the seed ({first[name]} vs {other[name]})")
    expect(first["dissem.gaps_reported"] > 0, "the hostile wire caused gaps")

    code, res = result(binary, "deep_lossy_liar", 1, 0,
                       ("--inject", "wrong-finding"))
    expect(code != 0 and res is not None and not res["correct"],
           "a wrong finding fails the run")
    print("determinism self-test passed")


if __name__ == "__main__":
    main()
