"""Compare two suite results: reports against the bounds, does not gate.

    python3 bench/compare.py bench/results/BENCH_before.json bench/results/BENCH_after.json

For each workload and end-to-end metric it prints the median and quartiles
of both files, the change of the median, and that change measured against
the metric's bound in BENCHMARK.json.  A change is "worse" when it goes
the wrong way by more than the bound, and "unresolved" when the bound is
not exceeded but the quartile ranges of the two files do not overlap.  It
also prints each workload's failure ratio, failed over attempted requests
of all untraced runs, in both files.  The exit code is 0 whatever the
verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from suite import spec, summary


def verdict(old: tuple, new: tuple, better: str, bound: float) -> tuple[float, str]:
    """(relative change of the median, verdict) for one metric."""
    change = (new[0] - old[0]) / old[0] if old[0] else 0.0
    worse_by = -change if better == "higher" else change
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    if new[2] < old[1] or new[1] > old[2]:
        return change, "unresolved"
    return change, "within bound"


def fail_ratio(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    print(f"old: {args.old} ({old['label']})   new: {args.new} ({new['label']})")
    for workload, new_data in new["workloads"].items():
        if workload not in old["workloads"]:
            print(f"== {workload}: only in the new file")
            continue
        print(f"== {workload}")
        o, n = (fail_ratio(runs) for runs in (old["workloads"][workload]["runs"], new_data["runs"]))
        print(f"  {'fail_ratio':16s} {o:11.5g} -> {n:11.5g}")
        for metric in spec()["end_to_end"]:
            name = metric["name"]
            o = summary([r["metrics"][name] for r in old["workloads"][workload]["runs"]])
            n = summary([r["metrics"][name] for r in new_data["runs"]])
            change, word = verdict(o, n, metric["better"], metric["bound"])
            print(f"  {name:16s} {o[0]:11.5g} [{o[1]:.5g} .. {o[2]:.5g}] -> "
                  f"{n[0]:11.5g} [{n[1]:.5g} .. {n[2]:.5g}] {metric['unit']:4s} "
                  f"{change:+7.1%}  bound {metric['bound']:.0%} ({metric['better']} is better): "
                  f"{word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
