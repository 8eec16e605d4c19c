"""Run every workload and collect the results in one file.

    python3 bench/suite.py --label before [--seeds 1,2,3] [--seconds 20]

For each workload this makes one untraced run per seed and one traced run
with the first seed, prints every end-to-end metric (median and quartiles
over the seeds, with its unit), the failure ratio, and the per-layer
metrics of the traced run, and writes everything to
``bench/results/BENCH_<label>.json``.  Compare two such files with
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    path = RESULTS / f"{workload}-s{seed}-t{trace}.json"
    return json.loads(path.read_text())


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = spec()

    collected = {"label": args.label, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, 1)
        collected["workloads"][workload] = {"runs": runs, "traced": traced}
        info = runs[0]["info"]
        print(f"== {workload}  (seeds {args.seeds}, {args.seconds} s, python {info['python']}, "
              f"git {info['git_revision'][:12]}, nproc {info['nproc']})")
        for metric in bench["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            mid, q1, q3 = summary([r["metrics"][name] for r in runs])
            print(f"  {name:16s} {mid:12.6g} {unit:5s} quartiles {q1:.6g} .. {q3:.6g}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {'fail_ratio':16s} {failed / attempted:12.6g}       "
              f"({failed} of {attempted} requests, correct={all(r['correct'] for r in runs)})")
        print(f"  per layer, traced run with seed {seeds[0]}:")
        for metric in bench["per_layer"]:
            value = traced["metrics"][metric["name"]]
            print(f"    {metric['name']:52s} {value:14.6g} {metric['unit']}")
        sys.stdout.flush()
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(collected, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
