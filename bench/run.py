"""Benchmark of joinrings: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload calc-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; joinrings is imported from ``src/``.  Set-up
(importing joinrings and building every field, group, shape and input) is
timed before the loop starts.  The loop replays whole passes of the
workload's requests until ``--seconds`` have gone by, finishing the pass
under way, and every output is checked afterwards.  Times are reported in
reference time (see refclock.py).  With
``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1`` a
fixed number of whole passes, sized from ``--seconds``, runs alternately
untraced and traced, followed by the field microbenchmark, and the
per-layer metrics are reported.  Human-readable lines come first; the last
line of standard output is one JSON object, and the full result is written
under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from array import array
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ["calc-mix", "join-units", "oracle-enum", "wide-field"]
# Whole passes per phase of a traced run at --seconds 20: about five
# seconds each, untraced, on a shared 2-core x86 machine.
TRACE_PASSES = {"calc-mix": 10, "join-units": 20, "oracle-enum": 3, "wide-field": 40}
# set-ups timed per untraced run: its own and the rest in fresh interpreters
SETUP_SAMPLES = 5
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
              "elements_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def setup(name: str, seed: int):
    """Import joinrings and build the workload.

    Returns (reference seconds, measured seconds, workload).
    """
    clock = refclock.Clock()
    clock.start()
    try:
        first, t0 = len(clock.kernels), perf_counter_ns()
        import joinrings  # noqa: F401  (the import is part of set-up)
        import workloads

        workload = workloads.build(name, seed)
        measured, reference = clock.account(t0, perf_counter_ns(), first)
    finally:
        clock.stop()
    return reference / 1e9, measured / 1e9, workload


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter, where no cache is warm."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=False, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


class Phase:
    """Request times, and the outputs, of one timed loop.

    Every request's time is kept, in reference ns and in measured ns, in
    flat arrays of 8 bytes per request.
    """

    def __init__(self):
        self.reference = array("d")
        self.measured = array("d")
        self.first: dict[int, object] = {}   # request index -> first output
        self.differs: dict[int, int] = {}    # request index -> repeats unlike the first

    @property
    def attempted(self) -> int:
        return len(self.measured)


def measure(workload, clock: refclock.Clock, seconds: float = 0, passes: int = 0,
            tracer=None, phase: Phase | None = None) -> Phase:
    """Closed loop, one client: each request starts when the previous ends.

    Runs whole passes, so that every run times the same mix of requests:
    until ``seconds`` have gone by, finishing the pass under way, or
    exactly ``passes`` of them.  Adds to ``phase`` when one is given.
    ``clock`` must be started.
    """
    phase = phase or Phase()
    first, differs = phase.first, phase.differs
    reference, measured = phase.reference, phase.measured
    deadline = perf_counter_ns() + int(seconds * 1e9)
    done = 0
    while done < passes if passes else perf_counter_ns() < deadline:
        for idx, (call, args) in enumerate(workload.requests):
            if tracer is not None:
                tracer.request = len(measured)
            sample = len(clock.kernels)
            t0 = perf_counter_ns()
            try:
                out = call(*args)
            except Exception as exc:  # a failed request is counted, not fatal
                out = exc
            elapsed, scaled = clock.account(t0, perf_counter_ns(), sample)
            measured.append(elapsed)
            reference.append(scaled)
            if idx not in first:
                first[idx] = out
            elif not _same(out, first[idx]):
                differs[idx] = differs.get(idx, 0) + 1
        done += 1
    return phase


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def check_phase(workload, phase: Phase, failures: dict) -> tuple[int, bool]:
    """Check every output of a phase; returns (failed requests, correct).

    A request fails when it raised, returned a wrong result, ended with an
    exit code other than the documented one, or repeated with another
    output.  ``correct`` is False when any request failed that is not a
    known defect of the package.
    """
    n = len(workload.requests)
    reasons = {idx: workload.check(idx, out) for idx, out in phase.first.items()}
    for idx in phase.differs:
        reasons[idx] = reasons[idx] or "output changed between repeats"
    failed, correct = 0, True
    for i in range(phase.attempted):
        reason = reasons[i % n]
        if reason is not None:
            failed += 1
            correct = correct and workload.known_defect[i % n]
            failures[reason] = failures.get(reason, 0) + 1
    return failed, correct


def ops_per_s(times) -> float:
    """Requests completed per second of request time."""
    return len(times) / sum(times) * 1e9


def end_to_end(workload, times, setup_samples: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics from every request time of whole passes, in ns."""
    ordered = sorted(times)
    passes = len(times) / len(workload.requests)
    return {
        "ops_per_s": ops_per_s(times),
        "latency_p50_ms": median(ordered) / 1e6,
        # nearest rank: never above the slowest request observed
        "latency_p99_ms": ordered[ceil(0.99 * len(ordered)) - 1] / 1e6,
        "elements_per_s": passes * sum(workload.elements) / sum(times) * 1e9,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(setup_samples),
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def run(args) -> dict:
    # Set-up samples are spread over the run, half before and half after
    # the timed loop, so a change of CPU speed does not bias all of them.
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    samples = [probe_setup(args.workload, args.seed) for _ in range(probes // 2)]
    *own, workload = setup(args.workload, args.seed)
    samples.append(tuple(own))
    import layers
    import workloads

    failures: dict[str, int] = {}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": workload.digest(),
        "requests_per_pass": len(workload.requests),
        "python": platform.python_version(), "git_revision": git_revision(),
        "nproc": os.cpu_count(), "closed_loop_clients": 1,
    }
    if not args.trace:
        clock = refclock.Clock()
        clock.start()
        try:
            phase = measure(workload, clock, args.seconds)
        finally:
            clock.stop()
        # read before the checks and the sorting of request times add their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct = check_phase(workload, phase, failures)
        samples += [probe_setup(args.workload, args.seed) for _ in range(probes - probes // 2)]
        metrics = end_to_end(workload, phase.reference, [s for s, _ in samples], peak_rss_mb)
        info.update(latency_samples=phase.attempted,
                    passes=phase.attempted // len(workload.requests),
                    setup_samples=samples,
                    measured=end_to_end(workload, phase.measured,
                                        [raw for _, raw in samples], peak_rss_mb))
        phases = [phase]
    else:
        # A fixed amount of work, so that calls and self times compare
        # between runs: whole passes, alternately untraced and traced, so
        # that both see the same changes of CPU speed.
        passes = max(1, round(TRACE_PASSES[args.workload] * args.seconds / 20))
        plain, traced = Phase(), Phase()
        reference = workloads.reference_calls()
        tracer, clock = layers.Tracer(), refclock.Clock()
        clock.start()
        try:
            for k in range(passes):
                measure(workload, clock, passes=1, phase=plain)
                tracer.install()
                try:
                    if k == 0:
                        for j, (call, call_args) in enumerate(reference):
                            tracer.request = f"ref{j}"
                            out = call(*call_args)
                            if call is workloads._cli and out[0] != 0:
                                raise RuntimeError(f"reference call {j} exited {out[0]}")
                    measure(workload, clock, passes=1, tracer=tracer, phase=traced)
                finally:
                    tracer.uninstall()
        finally:
            clock.stop()
        metrics = tracer.layer_metrics()
        metrics.update(layers.field_microbench(args.seed))
        metrics["trace.overhead_ratio"] = (ops_per_s(plain.reference)
                                           / ops_per_s(traced.reference))
        checked = [check_phase(workload, phase, failures) for phase in (plain, traced)]
        failed = sum(f for f, _ in checked)
        correct = all(c for _, c in checked)
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-s{args.seed}.tsv"
        tracer.write(spans)
        info.update(spans=len(tracer.spans), spans_file=str(spans.relative_to(ROOT)),
                    passes_per_phase=passes)
        phases = [plain, traced]
    attempted = sum(p.attempted for p in phases)
    info["fail_ratio"] = failed / attempted
    info["failures"] = failures
    return {"info": info, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def units_for(trace: int) -> dict[str, str]:
    if trace:
        import layers
        return layers.metric_units()
    return END_TO_END


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "joinrings" / "__init__.py").is_file():
        print(f"error: no joinrings sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        reference, measured, _ = setup(args.workload, args.seed)
        print(json.dumps([reference, measured]))
        return 0

    result = run(args)
    units = units_for(args.trace)
    info = result["info"]
    for key in ("workload", "seed", "input_digest", "python", "git_revision", "nproc",
                "latency_samples"):
        if key in info:
            print(f"{key}: {info[key]}")
    for name, unit in units.items():
        print(f"{name}: {result['metrics'][name]:.6g} {unit}")
    print(f"fail_ratio: {info['fail_ratio']:.6g} ({result['failed']} of "
          f"{result['attempted']} requests)")
    for reason, count in sorted(info["failures"].items(), key=lambda kv: -kv[1])[:8]:
        print(f"  failed x{count}: {reason}")
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"result: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
