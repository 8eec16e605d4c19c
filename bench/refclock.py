"""Reference time: measured time scaled to a CPU of fixed speed.

On a shared machine the CPU runs at changing speeds, for milliseconds to
minutes at a time (measured swings of up to 1.8x on a 2-core x86 guest),
which moves every timing far more than the bounds in BENCHMARK.json allow.
The benchmark therefore times a fixed pure-Python kernel, written apart
from joinrings so no change to the package can move it, every 10 ms while
it measures, and reports

    reference time = measured time * REFERENCE_KERNEL_NS / kernel time

that is, the time the work would take on a CPU that runs the kernel in
60 microseconds.  The unscaled figures go into each result file as well.

The kernel runs from an interval timer's signal handler, so it is sampled
inside long requests too, not only between them; the time spent in the
handler is taken out of the measured time.  Paired against the same passes
of each workload on that guest, this cut the spread of per-pass reference
time to 0.02-0.04 of the median, where timing the kernel only between
requests left 0.04-0.10, and the spread of one 0.8 s request's time from
0.1-0.2 to 0.02-0.03.  The kernel is a small Gauss-Jordan elimination over
F7 through table lookups, closures and fresh lists, the kind of
interpreter work the package does; it tracked the swings better than a
kernel of bare table lookups.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

REFERENCE_KERNEL_NS = 60_000
EVERY_S = 0.01

_P = 7
_MUL = [[a * b % _P for b in range(_P)] for a in range(_P)]
_SUB = [[(a - b) % _P for b in range(_P)] for a in range(_P)]
_INV = [0] + [pow(a, _P - 2, _P) for a in range(1, _P)]
_N = 12
_MATRIX = [[(i * 5 + j * 3 + i * j + 1) % _P for j in range(_N)] for i in range(_N)]


def _kernel() -> int:
    """Rank of a fixed 12x12 matrix over F7 by Gauss-Jordan elimination."""
    sub = lambda a, b: _SUB[a][b]  # noqa: E731
    mul = lambda a, b: _MUL[a][b]  # noqa: E731
    rows = [row[:] for row in _MATRIX]
    rank = 0
    for col in range(_N):
        pivot = next((r for r in range(rank, _N) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = _INV[rows[rank][col]]
        rows[rank] = [mul(scale, x) for x in rows[rank]]
        prow = rows[rank]
        for r in range(_N):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [sub(x, mul(f, y)) for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


class Clock:
    """Kernel samples taken every ``EVERY_S`` between :meth:`start` and :meth:`stop`.

    Each sample keeps the handler's start and end and the kernel's time, in
    perf_counter ns.  A handler runs between two bytecodes, so it falls
    wholly inside or wholly outside an interval whose ends are two
    ``perf_counter_ns()`` readings.
    """

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.kernels: list[int] = []
        self._previous = None

    def _tick(self, _signum=None, _frame=None) -> None:
        # two runs, the faster counts: the first is slowed by the caches the
        # interrupted work left cold
        start = perf_counter_ns()
        _kernel()
        middle = perf_counter_ns()
        _kernel()
        end = perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self.kernels.append(min(middle - start, end - middle))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def account(self, t0: int, t1: int, first: int) -> tuple[int, float]:
        """(measured ns, reference ns) of work from ``t0`` to ``t1``.

        ``first`` is ``len(clock.kernels)`` read before ``t0``.  The handler
        time inside the interval is taken out; the kernel time is the mean
        of the samples inside it, or the latest sample when none is.
        """
        inside = [k for k in range(first, len(self.starts))
                  if t0 <= self.starts[k] and self.ends[k] <= t1]
        measured = t1 - t0 - sum(self.ends[k] - self.starts[k] for k in inside)
        kernels = [self.kernels[k] for k in inside] or self.kernels[-1:]
        return measured, measured * REFERENCE_KERNEL_NS * len(kernels) / sum(kernels)
