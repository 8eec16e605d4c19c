"""Per-layer measurement for the traced run: call spans and a field microbenchmark.

Tracing lives only here.  :class:`Tracer` replaces each traced function at
every ``joinrings`` module attribute that holds it (so names imported into
other modules, such as ``oracle.join_embed``, are wrapped too), records one
span per call in memory, and restores the originals on :meth:`uninstall`.
A layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import importlib
import random
import sys
from time import perf_counter, perf_counter_ns

# module -> functions whose calls are traced.  "mul" in groupring is
# GroupRingElem.__mul__.
TRACED = {
    "cli": ["run", "build_parser"],
    "arith": ["rooted_equivalence_report", "classify_field_delta",
              "classify_group_algebra_delta", "classify_join_delta"],
    "zeta": ["zeta_join", "zeta_group_ring", "zeta_semimagic"],
    "oracle": ["enumerate_units", "unit_orders", "jacobson_radical",
               "semisimple_unit_factorization", "exp_U1"],
    "joinring": ["join_mul", "join_embed", "join_unembed", "join_is_unit",
                 "join_inverse", "gen_augmentation", "join_unit_count",
                 "parse_shape_spec"],
    "groupring": ["mul", "gr_is_unit", "gr_inverse", "circulant_rows",
                  "augmentation", "wedderburn_abelian"],
    "linalg": ["is_invertible", "inverse", "mat_mul", "nullspace"],
    "ntheory": ["ord_mod", "factorize", "is_prime", "prime_power"],
    "groups": ["parse_group_spec"],
}
SELF_ONLY = {"cli.build_parser"}  # reported as self_ms only
# spans whose first argument's size is recorded: matrix rows or ring elements
MATRIX_SIZED = {"linalg.is_invertible", "linalg.inverse"}
ORACLE = [f"oracle.{fn}" for fn in TRACED["oracle"]]

FIELD_BENCH = ["F2", "F7", "F256", "F2048", "F2187"]
FIELD_OPS = ["add", "mul", "inv"]


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for op in FIELD_OPS:
        for field in FIELD_BENCH:
            units[f"ffield.{op}_ns.{field}"] = "ns"
    units["ffield.build_s.F256"] = "s"
    for name in span_names():
        if name not in SELF_ONLY:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in sorted(MATRIX_SIZED):
        units[f"{name}.mean_n"] = "rows"
    units["oracle.us_per_element"] = "us"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _ring_size(args) -> int:
    """Elements an oracle call enumerates: ring.size, or q^|G| for exp_U1(G, ctx)."""
    first = args[0]
    if hasattr(first, "size"):
        return first.size
    return args[1].q ** first.order


class Tracer:
    """Wraps the traced functions and keeps one span per call.

    A span is ``(name_index, start_ns, end_ns, parent_span, request, size)``;
    ``parent_span`` is -1 for a span with no traced caller.
    """

    def __init__(self):
        self.names = span_names()
        self.spans: list = []
        self.request = ""
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, index: int, fn, sizer):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                size = sizer(args) if sizer else 0
                spans[slot] = (index, start, end, parent, tracer.request, size)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        from joinrings.groupring import GroupRingElem

        modules = [m for name, m in sys.modules.items()
                   if name == "joinrings" or name.startswith("joinrings.")]
        for index, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            if name in MATRIX_SIZED:
                sizer = lambda args: len(args[0])  # noqa: E731
            elif name in ORACLE:
                sizer = _ring_size
            else:
                sizer = None
            if name == "groupring.mul":
                orig = GroupRingElem.__dict__["__mul__"]
                self._set(GroupRingElem, "__mul__", self._wrap(index, orig, sizer))
                continue
            orig = getattr(importlib.import_module(f"joinrings.{mod_name}"), fn_name)
            wrapped = self._wrap(index, orig, sizer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_ms, mean_n and oracle.us_per_element from the spans."""
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        size_sum = [0] * n
        child_ns = [0] * len(self.spans)
        oracle_idx = {self.names.index(name) for name in ORACLE}
        oracle_ns = oracle_elements = 0
        for slot, (index, start, end, parent, _req, size) in enumerate(self.spans):
            dur = end - start
            if parent >= 0:
                child_ns[parent] += dur
            calls[index] += 1
            size_sum[index] += size
            if index in oracle_idx and (parent < 0 or self.spans[parent][0] not in oracle_idx):
                oracle_ns += dur
                oracle_elements += size
        for slot, (index, start, end, *_rest) in enumerate(self.spans):
            self_ns[index] += end - start - child_ns[slot]
        out = {}
        for i, name in enumerate(self.names):
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_ms"] = self_ns[i] / 1e6
            if name in MATRIX_SIZED:
                out[f"{name}.mean_n"] = size_sum[i] / calls[i] if calls[i] else 0.0
        out["oracle.us_per_element"] = (
            oracle_ns / 1e3 / oracle_elements if oracle_elements else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per call."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\trequest\tsize\n")
            for slot, (index, start, end, parent, req, size) in enumerate(self.spans):
                fh.write(f"{slot}\t{self.names[index]}\t{start}\t{end}\t"
                         f"{parent}\t{req}\t{size}\n")


def field_microbench(seed: int, ops: int = 2000, repeats: int = 5) -> dict[str, float]:
    """Nanoseconds per FieldCtx add/mul/inv on random codes, and the F256 build.

    Each figure is the median over ``repeats`` timed loops of ``ops`` calls;
    the loop's own cost is included.  A span per field op would cost more
    than the op, so these are timed here instead of traced.
    """
    from statistics import median

    from joinrings import FieldCtx, parse_field

    rng = random.Random(f"ffield/{seed}")
    out = {}
    for spec in FIELD_BENCH:
        ctx = parse_field(spec)
        a = [rng.randrange(ctx.q) for _ in range(ops)]
        b = [rng.randrange(1, ctx.q) for _ in range(ops)]
        for op in FIELD_OPS:
            fn = getattr(ctx, op)
            samples = []
            for _ in range(repeats):
                if op == "inv":
                    start = perf_counter_ns()
                    for y in b:
                        fn(y)
                else:
                    start = perf_counter_ns()
                    for x, y in zip(a, b):
                        fn(x, y)
                samples.append((perf_counter_ns() - start) / ops)
            out[f"ffield.{op}_ns.{spec}"] = median(samples)
    start = perf_counter()
    FieldCtx(2, 8)  # uncached: parse_field would return the built F256
    out["ffield.build_s.F256"] = perf_counter() - start
    return out
