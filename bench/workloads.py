"""The four benchmark workloads: seeded inputs, the timed calls, their checks.

Each workload builds one *pass*: a fixed list of requests generated from the
seed before timing starts.  The benchmark replays passes in a closed loop
with one client.  Every request is a ``(call, args)`` pair whose ``call``
looks its ``joinrings`` function up at call time, so the traced run sees the
wrapped functions.  ``check(i, output)`` runs after timing and returns None
when output ``i`` is right, else a one-line reason; it reaches the answer by
a route other than the timed call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd, lcm

import joinrings.cli as cli
from joinrings import groupring, joinring, linalg, oracle
from joinrings.ffield import parse_field
from joinrings.groupring import GroupRingElem
from joinrings.groups import parse_group_spec
from joinrings.joinring import JoinElem, parse_shape_spec


class Workload:
    """A pass of requests with, per request, its operand element count and check."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.requests: list[tuple] = []   # (call, args)
        self.elements: list[int] = []     # operand ring elements per request
        self.known_defect: list[bool] = []  # True where the package is known to fail
        self._checks: list = []           # check(output) -> None | reason
        self._inputs: list[str] = []      # canonical text of each input, for the digest

    def add(self, call, args, check, elements: int, text: str, known_defect: bool = False):
        self.requests.append((call, args))
        self._checks.append(check)
        self.elements.append(elements)
        self.known_defect.append(known_defect)
        self._inputs.append(text)

    def shuffle(self) -> None:
        order = list(range(len(self.requests)))
        self.rng.shuffle(order)
        for attr in ("requests", "_checks", "elements", "known_defect", "_inputs"):
            values = getattr(self, attr)
            setattr(self, attr, [values[i] for i in order])

    def check(self, index: int, output) -> str | None:
        if isinstance(output, BaseException):
            return f"raised {type(output).__name__}: {output}"
        return self._checks[index](output)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self._inputs).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _random_gr(rng, ctx, group) -> GroupRingElem:
    return GroupRingElem(ctx, group, [rng.randrange(ctx.q) for _ in range(group.order)])


def _random_join(rng, shape) -> JoinElem:
    blocks = [_random_gr(rng, shape.ctx, g) for g in shape.groups]
    offdiag = [[rng.randrange(shape.ctx.q) if i != j else 0 for j in range(shape.d)]
               for i in range(shape.d)]
    return JoinElem(shape, blocks, offdiag)


def _until(rng, make, accept, tries: int = 1000):
    for _ in range(tries):
        x = make(rng)
        if accept(x):
            return x
    raise RuntimeError("no acceptable random input found")


def _join_text(a: JoinElem) -> str:
    return json.dumps([[list(b.coeffs) for b in a.blocks], [list(r) for r in a.offdiag]])


def _check_matrix_product(a: JoinElem, b: JoinElem):
    """The block formula against the product of the two matrix embeddings."""
    ctx = a.shape.ctx

    def check(out):
        expected = linalg.mat_mul(joinring.join_embed(a), joinring.join_embed(b), ctx)
        return None if joinring.join_embed(out) == expected else "product disagrees with mat_mul"
    return check


def _check_unit_verdict(matrix_of, x, ctx):
    """Unit exactly when the matrix image has a trivial nullspace."""
    def check(out):
        expected = not linalg.nullspace(matrix_of(x), ctx)
        return None if out is expected else f"is_unit {out}, nullspace says {expected}"
    return check


def _check_inverse(x, one):
    def check(out):
        if x * out != one or out * x != one:
            return "inverse times element is not one"
        return None
    return check


# ---------------------------------------------------------------------------
# calc-mix: in-process CLI requests
# ---------------------------------------------------------------------------

CALC_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16",
               "F25", "F27", "F32", "F49", "F64"]
CALC_GROUPS = {"trivial": 1, "C2": 2, "C7": 7, "C12": 12, "C16": 16, "C31": 31,
               "C32": 32, "C2xC2xC2": 8, "C3xC3": 9, "C2xC6": 12, "C4xC8": 32,
               "S3": 6, "Q8": 8, "S4": 24}
CALC_GR_RINGS = [("F2", "C7"), ("F3", "C8"), ("F4", "S3"), ("F5", "Q8"),
                 ("F7", "C16"), ("F9", "C2xC6"), ("F16", "C15"),
                 ("F25", "C4xC4"), ("F64", "C32"), ("F49", "C2xC2xC2")]
CALC_SHAPES = ["join(C3,C5;F2)", "join(S3,C2;F3)", "join(C2,C2,C2;F2)",
               "join(C4;F3)", "join(C3,C5,C7;F4)", "join(S3,Q8;F5)",
               "join(C7,C9;F25)", "join(C16,C16;F9)", "join(trivial,C3;F5)",
               "join(C5,C8;F64)"]
CALC_ZETA_GROUPS = [("F2", "C7"), ("F3", "S3"), ("F9", "C2xC6"), ("F7", "C16"),
                    ("F64", "C32"), ("F4", "C3xC3"), ("F2", "C6")]
CALC_DELTA_GROUPS = [("F2", "Q8"), ("F3", "C8"), ("F3", "C2xC4"), ("F5", "C4"),
                     ("F2", "C2xC4"), ("F9", "C8"), ("F7", "C3")]
CALC_DELTA_SHAPES = ["join(C2,C4;F2)", "join(Q8,C2;F2)", "join(C2,C2,C2;F2)",
                     "join(C3,C5;F2)"]
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

KEYS = {
    "field": {"field", "p", "k", "q", "modulus"},
    "group": {"group", "order", "abelian", "exponent", "order_counts"},
    "gr": {"ring", "dimension"},
    "join": {"shape", "dimension", "n"},
    "zeta": {"subject", "zeta", "factors", "pole_order_at_zero", "degree"},
    "rooted": {"primes", "q", "conditions", "verdict"},
    "delta": {"subject", "p", "r", "verdict", "case", "strict_n", "evidence"},
    "sweep": {"kind", "cases", "all_consistent"},
}


def _cli(argv):
    """One in-process CLI request: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _gr_literal(coeffs) -> str:
    terms = []
    for g, c in enumerate(coeffs):
        if c:
            terms.append(str(c) if g == 0 else ("g%d" % g if c == 1 else f"{c}*g{g}"))
    return "+".join(terms) or "0"


def _join_literal(a: JoinElem) -> str:
    parts = [_gr_literal(b.coeffs) for b in a.blocks]
    for i, row in enumerate(a.offdiag):
        parts += [f"a[{i + 1}][{j + 1}]={v}" for j, v in enumerate(row) if v]
    return ";".join(parts)


def _mult_order(a: int, p: int) -> int:
    t, x = 1, a % p
    while x != 1:
        x, t = x * a % p, t + 1
    return t


def _prime_field_op(op: str, a: int, b: int, p: int) -> int:
    if op == "add":
        return (a + b) % p
    if op == "sub":
        return (a - b) % p
    if op == "mul":
        return a * b % p
    if op == "div":
        return a * pow(b, p - 2, p) % p
    return pow(a, b, p)


class CalcMix(Workload):
    """200 CLI requests per pass in fixed proportions; 10 are invalid input."""

    name = "calc-mix"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ctx = {f: parse_field(f) for f in CALC_FIELDS}
        for spec in CALC_GROUPS:
            parse_group_spec(spec)
        self.shapes = {s: parse_shape_spec(s) for s in CALC_SHAPES + CALC_DELTA_SHAPES}
        self.gr_rings = [(parse_field(f), parse_group_spec(g)) for f, g in CALC_GR_RINGS]
        for count, make in [(35, self._field), (20, self._group), (35, self._gr),
                            (35, self._join), (20, self._zeta), (15, self._rooted),
                            (20, self._delta), (10, self._sweep), (10, self._invalid)]:
            for i in range(count):
                make(i)
        self.shuffle()

    def _request(self, argv, keys, verify=None, code=0, elements=0, known_defect=False):
        argv = ["--json", *argv]

        def check(out):
            got, text = out
            if got != code:
                return f"exit {got}, expected {code}: {' '.join(argv)}"
            if code:
                return None
            report = json.loads(text)
            if set(report) != keys:
                return f"keys {sorted(report)} != {sorted(keys)}: {' '.join(argv)}"
            return verify(report) if verify else None
        self.add(_cli, (argv,), check, elements, " ".join(argv), known_defect)

    def _field(self, i):
        rng = self.rng
        spec = rng.choice(CALC_FIELDS)
        ctx = self.ctx[spec]
        keys = set(KEYS["field"])
        a = rng.randrange(1, ctx.q) if ctx.q > 2 else 1
        if i % 5 == 4:
            keys.add("mult_order")
            verify = None
            if ctx.k == 1:
                want = _mult_order(a, ctx.p)
                verify = lambda r: None if r["mult_order"] == want else "wrong order"  # noqa: E731
            self._request(["field", spec, "--order", str(a)], keys, verify, elements=1)
            return
        op = ["add", "sub", "mul", "div", "pow"][i % 5]
        b = rng.randrange(1, ctx.q) if op == "div" or ctx.q == 2 else rng.randrange(ctx.q)
        if op == "pow":
            b = rng.randrange(200)
        keys.add("result")
        verify = None
        if ctx.k == 1:
            want = _prime_field_op(op, a, b, ctx.p)
            verify = lambda r: None if r["result"] == want else "wrong result"  # noqa: E731
        self._request(["field", spec, "--op", op, "--a", str(a), "--b", str(b)],
                      keys, verify, elements=2)

    def _group(self, i):
        spec = self.rng.choice(sorted(CALC_GROUPS))
        want = CALC_GROUPS[spec]
        verify = lambda r: None if r["order"] == want else "wrong group order"  # noqa: E731
        self._request(["group", spec], KEYS["group"], verify)

    def _gr(self, i):
        rng = self.rng
        ctx, group = self.gr_rings[i % len(self.gr_rings)]
        field, gspec = CALC_GR_RINGS[i % len(CALC_GR_RINGS)]
        base = ["gr", "--field", field, "--group", gspec]
        kind = ["mul", "is-unit", "inverse", "circulant", "unit-count", "mul", "inverse"][i % 7]
        if kind == "unit-count" and (not group.is_abelian or group.order % ctx.p == 0):
            kind = "is-unit"
        if kind == "mul":
            a, b = _random_gr(rng, ctx, group), _random_gr(rng, ctx, group)
            argv = base + ["--a", _gr_literal(a.coeffs), "--b", _gr_literal(b.coeffs),
                           "--op", "mul"]
            self._request(argv, KEYS["gr"] | {"result"}, elements=2)
        elif kind == "unit-count":
            self._request(base + ["--unit-count"], KEYS["gr"] | {"unit_count"})
        else:
            if kind == "inverse":
                a = _until(rng, lambda r: _random_gr(r, ctx, group), groupring.gr_is_unit)
            else:
                a = _random_gr(rng, ctx, group)
            key = {"is-unit": "is_unit"}.get(kind, kind)
            self._request(base + ["--a", _gr_literal(a.coeffs), f"--{kind}"],
                          KEYS["gr"] | {key}, elements=1)

    def _join(self, i):
        rng = self.rng
        spec = CALC_SHAPES[i % len(CALC_SHAPES)]
        shape = self.shapes[spec]
        base = ["join", "--shape", spec]
        coprime = all(gcd(g.order, shape.ctx.p) == 1 for g in shape.groups)
        abelian = all(g.is_abelian for g in shape.groups)
        kind = ["mul", "is-unit", "inverse", "embed", "mul", "idempotents",
                "unit-count"][(i // len(CALC_SHAPES) + i) % 7]
        if kind == "idempotents" and not coprime:
            kind = "add"
        if kind == "unit-count" and not (coprime and abelian):
            kind = "is-unit"
        if kind in ("mul", "add"):
            a, b = _random_join(rng, shape), _random_join(rng, shape)
            argv = base + ["--a", _join_literal(a), "--b", _join_literal(b), "--op", kind]
            self._request(argv, KEYS["join"] | {"result"}, elements=2)
        elif kind == "idempotents":
            self._request(base + ["--idempotents"], KEYS["join"] | {"idempotents"})
        elif kind == "unit-count":
            self._request(base + ["--unit-count"], KEYS["join"] | {"unit_count", "rooted_formula"})
        else:
            if kind == "inverse":
                a = _until(rng, lambda r: _random_join(r, shape), joinring.join_is_unit)
            else:
                a = _random_join(rng, shape)
            key = {"is-unit": "is_unit", "embed": "matrix"}.get(kind, kind)
            self._request(base + ["--a", _join_literal(a), f"--{kind}"],
                          KEYS["join"] | {key}, elements=1)

    def _zeta(self, i):
        rng = self.rng
        kind = i % 3
        if kind == 0:
            spec = rng.choice([s for s in CALC_SHAPES if s != "join(S3,Q8;F5)"])
            argv = ["zeta", "--shape", spec]
        elif kind == 1:
            field, gspec = rng.choice(CALC_ZETA_GROUPS)
            argv = ["zeta", "--group", gspec, "--field", field]
        else:
            argv = ["zeta", "--semimagic", str(rng.randrange(1, 7)),
                    "--field", rng.choice(CALC_FIELDS)]

        def verify(r):
            pole = -sum(r["factors"].values())
            return None if r["pole_order_at_zero"] == pole else "pole order != -sum(exponents)"
        self._request(argv, KEYS["zeta"], verify)

    def _rooted(self, i):
        rng = self.rng
        q = rng.choice([f.q for f in self.ctx.values() if f.k == 1])  # bases must be prime
        primes = rng.sample([p for p in ODD_PRIMES if p != q], 1 + i % 3)
        want = all(_mult_order(q, p) == p - 1 for p in primes)
        verify = lambda r: None if r["verdict"] is want else "wrong rooted verdict"  # noqa: E731
        self._request(["rooted", "--primes", ",".join(map(str, primes)), "--base", str(q)],
                      KEYS["rooted"], verify)

    def _delta(self, i):
        rng = self.rng
        p, r = rng.choice(SMALL_PRIMES), rng.randrange(1, 6)
        kind = i % 4
        if kind in (0, 1):
            spec = rng.choice(CALC_FIELDS)
            q = self.ctx[spec].q
            want = p**r % (q - 1) == 0
            verify = lambda rep: None if rep["verdict"] is want else "wrong verdict"  # noqa: E731
            self._request(["delta", "--field", spec, "--p", str(p), "--r", str(r)],
                          KEYS["delta"], verify)
        elif kind == 2:
            field, gspec = rng.choice(CALC_DELTA_GROUPS)
            self._request(["delta", "--field", field, "--group", gspec, "--p", "2",
                           "--r", str(r)], KEYS["delta"])
        else:
            spec = rng.choice(CALC_DELTA_SHAPES)
            self._request(["delta", "--shape", spec, "--p", "2", "--r", str(r)],
                          KEYS["delta"])

    def _sweep(self, i):
        rng = self.rng
        kind = i % 3
        if kind == 0:
            argv = ["sweep", "rooted", "--pmax", str(rng.randrange(8, 16)), "--bases", "2,3"]
            keys = KEYS["sweep"] | {"rows"}
        elif kind == 1:
            argv = ["sweep", "delta-fields", "--qmax", str(rng.randrange(12, 20)),
                    "--pmax", "7", "--rmax", "2"]
            keys = KEYS["sweep"]
        else:
            argv = ["--seed", str(rng.randrange(10**6)), "sweep", "block-formula",
                    "--count", "3", "--shapes", rng.choice(CALC_SHAPES[:4])]
            keys = (KEYS["sweep"] - {"cases"}) | {"seed", "rows"}
        verify = lambda r: None if r["all_consistent"] is True else "inconsistent"  # noqa: E731
        self._request(argv, keys, verify)

    def _invalid(self, i):
        """Inputs the CLI must reject with its documented exit code.

        Templates 1 and 2 are out-of-range field codes; the CLI does not
        check code ranges yet, so these fail (a raw IndexError, and exit 0
        with a result).  They are marked as known defects: counted in the
        failure ratio as they are, without making the run incorrect.  Every
        other template is handled correctly today, so its failure is a
        regression like that of a valid request.
        """
        rng = self.rng
        spec = rng.choice(CALC_FIELDS)
        q = self.ctx[spec].q
        templates = [
            (["field", rng.choice(["F6", "F10", "F12", "F15"])], 1),
            (["field", spec, "--op", "add", "--a", str(q + rng.randrange(q)), "--b", "0"], 1,
             True),
            (["field", spec, "--op", "add", "--a", str(-rng.randrange(1, q)), "--b", "0"], 1,
             True),
            (["gr", "--field", "F2", "--group", "C3", "--a", f"1+g{rng.randrange(3, 9)}"], 1),
            (["join", "--shape", "join(C3;F6)"], 1),
            (["zeta"], 1),
            (["frobnicate"], 2),
            (["field", "F9", "--a", "x"], 2),
            (["rooted", "--primes", "3,3", "--base", "2"], 1),
            (["delta", "--p", "4", "--r", "1", "--field", "F5"], 1),
        ]
        argv, code, *known = templates[i % len(templates)]
        self._request(argv, set(), code=code, known_defect=bool(known))


# ---------------------------------------------------------------------------
# join-units: library calls on pinned join shapes
# ---------------------------------------------------------------------------

JOIN_SHAPES = ["join(C3,C5;F2)", "join(C3,C5,C7;F4)", "join(S3,Q8;F5)",
               "join(C7,C9;F25)", "join(C16,C16;F9)", "join(C3,C5;F256)"]
# requests of each kind per shape per pass
# (half the unit tests get a unit, half a non-unit, so their cost does not
# depend on the seed)
JOIN_MIX = {"mul": 32, "is_unit": 16, "inverse": 8, "gr_inverse": 16, "gen_augmentation": 16}


def _mul(a, b):
    return a * b


def _join_is_unit(a):
    return joinring.join_is_unit(a)


def _join_inverse(a):
    return joinring.join_inverse(a)


def _gr_is_unit(a):
    return groupring.gr_is_unit(a)


def _gr_inverse(a):
    return groupring.gr_inverse(a)


def _gen_augmentation(a, subgroups):
    return joinring.gen_augmentation(a, subgroups)


def _non_unit(rng, shape) -> JoinElem:
    """A random element with one block a multiple of the all-ones element.

    That block's rows of the embedding are then all equal, so the element
    is not a unit.
    """
    a = _random_join(rng, shape)
    i = rng.choice([k for k, g in enumerate(shape.groups) if g.order > 1])
    blocks = list(a.blocks)
    c = rng.randrange(shape.ctx.q)
    blocks[i] = GroupRingElem(shape.ctx, shape.groups[i], [c] * shape.groups[i].order)
    return JoinElem(shape, blocks, a.offdiag)


def _dense_unit(a: JoinElem) -> bool:
    """A unit with every off-diagonal entry nonzero.

    A zero entry makes the embedding block-triangular and its inverse about
    a quarter cheaper.  The inverses in join(C16,C16;F9) are the slowest
    1.5% of a pass, so with eight of them the seed would otherwise decide
    how many are cheap, and so move the p99 latency by up to a sixth.
    """
    return (all(v for i, row in enumerate(a.offdiag) for j, v in enumerate(row) if i != j)
            and joinring.join_is_unit(a))


def _random_normal_subgroup(rng, group):
    """The trivial or full subgroup, or one generated by a random element if normal."""
    choice = rng.randrange(3)
    if choice == 0:
        return group.trivial_subgroup()
    if choice == 1:
        return group.full_subgroup()
    h = group.subgroup_generated([rng.randrange(group.order)])
    return h if h.is_normal else group.full_subgroup()


def _check_gen_augmentation(a: JoinElem, subgroups):
    """Coset sums of each block, and a_ij scaled by |H_j|, computed directly."""
    ctx = a.shape.ctx

    def check(out):
        for i, (blk, h) in enumerate(zip(a.blocks, subgroups)):
            table, seen, sums = blk.group.table, set(), []
            for g in range(blk.group.order):
                if g in seen:
                    continue
                coset = {table[g][x] for x in h.elements}
                seen |= coset
                total = 0
                for x in coset:
                    total = ctx.add(total, blk.coeffs[x])
                sums.append(total)
            if list(out.blocks[i].coeffs) != sums:
                return f"block {i} coset sums differ"
        for i in range(a.shape.d):
            for j in range(a.shape.d):
                want = ctx.mul(a.offdiag[i][j], len(subgroups[j].elements) % ctx.p) if i != j else 0
                if out.offdiag[i][j] != want:
                    return f"off-diagonal ({i}, {j}) not scaled by |H_j|"
        return None
    return check


class JoinUnits(Workload):
    """Products, unit tests, inverses and augmentations in six join rings."""

    name = "join-units"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        for spec in JOIN_SHAPES:
            shape = parse_shape_spec(spec)
            ctx, one = shape.ctx, shape.one()
            for _ in range(JOIN_MIX["mul"]):
                a, b = _random_join(rng, shape), _random_join(rng, shape)
                self.add(_mul, (a, b), _check_matrix_product(a, b), 2,
                         f"{spec} mul {_join_text(a)} {_join_text(b)}")
            for k in range(JOIN_MIX["is_unit"]):
                a = (_until(rng, lambda r: _random_join(r, shape), joinring.join_is_unit)
                     if k % 2 else _non_unit(rng, shape))
                self.add(_join_is_unit, (a,),
                         _check_unit_verdict(joinring.join_embed, a, ctx), 1,
                         f"{spec} is_unit {_join_text(a)}")
            for _ in range(JOIN_MIX["inverse"]):
                u = _until(rng, lambda r: _random_join(r, shape), _dense_unit)
                self.add(_join_inverse, (u,), _check_inverse(u, one), 1,
                         f"{spec} inverse {_join_text(u)}")
            for k in range(JOIN_MIX["gr_inverse"]):
                group = shape.groups[k % shape.d]
                x = _until(rng, lambda r: _random_gr(r, ctx, group), groupring.gr_is_unit)
                self.add(_gr_inverse, (x,), _check_inverse(x, GroupRingElem.one(ctx, group)),
                         1, f"{spec} gr_inverse {list(x.coeffs)}")
            for _ in range(JOIN_MIX["gen_augmentation"]):
                a = _random_join(rng, shape)
                subs = [_random_normal_subgroup(rng, g) for g in shape.groups]
                self.add(_gen_augmentation, (a, subs), _check_gen_augmentation(a, subs), 1,
                         f"{spec} gen_augmentation {_join_text(a)} "
                         f"{[h.elements for h in subs]}")
        self.shuffle()


# ---------------------------------------------------------------------------
# oracle-enum: pinned exhaustive jobs
# ---------------------------------------------------------------------------

# Unit counts without a closed form in the package.  F2[C12] is
# F2[x]/(x^4) x F4[x]/(x^4), so 8 * 192 units; F5[S3] is F5 x F5 x M2(F5),
# so 4 * 4 * 480; F2[C2xC4] is local, so its units are the 128 elements of
# augmentation 1.  The two join counts and SM3(F3) are exhaustive counts,
# confirmed by a rank count over the matrix embedding written apart from
# joinrings.
PINNED_UNITS = {"F2[C12]": 1536, "F5[S3]": 7680, "join(C2,C3;F3)": 648,
                "SM3(F3)": 108, "join(C2,C3;F2)": 24, "F2[C2xC4]": 128}
# unit-group exponents for the unit_orders jobs
PINNED_EXPONENT = {"F3[C5]": 80, "F2[C2xC4]": 4, "join(C2,C3;F2)": 12}
# F2[C6] = F2[x]/(x^2) x F4[x]/(x^2); F3[C3] is local with radical the
# augmentation ideal; SM3(F2) is semisimple since 2 does not divide 3.
PINNED_RADICAL = {"F2[C6]": 8, "F3[C3]": 9, "SM3(F2)": 1}
# F2[S3] = M2(F2) x F2[C2]: 6 * 2 units, radical {0, 1+g} of F2[C2], image 6
PINNED_FACTORIZATION = {"F2[S3]": (12, 2, 6), "join(C2,C2;F2)": (16, 16, 1)}
# F3[C9]: (1 + a)^9 = 1 + a^9 and the augmentation ideal has nilpotency 9
PINNED_EXP_U1 = {"F3[C9]": 9}

ORACLE_JOBS = [
    ("enumerate_units", ["F2[C12]", "F3[C7]", "F4[C5]", "F5[S3]", "F7[C4]",
                         "join(C3,C5;F2)", "join(C2,C3;F3)", "SM3(F3)"]),
    ("unit_orders", ["F3[C5]", "F2[C2xC4]", "join(C2,C3;F2)"]),
    ("jacobson_radical", ["F2[C6]", "F3[C3]", "SM3(F2)"]),
    ("semisimple_unit_factorization", ["F2[S3]", "join(C2,C2;F2)"]),
    ("exp_U1", ["F3[C9]"]),
]


def _oracle(fn_name, *args):
    return getattr(oracle, fn_name)(*args)


def _ring(label):
    if label.startswith("join("):
        return oracle.JoinRingEnum(parse_shape_spec(label))
    if label.startswith("SM"):
        n, field = label[2:].split("(")
        return oracle.semimagic_ring(int(n), parse_field(field.rstrip(")")))
    field, group = label.rstrip("]").split("[")
    return oracle.GroupRingEnum(parse_group_spec(group), parse_field(field))


def _closed_unit_count(label, ring) -> int:
    if label in PINNED_UNITS:
        return PINNED_UNITS[label]
    if isinstance(ring, oracle.JoinRingEnum):
        return joinring.join_unit_count(ring.shape)
    return groupring.gr_unit_count(ring.group, ring.ctx)


def _order_of(ring, u, t) -> str | None:
    """None when u^t = 1 and u^(t/f) != 1 for every prime f dividing t."""
    one = ring.one
    if u ** t != one:
        return f"u^{t} != 1"
    f = 2
    rest = t
    while rest > 1:
        if rest % f == 0:
            if u ** (t // f) == one:
                return f"u^{t // f} = 1, order below {t}"
            while rest % f == 0:
                rest //= f
        f += 1
    return None


def _check_oracle(fn_name, label, ring):
    def check(out):
        if fn_name == "enumerate_units":
            want = _closed_unit_count(label, ring)
            return None if out == want else f"{label}: {out} units, expected {want}"
        if fn_name == "unit_orders":
            want = _closed_unit_count(label, ring)
            if len(out) != want:
                return f"{label}: {len(out)} units, expected {want}"
            if lcm(*(t for _, t in out)) != PINNED_EXPONENT[label]:
                return f"{label}: exponent differs from {PINNED_EXPONENT[label]}"
            for u, t in out:
                reason = _order_of(ring, u, t)
                if reason:
                    return f"{label}: {reason}"
            return None
        if fn_name == "jacobson_radical":
            want = PINNED_RADICAL[label]
            return None if len(out) == want else f"{label}: radical {len(out)}, expected {want}"
        if fn_name == "semisimple_unit_factorization":
            want = PINNED_FACTORIZATION[label]
            return None if tuple(out) == want else f"{label}: {out}, expected {want}"
        want = PINNED_EXP_U1[label]
        return None if out == want else f"{label}: exponent {out}, expected {want}"
    return check


class OracleEnum(Workload):
    """One pass is the pinned job list in a seeded order."""

    name = "oracle-enum"

    def __init__(self, seed: int):
        super().__init__(seed)
        for fn_name, labels in ORACLE_JOBS:
            for label in labels:
                if fn_name == "exp_U1":
                    field, group = label.rstrip("]").split("[")
                    args = (parse_group_spec(group), parse_field(field))
                    ring = oracle.GroupRingEnum(*args)
                else:
                    ring = _ring(label)
                    args = (ring,)
                self.add(_oracle, (fn_name, *args), _check_oracle(fn_name, label, ring),
                         ring.size, f"{fn_name} {label}")
        self.shuffle()


# ---------------------------------------------------------------------------
# wide-field: large fields, tabled and untabled
# ---------------------------------------------------------------------------

WIDE_FIELDS = ["F256", "F1031", "F2048", "F2187"]
# requests of each kind per field per pass
WIDE_MIX = {"add": 120, "mul": 120, "inv": 60, "pow": 30, "mult_order": 12}
WIDE_GR = ("F2048", "C5")
WIDE_JOIN = "join(C3,C5;F2048)"
WIDE_RING_MIX = {"gr_mul": 12, "gr_is_unit": 6, "join_mul": 9, "join_is_unit": 6}


def _digits(code: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        code, d = divmod(code, p)
        out.append(d)
    return out


def _undigits(digits, p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d % p
    return code


def ref_add(ctx, a: int, b: int) -> int:
    """Digit-wise addition, written apart from joinrings.ffield."""
    p, k = ctx.p, ctx.k
    return _undigits([x + y for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def ref_mul(ctx, a: int, b: int) -> int:
    """Schoolbook product reduced by the field's monic modulus."""
    p, k, m = ctx.p, ctx.k, ctx.modulus
    if k == 1:
        return a * b % p
    x, y = _digits(a, p, k), _digits(b, p, k)
    prod = [0] * (2 * k - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg] % p
        if c:
            for t in range(k + 1):
                prod[deg - k + t] -= c * m[t]
    return _undigits(prod[:k], p)


def ref_pow(ctx, a: int, e: int) -> int:
    result, base = 1, a
    while e:
        if e & 1:
            result = ref_mul(ctx, result, base)
        base = ref_mul(ctx, base, base)
        e >>= 1
    return result


def _prime_divisors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def _check_field(ctx, op, args):
    q = ctx.q

    def check(out):
        a = args[0]
        if op == "add":
            ok = out == ref_add(ctx, *args)
        elif op == "mul":
            ok = out == ref_mul(ctx, *args)
        elif op == "inv":
            ok = ref_mul(ctx, a, out) == 1
        elif op == "pow":
            ok = out == ref_pow(ctx, *args) and ref_pow(ctx, a, q - 1) == 1
        else:
            ok = ((q - 1) % out == 0 and ref_pow(ctx, a, out) == 1
                  and all(ref_pow(ctx, a, out // f) != 1 for f in _prime_divisors(out)))
        return None if ok else f"F{q} {op}{tuple(args)} gave {out}"
    return check


def _check_convolution(x: GroupRingElem, y: GroupRingElem):
    """x * y as a direct convolution with the reference field arithmetic."""
    ctx, table = x.ctx, x.group.table

    def check(out):
        want = [0] * x.group.order
        for h, xh in enumerate(x.coeffs):
            for k, yk in enumerate(y.coeffs):
                g = table[h][k]
                want[g] = ref_add(ctx, want[g], ref_mul(ctx, xh, yk))
        return None if list(out.coeffs) == want else "group-ring product differs"
    return check


class WideField(Workload):
    """Field ops on random codes in four large fields, plus a few ring ops."""

    name = "wide-field"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        for spec in WIDE_FIELDS:
            ctx = parse_field(spec)
            q = ctx.q
            for op, count in WIDE_MIX.items():
                for _ in range(count):
                    a = rng.randrange(1, q)
                    if op in ("add", "mul"):
                        args = (a, rng.randrange(q))
                    elif op == "pow":
                        args = (a, rng.randrange(q * q))
                    else:
                        args = (a,)
                    self.add(getattr(ctx, op), args, _check_field(ctx, op, args),
                             2 if op in ("add", "mul") else 1, f"{spec} {op} {args}")
        ctx, group = parse_field(WIDE_GR[0]), parse_group_spec(WIDE_GR[1])
        for _ in range(WIDE_RING_MIX["gr_mul"]):
            x, y = _random_gr(rng, ctx, group), _random_gr(rng, ctx, group)
            self.add(_mul, (x, y), _check_convolution(x, y), 2,
                     f"gr mul {list(x.coeffs)} {list(y.coeffs)}")
        for _ in range(WIDE_RING_MIX["gr_is_unit"]):
            x = _random_gr(rng, ctx, group)
            self.add(_gr_is_unit, (x,),
                     _check_unit_verdict(groupring.circulant_rows, x, ctx), 1,
                     f"gr is_unit {list(x.coeffs)}")
        shape = parse_shape_spec(WIDE_JOIN)
        for _ in range(WIDE_RING_MIX["join_mul"]):
            a, b = _random_join(rng, shape), _random_join(rng, shape)
            self.add(_mul, (a, b), _check_matrix_product(a, b), 2,
                     f"join mul {_join_text(a)} {_join_text(b)}")
        for _ in range(WIDE_RING_MIX["join_is_unit"]):
            a = _random_join(rng, shape)
            self.add(_join_is_unit, (a,),
                     _check_unit_verdict(joinring.join_embed, a, shape.ctx), 1,
                     f"join is_unit {_join_text(a)}")
        self.shuffle()


WORKLOADS = {w.name: w for w in (CalcMix, JoinUnits, OracleEnum, WideField)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# the traced run's reference pass
# ---------------------------------------------------------------------------

def reference_calls() -> list[tuple]:
    """Small pinned calls that reach every traced function at least once.

    The traced run makes them before the workload's own requests, so every
    per-layer figure is defined on every workload; on a workload that does
    not use a layer, that layer's figures come from these calls alone.
    """
    shape = parse_shape_spec("join(C2,C3;F3)")
    rng = random.Random("reference")
    a, b = _random_join(rng, shape), _random_join(rng, shape)
    u = _until(rng, lambda r: _random_join(r, shape), joinring.join_is_unit)
    ctx, c2 = parse_field("F3"), parse_group_spec("C2")
    x = GroupRingElem(ctx, c2, [1, 1])
    f2 = parse_field("F2")
    tiny = oracle.GroupRingEnum(c2, f2)
    argvs = [["rooted", "--primes", "3", "--base", "2"],
             ["delta", "--field", "F4", "--p", "3", "--r", "1"],
             ["delta", "--field", "F3", "--group", "C2", "--p", "2", "--r", "1"],
             ["delta", "--shape", "join(C2,C2;F2)", "--p", "2", "--r", "1"],
             ["zeta", "--semimagic", "3", "--field", "F2"]]
    calls = [(_cli, (["--json", *argv],)) for argv in argvs]
    calls += [
        (_mul, (a, b)), (_join_is_unit, (a,)), (_join_inverse, (u,)),
        (_gen_augmentation, (a, [g.full_subgroup() for g in shape.groups])),
        (_mul, (x, x)), (_gr_is_unit, (x,)), (_gr_inverse, (GroupRingElem(ctx, c2, [1, 0]),)),
        (lambda m: linalg.mat_mul(m, m, shape.ctx), (joinring.join_embed(a),)),
        (lambda m: linalg.nullspace(m, shape.ctx), (joinring.join_embed(a),)),
        (_oracle, ("enumerate_units", tiny)), (_oracle, ("unit_orders", tiny)),
        (_oracle, ("jacobson_radical", tiny)),
        (_oracle, ("semisimple_unit_factorization", tiny)),
        (_oracle, ("exp_U1", c2, f2)),
    ]
    return calls
