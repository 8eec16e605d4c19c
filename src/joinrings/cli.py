"""Command-line front end.

One subcommand per theme: field / group / gr / join / zeta / rooted /
delta / oracle / sweep.  Every command builds a plain dict report; the
--json flag switches the rendering, never the content.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import arith, oracle
from .errors import AlgebraError, InternalConsistencyError
from .ffield import parse_field
from .groupring import (
    circulant_rows,
    format_element,
    gr_inverse,
    gr_is_unit,
    gr_unit_count,
    parse_element,
)
from .groups import parse_group_spec
from .joinring import (
    JoinElem,
    JoinShape,
    join_embed,
    join_idempotents,
    join_inverse,
    join_is_unit,
    join_unit_count,
    parse_join_element,
    parse_shape_spec,
    thm_unit_count_rooted,
)
from .groupring import GroupRingElem
from .zeta import zeta_group_ring, zeta_join, zeta_semimagic

DEFAULT_SEED = 20240817


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="joinrings",
        description="Calculator for join rings of group rings over finite fields.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed for sweeps")
    parser.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                        help="enumeration cap for oracle commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="finite field info and arithmetic")
    p.add_argument("spec", help='field spec, e.g. "F9"')
    p.add_argument("--a", type=int, help="element code")
    p.add_argument("--b", type=int, help="second element code (or exponent for pow)")
    p.add_argument("--op", choices=["add", "sub", "mul", "div", "pow"])
    p.add_argument("--order", type=int, help="multiplicative order of this element code")

    p = sub.add_parser("group", help="finite group info")
    p.add_argument("spec", help='group spec, e.g. "C2xC4", "S3", "Q8"')

    p = sub.add_parser("gr", help="group ring calculator")
    p.add_argument("--field", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--a", help='element literal, e.g. "1+g1+2*g2"')
    p.add_argument("--b")
    p.add_argument("--op", choices=["add", "mul"])
    p.add_argument("--inverse", action="store_true", help="invert element --a")
    p.add_argument("--is-unit", action="store_true", dest="is_unit")
    p.add_argument("--circulant", action="store_true", help="print the circulant of --a")
    p.add_argument("--unit-count", action="store_true", dest="unit_count")

    p = sub.add_parser("join", help="join ring calculator")
    p.add_argument("--shape", required=True, help='e.g. "join(C3,C5;F2)"')
    p.add_argument("--a", help='element literal "blk;blk;a[i][j]=v;..."')
    p.add_argument("--b")
    p.add_argument("--op", choices=["add", "mul"])
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--is-unit", action="store_true", dest="is_unit")
    p.add_argument("--embed", action="store_true", help="matrix embedding of --a")
    p.add_argument("--idempotents", action="store_true")
    p.add_argument("--unit-count", action="store_true", dest="unit_count")

    p = sub.add_parser("zeta", help="zeta functions of enumerable rings")
    p.add_argument("--shape")
    p.add_argument("--group")
    p.add_argument("--semimagic", type=int, metavar="N")
    p.add_argument("--field")

    p = sub.add_parser("rooted", help="rooted-prime equivalence report")
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--base", required=True, type=int)

    p = sub.add_parser("delta", help="u^(p^r) = 1 classification")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--field")
    p.add_argument("--group")
    p.add_argument("--shape")

    p = sub.add_parser("oracle", help="exhaustive enumeration checks")
    p.add_argument("--group")
    p.add_argument("--field")
    p.add_argument("--shape")
    p.add_argument("--semimagic", type=int, metavar="N")
    p.add_argument("--units", action="store_true")
    p.add_argument("--exponent", action="store_true")
    p.add_argument("--radical", action="store_true")
    p.add_argument("--delta-n", type=int, dest="delta_n")
    p.add_argument("--order", type=int, help="count units of exactly this order")

    p = sub.add_parser("sweep", help="grid sweeps of the library's invariants")
    p.add_argument("kind", choices=["rooted", "delta-fields", "block-formula"])
    p.add_argument("--pmax", type=int, default=30)
    p.add_argument("--bases", default="2,3,5")
    p.add_argument("--qmax", type=int, default=64)
    p.add_argument("--rmax", type=int, default=5)
    p.add_argument("--shapes", default="join(C3,C5;F2),join(S3,C2;F3),"
                   "join(trivial,C3;F5),join(C2,C2,C2;F2),join(C4;F3)")
    p.add_argument("--count", type=int, default=1000, help="random pairs per shape")
    return parser


# ---------------------------------------------------------------------------
# command handlers: each returns a report dict
# ---------------------------------------------------------------------------

def _cmd_field(args) -> dict:
    ctx = parse_field(args.spec)
    report = {
        "field": f"F{ctx.q}",
        "p": ctx.p,
        "k": ctx.k,
        "q": ctx.q,
        "modulus": ctx.poly_str(ctx.modulus),
    }
    if args.op:
        if args.a is None or args.b is None:
            raise AlgebraError("--op requires --a and --b")
        fn = {"add": ctx.add, "sub": ctx.sub, "mul": ctx.mul,
              "div": ctx.div, "pow": ctx.pow}[args.op]
        b = args.b if args.op == "pow" else ctx.check_code(args.b)  # pow: --b is an exponent
        report["result"] = fn(ctx.check_code(args.a), b)
    if args.order is not None:
        report["mult_order"] = ctx.mult_order(ctx.check_code(args.order))
    return report


def _cmd_group(args) -> dict:
    g = parse_group_spec(args.spec)
    return {
        "group": g.name,
        "order": g.order,
        "abelian": g.is_abelian,
        "exponent": g.exponent(),
        "order_counts": {str(k): v for k, v in sorted(g.order_counts().items())},
    }


def _cmd_gr(args) -> dict:
    ctx = parse_field(args.field)
    group = parse_group_spec(args.group)
    report = {"ring": f"F{ctx.q}[{group.name}]", "dimension": group.order}
    a = parse_element(args.a, group, ctx) if args.a else None
    if args.op:
        if a is None or args.b is None:
            raise AlgebraError("--op requires --a and --b")
        b = parse_element(args.b, group, ctx)
        out = a + b if args.op == "add" else a * b
        report["result"] = format_element(out)
    if args.is_unit:
        report["is_unit"] = gr_is_unit(_require(a, "--is-unit"))
    if args.inverse:
        report["inverse"] = format_element(gr_inverse(_require(a, "--inverse")))
    if args.circulant:
        report["circulant"] = circulant_rows(_require(a, "--circulant"))
    if args.unit_count:
        report["unit_count"] = gr_unit_count(group, ctx)
    return report


def _cmd_join(args) -> dict:
    shape = parse_shape_spec(args.shape)
    report = {"shape": repr(shape), "dimension": shape.dimension(), "n": shape.n}
    a = parse_join_element(args.a, shape) if args.a else None
    if args.op:
        if a is None or args.b is None:
            raise AlgebraError("--op requires --a and --b")
        b = parse_join_element(args.b, shape)
        out = a + b if args.op == "add" else a * b
        report["result"] = json.loads(out.to_json())
    if args.is_unit:
        report["is_unit"] = join_is_unit(_require(a, "--is-unit"))
    if args.inverse:
        report["inverse"] = json.loads(join_inverse(_require(a, "--inverse")).to_json())
    if args.embed:
        report["matrix"] = join_embed(_require(a, "--embed"))
    if args.idempotents:
        subs = [g.full_subgroup() for g in shape.groups]
        report["idempotents"] = [json.loads(e.to_json()) for e in join_idempotents(shape, subs)]
    if args.unit_count:
        report["unit_count"] = join_unit_count(shape)
        report["rooted_formula"] = thm_unit_count_rooted(shape)
    return report


def _cmd_zeta(args) -> dict:
    if args.shape:
        z = zeta_join(parse_shape_spec(args.shape))
        subject = args.shape
    elif args.group:
        if not args.field:
            raise AlgebraError("--group requires --field")
        z = zeta_group_ring(parse_group_spec(args.group), parse_field(args.field))
        subject = f"F{parse_field(args.field).q}[{args.group}]"
    elif args.semimagic is not None:
        if not args.field:
            raise AlgebraError("--semimagic requires --field")
        z = zeta_semimagic(args.semimagic, parse_field(args.field).q)
        subject = f"SM{args.semimagic}(F{parse_field(args.field).q})"
    else:
        raise AlgebraError("zeta needs one of --shape, --group, --semimagic")
    return {
        "subject": subject,
        "zeta": z.pretty(),
        "factors": {str(k): v for k, v in sorted(z.factors.items())},
        "pole_order_at_zero": z.pole_order_at_zero(),
        "degree": z.degree(),
    }


def _cmd_rooted(args) -> dict:
    primes = [int(s) for s in args.primes.split(",") if s]
    return arith.rooted_equivalence_report(primes, args.base).to_json()


def _cmd_delta(args) -> dict:
    if args.shape and (args.field or args.group):
        raise AlgebraError("delta --shape cannot be combined with --field/--group")
    if args.shape:
        shape = parse_shape_spec(args.shape)
        c = arith.classify_join_delta(shape.ctx.q, shape, args.p, args.r)
    elif args.group:
        if not args.field:
            raise AlgebraError("delta --group requires --field")
        ctx = parse_field(args.field)
        c = arith.classify_group_algebra_delta(
            ctx.q, parse_group_spec(args.group), args.p, args.r
        )
    elif args.field:
        c = arith.classify_field_delta(parse_field(args.field).q, args.p, args.r)
    else:
        raise AlgebraError("delta needs one of --field, --group, --shape")
    return c.to_json()


def _oracle_ring(args) -> oracle.EnumerableRing:
    if args.shape:
        return oracle.JoinRingEnum(parse_shape_spec(args.shape))
    if args.semimagic is not None:
        if not args.field:
            raise AlgebraError("--semimagic requires --field")
        return oracle.semimagic_ring(args.semimagic, parse_field(args.field))
    if args.group:
        if not args.field:
            raise AlgebraError("--group requires --field")
        return oracle.GroupRingEnum(parse_group_spec(args.group), parse_field(args.field))
    raise AlgebraError("oracle needs one of --group, --shape, --semimagic")


def _cmd_oracle(args) -> dict:
    ring = _oracle_ring(args)
    report = {"ring": repr(ring), "size": ring.size}
    if args.units:
        report["unit_count"] = oracle.enumerate_units(ring, args.cap)
    if args.exponent:
        report["unit_group_exponent"] = oracle.unit_group_exponent(ring, args.cap)
    if args.radical:
        rad = oracle.jacobson_radical(ring, args.cap)
        units, rsize, image = oracle.semisimple_unit_factorization(ring, args.cap)
        report["radical_size"] = len(rad)
        report["unit_factorization"] = {
            "units": units, "radical": rsize, "image": image,
            "holds": units == rsize * image,
        }
    if args.delta_n is not None:
        ok, witness, order = oracle.is_delta_n(ring, args.delta_n, args.cap)
        report["is_delta"] = {"n": args.delta_n, "verdict": ok}
        if not ok:
            report["is_delta"]["witness"] = ring.label(witness)
            report["is_delta"]["witness_order"] = order
    if args.order is not None:
        report["units_of_order"] = {
            "m": args.order,
            "count": oracle.units_of_order(ring, args.order, args.cap),
        }
    return report


def _cmd_sweep(args) -> dict:
    if args.kind == "rooted":
        return _sweep_rooted(args)
    if args.kind == "delta-fields":
        return _sweep_delta_fields(args)
    return _sweep_block_formula(args)


def _sweep_rooted(args) -> dict:
    from .ntheory import is_prime

    bases = [int(s) for s in args.bases.split(",") if s]
    rows = []
    for q in bases:
        for p in range(2, args.pmax):
            if not is_prime(p) or p == q:
                continue
            rep = arith.rooted_equivalence_report([p], q)
            rows.append({"p": p, "q": q, "rooted": rep.agree,
                         "unit_count": rep.unit_count})
    return {"kind": "rooted", "cases": len(rows),
            "all_consistent": True, "rows": rows}


def _sweep_delta_fields(args) -> dict:
    from .ntheory import is_prime, prime_power

    checked = 0
    for q in range(2, args.qmax + 1):
        if prime_power(q) is None:
            continue
        for p in range(2, args.pmax + 1):
            if not is_prime(p):
                continue
            for r in range(1, args.rmax + 1):
                arith.classify_field_delta(q, p, r)  # raises on any mismatch
                checked += 1
    return {"kind": "delta-fields", "cases": checked, "all_consistent": True}


def random_join_element(shape: JoinShape, rng: random.Random) -> JoinElem:
    q = shape.ctx.q
    blocks = [
        GroupRingElem(shape.ctx, g, [rng.randrange(q) for _ in range(g.order)])
        for g in shape.groups
    ]
    offdiag = [
        [rng.randrange(q) if i != j else 0 for j in range(shape.d)]
        for i in range(shape.d)
    ]
    return JoinElem(shape, blocks, offdiag)


def _sweep_block_formula(args) -> dict:
    from . import linalg

    rng = random.Random(args.seed)
    shapes = [parse_shape_spec(s) for s in _split_shape_list(args.shapes)]
    if not shapes:
        raise AlgebraError("block-formula sweep needs join shape specs")
    rows = []
    for shape in shapes:
        failures = 0
        for _ in range(args.count):
            a = random_join_element(shape, rng)
            b = random_join_element(shape, rng)
            lhs = join_embed(a * b)
            rhs = linalg.mat_mul(join_embed(a), join_embed(b), shape.ctx)
            if lhs != rhs:
                failures += 1
        rows.append({"shape": repr(shape), "pairs": args.count, "failures": failures})
    total_failures = sum(r["failures"] for r in rows)
    if total_failures:
        raise InternalConsistencyError(
            f"block product disagrees with the matrix embedding in "
            f"{total_failures} sampled pairs"
        )
    return {"kind": "block-formula", "seed": args.seed, "rows": rows,
            "all_consistent": True}


def _require(value, flag: str):
    if value is None:
        raise AlgebraError(f"{flag} requires --a")
    return value


_HANDLERS = {
    "field": _cmd_field,
    "group": _cmd_group,
    "gr": _cmd_gr,
    "join": _cmd_join,
    "zeta": _cmd_zeta,
    "rooted": _cmd_rooted,
    "delta": _cmd_delta,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
}


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
                lines.append(f"{pad}  -")
            lines.pop()
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _split_shape_list(text: str) -> list[str]:
    """Split on commas that sit outside parentheses."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [s.strip() for s in out if s.strip()]


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _HANDLERS[args.command](args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report))
    else:
        print(_render_text(report))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
