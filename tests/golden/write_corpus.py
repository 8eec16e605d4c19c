"""Write the pinned CLI corpus that tests/test_golden.py replays.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/write_corpus.py

Each argv of CASES is recorded twice, as given and with --json in front:
the argv, the exit code, the stdout and the first line of the stderr, one
JSON object per line of corpus.jsonl.  The test replays every entry
through cli.run and compares the record; a change that alters an entry
lists it, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from joinrings import cli

CORPUS = Path(__file__).with_name("corpus.jsonl")

C2_C3_F5 = "join(C2,C3;F5)"

CASES = [
    # field: every --op, --order, and the refusals
    ["field", "F9"],
    ["field", "F9", "--op", "add", "--a", "4", "--b", "5"],
    ["field", "F9", "--op", "sub", "--a", "4", "--b", "5"],
    ["field", "F7", "--op", "mul", "--a", "3", "--b", "5"],
    ["field", "F8", "--op", "div", "--a", "3", "--b", "5"],
    ["field", "F4", "--op", "pow", "--a", "2", "--b", "7"],
    ["field", "F9", "--order", "3"],
    ["field", "F6"],
    ["field", "F5", "--op", "add", "--a", "7", "--b", "0"],
    ["field", "F5", "--op", "add", "--a", "1"],
    ["field", "F9", "--a", "x"],
    ["field", "F9", "--op", "root", "--a", "1", "--b", "1"],
    # group
    ["group", "C2xC4"],
    ["group", "S3"],
    ["group", "Q8"],
    ["group", "trivial"],
    ["group", "D4"],
    # gr: element operations on cyclic and non-cyclic groups, unit counts
    ["gr", "--field", "F2", "--group", "C3", "--a", "1+g1+g2", "--is-unit", "--unit-count"],
    ["gr", "--field", "F2", "--group", "C7", "--a", "1+g1+g2", "--inverse"],
    ["gr", "--field", "F5", "--group", "S3", "--a", "2+g1", "--inverse", "--is-unit"],
    ["gr", "--field", "F5", "--group", "S3", "--a", "1+g1", "--inverse"],
    ["gr", "--field", "F3", "--group", "C4", "--a", "1+2*g1", "--b", "g2+g3", "--op", "mul"],
    ["gr", "--field", "F5", "--group", "C2xC2", "--a", "1+g1", "--b", "2*g3", "--op", "add"],
    ["gr", "--field", "F2", "--group", "S3", "--a", "1+g1+g3", "--circulant"],
    ["gr", "--field", "F4", "--group", "C5", "--unit-count"],
    ["gr", "--field", "F5", "--group", "C3xC3", "--unit-count"],
    ["gr", "--field", "F9", "--group", "C4", "--unit-count"],
    ["gr", "--field", "F2", "--group", "trivial", "--unit-count"],
    ["gr", "--field", "F5", "--group", "S3", "--unit-count"],
    ["gr", "--field", "F2", "--group", "C4", "--unit-count"],
    ["gr", "--field", "F3", "--group", "C2", "--inverse"],
    ["gr", "--field", "F3", "--group", "C2", "--a", "1+g1", "--inverse"],
    ["gr", "--field", "F2", "--group", "C3", "--a", "1+g5"],
    ["gr", "--field", "F2", "--group", "C3", "--op", "sub"],
    ["gr", "--group", "C3"],
    # join: element operations, idempotents, unit counts
    ["join", "--shape", "join(C3,C5;F2)", "--unit-count"],
    ["join", "--shape", C2_C3_F5, "--unit-count"],
    ["join", "--shape", "join(trivial,C2;F3)", "--unit-count"],
    ["join", "--shape", "join(C3,C3,C3;F2)", "--unit-count"],
    ["join", "--shape", "join(C4,C2xC2;F3)", "--unit-count"],
    ["join", "--shape", "join(S3,C2;F5)", "--unit-count"],
    ["join", "--shape", "join(C3,C2;F3)", "--unit-count"],
    ["join", "--shape", C2_C3_F5, "--a", "1;2+g1;a[1][2]=3", "--is-unit", "--inverse"],
    ["join", "--shape", C2_C3_F5, "--a", "1+g1;2;a[1][2]=3", "--is-unit", "--inverse"],
    ["join", "--shape", "join(C2,C2;F3)", "--a", "1;g1;a[1][2]=1", "--b", "g1;1;a[2][1]=2",
     "--op", "mul"],
    ["join", "--shape", "join(C2,C2;F3)", "--a", "1;g1;a[1][2]=1", "--b", "g1;1;a[2][1]=2",
     "--op", "add"],
    ["join", "--shape", "join(C2,C3;F2)", "--a", "1+g1;1;a[1][2]=1", "--embed"],
    ["join", "--shape", C2_C3_F5, "--idempotents"],
    ["join", "--shape", "join(C2,C2;F2)", "--a", "1;1", "--inverse"],
    ["join", "--shape", "join(C3;F6)"],
    ["join", "--shape", "join(C2;F3)", "--inverse"],
    ["join", "--shape", C2_C3_F5, "--a", "1;1;a[1][1]=1", "--is-unit"],
    ["join", "--op", "add"],
    # zeta of every ring kind
    ["zeta", "--shape", "join(C3,C5;F2)"],
    ["zeta", "--shape", "join(S3,Q8;F5)"],
    ["zeta", "--group", "S3", "--field", "F5"],
    ["zeta", "--group", "Q8", "--field", "F3"],
    ["zeta", "--group", "C6", "--field", "F2"],
    ["zeta", "--semimagic", "2", "--field", "F2"],
    ["zeta", "--semimagic", "3", "--field", "F5"],
    ["zeta"],
    ["zeta", "--group", "C3"],
    ["zeta", "--shape", "join(C2;F3)", "--field", "F3"],
    ["zeta", "--semimagic", "x", "--field", "F2"],
    # rooted
    ["rooted", "--primes", "3,5", "--base", "2"],
    ["rooted", "--primes", "7", "--base", "2"],
    ["rooted", "--primes", "3,5,7", "--base", "5"],
    ["rooted", "--primes", "3,3", "--base", "2"],
    ["rooted", "--primes", "5", "--base", "6"],
    ["rooted", "--primes", "3"],
    # delta on fields, group algebras and joins
    ["delta", "--field", "F5", "--p", "2", "--r", "2"],
    ["delta", "--field", "F9", "--p", "2", "--r", "3"],
    ["delta", "--field", "F8", "--p", "7", "--r", "1"],
    ["delta", "--field", "F7", "--p", "3", "--r", "1"],
    ["delta", "--field", "F3", "--group", "C4", "--p", "2", "--r", "3"],
    ["delta", "--field", "F5", "--group", "C2xC2", "--p", "2", "--r", "2"],
    ["delta", "--field", "F9", "--group", "C2xC4", "--p", "2", "--r", "3"],
    ["delta", "--field", "F2", "--group", "C7", "--p", "7", "--r", "1"],
    ["delta", "--field", "F4", "--group", "C3", "--p", "3", "--r", "1"],
    ["delta", "--field", "F7", "--group", "C3", "--p", "3", "--r", "2"],
    ["delta", "--field", "F2", "--group", "Q8", "--p", "2", "--r", "2"],
    ["delta", "--field", "F2", "--group", "C4", "--p", "2", "--r", "2"],
    ["delta", "--field", "F5", "--group", "S3", "--p", "3", "--r", "1"],
    ["delta", "--field", "F3", "--group", "Q8", "--p", "2", "--r", "3"],
    ["delta", "--shape", "join(C2,C2;F2)", "--p", "2", "--r", "2"],
    ["delta", "--shape", "join(trivial,C2;F2)", "--p", "2", "--r", "1"],
    ["delta", "--shape", "join(C4;F3)", "--p", "2", "--r", "3"],
    ["delta", "--shape", "join(C3,C5;F2)", "--p", "2", "--r", "1"],
    ["--cap", "100", "delta", "--field", "F2", "--group", "Q8", "--p", "2", "--r", "2"],
    ["delta", "--field", "F5", "--p", "4", "--r", "1"],
    ["delta", "--field", "F5", "--p", "2", "--r", "0"],
    ["delta", "--field", "F5", "--p", "2"],
    # oracle: every ring kind, the radical, and the --delta-n witness in its three forms
    ["oracle", "--group", "C3", "--field", "F2", "--units", "--exponent"],
    ["oracle", "--group", "S3", "--field", "F2", "--units", "--radical"],
    ["oracle", "--group", "C6", "--field", "F2", "--radical"],
    ["oracle", "--group", "C3", "--field", "F4", "--radical"],
    ["oracle", "--group", "S3", "--field", "F5", "--radical"],
    ["oracle", "--shape", "join(C2,C3;F2)", "--units", "--radical"],
    ["oracle", "--shape", "join(C2,C2;F2)", "--radical"],
    ["oracle", "--shape", "join(trivial,C3;F2)", "--units", "--radical"],
    ["oracle", "--semimagic", "3", "--field", "F2", "--radical"],
    ["oracle", "--semimagic", "3", "--field", "F2", "--units", "--exponent", "--delta-n", "2"],
    ["oracle", "--semimagic", "2", "--field", "F3", "--units", "--delta-n", "2"],
    ["oracle", "--group", "C4", "--field", "F3", "--exponent", "--delta-n", "2", "--order", "4"],
    ["oracle", "--shape", "join(C2,C3;F2)", "--delta-n", "3"],
    ["oracle", "--group", "C2", "--field", "F5", "--delta-n", "4"],
    ["oracle", "--group", "C3", "--field", "F2", "--delta-n", "0"],
    ["oracle", "--group", "C3", "--field", "F2", "--order", "0"],
    ["--cap", "10", "oracle", "--group", "C4", "--field", "F2", "--units"],
    ["oracle", "--group", "C3"],
    ["oracle", "--group", "C3", "--field", "F2", "--delta-n", "x"],
    # sweep: every kind
    ["sweep", "rooted", "--pmax", "12", "--bases", "2,3"],
    ["sweep", "delta-fields", "--qmax", "16", "--pmax", "7", "--rmax", "2"],
    ["--seed", "7", "sweep", "block-formula", "--count", "3",
     "--shapes", "join(C3,C5;F2),join(S3,C2;F3)"],
    ["sweep", "rooted", "--bases", "6"],
    ["sweep", "block-formula", "--count", "0"],
    ["sweep", "frob"],
    # the top level
    ["frobnicate"],
    [],
    ["--cap", "0", "field", "F5"],
]


def record(argv: list[str]) -> dict:
    """Run argv through cli.run in-process and return its corpus entry.

    argparse exits 2 by SystemExit, after a usage line that it wraps to the
    terminal width and words differently between Python versions, so an
    exit-2 entry keeps that line only up to its first option: the program
    and the subcommand that refused.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    stderr = err.getvalue().split("\n", 1)[0]
    if code == 2:
        stderr = stderr.split(" [", 1)[0]
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": stderr}


def entries() -> list[dict]:
    """Every case, as given and with --json in front."""
    return [record(form) for argv in CASES for form in (argv, ["--json", *argv])]


def main() -> None:
    lines = [json.dumps(entry) + "\n" for entry in entries()]
    CORPUS.write_text("".join(lines))
    print(f"wrote {len(lines)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
