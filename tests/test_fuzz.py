"""Seeded fuzz tests of the input boundaries: the CLI and the JSON readers.

Each test mutates valid inputs with a fixed list of malformed tokens, drawn
by ``random.Random(seed)``, so every run replays the same cases.  The inputs
stay small: no mutation can ask for a long loop or a big enumeration.
"""

import json
import random

import pytest

from joinrings import cli
from joinrings.cli import run
from joinrings.errors import AlgebraError
from joinrings.joinring import JoinElem, parse_shape_spec, random_join_element
from joinrings.zeta import ZetaFunction, zeta_join

COMMANDS = {"field", "group", "gr", "join", "zeta", "rooted", "delta", "oracle", "sweep"}

# valid argv templates, each cheap however its tokens are replaced
ARGV_TEMPLATES = [
    ["field", "F9", "--op", "mul", "--a", "4", "--b", "5"],
    ["field", "F5", "--op", "pow", "--a", "2", "--b", "3"],
    ["field", "F4", "--order", "3"],
    ["group", "C2xC4"],
    ["gr", "--field", "F2", "--group", "C3", "--a", "1+g1", "--is-unit", "--inverse"],
    ["gr", "--field", "F3", "--group", "C2", "--a", "1+g1", "--b", "2*g1", "--op", "mul"],
    ["join", "--shape", "join(C2,C3;F2)", "--a", "1;1+g1;a[1][2]=1", "--is-unit"],
    ["zeta", "--semimagic", "2", "--field", "F3"],
    ["zeta", "--group", "C3", "--field", "F2"],
    ["zeta", "--group", "S3", "--field", "F5"],
    ["rooted", "--primes", "3,5", "--base", "2"],
    ["delta", "--field", "F4", "--p", "3", "--r", "2"],
    ["delta", "--group", "C4", "--field", "F3", "--p", "2", "--r", "3"],
    ["--cap", "64", "oracle", "--group", "C2", "--field", "F3", "--units"],
    ["oracle", "--semimagic", "2", "--field", "F2", "--units"],
    ["sweep", "rooted", "--pmax", "8", "--bases", "2,3"],
    ["sweep", "delta-fields", "--qmax", "9", "--pmax", "5", "--rmax", "2"],
    ["--seed", "3", "sweep", "block-formula", "--count", "2", "--shapes", "join(C2;F2)"],
]

# non-integers, empty strings, negative numbers, out-of-range codes, and a
# prime bound past the group order cap that the sweeps refuse up front
BAD_TOKENS = ["", "x", "1.5", "3,a", ",", "-1", "-7", "0", "99", "260", "F6", "C0",
              "a[9][9]=1"]


def _mutations(seed: int, count: int):
    """argv lists with one or two values (not options or commands) replaced."""
    rng = random.Random(seed)
    for _ in range(count):
        argv = list(rng.choice(ARGV_TEMPLATES))
        values = [i for i, t in enumerate(argv) if not t.startswith("--") and t not in COMMANDS]
        for _ in range(rng.randint(1, 2)):
            argv[rng.choice(values)] = rng.choice(BAD_TOKENS)
        yield argv


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_exits_with_a_code_on_malformed_argv(capsys, seed):
    for argv in _mutations(seed, 80):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the usage
            assert exc.code == 2, argv
        else:
            assert code in (0, 1, 2, 3), argv
        capsys.readouterr()


# an integer past Python's 4300-digit limit, in each text spec that reads one
BIG = "9" * 5000
OVERSIZED_ARGVS = [
    ["field", f"F{BIG}"],
    ["join", "--shape", f"join(C3;F{BIG})"],
    ["group", f"C{BIG}"],
    ["gr", "--field", "F2", "--group", "C3", "--a", f"1+g{BIG}"],
    ["gr", "--field", "F2", "--group", "C3", "--a", f"1{BIG}*g1"],
    ["join", "--shape", "join(C3,C3;F2)", "--a", f"1;1;a[1][2]={BIG}"],
]

# argvs that fail at each stage: the top-level parser, a subparser, a handler
FAILING_ARGVS = [
    ["frobnicate"],
    ["--cap", "x", "field", "F2"],
    ["sweep", "rooted", "--pmax", "x"],
    ["field", "F9", "--op", "root"],
    ["gr", "--field", "F2"],
    ["field", "F6"],
    ["sweep", "rooted", "--pmax", "300"],
    *OVERSIZED_ARGVS,
]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process request."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", OVERSIZED_ARGVS)
def test_oversized_integer_is_a_parse_error(capsys, argv):
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "too many to read" in err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch, seed):
    argvs = list(_mutations(seed, 80))
    shared = []
    for i, argv in enumerate(argvs):
        assert _outcome(capsys, FAILING_ARGVS[i % len(FAILING_ARGVS)])[0] in (1, 2)
        shared.append(_outcome(capsys, argv))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per request
    for argv, outcome in zip(argvs, shared):
        assert _outcome(capsys, argv) == outcome, argv


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["oracle", "-h"]])
def test_help_is_unchanged_by_earlier_requests(capsys, monkeypatch, argv):
    for failing in FAILING_ARGVS:
        _outcome(capsys, failing)
    shared = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared[0] == 0 and shared[1].startswith("usage: joinrings")
    assert _outcome(capsys, argv) == shared


# values that replace one node of a valid document
BAD_VALUES = [None, True, -1, 0, 1.5, 99, "", "x", "1", [], {}, [1], {"1": 1}]


def _nodes(data, path=()):
    """Every path into the nested lists and dicts of a JSON value."""
    yield path
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _nodes(value, path + (i,))


def _mutate(text: str, rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:  # cut the text short
        return text[: rng.randrange(len(text))]
    if kind == 1:  # write one stray character
        i = rng.randrange(len(text))
        return text[:i] + rng.choice('{}[]",:-0x') + text[i + 1 :]
    data = json.loads(text)  # replace one node, or drop one key
    path = rng.choice([p for p in _nodes(data) if p])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.3:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(BAD_VALUES)
    return json.dumps(data)


def _documents():
    rng = random.Random(0)
    docs = []
    for spec in ("join(C2,C3;F2)", "join(C2,S3;F3)", "join(trivial,C4;F4)"):
        shape = parse_shape_spec(spec)
        docs.append((JoinElem.from_json, random_join_element(shape, rng).to_json()))
        docs.append((ZetaFunction.from_json, zeta_join(shape).to_json()))
    return docs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_json_readers_raise_only_domain_errors(seed):
    rng = random.Random(seed)
    for read, text in _documents():
        for _ in range(40):
            bad = _mutate(text, rng)
            try:
                read(bad)
            except AlgebraError:  # ParseError among them
                pass
