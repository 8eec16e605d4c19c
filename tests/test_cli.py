import itertools
import json
import tracemalloc

import pytest

from joinrings import arith, oracle
from joinrings.cli import run
from joinrings.groups import ORDER_CAP
from joinrings.joinring import JoinShape


def run_json(capsys, *argv):
    code = run(["--json", *argv])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_field_command(capsys):
    data = run_json(capsys, "field", "F9", "--op", "mul", "--a", "4", "--b", "5")
    assert data["q"] == 9 and data["modulus"] == "x^2+1"
    assert "result" in data


def test_group_command(capsys):
    data = run_json(capsys, "group", "S3")
    assert data["order"] == 6 and data["abelian"] is False


def test_gr_command(capsys):
    data = run_json(capsys, "gr", "--field", "F2", "--group", "C3",
                    "--a", "1+g1+g2", "--is-unit", "--unit-count")
    assert data["is_unit"] is False
    assert data["unit_count"] == 3


def test_gr_inverse(capsys):
    data = run_json(capsys, "gr", "--field", "F2", "--group", "C7",
                    "--a", "1+g1+g2", "--inverse")
    assert data["inverse"]


def test_join_command(capsys):
    data = run_json(capsys, "join", "--shape", "join(C3,C5;F2)", "--unit-count")
    assert data["unit_count"] == 270
    assert data["rooted_formula"] == 270


def test_zeta_command(capsys):
    data = run_json(capsys, "zeta", "--shape", "join(C3,C5;F2)")
    assert data["factors"] == {"1": -1, "2": -1, "4": -1}
    assert data["pole_order_at_zero"] == 3


@pytest.mark.parametrize("argv, factors", [
    (["--group", "S3", "--field", "F5"], {"1": -3}),
    (["--group", "Q8", "--field", "F3"], {"1": -5}),
    (["--group", "S3", "--field", "F2"], {"1": -2}),
    (["--shape", "join(S3,C2;F5)"], {"1": -4}),
    (["--shape", "join(S3,Q8;F5)"], {"1": -7}),
])
def test_zeta_of_non_abelian_and_modular_blocks(capsys, argv, factors):
    assert run_json(capsys, "zeta", *argv)["factors"] == factors


@pytest.mark.parametrize("argv, subject", [
    (["--group", "C1xC3", "--field", "F2"], "F2[C3]"),
    (["--shape", "join(C3, C1xC5; F2)"], "join(C3,C5;F2)"),
    (["--semimagic", "3", "--field", " F2"], "SM3(F2)"),
])
def test_zeta_names_its_subject_from_the_parsed_input(capsys, argv, subject):
    assert run_json(capsys, "zeta", *argv)["subject"] == subject


def test_rooted_command(capsys):
    data = run_json(capsys, "rooted", "--primes", "3,5", "--base", "2")
    assert data["verdict"] is True
    assert data["conditions"]["unit_count"]["count"] == 270


def test_delta_command(capsys):
    data = run_json(capsys, "delta", "--field", "F4", "--p", "3", "--r", "1")
    assert data["verdict"] is True and data["strict_n"] == 3


def test_oracle_command(capsys):
    data = run_json(capsys, "oracle", "--group", "C4", "--field", "F2",
                    "--units", "--delta-n", "2")
    assert data["unit_count"] == 8
    assert data["is_delta"]["verdict"] is False
    assert data["is_delta"]["witness_order"] == 4


SUBJECTS = {"shape": "join(C2,C2;F2)", "group": "C2", "semimagic": "2"}
ACTIONS = {"zeta": [], "delta": ["--p", "2", "--r", "1"], "oracle": ["--units"]}


@pytest.mark.parametrize("command, flags", [
    (command, flags)
    for command in ACTIONS
    for flags in [*itertools.combinations(SUBJECTS, 2), ("shape",)]
    if command != "delta" or "semimagic" not in flags
])
def test_one_subject_per_command(capsys, command, flags):
    # a second subject, or a --field beside the shape that names its own,
    # is refused rather than silently dropped
    argv = [command, *ACTIONS[command], "--field", "F2"]
    for flag in flags:
        argv += [f"--{flag}", SUBJECTS[flag]]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exactly one of" in captured.err or "takes no --field" in captured.err


def test_text_and_json_report_same_numbers(capsys):
    code = run(["zeta", "--shape", "join(C3,C5;F2)"])
    text = capsys.readouterr().out
    assert code == 0
    data = run_json(capsys, "zeta", "--shape", "join(C3,C5;F2)")
    for key in ("pole_order_at_zero", "degree"):
        assert f"{key}: {data[key]}" in text


def test_domain_error_exit_code(capsys):
    assert run(["zeta"]) == 1
    assert run(["field", "F6"]) == 1
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 2


def test_oracle_cap_flag(capsys):
    assert run(["--cap", "100", "oracle", "--group", "C7", "--field", "F2",
                "--units"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["sweep", "rooted"], ["field", "F2"],
                                  ["oracle", "--group", "C3", "--field", "F2", "--units"]])
@pytest.mark.parametrize("cap", ["0", "-1", "-5"])
def test_cap_below_one_is_refused_before_any_command(capsys, cap, argv):
    assert run(["--cap", cap, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cap must be positive, got {cap}\n"


# caps far beyond any ring the sweeps could allocate for: each command
# refuses before it builds anything
@pytest.mark.parametrize("argv", [["field", "F2"],
                                  ["oracle", "--group", "C100", "--field", "F2", "--units"],
                                  ["oracle", "--group", "C256", "--field", "F2", "--exponent"],
                                  ["oracle", "--group", "C60", "--field", "F2", "--radical"]],
                         ids=["field", "units", "exponent", "radical"])
@pytest.mark.parametrize("cap", [str(2**63), str(10**30), str(10**100)],
                         ids=["2^63", "10^30", "10^100"])
def test_cap_above_the_ceiling_is_refused_before_any_command(capsys, cap, argv):
    assert run(["--cap", cap, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cap must be at most 2^24, got {cap}\n"


def test_cap_at_the_ceiling_is_accepted(capsys):
    assert run_json(capsys, "--cap", str(2**24), "oracle", "--group", "C3", "--field", "F2",
                    "--units")["unit_count"] == 3


@pytest.mark.parametrize("primes", ["", ","])
def test_rooted_refuses_an_empty_prime_list(capsys, primes):
    assert run(["rooted", "--primes", primes, "--base", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the rooted conditions need at least one prime\n"


def test_oracle_radical_cap_counts_pairs(capsys):
    # F2[C6] has 64 elements and 2^12 pairs (x, r)
    argv = ["oracle", "--group", "C6", "--field", "F2", "--radical"]
    assert run(["--cap", "4095", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: F2[C6] has 2^12 pairs (x, r) for the radical, beyond the cap 4095\n")
    assert run_json(capsys, "--cap", "4096", *argv)["radical_size"] == 8


@pytest.mark.parametrize("ring", [["--field", "F2", "--group", "trivial"],
                                  ["--shape", "join(trivial;F2)"]])
def test_delta_on_the_trivial_group_over_f2(capsys, ring):
    # F2[1] = F2 has one unit; 5 is not a Mersenne prime
    data = run_json(capsys, "delta", "--p", "5", "--r", "1", *ring)
    assert data["verdict"] is True
    assert data["case"] == "q = 2, G trivial (unit group trivial)"


@pytest.mark.parametrize("ring", [["--field", "F2", "--group", "Q8"],
                                  ["--shape", "join(Q8,C2;F2)"]])
def test_delta_honours_the_cap(capsys, ring):
    # F2[Q8] has 256 elements: beyond --cap 16, within the default cap
    data = run_json(capsys, "--cap", "16", "delta", *ring, "--p", "2", "--r", "2")
    assert data["verdict"] is None
    assert data["case"].startswith("unknown") and data["case"].endswith("infeasible)")
    assert run_json(capsys, "delta", *ring, "--p", "2", "--r", "2")["verdict"] is True


def test_semimagic_oracle_refuses_before_allocating(capsys):
    # SM30(F2) has 2^842 elements and a nullspace basis of 14 MB; building
    # the 1000 x 1000 identity of SM1000(F2) alone peaks at 17 MB, and the
    # size 2^15992002 of SM4000(F2) is a 1.9 MB integer the check never builds
    for n in ("30", "1000", "4000"):
        tracemalloc.start()
        try:
            code = run(["oracle", "--semimagic", n, "--field", "F2", "--units"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "beyond the cap" in capsys.readouterr().err
        assert peak < 2**20, n


def test_oracle_refusal_names_a_size_too_long_for_decimal(capsys):
    # SM200(F2) has 2^39602 elements, past the 4300-digit int-to-str limit;
    # with no enumeration flag the report would hold that size, so the cap
    # is checked before the report is built
    for flags in (["--units"], []):
        assert run(["oracle", "--semimagic", "200", "--field", "F2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SM200(F2) has 2^39602 elements, beyond the cap 1048576\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "delta-fields", "--qmax", "100000000"],
    ["sweep", "delta-fields", "--qmax", "100000000", "--pmax", "-1", "--rmax", "0"],
    ["sweep", "block-formula", "--count", "100000000"],
    ["sweep", "block-formula", "--count", "-1", "--shapes", "join(C3;F2)"],
    ["sweep", "block-formula", "--count", "0", "--shapes", "join(C3;F2)"],
    ["sweep", "rooted", "--pmax", "260", "--bases", "2"],
    ["--cap", "1000", "sweep", "delta-fields", "--qmax", "10", "--pmax", "20", "--rmax", "6"],
    ["sweep", "delta-fields", "--qmax", "-5"],
    ["sweep", "delta-fields", "--qmax", "1"],
    ["sweep", "delta-fields", "--pmax", "1"],
    ["sweep", "delta-fields", "--rmax", "0"],
    ["sweep", "rooted", "--bases", ","],
    ["sweep", "rooted", "--pmax", "2"],
    ["sweep", "rooted", "--bases", "2,4", "--pmax", "3"],
], ids=["delta-fields", "delta-fields-no-p", "block-formula", "block-formula-negative",
        "block-formula-no-count",
        "rooted", "delta-fields-cap", "delta-fields-no-q", "delta-fields-q-1",
        "delta-fields-p-1", "delta-fields-no-r", "rooted-no-bases", "rooted-no-p",
        "rooted-only-the-characteristic"])
def test_sweeps_refuse_past_their_bound_before_the_loop(capsys, argv):
    import time

    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sweep ")


def test_sweep_within_the_cap_runs(capsys):
    # 10 * 20 * 5 = 1000 (q, p, r) grid points fit a cap of 1000
    data = run_json(capsys, "--cap", "1000", "sweep", "delta-fields",
                    "--qmax", "10", "--pmax", "20", "--rmax", "5")
    assert data["all_consistent"] is True and data["cases"] > 0
    data = run_json(capsys, "sweep", "rooted", "--pmax", "257", "--bases", "2")
    assert data["rows"][-1]["p"] == 251


def test_join_shape_caps_exit_1(capsys):
    # one past each cap; tests/test_joinring.py checks both at the cap
    past = "join(C256,C256,C256,C256,trivial;F2)"  # n = 4 ORDER_CAP + 1
    for argv in (["join", "--shape", f"join({','.join(['C2'] * (ORDER_CAP // 4 + 1))};F2)"],
                 ["join", "--shape", past, "--a", "1", "--embed"],
                 ["sweep", "block-formula", "--count", "1", "--shapes", past]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_sweep_block_formula_seeded(capsys):
    data = run_json(capsys, "--seed", "42", "sweep", "block-formula",
                    "--count", "20", "--shapes", "join(C3,C5;F2),join(C2;F3)")
    assert data["all_consistent"] is True
    assert data["seed"] == 42
    assert len(data["rows"]) == 2


def test_element_json_roundtrip_via_cli(capsys):
    from joinrings.joinring import JoinElem

    data = run_json(capsys, "join", "--shape", "join(C3,C5;F2)",
                    "--a", "1+g1;1+g2;a[1][2]=1;a[2][1]=1",
                    "--b", "g1;g3;a[1][2]=1;a[2][1]=0",
                    "--op", "mul")
    elem = JoinElem.from_json(json.dumps(data["result"]))
    assert json.loads(elem.to_json()) == data["result"]


@pytest.mark.parametrize("argv", [
    ["field", "F5", "--op", "add", "--a", "-1", "--b", "0"],
    ["field", "F5", "--op", "add", "--a", "7", "--b", "0"],
    ["field", "F5", "--op", "mul", "--a", "1", "--b", "5"],
    ["field", "F4", "--order", "9"],
    ["field", "F4", "--order", "-1"],
])
def test_field_codes_out_of_range_exit_1(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["rooted", "--primes", "3,a", "--base", "2"],
    ["rooted", "--primes", "3,,1.5", "--base", "2"],
    ["sweep", "rooted", "--bases", "2,x"],
])
def test_comma_lists_of_non_integers_exit_1(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_field_pow_exponent_may_exceed_q(capsys):
    data = run_json(capsys, "field", "F5", "--op", "pow", "--a", "2", "--b", "9")
    assert data["result"] == 2  # 2^9 = 2^(9 mod 4) in F_5


@pytest.mark.parametrize("spec, table", [
    ("S8", None),
    ("table:{dir}/missing.txt", None),
    ("table:{dir}/table.txt", "0 1\n1 x\n"),
    ("table:{dir}/table.txt", ""),
    ("table:{dir}/table.txt", "0\n" * (ORDER_CAP + 1)),
    ("table:{dir}/table.txt", "0 " * 10**5),
], ids=["S8", "missing-table", "non-integer-table", "empty-table", "rows-over-cap",
        "long-row"])
def test_group_spec_errors_exit_1(capsys, tmp_path, spec, table):
    if table is not None:
        (tmp_path / "table.txt").write_text(table)
    assert run(["group", spec.format(dir=tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["gr", "--field", "F2", "--a", "0", "--is-unit"],
    ["oracle", "--field", "F2", "--units"],
])
def test_empty_table_is_no_group_ring(capsys, tmp_path, argv):
    (tmp_path / "table.txt").write_text("")
    assert run([*argv, "--group", f"table:{tmp_path}/table.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "no rows" in captured.err


def test_huge_prime_field_spec_is_fast(capsys):
    import time

    start = time.perf_counter()
    data = run_json(capsys, "field", "F1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert data["p"] == 10**18 + 3 and data["k"] == 1


def test_huge_prime_field_units_and_inverses_are_fast(capsys):
    # the eliminations build nothing of size q above the table limit
    import time

    field, p = "F1000000000000000003", 10**18 + 3
    inv3 = pow(3, p - 2, p)
    start = time.perf_counter()
    data = run_json(capsys, "gr", "--field", field, "--group", "C2", "--a", "2+g1",
                    "--is-unit", "--inverse")
    assert time.perf_counter() - start < 1.0
    # (2 + g)(2 - g) = 3 in F_p[C2]
    assert data["is_unit"] is True
    assert data["inverse"] == f"{2 * inv3 % p}+{-inv3 % p}*g1"
    start = time.perf_counter()
    data = run_json(capsys, "join", "--shape", f"join(C2,C2;{field})",
                    "--a", "2+g1;3;a[1][2]=5", "--is-unit", "--inverse")
    assert time.perf_counter() - start < 1.0
    assert data["is_unit"] is True
    assert data["inverse"]["blocks"] == [[2 * inv3 % p, -inv3 % p], [inv3, 0]]


def test_long_field_spec_fails_quickly(capsys):
    import time

    start = time.perf_counter()
    code = run(["field", f"F{1033 * 1031**1326}"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["field", f"F{2**61}", "--order", "3"],  # 2^61 - 1 is prime
    ["field", f"F{2**101}", "--order", "3"],  # 2^101 - 1 = 7432339208719 * 341117531003194129
    ["rooted", "--primes", "1000000000000000003", "--base", "2"],
    ["field", f"F{3**100}"],
    ["field", f"F{5**50}"],
    ["field", f"F{2**128}"],
    ["field", f"F{2**400}"],
], ids=["F2^61-order", "F2^101-order", "rooted-huge-prime", "F3^100", "F5^50", "F2^128", "F2^400"])
def test_unbounded_inputs_are_refused_quickly(capsys, argv):
    import time

    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("bases, pmax", [("0", "30"), ("1", "30"), ("-3", "30"), ("30", "6"),
                                         ("2,6", "3")])
def test_sweep_rooted_refuses_a_base_that_is_no_prime_power(capsys, bases, pmax):
    # refused up front, even where every prime below --pmax divides the base
    assert run(["sweep", "rooted", f"--bases={bases}", "--pmax", pmax]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q must be a prime power, got {bases.split(',')[-1]}\n"


def test_sweep_rooted_over_a_prime_power_base(capsys):
    # p = 2 is the characteristic of F_4 and is skipped, not refused
    data = run_json(capsys, "sweep", "rooted", "--bases", "4", "--pmax", "8")
    assert [row["p"] for row in data["rows"]] == [3, 5, 7]
    for row in data["rows"]:
        report = run_json(capsys, "rooted", "--primes", str(row["p"]), "--base", "4")
        assert row["rooted"] == report["verdict"]
        assert row["unit_count"] == report["conditions"]["unit_count"]["count"]


def test_oracle_radical_enumerates_the_radical_once(capsys, monkeypatch):
    # the factorization reads the radical's coordinates from oracle._radical
    calls = []
    radical = oracle._radical

    def counted(*args, **kwargs):
        calls.append(args)
        return radical(*args, **kwargs)

    monkeypatch.setattr(oracle, "_radical", counted)
    assert run(["oracle", "--group", "S3", "--field", "F2", "--radical"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "ring: F2[S3]\nsize: 64\nradical_size: 2\nunit_factorization:\n"
        "  units: 12\n  radical: 2\n  image: 6\n  holds: None\n"
    )


def test_oracle_units_and_radical_count_the_units_once(capsys, monkeypatch):
    # --units reads the factorization's count, which enumerate_units gives
    calls = []
    enumerate_units = oracle.enumerate_units

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_units(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_units", counted)
    assert run(["oracle", "--group", "S3", "--field", "F2", "--units", "--radical"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "ring: F2[S3]\nsize: 64\nunit_count: 12\nradical_size: 2\nunit_factorization:\n"
        "  units: 12\n  radical: 2\n  image: 6\n  holds: None\n"
    )


def test_oracle_enumerates_the_unit_orders_once(capsys, monkeypatch):
    calls = []
    unit_orders = oracle.unit_orders

    def counted(*args, **kwargs):
        calls.append(args)
        return unit_orders(*args, **kwargs)

    monkeypatch.setattr(oracle, "unit_orders", counted)
    argv = ["oracle", "--group", "S3", "--field", "F2", "--exponent", "--delta-n", "2",
            "--order", "2"]
    assert run(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "ring: F2[S3]\nsize: 64\nunit_group_exponent: 6\nis_delta:\n  n: 2\n"
        "  verdict: False\n  witness: g3\n  witness_order: 3\nunits_of_order:\n"
        "  m: 2\n  count: 7\n"
    )
    assert run(["--json", *argv]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == (
        '{"ring": "F2[S3]", "size": 64, "unit_group_exponent": 6, "is_delta": '
        '{"n": 2, "verdict": false, "witness": "g3", "witness_order": 3}, '
        '"units_of_order": {"m": 2, "count": 7}}\n'
    )


@pytest.mark.parametrize("subject", [["--group", "C3", "--field", "F4"],
                                     ["--shape", "join(trivial,C3;F2)"]])
def test_oracle_radical_exits_3_on_a_record_off_by_one(capsys, monkeypatch, subject):
    # the factorization compares the oracle's (|U|, |J|) with the ring's
    # Structure record wherever a producer answers
    from joinrings.groupring import Structure

    unit_count = Structure.unit_count
    monkeypatch.setattr(Structure, "unit_count", lambda self: unit_count(self) + 1)
    assert run(["oracle", *subject, "--radical"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency failure: oracle (|U|, |J|)")


def test_wedderburn_self_checks_exit_3(capsys, monkeypatch):
    # ord_d(q) divides phi(d) and the n_d sum to |G|, so only wrong arithmetic
    # in the library itself trips these checks
    from joinrings import groupring

    ord_mod = groupring.ord_mod
    monkeypatch.setattr(groupring, "ord_mod", lambda d, q: ord_mod(d, q) + 1)
    assert run(["gr", "--field", "F2", "--group", "C3", "--unit-count"]) == 3
    assert capsys.readouterr().err.startswith("internal consistency failure: ")


def _flipped(case):
    def flipped(*args):
        verdict, *rest = case(*args)
        return (not verdict, *rest)
    return flipped


def _perturbed_product(product):
    def perturbed(self, u, v):
        out = product(self, u, v)
        return (self.ctx.add(out[0], 1), *out[1:])
    return perturbed


def _off_by_one(count):
    return lambda shape: count(shape) + 1


@pytest.mark.parametrize("owner, name, wrong, argv, message", [
    (arith, "_field_case", _flipped, ["delta", "--field", "F4", "--p", "3", "--r", "1"],
     "field case analysis (False) disagrees with divisibility (True)"),
    (arith, "_group_algebra_case", _flipped,
     ["delta", "--field", "F3", "--group", "C2", "--p", "2", "--r", "1"],
     "case analysis (False) disagrees with the unit-group exponent 2"),
    (arith, "thm_unit_count_rooted", _off_by_one, ["rooted", "--primes", "3", "--base", "2"],
     "rooted-prime conditions disagree for primes=(3,), q=2"),
    (JoinShape, "product", _perturbed_product, ["sweep", "block-formula", "--count", "5"],
     "block product disagrees with the matrix embedding in 25 sampled pairs"),
], ids=["field-delta", "group-algebra-delta", "rooted-count", "block-formula"])
def test_cross_checks_exit_3_when_a_route_is_wrong(capsys, monkeypatch, owner, name, wrong,
                                                     argv, message):
    # each report compares two routes to one answer; a fault in either
    # ends the run with exit 3 and the disagreement, and prints no report
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal consistency failure: {message}")


@pytest.mark.parametrize("argv", [
    # unit counts beyond the closed form: a non-abelian block, 3 dividing |C3|
    ["join", "--shape", "join(S3,C2;F5)", "--unit-count"],
    ["join", "--shape", "join(C3,C2;F3)", "--unit-count"],
    ["gr", "--group", "S3", "--field", "F5", "--unit-count"],
    # a missing operand or field
    ["field", "F5", "--op", "add", "--a", "1"],
    ["gr", "--field", "F3", "--group", "C2", "--op", "mul", "--a", "1+g1"],
    ["join", "--shape", "join(C2;F3)", "--op", "add", "--a", "1"],
    ["gr", "--field", "F3", "--group", "C2", "--inverse"],
    ["zeta", "--group", "C3"],
    # a "*" with no element after it
    ["gr", "--field", "F3", "--group", "C3", "--a", "2*"],
], ids=["join-non-abelian", "join-modular", "gr-non-abelian", "field-op-no-b", "gr-op-no-b",
        "join-op-no-b", "inverse-no-a", "zeta-group-no-field", "gr-dangling-star"])
def test_refused_requests_exit_1_with_one_error_line(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_join_idempotents_are_orthogonal_and_sum_to_one(capsys):
    from joinrings.joinring import JoinElem, join_mul, parse_shape_spec

    shape = parse_shape_spec("join(C3,C5;F2)")
    data = run_json(capsys, "join", "--shape", repr(shape), "--idempotents")
    es = [JoinElem.from_json(json.dumps(e)) for e in data["idempotents"]]
    assert len(es) == shape.d + 1
    zero, total = shape.zero(), shape.zero()
    for i, e in enumerate(es):
        total = total + e
        for j, f in enumerate(es):
            assert join_mul(e, f) == (e if i == j else zero)
    assert total == shape.one()


def test_gr_circulant_reads_the_group_table(capsys):
    from joinrings.groups import symmetric

    table = symmetric(3).table
    coeffs = [1, 2, 0, 0, 1, 2]  # non-abelian, so a_{g_i^-1 g_j} and a_{g_j g_i^-1} differ
    a = "+".join(f"{c}*g{h}" for h, c in enumerate(coeffs) if c)
    data = run_json(capsys, "gr", "--field", "F3", "--group", "S3", "--a", a, "--circulant")
    inverse = [row.index(0) for row in table]
    assert data["circulant"] == [[coeffs[table[inverse[i]][j]] for j in range(6)]
                                 for i in range(6)]


@pytest.mark.parametrize("op", ["add", "mul"])
def test_gr_op_agrees_with_element_arithmetic(capsys, op):
    from joinrings.ffield import parse_field
    from joinrings.groupring import parse_element
    from joinrings.groups import symmetric

    ctx, group = parse_field("F5"), symmetric(3)
    a, b = "1+2*g1+4*g3", "3+g2+2*g5"
    data = run_json(capsys, "gr", "--field", "F5", "--group", "S3",
                    "--a", a, "--b", b, "--op", op)
    x, y = parse_element(a, group, ctx), parse_element(b, group, ctx)
    assert parse_element(data["result"], group, ctx) == (x + y if op == "add" else x * y)


@pytest.mark.parametrize("argv", [
    ["--shape", "join(C2,C2;F3)"],
    ["--semimagic", "3", "--field", "F3"],
], ids=["join", "semimagic"])
def test_delta_n_witness_has_its_reported_order(capsys, argv):
    # the power sweep multiplies plain integer matrices mod 3, not ring tuples;
    # the witness is a nested value, as `join --op` reports a join element
    from joinrings.joinring import JoinElem, join_embed

    report = run_json(capsys, "oracle", *argv, "--delta-n", "2")["is_delta"]
    assert report["verdict"] is False
    witness = report["witness"]
    if argv[0] == "--shape":
        assert sorted(witness) == ["blocks", "offdiag", "shape"]
        matrix = join_embed(JoinElem.from_json(json.dumps(witness)))
    else:
        matrix = witness
        assert len({sum(r) % 3 for r in matrix} | {sum(c) % 3 for c in zip(*matrix)}) == 1
    n = len(matrix)
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    power, order = matrix, 1
    while power != one:
        assert order <= 3**n, "the witness is not a unit"
        power = [[sum(x * y for x, y in zip(row, col)) % 3 for col in zip(*matrix)]
                 for row in power]
        order += 1
    assert order == report["witness_order"] and 2 % order != 0
