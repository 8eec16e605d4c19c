import json

import pytest

from joinrings.cli import run


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


def test_sweep_block_formula_seeded(capsys):
    data = run_json(capsys, "--seed", "42", "sweep", "block-formula",
                    "--count", "20", "--shapes", "join(C3,C5;F2),join(C2;F3)")
    assert data["all_consistent"] is True
    assert data["seed"] == 42
    assert len(data["rows"]) == 2


def test_element_json_roundtrip_via_cli(capsys):
    from joinrings.joinring import JoinElem, parse_shape_spec

    data = run_json(capsys, "join", "--shape", "join(C3,C5;F2)",
                    "--a", "1+g1;1+g2;a[1][2]=1;a[2][1]=1",
                    "--b", "g1;g3;a[1][2]=1;a[2][1]=0",
                    "--op", "mul")
    shape = parse_shape_spec("join(C3,C5;F2)")
    elem = JoinElem.from_json(json.dumps(data["result"]), shape)
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


def test_field_pow_exponent_may_exceed_q(capsys):
    data = run_json(capsys, "field", "F5", "--op", "pow", "--a", "2", "--b", "9")
    assert data["result"] == 2  # 2^9 = 2^(9 mod 4) in F_5
