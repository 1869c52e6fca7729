"""Scenario files, report formats and the command line surface."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from permit_games import bankruptcy, cli, lp, mechanism
from permit_games.reference import bundled_scenario
from permit_games.report import MAX_PRECISION, _cell, decimal_str
from permit_games.scenario import (
    MAX_DIGITS,
    ScenarioError,
    dump_scenario,
    load_scenario,
    loads_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

F = Fraction

MINIMAL = {
    "production": [[2, 3], [3, 2], [1, 1]],
    "endowments": [[40, 60, 80], [60, 40, 50]],
    "prices": [50, 60],
    "tax": 14,
    "cap": 50,
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_bundled_scenario_loads():
    scenario = bundled_scenario()
    assert scenario.situation.tax == 14
    assert scenario.situation.cap == 50
    assert scenario.rule == "cea"


def test_numeric_literal_forms(tmp_path):
    data = dict(MINIMAL)
    data["tax"] = "14"
    data["cap"] = "50/1"
    data["prices"] = ["50.0", 60]
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert scenario.situation.tax == 14
    assert scenario.situation.prices == (50, 60)


def test_bare_decimal_numbers_are_exact(tmp_path):
    data = dict(MINIMAL)
    data["tax"] = 14.1  # json.dump writes 14.1; must load as 141/10 exactly
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert scenario.situation.tax == F(141, 10)


def test_zero_tax_rejected(tmp_path):
    data = dict(MINIMAL)
    data["tax"] = 0
    with pytest.raises(ScenarioError, match="tax must be positive"):
        load_scenario(write_scenario(tmp_path, data))


def test_price_condition_rejected(tmp_path):
    data = dict(MINIMAL)
    data["prices"] = [50, 1]
    with pytest.raises(ScenarioError, match="price condition .* good 2"):
        load_scenario(write_scenario(tmp_path, data))


def test_field_level_context(tmp_path):
    data = dict(MINIMAL)
    data["endowments"] = [[40, 60, 80], [60, "x", 50]]
    with pytest.raises(ScenarioError, match=r"endowments\[1\]\[1\]"):
        load_scenario(write_scenario(tmp_path, data))
    with pytest.raises(ScenarioError, match="missing field: cap"):
        loads_scenario(json.dumps({k: v for k, v in MINIMAL.items() if k != "cap"}))
    with pytest.raises(ScenarioError, match="unknown fields: extra"):
        loads_scenario(json.dumps({**MINIMAL, "extra": 1}))


def test_round_trip(tmp_path):
    original = bundled_scenario()
    out = tmp_path / "dumped.json"
    dump_scenario(original, out)
    again = load_scenario(out)
    assert again.situation == original.situation
    assert again.rule == original.rule
    assert again.options == original.options
    assert scenario_to_dict(again) == scenario_to_dict(original)


def test_rounding_helpers():
    assert decimal_str(F(50, 3), 2) == "16.67"
    assert decimal_str(F(2300, 3), 2) == "766.67"
    assert decimal_str(F(1, 8), 2) == "0.12"  # half-even
    assert decimal_str(F(3, 8), 2) == "0.38"
    assert decimal_str(F(-50, 3), 2) == "-16.67"
    assert decimal_str(F(5), 0) == "5"
    assert decimal_str(F(-1, 8), 2) == "-0.12"  # negative ties round half-even too
    assert decimal_str(F(-3, 8), 2) == "-0.38"
    assert decimal_str(F(5, 2), 0) == "2"
    assert decimal_str(F(7, 2), 0) == "4"
    assert decimal_str(F(-5, 2), 0) == "-2"
    assert decimal_str(F(-1, 3), 0) == "0"


def _rounded_by_fraction(x, digits):
    """The text that ``round(x * 10 ** digits)`` (Fraction's half-even
    rounding) gives: the oracle of the integer rounding in decimal_str."""
    scaled = round(x * 10 ** digits)
    text = str(abs(scaled)).rjust(digits + 1, "0")
    sign = "-" if scaled < 0 else ""
    return sign + text if digits == 0 else f"{sign}{text[:-digits]}.{text[-digits:]}"


def test_decimal_str_matches_fraction_rounding():
    rng = random.Random(32)
    values = [F(0), F(-0)]
    for _ in range(400):  # seeded values of every size and sign
        den = rng.choice((1, 2, 3, 7, 8, 1000, 10 ** 12, rng.randrange(1, 10 ** 9)))
        values.append(F(rng.randrange(-10 ** rng.randrange(1, 25), 10 ** 15), den))
    for digits in range(13):
        for k in (0, 1, 2, 7, 12345):  # exact ties, +-(2k+1)/(2*10^d)
            tie = F(2 * k + 1, 2 * 10 ** digits)
            values += [tie, -tie]
        for unit in (F(1, 3 * 10 ** digits), F(1, 10 ** (digits + 5))):  # round to zero
            values += [unit, -unit]
    for x in values:
        for digits in range(13):
            assert decimal_str(x, digits) == _rounded_by_fraction(x, digits), (x, digits)
    for x in (F(2, 3), F(-2, 3), F(1, 2 * 10 ** MAX_PRECISION), F(-3, 2 * 10 ** MAX_PRECISION),
              F(10 ** 40 + 1, 7), F(-1, 10 ** (MAX_PRECISION + 1))):
        assert decimal_str(x, MAX_PRECISION) == _rounded_by_fraction(x, MAX_PRECISION), x


def test_report_cells_of_each_kind():
    assert _cell(3, 2) == ("", "3", "3.00")
    assert _cell(F(-7, 8), 2) == ("", "-7/8", "-0.88")
    assert _cell(F(5, 2), 0) == ("", "5/2", "2")
    assert _cell("{1,2}", 2) == ("{1,2}", "", "")


@pytest.fixture()
def scenario_path(tmp_path):
    return write_scenario(tmp_path, MINIMAL, "example3.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demands_command(scenario_path, capsys):
    code, out, _ = run_cli(capsys, "demands", "--scenario", str(scenario_path))
    assert code == 0
    assert "{1,2,3}" in out and "66 (66.00)" in out


def test_single_firm_demands(tmp_path, capsys):
    data = {
        "production": [[1], [2]], "endowments": [[7]], "prices": [9],
        "tax": 2, "cap": 3,
    }
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "demands", "--scenario", str(path))
    assert code == 0
    assert out.count("{1}") == 1


def test_demands_refuses_more_firms_than_the_partition_limit(tmp_path, capsys):
    # 11 firms are 2047 coalitions, one over the default limit of 10 firms.
    data = {
        "production": [[1, 2], [1, 1]], "endowments": [list(range(1, 12))],
        "prices": [9, 11], "tax": 2, "cap": 3,
    }
    path = write_scenario(tmp_path, data)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "demands", "--scenario", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: 11 firms exceed") and "--partition-limit" in err
    code, out, _ = run_cli(capsys, "demands", "--scenario", str(path), "--partition-limit", "11")
    assert code == 0 and out.count("\n{") == 2047
    path = write_scenario(tmp_path, {**data, "options": {"partition_limit": 11}})
    assert run_cli(capsys, "demands", "--scenario", str(path))[0] == 0


def _uniform_firms(n):
    """n firms, one resource, every endowment 1."""
    return {"production": [[1, 2], [1, 1]], "endowments": [[1] * n],
            "prices": [9, 11], "tax": 2, "cap": 3}


LIMITED_COMMANDS = ("demands", "game", "cores", "resource-games", "pipeline", "trade")


@pytest.mark.parametrize("n_firms", [11, 2300])
@pytest.mark.parametrize("command", LIMITED_COMMANDS)
def test_limited_commands_refuse_more_firms_than_the_limit_before_analysis(
        tmp_path, capsys, command, n_firms):
    # 2300 firms would have Bell(2300) structures, a count past the
    # interpreter's digit limit for printing, so the refusal formats none.
    path = write_scenario(tmp_path, _uniform_firms(n_firms))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--scenario", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: {n_firms} firms exceed the partition limit of 10 firms; "
                   "raise it with --partition-limit\n")


@pytest.mark.parametrize("command", LIMITED_COMMANDS)
def test_a_partition_limit_below_one_is_refused(tmp_path, capsys, command):
    path = write_scenario(tmp_path, _uniform_firms(3))
    code, out, err = run_cli(capsys, command, "--scenario", str(path), "--partition-limit", "0")
    assert (code, out, err) == (2, "", "error: --partition-limit must be positive\n")


def test_mechanism_refuses_too_many_payoff_cells(tmp_path, capsys, monkeypatch):
    # 7000 claimants on a two-level grid are 7000 * 2**7000 cells, a count
    # too long to print, so the refusal states the bound instead.  The grid
    # sizes alone decide it, so no demand LP runs first.
    path = write_scenario(tmp_path, _uniform_firms(7000))
    monkeypatch.setattr(mechanism, "optimal_demand", lambda *args: pytest.fail("demand"))
    monkeypatch.setattr(lp.BasisTable, "sweep", lambda *args: pytest.fail("sweep"))
    monkeypatch.setattr(lp, "solve", lambda *args: pytest.fail("solve"))
    code, out, err = run_cli(capsys, "mechanism", "--scenario", str(path), "--grid", "0,1")
    assert (code, out) == (2, "")
    assert err == ("error: 7000 claimants times the grid product is more than "
                   "250000 payoff cells\n")


def test_reports_are_byte_identical(scenario_path, capsys):
    first = run_cli(capsys, "pipeline", "--scenario", str(scenario_path))
    second = run_cli(capsys, "pipeline", "--scenario", str(scenario_path))
    assert first == second


def test_cores_exit_codes(scenario_path, capsys):
    code, out, _ = run_cli(
        capsys, "cores", "--scenario", str(scenario_path), "--game", "optimistic")
    assert code == 1
    assert "EMPTY" in out
    assert "720.00 + 920.00 + 1150.00" in out and "2300.00" in out
    code, out, _ = run_cli(
        capsys, "cores", "--scenario", str(scenario_path), "--game", "pessimistic")
    assert code == 0
    assert "NONEMPTY" in out


def test_rule_override_and_negative_pipeline(scenario_path, capsys):
    code, out, _ = run_cli(
        capsys, "pipeline", "--scenario", str(scenario_path), "--rule", "prop")
    assert code == 1
    assert "permit-allocation-unstable" in out


def test_trade_command_reference_numbers(scenario_path, capsys):
    code, out, _ = run_cli(
        capsys, "trade", "--scenario", str(scenario_path),
        "--target", "700,800,800", "--price", "50")
    assert code == 0
    assert "uniform permit price 50.00" in out
    assert "authority revenue 700.00" in out
    assert "20/3 (6.67)" in out


def test_trade_command_default_target(scenario_path, capsys):
    # without --target the ledger aims at the pipeline's priced allocation
    code, out, _ = run_cli(capsys, "trade", "--scenario", str(scenario_path))
    assert code == 0
    assert "766.67" in out


def test_trade_command_rejects_abundant_regime(tmp_path, capsys):
    data = dict(MINIMAL)
    data["cap"] = 200
    path = write_scenario(tmp_path, data)
    code, _, err = run_cli(capsys, "trade", "--scenario", str(path))
    assert code == 2 and "rationed cap" in err


def test_pipeline_single_firm(tmp_path, capsys):
    data = {
        "production": [[1], [2]], "endowments": [[7]], "prices": [9],
        "tax": 2, "cap": 3,
    }
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "pipeline", "--scenario", str(path))
    assert code in (0, 1)
    assert "verdict" in out


def test_mechanism_command(scenario_path, capsys):
    code, out, _ = run_cli(
        capsys, "mechanism", "--scenario", str(scenario_path),
        "--grid", "0,10,50/3,20,25,30,46,50,66")
    assert code == 0
    assert "dominant strategy" in out
    code, out, _ = run_cli(
        capsys, "mechanism", "--scenario", str(scenario_path), "--rule", "prop",
        "--grid", "0,10,50/3,20,25,30,46,50,66")
    assert code == 1
    assert "NOT dominant" in out


def test_csv_and_json_formats(scenario_path, capsys):
    code, out, _ = run_cli(
        capsys, "demands", "--scenario", str(scenario_path), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section,row,field,value,exact,decimal"
    assert any(line.endswith("demand,,20,20.00") for line in lines)
    code, out, _ = run_cli(
        capsys, "demands", "--scenario", str(scenario_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["sections"][0]["rows"]
    assert rows[0]["demand"] == {"exact": "20", "decimal": "20.00"}


def test_precision_flag(scenario_path, capsys):
    code, out, _ = run_cli(
        capsys, "demands", "--scenario", str(scenario_path), "--precision", "4")
    assert code == 0
    assert "40 (40.0000)" in out


@pytest.mark.parametrize("precision", [4400, 10 ** 9])
def test_oversized_precision_is_refused_before_any_analysis(
        tmp_path, monkeypatch, capsys, precision):
    def unreachable(*args, **kwargs):
        raise AssertionError("an analysis ran before the precision was checked")

    monkeypatch.setattr(cli, "optimal_demand", unreachable)
    flag = write_scenario(tmp_path, MINIMAL, "flag.json")
    option = write_scenario(tmp_path, {**MINIMAL, "options": {"precision": precision}})
    for argv, message in (
            (["--scenario", str(flag), "--precision", str(precision)],
             "error: --precision must be at most 1000\n"),
            (["--scenario", str(option)],
             "error: options.precision: expected at most 1000 digits\n")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "demands", *argv)
        assert time.perf_counter() - started < 1
        assert (code, out, err) == (2, "", message)


TOO_LONG = f"numerator or denominator has more than {MAX_DIGITS} digits"


@pytest.mark.parametrize("field, literal, message", [
    ("cap", "5" * 5000, f"a number literal has more than {sys.get_int_max_str_digits()} digits"),
    # bare non-integer literals and strings are read by ``exact``, which names the field
    ("cap", "5" * 5000 + ".5", f"cap: {TOO_LONG}"),
    ("cap", '"1e5000"', f"cap: {TOO_LONG}"),
    ("cap", '"1e-4400"', f"cap: {TOO_LONG}"),
    ("tax", '"1e-4299"', f"tax: {TOO_LONG}"),
    ("cap", "1e3000000", f"cap: {TOO_LONG}"),
    ("prices", f"[50, 1{'0' * MAX_DIGITS}]", f"prices[1]: {TOO_LONG}"),
], ids=["integer", "decimal", "exponent", "negative-exponent", "tax", "bare-exponent",
        "integer-bound"])
def test_a_number_literal_past_the_digit_limit_is_an_input_error(
        tmp_path, capsys, field, literal, message):
    path = tmp_path / "long.json"
    path.write_text(
        json.dumps({**MINIMAL, field: 0}).replace(f'"{field}": 0', f'"{field}": {literal}'))
    started = time.perf_counter()
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(path)
    assert time.perf_counter() - started < 1
    code, out, err = run_cli(capsys, "pipeline", "--scenario", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("change", [
    {"cap": "1e1000"}, {"cap": "1e-1000"}, {"tax": "1e-1000"},
    {"prices": ["5e1000", "5e1000"]},
    {"endowments": [[40, 60, "4e1000"], [60, 40, 50]]},
    {"production": [[2, 3], [3, 2], ["2e-1000", 1]]},
], ids=["cap", "small-cap", "tax", "prices", "endowment", "production"])
def test_thousand_digit_numbers_still_analyse(tmp_path, capsys, change):
    path = write_scenario(tmp_path, {**MINIMAL, **change})
    for command in ("demands", "game", "cores", "pipeline", "mechanism", "trade"):
        code, _, err = run_cli(capsys, command, "--scenario", str(path))
        # an abundant cap leaves nothing to trade, which is an input error
        assert code in (0, 1) or (command, code) == ("trade", 2) and "rationed cap" in err, \
            (command, err)


def test_dump_scenario_flag(scenario_path, tmp_path, capsys):
    out_path = tmp_path / "normalized.json"
    code, _, _ = run_cli(
        capsys, "demands", "--scenario", str(scenario_path),
        "--dump-scenario", str(out_path))
    assert code == 0
    reloaded = load_scenario(out_path)
    assert reloaded.situation == load_scenario(scenario_path).situation


def test_input_errors_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "demands", "--scenario", str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in err
    bad = write_scenario(tmp_path, {**MINIMAL, "tax": 0})
    code, _, err = run_cli(capsys, "pipeline", "--scenario", str(bad))
    assert code == 2 and "tax must be positive" in err
    code, _, err = run_cli(capsys, "demands")
    assert code == 2


@pytest.mark.parametrize("change, field", [
    ({"cap": True}, "cap"),
    ({"tax": True}, "tax"),
    ({"production": [[2, 3], [3, True], [1, 1]]}, "production[1][1]"),
    ({"options": {"grid": [0, True]}}, "grid[1]"),
    ({"options": {"precision": True}}, "options.precision"),
    ({"options": {"partition_limit": True}}, "options.partition_limit"),
])
def test_json_booleans_are_not_numbers(tmp_path, capsys, change, field):
    path = write_scenario(tmp_path, {**MINIMAL, **change})
    code, out, err = run_cli(capsys, "pipeline", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, matrix, message", [
    ("production", [[2, 3], [3, "x"], [1, 1]], "production[1][1]: not an exact number: 'x'"),
    ("production", [["1/0", 3], [3, "x"], [1, 1]], "production[0][0]: not an exact number: '1/0'"),
    ("production", [[2, 3], [3, 2], [1, 2.5]],
     "production[2][1]: refusing inexact or unknown numeric type float: 2.5"),
    ("endowments", [[40, 60, 80], [60, "1e5000", "y"]], f"endowments[1][1]: {TOO_LONG}"),
    ("endowments", [[40, 60, None], [60, 40, 50]],
     "endowments[0][2]: refusing inexact or unknown numeric type NoneType: None"),
])
def test_a_bad_matrix_entry_is_named_by_its_row_and_column(field, matrix, message):
    with pytest.raises(ScenarioError) as refused:
        scenario_from_dict({**MINIMAL, field: matrix})
    assert str(refused.value) == message


def test_dump_scenario_to_an_unwritable_path_exits_two(scenario_path, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "demands", "--scenario", str(scenario_path), "--dump-scenario", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["trade", "--target", "1,2"], "split and target must have one entry per firm"),
    (["trade", "--target", "1,2,3"], "target is not efficient"),
    (["mechanism", "--grid=-1,2"], "report levels must be nonnegative"),
    (["mechanism", "--grid="], "grid: empty specification"),
    (["trade", "--price="], "--price: not an exact number"),
    (["trade", "--target="], "--target: not an exact number"),
    (["demands", "--dump-scenario="], "empty path"),
    (["mechanism", "--grid=0,1e5000"], f"grid: {TOO_LONG}"),
    (["trade", "--target=1e5000,0,0"], f"--target: {TOO_LONG}"),
    (["trade", "--price=1e-4299"], f"--price: {TOO_LONG}"),
    (["trade", "--price=0"], "uniform permit price must be positive, got 0"),
    (["trade", "--price=-5"], "uniform permit price must be positive, got -5"),
])
def test_bad_targets_and_grids_exit_two(scenario_path, capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--scenario", str(scenario_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_empty_grid_in_scenario_options_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path, {**MINIMAL, "options": {"grid": []}})
    code, out, err = run_cli(capsys, "mechanism", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err == "error: grid: empty specification\n"


@pytest.mark.parametrize("flag, value", [("--price", "abc"), ("--target", "1,x,3")])
def test_bad_trade_numbers_name_the_flag_before_the_pipeline(
        scenario_path, monkeypatch, capsys, flag, value):
    def unreachable(*args, **kwargs):
        raise AssertionError("the pipeline ran before the flags were parsed")

    monkeypatch.setattr(cli, "stable_pipeline", unreachable)
    code, out, err = run_cli(capsys, "trade", flag, value, "--scenario", str(scenario_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: not an exact number: ") and err.count("\n") == 1


def test_negative_grid_in_scenario_options_is_an_input_error(tmp_path):
    with pytest.raises(ScenarioError, match="nonnegative"):
        load_scenario(write_scenario(tmp_path, {**MINIMAL, "options": {"grid": [0, "-1/2"]}}))


def test_internal_value_error_exits_three(scenario_path, monkeypatch, capsys):
    def broken(sit, coalition):
        raise ValueError("broken demand program")

    monkeypatch.setattr(cli, "optimal_demand", broken)
    code, out, err = run_cli(capsys, "demands", "--scenario", str(scenario_path))
    assert code == 3
    assert out == ""
    assert err == "internal error: broken demand program\n"


def test_internal_fault_exits_three(monkeypatch, capsys):
    fixture = Path(cli.__file__).with_name("fixtures") / "example3.json"
    monkeypatch.setitem(
        bankruptcy._RULE_FUNCTIONS, "cea", lambda cap, claims: (list(claims), 2))
    code, out, err = run_cli(capsys, "game", "--scenario", str(fixture))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and "exhaust" in err
    assert err.count("\n") == 1


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["reproduce-paper", "--format", "json"],
    ["game", "--grid", "1"],
    ["mechanism", "--partition-limit", "3"],
])
def test_options_a_command_does_not_read_exit_two(scenario_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--scenario", str(scenario_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reproduce_paper_command(capsys):
    code, out, _ = run_cli(capsys, "reproduce-paper")
    assert code == 0
    assert "22/22 reference checks passed" in out


def test_reproduce_paper_under_python_O():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "permit_games.cli", "reproduce-paper"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("22/22 reference checks passed\n")
