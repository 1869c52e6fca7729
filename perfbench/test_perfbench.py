"""Tests of the benchmark's own code: tracer, self-time arithmetic, verifier."""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permit_games.production import Situation

import tracer
import verify
import workloads

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

EXAMPLE3 = dict(
    production=[[2, 3], [3, 2], [1, 1]],
    endowments=[[40, 60, 80], [60, 40, 50]],
    prices=[50, 60],
    tax=14,
    cap=50,
)

# Runs in a fresh interpreter so the engine's caches start cold every time.
COUNT_LP_CALLS = """
import json
from permit_games import stability
from permit_games.production import Situation
import tracer
t = tracer.Tracer()
t.install()
with t.recording():
    stability.stable_pipeline(Situation.create(**{example}), "cea")
t.uninstall()
print(json.dumps([
    t.spans.calls().get("lp.solve", 0),
    t.spans.count_under("lp.solve", "production.optimal_demand"),
    t.spans.count_under("lp.solve", "stability.core_nonempty"),
]))
"""


@pytest.fixture
def example3():
    return Situation.create(**EXAMPLE3)


def _traced_lp_counts():
    code = COUNT_LP_CALLS.format(example=EXAMPLE3)
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env={"PYTHONPATH": f"{SOURCE}:{HERE}", "PATH": ""})
    return json.loads(out.stdout)


def test_tracer_sees_lp_calls_inside_production_and_stability():
    first = _traced_lp_counts()
    total, under_demand, under_core = first
    assert total > 0 and under_demand > 0 and under_core > 0
    assert _traced_lp_counts() == first


def test_tracer_uninstall_restores_every_binding(example3):
    from permit_games import lp, production, stability
    from permit_games.report import Report
    before = (lp.solve, production.solve, stability.solve, Report.__dict__["render"])
    t = tracer.Tracer()
    t.install()
    assert production.solve is not before[1] and stability.solve is production.solve
    t.uninstall()
    assert (lp.solve, production.solve, stability.solve,
            Report.__dict__["render"]) == before


def test_self_time_of_nested_spans():
    spans = tracer.Spans()
    root = spans.open("root", 0.0)
    a = spans.open("a", 1.0)
    inner = spans.open("a", 2.0)  # a nested in a counts once inclusively
    spans.close(inner, 3.0)
    spans.close(a, 4.0)
    c = spans.open("c", 5.0)
    spans.close(c, 9.0)
    spans.close(root, 10.0)
    assert spans.self_times() == {"root": 3.0, "a": 3.0, "c": 4.0}
    assert spans.inclusive_times() == {"root": 10.0, "a": 3.0, "c": 4.0}
    assert spans.calls() == {"root": 1, "a": 2, "c": 1}
    assert spans.count_under("a", "root") == 2
    assert spans.count_under("c", "a") == 0


def test_verifier_rejects_a_shifted_witness(example3):
    game, cores = workloads._cores(example3)
    assert workloads._cores_check(example3, (game, cores)) == []
    name, cg, verdict = next(entry for entry in cores if entry[2].nonempty)
    bumped = list(verdict.witness)
    bumped[0] += Fraction(1, 1000)
    tampered = dataclasses.replace(verdict, witness=tuple(bumped))
    assert verify.check_core(cg, tampered)
    lines = workloads._cores_lines((game, [(name, cg, tampered)]))
    assert verify.digest(lines) != verify.digest(workloads._cores_lines((game, [(name, cg, verdict)])))


def test_verifier_rejects_a_tampered_certificate(example3):
    _, cores = workloads._cores(example3)
    name, cg, verdict = next(entry for entry in cores if not entry[2].nonempty)
    cert = verdict.certificate
    (fs, w), *rest = cert.parts
    heavier = dataclasses.replace(cert, parts=((fs, w + Fraction(1, 1000)), *rest))
    assert verify.check_core(cg, dataclasses.replace(verdict, certificate=heavier))


def test_verifier_rejects_swapped_awards(example3):
    result = workloads._tabulate(example3)
    game = result[0]
    assert workloads._tabulate_check(example3, result) == []
    partition = ((1, 3), (2,))
    a, b = frozenset({1, 3}), frozenset({2})
    game.shares[a, partition], game.shares[b, partition] = (
        game.shares[b, partition], game.shares[a, partition])
    assert verify.check_awards(game)


def test_money_columns_read_back_in_every_format(example3, tmp_path):
    for index in range(3):  # one index per format
        case = workloads._cli_input(0, index, tmp_path)
        for argv in case.argvs:
            scenario = Path(argv[2])
            scenario.write_text(json.dumps(dict(EXAMPLE3, name=scenario.stem, rule="cea")))
        case = dataclasses.replace(case, situations=(example3,) * len(case.argvs))
        result = workloads._cli(case)
        assert [code for code, _ in result] == [0, 0, 0, 0]
        assert workloads._cli_check(case, result) == []
        for argv, (_, stdout) in zip(case.argvs, result):
            if argv[0] in workloads.MONEY_COLUMN:
                money = verify.report_column(
                    stdout, case.fmt, *workloads.MONEY_COLUMN[argv[0]])
                assert len(money) == 3 and sum(money) == 2300
                assert verify.check_money(money[:-1], Fraction(2300))
