"""Coalition values and optimal permit demands, pinned against hand arithmetic
and against the per-permit revenue LP and the two-stage demand LP."""

import dataclasses
import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from permit_games import cli, lp, production
from permit_games.games import lex_coalitions
from permit_games.partition_games import build_game
from permit_games.production import (
    Situation,
    SituationError,
    coalition_value,
    optimal_demand,
    production_revenue,
)

import support

F = Fraction


def test_reference_values(example3):
    assert coalition_value(example3, [1, 2, 3], 50) == 2300
    assert coalition_value(example3, [1], F(50, 3)) == F(2000, 3)
    assert coalition_value(example3, [1, 3], 30) == 1380
    assert coalition_value(example3, [2], 20) == 920


def test_zero_permits_shuts_production_down(example3):
    for members in ([1], [2, 3], [1, 2, 3]):
        assert coalition_value(example3, members, 0) == 0


def test_reference_demands(example3, demands3):
    for coalition, expected in demands3.items():
        assert optimal_demand(example3, coalition) == expected


def test_negative_permits_rejected(example3):
    with pytest.raises(SituationError):
        coalition_value(example3, [1], -1)


def test_validation_messages():
    good = dict(
        production=[[2, 3], [3, 2], [1, 1]],
        endowments=[[40, 60, 80], [60, 40, 50]],
        prices=[50, 60],
        tax=14,
        cap=50,
    )
    with pytest.raises(SituationError, match="tax must be positive"):
        Situation.create(**{**good, "tax": 0})
    with pytest.raises(SituationError, match="cap must be positive"):
        Situation.create(**{**good, "cap": 0})
    with pytest.raises(SituationError, match="price condition"):
        Situation.create(**{**good, "prices": [50, 14]})
    with pytest.raises(SituationError, match="permit requirement"):
        Situation.create(**{**good, "production": [[2, 3], [3, 2], [1, 0]]})
    with pytest.raises(SituationError, match="held by no firm"):
        Situation.create(**{**good, "endowments": [[40, 60, 80], [0, 0, 0]]})
    with pytest.raises(SituationError, match="required by every good"):
        Situation.create(**{**good, "production": [[2, 0], [0, 2], [1, 1]]})


def test_firm_without_endowments_is_legal():
    sit = Situation.create(
        production=[[1, 1], [2, 1], [1, 2]],
        endowments=[[10, 0], [5, 0]],
        prices=[9, 11],
        tax=2,
        cap=6,
    )
    assert optimal_demand(sit, [2]) == 0
    assert coalition_value(sit, [2], 3) == -6  # buying permits it cannot use


def test_value_flat_at_minus_tax_beyond_demand(example3, demands3):
    # In the reference economy revenue saturates exactly at each coalition's
    # demand, so past it the profit falls at precisely the tax rate.
    for coalition, d in demands3.items():
        peak = coalition_value(example3, coalition, d)
        for t in (F(1, 3), 2, 10):
            assert coalition_value(example3, coalition, d + t) == peak - example3.tax * t


def test_value_nondecreasing_up_to_demand_and_concave():
    rng = random.Random(424242)
    checked = 0
    while checked < 12:
        sit = support.rand_situation(rng, n_firms=2)
        members = [rng.randint(1, 2)]
        d = optimal_demand(sit, members)
        if d == 0:
            continue
        checked += 1
        peak = coalition_value(sit, members, d)
        samples = [d * F(k, 4) for k in range(5)] + [d + 1, d + 3]
        values = [coalition_value(sit, members, z) for z in samples]
        for z, v in zip(samples, values):
            assert v <= peak
            # never worse than buying the peak quantity and wasting the excess
            if z >= d:
                assert v >= peak - sit.tax * (z - d)
        increasing = values[:5]
        assert all(a <= b for a, b in zip(increasing, increasing[1:]))
        # concavity along a random chord
        z1, z2 = d * F(1, 4), d + 2
        mid = (z1 + z2) / 2
        assert coalition_value(sit, members, mid) * 2 >= (
            coalition_value(sit, members, z1) + coalition_value(sit, members, z2))


def test_resource_monotonicity():
    rng = random.Random(11)
    for _ in range(10):
        sit = support.rand_situation(rng, n_firms=3)
        z = support.rand_fraction(rng, 1, 10)
        small = coalition_value(sit, [1], z)
        assert coalition_value(sit, [1, 2], z) >= small
        assert coalition_value(sit, [1, 2, 3], z) >= small


def test_demands_are_not_superadditive():
    # Randomized search for a merger that wants strictly fewer permits than
    # its members do separately; the seed is frozen on a hit.
    rng = random.Random(2024)
    for _ in range(400):
        sit = support.rand_situation(rng, n_firms=2)
        separate = optimal_demand(sit, [1]) + optimal_demand(sit, [2])
        if optimal_demand(sit, [1, 2]) < separate:
            break
    else:
        pytest.fail("no subadditive demand instance found in 400 draws")


def test_revenue_excludes_tax(example3):
    assert production_revenue(example3, [1, 2, 3], 50) == 3000
    assert production_revenue(example3, [1], 10) == 600


def _on_segment(segments, z, tax):
    """value + slope * (z - lo) - tax * z in Fraction arithmetic on the last
    segment with lo <= z, kept as the oracle for the one-Fraction reading."""
    segment = [s for s in segments if s.lo <= z][-1]
    return segment.value + segment.slope * (z - segment.lo) - tax * z


def test_values_on_the_curve_match_the_fraction_formula():
    checked = 0
    for sit in _sweep_economies():
        for fs in lex_coalitions(sit.firms()):
            segments = production._curve(sit, fs)
            top = segments[-1].hi
            points = {F(0), top + F(1, 3), 2 * top + 7}
            for s in segments:
                points |= {s.lo, s.hi, (s.lo + s.hi) / 2, s.lo + (s.hi - s.lo) / 7}
            for z in points:
                assert production_revenue(sit, fs, z) == _on_segment(segments, z, 0)
                assert coalition_value(sit, fs, z) == _on_segment(segments, z, sit.tax)
                checked += 1
        grand = sit.firms()
        for z in (3, "7/2", "1.25"):
            assert coalition_value(sit, grand, z) == _on_segment(
                production._curve(sit, frozenset(grand)), F(z), sit.tax)
    assert checked > 5000


@pytest.mark.parametrize("evaluate", [coalition_value, production_revenue])
def test_values_refuse_negative_permits_and_unknown_firms(example3, evaluate):
    with pytest.raises(SituationError, match="nonnegative"):
        evaluate(example3, [1], F(-1, 3))
    with pytest.raises(SituationError, match="nonnegative"):
        evaluate(example3, [4], -1)  # the quantity is checked first
    for members in ([1, 4], [0], ["1"]):
        with pytest.raises(SituationError, match="unknown firm"):
            evaluate(example3, members, 1)
    with pytest.raises(SituationError, match="nonempty"):
        evaluate(example3, [], 1)


def _reference_economy(tax=14):
    return Situation.create(
        production=[[2, 3], [3, 2], [1, 1]], endowments=[[40, 60, 80], [60, 40, 50]],
        prices=[50, 60], tax=tax, cap=50)


def test_lp_memo_is_freed_with_its_economy():
    sit = _reference_economy()
    build_game(sit, "cea")
    ref = weakref.ref(sit)
    del sit
    gc.collect()
    assert ref() is None


def test_second_tabulation_solves_no_lp(monkeypatch):
    sit = _reference_economy()
    solved = []
    real_solve = lp.solve
    monkeypatch.setattr(
        lp, "solve", lambda program: solved.append(program) or real_solve(program))
    first = build_game(sit, "cea")
    assert len(solved) == 3  # one per table miss: 3 of the 7 coalitions
    assert "_bases" not in vars(sit)  # freed once every coalition has its curve
    solved.clear()
    assert build_game(sit, "cea").values == first.values
    assert solved == []


def test_replaced_economy_starts_a_fresh_memo():
    sit = _reference_economy()
    grand = sit.firms()
    before = optimal_demand(sit, grand)
    changed = dataclasses.replace(sit, tax=F(30))
    fresh = _reference_economy(tax=30)
    assert optimal_demand(changed, grand) == optimal_demand(fresh, grand) == 60 != before
    assert changed == fresh and hash(changed) == hash(fresh) and repr(changed) == repr(fresh)


def _revenue_program(sit, members, permits):
    stocks = sit.coalition_endowment(members)
    rows = [(row, lp.LE, b) for row, b in zip(sit.resource_rows, stocks)]
    return lp.linear_program(sit.prices, rows + [(sit.permit_row, lp.LE, permits)])


def _oracle_revenue(sit, members, permits):
    """One revenue LP at the given permit quantity."""
    return lp.solve(_revenue_program(sit, members, permits)).objective_value


def _oracle_demand(sit, members):
    """Two-stage demand LP: the best profit with the permits as a variable,
    then the least permit quantity that still attains it."""
    stocks = sit.coalition_endowment(members)
    objective = [*sit.prices, -sit.tax]
    rows = [([*row, 0], lp.LE, b) for row, b in zip(sit.resource_rows, stocks)]
    rows.append(([*sit.permit_row, -1], lp.LE, 0))
    best = lp.solve(lp.linear_program(objective, rows)).objective_value
    least = [0] * sit.n_goods + [-1]
    return lp.solve(lp.linear_program(least, rows + [(objective, lp.EQ, best)])).primal[-1]


def _sweep_economies():
    """48 seeded economies of 2-5 firms; in every third one the last firm
    holds nothing."""
    rng = random.Random(8080)
    for index in range(48):
        n = 2 + index % 4
        if index % 3:
            yield support.rand_situation(rng, n_firms=n)
        else:
            sit = support.rand_situation(rng, n_firms=n - 1)
            yield Situation.create(sit.production, [[*row, 0] for row in sit.endowments],
                                   sit.prices, sit.tax, sit.cap)


def test_revenue_curves_match_the_per_permit_and_two_stage_oracles():
    kinks = 0
    for sit in _sweep_economies():
        for fs in lex_coalitions(sit.firms()):
            segments = production._curve(sit, fs)
            assert segments[0].lo == 0
            assert [s.hi for s in segments[:-1]] == [s.lo for s in segments[1:]]
            assert segments[-1].slope == 0
            assert all(a.slope >= b.slope for a, b in zip(segments, segments[1:]))
            kinks += len(segments) - 1
            top = segments[-1].hi
            points = {F(0), top + 1, 2 * top}
            for s in segments:
                points |= {s.lo, s.hi, (s.lo + s.hi) / 2}
            for z in points:
                assert production_revenue(sit, fs, z) == _oracle_revenue(sit, fs, z)
            assert optimal_demand(sit, fs) == _oracle_demand(sit, fs)
        grand = frozenset(sit.firms())
        for s in production._curve(sit, grand):
            for z in (s.lo, (s.lo + s.hi) / 2):
                expected = support.oracle_optimum(_revenue_program(sit, grand, z))
                assert production_revenue(sit, grand, z) == expected
    assert kinks > 100


def test_two_basic_variables_reach_zero_at_one_breakpoint():
    # The pair's program is max 5 x1 + 7 x2 s.t. x1 + 2 x2 <= 20, x2 <= 10,
    # x1 + x2 <= z.  On [10, 20] its optimum is x = (2z - 20, 20 - z) with
    # slack z - 10 on x2 <= 10, so x1 and that slack reach 0 together at 10.
    sit = Situation.create(production=[[1, 2], [0, 1], [1, 1]],
                           endowments=[[12, 8], [4, 6]], prices=[5, 7], tax=2, cap=15)
    pair = frozenset({1, 2})
    segments = production._curve(sit, pair)
    assert [(s.lo, s.hi, s.value, s.slope) for s in segments] == [
        (0, 10, 0, 7), (10, 20, 70, 3), (20, 31, 100, 0)]
    assert optimal_demand(sit, pair) == _oracle_demand(sit, pair) == 20
    for z in (0, 5, 10, F(29, 2), 20, 31, 40):
        assert production_revenue(sit, pair, z) == _oracle_revenue(sit, pair, z)


def test_table_curves_equal_fresh_sweeps_in_any_order():
    """A curve read off the shared table is the same function as the sweep of
    the coalition's program alone, whichever coalitions filled the table."""
    rng = random.Random(5)
    reused = 0
    for sit in _sweep_economies():
        coalitions = lex_coalitions(sit.firms())
        alone = {}
        for fs in coalitions:
            top = production._curve(sit, fs)[-1].hi
            assert top == _oracle_top(sit, fs)
            program = _revenue_program(sit, fs, top)
            alone[fs] = lp.BasisTable(program.objective, program.rows).sweep(
                *lp._integer_row(program.rhs), sit.n_resources)
        orders = [coalitions] + [rng.sample(coalitions, len(coalitions)) for _ in range(3)]
        for order in orders:
            fresh = dataclasses.replace(sit)
            table = fresh._bases
            for fs in order:
                known = len(table._bases)
                curve = production._curve(fresh, fs)
                reused += len(table._bases) == known
                breaks = {s.lo for s in curve + alone[fs]} | {curve[-1].hi, alone[fs][-1].hi}
                assert curve[-1].hi == alone[fs][-1].hi
                for z in breaks:
                    assert _value_at(curve, z) == _value_at(alone[fs], z)
                assert optimal_demand(fresh, fs) == _demand_of(alone[fs], sit.tax)
    assert reused > 1000  # curves that entered no new basis


def _oracle_top(sit, members):
    """1 + sum_j pi_j min_t stock_t / a_tj, in Fractions."""
    stocks = sit.coalition_endowment(members)
    return 1 + sum(pi * min(b / a for a, b in zip(column, stocks) if a > 0)
                   for pi, *column in zip(sit.permit_row, *sit.resource_rows))


def _value_at(segments, z):
    segment = next(s for s in reversed(segments) if s.lo <= z)
    return segment.value + segment.slope * (z - segment.lo)


def _demand_of(segments, tax):
    return next(s.lo for s in segments if s.slope <= tax)


_REAL_SEGMENT = lp._segment
_REAL_READ_BASIS = lp._read_basis
_REAL_SOLVE = lp.solve
_REAL_SWEEP = lp.BasisTable.sweep
_REAL_ENTER = lp.BasisTable._enter


def _wrong_slope(segment, ends):
    return segment._replace(slope=segment.slope + 1), ends


def _wrong_value(segment, ends):
    return segment._replace(value=segment.value + 1), ends


def _wrong_primal(segment, ends):
    low, (xs, den) = ends
    return segment, (low, ([xs[0] + 1, *xs[1:]], den))


CORRUPTIONS = [_wrong_slope, _wrong_value, _wrong_primal]


def _corrupt_segments(patch, corrupt, on_hit):
    """Corrupt every segment of the sweeps that start on a basis the table
    already held (``on_hit``), or of those that solve for it (table misses).
    ``patch`` is ``setattr`` or ``monkeypatch.setattr``."""
    solved = []

    def sweep(table, *args):
        solved.clear()
        return _REAL_SWEEP(table, *args)

    def solve(program):
        solved.append(program)
        return _REAL_SOLVE(program)

    def segment(*args):
        real = _REAL_SEGMENT(*args)
        return corrupt(*real) if on_hit != bool(solved) else real

    patch(lp.BasisTable, "sweep", sweep)
    patch(lp, "solve", solve)
    patch(lp, "_segment", segment)


def _infeasible_dual(entry):
    return entry._replace(y=[0] * len(entry.y))


def _corrupt_entries(patch, from_pivot):
    """Give a zero, and so infeasible, dual to every basis that enters a
    table, or to all but the first: the first comes from ``solve`` and, in
    the reference economy, the second from a pivot of the same sweep."""
    read = []

    def read_basis(*args):
        read.append(args)
        entry = _REAL_READ_BASIS(*args)
        return _infeasible_dual(entry) if len(read) > from_pivot else entry

    patch(lp, "_read_basis", read_basis)


def _raise_weights(entry):
    entry.weights[:] = [w + 1 for w in entry.weights]


def _raise_factors(entry):
    entry.basic[:] = [(r, col, factor + 1) for r, col, factor in entry.basic]


def _raise_inverse(entry):
    for row in entry.inverse:
        row[0] += 1


# Corruptions of what a table entry caches after its dual check.
CACHED_CORRUPTIONS = [_raise_weights, _raise_factors, _raise_inverse]


def _corrupt_cached(patch, corrupt):
    """Corrupt a cached field of every basis as it enters a table, after its
    dual has passed the feasibility check."""
    def enter(table, *args):
        entry = _REAL_ENTER(table, *args)
        corrupt(entry)
        return entry

    patch(lp.BasisTable, "_enter", enter)


def _demands_in_lex_order(sit):
    return [optimal_demand(sit, fs) for fs in lex_coalitions(sit.firms())]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_a_corrupted_segment_is_refused(monkeypatch, corrupt):
    for on_hit in (False, True):
        with monkeypatch.context() as patch:
            _corrupt_segments(patch.setattr, corrupt, on_hit)
            with pytest.raises(RuntimeError):
                _demands_in_lex_order(_reference_economy())


@pytest.mark.parametrize("from_pivot", [False, True], ids=["solve", "pivot"])
def test_an_infeasible_dual_is_refused_when_it_enters_the_table(monkeypatch, from_pivot):
    sit = _reference_economy()
    _corrupt_entries(monkeypatch.setattr, from_pivot)
    with pytest.raises(RuntimeError, match="still improves: not optimal"):
        _demands_in_lex_order(sit)
    assert len(sit._bases._bases) == from_pivot
    assert sit._memo == {}


@pytest.mark.parametrize("corrupt", CACHED_CORRUPTIONS)
def test_a_corrupted_cached_basis_field_is_refused(monkeypatch, corrupt):
    _corrupt_cached(monkeypatch.setattr, corrupt)
    with pytest.raises(RuntimeError):
        _demands_in_lex_order(_reference_economy())


def test_corrupted_cached_basis_fields_are_refused_under_python_O():
    script = """
import sys
import test_production as t
for corrupt in t.CACHED_CORRUPTIONS:
    t._corrupt_cached(setattr, corrupt)
    try:
        t._demands_in_lex_order(t._reference_economy())
    except RuntimeError as exc:
        print("raised", exc)
print("optimize", sys.flags.optimize)
"""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "optimize 1"
    assert len(lines) == 4 and all(line.startswith("raised") for line in lines[:3])
    assert "strong duality failed" in lines[0]


def _example3_demands_exit_three(capsys):
    fixture = Path(cli.__file__).with_name("fixtures") / "example3.json"
    assert cli.main(["demands", "--scenario", str(fixture)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_a_corrupted_segment_exits_three(monkeypatch, capsys, corrupt):
    for on_hit in (False, True):
        with monkeypatch.context() as patch:
            _corrupt_segments(patch.setattr, corrupt, on_hit)
            _example3_demands_exit_three(capsys)


def test_an_infeasible_dual_exits_three(monkeypatch, capsys):
    _corrupt_entries(monkeypatch.setattr, from_pivot=True)
    _example3_demands_exit_three(capsys)


def test_corrupted_segments_are_refused_under_python_O():
    # Also a basis with an infeasible dual, refused as it enters the table.
    script = """
import sys
import test_production as t
for corrupt in t.CORRUPTIONS:
    for on_hit in (False, True):
        t._corrupt_segments(setattr, corrupt, on_hit)
        try:
            t._demands_in_lex_order(t._reference_economy())
        except RuntimeError as exc:
            print("raised", exc)
t.lp.solve, t.lp._segment, t.lp.BasisTable.sweep = t._REAL_SOLVE, t._REAL_SEGMENT, t._REAL_SWEEP
for from_pivot in (False, True):
    t._corrupt_entries(setattr, from_pivot)
    try:
        t._demands_in_lex_order(t._reference_economy())
    except RuntimeError as exc:
        print("raised", exc)
print("optimize", sys.flags.optimize)
"""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "optimize 1"
    assert len(lines) == 9 and all(line.startswith("raised") for line in lines[:8])
