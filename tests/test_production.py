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
    assert len(solved) == 1  # the table's root, which starts all 7 sweeps
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


def test_revenue_curves_match_the_per_permit_and_two_stage_oracles(monkeypatch):
    # A walk step is a ratio test outside ``solve``; one whose breakpoint
    # does not pass the last one, a degenerate pivot, gives no segment.
    tests = [0, 0]  # ratio tests, and those inside solve

    def ratio_test(*args):
        tests[0] += 1
        return _REAL_RATIO_TEST(*args)

    def solve(program):
        before = tests[0]
        solution = _REAL_SOLVE(program)
        tests[1] += tests[0] - before
        return solution

    monkeypatch.setattr(lp, "_ratio_test", ratio_test)
    monkeypatch.setattr(lp, "solve", solve)
    kinks = segment_count = 0
    for sit in [*_sweep_economies(), *_tied_economies()]:
        for fs in lex_coalitions(sit.firms()):
            segments = production._curve(sit, fs)
            segment_count += len(segments)
            assert all(s.lo < s.hi for s in segments)
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
    assert tests[0] - tests[1] - segment_count == 65


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


def test_table_curves_equal_fresh_sweeps_in_any_order(monkeypatch):
    """A curve read off the shared table is the sweep of the coalition's
    program alone, segment for segment, whichever coalitions filled the
    table: both start at the same root and take the same edges.  A table
    solves once, for the root of its swept row."""
    solved = []
    monkeypatch.setattr(
        lp, "solve", lambda program: solved.append(program) or _REAL_SOLVE(program))
    rng = random.Random(5)
    reused = 0
    for sit in _sweep_economies():
        coalitions = lex_coalitions(sit.firms())
        alone = {}
        for fs in coalitions:
            top = production._curve(sit, fs)[-1].hi
            assert top == _oracle_top(sit, fs)
            program = _revenue_program(sit, fs, top)
            solved.clear()
            alone[fs] = lp.BasisTable(program.objective, program.rows).sweep(
                *lp._integer_row(program.rhs), sit.n_resources)
            assert len(solved) == 1
        orders = [coalitions] + [rng.sample(coalitions, len(coalitions)) for _ in range(3)]
        for order in orders:
            fresh = dataclasses.replace(sit)
            table = fresh._bases
            solved.clear()
            for fs in order:
                known = len(table._bases)
                assert production._curve(fresh, fs) == alone[fs]
                reused += len(table._bases) == known
            assert len(solved) == 1
    assert reused > 1000  # curves that entered no new basis


def _oracle_top(sit, members):
    """1 + sum_j pi_j min_t stock_t / a_tj, in Fractions."""
    stocks = sit.coalition_endowment(members)
    return 1 + sum(pi * min(b / a for a, b in zip(column, stocks) if a > 0)
                   for pi, *column in zip(sit.permit_row, *sit.resource_rows))


def _full_tableau(program, basis):
    """B^-1 [A | I] of ``program``'s declared rows for ``basis``, then the
    reduced costs c - c_B B^-1 [A | I], in Fractions from scratch: the
    full tableau, every column stored."""
    m = program.n_rows
    full = [[*row, *(F(i == t) for t in range(m))] for i, row in enumerate(program.rows)]
    matrix = [[row[col] for col in basis] for row in full]
    columns = [support.gaussian_solve(matrix, [row[j] for row in full])
               for j in range(len(full[0]))]
    tableau = [list(row) for row in zip(*columns)]
    cost = [*program.objective, *[F(0)] * m]
    return tableau, [c - sum(cost[col] * row[j] for col, row in zip(basis, tableau))
                     for j, c in enumerate(cost)]


def test_each_table_edge_enters_the_column_of_the_full_tableau(monkeypatch):
    # A table entry stores its nonbasic slots in no set order, so the dual
    # ratio test must break ties by column number, as Bland's rule does on
    # the full rows.  Each edge is recomputed in Fractions: the least column
    # j with the least red_j / a_j over a_j < 0 in the leaving row enters.
    real = lp.BasisTable._edge
    tied_edges = []

    def edge(table, entry, r, lo):
        tableau, red = _full_tableau(table._program, entry.basis)
        for stored, den, row in zip(entry.rows, entry.dens, [*tableau, red]):
            assert [F(a, den) for a in stored] == [row[label] for label in entry.labels]
        ratios = {j: red[j] / a for j, a in enumerate(tableau[r]) if a < 0}
        tied = [j for j, ratio in ratios.items() if ratio == min(ratios.values())]
        expected = list(entry.basis)
        expected[r] = min(tied)
        following = real(table, entry, r, lo)
        assert sorted(following.basis) == sorted(expected)
        tied_edges.append(len(tied) > 1)
        return following

    monkeypatch.setattr(lp.BasisTable, "_edge", edge)
    for sit in [*_sweep_economies(), *_tied_economies()]:
        for fs in lex_coalitions(sit.firms()):
            production._curve(sit, fs)
    # 136 edges: 1 of the 130 of _sweep_economies is tied, 1 of each 2 below.
    assert len(tied_edges) > 100 and sum(tied_edges) >= 3


def _tied_economies():
    """One resource, and a third good that is the second scaled, column
    and price.  Every curve makes the first good until the resource binds,
    and then the two proportional columns tie in the dual ratio test."""
    for scale in (2, 3, F(1, 2)):
        yield Situation.create(production=[[2, 1, scale], [1, 1, scale]], endowments=[[6, 4]],
                               prices=[10, 6, 6 * scale], tax=1, cap=5)


def test_a_table_entry_stores_one_slot_per_declared_variable(monkeypatch):
    # The table-side twin of test_lp.py's check on solve's rows: an entry
    # keeps neither the right-hand side nor a basic column.
    real = lp.BasisTable._enter
    entries = []

    def enter(table, *args):
        entry = real(table, *args)
        entries.append((table._program, entry))
        return entry

    monkeypatch.setattr(lp.BasisTable, "_enter", enter)
    for sit in _sweep_economies():
        for fs in lex_coalitions(sit.firms()):
            production._curve(sit, fs)
    assert len(entries) > 150
    for program, entry in entries:
        n, m = program.n_vars, program.n_rows
        assert len(entry.rows) == len(entry.dens) == m + 1
        assert {len(row) for row in entry.rows} == {len(entry.labels)} == {n}
        assert sorted([*entry.labels, *entry.basis]) == list(range(n + m))


_REAL_SEGMENT = lp._segment
_REAL_RATIO_TEST = lp._ratio_test
_REAL_READ_BASIS = lp._read_basis
_REAL_SOLVE = lp.solve
_REAL_SWEEP = lp.BasisTable.sweep
_REAL_ENTER = lp.BasisTable._enter
_REAL_CHECK_BASIS = lp._check_basis


# Each takes and returns the ``Segment`` that ``lp._segment`` returns.


def _wrong_slope(segment):
    return segment._replace(slope=segment.slope + 1)


def _wrong_value(segment):
    return segment._replace(value=segment.value + 1)


CORRUPTIONS = [_wrong_slope, _wrong_value]


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
        return corrupt(real) if on_hit != bool(solved) else real

    patch(lp.BasisTable, "sweep", sweep)
    patch(lp, "solve", solve)
    patch(lp, "_segment", segment)


def _infeasible_dual(entry):
    return entry._replace(y=[0] * len(entry.y))


def _doubled_dual(entry):
    # Still feasible, since the prices are positive, but it prices every
    # basic structural column at twice its cost.
    return entry._replace(y=[2 * yi for yi in entry.y])


def _corrupt_entries(patch, from_pivot, corrupt=_infeasible_dual):
    """Corrupt the dual of every basis that enters a table, or of all but
    the first: the first comes from ``solve`` and, in the reference economy,
    the second from a pivot of the same sweep."""
    read = []

    def read_basis(*args):
        read.append(args)
        entry = _REAL_READ_BASIS(*args)
        return corrupt(entry) if len(read) > from_pivot else entry

    patch(lp, "_read_basis", read_basis)


def _corrupt_inverse(patch, structural):
    """Raise one entry of B^-1, on the row of a structural basic variable or
    of a basic slack, of every basis as it enters, before it is checked."""
    def check_basis(work, cost, cost_den, entry):
        n = len(cost)
        r = next(r for r, col in enumerate(entry.basis) if (col < n) == structural)
        entry.inverse[r][0] += 1
        _REAL_CHECK_BASIS(work, cost, cost_den, entry)

    patch(lp, "_check_basis", check_basis)


def _raise_factors(entry):
    entry.basic[:] = [(r, col, factor + 1) for r, col, factor in entry.basic]


def _raise_inverse(entry):
    for row in entry.inverse:
        row[0] += 1


def _raise_dual(entry):
    entry.dual[:] = [yi + 1 for yi in entry.dual]


def _raise_falling(entry):
    # Every row's cached column claims twice its fall, so each breakpoint
    # comes at half its z.
    for k in range(len(entry.basis)):
        rows, cols, falling = lp._falling(entry, k)
        entry.falls[k] = (rows, cols, tuple(2 * a for a in falling))


# Corruptions of what a table entry caches after it is checked.
CACHED_CORRUPTIONS = [_raise_factors, _raise_inverse, _raise_dual, _raise_falling]


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


def test_a_dual_that_misprices_a_basic_column_is_refused_as_it_enters(monkeypatch):
    sit = _reference_economy()
    _corrupt_entries(monkeypatch.setattr, False, _doubled_dual)
    with pytest.raises(RuntimeError, match="the dual misprices basic column"):
        _demands_in_lex_order(sit)
    assert sit._bases._bases == {}
    assert sit._memo == {}


@pytest.mark.parametrize("structural", [True, False], ids=["structural", "slack"])
def test_a_corrupted_inverse_is_refused_as_it_enters(monkeypatch, structural):
    sit = _reference_economy()
    _corrupt_inverse(monkeypatch.setattr, structural)
    with pytest.raises(RuntimeError, match="of the stored B\\^-1 does not invert the basis"):
        _demands_in_lex_order(sit)
    assert sit._bases._bases == {}


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
    raised = len(CACHED_CORRUPTIONS)
    assert len(lines) == raised + 1 and all(line.startswith("raised") for line in lines[:raised])
    assert all("primal objective differs from the reported value" in line
               for line in lines[:2])
    assert "segment slope is not the swept row's dual" in lines[2]


def test_a_segment_raised_past_its_basis_is_refused_at_its_hi_end(monkeypatch):
    # Above its upper end a segment's basis is infeasible, so a raised hi
    # leaves the lo end as it was and breaks only the far end.
    raised = []

    def raise_hi(segment):
        raised.append(segment.hi + 1)
        return segment._replace(hi=raised[-1])

    for on_hit in (False, True):
        with monkeypatch.context() as patch:
            _corrupt_segments(patch.setattr, raise_hi, on_hit)
            with pytest.raises(RuntimeError) as refused:
                _demands_in_lex_order(_reference_economy())
        assert str(refused.value).endswith(f" at z = {raised[-1]}")


def _reference_check_segment(sit, members, segment, entry, k):
    """The full per-endpoint certificate of a swept segment, in Fractions
    against the revenue program of ``members``, as the oracle for the
    sweep's affine updates: the primal of the segment's basis at each end
    z, read off the tableau, is nonnegative and feasible and meets the dual
    in complementary slackness and strong duality; the dual is feasible,
    the slope is row k's dual and the value is c.x at lo."""
    rows, prices = sit.production, sit.prices
    y = [F(yi, entry.y_den) for yi in entry.y]
    assert segment.slope == y[k]
    assert all(yi >= 0 for yi in y)
    assert all(sum(yi * row[j] for yi, row in zip(y, rows)) >= c for j, c in enumerate(prices))
    stocks = sit.coalition_endowment(members)
    for z in (segment.lo, segment.hi):
        b = [*stocks, z]
        x = [F(0)] * sit.n_goods
        for r, col in enumerate(entry.basis):
            if col < sit.n_goods:
                x[col] = sum(a * bi for a, bi in zip(entry.inverse[r], b)) / entry.dens[r]
        assert all(v >= 0 for v in x)
        for row, bi, yi in zip(rows, b, y):
            used = sum(a * v for a, v in zip(row, x))
            assert used <= bi and (yi == 0 or used == bi)
        value = sum(c * v for c, v in zip(prices, x))
        assert value == sum(yi * bi for yi, bi in zip(y, b))
        if z == segment.lo:
            assert segment.value == value


def test_every_swept_segment_passes_the_per_endpoint_reference_check(monkeypatch):
    checked = []
    real = lp._check_segment

    def check_segment(cost, cost_den, rhs, den, k, segment, entry):
        real(cost, cost_den, rhs, den, k, segment, entry)
        checked.append((segment, entry, k))

    monkeypatch.setattr(lp, "_check_segment", check_segment)
    count = 0
    for sit in _sweep_economies():
        for fs in lex_coalitions(sit.firms()):
            checked.clear()
            curve = production._curve(sit, fs)
            assert [segment for segment, _, _ in checked] == curve
            for segment, entry, k in checked:
                _reference_check_segment(sit, fs, segment, entry, k)
                count += 1
    assert count > 1000


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
    # Also a basis with an infeasible or mispricing dual or a corrupted
    # B^-1, refused as it enters the table.
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
for from_pivot, corrupt in ((False, t._infeasible_dual), (True, t._infeasible_dual),
                            (False, t._doubled_dual)):
    t._corrupt_entries(setattr, from_pivot, corrupt)
    try:
        t._demands_in_lex_order(t._reference_economy())
    except RuntimeError as exc:
        print("raised", exc)
t.lp._read_basis = t._REAL_READ_BASIS
for structural in (True, False):
    t._corrupt_inverse(setattr, structural)
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
    assert len(lines) == 10 and all(line.startswith("raised") for line in lines[:9])
    assert "the dual misprices basic column" in lines[6]
    assert all("does not invert the basis" in line for line in lines[7:9])
