"""Solver behaviour pinned against hand examples and the enumeration oracle."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permit_games import lp

import support

F = Fraction


def test_single_constraint_identity():
    program = lp.linear_program([1], [([1], lp.LE, 5)])
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == 5
    assert sol.primal == (F(5),)
    assert sol.dual == (F(1),)


def test_contradictory_bounds_infeasible():
    program = lp.linear_program([1], [([1], lp.GE, 1), ([1], lp.LE, 0)])
    assert lp.solve(program).status == lp.INFEASIBLE


def test_unbounded_detected():
    program = lp.linear_program([1, 1], [([0, 1], lp.LE, 3)])
    assert lp.solve(program).status == lp.UNBOUNDED


def test_grand_coalition_program_value_and_dual():
    # Pooled three-firm program: endowments (180, 150), permit cap 50, tax 14.
    program = lp.linear_program(
        [50, 60],
        [([2, 3], lp.LE, 180), ([3, 2], lp.LE, 150), ([1, 1], lp.LE, 50)],
    )
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value - 14 * 50 == 2300
    assert sol.dual == (F(0), F(0), F(60))


def test_equality_and_negative_rhs_rows():
    program = lp.linear_program(
        [2, 1],
        [([1, 1], lp.EQ, 4), ([-1, 1], lp.GE, -3)],
    )
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    # x1 <= 7/2 from the flipped row, x2 = 4 - x1.
    assert sol.objective_value == F(2) * F(7, 2) + F(1, 2)
    assert sol.primal == (F(7, 2), F(1, 2))


def test_structure_errors_are_not_statuses():
    with pytest.raises(lp.LpStructureError):
        lp.linear_program([1, 2], [([1], lp.LE, 3)])
    with pytest.raises(lp.LpStructureError):
        lp.linear_program([1], [([1], "<", 3)])
    with pytest.raises(lp.LpStructureError):
        lp.linear_program([0.5], [([1], lp.LE, 3)])
    # A program built directly is checked at construction, not at solve time.
    with pytest.raises(lp.LpStructureError, match="coefficients"):
        lp.LinearProgram(objective=(F(1), F(2)), rows=((F(1),),), senses=(lp.LE,), rhs=(F(3),))
    with pytest.raises(lp.LpStructureError, match="unknown sense"):
        lp.LinearProgram(objective=(F(1),), rows=((F(1),),), senses=("<",), rhs=(F(3),))


def test_matches_oracle_on_random_programs():
    rng = random.Random(20240501)
    solved = 0
    for _ in range(60):
        program = support.rand_bounded_program(rng)
        sol = lp.solve(program)
        expected = support.oracle_optimum(program)
        if expected is None:
            assert sol.status == lp.INFEASIBLE
        else:
            assert sol.status == lp.OPTIMAL
            assert sol.objective_value == expected
            solved += 1
    assert solved > 20


def test_strong_duality_and_complementary_slackness_random():
    rng = random.Random(7)
    for _ in range(60):
        program = support.rand_bounded_program(rng)
        sol = lp.solve(program)
        if sol.status != lp.OPTIMAL:
            continue
        dual_value = sum(y * b for y, b in zip(sol.dual, program.rhs))
        assert dual_value == sol.objective_value
        for row, sense, b, y in zip(
                program.rows, program.senses, program.rhs, sol.dual):
            slack = b - sum(a * v for a, v in zip(row, sol.primal))
            if sense != lp.EQ:
                assert y * slack == 0


def test_permutation_invariance():
    rng = random.Random(99)
    for _ in range(25):
        program = support.rand_bounded_program(rng)
        base = lp.solve(program)
        order = list(range(program.n_rows))
        rng.shuffle(order)
        cols = list(range(program.n_vars))
        rng.shuffle(cols)
        permuted = lp.linear_program(
            [program.objective[j] for j in cols],
            [([program.rows[i][j] for j in cols], program.senses[i], program.rhs[i])
             for i in order],
        )
        other = lp.solve(permuted)
        assert other.status == base.status
        if base.status == lp.OPTIMAL:
            assert other.objective_value == base.objective_value


def test_deterministic_repeat():
    rng = random.Random(3)
    program = support.rand_bounded_program(rng)
    first = lp.solve(program)
    second = lp.solve(program)
    assert first == second


def _sweep(program, k):
    """Sweep one program's row ``k`` on a table of its own."""
    return lp.BasisTable(program.objective, program.rows).sweep(*lp._integer_row(program.rhs), k)


def test_sweep_walks_one_right_hand_side_down_to_zero():
    # max x s.t. x <= 3, x <= z: the optimum is min(3, z).
    program = lp.linear_program([1], [([1], lp.LE, 3), ([1], lp.LE, 5)])
    assert _sweep(program, 1) == [lp.Segment(0, 3, 0, 1), lp.Segment(3, 5, 3, 0)]
    # Swept the other way, the row binds at its top value 3.
    with pytest.raises(RuntimeError, match="not slack at the top"):
        _sweep(program, 0)


def test_sweep_refuses_a_program_it_cannot_walk(monkeypatch):
    # max x1 s.t. x2 <= 5: the origin is feasible but the optimum is unbounded.
    program = lp.linear_program([1, 0], [([0, 1], lp.LE, 5)])
    with pytest.raises(RuntimeError, match=lp.UNBOUNDED):
        _sweep(program, 0)
    monkeypatch.setattr(lp, "solve", lambda program: pytest.fail("solved"))
    for rows in ([([1], lp.LE, -1), ([1], lp.LE, 5)],
                 [([1], lp.LE, 3), ([1], lp.LE, 0)]):
        with pytest.raises(ValueError, match="sweep needs"):
            _sweep(lp.linear_program([1], rows), 1)


def test_sweep_refuses_a_swept_row_that_is_not_positive():
    # max x1 + x2 + 2 x3 s.t. x2 + x3 <= 2, x3 <= 1, x1 <= 3, x1 <= z.  The
    # swept row misses x2 and x3, so the root, solved with 1 on the other
    # rows, makes x3 = 1 with x2 leaving on a tie; at the real stocks its
    # slack on x3 <= 1 is -1 at z = 0.  The sweep refuses, never a curve.
    program = lp.linear_program([1, 1, 2], [
        ([0, 1, 1], lp.LE, 2), ([0, 0, 1], lp.LE, 1), ([1, 0, 0], lp.LE, 3),
        ([1, 0, 0], lp.LE, 5)])
    with pytest.raises(RuntimeError, match="negative basic variable at z = 0"):
        _sweep(program, 3)


@pytest.mark.parametrize("rhs, k", [
    ([4, 4, 9, 1], 2),  # one right-hand side too many
    ([4, 9], 1),  # one too few
    ([4, 4, 9], -1),  # a swept row below 0
    ([4, 4, 9], 3),  # a swept row past the last
], ids=["long-rhs", "short-rhs", "row-below", "row-past"])
def test_sweep_refuses_malformed_arguments_before_solving(monkeypatch, rhs, k):
    # max x1 + x2 + x3 s.t. x1 + x2 <= 4, x2 + x3 <= 4, x1 + x3 <= 9.
    program = lp.linear_program([1, 1, 1], [
        ([1, 1, 0], lp.LE, 4), ([0, 1, 1], lp.LE, 4), ([1, 0, 1], lp.LE, 9)])
    assert [s.hi for s in _sweep(program, 2)] == [8, 9]
    monkeypatch.setattr(lp, "solve", lambda program: pytest.fail("solved"))
    with pytest.raises(ValueError, match="sweep needs 3 nonnegative right-hand sides"):
        lp.BasisTable(program.objective, program.rows).sweep(rhs, 1, k)


def test_one_table_sweeps_two_rows_as_fresh_tables_do(monkeypatch):
    # max x1 + x2 s.t. x1 + 2 x2 <= b1, 2 x1 + x2 <= b2.  Either row swept
    # from 0 with 6 on the other reaches the basis {x1, x2} at z = 3, where
    # their columns of B^-1 differ: x1 falls as b1 rises, x2 as b2 does.
    # Row 1's root {x2, s1} is the basis that row 0's walk reaches at
    # z = 12, so the shared table finds it known: each basis enters once.
    program = lp.linear_program([1, 1], [([1, 2], lp.LE, 13), ([2, 1], lp.LE, 13)])
    curve = [lp.Segment(0, 3, 0, 1), lp.Segment(3, 12, 3, F(1, 3)), lp.Segment(12, 13, 6, 0)]
    table = lp.BasisTable(program.objective, program.rows)
    entered = []
    real = lp.BasisTable._enter

    def counting(self, t):
        if self is table:
            entered.append(tuple(sorted(t.basis)))
        return real(self, t)

    monkeypatch.setattr(lp.BasisTable, "_enter", counting)
    for k in (0, 1, 0, 1):
        rhs = [13 if i == k else 6 for i in range(2)]
        assert lp.BasisTable(program.objective, program.rows).sweep(rhs, 1, k) == curve
        assert table.sweep(rhs, 1, k) == curve
    assert sorted(table._bases) == [(0, 1), (0, 3), (1, 2)]
    assert sorted(entered) == sorted(table._bases)


def test_a_ge_row_stores_no_artificial_column(monkeypatch):
    # The core program of a five-player game has 30 >= rows and no other;
    # each row's artificial is its negated surplus and is never stored.
    from permit_games import stability
    from permit_games.bankruptcy import CEA
    from permit_games.partition_games import build_game, optimistic_game

    rng = random.Random(6)
    sit = None
    while sit is None:
        sit = support.scarce_situation(rng, n_firms=5)
    _, program = stability._core_program(optimistic_game(build_game(sit, CEA)))
    assert set(program.senses) == {lp.GE} and program.n_rows == 30
    expected = lp.solve(program)
    widths = set()
    real = lp._pivot

    def recording(rows, dens, basis, pr, pc, *rest):
        widths.update(map(len, rows))
        return real(rows, dens, basis, pr, pc, *rest)

    monkeypatch.setattr(lp, "_pivot", recording)
    sol = lp.solve(program)
    # one slot per declared variable | rhs, for the tableau rows and the
    # reduced costs: no surplus is stored while its artificial is basic
    assert widths == {program.n_vars + 1}
    assert sol.status == lp.OPTIMAL
    assert ((sol.objective_value, sol.primal, sol.dual)
            == (expected.objective_value, expected.primal, expected.dual))


def _solve_tracing(program: lp.LinearProgram):
    """``lp.solve``'s solution, its (row, column number) pivots in order and
    the row denominators after each."""
    pivots, dens_after = [], []
    real = lp._pivot

    def recording(rows, dens, basis, pr, pc, *rest):
        real(rows, dens, basis, pr, pc, *rest)
        pivots.append((pr, pc))
        dens_after.append(list(dens))

    lp._pivot = recording
    try:
        return lp.solve(program), pivots, dens_after
    finally:
        lp._pivot = real


def _core_programs_with_fractional_worths():
    """The core programs of seeded 4- and 5-firm derived games under CEA
    whose right-hand sides are not all integers."""
    from permit_games import stability
    from permit_games.bankruptcy import CEA
    from permit_games.partition_games import (
        MINUS, PLUS, build_game, optimistic_game, pessimistic_game, resource_game)

    rng = random.Random(29)
    for n_firms in (4, 4, 4, 5, 5):
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=n_firms)
        game = build_game(sit, CEA)
        for derived in (optimistic_game(game), pessimistic_game(game),
                        resource_game(game, PLUS), resource_game(game, MINUS)):
            program = stability._core_program(derived)[1]
            if any(b.denominator > 1 for b in program.rhs):
                yield program


def test_the_unit_of_b_changes_no_pivot():
    # Every ratio test compares b_i / a_i, which one positive scale of b
    # keeps, so b, 2 b, 7 b and L b pivot alike, L the lcm of b's
    # denominators, and x and c.x scale with b while y does not.  b is
    # pivoted in its unit, so b and L b pivot on the same integers.
    rng = random.Random(29)
    programs = [support.rand_bounded_program(rng) for _ in range(60)]
    programs += _core_programs_with_fractional_worths()
    fractional = 0
    for program in programs:
        unit = math.lcm(*(b.denominator for b in program.rhs))
        fractional += unit > 1
        solution, pivots, dens = _solve_tracing(program)
        for k in (2, 7, unit):
            scaled = dataclasses.replace(program, rhs=tuple(b * k for b in program.rhs))
            other, other_pivots, other_dens = _solve_tracing(scaled)
            assert (other.status, other_pivots) == (solution.status, pivots), program
            if solution.status == lp.OPTIMAL:
                assert other.primal == tuple(x * k for x in solution.primal)
                assert other.dual == solution.dual
                assert other.objective_value == solution.objective_value * k
        assert other_dens == dens, program
    assert fractional >= 40


_REAL_RUN_SIMPLEX = lp._run_simplex
# One pivot (slack out, x in) reaches the optimum x = 5.
ONE_PIVOT = lp.linear_program([1], [([1], lp.LE, 5)])
# Optimum x = (1, 3) with both slacks at zero; entering the second slack
# moves to x = (4, 0), a feasible vertex that is not optimal.
TWO_ROWS = lp.linear_program([1, 2], [([1, 1], lp.LE, 4), ([0, 1], lp.LE, 3)])


def _stop_before_pivoting(t, cost, cost_den, phase1):
    """A broken kernel that declares its starting basis optimal."""
    lp._price_out(t, cost, cost_den)
    return True


def _one_pivot_too_many(t, cost, cost_den, phase1):
    """A broken kernel that, once optimal, enters a non-improving column."""
    bounded = _REAL_RUN_SIMPLEX(t, cost, cost_den, phase1)
    red = t.rows[-1]
    q = next(j for j, label in enumerate(t.labels) if label < t.first_art and red[j] < 0)
    candidates = [i for i in range(len(t.basis)) if t.rows[i][q] > 0]
    row = min(candidates, key=lambda i: F(t.rows[i][-1], t.rows[i][q]))
    lp._exchange(t, row, q, t.labels[q], [r[q] for r in t.rows])
    return bounded


BROKEN_KERNELS = [(_stop_before_pivoting, ONE_PIVOT), (_one_pivot_too_many, TWO_ROWS)]


@pytest.mark.parametrize("kernel, program", BROKEN_KERNELS)
def test_self_check_rejects_a_non_optimal_basis(monkeypatch, kernel, program):
    # Both bases pass primal feasibility, complementary slackness and
    # strong duality; only dual feasibility tells them from an optimum.
    assert lp.solve(program).status == lp.OPTIMAL
    monkeypatch.setattr(lp, "_run_simplex", kernel)
    with pytest.raises(RuntimeError, match="not optimal"):
        lp.solve(program)


# max -x s.t. x >= -1 has its optimum at x = 0.
NEGATIVE_PIVOT = lp.linear_program([-1], [([1], lp.GE, -1)])


def _pivot_on_a_negative_entry(t, cost, cost_den, phase1):
    """A broken kernel that first enters x through its negative entry, so x = -1."""
    lp._exchange(t, 0, 0, 0, [row[0] for row in t.rows])
    return _REAL_RUN_SIMPLEX(t, cost, cost_den, phase1)


def test_self_check_rejects_a_negative_primal(monkeypatch):
    # x = -1 with dual 1 satisfies the row, complementary slackness, strong
    # duality and dual feasibility; only the sign of x gives it away.
    assert lp.solve(NEGATIVE_PIVOT).primal == (F(0),)
    monkeypatch.setattr(lp, "_run_simplex", _pivot_on_a_negative_entry)
    with pytest.raises(RuntimeError, match="negative primal"):
        lp.solve(NEGATIVE_PIVOT)


# max x s.t. x <= 5/2, pivoted as x <= 5 in its unit 1/2.
HALVES = lp.linear_program([1], [([1], lp.LE, F(5, 2))])


def _forget_the_unit(t, cost, cost_den, phase1):
    """A broken kernel that doubles every right-hand side, so the read-out
    returns x = 5 as one that does not divide by the unit 2 would."""
    bounded = _REAL_RUN_SIMPLEX(t, cost, cost_den, phase1)
    for row in t.rows[:-1]:
        row[-1] *= 2
    return bounded


def test_self_check_rejects_a_primal_in_the_pivoted_unit(monkeypatch):
    # x = 5 with dual 1 meets the pivoted row x <= 5, complementary
    # slackness, strong duality and dual feasibility; only the declared
    # right-hand side 5/2 refuses it.
    assert lp.solve(HALVES).primal == (F(5, 2),)
    monkeypatch.setattr(lp, "_run_simplex", _forget_the_unit)
    with pytest.raises(RuntimeError, match="infeasible primal"):
        lp.solve(HALVES)


def test_self_check_holds_under_python_O():
    script = """
import sys
from permit_games import lp
import test_lp
for kernel, program in [*test_lp.BROKEN_KERNELS, (test_lp._forget_the_unit, test_lp.HALVES)]:
    lp._run_simplex = kernel
    try:
        lp.solve(program)
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
    assert len(lines) == 4 and all("not optimal" in line for line in lines[:2])
    assert "infeasible primal" in lines[2]
