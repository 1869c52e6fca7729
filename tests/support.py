"""Shared helpers for the test suite: oracles and random instance generators.

The oracles here are deliberately independent of the library's solver paths
(straight Gaussian elimination and exhaustive enumeration) so they can act as
ground truth.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from permit_games import lp
from permit_games.games import CharacteristicGame
from permit_games.production import Situation

F = Fraction


def gaussian_solve(matrix, rhs):
    """Solve a square rational system exactly; None if singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [a / pivot for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def enumerate_vertices(program: lp.LinearProgram):
    """All basic feasible points of a program with default bounds (x >= 0)."""
    n = program.n_vars
    constraints = []  # (coeffs, sense, rhs) with bounds included
    for row, sense, b in zip(program.rows, program.senses, program.rhs):
        constraints.append((list(row), sense, b))
    for j in range(n):
        e = [F(0)] * n
        e[j] = F(1)
        constraints.append((e, lp.GE, F(0)))

    def feasible(x):
        for coeffs, sense, b in constraints:
            lhs = sum(a * v for a, v in zip(coeffs, x))
            if sense == lp.LE and lhs > b:
                return False
            if sense == lp.GE and lhs < b:
                return False
            if sense == lp.EQ and lhs != b:
                return False
        return True

    vertices = []
    for combo in itertools.combinations(range(len(constraints)), n):
        matrix = [constraints[k][0] for k in combo]
        rhs = [constraints[k][2] for k in combo]
        x = gaussian_solve(matrix, rhs)
        if x is not None and feasible(x):
            vertices.append(tuple(x))
    return vertices


def oracle_optimum(program: lp.LinearProgram):
    """Max objective over all basic feasible points; None when infeasible."""
    vertices = enumerate_vertices(program)
    if not vertices:
        return None
    return max(
        sum(c * v for c, v in zip(program.objective, x)) for x in vertices)


def rand_fraction(rng: random.Random, lo=0, hi=9, denominators=(1, 1, 2, 3)):
    return F(rng.randint(lo, hi), rng.choice(denominators))


def rand_bounded_program(rng: random.Random, max_vars=4, max_rows=4):
    """Random LP with a box row so the feasible set is bounded when nonempty."""
    n = rng.randint(2, max_vars)
    m = rng.randint(1, max_rows)
    objective = [F(rng.randint(-6, 9)) for _ in range(n)]
    constraints = []
    for _ in range(m):
        coeffs = [rand_fraction(rng, -4, 6) for _ in range(n)]
        sense = rng.choice([lp.LE, lp.LE, lp.GE, lp.EQ])
        rhs = rand_fraction(rng, -5, 12)
        constraints.append((coeffs, sense, rhs))
    constraints.append(([F(1)] * n, lp.LE, F(rng.randint(5, 20))))
    return lp.linear_program(objective, constraints)


def rand_situation(rng: random.Random, n_firms=None, n_goods=None, n_resources=None):
    """Random situation satisfying every structural condition; cap is provisional."""
    n = n_firms or rng.randint(2, 4)
    g = n_goods or rng.randint(1, 3)
    q = n_resources or rng.randint(1, 3)
    full_row = rng.randrange(q)  # some resource is needed by every good
    production = []
    for t in range(q):
        row = []
        for _ in range(g):
            if t == full_row:
                row.append(rand_fraction(rng, 1, 5))
            else:
                row.append(rand_fraction(rng, 0, 5))
        production.append(row)
    production.append([rand_fraction(rng, 1, 4) for _ in range(g)])
    endowments = []
    for t in range(q):
        row = [rand_fraction(rng, 0, 12) for _ in range(n)]
        if all(v == 0 for v in row):
            row[rng.randrange(n)] = rand_fraction(rng, 1, 12)
        endowments.append(row)
    tax = rand_fraction(rng, 1, 5)
    prices = [production[q][j] * tax + rand_fraction(rng, 1, 8) for j in range(g)]
    return Situation.create(
        production=production,
        endowments=endowments,
        prices=prices,
        tax=tax,
        cap=F(1),
    )


def scarce_situation(rng: random.Random, **kwargs):
    """Random situation rebuilt so that 0 < cap < d_N; None if degenerate."""
    from permit_games.production import optimal_demand
    import dataclasses

    sit = rand_situation(rng, **kwargs)
    everyone = range(1, sit.n_firms + 1)
    d_grand = optimal_demand(sit, everyone)
    if d_grand <= 0:
        return None
    share = F(rng.randint(1, 8), 9)
    return dataclasses.replace(sit, cap=d_grand * share)


def merged_situation(sit: Situation, structure) -> Situation:
    """The economy whose firm j holds the summed endowments of block j of
    ``structure``: the blocks report as single firms."""
    import dataclasses

    return dataclasses.replace(sit, endowments=tuple(
        zip(*(sit.coalition_endowment(block) for block in structure))))


class Rationing(NamedTuple):
    """A rationing instance in ``allocate``'s argument order."""

    claims: tuple[Fraction, ...]
    estate: Fraction


def rand_bankruptcy_problem(rng: random.Random, max_claimants=6) -> Rationing:
    n = rng.randint(1, max_claimants)
    claims = tuple(F(rng.randint(0, 20), rng.choice((1, 1, 2))) for _ in range(n))
    total = sum(claims)
    if total == 0:
        estate = F(0)
    else:
        estate = total * F(rng.randint(0, 10), 10)
    return Rationing(claims, estate)


def bankruptcy_game(problem: Rationing) -> CharacteristicGame:
    """v(S) = max(estate - sum of outside claims, 0), over positional players 1..k."""
    k = len(problem.claims)
    total = sum(problem.claims, F(0))
    players = tuple(range(1, k + 1))
    values = {}
    for mask in range(1, 1 << k):
        inside = frozenset(i + 1 for i in range(k) if mask & (1 << i))
        outside = total - sum((problem.claims[i - 1] for i in inside), F(0))
        values[inside] = max(problem.estate - outside, F(0))
    return CharacteristicGame(players=players, values=values)
