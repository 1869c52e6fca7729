"""Linear production economies with taxed, capped emission permits.

A situation bundles the shared technology matrix (last row = permits consumed
per unit of each good), per-firm resource endowments, market prices, the
per-permit tax and the emission cap.  Coalitions pool endowments; their
optimal profits and permit demands come from small exact LPs, which each
situation memoises on itself (not a field), so they are freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .lp import LE, EQ, LpSolution, as_fraction, linear_program, solve

ZERO = Fraction(0)


class SituationError(ValueError):
    """A structural condition on the economy is violated."""


@dataclass(frozen=True)
class Situation:
    production: tuple[tuple[Fraction, ...], ...]
    endowments: tuple[tuple[Fraction, ...], ...]
    prices: tuple[Fraction, ...]
    tax: Fraction
    cap: Fraction

    @classmethod
    def create(cls, production, endowments, prices, tax, cap) -> "Situation":
        """Convert exact numeric literals and validate."""
        return cls(
            production=tuple(tuple(as_fraction(a) for a in row) for row in production),
            endowments=tuple(tuple(as_fraction(b) for b in row) for row in endowments),
            prices=tuple(as_fraction(p) for p in prices),
            tax=as_fraction(tax),
            cap=as_fraction(cap),
        )

    def __post_init__(self):
        if len(self.production) < 2:
            raise SituationError(
                "production matrix needs at least one resource row plus the permit row")
        g = len(self.production[0])
        if g == 0 or len(self.prices) != g:
            raise SituationError(
                f"prices length {len(self.prices)} must equal the number of goods {g}")
        for t, row in enumerate(self.production):
            if len(row) != g:
                raise SituationError(f"production row {t + 1} has {len(row)} entries, expected {g}")
            if any(a < 0 for a in row):
                raise SituationError(f"production row {t + 1} has a negative input requirement")
        if any(a <= 0 for a in self.permit_row):
            bad = next(j for j, a in enumerate(self.permit_row) if a <= 0)
            raise SituationError(
                f"permit requirement must be positive for every good; good {bad + 1} has "
                f"{self.permit_row[bad]}")
        if not any(all(a > 0 for a in row) for row in self.resource_rows):
            raise SituationError("some resource must be required by every good")
        q = len(self.resource_rows)
        if len(self.endowments) != q:
            raise SituationError(
                f"endowment matrix has {len(self.endowments)} rows, expected {q} resources")
        n = len(self.endowments[0]) if self.endowments else 0
        if n == 0:
            raise SituationError("at least one firm is required")
        for t, row in enumerate(self.endowments):
            if len(row) != n:
                raise SituationError(f"endowment row {t + 1} has {len(row)} entries, expected {n}")
            if any(b < 0 for b in row):
                raise SituationError(f"endowment row {t + 1} has a negative stock")
            if all(b == 0 for b in row):
                raise SituationError(f"resource {t + 1} is held by no firm")
        if self.tax <= 0:
            raise SituationError(f"tax must be positive (got {self.tax})")
        if self.cap <= 0:
            raise SituationError(f"cap must be positive (got {self.cap})")
        for j, p in enumerate(self.prices):
            if p <= self.permit_row[j] * self.tax:
                raise SituationError(
                    f"price condition p_j > permit-use * tax violated for good {j + 1}: "
                    f"{p} <= {self.permit_row[j]} * {self.tax}")

    @property
    def n_firms(self) -> int:
        return len(self.endowments[0])

    @property
    def n_goods(self) -> int:
        return len(self.prices)

    @property
    def n_resources(self) -> int:
        return len(self.endowments)

    @property
    def permit_row(self) -> tuple[Fraction, ...]:
        return self.production[-1]

    @property
    def resource_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.production[:-1]

    def firms(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_firms + 1))

    def endowment(self, firm: int) -> tuple[Fraction, ...]:
        return tuple(row[firm - 1] for row in self.endowments)

    def coalition_endowment(self, members: Iterable[int]) -> tuple[Fraction, ...]:
        fs = self.coalition(members)
        return tuple(sum((row[i - 1] for i in fs), ZERO) for row in self.endowments)

    def coalition(self, members: Iterable[int]) -> frozenset[int]:
        fs = frozenset(members)
        if not fs:
            raise SituationError("a coalition must be nonempty")
        if not fs <= set(self.firms()):
            raise SituationError(f"unknown firm in coalition {sorted(fs)}")
        return fs

    @cached_property
    def _memo(self) -> dict:
        """LP results: revenues keyed (coalition, permits), demands by coalition."""
        return {}


def _revenue_program(sit: Situation, fs: frozenset[int], permits: Fraction):
    stocks = sit.coalition_endowment(fs)
    constraints = [(row, LE, stock) for row, stock in zip(sit.resource_rows, stocks)]
    constraints.append((sit.permit_row, LE, permits))
    return linear_program(sit.prices, constraints)


def production_revenue(sit: Situation, members: Iterable[int], permits) -> Fraction:
    """Best sales revenue of the coalition when holding ``permits``, before tax."""
    z = as_fraction(permits)
    if z < 0:
        raise SituationError(f"permit quantity must be nonnegative (got {z})")
    key = (sit.coalition(members), z)
    revenue = sit._memo.get(key)
    if revenue is None:
        sol = solve(_revenue_program(sit, *key))
        if sol.status != "optimal":  # permits row is positive, so always bounded
            raise RuntimeError(f"revenue program unexpectedly {sol.status}")
        revenue = sit._memo[key] = sol.objective_value
    return revenue


def coalition_value(sit: Situation, members: Iterable[int], permits) -> Fraction:
    """Best profit of the coalition with a fixed permit quantity, tax included."""
    z = as_fraction(permits)
    return production_revenue(sit, members, z) - sit.tax * z


def grand_coalition_dual(sit: Situation) -> LpSolution:
    """Solve the pooled program at the cap with the permit quantity fixed.

    The returned dual has one multiplier per resource plus one for the permit
    row; the objective value excludes the (constant) tax bill on the cap.
    """
    return solve(_revenue_program(sit, sit.coalition(sit.firms()), sit.cap))


def _demand(sit: Situation, fs: frozenset[int]) -> Fraction:
    stocks = sit.coalition_endowment(fs)
    g = sit.n_goods
    # Stage 1: profit optimum with the permit quantity as a decision variable.
    objective = list(sit.prices) + [-sit.tax]
    constraints = [(list(row) + [ZERO], LE, stock)
                   for row, stock in zip(sit.resource_rows, stocks)]
    constraints.append((list(sit.permit_row) + [Fraction(-1)], LE, ZERO))
    stage1 = solve(linear_program(objective, constraints))
    if stage1.status != "optimal":
        raise RuntimeError(f"demand program unexpectedly {stage1.status}")
    best = stage1.objective_value
    # Stage 2: least permit quantity that still attains that profit.
    minimize_z = [ZERO] * g + [Fraction(-1)]
    constraints.append((objective, EQ, best))
    stage2 = solve(linear_program(minimize_z, constraints))
    if stage2.status != "optimal":
        raise RuntimeError(f"demand refinement unexpectedly {stage2.status}")
    return stage2.primal[g]


def optimal_demand(sit: Situation, members: Iterable[int]) -> Fraction:
    """Least permit quantity at which the coalition's profit peaks."""
    fs = sit.coalition(members)
    demand = sit._memo.get(fs)
    if demand is None:
        demand = sit._memo[fs] = _demand(sit, fs)
    return demand
