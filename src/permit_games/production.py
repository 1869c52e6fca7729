"""Linear production economies with taxed, capped emission permits.

A situation bundles the shared technology matrix (last row = permits consumed
per unit of each good), per-firm resource endowments, market prices, the
per-permit tax and the emission cap.  Coalitions pool endowments.

Everything a coalition S earns comes from one certified revenue curve per
coalition: R_S(z), its best sales revenue holding z permits, is concave and
piecewise linear in z.  Every coalition's revenue program has the same
matrix and prices and differs only in its right-hand side, the pooled
stocks and the permits, so a situation keeps one ``lp.BasisTable`` for all
of them.  A curve is that table's sweep of the permit row up from z = 0 to
a level where it is slack.  Every permit use is positive, so every sweep
starts at one root basis, the table's only LP, and follows the pivots that
earlier coalitions took.  Each segment is certified before it is kept.  A
revenue or a profit is read off the segment holding z as one integer
numerator over one denominator, so each costs one Fraction, and the demand
is the least maximiser of R_S(z) - tax * z.
Each situation keeps its curves, its table and the integer stock data the
right-hand sides come from on itself (not as fields), so they are freed
with it; the table goes as soon as every coalition has its curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable

from .lp import (
    LE, BasisTable, LpSolution, Segment, _integer_row, as_fraction, linear_program, solve)

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
        if not fs <= self._firm_set:
            raise SituationError(f"unknown firm in coalition {sorted(fs)}")
        return fs

    @cached_property
    def _firm_set(self) -> frozenset[int]:
        return frozenset(self.firms())

    @cached_property
    def _memo(self) -> dict:
        """Revenue curves (certified segments) keyed by coalition."""
        return {}

    @cached_property
    def _bases(self) -> BasisTable:
        """The revenue program's certified bases, which every coalition's
        curve shares: the programs differ only in their right-hand sides.
        ``_curve`` drops the table once every coalition has its curve."""
        return BasisTable(self.prices, self.production)

    @cached_property
    def _stock_units(self) -> tuple:
        """The integers a coalition's right-hand sides are computed from:
        resource t's stock of each firm as a numerator over d_t, for each
        good j the weights w_tj with pi_j / (a_tj d_t) == w_tj / den for its
        permit use pi_j (0 where a_tj is 0), then den, the factors that
        bring each d_t and den to their lcm, and the lcm."""
        stocks, dens = zip(*map(_integer_row, self.endowments))
        ratios = [[pi / (a * d) if a else ZERO for a, d in zip(column, dens)]
                  for pi, *column in zip(self.permit_row, *self.resource_rows)]
        den = lcm(*(w.denominator for column in ratios for w in column))
        weights = [[w.numerator * (den // w.denominator) for w in column]
                   for column in ratios]
        common = lcm(*dens, den)
        return stocks, weights, den, [common // d for d in (*dens, den)], common


def _revenue_program(sit: Situation, stocks: tuple[Fraction, ...], permits: Fraction):
    constraints = [(row, LE, stock) for row, stock in zip(sit.resource_rows, stocks)]
    constraints.append((sit.permit_row, LE, permits))
    return linear_program(sit.prices, constraints)


def _curve(sit: Situation, fs: frozenset[int]) -> list[Segment]:
    """The coalition's certified revenue segments in increasing permits;
    the last one holds for every larger quantity."""
    curve = sit._memo.get(fs)
    if curve is None:
        stocks, weights, den, scales, common = sit._stock_units
        sums = [sum(row[i - 1] for i in fs) for row in stocks]
        # No plan makes more of good j than min_t stock_t / a_tj, and some
        # resource is needed by every good, so the permit row is slack at
        # top = 1 + sum_j pi_j min_t stock_t / a_tj.
        top = den + sum(min(s * w for s, w in zip(sums, column) if w) for column in weights)
        rhs = [v * scale for v, scale in zip((*sums, top), scales)]
        curve = sit._memo[fs] = sit._bases.sweep(rhs, common, sit.n_resources)
        if len(sit._memo) == 2 ** sit.n_firms - 1:
            del sit.__dict__["_bases"]  # every coalition has its curve
    return curve


def production_revenue(sit: Situation, members: Iterable[int], permits) -> Fraction:
    """Best sales revenue of the coalition when holding ``permits``, before tax."""
    return _on_curve(sit, members, permits, ZERO)


def coalition_value(sit: Situation, members: Iterable[int], permits) -> Fraction:
    """Best profit of the coalition with a fixed permit quantity, tax included."""
    return _on_curve(sit, members, permits, sit.tax)


def _on_curve(sit: Situation, members: Iterable[int], permits, tax: Fraction) -> Fraction:
    """R_S(z) - tax * z at z = ``permits`` on the segment holding z, as
    value + slope * (z - lo) - tax * z: one integer numerator over one
    denominator, and one Fraction."""
    z = as_fraction(permits)
    zn, zd = z.numerator, z.denominator
    if zn < 0:
        raise SituationError(f"permit quantity must be nonnegative (got {z})")
    for segment in reversed(_curve(sit, sit.coalition(members))):
        lo = segment.lo  # the last segment with lo <= z; the first has lo = 0
        ln, ld = lo.numerator, lo.denominator
        if ln * zd <= zn * ld:
            break
    value, slope = segment.value, segment.slope
    vd, sd, td = value.denominator, slope.denominator, tax.denominator
    # slope * (z - lo) is over sd * ld * zd, tax * z over td * zd
    return Fraction(
        (value.numerator * sd * ld * zd + slope.numerator * (zn * ld - ln * zd) * vd) * td
        - tax.numerator * zn * vd * sd * ld,
        vd * sd * ld * zd * td)


def grand_coalition_dual(sit: Situation) -> LpSolution:
    """Solve the pooled program at the cap with the permit quantity fixed.

    The returned dual has one multiplier per resource plus one for the permit
    row; the objective value excludes the (constant) tax bill on the cap.
    """
    return solve(_revenue_program(sit, sit.coalition_endowment(sit.firms()), sit.cap))


def optimal_demand(sit: Situation, members: Iterable[int]) -> Fraction:
    """Least permit quantity at which the coalition's profit peaks: the lower
    end of the first segment whose revenue rises no faster than the tax."""
    return next(s.lo for s in _curve(sit, sit.coalition(members)) if s.slope <= sit.tax)
