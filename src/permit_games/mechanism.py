"""Direct mechanism: firms report permit needs, a rule divides the cap.

Claimants are the blocks of a fixed coalition structure (singletons by
default).  Each block reports a need and ``allocate`` (the serve-or-ration
step of ``bankruptcy``, shared with the partition games) serves the reports
in full under the cap or rations them by the announced rule.  A block's
payoff is its best profit from its own endowment at the allocated quantity,
tax included.  Truthfulness checks run exhaustively over finite report grids,
so they are desk-scale verifications rather than proofs over a continuum.
``dominance_check`` scales the report grids and the cap once per call to
integers over one common denominator and rations each grid profile at most
once, however many claimants read it, with the integer kernel
``bankruptcy.ration``; it values each claimant's award at most once per
check.  ``cells_checked`` still counts every (claimant, opponents,
deviation) cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import bankruptcy
from .bankruptcy import allocate, ration
from .lp import as_fraction
from .partitions import Partition, singleton_partition
from .production import Situation, coalition_value, optimal_demand

ZERO = Fraction(0)

DEFAULT_CELL_LIMIT = 250_000


class GridSizeError(ValueError):
    """The opponent-profile x deviation product exceeds the configured limit."""


@dataclass(frozen=True)
class MechanismConfig:
    rule: str
    structure: Partition
    grids: tuple[tuple[Fraction, ...], ...]
    true_demands: tuple[Fraction, ...]

    @property
    def claimants(self) -> int:
        return len(self.structure)

    @property
    def truthful_profile(self) -> tuple[Fraction, ...]:
        return self.true_demands


def make_config(sit: Situation, rule: str, structure: Optional[Partition] = None,
                grid=None) -> MechanismConfig:
    """Assemble a config; every grid always contains the block's true demand.

    ``grid`` may be None (a small default including the truthful rationing
    water level), one sequence of levels shared by all claimants, or one
    sequence per claimant.
    """
    rule = bankruptcy.check_rule(rule)
    structure = structure or singleton_partition(sit.n_firms)
    blocks = [frozenset(b) for b in structure]
    demands = tuple(optimal_demand(sit, b) for b in blocks)
    if grid is None:
        levels_by_claimant = [_default_levels(sit, demands, i) for i in range(len(blocks))]
    elif grid and isinstance(grid[0], (list, tuple)):
        if len(grid) != len(blocks):
            raise ValueError(f"{len(grid)} grids for {len(blocks)} claimants")
        levels_by_claimant = [list(levels) for levels in grid]
    else:
        levels_by_claimant = [list(grid) for _ in blocks]
    grids = []
    for levels, demand in zip(levels_by_claimant, demands):
        values = {as_fraction(v) for v in levels}
        values.add(demand)
        if any(v < 0 for v in values):
            raise ValueError("report levels must be nonnegative")
        grids.append(tuple(sorted(values)))
    return MechanismConfig(
        rule=rule, structure=structure, grids=tuple(grids), true_demands=demands)


def _default_levels(sit: Situation, demands, i) -> list[Fraction]:
    levels = [ZERO, demands[i] / 2, demands[i], sit.cap]
    if sum(demands, ZERO) > sit.cap:
        # truthful rationing water level, a natural kink of the CEA allocation
        awards = allocate(bankruptcy.CEA, demands, sit.cap)
        levels.append(max(awards))
    return levels


def _report_profile(cfg: MechanismConfig, reports: Sequence) -> tuple[Fraction, ...]:
    profile = tuple(as_fraction(v) for v in reports)
    if len(profile) != cfg.claimants:
        raise ValueError(f"{len(profile)} reports for {cfg.claimants} claimants")
    if any(v < 0 for v in profile):
        raise ValueError("reports must be nonnegative")
    return profile


def mechanism_payoff(sit: Situation, cfg: MechanismConfig,
                     reports: Sequence, claimant: int) -> Fraction:
    """Profit of claimant block ``claimant`` (0-based) under the reported needs."""
    awards = allocate(cfg.rule, _report_profile(cfg, reports), sit.cap)
    return coalition_value(sit, cfg.structure[claimant], awards[claimant])


@dataclass(frozen=True)
class Deviation:
    claimant: int
    opponent_reports: tuple[Fraction, ...]  # full profile with the truth in place
    deviation: Fraction
    truthful_payoff: Fraction
    deviant_payoff: Fraction


@dataclass(frozen=True)
class DominanceReport:
    truthful_dominant: bool
    cells_checked: int
    counterexample: Optional[Deviation] = None


def dominance_check(sit: Situation, cfg: MechanismConfig,
                    cell_limit: int = DEFAULT_CELL_LIMIT) -> DominanceReport:
    """Is truth-telling weakly best against every grid profile of the others?

    Exhaustive over the grid product; the first counterexample in claimant /
    opponent / deviation order is returned.  ``cells_checked`` counts the
    (claimant, opponent profile, deviation) cells visited, the truthful cell
    included.  The grids and the cap are scaled once to integers over ``lcm``
    of their denominators.  Each report profile, at its position in the grid
    product, is rationed at most once, on first touch, by ``ration`` in those
    units, and every claimant reads its award from that one (numerators,
    denominator) result.  Each claimant's award is valued once per check,
    keyed on its reduced numerator and denominator; payoffs are kept as
    (numerator, denominator) and compared by cross-multiplication.  Both
    tables live only for this call; Fractions are built only to value an
    award and for the counterexample.
    """
    k = cfg.claimants
    sizes = [len(g) for g in cfg.grids]
    cells = k * math.prod(sizes)
    if cells > cell_limit:
        raise GridSizeError(
            f"{cells} payoff cells exceed the limit of {cell_limit}")
    scale = math.lcm(sit.cap.denominator,
                     *(v.denominator for g in cfg.grids for v in g))
    cap = sit.cap.numerator * (scale // sit.cap.denominator)
    units = [tuple(v.numerator * (scale // v.denominator) for v in g) for g in cfg.grids]
    # A profile's grid indices x_j sit at position sum_j x_j * strides[j].
    strides = [math.prod(sizes[j + 1:]) for j in range(k)]
    awards_at: list[Optional[tuple[tuple[int, ...], int]]] = [None] * math.prod(sizes)
    values: list[dict[tuple[int, int], tuple[int, int]]] = [{} for _ in range(k)]

    def payoff(at: int, i: int) -> tuple[int, int]:
        rationed = awards_at[at]
        if rationed is None:
            profile = [u[at // s % len(u)] for u, s in zip(units, strides)]
            nums, den = ration(cfg.rule, profile, cap)
            rationed = awards_at[at] = (tuple(nums), den)
        nums, den = rationed
        award = nums[i]
        common = math.gcd(award, den)
        key = (award // common, den // common)
        value = values[i].get(key)
        if value is None:
            value = coalition_value(sit, cfg.structure[i], Fraction(award, den * scale))
            value = values[i][key] = (value.numerator, value.denominator)
        return value

    checked = 0
    for i in range(k):
        truth = cfg.grids[i].index(cfg.true_demands[i])  # on every grid, by make_config
        ranges = [range(0, n * s, s) for n, s in zip(sizes, strides)]
        ranges[i] = (truth * strides[i],)
        shifts = [(d - truth) * strides[i] for d in range(sizes[i])]
        for base in itertools.product(*ranges):
            at = sum(base)
            truthful, truthful_den = payoff(at, i)
            for d, shift in enumerate(shifts):
                checked += 1
                if d == truth:
                    continue  # the truthful payoff, computed above
                deviant, deviant_den = payoff(at + shift, i)
                if deviant * truthful_den > truthful * deviant_den:
                    return DominanceReport(
                        truthful_dominant=False, cells_checked=checked,
                        counterexample=Deviation(
                            claimant=i,
                            opponent_reports=tuple(
                                g[x // s] for g, x, s in zip(cfg.grids, base, strides)),
                            deviation=cfg.grids[i][d],
                            truthful_payoff=Fraction(truthful, truthful_den),
                            deviant_payoff=Fraction(deviant, deviant_den)))
    return DominanceReport(truthful_dominant=True, cells_checked=checked)


@dataclass(frozen=True)
class EquilibriumReport:
    holds: bool
    improving: Optional[Deviation] = None


def equilibrium_check(sit: Situation, cfg: MechanismConfig,
                      profile: Sequence) -> EquilibriumReport:
    """No claimant gains by a unilateral grid deviation from ``profile``."""
    base = _report_profile(cfg, profile)
    base_awards = allocate(cfg.rule, base, sit.cap)
    for i in range(cfg.claimants):
        current = coalition_value(sit, cfg.structure[i], base_awards[i])
        trial = list(base)
        for deviation in cfg.grids[i]:
            if deviation == base[i]:
                continue  # the current payoff, computed above
            trial[i] = deviation
            payoff = mechanism_payoff(sit, cfg, trial, i)
            if payoff > current:
                return EquilibriumReport(
                    holds=False,
                    improving=Deviation(
                        claimant=i, opponent_reports=base, deviation=deviation,
                        truthful_payoff=current, deviant_payoff=payoff))
    return EquilibriumReport(holds=True)
