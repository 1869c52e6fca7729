"""Direct mechanism: firms report permit needs, a rule divides the cap.

Claimants are the blocks of a fixed coalition structure (singletons by
default).  Each block reports a need and ``allocate`` (the serve-or-ration
step of ``bankruptcy``, shared with the partition games) serves the reports
in full under the cap or rations them by the announced rule.  A block's
payoff is its best profit from its own endowment at the allocated quantity,
tax included.  Truthfulness checks run exhaustively over finite report grids,
so they are desk-scale verifications rather than proofs over a continuum.

The checks lean on one fact: a claimant's profit is concave in its permits
and its true demand d is the least maximiser, so the profit is single-peaked
at d.  Two rules follow from the integer awards alone.  (a) A claimant
awarded d has the best profit there is and cannot gain.  (b) A claimant
rationed to a < d cannot gain from a deviation awarded at most a.  Only a
deviation with a larger award is valued, so under CEA no award is valued at
all.  Neither rule assumes that the rule is claims monotonic.
``dominance_check`` scales the report grids and the cap once per call to
integers over one common denominator and rations each grid profile at most
once, however many claimants read it, with the integer kernel
``bankruptcy.ration``.  ``cells_checked`` still counts every (claimant,
opponents, deviation) cell, decided or skipped.
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


def _check_config(sit: Situation, cfg: MechanismConfig) -> None:
    """Refuse a config whose true demands are not this economy's, or whose
    grids hold a negative report: the checks skip cells on the strength of
    each block's profit peaking at its demand, which says nothing of negative
    awards.  Explicit checks, so they also run under ``python -O``."""
    if any(v < 0 for g in cfg.grids for v in g):
        raise ValueError("report levels must be nonnegative")
    demands = tuple(optimal_demand(sit, block) for block in cfg.structure)
    if cfg.true_demands != demands:
        raise ValueError(
            f"true demands ({', '.join(map(str, cfg.true_demands))}) are not the "
            f"optimal demands ({', '.join(map(str, demands))}) of this economy's claimants")


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
    opponent / deviation order is returned.  ``cells_checked`` counts every
    (claimant, opponent profile, deviation) cell, the truthful cell included,
    whether a payoff decided it or a rule below skipped it.  A claimant's
    profit v(z) is concave and its true demand d is the least maximiser, so v
    is single-peaked at d, and most cells are decided by integer awards alone:

    (a) a claimant whose truthful award is its demand already has the best
        profit there is, so its whole row of deviations is checked at once;
    (b) a claimant rationed to a < d cannot gain from a deviation whose award
        is at most a, because v does not fall on [0, d]; only a larger award
        is valued, and the truthful award then too, once.

    Under CEA a larger report never lifts a rationed claimant above the water
    level, so no award is valued at all.  Neither rule assumes anything of the
    rule's awards beyond the rationed truthful one, which must not exceed its
    claim (``RuntimeError``); the true demands must be this economy's and the
    report levels nonnegative (``ValueError``).

    The grids and the cap are scaled once to integers over ``lcm`` of their
    denominators.  Each report profile, at its position in the grid product,
    is rationed at most once, on first touch, by ``ration`` in those units,
    and every claimant reads its award from that one (numerators,
    denominator) result.  Each claimant's award is valued at most once per
    check, keyed on its reduced numerator and denominator; payoffs are kept
    as (numerator, denominator) and compared by cross-multiplication.  Both
    tables live only for this call; Fractions are built only to value an
    award and for the counterexample.
    """
    k = cfg.claimants
    sizes = [len(g) for g in cfg.grids]
    cells = k * math.prod(sizes)
    if cells > cell_limit:
        raise GridSizeError(
            f"{cells} payoff cells exceed the limit of {cell_limit}")
    _check_config(sit, cfg)
    scale = math.lcm(sit.cap.denominator,
                     *(v.denominator for g in cfg.grids for v in g))
    cap = sit.cap.numerator * (scale // sit.cap.denominator)
    units = [tuple(v.numerator * (scale // v.denominator) for v in g) for g in cfg.grids]
    # A profile's grid indices x_j sit at position sum_j x_j * strides[j].
    strides = [math.prod(sizes[j + 1:]) for j in range(k)]
    awards_at: list[Optional[tuple[Sequence[int], int]]] = [None] * math.prod(sizes)
    values: list[dict[tuple[int, int], tuple[int, int]]] = [{} for _ in range(k)]

    def value(i: int, award: int, den: int) -> tuple[int, int]:
        common = math.gcd(award, den)
        key = (award // common, den // common)
        found = values[i].get(key)
        if found is None:
            found = coalition_value(sit, cfg.structure[i], Fraction(award, den * scale))
            found = values[i][key] = (found.numerator, found.denominator)
        return found

    checked = 0
    for i in range(k):
        truth = cfg.grids[i].index(cfg.true_demands[i])  # on every grid, by make_config
        own = units[i]
        demand = own[truth]
        ranges = [range(0, n * s, s) for n, s in zip(sizes, strides)]
        ranges[i] = (truth * strides[i],)
        reports = list(units)
        reports[i] = (demand,)
        shifts = [(d - truth) * strides[i] for d in range(sizes[i])]
        for base, claims in zip(itertools.product(*ranges), itertools.product(*reports)):
            at = sum(base)
            rationed = awards_at[at]
            if rationed is None:
                rationed = awards_at[at] = ration(cfg.rule, claims, cap)
            nums, den = rationed
            award = nums[i]
            if award == demand * den:  # (a) served its demand in full
                checked += sizes[i]
                continue
            if award > demand * den:
                raise RuntimeError(
                    f"{cfg.rule} awards claimant {i} {Fraction(award, den * scale)}, "
                    f"more than its claim {cfg.true_demands[i]}")
            truthful = None
            for d, shift in enumerate(shifts):
                if d == truth:
                    continue
                rationed = awards_at[at + shift]
                if rationed is None:
                    profile = list(claims)
                    profile[i] = own[d]
                    rationed = awards_at[at + shift] = ration(cfg.rule, profile, cap)
                deviant_nums, deviant_den = rationed
                if deviant_nums[i] * den <= award * deviant_den:
                    continue  # (b) no more than the truthful award
                if truthful is None:
                    truthful = value(i, award, den)
                deviant = value(i, deviant_nums[i], deviant_den)
                if deviant[0] * truthful[1] > truthful[0] * deviant[1]:
                    return DominanceReport(
                        truthful_dominant=False, cells_checked=checked + d + 1,
                        counterexample=Deviation(
                            claimant=i,
                            opponent_reports=tuple(
                                g[x // s] for g, x, s in zip(cfg.grids, base, strides)),
                            deviation=cfg.grids[i][d],
                            truthful_payoff=Fraction(*truthful),
                            deviant_payoff=Fraction(*deviant)))
            checked += sizes[i]
    return DominanceReport(truthful_dominant=True, cells_checked=checked)


@dataclass(frozen=True)
class EquilibriumReport:
    holds: bool
    improving: Optional[Deviation] = None


def equilibrium_check(sit: Situation, cfg: MechanismConfig,
                      profile: Sequence) -> EquilibriumReport:
    """No claimant gains by a unilateral grid deviation from ``profile``.

    The rules of ``dominance_check`` apply to the current awards: a claimant
    awarded its true demand is skipped, and one awarded less only values
    deviations that raise its award."""
    _check_config(sit, cfg)
    base = _report_profile(cfg, profile)
    base_awards = allocate(cfg.rule, base, sit.cap)
    for i, (award, demand) in enumerate(zip(base_awards, cfg.true_demands)):
        if award == demand:
            continue  # the best profit there is
        current = None
        trial = list(base)
        for deviation in cfg.grids[i]:
            if deviation == base[i]:
                continue  # the current payoff
            trial[i] = deviation
            deviant_award = allocate(cfg.rule, trial, sit.cap)[i]
            if award < demand and deviant_award <= award:
                continue  # profit does not fall on [0, demand]
            if current is None:
                current = coalition_value(sit, cfg.structure[i], award)
            payoff = coalition_value(sit, cfg.structure[i], deviant_award)
            if payoff > current:
                return EquilibriumReport(
                    holds=False,
                    improving=Deviation(
                        claimant=i, opponent_reports=base, deviation=deviation,
                        truthful_payoff=current, deviant_payoff=payoff))
    return EquilibriumReport(holds=True)
