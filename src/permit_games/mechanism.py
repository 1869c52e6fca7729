"""Direct mechanism: firms report permit needs, a rule divides the cap.

Claimants are the economy's firms: claimant i is firm i + 1.  A coalition
that reports as one claimant is the firm of the merged economy, whose
endowments are its members' summed.  Each firm reports a need and
``allocate`` (the serve-or-ration step of ``bankruptcy``, shared with the
partition games) serves the reports in full under the cap or rations them
by the announced rule.  A firm's payoff is its best profit from its own
endowment at the allocated quantity, tax included.  Truthfulness checks run
exhaustively over finite report grids, so they are desk-scale verifications
rather than proofs over a continuum.

Both checks, ``dominance_check`` and ``equilibrium_check``, run one kernel
over (claimant, reference profile, deviation) cells, in integer units.  It
leans on one fact: a claimant's profit is concave in its permits and its
true demand d is the least maximiser, so the profit is single-peaked at d.
Two rules follow from the integer awards alone.  (a) A claimant awarded d
has the best profit there is and cannot gain.  (b) A claimant rationed to
a < d cannot gain from a deviation awarded at most a.  Only a deviation with
a larger award is valued, so under CEA no award is valued at all.  (c) The
rules are anonymous (Thomson, Math. Social Sciences 45, 2003): an award
depends only on its own claim and the multiset of all claims, so each
multiset is rationed once and a claimant's row that repeats an earlier
multiset is already decided.  None of (a)-(c) assumes claims monotonicity.
Both checks refuse more than ``DEFAULT_CELL_LIMIT`` payoff cells before
they ration anything, and replay any counterexample before returning it.

A ``MechanismConfig`` holds its economy and derives the true demands from
it, so constructing one vets it once; the checks only confirm that they are
handed the config's own economy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import bankruptcy
from .bankruptcy import allocate, ration
from .lp import as_fraction
from .production import Situation, coalition_value, optimal_demand

ZERO = Fraction(0)

DEFAULT_CELL_LIMIT = 250_000


class GridSizeError(ValueError):
    """Claimants x the grid product exceed ``DEFAULT_CELL_LIMIT`` cells."""


@dataclass(frozen=True)
class MechanismConfig:
    """One report grid per firm of ``situation``; claimant i is firm i + 1.

    Construction vets the config once, also under ``python -O``: it refuses
    an unknown rule, a grid count other than the firm count and a negative
    level, whose award the skip rules cannot judge.  It sets ``true_demands``
    to the firms' optimal demands and adds each to its firm's grid, which is
    read once and kept sorted without repeats.  ``grids`` None stands for a
    small default per firm including the truthful rationing water level.
    """

    situation: Situation = field(repr=False)
    rule: str
    grids: Optional[tuple[tuple[Fraction, ...], ...]]
    true_demands: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self):
        sit = self.situation
        object.__setattr__(self, "rule", bankruptcy.check_rule(self.rule))
        demands = tuple(optimal_demand(sit, [i + 1]) for i in range(sit.n_firms))
        grids = (_default_grids(sit, demands) if self.grids is None
                 else [tuple(map(as_fraction, g)) for g in self.grids])
        if len(grids) != sit.n_firms:
            raise ValueError(f"{len(grids)} report grids for {sit.n_firms} firms")
        if any(v < 0 for g in grids for v in g):
            raise ValueError("report levels must be nonnegative")
        object.__setattr__(self, "true_demands", demands)
        object.__setattr__(self, "grids", tuple(
            tuple(sorted({*g, d})) for g, d in zip(grids, demands)))

    @property
    def claimants(self) -> int:
        return len(self.true_demands)

    @property
    def truthful_profile(self) -> tuple[Fraction, ...]:
        return self.true_demands


def _default_grids(sit: Situation, demands) -> list[tuple[Fraction, ...]]:
    shared = [ZERO, sit.cap]
    if sum(demands, ZERO) > sit.cap:
        # truthful rationing water level, a natural kink of the CEA allocation
        shared.append(max(allocate(bankruptcy.CEA, demands, sit.cap)))
    return [(*shared, d / 2) for d in demands]


def make_config(sit: Situation, rule: str, grid=None) -> MechanismConfig:
    """The config of ``sit`` under ``rule`` with one grid for every firm:
    ``grid``, one iterable of levels read once, or for None the default."""
    return MechanismConfig(sit, rule, None if grid is None else (tuple(grid),) * sit.n_firms)


def _report_profile(cfg: MechanismConfig, reports: Sequence) -> tuple[Fraction, ...]:
    profile = tuple(as_fraction(v) for v in reports)
    if len(profile) != cfg.claimants:
        raise ValueError(f"{len(profile)} reports for {cfg.claimants} claimants")
    if any(v < 0 for v in profile):
        raise ValueError("reports must be nonnegative")
    return profile


def _same_economy(sit: Situation, cfg: MechanismConfig) -> None:
    """Refuse (``ValueError``) a ``sit`` other than the config's economy."""
    if sit is not cfg.situation and sit != cfg.situation:
        raise ValueError("the config was built for another economy")


def mechanism_payoff(sit: Situation, cfg: MechanismConfig,
                     reports: Sequence, claimant: int) -> Fraction:
    """Profit of firm ``claimant + 1`` under the reported needs; ``claimant``
    is 0-based and must be one of the config's (``ValueError``)."""
    _same_economy(sit, cfg)
    if not 0 <= claimant < cfg.claimants:
        raise ValueError(f"claimant {claimant} is not one of 0..{cfg.claimants - 1}")
    awards = allocate(cfg.rule, _report_profile(cfg, reports), sit.cap)
    return coalition_value(sit, [claimant + 1], awards[claimant])


@dataclass(frozen=True)
class Deviation:
    claimant: int
    opponent_reports: tuple[Fraction, ...]  # full profile with the reference report in place
    deviation: Fraction
    truthful_payoff: Fraction
    deviant_payoff: Fraction


def _walk(cfg: MechanismConfig, grids: Sequence[Sequence[Fraction]],
          refs: Sequence[int], choices: Sequence[Sequence[int]]
          ) -> tuple[int, Optional[Deviation]]:
    """Decide every (claimant i, reference profile, deviation) cell: claimant
    i reports ``grids[i][refs[i]]`` and each other claimant j every level
    ``grids[j][x]`` for x in ``choices[j]``; the deviations are the other
    levels of ``grids[i]``, in grid order.  Returns the cells checked, the
    reference cell included, and the first improving deviation in claimant /
    reference profile / deviation order, or None.

    Rules (a) and (b) decide a row by its reference award; a reference award
    above d, which a report above d can get, leaves every deviation of its
    row to be valued.  By (c), a row of claimant i whose multiset of
    reference claims repeats an earlier one of i, which had no
    counterexample, is counted and skipped.  More than ``DEFAULT_CELL_LIMIT``
    cells, k times the grid product, raise ``GridSizeError`` first.

    The grids and the cap are scaled once to integers over ``lcm`` of their
    denominators.  Each claim multiset is rationed once, sorted, by ``ration``
    in those units into a table from claim to award numerator, which is also
    kept at each profile's position in the grid product.  An award above its
    claim, or unequal awards to equal claims, is a fault of the rule
    (``RuntimeError``).  Each claimant's award is valued at most once per
    call, keyed on its reduced numerator and denominator; payoffs are kept
    as (numerator, denominator) and compared by cross-multiplication.
    """
    sit = cfg.situation
    k = cfg.claimants
    sizes = [len(g) for g in grids]
    cells = k * math.prod(sizes)
    if cells > DEFAULT_CELL_LIMIT:
        raise GridSizeError(  # the count itself can be too long to print
            f"{k} claimants times the grid product is more than "
            f"{DEFAULT_CELL_LIMIT} payoff cells")
    scale = math.lcm(sit.cap.denominator, *(v.denominator for g in grids for v in g))
    cap = sit.cap.numerator * (scale // sit.cap.denominator)
    units = [tuple(v.numerator * (scale // v.denominator) for v in g) for g in grids]
    # A profile's grid indices x_j sit at position sum_j x_j * strides[j].
    strides = [math.prod(sizes[j + 1:]) for j in range(k)]
    # (sorted claims, claim -> award numerator, denominator) per multiset
    by_multiset: dict[tuple[int, ...], tuple] = {}
    awards_at: list[Optional[tuple]] = [None] * math.prod(sizes)
    values: list[dict[tuple[int, int], tuple[int, int]]] = [{} for _ in range(k)]

    def rationed(claims: Sequence[int]) -> tuple:
        key = tuple(sorted(claims))
        found = by_multiset.get(key)
        if found is None:
            nums, den = ration(cfg.rule, key, cap)
            table = dict(zip(key, nums))
            for claim, award in zip(key, nums):
                if award > claim * den:
                    raise RuntimeError(
                        f"{cfg.rule} awards {Fraction(award, den * scale)}, "
                        f"more than its claim {Fraction(claim, scale)}")
                if table[claim] != award:
                    raise RuntimeError(
                        f"{cfg.rule} awards equal claims {Fraction(claim, scale)} unequally")
            found = by_multiset[key] = (key, table, den)
        return found

    def value(i: int, award: int, den: int) -> tuple[int, int]:
        common = math.gcd(award, den)
        key = (award // common, den // common)
        found = values[i].get(key)
        if found is None:
            found = coalition_value(sit, [i + 1], Fraction(award, den * scale))
            found = values[i][key] = (found.numerator, found.denominator)
        return found

    checked = 0
    for i in range(k):
        ref = refs[i]
        own = units[i]
        report = own[ref]
        demand = cfg.true_demands[i]
        demand = demand.numerator * (scale // demand.denominator)
        ranges = [[x * s for x in xs] for xs, s in zip(choices, strides)]
        ranges[i] = (ref * strides[i],)
        reports = [[u[x] for x in xs] for u, xs in zip(units, choices)]
        reports[i] = (report,)
        shifts = [(d - ref) * strides[i] for d in range(sizes[i])]
        decided: set[tuple[int, ...]] = set()
        for base, claims in zip(itertools.product(*ranges), itertools.product(*reports)):
            at = sum(base)
            found = awards_at[at]
            if found is None:
                found = awards_at[at] = rationed(claims)
            multiset, table, den = found
            award = table[report]
            # (a) served its demand in full, or (c) decided on an earlier row
            if award == demand * den or multiset in decided:
                checked += sizes[i]
                continue
            decided.add(multiset)
            below = award < demand * den
            reference = None
            for d, shift in enumerate(shifts):
                if d == ref:
                    continue
                found = awards_at[at + shift]
                if found is None:
                    profile = list(claims)
                    profile[i] = own[d]
                    found = awards_at[at + shift] = rationed(profile)
                _, deviant_table, deviant_den = found
                deviant_award = deviant_table[own[d]]
                if below and deviant_award * den <= award * deviant_den:
                    continue  # (b) no more than the reference award
                if reference is None:
                    reference = value(i, award, den)
                deviant = value(i, deviant_award, deviant_den)
                if deviant[0] * reference[1] > reference[0] * deviant[1]:
                    return checked + d + 1, _replayed(cfg, Deviation(
                        claimant=i,
                        opponent_reports=tuple(
                            g[x // s] for g, x, s in zip(grids, base, strides)),
                        deviation=grids[i][d],
                        truthful_payoff=Fraction(*reference),
                        deviant_payoff=Fraction(*deviant)))
            checked += sizes[i]
    return checked, None


def _replayed(cfg: MechanismConfig, dev: Deviation) -> Deviation:
    """Replay a deviation through ``mechanism_payoff``, on the reference
    profile and on the deviated one: both payoffs must be the reported ones
    and the deviation must gain, else ``RuntimeError``, an explicit check
    that also runs under ``python -O``."""
    profile = list(dev.opponent_reports)
    truthful = mechanism_payoff(cfg.situation, cfg, profile, dev.claimant)
    profile[dev.claimant] = dev.deviation
    deviant = mechanism_payoff(cfg.situation, cfg, profile, dev.claimant)
    if (truthful, deviant) != (dev.truthful_payoff, dev.deviant_payoff) or deviant <= truthful:
        raise RuntimeError(
            f"deviation of claimant {dev.claimant} to {dev.deviation} does not replay: "
            f"payoffs {truthful} -> {deviant}, reported {dev.truthful_payoff} -> "
            f"{dev.deviant_payoff}")
    return dev


@dataclass(frozen=True)
class DominanceReport:
    truthful_dominant: bool
    cells_checked: int
    counterexample: Optional[Deviation] = None


def dominance_check(sit: Situation, cfg: MechanismConfig) -> DominanceReport:
    """Is truth-telling weakly best against every grid profile of the others?

    The kernel with each claimant at its truth against every opponent grid
    profile.  ``cells_checked`` counts every (claimant, opponent profile,
    deviation) cell, the truthful cell included, whether a payoff decided it
    or rule (a) or (b) skipped it.  ``sit`` must be the config's economy
    (``ValueError``).
    """
    _same_economy(sit, cfg)
    checked, counterexample = _walk(
        cfg, cfg.grids,
        [g.index(d) for g, d in zip(cfg.grids, cfg.true_demands)],
        [range(len(g)) for g in cfg.grids])
    return DominanceReport(truthful_dominant=counterexample is None,
                           cells_checked=checked, counterexample=counterexample)


@dataclass(frozen=True)
class EquilibriumReport:
    holds: bool
    improving: Optional[Deviation] = None


def equilibrium_check(sit: Situation, cfg: MechanismConfig,
                      profile: Sequence) -> EquilibriumReport:
    """No claimant gains by a unilateral grid deviation from ``profile``.

    The kernel with the others pinned to ``profile``.  A report off its grid
    is appended to it, so the deviations are the grid's levels other than
    the report, in order, and the grid limit counts that extended product.
    ``sit`` must be the config's economy (``ValueError``).
    """
    _same_economy(sit, cfg)
    base = _report_profile(cfg, profile)
    grids = [g if r in g else (*g, r) for g, r in zip(cfg.grids, base)]
    refs = [g.index(r) for g, r in zip(grids, base)]
    _, improving = _walk(cfg, grids, refs, [(x,) for x in refs])
    return EquilibriumReport(holds=improving is None, improving=improving)
