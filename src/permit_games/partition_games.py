"""Partition-function games induced by a division rule on permit claims.

For every coalition structure the blocks claim their optimal permit demands
and ``bankruptcy.ration`` serves them in full under the cap or rations them
by the announced rule.  The demands and the cap are scaled once per game
into one integer unit, so every structure is rationed in integers.  Each of
the 2^n - 1 coalitions has one record, found by the sorted block tuple the
structures already hold: its frozenset, its claim in units, one Fraction
share and profit per distinct award, and its extreme awards.  Every cell of
a coalition is keyed by that one frozenset.  Block profits then depend on
the whole structure, which is exactly where the externalities live.

Every derived game (optimistic, pessimistic, best- and worst-case permit
games) is read off each coalition's extremal shares.  An award never
exceeds its block's claim, the block's demand d_S, and the profit
v_S(z) = R_S(z) - tax * z is concave with d_S its least maximiser, so v_S
strictly increases on [0, d_S]: the least share of S over the structures
holding it gives its worst profit and the largest share its best.
``build_game`` records, in its one pass over the structures, the first
structure in enumeration order reaching each, and checks the monotonicity
it relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from . import bankruptcy
from .games import CharacteristicGame, lex_coalitions
from .partitions import Partition, enumerate_partitions
from .production import Situation, coalition_value, optimal_demand

PLUS = "plus"
MINUS = "minus"


@dataclass
class PartitionGame:
    situation: Situation
    rule: str
    partitions: tuple[Partition, ...]
    demands: dict[frozenset[int], Fraction]
    shares: dict[tuple[frozenset[int], Partition], Fraction]
    values: dict[tuple[frozenset[int], Partition], Fraction]
    # coalition -> first structure, in enumeration order, giving it its
    # least (worst) or largest (best) share; coalitions in lex order
    least: dict[frozenset[int], Partition]
    largest: dict[frozenset[int], Partition]

    @property
    def players(self) -> tuple[int, ...]:
        return self.situation.firms()

    def share(self, members: Iterable[int], partition: Partition) -> Fraction:
        return self.shares[frozenset(members), partition]

    def value(self, members: Iterable[int], partition: Partition) -> Fraction:
        return self.values[frozenset(members), partition]

    @property
    def grand_partition(self) -> Partition:
        return (self.players,)

    @property
    def grand_value(self) -> Fraction:
        return self.values[frozenset(self.players), self.grand_partition]


def build_game(sit: Situation, rule: str) -> PartitionGame:
    """Tabulate permit shares and block profits for every coalition structure,
    all Bell(n) of them: keeping the firm count n feasible is the caller's job.
    Each block costs one lookup of its coalition's record, and every cell is
    keyed by the record's frozenset, the one keying ``demands``."""
    rule = bankruptcy.check_rule(rule)
    partitions = enumerate_partitions(sit.n_firms)
    demands = {fs: optimal_demand(sit, fs) for fs in lex_coalitions(sit.firms())}
    # Claims and cap in one integer unit, 1/scale permits, for every structure.
    scale = lcm(sit.cap.denominator, *(d.denominator for d in demands.values()))
    cap = sit.cap.numerator * (scale // sit.cap.denominator)
    # sorted block -> [coalition, claim in units, {reduced award in units as
    # (num, den): (share, profit)}, least and largest award as (num, den,
    # first structure giving it, cell)], coalitions in lex order
    records = {tuple(sorted(fs)): [fs, d.numerator * (scale // d.denominator), {}, None, None]
               for fs, d in demands.items()}
    shares: dict[tuple[frozenset[int], Partition], Fraction] = {}
    values: dict[tuple[frozenset[int], Partition], Fraction] = {}
    for partition in partitions:
        blocks = [records[b] for b in partition]
        nums, den = bankruptcy.ration(rule, [r[1] for r in blocks], cap)
        for record, a in zip(blocks, nums):
            fs, _, cells, low, high = record
            g = gcd(a, den)
            a, d = a // g, den // g
            cell = cells.get((a, d))
            if cell is None:
                award = Fraction(a, d * scale)
                cell = cells[a, d] = award, coalition_value(sit, fs, award)
                # an award seen before for this coalition is no new extreme
                extreme = a, d, partition, cell
                if low is None:
                    record[3] = record[4] = extreme
                elif a * low[1] < low[0] * d:
                    record[3] = extreme
                elif a * high[1] > high[0] * d:
                    record[4] = extreme
            key = fs, partition
            shares[key], values[key] = cell
    for fs, claim, _, low, high in records.values():
        (least_share, worst), (largest_share, best) = low[3], high[3]
        if high[0] > claim * high[1] or worst > best:
            raise RuntimeError(
                f"coalition {sorted(fs)}: profit is not increasing in its share "
                f"up to its demand {demands[fs]} (shares {least_share}..{largest_share})")
    return PartitionGame(
        situation=sit, rule=rule, partitions=partitions, demands=demands,
        shares=shares, values=values,
        least={fs: low[2] for fs, _, _, low, _ in records.values()},
        largest={fs: high[2] for fs, _, _, _, high in records.values()})


def pessimistic_game(game: PartitionGame) -> CharacteristicGame:
    """Coalition worth = worst profit over the structures containing it,
    the profit at its least share."""
    return _profit_game(game, game.least)


def optimistic_game(game: PartitionGame) -> CharacteristicGame:
    """Coalition worth = best profit over the structures containing it,
    the profit at its largest share."""
    return _profit_game(game, game.largest)


def _profit_game(game: PartitionGame,
                 structures: dict[frozenset[int], Partition]) -> CharacteristicGame:
    values = {fs: game.values[fs, p] for fs, p in structures.items()}
    return CharacteristicGame(players=game.players, values=values)


def resource_game(game: PartitionGame, sense: str) -> CharacteristicGame:
    """Permit quantity a coalition gets in its best (plus) or worst (minus)
    structures: its largest or least share (see ``resource_witnesses``)."""
    values = {fs: game.shares[fs, p] for fs, p in resource_witnesses(game, sense).items()}
    return CharacteristicGame(players=game.players, values=values)


def resource_witnesses(game: PartitionGame, sense: str) -> dict[frozenset[int], Partition]:
    """Canonically first structure attaining each coalition's resource value:
    its best (plus) or worst (minus) profit, then the fewest permits.

    Profit strictly increases with the share up to the demand, so equal
    profits mean equal shares and this is the first structure giving the
    coalition its largest (plus) or least (minus) share."""
    if sense not in (PLUS, MINUS):
        raise ValueError(f"sense must be {PLUS!r} or {MINUS!r}, got {sense!r}")
    return dict(game.largest if sense == PLUS else game.least)
