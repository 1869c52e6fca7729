"""Partition-function games induced by a division rule on permit claims.

For every coalition structure the blocks claim their optimal permit demands
and ``bankruptcy.allocate`` serves them in full under the cap or rations
them by the announced rule.  Block profits then depend on the whole
structure, which is exactly where the externalities live.

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
from typing import Iterable

from . import bankruptcy
from .games import CharacteristicGame, lex_coalitions
from .partitions import DEFAULT_LIMIT, Partition, enumerate_partitions
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

    def demand(self, members: Iterable[int]) -> Fraction:
        return self.demands[frozenset(members)]

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


def build_game(sit: Situation, rule: str, limit: int = DEFAULT_LIMIT) -> PartitionGame:
    """Tabulate permit shares and block profits for every coalition structure."""
    rule = bankruptcy.check_rule(rule)
    partitions = enumerate_partitions(sit.n_firms, limit)
    demands = {fs: optimal_demand(sit, fs) for fs in lex_coalitions(sit.firms())}
    shares: dict[tuple[frozenset[int], Partition], Fraction] = {}
    values: dict[tuple[frozenset[int], Partition], Fraction] = {}
    # One profit per distinct (block, award), keyed by the award's numerator
    # and denominator: hashing a Fraction costs a modular inverse.
    profit: dict[tuple[frozenset[int], int, int], Fraction] = {}
    # coalition -> (share, first structure giving it, profit there)
    least: dict[frozenset[int], tuple[Fraction, Partition, Fraction]] = {}
    largest: dict[frozenset[int], tuple[Fraction, Partition, Fraction]] = {}
    for partition in partitions:
        blocks = [frozenset(b) for b in partition]
        awards = bankruptcy.allocate(rule, [demands[b] for b in blocks], sit.cap)
        for block, award in zip(blocks, awards):
            shares[block, partition] = award
            key = block, award.numerator, award.denominator
            value = profit.get(key)
            if value is None:
                value = profit[key] = coalition_value(sit, block, award)
                # an award seen before for this block is no new extreme
                low = least.get(block)
                if low is None:
                    least[block] = largest[block] = award, partition, value
                elif award < low[0]:
                    least[block] = award, partition, value
                elif award > largest[block][0]:
                    largest[block] = award, partition, value
            values[block, partition] = value
    for fs, demand in demands.items():
        (low, _, worst), (high, _, best) = least[fs], largest[fs]
        if high > demand or worst > best:
            raise RuntimeError(
                f"coalition {sorted(fs)}: profit is not increasing in its share "
                f"up to its demand {demand} (shares {low}..{high})")
    return PartitionGame(
        situation=sit, rule=rule, partitions=partitions, demands=demands,
        shares=shares, values=values,
        least={fs: least[fs][1] for fs in demands},
        largest={fs: largest[fs][1] for fs in demands})


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
