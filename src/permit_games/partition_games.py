"""Partition-function games induced by a division rule on permit claims.

For every coalition structure the blocks claim their optimal permit demands
and ``bankruptcy.allocate`` serves them in full under the cap or rations
them by the announced rule.  Block profits then depend on the whole
structure, which is exactly where the externalities live.

``build_game`` also indexes, for every coalition, the structures holding it
as a block, in enumeration order.  Each derived game (optimistic,
pessimistic, best- and worst-case permit games) is one min or max over that
index, so it reads every payoff cell once.
"""

from __future__ import annotations

import operator
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
    # coalition -> structures holding it as a block, in enumeration order
    by_block: dict[frozenset[int], tuple[Partition, ...]]

    @property
    def players(self) -> tuple[int, ...]:
        return self.situation.firms()

    def demand(self, members: Iterable[int]) -> Fraction:
        return self.demands[frozenset(members)]

    def share(self, members: Iterable[int], partition: Partition) -> Fraction:
        return self.shares[frozenset(members), partition]

    def value(self, members: Iterable[int], partition: Partition) -> Fraction:
        return self.values[frozenset(members), partition]

    def containing(self, members: Iterable[int]) -> tuple[Partition, ...]:
        return self.by_block.get(frozenset(members), ())

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
    by_block: dict[frozenset[int], list[Partition]] = {fs: [] for fs in demands}
    for partition in partitions:
        blocks = [frozenset(b) for b in partition]
        awards = bankruptcy.allocate(rule, [demands[b] for b in blocks], sit.cap)
        for block, award in zip(blocks, awards):
            shares[block, partition] = award
            values[block, partition] = coalition_value(sit, block, award)
            by_block[block].append(partition)
    return PartitionGame(
        situation=sit, rule=rule, partitions=partitions, demands=demands,
        shares=shares, values=values,
        by_block={fs: tuple(ps) for fs, ps in by_block.items()})


def pessimistic_game(game: PartitionGame) -> CharacteristicGame:
    """Coalition worth = worst profit over the structures containing it."""
    return _bound_game(game, min)


def optimistic_game(game: PartitionGame) -> CharacteristicGame:
    """Coalition worth = best profit over the structures containing it."""
    return _bound_game(game, max)


def _bound_game(game: PartitionGame, pick) -> CharacteristicGame:
    values = {fs: pick(game.values[fs, p] for p in structures)
              for fs, structures in game.by_block.items()}
    return CharacteristicGame(players=game.players, values=values)


def resource_game(game: PartitionGame, sense: str) -> CharacteristicGame:
    """Permit quantity a coalition gets in its best (plus) or worst (minus)
    structures, tie-broken toward the fewest permits."""
    values = {fs: game.shares[fs, p] for fs, p in resource_witnesses(game, sense).items()}
    return CharacteristicGame(players=game.players, values=values)


def resource_witnesses(game: PartitionGame, sense: str) -> dict[frozenset[int], Partition]:
    """Canonically first structure attaining each coalition's resource value:
    its best (plus) or worst (minus) profit, then the fewest permits."""
    if sense not in (PLUS, MINUS):
        raise ValueError(f"sense must be {PLUS!r} or {MINUS!r}, got {sense!r}")
    better = operator.gt if sense == PLUS else operator.lt
    values, shares = game.values, game.shares
    witnesses = {}
    for fs, structures in game.by_block.items():
        best = structures[0]
        best_value, best_share = values[fs, best], shares[fs, best]
        for p in structures[1:]:
            value = values[fs, p]
            if better(value, best_value) or (value == best_value and shares[fs, p] < best_share):
                best, best_value, best_share = p, value, shares[fs, p]
        witnesses[fs] = best
    return witnesses
