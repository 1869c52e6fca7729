"""Partition-function games induced by a division rule on permit claims.

For every coalition structure the blocks claim their optimal permit demands
and ``bankruptcy.ration`` serves them in full under the cap or rations them
by the announced rule.  The demands and the cap are scaled once per game
into one integer unit, so every structure is rationed in integers.  Each of
the 2^n - 1 coalitions has one record, found by the sorted block tuple the
structures already hold, and keyed everywhere by the frozenset that keys
``demands``.  Block profits depend on the whole structure, which is exactly
where the externalities live.

Every derived game (optimistic, pessimistic, best- and worst-case permit
games) is read off each coalition's extremal shares.  An award never
exceeds its block's claim, the block's demand d_S, and the profit
v_S(z) = R_S(z) - tax * z is concave with d_S its least maximiser, so v_S
strictly increases on [0, d_S]: the least share of S over the structures
holding it gives its worst profit and the largest share its best.

So ``build_game`` keeps the extremes in its one pass over the structures:
per coalition its least and largest award in integers, with the first
structure in enumeration order reaching each.  After the pass it values
just those two awards and checks the monotonicity it relies on.  The
per-cell tables ``shares`` and ``values`` are built on first read, by one
more rationing pass that reuses the extremes' valuations; the derived
games, the cores and the pipeline never read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable

from . import bankruptcy
from .games import CharacteristicGame, lex_coalitions
from .partitions import Partition, enumerate_partitions
from .production import Situation, coalition_value, optimal_demand

PLUS = "plus"
MINUS = "minus"

Cell = tuple[Fraction, Fraction]  # (permit share, profit) of a block


@dataclass
class PartitionGame:
    """A coalition's extremes over the Bell(n) structures, and every cell on
    first read.

    ``least`` and ``largest`` map each coalition, in lex order, to the first
    structure in enumeration order giving it its least (worst) or largest
    (best) share, and ``least_cell`` and ``largest_cell`` to its share and
    profit there.  ``shares`` and ``values`` key every cell by (coalition,
    structure) in enumeration order; they are built together, once, when
    either is first read, and are ordinary dicts from then on."""

    situation: Situation
    rule: str
    partitions: tuple[Partition, ...]
    demands: dict[frozenset[int], Fraction]
    least: dict[frozenset[int], Partition]
    largest: dict[frozenset[int], Partition]
    least_cell: dict[frozenset[int], Cell]
    largest_cell: dict[frozenset[int], Cell]

    @property
    def players(self) -> tuple[int, ...]:
        return self.situation.firms()

    @cached_property
    def _tables(self) -> tuple[dict, dict]:
        return _cell_tables(self)

    @property
    def shares(self) -> dict[tuple[frozenset[int], Partition], Fraction]:
        return self._tables[0]

    @property
    def values(self) -> dict[tuple[frozenset[int], Partition], Fraction]:
        return self._tables[1]

    def share(self, members: Iterable[int], partition: Partition) -> Fraction:
        """The permit share of block ``members`` in ``partition``, from one
        rationing of that structure alone."""
        awards = bankruptcy.allocate(
            self.rule, [self.demands[frozenset(b)] for b in partition], self.situation.cap)
        return awards[partition.index(tuple(sorted(members)))]

    @property
    def grand_value(self) -> Fraction:
        return self.least_cell[frozenset(self.players)][1]


def _in_units(sit: Situation, demands: dict[frozenset[int], Fraction]):
    """The scale, the cap in units of 1/scale permits, and sorted block ->
    [coalition, claim in units], coalitions in lex order."""
    scale = lcm(sit.cap.denominator, *(d.denominator for d in demands.values()))
    cap = sit.cap.numerator * (scale // sit.cap.denominator)
    records = {tuple(sorted(fs)): [fs, d.numerator * (scale // d.denominator)]
               for fs, d in demands.items()}
    return scale, cap, records


def build_game(sit: Situation, rule: str) -> PartitionGame:
    """Ration every coalition structure, all Bell(n) of them (keeping the firm
    count n feasible is the caller's job), keeping each coalition's least and
    largest award, and value those two awards only."""
    rule = bankruptcy.check_rule(rule)
    partitions = enumerate_partitions(sit.n_firms)
    demands = {fs: optimal_demand(sit, fs) for fs in lex_coalitions(sit.firms())}
    scale, cap, records = _in_units(sit, demands)
    # record: [coalition, claim, least award, largest award], an award as
    # (num, den, first structure giving it) in units; the starting pair lies
    # above and below every award, so the first structure sets both
    for record in records.values():
        record += [(1, 0, None), (-1, 1, None)]
    for partition in partitions:
        blocks = [records[b] for b in partition]
        nums, den = bankruptcy.ration(rule, [r[1] for r in blocks], cap)
        for record, a in zip(blocks, nums):
            low, high = record[2], record[3]
            if a * low[1] < low[0] * den:
                record[2] = a, den, partition
            if a * high[1] > high[0] * den:
                record[3] = a, den, partition
    least, largest, least_cell, largest_cell = {}, {}, {}, {}
    for fs, claim, low, high in records.values():
        least_share = Fraction(low[0], low[1] * scale)
        largest_share = Fraction(high[0], high[1] * scale)
        worst = coalition_value(sit, fs, least_share)
        best = worst if largest_share == least_share else coalition_value(sit, fs, largest_share)
        if high[0] > claim * high[1] or worst > best:
            raise RuntimeError(
                f"coalition {sorted(fs)}: profit is not increasing in its share "
                f"up to its demand {demands[fs]} (shares {least_share}..{largest_share})")
        least[fs], largest[fs] = low[2], high[2]
        least_cell[fs], largest_cell[fs] = (least_share, worst), (largest_share, best)
    return PartitionGame(
        situation=sit, rule=rule, partitions=partitions, demands=demands,
        least=least, largest=largest, least_cell=least_cell, largest_cell=largest_cell)


def _cell_tables(game: PartitionGame) -> tuple[dict, dict]:
    """Every cell's share and profit, keyed (coalition, structure) in
    enumeration order: one rationing pass that values each distinct award of
    a coalition once, starting from the valuations of its two extremes."""
    sit = game.situation
    scale, cap, records = _in_units(sit, game.demands)
    for record in records.values():
        # reduced award in units as (num, den) -> cell
        cells = {}
        for cell in (game.least_cell[record[0]], game.largest_cell[record[0]]):
            g = gcd(scale, cell[0].denominator)
            cells[cell[0].numerator * (scale // g), cell[0].denominator // g] = cell
        record.append(cells)
    shares: dict[tuple[frozenset[int], Partition], Fraction] = {}
    values: dict[tuple[frozenset[int], Partition], Fraction] = {}
    for partition in game.partitions:
        blocks = [records[b] for b in partition]
        nums, den = bankruptcy.ration(game.rule, [r[1] for r in blocks], cap)
        for (fs, _, cells), a in zip(blocks, nums):
            g = gcd(a, den)
            a, d = a // g, den // g
            cell = cells.get((a, d))
            if cell is None:
                award = Fraction(a, d * scale)
                cell = cells[a, d] = award, coalition_value(sit, fs, award)
            key = fs, partition
            shares[key], values[key] = cell
    return shares, values


def pessimistic_game(game: PartitionGame) -> CharacteristicGame:
    """Coalition worth = worst profit over the structures containing it,
    the profit at its least share."""
    return _profit_game(game, game.least_cell)


def optimistic_game(game: PartitionGame) -> CharacteristicGame:
    """Coalition worth = best profit over the structures containing it,
    the profit at its largest share."""
    return _profit_game(game, game.largest_cell)


def _profit_game(game: PartitionGame, cells: dict[frozenset[int], Cell]) -> CharacteristicGame:
    values = {fs: profit for fs, (_, profit) in cells.items()}
    return CharacteristicGame(players=game.players, values=values)


def resource_game(game: PartitionGame, sense: str) -> CharacteristicGame:
    """Permit quantity a coalition gets in its best (plus) or worst (minus)
    structures: its largest or least share (see ``resource_witnesses``)."""
    cells = game.largest_cell if _is_plus(sense) else game.least_cell
    values = {fs: share for fs, (share, _) in cells.items()}
    return CharacteristicGame(players=game.players, values=values)


def resource_witnesses(game: PartitionGame, sense: str) -> dict[frozenset[int], Partition]:
    """Canonically first structure attaining each coalition's resource value:
    its best (plus) or worst (minus) profit, then the fewest permits.

    Profit strictly increases with the share up to the demand, so equal
    profits mean equal shares and this is the first structure giving the
    coalition its largest (plus) or least (minus) share."""
    return dict(game.largest if _is_plus(sense) else game.least)


def _is_plus(sense: str) -> bool:
    if sense not in (PLUS, MINUS):
        raise ValueError(f"sense must be {PLUS!r} or {MINUS!r}, got {sense!r}")
    return sense == PLUS
