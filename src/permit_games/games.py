"""Characteristic-function games over small player sets."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


def lex_coalitions(players: Iterable[int]) -> list[frozenset[int]]:
    """Every nonempty coalition, ordered lexicographically by sorted members."""
    out: list[frozenset[int]] = []
    for m in sorted(players, reverse=True):  # {m}, m with each later coalition, then those
        single = frozenset((m,))
        out = [single, *(single | s for s in out), *out]
    return out


@dataclass(frozen=True)
class CharacteristicGame:
    """A total map from every nonempty coalition to its worth."""

    players: tuple[int, ...]
    values: Mapping[frozenset[int], Fraction]

    def __post_init__(self):
        expected = (1 << len(self.players)) - 1
        if len(self.values) != expected:
            raise ValueError(
                f"game over {len(self.players)} players needs {expected} coalition "
                f"values, got {len(self.values)}")
        everyone = frozenset(self.players)  # with the count, this pins every key
        for fs in self.values:
            if not fs or not fs <= everyone:
                raise ValueError(f"coalition {sorted(fs)} is not a nonempty subset of the players")

    def value(self, members: Iterable[int]) -> Fraction:
        key = frozenset(members)
        try:
            return self.values[key]
        except KeyError:
            raise KeyError(f"coalition {sorted(key)} is not part of this game") from None

    def coalitions(self) -> list[frozenset[int]]:
        return lex_coalitions(self.players)

    @property
    def grand_value(self) -> Fraction:
        return self.values[frozenset(self.players)]
