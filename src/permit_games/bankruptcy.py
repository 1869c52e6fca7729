"""Rationing problems and the four division rules: CEA, CEL, PROP, TAL.

Awards are computed exactly by walking sorted claim breakpoints, never by
numeric root finding; exact water levels matter downstream because permit
shares feed argmin/argmax comparisons over partitions.  ``allocate`` is the
one serve-in-full-or-ration step behind every game and the mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .games import CharacteristicGame
from .lp import as_fraction

ZERO = Fraction(0)

CEA = "cea"
CEL = "cel"
PROP = "prop"
TAL = "tal"
RULES = (CEA, CEL, PROP, TAL)


class RationingError(ValueError):
    pass


def check_rule(rule: str) -> str:
    rule = str(rule).lower()
    if rule not in RULES:
        raise RationingError(f"unknown rule {rule!r}; choose one of {', '.join(RULES)}")
    return rule


@dataclass(frozen=True)
class BankruptcyProblem:
    """Estate to divide among claimants whose claims sum to at least the estate.

    Claimants are arbitrary hashable identifiers: firms in the standard case,
    coalition blocks when a partition coordinates the claims.
    """

    claimants: tuple[Hashable, ...]
    estate: Fraction
    claims: tuple[Fraction, ...]

    @classmethod
    def create(cls, claimants: Iterable[Hashable], estate, claims) -> "BankruptcyProblem":
        return cls(
            claimants=tuple(claimants),
            estate=as_fraction(estate),
            claims=tuple(as_fraction(d) for d in claims),
        )

    def __post_init__(self):
        if len(self.claimants) != len(self.claims):
            raise RationingError(
                f"{len(self.claimants)} claimants but {len(self.claims)} claims")
        if len(set(self.claimants)) != len(self.claimants):
            raise RationingError("claimant identifiers repeat")
        if self.estate < 0:
            raise RationingError(f"estate must be nonnegative (got {self.estate})")
        if any(d < 0 for d in self.claims):
            raise RationingError("claims must be nonnegative")
        if sum(self.claims, ZERO) < self.estate:
            raise RationingError(
                f"claims sum {sum(self.claims, ZERO)} falls short of the estate "
                f"{self.estate}; the abundant case is the caller's business")


def constrained_equal_awards(estate: Fraction, claims: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """award_i = min(claim_i, level) with the level chosen to exhaust the estate."""
    level = _water_level_up(estate, claims)
    return tuple(min(d, level) for d in claims)


def constrained_equal_losses(estate: Fraction, claims: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """award_i = max(claim_i - loss, 0) with the loss chosen to exhaust the estate."""
    loss = _water_level_down(estate, claims)
    return tuple(max(d - loss, ZERO) for d in claims)


def proportional(estate: Fraction, claims: Sequence[Fraction]) -> tuple[Fraction, ...]:
    total = sum(claims, ZERO)
    if total == 0:
        return tuple(ZERO for _ in claims)  # estate is 0 by the problem invariant
    return tuple(estate * d / total for d in claims)


def talmud(estate: Fraction, claims: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Half-claims CEA below the halfway estate, half-claims CEL above it."""
    halves = [d / 2 for d in claims]
    half_total = sum(halves, ZERO)
    if estate <= half_total:
        return constrained_equal_awards(estate, halves)
    rest = constrained_equal_losses(estate - half_total, halves)
    return tuple(h + a for h, a in zip(halves, rest))


def _water_level_up(estate: Fraction, claims: Sequence[Fraction]) -> Fraction:
    """Least level with sum_i min(claim_i, level) = estate."""
    filled = ZERO
    active = len(claims)
    previous = ZERO
    for breakpoint in sorted(claims):
        step = breakpoint - previous
        if filled + step * active >= estate:
            return previous + (estate - filled) / active
        filled += step * active
        previous = breakpoint
        active -= 1
    # claims sum >= estate, so the estate is always exhausted by now
    return previous


def _water_level_down(estate: Fraction, claims: Sequence[Fraction]) -> Fraction:
    """Least loss with sum_i max(claim_i - loss, 0) = estate."""
    total = sum(claims, ZERO)
    shortfall = total - estate
    if shortfall <= 0:
        return ZERO
    lost = ZERO
    previous = ZERO
    remaining = len(claims)
    for breakpoint in sorted(claims):
        step = breakpoint - previous
        if lost + step * remaining >= shortfall:
            return previous + (shortfall - lost) / remaining
        lost += step * remaining
        previous = breakpoint
        remaining -= 1
    return previous


_RULE_FUNCTIONS = {
    CEA: constrained_equal_awards,
    CEL: constrained_equal_losses,
    PROP: proportional,
    TAL: talmud,
}


def allocate(rule: str, claims: Sequence[Fraction], cap: Fraction) -> tuple[Fraction, ...]:
    """Serve the claims in full when they fit under the cap, else ration the
    cap by the rule; rationed awards always exhaust the cap."""
    rationing = _RULE_FUNCTIONS[check_rule(rule)]
    claims = tuple(claims)
    if sum(claims, ZERO) <= cap:
        return claims
    awards = rationing(cap, claims)
    if sum(awards, ZERO) != cap:
        raise RuntimeError(
            f"{rule} awards sum to {sum(awards, ZERO)} and do not exhaust the cap {cap}")
    return awards


def apply_rule(rule: str, problem: BankruptcyProblem) -> tuple[Fraction, ...]:
    """Divide the estate; the result is bounded by the claims and exhausts it."""
    return allocate(rule, problem.claims, problem.estate)


def bankruptcy_game(problem: BankruptcyProblem) -> CharacteristicGame:
    """v(S) = max(estate - sum of outside claims, 0), over positional players 1..k."""
    k = len(problem.claimants)
    total = sum(problem.claims, ZERO)
    players = tuple(range(1, k + 1))
    values = {}
    for mask in range(1, 1 << k):
        inside = frozenset(i + 1 for i in range(k) if mask & (1 << i))
        outside = total - sum((problem.claims[i - 1] for i in inside), ZERO)
        values[inside] = max(problem.estate - outside, ZERO)
    return CharacteristicGame(players=players, values=values)
