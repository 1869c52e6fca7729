"""Rationing problems and the four division rules: CEA, CEL, PROP, TAL.

Every rule runs in integer units: claims and cap are integers in one common
unit, and a rule returns integer numerators over one denominator, found by
walking the sorted claim breakpoints (never by numeric root finding; exact
water levels matter downstream because permit shares feed argmin/argmax
comparisons over partitions).  ``ration`` serves integer claims in full or
rations them, and checks that rationed awards exhaust the cap as an integer
sum, ``sum(nums) == cap*den``.  Fractions appear only at two boundaries.
``allocate``, the one Fraction entry, rations one claim vector, such as
the pipeline's individual demands or a mechanism report profile: it scales
its Fraction inputs by ``lcm`` of the denominators and turns the integer
awards back into Fractions.  Callers that ration many claim vectors on one
scale call ``ration`` directly: ``build_game`` scales the demands and the
cap once per game, and the truthfulness check scales its report grids once
per call and rations each claim multiset once, sorted, since every rule is
anonymous.  ``apply_rule`` is an alias of ``allocate`` kept only because
the benchmark tracer wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

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


def _cea(cap: int, claims: Sequence[int]) -> tuple[list[int], int]:
    """Least level with sum_i min(claim_i, level) = cap, walked over the
    sorted claims; the level is ``previous*active + cap - filled`` over
    ``active``."""
    filled = 0
    active = len(claims)
    previous = 0
    for breakpoint in sorted(claims):
        step = breakpoint - previous
        if filled + step * active >= cap:
            break
        filled += step * active
        previous = breakpoint
        active -= 1
    else:
        return list(claims), 1  # the cap covers every claim
    level = previous * active + cap - filled
    return [min(d * active, level) for d in claims], active


def _cel(cap: int, claims: Sequence[int]) -> tuple[list[int], int]:
    """Least loss with sum_i max(claim_i - loss, 0) = cap; the loss is
    ``previous*remaining + shortfall - lost`` over ``remaining``."""
    shortfall = sum(claims) - cap
    if shortfall <= 0:
        return list(claims), 1
    lost = 0
    previous = 0
    remaining = len(claims)
    for breakpoint in sorted(claims):
        step = breakpoint - previous
        if lost + step * remaining >= shortfall:
            break
        lost += step * remaining
        previous = breakpoint
        remaining -= 1
    loss = previous * remaining + shortfall - lost
    return [max(d * remaining - loss, 0) for d in claims], remaining


def _prop(cap: int, claims: Sequence[int]) -> tuple[list[int], int]:
    total = sum(claims)
    if total == 0:
        return [0] * len(claims), 1  # the cap is 0 by the problem invariant
    return [cap * d for d in claims], total


def _tal(cap: int, claims: Sequence[int]) -> tuple[list[int], int]:
    """In half units the half-claims are the claims and the cap is ``2*cap``:
    CEA up to the halfway cap, the half-claims plus CEL on the rest above it."""
    total = sum(claims)
    if 2 * cap <= total:
        nums, den = _cea(2 * cap, claims)
    else:
        rest, den = _cel(2 * cap - total, claims)
        nums = [d * den + r for d, r in zip(claims, rest)]
    return nums, 2 * den


_RULE_FUNCTIONS = {
    CEA: _cea,
    CEL: _cel,
    PROP: _prop,
    TAL: _tal,
}


def ration(rule: str, claims: Sequence[int], cap: int) -> tuple[Sequence[int], int]:
    """Serve integer claims in full when they fit under the integer cap, else
    ration the cap by ``rule`` (one of ``RULES``); award i is ``nums[i] / den``
    in the claims' unit.  Rationed awards always exhaust the cap: ``sum(nums)
    == cap*den``, an explicit check that also runs under ``python -O``."""
    if sum(claims) <= cap:
        return claims, 1
    nums, den = _RULE_FUNCTIONS[rule](cap, claims)
    if sum(nums) != cap * den:
        raise RuntimeError(
            f"{rule} awards sum to {Fraction(sum(nums), den)} and do not exhaust "
            f"the cap {cap}")
    return nums, den


def allocate(rule: str, claims: Sequence[Fraction], cap: Fraction) -> tuple[Fraction, ...]:
    """Serve the claims in full when they fit under the cap, else ration the
    cap by the rule; rationed awards always exhaust the cap.  The cap and
    claims are scaled by ``lcm`` of their denominators into integer units
    for ``ration``."""
    rule = check_rule(rule)
    scale = lcm(cap.denominator, *(d.denominator for d in claims))
    units = [d.numerator * (scale // d.denominator) for d in claims]
    nums, den = ration(rule, units, cap.numerator * (scale // cap.denominator))
    return tuple(Fraction(a, den * scale) for a in nums)


def apply_rule(rule: str, claims: Sequence[Fraction], cap: Fraction) -> tuple[Fraction, ...]:
    """``allocate`` under the name the benchmark tracer wraps; nothing in the
    package calls it."""
    return allocate(rule, claims, cap)
