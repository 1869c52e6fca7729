"""Division rules against hand-computed splits and their axioms."""

import itertools
import random
from fractions import Fraction

import pytest

from permit_games import bankruptcy
from permit_games.bankruptcy import (
    BankruptcyProblem,
    RULES,
    RationingError,
    allocate,
    apply_rule,
    ration,
)
from permit_games.partition_games import build_game
from permit_games.stability import in_core

import support
from support import bankruptcy_game

F = Fraction


def problem(estate, claims):
    return BankruptcyProblem.create(
        claimants=range(1, len(claims) + 1), estate=estate, claims=claims)


def test_cea_reference_splits():
    assert apply_rule("cea", problem(50, [20, 20, 25])) == (F(50, 3),) * 3
    assert apply_rule("cea", problem(50, [46, 20])) == (F(30), F(20))
    assert apply_rule("cea", problem(50, [40, 25])) == (F(25), F(25))
    assert apply_rule("cea", problem(50, [45, 20])) == (F(30), F(20))


def test_prop_reference_split():
    assert apply_rule("prop", problem(50, [20, 20, 25])) == (
        F(200, 13), F(200, 13), F(250, 13))


def test_cel_split():
    # oracle: walk loss breakpoints of sum max(d_i - loss, 0) = 50 by hand
    assert apply_rule("cel", problem(50, [20, 20, 25])) == (F(15), F(15), F(20))


def test_talmud_split():
    # estate 50 > half-claims 32.5, so half-claims plus CEL on the rest
    assert apply_rule("tal", problem(50, [20, 20, 25])) == (F(15), F(15), F(20))


@pytest.mark.parametrize("rule", RULES)
def test_exact_fill_and_empty_estate(rule):
    claims = [F(7), F(3), F(11, 2)]
    full = problem(sum(claims), claims)
    assert apply_rule(rule, full) == tuple(claims)
    empty = problem(0, claims)
    assert apply_rule(rule, empty) == (F(0),) * 3


def test_allocate_checks_the_rule_even_when_claims_fit():
    with pytest.raises(RationingError):
        allocate("nope", [F(1)], F(50))


def test_non_exhausting_rule_is_an_internal_fault(monkeypatch, example3):
    monkeypatch.setitem(
        bankruptcy._RULE_FUNCTIONS, "cea", lambda cap, claims: (list(claims), 2))
    with pytest.raises(RuntimeError, match="exhaust"):
        allocate("cea", [F(20), F(20), F(25)], F(50))
    with pytest.raises(RuntimeError, match="exhaust"):
        build_game(example3, "cea")


def test_abundant_case_rejected():
    with pytest.raises(RationingError, match="abundant"):
        problem(100, [20, 20, 25])


def test_talmud_meets_half_claims_cea_at_breakpoint():
    rng = random.Random(5)
    for _ in range(50):
        claims = [support.rand_fraction(rng, 0, 12) for _ in range(rng.randint(1, 5))]
        half = sum(claims) / 2
        assert allocate("tal", claims, half) == allocate("cea", [d / 2 for d in claims], half)


@pytest.mark.parametrize("rule", RULES)
def test_rule_axioms_random(rule):
    rng = random.Random(RULES.index(rule))
    for _ in range(80):
        prob = support.rand_bankruptcy_problem(rng)
        awards = apply_rule(rule, prob)
        assert sum(awards) == prob.estate
        for a, d in zip(awards, prob.claims):
            assert 0 <= a <= d
        for (ai, di), (aj, dj) in itertools.combinations(zip(awards, prob.claims), 2):
            if di == dj:
                assert ai == aj
            if di <= dj:
                assert ai <= aj and di - ai <= dj - aj
            else:
                assert aj <= ai and dj - aj <= di - ai


def test_cea_merging_proofness_random():
    rng = random.Random(77)
    for _ in range(60):
        prob = support.rand_bankruptcy_problem(rng)
        if len(prob.claims) < 2:
            continue
        awards = allocate("cea", prob.claims, prob.estate)
        for k, j in itertools.combinations(range(len(prob.claims)), 2):
            merged_claims = [d for idx, d in enumerate(prob.claims) if idx not in (k, j)]
            merged_claims.append(prob.claims[k] + prob.claims[j])
            merged = allocate("cea", merged_claims, prob.estate)
            assert merged[-1] <= awards[k] + awards[j]


def test_prop_merging_neutrality_random():
    rng = random.Random(78)
    for _ in range(60):
        prob = support.rand_bankruptcy_problem(rng)
        if len(prob.claims) < 2 or sum(prob.claims) == 0:
            continue
        awards = apply_rule("prop", prob)
        for k, j in itertools.combinations(range(len(prob.claims)), 2):
            merged_claims = [d for idx, d in enumerate(prob.claims) if idx not in (k, j)]
            merged_claims.append(prob.claims[k] + prob.claims[j])
            merged = apply_rule("prop", problem(prob.estate, merged_claims))
            assert merged[-1] == awards[k] + awards[j]


def test_game_reference_values():
    game = bankruptcy_game(problem(50, [20, 20, 25]))
    assert game.value([1]) == 5
    assert game.value([1, 2]) == 25
    assert game.value([1, 2, 3]) == 50


def test_game_degenerate_cases():
    zero = bankruptcy_game(problem(0, [3, 4]))
    assert all(v == 0 for v in zero.values.values())
    null = bankruptcy_game(problem(6, [5, 0, 4]))
    for coalition in null.coalitions():
        if 2 not in coalition:
            assert null.values[coalition] == null.value(coalition | {2})


@pytest.mark.parametrize("rule", RULES)
def test_awards_lie_in_game_core(rule):
    rng = random.Random(RULES.index(rule) + 1)
    for _ in range(40):
        prob = support.rand_bankruptcy_problem(rng)
        awards = apply_rule(rule, prob)
        assert in_core(bankruptcy_game(prob), awards).ok


def test_cel_loss_level_oracle():
    # independent check: solve sum max(d_i - loss, 0) = estate by scanning
    rng = random.Random(31)
    for _ in range(40):
        prob = support.rand_bankruptcy_problem(rng)
        awards = allocate("cel", prob.claims, prob.estate)
        losses = sorted({d - a for d, a in zip(prob.claims, awards) if a > 0})
        if losses:
            assert len(losses) == 1  # everyone served loses the same amount
            loss = losses[0]
            for d, a in zip(prob.claims, awards):
                if a == 0:
                    assert d <= loss


# The Fraction rules as they were before rationing moved to integer units,
# kept as an independent oracle for the integer kernels.

def _water_level_up(estate, claims):
    """Least level with sum_i min(claim_i, level) = estate."""
    filled = F(0)
    active = len(claims)
    previous = F(0)
    for breakpoint in sorted(claims):
        step = breakpoint - previous
        if filled + step * active >= estate:
            return previous + (estate - filled) / active
        filled += step * active
        previous = breakpoint
        active -= 1
    return previous


def _water_level_down(estate, claims):
    """Least loss with sum_i max(claim_i - loss, 0) = estate."""
    total = sum(claims, F(0))
    shortfall = total - estate
    if shortfall <= 0:
        return F(0)
    lost = F(0)
    previous = F(0)
    remaining = len(claims)
    for breakpoint in sorted(claims):
        step = breakpoint - previous
        if lost + step * remaining >= shortfall:
            return previous + (shortfall - lost) / remaining
        lost += step * remaining
        previous = breakpoint
        remaining -= 1
    return previous


def _oracle_cea(estate, claims):
    level = _water_level_up(estate, claims)
    return tuple(min(d, level) for d in claims)


def _oracle_cel(estate, claims):
    loss = _water_level_down(estate, claims)
    return tuple(max(d - loss, F(0)) for d in claims)


def _oracle_prop(estate, claims):
    total = sum(claims, F(0))
    if total == 0:
        return tuple(F(0) for _ in claims)
    return tuple(estate * d / total for d in claims)


def _oracle_tal(estate, claims):
    halves = [d / 2 for d in claims]
    half_total = sum(halves, F(0))
    if estate <= half_total:
        return _oracle_cea(estate, halves)
    rest = _oracle_cel(estate - half_total, halves)
    return tuple(h + a for h, a in zip(halves, rest))


ORACLES = {"cea": _oracle_cea, "cel": _oracle_cel, "prop": _oracle_prop, "tal": _oracle_tal}


def _oracle_allocate(rule, claims, cap):
    if sum(claims, F(0)) <= cap:
        return tuple(claims)
    return ORACLES[rule](cap, claims)


def _edge_problems():
    """(claims, cap): equal claims, zero claims, caps on the breakpoints of
    the claims 2, 5, 9 for every rule, and caps equal to the claims' sum."""
    claims = [F(2), F(5), F(9)]
    return [
        ([F(5)] * 3, F(7)), ([F(7, 2)] * 4, F(13, 3)),
        ([F(0), F(3), F(0), F(4)], F(5)), ([F(0)] * 3, F(0)), ([F(0), F(6)], F(0)),
        (claims, F(6)), (claims, F(12)),  # CEA levels 2 and 5
        (claims, F(10)), (claims, F(4)),  # CEL losses 2 and 5
        (claims, F(3)), (claims, F(8)), (claims, F(13)),  # TAL kinks, halfway at 8
        (claims, F(16)), ([F(1, 3), F(1, 2)], F(5, 6)), ([F(4)], F(4)),
    ]


def _random_problems(rng, count):
    problems = []
    for _ in range(count):
        claims = [F(rng.randint(0, 24), rng.choice((1, 1, 2, 3, 4, 6)))
                  for _ in range(rng.randint(1, 6))]
        total = sum(claims, F(0))
        cap = total * F(rng.randint(0, 12), rng.choice((10, 12))) if total else F(0)
        if rng.random() < 0.2:  # land the cap on a claim breakpoint
            level = rng.choice(claims)
            cap = sum((min(d, level) for d in claims), F(0))
        problems.append((claims, cap))
    return problems


@pytest.mark.parametrize("rule", RULES)
def test_integer_kernel_matches_the_fraction_oracle(rule):
    rng = random.Random(4100 + RULES.index(rule))
    problems = _edge_problems() + _random_problems(rng, 240)
    rationed = 0
    for claims, cap in problems:
        expected = _oracle_allocate(rule, claims, cap)
        assert allocate(rule, claims, cap) == expected, (claims, cap)
        rationed += sum(claims) > cap
    assert len(problems) >= 200 and rationed >= 150


@pytest.mark.parametrize("rule", RULES)
def test_integer_kernel_properties(rule):
    rng = random.Random(4200 + RULES.index(rule))
    for _ in range(200):
        claims = [rng.randint(0, 30) for _ in range(rng.randint(1, 6))]
        cap = rng.randint(0, sum(claims) + 5)
        nums, den = ration(rule, claims, cap)
        if sum(claims) <= cap:
            assert (list(nums), den) == (claims, 1)
            continue
        assert den > 0 and sum(nums) == cap * den
        assert all(0 <= a <= d * den for a, d in zip(nums, claims))
