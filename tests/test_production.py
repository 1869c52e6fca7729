"""Coalition values and optimal permit demands, pinned against hand arithmetic."""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import pytest

from permit_games import production
from permit_games.partition_games import build_game
from permit_games.production import (
    Situation,
    SituationError,
    coalition_value,
    optimal_demand,
    production_revenue,
)

import support

F = Fraction


def test_reference_values(example3):
    assert coalition_value(example3, [1, 2, 3], 50) == 2300
    assert coalition_value(example3, [1], F(50, 3)) == F(2000, 3)
    assert coalition_value(example3, [1, 3], 30) == 1380
    assert coalition_value(example3, [2], 20) == 920


def test_zero_permits_shuts_production_down(example3):
    for members in ([1], [2, 3], [1, 2, 3]):
        assert coalition_value(example3, members, 0) == 0


def test_reference_demands(example3, demands3):
    for coalition, expected in demands3.items():
        assert optimal_demand(example3, coalition) == expected


def test_negative_permits_rejected(example3):
    with pytest.raises(SituationError):
        coalition_value(example3, [1], -1)


def test_validation_messages():
    good = dict(
        production=[[2, 3], [3, 2], [1, 1]],
        endowments=[[40, 60, 80], [60, 40, 50]],
        prices=[50, 60],
        tax=14,
        cap=50,
    )
    with pytest.raises(SituationError, match="tax must be positive"):
        Situation.create(**{**good, "tax": 0})
    with pytest.raises(SituationError, match="cap must be positive"):
        Situation.create(**{**good, "cap": 0})
    with pytest.raises(SituationError, match="price condition"):
        Situation.create(**{**good, "prices": [50, 14]})
    with pytest.raises(SituationError, match="permit requirement"):
        Situation.create(**{**good, "production": [[2, 3], [3, 2], [1, 0]]})
    with pytest.raises(SituationError, match="held by no firm"):
        Situation.create(**{**good, "endowments": [[40, 60, 80], [0, 0, 0]]})
    with pytest.raises(SituationError, match="required by every good"):
        Situation.create(**{**good, "production": [[2, 0], [0, 2], [1, 1]]})


def test_firm_without_endowments_is_legal():
    sit = Situation.create(
        production=[[1, 1], [2, 1], [1, 2]],
        endowments=[[10, 0], [5, 0]],
        prices=[9, 11],
        tax=2,
        cap=6,
    )
    assert optimal_demand(sit, [2]) == 0
    assert coalition_value(sit, [2], 3) == -6  # buying permits it cannot use


def test_value_flat_at_minus_tax_beyond_demand(example3, demands3):
    # In the reference economy revenue saturates exactly at each coalition's
    # demand, so past it the profit falls at precisely the tax rate.
    for coalition, d in demands3.items():
        peak = coalition_value(example3, coalition, d)
        for t in (F(1, 3), 2, 10):
            assert coalition_value(example3, coalition, d + t) == peak - example3.tax * t


def test_value_nondecreasing_up_to_demand_and_concave():
    rng = random.Random(424242)
    checked = 0
    while checked < 12:
        sit = support.rand_situation(rng, n_firms=2)
        members = [rng.randint(1, 2)]
        d = optimal_demand(sit, members)
        if d == 0:
            continue
        checked += 1
        peak = coalition_value(sit, members, d)
        samples = [d * F(k, 4) for k in range(5)] + [d + 1, d + 3]
        values = [coalition_value(sit, members, z) for z in samples]
        for z, v in zip(samples, values):
            assert v <= peak
            # never worse than buying the peak quantity and wasting the excess
            if z >= d:
                assert v >= peak - sit.tax * (z - d)
        increasing = values[:5]
        assert all(a <= b for a, b in zip(increasing, increasing[1:]))
        # concavity along a random chord
        z1, z2 = d * F(1, 4), d + 2
        mid = (z1 + z2) / 2
        assert coalition_value(sit, members, mid) * 2 >= (
            coalition_value(sit, members, z1) + coalition_value(sit, members, z2))


def test_resource_monotonicity():
    rng = random.Random(11)
    for _ in range(10):
        sit = support.rand_situation(rng, n_firms=3)
        z = support.rand_fraction(rng, 1, 10)
        small = coalition_value(sit, [1], z)
        assert coalition_value(sit, [1, 2], z) >= small
        assert coalition_value(sit, [1, 2, 3], z) >= small


def test_demands_are_not_superadditive():
    # Randomized search for a merger that wants strictly fewer permits than
    # its members do separately; the seed is frozen on a hit.
    rng = random.Random(2024)
    for _ in range(400):
        sit = support.rand_situation(rng, n_firms=2)
        separate = optimal_demand(sit, [1]) + optimal_demand(sit, [2])
        if optimal_demand(sit, [1, 2]) < separate:
            break
    else:
        pytest.fail("no subadditive demand instance found in 400 draws")


def test_revenue_excludes_tax(example3):
    assert production_revenue(example3, [1, 2, 3], 50) == 3000
    assert production_revenue(example3, [1], 10) == 600


def _reference_economy(tax=14):
    return Situation.create(
        production=[[2, 3], [3, 2], [1, 1]], endowments=[[40, 60, 80], [60, 40, 50]],
        prices=[50, 60], tax=tax, cap=50)


def test_lp_memo_is_freed_with_its_economy():
    sit = _reference_economy()
    build_game(sit, "cea")
    ref = weakref.ref(sit)
    del sit
    gc.collect()
    assert ref() is None


def test_second_tabulation_solves_no_lp(monkeypatch):
    sit = _reference_economy()
    first = build_game(sit, "cea")
    solved = []
    real_solve = production.solve
    monkeypatch.setattr(
        production, "solve", lambda program: solved.append(program) or real_solve(program))
    assert build_game(sit, "cea").values == first.values
    assert solved == []


def test_replaced_economy_starts_a_fresh_memo():
    sit = _reference_economy()
    grand = sit.firms()
    before = optimal_demand(sit, grand)
    changed = dataclasses.replace(sit, tax=F(30))
    fresh = _reference_economy(tax=30)
    assert optimal_demand(changed, grand) == optimal_demand(fresh, grand) == 60 != before
    assert changed == fresh and hash(changed) == hash(fresh) and repr(changed) == repr(fresh)
