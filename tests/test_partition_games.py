"""Externality games on the reference economy, checked cell by cell."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permit_games import bankruptcy, cli, partition_games
from permit_games.bankruptcy import CEA, PROP, RULES
from permit_games.games import lex_coalitions
from permit_games.partition_games import (
    MINUS,
    PLUS,
    build_game,
    optimistic_game,
    pessimistic_game,
    resource_game,
    resource_witnesses,
)
from permit_games.partitions import enumerate_partitions
from permit_games.production import Situation, coalition_value, optimal_demand

import support

F = Fraction

P1 = ((1,), (2,), (3,))
P2 = ((1, 2), (3,))
P3 = ((1, 3), (2,))
P4 = ((1,), (2, 3))
P5 = ((1, 2, 3),)


@pytest.fixture(scope="module")
def cea_game(example3):
    return build_game(example3, "cea")


@pytest.fixture(scope="module")
def prop_game(example3):
    return build_game(example3, "prop")


def test_cea_shares(cea_game):
    assert [cea_game.share({i}, P1) for i in (1, 2, 3)] == [F(50, 3)] * 3
    assert cea_game.share({1, 2}, P2) == 25 and cea_game.share({3}, P2) == 25
    assert cea_game.share({1, 3}, P3) == 30 and cea_game.share({2}, P3) == 20
    assert cea_game.share({2, 3}, P4) == 30 and cea_game.share({1}, P4) == 20
    assert cea_game.share({1, 2, 3}, P5) == 50


def test_cea_values(cea_game):
    expected = {
        (frozenset({1}), P1): F(2000, 3),
        (frozenset({2}), P1): F(2300, 3),
        (frozenset({3}), P1): F(2300, 3),
        (frozenset({1, 2}), P2): F(1150),
        (frozenset({3}), P2): F(1150),
        (frozenset({1, 3}), P3): F(1380),
        (frozenset({2}), P3): F(920),
        (frozenset({2, 3}), P4): F(1380),
        (frozenset({1}), P4): F(720),
        (frozenset({1, 2, 3}), P5): F(2300),
    }
    for key, value in expected.items():
        assert cea_game.values[key] == value


def test_externalities_present(cea_game):
    assert cea_game.value({1}, P1) != cea_game.value({1}, P4)


def test_cea_bound_games(cea_game):
    minus = pessimistic_game(cea_game)
    plus = optimistic_game(cea_game)
    assert [minus.value({i}) for i in (1, 2, 3)] == [F(2000, 3), F(2300, 3), F(2300, 3)]
    assert [minus.value(s) for s in ({1, 2}, {1, 3}, {2, 3})] == [1150, 1380, 1380]
    assert minus.grand_value == 2300
    assert [plus.value({i}) for i in (1, 2, 3)] == [720, 920, 1150]
    assert [plus.value(s) for s in ({1, 2}, {1, 3}, {2, 3})] == [1150, 1380, 1380]


def test_cea_resource_games(cea_game):
    plus = resource_game(cea_game, PLUS)
    minus = resource_game(cea_game, MINUS)
    assert [plus.value({i}) for i in (1, 2, 3)] == [20, 20, 25]
    assert [plus.value(s) for s in ({1, 2}, {1, 3}, {2, 3})] == [25, 30, 30]
    assert plus.grand_value == 50
    assert [minus.value({i}) for i in (1, 2, 3)] == [F(50, 3)] * 3
    assert [minus.value(s) for s in ({1, 2}, {1, 3}, {2, 3})] == [25, 30, 30]
    assert minus.grand_value == 50
    witnesses = resource_witnesses(cea_game, PLUS)
    assert witnesses[frozenset({1})] == P4
    assert witnesses[frozenset({3})] == P2


def test_prop_exact_shares(prop_game):
    assert [prop_game.share({i}, P1) for i in (1, 2, 3)] == [
        F(200, 13), F(200, 13), F(250, 13)]
    assert prop_game.share({1, 2}, P2) == F(400, 13)
    assert prop_game.share({1, 3}, P3) == F(1150, 33)
    assert prop_game.share({2}, P3) == F(500, 33)
    assert prop_game.share({2, 3}, P4) == F(450, 13)
    assert prop_game.share({1}, P4) == F(200, 13)


def test_prop_exact_values(prop_game):
    assert prop_game.value({1}, P1) == F(8400, 13)
    assert prop_game.value({2}, P1) == F(9200, 13)
    assert prop_game.value({3}, P1) == F(11500, 13)
    assert prop_game.value({1, 2}, P2) == F(18400, 13)
    assert prop_game.value({1, 3}, P3) == F(52900, 33)
    assert prop_game.value({2}, P3) == F(23000, 33)
    assert prop_game.value({2, 3}, P4) == F(20700, 13)
    assert prop_game.grand_value == 2300


def test_prop_resource_minus(prop_game):
    minus = resource_game(prop_game, MINUS)
    assert minus.value({1}) == F(200, 13)
    assert minus.value({2}) == F(500, 33)
    assert minus.value({3}) == F(250, 13)
    assert minus.value({1, 2}) == F(400, 13)
    assert minus.value({1, 3}) == F(1150, 33)
    assert minus.value({2, 3}) == F(450, 13)
    assert minus.grand_value == 50


def test_prop_merging_gain_witness(prop_game):
    # coordinating firms 1 and 3 strictly raises their worst-case permit take
    minus = resource_game(prop_game, MINUS)
    assert minus.value({1}) + minus.value({3}) < minus.value({1, 3})


@pytest.mark.parametrize("derive", [resource_game, resource_witnesses])
def test_unknown_sense_rejected(cea_game, derive):
    with pytest.raises(ValueError, match="sense"):
        derive(cea_game, "sideways")


def test_abundant_cap_kills_externalities(example3):
    roomy = dataclasses.replace(example3, cap=F(100))
    game = build_game(roomy, "cea")
    for fs, demand in game.demands.items():
        for partition in _containing(game, fs):
            assert game.share(fs, partition) == demand
            assert game.value(fs, partition) == coalition_value(roomy, fs, demand)


def test_permit_conservation(cea_game, prop_game):
    for game in (cea_game, prop_game):
        for partition in game.partitions:
            total = sum(game.share(block, partition) for block in partition)
            claimed = sum(game.demands[frozenset(block)] for block in partition)
            assert total == min(game.situation.cap, claimed)


@pytest.mark.parametrize("rule", RULES)
def test_grand_coalition_dominates_every_structure(rule):
    rng = random.Random(RULES.index(rule) + 5)
    done = 0
    while done < 8:
        sit = support.scarce_situation(rng, n_firms=3)
        if sit is None:
            continue
        done += 1
        game = build_game(sit, rule)
        for partition in game.partitions:
            structure_total = sum(game.value(block, partition) for block in partition)
            assert game.grand_value >= structure_total


def test_resource_plus_dominates_minus_random():
    rng = random.Random(321)
    done = 0
    while done < 8:
        sit = support.scarce_situation(rng, n_firms=3)
        if sit is None:
            continue
        done += 1
        rule = random.Random(done).choice(RULES)
        game = build_game(sit, rule)
        plus = resource_game(game, PLUS)
        minus = resource_game(game, MINUS)
        for fs in plus.coalitions():
            assert plus.values[fs] >= minus.values[fs]


def test_full_award_means_structure_independent_value():
    # whenever the worst-case permit take equals the coalition's full demand,
    # every structure must hand it the same profit
    rng = random.Random(99)
    seen = 0
    while seen < 8:
        sit = support.scarce_situation(rng, n_firms=3)
        if sit is None:
            continue
        seen += 1
        individual = [support.rand_fraction(rng, 1, 3)]  # keep rng moving
        for rule in RULES:
            game = build_game(sit, rule)
            if sum(game.demands[frozenset({i})] for i in (1, 2, 3)) < sit.cap:
                continue
            minus = resource_game(game, MINUS)
            for fs in minus.coalitions():
                if minus.values[fs] == game.demands[fs]:
                    values = {game.value(fs, p) for p in _containing(game, fs)}
                    assert len(values) == 1


def _containing(game, fs):
    """Structures holding fs as a block, in enumeration order."""
    block = tuple(sorted(fs))
    return [p for p in game.partitions if block in p]


def _reference_witnesses(game, sense):
    """The min-with-key form of resource_witnesses over every cell, kept as the oracle."""
    sign = -1 if sense == PLUS else 1
    return {fs: min(_containing(game, fs),
                    key=lambda p: (sign * game.values[fs, p], game.shares[fs, p]))
            for fs in game.demands}


@pytest.fixture(scope="module", params=RULES)
def seeded_games(request, example3):
    """The reference economy and ten seeded scarce economies, two each of 2-6 firms."""
    rule = request.param
    rng = random.Random(RULES.index(rule) + 40)
    games = [build_game(example3, rule)]
    for n_firms in (2, 3, 4, 5, 6) * 2:
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=n_firms)
        games.append(build_game(sit, rule))
    return games


def test_resource_witnesses_match_the_min_with_key_oracle(seeded_games):
    for game in seeded_games:
        for sense in (PLUS, MINUS):
            assert (list(resource_witnesses(game, sense).items())
                    == list(_reference_witnesses(game, sense).items()))


def test_bound_games_match_the_min_and_max_over_every_cell(seeded_games):
    for game in seeded_games:
        for bound, pick in ((pessimistic_game, min), (optimistic_game, max)):
            expected = {fs: pick(game.values[fs, p] for p in _containing(game, fs))
                        for fs in game.demands}
            derived = bound(game)
            assert derived.values == expected
            assert list(derived.values) == derived.coalitions()


def _allocate_per_structure(sit, rule):
    """Each structure's demands allocated in Fractions and each award valued
    there, with the first structure giving each coalition its least and its
    largest share: the oracle for the one-scale tabulation."""
    demands = {fs: optimal_demand(sit, fs) for fs in lex_coalitions(sit.firms())}
    shares, values, least, largest = {}, {}, {}, {}
    for partition in enumerate_partitions(sit.n_firms):
        blocks = [frozenset(b) for b in partition]
        awards = bankruptcy.allocate(rule, [demands[b] for b in blocks], sit.cap)
        for block, award in zip(blocks, awards):
            shares[block, partition] = award
            values[block, partition] = coalition_value(sit, block, award)
            if block not in least or award < shares[block, least[block]]:
                least[block] = partition
            if block not in largest or award > shares[block, largest[block]]:
                largest[block] = partition
    return demands, shares, values, least, largest


def _identical_firms(n_firms):
    """An economy of identical firms: a coalition's award depends only on the
    block sizes of the structure, so many structures tie on each extreme."""
    sit = Situation.create(production=[[1, 2], [1, 1]], endowments=[[6] * n_firms],
                           prices=[4, 7], tax=2, cap=1)
    return dataclasses.replace(sit, cap=optimal_demand(sit, sit.firms()) / 2)


@pytest.mark.parametrize("rule", RULES)
def test_build_game_matches_the_per_structure_oracle(rule):
    rng = random.Random(RULES.index(rule) + 60)
    situations = []
    for n_firms in range(1, 8 if rule in (CEA, PROP) else 7):
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=n_firms)
        situations.append(sit)
    situations.append(dataclasses.replace(situations[3], cap=situations[3].cap * 100))
    identical = _identical_firms(5)
    situations.append(identical)
    for sit in situations:
        game = build_game(sit, rule)
        demands, shares, values, least, largest = _allocate_per_structure(sit, rule)
        assert game.demands == demands
        assert game.shares == shares and game.values == values
        assert game.least == least and game.largest == largest
        assert list(game.least) == list(game.largest) == list(demands)
        assert list(game.shares) == list(shares) and list(game.values) == list(values)
        if sit is identical:  # the ties the first-structure rule must break
            single = [p for p in game.partitions if (1,) in p]
            assert len({game.shares[frozenset({1}), p] for p in single}) < len(single) - 1


@pytest.mark.parametrize("rule", RULES)
def test_every_cell_of_a_coalition_is_keyed_by_its_demands_key(rule):
    rng = random.Random(RULES.index(rule) + 80)
    for n_firms in range(1, 7):
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=n_firms)
        game = build_game(sit, rule)
        key = {fs: fs for fs in game.demands}
        for table in (game.shares, game.values):
            assert all(fs is key[fs] for fs, _ in table)
        assert all(fs is key[fs] for fs in (*game.least, *game.largest))


def _award_beyond_claim(real):
    """The first block gets one unit more than its claim."""
    def ration(rule, claims, cap):
        nums, den = real(rule, claims, cap)
        return ((claims[0] + 1) * den, *nums[1:]), den
    return ration


def _profit_dip(real):
    """Firm 1 alone earns less at its full demand than when rationed."""
    def value(sit, members, permits):
        profit = real(sit, members, permits)
        if frozenset(members) == {1} and permits == optimal_demand(sit, [1]):
            profit -= 1000
        return profit
    return value


# (module, attribute, corruption): one award beyond its claim, or one profit
# that falls as the share rises; either breaks the monotonicity build_game checks
CORRUPTIONS = [(bankruptcy, "ration", _award_beyond_claim),
               (partition_games, "coalition_value", _profit_dip)]
# the refusal each corruption draws on the reference economy under CEA
REFUSALS = {
    _award_beyond_claim: "coalition [1]: profit is not increasing in its share "
                         "up to its demand 20 (shares 21..21)",
    _profit_dip: "coalition [1]: profit is not increasing in its share "
                 "up to its demand 20 (shares 50/3..20)",
}


@pytest.mark.parametrize("module, attr, corrupt", CORRUPTIONS)
def test_a_non_monotone_cell_is_refused(monkeypatch, example3, module, attr, corrupt):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    with pytest.raises(RuntimeError) as refused:
        build_game(example3, "cea")
    assert str(refused.value) == REFUSALS[corrupt]


@pytest.mark.parametrize("module, attr, corrupt", CORRUPTIONS)
def test_a_non_monotone_cell_exits_three(monkeypatch, capsys, module, attr, corrupt):
    fixture = Path(cli.__file__).with_name("fixtures") / "example3.json"
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    assert cli.main(["resource-games", "--scenario", str(fixture)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and "not increasing" in captured.err
    assert captured.err.count("\n") == 1


def test_non_monotone_cells_are_refused_under_python_O():
    script = """
import sys
from permit_games.reference import bundled_scenario
import test_partition_games as t
sit = bundled_scenario().situation
for module, attr, corrupt in t.CORRUPTIONS:
    real = getattr(module, attr)
    setattr(module, attr, corrupt(real))
    try:
        t.build_game(sit, "cea")
    except RuntimeError as exc:
        print("raised", exc)
    setattr(module, attr, real)
print("optimize", sys.flags.optimize)
"""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "optimize 1"
    assert lines[:-1] == [f"raised {REFUSALS[corrupt]}" for _, _, corrupt in CORRUPTIONS]
