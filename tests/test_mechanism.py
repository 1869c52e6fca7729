"""Truthfulness of the division rules as direct mechanisms, at grid scale."""

import collections
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permit_games import bankruptcy, mechanism
from permit_games.bankruptcy import RULES
from permit_games.mechanism import (
    Deviation,
    DominanceReport,
    EquilibriumReport,
    GridSizeError,
    MechanismConfig,
    allocate,
    dominance_check,
    equilibrium_check,
    make_config,
    mechanism_payoff,
)
from permit_games.production import Situation, coalition_value, optimal_demand

import support

F = Fraction

REFERENCE_GRID = [0, 10, F(50, 3), 20, 25, 30, 46, 50, 66]


def test_truthful_payoffs_match_singleton_structure_values(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    truthful = cfg.truthful_profile
    assert truthful == (20, 20, 25)
    payoffs = [mechanism_payoff(example3, cfg, truthful, i) for i in range(3)]
    assert payoffs == [F(2000, 3), F(2300, 3), F(2300, 3)]


def test_over_report_does_not_help_under_cea(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    honest = mechanism_payoff(example3, cfg, (20, 20, 25), 0)
    inflated = mechanism_payoff(example3, cfg, (30, 20, 25), 0)
    assert inflated <= honest


def test_zero_report_means_zero_payoff(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    assert mechanism_payoff(example3, cfg, (0, 20, 25), 0) == 0


def test_cea_dominant_on_reference_grid(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    report = dominance_check(example3, cfg)
    assert report.truthful_dominant
    assert report.counterexample is None


def test_prop_counterexample_on_reference_grid(example3):
    cfg = make_config(example3, "prop", grid=REFERENCE_GRID)
    report = dominance_check(example3, cfg)
    assert not report.truthful_dominant
    bad = report.counterexample
    assert bad.deviant_payoff > bad.truthful_payoff
    assert bad.deviation > cfg.true_demands[bad.claimant]  # gained by inflating


def test_truthful_profile_is_equilibrium_under_cea(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    assert equilibrium_check(example3, cfg, cfg.truthful_profile).holds


def test_zero_report_profile_is_not_equilibrium(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    report = equilibrium_check(example3, cfg, (0, 20, 25))
    assert not report.holds
    assert report.improving.claimant == 0


def test_truthful_prop_profile_not_equilibrium(example3):
    cfg = make_config(example3, "prop", grid=REFERENCE_GRID)
    report = equilibrium_check(example3, cfg, cfg.truthful_profile)
    assert not report.holds
    assert report.improving is not None


def test_single_claimant_truth_dominant():
    sit = Situation.create(
        production=[[1, 2], [2, 1]], endowments=[[9]], prices=[7, 8], tax=2, cap=3)
    cfg = make_config(sit, "tal", grid=[0, 1, 2, 3, 5, 9])
    assert dominance_check(sit, cfg).truthful_dominant


def test_block_claimant_structure(example3):
    merged = support.merged_situation(example3, ((1, 2), (3,)))
    cfg = make_config(merged, "cea", grid=[0, 10, 20, 25, 40, 50])
    assert cfg.true_demands == (40, 25)
    report = dominance_check(merged, cfg)
    assert report.truthful_dominant


def test_make_config_reads_the_grid_once(example3):
    cfg = make_config(example3, "cea", grid=iter([0, 10, 50]))
    assert cfg.grids == ((0, 10, 20, 50), (0, 10, 20, 50), (0, 10, 25, 50))
    assert cfg == make_config(example3, "cea", grid=[0, 10, 50])


def test_payoff_refuses_a_claimant_outside_the_firms(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    assert mechanism_payoff(example3, cfg, cfg.truthful_profile, 2) == F(2300, 3)
    for claimant in (-1, 3, 5):
        with pytest.raises(ValueError, match=f"claimant {claimant} is not one of 0..2"):
            mechanism_payoff(example3, cfg, cfg.truthful_profile, claimant)


def test_cea_dominant_on_random_instances_and_grids():
    rng = random.Random(60601)
    done = 0
    while done < 12:
        sit = support.scarce_situation(rng, n_firms=rng.randint(2, 3))
        if sit is None:
            continue
        done += 1
        extra = [support.rand_fraction(rng, 0, 12) for _ in range(3)]
        cfg = make_config(sit, "cea", grid=extra)
        report = dominance_check(sit, cfg)
        assert report.truthful_dominant, (sit, report.counterexample)
        # payoffs can never beat the profit at the true demand
        for i in range(cfg.claimants):
            cap_value = coalition_value(sit, [i + 1], cfg.true_demands[i])
            for level in cfg.grids[i]:
                profile = list(cfg.true_demands)
                profile[i] = level
                assert mechanism_payoff(sit, cfg, profile, i) <= cap_value


def test_over_report_neutrality_when_rationed():
    # if the truthful award already falls short of the true demand, inflating
    # the report leaves the award untouched
    rng = random.Random(808)
    done = 0
    while done < 20:
        sit = support.scarce_situation(rng, n_firms=3)
        if sit is None:
            continue
        demands = [optimal_demand(sit, [i]) for i in (1, 2, 3)]
        awards = allocate("cea", demands, sit.cap)
        targets = [i for i in range(3) if awards[i] < demands[i]]
        if not targets:
            continue
        done += 1
        i = targets[0]
        inflated = list(demands)
        inflated[i] = demands[i] + support.rand_fraction(rng, 1, 9)
        assert allocate("cea", inflated, sit.cap)[i] == awards[i]


def test_under_report_strictly_cuts_award_and_never_pays():
    rng = random.Random(909)
    done = 0
    while done < 20:
        sit = support.scarce_situation(rng, n_firms=3)
        if sit is None:
            continue
        cfg = make_config(sit, "cea")
        truthful = list(cfg.true_demands)
        awards = allocate("cea", truthful, sit.cap)
        candidates = [i for i in range(3) if awards[i] > 0]
        if not candidates:
            continue
        done += 1
        i = candidates[0]
        shy = list(truthful)
        shy[i] = awards[i] * F(1, 2)
        assert allocate("cea", shy, sit.cap)[i] < awards[i]
        assert mechanism_payoff(sit, cfg, shy, i) <= mechanism_payoff(sit, cfg, truthful, i)


def test_default_grid_contains_truth_and_water_level(example3):
    cfg = make_config(example3, "cea")
    for i, grid in enumerate(cfg.grids):
        assert cfg.true_demands[i] in grid
        assert F(50, 3) in grid  # truthful rationing water level


@pytest.mark.parametrize("grid", [None, REFERENCE_GRID])
def test_config_derives_each_true_demand_once(monkeypatch, example3, grid):
    calls = []

    def counted(sit, coalition):
        calls.append(tuple(coalition))
        return optimal_demand(sit, coalition)

    monkeypatch.setattr(mechanism, "optimal_demand", counted)
    make_config(example3, "cea", grid=grid)
    assert calls == [(1,), (2,), (3,)]


def test_cea_dominant_with_four_claimants():
    rng = random.Random(44)
    done = 0
    while done < 2:
        sit = support.scarce_situation(rng, n_firms=4)
        if sit is None:
            continue
        done += 1
        demands = [optimal_demand(sit, [i]) for i in range(1, 5)]
        grid = sorted({F(0), min(demands) / 2, max(demands), sit.cap})
        cfg = make_config(sit, "cea", grid=grid)
        assert dominance_check(sit, cfg).truthful_dominant


@pytest.mark.parametrize("rule", ["tal", "cel"])
def test_loss_based_rules_are_manipulable_somewhere(rule):
    # raising a claim raises the loss-sharing award, so a randomized search
    # over rationed economies must eventually exhibit a profitable deviation
    rng = random.Random(2025)
    for _ in range(60):
        sit = support.scarce_situation(rng, n_firms=rng.randint(2, 3))
        if sit is None:
            continue
        extra = [support.rand_fraction(rng, 0, 15) for _ in range(2)]
        cfg = make_config(sit, rule, grid=extra)
        if not dominance_check(sit, cfg).truthful_dominant:
            return
    pytest.fail(f"no profitable deviation found for {rule} in 60 draws")


def _reference_dominance(sit, cfg):
    """The per-cell loop: one ``mechanism_payoff`` per cell, in the order of
    ``dominance_check`` (claimant, opponent profile, deviation)."""
    k = cfg.claimants
    checked = 0
    for i in range(k):
        other_grids = [cfg.grids[j] for j in range(k) if j != i]
        for others in itertools.product(*other_grids):
            profile = list(others)
            profile.insert(i, cfg.true_demands[i])
            truthful = mechanism_payoff(sit, cfg, profile, i)
            for deviation in cfg.grids[i]:
                checked += 1
                if deviation == cfg.true_demands[i]:
                    continue
                profile[i] = deviation
                payoff = mechanism_payoff(sit, cfg, profile, i)
                if payoff > truthful:
                    profile[i] = cfg.true_demands[i]
                    return DominanceReport(
                        truthful_dominant=False, cells_checked=checked,
                        counterexample=Deviation(
                            claimant=i, opponent_reports=tuple(profile),
                            deviation=deviation, truthful_payoff=truthful,
                            deviant_payoff=payoff))
            profile[i] = cfg.true_demands[i]
    return DominanceReport(truthful_dominant=True, cells_checked=checked)


BLOCK_STRUCTURES = {
    3: [((1, 2), (3,)), ((1,), (2, 3))],
    4: [((1, 2), (3, 4)), ((1,), (2, 4), (3,)), ((1, 2, 3), (4,))],
}


def _oracle_cases(rule, count):
    """Seeded economies with 2-4 firms, some of them merged from 3-4 firms by
    a block structure, default and explicit grids."""
    rng = random.Random(7000 + RULES.index(rule))
    cases = []
    while len(cases) < count:
        n = 2 + len(cases) % 3
        sit = support.scarce_situation(rng, n_firms=n)
        if sit is None:
            continue
        if len(cases) % 2 and n >= 3:
            sit = support.merged_situation(sit, rng.choice(BLOCK_STRUCTURES[n]))
        grid = None
        if len(cases) % 4 >= 2:
            grid = [support.rand_fraction(rng, 0, 15) for _ in range(3)] + [sit.cap]
        cases.append((sit, make_config(sit, rule, grid=grid)))
    return cases


@pytest.mark.parametrize("rule", RULES)
def test_dominance_check_matches_the_per_cell_oracle(rule):
    counterexamples = 0
    for sit, cfg in _oracle_cases(rule, 12):
        report = dominance_check(sit, cfg)
        assert report == _reference_dominance(sit, cfg), (sit, cfg)
        counterexamples += not report.truthful_dominant
    if rule == "cea":
        assert counterexamples == 0
    else:  # the early exit is exercised
        assert counterexamples >= 2


def _reference_equilibrium(sit, cfg, profile):
    """One ``mechanism_payoff`` per deviation, in the order of
    ``equilibrium_check`` (claimant, deviation)."""
    profile = tuple(F(v) for v in profile)
    for i in range(cfg.claimants):
        current = mechanism_payoff(sit, cfg, profile, i)
        trial = list(profile)
        for deviation in cfg.grids[i]:
            if deviation == profile[i]:
                continue
            trial[i] = deviation
            payoff = mechanism_payoff(sit, cfg, trial, i)
            if payoff > current:
                return EquilibriumReport(
                    holds=False,
                    improving=Deviation(
                        claimant=i, opponent_reports=profile, deviation=deviation,
                        truthful_payoff=current, deviant_payoff=payoff))
    return EquilibriumReport(holds=True)


@pytest.mark.parametrize("rule", RULES)
def test_equilibrium_check_matches_the_per_cell_oracle(rule):
    rng = random.Random(8000 + RULES.index(rule))
    improving = 0
    for sit, cfg in _oracle_cases(rule, 12):
        k = cfg.claimants
        profiles = [
            cfg.truthful_profile,
            (0,) * k,
            tuple(sit.cap + d for d in cfg.true_demands),  # above every demand
            tuple(rng.choice(grid) for grid in cfg.grids),
        ]
        for profile in profiles:
            report = equilibrium_check(sit, cfg, profile)
            assert report == _reference_equilibrium(sit, cfg, profile), (sit, cfg, profile)
            improving += not report.holds
    assert improving >= 12  # the early exit is exercised


def _repeated_rows(sit, cfg, report):
    """Rows of the dominance walk before its counterexample (all rows if it
    has none) in which the claimant is not served its demand and whose claim
    multiset an earlier row of that claimant already had."""
    dev = report.counterexample
    repeated = 0
    for i in range(cfg.claimants):
        seen = set()
        for others in itertools.product(*(g for j, g in enumerate(cfg.grids) if j != i)):
            profile = list(others)
            profile.insert(i, cfg.true_demands[i])
            if dev is not None and (dev.claimant, dev.opponent_reports) == (i, tuple(profile)):
                return repeated
            if allocate(cfg.rule, profile, sit.cap)[i] != cfg.true_demands[i]:
                multiset = tuple(sorted(profile))
                repeated += multiset in seen
                seen.add(multiset)
    return repeated


def test_both_checks_match_the_per_cell_oracle_at_the_benchmark_shape():
    # Four firms, each on the grid k*cap/6 (k = 0..6) plus its own demand.
    sit = support.scarce_situation(random.Random(21), n_firms=4)
    found = {}
    for rule in RULES:
        cfg = make_config(sit, rule, grid=[k * sit.cap / 6 for k in range(7)])
        assert math.prod(len(g) for g in cfg.grids) == 8 * 8 * 7 * 8  # firm 3 demands 0
        report = dominance_check(sit, cfg)
        assert report == _reference_dominance(sit, cfg), rule
        for profile in (cfg.truthful_profile, (0,) * 4, (sit.cap,) * 4,
                        tuple(g[len(g) // 2] for g in cfg.grids)):
            assert (equilibrium_check(sit, cfg, profile)
                    == _reference_equilibrium(sit, cfg, profile)), (rule, profile)
        found[rule] = (report.truthful_dominant, _repeated_rows(sit, cfg, report))
    # counterexamples of PROP and TAL come after rows skipped as repeats
    assert found == {"cea": (True, 298), "cel": (False, 0),
                     "prop": (False, 87), "tal": (False, 254)}


def _count_work(monkeypatch):
    allocations = []
    valuations = collections.Counter()
    real_ration, real_value = mechanism.ration, mechanism.coalition_value

    def counting_ration(rule, claims, cap):
        allocations.append(tuple(claims))
        return real_ration(rule, claims, cap)

    def counting_value(sit, members, permits):
        valuations[frozenset(members), permits] += 1
        return real_value(sit, members, permits)

    monkeypatch.setattr(mechanism, "ration", counting_ration)
    monkeypatch.setattr(mechanism, "coalition_value", counting_value)
    return allocations, valuations


def _halve_the_walk_awards(patch):
    """Truthfulness awards rationed wrong in the walk only: ``mechanism_payoff``
    rations through ``allocate``, which this leaves alone."""
    real = mechanism.ration

    def halved(rule, claims, cap):
        nums, den = real(rule, claims, cap)
        return [a // 2 for a in nums], den

    patch(mechanism, "ration", halved)


@pytest.mark.parametrize("check", ["dominance", "equilibrium"])
def test_a_deviation_that_does_not_replay_is_refused(monkeypatch, example3, check):
    cfg = make_config(example3, "prop", grid=REFERENCE_GRID)
    _halve_the_walk_awards(monkeypatch.setattr)
    with pytest.raises(RuntimeError, match="does not replay"):
        if check == "dominance":
            dominance_check(example3, cfg)
        else:
            equilibrium_check(example3, cfg, cfg.truthful_profile)


def test_dominance_check_rations_each_claim_multiset_once(monkeypatch, example3):
    # Under CEA every cell is decided by integer awards: a claimant served its
    # demand skips its row, and a rationed one is never raised by a deviation.
    # The 729 profiles hold 156 distinct claim multisets, each rationed once.
    allocations, valuations = _count_work(monkeypatch)
    cea = make_config(example3, "cea", grid=REFERENCE_GRID)
    assert math.prod(len(g) for g in cea.grids) == 729
    assert dominance_check(example3, cea).truthful_dominant
    assert len(allocations) == len(set(allocations)) == 156
    assert not valuations

    del allocations[:]
    valuations.clear()
    prop = make_config(example3, "prop", grid=REFERENCE_GRID)
    assert not dominance_check(example3, prop).truthful_dominant
    # a walk that valued every cell rationed 59 profiles up to the counterexample
    assert len(allocations) == len(set(allocations)) == 11
    # the walk values the counterexample's two awards once, and its replay
    # through mechanism_payoff once more
    assert len(valuations) == 2 and set(valuations.values()) == {2}


def test_dominance_check_work_on_four_claimants(monkeypatch):
    allocations, valuations = _count_work(monkeypatch)
    rng = random.Random(44)
    sit = None
    while sit is None:
        sit = support.scarce_situation(rng, n_firms=4)
    cfg = make_config(sit, "cea")
    assert math.prod(len(g) for g in cfg.grids) == 625
    assert dominance_check(sit, cfg).truthful_dominant
    assert len(allocations) == len(set(allocations)) == 297
    assert not valuations


def test_equilibrium_check_rations_each_claim_multiset_once(monkeypatch, example3):
    # Every claimant is rationed at the truthful CEA profile, so each of its
    # deviations is rationed and none lifts its award.  The two claimants
    # that report 20 share their 8 deviation multisets.
    allocations, valuations = _count_work(monkeypatch)
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    assert cfg.truthful_profile == (20, 20, 25)
    assert equilibrium_check(example3, cfg, cfg.truthful_profile).holds
    assert len(allocations) == len(set(allocations)) == 1 + 2 * 8
    assert not valuations


def test_grid_limit_enforced(monkeypatch, example3):
    # 43 half-integer levels pass the config's bound, 3 * 43**3 cells; each
    # grid then gains its integer demand, and 3 * 44**3 cells are too many.
    allocations, valuations = _count_work(monkeypatch)
    cfg = make_config(example3, "cea", grid=[F(2 * i + 1, 2) for i in range(43)])
    assert 3 * 43 ** 3 <= mechanism.DEFAULT_CELL_LIMIT
    assert 3 * math.prod(len(g) for g in cfg.grids) > mechanism.DEFAULT_CELL_LIMIT
    with pytest.raises(GridSizeError):
        dominance_check(example3, cfg)
    with pytest.raises(GridSizeError):
        equilibrium_check(example3, cfg, cfg.truthful_profile)
    assert allocations == [] and not valuations


def test_a_grid_bound_to_exceed_the_limit_is_refused_before_any_demand(monkeypatch, example3):
    # 64 distinct levels give 3 * 64**3 cells whatever the demands add, and
    # without explicit grids every firm has at least 0 and the cap.
    monkeypatch.setattr(mechanism, "optimal_demand", lambda *args: pytest.fail("demand"))
    with pytest.raises(GridSizeError, match="3 claimants times the grid product"):
        make_config(example3, "cea", grid=list(range(64)))
    fifteen = Situation.create(production=[[1, 2], [1, 1]], endowments=[[1] * 15],
                               prices=[9, 11], tax=2, cap=3)
    with pytest.raises(GridSizeError, match="15 claimants times the grid product"):
        make_config(fifteen, "cea")


def _halving_cea(cap, claims):
    return list(claims), 2


def test_non_exhausting_rule_faults_the_mechanism_checks(monkeypatch, example3):
    monkeypatch.setitem(bankruptcy._RULE_FUNCTIONS, "cea", _halving_cea)
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    with pytest.raises(RuntimeError, match="exhaust"):
        dominance_check(example3, cfg)
    with pytest.raises(RuntimeError, match="exhaust"):
        equilibrium_check(example3, cfg, (30, 20, 25))


def _first_of_equals_cea(cap, claims):
    """Exhausts the cap, no award above its claim, but moves a half unit of
    CEA's award from the second of two equal rationed claims to the first."""
    nums, den = bankruptcy._cea(cap, claims)
    nums = [2 * a for a in nums]
    for i, j in itertools.combinations(range(len(claims)), 2):
        if claims[i] == claims[j] and 0 < nums[j] < 2 * claims[j] * den:
            nums[i] += 1
            nums[j] -= 1
            break
    return nums, 2 * den


def test_a_non_anonymous_rule_faults_the_mechanism_checks(monkeypatch, example3):
    monkeypatch.setitem(bankruptcy._RULE_FUNCTIONS, "cea", _first_of_equals_cea)
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    # rationing a profile, rather than a claim multiset, sees the favour
    assert allocate("cea", cfg.truthful_profile, example3.cap)[:2] == (F(101, 6), F(99, 6))
    with pytest.raises(RuntimeError, match="awards equal claims 20 unequally"):
        dominance_check(example3, cfg)
    with pytest.raises(RuntimeError, match="awards equal claims 20 unequally"):
        equilibrium_check(example3, cfg, cfg.truthful_profile)


def _greedy_cea(cap, claims):
    """Exhausts the cap, all of it to the first claimant, whatever it claims."""
    return [cap] + [0] * (len(claims) - 1), 1


def test_mechanism_checks_refuse_what_the_skip_rules_cannot_rely_on(monkeypatch, example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    # true demands are derived from the economy, never given
    with pytest.raises(ValueError, match="true_demands is declared with init=False"):
        dataclasses.replace(cfg, true_demands=(F(20), F(20), F(30)))
    # a negative report level, whose award the skip rules cannot judge
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(cfg, grids=((F(-5),) + cfg.grids[0],) + cfg.grids[1:])
    # a rationed truthful award above its claim
    monkeypatch.setitem(bankruptcy._RULE_FUNCTIONS, "cea", _greedy_cea)
    with pytest.raises(RuntimeError, match="more than its claim"):
        dominance_check(example3, cfg)
    with pytest.raises(RuntimeError, match="more than its claim"):
        equilibrium_check(example3, cfg, cfg.truthful_profile)


def test_mechanism_checks_refuse_a_grid_count_other_than_the_firm_count(monkeypatch, example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    allocations, valuations = _count_work(monkeypatch)
    monkeypatch.setattr(mechanism, "allocate", lambda *args: allocations.append(args))
    for grids in (cfg.grids + cfg.grids[:1], cfg.grids[:-1]):
        with pytest.raises(ValueError, match=f"{len(grids)} report grids for 3 firms"):
            dataclasses.replace(cfg, grids=grids)
    assert allocations == [] and not valuations


def test_mechanism_checks_refuse_a_grid_without_the_true_demand(example3):
    # construction adds each firm's true demand to its grid
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    untruthful = dataclasses.replace(
        cfg, grids=cfg.grids[:2] + (tuple(v for v in cfg.grids[2] if v != 25),))
    assert untruthful == cfg
    grids = MechanismConfig(example3, "cea", ((1,), (2,), (30,))).grids
    assert grids == ((1, 20), (2, 20), (25, 30))


def test_the_checks_refuse_another_economy(example3):
    cfg = make_config(example3, "cea", grid=REFERENCE_GRID)
    other = dataclasses.replace(example3, tax=F(30))  # demand of firm 1 is 40/3
    for check in (lambda: dominance_check(other, cfg),
                  lambda: equilibrium_check(other, cfg, cfg.truthful_profile),
                  lambda: mechanism_payoff(other, cfg, cfg.truthful_profile, 0)):
        with pytest.raises(ValueError, match="the config was built for another economy"):
            check()
    twin = dataclasses.replace(example3)  # an equal economy is the config's own
    assert twin is not example3 and dominance_check(twin, cfg).truthful_dominant


def test_a_config_and_both_checks_derive_each_demand_once(monkeypatch, example3):
    calls = []
    real = mechanism.optimal_demand

    def counting(sit, members):
        calls.append(tuple(members))
        return real(sit, members)

    monkeypatch.setattr(mechanism, "optimal_demand", counting)
    cfg = make_config(example3, "prop", grid=REFERENCE_GRID)
    assert not dominance_check(example3, cfg).truthful_dominant  # replays its counterexample
    assert not equilibrium_check(example3, cfg, cfg.truthful_profile).holds
    assert calls == [(1,), (2,), (3,)]


def test_non_exhausting_rule_faults_the_mechanism_checks_under_python_O():
    script = """
import dataclasses
import sys
from permit_games import bankruptcy
from permit_games.mechanism import (
    dominance_check, equilibrium_check, make_config, mechanism_payoff)
from permit_games.production import Situation
import test_mechanism
bankruptcy._RULE_FUNCTIONS["cea"] = test_mechanism._halving_cea
sit = Situation.create(production=[[2, 3], [3, 2], [1, 1]],
                       endowments=[[40, 60, 80], [60, 40, 50]],
                       prices=[50, 60], tax=14, cap=50)
cfg = make_config(sit, "cea", grid=test_mechanism.REFERENCE_GRID)
other = dataclasses.replace(sit, tax=30)
for check in (lambda: dataclasses.replace(cfg, grids=cfg.grids + cfg.grids[:1]),
              lambda: dataclasses.replace(cfg, grids=cfg.grids[:-1]),
              lambda: dataclasses.replace(cfg, grids=((-5,),) + cfg.grids[1:]),
              lambda: dominance_check(other, cfg),
              lambda: equilibrium_check(other, cfg, (30, 20, 25)),
              lambda: mechanism_payoff(other, cfg, (30, 20, 25), 0),
              lambda: dominance_check(sit, cfg),
              lambda: equilibrium_check(sit, cfg, (30, 20, 25))):
    try:
        check()
    except (RuntimeError, ValueError) as exc:
        print("raised", type(exc).__name__, exc)
for rule in (test_mechanism._greedy_cea, test_mechanism._first_of_equals_cea):
    bankruptcy._RULE_FUNCTIONS["cea"] = rule
    try:
        dominance_check(sit, cfg)
    except RuntimeError as exc:
        print("raised", type(exc).__name__, exc)
print("optimize", sys.flags.optimize)
"""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "optimize 1"
    assert len(lines) == 11
    # refused at construction or on the economy, before the halving rule rations anything
    assert lines[:6] == [
        "raised ValueError 4 report grids for 3 firms",
        "raised ValueError 2 report grids for 3 firms",
        "raised ValueError report levels must be nonnegative",
        *["raised ValueError the config was built for another economy"] * 3]
    assert all(line.startswith("raised RuntimeError") and "exhaust" in line
               for line in lines[6:8])
    assert lines[8].startswith("raised RuntimeError") and "more than its claim" in lines[8]
    assert lines[9] == "raised RuntimeError cea awards equal claims 20 unequally"
