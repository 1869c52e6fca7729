"""Acceptance gate: the worked reference tables plus the property sweeps.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to watch).
All comparisons are exact rational equalities unless a check is explicitly
about two-decimal rendering.
"""

import itertools
import random
from fractions import Fraction

import pytest

from permit_games import lp, reference
from permit_games.bankruptcy import RULES
from permit_games.mechanism import allocate, dominance_check, make_config, mechanism_payoff
from permit_games.partition_games import (
    MINUS,
    PLUS,
    build_game,
    optimistic_game,
    pessimistic_game,
    resource_game,
)
from permit_games.production import coalition_value, optimal_demand
from permit_games.report import decimal_str
from permit_games.stability import core_nonempty, in_core, owen_allocation, stable_pipeline, trade_ledger

import support
from support import bankruptcy_game

F = Fraction


def report(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status}: {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def test_criterion_01_reference_economy_tables(example3):
    game = build_game(example3, "cea")
    ok = all(
        game.demands[fs] == want for fs, want in reference.EXPECTED_DEMANDS.items())
    ok = ok and all(
        game.shares[key] == want for key, want in reference.EXPECTED_CEA_SHARES.items())
    ok = ok and all(
        game.values[key] == want for key, want in reference.EXPECTED_CEA_VALUES.items())
    # two-decimal rendering agrees with the published tables
    ok = ok and decimal_str(game.shares[frozenset({1}), reference.P1], 2) == "16.67"
    ok = ok and decimal_str(game.values[frozenset({1}), reference.P1], 2) == "666.67"
    ok = ok and decimal_str(game.values[frozenset({2}), reference.P1], 2) == "766.67"
    report(1, "demands, CEA permit shares and profits reproduce exactly", ok)


def test_criterion_02_optimistic_empty_pessimistic_witness(example3):
    game = build_game(example3, "cea")
    verdict = core_nonempty(optimistic_game(game))
    cert = verdict.certificate
    cited = (not verdict.nonempty and cert is not None
             and cert.kind == "partition"
             and sorted(tuple(sorted(fs)) for fs, _ in cert.parts)
             == [(1,), (2,), (3,)]
             and cert.weighted_total == 720 + 920 + 1150
             and cert.weighted_total > cert.grand_value == 2300)
    member = in_core(pessimistic_game(game), [700, 800, 800]).ok
    report(2, "optimistic core empty citing 720 + 920 + 1150 > 2300; "
              "(700, 800, 800) in the pessimistic core", cited and member)


def test_criterion_03_resource_game_tables(example3):
    game = build_game(example3, "cea")
    plus = resource_game(game, PLUS)
    minus = resource_game(game, MINUS)
    ok = all(plus.values[fs] == want
             for fs, want in reference.EXPECTED_RESOURCE_PLUS.items())
    ok = ok and all(minus.values[fs] == want
                    for fs, want in reference.EXPECTED_RESOURCE_MINUS.items())
    ok = ok and not core_nonempty(plus).nonempty
    ok = ok and in_core(minus, [F(50, 3)] * 3).ok
    report(3, "best/worst-case permit tables; best-case core empty; "
              "equal split stable in the worst case", ok)


def test_criterion_04_proportional_rule_tables(example3):
    game = build_game(example3, "prop")
    ok = all(game.shares[key] == want
             for key, want in reference.EXPECTED_PROP_SHARES.items())
    ok = ok and all(
        decimal_str(game.shares[key], 2) == want
        for key, want in reference.PUBLISHED_PROP_SHARES.items())
    # the published profit table was computed from two-decimal shares
    ok = ok and all(
        decimal_str(
            coalition_value(example3, key[0], round(game.shares[key], 2)), 2)
        == want for key, want in reference.PUBLISHED_PROP_VALUES.items())
    minus = resource_game(game, MINUS)
    ok = ok and not core_nonempty(minus).nonempty
    ok = ok and not core_nonempty(pessimistic_game(game)).nonempty
    one, three, pair = (minus.values[frozenset({1})], minus.values[frozenset({3})],
                        minus.values[frozenset({1, 3})])
    witness = (one + three < pair
               and (decimal_str(one, 2), decimal_str(three, 2), decimal_str(pair, 2))
               == ("15.38", "19.23", "34.85"))
    report(4, "proportional tables match to 0.01; both cores empty; "
              "merging witness 15.38 + 19.23 < 34.85", ok and witness,
           "profit cells reproduced from two-decimal shares as published")


def test_criterion_05_priced_allocation_and_trading(example3):
    money = owen_allocation(example3, [F(50, 3)] * 3)
    ok = money.dual == (0, 0, 60)
    ok = ok and money.money == (F(2300, 3),) * 3
    ok = ok and decimal_str(money.money[0], 2) == "766.67"
    ok = ok and in_core(pessimistic_game(build_game(example3, "cea")), money.money).ok
    ledger = trade_ledger(example3, [F(50, 3)] * 3, [700, 800, 800], price=50)
    ok = ok and ledger.feasible and ledger.price == 50
    ok = ok and tuple(r.net_profit for r in ledger.rows) == (700, 800, 800)
    ok = ok and tuple(r.final_permits for r in ledger.rows) == (10, 20, 20)
    ok = ok and ledger.manager_revenue == 700
    report(5, "dual (0, 0, 60), priced allocation 766.67 each, trade ledger to "
              "(700, 800, 800) at price 50, authority revenue 700", ok)


def _collect_situations(count, seed, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sit = support.scarce_situation(rng, **kwargs)
        if sit is not None:
            out.append(sit)
    return out


def test_criterion_06_grand_coalition_dominates_every_structure():
    rng = random.Random(606)
    situations = []
    while len(situations) < 200:
        n = rng.choice((2, 2, 3, 3, 3, 4))
        sit = support.scarce_situation(rng, n_firms=n)
        if sit is not None:
            situations.append(sit)
    violations = 0
    for sit in situations:
        for rule in RULES:
            game = build_game(sit, rule)
            for partition in game.partitions:
                total = sum(game.values[frozenset(block), partition] for block in partition)
                if game.grand_value < total:
                    violations += 1
    report(6, f"grand profit dominates every structure total on "
              f"{len(situations)} economies x 4 rules", violations == 0,
           f"{violations} violations")


def test_criterion_07_resource_core_point_prices_into_profit_core():
    rng = random.Random(707)
    exercised = {MINUS: 0, PLUS: 0}
    violations = 0
    instances = 0
    while instances < 70:
        sit = support.scarce_situation(rng, n_firms=rng.choice((2, 3, 3)))
        if sit is None:
            continue
        instances += 1
        rule = RULES[instances % len(RULES)]
        game = build_game(sit, rule)
        for sense, profits in ((MINUS, pessimistic_game), (PLUS, optimistic_game)):
            verdict = core_nonempty(resource_game(game, sense))
            if not verdict.nonempty:
                continue
            exercised[sense] += 1
            money = owen_allocation(sit, verdict.witness)
            if not in_core(profits(game), money.money).ok:
                violations += 1
    ok = violations == 0 and exercised[MINUS] >= 25 and exercised[PLUS] >= 10
    report(7, "every resource-core point priced through the dual lands in the "
              "matching profit core", ok,
           f"{exercised[MINUS]} worst-case and {exercised[PLUS]} best-case runs")


def test_criterion_08_cea_pipeline_under_demand_floor():
    rng = random.Random(808)
    import dataclasses
    runs = 0
    violations = []
    while runs < 60:
        sit = support.rand_situation(rng, n_firms=rng.choice((2, 3, 3, 4)))
        n = sit.n_firms
        demands = [optimal_demand(sit, [i]) for i in sit.firms()]
        grand = optimal_demand(sit, sit.firms())
        floor = min(demands[i] + demands[j] for i in range(n) for j in range(n))
        bound = min(grand, F(n, 2) * floor)
        if bound <= 0:
            continue
        cap = bound * F(rng.randint(1, 8), 9)
        sit = dataclasses.replace(sit, cap=cap)
        runs += 1
        result = stable_pipeline(sit, "cea")
        if not (result.scarce and result.claims_exceed_cap):
            violations.append("preconditions lost")
            continue
        if not result.pairwise_floor_ok:
            violations.append("floor lost")
            continue
        if result.verdict != "stable" or not result.money_membership.ok:
            violations.append(f"verdict {result.verdict}")
        if not result.standalone_ok:
            violations.append("pooled awards fell below a standalone share")
    report(8, f"CEA pipeline yields a verified pessimistic-core point and the "
              f"pooled-award inequality on {runs} economies", not violations,
           "; ".join(violations[:3]))


def test_criterion_09_truthfulness_of_cea_at_grid_scale(example3):
    rng = random.Random(909)
    runs = 0
    counterexamples = 0
    bound_breaks = 0
    while runs < 50:
        sit = support.scarce_situation(rng, n_firms=rng.choice((2, 3, 3)))
        if sit is None:
            continue
        runs += 1
        extra = support.rand_fraction(rng, 0, 10)
        cfg = make_config(sit, "cea", grid=[extra])  # defaults add up to 6 levels
        assert all(len(g) <= 6 for g in cfg.grids)
        outcome = dominance_check(sit, cfg)
        if not outcome.truthful_dominant:
            counterexamples += 1
        for i in range(cfg.claimants):
            best = coalition_value(sit, [i + 1], cfg.true_demands[i])
            for level in cfg.grids[i]:
                profile = list(cfg.true_demands)
                profile[i] = level
                if mechanism_payoff(sit, cfg, profile, i) > best:
                    bound_breaks += 1
    prop_cfg = make_config(
        example3, "prop", grid=[0, 10, F(50, 3), 20, 25, 30, 46, 50, 66])
    prop_outcome = dominance_check(example3, prop_cfg)
    neutral_fail, cut_fail = _proof_case_invariants()
    ok = (counterexamples == 0 and bound_breaks == 0
          and not prop_outcome.truthful_dominant
          and neutral_fail == 0 and cut_fail == 0)
    report(9, f"truthful CEA dominant on {runs} random economies; proportional "
              f"counterexample found; report-shading invariants hold", ok,
           f"prop deviation: claimant {prop_outcome.counterexample.claimant + 1} "
           f"reports {prop_outcome.counterexample.deviation}")


def _proof_case_invariants():
    rng = random.Random(910)
    neutral_fail = 0
    cut_fail = 0
    done = 0
    while done < 25:
        sit = support.scarce_situation(rng, n_firms=3)
        if sit is None:
            continue
        done += 1
        demands = [optimal_demand(sit, [i]) for i in (1, 2, 3)]
        awards = allocate("cea", demands, sit.cap)
        cfg = make_config(sit, "cea")
        for i in range(3):
            if awards[i] < demands[i]:
                # over-reporting changes nothing once the award is rationed
                inflated = list(demands)
                inflated[i] = demands[i] + 1 + support.rand_fraction(rng, 0, 5)
                if allocate("cea", inflated, sit.cap)[i] != awards[i]:
                    neutral_fail += 1
            if awards[i] > 0:
                # shading below the award strictly cuts it and never pays
                shy = list(demands)
                shy[i] = awards[i] * F(rng.randint(1, 3), 4)
                if allocate("cea", shy, sit.cap)[i] >= awards[i]:
                    cut_fail += 1
                if (mechanism_payoff(sit, cfg, shy, i)
                        > mechanism_payoff(sit, cfg, demands, i)):
                    cut_fail += 1
    return neutral_fail, cut_fail


def test_criterion_10_rule_axioms_and_game_cores():
    rng = random.Random(1010)
    problems = [support.rand_bankruptcy_problem(rng) for _ in range(500)]
    failures = 0
    for prob in problems:
        game = bankruptcy_game(prob)
        for rule in RULES:
            awards = allocate(rule, *prob)
            if sum(awards) != prob.estate:
                failures += 1
            if any(not (0 <= a <= d) for a, d in zip(awards, prob.claims)):
                failures += 1
            pairs = itertools.combinations(zip(awards, prob.claims), 2)
            for (ai, di), (aj, dj) in pairs:
                if di == dj and ai != aj:
                    failures += 1
                if di < dj and (ai > aj or di - ai > dj - aj):
                    failures += 1
            if not in_core(game, awards).ok:
                failures += 1
        cea = allocate("cea", prob.claims, prob.estate)
        for k, j in itertools.combinations(range(len(prob.claims)), 2):
            merged = [d for idx, d in enumerate(prob.claims) if idx not in (k, j)]
            merged.append(prob.claims[k] + prob.claims[j])
            if allocate("cea", merged, prob.estate)[-1] > cea[k] + cea[j]:
                failures += 1
    report(10, "rule axioms, CEA merging proofness and game-core membership "
               "hold on 500 random problems", failures == 0,
           f"{failures} failures")


def test_criterion_11_solver_matches_enumeration_oracle():
    rng = random.Random(1111)
    solved = 0
    mismatches = 0
    for _ in range(200):
        program = support.rand_bounded_program(rng, max_vars=4, max_rows=4)
        sol = lp.solve(program)
        expected = support.oracle_optimum(program)
        if expected is None:
            if sol.status != lp.INFEASIBLE:
                mismatches += 1
        else:
            solved += 1
            if sol.status != lp.OPTIMAL or sol.objective_value != expected:
                mismatches += 1
    report(11, f"solver agrees with basic-solution enumeration on 200 random "
               f"programs ({solved} solvable)", mismatches == 0,
           f"{mismatches} mismatches")


def test_reference_check_battery():
    results = reference.run_reference_checks()
    bad = [c for c in results if not c.ok]
    assert not bad, bad
