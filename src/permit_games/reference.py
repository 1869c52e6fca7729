"""Reference economy and the expected tables behind ``reproduce-paper``.

The bundled three-firm economy has published worked results for both the CEA
and the proportional rule.  Almost every published number is an exact
rational here.  The one exception: the published proportional profit table
was produced by first rounding the permit shares to two decimals and then
optimizing, so those profit cells are reproduced the same way (exact LP on
the two-decimal shares) while the engine itself keeps full precision; the
exact engine values are asserted separately where they are rendering-stable.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from fractions import Fraction

from .bankruptcy import CEA, PROP
from .partition_games import (
    MINUS,
    PLUS,
    build_game,
    optimistic_game,
    pessimistic_game,
    resource_game,
)
from .production import coalition_value
from .report import coalition_label, decimal_str
from .scenario import Scenario, loads_scenario
from .stability import core_nonempty, in_core, owen_allocation, trade_ledger

F = Fraction

P1 = ((1,), (2,), (3,))
P2 = ((1, 2), (3,))
P3 = ((1, 3), (2,))
P4 = ((1,), (2, 3))
P5 = ((1, 2, 3),)

EXPECTED_DEMANDS = {
    frozenset({1}): F(20), frozenset({2}): F(20), frozenset({3}): F(25),
    frozenset({1, 2}): F(40), frozenset({1, 3}): F(46), frozenset({2, 3}): F(45),
    frozenset({1, 2, 3}): F(66),
}

EXPECTED_CEA_SHARES = {
    (frozenset({1}), P1): F(50, 3), (frozenset({2}), P1): F(50, 3),
    (frozenset({3}), P1): F(50, 3),
    (frozenset({1, 2}), P2): F(25), (frozenset({3}), P2): F(25),
    (frozenset({1, 3}), P3): F(30), (frozenset({2}), P3): F(20),
    (frozenset({1}), P4): F(20), (frozenset({2, 3}), P4): F(30),
    (frozenset({1, 2, 3}), P5): F(50),
}

EXPECTED_CEA_VALUES = {
    (frozenset({1}), P1): F(2000, 3), (frozenset({2}), P1): F(2300, 3),
    (frozenset({3}), P1): F(2300, 3),
    (frozenset({1, 2}), P2): F(1150), (frozenset({3}), P2): F(1150),
    (frozenset({1, 3}), P3): F(1380), (frozenset({2}), P3): F(920),
    (frozenset({1}), P4): F(720), (frozenset({2, 3}), P4): F(1380),
    (frozenset({1, 2, 3}), P5): F(2300),
}

EXPECTED_OPTIMISTIC = {
    frozenset({1}): F(720), frozenset({2}): F(920), frozenset({3}): F(1150),
    frozenset({1, 2}): F(1150), frozenset({1, 3}): F(1380), frozenset({2, 3}): F(1380),
    frozenset({1, 2, 3}): F(2300),
}

EXPECTED_PESSIMISTIC = {
    frozenset({1}): F(2000, 3), frozenset({2}): F(2300, 3), frozenset({3}): F(2300, 3),
    frozenset({1, 2}): F(1150), frozenset({1, 3}): F(1380), frozenset({2, 3}): F(1380),
    frozenset({1, 2, 3}): F(2300),
}

EXPECTED_RESOURCE_PLUS = {
    frozenset({1}): F(20), frozenset({2}): F(20), frozenset({3}): F(25),
    frozenset({1, 2}): F(25), frozenset({1, 3}): F(30), frozenset({2, 3}): F(30),
    frozenset({1, 2, 3}): F(50),
}

EXPECTED_RESOURCE_MINUS = {
    frozenset({1}): F(50, 3), frozenset({2}): F(50, 3), frozenset({3}): F(50, 3),
    frozenset({1, 2}): F(25), frozenset({1, 3}): F(30), frozenset({2, 3}): F(30),
    frozenset({1, 2, 3}): F(50),
}

EXPECTED_PROP_SHARES = {
    (frozenset({1}), P1): F(200, 13), (frozenset({2}), P1): F(200, 13),
    (frozenset({3}), P1): F(250, 13),
    (frozenset({1, 2}), P2): F(400, 13), (frozenset({3}), P2): F(250, 13),
    (frozenset({1, 3}), P3): F(1150, 33), (frozenset({2}), P3): F(500, 33),
    (frozenset({1}), P4): F(200, 13), (frozenset({2, 3}), P4): F(450, 13),
    (frozenset({1, 2, 3}), P5): F(50),
}

EXPECTED_PROP_RESOURCE_MINUS = {
    frozenset({1}): F(200, 13), frozenset({2}): F(500, 33), frozenset({3}): F(250, 13),
    frozenset({1, 2}): F(400, 13), frozenset({1, 3}): F(1150, 33),
    frozenset({2, 3}): F(450, 13), frozenset({1, 2, 3}): F(50),
}

# Published decimal renderings of the proportional shares and, computed from
# the two-decimal shares, the published profit table.
PUBLISHED_PROP_SHARES = {
    (frozenset({1}), P1): "15.38", (frozenset({2}), P1): "15.38",
    (frozenset({3}), P1): "19.23",
    (frozenset({1, 2}), P2): "30.77", (frozenset({3}), P2): "19.23",
    (frozenset({1, 3}), P3): "34.85", (frozenset({2}), P3): "15.15",
    (frozenset({1}), P4): "15.38", (frozenset({2, 3}), P4): "34.62",
    (frozenset({1, 2, 3}), P5): "50.00",
}

PUBLISHED_PROP_VALUES = {
    (frozenset({1}), P1): "646.08", (frozenset({2}), P1): "707.48",
    (frozenset({3}), P1): "884.58",
    (frozenset({1, 2}), P2): "1415.42", (frozenset({3}), P2): "884.58",
    (frozenset({1, 3}), P3): "1603.10", (frozenset({2}), P3): "696.90",
    (frozenset({1}), P4): "646.08", (frozenset({2, 3}), P4): "1592.52",
    (frozenset({1, 2, 3}), P5): "2300.00",
}

PESSIMISTIC_WITNESS = (F(700), F(800), F(800))
RESOURCE_MINUS_WITNESS = (F(50, 3), F(50, 3), F(50, 3))
EXPECTED_DUAL = (F(0), F(0), F(60))
EXPECTED_MONEY = (F(2300, 3), F(2300, 3), F(2300, 3))
TRADE_TARGET = (F(700), F(800), F(800))
TRADE_PRICE = F(50)
EXPECTED_FINAL_HOLDINGS = (F(10), F(20), F(20))
EXPECTED_PRODUCTION_REVENUE = (F(600), F(1200), F(1200))
EXPECTED_MANAGER_REVENUE = F(700)


def bundled_scenario() -> Scenario:
    text = (importlib.resources.files("permit_games") / "fixtures" / "example3.json").read_text()
    return loads_scenario(text, name="example3")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _table_check(name, actual, expected, render=None) -> CheckResult:
    for key, want in expected.items():
        got = actual(key)
        shown = render(got) if render else got
        if shown != want:
            label = key if isinstance(key, str) else _key_label(key)
            return CheckResult(
                name, False, f"{label}: expected {want}, got {shown}")
    return CheckResult(name, True)


def _key_label(key) -> str:
    if isinstance(key, frozenset):
        return coalition_label(key)
    block, partition = key
    return f"{coalition_label(block)} in " + "|".join(
        coalition_label(b) for b in partition)


def run_reference_checks() -> list[CheckResult]:
    """Every published table of the bundled economy, one pass/fail per block."""
    checks: list[CheckResult] = []
    scenario = bundled_scenario()
    sit = scenario.situation
    checks.append(CheckResult(
        "scenario-loads", sit.tax == 14 and sit.cap == 50 and scenario.rule == CEA,
        f"tax={sit.tax} cap={sit.cap} rule={scenario.rule}"))

    cea = build_game(sit, CEA)
    checks.append(_table_check(
        "demands", lambda fs: cea.demands[fs], EXPECTED_DEMANDS))
    checks.append(_table_check(
        "cea-permit-shares", lambda key: cea.shares[key], EXPECTED_CEA_SHARES))
    checks.append(_table_check(
        "cea-partition-profits", lambda key: cea.values[key], EXPECTED_CEA_VALUES))

    plus_game = optimistic_game(cea)
    minus_game = pessimistic_game(cea)
    checks.append(_table_check(
        "optimistic-profits", lambda fs: plus_game.values[fs], EXPECTED_OPTIMISTIC))
    checks.append(_table_check(
        "pessimistic-profits", lambda fs: minus_game.values[fs], EXPECTED_PESSIMISTIC))

    optimistic_core = core_nonempty(plus_game)
    cited = (not optimistic_core.nonempty
             and optimistic_core.certificate.kind == "partition"
             and optimistic_core.certificate.weighted_total == 720 + 920 + 1150
             and optimistic_core.certificate.grand_value == 2300)
    checks.append(CheckResult(
        "optimistic-core-empty", cited,
        "singleton claims 720 + 920 + 1150 exceed the grand profit 2300"))
    checks.append(CheckResult(
        "pessimistic-core-witness", in_core(minus_game, PESSIMISTIC_WITNESS).ok,
        "(700, 800, 800) is coalitionally stable"))

    r_plus = resource_game(cea, PLUS)
    r_minus = resource_game(cea, MINUS)
    checks.append(_table_check(
        "resource-plus-table", lambda fs: r_plus.values[fs], EXPECTED_RESOURCE_PLUS))
    checks.append(_table_check(
        "resource-minus-table", lambda fs: r_minus.values[fs], EXPECTED_RESOURCE_MINUS))
    checks.append(CheckResult(
        "resource-plus-core-empty", not core_nonempty(r_plus).nonempty))
    checks.append(CheckResult(
        "resource-minus-witness", in_core(r_minus, RESOURCE_MINUS_WITNESS).ok,
        "equal split 50/3 is a stable permit allocation"))

    prop = build_game(sit, PROP)
    checks.append(_table_check(
        "prop-permit-shares", lambda key: prop.shares[key], EXPECTED_PROP_SHARES))
    checks.append(_table_check(
        "prop-share-decimals", lambda key: prop.shares[key], PUBLISHED_PROP_SHARES,
        render=lambda v: decimal_str(v, 2)))
    checks.append(_table_check(
        "prop-published-profits",
        lambda key: coalition_value(sit, key[0], round(prop.shares[key], 2)),
        PUBLISHED_PROP_VALUES, render=lambda v: decimal_str(v, 2)))
    prop_minus = resource_game(prop, MINUS)
    checks.append(_table_check(
        "prop-resource-minus-table", lambda fs: prop_minus.values[fs],
        EXPECTED_PROP_RESOURCE_MINUS))
    checks.append(CheckResult(
        "prop-resource-minus-core-empty", not core_nonempty(prop_minus).nonempty))
    checks.append(CheckResult(
        "prop-pessimistic-core-empty",
        not core_nonempty(pessimistic_game(prop)).nonempty))
    merged_gain = (
        prop_minus.values[frozenset({1})] + prop_minus.values[frozenset({3})]
        < prop_minus.values[frozenset({1, 3})])
    checks.append(CheckResult(
        "prop-merging-gain-witness", merged_gain,
        f"{decimal_str(prop_minus.values[frozenset({1})], 2)} + "
        f"{decimal_str(prop_minus.values[frozenset({3})], 2)} < "
        f"{decimal_str(prop_minus.values[frozenset({1, 3})], 2)}"))

    money = owen_allocation(sit, RESOURCE_MINUS_WITNESS)
    checks.append(CheckResult(
        "pooled-dual-solution", money.dual == EXPECTED_DUAL, f"dual={money.dual}"))
    checks.append(CheckResult(
        "priced-money-allocation",
        money.money == EXPECTED_MONEY and in_core(minus_game, money.money).ok,
        "each firm receives 2300/3 (766.67), a pessimistic-core point"))

    ledger = trade_ledger(sit, RESOURCE_MINUS_WITNESS, TRADE_TARGET, price=TRADE_PRICE)
    ledger_ok = (
        ledger.feasible
        and tuple(r.final_permits for r in ledger.rows) == EXPECTED_FINAL_HOLDINGS
        and tuple(r.production_revenue for r in ledger.rows) == EXPECTED_PRODUCTION_REVENUE
        and tuple(r.net_profit for r in ledger.rows) == TRADE_TARGET
        and ledger.manager_revenue == EXPECTED_MANAGER_REVENUE)
    checks.append(CheckResult(
        "trade-ledger", ledger_ok,
        "price 50 turns the equal split into (700, 800, 800); authority collects 700"))
    return checks
