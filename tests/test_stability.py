"""Core verdicts, priced allocations and trading, pinned to the worked economy."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permit_games import cli, lp, stability
from permit_games.bankruptcy import RULES
from permit_games.games import CharacteristicGame, lex_coalitions
from permit_games.partitions import enumerate_partitions
from permit_games.partition_games import (
    MINUS,
    PLUS,
    build_game,
    optimistic_game,
    pessimistic_game,
    resource_game,
)
from permit_games.stability import (
    CoreCertificate,
    CoreVerdict,
    TargetError,
    core_nonempty,
    in_core,
    owen_allocation,
    stable_pipeline,
    trade_ledger,
)

import support

F = Fraction


def additive_game(weights):
    players = tuple(range(1, len(weights) + 1))
    values = {fs: sum(weights[i - 1] for i in fs) for fs in lex_coalitions(players)}
    return CharacteristicGame(players=players, values=values)


@pytest.fixture(scope="module")
def cea_game(example3):
    return build_game(example3, "cea")


@pytest.fixture(scope="module")
def prop_game(example3):
    return build_game(example3, "prop")


def test_pessimistic_membership(cea_game):
    minus = pessimistic_game(cea_game)
    assert in_core(minus, [700, 800, 800]).ok
    assert in_core(minus, [F(2300, 3)] * 3).ok


def test_resource_minus_membership(cea_game):
    minus = resource_game(cea_game, MINUS)
    assert in_core(minus, [F(50, 3)] * 3).ok


def test_efficiency_breach_detected(cea_game):
    minus = pessimistic_game(cea_game)
    bad = in_core(minus, [F(2000, 3), F(2300, 3), F(2300, 3)])
    assert not bad.ok and not bad.efficiency_ok


def test_first_violated_coalition_is_lexicographic(cea_game):
    minus = pessimistic_game(cea_game)
    # efficient but starves firm 1 and the pairs containing it
    result = in_core(minus, [0, 1150, 1150])
    assert not result.ok and result.efficiency_ok
    assert result.violated == frozenset({1})


def test_optimistic_core_empty(cea_game):
    verdict = core_nonempty(optimistic_game(cea_game))
    assert not verdict.nonempty
    cert = verdict.certificate
    assert cert.kind == "partition"
    assert {tuple(sorted(fs)) for fs, _ in cert.parts} == {(1,), (2,), (3,)}
    assert cert.weighted_total == 720 + 920 + 1150
    assert cert.grand_value == 2300


def test_pessimistic_core_nonempty_with_witness(cea_game):
    minus = pessimistic_game(cea_game)
    verdict = core_nonempty(minus)
    assert verdict.nonempty
    assert in_core(minus, verdict.witness).ok


def test_resource_plus_core_empty(cea_game):
    verdict = core_nonempty(resource_game(cea_game, PLUS))
    assert not verdict.nonempty
    assert verdict.certificate.kind == "partition"
    assert verdict.certificate.weighted_total == 65


def test_prop_resource_minus_core_empty(prop_game):
    verdict = core_nonempty(resource_game(prop_game, MINUS))
    assert not verdict.nonempty
    # no single structure over-claims here; the certificate needs fractional weights
    assert verdict.certificate.kind == "balanced"
    assert verdict.certificate.weighted_total > verdict.certificate.grand_value
    for fs, weight in verdict.certificate.parts:
        assert weight > 0


def test_prop_pessimistic_core_empty(prop_game):
    verdict = core_nonempty(pessimistic_game(prop_game))
    assert not verdict.nonempty


def test_additive_game_core(cea_game):
    weights = (F(5), F(7, 2), F(11))
    verdict = core_nonempty(additive_game(weights))
    assert verdict.nonempty
    assert in_core(additive_game(weights), weights).ok


def negative_game(grand):
    worths = {(1,): -5, (2,): -3, (3,): -4, (1, 2): -6, (1, 3): -7, (2, 3): -5}
    values = {frozenset(k): F(v) for k, v in worths.items()}
    values[frozenset({1, 2, 3})] = F(grand)
    return CharacteristicGame(players=(1, 2, 3), values=values)


def test_core_with_negative_worths():
    # The pair rows sum to 2(x1 + x2 + x3) >= -18, so at v(N) = -9 the core
    # is the single point where every pair row binds.
    game = negative_game(-9)
    verdict = core_nonempty(game)
    assert verdict.nonempty
    assert verdict.witness == (F(-4), F(-2), F(-3))
    assert in_core(game, verdict.witness).ok
    # At v(N) = -10 the pairs over-claim with weight 1/2 each, while no
    # partition's worths exceed v(N), so the certificate is balanced weights.
    over = negative_game(-10)
    verdict = core_nonempty(over)
    assert not verdict.nonempty
    cert = verdict.certificate
    assert cert.kind == "balanced"
    assert sorted((tuple(sorted(fs)), w) for fs, w in cert.parts) == [
        ((1, 2), F(1, 2)), ((1, 3), F(1, 2)), ((2, 3), F(1, 2))]
    assert cert.weighted_total == -9 > cert.grand_value == -10
    for player in over.players:
        assert sum(w for fs, w in cert.parts if player in fs) == 1


def _lp_first_core(game):
    """The core decision with the LP first and the partition search only
    after an empty LP, kept as the oracle for the partition-first order."""
    n, grand = len(game.players), game.grand_value
    proper, program = stability._core_program(game)
    sol = lp.solve(program)
    cheapest = -sol.objective_value
    if cheapest <= grand:
        witness = [sol.primal[2 * i] - sol.primal[2 * i + 1] for i in range(n)]
        witness[0] += grand - cheapest
        return CoreVerdict(nonempty=True, witness=tuple(witness))
    best, best_excess = None, F(0)
    for partition in enumerate_partitions(n):
        blocks = [frozenset(game.players[i - 1] for i in block) for block in partition]
        excess = sum(game.values[b] for b in blocks) - grand
        if excess > best_excess:
            best, best_excess = blocks, excess
    if best is not None:
        return CoreVerdict(nonempty=False, certificate=CoreCertificate(
            kind="partition", parts=tuple((b, F(1)) for b in best),
            weighted_total=grand + best_excess, grand_value=grand))
    parts = tuple((fs, -y) for fs, y in zip(proper, sol.dual) if y != 0)
    return CoreVerdict(nonempty=False, certificate=CoreCertificate(
        kind="balanced", parts=parts, weighted_total=cheapest, grand_value=grand))


def _derived_games(game):
    return (optimistic_game(game), pessimistic_game(game),
            resource_game(game, PLUS), resource_game(game, MINUS))


@pytest.mark.parametrize("rule", RULES)
def test_partition_first_core_matches_the_lp_first_oracle(rule, example3):
    rng = random.Random(RULES.index(rule) + 70)
    games = [build_game(example3, rule)]
    for n_firms in (3, 4, 5):
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=n_firms)
        games.append(build_game(sit, rule))
    kinds = set()
    for game in games:
        for derived in _derived_games(game):
            verdict = core_nonempty(derived)
            assert verdict == _lp_first_core(derived)
            kinds.add("nonempty" if verdict.nonempty else verdict.certificate.kind)
    # both the partition search and the LP decide some of these games
    assert "partition" in kinds and len(kinds) >= 2


def _fraction_scan(game):
    """The over-claiming partition scan in Fraction sums (the first strictly
    largest partition in enumeration order), kept as the oracle, and the
    number of partitions that reach its total."""
    n, grand = len(game.players), game.grand_value
    totals = []
    for partition in enumerate_partitions(n):
        blocks = [frozenset(game.players[i - 1] for i in block) for block in partition]
        totals.append((sum((game.values[b] for b in blocks), F(0)), blocks))
    best, best_total = None, grand
    for total, blocks in totals:
        if total > best_total:
            best, best_total = blocks, total
    if best is None:
        return None, 0
    ties = sum(total == best_total for total, _ in totals)
    return CoreCertificate(kind="partition", parts=tuple((b, F(1)) for b in best),
                           weighted_total=best_total, grand_value=grand), ties


def _small_worth_game(rng, players):
    """Worths in halves from 0 to 2, so that many partitions tie."""
    return CharacteristicGame(players=players, values={
        fs: F(rng.randint(0, 4), 2) for fs in lex_coalitions(players)})


@pytest.mark.parametrize("rule", RULES)
def test_over_claiming_scan_matches_the_fraction_scan(rule, example3):
    rng = random.Random(RULES.index(rule) + 90)
    games = list(_derived_games(build_game(example3, rule)))
    for n_firms in (2, 3, 4, 5):
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=n_firms)
        games += _derived_games(build_game(sit, rule))
    for players in ((1, 2, 3), (1, 2, 3, 4), (3, 1, 4), (2, 5, 7, 9, 11)):
        games += [_small_worth_game(rng, players) for _ in range(6)]
    found = tied = 0
    for game in games:
        expected, ties = _fraction_scan(game)
        assert stability._over_claiming_partition(game) == expected
        found += expected is not None
        tied += ties > 1
    assert found >= 10 and tied >= 5


def _flip_dual_signs(patch):
    """Core LPs whose duals come back negated: a balanced certificate with
    negative weights."""
    real = stability.solve

    def flipped(program):
        sol = real(program)
        return dataclasses.replace(sol, dual=tuple(-y for y in sol.dual))

    patch(stability, "solve", flipped)


def _drop_a_block(patch):
    """Over-claiming partitions that lose their first block."""
    real = stability._over_claiming_partition

    def dropped(game):
        cert = real(game)
        return None if cert is None else dataclasses.replace(cert, parts=cert.parts[1:])

    patch(stability, "_over_claiming_partition", dropped)


def _inflate_the_total(patch):
    real = stability._over_claiming_partition

    def inflated(game):
        cert = real(game)
        return (None if cert is None
                else dataclasses.replace(cert, weighted_total=cert.weighted_total + 1))

    patch(stability, "_over_claiming_partition", inflated)


CERTIFICATE_CORRUPTIONS = [
    (_flip_dual_signs, "prop", lambda game: resource_game(game, MINUS),
     "not a positive weight"),
    (_drop_a_block, "cea", optimistic_game, "do not sum to 1"),
    (_inflate_the_total, "cea", optimistic_game, "totals disagree"),
]


@pytest.mark.parametrize("corrupt, rule, derive, message", CERTIFICATE_CORRUPTIONS,
                         ids=["flipped-dual", "dropped-block", "inflated-total"])
def test_a_corrupted_certificate_is_refused(monkeypatch, example3, corrupt, rule, derive,
                                            message):
    game = derive(build_game(example3, rule))
    honest = core_nonempty(game).certificate
    corrupt(monkeypatch.setattr)
    with pytest.raises(RuntimeError, match=message):
        core_nonempty(game)
    monkeypatch.undo()
    assert stability._checked(game, honest) is honest


def test_a_corrupted_certificate_exits_three(monkeypatch, capsys):
    fixture = Path(cli.__file__).with_name("fixtures") / "example3.json"
    _flip_dual_signs(monkeypatch.setattr)
    assert cli.main(["cores", "--scenario", str(fixture), "--rule", "prop"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: core certificate ")
    assert captured.err.count("\n") == 1


def test_corrupted_verdicts_are_refused_under_python_O():
    script = """
import sys
import test_mechanism
import test_stability as t
from permit_games import mechanism, stability
from permit_games.reference import bundled_scenario

sit = bundled_scenario().situation
real = stability.solve, stability._over_claiming_partition, mechanism.ration
for corrupt, rule, derive, _ in t.CERTIFICATE_CORRUPTIONS:
    game = derive(t.build_game(sit, rule))
    corrupt(setattr)
    try:
        stability.core_nonempty(game)
    except RuntimeError as exc:
        print("raised", exc)
    stability.solve, stability._over_claiming_partition, mechanism.ration = real
cfg = mechanism.make_config(sit, "prop", grid=test_mechanism.REFERENCE_GRID)
test_mechanism._halve_the_walk_awards(setattr)
for check in (lambda: mechanism.dominance_check(sit, cfg),
              lambda: mechanism.equilibrium_check(sit, cfg, cfg.truthful_profile)):
    try:
        check()
    except RuntimeError as exc:
        print("raised", exc)
print("optimize", sys.flags.optimize)
"""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "optimize 1"
    assert len(lines) == 6
    for line, (_, _, _, message) in zip(lines, CERTIFICATE_CORRUPTIONS):
        assert line.startswith("raised core certificate") and message in line
    assert all(line.startswith("raised deviation of claimant ") and "does not replay" in line
               for line in lines[3:5])


def test_over_claiming_game_solves_no_core_lp(cea_game, monkeypatch):
    programs = []

    def counting(program):
        programs.append(program)
        return lp.solve(program)

    monkeypatch.setattr(stability, "solve", counting)
    verdict = core_nonempty(optimistic_game(cea_game))
    assert verdict.certificate.kind == "partition"
    assert programs == []
    assert core_nonempty(pessimistic_game(cea_game)).nonempty
    assert len(programs) == 1


def test_owen_allocation_reference(example3):
    result = owen_allocation(example3, [F(50, 3)] * 3)
    assert result.dual == (F(0), F(0), F(60))
    assert result.money == (F(2300, 3),) * 3


def test_owen_total_is_split_independent(example3):
    for split in ([20, 15, 15], [50, 0, 0], [F(50, 3)] * 3):
        result = owen_allocation(example3, split)
        assert sum(result.money) == 2300


def test_owen_preconditions(example3):
    with pytest.raises(ValueError, match="sum to the cap"):
        owen_allocation(example3, [10, 10, 10])
    import dataclasses
    roomy = dataclasses.replace(example3, cap=F(70))
    with pytest.raises(ValueError, match="does not exceed the cap"):
        owen_allocation(roomy, [F(70, 3)] * 3)


def test_single_firm_owen():
    from permit_games.production import Situation, coalition_value
    sit = Situation.create(
        production=[[1], [1]], endowments=[[4]], prices=[5], tax=1, cap=2)
    result = owen_allocation(sit, [2])
    assert result.money == (coalition_value(sit, [1], 2),)


def test_pipeline_cea(example3):
    report = stable_pipeline(example3, "cea")
    assert report.verdict == "stable"
    assert report.permit_split == (F(50, 3),) * 3
    assert report.split_membership.ok
    assert report.money.money == (F(2300, 3),) * 3
    assert report.money_membership.ok
    assert report.pairwise_floor_ok and report.cea_conditions_ok
    assert report.standalone_ok


def test_pipeline_prop_stops_negative(example3):
    report = stable_pipeline(example3, "prop")
    assert report.verdict == "permit-allocation-unstable"
    assert report.permit_split == (F(200, 13), F(200, 13), F(250, 13))
    assert not report.split_membership.ok
    assert not report.resource_core.nonempty
    assert report.money is None


def test_pipeline_abundant(example3):
    import dataclasses
    roomy = dataclasses.replace(example3, cap=F(100))
    report = stable_pipeline(roomy, "cea")
    assert report.verdict == "abundant"
    assert report.permit_split == (20, 20, 25)
    assert not report.scarce


def test_trade_ledger_reference(example3):
    ledger = trade_ledger(
        example3, [F(50, 3)] * 3, [700, 800, 800], price=50)
    assert ledger.feasible
    assert ledger.price == 50
    assert ledger.manager_revenue == 700
    by_firm = {row.firm: row for row in ledger.rows}
    assert by_firm[1].final_permits == 10
    assert by_firm[2].final_permits == 20
    assert by_firm[3].final_permits == 20
    assert by_firm[1].production_revenue == 600
    assert by_firm[2].production_revenue == 1200
    assert by_firm[1].net_sold == F(20, 3)
    assert by_firm[2].net_sold == F(-10, 3)
    assert by_firm[1].net_profit == 700
    assert by_firm[2].net_profit == 800 and by_firm[3].net_profit == 800
    assert sum(r.tax_paid for r in ledger.rows) == ledger.manager_revenue


def test_trade_ledger_no_trade_fixed_point(example3):
    # autarky profits at these holdings are already efficient, so no trades
    ledger = trade_ledger(example3, [10, 20, 20], [460, 920, 920])
    assert ledger.feasible and all(row.net_sold == 0 for row in ledger.rows)
    assert all(row.net_sold == 0 and row.trade_cash == 0 for row in ledger.rows)


def test_trade_ledger_reaches_owen_target_at_shadow_price(example3):
    target = owen_allocation(example3, [F(50, 3)] * 3).money
    ledger = trade_ledger(example3, [F(50, 3)] * 3, target)
    assert ledger.feasible
    assert ledger.price == 60  # the permit shadow price makes trades profit-neutral
    assert tuple(row.net_profit for row in ledger.rows) == target


def test_trade_ledger_solves_price_from_target(example3):
    # the same target is reachable at several prices; without one supplied the
    # ledger must still find a verifying uniform price on its own
    ledger = trade_ledger(example3, [F(50, 3)] * 3, [700, 800, 800], price=40)
    assert ledger.feasible
    recovered = trade_ledger(example3, [F(50, 3)] * 3, [700, 800, 800])
    assert recovered.feasible
    assert recovered.price > 0
    assert tuple(row.net_profit for row in recovered.rows) == (700, 800, 800)


def test_trade_ledger_handles_lopsided_target(example3):
    # even a fully lopsided efficient target has a uniform-price ledger here
    ledger = trade_ledger(example3, [F(50, 3)] * 3, [2300, 0, 0])
    assert ledger.feasible
    assert tuple(row.net_profit for row in ledger.rows) == (2300, 0, 0)


def test_trade_ledger_infeasible_target_reported(example3):
    # firm 1 would need to hold permits beyond its efficient capacity at any
    # price, so no uniform-price ledger exists for this efficient target
    ledger = trade_ledger(example3, [F(50, 3)] * 3, [-10000, 12300, 0])
    assert not ledger.feasible and ledger.reason
    at_fixed_price = trade_ledger(example3, [F(50, 3)] * 3, [-10000, 12300, 0], price=75)
    assert not at_fixed_price.feasible


def test_trade_ledger_preconditions(example3):
    with pytest.raises(ValueError, match="sum to the cap"):
        trade_ledger(example3, [10, 10, 10], [700, 800, 800])
    with pytest.raises(ValueError, match="not efficient"):
        trade_ledger(example3, [F(50, 3)] * 3, [700, 800, 700])
    # a price that is not positive is refused, also where no trade is needed
    for split, target in (([F(50, 3)] * 3, [700, 800, 800]), ([10, 20, 20], [460, 920, 920])):
        for price in (0, -5):
            with pytest.raises(TargetError, match=f"must be positive, got {price}"):
                trade_ledger(example3, split, target, price=price)


def test_theorem_style_sweep_minus_and_plus():
    # whenever the resource core has a point, pricing it spreads the grand
    # profit into the matching profit core
    rng = random.Random(1234)
    done = 0
    while done < 10:
        sit = support.scarce_situation(rng, n_firms=3)
        if sit is None:
            continue
        rule = support.random.Random(done).choice(("cea", "cel", "prop", "tal"))
        game = build_game(sit, rule)
        done += 1
        for sense, bound in ((MINUS, pessimistic_game), (PLUS, optimistic_game)):
            verdict = core_nonempty(resource_game(game, sense))
            if not verdict.nonempty:
                continue
            money = owen_allocation(sit, verdict.witness)
            assert in_core(bound(game), money.money).ok
