"""Command line front end.

Exit codes: 0 success, 1 negative analysis verdict (empty core, manipulable
mechanism, infeasible ledger, failed reproduction), 2 input or usage error
(one of the package's input error classes), 3 internal fault (a failed
certificate or invariant check, or any other ValueError, which is a bug and
never a verdict on the input; one ``internal error:`` line on stderr).
A command that takes ``--partition-limit`` refuses more firms than that limit
(exit 2) before any analysis runs; the library enumerates any size it is given.
Output is deterministic for identical input: no timestamps, stable ordering.
One table, ``SUBCOMMANDS``, drives parsing, help and dispatch. A call that
names a subcommand builds one parser, that subcommand's alone; the full parser
runs only for top-level help, a missing or unknown command, or arguments left
over, and reports them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import shutil
import sys
from typing import Callable, NamedTuple

from . import bankruptcy
from .games import lex_coalitions
from .lp import LpStructureError
from .mechanism import GridSizeError, dominance_check, equilibrium_check, make_config
from .partition_games import MINUS, PLUS, build_game, optimistic_game, pessimistic_game, resource_game, resource_witnesses
from .production import SituationError, optimal_demand
from .reference import run_reference_checks
from .report import FORMATS, MAX_PRECISION, Report, coalition_label, decimal_str, partition_label
from .scenario import ScenarioError, dump_scenario, exact, load_scenario, parse_grid
from .stability import CoreVerdict, TargetError, core_nonempty, stable_pipeline, trade_ledger

INPUT_ERRORS = (
    ScenarioError, SituationError, bankruptcy.RationingError,
    GridSizeError, LpStructureError, TargetError,
)

# --game choice -> (report title, derived game of a partition game); the
# lambdas look the functions up when called, so rebinding them is seen.
CORE_GAMES = {
    "optimistic": ("optimistic profits", lambda game: optimistic_game(game)),
    "pessimistic": ("pessimistic profits", lambda game: pessimistic_game(game)),
    "resource-plus": ("best-case permit allocations", lambda game: resource_game(game, PLUS)),
    "resource-minus": ("worst-case permit allocations", lambda game: resource_game(game, MINUS)),
}
CORE_CHOICES = (*CORE_GAMES, "all")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        return _dispatch(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _parse(argv) -> argparse.Namespace:
    """Parse with the parser of the subcommand that ``argv[0]`` names; the
    full parser parses anything else, and reports leftover arguments."""
    formatter = _formatter()
    if argv and argv[0] in SUBCOMMANDS:
        parser = argparse.ArgumentParser(
            prog=f"permit-games {argv[0]}", formatter_class=formatter)
        _add_options(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _build_parser(formatter).parse_args(argv)


def _formatter():
    """HelpFormatter at the width it computes itself on every construction
    (argparse builds one per ``add_argument``), computed once."""
    return functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _build_parser(formatter=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, each under ``permit-games <name>``."""
    formatter = formatter or _formatter()
    parser = argparse.ArgumentParser(
        prog="permit-games", formatter_class=formatter,
        description="Cooperative analysis of capped, taxed emission permit markets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in SUBCOMMANDS.items():
        _add_options(sub.add_parser(name, help=command.help, formatter_class=formatter), name)
    return parser


def _add_options(parser, name) -> None:
    command = SUBCOMMANDS[name]
    for flag, settings in (*command.shared, *command.options):
        parser.add_argument(flag, **settings)


def _dispatch(args) -> int:
    command = SUBCOMMANDS[args.command]
    if not command.shared:
        return command.handler(args)
    if not args.scenario:
        print("error: --scenario is required for this command", file=sys.stderr)
        return 2
    scenario = load_scenario(args.scenario)
    if args.rule:
        scenario = dataclasses.replace(scenario, rule=args.rule)
    if args.dump_scenario is not None:
        dump_scenario(scenario, args.dump_scenario)
    precision = _precision(scenario, args)  # both refused before any analysis runs
    if command.shared is LIMITED_OPTIONS:
        _check_firm_count(scenario, args)
    report, code = command.handler(scenario, args, precision)
    print(report.render(args.fmt or scenario.options.report_format, precision), end="")
    return code


def _precision(scenario, args) -> int:
    if args.precision is not None:
        if args.precision < 0:
            raise ScenarioError("--precision must be nonnegative")
        if args.precision > MAX_PRECISION:
            raise ScenarioError(f"--precision must be at most {MAX_PRECISION}")
        return args.precision
    return scenario.options.precision


def _check_firm_count(scenario, args) -> None:
    """Refuse more firms than the partition limit; the message formats no
    Bell(n) or 2^n count, which can be too long to print."""
    limit = args.partition_limit
    if limit is None:
        limit = scenario.options.partition_limit
    elif limit < 1:
        raise ScenarioError("--partition-limit must be positive")
    n = scenario.situation.n_firms
    if n > limit:
        raise ScenarioError(
            f"{n} firms exceed the partition limit of {limit} firms; "
            "raise it with --partition-limit")


def _cmd_demands(scenario, args, precision):
    sit = scenario.situation
    report = Report()
    sec = report.section(f"optimal permit demands [{scenario.name}]",
                         ["coalition", "demand"])
    for fs in lex_coalitions(sit.firms()):
        sec.add_row(coalition_label(fs), optimal_demand(sit, fs))
    return report, 0


def _cmd_game(scenario, args, precision):
    game = build_game(scenario.situation, scenario.rule)
    report = Report()
    sec = report.section(
        f"partition game under {scenario.rule} [{scenario.name}]",
        ["structure", "block", "claim", "permits", "profit"])
    for partition in game.partitions:
        for block in partition:
            fs = frozenset(block)
            sec.add_row(
                partition_label(partition), coalition_label(fs),
                game.demands[fs], game.shares[fs, partition],
                game.values[fs, partition])
    return report, 0


def _core_section(report, title, game_values, verdict: CoreVerdict, precision):
    sec = report.section(title, ["coalition", "value"])
    for fs in game_values.coalitions():
        sec.add_row(coalition_label(fs), game_values.values[fs])
    if verdict.nonempty:
        witness = ", ".join(
            f"{decimal_str(v, precision)}" for v in verdict.witness)
        sec.add_line(f"core: NONEMPTY; witness ({witness})")
    else:
        cert = verdict.certificate
        claims = " + ".join(
            f"{decimal_str(weight * game_values.values[fs], precision)}"
            if weight != 1 else decimal_str(game_values.values[fs], precision)
            for fs, weight in cert.parts)
        blocks = ", ".join(
            (f"{weight} x {coalition_label(fs)}" if weight != 1 else coalition_label(fs))
            for fs, weight in cert.parts)
        sec.add_line(
            f"core: EMPTY; {blocks} jointly claim {claims} = "
            f"{decimal_str(cert.weighted_total, precision)} > "
            f"{decimal_str(cert.grand_value, precision)} = grand value")


def _cmd_cores(scenario, args, precision):
    sit = scenario.situation
    game = build_game(sit, scenario.rule)
    chosen = CORE_GAMES if args.game == "all" else (args.game,)
    report = Report()
    all_nonempty = True
    for key in chosen:
        title, derive = CORE_GAMES[key]
        cg = derive(game)
        verdict = core_nonempty(cg)
        all_nonempty = all_nonempty and verdict.nonempty
        _core_section(
            report, f"{title} under {scenario.rule} [{scenario.name}]",
            cg, verdict, precision)
    return report, 0 if all_nonempty else 1


def _cmd_resource_games(scenario, args, precision):
    game = build_game(scenario.situation, scenario.rule)
    report = Report()
    for sense, title in ((PLUS, "best-case"), (MINUS, "worst-case")):
        sec = report.section(
            f"{title} permit allocation game under {scenario.rule} [{scenario.name}]",
            ["coalition", "permits", "witnessing structure"])
        permits = resource_game(game, sense).values
        for fs, witness in resource_witnesses(game, sense).items():
            sec.add_row(coalition_label(fs), permits[fs], partition_label(witness))
    return report, 0


def _cmd_pipeline(scenario, args, precision):
    sit = scenario.situation
    result = stable_pipeline(sit, scenario.rule)
    report = Report()
    sec = report.section(
        f"stability pipeline under {scenario.rule} [{scenario.name}]",
        ["firm", "demand", "permit split"])
    for i, firm in enumerate(sit.firms()):
        sec.add_row(coalition_label({firm}), result.individual_demands[i],
                    result.permit_split[i])
    cond = report.section("conditions")
    cond.add_line(f"cap {decimal_str(sit.cap, precision)}; grand demand "
                  f"{decimal_str(result.grand_demand, precision)}; "
                  f"scarce: {'yes' if result.scarce else 'no'}")
    cond.add_line("individual claims exceed cap: "
                  f"{'yes' if result.claims_exceed_cap else 'no'}")
    cond.add_line("pairwise demand floor (every pair covers 2*cap/n): "
                  f"{'yes' if result.pairwise_floor_ok else 'no'}")
    if result.cea_conditions_ok is not None:
        cond.add_line("equal-awards sufficient condition (rule cea, scarce, floor): "
                      f"{'yes' if result.cea_conditions_ok else 'no'}")
    if result.standalone_ok is not None:
        cond.add_line("pooled awards cover every standalone block share: "
                      f"{'yes' if result.standalone_ok else 'no'}")
    if result.split_membership is not None:
        verdict = report.section("permit split stability")
        if result.split_membership.ok:
            verdict.add_line("split lies in the core of the worst-case permit game")
        else:
            m = result.split_membership
            if not m.efficiency_ok:
                verdict.add_line("split is not efficient for the permit game")
            else:
                verdict.add_line(
                    f"coalition {coalition_label(m.violated)} gets "
                    f"{decimal_str(m.coalition_total, precision)} but can secure "
                    f"{decimal_str(m.coalition_value, precision)}")
            if result.resource_core is not None and not result.resource_core.nonempty:
                verdict.add_line("worst-case permit game core is EMPTY")
    if result.money is not None:
        money = report.section("priced profit allocation", ["firm", "profit"])
        for firm, value in zip(sit.firms(), result.money.money):
            money.add_row(coalition_label({firm}), value)
        money.add_line(
            "resource prices " +
            ", ".join(decimal_str(y, precision) for y in result.money.dual[:-1]) +
            f"; permit price {decimal_str(result.money.dual[-1], precision)}")
        money.add_line(
            "pessimistic-core membership: "
            f"{'verified' if result.money_membership.ok else 'FAILED'}")
    final = report.section("verdict")
    final.add_line(result.verdict)
    code = 0 if result.verdict in ("stable", "abundant") else 1
    return report, code


def _cmd_mechanism(scenario, args, precision):
    sit = scenario.situation
    grid = parse_grid(args.grid) if args.grid is not None else scenario.options.grid
    cfg = make_config(sit, scenario.rule, grid=grid)
    report = Report()
    sec = report.section(
        f"direct mechanism under {scenario.rule} [{scenario.name}]",
        ["claimant", "true demand", "report grid"])
    for i, (demand, grid) in enumerate(zip(cfg.true_demands, cfg.grids)):
        sec.add_row(f"{{{i + 1}}}", demand, ", ".join(str(v) for v in grid))
    dom = dominance_check(sit, cfg)
    # the truthful profile is a grid profile, so dominance implies the equilibrium
    eq_holds = dom.truthful_dominant or equilibrium_check(sit, cfg, cfg.truthful_profile).holds
    out = report.section("verdict")
    out.add_line(f"payoff cells checked: {dom.cells_checked}")
    if dom.truthful_dominant:
        out.add_line("truth-telling is a dominant strategy on this grid")
    else:
        bad = dom.counterexample
        out.add_line("truth-telling is NOT dominant:")
        out.add_line(
            f"  claimant {{{bad.claimant + 1}}} reports "
            f"{bad.deviation} against {tuple(str(v) for v in bad.opponent_reports)} "
            f"and improves {decimal_str(bad.truthful_payoff, precision)} -> "
            f"{decimal_str(bad.deviant_payoff, precision)}")
    out.add_line(
        "truthful profile is "
        + ("an equilibrium" if eq_holds else "NOT an equilibrium"))
    return report, 0 if dom.truthful_dominant else 1


def _cmd_trade(scenario, args, precision):
    sit = scenario.situation
    target = (None if args.target is None
              else tuple(exact(part.strip(), "--target") for part in args.target.split(",")))
    price = exact(args.price.strip(), "--price") if args.price is not None else None
    pipeline = stable_pipeline(sit, scenario.rule)
    if not (pipeline.scarce and pipeline.claims_exceed_cap):
        raise ScenarioError(
            "trading analysis needs a rationed cap: both the grand demand and "
            "the individual claims must exceed it")
    split = pipeline.permit_split
    if target is None:
        if pipeline.money is None:
            raise ScenarioError(
                "no default target: the pipeline produced no priced allocation; "
                "pass --target explicitly")
        target = pipeline.money.money
    ledger = trade_ledger(sit, split, target, price=price)
    report = Report()
    if not ledger.feasible:
        sec = report.section(f"trade ledger [{scenario.name}]")
        sec.add_line(f"INFEASIBLE: {ledger.reason}")
        return report, 1
    sec = report.section(
        f"trade ledger [{scenario.name}]",
        ["firm", "permits bought", "tax paid", "final permits",
         "production revenue", "net sold", "trade cash", "net profit"])
    for row in ledger.rows:
        sec.add_row(
            coalition_label({row.firm}), row.initial_permits, row.tax_paid,
            row.final_permits, row.production_revenue, row.net_sold,
            row.trade_cash, row.net_profit)
    price_line = ("no trades needed" if ledger.price is None
                  else f"uniform permit price {decimal_str(ledger.price, precision)}")
    sec.add_line(price_line)
    sec.add_line(f"authority revenue {decimal_str(ledger.manager_revenue, precision)}")
    return report, 0


def _cmd_reproduce(args) -> int:
    checks = run_reference_checks()
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "ok" if c.ok else "MISMATCH"
        detail = f"  {c.detail}" if (c.detail and not c.ok) else ""
        print(f"{c.name.ljust(width)}  {status}{detail}")
    failed = sum(not c.ok for c in checks)
    print(f"{len(checks) - failed}/{len(checks)} reference checks passed")
    return 0 if failed == 0 else 1


# (flag, add_argument settings) of the options that analysis commands share
SCENARIO_OPTIONS = (
    ("--scenario", dict(help="path to a scenario JSON file")),
    ("--rule", dict(choices=bankruptcy.RULES, help="division rule (overrides the scenario)")),
    ("--precision", dict(
        type=int, help="decimal digits in reports (default from scenario, else 2)")),
    ("--format", dict(choices=FORMATS, dest="fmt",
                      help="report format (default from scenario, else table)")),
    ("--dump-scenario", dict(
        metavar="PATH", help="write the normalized scenario back out before running")),
)
LIMITED_OPTIONS = (*SCENARIO_OPTIONS, ("--partition-limit", dict(
    type=int, help="largest firm count enumerated exhaustively")))


class Subcommand(NamedTuple):
    help: str
    handler: Callable  # (scenario, args, precision) -> (report, code); unshared: (args) -> code
    options: tuple = ()  # its own options, after the shared ones
    shared: tuple = LIMITED_OPTIONS  # () for a command that runs on no scenario


# subcommand -> everything that parses, documents and dispatches it
SUBCOMMANDS = {
    "demands": Subcommand("optimal permit demand of every coalition", _cmd_demands),
    "game": Subcommand("permit shares and profits for every coalition structure", _cmd_game),
    "cores": Subcommand("core verdicts for the derived games", _cmd_cores, (
        ("--game", dict(choices=CORE_CHOICES, default="all",
                        help="which derived game to test (default all)")),)),
    "resource-games": Subcommand("best/worst-case permit allocation games", _cmd_resource_games),
    "pipeline": Subcommand("stable permit split and priced profit allocation", _cmd_pipeline),
    "mechanism": Subcommand("truthfulness of the rule as a direct mechanism", _cmd_mechanism, (
        ("--grid", dict(help="report grid: 'auto' or comma-separated exact levels")),),
        shared=SCENARIO_OPTIONS),
    "trade": Subcommand("uniform-price trading ledger toward a target", _cmd_trade, (
        ("--target", dict(help="comma-separated exact profits (default: priced allocation)")),
        ("--price", dict(help="uniform permit price (exact literal)")))),
    "reproduce-paper": Subcommand("re-run the bundled reference economy against its "
                                  "expected tables", _cmd_reproduce, shared=()),
}


if __name__ == "__main__":
    sys.exit(main())
