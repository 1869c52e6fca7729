"""The four benchmark workloads.

Each workload turns ``(seed, index)`` into one input, takes it through one
analysis (the call sequence of a CLI command or two), and folds the result
into exact digest lines plus a list of invariant problems.  Library calls go
through module attributes (``partition_games.build_game``, ...) so that the
tracer's wrappers see them.

Why these four:

* cores-n5       -- ``permit-games cores --game all`` on 5-firm economies:
                    four 30-row core LPs take over 80% of the time, so the
                    core LP and the dense ``lp`` pivot show here.
* tabulate-n6    -- ``permit-games resource-games`` plus the bound games on
                    6-firm economies: 203 structures and ~300 small LPs, no
                    core LP, so tabulation and the derived-game passes show.
* mechanism-grid -- ``permit-games mechanism`` with the 7-level grid k*cap/6
                    on 4-firm economies: ~15k payoff cells that almost all
                    hit the revenue cache, so rationing and lookups show.
* cli-batch      -- ``cli.main`` for demands, game, pipeline and trade, each
                    on its own cold 3-4-firm scenario file, in table, CSV or
                    JSON: parsing, rendering, the pipeline and the
                    cold-cache per-economy cost show.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from permit_games import cli, mechanism, partition_games, production, stability
from permit_games.bankruptcy import CEA, RULES
from permit_games.report import FORMATS

import verify
from economies import economy

F = Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable  # (seed, index, workdir) -> input
    analyse: Callable     # input -> result
    lines: Callable       # result -> canonical digest lines
    check: Callable       # (input, result) -> invariant problems
    # Fixed analysis count, so that neither depends on speed: a traced run does
    # exactly this many, and a timed run reads its peak RSS when this many are done.
    batch: int


# ---- cores-n5 ---------------------------------------------------------------

DERIVED_GAMES = (
    ("optimistic", lambda g: partition_games.optimistic_game(g)),
    ("pessimistic", lambda g: partition_games.pessimistic_game(g)),
    ("resource-plus", lambda g: partition_games.resource_game(g, partition_games.PLUS)),
    ("resource-minus", lambda g: partition_games.resource_game(g, partition_games.MINUS)),
)


def _cores_input(seed, index, workdir):
    return economy("cores-n5", seed, index, n_firms=5)


def _cores(sit):
    game = partition_games.build_game(sit, CEA)
    out = []
    for name, derive in DERIVED_GAMES:
        cg = derive(game)
        out.append((name, cg, stability.core_nonempty(cg)))
    return game, out


def _cores_lines(result):
    game, cores = result
    lines = verify.partition_game_lines(game)
    for name, cg, verdict in cores:
        lines.append(name)
        lines += verify.game_lines(cg) + verify.verdict_lines(verdict)
    return lines


def _cores_check(sit, result):
    game, cores = result
    problems = verify.check_awards(game)
    for _, cg, verdict in cores:
        problems += verify.check_core(cg, verdict)
    return problems


# ---- tabulate-n6 ------------------------------------------------------------

def _tabulate_input(seed, index, workdir):
    return economy("tabulate-n6", seed, index, n_firms=6)


def _tabulate(sit):
    game = partition_games.build_game(sit, CEA)
    resource = {
        sense: (partition_games.resource_game(game, sense),
                partition_games.resource_witnesses(game, sense))
        for sense in (partition_games.PLUS, partition_games.MINUS)}
    bounds = (partition_games.optimistic_game(game), partition_games.pessimistic_game(game))
    return game, resource, bounds


def _tabulate_lines(result):
    game, resource, bounds = result
    lines = verify.partition_game_lines(game)
    for sense, (cg, witnesses) in resource.items():
        lines.append(sense)
        lines += [f"r {verify.members(fs)} {verify.q(cg.values[fs])} "
                  f"{'|'.join(verify.members(b) for b in witnesses[fs])}"
                  for fs in cg.coalitions()]
    for cg in bounds:
        lines += verify.game_lines(cg)
    return lines


def _tabulate_check(sit, result):
    game, resource, _ = result
    problems = verify.check_awards(game)
    for cg, witnesses in resource.values():
        problems += verify.check_resource(game, cg, witnesses)
    return problems


# ---- mechanism-grid ---------------------------------------------------------

def _mechanism_input(seed, index, workdir):
    return economy("mechanism-grid", seed, index, n_firms=4)


def _mechanism(sit):
    grid = [k * sit.cap / 6 for k in range(7)]
    cfg = mechanism.make_config(sit, CEA, grid=grid)
    return (cfg, mechanism.dominance_check(sit, cfg),
            mechanism.equilibrium_check(sit, cfg, cfg.truthful_profile))


def _mechanism_lines(result):
    cfg, dom, eq = result
    lines = ["g " + " ".join(verify.q(x) for x in grid) for grid in cfg.grids]
    lines.append("t " + " ".join(verify.q(x) for x in cfg.true_demands))
    lines.append(f"dominant {dom.truthful_dominant} {dom.cells_checked}")
    lines += verify.deviation_lines("counterexample", dom.counterexample)
    lines.append(f"equilibrium {eq.holds}")
    lines += verify.deviation_lines("improving", eq.improving)
    return lines


def _mechanism_check(sit, result):
    cfg, dom, eq = result
    return (verify.check_deviation(sit, cfg, dom.counterexample)
            + verify.check_deviation(sit, cfg, eq.improving))


# ---- cli-batch --------------------------------------------------------------

CLI_COMMANDS = ("demands", "game", "pipeline", "trade")
MONEY_COLUMN = {"pipeline": ("priced profit allocation", "profit"),
                "trade": ("trade ledger", "net profit")}


@dataclass(frozen=True)
class CliCase:
    """One ``cli.main`` call per command, each on its own scenario file."""

    situations: tuple[production.Situation, ...]
    argvs: tuple[tuple[str, ...], ...]
    fmt: str


def _number(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scenario_file(seed, number, path):
    rng = random.Random(f"cli-batch/{seed}/{number}/shape")
    sit = economy("cli-batch", seed, number, n_firms=rng.choice((3, 4)))
    path.write_text(json.dumps({
        "name": path.stem,
        "production": [[_number(a) for a in row] for row in sit.production],
        "endowments": [[_number(b) for b in row] for row in sit.endowments],
        "prices": [_number(p) for p in sit.prices],
        "tax": _number(sit.tax),
        "cap": _number(sit.cap),
        "rule": rng.choice(RULES),
    }))
    return sit


def _cli_input(seed, index, workdir):
    """The four commands, each on a distinct cold economy, in one format; the
    format cycles with the index."""
    fmt = FORMATS[index % len(FORMATS)]
    situations, argvs = [], []
    for k, command in enumerate(CLI_COMMANDS):
        number = len(CLI_COMMANDS) * index + k
        path = Path(workdir) / f"e{number}.json"
        situations.append(_scenario_file(seed, number, path))
        argvs.append((command, "--scenario", str(path), "--format", fmt))
    return CliCase(tuple(situations), tuple(argvs), fmt)


def _cli(case):
    results = []
    for argv in case.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        results.append((code, out.getvalue()))
    return results


def _cli_lines(result):
    return [line for code, stdout in result for line in (f"exit {code}", stdout)]


def _cli_check(case, result):
    problems = []
    for sit, argv, (code, stdout) in zip(case.situations, case.argvs, result):
        if code not in (0, 1, 2):
            problems.append(f"{argv[0]}: unexpected exit code {code}")
        elif code != 2 and argv[0] in MONEY_COLUMN:
            firms = sit.firms()
            grand = production.coalition_value(
                sit, firms, min(sit.cap, production.optimal_demand(sit, firms)))
            section, column = MONEY_COLUMN[argv[0]]
            money = verify.report_column(stdout, case.fmt, section, column)
            problems += verify.check_money(money, grand)
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("cores-n5", _cores_input, _cores, _cores_lines, _cores_check, batch=20),
    Workload("tabulate-n6", _tabulate_input, _tabulate, _tabulate_lines, _tabulate_check,
             batch=50),
    Workload("mechanism-grid", _mechanism_input, _mechanism, _mechanism_lines,
             _mechanism_check, batch=12),
    Workload("cli-batch", _cli_input, _cli, _cli_lines, _cli_check, batch=100),
)}
