"""Byte-for-byte replay of recorded CLI reports.

``golden_cli.json`` holds the scenario inputs and, for every analysis
command in every report format, the recorded exit code and stdout.  The
inputs are the bundled fixture under two rules plus two seeded scarce
four-firm economies.  Regenerate the file only after an intended output
change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

from permit_games import cli
from permit_games.report import FORMATS
from permit_games.scenario import Scenario, ScenarioOptions, scenario_to_dict

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURE = Path(cli.__file__).with_name("fixtures") / "example3.json"
COMMANDS = ("demands", "game", "cores", "resource-games", "pipeline", "mechanism", "trade")
# (scenario name, source, rule override); seeded sources are drawn with support
INPUTS = (
    ("fixture-cea", "fixture", "cea"),
    ("fixture-prop", "fixture", "prop"),
    ("scarce4-seed11", 11, None),
    ("scarce4-seed12", 12, None),
)
SEEDED_RULES = {11: "cea", 12: "tal"}


def _seeded_scenario(name: str, seed: int) -> dict:
    import support

    rng = random.Random(seed)
    sit = None
    while sit is None:
        sit = support.scarce_situation(rng, n_firms=4)
    scenario = Scenario(name=name, situation=sit, rule=SEEDED_RULES[seed],
                        options=ScenarioOptions())
    return scenario_to_dict(scenario)


def _cases(directory: Path, scenarios: dict):
    for name, source, rule in INPUTS:
        if source == "fixture":
            path = FIXTURE
        else:
            path = directory / f"{name}.json"
            path.write_text(json.dumps(scenarios[name]))
        for command in COMMANDS:
            for fmt in FORMATS:
                argv = [command, "--scenario", str(path), "--format", fmt]
                if rule:
                    argv += ["--rule", rule]
                yield f"{name} {command} {fmt}", argv


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_every_analysis_command_is_recorded():
    assert COMMANDS == tuple(name for name in cli.SUBCOMMANDS if name != "reproduce-paper")


def test_cli_reports_match_recording(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    cases = dict(_cases(tmp_path, golden["scenarios"]))
    assert sorted(cases) == sorted(golden["runs"])
    for key, argv in cases.items():
        code, out = _run(argv, capsys)
        recorded = golden["runs"][key]
        assert (code, out) == (recorded["exit"], recorded["stdout"]), key


def _record(directory: Path) -> dict:
    import contextlib
    import io

    scenarios = {name: _seeded_scenario(name, source)
                 for name, source, _ in INPUTS if source != "fixture"}
    runs = {}
    for key, argv in _cases(directory, scenarios):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        runs[key] = {"exit": code, "stdout": out.getvalue()}
    return {"scenarios": scenarios, "runs": runs}


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        data = _record(Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(data['runs'])} runs to {GOLDEN}")
