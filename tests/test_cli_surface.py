"""Byte-for-byte replay of the CLI's help, usage and argument refusals.

``golden_cli_surface.json`` holds, for every case and terminal width, the
exit code, stdout and stderr of ``cli.main``.  Regenerate it only after an
intended change to the command line surface, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permit_games import cli

GOLDEN = Path(__file__).with_name("golden_cli_surface.json")
FIXTURE = Path(cli.__file__).with_name("fixtures") / "example3.json"
WIDTHS = (80, 200)
SUBCOMMANDS = ("demands", "game", "cores", "resource-games", "pipeline",
               "mechanism", "trade", "reproduce-paper")
CASES = (
    ("-h",), ("--help",),
    *((name, "-h") for name in SUBCOMMANDS),
    (),
    ("frobnicate",),
    ("game", "--bogus"),
    ("game", "--format", "xml"),
    ("cores", "--game", "x"),
    ("game", "--precision", "x"),
    ("demands", "--rule", "zzz"),
    ("mechanism", "--partition-limit", "3"),
    ("reproduce-paper", "--scenario", "x"),
    ("game", "--scenario", "x", "extra"),
    ("demands", "--form", "xml"),
    ("trade", "--price"),
    ("cores", "--game=x"),
    ("pipeline", "--format", "json", "-h"),
    ("game", "--scen"),
    ("mechanism", "--grid", "1", "--grid"),
    ("game", "--", "--scenario"),
    ("demands", "-x"),
    ("game", "--rule", "cea", "--rule", "bogus"),
)


def _key(width, argv) -> str:
    return f"{width} {' '.join(argv) or '(none)'}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("width", WIDTHS)
def test_cli_surface_matches_recording(monkeypatch, width):
    monkeypatch.setenv("COLUMNS", str(width))
    golden = json.loads(GOLDEN.read_text())
    for argv in CASES:
        key = _key(width, argv)
        assert _run(argv) == golden[key], key


def test_module_entry_point_prints_recorded_help():
    recorded = json.loads(GOLDEN.read_text())[_key(80, ("-h",))]
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-m", "permit_games.cli", "-h"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert {"exit": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr} == recorded


@pytest.fixture()
def parsers_built(monkeypatch):
    """The ``prog`` of every ArgumentParser built, in order."""
    init = argparse.ArgumentParser.__init__
    built = []

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


FULL_PARSER = ["permit-games", *(f"permit-games {name}" for name in SUBCOMMANDS)]


def test_one_subcommand_builds_one_subparser(parsers_built, capsys):
    assert cli.main(["game", "--scenario", str(FIXTURE)]) == 0
    assert parsers_built == ["permit-games game"]


def test_leftover_arguments_fall_back_to_the_full_parser(parsers_built, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["game", "--scenario", str(FIXTURE), "extra"])
    assert exc.value.code == 2
    assert parsers_built == ["permit-games game", *FULL_PARSER]
    assert "permit-games: error: unrecognized arguments: extra" in capsys.readouterr().err


# flag -> (a value, another value) for every option of every subcommand
VALUES = {
    "--scenario": ("a.json", "b.json"), "--rule": ("cea", "prop"),
    "--precision": ("3", "0"), "--format": ("csv", "json"),
    "--dump-scenario": ("out.json", "out2.json"), "--partition-limit": ("4", "9"),
    "--game": ("optimistic", "resource-minus"), "--grid": ("auto", "0,1/2"),
    "--target": ("1,2,3", "4/3"), "--price": ("1/2", "7"),
}


def _argvs(name):
    flags = [flag for flag, _ in (*cli.SUBCOMMANDS[name].shared, *cli.SUBCOMMANDS[name].options)]
    assert set(flags) <= set(VALUES)
    yield [name]
    for flag in flags:
        first, second = VALUES[flag]
        yield [name, flag, first]
        yield [name, f"{flag}={first}"]
        yield [name, flag, first, flag, second]  # the last one wins
    yield [name, *(arg for flag in flags for arg in (flag, VALUES[flag][0]))]
    yield [name, *(f"{flag}={VALUES[flag][1]}" for flag in reversed(flags))]
    if "--scenario" in flags:
        yield [name, "--scen", "a.json", "--form", "json"]  # unique prefixes
        yield [name, "--form=csv", "--scen=b.json"]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_parser_parses_as_the_full_parser(parsers_built, name):
    for argv in _argvs(name):
        parsers_built.clear()
        args = vars(cli._parse(argv))
        assert parsers_built == [f"permit-games {name}"], argv
        assert args == vars(cli._build_parser().parse_args(argv)), argv


if __name__ == "__main__":
    data = {}
    for width in WIDTHS:
        os.environ["COLUMNS"] = str(width)
        for argv in CASES:
            data[_key(width, argv)] = _run(argv)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(data)} cases to {GOLDEN}")
