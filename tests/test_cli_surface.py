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


def test_one_subcommand_builds_one_subparser(monkeypatch, capsys):
    add_parser = argparse._SubParsersAction.add_parser
    built = []

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli.main(["game", "--scenario", str(FIXTURE)]) == 0
    assert built == ["game"]


if __name__ == "__main__":
    data = {}
    for width in WIDTHS:
        os.environ["COLUMNS"] = str(width)
        for argv in CASES:
            data[_key(width, argv)] = _run(argv)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(data)} cases to {GOLDEN}")
