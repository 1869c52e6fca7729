"""Scenario files: named-field JSON with exact numeric literals.

Numbers may be written as integers, decimal strings ("16.67") or fraction
strings ("50/3"); all are converted to exact rationals.  Bare non-integer
JSON numbers are parsed from their source text, so "14.1" in a file is the
exact rational 141/10, never a binary float.  Every number, in a file or a
flag, is read by ``exact``, which refuses a numerator or denominator of more
than ``MAX_DIGITS`` digits, and an exponent past that bound before it is
expanded.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from . import bankruptcy
from .lp import LpStructureError, as_fraction
from .production import Situation, SituationError
from .report import FORMATS, MAX_PRECISION, TABLE


DEFAULT_LIMIT = 10  # firms; the default of options.partition_limit


class ScenarioError(ValueError):
    """Parse or validation failure, with the offending field in the message."""


@dataclass(frozen=True)
class ScenarioOptions:
    precision: int = 2
    partition_limit: int = DEFAULT_LIMIT
    grid: Optional[tuple[Fraction, ...]] = None
    report_format: str = TABLE


@dataclass(frozen=True)
class Scenario:
    name: str
    situation: Situation
    rule: str
    options: ScenarioOptions


MAX_DIGITS = 1001  # so that 1e1000, 5e1000 and 1e-1000 still load
_BOUND = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*\Z")


def exact(value, where: str) -> Fraction:
    """``value`` as an exact rational whose numerator and denominator have at
    most ``MAX_DIGITS`` digits; a ``ScenarioError`` names ``where``."""
    x = None
    if not (isinstance(value, str) and _past_bound(value)):
        try:
            x = as_fraction(value)
        except LpStructureError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    if x is None or max(abs(x.numerator), x.denominator) >= _BOUND:
        raise ScenarioError(
            f"{where}: numerator or denominator has more than {MAX_DIGITS} digits")
    return x


def _past_bound(text: str) -> bool:
    """Text refused unread: longer than the interpreter's integer digit limit,
    or with an exponent above ``MAX_DIGITS`` plus its length, which takes
    any nonzero mantissa past the bound."""
    m = _EXPONENT.search(text)
    return len(text) > sys.get_int_max_str_digits() or (
        m is not None and int(m.group(1).replace("_", "")) > MAX_DIGITS + len(text))


def _matrix(raw, where: str) -> list[list[Fraction]]:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise ScenarioError(f"{where}: expected a list of rows")
    return [
        [exact(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(raw)]


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object with named fields")
    unknown = set(data) - {
        "name", "production", "endowments", "prices", "tax", "cap", "rule", "options"}
    if unknown:
        raise ScenarioError(f"unknown fields: {', '.join(sorted(unknown))}")
    for required in ("production", "endowments", "prices", "tax", "cap"):
        if required not in data:
            raise ScenarioError(f"missing field: {required}")
    if not isinstance(data["prices"], list):
        raise ScenarioError("prices: expected a list")
    try:
        situation = Situation.create(
            production=_matrix(data["production"], "production"),
            endowments=_matrix(data["endowments"], "endowments"),
            prices=[exact(p, f"prices[{j}]") for j, p in enumerate(data["prices"])],
            tax=exact(data["tax"], "tax"),
            cap=exact(data["cap"], "cap"),
        )
    except SituationError as exc:
        raise ScenarioError(str(exc)) from None
    rule = data.get("rule", bankruptcy.CEA)
    try:
        rule = bankruptcy.check_rule(rule)
    except bankruptcy.RationingError as exc:
        raise ScenarioError(f"rule: {exc}") from None
    options = _options_from_dict(data.get("options", {}))
    return Scenario(
        name=str(data.get("name", name)), situation=situation, rule=rule,
        options=options)


def _options_from_dict(raw) -> ScenarioOptions:
    if not isinstance(raw, dict):
        raise ScenarioError("options: expected an object")
    unknown = set(raw) - {"precision", "partition_limit", "grid", "format"}
    if unknown:
        raise ScenarioError(f"options: unknown fields: {', '.join(sorted(unknown))}")
    options = ScenarioOptions()
    if "precision" in raw:
        precision = raw["precision"]
        if not isinstance(precision, int) or isinstance(precision, bool) or precision < 0:
            raise ScenarioError("options.precision: expected a nonnegative integer")
        if precision > MAX_PRECISION:
            raise ScenarioError(f"options.precision: expected at most {MAX_PRECISION} digits")
        options = replace(options, precision=precision)
    if "partition_limit" in raw:
        limit = raw["partition_limit"]
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ScenarioError("options.partition_limit: expected a positive integer")
        options = replace(options, partition_limit=limit)
    if "grid" in raw and raw["grid"] is not None:
        options = replace(options, grid=parse_grid(raw["grid"]))
    if "format" in raw:
        fmt = raw["format"]
        if fmt not in FORMATS:
            raise ScenarioError(
                f"options.format: {fmt!r} is not one of {', '.join(FORMATS)}")
        options = replace(options, report_format=fmt)
    return options


def parse_grid(spec: Union[str, list, None]) -> Optional[tuple[Fraction, ...]]:
    """A grid of nonnegative levels: 'auto' (None), a comma list like '0,10,50/3', or a JSON list."""
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec.strip().lower() == "auto":
            return None
        levels = tuple(exact(p.strip(), "grid") for p in spec.split(",") if p.strip())
    elif isinstance(spec, list):
        levels = tuple(exact(v, f"grid[{j}]") for j, v in enumerate(spec))
    else:
        raise ScenarioError("grid: expected 'auto', a comma list, or a JSON list")
    if not levels:
        raise ScenarioError("grid: empty specification")
    if any(v < 0 for v in levels):
        raise ScenarioError("report levels must be nonnegative")
    return levels


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    return loads_scenario(text, name=path.stem)


def loads_scenario(text: str, name: str = "scenario") -> Scenario:
    try:
        data = json.loads(text, parse_float=str)  # read later by exact
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # a literal past the interpreter's integer digit limit
        raise ScenarioError(
            f"a number literal has more than {sys.get_int_max_str_digits()} digits") from None
    return scenario_from_dict(data, name=name)


def _number_out(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def scenario_to_dict(scenario: Scenario) -> dict:
    sit = scenario.situation
    out = {
        "name": scenario.name,
        "production": [[_number_out(a) for a in row] for row in sit.production],
        "endowments": [[_number_out(b) for b in row] for row in sit.endowments],
        "prices": [_number_out(p) for p in sit.prices],
        "tax": _number_out(sit.tax),
        "cap": _number_out(sit.cap),
        "rule": scenario.rule,
        "options": {
            "precision": scenario.options.precision,
            "partition_limit": scenario.options.partition_limit,
            "grid": (None if scenario.options.grid is None
                     else [_number_out(v) for v in scenario.options.grid]),
            "format": scenario.options.report_format,
        },
    }
    return out


def dump_scenario(scenario: Scenario, path) -> None:
    if path == "":
        raise ScenarioError("cannot write a scenario to an empty path")
    path = Path(path)
    try:
        path.write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from None
