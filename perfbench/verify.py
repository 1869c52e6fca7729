"""Exact checks of analysis results: canonical digests and invariants.

A digest folds a result into canonical text (Fractions as ``p/q``,
coalitions as sorted member lists, everything in the engine's canonical
order) and hashes it.  The invariants hold for every seed, so they also
guard runs whose seed has no stored reference digest.  Each check returns a
list of problems; an empty list means the result passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction

from permit_games import mechanism, stability

ZERO = Fraction(0)


def q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def members(fs) -> str:
    return ",".join(str(i) for i in sorted(fs))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def game_lines(cg) -> list[str]:
    """A characteristic game's worths in lexicographic coalition order."""
    return [f"v {members(fs)} {q(cg.values[fs])}" for fs in cg.coalitions()]


def partition_game_lines(game) -> list[str]:
    out = [f"d {members(fs)} {q(d)}" for fs, d in game.demands.items()]
    for partition in game.partitions:
        for block in partition:
            fs = frozenset(block)
            out.append(f"c {'|'.join(members(b) for b in partition)} {members(fs)} "
                       f"{q(game.shares[fs, partition])} {q(game.values[fs, partition])}")
    return out


def verdict_lines(verdict) -> list[str]:
    if verdict.nonempty:
        return ["core nonempty " + " ".join(q(x) for x in verdict.witness)]
    cert = verdict.certificate
    return [f"core empty {cert.kind} {q(cert.weighted_total)} {q(cert.grand_value)}"] + [
        f"w {members(fs)} {q(w)}" for fs, w in cert.parts]


def deviation_lines(tag, dev) -> list[str]:
    if dev is None:
        return [f"{tag} none"]
    return [f"{tag} {dev.claimant} {' '.join(q(x) for x in dev.opponent_reports)} "
            f"{q(dev.deviation)} {q(dev.truthful_payoff)} {q(dev.deviant_payoff)}"]


# ---- invariants -------------------------------------------------------------

def check_awards(game) -> list[str]:
    """Each structure's awards are within the claims and sum to min(cap, claims)."""
    problems = []
    cap = game.situation.cap
    for partition in game.partitions:
        blocks = [frozenset(b) for b in partition]
        awards = [game.shares[b, partition] for b in blocks]
        claims = [game.demands[b] for b in blocks]
        if any(a < 0 or a > d for a, d in zip(awards, claims)):
            problems.append(f"award outside [0, claim] in {partition}")
        if sum(awards, ZERO) != min(cap, sum(claims, ZERO)):
            problems.append(f"awards in {partition} do not sum to min(cap, claims)")
    return problems


def check_resource(game, cg, witnesses) -> list[str]:
    """Each resource value is the coalition's share in its witnessing structure."""
    problems = []
    for fs in cg.coalitions():
        p = witnesses[fs]
        if tuple(sorted(fs)) not in p:
            problems.append(f"witness of {members(fs)} does not contain it")
        elif cg.values[fs] != game.shares[fs, p]:
            problems.append(f"resource value of {members(fs)} differs from its witness share")
    return problems


def check_core(cg, verdict) -> list[str]:
    """A witness lies in the core; a certificate is balanced and over-claims."""
    if verdict.nonempty:
        if not stability.in_core(cg, verdict.witness).ok:
            return ["core witness fails in_core"]
        return []
    cert = verdict.certificate
    problems = []
    weight = {i: ZERO for i in cg.players}
    for fs, w in cert.parts:
        if w <= 0:
            problems.append(f"nonpositive certificate weight on {members(fs)}")
        for i in fs:
            weight[i] += w
    if any(w != 1 for w in weight.values()):
        problems.append("certificate weights are not balanced")
    total = sum((w * cg.values[fs] for fs, w in cert.parts), ZERO)
    if total != cert.weighted_total or cert.grand_value != cg.grand_value:
        problems.append("certificate totals disagree with the game")
    if total <= cg.grand_value:
        problems.append("certificate does not exceed the grand value")
    return problems


def check_deviation(sit, cfg, dev) -> list[str]:
    """A reported profitable deviation recomputes through mechanism_payoff."""
    if dev is None:
        return []
    profile = list(dev.opponent_reports)
    base = mechanism.mechanism_payoff(sit, cfg, profile, dev.claimant)
    profile[dev.claimant] = dev.deviation
    deviant = mechanism.mechanism_payoff(sit, cfg, profile, dev.claimant)
    if (base, deviant) != (dev.truthful_payoff, dev.deviant_payoff) or deviant <= base:
        return [f"deviation of claimant {dev.claimant} does not recompute"]
    return []


_TABLE_CELL = re.compile(r"(-?\d+(?:/\d+)?) \(-?\d+(?:\.\d+)?\)")


def report_column(stdout: str, fmt: str, section: str, column: str) -> list[Fraction]:
    """Exact values of one column of the report section whose title starts
    with ``section``, read back from any of the three output formats."""
    if fmt == "json":
        return [Fraction(row[column]["exact"])
                for sec in json.loads(stdout)["sections"] if sec["title"].startswith(section)
                for row in sec.get("rows", ())]
    if fmt == "csv":
        return [Fraction(row["exact"]) for row in csv.DictReader(io.StringIO(stdout))
                if row["section"].startswith(section) and row["field"] == column]
    lines = stdout.splitlines()
    out = []
    for k, line in enumerate(lines):
        if not line.startswith(f"== {section}"):
            continue
        header = lines[k + 1].split("  ")
        numeric = [c.strip() for c in header if c.strip()][1:]  # first column is the firm
        for row in lines[k + 3:]:
            if not row.startswith("{"):
                break
            out.append(Fraction(_TABLE_CELL.findall(row)[numeric.index(column)]))
    return out


def check_money(values, grand) -> list[str]:
    if values and sum(values, ZERO) != grand:
        return ["priced money does not sum to the grand profit"]
    return []
