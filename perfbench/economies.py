"""Seeded economies for the benchmark workloads.

Economy ``i`` of a workload depends only on ``(workload, seed, i)``, so a run
can take as many as its time allows and two runs on one seed see the same
inputs in the same order.  Every economy is scarce: the cap is a share
k/9 (k = 1..8) of the grand coalition's permit demand, so rationing, the
derived games and the priced allocation are all exercised.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from permit_games.production import Situation, optimal_demand

F = Fraction


def _frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


GOODS = 3
RESOURCES = 3


def _provisional(rng: random.Random, n: int) -> Situation:
    """A valid economy with a placeholder cap of 1."""
    g, q = GOODS, RESOURCES
    full_row = rng.randrange(q)  # some resource is needed by every good
    production = [
        [_frac(rng, 1, 5) if t == full_row else _frac(rng, 0, 5) for _ in range(g)]
        for t in range(q)]
    production.append([_frac(rng, 1, 4) for _ in range(g)])
    endowments = []
    for _ in range(q):
        row = [_frac(rng, 0, 12) for _ in range(n)]
        if all(v == 0 for v in row):
            row[rng.randrange(n)] = _frac(rng, 1, 12)
        endowments.append(row)
    tax = _frac(rng, 1, 5)
    prices = [production[q][j] * tax + _frac(rng, 1, 8) for j in range(g)]
    return Situation.create(
        production=production, endowments=endowments, prices=prices, tax=tax, cap=1)


def economy(label: str, seed: int, index: int, n_firms: int) -> Situation:
    """The ``index``-th scarce economy of stream ``label`` under ``seed``."""
    rng = random.Random(f"{label}/{seed}/{index}")
    while True:
        sit = _provisional(rng, n_firms)
        grand = optimal_demand(sit, sit.firms())
        if grand > 0:
            return dataclasses.replace(sit, cap=grand * F(rng.randint(1, 8), 9))
