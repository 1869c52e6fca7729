"""Byte-for-byte replay of recorded exact LP solutions.

``golden_lp.json`` holds about 150 seeded programs and, for each, the
status, objective value, primal and dual the solver returned, every number
written as a ``p/q`` string.  The programs are random bounded programs,
programs with degenerate right-hand sides, with free variables, with finite
lower and upper bounds, with a redundant ``=`` row (its artificial stays
basic), and the core programs of seeded four- and five-firm derived games.
Any change to the pivot sequence that moves a vertex or a dual shows here.
Regenerate the file only after an intended output change, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden_lp.py
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from permit_games import lp

GOLDEN = Path(__file__).with_name("golden_lp.json")

F = Fraction

# Beale (1955): Dantzig's largest-coefficient rule cycles on this program.
BEALE = lp.linear_program(
    [F(3, 4), -20, F(1, 2), -6],
    [([F(1, 4), -8, -1, 9], lp.LE, 0),
     ([F(1, 2), -12, F(-1, 2), 3], lp.LE, 0),
     ([0, 0, 1, 0], lp.LE, 1)],
)


def _pq(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _vector(values):
    return None if values is None else [None if v is None else _pq(v) for v in values]


def _parse(values):
    return None if values is None else tuple(None if v is None else F(v) for v in values)


def _encode_program(program: lp.LinearProgram) -> dict:
    return {
        "objective": _vector(program.objective),
        "rows": [_vector(row) for row in program.rows],
        "senses": list(program.senses),
        "rhs": _vector(program.rhs),
        "lower": _vector(program.lower),
        "upper": _vector(program.upper),
    }


def _decode_program(data: dict) -> lp.LinearProgram:
    return lp.LinearProgram(
        objective=_parse(data["objective"]),
        rows=tuple(_parse(row) for row in data["rows"]),
        senses=tuple(data["senses"]),
        rhs=_parse(data["rhs"]),
        lower=_parse(data["lower"]),
        upper=_parse(data["upper"]),
    )


def _encode_solution(sol: lp.LpSolution) -> dict:
    return {
        "status": sol.status,
        "objective_value": None if sol.objective_value is None else _pq(sol.objective_value),
        "primal": _vector(sol.primal),
        "dual": _vector(sol.dual),
    }


def test_lp_solutions_match_recording():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) >= 150
    for case in golden:
        sol = lp.solve(_decode_program(case["program"]))
        assert _encode_solution(sol) == case["solution"], case["name"]


def test_beale_cycling_example_terminates_at_the_optimum():
    import support

    sol = lp.solve(BEALE)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == F(5, 4) == support.oracle_optimum(BEALE)
    assert sol.primal == (1, 0, 1, 0)


def _rebuild(program, rows=None, rhs=None, senses=None, lower=None, upper=None):
    rows = program.rows if rows is None else rows
    rhs = program.rhs if rhs is None else rhs
    senses = program.senses if senses is None else senses
    return lp.linear_program(
        program.objective, list(zip(rows, senses, rhs)),
        lower=program.lower if lower is None else lower,
        upper=program.upper if upper is None else upper)


def _programs():
    """(name, program) pairs, seeded; only called when recording."""
    import support
    from permit_games import stability
    from permit_games.bankruptcy import RULES
    from permit_games.partition_games import (
        MINUS, PLUS, build_game, optimistic_game, pessimistic_game, resource_game)

    def feasible(draw):
        while True:
            program = draw()
            if lp.solve(program).status != lp.INFEASIBLE:
                return program

    yield "beale", BEALE
    rng = random.Random(1)
    for k in range(60):
        yield f"random-{k}", support.rand_bounded_program(rng, max_vars=5, max_rows=5)
    rng = random.Random(2)
    for k in range(20):
        def degenerate():
            program = support.rand_bounded_program(rng, max_vars=5, max_rows=5)
            rhs = [F(0) if i < program.n_rows - 1 and rng.random() < 0.7 else b
                   for i, b in enumerate(program.rhs)]
            return _rebuild(program, rhs=rhs)
        yield f"degenerate-{k}", feasible(degenerate)
    rng = random.Random(3)
    for k in range(20):
        program = support.rand_bounded_program(rng, max_vars=5, max_rows=5)
        n = program.n_vars
        lower = [None if rng.random() < 0.5 else F(0) for _ in range(n)]
        rows = list(program.rows) + [tuple(F(-1) for _ in range(n))]
        rhs = list(program.rhs) + [F(rng.randint(0, 12))]
        yield f"free-{k}", _rebuild(program, rows=rows, rhs=rhs,
                                    senses=program.senses + (lp.LE,), lower=lower)
    rng = random.Random(4)
    for k in range(20):
        def bounded():
            program = support.rand_bounded_program(rng, max_vars=5, max_rows=5)
            lower, upper = [], []
            for _ in range(program.n_vars):
                low = support.rand_fraction(rng, -4, 4)
                lower.append(low)
                upper.append(None if rng.random() < 0.3
                             else low + support.rand_fraction(rng, 0, 6))
            return _rebuild(program, lower=lower, upper=upper)
        yield f"bounds-{k}", feasible(bounded)
    rng = random.Random(5)
    for k in range(10):
        def redundant():
            program = support.rand_bounded_program(rng, max_vars=5, max_rows=4)
            scale = F(rng.randint(-3, 3) or 2, rng.choice((1, 2, 3)))
            i = rng.randrange(program.n_rows)
            rows = list(program.rows) + [tuple(scale * a for a in program.rows[i])]
            rhs = list(program.rhs) + [scale * program.rhs[i]]
            senses = list(program.senses)
            senses[i] = lp.EQ
            return _rebuild(program, rows=rows, rhs=rhs, senses=senses + [lp.EQ])
        yield f"redundant-eq-{k}", feasible(redundant)

    captured = []

    def capture(program):
        captured.append(program)
        return lp.solve(program)

    stability.solve = capture
    try:
        rng = random.Random(6)
        for k, n_firms in enumerate((4, 4, 4, 5, 5)):
            sit = None
            while sit is None:
                sit = support.scarce_situation(rng, n_firms=n_firms)
            game = build_game(sit, RULES[k % len(RULES)])
            for title, derived in (("optimistic", optimistic_game(game)),
                                   ("pessimistic", pessimistic_game(game)),
                                   ("resource-plus", resource_game(game, PLUS)),
                                   ("resource-minus", resource_game(game, MINUS))):
                stability.core_nonempty(derived)
                yield f"core-n{n_firms}-{k}-{title}", captured.pop()
    finally:
        stability.solve = lp.solve


def _record() -> list:
    cases = []
    for name, program in _programs():
        cases.append({"name": name, "program": _encode_program(program),
                      "solution": _encode_solution(lp.solve(program))})
    return cases


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    data = _record()
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    statuses = {}
    for case in data:
        statuses[case["solution"]["status"]] = statuses.get(case["solution"]["status"], 0) + 1
    print(f"recorded {len(data)} programs to {GOLDEN}: {statuses}")
