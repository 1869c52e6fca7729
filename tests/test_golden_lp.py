"""Byte-for-byte replay of recorded exact LP solutions.

``golden_lp.json`` holds 175 seeded programs and, for each, the
status, objective value, primal and dual the solver returned, every number
written as a ``p/q`` string.  The programs are random bounded programs,
programs with degenerate right-hand sides, with free variables, with finite
lower and upper bounds, with a redundant ``=`` row (its artificial stays
basic), and the core programs of seeded four- and five-firm derived games,
recorded with one free variable per player.  At six and seven firms it holds
the core programs that no partition decides, of one seeded economy each.
Any change to the pivot sequence that moves a vertex or a dual shows here.

``lp.solve`` takes only x >= 0 programs, so the replay rewrites a recorded
program with free or bounded variables before it solves: a free variable
becomes two adjacent columns x = u - v, a finite lower bound L shifts into
the right-hand sides (x = L + u) and is added back to the primal, and a
finite upper bound becomes a trailing ``<=`` row whose dual is dropped.
That is the column and row order in which the recording was solved, so
the pivots are the recorded ones.

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


def _encode(objective, rows, senses, rhs, lower=None, upper=None) -> dict:
    """A program in the recorded form; the bounds default to x >= 0."""
    n = len(objective)
    return {
        "objective": _vector(objective),
        "rows": [_vector(row) for row in rows],
        "senses": list(senses),
        "rhs": _vector(rhs),
        "lower": _vector([F(0)] * n if lower is None else lower),
        "upper": _vector([None] * n if upper is None else upper),
    }


def _solve_recorded(data: dict) -> lp.LpSolution:
    """Solve a recorded program through its x >= 0 rewrite (module docstring)."""
    objective, rhs = _parse(data["objective"]), _parse(data["rhs"])
    rows = [_parse(row) for row in data["rows"]]
    lower, upper = _parse(data["lower"]), _parse(data["upper"])
    n = len(objective)

    def columns(coeffs):
        return tuple(c for a, low in zip(coeffs, lower)
                     for c in ((a, -a) if low is None else (a,)))

    std_rows = [columns(row) for row in rows]
    std_rhs = [b - sum(a * low for a, low in zip(row, lower) if low)
               for row, b in zip(rows, rhs)]
    senses = list(data["senses"])
    for j in range(n):
        if upper[j] is not None:
            std_rows.append(columns([F(int(k == j)) for k in range(n)]))
            std_rhs.append(upper[j] - (lower[j] or 0))
            senses.append(lp.LE)
    sol = lp.solve(lp.LinearProgram(
        objective=columns(objective), rows=tuple(std_rows),
        senses=tuple(senses), rhs=tuple(std_rhs)))
    if sol.status != lp.OPTIMAL:
        return sol
    parts = iter(sol.primal)
    primal = tuple(u - next(parts) if low is None else low + u
                   for low, u in zip(lower, parts))
    return lp.LpSolution(
        status=sol.status,
        objective_value=sum((c * x for c, x in zip(objective, primal)), F(0)),
        primal=primal,
        dual=sol.dual[:len(rows)])


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
        sol = _solve_recorded(case["program"])
        assert _encode_solution(sol) == case["solution"], case["name"]


def _artificials(program: lp.LinearProgram) -> tuple[int, list[str]]:
    """The number of the first artificial column and the standard-form
    sense of each artificial's row.  The solver numbers the columns
    structural | slack/surplus | artificial, one slack or surplus per row
    that is not ``=`` and one artificial per row that is not ``<=`` once a
    negative right-hand side has flipped it."""
    senses = [lp._FLIPPED[s] if b < 0 else s for s, b in zip(program.senses, program.rhs)]
    return (program.n_vars + sum(s != lp.EQ for s in senses),
            [s for s in senses if s != lp.LE])


def _solve_recording_pivots(program: lp.LinearProgram) -> tuple[str, list]:
    """``lp.solve``'s status and its (row, column number) pivots in order."""
    pivots = []
    real = lp._pivot

    def recording(rows, dens, basis, pr, pc, *rest):
        pivots.append((pr, pc))
        return real(rows, dens, basis, pr, pc, *rest)

    lp._pivot = recording
    try:
        status = lp.solve(program).status
    finally:
        lp._pivot = real
    return status, pivots


def _artificial_entries(program: lp.LinearProgram) -> list[str]:
    """The standard-form sense of each row whose artificial column enters
    the basis while ``program`` is solved, in pivot order.  Every
    artificial starts basic, so each entry is a re-entry in phase 1."""
    first_art, art_rows = _artificials(program)
    return [art_rows[pc - first_art]
            for _, pc in _solve_recording_pivots(program)[1] if pc >= first_art]


def _draw_mixed(rng: random.Random) -> lp.LinearProgram:
    """An x >= 0 program of 2-6 rows, most of them >=, some =, whose
    right-hand sides may be negative, with a box row that bounds it."""
    import support

    n, m = rng.randint(2, 5), rng.randint(2, 6)
    constraints = [([support.rand_fraction(rng, -4, 6) for _ in range(n)],
                    rng.choice((lp.LE, lp.GE, lp.GE, lp.EQ)),
                    support.rand_fraction(rng, -6, 12, (1, 1, 2)))
                   for _ in range(m)]
    constraints.append(([1] * n, lp.LE, rng.randint(5, 20)))
    return lp.linear_program([rng.randint(-6, 9) for _ in range(n)], constraints)


def _mixed_program(data: dict) -> lp.LinearProgram:
    """A recorded x >= 0 program, as ``lp.solve`` takes it."""
    return lp.LinearProgram(_parse(data["objective"]), tuple(map(_parse, data["rows"])),
                            tuple(data["senses"]), _parse(data["rhs"]))


def _mixed_cases() -> list[lp.LinearProgram]:
    return [_mixed_program(case["program"]) for case in json.loads(GOLDEN.read_text())
            if case["name"].startswith(("mixed-", "reentry-"))]


def test_mixed_cases_re_enter_implicit_and_mix_stored_artificials():
    # The >= rows' artificial columns are implicit (the negated surplus) and
    # the = rows' are stored; the recording must exercise both kinds.
    mixed = _mixed_cases()
    assert len(mixed) == 20
    assert sum(lp.GE in _artificial_entries(program) for program in mixed) >= 3
    assert sum({lp.GE, lp.EQ} <= set(_artificials(program)[1]) for program in mixed) >= 2


def test_pivots_match_the_simplex_that_stores_every_artificial():
    # The >= rows' artificials are implicit, yet every pivot is the one the
    # textbook tableau takes.  A re-entered artificial's reduced cost
    # steers later phase-1 pivots but seldom the optimum, so besides the
    # 20 recorded cases and the first 300 draws every draw whose
    # artificial re-enters is compared.
    import support

    rng = random.Random(8)
    programs = _mixed_cases() + [_draw_mixed(rng) for _ in range(2500)]
    re_entered = 0
    for k, program in enumerate(programs):
        status, pivots = _solve_recording_pivots(program)
        first_art, art_rows = _artificials(program)
        entered = [art_rows[pc - first_art] for _, pc in pivots if pc >= first_art]
        if k < 320 or entered:
            assert (status, pivots) == support.reference_pivots(program), program
            re_entered += lp.GE in entered
    assert re_entered >= 40


def test_five_firm_core_programs_pivot_as_the_simplex_that_stores_every_column():
    # The core programs that no partition decides are the ones `cores`
    # solves; at five firms each has 30 >= rows against 10 columns, so most
    # of its stored slots would be unit columns in the full tableau.
    import support
    from permit_games import stability
    from permit_games.bankruptcy import CEA
    from permit_games.partition_games import (
        MINUS, PLUS, build_game, optimistic_game, pessimistic_game, resource_game)

    rng = random.Random(10)
    solved = 0
    for _ in range(8):
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=5)
        game = build_game(sit, CEA)
        for derived in (optimistic_game(game), pessimistic_game(game),
                        resource_game(game, PLUS), resource_game(game, MINUS)):
            if stability._over_claiming_partition(derived) is None:
                _, program = stability._core_program(derived)
                assert _solve_recording_pivots(program) == support.reference_pivots(program)
                solved += 1
    assert solved == 16


def test_beale_cycling_example_terminates_at_the_optimum():
    import support

    sol = lp.solve(BEALE)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == F(5, 4) == support.oracle_optimum(BEALE)
    assert sol.primal == (1, 0, 1, 0)


def _rebuild(program, rows=None, rhs=None, senses=None, lower=None, upper=None):
    return _encode(program.objective,
                   program.rows if rows is None else rows,
                   program.senses if senses is None else senses,
                   program.rhs if rhs is None else rhs,
                   lower=lower, upper=upper)


def _free_form(program):
    """A core program as recorded: its column pair (u, v) is one free x = u - v."""
    return _encode(program.objective[::2], [row[::2] for row in program.rows],
                   program.senses, program.rhs, lower=[None] * (program.n_vars // 2))


def _programs():
    """(name, recorded program) pairs, seeded; only called when recording."""
    import support
    from permit_games import stability
    from permit_games.bankruptcy import CEA, RULES
    from permit_games.partition_games import (
        MINUS, PLUS, build_game, optimistic_game, pessimistic_game, resource_game)

    def feasible(draw):
        while True:
            program = draw()
            if _solve_recorded(program).status != lp.INFEASIBLE:
                return program

    yield "beale", _rebuild(BEALE)
    rng = random.Random(1)
    for k in range(60):
        yield f"random-{k}", _rebuild(support.rand_bounded_program(rng, max_vars=5, max_rows=5))
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
            _, program = stability._core_program(derived)
            yield f"core-n{n_firms}-{k}-{title}", _free_form(program)

    rng = random.Random(7)
    for k in range(14):
        yield f"mixed-{k}", feasible(lambda: _rebuild(_draw_mixed(rng)))
    for k in range(6):
        program = _draw_mixed(rng)
        while lp.GE not in _artificial_entries(program) or lp.solve(program).status != lp.OPTIMAL:
            program = _draw_mixed(rng)
        yield f"reentry-{k}", _rebuild(program)

    # The core programs that a partition cannot decide, at six and seven firms.
    rng = random.Random(9)
    for n_firms in (6, 7):
        sit = None
        while sit is None:
            sit = support.scarce_situation(rng, n_firms=n_firms)
        game = build_game(sit, CEA)
        for title, derived in (("pessimistic", pessimistic_game(game)),
                               ("resource-minus", resource_game(game, MINUS))):
            assert stability._over_claiming_partition(derived) is None
            _, program = stability._core_program(derived)
            yield f"core-n{n_firms}-{title}", _free_form(program)


def _record() -> list:
    cases = []
    for name, program in _programs():
        cases.append({"name": name, "program": program,
                      "solution": _encode_solution(_solve_recorded(program))})
    return cases


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    data = _record()
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    statuses = {}
    for case in data:
        statuses[case["solution"]["status"]] = statuses.get(case["solution"]["status"], 0) + 1
    print(f"recorded {len(data)} programs to {GOLDEN}: {statuses}")
