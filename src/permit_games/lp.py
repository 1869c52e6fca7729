"""Exact linear programming over the rationals.

Every program has one shape, max c.x subject to A x {<=, =, >=} b and
x >= 0, so the declared variables are the standard form's structural
columns.  A quantity that may be negative is the difference of two of them.

Dense two-phase primal simplex with Bland's least-index pivot rule, so the
solver terminates under degeneracy and is deterministic for identical input.
There is no floating point anywhere, which keeps downstream argmin/argmax
sets and core verdicts well defined.

Programs and solutions are ``fractions.Fraction`` at the interface.  Inside,
each tableau row, and the row of reduced costs, is a list of Python ``int``
numerators over one positive per-row denominator, kept in lowest terms by a
gcd after every update (integer-preserving elimination in the spirit of
Edmonds 1967 and Bareiss 1968).  A pivot touches only the nonzero columns of
the pivot row unless a row's denominator must grow.

The representation changes no decision.  An entry's sign is its numerator's
sign, so the entering column is Bland's first column with a positive reduced
cost.  The ratio test compares rhs_i / a_i by cross-multiplication, in which
the row denominators cancel, and breaks ties toward the smaller basic column
index.  Every decision therefore compares the same rationals as arithmetic
on Fractions would, and the pivot sequence, the final basis, the primal and
the dual are the same rationals.

Every optimum is certified before it is returned: primal feasibility,
complementary slackness, strong duality and dual feasibility, the last
recomputed from the standard-form rows rather than read off the tableau.
A failed check raises RuntimeError, also under ``python -O``.

``sweep`` solves a program and continues on the solver's own final
tableau, walking one row's right-hand side down to 0 by dual simplex pivots
(parametric programming, Gal 1979), so the optimum as a function of that
right-hand side comes out as exact segments, each certified like an optimum
at both of its ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

ZERO = Fraction(0)

_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


class LpStructureError(ValueError):
    """Malformed program (bad dimensions, unknown sense, inexact number).

    Distinct from INFEASIBLE, which is a property of a well-formed program.
    """


def as_fraction(x) -> Fraction:
    """Convert an exact numeric literal (int, Fraction, 'p/q' or decimal string).
    A bool is refused, although Python counts it as an int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise LpStructureError(f"not an exact number: {x!r}") from exc
    raise LpStructureError(f"refusing inexact or unknown numeric type {type(x).__name__}: {x!r}")


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x subject to rows {<=,=,>=} rhs and x >= 0.

    Construction checks the shape and the senses, so a program that exists
    is well formed; a malformed one raises LpStructureError.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.n_vars
        if n == 0:
            raise LpStructureError("a program needs at least one variable")
        if not (len(self.senses) == len(self.rhs) == self.n_rows):
            raise LpStructureError("row count, senses and rhs lengths disagree")
        for i, (row, sense) in enumerate(zip(self.rows, self.senses)):
            if len(row) != n:
                raise LpStructureError(
                    f"constraint {i}: {len(row)} coefficients for {n} variables")
            if sense not in (LE, EQ, GE):
                raise LpStructureError(f"constraint {i}: unknown sense {sense!r}")

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def linear_program(objective, constraints) -> LinearProgram:
    """Build a LinearProgram from exact literals.

    ``constraints`` is an iterable of (coefficients, sense, rhs) triples.
    """
    rows, senses, rhs = [], [], []
    for k, triple in enumerate(constraints):
        try:
            coeffs, sense, b = triple
        except (TypeError, ValueError) as exc:
            raise LpStructureError(f"constraint {k}: expected (coeffs, sense, rhs)") from exc
        rows.append(tuple(map(as_fraction, coeffs)))
        senses.append(sense)
        rhs.append(as_fraction(b))
    return LinearProgram(
        tuple(map(as_fraction, objective)), tuple(rows), tuple(senses), tuple(rhs))


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve; primal/dual/objective_value are None unless optimal.

    ``dual`` carries one multiplier per constraint, with signs fixed so that
    for a maximization a <=-row has a nonnegative multiplier and a >=-row a
    nonpositive one.  At an optimum the pair (primal, dual) satisfies
    complementary slackness exactly.  At an optimum, ``_tableau`` holds the
    solver's final state for ``sweep`` to continue on: the tableau rows with
    the reduced costs last, their denominators, the basis, the standard-form
    rows, and the objective's numerators over their denominator.
    """

    status: str
    objective_value: Optional[Fraction] = None
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    _tableau: Optional[tuple] = field(default=None, repr=False, compare=False)


class _StdRow(NamedTuple):
    """structural . x {sense} rhs, every entry over ``den``; rhs >= 0.

    ``flip`` is -1 when the declared row was negated to make rhs >= 0.
    """

    structural: list[int]
    sense: str
    rhs: int
    den: int
    flip: int


def _std_row(coeffs: Sequence[Fraction], rhs: Fraction, sense: str) -> _StdRow:
    nums, den = _integer_row([*coeffs, rhs])
    b = nums.pop()
    if b < 0:
        return _StdRow([-a for a in nums], _FLIPPED[sense], -b, den, -1)
    return _StdRow(nums, sense, b, den, 1)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` exactly; returns status optimal/infeasible/unbounded."""
    n = lp.n_vars
    m = lp.n_rows
    work = [_std_row(*row) for row in zip(lp.rows, lp.rhs, lp.senses)]

    # Column layout: structural | slack/surplus | artificial, then rhs.
    slack_col: list[int] = [-1] * m
    unit_col: list[int] = [-1] * m  # column whose tableau entries expose B^-1
    next_col = n
    for i in range(m):
        if work[i].sense != EQ:
            slack_col[i] = next_col
            next_col += 1
    first_art = next_col  # artificial columns come last and never re-enter
    for i in range(m):
        if work[i].sense == LE:
            unit_col[i] = slack_col[i]
        else:
            unit_col[i] = next_col
            next_col += 1
    total = next_col

    # Row i of the tableau is rows[i] / dens[i]; a row from _integer_row is
    # in lowest terms, and the slack and unit entries (+-1) keep it so.
    rows: list[list[int]] = []
    dens: list[int] = []
    basis = [0] * m
    for i, (structural, sense, b, den, _) in enumerate(work):
        row = structural + [0] * (total - n) + [b]
        if slack_col[i] >= 0:
            row[slack_col[i]] = den if sense == LE else -den
        row[unit_col[i]] = den
        rows.append(row)
        dens.append(den)
        basis[i] = unit_col[i]

    obj, obj_den = _integer_row(lp.objective)

    if first_art < total:
        phase1 = [0] * first_art + [-1] * (total - first_art)
        if _run_simplex(rows, dens, basis, phase1, 1, total) is None:
            raise RuntimeError("phase-1 objective cannot be unbounded")
        if any(rows[i][total] for i in range(m) if basis[i] >= first_art):
            return LpSolution(status=INFEASIBLE)
        _drive_out_artificials(rows, dens, basis, first_art)

    reduced = _run_simplex(rows, dens, basis, obj + [0] * (total - n), obj_den, first_art)
    if reduced is None:
        return LpSolution(status=UNBOUNDED)
    red, red_den = reduced

    primal = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            primal[basis[i]] = Fraction(rows[i][total], dens[i])
    objective_value = sum(
        (cj * xj for cj, xj in zip(lp.objective, primal)), ZERO)

    # y = c_B B^-1.  A unit column costs nothing in phase 2, so its reduced
    # cost is -y_i; a flipped row reports -y_i.
    y = [-red[unit_col[i]] for i in range(m)]  # numerators over red_den
    dual = tuple(Fraction(row.flip * yi, red_den) for row, yi in zip(work, y))

    rows.append(red)
    dens.append(red_den)
    solution = LpSolution(
        status=OPTIMAL,
        objective_value=objective_value,
        primal=tuple(primal),
        dual=dual,
        _tableau=(rows, dens, basis, work, obj, obj_den),
    )
    xs, x_den = _integer_row(solution.primal)
    _self_check(work, obj, obj_den, y, red_den,
                [([row.rhs for row in work], 1, xs, x_den, objective_value)])
    return solution


class Segment(NamedTuple):
    """The optimum is ``value + slope * (z - lo)`` for the swept right-hand
    side z in [lo, hi]; ``slope`` is the swept row's dual on the segment."""

    lo: Fraction
    hi: Fraction
    value: Fraction
    slope: Fraction


def sweep(lp: LinearProgram, k: int) -> list[Segment]:
    """The optimum of ``lp`` as its row ``k``'s right-hand side z falls from
    its value in ``lp`` to 0: segments of positive length in increasing z.

    Every row must be ``<=`` with a nonnegative right-hand side, so the
    origin stays feasible down to z = 0, and row k's must be positive.  The
    program must be bounded, and row k slack at its optimum, so the top
    segment has slope 0 and holds for every z above its lower end too.

    ``solve`` finds that optimum and the walk continues on its final
    tableau.  Row i keeps its right-hand side at the top value t, so its
    basic variable at z is rhs_i - (t - z) beta_i, where beta is the column
    of row k's slack; the next breakpoint is t - rhs_i / beta_i, least over
    beta_i > 0, and one dual simplex pivot crosses it.  Ties follow Bland:
    the least basic index leaves, the least column enters.  Each segment is
    certified at both ends before it is kept; a failure raises RuntimeError.
    """
    n, m = lp.n_vars, lp.n_rows
    if (any(sense != LE for sense in lp.senses) or any(b < 0 for b in lp.rhs)
            or lp.rhs[k] <= 0):
        raise ValueError("sweep needs <= rows, nonnegative right-hand sides and a "
                         "positive one on the swept row")
    solution = solve(lp)
    if solution.status != OPTIMAL:
        raise RuntimeError(f"cannot sweep a program that is {solution.status}")
    # With <= rows only, the columns are structural | slack | rhs, and the
    # reduced costs are row m, so every pivot updates them.
    rows, dens, basis, work, cost, cost_den = solution._tableau
    rhs = n + m
    top = lp.rhs[k]
    slack = n + k
    red = rows[m]
    segments: list[Segment] = []
    hi = top
    while True:
        r = _ratio_test(rows, basis, slack, rhs)
        lo = ZERO if r < 0 else max(ZERO, top - Fraction(rows[r][rhs], rows[r][slack]))
        if lo < hi:
            segment, dual, ends = _segment(rows, dens, basis, n, k, top, lo, hi)
            _check_segment(work, cost, cost_den, k, segment, dual, ends)
            segments.append(segment)
            hi = lo
        if lo == 0:
            break
        # Dual ratio test: row r's basic variable turns negative below lo.
        prow = rows[r]
        col = -1
        best_d = best_a = 0
        for j in range(rhs):
            a = prow[j]
            if a < 0 and (col < 0 or red[j] * best_a < best_d * a):
                col, best_d, best_a = j, red[j], a
        if col < 0:
            raise RuntimeError(f"no column can enter at {lo}, yet the origin is feasible")
        _pivot(rows, dens, basis, r, col)
    if segments[0].slope != 0:
        raise RuntimeError("the swept row is not slack at the top")
    segments.reverse()
    return segments


def _segment(rows, dens, basis, n, k, top, lo, hi):
    """Read the segment [lo, hi] of the current basis off the tableau, with
    its certificate in integers: the standard-form duals (numerators, den)
    and the primal at lo and at hi, each as (numerators, den)."""
    m = len(basis)
    slack, rhs = n + k, n + m
    red, red_den = rows[m], dens[m]
    basic = [(i, col) for i, col in enumerate(basis) if col < n]
    common = lcm(*(dens[i] for i, _ in basic))
    deltas = top - lo, top - hi  # row i's basic variable is rhs_i - delta * beta_i
    ends = []
    for delta in deltas:
        dn, dd = delta.numerator, delta.denominator
        xs = [0] * n
        for i, col in basic:
            xs[col] = (rows[i][rhs] * dd - dn * rows[i][slack]) * (common // dens[i])
        ends.append((xs, common * dd))
    # The reduced cost of row i's slack is -y_i, and the cost row's
    # right-hand side is minus the objective at the top.
    segment = Segment(lo, hi, (deltas[0] * red[slack] - red[rhs]) / red_den,
                      Fraction(-red[slack], red_den))
    return segment, ([-red[n + i] for i in range(m)], red_den), ends


def _check_segment(work, cost, cost_den, k, segment, dual, ends) -> None:
    """Certify a segment at both of its ends against the standard-form rows."""
    y, y_den = dual
    slope = segment.slope
    if slope.numerator * y_den != y[k] * slope.denominator:
        raise RuntimeError("segment slope is not the swept row's dual")
    values = segment.value, segment.value + slope * (segment.hi - segment.lo)
    points = []
    for z, value, (xs, x_den) in zip((segment.lo, segment.hi), values, ends):
        zn, zd = z.numerator, z.denominator
        b = [row.rhs * zd for row in work]
        b[k] = zn * work[k].den
        points.append((b, zd, xs, x_den, value))
    _self_check(work, cost, cost_den, y, y_den, points)


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators over the least common denominator, which is then in lowest terms."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _drive_out_artificials(rows, dens, basis, first_art) -> None:
    """Pivot zero-valued basic artificials out so they stay out in phase 2.

    A row whose non-artificial entries are all zero is redundant; its
    artificial stays basic at zero and no later pivot can move it.
    """
    for i in range(len(basis)):
        if basis[i] < first_art:
            continue
        row = rows[i]
        for j in range(first_art):
            if row[j]:
                _pivot(rows, dens, basis, i, j)
                break


def _run_simplex(rows, dens, basis, cost, cost_den, n_enterable):
    """Pivot until optimal over the columns below ``n_enterable``.

    ``cost`` holds integer numerators over ``cost_den``.  Returns the final
    reduced costs as (numerators, denominator), or None when the objective
    is unbounded.  While it runs, the reduced costs are one more row of
    ``rows``, so every pivot updates them like any row.
    """
    m = len(basis)
    rhs = len(cost)
    red = [*cost, 0]
    rows.append(red)
    dens.append(cost_den)
    try:
        for i in range(m):  # price out the starting basis
            if red[basis[i]]:
                row = rows[i]
                dens[m] = _eliminate(red, dens[m], row, dens[i], basis[i],
                                     [j for j, a in enumerate(row) if a])
        while True:
            pivot_col = -1
            for j in range(n_enterable):  # Bland: first improving column
                if red[j] > 0:
                    pivot_col = j
                    break
            if pivot_col < 0:
                return red, dens[m]
            pivot_row = _ratio_test(rows, basis, pivot_col, rhs)
            if pivot_row < 0:
                return None
            _pivot(rows, dens, basis, pivot_row, pivot_col)
    finally:
        rows.pop()
        dens.pop()


def _ratio_test(rows, basis, col, rhs) -> int:
    """Bland's ratio test on column ``col``: the row with the least
    rhs_i / a_i over a_i > 0, ties to the smaller basic column; -1 if no
    entry is positive.  The row denominators cancel in the comparison."""
    r = -1
    best_b = best_a = 0
    for i in range(len(basis)):
        a = rows[i][col]
        if a > 0:
            b = rows[i][rhs]
            if r < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[r]):
                r, best_b, best_a = i, b, a
    return r


def _pivot(rows, dens, basis, pr, pc) -> None:
    """Make column ``pc`` basic in row ``pr``; every other row loses it."""
    prow = rows[pr]
    p = prow[pc]
    if p < 0:
        prow = [-a for a in prow]
        p = -p
    g = gcd(*prow)
    if g != 1:
        prow = [a // g for a in prow]
        p //= g
    rows[pr] = prow
    dens[pr] = p  # the pivot entry is now p / p = 1
    support = [j for j, a in enumerate(prow) if a]
    for i, row in enumerate(rows):
        if i != pr and row[pc]:
            dens[i] = _eliminate(row, dens[i], prow, p, pc, support)
    basis[pr] = pc


def _eliminate(row, den, prow, pden, pc, support) -> int:
    """row -= (row[pc] / den) * prow in place, where prow[pc] / pden == 1.

    Only the nonzero columns ``support`` of the pivot row change, unless
    the new denominator scales the whole row.  Returns the new denominator
    after the row is reduced to lowest terms.
    """
    g = gcd(row[pc], pden)
    scale, factor = pden // g, row[pc] // g
    if scale != 1:
        row[:] = [a * scale for a in row]
        den *= scale
    for j in support:
        row[j] -= factor * prow[j]
    g = gcd(den, *row)
    if g != 1:
        row[:] = [a // g for a in row]
        den //= g
    return den


def _self_check(work, cost, cost_den, y, y_den, points) -> None:
    """Exact certificate checks; a violation is a solver bug.

    ``work`` holds the standard-form rows as built before the first pivot,
    ``cost`` the objective's numerators over ``cost_den`` and ``y`` the
    standard-form duals over ``y_den``.  Each point (b, b_den, xs, x_den,
    value) is a primal xs / x_den that must be optimal, with objective
    ``value``, when row i's right-hand side is b_i / (den_i * b_den).
    Primal feasibility, complementary slackness and strong duality hold for
    y = c_B B^-1 at any feasible basis.  Dual feasibility, recomputed here
    from the rows and not read from the tableau, is what proves the basis
    optimal; it does not depend on b, so it is checked once for all points.
    """
    # Dual feasibility: c_j - y.A_j <= 0 on every structural and slack column j.
    # Row i is over work[i].den, so weight y_i by L / den_i for a common L.
    common = lcm(*(row.den for row in work))
    weights = [yi * (common // row.den) for yi, row in zip(y, work)]
    scale = y_den * common  # y.A_j == price / scale
    for c, cc in enumerate(cost):
        price = sum(w * row.structural[c] for w, row in zip(weights, work) if w)
        if cc * scale > price * cost_den:
            raise RuntimeError(f"standard column {c} still improves: not optimal")
    for i, (row, yi) in enumerate(zip(work, y)):
        if (row.sense == LE and yi < 0) or (row.sense == GE and yi > 0):
            raise RuntimeError(f"slack of standard row {i} still improves: not optimal")
    for b, b_den, xs, x_den, value in points:
        for i, (row, bi) in enumerate(zip(work, b)):
            lhs = sum(a * v for a, v in zip(row.structural, xs)) * b_den
            rhs = bi * x_den  # both sides over den_i * x_den * b_den
            sense = row.sense
            if not (lhs <= rhs if sense == LE else (lhs >= rhs if sense == GE else lhs == rhs)):
                raise RuntimeError(f"simplex returned an infeasible primal (row {i})")
            if sense != EQ and y[i] and lhs != rhs:
                raise RuntimeError(f"complementary slackness violated on row {i}")
        if any(v < 0 for v in xs):
            raise RuntimeError("simplex returned a negative primal entry")
        num, den = value.numerator, value.denominator
        if sum(w * bi for w, bi in zip(weights, b)) * den != num * scale * b_den:
            raise RuntimeError("strong duality failed")
        if sum(c * v for c, v in zip(cost, xs)) * den != num * cost_den * x_den:
            raise RuntimeError("primal objective differs from the reported value")
