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

A ``BasisTable`` serves a family of programs max c.x s.t. A x <= b, x >= 0
that share c and A and differ in b (parametric programming, Gal 1979).  It
keeps each optimal basis it meets with what does not depend on b: the
tableau B^-1 [A | I], the reduced costs and the dual y = c_B B^-1, whose
feasibility is checked once, against the rows of A, when the basis enters.
Only after that check does it read, once per basis, what every walk over
the basis uses: the B^-1 part of the rows, the structural basic rows on
one denominator and y weighted for the rows of A.  Its ``sweep`` walks one
row's right-hand side down to 0 by dual simplex pivots, so the optimum as a
function of that right-hand side comes out as exact segments.  The walk
starts at the first table basis with B^-1 b >= 0, which is then optimal,
and calls ``solve`` only when no basis qualifies.  Each pivot is stored as
an edge of the basis it leaves, so it is taken and its new basis checked
only once.  Every segment is certified at both of its ends, in integers,
against the rows: x >= 0, A x <= b, complementary slackness and strong
duality, the last with the stored weights of the checked dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul
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
    solver's final state for a ``BasisTable`` to take in: the tableau rows
    with the reduced costs last, their denominators and the basis.
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
        _tableau=(rows, dens, basis),
    )
    xs, x_den = _integer_row(solution.primal)
    weights, scale = _check_dual(work, obj, obj_den, y, red_den)
    _check_points(work, obj, obj_den, y, weights, scale,
                  [([row.rhs for row in work], 1, xs, x_den)])
    _check_value(objective_value, obj, obj_den, xs, x_den)
    return solution


class Segment(NamedTuple):
    """The optimum is ``value + slope * (z - lo)`` for the swept right-hand
    side z in [lo, hi]; ``slope`` is the swept row's dual on the segment."""

    lo: Fraction
    hi: Fraction
    value: Fraction
    slope: Fraction


class _Basis(NamedTuple):
    """One certified basis of a ``BasisTable``: the tableau B^-1 [A | I] as
    integer rows over positive denominators, the basic column of each row,
    the reduced costs c - yA over ``y_den`` and the dual y = c_B B^-1 over
    ``y_den``.  ``edges`` maps a leaving row to the basis its dual simplex
    pivot reaches.  The rest is read once, after the dual is checked: the
    B^-1 part of each row, each structural basic row with its factor to the
    ``common`` denominator of those rows, and y weighted for the rows of A
    over ``scale`` (see ``_weights``)."""

    basis: tuple[int, ...]
    rows: list[list[int]]
    dens: list[int]
    red: list[int]
    y: list[int]
    y_den: int
    edges: dict
    inverse: Sequence[list[int]] = ()
    basic: Sequence[tuple[int, int, int]] = ()
    common: int = 1
    weights: Sequence[int] = ()
    scale: int = 1


class BasisTable:
    """The optimal bases of max c.x subject to A x <= b, x >= 0, shared by
    every right-hand side b >= 0 that is swept on it.

    A basis enters the table once, from ``solve`` or by a dual simplex
    pivot, and its dual is then checked feasible against the rows of A.
    Nothing in an entry depends on b, so a basis whose B^-1 b is
    nonnegative is optimal for that b with no further pivot, and a pivot
    taken once is an edge that every later sweep follows.
    """

    def __init__(self, objective: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]):
        m = len(rows)
        self._program = LinearProgram(tuple(objective), tuple(map(tuple, rows)),
                                      (LE,) * m, (ZERO,) * m)
        self._work = [_std_row(row, ZERO, LE) for row in self._program.rows]
        self._cost, self._cost_den = _integer_row(self._program.objective)
        self._bases: dict[tuple[int, ...], _Basis] = {}

    def sweep(self, rhs: Sequence[int], den: int, k: int) -> list[Segment]:
        """The optimum as row ``k``'s right-hand side z falls from its top
        value to 0, when row i's right-hand side is ``rhs[i] / den``:
        segments of positive length in increasing z.

        The program must be bounded, and row k slack at its optimum at the
        top, so the top segment has slope 0 and holds for every z above its
        lower end too.  The walk starts at the first table basis that is
        feasible at the top, or at the basis ``solve`` finds when none is.
        A basis with row i's basic variable rhs_i - (t - z) beta_i at z,
        where beta is the column of row k's slack and t the top, is optimal
        down to the breakpoint t - rhs_i / beta_i, least over beta_i > 0,
        and its edge at that row crosses the breakpoint.  Ties follow
        Bland: the least basic index leaves, the least column enters.  Each
        segment is certified at both ends before it is kept; a failure
        raises RuntimeError.
        """
        n = self._program.n_vars
        if den <= 0 or any(b < 0 for b in rhs) or rhs[k] <= 0:
            raise ValueError("sweep needs nonnegative right-hand sides and a positive one "
                             "on the swept row")
        entry = next((e for e in self._bases.values()
                      if all(sum(map(mul, row, rhs)) >= 0 for row in e.inverse)), None)
        if entry is None:
            solution = solve(replace(self._program, rhs=tuple(Fraction(b, den) for b in rhs)))
            if solution.status != OPTIMAL:
                raise RuntimeError(f"cannot sweep a program that is {solution.status}")
            rows, dens, basis = solution._tableau
            entry = self._enter([row[:-1] for row in rows], dens, basis)
        # Row i's right-hand side over den_i * den, as _check_segment reads it.
        b = [bi * row.den for bi, row in zip(rhs, self._work)]
        segments: list[Segment] = []
        # A level is z with its distance t - z from the top as (p, q) = p / q.
        high = (Fraction(rhs[k], den), 0, 1)
        while True:
            values = _basic_values(entry, rhs)
            column = [row[k] for row in entry.inverse]  # row k's slack
            r = _ratio_test(entry.basis, values, column)
            # Row r's basic variable reaches 0 at t - z = values_r / (den * column_r).
            bottom = r < 0 or values[r] >= rhs[k] * column[r]
            if bottom:
                low = (ZERO, rhs[k], den)
            else:
                q = den * column[r]
                low = (Fraction(rhs[k] * column[r] - values[r], q), values[r], q)
            if low[1] * high[2] > high[1] * low[2]:
                segment, ends = _segment(entry, rhs, den, values, n, k, low, high)
                _check_segment(self._work, self._cost, self._cost_den, k, b, den,
                               segment, entry, ends)
                segments.append(segment)
                high = low
            if bottom:
                break
            following = entry.edges.get(r)
            if following is None:
                following = entry.edges[r] = self._edge(entry, r, low[0])
            entry = following
        if segments[0].slope != 0:
            raise RuntimeError("the swept row is not slack at the top")
        segments.reverse()
        return segments

    def _edge(self, entry: _Basis, r: int, lo: Fraction) -> _Basis:
        """The basis that row ``r``'s dual ratio test reaches from ``entry``:
        the least column with the least |red_j / a_j| over a_j < 0 enters."""
        prow, red = entry.rows[r], entry.red
        col = -1
        best_d = best_a = 0
        for j, a in enumerate(prow):
            if a < 0 and (col < 0 or red[j] * best_a < best_d * a):
                col, best_d, best_a = j, red[j], a
        if col < 0:
            raise RuntimeError(f"no column can enter at {lo}, yet the origin is feasible")
        rows = [list(row) for row in entry.rows]
        rows.append(list(red))
        dens = [*entry.dens, entry.y_den]
        basis = list(entry.basis)
        _pivot(rows, dens, basis, r, col)
        known = self._bases.get(tuple(sorted(basis)))
        return known if known is not None else self._enter(rows, dens, basis)

    def _enter(self, rows, dens, basis) -> _Basis:
        """Add the basis of a tableau (reduced costs last, no right-hand
        side column) to the table once its dual is checked feasible, with
        what every sweep reads of it."""
        n = self._program.n_vars
        entry = _read_basis(rows, dens, basis, n)
        weights, scale = _check_dual(self._work, self._cost, self._cost_den, entry.y, entry.y_den)
        basic = [(r, col) for r, col in enumerate(entry.basis) if col < n]
        common = lcm(*(entry.dens[r] for r, _ in basic))
        entry = entry._replace(
            inverse=[row[n:] for row in entry.rows],
            basic=[(r, col, common // entry.dens[r]) for r, col in basic],
            common=common, weights=weights, scale=scale)
        self._bases[tuple(sorted(entry.basis))] = entry
        return entry


def _read_basis(rows, dens, basis, n) -> _Basis:
    """A table entry from a tableau whose last row is the reduced costs.  A
    unit column costs nothing, so its reduced cost is -y_i."""
    m = len(basis)
    red = rows[m]
    return _Basis(tuple(basis), rows[:m], dens[:m], red,
                  [-red[n + i] for i in range(m)], dens[m], {})


def _basic_values(entry: _Basis, rhs: Sequence[int]) -> list[int]:
    """B^-1 b for row i's right-hand side ``rhs[i] / den``: row r's basic
    variable as a numerator over ``entry.dens[r] * den``."""
    return [sum(map(mul, row, rhs)) for row in entry.inverse]


def _segment(entry: _Basis, rhs, den, values, n, k, low, high):
    """Read the segment between two levels (z, p, q), with t - z = p / q
    for the top t, off a basis's table entry, with the primal at each end
    in integers as (numerators, den).  ``values`` is B^-1 b at the top, as
    ``_basic_values`` gives it."""
    inverse = entry.inverse
    ends = []
    for _, p, q in (low, high):
        # Row r's basic variable is values_r / (dens_r den) - (p / q) beta_r / dens_r.
        xs = [0] * n
        for r, col, factor in entry.basic:
            xs[col] = (values[r] * q - p * den * inverse[r][k]) * factor
        ends.append((xs, entry.common * den * q))
    y, y_den = entry.y, entry.y_den
    _, p, q = low
    value = Fraction(sum(map(mul, y, rhs)) * q - y[k] * p * den, y_den * den * q)
    return Segment(low[0], high[0], value, Fraction(y[k], y_den)), ends


def _check_segment(work, cost, cost_den, k, b, b_den, segment, entry, ends) -> None:
    """Certify a segment at both of its ends against the standard-form rows,
    with the entry's dual, whose feasibility was checked on entry, and the
    weights read then; row i's right-hand side is ``b[i] / (den_i * b_den)``
    except on the swept row.  The value at lo is checked against the primal;
    the value at hi then follows, since b moves only on row k, whose dual is
    the checked slope."""
    y, y_den = entry.y, entry.y_den
    slope = segment.slope
    if slope.numerator * y_den != y[k] * slope.denominator:
        raise RuntimeError("segment slope is not the swept row's dual")
    points = []
    for z, (xs, x_den) in zip((segment.lo, segment.hi), ends):
        zn, zd = z.numerator, z.denominator
        bz = [bi * zd for bi in b]
        bz[k] = zn * b_den * work[k].den
        points.append((bz, b_den * zd, xs, x_den))
    _check_points(work, cost, cost_den, y, entry.weights, entry.scale, points)
    _check_value(segment.value, cost, cost_den, *ends[0])


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
            pivot_row = _ratio_test(basis, (row[rhs] for row in rows),
                                    (row[pivot_col] for row in rows))
            if pivot_row < 0:
                return None
            _pivot(rows, dens, basis, pivot_row, pivot_col)
    finally:
        rows.pop()
        dens.pop()


def _ratio_test(basis, values, column) -> int:
    """Bland's ratio test: the row i with the least values_i / column_i over
    column_i > 0, ties to the smaller basic column; -1 if no entry is
    positive.  Row i's two entries share a denominator, which cancels."""
    r = -1
    best_b = best_a = 0
    for i, (col, b, a) in enumerate(zip(basis, values, column)):
        if a > 0 and (r < 0 or b * best_a < best_b * a or (
                b * best_a == best_b * a and col < basis[r])):
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


def _weights(work, y, y_den):
    """y_i weighted by L / den_i for a common L, since row i is over
    work[i].den; y.A_j is then the weighted sum over the returned scale."""
    common = lcm(*(row.den for row in work))
    return [yi * (common // row.den) for yi, row in zip(y, work)], y_den * common


def _check_dual(work, cost, cost_den, y, y_den) -> tuple[list[int], int]:
    """Dual feasibility of y = c_B B^-1, the standard-form duals over
    ``y_den``, recomputed from the standard-form rows ``work`` and the
    objective's numerators ``cost`` over ``cost_den``, not read from the
    tableau.  It proves optimal every feasible primal that meets y in
    complementary slackness and strong duality, and it does not depend on
    the right-hand side.  A violation is a solver bug: RuntimeError.
    Returns ``_weights`` of y, which the check computed."""
    # c_j - y.A_j <= 0 on every structural and slack column j.
    weights, scale = _weights(work, y, y_den)
    for c, cc in enumerate(cost):
        price = sum(w * row.structural[c] for w, row in zip(weights, work) if w)
        if cc * scale > price * cost_den:
            raise RuntimeError(f"standard column {c} still improves: not optimal")
    for i, (row, yi) in enumerate(zip(work, y)):
        if (row.sense == LE and yi < 0) or (row.sense == GE and yi > 0):
            raise RuntimeError(f"slack of standard row {i} still improves: not optimal")
    return weights, scale


def _check_points(work, cost, cost_den, y, weights, scale, points) -> None:
    """Exact certificate checks of primal points against a dual whose
    feasibility ``_check_dual`` has checked, with the weights over ``scale``
    that it returned; a violation is a solver bug.

    Each point (b, b_den, xs, x_den) is a primal xs / x_den that must be
    optimal when row i's right-hand side is b_i / (den_i * b_den): primal
    feasibility, complementary slackness with y, and strong duality,
    c.x == y.b.
    """
    for b, b_den, xs, x_den in points:
        for i, (row, bi) in enumerate(zip(work, b)):
            lhs = sum(map(mul, row.structural, xs)) * b_den
            rhs = bi * x_den  # both sides over den_i * x_den * b_den
            sense = row.sense
            if not (lhs <= rhs if sense == LE else (lhs >= rhs if sense == GE else lhs == rhs)):
                raise RuntimeError(f"simplex returned an infeasible primal (row {i})")
            if sense != EQ and y[i] and lhs != rhs:
                raise RuntimeError(f"complementary slackness violated on row {i}")
        if any(v < 0 for v in xs):
            raise RuntimeError("simplex returned a negative primal entry")
        # c.x is over cost_den * x_den, y.b over scale * b_den.
        if sum(map(mul, cost, xs)) * scale * b_den != sum(map(mul, weights, b)) * cost_den * x_den:
            raise RuntimeError("strong duality failed")


def _check_value(value: Fraction, cost, cost_den, xs, x_den) -> None:
    """The reported objective ``value`` is c.x at the primal xs / x_den."""
    if sum(map(mul, cost, xs)) * value.denominator != value.numerator * cost_den * x_den:
        raise RuntimeError("primal objective differs from the reported value")
