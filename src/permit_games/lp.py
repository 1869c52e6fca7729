"""Exact linear programming over the rationals.

Every program has one shape, max c.x subject to A x {<=, =, >=} b and
x >= 0, so the declared variables are the standard form's structural
columns.  A quantity that may be negative is the difference of two of them.

Dense two-phase primal simplex with Bland's least-index pivot rule, so the
solver terminates under degeneracy and is deterministic for identical input.
There is no floating point anywhere, which keeps downstream argmin/argmax
sets and core verdicts well defined.

Programs and solutions are ``fractions.Fraction`` at the interface.  The
columns are numbered structural | slack/surplus | artificial, one
artificial per row that is not ``<=``.  Inside is the condensed tableau
(Tucker's; the dictionary of Chvátal 1983): row i holds B^-1 [A | b] only
at the nonbasic columns, one slot per nonbasic variable, labelled by the
column number it stores, then the right-hand side.  Each row, and the row
of reduced costs, is a list of Python ``int`` numerators over one positive
per-row denominator, kept in lowest terms by a gcd after every update that
leaves it over more than 1 (integer-preserving elimination in the spirit of
Edmonds 1967 and Bareiss 1968).  Those keep numbers small only on integer
data, so b is pivoted in one integer unit, the lcm of its denominators, and
a row's denominator comes from its coefficients alone.  A pivot on (row r,
slot q) is an exchange: the leaving variable takes slot q, row r's entry
there set to its own denominator and every other row's to 0, and each row
is then reduced as in the full tableau, where only the nonzero slots of the
pivot row change unless a row's denominator must grow.

A ``>=`` row starts with -1 in its surplus column and +1 in its artificial
one and every pivot acts on columns linearly, so the artificial is the
negated surplus in every row.  When both are nonbasic only the surplus is
stored, and the artificial's phase-1 reduced cost is ``-D - red_q`` (cost
-1, numerators over the reduced costs' denominator D).  When one is basic
the other is the negated unit column of its row, with phase-1 reduced cost
-D, so it never enters and is not stored; a leaving artificial hands its
slot to its surplus.  So there are as many slots as declared variables.
Each phase prices its starting basis out over one common denominator,
since a basic cost is not a stored entry.  After phase 1 each zero-valued
basic artificial is pivoted out on the least label below the first
artificial with a nonzero entry in its row, a ``>=`` row's own surplus
included; only a redundant ``=`` row has none and keeps its artificial,
which no phase-2 pivot or tie-break reads.

The representation changes no decision.  An entry's sign is its numerator's
sign, so Bland's rule enters the least label with a positive reduced cost
and, in phase 1, then the least artificial.  The ratio test compares
rhs_i / a_i by cross-multiplication, in which the row denominators cancel,
and breaks ties toward the smaller basic column number.  Every decision
compares the same rationals as Fractions with every column stored would,
and one positive scale of b keeps every ratio's order, so the pivot
sequence, the final basis, the primal and the dual are too.

Every optimum is certified before it is returned: primal feasibility,
complementary slackness, strong duality and dual feasibility, the last
recomputed from the standard-form rows rather than read off the tableau.
A failed check raises RuntimeError, also under ``python -O``.

A ``BasisTable`` serves a family of programs max c.x s.t. A x <= b, x >= 0
that share c and A and differ in b (parametric programming, Gal 1979).  It
keeps each optimal basis it meets with what does not depend on b: the
condensed rows as ``solve`` leaves them without the right-hand side, one
slot per nonbasic column with the reduced costs last, and the dual
y = c_B B^-1, whose feasibility is checked once, against the rows of A,
when the basis enters.  Only after that check does it read, once per basis,
what every walk over the basis uses: B^-1, from the slack slots and the
unit columns of the basic slacks, the structural basic rows on one
denominator and y as Fractions.  Its ``sweep`` walks a positive row's
right-hand side up from 0 by dual simplex pivots, so the optimum as a
function of that right-hand side comes out as exact segments.  Every walk
of the row starts at its root, the one basis optimal at 0 for every b >= 0
on the other rows, so the table calls ``solve`` once per swept row.  A dual
simplex pivot is an exchange on a copy of the rows, as in ``solve``; among
tied ratios the least label enters, as Bland's rule on the full rows would.
Each pivot is stored as an edge of the basis it leaves, so it is taken and
its new basis checked only once, as is each swept row's column of B^-1.
A breakpoint stays a pair of integers until it ends a segment.

Every segment is certified by the exact-basis certificate (Dhiflaoui et
al., SODA 2003; Applegate, Cook, Dash and Espinoza, Oper. Res. Letters 35,
2007), in integers.  Once per basis, as it enters, the table checks against
the declared rows and objective that the stored B^-1 inverts B, whose
columns are A_j for the basic structurals and e_i for the basic slacks, and
that y prices every basic column at its cost.  With dual feasibility, every
b with x_B = B^-1 b >= 0 then has A x + s = b, complementary slackness and
c.x = y.b.  Once per segment only x_B >= 0 is left, recomputed from B^-1
and the right-hand side at both ends in one pass; the segment's value must
be c.x at its lower end and its slope y_k for the swept row k.
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
    solver's final condensed ``_Tableau``, with the reduced costs last,
    whose rows a ``BasisTable`` keeps without the right-hand side.
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


class _Tableau(NamedTuple):
    """The constraint rows, then the reduced costs, each with one slot per
    nonbasic variable and the right-hand side, over ``dens``; the column
    number basic in each row and stored in each slot; and each ``>=`` row's
    surplus and artificial mapped to each other."""

    rows: list[list[int]]
    dens: list[int]
    basis: list[int]
    labels: list[int]
    first_art: int
    partner: dict[int, int]


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` exactly; returns status optimal/infeasible/unbounded.

    b is pivoted as integers b * unit, ``unit`` the lcm of its denominators,
    and the primal read out over it; the certificate checks the declared b."""
    n = lp.n_vars
    m = lp.n_rows
    unit = lcm(*(b.denominator for b in lp.rhs))
    work = [_std_row(coeffs, b.numerator * (unit // b.denominator), sense)
            for coeffs, b, sense in zip(lp.rows, lp.rhs, lp.senses)]

    slack_col: list[int] = [-1] * m
    next_col = n
    for i in range(m):
        if work[i].sense != EQ:
            slack_col[i] = next_col
            next_col += 1
    first_art = next_col  # artificials are numbered last and never enter in phase 2
    unit_col = list(slack_col)  # the column whose reduced cost gives row i's dual
    basis = list(slack_col)
    partner: dict[int, int] = {}
    for i, row in enumerate(work):
        if row.sense != LE:
            basis[i] = next_col
            if row.sense == EQ:
                unit_col[i] = next_col
            else:
                partner[next_col], partner[slack_col[i]] = slack_col[i], next_col
            next_col += 1
    # The structural columns start nonbasic, and a row from _integer_row is
    # in lowest terms; each phase prices out the reduced costs, last.
    t = _Tableau([row.structural + [row.rhs] for row in work] + [[0] * (n + 1)],
                 [row.den for row in work] + [1], basis, list(range(n)), first_art, partner)
    rows, dens = t.rows, t.dens

    obj, obj_den = _integer_row(lp.objective)

    if next_col > first_art:
        if not _run_simplex(t, [0] * first_art + [-1] * (next_col - first_art), 1, True):
            raise RuntimeError("phase-1 objective cannot be unbounded")
        if any(rows[i][n] for i in range(m) if basis[i] >= first_art):
            return LpSolution(status=INFEASIBLE)
        _drive_out(t)

    if not _run_simplex(t, obj + [0] * (next_col - n), obj_den, False):
        return LpSolution(status=UNBOUNDED)
    red, red_den = rows[m], dens[m]

    primal = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            primal[basis[i]] = Fraction(rows[i][n], dens[i] * unit)
    objective_value = sum(
        (cj * xj for cj, xj in zip(lp.objective, primal)), ZERO)

    # y = c_B B^-1.  A unit column costs nothing in phase 2, so its reduced
    # cost is -y_i, 0 when it is basic, and a >= row's is -red[sur_i]; a
    # flipped row reports -y_i.
    reduced = dict(zip(t.labels, red))
    y = [reduced.get(col, 0) * (1 if row.sense == GE else -1)  # numerators over red_den
         for row, col in zip(work, unit_col)]
    dual = tuple(Fraction(row.flip * yi, red_den) for row, yi in zip(work, y))

    solution = LpSolution(
        status=OPTIMAL,
        objective_value=objective_value,
        primal=tuple(primal),
        dual=dual,
        _tableau=t,
    )
    xs, x_den = _integer_row(solution.primal)
    weights, scale = _check_dual(work, obj, obj_den, y, red_den)
    _check_points(work, obj, obj_den, y, weights, scale,
                  [([row.rhs for row in work], unit, xs, x_den)])
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
    """One certified basis of a ``BasisTable``: the basic column of each
    row; the condensed rows of B^-1 [A | I], one slot per nonbasic column,
    then the reduced costs c - yA, as integers over positive ``dens``; the
    column number stored in each slot; and the dual y = c_B B^-1 over
    ``y_den``, the reduced costs' denominator.  ``edges`` maps a leaving
    row to the basis its dual simplex pivot reaches, and ``falls[k]`` is
    what the walks of row k read of its column (``_falling``).  The rest is
    read once the dual is checked feasible: B^-1, row r over ``dens[r]``,
    each structural basic row with its factor to the ``common`` denominator
    of those rows, and y as Fractions, which every segment on the basis
    shares as its slope.  B^-1 and y are then checked to be an exact basis
    of the declared rows (``_check_basis``; Dhiflaoui et al., SODA 2003;
    Applegate, Cook, Dash and Espinoza, Oper. Res. Letters 35, 2007), so
    every right-hand side b with B^-1 b >= 0 has the optimum they give."""

    basis: tuple[int, ...]
    rows: list[list[int]]
    dens: list[int]
    labels: list[int]
    y: list[int]
    y_den: int
    edges: dict
    falls: list
    inverse: Sequence[list[int]] = ()
    basic: Sequence[tuple[int, int, int]] = ()
    common: int = 1
    dual: Sequence[Fraction] = ()


class BasisTable:
    """The optimal bases of max c.x subject to A x <= b, x >= 0, shared by
    every right-hand side b >= 0 that is swept on it.

    A basis enters the table once, from ``solve`` or by a dual simplex
    pivot, and its dual and B^-1 are then checked against the rows of A.
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
        self._roots: dict[int, _Basis] = {}

    def sweep(self, rhs: Sequence[int], den: int, k: int) -> list[Segment]:
        """The optimum as row ``k``'s right-hand side z rises from 0 to its
        top value, when row i's right-hand side is ``rhs[i] / den``:
        segments of positive length in increasing z.

        Row k must be positive, the program bounded, and row k slack at its
        optimum at the top, so the last segment has slope 0 and holds for
        every larger z too.  The walk starts at row k's root (``_root``).  A
        basis with row r's basic variable u_r + z beta_r, where beta is row
        k's column of B^-1, is optimal up to the breakpoint -u_r / beta_r,
        least over beta_r < 0, and its edge at that row crosses it.  Ties
        follow Bland: the least basic index leaves, the least label enters.
        u is computed only on the rows with beta_r < 0 (``_falling``), and a
        breakpoint stays an integer pair until it ends a segment of positive length.

        Each basis entered the table with its B^-1 and dual checked as an
        exact basis of the rows (``_check_basis``), so a segment needs only
        B^-1 b >= 0 at both of its ends, recomputed from the right-hand
        side there; its value must be c.x at its lower end and its slope
        y_k (``_check_segment``).  A failure raises RuntimeError.
        """
        m = len(self._work)
        if len(rhs) != m or not 0 <= k < m or den <= 0 or any(b < 0 for b in rhs) or rhs[k] <= 0:
            raise ValueError(f"sweep needs {m} nonnegative right-hand sides over a positive den "
                             f"and a positive one on the swept row, which is in 0..{m - 1}")
        entry = self._roots.get(k) or self._root(k)
        rest = [0 if i == k else b for i, b in enumerate(rhs)]
        segments: list[Segment] = []
        lo, lo_num, lo_den = ZERO, 0, 1
        while True:
            rows, cols, falling = entry.falls[k] or _falling(entry, k)
            # Row r's basic variable is u_r - z * den * falling_r over dens[r] * den.
            u = [sum(map(mul, entry.inverse[r], rest)) for r in rows]
            i = _ratio_test(cols, u, falling)
            last = i < 0 or u[i] >= rhs[k] * falling[i]
            hi_num, hi_den = (rhs[k], den) if last else (u[i], den * falling[i])
            if hi_num * lo_den > lo_num * hi_den:
                hi = Fraction(hi_num, hi_den)
                segment = _segment(entry, rest, den, k, lo, hi)
                _check_segment(self._cost, self._cost_den, rhs, den, k, segment, entry)
                segments.append(segment)
                lo, lo_num, lo_den = hi, hi_num, hi_den
            if last:
                break
            r = rows[i]
            if r not in entry.edges:
                entry.edges[r] = self._edge(entry, r, Fraction(hi_num, hi_den))
            entry = entry.edges[r]
        if segments[-1].slope != 0:
            raise RuntimeError("the swept row is not slack at the top")
        return segments

    def _root(self, k: int) -> _Basis:
        """Row ``k``'s root, solved once with right-hand side 0 on row k and
        1 on the others.  Row k is positive, so primal simplex pivots only in
        it: the root is the other rows' slacks and a best column per unit of
        row k, with B^-1 b = (b without row k, 0) >= 0 at z = 0 for every b."""
        solution = solve(replace(
            self._program, rhs=tuple(ZERO if i == k else Fraction(1)
                                     for i in range(self._program.n_rows))))
        if solution.status != OPTIMAL:
            raise RuntimeError(f"cannot sweep a program that is {solution.status}")
        t = solution._tableau
        known = self._bases.get(tuple(sorted(t.basis)))  # another row's walk may have entered it
        if known is None:
            known = self._enter(t._replace(rows=[row[:-1] for row in t.rows]))
        self._roots[k] = known
        return known

    def _edge(self, entry: _Basis, r: int, z: Fraction) -> _Basis:
        """The basis that row ``r``'s dual ratio test reaches from ``entry``
        at ``z``: the least label with the least |red_j / a_j| over
        a_j < 0 enters, by an exchange on a copy of the entry's rows."""
        rows, labels = entry.rows, entry.labels
        red = rows[-1]
        q = -1
        best_d = best_a = 0
        for j, (label, a) in enumerate(zip(labels, rows[r])):
            if a < 0 and (q < 0 or red[j] * best_a < best_d * a or (
                    red[j] * best_a == best_d * a and label < labels[q])):
                q, best_d, best_a = j, red[j], a
        if q < 0:
            raise RuntimeError(f"no column can enter at {z}, yet the origin is feasible")
        t = _Tableau([list(row) for row in rows], list(entry.dens), list(entry.basis),
                     list(labels), len(labels) + len(entry.basis), {})
        _exchange(t, r, q, labels[q], [row[q] for row in rows])
        known = self._bases.get(tuple(sorted(t.basis)))
        return known if known is not None else self._enter(t)

    def _enter(self, t: _Tableau) -> _Basis:
        """Add the basis of a condensed tableau of the ``<=`` rows (reduced
        costs last, no right-hand side) to the table once its dual is
        checked feasible and, with what every sweep reads of it, an exact
        basis of the rows."""
        n = self._program.n_vars
        entry = _read_basis(t, n)
        _check_dual(self._work, self._cost, self._cost_den, entry.y, entry.y_den)
        basic = [(r, col) for r, col in enumerate(entry.basis) if col < n]
        common = lcm(*(entry.dens[r] for r, _ in basic))
        # Row r of B^-1: the slack slots, and the unit column of a basic slack.
        slot = {label: j for j, label in enumerate(entry.labels)}
        slacks = range(n, n + len(entry.basis))
        entry = entry._replace(
            inverse=[[row[slot[col]] if col in slot else den * (col == own) for col in slacks]
                     for row, den, own in zip(entry.rows, entry.dens, entry.basis)],
            basic=[(r, col, common // entry.dens[r]) for r, col in basic], common=common,
            dual=[Fraction(yi, entry.y_den) for yi in entry.y])
        _check_basis(self._work, self._cost, self._cost_den, entry)
        self._bases[tuple(sorted(entry.basis))] = entry
        return entry


def _read_basis(t: _Tableau, n) -> _Basis:
    """A table entry from a condensed tableau whose last row is the reduced
    costs.  A slack costs nothing, so its reduced cost is -y_i, and y_i is 0
    when it is basic."""
    m = len(t.basis)
    reduced = dict(zip(t.labels, t.rows[m]))
    return _Basis(tuple(t.basis), t.rows, t.dens, t.labels,
                  [-reduced.get(n + i, 0) for i in range(m)], t.dens[m], {}, [None] * m)


def _check_basis(work, cost, cost_den, entry: _Basis) -> None:
    """An entry whose dual ``_check_dual`` passed is an exact basis of the
    standard-form rows ``work`` and the objective's numerators ``cost`` over
    ``cost_den``, recomputed from them and not from the tableau: B^-1 B = I,
    where B's columns are A_j for the basic structurals and e_i for the
    basic slacks, and y B = c_B.  B is square, so a left inverse is its
    inverse, and every b with x_B = B^-1 b >= 0 then has A x + s = b,
    complementary slackness (y_i = 0 on every basic slack) and
    c.x = c_B B^-1 b = y.b.  A violation is a solver bug: RuntimeError."""
    n, m = len(cost), len(work)
    common = lcm(*(row.den for row in work))
    # B's columns over ``common``.
    columns = [[row.structural[col] * (common // row.den) for row in work] if col < n
               else [common * (i == col - n) for i in range(m)] for col in entry.basis]
    for r, (row, den) in enumerate(zip(entry.inverse, entry.dens)):
        if [sum(map(mul, row, column)) for column in columns] != [
                den * common * (c == r) for c in range(m)]:
            raise RuntimeError(f"row {r} of the stored B^-1 does not invert the basis")
    for col, column in zip(entry.basis, columns):
        price = cost[col] if col < n else 0
        if sum(map(mul, entry.y, column)) * cost_den != price * entry.y_den * common:
            raise RuntimeError(f"the dual misprices basic column {col}")


def _segment(entry: _Basis, rest, den, k, lo, hi) -> Segment:
    """The segment from ``lo`` up to ``hi`` off a basis's table entry, when
    row i's right-hand side is ``rest[i] / den`` except row k's, which is
    z: its value y.b at lo and its slope y_k."""
    y = entry.y
    q = lo.denominator
    value = Fraction(sum(map(mul, y, rest)) * q + y[k] * lo.numerator * den,
                     entry.y_den * den * q)
    return Segment(lo, hi, value, entry.dual[k])


def _falling(entry: _Basis, k: int) -> tuple:
    """The rows r where row ``k``'s column beta of B^-1 is negative, their
    basic columns and -beta_r over dens[r], kept in ``entry.falls[k]``."""
    rows = tuple(r for r, row in enumerate(entry.inverse) if row[k] < 0)
    entry.falls[k] = (rows, tuple(entry.basis[r] for r in rows),
                      tuple(-entry.inverse[r][k] for r in rows))
    return entry.falls[k]


def _check_segment(cost, cost_den, rhs, den, k, segment, entry) -> None:
    """Certify a segment of a table basis that ``_check_basis`` passed,
    when row i's right-hand side is ``rhs[i] / den`` and row k's is z.

    The slope must be y_k.  One pass over B^-1 and the right-hand side
    gives B^-1 b at both ends, which must be nonnegative; with the entry's
    checks that gives feasibility, complementary slackness and strong
    duality there.  The value must be c.x at lo, built through the
    structural basic rows' factors."""
    lo, hi, value, slope = segment
    if slope.numerator * entry.y_den != entry.y[k] * slope.denominator:
        raise RuntimeError("segment slope is not the swept row's dual")
    # Row r's basic variable at lo over dens[r] * den * p, at hi over dens[r] * den * q.
    p, q = lo.denominator, hi.denominator
    at_lo, at_hi, b_k = lo.numerator * den, hi.numerator * den, rhs[k]
    xs, ends = [], []
    for row in entry.inverse:
        fixed = sum(map(mul, row, rhs)) - row[k] * b_k
        xs.append(fixed * p + row[k] * at_lo)
        ends.append(fixed * q + row[k] * at_hi)
    if min(xs) < 0:
        raise RuntimeError(f"negative basic variable at z = {lo}")
    # c.x over cost_den * common * den * p.
    objective = sum(cost[col] * xs[r] * factor for r, col, factor in entry.basic)
    if objective * value.denominator != value.numerator * cost_den * entry.common * den * p:
        raise RuntimeError("primal objective differs from the reported value")
    if min(ends) < 0:
        raise RuntimeError(f"negative basic variable at z = {hi}")


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators over the least common denominator, which is then in lowest terms."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _price_out(t: _Tableau, cost, cost_den) -> None:
    """Set the reduced costs to ``cost`` - c_B B^-1 [A | b] at the slots and
    the right-hand side, ``cost`` being numerators over ``cost_den`` per
    column number.  A basic cost is not a stored entry, so the row is
    computed over one common denominator and then reduced."""
    rows, dens, basis = t.rows, t.dens, t.basis
    priced = [i for i, col in enumerate(basis) if cost[col]]
    common = lcm(*(dens[i] for i in priced))
    red = [cost[label] * common for label in t.labels] + [0]
    for i in priced:
        factor = cost[basis[i]] * (common // dens[i])
        red = [r - factor * a for r, a in zip(red, rows[i])]
    g = gcd(cost_den * common, *red)
    rows[-1] = [a // g for a in red]
    dens[-1] = cost_den * common // g


def _run_simplex(t: _Tableau, cost, cost_den, phase1: bool) -> bool:
    """Price the basis out for ``cost`` (``_price_out``) and pivot by
    Bland's rule until optimal; False when the objective is unbounded.
    The least label below ``first_art`` with a positive reduced cost
    enters, and then, in phase 1, the least artificial: a stored one, or a
    ``>=`` row's through its surplus's slot q with reduced cost
    ``-D - red[q]``."""
    rows, dens, basis, labels, first_art, partner = t
    m = len(basis)
    _price_out(t, cost, cost_den)
    red = rows[m]
    while True:
        entering = q = -1
        for j, label in enumerate(labels):
            if label < first_art and red[j] > 0 and (q < 0 or label < entering):
                entering, q = label, j
        for j, label in enumerate(labels if phase1 and q < 0 else ()):
            if label >= first_art:  # a stored artificial
                art, improves = label, red[j] > 0
            else:  # a >= row's artificial, through its surplus's slot
                art, improves = partner.get(label, -1), -dens[m] - red[j] > 0
            if art >= 0 and improves and (q < 0 or art < entering):
                entering, q = art, j
        if q < 0:
            return True
        column = [row[q] for row in rows]
        if entering != labels[q]:  # a >= row's artificial: the negated surplus
            column = [-a for a in column]
            column[m] -= dens[m]
        r = _ratio_test(basis, (row[-1] for row in rows), column)
        if r < 0:
            return False
        _exchange(t, r, q, entering, column)


def _exchange(t: _Tableau, r: int, q: int, entering: int, column) -> None:
    """Pivot column number ``entering``, with entries ``column`` in every
    row, into row ``r``'s basis through slot ``q``.  The leaving variable
    takes the slot with row r's unit column; a ``>=`` row's artificial
    leaves as its surplus, the negated unit column with phase-1 reduced
    cost -1."""
    rows, dens = t.rows, t.dens
    leaving, sign = t.basis[r], 1
    if leaving >= t.first_art and leaving in t.partner:
        leaving, sign = t.partner[leaving], -1
    for row in rows:
        row[q] = 0
    rows[r][q] = sign * dens[r]
    if sign < 0:
        rows[-1][q] = -dens[-1]
    t.labels[q] = leaving
    _pivot(rows, dens, t.basis, r, entering, column)


def _drive_out(t: _Tableau) -> None:
    """Pivot zero-valued basic artificials out after phase 1, each on the
    least label below ``first_art`` with a nonzero entry in its row; a
    ``>=`` row's own surplus, whose entry is -1, counts.  Only a redundant
    ``=`` row has no such entry; its artificial stays basic at zero and no
    later pivot can move it."""
    rows, dens, basis, labels, first_art, partner = t
    for r, art in enumerate(basis):
        if art < first_art:
            continue
        label, q = min(((label, j) for j, label in enumerate(labels)
                        if label < first_art and rows[r][j]), default=(first_art, -1))
        if partner.get(art, first_art) < label:  # the surplus swaps in: -1 times row r
            column = [0] * len(rows)
            column[r], column[-1] = -dens[r], -dens[-1]
            _pivot(rows, dens, basis, r, partner[art], column)
        elif q >= 0:
            _exchange(t, r, q, label, [row[q] for row in rows])


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


def _pivot(rows, dens, basis, pr, pc, column) -> None:
    """Make column number ``pc`` basic in row ``pr``; every other row loses
    it.  ``column`` holds its entry in each row of ``rows``."""
    prow = rows[pr]
    p = column[pr]
    if p < 0:
        prow = [-a for a in prow]
        p = -p
    g = gcd(p, *prow)  # a condensed row does not store its pivot entry
    if g != 1:
        prow = [a // g for a in prow]
        p //= g
    rows[pr] = prow
    dens[pr] = p  # the pivot entry is now p / p = 1
    support = [j for j, a in enumerate(prow) if a]
    for i, (row, a) in enumerate(zip(rows, column)):
        if a and i != pr:
            dens[i] = _eliminate(row, dens[i], a, prow, p, support)
    basis[pr] = pc


def _eliminate(row, den, entry, prow, pden, support) -> int:
    """row -= (entry / den) * prow in place, where ``entry`` is the row's
    numerator in the pivot column and the pivot row's is pden.

    Only the nonzero columns ``support`` of the pivot row change, unless
    the new denominator scales the whole row.  Returns the new denominator
    after the row is reduced to lowest terms, which a row over 1 is.
    """
    g = gcd(entry, pden)
    scale, factor = pden // g, entry // g
    if scale != 1:
        row[:] = [a * scale for a in row]
        den *= scale
    for j in support:
        row[j] -= factor * prow[j]
    g = gcd(den, *row) if den != 1 else 1
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
