"""Exact linear programming over the rationals.

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
"""

from __future__ import annotations

from dataclasses import dataclass
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
ONE = Fraction(1)

_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


class LpStructureError(ValueError):
    """Malformed program (bad dimensions, unknown sense, inexact number).

    Distinct from INFEASIBLE, which is a property of a well-formed program.
    """


def as_fraction(x) -> Fraction:
    """Convert an exact numeric literal (int, Fraction, 'p/q' or decimal string)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise LpStructureError(f"not an exact number: {x!r}") from exc
    raise LpStructureError(f"refusing inexact or unknown numeric type {type(x).__name__}: {x!r}")


def _fraction_vector(values) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x subject to rows {<=,=,>=} rhs and variable bounds.

    ``lower[j]`` is a Fraction (default 0) or None for a free variable;
    ``upper[j]`` is a Fraction or None (default) for no upper bound.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def linear_program(objective, constraints, lower=ZERO, upper=None) -> LinearProgram:
    """Build a validated LinearProgram.

    ``constraints`` is an iterable of (coefficients, sense, rhs) triples.
    ``lower``/``upper`` may be a single bound applied to every variable or a
    per-variable sequence; None means unbounded on that side.
    """
    obj = _fraction_vector(objective)
    n = len(obj)
    if n == 0:
        raise LpStructureError("a program needs at least one variable")
    rows, senses, rhs = [], [], []
    for k, triple in enumerate(constraints):
        try:
            coeffs, sense, b = triple
        except (TypeError, ValueError) as exc:
            raise LpStructureError(f"constraint {k}: expected (coeffs, sense, rhs)") from exc
        coeffs = _fraction_vector(coeffs)
        if len(coeffs) != n:
            raise LpStructureError(
                f"constraint {k}: {len(coeffs)} coefficients for {n} variables")
        if sense not in (LE, EQ, GE):
            raise LpStructureError(f"constraint {k}: unknown sense {sense!r}")
        rows.append(coeffs)
        senses.append(sense)
        rhs.append(as_fraction(b))

    def expand(bound):
        if bound is None or isinstance(bound, (int, Fraction, str)):
            one = None if bound is None else as_fraction(bound)
            return tuple(one for _ in range(n))
        seq = tuple(bound)
        if len(seq) != n:
            raise LpStructureError(f"{len(seq)} bounds for {n} variables")
        return tuple(None if b is None else as_fraction(b) for b in seq)

    return LinearProgram(
        objective=obj,
        rows=tuple(rows),
        senses=tuple(senses),
        rhs=tuple(rhs),
        lower=expand(lower),
        upper=expand(upper),
    )


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve; primal/dual/objective_value are None unless optimal.

    ``dual`` carries one multiplier per declared constraint, with signs fixed
    so that for a maximization a <=-row has a nonnegative multiplier and a
    >=-row a nonpositive one.  At an optimum the pair (primal, dual) satisfies
    complementary slackness exactly.
    """

    status: str
    objective_value: Optional[Fraction] = None
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None


class _StdRow(NamedTuple):
    """structural . u {sense} rhs, every entry over ``den``; rhs >= 0.

    ``flip`` is -1 when the declared row was negated to make rhs >= 0.
    """

    structural: list[int]
    sense: str
    rhs: int
    den: int
    flip: int


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` exactly; returns status optimal/infeasible/unbounded."""
    _validate(lp)
    n = lp.n_vars

    # Map declared variables onto nonnegative standard-form columns.
    # Finite lower bound: x = lower + u.  Free: x = u+ - u-.
    col_of_var: list[tuple[str, int, int]] = []  # (kind, col, col_neg)
    shifts: list[Fraction] = []
    std_cols = 0
    for j in range(n):
        low = lp.lower[j]
        if low is None:
            col_of_var.append(("free", std_cols, std_cols + 1))
            shifts.append(ZERO)
            std_cols += 2
        else:
            col_of_var.append(("shift", std_cols, -1))
            shifts.append(low)
            std_cols += 1

    def std_row(coeffs: Sequence[Fraction], rhs: Fraction, sense: str) -> _StdRow:
        nums, den = _integer_row([*coeffs, rhs])
        row = [0] * std_cols
        for j in range(n):
            a = nums[j]
            if a:
                kind, c0, c1 = col_of_var[j]
                row[c0] = a
                if kind == "free":
                    row[c1] = -a
        if nums[n] < 0:
            return _StdRow([-a for a in row], _FLIPPED[sense], -nums[n], den, -1)
        return _StdRow(row, sense, nums[n], den, 1)

    # Standard-form rows: the declared rows, then one internal <=-row per
    # finite upper bound (its dual is not reported).
    work = []
    for i in range(lp.n_rows):
        shift = sum((a * s for a, s in zip(lp.rows[i], shifts) if s), ZERO)
        work.append(std_row(lp.rows[i], lp.rhs[i] - shift, lp.senses[i]))
    n_declared = lp.n_rows
    for j in range(n):
        if lp.upper[j] is not None:
            coeffs = [ZERO] * n
            coeffs[j] = ONE
            work.append(std_row(coeffs, lp.upper[j] - shifts[j], LE))
    m = len(work)

    # Column layout: structural | slack/surplus | artificial, then rhs.
    slack_col: list[int] = [-1] * m
    unit_col: list[int] = [-1] * m  # column whose tableau entries expose B^-1
    next_col = std_cols
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
        row = structural + [0] * (total - std_cols) + [b]
        if slack_col[i] >= 0:
            row[slack_col[i]] = den if sense == LE else -den
        row[unit_col[i]] = den
        rows.append(row)
        dens.append(den)
        basis[i] = unit_col[i]

    obj, obj_den = _integer_row(lp.objective)
    cost = [0] * total
    for j in range(n):
        kind, c0, c1 = col_of_var[j]
        cost[c0] = obj[j]
        if kind == "free":
            cost[c1] = -obj[j]

    if first_art < total:
        phase1 = [0] * first_art + [-1] * (total - first_art)
        if _run_simplex(rows, dens, basis, phase1, 1, total) is None:
            raise RuntimeError("phase-1 objective cannot be unbounded")
        if any(rows[i][total] for i in range(m) if basis[i] >= first_art):
            return LpSolution(status=INFEASIBLE)
        _drive_out_artificials(rows, dens, basis, first_art)

    reduced = _run_simplex(rows, dens, basis, cost, obj_den, first_art)
    if reduced is None:
        return LpSolution(status=UNBOUNDED)
    red, red_den = reduced

    values = [ZERO] * std_cols
    for i in range(m):
        if basis[i] < std_cols:
            values[basis[i]] = Fraction(rows[i][total], dens[i])
    primal = []
    for j in range(n):
        kind, c0, c1 = col_of_var[j]
        x = shifts[j] + values[c0]
        if kind == "free":
            x = values[c0] - values[c1]
        primal.append(x)
    objective_value = sum(
        (cj * xj for cj, xj in zip(lp.objective, primal)), ZERO)

    # y = c_B B^-1.  A unit column costs nothing in phase 2, so its reduced
    # cost is -y_i; a flipped declared row reports -y_i.
    y = [-red[unit_col[i]] for i in range(m)]  # numerators over red_den
    dual = tuple(Fraction(work[i].flip * y[i], red_den) for i in range(n_declared))

    solution = LpSolution(
        status=OPTIMAL,
        objective_value=objective_value,
        primal=tuple(primal),
        dual=dual,
    )
    _self_check(lp, solution, work, cost[:std_cols], obj_den, y, red_den, values)
    return solution


def _validate(lp: LinearProgram) -> None:
    n = lp.n_vars
    if not (len(lp.senses) == len(lp.rhs) == lp.n_rows):
        raise LpStructureError("row count, senses and rhs lengths disagree")
    for i, row in enumerate(lp.rows):
        if len(row) != n:
            raise LpStructureError(f"row {i} has {len(row)} coefficients, expected {n}")
    if len(lp.lower) != n or len(lp.upper) != n:
        raise LpStructureError("bounds length disagrees with variable count")
    for i, sense in enumerate(lp.senses):
        if sense not in (LE, EQ, GE):
            raise LpStructureError(f"row {i}: unknown sense {sense!r}")
    for j in range(n):
        low, up = lp.lower[j], lp.upper[j]
        if low is not None and up is not None and low > up:
            raise LpStructureError(f"variable {j}: lower bound exceeds upper bound")


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
            # Ratio test: rhs_i / a_i, whose row denominators cancel.
            pivot_row = -1
            best_b = best_a = 0
            for i in range(m):
                a = rows[i][pivot_col]
                if a > 0:
                    b = rows[i][rhs]
                    if pivot_row < 0 or b * best_a < best_b * a or (
                            b * best_a == best_b * a and basis[i] < basis[pivot_row]):
                        pivot_row, best_b, best_a = i, b, a
            if pivot_row < 0:
                return None
            _pivot(rows, dens, basis, pivot_row, pivot_col)
    finally:
        rows.pop()
        dens.pop()


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


def _self_check(lp, sol, work, cost, cost_den, y, y_den, values) -> None:
    """Exact certificate checks; a violation is a solver bug.

    ``work`` holds the standard-form rows as built before the first pivot,
    ``cost`` the objective on their structural columns (over ``cost_den``),
    ``y`` the standard-form duals (over ``y_den``) and ``values`` the
    structural variables.  Primal feasibility, complementary slackness and
    strong duality hold for y = c_B B^-1 at any feasible basis.  Dual
    feasibility, recomputed here from the rows and not read from the
    tableau, is what proves the basis optimal.
    """
    x = sol.primal
    xs, x_den = _integer_row(x)
    for i in range(lp.n_rows):
        nums, _ = _integer_row([*lp.rows[i], lp.rhs[i]])
        lhs = sum(a * v for a, v in zip(nums, xs))  # both sides scaled by den * x_den
        rhs = nums[-1] * x_den
        sense = lp.senses[i]
        ok = lhs <= rhs if sense == LE else (lhs >= rhs if sense == GE else lhs == rhs)
        if not ok:
            raise RuntimeError(f"simplex returned an infeasible primal (row {i})")
        if sense != EQ:
            dual = sol.dual[i]
            if dual and lhs != rhs:
                raise RuntimeError(f"complementary slackness violated on row {i}")
            if (sense == LE and dual < 0) or (sense == GE and dual > 0):
                raise RuntimeError(f"dual sign violated on row {i}")
    for j, v in enumerate(x):
        low, up = lp.lower[j], lp.upper[j]
        if (low is not None and v < low) or (up is not None and v > up):
            raise RuntimeError(f"variable {j} left its bounds")
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
    # Strong duality in the standard-form space (includes internal bound rows).
    dual_value = Fraction(sum(w * row.rhs for w, row in zip(weights, work)), scale)
    primal_value = sum((c * v for c, v in zip(cost, values) if c), ZERO) / cost_den
    if dual_value != primal_value:
        raise RuntimeError("strong duality failed in standard form")
