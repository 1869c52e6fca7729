"""Core tests, constructive stable allocations and the trading ledger.

Core nonemptiness is decided exactly.  A subset recursion over coalition
masks first finds the best partition total: above the grand value, the core
is empty and the first partition reaching it, which reads better in reports,
is the certificate; no LP is solved.  Otherwise minimize total payout
subject to every proper coalition's rationality constraint and compare with
the grand value.  When the core is still empty the LP dual supplies balanced
coalition weights whose weighted worths exceed the grand value, an exact
certificate.  Every certificate is re-checked before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .games import CharacteristicGame, lex_coalitions
from .lp import GE, EQ, LE, OPTIMAL, LinearProgram, as_fraction, linear_program, solve
from .partition_games import (
    MINUS,
    build_game,
    pessimistic_game,
    resource_game,
)
from .partitions import block_with_singletons
from .production import (
    Situation,
    coalition_value,
    grand_coalition_dual,
    optimal_demand,
    production_revenue,
)
from . import bankruptcy

ZERO = Fraction(0)
ONE = Fraction(1)


class TargetError(ValueError):
    """A trading target that does not fit the economy (length or efficiency),
    or a permit price that is not positive."""


@dataclass(frozen=True)
class CoreMembership:
    ok: bool
    efficiency_ok: bool
    total: Fraction
    grand_value: Fraction
    violated: Optional[frozenset[int]] = None
    coalition_total: Optional[Fraction] = None
    coalition_value: Optional[Fraction] = None


def in_core(game: CharacteristicGame, allocation: Sequence) -> CoreMembership:
    """Exact membership test; reports the lexicographically first violation."""
    x = tuple(as_fraction(v) for v in allocation)
    if len(x) != len(game.players):
        raise ValueError(
            f"allocation has {len(x)} entries for {len(game.players)} players")
    total = sum(x, ZERO)
    grand = game.grand_value
    if total != grand:
        return CoreMembership(
            ok=False, efficiency_ok=False, total=total, grand_value=grand)
    den = lcm(*(v.denominator for v in x))
    pay = {p: v.numerator * (den // v.denominator) for p, v in zip(game.players, x)}
    for fs in game.coalitions():  # the grand coalition gets its worth exactly
        got, need = sum(map(pay.__getitem__, fs)), game.values[fs]
        if got * need.denominator < need.numerator * den:
            return CoreMembership(
                ok=False, efficiency_ok=True, total=total, grand_value=grand,
                violated=fs, coalition_total=Fraction(got, den), coalition_value=need)
    return CoreMembership(ok=True, efficiency_ok=True, total=total, grand_value=grand)


@dataclass(frozen=True)
class CoreCertificate:
    """Balanced weights (or a partition, weights all one) proving emptiness:
    the weighted coalition worths sum beyond the grand value."""

    kind: str  # "partition" or "balanced"
    parts: tuple[tuple[frozenset[int], Fraction], ...]
    weighted_total: Fraction
    grand_value: Fraction


@dataclass(frozen=True)
class CoreVerdict:
    nonempty: bool
    witness: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[CoreCertificate] = None


def core_nonempty(game: CharacteristicGame) -> CoreVerdict:
    """Exact emptiness decision with a witness or a certificate."""
    n = len(game.players)
    grand = game.grand_value
    if n == 1:
        return CoreVerdict(nonempty=True, witness=(grand,))
    over_claim = _over_claiming_partition(game)
    if over_claim is not None:
        return CoreVerdict(nonempty=False, certificate=_checked(game, over_claim))
    proper, program = _core_program(game)
    sol = solve(program)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"core program unexpectedly {sol.status}")
    cheapest = -sol.objective_value
    if cheapest <= grand:
        witness = [sol.primal[2 * i] - sol.primal[2 * i + 1] for i in range(n)]
        witness[0] += grand - cheapest  # hand any surplus to the first player
        verdict = CoreVerdict(nonempty=True, witness=tuple(witness))
        if not in_core(game, verdict.witness).ok:
            raise RuntimeError("core witness failed its exact membership re-check")
        return verdict
    parts = tuple((fs, -y) for fs, y in zip(proper, sol.dual) if y != 0)
    return CoreVerdict(nonempty=False, certificate=_checked(game, CoreCertificate(
        kind="balanced", parts=parts, weighted_total=cheapest, grand_value=grand)))


def _checked(game: CharacteristicGame, cert: CoreCertificate) -> CoreCertificate:
    """Re-check an emptiness certificate in plain Fraction arithmetic, with
    no call into ``lp``: positive weights on proper coalitions of the game,
    summing to 1 over the coalitions that hold each player, and weighted
    worths that equal ``weighted_total`` and exceed the grand value.  A
    failure is a ``RuntimeError``, an explicit check that also runs under
    ``python -O``."""
    everyone = frozenset(game.players)
    cover = dict.fromkeys(game.players, ZERO)
    for fs, weight in cert.parts:
        if weight <= 0 or not fs or not fs < everyone:
            raise RuntimeError(
                f"core certificate weighs {sorted(fs)} by {weight}: not a positive "
                "weight on a proper coalition")
        for i in fs:
            cover[i] += weight
    if any(total != 1 for total in cover.values()):
        raise RuntimeError("core certificate weights do not sum to 1 for every player")
    total = sum((weight * game.values[fs] for fs, weight in cert.parts), ZERO)
    if total != cert.weighted_total or cert.grand_value != game.grand_value:
        raise RuntimeError("core certificate totals disagree with the game's worths")
    if total <= game.grand_value:
        raise RuntimeError("core certificate does not exceed the grand value")
    return cert


def _core_program(game: CharacteristicGame):
    """(proper coalitions, program): minimise total payout subject to one
    ``>=`` row per proper coalition, in lex order."""
    n = len(game.players)
    proper = [fs for fs in game.coalitions() if len(fs) < n]
    # Payoffs may be negative, so player i's payoff is x[2i] - x[2i+1].
    inside, outside = (ONE, -ONE), (ZERO, ZERO)
    rows = tuple(sum((inside if p in fs else outside for p in game.players), ()) for fs in proper)
    return proper, LinearProgram(
        (-ONE, ONE) * n, rows, (GE,) * len(proper), tuple(game.values[fs] for fs in proper))


def _over_claiming_partition(game: CharacteristicGame) -> Optional[CoreCertificate]:
    """The first partition, in enumeration order, whose blocks' worths exceed
    the grand value by the most; None when no partition over-claims.  With
    integer worths indexed by mask (bit i for ``players[i]``), best(S) is the
    max of worth(B) + best(S - B) over blocks B holding S's least member, in
    about 3^n / 2 steps.  Then each member in turn joins the first open block,
    else opens its own, whose ``_best_extension`` still reaches best(N)."""
    bit = {p: 1 << i for i, p in enumerate(game.players)}
    den = lcm(*(v.denominator for v in game.values.values()))
    worth = [0] * (1 << len(bit))
    for fs, v in game.values.items():
        worth[sum(map(bit.__getitem__, fs))] = v.numerator * (den // v.denominator)
    best = [0] * len(worth)
    for s in range(1, len(worth)):  # s's least member's block takes a submask of the rest
        best[s] = _best_extension(worth, best, [s & -s], s & (s - 1))
    top = best[-1]
    if top <= worth[-1]:
        return None
    blocks = [1]
    for i in range(1, len(bit)):
        member, rest = 1 << i, len(worth) - (2 << i)  # rest: the members after i
        joins = [blocks[:j] + [b | member] + blocks[j + 1:] for j, b in enumerate(blocks)]
        blocks = next((t for t in joins if _best_extension(worth, best, t, rest) == top),
                      blocks + [member])  # when no join reaches top, its own block does
    return CoreCertificate(
        "partition", tuple((frozenset(p for p, m in bit.items() if m & b), ONE) for b in blocks),
        Fraction(top, den), game.grand_value)


def _best_extension(worth: list[int], best: list[int], blocks: list[int], rest: int) -> int:
    """The largest total of a partition that adds a submask of ``rest`` to
    each of ``blocks`` and splits the remainder by ``best``."""
    *earlier, last = blocks
    for b in earlier:  # every submask's best once b has taken its share
        reach, s = {0: worth[b] + best[0]}, rest
        while s:
            reach[s] = _best_extension(worth, best, [b], s)
            s = (s - 1) & rest
        best = reach
    top, t = worth[last | rest] + best[0], rest
    while t:
        t = (t - 1) & rest
        total = worth[last | t] + best[rest ^ t]
        if total > top:
            top = total
    return top


@dataclass(frozen=True)
class MoneyAllocation:
    money: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]  # one price per resource plus the permit price


def owen_allocation(sit: Situation, permit_split: Sequence) -> MoneyAllocation:
    """Money allocation built from an optimal dual of the pooled program.

    Firm i receives its endowment priced at the resource duals plus its permit
    share priced at the permit dual net of the tax.  The total always equals
    the grand profit; when the split lies in the core of the pessimistic
    resource game the result lies in the pessimistic core.  With several
    optimal duals this returns the solver's deterministic one, so it is *a*
    core element, not a canonical one.
    """
    h = tuple(as_fraction(v) for v in permit_split)
    firms = sit.firms()
    if len(h) != len(firms):
        raise ValueError(f"permit split has {len(h)} entries for {len(firms)} firms")
    if any(v < 0 for v in h):
        raise ValueError("permit split must be nonnegative")
    if sum(h, ZERO) != sit.cap:
        raise ValueError(f"permit split must sum to the cap {sit.cap}")
    if optimal_demand(sit, firms) <= sit.cap:
        raise ValueError(
            "grand demand does not exceed the cap; the permit price is not "
            "guaranteed to beat the tax, so this construction does not apply")
    sol = grand_coalition_dual(sit)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"pooled program unexpectedly {sol.status}")
    dual = sol.dual
    permit_price = dual[-1]
    if permit_price <= sit.tax:
        raise RuntimeError(
            "permit dual price failed to exceed the tax despite a scarce cap")
    money = []
    for i in firms:
        stock = sit.endowment(i)
        money.append(
            sum((b * y for b, y in zip(stock, dual)), ZERO)
            + h[i - 1] * (permit_price - sit.tax))
    total = sum(money, ZERO)
    expected = coalition_value(sit, firms, sit.cap)
    if total != expected:
        raise RuntimeError("money allocation does not add up to the grand profit")
    return MoneyAllocation(money=tuple(money), dual=dual)


@dataclass
class PipelineReport:
    rule: str
    individual_demands: tuple[Fraction, ...]
    grand_demand: Fraction
    cap: Fraction
    scarce: bool                   # grand demand exceeds the cap
    claims_exceed_cap: bool        # individual demands sum beyond the cap
    permit_split: tuple[Fraction, ...]
    split_membership: Optional[CoreMembership] = None
    resource_core: Optional[CoreVerdict] = None
    standalone_ok: Optional[bool] = None
    pairwise_floor_ok: Optional[bool] = None  # min pair demand sum >= 2 cap / n
    cea_conditions_ok: Optional[bool] = None
    money: Optional[MoneyAllocation] = None
    money_membership: Optional[CoreMembership] = None
    verdict: str = "abundant"


def stable_pipeline(sit: Situation, rule: str) -> PipelineReport:
    """Demands -> permit split -> resource-core check -> priced money allocation.
    A rationed cap runs ``build_game``, so keeping the firm count feasible is
    the caller's job."""
    rule = bankruptcy.check_rule(rule)
    firms = sit.firms()
    n = len(firms)
    individual = tuple(optimal_demand(sit, [i]) for i in firms)
    grand_demand = optimal_demand(sit, firms)
    scarce = grand_demand > sit.cap
    claims_exceed = sum(individual, ZERO) > sit.cap
    split = bankruptcy.allocate(rule, individual, sit.cap)

    report = PipelineReport(
        rule=rule, individual_demands=individual,
        grand_demand=grand_demand, cap=sit.cap, scarce=scarce,
        claims_exceed_cap=claims_exceed, permit_split=split)

    two_per_head = 2 * sit.cap / n
    report.pairwise_floor_ok = all(
        individual[i] + individual[j] >= two_per_head
        for i in range(n) for j in range(n))
    report.cea_conditions_ok = (
        rule == bankruptcy.CEA and scarce and report.pairwise_floor_ok)

    if not (scarce and claims_exceed):
        report.verdict = "abundant" if not claims_exceed else "cap-covers-grand-demand"
        return report

    game = build_game(sit, rule)
    minus = resource_game(game, MINUS)
    report.split_membership = in_core(minus, split)
    report.resource_core = core_nonempty(minus)

    everyone = frozenset(firms)
    by_firm = dict(zip(firms, split))
    report.standalone_ok = all(
        sum((by_firm[i] for i in fs), ZERO) >= game.share(fs, block_with_singletons(fs, n))
        for fs in lex_coalitions(firms) if fs != everyone)

    if not report.split_membership.ok:
        report.verdict = "permit-allocation-unstable"
        return report

    report.money = owen_allocation(sit, split)
    report.money_membership = in_core(pessimistic_game(game), report.money.money)
    report.verdict = "stable" if report.money_membership.ok else "money-allocation-unstable"
    return report


@dataclass(frozen=True)
class TradeRow:
    firm: int
    initial_permits: Fraction
    final_permits: Fraction
    production_revenue: Fraction
    tax_paid: Fraction
    net_sold: Fraction
    trade_cash: Fraction
    net_profit: Fraction


@dataclass(frozen=True)
class TradeLedger:
    feasible: bool
    reason: str = ""
    price: Optional[Fraction] = None
    rows: tuple[TradeRow, ...] = ()
    manager_revenue: Fraction = ZERO


def trade_ledger(sit: Situation, permit_split: Sequence, target: Sequence,
                 price=None) -> TradeLedger:
    """Uniform-price permit trading that turns the split into the target payoffs.

    Each firm ends up holding some final permit quantity, produces on its own
    endowment, pays the tax on its initial allocation and settles the permit
    difference at one common price.  Final holdings and, when not supplied,
    the price itself are solved from the target; ledgers needing several
    prices are out of scope and reported as infeasible.  A supplied price
    must be positive (``TargetError``).
    """
    firms = sit.firms()
    h = tuple(as_fraction(v) for v in permit_split)
    t = tuple(as_fraction(v) for v in target)
    if len(h) != len(firms) or len(t) != len(firms):
        raise TargetError("split and target must have one entry per firm")
    if price is not None:
        price = as_fraction(price)
        if price <= 0:
            raise TargetError(f"uniform permit price must be positive, got {price}")
    if sum(h, ZERO) != sit.cap or any(v < 0 for v in h):
        raise ValueError(f"permit split must be nonnegative and sum to the cap {sit.cap}")
    grand = coalition_value(
        sit, firms, min(sit.cap, optimal_demand(sit, firms)))
    if sum(t, ZERO) != grand:
        raise TargetError(
            f"target is not efficient: sums to {sum(t, ZERO)}, grand profit is {grand}")
    manager = sit.tax * sit.cap

    def autarky(i):
        return coalition_value(sit, [i], h[i - 1])

    if all(t[i - 1] == autarky(i) for i in firms):
        rows = tuple(
            TradeRow(
                firm=i, initial_permits=h[i - 1], final_permits=h[i - 1],
                production_revenue=production_revenue(sit, [i], h[i - 1]),
                tax_paid=sit.tax * h[i - 1], net_sold=ZERO, trade_cash=ZERO,
                net_profit=t[i - 1])
            for i in firms)
        return TradeLedger(feasible=True, price=None, rows=rows, manager_revenue=manager)

    if price is None:
        for candidate in _price_candidates(sit, h, t):
            if candidate > 0:
                ledger = _ledger_at_price(sit, h, t, candidate, manager)
                if ledger.feasible:
                    return ledger
        return TradeLedger(
            feasible=False,
            reason="no uniform permit price implied by the target verifies; "
                   "supply one explicitly if you believe it exists")
    return _ledger_at_price(sit, h, t, price, manager)


def _price_candidates(sit: Situation, h, t) -> list[Fraction]:
    """Prices consistent with some firm's balance at the canonical holdings.

    The canonical holdings split the cap so that own production is jointly
    best; each firm whose holding moved then implies one candidate price.
    """
    n = sit.n_firms
    g = sit.n_goods
    sol = solve(_holdings_program(sit, None))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"holdings program unexpectedly {sol.status}")
    candidates = set()
    for i in range(n):
        revenue = sum(
            (sit.prices[k] * sol.primal[i * (g + 1) + k] for k in range(g)), ZERO)
        gap = h[i] - sol.primal[i * (g + 1) + g]
        if gap != 0:
            candidates.add((t[i] - revenue + sit.tax * h[i]) / gap)
    return sorted(candidates)


def _holdings_program(sit: Situation, price_terms):
    """Per-firm production plans plus final holdings exhausting the cap.

    With ``price_terms`` (price, targets) each firm's revenue net of permits
    priced at the uniform price is pinned to its target requirement; any
    feasible point then makes every firm's plan individually optimal.
    """
    n = sit.n_firms
    g = sit.n_goods
    width = n * (g + 1)

    def col(i, k):
        return i * (g + 1) + k

    objective = [ZERO] * width
    if price_terms is None:
        for i in range(n):
            for k in range(g):
                objective[col(i, k)] = sit.prices[k]
    constraints = []
    for i in range(n):
        stock = sit.endowment(i + 1)
        for row, b in zip(sit.resource_rows, stock):
            coeffs = [ZERO] * width
            for k in range(g):
                coeffs[col(i, k)] = row[k]
            constraints.append((coeffs, LE, b))
        coeffs = [ZERO] * width
        for k in range(g):
            coeffs[col(i, k)] = sit.permit_row[k]
        coeffs[col(i, g)] = Fraction(-1)
        constraints.append((coeffs, LE, ZERO))
    total_holdings = [ZERO] * width
    for i in range(n):
        total_holdings[col(i, g)] = Fraction(1)
    constraints.append((total_holdings, EQ, sit.cap))
    if price_terms is not None:
        price, kappa = price_terms
        for i in range(n):
            coeffs = [ZERO] * width
            for k in range(g):
                coeffs[col(i, k)] = sit.prices[k]
            coeffs[col(i, g)] = -price
            constraints.append((coeffs, EQ, kappa[i]))
    return linear_program(objective, constraints)


def _ledger_at_price(sit: Situation, h, t, price, manager) -> TradeLedger:
    n = sit.n_firms
    g = sit.n_goods
    kappa = [t[i] + sit.tax * h[i] - price * h[i] for i in range(n)]
    sol = solve(_holdings_program(sit, (price, kappa)))
    if sol.status != OPTIMAL:
        return TradeLedger(
            feasible=False,
            reason=f"no uniform-price ledger at price {price} reproduces the target")
    rows = []
    for i in range(n):
        base = i * (g + 1)
        revenue = sum((sit.prices[k] * sol.primal[base + k] for k in range(g)), ZERO)
        holding = sol.primal[base + g]
        if revenue != production_revenue(sit, [i + 1], holding):
            return TradeLedger(
                feasible=False,
                reason="target forces some firm below its best own production; "
                       "no uniform-price ledger reproduces it")
        sold = h[i] - holding
        rows.append(TradeRow(
            firm=i + 1, initial_permits=h[i], final_permits=holding,
            production_revenue=revenue, tax_paid=sit.tax * h[i],
            net_sold=sold, trade_cash=price * sold,
            net_profit=revenue - sit.tax * h[i] + price * sold))
    if any(row.net_profit != t[row.firm - 1] for row in rows):
        raise RuntimeError("ledger net profits do not reproduce the target")
    return TradeLedger(
        feasible=True, price=price, rows=tuple(rows), manager_revenue=manager)
