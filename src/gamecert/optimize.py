"""Search for winning parameters: largest pattern count, best witness and dim.

The certificates leave four knobs open, searched as follows:

* the pattern count M — a witness meeting conditions (1) and (2) has
  N = floor(delta/rate) > 1/delta >= 216 free steps: condition (1) gives
  rate < delta^2, and condition (2) keeps delta below 3^-n / pack <= 1/216.
  From N = 27 on, every 1 - 5 beta_j^N rounds to 1.0 (beta_j < 1/5), so in
  this tail condition (2) reads pack * delta < 3^-n with margin, whatever
  the rate.  The largest witness that can certify, the tail witness, is
  thus a constant of the dimension n, and it certifies every pattern count
  that any witness certifies.  At the tail witness condition (2) holds
  whenever condition (1) does, so the largest M is M* = the floor of
  exp(rhs1 - c log alpha), settled by certifying M* and M* + 1;
* the witness delta — the deficit constant
  K(delta) = (2/delta)|log(3^-n - pack delta)| is unimodal in the tail, so
  `_best_witness` certifies three candidates — the condition-(1) boundary,
  the minimizer of K and the tail witness — and keeps the best;
* the budget exponent c — geometric grid in s = 1 - c, refined around the
  winner (the optimum c typically sits close to 1);
* the depth offset t of corner families — uniform grid plus probes just
  below each integer, where the ceiling counts in the slab cover drop and
  the budget rate improves discontinuously.

All searches are deterministic: one fixed grid per command (_Grid), ties
broken toward smaller (c, delta, t).  Rates are taken per row of the grid:
a row fetches each family's c-free parts (RateParts, cached per t) once,
and each probe in it costs a few float operations.  Members of an
intersection with equal parts, as its corner members are, share one rate
per probe.  The ranking puts the count first, so only cells at a pass's
top count K can win: cells are counted highest estimate exp(rhs1 - c log alpha)
first; one whose verdict fails at K, and from the first estimate below K
every cell, has a count below K (feasibility is antitone in M) and is
counted only if no cell at K has a witness.  With the count pinned to 1 no
verdict is taken: a cell whose verdict fails has no witness.  A count's
cells are witnessed highest _dim_ceiling first, up to the first that cannot
reach the best bound found, ranked on the floats of
certify.pattern_bound_values.  A search's trace records the cells it
witnessed, (t, c, count, dim, delta) in that order; it opens no files.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .certify import (
    Certificate,
    _condition1_gap,
    _condition1_lhs_log,
    _condition1_rhs_log,
    _condition2_holds,
    _deficits,
    _pack_constant,
    _require_feasibility_inputs,
    deficit_constant,
    intersect_certificate,
    pattern_bound_values,
    pattern_certificate,
    pattern_feasible,
)
from .core import REL_MARGIN, DiagonalContraction, LogScalar, combine_logs
from .families import RateParts, RcdSpec, RcoSpec, rcd_rate_parts, rco_rate_parts

__all__ = [
    "SearchResult",
    "SmallestU",
    "max_pattern_size",
    "optimize_pattern_count",
    "optimize_intersection",
    "smallest_u_for_patterns",
]

MAX_PATTERN_CAP = 1 << 40
# the range of s = 1 - c that every c grid spans, geometrically
C_S_LO, C_S_HI = 1e-4, 0.6
# t probes just below each integer, where the slab cover count drops
T_INTEGER_OFFSETS = (1e-5, 1e-8)
# the refine ladder below the integer a near-integer winner sits under
T_REFINE_OFFSETS = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8)


class _Grid(NamedTuple):
    """The grid one command searches: c_count values of s = 1 - c, spaced
    geometrically over [C_S_LO, C_S_HI], times the t values from t_lo to
    t_hi in steps of t_step plus the probes below each integer; then
    refine_passes passes of refine_points values per axis around the winner."""

    c_count: int
    refine_passes: int
    refine_points: int
    t_lo: float
    t_hi: float
    t_step: float


# maximize and intersect
_SEARCH_GRID = _Grid(c_count=32, refine_passes=2, refine_points=9,
                     t_lo=0.25, t_hi=6.0, t_step=0.25)
# smallest-u, which runs one search per u it tries
_SMALLEST_U_GRID = _Grid(c_count=12, refine_passes=1, refine_points=7,
                         t_lo=0.5, t_hi=3.0, t_step=0.5)


def _k_minimizer(lhs: float, pack: float) -> float:
    """The delta minimizing K(delta) = (2/delta) |log(lhs - pack*delta)|.

    K' has the sign of g(d) = pack*d/(lhs - pack*d) + log(lhs - pack*d),
    which increases from log(lhs) < 0 at d = 0 to +inf at d = lhs/pack, so
    K falls, then rises; its minimizer is the root of g, bisected in floats.
    """
    lo, hi = 0.0, lhs / pack
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        rest = lhs - pack * mid
        if rest > 0.0 and pack * mid / rest + math.log(rest) < 0.0:
            lo = mid
        else:
            hi = mid


@functools.lru_cache(maxsize=None)
def _tail(n: int) -> tuple[float, float]:
    """(tail witness, minimizer of K) of dimension n.

    In the tail N is far past the point where every 1 - 5 beta_j^N rounds
    to 1.0, so the left side of condition (2) is 3^-n exactly and the
    report's margin test reads pack * delta <= 3^-n (1 - margin).  The
    tail witness is the largest float passing that test.
    """
    lhs, pack = 3.0 ** -n, _pack_constant(n)
    witness = lhs * (1.0 - REL_MARGIN) / pack
    while not _condition2_holds(lhs, pack * witness):
        witness = math.nextafter(witness, 0.0)
    while _condition2_holds(lhs, pack * math.nextafter(witness, 1.0)):
        witness = math.nextafter(witness, 1.0)
    return witness, _k_minimizer(lhs, pack)


def max_pattern_size(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    cap: int = MAX_PATTERN_CAP,
) -> int:
    """Largest M <= cap whose pattern certificate succeeds at the tail
    witness, which certifies every M that any witness certifies; 0 if
    M = 1 fails.

    At the tail witness condition (2) holds whenever condition (1) does:
    (1) forces N > 1/delta >= 216 free steps, far past the N = 27 from which
    the left side of (2) is 3^-n, and the witness clears (2) there with
    margin.  So feasibility reduces to condition (1),
    log M + c log alpha <= rhs1, whose largest solution is
    M* = floor(exp(rhs1 - c log alpha)), clamped to [1, cap] (cap when the
    exponential overflows).  The float edge is settled at M* and M* + 1,
    stepping by one while it is off; feasibility is antitone in M.  Adjacent
    counts up to 2^40 have distinct float logs, so the steps stay few.

    Each trial count is decided by certify.pattern_feasible, which returns
    the verdict of feasibility_report, bit for bit, without building the
    report: it stops at the first failed test, and a trial at M* + 1
    usually fails condition (1) before any floor is taken.  The inputs are
    checked once per call, with the report's ValueErrors.
    """
    if not 1 <= cap <= MAX_PATTERN_CAP:
        raise ValueError(f"pattern cap must lie in [1, 2^40], got {cap}")
    delta = _tail(contraction.n)[0]
    _require_feasibility_inputs(alpha, contraction, c, delta, 1)
    return _tail_count(alpha, contraction, c, delta,
                       _condition1_rhs_log(contraction, c, delta), cap)


def _tail_count(alpha: LogScalar, contraction: DiagonalContraction, c: float, delta: float,
                rhs1_log: float, cap: int, known: int = 0) -> int:
    """max_pattern_size on checked inputs, at the tail witness delta with
    rhs1_log = _condition1_rhs_log(contraction, c, delta).  `known` is a count
    whose verdict has passed, so no count up to it needs one."""

    def feasible(m: int) -> bool:
        return pattern_feasible(alpha, contraction, c, delta, m, rhs1_log)

    try:
        m = min(max(math.floor(math.exp(rhs1_log - c * alpha.log)), 1), cap)
    except OverflowError:
        m = cap
    if m <= known or feasible(m):
        m = max(m, known)
        while m < cap and rhs1_log - c * alpha.log >= math.log(m + 1) - 1e-9 and feasible(m + 1):
            m += 1
        return m
    m -= 1
    while m > known and not feasible(m):
        m -= 1
    return m


# ------------------------------------------------------------ grid builders


def _c_grid(grid: _Grid) -> tuple[float, ...]:
    s_values = _geom(C_S_LO, C_S_HI, grid.c_count)
    return tuple(sorted({1.0 - s for s in s_values if 0.0 < 1.0 - s < 1.0}))


def _t_grid(grid: _Grid) -> tuple[float, ...]:
    values: set[float] = set()
    steps = math.floor((grid.t_hi - grid.t_lo) / grid.t_step + 1e-9)
    for i in range(steps + 1):
        values.add(grid.t_lo + i * grid.t_step)
    for j in range(1, int(grid.t_hi) + 1):
        for off in T_INTEGER_OFFSETS:
            if grid.t_lo <= j - off <= grid.t_hi:
                values.add(j - off)
    return tuple(sorted(values))


def _geom(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if lo >= hi:
        return (hi,)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return tuple(lo * ratio ** i for i in range(count))


def _refine_c(best_c: float, grid: Sequence[float], count: int) -> tuple[float, ...]:
    """Geometric sub-grid in s = 1-c between the winner's grid neighbours."""
    s_vals = sorted(1.0 - c for c in grid)
    s_best = 1.0 - best_c
    idx = min(range(len(s_vals)), key=lambda i: abs(s_vals[i] - s_best))
    lo = s_vals[idx - 1] if idx > 0 else s_vals[idx] * 0.5
    hi = s_vals[idx + 1] if idx + 1 < len(s_vals) else s_vals[idx] * 2.0
    hi = min(hi, 0.999999)
    return tuple(sorted(1.0 - s for s in _geom(lo, hi, count) if 0.0 < 1.0 - s < 1.0))


def _refine_t(best_t: float, grid: Sequence[float], count: int) -> tuple[float, ...]:
    """Neighbourhood of the winning depth offset.

    Near-integer winners refine along a ladder approaching the integer from
    below (the cover count is piecewise constant there and drops at the
    integer itself); otherwise a uniform span between grid neighbours.
    """
    j = math.ceil(best_t - 1e-12)
    if 0.0 < j - best_t < 0.01:
        ladder = [j - off for off in T_REFINE_OFFSETS]
        return tuple(sorted(t for t in ladder if t > 0.0))
    ordered = sorted(set(grid))
    idx = min(range(len(ordered)), key=lambda i: abs(ordered[i] - best_t))
    lo = ordered[idx - 1] if idx > 0 else max(ordered[idx] * 0.5, 1e-3)
    hi = ordered[idx + 1] if idx + 1 < len(ordered) else ordered[idx] * 1.5
    step = (hi - lo) / (count + 1)
    return tuple(lo + step * (i + 1) for i in range(count))


# ----------------------------------------------------------------- engine


def _least_condition1_delta(
    alpha: LogScalar, contraction: DiagonalContraction, c: float, pattern_count: int
) -> float:
    """Least float delta at which condition (1) holds with relative margin
    REL_MARGIN: M alpha^c <= delta^2 (1 - (prod beta)^(1-c)) (1 - margin),
    tested in logs exactly as a report's fields state it."""
    lhs = _condition1_lhs_log(alpha.log, c, pattern_count)
    shave = math.log1p(-REL_MARGIN)
    delta = _condition1_delta_start(lhs, _condition1_gap(contraction, c))
    while delta < 1.0 and lhs > _condition1_rhs_log(contraction, c, delta) + shave:
        delta = math.nextafter(delta, 1.0)
    return delta


def _condition1_delta_start(lhs: float, gap: float) -> float:
    """Where _least_condition1_delta starts its walk up: no delta below it is returned."""
    return math.exp(0.5 * (lhs - gap - math.log1p(-REL_MARGIN)))


def _best_witness(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    pattern_count: int,
) -> tuple[float, float, float, int] | None:
    """(stated, combined, delta, free_steps) of the best stated dimension
    bound over witnesses in [delta1, tail witness], or None.

    delta1 is the condition-(1) boundary.  Every certifying witness lies in
    the tail, where K is one unimodal function of delta, so the best bound
    is at delta1, at the minimizer of K, or at the tail witness.  Each of
    them is ranked on pattern_dim_bound's floats (pattern_bound_values); the
    best stated bound wins, ties going to the smaller delta.  Condition (1)
    must also hold with relative margin REL_MARGIN.
    """
    witness, minimizer = _tail(contraction.n)
    low = _least_condition1_delta(alpha, contraction, c, pattern_count)
    if low > witness:
        return None
    middle = min(max(minimizer, low), witness)
    shave = math.log1p(-REL_MARGIN)
    best = None
    for d in sorted({low, middle, witness}):
        # lhs1 <= rhs1 + shave is condition (1) with margin, and implies it
        found = pattern_bound_values(alpha, contraction, c, d, pattern_count,
                                     _condition1_rhs_log(contraction, c, d) + shave)
        if found is not None and (best is None or found[0] > best[0]):
            best = found
    return best


def _dim_ceiling(alpha: LogScalar, contraction: DiagonalContraction, c: float,
                 pattern_count: int) -> float:
    """A float at least _best_witness(...)[0], or -inf where that is None.

    Every candidate delta lies in [d0, tail witness], d0 = _condition1_delta_start.
    At any free-step count the left side of (2) is at most 3.0**-n, its value
    past 2^62 steps, so K is at least the tail K, which falls to its minimizer
    and rises past it: on that range it is least at max(d0, minimizer).  Float
    rounding is monotone; 2^-30 covers K's few-ulp wobble near its minimum.
    """
    witness, minimizer = _tail(contraction.n)
    low = _condition1_delta_start(_condition1_lhs_log(alpha.log, c, pattern_count),
                                  _condition1_gap(contraction, c))
    if low > witness:
        return -math.inf
    k_lo = deficit_constant(contraction, max(low, minimizer), 1 << 63) * (1.0 - 2.0 ** -30)
    return contraction.n - _deficits(k_lo, contraction, alpha.log)[0]


class _Point(NamedTuple):
    pattern_count: int
    dim: float
    dim_combined: float
    c: float
    t: float
    delta: float
    free_steps: int
    alpha_log: float


# A dataclass: perfbench calls dataclasses.replace on a SearchResult and
# scripts/search_dump.py reads its dataclasses.fields.
@dataclass(frozen=True)
class SearchResult:
    """Outcome of a parameter search, with the certificate of the winner."""

    kind: str                             # "cutout" | "corner" | "intersection"
    feasible: bool
    pattern_count: int
    c: float
    t: float | None
    delta: float
    free_steps: int
    alpha_log: float
    dim_bound: float                      # stated (per-set rate) bound
    dim_bound_combined: float
    probes: int
    certificate: Certificate | None
    # (t, c, count, dim, delta) of each cell the search witnessed, in order
    trace: tuple[tuple[float, float, int, float, float], ...] = ()


def _better(a: _Point | None, b: _Point | None) -> _Point | None:
    if a is None:
        return b
    if b is None:
        return a
    ka = (a.pattern_count, a.dim, -a.c, -a.delta, -a.t)
    kb = (b.pattern_count, b.dim, -b.c, -b.delta, -b.t)
    return a if ka >= kb else b


# rate_row(t)(c) is ln of the budget rate at (c, t); none at or above 0 certifies
RateRow = Callable[[float], Callable[[float], float]]


def _search(
    contraction: DiagonalContraction,
    rate_row: RateRow,
    t_values: Sequence[float],
    grid: _Grid,
    want_patterns: bool,
) -> tuple[_Point | None, int, list[tuple]]:
    cap = MAX_PATTERN_CAP if want_patterns else 1
    delta = _tail(contraction.n)[0]
    rhs1_at: dict[float, float] = {}
    probes = 0
    trace: list[tuple] = []

    def count(cell: list, known: int = 0) -> int:
        cell[4] = _tail_count(cell[2], contraction, cell[1], delta, cell[3], cap, known)
        return cell[4]

    def witness(level: list[list]) -> _Point | None:
        local: _Point | None = None
        ranked = sorted(((_dim_ceiling(cell[2], contraction, cell[1], cell[4]), cell)
                         for cell in level), key=lambda x: x[0], reverse=True)
        for ceiling, (t, c, alpha, _, k, _) in ranked:
            if ceiling == -math.inf or (local is not None and ceiling < local.dim):
                break
            found = _best_witness(alpha, contraction, c, k)
            if found is None:
                continue
            point = _Point(k, found[0], found[1], c, t, found[2], found[3], alpha.log)
            trace.append((t, c, k, point.dim, point.delta))
            local = _better(local, point)
        return local

    def run_grid(ts: Sequence[float], cs: Sequence[float]) -> _Point | None:
        nonlocal probes
        probes += len(ts) * len(cs)
        # [t, c, alpha, rhs1, count, estimate log] of the cells whose rate is
        # below 1 and whose estimate is not below log 1: c log is condition
        # (1)'s left side at count 1, so fl(rhs1 - c log) < 0 exactly when
        # the cell fails it there, and can never be counted or witnessed
        cells = []
        for t in ts:
            rate = rate_row(t)
            for c in cs:
                log = rate(c)
                if log >= 0.0:
                    continue
                alpha = LogScalar(log)
                if c not in rhs1_at or alpha.is_zero():
                    _require_feasibility_inputs(alpha, contraction, c, delta, 1)
                    rhs1_at[c] = _condition1_rhs_log(contraction, c, delta)
                estimate = rhs1_at[c] - c * log
                if estimate >= -1e-9:
                    cells.append([t, c, alpha, rhs1_at[c], None, estimate])
        if cap == 1:
            # a cell whose verdict fails has no witness: the cells are
            # witnessed without verdicts, in the order they would be
            for cell in cells:
                cell[4] = 1
            return witness(cells)
        # highest estimate first; a cell whose verdict fails at the running top
        # count waits, uncounted, until no cell at the top count has a witness
        top = 0
        for cell in sorted(cells, key=lambda x: x[5], reverse=True):
            if top and cell[5] < math.log(top) - 1e-9:
                break       # this cell and all after it fail condition (1) at top
            if not top or pattern_feasible(cell[2], contraction, cell[1], delta, top, cell[3]):
                top = max(top, count(cell, top))
        if top:
            local = witness([cell for cell in cells if cell[4] == top])
            if local is not None:
                return local
        for cell in cells:
            if cell[4] is None:
                count(cell)
        for k in sorted({cell[4] for cell in cells if 0 < cell[4] < top}, reverse=True):
            local = witness([cell for cell in cells if cell[4] == k])
            if local is not None:
                return local
        return None

    best = run_grid(t_values, _c_grid(grid))
    if best is None:
        return None, probes, trace
    c_grid, t_grid = list(_c_grid(grid)), list(t_values)
    for _ in range(grid.refine_passes):
        cs = _refine_c(best.c, c_grid, grid.refine_points)
        ts = _refine_t(best.t, t_grid, grid.refine_points) if len(t_grid) > 1 else tuple(t_grid)
        best = _better(best, run_grid(ts, cs))
        c_grid = sorted(set(c_grid) | set(cs))
        t_grid = sorted(set(t_grid) | set(ts))
    return best, probes, trace


def _result_from_point(
    kind: str,
    point: _Point | None,
    probes: int,
    trace: list[tuple],
    contraction: DiagonalContraction,
    rho2: float,
    extras: dict[str, str],
    member_alphas: Callable[[float, float], list[LogScalar]] | None = None,
) -> SearchResult:
    if point is None:
        return SearchResult(
            kind, False, 0, 0.0, None, 0.0, 0, -math.inf,
            0.0, 0.0, probes, None, tuple(trace),
        )
    alpha = LogScalar(point.alpha_log)
    if member_alphas is not None and point.pattern_count == 1:
        cert = intersect_certificate(
            member_alphas(point.c, point.t), contraction, point.c,
            point.delta, rho2, extras,
        )
    else:
        cert = pattern_certificate(
            alpha, contraction, point.c, point.delta,
            point.pattern_count, rho2, extras,
        )
    return SearchResult(
        kind, True, point.pattern_count, point.c, point.t, point.delta,
        point.free_steps, point.alpha_log, point.dim, point.dim_combined,
        probes, cert, tuple(trace),
    )


def _family_parts(
    family: RcoSpec | RcdSpec, corner_parts: Callable[[int, int, float], RateParts]
) -> Callable[[float], RateParts]:
    """t -> the c-free rate parts of one family.  A cut-out family keeps its
    own depth offset; a corner family takes t, its parts from corner_parts."""
    if isinstance(family, RcoSpec):
        parts = rco_rate_parts(family.u, family.v, family.m, family.t)
        return lambda t: parts
    return functools.partial(corner_parts, family.u, family.v)


def _family_rates(family: RcoSpec | RcdSpec) -> RateRow:
    """The rate rows of one family, its corner parts cached per t."""
    parts = _family_parts(family, functools.cache(rcd_rate_parts))
    return lambda t: parts(t).log_at


def optimize_pattern_count(
    family: RcoSpec | RcdSpec,
    rho2: float = 1.0,
    want_patterns: bool = True,
) -> SearchResult:
    """Largest certifiable pattern count for one family, with best dimension
    among the parameter choices attaining it.  With want_patterns=False the
    count is pinned to 1 and only the dimension bound is optimized."""
    return _family_search(family, _SEARCH_GRID, rho2, want_patterns)


def _family_search(family: RcoSpec | RcdSpec, grid: _Grid, rho2: float = 1.0,
                   want_patterns: bool = True) -> SearchResult:
    """optimize_pattern_count over `grid`."""
    if isinstance(family, RcoSpec):
        t_values: tuple[float, ...] = (float(family.t),)
        kind = "cutout"
    else:
        t_values = _t_grid(grid)
        kind = "corner"
    contraction = family.contraction()
    point, probes, trace = _search(contraction, _family_rates(family), t_values, grid,
                                   want_patterns)
    return _result_from_point(
        kind, point, probes, trace, contraction, rho2, family.extras(),
    )


def _intersection_rates(
    members: Sequence[RcoSpec | RcdSpec],
) -> tuple[RateRow, Callable[[float, float], list[LogScalar]]]:
    """(rate rows of the combined rate (sum_i alpha_i^c)^(1/c), the members'
    rates at (c, t)) for members that share their denominators.

    Members with equal parts, as the corner members are, share one rate per
    probe; the corner parts are cached per t.  The terms' logs are joined by
    core.combine_logs, so each combined log is combine_alphas's float; a row
    gives +inf where a member's rate is not below 1.
    """
    corner_parts = functools.cache(rcd_rate_parts)
    member_parts = [_family_parts(sp, corner_parts) for sp in members]

    def rate_row(t: float) -> Callable[[float], float]:
        shares: dict[RateParts, int] = {}
        for parts in member_parts:
            key = parts(t)
            shares[key] = shares.get(key, 0) + 1
        rows = [(parts.log_at, n) for parts, n in shares.items()]

        def rate(c: float) -> float:
            terms: list[float] = []
            for log_at, n in rows:
                log = log_at(c)
                if log >= 0.0:
                    return math.inf
                terms += [log * c] * n
            return combine_logs(terms, c)
        return rate

    def member_alphas(c: float, t: float) -> list[LogScalar]:
        return [parts(t).at(c) for parts in member_parts]

    return rate_row, member_alphas


def optimize_intersection(
    members: Sequence[RcoSpec | RcdSpec],
    want_patterns: bool = False,
    rho2: float = 1.0,
) -> SearchResult:
    """Search shared (c, t) for the intersection of the members' sets.

    All members must share the same denominators (the same diagonal part);
    corner members share one depth offset t.  The combined budget rate
    (sum_i alpha_i^c)^(1/c) must come out below 1 to certify anything.
    """
    if not members:
        raise ValueError("need at least one member")
    contraction = members[0].contraction()
    for m in members[1:]:
        if m.contraction().denominators != contraction.denominators:
            raise ValueError("intersection members must share their denominators u, v")
    rate_row, member_alphas = _intersection_rates(members)
    has_corner = any(isinstance(sp, RcdSpec) for sp in members)
    t_values = _t_grid(_SEARCH_GRID) if has_corner else (0.0,)
    point, probes, trace = _search(contraction, rate_row, t_values, _SEARCH_GRID,
                                   want_patterns)
    extras = {"member_count": str(len(members))}
    for i, sp in enumerate(members, start=1):
        for key, value in sp.extras().items():
            extras[f"member.{i}.{key.removeprefix('family.')}"] = value
    return _result_from_point(
        "intersection", point, probes, trace, contraction, rho2,
        extras, member_alphas=member_alphas if not want_patterns else None,
    )


class SmallestU(NamedTuple):
    """Bracketed answer: `u` certifies, `u - 1` was checked and does not."""

    u: int
    result: SearchResult
    below: SearchResult
    probes: int


def smallest_u_for_patterns(
    pattern_count: int,
    gap: int,
) -> SmallestU:
    """A denominator u at which the corner family (u, u+gap) starts to
    certify the requested pattern count, in the bracket sense: the search at
    u, over the smallest-u grid, certifies it and the search at u - 1 does not.

    Doubling then bisection finds one such bracket; both endpoints' searches
    are returned.  It need not be the least certifying u: the budget rate
    falls with u, but the grid cells the search probes and refines move with
    u, so the search need not be monotone in u, and a smaller u that
    bisection skipped may also certify.
    """
    if pattern_count < 1 or gap < 0:
        raise ValueError("pattern count must be >= 1 and gap >= 0")
    cache: dict[int, SearchResult] = {}
    probes = 0

    def run(u: int) -> SearchResult:
        nonlocal probes
        if u not in cache:
            cache[u] = _family_search(RcdSpec(u, u + gap), _SMALLEST_U_GRID)
            probes += 1
        return cache[u]

    def certifies(u: int) -> bool:
        if u < 2 or u + gap < 2:
            return False
        return run(u).pattern_count >= pattern_count

    lo, hi = 2, 4
    while not certifies(hi):
        lo, hi = hi, hi * 2
        if hi > 1 << 60:
            raise RuntimeError("no certifying denominator below 2^60")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certifies(mid):
            hi = mid
        else:
            lo = mid
    below = run(hi - 1) if hi - 1 >= 2 else SearchResult(
        "corner", False, 0, 0.0, None, 0.0, 0, -math.inf, 0.0, 0.0, 0, None
    )
    return SmallestU(hi, run(hi), below, probes)
