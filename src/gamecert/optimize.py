"""Search for winning parameters: best witness, largest pattern count, best dim.

The certificates leave three knobs open, searched as follows:

* the witness delta — a witness meeting conditions (1) and (2) has
  N = floor(delta/rate) > 1/delta >= 216 free steps: condition (1) gives
  rate < delta^2, and condition (2) keeps delta below 3^-n / pack <= 1/216.
  From N = 27 on, every 1 - 5 beta_j^N rounds to 1.0 (beta_j < 1/5), so in
  this tail condition (2) reads pack * delta < 3^-n with margin, whatever
  the rate.  The largest witness that can certify, the tail witness, is
  thus a constant of the dimension n, and it certifies every pattern count
  that any witness certifies.  The deficit constant
  K(delta) = (2/delta)|log(3^-n - pack delta)| is unimodal in the tail, so
  `_best_witness` certifies three candidates — the condition-(1) boundary,
  the minimizer of K and the tail witness — and keeps the best;
* the budget exponent c — geometric grid in s = 1 - c, refined around the
  winner (the optimum c typically sits close to 1);
* the depth offset t of corner families — uniform grid plus probes just
  below each integer, where the ceiling counts in the slab cover drop and
  the budget rate improves discontinuously.

All searches are deterministic: fixed grids from the config, sequential
reduction in grid order, ties broken toward smaller (c, delta, t).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .certify import (
    Certificate,
    PatternBound,
    _log1mexp,
    _pack_constant,
    feasibility_report,
    intersect_certificate,
    pattern_certificate,
    pattern_dim_bound,
)
from .core import REL_MARGIN, DiagonalContraction, LogScalar, combine_alphas
from .families import CoverCount, RcdSpec, RcoSpec, rcd_alpha, rcd_cover_count, rco_alpha

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SmallestU",
    "max_pattern_size",
    "optimize_pattern_count",
    "optimize_intersection",
    "smallest_u_for_patterns",
    "DEFAULT_CONFIG",
]


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search grids; every field has a reproducible default."""

    c_count: int = 32                     # points in the coarse 1-c grid
    c_s_lo: float = 1e-4                  # smallest 1-c
    c_s_hi: float = 0.6                   # largest 1-c
    refine_passes: int = 2                # zoom passes around the winner
    refine_points: int = 9                # points per refined axis
    t_lo: float = 0.25
    t_hi: float = 6.0
    t_step: float = 0.25
    t_integer_offsets: tuple[float, ...] = (1e-5, 1e-8)
    pattern_cap: int = 1 << 40            # never search beyond this count
    trace_path: str | None = None


DEFAULT_CONFIG = SearchConfig()


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
    limit = lhs * (1.0 - REL_MARGIN)
    witness = limit / pack
    while pack * witness > limit:
        witness = math.nextafter(witness, 0.0)
    while pack * math.nextafter(witness, 1.0) <= limit:
        witness = math.nextafter(witness, 1.0)
    return witness, _k_minimizer(lhs, pack)


def max_pattern_size(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float | None = None,
    cap: int = 1 << 40,
) -> tuple[int, float | None]:
    """Largest M <= cap whose pattern certificate succeeds, with its witness.

    The witness is `delta`, or by default the tail witness, which certifies
    every M that any witness certifies.  Feasibility is antitone in M
    (condition (1) tightens, the free-step count shrinks), so doubling up to
    the cap and then bisecting is exact.  Returns (0, None) if M = 1 fails.
    """
    if delta is None:
        delta = _tail(contraction.n)[0]

    def feasible(m: int) -> bool:
        return feasibility_report(alpha, contraction, c, delta, m).feasible

    if not feasible(1):
        return 0, None
    lo, hi = 1, 2
    while hi <= cap and feasible(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, cap + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, delta


# ------------------------------------------------------------ grid builders


def _c_grid(config: SearchConfig) -> tuple[float, ...]:
    if config.c_count < 2:
        return (1.0 - config.c_s_lo,)
    ratio = (config.c_s_hi / config.c_s_lo) ** (1.0 / (config.c_count - 1))
    values = []
    for i in range(config.c_count):
        s = config.c_s_lo * ratio ** i
        c = 1.0 - s
        if 0.0 < c < 1.0:
            values.append(c)
    return tuple(sorted(set(values)))


def _t_grid(config: SearchConfig) -> tuple[float, ...]:
    values: set[float] = set()
    steps = int(round((config.t_hi - config.t_lo) / config.t_step))
    for i in range(steps + 1):
        values.add(config.t_lo + i * config.t_step)
    for j in range(1, int(config.t_hi) + 1):
        for off in config.t_integer_offsets:
            if j - off > 0.0:
                values.add(j - off)
    return tuple(sorted(values))


def _geom(lo: float, hi: float, count: int) -> tuple[float, ...]:
    if count < 2 or lo >= hi:
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
        ladder = [j - off for off in
                  (1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8)]
        return tuple(sorted(t for t in ladder if t > 0.0))
    ordered = sorted(set(grid))
    idx = min(range(len(ordered)), key=lambda i: abs(ordered[i] - best_t))
    lo = ordered[idx - 1] if idx > 0 else max(ordered[idx] * 0.5, 1e-3)
    hi = ordered[idx + 1] if idx + 1 < len(ordered) else ordered[idx] * 1.5
    if count < 2:
        return (best_t,)
    step = (hi - lo) / (count + 1)
    return tuple(lo + step * (i + 1) for i in range(count))


# ----------------------------------------------------------------- engine


def _least_condition1_delta(
    alpha: LogScalar, contraction: DiagonalContraction, c: float, pattern_count: int
) -> float:
    """Least float delta at which condition (1) holds with relative margin
    REL_MARGIN: M alpha^c <= delta^2 (1 - (prod beta)^(1-c)) (1 - margin),
    tested in logs exactly as a report's fields state it."""
    lhs = math.log(pattern_count) + c * alpha.log
    gap = _log1mexp((1.0 - c) * contraction.log_det())
    shave = math.log1p(-REL_MARGIN)
    delta = math.exp(0.5 * (lhs - gap - shave))
    while delta < 1.0 and lhs > 2.0 * math.log(delta) + gap + shave:
        delta = math.nextafter(delta, 1.0)
    return delta


def _best_witness(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    pattern_count: int,
) -> PatternBound | None:
    """Best stated dimension bound over witnesses in [delta1, tail witness].

    delta1 is the condition-(1) boundary.  Every certifying witness lies in
    the tail, where K is one unimodal function of delta, so the best bound
    is at delta1, at the minimizer of K, or at the tail witness.  Each of
    them is certified; the best stated bound wins, ties going to the
    smaller delta.  Condition (1) must also hold with relative margin
    REL_MARGIN.
    """
    witness, minimizer = _tail(contraction.n)
    low = _least_condition1_delta(alpha, contraction, c, pattern_count)
    if low > witness:
        return None
    middle = min(max(minimizer, low), witness)
    shave = math.log1p(-REL_MARGIN)
    best: PatternBound | None = None
    for d in sorted({low, middle, witness}):
        bound = pattern_dim_bound(alpha, contraction, c, d, pattern_count)
        report = bound.report
        if (report.feasible
                and report.condition1_lhs_log <= report.condition1_rhs_log + shave
                and (best is None or bound.stated > best.stated)):
            best = bound
    return best


@dataclass(frozen=True)
class _Point:
    pattern_count: int
    dim: float
    dim_combined: float
    c: float
    t: float
    delta: float
    free_steps: int
    alpha_log: float


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
    trace: tuple[str, ...] = ()


def _better(a: _Point | None, b: _Point | None) -> _Point | None:
    if a is None:
        return b
    if b is None:
        return a
    ka = (a.pattern_count, a.dim, -a.c, -a.delta, -a.t)
    kb = (b.pattern_count, b.dim, -b.c, -b.delta, -b.t)
    return a if ka >= kb else b


def _search(
    contraction: DiagonalContraction,
    alpha_fn: Callable[[float, float], LogScalar | None],
    t_values: Sequence[float],
    config: SearchConfig,
    want_patterns: bool,
) -> tuple[_Point | None, int, list[str]]:
    cap = config.pattern_cap if want_patterns else 1
    probes = 0
    trace: list[str] = []

    def eval_cell(cell: tuple[float, float]) -> _Point | None:
        t, c = cell
        alpha = alpha_fn(c, t)
        if alpha is None or alpha.log >= 0.0:
            return None
        count, _ = max_pattern_size(alpha, contraction, c, cap=cap)
        if count == 0:
            return None
        bound = _best_witness(alpha, contraction, c, count)
        if bound is None:
            return None
        return _Point(
            count, bound.stated, bound.combined, c, t,
            bound.report.delta, bound.report.free_steps.value, alpha.log,
        )

    def run_grid(ts: Sequence[float], cs: Sequence[float]) -> _Point | None:
        nonlocal probes
        cells = [(t, c) for t in ts for c in cs]
        probes += len(cells)
        local: _Point | None = None
        for point in map(eval_cell, cells):
            if point is not None and config.trace_path is not None:
                trace.append(
                    "t=%.17g c=%.17g count=%d dim=%.17g delta=%.17g"
                    % (point.t, point.c, point.pattern_count, point.dim, point.delta)
                )
            local = _better(local, point)
        return local

    best = run_grid(t_values, _c_grid(config))
    if best is None:
        return None, probes, trace
    c_grid = list(_c_grid(config))
    t_grid = list(t_values)
    for _ in range(config.refine_passes):
        cs = _refine_c(best.c, c_grid, config.refine_points)
        if len(t_grid) > 1:
            ts = _refine_t(best.t, t_grid, config.refine_points)
        else:
            ts = tuple(t_grid)
        candidate = run_grid(ts, cs)
        best = _better(best, candidate)
        c_grid = sorted(set(c_grid) | set(cs))
        t_grid = sorted(set(t_grid) | set(ts))
    return best, probes, trace


def _write_trace(config: SearchConfig, lines: Sequence[str]) -> None:
    if config.trace_path is not None:
        with open(config.trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))


def _family_extras(family: RcoSpec | RcdSpec) -> dict[str, str]:
    if isinstance(family, RcoSpec):
        return {
            "family.kind": "cutout",
            "family.u": str(family.u),
            "family.v": str(family.v),
            "family.m": str(family.m),
            "family.t": str(family.t),
        }
    return {
        "family.kind": "corner",
        "family.u": str(family.u),
        "family.v": str(family.v),
    }


def _result_from_point(
    kind: str,
    point: _Point | None,
    probes: int,
    trace: list[str],
    contraction: DiagonalContraction,
    alpha_fn: Callable[[float, float], LogScalar | None],
    rho2: float,
    extras: dict[str, str],
    member_alphas: Callable[[float, float], list[LogScalar]] | None = None,
) -> SearchResult:
    if point is None:
        return SearchResult(
            kind, False, 0, 0.0, None, 0.0, 0, -math.inf,
            0.0, 0.0, probes, None, tuple(trace),
        )
    alpha = alpha_fn(point.c, point.t)
    assert alpha is not None
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


def _member_alpha(
    spec: RcoSpec | RcdSpec, c: float, t: float, covers: dict[float, CoverCount]
) -> LogScalar:
    """Budget rate of one family at (c, t).

    Cut-out families keep their own depth offset; corner families take the
    grid's t, with the slab cover count cached per t in `covers`.
    """
    if isinstance(spec, RcoSpec):
        return rco_alpha(spec.u, spec.v, spec.m, spec.t, c)
    cover = covers.get(t)
    if cover is None:
        cover = covers[t] = rcd_cover_count(spec.u, spec.v, t)
    return rcd_alpha(spec.u, spec.v, c, t, cover_count=cover)


def optimize_pattern_count(
    family: RcoSpec | RcdSpec,
    config: SearchConfig = DEFAULT_CONFIG,
    rho2: float = 1.0,
    want_patterns: bool = True,
) -> SearchResult:
    """Largest certifiable pattern count for one family, with best dimension
    among the parameter choices attaining it.  With want_patterns=False the
    count is pinned to 1 and only the dimension bound is optimized."""
    covers: dict[float, CoverCount] = {}

    def alpha_fn(c: float, t: float) -> LogScalar | None:
        alpha = _member_alpha(family, c, t, covers)
        return alpha if alpha.log < 0.0 else None

    if isinstance(family, RcoSpec):
        t_values: tuple[float, ...] = (float(family.t),)
        kind = "cutout"
    else:
        t_values = _t_grid(config)
        kind = "corner"
    contraction = family.contraction()
    point, probes, trace = _search(contraction, alpha_fn, t_values, config, want_patterns)
    _write_trace(config, trace)
    return _result_from_point(
        kind, point, probes, trace, contraction, alpha_fn, rho2,
        _family_extras(family),
    )


def optimize_intersection(
    members: Sequence[RcoSpec | RcdSpec],
    config: SearchConfig = DEFAULT_CONFIG,
    want_patterns: bool = False,
    rho2: float = 1.0,
) -> SearchResult:
    """Search shared (c, t) for the intersection of the members' sets.

    All members must share the same cell ratios (the same diagonal part);
    corner members share one depth offset t.  The combined budget rate
    (sum_i alpha_i^c)^(1/c) must come out below 1 to certify anything.
    """
    if not members:
        raise ValueError("need at least one member")
    contraction = members[0].contraction()
    for m in members[1:]:
        if m.contraction().betas != contraction.betas:
            raise ValueError("intersection members must share cell ratios")
    covers: dict[float, CoverCount] = {}
    has_corner = any(isinstance(m, RcdSpec) for m in members)
    t_values = _t_grid(config) if has_corner else (0.0,)

    def member_alphas(c: float, t: float) -> list[LogScalar]:
        return [_member_alpha(sp, c, t, covers) for sp in members]

    def alpha_fn(c: float, t: float) -> LogScalar | None:
        alphas = member_alphas(c, t)
        if any(a.log >= 0.0 for a in alphas):
            return None
        combined = combine_alphas(alphas, c)
        return combined if combined.log < 0.0 else None

    point, probes, trace = _search(
        contraction, alpha_fn, t_values, config, want_patterns
    )
    _write_trace(config, trace)
    extras = {"member_count": str(len(members))}
    for i, sp in enumerate(members, start=1):
        for key, value in _family_extras(sp).items():
            extras[f"member.{i}.{key.removeprefix('family.')}"] = value
    return _result_from_point(
        "intersection", point, probes, trace, contraction, alpha_fn, rho2,
        extras, member_alphas=member_alphas if not want_patterns else None,
    )


SMALLEST_U_CONFIG = SearchConfig(
    c_count=12,
    refine_passes=1,
    refine_points=7,
    t_lo=0.5,
    t_hi=3.0,
    t_step=0.5,
)


@dataclass(frozen=True)
class SmallestU:
    """Bracketed answer: `u` certifies, `u - 1` was checked and does not."""

    u: int
    result: SearchResult
    below: SearchResult
    probes: int


def smallest_u_for_patterns(
    pattern_count: int,
    gap: int,
    config: SearchConfig = SMALLEST_U_CONFIG,
) -> SmallestU:
    """A denominator u at which the corner family (u, u+gap) starts to
    certify the requested pattern count, in the bracket sense: the search at
    u certifies it and the search at u - 1 does not.

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
            cache[u] = optimize_pattern_count(RcdSpec(u, u + gap), config)
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
