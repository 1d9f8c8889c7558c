"""Desk-scale search for homothetic pattern copies in finite approximations.

Membership at finite depth is a necessary condition only — a candidate pair
(x, lambda) passing depth k means every pattern point lambda*b + x lies in
the kept region of the depth-k approximation ("depth-k consistent"), nothing
more.  Checks are exact: box coordinates, scales, and translations are
rationals, and the grid scan works on integer index ranges per axis,
computed for all boxes at once from the member's integer numerators
(RectangleSet.lattice_of), so no candidate is lost or spuriously admitted
to rounding.

The kept region at depth k is, for cut-out members, the root box minus the
open interiors of all cuts at levels 1..k; for corner-digit members, the
union of the level-k component boxes.  Both shrink as k grows, so passing
the full query depth implies passing every shallower depth.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import BoxRegion, Record
from .families import RectangleSet, _cover_counts, _LazyRows, _on_one_lattice

__all__ = [
    "PatternQuery",
    "ContainmentReport",
    "verify_containment_depth",
    "PatternCandidate",
    "find_homothety",
    "candidates_to_csv",
    "pattern_diameter",
    "scale_range_admissible",
]

ROOT = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))


def pattern_diameter(points: Sequence[Sequence[Fraction]]) -> Fraction:
    """Sup-metric diameter of the pattern (0 for a singleton)."""
    return max((abs(Fraction(a) - Fraction(b))
                for p, q in itertools.combinations(points, 2) for a, b in zip(p, q)),
               default=Fraction(0))


class PatternQuery(Record):
    """A finite pattern, a scale interval, a depth, and a sampling step.

    `grid_resolution` is the translation step; None defers to half the
    smallest box half-width at the query depth (so no kept box can fall
    between grid points).  Scales are sampled from lambda_lo upward in
    grid_resolution steps; the low endpoint is always included, so a range
    thinner than one step still yields exactly one sample.
    """

    __slots__ = _fields = ("points", "lambda_lo", "lambda_hi", "depth", "grid_resolution")

    def __init__(self, points: Sequence[Sequence[Fraction]], lambda_lo: Fraction,
                 lambda_hi: Fraction, depth: int,
                 grid_resolution: Fraction | None = None) -> None:
        if len(points) < 1:
            raise ValueError("pattern needs at least one point")
        points = tuple(tuple(Fraction(x) for x in p) for p in points)
        if {len(p) for p in points} != {2}:
            raise ValueError("pattern points must be 2-vectors")
        lambda_lo, lambda_hi = Fraction(lambda_lo), Fraction(lambda_hi)
        if not 0 < lambda_lo <= lambda_hi:
            raise ValueError("scale range must satisfy 0 < lo <= hi")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if grid_resolution is not None:
            grid_resolution = Fraction(grid_resolution)
            if grid_resolution <= 0:
                raise ValueError("grid resolution must be positive")
        super().__init__(points, lambda_lo, lambda_hi, depth, grid_resolution)


def scale_range_admissible(query: PatternQuery, scale_coefficient: float) -> bool:
    """Range comparison against a certificate's admissible scale bound
    rho2 (1 - beta_max): the whole query interval must sit below
    scale_coefficient / diam(pattern).  Singletons admit every scale."""
    diam = pattern_diameter(query.points)
    if diam == 0:
        return True
    return float(query.lambda_hi) < scale_coefficient / float(diam)


# ------------------------------------------------------------- exact checks


def _holds(point: Sequence[Fraction], rect: RectangleSet, kind: str, level: int,
           strict: bool) -> bool:
    """Whether a `kind` box of `level` holds the point: in its open interior
    when strict, else in the closed box."""
    inside = np.ones(1, dtype=bool)
    for axis, x in zip(rect.lattice_of(kind, [level]), point):
        centers, halves, (num,) = _on_one_lattice(axis, (x,))
        gap = abs(centers - num)
        inside = inside & (gap < halves if strict else gap <= halves)
    return bool(inside.any())


def _kept_at_level(point: tuple[Fraction, Fraction], rect: RectangleSet,
                   family: str, level: int) -> bool:
    if level == 0:
        return ROOT.contains_point(point)
    if family == "rco":
        return ROOT.contains_point(point) and not _holds(point, rect, "cut", level, True)
    if family == "rcd":
        return _holds(point, rect, "comp", level, False)
    raise ValueError(f"unknown family {family!r}")


class ContainmentReport(NamedTuple):
    """Per-level membership of one placed pattern copy."""

    levels: tuple[bool, ...]     # index k: all pattern points kept at level k

    @property
    def max_depth_passed(self) -> int:
        """Deepest k with levels 0..k all true; -1 if level 0 already fails."""
        depth = -1
        for k, ok in enumerate(self.levels):
            if not ok:
                break
            depth = k
        return depth

    def consistent_to(self, depth: int) -> bool:
        return self.max_depth_passed >= depth


def verify_containment_depth(
    x: Sequence[Fraction],
    lam: Fraction,
    points: Sequence[Sequence[Fraction]],
    rect: RectangleSet,
) -> ContainmentReport:
    """Exact per-level check that every lambda*b + x is in the kept region.

    Level k of a cut-out member keeps what no cut of level <= k deletes
    (cuts delete open boxes, so boundaries stay kept); level k of a
    corner-digit member keeps the union of its level-k components.  Levels
    run 0..max generated level.
    """
    family = rect.meta.get("family")
    if family not in ("rco", "rcd"):
        raise ValueError("rectangle set lacks family metadata")
    lam = Fraction(lam)
    placed = [
        (Fraction(x[0]) + lam * Fraction(p[0]), Fraction(x[1]) + lam * Fraction(p[1]))
        for p in points
    ]
    levels: list[bool] = []
    for k in range(rect.max_level() + 1):
        ok = all(_kept_at_level(p, rect, family, k) for p in placed)
        if family == "rco" and k >= 1:
            # cuts accumulate: level k keeps only what level k-1 kept
            ok = ok and levels[k - 1]
        levels.append(ok)
    return ContainmentReport(tuple(levels))


# ---------------------------------------------------------------- grid scan


class PatternCandidate(NamedTuple):
    lam: Fraction
    x: tuple[Fraction, Fraction]
    max_depth_passed: int


class _ScaleBlock(NamedTuple):
    """The candidates of one scale: the translation (xs[ix[i]], ys[iy[i]])
    for each i, where xs and ys are the grid's translation coordinates per
    axis and ix, iy the grid indices that passed."""

    lam: Fraction
    xs: list[Fraction]
    ys: list[Fraction]
    ix: list[int]
    iy: list[int]


def _candidate(blocks: list[_ScaleBlock], ends: list[int], depth: int, i: int) -> PatternCandidate:
    """Candidate i of the blocks, where ends[b] is the number of candidates
    in blocks 0..b."""
    b = bisect_right(ends, i)
    lam, xs, ys, ix, iy = blocks[b]
    i -= ends[b - 1] if b else 0
    return PatternCandidate(lam, (xs[ix[i]], ys[iy[i]]), depth)


class _Candidates(_LazyRows):
    """The candidates of a scan, stored as one _ScaleBlock per scale.

    A read-only sequence: a PatternCandidate is built only when one is
    read, and it compares, hashes and prints like the tuple of them."""

    __slots__ = ("blocks", "depth")

    def __init__(self, blocks: list[_ScaleBlock], depth: int) -> None:
        self.blocks, self.depth = blocks, depth
        ends = list(itertools.accumulate(len(b.ix) for b in blocks))
        super().__init__(ends[-1] if ends else 0, partial(_candidate, blocks, ends, depth))

    def __iter__(self) -> Iterator[PatternCandidate]:
        for lam, xs, ys, ix, iy in self.blocks:
            for i, j in zip(ix, iy):
                yield PatternCandidate(lam, (xs[i], ys[j]), self.depth)


def _default_resolution(rect: RectangleSet, depth: int) -> Fraction:
    halves = [
        Fraction(min(axis.halves), axis.den)
        for axis in rect.lattice_of(None, [depth])
        if axis.halves
    ]
    return min(halves, default=Fraction(1)) / 2


def _scan_one_scale(
    lam: Fraction,
    query: PatternQuery,
    rect: RectangleSet,
    family: str,
    res: Fraction,
) -> _ScaleBlock | None:
    # translation grid: x = (ix, iy) * res with every pattern point in the
    # root box; per axis x_j in [-1 - lam*min_b, 1 - lam*max_b]
    lo_idx = []
    hi_idx = []
    for j in range(2):
        coords = [p[j] for p in query.points]
        lo = Fraction(-1) - lam * min(coords)
        hi = Fraction(1) - lam * max(coords)
        if lo > hi:
            return None
        lo_idx.append(math.ceil(lo / res))
        hi_idx.append(math.floor(hi / res))
        if lo_idx[j] > hi_idx[j]:
            return None
    shape = (hi_idx[0] - lo_idx[0] + 1, hi_idx[1] - lo_idx[1] + 1)
    acc = np.ones(shape, dtype=bool)
    if family == "rco":
        # clear the open interior of every cut, per pattern point
        boxes, strict = rect.lattice_of("cut", range(1, query.depth + 1)), True
    else:
        # intersect per pattern point the union of level-depth components
        boxes, strict = rect.lattice_of("comp", [query.depth]), False
    if query.depth >= 1:
        for p in query.points:
            starts, stops = [], []
            for j, axis in enumerate(boxes):
                # box j-range minus lam * p_j, in steps of res, on one lattice
                centers, halves, (shift, step) = _on_one_lattice(axis, (lam * p[j], res))
                lo, hi = centers - halves - shift, centers + halves - shift
                if strict:  # i * res > lo and i * res < hi
                    first, last = lo // step + 1, -(-hi // step) - 1
                else:
                    first, last = -(-lo // step), hi // step
                starts.append(np.maximum(first, lo_idx[j]) - lo_idx[j])
                stops.append(np.minimum(last, hi_idx[j]) - lo_idx[j] + 1)
            some = (starts[0] < stops[0]) & (starts[1] < stops[1])
            hits = _cover_counts(
                shape,
                [a[some].astype(np.intp) for a in starts],
                [b[some].astype(np.intp) for b in stops],
            ) > 0
            acc &= ~hits if strict else hits

    # one Fraction per grid translation, shared by the candidates on it
    xs = [(lo_idx[0] + i) * res for i in range(shape[0])]
    ys = [(lo_idx[1] + i) * res for i in range(shape[1])]
    ix, iy = np.nonzero(acc)
    return _ScaleBlock(lam, xs, ys, ix.tolist(), iy.tolist())


def find_homothety(
    query: PatternQuery,
    rect: RectangleSet,
    cross_check: int = 8,
) -> Sequence[PatternCandidate]:
    """Scan scales and grid translations for depth-consistent pattern copies.

    Returns every (x, lambda) on the grid whose placed pattern passes the
    full query depth — a necessary-condition filter, not a membership proof.
    Scales are scanned in increasing order; the first few candidates are
    re-verified against the exact per-level checker as an internal
    consistency guard.

    The result is a read-only view, stored per scale as the grid's
    translations and the indices that passed; it builds a PatternCandidate
    only when one is read, and compares, hashes and prints like the tuple
    of candidates.  Its slices are lists.
    """
    family = rect.meta.get("family")
    if family not in ("rco", "rcd"):
        raise ValueError("rectangle set lacks family metadata")
    if query.depth > rect.max_level():
        raise ValueError(
            f"query depth {query.depth} exceeds generated depth {rect.max_level()}"
        )
    res = (
        query.grid_resolution
        if query.grid_resolution is not None
        else _default_resolution(rect, query.depth)
    )
    blocks: list[_ScaleBlock] = []
    lam = query.lambda_lo
    while lam <= query.lambda_hi:
        block = _scan_one_scale(lam, query, rect, family, res)
        if block is not None and block.ix:
            blocks.append(block)
        lam += res
    out = _Candidates(blocks, query.depth)
    for cand in out[:cross_check]:
        report = verify_containment_depth(cand.x, cand.lam, query.points, rect)
        if not report.consistent_to(query.depth):
            raise AssertionError(
                f"grid scan admitted a candidate the exact checker rejects: {cand}"
            )
    return out


def candidates_to_csv(candidates: Iterable[PatternCandidate]) -> str:
    """One row per candidate: lambda, x1, x2, max_depth_passed.  A
    find_homothety view is written from its blocks, without building the
    candidates: each scale's lambda and each translation coordinate that
    a candidate uses are formatted once."""
    if not isinstance(candidates, _Candidates):
        rows = [f"{cand.lam},{cand.x[0]},{cand.x[1]},{cand.max_depth_passed}\n"
                for cand in candidates]
        return "lambda,x1,x2,max_depth_passed\n" + "".join(rows)
    rows = ["lambda,x1,x2,max_depth_passed\n"]
    tail = f",{candidates.depth}\n"
    for lam, xs, ys, ix, iy in candidates.blocks:
        head = f"{lam},"
        xt = {i: head + str(xs[i]) + "," for i in set(ix)}
        yt = {j: str(ys[j]) + tail for j in set(iy)}
        rows.extend([xt[i] + yt[j] for i, j in zip(ix, iy)])
    return "".join(rows)
