"""Desk-scale search for homothetic pattern copies in finite approximations.

Membership at finite depth is a necessary condition only — a candidate pair
(x, lambda) passing depth k means every pattern point lambda*b + x lies in
the kept region of the depth-k approximation ("depth-k consistent"), nothing
more.  Checks are exact: box coordinates, scales, and translations are
rationals, and the member's integer numerators are read by the kernels of
families, so no candidate is lost or spuriously admitted to rounding: the
grid scan counts by _grid_hits' floor divisions, and the per-level checker
that re-verifies it compares by _reach directly.

Both read the kept region at depth k from RectangleSet._kept_region, the
rule the raster reads too: for cut-out members, the root box minus the
open interiors of all cuts at levels 1..k; for corner-digit members, the
union of the closed level-k components.  Both shrink as k grows, so passing
the full query depth implies passing every shallower depth.
"""
from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import core
from .core import BoxRegion, Record, check_size, line_chunks
from .families import RectangleSet, _grid_hits, _LazyRows, _reach, _span_lattice, _typecode
from .gamesim import MAX_AUDIT_CELLS

__all__ = [
    "PatternQuery",
    "ContainmentReport",
    "verify_containment_depth",
    "PatternCandidate",
    "find_homothety",
    "candidates_to_csv",
    "candidates_csv_chunks",
    "pattern_diameter",
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


# ------------------------------------------------------------- exact checks


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

    Level 0 keeps the root box; level k >= 1 keeps the points of the root
    box that RectangleSet._kept_region at depth k keeps: in no cut's open
    interior, or in a closed component, as _reach decides on the region's
    boxes.  Levels run 0..max generated level.
    """
    if rect.meta.get("family") not in ("rco", "rcd"):
        raise ValueError("rectangle set lacks family metadata")
    lam = Fraction(lam)
    placed = [
        (Fraction(x[0]) + lam * Fraction(p[0]), Fraction(x[1]) + lam * Fraction(p[1]))
        for p in points
    ]
    levels = [all(map(ROOT.contains_point, placed))]
    for k in range(1, rect.max_level() + 1):
        spans, cut = rect._kept_region(k)
        runs = [_span_lattice(rect.lattice, span.start, span.stop) for span in spans]
        levels.append(levels[0] and all(
            any(_reach(run, p, (0, 0), cut).any() for run in runs) != cut for p in placed))
    return ContainmentReport(tuple(levels))


# ---------------------------------------------------------------- grid scan


class PatternCandidate(NamedTuple):
    lam: Fraction
    x: tuple[Fraction, Fraction]
    max_depth_passed: int


class _ScaleBlock(NamedTuple):
    """The candidates of one scale: the translation (xs[ix[i]], ys[iy[i]])
    for each i, where xs and ys are the grid's translation coordinates per
    axis and ix, iy the grid indices that passed, as array columns of the
    narrowest typecode that holds the grid's longer side (families._typecode)."""

    lam: Fraction
    xs: list[Fraction]
    ys: list[Fraction]
    ix: array
    iy: array


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
    res: Fraction,
) -> _ScaleBlock | None:
    import numpy as np

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
    if query.depth >= 1:
        spans, cut = rect._kept_region(query.depth)
        for p in query.points:
            # per pattern point, the deciding boxes that reach the placed
            # point lam * p + i * res: a cut deletes it, a component keeps it
            acc &= (np.equal if cut else np.greater)(
                _grid_hits(rect.lattice, [lam * x for x in p], (res, res), (0, 0),
                           lo_idx, hi_idx, cut, spans), 0)

    # one Fraction per grid translation, shared by the candidates on it
    xs = [(lo_idx[0] + i) * res for i in range(shape[0])]
    ys = [(lo_idx[1] + i) * res for i in range(shape[1])]
    code = _typecode(max(shape))
    ix, iy = (array(code, index.astype(code).tobytes()) for index in np.nonzero(acc))
    return _ScaleBlock(lam, xs, ys, ix, iy)


# How many of its first candidates find_homothety re-verifies by the exact
# per-level checker.
_CROSS_CHECK = 8


def find_homothety(query: PatternQuery, rect: RectangleSet) -> Sequence[PatternCandidate]:
    """Scan scales and grid translations for depth-consistent pattern copies.

    Returns every (x, lambda) on the grid whose placed pattern passes the
    full query depth — a necessary-condition filter, not a membership proof.
    Scales are scanned in increasing order; the first _CROSS_CHECK (8)
    candidates are re-verified against the exact per-level checker as an
    internal consistency guard.

    The result is a read-only view, stored per scale as the grid's
    translations and the indices that passed; it builds a PatternCandidate
    only when one is read, and compares, hashes and prints like the tuple
    of candidates.  Its slices are lists.  Over gamesim.MAX_AUDIT_CELLS grid cells
    it raises core.SizeError first (widest scale: "resolution"; all: "lambda_hi").
    """
    if rect.meta.get("family") not in ("rco", "rcd"):
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
    # no scale past 2 / diam fits the pattern in the root box; an axis of spread
    # s has at most (2 - lambda_lo s) / res + 1 translations, + 1 difference row
    lo, diam = query.lambda_lo, pattern_diameter(query.points)
    top = min(query.lambda_hi, 2 / diam) if diam else query.lambda_hi
    spans = [2 - lo * (max(axis) - min(axis)) for axis in zip(*query.points)]
    cells = math.prod(int(span / res) + 2 for span in spans) if min(spans) >= 0 else 0
    check_size("resolution", res, cells, "grid cells", MAX_AUDIT_CELLS)
    check_size("lambda_hi", query.lambda_hi, ((top - lo) // res + 1) * cells,
               "grid cells over its scales", MAX_AUDIT_CELLS)
    blocks: list[_ScaleBlock] = []
    lam = lo
    while lam <= top:
        block = _scan_one_scale(lam, query, rect, res)
        if block is not None and block.ix:
            blocks.append(block)
        lam += res
    out = _Candidates(blocks, query.depth)
    for cand in out[:_CROSS_CHECK]:
        report = verify_containment_depth(cand.x, cand.lam, query.points, rect)
        if not report.consistent_to(query.depth):
            raise AssertionError(
                f"grid scan admitted a candidate the exact checker rejects: {cand}"
            )
    return out


def candidates_csv_chunks(candidates: Iterable[PatternCandidate]) -> Iterator[str]:
    """The text of candidates_to_csv as it is formatted: the header, then
    the rows.  A find_homothety view is written a run at a time, building
    no candidate: its rows are in row-major grid order, so the rows that
    share a scale and an x are one run, at most core.CHUNK_LINES of which
    make one chunk, prefix + prefix.join(y texts); each scale's lambda and
    each y text that a candidate uses are formatted once per scale.  Other
    candidates are written a row at a time, core.CHUNK_LINES to a chunk."""
    yield "lambda,x1,x2,max_depth_passed\n"
    if not isinstance(candidates, _Candidates):
        yield from line_chunks(f"{cand.lam},{cand.x[0]},{cand.x[1]},{cand.max_depth_passed}\n"
                               for cand in candidates)
        return
    tail = f",{candidates.depth}\n"
    for lam, xs, ys, ix, iy in candidates.blocks:
        head = f"{lam},"
        yt = {j: str(ys[j]) + tail for j in set(iy)}
        start = 0
        while start < len(ix):
            i = ix[start]
            stop = bisect_right(ix, i, start, min(start + core.CHUNK_LINES, len(ix)))
            prefix = f"{head}{xs[i]},"
            yield prefix + prefix.join(map(yt.__getitem__, iy[start:stop]))
            start = stop


def candidates_to_csv(candidates: Iterable[PatternCandidate]) -> str:
    """One row per candidate: lambda, x1, x2, max_depth_passed; the join of
    candidates_csv_chunks."""
    return "".join(candidates_csv_chunks(candidates))
