"""Desk-scale search for homothetic pattern copies in finite approximations.

Membership at finite depth is a necessary condition only — a candidate pair
(x, lambda) passing depth k means every pattern point lambda*b + x lies in
the kept region of the depth-k approximation ("depth-k consistent"), nothing
more.  Checks are exact: box coordinates, scales, and translations are
rationals, and the member's integer numerators are read by the kernels of
families, so no candidate is lost or spuriously admitted to rounding: the
grid scan counts by _grid_hits' floor divisions, and the per-level checker
that re-verifies it compares by _reach_rows directly.

The scan counts each offset class once: a placed point lam b + i res lies
on the grid of step res through its offset phi, lam b mod res, so the
pairs (lam, b) that share phi read one _grid_hits count over the union of
their translation ranges (_kept_masks).  When every lam b is a multiple
of res, all pairs share the offset 0.

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
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import core
from .core import BoxRegion, Record, _LazyRows, check_size, line_chunks
from .families import (
    RectangleSet,
    _grid_hits,
    _ratio_texts,
    _reach_rows,
    _span_lattice,
    _typecode,
)
from .gamesim import MAX_AUDIT_CELLS

if TYPE_CHECKING:
    import numpy as np

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
    interior, or in a closed component, as _reach_rows decides on the
    region's boxes, every placed point in one pass over each run of them.
    Levels run 0..max generated level.
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
        # per run, one pass decides every placed point: is a box of it in reach?
        hit = [_reach_rows(_span_lattice(rect.lattice, span.start, span.stop), placed,
                           (0, 0), cut).any(axis=1) for span in spans]
        levels.append(levels[0] and all(
            any(h[i] for h in hit) != cut for i in range(len(placed))))
    return ContainmentReport(tuple(levels))


# ---------------------------------------------------------------- grid scan


class PatternCandidate(NamedTuple):
    lam: Fraction
    x: tuple[Fraction, Fraction]
    max_depth_passed: int


class _ScaleBlock(NamedTuple):
    """The candidates of one scale: the translation ((lo[0] + ix[i]) res,
    (lo[1] + iy[i]) res) for each i, where lo is the grid's first index per
    axis and ix, iy the grid indices that passed, as array columns of the
    narrowest typecode that holds the grid's longer side (families._typecode)."""

    lam: Fraction
    lo: list[int]
    res: Fraction
    ix: array
    iy: array


def _candidate(blocks: list[_ScaleBlock], ends: list[int], depth: int, i: int) -> PatternCandidate:
    """Candidate i of the blocks, where ends[b] is the number of candidates
    in blocks 0..b."""
    b = bisect_right(ends, i)
    lam, lo, res, ix, iy = blocks[b]
    i -= ends[b - 1] if b else 0
    num, den = res.numerator, res.denominator
    return PatternCandidate(lam, (Fraction((lo[0] + ix[i]) * num, den),
                                  Fraction((lo[1] + iy[i]) * num, den)), depth)


class _Candidates(_LazyRows):
    """The candidates of a scan, stored as one _ScaleBlock per scale.

    A read-only sequence: a PatternCandidate is built only when one is
    read, and it compares and prints like the tuple of them, unhashable."""

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


def _scale_grid(lam: Fraction, query: PatternQuery,
                res: Fraction) -> tuple[list[int], list[int]] | None:
    """The translation grid of one scale: per axis the indices lo..hi of
    the translations i res that keep every lam b + i res in the root box,
    x_j in [-1 - lam min_b, 1 - lam max_b]; None when an axis has none."""
    lo_idx, hi_idx = [], []
    for axis in zip(*query.points):
        lo_idx.append(math.ceil((-1 - lam * min(axis)) / res))
        hi_idx.append(math.floor((1 - lam * max(axis)) / res))
        if lo_idx[-1] > hi_idx[-1]:
            return None
    return lo_idx, hi_idx


def _kept_masks(grids: list[tuple[Fraction, list[int], list[int]]], query: PatternQuery,
                rect: RectangleSet, res: Fraction) -> list[np.ndarray]:
    """Per scale (lam, lo, hi), the mask of the translations i res, lo <= i
    <= hi, whose placed pattern the kept region at the query depth keeps.

    A pattern point b placed at lam b + i res is the point phi + (i + k) res
    of a grid with offset phi, where lam b = k res + phi and 0 <= phi < res
    per axis.  So the pairs (lam, b) that share phi, an offset class, read
    one _grid_hits count over the union of their index ranges, and each
    scale ANDs its slices of those masks.  A class's pairs, in scan order,
    join one union while it has no more cells than their ranges have in
    all, nor more than MAX_AUDIT_CELLS, and start another past that: so no
    count is larger than the limit, and the counts take no more cells than
    one per pair would.  Every scale's mask is held until the end: their
    cells add up to at most what find_homothety's size check allows over
    all scales."""
    import numpy as np

    masks = [np.ones((hi[0] - lo[0] + 1, hi[1] - lo[1] + 1), dtype=bool) for _, lo, hi in grids]
    if query.depth < 1:
        return masks
    spans, cut = rect._kept_region(query.depth)
    classes: dict[tuple[Fraction, ...], list[tuple[list[int], list[int], int, list]]] = {}
    for s, (lam, lo, hi) in enumerate(grids):
        for point in query.points:
            shift = [lam * x // res for x in point]
            phi = tuple(lam * x - k * res for x, k in zip(point, shift))
            first = [a + k for a, k in zip(lo, shift)]
            last = [b + k for b, k in zip(hi, shift)]
            unions = classes.setdefault(phi, [])
            cells = masks[s].size
            if unions:
                ulo, uhi, total, pairs = unions[-1]
                wide = list(map(min, ulo, first)), list(map(max, uhi, last))
                if math.prod(b - a + 1 for a, b in zip(*wide)) <= min(total + cells,
                                                                      MAX_AUDIT_CELLS):
                    unions[-1] = (*wide, total + cells, pairs)
                    pairs.append((s, first))
                    continue
            unions.append((first, last, cells, [(s, first)]))
    for phi, unions in classes.items():
        for ulo, uhi, _, pairs in unions:
            # a cut deletes a placed point its box reaches; a component keeps it
            keep = (np.equal if cut else np.greater)(
                _grid_hits(rect.lattice, phi, (res, res), (0, 0), ulo, uhi, cut, spans), 0)
            for s, first in pairs:
                mask = masks[s]
                (a, b), (n, m) = (f - u for f, u in zip(first, ulo)), mask.shape
                mask &= keep[a:a + n, b:b + m]
    return masks


def _scale_block(lam: Fraction, lo: list[int], res: Fraction, mask: np.ndarray) -> _ScaleBlock:
    """The candidates of one scale whose translation grid starts at lo."""
    import numpy as np

    shape = mask.shape
    code = _typecode(max(shape))
    # the passing cells in row-major order, as np.nonzero(mask) lists them
    # (a flat scan and one divmod take a third of its time)
    ix, iy = (array(code, index.astype(code).tobytes())
              for index in np.divmod(np.flatnonzero(mask), shape[1]))
    return _ScaleBlock(lam, lo, res, ix, iy)


# How many of its first candidates find_homothety re-verifies by the exact
# per-level checker.
_CROSS_CHECK = 8


def find_homothety(query: PatternQuery, rect: RectangleSet) -> Sequence[PatternCandidate]:
    """Scan scales and grid translations for depth-consistent pattern copies.

    Returns every (x, lambda) on the grid whose placed pattern passes the
    full query depth — a necessary-condition filter, not a membership proof.
    Scales are taken in increasing order, each one's translation grid found
    by _scale_grid; the kept region is counted once per offset class of
    the placed points, not once per scale and point (_kept_masks).  The
    first _CROSS_CHECK (8) candidates are re-verified against the exact
    per-level checker as an internal consistency guard.

    The result is a read-only view, stored per scale as the grid's
    translations and the indices that passed; it builds a PatternCandidate
    only when one is read, and compares and prints like the tuple of
    candidates, unhashable.  Its slices are lists.  Over gamesim.MAX_AUDIT_CELLS grid cells
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
    grids = []
    lam = lo
    while lam <= top:
        grid = _scale_grid(lam, query, res)
        if grid is not None:
            grids.append((lam, *grid))
        lam += res
    masks = _kept_masks(grids, query, rect, res)
    blocks = [_scale_block(lam, lo_idx, res, mask)
              for (lam, lo_idx, _), mask in zip(grids, masks) if mask.any()]
    out = _Candidates(blocks, query.depth)
    for cand in out[:_CROSS_CHECK]:
        report = verify_containment_depth(cand.x, cand.lam, query.points, rect)
        if not report.consistent_to(query.depth):
            raise AssertionError(
                f"grid scan admitted a candidate the exact checker rejects: {cand}"
            )
    return out


def _translation_texts(lo: int, res: Fraction, indices: Iterable[int],
                       end: str) -> dict[int, str]:
    """index i -> the text of the translation (lo + i) res, as str(Fraction)
    writes it, then `end`, for each distinct i of `indices`."""
    distinct = list(set(indices))
    return dict(zip(distinct, _ratio_texts(
        res.denominator, [(lo + i) * res.numerator for i in distinct], end, whole=True)))


def candidates_csv_chunks(candidates: Iterable[PatternCandidate]) -> Iterator[str]:
    """The text of candidates_to_csv as it is formatted: the header, then
    the rows.  A find_homothety view is written a run at a time, building
    no candidate: its rows are in row-major grid order, so the rows that
    share a scale and an x are one run, at most core.CHUNK_LINES of which
    make one chunk, prefix + prefix.join(y texts); each scale's lambda and
    each x and y text that a candidate uses are formatted once per scale,
    from the integer translations (families._ratio_texts).  Other
    candidates are written a row at a time, core.CHUNK_LINES to a chunk."""
    yield "lambda,x1,x2,max_depth_passed\n"
    if not isinstance(candidates, _Candidates):
        yield from line_chunks(f"{cand.lam},{cand.x[0]},{cand.x[1]},{cand.max_depth_passed}\n"
                               for cand in candidates)
        return
    for lam, lo, res, ix, iy in candidates.blocks:
        xt = _translation_texts(lo[0], res, ix, ",")
        yt = _translation_texts(lo[1], res, iy, f",{candidates.depth}\n")
        start = 0
        while start < len(ix):
            i = ix[start]
            stop = bisect_right(ix, i, start, min(start + core.CHUNK_LINES, len(ix)))
            prefix = f"{lam},{xt[i]}"
            yield prefix + prefix.join(map(yt.__getitem__, iy[start:stop]))
            start = stop


def candidates_to_csv(candidates: Iterable[PatternCandidate]) -> str:
    """One row per candidate: lambda, x1, x2, max_depth_passed; the join of
    candidates_csv_chunks."""
    return "".join(candidates_csv_chunks(candidates))
