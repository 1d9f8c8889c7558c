"""Explicit planar self-affine families and their winning budget parameters.

Two families on B[0,1] = [-1,1]^2 under the contraction A = diag(1/U, 1/V):

* Rectangular cut-out family RCO(U, V, m, t): level-k cells are the grid of
  boxes with half-widths (U^-k, V^-k); from the interior of every level-k
  cell (k >= 1), m pairwise disjoint boxes with half-widths
  (U^-(k+t), V^-(k+t)) are removed.  The kept set is the complement of all
  removed boxes.  A member is a choice of removal positions; the certified
  budget rate

      rco_alpha(U, V, m, t, c) = (9m)^(1/c) * (UV)^-t

  wins for EVERY member: a test box the size of a level-k cell touches at
  most 3x3 cells, hence at most 9m removed boxes of exponent k + t.

* Rectangular corner-digit family RCD(U, V): each level-k component (half-
  widths (U^-k, V^-k)) splits into (U-1)(V-1) regions L_i with half-widths
  (1/(U^k(U-1)), 1/(V^k(V-1))); the member keeps, inside each region, one
  child box of half-widths (U^-(k+1), V^-(k+1)) flush in one of the four
  corners (the member's choice, per address).  Removing region-minus-child
  takes

      rcd_cover_count(U, V, t)

  boxes of half-widths (U^-(k+1+t), V^-(k+1+t)) per region — two slab
  orientations, the cheaper wins — and the certified rate is

      rcd_alpha(U, V, c, t)
          = (9 (U-1)(V-1) rcd_cover_count(U,V,t))^(1/c) * (UV)^-(1+t).

Generated geometry is exact, and the integer lattice is the only form it
is stored in.  Every coordinate a generator makes at one level is an
integer over one denominator per axis (u^(k+t), v^(k+t) for a cut-out
level, u^q (u-1), v^q (v-1) for a corner-digit level of exponent q), so
the generators compute on integer numerators and keep them in columns
(AxisLattice: per axis a denominator and the center and half-width
numerators, each column at the narrowest integer width that holds it):

* a RectangleSet keeps a level column, its addresses and one
  AxisLattice per axis over the deepest level's denominators (a generated
  cut-out member derives its addresses from the index instead);
* a StrategyLevel keeps one AxisLattice per axis over its least common
  denominator.

Their `entries` and `boxes` are read-only views that build a RectEntry or
a Fraction BoxRegion only when an item is read; they compare and print
like the list and tuple of those items, and do not hash.  The CSV writer
and two exact kernels, _reach and _grid_hits, read the numerators.  Which
points a set keeps at a depth is stated once, by
RectangleSet._kept_region: the root box minus the open interiors of its
cuts, or the union of its closed components.  The raster and the pattern
code read it, so a pixel center on a cut's edge is kept.  A set built by
hand from entries derives its lattice once and reads its entries back
from it, so a float coordinate comes back as the equal exact Fraction; a
level built by hand keeps its boxes as given.  No generator builds more
than MAX_GEOMETRY_BOXES boxes, or more than MAX_GEOMETRY_BITS numerator
bits (it raises core.SizeError first).  Budget rates are LogScalars.

Both corner-digit generators, generate_rcd and covering_strategy_for_rcd,
read one walk of the component tree (_rcd_levels): per level, its region
centers and corners as plain columns of Python ints, and its child
addresses where something reads them (generate_rcd's names, the hash
rule's corner seeds).
"""
from __future__ import annotations

import itertools
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

from .core import (
    EXACT_LIMIT, BoxRegion, DiagonalContraction, GameParameters, LogScalar, Record, _ceil_powers,
    _LazyRows, _ListRows, check_size, line_chunks,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RcoSpec",
    "RcdSpec",
    "RectEntry",
    "RectangleSet",
    "AxisLattice",
    "StrategyLevel",
    "CoveringStrategy",
    "CoverCount",
    "rco_alpha",
    "rcd_cover_count",
    "rcd_alpha",
    "generate_rco",
    "generate_rcd",
    "covering_strategy_for_rco",
    "covering_strategy_for_rcd",
    "MAX_GEOMETRY_BOXES",
    "MAX_GEOMETRY_BITS",
    "MAX_DENOMINATOR_BITS",
]

# Most boxes one generated member or covering strategy may hold, counted
# before anything is allocated.  RCO(4,5,2,1) at depth 5 has 10,105,260;
# the RCD(7,4) strategy at t = 1 and depth 4 has 2,889,900 and 4 templates.
MAX_GEOMETRY_BOXES = 2 ** 26
# Most numerator bits one of them may hold, counted as its boxes times a
# bound on the bits of its deepest level's two denominators, since the
# numerators grow with the depth.  RCO(4,5,2,1) at depth 5 counts
# 10,105,260 * 32 and the RCD(7,4) strategy above 2,890,004 * 30; RCD(2,2)
# at depth d counts d * 2 (d + 1), so this limit alone would stop its depth
# at 16,383; MAX_DENOMINATOR_BITS stops it first, at 13,999.
MAX_GEOMETRY_BITS = 2 ** 29
# Most bits of a generated member's widest denominator.  Its CSV writes
# every coordinate p/q in decimal, and Python converts at most 4,300 digits
# (2^14,000 < 10^4,300); RCD(2,2) stops at depth 13,999.
MAX_DENOMINATOR_BITS = 14_000


# --------------------------------------------------------------- family specs


class RcoSpec(Record):
    """Cut-out family descriptor.

    u, v: axis subdivision counts (cell half-widths shrink by 1/u, 1/v);
    m: removed boxes per cell; t: removal depth offset (removed boxes are
    t levels finer than their cell).  Generation requires integer t;
    the rate formula accepts real t >= 1 via rco_alpha directly.
    """

    __slots__ = _fields = ("u", "v", "m", "t")

    def __init__(self, u: int, v: int, m: int = 1, t: int = 1) -> None:
        if u < 2 or v < 2:
            raise ValueError("subdivision counts must be >= 2")
        if m < 1:
            raise ValueError("need at least one removed box per cell")
        if t < 1:
            raise ValueError("removal depth offset must be >= 1")
        # u^t v^t >= 4^t, so m removals fit unless 2t < m.bit_length(): only
        # then is the power taken, and a huge t costs nothing
        if 2 * t < m.bit_length() and m > u ** t * v ** t:
            raise ValueError(
                f"{m} disjoint removals cannot fit in a cell "
                f"({u ** t * v ** t} slots)"
            )
        super().__init__(u, v, m, t)

    def contraction(self) -> DiagonalContraction:
        return DiagonalContraction.from_denominators((self.u, self.v))

    def extras(self) -> dict[str, str]:
        """The keys that echo this family in a certificate's extras."""
        return {"family.kind": "cutout", **{f"family.{k}": str(getattr(self, k))
                                            for k in self._fields}}


class RcdSpec(Record):
    """Corner-digit family descriptor.

    corner_rule decides, per child address, which of the four corners the
    kept child box occupies: "fixed" pins the high corner everywhere, "hash"
    derives it deterministically from (corner_seed, address).
    """

    __slots__ = _fields = ("u", "v", "corner_rule", "corner_seed")

    def __init__(self, u: int, v: int, corner_rule: Literal["fixed", "hash"] = "fixed",
                 corner_seed: int = 0) -> None:
        if u < 2 or v < 2:
            raise ValueError("subdivision counts must be >= 2")
        if corner_rule not in ("fixed", "hash"):
            raise ValueError(f"unknown corner rule {corner_rule!r}")
        super().__init__(u, v, corner_rule, corner_seed)

    def contraction(self) -> DiagonalContraction:
        return DiagonalContraction.from_denominators((self.u, self.v))

    def extras(self) -> dict[str, str]:
        """The keys that echo this family in a certificate's extras."""
        return {"family.kind": "corner", "family.u": str(self.u), "family.v": str(self.v)}

    def corner_signs(self, address: str) -> tuple[int, int]:
        """(+-1, +-1): which corner of its region the child at `address` takes,
        one of four shared tuples, since the corner-digit walk keeps one per
        child."""
        if self.corner_rule == "fixed":
            return (1, 1)
        bits = random.Random(f"{self.corner_seed}|{address}").randrange(4)
        return ((-1, -1), (1, -1), (-1, 1), (1, 1))[bits]    # x by bit 0, y by bit 1


# ------------------------------------------------------------- budget rates


class RateParts(NamedTuple):
    """A budget rate (touch count)^(1/c) * (mass ratio) as its two c-free
    logs; `log_at` joins them in the one float order of every family's rate,
    and `at` wraps that log in a LogScalar."""

    touch_log: float             # ln of the touch count
    scale_log: float             # -ln of the per-move mass ratio

    def log_at(self, c: float) -> float:
        return self.touch_log / c - self.scale_log

    def at(self, c: float) -> LogScalar:
        return LogScalar(self.log_at(c))


def rco_alpha(u: int, v: int, m: int, t: float, c: float) -> LogScalar:
    """(9m)^(1/c) * (uv)^-t as a LogScalar.  Any real t > 0 is allowed."""
    if not (0.0 < c < 1.0):
        raise ValueError(f"exponent c must lie in (0,1), got {c!r}")
    return rco_rate_parts(u, v, m, t).at(c)


def rco_rate_parts(u: int, v: int, m: int, t: float) -> RateParts:
    """rco_alpha's c-free parts: (ln(9m), t (ln u + ln v))."""
    if not 0 < t < math.inf:
        raise ValueError("removal depth offset must be positive")
    if m < 1 or u < 2 or v < 2:
        raise ValueError("invalid family parameters")
    return RateParts(math.log(9 * m), t * (math.log(u) + math.log(v)))


class CoverCount(Record):
    """Number of equal boxes covering one region-minus-child slab pair.

    tag: "exact" | "approximate" (value >= 2^53, or a ceiling whose step-4
    bracket in core._ceil_powers straddles an integer, rounded up); option:
    1 = x-strip full height first, 2 = transposed.
    """

    __slots__ = _fields = ("value", "tag", "option")

    def __init__(self, value: int, tag: str, option: int) -> None:
        if tag not in ("exact", "approximate"):
            raise ValueError(f"unknown tag {tag!r}")
        if option not in (1, 2):
            raise ValueError("option must be 1 or 2")
        if value < 2:
            raise ValueError("a slab pair always needs at least two boxes")
        super().__init__(value, tag, option)


def rcd_cover_count(u: int, v: int, t: float) -> CoverCount:
    """Boxes of half-widths (u^-(k+1+t), v^-(k+1+t)) needed per region slab pair.

    Option 1 covers the x-strip at full region height and the remaining
    y-strip at child width; option 2 transposes the roles:

        n1 = ceil(u^t/(u-1)) * ceil(v^(t+1)/(v-1)) + ceil(u^t) * ceil(v^t/(v-1))
        n2 = ceil(u^(t+1)/(u-1)) * ceil(v^t/(v-1)) + ceil(v^t) * ceil(u^t/(u-1))

    The smaller wins; ties go to option 1.  Each base is raised to t once
    (once in all when u == v): u^(t+1) is taken as u * u^t, so the exponent
    t + 1 is exact even where the float t + 1 is not.
    """
    if u < 2 or v < 2:
        raise ValueError("subdivision counts must be >= 2")
    if not 0 < t < math.inf:
        raise ValueError("cover depth offset must be positive")
    (a, cu, a2), exact_u = _ceil_powers(u, t, ((1, u - 1), (1, 1), (u, u - 1)))
    if u == v:
        (d, cv, b), exact_v = (a, cu, a2), exact_u
    else:
        (d, cv, b), exact_v = _ceil_powers(v, t, ((1, v - 1), (1, 1), (v, v - 1)))
    n1 = a * b + cu * d
    n2 = a2 * d + cv * a
    value, option = (n1, 1) if n1 <= n2 else (n2, 2)
    tag = "exact" if exact_u and exact_v and value < EXACT_LIMIT else "approximate"
    return CoverCount(value, tag, option)


def rcd_alpha(
    u: int, v: int, c: float, t: float, cover_count: CoverCount | None = None
) -> LogScalar:
    """(9 (u-1)(v-1) rcd_cover_count(u,v,t))^(1/c) * (uv)^-(1+t), real t > 0.

    Only the touch count is raised to 1/c; the (uv)^-(1+t) scale factor is
    the per-move mass ratio and stays outside the power.
    """
    if not (0.0 < c < 1.0):
        raise ValueError(f"exponent c must lie in (0,1), got {c!r}")
    return rcd_rate_parts(u, v, t, cover_count).at(c)


def rcd_rate_parts(u: int, v: int, t: float, cover_count: CoverCount | None = None) -> RateParts:
    """rcd_alpha's c-free parts at depth offset t:
    (ln(9 (u-1)(v-1) rcd_cover_count(u,v,t)), (1+t)(ln u + ln v))."""
    if not 0 < t < math.inf:
        raise ValueError("cover depth offset must be positive")
    nt = cover_count if cover_count is not None else rcd_cover_count(u, v, t)
    count = 9 * (u - 1) * (v - 1) * nt.value
    return RateParts(math.log(count), (1 + t) * (math.log(u) + math.log(v)))


def _check_boxes(arg: str, value: int, boxes: int, bits: int = 0) -> None:
    """Refuse more than MAX_GEOMETRY_BOXES boxes, or boxes * bits past MAX_GEOMETRY_BITS."""
    check_size(arg, value, boxes, "boxes", MAX_GEOMETRY_BOXES)
    check_size(arg, value, boxes * bits, "numerator bits", MAX_GEOMETRY_BITS)


def _den_bits(u: int, q: int, f: int = 1) -> int:
    """A bound on the bits of the denominator u^q f, read without computing
    it: u <= 2^b for b = (u - 1).bit_length(), so u^q f has at most
    q b + f.bit_length() bits."""
    return q * (u - 1).bit_length() + f.bit_length()


def _lattice_bits(u: int, v: int, q: int, fx: int = 1, fy: int = 1) -> int:
    """A bound on the bits of the denominators (u^q fx, v^q fy) together."""
    return _den_bits(u, q, fx) + _den_bits(v, q, fy)


def _den_need(u: int, q: int, f: int) -> int:
    """The bits of the denominator u^q f near MAX_DENOMINATOR_BITS, else a
    bound on the same side of it.  The upper bound _den_bits is exact only
    for u a power of two, so where it passes the limit the lower bound
    q (c - 1) + f.bit_length(), for c = u.bit_length(), is tried; where
    that fits, the power is taken, at most twice the limit in bits."""
    high = _den_bits(u, q, f)
    if high <= MAX_DENOMINATOR_BITS:
        return high
    low = q * (u.bit_length() - 1) + f.bit_length()
    if low > MAX_DENOMINATOR_BITS:
        return low
    return (u ** q * f).bit_length()


def _check_denominators(arg: str, value: int, u: int, v: int, q: int,
                        fx: int = 1, fy: int = 1) -> None:
    """Refuse a member whose denominators (u^q fx, v^q fy) pass
    MAX_DENOMINATOR_BITS bits, so that its CSV can be written."""
    check_size(arg, value, max(_den_need(u, q, fx), _den_need(v, q, fy)),
               "denominator bits", MAX_DENOMINATOR_BITS)


def _level_boxes(first: int, ratio: int, depth: int) -> int:
    """The boxes of levels 1..depth, first * (ratio + ... + ratio^depth), or
    a partial sum already past MAX_GEOMETRY_BOXES: a ratio of 1 sums in
    closed form, and a ratio of 2 or more passes the limit within 64 levels."""
    if ratio == 1:
        return first * depth
    return sum(first * ratio ** k for k in range(1, min(depth, 64) + 1))


# ------------------------------------------------------------------ lattices


class AxisLattice(NamedTuple):
    """One axis of a run of boxes on an integer lattice.

    Box i has center centers[i] / den and half-width halves[i] / den, or
    halves[0] / den if halves has length 1, as a strategy level stores the
    one its boxes share.  The numerators are an array of the narrowest
    typecode, 'h', 'i' or 'q', that holds a bound on every |center| + half
    (_typecode), or a read-only memoryview of one, so center +- half fits
    the column's own width; past int64 they are a tuple (or, in a generated
    rectangle set, a list) of Python ints.  A strategy level's den is the
    least common denominator of its axis.
    """

    den: int
    centers: Sequence[int]
    halves: Sequence[int]


# Signed array typecodes, narrowest first, each with the least magnitude
# it cannot hold (2^15, 2^31 and 2^63 where 'i' has 4 bytes).
_TYPECODES = [(code, 2 ** (8 * array(code).itemsize - 1)) for code in "hiq"]


def _typecode(bound: int) -> str | None:
    """The narrowest array typecode that holds every integer in
    [-bound, bound], or None past int64 (Python ints).  A lattice column
    takes a bound on its |center| + half, so that center +- half never
    overflows the column's width: a generated member's denominator (its
    boxes lie in [-1, 1]^2), a corner-digit strategy level's twice its own
    (_level_axis), a derived lattice's largest |center| plus largest half."""
    for code, limit in _TYPECODES:
        if bound < limit:
            return code
    return None


def _axis_lattice(den: int, centers: list[int], halves: list[int], bound: int) -> AxisLattice:
    """The AxisLattice of numerators over `den`, in lowest terms (the centers
    read only if den and the halves share a factor), its columns of the
    typecode of `bound`, a bound on their |center| + half, or tuples of
    Python ints past int64."""
    g = math.gcd(den, *set(halves))
    g = math.gcd(g, *set(centers)) if g > 1 else g
    if g > 1:
        den, centers, halves = den // g, [x // g for x in centers], [x // g for x in halves]
    code = _typecode(bound)
    if code is None:
        return AxisLattice(den, tuple(centers), tuple(halves))
    return AxisLattice(den, array(code, centers), array(code, halves))


def _derived_lattice(boxes: Sequence[BoxRegion], shared: bool = False) -> tuple[AxisLattice, ...]:
    """Per axis, the boxes' coordinates over their least common denominator,
    with `shared` a half-width every box has stored once, in columns of the
    width of the largest |center| plus the largest half.

    Fractions and ints give their numerator and denominator; a float counts
    as the exact binary fraction it holds.
    """
    boxes = tuple(boxes)  # a lazy view is read once
    axes = []
    for j in range(boxes[0].n if boxes else 0):
        coords = [b.center[j] for b in boxes] + [b.half[j] for b in boxes]
        try:
            dens = {x.denominator for x in coords}
        except AttributeError:
            coords = [Fraction(x) for x in coords]
            dens = {x.denominator for x in coords}
        den = math.lcm(*dens)
        scale = {d: den // d for d in dens}
        nums = [x.numerator * scale[x.denominator] for x in coords]
        centers, halves = nums[:len(boxes)], nums[len(boxes):]
        bound = max(map(abs, centers)) + max(map(abs, halves))
        axes.append(_axis_lattice(den, centers,
                                  halves[:1] if shared and len(set(halves)) == 1 else halves, bound))
    return tuple(axes)


def _box_reader(lattice: tuple[AxisLattice, ...]) -> Callable[[int], BoxRegion]:
    """Box i of a lattice, as Fractions in lowest terms.  A run of boxes
    has few distinct half-widths (a strategy level one per axis), so each
    half-width Fraction is built once and shared by the boxes that have it."""
    halves = [cache(partial(Fraction, denominator=axis.den)) for axis in lattice]

    def box(i: int) -> BoxRegion:
        return BoxRegion(
            tuple(Fraction(axis.centers[i], axis.den) for axis in lattice),
            tuple(half(axis.halves[i if len(axis.halves) > 1 else 0])
                  for axis, half in zip(lattice, halves)),
        )

    return box


# Numerators below this magnitude are computed on in int64 (a narrower
# column is widened a chunk at a time): a sum of eight of them still fits.
_INT64_SAFE = 2 ** 60
_GRID_CHUNK = 2 ** 15   # boxes per chunk of _grid_hits, and so of to_pbm: it makes no longer column


def _on_one_lattice(
    axis: AxisLattice, extras: Sequence[Fraction | int | float]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(centers, halves, extra numerators): one axis of a run of boxes and a
    few more rationals (a float counts as the exact binary fraction it
    holds), all over their least common denominator; a shared half-width
    stays one entry, which numpy broadcasts to every box.

    Integer columns stay integers when every scaled magnitude, the extras'
    included, is below 2^60; that is checked on the bound of the columns'
    width or, where that is too loose, on their unscaled maximum, before
    anything is multiplied.  At scale 1 they are read-only views of the
    stored columns, in the columns' own dtype; a new scale widens them to
    int64 copies first.  Otherwise they become Python integers in object
    arrays.
    """
    import numpy as np

    extras = [Fraction(x) for x in extras]
    den = math.lcm(axis.den, *(x.denominator for x in extras))
    scale = den // axis.den
    nums = [x.numerator * (den // x.denominator) for x in extras]
    columns = (axis.centers, axis.halves)
    if {type(axis.centers), type(axis.halves)} <= {array, memoryview}:
        centers, halves = (np.frombuffer(view, dtype=view.format)
                           for view in (memoryview(c).toreadonly() for c in columns))
        # the columns' widths bound every magnitude; only when that bound is
        # too loose are the columns read for their largest one
        top = 2 ** (8 * max(centers.itemsize, halves.itemsize) - 1)
        if top * scale >= _INT64_SAFE:
            top = max(-int(centers.min(initial=0)), int(centers.max(initial=0)),
                      int(halves.max(initial=0)))
        if top * scale < _INT64_SAFE and all(abs(x) < _INT64_SAFE for x in nums):
            if scale == 1:  # read-only views of the stored columns
                return centers, halves, nums
            return (np.multiply(centers, scale, dtype=np.int64),
                    np.multiply(halves, scale, dtype=np.int64), nums)
    centers, halves = (np.array(col, dtype=object) * scale for col in columns)
    return centers, halves, nums


def _cover_counts(
    shape: tuple[int, ...], boxes: int, ranges: Iterable[tuple[list, list]]
) -> np.ndarray:
    """Per cell of a grid of `shape`, how many of `boxes` boxes cover it,
    where `ranges` yields them by chunks as (starts, stops): box b covers
    the cells [starts[j][b], stops[j][b]) on axis j (intp index arrays,
    every range nonempty and inside the grid, which it scales in place).

    Each box adds +-1 at the corners of its range in one difference array,
    whose prefix sums, taken in place at the end, are the counts.  No entry
    of it ever passes twice the number of boxes in magnitude, so it is
    int32 below 2^30 boxes (half the memory of int64) and int64 above.  The
    corners are added at flat indices into its raveled view, where
    np.add.at takes one index array instead of one per axis: each chunk's
    index arrays are scaled in place by their axis's stride, and a corner's
    are summed, one index array at a time.  That costs less than
    np.ravel_multi_index, whose bounds checks the ranges make needless.
    """
    import numpy as np

    dtype = np.int32 if boxes < 2 ** 30 else np.int64
    diff = np.zeros(tuple(s + 1 for s in shape), dtype=dtype)
    flat = diff.ravel()                   # a view: diff is contiguous
    strides = [math.prod(diff.shape[j + 1:]) for j in range(len(shape))]
    for starts, stops in ranges:
        for j, stride in enumerate(strides[:-1]):   # the last axis's stride is 1
            starts[j] *= stride
            stops[j] *= stride
        for corner in itertools.product((0, 1), repeat=len(shape)):
            index = (stops if corner[0] else starts)[0]
            for j, up in enumerate(corner[1:], 1):
                index = index + (stops if up else starts)[j]
            # a scalar of diff's own dtype keeps np.add.at on its uncast loop
            np.add.at(flat, index, dtype(-1 if sum(corner) % 2 else 1))
        del starts, stops, index          # freed before the next chunk is made
    for axis in range(len(shape)):
        np.cumsum(diff, axis=axis, dtype=dtype, out=diff)
    return diff[(slice(0, -1),) * len(shape)]


def _reach(lattice: Sequence[AxisLattice], point: Sequence[Fraction | int | float],
           reach: Sequence[Fraction | int | float], strict: bool = False) -> np.ndarray:
    """Mask of the boxes within reach[j] of `point` on every axis j:
    |center_j - point_j| <= half_j + reach[j], or < when strict, exactly.
    With X = point_j den and R = reach[j] den, integers c, h have
    |c - X| <= h + R just when c - h <= floor(X + R) and c + h > ceil(X - R) - 1
    (strictly: ceil(X + R) - 1 and floor(X - R)), so the stored columns are
    compared with integers; a shared h moves the bounds instead, making no
    column.  An integer column is compared in its own dtype, in which every
    |c| + h fits (_typecode; _on_one_lattice checks an int64 one below
    2^60), so c +- h lies strictly inside the dtype's range: clamped to
    that range, a bound past it still decides every box alike, and no
    wider copy of the column is made."""
    import numpy as np

    mask = True
    for axis, x, r in zip(lattice, point, reach):
        centers, halves, _ = _on_one_lattice(axis, ())
        x, r = Fraction(x), Fraction(r)
        q = x.denominator * r.denominator   # X +- R = (a +- b) / q
        a, b = x.numerator * r.denominator * axis.den, r.numerator * x.denominator * axis.den
        up, below = ((-(-(a + b) // q) - 1, (a - b) // q) if strict
                     else ((a + b) // q, -(-(a - b) // q) - 1))
        if len(halves) == 1:       # a shared half-width moves the bounds instead
            h = int(halves[0])
            low = high = centers
            up, below = up + h, below - h
        else:
            low, high = centers - halves, centers + halves
        if low.dtype != object:
            info = np.iinfo(low.dtype)
            up, below = (min(max(t, info.min), info.max) for t in (up, below))
        mask = mask & (low <= up) & (high > below)
    return mask


def _grid_hits(lattice: Sequence[AxisLattice], origin: Sequence[Fraction | int],
               step: Sequence[Fraction | int], reach: Sequence[Fraction | int],
               lo: Sequence[int], hi: Sequence[int], strict: bool = False,
               spans: Sequence[range] | None = None) -> np.ndarray:
    """For each point origin + i step (step > 0) of the grid lo <= i <= hi,
    how many boxes reach it as _reach tells: an integer array of shape
    hi - lo + 1 (int32 below 2^30 boxes).  Only the boxes of `spans`, runs
    of indices, count (every box when None).  _index_ranges finds the
    ranges _GRID_CHUNK boxes at a time, reading views of the columns, and
    _cover_counts adds them up in one difference array."""
    if spans is None:
        spans = [range(len(lattice[0].centers))]
    chunks = (_index_ranges(_span_lattice(lattice, i, min(i + _GRID_CHUNK, span.stop)),
                            origin, step, reach, lo, hi, strict)
              for span in spans for i in range(span.start, span.stop, _GRID_CHUNK))
    return _cover_counts(tuple(b - a + 1 for a, b in zip(lo, hi)), sum(map(len, spans)), chunks)


def _span_lattice(lattice: Sequence[AxisLattice], start: int,
                  stop: int) -> tuple[AxisLattice, ...]:
    """Boxes start..stop of a lattice, copying no column: a memoryview of
    an array, or a list slice past int64; a shared half-width stays whole."""
    def view(col: Sequence[int]) -> Sequence[int]:
        return col if len(col) == 1 else (
            memoryview(col) if isinstance(col, array) else col)[start:stop]

    return tuple(AxisLattice(axis.den, view(axis.centers), view(axis.halves)) for axis in lattice)


def _index_ranges(lattice: Sequence[AxisLattice], origin: Sequence, step: Sequence,
                  reach: Sequence, lo: Sequence[int], hi: Sequence[int], strict: bool) -> tuple:
    """_grid_hits' (starts, stops) for a run of boxes.  Per axis, all over
    one denominator, the indices each box reaches run from one floor
    division to another (on integers a strict bound is the closed one less
    1), in place in two columns; boxes that miss the grid are dropped."""
    import numpy as np

    starts, stops = [], []
    for axis, o, s, r, a, b in zip(lattice, origin, step, reach, lo, hi):
        centers, halves, (o, s, r) = _on_one_lattice(axis, (o, s, r))
        r -= strict                       # |i s - (center - o)| <= half + r
        wide = object if centers.dtype == object else np.int64   # a narrow chunk widens here
        first = np.subtract(halves, centers, dtype=wide)
        last = np.add(centers, halves, out=centers if centers.flags.writeable else None, dtype=wide)
        first += o + r                    # i >= ceil((center - half - r - o) / s)
        first //= s
        np.negative(first, out=first)
        np.maximum(first, a, out=first)
        first -= a
        last += r - o                     # i <= floor((center + half + r - o) / s)
        last //= s
        np.minimum(last, b, out=last)
        last -= a - 1
        starts.append(first)
        stops.append(last)
    inside = np.logical_and.reduce([f < g for f, g in zip(starts, stops)])
    if not inside.all():
        starts, stops = [f[inside] for f in starts], [g[inside] for g in stops]
    # an axis of Python ints past int64 is cast, whatever the other axes hold
    return ([f.astype(np.intp, copy=False) for f in starts],
            [g.astype(np.intp, copy=False) for g in stops])


# ----------------------------------------------------------- rectangle sets


class RectEntry(NamedTuple):
    level: int
    address: str        # "kind:path", kind in {cell, cut, comp, cover}
    box: BoxRegion


def _rect_entry(levels: Sequence[int], addresses: Sequence[str],
                box: Callable[[int], BoxRegion], i: int) -> RectEntry:
    return RectEntry(levels[i], addresses[i], box(i))


class RectangleSet(Record):
    """A finite collection of labelled planar boxes, written as CSV or PBM.

    Entries are ordered by level, then address, and stored as columns: the
    levels, the addresses ("kind:path") and, per axis, an AxisLattice of
    center and half-width numerators over one denominator for the whole
    set.  The generators fill the columns directly; a set built from
    entries derives them once.  A set built from entries or by
    generate_rcd keeps its addresses as a list;
    one built by generate_rco keeps, instead, a read-only sequence that
    derives each address from its index (_CutoutAddresses), equal to that
    list.  Either way `entries` is a read-only view that builds a
    RectEntry, with exact Fraction coordinates, only when one is read.

    Because an address starts with its kind, the entries of one kind at
    one level are one run of indices; of_kind and lattice_of find it by
    bisection.  Its fields are (entries, meta); the entries view and the
    meta dict make it unhashable.
    """

    __slots__ = ("entries", "meta", "levels", "addresses", "lattice")
    _fields = __slots__[:2]

    def __init__(self, entries: Sequence[RectEntry], meta: dict[str, str] | None = None) -> None:
        rows = sorted(entries, key=lambda e: (e.level, e.address))
        for e in rows:
            if ":" not in e.address:
                raise ValueError(f"address {e.address!r} does not read kind:path")
        empty = (AxisLattice(1, array("h"), array("h")),) * 2
        self._set_columns([e.level for e in rows], [e.address for e in rows],
                          _derived_lattice([e.box for e in rows]) or empty,
                          {} if meta is None else meta)

    def _set_columns(self, levels: Sequence[int], addresses: Sequence[str],
                     lattice: tuple[AxisLattice, ...], meta: dict[str, str]) -> None:
        entries = _ListRows(
            len(addresses), partial(_rect_entry, levels, addresses, _box_reader(lattice)))
        super().__init__(entries, meta, levels, addresses, lattice)

    @classmethod
    def _on_lattice(cls, levels: Sequence[int], addresses: Sequence[str],
                    lattice: tuple[AxisLattice, ...], meta: dict[str, str]) -> "RectangleSet":
        """A set over columns already in entry order."""
        rect = cls.__new__(cls)
        rect._set_columns(levels, addresses, lattice, meta)
        return rect

    def _spans(self, kind: str | None, levels: Iterable[int] | None) -> list[range]:
        """Per level (each from the set's lowest to its highest when `levels`
        is None, found by bisection like any other), the index run of its
        entries of `kind` (of any kind when `kind` is None)."""
        if levels is None:
            levels = range(self.levels[0], self.levels[-1] + 1) if self.levels else ()
        spans = []
        for k in levels:
            lo = bisect_left(self.levels, k)
            hi = bisect_right(self.levels, k, lo)
            if kind is not None:  # the addresses "kind:..." sort below "kind;"
                lo, hi = (bisect_left(self.addresses, kind + ":", lo, hi),
                          bisect_left(self.addresses, kind + ";", lo, hi))
            spans.append(range(lo, hi))
        return spans

    def of_kind(self, kind: str, level: int | None = None) -> list[RectEntry]:
        spans = self._spans(kind, None if level is None else [level])
        return [self.entries[i] for span in spans for i in span]

    def _kept_region(self, depth: int) -> tuple[list[range], bool]:
        """The kept region at `depth`, the one rule the raster, the pattern
        scan and the per-level checker read: the index runs of the boxes
        that decide it, and whether they cut it.  A set with cuts keeps the
        root box minus the open interiors of its cuts of levels 1..depth
        (cuts delete open boxes, so their edges stay kept); any other set
        keeps the union of its closed level-`depth` components.  A generated
        member stores no level-0 component: its level 0 is the root box."""
        cuts = self._spans("cut", range(self.max_level() + 1))
        if any(cuts):
            return cuts[1:depth + 1], True
        return self._spans("comp", [depth]), False

    def lattice_of(
        self, kind: str | None = None, levels: Iterable[int] | None = None
    ) -> tuple[AxisLattice, ...]:
        """The lattice columns of the entries of `kind` (any kind if None)
        at `levels` (all levels if None), in entry order, over the set's
        denominators."""
        spans = self._spans(kind, levels)

        def gather(col: Sequence[int]) -> Sequence[int]:
            out = col[:0]
            for span in spans:
                out += col[span.start:span.stop]
            return out

        return tuple(
            AxisLattice(axis.den, gather(axis.centers), gather(axis.halves))
            for axis in self.lattice
        )

    def max_level(self) -> int:
        return self.levels[-1] if self.levels else 0

    # -- CSV ------------------------------------------------------------

    def csv_chunks(self) -> Iterator[str]:
        """The text of to_csv as it is formatted, core.CHUNK_LINES lines to
        a chunk."""
        (x, y), levels = self.lattice, self.levels
        texts, i = {}, 0
        while i < len(levels):    # one text per level, found by bisection
            texts[levels[i]] = str(levels[i])
            i = bisect_right(levels, levels[i], i)
        rows = zip(
            map(texts.__getitem__, levels), self.addresses,
            _ratio_texts(x.den, x.centers), _ratio_texts(y.den, y.centers),
            _ratio_texts(x.den, x.halves), _ratio_texts(y.den, y.halves, "\n"),
        )
        return line_chunks(itertools.chain(
            [f"# {key} = {self.meta[key]}\n" for key in sorted(self.meta)],
            ["level,address,cx,cy,hx,hy\n"],
            map(",".join, rows),
        ))

    def to_csv(self) -> str:
        """Meta lines, the header, then one row per entry, every coordinate
        written p/q in lowest terms: the join of csv_chunks."""
        return "".join(self.csv_chunks())

    # -- PBM (visualization only) ---------------------------------------

    def to_pbm(self, width: int = 256, height: int = 256) -> str:
        """P1 bitmap of the kept region (_kept_region) at the deepest level.

        Pixels are sampled at their centers over [-1,1]^2; 1 = kept (black).
        _grid_hits counts, exactly, the deciding boxes that reach each pixel
        center, reading the spans of the set's own columns that hold them:
        so a center on a cut's edge is kept, and one on a component's edge
        is inside.  An empty set draws the empty union.  A raster over
        gamesim.MAX_AUDIT_CELLS cells raises core.SizeError first, naming
        the longer side.
        """
        import numpy as np

        from .gamesim import MAX_AUDIT_CELLS

        if width < 1 or height < 1:
            raise ValueError("a raster needs at least one pixel per axis")
        side, value = ("width", width) if width >= height else ("height", height)
        check_size(side, value, (height + 1) * (width + 1), "raster cells", MAX_AUDIT_CELLS)
        spans, cut = self._kept_region(self.max_level())
        # pixel (row j from the bottom, column i) is centered at
        # (-1 + (2i + 1)/width, -1 + (2j + 1)/height); the y axis comes first
        origin = (Fraction(1 - height, height), Fraction(1 - width, width))
        step = (Fraction(2, height), Fraction(2, width))
        text = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
        digits = text[:, ::2]   # 1 where no cut holds the center, or a component does
        (np.equal if cut else np.greater)(
            _grid_hits(self.lattice[::-1], origin, step, (0, 0), (0, 0),
                       (height - 1, width - 1), cut, spans)[::-1], 0, out=digits)
        digits += ord("0")
        text[:, -1] = ord("\n")
        return f"P1\n{width} {height}\n" + text.tobytes().decode()


def _ratio_texts(den: int, nums: Sequence[int], end: str = "",
                 whole: bool = False) -> Iterator[str]:
    """The text p/q of every n/den, in lowest terms, then `end`; with
    `whole` a whole number is written as str(Fraction) writes it, without
    "/1".  Each distinct numerator is reduced once."""
    texts = {}
    for n in set(nums):
        g = math.gcd(n, den)
        texts[n] = f"{n // g}{end}" if whole and g == den else f"{n // g}/{den // g}{end}"
    return map(texts.__getitem__, nums)


# ----------------------------------------------------------------- generators


def _rco_slots(spec: RcoSpec, level: int, address: str, seed: int) -> list[tuple[int, int]]:
    """Removal slot indices inside one cell (sub-grid of u^t x v^t slots)."""
    nx, ny = spec.u ** spec.t, spec.v ** spec.t
    rnd = random.Random(f"{seed}|{level}|{address}")
    picked: set[tuple[int, int]] = set()
    while len(picked) < spec.m:
        picked.add((rnd.randrange(nx), rnd.randrange(ny)))
    return sorted(picked)


def generate_rco(
    spec: RcoSpec,
    depth: int,
    placement: Literal["corner", "hash"] = "corner",
    seed: int = 0,
) -> RectangleSet:
    """Exact geometry of one cut-out member down to `depth` levels.

    Emits the level-k cells (kind "cell") and removed boxes (kind "cut") for
    k = 1..depth.  placement="corner" packs the m removals row-major against
    the cell's low corner (the adversarial arrangement for touch counts);
    "hash" draws distinct slots deterministically from `seed`.  Level k
    lives on the lattice with denominators (u^(k+t), v^(k+t)), where a cut
    has half-widths (1, 1) and a cell (u^t, v^t); the set's lattice is that
    of level `depth`.

    No per-box object is built (_cutout_columns): the columns repeat short
    per-level lists, and the addresses are derived from the index on read
    (_CutoutAddresses).  A member over the size limits (_check_boxes), or
    whose denominators would pass MAX_DENOMINATOR_BITS (naming spec.t),
    raises core.SizeError first.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u, v, m, t = spec.u, spec.v, spec.m, spec.t
    _check_boxes("depth", depth, _level_boxes(m + 1, u * v, depth), _lattice_bits(u, v, depth + t))
    _check_denominators("spec.t", t, u, v, depth + t)
    meta = {
        "family": "rco",
        "u": str(u),
        "v": str(v),
        "m": str(m),
        "t": str(t),
        "depth": str(depth),
        "placement": placement,
        "seed": str(seed),
    }
    return RectangleSet._on_lattice(*_cutout_columns(spec, depth, placement, seed), meta)


def _cutout_columns(
    spec: RcoSpec, depth: int, placement: str, seed: int
) -> tuple[array, _CutoutAddresses, tuple[AxisLattice, AxisLattice]]:
    """The level column, the addresses and the lattice of a cut-out member,
    in entry order.

    Entries come out in address order without sorting addresses: a cell
    path "i_j" orders by the text of i and "_", then by the text of j, and
    a cut "i_j/o" by its cell's path, then by the text of o.  So at level k
    a cell's x numerator is that of its row i and its y that of its column
    j, and with corner placement a cut's x depends on (i, o) and its y on
    (j, o): every column is a short list repeated in C (array * n, or
    list * n past int64).  Hash placement draws each cell's slots in a loop.
    Every box lies in [-1, 1]^2, so |center| + half is at most the axis's
    denominator, whose typecode (_typecode) each axis's columns take; the
    level column takes that of `depth`.
    """
    u, v, m, t = spec.u, spec.v, spec.m, spec.t
    ut, vt = u ** t, v ** t
    dx, dy = u ** (depth + t), v ** (depth + t)
    ordinals = sorted(range(m), key=str)
    corner = [(s % ut, s // ut) for s in ordinals]
    col_x, col_y = (partial(array, code) if code else list for code in map(_typecode, (dx, dy)))
    levels, xs, ys, hxs, hys = array(_typecode(depth)), col_x(), col_y(), col_x(), col_y()
    tables = []
    for k in range(1, depth + 1):
        fx, fy = u ** (depth - k), v ** (depth - k)
        rows = sorted(range(u ** k), key="{}_".format)
        cols = sorted(range(v ** k), key=str)
        cx = [((2 * i + 1) * ut - u ** (k + t)) * fx for i in rows]
        cy = [((2 * j + 1) * vt - v ** (k + t)) * fy for j in cols]
        cells = len(rows) * len(cols)
        tables.append((len(levels), list(map(str, rows)), list(map(str, cols))))
        for x in cx:
            xs.extend(col_x([x]) * len(cols))
        ys.extend(col_y(cy) * len(rows))
        if placement == "corner":
            for x in cx:
                xs.extend(col_x([x + (2 * a + 1 - ut) * fx for a, _ in corner]) * len(cols))
            ys.extend(col_y([y + (2 * b + 1 - vt) * fy for y in cy for _, b in corner])
                      * len(rows))
        else:
            for i, x in zip(rows, cx):
                for j, y in zip(cols, cy):
                    slots = _rco_slots(spec, k, f"{i}_{j}", seed)
                    for a, b in map(slots.__getitem__, ordinals):
                        xs.append(x + (2 * a + 1 - ut) * fx)
                        ys.append(y + (2 * b + 1 - vt) * fy)
        levels.extend(array(levels.typecode, [k]) * (cells * (m + 1)))
        hxs.extend(col_x([ut * fx]) * cells)
        hxs.extend(col_x([fx]) * (cells * m))
        hys.extend(col_y([vt * fy]) * cells)
        hys.extend(col_y([fy]) * (cells * m))
    lattice = (AxisLattice(dx, xs, hxs), AxisLattice(dy, ys, hys))
    return levels, _CutoutAddresses(tables, list(map(str, ordinals))), lattice


class _CutoutAddresses(_ListRows):
    """The addresses of a generated cut-out member, derived from the index.

    Per level, `tables` holds the index of its first entry and its rows i
    and columns j as text, each in address order.  Level k's entries are
    its cells "cell:i_j", row by row, then its cuts "cut:i_j/o", cell by
    cell, with the ordinals o in text order.  Indexing (the bisections of
    RectangleSet._spans, and its entries) builds one address; iteration
    (to_csv) builds them a row of cells at a time.
    """

    __slots__ = ("_tables", "_ordinals")

    def __init__(self, tables: list[tuple[int, list[str], list[str]]],
                 ordinals: list[str]) -> None:
        self._tables, self._ordinals = tables, ordinals
        length = sum(len(rows) * len(cols) * (len(ordinals) + 1) for _, rows, cols in tables)
        super().__init__(length, partial(_cutout_address, [start for start, *_ in tables],
                                         tables, ordinals))

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(self._blocks())

    def _blocks(self) -> Iterator[list[str]]:
        for _, rows, cols in self._tables:
            for i in rows:
                head = f"cell:{i}_"
                yield [head + j for j in cols]
            tails = [f"{j}/{o}" for j in cols for o in self._ordinals]
            for i in rows:
                head = f"cut:{i}_"
                yield [head + tail for tail in tails]


def _cutout_address(starts: list[int], tables: list[tuple[int, list[str], list[str]]],
                    ordinals: list[str], index: int) -> str:
    start, rows, cols = tables[bisect_right(starts, index) - 1]
    cell, cells = index - start, len(rows) * len(cols)
    if cell < cells:
        i, j = divmod(cell, len(cols))
        return f"cell:{rows[i]}_{cols[j]}"
    cell, o = divmod(cell - cells, len(ordinals))
    i, j = divmod(cell, len(cols))
    return f"cut:{rows[i]}_{cols[j]}/{ordinals[o]}"


def _rcd_levels(
    spec: RcdSpec, depth: int, named: bool = False
) -> Iterator[tuple[list[str] | None, list[int], list[int], list[tuple[int, int]]]]:
    """The component tree of a corner-digit member, level by level, as columns.

    Yields, for k = 0..depth-1, (addresses, lx, ly, corners) of the level-k
    pieces: the children of each level-k component, components in the order
    of the previous level, children by digit i = s + (tt-1)(u-1) (s = 1..u-1,
    tt = 1..v-1).  A child's address is its parent's plus "/i" and its corner
    (sx, sy) is spec.corner_signs of it; (lx, ly) is its region's center as
    numerators over (u^(k+1) (u-1), v^(k+1) (v-1)).  On that lattice a region
    has half-widths (u, v) and a child (u-1, v-1) centered at (lx + sx, ly + sy).

    The addresses are built only where something reads them: when `named`
    (generate_rcd's names) or under the hash rule, whose corners they seed;
    otherwise addresses is None and every corner is the fixed rule's (1, 1).
    """
    u, v = spec.u, spec.v
    hashed = spec.corner_rule == "hash"
    # per child digit: its address tail and its region's offsets from the
    # scaled center of its parent component
    tails, ox, oy = zip(*[(f"/{s + (tt - 1) * (u - 1)}", (2 * s - u) * u, (2 * tt - v) * v)
                          for tt in range(1, v) for s in range(1, u)])
    # the root as a piece: its child, the level-0 component, is centered on it
    addresses, lx, ly, corners = ["r"] if named or hashed else None, [0], [0], [(0, 0)]
    for _ in range(depth):
        if addresses is not None:
            addresses = [a + tail for a in addresses for tail in tails]
        lx = [c + o for c in [u * (x + sx) for x, (sx, _) in zip(lx, corners)] for o in ox]
        ly = [c + o for c in [v * (y + sy) for y, (_, sy) in zip(ly, corners)] for o in oy]
        corners = list(map(spec.corner_signs, addresses)) if hashed else [(1, 1)] * len(lx)
        yield addresses, lx, ly, corners


def generate_rcd(spec: RcdSpec, depth: int) -> RectangleSet:
    """Exact geometry of one corner-digit member: components of levels 1..depth.

    Level k lives on the lattice with denominators (u^k (u-1), v^k (v-1)),
    where a component has half-widths (u-1, v-1); the set's lattice is that
    of level `depth`.  Each level's kept children come off the walk's
    columns (_rcd_levels), sorted by address, into the set's columns: per
    axis, arrays of the typecode of its denominator (_typecode), which
    bounds every |center| + half of a box in [-1, 1]^2, or lists of Python
    ints past int64; the level column takes the typecode of `depth`.  Over
    the size limits (_check_boxes), or with denominators past
    MAX_DENOMINATOR_BITS, it raises core.SizeError first.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u, v = spec.u, spec.v
    _check_boxes("depth", depth, _level_boxes(1, (u - 1) * (v - 1), depth),
                 _lattice_bits(u, v, depth, u - 1, v - 1))
    _check_denominators("depth", depth, u, v, depth, u - 1, v - 1)
    dx, dy = u ** depth * (u - 1), v ** depth * (v - 1)
    levels, names = array(_typecode(depth)), []
    xs, ys, hxs, hys = (array(code) if code else [] for code in map(_typecode, (dx, dy, dx, dy)))
    for k, (addresses, lx, ly, corners) in enumerate(_rcd_levels(spec, depth, True), start=1):
        fx, fy = u ** (depth - k), v ** (depth - k)
        order = sorted(range(len(addresses)), key=addresses.__getitem__)
        levels.extend(array(levels.typecode, [k]) * len(order))
        names += ["comp:" + addresses[i] for i in order]
        xs.extend([(lx[i] + corners[i][0]) * fx for i in order])
        ys.extend([(ly[i] + corners[i][1]) * fy for i in order])
        hxs.extend([(u - 1) * fx] * len(order))
        hys.extend([(v - 1) * fy] * len(order))
    meta = {
        "family": "rcd",
        "u": str(spec.u),
        "v": str(spec.v),
        "corner_rule": spec.corner_rule,
        "corner_seed": str(spec.corner_seed),
        "depth": str(depth),
    }
    lattice = (AxisLattice(dx, xs, hxs), AxisLattice(dy, ys, hys))
    return RectangleSet._on_lattice(levels, names, lattice, meta)


# ----------------------------------------------------- covering strategies


class StrategyLevel(Record):
    """One response set: boxes of exponent `exponent`, budgeted at rate a_k.

    `preamble` marks a set that precedes any numbered move (the corner-digit
    strategy's level-0 covers; see covering_strategy_for_rcd).  `lattice`
    holds the boxes per axis as integer numerators over their least common
    denominator (AxisLattice; a half-width all its boxes share, stored once).
    The family strategies build a level from its lattice alone
    (on_lattice): `boxes` is then a read-only view, equal to and printed as
    the tuple of its boxes, that builds a BoxRegion only when one is read;
    it does not hash, so neither does the level.
    A level built from boxes keeps them as given and derives its lattice
    from them here.  Like DiagonalContraction's cached log_det the lattice
    is left out of repr and ==.
    """

    __slots__ = ("level", "exponent", "budget_rate_log", "preamble", "boxes", "lattice")
    _fields = __slots__[:-1]

    def __init__(self, level: int, exponent: int, budget_rate_log: float,  # ln(a_k)
                 preamble: bool, boxes: Sequence[BoxRegion],
                 lattice: tuple[AxisLattice, ...] | None = None) -> None:
        super().__init__(level, exponent, budget_rate_log, preamble, boxes,
                         _derived_lattice(boxes, shared=True) if lattice is None else lattice)

    @classmethod
    def on_lattice(cls, level: int, exponent: int, budget_rate_log: float,
                   preamble: bool, lattice: tuple[AxisLattice, ...]) -> "StrategyLevel":
        boxes = _LazyRows(len(lattice[0].centers), _box_reader(lattice))
        return cls(level, exponent, budget_rate_log, preamble, boxes, lattice)


class CoveringStrategy(NamedTuple):
    """A deletion plan certifying a winning tuple for one family member.

    Soundness contract (checked by the gamesim oracles):
      1. completeness — everything the member removes between consecutive
         levels is inside the union of that level's boxes;
      2. budget — any test box A^k(B[0, rho1]) + z touches level-k boxes of
         total mass at most (a_k * prod_j beta_j^k)^c.
    The certified rate is alpha = sup_k a_k.
    """

    params: GameParameters
    kind: str                    # "rco" | "rcd"
    levels: tuple[StrategyLevel, ...]

    def level(self, k: int) -> StrategyLevel | None:
        for lv in self.levels:
            if lv.level == k:
                return lv
        return None


def covering_strategy_for_rco(
    member: RectangleSet, c: float
) -> CoveringStrategy:
    """Deletion plan for a generated cut-out member: delete its own removals.

    Level k (k >= 1, a game move each) deletes the member's level-k removed
    boxes with exponent q = k + t; a test box of level-k cell size touches at
    most 3x3 cells and so at most 9m boxes, which is exactly the budget at
    rate a_k = (9m)^(1/c) (uv)^-t, uniformly in k.

    Level k holds the member's level-k cuts over (u^(k+t), v^(k+t)), its
    denominators without the known factors u^(depth-k), v^(depth-k), in
    columns of the typecode of those denominators; the deepest level, most
    cuts, views the member's own array columns.  Only a member from
    generate_rco has that layout, so any other (one built from the same
    entries too) raises ValueError.
    """
    meta = member.meta
    if meta.get("family") != "rco" or not isinstance(member.addresses, _CutoutAddresses):
        raise ValueError("expected a generated cut-out member")
    u, v, m, t = (int(meta[key]) for key in ("u", "v", "m", "t"))
    spec = RcoSpec(u, v, m, t)
    alpha = rco_alpha(u, v, m, t, c)
    params = GameParameters(alpha, spec.contraction(), c)
    depth, levels = member.max_level(), []
    for k in range(1, depth + 1):
        (span,) = member._spans("cut", [k])
        lattice = []
        for axis, f in zip(member.lattice, (u ** (depth - k), v ** (depth - k))):
            cut, half = slice(span.start, span.stop), [axis.halves[span.start] // f]
            if f == 1 and isinstance(axis.centers, array):
                lattice.append(AxisLattice(axis.den, memoryview(axis.centers).toreadonly()[cut],
                                           array(axis.centers.typecode, half)))
            else:
                lattice.append(_axis_lattice(axis.den // f, [x // f for x in axis.centers[cut]],
                                             half, axis.den // f))
        levels.append(StrategyLevel.on_lattice(k, k + t, alpha.log, False, tuple(lattice)))
    return CoveringStrategy(params, "rco", tuple(levels))


def _tile_axis(lo: int, hi: int, h: int) -> list[int]:
    """Centers of boxes of half-width h covering [lo, hi], flush-trimmed.

    Boxes march from lo; the last is pulled back flush to hi, so every box
    stays inside [lo, hi].  Needs hi - lo >= 2h, which integer cover depths
    always give.
    """
    count = -((lo - hi) // (2 * h))  # ceil((hi - lo) / (2h))
    return [lo + (2 * i + 1) * h for i in range(count - 1)] + [hi - h]


def _cover_piece(
    region_half: tuple[int, int],
    child_half: tuple[int, int],
    signs: tuple[int, int],
    half: tuple[int, int],
) -> list[tuple[int, int]]:
    """Centers of the boxes of half-widths `half` covering region-minus-child.

    All numbers are numerators on one integer lattice.  The region is
    centered at the origin; the child sits flush in its corner `signs`.
    Option 1 runs the x-strip at full region height plus the leftover
    y-strip at child width; option 2 transposes.  The cheaper option wins,
    ties to option 1.
    """
    full, span, strip = [], [], []
    for rh, ch, sign in zip(region_half, child_half, signs):
        center = sign * (rh - ch)
        full.append((-rh, rh))
        span.append((center - ch, center + ch))
        # the region minus the child's span on this axis
        strip.append((-rh, center - ch) if sign > 0 else (center + ch, rh))

    def rect_cover(xr: tuple[int, int], yr: tuple[int, int]) -> list[tuple[int, int]]:
        return [
            (x, y)
            for x in _tile_axis(*xr, half[0])
            for y in _tile_axis(*yr, half[1])
        ]

    opt1 = rect_cover(strip[0], full[1]) + rect_cover(span[0], strip[1])
    opt2 = rect_cover(full[0], strip[1]) + rect_cover(strip[0], span[1])
    return opt1 if len(opt1) <= len(opt2) else opt2


def _level_axis(den: int, starts: Sequence[int], scale: int, offsets: np.ndarray,
                corners: np.ndarray, half: int) -> AxisLattice:
    """One axis of a corner-digit level over `den`, in lowest terms: piece
    p's box b has the center numerator starts[p] scale + offsets[corners[p], b]
    and every box the half-width numerator `half`.  Every |center| + half,
    and every value on the way, is at most 2 den, the bound whose typecode
    (_typecode) the column takes: the final array of that width is filled,
    a corner template at a time, its scaled centers added (in int64, a
    numpy buffer at a time) and divided by its gcd in place, through a
    numpy view; past int64, Python ints go to _axis_lattice."""
    import numpy as np

    code = _typecode(2 * den)
    if code is None:
        column = (np.array(starts, dtype=object) * scale)[:, None] + offsets[corners]
        return _axis_lattice(den, column.ravel().tolist(), [half], 2 * den)
    column = array(code, [0]) * (len(starts) * offsets.shape[1])
    view = np.frombuffer(column, dtype=code).reshape(len(starts), offsets.shape[1])
    for corner, template in enumerate(offsets):
        view[corners == corner] = template
    view += (np.array(starts, dtype=np.int64) * scale)[:, None]
    # the first piece's gcd is a multiple of the column's; a pass of % tells
    # whether they are equal, which spares the slow gcd reduction
    g = math.gcd(den, half, *map(int, view[0]))
    if g > 1 and (view % g).any():
        g = math.gcd(g, int(np.gcd.reduce(view, axis=None)))
    if g > 1:
        view //= g
    return AxisLattice(den // g, column, array(code, [half // g]))


def covering_strategy_for_rcd(
    spec: RcdSpec, c: float, t: int, depth: int
) -> CoveringStrategy:
    """Deletion plan for a corner-digit member down to `depth` levels.

    Level k (k = 0..depth-1) covers, for every level-k component, each
    region-minus-child slab pair with rcd_cover_count(u, v, t) boxes of
    exponent q = k + 1 + t.  A test box of level-k component size touches
    at most 3x3 components, hence at most 9 (u-1)(v-1) rcd_cover_count
    boxes: rate a_k = (9 (u-1)(v-1) count)^(1/c) (uv)^-(1+t) uniformly.

    Level 0 precedes any numbered move (the numbered response at move m is
    the level-m set); the simulator grants its deletions up front and
    accounts for them separately.  Exact cover geometry needs integer t.

    Level k lives on the lattice with denominators (u^q (u-1), v^q (v-1)).
    Its pieces come off the corner-digit walk (_rcd_levels) that
    generate_rcd reads too, as columns of region centers and corners; the
    walk builds their addresses only under the hash rule.  A
    piece's cover is its region's center plus the template of its corner,
    one of four built once.  Each level is built columnwise (_level_axis):
    per axis, its final column is filled with its pieces' corner templates
    and their scaled centers added, in place, and one gcd reduction takes it
    to lowest terms.  The level keeps only those numerators and its one
    half-width per axis, as its lattice (arrays of the typecode of twice
    its denominator, or tuples of Python ints past int64); its boxes are
    read off it on demand.  A strategy over the size limits (_check_boxes),
    its four templates counted, raises core.SizeError before any box is
    built.
    """
    import numpy as np

    if not isinstance(t, int) or t < 1:
        raise ValueError("exact cover geometry requires integer t >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u, v = spec.u, spec.v
    # a template has more than 2^t boxes, so a huge t fails before its count;
    # the four templates and level 0 are built at every depth
    _check_boxes("t", t, 4 * 2 ** min(t, 64))
    count = rcd_cover_count(u, v, t)
    children = (u - 1) * (v - 1)
    _check_boxes("t", t, (4 + children) * count.value)
    _check_boxes("depth", depth, 4 * count.value + _level_boxes(count.value, children, depth),
                 _lattice_bits(u, v, depth + t, u - 1, v - 1))
    alpha = rcd_alpha(u, v, c, t, count)
    params = GameParameters(alpha, spec.contraction(), c)
    ut, vt = u ** t, v ** t
    # the cover of a region minus its child, per corner of the child, as
    # offsets from the region's center: the same on every level's lattice.
    # Row row_of[(sx, sy)] of a template table is corner (sx, sy).
    covers, row_of = [], {}
    for signs in itertools.product((1, -1), repeat=2):
        row_of[signs] = len(covers)
        cover = _cover_piece((u * ut, v * vt), ((u - 1) * ut, (v - 1) * vt), signs, (u - 1, v - 1))
        if len(cover) != count.value:
            raise AssertionError(
                f"cover construction produced {len(cover)} boxes, "
                f"count formula says {count.value}"
            )
        covers.append(cover)
    tx, ty = np.array(covers, dtype=np.int64).transpose(2, 0, 1)  # per axis, corner by box
    levels = []
    for k, (_, lx, ly, corners) in enumerate(_rcd_levels(spec, depth)):
        q = k + 1 + t
        dx, dy = u ** q * (u - 1), v ** q * (v - 1)
        rows = np.fromiter(map(row_of.__getitem__, corners), np.intp, len(corners))
        lattice = (_level_axis(dx, lx, ut, tx, rows, u - 1),
                   _level_axis(dy, ly, vt, ty, rows, v - 1))
        levels.append(StrategyLevel.on_lattice(k, q, alpha.log, k == 0, lattice))
    return CoveringStrategy(params, "rcd", tuple(levels))
