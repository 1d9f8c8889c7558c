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
numerators, int64 where they fit):

* a RectangleSet keeps a level column, an address column and one
  AxisLattice per axis over the deepest level's denominators;
* a StrategyLevel keeps one AxisLattice per axis over its least common
  denominator.

Their `entries` and `boxes` are read-only views that build a RectEntry or a
Fraction BoxRegion only when an item is read; they compare, hash and print
like the list and tuple of those items.  The budget audit, the game, the
CSV and raster writers and the pattern scan read the numerators.  A set
built by hand from entries derives its lattice once and reads its entries
back from it, so a float coordinate comes back as the equal exact
Fraction; a level built by hand keeps its boxes as given.  No generator
builds more than MAX_GEOMETRY_BOXES boxes, or more than MAX_GEOMETRY_BITS
numerator bits.  Budget rates are LogScalars.
"""
from __future__ import annotations

import csv
import itertools
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from collections import abc
from fractions import Fraction
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

from .core import (
    EXACT_LIMIT, BoxRegion, DiagonalContraction, GameParameters, LogScalar, Record, _ceil_powers,
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
    "rcd_children",
    "covering_strategy_for_rco",
    "covering_strategy_for_rcd",
    "MAX_GEOMETRY_BOXES",
    "MAX_GEOMETRY_BITS",
    "GeometrySizeError",
]

# Most boxes one generated member or covering strategy may hold, counted
# before anything is allocated.  RCO(4,5,2,1) at depth 5 has 10,105,260;
# the RCD(7,4) strategy at t = 1 and depth 4 has 2,889,900 and 4 templates.
MAX_GEOMETRY_BOXES = 2 ** 26
# Most numerator bits one of them may hold, counted as its boxes times a
# bound on the bits of its deepest level's two denominators, since the
# numerators grow with the depth.  RCO(4,5,2,1) at depth 5 counts
# 10,105,260 * 32 and the RCD(7,4) strategy above 2,890,004 * 30; RCD(2,2)
# at depth d counts d * 2 (d + 1), so its depth stops at 16,383.
MAX_GEOMETRY_BITS = 2 ** 29


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
        if m > (u ** t) * (v ** t):
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
        """(+-1, +-1): which corner of its region the child at `address` takes."""
        if self.corner_rule == "fixed":
            return (1, 1)
        rnd = random.Random(f"{self.corner_seed}|{address}")
        bits = rnd.randrange(4)
        return (1 if bits & 1 else -1, 1 if bits & 2 else -1)


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


class GeometrySizeError(ValueError):
    """More than MAX_GEOMETRY_BOXES boxes or MAX_GEOMETRY_BITS numerator
    bits; `arg` ("depth" or "t") names the cause."""

    def __init__(self, arg: str, value: int, limit: str) -> None:
        super().__init__(f"{arg} = {value} needs more than {limit}")
        self.arg = arg


def _check_size(arg: str, value: int, boxes: int, bits: int = 0) -> None:
    """Refuse more than MAX_GEOMETRY_BOXES boxes, or `boxes` boxes of `bits`
    numerator bits each past MAX_GEOMETRY_BITS."""
    if boxes > MAX_GEOMETRY_BOXES:
        raise GeometrySizeError(arg, value, f"{MAX_GEOMETRY_BOXES} boxes")
    if boxes * bits > MAX_GEOMETRY_BITS:
        raise GeometrySizeError(arg, value, f"{MAX_GEOMETRY_BITS} numerator bits")


def _lattice_bits(u: int, v: int, q: int, fx: int = 1, fy: int = 1) -> int:
    """A bound on the bits of the denominators (u^q fx, v^q fy), read without
    computing them: u <= 2^b for b = (u - 1).bit_length(), so u^q fx has at
    most q b + fx.bit_length() bits."""
    return q * ((u - 1).bit_length() + (v - 1).bit_length()) + fx.bit_length() + fy.bit_length()


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

    Box i has center centers[i] / den and half-width halves[i] / den.  The
    numerators are an array('q') of int64 when all of them fit, else a
    tuple (or, in a generated rectangle set, a list) of Python ints.  A
    strategy level's den is the least common denominator of its axis.
    """

    den: int
    centers: Sequence[int]
    halves: Sequence[int]


def _axis_lattice(
    den: int, centers: Sequence[int], halves: Sequence[int]
) -> AxisLattice:
    """The AxisLattice of numerators over `den`, in lowest terms.  int64
    columns stay int64 (dividing cannot overflow them); Python ints are
    stored as int64 when they all fit."""
    g = math.gcd(den, *set(centers), *set(halves))
    if g > 1:
        den //= g
        centers, halves = (
            array("q", [x // g for x in col]) if isinstance(col, array) else [x // g for x in col]
            for col in (centers, halves)
        )
    if isinstance(centers, array) and isinstance(halves, array):
        return AxisLattice(den, centers, halves)
    try:
        return AxisLattice(den, array("q", centers), array("q", halves))
    except OverflowError:
        return AxisLattice(den, tuple(centers), tuple(halves))


def _level_axis(den: int, centers: np.ndarray, half: int) -> AxisLattice:
    """The AxisLattice of a numpy column of center numerators over `den`,
    every box with half-width numerator `half`, in lowest terms: one
    np.gcd.reduce finds the common factor.  The columns are array('q')
    when every reduced numerator fits int64, else tuples of Python ints,
    as _axis_lattice stores them."""
    import numpy as np

    g = math.gcd(den, half, int(np.gcd.reduce(centers)))
    den, half, centers = den // g, half // g, centers // g
    try:
        column = array("q", centers.astype(np.int64).tobytes())
    except OverflowError:
        return AxisLattice(den, tuple(centers.tolist()), (half,) * centers.size)
    return AxisLattice(den, column, array("q", [half]) * centers.size)


def _derived_lattice(boxes: Sequence[BoxRegion]) -> tuple[AxisLattice, ...]:
    """Per axis, the boxes' coordinates over their least common denominator.

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
        axes.append(_axis_lattice(den, nums[:len(boxes)], nums[len(boxes):]))
    return tuple(axes)


def _box_reader(lattice: tuple[AxisLattice, ...]) -> Callable[[int], BoxRegion]:
    """Box i of a lattice, as Fractions in lowest terms.  A run of boxes
    has few distinct half-widths (a strategy level one per axis), so each
    half-width Fraction is built once and shared by the boxes that have it."""
    halves = [cache(partial(Fraction, denominator=axis.den)) for axis in lattice]

    def box(i: int) -> BoxRegion:
        return BoxRegion(
            tuple(Fraction(axis.centers[i], axis.den) for axis in lattice),
            tuple(half(axis.halves[i]) for axis, half in zip(lattice, halves)),
        )

    return box


# Numerators below this magnitude go to int64: a sum of eight of them still fits.
_INT64_SAFE = 2 ** 60


def _on_one_lattice(
    axis: AxisLattice, extras: Sequence[Fraction | int | float]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(centers, halves, extra numerators): one axis of a run of boxes and a
    few more rationals (a float counts as the exact binary fraction it
    holds), all over their least common denominator.

    The numerators stay int64 when the axis stores them so and every scaled
    magnitude, the extras' included, is below 2^60; that is checked on the
    unscaled maximum before anything is multiplied.  Otherwise they become
    Python integers in object arrays.
    """
    import numpy as np

    extras = [Fraction(x) for x in extras]
    den = math.lcm(axis.den, *(x.denominator for x in extras))
    scale = den // axis.den
    nums = [x.numerator * (den // x.denominator) for x in extras]
    columns = (axis.centers, axis.halves)
    if isinstance(axis.centers, array) and isinstance(axis.halves, array):
        centers, halves = (np.frombuffer(col, dtype=np.int64) for col in columns)
        top = max(-int(centers.min(initial=0)), int(centers.max(initial=0)),
                  int(halves.max(initial=0)))
        if top * scale < _INT64_SAFE and all(abs(x) < _INT64_SAFE for x in nums):
            return centers * scale, halves * scale, nums
    centers, halves = (np.array(col, dtype=object) * scale for col in columns)
    return centers, halves, nums


def _cover_counts(
    shape: tuple[int, ...], starts: Sequence[np.ndarray], stops: Sequence[np.ndarray]
) -> np.ndarray:
    """Per cell of a grid of `shape`, how many boxes cover it, where box b
    covers the cells [starts[j][b], stops[j][b]) on axis j (intp index
    arrays, every range nonempty and inside the grid).

    Each box adds +-1 at the corners of its range in a difference array,
    whose prefix sums, taken in place, are the counts.
    """
    import numpy as np

    diff = np.zeros(tuple(s + 1 for s in shape), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=len(shape)):
        index = tuple(stops[j] if up else starts[j] for j, up in enumerate(corner))
        np.add.at(diff, index, -1 if sum(corner) % 2 else 1)
    for axis in range(len(shape)):
        np.cumsum(diff, axis=axis, out=diff)
    return diff[(slice(0, -1),) * len(shape)]


def _to_floats(den: int, nums: Sequence[int]) -> np.ndarray:
    """float(Fraction(n, den)) for every numerator n, correctly rounded.

    Below 2^53 numerator and den convert to floats exactly, so one float
    division rounds correctly; otherwise Python's int division does.
    """
    import numpy as np

    limit = int(EXACT_LIMIT)      # numpy compares int64 with an int faster
    if isinstance(nums, array) and den < limit:
        ints = np.frombuffer(nums, dtype=np.int64)
        if not ints.size or -limit < ints.min() and ints.max() < limit:
            return ints.astype(np.float64) / den
    return np.array([n / den for n in nums], dtype=np.float64)


class _LazyRows(abc.Sequence):
    """A read-only sequence whose items are built only when read.

    Its length, items, iteration, repr and == are those of the tuple (or,
    in a subclass, the list) of its items; a slice is a plain list.
    """

    __slots__ = ("_len", "_item")
    _like: type = tuple

    def __init__(self, length: int, item: Callable[[int], object]) -> None:
        self._len, self._item = length, item

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        rows = range(self._len)[index]  # normalizes the index or raises IndexError
        return [self._item(i) for i in rows] if isinstance(index, slice) else self._item(rows)

    def __iter__(self) -> Iterator:
        return map(self._item, range(self._len))

    def __repr__(self) -> str:
        return repr(self._like(self))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazyRows) and other._like is self._like \
                or isinstance(other, self._like):
            return list(self) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


class _ListRows(_LazyRows):
    """A _LazyRows that compares and prints like a list, and is unhashable."""

    __slots__ = ()
    _like = list
    __hash__ = None  # type: ignore[assignment]


# ----------------------------------------------------------- rectangle sets


class RectEntry(NamedTuple):
    level: int
    address: str        # "kind:path", kind in {cell, cut, comp, cover}
    box: BoxRegion

    @property
    def kind(self) -> str:
        return self.address.split(":", 1)[0]


def _rect_entry(levels: Sequence[int], addresses: Sequence[str],
                box: Callable[[int], BoxRegion], i: int) -> RectEntry:
    return RectEntry(levels[i], addresses[i], box(i))


class RectangleSet(Record):
    """A finite collection of labelled planar boxes, CSV/PBM serializable.

    Entries are ordered by level, then address, and stored as columns: the
    levels, the addresses ("kind:path") and, per axis, an AxisLattice of
    center and half-width numerators over one denominator for the whole
    set.  The generators fill the columns directly; a set built from
    entries (by hand or by from_csv) derives them once.  Either way
    `entries` is a read-only view that builds a RectEntry, with exact
    Fraction coordinates, only when one is read.

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
        empty = (AxisLattice(1, array("q"), array("q")),) * 2
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
        """Per level (every level when `levels` is None), the index run of
        its entries of `kind` (of any kind when `kind` is None)."""
        if levels is None:
            levels = dict.fromkeys(self.levels)
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

    @staticmethod
    def _parse(s: str) -> Fraction | float:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return float(s)

    def to_csv(self) -> str:
        """Meta lines, the header, then one row per entry, every coordinate
        written p/q in lowest terms."""
        out = [f"# {key} = {self.meta[key]}\n" for key in sorted(self.meta)]
        out.append("level,address,cx,cy,hx,hy\n")
        (x, y) = self.lattice
        rows = zip(
            self.levels, self.addresses,
            _ratio_texts(x.den, x.centers), _ratio_texts(y.den, y.centers),
            _ratio_texts(x.den, x.halves), _ratio_texts(y.den, y.halves),
        )
        out.extend(f"{a},{b},{c},{d},{e},{f}\n" for a, b, c, d, e, f in rows)
        return "".join(out)

    @classmethod
    def from_csv(cls, text: str) -> "RectangleSet":
        meta: dict[str, str] = {}
        rows: list[str] = []
        for line in text.splitlines():
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    meta[key.strip()] = val.strip()
            elif line.strip():
                rows.append(line)
        if not rows or rows[0] != "level,address,cx,cy,hx,hy":
            raise ValueError("missing rectangle-set CSV header")
        entries = []
        for row in csv.reader(rows[1:]):
            level, address, cx, cy, hx, hy = row
            entries.append(
                RectEntry(
                    int(level),
                    address,
                    BoxRegion(
                        (cls._parse(cx), cls._parse(cy)),
                        (cls._parse(hx), cls._parse(hy)),
                    ),
                )
            )
        return cls(entries, meta)

    # -- PBM (visualization only; float arithmetic) ----------------------

    def to_pbm(self, width: int = 256, height: int = 256) -> str:
        """P1 bitmap of the kept region at the deepest generated level.

        Cut-out sets render as the root box minus all removed boxes;
        corner-digit sets (and empty sets) as the union of the deepest
        components.  Pixels are sampled at their centers over [-1,1]^2;
        1 = kept (black).  A pixel is in a box when |x - cx| <= hx and
        |y - cy| <= hy in floats, with each coordinate the float nearest
        its exact value; x - cx is monotone along a row, so each test holds
        on one run of columns (rows likewise), found for all boxes at once,
        and a box paints one rectangle.
        """
        import numpy as np

        if width < 1 or height < 1:
            raise ValueError("a raster needs at least one pixel per axis")
        xs = np.linspace(-1 + 1 / width, 1 - 1 / width, width)
        ys = np.linspace(1 - 1 / height, -1 + 1 / height, height)
        boxes = self.lattice_of("cut")
        cuts = len(boxes[0].centers) > 0
        if not cuts:
            boxes = self.lattice_of("comp", [self.max_level()])
        (cx, hx), (cy, hy) = (
            (_to_floats(axis.den, axis.centers), _to_floats(axis.den, axis.halves))
            for axis in boxes
        )
        # ys falls down the rows; negated, it rises, and the test is unchanged
        (c0, c1), (r0, r1) = _float_runs(xs, cx, hx), _float_runs(-ys, -cy, hy)
        some = (c0 < c1) & (r0 < r1)
        covered = _cover_counts((height, width), (r0[some], c0[some]), (r1[some], c1[some])) > 0
        keep = ~covered if cuts else covered
        text = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
        text[:, ::2] = keep + ord("0")
        text[:, -1] = ord("\n")
        return f"P1\n{width} {height}\n" + text.tobytes().decode()


def _ratio_texts(den: int, nums: Sequence[int]) -> Iterator[str]:
    """The text p/q of every n/den, in lowest terms; each distinct
    numerator is reduced once."""
    texts = {}
    for n in set(nums):
        g = math.gcd(n, den)
        texts[n] = f"{n // g}/{den // g}"
    return map(texts.__getitem__, nums)


def _float_runs(
    grid: np.ndarray, centers: np.ndarray, halves: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per box, the run [start, stop) of the i with |grid[i] - c| <= h in
    floats, for a rising grid.

    grid[i] - c rises with i, so both ends are thresholds.  A binary search
    on c -+ h finds each to within rounding; steps of one index then settle
    it on the float test itself.
    """
    import numpy as np

    last = len(grid) - 1

    def settle(index: np.ndarray, holds: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        # the least i where holds(grid[i] - c), which is false and then true
        while True:
            back = (index > 0) & holds(grid[np.maximum(index - 1, 0)] - centers)
            ahead = (index <= last) & ~holds(grid[np.minimum(index, last)] - centers)
            if not (back.any() or ahead.any()):
                return index
            index = index - back + ahead

    start = settle(np.searchsorted(grid, centers - halves), lambda d: d >= -halves)
    stop = settle(np.searchsorted(grid, centers + halves, side="right"), lambda d: d > halves)
    return start, stop


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

    Entries come out in address order without sorting addresses: a cell
    path "i_j" orders by the text of i and "_", then by the text of j, and
    a cut "i_j/o" by its cell's path, then by the text of o.  A member over
    the size limits (_check_size) raises GeometrySizeError first.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u, v, m, t = spec.u, spec.v, spec.m, spec.t
    _check_size("depth", depth, _level_boxes(m + 1, u * v, depth), _lattice_bits(u, v, depth + t))
    ut, vt = u ** t, v ** t
    corner_slots = [(s % ut, s // ut) for s in range(m)]
    ordinals = sorted(range(m), key=str)

    def blocks() -> Iterator[tuple]:
        for k in range(1, depth + 1):
            fx, fy = u ** (depth - k), v ** (depth - k)
            cx = {i: ((2 * i + 1) * ut - u ** (k + t)) * fx for i in range(u ** k)}
            cy = {j: ((2 * j + 1) * vt - v ** (k + t)) * fy for j in range(v ** k)}
            cells = [(i, j) for i in sorted(cx, key=lambda i: f"{i}_") for j in sorted(cy, key=str)]
            paths = [f"{i}_{j}" for i, j in cells]
            yield (k, ["cell:" + path for path in paths], [cx[i] for i, _ in cells],
                   [cy[j] for _, j in cells], ut * fx, vt * fy)
            if placement == "corner":
                slots = [corner_slots] * len(cells)
            else:
                slots = [_rco_slots(spec, k, path, seed) for path in paths]
            cuts = [
                (cx[i] + (2 * a + 1 - ut) * fx, cy[j] + (2 * b + 1 - vt) * fy)
                for (i, j), slot in zip(cells, slots)
                for a, b in map(slot.__getitem__, ordinals)
            ]
            yield (k, [f"cut:{path}/{o}" for path in paths for o in ordinals],
                   [x for x, _ in cuts], [y for _, y in cuts], fx, fy)

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
    return _rect_set(u ** (depth + t), v ** (depth + t), blocks(), meta)


def _rect_set(dx: int, dy: int, blocks: Iterable[tuple], meta: dict[str, str]) -> RectangleSet:
    """A generated RectangleSet over the denominators (dx, dy), from blocks
    (level, addresses, x numerators, y numerators, half x, half y) in entry
    order; a block's boxes share their half-widths."""
    levels, addresses = array("q"), []
    # int64 columns where the denominators fit, Python ints otherwise
    xs, ys, hxs, hys = (array("q") if den < 2 ** 63 else [] for den in (dx, dy, dx, dy))
    for k, names, bx, by, hx, hy in blocks:
        levels.extend([k] * len(names))
        addresses += names
        xs.extend(bx)
        ys.extend(by)
        hxs.extend([hx] * len(names))
        hys.extend([hy] * len(names))
    lattice = (AxisLattice(dx, xs, hxs), AxisLattice(dy, ys, hys))
    return RectangleSet._on_lattice(levels, addresses, lattice, meta)


def _rcd_pieces(
    spec: RcdSpec, address: str, cx: int | Fraction, cy: int | Fraction
) -> Iterator[tuple[int, str, int | Fraction, int | Fraction, tuple[int, int]]]:
    """The (u-1)(v-1) children of one component, on integer lattices.

    (cx, cy) is the component's center as numerators over (u^k (u-1),
    v^k (v-1)).  Yields (digit, child address, lx, ly, (sx, sy)): the center
    of region L_digit as numerators over (u^(k+1) (u-1), v^(k+1) (v-1)) and
    the corner the kept child takes.  On that lattice a region has
    half-widths (u, v), a child (u-1, v-1), and the child's center is
    (lx + sx, ly + sy).
    """
    u, v = spec.u, spec.v
    for tt in range(1, v):
        ly = v * cy + (2 * tt - v) * v
        for s in range(1, u):
            digit = s + (tt - 1) * (u - 1)
            child = f"{address}/{digit}"
            yield digit, child, u * cx + (2 * s - u) * u, ly, spec.corner_signs(child)


def _rcd_walk(spec: RcdSpec, depth: int) -> Iterator[list[tuple[str, int, int, int, int]]]:
    """The component tree of a corner-digit member, level by level.

    Yields, for k = 0..depth-1, the level-k pieces as (child address, lx,
    ly, sx, sy) in the order of _rcd_pieces, parents in the order of the
    previous level.
    """
    frontier = [("r", 0, 0)]
    for _ in range(depth):
        pieces = [
            (child, lx, ly, sx, sy)
            for address, cx, cy in frontier
            for _, child, lx, ly, (sx, sy) in _rcd_pieces(spec, address, cx, cy)
        ]
        yield pieces
        frontier = [(child, lx + sx, ly + sy) for child, lx, ly, sx, sy in pieces]


def rcd_children(
    spec: RcdSpec, level: int, address: str, component: BoxRegion
) -> list[tuple[int, BoxRegion, BoxRegion]]:
    """(digit, region L_i, kept child box) for one level-`level` component.

    Children are indexed i = s + (tt-1)(u-1), s = 1..u-1, tt = 1..v-1; region
    centers sit at component_center + ((2s-u)/(u^level (u-1)),
    (2tt-v)/(v^level (v-1))) with half-widths (1/(u^level (u-1)),
    1/(v^level (v-1))); the child box (half-widths (u^-(level+1), v^-(level+1)))
    is flush in the corner chosen by the member's corner rule.
    """
    u, v = spec.u, spec.v
    cx = Fraction(component.center[0]) * (u ** level * (u - 1))
    cy = Fraction(component.center[1]) * (v ** level * (v - 1))
    dx, dy = u ** (level + 1) * (u - 1), v ** (level + 1) * (v - 1)
    region_half = (Fraction(u, dx), Fraction(v, dy))
    child_half = (Fraction(u - 1, dx), Fraction(v - 1, dy))
    return [
        (
            digit,
            BoxRegion((Fraction(lx, dx), Fraction(ly, dy)), region_half),
            BoxRegion((Fraction(lx + sx, dx), Fraction(ly + sy, dy)), child_half),
        )
        for digit, _, lx, ly, (sx, sy) in _rcd_pieces(spec, address, cx, cy)
    ]


def generate_rcd(spec: RcdSpec, depth: int) -> RectangleSet:
    """Exact geometry of one corner-digit member: components of levels 1..depth.

    Level k lives on the lattice with denominators (u^k (u-1), v^k (v-1)),
    where a component has half-widths (u-1, v-1); the set's lattice is that
    of level `depth`.  Over the size limits (_check_size) it raises
    GeometrySizeError first.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u, v = spec.u, spec.v
    _check_size("depth", depth, _level_boxes(1, (u - 1) * (v - 1), depth),
                _lattice_bits(u, v, depth, u - 1, v - 1))

    def blocks() -> Iterator[tuple]:
        for k, pieces in enumerate(_rcd_walk(spec, depth), start=1):
            fx, fy = u ** (depth - k), v ** (depth - k)
            comps = sorted(pieces)  # by address
            yield (k, ["comp:" + child for child, *_ in comps],
                   [(lx + sx) * fx for _, lx, _, sx, _ in comps],
                   [(ly + sy) * fy for _, _, ly, _, sy in comps], (u - 1) * fx, (v - 1) * fy)

    meta = {
        "family": "rcd",
        "u": str(spec.u),
        "v": str(spec.v),
        "corner_rule": spec.corner_rule,
        "corner_seed": str(spec.corner_seed),
        "depth": str(depth),
    }
    return _rect_set(u ** depth * (u - 1), v ** depth * (v - 1), blocks(), meta)


# ----------------------------------------------------- covering strategies


class StrategyLevel(Record):
    """One response set: boxes of exponent `exponent`, budgeted at rate a_k.

    `preamble` marks a set that precedes any numbered move (the corner-digit
    strategy's level-0 covers; see covering_strategy_for_rcd).  `lattice`
    holds the boxes per axis as integer numerators over their least common
    denominator (AxisLattice).  The family strategies build a level from
    its lattice alone (on_lattice): `boxes` is then a read-only view, equal
    to and printed as the tuple of its boxes, that builds a BoxRegion only
    when one is read.  A level built from boxes keeps them as given and
    derives its lattice from them here.  Like DiagonalContraction's cached
    log_det the lattice is left out of repr and ==.
    """

    __slots__ = ("level", "exponent", "budget_rate_log", "preamble", "boxes", "lattice")
    _fields = __slots__[:-1]

    def __init__(self, level: int, exponent: int, budget_rate_log: float,  # ln(a_k)
                 preamble: bool, boxes: Sequence[BoxRegion],
                 lattice: tuple[AxisLattice, ...] | None = None) -> None:
        super().__init__(level, exponent, budget_rate_log, preamble, boxes,
                         _derived_lattice(boxes) if lattice is None else lattice)

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
    """
    meta = member.meta
    if meta.get("family") != "rco":
        raise ValueError("expected a generated cut-out member")
    u, v, m, t = (int(meta[key]) for key in ("u", "v", "m", "t"))
    spec = RcoSpec(u, v, m, t)
    alpha = rco_alpha(u, v, m, t, c)
    params = GameParameters(alpha, spec.contraction(), c)
    levels = tuple(
        StrategyLevel.on_lattice(k, k + t, alpha.log, False, tuple(
            _axis_lattice(axis.den, axis.centers, axis.halves)
            for axis in member.lattice_of("cut", [k])
        ))
        for k in range(1, member.max_level() + 1)
    )
    return CoveringStrategy(params, "rco", levels)


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


def _template_column(
    den: int, starts: Sequence[int], scale: int, offsets: np.ndarray, corners: np.ndarray
) -> np.ndarray:
    """One axis of a corner-digit level's cover numerators over `den`:
    piece p's box b is starts[p] * scale + offsets[corners[p], b], piece
    by piece.  Every value is at most 2 den in magnitude, so the column is
    int64 when den is below _INT64_SAFE and Python ints otherwise."""
    import numpy as np

    dtype = np.int64 if den < _INT64_SAFE else object
    return ((np.array(starts, dtype=dtype) * scale)[:, None] + offsets[corners]).ravel()


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
    A piece's cover is its region's center plus one of four corner
    templates, built once.  Each level is built columnwise: per axis, one
    numpy step adds every piece's scaled center to its corner's template
    row, and one gcd reduction takes the column to lowest terms.  The
    level keeps only those numerators, as its lattice (array('q') columns,
    or tuples of Python ints past int64); its boxes are read off it on
    demand.  A strategy over the size limits (_check_size), its four
    templates counted, raises GeometrySizeError before any box is built.
    """
    import numpy as np

    if not isinstance(t, int) or t < 1:
        raise ValueError("exact cover geometry requires integer t >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u, v = spec.u, spec.v
    # a template has more than 2^t boxes, so a huge t fails before its count;
    # the four templates and level 0 are built at every depth
    _check_size("t", t, 4 * 2 ** min(t, 64))
    count = rcd_cover_count(u, v, t)
    children = (u - 1) * (v - 1)
    _check_size("t", t, (4 + children) * count.value)
    _check_size("depth", depth, 4 * count.value + _level_boxes(count.value, children, depth),
                _lattice_bits(u, v, depth + t, u - 1, v - 1))
    alpha = rcd_alpha(u, v, c, t, count)
    params = GameParameters(alpha, spec.contraction(), c)
    ut, vt = u ** t, v ** t
    # the cover of a region minus its child, per corner of the child, as
    # offsets from the region's center: the same on every level's lattice.
    # Row 2 (sx < 0) + (sy < 0) of a template table is corner (sx, sy).
    tx, ty = [], []
    for signs in itertools.product((1, -1), repeat=2):
        cover = _cover_piece((u * ut, v * vt), ((u - 1) * ut, (v - 1) * vt), signs, (u - 1, v - 1))
        if len(cover) != count.value:
            raise AssertionError(
                f"cover construction produced {len(cover)} boxes, "
                f"count formula says {count.value}"
            )
        tx.append([x for x, _ in cover])
        ty.append([y for _, y in cover])
    tx, ty = np.array(tx, dtype=np.int64), np.array(ty, dtype=np.int64)
    levels = []
    for k, pieces in enumerate(_rcd_walk(spec, depth)):
        q = k + 1 + t
        dx, dy = u ** q * (u - 1), v ** q * (v - 1)
        _, lx, ly, sx, sy = zip(*pieces)
        corners = 2 * (np.array(sx) < 0) + (np.array(sy) < 0)
        xs = _template_column(dx, lx, ut, tx, corners)
        ys = _template_column(dy, ly, vt, ty, corners)
        lattice = (_level_axis(dx, xs, u - 1), _level_axis(dy, ys, v - 1))
        levels.append(StrategyLevel.on_lattice(k, q, alpha.log, k == 0, lattice))
    return CoveringStrategy(params, "rcd", tuple(levels))
