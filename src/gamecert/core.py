"""Core numeric types and parameter records for the box-deletion game.

The game is played on R^n with the sup metric.  One player nests affine
images A^m(B[0, r]) + b_m of a fixed box (A is a diagonal contraction,
r is chosen on the first move inside [rho2, rho1]); the other deletes
boxes A^q(B[0, r]) + y subject to a mass budget: at move m the response
tuples (q_i, y_i) must satisfy

    sum_i (prod_j beta_j^{q_i})^c  <=  (alpha * prod_j beta_j^m)^c

for a fixed exponent c > 0 (for c = 0 a single tuple with
prod_j beta_j^q <= alpha * prod_j beta_j^m is allowed instead).

Everything downstream is phrased in terms of the tuple
(alpha, A, c, rho2, rho1), so that record plus a log-domain scalar type
live here.  Masses like alpha * prod beta^m underflow float64 quickly
(moves in the hundreds), hence the log representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

__all__ = [
    "REL_MARGIN",
    "LogScalar",
    "DiagonalContraction",
    "GameParameters",
    "BoxRegion",
    "FloorResult",
    "validate_params",
    "dominates",
    "combine_alphas",
    "safe_floor_ratio",
    "snap_round",
    "log_rounding_error",
]

Coord = Fraction | float | int

# Relative margin demanded of every strict inequality that a certificate
# relies on: "lhs > rhs" is only accepted when rhs <= lhs * (1 - REL_MARGIN).
REL_MARGIN = 2.0 ** -40

# Snap window for safe_floor_ratio: a ratio below 2^44 within relative 2^-45
# of an integer is treated as that integer before flooring.
_SNAP_INV = 2 ** 45
_SNAP_LIMIT = 2 ** 44

_EXACT_FLOOR_LIMIT = 2.0 ** 53

# Working precision, in bits, of the mpmath enclosure that settles a floor
# the float estimate leaves open.
_SETTLE_PREC = 128


class LogScalar:
    """A nonnegative real carried as its natural log (-inf encodes 0).

    Multiplication, division and powers are exact log-domain operations;
    addition uses log-sum-exp with the inputs sorted descending, which makes
    sums independent of argument order.  Comparisons compare logs.
    """

    __slots__ = ("log",)

    def __init__(self, log: float):
        self.log = float(log)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_value(cls, x: float) -> "LogScalar":
        if x < 0:
            raise ValueError(f"LogScalar represents nonnegative reals, got {x!r}")
        return cls(math.log(x)) if x > 0 else cls(float("-inf"))

    @classmethod
    def zero(cls) -> "LogScalar":
        return cls(float("-inf"))

    @classmethod
    def one(cls) -> "LogScalar":
        return cls(0.0)

    # -- queries -------------------------------------------------------

    @property
    def value(self) -> float:
        """Float value; underflows to 0.0 / overflows to inf silently."""
        if self.log == float("-inf"):
            return 0.0
        try:
            return math.exp(self.log)
        except OverflowError:
            return float("inf")

    def is_zero(self) -> bool:
        return self.log == float("-inf")

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        return LogScalar(self.log + other.log)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        if other.is_zero():
            raise ZeroDivisionError("LogScalar division by zero")
        if self.is_zero():
            return LogScalar.zero()
        return LogScalar(self.log - other.log)

    def __pow__(self, exponent: float) -> "LogScalar":
        if self.is_zero():
            if exponent <= 0:
                raise ValueError("0 ** nonpositive exponent")
            return LogScalar.zero()
        return LogScalar(self.log * exponent)

    @staticmethod
    def sum(terms: Iterable["LogScalar"]) -> "LogScalar":
        """Order-independent log-sum-exp: sort descending, then accumulate."""
        logs = sorted((t.log for t in terms), reverse=True)
        if not logs or logs[0] == float("-inf"):
            return LogScalar.zero()
        top = logs[0]
        acc = 0.0
        for lg in logs:
            acc += math.exp(lg - top)
        return LogScalar(top + math.log(acc))

    # -- comparisons (total order via logs) -----------------------------

    def __lt__(self, other: "LogScalar") -> bool:
        return self.log < other.log

    def __le__(self, other: "LogScalar") -> bool:
        return self.log <= other.log

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogScalar) and self.log == other.log

    def __hash__(self) -> int:
        return hash(("LogScalar", self.log))

    def __repr__(self) -> str:
        return f"LogScalar(log={self.log!r})"


@dataclass(frozen=True)
class DiagonalContraction:
    """Diagonal matrix diag(beta_1, ..., beta_n) with 0 < beta_j < 1.

    When every beta_j is a unit fraction 1/U_j the contraction supports an
    exact-arithmetic mode used by the lattice oracles; `denominators` then
    holds the integers U_j.
    """

    betas: tuple[float, ...]                 # diagonal entries, in (0, 1)
    denominators: tuple[int, ...] | None = None  # U_j when beta_j == 1/U_j exactly

    def __post_init__(self) -> None:
        if not self.betas:
            raise ValueError("contraction needs at least one axis")
        for b in self.betas:
            if not (0.0 < b < 1.0):
                raise ValueError(f"diagonal entries must lie in (0,1), got {b!r}")
        if self.denominators is not None:
            if len(self.denominators) != len(self.betas):
                raise ValueError("denominators length mismatch")
            for u, b in zip(self.denominators, self.betas):
                if u < 2:
                    raise ValueError(f"unit-fraction denominator must be >= 2, got {u}")
                if b != 1.0 / u:
                    raise ValueError(
                        f"beta {b!r} is not the unit fraction 1/{u} it claims to be"
                    )

    @classmethod
    def from_denominators(cls, denominators: Sequence[int]) -> "DiagonalContraction":
        ds = tuple(int(u) for u in denominators)
        return cls(tuple(1.0 / u for u in ds), ds)

    @property
    def n(self) -> int:
        return len(self.betas)

    @property
    def is_exact(self) -> bool:
        return self.denominators is not None

    def exact_betas(self) -> tuple[Fraction, ...]:
        if self.denominators is None:
            raise ValueError("contraction was not built from unit fractions")
        return tuple(Fraction(1, u) for u in self.denominators)

    def log_det(self) -> float:
        """ln(prod_j beta_j)."""
        return sum(math.log(b) for b in self.betas)

    def beta_max(self) -> float:
        return max(self.betas)

    def power_log(self, q: float) -> float:
        """ln(prod_j beta_j^q) for a (possibly fractional) exponent q."""
        return q * self.log_det()


@dataclass(frozen=True)
class GameParameters:
    """Winning tuple (alpha, A, c, rho2, rho1) for the box-deletion game.

    Winning for a set means: the nesting player can force the limit point
    to land in the set no matter how the deleting player spends the alpha
    budget at exponent c, for any first-move radius in [rho2, rho1].
    """

    alpha: LogScalar
    contraction: DiagonalContraction
    c: float
    rho2: float = 1.0
    rho1: float = 1.0

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def n(self) -> int:
        return self.contraction.n


@dataclass(frozen=True)
class BoxRegion:
    """Closed axis-aligned box: {x : |x_j - center_j| <= half_j for all j}.

    Coordinates may be exact Fractions (the oracles insist on it) or floats;
    mixing works because comparisons go through the numeric tower.
    """

    center: tuple[Coord, ...]
    half: tuple[Coord, ...]      # per-axis half-widths, all > 0

    def __post_init__(self) -> None:
        if len(self.center) != len(self.half):
            raise ValueError("center/half dimension mismatch")
        if not self.center:
            raise ValueError("box needs at least one axis")
        for h in self.half:
            if h <= 0:
                raise ValueError(f"half-widths must be positive, got {h!r}")

    @property
    def n(self) -> int:
        return len(self.center)

    def low(self, j: int) -> Coord:
        return self.center[j] - self.half[j]

    def high(self, j: int) -> Coord:
        return self.center[j] + self.half[j]

    def contains_point(self, point: Sequence[Coord]) -> bool:
        return all(
            abs(point[j] - self.center[j]) <= self.half[j] for j in range(self.n)
        )

    def contains_box(self, other: "BoxRegion") -> bool:
        return all(
            abs(other.center[j] - self.center[j]) <= self.half[j] - other.half[j]
            for j in range(self.n)
        )

    def intersects(self, other: "BoxRegion") -> bool:
        """Closed boxes: touching at a face or corner counts."""
        return all(
            abs(other.center[j] - self.center[j]) <= self.half[j] + other.half[j]
            for j in range(self.n)
        )

    def shrink(self, factor: Coord) -> "BoxRegion":
        """Same center, half-widths scaled by `factor` (0 < factor)."""
        return BoxRegion(self.center, tuple(h * factor for h in self.half))

    def translate(self, offset: Sequence[Coord]) -> "BoxRegion":
        return BoxRegion(
            tuple(self.center[j] + offset[j] for j in range(self.n)), self.half
        )

    def diameter_sup(self) -> Coord:
        """Diameter in the sup metric = twice the largest half-width."""
        return 2 * max(self.half)


def validate_params(params: GameParameters) -> None:
    """Raise ValueError unless the tuple is game-legal.

    Game-legal means alpha > 0, c in [0, 1), 0 < rho2 <= rho1.  (c = 0 is a
    legal game; the certifier separately refuses it because its feasibility
    inequalities divide by c.  beta_j < 1/5 is likewise a certifier-side
    restriction, not a game-side one.)
    """
    if params.alpha.is_zero():
        raise ValueError("alpha must be positive")
    if not (0.0 <= params.c < 1.0):
        raise ValueError(f"c must lie in [0,1), got {params.c!r}")
    if not (0.0 < params.rho2 <= params.rho1):
        raise ValueError(
            f"radii must satisfy 0 < rho2 <= rho1, got {params.rho2!r}, {params.rho1!r}"
        )


def dominates(weaker: GameParameters, stronger: GameParameters) -> bool:
    """True if winning at `weaker` implies winning at `stronger`.

    Monotonicity: a win transfers to any larger budget rate alpha' >= alpha,
    any larger exponent c' >= c, and any radius interval contained in the
    original one.  The contraction must be identical.
    """
    if weaker.contraction != stronger.contraction:
        return False
    return (
        stronger.alpha.log >= weaker.alpha.log
        and stronger.c >= weaker.c
        and weaker.rho2 <= stronger.rho2
        and stronger.rho1 <= weaker.rho1
    )


def combine_alphas(alphas: Sequence[LogScalar | float], c: float) -> LogScalar:
    """Budget rate whose game also wins every game in `alphas` simultaneously.

    A player facing k budgets alpha_i at a common exponent c > 0 faces at
    worst one budget of rate (sum_i alpha_i^c)^(1/c): each deletion charged
    to budget i can be charged to the combined budget instead.  Computed as
    a sorted log-sum-exp, so the result is permutation-invariant.
    """
    if c <= 0.0:
        raise ValueError("combining budgets requires a positive exponent c")
    if not alphas:
        raise ValueError("need at least one budget rate")
    terms = []
    for a in alphas:
        s = a if isinstance(a, LogScalar) else LogScalar.from_value(a)
        if s.is_zero():
            raise ValueError("budget rates must be positive")
        terms.append(s ** c)
    return LogScalar.sum(terms) ** (1.0 / c)


@dataclass(frozen=True)
class FloorResult:
    """floor(delta/alpha) with an honesty tag.

    The snapped floor of a quotient q is floor(q), except that a q < 2^44
    within relative 2^-45 below a positive integer is lifted to that
    integer.  Below 2^44 the window stays under half a unit; from 2^44 on
    nothing snaps, so an exact value there is the true floor.

    tag == "exact":        value >= 1 is the snapped floor of the true
                           quotient, which lies below 2^53; an enclosure of
                           the quotient has settled it.
    tag == "approximate":  the quotient is at or above 2^53, or its enclosure
                           straddles a step of the snapped floor; value is a
                           safe lower surrogate (true floor >= value).
    tag == "infeasible":   value = 0: the quotient is below 1 (snapping
                           included), or not shown to reach 1; downstream
                           conditions that need one whole step must fail.
    """

    value: int
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ("exact", "approximate", "infeasible"):
            raise ValueError(f"unknown floor tag {self.tag!r}")
        if self.value < 0:
            raise ValueError("floor surrogate must be nonnegative")

    @property
    def usable(self) -> bool:
        return self.tag != "infeasible"


def snap_round(q: float | Fraction, rounding: Callable[[float | Fraction], int]) -> int:
    """rounding(q) (math.floor or math.ceil), but a q in [1/2, 2^44) within
    relative 2^-45 of an integer snaps to that integer.

    Exact for floats and Fractions alike: q - round(q) is exact for a float
    q >= 1/2, and the window test scales by a power of two.  The window stays
    under half a unit, so snapping is nondecreasing in q, also across 2^44;
    hence it is constant on an interval iff it agrees at both ends.
    """
    nearest = round(q)
    if nearest >= 1 and q < _SNAP_LIMIT and abs(q - nearest) * _SNAP_INV <= q:
        return int(nearest)
    return rounding(q)


def log_rounding_error(x: float, y: float) -> float:
    """Relative error bound of exp(x + y) when x, y and the sum are float64.

    Each of x and y carries at most one ulp, the sum half an ulp and the exp
    one ulp; the bound is four times that, plus an allowance of 2^-47 that
    also covers rounding when the enclosure ends are formed.
    """
    return (abs(x) + abs(y) + 8.0) * 2.0 ** -50


def _exp_enclosure(log: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lower and upper bounds on exp(log), correctly directed."""
    from mpmath import libmp  # only the rare undecided floor needs mpmath

    x = libmp.from_rational(log.numerator, log.denominator, _SETTLE_PREC, libmp.round_floor)
    y = libmp.from_rational(log.numerator, log.denominator, _SETTLE_PREC, libmp.round_ceiling)
    lo = libmp.mpf_exp(x, _SETTLE_PREC, libmp.round_floor)
    hi = libmp.mpf_exp(y, _SETTLE_PREC, libmp.round_ceiling)
    return Fraction(*libmp.to_rational(lo)), Fraction(*libmp.to_rational(hi))


def _enclosed_floor(lo: float | Fraction, hi: float | Fraction) -> FloorResult | None:
    """The snapped floor shared by every quotient in [lo, hi], if hi < 2^53."""
    if hi >= _EXACT_FLOOR_LIMIT:
        return None
    value = math.floor(lo)
    if value != math.floor(hi) or (value + 1 - hi) * _SNAP_INV <= hi:
        # [lo, hi] holds an integer or reaches the snap window below value + 1
        value = snap_round(lo, math.floor)
        if value != snap_round(hi, math.floor):
            return None
    return FloorResult(value, "exact") if value else FloorResult(0, "infeasible")


def _settled_floor(delta: float | LogScalar, alpha: float | LogScalar) -> FloorResult:
    """safe_floor_ratio decided on an exact or rigorously enclosed quotient.

    A float stands for itself and a LogScalar for exp(log); the quotient is
    enclosed as (float part) * exp(log part), the float part exact.
    """
    part, log = Fraction(1), Fraction(0)
    for x, sign in ((delta, 1), (alpha, -1)):
        if isinstance(x, LogScalar):
            log += sign * Fraction(x.log)
        else:
            part *= Fraction(x) ** sign
    lo, hi = (part, part) if log == 0 else tuple(part * e for e in _exp_enclosure(log))
    settled = _enclosed_floor(lo, hi)
    if settled is not None:
        return settled
    return FloorResult(math.floor(lo), "approximate") if lo >= 1 else FloorResult(0, "infeasible")


def safe_floor_ratio(delta: float | LogScalar, alpha: float | LogScalar) -> FloorResult:
    """Snapped floor(delta / alpha), tagged as FloorResult describes.

    A float argument stands for its own value and a LogScalar for exp(log).
    The quotient is estimated in log domain, with the error bound of
    log_rounding_error.  When every quotient in that enclosure has the same
    snapped floor it is the answer (so e.g. delta=0.5, alpha=0.1 floors to
    5, not 4; from 2^44 on nothing snaps); otherwise the floor is settled
    on the exact quotient of two floats, or on a 128-bit mpmath enclosure
    when a LogScalar is involved, and an enclosure that still straddles a
    step gives its floored lower end, tagged approximate.  Estimates
    >= 2^53 cannot be floored exactly in float64; the result is tagged and
    lowered by one as a conservative surrogate.
    """
    d = delta if isinstance(delta, LogScalar) else LogScalar.from_value(delta)
    a = alpha if isinstance(alpha, LogScalar) else LogScalar.from_value(alpha)
    if a.is_zero():
        raise ZeroDivisionError("alpha must be positive")
    if d.is_zero():
        return FloorResult(0, "infeasible")
    ratio_log = d.log - a.log
    if ratio_log >= 53.0 * math.log(2.0):
        # exp(log(d)-log(a)) carries round-trip noise proportional to the
        # magnitude of the logs involved; shave a matching relative margin so
        # the surrogate is a lower bound with room to spare.
        shave = 1.0 - log_rounding_error(d.log, a.log)
        log2_ratio = ratio_log / math.log(2.0)
        if log2_ratio < 1000.0:
            return FloorResult(int(math.exp(ratio_log) * shave) - 1, "approximate")
        # beyond float range: build the integer as mantissa << shift
        shift = int(log2_ratio) - 52
        mantissa = 2.0 ** (log2_ratio - shift)          # in [2^52, 2^53)
        return FloorResult(
            (int(mantissa * shave) << shift) - 1, "approximate"
        )
    ratio = math.exp(ratio_log)
    err = ratio * log_rounding_error(d.log, a.log)
    settled = _enclosed_floor(ratio - err, ratio + err)
    return settled if settled is not None else _settled_floor(delta, alpha)
