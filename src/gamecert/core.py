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

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "REL_MARGIN",
    "EXACT_LIMIT",
    "EXACT_LOG_LIMIT",
    "SizeError",
    "check_size",
    "CHUNK_LINES",
    "line_chunks",
    "LogScalar",
    "DiagonalContraction",
    "GameParameters",
    "BoxRegion",
    "FloorResult",
    "validate_params",
    "dominates",
    "combine_alphas",
    "combine_logs",
    "safe_floor_ratio",
    "log_rounding_error",
]

Coord = Fraction | float | int

# Relative margin demanded of every strict inequality that a certificate
# relies on: "lhs > rhs" is only accepted when rhs <= lhs * (1 - REL_MARGIN).
REL_MARGIN = 2.0 ** -40

# Integers below 2^53 are floats exactly; a floor or ceiling stated at or
# above it is approximate.  A cover count's float step settles below 2^50.
EXACT_LIMIT = 2.0 ** 53
EXACT_LOG_LIMIT = math.log(EXACT_LIMIT)       # 53 ln 2, bit for bit
_CEIL_LIMIT = 2.0 ** 50
_CEIL_LOG_LIMIT = math.log(_CEIL_LIMIT)

# Working precision, in bits, of the mpmath enclosure that settles a floor
# the float step leaves open.
_SETTLE_PREC = 128


class SizeError(OverflowError):
    """An input over a size limit; `arg` names the input: the last part of
    its config key, or a field of an argument (spec.t, a family's t)."""

    def __init__(self, arg: str, message: str) -> None:
        super().__init__(message)
        self.arg = arg


def check_size(arg: str, value: object, need: int, what: str, limit: int) -> None:
    """Refuse input `arg` = `value` where it needs more than `limit` of `what`."""
    if need > limit:
        try:
            message = f"{arg} = {value} needs {need} {what}, over the limit of {limit}"
        except ValueError:  # a number past Python's int-to-str digit limit
            message = f"{arg} needs more {what} than the limit of {limit}"
        raise SizeError(arg, message)


# Most lines in one chunk of an artifact's text stream (RectangleSet.csv_chunks,
# patterns.candidates_csv_chunks, PlayTranscript.text_chunks): about 2 MB of
# rectangle rows, so a writer holds a chunk, never the whole text.
CHUNK_LINES = 2 ** 15


def line_chunks(lines: Iterable[str]) -> Iterator[str]:
    """The lines, each ending in a newline, joined CHUNK_LINES at a time."""
    lines = iter(lines)
    while chunk := "".join(itertools.islice(lines, CHUNK_LINES)):
        yield chunk


class LogScalar:
    """A nonnegative real carried as its natural log (-inf encodes 0).

    Multiplication, division and powers are exact log-domain operations;
    addition uses log-sum-exp with the inputs sorted descending, which makes
    sums independent of argument order.  Comparisons compare logs.  Not a
    Record: the search builds one per probe, so it keeps this plain __init__.
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
        return LogScalar(log_sum_exp(t.log for t in terms))

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


def log_sum_exp(logs: Iterable[float]) -> float:
    """ln(sum_i exp(logs_i)) as LogScalar.sum takes it: the logs sorted
    descending, then accumulated, so the sum is independent of their order."""
    logs = sorted(logs, reverse=True)
    if not logs or logs[0] == float("-inf"):
        return float("-inf")
    top = logs[0]
    acc = 0.0
    for lg in logs:
        acc += math.exp(lg - top)
    return top + math.log(acc)


_set = object.__setattr__


class Record:
    """Base of the frozen records whose constructor checks its input or fills
    in a default; a record that does neither is a typing.NamedTuple.  All
    records are one of the two, except LogScalar and optimize's dataclasses.

    A subclass names its fields in `_fields`, in constructor order, and its
    slots in `__slots__`: the fields, then any value cached from them.
    Record.__init__ stores the slots in that order (where construction is
    hot, object.__setattr__ does).  Repr, == and hash are a frozen
    dataclass's and leave a cached value out: the class name with each
    field, equality field by field with an instance of the same class, and
    the hash of the tuple of fields.  Assigning or deleting an attribute
    raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DiagonalContraction(Record):
    """Diagonal matrix diag(beta_1, ..., beta_n) with 0 < beta_j < 1.

    When every beta_j is a unit fraction 1/U_j the contraction supports an
    exact-arithmetic mode used by the lattice oracles; `denominators` then
    holds the integers U_j.
    """

    __slots__ = ("betas", "denominators", "_log_det")
    _fields = ("betas", "denominators")

    def __init__(self, betas: tuple[float, ...],
                 denominators: tuple[int, ...] | None = None) -> None:
        if not betas:
            raise ValueError("contraction needs at least one axis")
        for b in betas:
            if not (0.0 < b < 1.0):
                raise ValueError(f"diagonal entries must lie in (0,1), got {b!r}")
        if denominators is not None:
            if len(denominators) != len(betas):
                raise ValueError("denominators length mismatch")
            for u, b in zip(denominators, betas):
                if u < 2:
                    raise ValueError(f"unit-fraction denominator must be >= 2, got {u}")
                if b != 1.0 / u:
                    raise ValueError(
                        f"beta {b!r} is not the unit fraction 1/{u} it claims to be"
                    )
        # log_det is summed once: every certificate report reads it
        super().__init__(betas, denominators, sum(math.log(b) for b in betas))

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
        return self._log_det

    def beta_max(self) -> float:
        return max(self.betas)


class GameParameters(Record):
    """Winning tuple (alpha, A, c, rho2, rho1) for the box-deletion game.

    Winning for a set means: the nesting player can force the limit point
    to land in the set no matter how the deleting player spends the alpha
    budget at exponent c, for any first-move radius in [rho2, rho1].
    """

    __slots__ = _fields = ("alpha", "contraction", "c", "rho2", "rho1")

    def __init__(self, alpha: LogScalar, contraction: DiagonalContraction, c: float,
                 rho2: float = 1.0, rho1: float = 1.0) -> None:
        super().__init__(alpha, contraction, c, rho2, rho1)
        validate_params(self)

    @property
    def n(self) -> int:
        return self.contraction.n


class BoxRegion(Record):
    """Closed axis-aligned box: {x : |x_j - center_j| <= half_j for all j}.

    Coordinates may be exact Fractions (the oracles insist on it) or floats;
    mixing works because comparisons go through the numeric tower.  A
    half-width must be positive; NaN is not.
    """

    __slots__ = _fields = ("center", "half")

    def __init__(self, center: tuple[Coord, ...], half: tuple[Coord, ...]) -> None:
        if len(center) != len(half):
            raise ValueError("center/half dimension mismatch")
        if not center:
            raise ValueError("box needs at least one axis")
        for h in half:
            # A Fraction's numerator has its sign, and comparing that int
            # skips the numeric tower; "not > 0" also rejects NaN.
            if not (getattr(h, "numerator", h) > 0):
                raise ValueError(f"half-widths must be positive, got {h!r}")
        _set(self, "center", center)
        _set(self, "half", half)

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
        terms.append((s ** c).log)
    return LogScalar(combine_logs(terms, c))


def combine_logs(term_logs: Iterable[float], c: float) -> float:
    """ln (sum_i exp(term_logs_i))^(1/c): combine_alphas's join, from the
    logs of its terms alpha_i^c, in any order."""
    return log_sum_exp(term_logs) * (1.0 / c)


class FloorResult(Record):
    """floor(delta/alpha) with an honesty tag.

    The quotient is that of the values the arguments state: a float stands
    for itself, not for the decimal it was parsed from, so 0.5 / 0.1 floors
    to 4 because the float 0.1 lies above 1/10.

    tag == "exact":        value >= 1 is the true floor of the quotient,
                           which lies below 2^53; an enclosure of the
                           quotient has settled it.
    tag == "approximate":  the quotient is at or above 2^53, or its enclosure
                           straddles a step of the floor; value is a safe
                           lower surrogate (true floor >= value).
    tag == "infeasible":   value = 0: the quotient is below 1, or not shown
                           to reach 1; downstream conditions that need one
                           whole step must fail.
    """

    __slots__ = _fields = ("value", "tag")

    def __init__(self, value: int, tag: str) -> None:
        if tag not in ("exact", "approximate", "infeasible"):
            raise ValueError(f"unknown floor tag {tag!r}")
        if value < 0:
            raise ValueError("floor surrogate must be nonnegative")
        _set(self, "value", value)
        _set(self, "tag", tag)


def log_rounding_error(x: float, y: float) -> float:
    """Relative error bound of exp(x + y) when x, y and the sum are float64.

    Each of x and y carries at most one ulp, the sum half an ulp and the exp
    one ulp; the bound is four times that, plus an allowance of 2^-47 that
    also covers rounding when the enclosure ends are formed.
    """
    return (abs(x) + abs(y) + 8.0) * 2.0 ** -50


def _shared_step(step: Callable[[float | Fraction], int], lo: float | Fraction,
                 hi: float | Fraction, limit: float = math.inf) -> int | None:
    """step(lo), step being math.floor or math.ceil, where step(hi) is the
    same and hi is below limit, else None."""
    value = step(lo)
    if hi >= limit or value != step(hi):
        return None
    return value


def _float_step(step: Callable[[float], int], x: float, y: float, limit: float,
                log_limit: float) -> int | None:
    """step(exp(x + y)), step being math.floor or math.ceil, where every
    value in the enclosure exp(x + y) (1 +- log_rounding_error(x, y)) shares
    it below limit, else None.  No exp is taken at or past log_limit =
    ln(limit), where every value is at least limit.

    A free-step floor floor(delta / alpha) passes x = ln delta, y = -ln alpha
    (a LogScalar's log is exact).  A cover count's ceiling ceil(base^t num /
    den), with base, num and den below 2^53 and so floats exactly, passes
    x = fl(t fl(ln base)), y = fl(ln fl(num / den)).  With u = 2^-52 and
    libm's log and exp within one ulp (Muller, Elementary Functions, 3rd ed.,
    2016), x is within 1.5u|x| of its true log (one ulp of the log, half of
    the product), y within u|y| + u (one ulp, and the quotient's half ulp
    moves the log by at most 1.0001 u/2), and fl(x + y) within u(|x| + |y|)/2
    of x + y: the true log L is within e = (|x| + |y|) 2^-51 + u of the sum,
    up to O(u^2), and v = fl(exp(fl(x + y))) within a relative e + u + O(e^2)
    of exp(L).  E = (|x| + |y| + 8) 2^-50 covers that, plus the relative
    half-width of _ceil_powers' step-4 bracket (at most 10^-15, around a
    power good to 2^-100) and the half ulp by which each end of v (1 +- E)
    rounds: the constant parts sum to under 2 2^-50 (u, u, 10^-15 < 1.13
    2^-50, u/2).  So the true value, and every value that bracket could
    hold, lies in [v (1 - E), v (1 + E)], and a step that range shares is
    the one the exact steps would settle.
    """
    log = x + y
    if log >= log_limit:
        return None
    v = math.exp(log)
    err = v * log_rounding_error(x, y)
    return _shared_step(step, v - err, v + err, limit)


def _exp_enclosure(log: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lower and upper bounds on exp(log), correctly directed."""
    from mpmath import libmp  # only the rare undecided floor needs mpmath

    x = libmp.from_rational(log.numerator, log.denominator, _SETTLE_PREC, libmp.round_floor)
    y = libmp.from_rational(log.numerator, log.denominator, _SETTLE_PREC, libmp.round_ceiling)
    lo = libmp.mpf_exp(x, _SETTLE_PREC, libmp.round_floor)
    hi = libmp.mpf_exp(y, _SETTLE_PREC, libmp.round_ceiling)
    return Fraction(*libmp.to_rational(lo)), Fraction(*libmp.to_rational(hi))


def _nearest_power(base: int, t: float, digits: int) -> tuple[int, int]:
    """(man, exp) with man 2^exp = base^t at `digits` digits, rounded to nearest."""
    from mpmath import libmp  # only exponents the exact steps leave need it

    _, man, exp, _ = libmp.mpf_pow(libmp.from_int(base), libmp.from_float(t),
                                   libmp.dps_to_prec(digits), libmp.round_nearest)
    return int(man), exp


def safe_floor_ratio(delta: float | LogScalar, alpha: float | LogScalar) -> FloorResult:
    """floor(delta / alpha), tagged as FloorResult describes.

    A float argument stands for its own value and a LogScalar for exp(log).
    The quotient is estimated in log domain by _float_step.  When every
    quotient in that enclosure has the same floor it is the answer;
    otherwise the floor is settled on the exact quotient of two floats, or
    on a 128-bit mpmath enclosure when a LogScalar is involved, and an
    enclosure that still straddles a step gives its floored lower end,
    tagged approximate.  Estimates >= 2^53 cannot be floored exactly in
    float64; the result is tagged and lowered by one as a conservative
    surrogate.
    """
    d = delta if isinstance(delta, LogScalar) else LogScalar.from_value(delta)
    a = alpha if isinstance(alpha, LogScalar) else LogScalar.from_value(alpha)
    if a.is_zero():
        raise ZeroDivisionError("alpha must be positive")
    if d.is_zero():
        return FloorResult(0, "infeasible")
    ratio_log = d.log - a.log
    if ratio_log >= EXACT_LOG_LIMIT:
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
    value = _float_step(math.floor, d.log, -a.log, EXACT_LIMIT, EXACT_LOG_LIMIT)
    if value is None:
        # the quotient is (float part) * exp(log part), the float part exact
        part, log = Fraction(1), Fraction(0)
        for x, sign in ((delta, 1), (alpha, -1)):
            if isinstance(x, LogScalar):
                log += sign * Fraction(x.log)
            else:
                part *= Fraction(x) ** sign
        lo, hi = (part, part) if log == 0 else tuple(part * e for e in _exp_enclosure(log))
        value = _shared_step(math.floor, lo, hi, EXACT_LIMIT)
        if value is None:
            return FloorResult(math.floor(lo), "approximate") if lo >= 1 else FloorResult(0, "infeasible")
    return FloorResult(value, "exact") if value else FloorResult(0, "infeasible")


def _iroot(x: int, q: int) -> int:
    """floor(x^(1/q)) for integers x >= 0, q >= 1.

    Integer Newton steps: from any positive start one step lands at or above
    the floor root (AM-GM), and from there the steps fall strictly until the
    floor root, where the next step no longer falls.  The start is a float
    estimate of the root of x's leading bits, so a few steps suffice.
    """
    if x < 2 or q == 1:
        return x
    shift = -(-max(x.bit_length() - 1000, 0) // q)
    r = (int((x >> (shift * q)) ** (1.0 / q)) + 1) << shift
    r = ((q - 1) * r + x // r ** (q - 1)) // q
    while True:
        s = ((q - 1) * r + x // r ** (q - 1)) // q
        if s >= r:
            return r
        r = s


def _ceil_powers(
    base: int, t: float, ratios: tuple[tuple[int, int], ...]
) -> tuple[list[int], bool]:
    """[ceil(base^t * num / den) for (num, den) in ratios], and whether all
    of them are certified exact.

    Every float t is exactly a rational p/q.  The steps, first to settle wins:

    1. integer t (q = 1): integer roots, as in step 3;
    2. base below 2^53: _float_step on each ratio in turn, which settles
       only where every ceiling is below 2^50 and the enclosure of each has
       one ceiling;
    3. q <= 64 and a modest magnitude: each ceiling is settled in integers:
       with r the floor q-th root of X = base^p num^q, ceil(base^(p/q) num)
       is r, plus 1 unless r^q = X, and the ceiling division by den follows
       (ceil(y/den) = ceil(ceil(y)/den));
    4. mpmath evaluates base^t once (_nearest_power), at (magnitude + 40)
       digits rounded to nearest, and the rest is integer arithmetic: the
       power is read as man * 2^exp, and both ends of the bracket x (1 +-
       eps), eps = 10^-(digits - 15), of each x = base^t num / den are
       exact ceiling divisions.  Agreement certifies the value, disagreement
       returns the upper one, not exact (larger cover counts only weaken the
       certificate, so rounding up is the conservative direction).

    Steps 1-3 only settle exact values, and step 2 only where step 4 would
    have settled the same ones, so every value and flag is step 4's wherever
    step 4 would run.
    """
    p, q = t.as_integer_ratio()
    if q != 1 and base < EXACT_LIMIT:
        x = t * math.log(base)
        values = []
        for num, den in ratios:
            value = _float_step(math.ceil, x, math.log(num / den), _CEIL_LIMIT, _CEIL_LOG_LIMIT)
            if value is None:
                break
            values.append(value)
        else:
            return values, True
    top = max(num for num, _ in ratios)
    magnitude = p / q * math.log10(base) + math.log10(top)
    if q == 1 or (q <= 64 and magnitude * q <= 20000):
        power = base ** p
        roots: dict[int, int] = {}
        for num, _ in ratios:
            if num not in roots:
                x = power * num ** q
                r = _iroot(x, q)
                roots[num] = r if r ** q == x else r + 1
        return [-(-roots[num] // den) for num, den in ratios], True
    digits = max(30, int(magnitude) + 40)
    man, exp = _nearest_power(base, t, digits)
    # x (1 +- eps) = man num (scale +- 1) 2^exp / (den scale); the ceiling
    # is monotone, so the bracket shares one where its ends' ceilings do
    scale = 10 ** (digits - 15)
    man <<= max(exp, 0)
    unit = 1 << max(-exp, 0)
    values, exact = [], True
    for num, den in ratios:
        y, z = man * num, den * scale * unit
        hi = -(-y * (scale + 1) // z)
        values.append(hi)
        exact = exact and _shared_step(math.ceil, -(-y * (scale - 1) // z), hi) is not None
    return values, exact
