"""Feasibility certificates: non-emptiness, dimension, patterns, intersections.

The certified facts all flow from one pair of inequalities.  For a budget
rate alpha, exponent c in (0,1), diagonal entries beta_j in (0, 1/5) and a
witness delta in (0,1), with N = floor(delta / alpha):

  (1)  alpha^c <= delta^2 * (1 - (prod_j beta_j)^(1-c))
  (2)  3^-n * prod_j (1 - 5 beta_j^N)  >  8^n * (1 + 2^(2n+1)) * delta

Consequences (for any set winning at (alpha, A, c, rho2, rho1)):

* non-emptiness in every box A(B[0, rho2]) + y, and
  dim >= max(n - K * alpha / |log beta_max|, 0) there, with the deficit
  constant K = (2/delta) * |log(lhs2 - rhs2)|;
* patterns: replacing alpha^c by M * alpha^c in (1) and alpha by
  M^(1/c) * alpha inside N certifies homothetic copies of every set with at
  most M points at every scale lambda in (0, rho2 (1 - beta_max) / diam C),
  with a dimension bound for the set of translation witnesses;
* intersections: countably many winning sets at rates alpha_i and a common
  (A, c) intersect with the same conclusions at the combined rate
  (sum_i alpha_i^c)^(1/c), which must stay below 1.

Strict inequalities are only accepted with relative margin REL_MARGIN and
the achieved margin is recorded.  All mass arithmetic is log-domain.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import (
    EXACT_LOG_LIMIT,
    REL_MARGIN,
    DiagonalContraction,
    FloorResult,
    LogScalar,
    Record,
    combine_alphas,
    safe_floor_ratio,
)

__all__ = [
    "FeasibilityReport",
    "DimensionBound",
    "PatternBound",
    "Certificate",
    "check_ratio_range",
    "default_delta",
    "feasibility_report",
    "deficit_constant",
    "dim_lower_bound",
    "pattern_dim_bound",
    "intersect_certificate",
    "distance_set_certificate",
]


def _log1mexp(x: float) -> float:
    """log(1 - e^x) for x < 0, stable at both ends."""
    if x >= 0.0:
        raise ValueError("argument must be negative")
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def _condition1_gap(contraction: DiagonalContraction, c: float) -> float:
    """log(1 - (prod beta)^(1-c)), the delta-free term of condition (1)'s right side."""
    return _log1mexp((1.0 - c) * contraction.log_det())


def _condition1_rhs_log(contraction: DiagonalContraction, c: float, delta: float) -> float:
    """2 log(delta) + log(1 - (prod beta)^(1-c)): the right side of condition (1),
    M alpha^c <= delta^2 (1 - (prod beta)^(1-c)), in logs.

    Every test of condition (1) evaluates it here, in this one float order,
    so that the report, the count search and the witness search agree bit
    for bit.
    """
    return 2.0 * math.log(delta) + _condition1_gap(contraction, c)


def check_ratio_range(contraction: DiagonalContraction) -> None:
    """Raise ValueError unless every diagonal entry lies in (0, 1/5), the
    range the theorem covers."""
    for b in contraction.betas:
        if not (0.0 < b < 0.2):
            raise ValueError(
                f"certification requires diagonal entries in (0, 1/5), got {b!r}"
            )


def _require_certifiable(contraction: DiagonalContraction, c: float, delta: float) -> None:
    check_ratio_range(contraction)
    if not (0.0 < c < 1.0):
        raise ValueError(f"certification requires c in (0,1), got {c!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0,1), got {delta!r}")


def _require_feasibility_inputs(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float,
    pattern_count: int,
) -> None:
    """Raise ValueError on inputs no verdict exists for: c, delta or a beta
    out of domain, M < 1, or a zero rate (whose free-step floor would
    divide by zero)."""
    _require_certifiable(contraction, c, delta)
    if pattern_count < 1:
        raise ValueError("pattern count must be >= 1")
    if alpha.is_zero():
        raise ValueError("budget rate must be positive")


def _pack_constant(n: int) -> float:
    """8^n * (1 + 2^(2n+1)): the packing/translate constant in condition (2)."""
    return 8.0 ** n * (1.0 + 2.0 ** (2 * n + 1))


def condition2_parts(
    contraction: DiagonalContraction, delta: float, free_steps: int
) -> tuple[float, float]:
    """(lhs, rhs) of condition (2) at N = free_steps.

    beta^N is exp(N log beta); underflow to exactly 0.0 is absorbed by the
    REL_MARGIN the caller demands of lhs - rhs (relative error < 1e-320).
    """
    n = contraction.n
    lhs = 3.0 ** -n
    for b in contraction.betas:
        if free_steps > (1 << 62):
            decayed = 0.0                  # beta^N underflows long before this
        else:
            decayed = math.exp(free_steps * math.log(b))
        lhs *= 1.0 - 5.0 * decayed
    rhs = _pack_constant(n) * delta
    return lhs, rhs


def _condition2_holds(lhs: float, rhs: float) -> bool:
    """Condition (2) with relative margin: rhs <= lhs (1 - REL_MARGIN)."""
    return rhs <= lhs * (1.0 - REL_MARGIN)


def default_delta(contraction: DiagonalContraction) -> float:
    """The always-admissible witness (2 * 8^n (1+2^(2n+1)))^-1 3^-n prod(1-5 beta_j).

    Halving the N = 1 left side of condition (2) guarantees strictness for
    every N >= 1; usually far from the delta that optimizes the dimension.
    """
    check_ratio_range(contraction)
    n = contraction.n
    value = 3.0 ** -n / (2.0 * _pack_constant(n))
    for b in contraction.betas:
        value *= 1.0 - 5.0 * b
    return value


class FeasibilityReport(NamedTuple):
    """Outcome of testing conditions (1) and (2) for one (alpha, c, delta, M)."""

    n: int
    c: float
    delta: float
    pattern_count: int
    alpha_log: float             # ln of the per-set budget rate
    combined_alpha_log: float    # ln(M^(1/c) * alpha), the rate inside N
    condition1_ok: bool
    condition1_lhs_log: float    # ln(M * alpha^c)
    condition1_rhs_log: float    # ln(delta^2 (1 - (prod beta)^(1-c)))
    free_steps: FloorResult      # N = floor(delta / (M^(1/c) alpha))
    condition2_ok: bool
    condition2_lhs: float
    condition2_rhs: float
    feasible: bool
    notes: tuple[str, ...] = ()

    @property
    def condition2_margin(self) -> float:
        """Relative slack (lhs - rhs)/lhs; certification demands >= 2^-40."""
        if self.condition2_lhs <= 0.0:
            return -math.inf
        return (self.condition2_lhs - self.condition2_rhs) / self.condition2_lhs


def _combined_rate_log(alpha_log: float, c: float, pattern_count: int) -> float:
    """ln(M^(1/c) alpha), the rate inside N."""
    return math.log(pattern_count) / c + alpha_log


def _rate_not_below_one(alpha_log: float, combined_log: float) -> bool:
    """The certificate machinery is only stated for rates below 1."""
    return alpha_log >= 0.0 or combined_log >= 0.0


def _condition1_lhs_log(alpha_log: float, c: float, pattern_count: int) -> float:
    """ln(M alpha^c), the left side of condition (1)."""
    return math.log(pattern_count) + c * alpha_log


def feasibility_report(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float,
    pattern_count: int = 1,
) -> FeasibilityReport:
    """Test conditions (1) and (2) at pattern count M (M = 1: plain case).

    Never raises for a rate the theorem merely fails to certify — that is a
    feasible=False report with a note — but rejects structurally invalid
    inputs (c, delta, beta out of domain).  Its verdict is made of the same
    helpers, in the same order, as _verdict's.
    """
    _require_feasibility_inputs(alpha, contraction, c, delta, pattern_count)
    n = contraction.n
    notes: list[str] = []
    combined_log = _combined_rate_log(alpha.log, c, pattern_count)
    if _rate_not_below_one(alpha.log, combined_log):
        return FeasibilityReport(
            n, c, delta, pattern_count, alpha.log, combined_log,
            False, math.inf, -math.inf, FloorResult(0, "infeasible"),
            False, 0.0, 0.0, False,
            ("budget rate (or combined pattern rate) is not below 1",),
        )
    lhs1_log = _condition1_lhs_log(alpha.log, c, pattern_count)
    rhs1_log = _condition1_rhs_log(contraction, c, delta)
    cond1 = lhs1_log <= rhs1_log

    free = safe_floor_ratio(delta, LogScalar(combined_log))
    if free.tag == "approximate":
        if math.log(delta) - combined_log >= EXACT_LOG_LIMIT:
            notes.append("free-step floor is a lower surrogate (ratio >= 2^53)")
        else:
            notes.append("free-step floor is a lower surrogate (ratio enclosure left it open)")
    if free.value < 1:
        lhs2, rhs2 = 0.0, _pack_constant(n) * delta
        cond2 = False
        notes.append("fewer than one free step: condition (2) unsatisfiable")
    else:
        lhs2, rhs2 = condition2_parts(contraction, delta, free.value)
        cond2 = _condition2_holds(lhs2, rhs2)
    return FeasibilityReport(
        n, c, delta, pattern_count, alpha.log, combined_log,
        cond1, lhs1_log, rhs1_log, free, cond2, lhs2, rhs2,
        cond1 and cond2, tuple(notes),
    )


def _verdict(alpha: LogScalar, contraction: DiagonalContraction, c: float, delta: float,
             pattern_count: int, rhs1_log: float) -> tuple[float, int, float, float] | None:
    """(combined rate log, free steps, lhs2, rhs2) where feasibility_report(
    alpha, contraction, c, delta, pattern_count) is feasible, else None.

    It runs the report's helpers in the report's order and returns at the
    first failed test, so a count that fails condition (1) computes no
    free-step floor and no condition (2).  The caller has checked the
    inputs once with _require_feasibility_inputs, and passes rhs1_log =
    _condition1_rhs_log(contraction, c, delta), or less for a margin.
    """
    combined_log = _combined_rate_log(alpha.log, c, pattern_count)
    if _rate_not_below_one(alpha.log, combined_log):
        return None
    if not _condition1_lhs_log(alpha.log, c, pattern_count) <= rhs1_log:
        return None
    free = safe_floor_ratio(delta, LogScalar(combined_log))
    if free.value < 1:
        return None
    lhs2, rhs2 = condition2_parts(contraction, delta, free.value)
    if not _condition2_holds(lhs2, rhs2):
        return None
    return combined_log, free.value, lhs2, rhs2


def pattern_feasible(alpha: LogScalar, contraction: DiagonalContraction, c: float,
                     delta: float, pattern_count: int, rhs1_log: float) -> bool:
    """feasibility_report(alpha, contraction, c, delta, pattern_count).feasible."""
    return _verdict(alpha, contraction, c, delta, pattern_count, rhs1_log) is not None


def deficit_constant(
    contraction: DiagonalContraction, delta: float, free_steps: int
) -> float:
    """K = (2/delta) |log(lhs2 - rhs2)| at N = free_steps.

    Defined only when condition (2) holds strictly; the certified dimension
    deficit is K * alpha / |log beta_max|.
    """
    return _deficit(*condition2_parts(contraction, delta, free_steps), delta)


def _deficit(lhs2: float, rhs2: float, delta: float) -> float:
    """K from the two sides of condition (2), as condition2_parts states them."""
    if not _condition2_holds(lhs2, rhs2):
        raise ValueError("condition (2) must hold with margin before K exists")
    return 2.0 / delta * abs(math.log(lhs2 - rhs2))


def _deficits(k: float, contraction: DiagonalContraction, alpha_log: float,
              combined_log: float = -math.inf) -> tuple[float, float]:
    """The dimension deficit K rate / |log beta_max| at the per-set rate,
    and at the combined rate where one is given."""
    log_bmax = abs(math.log(contraction.beta_max()))
    return k * math.exp(alpha_log) / log_bmax, k * math.exp(combined_log) / log_bmax


def pattern_bound_values(alpha: LogScalar, contraction: DiagonalContraction, c: float,
                         delta: float, pattern_count: int,
                         rhs1_log: float) -> tuple[float, float, float, int] | None:
    """(stated, combined, delta, free_steps) of pattern_dim_bound(alpha,
    contraction, c, delta, pattern_count) where its report is feasible
    (rhs1_log as for _verdict), else None, without building the report."""
    verdict = _verdict(alpha, contraction, c, delta, pattern_count, rhs1_log)
    if verdict is None:
        return None
    combined_log, free_steps, lhs2, rhs2 = verdict
    k_m = _deficit(lhs2, rhs2, delta)
    stated, combined = _deficits(k_m, contraction, alpha.log, combined_log)
    return contraction.n - stated, contraction.n - combined, delta, free_steps


class DimensionBound(NamedTuple):
    """max(n - K alpha / |log beta_max|, 0) together with its ingredients."""

    value: float
    deficit: float               # K * alpha / |log beta_max|
    constant: float              # K
    positive: bool
    report: FeasibilityReport


def dim_lower_bound(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float,
) -> DimensionBound:
    """Dimension certificate for a single winning rate (pattern count 1)."""
    report = feasibility_report(alpha, contraction, c, delta)
    if not report.feasible:
        return DimensionBound(0.0, math.inf, math.inf, False, report)
    k = _deficit(report.condition2_lhs, report.condition2_rhs, delta)
    deficit = _deficits(k, contraction, alpha.log)[0]
    value = max(contraction.n - deficit, 0.0)
    return DimensionBound(value, deficit, k, value > 0.0, report)


class PatternBound(NamedTuple):
    """Pattern certificate: containment plus witness-set dimension bounds.

    `stated` is n - K_M alpha / |log beta_max| with the bare per-set rate
    (the headline form); `combined` replaces alpha by M^(1/c) alpha — the
    rate actually carried through the intersection argument — and is never
    larger.  `strengthened_ok` records the additional hypothesis
    M alpha^c <= min(delta^2, n |log beta_max| / K_M) * (1 - (prod beta)^(1-c))
    under which the stated bound is asserted (and positive).
    """

    pattern_count: int
    stated: float
    combined: float
    constant: float              # K_M
    strengthened_ok: bool
    scale_coefficient: float     # lambda range is (0, coeff / diam(pattern))
    report: FeasibilityReport


def pattern_dim_bound(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float,
    pattern_count: int,
    rho2: float = 1.0,
) -> PatternBound:
    report = feasibility_report(alpha, contraction, c, delta, pattern_count)
    if not report.feasible:
        return PatternBound(
            pattern_count, 0.0, 0.0, math.inf, False, 0.0, report
        )
    k_m = _deficit(report.condition2_lhs, report.condition2_rhs, delta)
    stated, combined = (contraction.n - d for d in
                        _deficits(k_m, contraction, alpha.log, report.combined_alpha_log))
    log_bmax = abs(math.log(contraction.beta_max()))
    cap_log = math.log(min(delta * delta, contraction.n * log_bmax / k_m))
    strengthened = report.condition1_lhs_log <= cap_log + _condition1_gap(contraction, c)
    coeff = rho2 * (1.0 - contraction.beta_max())
    return PatternBound(
        pattern_count, stated, combined, k_m, strengthened, coeff, report
    )


# ------------------------------------------------------------- certificates


_CERT_KEYS = (
    "schema",
    "kind",
    "n",
    "c",
    "rho2",
    "delta",
    "pattern_count",
    "alpha",
    "alpha_log",
    "combined_alpha",
    "combined_alpha_log",
    "free_steps",
    "free_steps_tag",
    "condition1_lhs_log",
    "condition1_rhs_log",
    "condition2_lhs",
    "condition2_rhs",
    "condition2_margin",
    "feasible",
    "deficit_constant",
    "dim_lower_bound",
    "dim_lower_bound_combined",
    "strengthened_ok",
    "positive_dim",
    "scale_coefficient",
    "notes",
)


def _fmt(value: object) -> str:
    """A value as certificates and CLI reports write it: true|false, a float
    to 17 significant digits (it reads back exactly), a Fraction as p/q."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


class Certificate(Record):
    """Flat, deterministic, text-serializable record of one certified claim.

    kind: "dimension" | "pattern" | "intersection" | "distance".
    `extras` carries family/member echoes (family.u = ..., member.1.kind =
    ...); they are emitted after the fixed keys, sorted.  Its dicts make a
    certificate unhashable.
    """

    __slots__ = _fields = ("kind", "fields", "extras")

    def __init__(self, kind: str, fields: dict[str, object],
                 extras: dict[str, str] | None = None) -> None:
        super().__init__(kind, fields, {} if extras is None else extras)

    def to_text(self) -> str:
        lines = []
        merged: dict[str, object] = {"schema": "gamecert.certificate.v1", "kind": self.kind}
        merged.update(self.fields)
        for key in _CERT_KEYS:
            if key in merged and merged[key] is not None:
                lines.append(f"{key} = {_fmt(merged[key])}")
        for key in sorted(self.extras):
            lines.append(f"{key} = {self.extras[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        fields: dict[str, object] = {}
        extras: dict[str, str] = {}
        kind = "unknown"
        for line in text.splitlines():
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not _:
                raise ValueError(f"malformed certificate line {line!r}")
            if key == "schema":
                if raw != "gamecert.certificate.v1":
                    raise ValueError(f"unknown certificate schema {raw!r}")
            elif key == "kind":
                kind = raw
            elif key in _CERT_KEYS:
                fields[key] = _parse_cert_value(key, raw)
            else:
                extras[key] = raw
        return cls(kind, fields, extras)


_ECHO_FIELDS = ("kind", "u", "v", "m", "t")     # an RcoSpec's; an RcdSpec's are kind, u, v
_ECHO_KEYS = {"betas", "member_count", *(f"family.{name}" for name in _ECHO_FIELDS)}


def is_echo_key(key: str, member_count: int) -> bool:
    """Whether `key` is an extras key that echoes a certificate's family or
    members, the only extras re-validation keeps: family.<field>, betas,
    member_count, or member.<i>.<field or alpha_log> for 1 <= i <=
    member_count, a field being kind, u, v, m or t."""
    head, _, rest = key.partition(".")
    index, _, name = rest.partition(".")
    if head == "member" and index.isascii() and index.isdigit() and index[0] != "0":
        return name in (*_ECHO_FIELDS, "alpha_log") and int(index) <= member_count
    return key in _ECHO_KEYS


_INT_KEYS = {"n", "pattern_count", "free_steps"}
_STR_KEYS = {"free_steps_tag", "notes"}
_BOOL_KEYS = {"feasible", "strengthened_ok", "positive_dim"}


def _parse_cert_value(key: str, raw: str) -> object:
    if key in _BOOL_KEYS:
        return raw == "true"
    if key in _INT_KEYS:
        return int(raw)
    if key in _STR_KEYS:
        return raw
    return float(raw)


def _base_fields(report: FeasibilityReport, rho2: float) -> dict[str, object]:
    if not 0.0 < rho2 < math.inf:
        raise ValueError(f"rho2 must be positive and finite, got {rho2!r}")
    return {
        "n": report.n,
        "c": report.c,
        "rho2": rho2,
        "delta": report.delta,
        "pattern_count": report.pattern_count,
        "alpha": LogScalar(report.alpha_log).value,
        "alpha_log": report.alpha_log,
        "combined_alpha": LogScalar(report.combined_alpha_log).value,
        "combined_alpha_log": report.combined_alpha_log,
        "free_steps": report.free_steps.value,
        "free_steps_tag": report.free_steps.tag,
        "condition1_lhs_log": report.condition1_lhs_log,
        "condition1_rhs_log": report.condition1_rhs_log,
        "condition2_lhs": report.condition2_lhs,
        "condition2_rhs": report.condition2_rhs,
        "condition2_margin": report.condition2_margin,
        "feasible": report.feasible,
        "notes": "; ".join(report.notes) if report.notes else None,
    }


def dimension_certificate(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float,
    rho2: float = 1.0,
    extras: dict[str, str] | None = None,
) -> Certificate:
    bound = dim_lower_bound(alpha, contraction, c, delta)
    fields = _base_fields(bound.report, rho2)
    if bound.report.feasible:
        fields.update(
            deficit_constant=bound.constant,
            dim_lower_bound=bound.value,
            positive_dim=bound.positive,
        )
    return Certificate("dimension", fields, dict(extras or {}))


def pattern_certificate(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float,
    pattern_count: int,
    rho2: float = 1.0,
    extras: dict[str, str] | None = None,
) -> Certificate:
    bound = pattern_dim_bound(alpha, contraction, c, delta, pattern_count, rho2)
    fields = _base_fields(bound.report, rho2)
    if bound.report.feasible:
        fields.update(
            deficit_constant=bound.constant,
            dim_lower_bound=bound.stated,
            dim_lower_bound_combined=bound.combined,
            strengthened_ok=bound.strengthened_ok,
            positive_dim=bound.stated > 0.0,
            scale_coefficient=bound.scale_coefficient,
        )
    return Certificate("pattern", fields, extras or {})


def intersect_certificate(
    alphas: Sequence[LogScalar],
    contraction: DiagonalContraction,
    c: float,
    delta: float,
    rho2: float = 1.0,
    extras: dict[str, str] | None = None,
) -> Certificate:
    """Certificate for the intersection of winning sets at rates `alphas`.

    All members must share (A, c); the combined rate (sum alpha_i^c)^(1/c)
    enters both the free-step count and the dimension deficit.
    """
    if not alphas:
        raise ValueError("need at least one member")
    for a in alphas:
        if a.log >= 0.0:
            raise ValueError("every member rate must be below 1")
    cert = dimension_certificate(
        combine_alphas(list(alphas), c), contraction, c, delta, rho2, extras)
    cert.extras["member_count"] = str(len(alphas))
    for i, a in enumerate(alphas, start=1):
        cert.extras.setdefault(f"member.{i}.alpha_log", "%.17g" % a.log)
    return Certificate("intersection", cert.fields, cert.extras)


def distance_set_certificate(
    alpha: LogScalar,
    contraction: DiagonalContraction,
    c: float,
    delta: float,
    rho2: float = 1.0,
    extras: dict[str, str] | None = None,
) -> Certificate:
    """Axis-distance certificate: two-point patterns at every small scale.

    A pattern count of 2 certifies, for every eta in [0,1]^n and every
    lambda in (0, scale_coefficient), a pair of points of the winning set in
    each ball B[y, rho2] with per-axis distances exactly eta_j * lambda.
    """
    cert = pattern_certificate(alpha, contraction, c, delta, 2, rho2, extras)
    return Certificate("distance", cert.fields, cert.extras)
