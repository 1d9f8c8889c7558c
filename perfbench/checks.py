"""Output checks that stand outside the program under test.

* ``rederive`` rebuilds a certificate from its own text with gamecert's public
  certify functions and returns the fresh text, so a caller can byte-compare.
* ``floor_problem`` recomputes N = floor(delta / exp(combined_alpha_log)) with
  mpmath at 60 digits, independently of ``core.safe_floor_ratio``.
* ``digest`` is the sha256 used for reference and traced-vs-untraced checks.
"""
from __future__ import annotations

import hashlib

import mpmath

from gamecert import certify
from gamecert.core import DiagonalContraction, LogScalar


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _contraction(extras: dict[str, str]) -> DiagonalContraction:
    for prefix in ("family", "member.1"):
        if f"{prefix}.u" in extras:
            return DiagonalContraction.from_denominators(
                (int(extras[f"{prefix}.u"]), int(extras[f"{prefix}.v"])))
    if "betas" in extras:
        return DiagonalContraction(tuple(float(b) for b in extras["betas"].split(",")))
    raise ValueError("certificate names no contraction")


def rederive(text: str) -> str:
    """Recompute a certificate from the parameters it states."""
    cert = certify.Certificate.from_text(text)
    fields, extras = cert.fields, dict(cert.extras)
    con = _contraction(extras)
    c, delta, rho2 = fields["c"], fields["delta"], fields.get("rho2", 1.0)
    if cert.kind == "intersection":
        alphas = [LogScalar(float(extras[f"member.{i}.alpha_log"]))
                  for i in range(1, int(extras["member_count"]) + 1)]
        fresh = certify.intersect_certificate(alphas, con, c, delta, rho2, extras)
    else:
        alpha = LogScalar(fields["alpha_log"])
        if cert.kind == "dimension":
            fresh = certify.dimension_certificate(alpha, con, c, delta, rho2, extras)
        elif cert.kind == "pattern":
            fresh = certify.pattern_certificate(
                alpha, con, c, delta, fields["pattern_count"], rho2, extras)
        elif cert.kind == "distance":
            fresh = certify.distance_set_certificate(alpha, con, c, delta, rho2, extras)
        else:
            raise ValueError(f"unknown certificate kind {cert.kind!r}")
    if "t" in fields:
        fresh.fields.setdefault("t", fields["t"])
    return fresh.to_text()


def certificate_problems(text: str) -> list[str]:
    """Problems found by re-deriving `text`; empty when it reproduces byte for byte."""
    try:
        fresh = rederive(text)
    except (ValueError, KeyError) as exc:
        return [f"certificate does not re-derive: {exc}"]
    if fresh != text:
        for old, new in zip(text.splitlines(), fresh.splitlines()):
            if old != new:
                return [f"certificate differs from its re-derivation: {old!r} vs {new!r}"]
        return ["certificate differs from its re-derivation in length"]
    return []


def floor_problem(fields: dict[str, object]) -> str | None:
    """Check the certificate's free-step count against an mpmath floor.

    An `exact` count must equal floor(delta / exp(combined_alpha_log)); an
    `approximate` one must not exceed it.  Counts tagged `infeasible` carry
    no claim.
    """
    tag = fields.get("free_steps_tag")
    if tag not in ("exact", "approximate"):
        return None
    stated = fields["free_steps"]
    with mpmath.workdps(60):
        ratio = mpmath.mpf(fields["delta"]) / mpmath.exp(mpmath.mpf(fields["combined_alpha_log"]))
        true = int(mpmath.floor(ratio))
    if (tag == "exact" and stated != true) or (tag == "approximate" and stated > true):
        return f"free_steps = {stated} tagged {tag}, independent floor is {true}"
    return None
