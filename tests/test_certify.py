"""Certifier oracle tests: frozen hand-derived values plus invariants."""
from __future__ import annotations

import hashlib
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamecert import certify
from gamecert.certify import (
    REL_MARGIN,
    _condition1_rhs_log,
    _pack_constant,
    Certificate,
    check_ratio_range,
    condition2_parts,
    default_delta,
    deficit_constant,
    dim_lower_bound,
    dimension_certificate,
    distance_set_certificate,
    feasibility_report,
    intersect_certificate,
    pattern_certificate,
    pattern_dim_bound,
    pattern_feasible,
)
from gamecert.core import DiagonalContraction, LogScalar
from gamecert.optimize import _tail, max_pattern_size

B1 = DiagonalContraction((0.1,))
B2 = DiagonalContraction((0.1, 0.1))


def test_default_delta_frozen_line():
    # n=1, beta=1/10: (1/3) * (1 - 1/2) / (2 * 8 * 9) = 1/864
    assert default_delta(B1) == pytest.approx(1.0 / 864.0, rel=1e-15)


def test_default_delta_frozen_plane():
    # n=2, beta=(1/10,1/10): (1/9) * (1/2)^2 / (2 * 64 * 33) = 0.25/38016
    assert default_delta(B2) == pytest.approx(0.25 / 38016.0, rel=1e-15)


def test_default_delta_rejects_large_entries():
    with pytest.raises(ValueError):
        default_delta(DiagonalContraction((0.25,)))


def test_ratio_range_is_one_check_for_every_entry_point():
    edge = DiagonalContraction((0.1, 0.2))
    message = r"diagonal entries in \(0, 1/5\), got 0\.2"
    for call in (
        lambda: check_ratio_range(edge),
        lambda: default_delta(edge),
        lambda: feasibility_report(LogScalar.from_value(1e-12), edge, 0.5, 1e-6),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    check_ratio_range(DiagonalContraction((0.1, math.nextafter(0.2, 0.0))))


def test_condition2_parts_frozen():
    lhs, rhs = condition2_parts(B1, 0.001, 2)
    assert lhs == pytest.approx((1.0 - 0.05) / 3.0, rel=1e-15)
    assert rhs == pytest.approx(0.072, rel=1e-15)


def test_deficit_constant_frozen():
    k = deficit_constant(B1, 0.001, 2)
    assert k == pytest.approx(2000.0 * abs(math.log(0.95 / 3.0 - 0.072)), rel=1e-14)
    assert 2815.0 < k < 2816.0


def test_deficit_constant_requires_margin():
    # delta = 1/228: rhs = 72/228 > (1-0.05)/3 at N = 2... pick one that fails
    with pytest.raises(ValueError):
        deficit_constant(B1, 0.0045, 2)  # rhs = 0.324 > lhs = 0.31666


def test_feasibility_report_feasible_line():
    alpha = LogScalar.from_value(1e-13)
    rep = feasibility_report(alpha, B1, 0.5, default_delta(B1))
    assert rep.feasible and rep.condition1_ok and rep.condition2_ok
    assert rep.free_steps.tag == "exact"
    assert rep.free_steps.value == math.floor((1.0 / 864.0) / 1e-13)
    assert rep.condition2_lhs == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.condition2_rhs == pytest.approx(72.0 / 864.0, rel=1e-15)
    assert rep.condition2_margin > 0.5


def test_feasibility_report_condition1_blocks():
    # alpha^c = 1e-3 exceeds delta^2 (1 - sqrt(1/10)) ~ 9.2e-7
    rep = feasibility_report(LogScalar.from_value(1e-6), B1, 0.5, default_delta(B1))
    assert not rep.condition1_ok and not rep.feasible


def test_feasibility_report_rate_above_one_is_clean_failure():
    rep = feasibility_report(LogScalar.from_value(1.5), B1, 0.5, 0.001)
    assert not rep.feasible
    assert any("below 1" in note for note in rep.notes)


def test_feasibility_report_combined_rate_above_one_is_clean_failure():
    # alpha = 0.9 and M = 2 at c = 1/2 push M^(1/c) alpha = 3.6 past 1
    rep = feasibility_report(LogScalar.from_value(0.9), B1, 0.5, 0.001, 2)
    assert not rep.feasible


def test_feasibility_report_rejects_bad_domain():
    with pytest.raises(ValueError):
        feasibility_report(LogScalar.from_value(0.1), B1, 0.0, 0.001)
    with pytest.raises(ValueError):
        feasibility_report(LogScalar.from_value(0.1), B1, 1.0, 0.001)
    with pytest.raises(ValueError):
        feasibility_report(
            LogScalar.from_value(0.1), DiagonalContraction((0.3,)), 0.5, 0.001
        )
    with pytest.raises(ValueError):
        feasibility_report(LogScalar.from_value(0.1), B1, 0.5, 0.0)


def test_dim_lower_bound_near_full():
    alpha = LogScalar.from_value(1e-13)
    bound = dim_lower_bound(alpha, B1, 0.5, default_delta(B1))
    assert bound.positive
    assert bound.value == pytest.approx(1.0, abs=1e-9)
    assert bound.deficit == pytest.approx(
        bound.constant * 1e-13 / math.log(10.0), rel=1e-12
    )


def test_dim_lower_bound_infeasible_is_zero():
    bound = dim_lower_bound(LogScalar.from_value(1e-6), B1, 0.5, default_delta(B1))
    assert bound.value == 0.0 and not bound.positive


@given(st.integers(min_value=2, max_value=64))
def test_pattern_feasibility_is_antitone(m):
    alpha = LogScalar.from_value(1e-20)
    delta = default_delta(B2)
    if feasibility_report(alpha, B2, 0.5, delta, m).feasible:
        assert feasibility_report(alpha, B2, 0.5, delta, m - 1).feasible


def _linear_count(alpha, contraction, c, delta, cap=1 << 20):
    """Largest M <= cap certifying at the fixed witness delta, by a scan."""
    m = 0
    while m < cap and feasibility_report(alpha, contraction, c, delta, m + 1).feasible:
        m += 1
    return m


def test_max_pattern_size_matches_linear_scan():
    alpha = LogScalar.from_value(1e-15)
    delta = _tail(1)[0]
    best = max_pattern_size(alpha, B1, 0.5)
    assert best >= 1
    assert feasibility_report(alpha, B1, 0.5, delta, best).feasible
    assert not feasibility_report(alpha, B1, 0.5, delta, best + 1).feasible
    linear = _linear_count(alpha, B1, 0.5, delta)
    assert best == linear
    # the tail witness certifies at least what the always-admissible one does
    assert 1 <= _linear_count(alpha, B1, 0.5, default_delta(B1)) <= best
    for cap in (3, 100):
        assert max_pattern_size(alpha, B1, 0.5, cap) == min(linear, cap)


def test_max_pattern_size_zero_when_m1_fails():
    assert _linear_count(LogScalar.from_value(0.5), B1, 0.5, 0.001) == 0
    assert max_pattern_size(LogScalar.from_value(0.5), B1, 0.5) == 0


def test_pattern_dim_bound_combined_never_exceeds_stated():
    alpha = LogScalar.from_value(1e-24)
    bound = pattern_dim_bound(alpha, B2, 0.5, default_delta(B2), 4)
    assert bound.report.feasible
    assert bound.combined <= bound.stated
    assert bound.constant > 0.0
    assert bound.scale_coefficient == pytest.approx(0.9, rel=1e-15)
    one = pattern_dim_bound(alpha, B2, 0.5, default_delta(B2), 1)
    assert one.combined == pytest.approx(one.stated, rel=1e-15)
    assert bound.stated > 1.99


def test_intersect_certificate_combined_rate():
    alphas = [LogScalar.from_value(1e-14), LogScalar.from_value(2e-14)]
    cert = intersect_certificate(alphas, B1, 0.5, default_delta(B1))
    assert cert.kind == "intersection"
    assert cert.fields["feasible"] is True
    combined = (1e-7 + math.sqrt(2e-14)) ** 2
    assert cert.fields["alpha"] == pytest.approx(combined, rel=1e-12)
    assert cert.extras["member_count"] == "2"
    assert "member.2.alpha_log" in cert.extras
    direct = dim_lower_bound(
        LogScalar.from_value(combined), B1, 0.5, default_delta(B1)
    )
    assert cert.fields["dim_lower_bound"] == pytest.approx(direct.value, rel=1e-9)


def test_intersect_certificate_rejects_rate_at_one():
    with pytest.raises(ValueError):
        intersect_certificate([LogScalar.from_value(1.0)], B1, 0.5, 0.001)


def test_distance_certificate_is_two_point_pattern():
    cert = distance_set_certificate(
        LogScalar.from_value(1e-13), B1, 0.5, default_delta(B1), rho2=2.0
    )
    assert cert.kind == "distance"
    assert cert.fields["pattern_count"] == 2
    assert cert.fields["scale_coefficient"] == pytest.approx(1.8, rel=1e-15)
    assert cert.fields["feasible"] is True


def test_certificate_text_roundtrip():
    cert = pattern_certificate(
        LogScalar.from_value(1e-24), B2, 0.5, default_delta(B2), 4,
        extras={"family.kind": "cutout", "family.u": "17"},
    )
    text = cert.to_text()
    assert text.splitlines()[0] == "schema = gamecert.certificate.v1"
    assert text.splitlines()[1] == "kind = pattern"
    back = Certificate.from_text(text)
    assert back.kind == "pattern"
    assert back.fields["pattern_count"] == 4
    assert back.fields["feasible"] is True
    assert back.extras["family.u"] == "17"
    assert back.to_text() == text          # stable fixed-point
    assert back.fields["condition2_lhs"] == cert.fields["condition2_lhs"]


def test_certificate_rejects_unknown_schema():
    with pytest.raises(ValueError):
        Certificate.from_text("schema = gamecert.certificate.v2\nkind = x\n")


def test_certificate_deterministic_across_builds():
    a = dimension_certificate(LogScalar.from_value(1e-13), B1, 0.5, 1.0 / 864.0)
    b = dimension_certificate(LogScalar.from_value(1e-13), B1, 0.5, 1.0 / 864.0)
    assert a.to_text() == b.to_text()


@settings(max_examples=60)
@given(
    st.floats(min_value=1e-30, max_value=1e-8),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_feasible_report_respects_margin_invariant(a, c):
    rep = feasibility_report(LogScalar.from_value(a), B1, c, default_delta(B1))
    if rep.feasible:
        assert rep.condition1_lhs_log <= rep.condition1_rhs_log
        assert rep.condition2_margin >= 2.0 ** -40
        assert rep.free_steps.value >= 1


@given(
    st.floats(min_value=1e-9, max_value=0.5),
    st.floats(min_value=30.0, max_value=53.0, exclude_max=True),
    st.integers(min_value=1, max_value=50),
    st.one_of(
        st.floats(min_value=0.05, max_value=0.95),
        # c within 2^-20 of 1, where condition (1)'s right side is tiny
        st.floats(min_value=1.0 - 2.0**-20, max_value=1.0, exclude_max=True),
    ),
)
# a raw cli-roundtrip draw (seed 9, draw 3): the quotient lies 0.013 under
# 499325958263, within relative 2^-45 of it
@example(6.22624972582995e-06, 38.861190953200506, 1, 0.7809633168855947)
def test_report_free_steps_floor_the_stated_delta(delta, log2_ratio, m, c):
    # N must be the floor of delta as the certificate states it, a float,
    # over the combined rate.
    alpha = LogScalar(math.log(delta) - log2_ratio * math.log(2.0) - math.log(m) / c)
    rep = feasibility_report(alpha, B1, c, delta, m)
    free = rep.free_steps
    with mpmath.workdps(60):
        ratio = mpmath.mpf(delta) / mpmath.exp(mpmath.mpf(rep.combined_alpha_log))
        true_floor = int(mpmath.floor(ratio))
    if free.tag == "exact":
        assert free.value == true_floor
    else:
        assert free.tag == "approximate"
        assert free.value <= true_floor


def test_report_notes_each_kind_of_approximate_floor():
    # The float estimate of delta/rate falls just below 2^53 and the true
    # quotient just above it, so the enclosure leaves the floor open.
    rep = feasibility_report(LogScalar(-508.0313200683746), B1, 0.5, 2.0863676033243013e-205)
    assert rep.free_steps.tag == "approximate"
    assert 2**53 <= rep.free_steps.value <= 9007199254741021
    assert rep.notes == ("free-step floor is a lower surrogate (ratio enclosure left it open)",)
    rep = feasibility_report(LogScalar(-60.0), B1, 0.5, 0.5)
    assert rep.free_steps.tag == "approximate"
    assert rep.notes == ("free-step floor is a lower surrogate (ratio >= 2^53)",)


# ------------------------------------------- the verdict without the report


def _nudge(x, ulps):
    """x moved by |ulps| floats toward the sign of ulps."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _verdict_inputs(draw):
    """(alpha, contraction, c, delta, M) within a few ulps of the edges the
    verdict turns on: condition (1), the condition-(2) margin at the tail
    witness or at a small free-step count, free-step ratios across 2^44 and
    2^53, and ratios below 1."""
    contraction = DiagonalContraction(tuple(draw(
        st.lists(st.floats(min_value=1e-3, max_value=0.199), min_size=1, max_size=3))))
    n = contraction.n
    c = draw(st.floats(min_value=0.05, max_value=0.999))
    m = draw(st.one_of(st.integers(min_value=1, max_value=8),
                       st.integers(min_value=1, max_value=2 ** 40)))
    steps = draw(st.integers(min_value=1, max_value=40))
    lhs2 = condition2_parts(contraction, 0.5, steps)[0]
    delta = draw(st.one_of(
        st.just(_tail(n)[0]),                                  # edge of (2) in the tail
        st.just(lhs2 * (1.0 - REL_MARGIN) / _pack_constant(n)),  # edge of (2) at N = steps
        st.floats(min_value=1e-12, max_value=0.99),
    ))
    delta = _nudge(delta, draw(st.integers(min_value=-3, max_value=3)))
    mode = draw(st.sampled_from(["condition1", "ratio", "steps"]))
    if mode == "condition1":
        alpha_log = (_condition1_rhs_log(contraction, c, delta) - math.log(m)) / c
    else:
        if mode == "steps":
            log2_ratio = math.log2(steps + 0.5)
        else:
            log2_ratio = draw(st.one_of(
                st.floats(min_value=-3.0, max_value=60.0),
                st.sampled_from([-1.0, 0.0, 44.0, 53.0]),
            ))
        alpha_log = math.log(delta) - log2_ratio * math.log(2.0) - math.log(m) / c
    alpha_log = _nudge(alpha_log, draw(st.integers(min_value=-4, max_value=4)))
    return LogScalar(alpha_log), contraction, c, delta, m


@settings(max_examples=400, deadline=None)
@given(_verdict_inputs())
def test_pattern_verdict_equals_the_report(inputs):
    alpha, contraction, c, delta, m = inputs
    rhs1_log = _condition1_rhs_log(contraction, c, delta)
    assert pattern_feasible(alpha, contraction, c, delta, m, rhs1_log) is \
        feasibility_report(alpha, contraction, c, delta, m).feasible


@pytest.mark.parametrize("betas", [(0.1,), (0.1, 0.125), (0.19, 0.01, 0.05)])
def test_pattern_verdict_turns_at_both_conditions(betas):
    # deterministic edge points: the tail witness passes condition (2) and
    # the next float fails it; the condition-(1) edge count passes and the
    # next count fails condition (1)
    contraction = DiagonalContraction(betas)
    c, witness = 0.99, _tail(contraction.n)[0]
    alpha = LogScalar((_condition1_rhs_log(contraction, c, witness) - math.log(1000.5)) / c)
    for delta, expected in ((witness, True), (math.nextafter(witness, 1.0), False)):
        rhs1_log = _condition1_rhs_log(contraction, c, delta)
        report = feasibility_report(alpha, contraction, c, delta, 1)
        assert report.condition1_ok and report.feasible is expected
        assert pattern_feasible(alpha, contraction, c, delta, 1, rhs1_log) is expected
    rhs1_log = _condition1_rhs_log(contraction, c, witness)
    top = max_pattern_size(alpha, contraction, c)
    assert top == 1000
    for m, expected in ((top, True), (top + 1, False)):
        report = feasibility_report(alpha, contraction, c, witness, m)
        assert report.condition1_ok is expected and report.feasible is expected
        assert pattern_feasible(alpha, contraction, c, witness, m, rhs1_log) is expected


# the four certificate builders, each at feasible inputs on B2 but for rho2
BUILDERS = {
    "dimension": lambda rho2: dimension_certificate(
        LogScalar.from_value(1e-24), B2, 0.5, default_delta(B2), rho2),
    "pattern": lambda rho2: pattern_certificate(
        LogScalar.from_value(1e-24), B2, 0.5, default_delta(B2), 4, rho2),
    "distance": lambda rho2: distance_set_certificate(
        LogScalar.from_value(1e-24), B2, 0.5, default_delta(B2), rho2),
    "intersection": lambda rho2: intersect_certificate(
        [LogScalar.from_value(1e-24)] * 2, B2, 0.5, default_delta(B2), rho2),
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("rho2", [0.0, -2.0, math.nan, math.inf])
def test_certificates_refuse_a_radius_that_is_not_positive_and_finite(kind, rho2):
    # a feasible certificate at rho2 = inf would claim copies at every scale
    assert BUILDERS[kind](1.0).fields["feasible"] is True
    with pytest.raises(ValueError, match="rho2 must be positive and finite"):
        BUILDERS[kind](rho2)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_a_certificate_takes_one_floor_and_one_condition_2(kind, monkeypatch):
    # the bounds read condition (2) from the report, so no step is redone
    calls = {"safe_floor_ratio": 0, "condition2_parts": 0}
    for name in calls:
        real = getattr(certify, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(certify, name, counted)
    assert BUILDERS[kind](1.0).fields["feasible"] is True
    assert calls == {"safe_floor_ratio": 1, "condition2_parts": 1}


def test_certify_dump_is_deterministic(tmp_path):
    # the manifest holds the sha256 of every file the small dump writes: the
    # raw certify draws of 10 benchmark seeds, each with its certificate,
    # verdicts and exit codes; any byte change of a certificate fails here
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, str(here.parent / "scripts" / "certify_dump.py"),
                    str(tmp_path), "--small"], check=True, capture_output=True)
    lines = (here / "data" / "certify_dump_small.sha256").read_text().splitlines()
    manifest = {name: digest for digest, name in (line.split("  ") for line in lines)}
    assert len(manifest) == 10
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(manifest)
    for name, digest in manifest.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
