"""Certifier oracle tests: frozen hand-derived values plus invariants."""
from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamecert.certify import (
    BranchingBound,
    Certificate,
    branching_lower_bound,
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
)
from gamecert.core import DiagonalContraction, LogScalar
from gamecert.optimize import max_pattern_size

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


def test_branching_bound_frozen():
    # n=1, beta=1/10, N=2, delta=1/1000:
    #   100 * ((1-0.05)/3 - 0.072) = 24.4666..., so 25 sub-cells.
    bound = branching_lower_bound(B1, 0.001, 2)
    assert bound.tag == "exact"
    assert bound.count == 25
    assert math.exp(bound.value_log) == pytest.approx(24.46666666666, rel=1e-10)


def test_branching_bound_open_enclosure_is_tagged():
    # value = 25 + 7.07e-13 sits on the edge of the 2^-45 snap window above
    # 25, closer than the value's own error bound, so 25 or 26 could be meant.
    bound = branching_lower_bound(B1, 0.0009259259259258265, 2)
    assert bound.tag == "approximate"
    assert bound.count == 25
    assert math.exp(bound.value_log) == pytest.approx(25.0, rel=2.0**-44)


def test_branching_bound_huge_is_tagged():
    bound = branching_lower_bound(B1, 0.001, 30)
    assert bound.tag == "approximate"
    assert bound.count is None
    assert bound.value_log > 53.0 * math.log(2.0)


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


def test_max_pattern_size_matches_linear_scan():
    alpha = LogScalar.from_value(1e-15)
    delta = default_delta(B1)
    best, witness = max_pattern_size(alpha, B1, 0.5, delta)
    assert best >= 1 and witness == delta
    assert feasibility_report(alpha, B1, 0.5, delta, best).feasible
    assert not feasibility_report(alpha, B1, 0.5, delta, best + 1).feasible
    linear = 0
    m = 1
    while feasibility_report(alpha, B1, 0.5, delta, m).feasible:
        linear = m
        m += 1
    assert best == linear
    for cap in (3, 100):
        assert max_pattern_size(alpha, B1, 0.5, delta, cap=cap) == (min(linear, cap), delta)


def test_max_pattern_size_zero_when_m1_fails():
    assert max_pattern_size(LogScalar.from_value(0.5), B1, 0.5, 0.001) == (0, None)
    assert max_pattern_size(LogScalar.from_value(0.5), B1, 0.5) == (0, None)


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
    st.floats(min_value=0.05, max_value=0.95),
)
def test_report_free_steps_floor_the_stated_delta(delta, log2_ratio, m, c):
    # N must be the floor of delta as the certificate states it, a float,
    # over the combined rate; only the documented snap below 2^44 may lift
    # it by one.
    alpha = LogScalar(math.log(delta) - log2_ratio * math.log(2.0) - math.log(m) / c)
    rep = feasibility_report(alpha, B1, c, delta, m)
    free = rep.free_steps
    with mpmath.workdps(60):
        ratio = mpmath.mpf(delta) / mpmath.exp(mpmath.mpf(rep.combined_alpha_log))
        true_floor = int(mpmath.floor(ratio))
        if free.tag == "exact" and ratio >= 2**44:
            assert free.value == true_floor
        elif free.tag == "exact":
            assert free.value in (true_floor, true_floor + 1)
            if free.value == true_floor + 1:
                assert free.value - ratio <= mpmath.mpf(2) ** -45 * ratio
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
