"""Core type behaviour: log scalars, parameter records, floors, combining."""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gamecert.core import (
    BoxRegion,
    DiagonalContraction,
    FloorResult,
    GameParameters,
    LogScalar,
    combine_alphas,
    dominates,
    safe_floor_ratio,
    snap_round,
)

positive_floats = st.floats(min_value=1e-300, max_value=1e300)


# ---------------------------------------------------------------- LogScalar


def test_logscalar_roundtrip():
    x = LogScalar.from_value(16.2)
    assert math.isclose(x.value, 16.2, rel_tol=1e-15)
    assert not x.is_zero()
    assert LogScalar.from_value(0.0).is_zero()
    assert LogScalar.zero().value == 0.0


def test_logscalar_rejects_negative():
    with pytest.raises(ValueError):
        LogScalar.from_value(-1.0)


def test_logscalar_survives_underflow_range():
    # alpha * prod(beta)^m for m = 5000 is far below float64 but fine in logs.
    tiny = LogScalar.from_value(0.1) ** 5000
    assert tiny.log == pytest.approx(5000 * math.log(0.1))
    assert tiny.value == 0.0  # underflow on materialization only
    assert not tiny.is_zero()


@given(positive_floats, positive_floats)
def test_logscalar_mul_matches_floats(a, b):
    got = (LogScalar.from_value(a) * LogScalar.from_value(b)).log
    assert got == pytest.approx(math.log(a) + math.log(b), rel=1e-12, abs=1e-12)


@given(st.lists(positive_floats, min_size=1, max_size=8))
def test_logscalar_sum_is_permutation_invariant(values):
    terms = [LogScalar.from_value(v) for v in values]
    forward = LogScalar.sum(terms)
    backward = LogScalar.sum(list(reversed(terms)))
    assert forward.log == backward.log


def test_logscalar_sum_of_identical_terms_is_exact_count():
    # sum of k equal masses must come out as exactly log(k) + mass.
    mass = LogScalar(-123.456)
    total = LogScalar.sum([mass] * 18)
    assert total.log == math.log(18.0) + mass.log


# ------------------------------------------------------- DiagonalContraction


def test_contraction_from_denominators_is_exact():
    a = DiagonalContraction.from_denominators([4, 5])
    assert a.betas == (0.25, 0.2)
    assert a.exact_betas() == (Fraction(1, 4), Fraction(1, 5))
    assert a.is_exact
    assert a.log_det() == pytest.approx(math.log(0.05))


def test_contraction_rejects_bad_entries():
    with pytest.raises(ValueError):
        DiagonalContraction((0.5, 1.0))
    with pytest.raises(ValueError):
        DiagonalContraction((0.5,), (3,))  # 0.5 != 1/3
    with pytest.raises(ValueError):
        DiagonalContraction.from_denominators([1])


# ------------------------------------------------------------ GameParameters


def _params(alpha=0.5, betas=(0.1,), c=0.5, rho2=1.0, rho1=1.0):
    return GameParameters(
        LogScalar.from_value(alpha), DiagonalContraction(betas), c, rho2, rho1
    )


def test_validate_params_accepts_c_zero():
    _params(c=0.0)  # legal game, certifier rejects it separately


def test_validate_params_rejects_bad_tuples():
    with pytest.raises(ValueError):
        _params(c=1.0)
    with pytest.raises(ValueError):
        _params(rho2=2.0, rho1=1.0)
    with pytest.raises(ValueError):
        _params(rho2=0.0)
    with pytest.raises(ValueError):
        GameParameters(LogScalar.zero(), DiagonalContraction((0.1,)), 0.5)


def test_dominates_direction():
    base = _params(alpha=0.5, c=0.5)
    assert dominates(base, _params(alpha=0.7, c=0.5))
    assert dominates(base, _params(alpha=0.5, c=0.9))
    assert not dominates(base, _params(alpha=0.3, c=0.5))
    assert not dominates(base, _params(alpha=0.5, c=0.1))
    # shrinking the radius interval is fine, enlarging it is not
    wide = _params(rho2=0.5, rho1=2.0)
    narrow = _params(rho2=1.0, rho1=1.5)
    assert dominates(wide, narrow)
    assert not dominates(narrow, wide)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.0, max_value=0.999),
)
def test_dominates_is_a_preorder_on_random_pairs(a1, c1, a2, c2):
    p = _params(alpha=a1, c=c1)
    q = _params(alpha=a2, c=c2)
    assert dominates(p, p) and dominates(q, q)
    if dominates(p, q) and dominates(q, p):
        assert p.alpha.log == q.alpha.log and p.c == q.c


# ------------------------------------------------------------ combine_alphas


def test_combine_alphas_frozen_example():
    # (0.01^0.5 + 0.04^0.5)^2 = (0.1 + 0.2)^2 = 0.09
    got = combine_alphas([0.01, 0.04], 0.5)
    assert got.value == pytest.approx(0.09, rel=1e-14)


@given(
    st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1, max_size=6),
    st.floats(min_value=0.05, max_value=0.99),
)
def test_combine_alphas_dominates_each_member(alphas, c):
    combined = combine_alphas(alphas, c)
    for a in alphas:
        assert combined.log >= math.log(a) - 1e-9


@given(
    st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=2, max_size=6),
    st.floats(min_value=0.05, max_value=0.99),
)
def test_combine_alphas_permutation_invariant(alphas, c):
    assert (
        combine_alphas(alphas, c).log
        == combine_alphas(list(reversed(alphas)), c).log
    )


def test_combine_alphas_rejects_c_zero():
    with pytest.raises(ValueError):
        combine_alphas([0.1], 0.0)


# ---------------------------------------------------------- safe_floor_ratio


def test_safe_floor_ratio_snaps_float_noise():
    # 0.5/0.1 = 5.000000000000001 in float64; must still floor to 5.
    assert safe_floor_ratio(0.5, 0.1) == FloorResult(5, "exact")


def test_safe_floor_ratio_small_and_infeasible():
    assert safe_floor_ratio(0.09, 0.1) == FloorResult(0, "infeasible")
    assert safe_floor_ratio(0.1, 0.1) == FloorResult(1, "exact")
    assert safe_floor_ratio(0.35, 0.1) == FloorResult(3, "exact")


def test_safe_floor_ratio_huge_is_tagged():
    res = safe_floor_ratio(1.0, 1e-20)
    assert res.tag == "approximate"
    # surrogate is a lower bound on the true ratio 1/float(1e-20) < 1e20,
    # and within a hair of it
    assert res.value < 10**20
    assert res.value >= int(10**20 * (1 - 1e-12))


def test_safe_floor_ratio_accepts_logscalars():
    d = LogScalar.from_value(0.5)
    a = LogScalar.from_value(0.1)
    assert safe_floor_ratio(d, a).value == 5


@given(
    st.floats(min_value=1e-12, max_value=1e12),
    st.floats(min_value=1e-12, max_value=1e12),
)
@example(15348555623.0, 6.103515625e-05)
@example(26804783444.0, 6.103515625e-05)
@example(68719476735.999985, 3.0517578125e-05)    # 2^51 - 1/2: no snap up
def test_safe_floor_ratio_matches_true_floor_off_lattice(delta, alpha):
    ratio = Fraction(delta) / Fraction(alpha)
    if ratio >= 2**53:
        return
    res = safe_floor_ratio(delta, alpha)
    true_floor = math.floor(ratio)
    if ratio >= 2**44:
        assert res.value == true_floor      # nothing snaps from 2^44 on
    else:
        # the snap may lift a just-below-integer ratio by one
        assert res.value in (true_floor, true_floor + 1)
        if res.value == true_floor + 1:
            assert res.value - ratio <= Fraction(1, 2**45) * ratio
    assert (res.tag == "infeasible") == (res.value == 0)


@given(
    st.floats(min_value=1e-9, max_value=0.5),
    st.floats(min_value=30.0, max_value=53.0, exclude_max=True),
)
def test_safe_floor_ratio_float_delta_logscalar_rate(delta, log2_ratio):
    # The certifier's path: a float witness over a LogScalar combined rate.
    alpha = LogScalar(math.log(delta) - log2_ratio * math.log(2.0))
    res = safe_floor_ratio(delta, alpha)
    with mpmath.workdps(60):
        ratio = mpmath.mpf(delta) / mpmath.exp(mpmath.mpf(alpha.log))
        true_floor = int(mpmath.floor(ratio))
        if res.tag == "exact" and ratio >= 2**44:
            assert res.value == true_floor      # nothing snaps from 2^44 on
        elif res.tag == "exact":
            # only the documented snap may lift the floor, by one
            assert res.value in (true_floor, true_floor + 1)
            if res.value == true_floor + 1:
                assert res.value - ratio <= mpmath.mpf(2) ** -45 * ratio
        else:
            assert res.tag == "approximate"
            assert 1 <= res.value <= true_floor


def test_snap_round_floats_and_fractions_agree():
    for q in (4.999999999, 4.99999999999999, 5.000000000000001, 0.5, 2.0**44 + 0.75, 7.25):
        for rounding in (math.floor, math.ceil):
            assert snap_round(q, rounding) == snap_round(Fraction(q), rounding)
    assert snap_round(5.000000000000001, math.ceil) == 5
    assert snap_round(4.999999999, math.floor) == 4
    assert snap_round(4.99999999999999, math.floor) == 5
    assert snap_round(Fraction(5) - Fraction(1, 2**50), math.floor) == 5


def test_snap_round_stops_snapping_at_2_44():
    # below 2^44 a quarter-unit gap is inside the window and snaps up; from
    # 2^44 on plain rounding holds, and the step across the limit is monotone
    top = 2.0**44
    assert snap_round(top - 0.25, math.floor) == 2**44
    assert snap_round(top + 0.25, math.ceil) == 2**44 + 1
    assert snap_round(2.0**51 - 0.5, math.floor) == 2**51 - 1
    assert snap_round(Fraction(2**51) - Fraction(1, 2), math.floor) == 2**51 - 1
    qs = [top + k / 8.0 for k in range(-16, 17)]
    for rounding in (math.floor, math.ceil):
        values = [snap_round(q, rounding) for q in qs]
        assert values == sorted(values)


# -------------------------------------------------------------- BoxRegion


def test_box_region_exact_containment():
    big = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    small = BoxRegion((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    assert big.contains_box(small)          # flush at the corner still counts
    assert not small.contains_box(big)
    assert big.contains_point((1, 1))
    assert not big.contains_point((1, Fraction(101, 100)))


def test_box_region_touching_counts_as_intersecting():
    a = BoxRegion((0.0,), (1.0,))
    b = BoxRegion((2.0,), (1.0,))
    c = BoxRegion((2.5,), (0.4,))
    assert a.intersects(b)
    assert not a.intersects(c)


def test_box_region_shrink_and_diameter():
    box = BoxRegion((Fraction(3, 100),), (Fraction(1, 100),))
    half = box.shrink(Fraction(1, 2))
    assert half.half == (Fraction(1, 200),)
    assert half.center == box.center
    assert box.diameter_sup() == Fraction(1, 50)
