"""Optimizer tests: frozen search outcomes and search-engine invariants."""
from __future__ import annotations

import hashlib
import math
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamecert import certify, optimize
from gamecert.certify import feasibility_report, pattern_dim_bound
from gamecert.core import REL_MARGIN, DiagonalContraction, LogScalar, combine_alphas
from gamecert.families import RcdSpec, RcoSpec, rcd_alpha, rcd_cover_count, rco_alpha
from gamecert.optimize import (
    _SEARCH_GRID,
    _SMALLEST_U_GRID,
    MAX_PATTERN_CAP,
    _best_witness,
    _c_grid,
    _dim_ceiling,
    _least_condition1_delta,
    _family_rates,
    _intersection_rates,
    _refine_c,
    _refine_t,
    _t_grid,
    _tail,
    max_pattern_size,
    optimize_intersection,
    optimize_pattern_count,
    smallest_u_for_patterns,
)

B1 = DiagonalContraction((0.1,))


def _rate(spec, c, t):
    """The budget rate of one family at (c, t), from its search's rate rows."""
    return LogScalar(_family_rates(spec)(t)(c))


# ------------------------------------------------------------- tail witness


def test_tail_witness_frozen_line():
    witness, minimizer = _tail(1)
    # (1/3) * (1 - 2^-40) / 72
    assert witness == pytest.approx(1.0 / 216.0, rel=1e-9)
    assert witness == 0.004629629629625419
    assert 0.0 < minimizer < witness


def test_tail_witness_frozen_plane():
    witness, minimizer = _tail(2)
    # (1/9) * (1 - 2^-40) / 2112
    assert witness == pytest.approx((1.0 / 9.0) / 2112.0, rel=1e-9)
    assert witness == 5.260942760937976e-05
    assert 0.0 < minimizer < witness


@pytest.mark.parametrize("betas", [(0.1,), (0.1, 0.1), (0.01, 0.19, 0.05)])
def test_tail_witness_is_the_condition2_edge(betas):
    contraction = DiagonalContraction(betas)
    n = contraction.n
    witness = _tail(n)[0]
    tiny = LogScalar.from_value(1e-30)
    at = feasibility_report(tiny, contraction, 0.5, witness)
    assert at.condition2_ok and at.feasible
    assert at.condition2_lhs == 3.0 ** -n
    above = feasibility_report(tiny, contraction, 0.5, math.nextafter(witness, 1.0))
    assert not above.condition2_ok


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=0.199), min_size=1, max_size=3),
    st.floats(min_value=0.05, max_value=0.999),
    st.integers(min_value=1, max_value=1000),
    # delta: log-uniform over (0, 1/216], or 2^-k below where condition (2)
    # ends, 3^-n / pack, so that the draws reach the tail witness itself
    st.one_of(st.floats(min_value=math.log(1e-300), max_value=-math.log(216.0)),
              st.tuples(st.floats(min_value=1.0, max_value=60.0))),
    # log slack of condition (1) at delta; below 0 it fails there
    st.floats(min_value=-2.0, max_value=30.0),
)
def test_feasible_anywhere_is_feasible_at_tail_witness(betas, c, m, delta_log, slack):
    contraction = DiagonalContraction(tuple(betas))
    n = contraction.n
    if isinstance(delta_log, tuple):
        top = 3.0 ** -n / (8.0 ** n * (1.0 + 2.0 ** (2 * n + 1)))
        delta_log = math.log(top) + math.log1p(-(2.0 ** -delta_log[0]))
    delta = math.exp(delta_log)
    gap = math.log(-math.expm1((1.0 - c) * contraction.log_det()))
    alpha = LogScalar((2.0 * delta_log + gap - math.log(m) - slack) / c)
    if feasibility_report(alpha, contraction, c, delta, m).feasible:
        witness = _tail(n)[0]
        assert feasibility_report(alpha, contraction, c, witness, m).feasible


def test_max_pattern_size_auto_witness_beats_fixed():
    alpha = LogScalar.from_value(1e-15)
    fixed_delta = 1.0 / 864.0

    def fixed_count(cap):
        m = 0
        while m < cap and feasibility_report(alpha, B1, 0.5, fixed_delta, m + 1).feasible:
            m += 1
        return m

    fixed = fixed_count(1 << 20)
    auto = max_pattern_size(alpha, B1, 0.5)
    assert auto >= fixed >= 1
    witness = _tail(1)[0]
    assert feasibility_report(alpha, B1, 0.5, witness, auto).feasible
    for cap in (3, 100):
        capped_auto = max_pattern_size(alpha, B1, 0.5, cap)
        assert min(fixed, cap) == fixed_count(cap) <= capped_auto
        assert capped_auto == min(auto, cap)
        assert feasibility_report(alpha, B1, 0.5, witness, capped_auto).feasible


def _bisected_count(alpha, contraction, c, cap):
    """The count search this module used before the closed form: doubling
    up to the cap, then bisection, at the tail witness."""
    delta = _tail(contraction.n)[0]

    def feasible(m):
        return feasibility_report(alpha, contraction, c, delta, m).feasible

    if not feasible(1):
        return 0
    lo, hi = 1, 2
    while hi <= cap and feasible(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, cap + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["rco", "rcd", "raw"]),
    st.integers(min_value=12, max_value=60),
    st.integers(min_value=12, max_value=60),
    st.integers(min_value=2 ** 20, max_value=2 ** 40),
    st.lists(st.floats(min_value=1e-3, max_value=0.199), min_size=1, max_size=3),
    st.floats(min_value=0.0, max_value=1.0),
    # log of the count where condition (1) binds; an integer's log puts
    # the edge exactly on a count
    st.one_of(st.floats(min_value=-2.0, max_value=45.0),
              st.integers(min_value=1, max_value=2 ** 41).map(math.log)),
    st.sampled_from([1, 3, 100, 1 << 40]),
)
def test_closed_form_count_matches_bisection(kind, ru, rv, du, betas, where, edge, cap):
    if kind == "rco":
        spec = RcoSpec(ru, rv, 1 + ru % 3, 4 + rv % 2)
        c = 1.0 - 10.0 ** (-4.0 + 3.0 * where)
        alpha, contraction = _rate(spec, c, float(spec.t)), spec.contraction()
    elif kind == "rcd":
        spec = RcdSpec(du, du + ru)
        c = 1.0 - 10.0 ** (-3.0 + where)
        alpha, contraction = _rate(spec, c, 1.0 + where), spec.contraction()
    else:
        contraction = DiagonalContraction(tuple(betas))
        c = 0.05 + 0.949 * where
        witness = _tail(contraction.n)[0]
        rhs1 = 2.0 * math.log(witness) + math.log(
            -math.expm1((1.0 - c) * contraction.log_det()))
        alpha = LogScalar((rhs1 - edge) / c)
    assume(alpha.log < 0.0)
    calls = 0
    verdict = optimize.pattern_feasible

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return verdict(*args, **kwargs)

    with mock.patch.object(optimize, "pattern_feasible", counted):
        count = max_pattern_size(alpha, contraction, c, cap)
    assert count == _bisected_count(alpha, contraction, c, cap)
    assert calls <= 3


def test_max_pattern_size_huge_exponent_returns_the_cap():
    alpha = LogScalar(-1e4)
    for cap in (1, 3, 100, 1 << 40):
        assert max_pattern_size(alpha, B1, 0.5, cap) == cap


def test_max_pattern_size_rejects_out_of_range_inputs():
    alpha = LogScalar.from_value(1e-15)
    for cap in (0, (1 << 40) + 1):
        with pytest.raises(ValueError, match="pattern cap"):
            max_pattern_size(alpha, B1, 0.5, cap)
    for c in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"c in \(0,1\)"):
            max_pattern_size(alpha, B1, c)


def test_max_pattern_size_rejects_a_zero_rate_before_any_verdict(monkeypatch):
    # the report's ValueError, not the ZeroDivisionError of the floor
    monkeypatch.setattr(optimize, "pattern_feasible", None)
    for cap in (1, 1 << 40):
        with pytest.raises(ValueError, match="budget rate must be positive"):
            max_pattern_size(LogScalar(-math.inf), B1, 0.5, cap)


def test_count_search_makes_few_reports_per_probe(monkeypatch):
    # the count search reads verdicts; reports come from the witness search
    calls = reports = 0
    verdict, report = optimize.pattern_feasible, certify.feasibility_report

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return verdict(*args, **kwargs)

    def counted_report(*args, **kwargs):
        nonlocal reports
        reports += 1
        return report(*args, **kwargs)

    monkeypatch.setattr(optimize, "pattern_feasible", counted)
    monkeypatch.setattr(certify, "feasibility_report", counted_report)
    res = optimize_pattern_count(RcoSpec(17, 24, 1, 5))
    assert res.pattern_count == 232
    assert calls <= 3 * res.probes
    assert reports < calls


# A search cell as test_best_witness_beats_a_dense_scan draws it: ranges where
# most cells certify, log10(1 - c) in [-4, -1] for cut-out cells and in
# [-3, -2] for corner cells.
CELLS = (
    st.sampled_from(["rco", "rcd"]),
    st.integers(min_value=12, max_value=60),
    st.integers(min_value=12, max_value=60),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=4, max_value=5),
    st.integers(min_value=2 ** 20, max_value=2 ** 40),
    st.integers(min_value=2 ** 20, max_value=2 ** 40),
    st.sampled_from([1.0 - 1e-5, 1.0, 1.25, 1.5, 2.0 - 1e-5, 2.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


def _cell(kind, ru, rv, m, rt, du, dv, dt, where):
    """(alpha, contraction, c) of a drawn cell; assumes a rate below 1."""
    if kind == "rco":
        spec, t, c = RcoSpec(ru, rv, m, rt), float(rt), 1.0 - 10.0 ** (-4.0 + 3.0 * where)
    else:
        spec, t, c = RcdSpec(du, dv), dt, 1.0 - 10.0 ** (-3.0 + where)
    alpha = _rate(spec, c, t)
    assume(alpha.log < 0.0)
    return alpha, spec.contraction(), c


@settings(max_examples=30, deadline=None)
@given(*CELLS)
def test_best_witness_beats_a_dense_scan(kind, ru, rv, m, rt, du, dv, dt, where):
    alpha, contraction, c = _cell(kind, ru, rv, m, rt, du, dv, dt, where)
    count = max_pattern_size(alpha, contraction, c)
    assume(count > 0)
    witness = _tail(contraction.n)[0]
    chosen = _best_witness(alpha, contraction, c, count)
    shave = math.log1p(-REL_MARGIN)

    def clears(report):
        return report.feasible and \
            report.condition1_lhs_log <= report.condition1_rhs_log + shave

    delta1 = math.exp(0.5 * (math.log(count) + c * alpha.log
                             - math.log(-math.expm1((1.0 - c) * contraction.log_det()))))
    scan_best = None
    for i in range(2000):
        d = delta1 * (witness / delta1) ** (i / 1999) if i < 1999 else witness
        bound = pattern_dim_bound(alpha, contraction, c, d, count)
        if clears(bound.report) and (scan_best is None or bound.stated > scan_best):
            scan_best = bound.stated
    if scan_best is None:
        return
    assert chosen is not None
    # the ranked floats are those of the report-built bound at the chosen delta
    bound = pattern_dim_bound(alpha, contraction, c, chosen[2], count)
    assert chosen == (bound.stated, bound.combined, bound.report.delta,
                      bound.report.free_steps.value)
    assert clears(bound.report)
    assert bound.stated >= scan_best
    # every certifying witness lies in the tail, where lhs2 is exactly 3^-n
    assert bound.report.condition2_lhs == 3.0 ** -contraction.n


@settings(max_examples=60, deadline=None)
@given(*CELLS, st.integers(min_value=-1, max_value=1))
def test_ranked_floats_are_the_bound_of_the_report(kind, ru, rv, m, rt, du, dv, dt, where,
                                                   shift):
    # at each candidate delta of _best_witness, with and without the margin
    # on condition (1), the ranking reads pattern_dim_bound's floats bit for
    # bit, or both reject; shift = 1 draws a count that no witness certifies
    alpha, contraction, c = _cell(kind, ru, rv, m, rt, du, dv, dt, where)
    count = max_pattern_size(alpha, contraction, c) + shift
    assume(count > 0)
    witness, minimizer = _tail(contraction.n)
    low = min(_least_condition1_delta(alpha, contraction, c, count), witness)
    for d in {low, min(max(minimizer, low), witness), witness}:
        bound = pattern_dim_bound(alpha, contraction, c, d, count)
        report = bound.report
        rhs1 = certify._condition1_rhs_log(contraction, c, d)
        for slack in (0.0, math.log1p(-REL_MARGIN)):
            ranked = certify.pattern_bound_values(alpha, contraction, c, d, count, rhs1 + slack)
            if report.feasible and report.condition1_lhs_log <= report.condition1_rhs_log + slack:
                assert ranked == (bound.stated, bound.combined, d, report.free_steps.value)
            else:
                assert ranked is None


@settings(max_examples=60, deadline=None)
@given(*CELLS, st.sampled_from([1, 3, 100, MAX_PATTERN_CAP]),
       st.integers(min_value=1, max_value=MAX_PATTERN_CAP))
def test_a_failed_verdict_at_k_bounds_the_count_below_k(kind, ru, rv, m, rt, du, dv, dt,
                                                        where, cap, drawn):
    # the pruned search defers a cell whose verdict at the running top count
    # K fails; that is exact only if the cell's count is then below K
    alpha, contraction, c = _cell(kind, ru, rv, m, rt, du, dv, dt, where)
    count = max_pattern_size(alpha, contraction, c, cap)
    delta = _tail(contraction.n)[0]
    rhs1 = certify._condition1_rhs_log(contraction, c, delta)
    near = range(max(count - 3, 1), min(count + 3, cap) + 1)
    for k in {*near, 1 + (drawn - 1) % cap}:
        if not optimize.pattern_feasible(alpha, contraction, c, delta, k, rhs1):
            assert count < k
        else:
            assert count >= k


@settings(max_examples=60, deadline=None)
@given(*CELLS, st.floats(min_value=0.0, max_value=1.0))
def test_dim_ceiling_bounds_the_best_witness(kind, ru, rv, m, rt, du, dv, dt, where, below):
    # the search stops witnessing at the first cell whose ceiling is below
    # the best bound found, so the ceiling must bound every witness's bound:
    # at the cell's count, at one above it that no witness certifies, and
    # at a drawn count below it, whose condition-(1) boundary can lie below
    # the minimizer of K
    alpha, contraction, c = _cell(kind, ru, rv, m, rt, du, dv, dt, where)
    top = max_pattern_size(alpha, contraction, c)
    for count in {max(round(top * below), 1), max(top, 1), top + 1}:
        ceiling = _dim_ceiling(alpha, contraction, c, count)
        found = _best_witness(alpha, contraction, c, count)
        if found is not None:       # so a ceiling of -inf means no witness
            assert ceiling >= found[0]


def test_witness_choice_certifies_few_candidates_per_probe(monkeypatch):
    calls = 0
    rank = optimize.pattern_bound_values

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return rank(*args, **kwargs)

    monkeypatch.setattr(optimize, "pattern_bound_values", counted)
    res = optimize_pattern_count(RcoSpec(17, 24, 1, 5))
    assert res.pattern_count == 232
    assert 0 < calls <= 4 * res.probes


# ------------------------------------------------------------------- grids


def test_c_grid_shape():
    for grid in (_SEARCH_GRID, _SMALLEST_U_GRID):
        c_grid = _c_grid(grid)
        assert len(c_grid) == grid.c_count
        assert all(0.0 < c < 1.0 for c in c_grid)
        assert c_grid == tuple(sorted(c_grid))
        assert max(c_grid) == pytest.approx(1.0 - 1e-4)
        assert min(c_grid) == pytest.approx(0.4)
    # (c_count, refine_passes, refine_points, t_lo, t_hi, t_step), as README states
    assert _SEARCH_GRID == (32, 2, 9, 0.25, 6.0, 0.25)
    assert _SMALLEST_U_GRID == (12, 1, 7, 0.5, 3.0, 0.5)


def test_t_grid_contains_near_integer_probes():
    grid = _t_grid(_SEARCH_GRID)
    assert 1.0 in grid and 6.0 in grid
    for j in (1, 2, 3, 4, 5, 6):
        assert any(abs(t - (j - 1e-5)) < 1e-12 for t in grid)
        assert any(abs(t - (j - 1e-8)) < 1e-12 for t in grid)
    # 24 steps of 0.25 from 0.25 to 6, and two probes below each of 1..6;
    # smallest-u's 6 steps of 0.5 from 0.5 to 3, and two below each of 1..3
    assert len(grid) == 36
    assert len(_t_grid(_SMALLEST_U_GRID)) == 12


def test_t_grid_stays_inside_its_range():
    grid = _t_grid(_SEARCH_GRID._replace(t_lo=2.5, t_hi=4.0))
    assert min(grid) == 2.5 and max(grid) == 4.0
    assert 3.0 - 1e-5 in grid and 4.0 - 1e-8 in grid
    assert 1.0 - 1e-5 not in grid and 2.0 - 1e-5 not in grid
    # a step that does not divide the range stops short of t_hi
    assert max(_t_grid(_SEARCH_GRID._replace(t_hi=1.2))) == 1.0


# --------------------------------------------------- frozen family searches


def test_cutout_12_15_certifies_exactly_three():
    res = optimize_pattern_count(RcoSpec(12, 15, 1, 5))
    assert res.feasible
    assert res.pattern_count == 3          # count 4 is out of reach here
    assert res.dim_bound >= 1.999996
    assert res.t == 5.0
    assert res.certificate is not None
    assert res.certificate.fields["feasible"] is True


def test_cutout_17_24_certifies_232():
    res = optimize_pattern_count(RcoSpec(17, 24, 1, 5))
    assert res.pattern_count == 232
    assert res.dim_bound >= 1.99997


def test_corner_powers_of_two_certifies_four():
    res = optimize_pattern_count(RcdSpec(2 ** 37, 2 ** 38))
    assert res.pattern_count == 4
    assert res.dim_bound >= 1.99999
    assert 0.99 <= res.t < 1.0              # cover count drops below integer t


def test_dimension_only_search_pins_count_to_one():
    res = optimize_pattern_count(RcoSpec(12, 15, 1, 5), want_patterns=False)
    assert res.feasible and res.pattern_count == 1
    assert res.dim_bound >= 1.999996
    assert res.certificate is not None


def test_pattern_cap_is_honoured(monkeypatch):
    # uncapped this family certifies 232; under a cap of 100 (the module
    # constant, lowered) the cap must bind exactly
    monkeypatch.setattr(optimize, "MAX_PATTERN_CAP", 100)
    res = optimize_pattern_count(RcoSpec(17, 24, 1, 5))
    assert res.pattern_count == 100
    assert res.certificate is not None
    assert res.certificate.fields["pattern_count"] == 100


def test_search_is_deterministic():
    a = optimize_pattern_count(RcoSpec(12, 15, 1, 5))
    b = optimize_pattern_count(RcoSpec(12, 15, 1, 5))
    assert a.certificate is not None and b.certificate is not None
    assert a.certificate.to_text() == b.certificate.to_text()
    assert (a.pattern_count, a.c, a.t, a.delta) == (b.pattern_count, b.c, b.t, b.delta)


U5, V5 = 900019043105, 999921083009
# the nine headline instances; one member is a single-family search
HEADLINE = {
    "RCO(12,15,1,5)": [RcoSpec(12, 15, 1, 5)],
    "RCO(17,24,1,5)": [RcoSpec(17, 24, 1, 5)],
    "RCO(271828,314159,2,1)": [RcoSpec(271828, 314159, 2, 1)],
    "RCD(2^37,2^38)": [RcdSpec(2 ** 37, 2 ** 38)],
    "RCD(U5,V5)": [RcdSpec(U5, V5)],
    "RCD+5xRCO(m=4)": [RcdSpec(U5, V5)] + [RcoSpec(U5, V5, 4, k) for k in range(1, 6)],
    "2xRCD(2^37,2^36)+RCO(1,2)+RCO(1,6)": [
        RcdSpec(2 ** 37, 2 ** 36), RcdSpec(2 ** 37, 2 ** 36),
        RcoSpec(2 ** 37, 2 ** 36, 1, 2), RcoSpec(2 ** 37, 2 ** 36, 1, 6)],
    "RCD(2^36,2^40)+RCO(1,1)": [RcdSpec(2 ** 36, 2 ** 40), RcoSpec(2 ** 36, 2 ** 40, 1, 1)],
    "RCO(425,365,10,3)+RCO(1,2)": [RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)],
}


def _headline_search(members, want_patterns):
    if len(members) == 1:
        return optimize_pattern_count(members[0], want_patterns=want_patterns)
    return optimize_intersection(members, want_patterns=want_patterns)


@pytest.mark.parametrize("name, want_patterns, cap", [
    ("RCO(12,15,1,5)", True, MAX_PATTERN_CAP),
    ("RCO(17,24,1,5)", True, MAX_PATTERN_CAP),
    ("RCO(17,24,1,5)", True, 100),
    ("RCD(U5,V5)", True, MAX_PATTERN_CAP),
    ("RCD+5xRCO(m=4)", True, MAX_PATTERN_CAP),
    ("RCD(2^36,2^40)+RCO(1,1)", False, MAX_PATTERN_CAP),
])
def test_trace_rows_are_the_witnessed_cells(monkeypatch, name, want_patterns, cap):
    # the trace is the _best_witness calls that found a witness, in call
    # order, each row at the (c, t) of its cell's rate; the winner is a row
    monkeypatch.setattr(optimize, "MAX_PATTERN_CAP", cap)
    calls = []
    best_witness = optimize._best_witness

    def recorded(alpha, contraction, c, count):
        found = best_witness(alpha, contraction, c, count)
        if found is not None:
            calls.append((alpha.log, c, count, found[0], found[2]))
        return found

    monkeypatch.setattr(optimize, "_best_witness", recorded)
    members = HEADLINE[name]
    res = _headline_search(members, want_patterns)
    assert res.feasible and len(res.trace) == len(calls) > 0
    assert [row[1:] for row in res.trace] == [call[1:] for call in calls]
    covers = {}
    assert [_reference_rate(members, c, t, covers).log for t, c, *_ in res.trace] == \
        [call[0] for call in calls]
    assert (res.t, res.c, res.pattern_count, res.dim_bound, res.delta) in res.trace


@pytest.mark.parametrize("spec, blocked", [(RcoSpec(17, 24, 1, 5), 231),
                                           (RcdSpec(U5, V5), 20)])
def test_pruned_search_falls_to_the_next_count(monkeypatch, spec, blocked):
    # no cell with a count >= blocked gets a witness, so the pruned search
    # must fall through the top counts to the best witnessed one below
    counts: list[int] = []
    best_witness = optimize._best_witness

    def no_top_witness(alpha, contraction, c, count):
        counts.append(count)
        return None if count >= blocked else best_witness(alpha, contraction, c, count)

    monkeypatch.setattr(optimize, "_best_witness", no_top_witness)
    res = optimize_pattern_count(spec)
    point, probes = _reference_search([spec], _SEARCH_GRID, True, blocked)
    assert res.probes == probes
    assert (res.pattern_count, res.c, res.t, res.delta, res.free_steps,
            res.alpha_log, res.dim_bound, res.dim_bound_combined) == point
    assert res.feasible and res.pattern_count < blocked
    assert max(counts) >= blocked
    assert len(counts) < probes


def _reference_rate(members, c, t, covers):
    """The rate of the members' intersection at (c, t) from rco_alpha,
    rcd_alpha and combine_alphas, or None if a member's is not below 1;
    `covers` caches the cover count per t."""
    if t not in covers and any(isinstance(sp, RcdSpec) for sp in members):
        covers[t] = rcd_cover_count(*members[0].contraction().denominators, t)
    alphas = [rco_alpha(sp.u, sp.v, sp.m, sp.t, c) if isinstance(sp, RcoSpec)
              else rcd_alpha(sp.u, sp.v, c, t, covers[t]) for sp in members]
    if len(alphas) == 1:
        return alphas[0]
    if any(a.log >= 0.0 for a in alphas):
        return None
    return combine_alphas(alphas, c)


def _reference_search(members, grid, want_patterns, blocked=None, counted=None,
                      cap=MAX_PATTERN_CAP):
    """(SearchResult fields the search decides, probes) of a brute-force
    search that shares no code with _search's pruning: every cell is counted
    with max_pattern_size on rates from _reference_rate, every counted cell
    is witnessed with pattern_dim_bound at the three candidate deltas, and
    the winner is the largest by _better's key, the first on ties.  Cells
    whose count is `blocked` or more get no witness.  `counted`, if given,
    receives (alpha, c, count, stated bounds of the clearing candidates) of
    every other cell with a count.  Counts stop at `cap`."""
    contraction = members[0].contraction()
    if len(members) == 1 and isinstance(members[0], RcoSpec):
        t_values = (float(members[0].t),)
    elif any(isinstance(sp, RcdSpec) for sp in members):
        t_values = _t_grid(grid)
    else:
        t_values = (0.0,)
    cap = cap if want_patterns else 1
    witness, minimizer = _tail(contraction.n)
    shave = math.log1p(-REL_MARGIN)
    covers = {}

    def best_of(ts, cs):
        points = []
        for t in ts:
            for c in cs:
                alpha = _reference_rate(members, c, t, covers)
                if alpha is None or alpha.log >= 0.0:
                    continue
                count = max_pattern_size(alpha, contraction, c, cap)
                if count == 0 or (blocked is not None and count >= blocked):
                    continue
                stated = []
                if counted is not None:
                    counted.append((alpha, c, count, stated))
                low = _least_condition1_delta(alpha, contraction, c, count)
                if low > witness:
                    continue
                for d in (low, min(max(minimizer, low), witness), witness):
                    bound = pattern_dim_bound(alpha, contraction, c, d, count)
                    report = bound.report
                    if report.feasible and \
                            report.condition1_lhs_log <= report.condition1_rhs_log + shave:
                        stated.append(bound.stated)
                        points.append((
                            (count, bound.stated, -c, -d, -t),
                            (count, c, t, d, report.free_steps.value, alpha.log,
                             bound.stated, bound.combined)))
        return max(points, key=lambda p: p[0], default=None)

    probes = len(t_values) * len(_c_grid(grid))
    best = best_of(t_values, _c_grid(grid))
    if best is None:
        return None, probes
    c_grid, t_grid = list(_c_grid(grid)), list(t_values)
    for _ in range(grid.refine_passes):
        cs = _refine_c(best[1][1], c_grid, grid.refine_points)
        ts = _refine_t(best[1][2], t_grid, grid.refine_points) if len(t_grid) > 1 else t_grid
        probes += len(ts) * len(cs)
        candidate = best_of(ts, cs)
        if candidate is not None and candidate[0] > best[0]:
            best = candidate
        c_grid, t_grid = sorted(set(c_grid) | set(cs)), sorted(set(t_grid) | set(ts))
    return best[1], probes


def _seeded_corner_members():
    rnd = random.Random(20261018)
    return [RcdSpec(2 ** 39 + rnd.randrange(2 ** 33), 2 ** 40 - rnd.randrange(2 ** 33))
            for _ in range(2)]


REFERENCE_CASES = [(name, members, len(members) == 1 or name == "RCD+5xRCO(m=4)")
                   for name, members in HEADLINE.items()]
REFERENCE_CASES += [(f"seeded RCD {i}", [spec], True)
                    for i, spec in enumerate(_seeded_corner_members(), start=1)]
# the dimension-only objective on the headline instances that certify counts
REFERENCE_CASES += [(f"{name} dimension-only", members, False)
                    for name, members, want in REFERENCE_CASES[:len(HEADLINE)] if want]


@pytest.mark.parametrize("name, members, want_patterns", REFERENCE_CASES,
                         ids=[case[0] for case in REFERENCE_CASES])
def test_search_equals_a_brute_force_reference(name, members, want_patterns):
    point, probes = _reference_search(members, _SEARCH_GRID, want_patterns)
    res = _headline_search(members, want_patterns)
    assert res.probes == probes
    assert res.feasible == (point is not None)
    if point is not None:
        assert (res.pattern_count, res.c, res.t, res.delta, res.free_steps,
                res.alpha_log, res.dim_bound, res.dim_bound_combined) == point


CAPPED_CASES = [case for case in REFERENCE_CASES if case[2]]


@pytest.mark.parametrize("name, members, want_patterns", CAPPED_CASES,
                         ids=[case[0] for case in CAPPED_CASES])
def test_capped_search_equals_a_brute_force_reference(monkeypatch, name, members,
                                                      want_patterns):
    # the counts stop at the cap: MAX_PATTERN_CAP lowered to 100, below the
    # uncapped count of RCO(17,24,1,5)
    monkeypatch.setattr(optimize, "MAX_PATTERN_CAP", 100)
    point, probes = _reference_search(members, _SEARCH_GRID, want_patterns, cap=100)
    res = _headline_search(members, want_patterns)
    assert res.probes == probes
    assert res.feasible == (point is not None)
    if point is not None:
        assert res.pattern_count <= 100
        assert (res.pattern_count, res.c, res.t, res.delta, res.free_steps,
                res.alpha_log, res.dim_bound, res.dim_bound_combined) == point


@pytest.mark.parametrize("name, members, want_patterns", REFERENCE_CASES,
                         ids=[case[0] for case in REFERENCE_CASES])
def test_dim_ceiling_bounds_every_reference_cell(name, members, want_patterns):
    # every cell the brute-force reference counts, at its count: the ceiling
    # is at least each clearing candidate's bound, so -inf only where none clears
    counted = []
    _reference_search(members, _SEARCH_GRID, want_patterns, counted=counted)
    contraction = members[0].contraction()
    assert counted
    for alpha, c, count, stated in counted:
        ceiling = _dim_ceiling(alpha, contraction, c, count)
        assert ceiling >= max(stated, default=-math.inf)


@pytest.mark.parametrize("name, members, want_patterns", REFERENCE_CASES,
                         ids=[case[0] for case in REFERENCE_CASES])
def test_each_pass_witnesses_few_cells(monkeypatch, name, members, want_patterns):
    # ranked by their ceilings, a pass's cells are witnessed until one's
    # ceiling falls below the best bound found; on these instances each pass
    # makes one _best_witness call, and the bound allows two
    calls = 0
    best_witness = optimize._best_witness

    def counted(*args):
        nonlocal calls
        calls += 1
        return best_witness(*args)

    monkeypatch.setattr(optimize, "_best_witness", counted)
    res = _headline_search(members, want_patterns)
    assert res.feasible
    assert 0 < calls <= 2 * (1 + _SEARCH_GRID.refine_passes)


@pytest.mark.parametrize("name", ["RCD(2^37,2^38)", "2xRCD(2^37,2^36)+RCO(1,2)+RCO(1,6)",
                                  "RCD(2^36,2^40)+RCO(1,1)", "RCO(425,365,10,3)+RCO(1,2)"])
def test_dimension_only_search_takes_no_verdict(monkeypatch, name):
    # a cell whose verdict at count 1 fails has no witness, so a search with
    # the count pinned to 1 witnesses its cells without taking verdicts
    calls = 0
    feasible = optimize.pattern_feasible

    def counted(*args):
        nonlocal calls
        calls += 1
        return feasible(*args)

    monkeypatch.setattr(optimize, "pattern_feasible", counted)
    res = _headline_search(HEADLINE[name], want_patterns=False)
    assert res.feasible and res.pattern_count == 1
    assert calls == 0


def test_count_search_drops_cells_that_fail_condition_1_at_count_1(monkeypatch):
    # c log(alpha) is condition (1)'s left side at count 1, so a cell whose
    # estimate rhs1 - c log(alpha) is negative counts 0 and has no witness:
    # the grid drops it before any count (3,420 of smallest-u(4,0)'s 4,621
    # counts were such cells, all 0)
    estimates = []
    tail_count = optimize._tail_count

    def recorded(alpha, contraction, c, delta, rhs1_log, cap, known=0):
        estimates.append(rhs1_log - c * alpha.log)
        return tail_count(alpha, contraction, c, delta, rhs1_log, cap, known)

    monkeypatch.setattr(optimize, "_tail_count", recorded)
    optimize.smallest_u_for_patterns(4, 0)
    assert estimates and min(estimates) >= -1e-9


# ------------------------------------------------------------ intersections


def test_intersection_rejects_mismatched_ratios():
    with pytest.raises(ValueError):
        optimize_intersection([RcoSpec(12, 15, 1, 5), RcoSpec(12, 16, 1, 5)])


def test_intersection_rejects_float_equal_ratios_with_other_denominators():
    # the betas 1/2^60 and 1/(2^60 + 1) are one float; the corners' rates are not
    members = [RcdSpec(2**60, 2**60), RcdSpec(2**60 + 1, 2**60)]
    assert members[0].contraction().betas == members[1].contraction().betas
    with pytest.raises(ValueError, match="share their denominators"):
        optimize_intersection(members)


def test_intersection_of_two_cutouts_frozen():
    res = optimize_intersection(
        [RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)]
    )
    assert res.feasible and res.pattern_count == 1
    assert res.dim_bound >= 1.99998
    assert res.dim_bound < 2.0
    assert res.certificate is not None
    assert res.certificate.kind == "intersection"
    assert res.certificate.extras["member_count"] == "2"


def test_intersection_dim_not_better_than_single_member():
    single = optimize_pattern_count(RcoSpec(425, 365, 10, 3), want_patterns=False)
    both = optimize_intersection(
        [RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)]
    )
    assert both.dim_bound <= single.dim_bound + 1e-12


def test_intersection_pattern_search():
    # the combined rate of this pair sits right at the budget cap, so only
    # single-point patterns certify — the point is the certificate kind
    res = optimize_intersection(
        [RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)], want_patterns=True
    )
    assert res.pattern_count >= 1
    assert res.certificate is not None
    assert res.certificate.kind == "pattern"


# ------------------------------------------------------- smallest supported


def test_smallest_u_brackets_the_threshold():
    res = smallest_u_for_patterns(4, 0)
    assert res.result.pattern_count >= 4
    assert res.below.pattern_count < 4
    assert res.u == 176924670080            # frozen bracket for the defaults
    cert = res.result.certificate
    assert cert is not None
    assert cert.fields["condition2_margin"] >= 2.0 ** -40


def test_smallest_u_validates_inputs():
    with pytest.raises(ValueError):
        smallest_u_for_patterns(0, 0)
    with pytest.raises(ValueError):
        smallest_u_for_patterns(2, -1)


def test_search_dump_is_deterministic(tmp_path):
    # the manifest holds the sha256 of every file the small dump writes: 5
    # searches and their certificates, smallest-u for M = 2 and the cover
    # counts; any byte change of a search output fails here
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, str(here.parent / "scripts" / "search_dump.py"),
                    str(tmp_path), "--small"], check=True)
    lines = (here / "data" / "search_dump_small.sha256").read_text().splitlines()
    manifest = {name: digest for digest, name in (line.split("  ") for line in lines)}
    assert len(manifest) == 14
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(manifest)
    for name, digest in manifest.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# ------------------------------------------------------------ rate rows


@pytest.mark.parametrize("name", [name for name, members in HEADLINE.items() if len(members) > 1])
def test_intersection_rows_are_the_combined_rate_bit_for_bit(name):
    members = HEADLINE[name]
    rate_row, member_alphas = _intersection_rates(members)
    has_corner = any(isinstance(sp, RcdSpec) for sp in members)
    for t in _t_grid(_SEARCH_GRID) if has_corner else (0.0,):
        rate = rate_row(t)
        for c in _c_grid(_SEARCH_GRID):
            alphas = member_alphas(c, t)
            assert alphas == [rcd_alpha(sp.u, sp.v, c, t) if isinstance(sp, RcdSpec)
                              else rco_alpha(sp.u, sp.v, sp.m, sp.t, c) for sp in members]
            want = (combine_alphas(alphas, c).log if all(a.log < 0.0 for a in alphas)
                    else math.inf)
            assert rate(c) == want, (name, t, c)


@pytest.mark.parametrize("family", [RcdSpec(2**37, 2**38), RcdSpec(7, 4), RcdSpec(U5, V5),
                                    RcoSpec(17, 24, 1, 5), RcoSpec(271828, 314159, 2, 1)])
def test_family_rows_are_the_rate_bit_for_bit(family):
    rate_row = _family_rates(family)
    ts = _t_grid(_SEARCH_GRID) if isinstance(family, RcdSpec) else (float(family.t),)
    for t in ts:
        rate = rate_row(t)
        for c in _c_grid(_SEARCH_GRID):
            want = (rcd_alpha(family.u, family.v, c, t) if isinstance(family, RcdSpec)
                    else rco_alpha(family.u, family.v, family.m, family.t, c))
            assert rate(c) == want.log, (family, t, c)
