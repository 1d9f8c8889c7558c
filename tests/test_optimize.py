"""Optimizer tests: frozen search outcomes and search-engine invariants."""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamecert import optimize
from gamecert.certify import feasibility_report, pattern_dim_bound
from gamecert.core import REL_MARGIN, DiagonalContraction, LogScalar
from gamecert.families import RcdSpec, RcoSpec
from gamecert.optimize import (
    DEFAULT_CONFIG,
    SMALLEST_U_CONFIG,
    SearchConfig,
    _best_witness,
    _c_grid,
    _member_alpha,
    _t_grid,
    _tail,
    max_pattern_size,
    optimize_intersection,
    optimize_pattern_count,
    smallest_u_for_patterns,
)

B1 = DiagonalContraction((0.1,))


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
    fixed, fixed_delta = max_pattern_size(alpha, B1, 0.5, 1.0 / 864.0)
    auto, auto_delta = max_pattern_size(alpha, B1, 0.5)
    assert auto >= fixed >= 1
    assert fixed_delta == 1.0 / 864.0
    assert feasibility_report(alpha, B1, 0.5, auto_delta, auto).feasible
    for cap in (3, 100):
        capped_fixed, _ = max_pattern_size(alpha, B1, 0.5, 1.0 / 864.0, cap=cap)
        capped_auto, witness = max_pattern_size(alpha, B1, 0.5, cap=cap)
        assert capped_fixed == min(fixed, cap)
        assert capped_auto == min(auto, cap)
        assert feasibility_report(alpha, B1, 0.5, witness, capped_auto).feasible


@settings(max_examples=30, deadline=None)
@given(
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
def test_best_witness_beats_a_dense_scan(kind, ru, rv, m, rt, du, dv, dt, where):
    # ranges where most cells certify: log10(1 - c) in [-4, -1] for cut-out
    # cells and in [-3, -2] for corner cells
    if kind == "rco":
        spec, t, c = RcoSpec(ru, rv, m, rt), float(rt), 1.0 - 10.0 ** (-4.0 + 3.0 * where)
    else:
        spec, t, c = RcdSpec(du, dv), dt, 1.0 - 10.0 ** (-3.0 + where)
    alpha = _member_alpha(spec, c, t, {})
    assume(alpha.log < 0.0)
    contraction = spec.contraction()
    count, witness = max_pattern_size(alpha, contraction, c)
    assume(witness is not None)
    assert witness == _tail(contraction.n)[0]
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
    assert clears(chosen.report)
    assert chosen.stated >= scan_best
    # every certifying witness lies in the tail, where lhs2 is exactly 3^-n
    assert chosen.report.condition2_lhs == 3.0 ** -contraction.n


def test_witness_choice_certifies_few_candidates_per_probe(monkeypatch):
    calls = 0
    certify = optimize.pattern_dim_bound

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(optimize, "pattern_dim_bound", counted)
    res = optimize_pattern_count(RcoSpec(17, 24, 1, 5))
    assert res.pattern_count == 232
    assert calls <= 4 * res.probes


# ------------------------------------------------------------------- grids


def test_c_grid_shape():
    grid = _c_grid(DEFAULT_CONFIG)
    assert len(grid) == DEFAULT_CONFIG.c_count
    assert all(0.0 < c < 1.0 for c in grid)
    assert grid == tuple(sorted(grid))
    assert max(grid) == pytest.approx(1.0 - 1e-4)
    assert min(grid) == pytest.approx(0.4)


def test_t_grid_contains_near_integer_probes():
    grid = _t_grid(DEFAULT_CONFIG)
    assert 1.0 in grid and 6.0 in grid
    for j in (1, 2, 3, 4, 5, 6):
        assert any(abs(t - (j - 1e-5)) < 1e-12 for t in grid)
        assert any(abs(t - (j - 1e-8)) < 1e-12 for t in grid)


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


def test_search_is_deterministic():
    a = optimize_pattern_count(RcoSpec(12, 15, 1, 5))
    b = optimize_pattern_count(RcoSpec(12, 15, 1, 5))
    assert a.certificate is not None and b.certificate is not None
    assert a.certificate.to_text() == b.certificate.to_text()
    assert (a.pattern_count, a.c, a.t, a.delta) == (b.pattern_count, b.c, b.t, b.delta)


def test_pattern_cap_is_honoured():
    # uncapped this family certifies 232; the cap must bind exactly
    res = optimize_pattern_count(RcoSpec(17, 24, 1, 5), SearchConfig(pattern_cap=100))
    assert res.pattern_count == 100
    assert res.certificate is not None
    assert res.certificate.fields["pattern_count"] == 100


def test_trace_file_is_written(tmp_path):
    path = str(tmp_path / "trace.txt")
    res = optimize_pattern_count(
        RcoSpec(12, 15, 1, 5), SearchConfig(trace_path=path)
    )
    assert res.feasible
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines and all(line.startswith("t=") for line in lines)


# ------------------------------------------------------------ intersections


def test_intersection_rejects_mismatched_ratios():
    with pytest.raises(ValueError):
        optimize_intersection([RcoSpec(12, 15, 1, 5), RcoSpec(12, 16, 1, 5)])


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
