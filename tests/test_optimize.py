"""Optimizer tests: frozen search outcomes and search-engine invariants."""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gamecert import optimize
from gamecert.certify import (
    _pack_constant,
    condition2_parts,
    feasibility_report,
    pattern_dim_bound,
    pattern_feasible,
)
from gamecert.core import REL_MARGIN, DiagonalContraction, LogScalar, safe_floor_ratio
from gamecert.families import RcdSpec, RcoSpec
from gamecert.optimize import (
    DEFAULT_CONFIG,
    SMALLEST_U_CONFIG,
    SearchConfig,
    _admit,
    _best_witness,
    _c_grid,
    _flat_steps,
    _member_alpha,
    _t_grid,
    delta_max,
    max_pattern_size,
    optimize_intersection,
    optimize_pattern_count,
    smallest_u_for_patterns,
)

B1 = DiagonalContraction((0.1,))
B2 = DiagonalContraction((0.1, 0.1))


# ----------------------------------------------------------- witness search


def test_delta_max_rejects_rate_at_least_one():
    assert delta_max(B1, LogScalar.from_value(1.0)) is None
    assert delta_max(B1, LogScalar.from_value(2.0)) is None


def test_delta_max_saturates_for_tiny_rate():
    choice = delta_max(B1, LogScalar.from_value(1e-30))
    assert choice is not None
    # saturated cap: (1/3) * (1 - 2^-40) / 72
    assert choice.delta == pytest.approx(1.0 / 216.0, rel=1e-9)
    assert choice.tag == "approximate"      # ratio is far beyond 2^53
    true_floor = math.floor(choice.delta / 1e-30)
    assert 0 < choice.free_steps <= true_floor
    assert choice.free_steps >= true_floor // 2


def test_delta_max_is_admissible_and_monotone():
    prev = 0.0
    for a in (1e-3, 1e-4, 1e-5, 1e-8, 1e-12):
        choice = delta_max(B1, LogScalar.from_value(a))
        assert choice is not None
        rep = feasibility_report(LogScalar.from_value(a), B1, 0.5, choice.delta)
        assert rep.condition2_ok
        assert rep.free_steps.value == choice.free_steps
        assert choice.delta >= prev
        prev = choice.delta


def test_delta_max_matches_fine_scan():
    a = 2e-3
    choice = delta_max(B1, LogScalar.from_value(a))
    assert choice is not None
    best = 0.0
    d = a
    while d < 1.0 / 100.0:
        rep = feasibility_report(LogScalar.from_value(a), B1, 0.5, d)
        if rep.condition2_ok and rep.free_steps.value >= 1:
            best = max(best, d)
        d *= 1.0005
    assert choice.delta >= best * (1.0 - 0.0006)


def test_delta_max_handles_astronomic_ratio():
    choice = delta_max(B2, LogScalar(-800.0))
    assert choice is not None
    assert choice.delta == pytest.approx((1.0 / 9.0) / 2112.0, rel=1e-9)


def _ascending_delta_max(contraction, combined_alpha):
    """delta_max as an exhaustive ascending walk over every slice."""
    if combined_alpha.is_zero() or combined_alpha.log >= 0.0:
        return None
    pack = _pack_constant(contraction.n)

    def cap(steps):
        return condition2_parts(contraction, 1.0, steps)[0] * (1.0 - REL_MARGIN) / pack

    best = None
    flat = _flat_steps(contraction)
    if combined_alpha.log > -650.0:
        rate = math.exp(combined_alpha.log)
        for steps in range(1, flat + 1):
            hi = min(cap(steps), (steps + 1) * rate * (1.0 - 2.0 ** -40))
            if hi <= steps * rate or hi <= 0.0 or hi >= 1.0:
                continue
            check = safe_floor_ratio(hi, combined_alpha)
            if not check.usable or check.value < 1 or hi > cap(check.value):
                continue
            choice = _admit(contraction, combined_alpha, hi)
            if choice is not None and (best is None or choice.delta > best.delta):
                best = choice
    saturated = cap(flat)
    if 0.0 < saturated < 1.0:
        check = safe_floor_ratio(saturated, combined_alpha)
        if check.usable and check.value > flat:
            choice = _admit(contraction, combined_alpha, saturated)
            if choice is not None and (best is None or choice.delta > best.delta):
                best = choice
    return best


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=0.199), min_size=1, max_size=3),
    # log rates down to 1e-300 seldom put a slice's cap inside the slice,
    # so half the draws aim at slice `steps`: rate = 3^-n / pack / (steps + frac)
    st.one_of(st.floats(min_value=math.log(1e-300), max_value=math.log(1e-3)),
              st.tuples(st.integers(min_value=1, max_value=30),
                        st.floats(min_value=0.0, max_value=2.0))),
)
@example([0.1], math.log(1e-300))
@example([0.1, 0.1], -800.0)
@example([0.01, 0.19, 0.05], math.log(1e-3))
def test_delta_max_matches_exhaustive_walk(betas, rate_log):
    contraction = DiagonalContraction(tuple(betas))
    if isinstance(rate_log, tuple):
        steps, frac = rate_log
        n = contraction.n
        rate_log = -n * math.log(3.0) - math.log(_pack_constant(n) * (steps + frac))
    rate = LogScalar(rate_log)
    assert delta_max(contraction, rate) == _ascending_delta_max(contraction, rate)


def test_max_pattern_size_auto_witness_beats_fixed():
    alpha = LogScalar.from_value(1e-15)
    fixed, fixed_delta = max_pattern_size(alpha, B1, 0.5, 1.0 / 864.0)
    auto, auto_delta = max_pattern_size(alpha, B1, 0.5)
    assert auto >= fixed >= 1
    assert fixed_delta == 1.0 / 864.0
    assert pattern_feasible(alpha, B1, 0.5, auto_delta, auto).feasible
    for cap in (3, 100):
        capped_fixed, _ = max_pattern_size(alpha, B1, 0.5, 1.0 / 864.0, cap=cap)
        capped_auto, witness = max_pattern_size(alpha, B1, 0.5, cap=cap)
        assert capped_fixed == min(fixed, cap)
        assert capped_auto == min(auto, cap)
        assert pattern_feasible(alpha, B1, 0.5, witness, capped_auto).feasible


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
    chosen = _best_witness(alpha, contraction, c, count, witness)
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
    # every certifiable witness lies in the saturated tail of the slices
    assert chosen.report.free_steps.value > _flat_steps(contraction)


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


# --------------------------------------------------------------- invariants


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1e-3))
def test_delta_max_always_admissible(rate):
    choice = delta_max(B2, LogScalar.from_value(rate))
    if choice is None:
        return
    rep = feasibility_report(LogScalar.from_value(rate), B2, 0.5, choice.delta)
    assert rep.condition2_ok
    assert rep.free_steps.value >= 1
