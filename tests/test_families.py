"""Family geometry and budget-rate formulas against independently derived values."""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
from array import array
import random
import subprocess
import sys
import time
import tracemalloc
from unittest import mock
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gamecert
from gamecert import core, families, patterns
from gamecert.core import BoxRegion, SizeError, _ceil_powers, _iroot
from gamecert.families import (
    MAX_DENOMINATOR_BITS,
    MAX_GEOMETRY_BITS,
    MAX_GEOMETRY_BOXES,
    AxisLattice,
    CoverCount,
    RcdSpec,
    RcoSpec,
    RectangleSet,
    RectEntry,
    StrategyLevel,
    _cover_piece,
    _rco_slots,
    covering_strategy_for_rcd,
    covering_strategy_for_rco,
    generate_rcd,
    generate_rco,
    rcd_alpha,
    rcd_cover_count,
    rco_alpha,
)


# ------------------------------------------------------------- budget rates


def test_rco_alpha_frozen_value():
    # (9*2)^(1/0.5) * 20^-1 = 324/20 = 16.2, derived by hand before coding
    assert rco_alpha(4, 5, 2, 1, 0.5).value == pytest.approx(16.2, rel=1e-12)


def test_rco_alpha_monotone_in_m_and_t():
    assert rco_alpha(4, 5, 3, 1, 0.5).log > rco_alpha(4, 5, 2, 1, 0.5).log
    assert rco_alpha(4, 5, 2, 2, 0.5).log < rco_alpha(4, 5, 2, 1, 0.5).log


def test_rco_alpha_rejects_bad_exponents():
    for c in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            rco_alpha(4, 5, 2, 1, c)
    with pytest.raises(ValueError):
        rco_alpha(4, 5, 2, 0.0, 0.5)
    # real t > 0 is fine
    assert rco_alpha(4, 5, 2, 0.5, 0.5).log == pytest.approx(
        2 * math.log(18) - 0.5 * math.log(20)
    )


def test_rcd_cover_count_frozen_values():
    got = rcd_cover_count(7, 4, 1)
    # option 1: ceil(7/6)*ceil(16/3) + 7*ceil(4/3) = 2*6 + 7*2 = 26
    # option 2: ceil(49/6)*ceil(4/3) + 4*ceil(7/6) = 9*2 + 4*2 = 26 (tie)
    assert got == CoverCount(26, "exact", 1)
    # square case u = v: both options 2(2u+2)
    assert rcd_cover_count(7, 7, 1).value == 2 * (2 * 7 + 2)


def test_rcd_cover_count_drops_just_below_integer_t():
    # At t slightly below 1 the strip ceilings collapse to 1:
    # count -> u^t + v^t-ish instead of ~2(u+v).
    at_1 = rcd_cover_count(2 ** 37, 2 ** 38, 1).value
    below = rcd_cover_count(2 ** 37, 2 ** 38, 1 - 1e-9).value
    assert below < at_1
    assert at_1 == 2 * (2 ** 37 + 2 ** 38 + 2)
    # just below: 1*ceil(v^(t+1)/(v-1)) + ceil(u^t)*1 vs transposed
    assert below <= 2 ** 38 + 2 ** 37 + 3


def test_rcd_cover_count_real_t_brackets_are_exact_for_small_args():
    exact_int = rcd_cover_count(7, 4, 2).value
    via_real = rcd_cover_count(7, 4, 2.0 + 0.0).value
    assert exact_int == via_real
    near = rcd_cover_count(7, 4, 1.5)
    # ceil(7^1.5/6)*ceil(4^2.5/3) + ceil(7^1.5)*ceil(4^1.5/3)
    # = ceil(3.086)*ceil(10.67) + ceil(18.52)*ceil(2.667) = 4*11 + 19*3 = 101
    # option 2: ceil(7^2.5/6)*ceil(4^1.5/3) + ceil(4^1.5)*ceil(7^1.5/6)
    # = ceil(21.6)*3 + 8*4 = 66 + 32 = 98
    assert near.value == 98
    assert near.option == 2


def _reference_ceilings(base, t):
    """[ceil(base^t/(base-1)), ceil(base^t), ceil(base^(t+1)/(base-1))] with
    the exponents Fraction(t) and Fraction(t) + 1 taken exactly, in mpmath
    at 120 digits past the magnitude."""
    import mpmath

    with mpmath.workdps(int((t + 1) * math.log10(base)) + 120):
        exponent = mpmath.mpf(t)               # a float converts exactly
        power = mpmath.power(base, exponent)
        above = mpmath.power(base, exponent + 1)
        return [int(mpmath.ceil(power / (base - 1))), int(mpmath.ceil(power)),
                int(mpmath.ceil(above / (base - 1)))]


def _reference_cover_count(u, v, t):
    a, cu, a2 = _reference_ceilings(u, t)
    d, cv, b = _reference_ceilings(v, t)
    n1, n2 = a * b + cu * d, a2 * d + cv * a
    return (n1, 1) if n1 <= n2 else (n2, 2)


def test_rcd_cover_count_takes_t_plus_1_exactly():
    # the float t + 1 drops the low bit of t = 1.2345: u^fl(t+1) once gave
    # ceil(u^(t+1)/(u-1)) = 572168206594182, three below the true ceiling,
    # tagged exact, so the count 1144336413193452 was too small
    u, v, t = 900019043105, 5, 1.2345
    assert Fraction(t + 1) != Fraction(t) + 1
    assert _reference_ceilings(u, t)[2] == 572168206594185
    got = rcd_cover_count(u, v, t)
    assert (got.value, got.option) == _reference_cover_count(u, v, t)
    assert got == CoverCount(1144336413193458, "exact", 2)


def test_cover_ceilings_match_exact_exponents_where_t_plus_1_rounds():
    rng = random.Random(20261018)
    ts = []
    while len(ts) < 24:
        t = rng.uniform(0.05, 6.0)
        if Fraction(t + 1) != Fraction(t) + 1:
            ts.append(t)
    for base in (5, 7, 12, 2 ** 37, 900019043105, 999921083009):
        for t in ts:
            got, _ = _ceil_powers(base, t, ((1, base - 1), (1, 1), (base, base - 1)))
            assert got == _reference_ceilings(base, t), (base, t)
    for u, v in ((7, 4), (2 ** 37, 2 ** 38), (900019043105, 999921083009)):
        for t in ts[:8]:
            got = rcd_cover_count(u, v, t)
            assert (got.value, got.option) == _reference_cover_count(u, v, t), (u, v, t)


def _reference_values(base, t):
    """[base^t/(base-1), base^t, base^(t+1)/(base-1)] as mpmath numbers, at
    120 digits past the magnitude, with the precision they were taken at."""
    import mpmath

    digits = int((t + 1) * math.log10(base)) + 120
    with mpmath.workdps(digits):
        power = mpmath.power(base, mpmath.mpf(t))
        return [power / (base - 1), power, power * base / (base - 1)], digits


_OFF_GRID_T = st.one_of(
    st.floats(min_value=0.05, max_value=6.0),
    st.tuples(st.integers(min_value=1, max_value=6),
              st.sampled_from([1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8]))
    .map(lambda jo: jo[0] - jo[1]),
)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=4, max_value=2 ** 40), _OFF_GRID_T)
def test_off_grid_cover_ceilings_are_settled_or_rounded_up(base, t):
    # t off the q <= 64 grid takes the integer bracket around mpmath's power
    assume(Fraction(t).denominator > 64)
    got, exact = _ceil_powers(base, t, ((1, base - 1), (1, 1), (base, base - 1)))
    want = _reference_ceilings(base, t)
    if exact:
        assert got == want, (base, t)
    else:
        assert all(g >= w for g, w in zip(got, want)), (base, t)
        # the bracket is only left open next to an integer
        import mpmath

        values, digits = _reference_values(base, t)
        with mpmath.workdps(digits):
            assert any(abs(x - mpmath.nint(x)) < mpmath.mpf(10) ** -20 for x in values)


_FLOAT_STEP_T = st.one_of(
    st.floats(min_value=0.05, max_value=6.0),
    st.tuples(st.integers(min_value=1, max_value=6),
              st.sampled_from([1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8]))
    .map(lambda jo: jo[0] - jo[1]),
    st.integers(min_value=1, max_value=6 * 64).map(lambda k: k / 64),
)


@st.composite
def _near_integer_powers(draw):
    """(base, t) with base^t within a few ulps of an integer n: t = ln n / ln base."""
    base = draw(st.integers(min_value=3, max_value=2 ** 40))
    n = draw(st.integers(min_value=2, max_value=2 ** 48))
    t = math.log(n) / math.log(base)
    assume(0.05 <= t <= 6.0)
    return base, t


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(st.one_of(st.integers(min_value=2, max_value=2 ** 40),
                                     st.integers(min_value=2 ** 53, max_value=2 ** 62)),
                           _FLOAT_STEP_T),
                 _near_integer_powers()))
def test_float_step_settles_only_true_ceilings(case):
    # wherever the float enclosure settles, its ceilings are the exact ones
    # and _ceil_powers returns them; a base from 2^53 up never takes it
    base, t = case
    ratios = ((1, base - 1), (1, 1), (base, base - 1))
    want = _reference_ceilings(base, t)
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_on_steps(patch)
        got, exact = _ceil_powers(base, t, ratios)
    if base >= 2 ** 53:
        assert calls["float"] == []
    if calls["float"] and None not in calls["float"]:
        assert calls["float"] == want, (base, t)
        assert (got, exact) == (want, True), (base, t)
    elif exact:
        assert got == want, (base, t)


def _spy_on_steps(monkeypatch):
    """Record the float step's answers and the mpmath step's calls."""
    calls = {"float": [], "mpmath": 0}
    float_step, nearest_power = core._float_step, core._nearest_power

    def float_spy(*args):
        calls["float"].append(float_step(*args))
        return calls["float"][-1]

    def mpmath_spy(*args):
        calls["mpmath"] += 1
        return nearest_power(*args)

    monkeypatch.setattr(core, "_float_step", float_spy)
    monkeypatch.setattr(core, "_nearest_power", mpmath_spy)
    return calls


@pytest.mark.parametrize("base, t", [
    (7, math.log(50) / math.log(7)),      # 7^t lies within an ulp or so of 50
    (2 ** 40, 1.3),                       # 2^52 = ceil(2^(40 t)) >= 2^50
])
def test_float_step_leaves_straddles_and_large_ceilings_to_mpmath(monkeypatch, base, t):
    assert Fraction(t).denominator > 64
    calls = _spy_on_steps(monkeypatch)
    ratios = ((1, base - 1), (1, 1), (base, base - 1))
    got, exact = _ceil_powers(base, t, ratios)
    assert calls["float"][-1] is None and calls["mpmath"] == 1
    assert exact and got == _reference_ceilings(base, t)


@pytest.mark.parametrize("u, v, t", [
    (2, 2, 1024.5),              # 2^t past the float range; integer roots settle it
    (2 ** 40, 2 ** 40, 25.7),    # 2^(40 t) past the float range; mpmath settles it
    (7, 4, 400.123),             # 7^t past the float range, t off the grid
])
def test_float_step_leaves_powers_past_the_float_range_to_later_steps(monkeypatch, u, v, t):
    # exp of t ln base would overflow; the float step declines before it,
    # and the cover count is the one the later steps alone give
    calls = _spy_on_steps(monkeypatch)
    got = rcd_cover_count(u, v, t)
    assert calls["float"] == [None] * len({u, v})
    monkeypatch.setattr(core, "_float_step", lambda *args: None)
    assert got == rcd_cover_count(u, v, t)


def test_float_step_settles_an_off_grid_cover_count(monkeypatch):
    calls = _spy_on_steps(monkeypatch)
    got = rcd_cover_count(7, 4, 1.2345)
    assert calls["mpmath"] == 0 and calls["float"] and None not in calls["float"]
    assert (got.value, got.option) == _reference_cover_count(7, 4, 1.2345)


def test_equal_bases_raise_the_base_to_t_once(monkeypatch):
    real = _ceil_powers
    calls = []

    def spy(base, t, ratios):
        calls.append(base)
        return real(base, t, ratios)

    monkeypatch.setattr("gamecert.families._ceil_powers", spy)
    for u, t in ((7, 1.2345), (7, 2.5), (176924670080, 1 - 1e-8), (900019043105, 1.2345)):
        calls.clear()
        got = rcd_cover_count(u, u, t)
        assert calls == [u]
        ratios = ((1, u - 1), (1, 1), (u, u - 1))
        (a, cu, a2), exact_u = real(u, t, ratios)
        (d, cv, b), exact_v = real(u, t, ratios)
        n1, n2 = a * b + cu * d, a2 * d + cv * a
        value, option = (n1, 1) if n1 <= n2 else (n2, 2)
        tag = "exact" if exact_u and exact_v and value < 2 ** 53 else "approximate"
        assert got == CoverCount(value, tag, option), (u, t)
    calls.clear()
    rcd_cover_count(7, 4, 1.2345)
    assert calls == [7, 4]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_rco_alpha_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="removal depth offset must be positive"):
        rco_alpha(4, 5, 2, t, 0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_rcd_cover_count_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="cover depth offset must be positive"):
        rcd_cover_count(7, 4, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0])
def test_rcd_alpha_rejects_bad_t_with_a_given_cover_count(t):
    # a given count skips rcd_cover_count, whose own check used to be the only one
    with pytest.raises(ValueError, match="cover depth offset must be positive"):
        rcd_alpha(7, 4, 0.5, t, cover_count=CoverCount(26, "exact", 1))


@pytest.mark.parametrize("q", range(1, 65))
def test_iroot_brackets_the_root(q):
    rng = random.Random(q)
    values = [0, 1, 2, 3, 7, 2 ** q, 3 ** q - 1, 3 ** q, 3 ** q + 1]
    values += [rng.getrandbits(bits) | 1 for bits in (8, 53, 64, 200, 256, 1100, 4000)]
    values += [(2 ** 70 + 12345) ** q - 1, (2 ** 70 + 12345) ** q]
    for x in values:
        r = _iroot(x, q)
        assert r ** q <= x < (r + 1) ** q, (x, q)


# (u, v): [(t, value, tag, option)], pinned from the earlier q <= 64 branch,
# which stepped from an mpmath estimate by integer comparisons
DYADIC_COVER_COUNTS = {
    (7, 4): [
        (0.25, 4, "exact", 1),
        (0.5, 6, "exact", 1),
        (1.5, 98, "exact", 2),
        (2.75, 5572, "exact", 1),
        (0.015625, 4, "exact", 1),
        (0.046875, 4, "exact", 1),
        (0.984375, 24, "exact", 2),
        (1.015625, 28, "exact", 1),
        (1.984375, 456, "exact", 1),
        (2.984375, 11697, "exact", 1),
        (5.984375, 254253707, "exact", 1),
    ],
    (2, 3): [
        (0.25, 6, "exact", 1),
        (0.5, 7, "exact", 2),
        (1.5, 33, "exact", 1),
        (2.75, 294, "exact", 1),
        (0.015625, 6, "exact", 1),
        (0.046875, 6, "exact", 1),
        (0.984375, 14, "exact", 1),
        (1.015625, 21, "exact", 1),
        (1.984375, 76, "exact", 1),
        (2.984375, 432, "exact", 1),
        (5.984375, 91481, "exact", 2),
    ],
    (12, 15): [
        (0.25, 5, "exact", 1),
        (0.5, 8, "exact", 2),
        (1.5, 462, "exact", 1),
        (2.75, 270374, "exact", 2),
        (0.015625, 4, "exact", 1),
        (0.046875, 4, "exact", 1),
        (0.984375, 56, "exact", 1),
        (1.015625, 60, "exact", 1),
        (1.984375, 5240, "exact", 1),
        (2.984375, 912720, "exact", 2),
        (5.984375, 5294801383268, "exact", 2),
    ],
    (137438953472, 274877906944): [
        (0.25, 1334, "exact", 1),
        (0.5, 895016, "exact", 2),
        (1.5, 80141325303875182757517, "approximate", 1),
        (2.75, 1334805615910494457990649593035103025748159701232662, "approximate", 2),
        (0.015625, 4, "exact", 1),
        (0.046875, 8, "exact", 1),
        (0.984375, 274200388593, "exact", 2),
        (1.015625, 1240039269800, "exact", 1),
        (1.984375, 6913711338723014078831178140796604, "approximate", 2),
        (2.984375, 261192629585098688302155845340193563708756105652483457194, "approximate", 2),
        (5.984375, 14083478726934185957293824839054378494895800692205529862809183122588136247124714008708850968443518488890202708007407325789940, "approximate", 1),
    ],
    (900019043105, 999921083009): [
        (0.25, 1975, "exact", 1),
        (0.5, 1948655, "exact", 1),
        (1.5, 1802390467464496189620138, "approximate", 1),
        (2.75, 1579866560967871691640644835307274153405547199341819220, "approximate", 1),
        (0.015625, 4, "exact", 1),
        (0.046875, 8, "exact", 1),
        (0.984375, 1234749783706, "exact", 1),
        (1.015625, 5846973961586, "exact", 1),
        (1.984375, 722225289697894682317064853201896177, "approximate", 2),
        (2.984375, 649965216792308205870868170615285771225869891086199567408926, "approximate", 1),
        (5.984375, 473742543939698714277880019296700318316211534147265876851738054480572536946773418575068840134982158804885929082404392546189528456689, "approximate", 1),
    ],
}


@pytest.mark.parametrize("uv", sorted(DYADIC_COVER_COUNTS))
def test_rcd_cover_count_dyadic_t_matches_pinned_table(uv):
    for t, value, tag, option in DYADIC_COVER_COUNTS[uv]:
        assert rcd_cover_count(*uv, t) == CoverCount(value, tag, option), (uv, t)


def _cover_count_in_a_fresh_process(t):
    """(rcd_cover_count(7, 4, t).value, whether mpmath got loaded) in a new interpreter."""
    src = str(Path(gamecert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from gamecert.families import rcd_cover_count\n"
            f"print(rcd_cover_count(7, 4, {t!r}).value, 'mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    value, loaded = proc.stdout.split()
    return int(value), loaded == "True"


def test_dyadic_cover_count_imports_no_mpmath():
    assert _cover_count_in_a_fresh_process(0.5) == (6, False)


def test_off_grid_cover_count_imports_no_mpmath():
    # the float step settles this t, off the q <= 64 grid
    want = _reference_cover_count(7, 4, 1.2345)[0]
    assert _cover_count_in_a_fresh_process(1.2345) == (want, False)


def test_rcd_alpha_frozen_value():
    # (9*6*3*26)^(1/0.5) * 28^-2 = 4212^2 / 784: only the touch count is
    # raised to 1/c — verified against the budget identity
    # touch_count * (mass at exponent k+1+t)^c == (a_k * mass at k)^c.
    got = rcd_alpha(7, 4, 0.5, 1)
    assert got.value == pytest.approx(4212 ** 2 / 28 ** 2, rel=1e-12)
    # budget identity at k = 1, c = 0.5:
    c = 0.5
    mass = lambda q: (1 / 28) ** q  # prod beta^q
    lhs = 9 * 6 * 3 * 26 * mass(1 + 1 + 1) ** c
    rhs = (got.value * mass(1)) ** c
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_rcd_alpha_huge_u_stays_finite_in_log_domain():
    a = rcd_alpha(900019043105, 999921083009, 0.9, 1 - 1e-5)
    assert math.isfinite(a.log)
    assert a.log < 0


# ---------------------------------------------------------------- generators


def test_generate_rco_frozen_census():
    member = generate_rco(RcoSpec(4, 5, 2, 1), depth=1)
    cells = member.of_kind("cell", 1)
    cuts = member.of_kind("cut", 1)
    assert len(cells) == 20
    assert len(cuts) == 40
    for e in cuts:
        assert e.box.half == (Fraction(1, 16), Fraction(1, 25))
    for e in cells:
        assert e.box.half == (Fraction(1, 4), Fraction(1, 5))


def test_generate_rco_cutouts_stay_inside_their_cells_and_disjoint():
    member = generate_rco(RcoSpec(3, 3, 4, 1), depth=2, placement="hash", seed=7)
    for k in (1, 2):
        cells = {e.address.split(":", 1)[1]: e.box for e in member.of_kind("cell", k)}
        by_cell: dict[str, list[BoxRegion]] = {}
        for e in member.of_kind("cut", k):
            path = e.address.split(":", 1)[1].rsplit("/", 1)[0]
            assert cells[path].contains_box(e.box)
            by_cell.setdefault(path, []).append(e.box)
        for boxes in by_cell.values():
            assert len(boxes) == 4
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    a, b = boxes[i], boxes[j]
                    overlap = all(
                        abs(a.center[ax] - b.center[ax]) < a.half[ax] + b.half[ax]
                        for ax in range(2)
                    )
                    assert not overlap


def test_generate_rco_hash_placement_is_deterministic():
    a = generate_rco(RcoSpec(4, 5, 2, 1), 1, placement="hash", seed=3)
    b = generate_rco(RcoSpec(4, 5, 2, 1), 1, placement="hash", seed=3)
    c = generate_rco(RcoSpec(4, 5, 2, 1), 1, placement="hash", seed=4)
    assert a.to_csv() == b.to_csv()
    assert a.to_csv() != c.to_csv()


def test_generate_rcd_frozen_census():
    member = generate_rcd(RcdSpec(7, 4), depth=1)
    comps = member.of_kind("comp", 1)
    assert len(comps) == 18  # (7-1)*(4-1)
    for e in comps:
        assert e.box.half == (Fraction(1, 7), Fraction(1, 4))
    # children tile flush into the corners of their regions: every child box
    # must be inside the root box
    root = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    for e in comps:
        assert root.contains_box(e.box)


def test_generate_rcd_children_are_disjoint_and_nested():
    spec = RcdSpec(7, 4, corner_rule="hash", corner_seed=11)
    member = generate_rcd(spec, depth=2)
    level1 = {e.address.split(":", 1)[1]: e.box for e in member.of_kind("comp", 1)}
    level2 = member.of_kind("comp", 2)
    assert len(level2) == 18 * 18
    for e in level2:
        parent = e.address.split(":", 1)[1].rsplit("/", 1)[0]
        assert level1[parent].contains_box(e.box)
    boxes = [e.box for e in member.of_kind("comp", 1)]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            assert not all(
                abs(a.center[ax] - b.center[ax]) < a.half[ax] + b.half[ax]
                for ax in range(2)
            )


def test_rcd_children_regions_tile_the_component():
    spec = RcdSpec(7, 4, corner_rule="hash", corner_seed=3)
    root = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    kids = _reference_children(spec, 0, ("r", root))
    assert len(kids) == 18
    area = sum(4 * r.half[0] * r.half[1] for _, r, _ in kids)
    assert area == 4  # regions partition the component (area [-1,1]^2 = 4)
    comps = {e.address: e.box for e in generate_rcd(spec, depth=1).of_kind("comp", 1)}
    assert len(comps) == 18
    for digit, region, _ in kids:
        child = comps[f"comp:r/{digit}"]
        assert region.contains_box(child)
        # child is flush: one corner of the child coincides with the region's
        for j in range(2):
            assert abs(region.center[j] - child.center[j]) == region.half[j] - child.half[j]


@given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_rcd_census_property(u, v, seed):
    member = generate_rcd(RcdSpec(u, v, "hash", seed), depth=1)
    assert len(member.of_kind("comp", 1)) == (u - 1) * (v - 1)


# ------------------------------------------------------------- serialization


def test_rectangle_set_csv_roundtrip_exact():
    member = generate_rco(RcoSpec(4, 5, 2, 1), depth=1)
    lines = member.to_csv().splitlines()
    assert lines[:len(member.meta)] == [f"# {k} = {member.meta[k]}" for k in sorted(member.meta)]
    assert lines[len(member.meta)] == "level,address,cx,cy,hx,hy"
    rows = lines[len(member.meta) + 1:]
    assert len(rows) == len(member.entries)
    for row, e in zip(rows, member.entries):
        level, address, cx, cy, hx, hy = row.split(",")
        assert int(level) == e.level and address == e.address
        # every coordinate is written p/q and reads back exactly
        box = BoxRegion((Fraction(cx), Fraction(cy)), (Fraction(hx), Fraction(hy)))
        assert box == e.box


def test_rectangle_set_float_csv_reads_back_exact():
    # an entry with float coordinates: the entries equal the floats, and the
    # set writes them as the exact p/q they hold
    box = BoxRegion((0.1, Fraction(1, 3)), (0.3, Fraction(1, 4)))
    rect = RectangleSet([RectEntry(1, "cut:a", box)])
    assert rect.entries[0].box == box
    assert all(type(x) is Fraction for x in rect.entries[0].box.center + rect.entries[0].box.half)
    written = rect.to_csv()
    cx, hx = Fraction(0.1), Fraction(0.3)
    assert written.splitlines()[-1] == \
        f"1,cut:a,{cx.numerator}/{cx.denominator},1/3,{hx.numerator}/{hx.denominator},1/4"
    assert RectangleSet(rect.entries).to_csv() == written


def test_pbm_render_shapes():
    member = generate_rco(RcoSpec(4, 5, 2, 1), depth=1)
    pbm = member.to_pbm(32, 16)
    lines = pbm.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "32 16"
    assert len(lines) == 2 + 16
    body = " ".join(lines[2:]).split()
    assert set(body) <= {"0", "1"}
    assert "0" in body and "1" in body  # something removed, something kept


# ------------------------------------------------------- covering strategies


def test_rco_strategy_refuses_a_member_rebuilt_from_its_entries():
    member = generate_rco(RcoSpec(4, 5, 2, 1), depth=2)
    back = RectangleSet(member.entries, dict(member.meta))
    assert back == member and back.meta["family"] == "rco"
    with pytest.raises(ValueError, match="generated cut-out member"):
        covering_strategy_for_rco(back, c=0.5)


def test_rco_strategy_mirrors_member_cutouts():
    member = generate_rco(RcoSpec(4, 5, 2, 1), depth=2)
    strat = covering_strategy_for_rco(member, c=0.5)
    assert strat.kind == "rco"
    assert [lv.level for lv in strat.levels] == [1, 2]
    assert all(not lv.preamble for lv in strat.levels)
    for lv in strat.levels:
        assert lv.exponent == lv.level + 1
        assert len(lv.boxes) == 2 * 20 ** lv.level
        assert lv.budget_rate_log == strat.params.alpha.log


def test_rcd_strategy_cover_counts_match_formula():
    strat = covering_strategy_for_rcd(RcdSpec(7, 4), c=0.5, t=1, depth=2)
    assert strat.kind == "rcd"
    count = rcd_cover_count(7, 4, 1).value
    lv0 = strat.level(0)
    lv1 = strat.level(1)
    assert lv0 is not None and lv0.preamble and lv0.exponent == 2
    assert lv1 is not None and not lv1.preamble and lv1.exponent == 3
    assert len(lv0.boxes) == 18 * count
    assert len(lv1.boxes) == 18 * 18 * count


def _low(box, j):
    return box.center[j] - box.half[j]


def _high(box, j):
    return box.center[j] + box.half[j]


def test_rcd_strategy_covers_exactly_the_removed_slabs():
    """Completeness at level 0: region minus child is inside the cover union,
    and covers stay inside the region (slab decomposition, exact arithmetic)."""
    spec = RcdSpec(7, 4, corner_rule="hash", corner_seed=5)
    strat = covering_strategy_for_rcd(spec, c=0.5, t=1, depth=1)
    root = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    kids = _reference_children(spec, 0, ("r", root))
    count = rcd_cover_count(7, 4, 1).value
    boxes = strat.level(0).boxes
    for idx, (digit, region, child) in enumerate(kids):
        cover = boxes[idx * count : (idx + 1) * count]
        for b in cover:
            assert region.contains_box(b)
        # slab decomposition of region by all cover edges and child edges
        xs = sorted(
            {_low(region, 0), _high(region, 0), _low(child, 0), _high(child, 0)}
            | {_low(b, 0) for b in cover}
            | {_high(b, 0) for b in cover}
        )
        ys = sorted(
            {_low(region, 1), _high(region, 1), _low(child, 1), _high(child, 1)}
            | {_low(b, 1) for b in cover}
            | {_high(b, 1) for b in cover}
        )
        for x0, x1 in zip(xs, xs[1:]):
            for y0, y1 in zip(ys, ys[1:]):
                mid = ((x0 + x1) / 2, (y0 + y1) / 2)
                in_child = child.contains_point(mid)
                in_cover = any(b.contains_point(mid) for b in cover)
                if not in_child:
                    assert in_cover, f"uncovered slab at {mid} in child {digit}"


def test_rcd_strategy_requires_integer_t():
    with pytest.raises(ValueError):
        covering_strategy_for_rcd(RcdSpec(7, 4), c=0.5, t=1.5, depth=1)  # type: ignore[arg-type]


# --------------------------------------- lattice geometry vs Fraction references


def _reference_children(spec, level, component):
    """Fraction-by-Fraction (digit, region, child), kept as the reference."""
    u, v, k = spec.u, spec.v, level
    lhx = Fraction(1, u ** k * (u - 1))
    lhy = Fraction(1, v ** k * (v - 1))
    chx = Fraction(1, u ** (k + 1))
    chy = Fraction(1, v ** (k + 1))
    address, box = component
    out = []
    for tt in range(1, v):
        for s in range(1, u):
            digit = s + (tt - 1) * (u - 1)
            lcx = box.center[0] + Fraction(2 * s - u, u ** k * (u - 1))
            lcy = box.center[1] + Fraction(2 * tt - v, v ** k * (v - 1))
            sx, sy = spec.corner_signs(f"{address}/{digit}")
            out.append((
                digit,
                BoxRegion((lcx, lcy), (lhx, lhy)),
                BoxRegion((lcx + sx * (lhx - chx), lcy + sy * (lhy - chy)), (chx, chy)),
            ))
    return out


def _reference_tile_axis(lo, hi, h):
    width = hi - lo
    if width <= 2 * h:
        return [(lo + hi) / 2]
    count = -((-width) // (2 * h))
    centers = [lo + (2 * i + 1) * h for i in range(count - 1)]
    centers.append(hi - h)
    return centers


def _reference_cover_piece(region, child, hx, hy):
    sx = 1 if child.center[0] > region.center[0] else -1
    sy = 1 if child.center[1] > region.center[1] else -1
    if sx > 0:
        xs_lo, xs_hi = _low(region, 0), _low(child, 0)
    else:
        xs_lo, xs_hi = _high(child, 0), _high(region, 0)
    if sy > 0:
        ys_lo, ys_hi = _low(region, 1), _low(child, 1)
    else:
        ys_lo, ys_hi = _high(child, 1), _high(region, 1)

    def rect_cover(x0, x1, y0, y1):
        return [
            BoxRegion((cx, cy), (hx, hy))
            for cx in _reference_tile_axis(x0, x1, hx)
            for cy in _reference_tile_axis(y0, y1, hy)
        ]

    opt1 = rect_cover(xs_lo, xs_hi, _low(region, 1), _high(region, 1)) + rect_cover(
        _low(child, 0), _high(child, 0), ys_lo, ys_hi
    )
    opt2 = rect_cover(_low(region, 0), _high(region, 0), ys_lo, ys_hi) + rect_cover(
        xs_lo, xs_hi, _low(child, 1), _high(child, 1)
    )
    return opt1 if len(opt1) <= len(opt2) else opt2


def _reference_rcd_levels(spec, t, depth):
    """Per level k, ({address: comp box of level k+1}, cover boxes), one
    piece at a time."""
    root = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    frontier = [("r", root)]
    for k in range(depth):
        hx, hy = Fraction(1, spec.u ** (k + 1 + t)), Fraction(1, spec.v ** (k + 1 + t))
        comps, covers, nxt = {}, [], []
        for address, comp in frontier:
            for digit, region, child in _reference_children(spec, k, (address, comp)):
                covers.extend(_reference_cover_piece(region, child, hx, hy))
                comps[f"comp:{address}/{digit}"] = child
                nxt.append((f"{address}/{digit}", child))
        yield comps, covers
        frontier = nxt


def _cover_boxes(u, v, t, depth):
    pieces = sum(((u - 1) * (v - 1)) ** (k + 1) for k in range(depth))
    return pieces * rcd_cover_count(u, v, t).value


@given(
    st.integers(2, 9), st.integers(2, 9), st.sampled_from(["fixed", "hash"]),
    st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_rcd_lattice_walk_matches_fraction_reference(u, v, rule, seed, t, depth):
    # The Fraction reference costs about 20 us a box; bigger members are
    # covered by the fixed-size byte-identity checks of the benchmark.
    assume(_cover_boxes(u, v, t, depth) <= 6000)
    spec = RcdSpec(u, v, rule, seed)
    strat = covering_strategy_for_rcd(spec, c=0.5, t=t, depth=depth)
    member = generate_rcd(spec, depth)
    for k, (comps, covers) in enumerate(_reference_rcd_levels(spec, t, depth)):
        level = strat.level(k)
        assert level.boxes == tuple(covers)
        assert repr(level.boxes) == repr(tuple(covers))
        got = {e.address: e.box for e in member.entries if e.level == k + 1}
        assert repr(got) == repr(dict(sorted(comps.items())))


def _reference_pieces(spec, depth):
    """Per level k, the pieces of the Fraction reference walk as integers:
    (lx, ly, (sx, sy)), the region's center over (u^(k+1) (u-1),
    v^(k+1) (v-1)) and the corner its child takes."""
    root = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    frontier = [("r", root)]
    for k in range(depth):
        dens = (spec.u ** (k + 1) * (spec.u - 1), spec.v ** (k + 1) * (spec.v - 1))
        pieces, nxt = [], []
        for address, comp in frontier:
            for digit, region, child in _reference_children(spec, k, (address, comp)):
                lx, ly = (region.center[j] * den for j, den in enumerate(dens))
                assert lx.denominator == ly.denominator == 1
                signs = tuple(1 if child.center[j] > region.center[j] else -1 for j in range(2))
                pieces.append((int(lx), int(ly), signs))
                nxt.append((f"{address}/{digit}", child))
        yield pieces
        frontier = nxt


def _narrowest(bound):
    """The typecode of the narrowest signed C integer (16, 32 or 64 bits)
    that holds every integer in [-bound, bound], or None past 64 bits."""
    return next((code for code, bits in (("h", 16), ("i", 32), ("q", 64))
                 if bound <= 2 ** (bits - 1) - 1), None)


def _reference_level_lattices(spec, t, depth):
    """Per level, the lattice built piece by piece as a list of numerators
    (a region's center plus its corner's template), reduced with math.gcd;
    the one half-width every box of a level has is stored once.  Its columns
    take the width of twice the unreduced denominator, a bound on every
    |center| + half, or are tuples past 64 bits."""
    u, v = spec.u, spec.v
    ut, vt = u ** t, v ** t
    tx, ty = {}, {}
    for signs in itertools.product((1, -1), repeat=2):
        cover = _cover_piece((u * ut, v * vt), ((u - 1) * ut, (v - 1) * vt), signs, (u - 1, v - 1))
        tx[signs], ty[signs] = [x for x, _ in cover], [y for _, y in cover]

    def reduced(den, centers, half):
        g = math.gcd(den, *set(centers), half)
        centers, halves = [x // g for x in centers], [half // g]
        code = _narrowest(2 * den)
        if code is None:
            return AxisLattice(den // g, tuple(centers), tuple(halves))
        return AxisLattice(den // g, array(code, centers), array(code, halves))

    for k, pieces in enumerate(_reference_pieces(spec, depth)):
        q = k + 1 + t
        xs = [lx * ut + ox for lx, _, signs in pieces for ox in tx[signs]]
        ys = [ly * vt + oy for _, ly, signs in pieces for oy in ty[signs]]
        yield reduced(u ** q * (u - 1), xs, u - 1), reduced(v ** q * (v - 1), ys, v - 1)


@given(
    st.integers(2, 6), st.integers(2, 6), st.sampled_from(["fixed", "hash"]),
    st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_rcd_level_lattices_match_the_per_piece_reference(u, v, rule, seed, t, depth):
    assume(_cover_boxes(u, v, t, depth) <= 40000)
    spec = RcdSpec(u, v, rule, seed)
    strat = covering_strategy_for_rcd(spec, c=0.5, t=t, depth=depth)
    # AxisLattice == compares an array with a tuple as unequal, but arrays of
    # two typecodes by value, so the typecodes are compared as well
    want = list(_reference_level_lattices(spec, t, depth))
    assert [level.lattice for level in strat.levels] == want
    assert _typecodes(strat.levels) == _typecodes(want)


def test_geometry_size_check_counts_boxes_exactly(monkeypatch):
    # at a limit equal to the exact box count the geometry is built, one
    # below it refused; a strategy's count includes its four templates
    builds = [
        ("depth", lambda: generate_rco(RcoSpec(4, 5, 2, 1), 2),
         lambda rect: len(rect.entries)),
        ("depth", lambda: generate_rcd(RcdSpec(5, 3), 3), lambda rect: len(rect.entries)),
        ("depth", lambda: generate_rcd(RcdSpec(2, 2), 5), lambda rect: len(rect.entries)),
        ("depth", lambda: covering_strategy_for_rcd(RcdSpec(2, 2), 0.5, 1, 3),
         lambda s: sum(len(lv.boxes) for lv in s.levels) + 4 * rcd_cover_count(2, 2, 1).value),
        ("t", lambda: covering_strategy_for_rcd(RcdSpec(3, 4), 0.5, 2, 1),
         lambda s: sum(len(lv.boxes) for lv in s.levels) + 4 * rcd_cover_count(3, 4, 2).value),
        ("depth", lambda: covering_strategy_for_rcd(RcdSpec(3, 4), 0.5, 2, 3),
         lambda s: sum(len(lv.boxes) for lv in s.levels) + 4 * rcd_cover_count(3, 4, 2).value),
    ]
    for arg, build, boxes in builds:
        exact = boxes(build())
        monkeypatch.setattr(families, "MAX_GEOMETRY_BOXES", exact)
        build()
        monkeypatch.setattr(families, "MAX_GEOMETRY_BOXES", exact - 1)
        with pytest.raises(SizeError, match="boxes") as info:
            build()
        assert info.value.arg == arg
        monkeypatch.undo()


def test_geometry_size_check_counts_numerator_bits(monkeypatch):
    # boxes times the bits of the deepest level's two denominators, exact for
    # RCD(2,2) (denominators 2^q); at that limit the geometry is built, one
    # below it refused
    builds = [
        (lambda: generate_rcd(RcdSpec(2, 2), 40), 40, 2 * 41),
        (lambda: covering_strategy_for_rcd(RcdSpec(2, 2), 0.5, 1, 30),
         30 * 12 + 4 * rcd_cover_count(2, 2, 1).value, 2 * 32),
    ]
    for build, boxes, bits in builds:
        monkeypatch.setattr(families, "MAX_GEOMETRY_BITS", boxes * bits)
        built = build()
        monkeypatch.setattr(families, "MAX_GEOMETRY_BITS", boxes * bits - 1)
        with pytest.raises(SizeError, match="numerator bits") as info:
            build()
        assert info.value.arg == "depth"
        monkeypatch.undo()
    rect_bits = sum(axis.den.bit_length() for axis in generate_rcd(RcdSpec(2, 2), 40).lattice)
    deepest = built.levels[-1].lattice
    assert rect_bits == 2 * 41 and sum(axis.den.bit_length() for axis in deepest) <= 2 * 32
    # alone, the limit would stop RCD(2,2) at depth 16383 (MAX_DENOMINATOR_BITS
    # stops it first, at 13999), and it refuses depth 100000 at once
    assert 16383 * 2 * 16384 <= MAX_GEOMETRY_BITS < 16384 * 2 * 16385
    start = time.perf_counter()
    for build in (lambda: generate_rcd(RcdSpec(2, 2), 16384),
                  lambda: generate_rcd(RcdSpec(2, 2), 100000),
                  lambda: covering_strategy_for_rcd(RcdSpec(2, 2), 0.5, 1, 100000)):
        with pytest.raises(SizeError, match="numerator bits"):
            build()
    assert time.perf_counter() - start < 1.0


def test_geometry_size_limit_admits_the_roadmap_members():
    # RCO(4,5,2,1) at depth 5 and the RCD(7,4) depth-4 strategy at t = 1
    assert 3 * sum(20 ** k for k in range(1, 6)) == 10_105_260 <= MAX_GEOMETRY_BOXES
    count = rcd_cover_count(7, 4, 1).value
    assert count * sum(18 ** k for k in range(1, 5)) + 4 * count <= MAX_GEOMETRY_BOXES
    for arg, build in (("depth", lambda: generate_rco(RcoSpec(4, 5, 2, 1), 6)),
                       ("depth", lambda: generate_rcd(RcdSpec(2, 3), 10 ** 9)),
                       ("depth", lambda: generate_rcd(RcdSpec(2, 2), 10 ** 9)),
                       ("depth", lambda: covering_strategy_for_rcd(RcdSpec(2, 2), 0.5, 1, 10 ** 9)),
                       ("t", lambda: covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 10 ** 9, 1)),
                       ("depth", lambda: covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 1, 6))):
        start = time.perf_counter()
        with pytest.raises(SizeError) as info:
            build()
        assert info.value.arg == arg and time.perf_counter() - start < 1.0


def _typecodes(levels):
    """Per level (a StrategyLevel or a lattice), each column's typecode, or
    its type where it is not an array."""
    return [[getattr(col, "typecode", type(col)) for axis in getattr(level, "lattice", level)
             for col in axis] for level in levels]


def test_rcd_levels_past_int64_keep_python_ints():
    spec = RcdSpec(2, 2)
    strat = covering_strategy_for_rcd(spec, c=0.5, t=1, depth=64)
    assert [len(level.boxes) for level in strat.levels] == [12] * 64
    want = list(_reference_level_lattices(spec, 1, 64))
    assert [level.lattice for level in strat.levels] == want
    assert _typecodes(strat.levels) == _typecodes(want)
    dens = [level.lattice[0].den for level in strat.levels]
    assert max(dens).bit_length() == 66
    kinds = [type(level.lattice[0].centers) for level in strat.levels]
    assert kinds[0] is array and kinds[-1] is tuple
    assert all(type(axis.halves) is kind and len(axis.halves) == 1
               for level, kind in zip(strat.levels, kinds) for axis in level.lattice)
    *_, (comps, covers) = _reference_rcd_levels(spec, 1, 64)
    assert strat.level(63).boxes == tuple(covers)


def test_rcd_columns_past_int64_match_the_fraction_reference():
    # RCD(2,2) has one piece a level, so both generators cross int64 cheaply:
    # the member's columns are lists of Python ints from depth 63 on (its
    # denominators are 2^depth), and the strategy's levels are built from
    # Python ints from level 60 on (twice 2^(k+2) reaches 2^63 there); both
    # match the Fraction walk box by box
    spec = RcdSpec(2, 2)
    reference = list(_reference_rcd_levels(spec, 1, 64))
    member = generate_rcd(spec, 64)
    assert all(type(axis.centers) is list for axis in member.lattice)
    want = [RectEntry(k + 1, address, box) for k, (comps, _) in enumerate(reference)
            for address, box in comps.items()]
    assert member.entries == want
    assert member.to_csv() == _reference_csv(member.meta, want)
    strat = covering_strategy_for_rcd(spec, 0.5, 1, 62)
    for level, (_, covers) in zip(strat.levels, reference[:62], strict=True):
        assert level.boxes == tuple(covers)


def _assert_kernels_read_the_columns_as_int64(lattice):
    """_reach and _grid_hits on `lattice` give, at and around both corners
    (-1, -1) and (1, 1), where boxes are flush with the root box and
    |center| + half is the denominator, the masks and counts that the
    Fraction reference gives, and those of the lattice's columns copied to
    int64 (or left as Python ints past it).  One grid step is 1/den, read
    at scale 1 in the columns' own dtype, the other 1/(3 den), scaled."""
    wide = tuple(AxisLattice(axis.den, *(array("q", col) if isinstance(col, array) else col
                                        for col in axis[1:]))
                 for axis in lattice)
    for corner, strict, by in itertools.product((-1, 1), (False, True), (1, 3)):
        step = tuple(Fraction(1, by * axis.den) for axis in lattice)
        args = ((corner, corner), step, (0, 0), (-1, -1), (1, 1), strict)
        hits = families._grid_hits(lattice, *args)
        assert hits.tolist() == families._grid_hits(wide, *args).tolist()
        for i, j in itertools.product(range(-1, 2), repeat=2):
            point = (corner + i * step[0], corner + j * step[1])
            mask = families._reach(lattice, point, (0, 0), strict).tolist()
            assert mask == families._reach(wide, point, (0, 0), strict).tolist() == \
                _reference_mask(lattice, point, (0, 0), strict), (point, strict)
            assert hits[i + 1, j + 1] == sum(mask)


def _column_types(lattice):
    """Per axis, the typecode its columns share (a view's format), or None
    for Python ints."""
    codes = []
    for axis in lattice:
        (code,) = {col.format if isinstance(col, memoryview) else getattr(col, "typecode", None)
                   for col in axis[1:]}
        codes.append(code)
    return codes


@pytest.mark.parametrize("depth,code", [
    (14, "h"), (15, "i"), (30, "i"), (31, "q"), (62, "q"), (63, None)])
def test_rcd_columns_cross_each_width_at_their_denominator(depth, code):
    # RCD(2,2) at depth d has denominators 2^d, and its deepest component is
    # flush with the corner (1, 1): its |center| is 2^d - 1, which a width
    # one step narrower would hold, but its |center| + half is 2^d
    spec = RcdSpec(2, 2)
    member = generate_rcd(spec, depth)
    assert [axis.den for axis in member.lattice] == [2 ** depth] * 2
    assert _column_types(member.lattice) == [code, code]
    assert member.levels.typecode == "h"
    if code is None:
        assert all(type(col) is list for axis in member.lattice for col in axis[1:])
    reference = list(_reference_rcd_levels(spec, 1, depth))
    want = [RectEntry(k + 1, address, box) for k, (comps, _) in enumerate(reference)
            for address, box in comps.items()]
    assert member.entries == want
    assert member.to_csv() == _reference_csv(member.meta, want)
    _assert_kernels_read_the_columns_as_int64(member.lattice_of("comp"))
    # rebuilt from its entries, a set takes the width of the largest
    # |center| plus the largest half, 2^d - 1 + 2^(d-1) here, as wide as 2^d
    read = RectangleSet(member.entries, member.meta)
    assert read.entries == want and _column_types(read.lattice) == [code, code]


def test_rcd_strategy_levels_cross_each_width_at_twice_their_denominator():
    # level k of the RCD(2,2) strategy at t = 1 has the denominator 2^(k+2),
    # and its columns the width of 2^(k+3): int16 to level 11, int32 to 27,
    # int64 to 59, Python ints from 60 on
    spec = RcdSpec(2, 2)
    strat = covering_strategy_for_rcd(spec, 0.5, 1, 62)
    assert [level.lattice[0].den for level in strat.levels] == [2 ** (k + 2) for k in range(62)]
    want = ["h"] * 12 + ["i"] * 16 + ["q"] * 32 + [None] * 2
    assert [_column_types(level.lattice) for level in strat.levels] == [[c, c] for c in want]
    reference = list(_reference_rcd_levels(spec, 1, 62))
    for k in (11, 12, 27, 28, 59, 60):
        assert strat.level(k).boxes == tuple(reference[k][1])
        _assert_kernels_read_the_columns_as_int64(strat.level(k).lattice)


@pytest.mark.parametrize("t,codes", [
    (7, ["h", "h"]), (8, ["h", "i"]), (12, ["h", "i"]), (13, ["i", "i"]),
    (17, ["i", "i"]), (18, ["i", "q"]), (28, ["i", "q"]), (29, ["q", "q"]),
    (37, ["q", "q"]), (38, ["q", None]), (60, ["q", None]), (61, [None, None])])
def test_rco_columns_cross_each_width_at_their_denominator(t, codes):
    # RCO(2,3,1,t) at depth 2 has denominators (2^(t+2), 3^(t+2)); with
    # corner placement a cut is flush with the corner (-1, -1), and a cell
    # with both corners, so |center| + half reaches the denominator
    spec = RcoSpec(2, 3, 1, t)
    member = generate_rco(spec, 2)
    assert [axis.den for axis in member.lattice] == [2 ** (t + 2), 3 ** (t + 2)]
    assert _column_types(member.lattice) == codes
    assert member.levels.typecode == "h"
    want = sorted(_reference_rco_entries(spec, 2, "corner", 0), key=lambda e: (e.level, e.address))
    assert member.entries == want
    assert member.to_csv() == _reference_csv(member.meta, want)
    read = RectangleSet(member.entries, member.meta)  # largest |center| den - 1, half den / 2
    assert read.entries == want and _column_types(read.lattice) == codes
    for kind in ("cell", "cut"):
        _assert_kernels_read_the_columns_as_int64(member.lattice_of(kind))
    # the deepest strategy level views the member's columns, the other one
    # takes the width of its own denominators
    first, deepest = covering_strategy_for_rco(member, c=0.5).levels
    assert _column_types(deepest.lattice) == codes
    assert _column_types(first.lattice) == [
        _narrowest(axis.den) for axis in first.lattice]
    _assert_kernels_read_the_columns_as_int64(deepest.lattice)


def _derived(level):
    """The lattice a level derives from its boxes when none is passed in."""
    return StrategyLevel(level.level, level.exponent, level.budget_rate_log,
                         level.preamble, level.boxes).lattice


def _assert_lattice_holds_the_boxes(level):
    assert len(level.lattice) == (level.boxes[0].n if level.boxes else 0)
    for j, axis in enumerate(level.lattice):
        # a half-width that every box has is stored once, others per box
        shared = len({box.half[j] for box in level.boxes}) == 1
        assert len(axis.centers) == len(level.boxes)
        assert len(axis.halves) == (1 if shared else len(level.boxes))
        for i, box in enumerate(level.boxes):
            assert Fraction(axis.centers[i], axis.den) == box.center[j]
            assert Fraction(axis.halves[0 if shared else i], axis.den) == box.half[j]
    assert level.lattice == _derived(level)
    assert "lattice" not in repr(level) and "AxisLattice" not in repr(level)
    # == ignores the lattice, and so does hash where the boxes hash (a tuple
    # does, a view does not)
    fields = (level.level, level.exponent, level.budget_rate_log, level.preamble)
    assert StrategyLevel(*fields, level.boxes, lattice=()) == level
    boxes = tuple(level.boxes)
    assert hash(StrategyLevel(*fields, boxes, lattice=())) == hash(StrategyLevel(*fields, boxes))


@given(
    st.integers(2, 9), st.integers(2, 9), st.sampled_from(["fixed", "hash"]),
    st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_rcd_levels_carry_the_lattice_of_their_boxes(u, v, rule, seed, t, depth):
    assume(_cover_boxes(u, v, t, depth) <= 6000)
    strat = covering_strategy_for_rcd(RcdSpec(u, v, rule, seed), c=0.5, t=t, depth=depth)
    for level in strat.levels:
        _assert_lattice_holds_the_boxes(level)


@given(
    st.integers(2, 9), st.integers(2, 9), st.integers(1, 3), st.integers(1, 2),
    st.sampled_from(["corner", "hash"]), st.integers(0, 2 ** 32),
)
@settings(max_examples=25, deadline=None)
def test_rco_levels_carry_the_lattice_of_their_boxes(u, v, m, t, placement, seed):
    assume((u * v) ** 2 * (m + 1) <= 6000)
    member = generate_rco(RcoSpec(u, v, m, t), 2, placement=placement, seed=seed)
    for level in covering_strategy_for_rco(member, c=0.5).levels:
        _assert_lattice_holds_the_boxes(level)


def test_hand_built_levels_derive_their_lattice():
    boxes = (
        BoxRegion((Fraction(1, 6), 0), (Fraction(1, 4), Fraction(1, 3))),
        BoxRegion((-1, 0.5), (Fraction(1, 12), 2)),
    )
    level = StrategyLevel(1, 2, -1.0, False, boxes)
    (x, y) = level.lattice
    assert (x.den, list(x.centers), list(x.halves)) == (12, [2, -12], [3, 1])
    assert (y.den, list(y.centers), list(y.halves)) == (6, [0, 3], [2, 12])
    _assert_lattice_holds_the_boxes(level)
    # numerators past int64 are kept as Python ints
    den = 2 ** 70 + 1
    huge = StrategyLevel(1, 2, -1.0, False, (
        BoxRegion((Fraction(2 ** 64, den),), (Fraction(1, den),)),))
    assert huge.lattice[0] == (den, (2 ** 64,), (1,))
    _assert_lattice_holds_the_boxes(huge)
    assert StrategyLevel(0, 1, -1.0, True, ()).lattice == ()


def _gap_set():
    """A hand-built set whose levels are 1, 2 and 5: none at 0, 3 or 4."""
    box = lambda x, h: BoxRegion((Fraction(x), Fraction(-x)), (Fraction(h), Fraction(h)))
    return RectangleSet([
        RectEntry(5, "comp:b", box(Fraction(1, 3), Fraction(1, 9))),
        RectEntry(1, "cut:a", box(0, Fraction(1, 2))),
        RectEntry(2, "comp:a", box(Fraction(-1, 2), Fraction(1, 4))),
        RectEntry(5, "cut:c", box(Fraction(2, 3), Fraction(1, 27))),
        RectEntry(1, "comp:a", box(Fraction(1, 2), Fraction(1, 6))),
    ])


@pytest.mark.parametrize("rect", [
    generate_rco(RcoSpec(4, 5, 2, 1), 2),
    generate_rco(RcoSpec(3, 2, 3, 2), 2, placement="hash", seed=3),
    generate_rcd(RcdSpec(7, 4), 2),
    generate_rcd(RcdSpec(3, 4, "hash", 21), 2),
    _gap_set(),
])
def test_whole_set_queries_join_their_per_level_queries(rect):
    # of_kind and lattice_of without levels read every level of the set,
    # lowest first, and a level the set lacks adds nothing
    levels = sorted(set(rect.levels))
    for kind in ("cell", "comp", "cut", "cover"):
        assert rect.of_kind(kind) == [e for k in levels for e in rect.of_kind(kind, k)]
        parts = [rect.lattice_of(kind, [k]) for k in levels]
        for j, axis in enumerate(rect.lattice_of(kind)):
            assert axis.den == rect.lattice[j].den
            for col in ("centers", "halves"):
                assert list(getattr(axis, col)) == [
                    n for part in parts for n in getattr(part[j], col)]


def _reference_rco_entries(spec, depth, placement, seed):
    """Fraction-by-Fraction cells and cuts of a cut-out member, in generation order."""
    u, v, m, t = spec.u, spec.v, spec.m, spec.t
    want = []
    for k in range(1, depth + 1):
        chx, chy = Fraction(1, u ** k), Fraction(1, v ** k)
        cutx, cuty = Fraction(1, u ** (k + t)), Fraction(1, v ** (k + t))
        for i in range(u ** k):
            for j in range(v ** k):
                path = f"{i}_{j}"
                cx, cy = -1 + (2 * i + 1) * chx, -1 + (2 * j + 1) * chy
                want.append(RectEntry(k, f"cell:{path}", BoxRegion((cx, cy), (chx, chy))))
                if placement == "corner":
                    slots = [(s % u ** t, s // u ** t) for s in range(m)]
                else:
                    slots = _rco_slots(spec, k, path, seed)
                for ordinal, (a, b) in enumerate(slots):
                    ox = cx - chx + (2 * a + 1) * cutx
                    oy = cy - chy + (2 * b + 1) * cuty
                    want.append(RectEntry(k, f"cut:{path}/{ordinal}",
                                          BoxRegion((ox, oy), (cutx, cuty))))
    return want


def _reference_csv(meta, entries):
    """The CSV of `entries`, each Fraction coordinate written p/q."""
    out = [f"# {key} = {meta[key]}\n" for key in sorted(meta)]
    out.append("level,address,cx,cy,hx,hy\n")
    for e in entries:
        coords = (f"{x.numerator}/{x.denominator}" for x in e.box.center + e.box.half)
        out.append(",".join([str(e.level), e.address, *coords]) + "\n")
    return "".join(out)


def test_rco_lattice_generation_matches_fraction_reference():
    for spec, placement in ((RcoSpec(4, 5, 2, 1), "corner"), (RcoSpec(3, 2, 3, 2), "hash")):
        member = generate_rco(spec, 2, placement=placement, seed=9)
        want = sorted(_reference_rco_entries(spec, 2, placement, 9),
                      key=lambda e: (e.level, e.address))
        assert member.entries == want
        assert member.to_csv() == _reference_csv(member.meta, want)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cutout_columns_match_a_box_by_box_reference(data):
    # a generated member repeats short per-level columns and derives its
    # addresses from the index; a set built from Fraction entries, box by
    # box, must read the same through every accessor.  Past 2^63 (u = 6 and
    # t = 45, say) the columns are lists of Python ints.
    u, v, t = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6)), data.draw(st.integers(1, 45))
    m = data.draw(st.integers(1, min(12, (u * v) ** t)))
    top = max(d for d in (1, 2, 3) if (m + 1) * sum((u * v) ** k for k in range(1, d + 1)) <= 2500)
    depth = data.draw(st.integers(1, top))
    placement = data.draw(st.sampled_from(["corner", "hash"]))
    seed = data.draw(st.integers(0, 3))
    spec = RcoSpec(u, v, m, t)
    rect = generate_rco(spec, depth, placement, seed)
    ref = RectangleSet(_reference_rco_entries(spec, depth, placement, seed), dict(rect.meta))
    assert rect.to_csv() == ref.to_csv()
    _assert_view_matches(rect.addresses, ref.addresses)
    index = data.draw(st.integers(-len(ref.addresses), len(ref.addresses) - 1))
    assert rect.addresses[index] == ref.addresses[index]
    for kind in ("cell", "cut"):
        for level in (None, *range(1, depth + 1)):
            assert rect.of_kind(kind, level) == ref.of_kind(kind, level), (kind, level)
            levels = None if level is None else [level]
            got, want = rect.lattice_of(kind, levels), ref.lattice_of(kind, levels)
            assert [(a.den, list(a.centers), list(a.halves)) for a in got] == \
                [(a.den, list(a.centers), list(a.halves)) for a in want], (kind, level)
    wide = u ** (depth + t) >= 2 ** 63
    assert type(rect.lattice[0].centers) is (list if wide else array)


def test_generate_rco_builds_no_per_box_objects():
    # the depth-4 member keeps about 5 MB of int16 columns (10 bytes a box;
    # 20 MB as int64); with per-box tuples and stored address strings it
    # peaked at 121 MB
    tracemalloc.start()
    try:
        rect = generate_rco(RcoSpec(4, 5, 2, 1), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rect.entries) == 505_260 and peak < 8 * 2 ** 20, peak
    # rows sort by the text of "i_" ("9_" last), columns by that of j ("99" last)
    assert rect.addresses[-1] == "cut:9_99/1" and rect.addresses[20] == "cut:0_0/0"
    assert rect.addresses[60] == "cell:0_0" and rect.levels[60] == 2


def test_rco_spec_fit_check_takes_no_huge_power():
    # u^t v^t >= 4^t, so m fits unless 2t < m.bit_length(); the power of a
    # 997-bit u to t = 10^6 never ends, and it must not be taken
    src = str(Path(gamecert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from gamecert.families import RcoSpec\n"
            "print(RcoSpec(10 ** 300, 2, 1, 1000000).m)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=20)
    assert proc.returncode == 0 and proc.stdout == "1\n", proc.stderr
    with pytest.raises(ValueError, match=r"17 disjoint removals cannot fit in a cell \(16 slots\)"):
        RcoSpec(2, 2, 17, 2)
    assert RcoSpec(2, 2, 16, 2).m == 16


def test_generators_refuse_denominators_past_the_csv_digit_limit():
    # a CSV writes every coordinate in decimal, and Python converts at most
    # 4,300 digits; RCO(2,2,1,t) at depth 1 has denominators 2^(t+1)
    widest = generate_rco(RcoSpec(2, 2, 1, MAX_DENOMINATOR_BITS - 2), 1)
    assert widest.lattice[0].den.bit_length() == MAX_DENOMINATOR_BITS
    assert widest.to_csv().count("\n") == 9 + 8
    # the limit counts the real bits: 3^8833 has 14000, 3^8834 has 14002
    widest = generate_rco(RcoSpec(3, 3, 1, 8832), 1)
    assert widest.lattice[0].den == 3 ** 8833
    assert widest.to_csv().count("\n") == 9 + len(widest.entries)
    for arg, build, need in (
        ("spec.t", lambda: generate_rco(RcoSpec(2, 2, 1, MAX_DENOMINATOR_BITS - 1), 1), 14001),
        ("spec.t", lambda: generate_rco(RcoSpec(3, 3, 1, 8833), 1), 14002),
        ("spec.t", lambda: generate_rco(RcoSpec(2, 3, 1, 1000000), 1), None),
        ("depth", lambda: generate_rcd(RcdSpec(2, 2), MAX_DENOMINATOR_BITS), 14001),
    ):
        with pytest.raises(SizeError, match="denominator bits, over the limit of 14000") as info:
            build()
        assert info.value.arg == arg
        assert need is None or f" needs {need} denominator bits" in str(info.value)


def _reference_pbm(rect, width, height):
    """The raster painted box by box in Fractions: cuts open, components
    closed.  On an axis of n pixels, pixel i is centered at -1 + (2i + 1)/n,
    so a closed box [c - h, c + h] holds the pixels from
    ceil(((c - h + 1) n - 1)/2) to floor(((c + h + 1) n - 1)/2), and its open
    interior those strictly between floor of the first bound and ceil of
    the second."""
    import numpy as np

    def pixels(c, h, n, open_box):
        c, h = Fraction(c), Fraction(h)
        low, high = ((c - h + 1) * n - 1) / 2, ((c + h + 1) * n - 1) / 2
        first, last = ((math.floor(low) + 1, math.ceil(high) - 1) if open_box
                       else (math.ceil(low), math.floor(high)))
        return slice(max(first, 0), max(min(last, n - 1) + 1, 0))

    cuts = rect.of_kind("cut")
    painted = np.zeros((height, width), dtype=bool)       # row 0 at the bottom
    for e in cuts or rect.of_kind("comp", rect.max_level()):
        (cx, cy), (hx, hy) = e.box.center, e.box.half
        painted[pixels(cy, hy, height, bool(cuts)), pixels(cx, hx, width, bool(cuts))] = True
    keep = ~painted[::-1] if cuts else painted[::-1]
    lines = [f"P1\n{width} {height}"]
    for row in keep.astype(int):
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def test_pbm_counts_a_pixel_center_on_a_box_edge_as_inside():
    # the 3 pixel centers of an axis are -2/3, 0 and 2/3: the box [0, 2/3]^2
    # holds 0 and 2/3 on both axes, each on one of its edges
    half = (Fraction(1, 3), Fraction(1, 3))
    one = RectangleSet([RectEntry(1, "comp:0", BoxRegion(half, half))])
    assert one.to_pbm(3, 3) == "P1\n3 3\n0 1 1\n0 1 1\n0 0 0\n"
    # at 21 x 12, pixel centers fall on many component edges of RCD(7, 4)
    member = generate_rcd(RcdSpec(7, 4), depth=2)
    assert member.to_pbm(21, 12) == _reference_pbm(member, 21, 12)


def test_pbm_keeps_a_pixel_center_on_a_cut_edge():
    # a cut deletes the open box (0, 2/3)^2, which holds none of the pixel
    # centers -2/3, 0, 2/3 (its comp twin holds the four on its edges, as
    # the test above asserts)
    half = (Fraction(1, 3), Fraction(1, 3))
    cut = RectangleSet([RectEntry(1, "cut:0", BoxRegion(half, half))])
    assert cut.to_pbm(3, 3) == "P1\n3 3\n1 1 1\n1 1 1\n1 1 1\n"


@pytest.mark.parametrize("member, sizes", [
    (generate_rco(RcoSpec(4, 5, 2, 1), depth=2), [(21, 12), (33, 17), (9, 9)]),
    (generate_rco(RcoSpec(2, 3, 1, 1), depth=2), [(21, 12), (33, 17), (9, 9)]),
    (generate_rcd(RcdSpec(7, 4), depth=2), [(21, 12)]),
])
def test_pbm_pixel_is_kept_just_when_the_containment_checker_keeps_its_center(member, sizes):
    # the raster and the per-level checker read one kept-region rule; the
    # checker decides each pixel center by _reach, apart from _grid_hits
    depth = member.max_level()
    for width, height in sizes:
        rows = member.to_pbm(width, height).splitlines()[2:]
        for r, row in enumerate(rows):
            j = height - 1 - r                                 # row 0 is the top
            for i, bit in enumerate(row.split()):
                center = (Fraction(2 * i + 1, width) - 1, Fraction(2 * j + 1, height) - 1)
                report = patterns.verify_containment_depth(center, 1, [(0, 0)], member)
                assert (bit == "1") == report.consistent_to(depth), (width, height, i, j)


@pytest.mark.parametrize("size", [(8, 8), (33, 17), (256, 256)])
def test_pbm_runs_match_dense_reference(size):
    members = (
        generate_rco(RcoSpec(4, 5, 2, 1), depth=2),
        generate_rcd(RcdSpec(7, 4, "hash", 3), depth=2),
    )
    for member in members:
        assert member.to_pbm(*size) == _reference_pbm(member, *size)


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_pbm_is_the_same_in_any_chunk_size(chunk):
    # the raster reads each level's boxes _GRID_CHUNK at a time; chunks that
    # end inside a level, on its last box or past it paint the same pixels
    members = (
        generate_rco(RcoSpec(4, 5, 2, 1), depth=2),
        generate_rcd(RcdSpec(7, 4), depth=2),
    )
    for member in members:
        with mock.patch.object(families, "_GRID_CHUNK", chunk):
            pbm = member.to_pbm(33, 17)
        assert pbm == _reference_pbm(member, 33, 17)


# ------------------------------------------------------------ lazy views


def _assert_view_matches(view, eager):
    """`view` behaves as the eager tuple or list `eager` of the same items."""
    other = list if isinstance(eager, tuple) else tuple
    assert len(view) == len(eager)
    assert list(view) == list(eager)
    assert [view[i] for i in range(len(eager))] == list(eager)
    assert (view[-1], view[-len(eager)]) == (eager[-1], eager[0])
    for cut in (slice(1, 5), slice(None, None, -3), slice(-4, None)):
        assert view[cut] == list(eager[cut]) and type(view[cut]) is list
    with pytest.raises(IndexError):
        view[len(eager)]
    assert repr(view) == repr(eager)
    assert view == eager and eager == view
    assert view != other(eager) and other(eager) != view
    with pytest.raises(TypeError):
        hash(view)


def test_a_view_refuses_to_hash_before_building_its_items():
    # a hash of a view would build every box of the level as Fractions;
    # the view, the level and the strategy refuse before building any
    strat = covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 1, 3)
    level = strat.level(2)
    assert len(level.boxes) > 10_000
    tracemalloc.start()
    try:
        for value in (level.boxes, level, strat):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@functools.cache
def _small_views() -> dict:
    """A strategy level's boxes, a member's entries and a find_homothety
    view, each small, built once."""
    member = generate_rcd(RcdSpec(4, 3), 2)
    query = patterns.PatternQuery(((0, 0), (1, 0)), Fraction(1, 16), Fraction(1, 8), 1)
    return {"boxes": covering_strategy_for_rcd(RcdSpec(3, 3, "hash", 1), 0.5, 1, 2).level(1).boxes,
            "entries": member.entries, "candidates": patterns.find_homothety(query, member)}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lazy_rows_print_and_compare_like_their_tuple_and_list(data):
    # repr and == read a view one item at a time; both must still be those
    # of the tuple (a _LazyRows) or the list (a _ListRows) of its items
    source = data.draw(st.sampled_from(["drawn", "boxes", "entries", "candidates"]))
    if source == "drawn":
        length = data.draw(st.sampled_from([0, 1, 2, 3, 40]))
        item = st.one_of(st.integers(), st.fractions(), st.text(max_size=3), st.floats(),
                         st.tuples(st.integers(), st.booleans()))
        items, views = data.draw(st.lists(item, min_size=length, max_size=length)), []
    else:
        view = _small_views()[source]
        items, views = list(view), [view]
        assert len(items) > 2
    views += [cls(len(items), items.__getitem__)
              for cls in (families._LazyRows, families._ListRows)]
    for view in views:
        like = view._like
        kind = families._LazyRows if like is tuple else families._ListRows
        assert repr(view) == repr(like(items))
        assert view == like(items) and like(items) == view and not view != like(items)
        assert view != (list if like is tuple else tuple)(items)
        assert (view == like(items[:-1])) == (not items)
        for cls in (families._LazyRows, families._ListRows):
            assert (view == cls(len(items), items.__getitem__)) == (cls._like is like)
        if not items:
            continue
        # a sequence that differs only in its last item, drawn or new
        for last in (data.draw(st.sampled_from([None, 0, "x", items[0], items[-1]])), object()):
            changed = items[:-1] + [last]
            twin = kind(len(changed), changed.__getitem__)
            assert repr(twin) == repr(like(changed))
            same = like(items) == like(changed)
            assert (view == twin) == (twin == view) == (view == like(changed)) == same
            assert (view != twin) == (not same)


@given(
    st.integers(2, 9), st.integers(2, 9), st.integers(1, 3), st.integers(1, 2),
    st.sampled_from(["corner", "hash"]), st.integers(0, 2 ** 32),
)
@settings(max_examples=15, deadline=None)
def test_rco_views_match_eager_reference(u, v, m, t, placement, seed):
    assume((u * v) ** 2 * (m + 1) <= 1500)
    spec = RcoSpec(u, v, m, t)
    member = generate_rco(spec, 2, placement=placement, seed=seed)
    want = sorted(_reference_rco_entries(spec, 2, placement, seed),
                  key=lambda e: (e.level, e.address))
    eager = RectangleSet(want, dict(member.meta))
    _assert_view_matches(member.entries, want)
    assert member == eager
    assert member.to_csv() == _reference_csv(member.meta, want)
    assert member.to_pbm(33, 17) == _reference_pbm(eager, 33, 17)
    for level in covering_strategy_for_rco(member, c=0.5).levels:
        cuts = tuple(e.box for e in want if e.level == level.level and e.address[:4] == "cut:")
        _assert_view_matches(level.boxes, cuts)


@given(
    st.integers(2, 9), st.integers(2, 9), st.sampled_from(["fixed", "hash"]),
    st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.integers(1, 2),
)
@settings(max_examples=15, deadline=None)
def test_rcd_views_match_eager_reference(u, v, rule, seed, t, depth):
    assume(_cover_boxes(u, v, t, depth) <= 1500)
    spec = RcdSpec(u, v, rule, seed)
    member = generate_rcd(spec, depth)
    strat = covering_strategy_for_rcd(spec, c=0.5, t=t, depth=depth)
    comps = []
    for k, (level_comps, covers) in enumerate(_reference_rcd_levels(spec, t, depth)):
        comps += [RectEntry(k + 1, a, box) for a, box in sorted(level_comps.items())]
        _assert_view_matches(strat.level(k).boxes, tuple(covers))
    eager = RectangleSet(comps, dict(member.meta))
    _assert_view_matches(member.entries, comps)
    assert member == eager
    assert member.to_csv() == _reference_csv(member.meta, comps)
    assert member.to_pbm(33, 17) == _reference_pbm(eager, 33, 17)


def test_strategy_and_members_build_no_box_until_one_is_read(monkeypatch):
    built = []
    real = BoxRegion.__init__

    def spy(box, *args):
        real(box, *args)
        built.append(box)

    monkeypatch.setattr(BoxRegion, "__init__", spy)
    strat = covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 1, 3)
    members = (generate_rco(RcoSpec(4, 5, 2, 1), 3), generate_rcd(RcdSpec(7, 4), 2))
    assert [len(level.boxes) for level in strat.levels] == [468, 8424, 151632]
    assert [len(member.entries) for member in members] == [25260, 342]
    assert built == []
    box = strat.level(2).boxes[-1]
    assert built == [box]
    assert members[0].entries[7].box is built[1]


def test_pbm_floats_round_like_fractions_past_2_53():
    member = generate_rco(RcoSpec(2, 2, 1, 60), depth=1)
    assert len(member.entries) == 8
    assert [axis.den for axis in member.lattice] == [2 ** 61] * 2
    assert member.to_pbm(64, 48) == _reference_pbm(member, 64, 48)


def test_empty_rectangle_set_has_level_0_and_draws_the_empty_union():
    empty = RectangleSet([])
    assert len(empty.entries) == 0 and empty.of_kind("comp") == []
    assert empty.max_level() == 0
    assert empty.to_pbm(8, 4) == "P1\n8 4\n" + "0 0 0 0 0 0 0 0\n" * 4
    assert empty.to_csv() == "level,address,cx,cy,hx,hy\n"


def test_rectangle_set_leaves_its_argument_untouched():
    half = (Fraction(1, 4), Fraction(1, 4))
    b = RectEntry(2, "cut:b", BoxRegion((Fraction(1, 2), 0), half))
    a = RectEntry(1, "cut:a", BoxRegion((Fraction(-1, 2), 0), half))
    given = [b, a]
    rect = RectangleSet(given)
    assert given == [b, a]
    assert rect.entries == [a, b] and rect.max_level() == 2
    assert rect.entries[0] == a and rect.of_kind("cut", 2) == [b]
    assert rect.lattice == (AxisLattice(4, array("q", [-2, 2]), array("q", [1, 1])),
                            AxisLattice(4, array("q", [0, 0]), array("q", [1, 1])))
    with pytest.raises(ValueError, match="kind:path"):
        RectangleSet([RectEntry(1, "cut", a.box)])


def test_geometry_dump_is_deterministic(tmp_path):
    # the manifest holds the sha256 of every file the small dump writes:
    # CSVs, rasters, strategies, audits, transcripts, candidates and oracle
    # reports; any byte change of a geometry output fails here
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, str(here.parent / "scripts" / "geometry_dump.py"),
                    str(tmp_path), "--small"], check=True)
    lines = (here / "data" / "geometry_dump_small.sha256").read_text().splitlines()
    manifest = {name: digest for digest, name in (line.split("  ") for line in lines)}
    assert len(manifest) == 45
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(manifest)
    for name, digest in manifest.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_grid_hits_leave_the_lattice_unchanged():
    # the kernel works in place on its columns: at scale 1 the stored int64
    # ones come as read-only views, and a new denominator scales copies
    import copy

    for den in (8, 8 * (2 ** 70 + 1)):               # int64, then object columns
        boxes = [BoxRegion((Fraction(k, 8) + Fraction(1, den), Fraction(-k, 8)),
                           (Fraction(1, 8), Fraction(3, 8))) for k in range(-3, 4)]
        lattice = families._derived_lattice(boxes)
        assert isinstance(lattice[0].centers, array) == (den == 8)
        before = copy.deepcopy(lattice)
        for step in (Fraction(1, 8), Fraction(1, 3)):    # scale 1, then scale 3
            hits = families._grid_hits(lattice, (0, 0), (step, step), (0, 0), (-2, -2), (2, 2))
            assert hits.sum() > 0
            assert lattice == before, (den, step)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_grid_hits_count_the_boxes_reach_finds(data):
    # two algorithms on one question: floor divisions over a grid, and
    # direct comparisons at each of its points, both against Fractions
    n = data.draw(st.integers(1, 2))
    den = data.draw(st.sampled_from([1, 7, 2 ** 70 + 1]))  # 2^70 + 1: the object path

    def rationals(lo, hi, base, off=-3):
        return st.builds(lambda a, b: Fraction(a, base) + Fraction(b, den),
                         st.integers(lo, hi), st.integers(off, 3))

    box = st.builds(BoxRegion, st.tuples(*[rationals(-16, 16, 8)] * n),
                    st.tuples(*[rationals(1, 8, 8, 0)] * n))
    boxes = data.draw(st.lists(box, min_size=1, max_size=6))
    origin = data.draw(st.tuples(*[st.integers(-16, 16).map(lambda a: Fraction(a, 16))] * n))
    step = data.draw(st.tuples(*[st.integers(1, 8).map(lambda a: Fraction(a, 8))] * n))
    reach = data.draw(st.tuples(*[st.integers(0, 4).map(lambda a: Fraction(a, 16))] * n))
    lo = data.draw(st.lists(st.integers(-8, 0), min_size=n, max_size=n))
    hi = [a + data.draw(st.integers(0, 8)) for a in lo]
    strict = data.draw(st.booleans())

    lattice = families._derived_lattice(boxes)
    hits = families._grid_hits(lattice, origin, step, reach, lo, hi, strict)
    assert hits.shape == tuple(b - a + 1 for a, b in zip(lo, hi))
    for index in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        point = tuple(o + i * s for o, i, s in zip(origin, index, step))
        mask = families._reach(lattice, point, reach, strict)
        want = [all(abs(b.center[j] - point[j]) < b.half[j] + reach[j] if strict
                    else abs(b.center[j] - point[j]) <= b.half[j] + reach[j]
                    for j in range(n)) for b in boxes]
        assert mask.tolist() == want, point
        assert hits[tuple(i - a for i, a in zip(index, lo))] == sum(want), point


def _reference_mask(lattice, point, reach, strict):
    """Box by box in Fractions: is each box within reach of the point on
    every axis?  A half-width column of length 1 serves every box."""
    mask = []
    for i in range(len(lattice[0].centers)):
        inside = True
        for axis, x, r in zip(lattice, point, reach):
            center = Fraction(axis.centers[i], axis.den)
            half = Fraction(axis.halves[i if len(axis.halves) > 1 else 0], axis.den)
            gap, bound = abs(center - Fraction(x)), half + Fraction(r)
            inside = inside and (gap < bound if strict else gap <= bound)
        mask.append(inside)
    return mask


@st.composite
def _threshold_axis(draw, boxes, shared):
    """One axis of `boxes` boxes near [-2, 2] in steps of 1/8, nudged by a
    few units of 1/den: den 2^59 + 8 puts int64 numerators past 2^60 and
    den 8 (2^70 + 1) puts them past int64; the columns are array('q'), a
    read-only view into a longer one, or a tuple, and a shared half-width
    is stored once."""
    den = draw(st.sampled_from([1, 8, 56, 1000, 2 ** 59 + 8, 8 * (2 ** 70 + 1)]))
    on_grid = st.builds(lambda a, b: den * a // 8 + b, st.integers(-16, 16), st.integers(-2, 2))
    centers = draw(st.lists(on_grid, min_size=boxes, max_size=boxes))
    half = st.builds(lambda a, b: max(den * a // 8 + b, 1), st.integers(0, 8), st.integers(0, 2))
    halves = draw(st.lists(half, min_size=1 if shared else boxes, max_size=1 if shared else boxes))
    if max(map(abs, centers + halves)) >= 2 ** 63:
        return AxisLattice(den, tuple(centers), tuple(halves))
    store = draw(st.sampled_from(["array", "view", "tuple"]))
    if store == "tuple":
        return AxisLattice(den, tuple(centers), tuple(halves))
    if store == "view":
        padded = array("q", [7] + centers + [-7])
        return AxisLattice(den, memoryview(padded).toreadonly()[1:-1], array("q", halves))
    return AxisLattice(den, array("q", centers), array("q", halves))


def _coordinate(on_grid):
    """A coordinate on the grid of 1/8, nudged by 10^-30 or 1/3, or a
    float, or one so far out that its thresholds pass +-2^63."""
    return st.one_of(
        st.builds(lambda a, e: Fraction(a, 8) + e, on_grid,
                  st.sampled_from([0, 0, Fraction(1, 10 ** 30), Fraction(-1, 10 ** 30),
                                   Fraction(1, 3 * 10 ** 20)])),
        st.floats(-3, 3, allow_nan=False),
        st.sampled_from([Fraction(10 ** 25, 3), -10 ** 24, -1e30]),
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_threshold_kernels_match_a_fraction_reference(data):
    # _reach compares stored columns against integer thresholds and
    # _grid_hits counts in chunks; both against a box-by-box Fraction loop
    n = data.draw(st.integers(1, 2))
    boxes = data.draw(st.integers(1, 9))
    lattice = tuple(data.draw(_threshold_axis(boxes, data.draw(st.booleans())))
                    for _ in range(n))
    strict = data.draw(st.booleans())
    point = tuple(data.draw(_coordinate(st.integers(-24, 24))) for _ in range(n))
    reach = tuple(data.draw(st.sampled_from([0, Fraction(1, 8), Fraction(3, 16), 0.25]))
                  for _ in range(n))
    mask = families._reach(lattice, point, reach, strict)
    assert mask.tolist() == _reference_mask(lattice, point, reach, strict)

    origin = tuple(data.draw(_coordinate(st.integers(-8, 8))) for _ in range(n))
    step = tuple(data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(3, 7), 0.5]))
                 for _ in range(n))
    lo = [data.draw(st.integers(-12, 4)) for _ in range(n)]
    hi = [a + data.draw(st.integers(0, 6)) for a in lo]
    chunk = data.draw(st.sampled_from([1, 2, 4, families._GRID_CHUNK]))
    with mock.patch.object(families, "_GRID_CHUNK", chunk):
        hits = families._grid_hits(lattice, origin, step, reach, lo, hi, strict)
    assert hits.shape == tuple(b - a + 1 for a, b in zip(lo, hi))
    for index in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        at = tuple(Fraction(o) + i * Fraction(s) for o, i, s in zip(origin, index, step))
        want = sum(_reference_mask(lattice, at, reach, strict))
        assert hits[tuple(i - a for i, a in zip(index, lo))] == want, at
