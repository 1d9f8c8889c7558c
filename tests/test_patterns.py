"""Pattern containment checks and the homothety grid scan."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gamecert import families
from gamecert.families import RcdSpec, RcoSpec, generate_rcd, generate_rco
from gamecert.patterns import (
    PatternCandidate,
    PatternQuery,
    _default_resolution,
    candidates_to_csv,
    find_homothety,
    pattern_diameter,
    verify_containment_depth,
)


@pytest.fixture(scope="module")
def rcd_rect():
    return generate_rcd(RcdSpec(7, 4), depth=2)


@pytest.fixture(scope="module")
def rco_rect():
    return generate_rco(RcoSpec(4, 5, 2, 1), depth=2)


TWO_POINT = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))


def test_pattern_diameter():
    assert pattern_diameter(((0, 0),)) == 0
    assert pattern_diameter(TWO_POINT) == 1
    assert pattern_diameter(((0, 0), (2, 0), (0, -3))) == 3


def test_query_validation():
    with pytest.raises(ValueError, match="at least one"):
        PatternQuery((), 1, 1, 0)
    with pytest.raises(ValueError, match="2-vectors"):
        PatternQuery(((1,),), 1, 1, 0)
    with pytest.raises(ValueError, match="0 < lo"):
        PatternQuery(TWO_POINT, 0, 1, 0)
    with pytest.raises(ValueError, match="0 < lo"):
        PatternQuery(TWO_POINT, Fraction(1, 2), Fraction(1, 3), 0)
    with pytest.raises(ValueError, match="depth"):
        PatternQuery(TWO_POINT, 1, 1, -1)
    with pytest.raises(ValueError, match="resolution"):
        PatternQuery(TWO_POINT, 1, 1, 0, grid_resolution=0)


def test_singleton_in_kept_box_passes_through_depth(rcd_rect):
    comp = rcd_rect.of_kind("comp", 2)[0]
    rep = verify_containment_depth(comp.box.center, Fraction(1), ((0, 0),), rcd_rect)
    assert rep.levels == (True, True, True)
    assert rep.max_depth_passed == 2


def test_two_point_straddle_passes_level_one_only(rcd_rect):
    comp = rcd_rect.of_kind("comp", 1)[0]
    x = (comp.box.center[0] - Fraction(1, 7), comp.box.center[1])
    rep = verify_containment_depth(x, Fraction(1, 7), ((0, 0), (2, 0)), rcd_rect)
    assert rep.levels[0] and rep.levels[1] and not rep.levels[2]
    assert rep.max_depth_passed == 1


def test_outside_root_fails_level_zero(rcd_rect):
    rep = verify_containment_depth((Fraction(3), 0), Fraction(1), ((0, 0),), rcd_rect)
    assert rep.max_depth_passed == -1
    assert not rep.consistent_to(0)


def test_cut_boundary_is_kept_but_interior_is_not(rco_rect):
    cut = rco_rect.of_kind("cut", 1)[0]
    edge = (cut.box.center[0] + cut.box.half[0], cut.box.center[1])
    rep = verify_containment_depth(edge, Fraction(1), ((0, 0),), rco_rect)
    assert rep.levels[1]                      # deleted boxes are open
    rep2 = verify_containment_depth(cut.box.center, Fraction(1), ((0, 0),), rco_rect)
    assert not rep2.levels[1] and rep2.levels[0]


def test_rco_levels_accumulate(rco_rect):
    # a point surviving level 1 but dying at level 2 keeps the prefix shape
    cut2 = rco_rect.of_kind("cut", 2)[0]
    rep = verify_containment_depth(cut2.box.center, Fraction(1), ((0, 0),), rco_rect)
    assert rep.levels[0] and not rep.levels[2]


def test_find_singleton_nonempty(rcd_rect):
    q = PatternQuery(((Fraction(0), Fraction(0)),), Fraction(1, 10), Fraction(1, 10), 2)
    cands = find_homothety(q, rcd_rect)
    assert len(cands) > 0
    assert all(c.max_depth_passed == 2 for c in cands)


def test_find_two_point_within_one_component(rcd_rect):
    lam = Fraction(1, 49)     # lambda * diam = 2/49 = one level-2 box width
    q = PatternQuery(TWO_POINT, lam, lam, 2)
    cands = find_homothety(q, rcd_rect)
    assert len(cands) > 0
    for cand in cands[:4]:
        rep = verify_containment_depth(cand.x, cand.lam, TWO_POINT, rcd_rect)
        assert rep.consistent_to(2)


def test_grid_scan_matches_exact_checker_exhaustively(rcd_rect):
    # coarse grid, shallow depth: brute-force every grid point both ways
    lam = Fraction(1, 7)
    res = Fraction(1, 7)
    q = PatternQuery(TWO_POINT, lam, lam, 1, grid_resolution=res)
    cands = {c.x for c in find_homothety(q, rcd_rect)}
    brute = set()
    ix = -7
    while ix * res <= 1 - lam:
        iy = -7
        while iy * res <= 1:
            x = (ix * res, iy * res)
            if verify_containment_depth(x, lam, TWO_POINT, rcd_rect).consistent_to(1):
                brute.add(x)
            iy += 1
        ix += 1
    assert cands == brute and brute


def test_depth_monotone_with_pinned_grid(rcd_rect):
    lam = Fraction(1, 49)
    res = Fraction(1, 98)
    shallow = PatternQuery(TWO_POINT, lam, lam, 1, grid_resolution=res)
    deep = PatternQuery(TWO_POINT, lam, lam, 2, grid_resolution=res)
    ca = {(c.lam, c.x) for c in find_homothety(shallow, rcd_rect)}
    cb = {(c.lam, c.x) for c in find_homothety(deep, rcd_rect)}
    assert cb <= ca and cb


def test_scan_is_deterministic(rcd_rect):
    q = PatternQuery(TWO_POINT, Fraction(1, 49), Fraction(3, 49), 1)
    assert find_homothety(q, rcd_rect) == find_homothety(q, rcd_rect)


def test_oversized_pattern_yields_clean_empty(rcd_rect):
    q = PatternQuery(((Fraction(0), 0), (Fraction(60), 0)), Fraction(1, 10),
                     Fraction(1, 10), 1)
    assert find_homothety(q, rcd_rect) == ()


def test_thin_scale_range_single_sample(rcd_rect):
    q = PatternQuery(TWO_POINT, Fraction(1, 49), Fraction(1, 49) + Fraction(1, 10**9), 1)
    cands = find_homothety(q, rcd_rect)
    assert {c.lam for c in cands} == {Fraction(1, 49)}


def test_scan_stops_where_the_pattern_no_longer_fits(rcd_rect, monkeypatch):
    # TWO_POINT has diameter 1, so no scale past 2 fits it in the root box:
    # a scale range up to 100 scans the 8 scales up to 2, with the same result
    import gamecert.patterns as patterns

    res = Fraction(1, 4)
    fits = find_homothety(PatternQuery(TWO_POINT, res, 2, 1, res), rcd_rect)
    scanned = []
    scan = patterns._scale_grid
    monkeypatch.setattr(patterns, "_scale_grid",
                        lambda lam, *args: scanned.append(lam) or scan(lam, *args))
    assert find_homothety(PatternQuery(TWO_POINT, res, 100, 1, res), rcd_rect) == fits
    assert scanned == [k * res for k in range(1, 9)] and fits


def test_scale_range_admissibility(rcd_rect, monkeypatch):
    # a pattern of diameter d is admissible up to the scale 2 / d; a
    # singleton has no diameter and admits every scale of its query
    import gamecert.patterns as patterns

    res = Fraction(1, 2)
    scanned = []
    scan = patterns._scale_grid
    monkeypatch.setattr(patterns, "_scale_grid",
                        lambda lam, *args: scanned.append(lam) or scan(lam, *args))
    single = PatternQuery(((Fraction(0), Fraction(0)),), res, 3, 1, res)
    cands = find_homothety(single, rcd_rect)
    assert scanned == [k * res for k in range(1, 7)]
    # a point does not move with the scale: every scale keeps the same places
    assert {c.lam for c in cands} == set(scanned)
    assert len({frozenset(c.x for c in cands if c.lam == lam) for lam in scanned}) == 1
    scanned.clear()
    wide = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(3)))
    find_homothety(PatternQuery(wide, res, 3, 1, res), rcd_rect)
    assert scanned == [Fraction(1, 2)]


def test_first_candidates_are_cross_checked_by_the_exact_checker(rcd_rect, monkeypatch):
    import gamecert.patterns as patterns

    calls = []
    check = patterns.verify_containment_depth
    monkeypatch.setattr(patterns, "verify_containment_depth",
                        lambda *args: calls.append(args) or check(*args))
    q = PatternQuery(TWO_POINT, Fraction(1, 49), Fraction(1, 49), 2)
    cands = find_homothety(q, rcd_rect)
    assert len(cands) > patterns._CROSS_CHECK == 8
    assert [(x, lam) for x, lam, *_ in calls] == [(c.x, c.lam) for c in cands[:8]]
    # a scan whose first candidate the exact checker refuses is an error:
    # here the checker is handed each point moved out of the root box
    monkeypatch.setattr(patterns, "verify_containment_depth",
                        lambda x, *args: check((x[0] + 5, x[1]), *args))
    with pytest.raises(AssertionError, match="the exact checker rejects"):
        find_homothety(q, rcd_rect)


def test_depth_beyond_generation_rejected(rcd_rect):
    q = PatternQuery(TWO_POINT, Fraction(1, 49), Fraction(1, 49), 5)
    with pytest.raises(ValueError, match="exceeds generated depth"):
        find_homothety(q, rcd_rect)


def test_candidates_csv_format(rcd_rect):
    q = PatternQuery(TWO_POINT, Fraction(1, 49), Fraction(1, 49), 2)
    cands = find_homothety(q, rcd_rect)
    csv = candidates_to_csv(cands[:2])
    lines = csv.splitlines()
    assert lines[0] == "lambda,x1,x2,max_depth_passed"
    assert lines[1].startswith("1/49,") and lines[1].endswith(",2")


def test_translation_covariance_exact(rcd_rect):
    lam = Fraction(1, 49)
    shift = (Fraction(1, 2), Fraction(-1, 3))
    shifted = tuple((p[0] + shift[0], p[1] + shift[1]) for p in TWO_POINT)
    comp = rcd_rect.of_kind("comp", 2)[0]
    x = (comp.box.center[0], comp.box.center[1])
    xs = (x[0] - lam * shift[0], x[1] - lam * shift[1])
    r1 = verify_containment_depth(x, lam, TWO_POINT, rcd_rect)
    r2 = verify_containment_depth(xs, lam, shifted, rcd_rect)
    assert r1.levels == r2.levels


@given(
    st.integers(-8, 8), st.integers(-8, 8),
    st.fractions(min_value=Fraction(1, 60), max_value=Fraction(1, 8)),
)
@settings(max_examples=40, deadline=None)
def test_random_placements_agree_with_candidate_set(ix, iy, lam):
    rect = generate_rcd(RcdSpec(7, 4), depth=1)
    res = Fraction(1, 8)
    x = (ix * res, iy * res)
    q = PatternQuery(TWO_POINT, lam, lam, 1, grid_resolution=res)
    cands = {c.x for c in find_homothety(q, rect)}
    ok = verify_containment_depth(x, lam, TWO_POINT, rect).consistent_to(1)
    # the scan's grid covers the root-constrained range; anything outside it
    # cannot be a candidate and must also fail the exact check (off the root)
    assert (x in cands) == ok


# ------------------------------------------------------- the candidate view


# scale 3/4 has no candidate between scales that have some, and scale 9/4
# leaves no translation inside the root box
GAPPED = PatternQuery(((0, 0), (1, 1)), Fraction(1, 4), Fraction(9, 4), 2, Fraction(1, 4))


@pytest.fixture(scope="module")
def hashed_rect():
    return generate_rcd(RcdSpec(5, 3, "hash", 8), depth=2)


def _one_scale_at_a_time(query, rect):
    """The candidates of each scale on its own: a query per scale."""
    res = query.grid_resolution or _default_resolution(rect, query.depth)
    out = []
    lam = query.lambda_lo
    while lam <= query.lambda_hi:
        out += find_homothety(PatternQuery(query.points, lam, lam, query.depth, res), rect)
        lam += res
    return out


@pytest.mark.parametrize("which", ["gapped", "rco"])
def test_candidate_view_behaves_like_the_tuple(rco_rect, hashed_rect, which):
    if which == "gapped":
        query, rect = GAPPED, hashed_rect
    else:  # three scales of about a thousand candidates each
        query = PatternQuery(((0, 0), (1, 0), (0, 1)), Fraction(1, 5), Fraction(3, 10), 2,
                             Fraction(1, 20))
        rect = rco_rect
    view = find_homothety(query, rect)
    eager = tuple(view)
    assert len(view) == len(eager) > 0
    assert eager == tuple(_one_scale_at_a_time(query, rect))
    assert view == eager and eager == view and view == find_homothety(query, rect)
    assert view != list(eager)
    assert repr(view) == repr(eager)
    with pytest.raises(TypeError):
        hash(view)
    assert [view[i] for i in range(len(eager))] == list(eager)
    assert (view[-1], view[-len(eager)]) == (eager[-1], eager[0])
    for cut in (slice(0, 3), slice(2, 9), slice(None, None, -4), slice(-5, None)):
        assert view[cut] == list(eager[cut])
    with pytest.raises(IndexError):
        view[len(eager)]
    # the csv of the view is the csv of its candidates, one by one
    assert candidates_to_csv(view) == candidates_to_csv(list(view))
    assert candidates_to_csv(view[:3]) == candidates_to_csv(eager[:3])


def test_gapped_query_skips_only_the_empty_scales(hashed_rect):
    view = find_homothety(GAPPED, hashed_rect)
    lams = [c.lam for c in view]
    assert sorted(set(lams)) == [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(5, 4)]
    assert [lams.count(lam) for lam in sorted(set(lams))] == [6, 3, 3, 2]
    rows = candidates_to_csv(view).splitlines()
    assert rows[1:] == [f"{c.lam},{c.x[0]},{c.x[1]},2" for c in view]


def _per_scale_reference(query, rect, res):
    """The candidates as one _grid_hits count per scale and pattern point,
    on the grid of translations of that scale, whose origin is the placed
    point lam b itself: every translation all placed points pass, in scan
    order."""
    import numpy as np

    spans, cut = rect._kept_region(query.depth)
    out = []
    lam = query.lambda_lo
    while lam <= query.lambda_hi:
        lo = [math.ceil((-1 - lam * min(axis)) / res) for axis in zip(*query.points)]
        hi = [math.floor((1 - lam * max(axis)) / res) for axis in zip(*query.points)]
        if all(a <= b for a, b in zip(lo, hi)):
            keep = np.ones([b - a + 1 for a, b in zip(lo, hi)], dtype=bool)
            for point in query.points:
                hits = families._grid_hits(rect.lattice, [lam * x for x in point], (res, res),
                                           (0, 0), lo, hi, cut, spans)
                keep &= (hits == 0) if cut else (hits > 0)
            out += [PatternCandidate(lam, ((lo[0] + int(i)) * res, (lo[1] + int(j)) * res),
                                     query.depth) for i, j in np.argwhere(keep)]
        lam += res
    return out


@pytest.mark.parametrize("which", ["rcd", "rco"])
def test_offset_classes_match_a_per_scale_reference(rcd_rect, rco_rect, which, monkeypatch):
    # at the scales n/37, (0, 0) sits at offset 0 of the grid of step 1/37
    # and (1/3, 2) at offset ((n mod 3)/111, 0): three offset classes, each
    # counted over the union of its pairs' ranges instead of once per pair
    import gamecert.patterns as patterns

    rect = rcd_rect if which == "rcd" else rco_rect
    res = Fraction(1, 37)
    query = PatternQuery(((0, 0), (Fraction(1, 3), 2)), res, 9 * res, 2, res)
    origins = []
    hits = patterns._grid_hits
    monkeypatch.setattr(patterns, "_grid_hits",
                        lambda lattice, origin, *args: origins.append(tuple(origin))
                        or hits(lattice, origin, *args))
    view = find_homothety(query, rect)
    assert set(origins) == {(0, 0), (Fraction(1, 111), 0), (Fraction(2, 111), 0)}
    assert len(origins) < 2 * 9
    assert list(view) == _per_scale_reference(query, rect, res) and view
