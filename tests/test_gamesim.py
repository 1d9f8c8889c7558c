"""Grid projections, game runs, potential bookkeeping, counting oracles."""
import gc
import itertools
import math
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamecert.core import BoxRegion, DiagonalContraction, LogScalar
from gamecert.families import (
    RcdSpec,
    RcoSpec,
    CoveringStrategy,
    StrategyLevel,
    covering_strategy_for_rcd,
    covering_strategy_for_rco,
    generate_rco,
    rco_alpha,
)
from gamecert.core import GameParameters
from gamecert import families, gamesim
from gamecert.gamesim import (
    BUDGET_TOL,
    MAX_AUDIT_CELLS,
    Lattice,
    child_cover_grid,
    play_game,
    potential_phi,
    potential_transfer_bound,
    project_chain,
    project_index,
    round_half_down,
    steering_policy,
    tuple_overlap_bound,
    verify_covering_budget,
    verify_half_shrink,
    verify_projection_return,
)


# ----------------------------------------------------------- rounding rule


def test_round_half_down_frozen():
    assert round_half_down(1, 2) == 0      # 0.5 -> 0
    assert round_half_down(3, 2) == 1      # 1.5 -> 1
    assert round_half_down(-1, 2) == -1    # -0.5 -> -1
    assert round_half_down(3, 5) == 1
    assert round_half_down(-3, 5) == -1
    assert round_half_down(0, 7) == 0


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_round_half_down_is_nearest_with_low_ties(num, den):
    w = round_half_down(num, den)
    # nearest: |num - den w| <= den/2, and the tie goes to the smaller integer
    assert 2 * abs(num - den * w) <= den
    if 2 * abs(num - den * w) == den:
        assert num - den * w > 0   # at a tie the kept residue is +den/2


# ----------------------------------------------------------------- lattices


def test_lattice_frozen_centers():
    con = DiagonalContraction.from_denominators([10])
    fine = Lattice("fine", con, 2)
    assert fine.cell_center([3]) == (Fraction(3, 200),)   # 0.015
    assert fine.cell_box([3]).half == (Fraction(1, 100),)
    coarse = Lattice("coarse", con, 2)
    assert coarse.cell_center([1]) == (Fraction(3, 100),)  # 0.03
    assert coarse.cell_box([1]).half == (Fraction(1, 100),)
    # index 0 sits at the origin; coarse centers are fine centers (x6 index)
    assert coarse.cell_center([0]) == fine.cell_center([0]) == (Fraction(0),)
    assert coarse.cell_center([2]) == fine.cell_center([12])


def test_lattice_validation():
    con = DiagonalContraction.from_denominators([10, 12])
    with pytest.raises(ValueError):
        Lattice("medium", con, 1)
    with pytest.raises(ValueError):
        Lattice("fine", con, -1)
    # its cells are exact: a contraction not built from unit fractions has none
    with pytest.raises(ValueError, match="not built from unit fractions"):
        Lattice("fine", DiagonalContraction((0.1, 0.3)), 1)


# -------------------------------------------------------------- projections


def test_project_index_nearest_matches_brute_force():
    # generic levels: the picked parent minimizes |child - u*w|, ties low
    u = 10
    for z in range(-100, 101):
        got = project_index((u,), level=2, child=(z,), block=2)[0]
        best = min(range(-15, 16), key=lambda w: (abs(z - u * w), w))
        assert got == best, (z, got, best)


def test_project_index_coarse_branch_frozen():
    # level = 1 mod N: child 6*(10r + l) lands on the coarse cell 6r
    assert project_index((10,), 1, (66,), 1) == (66 // 66 * 6,)
    assert project_index((10,), 1, (6 * 11,), 1) == (6,)    # r=1, l=1
    assert project_index((10,), 1, (6 * 9,), 1) == (6,)     # r=1, l=-1
    # out of window on one axis -> nearest fallback on both
    assert project_index((10, 10), 1, (6 * 11, 30), 1) == (7, 3)
    # disabled branch: pure nearest
    assert project_index((10,), 1, (6 * 11,), 1, coarse_branch=False) == (7,)


def test_project_chain_returns_to_start():
    # one concrete chain behind the exhaustive sweep: u=10, N=2, k=0
    u, N = 10, 2
    r, l = 3, 14
    fine_index = (6 * (u ** N * r + l),)
    got = project_chain((u,), from_level=N + 1, index=fine_index, to_level=1, block=N)
    assert got == (6 * r,)


def test_projection_sweeps_pass_one_dim():
    for u in (6, 10, 12):
        for N in (1, 2, 3):
            audit = verify_projection_return((u,), N, k=0, radius=50)
            assert audit.passed, (u, N, audit.witness)
            assert audit.checked == 101 * (2 * ((u ** N - 2) // 6) + 1)


def test_projection_sweep_passes_two_dim_mixed():
    audit = verify_projection_return((6, 7), 2, k=0, radius=10)
    assert audit.passed and audit.checked == (21 * 11) * (21 * 15)


def test_projection_sweep_negative_control_fails():
    bad = verify_projection_return((10,), 1, k=0, radius=50, coarse_branch=False)
    assert bad.failures > 0
    assert bad.witness is not None and bad.witness[0] == "axis"
    # corrupting the rule must not fool the joint variant either
    bad2 = verify_projection_return((10, 10), 1, k=0, radius=5, coarse_branch=False)
    assert bad2.failures > 0


def _negative_control_by_chains(u, block, radius):
    """(failures, witness) of the negative control at k = 0, from
    project_chain on every tuple of (coarse index, child offset) pairs.
    The nearest-only chain is per axis, so the witness is the first failing
    pair of the first axis that has one, coarse index first."""
    pairs = [
        [(r, l) for r in range(-radius, radius + 1)
         for l in range(-((uj ** block - 2) // 6), (uj ** block - 2) // 6 + 1)]
        for uj in u
    ]

    def chain(us, rs, ls):
        index = tuple(6 * (uj ** block * r + l) for uj, r, l in zip(us, rs, ls))
        return project_chain(us, block + 1, index, 1, block, coarse_branch=False)

    failures = 0
    for tup in itertools.product(*pairs):
        rs, ls = zip(*tup)
        failures += chain(u, rs, ls) != tuple(6 * r for r in rs)
    witness = next(
        (("axis", j, "coarse_index", r, "child_offset", l)
         for j, uj in enumerate(u) for r, l in pairs[j]
         if chain((uj,), (r,), (l,)) != (6 * r,)),
        None,
    )
    return failures, witness


@pytest.mark.parametrize("u,block,radius", [
    ((7,), 3, 4), ((6,), 2, 3), ((6, 7), 2, 3), ((7, 9), 1, 3), ((6, 7, 8), 1, 3),
])
def test_projection_negative_control_matches_chains(u, block, radius):
    audit = verify_projection_return(u, block, k=0, radius=radius, coarse_branch=False)
    assert audit.failures > 0
    assert (audit.failures, audit.witness) == _negative_control_by_chains(u, block, radius)


def test_projection_sweep_rejects_small_denominators():
    with pytest.raises(ValueError):
        verify_projection_return((4,), 1)


def test_half_shrink_sweeps():
    for u in (6, 10, 12):
        audit = verify_half_shrink((u,), level=2, block=2, radius=50)
        assert audit.passed
    audit2 = verify_half_shrink((6, 12), level=3, block=3, radius=50)
    assert audit2.passed and audit2.checked == 101 * 101
    with pytest.raises(ValueError):
        verify_half_shrink((10,), level=3, block=2)   # 3 = 1 mod 2


# ------------------------------------------------------------------ the game


@pytest.fixture(scope="module")
def rco_strategy():
    member = generate_rco(RcoSpec(4, 5, 2, 1), depth=4)
    return member, covering_strategy_for_rco(member, c=0.5)


def test_steering_into_cut_gets_captured(rco_strategy):
    member, strat = rco_strategy
    cut = member.of_kind("cut", 1)[0]
    tr = play_game(steering_policy(cut.box.center), strat, depth=3)
    hit = tr.outcome_inside_deleted()
    assert hit is not None and hit.move == 1
    for mv in tr.moves:
        assert mv.budget_spent_log <= mv.budget_cap_log + 1e-12


def test_boxes_stay_nested_and_sized(rco_strategy):
    _, strat = rco_strategy
    tr = play_game(steering_policy((Fraction(7), Fraction(-9))), strat, depth=4)
    prev = None
    for mv in tr.moves:
        assert mv.box.half == tuple(
            Fraction(1, 4 ** mv.move) if j == 0 else Fraction(1, 5 ** mv.move)
            for j in range(2)
        )
        if prev is not None:
            assert prev.contains_box(mv.box)
        prev = mv.box


def test_illegal_play_raises_without_clamping(rco_strategy):
    _, strat = rco_strategy
    with pytest.raises(ValueError, match="not nested"):
        play_game(steering_policy((Fraction(7), Fraction(-9))), strat, depth=2,
                  clamp=False)


def test_origin_play_survives_corner_cuts(rco_strategy):
    _, strat = rco_strategy
    tr = play_game(steering_policy((0, 0)), strat, depth=4)
    assert tr.outcome_inside_deleted() is None


def test_preamble_granted_before_move_one():
    strat = covering_strategy_for_rcd(RcdSpec(7, 4), c=0.5, t=1, depth=2)
    tr = play_game(steering_policy((0, 0)), strat, depth=2)
    assert len(tr.preamble) == 468           # (7-1)(4-1) * 26 level-0 covers
    assert all(rec.move == 0 for rec in tr.preamble)
    tr2 = play_game(steering_policy((0, 0)), strat, depth=2, grant_preamble=False)
    assert tr2.preamble == ()


def test_outcome_meets_the_first_deletion_preamble_first():
    strat = covering_strategy_for_rcd(RcdSpec(7, 4), c=0.5, t=1, depth=2)
    for grant, move in ((True, 0), (False, 1)):
        tr = play_game(steering_policy((0, 0)), strat, depth=2, grant_preamble=grant)
        deletions = list(tr.preamble) + [rec for mv in tr.moves for rec in mv.deletions]
        first = next(rec for rec in deletions if tr.outcome_box.intersects(rec.box))
        assert tr.outcome_intersects_deleted() == first and first.move == move
    tr = play_game(steering_policy((0, 0)), _empty_strategy(), depth=2)
    assert tr.outcome_intersects_deleted() is None


def test_transcript_text_round_shape(rco_strategy):
    member, strat = rco_strategy
    cut = member.of_kind("cut", 1)[0]
    tr = play_game(steering_policy(cut.box.center), strat, depth=2)
    text = tr.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("transcript radius=1 c=0.5")
    assert "betas=1/4,1/5" in lines[0]
    assert len([ln for ln in lines if ln.startswith("move m=")]) == 2
    # exact rationals, one move per line
    assert "center=-3/4,-4/5" in lines[1]
    assert text == play_game(steering_policy(cut.box.center), strat, depth=2).to_text()


def test_game_requires_exact_ratios():
    params = GameParameters(LogScalar.from_value(1e-6),
                            DiagonalContraction((0.3, 0.4)), 0.5)
    strat = CoveringStrategy(params, "rco", ())
    with pytest.raises(ValueError, match="exact"):
        play_game(steering_policy((0, 0)), strat, depth=1)


# ---------------------------------------------------------------- potential


def _empty_strategy() -> CoveringStrategy:
    params = GameParameters(
        rco_alpha(4, 5, 2, 1, 0.5), DiagonalContraction.from_denominators([4, 5]), 0.5
    )
    return CoveringStrategy(params, "rco", ())


def test_potential_level_one_is_always_zero(rco_strategy):
    member, strat = rco_strategy
    cut = member.of_kind("cut", 1)[0]
    tr = play_game(steering_policy(cut.box.center), strat, depth=3)
    row = potential_phi(tr, tr.moves[0].box, level=1, delta=0.01)
    assert row.phi_log == -math.inf and row.surviving


def test_potential_skip_always_game_is_zero_everywhere():
    tr = play_game(steering_policy((0, 0)), _empty_strategy(), depth=4)
    assert all(mv.skipped for mv in tr.moves)
    for level in (1, 2, 3, 4):
        row = potential_phi(tr, tr.moves[-1].box, level=level, delta=0.5)
        assert row.phi_log == -math.inf


def test_potential_single_deletion_exact_mass(rco_strategy):
    member, strat = rco_strategy
    cut = member.of_kind("cut", 1)[0]
    tr = play_game(steering_policy(cut.box.center), strat, depth=2)
    # keep exactly one recorded deletion, zero out the rest
    first = tr.moves[0].deletions[0]
    pruned = tr.moves[0].__class__(
        tr.moves[0].move, tr.moves[0].box, (first,),
        first.mass_log, tr.moves[0].budget_cap_log, False,
    )
    slim = tr.__class__(tr.radius, tr.c, tr.alpha_log, tr.betas, (),
                        (pruned,) + tr.moves[1:])
    row = potential_phi(slim, first.box, level=2, delta=0.01)
    # (prod beta^q)^c with q=2, c=1/2: ((1/16)(1/25))^(1/2) = 1/20
    assert row.phi_log == pytest.approx(math.log(1 / 20), abs=1e-12)
    assert row.phi_log == pytest.approx(first.mass_log, abs=0)


def test_potential_chain_cumulative_monotone(rco_strategy):
    # the projection chain of one level-3 fine cell the game steers through:
    # each cell's potential only grows move by move (level 1 is zero), and a
    # parent cell, which contains its child, is charged at least as much
    member, strat = rco_strategy
    cut = member.of_kind("cut", 2)[0]
    tr = play_game(steering_policy(cut.box.center), strat, depth=4)
    contraction = DiagonalContraction.from_denominators([4, 5])
    idx, chain = (-126, -248), []
    for level in (3, 2, 1):
        cell = Lattice("fine", contraction, level).cell_box(idx)
        chain.append([potential_phi(tr, cell, q, delta=0.01) for q in range(1, 6)])
        if level > 1:
            idx = project_index((4, 5), level - 1, idx, 1)
    for child, parent in zip(chain, chain[1:]):
        assert parent[0].cell.contains_box(child[0].cell)
        assert all(p.phi_log >= c.phi_log for c, p in zip(child, parent))
    for rows in chain:
        vals = [row.phi_log for row in rows]
        assert vals[0] == -math.inf and all(a < b for a, b in zip(vals[1:], vals[2:]))
    assert [rows[q - 1].surviving for rows, q in zip(chain, (3, 2, 1))] == [False, False, True]


def test_play_demo_game_script_runs_to_its_verdicts():
    # the script is the one caller of potential_phi, PotentialRow.surviving
    # and PlayTranscript.outcome_inside_deleted outside the tests
    script = Path(__file__).resolve().parents[1] / "scripts" / "play_demo_game.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-6:] == [
        "outcome swallowed by a deletion: True (move 1, exponent 2)",
        "potential at level 1: 0  survives threshold: True",
        "potential at level 2: exp(-2.302585)  survives threshold: False",
        "potential at level 3: exp(-2.995732)  survives threshold: False",
        "",
        "steering to the origin instead: swallowed by a deletion = False",
    ]


# ----------------------------------------------------------- counting oracles


def test_child_grid_frozen_per_axis_counts():
    # (denominator, block) -> per-axis child count 2*floor(gamma)+1
    for u, block, want in ((10, 1, 3), (10, 2, 33), (12, 1, 3), (12, 2, 47),
                           (12, 3, 575)):
        rep = child_cover_grid((u,), block, (7,))
        assert rep.count == want == rep.formula_count, (u, block, rep)
        assert rep.all_inside_half_parent and rep.matches_enumeration
        assert rep.count >= rep.floor_product


def test_child_grid_gamma_values():
    assert child_cover_grid((10,), 1, (0,)).gammas == (Fraction(4, 3),)
    assert child_cover_grid((10,), 2, (0,)).gammas == (Fraction(49, 3),)


def test_child_grid_three_dim_product():
    rep = child_cover_grid((9, 10, 11), 1, (2, 0, -1))
    assert rep.matches_enumeration and rep.all_inside_half_parent
    assert rep.count == rep.formula_count == 3 * 3 * 3
    rep2 = child_cover_grid((6, 7, 12), 1, (-1, 3, 0), k=1)
    assert rep2.matches_enumeration and rep2.count == rep2.formula_count == 1 * 1 * 3


def test_child_grid_two_dim_product():
    rep = child_cover_grid((10, 12), 1, (3, -4))
    assert rep.count == 3 * 3 and rep.matches_enumeration
    rep2 = child_cover_grid((10, 10), 2, (-1, 2), k=1)
    assert rep2.count == 33 * 33 and rep2.all_inside_half_parent


@given(st.integers(6, 14), st.integers(1, 2), st.integers(-1000, 1000))
@settings(max_examples=60, deadline=None)
def test_child_grid_parent_invariance(u, block, parent):
    rep = child_cover_grid((u,), block, (parent,))
    assert rep.matches_enumeration and rep.all_inside_half_parent
    assert rep.count == rep.formula_count >= max(rep.floor_product, 1)


def test_overlap_bound_frozen_small_case():
    # u=10, fine level 3, deleted exponent 2 centered at 1/7: centers 3p/1000
    # within 11/1000 + 1/1000 of 1/7 (window (1/100 + 1/1000))
    rep = tuple_overlap_bound((10,), 3, 2, (Fraction(1, 7),))
    assert rep.exact_count == 8
    assert rep.bound == Fraction(44) and rep.ok


@given(
    st.integers(6, 12), st.integers(1, 4), st.integers(2, 6),
    st.fractions(min_value=-2, max_value=2),
)
@settings(max_examples=120, deadline=None)
def test_overlap_bound_dominates_random_boxes(u, q, extra, center):
    rep = tuple_overlap_bound((u,), q + extra, q, (center,))
    assert rep.ok


def test_overlap_bound_two_dim():
    rep = tuple_overlap_bound((10, 12), 2, 1, (Fraction(0), Fraction(1, 3)))
    assert rep.ok and rep.exact_count >= 1


def test_transfer_inequality_equality_case():
    lhs, rhs = potential_transfer_bound(1, 1, 1, 1, 1, 0.5)
    assert lhs == pytest.approx(2.0) and rhs == pytest.approx(2.0)
    with pytest.raises(ValueError):
        potential_transfer_bound(1, 1, 1, 1, 1, 1.0)
    with pytest.raises(ValueError):
        potential_transfer_bound(0, 1, 1, 1, 1, 0.5)


@given(
    st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.floats(1e-6, 1e3),
    st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.floats(1e-4, 1 - 1e-4),
)
@settings(max_examples=400, deadline=None)
def test_transfer_inequality_random(x, y, a, b, gamma, c):
    lhs, rhs = potential_transfer_bound(x, y, a, b, gamma, c)
    assert lhs <= rhs * (1 + 1e-12)


# ------------------------------------------------------------- budget audits


def test_budget_audit_rco_within_worst_case(rco_strategy):
    _, strat = rco_strategy
    audit = verify_covering_budget(strat, levels=[1, 2])
    assert audit.all_legal
    assert audit.worst_hits <= 18          # 9 cells x 2 cuts each, worst case
    for lv in audit.levels:
        assert lv.spent_log <= lv.cap_log + 1e-12
        assert lv.worst_center is not None


def test_budget_audit_empty_strategy_trivially_legal():
    audit = verify_covering_budget(_empty_strategy())
    assert audit.all_legal and audit.worst_hits == 0 and audit.levels == ()


def test_budget_audit_requires_exact_ratios():
    params = GameParameters(LogScalar.from_value(1e-6),
                            DiagonalContraction((0.3, 0.4)), 0.5)
    with pytest.raises(ValueError, match="exact"):
        verify_covering_budget(CoveringStrategy(params, "rco", ()))


def test_budget_audit_rejects_levels_the_strategy_lacks():
    strat = covering_strategy_for_rco(generate_rco(RcoSpec(4, 5, 2, 1), depth=2), c=0.5)
    with pytest.raises(ValueError, match=r"no level 7, 9 \(it has 1, 2\)"):
        verify_covering_budget(strat, levels=[7, 2, 9])
    assert [lv.level for lv in verify_covering_budget(strat, levels=[2]).levels] == [2]


# ------------------------------- lattice arithmetic vs brute-force references


def _brute_force_audit(strategy, level, extent=1, rho1=1):
    """(test boxes, worst hits, first worst center), one intersects call per pair."""
    dens = strategy.params.contraction.denominators
    lvl = strategy.level(level)
    half = tuple(Fraction(rho1) * Fraction(1, d ** level) for d in dens)
    spacing = tuple(h / 2 for h in half)
    reach = [int((Fraction(extent) + half[j]) / spacing[j]) for j in range(2)]
    best, where, tests = -1, None, 0
    for ix in range(-reach[0], reach[0] + 1):
        for iy in range(-reach[1], reach[1] + 1):
            test = BoxRegion((ix * spacing[0], iy * spacing[1]), half)
            hits = sum(1 for b in lvl.boxes if test.intersects(b))
            tests += 1
            if hits > best:
                best, where = hits, test.center
    return tests, best, where


def _brute_force_deletions(transcript, strategy):
    """Per move, the boxes of its level that meet the play box, in box order."""
    by_level = {lv.level: lv for lv in strategy.levels if not lv.preamble}
    out = []
    for mv in transcript.moves:
        lvl = by_level.get(mv.move)
        out.append([b for b in lvl.boxes if mv.box.intersects(b)] if lvl else [])
    return out


def _assert_deletions_match(transcript, strategy):
    """Each move deletes exactly the brute-force boxes, or skips them when
    they are none or over budget."""
    exponents = {lv.level: lv.exponent for lv in strategy.levels}
    log_det = strategy.params.contraction.log_det()
    for mv, want in zip(transcript.moves, _brute_force_deletions(transcript, strategy)):
        if mv.skipped:
            assert mv.deletions == ()
            if want:
                mass = LogScalar(strategy.params.c * exponents[mv.move] * log_det)
                assert LogScalar.sum(mass for _ in want).log > mv.budget_cap_log + BUDGET_TOL
        else:
            assert want and [d.box for d in mv.deletions] == want


@pytest.mark.parametrize("strategy_args, level, extent, rho1", [
    (("rcd", RcdSpec(3, 4, "hash", 21), 1, 1), 0, 1, 1),
    (("rcd", RcdSpec(2, 3, "hash", 5), 1, 2), 1, 1, Fraction(2, 3)),
    (("rco", RcoSpec(3, 2, 2, 1), None, 2), 1, 2, 1),
], ids=["rcd-preamble", "rcd-rho1-2/3", "rco-extent-2"])
def test_budget_audit_matches_brute_force(strategy_args, level, extent, rho1):
    kind, spec, t, depth = strategy_args
    if kind == "rcd":
        strat = covering_strategy_for_rcd(spec, c=0.5, t=t, depth=depth)
    else:
        strat = covering_strategy_for_rco(generate_rco(spec, depth), c=0.5)
    report, = verify_covering_budget(strat, levels=[level], extent=extent, rho1=rho1).levels
    tests, worst, center = _brute_force_audit(strat, level, extent, rho1)
    assert (report.test_boxes, report.worst_hits, report.worst_center) == (tests, worst, center)
    assert report.strategy_boxes == len(strat.level(level).boxes)


def test_budget_audit_bounds_its_grid_before_allocating(monkeypatch):
    # the depth-5 RCO(4,5,2,1) audit at extent 1 stays within the limit
    assert (4 * 4 ** 5 + 6) * (4 * 5 ** 5 + 6) <= MAX_AUDIT_CELLS
    strat = covering_strategy_for_rco(generate_rco(RcoSpec(4, 5, 2, 1), 2), c=0.5)
    # level 1 at extent 2: max indices 18 and 22, so (2*18 + 2) x (2*22 + 2) cells
    cells = 38 * 46
    monkeypatch.setattr(gamesim, "MAX_AUDIT_CELLS", cells)
    report, = verify_covering_budget(strat, levels=[1], extent=2).levels
    tests, worst, center = _brute_force_audit(strat, 1, extent=2)
    assert (report.test_boxes, report.worst_hits, report.worst_center) == (tests, worst, center)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before checking the grid size")

    monkeypatch.setattr(families, "_on_one_lattice", no_allocation)
    monkeypatch.setattr(np, "zeros", no_allocation)
    monkeypatch.setattr(gamesim, "MAX_AUDIT_CELLS", cells - 1)
    with pytest.raises(OverflowError, match=f"extent = 2 needs {cells} level-1 audit grid cells"):
        verify_covering_budget(strat, levels=[1], extent=2)
    # the 23 TiB request of extent 100000 is refused at the real limit
    monkeypatch.setattr(gamesim, "MAX_AUDIT_CELLS", MAX_AUDIT_CELLS)
    with pytest.raises(OverflowError, match="over the limit of 67108864"):
        verify_covering_budget(strat, extent=100000)


@pytest.mark.parametrize("target", [
    (Fraction(7, 8), Fraction(9, 10)),
    (Fraction(-5, 64), Fraction(33, 64)),
    (Fraction(0), Fraction(-1, 3)),
])
def test_play_game_deletions_match_brute_force(target):
    strat = covering_strategy_for_rcd(RcdSpec(5, 3, "hash", 8), c=0.5, t=1, depth=3)
    tr = play_game(steering_policy(target), strat, depth=2)
    assert any(mv.deletions for mv in tr.moves)
    _assert_deletions_match(tr, strat)


@pytest.mark.parametrize("mass_log", [-0.7, -13.862943611198906, -1e-300, -700.0])
def test_a_move_charges_k_equal_masses_as_their_log_sum(mass_log):
    # play_game charges a move's k deletions, all of one level, as mass + ln k
    for k in (1, 2, 3, 7, 10, 1000, 4097):
        assert mass_log + math.log(k) == LogScalar.sum([LogScalar(mass_log)] * k).log


def _recording_lattice(monkeypatch):
    """Patch the lattice helper to record, for every result, its dtype and
    that of the stored columns (object for a tuple of Python ints)."""
    seen = []
    real = families._on_one_lattice

    def spy(axis, extras):
        centers, halves, nums = real(axis, extras)
        assert centers.dtype == halves.dtype
        stored = {np.dtype(memoryview(col).format) if isinstance(col, (array, memoryview))
                  else np.dtype(object) for col in axis[1:]}
        assert len(stored) == 1
        seen.append((centers.dtype, *stored))
        return centers, halves, nums

    monkeypatch.setattr(families, "_on_one_lattice", spy)
    return seen


def test_huge_denominators_take_the_object_path(monkeypatch):
    # boxes on a lattice of denominator 2^70 + 1: numerators far past int64
    den = 2 ** 70 + 1
    half = (Fraction(2 ** 60, den), Fraction(2 ** 61, den))
    boxes = tuple(
        BoxRegion((Fraction(i * 2 ** 63 + 1, den), Fraction(-j * 2 ** 64 - 3, den)), half)
        for i in range(-2, 3) for j in range(3)
    )
    params = GameParameters(
        rco_alpha(4, 5, 2, 1, 0.5), DiagonalContraction.from_denominators([4, 5]), 0.5
    )
    strat = CoveringStrategy(params, "rco", (StrategyLevel(1, 2, params.alpha.log, False, boxes),))
    seen = _recording_lattice(monkeypatch)
    report, = verify_covering_budget(strat, levels=[1]).levels
    assert seen and all(dt == stored == object for dt, stored in seen)
    assert (report.test_boxes, report.worst_hits, report.worst_center) == \
        _brute_force_audit(strat, 1)
    assert report.worst_hits > 1
    seen.clear()
    tr = play_game(steering_policy((Fraction(1, 10 ** 30), Fraction(-1, 7))), strat, depth=1)
    assert seen and all(dt == stored == object for dt, stored in seen)
    assert tr.moves[0].deletions
    _assert_deletions_match(tr, strat)


def test_steering_targets_keep_integer_levels_in_their_own_dtype(monkeypatch):
    # the game compares a level's stored columns against integer thresholds,
    # so no target, however fine its denominator, widens them or turns them
    # into objects: RCO(4,5,2,1) at depth 2 stores int16 columns
    strat = covering_strategy_for_rco(generate_rco(RcoSpec(4, 5, 2, 1), depth=2), c=0.5)
    seen = _recording_lattice(monkeypatch)
    tr = play_game(steering_policy((Fraction(1, 10 ** 30), Fraction(1, 10 ** 30))), strat, depth=2)
    assert tr.moves[0].box.center == (Fraction(1, 10 ** 30), Fraction(1, 10 ** 30))
    assert seen and all(dt == stored != object for dt, stored in seen)
    assert {stored for _, stored in seen} == {np.dtype(np.int16)}
    _assert_deletions_match(tr, strat)
    for target in ((Fraction(1, 8), Fraction(1, 10)), (0.1, -0.7),
                   (Fraction(-1, 3 * 10 ** 40), Fraction(10 ** 40 - 1, 2 * 10 ** 40))):
        seen.clear()
        tr = play_game(steering_policy(target), strat, depth=2)
        assert seen and all(dt == stored != object for dt, stored in seen)
        _assert_deletions_match(tr, strat)


def _traced(work):
    """(result, tracemalloc peak above the start, memory still held), MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = work()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - start) / 2 ** 20, (held - start) / 2 ** 20


def test_strategy_audit_and_game_make_no_level_sized_copies():
    # the RCD(7,4) strategy at t = 1, depth 3 holds 160,524 boxes: its
    # levels keep one int16 center column per axis (0.61 MiB in all) and one
    # half-width, the audit counts a chunk of boxes at a time, and the game
    # compares the stored columns against integer thresholds
    build = lambda: covering_strategy_for_rcd(RcdSpec(7, 4), c=0.5, t=1, depth=3)  # noqa: E731
    play = lambda: play_game(  # noqa: E731
        steering_policy((Fraction(7, 8), Fraction(9, 10))), strat, depth=3)
    build()
    strat, _, kept = _traced(build)
    assert sum(len(lv.boxes) for lv in strat.levels) == 160_524
    assert kept < 0.7, kept
    verify_covering_budget(strat, levels=[1])
    audit, peak, _ = _traced(lambda: verify_covering_budget(strat, levels=[1, 2]))
    assert audit.all_legal and peak < 2.5, peak
    play()
    tr, peak, _ = _traced(play)
    assert any(mv.deletions for mv in tr.moves) and peak < 2, peak
