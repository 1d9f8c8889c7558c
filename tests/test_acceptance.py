"""Acceptance gate: every stated target, one pass/fail line per criterion.

Quantitative targets (1-7, 12, 13) pin the certified pattern counts and
dimension bounds for the stock instances; property suites (8-11) replay the
combinatorial facts the certificates lean on, exhaustively where the domain
is finite and with seeded random sweeps where it is not; 14 holds each
dimension bound below the exact dimension of a member it covers, and 15
runs README's library block and its config blocks, and checks that README
names every config key a command reads.
"""
import collections
import itertools
import math
import random
import re
import runpy
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from gamecert.certify import REL_MARGIN, default_delta, feasibility_report
from gamecert.cli import Config, _recertify, main
from gamecert.core import DiagonalContraction, LogScalar
from gamecert.families import (
    RcdSpec,
    RcoSpec,
    covering_strategy_for_rcd,
    covering_strategy_for_rco,
    generate_rcd,
    generate_rco,
)
from gamecert.gamesim import (
    child_cover_grid,
    potential_transfer_bound,
    tuple_overlap_bound,
    verify_covering_budget,
    verify_half_shrink,
    verify_projection_return,
)
from gamecert.optimize import (
    _family_rates,
    _tail,
    max_pattern_size,
    optimize_intersection,
    optimize_pattern_count,
    smallest_u_for_patterns,
)

TOL = 1e-5
U5 = 900019043105
V5 = 999921083009


@pytest.fixture(scope="module")
def headline():
    """All seven quantitative instances, run once."""
    runs = {}
    runs["c1"] = optimize_pattern_count(RcoSpec(12, 15, 1, 5))
    runs["c2"] = optimize_pattern_count(RcoSpec(17, 24, 1, 5))
    runs["c3"] = optimize_pattern_count(RcoSpec(271828, 314159, 2, 1))
    runs["c4"] = optimize_pattern_count(RcdSpec(2**37, 2**38))
    runs["c5"] = optimize_pattern_count(RcdSpec(U5, V5))
    runs["c6"] = optimize_intersection(
        [RcdSpec(U5, V5)] + [RcoSpec(U5, V5, 4, k) for k in range(1, 6)],
        want_patterns=True,
    )
    runs["c7a"] = optimize_intersection(
        [RcdSpec(2**37, 2**36), RcdSpec(2**37, 2**36),
         RcoSpec(2**37, 2**36, 1, 2), RcoSpec(2**37, 2**36, 1, 6)])
    runs["c7b"] = optimize_intersection(
        [RcdSpec(2**36, 2**40), RcoSpec(2**36, 2**40, 1, 1)])
    runs["c7c"] = optimize_intersection(
        [RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)])
    return runs


@pytest.fixture(scope="module")
def smallest_u():
    """smallest_u_for_patterns(M, 0) for M = 2..6, run once."""
    return {m: smallest_u_for_patterns(m, 0) for m in range(2, 7)}


# --------------------------------------------------------- 1-7: stock bounds


@pytest.mark.xfail(
    strict=True,
    reason="four-point target is infeasible for the (12,15) single-removal "
    "family: the count condition at M = 4 forces the budget rate above what "
    "the survival condition tolerates at every (c, delta); M = 3 is attained "
    "and certified",
)
def test_c01_cutout_12_15_pattern_count(headline):
    assert headline["c1"].pattern_count >= 4


def test_c01_cutout_12_15_dimension(headline):
    assert headline["c1"].feasible
    assert headline["c1"].dim_bound >= 1.99996 - TOL


def test_c02_cutout_17_24(headline):
    assert headline["c2"].pattern_count >= 232
    assert headline["c2"].dim_bound >= 1.99997 - TOL


def test_c03_cutout_271828_314159(headline):
    assert headline["c3"].pattern_count >= 3
    assert headline["c3"].dim_bound >= 1.99997 - TOL


def test_c04_corner_2p37_2p38(headline):
    assert headline["c4"].pattern_count >= 4
    assert headline["c4"].dim_bound >= 1.99999 - TOL


def test_c05_corner_12digit(headline):
    assert headline["c5"].pattern_count >= 21
    assert headline["c5"].dim_bound >= 1.99999 - TOL


def test_c06_corner_meets_five_cutouts(headline):
    assert headline["c6"].pattern_count >= 4
    assert headline["c6"].dim_bound >= 1.99999 - TOL


def test_c07_intersection_bounds(headline):
    assert headline["c7a"].dim_bound >= 1.999993 - TOL
    assert headline["c7b"].dim_bound >= 1.999997 - TOL
    assert headline["c7c"].dim_bound >= 1.99998 - TOL


# ------------------------------------------- 8: antitonicity + search agreement


def test_c08_feasibility_antitone_and_search_agreement():
    rnd = random.Random(20260819)
    checked = 0
    for _ in range(1000):
        betas = (rnd.uniform(0.005, 0.199), rnd.uniform(0.005, 0.199))
        con = DiagonalContraction(betas)
        c = rnd.uniform(0.55, 0.98)
        alpha = LogScalar(rnd.uniform(-40.0, -15.0))
        m = rnd.randint(1, 256)
        delta = default_delta(con) * rnd.uniform(0.05, 0.95)
        feasible = feasibility_report(alpha, con, c, delta, m).feasible
        if feasible:
            smaller_rate = LogScalar(alpha.log - rnd.uniform(0.1, 3.0))
            assert feasibility_report(smaller_rate, con, c, delta, m).feasible
            assert feasibility_report(alpha, con, c, delta, max(1, m // 2)).feasible
            checked += 1
    assert checked > 50  # the draw box must actually hit the feasible region

    for seed in range(6):
        rnd = random.Random(900 + seed)
        con = DiagonalContraction((rnd.uniform(0.01, 0.19), rnd.uniform(0.01, 0.19)))
        c = rnd.uniform(0.7, 0.98)
        alpha = LogScalar(rnd.uniform(-34.0, -16.0))
        delta = _tail(con.n)[0]
        answer = max_pattern_size(alpha, con, c, 10**4)
        linear = 0
        while linear < 10**4 and feasibility_report(
                alpha, con, c, delta, linear + 1).feasible:
            linear += 1
        assert answer == linear


def test_c08_headline_counts_have_no_feasible_count_just_above(headline):
    # the count settled at the tail witness is the largest only if no M
    # past it certifies at any witness; scan the next eight counts over
    # witnesses from the condition-(1) boundary up to where condition (2)
    # ends, 3^-n / pack
    contractions = {
        "c1": RcoSpec(12, 15, 1, 5).contraction(),
        "c2": RcoSpec(17, 24, 1, 5).contraction(),
        "c3": RcoSpec(271828, 314159, 2, 1).contraction(),
        "c4": RcdSpec(2**37, 2**38).contraction(),
        "c5": RcdSpec(U5, V5).contraction(),
        "c6": RcdSpec(U5, V5).contraction(),
    }
    for key, con in contractions.items():
        res = headline[key]
        assert res.pattern_count > 1, key
        alpha = LogScalar(res.alpha_log)
        count = max_pattern_size(alpha, con, res.c)
        assert count == res.pattern_count, key
        n = con.n
        top = 3.0 ** -n / (8.0 ** n * (1.0 + 2.0 ** (2 * n + 1)))
        gap = math.log(-math.expm1((1.0 - res.c) * con.log_det()))
        for m in range(count + 1, count + 9):
            low = min(math.exp(0.5 * (math.log(m) + res.c * alpha.log - gap)), top)
            scan = [low * (top / low) ** (i / 399) for i in range(400)]
            scan += [top * (1.0 - k * 2.0 ** -44) for k in range(1, 64)]
            for delta in scan:
                assert not feasibility_report(
                    alpha, con, res.c, delta, m).feasible, (key, m, delta)


def test_c08_grid_count_is_the_best_over_a_dense_c_scan(headline):
    # the c grid is count-optimal: at each winner's t, no 1 - c among 4,000
    # log-spaced values in [1e-5, 0.6] certifies more points than the search
    expected = {
        "c1": (RcoSpec(12, 15, 1, 5), 3),
        "c2": (RcoSpec(17, 24, 1, 5), 232),
        "c3": (RcoSpec(271828, 314159, 2, 1), 3),
        "c4": (RcdSpec(2**37, 2**38), 4),
        "c5": (RcdSpec(U5, V5), 21),
    }
    for key, (spec, count) in expected.items():
        res = headline[key]
        assert res.pattern_count == count, key
        con = spec.contraction()
        rate = _family_rates(spec)(res.t)
        best = 0
        for i in range(4000):
            c = 1.0 - 1e-5 * (0.6 / 1e-5) ** (i / 3999)
            alpha = LogScalar(rate(c))
            if alpha.log < 0.0:
                best = max(best, max_pattern_size(alpha, con, c))
        assert best == count, key


# ------------------------------- 9: exhaustive projection return + half-shrink


def test_c09_projection_and_half_shrink_exhaustive():
    sizes = range(6, 13)
    axes = [(u,) for u in sizes] + list(itertools.product(sizes, sizes))
    checked = 0
    for u in axes:
        for block in (1, 2, 3):
            audit = verify_projection_return(u, block, radius=50)
            assert audit.failures == 0, (u, block, audit.witness)
            checked += audit.checked
            for level in range(2, block + 1):
                hs = verify_half_shrink(u, level, block, radius=50)
                assert hs.failures == 0, (u, block, level, hs.witness)
                checked += hs.checked
    assert checked > 10**9  # the sweep is genuinely exhaustive, not sampled


# ------------------------------------------------------- 10: budget audits


def test_c10_cutout_budget_audit():
    member = generate_rco(RcoSpec(4, 5, 2, 1), depth=2)
    strategy = covering_strategy_for_rco(member, c=0.5)
    audit = verify_covering_budget(strategy, levels=(1, 2))
    assert audit.all_legal
    assert audit.worst_hits <= 18  # 9m with m = 2


def test_c10_headline_cutout_budget_audits():
    # two headline cut-out members, audited at their own parameters
    for spec in (RcoSpec(12, 15, 1, 5), RcoSpec(17, 24, 1, 5)):
        strategy = covering_strategy_for_rco(generate_rco(spec, depth=2), c=0.99)
        audit = verify_covering_budget(strategy)
        assert [level.level for level in audit.levels] == [1, 2]
        assert audit.all_legal
        assert audit.worst_hits == 4 <= 9 * spec.m


def test_c10_corner_budget_audit():
    strategy = covering_strategy_for_rcd(RcdSpec(7, 4), c=0.5, t=1, depth=3)
    audit = verify_covering_budget(strategy, levels=(1, 2))
    assert audit.all_legal
    assert audit.worst_hits <= 9 * 18 * 26  # 9 (u-1)(v-1) N_t


# ------------------------- 11: transfer inequality, child grids, overlap bound


def test_c11_transfer_inequality_100k_samples():
    rnd = random.Random(7)
    for _ in range(100_000):
        x = rnd.uniform(1e-9, 100.0)
        y = rnd.uniform(1e-9, 100.0)
        a = rnd.uniform(0.0, 10.0)
        b = rnd.uniform(0.0, 10.0)
        gamma = rnd.uniform(1e-6, 8.0)
        c = rnd.uniform(1e-6, 1.0 - 1e-6)
        lhs, rhs = potential_transfer_bound(x, y, a, b, gamma, c)
        assert lhs <= rhs * (1.0 + 1e-12), (x, y, a, b, gamma, c)


def test_c11_child_grid_matches_exhaustive():
    for u in (10, 12):
        for block in (1, 2, 3):
            rep = child_cover_grid((u,), block, (3,))
            assert rep.matches_enumeration and rep.all_inside_half_parent
            assert rep.count == rep.formula_count >= rep.floor_product
    both = child_cover_grid((10, 12), 2, (1, -2))
    assert both.matches_enumeration and both.count == 33 * 47


def test_c11_overlap_bound_dominates_10k_draws():
    rnd = random.Random(11)
    for _ in range(10_000):
        u = (rnd.randint(6, 14), rnd.randint(6, 14))
        level = rnd.randint(1, 4)
        exponent = rnd.randint(1, level)
        center = (Fraction(rnd.randint(-1000, 1000), rnd.randint(1, 97)),
                  Fraction(rnd.randint(-1000, 1000), rnd.randint(1, 97)))
        rep = tuple_overlap_bound(u, level, exponent, center)
        assert rep.ok, (u, level, exponent, center)


# ------------------------------------------------ 12: smallest certifying u


def test_c12_smallest_u_for_four_points(smallest_u):
    answer = smallest_u[4]
    assert answer.u == 176924670080
    assert answer.result.pattern_count >= 4
    assert answer.below.pattern_count < 4
    cert = answer.result.certificate
    assert cert is not None and cert.fields["feasible"]
    # the emitted certificate re-validates from its own stated parameters
    assert _recertify(cert).to_text() == cert.to_text()
    # and clears the strict-inequality margins, not just the comparisons
    assert cert.fields["condition2_margin"] >= REL_MARGIN
    assert cert.fields["condition1_lhs_log"] <= \
        cert.fields["condition1_rhs_log"] + math.log1p(-REL_MARGIN)


# ------------------------------------------------- 13: end-to-end determinism


def test_c13_repeated_runs_byte_identical(headline):
    reruns = {
        "c1": optimize_pattern_count(RcoSpec(12, 15, 1, 5)),
        "c2": optimize_pattern_count(RcoSpec(17, 24, 1, 5)),
        "c3": optimize_pattern_count(RcoSpec(271828, 314159, 2, 1)),
        "c4": optimize_pattern_count(RcdSpec(2**37, 2**38)),
        "c5": optimize_pattern_count(RcdSpec(U5, V5)),
        "c6": optimize_intersection(
            [RcdSpec(U5, V5)] + [RcoSpec(U5, V5, 4, k) for k in range(1, 6)],
            want_patterns=True,
        ),
        "c7a": optimize_intersection(
            [RcdSpec(2**37, 2**36), RcdSpec(2**37, 2**36),
             RcoSpec(2**37, 2**36, 1, 2), RcoSpec(2**37, 2**36, 1, 6)]),
        "c7b": optimize_intersection(
            [RcdSpec(2**36, 2**40), RcoSpec(2**36, 2**40, 1, 1)]),
        "c7c": optimize_intersection(
            [RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)]),
    }
    for key, rerun in reruns.items():
        first = headline[key]
        assert rerun.certificate is not None and first.certificate is not None
        assert rerun.certificate.to_text() == first.certificate.to_text(), key


# --------------------------------------------- 14: exact dimension ceilings
#
# A certificate's bound holds for every member of its families, and an
# intersection lies in each of its members, so a bound must lie below the
# exact dimension of any member whose dimension has a closed form:
# - the fixed-rule RCD(u, v) member keeps the high-corner child of every
#   region, so it is the product of two Cantor sets with u - 1 (v - 1) maps
#   of ratio 1/u (1/v): log(u-1)/log u + log(v-1)/log v (Hutchinson; the
#   product formula, Falconer, Fractal Geometry, ch. 7);
# - the corner RCO(u, v, m, 1) member is a Bedford-McMullen carpet, plus the
#   kept edges of its cuts, of dimension at most 1: McMullen's
#   log_a sum_j t_j^(log_b a), a = min(u, v), b = max(u, v), t_j the kept
#   subcells in column j along the a axis (McMullen, Nagoya Math. J. 96).
# Cut-out members with t >= 2 are sofic carpets, with no closed form here.
# The ceilings are computed in 100-bit mpmath, apart from core and certify.


def _rco_corner_slots(u, v, m):
    """The (x, y) subcell slots that corner placement cuts from every cell at
    t = 1: slot s is (s mod u, s div u), row-major from the low corner."""
    return {(s % u, s // u) for s in range(m)}


def _dim_ceiling(spec):
    """The exact dimension of the fixed-rule RCD member, or of the corner
    RCO member with t = 1; None for any other family."""
    with mpmath.workprec(100):
        if isinstance(spec, RcdSpec):
            return sum(mpmath.log(w - 1) / mpmath.log(w) for w in (spec.u, spec.v))
        if spec.t != 1:
            return None
        a, b = sorted((spec.u, spec.v))
        axis = 0 if spec.u <= spec.v else 1
        cut = collections.Counter(slot[axis] for slot in _rco_corner_slots(spec.u, spec.v, spec.m))
        theta = mpmath.log(a) / mpmath.log(b)
        total = (a - len(cut)) * mpmath.mpf(b) ** theta + mpmath.fsum(
            mpmath.mpf(b - n) ** theta for n in cut.values())
        return mpmath.log(total) / mpmath.log(a)


def test_c14_dimension_bounds_lie_below_the_exact_dimension(headline, smallest_u):
    covered = [
        (headline["c3"], [RcoSpec(271828, 314159, 2, 1)]),
        (headline["c4"], [RcdSpec(2**37, 2**38)]),
        (headline["c5"], [RcdSpec(U5, V5)]),
        (headline["c6"], [RcdSpec(U5, V5)] + [RcoSpec(U5, V5, 4, k) for k in range(1, 6)]),
        (headline["c7a"], [RcdSpec(2**37, 2**36), RcoSpec(2**37, 2**36, 1, 2),
                           RcoSpec(2**37, 2**36, 1, 6)]),
        (headline["c7b"], [RcdSpec(2**36, 2**40), RcoSpec(2**36, 2**40, 1, 1)]),
    ]
    for answer in smallest_u.values():
        covered += [(answer.result, [RcdSpec(answer.u, answer.u)]),
                    (answer.below, [RcdSpec(answer.u - 1, answer.u - 1)])]
    for result, members in covered:
        fields = result.certificate.fields
        ceiling = min(d for d in map(_dim_ceiling, members) if d is not None)
        assert fields["feasible"] and mpmath.mpf(fields["dim_lower_bound"]) < ceiling, members


def test_c14_members_have_the_structure_their_dimension_formula_reads():
    # fixed-rule RCD(7, 4) at level 3: every pair of 6^3 x-intervals and
    # 3^3 y-intervals, and each factor the level-3 image of the w - 1 maps
    # x -> x/w + d_s, d_s = (2s - w + 1)/(w - 1) - 1/w (the high-corner
    # child of region s), whose images lie 2/(w - 1) > 2/w apart
    comps = [e.box.center for e in generate_rcd(RcdSpec(7, 4), 3).of_kind("comp", 3)]
    xs, ys = sorted({x for x, _ in comps}), sorted({y for _, y in comps})
    assert (len(xs), len(ys)) == (216, 27) and sorted(comps) == list(itertools.product(xs, ys))
    for axis, w in ((xs, 7), (ys, 4)):
        d = [Fraction(2 * s - w + 1, w - 1) - Fraction(1, w) for s in range(1, w)]
        assert axis == sorted(a + b / w + c / w ** 2 for a, b, c in itertools.product(d, repeat=3))
    # corner RCO(u, v, m, 1): every level-k cell loses exactly the slots
    # _rco_corner_slots names, which fix the column counts t_j
    for u, v, m in ((4, 5, 2), (5, 3, 7), (3, 3, 4), (2, 6, 3)):
        member = generate_rco(RcoSpec(u, v, m, 1), 2)
        for k in (1, 2):
            cells = collections.defaultdict(set)
            for cut in member.of_kind("cut", k):
                # slot index along each axis, in units of the cut's width
                sx, sy = ((c + 1) * w ** (k + 1) / 2 - Fraction(1, 2)
                          for c, w in zip(cut.box.center, (u, v)))
                assert sx.denominator == sy.denominator == 1
                cells[int(sx) // u, int(sy) // v].add((int(sx) % u, int(sy) % v))
            assert len(cells) == (u * v) ** k
            assert all(slots == _rco_corner_slots(u, v, m) for slots in cells.values())


# ------------------------------------------------- 15: README's library block


def test_c15_readme_library_block_prints_what_its_comments_state(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    stated = [line.split("#", 1)[1].strip() for line in block.splitlines()
              if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert stated and capsys.readouterr().out.splitlines() == stated


def test_c15_readme_config_blocks_run_in_order_and_exit_0(tmp_path, monkeypatch):
    # in one directory, so the certify block re-validates what the maximize
    # block wrote to run/; the simulate and find-pattern blocks read views
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block for block in re.findall(r"^```\n(.*?)^```$", readme, re.S | re.M)
              if block.startswith("command =")]
    commands = [block.split("\n", 1)[0].split("= ")[1] for block in blocks]
    assert {"maximize", "certify", "generate", "simulate", "find-pattern"} <= set(commands)
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        (tmp_path / f"block-{i}.cfg").write_text(block)
        assert main(["--config", f"block-{i}.cfg", "--out", "run"]) == 0, block


def _member_keys(text):
    """`text` with each numbered member's key prefix member.<n>. as member.<i>."""
    return re.sub(r"\bmember\.\d+\.", "member.<i>.", text)


def test_c15_readme_names_every_key_a_command_reads(tmp_path, monkeypatch):
    # one config per command and per verify check (scripts/traffic.py's
    # CONFIGS), each certificate they write re-validated: every key a run
    # asks Config.raw for, set or not, is named in README
    root = Path(__file__).resolve().parents[1]
    configs = runpy.run_path(str(root / "scripts" / "traffic.py"))["CONFIGS"]
    asked = set()
    raw = Config.raw

    def recorded(self, key, *args):
        asked.add(key)
        return raw(self, key, *args)

    monkeypatch.setattr(Config, "raw", recorded)
    for i, (config, want) in enumerate(configs.values()):
        out = tmp_path / f"run-{i}"
        (tmp_path / f"run-{i}.cfg").write_text(config)
        assert main(["--config", str(tmp_path / f"run-{i}.cfg"), "--out", str(out)]) == want
        if (out / "certificate.txt").exists():
            (tmp_path / f"again-{i}.cfg").write_text(
                f"command = certify\ncertify.certificate = {out / 'certificate.txt'}\n")
            assert main(["--config", str(tmp_path / f"again-{i}.cfg"),
                         "--out", str(out / "again")]) == want
    readme = _member_keys((root / "README.md").read_text())
    keys = {_member_keys(key) for key in asked}
    assert {"maximize.objective", "member.<i>.corner_rule", "certify.certificate"} <= keys
    unnamed = sorted(key for key in keys
                     if not re.search(r"(?<![\w.])" + re.escape(key) + r"(?!\w)", readme))
    assert unnamed == []
