"""Core type behaviour: log scalars, parameter records, floors, combining."""
from __future__ import annotations

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gamecert import core, gamesim, patterns
from gamecert.core import (
    EXACT_LIMIT,
    EXACT_LOG_LIMIT,
    BoxRegion,
    DiagonalContraction,
    FloorResult,
    GameParameters,
    LogScalar,
    combine_alphas,
    dominates,
    safe_floor_ratio,
)
from gamecert.families import (
    RcdSpec,
    RcoSpec,
    covering_strategy_for_rcd,
    covering_strategy_for_rco,
    generate_rcd,
    generate_rco,
)

positive_floats = st.floats(min_value=1e-300, max_value=1e300)


# ---------------------------------------------------------------- LogScalar


def test_logscalar_roundtrip():
    x = LogScalar.from_value(16.2)
    assert math.isclose(x.value, 16.2, rel_tol=1e-15)
    assert not x.is_zero()
    assert LogScalar.from_value(0.0).is_zero()
    assert LogScalar(-math.inf).value == 0.0


def test_logscalar_rejects_negative():
    with pytest.raises(ValueError):
        LogScalar.from_value(-1.0)


def test_logscalar_survives_underflow_range():
    # alpha * prod(beta)^m for m = 5000 is far below float64 but fine in logs.
    tiny = LogScalar(5000 * LogScalar.from_value(0.1).log)
    assert tiny.log == pytest.approx(5000 * math.log(0.1))
    assert tiny.value == 0.0  # underflow on materialization only
    assert not tiny.is_zero()


@given(st.lists(positive_floats, min_size=1, max_size=8))
def test_log_sum_exp_is_permutation_invariant(values):
    logs = [math.log(v) for v in values]
    assert core.log_sum_exp(logs) == core.log_sum_exp(reversed(logs))
    assert core.log_sum_exp([]) == -math.inf


def test_log_sum_exp_of_identical_terms_is_exact_count():
    # sum of k equal masses must come out as exactly log(k) + mass.
    assert core.log_sum_exp([-123.456] * 18) == math.log(18.0) - 123.456


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


def _params(alpha=0.5, betas=(0.1,), c=0.5):
    return GameParameters(LogScalar.from_value(alpha), DiagonalContraction(betas), c)


def test_validate_params_accepts_c_zero():
    _params(c=0.0)  # legal game, certifier rejects it separately


def test_validate_params_rejects_bad_tuples():
    with pytest.raises(ValueError):
        _params(c=1.0)
    with pytest.raises(ValueError):
        GameParameters(LogScalar(-math.inf), DiagonalContraction((0.1,)), 0.5)


def test_dominates_direction():
    base = _params(alpha=0.5, c=0.5)
    assert dominates(base, _params(alpha=0.7, c=0.5))
    assert dominates(base, _params(alpha=0.5, c=0.9))
    assert not dominates(base, _params(alpha=0.3, c=0.5))
    assert not dominates(base, _params(alpha=0.5, c=0.1))


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
    # 0.5/0.1 rounds to 5.000000000000001 in float64, but the float 0.1 lies
    # above 1/10, so the true quotient is just under 5 and floors to 4.
    assert safe_floor_ratio(0.5, 0.1) == FloorResult(4, "exact")


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
    assert safe_floor_ratio(d, a) == FloorResult(4, "exact")


def test_safe_floor_ratio_floors_down_just_under_an_integer():
    # delta one ulp under k * alpha puts the quotient within relative 2^-52
    # under k, at every scale: the floor is k - 1, settled exactly
    alpha = 2.0**-20
    for k in (5, 12, 1000, 499325958263, 2**40 + 3, 2**44 - 1, 2**44, 2**44 + 1, 2**50 + 7):
        delta = math.nextafter(k * alpha, 0.0)
        assert Fraction(delta) / Fraction(alpha) < k
        assert safe_floor_ratio(delta, alpha) == FloorResult(k - 1, "exact")
        assert safe_floor_ratio(k * alpha, alpha) == FloorResult(k, "exact")


def test_safe_floor_ratio_is_monotone_across_2_44():
    # quotients 2^44 + j/8 are exact; their floors climb one step per unit,
    # with no jump on either side of 2^44
    alpha = 2.0**-20
    ratios = [2.0**44 + j / 8.0 for j in range(-16, 17)]
    results = [safe_floor_ratio(q * alpha, alpha) for q in ratios]
    assert [r.value for r in results] == [math.floor(q) for q in ratios]
    assert all(r.tag == "exact" for r in results)


@given(
    st.floats(min_value=1e-12, max_value=1e12),
    st.floats(min_value=1e-12, max_value=1e12),
)
@example(15348555623.0, 6.103515625e-05)
@example(26804783444.0, 6.103515625e-05)
@example(68719476735.999985, 3.0517578125e-05)    # 2^51 - 1/2
# a raw cli-roundtrip draw (seed 9, draw 3) scaled by 2^20: the quotient
# lies 0.013 under 499325958263, within relative 2^-45 of it
@example(6.528696032511865, 1.3075018281091062e-11)
def test_safe_floor_ratio_matches_true_floor_off_lattice(delta, alpha):
    ratio = Fraction(delta) / Fraction(alpha)
    if ratio >= 2**53:
        return
    res = safe_floor_ratio(delta, alpha)
    assert res.value == math.floor(ratio)
    assert res.tag == ("exact" if res.value else "infeasible")


@given(
    st.floats(min_value=1e-9, max_value=0.5),
    st.floats(min_value=30.0, max_value=53.0, exclude_max=True),
)
# a raw cli-roundtrip draw (seed 9, draw 3): the quotient lies 0.013 under
# 499325958263, within relative 2^-45 of it
@example(6.22624972582995e-06, 38.861190953200506)
def test_safe_floor_ratio_float_delta_logscalar_rate(delta, log2_ratio):
    # The certifier's path: a float witness over a LogScalar combined rate.
    alpha = LogScalar(math.log(delta) - log2_ratio * math.log(2.0))
    res = safe_floor_ratio(delta, alpha)
    with mpmath.workdps(60):
        ratio = mpmath.mpf(delta) / mpmath.exp(mpmath.mpf(alpha.log))
        true_floor = int(mpmath.floor(ratio))
    if res.tag == "exact":
        assert res.value == true_floor
    else:
        assert res.tag == "approximate"
        assert 1 <= res.value <= true_floor and ratio >= 2**53


@pytest.mark.parametrize("delta", [2.0**60, 1e300])
@pytest.mark.parametrize("k", [5, 1000, 499325958263, 2**40 + 3])
def test_safe_floor_ratio_settles_a_large_float_over_a_logscalar(delta, k):
    # delta / exp(fl(ln(delta / k))) lies within relative 2^-40 of k, where
    # the float step leaves it; the float part delta alone is past 2^53
    alpha = LogScalar(math.log(delta / k))
    with mpmath.workdps(80):
        true_floor = int(mpmath.floor(mpmath.mpf(delta) / mpmath.exp(mpmath.mpf(alpha.log))))
    assert safe_floor_ratio(delta, alpha) == FloorResult(true_floor, "exact")


def test_safe_floor_ratio_pins_its_surrogate_past_2_1000():
    # certificates print the surrogate, so it is pinned: exp(800) ~ 2^1154.2
    # is built as a 53-bit mantissa shifted by 1102 bits, then lowered by one,
    # and it lies within relative 2^-40 under the true quotient
    res = safe_floor_ratio(LogScalar(800.0), LogScalar(0.0))
    assert res == FloorResult((5017995885666776 << 1102) - 1, "approximate")
    with mpmath.workdps(400):
        truth = mpmath.exp(800)
        assert truth * (1 - mpmath.mpf(2) ** -40) < res.value < truth


# ------------------------------------------------------------------ the kernel


def _mp_fraction(x) -> Fraction:
    """An mpmath number's exact value."""
    return Fraction(int(x.man)) * Fraction(2) ** int(x.exp)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-750.0, max_value=750.0), st.integers(min_value=0, max_value=340),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=340),
       st.sampled_from([64, 128, 256]))
@example(0.0, 0, 0, 0, 64)
@example(-750.0, 52, 0, 0, 256)
def test_exp_bounds_enclose_exp(x, shift, width, at, bits):
    # [lo, hi] / 2^shift: x rounded down at shift fraction bits, widened by
    # width units of 2^-at (of 2^-shift where at > shift), against 400-bit
    # mpmath: the bounds hold both ends, and a point's are 2^-bits apart
    lo = math.floor(Fraction(x) * 2 ** shift)
    hi = lo + (width << max(shift - at, 0))
    assume(lo >= 0 or hi <= 0)
    a, b, w = core._exp_bounds(lo, hi, shift, bits)
    with mpmath.workprec(400):
        below = _mp_fraction(mpmath.exp(mpmath.ldexp(lo, -shift)))
        above = _mp_fraction(mpmath.exp(mpmath.ldexp(hi, -shift)))
    assert Fraction(a, 1 << w) <= below and above <= Fraction(b, 1 << w)
    if lo == hi:
        assert b - a <= a >> bits


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=2, max_value=2 ** 64),
                 st.integers(min_value=2, max_value=64).map(lambda k: 2 ** k - 1)),
       st.sampled_from([64, 128, 256]))
@example(2, 64)
@example(2 ** 64, 256)
def test_log_bounds_enclose_log(n, bits):
    a, b, w = core._log_bounds(n, bits)
    with mpmath.workprec(400):
        truth = _mp_fraction(mpmath.log(n))
    assert Fraction(a, 1 << w) <= truth <= Fraction(b, 1 << w)
    assert b - a <= 1 << w - bits


# ------------------------------------------------------------ the float step

# Targets of the float step's enclosure, as logs: next to an integer n at
# relative offsets from 1e-9 down to 1e-15, around its width; just under
# 2^50 (the cover counts' limit) and 2^53 (the floors'); within a few ulps
# under either limit's log, where the guard acts; and anywhere below 2^53.
_CEIL_LIMIT, _CEIL_LOG_LIMIT = core._CEIL_LIMIT, core._CEIL_LOG_LIMIT
_OFFSETS = st.sampled_from([0.0, 1e-9, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, -1e-9, -1e-11,
                            -1e-12, -1e-13, -1e-14, -1e-15])
_TARGET_LOGS = st.one_of(
    st.tuples(st.integers(min_value=1, max_value=2 ** 52), _OFFSETS)
    .map(lambda nf: math.log(nf[0]) + math.log1p(nf[1])),
    st.tuples(st.sampled_from([_CEIL_LIMIT, EXACT_LIMIT]), st.integers(min_value=1, max_value=2 ** 12))
    .map(lambda lk: math.log(lk[0] - lk[1])),
    st.tuples(st.sampled_from([_CEIL_LOG_LIMIT, EXACT_LOG_LIMIT]), st.integers(min_value=0, max_value=8))
    .map(lambda lk: lk[0] - lk[1] * 2.0 ** -47),
    st.floats(min_value=0.0, max_value=EXACT_LOG_LIMIT),
)


@settings(max_examples=300, deadline=None)
@given(_TARGET_LOGS, st.one_of(st.floats(min_value=-700.0, max_value=-1e-3),
                              st.floats(min_value=-700.0, max_value=-600.0)), st.booleans())
def test_float_step_floors_the_true_quotient(log, alpha_log, floats):
    # safe_floor_ratio's form: x = ln delta, y = -ln alpha, for float
    # arguments (their logs rounded) or LogScalar ones (their logs exact)
    if floats:
        alpha = math.exp(alpha_log)
        delta = alpha * math.exp(log)
        if not (alpha > 0.0 and 0.0 < delta < math.inf):
            return
        x, y = math.log(delta), -math.log(alpha)
        with mpmath.workdps(120):
            truth = mpmath.mpf(delta) / mpmath.mpf(alpha)
    else:
        x, y = alpha_log + log, -alpha_log
        with mpmath.workdps(120):
            truth = mpmath.exp(mpmath.mpf(x) + mpmath.mpf(y))
    got = core._float_step(math.floor, x, y, EXACT_LIMIT, EXACT_LOG_LIMIT)
    if got is not None:
        assert got == int(mpmath.floor(truth)) and got < EXACT_LIMIT


@settings(max_examples=300, deadline=None)
@given(_TARGET_LOGS, st.one_of(st.integers(min_value=2, max_value=2 ** 53 - 1),
                              st.integers(min_value=2 ** 45, max_value=2 ** 53 - 1)),
       st.integers(0, 2))
def test_float_step_ceils_the_true_power(log, base, which):
    # the cover counts' form: x = t ln base, y = ln(num / den), with t a
    # float exactly, aimed so that base^t num / den lands on the target
    num, den = ((1, base - 1), (1, 1), (base, base - 1))[which]
    if den == 0:
        return
    t = (log - math.log(num / den)) / math.log(base)
    if not t > 0.0:
        return
    x, y = t * math.log(base), math.log(num / den)
    got = core._float_step(math.ceil, x, y, _CEIL_LIMIT, _CEIL_LOG_LIMIT)
    if got is not None:
        with mpmath.workdps(120):
            truth = mpmath.power(base, mpmath.mpf(t)) * num / den
        assert got == int(mpmath.ceil(truth)) and got < _CEIL_LIMIT


def _importers(package: str) -> set[str]:
    """The modules of gamecert that import `package`, anywhere in them."""
    importers = set()
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == package for name in names):
                importers.add(path.name)
    return importers


def test_no_module_imports_mpmath():
    # every integer past the float step is settled on core's own kernel
    assert _importers("mpmath") == set()


def test_only_optimize_imports_dataclasses():
    # every other record is a typing.NamedTuple or a core.Record
    assert _importers("dataclasses") == {"optimize.py"}


def _module_name(path: Path, root: Path) -> str:
    """The dotted name a file is imported by: gamecert.core for
    src/gamecert/core.py, workloads for perfbench/workloads.py."""
    parts = path.relative_to(root).with_suffix("").parts[1:]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _tied_reads(tree: ast.Module, module: str, package: str) -> set[tuple[str, str]]:
    """Each (module, name) that the code of `module` reads: a bare name is
    its own module's unless an import bound it, and `alias.name` is the
    module's that `alias` is bound to.  Imports bind for the whole file."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a, and "import a.b as c" binds c to a.b
                name = alias.name if alias.asname else alias.name.split(".")[0]
                bound[alias.asname or name] = name
        elif isinstance(node, ast.ImportFrom):
            parent = package.rsplit(".", node.level - 1)[0] if node.level else ""
            base = ".".join(filter(None, (parent, node.module)))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"

    def path(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id, f"{module}.{node.id}")
        if isinstance(node, ast.Attribute):
            head = path(node.value)
            return head and f"{head}.{node.attr}"
        return None

    return {tuple(full.rsplit(".", 1)) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and (full := path(node))}


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a name in a module's __all__ is read by code in src/, scripts/ or
    # perfbench/ through that module: in it, as a name imported from it, or
    # as alias.name with alias bound to it (its definition, its __all__
    # entry and its imports are no reads); each public method or property
    # of an exported class is read as an attribute of anything; or README
    # names it in code.  What only the tests read goes.  Operators are out
    # of sight.
    root = Path(__file__).resolve().parents[1]
    reads, attrs, exported, members = set(), set(), [], []
    for path in sorted(p for d in ("src", "scripts", "perfbench") for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = _module_name(path, root)
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        reads |= _tied_reads(tree, module, package)
        attrs.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        names = [name for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for name in ast.literal_eval(node.value)]
        exported += [(module, name) for name in names]
        members += [(module, node.name, item.name) for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name in names
                    for item in node.body if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    readme = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", (root / "README.md").read_text()))))
    assert len(exported) > 80 and len(members) > 40
    assert [(module, name) for module, name in exported
            if (module, name) not in reads and name not in readme] == []
    assert [m for m in members if m[2] not in attrs | readme] == []


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


@pytest.mark.parametrize("half", [0, -0.0, Fraction(-1, 3), float("nan"), Fraction(0)])
def test_box_region_rejects_a_half_width_that_is_not_positive(half):
    with pytest.raises(ValueError, match="half-widths must be positive"):
        BoxRegion((0.0,), (half,))
    with pytest.raises(ValueError, match="half-widths must be positive"):
        BoxRegion((Fraction(0), Fraction(1, 2)), (Fraction(1, 3), half))


def test_box_region_accepts_infinite_and_positive_half_widths():
    assert BoxRegion((0.0,), (float("inf"),)).contains_point((1e300,))
    for half in (1, 0.5, Fraction(1, 10 ** 30), 2 ** 70):
        assert BoxRegion((Fraction(1, 3),), (half,)).contains_point((Fraction(1, 3),))



def _scan(lambda_hi, res):
    query = patterns.PatternQuery(((0, 0), (2, 0)), Fraction(1, 49), lambda_hi, 1, res)
    return patterns.find_homothety(query, generate_rcd(RcdSpec(7, 4), 1))


def _rco_rect():
    return generate_rco(RcoSpec(4, 5, 2, 1), 1)


@pytest.mark.parametrize("arg,call", [
    ("depth", lambda: generate_rco(RcoSpec(4, 5, 2, 1), 12)),
    ("depth", lambda: generate_rcd(RcdSpec(2, 2), 100000)),
    ("t", lambda: covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 10, 1)),
    ("depth", lambda: covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 1, 6)),
    ("width", lambda: _rco_rect().to_pbm(10 ** 12, 256)),
    ("height", lambda: _rco_rect().to_pbm(256, 10 ** 12)),
    ("radius", lambda: gamesim.verify_projection_return([10], 3, radius=10 ** 7)),
    ("block", lambda: gamesim.verify_projection_return([10], 7)),
    ("u", lambda: gamesim.verify_projection_return([10 ** 7], 1)),
    ("radius", lambda: gamesim.verify_half_shrink([10], 2, 3, radius=10 ** 11)),
    ("u", lambda: gamesim.verify_half_shrink([10, 2 ** 62], 2, 3)),
    ("block", lambda: gamesim.child_cover_grid([10], 30, [0])),
    ("k", lambda: gamesim.child_cover_grid([10], 1, [0], k=10 ** 8)),
    ("level", lambda: gamesim.tuple_overlap_bound([10, 10], 4000, 1, (0, 0))),
    ("exponent", lambda: gamesim.tuple_overlap_bound([10, 10], 1, 10 ** 8, (0, 0))),
    ("extent", lambda: gamesim.verify_covering_budget(
        covering_strategy_for_rco(_rco_rect(), 0.5), extent=100000)),
    ("resolution", lambda: _scan(Fraction(3, 49), Fraction(1, 10 ** 9))),
    ("lambda_hi", lambda: _scan(100, Fraction(1, 2000))),
])
def test_every_size_refusal_is_one_size_error_naming_its_argument(arg, call):
    with pytest.raises(core.SizeError) as info:
        call()
    assert isinstance(info.value, OverflowError) and info.value.arg == arg
    assert str(info.value).startswith(f"{arg} = ") and "over the limit of" in str(info.value)


def test_a_size_refusal_past_the_int_to_str_limit_still_names_its_argument():
    with pytest.raises(core.SizeError, match="^depth needs more boxes than the limit of 3$") as err:
        core.check_size("depth", 10 ** 5000, 10 ** 5000, "boxes", 3)
    assert err.value.arg == "depth"
    # a member of 2 * 10^6000 boxes
    with pytest.raises(core.SizeError, match="^depth needs more boxes than the limit of"):
        generate_rco(RcoSpec(10 ** 3000, 10 ** 3000, 1, 1), 1)
