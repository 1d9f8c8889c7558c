"""Record semantics of the value classes: repr, ==, hash and immutability.

The certificate, geometry, game and pattern records are typing.NamedTuples
or core.Record subclasses.  They keep the repr, == and hash they had as
frozen dataclasses: the repr strings below were recorded from the
dataclass versions, and a record hashes as the tuple of its fields.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from gamecert.certify import (
    Certificate,
    DimensionBound,
    FeasibilityReport,
    PatternBound,
)
from gamecert.core import BoxRegion, DiagonalContraction, FloorResult, GameParameters, LogScalar
from gamecert.families import (
    CoverCount,
    CoveringStrategy,
    RcdSpec,
    RcoSpec,
    RectangleSet,
    RectEntry,
    StrategyLevel,
)
from gamecert.gamesim import (
    BudgetAudit,
    BudgetLevelReport,
    ChildGridReport,
    DeletionRecord,
    HalfShrinkAudit,
    MoveRecord,
    OverlapReport,
    PlayTranscript,
    PotentialRow,
    ProjectionAudit,
)
from gamecert.optimize import SearchResult, SmallestU, _Point
from gamecert.patterns import ContainmentReport, PatternCandidate, PatternQuery

BOX = BoxRegion((Fraction(1, 3), Fraction(0)), (Fraction(1, 9), Fraction(1, 4)))
CONTRACTION = DiagonalContraction.from_denominators((10, 12))
PARAMS = GameParameters(LogScalar(-3.0), DiagonalContraction((0.1, 0.125)), 0.5)


def _report(notes: tuple[str, ...] = ("a note",)) -> FeasibilityReport:
    return FeasibilityReport(2, 0.5, 0.001, 1, -20.0, -20.0, True, -10.0, -9.0,
                             FloorResult(5, "exact"), True, 0.1, 0.01, True, notes)


REPORT = _report()
LEVEL = StrategyLevel(1, 2, -3.5, False, (BOX,))
RESULT = SearchResult("corner", False, 0, 0.0, None, 0.0, 0, -math.inf, 0.0, 0.0, 0, None)
DELETION = DeletionRecord(1, 2, BOX, -3.5)
MOVE = MoveRecord(1, BOX, (DELETION,), -3.5, -2.0, False)
ROW = PotentialRow(2, BOX, -4.0, -3.0)
AUDIT_LEVEL = BudgetLevelReport(1, 2, False, 9, 4, 2, (Fraction(1, 20), Fraction(0)), -3.0, -2.5,
                                True)
BETAS = (Fraction(1, 10), Fraction(1, 12))

# (record, an equal copy made apart, a copy with one field changed, the
# field names in order, the repr recorded from the frozen dataclass)
CASES = [
    (CONTRACTION, DiagonalContraction((0.1, 1 / 12), (10, 12)), DiagonalContraction((0.1, 1 / 12)),
     ("betas", "denominators"),
     "DiagonalContraction(betas=(0.1, 0.08333333333333333), denominators=(10, 12))"),
    (PARAMS, GameParameters(LogScalar(-3.0), DiagonalContraction((0.1, 0.125)), 0.5),
     GameParameters(LogScalar(-3.0), DiagonalContraction((0.1, 0.125)), 0.6),
     ("alpha", "contraction", "c"),
     "GameParameters(alpha=LogScalar(log=-3.0), contraction=DiagonalContraction("
     "betas=(0.1, 0.125), denominators=None), c=0.5)"),
    (BOX, BoxRegion((Fraction(1, 3), Fraction(0)), (Fraction(1, 9), Fraction(1, 4))),
     BoxRegion((Fraction(1, 3), Fraction(0)), (Fraction(1, 9), Fraction(1, 5))),
     ("center", "half"),
     "BoxRegion(center=(Fraction(1, 3), Fraction(0, 1)), "
     "half=(Fraction(1, 9), Fraction(1, 4)))"),
    (FloorResult(4, "exact"), FloorResult(4, "exact"), FloorResult(4, "approximate"),
     ("value", "tag"), "FloorResult(value=4, tag='exact')"),
    (REPORT, _report(), _report(notes=()),
     ("n", "c", "delta", "pattern_count", "alpha_log", "combined_alpha_log", "condition1_ok",
      "condition1_lhs_log", "condition1_rhs_log", "free_steps", "condition2_ok",
      "condition2_lhs", "condition2_rhs", "feasible", "notes"),
     "FeasibilityReport(n=2, c=0.5, delta=0.001, pattern_count=1, alpha_log=-20.0, "
     "combined_alpha_log=-20.0, condition1_ok=True, condition1_lhs_log=-10.0, "
     "condition1_rhs_log=-9.0, free_steps=FloorResult(value=5, tag='exact'), "
     "condition2_ok=True, condition2_lhs=0.1, condition2_rhs=0.01, feasible=True, "
     "notes=('a note',))"),
    (DimensionBound(1.5, 0.5, 2.0, True, REPORT), DimensionBound(1.5, 0.5, 2.0, True, REPORT),
     DimensionBound(1.5, 0.5, 2.0, False, REPORT),
     ("value", "deficit", "constant", "positive", "report"),
     "DimensionBound(value=1.5, deficit=0.5, constant=2.0, positive=True, report=" + repr(REPORT)
     + ")"),
    (PatternBound(3, 1.5, 1.4, 2.0, True, 0.9, REPORT),
     PatternBound(3, 1.5, 1.4, 2.0, True, 0.9, REPORT),
     PatternBound(4, 1.5, 1.4, 2.0, True, 0.9, REPORT),
     ("pattern_count", "stated", "combined", "constant", "strengthened_ok",
      "scale_coefficient", "report"),
     "PatternBound(pattern_count=3, stated=1.5, combined=1.4, constant=2.0, "
     "strengthened_ok=True, scale_coefficient=0.9, report=" + repr(REPORT) + ")"),
    (RcoSpec(4, 5, 2, 1), RcoSpec(4, 5, 2, 1), RcoSpec(4, 5, 2, 2), ("u", "v", "m", "t"),
     "RcoSpec(u=4, v=5, m=2, t=1)"),
    (RcdSpec(7, 4, "hash", 5), RcdSpec(7, 4, "hash", 5), RcdSpec(7, 4, "hash", 6),
     ("u", "v", "corner_rule", "corner_seed"),
     "RcdSpec(u=7, v=4, corner_rule='hash', corner_seed=5)"),
    (CoverCount(12, "exact", 2), CoverCount(12, "exact", 2), CoverCount(12, "exact", 1),
     ("value", "tag", "option"), "CoverCount(value=12, tag='exact', option=2)"),
    (RectEntry(1, "cut:0", BOX), RectEntry(1, "cut:0", BOX), RectEntry(1, "cut:1", BOX),
     ("level", "address", "box"), "RectEntry(level=1, address='cut:0', box=" + repr(BOX) + ")"),
    (LEVEL, StrategyLevel(1, 2, -3.5, False, (BOX,)), StrategyLevel(1, 2, -3.5, True, (BOX,)),
     ("level", "exponent", "budget_rate_log", "preamble", "boxes"),
     "StrategyLevel(level=1, exponent=2, budget_rate_log=-3.5, preamble=False, boxes=("
     + repr(BOX) + ",))"),
    (CoveringStrategy(PARAMS, "rco", (LEVEL,)), CoveringStrategy(PARAMS, "rco", (LEVEL,)),
     CoveringStrategy(PARAMS, "rcd", (LEVEL,)), ("params", "kind", "levels"),
     "CoveringStrategy(params=" + repr(PARAMS) + ", kind='rco', levels=(" + repr(LEVEL) + ",))"),
    (_Point(3, 1.5, 1.4, 0.9, 1.0, 0.001, 500, -20.0),
     _Point(3, 1.5, 1.4, 0.9, 1.0, 0.001, 500, -20.0),
     _Point(3, 1.5, 1.4, 0.9, 1.0, 0.001, 501, -20.0),
     ("pattern_count", "dim", "dim_combined", "c", "t", "delta", "free_steps", "alpha_log"),
     "_Point(pattern_count=3, dim=1.5, dim_combined=1.4, c=0.9, t=1.0, delta=0.001, "
     "free_steps=500, alpha_log=-20.0)"),
    (SmallestU(5, RESULT, RESULT, 7), SmallestU(5, RESULT, RESULT, 7),
     SmallestU(6, RESULT, RESULT, 7), ("u", "result", "below", "probes"),
     "SmallestU(u=5, result=" + repr(RESULT) + ", below=" + repr(RESULT) + ", probes=7)"),
    (ProjectionAudit((6, 7), 2, 0, 3, 49, 0, None), ProjectionAudit((6, 7), 2, 0, 3, 49, 0, None),
     ProjectionAudit((6, 7), 2, 0, 3, 49, 1, None),
     ("u", "block", "k", "radius", "checked", "failures", "witness"),
     "ProjectionAudit(u=(6, 7), block=2, k=0, radius=3, checked=49, failures=0, witness=None)"),
    (HalfShrinkAudit((6, 7), 1, 2, 49, 1, ("axis", 0, "child_index", -3)),
     HalfShrinkAudit((6, 7), 1, 2, 49, 1, ("axis", 0, "child_index", -3)),
     HalfShrinkAudit((6, 7), 1, 2, 49, 1, ("axis", 1, "child_index", -3)),
     ("u", "level", "block", "checked", "failures", "witness"),
     "HalfShrinkAudit(u=(6, 7), level=1, block=2, checked=49, failures=1, "
     "witness=('axis', 0, 'child_index', -3))"),
    (DELETION, DeletionRecord(1, 2, BOX, -3.5), DeletionRecord(0, 2, BOX, -3.5),
     ("move", "exponent", "box", "mass_log"),
     "DeletionRecord(move=1, exponent=2, box=" + repr(BOX) + ", mass_log=-3.5)"),
    (MOVE, MoveRecord(1, BOX, (DELETION,), -3.5, -2.0, False),
     MoveRecord(1, BOX, (DELETION,), -3.5, -2.0, True),
     ("move", "box", "deletions", "budget_spent_log", "budget_cap_log", "skipped"),
     "MoveRecord(move=1, box=" + repr(BOX) + ", deletions=(" + repr(DELETION) + ",), "
     "budget_spent_log=-3.5, budget_cap_log=-2.0, skipped=False)"),
    (PlayTranscript(Fraction(1), 0.5, -3.0, BETAS, (DELETION,), (MOVE,)),
     PlayTranscript(Fraction(1), 0.5, -3.0, BETAS, (DELETION,), (MOVE,)),
     PlayTranscript(Fraction(1), 0.5, -3.0, BETAS, (), (MOVE,)),
     ("radius", "c", "alpha_log", "betas", "preamble", "moves"),
     "PlayTranscript(radius=Fraction(1, 1), c=0.5, alpha_log=-3.0, betas=(Fraction(1, 10), "
     "Fraction(1, 12)), preamble=(" + repr(DELETION) + ",), moves=(" + repr(MOVE) + ",))"),
    (ROW, PotentialRow(2, BOX, -4.0, -3.0), PotentialRow(2, BOX, -4.0, -5.0),
     ("level", "cell", "phi_log", "threshold_log"),
     "PotentialRow(level=2, cell=" + repr(BOX) + ", phi_log=-4.0, threshold_log=-3.0)"),
    (ChildGridReport((Fraction(17, 3), Fraction(2)), 55, 55, 10, True, True),
     ChildGridReport((Fraction(17, 3), Fraction(2)), 55, 55, 10, True, True),
     ChildGridReport((Fraction(17, 3), Fraction(2)), 55, 55, 10, True, False),
     ("gammas", "count", "formula_count", "floor_product", "all_inside_half_parent",
      "matches_enumeration"),
     "ChildGridReport(gammas=(Fraction(17, 3), Fraction(2, 1)), count=55, formula_count=55, "
     "floor_product=10, all_inside_half_parent=True, matches_enumeration=True)"),
    (OverlapReport(4, Fraction(64), True), OverlapReport(4, Fraction(64), True),
     OverlapReport(5, Fraction(64), True), ("exact_count", "bound", "ok"),
     "OverlapReport(exact_count=4, bound=Fraction(64, 1), ok=True)"),
    (AUDIT_LEVEL,
     BudgetLevelReport(1, 2, False, 9, 4, 2, (Fraction(1, 20), Fraction(0)), -3.0, -2.5, True),
     BudgetLevelReport(1, 2, False, 9, 4, 3, (Fraction(1, 20), Fraction(0)), -3.0, -2.5, True),
     ("level", "exponent", "preamble", "test_boxes", "strategy_boxes", "worst_hits",
      "worst_center", "spent_log", "cap_log", "legal"),
     "BudgetLevelReport(level=1, exponent=2, preamble=False, test_boxes=9, strategy_boxes=4, "
     "worst_hits=2, worst_center=(Fraction(1, 20), Fraction(0, 1)), spent_log=-3.0, "
     "cap_log=-2.5, legal=True)"),
    (BudgetAudit((AUDIT_LEVEL,)), BudgetAudit((AUDIT_LEVEL,)), BudgetAudit(()), ("levels",),
     "BudgetAudit(levels=(" + repr(AUDIT_LEVEL) + ",))"),
    (PatternQuery(((0, 0), (2, 0)), Fraction(1, 49), Fraction(3, 49), 2),
     PatternQuery([[Fraction(0), 0], [2, Fraction(0)]], Fraction(2, 98), Fraction(3, 49), 2, None),
     PatternQuery(((0, 0), (2, 0)), Fraction(1, 49), Fraction(3, 49), 1),
     ("points", "lambda_lo", "lambda_hi", "depth", "grid_resolution"),
     "PatternQuery(points=((Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(0, 1))), "
     "lambda_lo=Fraction(1, 49), lambda_hi=Fraction(3, 49), depth=2, grid_resolution=None)"),
    (ContainmentReport((True, True, False)), ContainmentReport((True, True, False)),
     ContainmentReport((True, True, True)), ("levels",),
     "ContainmentReport(levels=(True, True, False))"),
    (PatternCandidate(Fraction(1, 49), (Fraction(-1, 2), Fraction(0)), 2),
     PatternCandidate(Fraction(1, 49), (Fraction(-1, 2), Fraction(0)), 2),
     PatternCandidate(Fraction(2, 49), (Fraction(-1, 2), Fraction(0)), 2),
     ("lam", "x", "max_depth_passed"),
     "PatternCandidate(lam=Fraction(1, 49), x=(Fraction(-1, 2), Fraction(0, 1)), "
     "max_depth_passed=2)"),
]


@pytest.mark.parametrize("record, copy, changed, names, text", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_records_keep_their_dataclass_repr_eq_and_hash(record, copy, changed, names, text):
    assert repr(record) == text
    assert record == copy and not record != copy
    assert record != changed and not record == changed
    assert hash(record) == hash(copy) == hash(tuple(getattr(record, n) for n in names))
    with pytest.raises(AttributeError):
        setattr(record, names[0], getattr(changed, names[0]))
    assert record == copy


def test_certificate_and_rectangle_set_are_unhashable_records():
    cert = Certificate("dimension", {"c": 0.5, "feasible": True}, {"family.u": "10"})
    assert repr(cert) == ("Certificate(kind='dimension', fields={'c': 0.5, 'feasible': True}, "
                          "extras={'family.u': '10'})")
    assert cert == Certificate("dimension", {"c": 0.5, "feasible": True}, {"family.u": "10"})
    assert cert != Certificate("dimension", {"c": 0.5, "feasible": True})
    assert Certificate("dimension", {}).extras == {}
    with pytest.raises(AttributeError):
        cert.kind = "pattern"
    rect = RectangleSet([RectEntry(1, "cut:0", BOX)], {"family": "rco"})
    assert repr(rect) == ("RectangleSet(entries=[RectEntry(level=1, address='cut:0', box="
                          + repr(BOX) + ")], meta={'family': 'rco'})")
    assert rect == RectangleSet([RectEntry(1, "cut:0", BOX)], {"family": "rco"})
    assert rect != RectangleSet([RectEntry(1, "cut:0", BOX)])
    for unhashable in (cert, rect):
        with pytest.raises(TypeError):
            hash(unhashable)
