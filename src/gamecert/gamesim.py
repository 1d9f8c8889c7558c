"""Finite-depth game runs and the counting machinery behind the dimension bound.

Two grids organize everything, both anchored at a base point with cell
half-widths rho * beta_j^k at level k:

* the fine grid: centers on (rho/2) A^k(Z^n) + y (an overlapping cover);
* the coarse grid: centers on 3 rho A^k(Z^n) + y (pairwise disjoint cells);
  every coarse center is a fine center whose index is divisible by 6.

Lattice builds their cells at rho = 1 and y = 0, the grids every oracle
here reads.

The level-to-level projection maps a level-(k+1) fine cell to a containing
level-k cell: normally the one with the per-axis nearest center (ties to the
smaller index), but on levels congruent to 1 mod N it targets the containing
coarse cell when one exists.  Everything here works in integer index space,
which keeps the verification sweeps exact and vectorizable: the only step
that couples axes is the coarse-targeting branch, and the chain from level
(k+1)N+1 down to kN+1 meets such a level exactly once, at its final step.

The remaining oracles realize the counting facts the dimension argument
rests on: the symmetric grid of coarse children inside a half-shrunk cell,
the volume bound on how many fine coarse-grid cells one deleted box can
touch, the min-term transfer inequality, and the per-level deletion-budget
audit for materialized covering strategies.  Each oracle works out the
size of its largest table, enumeration or exact power from its inputs and,
past the limit stated next to MAX_AUDIT_CELLS, raises core.SizeError (an
OverflowError naming the input at fault) before it builds anything.

numpy is imported by the functions that use it (the projection and
half-shrink sweeps), and families' kernels _reach and _grid_hits by the
game and the budget audit; so the scalar oracles load neither.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import BoxRegion, DiagonalContraction, LogScalar, Record, check_size, line_chunks

if TYPE_CHECKING:
    import numpy as np

    from .families import CoveringStrategy, StrategyLevel

__all__ = [
    "Lattice",
    "round_half_down",
    "project_index",
    "project_chain",
    "ProjectionAudit",
    "verify_projection_return",
    "HalfShrinkAudit",
    "verify_half_shrink",
    "MoveRecord",
    "DeletionRecord",
    "PlayTranscript",
    "steering_policy",
    "play_game",
    "PotentialRow",
    "potential_phi",
    "ChildGridReport",
    "child_cover_grid",
    "OverlapReport",
    "tuple_overlap_bound",
    "potential_transfer_bound",
    "BudgetLevelReport",
    "BudgetAudit",
    "verify_covering_budget",
]

BUDGET_TOL = 1e-12          # log-domain slack when auditing budget legality

# Largest difference array, in cells, that one budget audit level may build:
# 256 MiB as int32 (512 MiB past 2^30 boxes, as int64; families._cover_counts).
# A depth-5 RCO(4,5,2,1) level at extent 1 needs 4102 x 12506.
MAX_AUDIT_CELLS = 2 ** 26
# Most int64 cells the projection and half-shrink sweeps may build, summed
# over the axes: 32 MiB, of which a projection table holds a few copies at
# once.  The widest Tier-1 sweep, u = 12 at N = 3 and radius 50, has
# 101 x 575 cells.
MAX_SWEEP_CELLS = 2 ** 22
# Most bits of a half-shrink ratio u: the sweep computes 2 u in int64.
MAX_SWEEP_RATIO_BITS = 62
# Most candidate cells child_cover_grid enumerates, each tested in exact
# Fractions at about 0.1 ms: u = 10,12 at N = 2 has 37 x 51.
MAX_GRID_CELLS = 2 ** 14
# Most bits of the powers u_j^e that one exponent of an oracle makes,
# summed over the axes: the overlap bound then prints in under 2,500
# digits, below Python's 4,300-digit int-to-str limit.
MAX_POWER_BITS = 2 ** 13
# Most draws of the transfer check, at about 2 us each.
MAX_TRANSFER_SAMPLES = 2 ** 18
# Most preamble lines PlayTranscript.to_text writes (RCD(7,4) at t = 1 grants 468).
MAX_PREAMBLE_LINES = 2 ** 20


def _check_power_bits(arg: str, value: int, u: Sequence[int], exponent: int) -> None:
    """Refuse powers u_j^exponent of more than MAX_POWER_BITS bits in all
    (u_j^e has at most e bit_length(u_j) bits) before any is computed."""
    bits = exponent * sum(uj.bit_length() for uj in u)
    check_size(arg, value, bits, "bits of powers", MAX_POWER_BITS)


# ------------------------------------------------------------------ lattices


class Lattice(Record):
    """One level of the fine or coarse grid of an exact contraction (ratios 1/U).

    kind "fine": centers (1/2) A^k(Z^n); kind "coarse": centers 3 A^k(Z^n)
    (a subgrid of the fine one, indices times 6).  Cells are boxes
    A^k(B[0, 1]) + center either way.
    """

    __slots__ = _fields = ("kind", "contraction", "level")

    def __init__(self, kind: str, contraction: DiagonalContraction, level: int) -> None:
        if kind not in ("fine", "coarse"):
            raise ValueError(f"kind must be 'fine' or 'coarse', got {kind!r}")
        if level < 0:
            raise ValueError("level must be >= 0")
        contraction.exact_betas()  # raises unless the ratios are unit fractions
        super().__init__(kind, contraction, level)

    def _ratio_pow(self, j: int) -> Fraction:
        return Fraction(1, self.contraction.denominators[j] ** self.level)

    def spacing(self, j: int) -> Fraction:
        step = self._ratio_pow(j)
        return step / 2 if self.kind == "fine" else 3 * step

    def cell_center(self, z: Sequence[int]) -> tuple[Fraction, ...]:
        return tuple(self.spacing(j) * z[j] for j in range(self.contraction.n))

    def cell_box(self, z: Sequence[int]) -> BoxRegion:
        return BoxRegion(self.cell_center(z),
                         tuple(self._ratio_pow(j) for j in range(self.contraction.n)))


def round_half_down(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties toward the smaller integer."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    return -((den - 2 * num) // (2 * den))


def project_index(
    u: Sequence[int],
    level: int,
    child: Sequence[int],
    block: int,
    coarse_branch: bool = True,
) -> tuple[int, ...]:
    """Parent fine-grid index at `level` of the level+1 fine cell `child`.

    `u` holds the integer reciprocals of the contraction ratios, `block` the
    free-step count N controlling which levels target the coarse grid.  On
    those levels (level = 1 mod N) the containing coarse cell is chosen when
    one exists jointly across axes — index test |y - 6 u m| <= 2(u - 1) —
    and its fine index 6m is returned; otherwise, and on every other level,
    the per-axis nearest parent center wins, ties toward the smaller index.
    """
    if coarse_branch and level % block == 1 % block:
        coarse = []
        for y, uj in zip(child, u):
            m = round_half_down(y, 6 * uj)
            if abs(y - 6 * uj * m) <= 2 * (uj - 1):
                coarse.append(6 * m)
            else:
                break
        else:
            return tuple(coarse)
    return tuple(round_half_down(y, uj) for y, uj in zip(child, u))


def project_chain(
    u: Sequence[int],
    from_level: int,
    index: Sequence[int],
    to_level: int,
    block: int,
    coarse_branch: bool = True,
) -> tuple[int, ...]:
    """Compose projections from `from_level` down to `to_level` (inclusive)."""
    if to_level > from_level:
        raise ValueError("target level must not exceed start level")
    idx = tuple(index)
    for lvl in range(from_level - 1, to_level - 1, -1):
        idx = project_index(u, lvl, idx, block, coarse_branch)
    return idx


# -------------------------------------------- exhaustive projection sweeps


def _rhd_array(num: np.ndarray, den: int) -> np.ndarray:
    return -((den - 2 * num) // (2 * den))


class _AxisTable(NamedTuple):
    """Per-axis chain outcomes over the (coarse index, child offset) grid."""

    window: np.ndarray        # final-step coarse window admits a cell
    coarse_ok: np.ndarray     # window holds and the coarse result hits target
    nearest_ok: np.ndarray    # nearest-fallback result hits the target
    r_values: np.ndarray
    l_values: np.ndarray


def _axis_table(u: int, block: int, k: int, radius: int) -> _AxisTable:
    import numpy as np

    gamma_floor = (u ** block - 2) // 6
    r = np.arange(-radius, radius + 1, dtype=np.int64)
    l = np.arange(-gamma_floor, gamma_floor + 1, dtype=np.int64)
    idx = 6 * (u ** block * r[:, None] + l[None, :])
    target = np.broadcast_to(6 * r[:, None], idx.shape)
    coarse_level = k * block + 1
    for _level in range((k + 1) * block, coarse_level, -1):
        # strictly between the coarse anchors: never 1 mod N, nearest only
        idx = _rhd_array(idx, u)
    m = _rhd_array(idx, 6 * u)
    window = np.abs(idx - 6 * u * m) <= 2 * (u - 1)
    coarse_ok = window & (6 * m == target)
    nearest_ok = _rhd_array(idx, u) == target
    return _AxisTable(window, coarse_ok, nearest_ok, r, l)


class ProjectionAudit(NamedTuple):
    """Exhaustive check that chains return to the coarse cell they started in."""

    u: tuple[int, ...]
    block: int
    k: int
    radius: int
    checked: int
    failures: int
    witness: tuple | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _witness(
    tables: Sequence[_AxisTable], probes: Iterable[Callable[[_AxisTable], np.ndarray]]
) -> tuple | None:
    """The first (axis, coarse index, child offset) a probe flags: probe by
    probe, then axis by axis, then in row-major order of the table."""
    import numpy as np

    for probe in probes:
        for axis, tab in enumerate(tables):
            hits = np.argwhere(probe(tab))
            if len(hits):
                return ("axis", axis, "coarse_index", int(tab.r_values[hits[0][0]]),
                        "child_offset", int(tab.l_values[hits[0][1]]))
    return None


def verify_projection_return(
    u: Sequence[int],
    block: int,
    k: int = 0,
    radius: int = 50,
    coarse_branch: bool = True,
) -> ProjectionAudit:
    """For every coarse cell T at level kN+1 (index within `radius`) and every
    coarse-grid cell T' at level (k+1)N+1 inside the half-shrunk T, verify
    that the projection chain maps T' back to T.

    Axes only interact at the final chain step (the coarse-targeting level),
    so per-axis outcome tables plus exact pair counting give the exhaustive
    answer over the full product range at vector speed.  With the coarse
    branch disabled (negative control) the chain is purely per-axis nearest
    and is expected to miss.
    """
    for uj in u:
        if uj < 6:
            raise ValueError("exhaustive sweep needs all ratio denominators >= 6")
    if block < 1 or k < 0 or radius < 0:
        raise ValueError("block >= 1, k >= 0, radius >= 0 required")
    # blame u where even block 1 at radius 1 overflows, the block where radius 1 does
    check_size("u", ",".join(map(str, u)), 3 * sum(2 * ((uj - 2) // 6) + 1 for uj in u),
               "table cells", MAX_SWEEP_CELLS)
    _check_power_bits("block", block, u, block)
    offsets = sum(2 * ((uj ** block - 2) // 6) + 1 for uj in u)
    arg, value = ("block", block) if 3 * offsets > MAX_SWEEP_CELLS else ("radius", radius)
    check_size(arg, value, offsets * (2 * radius + 1), "table cells", MAX_SWEEP_CELLS)
    tables = [_axis_table(uj, block, k, radius) for uj in u]
    checked = math.prod(t.window.size for t in tables)
    O = [int(t.nearest_ok.sum()) for t in tables]             # nearest on target

    if not coarse_branch:
        failures = checked - math.prod(O)
        probes = [lambda t: ~t.nearest_ok]
    else:
        # Joint semantics: when the final-step window admits a coarse cell on
        # every axis the chain lands on the per-axis coarse result; otherwise
        # every axis falls back to nearest.  Count failing tuples exactly.
        W = [int(t.window.sum()) for t in tables]                 # window ok
        A = [int(t.coarse_ok.sum()) for t in tables]              # window ok, on target
        E = [int((t.window & t.nearest_ok).sum()) for t in tables]
        fail_coarse = math.prod(W) - math.prod(A)
        not_all_window = checked - math.prod(W)
        fail_nearest = not_all_window - (math.prod(O) - math.prod(E))
        failures = fail_coarse + fail_nearest
        probes = [
            lambda t: t.window & ~t.coarse_ok,
            lambda t: ~t.window & ~t.nearest_ok,
            lambda t: t.window & ~t.nearest_ok,
        ]
    witness = _witness(tables, probes) if failures else None
    return ProjectionAudit(tuple(u), block, k, radius, checked, failures, witness)


class HalfShrinkAudit(NamedTuple):
    """Exhaustive check that cells sit inside the half-shrunk nearest parent."""

    u: tuple[int, ...]
    level: int
    block: int
    checked: int
    failures: int
    witness: tuple | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def verify_half_shrink(
    u: Sequence[int], level: int, block: int, radius: int = 50
) -> HalfShrinkAudit:
    """On levels off the coarse-targeting residue, every level+1 fine cell
    lies inside its projection parent shrunk to half size: the containment
    reduces to the per-axis index test |y - u w| <= u - 2, so the exhaustive
    n-dimensional sweep is a product of per-axis sweeps.
    """
    import numpy as np

    if level % block == 1 % block:
        raise ValueError(
            "half-shrink containment is only claimed off the coarse levels"
        )
    check_size("radius", radius, len(u) * (2 * radius + 1), "sweep cells", MAX_SWEEP_CELLS)
    check_size("u", ",".join(map(str, u)), max(u, default=0).bit_length(), "bits in a ratio",
               MAX_SWEEP_RATIO_BITS)
    checked = 1
    failures = 0
    witness = None
    for axis, uj in enumerate(u):
        y = np.arange(-radius, radius + 1, dtype=np.int64)
        w = _rhd_array(y, uj)
        bad = np.abs(y - uj * w) > uj - 2
        checked *= y.size
        axis_failures = int(bad.sum())
        if axis_failures and witness is None:
            witness = ("axis", axis, "child_index", int(y[np.argmax(bad)]))
        failures += axis_failures
    return HalfShrinkAudit(tuple(u), level, block, checked, failures, witness)


# ------------------------------------------------------------------ the game


class DeletionRecord(NamedTuple):
    """One deleted box A^q(B[0,r]) + y with its charged mass (prod beta^q)^c."""

    move: int                 # move the deletion was charged to; 0 = preamble
    exponent: int
    box: BoxRegion
    mass_log: float


class MoveRecord(NamedTuple):
    move: int
    box: BoxRegion            # the nested box played this move
    deletions: tuple[DeletionRecord, ...]
    budget_spent_log: float   # ln of the summed deleted mass (-inf if none)
    budget_cap_log: float     # ln((alpha prod beta^move)^c)
    skipped: bool             # empty response (nothing intersected, or illegal)


class PlayTranscript(NamedTuple):
    """Full record of one finite play: boxes, deletions, budgets, outcome."""

    radius: Fraction
    c: float
    alpha_log: float
    betas: tuple[Fraction, ...]
    preamble: Sequence[DeletionRecord]
    moves: tuple[MoveRecord, ...]

    @property
    def outcome_box(self) -> BoxRegion:
        return self.moves[-1].box

    def _deletions(self) -> Iterator[DeletionRecord]:
        """The preamble, then each move's deletions, built as they are read."""
        return itertools.chain(self.preamble, *(move.deletions for move in self.moves))

    def all_deletions(self) -> tuple[DeletionRecord, ...]:
        return tuple(self._deletions())

    def outcome_intersects_deleted(self) -> DeletionRecord | None:
        box = self.outcome_box
        return next((rec for rec in self._deletions() if box.intersects(rec.box)), None)

    def outcome_inside_deleted(self) -> DeletionRecord | None:
        box = self.outcome_box
        return next((rec for rec in self._deletions() if rec.box.contains_box(box)), None)

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, Fraction):
            return str(value)
        return "%.17g" % value

    def text_chunks(self) -> Iterator[str]:
        """The text of to_text as it is formatted, core.CHUNK_LINES lines to
        a chunk.  A preamble over MAX_PREAMBLE_LINES lines raises
        core.SizeError (naming "preamble") here, before any chunk."""
        check_size("preamble", "true", len(self.preamble), "preamble lines", MAX_PREAMBLE_LINES)
        fmt = self._fmt
        head = ("transcript radius=%s c=%.17g alpha_log=%.17g betas=%s\n"
                % (fmt(self.radius), self.c, self.alpha_log, ",".join(map(fmt, self.betas))))
        preamble = (
            "preamble q=%d center=%s half=%s mass_log=%.17g\n"
            % (rec.exponent, ",".join(map(fmt, rec.box.center)),
               ",".join(map(fmt, rec.box.half)), rec.mass_log)
            for rec in self.preamble
        )
        moves = (
            "move m=%d center=%s half=%s deletions=%d spent_log=%.17g "
            "cap_log=%.17g skipped=%s\n"
            % (move.move, ",".join(map(fmt, move.box.center)),
               ",".join(map(fmt, move.box.half)), len(move.deletions),
               move.budget_spent_log, move.budget_cap_log,
               "true" if move.skipped else "false")
            for move in self.moves
        )
        return line_chunks(itertools.chain([head], preamble, moves))

    def to_text(self) -> str:
        """Line-delimited: one move per line, exact rationals where present;
        the join of text_chunks."""
        return "".join(self.text_chunks())


def _preamble_record(levels: list[StrategyLevel], masses: list[float], i: int) -> DeletionRecord:
    """Row i of the preamble that grants the boxes of `levels` in order."""
    for lvl, mass_log in zip(levels, masses):
        if i < len(lvl.boxes):
            return DeletionRecord(0, lvl.exponent, lvl.boxes[i], mass_log)
        i -= len(lvl.boxes)


Policy = Callable[[int, BoxRegion], tuple[Fraction, ...]]


def steering_policy(target: Sequence[Fraction | int]) -> Policy:
    """Nesting player asks for the target center every move; the game clamps
    the request onto the nested range, which drives the box toward the
    target as fast as the shrinking half-widths allow.  A target at the
    first box's center (the origin, for simulate.policy = center) is always
    legal, so the center never moves."""
    goal = tuple(Fraction(x) for x in target)
    return lambda move, previous: goal


def _clamp_center(
    desired: Sequence[Fraction],
    previous: BoxRegion,
    half: Sequence[Fraction],
) -> tuple[Fraction, ...]:
    out = []
    for j in range(previous.n):
        slack = previous.half[j] - half[j]
        lo = previous.center[j] - slack
        hi = previous.center[j] + slack
        out.append(min(max(desired[j], lo), hi))
    return tuple(out)


def play_game(
    policy: Policy,
    strategy: CoveringStrategy,
    depth: int,
    radius: Fraction | int = 1,
    grant_preamble: bool = True,
    clamp: bool = True,
) -> PlayTranscript:
    """Run the game to `depth` moves.

    The nesting player's policy proposes a center each move; with clamp=True
    the proposal is projected onto the legal (nested) range, otherwise an
    illegal proposal raises.  The deleting player answers move m with every
    level-m strategy box that intersects the current play box, provided the
    summed mass fits the budget (alpha prod beta^m)^c; an over-budget answer
    degrades to a recorded skip.  Strategy levels flagged as preamble are
    granted before move 1 (recorded without a budget charge, built on read).
    """
    from .families import _LazyRows, _reach

    if depth < 1:
        raise ValueError("depth must be >= 1")
    params = strategy.params
    contraction = params.contraction
    if not contraction.is_exact:
        raise ValueError("game runs require exact contraction ratios")
    r = Fraction(radius)
    betas = contraction.exact_betas()
    c = params.c
    log_det = contraction.log_det()

    granted = [lvl for lvl in strategy.levels if grant_preamble and lvl.preamble]
    preamble = _LazyRows(sum(len(lvl.boxes) for lvl in granted), partial(
        _preamble_record, granted, [c * lvl.exponent * log_det for lvl in granted]))

    by_level = {lvl.level: lvl for lvl in strategy.levels if not lvl.preamble}
    current = BoxRegion(tuple(Fraction(0) for _ in betas), tuple(r for _ in betas))
    moves: list[MoveRecord] = []
    for m in range(1, depth + 1):
        half = tuple(r * b ** m for b in betas)
        desired = tuple(Fraction(x) for x in policy(m, current))
        center = _clamp_center(desired, current, half)
        if not clamp and center != desired:
            raise ValueError(f"illegal play at move {m}: box not nested")
        box = BoxRegion(center, half)
        level = by_level.get(m)
        cap_log = c * (params.alpha.log + m * log_det)
        deletions: list[DeletionRecord] = []
        if level is not None and level.boxes:
            mass_log = c * level.exponent * log_det
            deletions = [
                DeletionRecord(m, level.exponent, level.boxes[i], mass_log)
                for i in _reach(level.lattice, box.center, box.half).nonzero()[0]
            ]
        if deletions:
            # k equal masses: LogScalar.sum's accumulator is exactly k
            spent_log = mass_log + math.log(len(deletions))
            if spent_log <= cap_log + BUDGET_TOL:
                moves.append(
                    MoveRecord(m, box, tuple(deletions), spent_log, cap_log, False)
                )
            else:
                moves.append(MoveRecord(m, box, (), -math.inf, cap_log, True))
        else:
            moves.append(MoveRecord(m, box, (), -math.inf, cap_log, True))
        current = box
    return PlayTranscript(r, c, params.alpha.log, betas, preamble, tuple(moves))


# ---------------------------------------------------------------- potential


class PotentialRow(NamedTuple):
    level: int
    cell: BoxRegion
    phi_log: float
    threshold_log: float      # ln((delta prod beta^level)^c)

    @property
    def surviving(self) -> bool:
        return self.phi_log <= self.threshold_log


def potential_phi(
    transcript: PlayTranscript,
    cell: BoxRegion,
    level: int,
    delta: float,
) -> PotentialRow:
    """Accumulated deleted mass charged to `cell` at `level`.

    Sums the recorded masses of every deletion from moves strictly before
    `level` whose box intersects the cell; level 1 is always zero.  The cell
    survives while the total stays at or below (delta prod beta^level)^c.
    """
    masses: list[LogScalar] = []
    for move in transcript.moves:
        if move.move >= level:
            break
        for rec in move.deletions:
            if cell.intersects(rec.box):
                masses.append(LogScalar(rec.mass_log))
    phi = LogScalar.sum(masses) if masses else LogScalar.zero()
    log_det = sum(math.log(float(b)) for b in transcript.betas)
    threshold = transcript.c * (math.log(delta) + level * log_det)
    return PotentialRow(level, cell, phi.log, threshold)


# ----------------------------------------------------------- counting oracles


class ChildGridReport(NamedTuple):
    """Grid of coarse children inside a half-shrunk coarse cell.

    The construction places, per axis, offsets l with |l| <= gamma_j around
    the scaled parent index, gamma_j = (u_j^N - 2) / 6.  The exhaustive
    enumeration finds every level-(k+1)N+1 coarse-grid cell geometrically
    contained in the half-shrunk parent; in this exact unit-fraction setting
    the two sets coincide and their size is prod_j (2 floor(gamma_j) + 1) —
    at least prod_j floor(gamma_j), the coarser stated form.
    """

    gammas: tuple[Fraction, ...]
    count: int
    formula_count: int          # prod (2 floor(gamma_j) + 1)
    floor_product: int          # prod floor(gamma_j)
    all_inside_half_parent: bool
    matches_enumeration: bool


def child_cover_grid(
    u: Sequence[int],
    block: int,
    parent: Sequence[int],
    k: int = 0,
) -> ChildGridReport:
    """Construct and exhaustively verify the child grid of the level-kN+1
    coarse cell with index `parent`, at level (k+1)N+1, on the grids of rho = 1.

    Geometric checks run in exact rational arithmetic: every constructed
    child must be contained in the parent shrunk to half size, and the
    construction must list exactly the coarse-grid cells with that property.
    """
    if block < 1 or k < 0:
        raise ValueError("block >= 1 and k >= 0 required")
    _check_power_bits("block", block, u, block)
    cells = math.prod(2 * ((uj ** block - 2) // 6) + 5 for uj in u)
    check_size("block", block, cells, "candidate cells", MAX_GRID_CELLS)
    _check_power_bits("k", k, u, (k + 1) * block + 1)
    contraction = DiagonalContraction.from_denominators([int(uj) for uj in u])
    coarse_level = k * block + 1
    fine_level = (k + 1) * block + 1
    parent_lat = Lattice("coarse", contraction, coarse_level)
    child_lat = Lattice("coarse", contraction, fine_level)
    half_parent = parent_lat.cell_box(parent).shrink(Fraction(1, 2))

    gammas = tuple(Fraction(uj ** block - 2, 6) for uj in u)
    floors = tuple(g.numerator // g.denominator for g in gammas)
    formula = math.prod(2 * f + 1 for f in floors)
    floor_prod = math.prod(max(f, 0) for f in floors)

    # constructed grid: anchor at the scaled parent index, symmetric offsets
    anchors = [uj ** block * parent[j] for j, uj in enumerate(u)]
    grid = set(itertools.product(*(range(a - f, a + f + 1) for a, f in zip(anchors, floors))))
    all_inside = all(
        half_parent.contains_box(child_lat.cell_box(p)) for p in grid
    )

    # exhaustive enumeration: scan two extra rings beyond the construction
    found = {
        p for p in itertools.product(*(range(a - f - 2, a + f + 3) for a, f in zip(anchors, floors)))
        if half_parent.contains_box(child_lat.cell_box(p))
    }
    return ChildGridReport(
        gammas, len(found), formula, floor_prod, all_inside, found == grid
    )


class OverlapReport(NamedTuple):
    """Exact number of level-L coarse-grid cells one deleted box touches,
    against the volume bound 4^n prod_j (beta_j^q + beta_j^L) / beta_j^L."""

    exact_count: int
    bound: Fraction
    ok: bool


def tuple_overlap_bound(
    u: Sequence[int],
    fine_level: int,
    exponent: int,
    center: Sequence[Fraction | int],
) -> OverlapReport:
    if exponent < 1 or fine_level < 1:
        raise ValueError("exponent and fine level must be >= 1")
    _check_power_bits("level", fine_level, u, fine_level)
    _check_power_bits("exponent", exponent, u, exponent)
    count = 1
    bound = Fraction(4) ** len(u)
    for j, uj in enumerate(u):
        beta_l = Fraction(1, uj ** fine_level)
        beta_q = Fraction(1, uj ** exponent)
        # coarse centers 3 beta_l p (rho = 1) within distance beta_q + beta_l
        window = beta_q + beta_l
        spacing = 3 * beta_l
        cj = Fraction(center[j])
        lo = -((-(cj - window)) // spacing)   # ceil
        hi = (cj + window) // spacing         # floor
        count *= max(0, hi - lo + 1)
        bound *= (beta_q + beta_l) / beta_l
    return OverlapReport(int(count), bound, count <= bound)


def potential_transfer_bound(
    x: float, y: float, a: float, b: float, gamma: float, c: float
) -> tuple[float, float]:
    """(lhs, rhs) of min(1, x^c/(gamma y)^c) (a x + b y)
    <= (a + b) x^c max(x^(1-c), y^(1-c) / gamma^c); holds for all positive
    inputs with c in (0,1), with equality e.g. at x = y = gamma = 1."""
    if min(x, y, a, b, gamma) <= 0.0 or not 0.0 < c < 1.0:
        raise ValueError("inputs must be positive with c in (0,1)")
    lhs = min(1.0, (x / (gamma * y)) ** c) * (a * x + b * y)
    rhs = (a + b) * x ** c * max(x ** (1.0 - c), y ** (1.0 - c) / gamma ** c)
    return lhs, rhs


# ------------------------------------------------------------- budget audits


class BudgetLevelReport(NamedTuple):
    level: int
    exponent: int
    preamble: bool
    test_boxes: int
    strategy_boxes: int
    worst_hits: int
    worst_center: tuple[Fraction, ...] | None
    spent_log: float          # worst-case summed mass, ln
    cap_log: float            # ln((a_k prod beta^k)^c)
    legal: bool


class BudgetAudit(NamedTuple):
    levels: tuple[BudgetLevelReport, ...]

    @property
    def all_legal(self) -> bool:
        return all(lvl.legal for lvl in self.levels)

    @property
    def worst_hits(self) -> int:
        return max((lvl.worst_hits for lvl in self.levels), default=0)


def verify_covering_budget(
    strategy: CoveringStrategy,
    levels: Sequence[int] | None = None,
    extent: Fraction | int = 1,
    rho1: Fraction | int = 1,
) -> BudgetAudit:
    """Audit the per-level deletion budget of a materialized strategy.

    For each audited level k (all levels when `levels` is None; a requested
    level the strategy lacks raises ValueError), sweeps every test box
    A^k(B[0, rho1]) + z with z on the half-spacing grid (spacing
    rho1 beta_j^k / 2, |z_j| <= extent), counts the strategy boxes each test
    box intersects, and compares the worst summed mass against
    (a_k prod beta^k)^c.

    Counting is exact and linear: families._grid_hits counts, from the
    level's integer numerators (StrategyLevel.lattice), the boxes within
    the test half-width of every test center at once.  Before any level is
    counted, a level whose difference array would exceed MAX_AUDIT_CELLS
    cells raises core.SizeError naming `extent`.
    """
    import numpy as np

    from .families import _grid_hits

    params = strategy.params
    contraction = params.contraction
    if not contraction.is_exact:
        raise ValueError("budget audits require exact contraction ratios")
    assert contraction.denominators is not None
    dens = contraction.denominators
    n = contraction.n
    if n not in (1, 2):
        raise ValueError("budget audits support 1 or 2 axes")
    if levels is not None:
        missing = [k for k in levels if strategy.level(k) is None]
        if missing:
            raise ValueError(
                f"strategy has no level {', '.join(map(str, missing))} "
                f"(it has {', '.join(str(lvl.level) for lvl in strategy.levels) or 'none'})"
            )
    extent = Fraction(extent)
    rho1 = Fraction(rho1)
    c = params.c
    log_det = contraction.log_det()
    reports: list[BudgetLevelReport] = []
    grids = []
    for lvl in strategy.levels:
        if levels is not None and lvl.level not in levels:
            continue
        test_half = [rho1 * Fraction(1, d ** lvl.level) for d in dens]
        spacing = [h / 2 for h in test_half]
        max_index = [int((extent + test_half[j]) / spacing[j]) for j in range(n)]
        cells = math.prod(2 * m + 2 for m in max_index)
        if lvl.boxes:
            check_size("extent", extent, cells, f"level-{lvl.level} audit grid cells",
                       MAX_AUDIT_CELLS)
        grids.append((lvl, test_half, spacing, max_index))
    for lvl, test_half, spacing, max_index in grids:
        k = lvl.level
        cap_log = c * (lvl.budget_rate_log + k * log_det)
        if not lvl.boxes:
            reports.append(BudgetLevelReport(
                k, lvl.exponent, lvl.preamble, 0, 0, 0, None,
                -math.inf, cap_log, True,
            ))
            continue
        # test centers i * spacing, |i_j| <= max_index[j]
        hits = _grid_hits(lvl.lattice, (0,) * n, spacing, test_half,
                          [-m for m in max_index], max_index)
        worst = int(hits.max())
        where = np.unravel_index(int(hits.argmax()), hits.shape)
        worst_center = tuple(
            (int(where[j]) - max_index[j]) * spacing[j] for j in range(n)
        )
        mass_one = c * lvl.exponent * log_det
        spent_log = math.log(worst) + mass_one if worst else -math.inf
        legal = spent_log <= cap_log + BUDGET_TOL
        reports.append(BudgetLevelReport(
            k, lvl.exponent, lvl.preamble,
            hits.size, len(lvl.boxes),
            worst, worst_center, spent_log, cap_log, legal,
        ))
    return BudgetAudit(tuple(reports))
