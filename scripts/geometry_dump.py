#!/usr/bin/env python3
"""Write the exact-geometry outputs whose bytes must not change.

    python3 scripts/geometry_dump.py <outdir> [--small]

One file per output: the CSVs and rasters of generated members, the repr of
every covering-strategy level, the repr of budget audits, game transcripts,
pattern-search candidates (their CSV, and their count with the repr of the
first three), and the repr of the `verify` oracle reports (projection return,
passing and as the negative control, half-shrink, child grid, overlap).  Run
it in two checkouts and compare with `diff -r`; an empty diff means the
geometry layer is unchanged.  A level of more than REPR_LIMIT boxes is
written as the sha256 of its repr.  --small writes a quick subset of small
members (about a second).
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gamecert import gamesim, patterns  # noqa: E402
from gamecert.families import (  # noqa: E402
    RcdSpec,
    RcoSpec,
    covering_strategy_for_rcd,
    covering_strategy_for_rco,
    generate_rcd,
    generate_rco,
)

REPR_LIMIT = 20000
RASTERS = ((256, 256), (33, 17), (21, 12))
TINY = Fraction(1, 10 ** 30)


def _strategy_text(strategy) -> str:
    lines = [repr(strategy.params), strategy.kind]
    for level in strategy.levels:
        text = repr(level)
        if len(level.boxes) > REPR_LIMIT:
            text = f"level {level.level}: {len(level.boxes)} boxes, repr sha256 " \
                   + hashlib.sha256(text.encode()).hexdigest()
        lines.append(text)
    return "\n".join(lines) + "\n"


def _outputs(small: bool) -> Iterator[tuple[str, str]]:
    """(file name, text), in the order they are written."""
    members = {
        "rco-4-5-2-1": generate_rco(RcoSpec(4, 5, 2, 1), 2 if small else 3),
        "rco-3-2-3-2-hash": generate_rco(RcoSpec(3, 2, 3, 2), 2, "hash", 5),
        "rcd-5-3-hash": generate_rcd(RcdSpec(5, 3, "hash", 8), 2),
    }
    if not small:
        members["rcd-7-4"] = generate_rcd(RcdSpec(7, 4), 2)
    for name, member in members.items():
        yield f"{name}.csv", member.to_csv()
        for w, h in RASTERS:
            yield f"{name}-{w}x{h}.pbm", member.to_pbm(w, h)

    strategies = {
        "rco-4-5-2-1": covering_strategy_for_rco(members["rco-4-5-2-1"], 0.5),
        "rco-3-2-3-2-hash": covering_strategy_for_rco(members["rco-3-2-3-2-hash"], 0.5),
        "rcd-5-3-hash-t2": covering_strategy_for_rcd(RcdSpec(5, 3, "hash", 8), 0.5, 2, 2),
        # 64 levels whose last numerators and denominators are past int64
        "rcd-2-2-depth64": covering_strategy_for_rcd(RcdSpec(2, 2), 0.5, 1, 64),
    }
    if not small:
        strategies.update({
            "rco-3-2-2-1": covering_strategy_for_rco(generate_rco(RcoSpec(3, 2, 2, 1), 3), 0.5),
            "rcd-7-4": covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 1, 3),
            "rcd-7-4-hash": covering_strategy_for_rcd(RcdSpec(7, 4, "hash", 12345), 0.5, 1, 2),
            "rcd-5-3-hash-t1": covering_strategy_for_rcd(RcdSpec(5, 3, "hash", 8), 0.5, 1, 3),
        })
    for name, strategy in strategies.items():
        yield f"{name}.levels", _strategy_text(strategy)

    audits = [
        ("rco-4-5-2-1", {}),
        ("rco-4-5-2-1", {"levels": [1], "extent": 2}),
        ("rco-3-2-3-2-hash", {"rho1": Fraction(2, 3)}),
        ("rcd-5-3-hash-t2", {}),
    ]
    if not small:
        audits += [
            ("rcd-7-4", {"levels": [1, 2]}),
            ("rcd-7-4-hash", {"levels": [1]}),
            ("rcd-5-3-hash-t1", {"extent": 2, "rho1": Fraction(2, 3)}),
        ]
    for i, (name, kwargs) in enumerate(audits):
        audit = gamesim.verify_covering_budget(strategies[name], **kwargs)
        yield f"audit-{i}-{name}.txt", repr(audit) + "\n"

    games = [
        ("rco-4-5-2-1", (Fraction(7, 8), Fraction(9, 10)), 2),
        ("rco-4-5-2-1", (TINY, TINY), 2),
        ("rcd-5-3-hash-t2", (Fraction(-5, 64), Fraction(33, 64)), 2),
    ]
    if not small:
        games += [
            ("rcd-7-4", (Fraction(7, 8), Fraction(9, 10)), 3),
            ("rcd-7-4", (TINY, Fraction(-1, 7)), 3),
            ("rcd-7-4-hash", (Fraction(0), Fraction(-1, 3)), 2),
            ("rco-3-2-2-1", (Fraction(1, 8), Fraction(1, 10)), 3),
        ]
    for i, (name, target, depth) in enumerate(games):
        game = gamesim.play_game(gamesim.steering_policy(target), strategies[name], depth)
        yield f"game-{i}-{name}.txt", game.to_text()

    queries = [
        ("rcd-5-3-hash", patterns.PatternQuery(((0, 0), (1, 0)), Fraction(1, 9), Fraction(2, 9), 2)),
        ("rco-4-5-2-1", patterns.PatternQuery(((0, 0), (1, 0), (0, 1)),
                                              Fraction(1, 5), Fraction(1, 4), 2, Fraction(1, 50))),
    ]
    if not small:
        # the README's find-pattern query
        queries.append(("rcd-7-4", patterns.PatternQuery(
            ((0, 0), (2, 0)), Fraction(1, 49), Fraction(3, 49), 2)))
    # scale 3/4 has no candidate, between scales that have some
    queries.append(("rcd-5-3-hash", patterns.PatternQuery(
        ((0, 0), (1, 1)), Fraction(1, 4), Fraction(9, 4), 2, Fraction(1, 4))))
    for i, (name, query) in enumerate(queries):
        candidates = patterns.find_homothety(query, members[name])
        yield f"candidates-{i}-{name}.csv", patterns.candidates_to_csv(candidates)
        yield f"candidates-{i}-{name}.txt", \
            f"{len(candidates)} candidates\n{list(candidates[:3])!r}\n"

    yield from _oracle_outputs()


def _oracle_outputs() -> Iterator[tuple[str, str]]:
    """The verify oracles' reports on one to three axes (a few ms in all)."""
    for us, block, radius in (((7,), 3, 4), ((6, 7), 2, 3), ((6, 7, 8), 1, 3), ((6, 7, 8), 2, 2)):
        name = "-".join(map(str, us)) + f"-b{block}"
        for corrupt in (False, True):
            audit = gamesim.verify_projection_return(us, block, radius=radius,
                                                     coarse_branch=not corrupt)
            yield f"projection-{name}{'-corrupt' if corrupt else ''}.txt", repr(audit) + "\n"
    for us in ((6, 7), (5, 2)):
        audit = gamesim.verify_half_shrink(us, 2, 3, radius=10)
        yield f"half-shrink-{'-'.join(map(str, us))}.txt", repr(audit) + "\n"
    for us, block, parent in (((6,), 2, (1,)), ((6, 7), 2, (1, -1)), ((9, 10, 11), 1, (2, 0, -1))):
        report = gamesim.child_cover_grid(us, block, parent)
        yield f"child-grid-{'-'.join(map(str, us))}.txt", repr(report) + "\n"
    for us, level, exponent, center in (((5, 7), 3, 4, (Fraction(1, 7), Fraction(-2, 9))),
                                        ((6, 6), 2, 2, (0, 0)), ((10, 12), 1, 3, (1, -1))):
        report = gamesim.tuple_overlap_bound(us, level, exponent, center)
        yield f"overlap-{'-'.join(map(str, us))}.txt", repr(report) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--small", action="store_true", help="small members only")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for name, text in _outputs(args.small):
        (args.outdir / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
