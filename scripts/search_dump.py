#!/usr/bin/env python3
"""Write the search-layer outputs whose bytes must not change.

    python3 scripts/search_dump.py <outdir> [--small]

One file per output: every field of each headline search's SearchResult,
each float by its repr (so its trace, the cells the search witnessed, is
exact), and its certificate text; u, probes and both certificates of
smallest_u_for_patterns(M, 0) for M = 2..6; and a table of rcd_cover_count(u, v, t) (value, tag, option) over
the headline bases and some u == v pairs, with t on the q <= 64 grid, just
below each integer, on the refine ladder, at 1.2345 and at 20 seeded random
values.  Run it in two checkouts and compare with `diff -r`; an empty diff
means the search layer is unchanged.  --small writes a quick subset (the
single-family searches, M = 2 and a shorter table).
"""
from __future__ import annotations

import argparse
import random
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gamecert import optimize  # noqa: E402
from gamecert.families import RcdSpec, rcd_cover_count  # noqa: E402
from reproduce_headline_bounds import MIXED, SINGLE, U5, V5  # noqa: E402

EQUAL_BASES = (2, 7, 2 ** 37, 176924670080, U5)


def _result_text(result: optimize.SearchResult) -> str:
    """Every field but the certificate, each float by its repr (exact)."""
    lines = [f"{f.name} = {getattr(result, f.name)!r}"
             for f in fields(result) if f.name != "certificate"]
    return "\n".join(lines) + "\n"


def _certificate_text(result: optimize.SearchResult) -> str:
    return result.certificate.to_text() if result.certificate is not None else "none\n"


def _searches(small: bool) -> Iterator[tuple[str, str]]:
    runs = [(name, family, None) for name, family in SINGLE]
    if not small:
        runs += [(name, members, want) for name, members, want in MIXED]
    for i, (name, target, want) in enumerate(runs):
        if want is None:
            result = optimize.optimize_pattern_count(target)
        else:
            result = optimize.optimize_intersection(target, want_patterns=want)
        yield f"search-{i}.txt", f"instance = {name}\n" + _result_text(result)
        yield f"search-{i}-certificate.txt", _certificate_text(result)


def _smallest_u(small: bool) -> Iterator[tuple[str, str]]:
    for m in (2,) if small else range(2, 7):
        found = optimize.smallest_u_for_patterns(m, 0)
        yield f"smallest-u-{m}.txt", f"u = {found.u}\nprobes = {found.probes}\n"
        yield f"smallest-u-{m}-certificate.txt", _certificate_text(found.result)
        yield f"smallest-u-{m}-below-certificate.txt", _certificate_text(found.below)


def _cover_ts(small: bool) -> list[float]:
    """t values: k/64, below each integer, the refine ladders, 1.2345 and
    seeded random draws, in this order."""
    top = 3 if small else 6
    ts = [k / 64 for k in range(1, 64 * top + 1, 7 if small else 3)]
    for j in range(1, top + 1):
        ts += [j - off for off in optimize.T_INTEGER_OFFSETS]
        ts += optimize._refine_t(j - 1e-5, (), 9)
    ts.append(1.2345)
    rng = random.Random(20261018)
    ts += [rng.uniform(0.05, top) for _ in range(20)]
    return ts


def _cover_table(small: bool) -> Iterator[tuple[str, str]]:
    if small:
        pairs = [(2 ** 37, 2 ** 38), (U5, V5), (7, 7), (U5, U5)]
    else:
        families = [f for _, f in SINGLE] + [f for _, members, _ in MIXED for f in members]
        pairs = list(dict.fromkeys((f.u, f.v) for f in families if isinstance(f, RcdSpec)))
        pairs += [(b, b) for b in EQUAL_BASES]
    rows = []
    for u, v in pairs:
        for t in _cover_ts(small):
            got = rcd_cover_count(u, v, t)
            rows.append(f"{u} {v} {t!r} {got.value} {got.tag} {got.option}")
    yield "cover-counts.txt", "u v t value tag option\n" + "\n".join(rows) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--small", action="store_true", help="a quick subset")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for part in (_searches(args.small), _smallest_u(args.small),
                 _cover_table(args.small)):
        for name, text in part:
            (args.outdir / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
