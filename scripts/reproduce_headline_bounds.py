#!/usr/bin/env python3
"""Reproduce the headline certified bounds for the stock families.

Runs the optimizer on each instance and prints one line per run:
family, largest certified pattern count, dimension lower bound, wall time.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gamecert.families import RcdSpec, RcoSpec
from gamecert.optimize import optimize_intersection, optimize_pattern_count

U5 = 900019043105
V5 = 999921083009

SINGLE = [
    ("RCO(12,15,1,5)", RcoSpec(12, 15, 1, 5)),
    ("RCO(17,24,1,5)", RcoSpec(17, 24, 1, 5)),
    ("RCO(271828,314159,2,1)", RcoSpec(271828, 314159, 2, 1)),
    ("RCD(2^37,2^38)", RcdSpec(2**37, 2**38)),
    (f"RCD({U5},{V5})", RcdSpec(U5, V5)),
]

MIXED = [
    (
        "RCD+5xRCO(m=4)",
        [RcdSpec(U5, V5)] + [RcoSpec(U5, V5, 4, k) for k in range(1, 6)],
        True,
    ),
    (
        "2xRCD(2^37,2^36)+RCO(1,2)+RCO(1,6)",
        [RcdSpec(2**37, 2**36), RcdSpec(2**37, 2**36),
         RcoSpec(2**37, 2**36, 1, 2), RcoSpec(2**37, 2**36, 1, 6)],
        False,
    ),
    (
        "RCD(2^36,2^40)+RCO(1,1)",
        [RcdSpec(2**36, 2**40), RcoSpec(2**36, 2**40, 1, 1)],
        False,
    ),
    (
        "RCO(425,365,10,3)+RCO(1,2)",
        [RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)],
        False,
    ),
]


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(f"{'instance':<42} {'M':>6} {'dim >=':>20} {'secs':>7}")
    for name, family in SINGLE:
        t0 = time.perf_counter()
        res = optimize_pattern_count(family)
        dt = time.perf_counter() - t0
        print(f"{name:<42} {res.pattern_count:>6} {res.dim_bound:>20.15f} {dt:>7.2f}")
    for name, members, want_patterns in MIXED:
        t0 = time.perf_counter()
        res = optimize_intersection(members, want_patterns=want_patterns)
        dt = time.perf_counter() - t0
        m = res.pattern_count if want_patterns else "-"
        print(f"{name:<42} {m:>6} {res.dim_bound:>20.15f} {dt:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
