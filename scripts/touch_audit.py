#!/usr/bin/env python3
"""Audit the touch counts behind two certified rates at full size.

    python3 scripts/touch_audit.py

Two jobs, each in its own child process, both at c = 0.5 and auditing
every level >= 1 of their strategy:

* rco: generate RCO(4,5,2,1) at depth 5 (10,105,260 boxes), build its
  covering strategy and audit it;
* rcd: build the RCD(7,4) covering strategy at t = 1 and depth 4
  (2,889,900 boxes) and audit it.

After each step the child prints the step's wall time and its own peak RSS
so far (ru_maxrss, a high-water mark: a step that stays below an earlier
peak prints that peak).  The rco job keeps the member alive through its
audit, as a process that goes on to use it would.  Then, per audited level,
it prints the worst hits of any test box against the touch count that the
rate formula uses (9m for a cut-out member, 9 (u-1)(v-1) rcd_cover_count
for a corner-digit one), and whether the level is legal; last, all_legal.
It exits 2 if a level is illegal or its worst hits pass that count.  The
rco job peaks near 0.55 GiB, the member's 0.13 GiB (int16 columns)
included, and takes a few seconds on a 2-core host; this script is not part
of Tier-1.
"""
from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = ("rco", "rcd")


def _step(name: str, work):
    start = time.perf_counter()
    result = work()
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
    print(f"  {name:<9} {wall:7.2f} s   peak RSS {peak:7.0f} MiB", flush=True)
    return result


def _run_job(job: str) -> bool:
    from gamecert.families import (
        RcdSpec, RcoSpec, covering_strategy_for_rco, covering_strategy_for_rcd,
        generate_rco, rcd_cover_count,
    )
    from gamecert.gamesim import verify_covering_budget

    if job == "rco":
        spec, depth = RcoSpec(4, 5, 2, 1), 5
        print(f"{job}: RCO(4,5,2,1) at depth {depth}, c = 0.5", flush=True)
        member = _step("generate", lambda: generate_rco(spec, depth))
        strategy = _step("strategy", lambda: covering_strategy_for_rco(member, 0.5))
        constant, formula = 9 * spec.m, "9m"
    else:
        spec, depth, t = RcdSpec(7, 4), 4, 1
        print(f"{job}: RCD(7,4) strategy at t = {t}, depth {depth}, c = 0.5", flush=True)
        strategy = _step("strategy", lambda: covering_strategy_for_rcd(spec, 0.5, t, depth))
        constant = 9 * (spec.u - 1) * (spec.v - 1) * rcd_cover_count(spec.u, spec.v, t).value
        formula = "9(u-1)(v-1)N_t"
    levels = [lvl.level for lvl in strategy.levels if lvl.level >= 1]
    audit = _step("audit", lambda: verify_covering_budget(strategy, levels=levels))
    for report in audit.levels:
        print(f"  level {report.level}: worst hits {report.worst_hits} of {formula} = "
              f"{constant} ({report.worst_hits / constant:.3f}), "
              f"legal = {str(report.legal).lower()}")
    print(f"  all_legal = {str(audit.all_legal).lower()}", flush=True)
    return audit.all_legal and all(r.worst_hits <= constant for r in audit.levels)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", choices=JOBS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return 0 if _run_job(args.child) else 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    status = 0
    for job in JOBS:
        code = subprocess.run([sys.executable, __file__, "--child", job], env=env).returncode
        if code:
            print(f"{job}: child exited {code}")
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
