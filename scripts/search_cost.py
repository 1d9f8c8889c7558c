#!/usr/bin/env python3
"""Time the optimizer's searches in-process, and count what their probes take.

    python3 scripts/search_cost.py [-n N] [--rounds R] [--seed S] [--root CHECKOUT ...]

Each round starts one child process per checkout given with --root (default:
this one), in an order that reverses every round, so checkouts alternate and
host drift spreads evenly over them.  A child imports gamecert from
<checkout>/src and runs, in-process, each search of perfbench's
search-headline workload: smallest_u_for_patterns(4, 0), the nine headline
searches of <checkout>/scripts/reproduce_headline_bounds.py and three
searches seeded as that workload seeds them for --seed.  It runs each search
once untimed, then N times, and keeps the best time.  After R rounds this
prints, per search and checkout, the best time over all rounds, in ms, and
the ratio of each checkout to the first.

The last child of each checkout then runs every search once more with
counters, and this prints what that pass did:

- cover counts (the _ceil_powers calls of families.rcd_cover_count) by
  their t, integer, on the q <= 64 grid (t = p/q) or off it, and by the step
  that settled them: the float enclosure (core._float_step, or
  families._float_ceilings in a checkout from before it moved to core),
  core's exp and log kernel (core._log_bounds, labelled "kernel"), or in a
  checkout from before the kernel mpmath's power (labelled "mpmath"), or
  else integer roots;
- certify.pattern_feasible calls per search.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _searches(seed: int) -> dict:
    """name -> a call running that search, as perfbench's search-headline has them."""
    from reproduce_headline_bounds import MIXED, SINGLE

    from gamecert import optimize
    from gamecert.families import RcdSpec, RcoSpec

    runs = {"smallest-u(4,0)": lambda: optimize.smallest_u_for_patterns(4, 0)}
    for name, family in SINGLE:
        runs[name] = lambda family=family: optimize.optimize_pattern_count(family)
    for name, members, want in MIXED:
        runs[name] = lambda members=members, want=want: optimize.optimize_intersection(
            members, want_patterns=want)
    rnd = random.Random(f"search-headline|{seed}")
    for spec in (RcoSpec(rnd.randint(24, 40), rnd.randint(24, 40), rnd.randint(1, 2), 5),
                 RcoSpec(rnd.randint(24, 40), rnd.randint(24, 40), rnd.randint(1, 2), 5),
                 RcdSpec(2**39 + rnd.randrange(2**33), 2**40 - rnd.randrange(2**33))):
        name = (f"RCO({spec.u},{spec.v},{spec.m},{spec.t})" if isinstance(spec, RcoSpec)
                else f"RCD({spec.u},{spec.v})")
        runs[f"seeded {name}"] = lambda spec=spec: optimize.optimize_pattern_count(spec)
    return runs


def _counted_pass(runs: dict) -> dict:
    """Run each search once with the cover counts' steps and the optimizer's
    pattern_feasible wrapped; return what the wrappers counted."""
    from gamecert import core, families, optimize

    steps: Counter = Counter()
    feasible: Counter = Counter()
    late = "kernel" if hasattr(core, "_log_bounds") else "mpmath"
    seen = {"float": False, late: False}

    def wrap(owner, name, before, after=None):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            before(args)
            out = real(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out
        setattr(owner, name, wrapper)
        return real

    def saw_late(args):
        seen[late] = True

    def reset(args):
        seen.update({"float": False, late: False})

    def classify(args, out):
        q = args[1].as_integer_ratio()[1]
        where = "integer t" if q == 1 else "grid t" if q <= 64 else "off-grid t"
        step = late if seen[late] else "float" if seen["float"] else "integer root"
        steps[f"{where}: {step}"] += 1

    def saw_float(args, out):
        # the float step settled if its last call answered: core._float_step
        # runs per ceiling until one gives None, _float_ceilings once for all
        seen["float"] = out is not None

    wrap(families, "_ceil_powers", reset, classify)
    if hasattr(core, "_float_step"):
        wrap(core, "_float_step", lambda args: None, saw_float)
    elif hasattr(families, "_float_ceilings"):
        wrap(families, "_float_ceilings", lambda args: None, saw_float)
    if late == "kernel":
        wrap(core, "_log_bounds", saw_late)    # one call per round of the kernel step
    else:
        import mpmath
        from mpmath import libmp

        wrap(libmp, "mpf_pow", saw_late)       # the mpmath step of this checkout,
        wrap(mpmath, "power", saw_late)        # or of one that calls mpmath.power
    for name, run in runs.items():
        real = wrap(optimize, "pattern_feasible", lambda args, name=name: feasible.update([name]))
        run()
        optimize.pattern_feasible = real
    return {"cover counts": dict(steps), "pattern_feasible": dict(feasible)}


def child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(args.root / "scripts"))
    sys.path.insert(0, str(args.root / "src"))
    runs = _searches(args.seed)
    best = {}
    for name, run in runs.items():
        run()
        times = []
        for _ in range(args.n):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        best[name] = min(times)
    out = {"best": best}
    if args.count:
        out.update(_counted_pass(runs))
    json.dump(out, sys.stdout)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=5, help="timed runs of each search per round")
    parser.add_argument("--rounds", type=int, default=3, help="rounds of children per checkout")
    parser.add_argument("--seed", type=int, default=1, help="seed of the seeded searches")
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to time (repeat to alternate between several)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        args.root = args.root[0]
        return child(args)
    roots = [r.resolve() for r in args.root or [ROOT]]
    best: dict[tuple[str, int], float] = {}
    counts: dict[int, dict] = {}
    order = list(enumerate(roots))
    for r in range(args.rounds):
        for i, root in order if r % 2 == 0 else order[::-1]:
            cmd = [sys.executable, __file__, "--child", "--root", str(root),
                   "-n", str(args.n), "--seed", str(args.seed)]
            if r == args.rounds - 1:
                cmd.append("--count")
            env = dict(os.environ, PYTHONHASHSEED="0")
            env.pop("PYTHONPATH", None)
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
            out = json.loads(proc.stdout)
            for name, secs in out["best"].items():
                best[name, i] = min(secs, best.get((name, i), secs))
            if "cover counts" in out:
                counts[i] = out
    names = list(dict.fromkeys(name for name, _ in best))
    print(f"best of {args.rounds} rounds x {args.n} runs, ms; ratio to the first checkout")
    for i, root in order:
        print(f"  [{i}] {root}")
    print(f"{'search':<44}" + "".join(f"{f'[{i}]':>10}" for i, _ in order) + "   ratio")
    for name in names + ["total"]:
        row = [sum(best[n, i] for n in names) if name == "total" else best[name, i]
               for i, _ in order]
        ratios = " ".join(f"{v / row[0]:.3f}" for v in row[1:])
        print(f"{name:<44}" + "".join(f"{1e3 * v:10.2f}" for v in row) + f"   {ratios}")
    for i, root in order:
        print(f"[{i}] one counted pass:")
        for key, value in sorted(counts[i]["cover counts"].items()):
            print(f"  cover counts, {key:<32} {value:6d}")
        total = sum(counts[i]["cover counts"].values())
        print(f"  cover counts, {'all':<32} {total:6d}")
        feasible = counts[i]["pattern_feasible"]
        for name in names:
            print(f"  pattern_feasible, {name:<40} {feasible.get(name, 0):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
