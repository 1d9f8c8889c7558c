#!/usr/bin/env python3
"""Time perfbench's geometry-exact ops in-process, and trace what each allocates.

    python3 scripts/geometry_cost.py [-n N] [--rounds R] [--seed S] [--root CHECKOUT ...]

Each round starts one child process per checkout given with --root (default:
this one), in an order that reverses every round, so checkouts alternate and
host drift spreads evenly over them.  A child imports gamecert from
<checkout>/src and the op list of perfbench's geometry-exact workload from
<checkout>/perfbench, built for --seed as the workload builds it.  It runs
the ops once in order untimed, then N more passes timed, and keeps each op's
best time.  The last child of each checkout then runs one more pass under
tracemalloc: per op, the peak of traced memory above the op's start while
it runs, and while its untimed check runs (find_homothety's check writes
the candidates' CSV), and the memory held after it above the pass's start
(the op outputs that later ops read stay alive, as in the workload).  Each
child also reports its peak RSS (ru_maxrss) as it stands after its timed
passes, before any tracing: the in-process number that perfbench's
geometry-exact `peak_rss_mb` reads, from a process that ran the same ops.

This prints, per op and checkout, the best time over all rounds in ms, the
two traced peaks and the memory held in MiB, and the ratios of each
checkout's time and op peak to the first one's; then, per checkout, each
child's peak RSS in MB and their median.  Not part of Tier-1.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ops(root: Path, seed: int, scratch: Path) -> tuple[list, object]:
    sys.path.insert(0, str(root / "perfbench"))
    sys.path.insert(0, str(root / "src"))
    import workloads

    return workloads.GeometryExact(seed, scratch).ops, workloads.fresh_ctx


def _run_pass(ops: list, fresh_ctx, clock: dict | None = None) -> dict:
    """One pass of the ops in order; with `clock`, each op's time goes in it."""
    ctx = fresh_ctx()
    for op in ops:
        if op.prepare is not None:
            op.prepare(ctx)
        start = time.perf_counter()
        op.run(ctx)
        if clock is not None:
            clock[op.name] = min(time.perf_counter() - start, clock.get(op.name, float("inf")))
    return ctx


def _traced_pass(ops: list, fresh_ctx) -> dict:
    """One pass under tracemalloc: per op, (peak above its start while it
    runs, then while its check runs, held after it above the pass's
    start), in bytes."""
    ctx = fresh_ctx()
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    out = {}
    for op in ops:
        if op.prepare is not None:
            op.prepare(ctx)
        gc.collect()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = op.run(ctx)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        op.check(result, ctx)
        del result
        gc.collect()
        out[op.name] = (peak - start, tracemalloc.get_traced_memory()[1] - start, held - base)
    tracemalloc.stop()
    return out


def child(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        ops, fresh_ctx = _ops(args.root, args.seed, Path(scratch))
        _run_pass(ops, fresh_ctx)
        best: dict[str, float] = {}
        for _ in range(args.n):
            _run_pass(ops, fresh_ctx, best)
        out = {"best": best, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if args.trace:
            out["memory"] = _traced_pass(ops, fresh_ctx)
    json.dump(out, sys.stdout)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=5, help="timed passes per round")
    parser.add_argument("--rounds", type=int, default=3, help="rounds of children per checkout")
    parser.add_argument("--seed", type=int, default=7, help="seed of the workload's seeded ops")
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to time (repeat to alternate between several)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        args.root = args.root[0]
        return child(args)
    roots = [r.resolve() for r in args.root or [ROOT]]
    best: dict[tuple[str, int], float] = {}
    memory: dict[int, dict] = {}
    rss: dict[int, list[float]] = {i: [] for i in range(len(roots))}
    order = list(enumerate(roots))
    for r in range(args.rounds):
        for i, root in order if r % 2 == 0 else order[::-1]:
            cmd = [sys.executable, __file__, "--child", "--root", str(root),
                   "-n", str(args.n), "--seed", str(args.seed)]
            if r == args.rounds - 1:
                cmd.append("--trace")
            env = dict(os.environ, PYTHONHASHSEED="0")
            env.pop("PYTHONPATH", None)
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
            out = json.loads(proc.stdout)
            for name, secs in out["best"].items():
                best[name, i] = min(secs, best.get((name, i), secs))
            rss[i].append(out["rss_mb"])
            if "memory" in out:
                memory[i] = out["memory"]
    names = list(dict.fromkeys(name for name, _ in best))
    mib = 2 ** 20
    print(f"best of {args.rounds} rounds x {args.n} passes (ms); one traced pass (MiB): peak "
          f"above the op's start while it runs and while its check runs, and held after it; "
          f"ratios to the first checkout")
    for i, root in order:
        print(f"  [{i}] {root}")
    whats = ("ms", "peak", "check", "held")
    cols = [f"{f'[{i}] {what}':>11}" for what in whats for i, _ in order]
    print(f"{'op':<44}" + "".join(cols) + "   ratio ms, peak")
    for name in names + ["all: sum, max"]:
        if name in names:
            ms = [1e3 * best[name, i] for i, _ in order]
            mem = [memory[i][name] for i, _ in order]
        else:   # the times summed, the largest peaks and held
            ms = [1e3 * sum(best[n, i] for n in names) for i, _ in order]
            mem = [[max(memory[i][n][k] for n in names) for k in range(3)] for i, _ in order]
        ratios = " ".join(f"{m / ms[0]:.3f},{p[0] / mem[0][0]:.3f}"
                          for m, p in zip(ms[1:], mem[1:]))
        print(f"{name[:44]:<44}" + "".join(f"{v:11.2f}" for v in ms)
              + "".join(f"{m[k] / mib:11.2f}" for k in range(3) for m in mem) + f"   {ratios}")
    print("peak RSS of each child after its timed passes (ru_maxrss, MB), in round order; median")
    for i, _ in order:
        print(f"  [{i}] " + " ".join(f"{x:.2f}" for x in rss[i])
              + f"; {statistics.median(rss[i]):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
