#!/usr/bin/env python3
"""gamecert benchmark: one workload per fresh process, every output checked.

    python3 perfbench/run.py --workload search-headline --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` the per-layer ones.  The last line of standard
output is one JSON object; a human-readable table and a metadata line come
before it, and the full record (per-op times, check details, metadata) is
written to ``.bench_build/records/``.

Set-up time is the median over several fresh processes of the time from
spawning the worker to its ``ready`` line: interpreter start, imports and
input generation.  Exits 2 without a result when the checkout holds no
program, 1 when a worker fails or the run overruns its time limit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 8          # extra fresh processes that only set up
TIME_LIMIT_S = 170.0      # per workload, including set-up


def worker_env() -> dict[str, str]:
    """Pinned interpreter settings: recorded, and the same on every commit."""
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "GAMECERT_THREADS", "PYTHONSTARTUP"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # bytecode is cached inside the checkout, as an installed package has it
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, str, int]:
    """Start a worker; return (seconds to its ready line, rest of stdout, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready":
        code = code or 1
    return setup, rest, code


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    deadline = time.monotonic() + TIME_LIMIT_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _, code = spawn(args + ["--setup-only"], deadline)
        if code != 0:
            print(f"{name}: set-up probe exited {code}", file=sys.stderr)
            return None
        setups.append(setup)
    setup, out, code = spawn(args + ["--trace", str(trace)], deadline)
    if code != 0 or not out.strip():
        print(f"{name}: worker exited {code}", file=sys.stderr)
        return None
    result = json.loads(out.strip().splitlines()[-1])
    setups.append(setup)
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["details"]["setup_samples"] = setups
    return result


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gamecert" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no gamecert source checkout at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
        if missing:
            print(f"{name}: metrics not reported: {missing}", file=sys.stderr)
            return 1
        records = ROOT / ".bench_build" / "records"
        records.mkdir(parents=True, exist_ok=True)
        (records / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
        d = result["details"]
        print(f"== {name}  seed={args.seed} trace={args.trace}  "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  passes={d['passes']}")
        print(f"   per op, fastest of the passes: p50 {d['op_p50_s']:.4g} s, "
              f"p{d['op_tail_percentile']:.0f} {d['op_tail_s']:.4g} s, "
              f"max {d['op_max_s']:.4g} s over {d['op_samples']} ops")
        print("   meta " + json.dumps(result["meta"], sort_keys=True))
        print(f"   floors checked={d['floor_checked']} independent-check mismatches="
              f"{d['floor_mismatch']}  intersection re-validation gap={d['known_revalidate_gap']}")
        for failure in d["failures"]:
            print(f"   FAILED {failure['op']}: {failure['problems'][0].strip()[:300]}")
        if d["controls_unflagged"]:
            print(f"   negative controls not flagged: {d['controls_unflagged']}")
        if d.get("absent"):
            print(f"   absent (metrics read 0): {d['absent']}")
        for m in wanted:
            print(f"   {m['name']:<42} {result['metrics'][m['name']]:>16.6g} {m['unit']}")
        prefix = f"{name}." if args.workload == "all" else ""
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for m in wanted:
            summary["metrics"][prefix + m["name"]] = {
                "value": result["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
