"""One workload in one fresh process.

Started by run.py.  Imports the program, draws the workload's inputs from the
seed, prints ``ready`` (run.py times set-up up to that line), then runs passes
over the op list and prints one JSON object as its last line.

Untraced passes give the end-to-end numbers.  With ``--trace 1`` the process
runs one untraced pass, then one pass with the tracer's wrappers installed,
and reports per-layer numbers from the traced pass only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_program():
    import gamecert
    if not Path(gamecert.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"gamecert imported from {gamecert.__file__}, not from {ROOT / 'src'}")
    return gamecert


class PassResult:
    def __init__(self, mode: str, traced: bool) -> None:
        self.mode = mode
        self.traced = traced
        self.op_times: list[float] = []
        self.digests: list[str] = []
        self.problems: list[tuple[str, list[str]]] = []
        self.ctx = None

    @property
    def wall(self) -> float:
        return sum(self.op_times)


def run_pass(workload, mode: str, scratch: Path, tracer=None) -> PassResult:
    from workloads import fresh_ctx
    pass_dir = scratch / f"pass-{time.monotonic_ns()}"
    pass_dir.mkdir(parents=True)
    result = PassResult(mode, tracer is not None)
    ctx = result.ctx = fresh_ctx()
    for index, op in enumerate(workload.ops_for(mode, pass_dir)):
        if op.prepare is not None:
            op.prepare(ctx)
        if tracer is not None:
            tracer.current_op = index
        t0 = time.perf_counter()
        try:
            out = op.run(ctx)
            error = None
        except Exception:                     # an op that raises is a failed op
            out, error = None, traceback.format_exc(limit=3)
        result.op_times.append(time.perf_counter() - t0)
        if error is not None:
            problems, dig = [error], ""
        else:
            try:
                problems, dig = op.check(out, ctx)
            except Exception:                 # so is an output the checks cannot read
                problems, dig = [traceback.format_exc(limit=3)], ""
        result.digests.append(dig)
        if problems:
            result.problems.append((op.name, problems))
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With ten samples or fewer no percentile qualifies; the maximum is reported.
    """
    xs = sorted(values)
    n = len(xs)
    i = max(n - 11, 0) if n > 10 else n - 1
    return xs[i], 100.0 * i / max(n - 1, 1), n


def _probe(args: list[str], reps: int = 3) -> tuple[float, list[float]]:
    """Median over `reps` fresh interpreters: wall time, plus the floats each prints."""
    walls, printed = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                             check=True, cwd=ROOT).stdout
        walls.append(time.perf_counter() - t0)
        printed += [float(x) for x in out.split()]
    return statistics.median(walls), printed


def measure(workload, seconds: float, trace: bool, scratch: Path) -> dict:
    """An untraced run makes round(seconds / pass_budget_s) passes, at least one.

    The pass count depends on the time budget and the workload only, never
    on how fast this commit runs, so two commits are measured on the same
    amount of work.  A traced run makes one untraced
    pass (plus, for the CLI, a warm-up and a baseline pass of in-process
    ``cli.main``) and one traced pass.
    """
    e2e_mode = "spawn" if workload.spawns else "main"
    count = 1 if trace else max(1, round(seconds / workload.pass_budget_s))
    passes: list[PassResult] = []

    def add_pass(mode: str, tracer=None) -> None:
        if passes:
            passes[-1].ctx["outputs"].clear()    # so peak RSS is one pass's
        passes.append(run_pass(workload, mode, scratch, tracer))

    for _ in range(count):
        add_pass(e2e_mode)
    rss_kind = resource.RUSAGE_CHILDREN if workload.spawns else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_kind).ru_maxrss / 1024.0

    e2e = passes[:count]
    # Each op's time is its fastest over the passes: the host's interference
    # only ever adds time, and a single op is too short to average it out.
    op_times = [min(times) for times in zip(*(p.op_times for p in e2e))]
    metrics = {
        "wall_s": statistics.median(p.wall for p in e2e),
        "peak_rss_mb": peak_rss_mb,
    }
    tail_value, tail_pct, n = tail(op_times)
    details = {"passes": len(e2e), "op_max_s": max(op_times),
               "op_p50_s": statistics.median(op_times),
               "op_tail_s": tail_value, "op_tail_percentile": tail_pct, "op_samples": n,
               "op_names": [op.name for op in workload.ops_for(e2e_mode, scratch)],
               "op_times": [p.op_times for p in e2e]}

    if trace:
        from tracer import Tracer
        if workload.spawns:
            add_pass("main")                     # warm-up
            add_pass("main")
        baseline = passes[-1]
        tracer = Tracer()
        tracer.install()
        try:
            add_pass("main", tracer)
        finally:
            tracer.uninstall()
        metrics.update(per_layer(tracer, passes[-1], baseline, e2e[0], workload.spawns))
        details["absent"] = tracer.absent
        details["spans"] = len(tracer.span_id)
        tracer.write(ROOT / ".bench_build" / "trace" / f"{workload.name}.npz")

    # one entry per failed (pass, op): a wrong output, or one whose digest
    # differs from the first pass's
    failures = {(i, name): problems for i, p in enumerate(passes)
                for name, problems in p.problems}
    for i, p in enumerate(passes[1:], start=1):
        for name, a, b in zip(details["op_names"], passes[0].digests, p.digests):
            if a != b:
                failures.setdefault((i, name), []).append(
                    f"output digest differs from the first pass ({passes[0].mode} vs "
                    f"{p.mode}{', traced' if p.traced else ''})")
    controls = workload.controls(passes[-1].ctx)
    unflagged = sorted(name for name, problems in controls.items() if not problems)
    first = passes[0].ctx
    details.update({
        "floor_checked": first["floor_checked"],
        "floor_mismatch": first["floor_mismatch"],
        "floor_mismatch_examples": first["floor_mismatch_examples"][:5],
        "known_revalidate_gap": first["known_revalidate_gap"],
        "controls_unflagged": unflagged,
        "failures": [{"pass": i, "op": name, "problems": problems}
                     for (i, name), problems in list(failures.items())[:20]],
    })
    return {
        "correct": not failures and not unflagged,
        "attempted": sum(len(p.op_times) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
        "details": details,
    }


def per_layer(tracer, traced: PassResult, baseline: PassResult, e2e: PassResult,
              spawns: bool) -> dict[str, float]:
    """Per-layer metrics of the one traced pass."""
    summary = tracer.summary()
    counters = tracer.counters

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    floors = sum(counters[f"floor.{tag}"] for tag in ("exact", "approximate", "infeasible"))
    reports = span("certify.feasibility_report", "calls")
    probes = counters["optimize.probes"]
    geometry = ("families.generate_rco", "families.generate_rcd",
                "families.covering_strategy_for_rco", "families.covering_strategy_for_rcd")
    geometry_s = sum(span(g, "self_s") for g in geometry)
    deficits = traced.ctx["dim_deficits"]
    m = {
        "core.safe_floor_ratio.calls": span("core.safe_floor_ratio", "calls"),
        "core.safe_floor_ratio.self_s": span("core.safe_floor_ratio", "self_s"),
        "core.floor.approx_ratio": ratio(counters["floor.approximate"], floors),
        "core.floor.mismatch": traced.ctx["floor_mismatch"],
        "certify.feasibility_report.calls": reports,
        "certify.feasibility_report.self_s": span("certify.feasibility_report", "self_s"),
        "certify.pattern_dim_bound.calls": span("certify.pattern_dim_bound", "calls"),
        "certify.pattern_dim_bound.self_s": span("certify.pattern_dim_bound", "self_s"),
        "certify.feasible_ratio": ratio(counters["feasibility.feasible"], reports),
        "certify.evals_per_probe": ratio(reports, probes),
        "certify.certificate_text.self_s": span("certify.certificate_text", "self_s"),
        "optimize.probes": probes,
        "optimize.delta_max.calls": span("optimize.delta_max", "calls"),
        "optimize.delta_max.self_s": span("optimize.delta_max", "self_s"),
        "optimize.delta_max.admit_ratio": ratio(counters["delta_max.admitted"],
                                                span("optimize.delta_max", "calls")),
        "optimize.search.self_s": span("optimize.search", "self_s"),
        "optimize.smallest_u.searches": counters["smallest_u.searches"],
        "optimize.dim_deficit_geomean": (
            math.exp(statistics.mean(math.log(d) for d in deficits)) if deficits else 0.0),
        "families.rco_alpha.calls": span("families.rco_alpha", "calls"),
        "families.rcd_alpha.calls": span("families.rcd_alpha", "calls"),
        "families.rcd_cover_count.calls": span("families.rcd_cover_count", "calls"),
        "families.rcd_cover_count.self_s": span("families.rcd_cover_count", "self_s"),
        **{f"{g}.self_s": span(g, "self_s") for g in geometry},
        "families.generate.boxes_per_s": ratio(counters["generate.boxes"], geometry_s),
        "families.to_csv.self_s": span("families.to_csv", "self_s"),
        "families.to_csv.bytes": counters["to_csv.bytes"],
        "families.to_pbm.self_s": span("families.to_pbm", "self_s"),
        "gamesim.verify_covering_budget.self_s": span("gamesim.verify_covering_budget", "self_s"),
        "gamesim.budget.test_boxes": counters["budget.test_boxes"],
        "gamesim.budget.strategy_boxes": counters["budget.strategy_boxes"],
        "gamesim.play_game.self_s": span("gamesim.play_game", "self_s"),
        "gamesim.play_game.deletions": counters["play_game.deletions"],
        "gamesim.verify_projection_return.self_s":
            span("gamesim.verify_projection_return", "self_s"),
        "patterns.find_homothety.self_s": span("patterns.find_homothety", "self_s"),
        "patterns.scales": counters["patterns.scales"],
        "patterns.candidates": counters["patterns.candidates"],
        "cli.main.self_s": span("cli.main", "self_s"),
        "trace.overhead_s": traced.wall - baseline.wall,
    }
    interp_s, _ = _probe(["-c", "pass"])
    _, import_s = _probe(["-c", "import time; t = time.perf_counter(); import gamecert.cli; "
                                "print(time.perf_counter() - t)"])
    m["cli.interp_s"] = interp_s
    m["cli.import_s"] = statistics.median(import_s)
    m["cli.op_p50_s"] = m["cli.op_tail_s"] = m["cli.process_overhead_s"] = 0.0
    m["cli.artifact_bytes"] = 0
    if spawns:
        spawned, in_process = e2e.op_times, baseline.op_times
        m["cli.op_p50_s"] = statistics.median(spawned)
        m["cli.op_tail_s"] = tail(spawned)[0]
        m["cli.process_overhead_s"] = statistics.median(
            s - i for s, i in zip(spawned, in_process))
        m["cli.artifact_bytes"] = e2e.ctx["artifact_bytes"]
    return m


def metadata(seed: int) -> dict:
    import mpmath
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "pycache_prefix": sys.pycache_prefix,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _load_program()
    from workloads import WORKLOADS
    scratch = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["meta"] = metadata(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
