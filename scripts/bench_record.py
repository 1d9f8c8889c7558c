#!/usr/bin/env python3
"""Summarize perfbench runs into one committed benchmark record.

    python3 scripts/bench_record.py --label baseline
    python3 scripts/bench_record.py --label after --records <checkout>/.bench_build/records

Reads every run record, ``<workload>-seed<n>-trace<0|1>.json``, that
``perfbench/run.py`` left in the records directory, and writes
``BENCH_<label>.json`` at the root of this checkout.  For each workload and
each end-to-end metric named in BENCHMARK.json it holds the median and the
quartiles over the untraced seeds, and every seed's value.  Where traced
records (``--trace 1``) are present, the workload also gets a ``per_layer``
entry: the median over the traced seeds of each per-layer metric.  The
machine and program metadata (commit, Python, numpy, nproc) come from the
records, which must all name the same commit.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _load(records_dir: Path, trace: int) -> dict[str, dict[int, dict]]:
    suffix = f"-trace{trace}.json"
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(records_dir.glob(f"*{suffix}")):
        workload, _, seed = path.name[: -len(suffix)].rpartition("-seed")
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    return runs


def _outcome(seeds: dict[int, dict]) -> dict:
    order = sorted(seeds)
    return {
        "seeds": order,
        "correct": all(seeds[s]["correct"] for s in order),
        "attempted": sum(seeds[s]["attempted"] for s in order),
        "failed": sum(seeds[s]["failed"] for s in order),
    }


def build(records_dir: Path, label: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, traced = _load(records_dir, 0), _load(records_dir, 1)
    if not runs:
        raise SystemExit(f"no untraced run records in {records_dir}")
    metas = [rec["meta"] for group in (runs, traced)
             for seeds in group.values() for rec in seeds.values()]
    commits = sorted({meta["commit"] for meta in metas})
    if len(commits) != 1:
        raise SystemExit(f"records from more than one commit: {commits}")
    workloads: dict[str, dict] = {}
    for workload, seeds in sorted(runs.items()):
        workloads[workload] = {
            **_outcome(seeds),
            "metrics": {
                m["name"]: summarize([seeds[s]["metrics"][m["name"]] for s in sorted(seeds)])
                for m in spec["end_to_end"]
            },
        }
    for workload, seeds in sorted(traced.items()):
        workloads.setdefault(workload, {})["per_layer"] = {
            **_outcome(seeds),
            "metrics": {
                m["name"]: statistics.median(seeds[s]["metrics"][m["name"]] for s in seeds)
                for m in spec["per_layer"]
            },
        }
    first = metas[0]
    return {
        "label": label,
        "commit": commits[0],
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": first["nproc"],
        "workloads": workloads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--records", type=Path, default=ROOT / ".bench_build" / "records",
                    help="records directory (default: this checkout's)")
    args = ap.parse_args()
    record = build(args.records, args.label)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload, body in record["workloads"].items():
        if "metrics" in body:
            cells = "  ".join(f"{name} {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
                              for name, m in body["metrics"].items())
            print(f"{workload:<16} n={len(body['seeds'])}  {cells}")
        if "per_layer" in body:
            print(f"{workload:<16} traced n={len(body['per_layer']['seeds'])}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
