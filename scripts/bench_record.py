#!/usr/bin/env python3
"""Summarize perfbench runs into one committed benchmark record.

    python3 scripts/bench_record.py --label baseline
    python3 scripts/bench_record.py --label after --records <checkout>/.bench_build/records

Reads every untraced run record, ``<workload>-seed<n>-trace0.json``, that
``perfbench/run.py`` left in the records directory, and writes
``BENCH_<label>.json`` at the root of this checkout.  For each workload and
each end-to-end metric named in BENCHMARK.json it holds the median and the
quartiles over the seeds, and every seed's value.  The machine and program
metadata (commit, Python, numpy, nproc) come from the records, which must
all name the same commit.
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


def build(records_dir: Path, label: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(records_dir.glob("*-trace0.json")):
        workload, _, seed = path.name[: -len("-trace0.json")].rpartition("-seed")
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    if not runs:
        raise SystemExit(f"no untraced run records in {records_dir}")
    metas = [rec["meta"] for seeds in runs.values() for rec in seeds.values()]
    commits = sorted({meta["commit"] for meta in metas})
    if len(commits) != 1:
        raise SystemExit(f"records from more than one commit: {commits}")
    workloads = {}
    for workload, seeds in sorted(runs.items()):
        order = sorted(seeds)
        workloads[workload] = {
            "seeds": order,
            "correct": all(seeds[s]["correct"] for s in order),
            "attempted": sum(seeds[s]["attempted"] for s in order),
            "failed": sum(seeds[s]["failed"] for s in order),
            "metrics": {
                name: summarize([seeds[s]["metrics"][name] for s in order])
                for name in metrics
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
        cells = "  ".join(f"{name} {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
                          for name, m in body["metrics"].items())
        print(f"{workload:<16} n={len(body['seeds'])}  {cells}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
