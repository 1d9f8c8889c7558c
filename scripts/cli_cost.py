#!/usr/bin/env python3
"""Time spawn-to-exit, and take the peak RSS, of one gamecert process of
each command kind.

    python3 scripts/cli_cost.py [-n N] [--root CHECKOUT ...]

Each round starts one process of every kind below, in turn, and, for each
kind, one per checkout given with --root (default: this one), in an order
that reverses every round, so kinds and checkouts alternate and host drift
spreads evenly over them.  After N
rounds it prints, per kind and checkout, the median and quartiles of the
wall time from spawn to exit, in ms, the median peak RSS, in MB, and the
gamecert modules that kind loaded (read from one extra, untimed
`python -X importtime` run).

A child's peak RSS (its maxrss) counts the resident size of the process
that spawned it, at the spawn.  So each timed process is spawned by a small
launcher child, which times it and reads its peak from os.wait4; taken in
this script's own process, the peak would be at least this script's size.

The kinds are those of perfbench's cli-roundtrip workload, plus a bare
`python -c pass`: a raw `certify`, a family `certify`, the re-validation of
a raw and of a `maximize` certificate, `maximize`, `intersect`, `generate`,
`simulate`, `verify` projection and transfer, and `find-pattern`.

Processes run with the benchmark's worker settings: PYTHONDONTWRITEBYTECODE
unset, bytecode cached under <checkout>/.bench_build/pycache, and
PYTHONHASHSEED=0.  Without a bytecode cache every run compiles each module
it imports, which costs more than most of the imports themselves.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RAW = ("command = certify\nfamily.kind = raw\nfamily.betas = 1/10,1/12\n"
       "family.alpha = 1e-12\ngame.c = 0.9\n")
MAXIMIZE = ("command = maximize\nfamily.kind = rco\nfamily.u = 17\nfamily.v = 24\n"
            "family.m = 1\nfamily.t = 5\n")
# raw certify, maximize and intersect as cli-roundtrip draws them, and its
# five fixed configs
KINDS = {
    "python -c pass": None,
    "certify raw": RAW,
    "certify rco": ("command = certify\ncertify.kind = pattern\nfamily.kind = rco\n"
                    "family.u = 17\nfamily.v = 24\nfamily.m = 1\nfamily.t = 5\n"
                    "game.c = 0.99\ngame.pattern_count = 3\n"),
    "revalidate raw": "command = certify\ncertify.certificate = {raw}\n",
    "revalidate maximize": "command = certify\ncertify.certificate = {maximize}\n",
    "maximize": MAXIMIZE,
    "intersect": ("command = intersect\n"
                  "member.1.kind = rco\nmember.1.u = 425\nmember.1.v = 365\n"
                  "member.1.m = 10\nmember.1.t = 3\n"
                  "member.2.kind = rco\nmember.2.u = 425\nmember.2.v = 365\n"
                  "member.2.m = 1\nmember.2.t = 2\n"),
    "generate": "command = generate\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\n"
                "generate.depth = 2\n",
    "simulate": "command = simulate\nfamily.kind = rco\nfamily.u = 4\nfamily.v = 5\n"
                "family.m = 2\nfamily.t = 1\ngame.c = 0.5\nsimulate.moves = 3\n"
                "simulate.target = 7/8, 9/10\n",
    "verify projection": "command = verify\nverify.check = projection\nverify.u = 10\n"
                         "verify.block = 3\nverify.radius = 50\n",
    "verify transfer": "command = verify\nverify.check = transfer\nverify.samples = 2000\n"
                       "verify.seed = 7\n",
    "find-pattern": "command = find-pattern\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\n"
                    "generate.depth = 2\npattern.points = 0,0; 2,0\n"
                    "pattern.lambda_lo = 1/49\npattern.lambda_hi = 3/49\n",
}


# Runs argv[1:], its stdout discarded, and prints its exit code, the seconds
# from spawn to exit and its peak RSS in KiB.
LAUNCHER = """\
import os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(name, None)
    env.update(PYTHONPATH=str(root / "src"),
               PYTHONPYCACHEPREFIX=str(root / ".bench_build" / "pycache"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


class Checkout:
    """The argument lists of every kind for one checkout, with their configs
    and output directories under `work`."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root, self.env = root, worker_env(root)
        work.mkdir(parents=True)
        self.args: dict[str, list[str]] = {}
        for i, (kind, config) in enumerate(KINDS.items()):
            if config is None:
                self.args[kind] = ["-c", "pass"]
                continue
            cfg = work / f"{i:02d}.cfg"
            cfg.write_text(config.format(raw=work / "raw" / "certificate.txt",
                                         maximize=work / "maximize" / "certificate.txt"))
            self.args[kind] = ["-m", "gamecert", "--config", str(cfg),
                               "--out", str(work / kind.replace(" ", "-"))]
        # the certificates the re-validations read
        for name, config in (("raw", RAW), ("maximize", MAXIMIZE)):
            (work / f"{name}.cfg").write_text(config)
            self.run(["-m", "gamecert", "--config", str(work / f"{name}.cfg"),
                      "--out", str(work / name)])

    def run(self, args: list[str], *flags: str) -> subprocess.CompletedProcess:
        proc = subprocess.run([sys.executable, *flags, *args], capture_output=True,
                              text=True, env=self.env, cwd=self.root)
        if proc.returncode not in (0, 2):
            raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
        return proc

    def measure(self, kind: str) -> tuple[float, float]:
        """Spawn-to-exit time (ms) and peak RSS (MB) of one run of `kind`,
        spawned by the launcher."""
        proc = self.run(["-c", LAUNCHER, sys.executable, *self.args[kind]])
        code, seconds, maxrss = proc.stdout.split()
        if code not in ("0", "2"):
            raise SystemExit(f"{kind} exited {code}:\n{proc.stderr}")
        return 1e3 * float(seconds), int(maxrss) / 1024

    def modules(self, kind: str) -> list[str]:
        """The gamecert modules a run of `kind` imports, in import order."""
        stderr = self.run(self.args[kind], "-X", "importtime").stderr
        names = (line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
                 if line.startswith("import time:"))
        return [n for n in names if n == "gamecert" or n.startswith("gamecert.")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=21, help="processes per kind and checkout")
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to time (repeat to alternate between several)")
    args = parser.parse_args()
    roots = [r.resolve() for r in args.root or [ROOT]]
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = [Checkout(r, Path(tmp) / str(i)) for i, r in enumerate(roots)]
        for co in checkouts:  # fill the bytecode caches
            for kind in KINDS:
                co.run(co.args[kind])
        times: dict[tuple[str, int], list[float]] = {}
        peaks: dict[tuple[str, int], list[float]] = {}
        order = list(enumerate(checkouts))
        for r in range(args.n):
            for kind in KINDS:
                for i, co in order if r % 2 == 0 else order[::-1]:
                    ms, mb = co.measure(kind)
                    times.setdefault((kind, i), []).append(ms)
                    peaks.setdefault((kind, i), []).append(mb)
        for kind in KINDS:
            print(kind)
            for i, co in enumerate(checkouts):
                q1, med, q3 = statistics.quantiles(times[kind, i], n=4, method="inclusive")
                peak = statistics.median(peaks[kind, i])
                loaded = " ".join(m.removeprefix("gamecert.") for m in co.modules(kind)
                                  if m != "gamecert")
                print(f"  {str(co.root):<40} median {med:7.1f} ms  quartiles {q1:7.1f} "
                      f"{q3:7.1f}  peak {peak:5.1f} MB  loads: {loaded or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
