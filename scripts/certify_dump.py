#!/usr/bin/env python3
"""Write the raw certify runs of the cli-roundtrip workload, for byte comparison.

    python3 scripts/certify_dump.py <outdir> [--small]

For each seed, the raw `certify` draws of perfbench's cli-roundtrip
workload (`perfbench.workloads.CliRoundtrip(seed, ...)`, 12 a seed) are
taken as the benchmark makes them, so they are its own draws.  Each draw
runs through `cli.main` in-process, and then the re-validation of the
certificate it wrote.  One file per seed holds, for each draw, its config,
both exit codes and both stdouts, and the certificate.  Seeds 0-399 are
written (4,800 certificates); --small writes seeds 0-9.  Run it in two
checkouts and compare with `diff -r`; an empty diff means every raw
certificate, verdict and exit code is unchanged.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gamecert import cli  # noqa: E402
from workloads import CliRoundtrip  # noqa: E402


def _run(config: str, work: Path, name: str) -> tuple[int, str]:
    """Exit code and stdout of one `cli.main` run of `config`, with the work
    directory's path written as <work>."""
    cfg = work / f"{name}.cfg"
    cfg.write_text(config)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(["--config", str(cfg), "--out", str(work / name)])
    return code, buf.getvalue().replace(str(work), "<work>")


def _seed_text(seed: int, work: Path) -> str:
    draws = [inv for inv in CliRoundtrip(seed, work).invocations
             if inv.name.startswith("certify raw")]
    parts = []
    for i, inv in enumerate(draws):
        code, out = _run(inv.config, work, f"draw{i}")
        cert = work / f"draw{i}" / "certificate.txt"
        text = cert.read_text() if cert.is_file() else "(none)\n"
        recode, reout = _run(f"command = certify\ncertify.certificate = {cert}\n",
                             work, f"recheck{i}")
        parts.append(f"## {inv.name}\n{inv.config}-- exit {code}\n{out}-- certificate\n{text}"
                     f"-- re-validation exit {recode}\n{reout}")
    return "".join(parts)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--small", action="store_true", help="seeds 0-9 only")
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    seeds = range(10 if args.small else 400)
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            text = _seed_text(seed, Path(tmp))
        (args.outdir / f"seed-{seed:03d}.txt").write_text(text)
    print(f"wrote {len(seeds)} files to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
