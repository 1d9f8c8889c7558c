#!/usr/bin/env python3
"""List the functions of the package that no caller's traffic runs.

    python3 scripts/traffic.py

Runs, in this one process and under sys.settrace, what callers of the
package run: the --small outputs of scripts/search_dump.py,
scripts/geometry_dump.py and scripts/certify_dump.py, scripts/play_demo_game.py,
and one CLI config per command and per `verify` check (CONFIGS), each
certificate a config writes re-validated by a `certify` run that reads it.
Each run's exit code must be the one CONFIGS states.  Then prints, as
module:qualname, each function or method defined in src/gamecert whose
body none of them entered, with the reason KEPT gives for keeping it;
operators count like any other method.  Exits 1, naming each, when a
printed function has no KEPT entry, or a KEPT entry names a function that
the traffic now enters or that is gone.  Their outputs go to a temporary
directory.  Takes a few seconds; not part of Tier-1.
"""
from __future__ import annotations

import contextlib
import io
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gamecert"
sys.path.insert(0, str(ROOT / "src"))

# name: (config, exit code); every command, and every verify check
CONFIGS = {
    "certify dimension raw": ("command = certify\nfamily.kind = raw\nfamily.betas = 1/10,1/12\n"
                              "family.alpha = 1e-12\ngame.c = 0.9\n", 0),
    "certify pattern rco": ("command = certify\ncertify.kind = pattern\nfamily.kind = rco\n"
                            "family.u = 17\nfamily.v = 24\nfamily.m = 1\nfamily.t = 5\n"
                            "game.c = 0.99\ngame.pattern_count = 3\n", 0),
    "certify distance raw": ("command = certify\ncertify.kind = distance\nfamily.kind = raw\n"
                             "family.betas = 1/10,1/12\nfamily.alpha_log = -60\ngame.c = 0.9\n", 0),
    "certify distance rcd": ("command = certify\ncertify.kind = distance\nfamily.kind = rcd\n"
                             "family.u = 137438953472\nfamily.v = 274877906944\n"
                             "game.c = 0.9\ngame.t = 1\n", 2),
    "maximize": ("command = maximize\nfamily.kind = rco\nfamily.u = 17\nfamily.v = 24\n"
                 "family.m = 1\nfamily.t = 5\n", 0),
    "maximize dimension": ("command = maximize\nfamily.kind = rco\nfamily.u = 17\n"
                           "family.v = 24\nfamily.m = 1\nfamily.t = 5\n"
                           "maximize.objective = dimension\n", 0),
    "intersect": ("command = intersect\nmember.1.kind = rcd\nmember.1.u = 68719476736\n"
                  "member.1.v = 1099511627776\nmember.2.kind = rco\nmember.2.u = 68719476736\n"
                  "member.2.v = 1099511627776\nmember.2.m = 1\nmember.2.t = 1\n", 0),
    "generate": ("command = generate\nfamily.kind = rco\nfamily.u = 4\nfamily.v = 5\n"
                 "family.m = 2\nfamily.t = 1\ngenerate.depth = 2\ngenerate.format = csv,pbm\n"
                 "generate.placement = hash\ngenerate.seed = 3\n", 0),
    "simulate": ("command = simulate\nfamily.kind = rco\nfamily.u = 4\nfamily.v = 5\n"
                 "family.m = 2\nfamily.t = 1\ngame.c = 0.5\nsimulate.moves = 3\n"
                 "simulate.target = 7/8, 9/10\n", 0),
    "verify projection": ("command = verify\nverify.check = projection\nverify.u = 10\n"
                          "verify.block = 3\nverify.radius = 50\n", 0),
    "verify projection corrupt": ("command = verify\nverify.check = projection\nverify.u = 10\n"
                                  "verify.block = 3\nverify.radius = 50\nverify.corrupt = true\n", 2),
    "verify half-shrink": ("command = verify\nverify.check = half-shrink\nverify.u = 10,12\n"
                           "verify.level = 2\nverify.block = 2\nverify.radius = 20\n", 0),
    "verify budget": ("command = verify\nverify.check = budget\nfamily.kind = rcd\nfamily.u = 7\n"
                      "family.v = 4\ngame.c = 0.5\ngame.t = 1\ngenerate.depth = 2\n", 0),
    "verify child-grid": ("command = verify\nverify.check = child-grid\nverify.u = 10,12\n"
                          "verify.block = 2\nverify.parent = 1,-2\n", 0),
    "verify overlap": ("command = verify\nverify.check = overlap\nverify.u = 10,12\n"
                       "verify.level = 3\nverify.exponent = 2\nverify.center = 1/3, -2/7\n", 0),
    "verify transfer": ("command = verify\nverify.check = transfer\nverify.samples = 2000\n"
                        "verify.seed = 7\n", 0),
    "find-pattern": ("command = find-pattern\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\n"
                     "generate.depth = 2\npattern.points = 0,0; 2,0\npattern.lambda_lo = 1/49\n"
                     "pattern.lambda_hi = 3/49\n", 0),
    "find-pattern shallow": ("command = find-pattern\nfamily.kind = rcd\nfamily.u = 7\n"
                             "family.v = 4\ngenerate.depth = 2\npattern.points = 0,0; 2,0\n"
                             "pattern.lambda_lo = 1/49\npattern.lambda_hi = 3/49\n"
                             "pattern.depth = 1\n", 0),
    "smallest-u": ("command = smallest-u\nsmallest.pattern_count = 2\nsmallest.gap = 0\n", 0),
}

# Each function the traffic may leave unentered, and why it stays: it
# checks input, gives a value its semantics (==, hash, frozen fields), is a
# test reference that README names, or perfbench runs it.
KEPT = {
    "cli:ConfigError.__init__": "input validation: a config key at fault",
    "core:SizeError.__init__": "input validation: an input over a size limit",
    "core:LogScalar.__eq__": "value semantics",
    "core:LogScalar.__hash__": "value semantics",
    "core:Record._astuple": "value semantics: Record's == and hash read it",
    "core:Record.__eq__": "value semantics",
    "core:Record.__hash__": "value semantics",
    "core:Record.__reduce__": "value semantics: pickling",
    "core:Record.__setattr__": "value semantics: a record is frozen",
    "core:Record.__delattr__": "value semantics: a record is frozen",
    "core:dominates": "README-named test reference",
    "families:_derived_lattice": "perfbench control: RectangleSet(entries, meta) derives it",
    "core:_LazyRows.__eq__": "value semantics",
    "families:RectangleSet.__init__": "perfbench control: geometry-exact's short member",
    "gamesim:round_half_down": "README-named test reference: project_chain's step",
    "gamesim:project_index": "README-named test reference: project_chain's step",
    "gamesim:project_chain": "README-named test reference",
    "gamesim:PlayTranscript.all_deletions": "perfbench: geometry-exact's play_game check",
    "optimize:max_pattern_size": "README-named test reference",
}


def _functions() -> dict[tuple[str, int, str], str]:
    """module:qualname of every function and method in the package, keyed
    as a running frame's code names it: (file, first line, name)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for code in stack.pop().co_consts:
                if isinstance(code, types.CodeType):
                    stack.append(code)
                    if not code.co_name.startswith("<"):  # a lambda or comprehension
                        key = (code.co_filename, code.co_firstlineno, code.co_name)
                        found[key] = f"{path.stem}:{code.co_qualname}"
    return found


def _script(name: str, *args: str) -> None:
    """Run scripts/<name> as __main__ with `args`, its stdout discarded."""
    argv = sys.argv
    sys.argv = [str(ROOT / "scripts" / name), *args]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"{name} exited {exc.code}") from None
    finally:
        sys.argv = argv


def _cli(out: Path, config: str) -> int:
    """cli.main on `config`, writing to `out`, its stdout discarded."""
    from gamecert import cli

    out.mkdir(parents=True)
    (out / "run.cfg").write_text(config)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--config", str(out / "run.cfg"), "--out", str(out)])


def _traffic(tmp: Path) -> None:
    for name in ("search_dump.py", "geometry_dump.py", "certify_dump.py"):
        _script(name, str(tmp / name), "--small")
    _script("play_demo_game.py")
    for name, (config, want) in CONFIGS.items():
        out = tmp / name.replace(" ", "-")
        code = _cli(out, config)
        if code == want and (out / "certificate.txt").exists():
            # re-validation exits as the run that wrote the certificate did
            again = f"command = certify\ncertify.certificate = {out / 'certificate.txt'}\n"
            name, code = f"{name} re-validation", _cli(out / "again", again)
        if code != want:
            raise RuntimeError(f"{name} exited {code}, not {want}")


def main() -> int:
    functions = _functions()
    entered = set()

    def trace(frame: types.FrameType, event: str, arg: object) -> None:
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace)
        try:
            _traffic(Path(tmp))
        finally:
            sys.settrace(None)
    unentered = [functions[key] for key in sorted(functions.keys() - entered)]
    for name in unentered:
        print(f"{name}  # {KEPT.get(name, 'no KEPT entry')}")
    defined = set(functions.values())
    problems = [f"{name}: entered by no caller and not in KEPT"
                for name in unentered if name not in KEPT]
    problems += [f"{name}: in KEPT but {'entered' if name in defined else 'gone'}"
                 for name in KEPT.keys() - set(unentered)]
    for problem in sorted(problems):
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
