"""The three workloads: their op lists, inputs drawn from the seed, and checks.

Every op has a timed ``run`` and an untimed ``check``.  ``check`` returns the
problems it found (an empty list when the output is right) and a digest of
the output; digests of the same op must agree across the passes of a run,
traced or not.  Each workload has a fixed part, checked against values
recorded in ``references.json``, and a seeded part, checked by invariants.

The program is always reached through module attributes
(``optimize.optimize_pattern_count``, ``cli.main``), never through names
bound here, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

from checks import certificate_problems, digest, floor_problem

from gamecert import certify, families, gamesim, optimize, patterns
from gamecert.core import DiagonalContraction
from gamecert.families import RcdSpec, RcoSpec

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())

Check = Callable[[object, dict], tuple[list[str], str]]


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]                   # timed
    check: Check                                    # untimed: (problems, digest)
    prepare: Callable[[dict], None] | None = None   # untimed, before run


def fresh_ctx() -> Counter:
    """Per-pass state: op outputs other ops read, and the counts checks keep."""
    ctx: Counter = Counter()
    ctx["dim_deficits"] = []
    ctx["floor_mismatch_examples"] = []
    ctx["certificates"] = {}
    ctx["outputs"] = {}
    return ctx


def _put(key: str, fn: Callable[[dict], object]) -> Callable[[dict], object]:
    """Run `fn` and keep its output for the ops after it."""
    def run(ctx):
        ctx["outputs"][key] = fn(ctx)
        return ctx["outputs"][key]
    return run


def _cert_checks(text: str, ctx: dict) -> list[str]:
    """Re-derivation plus the independent floor check of one certificate.

    A floor the independent check rejects is counted in ctx, not failed:
    that is the known defect in core.safe_floor_ratio, reported as a count.
    """
    fields = certify.Certificate.from_text(text).fields
    ctx["floor_checked"] += 1
    problem = floor_problem(fields)
    if problem is not None:
        ctx["floor_mismatch"] += 1
        ctx["floor_mismatch_examples"].append(problem)
    return certificate_problems(text)


# --------------------------------------------------------------- search-headline

U5, V5 = 900019043105, 999921083009

# name -> (members, want_patterns); want_patterns None marks a single family.
HEADLINE = {
    "RCO(12,15,1,5)": ((RcoSpec(12, 15, 1, 5),), None),
    "RCO(17,24,1,5)": ((RcoSpec(17, 24, 1, 5),), None),
    "RCO(271828,314159,2,1)": ((RcoSpec(271828, 314159, 2, 1),), None),
    "RCD(2^37,2^38)": ((RcdSpec(2**37, 2**38),), None),
    "RCD(U5,V5)": ((RcdSpec(U5, V5),), None),
    "RCD+5xRCO(m=4)": (
        (RcdSpec(U5, V5),) + tuple(RcoSpec(U5, V5, 4, k) for k in range(1, 6)), True),
    "2xRCD(2^37,2^36)+RCO(1,2)+RCO(1,6)": (
        (RcdSpec(2**37, 2**36), RcdSpec(2**37, 2**36),
         RcoSpec(2**37, 2**36, 1, 2), RcoSpec(2**37, 2**36, 1, 6)), False),
    "RCD(2^36,2^40)+RCO(1,1)": ((RcdSpec(2**36, 2**40), RcoSpec(2**36, 2**40, 1, 1)), False),
    "RCO(425,365,10,3)+RCO(1,2)": ((RcoSpec(425, 365, 10, 3), RcoSpec(425, 365, 1, 2)), False),
}


def _search(members, want_patterns):
    if want_patterns is None:
        return lambda ctx: optimize.optimize_pattern_count(members[0])
    return lambda ctx: optimize.optimize_intersection(list(members), want_patterns=want_patterns)


def _result_problems(res) -> list[str]:
    """Invariants every search result must satisfy."""
    if not res.feasible or res.certificate is None:
        return ["search found no feasible parameters"]
    fields = res.certificate.fields
    problems = []
    if fields.get("pattern_count") != res.pattern_count:
        problems.append("certificate pattern_count differs from the search result")
    if fields.get("dim_lower_bound") != res.dim_bound:
        problems.append("certificate dim_lower_bound differs from the search result")
    if not 0.0 < res.dim_bound <= 2.0:
        problems.append(f"dimension bound {res.dim_bound!r} outside (0, 2]")
    return problems


def _result_digest(res) -> str:
    text = res.certificate.to_text() if res.certificate is not None else ""
    return digest(repr((res.pattern_count, res.dim_bound, res.c, res.t, res.delta,
                        res.probes)) + text)


def _headline_check(name: str) -> Check:
    ref = REFERENCES["search"]["headline"][name]

    def check(res, ctx):
        problems = _result_problems(res)
        if res.pattern_count != ref["pattern_count"]:
            problems.append(f"pattern count {res.pattern_count} != {ref['pattern_count']}")
        if res.dim_bound < ref["dim_bound"]:
            problems.append(f"dimension bound {res.dim_bound!r} below {ref['dim_bound']!r}")
        if res.certificate is not None:
            problems += _cert_checks(res.certificate.to_text(), ctx)
            ctx["dim_deficits"].append(res.certificate.fields["n"] - res.dim_bound)
        return problems, _result_digest(res)
    return check


def _seeded_search_check(res, ctx):
    problems = _result_problems(res)
    if res.certificate is not None:
        problems += _cert_checks(res.certificate.to_text(), ctx)
    return problems, _result_digest(res)


def _smallest_u_check(answer, ctx):
    ref = REFERENCES["search"]["smallest_u"]
    problems = []
    if answer.result.pattern_count < ref["pattern_count"]:
        problems.append(f"u = {answer.u} certifies only {answer.result.pattern_count}")
    if answer.below.pattern_count >= ref["pattern_count"]:
        problems.append(f"u - 1 = {answer.u - 1} already certifies: bracket broken")
    if answer.u > ref["u_max"]:
        problems.append(f"u = {answer.u} above the recorded {ref['u_max']}")
    if answer.result.certificate is None:
        problems.append("no certificate for the answer")
    else:
        problems += _cert_checks(answer.result.certificate.to_text(), ctx)
    return problems, digest(repr((answer.u, answer.probes)) + _result_digest(answer.result))


class SearchHeadline:
    """Batch: optimizer searches in-process, one at a time."""

    name = "search-headline"
    spawns = False
    pass_budget_s = 10.0      # an untraced run makes round(seconds / this) passes

    def ops_for(self, mode: str, pass_dir: Path) -> list[Op]:
        return self.ops

    def __init__(self, seed: int, scratch: Path) -> None:
        # Ranges where every instance certifies and costs about the same, so
        # the seed moves the inputs but not the amount of work.
        rnd = random.Random(f"{self.name}|{seed}")
        extras = [
            RcoSpec(rnd.randint(24, 40), rnd.randint(24, 40), rnd.randint(1, 2), 5),
            RcoSpec(rnd.randint(24, 40), rnd.randint(24, 40), rnd.randint(1, 2), 5),
            RcdSpec(2**39 + rnd.randrange(2**33), 2**40 - rnd.randrange(2**33)),
        ]
        self.ops = [Op(name, _search(members, want), _headline_check(name))
                    for name, (members, want) in HEADLINE.items()]
        su = REFERENCES["search"]["smallest_u"]
        self.ops.append(Op(f"smallest-u({su['pattern_count']},{su['gap']})",
                           lambda ctx: optimize.smallest_u_for_patterns(
                               su["pattern_count"], su["gap"]),
                           _smallest_u_check))
        for spec in extras:
            self.ops.append(Op(f"seeded {spec}", _search((spec,), None), _seeded_search_check))

    def controls(self, ctx: dict) -> dict[str, list[str]]:
        """Corrupted outputs that the checks must flag."""
        res = optimize.optimize_pattern_count(RcoSpec(12, 15, 1, 5))
        cert = res.certificate
        corrupt = certify.Certificate(
            cert.kind, {**cert.fields, "delta": cert.fields["delta"] * (1 + 2**-40)}, cert.extras)
        scratch = fresh_ctx()
        return {
            "corrupted certificate": _cert_checks(corrupt.to_text(), scratch),
            "wrong pattern count": _headline_check("RCO(12,15,1,5)")(
                replace(res, pattern_count=res.pattern_count + 1), scratch)[0],
        }


# ---------------------------------------------------------------- geometry-exact

def _expect(name: str, got: dict) -> list[str]:
    ref = REFERENCES["geometry"][name]
    return [f"{name}.{key}: {got.get(key)!r} != {want!r}"
            for key, want in ref.items() if got.get(key) != want]


def _audit_facts(audit) -> dict:
    return {
        "test_boxes": [lvl.test_boxes for lvl in audit.levels],
        "strategy_boxes": [lvl.strategy_boxes for lvl in audit.levels],
        "worst_hits": [lvl.worst_hits for lvl in audit.levels],
        "all_legal": audit.all_legal,
    }


def _facts_check(name: str, facts: Callable[[object], dict]) -> Check:
    def check(result, ctx):
        got = facts(result)
        return _expect(name, got), digest(json.dumps(got, sort_keys=True))
    return check


def _transcript_problems(tr, moves: int) -> list[str]:
    """Game rules every transcript must obey, whatever the policy."""
    problems = []
    if len(tr.moves) != moves:
        problems.append(f"{len(tr.moves)} moves recorded, {moves} played")
    previous = None
    for mv in tr.moves:
        if previous is not None and not previous.contains_box(mv.box):
            problems.append(f"move {mv.move} box is not nested in the previous one")
        if not mv.skipped and mv.budget_spent_log > mv.budget_cap_log + gamesim.BUDGET_TOL:
            problems.append(f"move {mv.move} overspends its budget")
        if any(not mv.box.intersects(d.box) for d in mv.deletions):
            problems.append(f"move {mv.move} deletes a box that misses the play box")
        previous = mv.box
    return problems


class GeometryExact:
    """Batch: exact geometry in-process, one step at a time."""

    name = "geometry-exact"
    spawns = False
    pass_budget_s = 8.0       # three passes: this workload is the noisiest

    def ops_for(self, mode: str, pass_dir: Path) -> list[Op]:
        return self.ops

    def __init__(self, seed: int, scratch: Path) -> None:
        rnd = random.Random(f"{self.name}|{seed}")
        corner_seed = rnd.randrange(1 << 30)
        target = (Fraction(rnd.randint(-63, 63), 64), Fraction(rnd.randint(-63, 63), 64))
        rco = RcoSpec(4, 5, 2, 1)
        rcd = RcdSpec(7, 4)
        seeded = RcdSpec(7, 4, "hash", corner_seed)
        query = patterns.PatternQuery(((0, 0), (2, 0)), Fraction(1, 49), Fraction(3, 49), 2)
        def out(ctx, key):
            return ctx["outputs"][key]

        self.ops = [
            Op("generate_rco", _put("rco", lambda ctx: families.generate_rco(rco, 3)),
               _facts_check("generate_rco", lambda r: {"boxes": len(r.entries)})),
            Op("to_csv", lambda ctx: out(ctx, "rco").to_csv(),
               _facts_check("to_csv", lambda t: {"sha256": digest(t), "bytes": len(t)})),
            Op("covering_strategy_for_rco",
               _put("rco_strategy",
                    lambda ctx: families.covering_strategy_for_rco(out(ctx, "rco"), 0.5)),
               _facts_check("covering_strategy_for_rco",
                            lambda s: {"boxes": [len(lvl.boxes) for lvl in s.levels]})),
            Op("verify_covering_budget rco",
               lambda ctx: gamesim.verify_covering_budget(out(ctx, "rco_strategy"),
                                                          levels=[1, 2, 3]),
               _facts_check("verify_covering_budget rco", _audit_facts)),
            Op("to_pbm", lambda ctx: out(ctx, "rco").to_pbm(),
               _facts_check("to_pbm", lambda t: {"sha256": digest(t)})),
            Op("covering_strategy_for_rcd",
               _put("rcd_strategy",
                    lambda ctx: families.covering_strategy_for_rcd(rcd, 0.5, 1, 3)),
               _facts_check("covering_strategy_for_rcd",
                            lambda s: {"boxes": [len(lvl.boxes) for lvl in s.levels]})),
            Op("verify_covering_budget rcd",
               lambda ctx: gamesim.verify_covering_budget(out(ctx, "rcd_strategy"),
                                                          levels=[1, 2]),
               _facts_check("verify_covering_budget rcd", _audit_facts)),
            Op("play_game",
               lambda ctx: gamesim.play_game(
                   gamesim.steering_policy((Fraction(7, 8), Fraction(9, 10))),
                   out(ctx, "rcd_strategy"), 3),
               self._play_check),
            Op("generate_rcd", _put("rcd", lambda ctx: families.generate_rcd(rcd, 2)),
               _facts_check("generate_rcd", lambda r: {"boxes": len(r.entries)})),
            Op("find_homothety", lambda ctx: patterns.find_homothety(query, out(ctx, "rcd")),
               _facts_check("find_homothety", lambda c: {
                   "candidates": len(c), "sha256": digest(patterns.candidates_to_csv(c))})),
            Op(f"seeded covering_strategy_for_rcd corner_seed={corner_seed}",
               _put("seeded_strategy",
                    lambda ctx: families.covering_strategy_for_rcd(seeded, 0.5, 1, 2)),
               self._seeded_strategy_check),
            Op("seeded verify_covering_budget",
               lambda ctx: gamesim.verify_covering_budget(out(ctx, "seeded_strategy"),
                                                          levels=[1]),
               self._seeded_audit_check),
            Op(f"seeded play_game target={target[0]},{target[1]}",
               lambda ctx: gamesim.play_game(
                   gamesim.steering_policy(target), out(ctx, "seeded_strategy"), 2),
               self._seeded_play_check),
        ]

    @staticmethod
    def _play_check(tr, ctx):
        text = tr.to_text()
        problems = _transcript_problems(tr, 3) + _expect(
            "play_game", {"sha256": digest(text), "deletions": len(tr.all_deletions())})
        return problems, digest(text)

    @staticmethod
    def _seeded_strategy_check(strategy, ctx):
        # The corner rule moves boxes, never their number: the count per level
        # is the cover count times the number of pieces.
        boxes = [len(lvl.boxes) for lvl in strategy.levels]
        want = REFERENCES["geometry"]["covering_strategy_for_rcd"]["boxes"][:2]
        problems = [] if boxes == want else [f"seeded strategy boxes {boxes} != {want}"]
        return problems, digest(repr([(lvl.level, lvl.boxes) for lvl in strategy.levels]))

    @staticmethod
    def _seeded_audit_check(audit, ctx):
        problems = [] if audit.all_legal else ["seeded strategy overspends its budget"]
        return problems, digest(json.dumps(_audit_facts(audit), sort_keys=True))

    @staticmethod
    def _seeded_play_check(tr, ctx):
        return _transcript_problems(tr, 2), digest(tr.to_text())

    def controls(self, ctx: dict) -> dict[str, list[str]]:
        """Corrupted outputs of the last pass that the checks must flag."""
        outputs = ctx["outputs"]
        pbm = outputs["rco"].to_pbm()
        flipped = pbm[:-2] + ("1" if pbm[-2] == "0" else "0") + pbm[-1]
        rect = outputs["rcd"]
        short = families.RectangleSet(rect.entries[:-1], dict(rect.meta))
        ops = {op.name: op for op in self.ops}
        scratch = fresh_ctx()
        return {
            "corrupted digest": ops["to_pbm"].check(flipped, scratch)[0],
            "wrong box count": ops["generate_rcd"].check(short, scratch)[0],
        }


# ------------------------------------------------------------------ cli-roundtrip

MAXIMIZE = {
    "RCO(12,15,1,5)": (12, 15, 1, 5),
    "RCO(17,24,1,5)": (17, 24, 1, 5),
    "RCO(271828,314159,2,1)": (271828, 314159, 2, 1),
}
INTERSECT = "RCO(425,365,10,3)+RCO(1,2)"
FIXED_CONFIGS = {
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
                    "generate.depth = 2\npattern.points = 0,0; 2,0\npattern.lambda_lo = 1/49\n"
                    "pattern.lambda_hi = 3/49\n",
}
# The CLI cannot re-validate intersection certificates on the recorded commit:
# they echo member.* keys, which its re-validation does not read.
KNOWN_REVALIDATE_GAP = "neither a family echo nor a betas list"
RAW_DRAWS = 12


@dataclass
class Invocation:
    name: str
    config: str                       # re-validations build theirs from `reads`
    check: Callable[["Invocation", int, str, Path, dict], list[str]]
    reads: str | None = None          # invocation whose certificate.txt is re-validated
    inputs: dict = field(default_factory=dict)


def _artifacts(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _search_fields(out: Path) -> dict[str, str]:
    text = (out / "search.txt").read_text()
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _search_invocation_check(ref: dict) -> Callable:
    def check(inv, code, stdout, out, ctx):
        if code != 0:
            return [f"exit {code}, expected 0"]
        fields = _search_fields(out)
        problems = []
        if "pattern_count" in ref and int(fields["pattern_count"]) != ref["pattern_count"]:
            problems.append(f"pattern count {fields['pattern_count']} != {ref['pattern_count']}")
        if float(fields["dim_bound"]) < ref["dim_bound"]:
            problems.append(f"dimension bound {fields['dim_bound']} below {ref['dim_bound']!r}")
        return problems + _cert_checks((out / "certificate.txt").read_text(), ctx)
    return check


def _revalidate_check(inv, code, stdout, out, ctx):
    cert = certify.Certificate.from_text(ctx["certificates"][inv.reads])
    if cert.kind == "intersection" and code == 2 and KNOWN_REVALIDATE_GAP in stdout:
        ctx["known_revalidate_gap"] += 1
        return []
    want = 0 if cert.fields.get("feasible") else 2
    return [] if code == want else [f"re-validation exit {code}, expected {want}: {stdout.strip()}"]


def _fixed_check(inv, code, stdout, out, ctx):
    ref = REFERENCES["cli"]["fixed"][inv.name]
    got = {"exit": code, "sha256": {n: digest(b) for n, b in _artifacts(out).items()}}
    return [f"{inv.name}.{k}: {got[k]!r} != {ref[k]!r}" for k in ref if got[k] != ref[k]]


def _raw_check(inv, code, stdout, out, ctx):
    path = out / "certificate.txt"
    if not path.is_file():
        return [f"exit {code} and no certificate written: {stdout.strip()}"]
    text = path.read_text()
    fields = certify.Certificate.from_text(text).fields
    want = 0 if fields.get("feasible") else 2
    problems = [] if code == want else [f"exit {code}, certificate says feasible = "
                                        f"{fields.get('feasible')}"]
    for key, value in inv.inputs.items():
        if fields.get(key) != value:
            problems.append(f"certificate {key} = {fields.get(key)!r}, input was {value!r}")
    return problems + _cert_checks(text, ctx)


def _raw_invocation(rnd: random.Random, index: int) -> Invocation:
    """Explicit parameters across the documented domain, free-step ratios
    delta / combined-rate from 1 up to 2^53."""
    if rnd.random() < 0.5:
        dens = [round(2 ** rnd.uniform(math.log2(6), 40)) for _ in range(2)]
        betas_text = ",".join(f"1/{u}" for u in dens)
        betas = [1.0 / u for u in dens]
    else:
        betas = [rnd.uniform(0.001, 0.199) for _ in range(2)]
        betas_text = ",".join(repr(b) for b in betas)
    kind = rnd.choice(("dimension", "pattern", "distance"))
    count = {"dimension": 1, "pattern": rnd.randint(2, 300), "distance": 2}[kind]
    c = rnd.uniform(0.05, 0.999)
    delta = certify.default_delta(DiagonalContraction(tuple(betas))) * rnd.uniform(0.05, 2.2)
    log2_ratio = rnd.uniform(0.0, 53.0)
    alpha_log = math.log(delta) - log2_ratio * math.log(2.0) - math.log(count) / c
    config = (f"command = certify\ncertify.kind = {kind}\nfamily.kind = raw\n"
              f"family.betas = {betas_text}\nfamily.alpha_log = {alpha_log!r}\n"
              f"game.c = {c!r}\ngame.delta = {delta!r}\n")
    if kind == "pattern":
        config += f"game.pattern_count = {count}\n"
    inputs = {"c": c, "delta": delta, "alpha_log": alpha_log, "pattern_count": count}
    return Invocation(f"certify raw {index}", config, _raw_check, inputs=inputs)


class CliRoundtrip:
    """Closed loop, one client: one ``python -m gamecert`` process at a time."""

    name = "cli-roundtrip"
    spawns = True
    pass_budget_s = 11.0

    def __init__(self, seed: int, scratch: Path) -> None:
        from gamecert import cli              # for the in-process replay
        self.cli = cli
        self.scratch = scratch
        rnd = random.Random(f"{self.name}|{seed}")
        invs: list[Invocation] = []
        for name, (u, v, m, t) in MAXIMIZE.items():
            invs.append(Invocation(
                f"maximize {name}",
                f"command = maximize\nfamily.kind = rco\nfamily.u = {u}\nfamily.v = {v}\n"
                f"family.m = {m}\nfamily.t = {t}\n",
                _search_invocation_check(REFERENCES["search"]["headline"][name])))
            invs.append(Invocation(f"revalidate {name}", "", _revalidate_check,
                                   reads=invs[-1].name))
        invs.append(Invocation(
            f"intersect {INTERSECT}",
            "command = intersect\n" + "".join(
                f"member.{i}.kind = rco\nmember.{i}.u = 425\nmember.{i}.v = 365\n"
                f"member.{i}.m = {m}\nmember.{i}.t = {t}\n"
                for i, (m, t) in enumerate(((10, 3), (1, 2)), start=1)),
            _search_invocation_check(REFERENCES["search"]["headline"][INTERSECT])))
        invs.append(Invocation(f"revalidate {INTERSECT}", "", _revalidate_check,
                               reads=invs[-1].name))
        for name, config in FIXED_CONFIGS.items():
            invs.append(Invocation(name, config, _fixed_check))
        for i in range(RAW_DRAWS):
            invs.append(_raw_invocation(rnd, i))
            invs.append(Invocation(f"revalidate raw {i}", "", _revalidate_check,
                                   reads=invs[-1].name))
        self.invocations = invs

    def ops_for(self, mode: str, pass_dir: Path) -> list[Op]:
        """mode "spawn": one subprocess per invocation; "main": cli.main in-process."""
        return [self._op(inv, i, mode, pass_dir) for i, inv in enumerate(self.invocations)]

    def _op(self, inv: Invocation, index: int, mode: str, pass_dir: Path) -> Op:
        out = pass_dir / f"{index:02d}"
        cfg = pass_dir / f"{index:02d}.cfg"

        def run(ctx):
            if mode == "spawn":
                proc = subprocess.run(
                    [sys.executable, "-m", "gamecert", "--config", str(cfg), "--out", str(out)],
                    capture_output=True, text=True, cwd=pass_dir)
                return proc.returncode, proc.stdout + proc.stderr, out
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.cli.main(["--config", str(cfg), "--out", str(out)])
            return code, buf.getvalue(), out

        def prepare(ctx):
            config = inv.config
            if inv.reads is not None:
                cert = ctx["outputs"][inv.reads] / "certificate.txt"
                config = f"command = certify\ncertify.certificate = {cert}\n"
            cfg.write_text(config)
            ctx["outputs"][inv.name] = out

        def check(result, ctx):
            code, stdout, out = result
            arts = _artifacts(out)
            ctx["artifact_bytes"] += sum(len(b) for b in arts.values())
            if "certificate.txt" in arts:
                ctx["certificates"][inv.name] = arts["certificate.txt"].decode()
            try:
                problems = inv.check(inv, code, stdout, out, ctx)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            return problems, digest(repr(code) + repr(sorted(
                (n, digest(b)) for n, b in arts.items())))

        return Op(inv.name, run, check, prepare)

    def controls(self, ctx: dict) -> dict[str, list[str]]:
        inv = self.invocations[0]
        scratch = fresh_ctx()
        out = self.scratch / "control"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        res = optimize.optimize_pattern_count(RcoSpec(*MAXIMIZE["RCO(12,15,1,5)"]))
        text = res.certificate.to_text()
        (out / "search.txt").write_text(
            f"pattern_count = {res.pattern_count}\ndim_bound = {res.dim_bound!r}\n")
        (out / "certificate.txt").write_text(text.replace("feasible = true", "feasible = false"))
        return {
            "corrupted certificate": inv.check(inv, 0, "", out, scratch),
            "wrong exit code": inv.check(inv, 2, "", out, scratch),
        }


WORKLOADS = {w.name: w for w in (SearchHeadline, GeometryExact, CliRoundtrip)}
