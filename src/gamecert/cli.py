"""Command-line front end with reproducible file output.

Every run is driven by a flat ``key = value`` config file (dotted section
prefixes, ``#`` comments).  The same config always produces byte-identical
artifacts: floats are printed with 17 significant digits, key order is fixed,
and nothing timestamped ever enters an output file.

Exit status: 0 = certified / found / all checks passed, 2 = clean run whose
answer is "no" (infeasible parameters, empty candidate list, a verifier
counterexample, parameters outside the certified regime), 1 = bad usage or a
malformed config (reported with the offending field path).
"""
from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .certify import (
    Certificate,
    _fmt,
    check_ratio_range,
    default_delta,
    dimension_certificate,
    distance_set_certificate,
    intersect_certificate,
    pattern_certificate,
)
from .core import DiagonalContraction, LogScalar, SizeError

if TYPE_CHECKING:  # the commands import families and optimize where they use them
    from .families import RcdSpec, RcoSpec
    from .optimize import SearchConfig, SearchResult

COMMANDS = (
    "certify",
    "maximize",
    "intersect",
    "generate",
    "simulate",
    "verify",
    "find-pattern",
    "smallest-u",
)
_REQUIRED = object()
# Fraction expands a decimal exponent into an exact power of ten, so
# "1e1000000000" would take hours; no config value needs more digits
MAX_EXPONENT_DIGITS = 4


class ConfigError(Exception):
    """Config problem tied to one field path."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing with a ValueError a decimal exponent of more
    than MAX_EXPONENT_DIGITS digits before Fraction reads it."""
    _, e, exponent = text.lower().partition("e")
    if e and len(exponent.strip().lstrip("+-")) > MAX_EXPONENT_DIGITS:
        raise ValueError(f"exponent of more than {MAX_EXPONENT_DIGITS} digits")
    return Fraction(text)


class Config:
    """Flat key = value pairs with dotted section names."""

    def __init__(self, pairs: dict[str, str], source: str) -> None:
        self.pairs = pairs
        self.source = source
        self._seen: set[str] = set()

    @classmethod
    def load(cls, path: str) -> "Config":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError("--config", f"cannot read {path!r}: {exc}") from exc
        pairs: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            key, eq, raw = body.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}", f"expected 'key = value', got {line!r}")
            key = key.strip()
            if key in pairs:
                raise ConfigError(key, "duplicate key")
            pairs[key] = raw.strip()
        return cls(pairs, path)

    def has(self, key: str) -> bool:
        return key in self.pairs

    def raw(self, key: str, default: object = _REQUIRED) -> str | object:
        if key in self.pairs:
            self._seen.add(key)
            return self.pairs[key]
        if default is _REQUIRED:
            raise ConfigError(key, "required key is missing")
        return default

    def get_str(self, key: str, default: object = _REQUIRED, *,
                choices: Sequence[str] | None = None) -> str:
        value = self.raw(key, default)
        if not isinstance(value, str):
            return value  # the default, passed through untyped
        if choices and value not in choices:
            raise ConfigError(key, f"expected one of {'|'.join(choices)}, got {value!r}")
        return value

    def _typed(self, key: str, default: object, convert: Callable[[str], object],
               what: str) -> object:
        """The value of `key` passed through `convert`, or the default as it
        is when the key is absent; a value that does not convert fails."""
        value = self.raw(key, default)
        if not isinstance(value, str):
            return value
        try:
            return convert(value)
        except (ValueError, ZeroDivisionError, OverflowError):  # p/q past the float range
            raise ConfigError(key, f"expected {what}, got {value!r}") from None

    def get_int(self, key: str, default: object = _REQUIRED, *,
                lo: int | None = None, hi: int | None = None) -> int:
        value = self._typed(key, default, lambda x: int(x, 0), "an integer")
        if value is None:
            return value
        if lo is not None and value < lo:
            raise ConfigError(key, f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise ConfigError(key, f"must be <= {hi}, got {value}")
        return value

    def get_float(self, key: str, default: object = _REQUIRED, *,
                  lo: float | None = None, hi: float | None = None,
                  open_ends: bool = False) -> float:
        value = self._typed(key, default, lambda x: float(_fraction(x) if "/" in x else x),
                            "a number")
        if value is None:
            return value
        if not math.isfinite(value):
            raise ConfigError(key, f"must be a finite number, got {value!r}")
        if lo is not None and (value <= lo if open_ends else value < lo):
            raise ConfigError(key, f"must be {'>' if open_ends else '>='} {lo}, got {value!r}")
        if hi is not None and (value >= hi if open_ends else value > hi):
            raise ConfigError(key, f"must be {'<' if open_ends else '<='} {hi}, got {value!r}")
        return value

    def get_bool(self, key: str, default: object = _REQUIRED) -> bool:
        value = self.raw(key, default)
        if not isinstance(value, str):
            return value
        if value in ("true", "yes", "1"):
            return True
        if value in ("false", "no", "0"):
            return False
        raise ConfigError(key, f"expected true|false, got {value!r}")

    def get_fraction(self, key: str, default: object = _REQUIRED, *,
                     positive: bool = False) -> Fraction:
        value = self._typed(key, default, _fraction, "a rational p/q")
        if value is None:
            return value
        if positive and value <= 0:
            raise ConfigError(key, f"must be positive, got {value}")
        return value

    def get_int_list(self, key: str, default: object = _REQUIRED, *,
                     lo: int | None = None) -> tuple[int, ...]:
        value = self._typed(key, default, lambda x: tuple(int(part) for part in x.split(",")),
                            "comma-separated integers")
        if value is not None and lo is not None and min(value) < lo:
            raise ConfigError(key, f"every entry must be >= {lo}, got {min(value)}")
        return value

    def get_points(self, key: str, default: object = _REQUIRED) -> tuple[tuple[Fraction, Fraction], ...]:
        """'x,y; x,y; ...' with exact rational coordinates."""
        value = self.raw(key, default)
        if not isinstance(value, str):
            return value
        points = []
        for chunk in value.split(";"):
            parts = [p.strip() for p in chunk.split(",")]
            if len(parts) != 2:
                raise ConfigError(key, f"expected 'x,y' pairs separated by ';', got {chunk.strip()!r}")
            try:
                points.append((_fraction(parts[0]), _fraction(parts[1])))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(key, f"bad rational coordinate in {chunk.strip()!r}") from None
        return tuple(points)

    def reject_unknown(self, known_prefixes: Sequence[str]) -> None:
        for key in sorted(self.pairs):
            if key in self._seen:
                continue
            if any(key == p or key.startswith(p + ".") for p in known_prefixes):
                raise ConfigError(key, "key was not consumed by this command (misplaced or misspelled)")
            raise ConfigError(key, "unknown key")


# --------------------------------------------------------------- family block


def _family_from(cfg: Config, prefix: str = "family") -> RcoSpec | RcdSpec:
    from .families import RcdSpec, RcoSpec

    kind = cfg.get_str(f"{prefix}.kind", choices=("rco", "rcd"))
    u = cfg.get_int(f"{prefix}.u", lo=2)
    v = cfg.get_int(f"{prefix}.v", lo=2)
    try:
        if kind == "rco":
            return RcoSpec(u, v, cfg.get_int(f"{prefix}.m", 1, lo=1),
                           cfg.get_int(f"{prefix}.t", 1, lo=1))
        rule = cfg.get_str(f"{prefix}.corner_rule", "fixed", choices=("fixed", "hash"))
        return RcdSpec(u, v, rule, cfg.get_int(f"{prefix}.corner_seed", 0))
    except ValueError as exc:
        raise ConfigError(prefix, str(exc)) from None


def _raw_contraction(cfg: Config, key: str = "family.betas") -> DiagonalContraction:
    raw = cfg.raw(key)
    parts = [p.strip() for p in raw.split(",")]
    try:
        if all("/" in p for p in parts):
            fracs = [Fraction(p) for p in parts]
            if all(f.numerator == 1 for f in fracs):
                return DiagonalContraction.from_denominators(
                    tuple(f.denominator for f in fracs))
            return DiagonalContraction(tuple(float(f) for f in fracs))
        return DiagonalContraction(tuple(float(p) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(key, f"bad contraction ratio list {raw!r}: {exc}") from None


def _alpha_for(cfg: Config, family: RcoSpec | RcdSpec | None, c: float) -> LogScalar:
    if family is None:
        if cfg.has("family.alpha_log"):
            return LogScalar(cfg.get_float("family.alpha_log", hi=0.0, open_ends=True))
        return LogScalar.from_value(
            cfg.get_float("family.alpha", lo=0.0, hi=1.0, open_ends=True))
    from .families import RcoSpec, rcd_alpha, rco_alpha

    if isinstance(family, RcoSpec):
        return rco_alpha(family.u, family.v, family.m, family.t, c)
    t = cfg.get_float("game.t", lo=0.0, open_ends=True)
    return rcd_alpha(family.u, family.v, c, t)


# ------------------------------------------------------------------ artifacts


def _write(out_dir: Path, name: str, text: str | Iterable[str]) -> Path:
    """Write `text`, a string or a stream of chunks, to out_dir/name as the
    chunks arrive.

    The first chunk is taken before the directory is made, so a refusal
    that a stream raises before its first chunk writes nothing.  The chunks
    go to name.part, which replaces name only once the stream has ended: an
    error part-way leaves no partial artifact.
    """
    chunks = iter([text] if isinstance(text, str) else text)
    first = next(chunks, "")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    part = out_dir / f"{name}.part"
    try:
        with part.open("w") as fh:
            fh.write(first)
            fh.writelines(chunks)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    print(f"wrote {path}")
    return path


def _search_text(result: SearchResult) -> str:
    rows: list[tuple[str, object]] = [
        ("schema", "gamecert.search.v1"),
        ("kind", result.kind),
        ("feasible", result.feasible),
        ("pattern_count", result.pattern_count),
        ("c", result.c),
        ("t", result.t),
        ("delta", result.delta),
        ("free_steps", result.free_steps),
        ("alpha_log", result.alpha_log),
        ("dim_bound", result.dim_bound),
        ("dim_bound_combined", result.dim_bound_combined),
        ("probes", result.probes),
    ]
    return "\n".join(f"{k} = {_fmt(v)}" for k, v in rows if v is not None) + "\n"


def _write_search(out: Path, result: SearchResult, trace: bool) -> None:
    """search.txt, the certificate if there is one, and with --trace
    trace.txt: a line per cell the search witnessed, in the order it did."""
    _write(out, "search.txt", _search_text(result))
    if result.certificate is not None:
        _write(out, "certificate.txt", result.certificate.to_text())
    if trace:
        _write(out, "trace.txt", "".join(
            "t=%.17g c=%.17g count=%d dim=%.17g delta=%.17g\n" % row for row in result.trace))


def _search_config(cfg: Config, base: SearchConfig) -> SearchConfig:
    from .optimize import SearchConfig, SearchConfigError

    # every SearchConfig field, base's by default; its checks name the key
    fields = dict(
        c_count=cfg.get_int("optimizer.c_count", base.c_count),
        c_s_lo=cfg.get_float("optimizer.c_s_lo", base.c_s_lo),
        c_s_hi=cfg.get_float("optimizer.c_s_hi", base.c_s_hi),
        refine_passes=cfg.get_int("optimizer.refine_passes", base.refine_passes),
        refine_points=cfg.get_int("optimizer.refine_points", base.refine_points),
        t_lo=cfg.get_float("optimizer.t_lo", base.t_lo),
        t_hi=cfg.get_float("optimizer.t_hi", base.t_hi),
        t_step=cfg.get_float("optimizer.t_step", base.t_step),
        pattern_cap=cfg.get_int("optimizer.pattern_cap", base.pattern_cap),
    )
    try:
        return SearchConfig(**fields)
    except SearchConfigError as exc:
        if exc.field is None:
            raise ConfigError("optimizer", exc.text) from None
        text = f"{exc.text} optimizer.{exc.other}" if exc.other else exc.text
        raise ConfigError(f"optimizer.{exc.field}", text) from None


# ------------------------------------------------------------------- commands


def _ineligible(contraction: DiagonalContraction) -> bool:
    """Report and return True when the theorem does not cover these ratios."""
    try:
        check_ratio_range(contraction)
    except ValueError as exc:
        print(f"not certified: theorem-ineligible ({exc})")
        return True
    return False


def _certificate(kind: str, alpha: LogScalar, contraction: DiagonalContraction,
                 c: float, delta: float, count: int | None, rho2: float,
                 extras: dict[str, str] | None = None) -> Certificate:
    """The dimension, pattern or distance certificate of one rate; only a
    pattern certificate reads `count`."""
    if kind == "dimension":
        return dimension_certificate(alpha, contraction, c, delta, rho2, extras)
    if kind == "distance":
        return distance_set_certificate(alpha, contraction, c, delta, rho2, extras)
    if kind != "pattern":
        raise ValueError(f"unknown certificate kind {kind!r}")
    if count is None:
        raise ValueError("pattern certificate states no pattern_count")
    return pattern_certificate(alpha, contraction, c, delta, count, rho2, extras)


def _cmd_certify(cfg: Config, out: Path, trace: bool,
                 finish: Callable[[], None]) -> int:
    if cfg.has("certify.certificate"):
        return _revalidate(cfg, out, finish)
    kind = cfg.get_str("certify.kind", "dimension",
                       choices=("dimension", "pattern", "distance"))
    family_kind = cfg.get_str("family.kind", choices=("rco", "rcd", "raw"))
    if family_kind == "raw":
        family = None
        contraction = _raw_contraction(cfg)
    else:
        family = _family_from(cfg)
        contraction = family.contraction()
    c = cfg.get_float("game.c", lo=0.0, hi=1.0, open_ends=True)
    rho2 = cfg.get_float("game.rho2", 1.0, lo=0.0, open_ends=True)
    count = cfg.get_int("game.pattern_count", lo=1) if kind == "pattern" else None
    alpha = _alpha_for(cfg, family, c)
    delta = cfg.get_float("game.delta", None, lo=0.0, open_ends=True)
    finish()
    try:
        if delta is None:
            delta = default_delta(contraction)
        extras = family.extras() if family else {
            "betas": ",".join("%.17g" % b for b in contraction.betas)}
        cert = _certificate(kind, alpha, contraction, c, delta, count, rho2, extras)
    except ValueError as exc:
        print(f"not certified: theorem-ineligible ({exc})")
        return 2
    _write(out, "certificate.txt", cert.to_text())
    if not cert.fields.get("feasible"):
        print("not certified: feasibility conditions fail at these parameters")
        return 2
    print(f"certified: kind={cert.kind} dim_lower_bound="
          f"{_fmt(cert.fields.get('dim_lower_bound'))}")
    return 0


def _recertify(cert: Certificate) -> Certificate:
    """Recompute a certificate from its own stated parameters."""
    extras = cert.extras
    # intersection members share cell ratios, so the first member's suffice
    echo = next((p for p in ("family", "member.1") if f"{p}.u" in extras), None)
    if echo is not None:
        contraction = DiagonalContraction.from_denominators(
            (int(extras[f"{echo}.u"]), int(extras[f"{echo}.v"])))
    elif "betas" in extras:
        contraction = DiagonalContraction(
            tuple(float(b) for b in extras["betas"].split(",")))
    else:
        raise ValueError("certificate carries neither a family or member echo "
                         "nor a betas list")
    c = cert.fields["c"]
    delta = cert.fields["delta"]
    rho2 = cert.fields.get("rho2", 1.0)
    if cert.kind == "intersection":
        count = int(extras["member_count"])
        alphas = [LogScalar(float(extras[f"member.{i}.alpha_log"]))
                  for i in range(1, count + 1)]
        fresh = intersect_certificate(alphas, contraction, c, delta, rho2)
    else:
        fresh = _certificate(cert.kind, LogScalar(cert.fields["alpha_log"]), contraction,
                             c, delta, cert.fields.get("pattern_count"), rho2)
    if "t" in cert.fields:
        fresh.fields.setdefault("t", cert.fields["t"])
    return Certificate(fresh.kind, fresh.fields, dict(cert.extras))


def _revalidate(cfg: Config, out: Path, finish: Callable[[], None]) -> int:
    path = cfg.get_str("certify.certificate")
    finish()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("certify.certificate", f"cannot read {path!r}: {exc}") from exc
    try:
        cert = Certificate.from_text(text)
        fresh = _recertify(cert)
    except (ValueError, KeyError) as exc:
        print(f"certificate does not re-validate: {exc}")
        return 2
    if fresh.to_text() != text:
        print("certificate does not re-validate: recomputation differs")
        for old, new in zip(text.splitlines(), fresh.to_text().splitlines()):
            if old != new:
                print(f"  stated:     {old}")
                print(f"  recomputed: {new}")
                break
        return 2
    if not cert.fields.get("feasible"):
        print("certificate re-validates but records an infeasible run")
        return 2
    print(f"certificate re-validates: kind={cert.kind} "
          f"dim_lower_bound={_fmt(cert.fields.get('dim_lower_bound'))}")
    return 0


def _cmd_maximize(cfg: Config, out: Path, trace: bool,
                  finish: Callable[[], None]) -> int:
    from .optimize import DEFAULT_CONFIG, optimize_pattern_count

    family = _family_from(cfg)
    objective = cfg.get_str("maximize.objective", "pattern-count",
                            choices=("pattern-count", "dimension"))
    search = _search_config(cfg, DEFAULT_CONFIG)
    rho2 = cfg.get_float("game.rho2", 1.0, lo=0.0, open_ends=True)
    finish()
    if _ineligible(family.contraction()):
        return 2
    result = optimize_pattern_count(family, search, rho2,
                                    want_patterns=objective == "pattern-count")
    _write_search(out, result, trace)
    if not result.feasible:
        print("not certified: no feasible parameters found in the search region")
        return 2
    print(f"certified: pattern_count={result.pattern_count} "
          f"dim_bound={_fmt(result.dim_bound)}")
    return 0


def _cmd_intersect(cfg: Config, out: Path, trace: bool,
                   finish: Callable[[], None]) -> int:
    from .optimize import DEFAULT_CONFIG, optimize_intersection

    members: list[RcoSpec | RcdSpec] = []
    i = 1
    while cfg.has(f"member.{i}.kind"):
        members.append(_family_from(cfg, prefix=f"member.{i}"))
        i += 1
    if not members:
        raise ConfigError("member.1.kind", "required key is missing")
    want_patterns = cfg.get_bool("intersect.want_patterns", False)
    search = _search_config(cfg, DEFAULT_CONFIG)
    rho2 = cfg.get_float("game.rho2", 1.0, lo=0.0, open_ends=True)
    finish()
    # mismatched denominators stay a config error, reported by the search below
    shared = members[0].contraction()
    if (all(m.contraction().denominators == shared.denominators for m in members)
            and _ineligible(shared)):
        return 2
    try:
        result = optimize_intersection(members, search, want_patterns, rho2)
    except ValueError as exc:
        raise ConfigError("member", str(exc)) from None
    _write_search(out, result, trace)
    if not result.feasible:
        print("not certified: combined deletion rate stays above the threshold")
        return 2
    print(f"certified: members={len(members)} dim_bound={_fmt(result.dim_bound)}")
    return 0


def _read_generate(cfg: Config, default_depth: int | None = None) -> tuple:
    from .families import RcoSpec

    family = _family_from(cfg)
    if default_depth is None:
        depth = cfg.get_int("generate.depth", lo=1)
    else:
        depth = cfg.get_int("generate.depth", default_depth, lo=1)
    placement, seed = "corner", 0
    if isinstance(family, RcoSpec):
        placement = cfg.get_str("generate.placement", "corner",
                                choices=("corner", "hash"))
        seed = cfg.get_int("generate.seed", 0)
    return family, depth, placement, seed


def _build_rect(family, depth: int, placement: str, seed: int):
    from .families import RcoSpec, generate_rcd, generate_rco

    try:
        if isinstance(family, RcoSpec):
            return generate_rco(family, depth, placement, seed)
        return generate_rcd(family, depth)
    except ValueError as exc:
        raise ConfigError("generate.depth", str(exc)) from None


def _build_strategy(params: tuple, c: float, t: int | None, error_key: str):
    """The covering strategy of the member that `params`, from
    _read_generate, names; a bad input names `error_key`."""
    from .families import RcoSpec, covering_strategy_for_rcd, covering_strategy_for_rco

    family, depth = params[:2]
    try:
        if isinstance(family, RcoSpec):
            return covering_strategy_for_rco(_build_rect(*params), c)
        return covering_strategy_for_rcd(family, c, t, depth)
    except ValueError as exc:
        raise ConfigError(error_key, str(exc)) from None


def _cmd_generate(cfg: Config, out: Path, trace: bool,
                  finish: Callable[[], None]) -> int:
    params = _read_generate(cfg)
    formats = [f.strip() for f in cfg.get_str("generate.format", "csv").split(",")]
    for fmt in formats:
        if fmt not in ("csv", "pbm"):
            raise ConfigError("generate.format", f"expected csv|pbm, got {fmt!r}")
    width = cfg.get_int("generate.width", 256, lo=8)
    height = cfg.get_int("generate.height", 256, lo=8)
    finish()
    rect = _build_rect(*params)
    raster = rect.to_pbm(width, height) if "pbm" in formats else None   # refused before any file
    if "csv" in formats:
        _write(out, "rectangles.csv", rect.csv_chunks())
    if raster is not None:
        _write(out, "raster.pbm", raster)
    print(f"generated {len(rect.entries)} boxes to level {rect.max_level()}")
    return 0


def _cmd_simulate(cfg: Config, out: Path, trace: bool,
                  finish: Callable[[], None]) -> int:
    from .families import RcdSpec
    from .gamesim import play_game, steering_policy  # loads numpy

    params = _read_generate(cfg, default_depth=cfg.get_int("simulate.moves", lo=1))
    family = params[0]
    moves = cfg.get_int("simulate.moves", lo=1)
    if moves > params[1]:
        # every move past the last strategy level records a smaller box,
        # so the transcript would grow quadratically for nothing
        raise ConfigError("simulate.moves", f"must not exceed the strategy's depth "
                                            f"(generate.depth = {params[1]}), got {moves}")
    c = cfg.get_float("game.c", lo=0.0, hi=1.0, open_ends=True)
    t = cfg.get_int("game.t", lo=1) if isinstance(family, RcdSpec) else None
    policy_name = cfg.get_str("simulate.policy", "steer", choices=("steer", "center"))
    if policy_name == "steer":
        target = cfg.get_points("simulate.target")
        if len(target) != 1:
            raise ConfigError("simulate.target", "expected a single 'x,y' point")
        policy = steering_policy(target[0])
    else:
        policy = steering_policy((0, 0))
    radius = cfg.get_fraction("simulate.radius", Fraction(1), positive=True)
    clamp = cfg.get_bool("simulate.clamp", True)
    preamble = cfg.get_bool("simulate.preamble", True)
    finish()
    strategy = _build_strategy(params, c, t, "family")
    try:
        transcript = play_game(policy, strategy, moves, radius=radius,
                               grant_preamble=preamble, clamp=clamp)
    except ValueError as exc:
        print(f"error: simulate: {exc}", file=sys.stderr)
        return 1
    _write(out, "transcript.txt", transcript.text_chunks())
    outcome = transcript.outcome_box
    deleted = transcript.outcome_intersects_deleted() is not None
    skips = sum(1 for mv in transcript.moves if mv.skipped)
    print(f"played {moves} moves: outcome center = "
          f"{','.join(_fmt(x) for x in outcome.center)}, "
          f"touches deleted region = {_fmt(deleted)}, skipped answers = {skips}")
    return 0


def _cmd_verify(cfg: Config, out: Path, trace: bool,
                finish: Callable[[], None]) -> int:
    from .gamesim import (  # the projection, half-shrink and budget checks load numpy
        MAX_TRANSFER_SAMPLES,
        child_cover_grid,
        potential_transfer_bound,
        tuple_overlap_bound,
        verify_covering_budget,
        verify_half_shrink,
        verify_projection_return,
    )

    check = cfg.get_str("verify.check", choices=(
        "projection", "half-shrink", "budget", "child-grid", "overlap", "transfer"))
    lines = [f"schema = gamecert.verify.v1", f"check = {check}"]
    ok = True
    if check == "projection":
        us = cfg.get_int_list("verify.u", lo=2)
        block = cfg.get_int("verify.block", lo=1)
        k = cfg.get_int("verify.k", 0, lo=0)
        radius = cfg.get_int("verify.radius", 50, lo=1)
        corrupt = cfg.get_bool("verify.corrupt", False)
        finish()
        try:
            audit = verify_projection_return(us, block, k=k, radius=radius,
                                             coarse_branch=not corrupt)
        except ValueError as exc:
            raise ConfigError("verify.u", str(exc)) from None
        lines += [f"u = {','.join(map(str, us))}", f"block = {block}",
                  f"k = {k}", f"radius = {radius}",
                  f"checked = {audit.checked}", f"failures = {audit.failures}"]
        if audit.witness is not None:
            lines.append(f"witness = {audit.witness}")
        ok = audit.passed
    elif check == "half-shrink":
        us = cfg.get_int_list("verify.u", lo=2)
        block = cfg.get_int("verify.block", lo=1)
        level = cfg.get_int("verify.level", lo=2)
        radius = cfg.get_int("verify.radius", 50, lo=1)
        finish()
        try:
            audit = verify_half_shrink(us, level, block, radius=radius)
        except ValueError as exc:
            raise ConfigError("verify.level", str(exc)) from None
        lines += [f"u = {','.join(map(str, us))}", f"block = {block}",
                  f"level = {level}", f"radius = {radius}",
                  f"checked = {audit.checked}", f"failures = {audit.failures}"]
        ok = audit.passed
    elif check == "budget":
        from .families import RcdSpec

        params = _read_generate(cfg, default_depth=2)
        family = params[0]
        c = cfg.get_float("game.c", lo=0.0, hi=1.0, open_ends=True)
        t = cfg.get_int("game.t", lo=1) if isinstance(family, RcdSpec) else None
        levels = cfg.get_int_list("verify.levels", None)
        extent = cfg.get_int("verify.extent", 1, lo=1)
        finish()
        strategy = _build_strategy(params, c, t, "verify")
        try:
            audit = verify_covering_budget(strategy, levels=levels, extent=extent)
        except ValueError as exc:
            raise ConfigError("verify.levels", str(exc)) from None
        for rep in audit.levels:
            lines.append(f"level.{rep.level}.boxes = {rep.strategy_boxes}")
            lines.append(f"level.{rep.level}.test_boxes = {rep.test_boxes}")
            lines.append(f"level.{rep.level}.worst_hits = {rep.worst_hits}")
            lines.append(f"level.{rep.level}.legal = {_fmt(rep.legal)}")
        lines.append(f"worst_hits = {audit.worst_hits}")
        ok = audit.all_legal
    elif check == "child-grid":
        us = cfg.get_int_list("verify.u", lo=2)
        block = cfg.get_int("verify.block", lo=1)
        parent = cfg.get_int_list("verify.parent", tuple(0 for _ in us))
        k = cfg.get_int("verify.k", 0, lo=0)
        if len(parent) != len(us):
            raise ConfigError("verify.parent", "length must match verify.u")
        finish()
        report = child_cover_grid(us, block, parent, k=k)
        lines += [f"u = {','.join(map(str, us))}", f"block = {block}",
                  f"count = {report.count}",
                  f"formula_count = {report.formula_count}",
                  f"floor_product = {report.floor_product}",
                  f"all_inside_half_parent = {_fmt(report.all_inside_half_parent)}",
                  f"matches_enumeration = {_fmt(report.matches_enumeration)}"]
        ok = (report.matches_enumeration and report.all_inside_half_parent
              and report.count >= report.floor_product)
    elif check == "overlap":
        us = cfg.get_int_list("verify.u", lo=2)
        level = cfg.get_int("verify.level", lo=1)
        exponent = cfg.get_int("verify.exponent", lo=1)
        points = cfg.get_points("verify.center", ((Fraction(0), Fraction(0)),))
        if len(points) != 1:
            raise ConfigError("verify.center", "expected a single 'x,y' point")
        center = points[0]
        if len(us) != 2:
            raise ConfigError("verify.u", "overlap check is two-dimensional: give two ratios")
        finish()
        report = tuple_overlap_bound(us, level, exponent, center)
        lines += [f"u = {','.join(map(str, us))}", f"level = {level}",
                  f"exponent = {exponent}", f"count = {report.exact_count}",
                  f"bound = {_fmt(report.bound)}",
                  f"dominated = {_fmt(report.ok)}"]
        ok = report.ok
    else:  # transfer
        samples = cfg.get_int("verify.samples", 1000, lo=1, hi=MAX_TRANSFER_SAMPLES)
        seed = cfg.get_int("verify.seed", 0)
        finish()
        rnd = random.Random(seed)
        worst = 0.0
        failures = 0
        witness = None
        for _ in range(samples):
            x = rnd.uniform(1e-6, 10.0)
            y = rnd.uniform(1e-6, 10.0)
            a = rnd.uniform(0.0, 5.0)
            b = rnd.uniform(0.0, 5.0)
            gamma = rnd.uniform(1e-3, 4.0)
            cc = rnd.uniform(1e-3, 1 - 1e-3)
            lhs, rhs = potential_transfer_bound(x, y, a, b, gamma, cc)
            if lhs > rhs * (1 + 1e-12):
                failures += 1
                if witness is None:
                    witness = (x, y, a, b, gamma, cc)
            if rhs > 0:
                worst = max(worst, lhs / rhs)
        lines += [f"samples = {samples}", f"seed = {seed}",
                  f"failures = {failures}", f"worst_ratio = {_fmt(worst)}"]
        if witness is not None:
            lines.append("witness = " + ",".join(_fmt(w) for w in witness))
        ok = failures == 0
    lines.append(f"status = {'pass' if ok else 'fail'}")
    _write(out, "report.txt", "\n".join(lines) + "\n")
    print("all checks passed" if ok else "counterexample found (see report)")
    return 0 if ok else 2


def _cmd_find_pattern(cfg: Config, out: Path, trace: bool,
                      finish: Callable[[], None]) -> int:
    from .patterns import PatternQuery, candidates_csv_chunks, find_homothety  # loads numpy

    params = _read_generate(cfg)
    points = cfg.get_points("pattern.points")
    lam_lo = cfg.get_fraction("pattern.lambda_lo", positive=True)
    lam_hi = cfg.get_fraction("pattern.lambda_hi", lam_lo, positive=True)
    depth = cfg.get_int("pattern.depth", params[1], lo=0)
    resolution = cfg.get_fraction("pattern.resolution", None, positive=True)
    finish()
    rect = _build_rect(*params)
    try:
        query = PatternQuery(points, lam_lo, lam_hi, depth, resolution)
        candidates = find_homothety(query, rect)
    except ValueError as exc:
        raise ConfigError("pattern", str(exc)) from None
    _write(out, "candidates.csv", candidates_csv_chunks(candidates))
    if not candidates:
        print("no depth-consistent candidates on the scan grid")
        return 2
    # the scan admits only candidates that pass the query's full depth
    print(f"found {len(candidates)} candidates (max depth passed = {query.depth})")
    return 0


def _cmd_smallest_u(cfg: Config, out: Path, trace: bool,
                    finish: Callable[[], None]) -> int:
    from .optimize import SMALLEST_U_CONFIG, smallest_u_for_patterns

    count = cfg.get_int("smallest.pattern_count", lo=1)
    gap = cfg.get_int("smallest.gap", 0, lo=0)
    search = _search_config(cfg, SMALLEST_U_CONFIG)
    finish()
    try:
        answer = smallest_u_for_patterns(count, gap, search)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError("smallest", str(exc)) from None
    rows = [
        ("schema", "gamecert.smallest-u.v1"),
        ("pattern_count", count),
        ("gap", gap),
        ("u", answer.u),
        ("u_pattern_count", answer.result.pattern_count),
        ("below_pattern_count", answer.below.pattern_count),
        ("probes", answer.probes),
    ]
    _write(out, "smallest.txt",
           "\n".join(f"{k} = {_fmt(v)}" for k, v in rows) + "\n")
    _write_search(out, answer.result, trace)
    print(f"smallest u = {answer.u} (the value below, {answer.u - 1}, "
          f"certifies only {answer.below.pattern_count})")
    return 0


_DISPATCH: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "certify": (_cmd_certify, ("certify", "family", "game")),
    "maximize": (_cmd_maximize, ("maximize", "family", "game", "optimizer")),
    "intersect": (_cmd_intersect, ("intersect", "member", "game", "optimizer")),
    "generate": (_cmd_generate, ("generate", "family")),
    "simulate": (_cmd_simulate, ("simulate", "generate", "family", "game")),
    "verify": (_cmd_verify, ("verify", "generate", "family", "game")),
    "find-pattern": (_cmd_find_pattern, ("pattern", "generate", "family")),
    "smallest-u": (_cmd_smallest_u, ("smallest", "optimizer")),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gamecert",
        description="certify and explore winning parameters of the box-deletion game",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="action to run (may also live in the config as 'command')")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="flat key = value config file")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for output artifacts (default: current)")
    parser.add_argument("--trace", action="store_true",
                        help="write the search's witnessed cells (maximize, intersect, smallest-u)")
    args = parser.parse_args(argv)
    try:
        cfg = Config.load(args.config)
        command = args.command
        if cfg.has("command"):
            configured = cfg.get_str("command", choices=COMMANDS)
            if command is None:
                command = configured
            elif command != configured:
                raise ConfigError("command",
                                  f"config says {configured!r} but the command line says {command!r}")
        if command is None:
            raise ConfigError("command", "no command given (argument or config key)")
        handler, prefixes = _DISPATCH[command]
        return handler(cfg, Path(args.out), args.trace,
                       lambda: cfg.reject_unknown(prefixes))
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except SizeError as exc:  # its arg names the input, mostly by its key's last part
        moves = command == "simulate" and not cfg.has("generate.depth")  # the default depth
        key = {"t": "game.t", "spec.t": "family.t",
               "depth": "simulate.moves" if moves else "generate.depth"}.get(
            exc.arg, f"{prefixes[0]}.{exc.arg}")
        print(f"error: config: {key}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
