"""Span tracer that wraps gamecert's public functions from outside the package.

Each wrapped call records one span: a name, the op it belongs to, its start
and end on the perf_counter clock, and the span that was open when it
started.  Spans live in flat arrays while the run is going and are written
out once, when the run ends.  Self time is a span's duration minus the time
its direct children cover (calls are synchronous, so children never overlap).

A wrapper is installed under every name that points at the original
function in any loaded gamecert module, so calls through imported names
(``optimize.delta_max``, ``certify.safe_floor_ratio``, ``cli.generate_rco``)
are traced too.  A target the program no longer defines is listed in
``absent`` and skipped; the run goes on and its metrics read zero.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np


def _count_floor_tag(counters: Counter, result) -> None:
    counters["floor." + result.tag] += 1


def _count_feasible(counters: Counter, result) -> None:
    counters["feasibility.feasible"] += bool(result.feasible)


def _count_admitted(counters: Counter, result) -> None:
    counters["delta_max.admitted"] += result is not None


def _count_probes(counters: Counter, result) -> None:
    counters["optimize.probes"] += result.probes


def _count_searches(counters: Counter, result) -> None:
    counters["smallest_u.searches"] += result.probes


def _count_rect_boxes(counters: Counter, result) -> None:
    counters["generate.boxes"] += len(result.entries)


def _count_strategy_boxes(counters: Counter, result) -> None:
    counters["generate.boxes"] += sum(len(level.boxes) for level in result.levels)


def _count_csv_bytes(counters: Counter, result) -> None:
    counters["to_csv.bytes"] += len(result.encode())


def _count_budget(counters: Counter, result) -> None:
    for level in result.levels:
        counters["budget.test_boxes"] += level.test_boxes
        counters["budget.strategy_boxes"] += level.strategy_boxes


def _count_deletions(counters: Counter, result) -> None:
    counters["play_game.deletions"] += len(result.all_deletions())


def _count_candidates(counters: Counter, result) -> None:
    counters["patterns.candidates"] += len(result)


def _count_scale(counters: Counter, result) -> None:
    counters["patterns.scales"] += 1


# (module, attribute path, span name, result hook).  Several functions may
# share a span name; their spans are then summed under it.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("gamecert.core", "safe_floor_ratio", "core.safe_floor_ratio", _count_floor_tag),
    ("gamecert.certify", "feasibility_report", "certify.feasibility_report", _count_feasible),
    ("gamecert.certify", "pattern_feasible", "certify.pattern_feasible", None),
    ("gamecert.certify", "pattern_dim_bound", "certify.pattern_dim_bound", None),
    ("gamecert.certify", "Certificate.to_text", "certify.certificate_text", None),
    ("gamecert.certify", "Certificate.from_text", "certify.certificate_text", None),
    ("gamecert.optimize", "delta_max", "optimize.delta_max", _count_admitted),
    ("gamecert.optimize", "optimize_pattern_count", "optimize.search", _count_probes),
    ("gamecert.optimize", "optimize_intersection", "optimize.search", _count_probes),
    ("gamecert.optimize", "smallest_u_for_patterns", "optimize.smallest_u", _count_searches),
    ("gamecert.families", "rco_alpha", "families.rco_alpha", None),
    ("gamecert.families", "rcd_alpha", "families.rcd_alpha", None),
    ("gamecert.families", "rcd_cover_count", "families.rcd_cover_count", None),
    ("gamecert.families", "generate_rco", "families.generate_rco", _count_rect_boxes),
    ("gamecert.families", "generate_rcd", "families.generate_rcd", _count_rect_boxes),
    ("gamecert.families", "covering_strategy_for_rco",
     "families.covering_strategy_for_rco", _count_strategy_boxes),
    ("gamecert.families", "covering_strategy_for_rcd",
     "families.covering_strategy_for_rcd", _count_strategy_boxes),
    ("gamecert.families", "RectangleSet.to_csv", "families.to_csv", _count_csv_bytes),
    ("gamecert.families", "RectangleSet.to_pbm", "families.to_pbm", None),
    ("gamecert.gamesim", "verify_covering_budget", "gamesim.verify_covering_budget", _count_budget),
    ("gamecert.gamesim", "play_game", "gamesim.play_game", _count_deletions),
    ("gamecert.gamesim", "verify_projection_return", "gamesim.verify_projection_return", None),
    ("gamecert.patterns", "find_homothety", "patterns.find_homothety", _count_candidates),
    # per-scale scan inside find_homothety: counted, its time kept in the layer
    ("gamecert.patterns", "_scan_one_scale", "patterns.find_homothety", _count_scale),
    ("gamecert.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = 0
        self.absent: list[str] = []
        self._next_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, span_name: str, hook: Callable | None) -> Callable:
        idx = self._name_index.setdefault(span_name, len(self._name_index))
        if idx == len(self.names):
            self.names.append(span_name)
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name.append(idx)
                self.op.append(self.current_op)
                self.start.append(t0)
                self.end.append(t1)
            if hook is not None:
                hook(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in the loaded gamecert modules; record the ones
        a loaded module no longer defines."""
        modules = [m for n, m in sys.modules.items()
                   if n == "gamecert" or n.startswith("gamecert.")]
        for module_name, path, span_name, hook in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue                  # the workload never imports it
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, span_name, hook)))
                continue
            wrapped = self._wrap(raw, span_name, hook)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is raw:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive seconds, self seconds."""
        if not self.span_id:
            return {}
        sid = np.frombuffer(self.span_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=self._next_id)
        self_time = dur - child_time[sid]
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span as flat columns (numpy .npz) plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names or [""]),
        )
