"""Spans recorded from outside the program: wrappers, self time, layer table.

The benchmark owns every line of tracing.  :func:`install` wraps the public
callables on the serving process's request path (the names the program's own
modules look up at call time), so a traced request runs the same code as an
untraced one plus two ``perf_counter`` reads per wrapped call.  Spans are
``{id, name, layer, start, end, parent, request_id}`` dicts kept in memory;
``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans recorded in the
server process and request roots recorded in the client share one clock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (module, attribute path, layer): every wrapped callable is public API of
#: its layer; ``repro.apps.service`` entries are that module's imported names,
#: which is where ``RenderService`` resolves them on every job
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.apps.gateway", "scene_from_spec", "gateway"),
    ("repro.apps.service", "RenderService.submit", "service"),
    ("repro.apps.service", "scene_content_key", "service"),
    ("repro.apps.service", "extract_image", "service"),
    ("repro.apps.service", "build_warm_runtime", "runner"),
    ("repro.apps.service", "farm_inputs", "runner"),
    ("repro.apps.service", "run_on", "runtime"),
    ("repro.raytracer.scene", "Scene.build_index", "raytracer"),
)

#: rows of the layer table, in request order
LAYERS = ("gateway", "service", "runner", "runtime", "raytracer", "mutation")


class Recorder:
    """In-memory span sink with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []

    def _wrap(self, func: Callable, name: str, layer: str) -> Callable:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": stack[-1] if stack else None,
                    "start": time.perf_counter()}
            stack.append(span["id"])
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._originals:
            return
        for module_name, path, layer in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, path, layer))

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self._originals = []

    def drain(self) -> List[Dict[str, Any]]:
        spans, self.spans = self.spans, []
        return spans


def adopt(spans: List[Dict[str, Any]], roots: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Hang server spans under the request roots; returns roots + spans.

    The load is a closed loop with one outstanding request, so a parentless
    server span belongs to the root whose window holds its start.  Root ids
    are negative so they cannot collide with recorder ids.  Spans outside
    every window (set-up, warm-up) are dropped.
    """
    by_id = {span["id"]: span for span in spans}
    kept: List[Dict[str, Any]] = []
    for span in sorted(spans, key=lambda s: s["start"]):
        if span["parent"] is None:
            root = next((r for r in roots if r["start"] <= span["start"] <= r["end"]), None)
            if root is None:
                continue
            span["parent"], span["request_id"] = root["id"], root["request_id"]
        else:
            parent = by_id.get(span["parent"])
            if parent is None or "request_id" not in parent:
                continue
            span["request_id"] = parent["request_id"]
        kept.append(span)
    return roots + kept


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: Dict[Any, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result: Dict[int, float] = {}
    for span in spans:
        covered, edge = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, edge), min(end, span["end"])
            if end > start:
                covered += end - start
                edge = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def layer_table(spans: List[Dict[str, Any]], requests: int,
                kernel_share_s: float) -> Dict[str, float]:
    """Mean self seconds per request and layer; the rows sum to ``request``.

    ``kernel_share_s`` is the direct-call estimate of the kernel seconds that
    ran inside fork workers during one request's ``run_on`` (serial kernel
    time x share of rays traced / workers); it moves from the ``runtime`` row
    to the ``raytracer`` row, capped by what ``run_on`` really took.  The root
    span's self time — socket, JSON, event loop, queue hand-off, pool glue,
    reply hashing: everything no wrapped call covers — is ``unaccounted``.
    """
    own = self_times(spans)
    table = {layer: 0.0 for layer in LAYERS}
    table["unaccounted"] = 0.0
    for span in spans:
        table["unaccounted" if span["layer"] == "root" else span["layer"]] += own[span["id"]]
    table = {row: total / requests for row, total in table.items()}
    moved = min(table["runtime"], kernel_share_s)
    table["runtime"] -= moved
    table["raytracer"] += moved
    table["request"] = sum(table.values())
    return table


def format_table(name: str, table: Dict[str, float]) -> str:
    request = table["request"]
    lines = [f"layer table [{name}] (mean self s per traced request)"]
    for row in (*LAYERS, "unaccounted", "request"):
        lines.append(f"  {row:<12} {table[row]:10.5f} s  {100.0 * table[row] / request:6.1f} %")
    return "\n".join(lines)


def root_span(index: int, start: float, end: float) -> Dict[str, Any]:
    return {"id": -(index + 1), "name": "request", "layer": "root", "parent": None,
            "request_id": index, "start": start, "end": end}


def child_span(span_id: Any, root: Dict[str, Any], name: str, layer: str,
               start: float, end: float) -> Dict[str, Any]:
    """A span the benchmark's own loop timed directly (not through a wrapper)."""
    return {"id": span_id, "name": name, "layer": layer, "parent": root["id"],
            "request_id": root["request_id"], "start": start, "end": end}
