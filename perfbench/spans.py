"""In-memory span tracing around calls into the semcomm modules.

A span is recorded at each call into a public semcomm function: its name,
start, end, the span that was open when it started (its parent), and the
op (one campaign instance or one program call) it belongs to. Wrappers are
installed on the module global that the caller actually looks up: `coding`
imports `blahut_arimoto` and `exact_evaluate` by name, so patching only
`semcomm.capacity.blahut_arimoto` would miss the calls `converse_chain`
makes. Nothing inside the package is edited; the wrappers are removed when
the traced block ends.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from semcomm.errors import ConvergenceError


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
            "start": self.start, "end": self.end, "attrs": self.attrs,
        }


def _annotate_ba(span: Span, args, kwargs, result, error) -> None:
    if isinstance(error, ConvergenceError):
        span.attrs["stall"] = True
        span.attrs["iterations"] = getattr(error.best, "iterations", 0)
    elif error is None:
        span.attrs["iterations"] = result.iterations


def _annotate_simulate(span: Span, args, kwargs, result, error) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    span.attrs["n"] = cfg.n
    if error is None:
        span.attrs["regime"] = result.config["regime"]
        span.attrs["decoder"] = result.config["decoder"]
        span.attrs["trials"] = result.trials


# (module, attribute the caller looks up, span name, annotator). Only the
# lookups the benchmark's workloads reach are listed.
TARGETS = (
    ("semcomm.cli", "main", "cli.main", None),
    ("semcomm.cli", "simulate", "coding.simulate", _annotate_simulate),
    ("semcomm.cli", "semantic_capacity", "capacity.semantic_capacity", None),
    ("semcomm.cli", "mpsk_hard_dmc", "channels.mpsk_hard_dmc", None),
    ("semcomm.capacity", "blahut_arimoto", "capacity.blahut_arimoto", _annotate_ba),
    ("semcomm.coding", "blahut_arimoto", "capacity.blahut_arimoto", _annotate_ba),
    ("semcomm.coding", "simulate", "coding.simulate", _annotate_simulate),
    ("semcomm.coding", "exact_evaluate", "coding.exact_evaluate", None),
    ("semcomm.coding", "random_fano_instance", "coding.random_fano_instance", None),
    ("semcomm.coding", "check_fano", "coding.check_fano", None),
    ("semcomm.coding", "converse_chain", "coding.converse_chain", None),
)


class Tracer:
    """Collects spans in memory; `installed()` patches the TARGETS."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def next_op(self) -> None:
        self.op += 1

    def wrap(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span = Span(
                    id=len(self.spans),
                    parent=stack[-1].id if stack else None,
                    op=self.op,
                    name=name,
                    start=time.perf_counter(),
                )
                self.spans.append(span)
            stack.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if annotate is not None and (result is not None or error is not None):
                    annotate(span, args, kwargs, result, error)

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, annotate in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another (calls from worker threads), so the
    covered part is the length of the union of their intervals, clipped to
    the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def busy(spans: list[Span], name: str, where=lambda s: True) -> float:
    """Total time inside `name` spans, counting nested same-name spans once."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    return sum(s.duration for s in spans if s.name == name and where(s) and not nested(s))


def simulate_kind(span: Span) -> str | None:
    """Which engine a `coding.simulate` span ran, read from its report."""
    if span.attrs.get("decoder") == "typicality":
        return "typicality"
    return {
        "virtual-fresh": "virtual",
        "materialized-fresh": "fresh",
        "materialized-shared": "shared",
    }.get(span.attrs.get("regime"))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from one traced job. Layers a workload does not
    reach read 0."""
    selfs = self_times(spans)
    ba = [s for s in spans if s.name == "capacity.blahut_arimoto"]
    iters = [s.attrs.get("iterations", 0) for s in ba]
    converged = [s.attrs.get("iterations", 0) for s in ba if not s.attrs.get("stall")]

    def sim_busy(kind):
        return busy(spans, "coding.simulate", lambda s: simulate_kind(s) == kind)

    virtual = [s for s in spans if s.name == "coding.simulate" and simulate_kind(s) == "virtual"]
    virtual_busy = sim_busy("virtual")

    def self_sum(name):
        return sum(selfs[s.id] for s in spans if s.name == name)

    return {
        "capacity.blahut_arimoto.calls": len(ba),
        "capacity.blahut_arimoto.busy_s": busy(spans, "capacity.blahut_arimoto"),
        "capacity.blahut_arimoto.iterations": sum(iters),
        "capacity.blahut_arimoto.iterations_p50": statistics.median(iters) if iters else 0,
        "capacity.blahut_arimoto.iterations_max": max(converged, default=0),
        "capacity.blahut_arimoto.stalls": sum(1 for s in ba if s.attrs.get("stall")),
        "coding.exact_evaluate.calls": sum(1 for s in spans if s.name == "coding.exact_evaluate"),
        "coding.exact_evaluate.busy_s": busy(spans, "coding.exact_evaluate"),
        "coding.random_fano_instance.busy_s": busy(spans, "coding.random_fano_instance"),
        "coding.check_fano.self_s": self_sum("coding.check_fano"),
        "coding.converse_chain.self_s": self_sum("coding.converse_chain"),
        "coding.simulate.virtual.busy_s": virtual_busy,
        "coding.simulate.virtual.trials_per_s":
            sum(s.attrs["trials"] for s in virtual) / virtual_busy if virtual_busy else 0.0,
        "coding.simulate.virtual.n1024_s": sum(s.duration for s in virtual if s.attrs["n"] == 1024),
        "coding.simulate.fresh.busy_s": sim_busy("fresh"),
        "coding.simulate.typicality.busy_s": sim_busy("typicality"),
        "coding.simulate.shared.busy_s": sim_busy("shared"),
        "channels.mpsk_hard_dmc.busy_s": busy(spans, "channels.mpsk_hard_dmc"),
        "capacity.semantic_capacity.busy_s": busy(spans, "capacity.semantic_capacity"),
        "cli.main.self_s": self_sum("cli.main"),
    }
