"""Outside-in span tracing for the benchmark.

The benchmark does not change the program to trace it.  Instead it
replaces the public entry points of each layer with thin wrappers, from
its own files, for the duration of a traced round, and restores the
originals afterwards.  A wrapper records one span per call:

    [id, name, start_ns, end_ns, parent_id, unit]

``parent_id`` is the span that was open when the call started (-1 for
none) and ``unit`` is the cell or fleet the call belongs to.  Spans stay
in memory; :func:`write_jsonl` writes them out when the run ends.

Pool workers are forked from the traced driver, so they inherit the
wrappers.  Their spans are appended to one JSONL file per worker after
every cell (a forked worker never runs ``atexit``), and the driver
merges those files once the sweep returns.

A span's *self time* is its duration minus the part of its interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import builtins
import json
import os
import time

import numpy as np

_now = time.perf_counter_ns

#: The span name the benchmark itself opens around every round; it is
#: not a layer, and its self time is what no layer span covers.
ROUND = "bench.round"


class Tracer:
    """Span and counter sink for one process."""

    def __init__(self) -> None:
        self.reset()
        self.worker_dir: str | None = None

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.stack: list[int] = []
        self.next_id = 0
        self.unit: str | None = None

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [self.next_id, name, 0, 0, parent, self.unit]
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span[0])
        span[2] = _now()
        return span

    def close(self, span: list) -> None:
        span[3] = _now()
        self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def traced(self, name: str, fn, counter=None):
        """``fn`` wrapped in a span; ``counter(args, kwargs, result)``
        returns ``(counter_name, value)`` pairs to add."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    tracer.count(key, value)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def records(self) -> list[dict]:
        pid = self.pid
        return [
            {
                "pid": pid,
                "id": span[0],
                "name": span[1],
                "start_ns": span[2],
                "end_ns": span[3],
                "parent": span[4],
                "unit": span[5],
            }
            for span in self.spans
        ]


TRACER = Tracer()


class Patch:
    """Install wrappers over ``(owner, attribute)`` pairs; undo them."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        self.replace(owner, attr, TRACER.traced(name, original, counter))

    def replace(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, had, value = self._saved.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------
_ORIGINAL_SWEEP_EXECUTE = None


def traced_sweep_execute(unit, keep_runs):
    """Pool entry point used while tracing a sweep.

    Module-level so the pool pickles it by reference.  The first call in
    a forked worker drops the spans it inherited from the driver.
    """
    tracer = TRACER
    if tracer.pid != os.getpid():
        tracer.reset()
    tracer.unit = unit.fingerprint()
    span = tracer.open("sweep.worker_execute")
    try:
        return _ORIGINAL_SWEEP_EXECUTE(unit, keep_runs)
    finally:
        tracer.close(span)
        tracer.unit = None
        flush_worker(tracer)


def flush_worker(tracer: Tracer) -> None:
    path = os.path.join(tracer.worker_dir, f"worker-{os.getpid()}.jsonl")
    with builtins.open(path, "a", encoding="utf-8") as handle:
        for record in tracer.records():
            handle.write(json.dumps(record) + "\n")
        if tracer.counters:
            handle.write(json.dumps({"counters": tracer.counters}) + "\n")
    tracer.spans.clear()
    tracer.counters.clear()


def read_worker_files(directory: str) -> tuple[list[dict], dict[str, float]]:
    """Spans and summed counters from every worker file in ``directory``."""
    spans: list[dict] = []
    counters: dict[str, float] = {}
    for name in sorted(os.listdir(directory)):
        with builtins.open(os.path.join(directory, name), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if "counters" in record:
                    for key, value in record["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                else:
                    spans.append(record)
    return spans, counters


# ----------------------------------------------------------------------
# Arithmetic on finished spans
# ----------------------------------------------------------------------
def self_times(spans: list[dict]) -> list[int]:
    """Self time (ns) of each span, aligned with ``spans``.

    Self time is the span's duration minus the union of its children's
    intervals, clipped to the span.  Children are matched by
    ``(pid, parent)``, so spans from different processes never nest.
    """
    children: dict[tuple, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start_ns"], span["end_ns"])
            )
    out = []
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get((span["pid"], span["id"]), ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def has_child(spans: list[dict], parent_name: str, child_name: str) -> int:
    """How many ``parent_name`` spans have at least one ``child_name`` child."""
    keys = {
        (span["pid"], span["id"]) for span in spans if span["name"] == parent_name
    }
    hit = {
        (span["pid"], span["parent"])
        for span in spans
        if span["name"] == child_name and (span["pid"], span["parent"]) in keys
    }
    return len(hit)


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total self seconds, inclusive µs p50/p99."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        entry = by_name.setdefault(span["name"], {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += own
        durations.setdefault(span["name"], []).append(
            (span["end_ns"] - span["start_ns"]) / 1e3
        )
    for name, entry in by_name.items():
        entry["self_s"] = entry.pop("self_ns") / 1e9
        entry["us_p50"] = float(np.percentile(durations[name], 50.0))
        entry["us_p99"] = float(np.percentile(durations[name], 99.0))
        entry["total_s"] = sum(durations[name]) / 1e6
    return by_name


def write_jsonl(path: str, spans: list[dict]) -> None:
    with builtins.open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
