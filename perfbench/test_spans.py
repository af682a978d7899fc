"""Self-time arithmetic of the benchmark's span tracer.

Run from the repository root:  python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import itertools

import pytest

import spans
from spans import Patch, Tracer, has_child, self_times, summarize


def span(id, name, start, end, parent=-1, pid=1, unit=None):
    return {
        "pid": pid, "id": id, "name": name, "start_ns": start, "end_ns": end,
        "parent": parent, "unit": unit,
    }


def test_self_time_subtracts_direct_children_only():
    tree = [
        span(0, "root", 0, 100),
        span(1, "a", 10, 40, parent=0),
        span(2, "a.child", 15, 25, parent=1),
        span(3, "b", 50, 60, parent=0),
    ]
    assert self_times(tree) == [60, 20, 10, 10]


def test_overlapping_children_are_counted_once_and_clipped():
    tree = [
        span(0, "parent", 0, 35),
        span(1, "x", 10, 30, parent=0),
        span(2, "y", 20, 40, parent=0),
    ]
    assert self_times(tree)[0] == 10


def test_spans_of_other_processes_never_nest():
    tree = [
        span(0, "driver", 0, 100, pid=1),
        span(0, "worker", 0, 80, pid=2),
        span(1, "worker.child", 10, 30, parent=0, pid=2),
    ]
    assert self_times(tree) == [100, 60, 20]


@pytest.fixture
def clock(monkeypatch):
    """A tracer clock that advances 10 ns per reading."""
    ticks = itertools.count(0, 10)
    monkeypatch.setattr(spans, "_now", lambda: next(ticks))


def test_probe_decides_inside_policy_select_belong_to_the_select(clock):
    """Cost-aware ``policy.select`` probes ``kernel.decide`` once per
    replica; one probe misses the memo and runs ``select.one``.  The
    probes' time must come out of the policy's self time, and the
    selection's out of the probe that ran it."""
    tracer = Tracer()

    def select_one():
        return "config"

    select_one = tracer.traced("select.one", select_one)
    memo = {}

    def decide(goal):
        if goal not in memo:
            memo[goal] = select_one()
        return memo[goal]

    decide = tracer.traced("kernel.decide", decide)

    def policy_select(replicas, goal):
        return min(replicas, key=lambda r: (decide(goal), r))

    policy_select = tracer.traced("serve.policy_select", policy_select)
    assert policy_select([0, 1], "goal") == 0

    records = tracer.records()
    names = [r["name"] for r in records]
    assert names == ["serve.policy_select", "kernel.decide", "select.one",
                     "kernel.decide"]
    policy, miss, selection, hit = records
    assert miss["parent"] == policy["id"] and hit["parent"] == policy["id"]
    assert selection["parent"] == miss["id"]
    # Clock readings (10 ns apart): policy 0..70, miss 10..40 with its
    # selection 20..30, hit 50..60.
    assert [(r["start_ns"], r["end_ns"]) for r in records] == [
        (0, 70), (10, 40), (20, 30), (50, 60),
    ]
    assert self_times(records) == [30, 20, 10, 10]
    summary = summarize(records)
    assert summary["kernel.decide"]["calls"] == 2
    assert summary["kernel.decide"]["self_s"] == pytest.approx(30e-9)
    assert summary["serve.policy_select"]["self_s"] == pytest.approx(30e-9)
    # One of the two decides ran a selection: a memo hit ratio of 1/2.
    assert has_child(records, "kernel.decide", "select.one") == 1


def test_span_is_closed_when_the_call_raises(clock):
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.traced("boom", boom)()
    (record,) = tracer.records()
    assert record["end_ns"] > record["start_ns"]
    assert tracer.stack == []


def test_counters_accumulate_per_call():
    tracer = Tracer()
    traced = tracer.traced(
        "select.many", lambda goals: goals, lambda a, k, r: [("states", len(r))]
    )
    traced([1, 2, 3])
    traced([1])
    assert tracer.counters == {"states": 4}


def test_patch_undo_restores_class_and_module_attributes():
    class Engine:
        def run(self):
            return 1

    original = Engine.__dict__["run"]
    patch = Patch()
    patch.wrap(Engine, "run", "engine.run")
    patch.replace(spans, "not_there", object())
    assert Engine.run is not original and Engine().run() == 1
    patch.undo()
    assert Engine.__dict__["run"] is original
    assert not hasattr(spans, "not_there")
