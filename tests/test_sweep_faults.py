"""Fault injection: a sweep whose pool worker dies mid-run.

A scheme factory resolved by dotted path calls ``os._exit`` in one
chosen cell while a marker file exists; the marker holds that cell's
goal, so every pool start method (fork, spawn, forkserver) sees the
same target.  The pooled sweep must raise rather than hang, leave a
checkpoint of whole cell lines from whole timing groups only, and —
once the marker is gone — resume to cells identical to an
uninterrupted run.  Two faults of the shared grid store that
:func:`repro.experiments.harness.evaluate_schemes` can plug in are
covered directly: a publisher killed between creating its segment and
marking it ready, and a process that died holding the store lock.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.harness import make_scheme
from repro.runtime.executor import factory_path
from repro.runtime.grid_store import SharedGridStore
from repro.runtime.sweep import (
    SweepSpec,
    _timing_groups,
    compile_sweep,
    run_sweep,
)

#: While this file exists, the cell whose ``repr(goal)`` it holds
#: kills its process.  A fixed path, so pool workers find it however
#: they were started.
_MARKER = os.path.join(
    tempfile.gettempdir(), f"repro-sweep-kill-{os.getuid()}.marker"
)


def dying_factory(
    name, scenario, engine, stream, goal, n_inputs,
    oracle_grid=None, grid_view=None,
):
    """:func:`make_scheme`, except in the marked cell."""
    try:
        with open(_MARKER, encoding="utf-8") as handle:
            target = handle.read()
    except FileNotFoundError:
        target = None
    if target == repr(goal):
        os._exit(17)
    return make_scheme(
        name, scenario, engine, stream, goal, n_inputs,
        oracle_grid=oracle_grid, grid_view=grid_view,
    )


SPEC = SweepSpec(
    platforms=("CPU1",),
    tasks=("image",),
    envs=("memory",),
    schemes=("Oracle", "OracleStatic"),
    objectives=("min_energy", "min_error"),
    settings_stride=9,
    n_inputs=12,
    seeds=(5,),
    factory=factory_path(dying_factory),
)

_SHM = "/dev/shm"


def _shm_names() -> set[str]:
    if not os.path.isdir(_SHM):
        return set()
    return {name for name in os.listdir(_SHM) if name.startswith("psm_")}


@pytest.fixture()
def kill_last_cell():
    """Arm the kill in the plan's last cell until the test ends."""
    with open(_MARKER, "w", encoding="utf-8") as handle:
        handle.write(repr(compile_sweep(SPEC)[-1].goal))
    try:
        yield _MARKER
    finally:
        if os.path.exists(_MARKER):
            os.remove(_MARKER)


def test_killed_worker_raises_and_resumes(tmp_path, kill_last_cell):
    assert SPEC.factory is not None
    checkpoint = tmp_path / "sweep.jsonl"
    units = compile_sweep(SPEC)
    groups = [
        {units[p].fingerprint() for p in group}
        for group in _timing_groups(units, list(range(len(units))))
    ]
    # The killed cell ends a group that has other cells, which finish
    # in the same worker before it.
    assert len(groups) > 2 and len(groups[-1]) > 1

    with pytest.raises(BrokenProcessPool):
        run_sweep(SPEC, workers=2, checkpoint_path=str(checkpoint))

    # Only whole, parseable cell lines.
    text = checkpoint.read_text() if checkpoint.exists() else ""
    assert text == "" or text.endswith("\n")
    lines = text.splitlines()
    written = set()
    for line in lines:
        payload = json.loads(line)
        assert payload["spec"] == SPEC.fingerprint()
        assert len(payload["summaries"]) == len(SPEC.schemes)
        written.add(payload["cell"])
    assert len(written) == len(lines)
    # A pooled group is checkpointed whole or not at all: the killed
    # group's finished cells are lost with it, and a resume reruns them.
    assert all(group <= written or not group & written for group in groups)
    assert not groups[-1] & written

    os.remove(kill_last_cell)
    uninterrupted = run_sweep(SPEC, workers=1)
    resumed = run_sweep(SPEC, workers=2, checkpoint_path=str(checkpoint))
    assert resumed.complete
    assert resumed.resumed == len(lines)
    assert resumed.cells == uninterrupted.cells


def _publish_then_die(client, configs, n_inputs):
    def realize(allocator=None):
        os._exit(17)

    client.get_or_realize(("killed",), configs, realize, n_inputs=n_inputs)


@pytest.mark.skipif(not os.path.isdir(_SHM), reason="needs /dev/shm")
def test_publisher_killed_mid_realise_leaves_no_segment():
    """The pending entry names its segment, so close() unlinks it."""
    configs = tuple(range(3))
    n_inputs = 4
    before = _shm_names()
    store = SharedGridStore()
    try:
        process = multiprocessing.Process(
            target=_publish_then_die,
            args=(store.client(), configs, n_inputs),
        )
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 17
        stats = store.stats()
        assert stats["pending"] == 1 and stats["grids"] == 0
        assert len(_shm_names() - before) == 2  # registry + grid segment
    finally:
        store.close()
    assert _shm_names() - before == set()


def _take_lock_then_die(lock):
    lock.acquire()
    os._exit(17)


def test_lock_held_by_dead_process_degrades_instead_of_hanging(monkeypatch):
    """A lock its dead holder never released bounds every wait.

    Lookups fall back to realising locally, and close() still returns.
    """
    monkeypatch.setattr("repro.runtime.grid_store._LOCK_TIMEOUT_S", 0.1)
    before = _shm_names()
    store = SharedGridStore()
    try:
        process = multiprocessing.Process(
            target=_take_lock_then_die, args=(store._lock,)
        )
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 17
        local = object()
        assert store.client().get_or_realize(("k",), (), lambda: local) is local
    finally:
        store.close()
    assert _shm_names() - before == set()
