"""Property tests for the sweep engine's grouping and crash-resume.

A JSONL checkpoint cut at an arbitrary byte (mid-line included)
resumes into summaries identical to an uninterrupted run's, and leaves
a checkpoint that on its own resumes every cell.  Whatever subset of a
plan is already checkpointed, the pending cells split into maximal
plan-ordered timing groups, and a pooled sweep resumed from that
subset matches an uninterrupted serial run.
"""

from __future__ import annotations

import functools
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.sweep import (
    SweepSpec,
    _timing_groups,
    _timing_key,
    compile_sweep,
    load_checkpoint,
    run_sweep,
)

#: Small and feedback-free, so each example re-runs in well under a
#: second; two objectives give the checkpoint several cells.
SPEC = SweepSpec(
    platforms=("CPU1",),
    tasks=("image",),
    envs=("memory",),
    schemes=("Oracle", "OracleStatic", "App-only"),
    objectives=("min_energy", "min_error"),
    settings_stride=9,
    n_inputs=12,
    seeds=(3,),
)


@functools.lru_cache(maxsize=1)
def _uninterrupted() -> tuple:
    """(cells, checkpoint bytes) of one sweep run start to finish."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.jsonl")
        result = run_sweep(SPEC, workers=1, checkpoint_path=path)
        with open(path, "rb") as handle:
            return result.cells, handle.read()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resume_after_truncation_at_any_byte(data):
    cells, written = _uninterrupted()
    assert written.count(b"\n") == len(cells) > 1
    offset = data.draw(st.integers(0, len(written)), label="offset")
    kept = written[:offset]
    # Every line whose closing brace survived parses and is reused.
    whole = sum(
        1 for line in kept.split(b"\n") if line.endswith(b"}")
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.jsonl")
        with open(path, "wb") as handle:
            handle.write(kept)
        resumed = run_sweep(SPEC, workers=1, checkpoint_path=path)
        assert resumed.complete
        assert resumed.resumed == whole
        assert resumed.executed == len(cells) - whole
        assert resumed.cells == cells
        # The appended lines start on a fresh line, so the checkpoint
        # alone now holds every cell.
        on_disk = load_checkpoint(path, SPEC.fingerprint())
        fingerprints = [unit.fingerprint() for unit in resumed.units]
        assert [on_disk.get(fp) for fp in fingerprints] == cells
        again = run_sweep(SPEC, workers=1, checkpoint_path=path)
        assert again.executed == 0
        assert again.cells == cells


#: Three scenarios (CPU1 image and sentence, GPU image), groups of two
#: and four cells: enough structure for the grouping to get wrong.
PLAN_SPEC = SweepSpec(
    platforms=("CPU1", "GPU"),
    tasks=("image", "sentence"),
    schemes=("Oracle", "OracleStatic"),
    settings_stride=4,
    n_inputs=12,
    seeds=(3,),
)


@functools.lru_cache(maxsize=1)
def _plan() -> tuple:
    return tuple(compile_sweep(PLAN_SPEC))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_timing_groups_partition_pending_cells(data):
    units = list(_plan())
    done = data.draw(
        st.sets(st.integers(0, len(units) - 1)), label="checkpointed"
    )
    pending = [p for p in range(len(units)) if p not in done]
    limit = data.draw(st.none() | st.integers(0, len(pending)), label="limit")
    if limit is not None:
        pending = pending[:limit]
    groups = _timing_groups(units, pending)
    # A partition of the pending positions, in plan order.
    assert [p for group in groups for p in group] == pending
    assert all(group for group in groups)
    for group in groups:
        # One timing key per group...
        assert len({_timing_key(units[p]) for p in group}) == 1
    for left, right in zip(groups, groups[1:]):
        # ...and maximal: neighbours never share one.
        assert _timing_key(units[left[-1]]) != _timing_key(units[right[0]])


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_pooled_resume_from_any_subset_matches_serial(data):
    cells, written = _uninterrupted()
    lines = written.splitlines(keepends=True)
    kept = data.draw(
        st.lists(st.sampled_from(range(len(lines))), unique=True),
        label="checkpointed",
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[i] for i in kept))
        resumed = run_sweep(SPEC, workers=2, checkpoint_path=path)
    assert resumed.complete
    assert resumed.resumed == len(kept)
    assert resumed.executed == len(cells) - len(kept)
    assert resumed.cells == cells
