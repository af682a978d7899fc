"""Property test for the sweep engine's crash-resume.

A JSONL checkpoint cut at an arbitrary byte (mid-line included)
resumes into summaries identical to an uninterrupted run's, and leaves
a checkpoint that on its own resumes every cell.
"""

from __future__ import annotations

import functools
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.sweep import SweepSpec, load_checkpoint, run_sweep

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

