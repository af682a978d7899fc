"""Parity suite for the feedback-free batch serving fast path.

Pins the contract of :meth:`repro.runtime.loop.ServingLoop.run`: for
schedulers that declare ``feedback_free`` (Oracle, OracleStatic,
App-only), the batch fast path must reproduce the sequential reference
run — identical decisions, identical discrete record fields, float
fields equal to within 1 ulp of floating-point associativity (the
engine's vectorized pass reorders no arithmetic, but ``numpy`` and
``libm`` may round ``**`` differently), and identical violation flags
and aggregates.  Feedback schemes, requirement traces, and grouped
(sentence) streams must keep the sequential path.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config_space import Configuration
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.experiments.harness import make_scheme
from repro.models.inference import GridView
from repro.runtime.loop import ServingLoop
from repro.workloads.scenarios import build_scenario
from repro.workloads.traces import RequirementChange, RequirementTrace

#: Float fields must agree to 1 ulp; violation flags use 1e-9-scale
#: tolerances, so this margin can never flip a flag in practice.
REL_TOL = 1e-12

FEEDBACK_FREE_SCHEMES = ("Oracle", "OracleStatic", "App-only")

FLOAT_FIELDS = (
    "latency_s",
    "full_latency_s",
    "quality",
    "metric_value",
    "energy_j",
    "inference_power_w",
    "idle_power_w",
    "env_factor",
)
EXACT_FIELDS = (
    "index",
    "model_name",
    "power_cap_w",
    "effective_cap_w",
    "met_deadline",
    "completed_rungs",
    "deadline_s",
    "period_s",
)


def _goal(scenario, objective):
    anchor = scenario.anchor_latency_s()
    if objective is ObjectiveKind.MINIMIZE_ENERGY:
        return Goal(
            objective=objective, deadline_s=anchor, accuracy_min=0.9
        )
    return Goal(
        objective=objective,
        deadline_s=anchor,
        energy_budget_j=scenario.machine.default_power() * anchor * 0.6,
    )


def _run(scenario, scheme, goal, n_inputs, batch):
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    scheduler = make_scheme(scheme, scenario, engine, stream, goal, n_inputs)
    return ServingLoop(engine, stream, scheduler, goal).run(
        n_inputs, batch=batch
    )


def _assert_record_parity(sequential, batch):
    assert sequential.scheduler_name == batch.scheduler_name
    assert len(sequential.records) == len(batch.records)
    for ra, rb in zip(sequential.records, batch.records):
        for field in EXACT_FIELDS:
            assert getattr(ra.outcome, field) == getattr(rb.outcome, field)
        for field in FLOAT_FIELDS:
            assert getattr(ra.outcome, field) == pytest.approx(
                getattr(rb.outcome, field), rel=REL_TOL, abs=0.0
            ), field
        assert ra.goal == rb.goal
        assert ra.effective_deadline_s == rb.effective_deadline_s
        assert ra.latency_violation == rb.latency_violation
        assert ra.accuracy_violation == rb.accuracy_violation
        assert ra.energy_violation == rb.energy_violation
        assert (ra.xi_mean, ra.xi_sigma) == (rb.xi_mean, rb.xi_sigma)
    assert sequential.violation_fraction == batch.violation_fraction
    assert sequential.mean_energy_j == pytest.approx(
        batch.mean_energy_j, rel=REL_TOL
    )
    assert sequential.mean_quality == pytest.approx(
        batch.mean_quality, rel=REL_TOL
    )


@pytest.mark.parametrize("scheme", FEEDBACK_FREE_SCHEMES)
@pytest.mark.parametrize(
    ("platform", "env", "seed"),
    [
        ("CPU1", "default", 13),
        ("CPU2", "memory", 31),
        ("GPU", "compute", 47),
        ("EMBEDDED", "memory", 59),
    ],
)
@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
)
def test_batch_path_matches_sequential(platform, env, seed, scheme, objective):
    scenario = build_scenario(platform, "image", env, "standard", seed=seed)
    goal = _goal(scenario, objective)
    sequential = _run(scenario, scheme, goal, 25, batch=False)
    batch = _run(scenario, scheme, goal, 25, batch=True)
    _assert_record_parity(sequential, batch)


def test_decide_batch_matches_per_item_decides(image_scenario):
    from repro.baselines.oracle import OracleScheduler, oracle_outcome_grid
    from repro.experiments.harness import scheme_space

    scenario = image_scenario
    goal = _goal(scenario, ObjectiveKind.MINIMIZE_ENERGY)
    space = scheme_space(scenario)
    n = 30
    grid = oracle_outcome_grid(
        scenario.make_engine(), space, goal, scenario.make_stream(), n
    )
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    oracle = OracleScheduler(engine, space, grid=grid)
    items = [stream.item(i) for i in range(n)]
    vectorized = oracle.decide_batch(items, goal)
    one_by_one = [oracle.decide(item, goal) for item in items]
    assert [c.key for c in vectorized] == [c.key for c in one_by_one]


def test_auto_mode_uses_batch_for_feedback_free(image_scenario, monkeypatch):
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_scheme("App-only", image_scenario, engine, stream, goal, 10)
    loop = ServingLoop(engine, stream, scheduler, goal)

    def boom(items):
        raise AssertionError("sequential path must not run")

    monkeypatch.setattr(loop, "_run_sequential", boom)
    result = loop.run(10)
    assert result.n_inputs == 10


def test_auto_mode_keeps_feedback_schemes_sequential(image_scenario, monkeypatch):
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_scheme("ALERT", image_scenario, engine, stream, goal, 10)
    loop = ServingLoop(engine, stream, scheduler, goal)

    def boom(items):
        raise AssertionError("batch path must not run for ALERT")

    monkeypatch.setattr(loop, "_run_batch", boom)
    result = loop.run(10)
    assert result.n_inputs == 10


def test_forcing_batch_on_feedback_scheme_raises(image_scenario):
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_scheme("ALERT", image_scenario, engine, stream, goal, 10)
    loop = ServingLoop(engine, stream, scheduler, goal)
    with pytest.raises(ConfigurationError):
        loop.run(10, batch=True)


def test_grouped_streams_fall_back_to_sequential(monkeypatch):
    scenario = build_scenario("CPU1", "sentence", "default", "standard", seed=7)
    goal = _goal(scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    scheduler = make_scheme("App-only", scenario, engine, stream, goal, 12)
    loop = ServingLoop(engine, stream, scheduler, goal)

    def boom(items):
        raise AssertionError("grouped inputs must stay sequential")

    monkeypatch.setattr(loop, "_run_batch", boom)
    result = loop.run(12)
    assert result.n_inputs == 12


def test_requirement_trace_falls_back_to_sequential(image_scenario, monkeypatch):
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_scheme("App-only", image_scenario, engine, stream, goal, 8)
    trace = RequirementTrace(
        [RequirementChange(start_index=4, deadline_s=goal.deadline_s * 2)]
    )
    loop = ServingLoop(engine, stream, scheduler, goal, requirement_trace=trace)

    def boom(items):
        raise AssertionError("trace-driven runs must stay sequential")

    monkeypatch.setattr(loop, "_run_batch", boom)
    result = loop.run(8)
    assert result.n_inputs == 8


# ----------------------------------------------------------------------
# Property: the whole-run gather against the sequential reference
# ----------------------------------------------------------------------
class _ScriptedScheduler:
    """A feedback-free policy replaying a fixed decision per input."""

    feedback_free = True
    name = "Scripted"

    def __init__(self, script, grid_view=None) -> None:
        self.script = script
        self.grid_view = grid_view

    def decide(self, item, goal):
        return self.script[item.index]

    def decide_batch(self, items, goal):
        return [self.script[item.index] for item in items]

    def observe(self, outcome) -> None:
        """Feedback-free: nothing to learn."""


@functools.lru_cache(maxsize=None)
def _property_scenario(platform, seed=19):
    return build_scenario(platform, "image", "memory", "standard", seed=seed)


def _pool(scenario) -> list:
    """Candidate configurations plus caps that lie on no grid row."""
    configs = list(scenario.space())[::13]
    off_grid = [
        Configuration(
            model=config.model,
            power_w=config.power_w * 0.97,
            rung_cap=config.rung_cap,
        )
        for config in configs[:3]
    ]
    return configs + off_grid


def _grid_arrays(grid) -> list[np.ndarray]:
    return [
        value for value in vars(grid).values() if isinstance(value, np.ndarray)
    ]


def _closure_arrays(thunk) -> list[np.ndarray]:
    found = []
    pending = [cell.cell_contents for cell in thunk.__closure__ or ()]
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (list, tuple)):
            pending.extend(value)
    return found


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    platform=st.sampled_from(["CPU1", "GPU"]),
    pattern=st.sampled_from(["one", "distinct", "interleaved"]),
    coverage=st.sampled_from(["full", "some_rows", "short", "none", "diverged"]),
    trusted=st.booleans(),
    objective=st.sampled_from(list(ObjectiveKind)),
)
def test_gather_matches_sequential(
    data, platform, pattern, coverage, trusted, objective
):
    scenario = _property_scenario(platform)
    goal = _goal(scenario, objective)
    pool = _pool(scenario)
    n = data.draw(st.integers(1, 30), label="n")
    if pattern == "one":
        script = [pool[data.draw(st.integers(0, len(pool) - 1))]] * n
    elif pattern == "distinct":
        n = min(n, len(pool))
        script = data.draw(st.permutations(pool), label="order")[:n]
    else:
        few = data.draw(
            st.lists(st.sampled_from(pool), min_size=2, max_size=4), label="few"
        )
        script = data.draw(
            st.lists(st.sampled_from(few), min_size=n, max_size=n),
            label="script",
        )

    grid = None
    if coverage != "none":
        rows = list(scenario.space())
        if coverage == "some_rows":
            rows = rows[::2]
        width = n - 1 if coverage == "short" and n > 1 else n
        source = scenario
        if coverage == "diverged":
            source = _property_scenario(platform, seed=20)
            trusted = False  # a trusted view promises same-seed draws
        grid = source.make_engine().evaluate_batch(
            configs=tuple(rows),
            indices=range(width),
            deadline_s=goal.deadline_s,
            period_s=goal.period,
            work_factors=[
                source.make_stream().item(i).work_factor for i in range(width)
            ],
        )

    def serve(batch):
        engine = scenario.make_engine()
        view = GridView(grid, trusted=trusted) if grid is not None else None
        loop = ServingLoop(
            engine, scenario.make_stream(), _ScriptedScheduler(script), goal,
            grid_view=view,
        )
        return loop, engine, loop.run(n, batch=batch)

    seq_loop, seq_engine, sequential = serve(False)
    batch_loop, batch_engine, batched = serve(True)

    # Nothing the deferred record build holds may alias the grid (a
    # shared-memory segment is detached once its cell finishes).
    if grid is not None:
        for held in _closure_arrays(batched._materialize):
            for plane in _grid_arrays(grid):
                assert not np.shares_memory(held, plane)

    arrays = batched.arrays
    records = sequential.records
    for name, field in (
        ("latency_s", "latency_s"),
        ("quality", "quality"),
        ("energy_j", "energy_j"),
        ("metric_value", "metric_value"),
    ):
        expected = [getattr(record.outcome, field) for record in records]
        assert getattr(arrays, name).tolist() == pytest.approx(
            expected, rel=REL_TOL, abs=0.0
        ), name
    assert arrays.violated.tolist() == [r.violated for r in records]
    assert arrays.latency_violation.tolist() == [
        r.latency_violation for r in records
    ]
    _assert_record_parity(sequential, batched)

    seq_actuator, batch_actuator = seq_engine.actuator, batch_engine.actuator
    assert batch_actuator.requested_cap_w == seq_actuator.requested_cap_w
    assert batch_actuator.effective_cap_w == seq_actuator.effective_cap_w
    assert batch_loop.clock.ticks == seq_loop.clock.ticks == n
    assert batch_loop.clock.now() == pytest.approx(
        seq_loop.clock.now(), rel=REL_TOL, abs=0.0
    )
