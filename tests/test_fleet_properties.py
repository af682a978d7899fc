"""Property tests over the fleet: conservation and shared-realisation parity.

``build_fleet`` gives every replica a twin engine reading one shared
environment realisation and a twin scheduler sharing one selector
precompute.  These properties pin that sharing as a pure optimisation:
over random seeds, rates, horizons, the three balancing policies and
the four (autoscaler, budget) corners, a built fleet conserves every
arrival, and it is bit-identical to the same fleet whose replicas each
get an independently built engine and scheduler — scale-ups included.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_alert
from repro.hw.contention import ContentionPhase
from repro.models.inference import InferenceEngine
from repro.runtime.scheduler import AlertScheduler
from repro.serve import FleetConfig, build_fleet
from repro.serve.policies import POLICY_KINDS
from repro.workloads.scenarios import build_scenario

#: The overload study's adaptivity corners: (autoscaler, budget).
CORNERS = (
    ("none", "equal"),
    ("none", "xi-weighted"),
    ("signal", "equal"),
    ("signal", "xi-weighted"),
)


@st.composite
def fleet_configs(draw) -> FleetConfig:
    autoscaler, budget = draw(st.sampled_from(CORNERS))
    replicas = draw(st.integers(1, 3))
    phases = ()
    if draw(st.booleans()):
        start = draw(st.integers(0, 60))
        phases = (ContentionPhase(start=start, stop=start + 80, active=True),)
    return FleetConfig(
        seed=draw(st.integers(0, 2**31 - 1)),
        arrivals=draw(st.sampled_from(("poisson", "mmpp"))),
        rate_hz=None,
        arrival_seed=draw(st.integers(0, 2**16)),
        replicas=replicas,
        policy=draw(st.sampled_from(POLICY_KINDS)),
        queue_capacity=draw(st.sampled_from((8, 64, None))),
        budget=budget,
        power_budget_w=45.0 * replicas,
        autoscaler=autoscaler,
        max_replicas=3 * replicas,
        phases=phases,
    )


def _load(config: FleetConfig, load: float) -> FleetConfig:
    """``config`` at ``load`` × its replicas' anchor-latency capacity."""
    anchor = build_scenario(
        config.platform, config.task, config.env, config.candidates, config.seed
    ).anchor_latency_s()
    return FleetConfig(
        **{**config.__dict__, "rate_hz": load * config.replicas / anchor}
    )


@contextmanager
def independent_twins(config: FleetConfig):
    """Make ``build_fleet`` give every replica its own fresh realisation.

    Each "twin" becomes a newly built engine and scheduler from the
    same scenario seeds — the construction ``build_fleet`` used before
    replicas shared one realisation and one selector precompute.
    """
    scenario = build_scenario(
        config.platform, config.task, config.env, config.candidates, config.seed
    )
    phases = list(config.phases) or None
    with mock.patch.object(
        InferenceEngine, "twin", lambda self: scenario.make_engine(phases)
    ), mock.patch.object(
        AlertScheduler, "twin", lambda self: make_alert(scenario.profile())
    ):
        yield


def _run(config: FleetConfig, horizon_s: float):
    fleet = build_fleet(config)
    summary = fleet.run(horizon_s)
    return fleet, summary


def _fingerprint(fleet, summary) -> tuple:
    events = fleet.autoscaler.events if fleet.autoscaler is not None else []
    return (
        summary,
        dict(fleet.metrics.__dict__),
        list(events),
        [
            (r.replica_id, r.served, r.decisions, r.power_cap_w)
            for r in fleet.replicas
        ],
    )


@settings(max_examples=25, deadline=None)
@given(
    config=fleet_configs(),
    load=st.floats(0.3, 2.5),
    horizon_s=st.floats(0.5, 10.0),
)
def test_fleet_conserves_every_arrival(config, load, horizon_s):
    fleet, summary = _run(_load(config, load), horizon_s)
    queued = sum(len(replica.queue) for replica in fleet.replicas)
    in_flight = sum(replica.backlog for replica in fleet.replicas) - queued
    assert summary["arrived"] == (
        summary["served"] + summary["dropped"] + queued + in_flight
    )
    assert summary["admitted"] <= summary["arrived"]


@settings(max_examples=20, deadline=None)
@given(
    config=fleet_configs(),
    load=st.floats(0.3, 2.5),
    horizon_s=st.floats(0.5, 10.0),
)
def test_shared_realisation_matches_independent_twins(config, load, horizon_s):
    config = _load(config, load)
    shared = _fingerprint(*_run(config, horizon_s))
    with independent_twins(config):
        independent = _fingerprint(*_run(config, horizon_s))
    assert shared == independent


def test_shared_realisation_matches_independent_twins_across_scale_ups():
    """A bursty overload that makes the autoscaler build fresh lanes."""
    config = _load(
        FleetConfig(
            arrivals="mmpp",
            replicas=2,
            policy="cost-aware",
            budget="xi-weighted",
            power_budget_w=90.0,
            autoscaler="signal",
            max_replicas=6,
        ),
        0.9,
    )
    fleet, summary = _run(config, 30.0)
    assert summary["autoscaler"]["scale_ups"] > 0
    assert len(fleet.replicas) > config.replicas  # factory-built lanes
    with independent_twins(config):
        independent = _fingerprint(*_run(config, 30.0))
    assert _fingerprint(fleet, summary) == independent
