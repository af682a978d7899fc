"""Tests for the Eq. 5 and Eq. 8 Kalman filters."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kalman import (
    AdaptiveKalmanFilter,
    IdlePowerFilter,
    StackedIdlePowerFilter,
    StackedKalmanFilter,
)
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError


def test_initial_values_follow_paper():
    filt = AdaptiveKalmanFilter()
    assert filt.mu == 1.0
    assert filt.var == pytest.approx(0.1)
    assert filt.gain == 0.5
    assert filt.measurement_noise == 0.001
    assert filt.q_cap == 0.1
    assert filt.alpha == 0.3


def test_converges_to_constant_signal():
    filt = AdaptiveKalmanFilter()
    for _ in range(60):
        filt.update(1.5)
    assert filt.mu == pytest.approx(1.5, abs=0.01)


def test_variance_shrinks_in_quiet_environment():
    filt = AdaptiveKalmanFilter()
    rng = np.random.default_rng(0)
    for _ in range(200):
        filt.update(1.0 + rng.normal(0, 0.02))
    assert filt.sigma < 0.1  # far below the initial sqrt(0.1)


def test_variance_grows_under_volatility():
    filt = AdaptiveKalmanFilter()
    rng = np.random.default_rng(0)
    for _ in range(100):
        filt.update(1.0 + rng.normal(0, 0.02))
    quiet_sigma = filt.sigma
    for _ in range(30):
        filt.update(float(rng.choice([1.0, 2.2])))
    assert filt.sigma > quiet_sigma * 2


def test_process_noise_capped_at_q0():
    # Eq. 5's prose: Q is "capped with Q(0)".
    filt = AdaptiveKalmanFilter(q0=0.1)
    for value in (1.0, 5.0, 0.2, 6.0, 0.1, 7.0):
        filt.update(value)
        assert filt.process_noise <= 0.1 + 1e-12


def test_reacts_within_few_inputs_to_regime_change():
    # Section 3.6: "after just 2-3 such bad predictions ... the
    # estimated variance will increase".
    filt = AdaptiveKalmanFilter()
    for _ in range(50):
        filt.update(1.0)
    baseline_sigma = filt.sigma
    for _ in range(3):
        filt.update(1.8)
    assert filt.mu > 1.5  # mean moved most of the way
    assert filt.sigma > baseline_sigma


def test_rejects_nonpositive_measurements():
    filt = AdaptiveKalmanFilter()
    with pytest.raises(ConfigurationError):
        filt.update(0.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        AdaptiveKalmanFilter(var0=0.0)
    with pytest.raises(ConfigurationError):
        AdaptiveKalmanFilter(k0=1.0)
    with pytest.raises(ConfigurationError):
        AdaptiveKalmanFilter(alpha=2.0)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=50))
def test_state_always_finite_and_positive(measurements):
    filt = AdaptiveKalmanFilter()
    for m in measurements:
        filt.update(m)
    assert np.isfinite(filt.mu)
    assert filt.var > 0
    assert 0 < filt.gain < 1
    assert filt.updates == len(measurements)


# ----------------------------------------------------------------------
# Idle power filter (Eq. 8)
# ----------------------------------------------------------------------
def test_idle_filter_initial_values():
    filt = IdlePowerFilter()
    assert filt.variance == pytest.approx(0.01)
    assert filt.process_noise == pytest.approx(0.0001)
    assert filt.measurement_noise == pytest.approx(0.001)


def test_idle_filter_converges_to_ratio():
    filt = IdlePowerFilter(phi0=0.5)
    for _ in range(60):
        filt.update(idle_power_w=4.0, inference_power_w=40.0)
    assert filt.phi == pytest.approx(0.1, abs=0.01)
    assert filt.idle_power(40.0) == pytest.approx(4.0, abs=0.5)


def test_idle_filter_tracks_contention_onset():
    filt = IdlePowerFilter(phi0=0.1)
    for _ in range(20):
        filt.update(idle_power_w=16.0, inference_power_w=40.0)
    assert filt.phi > 0.3


def test_idle_filter_rejects_invalid():
    filt = IdlePowerFilter()
    with pytest.raises(ConfigurationError):
        filt.update(-1.0, 40.0)
    with pytest.raises(ConfigurationError):
        filt.update(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        filt.idle_power(0.0)


# ----------------------------------------------------------------------
# Non-finite measurements: rejected loudly, state left untouched
# ----------------------------------------------------------------------
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _warm_filters():
    """One of every filter, each with a few valid samples folded in."""
    kalman = AdaptiveKalmanFilter()
    idle = IdlePowerFilter()
    slowdown = GlobalSlowdownEstimator()
    stacked = StackedKalmanFilter(3)
    stacked_idle = StackedIdlePowerFilter(np.full(3, 0.2))
    stacked_slowdown = StackedSlowdownEstimator(3)
    for ratio in (1.1, 0.9, 1.4):
        kalman.update(ratio)
        idle.update(10.0 * ratio, 40.0)
        slowdown.observe(ratio, 1.0)
        stacked.update(np.full(3, ratio))
        stacked_idle.update_where(
            np.array([True, False, True]), np.full(3, 10.0 * ratio), np.full(3, 40.0)
        )
        stacked_slowdown.observe(np.full(3, ratio), np.ones(3))
    return kalman, idle, slowdown, stacked, stacked_idle, stacked_slowdown


def _rejects_unchanged(target, update) -> None:
    before = pickle.dumps(target)
    with pytest.raises(ConfigurationError, match="finite"):
        update()
    assert pickle.dumps(target) == before


@pytest.mark.parametrize("bad", NON_FINITE)
def test_scalar_filters_reject_non_finite_and_keep_state(bad):
    kalman, idle, slowdown, *_ = _warm_filters()
    _rejects_unchanged(kalman, lambda: kalman.update(bad))
    _rejects_unchanged(idle, lambda: idle.update(bad, 40.0))
    _rejects_unchanged(idle, lambda: idle.update(10.0, bad))
    _rejects_unchanged(slowdown, lambda: slowdown.observe(bad, 1.0))
    _rejects_unchanged(slowdown, lambda: slowdown.observe(1.0, bad))
    assert np.isfinite(slowdown.mean) and np.isfinite(slowdown.sigma)


def test_slowdown_rejects_overflowing_ratio():
    slowdown = GlobalSlowdownEstimator()
    _rejects_unchanged(slowdown, lambda: slowdown.observe(1e308, 1e-300))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_stacked_filters_reject_non_finite_and_keep_state(bad):
    *_, stacked, stacked_idle, stacked_slowdown = _warm_filters()
    one_bad = np.array([1.0, bad, 1.2])
    _rejects_unchanged(stacked, lambda: stacked.update(one_bad))
    mask = np.array([True, True, False])
    _rejects_unchanged(
        stacked_idle,
        lambda: stacked_idle.update_where(mask, one_bad, np.full(3, 40.0)),
    )
    _rejects_unchanged(
        stacked_idle,
        lambda: stacked_idle.update_where(mask, np.full(3, 10.0), one_bad),
    )
    _rejects_unchanged(
        stacked_slowdown, lambda: stacked_slowdown.observe(one_bad, np.ones(3))
    )
    _rejects_unchanged(
        stacked_slowdown, lambda: stacked_slowdown.observe(np.ones(3), one_bad)
    )


def test_stacked_idle_filter_ignores_masked_out_placeholders():
    *_, stacked_idle, _ = _warm_filters()
    # Entries outside the mask carry no sample; only sampled ones are
    # checked.
    stacked_idle.update_where(
        np.array([True, False, True]),
        np.array([10.0, np.nan, 12.0]),
        np.full(3, 40.0),
    )
    assert np.isfinite(stacked_idle.phi).all()
