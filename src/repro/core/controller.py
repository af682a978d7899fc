"""The ALERT feedback controller (paper Section 3.2).

Since the kernel split (:mod:`repro.core.kernel`), this module holds
the *adapters*: :class:`AlertController` builds the candidate space,
estimator, selector, and filters, then delegates its two per-input
calls to a clock-free :class:`~repro.core.kernel.AlertKernel` it owns:

* :meth:`AlertController.observe` — step 1, fold in the previous
  input's measurements (translated to a clock-free
  :class:`~repro.core.kernel.Measurement`);
* :meth:`AlertController.decide` — steps 3-4, estimate every
  configuration under the (already goal-adjusted) requirements and
  pick the best one.

Goal adjustment (step 2) lives in :class:`repro.core.goals.GoalAdjuster`
and is owned by the serving driver, because it needs the input-group
structure the kernel is agnostic to.

The kernel also models its own cost: the paper measures ALERT's
scheduler at 0.6-1.7% of an input's inference time, and subtracts its
worst case from the deadline so the scheduler never causes the
violation it is preventing.  Two mechanisms keep the real cost far
below that reservation: selection runs on the vectorized batch
estimator (see :mod:`repro.core.batch_estimator`), and a decision memo
keyed on the quantized ``(goal, xi_mean, xi_sigma, phi, tail)`` state
lets converged Kalman phases skip re-estimation entirely.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal
from repro.core.kalman import IdlePowerFilter
from repro.core.kernel import (
    AlertCellKernel,
    AlertKernel,
    Measurement,
    measurement_from_outcome,
)
from repro.core.selector import ConfigSelector, SelectionResult
from repro.core.slowdown import GlobalSlowdownEstimator
from repro.errors import ConfigurationError
from repro.models.base import DnnModel
from repro.models.profiles import ProfileTable

__all__ = ["ControllerState", "AlertController", "AlertCellController"]


def lockstep_stats_dict(
    n_goals: int,
    stacked_calls: int,
    stacked_states: int,
    memo_hits: int = 0,
    memo_misses: int = 0,
) -> dict:
    """The decision-path health counters of one lockstep cell.

    The single place the stats-dict shape is defined: every stacked
    cell controller's ``lockstep_stats`` builds through this, and
    :meth:`repro.runtime.loop.LockstepTelemetry.record_cell` reads the
    same keys.
    """
    return {
        "goals": n_goals,
        "stacked_calls": stacked_calls,
        "stacked_states": stacked_states,
        "mean_batch_size": (
            stacked_states / stacked_calls if stacked_calls else 0.0
        ),
        "memo_hits": memo_hits,
        "memo_misses": memo_misses,
    }


#: Fraction of the mean profiled latency charged as worst-case
#: scheduler overhead (the paper's measured range is 0.6-1.7%).
DEFAULT_OVERHEAD_FRACTION = 0.017

#: Memo entries kept before the oldest half is evicted (dict insertion
#: order); bounds memory on very long runs with drifting environments
#: without restarting the cache cold.
DEFAULT_MEMO_CAP = 4096


@dataclass(frozen=True)
class ControllerState:
    """Snapshot of the controller's filter state (for traces/tests)."""

    xi_mean: float
    xi_sigma: float
    phi: float
    observations: int


class AlertController:
    """ALERT: joint DNN / power-cap selection with feedback.

    Construction wires the candidate machinery; the per-input state
    transitions live in the owned :class:`~repro.core.kernel.AlertKernel`
    (exposed as :attr:`kernel`, the object serving drivers feed
    directly).  Every pre-split attribute — ``slowdown``,
    ``idle_filter``, ``selector``, the memo internals — remains
    readable here via delegating properties, so trace consumers and
    the stacking fingerprint are unaffected by the split.

    Parameters
    ----------
    profile:
        Offline profile of every candidate configuration.
    models:
        Candidate networks; defaults to everything in the profile.
    powers:
        Candidate power caps; defaults to the profiled levels.
    variance_aware:
        False reproduces the mean-only ALERT* ablation.
    expand_anytime_rungs:
        Whether anytime models may be stopped at intermediate rungs
        (Section 3.5's energy saving); on by default.
    q0:
        Process-noise floor of the ξ filter (Section 3.6's robustness
        knob for heavy-tailed environments).
    overhead_fraction:
        Worst-case scheduler overhead as a fraction of the mean
        profiled latency, reserved out of every deadline.
    confidence:
        Per-constraint confidence floor for feasibility (see
        :class:`repro.core.estimator.AlertEstimator`).
    decision_memo:
        When True (default) :meth:`decide` caches selections keyed on
        the quantized filter state, so converged Kalman phases — where
        successive states round to the same key — skip re-estimation
        entirely.  Selections are always *computed* from the exact
        state; quantization only controls cache-key identity.
    memo_decimals:
        Decimal places the state is rounded to when forming memo keys
        (default 4: states within 1e-4 of each other share a decision).
    keep_xi_history:
        Retain every observed slowdown ratio for trace consumers
        (Figure 11).  Off by default — see
        :class:`repro.core.slowdown.GlobalSlowdownEstimator`.
    """

    def __init__(
        self,
        profile: ProfileTable,
        models: list[DnnModel] | None = None,
        powers: list[float] | None = None,
        variance_aware: bool = True,
        expand_anytime_rungs: bool = True,
        q0: float = 0.1,
        overhead_fraction: float = DEFAULT_OVERHEAD_FRACTION,
        confidence: float = 0.95,
        decision_memo: bool = True,
        memo_decimals: int = 4,
        keep_xi_history: bool = False,
    ) -> None:
        if overhead_fraction < 0 or overhead_fraction > 0.2:
            raise ConfigurationError(
                f"overhead fraction {overhead_fraction} outside [0, 0.2]"
            )
        self.profile = profile
        model_list = list(models) if models is not None else list(profile.models)
        power_list = list(powers) if powers is not None else list(profile.powers)
        self.space = ConfigurationSpace(
            models=model_list,
            powers=power_list,
            expand_anytime_rungs=expand_anytime_rungs,
        )
        self.estimator = AlertEstimator(
            profile, variance_aware=variance_aware, confidence=confidence
        )
        idle_ratio = profile.idle_power_w / max(
            profile.inference_power_w.values()
        )
        mean_latency = sum(profile.latency_s.values()) / len(profile.latency_s)
        self._belief_params = dict(
            q0=q0,
            keep_xi_history=keep_xi_history,
            phi0=idle_ratio,
            overhead_s=overhead_fraction * mean_latency,
            decision_memo=decision_memo,
            memo_decimals=memo_decimals,
        )
        self.kernel = self._fresh_kernel(
            ConfigSelector(self.space, self.estimator)
        )

    def _fresh_kernel(self, selector: ConfigSelector) -> AlertKernel:
        """A kernel over ``selector`` with never-observed filters."""
        p = self._belief_params
        return AlertKernel(
            selector=selector,
            profile=self.profile,
            slowdown=GlobalSlowdownEstimator(
                q0=p["q0"], keep_history=p["keep_xi_history"]
            ),
            idle_filter=IdlePowerFilter(phi0=p["phi0"]),
            overhead_s=p["overhead_s"],
            decision_memo=p["decision_memo"],
            memo_decimals=p["memo_decimals"],
            memo_cap=DEFAULT_MEMO_CAP,
        )

    def twin(self) -> "AlertController":
        """A fresh controller sharing this one's candidate machinery.

        The twin decides exactly like a newly constructed controller
        with the same arguments: its ξ/idle-power filters and decision
        memo start cold and are its own.  What it shares is immutable
        or a pure-function cache — the candidate space, the estimators
        and the selector with its per-space precompute — so a fleet
        pays for that precompute once, not once per replica.
        """
        twin = copy.copy(self)
        twin.kernel = self._fresh_kernel(self.kernel.selector)
        return twin

    # ------------------------------------------------------------------
    # Step 1: measurement feedback
    # ------------------------------------------------------------------
    def observe(
        self,
        model_name: str,
        power_w: float,
        full_latency_s: float,
        idle_power_w: float | None = None,
    ) -> float:
        """Fold in the previous input's measurements.

        Parameters
        ----------
        model_name / power_w:
            The configuration that served the input.
        full_latency_s:
            The run-to-completion latency (extrapolated from the last
            completed rung for anytime runs stopped early).
        idle_power_w:
            Measured package power during the idle phase, if there was
            one.

        Returns the observed slowdown ratio.
        """
        return self.kernel.observe(
            Measurement(
                model_name=model_name,
                power_cap_w=power_w,
                full_latency_s=full_latency_s,
                idle_power_w=idle_power_w,
            )
        )

    # ------------------------------------------------------------------
    # Steps 3-4: estimate and pick
    # ------------------------------------------------------------------
    def decide(self, goal: Goal) -> SelectionResult:
        """Select the configuration for the next input.

        ``goal`` should already be group-adjusted (workflow step 2);
        the kernel additionally reserves its own worst-case overhead
        from the deadline.
        """
        return self.kernel.decide(goal)

    # ------------------------------------------------------------------
    # Introspection (delegating views of the kernel state)
    # ------------------------------------------------------------------
    @property
    def selector(self) -> ConfigSelector:
        return self.kernel.selector

    @property
    def slowdown(self) -> GlobalSlowdownEstimator:
        return self.kernel.slowdown

    @property
    def idle_filter(self) -> IdlePowerFilter:
        return self.kernel.idle_filter

    @property
    def _overhead_s(self) -> float:
        return self.kernel.overhead_s

    @property
    def _memo(self) -> dict | None:
        return self.kernel.memo

    @property
    def _memo_decimals(self) -> int:
        return self.kernel.memo_decimals

    @property
    def _MEMO_CAP(self) -> int:
        return self.kernel.memo_cap

    @_MEMO_CAP.setter
    def _MEMO_CAP(self, value: int) -> None:
        self.kernel.memo_cap = value

    @property
    def worst_case_overhead_s(self) -> float:
        """The per-decision overhead reserved from each deadline."""
        return self.kernel.overhead_s

    @property
    def last_selection(self) -> SelectionResult | None:
        """The most recent selection (None before the first decide)."""
        return self.kernel.last_selection

    @property
    def memo_stats(self) -> tuple[int, int]:
        """(hits, misses) of the decision memo since construction."""
        return self.kernel.memo_hits, self.kernel.memo_misses

    def state(self) -> ControllerState:
        """Snapshot of the filters for traces and tests."""
        return ControllerState(
            xi_mean=self.kernel.slowdown.mean,
            xi_sigma=self.kernel.slowdown.sigma,
            phi=self.kernel.idle_filter.phi,
            observations=self.kernel.slowdown.observations,
        )

    def configurations(self) -> list[Configuration]:
        """The full candidate space (for inspection)."""
        return list(self.space)


class AlertCellController(AlertCellKernel):
    """Lockstep ALERT across a cell's goal grid (one state per goal).

    Every goal of a fused cell consumes the same input sequence, so
    their independent ALERT states — ξ filter, idle-power filter, tail
    model, decision memo — can advance in lockstep: one stacked
    :meth:`observe_many` pass folds in all goals' measurements, and one
    :meth:`~repro.core.kernel.AlertCellKernel.decide_many` pass
    computes every goal's selection through
    :meth:`repro.core.selector.ConfigSelector.select_many` (single
    fused erf + lexsort per step, covering exactly the goals whose
    quantized state missed their memo).  Each goal's trajectory is
    bit-identical to a fresh :class:`AlertController` serving that goal
    alone (``tests/test_lockstep_parity.py``).

    The stacked state transitions live in the clock-free
    :class:`~repro.core.kernel.AlertCellKernel` base; this adapter
    owns the harness-facing conventions — outcome-shaped records in
    :meth:`observe_many` (periods resolved to idle-phase samples via
    :func:`~repro.core.kernel.measurement_from_outcome`) and the
    telemetry surface the lockstep loops read.

    Build through :meth:`from_controllers`, which validates that the
    per-goal controllers are fresh and structurally identical (same
    candidate space, estimator settings, filter parameters, memo
    configuration) and returns ``None`` when they are not — callers
    fall back to the sequential per-goal path.
    """

    @classmethod
    def from_controllers(
        cls, controllers: "list[AlertController]"
    ) -> "AlertCellController | None":
        """A stacked controller equivalent to ``controllers``, or None.

        Returns ``None`` — never raises — when the controllers cannot
        be stacked: not plain :class:`AlertController` instances, not
        fresh (any filter already observed, any decision already
        made), or structurally different (candidate space, estimator
        mode, overhead, filter or memo parameters).  Custom controller
        subclasses are rejected on purpose: their overridden behaviour
        must keep running on the sequential reference path.
        """
        if not controllers:
            return None
        for controller in controllers:
            if type(controller) is not AlertController:
                return None
            if (
                controller.slowdown.observations != 0
                or controller.idle_filter.updates != 0
                or controller.last_selection is not None
            ):
                return None
            if controller._memo is not None and controller._memo:
                return None
            # ξ-history retention is a trace contract the stacked
            # estimator does not replicate; such runs stay sequential
            # so history() keeps returning the full trace.
            if controller.slowdown.keeps_history:
                return None
        first = controllers[0]
        if first.selector.batch is None:
            return None

        def fingerprint(controller: "AlertController") -> tuple:
            xi = controller.slowdown._filter
            idle = controller.idle_filter
            return (
                id(controller.profile),
                tuple(
                    (id(config.model), config.power_w, config.rung_cap)
                    for config in controller.space
                ),
                controller.estimator.variance_aware,
                controller.estimator.confidence,
                controller._overhead_s,
                controller._memo is not None,
                controller._memo_decimals,
                controller._MEMO_CAP,
                (xi.mu, xi.var, xi.gain, xi.measurement_noise, xi.q_cap, xi.alpha),
                (
                    controller.slowdown._min_sigma,
                    controller.slowdown._tail_threshold,
                    controller.slowdown._tail_ewma,
                ),
                (
                    idle.phi,
                    idle.variance,
                    idle.process_noise,
                    idle.measurement_noise,
                ),
            )

        reference = fingerprint(first)
        if any(fingerprint(c) != reference for c in controllers[1:]):
            return None
        xi = first.slowdown._filter
        idle = first.idle_filter
        return cls(
            selector=first.selector,
            profile=first.profile,
            n_goals=len(controllers),
            overhead_s=first._overhead_s,
            q0=xi.q_cap,
            min_sigma=first.slowdown._min_sigma,
            tail_threshold_sigmas=first.slowdown._tail_threshold,
            tail_ewma=first.slowdown._tail_ewma,
            phi0=np.array([c.idle_filter.phi for c in controllers]),
            idle_m0=idle.variance,
            idle_s=idle.process_noise,
            idle_v=idle.measurement_noise,
            memo_decimals=first._memo_decimals,
            memo_cap=first._MEMO_CAP,
            decision_memo=first._memo is not None,
        )

    # ------------------------------------------------------------------
    # Step 1: measurement feedback, all goals at once
    # ------------------------------------------------------------------
    def observe_many(self, outcomes) -> None:
        """Fold every goal's previous-input measurements in, stacked.

        ``outcomes`` holds one :class:`InferenceOutcome`-shaped record
        per goal; each is translated to its clock-free
        :class:`~repro.core.kernel.Measurement` (the ξ observation uses
        the run-to-completion latency and the idle-power filter only
        sees goals whose period had an idle phase — exactly the
        :class:`AlertScheduler` measurement conventions) before the
        stacked kernel pass.
        """
        super().observe_many(
            [measurement_from_outcome(o) for o in outcomes]
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def worst_case_overhead_s(self) -> float:
        """The per-decision overhead reserved from each deadline."""
        return self.overhead_s

    def state_for(self, g: int) -> ControllerState:
        """Snapshot of goal ``g``'s filters (mirrors ``state()``)."""
        return ControllerState(
            xi_mean=float(self.slowdown.mean[g]),
            xi_sigma=float(self.slowdown.sigma[g]),
            phi=float(self.idle_filter.phi[g]),
            observations=self.slowdown.observations,
        )

    def xi_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-goal (mean, sigma) arrays (record bookkeeping)."""
        return self.slowdown.mean, self.slowdown.sigma

    @property
    def memo_stats(self) -> tuple[int, int]:
        """(hits, misses) across all goals since construction."""
        return self.memo_hits, self.memo_misses

    @property
    def lockstep_stats(self) -> dict:
        """Decision-path health counters for benches and telemetry."""
        return lockstep_stats_dict(
            self.n_goals,
            self.stacked_calls,
            self.stacked_states,
            self.memo_hits,
            self.memo_misses,
        )
