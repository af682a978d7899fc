"""The clock-free decision kernel behind every feedback scheme.

ALERT's runtime is two state transitions (paper Section 3.2):

* ``observe(measurement) -> state'`` — fold the previous input's
  measurements into the belief state (ξ filter, idle-power filter,
  tail model);
* ``decide(goal[, item]) -> selection`` — estimate every candidate
  configuration under the current belief and pick the best one.

Neither transition needs to know *when* inputs happen: periods, input
streams, arrival processes, and record realisation are all properties
of whatever drives the kernel — the batch harness's simulated clock
(:mod:`repro.runtime.clock`), or the open-loop serving front-end's
event loop (:mod:`repro.serve`).  This module pins that boundary:

* :class:`Measurement` is the clock-free observation record.  The one
  piece of timing knowledge a driver must resolve before observing —
  whether the period had an idle phase, which decides if the idle-power
  filter gets a sample — is resolved *by the driver* via
  :func:`measurement_from_outcome`.
* :class:`AlertKernel` owns ALERT's scalar belief state and the
  estimate/select step (including the quantized-state decision memo).
  :class:`repro.core.controller.AlertController` is a thin adapter
  that builds the candidate machinery and delegates here.
* :class:`AlertCellKernel` is the stacked (lockstep) twin: one belief
  state per goal of a fused cell, advanced with one stacked
  ``observe_many``/``decide_many`` pass per input step.
  :class:`repro.core.controller.AlertCellController` adapts it to the
  harness's outcome-record convention.

The baselines follow the same split: :class:`repro.baselines.sys_only`
and :class:`repro.baselines.no_coord` define their own kernels, and
feedback-free schemes (Oracle, OracleStatic, App-only, Static) satisfy
the protocol trivially — their ``observe`` is a no-op, so they are
their own kernels.  Every split is behaviour-preserving: the parity
suites pin the adapters bit-identical to their pre-split trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.goals import Goal
from repro.core.kalman import IdlePowerFilter, StackedIdlePowerFilter
from repro.core.selector import ConfigSelector, SelectionResult
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError
from repro.models.profiles import ProfileTable

__all__ = [
    "Measurement",
    "measurement_from_outcome",
    "DecisionKernel",
    "kernel_of",
    "AlertKernel",
    "AlertCellKernel",
]


@dataclass(slots=True)
class Measurement:
    """One served input's feedback, stripped of all timing context.

    Attributes
    ----------
    model_name / power_cap_w:
        The configuration that served the input (the machine-clamped
        *requested* cap, the frame of reference feedback is keyed on).
    full_latency_s:
        The run-to-completion latency (extrapolated from the last
        completed rung for anytime runs stopped early).
    idle_power_w:
        Measured package power during the period's idle phase, or
        ``None`` when the period had no idle phase.  Deciding *whether*
        there was one is the driver's job — see
        :func:`measurement_from_outcome`.
    """

    model_name: str
    power_cap_w: float
    full_latency_s: float
    idle_power_w: float | None = None


def measurement_from_outcome(outcome) -> Measurement:
    """The clock-free measurement of one outcome-shaped record.

    ``outcome`` is anything carrying the
    :class:`~repro.models.inference.InferenceOutcome` measurement
    fields (the loops' ``_ObservedProxy`` qualifies).  This is the one
    place the period is consulted: a period longer than the occupied
    latency had an idle phase, so its idle-power sample is real;
    otherwise the idle-power filter sees nothing — exactly the
    :class:`~repro.runtime.scheduler.AlertScheduler` measurement
    convention the paper describes.
    """
    idle_power = None
    if outcome.period_s > outcome.latency_s:
        idle_power = outcome.idle_power_w
    return Measurement(
        model_name=outcome.model_name,
        power_cap_w=outcome.power_cap_w,
        full_latency_s=outcome.full_latency_s,
        idle_power_w=idle_power,
    )


@runtime_checkable
class DecisionKernel(Protocol):
    """What a serving driver needs from a policy's decision state.

    ``decide`` picks a configuration for the next input under a goal
    (``item`` carries the clock-free input descriptor — index, work
    factor — which perfect-knowledge baselines read and feedback
    kernels ignore); ``observe`` folds a :class:`Measurement` in.
    Feedback-free schedulers satisfy the protocol as-is: their
    ``observe`` ignores its argument.
    """

    def decide(self, item, goal: Goal):
        """Pick the configuration for ``item`` under ``goal``."""
        ...  # pragma: no cover - protocol

    def observe(self, measurement: Measurement) -> None:
        """Fold one input's measurement into the belief state."""
        ...  # pragma: no cover - protocol


def kernel_of(scheduler):
    """The decision kernel behind a scheduler.

    Feedback schedulers expose their kernel as a ``kernel`` attribute;
    feedback-free schedulers *are* their kernel (``observe`` is a
    no-op that accepts any record).  The serving front-end uses this to
    drive measurement-level feedback without threading outcome records
    through the policy layer.
    """
    kernel = getattr(scheduler, "kernel", None)
    return kernel if kernel is not None else scheduler


def evict_oldest_half(memo: dict) -> None:
    """Drop the least-recently-inserted half of a decision memo.

    Dict insertion order is the age order here (entries are only ever
    added), so this keeps the newer half — the states a converged or
    slowly drifting filter is actually revisiting — instead of
    restarting cold, which made every memo hit vanish each time the
    cap was crossed.
    """
    for key in list(islice(iter(memo), len(memo) // 2)):
        del memo[key]


class _OverheadReserve:
    """The ``overhead_s`` attribute of a kernel that caches on it.

    Both ALERT kernels cache overhead-adjusted goals, and memo entries
    keyed on them; assigning a new reservation flushes those caches
    (``_flush_goal_caches``), so no decision made under the old
    reservation is ever returned again.
    """

    @property
    def overhead_s(self) -> float:
        """Worst-case decision overhead reserved from every deadline."""
        return self._overhead_s

    @overhead_s.setter
    def overhead_s(self, value: float) -> None:
        self._overhead_s = value
        self._flush_goal_caches()


class AlertKernel(_OverheadReserve):
    """ALERT's belief state and estimate/select step, clock-free.

    Owns the global-slowdown ξ filter, the idle-power filter, and the
    quantized-state decision memo; knows nothing about periods, input
    streams, or how outcomes are realised.  Construction happens in
    :class:`repro.core.controller.AlertController`, which builds the
    candidate space and selector and passes them in.

    Parameters mirror the controller's: ``selector`` runs steps 3-4,
    ``profile`` anchors observed latencies, ``overhead_s`` is the
    worst-case scheduler overhead reserved from every deadline, and
    the memo parameters control the decision cache (``memo_cap`` may
    be reassigned at any time; it is read per decide).
    """

    def __init__(
        self,
        selector: ConfigSelector,
        profile: ProfileTable,
        slowdown: GlobalSlowdownEstimator,
        idle_filter: IdlePowerFilter,
        overhead_s: float,
        decision_memo: bool = True,
        memo_decimals: int = 4,
        memo_cap: int = 4096,
    ) -> None:
        self.selector = selector
        self.profile = profile
        self.slowdown = slowdown
        self.idle_filter = idle_filter
        self.memo: dict[tuple, SelectionResult] | None = (
            {} if decision_memo else None
        )
        self.memo_decimals = memo_decimals
        self.memo_cap = memo_cap
        self.memo_hits = 0
        self.memo_misses = 0
        self.last_selection: SelectionResult | None = None
        # Overhead-adjusted goals, interned per goal value: equal goals
        # resolve to one adjusted object, whose id then stands in for
        # the goal in memo keys, so a decide hashes its goal once.
        self._effective: dict[Goal, Goal] = {}
        self.overhead_s = overhead_s

    def _flush_goal_caches(self) -> None:
        """Drop the adjusted goals *and* the memo keyed on their ids.

        Un-pinning an adjusted goal lets its id be recycled, so a
        stale id-keyed memo entry could otherwise match a new goal.
        """
        self._effective.clear()
        if self.memo is not None:
            self.memo.clear()

    # ------------------------------------------------------------------
    # Step 1: measurement feedback
    # ------------------------------------------------------------------
    def observe(self, measurement: Measurement) -> float:
        """Fold one measurement in; returns the observed slowdown."""
        t_prof = self.profile.latency(
            measurement.model_name, measurement.power_cap_w
        )
        ratio = self.slowdown.observe(measurement.full_latency_s, t_prof)
        if measurement.idle_power_w is not None:
            inference_power = self.profile.power(
                measurement.model_name, measurement.power_cap_w
            )
            self.idle_filter.update(measurement.idle_power_w, inference_power)
        return ratio

    # ------------------------------------------------------------------
    # Steps 3-4: estimate and pick
    # ------------------------------------------------------------------
    def decide(self, goal: Goal) -> SelectionResult:
        """Select the configuration for the next input.

        ``goal`` should already be group-adjusted (workflow step 2);
        the kernel additionally reserves its own worst-case overhead
        from the deadline.
        """
        effective = self._effective.get(goal)
        if effective is None:
            effective = goal
            adjusted = max(1e-6, goal.deadline_s - self._overhead_s)
            if adjusted != goal.deadline_s:
                effective = goal.with_deadline(adjusted)
            if self.memo is None and len(self._effective) >= 4096:
                self._effective.clear()
            self._effective[goal] = effective
        xi_mean, xi_sigma = self.slowdown.snapshot()
        phi = self.idle_filter.phi
        tail = (self.slowdown.tail_fraction, self.slowdown.tail_ratio)

        key: tuple | None = None
        if self.memo is not None:
            nd = self.memo_decimals
            key = (
                id(effective),
                round(xi_mean, nd),
                round(xi_sigma, nd),
                round(phi, nd),
                round(tail[0], nd),
                round(tail[1], nd),
            )
            cached = self.memo.get(key)
            if cached is not None:
                self.memo_hits += 1
                self.last_selection = cached
                return cached

        result = self.selector.select(
            effective, xi_mean, xi_sigma, phi, tail=tail
        )
        if self.memo is not None and key is not None:
            self.memo_misses += 1
            if len(self.memo) >= self.memo_cap:
                evict_oldest_half(self.memo)
                self._prune_effective(keep=effective)
            self.memo[key] = result
        self.last_selection = result
        return result

    def _prune_effective(self, keep: Goal) -> None:
        """Forget the adjusted goals no surviving memo key uses.

        Bounds the interning table by the memo without un-pinning an
        id a memo key still holds (``keep`` is about to be inserted).
        """
        live = {key[0] for key in self.memo}
        live.add(id(keep))
        self._effective = {
            g: e for g, e in self._effective.items() if id(e) in live
        }


class AlertCellKernel(_OverheadReserve):
    """Stacked ALERT belief states for a lockstep cell, clock-free.

    One ξ/idle-power/tail state per goal, advanced together: one
    stacked :meth:`observe_many` pass folds every goal's measurement
    in, and one :meth:`decide_many` pass computes every goal's
    selection through
    :meth:`~repro.core.selector.ConfigSelector.select_many` (single
    fused erf + lexsort per step, covering exactly the goals whose
    quantized state missed their memo).  Knows nothing about periods or
    outcome records — :class:`repro.core.controller.AlertCellController`
    adapts the harness's outcome convention onto it.
    """

    def __init__(
        self,
        selector: ConfigSelector,
        profile: ProfileTable,
        n_goals: int,
        overhead_s: float,
        q0: float,
        min_sigma: float,
        tail_threshold_sigmas: float,
        tail_ewma: float,
        phi0: np.ndarray,
        idle_m0: float,
        idle_s: float,
        idle_v: float,
        memo_decimals: int,
        memo_cap: int,
        decision_memo: bool = True,
    ) -> None:
        if n_goals < 1:
            raise ConfigurationError(f"need at least one goal, got {n_goals}")
        self.selector = selector
        self.profile = profile
        self.n_goals = n_goals
        self.slowdown = StackedSlowdownEstimator(
            n_goals,
            q0=q0,
            min_sigma=min_sigma,
            tail_threshold_sigmas=tail_threshold_sigmas,
            tail_ewma=tail_ewma,
        )
        self.idle_filter = StackedIdlePowerFilter(
            phi0, m0=idle_m0, s=idle_s, v=idle_v
        )
        self._memos: list[dict] | None = (
            [{} for _ in range(n_goals)] if decision_memo else None
        )
        self._memo_decimals = memo_decimals
        self._memo_cap = memo_cap
        self.memo_hits = 0
        self.memo_misses = 0
        self.stacked_calls = 0
        self.stacked_states = 0
        # Overhead-adjusted goals are pure functions of the goal; the
        # serving loop re-decides the same Goal objects for thousands
        # of inputs, so the dataclass replace + validation is cached.
        self._effective: dict[Goal, Goal] = {}
        # The lockstep loops pass the identical goal-list objects every
        # step; resolving the whole list through ``_effective`` per
        # step would hash every (frozen, hash-recomputing) Goal three
        # times per input.  One id-tuple lookup replaces all of it;
        # the entry pins its goals, keeping the ids stable.
        self._adjusted_lists: dict[tuple, tuple[list, list]] = {}
        self.overhead_s = overhead_s

    # ------------------------------------------------------------------
    # Step 1: measurement feedback, all goals at once
    # ------------------------------------------------------------------
    def observe_many(self, measurements: list[Measurement]) -> None:
        """Fold every goal's previous-input measurement in, stacked.

        One :class:`Measurement` per goal; the idle-power filter only
        sees goals whose measurement carries an idle-phase sample —
        the drivers resolved that from their own clocks.
        """
        profile = self.profile
        measured = np.array([m.full_latency_s for m in measurements])
        t_prof = np.array(
            [
                profile.latency(m.model_name, m.power_cap_w)
                for m in measurements
            ]
        )
        self.slowdown.observe(measured, t_prof)
        idle_mask = np.array(
            [m.idle_power_w is not None for m in measurements]
        )
        if idle_mask.any():
            inference = np.array(
                [
                    profile.power(m.model_name, m.power_cap_w)
                    for m in measurements
                ]
            )
            idle = np.array(
                [
                    m.idle_power_w if m.idle_power_w is not None else 0.0
                    for m in measurements
                ]
            )
            self.idle_filter.update_where(idle_mask, idle, inference)

    # ------------------------------------------------------------------
    # Steps 3-4: estimate and pick, all goals at once
    # ------------------------------------------------------------------
    def decide_many(self, goals) -> list[SelectionResult]:
        """One selection per goal (already group-adjusted), stacked.

        Per-goal memo keys quantize each goal's own filter state
        exactly like :meth:`AlertKernel.decide`; only the goals that
        miss go into the stacked
        :meth:`~repro.core.selector.ConfigSelector.select_many` pass.
        """
        if len(goals) != self.n_goals:
            raise ConfigurationError(
                f"expected {self.n_goals} goals, got {len(goals)}"
            )
        xi_mean = self.slowdown.mean
        xi_sigma = self.slowdown.sigma
        phi = self.idle_filter.phi
        tail_fraction = self.slowdown.tail_fraction
        tail_ratio = self.slowdown.tail_ratio
        nd = self._memo_decimals

        results: list[SelectionResult | None] = [None] * self.n_goals
        ids = tuple(map(id, goals))
        adjusted_entry = self._adjusted_lists.get(ids)
        if adjusted_entry is None:
            effectives = []
            for goal in goals:
                effective = self._effective.get(goal)
                if effective is None:
                    effective = goal
                    adjusted = max(1e-6, goal.deadline_s - self._overhead_s)
                    if adjusted != goal.deadline_s:
                        effective = goal.with_deadline(adjusted)
                    if len(self._effective) >= 4096:
                        self._flush_goal_caches()
                    self._effective[goal] = effective
                effectives.append(effective)
            if len(self._adjusted_lists) >= 64:
                self._flush_goal_caches()
            # Pin the goals and their adjusted twins: live references
            # keep every id in the key (and in the memo keys below)
            # unambiguous.
            self._adjusted_lists[ids] = (list(goals), effectives)
        else:
            effectives = adjusted_entry[1]

        # One bulk tolist per state vector: identical doubles to
        # per-element float() casts, without G numpy scalar reads.
        means = xi_mean.tolist()
        sigmas = xi_sigma.tolist()
        phis = phi.tolist()
        fractions = tail_fraction.tolist()
        ratios = tail_ratio.tolist()

        miss_goals: list[Goal] = []
        miss_index: list[int] = []
        miss_keys: list[tuple | None] = []
        for g in range(self.n_goals):
            effective = effectives[g]
            key: tuple | None = None
            if self._memos is not None:
                # id(effective) stands in for the goal value: the
                # adjusted goals are interned per value through
                # ``_effective`` and pinned by ``_adjusted_lists``, so
                # equal goals share one id and ids never alias while
                # any memo entry can still be reached.
                key = (
                    id(effective),
                    round(means[g], nd),
                    round(sigmas[g], nd),
                    round(phis[g], nd),
                    round(fractions[g], nd),
                    round(ratios[g], nd),
                )
                cached = self._memos[g].get(key)
                if cached is not None:
                    self.memo_hits += 1
                    results[g] = cached
                    continue
            miss_goals.append(effective)
            miss_index.append(g)
            miss_keys.append(key)

        if miss_goals:
            index = np.array(miss_index)
            selections = self.selector.select_many(
                miss_goals,
                xi_mean[index],
                xi_sigma[index],
                phi[index],
                tails=[(fractions[g], ratios[g]) for g in miss_index],
            )
            self.stacked_calls += 1
            self.stacked_states += len(miss_goals)
            for g, key, selection in zip(miss_index, miss_keys, selections):
                if self._memos is not None and key is not None:
                    self.memo_misses += 1
                    memo = self._memos[g]
                    if len(memo) >= self._memo_cap:
                        evict_oldest_half(memo)
                    memo[key] = selection
                results[g] = selection
        return results

    def _flush_goal_caches(self) -> None:
        """Drop the goal-resolution caches *and* the decision memos.

        Evicting ``_effective`` / ``_adjusted_lists`` entries un-pins
        goal objects, so a recycled id could otherwise match a stale
        id-keyed memo entry; flushing together makes that impossible.
        """
        self._effective.clear()
        self._adjusted_lists.clear()
        if self._memos is not None:
            self._memos = [{} for _ in range(self.n_goals)]
