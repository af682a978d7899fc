"""Perfect-knowledge oracles (paper Section 5.1).

The paper builds oracles "by running 90 inputs in all possible DNN and
system configurations, from which we find the best configuration for
each input".  Our engine's :meth:`evaluate` is pure and shares one
per-input environment draw across configurations, so the oracles can do
exactly that:

* :class:`OracleScheduler` — per input, evaluate every configuration
  under the true realised environment and pick the best feasible one
  ("Oracle": dynamic optimal, impractical);
* :func:`best_static_config` / :func:`make_oracle_static` — evaluate
  every configuration over the whole horizon and fix the best single
  one ("OracleStatic": the best any non-adaptive deployment could do,
  and the normalisation baseline of Table 4).

Infeasible inputs degrade through the same latency > accuracy > power
hierarchy ALERT uses, so comparisons stay apples-to-apples.

**The batch path.**  Both oracles run on
:meth:`repro.models.inference.InferenceEngine.evaluate_batch`, which
realises the whole (configuration × input) outcome grid as NumPy
arrays in one pass.  Selection is a lexicographic argmin per
degradation tier, most significant key first:

* feasible tier — minimise the goal objective
  (``(energy, -quality, cap)`` when minimising energy,
  ``(-quality, energy, cap)`` when maximising accuracy);
* deadline-met tier — ``(-quality, energy, power)``: accuracy first,
  then energy, then the gentler cap;
* last-resort tier — ``(latency, -quality, power)``: fail as fast and
  as accurately as possible.

A single decision masks its column and takes one stable
``np.lexsort`` over the tier's candidates.  A whole run
(:meth:`OracleScheduler.decide_batch`) splits its columns by tier —
those with a feasible row, those with a met deadline only, and the
rest — and resolves each tier with one progressive argmin over its
own keys and candidate mask: each key narrows every column's
candidates to its minimisers, and a column drops out as soon as a
single candidate survives.  Either way ties go to the first
configuration in enumeration order, so the batch pick is *identical*
to the scalar ``min``-over-tuples reference, which is kept as
:meth:`OracleScheduler.decide_scalar` /
``best_static_config(..., use_batch=False)`` and pinned by the
randomized parity suite (``tests/test_oracle_parity.py``).
:func:`best_static_config` applies the paper's 10% rule the same way
in both paths: qualifying configurations rank by
``(objective, violation fraction, power)``; when none qualifies, the
least-violating configuration wins — ``(violation fraction, objective,
power)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.goals import Goal, ObjectiveKind, outcome_feasible
from repro.errors import ConfigurationError
from repro.models.inference import (
    BatchOutcomeGrid,
    InferenceEngine,
    InferenceOutcome,
)
from repro.runtime.results import VIOLATION_SETTING_THRESHOLD
from repro.runtime.scheduler import StaticScheduler
from repro.workloads.inputs import InputItem, InputStream

__all__ = [
    "OracleScheduler",
    "best_static_config",
    "make_oracle_static",
    "oracle_outcome_grid",
]


def _outcome_feasible(outcome: InferenceOutcome, goal: Goal) -> bool:
    """True constraint satisfaction of one realised outcome."""
    return bool(
        outcome_feasible(
            goal, outcome.met_deadline, outcome.quality, outcome.energy_j
        )
    )


def _objective_key(outcome: InferenceOutcome, goal: Goal):
    """Smaller-is-better ranking of realised outcomes."""
    if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
        return (outcome.energy_j, -outcome.quality, outcome.power_cap_w)
    return (-outcome.quality, outcome.energy_j, outcome.power_cap_w)


def _lexargmin_columns(
    keys: tuple[np.ndarray, ...],
    mask: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Per-column lexicographic argmin over axis 0, first occurrence.

    ``keys`` are (row × column) planes, most significant first; a
    one-column key (a per-row vector as ``[:, None]``) applies to every
    column.  ``mask`` limits each column's candidate rows (None: every
    row) and ``columns`` picks the plane columns to resolve (None:
    all of them).  Each key narrows the candidates to its per-column
    minimisers, and a column leaves the pass as soon as one candidate
    survives, so later keys are only read on the columns still tied.
    The first surviving row wins — Python's ``min`` over key tuples
    (and a stable ``np.lexsort``) exactly.
    """
    width = keys[0].shape[1] if columns is None else columns.size
    if mask is None:
        candidates = np.ones((keys[0].shape[0], width), dtype=bool)
    else:
        candidates = mask if columns is None else mask[:, columns]
    rows = np.empty(width, dtype=np.intp)
    live = np.arange(width)
    take = columns  # plane columns of the still-tied set (None: all)
    for key in keys:
        if take is not None and key.shape[1] != 1:
            key = key[:, take]
        masked = np.where(candidates, key, np.inf)
        candidates = candidates & (masked == masked.min(axis=0))
        single = np.count_nonzero(candidates, axis=0) == 1
        if single.any():
            done = np.flatnonzero(single)
            rows[live[done]] = candidates[:, done].argmax(axis=0)
            tied = np.flatnonzero(~single)
            if tied.size == 0:
                return rows
            live = live[tied]
            candidates = candidates[:, tied]
            take = live if columns is None else columns[live]
    rows[live] = candidates.argmax(axis=0)
    return rows


def _lexmin(mask: np.ndarray, *keys: np.ndarray) -> int:
    """Index of the lexicographic minimum of ``keys`` within ``mask``.

    ``np.lexsort`` takes keys least-significant first and sorts stably,
    so the returned index matches Python's ``min`` over key tuples
    (first occurrence wins ties) exactly.
    """
    candidates = np.flatnonzero(mask)
    order = np.lexsort(tuple(k[candidates] for k in reversed(keys)))
    return int(candidates[order[0]])


def oracle_outcome_grid(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    allocator=None,
) -> BatchOutcomeGrid:
    """The full (configuration × input) outcome grid for one setting.

    One vectorized pass over the engine's true environment draws —
    the "run 90 inputs in all possible configurations" table both
    oracles read from.  The experiment harness computes this once per
    (scenario, goal) cell and shares it between Oracle and
    OracleStatic.  ``allocator`` passes through to
    :meth:`~repro.models.inference.InferenceEngine.evaluate_batch`, so
    a grid store can realise the grid directly inside a shared-memory
    segment (bit-identical to private realisation).
    """
    if n_inputs < 1:
        raise ConfigurationError(f"need at least one input, got {n_inputs}")
    return engine.evaluate_batch(
        configs=list(space),
        indices=range(n_inputs),
        deadline_s=goal.deadline_s,
        period_s=goal.period,
        work_factors=[stream.item(i).work_factor for i in range(n_inputs)],
        allocator=allocator,
    )


class OracleScheduler:
    """Per-input optimal configuration with perfect knowledge.

    Parameters
    ----------
    engine:
        The *same* engine instance the serving loop uses (or a
        bit-identical twin built from the same scenario seed), so the
        oracle sees the true environment draw of each input.
    space:
        The candidate configuration space.
    grid:
        Optional precomputed outcome grid (:func:`oracle_outcome_grid`)
        over the same candidates.  Decisions whose (deadline, period,
        work factor, environment draw) match a grid column are answered
        from the grid; anything else — e.g. group-adjusted sentence
        deadlines — falls back to a fresh single-input batch
        evaluation.
    grid_view:
        Optional :class:`~repro.models.inference.GridView` carried for
        the serving loop's shared-realisation path.  When it wraps the
        same grid object and is *trusted* (the fused-cell executor
        builds it so: grid and engine derive from one scenario seed),
        the per-decision environment-draw guards are skipped — the
        draws are identical by construction.  When ``grid`` is omitted
        the view's grid stands in for it.
    use_batch:
        When False every decision runs the scalar reference path
        (:meth:`decide_scalar`); kept for parity tests and debugging.
    """

    #: Perfect knowledge needs no feedback; the serving loop may
    #: realise whole Oracle runs on the batch fast path.
    feedback_free = True

    def __init__(
        self,
        engine: InferenceEngine,
        space: ConfigurationSpace,
        name: str = "Oracle",
        grid: BatchOutcomeGrid | None = None,
        grid_view=None,
        use_batch: bool = True,
    ) -> None:
        self.engine = engine
        self.space = space
        self.name = name
        self.use_batch = use_batch
        self.grid_view = grid_view
        if grid is None and grid_view is not None:
            grid = grid_view.grid
        self._configs = tuple(space)
        self._power_w = np.array([c.power_w for c in self._configs])
        if grid is not None and tuple(grid.configs) != self._configs:
            raise ConfigurationError(
                "oracle grid was built for a different configuration space"
            )
        self._grid = grid
        self._grid_trusted = bool(
            grid is not None
            and grid_view is not None
            and grid_view.trusted
            and grid_view.grid is grid
        )

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _grid_column(self, item: InputItem, goal: Goal) -> int | None:
        """Grid column answering this decision, or None on any mismatch."""
        grid = self._grid
        if grid is None:
            return None
        if goal.deadline_s != grid.deadline_s or goal.period != grid.period_s:
            return None
        position = grid.column_for(item.index)
        if position is None:
            return None
        if item.work_factor != grid.work_factors[position]:
            return None
        # Guard against a grid realised from a diverged environment
        # (skipped for trusted grids: same scenario seed, same draws).
        if not self._grid_trusted and (
            self.engine.environment(item.index).env_factor
            != grid.env_factor[position]
        ):
            return None
        return position

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        if not self.use_batch:
            return self.decide_scalar(item, goal)
        position = self._grid_column(item, goal)
        if position is not None:
            grid = self._grid
            energy = grid.energy_j[:, position]
            quality = grid.quality[:, position]
            met = grid.met_deadline[:, position]
            latency = grid.latency_s[:, position]
            cap_w = grid.power_cap_w
        else:
            column = self.engine.evaluate_batch(
                configs=self._configs,
                indices=[item.index],
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factors=[item.work_factor],
            )
            energy = column.energy_j[:, 0]
            quality = column.quality[:, 0]
            met = column.met_deadline[:, 0]
            latency = column.latency_s[:, 0]
            cap_w = column.power_cap_w

        feasible = outcome_feasible(goal, met, quality, energy)
        if feasible.any():
            if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
                keys = (energy, -quality, cap_w)
            else:
                keys = (-quality, energy, cap_w)
            return self._configs[_lexmin(feasible, *keys)]

        # Latency > accuracy > power fallback, on true outcomes.
        if met.any():
            return self._configs[_lexmin(met, -quality, energy, self._power_w)]
        everything = np.ones(len(self._configs), dtype=bool)
        return self._configs[_lexmin(everything, latency, -quality, self._power_w)]

    def _grid_columns(self, items: list[InputItem], goal: Goal) -> np.ndarray | None:
        """Grid columns answering a whole run, or None on any mismatch.

        The vectorized counterpart of :meth:`_grid_column`: one array
        comparison per guard instead of per-item Python checks.
        """
        grid = self._grid
        if grid is None:
            return None
        if goal.deadline_s != grid.deadline_s or goal.period != grid.period_s:
            return None
        indices = [item.index for item in items]
        columns = grid.columns_of(indices)
        if columns is None:
            return None
        factors = np.array([item.work_factor for item in items], dtype=float)
        if not np.array_equal(factors, grid.work_factors[columns]):
            return None
        # Guard against a grid realised from a diverged environment
        # (skipped for trusted grids: same scenario seed, same draws —
        # this also spares the engine realising draws the grid-served
        # run never otherwise needs).
        if not self._grid_trusted:
            engine = self.engine
            engine.environment(max(indices))
            env = np.array(
                [engine.environment(index).env_factor for index in indices],
                dtype=float,
            )
            if not np.array_equal(env, grid.env_factor[columns]):
                return None
        return columns

    def decide_batch(
        self, items: list[InputItem], goal: Goal
    ) -> list[Configuration]:
        """All of a run's decisions in one vectorized pass.

        Requires every item to be answerable from the precomputed grid;
        otherwise (no grid, trace-adjusted deadlines, diverged draws)
        falls back to per-item :meth:`decide`.  The columns are split
        by the tier :meth:`decide` would land in — some feasible row,
        a met deadline only, or the last resort — and each tier runs
        one progressive lexicographic argmin on its own keys and
        candidate mask, so the winner matches :meth:`decide` exactly
        (first occurrence on ties).
        """
        if not items:
            return []
        if not self.use_batch:
            return [self.decide(item, goal) for item in items]
        columns = self._grid_columns(items, goal)
        if columns is None:
            return [self.decide(item, goal) for item in items]

        grid = self._grid
        # The common serving pattern is a prefix of the grid's own
        # columns; basic slices keep the big arrays as views.
        n = columns.size
        if np.array_equal(columns, np.arange(n)):
            selector = slice(None, n)
        else:
            selector = columns
        energy = grid.energy_j[:, selector]
        quality = grid.quality[:, selector]
        met = grid.met_deadline[:, selector]
        latency = grid.latency_s[:, selector]
        neg_quality = -quality
        cap_w = grid.power_cap_w[:, None]
        power_w = self._power_w[:, None]

        feasible = outcome_feasible(goal, met, quality, energy)
        if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
            objective = (energy, neg_quality, cap_w)
        else:
            objective = (neg_quality, energy, cap_w)
        any_feasible = feasible.any(axis=0)
        any_met = met.any(axis=0)
        # (columns in the tier, candidate rows, ranking keys) in the
        # decide() branch order.
        tiers = (
            (any_feasible, feasible, objective),
            (~any_feasible & any_met, met, (neg_quality, energy, power_w)),
            (~(any_feasible | any_met), None, (latency, neg_quality, power_w)),
        )
        rows = np.empty(n, dtype=np.intp)
        for in_tier, mask, keys in tiers:
            if in_tier.all():
                rows = _lexargmin_columns(keys, mask)
                break
            tier_columns = np.flatnonzero(in_tier)
            if tier_columns.size:
                rows[tier_columns] = _lexargmin_columns(
                    keys, mask, tier_columns
                )
        configs = self._configs
        return [configs[row] for row in rows.tolist()]

    # ------------------------------------------------------------------
    # Scalar reference path (pinned by the parity suite)
    # ------------------------------------------------------------------
    def decide_scalar(self, item: InputItem, goal: Goal) -> Configuration:
        outcomes: list[tuple[Configuration, InferenceOutcome]] = []
        for config in self.space:
            outcome = self.engine.evaluate(
                model=config.model,
                power_cap_w=config.power_w,
                index=item.index,
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factor=item.work_factor,
                rung_cap=config.rung_cap,
            )
            outcomes.append((config, outcome))

        feasible = [
            (config, outcome)
            for config, outcome in outcomes
            if _outcome_feasible(outcome, goal)
        ]
        if feasible:
            best = min(feasible, key=lambda pair: _objective_key(pair[1], goal))
            return best[0]

        # Latency > accuracy > power fallback, on true outcomes.
        met = [
            (config, outcome)
            for config, outcome in outcomes
            if outcome.met_deadline
        ]
        if met:
            best = min(
                met,
                key=lambda pair: (
                    -pair[1].quality,
                    pair[1].energy_j,
                    pair[0].power_w,
                ),
            )
            return best[0]
        best = min(
            outcomes,
            key=lambda pair: (pair[1].latency_s, -pair[1].quality, pair[0].power_w),
        )
        return best[0]

    def observe(self, outcome: InferenceOutcome) -> None:
        """Oracles need no feedback."""


def _grid_usable(
    grid: BatchOutcomeGrid | None,
    engine: InferenceEngine,
    configs: tuple[Configuration, ...],
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    trusted: bool = False,
) -> bool:
    """Whether a supplied grid answers this static-oracle question.

    ``trusted`` skips the per-input work-factor and environment scans:
    a trusted grid derives from the same scenario seed as ``engine``
    and ``stream``, so those match by construction (the cheap
    structural checks — configuration rows, timing, horizon — still
    apply).
    """
    if grid is None:
        return False
    if tuple(grid.configs) != configs or grid.n_inputs < n_inputs:
        return False
    if goal.deadline_s != grid.deadline_s or goal.period != grid.period_s:
        return False
    if trusted:
        return True
    for position in range(n_inputs):
        if int(grid.indices[position]) != position:
            return False
        if stream.item(position).work_factor != grid.work_factors[position]:
            return False
        # Guard against a grid realised from a diverged environment
        # (same check the per-input oracle applies per column).
        if engine.environment(position).env_factor != grid.env_factor[position]:
            return False
    return True


def best_static_config(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    violation_threshold: float = VIOLATION_SETTING_THRESHOLD,
    grid: BatchOutcomeGrid | None = None,
    grid_view=None,
    use_batch: bool = True,
) -> Configuration:
    """The best single configuration over a whole horizon.

    Evaluates every configuration on every input (with the true
    environment draws) and picks the one optimising the goal among
    those whose violation fraction stays within the 10% rule; when none
    qualifies, the least-violating configuration wins (ties broken by
    the objective, then the lower power cap).

    ``grid`` short-circuits the evaluation with a precomputed outcome
    grid (``grid_view`` can stand in for it and, when trusted, waives
    the per-input provenance scans); ``use_batch=False`` runs the
    scalar reference loop.
    """
    if n_inputs < 1:
        raise ConfigurationError(f"need at least one input, got {n_inputs}")
    configs = tuple(self_configs(space))
    if not use_batch:
        return _best_static_config_scalar(
            engine, configs, goal, stream, n_inputs, violation_threshold
        )

    if grid is None and grid_view is not None:
        grid = grid_view.grid
    trusted = bool(
        grid is not None
        and grid_view is not None
        and grid_view.trusted
        and grid_view.grid is grid
    )
    if not _grid_usable(grid, engine, configs, goal, stream, n_inputs, trusted):
        grid = engine.evaluate_batch(
            configs=configs,
            indices=range(n_inputs),
            deadline_s=goal.deadline_s,
            period_s=goal.period,
            work_factors=[stream.item(i).work_factor for i in range(n_inputs)],
        )
    met = grid.met_deadline[:, :n_inputs]
    quality = grid.quality[:, :n_inputs]
    energy = grid.energy_j[:, :n_inputs]
    feasible = outcome_feasible(goal, met, quality, energy)
    violation_fraction = (n_inputs - feasible.sum(axis=1)) / n_inputs
    if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
        objective = energy.sum(axis=1) / n_inputs
    else:
        objective = (1.0 - quality).sum(axis=1) / n_inputs
    power_w = np.array([config.power_w for config in configs])

    qualifying = violation_fraction <= violation_threshold
    if qualifying.any():
        return configs[_lexmin(qualifying, objective, violation_fraction, power_w)]
    # Nothing meets the 10% rule; prefer the least violating.
    everything = np.ones(len(configs), dtype=bool)
    return configs[_lexmin(everything, violation_fraction, objective, power_w)]


def _best_static_config_scalar(
    engine: InferenceEngine,
    configs: tuple[Configuration, ...],
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    violation_threshold: float,
) -> Configuration:
    """Scalar reference for :func:`best_static_config`."""
    scored: list[tuple[float, float, Configuration]] = []
    for config in configs:
        violations = 0
        objective_total = 0.0
        for index in range(n_inputs):
            item = stream.item(index)
            outcome = engine.evaluate(
                model=config.model,
                power_cap_w=config.power_w,
                index=index,
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factor=item.work_factor,
                rung_cap=config.rung_cap,
            )
            if not _outcome_feasible(outcome, goal):
                violations += 1
            if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
                objective_total += outcome.energy_j
            else:
                objective_total += 1.0 - outcome.quality
        violation_fraction = violations / n_inputs
        scored.append((violation_fraction, objective_total / n_inputs, config))

    qualifying = [
        entry for entry in scored if entry[0] <= violation_threshold
    ]
    if qualifying:
        return min(
            qualifying, key=lambda entry: (entry[1], entry[0], entry[2].power_w)
        )[2]
    # Nothing meets the 10% rule; prefer the least violating.
    return min(
        scored, key=lambda entry: (entry[0], entry[1], entry[2].power_w)
    )[2]


def self_configs(space: ConfigurationSpace) -> list[Configuration]:
    """All configurations of a space (indirection point for tests)."""
    return list(space)


def make_oracle_static(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    grid: BatchOutcomeGrid | None = None,
    grid_view=None,
) -> StaticScheduler:
    """Build the OracleStatic scheduler for one setting.

    ``grid_view`` is carried on the returned scheduler for the serving
    loop's shared-realisation path and, when trusted, lets the static
    selection skip the grid's per-input provenance scans.
    """
    config = best_static_config(
        engine, space, goal, stream, n_inputs, grid=grid, grid_view=grid_view
    )
    return StaticScheduler(
        model=config.model,
        power_w=config.power_w,
        rung_cap=config.rung_cap,
        name="OracleStatic",
        grid_view=grid_view,
    )
