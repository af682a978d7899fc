"""The run executor: declarative run specs, serial or parallel.

The experiment stack evaluates large (scenario × goal × scheme) grids,
and every run in such a grid is independent: it gets a *fresh* engine
and input stream rebuilt from the scenario's root seed (common random
numbers), so no state crosses run boundaries.  This module turns that
independence into an execution plan:

* :class:`ScenarioKey` — the picklable identity of a scenario
  (platform, task, env, candidate set, seed) from which a worker can
  rebuild the full :class:`~repro.workloads.scenarios.Scenario`;
* :class:`RunSpec` — one unit of work: a scenario key, a goal, a
  scheme name, an input count, and a dotted path to the scheme
  factory.  Specs are plain picklable data, so a plan can cross a
  process boundary;
* :class:`CellSpec` — one *fused* unit of work: every scheme of one
  (scenario, goal) cell.  The executing process realises the
  (configuration × input) outcome grid for the cell's timing once and
  serves all schemes from it: feedback-free schemes ride the serving
  loop's batch fast path over grid column slices, and feedback-driven
  schemes (ALERT and friends) still run sequentially but read their
  latency/energy columns from the same grid instead of calling
  :meth:`~repro.models.inference.InferenceEngine.run` per input —
  the amortize-the-simulation trick of trace-driven schedulers:
  many policies, one realisation.  Fused results are value-identical
  to the equivalent isolated :class:`RunSpec` runs
  (``tests/test_cell_fusion_parity.py``);
* :class:`LockstepCellSpec` — one fused *goal-grid* cell: every scheme
  × every goal of a scenario's constraint grid.  On top of the shared
  realisation, schemes that opt in (ALERT & co., Sys-only) advance all
  goals **in lockstep** through a
  :class:`~repro.runtime.loop.LockstepServingLoop` — each input step
  computes every goal's decision in one stacked estimator/selector
  pass (``tests/test_lockstep_parity.py`` pins value-identity to the
  per-goal path);
* :class:`TableCellSpec` — one whole Table-4 cell, *cross-scheme*: all
  stacking schemes advance as lanes of one
  :class:`~repro.runtime.loop.CrossSchemeLockstepLoop`, sharing the
  per-input grid reads; the rest run per-goal (feedback-free schemes on
  the batch fast path), so a fully fused cell serves zero inputs via
  per-input Python ``decide``/``observe``
  (``tests/test_cross_scheme_parity.py``);
* :class:`RunExecutor` — executes a plan either serially in-process or
  across a ``concurrent.futures`` process pool.  Results are merged
  back in plan order, so the output is *bit-identical* regardless of
  worker count: every run derives from its scenario seed, never from
  which worker ran it or in what order.

Each worker keeps a small per-process cache of oracle outcome grids
keyed on ``(scenario, deadline_s, period_s, n_inputs)`` plus the
fingerprint of the candidate configuration list the grid covers — the
grid depends only on the run's *timing* and its configuration rows,
not on the accuracy/energy constraint — so the many goals of a
constraint grid that share one deadline reuse one grid instead of
recomputing it per goal, while schemes evaluating *different*
candidate sets under one timing still get distinct grids.  Scheme
factories can tap the same cache directly by accepting a
``grid_provider`` keyword: a callable ``(space) -> BatchOutcomeGrid``
bound to the executing process's cache and the spec's timing.
"""

from __future__ import annotations

import importlib
import inspect
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.core.goals import Goal
from repro.errors import ConfigurationError
from repro.models.inference import GridView
from repro.runtime.loop import (
    LOCKSTEP_TELEMETRY,
    CrossSchemeLockstepLoop,
    LockstepServingLoop,
    ServingLoop,
)
from repro.runtime.results import RunResult
from repro.workloads.scenarios import Scenario, build_scenario
from repro.workloads.traces import RequirementTrace

__all__ = [
    "ScenarioKey",
    "RunSpec",
    "CellSpec",
    "LockstepCellSpec",
    "TableCellSpec",
    "RunExecutor",
    "run_single",
    "factory_path",
    "resolve_factory",
    "factory_accepts",
    "factory_accepts_oracle_grid",
    "space_fingerprint",
    "structural_space_fingerprint",
]

#: Default dotted path of the scheme factory (module:attribute).
DEFAULT_FACTORY = "repro.experiments.harness:make_scheme"

#: Upper bound on per-process cached oracle outcome grids.  The cache
#: is LRU: a hit refreshes recency, so a long interleaved plan evicts
#: the grid touched longest ago, not the one inserted first.
_GRID_CACHE_CAPACITY = 32
#: Upper bound on the per-scenario caches (scenarios, spaces, shared
#: engine/stream realisations).  A production sweep walks hundreds of
#: scenarios through one worker; unbounded maps would pin every
#: engine's memoised environment draws for the life of the process.
_SCENARIO_CACHE_CAPACITY = 16
#: Upper bound on resolved scheme-factory callables (keyed by path).
_FACTORY_CACHE_CAPACITY = 64


@dataclass(frozen=True)
class ScenarioKey:
    """Picklable identity of a scenario, rebuildable in any process.

    Workers never receive live :class:`Scenario` objects; they receive
    this key and call :meth:`build`, which derives engines, streams,
    and profiles from the root ``seed`` — the same construction the
    submitting process would have performed.
    """

    platform: str
    task: str
    env: str
    candidates: str = "standard"
    seed: int = 20200417

    def build(self) -> Scenario:
        """Rebuild the full scenario from its seeds."""
        return build_scenario(
            self.platform, self.task, self.env, self.candidates, self.seed
        )

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "ScenarioKey | None":
        """The key of a scenario, or None when it cannot round-trip.

        Scenarios made by :func:`~repro.workloads.scenarios.build_scenario`
        always round-trip.  Hand-built scenarios may not — a customized
        machine spec or candidate set reusing a stock name must not be
        silently replaced by the stock one in a worker — so the rebuilt
        scenario is compared field by field, not by name.  (An
        explicitly injected ``_profile`` is the one customization this
        cannot see; workers always re-derive the analytic profile.)
        """
        key = cls(
            platform=scenario.machine.name,
            task=scenario.task.kind.value,
            env=scenario.env.value,
            candidates=scenario.candidates.name,
            seed=scenario.seed,
        )
        try:
            rebuilt = key.build()
        except ConfigurationError:
            return None
        if (
            rebuilt.name != scenario.name
            or rebuilt.seed != scenario.seed
            or rebuilt.machine != scenario.machine
            or rebuilt.task != scenario.task
            or rebuilt.env is not scenario.env
            or rebuilt.candidates != scenario.candidates
        ):
            return None
        return key


@dataclass(frozen=True)
class RunSpec:
    """One planned run: scheme × goal × scenario × horizon.

    ``factory`` is a dotted ``"module:attribute"`` path so the spec
    stays picklable; it is resolved in the executing process.  When
    ``use_oracle_grid`` is True and the resolved factory accepts an
    ``oracle_grid`` keyword, the executor supplies the cached
    (configuration × input) outcome grid for the spec's timing.
    ``requirement_trace`` optionally rewrites goals mid-run (Figure 9's
    dynamic requirements); traces are plain picklable data, so they
    cross the process boundary with the spec.
    """

    scenario: ScenarioKey
    goal: Goal
    scheme: str
    n_inputs: int
    factory: str = DEFAULT_FACTORY
    use_oracle_grid: bool = True
    requirement_trace: RequirementTrace | None = None

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ConfigurationError(
                f"need at least one input, got {self.n_inputs}"
            )


@dataclass(frozen=True)
class CellSpec:
    """One fused cell: every scheme of one (scenario, goal) pair.

    The executing process realises the cell's outcome grid once (via
    the per-process timing cache) and serves all ``schemes`` from it
    through a trusted :class:`~repro.models.inference.GridView`; runs
    come back aligned one-to-one with ``schemes``.  ``use_oracle_grid``
    gates only whether the grid is additionally handed to the scheme
    factory as its ``oracle_grid`` keyword — grid-view serving is what
    makes the cell fused and is always on.
    """

    scenario: ScenarioKey
    goal: Goal
    schemes: tuple[str, ...]
    n_inputs: int
    factory: str = DEFAULT_FACTORY
    use_oracle_grid: bool = True
    requirement_trace: RequirementTrace | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.schemes, tuple):
            object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.schemes:
            raise ConfigurationError("a cell needs at least one scheme")
        if self.n_inputs < 1:
            raise ConfigurationError(
                f"need at least one input, got {self.n_inputs}"
            )


@dataclass(frozen=True)
class LockstepCellSpec:
    """One fused *goal-grid* cell: every scheme × every goal, lockstep.

    The multi-goal generalisation of :class:`CellSpec`: the executing
    process realises one outcome grid per timing (shared across the
    goals and schemes that use it) and serves each scheme's runs over
    **all** ``goals`` together.  ALERT-family runs advance in lockstep
    through one :class:`~repro.runtime.loop.LockstepServingLoop` —
    every input step computes all goals' decisions in one stacked
    estimator/selector pass — while feedback-free schemes and any
    scheduler that cannot stack (custom types, warm state) run
    per-goal exactly as a :class:`CellSpec` would.  Results come back
    goal-major: one list per goal, aligned with ``schemes``, each
    value-identical to the equivalent :class:`CellSpec` runs
    (``tests/test_lockstep_parity.py``).

    ``lockstep=False`` keeps the grouped plan shape but forces every
    run onto the per-goal path (the benches' A/B knob).
    """

    scenario: ScenarioKey
    goals: tuple[Goal, ...]
    schemes: tuple[str, ...]
    n_inputs: int
    factory: str = DEFAULT_FACTORY
    use_oracle_grid: bool = True
    lockstep: bool = True
    requirement_trace: RequirementTrace | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.goals, tuple):
            object.__setattr__(self, "goals", tuple(self.goals))
        if not isinstance(self.schemes, tuple):
            object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.goals:
            raise ConfigurationError("a lockstep cell needs at least one goal")
        if not self.schemes:
            raise ConfigurationError("a cell needs at least one scheme")
        if self.n_inputs < 1:
            raise ConfigurationError(
                f"need at least one input, got {self.n_inputs}"
            )


@dataclass(frozen=True)
class TableCellSpec(LockstepCellSpec):
    """One whole Table-4 cell: every scheme × every goal, cross-scheme.

    The cross-scheme generalisation of :class:`LockstepCellSpec`: all
    schemes whose schedulers stack become lanes of **one**
    :class:`~repro.runtime.loop.CrossSchemeLockstepLoop`, stepping the
    input stream together off the shared grid views — the per-input
    column resolution is computed once for the whole cell and every
    lane's records are realised goal-major after the run.  Schemes
    that cannot stack (feedback-free schedulers, custom types, warm
    state) run per-goal exactly as a :class:`LockstepCellSpec` would —
    feedback-free schemes ride the batch fast path, so a fully fused
    cell serves zero inputs through per-input Python
    ``decide``/``observe`` calls.  Results are goal-major and
    value-identical to the equivalent :class:`LockstepCellSpec` /
    sequential runs (``tests/test_cross_scheme_parity.py``).

    ``cross_scheme=False`` (or ``lockstep=False``) degrades to the
    per-scheme :class:`LockstepCellSpec` behaviour — the benches' A/B
    knob.
    """

    cross_scheme: bool = True


def resolve_factory(path: str) -> Callable:
    """Import a scheme factory from its ``"module:attribute"`` path."""
    module_name, sep, attribute = path.partition(":")
    if not sep or not module_name or not attribute:
        raise ConfigurationError(
            f"factory path must look like 'module:attribute', got {path!r}"
        )
    module = importlib.import_module(module_name)
    target = module
    for part in attribute.split("."):
        target = getattr(target, part)
    return target


def factory_path(factory: Callable) -> str | None:
    """The importable ``"module:attribute"`` path of a factory, if any.

    Returns None for closures, lambdas, bound methods, and anything
    else that does not resolve back to the same object — those can
    only run in-process.
    """
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        return None
    path = f"{module}:{qualname}"
    try:
        resolved = resolve_factory(path)
    except (ConfigurationError, ImportError, AttributeError):
        return None
    return path if resolved is factory else None


#: Memo of per-(factory, keyword, mode) signature probes, keyed on
#: identity with the factory kept alive (ids cannot be recycled).
#: FIFO-bounded: the closure-fallback path can feed per-call factory
#: objects through here, and an unbounded map would pin every one —
#: plus everything it captured — for the life of the process.
_ACCEPTS_CACHE: OrderedDict[tuple[int, str, bool], tuple[Callable, bool]] = (
    OrderedDict()
)
_ACCEPTS_CACHE_CAPACITY = 256


def factory_accepts(
    factory: Callable, keyword: str, var_keyword: bool = False
) -> bool:
    """Whether a scheme factory can receive ``keyword`` as a kwarg.

    ``var_keyword`` additionally counts a ``**kwargs`` catch-all as
    accepting.  The legacy ``oracle_grid`` handoff keeps that loose
    contract; the newer ``grid_view``/``grid_provider`` hooks require
    the parameter to be named explicitly, so ``**kwargs`` wrappers
    around grid-unaware factories never get surprise keywords (the
    fused serving path does not need the factory's cooperation — the
    executor hands the view to the serving loop directly).
    """
    cache_key = (id(factory), keyword, var_keyword)
    cached = _ACCEPTS_CACHE.get(cache_key)
    if cached is not None and cached[0] is factory:
        return cached[1]
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        signature = None
    accepts = False
    if signature is not None:
        for parameter in signature.parameters.values():
            if var_keyword and parameter.kind is inspect.Parameter.VAR_KEYWORD:
                accepts = True
                break
            if parameter.name == keyword and parameter.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                accepts = True
                break
    if len(_ACCEPTS_CACHE) >= _ACCEPTS_CACHE_CAPACITY:
        _ACCEPTS_CACHE.popitem(last=False)
    _ACCEPTS_CACHE[cache_key] = (factory, accepts)
    return accepts


def factory_accepts_oracle_grid(factory: Callable) -> bool:
    """Whether a scheme factory can receive an ``oracle_grid`` kwarg."""
    return factory_accepts(factory, "oracle_grid", var_keyword=True)


def space_fingerprint(configs: Iterable) -> tuple:
    """A hashable identity of a candidate configuration list.

    Grids are cached per timing, but two grids over the same timing
    are interchangeable only when their configuration rows match; this
    fingerprint is what the cache keys on.  It includes ``id(model)``
    alongside the display name so two *different* model objects that
    happen to share a name can never alias one grid — safe per process
    because every cached grid keeps its configuration (and therefore
    model) objects alive, pinning the ids in its key; and stable
    because consumers rebuild spaces from the scenario's memoised
    model objects, not fresh copies.
    """
    return tuple(
        (
            id(config.model),
            config.model.name,
            config.power_w,
            config.rung_cap,
        )
        for config in configs
    )


def structural_space_fingerprint(configs: Iterable) -> tuple:
    """A *cross-process* identity of a candidate configuration list.

    The per-process :func:`space_fingerprint` keys on ``id(model)``,
    which never survives a process boundary; the shared grid store
    instead keys on structure — (model name, cap, rung) rows in order.
    Safe there because the store only serves a scenario's *default*
    candidate space, whose rows are a deterministic enumeration of the
    scenario key: same key, same structure, every process.
    """
    return tuple(
        (config.model.name, config.power_w, config.rung_cap)
        for config in configs
    )


def run_single(
    scenario: Scenario,
    goal: Goal,
    scheme: str,
    n_inputs: int,
    factory: Callable,
    oracle_grid=None,
    grid_view: GridView | None = None,
    grid_provider: Callable | None = None,
    engine=None,
    stream=None,
    requirement_trace: RequirementTrace | None = None,
) -> RunResult:
    """Execute one run: one engine + stream, one serving loop.

    The single place both the serial and the pooled paths (and the
    harness's in-process fallback) funnel through, so "one run" means
    exactly the same thing everywhere.  ``grid_view`` feeds the
    serving loop's shared-realisation path; ``grid_view`` and
    ``grid_provider`` are additionally offered to the factory when its
    signature accepts them.  ``engine``/``stream`` default to fresh
    per-run builds; the fused cell path passes shared ones — engines
    are deterministic functions of the scenario seed (actuator and
    meter state never feed back into outcomes) and streams memoise
    their items, so sharing changes wall-clock, not results.
    """
    if engine is None:
        engine = scenario.make_engine()
    if stream is None:
        stream = scenario.make_stream()
    kwargs = {}
    if oracle_grid is not None:
        kwargs["oracle_grid"] = oracle_grid
    if grid_view is not None and factory_accepts(factory, "grid_view"):
        kwargs["grid_view"] = grid_view
    if grid_provider is not None and factory_accepts(factory, "grid_provider"):
        kwargs["grid_provider"] = grid_provider
    scheduler = factory(scheme, scenario, engine, stream, goal, n_inputs, **kwargs)
    return ServingLoop(
        engine, stream, scheduler, goal,
        requirement_trace=requirement_trace, grid_view=grid_view,
    ).run(n_inputs)


def timing_grid(
    scenario: Scenario,
    goal: Goal,
    n_inputs: int,
    space=None,
    engine=None,
    stream=None,
    allocator=None,
):
    """The oracle outcome grid for one (scenario, timing) pair.

    The grid realises every candidate configuration on every input
    under the goal's deadline and period; it does not depend on the
    accuracy floor or energy budget, so every goal sharing the timing
    shares the grid.  ``space`` overrides the scenario's full candidate
    space (custom factories evaluating reduced sets);
    ``engine``/``stream`` reuse an existing realisation (one engine's
    memoised draws serve every timing of a scenario); ``allocator``
    (see :func:`repro.models.inference.buffer_grid_allocator`) lets a
    grid store realise the arrays directly inside a shared segment.
    """
    # Imported lazily: baselines imports repro.runtime, so a module
    # level import here would be circular.
    from repro.baselines.oracle import oracle_outcome_grid

    if space is None:
        space = scenario.space()
    if engine is None:
        engine = scenario.make_engine()
    if stream is None:
        stream = scenario.make_stream()
    return oracle_outcome_grid(
        engine, space, goal, stream, n_inputs, allocator=allocator
    )


class _WorkerState:
    """Per-process caches: scenarios, factories, spaces, outcome grids.

    Every cache is LRU-bounded (hit refreshes recency, insertion at
    capacity evicts the least recently used entry), so a worker that
    walks an arbitrarily large sweep holds a bounded working set.
    ``grid_store`` optionally plugs a cross-process
    :class:`repro.runtime.grid_store.GridStoreClient` under the grid
    cache: a local miss attaches the store's shared copy before falling
    back to realising (and publishing) the grid here.
    """

    def __init__(
        self,
        scenarios: Mapping[ScenarioKey, Scenario] | None = None,
        grid_store=None,
    ):
        self._scenarios: OrderedDict[ScenarioKey, Scenario] = OrderedDict(
            scenarios or {}
        )
        self._factories: OrderedDict[str, Callable] = OrderedDict()
        self._spaces: OrderedDict[ScenarioKey, object] = OrderedDict()
        self._grids: OrderedDict[tuple, object] = OrderedDict()
        self._realisations: OrderedDict[ScenarioKey, tuple] = OrderedDict()
        self._grid_store = grid_store

    @staticmethod
    def _cache_get(cache: OrderedDict, key):
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
        return cached

    @staticmethod
    def _cache_put(cache: OrderedDict, key, value, capacity: int) -> None:
        while len(cache) >= capacity:
            cache.popitem(last=False)
        cache[key] = value

    def scenario(self, key: ScenarioKey) -> Scenario:
        cached = self._cache_get(self._scenarios, key)
        if cached is None:
            cached = key.build()
            self._cache_put(
                self._scenarios, key, cached, _SCENARIO_CACHE_CAPACITY
            )
        return cached

    def factory(self, path: str) -> Callable:
        cached = self._cache_get(self._factories, path)
        if cached is None:
            cached = resolve_factory(path)
            self._cache_put(
                self._factories, path, cached, _FACTORY_CACHE_CAPACITY
            )
        return cached

    def space(self, key: ScenarioKey):
        cached = self._cache_get(self._spaces, key)
        if cached is None:
            cached = self.scenario(key).space()
            self._cache_put(self._spaces, key, cached, _SCENARIO_CACHE_CAPACITY)
        return cached

    def realisation(self, key: ScenarioKey) -> tuple:
        """One shared (engine, stream) pair per scenario.

        Engines are deterministic functions of the scenario seed and
        memoise their environment draws; streams memoise their items.
        Fused cells share this pair across every run and grid build of
        a scenario, so a plan realises each scenario's environment
        exactly once (per residency in the bounded cache).
        """
        cached = self._cache_get(self._realisations, key)
        if cached is None:
            scenario = self.scenario(key)
            cached = (scenario.make_engine(), scenario.make_stream())
            self._cache_put(
                self._realisations, key, cached, _SCENARIO_CACHE_CAPACITY
            )
        return cached

    def grid(self, key: ScenarioKey, goal: Goal, n_inputs: int, space=None):
        if space is None:
            space = self.space(key)
        # The fingerprint keeps grids over *different* candidate lists
        # (grid_provider requests from custom factories) from aliasing
        # under a shared timing.
        cache_key = (
            key,
            goal.deadline_s,
            goal.period,
            n_inputs,
            space_fingerprint(space),
        )
        cached = self._cache_get(self._grids, cache_key)
        if cached is None:
            cached = self._build_grid(key, goal, n_inputs, space)
            self._cache_put(self._grids, cache_key, cached, _GRID_CACHE_CAPACITY)
        return cached

    def release_grids(self) -> None:
        """Drop every cached outcome grid; the other caches stay.

        For callers that know no later spec shares a timing with the
        ones already run (a sweep's timing groups), so a grid would
        only pin memory until the LRU evicted it.
        """
        self._grids.clear()

    def _build_grid(self, key: ScenarioKey, goal: Goal, n_inputs: int, space):
        """Attach the shared copy when a store is plugged in, else realise.

        The store only serves the scenario's *default* candidate space:
        its cross-process keys are structural, and only the default
        space's row enumeration is a deterministic function of the
        scenario key (custom ``grid_provider`` spaces stay on the local
        per-process cache).
        """

        def realize(allocator=None):
            engine, stream = self.realisation(key)
            return timing_grid(
                self.scenario(key), goal, n_inputs, space=space,
                engine=engine, stream=stream, allocator=allocator,
            )

        store = self._grid_store
        if store is None or space is not self.space(key):
            return realize()
        store_key = (
            key,
            goal.deadline_s,
            goal.period,
            n_inputs,
            structural_space_fingerprint(space),
        )
        return store.get_or_realize(
            store_key, tuple(space), realize, n_inputs=n_inputs
        )

    def _grid_provider(self, key: ScenarioKey, goal: Goal, n_inputs: int):
        """The cache-backed grid hook offered to capable factories."""

        def provider(space):
            return self.grid(key, goal, n_inputs, space=space)

        return provider

    def execute(
        self, spec: "RunSpec | CellSpec | LockstepCellSpec | TableCellSpec"
    ):
        # TableCellSpec subclasses LockstepCellSpec: most-derived first.
        if isinstance(spec, TableCellSpec):
            return self.execute_table_cell(spec)
        if isinstance(spec, LockstepCellSpec):
            return self.execute_lockstep_cell(spec)
        if isinstance(spec, CellSpec):
            return self.execute_cell(spec)
        scenario = self.scenario(spec.scenario)
        factory = self.factory(spec.factory)
        grid = None
        if spec.use_oracle_grid and factory_accepts_oracle_grid(factory):
            grid = self.grid(spec.scenario, spec.goal, spec.n_inputs)
        provider = None
        if factory_accepts(factory, "grid_provider"):
            provider = self._grid_provider(spec.scenario, spec.goal, spec.n_inputs)
        return run_single(
            scenario, spec.goal, spec.scheme, spec.n_inputs, factory,
            oracle_grid=grid, grid_provider=provider,
            requirement_trace=spec.requirement_trace,
        )

    def execute_cell(self, spec: CellSpec) -> list[RunResult]:
        """Realise one grid, serve every scheme of the cell from it.

        The grid comes from the same per-timing cache the isolated
        path uses, so consecutive cells sharing a timing (a constraint
        grid's goals) still build it once.  The view is trusted: the
        grid and every run's engine derive from the same scenario
        seed, so their environment draws are identical by
        construction.
        """
        scenario = self.scenario(spec.scenario)
        factory = self.factory(spec.factory)
        grid = self.grid(spec.scenario, spec.goal, spec.n_inputs)
        view = GridView(grid, trusted=True)
        oracle_grid = None
        if spec.use_oracle_grid and factory_accepts_oracle_grid(factory):
            oracle_grid = grid
        provider = None
        if factory_accepts(factory, "grid_provider"):
            provider = self._grid_provider(spec.scenario, spec.goal, spec.n_inputs)
        engine, stream = self.realisation(spec.scenario)
        return [
            run_single(
                scenario, spec.goal, scheme, spec.n_inputs, factory,
                oracle_grid=oracle_grid, grid_view=view, grid_provider=provider,
                engine=engine, stream=stream,
                requirement_trace=spec.requirement_trace,
            )
            for scheme in spec.schemes
        ]

    def _lockstep_setup(self, spec: LockstepCellSpec):
        """Shared grid/view/scheduler plumbing of the goal-grid cells.

        Returns ``(engine, stream, views, make_schedulers)`` where
        ``make_schedulers(scheme)`` builds the scheme's per-goal
        schedulers with whatever grid keywords the factory accepts.
        One grid/view per timing (the per-timing cache dedupes goals
        sharing a deadline), one shared engine/stream realisation.
        """
        scenario = self.scenario(spec.scenario)
        factory = self.factory(spec.factory)
        accepts_view = factory_accepts(factory, "grid_view")
        accepts_provider = factory_accepts(factory, "grid_provider")
        share_grid = spec.use_oracle_grid and factory_accepts_oracle_grid(
            factory
        )
        engine, stream = self.realisation(spec.scenario)

        grids = []
        views = []
        views_by_grid: dict[int, GridView] = {}
        for goal in spec.goals:
            grid = self.grid(spec.scenario, goal, spec.n_inputs)
            view = views_by_grid.get(id(grid))
            if view is None:
                view = GridView(grid, trusted=True)
                views_by_grid[id(grid)] = view
            grids.append(grid)
            views.append(view)

        def make_schedulers(scheme: str) -> list:
            schedulers = []
            for g, goal in enumerate(spec.goals):
                kwargs = {}
                if share_grid:
                    kwargs["oracle_grid"] = grids[g]
                if accepts_view:
                    kwargs["grid_view"] = views[g]
                if accepts_provider:
                    kwargs["grid_provider"] = self._grid_provider(
                        spec.scenario, goal, spec.n_inputs
                    )
                schedulers.append(
                    factory(
                        scheme, scenario, engine, stream, goal,
                        spec.n_inputs, **kwargs,
                    )
                )
            return schedulers

        return engine, stream, views, make_schedulers

    def execute_lockstep_cell(
        self, spec: LockstepCellSpec
    ) -> list[list[RunResult]]:
        """Serve every scheme over the whole goal grid of one cell.

        Per scheme: a :class:`LockstepServingLoop` when the built
        schedulers stack, the per-goal :class:`CellSpec`-equivalent
        path otherwise.  Results are goal-major, aligned with
        ``spec.goals`` × ``spec.schemes``.
        """
        engine, stream, views, make_schedulers = self._lockstep_setup(spec)
        results: list[list[RunResult | None]] = [
            [None] * len(spec.schemes) for _ in spec.goals
        ]
        for position, scheme in enumerate(spec.schemes):
            schedulers = make_schedulers(scheme)
            lock = None
            if spec.lockstep:
                lock = LockstepServingLoop.for_schedulers(
                    engine, stream, schedulers, spec.goals, views,
                    requirement_trace=spec.requirement_trace,
                )
            if lock is not None:
                for g, run in enumerate(lock.run(spec.n_inputs)):
                    results[g][position] = run
                continue
            LOCKSTEP_TELEMETRY.record_fallback(len(spec.goals))
            for g, goal in enumerate(spec.goals):
                results[g][position] = ServingLoop(
                    engine, stream, schedulers[g], goal,
                    requirement_trace=spec.requirement_trace,
                    grid_view=views[g],
                ).run(spec.n_inputs)
        return results

    def execute_table_cell(
        self, spec: TableCellSpec
    ) -> list[list[RunResult]]:
        """Serve a whole Table-4 cell in one cross-scheme fused pass.

        Every scheme whose schedulers stack becomes a lane of one
        :class:`~repro.runtime.loop.CrossSchemeLockstepLoop`; all lanes
        step the input stream together, sharing the per-input grid
        reads.  Non-stacking schemes (feedback-free, custom types)
        run per-goal as in :meth:`execute_lockstep_cell` — the
        feedback-free ones ride the batch fast path.  Results are
        goal-major, aligned with ``spec.goals`` × ``spec.schemes``,
        value-identical to the per-scheme path
        (``tests/test_cross_scheme_parity.py``).
        """
        if not (spec.cross_scheme and spec.lockstep):
            return self.execute_lockstep_cell(spec)
        engine, stream, views, make_schedulers = self._lockstep_setup(spec)
        results: list[list[RunResult | None]] = [
            [None] * len(spec.schemes) for _ in spec.goals
        ]
        lanes: list = []
        lane_positions: list[int] = []
        for position, scheme in enumerate(spec.schemes):
            schedulers = make_schedulers(scheme)
            lane = LockstepServingLoop.for_schedulers(
                engine, stream, schedulers, spec.goals, views,
                requirement_trace=spec.requirement_trace,
            )
            if lane is not None:
                lanes.append(lane)
                lane_positions.append(position)
                continue
            LOCKSTEP_TELEMETRY.record_fallback(len(spec.goals))
            for g, goal in enumerate(spec.goals):
                results[g][position] = ServingLoop(
                    engine, stream, schedulers[g], goal,
                    requirement_trace=spec.requirement_trace,
                    grid_view=views[g],
                ).run(spec.n_inputs)
        if lanes:
            fused = CrossSchemeLockstepLoop(lanes).run(spec.n_inputs)
            for position, lane_runs in zip(lane_positions, fused):
                for g, run in enumerate(lane_runs):
                    results[g][position] = run
        return results


#: Lazily-created state of a pool worker process.
_POOL_STATE: _WorkerState | None = None
#: Grid-store client handed to this pool's workers at initialisation.
_POOL_GRID_STORE = None


def _pool_initializer(grid_store=None) -> None:
    """Pool-worker setup: reset state, remember the grid store.

    Runs once per worker process.  Resetting ``_POOL_STATE`` matters
    under fork start methods: a forked worker inherits whatever module
    globals the parent had, and stale state must not leak between
    pools.
    """
    global _POOL_STATE, _POOL_GRID_STORE
    _POOL_STATE = None
    _POOL_GRID_STORE = grid_store


def _pool_execute(spec: "RunSpec | CellSpec | LockstepCellSpec | TableCellSpec"):
    """Top-level pool entry point (must be picklable by reference)."""
    global _POOL_STATE
    if _POOL_STATE is None:
        _POOL_STATE = _WorkerState(grid_store=_POOL_GRID_STORE)
    return _POOL_STATE.execute(spec)


class RunExecutor:
    """Executes a plan of :class:`RunSpec`/:class:`CellSpec` entries.

    Parameters
    ----------
    workers:
        1 executes in-process; >1 fans runs out over a
        ``ProcessPoolExecutor`` of that many workers.  Results come
        back in plan order either way, and because every run rebuilds
        its environment from the scenario seed, parallel output is
        bit-identical to serial output.
    chunksize:
        How many consecutive specs one worker task takes.  Isolated
        plans are typically ordered goal-major, so a chunk the size of
        the scheme list keeps one goal's runs (which share an oracle
        grid) on one worker; fused plans carry one :class:`CellSpec`
        per goal, so the default chunk of 1 is already cell-granular.
    grid_store:
        Optional :class:`repro.runtime.grid_store.GridStoreClient`.
        When given, every executing process (serial or pooled) attaches
        shared-memory outcome grids from the store before realising its
        own — each grid is realised once *per sweep* instead of once
        per worker.  Absent, behaviour is exactly the per-process grid
        cache.
    """

    def __init__(
        self, workers: int = 1, chunksize: int = 1, grid_store=None
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"need at least one worker, got {workers}"
            )
        if chunksize < 1:
            raise ConfigurationError(
                f"chunksize must be at least 1, got {chunksize}"
            )
        self.workers = workers
        self.chunksize = chunksize
        self.grid_store = grid_store

    def run_plan(
        self,
        specs: Iterable["RunSpec | CellSpec | LockstepCellSpec"],
        scenarios: Mapping[ScenarioKey, Scenario] | None = None,
    ) -> list:
        """Execute every spec; results align one-to-one with the plan.

        A :class:`RunSpec` yields one :class:`RunResult`; a
        :class:`CellSpec` yields a list of them, aligned with its
        ``schemes``; a :class:`LockstepCellSpec` or
        :class:`TableCellSpec` yields a goal-major list of such lists.
        ``scenarios`` optionally seeds the serial path's
        scenario cache with already-built objects (preserving their
        memoised profiles); pool workers always rebuild from keys.
        """
        plan = list(specs)
        if not plan:
            return []
        if self.workers == 1 or len(plan) == 1:
            state = _WorkerState(scenarios, grid_store=self.grid_store)
            return [state.execute(spec) for spec in plan]
        n_workers = min(self.workers, len(plan))
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_pool_initializer,
            initargs=(self.grid_store,),
        ) as pool:
            return list(
                pool.map(_pool_execute, plan, chunksize=self.chunksize)
            )
