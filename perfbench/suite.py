"""The benchmark's three workloads: inputs, rounds, checks and metrics.

Every workload runs as a fixed list of *rounds*.  Round ``i`` is one
whole run of the workload's entry point on scenario seed
``base + i`` (``base`` comes from ``--seed``), so a run's virtual-time
metrics cover the same scenarios every time it is given the same seed.  A round's outputs are reduced to a digest; rounds that
repeat a seed must reproduce it exactly.

* ``table4``  — :func:`repro.experiments.table4_overall.run`, one
  closed batch per round: CPU1/image/memory, both objectives, all seven
  schemes, settings stride 3 (24 (scenario, goal) cells).
* ``overload`` — :func:`repro.experiments.overload_study.run`, the
  12-fleet adaptivity matrix under the study's seeded MMPP timeline on
  virtual time (open loop).
* ``sweep``  — :func:`repro.runtime.sweep.run_sweep` over CPU1/CPU2/GPU
  × memory/compute × both objectives at stride 2 with the feedback-free
  schemes (216 cells), two pool workers, the shared grid store and a
  JSONL checkpoint, which is then resumed as a check.

README.md in this directory says why each workload was chosen and what
each metric means on it.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

from spans import ROUND, Patch

# Seed bases: round i of a run given --seed n uses base + SEED_STRIDE*n + i.
SEED_STRIDE = 100_003
TABLE4_SEED_BASE = 20_200_707
OVERLOAD_SEED_BASE = 20_200_417
SWEEP_SEED_BASE = 20_200_417
#: The overload study's own MMPP timeline seed.
DEFAULT_ARRIVAL_SEED = 7

TABLE4_SCHEMES = (
    "ALERT", "ALERT-Any", "Sys-only", "App-only", "No-coord", "Oracle",
    "OracleStatic",
)
TABLE4_INPUTS = 100
TABLE4_STRIDE = 3

OVERLOAD_HORIZON_S = 60.0

SWEEP_PLATFORMS = ("CPU1", "CPU2", "GPU")
SWEEP_ENVS = ("memory", "compute")
SWEEP_SCHEMES = ("Oracle", "OracleStatic", "App-only")
SWEEP_STRIDE = 2
SWEEP_INPUTS = 500
SWEEP_WORKERS = 2


class CheckFailed(Exception):
    """An output check failed; ``units`` of the round count as failed."""

    def __init__(self, message: str, units: int) -> None:
        super().__init__(message)
        self.units = units


def _hex(value: float) -> str:
    return float(value).hex()


def harmonic_mean(values) -> float:
    values = list(values)
    return len(values) / sum(1.0 / v for v in values)


class Timed:
    """Wall time of a round's timed section, as a ``bench.round`` span
    when tracing."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.elapsed_s = 0.0

    def __enter__(self) -> "Timed":
        self.span = self.tracer.open(ROUND) if self.tracer is not None else None
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed_s = time.perf_counter() - self.started
        if self.span is not None:
            self.tracer.close(self.span)


class Round:
    """One round's outcome: work done, digest, and pooled raw data."""

    def __init__(self, units: int, requests: int, digest: str, data) -> None:
        self.units = units
        self.requests = requests
        self.digest = digest
        self.data = data
        self.elapsed_s = 0.0
        self.speed = 1.0


def _median_percentile(per_round, q: float) -> float:
    """Percentile ``q`` of each round's pooled samples, median over rounds.

    A round is one scenario; the median scenario keeps one heavy-tailed
    scenario from setting a run's tail figure."""
    return float(np.median([np.percentile(x, q) for x in per_round]))


def _series(run):
    """Per-input (latency, energy, violated) arrays of one run."""
    arrays = run.arrays
    if arrays is not None:
        return (
            np.asarray(arrays.latency_s, dtype=float),
            np.asarray(arrays.energy_j, dtype=float),
            np.asarray(arrays.violated, dtype=bool),
        )
    records = run.records
    return (
        np.array([r.outcome.latency_s for r in records], dtype=float),
        np.array([r.outcome.energy_j for r in records], dtype=float),
        np.array([r.violated for r in records], dtype=bool),
    )


# ----------------------------------------------------------------------
# table4
# ----------------------------------------------------------------------
class Table4:
    name = "table4"
    units = 24  # (scenario, goal) cells per round
    rounds = 16
    traced_rounds = 2

    def __init__(self, seed: int, scenario_seed: int | None, arrival_seed) -> None:
        self.base = (
            scenario_seed
            if scenario_seed is not None
            else TABLE4_SEED_BASE + SEED_STRIDE * seed
        )

    def seeds(self) -> dict:
        return {"scenario_seed_base": self.base}

    def setup(self) -> None:
        from repro.experiments import table4_overall  # noqa: F401
        from repro.workloads.scenarios import build_scenario, constraint_grid

        scenario = build_scenario("CPU1", "image", "memory", "standard", self.base)
        scenario.space()
        constraint_grid(scenario)

    def run_round(self, index: int, patch, tracer) -> Round:
        from repro.experiments import table4_overall

        captured: list = []
        original = table4_overall.evaluate_schemes

        def capture(scenario, goals, *args, **kwargs):
            if tracer is not None:
                tracer.unit = f"table4:{self.base + index}:{goals[0].objective.value}"
            result = original(scenario, goals, *args, **kwargs)
            captured.append(result)
            return result

        patch.replace(table4_overall, "evaluate_schemes", capture)
        try:
            with Timed(tracer) as clock:
                result = table4_overall.run(
                    envs=("memory",),
                    schemes=TABLE4_SCHEMES,
                    settings_stride=TABLE4_STRIDE,
                    n_inputs=TABLE4_INPUTS,
                    seed=self.base + index,
                )
        finally:
            patch.undo()
        out = self._check(result, captured)
        out.elapsed_s = clock.elapsed_s
        return out

    def _check(self, result, captured) -> Round:
        digest = hashlib.sha256()
        failed_cells = 0
        problems = []
        n_cells = 0
        for key, cell in sorted(result.cells.items(), key=lambda kv: kv[0].objective):
            n_settings = max((c.n_settings for c in cell.values()), default=0)
            n_cells += n_settings
            ok = set(cell) == set(TABLE4_SCHEMES)
            for scheme in TABLE4_SCHEMES:
                sc = cell.get(scheme)
                if sc is None:
                    continue
                if sc.n_settings != n_settings or not 0 <= sc.violated_settings <= n_settings:
                    ok = False
                norm = sc.normalized_objective
                # NaN is the documented score of a scheme that violated
                # every setting; anything else must be finite.
                if math.isnan(norm):
                    ok = ok and sc.violated_settings == n_settings
                else:
                    ok = ok and math.isfinite(norm) and norm > 0
                if scheme == "OracleStatic" and not math.isnan(norm):
                    ok = ok and norm == 1.0
                digest.update(
                    f"{key.objective}|{scheme}|{_hex(norm)}|{sc.violated_settings}"
                    f"|{_hex(sc.raw_objective)}\n".encode()
                )
            if not ok:
                failed_cells += n_settings
                problems.append(key.objective)
        if len(result.cells) != 2 or n_cells != self.units:
            raise CheckFailed(
                f"table4 produced {len(result.cells)} rows / {n_cells} cells",
                self.units,
            )
        latency, energy, violated = [], [], []
        for cell_runs in captured:
            for runs in cell_runs.runs.values():
                for run in runs:
                    lat, en, vio = _series(run)
                    if len(lat) != TABLE4_INPUTS or not np.isfinite(run.objective_value):
                        failed_cells += 1
                    latency.append(lat)
                    energy.append(en)
                    violated.append(vio)
                    digest.update(_hex(run.objective_value).encode())
        if failed_cells:
            raise CheckFailed(
                f"table4 rows failed checks: {problems}", min(self.units, failed_cells)
            )
        data = {
            "latency": np.concatenate(latency),
            "energy": np.concatenate(energy),
            "violated": np.concatenate(violated),
            # Absent when ALERT violated every setting of the objective.
            "energy_norm": result.harmonic_means("min_energy").get("ALERT"),
            "error_norm": result.harmonic_means("min_error").get("ALERT"),
            "alert_violated": np.concatenate([
                _series(run)[2]
                for cell_runs in captured
                for run in cell_runs.scheme_runs("ALERT")
            ]),
        }
        requests = sum(len(x) for x in latency)
        return Round(n_cells, requests, digest.hexdigest(), data)

    def virtual_metrics(self, rounds: list[Round]) -> dict:
        data = [r.data for r in rounds]
        return {
            "miss_rate": float(np.mean(np.concatenate([d["violated"] for d in data]))),
            "p50_response_s": _median_percentile([d["latency"] for d in data], 50.0),
            "p99_response_s": _median_percentile([d["latency"] for d in data], 99.0),
            "energy_j_per_request": float(
                np.mean(np.concatenate([d["energy"] for d in data]))
            ),
            "alert_energy_norm": harmonic_mean(
                d["energy_norm"] for d in data if d["energy_norm"] is not None
            ),
            "alert_error_norm": harmonic_mean(
                d["error_norm"] for d in data if d["error_norm"] is not None
            ),
            "alert_violation_pct": 100.0
            * float(np.mean(np.concatenate([d["alert_violated"] for d in data]))),
        }


# ----------------------------------------------------------------------
# overload
# ----------------------------------------------------------------------
class _QualitySum:
    """``on_served`` hook: sums delivered quality per fleet."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0

    def __call__(self, request, outcome) -> None:
        self.total += outcome.quality


class Overload:
    name = "overload"
    units = 12  # fleets per round
    rounds = 16
    traced_rounds = 2

    def __init__(self, seed: int, scenario_seed: int | None, arrival_seed) -> None:
        self.base = (
            scenario_seed
            if scenario_seed is not None
            else OVERLOAD_SEED_BASE + SEED_STRIDE * seed
        )
        self.arrival_seed = (
            arrival_seed if arrival_seed is not None else DEFAULT_ARRIVAL_SEED
        )

    def seeds(self) -> dict:
        return {"scenario_seed_base": self.base, "arrival_seed": self.arrival_seed}

    def setup(self) -> None:
        from repro.experiments import overload_study
        from repro.serve.frontend import FleetFrontend

        # The study's own construction of its 12 fleets, without serving.
        patch = Patch()
        patch.replace(FleetFrontend, "run", lambda fleet, duration_s: fleet.summary())
        try:
            overload_study.run(
                duration_s=OVERLOAD_HORIZON_S, seed=self.base,
                arrival_seed=self.arrival_seed,
            )
        finally:
            patch.undo()

    def run_round(self, index: int, patch, tracer) -> Round:
        from repro.experiments import overload_study
        from repro.serve.frontend import FleetFrontend

        seed = self.base + index
        fleets: list = []
        original = overload_study.build_fleet

        def capture(config):
            fleet = original(config)
            fleet.on_served = _QualitySum()
            fleets.append((config, fleet))
            return fleet

        patch.replace(overload_study, "build_fleet", capture)
        if tracer is not None:
            traced_run = FleetFrontend.run

            def run_with_unit(fleet, duration_s):
                config = next(c for c, f in fleets if f is fleet)
                tracer.unit = (
                    f"fleet:{seed}:{config.policy}/{config.autoscaler}/{config.budget}"
                )
                return traced_run(fleet, duration_s)

            patch.replace(FleetFrontend, "run", run_with_unit)
        try:
            with Timed(tracer) as clock:
                result = overload_study.run(
                    duration_s=OVERLOAD_HORIZON_S,
                    seed=seed,
                    arrival_seed=self.arrival_seed,
                )
        finally:
            patch.undo()
        out = self._check(result, fleets)
        out.elapsed_s = clock.elapsed_s
        return out

    def _check(self, result, fleets) -> Round:
        if len(fleets) != self.units or len(result.cells) != self.units:
            raise CheckFailed(
                f"overload ran {len(fleets)} fleets, expected {self.units}", self.units
            )
        digest = hashlib.sha256()
        failed = []
        data = {
            "responses": [], "arrived": 0, "missed": 0, "served": 0,
            "energy": 0.0, "queue_wait": [], "drops": 0, "violations": 0,
            "by_fleet": {},
        }
        for (config, fleet), cell in zip(fleets, result.cells):
            metrics = fleet.metrics
            in_system = sum(replica.backlog for replica in fleet.replicas)
            conserved = metrics.arrived == (
                metrics.served + metrics.dropped + in_system
            )
            same = (config.policy, config.autoscaler, config.budget) == (
                cell.policy, cell.autoscaler, cell.budget,
            ) and cell.served == metrics.served
            if not (conserved and same and metrics.served > 0):
                failed.append((cell.policy, cell.autoscaler, cell.budget))
            responses = np.asarray(metrics.responses_s, dtype=float)
            service = np.asarray(metrics.service_s, dtype=float)
            data["responses"].append(responses)
            # With batch_size=1 a request's response is its queue wait
            # plus its own service time.
            data["queue_wait"].append(responses - service)
            data["arrived"] += metrics.arrived
            data["missed"] += metrics.violations + metrics.dropped
            data["served"] += metrics.served
            data["energy"] += metrics.energy_j
            data["drops"] += metrics.dropped
            data["violations"] += metrics.violations
            data["by_fleet"][(cell.policy, cell.autoscaler, cell.budget)] = (
                metrics.energy_j / metrics.served,
                1.0 - fleet.on_served.total / metrics.served,
            )
            digest.update(
                f"{cell.policy}|{cell.autoscaler}|{cell.budget}|{metrics.arrived}"
                f"|{metrics.served}|{metrics.dropped}|{metrics.violations}|{in_system}"
                f"|{_hex(metrics.energy_j)}|{_hex(fleet.on_served.total)}"
                f"|{hashlib.sha256(responses.tobytes()).hexdigest()}\n".encode()
            )
        # Recorded, not gated: whether adaptive beats static is the
        # study's claim about its policies, and a correct simulation can
        # refute it on some scenarios (README, "Known limit").
        data["dominance"] = list(result.dominance().values())
        if failed:
            raise CheckFailed(f"overload fleets failed checks: {failed}", len(set(failed)))
        return Round(self.units, data["served"], digest.hexdigest(), data)

    def virtual_metrics(self, rounds: list[Round]) -> dict:
        data = [r.data for r in rounds]
        energy_ratio, error_ratio = [], []
        for d in data:
            for (policy, autoscaler, budget), values in d["by_fleet"].items():
                if (autoscaler, budget) == ("none", "equal"):
                    continue
                static = d["by_fleet"][(policy, "none", "equal")]
                energy_ratio.append(values[0] / static[0])
                error_ratio.append(values[1] / static[1])
        return {
            "miss_rate": sum(d["missed"] for d in data) / sum(d["arrived"] for d in data),
            "p50_response_s": _median_percentile(
                [np.concatenate(d["responses"]) for d in data], 50.0
            ),
            "p99_response_s": _median_percentile(
                [np.concatenate(d["responses"]) for d in data], 99.0
            ),
            "energy_j_per_request": sum(d["energy"] for d in data)
            / sum(d["served"] for d in data),
            "alert_energy_norm": harmonic_mean(energy_ratio),
            "alert_error_norm": harmonic_mean(error_ratio),
            "alert_violation_pct": 100.0
            * sum(d["violations"] for d in data)
            / sum(d["served"] for d in data),
        }

    def report(self, rounds: list[Round]) -> dict:
        outcomes = [won for r in rounds for won in r.data["dominance"]]
        return {"dominance_won": sum(outcomes), "dominance_policy_rounds": len(outcomes)}

    def serve_metrics(self, rounds: list[Round]) -> dict:
        waits = np.concatenate([x for r in rounds for x in r.data["queue_wait"]])
        return {
            "served": sum(r.data["served"] for r in rounds),
            "drops": sum(r.data["drops"] for r in rounds),
            "queue_wait_s_p50": float(np.percentile(waits, 50.0)),
            "queue_wait_s_p99": float(np.percentile(waits, 99.0)),
        }


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class Sweep:
    name = "sweep"
    units = 216  # (scenario, goal) cells per round
    rounds = 6
    traced_rounds = 2
    pool_workers = SWEEP_WORKERS

    def __init__(self, seed: int, scenario_seed: int | None, arrival_seed) -> None:
        self.base = (
            scenario_seed
            if scenario_seed is not None
            else SWEEP_SEED_BASE + SEED_STRIDE * seed
        )
        self.out_dir: str | None = None

    def seeds(self) -> dict:
        return {"scenario_seed_base": self.base}

    def spec(self, seed: int):
        from repro.runtime.sweep import SweepSpec

        return SweepSpec(
            platforms=SWEEP_PLATFORMS,
            envs=SWEEP_ENVS,
            schemes=SWEEP_SCHEMES,
            settings_stride=SWEEP_STRIDE,
            n_inputs=SWEEP_INPUTS,
            seeds=(seed,),
        )

    def setup(self) -> None:
        from concurrent.futures import ProcessPoolExecutor

        from repro.runtime.grid_store import SharedGridStore
        from repro.runtime.sweep import compile_sweep

        compile_sweep(self.spec(self.base))
        store = SharedGridStore()
        try:
            with ProcessPoolExecutor(max_workers=SWEEP_WORKERS) as pool:
                for future in [pool.submit(os.getpid) for _ in range(SWEEP_WORKERS)]:
                    future.result()
        finally:
            store.close()

    def run_round(self, index: int, patch, tracer) -> Round:
        from repro.runtime import sweep

        spec = self.spec(self.base + index)
        checkpoint = os.path.join(self.out_dir, "sweep-checkpoint.jsonl")
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
        try:
            with Timed(tracer) as clock:
                result = sweep.run_sweep(
                    spec, workers=SWEEP_WORKERS, checkpoint_path=checkpoint
                )
        finally:
            patch.undo()
        resumed = sweep.run_sweep(
            spec, workers=SWEEP_WORKERS, checkpoint_path=checkpoint
        )
        os.remove(checkpoint)
        out = self._check(spec, result, resumed)
        out.elapsed_s = clock.elapsed_s
        return out

    def _check(self, spec, result, resumed) -> Round:
        from repro.runtime.sweep import compile_sweep

        expected = len(compile_sweep(spec))
        if not result.complete or result.n_cells != expected or expected != self.units:
            raise CheckFailed(
                f"sweep ran {result.n_cells} cells (complete={result.complete}), "
                f"expected {expected}",
                self.units,
            )
        failed = 0
        digest = hashlib.sha256()
        for cell, again in zip(result.cells, resumed.cells):
            names = tuple(summary.scheme for summary in cell)
            numbers = [
                summary.mean_energy_j for summary in cell
            ] + [summary.p99_latency_s for summary in cell]
            if (
                names != SWEEP_SCHEMES
                or cell != again
                or not all(math.isfinite(x) for x in numbers)
            ):
                failed += 1
            for summary in cell:
                digest.update(repr(sorted(summary.to_json().items())).encode())
        if resumed.executed != 0 or resumed.resumed != expected:
            failed = expected
        if failed:
            raise CheckFailed(f"sweep: {failed} cells failed checks", failed)
        summaries = [
            (unit.goal.objective.value, summary)
            for unit, cell in zip(result.units, result.cells)
            for summary in cell
        ]
        oracle = [(obj, s) for obj, s in summaries if s.scheme == "Oracle"]
        data = {
            "violation": [s.violation_fraction for _, s in summaries],
            "p50": [s.p50_latency_s for _, s in summaries],
            "p99": [s.p99_latency_s for _, s in summaries],
            "energy": [s.mean_energy_j for _, s in summaries],
            "energy_norm": [
                s.normalized_score
                for obj, s in oracle
                if obj == "minimize_energy" and not s.setting_violated
            ],
            "error_norm": [
                s.normalized_score
                for obj, s in oracle
                if obj != "minimize_energy" and not s.setting_violated
            ],
            "oracle_violation": [s.violation_fraction for _, s in oracle],
            "store": result.grid_store_stats or {},
        }
        return Round(expected, expected * len(SWEEP_SCHEMES) * SWEEP_INPUTS,
                     digest.hexdigest(), data)

    def virtual_metrics(self, rounds: list[Round]) -> dict:
        data = [r.data for r in rounds]

        def pooled(key):
            return [x for d in data for x in d[key]]

        return {
            "miss_rate": float(np.mean(pooled("violation"))),
            "p50_response_s": float(np.mean(pooled("p50"))),
            "p99_response_s": float(np.mean(pooled("p99"))),
            "energy_j_per_request": float(np.mean(pooled("energy"))),
            "alert_energy_norm": harmonic_mean(pooled("energy_norm")),
            "alert_error_norm": harmonic_mean(pooled("error_norm")),
            "alert_violation_pct": 100.0 * float(np.mean(pooled("oracle_violation"))),
        }


WORKLOADS = {cls.name: cls for cls in (Table4, Overload, Sweep)}


# ----------------------------------------------------------------------
# Layer spans (traced rounds only)
# ----------------------------------------------------------------------
class _TimedCheckpoint:
    """The sweep's checkpoint handle, with ``write``/``flush`` as spans."""

    def __init__(self, handle, tracer) -> None:
        self._handle = handle
        self._tracer = tracer

    def _timed(self, method, *args):
        span = self._tracer.open("sweep.checkpoint")
        try:
            return method(*args)
        finally:
            self._tracer.close(span)

    def write(self, text):
        return self._timed(self._handle.write, text)

    def flush(self):
        return self._timed(self._handle.flush)

    def close(self):
        return self._handle.close()


def _grid_bytes(args, kwargs, grid):
    total = sum(
        value.nbytes for value in vars(grid).values() if isinstance(value, np.ndarray)
    )
    yield "engine.grid_bytes", total


def _states(args, kwargs, result):
    yield "select.many.states", len(args[1])


def install_layer_spans(patch, tracer, worker_dir: str) -> None:
    """Wrap each layer's public entry points in spans, via ``patch``."""
    import builtins

    import spans
    from repro.baselines import oracle
    from repro.core import batch_estimator, kernel, selector
    from repro.hw import contention
    from repro.models import inference
    from repro.runtime import executor, grid_store, loop, sweep
    from repro.serve import autoscaler, budget, frontend, policies

    for cls in (
        policies.RoundRobinPolicy, policies.LeastLoadedPolicy,
        policies.CostAwarePolicy,
    ):
        patch.wrap(cls, "select", "serve.policy_select")
    for cls in (budget.PowerBudget, budget.XiWeightedBudget):
        patch.wrap(cls, "partition", "serve.budget_partition")
    patch.wrap(autoscaler.Autoscaler, "maybe_evaluate", "serve.autoscaler_evaluate")
    patch.wrap(frontend.FleetFrontend, "run", "serve.fleet_run")
    patch.wrap(kernel.AlertKernel, "decide", "kernel.decide")
    patch.wrap(kernel.AlertKernel, "observe", "kernel.observe")
    patch.wrap(kernel.AlertCellKernel, "decide_many", "kernel.decide_many")
    patch.wrap(kernel.AlertCellKernel, "observe_many", "kernel.observe_many")
    patch.wrap(batch_estimator.BatchAlertEstimator, "estimate_batch", "estimate.batch")
    patch.wrap(batch_estimator.BatchAlertEstimator, "stacked_fields", "estimate.stacked")
    patch.wrap(selector.ConfigSelector, "select", "select.one")
    patch.wrap(selector.ConfigSelector, "select_many", "select.many", _states)
    patch.wrap(inference.InferenceEngine, "run", "engine.run")
    patch.wrap(
        inference.InferenceEngine, "evaluate_batch", "engine.evaluate_batch",
        _grid_bytes,
    )
    patch.wrap(contention.ContentionProcess, "sample", "hw.contention_sample")
    patch.wrap(oracle.OracleScheduler, "decide_batch", "oracle.decide_batch")
    patch.wrap(loop.ServingLoop, "run", "loop.serving")
    patch.wrap(loop.LockstepServingLoop, "run", "loop.lockstep")
    patch.wrap(loop.CrossSchemeLockstepLoop, "run", "loop.cross")
    patch.wrap(executor._WorkerState, "execute", "executor.execute")
    patch.wrap(grid_store.GridStoreClient, "get_or_realize", "grid_store.get_or_realize")
    patch.wrap(sweep, "run_sweep", "sweep.run")
    patch.wrap(sweep, "_checkpoint_line", "sweep.checkpoint")

    def timed_open(path, mode="r", *args, **kwargs):
        handle = builtins.open(path, mode, *args, **kwargs)
        return _TimedCheckpoint(handle, tracer) if "a" in mode else handle

    patch.replace(sweep, "open", timed_open)
    spans._ORIGINAL_SWEEP_EXECUTE = sweep._sweep_execute
    tracer.worker_dir = worker_dir
    patch.replace(sweep, "_sweep_execute", spans.traced_sweep_execute)
