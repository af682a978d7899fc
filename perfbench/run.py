"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs rounds
with and without layer spans and prints the per-layer metrics.  The
last line of standard output is always the result object; everything
before it (the machine record, per-round lines) is for people.  The
exit code is 0 only when every output check passed.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh-process set-up measurements per run; the median is reported.
SETUP_REPEATS = 5

#: Each timed layer entry point (its span name), and whether it is called
#: often enough to report µs percentiles.
TIMED_LAYERS = (
    ("serve.fleet_run", False),
    ("serve.policy_select", True),
    ("serve.budget_partition", False),
    ("serve.autoscaler_evaluate", True),
    ("kernel.decide", True),
    ("kernel.observe", True),
    ("kernel.decide_many", True),
    ("kernel.observe_many", True),
    ("estimate.batch", True),
    ("estimate.stacked", True),
    ("select.one", True),
    ("select.many", True),
    ("engine.run", True),
    ("engine.evaluate_batch", True),
    ("hw.contention_sample", True),
    ("oracle.decide_batch", True),
    ("loop.serving", True),
    ("loop.lockstep", False),
    ("loop.cross", False),
    ("executor.execute", True),
    ("grid_store.get_or_realize", True),
    ("sweep.worker_execute", False),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "miss_rate": "ratio",
    "p50_response_s": "s",
    "p99_response_s": "s",
    "energy_j_per_request": "J",
    "alert_energy_norm": "ratio",
    "alert_error_norm": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scenario-seed", type=int, default=None,
        help="first round's scenario seed (default: derived from --seed)",
    )
    parser.add_argument(
        "--arrival-seed", type=int, default=None,
        help="overload's MMPP timeline seed (default: the study's, 7)",
    )
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="measure the workload's set-up once in this process and exit",
    )
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if shutil.which("git"):
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """Digest of the program's sources, for checkouts without git."""
    import hashlib

    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: The fixed calibration kernel's time at the reference host speed: its
#: quiet-period time on the 2-vCPU Xeon VM this benchmark was tuned on.
CALIBRATION_REF_S = 0.0095
CALIBRATION_REPS = 4


def calibration_kernel() -> float:
    """Benchmark-owned work shaped like the program's: interpreter
    dict/tuple churn plus small elementwise NumPy (single-threaded)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 256)
    table: dict = {}
    acc = 0.0
    for i in range(2000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + 1
        acc += float(np.exp(-x * (i & 7)).sum())
    return acc + len(table)


def calibration_times() -> list[float]:
    times = []
    for _ in range(CALIBRATION_REPS):
        started = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - started)
    return times


def speed_factor(times: list[float]) -> float:
    """How much slower than the reference the host ran (>1 = slower)."""
    return statistics.median(times) / CALIBRATION_REF_S


def peak_rss_mb() -> float:
    """Driver peak RSS plus the largest child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Raw set-up times of fresh processes, and the speed factor around each."""
    command = [
        sys.executable, os.path.abspath(__file__), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.scenario_seed is not None:
        command += ["--scenario-seed", str(args.scenario_seed)]
    if args.arrival_seed is not None:
        command += ["--arrival-seed", str(args.arrival_seed)]
    raw, factors = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration_times()
        stdout = run_probe(command)
        factors.append(speed_factor(before + calibration_times()))
        raw.append(float(stdout.strip().splitlines()[-1]))
    return raw, factors


def run_probe(command) -> str:
    """Run one set-up probe in a process group of its own and return its
    output.  Whatever the probe leaves in its group is killed before this
    returns, on every path out."""
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as probe:
        try:
            stdout, stderr = probe.communicate(timeout=120)
        finally:
            try:
                os.killpg(probe.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            probe.wait()
    if probe.returncode != 0:
        raise subprocess.CalledProcessError(
            probe.returncode, command, stdout, stderr
        )
    return stdout


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this process started one
    (the sweep's shared grid store does), and wait for it to end.

    Left alone it outlives the benchmark: it ends only after noticing that
    its pipe closed and releasing whatever it still tracks."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is None:
        return
    try:
        tracker._stop()
    except ChildProcessError:
        pass


class Runner:
    """Runs rounds, records digests and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.unit_count = workload.units
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.errors: list[str] = []

    def round(self, index: int, tracer=None):
        from spans import Patch

        import suite

        patch = Patch()
        if tracer is not None:
            suite.install_layer_spans(patch, tracer, tracer.worker_dir)
        try:
            result = self.workload.run_round(index, patch, tracer)
        except suite.CheckFailed as exc:
            self.attempted += self.unit_count
            self.failed += min(exc.units, self.unit_count)
            self.errors.append(f"round {index}: {exc}")
            return None
        except Exception:
            self.attempted += self.unit_count
            self.failed += self.unit_count
            self.errors.append(f"round {index}: {traceback.format_exc()}")
            return None
        finally:
            patch.undo()
        self.attempted += result.units
        known = self.digests.setdefault(index, result.digest)
        if known != result.digest:
            self.failed += result.units
            self.errors.append(f"round {index}: outputs differ from its first run")
            return None
        return result


def run_untraced(runner, workload, seconds):
    runner.round(0)  # warm-up: imports, caches, first-touch allocation
    timed = []
    started = time.perf_counter()
    index = 0
    while index < workload.rounds or time.perf_counter() - started < seconds:
        before = calibration_times()
        result = runner.round(index % workload.rounds)
        if result is not None:
            result.speed = speed_factor(before + calibration_times())
            timed.append((index % workload.rounds, result))
        index += 1
    return timed


def run_traced(runner, workload, seconds):
    """Untraced/traced pairs over the traced rounds; spans from the first
    pass only, overhead from every pair."""
    from spans import TRACER, read_worker_files

    worker_dir = os.path.join(OUT, f"workers-{os.getpid()}")
    runner.round(0)
    started = time.perf_counter()
    spans, counters, traced = [], {}, []
    untraced_s = traced_s = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() - started < seconds:
        for index in range(workload.traced_rounds):
            plain = runner.round(index)
            shutil.rmtree(worker_dir, ignore_errors=True)
            os.makedirs(worker_dir)
            TRACER.reset()
            TRACER.worker_dir = worker_dir
            result = runner.round(index, TRACER)
            if plain is None or result is None:
                continue
            untraced_s += plain.elapsed_s
            traced_s += result.elapsed_s
            if passes == 0:
                traced.append(result)
                spans.extend(TRACER.records())
                for key, value in TRACER.counters.items():
                    counters[key] = counters.get(key, 0) + value
                worker_spans, worker_counters = read_worker_files(worker_dir)
                spans.extend(worker_spans)
                for key, value in worker_counters.items():
                    counters[key] = counters.get(key, 0) + value
        passes += 1
    TRACER.reset()
    shutil.rmtree(worker_dir, ignore_errors=True)
    overhead = untraced_s / traced_s if traced_s > 0 else 0.0
    return spans, counters, traced, overhead


def layer_metrics(workload, spans, counters, traced, overhead) -> dict:
    from spans import ROUND, has_child, summarize

    by_name = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "us_p50": 0.0, "us_p99": 0.0, "total_s": 0.0}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, latency in TIMED_LAYERS:
        entry = by_name.get(name, empty)
        put(f"{name}.calls", entry["calls"], "count")
        put(f"{name}.self_s", entry["self_s"], "s")
        if latency:
            put(f"{name}.us_p50", entry["us_p50"], "us")
            put(f"{name}.us_p99", entry["us_p99"], "us")

    serve = (
        workload.serve_metrics(traced) if hasattr(workload, "serve_metrics") else {}
    )
    decides = by_name.get("kernel.decide", empty)["calls"]
    served = serve.get("served", 0)
    put("serve.decides_per_served", decides / served if served else 0.0, "ratio")
    put("serve.queue_wait_s_p50", serve.get("queue_wait_s_p50", 0.0), "s")
    put("serve.queue_wait_s_p99", serve.get("queue_wait_s_p99", 0.0), "s")
    put("serve.drops", serve.get("drops", 0), "count")
    misses = has_child(spans, "kernel.decide", "select.one")
    put("kernel.memo_hit_ratio", 1.0 - misses / decides if decides else 0.0, "ratio")
    many = by_name.get("select.many", empty)["calls"]
    put(
        "select.many.states_per_call",
        counters.get("select.many.states", 0) / many if many else 0.0,
        "count",
    )
    put("engine.grid_mb", counters.get("engine.grid_bytes", 0) / 1e6, "MB")

    # The executor's view of the pool: worker time spent executing
    # cells against the worker-seconds the sweep held the pool.
    pool_wall = by_name.get("sweep.run", empty)["total_s"]
    workers = getattr(workload, "pool_workers", 0)
    busy = by_name.get("sweep.worker_execute", empty)["total_s"]
    capacity = workers * pool_wall
    put("executor.busy_share", busy / capacity if capacity else 0.0, "ratio")
    put("executor.wait_s", max(0.0, capacity - busy) if capacity else 0.0, "s")
    stores = [r.data.get("store", {}) for r in traced if isinstance(r.data, dict)]
    put("grid_store.grids_published", sum(s.get("grids", 0) for s in stores), "count")
    put(
        "grid_store.mb_published",
        sum(s.get("nbytes", 0) for s in stores) / 1e6, "MB",
    )
    put("grid_store.failed", sum(s.get("failed", 0) for s in stores), "count")
    put("sweep.checkpoint_s", by_name.get("sweep.checkpoint", empty)["self_s"], "s")

    rounds = by_name.get(ROUND, empty)
    coverage = 1.0 - rounds["self_s"] / rounds["total_s"] if rounds["total_s"] else 0.0
    put("trace.coverage", coverage, "ratio")
    put("trace.spans", len(spans), "count")
    put("trace.overhead", overhead, "ratio")
    return metrics


def probe_setup(args) -> int:
    sys.path.insert(0, SRC)
    import suite

    workload = suite.WORKLOADS[args.workload](
        args.seed, args.scenario_seed, args.arrival_seed
    )
    try:
        workload.setup()
        elapsed = time.perf_counter() - _STARTED
    finally:
        stop_resource_tracker()
    print(elapsed)
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_resource_tracker()


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)
    sys.path.insert(0, SRC)
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = suite.WORKLOADS[args.workload](
        args.seed, args.scenario_seed, args.arrival_seed
    )
    workload.out_dir = OUT
    runner = Runner(workload)
    calibration_kernel()  # first-call cost stays out of the speed factors
    machine = machine_record()
    print(json.dumps({"machine": machine, "workload": workload.name,
                      "seeds": workload.seeds()}))

    if args.trace:
        spans, counters, traced, overhead = run_traced(runner, workload, args.seconds)
        metrics = layer_metrics(workload, spans, counters, traced, overhead)
        from spans import write_jsonl

        write_jsonl(os.path.join(OUT, f"trace-{workload.name}.jsonl"), spans)
    else:
        timed = run_untraced(runner, workload, args.seconds)
        rss = peak_rss_mb()
        try:
            setup, setup_speed = measure_setup(args)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            runner.errors.append(f"set-up probe failed: {exc}")
            setup, setup_speed = [0.0], [1.0]
        first_pass = {}
        for index, result in timed:
            first_pass.setdefault(index, result)
        # Host-time figures are reported at the reference host speed:
        # each round's rate times the speed factor measured around it.
        values = {
            "setup_s": statistics.median(
                t / f for t, f in zip(setup, setup_speed)
            ),
            "cells_per_s": statistics.median(
                r.units / r.elapsed_s * r.speed for _, r in timed
            ) if timed else 0.0,
            "requests_per_s": statistics.median(
                r.requests / r.elapsed_s * r.speed for _, r in timed
            ) if timed else 0.0,
            "peak_rss_mb": rss,
        }
        if len(first_pass) == workload.rounds:
            values.update(workload.virtual_metrics(
                [first_pass[i] for i in range(workload.rounds)]
            ))
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        # Reported for people, not as metrics: the violation share varies
        # too much across seeds to hold any bound (README).
        report = {
            key: values[key] for key in ("alert_violation_pct",) if key in values
        }
        if hasattr(workload, "report"):
            report.update(workload.report([first_pass[i] for i in sorted(first_pass)]))
        print(json.dumps({
            **report,
            "rounds": len(timed),
            "round_seconds": [round(r.elapsed_s, 4) for _, r in timed],
            "round_speed": [round(r.speed, 4) for _, r in timed],
            "raw_cells_per_s": statistics.median(
                r.units / r.elapsed_s for _, r in timed
            ) if timed else 0.0,
            "setup_seconds": setup,
            "setup_speed": setup_speed,
        }))
    for error in runner.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    correct = runner.failed == 0 and not runner.errors
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{workload.name}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"machine": machine, "seeds": workload.seeds(),
                   "args": vars(args), **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
