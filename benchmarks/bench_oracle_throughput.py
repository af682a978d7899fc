"""Oracle grid throughput: scalar reference vs. vectorized batch path.

The oracles are built "by running 90 inputs in all possible DNN and
system configurations" (paper Section 5.1); this bench measures that
grid evaluation on the Table 4 candidate set (the full image family
plus the anytime ladder across every CPU1 power level) three ways:

* raw (configuration × input) outcome evaluations/second —
  ``engine.evaluate`` per pair vs. one ``evaluate_batch`` pass;
* ``best_static_config`` wall time, scalar vs. batch;
* per-input ``OracleScheduler`` decisions/second, scalar vs. batch.

Results land in ``BENCH_oracle.json`` at the repository root so the
oracle-path performance trajectory is tracked from PR to PR.  Run
directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_oracle_throughput.py
    PYTHONPATH=src python benchmarks/bench_oracle_throughput.py --smoke

``--smoke`` runs a seconds-scale miniature and writes nothing — CI
invokes it so the script cannot rot, and the bench-regression gate
reuses :func:`run` with a short window to compare the measured
speedup ratios against the committed baseline (ratios are
machine-relative, so they transfer across runner hardware).

Each ratio times its scalar and batch arms in alternating windows,
``repeats`` times, and reports the median of the per-repeat ratios
with their min/max as ``*_spread`` — host-speed drift hits both arms
of a repeat alike, where timing each arm in its own block let it pass
for a regression.

The file is named ``bench_*`` on purpose: the tier-1 pytest run only
collects ``test_*`` files, so this never slows the test gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from _timing import interleaved_ratio, spread

from repro.baselines.oracle import OracleScheduler, best_static_config
from repro.core.config_space import ConfigurationSpace
from repro.core.goals import Goal, ObjectiveKind
from repro.workloads.scenarios import build_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_oracle.json"

#: The paper's oracle horizon.
N_INPUTS = 90


def run(min_seconds: float = 0.5, repeats: int = 5) -> dict:
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=20200501)
    profile = scenario.profile()
    space = ConfigurationSpace(
        list(scenario.candidates.models), list(profile.powers)
    )
    configs = list(space)
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    work_factors = [stream.item(i).work_factor for i in range(N_INPUTS)]
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    n_pairs = len(configs) * N_INPUTS

    # Raw grid evaluation: every configuration on every input.
    def scalar_grid():
        for config in configs:
            for index in range(N_INPUTS):
                engine.evaluate(
                    model=config.model,
                    power_cap_w=config.power_w,
                    index=index,
                    deadline_s=goal.deadline_s,
                    period_s=goal.period,
                    work_factor=work_factors[index],
                    rung_cap=config.rung_cap,
                )

    def batch_grid():
        engine.evaluate_batch(
            configs,
            range(N_INPUTS),
            deadline_s=goal.deadline_s,
            period_s=goal.period,
            work_factors=work_factors,
        )

    grid = interleaved_ratio(
        scalar_grid, batch_grid, n_pairs, min_seconds, repeats
    )

    # OracleStatic: the whole-horizon best configuration.
    def static(use_batch: bool):
        best_static_config(
            engine, space, goal, stream, N_INPUTS, use_batch=use_batch
        )

    static_timed = interleaved_ratio(
        lambda: static(False), lambda: static(True), 1, min_seconds, repeats
    )

    # Oracle: per-input decisions (no precomputed grid — the serving
    # loop's fallback path).
    oracle = OracleScheduler(engine, space)
    items = [stream.item(i) for i in range(N_INPUTS)]

    def decisions(decide):
        for item in items:
            decide(item, goal)

    decide = interleaved_ratio(
        lambda: decisions(oracle.decide_scalar),
        lambda: decisions(oracle.decide),
        N_INPUTS,
        min_seconds,
        repeats,
    )

    # best_static_config + the OracleScheduler horizon, end to end,
    # per repeat (each arm's windows were timed side by side).
    def horizon_s(static_rate: float, decide_rate: float) -> float:
        return 1.0 / static_rate + N_INPUTS / decide_rate

    combined = [
        horizon_s(static_slow, decide_slow) / horizon_s(static_fast, decide_fast)
        for static_slow, static_fast, decide_slow, decide_fast in zip(
            static_timed["slow_rates"],
            static_timed["fast_rates"],
            decide["slow_rates"],
            decide["fast_rates"],
        )
    ]
    return {
        "benchmark": "oracle_throughput",
        "platform": "CPU1",
        "candidate_set": "table4_image",
        "n_configs": len(configs),
        "n_inputs": N_INPUTS,
        "repeats": repeats,
        "grid_scalar_evals_per_sec": round(grid["slow_rate"], 1),
        "grid_batch_evals_per_sec": round(grid["fast_rate"], 1),
        "grid_speedup": round(grid["ratio"], 2),
        "grid_speedup_spread": grid["spread"],
        "static_scalar_seconds": round(1.0 / static_timed["slow_rate"], 5),
        "static_batch_seconds": round(1.0 / static_timed["fast_rate"], 5),
        "static_speedup": round(static_timed["ratio"], 2),
        "static_speedup_spread": static_timed["spread"],
        "oracle_scalar_decisions_per_sec": round(decide["slow_rate"], 1),
        "oracle_batch_decisions_per_sec": round(decide["fast_rate"], 1),
        "decide_speedup": round(decide["ratio"], 2),
        "decide_speedup_spread": decide["spread"],
        "speedup": round(statistics.median(combined), 2),
        "speedup_spread": spread(combined),
    }


def smoke() -> None:
    """Seconds-scale end-to-end exercise of every path (for CI)."""
    result = run(min_seconds=0.05, repeats=1)
    assert result["speedup"] > 0
    print("bench_oracle_throughput smoke ok")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run exercising every path; writes no JSON",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    result = run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if result["speedup"] < 5.0:
        print("WARNING: batch oracle path below the 5x target")


if __name__ == "__main__":
    main()
