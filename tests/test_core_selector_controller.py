"""Tests for configuration selection and the controller."""

from __future__ import annotations

import pytest

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.controller import AlertController
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal, GoalAdjuster, ObjectiveKind
from repro.core.selector import ConfigSelector
from repro.errors import ConfigurationError
from repro.models.families import depth_nest_anytime, sparse_resnet_family
from repro.workloads.inputs import InputItem


@pytest.fixture()
def selector(cpu1_profile, image_models):
    space = ConfigurationSpace(image_models, list(cpu1_profile.powers))
    return ConfigSelector(space, AlertEstimator(cpu1_profile))


# ----------------------------------------------------------------------
# Configuration space
# ----------------------------------------------------------------------
def test_space_expands_anytime_rungs(image_models, cpu1_profile):
    space = ConfigurationSpace(image_models, [45.0])
    nest = depth_nest_anytime()
    # 6 traditional + 5 rungs of the anytime network.
    assert len(space) == 6 + nest.n_outputs
    assert len(space.anytime_models) == 1
    assert len(space.traditional_models) == 6


def test_space_without_rung_expansion(image_models):
    space = ConfigurationSpace(image_models, [45.0], expand_anytime_rungs=False)
    assert len(space) == 7


def test_configuration_validation():
    dense = sparse_resnet_family().by_name("sparse_resnet50_dense")
    with pytest.raises(ConfigurationError):
        Configuration(model=dense, power_w=45.0, rung_cap=1)  # not anytime
    with pytest.raises(ConfigurationError):
        Configuration(model=depth_nest_anytime(), power_w=45.0, rung_cap=99)
    with pytest.raises(ConfigurationError):
        Configuration(model=dense, power_w=0.0)


def test_duplicate_models_rejected(image_models):
    with pytest.raises(ConfigurationError):
        ConfigurationSpace(image_models + [image_models[0]], [45.0])


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def test_min_energy_picks_cheapest_feasible(selector):
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.5,
        accuracy_min=0.90,
    )
    result = selector.select(goal, 1.0, 0.02, 0.15)
    assert result.feasible
    # With a loose deadline, the winner should be a low cap.
    assert result.config.power_w <= 25.0
    assert result.estimate.expected_quality >= 0.90


def test_max_accuracy_uses_budget(selector):
    loose = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=1.5,
        energy_budget_j=60.0,
    )
    tight = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=1.5,
        energy_budget_j=6.0,
    )
    rich = selector.select(loose, 1.0, 0.02, 0.15)
    poor = selector.select(tight, 1.0, 0.02, 0.15)
    assert rich.estimate.expected_quality >= poor.estimate.expected_quality
    assert poor.estimate.expected_energy_j <= 6.0


def test_impossible_accuracy_relaxes_with_max_quality(selector):
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.5,
        accuracy_min=0.999,  # nothing delivers this
    )
    result = selector.select(goal, 1.0, 0.02, 0.15)
    assert not result.feasible
    assert result.relaxation == "constraint"
    # Still meets the deadline and gets close to the best quality.
    assert result.estimate.meets_latency_mean
    assert result.estimate.expected_quality > 0.92


def test_impossible_deadline_falls_back_to_fastest(selector):
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1e-4,
        accuracy_min=0.9,
    )
    result = selector.select(goal, 1.0, 0.02, 0.15)
    assert result.relaxation in ("constraint", "probability", "latency")
    if result.relaxation == "latency":
        # The best-effort pick chases minimum latency.
        fastest = min(
            selector.space,
            key=lambda c: selector.estimator.profile.latency(
                c.model.name, c.power_w
            )
            * c.latency_fraction,
        )
        assert result.estimate.latency_mean_s <= (
            selector.estimator.profile.latency(
                fastest.model.name, fastest.power_w
            )
            * 1.5
        )


def test_high_variance_prefers_safer_configs(selector):
    # The Section 3.4 example: volatility pushes the choice toward
    # configurations with better completion odds.
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.45,
        accuracy_min=0.90,
    )
    calm = selector.select(goal, 1.2, 0.02, 0.15)
    stormy = selector.select(goal, 1.2, 0.45, 0.15)
    assert stormy.estimate.deadline_probability >= 0.5
    calm_time = calm.estimate.latency_mean_s
    stormy_time = stormy.estimate.latency_mean_s
    assert stormy_time <= calm_time * 1.05  # never slower under storm


def test_prth_filters_marginal_configs(selector):
    base = dict(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.5,
        accuracy_min=0.88,
    )
    plain = selector.select(Goal(**base), 1.3, 0.25, 0.15)
    strict = selector.select(
        Goal(prob_threshold=0.999, **base), 1.3, 0.25, 0.15
    )
    assert strict.estimate.quality_meet_probability >= (
        plain.estimate.quality_meet_probability - 1e-9
    )


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
def test_controller_observe_updates_state(cpu1_profile):
    controller = AlertController(cpu1_profile)
    before = controller.state()
    ratio = controller.observe(
        "sparse_resnet50_dense",
        45.0,
        full_latency_s=2.0 * cpu1_profile.latency("sparse_resnet50_dense", 45.0),
        idle_power_w=5.0,
    )
    after = controller.state()
    assert ratio == pytest.approx(2.0)
    assert after.observations == before.observations + 1
    assert after.xi_mean > before.xi_mean


def test_controller_reserves_overhead(cpu1_profile):
    controller = AlertController(cpu1_profile, overhead_fraction=0.017)
    assert controller.worst_case_overhead_s > 0
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.5,
        accuracy_min=0.9,
    )
    result = controller.decide(goal)
    assert controller.last_selection is result


def test_controller_rejects_bad_overhead(cpu1_profile):
    with pytest.raises(ConfigurationError):
        AlertController(cpu1_profile, overhead_fraction=0.5)


def test_controller_adapts_to_slowdown(cpu1_profile):
    controller = AlertController(cpu1_profile)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.45,
        accuracy_min=0.90,
    )
    calm_choice = controller.decide(goal).config
    # Feed a sustained 1.9x slowdown.
    for _ in range(10):
        t_prof = cpu1_profile.latency(calm_choice.model.name, calm_choice.power_w)
        controller.observe(
            calm_choice.model.name, calm_choice.power_w, 1.9 * t_prof
        )
    stormy_result = controller.decide(goal)
    stormy_choice = stormy_result.config
    calm_time = cpu1_profile.latency(
        calm_choice.model.name, calm_choice.power_w
    ) * calm_choice.latency_fraction
    stormy_time = cpu1_profile.latency(
        stormy_choice.model.name, stormy_choice.power_w
    ) * stormy_choice.latency_fraction
    # Never slower under a sustained slowdown, and the chosen operating
    # point still clears the (now much harder) deadline in expectation.
    assert stormy_time <= calm_time
    assert controller.state().xi_mean > 1.5
    assert stormy_result.estimate.latency_mean_s <= goal.deadline_s


def test_memo_hits_survive_cap_crossing(cpu1_profile):
    """Regression: crossing the memo cap used to drop the whole cache.

    Eviction must keep the newer half, so decisions the controller is
    actively revisiting still hit right after the cap is crossed.
    """
    controller = AlertController(cpu1_profile)
    controller._MEMO_CAP = 8

    def goal(i: int) -> Goal:
        # Distinct deadlines give distinct memo keys at a fixed state.
        return Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=0.4 + i * 1e-3,
            accuracy_min=0.9,
        )

    for i in range(8):
        controller.decide(goal(i))
    assert controller.memo_stats == (0, 8)
    # The 9th distinct state crosses the cap: the oldest half (0-3) is
    # evicted, the newer half survives.
    controller.decide(goal(8))
    for i in (5, 6, 7, 8):
        controller.decide(goal(i))
    hits, misses = controller.memo_stats
    assert hits == 4, "recently memoised decisions must survive the cap"
    assert misses == 9
    # The evicted oldest half misses again, without another eviction.
    for i in (0, 1, 2):
        controller.decide(goal(i))
    assert controller.memo_stats == (4, 12)


def _min_energy_goal(deadline_s: float) -> Goal:
    return Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=deadline_s,
        accuracy_min=0.9,
    )


def test_memo_shares_entries_between_equal_goal_objects(cpu1_profile):
    controller = AlertController(cpu1_profile)
    first = controller.decide(_min_energy_goal(0.4))
    # A distinct but equal Goal reaches the same memo entry.
    assert controller.decide(_min_energy_goal(0.4)) is first
    assert controller.memo_stats == (1, 1)


def test_goal_interning_stays_bounded_by_the_memo(cpu1_profile):
    controller = AlertController(cpu1_profile)
    controller._MEMO_CAP = 8
    for i in range(100):
        controller.decide(_min_energy_goal(0.4 + i * 1e-3))
    assert len(controller.kernel._effective) <= 8
    # The newest goals still hit, through fresh equal Goal objects.
    hits, _ = controller.memo_stats
    for i in range(96, 100):
        controller.decide(_min_energy_goal(0.4 + i * 1e-3))
    assert controller.memo_stats[0] == hits + 4


def test_overhead_change_never_returns_stale_decisions(cpu1_profile):
    """Reassigning the overhead reservation drops every cached decision."""
    goal = _min_energy_goal(0.3)
    controller = AlertController(cpu1_profile)
    controller.decide(goal)
    overhead = 0.5 * goal.deadline_s
    controller.kernel.overhead_s = overhead
    result = controller.decide(goal)
    assert controller.memo_stats == (0, 2)
    fresh = AlertController(cpu1_profile)
    fresh.kernel.overhead_s = overhead
    assert result == fresh.decide(goal)
    assert result != AlertController(cpu1_profile).decide(goal)


def test_controller_twin_decides_like_a_fresh_controller(cpu1_profile):
    template = AlertController(cpu1_profile)
    warm = template.decide(_min_energy_goal(0.4)).config
    template.observe(warm.model.name, warm.power_w, 0.5)
    twin = template.twin()
    fresh = AlertController(cpu1_profile)
    # Shared precompute, private belief state.
    assert twin.selector is template.selector
    assert twin.slowdown is not template.slowdown
    assert twin.state() == fresh.state()
    assert twin.memo_stats == (0, 0)
    for i, slowdown in enumerate((1.0, 1.3, 1.7, 1.1)):
        goal = _min_energy_goal(0.3 + 0.05 * i)
        chosen = twin.decide(goal)
        assert chosen == fresh.decide(goal)
        t_prof = cpu1_profile.latency(chosen.config.model.name, chosen.config.power_w)
        for controller in (twin, fresh):
            controller.observe(
                chosen.config.model.name, chosen.config.power_w, slowdown * t_prof
            )
    assert twin.state() == fresh.state()


# ----------------------------------------------------------------------
# Goal adjustment
# ----------------------------------------------------------------------
def test_goal_validation():
    with pytest.raises(ConfigurationError):
        Goal(objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.5)
    with pytest.raises(ConfigurationError):
        Goal(objective=ObjectiveKind.MAXIMIZE_ACCURACY, deadline_s=0.5)
    with pytest.raises(ConfigurationError):
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=-1.0,
            accuracy_min=0.9,
        )


def test_group_deadline_shrinks_after_overrun():
    adjuster = GoalAdjuster()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    first = InputItem(index=0, group_id=1, group_size=2, position_in_group=0)
    second = InputItem(index=1, group_id=1, group_size=2, position_in_group=1)
    adjusted = adjuster.adjust(goal, first)
    assert adjusted.deadline_s == pytest.approx(0.1)
    # The first word burnt 0.15 s of the 0.2 s sentence budget.
    adjuster.consume(first, 0.15)
    adjusted = adjuster.adjust(goal, second)
    assert adjusted.deadline_s == pytest.approx(0.05)


def test_group_deadline_grows_after_fast_words():
    adjuster = GoalAdjuster()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    first = InputItem(index=0, group_id=2, group_size=2, position_in_group=0)
    second = InputItem(index=1, group_id=2, group_size=2, position_in_group=1)
    adjuster.adjust(goal, first)
    adjuster.consume(first, 0.02)
    adjusted = adjuster.adjust(goal, second)
    assert adjusted.deadline_s == pytest.approx(0.18)


def test_overhead_subtracted():
    adjuster = GoalAdjuster(overhead_s=0.01)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    item = InputItem(index=0)
    assert adjuster.adjust(goal, item).deadline_s == pytest.approx(0.09)


def test_deadline_floor_protects_overrun_groups():
    adjuster = GoalAdjuster(min_deadline_s=0.001)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    first = InputItem(index=0, group_id=3, group_size=2, position_in_group=0)
    second = InputItem(index=1, group_id=3, group_size=2, position_in_group=1)
    adjuster.adjust(goal, first)
    adjuster.consume(first, 10.0)  # blew the whole budget
    adjusted = adjuster.adjust(goal, second)
    assert adjusted.deadline_s == pytest.approx(0.001)
