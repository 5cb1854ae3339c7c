import random
from itertools import combinations

import pytest

from epimc import formulas as fm
from epimc.semantics import evaluate
from epimc.runs import ModelError, Point, UnknownAgentError, make_run, make_system
from epimc.views import (
    VIEW_PROJECTIONS,
    ViewPolicy,
    build_index,
    export_graph,
    g_reachable,
    reachable_set,
)

from tests.helpers import bfs_reachable, equal_view_pairs, random_model


def small_system():
    growing = make_run(
        "g", horizon=3, wake_up=[0, 0], initial_state=["a", "b"],
        events=[
            (0, 0, "send", 1, "m1"), (0, 1, "receive", 0, "m1"),
            (1, 0, "send", 1, "m2"), (1, 1, "receive", 0, "m2"),
            (2, 0, "send", 1, "m3"), (2, 1, "receive", 0, "m3"),
        ],
    )
    return make_system(2, 3, [growing])


def test_trivial_policy_gives_one_class_per_agent():
    system = small_system()
    index = build_index(system, ViewPolicy.trivial())
    for agent in (0, 1):
        assert len(index.classes_by_agent[agent]) == 1
        assert index.classes_by_agent[agent][0] == frozenset(system.points)


def test_complete_history_singleton_classes_when_histories_grow():
    system = small_system()
    index = build_index(system, ViewPolicy.complete_history())
    for agent in (0, 1):
        assert all(len(cls) == 1 for cls in index.classes_by_agent[agent])


def test_classes_match_pairwise_history_comparison():
    rng = random.Random(7)
    for _ in range(20):
        model = random_model(rng)
        if model.policy.kind != "complete":
            continue
        for agent in model.system.agents:
            expected_pairs = equal_view_pairs(model, agent)
            got_pairs = set()
            for cls in model.index.classes_by_agent[agent]:
                members = sorted(cls)
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        got_pairs.add((a, b))
            assert got_pairs == expected_pairs


def test_classes_partition_the_points():
    rng = random.Random(11)
    for _ in range(20):
        model = random_model(rng)
        for agent in model.system.agents:
            classes = model.index.classes_by_agent[agent]
            union = set()
            total = 0
            for cls in classes:
                total += len(cls)
                union |= cls
            assert union == set(model.system.points)
            assert total == len(model.system.points)


def test_complete_history_refines_every_policy():
    rng = random.Random(13)
    for _ in range(15):
        model = random_model(rng)
        complete = build_index(model.system, ViewPolicy.complete_history())
        index = model.index
        for agent in model.system.agents:
            for cls in complete.classes_by_agent[agent]:
                i = model.system.point_id(min(cls))
                target = index.system.points_of(index.class_masks[agent][index.class_ids[agent][i]])
                assert cls <= target


def test_a_projection_is_called_once_per_distinct_history():
    # an eventless run repeats the same history at every time; with a
    # different answer at every call, each distinct history is its own class
    quiet = make_run("q", horizon=2, wake_up=[0], initial_state=["s"])
    rng = random.Random(29)
    for system in [make_system(1, 2, [quiet])] + [random_model(rng).system for _ in range(10)]:
        calls = []

        def counting(history):
            calls.append(history)
            return len(calls)

        index = build_index(system, ViewPolicy.local_state("counting", counting))
        tables = system.history_table
        assert len(calls) == sum(len(table.distinct) for table in tables)
        assert index.class_ids == tuple(table.ids for table in tables)
    # a policy is its kind and name; the function is not compared
    same = ViewPolicy.local_state("counting", len)
    assert same == ViewPolicy.local_state("counting", counting)
    assert not same != ViewPolicy.local_state("counting", counting)
    assert hash(same) == hash(ViewPolicy.local_state("counting", counting))
    assert same != ViewPolicy.local_state("other", len)
    assert same != ("projection", "counting", len)


EVERY_POLICY = [ViewPolicy.complete_history(), ViewPolicy.trivial()] + [
    ViewPolicy.local_state(name, fn) for name, fn in sorted(VIEW_PROJECTIONS.items())
]


def test_classes_are_ordered_by_least_member_and_hold_their_points():
    rng = random.Random(31)
    for _ in range(10):
        system = random_model(rng).system
        for policy in EVERY_POLICY:
            index = build_index(system, policy)
            for masks, ids in zip(index.class_masks, index.class_ids):
                least = [(m & -m).bit_length() for m in masks]
                assert least == sorted(least)
                assert all(masks[cls] >> i & 1 for i, cls in enumerate(ids))


def test_export_graph_lists_points_in_order_and_equal_view_pairs_as_edges():
    rng = random.Random(37)
    for _ in range(15):
        model = random_model(rng)
        system = model.system
        agents = tuple(system.agents)
        lines = export_graph(model.index, agents).splitlines()
        nodes = [line for line in lines if line.endswith('";')]
        assert nodes == [f'  "{pt}";' for pt in system.points]
        labels = {str(pt): pt for pt in system.points}
        for agent in agents:
            edges = [
                tuple(labels[s.strip(' "')] for s in line.split(" [")[0].split("--"))
                for line in lines
                if line.endswith(f'[label="p{agent}"];')
            ]
            assert len(edges) == len(set(edges))
            assert set(edges) == equal_view_pairs(model, agent)


def test_g_reachable_zero_steps_and_singleton_group():
    system = small_system()
    index = build_index(system, ViewPolicy.complete_history())
    pt = Point("g", 1)
    assert g_reachable(index, pt, pt, (0,), max_steps=0)
    assert not g_reachable(index, pt, Point("g", 2), (0,), max_steps=5)


def test_g_reachable_checks_the_group_whatever_the_target():
    index = build_index(small_system(), ViewPolicy.trivial())
    start, outside = Point("g", 0), Point("nope", 0)
    for max_steps in (None, 2):
        with pytest.raises(UnknownAgentError, match="agent 9 out of range"):
            g_reachable(index, start, outside, [0, 9], max_steps=max_steps)
        # a target outside the system is reachable from nowhere
        assert not g_reachable(index, start, outside, [0, 1], max_steps=max_steps)


def test_reachable_set_under_trivial_and_singleton_class_policies():
    system = small_system()
    trivial = build_index(system, ViewPolicy.trivial())
    start = Point("g", 1)
    assert reachable_set(trivial, start, (0, 1)) == frozenset(system.points)
    complete = build_index(system, ViewPolicy.complete_history())
    # strictly growing histories give singleton classes, hence singleton closures
    assert reachable_set(complete, start, (0, 1)) == frozenset({start})


def test_reachable_set_matches_bfs_oracle():
    rng = random.Random(17)
    for _ in range(15):
        model = random_model(rng)
        agents = tuple(model.system.agents)
        p = evaluate(model, fm.Prop("p"))
        for size in range(1, len(agents) + 1):
            for group in combinations(agents, size):
                reach = {pt: bfs_reachable(model, pt, group) for pt in model.system.points}
                for start, expected in reach.items():
                    assert reachable_set(model.index, start, group) == expected
                assert evaluate(model, fm.C(group, fm.Prop("p"))) == frozenset(
                    pt for pt, closure in reach.items() if closure <= p
                )


def test_reachable_set_contains_start_and_is_a_fixed_point():
    rng = random.Random(19)
    for _ in range(10):
        model = random_model(rng)
        group = tuple(model.system.agents)
        index = model.index
        for start in model.system.points[:3]:
            closure = reachable_set(index, start, group)
            assert start in closure
            expanded = set(closure)
            for pt in closure:
                i = model.system.point_id(pt)
                for agent in group:
                    expanded |= index.system.points_of(index.class_masks[agent][index.class_ids[agent][i]])
            assert expanded == set(closure)


def test_reachable_set_monotone_in_group():
    rng = random.Random(23)
    for _ in range(10):
        model = random_model(rng)
        agents = list(model.system.agents)
        start = model.system.points[-1]
        small = reachable_set(model.index, start, agents[:1])
        large = reachable_set(model.index, start, agents)
        assert small <= large
        index, i = model.index, model.system.point_id(start)
        one_step = index.system.points_of(index.class_masks[agents[0]][index.class_ids[agents[0]][i]])
        assert one_step <= small


def test_export_graph_deterministic_and_labelled():
    system = small_system()
    index = build_index(system, ViewPolicy.trivial())
    text1 = export_graph(index, (0, 1))
    text2 = export_graph(index, (0, 1))
    assert text1 == text2
    assert 'label="p0"' in text1 and 'label="p1"' in text1
    empty = export_graph(index, ())
    assert "--" not in empty and '"g@0";' in empty


@pytest.mark.parametrize("group, bad", [([-1], -1), ([9], 9), ([0, 2], 2)])
def test_export_graph_rejects_agents_outside_the_index(group, bad):
    index = build_index(small_system(), ViewPolicy.trivial())
    with pytest.raises(ModelError, match=f"agent {bad} out of range"):
        export_graph(index, group)
