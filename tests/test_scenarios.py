import dataclasses
import importlib

import pytest

from epimc.evaluate import evaluate, holds, verify_manifest
from epimc.formulas import parse
from epimc.runs import ModelError, Point, validate_system
from epimc.scenarios import (
    SCENARIOS,
    broadcast_channel,
    coordinated_attack,
    muddy_children,
    ok_protocol_scenario,
    r2d2,
    timestamped_demo,
)
from tests.helpers import oracle_muddy_answers, oracle_verify


def assert_clean(manifest):
    assert validate_system(manifest.model.system) == []
    failures = verify_manifest(manifest)
    assert not failures, [
        (f.expectation.formula, str(f.expectation.point), f.detail)
        for f in failures[:4]
    ]


@pytest.mark.parametrize("n,rounds", [(2, 3), (3, 4), (4, 5)])
def test_muddy_children_announced(n, rounds):
    assert_clean(muddy_children(n, True, rounds))


def test_muddy_children_without_announcement_never_answers_yes():
    manifest = muddy_children(3, False, 3)
    assert_clean(manifest)
    yes_props = [p for p in manifest.model.valuation.names if p.startswith("said_yes")]
    for prop in yes_props:
        assert not manifest.model.valuation.truth_set(prop)


def test_muddy_children_staggered_blocks_common_knowledge():
    assert_clean(muddy_children(2, True, 2, staggered_announcement=True))
    assert_clean(muddy_children(3, True, 3, staggered_announcement=True))


def test_muddy_children_two_step_reachability_between_single_muddy_worlds():
    from epimc.views import g_reachable

    model = muddy_children(2, True, 2).model
    index = model.index
    children = (0, 1)
    assert not g_reachable(index, Point("v10", 0), Point("v01", 0), children, 1)
    assert g_reachable(index, Point("v10", 0), Point("v01", 0), children, 2)


def test_muddy_children_announcement_supports_the_induction_rule():
    from epimc.evaluate import check_induction_rule

    model = muddy_children(2, True, 2).model
    report = check_induction_rule(model, parse("announced"), parse("m"), (0, 1))
    assert report.premise_valid and report.conclusion_valid and not report.vacuous


def test_muddy_children_hierarchy_suite():
    from epimc.evaluate import axiom_suite

    model = muddy_children(2, True, 2).model
    report = axiom_suite(model, ["m"], max_k=4, groups=[(0, 1)])
    assert report.ok, report.render()


def test_attack_induction_rule_is_vacuous_for_the_attack_fact():
    from epimc.evaluate import check_induction_rule

    model = coordinated_attack(2, 3).model
    report = check_induction_rule(
        model, parse("both_attack"), parse("both_attack"), (0, 1)
    )
    # the fact never holds, so premise and conclusion hold trivially
    assert report.premise_valid and report.conclusion_valid


def test_muddy_children_symmetric_under_child_permutation():
    manifest = muddy_children(3, True, 3)
    model = manifest.model
    # answers for vector 110 mirror those for 011 with children swapped
    assert holds(model, parse("said_yes_0_2"), Point("v110", 2))
    assert holds(model, parse("said_yes_2_2"), Point("v011", 2))
    assert not holds(model, parse("said_yes_2_2"), Point("v110", 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("announce", [False, True])
@pytest.mark.parametrize("staggered", [False, True])
def test_muddy_children_answers_follow_the_pairwise_rule(n, announce, staggered):
    rounds = n + 1
    model = muddy_children(n, announce, rounds, staggered).model
    expected = oracle_muddy_answers(model.system, n, rounds)
    assert len(expected) == n * rounds
    for name, points in expected.items():
        assert model.valuation.truth_set(name) == points, name


def test_muddy_children_guards():
    with pytest.raises(ModelError):
        muddy_children(7, True, 2)
    with pytest.raises(ModelError):
        muddy_children(2, True, 0)


@pytest.mark.parametrize("k_legs", [1, 2, 3, 4])
def test_coordinated_attack(k_legs):
    assert_clean(coordinated_attack(k_legs, k_legs + 1))


def test_coordinated_attack_silent_run_agreement():
    manifest = coordinated_attack(3, 4)
    model = manifest.model
    system = model.system
    favor_runs = [r for r in system.runs if r.initial_state[0] == "favor"]
    silent = next(
        r for r in favor_runs
        if not any(ev.kind == "receive" for a in (0, 1) for _, ev in r.timeline[a])
    )
    for phi in ("sent_1", "prefav", "delivered_1", "K1 sent_1", "~prefav"):
        c = evaluate(model, parse(f"C{{0,1}} ({phi})"))
        for r in favor_runs:
            for t in range(system.horizon + 1):
                assert (Point(r.id, t) in c) == (Point(silent.id, t) in c), (phi, r.id, t)


def test_r2d2_family_and_closed_window():
    assert_clean(r2d2(1, 4, 3))
    assert_clean(r2d2(2, 7, 3))
    assert_clean(r2d2(2, 7, 3, closed_window=True))


def test_r2d2_guards():
    with pytest.raises(ModelError):
        r2d2(1, 2, 3)  # send time too early for the depth
    with pytest.raises(ModelError):
        r2d2(0, 4, 1)


def test_r2d2_per_run_timing_shifts_with_the_send():
    manifest = r2d2(1, 4, 2)
    model = manifest.model
    k1 = evaluate(model, parse("K0 K1 (sent_m)"))
    # in the delayed-send run the level arrives one quantum later
    assert Point("r0a", 5) in k1 and Point("r0a", 4) not in k1
    assert Point("r1a", 6) in k1 and Point("r1a", 5) not in k1


def test_ok_protocol_scenario():
    assert_clean(ok_protocol_scenario(5))
    assert_clean(ok_protocol_scenario(6))


def test_ok_protocol_guard():
    with pytest.raises(ModelError):
        ok_protocol_scenario(2)


def test_broadcast_channel_variants():
    assert_clean(broadcast_channel(1, 1, 3, 6))
    assert_clean(broadcast_channel(0, 2, 2, 8, t_send=3, clocked=True))
    assert_clean(broadcast_channel(1, 0, 2, 4))


@pytest.mark.parametrize("L, eps", [(-1, 1), (1, -2), (-1, -1)])
def test_broadcast_channel_rejects_negative_delays(L, eps):
    with pytest.raises(ModelError, match="nonnegative"):
        broadcast_channel(L, eps, 2, 6)


def test_broadcast_stable_fact_interval_knowledge_is_shifted_plain_knowledge():
    # for a stable fact whose histories grow one event at a time, knowing
    # within a width-w interval now is the same as everyone knowing w later
    manifest = broadcast_channel(1, 1, 3, 6)
    model = manifest.model
    horizon = model.system.horizon
    eps = manifest.parameters["eps"]
    group = "{0,1,2}"
    interval = evaluate(model, parse(f"Eeps[{eps}]{group} psi_recv"))
    plain = evaluate(model, parse(f"E{group} psi_recv"))
    for run in model.system.runs:
        for t in range(horizon - eps + 1):
            assert (Point(run.id, t) in interval) == (
                Point(run.id, t + eps) in plain
            ), (run.id, t)


def test_broadcast_zero_spread_matches_plain_common_knowledge():
    manifest = broadcast_channel(1, 0, 2, 4)
    model = manifest.model
    for prop in ("sent_m", "psi_recv"):
        eps0 = evaluate(model, parse(f"Ceps[0]{{0,1}} {prop}"))
        plain = evaluate(model, parse(f"C{{0,1}} {prop}"))
        assert eps0 == plain


def test_timestamped_demo_variants():
    assert_clean(timestamped_demo(1, 1))
    assert_clean(timestamped_demo(0, 2))
    assert_clean(timestamped_demo(2, 1))


def test_scenario_builders_are_deterministic():
    a = coordinated_attack(3, 4)
    b = coordinated_attack(3, 4)
    assert [r.content_key() for r in a.model.system.runs] == [
        r.content_key() for r in b.model.system.runs
    ]
    assert a.expectations == b.expectations
    assert {n: sorted(a.model.valuation.truth_set(n)) for n in a.model.valuation.names} == {
        n: sorted(b.model.valuation.truth_set(n)) for n in b.model.valuation.names
    }


def test_registry_contains_all_builders():
    assert set(SCENARIOS) == {
        "muddy_children",
        "coordinated_attack",
        "r2d2",
        "ok_protocol",
        "broadcast_channel",
        "timestamped_demo",
    }


SMALL_PARAMS = {
    "muddy_children": {"n": 3, "announce": True, "rounds": 3, "staggered_announcement": True},
    "coordinated_attack": {"k_legs": 3, "horizon": 4},
    "r2d2": {"eps": 1, "t_S": 3, "k_max": 2},
    "ok_protocol": {"horizon": 4},
    "broadcast_channel": {"L": 1, "eps": 1, "n": 3, "horizon": 4, "clocked": True},
    "timestamped_demo": {"delta": 1, "eps": 1},
}


def test_verify_parses_each_distinct_formula_once(monkeypatch):
    # the package binds epimc.evaluate to the function, not the module
    evaluate_module = importlib.import_module("epimc.evaluate")

    parsed = []
    monkeypatch.setattr(
        evaluate_module, "parse", lambda text: parsed.append(text) or parse(text)
    )
    once = coordinated_attack(3, 4)  # pointed and whole-system claims
    manifest = dataclasses.replace(once, expectations=once.expectations * 2)
    assert not verify_manifest(manifest)
    assert sorted(parsed) == sorted({e.formula for e in manifest.expectations})


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_verify_failures_match_the_per_expectation_transcription(name):
    manifest = SCENARIOS[name](**SMALL_PARAMS[name])
    flipped = dataclasses.replace(
        manifest,
        expectations=tuple(
            dataclasses.replace(e, expected=not e.expected) if i % 4 == 0 else e
            for i, e in enumerate(manifest.expectations)
        ),
    )
    got = [(f.expectation, f.detail) for f in verify_manifest(flipped)]
    assert got == oracle_verify(flipped)
    assert [e for e, _ in got] == list(flipped.expectations[::4])
