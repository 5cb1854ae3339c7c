import itertools
import sys
import tracemalloc

import pytest

from epimc import scenarios, semantics
from epimc.semantics import evaluate, holds, verify_manifest
from epimc.formulas import parse
from epimc.runs import RECEIVE, SEND, ModelError, Point, validate_system
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
    from epimc.axioms import check_induction_rule

    model = muddy_children(2, True, 2).model
    report = check_induction_rule(model, parse("announced"), parse("m"), (0, 1))
    assert report.premise_valid and report.conclusion_valid and not report.vacuous


def test_muddy_children_hierarchy_suite():
    from epimc.axioms import axiom_suite

    model = muddy_children(2, True, 2).model
    report = axiom_suite(model, ["m"], max_k=4, groups=[(0, 1)])
    assert report.ok, report.render()


def test_attack_induction_rule_is_vacuous_for_the_attack_fact():
    from epimc.axioms import check_induction_rule

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
    # and by the definition of the answer: at tick q, child c says yes
    # exactly where it knows its own forehead muddy
    for c in range(n):
        knows = evaluate(model, parse(f"K{c} muddy_{c}"))
        for q in range(1, rounds + 1):
            said = model.valuation.truth_set(f"said_yes_{c}_{q}")
            for run in model.system.runs:
                point = Point(run.id, q)
                assert (point in said) == (point in knows), (c, point)


def test_muddy_children_guards():
    with pytest.raises(ModelError):
        muddy_children(7, True, 2)
    with pytest.raises(ModelError):
        muddy_children(2, True, 0)


@pytest.mark.parametrize("k_legs", [1, 2, 3, 4])
def test_coordinated_attack(k_legs):
    assert_clean(coordinated_attack(k_legs, k_legs + 1))


def test_coordinated_attack_deeper_than_the_recursion_limit():
    manifest = coordinated_attack(1, 2 * sys.getrecursionlimit())
    assert len(manifest.model.system.runs) == 3
    assert_clean(manifest)


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


def _built_size(manifest):
    system = manifest.model.system
    return len(system.points), sum(len(line) for run in system.runs for line in run.timeline)


#: (L, eps, n, horizon, t_send) of the broadcast sweeps below.
BROADCASTS = list(itertools.product((0, 2), (0, 1, 2), (2, 3), (-5, 2, 5, 7), (1, 2)))


def test_every_broadcast_built_replays_its_manifest():
    # a refused parameter set is one whose expectations name a point past
    # the horizon
    for L, e, n, h, t in BROADCASTS:
        try:
            manifest = broadcast_channel(L=L, eps=e, n=n, horizon=h, t_send=t)
        except ModelError:
            assert h < t + L + 2 * e, (L, e, n, h, t)
            continue
        assert_clean(manifest)


def test_capped_builders_check_the_size_they_build(monkeypatch):
    checked = []
    real = scenarios._check_size
    monkeypatch.setattr(
        scenarios, "_check_size", lambda *size: checked.append(size) or real(*size)
    )
    cases = [
        (muddy_children, dict(n=n, announce=a, rounds=q, staggered_announcement=s))
        for n, a, q, s in itertools.product((1, 2, 3), (False, True), (1, 2), (False, True))
    ] + [
        (r2d2, dict(eps=e, t_S=k * e + 1 + d, k_max=k, horizon=h, closed_window=c))
        for e, k, d, h, c in itertools.product(
            (1, 2, 3), (1, 2), (0, 2), (None, 20), (False, True)
        )
    ] + [
        (broadcast_channel, dict(L=L, eps=e, n=n, horizon=h, t_send=t))
        for L, e, n, h, t in BROADCASTS
        if h >= t + L + 2 * e
    ] + [
        (timestamped_demo, dict(delta=d, eps=e, horizon=h))
        for d, e, h in itertools.product((0, 1, 2), (0, 1, 2), (None, 9))
    ] + [
        (coordinated_attack, dict(k_legs=k, horizon=k + d))
        for k, d in itertools.product((1, 2, 3), (1, 3))
    ] + [(ok_protocol_scenario, dict(horizon=h)) for h in (3, 4, 5)]
    for build, params in cases:
        built = _built_size(build(**params))
        assert checked.pop() == built, (build.__name__, params)


def test_enumerated_runs_over_the_limit_are_refused_before_a_system_is_built(monkeypatch):
    # one run per configuration fits, the enumerated runs do not
    monkeypatch.setattr(scenarios, "MAX_MODEL_SIZE", 20)
    monkeypatch.setattr(scenarios, "make_system", lambda *a: pytest.fail("a system was built"))
    for build in (lambda: coordinated_attack(3, 4), lambda: ok_protocol_scenario(4)):
        with pytest.raises(ModelError, match="at most 20 in all"):
            build()


class _Sized(Exception):
    pass


def test_size_limit_admits_the_bench_models_and_an_eight_agent_broadcast(monkeypatch):
    def stop(points, events):
        raise _Sized(points, events)

    monkeypatch.setattr(scenarios, "_check_size", stop)
    for build, params, size in [
        (muddy_children, dict(n=6, announce=True, rounds=6, staggered_announcement=True),
         (1_024, 47_592)),
        (broadcast_channel, dict(L=1, eps=2, n=6, horizon=8, clocked=True), (6_561, 8_748)),
        (broadcast_channel, dict(L=1, eps=2, n=8, horizon=8), (59_049, 104_976)),
    ]:
        with pytest.raises(_Sized) as checked:
            build(**params)
        assert checked.value.args == size
        assert sum(size) <= scenarios.MAX_MODEL_SIZE


def _fact_start(name, run, params):
    """The tick from which fact ``name`` holds in ``run``, read from the
    run's events, initial states and id; None if it never holds."""

    def after(kind, match=lambda agent, tick, ev: True):
        ticks = [
            t for a, line in enumerate(run.timeline) for t, ev in line
            if ev.kind == kind and match(a, t, ev)
        ]
        return min(ticks) + 1 if ticks else None

    def lost(agent, tick, ev):
        return not any(
            t == tick and e.kind == RECEIVE and e.peer == agent and e.message == ev.message
            for t, e in run.timeline[ev.peer]
        )

    muddy = [c == "1" for c in run.id[1 : 1 + params.get("n", 0)]]  # v0110 or v0110s
    if name in ("sent_m", "sent_mp", "sent_1"):
        return after(SEND)
    if name == "psi_recv":
        return after(RECEIVE)
    if name.startswith("delivered_"):
        return after(RECEIVE, lambda a, t, ev: ev.message == f"hs{name[len('delivered_'):]}")
    if name == "psi":
        return after(SEND, lost)
    if name == "prefav":
        return 0 if run.initial_state[0] == "favor" else None
    if name == "m":
        return 0 if any(muddy) else None
    if name == "announced":
        return 1 if params["announce"] and any(muddy) else None
    if name.startswith("muddy_"):
        return 0 if muddy[int(name[len("muddy_"):])] else None
    assert name == "both_attack", name
    return None


#: Builder parameter sets that the golden digests do not cover.
FACT_CASES = [
    (r2d2, {"eps": 2, "t_S": 5, "k_max": 2, "closed_window": True}),
    # past ten pairs, so the unsent pair (r11a, r11b) is not last by id
    (r2d2, {"eps": 2, "t_S": 5, "k_max": 2, "horizon": 25}),
    (broadcast_channel, {"L": 1, "eps": 0, "n": 3, "horizon": 3}),
    (ok_protocol_scenario, {"horizon": 6}),
    (coordinated_attack, {"k_legs": 2, "horizon": 5}),
    (timestamped_demo, {"delta": 2, "eps": 1}),
    (muddy_children, {"n": 3, "announce": True, "rounds": 3}),
    (muddy_children, {"n": 2, "announce": False, "rounds": 2}),
]


@pytest.mark.parametrize("build, params", FACT_CASES)
def test_scenario_facts_hold_from_their_events(build, params):
    manifest = build(**params)
    system, valuation = manifest.model.system, manifest.model.valuation
    expected = {}
    if build is muddy_children:
        expected = oracle_muddy_answers(system, params["n"], params["rounds"])
    for name in valuation.names:
        if not name.startswith("said_yes_"):
            starts = {run.id: _fact_start(name, run, params) for run in system.runs}
            expected[name] = {
                Point(rid, t) for rid, start in starts.items() if start is not None
                for t in range(start, system.horizon + 1)
            }
    assert {name: set(valuation.truth_set(name)) for name in valuation.names} == expected


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
    parsed = []
    monkeypatch.setattr(semantics, "parse", lambda text: parsed.append(text) or parse(text))
    once = coordinated_attack(3, 4)  # pointed and whole-system claims
    manifest = once._replace(expectations=once.expectations * 2)
    assert not verify_manifest(manifest)
    assert sorted(parsed) == sorted({e.formula for e in manifest.expectations})


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_verify_failures_match_the_per_expectation_transcription(name):
    manifest = SCENARIOS[name](**SMALL_PARAMS[name])
    flipped = manifest._replace(
        expectations=tuple(
            e._replace(expected=not e.expected) if i % 4 == 0 else e
            for i, e in enumerate(manifest.expectations)
        ),
    )
    got = [(f.expectation, f.detail) for f in verify_manifest(flipped)]
    assert got == oracle_verify(flipped)
    assert [e for e, _ in got] == list(flipped.expectations[::4])


@pytest.mark.parametrize(
    "name", ["broadcast_channel", "muddy_children", "r2d2", "timestamped_demo"]
)
def test_equal_events_of_a_built_system_are_one_object(name):
    # as they are in a system decoded from a file
    system = SCENARIOS[name](**SMALL_PARAMS[name]).model.system
    events = [ev for run in system.runs for line in run.timeline for _, ev in line]
    assert len(events) > len(set(events))
    assert len(set(map(id, events))) == len(set(events))


def test_equal_events_of_generated_runs_are_one_object():
    # one table per enumeration, across its configurations and branches
    system = coordinated_attack(10, 11).model.system
    events = [ev for run in system.runs for line in run.timeline for _, ev in line]
    assert len(set(events)) == 20
    assert len(set(map(id, events))) == 20


def test_muddy_children_drops_its_scaffolding_before_building_runs():
    # the per-child histories, and each run's timeline entries once its
    # run is built, are gone before the system and valuation
    muddy_children(4, True, 4, True)  # imports and caches
    tracemalloc.start()
    try:
        manifest = muddy_children(4, True, 4, True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert manifest.expectations
    assert peak <= held + 100 * 1024


def test_muddy_children_peaks_near_what_its_manifest_holds():
    # the runs are built from the timeline entries that the children's
    # histories are read from, with no second list of events beside them
    muddy_children(5, True, 5, staggered_announcement=True)  # imports and caches
    tracemalloc.start()
    try:
        manifest = muddy_children(5, True, 5, staggered_announcement=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(manifest.model.system.runs) == 64
    assert peak <= 2.4 * held
