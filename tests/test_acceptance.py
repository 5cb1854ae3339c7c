"""Acceptance suite: one test per exit criterion, exact assertions only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value here is either pinned by an independent
derivation in this repository's tests or is an exact structural fact of
the models; there are no tolerances.
"""

import itertools
import random

import pytest

from epimc import formulas as fm
from epimc.evaluate import (
    Model,
    check_validity,
    eval_C_reach,
    evaluate,
    gfp,
    holds,
    make_valuation,
    verify_manifest,
)
from epimc.formulas import parse
from epimc.protocols import (
    DeliveryModel,
    InitialConfiguration,
    check_ng1,
    check_ng1prime,
    check_ng2,
    check_temporal_imprecision,
    close_under_shifts,
    generate_runs,
    handshake,
    ping_once,
)
from epimc.runs import Point
from epimc.scenarios import (
    coordinated_attack,
    muddy_children,
    ok_protocol_scenario,
    r2d2,
    timestamped_demo,
)
from epimc.views import ViewPolicy

from tests.helpers import brute_force_gfp, random_policy, random_system, random_valuation


def _report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


@pytest.fixture(scope="module")
def random_batch():
    """Fifty small systems with valuations under both policy kinds."""
    batch = []
    rng = random.Random(20240817)
    for i in range(50):
        system = random_system(rng, max_runs=4, max_horizon=4, max_agents=3)
        valuation = random_valuation(rng, system, n_props=3)
        policy = (
            ViewPolicy.complete_history() if i % 2 == 0 else random_policy(rng)
        )
        batch.append(Model(system, valuation, policy))
    kinds = {m.policy.kind for m in batch}
    assert {"complete", "projection"} <= kinds
    return batch


def test_criterion_1_muddy_children_answer_rounds():
    for n in (2, 3, 4):
        manifest = muddy_children(n, True, n + 1)
        assert not verify_manifest(manifest)
        model = manifest.model
        for vec in itertools.product((0, 1), repeat=n):
            rid = "v" + "".join(map(str, vec))
            k = sum(vec)
            for q in range(1, n + 2):
                for child in range(n):
                    said = holds(model, parse(f"said_yes_{child}_{q}"), Point(rid, q))
                    expected = vec[child] == 1 and k >= 1 and q >= k
                    assert said == expected, (n, rid, child, q)
        silent = muddy_children(n, False, n + 1)
        assert not verify_manifest(silent)
        for name in silent.model.valuation.names:
            if name.startswith("said_yes"):
                assert not silent.model.valuation.truth_set(name)
    _report(1, "muddy children answer exactly at round k; never without the announcement")


def test_criterion_2_knowledge_ladder_and_announcement():
    n = 4
    manifest = muddy_children(n, True, n)
    model = manifest.model
    children = "{0,1,2,3}"
    for vec in itertools.product((0, 1), repeat=n):
        k = sum(vec)
        if k < 1:
            continue
        rid = "v" + "".join(map(str, vec))
        lower = "m" if k == 1 else f"E^{k - 1}{children} m"
        assert holds(model, parse(lower), Point(rid, 0))
        assert not holds(model, parse(f"E^{k}{children} m"), Point(rid, 0))
        assert holds(model, parse(f"C{children} m"), Point(rid, 1))
    staggered = muddy_children(3, True, 3, staggered_announcement=True)
    smodel = staggered.model
    for run in smodel.system.runs:
        assert not holds(smodel, parse("C{0,1,2} m"), Point(run.id, 1))
    _report(2, "pre-announcement depth is exactly k-1; announcing yields common "
               "knowledge unless comprehension is staggered")


def test_criterion_3_s5_axioms_on_random_systems(random_batch):
    checks = 0
    for model in random_batch:
        agents = tuple(model.system.agents)
        props = [fm.Prop(name) for name in model.valuation.names]
        operators = [lambda g, a=a: fm.K(a, g) for a in agents]
        operators.append(lambda g: fm.D(agents, g))
        operators.append(lambda g: fm.C(agents, g))
        for wrap in operators:
            for p, q in zip(props, props[1:] + props[:1]):
                for name, formula in (
                    ("A1", fm.implies(wrap(p), p)),
                    ("A2", fm.implies(fm.And(wrap(p), wrap(fm.implies(p, q))), wrap(q))),
                    ("A3", fm.implies(wrap(p), wrap(wrap(p)))),
                    ("A4", fm.implies(fm.Not(wrap(p)), wrap(fm.Not(wrap(p))))),
                ):
                    ok, cx = check_validity(model, formula)
                    assert ok, (name, cx)
                    checks += 1
            for sample in (fm.TrueConst(), fm.disj(props[0], fm.Not(props[0]))):
                valid, _ = check_validity(model, sample)
                if valid:
                    ok, cx = check_validity(model, wrap(sample))
                    assert ok, ("R1", cx)
                    checks += 1
    _report(3, f"S5 axioms and necessitation valid in {checks} instances over "
               f"{len(random_batch)} random systems, zero failures")


def test_criterion_4_fixed_point_coherence(random_batch):
    for model in random_batch:
        group = tuple(model.system.agents)
        size = len(model.all_points)
        for name in model.valuation.names:
            p = fm.Prop(name)
            via_reach = eval_C_reach(model, group, p)
            via_gfp = gfp(model, "X", fm.E(group, fm.And(p, fm.Var("X"))))
            conjunction = model.all_points
            for k in range(1, size + 1):
                conjunction &= evaluate(model, fm.EPow(group, k, p))
            assert via_reach == via_gfp == conjunction
    _report(4, "reachability, fixed-point iteration, and bounded conjunction "
               "agree for common knowledge on every random system")


def test_criterion_5_gfp_matches_subset_enumeration():
    rng = random.Random(99)
    checked = 0
    while checked < 8:
        system = random_system(rng, max_runs=3, max_horizon=3)
        if len(system.points) > 12:
            continue
        model = Model(system, random_valuation(rng, system), random_policy(rng))
        group = tuple(system.agents)
        for name in model.valuation.names:
            body = fm.E(group, fm.And(fm.Prop(name), fm.Var("X")))
            assert gfp(model, "X", body) == brute_force_gfp(model, "X", body)
        checked += 1
    _report(5, f"descending iteration equals the union over all fixed subsets "
               f"on {checked} systems of up to 12 points")


def test_criterion_6_coordinated_attack():
    for k_legs in (2, 3, 4):
        manifest = coordinated_attack(k_legs, k_legs + 1)
        assert not verify_manifest(manifest)
        model = manifest.model
        system = model.system
        assert evaluate(model, parse("C{0,1} both_attack")) == frozenset()
        favor_runs = [r for r in system.runs if r.initial_state[0] == "favor"]
        silent = next(
            r for r in favor_runs
            if not any(ev.kind == "receive" for a in (0, 1) for _, ev in r.timeline[a])
        )

        def depth(j):
            text = "sent_1"
            for level in range(1, j + 1):
                text = f"K{1 if level % 2 == 1 else 0} ({text})"
            return parse(text)

        for run in favor_runs:
            delivered = sum(
                1 for a in (0, 1) for _, ev in run.timeline[a] if ev.kind == "receive"
            )
            top = Point(run.id, system.horizon)
            assert holds(model, depth(delivered), top)
            assert not holds(model, depth(delivered + 1), top)
        battery = ["sent_1", "prefav", "delivered_1", "K1 sent_1", "~sent_1"]
        for phi in battery:
            c = evaluate(model, parse(f"C{{0,1}} ({phi})"))
            for run in favor_runs:
                for t in range(system.horizon + 1):
                    assert (Point(run.id, t) in c) == (Point(silent.id, t) in c)
    _report(6, "attack never becomes common knowledge; alternating depth equals "
               "delivered legs; silent-run truth matches everywhere")


def test_criterion_7_ng_coherence_and_lockstep():
    cfg = InitialConfiguration((0, 0), ("favor", "await"))
    dropped = generate_runs(handshake(3), DeliveryModel.not_guaranteed((0,)), [cfg], 4)
    assert check_ng1(dropped).ok and check_ng2(dropped).ok
    unbounded = generate_runs(ping_once(), DeliveryModel.unbounded(), [cfg], 4)
    assert check_ng1prime(unbounded).ok and check_ng2(unbounded).ok
    lockstep = generate_runs(
        ping_once(), DeliveryModel.not_guaranteed((1,)), [cfg], 3, global_clock=True
    )
    assert not check_temporal_imprecision(lockstep, 1).ok
    _report(7, "drop-generated systems satisfy both unreliability conditions, "
               "unbounded ones the unbounded variant, and a lock-step clocked "
               "system shows no temporal imprecision")


def test_criterion_8_sender_receiver_uncertainty_costs():
    for eps in (1, 2):
        t_S = 3 * eps + 1
        manifest = r2d2(eps, t_S, 3)
        assert not verify_manifest(manifest)
        model = manifest.model
        for k in (1, 2, 3):
            text = "sent_m"
            for _ in range(k):
                text = f"K0 K1 ({text})"
            sat = evaluate(model, parse(text))
            times = sorted(p.time for p in sat if p.run_id == "r0a")
            assert times and times[0] == t_S + k * eps
        assert evaluate(model, parse("C{0,1} sent_m")) == frozenset()
    closed = r2d2(2, 7, 3, closed_window=True)
    assert not verify_manifest(closed)
    sat = evaluate(closed.model, parse("Ceps[1]{0,1} sent_m"))
    late = sorted(p.time for p in sat if p.run_id == "r0b")
    assert late and late[0] == 7 + 1
    _report(8, "each alternating level first holds one uncertainty quantum after "
               "the previous; common knowledge never; half-width interval common "
               "knowledge half a quantum after the send")


def test_criterion_9_liveness_confirmations():
    manifest = ok_protocol_scenario(5)
    assert not verify_manifest(manifest)
    model = manifest.model
    silent = manifest.parameters["silent"]
    delivered = manifest.parameters["all_delivered"]
    ceps = evaluate(model, parse("Ceps[1]{0,1} psi"))
    assert Point(silent, 1) in ceps
    assert Point(delivered, 1) not in ceps
    # analogue of the unreliable-communication theorem for the variants:
    # absent from the silent run means absent from every same-configuration
    # run; checked over this scenario's proposition and, non-vacuously, over
    # a fully unreliable system's propositions
    for name in model.valuation.names:
        for variant in (f"Ceps[1]{{0,1}} {name}", f"Cv{{0,1}} {name}"):
            sat = evaluate(model, parse(variant))
            if not {p for p in sat if p.run_id == silent}:
                assert sat == frozenset(), (variant, sorted(sat)[:3])
    attack = coordinated_attack(3, 4).model
    favor_runs = [r for r in attack.system.runs if r.initial_state[0] == "favor"]
    attack_silent = next(
        r.id for r in favor_runs
        if not any(ev.kind == "receive" for a in (0, 1) for _, ev in r.timeline[a])
    )
    bitten = 0
    for name in attack.valuation.names:
        for variant in (f"Ceps[1]{{0,1}} {name}", f"Cv{{0,1}} {name}"):
            sat = evaluate(attack, parse(variant))
            if not {p for p in sat if p.run_id == attack_silent}:
                favored = {p for p in sat if p.run_id in {r.id for r in favor_runs}}
                assert favored == frozenset(), (variant, sorted(favored)[:3])
                bitten += 1
    assert bitten > 0
    _report(9, "a loss is interval common knowledge in the silent run and not "
               "in the delivered one; variants absent from the silent run are "
               "absent everywhere")


def test_criterion_10_hierarchy_and_variant_chains(random_batch):
    for model in random_batch:
        if model.system.horizon < 2:
            continue
        group = tuple(model.system.agents)
        for name in model.valuation.names:
            p = fm.Prop(name)
            sets = [evaluate(model, fm.C(group, p))]
            for k in range(4, 0, -1):
                sets.append(evaluate(model, fm.EPow(group, k, p)))
            sets.append(evaluate(model, fm.S(group, p)))
            sets.append(evaluate(model, fm.D(group, p)))
            sets.append(evaluate(model, p))
            for upper, lower in zip(sets, sets[1:]):
                assert upper <= lower
            c = sets[0]
            c1 = evaluate(model, fm.CEps(group, 1, p))
            c2 = evaluate(model, fm.CEps(group, 2, p))
            cd = evaluate(model, fm.CDiamond(group, p))
            assert c <= c1 <= c2 <= cd
    _report(10, "the knowledge hierarchy and the interval/eventual chain hold "
                "as point-set inclusions with zero violations")


def test_criterion_11_timestamped_and_eventual_strictness():
    # identical clocks: the stamped variant coincides with the plain one
    identical = timestamped_demo(0, 2)
    assert not verify_manifest(identical)
    model = identical.model
    T0 = identical.parameters["T0"]
    ct = evaluate(model, parse(f"Ct[{T0}]{{0,1}} sent_mp"))
    plain = evaluate(model, parse("C{0,1} sent_mp"))
    stamped_points = {p for p in model.all_points if p.time == T0}
    assert ct & stamped_points == plain & stamped_points

    # clocks within the skew bound: stamped implies the interval variant there
    skewed = timestamped_demo(2, 1)
    assert not verify_manifest(skewed)
    smodel = skewed.model
    T0 = skewed.parameters["T0"]
    ct = evaluate(smodel, parse(f"Ct[{T0}]{{0,1}} sent_mp"))
    ceps = evaluate(smodel, parse("Ceps[2]{0,1} sent_mp"))
    at_stamp = set()
    for run in smodel.system.runs:
        for agent in (0, 1):
            for t in range(run.wake_up[agent], smodel.system.horizon + 1):
                if run.clock_at(agent, t) == T0:
                    at_stamp.add(Point(run.id, t))
    assert ct & at_stamp <= ceps

    # every clock reaches the stamp: stamped implies the eventual variant
    cv = evaluate(smodel, parse("Cv{0,1} sent_mp"))
    assert ct <= cv

    # strictness: every finite eventual depth without the fixed point
    attack = coordinated_attack(4, 5).model
    full = next(
        r.id for r in attack.system.runs
        if sum(1 for a in (0, 1) for _, ev in r.timeline[a] if ev.kind == "receive") == 4
    )
    for k in range(1, 5):
        text = "prefav"
        for _ in range(k):
            text = f"Ev{{0,1}} ({text})"
        assert holds(attack, parse(text), Point(full, 0))
    assert evaluate(attack, parse("Cv{0,1} prefav")) == frozenset()
    _report(11, "stamped common knowledge matches, bounds, and implies the "
                "plain, interval, and eventual variants per the clock regime; "
                "eventual depths never add up to the fixed point")


def test_criterion_12_shift_closed_systems_pin_common_knowledge_to_time_zero():
    configs = [
        InitialConfiguration((w0, w1), ("favor", "await"))
        for w0 in (0, 1)
        for w1 in (0, 1, 2, 3)
    ]
    delivery = DeliveryModel.bounded_uncertain(1, 4)
    base = generate_runs(ping_once(), delivery, configs, 3)
    closed = close_under_shifts(base, 1, delivery=delivery)
    assert check_temporal_imprecision(closed, 1).ok
    rng = random.Random(5)
    valuation = make_valuation(
        {
            "p": {pt for pt in closed.points if rng.random() < 0.5},
            "sent": {
                Point(r.id, t)
                for r in closed.runs
                for t in range(closed.horizon + 1)
                if any(tt < t for tt, ev in r.timeline[0] if ev.kind == "send")
            },
        }
    )
    model = Model(closed, valuation, ViewPolicy.complete_history())
    battery = ["p", "sent", "~p", "p & sent", "K0 sent", "E{0,1} p"]
    for phi in battery:
        c = evaluate(model, parse(f"C{{0,1}} ({phi})"))
        for run in closed.runs:
            base_truth = Point(run.id, 0) in c
            for t in range(closed.horizon + 1):
                assert (Point(run.id, t) in c) == base_truth
    _report(12, "on the shift-closed system, common knowledge at any time "
                "equals common knowledge at time zero for the whole battery")
