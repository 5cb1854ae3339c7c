"""Point-by-point transcription oracles for the modal operators.

Each oracle quantifies exactly as the operator's definition reads, one
point at a time, with no indexing or batch set arithmetic. Agreement with
the evaluator's class-based fast paths is checked on random models.
"""

import itertools
import random

from epimc import formulas as fm
from epimc.semantics import Model, evaluate, make_valuation
from epimc.formulas import expand_fixpoints, parse
from epimc.runs import Point, make_run, make_system
from epimc.views import ViewPolicy

from tests.helpers import (
    bfs_reachable,
    clock_variants,
    random_model,
    random_system,
    random_valuation,
)


def same_view(model: Model, agent, a, b) -> bool:
    policy = model.policy
    return policy.view_of(model.system.history(agent, a)) == policy.view_of(
        model.system.history(agent, b)
    )


def oracle_know(model: Model, agent, arg):
    return frozenset(
        pt
        for pt in model.system.points
        if all(
            other in arg
            for other in model.system.points
            if same_view(model, agent, pt, other)
        )
    )


def oracle_distributed(model: Model, group, arg):
    return frozenset(
        pt
        for pt in model.system.points
        if all(
            other in arg
            for other in model.system.points
            if all(same_view(model, a, pt, other) for a in group)
        )
    )


def oracle_interval(model: Model, group, eps, arg):
    horizon = model.system.horizon
    know = {a: oracle_know(model, a, arg) for a in group}
    out = set()
    for pt in model.system.points:
        for start in range(0, horizon - eps + 1):
            if not start <= pt.time <= start + eps:
                continue
            if all(
                any(
                    Point(pt.run_id, u) in know[a]
                    for u in range(start, start + eps + 1)
                )
                for a in group
            ):
                out.add(pt)
                break
    return frozenset(out)


def oracle_eventual(model: Model, group, arg):
    horizon = model.system.horizon
    know = {a: oracle_know(model, a, arg) for a in group}
    return frozenset(
        pt
        for pt in model.system.points
        if all(
            any(Point(pt.run_id, u) in know[a] for u in range(horizon + 1))
            for a in group
        )
    )


def oracle_stamped_know(model: Model, agent, stamp, arg):
    know = oracle_know(model, agent, arg)
    out = set()
    for run in model.system.runs:
        readings = [
            t
            for t in range(run.wake_up[agent], model.system.horizon + 1)
            if run.clock_at(agent, t) == stamp
        ]
        if readings and all(Point(run.id, t) in know for t in readings):
            out.update(Point(run.id, t) for t in range(model.system.horizon + 1))
    return frozenset(out)


def test_individual_knowledge_matches_the_quantifier_transcription():
    rng = random.Random(61)
    for _ in range(20):
        model = random_model(rng)
        arg = evaluate(model, fm.Prop("p"))
        for agent in model.system.agents:
            assert evaluate(model, fm.K(agent, fm.Prop("p"))) == oracle_know(
                model, agent, arg
            )


def test_distributed_knowledge_matches_the_joint_view_transcription():
    rng = random.Random(67)
    models = [random_model(rng) for _ in range(20)]
    # many runs under the complete-history policy: mostly singleton classes
    for _ in range(6):
        system = random_system(rng, max_runs=12, min_runs=8)
        models.append(
            Model(system, random_valuation(rng, system), ViewPolicy.complete_history())
        )
    for model in models:
        arg = evaluate(model, fm.Prop("p"))
        agents = model.system.agents
        groups = [g for k in agents for g in itertools.combinations(agents, k + 1)]
        # the evaluator takes the group as written: unsorted, with a repeat
        groups.append((1, 0, 1))
        for group in groups:
            assert evaluate(model, fm.D(group, fm.Prop("p"))) == oracle_distributed(
                model, group, arg
            ), group


def test_interval_everyone_matches_the_quantifier_transcription():
    rng = random.Random(71)
    for _ in range(20):
        model = random_model(rng)
        arg = evaluate(model, fm.Prop("p"))
        group = tuple(model.system.agents)
        for eps in range(model.system.horizon + 1):
            assert evaluate(model, fm.EEps(group, eps, fm.Prop("p"))) == (
                oracle_interval(model, group, eps, arg)
            )


def test_eventual_everyone_matches_the_quantifier_transcription():
    rng = random.Random(73)
    for _ in range(20):
        model = random_model(rng)
        arg = evaluate(model, fm.Prop("p"))
        group = tuple(model.system.agents)
        assert evaluate(model, fm.EDiamond(group, fm.Prop("p"))) == oracle_eventual(
            model, group, arg
        )


def test_stamped_knowledge_matches_the_quantifier_transcription():
    rng = random.Random(79)
    done = 0
    while done < 12:
        model = random_model(rng)
        if not model.system.has_clocks:
            continue
        done += 1
        # the same runs again with stuttering clocks (readings t // 2)
        system = clock_variants(model.system)
        system = make_system(
            system.n_agents, system.horizon, [r for r in system.runs if r.clock is not None]
        )
        stuttering = Model(system, random_valuation(rng, system), model.policy)
        for checked in (model, stuttering):
            arg = evaluate(checked, fm.Prop("p"))
            for agent in checked.system.agents:
                for stamp in (0, 1, 2):
                    assert evaluate(
                        checked, fm.KTime(agent, stamp, fm.Prop("p"))
                    ) == oracle_stamped_know(checked, agent, stamp, arg)


def test_common_knowledge_on_a_hand_built_chain():
    # three runs forming a chain through alternating classes; the closure
    # of the middle point covers everything, so common knowledge needs the
    # fact everywhere
    runs = []
    for rid, (i0, i1) in (("a", ("x", "u")), ("b", ("x", "v")), ("c", ("y", "v"))):
        runs.append(
            make_run(rid, horizon=0, wake_up=[0, 0], initial_state=[i0, i1])
        )
    system = make_system(2, 0, runs)
    val = make_valuation({"p": {Point("a", 0), Point("b", 0), Point("c", 0)},
                          "q": {Point("a", 0), Point("b", 0)}})
    model = Model(system, val, ViewPolicy.complete_history())
    assert evaluate(model, parse("C{0,1} p")) == model.all_points
    assert evaluate(model, parse("C{0,1} q")) == frozenset()
    # one step of everyone-knows still holds for q at the far end of the chain
    assert evaluate(model, parse("E{0,1} q")) == {Point("a", 0)}


def oracle_within(model: Model, group, steps, arg):
    """Points whose every point within ``steps`` group edges (any number
    when None), found by breadth-first search, lies in ``arg``."""
    return frozenset(
        pt for pt in model.system.points if bfs_reachable(model, pt, group, steps) <= arg
    )


def oracle_gfp(model: Model, step):
    """Greatest fixed point of ``step``, descending from all points."""
    current = frozenset(model.system.points)
    while (nxt := step(current)) != current:
        current = nxt
    return current


def singleton_class_model(rng: random.Random, n_agents: int) -> Model:
    """Runs whose agents start in a state naming the run, with clocks that
    read the tick: every history is unique, so under the complete-history
    policy every view class is one point."""
    horizon = rng.randint(2, 3)
    runs = [
        make_run(f"r{i}", horizon=horizon, wake_up=[0] * n_agents,
                 initial_state=[f"s{i}"] * n_agents, clock=lambda a, t: t)
        for i in range(rng.randint(1, 3))
    ]
    system = make_system(n_agents, horizon, runs)
    return Model(system, random_valuation(rng, system), ViewPolicy.complete_history())


def reach_cases(model: Model, group, arg):
    """(formula over p, oracle truth set) for K, E, E^k, C and the C-forms
    over ``group``, with ``arg`` the truth set of p."""
    p = fm.Prop("p")
    past = len(model.system.points) + 1  # beyond any chain's stable link
    cases = [(fm.K(a, p), oracle_within(model, (a,), 1, arg)) for a in group]
    cases.append((fm.E(group, p), oracle_within(model, group, 1, arg)))
    cases += [(fm.EPow(group, k, p), oracle_within(model, group, k, arg)) for k in (1, 2, past)]
    cases.append((fm.C(group, p), oracle_within(model, group, None, arg)))
    for eps in range(min(2, model.system.horizon) + 1):
        cases.append((fm.CEps(group, eps, p), oracle_gfp(
            model, lambda x, eps=eps: oracle_interval(model, group, eps, arg & x))))
    cases.append((fm.CDiamond(group, p), oracle_gfp(
        model, lambda x: oracle_eventual(model, group, arg & x))))
    if model.system.has_clocks:
        for stamp in range(model.system.horizon + 1):

            def everyone_at_stamp(x, stamp=stamp):
                return frozenset.intersection(
                    *(oracle_stamped_know(model, a, stamp, arg & x) for a in group)
                )

            cases.append((fm.CTime(group, stamp, p), oracle_gfp(model, everyone_at_stamp)))
    return cases


def test_reach_operators_agree_with_expansion_and_breadth_first_search():
    # K, E, E^k and C read one neighbourhood search at distance 1, 1, k
    # and unbounded, and Ceps, Cv and Ct descend through their E-forms:
    # each must equal its expand_fixpoints form and an oracle that finds
    # the same points by breadth-first search over compared histories
    rng = random.Random(83)
    models = []
    while len(models) < 24:
        model = random_model(rng, max_runs=3, max_horizon=3, min_agents=1)
        if model.system.horizon >= 2:
            models.append(model)
    models += [singleton_class_model(rng, n) for n in (1, 2, 2)]
    assert sum(m.system.n_agents == 1 for m in models) >= 3
    assert all(
        len(m.system.points_of(cls)) == 1 for m in models[-3:] for masks in m.index.class_masks
        for cls in masks
    )
    for model in models:
        agents = tuple(model.system.agents)
        arg = evaluate(model, fm.Prop("p"))
        for group in {agents, agents[:1]}:
            for f, expected in reach_cases(model, group, arg):
                assert evaluate(model, f) == expected, fm.print_formula(f)
                assert evaluate(model, expand_fixpoints(f)) == expected, fm.print_formula(f)
