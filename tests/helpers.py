"""Shared test fixtures: small random systems and independent oracles.

The oracles here deliberately avoid the library's own fast paths: the
fixed-point oracle enumerates every candidate subset, the reachability
oracle is a plain breadth-first search over freshly compared histories,
and the structural-check oracles transcribe the checks' docstrings with
one ``run_history`` call per comparison.
"""

from __future__ import annotations

import os
import random
from itertools import combinations
from pathlib import Path

import epimc
from epimc.evaluate import (
    Expectation,
    Model,
    PointSet,
    ScenarioManifest,
    check_validity,
    evaluate,
    holds,
    make_valuation,
)
from epimc.formulas import Formula, Not, parse
from epimc.runs import Point, Run, System, make_run, make_system, run_history
from epimc.views import VIEW_PROJECTIONS, ViewPolicy


def random_system(rng: random.Random, max_runs: int = 4, max_horizon: int = 4,
                  max_agents: int = 3) -> System:
    """A small well-formed system with random message traffic."""
    n = rng.randint(2, max_agents)
    horizon = rng.randint(1, max_horizon)
    n_runs = rng.randint(1, max_runs)
    clocked = rng.random() < 0.3
    runs = []
    for ri in range(n_runs):
        wake = [rng.choice((0, 0, 1)) for _ in range(n)]
        wake = [min(w, horizon) for w in wake]
        init = [rng.choice(("x", "y")) + str(a) for a in range(n)]
        events = []
        for k in range(rng.randint(0, 4)):
            sender = rng.randrange(n)
            recipient = rng.choice([a for a in range(n) if a != sender])
            st = rng.randint(wake[sender], horizon)
            body = f"m{ri}_{k}"
            events.append((st, sender, "send", recipient, body))
            if rng.random() < 0.7:
                dt = rng.randint(max(st, wake[recipient]), horizon)
                events.append((dt, recipient, "receive", sender, body))
        runs.append(
            make_run(
                f"r{ri}",
                horizon=horizon,
                wake_up=wake,
                initial_state=init,
                events=events,
                clock=(lambda a, t: t) if clocked else None,
            )
        )
    return make_system(n, horizon, runs)


def clock_variants(system: System) -> System:
    """``system`` plus, per run, a copy with a stuttering clock (readings
    t // 2) and a clockless copy: runs that differ from their originals
    only in their clocks."""
    runs = list(system.runs)
    for run in system.runs:
        events = [
            (t, agent, ev.kind, ev.peer, ev.message)
            for agent in system.agents
            for t, ev in run.timeline[agent]
        ]
        for suffix, clock in (("/slow", lambda a, t: t // 2), ("/none", None)):
            runs.append(
                make_run(run.id + suffix, horizon=system.horizon, wake_up=run.wake_up,
                         initial_state=run.initial_state, events=events, clock=clock)
            )
    return make_system(system.n_agents, system.horizon, runs)


def random_valuation(rng: random.Random, system: System, n_props: int = 2):
    names = ["p", "q", "s"][:n_props]
    return make_valuation(
        {
            name: {pt for pt in system.points if rng.random() < 0.5}
            for name in names
        }
    )


def random_policy(rng: random.Random) -> ViewPolicy:
    choice = rng.randrange(4)
    if choice <= 1:
        return ViewPolicy.complete_history()
    name = rng.choice(sorted(VIEW_PROJECTIONS))
    return ViewPolicy.local_state(name, VIEW_PROJECTIONS[name])


def random_model(rng: random.Random, **kwargs) -> Model:
    system = random_system(rng, **kwargs)
    return Model(system, random_valuation(rng, system), random_policy(rng))


def brute_force_gfp(model: Model, var: str, body: Formula,
                    env: dict | None = None) -> PointSet:
    """Union of every subset that the body maps to itself; enumerated over
    all 2^|points| candidates, independently of the descending iteration."""
    pts = sorted(model.all_points)
    n = len(pts)
    if n > 14:
        raise ValueError("brute force oracle is for small systems only")
    out: set[Point] = set()
    base = dict(env or {})
    for mask in range(2 ** n):
        candidate = frozenset(pts[i] for i in range(n) if mask >> i & 1)
        base[var] = candidate
        if evaluate(model, body, base) == candidate:
            out |= candidate
    return frozenset(out)


def bfs_reachable(model: Model, start: Point, group) -> frozenset[Point]:
    """Reachability oracle: breadth-first search comparing histories
    directly, without the prebuilt index."""
    system = model.system
    policy = model.policy
    views = {
        (a, pt): policy.view_of(system.history(a, pt))
        for a in group
        for pt in system.points
    }
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for pt in frontier:
            for a in group:
                for other in system.points:
                    if other not in seen and views[(a, other)] == views[(a, pt)]:
                        seen.add(other)
                        nxt.append(other)
        frontier = nxt
    return frozenset(seen)


def singleton_class_pairs(model: Model, agent: int):
    """All point pairs with equal histories for ``agent``: the pairwise
    comparison oracle for index classes."""
    pts = model.system.points
    return {
        (a, b)
        for a, b in combinations(pts, 2)
        if model.system.history(agent, a) == model.system.history(agent, b)
    }


def _same_start(a: Run, b: Run) -> bool:
    """Same wake-ups, initial states and clock readings."""
    return (a.wake_up, a.initial_state, a.clock) == (b.wake_up, b.initial_state, b.clock)


def _agree(a: Run, b: Run, agents, upto: int) -> bool:
    """``agents``' histories are equal in the two runs at every time 0..upto."""
    return all(
        run_history(a, agent, u) == run_history(b, agent, u)
        for agent in agents
        for u in range(upto + 1)
    )


def _receives(run: Run, agents) -> list[int]:
    return [t for a in agents for t, ev in run.timeline[a] if ev.kind == "receive"]


def oracle_ng1(system: System) -> tuple[str, ...]:
    """Points with no same-configuration, same-clock extension that has
    no receives from that time on."""
    agents = system.agents
    return tuple(
        f"({run.id}@{t}): no silent extension with the same configuration and clocks"
        for run in system.runs
        for t in range(system.horizon + 1)
        if not any(
            _same_start(run, cand)
            and all(x < t for x in _receives(cand, agents))
            and _agree(run, cand, agents, t)
            for cand in system.runs
        )
    )


def oracle_ng2(system: System) -> tuple[str, ...]:
    """Silent intervals (t_lo, t_hi) of one agent with no extension that
    agrees with the run through t_lo, keeps that agent's history through
    t_hi, and has no other agent receive in [t_lo, t_hi)."""
    out = []
    for run in system.runs:
        for agent in system.agents:
            others = [a for a in system.agents if a != agent]
            for t_lo in range(system.horizon + 1):
                for t_hi in range(t_lo + 1, system.horizon + 1):
                    if any(t_lo < x < t_hi for x in _receives(run, [agent])):
                        continue
                    if not any(
                        _same_start(run, cand)
                        and _agree(run, cand, system.agents, t_lo)
                        and _agree(run, cand, [agent], t_hi)
                        and not any(t_lo <= x < t_hi for x in _receives(cand, others))
                        for cand in system.runs
                    ):
                        out.append(
                            f"run {run.id!r}, agent {agent}, interval "
                            f"({t_lo},{t_hi}): no witness extension"
                        )
    return tuple(out)


def oracle_ng1prime(system: System) -> tuple[str, ...]:
    """(point, later time u) pairs with no same-configuration, same-clock
    extension that is silent on [t, u]."""
    agents = system.agents
    return tuple(
        f"({run.id}@{t}): no extension silent on [{t},{u}]"
        for run in system.runs
        for t in range(system.horizon + 1)
        for u in range(t, system.horizon + 1)
        if not any(
            _same_start(run, cand)
            and not any(t <= x <= u for x in _receives(cand, agents))
            and _agree(run, cand, agents, t)
            for cand in system.runs
        )
    )


def oracle_timp(system: System, delta: int = 1) -> tuple[str, ...]:
    """Probed points (times 0..horizon-delta) and ordered agent pairs
    (i, j) with no run showing i's histories before the probe shifted by
    delta and j's unchanged."""
    h = system.horizon
    return tuple(
        f"({run.id}@{t}): no run shifts agent {i} by {delta} while fixing agent {j}"
        for run in system.runs
        for t in range(h - delta + 1)
        for i in system.agents
        for j in system.agents
        if i != j
        and not any(
            all(
                run_history(run, i, u) == run_history(cand, i, u + delta)
                for u in range(t)
                if u + delta <= h
            )
            and all(run_history(run, j, u) == run_history(cand, j, u) for u in range(t))
            for cand in system.runs
        )
    )


def oracle_verify(manifest: ScenarioManifest) -> list[tuple[Expectation, str]]:
    """``verify_manifest``'s contract, one expectation at a time: parse
    its formula, then ask ``holds`` at its point, or ``check_validity`` of
    the formula (expected true) or of its negation (expected false) when
    it names no point. Each failure is (expectation, detail)."""
    model = manifest.model
    out = []
    for exp in manifest.expectations:
        formula = parse(exp.formula)
        if exp.point is not None:
            value = holds(model, formula, exp.point)
            if value is not exp.expected:
                out.append((exp, f"evaluated to {value}"))
        elif exp.expected:
            ok, cx = check_validity(model, formula)
            if not ok:
                out.append((exp, f"fails at {cx}"))
        else:
            ok, cx = check_validity(model, Not(formula))
            if not ok:
                out.append((exp, f"holds at {cx}"))
    return out


def oracle_muddy_answers(system: System, n: int, rounds: int) -> dict[str, set[Point]]:
    """The ``said_yes_{c}_{q}`` truth sets of a muddy-children system, by
    the rule its builder states: at tick q child c says yes exactly when
    every run in which c has the same history at q has c muddy. Each
    run's history is compared with every other's, and the muddiness
    vector is read from the run id (``v0110``, ``s`` appended for the
    staggered variant)."""
    truth = {}
    for c in range(n):
        for q in range(1, rounds + 1):
            hist = {r.id: run_history(r, c, q) for r in system.runs}
            yes = [
                rid for rid in hist
                if all(other[1 + c] == "1" for other in hist if hist[other] == hist[rid])
            ]
            truth[f"said_yes_{c}_{q}"] = {
                Point(rid, t) for rid in yes for t in range(q, system.horizon + 1)
            }
    return truth


def child_env() -> dict[str, str]:
    """The environment of a child Python process that imports epimc: this
    package's source directory first on its path."""
    src = str(Path(epimc.__file__).resolve().parents[1])
    prior = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src] + ([prior] if prior else [])))
