"""Canonical demonstration models, each with a manifest of expected
formula outcomes that the verifier replays.

Timing convention used throughout: a message event placed at tick u is
observable from tick u + 1, so facts named after an event ("it has been
sent") are true from the tick after the event. Builders that advertise a
nominal time T therefore place the event at tick T - 1; knowledge-depth
claims then land on the advertised ticks exactly.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .evaluate import Expectation, Model, ScenarioManifest, make_valuation
from .protocols import (
    DROPPED,
    DeliveryModel,
    InitialConfiguration,
    enumerate_runs,
    handshake,
    ok_protocol,
)
from .runs import (
    ModelError,
    Point,
    RECEIVE,
    SEND,
    System,
    make_run,
    make_system,
)
from .views import ViewPolicy


def _points_where(system: System, pred) -> set[Point]:
    return {
        Point(r.id, t)
        for r in system.runs
        for t in range(system.horizon + 1)
        if pred(r.id, t)
    }


def _group(agents: Iterable[int]) -> str:
    return "{" + ",".join(str(a) for a in sorted(agents)) + "}"


# ---------------------------------------------------------------------------
# Muddy children

def muddy_children(
    n: int,
    announce: bool,
    rounds: int,
    staggered_announcement: bool = False,
) -> ScenarioManifest:
    """Children with possibly muddy foreheads answer repeated questions.

    One run per muddiness vector (doubled when the announcement is
    staggered). Child i's initial state encodes the foreheads it can see.
    An announcer agent (index n) broadcasts at tick 0 in runs where at
    least one forehead is muddy; with ``staggered_announcement`` a second
    variant per vector delays child 0's copy to tick 1, after that
    round's answers. At tick q each child answers yes exactly when, given
    the runs consistent with its history, its own forehead must be muddy;
    answers are public.
    """
    if not 1 <= n <= 6:
        raise ModelError("between one and six children are supported")
    if rounds < 1:
        raise ModelError("at least one question round is required")
    announcer = n
    horizon = rounds + 1
    vectors = list(itertools.product((0, 1), repeat=n))
    variants = [False, True] if (staggered_announcement and announce) else [False]

    meta: dict[str, tuple[tuple[int, ...], bool]] = {}
    events: dict[str, list[tuple[int, int, str, int, str]]] = {}
    # per run and child: tick -> the child's events at that tick, as the
    # (kind != SEND, peer, message) keys that canonical order sorts by
    observed: dict[str, list[dict[int, list[tuple[bool, int, str]]]]] = {}

    def add(rid: str, t: int, agent: int, kind: str, peer: int, message: str) -> None:
        events[rid].append((t, agent, kind, peer, message))
        if agent < n:
            observed[rid][agent].setdefault(t, []).append((kind != SEND, peer, message))

    for vec in vectors:
        for late in variants:
            rid = "v" + "".join(map(str, vec)) + ("s" if late else "")
            meta[rid] = (vec, late)
            events[rid] = []
            observed[rid] = [{} for _ in range(n)]
            if announce and any(vec):
                for child in range(n):
                    tick = 1 if (late and child == 0) else 0
                    add(rid, 0, announcer, SEND, child, "ann")
                    add(rid, tick, child, RECEIVE, announcer, "ann")

    def initial(vec: tuple[int, ...], child: int) -> str:
        return "sees:" + "".join(
            "?" if j == child else str(vec[j]) for j in range(n)
        )

    # Child c's history at tick q is its initial state and its events
    # before q in canonical order, without their ticks (``run_history``).
    # Round q adds only events at ticks >= q, so the key for round q is
    # the key for round q - 1 extended by the events of tick q - 1.
    history = {rid: [(initial(meta[rid][0], c),) for c in range(n)] for rid in meta}
    answers: dict[str, dict[tuple[int, int], bool]] = {rid: {} for rid in meta}
    for q in range(1, rounds + 1):
        for c in range(n):
            # history -> whether every run with it has child c muddy
            proves: dict[tuple, bool] = {}
            for rid, (vec, _) in meta.items():
                h = history[rid][c] + tuple(sorted(observed[rid][c].get(q - 1, ())))
                history[rid][c] = h
                proves[h] = proves.get(h, True) and vec[c] == 1
            for rid in meta:
                answers[rid][(c, q)] = proves[history[rid][c]]
        for rid in meta:
            for c in range(n):
                body = f"a{q}:{c}:" + ("y" if answers[rid][(c, q)] else "n")
                for other in range(n):
                    if other != c:
                        add(rid, q, c, SEND, other, body)
                        add(rid, q, other, RECEIVE, c, body)

    runs = [
        make_run(
            rid,
            horizon=horizon,
            wake_up=[0] * (n + 1),
            initial_state=[initial(meta[rid][0], c) for c in range(n)] + ["announcer"],
            events=events[rid],
        )
        for rid in sorted(meta)
    ]
    system = make_system(n + 1, horizon, runs)
    truth: dict[str, set[Point]] = {
        "m": _points_where(system, lambda rid, t: any(meta[rid][0])),
        "announced": _points_where(
            system, lambda rid, t: announce and any(meta[rid][0]) and t >= 1
        ),
    }
    for c in range(n):
        truth[f"muddy_{c}"] = _points_where(
            system, lambda rid, t, c=c: meta[rid][0][c] == 1
        )
        for q in range(1, rounds + 1):
            truth[f"said_yes_{c}_{q}"] = _points_where(
                system, lambda rid, t, c=c, q=q: t >= q and answers[rid][(c, q)]
            )
    model = Model(system, make_valuation(truth), ViewPolicy.complete_history())

    children = _group(range(n))
    expectations: list[Expectation] = []
    for rid in sorted(meta):
        vec, late = meta[rid]
        k = sum(vec)
        for q in range(1, rounds + 1):
            for c in range(n):
                if announce and not staggered_announcement:
                    # closed form: exactly the muddy children, from round k on
                    expected = vec[c] == 1 and k >= 1 and q >= k
                elif not announce:
                    expected = False
                else:
                    expected = answers[rid][(c, q)]
                expectations.append(
                    Expectation(
                        f"said_yes_{c}_{q}",
                        Point(rid, q),
                        expected,
                        "yes answers happen exactly when the child can prove "
                        "its own forehead muddy",
                    )
                )
        if not late and k >= 1 and not staggered_announcement:
            lower = "m" if k == 1 else f"E^{k - 1}{children} m"
            expectations.append(
                Expectation(
                    lower,
                    Point(rid, 0),
                    True,
                    "before anyone speaks, shared knowledge reaches depth "
                    "one less than the number of muddy foreheads",
                )
            )
            expectations.append(
                Expectation(
                    f"E^{k}{children} m",
                    Point(rid, 0),
                    False,
                    "depth equal to the number of muddy foreheads fails "
                    "before the announcement",
                )
            )
        cm = f"C{children} m"
        if announce and not staggered_announcement and k >= 1:
            expectations.append(
                Expectation(
                    cm, Point(rid, 1), True,
                    "the public announcement makes the fact common knowledge",
                )
            )
            expectations.append(
                Expectation(cm, Point(rid, 0), False, "not common before it")
            )
        if staggered_announcement:
            expectations.append(
                Expectation(
                    cm, Point(rid, 1), False,
                    "a one-tick comprehension skew blocks common knowledge "
                    "at the instant the simultaneous version attains it",
                )
            )
        if not announce:
            expectations.append(
                Expectation(cm, Point(rid, max(1, rounds)), False,
                            "without the announcement the fact never becomes "
                            "common knowledge")
            )

    params = {
        "n": n,
        "announce": announce,
        "rounds": rounds,
        "staggered_announcement": staggered_announcement,
    }
    return ScenarioManifest("muddy_children", params, model, tuple(expectations))


# ---------------------------------------------------------------------------
# Coordinated attack

def coordinated_attack(k_legs: int, horizon: int) -> ScenarioManifest:
    """Two generals run a multi-leg handshake over a lossy messenger.

    Legs are delivered within the tick they are sent or lost; one extra
    configuration has the initiator not in favor of attacking, so its
    preference is not system-valid. ``both_attack`` is false everywhere
    because no correct protocol ever attacks.
    """
    if horizon < k_legs + 1:
        raise ModelError("the horizon must leave room for every leg")
    configs = [
        InitialConfiguration((0, 0), ("favor", "await")),
        InitialConfiguration((0, 0), ("neutral", "await")),
    ]
    pairs = enumerate_runs(
        handshake(k_legs), DeliveryModel.not_guaranteed((0,)), configs, horizon
    )
    system = make_system(2, horizon, [r for r, _ in pairs])

    favor = {r.id: r.initial_state[0] == "favor" for r, _ in pairs}
    legs: dict[str, dict[int, int]] = {}
    for run, sched in pairs:
        legs[run.id] = {
            int(e.message.replace("hs", "")): e.outcome
            for e in sched
            if isinstance(e.outcome, int)
        }
    truth: dict[str, set[Point]] = {
        "sent_1": _points_where(system, lambda rid, t: favor[rid] and t >= 1),
        "prefav": _points_where(system, lambda rid, t: favor[rid]),
        "both_attack": set(),
    }
    for j in range(1, k_legs + 1):
        truth[f"delivered_{j}"] = _points_where(
            system, lambda rid, t, j=j: j in legs[rid] and t > legs[rid][j]
        )
    model = Model(system, make_valuation(truth), ViewPolicy.complete_history())

    by_legs = {
        len(legs[r.id]): r.id for r, _ in pairs if favor[r.id]
    }
    full = by_legs[k_legs]
    silent = by_legs[0]

    expectations = [
        Expectation(
            "C{0,1} both_attack", None, False,
            "a simultaneous attack would need common knowledge, which is "
            "never attained; nobody ever attacks",
        ),
        Expectation(
            "Cv{0,1} prefav", None, False,
            "eventual common knowledge of the initiator's preference is "
            "never attained when delivery is unreliable",
        ),
    ]
    for j in range(0, k_legs + 1):
        rid = by_legs[j]
        expectations.append(
            Expectation(
                _depth_formula(j), Point(rid, max(j, 1)), True,
                f"after {j} delivered legs the alternating knowledge depth "
                f"is exactly {j}",
            )
        )
        expectations.append(
            Expectation(
                _depth_formula(j + 1), Point(rid, horizon), False,
                "one more level would need one more delivered leg",
            )
        )
        if j > 0:
            expectations.append(
                Expectation(
                    _depth_formula(j), Point(rid, j - 1), False,
                    "the level is not reached before the leg arrives",
                )
            )
    for k in range(1, k_legs + 1):
        expectations.append(
            Expectation(
                _eventual_power(k), Point(full, 0), True,
                "every finite depth of eventual knowledge is reached in the "
                "fully delivered run",
            )
        )
    params = {"k_legs": k_legs, "horizon": horizon}
    return ScenarioManifest("coordinated_attack", params, model, tuple(expectations))


def _depth_formula(depth: int) -> str:
    text = "sent_1"
    for level in range(1, depth + 1):
        agent = 1 if level % 2 == 1 else 0
        text = f"K{agent} ({text})"
    return text


def _eventual_power(k: int) -> str:
    text = "prefav"
    for _ in range(k):
        text = f"Ev{{0,1}} ({text})"
    return text


# ---------------------------------------------------------------------------
# Sender/receiver pair with uncertain delivery timing

def r2d2(
    eps: int,
    t_S: int,
    k_max: int,
    horizon: int | None = None,
    closed_window: bool = False,
) -> ScenarioManifest:
    """One message whose delivery is immediate or ``eps`` ticks late, with
    the send time itself uncertain across runs.

    Runs come in pairs: immediate delivery and late delivery for each
    candidate send time, with perfect shared clocks. The open window
    (default) also includes a pair that never sends within the horizon,
    which keeps common knowledge of the send unattainable at every point;
    each alternating-knowledge level then first holds exactly one
    delivery-uncertainty quantum after the previous one. The closed
    window drops the unsent pair (every run delivers in-window); on it,
    fractional-interval common knowledge is attained.
    """
    if eps < 1:
        raise ModelError("the delivery uncertainty must be at least one tick")
    if t_S < k_max * eps + 1:
        raise ModelError(
            "the nominal send time must leave room below it for the tested "
            "knowledge depths"
        )
    if horizon is None:
        horizon = t_S + (k_max + 1) * eps
    if horizon < t_S + (k_max + 1) * eps:
        raise ModelError("the horizon is too small for the tested depths")

    runs = []
    send_tick_of: dict[str, int] = {}
    i = math.ceil((1 - t_S) / eps)
    while True:
        send_tick = t_S + i * eps - 1
        if closed_window and send_tick + eps > horizon:
            break
        for variant, delay in (("a", 0), ("b", eps)):
            rid = f"r{i}{variant}"
            evs: list[tuple[int, int, str, int, str]] = []
            if send_tick <= horizon:
                evs.append((send_tick, 0, SEND, 1, "m"))
                arrival = send_tick + delay
                if arrival <= horizon:
                    evs.append((arrival, 1, RECEIVE, 0, "m"))
            runs.append(
                make_run(
                    rid,
                    horizon=horizon,
                    wake_up=[0, 0],
                    initial_state=["R", "D"],
                    events=evs,
                    clock=lambda a, t: t,
                )
            )
            send_tick_of[rid] = send_tick
        if not closed_window and send_tick > horizon:
            break
        i += 1

    system = make_system(2, horizon, runs)
    truth = {
        "sent_m": _points_where(
            system, lambda rid, t: send_tick_of[rid] < t
        )
    }
    model = Model(system, make_valuation(truth), ViewPolicy.complete_history())

    expectations: list[Expectation] = []
    if not closed_window:
        for k in range(1, k_max + 1):
            f = "sent_m"
            for _ in range(k):
                f = f"K0 K1 ({f})"
            expectations.append(
                Expectation(
                    f, Point("r0a", t_S + k * eps), True,
                    "each alternating level costs one uncertainty quantum",
                )
            )
            expectations.append(
                Expectation(f, Point("r0a", t_S + k * eps - 1), False,
                            "and is not reached a tick earlier")
            )
        expectations.append(
            Expectation(
                "C{0,1} sent_m", None, False,
                "the levels never exhaust, so common knowledge never holds",
            )
        )
    else:
        expectations.append(
            Expectation(
                f"Ceps[{eps}]{{0,1}} sent_m", Point("r0a", t_S), True,
                "interval common knowledge at the full uncertainty width is "
                "attained at the send time",
            )
        )
        if eps % 2 == 0:
            half = eps // 2
            expectations.append(
                Expectation(
                    f"Ceps[{half}]{{0,1}} sent_m",
                    Point("r0b", t_S + half),
                    True,
                    "half-width interval common knowledge arrives half an "
                    "uncertainty quantum after the send in the late run",
                )
            )
            expectations.append(
                Expectation(
                    f"Ceps[{half}]{{0,1}} sent_m",
                    Point("r0b", t_S + half - 1),
                    False,
                    "and no earlier",
                )
            )
    params = {
        "eps": eps,
        "t_S": t_S,
        "k_max": k_max,
        "horizon": horizon,
        "closed_window": closed_window,
    }
    return ScenarioManifest("r2d2", params, model, tuple(expectations))


# ---------------------------------------------------------------------------
# Liveness confirmations over a lossy link

def ok_protocol_scenario(horizon: int) -> ScenarioManifest:
    """Two agents with a shared clock exchange liveness confirmations every
    tick; a confirmation is delivered within its tick or lost.

    Losses are confined to sends early enough that both sides can still
    detect them inside the window, which restores the mutual-detection
    property the unbounded-time protocol has. ``psi`` states that some
    message sent before now has been lost.
    """
    if horizon < 3:
        raise ModelError("a horizon of at least three ticks is required")
    stop = horizon - 1
    drop_deadline = horizon - 3
    config = InitialConfiguration((0, 0), ("left", "right"))
    pairs = enumerate_runs(
        ok_protocol(stop),
        DeliveryModel.not_guaranteed((0,), drop_deadline=drop_deadline),
        [config],
        horizon,
        global_clock=True,
    )
    system = make_system(2, horizon, [r for r, _ in pairs])
    drops = {
        run.id: sorted(e.send_time for e in sched if e.outcome == DROPPED)
        for run, sched in pairs
    }
    truth = {
        "psi": _points_where(
            system, lambda rid, t: any(s <= t - 1 for s in drops[rid])
        ),
    }
    model = Model(system, make_valuation(truth), ViewPolicy.complete_history())

    silent = next(
        rid
        for rid in drops
        if drops[rid]
        and all(
            not any(ev.kind == RECEIVE for _, ev in system.run(rid).timeline[a])
            for a in (0, 1)
        )
    )
    all_delivered = next(
        run.id for run, sched in pairs if sched and all(
            e.outcome != DROPPED for e in sched
        )
    )
    expectations = [
        Expectation(
            "psi -> Eeps[1]{0,1} psi", None, True,
            "a loss becomes known to its victim at once and to the other "
            "side one tick later",
        ),
        Expectation(
            "psi -> Ceps[1]{0,1} psi", None, True,
            "so a loss becomes interval common knowledge as soon as it is "
            "a fact",
        ),
        Expectation(
            "Ceps[1]{0,1} psi", Point(silent, 1), True,
            "in the fully silent run the loss is interval common knowledge "
            "at the first tick",
        ),
        Expectation(
            "Ceps[1]{0,1} psi", Point(all_delivered, 1), False,
            "successful delivery prevents it",
        ),
        Expectation(
            "Cv{0,1} psi", Point(all_delivered, 1), False,
            "eventual common knowledge of a loss likewise fails when "
            "nothing is lost",
        ),
    ]
    params = {"horizon": horizon, "silent": silent, "all_delivered": all_delivered}
    return ScenarioManifest("ok_protocol", params, model, tuple(expectations))


# ---------------------------------------------------------------------------
# Synchronous broadcast channel

def broadcast_channel(
    L: int,
    eps: int,
    n: int,
    horizon: int,
    t_send: int = 1,
    clocked: bool = False,
) -> ScenarioManifest:
    """One message broadcast to every agent, each copy arriving between L
    and L + eps ticks after the send; all arrival combinations are
    enumerated. ``psi_recv`` states that some copy has arrived."""
    if n < 2:
        raise ModelError("a broadcast needs at least two agents")
    if L < 0 or eps < 0:
        raise ModelError("the delay L and the spread eps are nonnegative")
    if eps > 0 and horizon < t_send + L + 2 * eps:
        raise ModelError("the horizon leaves no slack for the spread")
    send_tick = t_send - 1
    if send_tick < 0:
        raise ModelError("the nominal send time must be at least one")
    runs = []
    arrivals: dict[str, tuple[int, ...]] = {}
    for combo in itertools.product(range(L, L + eps + 1), repeat=n):
        rid = "d" + "".join(map(str, combo))
        evs = [(send_tick, 0, SEND, j, "m") for j in range(n)]
        for j, d in enumerate(combo):
            if send_tick + d <= horizon:
                evs.append((send_tick + d, j, RECEIVE, 0, "m"))
        runs.append(
            make_run(
                rid,
                horizon=horizon,
                wake_up=[0] * n,
                initial_state=[f"a{j}" for j in range(n)],
                events=evs,
                clock=(lambda a, t: t) if clocked else None,
            )
        )
        arrivals[rid] = tuple(send_tick + d for d in combo)
    system = make_system(n, horizon, runs)
    truth = {
        "sent_m": _points_where(system, lambda rid, t: t >= t_send),
        "psi_recv": _points_where(
            system, lambda rid, t: any(a < t for a in arrivals[rid])
        ),
    }
    model = Model(system, make_valuation(truth), ViewPolicy.complete_history())

    group = _group(range(n))
    latest = "d" + str(L + eps) * n
    expectations = [
        Expectation(
            f"psi_recv -> Eeps[{eps}]{group} psi_recv", None, True,
            "once a copy has arrived, every agent learns of the broadcast "
            "within the spread",
        ),
        Expectation(
            f"psi_recv -> Ceps[{eps}]{group} psi_recv", None, True,
            "so arrival becomes interval common knowledge immediately",
        ),
        Expectation(
            f"Ceps[{eps}]{group} sent_m",
            Point(latest, min(horizon, t_send + L + eps)), True,
            "the send is interval common knowledge once every copy is "
            "observable",
        ),
    ]
    if eps == 0:
        expectations.append(
            Expectation(
                f"Ceps[0]{group} sent_m", Point(latest, t_send + L), True,
                "zero spread degenerates to plain common knowledge",
            )
        )
    params = {
        "L": L,
        "eps": eps,
        "n": n,
        "horizon": horizon,
        "t_send": t_send,
        "clocked": clocked,
    }
    return ScenarioManifest("broadcast_channel", params, model, tuple(expectations))


# ---------------------------------------------------------------------------
# Timestamped knowledge demo

def timestamped_demo(delta: int, eps: int, horizon: int | None = None) -> ScenarioManifest:
    """A sender with a perfect clock messages a receiver whose clock may
    lag by up to ``delta`` ticks; delivery takes up to ``eps`` ticks. The
    message promises arrival by a clock reading T0 on both clocks, and
    the send is timestamped-commonly-known at T0 in every run."""
    if delta < 0 or eps < 0:
        raise ModelError("skew and delay bounds are nonnegative")
    t_S = delta + 1
    T0 = t_S + eps + delta
    if horizon is None:
        horizon = T0 + delta + 1
    if horizon < T0 + delta:
        raise ModelError("every clock must reach the timestamp in-window")
    send_tick = t_S - 1
    body = f"m@{t_S}"
    runs = []
    for skew, delay in itertools.product(range(delta + 1), range(eps + 1)):
        rid = f"s{skew}d{delay}"
        evs = [
            (send_tick, 0, SEND, 1, body),
            (send_tick + delay, 1, RECEIVE, 0, body),
        ]
        runs.append(
            make_run(
                rid,
                horizon=horizon,
                wake_up=[0, skew],
                initial_state=["R", "D"],
                events=evs,
                clock=lambda a, t, skew=skew: t if a == 0 else t - skew,
            )
        )
    system = make_system(2, horizon, runs)
    truth = {
        "sent_mp": _points_where(system, lambda rid, t: t >= t_S)
    }
    model = Model(system, make_valuation(truth), ViewPolicy.complete_history())

    expectations = [
        Expectation(
            f"Ct[{T0}]{{0,1}} sent_mp", None, True,
            "the promised reading gives timestamped common knowledge of "
            "the send in every run",
        ),
        Expectation(
            f"Ct[{T0}]{{0,1}} sent_mp -> Cv{{0,1}} sent_mp", None, True,
            "every clock reaches the timestamp, so the eventual variant "
            "follows",
        ),
    ]
    if delta == 0:
        expectations.append(
            Expectation(
                f"C{{0,1}} sent_mp", Point(f"s0d{eps}", T0), True,
                "with identical clocks the timestamped and plain variants "
                "agree at the stamped instant",
            )
        )
    else:
        expectations.append(
            Expectation(
                f"Ceps[{delta}]{{0,1}} sent_mp", Point(f"s{delta}d{eps}", T0), True,
                "with clocks within the skew bound, the interval variant "
                "holds at stamped instants",
            )
        )
    params = {"delta": delta, "eps": eps, "horizon": horizon, "T0": T0, "t_S": t_S}
    return ScenarioManifest("timestamped_demo", params, model, tuple(expectations))


SCENARIOS = {
    "muddy_children": muddy_children,
    "coordinated_attack": coordinated_attack,
    "r2d2": r2d2,
    "ok_protocol": ok_protocol_scenario,
    "broadcast_channel": broadcast_channel,
    "timestamped_demo": timestamped_demo,
}
