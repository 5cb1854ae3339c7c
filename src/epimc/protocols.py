"""Run generation from deterministic protocols under delivery adversaries,
and the closure of a system under shifts of one agent's timing. The
structural checks over the runs live in ``checks``.

Generation is exhaustive: one run per initial configuration and admissible
delivery schedule, enumerated tick by tick. An agent's sends at a tick are
a function of its history strictly before that tick, so delivery choices
are the only branching. A guard refuses enumerations larger than a cap
rather than sampling, because the structural checks quantify over all runs.

Delivery delays are in ticks. A delay of zero means the message lands
within the tick it was sent and is observable from the next tick on,
which is the discrete rendering of delivery within one time unit.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence

from .runs import (
    Event,
    LocalHistory,
    ModelError,
    RECEIVE,
    Run,
    SEND,
    System,
    canonical_timeline,
    make_system,
    timeline_entry,
)

DROPPED = "dropped"
PENDING = "pending"  # forced delivery that falls beyond the horizon


class ScheduleExplosionError(ModelError):
    """The admissible schedule count exceeded the configured cap."""


class _Configuration(NamedTuple):
    wake_up: tuple[int, ...]
    initial_state: tuple[str, ...]


class InitialConfiguration(_Configuration):
    """Per-agent wake-up times and initial states, of equal lengths."""

    __slots__ = ()

    def __new__(cls, wake_up: tuple[int, ...], initial_state: tuple[str, ...]):
        if len(wake_up) != len(initial_state):
            raise ModelError("configuration field lengths differ")
        return super().__new__(cls, wake_up, initial_state)

    @classmethod
    def _make(cls, iterable) -> InitialConfiguration:  # so _replace checks too
        return cls(*iterable)


class JointProtocol(NamedTuple):
    """A deterministic send rule per agent.

    ``rule(agent, history)`` returns the (recipient, body) pairs the agent
    sends now. Histories exclude the current tick, so actions depend only
    on the past; with clocks, the current reading is the last entry of the
    history's clock range. Protocols compare and hash by name only.
    """

    name: str
    rule: Callable[[int, LocalHistory], Iterable[tuple[int, str]]]

    def __eq__(self, other):
        return type(other) is type(self) and self[:1] == other[:1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:1])

    def sends(self, agent: int, history: LocalHistory) -> tuple[tuple[int, str], ...]:
        return tuple(sorted({(int(r), str(b)) for r, b in self.rule(agent, history)}))


class DeliveryModel(NamedTuple):
    """Admissible delivery outcomes for each sent message.

    Variants:

    * ``not_guaranteed(delays)``: any listed delay, or silently dropped.
      ``drop_deadline`` optionally confines drops to messages sent at or
      before that tick, so late losses cannot fall outside the window in
      which the other party could still detect them.
    * ``unbounded()``: any delay of at least one tick.
    * ``bounded_uncertain(L, H)``: guaranteed delivery with an integer
      delay strictly inside (L, H).
    * ``synchronous_broadcast(L, spread)``: guaranteed delivery with a
      delay between L and L + spread inclusive.

    ``outcomes`` applies one rule to all four kinds.
    """

    kind: str
    delays: tuple[int, ...] = ()
    low: int = 0
    high: int = 0
    drop_deadline: int | None = None

    @staticmethod
    def not_guaranteed(
        delays: Sequence[int] = (1,), drop_deadline: int | None = None
    ) -> "DeliveryModel":
        ds = tuple(sorted(set(int(d) for d in delays)))
        if any(d < 0 for d in ds):
            raise ModelError("delays are nonnegative tick counts")
        return DeliveryModel("not_guaranteed", ds, drop_deadline=drop_deadline)

    @staticmethod
    def unbounded() -> "DeliveryModel":
        return DeliveryModel("unbounded")

    @staticmethod
    def bounded_uncertain(low: int, high: int) -> "DeliveryModel":
        if not low < high:
            raise ModelError("bounded_uncertain requires low < high")
        if high - low < 2:
            raise ModelError("open interval (low, high) contains no integer delay")
        return DeliveryModel("bounded_uncertain", low=low, high=high)

    @staticmethod
    def synchronous_broadcast(low: int, spread: int) -> "DeliveryModel":
        if low < 0 or spread < 0:
            raise ModelError("broadcast bounds are nonnegative")
        return DeliveryModel("synchronous_broadcast", low=low, high=low + spread)

    def delay_bounds(self) -> tuple[int, int | None]:
        """(min delay, max delay or None for unbounded); drops not included."""
        if self.kind == "not_guaranteed":
            if not self.delays:
                return (0, 0)
            return (self.delays[0], self.delays[-1])
        if self.kind == "unbounded":
            return (1, None)
        if self.kind == "bounded_uncertain":
            return (self.low + 1, self.high - 1)
        return (self.low, self.high)

    def outcomes(self, send_time: int, horizon: int) -> tuple[object, ...]:
        """The ticks ``send_time + d`` within the horizon, for each ``d``
        between ``delay_bounds`` that ``admits_delay`` accepts; then DROPPED
        if a ``not_guaranteed`` message is sent by its drop deadline or has
        none, else PENDING if an admissible delay lands past the horizon or
        none lands inside it."""
        lo, hi = self.delay_bounds()
        last = horizon - send_time if hi is None else min(hi, horizon - send_time)
        ticks = tuple(send_time + d for d in range(lo, last + 1) if self.admits_delay(d))
        if self.kind == "not_guaranteed" and (
            self.drop_deadline is None or send_time <= self.drop_deadline
        ):
            return ticks + (DROPPED,)
        if not ticks or hi is None or send_time + hi > horizon:
            return ticks + (PENDING,)
        return ticks

    def admits_delay(self, delay: int) -> bool:
        """A listed delay for ``not_guaranteed``; else one within
        ``delay_bounds``, with no upper limit when the bound is None."""
        if self.kind == "not_guaranteed":
            return delay in self.delays
        lo, hi = self.delay_bounds()
        return lo <= delay and (hi is None or delay <= hi)


class ScheduleEntry(NamedTuple):
    """One delivery decision: a sent message and its outcome for a recipient."""

    sender: int
    send_time: int
    recipient: int
    message: str
    outcome: object  # delivery tick, DROPPED, or PENDING


def _outcome_tag(entry: ScheduleEntry) -> str:
    if entry.outcome == DROPPED:
        mark = "!"
    elif entry.outcome == PENDING:
        mark = "~"
    else:
        mark = f"@{entry.outcome}"
    return f"{entry.message}>{entry.recipient}{mark}"


def enumerate_runs(
    protocol: JointProtocol,
    delivery: DeliveryModel,
    configs: Sequence[InitialConfiguration],
    horizon: int,
    *,
    global_clock: bool = False,
    max_schedules: int = 4096,
) -> tuple[tuple[Run, tuple[ScheduleEntry, ...]], ...]:
    """All runs of the protocol under the delivery model, with their
    schedules. Deterministic: configurations in the given order, delivery
    options in the model's order."""
    if not configs:
        raise ModelError("at least one initial configuration is required")
    n = len(configs[0].wake_up)
    for cfg in configs:
        if len(cfg.wake_up) != n:
            raise ModelError("configurations disagree on the agent count")
        if any(w > horizon for w in cfg.wake_up):
            raise ModelError("wake-up times must not exceed the horizon")

    results: list[tuple[Run, tuple[ScheduleEntry, ...]]] = []
    interned: dict = {}
    for ci, cfg in enumerate(configs):
        for run, schedule in _explore(
            cfg, n, protocol, delivery, horizon, global_clock, interned
        ):
            if len(results) == max_schedules:
                raise ScheduleExplosionError(
                    f"schedule enumeration yields more than {max_schedules} runs; "
                    f"shrink the horizon or raise max_schedules"
                )
            tags = ",".join(_outcome_tag(e) for e in schedule)
            results.append((run._replace(id=f"c{ci}" + (f":{tags}" if tags else "")), schedule))
    return tuple(results)


def _explore(cfg, n, protocol, delivery, horizon, global_clock, interned):
    """Each run of one configuration, with an empty id, and its schedule,
    depth first over an explicit stack. ``interned`` is a table of
    ``runs.timeline_entry``'s, as in ``runs.make_run``.

    A frame of the stack is a tick of the current branch: the tick, each
    agent's canonical timeline of the ticks before it and its history at
    the tick (``run_history`` there once it is awake), the schedule so
    far, per (agent, body) the number of ticks at which the agent has sent
    that body (a repeated body is numbered by it), and an iterator over
    the tick's branches. A history grows by each tick's events and, with
    clocks, its reading, and stays one object while neither adds
    anything; the sends are computed from it once per tick, and the
    ``Run`` is built at the horizon only. The branches are
    ``itertools.product`` over the delivery options of each message in
    send order, the first message varying slowest, and each is followed
    to the horizon before the next is taken. A frame leaves the stack when
    its branches are spent or it takes its only one, so the stack holds
    only ticks with a choice, and never all of a tick's branches at once.
    """
    clk = tuple(tuple(range(w, horizon + 1)) for w in cfg.wake_up) if global_clock else None
    # the root frame is tick -1, with no events and one branch; a clocked
    # history starts with the empty clock range, which is not None
    hists = tuple(LocalHistory(s, (), () if global_clock else None) for s in cfg.initial_state)
    stack = [(-1, ((),) * n, hists, (), {}, iter([()]), True)]
    while stack:
        t, timelines, hists, schedule, counts, branches, single = stack[-1]
        choice = next(branches, None)
        if single or choice is None:
            stack.pop()
        if choice is None:
            continue
        # the tick's sends, then what lands in it, same-tick deliveries included
        schedule += choice
        stamp = t if global_clock else None
        mine: list[list[tuple]] = [[] for _ in range(n)]
        for e in choice:
            entry = timeline_entry(interned, t, SEND, e.recipient, e.message, stamp)
            mine[e.sender].append(entry)
        for e in schedule:
            if e.outcome == t:
                entry = timeline_entry(interned, t, RECEIVE, e.sender, e.message, stamp)
                mine[e.recipient].append(entry)
        t += 1
        lines, grown = [], []
        for line, hist, m, wake in zip(timelines, hists, mine, cfg.wake_up):
            new = canonical_timeline(m) if m else ()
            clocked = global_clock and wake <= t
            if new or clocked:
                events = hist.events + tuple(ev for _, ev in new)
                rng = hist.clock_range + (t,) if clocked else hist.clock_range
                hist = LocalHistory(hist.initial_state, events, rng)
            lines.append(line + new)
            grown.append(hist)
        timelines, hists = tuple(lines), tuple(grown)
        if t > horizon:
            yield Run("", cfg.wake_up, cfg.initial_state, timelines, clk), schedule
            continue
        # sends are a function of history strictly before t, so nothing
        # landing at t itself can influence them
        counts, options = dict(counts), []
        for agent in range(n):
            if t < cfg.wake_up[agent]:
                continue
            sends = protocol.sends(agent, hists[agent])
            for body in {body for _, body in sends}:
                counts[agent, body] = counts.get((agent, body), 0) + 1
            for recipient, body in sends:
                if not 0 <= recipient < n:
                    raise ModelError(
                        f"protocol {protocol.name!r} sends to unknown agent "
                        f"{recipient}"
                    )
                ordinal = counts[agent, body]
                token = body if ordinal == 1 else f"{body}#{ordinal}"
                # a sleeping recipient observes the message at its wake-up;
                # outcomes that collapse to the same effective tick are one branch
                wake = cfg.wake_up[recipient]
                seen = dict.fromkeys(
                    max(o, wake) if isinstance(o, int) else o
                    for o in delivery.outcomes(t, horizon)
                )
                options.append([ScheduleEntry(agent, t, recipient, token, o) for o in seen])
        single = max(map(len, options), default=1) == 1
        stack.append((t, timelines, hists, schedule, counts, itertools.product(*options), single))


def generate_runs(
    protocol: JointProtocol,
    delivery: DeliveryModel,
    configs: Sequence[InitialConfiguration],
    horizon: int,
    *,
    global_clock: bool = False,
    max_schedules: int = 4096,
) -> System:
    """The system of all runs of the protocol under the delivery model."""
    if not configs or len(configs[0].wake_up) < 1:
        raise ModelError("at least one agent is required")
    pairs = enumerate_runs(
        protocol,
        delivery,
        configs,
        horizon,
        global_clock=global_clock,
        max_schedules=max_schedules,
    )
    n = len(configs[0].wake_up)
    return make_system(n, horizon, [run for run, _ in pairs])


# ---------------------------------------------------------------------------
# Built-in protocols

def silent_protocol() -> JointProtocol:
    return JointProtocol("silent", lambda agent, hist: ())


def handshake(k_legs: int, initiate_state: str = "favor") -> JointProtocol:
    """Two agents exchange numbered legs; agent 0 initiates leg 1 when its
    initial state equals ``initiate_state``, and each later leg is sent
    once the previous one has been received."""
    if k_legs < 1:
        raise ModelError("handshake needs at least one leg")

    def rule(agent: int, hist: LocalHistory):
        if not hist.awake:
            return ()
        sent = {e.message for e in hist.events if e.kind == SEND}
        got = {e.message for e in hist.events if e.kind == RECEIVE}
        peer = 1 - agent
        out = []
        if agent == 0 and hist.initial_state == initiate_state and "hs1" not in sent:
            out.append((peer, "hs1"))
        for leg in range(2, k_legs + 1):
            mine = agent == 0 if leg % 2 == 1 else agent == 1
            if mine and f"hs{leg - 1}" in got and f"hs{leg}" not in sent:
                out.append((peer, f"hs{leg}"))
        return out

    return JointProtocol(f"handshake({k_legs})", rule)


def ok_protocol(stop_time: int) -> JointProtocol:
    """Both agents confirm liveness every tick while confirmations keep
    arriving: send at clock time 0, and at clock time k > 0 exactly when
    k confirmations have been received so far. Requires a shared clock.
    Sending stops after ``stop_time`` so late losses stay detectable
    within the horizon."""

    def rule(agent: int, hist: LocalHistory):
        if not hist.awake or hist.clock_range is None:
            return ()
        now = hist.clock_range[-1]
        if now > stop_time:
            return ()
        got = sum(1 for e in hist.events if e.kind == RECEIVE)
        if now == 0 or got >= now:
            return ((1 - agent, "OK"),)
        return ()

    return JointProtocol(f"ok_protocol(stop={stop_time})", rule)


def ping_once(body: str = "m") -> JointProtocol:
    """Agent 0 sends one message to agent 1 at its wake-up tick."""

    def rule(agent: int, hist: LocalHistory):
        if agent != 0 or not hist.awake:
            return ()
        if any(e.kind == SEND for e in hist.events):
            return ()
        return ((1, body),)

    return JointProtocol("ping_once", rule)


def shift_run(
    run: Run,
    agent: int,
    delta: int,
    *,
    horizon: int,
    delivery: DeliveryModel | None = None,
) -> Run:
    """Delay one agent by ``delta`` ticks: wake-up, clock readings, and all
    of its events move later; everyone else is untouched. Messages to the
    agent thus take longer and messages from it are delivered faster.

    Raises when a moved event leaves [0, horizon] or, given a delivery
    model, when an implied delay leaves the model's bounds.
    """
    if delta < 0:
        raise ModelError("shifts are forward in time")
    if delta == 0:
        return run
    n = run.n_agents
    if not 0 <= agent < n:
        raise ModelError(f"agent {agent} not in run {run.id!r}")
    new_wake = list(run.wake_up)
    new_wake[agent] += delta
    if new_wake[agent] > horizon:
        raise ModelError(f"shift pushes agent {agent} wake-up past the horizon")

    send_times: dict[tuple[int, int, str], list[int]] = {}
    for a in range(n):
        for tt, ev in run.timeline[a]:
            if ev.kind == SEND:
                send_times.setdefault((a, ev.peer, ev.message), []).append(tt)

    new_timeline: list[tuple[tuple[int, Event], ...]] = []
    for a in range(n):
        if a != agent:
            new_timeline.append(run.timeline[a])
            continue
        interned = {ev: ev for _, ev in run.timeline[a]}  # keeps the run's events
        moved = []
        for tt, ev in run.timeline[a]:
            nt = tt + delta
            if nt > horizon:
                raise ModelError(
                    f"shift moves {ev.kind} of {ev.message!r} to {nt}, past the "
                    f"horizon"
                )
            moved.append(timeline_entry(interned, nt, *ev))
        new_timeline.append(canonical_timeline(moved))

    if delivery is not None:
        for a in range(n):
            lag = delta if a == agent else 0
            for tt, ev in new_timeline[a]:
                if ev.kind != RECEIVE:
                    continue
                times = send_times.get((ev.peer, a, ev.message), ())
                # the latest send at or before the receive's unshifted tick
                sent = max((s for s in times if s <= tt - lag), default=None)
                if sent is None:
                    raise ModelError(
                        f"receive of {ev.message!r} by agent {a} has no matching send"
                    )
                delay = tt - sent - (delta if ev.peer == agent else 0)
                if not delivery.admits_delay(delay):
                    raise ModelError(
                        f"shift gives message {ev.message!r} delay {delay}, "
                        f"outside the delivery bounds"
                    )

    new_clock = None
    if run.clock is not None:
        rows = []
        for a in range(n):
            if a != agent:
                rows.append(run.clock[a])
            else:
                readings = run.clock[a]
                trimmed = readings[: horizon - new_wake[agent] + 1]
                rows.append(trimmed)
        new_clock = tuple(rows)

    return Run(
        f"{run.id}+p{agent}d{delta}",
        tuple(new_wake),
        run.initial_state,
        tuple(new_timeline),
        new_clock,
    )


def close_under_shifts(
    system: System,
    delta: int = 1,
    *,
    delivery: DeliveryModel | None = None,
    max_runs: int = 4096,
) -> System:
    """Add every legal single-agent shift image, repeatedly, until no new
    run content appears."""
    runs = list(system.runs)
    seen = {r.content_key() for r in runs}
    frontier = list(system.runs)
    while frontier:
        nxt = []
        for run in frontier:
            for agent in range(system.n_agents):
                try:
                    image = shift_run(
                        run, agent, delta, horizon=system.horizon, delivery=delivery
                    )
                except ModelError:
                    continue
                key = image.content_key()
                if key in seen:
                    continue
                seen.add(key)
                runs.append(image)
                nxt.append(image)
                if len(runs) > max_runs:
                    raise ScheduleExplosionError(
                        f"shift closure exceeds {max_runs} runs"
                    )
        frontier = nxt
    return make_system(system.n_agents, system.horizon, runs)
