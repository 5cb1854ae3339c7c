"""Finite run-based models of distributed executions.

A run records, per agent, a wake-up time, an initial state, a timeline of
send/receive events, and optionally a clock. A system is a finite set of
runs over a common agent set and a common time horizon; the pairs
(run, time) are its points.

Local histories are order-only: an agent observes its initial state and
the sequence of messages it sent and received, in order, but not the real
times at which they happened. When the run has clocks, events carry the
local clock reading at which they occurred and the history additionally
records the range of clock values read so far. Real event times stay out
of histories on purpose; shifting one agent's timeline must be invisible
to everyone else.

``timeline_entry`` and ``canonical_timeline`` are the one definition of
a timeline entry's layout and of the canonical event order: every
timeline, decoded, explored, shifted or built, is made through them.

Points are numbered densely: ``System.runs_in_point_order`` lists the
runs by id, and point ``r*(horizon+1) + t`` is time ``t`` of the ``r``-th
of them, which is also its position in ``System.points``. A point set is
a Python ``int`` whose bit ``i`` is point ``i``, so each run owns a
contiguous slice of bits; ``System.mask_of`` and ``System.points_of``
convert between such masks and sets of ``Point``. A system
interns its agents' histories once, on first use, in
``System.history_table``: per agent, ``run_history`` at every dense
point, interned by value into an id at each point and the list of
distinct histories, so equal histories have equal ids and are one
object. The index, the structural checks and ``history_cover`` compare
those ids.

``Point``, ``Event``, ``LocalHistory``, ``AgentHistories`` and ``Run``
are named tuples, so hashing, equality and ordering run in C, and
``_replace`` copies one with some fields changed. A consequence: each
compares equal to the plain tuple of its fields, so a ``Point`` equals
``(run_id, time)``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

SEND = "send"
RECEIVE = "receive"

EVENT_KINDS = (SEND, RECEIVE)


class ModelError(Exception):
    """Malformed model data or a failed lookup."""


class UnknownRunError(ModelError):
    pass


class UnknownAgentError(ModelError):
    pass


class AgentSetMismatchError(ModelError):
    pass


class Point(NamedTuple):
    """A (run, time) pair; the possible worlds of the semantics."""

    run_id: str
    time: int

    def __str__(self) -> str:
        return f"{self.run_id}@{self.time}"


class Event(NamedTuple):
    """One observed message transfer from an agent's standpoint.

    ``peer`` is the other endpoint: the recipient for a send, the sender
    for a receive. ``clock_stamp`` is the local clock reading at the
    event time and is present exactly when the run has clocks.
    """

    kind: str
    peer: int
    message: str
    clock_stamp: int | None = None


_PAIR = itemgetter(4)


def canonical_timeline(entries: list[tuple]) -> tuple[tuple[int, Event], ...]:
    """A timeline from ``(tick, kind != SEND, peer, message, (tick,
    event))`` entries, sorted as plain tuples: the canonical event order
    is by tick, sends before receives, then peer, then message. The
    timeline holds each entry's own (tick, event) pair."""
    entries.sort()
    return tuple(map(_PAIR, entries))


def timeline_entry(
    interned: dict, t: int, kind: str, peer: int, message: str, stamp: int | None
) -> tuple:
    """The entry of an event that ``canonical_timeline`` takes, whose
    ``Event`` and (tick, event) pair are those in ``interned`` if it
    holds equal ones; new ones are added. So the runs decoded or built
    with one table share each event and each (tick, event) pair, and the
    table holds nothing else."""
    event = interned.get((kind, peer, message, stamp))
    if event is None:
        event = Event(kind, peer, message, stamp)
        interned[event] = event
    pair = (t, event)
    return (t, kind != SEND, peer, message, interned.setdefault(pair, pair))


class LocalHistory(NamedTuple):
    """What one agent has observed so far.

    ``initial_state`` is None before the agent wakes up; such histories
    are empty and compare equal regardless of the run. ``clock_range`` is
    the ordered tuple of distinct clock values read so far, or None in
    clockless runs.
    """

    initial_state: str | None
    events: tuple[Event, ...] = ()
    clock_range: tuple[int, ...] | None = None

    @property
    def awake(self) -> bool:
        return self.initial_state is not None

    def is_prefix_of(self, other: "LocalHistory") -> bool:
        if not self.awake:
            return True
        if self.initial_state != other.initial_state:
            return False
        if self.events != other.events[: len(self.events)]:
            return False
        if self.clock_range is None:
            return other.clock_range is None
        if other.clock_range is None:
            return False
        return self.clock_range == other.clock_range[: len(self.clock_range)]


EMPTY_HISTORY = LocalHistory(None)


def mask_from_ids(ids: Iterable[int], n: int) -> int:
    """The bitmask with exactly the bits ``ids`` (each below ``n``) set."""
    buf = bytearray((n + 7) >> 3)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def ids_of(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class AgentHistories(NamedTuple):
    """One agent's histories over a system, each distinct one stored once:
    ``ids[i]`` is the id of its history at dense point i and
    ``distinct[id]`` that history."""

    ids: tuple[int, ...]
    distinct: tuple[LocalHistory, ...]


class Run(NamedTuple):
    """A complete execution up to the system horizon.

    ``timeline[a]`` is agent a's canonically ordered tuple of
    (tick, event) pairs. ``clock[a]``, when present, lists agent a's
    clock readings for every tick from its wake-up to the horizon.
    """

    id: str
    wake_up: tuple[int, ...]
    initial_state: tuple[str, ...]
    timeline: tuple[tuple[tuple[int, Event], ...], ...]
    clock: tuple[tuple[int, ...], ...] | None = None

    @property
    def n_agents(self) -> int:
        return len(self.wake_up)

    def clock_at(self, agent: int, time: int) -> int:
        """Clock reading of ``agent`` at ``time``; undefined before wake-up."""
        if self.clock is None:
            raise ModelError(f"run {self.id!r} has no clocks")
        w = self.wake_up[agent]
        if time < w:
            raise ModelError(
                f"clock of agent {agent} undefined before wake-up in run {self.id!r}"
            )
        return self.clock[agent][time - w]

    def content_key(self) -> tuple:
        """Identity-free comparison key (everything except the id)."""
        return (self.wake_up, self.initial_state, self.timeline, self.clock)


def make_run(
    run_id: str,
    *,
    horizon: int,
    wake_up: Sequence[int],
    initial_state: Sequence[str],
    events: Iterable[tuple[int, int, str, int, str]] = (),
    clock: Sequence[Sequence[int]] | Callable[[int, int], int] | None = None,
    interned: dict | None = None,
) -> Run:
    """Build a Run from loose parts.

    ``events`` holds (time, agent, kind, peer, message) tuples in any
    order. Clock stamps are applied from ``clock``, which is either a
    per-agent sequence of readings covering wake-up..horizon or a
    function (agent, time) -> reading. Values are used as given: wake-up
    times, ticks, agents, peers and readings are ints, initial states
    and messages strings.

    ``interned`` is a table of ``timeline_entry``'s: equal events, and
    equal (tick, event) pairs, of the runs built with one table are one
    object.
    """
    n = len(wake_up)
    wake = tuple(wake_up)
    init = tuple(initial_state)
    if len(init) != n:
        raise ModelError(f"run {run_id!r}: wake_up and initial_state lengths differ")

    clk: tuple[tuple[int, ...], ...] | None
    if clock is None:
        clk = None
    elif callable(clock):
        clk = tuple(
            tuple(clock(a, t) for t in range(wake[a], horizon + 1)) for a in range(n)
        )
    else:
        clk = tuple(map(tuple, clock))
        for a in range(n):
            expected = horizon - wake[a] + 1
            if len(clk[a]) != expected:
                raise ModelError(
                    f"run {run_id!r}: agent {a} clock table has {len(clk[a])} "
                    f"entries, expected {expected}"
                )

    if interned is None:
        interned = {}
    per_agent: list[list[tuple]] = [[] for _ in range(n)]
    for time, agent, kind, peer, message in events:
        if not 0 <= agent < n:
            raise UnknownAgentError(f"run {run_id!r}: event names agent {agent}")
        stamp = None
        if clk is not None and time >= wake[agent]:
            stamp = clk[agent][time - wake[agent]]
        per_agent[agent].append(timeline_entry(interned, time, kind, peer, message, stamp))
    return Run(run_id, wake, init, tuple(map(canonical_timeline, per_agent)), clk)


def run_history(run: Run, agent: int, time: int) -> LocalHistory:
    """Agent's history at ``time``: everything strictly before it.

    Events at ``time`` itself are excluded; the clock range includes the
    reading at ``time``.
    """
    w = run.wake_up[agent]
    if time < w:
        return EMPTY_HISTORY
    evs = tuple(ev for t, ev in run.timeline[agent] if t < time)
    rng = None
    if run.clock is not None:
        seen = run.clock[agent][: time - w + 1]
        rng = tuple(v for v, _ in groupby(seen))
    return LocalHistory(run.initial_state[agent], evs, rng)


def _intern_histories(runs: Sequence[Run], horizon: int, agent: int) -> AgentHistories:
    """Agent's history table over ``runs``: ``run_history`` at times
    0..horizon of each, interned by value, so ids number the distinct
    histories in order of first appearance. A run whose (wake-up, initial
    state, timeline, clock) for the agent matches one already read reuses
    that run's row of ids.
    """
    hid_of: dict[LocalHistory, int] = {}
    row_of: dict[tuple, list[int]] = {}
    ids: list[int] = []
    for run in runs:
        readings = run.clock[agent] if run.clock is not None else None
        signature = (
            run.wake_up[agent], run.initial_state[agent], run.timeline[agent], readings
        )
        row = row_of.get(signature)
        if row is None:
            row = row_of[signature] = [
                hid_of.setdefault(run_history(run, agent, t), len(hid_of))
                for t in range(horizon + 1)
            ]
        ids += row
    return AgentHistories(tuple(ids), tuple(hid_of))


class System:
    """A finite set of runs over shared agents and horizon."""

    def __init__(self, n_agents: int, horizon: int, runs: tuple[Run, ...]) -> None:
        self.n_agents, self.horizon, self.runs = n_agents, horizon, runs
        seen: set[str] = set()
        for r in self.runs:
            if r.n_agents != self.n_agents:
                raise AgentSetMismatchError(
                    f"run {r.id!r} has {r.n_agents} agents, system has {self.n_agents}"
                )
            if r.id in seen:
                raise ModelError(f"duplicate run id {r.id!r}")
            seen.add(r.id)

    @cached_property
    def _by_id(self) -> dict[str, Run]:
        return {r.id: r for r in self.runs}

    @cached_property
    def runs_in_point_order(self) -> tuple[Run, ...]:
        """The runs by id: the order of their slices in the dense numbering."""
        return tuple(self._by_id[rid] for rid in sorted(self._by_id))

    @cached_property
    def run_slots(self) -> dict[str, int]:
        """Run id -> its position in ``runs_in_point_order``; time ``t`` of
        the run in slot ``r`` is point ``r * (horizon + 1) + t``."""
        return {run.id: r for r, run in enumerate(self.runs_in_point_order)}

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(
            Point(run.id, t)
            for run in self.runs_in_point_order
            for t in range(self.horizon + 1)
        )

    @cached_property
    def full(self) -> int:
        """The mask of every point."""
        return (1 << (len(self.runs) * (self.horizon + 1))) - 1

    def mask_of(self, points: Iterable[Point]) -> int:
        """Mask of ``points``; points outside the system are ignored."""
        slots, width = self.run_slots, self.horizon + 1
        ids = (slots[r] * width + t for r, t in points if r in slots and 0 <= t < width)
        return mask_from_ids(ids, len(self.runs) * width)

    def points_of(self, mask: int) -> frozenset[Point]:
        """The points of ``mask``."""
        pts = self.points
        return frozenset(pts[i] for i in ids_of(mask))

    @cached_property
    def history_table(self) -> tuple[AgentHistories, ...]:
        """Every agent's history table, built on first use."""
        return tuple(
            _intern_histories(self.runs_in_point_order, self.horizon, agent)
            for agent in self.agents
        )

    @cached_property
    def has_clocks(self) -> bool:
        return bool(self.runs) and all(r.clock is not None for r in self.runs)

    @property
    def agents(self) -> range:
        return range(self.n_agents)

    def run(self, run_id: str) -> Run:
        try:
            return self._by_id[run_id]
        except KeyError:
            raise UnknownRunError(f"no run named {run_id!r}") from None

    def check_agent(self, agent: int) -> None:
        if not 0 <= agent < self.n_agents:
            raise UnknownAgentError(
                f"agent {agent} out of range for a {self.n_agents}-agent system"
            )

    def point_id(self, point: Point) -> int:
        """Position of ``point`` in the dense numbering; a ModelError (an
        UnknownRunError when its run is unknown) if it is not in the system."""
        slot = self.run_slots.get(point.run_id)
        if slot is None:
            raise UnknownRunError(f"point {point} is not in the system")
        if not 0 <= point.time <= self.horizon:
            raise ModelError(f"point {point} is not in the system")
        return slot * (self.horizon + 1) + point.time

    def history(self, agent: int, point: Point) -> LocalHistory:
        """History of ``agent`` at ``point``; empty before its wake-up."""
        self.check_agent(agent)
        table = self.history_table[agent]
        return table.distinct[table.ids[self.point_id(point)]]


def make_system(n_agents: int, horizon: int, runs: Iterable[Run]) -> System:
    return System(n_agents, horizon, tuple(runs))


def extends(system: System, candidate: Run, point: Point) -> bool:
    """True iff ``candidate`` matches the point's run through its time.

    Histories of every agent must agree at every time up to and
    including ``point.time``. The relation is symmetric in the two runs.
    """
    base = system.run(point.run_id)
    if candidate.n_agents != base.n_agents:
        raise AgentSetMismatchError("candidate run has a different agent set")
    for agent in range(base.n_agents):
        for t in range(point.time + 1):
            if run_history(candidate, agent, t) != run_history(base, agent, t):
                return False
    return True


def history_cover(full: System, sub: System) -> bool:
    """True iff every local history arising in ``full`` also arises in ``sub``.

    The quantifier matches agents: agent a's histories in ``full`` must
    all occur as agent a's histories at some point of ``sub``. This is
    the checkable half of internal knowledge consistency.
    """
    if full.n_agents != sub.n_agents:
        raise AgentSetMismatchError(
            f"systems have {full.n_agents} and {sub.n_agents} agents"
        )
    return all(
        set(mine.distinct) <= set(theirs.distinct)
        for mine, theirs in zip(full.history_table, sub.history_table)
    )


def inconsistencies(run: Run, n_agents: int) -> Iterator[tuple[int, int, str, str]]:
    """Where ``run`` breaks a rule that no single field shows: an event
    before its agent's wake-up, a peer that is not an agent, a receive
    with no send of its message from its peer at the same tick or earlier,
    or a clock reading below the one before it.

    Yields ``(agent, position, field, problem)``: ``field`` is "event" or
    "peer" with ``position`` an index in ``run.timeline[agent]``, or
    "clock" with an index in ``run.clock[agent]``. Linear: a first pass
    takes the earliest tick of every (sender, recipient, message) send.
    """
    first_sent: dict[tuple[int, int, str], int] = {}
    for agent, line in enumerate(run.timeline):
        for t, (kind, peer, message, _) in line:
            if kind == SEND and first_sent.get(key := (agent, peer, message), t + 1) > t:
                first_sent[key] = t
    for agent, line in enumerate(run.timeline):
        wake = run.wake_up[agent]
        for i, (t, (kind, peer, message, _)) in enumerate(line):
            if t < wake:
                yield agent, i, "event", f"event before wake-up at {wake}"
            if not 0 <= peer < n_agents:
                yield agent, i, "peer", f"peer {peer} is not an agent"
            elif kind == RECEIVE and first_sent.get((peer, agent, message), t + 1) > t:
                yield agent, i, "event", (
                    f"receive of {message!r} has no matching send from agent {peer}"
                )
    for agent, readings in enumerate(run.clock or ()):
        for k in range(1, len(readings)):
            if readings[k] < readings[k - 1]:
                yield agent, k, "clock", (
                    f"clock is not monotone nondecreasing ({readings[k]} after "
                    f"{readings[k - 1]})"
                )
                break


def validate_system(system: System) -> list[str]:
    """Check structural invariants; one message per violation.

    Covers wake-up and event-time bounds, event kinds, clock-stamp
    consistency, canonical timeline ordering, clock table lengths and
    every rule of ``inconsistencies``. Violations are reported as data
    rather than raised.
    """
    problems: list[str] = []
    for run in system.runs:
        for agent in system.agents:
            w = run.wake_up[agent]
            if w > system.horizon:
                problems.append(
                    f"run {run.id!r}: agent {agent} wakes at {w}, after horizon "
                    f"{system.horizon}"
                )
            entries = run.timeline[agent]
            order = [(t, ev.kind != SEND, ev.peer, ev.message) for t, ev in entries]
            if order != sorted(order):
                problems.append(
                    f"run {run.id!r}: agent {agent} timeline not in canonical order"
                )
            for t, ev in entries:
                where = f"run {run.id!r}, agent {agent}, time {t}"
                if ev.kind not in EVENT_KINDS:
                    problems.append(f"{where}: unknown event kind {ev.kind!r}")
                if not 0 <= t <= system.horizon:
                    problems.append(f"{where}: event time outside 0..{system.horizon}")
                if run.clock is not None and w <= t < w + len(run.clock[agent]):
                    expected = run.clock[agent][t - w]
                    if ev.clock_stamp != expected:
                        problems.append(
                            f"{where}: clock stamp {ev.clock_stamp} disagrees with "
                            f"clock reading {expected}"
                        )
                if run.clock is None and ev.clock_stamp is not None:
                    problems.append(f"{where}: clock stamp on a clockless run")
            if run.clock is not None and len(run.clock[agent]) != system.horizon - w + 1:
                problems.append(
                    f"run {run.id!r}: agent {agent} clock table length "
                    f"{len(run.clock[agent])}, expected {system.horizon - w + 1}"
                )
        for agent, i, field, problem in inconsistencies(run, system.n_agents):
            if field == "clock":
                problems.append(f"run {run.id!r}: agent {agent} {problem}")
            else:
                t = run.timeline[agent][i][0]
                problems.append(f"run {run.id!r}, agent {agent}, time {t}: {problem}")
    return problems
