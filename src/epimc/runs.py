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

Points are numbered densely: ``System.runs_in_point_order`` lists the
runs by id, and point ``r*(horizon+1) + t`` is time ``t`` of the ``r``-th
of them, which is also its position in ``System.points``. A system
interns its agents' histories once, on first use, in
``System.history_table``: per agent, the history id at every dense point
and the list of distinct histories, so equal histories have equal ids and
are one object. The index, the structural checks and ``history_cover``
compare those ids. ``run_history`` is the definition the table is built
to agree with, and the one used for runs outside any system.

``Point`` and ``Event`` are named tuples, so hashing, equality and
ordering run in C. A consequence: a ``Point`` compares equal to the plain
tuple ``(run_id, time)``, and an ``Event`` to ``(kind, peer, message,
clock_stamp)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

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


def timeline_sort_key(entry: tuple[int, Event]) -> tuple:
    """Canonical event order: by tick, sends before receives, then endpoint."""
    t, ev = entry
    return (t, 0 if ev.kind == SEND else 1, ev.peer, ev.message)


_TICK_AND_EVENT = itemgetter(0, 4)


def canonical_timeline(entries: list[tuple]) -> tuple[tuple[int, Event], ...]:
    """A timeline from ``(tick, kind != SEND, peer, message, event)``
    entries: sorting them as plain tuples gives ``timeline_sort_key``'s
    order without calling Python code per comparison."""
    entries.sort()
    return tuple(map(_TICK_AND_EVENT, entries))


@dataclass(frozen=True)
class LocalHistory:
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


@dataclass(frozen=True)
class AgentHistories:
    """One agent's histories over a system, each distinct one stored once:
    ``ids[i]`` is the id of its history at dense point i and
    ``distinct[id]`` that history."""

    ids: tuple[int, ...]
    distinct: tuple[LocalHistory, ...]


@dataclass(frozen=True)
class Run:
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
) -> Run:
    """Build a Run from loose parts.

    ``events`` holds (time, agent, kind, peer, message) tuples in any
    order. Clock stamps are applied from ``clock``, which is either a
    per-agent sequence of readings covering wake-up..horizon or a
    function (agent, time) -> reading. Values are used as given: wake-up
    times, ticks, agents, peers and readings are ints, initial states
    and messages strings.
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

    per_agent: list[list[tuple]] = [[] for _ in range(n)]
    for time, agent, kind, peer, message in events:
        if not 0 <= agent < n:
            raise UnknownAgentError(f"run {run_id!r}: event names agent {agent}")
        stamp = None
        if clk is not None and time >= wake[agent]:
            stamp = clk[agent][time - wake[agent]]
        per_agent[agent].append(
            (time, kind != SEND, peer, message, Event(kind, peer, message, stamp))
        )
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
    """Agent's history table over ``runs``, at times 0..horizon of each.

    Each run's timeline is walked once, and histories are hash-consed: an
    event sequence is keyed on (id of its prefix, last event), a clock
    range likewise, and a history on (initial state, event-sequence id,
    clock-range id), so equal histories are found without comparing them
    element by element. A run whose (wake-up, initial state, timeline,
    clock) for the agent matches one already walked reuses that run's row
    of ids. The walk relies on the canonical timeline order that ``Run``
    documents.
    """
    seq_of: dict[tuple, int] = {}
    seqs: list[tuple] = [()]
    hid_of: dict[tuple | None, int] = {}
    distinct: list[LocalHistory] = []
    row_of: dict[tuple, list[int]] = {}
    ids: list[int] = []

    def extend(prefix: int, item: Event | int) -> int:
        key = (prefix, item)
        sid = seq_of.get(key)
        if sid is None:
            sid = seq_of[key] = len(seqs)
            seqs.append(seqs[prefix] + (item,))
        return sid

    for run in runs:
        wake = run.wake_up[agent]
        timeline = run.timeline[agent]
        readings = run.clock[agent] if run.clock is not None else None
        signature = (wake, run.initial_state[agent], timeline, readings)
        row = row_of.get(signature)
        if row is not None:
            ids += row
            continue
        row = row_of[signature] = []
        events = 0
        clock = None
        k = 0
        for t in range(horizon + 1):
            while k < len(timeline) and timeline[k][0] < t:
                events = extend(events, timeline[k][1])
                k += 1
            key = None
            if t >= wake:
                if readings is not None:
                    reading = readings[t - wake]
                    if t == wake:
                        clock = extend(0, reading)
                    elif reading != readings[t - wake - 1]:
                        clock = extend(clock, reading)
                key = (run.initial_state[agent], events, clock)
            hid = hid_of.get(key)
            if hid is None:
                hid = hid_of[key] = len(distinct)
                distinct.append(
                    EMPTY_HISTORY
                    if key is None
                    else LocalHistory(
                        key[0], seqs[events], None if clock is None else seqs[clock]
                    )
                )
            row.append(hid)
        ids += row
    return AgentHistories(tuple(ids), tuple(distinct))


@dataclass(frozen=True, eq=False)
class System:
    """A finite set of runs over shared agents and horizon."""

    n_agents: int
    horizon: int
    runs: tuple[Run, ...]

    def __post_init__(self) -> None:
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


def validate_system(system: System) -> list[str]:
    """Check structural invariants; one message per violation.

    Covers event-time bounds, receive/send matching, clock monotonicity,
    clock-stamp consistency, and canonical timeline ordering. Violations
    are reported as data rather than raised.
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
            if tuple(sorted(entries, key=timeline_sort_key)) != entries:
                problems.append(
                    f"run {run.id!r}: agent {agent} timeline not in canonical order"
                )
            for t, ev in entries:
                where = f"run {run.id!r}, agent {agent}, time {t}"
                if ev.kind not in EVENT_KINDS:
                    problems.append(f"{where}: unknown event kind {ev.kind!r}")
                    continue
                if not 0 <= t <= system.horizon:
                    problems.append(f"{where}: event time outside 0..{system.horizon}")
                if t < w:
                    problems.append(f"{where}: event before wake-up at {w}")
                if not 0 <= ev.peer < system.n_agents:
                    problems.append(f"{where}: peer {ev.peer} is not an agent")
                    continue
                if ev.kind == RECEIVE:
                    matched = any(
                        ts <= t
                        and sent.kind == SEND
                        and sent.peer == agent
                        and sent.message == ev.message
                        for ts, sent in run.timeline[ev.peer]
                    )
                    if not matched:
                        problems.append(
                            f"{where}: receive of {ev.message!r} has no matching "
                            f"send from agent {ev.peer}"
                        )
                if run.clock is not None and t >= w:
                    expected = run.clock[agent][t - w]
                    if ev.clock_stamp != expected:
                        problems.append(
                            f"{where}: clock stamp {ev.clock_stamp} disagrees with "
                            f"clock reading {expected}"
                        )
                if run.clock is None and ev.clock_stamp is not None:
                    problems.append(f"{where}: clock stamp on a clockless run")
            if run.clock is not None:
                readings = run.clock[agent]
                if len(readings) != system.horizon - w + 1:
                    problems.append(
                        f"run {run.id!r}: agent {agent} clock table length "
                        f"{len(readings)}, expected {system.horizon - w + 1}"
                    )
                if any(x > y for x, y in zip(readings, readings[1:])):
                    problems.append(
                        f"run {run.id!r}: agent {agent} clock is not monotone "
                        f"nondecreasing"
                    )
    return problems
