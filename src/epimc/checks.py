"""The structural checks for unreliable or imprecise communication:
NG1, NG1', NG2 and temporal imprecision, each over every run of a system.

The checks read a system's histories and nothing else, so ``epimc
check`` loads this module and ``runs`` but none of the run generators in
``protocols``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .runs import RECEIVE, ModelError, Run, System


class CheckReport(NamedTuple):
    name: str
    violations: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = f"{self.name}: {'pass' if self.ok else f'{len(self.violations)} violation(s)'}"
        lines = [head]
        lines += [f"  {v}" for v in self.violations]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


_WINDOW_NOTES = ("quantifiers range over times 0..horizon only",)


def _prefixes(system: System, trie: dict, start: int = 0) -> dict[str, tuple[list[int], ...]]:
    """Per run id and agent, the prefix entries of its history-id row from
    time ``start``: entry k names the histories at times start..start+k-1,
    and entry 0 is the root, the empty sequence. ``trie`` maps (parent
    entry, history id) to an entry, so within one agent two entries are
    equal exactly when their sequences are, also across tables that share
    the trie."""
    w, out = system.horizon + 1, {}
    for r, run in enumerate(system.runs_in_point_order):
        out[run.id] = rows = tuple([0] for _ in system.history_table)
        for row, table in zip(rows, system.history_table):
            for i in range(r * w + start, (r + 1) * w):
                row.append(trie.setdefault((row[-1], table.ids[i]), len(trie) + 1))
    return out


def _extensions(system: System) -> list[tuple[Run, tuple[list[int], ...], list[int]]]:
    """Each run with its prefix entries and, per time t, the id of its
    extension key at t. The runs extending it at t are exactly those with
    the same key: the same wake-ups, initial states and clocks, and every
    agent's prefix entry t + 1, that is its histories at times 0..t."""
    prefixes = _prefixes(system, {})
    ids: dict[tuple, int] = {}
    out = []
    for run in system.runs:
        start, mine = (run.wake_up, run.initial_state, run.clock), prefixes[run.id]
        keys = [(start, entries) for entries in itertools.islice(zip(*mine), 1, None)]
        out.append((run, mine, [ids.setdefault(key, len(ids)) for key in keys]))
    return out


def _first_receives(run: Run, agents: Iterable[int], horizon: int) -> list[int]:
    """For t = 0..horizon+1, the first tick from t to the horizon at which
    one of ``agents`` receives in ``run``; horizon + 1 if there is none."""
    ticks = {t for a in agents for t, ev in run.timeline[a] if ev.kind == RECEIVE}
    first = [horizon + 1] * (horizon + 2)
    for t in range(horizon, -1, -1):
        first[t] = t if t in ticks else first[t + 1]
    return first


def _silence(system: System) -> list[tuple[Run, list[int]]]:
    """Each run with, per time t, the latest first receive at or after t
    over the runs extending it at t: horizon + 1 when one of them
    receives nothing from t on."""
    exts = _extensions(system)
    latest: dict[int, int] = {}
    for run, _, keys in exts:
        first = _first_receives(run, system.agents, system.horizon)
        for t, key in enumerate(keys):
            latest[key] = max(latest.get(key, 0), first[t])
    return [(run, [latest[key] for key in keys]) for run, _, keys in exts]


def check_ng1(system: System) -> CheckReport:
    """For every point, some same-configuration, same-clock extension has
    no receives from that time on."""
    violations = [
        f"({run.id}@{t}): no silent extension with the same configuration and clocks"
        for run, silence in _silence(system)
        for t, first in enumerate(silence)
        if first <= system.horizon
    ]
    return CheckReport("ng1", tuple(violations), _WINDOW_NOTES)


def check_ng2(system: System) -> CheckReport:
    """For every silent interval of one agent, some extension keeps that
    agent's history while everyone else receives nothing in it."""
    if system.n_agents < 2:
        raise ModelError("the condition concerns systems of two or more agents")
    h = system.horizon
    exts = _extensions(system)

    def intervals():
        # per run, agent and interval (t_lo, t_hi) in which the agent
        # receives nothing: the key of the runs that extend the run at t_lo
        # and keep the agent's history through t_hi, and when anyone else
        # first receives from t_lo on. The key fixes the agent's receive
        # ticks before t_hi, so runs sharing it share the interval's quiet
        for run, prefixes, keys in exts:
            for agent in system.agents:
                own = _first_receives(run, (agent,), h)
                others = _first_receives(run, set(system.agents) - {agent}, h)
                for t_lo in range(h + 1):
                    for t_hi in range(t_lo + 1, min(own[t_lo + 1], h) + 1):
                        key = (agent, keys[t_lo], prefixes[agent][t_hi + 1])
                        yield run, agent, t_lo, t_hi, key, others[t_lo]

    latest: dict[tuple, int] = {}
    for _, _, _, _, key, first in intervals():
        latest[key] = max(latest.get(key, 0), first)
    violations = [
        f"run {run.id!r}, agent {agent}, interval ({t_lo},{t_hi}): no witness extension"
        for run, agent, t_lo, t_hi, key, _ in intervals()
        if latest[key] < t_hi
    ]
    return CheckReport("ng2", tuple(violations), _WINDOW_NOTES)


def check_ng1prime(system: System) -> CheckReport:
    """For every point and later time, some extension is silent on the
    whole closed interval between them."""
    violations = [
        f"({run.id}@{t}): no extension silent on [{t},{u}]"
        for run, silence in _silence(system)
        for t, first in enumerate(silence)
        for u in range(first, system.horizon + 1)
    ]
    return CheckReport("ng1prime", tuple(violations), _WINDOW_NOTES)


def check_temporal_imprecision(system: System, delta: int = 1) -> CheckReport:
    """No agent pair can pin down their relative timing: for each probed
    point and ordered agent pair, some run shows the first agent's history
    shifted by ``delta`` while the second agent's history is unchanged.

    Probes stop ``delta`` ticks before the horizon, where the shifted
    counterpart still fits wholly inside the window; later points would
    quantify over structure the window cannot contain.
    """
    if delta < 1:
        raise ModelError("delta must be at least one tick")
    if system.n_agents < 2:
        raise ModelError("the condition concerns systems of two or more agents")
    trie: dict = {}
    now, later = _prefixes(system, trie), _prefixes(system, trie, delta)
    pairs = [(i, j) for i in system.agents for j in system.agents if i != j]
    probes = range(system.horizon - delta + 1)
    # what some run shows at each probe t: agent i's histories at times
    # delta..delta+t-1 and agent j's at times 0..t-1
    shown = {
        (i, j, later[rid][i][t], now[rid][j][t]) for rid in now for t in probes for i, j in pairs
    }
    violations = [
        f"({run.id}@{t}): no run shifts agent {i} by {delta} while fixing agent {j}"
        for run in system.runs
        for t in probes
        for i, j in pairs
        if (i, j, now[run.id][i][t], now[run.id][j][t]) not in shown
    ]
    return CheckReport(
        "temporal_imprecision",
        tuple(violations),
        (
            f"probes truncated to times 0..horizon-{delta}; delta={delta}",
        ),
    )
