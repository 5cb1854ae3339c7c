"""View policies and the indistinguishability index over points.

A view policy maps local histories to views; two points are
indistinguishable to an agent when its views there are equal. The index
partitions the point set per agent by view and is the edge structure all
knowledge operators are evaluated against: group-labelled reachability in
this graph is what common knowledge quantifies over. Histories come from
the system's history table, ``System.history_table``.

Point ``i`` of the system's dense numbering (see ``runs``) is bit ``i`` of
a Python ``int``, so each run owns a contiguous slice of bits. Inside
this module and the evaluator every point set is such a bitmask;
``frozenset[Point]`` appears only at the public functions. Each view class
is one mask. The components for a group come from one union-find pass over
the class lists, made once per group and cached, so they cost time linear
in the number of points instead of a walk of a whole class per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_
from typing import Callable, Hashable, Iterable

from .runs import LocalHistory, ModelError, Point, System

AgentSet = tuple[int, ...]


class ViewPolicyError(ModelError):
    """A policy assigned different views to equal histories."""


def normalize_group(group: Iterable[int]) -> AgentSet:
    members = tuple(sorted(set(int(a) for a in group)))
    if not members:
        raise ModelError("agent group must be nonempty")
    return members


def mask_from_ids(ids: Iterable[int], n: int) -> int:
    """The bitmask with exactly the bits ``ids`` (each below ``n``) set."""
    buf = bytearray((n + 7) >> 3)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def ids_of(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


@dataclass(frozen=True)
class ViewPolicy:
    """How an agent's view is derived from its local history.

    ``complete`` keeps the whole history (finest distinctions),
    ``trivial`` maps everything to one view (coarsest), and
    ``projection`` applies a user function of the history.
    """

    kind: str
    name: str
    projection: Callable[[LocalHistory], Hashable] | None = field(
        default=None, compare=False
    )

    @staticmethod
    def complete_history() -> "ViewPolicy":
        return ViewPolicy("complete", "complete")

    @staticmethod
    def trivial() -> "ViewPolicy":
        return ViewPolicy("trivial", "trivial")

    @staticmethod
    def local_state(name: str, projection: Callable[[LocalHistory], Hashable]) -> "ViewPolicy":
        return ViewPolicy("projection", name, projection)

    def view_of(self, history: LocalHistory) -> Hashable:
        if self.kind == "complete":
            return history
        if self.kind == "trivial":
            return "*"
        assert self.projection is not None
        return self.projection(history)


def _last_event(h: LocalHistory):
    return (h.initial_state, h.events[-1] if h.events else None)


def _event_counts(h: LocalHistory):
    sends = sum(1 for e in h.events if e.kind == "send")
    return (h.initial_state, sends, len(h.events) - sends)


def _initial_only(h: LocalHistory):
    return (h.initial_state,)


#: Named history projections usable from system files.
VIEW_PROJECTIONS: dict[str, Callable[[LocalHistory], Hashable]] = {
    "last_event": _last_event,
    "event_counts": _event_counts,
    "initial_only": _initial_only,
}


def policy_from_name(name: str) -> ViewPolicy:
    if name == "complete":
        return ViewPolicy.complete_history()
    if name == "trivial":
        return ViewPolicy.trivial()
    if name in VIEW_PROJECTIONS:
        return ViewPolicy.local_state(name, VIEW_PROJECTIONS[name])
    raise ModelError(f"unknown view policy {name!r}")


@dataclass(frozen=True, eq=False)
class IndistIndex:
    """Per-agent partition of all points into view-equivalence classes.

    ``class_masks[a]`` holds agent a's classes as bitmasks, ordered by
    least member, so exports and iteration are reproducible;
    ``class_ids[a][i]`` is the position there of point i's class. Points
    are numbered by ``system``.
    """

    system: System
    class_masks: tuple[tuple[int, ...], ...]
    class_ids: tuple[tuple[int, ...], ...]

    @property
    def points(self) -> tuple[Point, ...]:
        return self.system.points

    @property
    def n_agents(self) -> int:
        return len(self.class_masks)

    @cached_property
    def full(self) -> int:
        return (1 << len(self.points)) - 1

    @cached_property
    def classes_by_agent(self) -> tuple[tuple[frozenset[Point], ...], ...]:
        return tuple(
            tuple(self.points_of(m) for m in masks) for masks in self.class_masks
        )

    @cached_property
    def _group_cache(self) -> dict[tuple[str, AgentSet], tuple[int, ...]]:
        return {}

    def point_id(self, point: Point) -> int:
        """The system's dense id of ``point``; a ModelError if it is not in
        the system."""
        return self.system.point_id(point)

    def mask_of(self, points: Iterable[Point]) -> int:
        """Mask of ``points``; points outside the index are ignored."""
        slots = self.system.run_slots
        width = self.system.horizon + 1
        return mask_from_ids(
            (
                slots[run_id] * width + t
                for run_id, t in points
                if run_id in slots and 0 <= t < width
            ),
            len(self.points),
        )

    def points_of(self, mask: int) -> frozenset[Point]:
        pts = self.points
        return frozenset(pts[i] for i in ids_of(mask))

    def class_of(self, agent: int, point: Point) -> frozenset[Point]:
        if not 0 <= agent < self.n_agents:
            raise ModelError(f"agent {agent} not in index")
        return self.classes_by_agent[agent][self.class_ids[agent][self.point_id(point)]]

    def _members(self, group: Iterable[int]) -> AgentSet:
        members = normalize_group(group)
        for agent in members:
            if not 0 <= agent < self.n_agents:
                raise ModelError(f"agent {agent} not in index")
        return members

    def component_masks(self, group: Iterable[int]) -> tuple[int, ...]:
        """Masks of the connected components of the subgraph with edges
        labelled by ``group``, ordered by least member.

        Union-find over the classes of the members: two classes are
        joined when some point lies in both. Each component is then the
        union of its first member's classes.
        """
        members = self._members(group)
        cached = self._group_cache.get(("C", members))
        if cached is not None:
            return cached
        offsets = [0]
        for agent in members:
            offsets.append(offsets[-1] + len(self.class_masks[agent]))
        parent = list(range(offsets[-1]))

        def find(node: int) -> int:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for key in set(zip(*(self.class_ids[a] for a in members))):
            root = find(key[0])
            for off, cls in zip(offsets[1:], key[1:]):
                other = find(off + cls)
                if other != root:
                    parent[other] = root
        by_root: dict[int, list[int]] = {}
        for cls, mask in enumerate(self.class_masks[members[0]]):
            by_root.setdefault(find(cls), []).append(mask)
        out = tuple(reduce(or_, masks) for masks in by_root.values())
        self._group_cache[("C", members)] = out
        return out

    def joint_class_masks(self, group: Iterable[int]) -> tuple[int, ...]:
        """Masks of the joint-view classes of ``group``: the nonempty
        intersections of one class per member."""
        members = self._members(group)
        cached = self._group_cache.get(("D", members))
        if cached is not None:
            return cached
        out = tuple(
            reduce(and_, (self.class_masks[a][c] for a, c in zip(members, key)))
            for key in set(zip(*(self.class_ids[a] for a in members)))
        )
        self._group_cache[("D", members)] = out
        return out

    def components(self, group: Iterable[int]) -> dict[Point, frozenset[Point]]:
        """Connected components of the subgraph with edges labelled by ``group``."""
        assignment: dict[Point, frozenset[Point]] = {}
        for mask in self.component_masks(group):
            component = self.points_of(mask)
            assignment.update(dict.fromkeys(component, component))
        return assignment

    def component_of(self, point: Point, group: Iterable[int]) -> int:
        """Mask of the ``group`` component containing ``point``."""
        bit = 1 << self.point_id(point)
        return next(m for m in self.component_masks(group) if m & bit)


def build_index(system: System, policy: ViewPolicy) -> IndistIndex:
    """Group every point by view, per agent.

    Histories come from the system's history table. ``policy.view_of``
    is still called at every point. Raises ViewPolicyError, naming two
    witnessing points, if the policy maps equal histories to different
    views; that can only happen for a misbehaving custom projection.
    """
    pts = system.points
    class_masks = []
    class_ids = []
    for agent, table in enumerate(system.history_table):
        # per history id: (its first view, the point it was first seen at, class)
        seen: list[tuple[Hashable, int, int] | None] = [None] * len(table.distinct)
        class_of_view: dict[Hashable, int] = {}
        members: list[list[int]] = []
        ids: list[int] = []
        for i, hid in enumerate(table.ids):
            view = policy.view_of(table.distinct[hid])
            entry = seen[hid]
            if entry is None:
                cls = class_of_view.get(view)
                if cls is None:
                    cls = class_of_view[view] = len(members)
                    members.append([])
                seen[hid] = (view, i, cls)
            else:
                first_view, first, cls = entry
                if view is not first_view and view != first_view:
                    raise ViewPolicyError(
                        f"policy {policy.name!r} gives different views to agent "
                        f"{agent} at {pts[first]} and {pts[i]}, whose histories "
                        f"are equal"
                    )
            members[cls].append(i)
            ids.append(cls)
        class_masks.append(tuple(mask_from_ids(m, len(pts)) for m in members))
        class_ids.append(tuple(ids))
    return IndistIndex(system, tuple(class_masks), tuple(class_ids))


def g_reachable(
    index: IndistIndex,
    frm: Point,
    to: Point,
    group: Iterable[int],
    max_steps: int | None = None,
) -> bool:
    """Is ``to`` reachable from ``frm`` along group-labelled edges?

    With ``max_steps`` set, only paths of at most that many edges count;
    zero steps reaches only the point itself.
    """
    members = normalize_group(group)
    try:
        target = index.point_id(to)
    except ModelError:
        target = None
    if max_steps is None:
        reached = index.component_of(frm, members)
        return target is not None and bool(reached >> target & 1)
    seen = 1 << index.point_id(frm)
    if target is None:
        return False
    classes = [index.class_masks[a] for a in index._members(members)]
    for _ in range(max_steps):
        if seen >> target & 1:
            return True
        nxt = seen
        for masks in classes:
            for cls in masks:
                if cls & seen:
                    nxt |= cls
        if nxt == seen:
            return False
        seen = nxt
    return bool(seen >> target & 1)


def reachable_set(index: IndistIndex, frm: Point, group: Iterable[int]) -> frozenset[Point]:
    """All points reachable from ``frm`` in finitely many group steps."""
    return index.points_of(index.component_of(frm, group))


def export_graph(index: IndistIndex, group: Iterable[int]) -> str:
    """Render the indistinguishability graph as deterministic DOT text.

    Nodes are all points ordered by (run id, time); one undirected edge
    per indistinguishable pair per agent of ``group``, labelled p<i>.
    An empty group yields nodes only; an agent outside the index is a
    ModelError.
    """
    members = tuple(sorted(set(int(a) for a in group)))
    for agent in members:
        if not 0 <= agent < index.n_agents:
            raise ModelError(
                f"agent {agent} out of range for a {index.n_agents}-agent system"
            )
    lines = ["graph indistinguishability {"]
    for pt in index.points:
        lines.append(f'  "{pt}";')
    for agent in members:
        for cls in index.classes_by_agent[agent]:
            ordered = sorted(cls)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    lines.append(f'  "{a}" -- "{b}" [label="p{agent}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
