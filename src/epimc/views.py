"""View policies and the indistinguishability index over points.

A view policy maps local histories to views; two points are
indistinguishable to an agent when its views there are equal. The index
partitions the point set per agent by view and is the edge structure all
knowledge operators are evaluated against: group-labelled reachability in
this graph is what common knowledge quantifies over. Histories come from
the system's history table, ``System.history_table``, and ``partition``
groups points by any key of the history, calling it once per distinct
history; the index is that partition by view.

Point sets are masks over the system's dense numbering (see ``runs``);
``frozenset[Point]`` appears only at the public functions. Each view class
is one mask, and ``class_ids`` names every point's class per agent.
``reach`` is the one neighbourhood search: the points within k
group-labelled edges of a mask, one layer of classes per step, or within
any number of edges, the union of the group's components that meet it.
The components for a group come from one union-find pass over the class
lists, made once per group and cached, so they cost time linear in the
number of points instead of a walk of a whole class per point.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .runs import AgentHistories, LocalHistory, ModelError, Point, System, ids_of, mask_from_ids

AgentSet = tuple[int, ...]


def normalize_group(group: Iterable[int]) -> AgentSet:
    members = tuple(sorted(set(int(a) for a in group)))
    if not members:
        raise ModelError("agent group must be nonempty")
    return members


class ViewPolicy(NamedTuple):
    """How an agent's view is derived from its local history.

    ``complete`` keeps the whole history (finest distinctions),
    ``trivial`` maps everything to one view (coarsest), and
    ``projection`` applies a user function of the history. Policies
    compare and hash by kind and name only, not by the function.
    """

    kind: str
    name: str
    projection: Callable[[LocalHistory], Hashable] | None = None

    def __eq__(self, other):
        return type(other) is type(self) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

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


class IndistIndex:
    """Per-agent partition of all points into view-equivalence classes.

    ``class_masks[a]`` holds agent a's classes as bitmasks, ordered by
    least member, so exports and iteration are reproducible;
    ``class_ids[a][i]`` is the position there of point i's class. Points
    are numbered by ``system``.
    """

    def __init__(
        self,
        system: System,
        class_masks: tuple[tuple[int, ...], ...],
        class_ids: tuple[tuple[int, ...], ...],
    ) -> None:
        self.system, self.class_masks, self.class_ids = system, class_masks, class_ids

    @cached_property
    def classes_by_agent(self) -> tuple[tuple[frozenset[Point], ...], ...]:
        return tuple(
            tuple(map(self.system.points_of, masks)) for masks in self.class_masks
        )

    @cached_property
    def _group_cache(self) -> dict[AgentSet, tuple[int, ...]]:
        return {}

    def _members(self, group: Iterable[int]) -> AgentSet:
        members = normalize_group(group)
        for agent in members:
            self.system.check_agent(agent)
        return members

    def component_masks(self, group: Iterable[int]) -> tuple[int, ...]:
        """Masks of the connected components of the subgraph with edges
        labelled by ``group``, ordered by least member.

        Union-find over the classes of the members: the first member's
        class at each point is joined with each other member's class
        there, taken once per distinct pair. Each component is then the
        union of its first member's classes.
        """
        members = self._members(group)
        cached = self._group_cache.get(members)
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

        first = self.class_ids[members[0]]
        for off, agent in zip(offsets[1:], members[1:]):
            for cls, other_cls in set(zip(first, self.class_ids[agent])):
                root, other = find(cls), find(off + other_cls)
                if other != root:
                    parent[other] = root
        by_root: dict[int, list[int]] = {}
        for cls, mask in enumerate(self.class_masks[members[0]]):
            by_root.setdefault(find(cls), []).append(mask)
        out = tuple(reduce(or_, masks) for masks in by_root.values())
        self._group_cache[members] = out
        return out

    def components(self, group: Iterable[int]) -> dict[Point, frozenset[Point]]:
        """Connected components of the subgraph with edges labelled by ``group``."""
        assignment: dict[Point, frozenset[Point]] = {}
        for mask in self.component_masks(group):
            component = self.system.points_of(mask)
            assignment.update(dict.fromkeys(component, component))
        return assignment


def partition(
    table: AgentHistories, key: Callable[[LocalHistory], Hashable]
) -> tuple[dict[Hashable, int], tuple[int, ...], tuple[int, ...]]:
    """The points grouped by ``key`` of an agent's history, with ``key``
    called once per entry of ``table.distinct``.

    Returns the class number of each key, the class id at each dense
    point, and the mask of each class. History ids are numbered in order
    of first appearance, so classes numbered in order of their first key
    are ordered by least member. When each distinct history is a class
    of its own, as under the complete policy, the class ids are the
    table's history ids, and that row itself is returned.
    """
    class_of: dict[Hashable, int] = {}
    of_history = [class_of.setdefault(key(h), len(class_of)) for h in table.distinct]
    if len(class_of) == len(of_history):
        ids = table.ids
    else:
        ids = tuple(map(of_history.__getitem__, table.ids))
    members: list[list[int]] = [[] for _ in class_of]
    for i, cls in enumerate(ids):
        members[cls].append(i)
    return class_of, ids, tuple(mask_from_ids(m, len(ids)) for m in members)


def build_index(system: System, policy: ViewPolicy) -> IndistIndex:
    """Group every point by view, per agent.

    Histories come from the system's history table, and ``policy.view_of``
    is called once per distinct history: equal histories are one entry
    there, so they get one view by construction.
    """
    parts = [partition(table, policy.view_of) for table in system.history_table]
    return IndistIndex(
        system, tuple(masks for _, _, masks in parts), tuple(ids for _, ids, _ in parts)
    )


def reach(index: IndistIndex, members: AgentSet, mask: int, steps: int | None = None) -> int:
    """The points joined to ``mask`` by at most ``steps`` edges labelled by
    ``members``; with ``steps=None``, by any number of them, which is the
    union of the group's components that meet ``mask``. The caller has
    checked the members: a nonempty group of the system's agents.

    Each step adds every member class that meets the points reached so
    far, and the search stops at the first step that adds nothing.
    """
    if steps is None:
        return reduce(or_, (c for c in index.component_masks(members) if c & mask), 0)
    classes = [index.class_masks[agent] for agent in members]
    for _ in range(steps):
        grown = _layer(classes, mask)
        if grown == mask:
            break
        mask = grown
    return mask


def _layer(classes: Iterable[Iterable[int]], mask: int) -> int:
    """``mask`` with every class that meets it; ``classes`` holds one
    sequence of class masks per member."""
    out = mask
    for masks in classes:
        for cls in masks:
            if cls & mask:
                out |= cls
    return out


def g_reachable(
    index: IndistIndex,
    frm: Point,
    to: Point,
    group: Iterable[int],
    max_steps: int | None = None,
) -> bool:
    """Is ``to`` reachable from ``frm`` along group-labelled edges?

    With ``max_steps`` set, only paths of at most that many edges count;
    zero steps reaches only the point itself. A ``to`` outside the system
    is reachable from nowhere.
    """
    start, members = 1 << index.system.point_id(frm), index._members(group)
    return bool(reach(index, members, start, max_steps) & index.system.mask_of((to,)))


def reachable_set(index: IndistIndex, frm: Point, group: Iterable[int]) -> frozenset[Point]:
    """All points reachable from ``frm`` in finitely many group steps."""
    start = 1 << index.system.point_id(frm)
    return index.system.points_of(reach(index, index._members(group), start))


def export_graph(index: IndistIndex, group: Iterable[int]) -> str:
    """Render the indistinguishability graph as deterministic DOT text.

    Nodes are all points in dense order, which is (run id, time); one
    undirected edge per indistinguishable pair per agent of ``group``,
    labelled p<i>, class by class and each pair in that order.
    An empty group yields nodes only; an agent outside the index is a
    ModelError.
    """
    return "".join(graph_chunks(index, group))


def graph_chunks(index: IndistIndex, group: Iterable[int]) -> Iterator[str]:
    """The text of ``export_graph(index, group)`` in whole lines, made as
    they are read: the node lines, then the edges from each point to the
    later points of its class. The group is checked by this call, before
    the first line is made."""
    members = tuple(sorted(set(int(a) for a in group)))
    for agent in members:
        index.system.check_agent(agent)
    return _dot_lines(index, members)


def _dot_lines(index: IndistIndex, members: AgentSet) -> Iterator[str]:
    labels = [f'"{pt}"' for pt in index.system.points]
    yield "graph indistinguishability {\n"
    yield "".join(f"  {label};\n" for label in labels)
    for agent in members:
        edge = f' [label="p{agent}"];\n'
        for cls in index.class_masks[agent]:
            ordered = [labels[i] for i in ids_of(cls)]
            for i, a in enumerate(ordered):
                yield "".join([f"  {a} -- {b}{edge}" for b in ordered[i + 1 :]])
    yield "}\n"
