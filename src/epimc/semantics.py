"""Set-based formula evaluation over a system, valuation, and view policy.

Every formula denotes a set of points. Inside this module a point set is
an ``int`` bitmask over the system's dense point numbering (bit i is
``System.points[i]``, and each run is a contiguous slice of horizon + 1
bits); the public functions take and return ``frozenset[Point]``, except
``truth_mask``, which hands the mask itself to callers that test many
points against one formula. A valuation is one such mask per
proposition, made when the ``Model`` is built, so a formula with no modal
operator never builds the view index.
K, E, E^k and C are one operator read at different distances: each holds
where no point outside the argument lies within 1, 1, k or any number of
group-labelled steps (K's group is its one agent), and ``views.reach``
finds those points from the complement of the argument, one layer of
view classes per step, or, for C, as the union of the group's cached
components that meet it. Distributed knowledge names a point's joint
class by its tuple of member class ids, and holds where no point outside
the argument has the same tuple. The interval, eventual and
clock-indexed variants shift whole-system masks: a shift by d ticks
moves every run's slice at once, and a per-tick validity mask drops the
bits that crossed into a neighbouring run.
Every node class has one entry in the table ``_OPS``, which makes a
node's mask from its children's, and ``_validate_formula`` refuses a
class with no entry before evaluating anything. Greatest fixed points
(``nu``, and Ceps, Cv and Ct, whose entries are made from the E-forms
that ``Modal.unfolds`` names) are computed by descending iteration from
the full point set, which terminates on the finite lattice; C keeps the
reachability route, which must agree with the fixed-point route.
``gfp`` is ``evaluate`` of a ``nu`` node.

Scenario manifests (``ScenarioManifest``, a model with ``Expectation``s)
are defined and replayed here (``verify_manifest``), so replaying one
needs neither the run generators nor the scenario builders.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .formulas import Formula, parse
from . import formulas as fm
from .runs import ModelError, Point, System, mask_from_ids
from .views import IndistIndex, ViewPolicy, build_index, partition, reach

PointSet = frozenset[Point]


class EvalError(ModelError):
    pass


class UnknownPropError(EvalError):
    pass


class UnboundVariableError(EvalError):
    pass


class Valuation:
    """Truth sets per proposition name, one mask over ``system`` each;
    absent points are false.

    Lookups of undeclared names are errors, not false, so a typo in a
    formula cannot silently pass.
    """

    def __init__(self, system: System, masks: Mapping[str, int]) -> None:
        self.system, self.masks = system, masks

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.masks))

    def mask(self, name: str) -> int:
        try:
            return self.masks[name]
        except KeyError:
            raise UnknownPropError(
                f"proposition {name!r} is not declared in this model"
            ) from None

    def truth_set(self, name: str) -> PointSet:
        return self.system.points_of(self.mask(name))


PointValuation = Mapping[str, Iterable[Point]]


def make_valuation(pairs: PointValuation) -> PointValuation:
    """Truth sets given as points, for a ``Model`` to turn into masks."""
    return {name: tuple(pts) for name, pts in pairs.items()}


class Model:
    """A system with a valuation and a view policy; the index is derived.

    The valuation becomes masks over ``system`` here, once, whether it is
    given as points or as a ``Valuation`` over another system; points
    outside ``system`` are dropped.
    """

    def __init__(
        self, system: System, valuation: Valuation | PointValuation, policy: ViewPolicy
    ) -> None:
        if isinstance(valuation, Valuation) and valuation.system is not system:
            valuation = {name: valuation.truth_set(name) for name in valuation.names}
        if not isinstance(valuation, Valuation):
            valuation = Valuation(
                system, {name: system.mask_of(pts) for name, pts in valuation.items()}
            )
        self.system, self.valuation, self.policy = system, valuation, policy

    @cached_property
    def index(self) -> IndistIndex:
        return build_index(self.system, self.policy)

    @cached_property
    def all_points(self) -> PointSet:
        return frozenset(self.system.points)

    @cached_property
    def _run_heads(self) -> int:
        """Tick 0 of every run."""
        n = len(self.system.runs) * (self.system.horizon + 1)
        return mask_from_ids(range(0, n, self.system.horizon + 1), n)

    @cached_property
    def _stamp_masks(self) -> tuple[dict[int, int], ...]:
        """Per agent, clock reading -> the points at or after the agent's
        wake-up where its clock shows that reading: the last entry of its
        history's clock range."""
        out = []
        for table in self.system.history_table:
            class_of, _, masks = partition(
                table, lambda h: h.clock_range[-1] if h.clock_range else None
            )
            out.append(
                {stamp: masks[cls] for stamp, cls in class_of.items() if stamp is not None}
            )
        return tuple(out)


def _validate_formula(model: Model, f: Formula) -> None:
    """Every check ``_eval`` relies on, made before it starts: the agents
    are the system's, every node class has an entry in ``_OPS``, and a
    clock-indexed operator has clocks to read."""
    for agent in fm.agents_mentioned(f):
        model.system.check_agent(agent)
    clockless = model.system.runs and not model.system.has_clocks
    for node in fm.postorder(f):
        if type(node) not in _OPS:
            raise EvalError(f"cannot evaluate {type(node).__name__}")
        if clockless and isinstance(node, fm.Modal) and node.param == "stamp":
            raise EvalError(
                "clock-indexed operators need a system in which every "
                "run has clocks"
            )


def _box(model: Model, group: Iterable[int], steps: int | None, arg: int) -> int:
    """Points from which every point within ``steps`` group-labelled
    edges, or any number of them when ``steps`` is None, lies inside
    ``arg``: K, E, E^k and C; ``_validate_formula`` has checked the group.
    What ``reach`` finds from inside ``full`` stays inside it, so the
    outer complement is an exclusive or."""
    full = model.system.full
    return full ^ reach(model.index, group, full & ~arg, steps)


def _know(model: Model, agent: int, arg: int) -> int:
    """Points whose whole view class for ``agent`` lies inside ``arg``."""
    return _box(model, (agent,), 1, arg)


def _everyone(group: Sequence[int], term: Callable[[int], int]) -> int:
    """The points where ``term(agent)`` holds for every member; the
    conjunction stops once it is empty."""
    out = term(group[0])
    for agent in group[1:]:
        if not out:
            break
        out &= term(agent)
    return out


def _someone(model: Model, group: Sequence[int], arg: int) -> int:
    out = 0
    for agent in group:
        out |= _know(model, agent, arg)
    return out


def _distributed(model: Model, group: Sequence[int], arg: int) -> int:
    """Points whose joint view, the tuple of the members' class ids there,
    no point outside ``arg`` shares. Only the joint views outside ``arg``
    are kept; each point's is tested as ``zip`` makes it."""
    columns = [model.index.class_ids[a] for a in group]
    # bit i of the points outside arg is character i of its reversed binary text
    is_outside = map("1".__eq__, bin(model.system.full & ~arg)[:1:-1])
    outside = set(compress(zip(*columns), is_outside))
    return mask_from_ids(
        (i for i, key in enumerate(zip(*columns)) if key not in outside), len(columns[0])
    )


def _runs_meeting(model: Model, mask: int) -> int:
    """Tick 0 of every run whose slice meets ``mask``."""
    smeared = mask
    for d in range(1, model.system.horizon + 1):
        smeared |= mask >> d
    return smeared & model._run_heads


def _whole_runs(model: Model, heads: int) -> int:
    """Every tick of the runs whose tick 0 is in ``heads``."""
    return heads * ((1 << (model.system.horizon + 1)) - 1)


def _interval_everyone(model: Model, group: Sequence[int], eps: int, arg: int) -> int:
    """Shared width-eps interval containing now in which each member knows.

    Intervals are clipped to [0, horizon]; with eps = 0 this degenerates
    to plain E. An interval is named by its start s <= horizon - eps;
    shifting a mask right by d <= eps brings tick s + d of a run to tick s
    of the same run, and shifting the starts left by d covers their ticks.
    """
    horizon = model.system.horizon
    if eps > horizon:
        return 0

    def window(agent: int) -> int:
        known = out = _know(model, agent, arg)
        for d in range(1, eps + 1):
            out |= known >> d
        return out

    first_ticks = ((1 << (horizon - eps + 1)) - 1) * model._run_heads
    starts = first_ticks & _everyone(group, window)
    out = starts
    for d in range(1, eps + 1):
        out |= starts << d
    return out


def _know_at_stamp(model: Model, agent: int, stamp: int, arg: int) -> int:
    """Run-level: the agent's clock reads ``stamp`` somewhere and it knows
    ``arg`` at every such time; false throughout runs that skip the stamp."""
    reading = model._stamp_masks[agent].get(stamp, 0)
    unknown = reading & ~_know(model, agent, arg)
    heads = _runs_meeting(model, reading) & ~_runs_meeting(model, unknown)
    return _whole_runs(model, heads)


def _descend_to_fixpoint(model: Model, step) -> int:
    current = model.system.full
    while True:
        nxt = step(current)
        if nxt == current:
            return current
        if nxt & ~current:
            raise RuntimeError(
                "fixed-point iteration increased; the step function is not "
                "monotone under this evaluator"
            )
        current = nxt


def _variable(model: Model, env: dict[str, int], f: fm.Var) -> int:
    if f.name not in env:
        raise UnboundVariableError(f"variable {f.name!r} is unbound")
    return env[f.name]


def _nu(model: Model, env: dict[str, int], f: fm.Nu, _) -> int:
    return _descend_to_fixpoint(model, lambda cur: _eval(model, f.body, {**env, f.var: cur}))


def _unfolded(step: Callable[..., int]) -> Callable[..., int]:
    """The entry of a C-form whose E-form has the entry ``step``: the
    greatest fixed point of X -> E-form(arg & X). A C-form has the fields
    of its E-form, so ``step`` reads them off the C-form's node."""
    return lambda model, env, f, arg: _descend_to_fixpoint(
        model, lambda cur: step(model, env, f, arg & cur)
    )


#: Each node class -> its entry, (model, env, node, *masks of its
#: children) -> the node's mask. A ``Nu`` ignores the mask passed for its
#: body: it descends from the full set, evaluating the body afresh at each
#: step with its variable bound to the current set. C keeps its
#: reachability route, which must agree with its nu-form; every other
#: C-form's entry is made from the entry of the E-form it ``unfolds``.
_OPS: dict[type[Formula], Callable[..., int]] = {
    fm.Var: _variable,
    fm.Prop: lambda model, env, f: model.valuation.mask(f.name),
    fm.TrueConst: lambda model, env, f: model.system.full,
    fm.Not: lambda model, env, f, arg: model.system.full & ~arg,
    fm.And: lambda model, env, f, left, right: left & right,
    fm.Nu: _nu,
    fm.K: lambda model, env, f, arg: _know(model, f.agent, arg),
    fm.S: lambda model, env, f, arg: _someone(model, f.group, arg),
    fm.E: lambda model, env, f, arg: _box(model, f.group, 1, arg),
    fm.EPow: lambda model, env, f, arg: _box(model, f.group, f.power, arg),
    fm.D: lambda model, env, f, arg: _distributed(model, f.group, arg),
    fm.C: lambda model, env, f, arg: _box(model, f.group, None, arg),
    fm.EEps: lambda model, env, f, arg: _interval_everyone(model, f.group, f.eps, arg),
    fm.EDiamond: lambda model, env, f, arg: _whole_runs(  # a run-level fact
        model, _everyone(f.group, lambda a: _runs_meeting(model, _know(model, a, arg)))
    ),
    fm.KTime: lambda model, env, f, arg: _know_at_stamp(model, f.agent, f.stamp, arg),
    fm.ETime: lambda model, env, f, arg: _everyone(
        f.group, lambda a: _know_at_stamp(model, a, f.stamp, arg)
    ),
}
_OPS.update(
    (cls, _unfolded(_OPS[cls.unfolds]))
    for cls in fm.MODALS.values()
    if cls not in _OPS and cls.unfolds in _OPS
)


def truth_mask(
    model: Model, f: Formula, env: Mapping[str, Iterable[Point]] | None = None
) -> int:
    """``evaluate`` as a bitmask: bit i is set iff ``f`` holds at
    ``model.system.points[i]``."""
    fm.check_positivity(f)
    _validate_formula(model, f)
    return _eval(model, f, {k: model.system.mask_of(v) for k, v in (env or {}).items()})


def evaluate(
    model: Model,
    f: Formula,
    env: Mapping[str, PointSet] | None = None,
) -> PointSet:
    """The set of points where ``f`` holds.

    ``env`` binds free fixed-point variables to point sets; points outside
    the system are dropped from them. The formula must satisfy the
    positivity restriction and mention only agents of the system.
    """
    return model.system.points_of(truth_mask(model, f, env))


def _eval(model: Model, f: Formula, env: dict[str, int]) -> int:
    """The mask of ``f``: one pass over its distinct nodes, children
    first, keeping one mask per node; each node's entry in ``_OPS`` makes
    its mask from its children's."""
    mask: dict[Formula, int] = {}
    for node in fm.postorder(f, into_nu=False):
        mask[node] = _OPS[type(node)](model, env, node, *map(mask.get, fm.children(node)))
    return mask[f]


def gfp(
    model: Model,
    var: str,
    body: Formula,
    env: Mapping[str, PointSet] | None = None,
) -> PointSet:
    """Greatest fixed point of A -> eval(body, var := A): ``evaluate`` of
    ``nu var. body``, so the body must pass the same checks.

    Iterates downward from the full point set; the chain is weakly
    decreasing on the finite lattice, so at most one iteration per point
    is needed. Equals the union of all fixed points of the body.
    """
    return evaluate(model, fm.Nu(var, body), env)


def least_point(model: Model, mask: int) -> Point:
    """The least point of a nonempty mask."""
    return model.system.points[(mask & -mask).bit_length() - 1]


def holds(model: Model, f: Formula, point: Point) -> bool:
    bit = model.system.point_id(point)
    return bool(truth_mask(model, f) >> bit & 1)


def check_validity(model: Model, f: Formula) -> tuple[bool, Point | None]:
    """Valid iff true at every point; otherwise the least failing point."""
    missing = model.system.full & ~truth_mask(model, f)
    if missing:
        return False, least_point(model, missing)
    return True, None


# ---------------------------------------------------------------------------
# Manifest replay

class Expectation(NamedTuple):
    """One checkable claim: a formula, a point (or None for all points),
    and the expected outcome. With ``point=None`` and ``expected=True``
    the formula must be valid; with ``expected=False`` it must hold
    nowhere."""

    formula: str
    point: Point | None
    expected: bool
    note: str = ""


class ScenarioManifest(NamedTuple):
    name: str
    parameters: Mapping[str, object]
    model: Model
    expectations: tuple[Expectation, ...]


class ExpectationFailure(NamedTuple):
    expectation: Expectation
    detail: str


def verify_manifest(manifest: ScenarioManifest) -> tuple[ExpectationFailure, ...]:
    """Replay every expectation; an empty result means the manifest holds.

    Each distinct formula text is parsed and evaluated once, when the
    first expectation naming it is replayed; every expectation is then
    answered from that truth mask. A claim about all points reports the
    least point that refutes it.
    """
    model = manifest.model
    truth: dict[str, int] = {}
    failures = []
    for exp in manifest.expectations:
        bit = None if exp.point is None else model.system.point_id(exp.point)
        sat = truth.get(exp.formula)
        if sat is None:
            sat = truth[exp.formula] = truth_mask(model, parse(exp.formula))
        if bit is not None:
            value = bool(sat >> bit & 1)
            ok = value is exp.expected
            detail = "" if ok else f"evaluated to {value}"
        else:
            wrong = model.system.full & ~sat if exp.expected else sat
            ok = not wrong
            verb = "fails" if exp.expected else "holds"
            detail = "" if ok else f"{verb} at {least_point(model, wrong)}"
        if not ok:
            failures.append(ExpectationFailure(exp, detail))
    return tuple(failures)
