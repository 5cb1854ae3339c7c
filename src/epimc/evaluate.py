"""Set-based formula evaluation over a system, valuation, and view policy.

Every formula denotes a set of points. Inside this module a point set is
an ``int`` bitmask over the system's dense point numbering (bit i is
``System.points[i]``, and each run is a contiguous slice of horizon + 1
bits); the public functions take and return ``frozenset[Point]``, except
``truth_mask``, which hands the mask itself to callers that test many
points against one formula.
Knowledge of an agent is the union of its view-class masks contained in
the argument; distributed knowledge does the same with the group's joint
classes, and common knowledge via reachability with the group's
components, which the index builds with one union-find pass per group
and caches, so each component is tested against the argument once. The
interval, eventual and clock-indexed variants shift whole-system masks:
a shift by d ticks moves every run's slice at once, and a per-tick
validity mask drops the bits that crossed into a neighbouring run.
Greatest fixed points are computed by descending iteration from the full
point set, which terminates on the finite lattice; the reachability
characterization of common knowledge is kept as a separate fast path and
must agree with the fixed-point route.

Scenario manifests (``ScenarioManifest``, a model with ``Expectation``s)
are defined and replayed here (``verify_manifest``), so replaying one
needs neither the run generators nor the scenario builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import formulas as fm
from .formulas import Formula, parse
from .runs import ModelError, Point, System, UnknownAgentError
from .views import (
    IndistIndex,
    ViewPolicy,
    build_index,
    mask_from_ids,
    normalize_group,
)

PointSet = frozenset[Point]


class EvalError(ModelError):
    pass


class UnknownPropError(EvalError):
    pass


class UnboundVariableError(EvalError):
    pass


@dataclass(frozen=True, eq=False)
class Valuation:
    """Truth sets per proposition name; absent points are false.

    Lookups of undeclared names are errors, not false, so a typo in a
    formula cannot silently pass.
    """

    truth: Mapping[str, PointSet]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.truth))

    def truth_set(self, name: str) -> PointSet:
        try:
            return self.truth[name]
        except KeyError:
            raise UnknownPropError(
                f"proposition {name!r} is not declared in this model"
            ) from None


def make_valuation(pairs: Mapping[str, Iterable[Point]]) -> Valuation:
    return Valuation({name: frozenset(pts) for name, pts in pairs.items()})


@dataclass(frozen=True, eq=False)
class Model:
    """A system with a valuation and a view policy; the index is derived."""

    system: System
    valuation: Valuation
    policy: ViewPolicy

    @cached_property
    def index(self) -> IndistIndex:
        return build_index(self.system, self.policy)

    @cached_property
    def all_points(self) -> PointSet:
        return frozenset(self.system.points)

    @cached_property
    def point_order(self) -> tuple[Point, ...]:
        return self.system.points

    @cached_property
    def _prop_masks(self) -> dict[str, int]:
        return {}

    @cached_property
    def _run_heads(self) -> int:
        """Tick 0 of every run."""
        n = len(self.system.points)
        return mask_from_ids(range(0, n, self.system.horizon + 1), n)

    @cached_property
    def _stamp_masks(self) -> tuple[dict[int, int], ...]:
        """Per agent, clock reading -> the points at or after the agent's
        wake-up where its clock shows that reading."""
        width = self.system.horizon + 1
        n = len(self.system.points)
        runs = self.system.runs_in_point_order
        out = []
        for agent in self.system.agents:
            by_stamp: dict[int, list[int]] = {}
            for r, run in enumerate(runs):
                if run.clock is None:
                    continue
                wake = run.wake_up[agent]
                readings = run.clock[agent][: width - wake]
                for t, stamp in enumerate(readings, start=wake):
                    by_stamp.setdefault(stamp, []).append(r * width + t)
            out.append({s: mask_from_ids(ids, n) for s, ids in by_stamp.items()})
        return tuple(out)


def _validate_formula(model: Model, f: Formula) -> None:
    for agent in fm.agents_mentioned(f):
        if not 0 <= agent < model.system.n_agents:
            raise UnknownAgentError(
                f"agent {agent} out of range for a "
                f"{model.system.n_agents}-agent system"
            )
    if model.system.runs and not model.system.has_clocks:
        for node in fm.walk(f):
            if isinstance(node, fm.Modal) and node.param == "stamp":
                raise EvalError(
                    "clock-indexed operators need a system in which every "
                    "run has clocks"
                )


def _prop(model: Model, name: str) -> int:
    masks = model._prop_masks
    mask = masks.get(name)
    if mask is None:
        mask = masks[name] = model.index.mask_of(model.valuation.truth_set(name))
    return mask


def _inside(classes: Iterable[int], arg: int) -> int:
    """Union of the class masks that lie wholly inside ``arg``."""
    out = 0
    for cls in classes:
        if cls & arg == cls:
            out |= cls
    return out


def _know(model: Model, agent: int, arg: int) -> int:
    """Points whose whole view class for ``agent`` lies inside ``arg``."""
    return _inside(model.index.class_masks[agent], arg)


def _everyone(model: Model, group: Sequence[int], arg: int) -> int:
    out = _know(model, group[0], arg)
    for agent in group[1:]:
        if not out:
            break
        out &= _know(model, agent, arg)
    return out


def _someone(model: Model, group: Sequence[int], arg: int) -> int:
    out = 0
    for agent in group:
        out |= _know(model, agent, arg)
    return out


def _distributed(model: Model, group: Sequence[int], arg: int) -> int:
    """Joint-view classes (intersections of member classes) inside ``arg``."""
    return _inside(model.index.joint_class_masks(group), arg)


def _common(model: Model, group: Sequence[int], arg: int) -> int:
    """Group components inside ``arg``: one subset test per component."""
    return _inside(model.index.component_masks(group), arg)


def _ticks_upto(model: Model, last: int) -> int:
    """Ticks 0..last of every run."""
    return ((1 << (last + 1)) - 1) * model._run_heads


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
    starts = _ticks_upto(model, horizon - eps)
    for agent in group:
        known = _know(model, agent, arg)
        window = known
        for d in range(1, eps + 1):
            window |= known >> d
        starts &= window
    out = starts
    for d in range(1, eps + 1):
        out |= starts << d
    return out


def _eventual_everyone(model: Model, group: Sequence[int], arg: int) -> int:
    """Each member knows at some time of the run; a run-level fact."""
    heads = model._run_heads
    for agent in group:
        heads &= _runs_meeting(model, _know(model, agent, arg))
    return _whole_runs(model, heads)


def _know_at_stamp(model: Model, agent: int, stamp: int, arg: int) -> int:
    """Run-level: the agent's clock reads ``stamp`` somewhere and it knows
    ``arg`` at every such time; false throughout runs that skip the stamp."""
    reading = model._stamp_masks[agent].get(stamp, 0)
    unknown = reading & ~_know(model, agent, arg)
    heads = _runs_meeting(model, reading) & ~_runs_meeting(model, unknown)
    return _whole_runs(model, heads)


def _stamped_everyone(model: Model, group: Sequence[int], stamp: int, arg: int) -> int:
    out = _know_at_stamp(model, group[0], stamp, arg)
    for agent in group[1:]:
        if not out:
            break
        out &= _know_at_stamp(model, agent, stamp, arg)
    return out


def _power(model: Model, f: fm.EPow, arg: int) -> int:
    for _ in range(f.power):
        arg = _everyone(model, f.group, arg)
    return arg


#: Each modal class -> (model, node, mask of the child) -> mask. C keeps
#: its reachability route here; Ceps, Cv and Ct iterate their E-form.
_MODAL_OPS = {
    fm.K: lambda model, f, arg: _know(model, f.agent, arg),
    fm.S: lambda model, f, arg: _someone(model, f.group, arg),
    fm.E: lambda model, f, arg: _everyone(model, f.group, arg),
    fm.EPow: _power,
    fm.D: lambda model, f, arg: _distributed(model, f.group, arg),
    fm.C: lambda model, f, arg: _common(model, f.group, arg),
    fm.EEps: lambda model, f, arg: _interval_everyone(model, f.group, f.eps, arg),
    fm.EDiamond: lambda model, f, arg: _eventual_everyone(model, f.group, arg),
    fm.KTime: lambda model, f, arg: _know_at_stamp(model, f.agent, f.stamp, arg),
    fm.ETime: lambda model, f, arg: _stamped_everyone(model, f.group, f.stamp, arg),
}


def _descend_to_fixpoint(model: Model, step) -> int:
    current = model.index.full
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


def _env_masks(model: Model, env: Mapping[str, Iterable[Point]] | None) -> dict[str, int]:
    return {k: model.index.mask_of(v) for k, v in (env or {}).items()}


def truth_mask(
    model: Model, f: Formula, env: Mapping[str, Iterable[Point]] | None = None
) -> int:
    """``evaluate`` as a bitmask: bit i is set iff ``f`` holds at
    ``model.system.points[i]``."""
    fm.check_positivity(f)
    _validate_formula(model, f)
    return _eval(model, f, _env_masks(model, env))


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
    return model.index.points_of(truth_mask(model, f, env))


def _eval(model: Model, f: Formula, env: dict[str, int]) -> int:
    if isinstance(f, fm.Var):
        try:
            return env[f.name]
        except KeyError:
            raise UnboundVariableError(f"variable {f.name!r} is unbound") from None
    if isinstance(f, fm.Prop):
        return _prop(model, f.name)
    if isinstance(f, fm.TrueConst):
        return model.index.full
    if isinstance(f, fm.Not):
        return model.index.full & ~_eval(model, f.child, env)
    if isinstance(f, fm.And):
        return _eval(model, f.left, env) & _eval(model, f.right, env)
    if isinstance(f, fm.Modal):
        arg = _eval(model, f.child, env)
        op = _MODAL_OPS.get(type(f))
        if op is not None:
            return op(model, f, arg)
        # Ceps, Cv, Ct: the greatest fixed point of their E-form, iterated
        # directly; the E-form's operator reads the fields the two share
        step = _MODAL_OPS[f.unfolds]
        return _descend_to_fixpoint(model, lambda cur: step(model, f, arg & cur))
    if isinstance(f, fm.Nu):
        return _gfp(model, f.var, f.body, env)
    raise EvalError(f"cannot evaluate {type(f).__name__}")


def _gfp(model: Model, var: str, body: Formula, env: dict[str, int]) -> int:
    def step(current: int) -> int:
        inner = dict(env)
        inner[var] = current
        return _eval(model, body, inner)

    return _descend_to_fixpoint(model, step)


def gfp(
    model: Model,
    var: str,
    body: Formula,
    env: Mapping[str, PointSet] | None = None,
) -> PointSet:
    """Greatest fixed point of A -> eval(body, var := A).

    Iterates downward from the full point set; the chain is weakly
    decreasing on the finite lattice, so at most one iteration per point
    is needed. Equals the union of all fixed points of the body.
    """
    return model.index.points_of(_gfp(model, var, body, _env_masks(model, env)))


def eval_C_reach(
    model: Model,
    group: Iterable[int],
    f: Formula,
    env: Mapping[str, PointSet] | None = None,
) -> PointSet:
    """Common knowledge via reachability: points whose whole reachable set
    satisfies the argument. Agrees with the nu-form on every model."""
    members = normalize_group(group)
    for agent in members:
        model.system.check_agent(agent)
    arg = _eval(model, f, _env_masks(model, env))
    return model.index.points_of(_common(model, members, arg))


def least_point(model: Model, mask: int) -> Point:
    """The least point of a nonempty mask."""
    return model.system.points[(mask & -mask).bit_length() - 1]


def holds(model: Model, f: Formula, point: Point) -> bool:
    bit = model.system.point_id(point)
    return bool(truth_mask(model, f) >> bit & 1)


def check_validity(model: Model, f: Formula) -> tuple[bool, Point | None]:
    """Valid iff true at every point; otherwise the least failing point."""
    missing = model.index.full & ~truth_mask(model, f)
    if missing:
        return False, least_point(model, missing)
    return True, None


# ---------------------------------------------------------------------------
# Manifest replay

@dataclass(frozen=True)
class Expectation:
    """One checkable claim: a formula, a point (or None for all points),
    and the expected outcome. With ``point=None`` and ``expected=True``
    the formula must be valid; with ``expected=False`` it must hold
    nowhere."""

    formula: str
    point: Point | None
    expected: bool
    note: str = ""


@dataclass(frozen=True)
class ScenarioManifest:
    name: str
    parameters: Mapping[str, object]
    model: Model
    expectations: tuple[Expectation, ...]


@dataclass(frozen=True)
class ExpectationFailure:
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
            wrong = model.index.full & ~sat if exp.expected else sat
            ok = not wrong
            verb = "fails" if exp.expected else "holds"
            detail = "" if ok else f"{verb} at {least_point(model, wrong)}"
        if not ok:
            failures.append(ExpectationFailure(exp, detail))
    return tuple(failures)


# ---------------------------------------------------------------------------
# Axiom and rule reports

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    formula: str
    status: str  # "pass" | "fail" | "info" | "vacuous"
    detail: str = ""
    counterexample: Point | None = None


@dataclass(frozen=True)
class AxiomReport:
    entries: tuple[AxiomCheck, ...]

    @property
    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(e for e in self.entries if e.status == "fail")

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = []
        for e in self.entries:
            mark = e.status.upper()
            extra = f"  [{e.detail}]" if e.detail else ""
            cx = f"  counterexample={e.counterexample}" if e.counterexample else ""
            lines.append(f"{mark:8} {e.name}: {e.formula}{extra}{cx}")
        return "\n".join(lines)


@dataclass(frozen=True)
class InductionReport:
    premise_valid: bool
    conclusion_valid: bool
    vacuous: bool
    counterexample: Point | None

    @property
    def ok(self) -> bool:
        return self.vacuous or self.conclusion_valid


def check_induction_rule(
    model: Model,
    phi: Formula,
    psi: Formula,
    group: Iterable[int],
) -> InductionReport:
    """From the validity of phi -> E(phi & psi) conclude phi -> C psi.

    When the premise is invalid the rule is vacuous and nothing is
    asserted. Taking psi = phi gives the special case from phi -> E phi.
    """
    members = normalize_group(group)
    premise = fm.implies(phi, fm.E(members, fm.And(phi, psi)))
    premise_valid, _ = check_validity(model, premise)
    if not premise_valid:
        return InductionReport(False, False, True, None)
    conclusion = fm.implies(phi, fm.C(members, psi))
    conclusion_valid, cx = check_validity(model, conclusion)
    return InductionReport(True, conclusion_valid, False, cx)


def _s5_operators(model: Model, groups: Sequence[tuple[int, ...]]):
    """(printed head, wrapper) for each operator the S5 axioms are checked on."""
    wraps = [lambda g, a=agent: fm.K(a, g) for agent in model.system.agents]
    for grp in groups:
        wraps += [lambda g, m=grp: fm.D(m, g), lambda g, m=grp: fm.C(m, g)]
    return [(fm.modal_head(wrap(fm.TrueConst())), wrap) for wrap in wraps]


def axiom_suite(
    model: Model,
    props: Sequence[str],
    *,
    max_k: int = 4,
    eps: int = 1,
    groups: Sequence[Iterable[int]] | None = None,
) -> AxiomReport:
    """Validity report for the S5 axioms, the fixed-point laws, and the
    knowledge hierarchy, over the given proposition samples.

    K, D, and C instances of the knowledge axiom, consequence closure,
    both introspection axioms, and necessitation are asserted. For the
    interval and eventual variants only positive introspection,
    necessitation, and the fixed-point axiom are asserted; their
    remaining S5 instances are reported as informational because they
    are not expected to hold.
    """
    if groups is None:
        grps: list[tuple[int, ...]] = [tuple(model.system.agents)]
    else:
        grps = [normalize_group(g) for g in groups]
    props = list(props)
    if not props:
        raise EvalError("axiom_suite needs at least one proposition")
    if eps > model.system.horizon:
        raise EvalError("the interval width must fit inside the horizon")
    entries: list[AxiomCheck] = []

    def assert_valid(name: str, formula: Formula, status_if_false: str = "fail") -> None:
        ok, cx = check_validity(model, formula)
        entries.append(
            AxiomCheck(
                name,
                fm.print_formula(formula),
                "pass" if ok else status_if_false,
                counterexample=None if ok else cx,
            )
        )

    def info_valid(name: str, formula: Formula, note: str) -> None:
        ok, cx = check_validity(model, formula)
        entries.append(
            AxiomCheck(
                name,
                fm.print_formula(formula),
                "info",
                detail=f"{note}; holds here: {ok}",
                counterexample=None if ok else cx,
            )
        )

    necessitation_samples: list[Formula] = [fm.TrueConst()]
    for name in props:
        p = fm.Prop(name)
        necessitation_samples.append(fm.disj(p, fm.Not(p)))

    for label, wrap in _s5_operators(model, grps):
        for name in props:
            p = fm.Prop(name)
            q = fm.Prop(props[0]) if len(props) == 1 else fm.Prop(props[(props.index(name) + 1) % len(props)])
            assert_valid(f"A1[{label}]", fm.implies(wrap(p), p))
            assert_valid(
                f"A2[{label}]",
                fm.implies(fm.And(wrap(p), wrap(fm.implies(p, q))), wrap(q)),
            )
            assert_valid(f"A3[{label}]", fm.implies(wrap(p), wrap(wrap(p))))
            assert_valid(
                f"A4[{label}]",
                fm.implies(fm.Not(wrap(p)), wrap(fm.Not(wrap(p)))),
            )
        for sample in necessitation_samples:
            valid, _ = check_validity(model, sample)
            if not valid:
                entries.append(
                    AxiomCheck(
                        f"R1[{label}]",
                        fm.print_formula(sample),
                        "vacuous",
                        detail="premise formula not valid here",
                    )
                )
                continue
            assert_valid(f"R1[{label}]", wrap(sample))

    for grp in grps:
        glabel = "{" + ",".join(map(str, grp)) + "}"
        for name in props:
            p = fm.Prop(name)
            c = fm.C(grp, p)
            assert_valid(f"C1[{glabel}]", fm.iff(c, fm.E(grp, fm.And(p, c))))
            report = check_induction_rule(model, p, p, grp)
            entries.append(
                AxiomCheck(
                    f"C2[{glabel}]",
                    f"from {name} -> {fm.modal_head(fm.E(grp, p))}({name} & {name}) "
                    f"infer {name} -> {fm.modal_head(c)} {name}",
                    "vacuous" if report.vacuous else ("pass" if report.ok else "fail"),
                    counterexample=report.counterexample,
                )
            )

            # hierarchy chain: C down to the bare fact, as set inclusions
            chain = [c, *(fm.EPow(grp, k, p) for k in range(max_k, 0, -1))]
            chain += [fm.S(grp, p), fm.D(grp, p)]
            labels = [fm.modal_head(f) for f in chain] + [name]
            sets = [truth_mask(model, f) for f in chain + [p]]
            for (hi_set, hi_label), (lo_set, lo_label) in zip(
                zip(sets, labels), zip(sets[1:], labels[1:])
            ):
                extra = hi_set & ~lo_set
                entries.append(
                    AxiomCheck(
                        f"hierarchy[{hi_label} => {lo_label}]",
                        f"{hi_label} {name} implies {lo_label} {name}",
                        "fail" if extra else "pass",
                        counterexample=least_point(model, extra) if extra else None,
                    )
                )

            # fixed-point law and the asserted fragment for the variants
            ceps = fm.CEps(grp, eps, p)
            assert_valid(
                f"C1eps[{glabel}]",
                fm.iff(ceps, fm.EEps(grp, eps, fm.And(p, ceps))),
            )
            cdia = fm.CDiamond(grp, p)
            assert_valid(f"C1v[{glabel}]", fm.iff(cdia, fm.EDiamond(grp, fm.And(p, cdia))))
            assert_valid(f"A3eps[{glabel}]", fm.implies(ceps, fm.CEps(grp, eps, ceps)))
            assert_valid(f"A3v[{glabel}]", fm.implies(cdia, fm.CDiamond(grp, cdia)))
            info_valid(
                f"A1eps[{glabel}]",
                fm.implies(ceps, p),
                "knowledge axiom is not asserted for the interval variant",
            )
            q = fm.Prop(props[(props.index(name) + 1) % len(props)])
            info_valid(
                f"A2eps[{glabel}]",
                fm.implies(
                    fm.And(ceps, fm.CEps(grp, eps, fm.implies(p, q))),
                    fm.CEps(grp, eps, q),
                ),
                "consequence closure is not asserted for the interval variant",
            )
            info_valid(
                f"A4eps[{glabel}]",
                fm.implies(fm.Not(ceps), fm.CEps(grp, eps, fm.Not(ceps))),
                "negative introspection is not asserted for the interval variant",
            )
        for sample in necessitation_samples:
            valid, _ = check_validity(model, sample)
            if valid:
                assert_valid(f"R1eps[{glabel}]", fm.CEps(grp, eps, sample))
                assert_valid(f"R1v[{glabel}]", fm.CDiamond(grp, sample))

    return AxiomReport(tuple(entries))
