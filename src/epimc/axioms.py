"""The axiom and hierarchy suite of ``epimc axioms``, and the induction
rule for common knowledge.

``axiom_suite`` checks the S5 axioms for K, D and C, the fixed-point
laws of C and its interval and eventual variants, and the knowledge
hierarchy from C down to the bare fact, each as the validity of a
formula over a model (``semantics.check_validity``). Only the ``axioms``
command loads this module.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import formulas as fm
from .formulas import Formula
from .runs import Point
from .semantics import EvalError, Model, check_validity, least_point, truth_mask
from .views import normalize_group


class AxiomCheck(NamedTuple):
    name: str
    formula: str
    status: str  # "pass" | "fail" | "info" | "vacuous"
    detail: str = ""
    counterexample: Point | None = None


class AxiomReport(NamedTuple):
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


class InductionReport(NamedTuple):
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
    grps = [normalize_group(g) for g in ([model.system.agents] if groups is None else groups)]
    props = list(props)
    if not props:
        raise EvalError("axiom_suite needs at least one proposition")
    if eps > model.system.horizon:
        raise EvalError("the interval width must fit inside the horizon")
    entries: list[AxiomCheck] = []

    def assert_valid(name: str, formula: Formula) -> None:
        ok, cx = check_validity(model, formula)
        entries.append(
            AxiomCheck(
                name,
                fm.print_formula(formula),
                "pass" if ok else "fail",
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
            q = fm.Prop(props[(props.index(name) + 1) % len(props)])
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
        glabel = fm.fmt_group(grp)
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
