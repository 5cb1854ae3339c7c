"""Property-based checks over randomly built formulas and models."""

import random

from hypothesis import given, settings, strategies as st

from epimc import formulas as fm
from epimc.semantics import evaluate
from epimc.formulas import check_positivity, expand_fixpoints, parse, print_formula
from epimc.runs import run_history

from tests.helpers import random_model

PROPS = ("p", "q")
GROUPS = ((0, 1), (0,), (1,))


def formula_strategy(max_depth=4, allow_var=False, clocked=False):
    """Random formulas; ``clocked`` adds Kt/Et/Ct, which evaluate only on
    systems where every run has clocks."""
    leaves = [st.sampled_from([fm.Prop(p) for p in PROPS]), st.just(fm.TrueConst())]
    if allow_var:
        leaves.append(st.just(fm.Var("X")))
    base = st.one_of(*leaves)

    def extend(children):
        group = st.sampled_from(GROUPS)
        ops = [
            st.builds(fm.Not, children),
            st.builds(fm.And, children, children),
            st.builds(fm.K, st.sampled_from((0, 1)), children),
            st.builds(fm.E, group, children),
            st.builds(fm.S, group, children),
            st.builds(fm.D, group, children),
            st.builds(fm.C, group, children),
            st.builds(fm.EPow, group, st.integers(1, 3), children),
            st.builds(fm.EEps, group, st.integers(0, 2), children),
            st.builds(fm.CEps, group, st.integers(0, 2), children),
            st.builds(fm.EDiamond, group, children),
            st.builds(fm.CDiamond, group, children),
        ]
        if clocked:
            ops += [
                st.builds(fm.KTime, st.sampled_from((0, 1)), st.integers(0, 3), children),
                st.builds(fm.ETime, group, st.integers(0, 3), children),
                st.builds(fm.CTime, group, st.integers(0, 3), children),
            ]
        return st.one_of(*ops)

    return st.recursive(base, extend, max_leaves=max_depth)


@settings(max_examples=120, deadline=None)
@given(formula_strategy(allow_var=True, clocked=True))
def test_print_parse_round_trip(f):
    f = fm.Nu("X", f)
    assert parse(print_formula(f)) == f


@settings(max_examples=60, deadline=None)
@given(formula_strategy(allow_var=True))
def test_expansion_removes_derived_operators_and_preserves_positivity(f):
    wrapped = fm.Nu("X", fm.And(f, fm.Var("X")))
    try:
        check_positivity(wrapped)
    except fm.PositivityError:
        return  # only positive bodies are in scope
    out = expand_fixpoints(wrapped)
    kinds = {type(n).__name__ for n in fm.postorder(out)}
    assert not kinds & {"C", "CEps", "CDiamond", "CTime", "EPow", "S"}
    check_positivity(out)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), formula_strategy(max_depth=3))
def test_primitive_and_expanded_forms_evaluate_equally(seed, f):
    model = random_model(random.Random(seed), max_runs=3, max_horizon=3)
    if model.system.horizon < 2:
        return
    assert evaluate(model, f) == evaluate(model, expand_fixpoints(f))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), formula_strategy(max_depth=3, clocked=True))
def test_primitive_and_expanded_forms_evaluate_equally_with_clocks(seed, f):
    # Kt, Et and Ct evaluate only where every run has clocks
    model = random_model(random.Random(seed), max_runs=3, max_horizon=3, clocked=True)
    if model.system.horizon < 2:
        return
    assert evaluate(model, f) == evaluate(model, expand_fixpoints(f))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_histories_grow_as_prefixes(seed):
    model = random_model(random.Random(seed))
    for run in model.system.runs:
        for agent in model.system.agents:
            previous = run_history(run, agent, 0)
            for t in range(1, model.system.horizon + 1):
                current = run_history(run, agent, t)
                assert previous.is_prefix_of(current)
                previous = current


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(PROPS))
def test_knowledge_and_group_operators_deflate(seed, prop):
    model = random_model(random.Random(seed))
    p = fm.Prop(prop)
    group = tuple(model.system.agents)
    fact = evaluate(model, p)
    assert evaluate(model, fm.D(group, p)) <= fact
    assert evaluate(model, fm.S(group, p)) <= evaluate(model, fm.D(group, p))
    assert evaluate(model, fm.E(group, p)) <= evaluate(model, fm.S(group, p))
    assert evaluate(model, fm.C(group, p)) <= evaluate(model, fm.E(group, p))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_common_knowledge_is_introspective(seed):
    model = random_model(random.Random(seed))
    group = tuple(model.system.agents)
    p = fm.Prop("p")
    c = evaluate(model, fm.C(group, p))
    cc = evaluate(model, fm.C(group, fm.C(group, p)))
    assert c == cc
