import random
import tracemalloc
from collections import Counter

import pytest

from epimc import SCENARIOS
from epimc import formulas as fm
from epimc import semantics, views
from epimc.axioms import axiom_suite, check_induction_rule
from epimc.semantics import (
    EvalError,
    Expectation,
    Model,
    ScenarioManifest,
    UnboundVariableError,
    UnknownPropError,
    check_validity,
    evaluate,
    gfp,
    holds,
    make_valuation,
    truth_mask,
    verify_manifest,
)
from epimc.formulas import parse
from epimc.runs import Point, UnknownAgentError, make_run, make_system
from epimc.views import ViewPolicy

from tests.helpers import brute_force_gfp, random_model


def toy_model(clocked=False):
    clock = (lambda a, t: t) if clocked else None
    delivered = make_run(
        "del", horizon=3, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(0, 0, "send", 1, "m"), (1, 1, "receive", 0, "m")], clock=clock,
    )
    dropped = make_run(
        "drop", horizon=3, wake_up=[0, 0], initial_state=["a", "b"],
        events=[(0, 0, "send", 1, "m")], clock=clock,
    )
    system = make_system(2, 3, [delivered, dropped])
    sent = {Point(r, t) for r in ("del", "drop") for t in range(1, 4)}
    got = {Point("del", t) for t in range(2, 4)}
    val = make_valuation({"sent": sent, "got": got})
    return Model(system, val, ViewPolicy.complete_history())


def test_true_holds_everywhere():
    model = toy_model()
    assert evaluate(model, parse("true")) == model.all_points


def test_knowledge_implies_the_fact():
    rng = random.Random(3)
    for _ in range(25):
        model = random_model(rng)
        p = parse("p")
        for agent in model.system.agents:
            assert evaluate(model, fm.K(agent, p)) <= evaluate(model, p)


def test_singleton_distributed_knowledge_is_individual_knowledge():
    rng = random.Random(5)
    for _ in range(25):
        model = random_model(rng)
        p = parse("p")
        for agent in model.system.agents:
            assert evaluate(model, fm.D((agent,), p)) == evaluate(model, fm.K(agent, p))


def test_receiver_knows_after_receipt_only():
    model = toy_model()
    known = evaluate(model, parse("K1 sent"))
    assert known == {Point("del", 2), Point("del", 3)}


def test_identity_body_gfp_is_everything():
    model = toy_model()
    assert gfp(model, "X", parse("X", free_vars=["X"])) == model.all_points


def test_gfp_with_false_conjunct_is_empty():
    model = toy_model()
    body = parse("E{0,1}(sent & ~sent & X)", free_vars=["X"])
    assert gfp(model, "X", body) == frozenset()


def test_gfp_matches_subset_enumeration_oracle():
    rng = random.Random(9)
    checked = 0
    while checked < 6:
        model = random_model(rng, max_runs=3, max_horizon=2)
        if len(model.all_points) > 12:
            continue
        checked += 1
        group = tuple(model.system.agents)
        body = fm.E(group, fm.And(fm.Prop("p"), fm.Var("X")))
        assert gfp(model, "X", body) == brute_force_gfp(model, "X", body)


def test_reachability_and_gfp_routes_agree_for_common_knowledge():
    rng = random.Random(13)
    for _ in range(20):
        model = random_model(rng)
        group = tuple(model.system.agents)
        p = fm.Prop("p")
        via_reach = evaluate(model, fm.C(group, p))
        via_gfp = gfp(model, "X", fm.E(group, fm.And(p, fm.Var("X"))))
        assert via_reach == via_gfp


def test_trivial_policy_common_knowledge_is_all_or_nothing_per_validity():
    model = toy_model()
    trivial = Model(model.system, model.valuation, ViewPolicy.trivial())
    c_sent = evaluate(trivial, parse("C{0,1} sent"))
    assert c_sent == frozenset()  # sent fails at time 0
    c_true = evaluate(trivial, parse("C{0,1} true"))
    assert c_true == trivial.all_points


def test_singleton_class_models_make_common_knowledge_pointwise():
    # one run with strictly growing histories: every class is a singleton,
    # so common knowledge of a fact is just the fact
    run = make_run(
        "g", horizon=2, wake_up=[0, 0], initial_state=["a", "b"],
        events=[
            (0, 0, "send", 1, "m1"), (0, 1, "receive", 0, "m1"),
            (1, 0, "send", 1, "m2"), (1, 1, "receive", 0, "m2"),
        ],
    )
    system = make_system(2, 2, [run])
    val = make_valuation({"p": {Point("g", 1)}})
    model = Model(system, val, ViewPolicy.complete_history())
    assert evaluate(model, parse("C{0,1} p")) == evaluate(model, parse("p"))


def test_evaluation_agrees_with_expanded_form():
    rng = random.Random(17)
    texts = [
        "C{0,1} p",
        "Ceps[1]{0,1} p",
        "Cv{0,1} (p & q)",
        "E^2{0,1} p & S{0,1} q",
        "~C{0,1} ~p",
    ]
    for _ in range(12):
        model = random_model(rng)
        for text in texts:
            f = parse(text)
            assert evaluate(model, f) == evaluate(model, fm.expand_fixpoints(f))


def test_bounded_conjunction_identity_for_common_knowledge():
    rng = random.Random(19)
    for _ in range(12):
        model = random_model(rng)
        group = tuple(model.system.agents)
        p = fm.Prop("p")
        c = evaluate(model, fm.C(group, p))
        limit = len(model.all_points)
        inter = model.all_points
        for k in range(1, limit + 1):
            inter &= evaluate(model, fm.EPow(group, k, p))
        assert c == inter


def test_e_power_stops_where_the_chain_is_stable(monkeypatch):
    # E never adds points, so the chain p, E p, E^2 p, ... is stable after
    # at most |points| steps, and E^k for any larger k is its last link:
    # the search takes one layer per link
    rng = random.Random(31)
    for _ in range(25):
        model = random_model(rng)
        group = tuple(model.system.agents)
        p = fm.Prop("p")
        chain = [evaluate(model, p)]
        while (link := evaluate(model, fm.EPow(group, len(chain), p))) != chain[-1]:
            chain.append(link)
        calls = []
        limit = len(model.all_points) + 1

        def counted(*args, real=views._layer):
            calls.append(args)
            assert len(calls) <= limit, "E^k went on past its fixed point"
            return real(*args)

        monkeypatch.setattr(views, "_layer", counted)
        assert evaluate(model, fm.EPow(group, 10**6, p)) == chain[-1]
        monkeypatch.undo()
        assert len(calls) == len(chain) <= limit


def test_interval_and_eventual_variants_bound_the_conjunctions():
    # the fixed points imply every finite nesting (Eeps)^k p and (Ev)^k p
    rng = random.Random(23)
    for _ in range(8):
        model = random_model(rng, max_runs=3, max_horizon=3)
        group = tuple(model.system.agents)
        p = fm.Prop("p")
        ceps = evaluate(model, fm.CEps(group, 1, p))
        cdia = evaluate(model, fm.CDiamond(group, p))
        cur_eps, cur_dia = p, p
        for _k in range(min(len(model.all_points), 5)):
            cur_eps = fm.EEps(group, 1, cur_eps)
            cur_dia = fm.EDiamond(group, cur_dia)
            assert ceps <= evaluate(model, cur_eps)
            assert cdia <= evaluate(model, cur_dia)


def test_temporal_variant_hierarchy_chain():
    # widths are kept within the horizon; clipped intervals wider than the
    # whole window would be empty by construction
    rng = random.Random(29)
    done = 0
    while done < 10:
        model = random_model(rng, max_horizon=3)
        if model.system.horizon < 2:
            continue
        done += 1
        group = tuple(model.system.agents)
        p = fm.Prop("p")
        c = evaluate(model, fm.C(group, p))
        c1 = evaluate(model, fm.CEps(group, 1, p))
        c2 = evaluate(model, fm.CEps(group, 2, p))
        cd = evaluate(model, fm.CDiamond(group, p))
        assert c <= c1 <= c2 <= cd


def test_interval_width_zero_coincides_with_the_plain_operators():
    rng = random.Random(31)
    for _ in range(10):
        model = random_model(rng)
        group = tuple(model.system.agents)
        p = fm.Prop("p")
        assert evaluate(model, fm.EEps(group, 0, p)) == evaluate(model, fm.E(group, p))
        assert evaluate(model, fm.CEps(group, 0, p)) == evaluate(model, fm.C(group, p))


def test_weak_knowledge_property_of_the_variants():
    rng = random.Random(37)
    for _ in range(12):
        model = random_model(rng)
        group = tuple(model.system.agents)
        p = fm.Prop("p")
        truth = evaluate(model, p)
        eps = 1
        for pt in evaluate(model, fm.CEps(group, eps, p)):
            assert any(
                Point(pt.run_id, u) in truth
                for u in range(max(0, pt.time - eps),
                               min(model.system.horizon, pt.time + eps) + 1)
            )
        for pt in evaluate(model, fm.CDiamond(group, p)):
            assert any(
                Point(pt.run_id, u) in truth
                for u in range(model.system.horizon + 1)
            )


def test_validity_knowledge_axiom_and_fixed_point_axiom():
    model = toy_model()
    ok, _ = check_validity(model, parse("K1 sent -> sent"))
    assert ok
    ok, _ = check_validity(model, parse("C{0,1} sent <-> E{0,1}(sent & C{0,1} sent)"))
    assert ok


def test_validity_counterexample_is_least_point():
    model = toy_model()
    ok, cx = check_validity(model, parse("sent -> K1 sent"))
    assert not ok
    assert cx == Point("del", 1)  # least point where it fails


def test_interval_knowledge_of_contradictory_facts_is_satisfiable():
    # two runs, knowledge of p and of ~p one tick apart
    r = make_run("r", horizon=2, wake_up=[0, 0], initial_state=["a", "b"],
                 clock=lambda a, t: t)
    system = make_system(2, 2, [r])
    val = make_valuation({"p": {Point("r", 0)}})
    model = Model(system, val, ViewPolicy.complete_history())
    sat = evaluate(model, parse("Eeps[1]{0,1} p & Eeps[1]{0,1} ~p"))
    assert sat  # both hold around the boundary tick


def test_induction_rule_and_vacuous_case():
    model = toy_model()
    # a contradictory premise makes both premise and conclusion hold trivially
    trivial = check_induction_rule(model, parse("sent & ~sent"), parse("sent"), (0, 1))
    assert trivial.premise_valid and trivial.conclusion_valid
    # an invalid premise asserts nothing
    vacuous = check_induction_rule(model, parse("sent"), parse("got"), (0, 1))
    assert vacuous.vacuous and vacuous.ok
    applied = check_induction_rule(model, parse("true"), parse("true"), (0, 1))
    assert applied.premise_valid and applied.conclusion_valid


def test_axiom_suite_passes_on_random_models():
    rng = random.Random(41)
    model = random_model(rng)
    report = axiom_suite(model, list(model.valuation.names), max_k=2)
    assert report.ok, report.render()
    assert any(e.status == "info" for e in report.entries)


def test_clock_indexed_operators_demand_clocks():
    model = toy_model(clocked=False)
    with pytest.raises(EvalError):
        evaluate(model, parse("Kt1[1] sent"))


def test_clock_indexed_knowledge_is_run_level():
    model = toy_model(clocked=True)
    sat = evaluate(model, parse("Kt1[2] got"))
    # only the delivery run makes the receipt known at clock 2; the fact is
    # then attached to the whole run, including its earliest points
    assert {p.run_id for p in sat} == {"del"}
    assert {p.time for p in sat if p.run_id == "del"} == {0, 1, 2, 3}
    none = evaluate(model, parse("Kt1[9] got"))
    assert none == frozenset()  # no clock ever reads 9


def test_errors_for_unknowns():
    model = toy_model()
    with pytest.raises(UnknownPropError):
        evaluate(model, parse("nosuch"))
    with pytest.raises(UnknownAgentError):
        evaluate(model, parse("K9 sent"))
    with pytest.raises(UnboundVariableError):
        evaluate(model, parse("X", free_vars=["X"]))


def test_holds_rejects_foreign_points():
    model = toy_model()
    with pytest.raises(Exception):
        holds(model, parse("sent"), Point("nope", 0))


def test_formulas_with_no_modal_operator_never_build_the_index(monkeypatch):
    def refuse(*args):
        raise AssertionError("the view index was built")

    model = toy_model()
    monkeypatch.setattr(semantics, "build_index", refuse)
    sent = {Point(r, t) for r in ("del", "drop") for t in range(1, 4)}
    unsent = model.all_points - sent
    assert evaluate(model, parse("sent")) == sent
    assert evaluate(model, parse("~sent & true")) == unsent
    assert evaluate(model, parse("nu X. sent & X")) == sent
    assert gfp(model, "X", parse("sent & X", free_vars=["X"])) == sent
    assert holds(model, parse("sent"), Point("del", 1))
    assert not holds(model, parse("~sent & true"), Point("del", 1))
    assert check_validity(model, parse("sent")) == (False, Point("del", 0))
    assert check_validity(model, parse("sent | ~sent")) == (True, None)
    expectations = (
        Expectation("sent", Point("drop", 3), True),
        Expectation("~sent & true", Point("del", 0), True),
        Expectation("nu X. sent & X", None, False),
    )
    failures = verify_manifest(ScenarioManifest("plain", {}, model, expectations))
    assert [f.detail for f in failures] == ["holds at del@1"]


def test_a_node_class_with_no_entry_is_refused_before_the_index_is_built(monkeypatch):
    class Unknown(fm.Formula):
        __slots__ = ()

    def refuse(*args):
        raise AssertionError("the view index was built")

    model = toy_model()
    monkeypatch.setattr(semantics, "build_index", refuse)
    # the K node comes first in the pass, so evaluating would build the index
    formula = fm.And(parse("K0 sent"), Unknown())
    with pytest.raises(EvalError, match="^cannot evaluate Unknown$"):
        evaluate(model, formula)


def test_every_node_class_has_one_entry():
    classes = {
        cls for cls in vars(fm).values()
        if isinstance(cls, type) and issubclass(cls, fm.Formula)
    } - {fm.Formula, fm.Modal}
    assert set(semantics._OPS) == classes


@pytest.mark.parametrize(
    "body, error",
    [
        (fm.K(9, fm.Var("X")), UnknownAgentError),
        (fm.Not(fm.Var("X")), fm.PositivityError),
        (fm.KTime(0, 1, fm.Var("X")), EvalError),
    ],
    ids=["agent", "positivity", "clocks"],
)
def test_gfp_makes_the_checks_evaluate_makes(body, error):
    model = SCENARIOS["muddy_children"](n=2, announce=True, rounds=2).model
    assert model.system.runs and not model.system.has_clocks
    with pytest.raises(error) as via_evaluate:
        evaluate(model, fm.Nu("X", body))
    with pytest.raises(error) as via_gfp:
        gfp(model, "X", body)
    assert str(via_gfp.value) == str(via_evaluate.value)


def test_distributed_knowledge_over_six_agents_has_a_small_peak():
    # One full-width mask per joint class would take about 3 MiB here;
    # keying each point by its tuple of class ids takes a fraction of that
    model = SCENARIOS["broadcast_channel"](L=1, eps=2, n=6, horizon=8, clocked=True).model
    model.index
    formula = parse("D{0,1,2,3,4,5} psi_recv")
    tracemalloc.start()
    try:
        truth_mask(model, formula)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_shared_subformulas_are_handled_once_per_pass(monkeypatch):
    # iff uses each operand twice, so the tree of a 40-term chain has about
    # 2^40 nodes, on 116 distinct And nodes. Each pass reads an And's left
    # child once in the walk and at most twice in its handler; a pass over
    # the tree stops at the fourth read of a node. Failures report counts,
    # since the repr of a node spells out its tree.
    model = random_model(random.Random(41))
    chain = parse(" <-> ".join(["p"] * 40))
    ands = {id(n) for n in fm.postorder(chain) if isinstance(n, fm.And)}
    distinct = len(ands)
    assert distinct == 116
    reads: Counter = Counter()
    slot = fm.And.__dict__["left"]

    def read(node):
        reads[id(node)] += 1
        if reads[id(node)] > 3:
            raise AssertionError("an And node was handled again")
        return slot.__get__(node, fm.And)

    monkeypatch.setattr(fm.And, "left", property(read, slot.__set__))
    passes = [
        lambda f: semantics._eval(model, f, {}),
        fm.agents_mentioned,
        fm.check_positivity,
        fm.expand_fixpoints,
    ]
    for run in passes:
        reads.clear()
        result = run(chain)
        missed = len(ands - reads.keys())
        assert missed == 0
    monkeypatch.undo()
    valid = semantics._eval(model, chain, {}) == model.system.full
    assert valid  # an even number of equal terms
