import json
import re
from pathlib import Path

import pytest

from epimc import formulas as fm
from epimc.formulas import (
    FormulaError,
    ParseError,
    PositivityError,
    check_positivity,
    expand_fixpoints,
    parse,
    print_formula,
)


def test_parse_individual_knowledge():
    assert parse("K1 m") == fm.K(1, fm.Prop("m"))
    assert parse("K1 m") == fm.K(agent=1, child=fm.Prop(name="m"))
    assert repr(parse("K0 p")) == "K(agent=0, child=Prop(name='p'))"
    assert repr(parse("true")) == "TrueConst()"


def test_parse_nu_binding():
    f = parse("nu X. E{1,2}(m & X)")
    assert f == fm.Nu("X", fm.E((1, 2), fm.And(fm.Prop("m"), fm.Var("X"))))


def test_common_knowledge_expands_to_its_nu_form():
    c = parse("C{1,2} m")
    assert c == fm.C((1, 2), fm.Prop("m"))
    expanded = expand_fixpoints(c)
    assert isinstance(expanded, fm.Nu)
    body = expanded.body
    assert isinstance(body, fm.E) and body.group == (1, 2)
    assert body.child == fm.And(fm.Prop("m"), fm.Var(expanded.var))


def test_parse_every_operator_form():
    text = (
        "Kt1[5] p & Et[5]{0,1} p & Ct[5]{0,1} p & Eeps[2]{0,1} p & "
        "Ceps[2]{0,1} p & Ev{0,1} p & Cv{0,1} p & D{0,1} p & S{0,1} p & "
        "E^3{0,1} p & true"
    )
    f = parse(text)
    kinds = {type(n).__name__ for n in fm.postorder(f)}
    for name in ("KTime", "ETime", "CTime", "EEps", "CEps", "EDiamond",
                 "CDiamond", "D", "S", "EPow", "TrueConst"):
        assert name in kinds


def test_derived_connectives_desugar():
    assert parse("a | b") == fm.Not(fm.And(fm.Not(fm.Prop("a")), fm.Not(fm.Prop("b"))))
    assert parse("a -> b") == fm.Not(fm.And(fm.Prop("a"), fm.Not(fm.Prop("b"))))
    assert parse("a <-> b") == fm.iff(fm.Prop("a"), fm.Prop("b"))


def test_precedence_negation_tightest_then_modal_then_and():
    assert parse("~a & b") == fm.And(fm.Not(fm.Prop("a")), fm.Prop("b"))
    assert parse("K1 a & b") == fm.And(fm.K(1, fm.Prop("a")), fm.Prop("b"))
    assert parse("K1 (a & b)") == fm.K(1, fm.And(fm.Prop("a"), fm.Prop("b")))
    # implication is right associative
    assert parse("a -> b -> c") == parse("a -> (b -> c)")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("K1 &")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse("E{} m")
    with pytest.raises(ParseError):
        parse("nu true. m")


def test_free_variables_must_be_declared():
    assert parse("X", free_vars=["X"]) == fm.Var("X")
    assert parse("X") == fm.Prop("X")
    # nodes compare by class as well as fields
    assert fm.Prop("X") != fm.Var("X") and not fm.Prop("X") == fm.Var("X")
    assert parse("X") != parse("X", free_vars=["X"])


def test_positivity_accepts_even_negations():
    check_positivity(parse("nu X. E{1}(m & X)"))
    check_positivity(parse("nu X. ~K1 ~X"))


def test_positivity_rejects_odd_negations_with_path():
    with pytest.raises(PositivityError) as err:
        check_positivity(parse("nu X. ~X"))
    assert "nu X" in err.value.path
    with pytest.raises(PositivityError):
        check_positivity(parse("nu X. K1 ~X"))


def test_expand_unrolls_powers_and_someone():
    two = expand_fixpoints(parse("E^2{1,2} m"))
    assert two == fm.E((1, 2), fm.E((1, 2), fm.Prop("m")))
    someone = expand_fixpoints(parse("S{1,2} m"))
    names = {type(n).__name__ for n in fm.postorder(someone)}
    assert "S" not in names and "K" in names


def test_expand_is_identity_on_the_kernel_fragment():
    f = parse("K1 (m & ~E{0,1} q)")
    assert expand_fixpoints(f) == f


def test_expand_output_has_no_derived_operators_and_stays_positive():
    f = parse("C{0,1}(m & Ceps[1]{0,1} q) & S{0,1} Cv{0,1} m & Ct[3]{0,1} q")
    out = expand_fixpoints(f)
    banned = {"C", "CEps", "CDiamond", "CTime", "EPow", "S"}
    assert not banned & {type(n).__name__ for n in fm.postorder(out)}
    check_positivity(out)


def test_expand_uses_fresh_variables():
    f = parse("nu X0. (m & X0) & C{0,1} m")
    out = expand_fixpoints(f)
    nus = [n for n in fm.postorder(out) if isinstance(n, fm.Nu)]
    assert len({n.var for n in nus}) == len(nus)


def test_expand_numbers_outer_fixpoints_first():
    out = expand_fixpoints(parse("C{0,1} Cv{0} p"))
    inner = fm.Nu("X1", fm.EDiamond((0,), fm.And(fm.Prop("p"), fm.Var("X1"))))
    assert out == fm.Nu("X0", fm.E((0, 1), fm.And(inner, fm.Var("X0"))))


def test_print_round_trip_on_kernel_and_derived_nodes():
    texts = [
        "K1 m",
        "nu X. E{1,2} (m & X)",
        "~(a & ~b)",
        "C{0,1} m",
        "Ceps[2]{0,1} (p & q)",
        "Kt0[3] p & Et[3]{0,1} q",
        "E^2{0,1} ~p",
        "Ev{0,2} (p & (q & s))",
    ]
    for text in texts:
        f = parse(text)
        assert parse(print_formula(f)) == f


def test_group_is_sorted_and_deduplicated():
    assert parse("E{2,1,2} m") == parse("E{1,2} m")


def test_reserved_words_cannot_be_propositions():
    with pytest.raises(ParseError):
        parse("E")
    with pytest.raises(ParseError):
        parse("nu & m")


@pytest.mark.parametrize("head", list(fm.MODALS))
def test_every_modal_head_parses_prints_reserves_and_unfolds(head):
    cls = fm.MODALS[head]
    p = fm.Prop("p")
    index = 1 if cls.by_agent else (0, 2)
    params = [cls.least + 2] if cls.param else []
    f = cls(index, *params, p)
    assert parse(print_formula(f)) is f
    same = cls(index, *params, fm.Prop("p"))
    assert f is same and hash(f) == hash(same)
    assert f._replace(child=fm.Var("p")) == cls(index, *params, fm.Var("p")) != f
    twins = [c for c in fm.MODALS.values() if c is not cls and c.__slots__ == cls.__slots__]
    assert all(twin(index, *params, p) != f for twin in twins)
    with pytest.raises(AttributeError):
        f.child = fm.Var("p")
    with pytest.raises(TypeError):
        cls(index)
    name = head + ("1" if cls.by_agent else "")
    with pytest.raises(ParseError):
        parse(name)
    with pytest.raises(ParseError):
        parse(f"nu {name}. p")
    # only the K-like heads take an agent suffix; the bare K is a name
    other = head if cls.by_agent else head.rstrip("^") + "1"
    assert parse(other) == fm.Prop(other)
    if cls.param:
        least = f"{cls.param} of {head} must be at least {cls.least}"
        with pytest.raises(FormulaError, match=re.escape(least)):
            cls(index, cls.least - 1, p)
    if not cls.by_agent:  # the parser never makes an empty group; the API can
        empty = f"the group of {head} must be nonempty"
        with pytest.raises(FormulaError, match=re.escape(empty)):
            cls((), *params, p)
    if cls.unfolds:
        x = fm.Var("X0")
        assert expand_fixpoints(f) == fm.Nu("X0", cls.unfolds(index, *params, fm.And(p, x)))


def test_parser_matches_the_recorded_cases():
    # generated and mutated strings, each with the repr of the AST, or the
    # error, that a recursive-descent reading of the grammar gives; a third
    # entry is the free_vars to parse with
    cases = json.loads((Path(__file__).parent / "parse_cases.json").read_text())
    assert len(cases) >= 2000
    for text, expected, *free in cases:
        try:
            got = repr(parse(text, free_vars=free[0] if free else ()))
        except FormulaError as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == expected, text


def test_equal_nodes_are_one_node():
    f = parse("K0 p & ~(K0 p)")
    assert f.left is f.right.child is fm.K(0, fm.Prop("p"))
    assert fm.Prop("X") is not fm.Var("X")
    assert parse("E{2,1,2} m") is parse("E{1,2} m")
    # p <-> p is one And of two equal nodes over p, ~p, p & ~p and
    # ~(p & ~p); each later term adds six; counted without a repr, since
    # the tree these 233 nodes spell out has about 2^40 nodes
    chain = parse(" <-> ".join(["p"] * 40))
    distinct = sum(1 for _ in fm.postorder(chain))
    assert distinct == 5 + 6 * 38


DEEP = {
    "negation": "~" * 10_000 + "p",
    "knowledge": "K0 " * 10_000 + "p",
    "parentheses": "(" * 10_000 + "p" + ")" * 10_000,
    "common": "C{0,1} " * 10_000 + "p",
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_ten_thousand_deep_formulas_parse_print_and_expand(text):
    f = parse(text)
    printed = print_formula(f)
    assert parse(printed) is f and len(printed) <= len(text)
    check_positivity(f)
    expanded = expand_fixpoints(f)
    assert parse(print_formula(expanded)) is expanded
    check_positivity(expanded)
    nus = [n for n in fm.postorder(expanded) if isinstance(n, fm.Nu)]
    assert len(nus) == text.count("C")
    assert fm.agents_mentioned(f) == {"~": set(), "K": {0}, "(": set(), "C": {0, 1}}[text[0]]

