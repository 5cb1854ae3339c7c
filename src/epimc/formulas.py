"""Formula language: AST, concrete syntax, positivity, desugaring.

The language has propositions, negation, conjunction, individual
knowledge K, group operators S/E/E^k/D/C, the interval variant Eeps/Ceps,
the eventual variant Ev/Cv, clock-indexed Kt/Et/Ct, and a greatest
fixed-point binder nu. Or, implication, and iff are surface syntax only
and parse into negation and conjunction.

Every prefix operator is a ``Modal`` subclass, and ``MODALS``, which maps
each head keyword to its class, is the one place heads are defined.

Concrete syntax (full grammar in docs/grammar.ebnf)::

    ~a  a & b  a | b  a -> b  a <-> b  true
    K1 a        S{0,1} a      E{0,1} a     E^3{0,1} a    D{0,1} a
    C{0,1} a    Eeps[2]{0,1} a   Ceps[2]{0,1} a
    Ev{0,1} a   Cv{0,1} a
    Kt1[5] a    Et[5]{0,1} a  Ct[5]{0,1} a
    nu X. E{0,1}(a & X)

Negation binds tightest, then modal prefixes, then & | -> <->; a nu body
extends as far right as possible.
"""

from __future__ import annotations

import re
from typing import ClassVar, Iterable, Iterator, NamedTuple

AgentSet = tuple[int, ...]


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PositivityError(FormulaError):
    def __init__(self, variable: str, path: str):
        super().__init__(
            f"variable {variable!r} occurs negatively at {path}; fixed-point "
            f"bodies must use their variable under an even number of negations"
        )
        self.variable = variable
        self.path = path


class Formula:
    """Base class of every node. A node class lists its fields in
    ``__slots__``, and they drive its constructor (positional or keyword),
    equality (class and fields: ``Prop('X') != Var('X')``), hash and
    repr. Nodes are frozen: assigning a field raises ``AttributeError``,
    and ``_replace`` copies a node with some fields changed."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        rest = names[len(args):]
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, (*args, *map(kwargs.get, rest))):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes) -> Formula:
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):
        return type(self), self._values()


def _group(agents: Iterable[int]) -> AgentSet:
    members = tuple(sorted(set(int(a) for a in agents)))
    if not members:
        raise FormulaError("agent group must be nonempty")
    return members


class Prop(Formula):
    __slots__ = ("name",)
    name: str


class TrueConst(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("child",)
    child: Formula


class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


class Modal(Formula):
    """A prefix operator: a head keyword, an agent or a group, an optional
    integer, then the operand ``child``.

    Each subclass declares its syntax and meaning as class keywords, and
    the parser (through ``MODALS``), the printer, ``agents_mentioned``,
    ``expand_fixpoints`` and the evaluator read them instead of naming
    classes:

    - ``head``: the keyword; a ``by_agent`` head takes the agent as a
      numeric suffix (``K0``), the others take a group (``E{0,1}``);
    - ``param``: the name of the integer field, written ``[n]`` after the
      head (``^n`` for E^k), or None;
    - ``least``: the smallest value ``param`` may take;
    - ``unfolds``: for the C-family, the E-form whose greatest fixed point
      the operator is (``C G f`` is ``nu X. E G (f & X)``); a C-form has
      the fields of its E-form.

    Every subclass lists its fields in ``__slots__`` in the order index,
    integer, child.
    """

    __slots__ = ()

    head: ClassVar[str]
    by_agent: ClassVar[bool]
    param: ClassVar[str | None]
    least: ClassVar[int]
    unfolds: ClassVar[type[Modal] | None]

    def __init_subclass__(
        cls,
        head: str,
        by_agent: bool = False,
        param: str | None = None,
        least: int = 0,
        unfolds: type[Modal] | None = None,
    ):
        super().__init_subclass__()
        cls.head = head
        cls.by_agent = by_agent
        cls.param = param
        cls.least = least
        cls.unfolds = unfolds

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.param is None:
            return
        value = getattr(self, self.param)
        if value < self.least:
            raise FormulaError(
                f"{self.param} of {self.head} must be at least {self.least}, got {value}"
            )


class K(Modal, head="K", by_agent=True):
    __slots__ = ("agent", "child")
    agent: int
    child: Formula


class S(Modal, head="S"):
    __slots__ = ("group", "child")
    group: AgentSet
    child: Formula


class E(Modal, head="E"):
    __slots__ = ("group", "child")
    group: AgentSet
    child: Formula


class EPow(Modal, head="E^", param="power", least=1):
    __slots__ = ("group", "power", "child")
    group: AgentSet
    power: int
    child: Formula


class D(Modal, head="D"):
    __slots__ = ("group", "child")
    group: AgentSet
    child: Formula


class C(Modal, head="C", unfolds=E):
    __slots__ = ("group", "child")
    group: AgentSet
    child: Formula


class EEps(Modal, head="Eeps", param="eps"):
    __slots__ = ("group", "eps", "child")
    group: AgentSet
    eps: int
    child: Formula


class CEps(Modal, head="Ceps", param="eps", unfolds=EEps):
    __slots__ = ("group", "eps", "child")
    group: AgentSet
    eps: int
    child: Formula


class EDiamond(Modal, head="Ev"):
    __slots__ = ("group", "child")
    group: AgentSet
    child: Formula


class CDiamond(Modal, head="Cv", unfolds=EDiamond):
    __slots__ = ("group", "child")
    group: AgentSet
    child: Formula


class KTime(Modal, head="Kt", by_agent=True, param="stamp"):
    __slots__ = ("agent", "stamp", "child")
    agent: int
    stamp: int
    child: Formula


class ETime(Modal, head="Et", param="stamp"):
    __slots__ = ("group", "stamp", "child")
    group: AgentSet
    stamp: int
    child: Formula


class CTime(Modal, head="Ct", param="stamp", unfolds=ETime):
    __slots__ = ("group", "stamp", "child")
    group: AgentSet
    stamp: int
    child: Formula


#: Every prefix operator by head keyword; the one place heads are defined.
MODALS: dict[str, type[Modal]] = {cls.head: cls for cls in Modal.__subclasses__()}


class Var(Formula):
    __slots__ = ("name",)
    name: str


class Nu(Formula):
    __slots__ = ("var", "body")
    var: str
    body: Formula


def disj(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow2><->)|(?P<arrow>->)|(?P<sym>[~&|(){}\[\],.^])"
    r"|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*))"
)

_AGENT_SUFFIX_RE = re.compile(r"([A-Za-z]+)(\d+)")

_RESERVED = {"nu", "true"}


def _modal_of(name: str) -> tuple[type[Modal], int | None] | None:
    """The operator a name token starts, with the agent of a K-like head
    (``Kt12`` -> KTime, 12); None when the name is not a head."""
    cls = MODALS.get(name)
    if cls is not None and not cls.by_agent:
        return cls, None
    m = _AGENT_SUFFIX_RE.fullmatch(name)
    if m:
        cls = MODALS.get(m.group(1))
        if cls is not None and cls.by_agent:
            return cls, int(m.group(2))
    return None


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        pos = m.end()
        if m.lastgroup == "arrow2":
            tokens.append(_Token("<->", "<->", m.start("arrow2")))
        elif m.lastgroup == "arrow":
            tokens.append(_Token("->", "->", m.start("arrow")))
        elif m.lastgroup == "sym":
            tokens.append(_Token(m.group("sym"), m.group("sym"), m.start("sym")))
        elif m.lastgroup == "int":
            tokens.append(_Token("int", m.group("int"), m.start("int")))
        else:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, free_vars: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.bound: list[str] = []
        self.free_vars = free_vars

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.iff_level()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return f

    def iff_level(self) -> Formula:
        f = self.implies_level()
        while self.peek().kind == "<->":
            self.take()
            f = iff(f, self.implies_level())
        return f

    def implies_level(self) -> Formula:
        f = self.or_level()
        if self.peek().kind == "->":
            self.take()
            return implies(f, self.implies_level())
        return f

    def or_level(self) -> Formula:
        f = self.and_level()
        while self.peek().kind == "|":
            self.take()
            f = disj(f, self.and_level())
        return f

    def and_level(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return Not(self.unary())
        if tok.kind == "name":
            modal = self.try_modal(tok)
            if modal is not None:
                return modal
        return self.atom()

    def try_modal(self, tok: _Token) -> Formula | None:
        found = _modal_of(tok.text)
        if found is None:
            return None
        cls, agent = found
        self.take()
        if cls is E and self.peek().kind == "^":  # E^k: the caret form
            self.take()
            cls = EPow
            params = [int(self.take("int").text)]
        else:
            params = [self.bracket_int()] if cls.param else []
        index = agent if cls.by_agent else self.group()
        return cls(index, *params, self.unary())

    def bracket_int(self) -> int:
        self.take("[")
        value = int(self.take("int").text)
        self.take("]")
        return value

    def group(self) -> AgentSet:
        tok = self.take("{")
        members = [int(self.take("int").text)]
        while self.peek().kind == ",":
            self.take()
            members.append(int(self.take("int").text))
        self.take("}")
        try:
            return _group(members)
        except FormulaError as exc:
            raise ParseError(str(exc), tok.pos) from None

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            f = self.iff_level()
            self.take(")")
            return f
        if tok.kind == "name":
            name = tok.text
            if name == "true":
                self.take()
                return TrueConst()
            if name == "nu":
                self.take()
                var = self.take("name").text
                if var in _RESERVED or _modal_of(var):
                    raise ParseError(f"{var!r} is reserved and cannot bind", tok.pos)
                self.take(".")
                self.bound.append(var)
                try:
                    body = self.iff_level()
                finally:
                    self.bound.pop()
                return Nu(var, body)
            self.take()
            if name in self.bound or name in self.free_vars:
                return Var(name)
            return Prop(name)
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse(text: str, free_vars: Iterable[str] = ()) -> Formula:
    """Parse concrete syntax into an AST.

    Identifiers bound by an enclosing ``nu`` (or listed in ``free_vars``)
    become variables; every other identifier is a proposition.
    """
    return _Parser(text, frozenset(free_vars)).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC_NU = 0
_PREC_AND = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


def _fmt_group(group: AgentSet) -> str:
    return "{" + ",".join(str(a) for a in group) + "}"


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, (Prop, Var)):
        return f.name, _PREC_ATOM
    if isinstance(f, TrueConst):
        return "true", _PREC_ATOM
    if isinstance(f, Not):
        return "~" + _child(f.child, _PREC_UNARY), _PREC_UNARY
    if isinstance(f, And):
        left = _child(f.left, _PREC_AND)
        right = _child(f.right, _PREC_AND + 1)
        return f"{left} & {right}", _PREC_AND
    if isinstance(f, Nu):
        body, _ = _render(f.body)
        return f"nu {f.var}. {body}", _PREC_NU
    if isinstance(f, Modal):
        return modal_head(f) + " " + _child(f.child, _PREC_UNARY), _PREC_UNARY
    raise FormulaError(f"cannot print {type(f).__name__}")


def modal_head(f: Modal) -> str:
    """``K0``, ``Kt0[3]``, ``E{0,1}``, ``Ceps[2]{0,1}`` or ``E^3{0,1}``."""
    text = f.head + (str(f.agent) if f.by_agent else "")
    if f.param is not None:
        value = getattr(f, f.param)
        text += str(value) if isinstance(f, EPow) else f"[{value}]"  # E^k: caret form
    return text if f.by_agent else text + _fmt_group(f.group)


def _child(f: Formula, min_prec: int) -> str:
    text, prec = _render(f)
    if prec < min_prec:
        return f"({text})"
    return text


def print_formula(f: Formula) -> str:
    """Deterministic pretty-printer; ``parse(print_formula(f)) == f``."""
    return _render(f)[0]


# ---------------------------------------------------------------------------
# Structure queries

def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Modal)):
        return (f.child,)
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, Nu):
        return (f.body,)
    return ()


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from walk(c)


def agents_mentioned(f: Formula) -> frozenset[int]:
    out: set[int] = set()
    for node in walk(f):
        if isinstance(node, Modal):
            out.update((node.agent,) if node.by_agent else node.group)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Positivity

def find_negative_occurrence(f: Formula) -> tuple[str, str] | None:
    """First nu-bound variable occurring under an odd number of negations.

    Returns (variable, path) or None. The path walks from the offending
    nu binder down to the occurrence.
    """

    def scan(node: Formula, tracked: str, positive: bool, path: str) -> tuple[str, str] | None:
        if isinstance(node, Var):
            if node.name == tracked and not positive:
                return (tracked, path)
            return None
        if isinstance(node, Not):
            return scan(node.child, tracked, not positive, path + ".~")
        if isinstance(node, And):
            hit = scan(node.left, tracked, positive, path + ".&L")
            if hit:
                return hit
            return scan(node.right, tracked, positive, path + ".&R")
        if isinstance(node, Nu):
            if node.var == tracked:
                return None  # rebinding shadows the outer variable
            return scan(node.body, tracked, positive, path + f".nu {node.var}")
        kids = children(node)
        if not kids:
            return None
        return scan(kids[0], tracked, positive, path + f".{type(node).__name__}")

    for node in walk(f):
        if isinstance(node, Nu):
            hit = scan(node.body, node.var, True, f"nu {node.var}")
            if hit:
                return hit
    return None


def check_positivity(f: Formula) -> None:
    """Raise PositivityError unless every nu body is positive in its variable."""
    hit = find_negative_occurrence(f)
    if hit is not None:
        raise PositivityError(hit[0], hit[1])


# ---------------------------------------------------------------------------
# Desugaring

class _FreshNames:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.counter = 0

    def fresh(self) -> str:
        while True:
            name = f"X{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def expand_fixpoints(f: Formula) -> Formula:
    """Rewrite derived operators into the kernel language.

    C, Ceps, Cv, and Ct become explicit nu forms over E, Eeps, Ev, and Et
    with fresh variables; E^k unrolls to k nested E; S becomes a
    disjunction of individual knowledge. The output evaluates to the same
    point set as the input on every model.
    """
    taken = {node.name for node in walk(f) if isinstance(node, Var)}
    taken |= {node.var for node in walk(f) if isinstance(node, Nu)}
    names = _FreshNames(taken)

    def go(node: Formula) -> Formula:
        if isinstance(node, S):
            child = go(node.child)
            out: Formula = K(node.group[0], child)
            for agent in node.group[1:]:
                out = disj(out, K(agent, child))
            return out
        if isinstance(node, EPow):
            out = go(node.child)
            for _ in range(node.power):
                out = E(node.group, out)
            return out
        if isinstance(node, Modal) and node.unfolds is not None:
            # the name is taken before the child expands, so an outer
            # operator gets a lower number than the ones nested in it
            x = names.fresh()
            params = [getattr(node, node.param)] if node.param else []
            return Nu(x, node.unfolds(node.group, *params, And(go(node.child), Var(x))))
        if isinstance(node, (Not, Modal)):
            return node._replace(child=go(node.child))
        if isinstance(node, And):
            return And(go(node.left), go(node.right))
        if isinstance(node, Nu):
            return Nu(node.var, go(node.body))
        return node

    return go(f)
