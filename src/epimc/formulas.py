"""Formula language: AST, concrete syntax, positivity, desugaring.

The language has propositions, negation, conjunction, individual
knowledge K, group operators S/E/E^k/D/C, the interval variant Eeps/Ceps,
the eventual variant Ev/Cv, clock-indexed Kt/Et/Ct, and a greatest
fixed-point binder nu. Or, implication, and iff are surface syntax only
and parse into negation and conjunction.

Every prefix operator is a ``Modal`` subclass, and ``MODALS``, which maps
each head keyword to its class, is the one place heads are defined. Equal
nodes are one object, and every walk over a formula is a loop.

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

import functools
import itertools
import re
import weakref
from typing import Callable, ClassVar, Iterable, Iterator, NamedTuple

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


#: Every live node by its class and fields. A child is a key by identity,
#: since equal children are already one node.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Formula:
    """Base class of every node. A node class lists its fields in
    ``__slots__``, and they drive its constructor (positional or keyword)
    and repr. Nodes are hash-consed: building a node of the same class and
    fields as a live one returns that one, so equal formulas are one
    object and compare and hash by identity (``Prop('X') is not
    Var('X')``), and a formula is a DAG in which each distinct subformula
    occurs once. Nodes are frozen: assigning a field raises
    ``AttributeError``, and ``_replace`` gives the node with some fields
    changed."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *args, **kwargs):
        names = cls.__slots__
        rest = names[len(args):]
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(f"{cls.__name__} takes the fields {names}")
        values = (*args, *map(kwargs.get, rest))
        key = (cls, *values)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = super().__new__(cls)
            for name, value in zip(names, values):
                object.__setattr__(node, name, value)
        return node

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes) -> Formula:
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):
        return type(self), self._values()


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
    the parser (through ``MODALS``), the printer, ``agents_mentioned`` and
    ``expand_fixpoints`` read them instead of naming classes, and the
    evaluator generates its C-form entries, C's aside, from ``unfolds``:

    - ``head``: the keyword; a ``by_agent`` head takes the agent as a
      numeric suffix (``K0``), the others take a group (``E{0,1}``);
    - ``param``: the name of the integer field, written ``[n]`` after the
      head (``^n`` for E^k), or None;
    - ``least``: the smallest value ``param`` may take;
    - ``unfolds``: for the C-family, the E-form whose greatest fixed point
      the operator is (``C G f`` is ``nu X. E G (f & X)``); a C-form has
      the fields of its E-form.

    Every subclass lists its fields in ``__slots__`` in the order index,
    integer, child. A group must be nonempty.
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

    def __new__(cls, *args, **kwargs):
        node = super().__new__(cls, *args, **kwargs)
        value = getattr(node, cls.param) if cls.param else None
        if value is not None and value < cls.least:
            raise FormulaError(
                f"{cls.param} of {cls.head} must be at least {cls.least}, got {value}"
            )
        if not cls.by_agent and not node.group:
            raise FormulaError(f"the group of {cls.head} must be nonempty")
        return node


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


def _integer(digits: str, pos: int) -> int:
    """The value of ``digits``, which stand at ``pos``; a ``ParseError``
    when they are more than ``int`` converts."""
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None


def _modal_of(name: str, pos: int) -> tuple[type[Modal], int | None] | None:
    """The operator a name token at ``pos`` starts, with the agent of a
    K-like head (``Kt12`` -> KTime, 12); None when the name is not a head."""
    cls = MODALS.get(name)
    if cls is not None and not cls.by_agent:
        return cls, None
    m = _AGENT_SUFFIX_RE.fullmatch(name)
    if m:
        cls = MODALS.get(m.group(1))
        if cls is not None and cls.by_agent:
            return cls, _integer(m.group(2), pos + m.start(2))
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


def _expect(tokens: list[_Token], kind: str) -> str:
    """Take the next token of ``tokens`` (read from the end), which must be
    of ``kind``; its text."""
    tok = tokens.pop()
    if tok.kind != kind:
        raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
    return tok.text


def _expect_int(tokens: list[_Token]) -> int:
    """Take the next token of ``tokens``, which must be an integer; its value."""
    pos = tokens[-1].pos
    return _integer(_expect(tokens, "int"), pos)


def _modal_prefix(tokens: list[_Token], cls: type[Modal], agent: int | None):
    """The builder of a modal head's node from its operand, after taking
    the head's integer and group from ``tokens``."""
    if cls is E and tokens[-1].kind == "^":  # E^k: the caret form
        tokens.pop()
        cls, params = EPow, [_expect_int(tokens)]
    elif cls.param:
        _expect(tokens, "[")
        params = [_expect_int(tokens)]
        _expect(tokens, "]")
    else:
        params = []
    index = agent
    if not cls.by_agent:
        _expect(tokens, "{")
        members = {_expect_int(tokens)}
        while tokens[-1].kind == ",":
            tokens.pop()
            members.add(_expect_int(tokens))
        _expect(tokens, "}")
        index = tuple(sorted(members))
    return lambda child: cls(index, *params, child)


_PREC_NU, _PREC_AND, _PREC_PREFIX, _PREC_ATOM = 0, 4, 5, 6

#: Token -> (precedence, right-associative, builder) of its connective.
#: A prefix takes one operand and binds tightest: ``~`` here, and each
#: modal head, whose entry ``_modal_prefix`` makes where it occurs. ``nu``
#: is a prefix too, the loosest-binding one, so its body extends as far
#: right as possible.
_CONNECTIVES: dict[str, tuple[int, bool, Callable[..., Formula]]] = {
    "<->": (1, False, iff),
    "->": (2, True, implies),
    "|": (3, False, disj),
    "&": (_PREC_AND, False, And),
    "~": (_PREC_PREFIX, True, Not),
}

_OPEN = (-1, False, None)  # an open parenthesis on the connective stack


def parse(text: str, free_vars: Iterable[str] = ()) -> Formula:
    """Parse concrete syntax into an AST.

    Identifiers bound by an enclosing ``nu`` (or listed in ``free_vars``)
    become variables; every other identifier is a proposition.

    One loop reads the tokens, keeping the operands built so far and the
    connectives that still wait for an operand on two stacks; a
    connective is built once a looser one, a closing parenthesis or the
    end shows that its operands are complete. So no nesting depth
    recurses, and errors are reported at the tokens where a
    recursive-descent reading of the grammar reports them.
    """
    free = frozenset(free_vars)
    tokens = _tokenize(text)[::-1]
    operands: list[Formula] = []
    pending: list[tuple[int, bool, Callable[..., Formula] | None]] = []
    bound: list[str] = []  # the variables of the open nu binders
    opened = 0  # open parentheses

    def reduce() -> None:
        prec, _, build = pending.pop()
        if prec == _PREC_NU:
            bound.pop()
        if prec in (_PREC_NU, _PREC_PREFIX):
            operands.append(build(operands.pop()))
        else:
            right = operands.pop()
            operands.append(build(operands.pop(), right))

    want_operand = True
    while True:
        tok = tokens.pop()
        if want_operand:
            name = tok.text if tok.kind == "name" else None
            modal = name and _modal_of(name, tok.pos)
            if tok.kind == "(":
                pending.append(_OPEN)
                opened += 1
            elif tok.kind == "~":
                pending.append(_CONNECTIVES["~"])
            elif modal:
                pending.append((_PREC_PREFIX, True, _modal_prefix(tokens, *modal)))
            elif name == "nu":
                var_pos = tokens[-1].pos
                var = _expect(tokens, "name")
                if var in _RESERVED or _modal_of(var, var_pos):
                    raise ParseError(f"{var!r} is reserved and cannot bind", tok.pos)
                _expect(tokens, ".")
                bound.append(var)
                pending.append((_PREC_NU, True, lambda body, var=var: Nu(var, body)))
            elif name is None:
                raise ParseError(
                    f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos
                )
            else:
                leaf = Var if name in bound or name in free else Prop
                operands.append(TrueConst() if name == "true" else leaf(name))
                want_operand = False
            continue
        prec, right, build = _CONNECTIVES.get(tok.kind, _OPEN)
        if _PREC_NU < prec < _PREC_PREFIX:  # a binary connective
            while pending and (pending[-1][0] > prec or pending[-1][0] == prec and not right):
                reduce()
            pending.append((prec, right, build))
            want_operand = True
            continue
        while pending and pending[-1] is not _OPEN:
            reduce()
        if tok.kind == ")" and opened:
            pending.pop()
            opened -= 1
        elif opened:
            raise ParseError(f"expected ')', found {tok.text or 'end of input'!r}", tok.pos)
        elif tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        else:
            return operands.pop()


# ---------------------------------------------------------------------------
# Printing

def fmt_group(group: Iterable[int]) -> str:
    """A group as the formula syntax writes it, ``{0,1}``."""
    return "{" + ",".join(map(str, group)) + "}"


def modal_head(f: Modal) -> str:
    """``K0``, ``Kt0[3]``, ``E{0,1}``, ``Ceps[2]{0,1}`` or ``E^3{0,1}``."""
    text = f.head + (str(f.agent) if f.by_agent else "")
    if f.param is not None:
        value = getattr(f, f.param)
        text += str(value) if isinstance(f, EPow) else f"[{value}]"  # E^k: caret form
    return text if f.by_agent else text + fmt_group(f.group)


def print_formula(f: Formula) -> str:
    """Deterministic pretty-printer; ``parse(print_formula(f)) is f``.

    The text spells a shared subformula out wherever it occurs, so this
    walks the tree, not the DAG: a stack holds the pieces still to write,
    each a string or a node with the least precedence it may have
    unparenthesized there.
    """
    out = []
    stack: list = [(f, _PREC_NU)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, least = item
        if isinstance(node, (Prop, Var)):
            prec, pieces = _PREC_ATOM, [node.name]
        elif isinstance(node, TrueConst):
            prec, pieces = _PREC_ATOM, ["true"]
        elif isinstance(node, And):
            prec, pieces = _PREC_AND, [(node.left, _PREC_AND), " & ", (node.right, _PREC_PREFIX)]
        elif isinstance(node, Nu):
            prec, pieces = _PREC_NU, [f"nu {node.var}. ", (node.body, _PREC_NU)]
        elif isinstance(node, (Not, Modal)):
            head = "~" if isinstance(node, Not) else modal_head(node) + " "
            prec, pieces = _PREC_PREFIX, [head, (node.child, _PREC_PREFIX)]
        else:
            raise FormulaError(f"cannot print {type(node).__name__}")
        if prec < least:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


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


def postorder(f: Formula, into_nu: bool = True) -> Iterator[Formula]:
    """Every distinct node of ``f`` once, each after its children, taken
    left to right; with ``into_nu`` false, a ``Nu`` comes without its
    body. A subformula shared by several parents is yielded once, so the
    walk is linear in the DAG, not in the tree it unfolds to."""
    seen: set[Formula] = set()
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            yield node
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            if into_nu or not isinstance(node, Nu):
                stack.extend((child, False) for child in reversed(children(node)))


def agents_mentioned(f: Formula) -> frozenset[int]:
    out: set[int] = set()
    for node in postorder(f):
        if isinstance(node, Modal):
            out.update((node.agent,) if node.by_agent else node.group)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Positivity

def find_negative_occurrence(f: Formula) -> tuple[str, str] | None:
    """First nu-bound variable occurring under an odd number of negations.

    Returns (variable, path) or None. The path walks from the offending
    nu binder down to the occurrence. "First" is in the order of a
    left-to-right walk of the tree: the first nu binder with such an
    occurrence, and its first one.

    Each node is visited once, after its children. It keeps, for each
    variable free in it and each parity of the negations above an
    occurrence, the steps down to the first such occurrence (a linked
    list), and the first hit at or below it.
    """
    below: dict[Formula, dict[tuple[str, bool], tuple | None]] = {}
    hit: dict[Formula, tuple[str, str] | None] = {}
    for node in postorder(f):
        kids = children(node)
        if isinstance(node, And):
            steps = (".&L", ".&R")
        elif isinstance(node, Nu):
            steps = (f".nu {node.var}",)
        else:
            steps = (".~" if isinstance(node, Not) else f".{type(node).__name__}",)
        table = {(node.name, False): None} if isinstance(node, Var) else {}
        for step, child in zip(steps, kids):
            for (var, odd), rest in below[child].items():
                if not (isinstance(node, Nu) and var == node.var):  # rebinding shadows
                    table.setdefault((var, odd ^ isinstance(node, Not)), (step, rest))
        below[node] = table
        if isinstance(node, Nu) and (node.var, True) in below[node.body]:
            path, rest = [f"nu {node.var}"], below[node.body][node.var, True]
            while rest:
                step, rest = rest
                path.append(step)
            hit[node] = (node.var, "".join(path))
        else:
            hit[node] = next(filter(None, map(hit.get, kids)), None)
    return hit[f]


def check_positivity(f: Formula) -> None:
    """Raise PositivityError unless every nu body is positive in its variable."""
    hit = find_negative_occurrence(f)
    if hit is not None:
        raise PositivityError(hit[0], hit[1])


# ---------------------------------------------------------------------------
# Desugaring

def expand_fixpoints(f: Formula) -> Formula:
    """Rewrite derived operators into the kernel language.

    C, Ceps, Cv, and Ct become explicit nu forms over E, Eeps, Ev, and Et
    with fresh variables; E^k unrolls to k nested E; S becomes a
    disjunction of individual knowledge. The output evaluates to the same
    point set as the input on every model. A shared subformula is
    rewritten once, so the operators in it share their fresh variables.
    """
    nodes = list(postorder(f))
    taken = {n.name if isinstance(n, Var) else n.var for n in nodes if isinstance(n, (Var, Nu))}
    fresh = (name for name in map("X{}".format, itertools.count()) if name not in taken)
    # names go to the operators in the order a walk from the root meets
    # them, so an outer operator gets a lower number than those in it
    names: dict[Formula, str] = {}
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if isinstance(node, Modal) and node.unfolds is not None:
                names[node] = next(fresh)
            stack.extend(reversed(children(node)))
    out: dict[Formula, Formula] = {}
    for node in nodes:
        kids = [out[c] for c in children(node)]
        if isinstance(node, S):
            new = functools.reduce(disj, (K(agent, kids[0]) for agent in node.group))
        elif isinstance(node, EPow):
            new = kids[0]
            for _ in range(node.power):
                new = E(node.group, new)
        elif node in names:
            x = names[node]
            params = [getattr(node, node.param)] if node.param else []
            new = Nu(x, node.unfolds(node.group, *params, And(kids[0], Var(x))))
        elif isinstance(node, (Not, Modal)):
            new = node._replace(child=kids[0])
        elif isinstance(node, And):
            new = And(*kids)
        elif isinstance(node, Nu):
            new = Nu(node.var, kids[0])
        else:
            new = node
        out[node] = new
    return out[f]
