"""Decoding of the JSON files epimc reads: the run part of a system, and
the reader that walks a file a chunk at a time.

Top level of a system file: ``schema`` (currently 1), ``agents`` (count),
``horizon``, ``runs``, and optionally ``valuation`` and ``policy``.
Details and examples live in docs/file-formats.md. ``system_from_dict``
decodes the run part alone.

A file is parsed by ``load_document``, which reads it in chunks of
``CHUNK`` bytes and decodes each run as soon as it is parsed, checking
each distinct event once per file, and, when asked for values, a
valuation's point lists and the expectations a batch at a time, so
neither the whole text nor the whole JSON document is ever held.
``load_json`` parses a text whole, for the key orders and errors that
``load_document`` leaves to it.

Other names are read from their modules on first use: the model and
manifest decoders (``valuation_from_dict``, ``model_from_dict``,
``manifest_from_dict`` and ``parse_point``, from ``decoders``) and the
writing side (``dump_json`` from ``jsontext``, and the ``*_to_dict``
functions and ``write_manifest`` from ``writer``). So a query that reads runs alone,
as ``check`` does, loads none of them, and one that only reads loads no
writer.
"""

from __future__ import annotations

import codecs
import json
import os
import re
from itertools import islice
from operator import itemgetter, le
from typing import Any, BinaryIO, Callable, Iterator, NoReturn

from . import SCHEMA_VERSION
from .runs import (
    EVENT_KINDS,
    SEND,
    ModelError,
    Run,
    System,
    canonical_timeline,
    inconsistencies,
    make_system,
    timeline_entry,
)

#: The names defined elsewhere, by the module that defines them: the
#: model and manifest decoders and the writing side.
_LAZY = {
    "dump_json": "jsontext",
    **dict.fromkeys(("valuation_from_dict", "model_from_dict", "manifest_from_dict",
                     "parse_point"), "decoders"),
    **dict.fromkeys(
        ("run_events", "run_to_dict", "system_to_dict", "valuation_to_dict",
         "model_to_dict", "manifest_to_dict", "write_manifest"),
        "writer",
    ),
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __package__), name)


_INTEGERS_ONLY = {int}


class SchemaError(ModelError):
    """A file does not match the documented schema; the message names the
    offending field path."""


_KINDS = {int: "an integer", bool: "true or false", str: "a string",
          list: "an array", dict: "an object"}


def _type_error(where: str, kind: type, value: Any) -> SchemaError:
    return SchemaError(f"{where}: expected {_KINDS[kind]}, got {value!r:.40}")


def _expect(value: Any, kind: type, where: str) -> Any:
    """``value`` if it is exactly of the JSON type ``kind``; a bool is not
    an integer and a float is not either, even when whole."""
    if type(value) is not kind:
        raise _type_error(where, kind, value)
    return value


def _need(obj: dict, key: str, path: str, kind: type | None = None) -> Any:
    """``obj[key]``, exactly of JSON type ``kind`` when one is given; the
    field path is formatted only on failure."""
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing")
    value = obj[key]
    if kind is not None and type(value) is not kind:
        raise _type_error(f"{path}.{key}", kind, value)
    return value


def _need_tick(obj: dict, key: str, path: str, horizon: int) -> int:
    """``obj[key]``, a JSON integer in 0..horizon."""
    value = _need(obj, key, path, int)
    if not 0 <= value <= horizon:
        raise SchemaError(f"{path}.{key}: {value} is outside 0..{horizon}")
    return value


def _event_error(ev: Any, raw_events: list, path: str, horizon: int) -> NoReturn:
    """Raise the schema error of the first bad field, in documented order,
    of ``ev``, an entry of ``raw_events`` that the decoder rejected."""
    where = f"{path}.events[{next(j for j, x in enumerate(raw_events) if x is ev)}]"
    _expect(ev, dict, where)
    kind = _need(ev, "kind", where)
    if kind not in EVENT_KINDS:
        raise SchemaError(f"{where}.kind: {kind!r} is not send or receive")
    _need_tick(ev, "time", where, horizon)
    _need(ev, "agent", where, int)
    _need(ev, "peer", where, int)
    raise SchemaError(f"{where}.message: missing")


def _need_count(obj: dict, key: str, path: str) -> int:
    value = _need(obj, key, path)
    if type(value) is not int or value < 0:
        raise SchemaError(f"{path}.{key}: {value!r} is not a nonnegative integer")
    return value


#: An event object's fields, in the order of a ``contexts`` table's keys.
_FIELDS = itemgetter("time", "agent", "kind", "peer", "message")


def run_from_dict(
    obj: dict, n_agents: int, horizon: int, path: str, interned: dict, contexts: dict
) -> Run:
    """A run from its JSON object, decoded in one loop over its events
    that also checks the rules of ``runs.inconsistencies``.

    ``interned`` is a table of ``runs.timeline_entry``'s, so equal events,
    and equal (tick, event) pairs, decoded with one table are one object.
    ``contexts`` holds each run's initial states, wake-up times and clock
    tables, which the runs decoded with it share, and the events found
    consistent under them, so each distinct event of those runs is
    checked once. The first bad field raises a ``SchemaError`` that
    starts with its path, formatted only then; a bad clock length or
    agent is reported after every field check, and a break of
    ``runs.inconsistencies`` after that.
    """
    keys = [str(a) for a in range(n_agents)]
    _expect(obj, dict, path)
    run_id = str(_need(obj, "id", path))
    wake_raw = _need(obj, "wake_up", path, dict)
    init_raw = _need(obj, "initial_state", path, dict)
    wake = tuple(wake_raw.get(k) for k in keys)
    for k, w in zip(keys, wake):
        if type(w) is not int or not 0 <= w <= horizon:
            _need_tick(wake_raw, k, f"{path}.wake_up", horizon)
    for k in keys:
        if k not in init_raw:
            raise SchemaError(f"{path}.initial_state.{k}: missing")
    init = tuple(str(init_raw[k]) for k in keys)
    init = contexts.setdefault(init, init)  # also a key: a tuple of strings
    raw_events = obj.get("events", [])
    if type(raw_events) is not list:
        raise _type_error(f"{path}.events", list, raw_events)
    raw_clock = obj.get("clock")
    clock = None
    if raw_clock is not None:
        if type(raw_clock) is not dict:
            raise _type_error(f"{path}.clock", dict, raw_clock)
        for k in keys:
            readings = raw_clock.get(k)
            if type(readings) is not list:
                _need(raw_clock, k, f"{path}.clock", list)
            if not _INTEGERS_ONLY.issuperset(map(type, readings)):
                t = next(t for t, v in enumerate(readings) if type(v) is not int)
                raise _type_error(f"{path}.clock.{k}[{t}]", int, readings[t])
        clock = tuple(tuple(raw_clock[k]) for k in keys)
    # ``contexts`` maps each (wake, clock) whose clock lengths and order
    # are right to itself, which its runs share, and a table from an
    # event's fields to its entry and its (sender, recipient, message). A
    # bad clock length or agent is reported only after every field check.
    bad_agent = short_clock = None
    broken = False  # a rule of ``inconsistencies`` is broken
    context = contexts.get((wake, clock))
    if context is None:
        context = (wake, clock, {})
        if clock is not None:
            short_clock = next(
                (a for a in range(n_agents) if len(clock[a]) != horizon - wake[a] + 1), None
            )
        broken = not all(all(map(le, row, islice(row, 1, None))) for row in clock or ())
        if short_clock is None and not broken:
            contexts[wake, clock] = context
    wake, clock, table = context
    stamps = clock if short_clock is None else None

    per_agent: list[list[tuple]] = [[] for _ in keys]
    append = [entries.append for entries in per_agent]
    first_sent = {}  # (sender, recipient, message) -> the tick it is first sent
    receives = []
    for ev in raw_events:
        try:
            t, agent, kind, peer, message = fields = _FIELDS(ev)
            # True == 1 == 1.0 and they hash alike: the types are checked
            # on every event, before its fields are looked up
            typed = type(t) is int and type(agent) is int and type(peer) is int
            hit = table.get(fields) if typed and type(message) is str else None
        except (KeyError, TypeError):  # a missing field, not an object or an unhashable kind
            _event_error(ev, raw_events, path, horizon)
        if hit is None:
            if not typed or not 0 <= t <= horizon or kind not in EVENT_KINDS:
                _event_error(ev, raw_events, path, horizon)
            if not 0 <= agent < n_agents:
                if bad_agent is None:
                    bad_agent = agent
                continue
            if type(message) is not str:
                message = str(message)
            awake = t >= wake[agent]
            stamp = stamps[agent][t - wake[agent]] if stamps is not None and awake else None
            entry = timeline_entry(interned, t, kind, peer, message, stamp)
            # the event's (sender, recipient, message)
            hit = (entry, (agent, peer, message) if kind == SEND else (peer, agent, message))
            if awake and 0 <= peer < n_agents:
                table[t, agent, kind, peer, message] = hit
            else:
                broken = True
        entry, flow = hit
        append[agent](entry)
        if entry[1]:  # kind != SEND: a receive, matched after the loop
            receives.append(hit)
        elif first_sent.get(flow, t + 1) > t:
            first_sent[flow] = t

    if short_clock is not None:
        a = short_clock
        raise SchemaError(
            f"{path}.clock.{a}: run {run_id!r}: agent {a} clock table has "
            f"{len(clock[a])} entries, expected {horizon - wake[a] + 1}"
        )
    if bad_agent is not None:
        j = next(j for j, raw in enumerate(raw_events) if raw["agent"] == bad_agent)
        raise SchemaError(
            f"{path}.events[{j}].agent: run {run_id!r}: event names agent {bad_agent}"
        )
    run = Run(run_id, wake, init, tuple(map(canonical_timeline, per_agent)), clock)
    if broken or any(first_sent.get(flow, e[0] + 1) > e[0] for e, flow in receives):
        _inconsistency_error(run, n_agents, raw_events, path)
    return run


def _inconsistency_error(run: Run, n_agents: int, raw_events: list, path: str) -> NoReturn:
    """Raise the schema error of the first break of ``runs.inconsistencies``
    in ``run``, decoded from ``raw_events``."""
    for agent, i, field, problem in inconsistencies(run, n_agents):
        if field == "clock":
            raise SchemaError(f"{path}.clock.{agent}[{i}]: {problem}")
        t, ev = run.timeline[agent][i]
        j = next(
            j for j, raw in enumerate(raw_events)
            if (raw["time"], raw["agent"], raw["kind"], raw["peer"], str(raw["message"]))
            == (t, agent, ev.kind, ev.peer, ev.message)
        )
        raise SchemaError(f"{path}.events[{j}]{'.peer' if field == 'peer' else ''}: {problem}")


def system_from_dict(obj: dict, path: str = "system") -> System:
    """The system of a JSON object. Its ``runs`` are an array of run
    objects, or the tuple of runs that ``load_document`` decoded with
    this object's ``agents`` and ``horizon``."""
    schema = obj.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema: unsupported version {schema!r}")
    n = _need_count(obj, "agents", path)
    horizon = _need_count(obj, "horizon", path)
    runs = _need(obj, "runs", path)
    if type(runs) is not tuple:
        interned: dict = {}
        contexts: dict = {}
        runs = [
            run_from_dict(r, n, horizon, f"{path}.runs[{i}]", interned, contexts)
            for i, r in enumerate(_expect(runs, list, f"{path}.runs"))
        ]
    try:
        return make_system(n, horizon, runs)
    except ModelError as exc:  # a duplicate run id; the decoder fixes the agents
        seen: set[str] = set()
        i = next(i for i, run in enumerate(runs) if run.id in seen or seen.add(run.id))
        raise SchemaError(f"{path}.runs[{i}].id: {exc}") from None


def load_json(text: str) -> dict:
    """The JSON object in ``text``, parsed whole."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise SchemaError("top level must be a JSON object")
    return obj


#: The standard library's C parsing primitives: ``load_document`` walks
#: the objects that hold runs itself and hands every other value to them.
_skip = json.decoder.WHITESPACE.match
_scan = json.decoder.scanstring
_value = json.JSONDecoder().raw_decode
#: What may follow a number's first characters and still belong to it.
_number_tail = re.compile(r"[-+.0-9eE]*").match
#: A comma between two items, with the whitespace around it.
_comma = re.compile(r"[ \t\n\r]*,[ \t\n\r]*").match

#: The bytes ``load_document`` asks its file for at once. A value that
#: runs past the text it holds is parsed again after one chunk more, then
#: after twice as much each time; a run's text is first read ahead by the
#: length of the run before it, since the runs of a file are alike.
CHUNK = 64 * 1024


def load_document(file: BinaryIO, values: bool = True) -> dict:
    """The JSON object in the UTF-8 text of the binary ``file``, as
    ``load_json`` parses it, but read in chunks of ``CHUNK`` bytes and
    with some values decoded as they are parsed, each item as soon as it
    is parsed:

    - each ``runs`` array, at the top or in the top's ``system`` object,
      becomes a tuple of runs, each decoded by ``run_from_dict``;
    - with ``values``, a ``valuation`` object that follows its object's
      runs becomes a tuple of (name, mask) pairs, as
      ``valuation_from_dict`` reads it, each point list a batch of
      entries at a time (see ``decoders._batches``); without ``values``,
      a ``valuation`` is stepped over an entry at a time;
    - with ``values``, the top's ``expectations`` array becomes a tuple
      of ``Expectation``\\ s, a batch at a time, whose points are not
      yet checked.

    Only one item's raw value, or one batch of entries, is alive at a
    time, and neither the whole text nor the whole document is ever held.

    It raises on anything else: text that is not UTF-8 or not one JSON
    object, a repeated key in an object it walks, an item that does not
    decode, and a ``runs`` array that comes before its object's
    ``agents`` or ``horizon``. The caller then decodes
    ``load_json(text)``, whose error is the one to report.
    """
    reader = _Reader(file)
    obj = _object(reader, "system", values)
    if reader.peek():
        raise ValueError(f"extra data at {reader.at()}")
    return obj


class _Reader:
    """A binary file's text, decoded from UTF-8 chunk by chunk, and a
    position ``idx`` in it. ``text`` holds the text decoded from where
    ``idx`` stood when the last chunk was added; what came before that
    is dropped."""

    def __init__(self, file: BinaryIO):
        self.file = file
        # a read of n bytes allocates n before it finds the end of the
        # file; a file with no size (a pipe) reads as empty, and the
        # caller's whole-text fallback reads it
        self.left = os.fstat(file.fileno()).st_size
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.text = ""
        self.idx = 0
        self.dropped = 0  # the characters before ``text``
        self.eof = False
        self.request = CHUNK

    def more(self) -> None:
        """Add the next chunk to the text, without the consumed text; the
        old text and the bytes read are dropped before the join."""
        rest = self.text[self.idx:]
        self.text = ""
        data = self.file.read(min(self.request, self.left))
        self.left -= len(data)
        self.eof = not data or self.left <= 0
        added = self.decode(data, self.eof)
        del data
        self.text = rest + added
        self.dropped += self.idx
        self.idx = 0

    def at(self) -> int:
        """``idx`` as a position in the whole text."""
        return self.dropped + self.idx

    def peek(self) -> str:
        """The next character past whitespace, or "" at the end of the
        file; ``idx`` is left at it."""
        while True:
            self.idx = _skip(self.text, self.idx).end()
            if self.idx < len(self.text) or self.eof:
                return self.text[self.idx : self.idx + 1]
            self.more()

    def ahead(self, n: int) -> None:
        """Read on until ``n`` characters follow ``idx``, or to the end of
        the file."""
        short = n - (len(self.text) - self.idx)
        while short > 0 and not self.eof:
            self.request = max(CHUNK, short)
            self.more()
            short = n - len(self.text)

    def take(self, parse: Callable[[str, int], tuple[Any, int]], ahead: int = 0) -> Any:
        """The value that ``parse`` (``_scan`` or ``_value``) reads at
        ``idx``, which is left past it. At least ``ahead`` characters are
        read first, when the file has them. A value that does not parse,
        or a number that may go on past the text, is read again with more
        text until the end of the file, where a failure raises."""
        self.ahead(ahead)
        while True:
            try:
                value, end = parse(self.text, self.idx)
            except Exception:
                if self.eof:
                    raise
            else:
                if (
                    self.eof
                    or type(value) not in (int, float)
                    or _number_tail(self.text, end).end() < len(self.text)
                ):
                    self.idx = end
                    self.request = CHUNK
                    return value
            self.more()
            self.request *= 2


def _object(reader: _Reader, path: str, values: bool) -> dict:
    """The object that opens at the reader's next character. Its runs are
    decoded under field path ``path``, and with ``values`` its valuation
    after them; at the top (``path`` "system"), a ``system`` object is
    walked the same way, as a manifest's, and with ``values`` the
    expectations are decoded."""
    if values:
        from .decoders import _expectations, _valuation
    obj: dict = {}
    for key in _keys(reader):
        opener = reader.peek()
        if key == "runs" and opener == "[":
            obj[key] = _runs(reader, obj, path)
        elif key == "valuation" and opener == "{" and not values:
            _pass_over_valuation(reader)
        elif key == "valuation" and opener == "{" and type(obj.get("runs")) is tuple:
            obj[key] = _valuation(reader, obj["runs"], obj["horizon"], f"{path}.valuation")
        elif key == "system" and path == "system" and opener == "{":
            obj[key] = _object(reader, "manifest.system", values)
        elif key == "expectations" and path == "system" and opener == "[" and values:
            obj[key] = _expectations(reader)
        else:
            obj[key] = reader.take(_value)
    return obj


def _pass_over_valuation(reader: _Reader) -> None:
    """Step past the valuation object at the reader's next character,
    an entry of a point list at a time, keeping none of it."""
    for _ in _keys(reader):
        if reader.peek() == "[":
            for _ in _items(reader):
                reader.take(_value)
        else:
            reader.take(_value)


def _keys(reader: _Reader) -> Iterator[str]:
    """The keys of the object that opens at the reader's next character.
    Each is yielded with the reader at its value, which the caller takes
    before it asks for the next key; a repeated key raises."""
    if reader.peek() != "{":
        raise ValueError(f"expected an object at {reader.at()}")
    reader.idx += 1
    seen: set[str] = set()
    more = _step(reader, "}", False)
    while more:
        if reader.peek() != '"':
            raise ValueError(f"expected a key at {reader.at()}")
        reader.idx += 1
        key = reader.take(_scan)
        if key in seen or reader.peek() != ":":
            raise ValueError(f"repeated key {key!r} or no colon at {reader.at()}")
        seen.add(key)
        reader.idx += 1
        reader.peek()
        yield key
        more = _step(reader, "}", True)


def _items(reader: _Reader) -> Iterator[int]:
    """The positions of the items of the array that opens at the reader's
    next character. Each is yielded with the reader at its item, which
    the caller takes before it asks for the next one."""
    reader.idx += 1
    more = _step(reader, "]", False)
    i = 0
    while more:
        yield i
        i += 1
        # most items are followed by a comma and the next item's start
        # within the text held: one match steps past them
        comma = _comma(reader.text, reader.idx)
        if comma and comma.end() < len(reader.text):
            reader.idx = comma.end()
        else:
            more = _step(reader, "]", True)


def _runs(reader: _Reader, obj: dict, path: str) -> tuple[Run, ...]:
    """The runs of the array that opens at the reader's next character,
    decoded with the ``agents`` and ``horizon`` that ``obj`` already
    holds. Equal events, (tick, event) pairs, initial states, wake-up
    times and clock tables are one object among them; the tables that
    share them are dropped at the end."""
    n = _need_count(obj, "agents", path)
    horizon = _need_count(obj, "horizon", path)
    interned: dict = {}
    contexts: dict = {}
    runs: list[Run] = []
    size = 0  # runs are alike: the text of the last one is read ahead for the next
    for i in _items(reader):
        start = reader.at()
        raw = reader.take(_value, size)
        size = reader.at() - start
        runs.append(run_from_dict(raw, n, horizon, f"{path}.runs[{i}]", interned, contexts))
        del raw  # before the next run's object is parsed
    return tuple(runs)


def _step(reader: _Reader, closer: str, comma: bool) -> bool:
    """Inside a container, past whitespace: False, past ``closer``, if the
    container ends there, or else True at the start of its next item,
    past a comma when ``comma`` is set."""
    char = reader.peek()
    if char == closer:
        reader.idx += 1
        return False
    if comma:
        if char != ",":
            raise ValueError(f"expected ',' or {closer!r} at {reader.at()}")
        reader.idx += 1
        reader.peek()
    return True
