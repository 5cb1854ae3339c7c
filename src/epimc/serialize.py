"""JSON encodings for systems, models, and scenario manifests.

Top level of a system file: ``schema`` (currently 1), ``agents`` (count),
``horizon``, ``runs``, and optionally ``valuation`` and ``policy``.
Details and examples live in docs/file-formats.md. ``system_from_dict``
decodes the run part alone; the model and manifest decoders import the
evaluator and the view policies when called.

A file is parsed by ``load_document``, which reads it in chunks of
``CHUNK`` bytes and decodes each run as soon as it is parsed, so neither
the whole text nor the whole JSON document is ever held. ``load_json``
parses a text whole, for the key orders and errors that
``load_document`` leaves to it.
"""

from __future__ import annotations

import codecs
import functools
import json
import os
import re
from itertools import chain, repeat
from types import FunctionType
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, NoReturn, TextIO

from .runs import (
    EVENT_KINDS,
    RECEIVE,
    SEND,
    Event,
    ModelError,
    Point,
    Run,
    System,
    canonical_timeline,
    ids_of,
    inconsistencies,
    make_system,
    mask_from_ids,
)

if TYPE_CHECKING:
    from .semantics import Model, ScenarioManifest, Valuation

SCHEMA_VERSION = 1

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


def parse_point(text: str) -> Point:
    """Points are addressed as ``run_id@time``; the last @ separates and
    the time is ASCII digits."""
    run_id, sep, t = text.rpartition("@")
    if not sep or not (t.isascii() and t.isdigit()):
        raise SchemaError(f"point {text!r} is not of the form run_id@time")
    return Point(run_id, int(t))


def run_events(run: Run) -> list[tuple[int, int, str, int, str]]:
    """``run``'s events as (time, agent, kind, peer, message) rows, in the
    order epimc writes them: sorted as plain tuples, so a receive comes
    before a send at one time and agent (kinds compare as strings)."""
    rows = [
        (t, agent, ev.kind, ev.peer, ev.message)
        for agent, line in enumerate(run.timeline)
        for t, ev in line
    ]
    rows.sort()
    return rows


def run_to_dict(run: Run) -> dict:
    return _run_doc(run, [
        {"time": t, "agent": agent, "kind": kind, "peer": peer, "message": message}
        for t, agent, kind, peer, message in run_events(run)
    ])


def _run_doc(run: Run, events: Any) -> dict:
    """``run_to_dict(run)`` with ``events`` as its ``events`` value."""
    out = {
        "id": run.id,
        "wake_up": {str(a): run.wake_up[a] for a in range(run.n_agents)},
        "initial_state": {str(a): run.initial_state[a] for a in range(run.n_agents)},
        "events": events,
    }
    if run.clock is not None:
        out["clock"] = {str(a): list(run.clock[a]) for a in range(run.n_agents)}
    return out


def run_from_dict(obj: dict, n_agents: int, horizon: int, path: str, interned: dict) -> Run:
    """A run from its JSON object, decoded in one loop over its events.

    ``interned`` maps (kind, peer, message, clock stamp) to an ``Event``,
    so equal events decoded with one table are one object. The first bad
    field raises a ``SchemaError`` that starts with its path, formatted
    only then; a bad clock length or agent is reported after every field
    check, and a break of ``runs.inconsistencies`` after that.
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
    raw_events = obj.get("events", [])
    if type(raw_events) is not list:
        raise _type_error(f"{path}.events", list, raw_events)
    raw_clock = obj.get("clock")
    clock = short_clock = None
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
        short_clock = next(
            (a for a in range(n_agents) if len(clock[a]) != horizon - wake[a] + 1), None
        )
    # a bad clock length or agent is reported only after every field check
    stamps = clock if short_clock is None else None
    bad_agent = None

    per_agent: list[list[tuple]] = [[] for _ in keys]
    append = [entries.append for entries in per_agent]
    known = interned.get
    for ev in raw_events:
        try:
            t, agent, kind = ev["time"], ev["agent"], ev["kind"]
            peer, message = ev["peer"], ev["message"]
        except (KeyError, TypeError):  # a missing field, or not an object
            _event_error(ev, raw_events, path, horizon)
        receive = kind == RECEIVE
        if (
            type(t) is not int
            or type(agent) is not int
            or type(peer) is not int
            or not 0 <= t <= horizon
            or not (receive or kind == SEND)
        ):
            _event_error(ev, raw_events, path, horizon)
        if not 0 <= agent < n_agents:
            if bad_agent is None:
                bad_agent = agent
            continue
        if type(message) is not str:
            message = str(message)
        stamp = None
        if stamps is not None and t >= wake[agent]:
            stamp = stamps[agent][t - wake[agent]]
        key = (kind, peer, message, stamp)
        event = known(key)
        if event is None:
            event = interned[key] = Event(kind, peer, message, stamp)
        append[agent]((t, receive, peer, message, event))

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
    return run


def system_to_dict(system: System) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "agents": system.n_agents,
        "horizon": system.horizon,
        "runs": [run_to_dict(r) for r in system.runs],
    }


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
        runs = [
            run_from_dict(r, n, horizon, f"{path}.runs[{i}]", interned)
            for i, r in enumerate(_expect(runs, list, f"{path}.runs"))
        ]
    try:
        return make_system(n, horizon, runs)
    except ModelError as exc:  # a duplicate run id; the decoder fixes the agents
        seen: set[str] = set()
        i = next(i for i, run in enumerate(runs) if run.id in seen or seen.add(run.id))
        raise SchemaError(f"{path}.runs[{i}].id: {exc}") from None


def valuation_to_dict(valuation: Valuation) -> dict:
    """Each truth set's points in dense order, which is sorted order."""
    points = valuation.system.points
    return {
        name: [list(points[i]) for i in ids_of(valuation.masks[name])]
        for name in valuation.names
    }


def valuation_from_dict(obj: dict, system: System, path: str = "valuation") -> Valuation:
    """One mask of ``system``'s points per name; an entry naming a point
    outside the system is a schema error. Each entry's dense id is worked
    out inline."""
    from .semantics import Valuation

    slots = system.run_slots
    width = system.horizon + 1
    masks = {}
    for name, entries in _expect(obj, dict, path).items():
        ids = []
        for i, entry in enumerate(_expect(entries, list, f"{path}.{name}")):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise SchemaError(f"{path}.{name}[{i}]: expected [run_id, time]")
            run_id, time = entry
            if type(time) is not int:
                raise SchemaError(f"{path}.{name}[{i}]: time {time!r} is not an integer")
            slot = slots.get(str(run_id))
            if slot is None or not 0 <= time < width:
                raise SchemaError(
                    f"{path}.{name}[{i}]: point {Point(str(run_id), time)} is not in "
                    "the system"
                )
            ids.append(slot * width + time)
        masks[name] = mask_from_ids(ids, len(system.runs) * width)
    return Valuation(system, masks)


def model_to_dict(model: Model) -> dict:
    return _model_doc(model, [run_to_dict(r) for r in model.system.runs])


def _model_doc(model: Model, runs: Any) -> dict:
    """``model_to_dict(model)`` with ``runs`` as its ``runs`` value."""
    return {
        "schema": SCHEMA_VERSION,
        "agents": model.system.n_agents,
        "horizon": model.system.horizon,
        "runs": runs,
        "valuation": valuation_to_dict(model.valuation),
        "policy": model.policy.name,
    }


def model_from_dict(obj: dict, path: str = "system") -> Model:
    from .semantics import Model
    from .views import policy_from_name

    system = system_from_dict(obj, path)
    valuation = valuation_from_dict(obj.get("valuation", {}), system, f"{path}.valuation")
    name = _expect(obj.get("policy", "complete"), str, f"{path}.policy")
    try:
        policy = policy_from_name(name)
    except ModelError as exc:
        raise SchemaError(f"{path}.policy: {exc}") from None
    return Model(system, valuation, policy)


def manifest_to_dict(manifest: ScenarioManifest) -> dict:
    return _manifest_doc(manifest, model_to_dict(manifest.model))


def _manifest_doc(manifest: ScenarioManifest, system: Any) -> dict:
    """``manifest_to_dict(manifest)`` with ``system`` as its ``system`` value."""
    return {
        "schema": SCHEMA_VERSION,
        "scenario": manifest.name,
        "parameters": dict(manifest.parameters),
        "system": system,
        "expectations": [
            {
                "formula": e.formula,
                "point": str(e.point) if e.point is not None else None,
                "expected": e.expected,
                "note": e.note,
            }
            for e in manifest.expectations
        ],
    }


def manifest_from_dict(obj: dict) -> ScenarioManifest:
    """A manifest; an expectation at a point outside its system is a
    schema error."""
    from .semantics import Expectation, ScenarioManifest

    schema = obj.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"manifest.schema: unsupported version {schema!r}")
    model = model_from_dict(_need(obj, "system", "manifest", dict), "manifest.system")
    expectations = []
    raw = _expect(obj.get("expectations", []), list, "manifest.expectations")
    for i, e in enumerate(raw):
        path = f"manifest.expectations[{i}]"
        _expect(e, dict, path)
        point = None
        if e.get("point") is not None:
            text = _need(e, "point", path, str)
            try:
                point = parse_point(text)
                model.system.point_id(point)
            except SchemaError as exc:
                raise SchemaError(f"{path}.point: {exc}") from None
            except ModelError:
                raise SchemaError(f"{path}.point: {point} is not in the system") from None
        expectations.append(
            Expectation(
                _need(e, "formula", path, str),
                point,
                _need(e, "expected", path, bool),
                str(e.get("note", "")),
            )
        )
    return ScenarioManifest(
        str(obj.get("scenario", "unnamed")),
        dict(_expect(obj.get("parameters", {}), dict, "manifest.parameters")),
        model,
        tuple(expectations),
    )


def dump_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The standard library encodes with ``indent`` in pure Python, one call
    per value. Here the C encoder writes each flat container (one whose
    values are all scalars) in one call, with newline-and-indent item
    separators, and likewise a whole list of non-empty flat containers
    of one kind; only containers that hold containers are walked in
    Python. Keys are strings, as in every document epimc writes.
    """
    out: list[str] = []
    _encode(obj, 0, out.append)
    out.append("\n")
    return "".join(out)


def write_manifest(
    manifest: ScenarioManifest, manifest_file: TextIO, system_file: TextIO
) -> None:
    """Write ``manifest_to_dict(manifest)`` to ``manifest_file`` and
    ``model_to_dict(manifest.model)`` to ``system_file``, each byte for
    byte as ``dump_json`` writes it, while the texts are made.

    Each run's document is made, encoded and dropped in turn, so neither
    file's text, nor the list of run documents, is ever held whole. A
    run's events are written from its ``run_events`` rows by
    ``_events_text``, which encodes each distinct (agent, kind, peer,
    message) once per call.
    """
    runs = manifest.model.system.runs
    heads: dict[tuple, str] = {}  # every run's events lie at one depth

    def run_doc(run: Run) -> dict:
        rows = run_events(run)
        return _run_doc(run, lambda depth, write: write(_events_text(rows, depth, heads)))

    def encode_runs(depth: int, write: Callable[[str], Any]) -> None:
        _encode_items("[", zip(repeat(""), map(run_doc, runs)), depth, write)

    doc = _manifest_doc(manifest, _model_doc(manifest.model, encode_runs))
    _write_split(doc, manifest_file, system_file)


def _events_text(rows: list[tuple], depth: int, heads: dict[tuple, str]) -> str:
    """The text of the events array of ``rows``, as ``run_events`` gives
    them, whose first line is indented to ``depth``.

    An event's keys sort with ``time`` last, so its text is a head fixed
    by (agent, kind, peer, message), then its time and a closing brace.
    ``heads`` maps those four values to the head at this ``depth``; a
    head not in it is encoded and added. Times are integers.
    """
    if not rows:
        return "[]"
    item = "\n" + "  " * (depth + 1)
    field = item + "  "
    texts = []
    for row in rows:
        key = row[1:]
        head = heads.get(key)
        if head is None:
            agent, kind, peer, message = map(_scalar, key)
            head = heads[key] = (
                f'{{{field}"agent": {agent},{field}"kind": {kind},'
                f'{field}"message": {message},{field}"peer": {peer},{field}"time": '
            )
        texts.append(head + str(row[0]))
    closer = item + "}"
    return "[" + item + (closer + "," + item).join(texts) + closer + item[:-2] + "]"


def _write_split(doc: dict, manifest_file: TextIO, system_file: TextIO) -> None:
    """Write ``doc`` to ``manifest_file`` and its ``system`` value to
    ``system_file``, each as ``dump_json`` writes it; the system is
    encoded once.

    Each piece of the system's text goes to both files: as it is to the
    system file, and with every newline indented one level to the
    manifest, which holds the system one level down. Indented JSON holds
    no raw newline inside a string, so that is the system's text there.
    """

    def system(depth: int, write: Callable[[str], Any]) -> None:
        indent = "\n" + "  " * depth

        def both(piece: str) -> None:
            system_file.write(piece)
            write(piece.replace("\n", indent))

        _encode(doc["system"], 0, both)
        system_file.write("\n")

    _encode(dict(doc, system=system), 0, manifest_file.write)
    manifest_file.write("\n")


_SCALARS = frozenset({str, int, float, bool, type(None)})
_CLOSERS = {"{": "}", "[": "]"}
_scalar = json.JSONEncoder().encode
_key = json.encoder.encode_basestring_ascii
#: The items of a list of flat containers that ``_encode`` encodes in one call.
_BATCH = 256


@functools.cache
def _flat_encoder(depth: int):
    """Encodes a flat container with its items on lines indented to
    ``depth``; the caller moves its brackets onto their own lines."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _opener(value: Any) -> str | None:
    """The bracket ``json`` writes ``value`` with; None for a scalar."""
    if isinstance(value, str):
        return None
    if isinstance(value, (list, tuple)):
        return "["
    return "{" if isinstance(value, dict) else None


def _encode(value: Any, depth: int, write: Callable[[str], Any]) -> None:
    """Write the text of ``value``, whose first line is already indented
    to ``depth``, in pieces through ``write``. A function in place of a
    value writes that value's text itself, called as ``value(depth, write)``."""
    if type(value) is FunctionType:
        value(depth, write)
        return
    opener = _opener(value)
    if opener is None:
        write(_scalar(value))
        return
    closer = _CLOSERS[opener]
    if not value:
        write(opener + closer)
        return
    here = "\n" + "  " * depth
    inner = here + "  "
    if _SCALARS.issuperset(map(type, value.values() if opener == "{" else value)):
        write(opener + inner)
        write(_flat_encoder(depth + 1)(value)[1:-1])
        write(here + closer)
        return
    if opener == "[":
        kind = type(value[0])
        first = {dict: "{", list: "["}.get(kind)
        if (
            first
            and all(value)
            and {kind}.issuperset(map(type, value))
            and _SCALARS.issuperset(
                map(type, chain.from_iterable(map(dict.values, value) if kind is dict else value))
            )
        ):
            # One C call writes each batch of items with the items' own
            # separator; it leaves "},\n<indent>{" (or "],\n<indent>[")
            # between two items, which no flat item can contain: a string
            # holds no raw newline and no value inside a flat item is a
            # bracket. Batches keep each piece of text small.
            i_close = _CLOSERS[first]
            encode = _flat_encoder(depth + 2)
            cut = i_close + "," + inner + "  " + first
            between = inner + i_close + "," + inner + first + inner + "  "
            write("[" + inner + first + inner + "  ")
            for start in range(0, len(value), _BATCH):
                if start:
                    write(between)
                write(encode(value[start : start + _BATCH])[2:-2].replace(cut, between))
            write(inner + i_close + here + "]")
            return
        items = zip(repeat(""), value)
    else:
        items = ((_key(key) + ": ", item) for key, item in sorted(value.items()))
    _encode_items(opener, items, depth, write)


def _encode_items(opener: str, items: Iterable[tuple[str, Any]], depth: int,
                  write: Callable[[str], Any]) -> None:
    """Write a container opened by ``opener`` whose items, each a prefix
    (a key and its colon, or nothing) and a value, come from ``items``;
    each value is encoded as it comes."""
    here = "\n" + "  " * depth
    sep = opener + here + "  "
    for prefix, item in items:
        write(sep + prefix)
        _encode(item, depth + 1, write)
        sep = "," + here + "  "
    closer = _CLOSERS[opener]
    write(here + closer if sep[0] == "," else opener + closer)


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

#: The bytes ``load_document`` asks its file for at once. A value that
#: runs past the text it holds is parsed again after one chunk more, then
#: after twice as much each time; a run's text is first read ahead by the
#: length of the run before it, since the runs of a file are alike.
CHUNK = 64 * 1024


def load_document(file: BinaryIO) -> dict:
    """The JSON object in the UTF-8 text of the binary ``file``, as
    ``load_json`` parses it, but read in chunks of ``CHUNK`` bytes and
    with each ``runs`` array, at the top or in the top's ``system``
    object, decoded as it is parsed: ``run_from_dict`` takes each run's
    object as soon as it is parsed, and the array becomes a tuple of
    runs. Only one run's object is alive at a time, and neither the
    whole text nor the whole document is ever held.

    It raises on anything else: text that is not UTF-8 or not one JSON
    object, a repeated key in an object it walks, a run that does not
    decode, and a ``runs`` array that comes before its object's
    ``agents`` or ``horizon``. The caller then decodes
    ``load_json(text)``, whose error is the one to report.
    """
    reader = _Reader(file)
    obj = _object(reader, "system")
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
        """Add the next chunk to the text, without the consumed text."""
        data = self.file.read(min(self.request, self.left))
        self.left -= len(data)
        self.eof = not data or self.left <= 0
        self.text = self.text[self.idx:] + self.decode(data, self.eof)
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

    def take(self, parse: Callable[[str, int], tuple[Any, int]], ahead: int = 0) -> Any:
        """The value that ``parse`` (``_scan`` or ``_value``) reads at
        ``idx``, which is left past it. At least ``ahead`` characters are
        read first, when the file has them. A value that does not parse,
        or a number that may go on past the text, is read again with more
        text until the end of the file, where a failure raises."""
        short = ahead - (len(self.text) - self.idx)
        while short > 0 and not self.eof:
            self.request = max(CHUNK, short)
            self.more()
            short = ahead - len(self.text)
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


def _object(reader: _Reader, path: str) -> dict:
    """The object that opens at the reader's next character. Its runs are
    decoded under field path ``path``; at the top (``path`` "system"), a
    ``system`` object is walked the same way, as a manifest's."""
    if reader.peek() != "{":
        raise ValueError(f"expected an object at {reader.at()}")
    reader.idx += 1
    obj: dict = {}
    more = _step(reader, "}", False)
    while more:
        if reader.peek() != '"':
            raise ValueError(f"expected a key at {reader.at()}")
        reader.idx += 1
        key = reader.take(_scan)
        if key in obj or reader.peek() != ":":
            raise ValueError(f"repeated key {key!r} or no colon at {reader.at()}")
        reader.idx += 1
        opener = reader.peek()
        if key == "runs" and opener == "[":
            obj[key] = _runs(reader, obj, path)
        elif key == "system" and path == "system" and opener == "{":
            obj[key] = _object(reader, "manifest.system")
        else:
            obj[key] = reader.take(_value)
        more = _step(reader, "}", True)
    return obj


def _runs(reader: _Reader, obj: dict, path: str) -> tuple[Run, ...]:
    """The runs of the array that opens at the reader's next character,
    decoded with the ``agents`` and ``horizon`` that ``obj`` already
    holds."""
    n = _need_count(obj, "agents", path)
    horizon = _need_count(obj, "horizon", path)
    interned: dict = {}
    runs: list[Run] = []
    reader.idx += 1
    more = _step(reader, "]", False)
    size = 0  # runs are alike: the text of the last one is read ahead for the next
    while more:
        start = reader.at()
        raw = reader.take(_value, size)
        size = reader.at() - start
        runs.append(run_from_dict(raw, n, horizon, f"{path}.runs[{len(runs)}]", interned))
        del raw  # before the next run's object is parsed
        more = _step(reader, "]", True)
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
