"""JSON encodings for systems, models, and scenario manifests.

Top level of a system file: ``schema`` (currently 1), ``agents`` (count),
``horizon``, ``runs``, and optionally ``valuation`` and ``policy``.
Details and examples live in docs/file-formats.md.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from typing import Any, NoReturn

from .evaluate import Expectation, Model, ScenarioManifest, Valuation, make_valuation
from .runs import (
    EVENT_KINDS,
    RECEIVE,
    SEND,
    Event,
    ModelError,
    Point,
    Run,
    System,
    UnknownAgentError,
    canonical_timeline,
    make_system,
)
from .views import policy_from_name

SCHEMA_VERSION = 1


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


def _need_count(obj: dict, key: str, path: str) -> int:
    value = _need(obj, key, path)
    if type(value) is not int or value < 0:
        raise SchemaError(f"{path}.{key}: {value!r} is not a nonnegative integer")
    return value


def parse_point(text: str) -> Point:
    """Points are addressed as ``run_id@time``; the last @ separates."""
    run_id, sep, t = text.rpartition("@")
    if not sep or not t.isdigit():
        raise SchemaError(f"point {text!r} is not of the form run_id@time")
    return Point(run_id, int(t))


def run_to_dict(run: Run) -> dict:
    events = []
    for agent in range(run.n_agents):
        for t, ev in run.timeline[agent]:
            events.append(
                {
                    "time": t,
                    "agent": agent,
                    "kind": ev.kind,
                    "peer": ev.peer,
                    "message": ev.message,
                }
            )
    events.sort(key=lambda e: (e["time"], e["agent"], e["kind"], e["peer"], e["message"]))
    out = {
        "id": run.id,
        "wake_up": {str(a): run.wake_up[a] for a in range(run.n_agents)},
        "initial_state": {str(a): run.initial_state[a] for a in range(run.n_agents)},
        "events": events,
    }
    if run.clock is not None:
        out["clock"] = {str(a): list(run.clock[a]) for a in range(run.n_agents)}
    return out


def run_from_dict(
    obj: dict, n_agents: int, horizon: int, path: str, interned: dict | None = None
) -> Run:
    """A run from its JSON object, decoded in one loop over its events.

    ``interned`` maps (kind, peer, message, clock stamp) to an ``Event``,
    so equal events decoded with one table are one object. Every check is
    made inline; only once one fails does ``_run_error`` walk the object
    again with the field helpers to name the first bad field.
    """
    if interned is None:
        interned = {}
    keys = [str(a) for a in range(n_agents)]
    wake_raw = obj.get("wake_up") if type(obj) is dict else None
    init_raw = obj.get("initial_state") if type(obj) is dict else None
    if type(wake_raw) is not dict or type(init_raw) is not dict or "id" not in obj:
        _run_error(obj, n_agents, horizon, path)
    wake = tuple(wake_raw.get(k) for k in keys)
    raw_events = obj.get("events", [])
    raw_clock = obj.get("clock")
    if (
        not all(type(w) is int and 0 <= w <= horizon for w in wake)
        or not all(k in init_raw for k in keys)
        or type(raw_events) is not list
        or not (raw_clock is None or _is_clock_table(raw_clock, keys))
    ):
        _run_error(obj, n_agents, horizon, path)
    run_id = str(obj["id"])
    init = tuple(str(init_raw[k]) for k in keys)
    clock = None if raw_clock is None else tuple(tuple(raw_clock[k]) for k in keys)
    short_clock = None
    if clock is not None:
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
        if type(ev) is not dict:
            _run_error(obj, n_agents, horizon, path)
        try:
            t, agent, kind = ev["time"], ev["agent"], ev["kind"]
            peer, message = ev["peer"], ev["message"]
        except KeyError:
            _run_error(obj, n_agents, horizon, path)
        receive = kind == RECEIVE
        if (
            type(t) is not int
            or type(agent) is not int
            or type(peer) is not int
            or not 0 <= t <= horizon
            or not (receive or kind == SEND)
        ):
            _run_error(obj, n_agents, horizon, path)
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
        raise ModelError(
            f"run {run_id!r}: agent {a} clock table has {len(clock[a])} "
            f"entries, expected {horizon - wake[a] + 1}"
        )
    if bad_agent is not None:
        raise UnknownAgentError(f"run {run_id!r}: event names agent {bad_agent}")
    return Run(run_id, wake, init, tuple(map(canonical_timeline, per_agent)), clock)


_INTEGERS_ONLY = {int}


def _is_clock_table(raw: Any, keys: list[str]) -> bool:
    return type(raw) is dict and all(
        type(raw.get(k)) is list and set(map(type, raw[k])) <= _INTEGERS_ONLY
        for k in keys
    )


def _run_error(obj: Any, n_agents: int, horizon: int, path: str) -> NoReturn:
    """Raise the schema error of the first bad field of a run, checking
    fields in the order they are documented."""
    _expect(obj, dict, path)
    _need(obj, "id", path)
    wake_raw = _need(obj, "wake_up", path, dict)
    init_raw = _need(obj, "initial_state", path, dict)
    for a in range(n_agents):
        _need_tick(wake_raw, str(a), f"{path}.wake_up", horizon)
    for a in range(n_agents):
        _need(init_raw, str(a), f"{path}.initial_state")
    for i, ev in enumerate(_expect(obj.get("events", []), list, f"{path}.events")):
        ev_path = f"{path}.events[{i}]"
        _expect(ev, dict, ev_path)
        kind = _need(ev, "kind", ev_path)
        if kind not in EVENT_KINDS:
            raise SchemaError(f"{ev_path}.kind: {kind!r} is not send or receive")
        _need_tick(ev, "time", ev_path, horizon)
        _need(ev, "agent", ev_path, int)
        _need(ev, "peer", ev_path, int)
        _need(ev, "message", ev_path)
    if obj.get("clock") is not None:
        raw = _need(obj, "clock", path, dict)
        clock = [_need(raw, str(a), f"{path}.clock", list) for a in range(n_agents)]
        for a, readings in enumerate(clock):
            for t, value in enumerate(readings):
                if type(value) is not int:
                    raise _type_error(f"{path}.clock.{a}[{t}]", int, value)
    raise AssertionError(f"{path}: run_from_dict rejected a run whose fields all pass")


def system_to_dict(system: System) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "agents": system.n_agents,
        "horizon": system.horizon,
        "runs": [run_to_dict(r) for r in system.runs],
    }


def system_from_dict(obj: dict, path: str = "system") -> System:
    schema = obj.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema: unsupported version {schema!r}")
    n = _need_count(obj, "agents", path)
    horizon = _need_count(obj, "horizon", path)
    interned: dict = {}
    runs = [
        run_from_dict(r, n, horizon, f"{path}.runs[{i}]", interned)
        for i, r in enumerate(_need(obj, "runs", path, list))
    ]
    return make_system(n, horizon, runs)


def valuation_to_dict(valuation: Valuation) -> dict:
    return {
        name: sorted([p.run_id, p.time] for p in valuation.truth_set(name))
        for name in valuation.names
    }


def valuation_from_dict(obj: dict, system: System, path: str = "valuation") -> Valuation:
    """Truth sets of ``system``'s points; an entry naming a point outside
    the system is a schema error. Each entry's dense id is worked out
    inline and the set holds the system's own ``Point`` at that id."""
    slots = system.run_slots
    width = system.horizon + 1
    points = system.points
    pairs = {}
    for name, entries in _expect(obj, dict, path).items():
        pts = set()
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
            pts.add(points[slot * width + time])
        pairs[name] = pts
    return make_valuation(pairs)


def model_to_dict(model: Model) -> dict:
    out = system_to_dict(model.system)
    out["valuation"] = valuation_to_dict(model.valuation)
    out["policy"] = model.policy.name
    return out


def model_from_dict(obj: dict, path: str = "system") -> Model:
    system = system_from_dict(obj, path)
    valuation = valuation_from_dict(obj.get("valuation", {}), system, f"{path}.valuation")
    policy = policy_from_name(obj.get("policy", "complete"))
    return Model(system, valuation, policy)


def manifest_to_dict(manifest: ScenarioManifest) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "scenario": manifest.name,
        "parameters": dict(manifest.parameters),
        "system": model_to_dict(manifest.model),
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
                str(_need(e, "formula", path)),
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
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def dump_manifest(doc: dict) -> tuple[str, str]:
    """The texts of a manifest document and of its ``system`` value, as
    ``dump_json`` writes them; the system is encoded once.

    Indented JSON holds no raw newline inside a string, so the system's
    text one level down is its own text with every newline indented.
    """
    system = dump_json(doc["system"])
    return dump_json(dict(doc, system=_Encoded(system[:-1]))), system


class _Encoded(str):
    """JSON text already written by ``dump_json`` at the top level."""


_SCALARS = frozenset({str, int, float, bool, type(None)})
_CLOSERS = {"{": "}", "[": "]"}
_scalar = json.JSONEncoder().encode
_key = json.encoder.encode_basestring_ascii


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


def _encode(value: Any, depth: int, out: list[str]) -> None:
    """Append the text of ``value``, whose first line is already indented
    to ``depth``."""
    if type(value) is _Encoded:
        out.append(value.replace("\n", "\n" + "  " * depth))
        return
    opener = _opener(value)
    if opener is None:
        out.append(_scalar(value))
        return
    closer = _CLOSERS[opener]
    if not value:
        out.append(opener + closer)
        return
    here = "\n" + "  " * depth
    inner = here + "  "
    if _SCALARS.issuperset(map(type, value.values() if opener == "{" else value)):
        out += (opener, inner, _flat_encoder(depth + 1)(value)[1:-1], here, closer)
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
            # One C call writes every item with the items' own separator;
            # it leaves "},\n<indent>{" (or "],\n<indent>[") between two
            # items, which no flat item can contain: a string holds no raw
            # newline and no value inside a flat item is a bracket.
            i_close = _CLOSERS[first]
            body = _flat_encoder(depth + 2)(value)[2:-2].replace(
                i_close + "," + inner + "  " + first,
                inner + i_close + "," + inner + first + inner + "  ",
            )
            out += ("[", inner, first, inner, "  ", body, inner, i_close, here, "]")
            return
        items = [("", item) for item in value]
    else:
        items = [(_key(key) + ": ", item) for key, item in sorted(value.items())]
    sep = opener + inner
    for prefix, item in items:
        out += (sep, prefix)
        _encode(item, depth + 1, out)
        sep = "," + inner
    out += (here, closer)


def load_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise SchemaError("top level must be a JSON object")
    return obj
