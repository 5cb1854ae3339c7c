"""Decoding of models and scenario manifests: a system file's valuation
and view policy, and a manifest's expectations.

``serialize`` decodes the run part of a file and resolves the public
names here (``valuation_from_dict``, ``model_from_dict``,
``manifest_from_dict`` and ``parse_point``) on first use, so a query
that reads runs alone, as ``check`` does, never loads this module.
``load_document`` imports ``_valuation`` and ``_expectations`` from
here only when it decodes values.

A valuation that follows its runs, and a manifest's expectations, are
read a batch of items at a time: ``_batches`` parses the text from the
next item to the last ``]`` (``}`` for an object) within ``WINDOW``
characters by one ``_value`` call, so while a file is read nothing
beside the model is alive but one batch and its text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from . import SCHEMA_VERSION
from .runs import ModelError, Point, Run, System, mask_from_ids
from .serialize import (
    SchemaError,
    _expect,
    _items,
    _keys,
    _need,
    _Reader,
    _value,
    system_from_dict,
)

if TYPE_CHECKING:
    from .semantics import Model, ScenarioManifest, Valuation

#: The characters of an array's text that one batch of its items is
#: taken from (see ``_batches``).
WINDOW = 16 * 1024


def parse_point(text: str) -> Point:
    """Points are addressed as ``run_id@time``; the last @ separates and
    the time is ASCII digits."""
    run_id, sep, t = text.rpartition("@")
    if not sep or not (t.isascii() and t.isdigit()):
        raise SchemaError(f"point {text!r} is not of the form run_id@time")
    return Point(run_id, int(t))


def valuation_from_dict(obj: Any, system: System, path: str = "valuation") -> Valuation:
    """One mask of ``system``'s points per name; an entry naming a point
    outside the system is a schema error. ``obj`` is a JSON object of
    point lists, or the tuple of (name, mask) pairs that ``load_document``
    decoded with ``system``'s runs."""
    from .semantics import Valuation

    if type(obj) is tuple:
        return Valuation(system, dict(obj))
    slots, width = system.run_slots, system.horizon + 1
    size = len(system.runs) * width
    masks = {
        name: _truth_mask(entries, slots, width, size, f"{path}.{name}")
        for name, entries in _expect(obj, dict, path).items()
    }
    return Valuation(system, masks)


def _truth_mask(entries: Any, slots: dict[str, int], width: int, size: int, path: str) -> int:
    """The mask of the ``[run_id, time]`` points of ``entries``, among
    ``size`` points of ``width`` ticks per run whose run ids map to their
    ``slots``."""
    return mask_from_ids(_point_ids(_expect(entries, list, path), slots, width, path), size)


def _point_ids(entries: list, slots: dict[str, int], width: int, path: str) -> Iterator[int]:
    """The dense id of each entry, worked out inline as it is asked for."""
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SchemaError(f"{path}[{i}]: expected [run_id, time]")
        run_id, time = entry
        if type(time) is not int:
            raise SchemaError(f"{path}[{i}]: time {time!r} is not an integer")
        slot = slots.get(str(run_id))
        if slot is None or not 0 <= time < width:
            raise SchemaError(
                f"{path}[{i}]: point {Point(str(run_id), time)} is not in the system"
            )
        yield slot * width + time


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


def manifest_from_dict(obj: dict) -> ScenarioManifest:
    """A manifest; an expectation at a point outside its system is a
    schema error. Its ``expectations`` are an array of objects, or the
    tuple of expectations that ``load_document`` decoded, whose points
    are checked against the system here."""
    from .semantics import Expectation, ScenarioManifest

    schema = obj.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"manifest.schema: unsupported version {schema!r}")
    model = model_from_dict(_need(obj, "system", "manifest", dict), "manifest.system")
    raw = obj.get("expectations", [])
    if type(raw) is tuple:
        expectations = raw
        for i, e in enumerate(expectations):
            if e.point is not None:
                _check_point(model.system, e.point, f"manifest.expectations[{i}]")
    else:
        expectations = tuple(
            Expectation(*_expectation(e, f"manifest.expectations[{i}]", model.system))
            for i, e in enumerate(_expect(raw, list, "manifest.expectations"))
        )
    return ScenarioManifest(
        str(obj.get("scenario", "unnamed")),
        dict(_expect(obj.get("parameters", {}), dict, "manifest.parameters")),
        model,
        expectations,
    )


def _expectation(e: Any, path: str, system: System | None) -> tuple:
    """The fields of the ``Expectation`` of JSON object ``e``; its point
    is checked against ``system`` when one is given."""
    _expect(e, dict, path)
    point = None
    if e.get("point") is not None:
        text = _need(e, "point", path, str)
        try:
            point = parse_point(text)
        except SchemaError as exc:
            raise SchemaError(f"{path}.point: {exc}") from None
        if system is not None:
            _check_point(system, point, path)
    return (
        _need(e, "formula", path, str),
        point,
        _need(e, "expected", path, bool),
        str(e.get("note", "")),
    )


def _check_point(system: System, point: Point, path: str) -> None:
    try:
        system.point_id(point)
    except ModelError:
        raise SchemaError(f"{path}.point: {point} is not in the system") from None


def _valuation(
    reader: _Reader, runs: tuple[Run, ...], horizon: int, path: str
) -> tuple[tuple[str, int], ...]:
    """The (name, mask) pairs of the valuation object that opens at the
    reader's next character, over the points of ``runs``. A point list is
    checked and ORed into its mask a batch of entries at a time; any
    other value is parsed whole, for ``_truth_mask`` to reject."""
    ids = sorted(run.id for run in runs)
    slots = {run_id: slot for slot, run_id in enumerate(ids)}
    if len(slots) != len(ids):
        raise ValueError("a run id is repeated")
    width = horizon + 1
    size = len(ids) * width
    out = []
    for name in _keys(reader):
        where = f"{path}.{name}"
        if reader.peek() == "[":
            mask = 0
            for batch in _batches(reader):
                mask |= _truth_mask(batch, slots, width, size, where)
        else:
            mask = _truth_mask(reader.take(_value), slots, width, size, where)
        out.append((name, mask))
    return tuple(out)


def _batches(reader: _Reader) -> Iterator[list]:
    """The items of the array that opens at the reader's next character,
    a list of them at a time.

    A batch is the text from the next item to the last ``}`` within
    ``WINDOW`` characters when that item is an object, else to the last
    ``]``, parsed in brackets by one ``_value`` call. When the array's
    own ``]`` lies in that text, the parse stops there and the reader
    resumes at it. A cut inside an item or a string does not parse; the
    items up to the position the parse failed at are then taken one at a
    time, and the next item starts a batch again, so no text is parsed
    more than twice: in a batch and, where that batch failed, item by
    item.
    Whatever does not decode raises, for the caller's whole-document
    decoding to report.
    """
    failed = -1  # where the last batch that did not parse failed
    for _ in _items(reader):
        start = reader.at()
        if start > failed:
            reader.ahead(WINDOW)
            text, idx = reader.text, reader.idx
            cut = text.rfind("}" if text[idx] == "{" else "]", idx, idx + WINDOW) + 1
            if cut:
                try:
                    batch, end = _value("[" + text[idx:cut] + "]")
                except (ValueError, RecursionError) as exc:
                    failed = start + getattr(exc, "pos", 1) - 1
                else:
                    # at the array's own "]", or past the last one cut
                    reader.idx = idx + end - 2
                    yield batch
                    continue
        yield [reader.take(_value)]


def _expectations(reader: _Reader) -> tuple:
    """The expectations of the array that opens at the reader's next
    character, decoded a batch of items at a time (see ``_batches``).
    Equal formulas, points and notes are one object among them."""
    from .semantics import Expectation

    shared: dict = {}
    out: list = []
    for batch in _batches(reader):
        for e in batch:
            fields = _expectation(e, f"manifest.expectations[{len(out)}]", None)
            out.append(Expectation(*map(shared.setdefault, fields, fields)))
    return tuple(out)
