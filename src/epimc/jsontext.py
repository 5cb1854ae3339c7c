"""JSON text as epimc writes it: ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"``, byte for byte, written in pieces while it is
made.

``dump_json`` returns the text and ``write_json`` hands it to a writer
piece by piece. An iterator in the value stands for the list of its
items, which are taken as they come, so a report streamed from one is
never held whole.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, islice
from types import FunctionType
from typing import Any, Callable, Iterable, Iterator


def dump_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    where an iterator in ``obj`` stands for the list of its items.

    The standard library encodes with ``indent`` in pure Python, one call
    per value. Here the C encoder writes each flat container (one whose
    values are all scalars) in one call, with newline-and-indent item
    separators, and likewise each batch of ``_BATCH`` items of an array
    of scalars or of non-empty flat containers of one kind; only
    containers that hold containers are walked in Python. Keys are
    strings, as in every document epimc writes.
    """
    out: list[str] = []
    write_json(obj, out.append)
    return "".join(out)


def write_json(obj: Any, write: Callable[[str], Any]) -> None:
    """Write ``dump_json(obj)`` in pieces through ``write``, while it is
    made: an iterator's items are taken a batch at a time, so a report
    streamed from one is never held whole, as items or as text."""
    _encode(obj, 0, write)
    write("\n")


_SCALARS = frozenset({str, int, float, bool, type(None)})
_CLOSERS = {"{": "}", "[": "]"}
_scalar = json.JSONEncoder().encode
_key = json.encoder.encode_basestring_ascii
#: The items of an array, a list's or a stream's, that are taken and
#: written at a time, by one C call when they are scalars or flat.
_BATCH = 256


@functools.cache
def _flat_encoder(depth: int):
    """Encodes a flat container with its items on lines indented to
    ``depth``; the caller moves its brackets onto their own lines."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _opener(value: Any) -> str | None:
    """The bracket ``json`` writes ``value`` with; None for a scalar. An
    iterator is written as the array of the items it yields."""
    if isinstance(value, str):
        return None
    if isinstance(value, (list, tuple)):
        return "["
    if isinstance(value, dict):
        return "{"
    return "[" if isinstance(value, Iterator) else None


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
    elif not isinstance(value, (list, tuple, dict)):
        _encode_array(value, depth, write)
    elif not value:
        write(opener + _CLOSERS[opener])
    elif _SCALARS.issuperset(map(type, value.values() if opener == "{" else value)):
        here = "\n" + "  " * depth
        write(opener + here + "  ")
        write(_flat_encoder(depth + 1)(value)[1:-1])
        write(here + _CLOSERS[opener])
    elif opener == "[":
        _encode_array(iter(value), depth, write)
    else:
        items = ((_key(key) + ": ", item) for key, item in sorted(value.items()))
        _encode_items("{", items, depth, write)


def _encode_array(items: Iterator, depth: int, write: Callable[[str], Any]) -> None:
    """Write the array of ``items``, a list's or a stream's alike: the
    items are taken ``_BATCH`` at a time, and each batch is written by
    ``_write_batch``. Values too large to hold ``_BATCH`` of at once are
    written by a function instead (see ``_encode``)."""
    here = "\n" + "  " * depth
    sep = "[" + here + "  "
    while batch := list(islice(items, _BATCH)):
        write(sep)
        _write_batch(batch, depth + 1, write)
        sep = "," + here + "  "
    write(here + "]" if sep[0] == "," else "[]")


def _write_batch(batch: list, depth: int, write: Callable[[str], Any]) -> None:
    """Write the items of ``batch``, the first already indented to
    ``depth``, with the items' own separators between them.

    Scalars, and non-empty flat containers of one kind, are written by
    one C call; it leaves "},\n<indent>{" (or "],\n<indent>[") between
    two containers, which no flat item can contain: a string holds no
    raw newline and no value inside a flat item is a bracket. Any other
    batch is written item by item."""
    here = "\n" + "  " * depth
    kind = type(batch[0])
    if _SCALARS.issuperset(map(type, batch)):
        write(_flat_encoder(depth)(batch)[1:-1])
        return
    opener = {dict: "{", list: "["}.get(kind)
    if (
        opener
        and all(batch)
        and {kind}.issuperset(map(type, batch))
        and _SCALARS.issuperset(
            map(type, chain.from_iterable(map(dict.values, batch) if kind is dict else batch))
        )
    ):
        closer = _CLOSERS[opener]
        inner = here + "  "
        cut = closer + "," + inner + opener
        between = here + closer + "," + here + opener + inner
        write(opener + inner)
        write(_flat_encoder(depth + 1)(batch)[2:-2].replace(cut, between))
        write(here + closer)
        return
    for i, item in enumerate(batch):
        if i:
            write("," + here)
        _encode(item, depth, write)


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
