"""The report of ``eval``, made from the truth of each point and written a
run at a time.

A run's rows are made from its id, escaped once, and joined into one
piece of text (``ROWS`` of them at a time for a longer run). ``jsontext``
writes the JSON arrays through the functions made here, so the report is
indented JSON byte for byte as ``json.dumps`` writes the lists of its rows.
Only ``eval`` loads this module.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape
from operator import add
from typing import Callable, Iterator, Sequence

#: The rows that are made and written at a time: a run's, or this many
#: of a longer run's.
ROWS = 256


def eval_report(
    formula: str, run_ids: Sequence[str], times: Sequence[int], bits: str, fmt: str
) -> dict:
    """The report of ``eval`` in format ``fmt`` ("table" or "json") on the
    points at ``times`` of each run of ``run_ids``, in that order, whose
    truths are ``bits``, a "1" or "0" per point.

    For the table, ``lines`` are each run's lines, joined by newlines.
    For JSON, ``results`` and ``lines`` are ``jsontext`` value functions,
    which write their arrays at the depth they are given."""
    width = len(times)

    def rows(heads: Callable[[str], dict], tail: str, sep: str) -> Iterator[str]:
        # the row of tick t is heads(run_id)[bit] + str(t) + tail
        tails = [f"{t}{tail}" for t in times] if width <= ROWS else None
        for at, run_id in zip(range(0, len(bits), width), run_ids):
            head = heads(run_id).__getitem__
            for start in range(at, at + width, ROWS):
                span = times[start - at : start - at + ROWS]
                ends = tails or [f"{t}{tail}" for t in span]
                yield sep.join(map(add, map(head, bits[start : start + len(span)]), ends))

    if fmt == "table":
        return {"lines": rows(_table_heads, "", "\n")}

    def array(heads: Callable[[str, int], dict], tail: Callable[[int], str]):
        def write_array(depth: int, write: Callable[[str], object]) -> None:
            here = "\n" + "  " * depth
            sep = "[" + here + "  "
            for text in rows(lambda run_id: heads(run_id, depth), tail(depth), "," + here + "  "):
                write(sep + text)
                sep = "," + here + "  "
            write(here + "]" if sep[0] == "," else "[]")

        return write_array

    return {
        "formula": formula,
        "results": array(_result_heads, lambda depth: '"\n' + "  " * (depth + 1) + "}"),
        "lines": array(_line_heads, lambda depth: '"'),
    }


def _table_heads(run_id: str) -> dict[str, str]:
    return {"0": f"F  {run_id}@", "1": f"T  {run_id}@"}


def _result_heads(run_id: str, depth: int) -> dict[str, str]:
    """The start of each ``results`` row of run ``run_id``, up to its
    tick, in an array at ``depth``."""
    inner = "\n" + "  " * (depth + 2)
    point = f'{inner}"point": {_escape(run_id)[:-1]}@'
    return {"0": f'{{{inner}"holds": false,{point}', "1": f'{{{inner}"holds": true,{point}'}


def _line_heads(run_id: str, depth: int) -> dict[str, str]:
    inside = _escape(run_id)[1:-1]
    return {"0": f'"F  {inside}@', "1": f'"T  {inside}@'}
