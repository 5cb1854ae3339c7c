"""The JSON documents epimc writes for systems, models and scenario
manifests, and the scenario command's two files.

``*_to_dict`` give each document as a dict, which ``jsontext.dump_json``
writes as text; ``write_manifest`` writes a scenario's manifest and
system files while it encodes them, one run, one batch of a truth
set's entries and one batch of expectations at a time, and makes each
distinct wake-up, initial-state, clock and event text once per write.
The reading side is ``serialize`` and ``decoders``, which a query loads
without this module; its formats are in docs/file-formats.md.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterator, TextIO

from . import SCHEMA_VERSION
from .jsontext import _encode, _scalar
from .runs import Run, System, ids_of

if TYPE_CHECKING:
    from .semantics import Model, ScenarioManifest, Valuation


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
    out = {
        "id": run.id,
        "wake_up": {str(a): run.wake_up[a] for a in range(run.n_agents)},
        "initial_state": {str(a): run.initial_state[a] for a in range(run.n_agents)},
        "events": [
            {"time": t, "agent": agent, "kind": kind, "peer": peer, "message": message}
            for t, agent, kind, peer, message in run_events(run)
        ],
    }
    if run.clock is not None:
        out["clock"] = {str(a): list(run.clock[a]) for a in range(run.n_agents)}
    return out


def system_to_dict(system: System) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "agents": system.n_agents,
        "horizon": system.horizon,
        "runs": [run_to_dict(r) for r in system.runs],
    }


def valuation_to_dict(valuation: Valuation) -> dict:
    """Each truth set's points in dense order, which is sorted order:
    dense point ``r * width + t`` is time ``t`` of the ``r``-th run of
    ``runs_in_point_order``."""
    return {name: list(entries) for name, entries in _valuation_entries(valuation).items()}


def _valuation_entries(valuation: Valuation) -> dict[str, Iterator[list]]:
    """``valuation_to_dict(valuation)`` with an iterator in place of each
    point list, which makes its entries as they are taken."""
    system = valuation.system
    ids = [run.id for run in system.runs_in_point_order]
    width = system.horizon + 1

    def entries(mask: int) -> Iterator[list]:
        for r, t in map(divmod, ids_of(mask), repeat(width)):
            yield [ids[r], t]

    return {name: entries(valuation.masks[name]) for name in valuation.names}


def model_to_dict(model: Model) -> dict:
    runs = [run_to_dict(r) for r in model.system.runs]
    return _model_doc(model, runs, valuation_to_dict(model.valuation))


def _model_doc(model: Model, runs: Any, valuation: dict) -> dict:
    """``model_to_dict(model)`` with ``runs`` and ``valuation`` as its
    values of those keys."""
    return {
        "schema": SCHEMA_VERSION,
        "agents": model.system.n_agents,
        "horizon": model.system.horizon,
        "runs": runs,
        "valuation": valuation,
        "policy": model.policy.name,
    }


def manifest_to_dict(manifest: ScenarioManifest) -> dict:
    doc = _manifest_doc(manifest, model_to_dict(manifest.model))
    doc["expectations"] = list(doc["expectations"])
    return doc


def _manifest_doc(manifest: ScenarioManifest, system: Any) -> dict:
    """``manifest_to_dict(manifest)`` with ``system`` as its ``system``
    value and an iterator of the expectations' objects."""
    return {
        "schema": SCHEMA_VERSION,
        "scenario": manifest.name,
        "parameters": dict(manifest.parameters),
        "system": system,
        "expectations": (
            {
                "formula": e.formula,
                "point": str(e.point) if e.point is not None else None,
                "expected": e.expected,
                "note": e.note,
            }
            for e in manifest.expectations
        ),
    }


def write_manifest(
    manifest: ScenarioManifest, manifest_file: TextIO, system_file: TextIO
) -> None:
    """Write ``manifest_to_dict(manifest)`` to ``manifest_file`` and
    ``model_to_dict(manifest.model)`` to ``system_file``, each byte for
    byte as ``dump_json`` writes it, while the texts are made.

    The runs are written by ``_write_runs``, one run at a time, and a
    valuation's entries and the expectations' objects are made a batch
    at a time as they are written, so neither file's text, nor a list of
    run or expectation documents or of a truth set's entries, is ever
    held whole.
    """
    model = manifest.model
    runs = model.system.runs
    system = _model_doc(
        model,
        lambda depth, write: _write_runs(runs, depth, write),
        _valuation_entries(model.valuation),
    )
    _write_split(_manifest_doc(manifest, system), manifest_file, system_file)


def _write_runs(runs: tuple[Run, ...], depth: int, write: Callable[[str], Any]) -> None:
    """Write the text of ``[run_to_dict(run) for run in runs]``, whose
    first line is indented to ``depth``, three pieces a run: its text up
    to its events, its events' text (``_events_text``) and the rest.

    A run's wake-up, initial state and clock are each an object keyed by
    agent, whose text at the fields' depth is made once per distinct
    value and kept in that field's table; the runs lie at one depth, so
    each table holds one depth's texts. Only the id is encoded per run.
    """
    if not runs:
        write("[]")
        return
    item = "\n" + "  " * (depth + 1)
    field = item + "  "
    wakes: dict[tuple, str] = {}
    inits: dict[tuple, str] = {}
    clocks: dict[tuple, str] = {}
    heads: dict[tuple, str] = {}

    def text(table: dict[tuple, str], value: tuple) -> str:
        found = table.get(value)
        if found is None:
            pieces: list[str] = []
            _encode({str(a): v for a, v in enumerate(value)}, depth + 2, pieces.append)
            found = table[value] = "".join(pieces)
        return found

    sep = "[" + item
    for run in runs:
        clock = "" if run.clock is None else f'"clock": {text(clocks, run.clock)},{field}'
        write(f'{sep}{{{field}{clock}"events": ')
        write(_events_text(run_events(run), depth + 2, heads))
        write(
            f',{field}"id": {_scalar(run.id)},'
            f'{field}"initial_state": {text(inits, run.initial_state)},'
            f'{field}"wake_up": {text(wakes, run.wake_up)}{item}}}'
        )
        sep = "," + item
    write(item[:-2] + "]")


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
