"""The JSON documents epimc writes for systems, models and scenario
manifests, and the scenario command's two files.

``*_to_dict`` give each document as a dict, which ``jsontext.dump_json``
writes as text; ``write_manifest`` writes a scenario's manifest and
system files while it encodes them, one run at a time. The reading side
is ``serialize``, which a query loads without this module; its formats
are in docs/file-formats.md.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, TextIO

from . import SCHEMA_VERSION
from .jsontext import _encode, _encode_items, _scalar
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


def system_to_dict(system: System) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "agents": system.n_agents,
        "horizon": system.horizon,
        "runs": [run_to_dict(r) for r in system.runs],
    }


def valuation_to_dict(valuation: Valuation) -> dict:
    """Each truth set's points in dense order, which is sorted order."""
    points = valuation.system.points
    return {
        name: [list(points[i]) for i in ids_of(valuation.masks[name])]
        for name in valuation.names
    }


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
