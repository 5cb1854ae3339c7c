"""Command-line interface.

Subcommands: eval, scenario, axioms, check, graph, verify. Exit codes:
0 on success, 1 when an evaluation-level expectation or check fails (bad
formula, failed manifest expectation, failed structural check), 2 on I/O,
schema or run-consistency problems, a malformed --point, --group, --param
or --max-k and an oversized scenario, and 141 when standard output is
closed before the report is written.
Reports are deterministic; --no-timing suppresses the timing line.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

from . import __version__


#: Exit status when the reader of standard output goes away before the
#: report is written (``epimc eval ... | head -1``); it is the status a
#: shell shows for a process ended by SIGPIPE.
EXIT_BROKEN_PIPE = 141

#: Reported instead of a traceback when evaluating a formula recurses past
#: the interpreter's limit: each nested nu binder recurses once more.
TOO_DEEP = "formula nested too deeply"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _read(path: str, decode):
    """The document in file ``path``, decoded by ``decode``.

    ``load_document`` reads the file in chunks and decodes each item of
    it (a run, a batch of a proposition's entries or of expectations) as
    it parses it, so it never holds more than a few chunks of the text
    besides the item it is reading; for ``system_from_dict``, which reads
    the runs alone, it decodes no other item, steps over a valuation one
    entry at a time and loads no model decoder. If opening, reading or
    decoding raises, the file's whole text is read and its whole document
    decoded, so that a bad file is reported as ``decode(load_json(text))``
    reports it.
    """
    from .runs import ModelError
    from .serialize import load_document, load_json, system_from_dict

    try:
        with open(path, "rb", buffering=0) as file:
            document = load_document(file, values=decode is not system_from_dict)
        return decode(document)
    except Exception:  # of any kind: the whole document's decoding reports it
        pass
    try:
        return decode(load_json(_text(path)))
    except ModelError as exc:
        raise CliError(f"{path}: {exc}", 2) from None


def _text(path: str) -> str:
    """The text of file ``path``, read as UTF-8, JSON's encoding."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 2) from None
    except UnicodeDecodeError as exc:
        message = f"{path}: not valid UTF-8: {exc.reason} at byte {exc.start}"
        raise CliError(message, 2) from None


def _parse_formula(text: str):
    from .formulas import FormulaError, parse

    try:
        return parse(text)
    except FormulaError as exc:
        raise CliError(f"bad formula: {exc}", 1) from None


def _emit(report: dict, fmt: str, timing: float | None) -> None:
    """Write ``report`` to standard output: as JSON with --format json,
    else its ``lines``. Either is written while it is made, so a report
    whose values are iterators is never held whole."""
    if fmt == "json":
        from .jsontext import write_json

        if timing is not None:
            report = dict(report, seconds=round(timing, 3))
        write_json(report, sys.stdout.write)
        return
    sys.stdout.writelines(line + "\n" for line in report["lines"])
    if timing is not None:
        print(f"elapsed: {timing:.3f}s")


def _cmd_eval(args) -> int:
    from .decoders import model_from_dict
    from .evalreport import eval_report
    from .runs import ModelError
    from .semantics import EvalError, truth_mask
    from .serialize import SchemaError, parse_point

    model = _read(args.system, model_from_dict)
    formula = _parse_formula(args.formula)
    try:
        point = None if args.all else parse_point(args.point)
    except SchemaError as exc:
        raise CliError(f"--point: {exc}", 2) from None
    started = time.monotonic()
    try:
        sat = truth_mask(model, formula)
    except (EvalError, ModelError) as exc:
        raise CliError(str(exc), 1) from None
    except RecursionError:
        raise CliError(TOO_DEEP, 1) from None
    # the report's points, the same ticks of each run in dense order, and
    # a "1" or "0" per point for its truth
    system = model.system
    if point is None:
        run_ids = [run.id for run in system.runs_in_point_order]
        times = range(system.horizon + 1)
        bits = bin(sat)[:1:-1].ljust(len(run_ids) * len(times), "0")
    else:
        try:
            bits = str(sat >> system.point_id(point) & 1)
        except ModelError as exc:
            raise CliError(str(exc), 1) from None
        run_ids, times = [point.run_id], (point.time,)
    timing = None if args.no_timing else time.monotonic() - started
    _emit(eval_report(args.formula, run_ids, times, bits, args.format), args.format, timing)
    return 0


#: ``--param`` value readers by the scenario parameter's annotation, with
#: what each accepts; a value it rejects exits 2.
_PARAM_TYPES = {
    "bool": (lambda text: {"true": True, "false": False}[text.lower()], "true or false"),
    "int": (int, "an integer"),
    "int | None": (lambda text: int(text) if text else None, "an integer or nothing"),
}


def _coerce(scenario, key: str, value: str):
    """``value`` read as the type ``scenario`` declares for ``key``; an
    undeclared key is passed through, for the call to reject."""
    read, accepts = _PARAM_TYPES.get(scenario.__annotations__.get(key), (None, ""))
    if read is None:
        return value
    try:
        return read(value)
    except (KeyError, ValueError):
        raise CliError(f"--param {key}: expected {accepts}, got {value!r}", 2) from None


def _cmd_scenario(args) -> int:
    from .runs import ModelError
    from .scenarios import SCENARIOS
    from .writer import write_manifest

    if args.name not in SCENARIOS:
        raise CliError(
            f"unknown scenario {args.name!r}; available: "
            + ", ".join(sorted(SCENARIOS)),
            2,
        )
    params = {}
    for item in args.param or ():
        if "=" not in item:
            raise CliError(f"--param expects key=value, got {item!r}", 2)
        key, value = item.split("=", 1)
        params[key] = _coerce(SCENARIOS[args.name], key, value)
    try:
        manifest = SCENARIOS[args.name](**params)
    except TypeError as exc:
        raise CliError(f"bad parameters for {args.name}: {exc}", 2) from None
    except ModelError as exc:
        raise CliError(str(exc), 2) from None
    out = Path(args.out)
    manifest_path = out / f"{args.name}.manifest.json"
    system_path = out / f"{args.name}.system.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with manifest_path.open("w") as manifest_file, system_path.open("w") as system_file:
            write_manifest(manifest, manifest_file, system_file)
    except OSError as exc:
        raise CliError(f"cannot write under {out}: {exc}", 2) from None
    print(f"wrote {system_path}")
    print(f"wrote {manifest_path}")
    print(f"{len(manifest.expectations)} expectations recorded")
    return 0


def _cmd_axioms(args) -> int:
    from .axioms import axiom_suite
    from .decoders import model_from_dict
    from .runs import ModelError
    from .semantics import EvalError

    if args.max_k < 1:  # E^k needs k >= 1
        raise CliError(f"--max-k must be at least 1, got {args.max_k}", 2)
    model = _read(args.system, model_from_dict)
    props = args.props.split(",") if args.props else list(model.valuation.names)
    if not props:
        raise CliError("the model declares no propositions", 1)
    started = time.monotonic()
    try:
        # the interval rows need a width inside the horizon
        report = axiom_suite(
            model, props, max_k=args.max_k, eps=min(1, model.system.horizon)
        )
    except (EvalError, ModelError) as exc:
        raise CliError(str(exc), 1) from None
    doc = {
        "entries": [
            {
                "name": e.name,
                "formula": e.formula,
                "status": e.status,
                "detail": e.detail,
                "counterexample": str(e.counterexample) if e.counterexample else None,
            }
            for e in report.entries
        ],
        "failures": len(report.failures),
        "lines": report.render().splitlines(),
    }
    _emit(doc, args.format, None if args.no_timing else time.monotonic() - started)
    return 0 if report.ok else 1


#: ``check --which`` names; ``_cmd_check`` maps each to its function.
_CHECKS = ("ng1", "ng1prime", "ng2", "timp")


def _cmd_check(args) -> int:
    from .protocols import (
        check_ng1,
        check_ng1prime,
        check_ng2,
        check_temporal_imprecision,
    )
    from .runs import ModelError
    from .serialize import system_from_dict

    run_check = {
        "ng1": check_ng1,
        "ng2": check_ng2,
        "ng1prime": check_ng1prime,
        "timp": check_temporal_imprecision,
    }[args.which]
    system = _read(args.system, system_from_dict)
    started = time.monotonic()
    try:
        report = run_check(system)
    except ModelError as exc:
        raise CliError(str(exc), 1) from None
    doc = {
        "check": report.name,
        "ok": report.ok,
        "violations": list(report.violations),
        "notes": list(report.notes),
        "lines": report.render().splitlines(),
    }
    _emit(doc, args.format, None if args.no_timing else time.monotonic() - started)
    return 0 if report.ok else 1


def _cmd_graph(args) -> int:
    from .decoders import model_from_dict
    from .runs import ModelError
    from .views import graph_chunks

    model = _read(args.system, model_from_dict)
    try:
        group = [int(x) for x in args.group.split(",")] if args.group else []
    except ValueError:
        raise CliError(f"--group: {args.group!r} is not a list of agent ids", 2) from None
    index = model.index
    try:
        chunks = graph_chunks(index, group)
    except ModelError as exc:
        raise CliError(f"--group: {exc}", 2) from None
    if args.out:
        try:
            with open(args.out, "w") as out:
                out.writelines(chunks)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", 2) from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(chunks)
    return 0


def _cmd_verify(args) -> int:
    from .decoders import manifest_from_dict
    from .formulas import FormulaError
    from .runs import ModelError
    from .semantics import verify_manifest

    manifest = _read(args.manifest, manifest_from_dict)
    started = time.monotonic()
    try:
        failures = verify_manifest(manifest)
    except (FormulaError, ModelError) as exc:
        raise CliError(f"{args.manifest}: {exc}", 1) from None
    except RecursionError:
        raise CliError(f"{args.manifest}: {TOO_DEEP}", 1) from None
    lines = [
        f"{manifest.name}: {len(manifest.expectations)} expectations, "
        f"{len(failures)} failed"
    ]
    for f in failures:
        where = str(f.expectation.point) if f.expectation.point else "all points"
        lines.append(
            f"FAIL {f.expectation.formula} at {where} "
            f"(expected {f.expectation.expected}): {f.detail}"
        )
    doc = {
        "scenario": manifest.name,
        "expectations": len(manifest.expectations),
        "failures": [
            {
                "formula": f.expectation.formula,
                "point": str(f.expectation.point) if f.expectation.point else None,
                "expected": f.expectation.expected,
                "detail": f.detail,
            }
            for f in failures
        ],
        "lines": lines,
    }
    _emit(doc, args.format, None if args.no_timing else time.monotonic() - started)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epimc",
        description="Model checker for knowledge in finite run-based systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--no-timing", action="store_true")

    p = sub.add_parser("eval", help="evaluate a formula over a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--formula", required=True)
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--point", help="run_id@time")
    where.add_argument("--all", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scenario", help="emit a built-in scenario and manifest")
    p.add_argument("name")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("axioms", help="run the axiom and hierarchy suite")
    p.add_argument("--system", required=True)
    p.add_argument("--props", help="comma-separated names; defaults to all")
    p.add_argument("--max-k", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("check", help="structural communication checks")
    p.add_argument("--system", required=True)
    p.add_argument("--which", choices=_CHECKS, required=True)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("graph", help="export the indistinguishability graph")
    p.add_argument("--system", required=True)
    p.add_argument("--group", help="comma-separated agent ids", default="")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("verify", help="replay a manifest's expectations")
    p.add_argument("--manifest", required=True)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


#: Generation-0 collection threshold while a command runs (CPython's
#: default is 700). Loading a model or building a scenario allocates
#: hundreds of thousands of tuples that all stay alive, so frequent young
#: collections free almost nothing.
GC_THRESHOLD = 50_000


def main(argv=None) -> int:
    # What the imports left alive lives until exit: freeze it, so that no
    # collection walks it again. Both settings are undone on return, for
    # callers that run main in-process.
    gc.freeze()
    threshold = gc.get_threshold()
    gc.set_threshold(GC_THRESHOLD, *threshold[1:])
    try:
        return _run(argv)
    finally:
        gc.set_threshold(*threshold)
        gc.unfreeze()


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The recipe in the Python docs ("Note on SIGPIPE"): point stdout
        # at devnull, so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
