"""Command-line interface.

Subcommands: eval, scenario, axioms, check, graph, verify. Exit codes:
0 on success, 1 when an evaluation-level expectation or check fails (bad
formula, failed manifest expectation, failed structural check), 2 on I/O
or schema problems and on a malformed --point or --group, and 141 when
standard output is closed before the report is written. Reports are
deterministic; the trailing timing line is suppressed by --no-timing.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

from . import __version__
from .evaluate import EvalError, axiom_suite, truth_mask, verify_manifest
from .formulas import FormulaError, parse
from .runs import ModelError, validate_system
from .serialize import (
    SchemaError,
    dump_json,
    dump_manifest,
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    model_from_dict,
    parse_point,
)
from .views import export_graph


#: Exit status when the reader of standard output goes away before the
#: report is written (``epimc eval ... | head -1``); it is the status a
#: shell shows for a process ended by SIGPIPE.
EXIT_BROKEN_PIPE = 141

#: Reported instead of a traceback when parsing or evaluating a formula
#: recurses past the interpreter's limit.
TOO_DEEP = "formula nested too deeply"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _read_model(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 2) from None
    try:
        return model_from_dict(load_json(text))
    except SchemaError as exc:
        raise CliError(f"{path}: {exc}", 2) from None
    except ModelError as exc:
        raise CliError(f"{path}: {exc}", 2) from None


def _parse_formula(text: str):
    try:
        return parse(text)
    except FormulaError as exc:
        raise CliError(f"bad formula: {exc}", 1) from None
    except RecursionError:
        raise CliError(f"bad formula: {TOO_DEEP}", 1) from None


def _emit(report: dict, fmt: str, timing: float | None) -> None:
    if fmt == "json":
        if timing is not None:
            report = dict(report, seconds=round(timing, 3))
        sys.stdout.write(dump_json(report))
        return
    lines = report["lines"]
    for line in lines:
        print(line)
    if timing is not None:
        print(f"elapsed: {timing:.3f}s")


def _cmd_eval(args) -> int:
    model = _read_model(args.system)
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
    if point is None:
        points = model.point_order
        bits = bin(sat)[:1:-1].ljust(len(points), "0")
        rows = [(str(pt), bit == "1") for pt, bit in zip(points, bits)]
    else:
        try:
            rows = [(str(point), bool(sat >> model.system.point_id(point) & 1))]
        except ModelError as exc:
            raise CliError(str(exc), 1) from None
    report = {
        "formula": args.formula,
        "results": [{"point": p, "holds": h} for p, h in rows],
        "lines": [f"{'T' if h else 'F'}  {p}" for p, h in rows],
    }
    _emit(report, args.format, None if args.no_timing else time.monotonic() - started)
    return 0


def _coerce(value: str):
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        return value


def _cmd_scenario(args) -> int:
    from .scenarios import SCENARIOS

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
        params[key] = _coerce(value)
    try:
        manifest = SCENARIOS[args.name](**params)
    except TypeError as exc:
        raise CliError(f"bad parameters for {args.name}: {exc}", 2) from None
    except ModelError as exc:
        raise CliError(str(exc), 2) from None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        manifest_text, system_text = dump_manifest(manifest_to_dict(manifest))
        manifest_path = out / f"{args.name}.manifest.json"
        system_path = out / f"{args.name}.system.json"
        manifest_path.write_text(manifest_text)
        system_path.write_text(system_text)
    except OSError as exc:
        raise CliError(f"cannot write under {out}: {exc}", 2) from None
    print(f"wrote {system_path}")
    print(f"wrote {manifest_path}")
    print(f"{len(manifest.expectations)} expectations recorded")
    return 0


def _cmd_axioms(args) -> int:
    model = _read_model(args.system)
    props = args.props.split(",") if args.props else list(model.valuation.names)
    if not props:
        raise CliError("the model declares no propositions", 1)
    started = time.monotonic()
    try:
        report = axiom_suite(model, props, max_k=args.max_k)
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

    run_check = {
        "ng1": check_ng1,
        "ng2": check_ng2,
        "ng1prime": check_ng1prime,
        "timp": check_temporal_imprecision,
    }[args.which]
    model = _read_model(args.system)
    problems = validate_system(model.system)
    if problems:
        raise CliError("system is malformed: " + "; ".join(problems[:3]), 2)
    started = time.monotonic()
    try:
        report = run_check(model.system)
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
    model = _read_model(args.system)
    try:
        group = [int(x) for x in args.group.split(",")] if args.group else []
    except ValueError:
        raise CliError(f"--group: {args.group!r} is not a list of agent ids", 2) from None
    index = model.index
    try:
        text = export_graph(index, group)
    except ModelError as exc:
        raise CliError(f"--group: {exc}", 2) from None
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", 2) from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    try:
        text = Path(args.manifest).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {args.manifest}: {exc}", 2) from None
    try:
        manifest = manifest_from_dict(load_json(text))
    except (SchemaError, ModelError) as exc:
        raise CliError(f"{args.manifest}: {exc}", 2) from None
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
