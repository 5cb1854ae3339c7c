"""Trace spans kept in memory, and the traced run that splits each
workload's time by layer.

The traced run calls each epimc module's public functions in this
process, one span around each call, and replays each workload's CLI
queries with one span around each child. Span names carry the workload
as a prefix, so the same layer measured on two workloads gives two
metrics. Every traced run profiles all three workloads, so it yields
every per-layer metric whichever workload is named; the named workload
also gets its query phase run untraced, and the difference is the
tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import workloads as wl

STARTUP_SAMPLES = 5

# Formula node class -> the operator label used in metric names.
OP_LABELS = {
    "Prop": "Prop",
    "K": "K",
    "EPow": "Epow",
    "D": "D",
    "C": "C",
    "Nu": "nu",
    "CEps": "Ceps",
    "CDiamond": "Cv",
    "CTime": "Ct",
}


class Tracer:
    """Spans with name, start, end, parent span and op id.

    A span opened with no enclosing span starts a new op; spans opened
    inside it share its op id.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": next(self._span_ids),
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else next(self._op_ids),
            "name": name,
            "start": time.perf_counter(),
        }
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def with_self_time(self) -> list[dict]:
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [
            dict(s, self=s["end"] - s["start"] - covered[s["id"]])
            for s in sorted(self.spans, key=lambda s: s["id"])
        ]

    def write(self, path: Path, metrics: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"metrics": metrics, "spans": self.with_self_time()}))


class Checker:
    """Counts answers checked and records the ones that differ."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got}, expected {want}")

    def phase(self, what: str, phase: wl.Phase) -> None:
        self.attempted += len(phase.children)
        self.failures.extend(f"{what}: {f}" for f in phase.failures)


def point_set_answer(sat) -> dict:
    true = sorted(str(p) for p in sat)
    return {"size": len(true), "sha256": wl.digest("\n".join(true))}


def profile_broadcast(span, counts, files, queries, refs, check) -> None:
    from epimc import evaluate, parse
    from epimc.serialize import dump_json, load_json, model_from_dict, model_to_dict

    with span("serialize.load"):
        model = model_from_dict(load_json(files["system"].read_text()))
    with span("serialize.dump"):
        dump_json(model_to_dict(model))
    counts["serialize.file_bytes"] = files["system"].stat().st_size
    with span("views.build_index"):
        index = model.index
    classes = [cls for per_agent in index.classes_by_agent for cls in per_agent]
    counts["views.classes"] = len(classes)
    counts["views.largest_class"] = max(map(len, classes))
    with span("views.components"):
        assignment = index.components(range(wl.N_AGENTS))
    components = {id(c): c for c in assignment.values()}.values()
    counts["views.components"] = len(components)
    counts["views.largest_component"] = max(map(len, components))
    for q in queries:
        if q.kind != "eval":
            continue
        formula = parse(q.key)
        with span(f"evaluate.{q.label}"):
            sat = evaluate(model, formula)
        counts[f"evaluate.sat_points.{q.label}"] = len(sat)
        want = refs[q.key]
        check.expect(q.key, point_set_answer(sat), {"size": want["size"], "sha256": want["sha256"]})


def profile_handshake(span, counts, files, queries, refs, check) -> None:
    from epimc import check_ng1, check_ng1prime, check_ng2, check_temporal_imprecision
    from epimc.serialize import load_json, model_from_dict

    checks = {
        "ng1": check_ng1,
        "ng2": check_ng2,
        "ng1prime": check_ng1prime,
        "timp": check_temporal_imprecision,
    }
    with span("protocols.generate_runs"):
        generated = wl.build_handshake_system()
    counts["protocols.runs"] = len(generated.runs)
    with span("runs.history"):
        histories = [
            generated.history(agent, pt)
            for agent in generated.agents
            for pt in generated.points
        ]
    counts["runs.histories"] = len(histories)
    counts["runs.distinct_histories"] = len(set(histories))
    system = model_from_dict(load_json(files["system"].read_text())).system
    for q in queries:
        with span(f"protocols.check_{q.label}"):
            report = checks[q.label](system)
        violations = list(report.violations)
        counts[f"protocols.violations.{q.label}"] = len(violations)
        want = refs[q.key]
        got = {
            "exit": 0 if report.ok else 1,
            "violations": len(violations),
            "sha256": wl.digest(json.dumps(violations, sort_keys=True)),
        }
        check.expect(q.key, got, want)


def profile_muddy(span, counts, files, queries, refs, check) -> None:
    from epimc import SCENARIOS, evaluate, parse, verify_manifest
    from epimc.serialize import dump_json, load_json, manifest_from_dict, manifest_to_dict

    with span("scenarios.build"):
        built = SCENARIOS["muddy_children"](**wl.MUDDY_PARAMS)
    counts["scenarios.expectations"] = len(built.expectations)
    with span("serialize.dump"):
        text = dump_json(manifest_to_dict(built))
    counts["serialize.file_bytes"] = len(text.encode())

    with span("serialize.load"):
        manifest = manifest_from_dict(load_json(files["manifest"].read_text()))
    with span("scenarios.verify_manifest"):
        failed = verify_manifest(manifest)
    want = refs["verify"]
    check.expect(
        "verify_manifest",
        {"expectations": len(manifest.expectations), "failed": len(failed)},
        {"expectations": want["expectations"], "failed": want["failed"]},
    )

    # Replay the expectations one by one on a fresh model, after the index
    # and the component map are built, so parse and operator time separate.
    manifest = manifest_from_dict(load_json(text))
    model = manifest.model
    with span("views.build_index"):
        index = model.index
    with span("views.components"):
        index.components(range(wl.N_AGENTS))
    sat_points: dict[str, int] = defaultdict(int)
    replay_failed = 0
    for exp in manifest.expectations:
        with span("replay"):
            with span("formulas.parse"):
                formula = parse(exp.formula)
            label = OP_LABELS[type(formula).__name__]
            with span(f"evaluate.{label}"):
                sat = evaluate(model, formula)
        sat_points[label] += len(sat)
        if exp.point is None:
            ok = (sat == model.all_points) if exp.expected else not sat
        else:
            ok = (exp.point in sat) is exp.expected
        replay_failed += not ok
    check.expect("replayed expectations failed", replay_failed, want["failed"])
    counts["formulas.parsed"] = len(manifest.expectations)
    counts["formulas.distinct"] = len({e.formula for e in manifest.expectations})
    for label, n in sat_points.items():
        counts[f"evaluate.sat_points.{label}"] = n


PROFILES = {
    "broadcast_eval": profile_broadcast,
    "handshake_checks": profile_handshake,
    "muddy_verify": profile_muddy,
}


def traced_run(
    launcher: wl.Launcher, named: str, seed: int, work: Path, refs: dict, declared: list[str]
):
    """Profile every workload; return (metrics, checker, tracer)."""
    tracer = Tracer()
    check = Checker()
    counts: dict[str, float] = {}

    startup = []
    for i in range(STARTUP_SAMPLES):
        with tracer.span("cli.startup"):
            child = launcher.cli(("--version",), work / f"startup{i}.out")
        startup.append(child.seconds)
        check.expect("--version exit", child.exit_code, 0)
    counts["cli.startup_s"] = statistics.median(startup)

    for name, workload in wl.WORKLOADS.items():
        wdir = work / name
        wdir.mkdir()

        def span(layer: str, _name=name):
            return tracer.span(f"{_name}.{layer}")

        prefixed: dict[str, float] = {}
        with span("setup"):
            files = workload.setup(launcher, wdir).files
        queries = workload.queries(files, seed)
        if name == named:
            untraced = wl.run_phase(launcher, queries, wdir, refs[name])
            check.phase(f"{name} untraced", untraced)
        traced = wl.run_phase(launcher, queries, wdir, refs[name], span=span)
        check.phase(f"{name} traced", traced)
        if name == named:
            counts["trace.verdict_s"] = traced.seconds
            counts["trace.overhead_s"] = traced.seconds - untraced.seconds
        PROFILES[name](span, prefixed, files, queries, refs[name], check)
        counts.update({f"{name}.{k}": v for k, v in prefixed.items()})

    totals = tracer.totals()
    metrics = {}
    for metric in declared:
        if metric in counts:
            metrics[metric] = counts[metric]
        elif metric.endswith("_s") and metric[:-2] in totals:
            metrics[metric] = totals[metric[:-2]]
        else:
            raise SystemExit(f"bench: the traced run produced no value for {metric}")
    return metrics, check, tracer
