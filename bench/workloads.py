"""The three fixed workloads: how their inputs are made, which CLI queries
they run, and how each answer is reduced to a comparable record.

The program under test is only ever given the generated input files. The
seed picks among small fixed sets of formula parameters (each with a
recorded reference answer) and permutes the order of the queries.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"

#: A child that runs longer than this is killed and counted as failed.
OP_LIMIT_S = 60.0
#: Wall time of calibrate.py on the reference host (a 2-vCPU VM under
#: Python 3.11). The host's speed drifts by up to 2x over minutes, and the
#: drift moves every child alike, so each timed child is bracketed by
#: calibration children and its wall time scaled by this constant over
#: their mean: ``setup_s`` and ``verdict_s`` are seconds at reference speed.
CALIBRATION_REFERENCE_S = 0.33
#: Set-up is repeated at least this many times and for at least this long,
#: and its median reported, so that one slow start does not set ``setup_s``.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0

N_AGENTS = 6
GROUP = "{" + ",".join(str(a) for a in range(N_AGENTS)) + "}"
BROADCAST_PARAMS = {"L": 1, "eps": 2, "n": N_AGENTS, "horizon": 8, "clocked": True}
MUDDY_PARAMS = {"n": N_AGENTS, "announce": True, "rounds": 6, "staggered_announcement": True}
HANDSHAKE_LEGS = 6
HANDSHAKE_HORIZON = 7
HANDSHAKE_STATES = ("favor", "neutral")
CHECKS = ("ng1", "ng2", "ng1prime", "timp")

# The seed draws one value from each set. Every member has a recorded
# reference and costs about the same to evaluate, so the seed moves the
# answer without moving the workload's cost.
K_AGENTS = tuple(range(N_AGENTS))
CEPS_WIDTHS = (1, 2, 3)
CT_STAMPS = (3, 4, 5)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    return env


def ensure_importable() -> None:
    if not (SRC / "epimc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no epimc package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Child processes


@dataclass(frozen=True)
class Child:
    start: float
    end: float
    exit_code: int
    timed_out: bool
    maxrss_mib: float
    stdout: bytes

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Launcher:
    """Runs children one at a time, as a user would, through the small
    launcher process in spawn.py (see there for why). Output goes to a
    file, so a large report cannot block the child on a full pipe."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )

    def run(self, argv: list[str], out_path: Path) -> Child:
        request = {"argv": argv, "out": str(out_path), "limit": OP_LIMIT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit("bench: the child launcher exited")
        r = json.loads(line)
        return Child(
            r["start"],
            r["end"],
            r["exit"],
            r["timed_out"],
            r["maxrss_kib"] / 1024.0,
            out_path.read_bytes(),
        )

    def cli(self, argv: tuple[str, ...], out_path: Path) -> Child:
        return self.run([sys.executable, "-m", "epimc.cli", *argv], out_path)

    def calibrate(self, work: Path) -> float:
        """Seconds one calibrate.py child takes now."""
        argv = [sys.executable, "-I", "-S", str(BENCH / "calibrate.py")]
        child = self.run(argv, work / "calibrate.out")
        if child.exit_code != 0:
            raise SystemExit(f"bench: calibrate.py exited {child.exit_code}")
        return child.seconds

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Answers


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answer_of(kind: str, exit_code: int, stdout: bytes) -> dict:
    """Reduce one CLI report to what the references record."""
    out: dict = {"exit": exit_code}
    try:
        doc = json.loads(stdout)
    except ValueError:
        return out
    if kind == "eval":
        true = sorted(r["point"] for r in doc["results"] if r["holds"])
        out.update(size=len(true), sha256=digest("\n".join(true)))
    elif kind == "check":
        violations = doc["violations"]
        out.update(
            violations=len(violations),
            sha256=digest(json.dumps(violations, sort_keys=True)),
        )
    elif kind == "verify":
        out.update(expectations=doc["expectations"], failed=len(doc["failures"]))
    return out


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())
    except OSError as exc:
        raise SystemExit(f"bench: cannot read references: {exc}") from None


# ---------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class Query:
    label: str  # operator or check name; names the cli.<label>_s metric
    kind: str  # eval, check or verify
    key: str  # reference key: the formula, the check name, or "verify"
    argv: tuple[str, ...]


def eval_query(label: str, formula: str, system: Path) -> Query:
    argv = ("eval", "--system", str(system), "--formula", formula,
            "--all", "--format", "json", "--no-timing")
    return Query(label, "eval", formula, argv)


def verify_query(manifest: Path) -> Query:
    argv = ("verify", "--manifest", str(manifest), "--format", "json", "--no-timing")
    return Query("verify", "verify", "verify", argv)


def check_query(which: str, system: Path) -> Query:
    argv = ("check", "--system", str(system), "--which", which,
            "--format", "json", "--no-timing")
    return Query(which, "check", which, argv)


def broadcast_formulas(k_agent: int, width: int, stamp: int) -> dict[str, str]:
    """The battery, by operator label. ``nu`` is the fixpoint form of ``C``."""
    return {
        "K": f"K{k_agent} psi_recv",
        "Epow": f"E^3{GROUP} psi_recv",
        "D": f"D{GROUP} psi_recv",
        "C": f"C{GROUP} psi_recv",
        "nu": f"nu X. E{GROUP}(psi_recv & X)",
        "Ceps": f"Ceps[{width}]{GROUP} psi_recv",
        "Cv": f"Cv{GROUP} psi_recv",
        "Ct": f"Ct[{stamp}]{GROUP} psi_recv",
    }


def all_broadcast_formulas() -> dict[str, str]:
    """Every formula any seed can pick, keyed by formula text."""
    out = {}
    for k in K_AGENTS:
        for w in CEPS_WIDTHS:
            for s in CT_STAMPS:
                for label, f in broadcast_formulas(k, w, s).items():
                    out[f] = label
    return out


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Setup:
    files: dict[str, Path]
    seconds: float
    children: tuple[Child, ...]


def scenario_setup(name: str, params: dict) -> Callable[[Launcher, Path], Setup]:
    def setup(launcher: Launcher, work: Path) -> Setup:
        argv = ["scenario", name, "--out", str(work)]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        child = launcher.cli(tuple(argv), work / "setup.out")
        if child.exit_code != 0:
            raise SystemExit(f"bench: scenario {name} exited {child.exit_code}")
        files = {
            "system": work / f"{name}.system.json",
            "manifest": work / f"{name}.manifest.json",
        }
        return Setup(files, child.seconds, (child,))

    return setup


def build_handshake_system():
    """The drop-generated handshake system, built in this process."""
    from epimc import DeliveryModel, InitialConfiguration, generate_runs
    from epimc.protocols import handshake

    configs = [InitialConfiguration((0, 0), (s, "await")) for s in HANDSHAKE_STATES]
    return generate_runs(
        handshake(HANDSHAKE_LEGS),
        DeliveryModel.not_guaranteed((0, 1)),
        configs,
        HANDSHAKE_HORIZON,
    )


def handshake_setup(launcher: Launcher, work: Path) -> Setup:
    from epimc import Model, ViewPolicy, make_valuation
    from epimc.serialize import dump_json, model_to_dict

    path = work / "handshake.system.json"
    start = time.perf_counter()
    model = Model(build_handshake_system(), make_valuation({}), ViewPolicy.complete_history())
    path.write_text(dump_json(model_to_dict(model)))
    return Setup({"system": path}, time.perf_counter() - start, ())


def broadcast_queries(files: dict[str, Path], seed: int) -> list[Query]:
    rng = random.Random(seed)
    k, w, s = rng.choice(K_AGENTS), rng.choice(CEPS_WIDTHS), rng.choice(CT_STAMPS)
    queries = [
        eval_query(label, f, files["system"])
        for label, f in broadcast_formulas(k, w, s).items()
    ]
    queries.append(verify_query(files["manifest"]))
    rng.shuffle(queries)
    return queries


def handshake_queries(files: dict[str, Path], seed: int) -> list[Query]:
    queries = [check_query(c, files["system"]) for c in CHECKS]
    random.Random(seed).shuffle(queries)
    return queries


def muddy_queries(files: dict[str, Path], seed: int) -> list[Query]:
    return [verify_query(files["manifest"])]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Launcher, Path], Setup]
    queries: Callable[[dict[str, Path], int], list[Query]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "broadcast_eval",
            scenario_setup("broadcast_channel", BROADCAST_PARAMS),
            broadcast_queries,
        ),
        Workload("handshake_checks", handshake_setup, handshake_queries),
        Workload(
            "muddy_verify",
            scenario_setup("muddy_children", MUDDY_PARAMS),
            muddy_queries,
        ),
    )
}


def speed_scale(before: float, after: float) -> float:
    """Reference calibration time over the mean of two calibrations."""
    return 2 * CALIBRATION_REFERENCE_S / (before + after)


def run_setup(
    launcher: Launcher, workload: Workload, work: Path
) -> tuple[dict[str, Path], list[Setup], float]:
    """Set up repeatedly; every repetition rewrites the same files.

    Also returns the speed scale from calibrations taken just before and
    just after.
    """
    before = launcher.calibrate(work)
    setups: list[Setup] = []
    while len(setups) < SETUP_MIN_REPEATS or sum(s.seconds for s in setups) < SETUP_MIN_S:
        setups.append(workload.setup(launcher, work))
    after = launcher.calibrate(work)
    return setups[-1].files, setups, speed_scale(before, after)


# ---------------------------------------------------------------------------
# The query phase


@dataclass(frozen=True)
class Phase:
    children: tuple[Child, ...]
    scales: tuple[float, ...]  # per child; 1.0 when not calibrated
    failures: tuple[str, ...]  # one line per failed op

    @property
    def seconds(self) -> float:
        """Wall time from the first spawn to the last exit."""
        return self.children[-1].end - self.children[0].start


def run_phase(
    launcher: Launcher,
    queries: list[Query],
    work: Path,
    refs: dict,
    span=None,
    calibrated: bool = False,
) -> Phase:
    """Run every query once, back to back, then check every answer.

    ``span(name)`` wraps each child in a trace span when given. With
    ``calibrated``, a calibration child runs before the first query and
    after each one, and each query's scale comes from the two around it.
    """
    children = []
    cals = [launcher.calibrate(work)] if calibrated else []
    for i, q in enumerate(queries):
        with span(f"cli.{q.label}") if span else nullcontext():
            children.append(launcher.cli(q.argv, work / f"q{i}.out"))
        if calibrated:
            cals.append(launcher.calibrate(work))
    if calibrated:
        scales = tuple(speed_scale(a, b) for a, b in zip(cals, cals[1:]))
    else:
        scales = (1.0,) * len(children)
    failures = []
    for q, child in zip(queries, children):
        if child.timed_out:
            failures.append(f"{q.key}: over the {OP_LIMIT_S:.0f} s limit")
            continue
        got = answer_of(q.kind, child.exit_code, child.stdout)
        if got != refs.get(q.key):
            failures.append(f"{q.key}: got {got}, expected {refs.get(q.key)}")
    return Phase(tuple(children), scales, tuple(failures))
