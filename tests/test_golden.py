"""Golden digests of the command line's output.

``tests/golden.json`` maps each command line below, grouped by the
scenario whose files it reads, to its exit code and
the SHA-256 of its standard output and standard error; a ``scenario``
entry also has the SHA-256 of each file it writes. Every command runs
in-process through ``cli.main``, with ``--no-timing`` where the command
takes it, in a scratch directory that holds the scenario files, so the
paths in the keys and in the output are relative.

A change that moves a digest changes what a user sees. Regenerate the
file, after checking that the change is meant, with::

    PYTHONPATH=src python -m tests.test_golden --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from epimc.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

#: Scenario -> its ``--param`` values, at the sizes of ``SMALL_PARAMS``
#: in ``tests/test_scenarios.py``, and the proposition its formulas use.
SCENARIOS = {
    "broadcast_channel": (["L=1", "eps=1", "n=3", "horizon=4", "clocked=true"], "psi_recv"),
    "coordinated_attack": (["k_legs=3", "horizon=4"], "prefav"),
    "muddy_children": (["n=3", "announce=true", "rounds=3", "staggered_announcement=true"], "m"),
    "ok_protocol": (["horizon=4"], "psi"),
    "r2d2": (["eps=1", "t_S=3", "k_max=2"], "sent_m"),
    "timestamped_demo": (["delta=1", "eps=1"], "sent_mp"),
}

#: Scenario -> more ``--param`` sets, each written after the commands
#: above and only its ``scenario`` command digested: the builder
#: branches that the sets above do not reach.
BUILDS = {
    "muddy_children": (
        ["n=2", "announce=false", "rounds=3"],
        ["n=3", "announce=true", "rounds=4"],
        ["n=1", "announce=true", "rounds=2", "staggered_announcement=true"],
    ),
    "r2d2": (
        ["eps=1", "t_S=3", "k_max=2", "closed_window=true"],
        ["eps=2", "t_S=5", "k_max=2"],
        ["eps=2", "t_S=5", "k_max=2", "closed_window=true"],
    ),
}

#: One formula per modal head, and a nu form; ``{g}`` is the group of
#: every agent and ``{p}`` the scenario's proposition. The clock heads
#: (Kt, Et, Ct) exit 1 on a system without clocks.
FORMULAS = (
    "K0 {p}", "Kt0[1] {p}", "S{g} {p}", "E{g} {p}", "E^2{g} {p}", "D{g} {p}",
    "C{g} {p}", "Eeps[1]{g} {p}", "Ceps[1]{g} {p}", "Ev{g} {p}", "Cv{g} {p}",
    "Et[1]{g} {p}", "Ct[1]{g} {p}", "nu X. E{g}({p} & X)",
)

CHECKS = ("ng1", "ng1prime", "ng2", "timp")
FORMATS = (["--format", "table"], ["--format", "json"])

_RUN = {"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"}}

#: Hand-written system files, by name: a valid horizon-0 system and one
#: file per decoding error that names its field.
FILES = {
    "horizon_zero": {"agents": 1, "horizon": 0, "runs": [_RUN], "valuation": {"p": [["r", 0]]}},
    "short_clock": {"agents": 1, "horizon": 1, "runs": [dict(_RUN, clock={"0": [0]})]},
    "unknown_agent": {"agents": 1, "horizon": 1, "runs": [dict(_RUN, events=[
        {"time": 0, "agent": 5, "kind": "send", "peer": 0, "message": "m"}])]},
    "duplicate_run": {"agents": 1, "horizon": 1, "runs": [_RUN, _RUN]},
    "unknown_policy": {"agents": 1, "horizon": 1, "runs": [_RUN], "policy": "nope"},
}

#: Commands on the ``FILES`` and on bad scenario parameters.
INPUT_COMMANDS = [
    ["scenario", "r2d2", "--out", ".", "--param", "eps=1", "--param", "t_S=4",
     "--param", "k_max=-2"],
    *(["axioms", "--system", "horizon_zero.json", *fmt, "--no-timing"] for fmt in FORMATS),
    *(
        ["eval", "--system", f"{name}.json", "--formula", "true", "--all", "--no-timing"]
        for name in FILES
        if name != "horizon_zero"
    ),
    # check reads only the runs of a system file
    ["check", "--system", "unknown_policy.json", "--which", "ng1", "--no-timing"],
]


def _scenario_commands(name: str) -> list[list[str]]:
    """The commands run on scenario ``name``'s files, after the
    ``scenario`` command that writes them."""
    system, manifest = f"{name}.system.json", f"{name}.manifest.json"
    return [
        *(
            ["eval", "--system", system, "--formula", formula, "--all", *fmt, "--no-timing"]
            for formula in FORMULAS
            for fmt in FORMATS
        ),
        *(["verify", "--manifest", manifest, *fmt, "--no-timing"] for fmt in FORMATS),
        *(
            ["check", "--system", system, "--which", which, *fmt, "--no-timing"]
            for which in CHECKS
            for fmt in FORMATS
        ),
        *(["axioms", "--system", system, *fmt, "--no-timing"] for fmt in FORMATS),
        ["graph", "--system", system, "--group", "{agents}"],
    ]


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


def digests(name: str) -> dict[str, dict]:
    """Command line -> result, for every command run on scenario
    ``name``, or on the ``FILES`` when ``name`` is "inputs"; the working
    directory must be empty of their files."""
    if name == "inputs":
        for file, doc in FILES.items():
            Path(f"{file}.json").write_text(json.dumps(dict(doc, schema=1)))
        return {shlex.join(argv): _run(argv) for argv in INPUT_COMMANDS}
    params, prop = SCENARIOS[name]
    out = _written(name, params)
    doc = json.loads(Path(f"{name}.system.json").read_text())
    agents = ",".join(map(str, range(doc["agents"])))
    for argv in _scenario_commands(name):
        argv = [
            arg.format(g="{" + agents + "}", p=prop, agents=agents) for arg in argv
        ]
        out[shlex.join(argv)] = _run(argv)
    for params in BUILDS.get(name, ()):
        out.update(_written(name, params))
    return out


def _written(name: str, params: list[str]) -> dict[str, dict]:
    """The ``scenario`` command line that writes scenario ``name``'s
    files with ``params`` -> its result and the digest of each file."""
    argv = ["scenario", name, "--out", "."]
    for param in params:
        argv += ["--param", param]
    result = _run(argv)
    written = sorted(Path(".").glob(f"{name}.*.json"))
    result["files"] = {path.name: _sha(path.read_bytes()) for path in written}
    return {shlex.join(argv): result}


@contextlib.contextmanager
def _inside(path: str):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


GROUPS = [*sorted(SCENARIOS), "inputs"]


@pytest.mark.parametrize("name", GROUPS)
def test_outputs_match_the_golden_digests(golden, tmp_path, name):
    with _inside(tmp_path):
        got = digests(name)
    want = golden[name]
    moved = sorted(line for line in got.keys() | want.keys() if got.get(line) != want.get(line))
    assert not moved, moved


def test_golden_file_has_one_table_per_group(golden):
    assert list(golden) == GROUPS


def write() -> None:
    table: dict[str, dict] = {}
    for name in GROUPS:
        with tempfile.TemporaryDirectory() as scratch, _inside(scratch):
            table[name] = digests(name)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {sum(map(len, table.values()))} entries to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    write()
