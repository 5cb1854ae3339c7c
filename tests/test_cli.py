import ast
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from epimc import decoders, serialize
from epimc.cli import EXIT_BROKEN_PIPE, CliError, _read, main
from epimc.runs import ModelError, System, timeline_entry
from epimc.scenarios import SCENARIOS, _depth_formula
from epimc.semantics import Model, ScenarioManifest, evaluate, verify_manifest
from epimc.formulas import parse
from epimc.serialize import (
    dump_json,
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    model_from_dict,
    model_to_dict,
    system_from_dict,
)
from epimc.views import export_graph
from tests.helpers import child_env, random_model
from tests.test_scenarios import SMALL_PARAMS


@pytest.fixture()
def attack_files(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "scenario", "coordinated_attack",
            "--param", "k_legs=2", "--param", "horizon=3",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out / "coordinated_attack.system.json", out / "coordinated_attack.manifest.json"


def test_eval_all_points_exits_zero(attack_files, capsys):
    system, _ = attack_files
    code = main(
        ["eval", "--system", str(system), "--formula", "C{0,1} both_attack",
         "--all", "--no-timing"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("F  ") == out.count("\n")  # false everywhere


def test_eval_all_rows_follow_the_truth_set(attack_files, capsys):
    system, _ = attack_files
    model = model_from_dict(json.loads(system.read_text()))
    sat = evaluate(model, parse("K1 sent_1"))
    code = main(
        ["eval", "--system", str(system), "--formula", "K1 sent_1",
         "--all", "--format", "json", "--no-timing"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert rows == [{"point": str(p), "holds": p in sat} for p in model.system.points]
    assert 0 < len(sat) < len(rows)


def test_eval_single_point_json(attack_files, capsys):
    system, _ = attack_files
    code = main(
        ["eval", "--system", str(system), "--formula", "prefav",
         "--point", "c1@0", "--format", "json", "--no-timing"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"] == [{"point": "c1@0", "holds": False}]


def test_eval_agent_out_of_range_exits_one(attack_files, capsys):
    system, _ = attack_files
    code = main(
        ["eval", "--system", str(system), "--formula", "K9 prefav",
         "--all", "--no-timing"]
    )
    assert code == 1
    assert "agent 9" in capsys.readouterr().err


def test_eval_bad_formula_exits_one(attack_files, capsys):
    system, _ = attack_files
    code = main(
        ["eval", "--system", str(system), "--formula", "K1 &", "--all"]
    )
    assert code == 1
    assert "position" in capsys.readouterr().err


_DIGITS = "1" * 5000  # more than int() converts from text


@pytest.mark.parametrize(
    "text, position",
    [(f"K{_DIGITS} prefav", 1), (f"E^{_DIGITS}{{0}} prefav", 2),
     (f"Ceps[1]{{0,{_DIGITS}}} prefav", 10)],
    ids=["agent", "power", "group"],
)
def test_a_too_long_integer_is_a_bad_formula(attack_files, capsys, text, position):
    system, _ = attack_files
    code = main(["eval", "--system", str(system), "--formula", text, "--all", "--no-timing"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"bad formula: integer of 5000 digits is too long (at position {position})"
    )


def test_missing_file_exits_two(capsys):
    code = main(["eval", "--system", "/nonexistent.json", "--formula", "p", "--all"])
    assert code == 2


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"schema": 1, "agents": 2, "horizon": -1, "runs": []}, "horizon"),
        ({"schema": 1, "agents": "two", "horizon": 1, "runs": []}, "agents"),
        ({"schema": 1, "agents": 2, "horizon": 1, "runs": [],
          "valuation": {"p": [["zz", 9]]}}, "valuation.p[0]"),
        ({"schema": 1, "agents": 1, "horizon": 1,
          "runs": [{"id": "r", "wake_up": {"0": "x"}, "initial_state": {"0": "s"}}]},
         "runs[0].wake_up.0"),
        ({"schema": 1, "agents": 1, "horizon": 1,
          "runs": [{"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"},
                    "events": [{"time": "a", "agent": 0, "kind": "send",
                                "peer": 0, "message": "m"}]}]},
         "runs[0].events[0].time"),
        ({"schema": 1, "agents": 2, "horizon": 1, "runs": [], "valuation": [1]},
         "system.valuation"),
    ],
)
def test_system_with_bad_numbers_or_points_exits_two(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.system.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--system", str(path), "--formula", "true", "--all"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["nu X. K0 " * 3000 + "X", "nu X. ~~" * 3000 + "X", "nu X. (" * 3000 + "X" + ")" * 3000],
    ids=["knowledge", "negation", "parentheses"],
)
def test_deeply_nested_formula_exits_one(attack_files, tmp_path, capsys, text):
    # each nu binder is evaluated by one more recursion through the
    # fixed-point iteration, so nested binders are what can still run out
    # of stack; they exit 1 with a message, not a traceback
    system, manifest = attack_files
    assert main(["eval", "--system", str(system), "--formula", text, "--all"]) == 1
    assert "nested too deeply" in capsys.readouterr().err
    doc = json.loads(manifest.read_text())
    doc["expectations"] = [{"formula": text, "point": None, "expected": True}]
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(deep), "--no-timing"]) == 1
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, shallow",
    [
        ("K0 " * 10_000 + "prefav", "K0 prefav"),
        ("~" * 10_000 + "prefav", "prefav"),
        ("(" * 10_000 + "prefav" + ")" * 10_000, "prefav"),
    ],
    ids=["knowledge", "negation", "parentheses"],
)
def test_deeply_nested_formulas_evaluate_and_verify(attack_files, tmp_path, capsys, text, shallow):
    # K0 K0 p is K0 p in S5, and an even number of negations cancels
    system, manifest = attack_files
    results = {}
    for formula in (text, shallow):
        argv = ["eval", "--system", str(system), "--formula", formula, "--all",
                "--format", "json", "--no-timing"]
        assert main(argv) == 0
        results[formula] = json.loads(capsys.readouterr().out)["results"]
    assert results[text] == results[shallow]
    assert {r["holds"] for r in results[text]} == {True, False}
    doc = json.loads(manifest.read_text())
    doc["expectations"] = [
        {"formula": text, "point": r["point"], "expected": r["holds"]} for r in results[text]
    ]
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(deep), "--no-timing"]) == 0
    assert "0 failed" in capsys.readouterr().out


def test_a_manifest_of_alternating_knowledge_300_deep_verifies(attack_files, tmp_path, capsys):
    # depth k_legs + 1 fails at the end of every run, so every deeper
    # level fails there too; the formula text nests 300 parentheses
    _, manifest = attack_files
    doc = json.loads(manifest.read_text())
    k_legs = doc["parameters"]["k_legs"]
    claims = [e for e in doc["expectations"] if e["formula"] == _depth_formula(k_legs + 1)]
    assert claims and all(e["expected"] is False for e in claims)
    doc["expectations"] = [dict(e, formula=_depth_formula(300)) for e in claims]
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(deep), "--no-timing"]) == 0
    assert f"{len(claims)} expectations, 0 failed" in capsys.readouterr().out


def test_unusable_manifest_formula_exits_one(attack_files, tmp_path, capsys):
    _, manifest = attack_files
    doc = json.loads(manifest.read_text())
    for text, message in (("K1 &", "position"), ("K0 undeclared", "undeclared")):
        doc["expectations"] = [{"formula": text, "point": None, "expected": True}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "--manifest", str(bad), "--no-timing"]) == 1
        assert message in capsys.readouterr().err


def test_manifest_point_outside_the_system_exits_two(attack_files, tmp_path, capsys):
    _, manifest = attack_files
    doc = json.loads(manifest.read_text())
    doc["expectations"] = [{"formula": "prefav", "point": "zz@9", "expected": False}]
    bad = tmp_path / "foreign.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(bad), "--no-timing"]) == 2
    assert "zz@9 is not in the system" in capsys.readouterr().err


_GHOST = {
    "schema": 1, "agents": 2, "horizon": 1,
    "runs": [{"id": "r", "wake_up": {"0": 0, "1": 0}, "initial_state": {"0": "a", "1": "b"},
              "events": [{"time": 1, "agent": 1, "kind": "receive", "peer": 0,
                          "message": "ghost"}]}],
}


@pytest.mark.parametrize(
    "argv",
    [["eval", "--formula", "true", "--all"], ["check", "--which", "ng1"], ["axioms"],
     ["graph"], ["verify"]],
    ids=lambda argv: argv[0],
)
def test_inconsistent_system_exits_two_on_every_command(tmp_path, capsys, argv):
    path = tmp_path / "ghost.json"
    if argv[0] == "verify":
        path.write_text(json.dumps({"schema": 1, "system": _GHOST, "expectations": []}))
        argv = argv + ["--manifest", str(path)]
    else:
        path.write_text(json.dumps(_GHOST))
        argv = argv + ["--system", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "system.runs[0].events[0]: receive of 'ghost' has no matching send" in err


def test_eval_malformed_point_exits_two(attack_files, capsys):
    system, _ = attack_files
    code = main(["eval", "--system", str(system), "--formula", "prefav", "--point", "bogus"])
    assert code == 2
    assert "'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("group, message", [("a", "'a'"), ("9", "agent 9")])
def test_graph_bad_group_exits_two(attack_files, capsys, group, message):
    system, _ = attack_files
    assert main(["graph", "--system", str(system), "--group", group]) == 2
    assert message in capsys.readouterr().err


def test_verify_passes_and_fails(attack_files, tmp_path, capsys):
    _, manifest = attack_files
    assert main(["verify", "--manifest", str(manifest), "--no-timing"]) == 0
    capsys.readouterr()
    doc = json.loads(manifest.read_text())
    doc["expectations"].append(
        {"formula": "prefav", "point": None, "expected": True, "note": "broken"}
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", "--manifest", str(bad), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL prefav" in out


def test_verify_lists_every_failing_expectation(attack_files, tmp_path, capsys):
    _, manifest = attack_files
    doc = json.loads(manifest.read_text())
    doc["expectations"] = [
        {"formula": "prefav", "point": None, "expected": True, "note": ""},
        {"formula": "both_attack", "point": "c1@0", "expected": True, "note": ""},
    ]
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", "--manifest", str(bad), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("FAIL") == 2


def test_check_and_graph(attack_files, tmp_path, capsys):
    system, _ = attack_files
    assert main(["check", "--system", str(system), "--which", "ng1", "--no-timing"]) == 0
    assert main(["check", "--system", str(system), "--which", "ng2", "--no-timing"]) == 0
    dot = tmp_path / "g.dot"
    assert main(["graph", "--system", str(system), "--group", "0,1", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("graph indistinguishability")


def test_graph_streams_the_export_graph_text(tmp_path, capsys):
    rng = random.Random(3061)
    for i in range(12):
        model = random_model(rng)
        path = tmp_path / f"m{i}.json"
        path.write_text(dump_json(model_to_dict(model)))
        index = model_from_dict(json.loads(path.read_text())).index
        n = model.system.n_agents
        group = sorted(rng.sample(range(n), rng.randint(0, n)))
        spec = ",".join(map(str, group))
        dot = tmp_path / f"g{i}.dot"
        assert main(["graph", "--system", str(path), "--group", spec, "--out", str(dot)]) == 0
        assert dot.read_text() == export_graph(index, group)
        capsys.readouterr()
        assert main(["graph", "--system", str(path), "--group", spec]) == 0
        assert capsys.readouterr().out == export_graph(index, group)
        # an agent outside the system is rejected before the file is made
        bad = tmp_path / f"bad{i}.dot"
        assert main(["graph", "--system", str(path), "--group", str(n), "--out", str(bad)]) == 2
        assert f"agent {n}" in capsys.readouterr().err
        assert not bad.exists()


def test_unwritable_outputs_exit_two(attack_files, tmp_path, capsys):
    system, _ = attack_files
    taken = tmp_path / "taken"
    (taken / "coordinated_attack.manifest.json").mkdir(parents=True)
    argv = ["scenario", "coordinated_attack", "--param", "k_legs=2", "--param", "horizon=3"]
    assert main(argv + ["--out", str(taken)]) == 2
    assert "cannot write under" in capsys.readouterr().err
    assert main(["graph", "--system", str(system), "--group", "0", "--out", str(taken)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_read_drops_the_file_text_before_decoding(tmp_path, capsys):
    assert main(["scenario", "broadcast_channel", "--param", "L=1", "--param", "eps=1",
                 "--param", "n=4", "--param", "horizon=6", "--param", "clocked=true",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "broadcast_channel.manifest.json"
    tracemalloc.start()
    try:
        _read(str(path), manifest_from_dict)
        dropped = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        text = path.read_text()
        manifest_from_dict(load_json(text))
        kept = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dropped < kept - len(text) // 2


def test_read_holds_about_twice_the_text_at_most(tmp_path, capsys):
    # reading the text costs its bytes and its characters; the runs are
    # decoded as they are parsed, so the document is never built
    assert main(["scenario", "muddy_children", "--param", "n=4", "--param", "announce=true",
                 "--param", "rounds=4", "--param", "staggered_announcement=true",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "muddy_children.manifest.json"
    text = path.read_text()
    tracemalloc.start()
    try:
        _read(str(path), manifest_from_dict)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


@pytest.fixture()
def muddy_manifest(tmp_path):
    """A 676 KiB manifest of 32 runs, about 13 KiB of text each."""
    assert main(["scenario", "muddy_children", "--param", "n=4", "--param", "announce=true",
                 "--param", "rounds=4", "--param", "staggered_announcement=true",
                 "--out", str(tmp_path)]) == 0
    return str(tmp_path / "muddy_children.manifest.json")


def test_read_holds_less_than_a_chunked_text_beyond_the_manifest(muddy_manifest, capsys):
    # the file is read in chunks of 64 KiB, never whole, and its bytes and
    # characters are never alive together
    _read(muddy_manifest, manifest_from_dict)  # imports and caches
    tracemalloc.start()
    try:
        manifest = _read(muddy_manifest, manifest_from_dict)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert manifest.expectations
    assert peak <= held + 512 * 1024


def test_read_parses_each_run_about_once(muddy_manifest, capsys):
    # a run that runs past the text held is parsed again; reading each
    # run's text ahead by the length of the last one avoids most of that.
    # The expectations are parsed item by item and the valuation a batch
    # of entries at a time, so no long value is parsed again. The parser
    # is patched in each module that calls it, so every parse counts
    parsed = mock.Mock(wraps=serialize._value)
    with mock.patch.object(serialize, "_value", parsed), \
            mock.patch.object(decoders, "_value", parsed):
        manifest = _read(muddy_manifest, manifest_from_dict)
    runs = manifest.model.system.runs
    names = manifest.model.valuation.names
    # 32 runs, 544 expectations, 22 propositions (each within one batch)
    # and 7 other values; an item that a chunk's end cuts may need a retry
    assert (len(runs), len(manifest.expectations), len(names)) == (32, 544, 22)
    assert parsed.call_count <= len(runs) + len(manifest.expectations) + len(names) + 7 + 4


def _made_of(decoded) -> tuple:
    """What a decoded system, model or manifest is made of, to compare
    two decodings of one file."""
    if isinstance(decoded, ScenarioManifest):
        return (decoded.name, decoded.parameters, decoded.expectations,
                _made_of(decoded.model))
    if isinstance(decoded, Model):
        return (_made_of(decoded.system), dict(decoded.valuation.masks), decoded.policy.name)
    assert isinstance(decoded, System)
    return (decoded.n_agents, decoded.horizon,
            [(run.id, run.content_key()) for run in decoded.runs])


def _whole(text: str, decode, path: str) -> tuple:
    """What ``decode(load_json(text))`` makes of ``text``, or the message
    that ``_read`` reports for it."""
    try:
        return _made_of(decode(load_json(text)))
    except ModelError as exc:
        return (f"{path}: {exc}",)


def _read_as(path: Path, decode) -> tuple:
    try:
        return _made_of(_read(str(path), decode))
    except CliError as exc:
        assert exc.exit_code == 2
        return (str(exc),)


#: The decoders of each kind of file.
_DECODERS = {"system": (model_from_dict, system_from_dict), "manifest": (manifest_from_dict,)}


#: The chunk sizes ``_read`` is tried with: the default, and sizes that
#: put every token boundary on a chunk boundary.
_CHUNKS = (serialize.CHUNK, 1, 7)


def _streamed(path: Path, text: str, kind: str) -> None:
    """``_read`` decodes the file at ``path``, whose text is ``text``, run
    by run, in chunks of each size: it never parses the whole document,
    and gets what the whole document's decoders get."""
    path.write_text(text)
    for decode in _DECODERS[kind]:
        whole = _whole(text, decode, str(path))
        for chunk in _CHUNKS:
            with mock.patch.object(serialize, "CHUNK", chunk), mock.patch.object(
                serialize, "load_json", side_effect=AssertionError("whole")
            ):
                assert _read_as(path, decode) == whole


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


def _twice(doc: dict, key: str, value) -> str:
    """The text of ``doc`` with ``key`` of its system object written again,
    last, with ``value``: the value that JSON's last-wins rule keeps."""
    system = dict(doc.get("system", doc), **{key + "\0": value})
    text = json.dumps(dict(doc, system=system) if "system" in doc else system)
    return text.replace(json.dumps(key + "\0"), json.dumps(key))


def _variants(text: str) -> dict[str, str]:
    """Other texts of the document in ``text``, and broken ones."""
    doc = json.loads(text)
    horizon = doc.get("system", doc)["horizon"]
    return {
        "reversed": json.dumps(_reversed_keys(doc)),
        "runs twice": _twice(doc, "runs", []),
        # a longer horizon after the runs: clock tables fall short
        "horizon twice": _twice(doc, "horizon", horizon + 1),
        "trailing": text + "{}",
        "cut in the runs": text[: text.index('"runs"') + 40],
        "cut at the end": text[:-3],
    }


def _same_as_whole(path: Path, text: str, kind: str) -> None:
    """``_read`` makes of each variant of ``text`` what the whole
    document's decoders make of it, or reports the same error; the
    minified text still decodes run by run."""
    _streamed(path, json.dumps(json.loads(text), separators=(",", ":")), kind)
    for variant in _variants(text).values():
        path.write_text(variant)
        for decode in _DECODERS[kind]:
            whole = _whole(variant, decode, str(path))
            for chunk in _CHUNKS:
                with mock.patch.object(serialize, "CHUNK", chunk):
                    assert _read_as(path, decode) == whole


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_read_decodes_scenario_files_run_by_run(tmp_path, capsys, name):
    argv = ["scenario", name, "--out", str(tmp_path / "out")]
    for key, value in SMALL_PARAMS[name].items():
        argv += ["--param", f"{key}={str(value).lower()}"]
    assert main(argv) == 0
    for kind in ("system", "manifest"):
        text = (tmp_path / "out" / f"{name}.{kind}.json").read_text()
        _streamed(tmp_path / f"{kind}.json", text, kind)
        _same_as_whole(tmp_path / f"{kind}.json", text, kind)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_read_decodes_random_models_run_by_run(seed):
    text = dump_json(model_to_dict(random_model(random.Random(seed))))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "model.json"
        _streamed(path, text, "system")
        _same_as_whole(path, text, "system")


def test_read_decodes_other_key_orders_whole(attack_files):
    # runs before agents and horizon: the whole document is decoded
    system, _ = attack_files
    text = system.read_text()
    system.write_text(json.dumps(_reversed_keys(json.loads(text))))
    with mock.patch.object(serialize, "load_json", wraps=load_json) as whole:
        reversed_model = _read(str(system), model_from_dict)
    assert whole.call_count == 1
    assert _made_of(reversed_model) == _whole(text, model_from_dict, str(system))


_CAFE = (b'{"schema": 1, "agents": 1, "horizon": 0, "valuation": {"p": [["r", 0]]}, '
         b'"runs": [{"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "caf\xc3\xa9"}}]}')


def test_a_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(_CAFE.decode("utf-8").encode("latin-1"))
    assert main(["eval", "--system", str(path), "--formula", "p", "--all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: not valid UTF-8:")


def _chunked(path: Path, decode, chunk: int):
    """``_read`` of ``path`` in chunks of ``chunk`` bytes, which must not
    fall back on the whole document."""
    with mock.patch.object(serialize, "CHUNK", chunk), mock.patch.object(
        serialize, "load_json", side_effect=AssertionError("whole")
    ):
        return _read(str(path), decode)


def test_read_takes_a_number_split_at_a_chunk_end(tmp_path):
    # the first chunk ends in "horizon": 12, and the number goes on
    path = tmp_path / "long.json"
    text = json.dumps({"agents": 1, "horizon": 1234, "runs": [
        {"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"}}]})
    path.write_text(text)
    system = _chunked(path, system_from_dict, text.index("1234") + 2)
    assert (system.horizon, len(system.points)) == (1234, 1235)


def test_read_decodes_a_character_split_between_chunks(tmp_path):
    # every chunk size, so each chunk end falls inside the two bytes of é
    path = tmp_path / "cafe.json"
    path.write_bytes(_CAFE)
    for chunk in range(1, len(_CAFE) + 1):
        model = _chunked(path, model_from_dict, chunk)
        assert model.system.runs[0].initial_state == ("caf\u00e9",)


def test_a_file_not_utf8_after_the_first_chunk_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    data = _CAFE.decode("utf-8").encode("latin-1")
    path.write_bytes(data)
    with mock.patch.object(serialize, "CHUNK", 16):
        assert main(["eval", "--system", str(path), "--formula", "p", "--all"]) == 2
    byte = data.index(b"\xe9")
    assert byte > 16
    assert capsys.readouterr().err == (
        f"{path}: not valid UTF-8: invalid continuation byte at byte {byte}\n"
    )


def test_a_file_ending_inside_a_character_exits_two(tmp_path, capsys):
    # the decoder is told where the file ends, so a lone lead byte after
    # the object is not valid UTF-8
    path = tmp_path / "lead.json"
    path.write_bytes(_CAFE + b"\xc3")
    assert main(["eval", "--system", str(path), "--formula", "p", "--all"]) == 2
    assert capsys.readouterr().err == (
        f"{path}: not valid UTF-8: unexpected end of data at byte {len(_CAFE)}\n"
    )


class _Reads:
    """A binary file that records the byte counts asked of it."""

    def __init__(self, file):
        self.file, self.asked = file, []

    def fileno(self) -> int:
        return self.file.fileno()

    def read(self, n: int) -> bytes:
        self.asked.append(n)
        return self.file.read(n)


def test_read_requests_double_within_a_value_and_drop_after_it(tmp_path):
    text = json.dumps({"agents": 1, "horizon": 0, "long": "x" * 1000, "runs": [],
                       **{f"k{i}": i for i in range(100)}})
    path = tmp_path / "long.json"
    path.write_text(text)
    with path.open("rb", buffering=0) as file, mock.patch.object(serialize, "CHUNK", 10):
        reads = _Reads(file)
        document = serialize.load_document(reads)
    assert document == dict(json.loads(text), runs=())
    # the long string is parsed again after 10, 20, 40, ... more bytes;
    # after it the requests are a chunk again, and none asks for more
    # than the file has left
    start = reads.asked.index(20)
    assert reads.asked[start - 1 : start + 7] == [10, 20, 40, 80, 160, 320, 640, 10]
    assert set(reads.asked[start + 7 :]) == {10, len(text) % 10}
    assert sum(reads.asked) == len(text)


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "cafe.json"
    path.write_bytes(_CAFE)
    env = dict(child_env(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-m", "epimc.cli", "eval", "--system", str(path), "--formula", "p",
         "--all", "--no-timing"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "T  r@0\n", "")


def test_axioms_subcommand(attack_files, capsys):
    system, _ = attack_files
    code = main(
        ["axioms", "--system", str(system), "--props", "prefav,sent_1",
         "--max-k", "2", "--no-timing"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "INFO" in out
    # E^k needs k >= 1, so the hierarchy chain needs at least one rung
    for bad in ("0", "-1"):
        assert main(["axioms", "--system", str(system), "--max-k", bad]) == 2
        assert capsys.readouterr().err == f"--max-k must be at least 1, got {bad}\n"


def test_axioms_on_a_horizon_zero_system_exits_zero(tmp_path, capsys):
    system = tmp_path / "still.system.json"
    system.write_text(json.dumps(
        {"schema": 1, "agents": 1, "horizon": 0, "valuation": {"p": [["r", 0]]},
         "runs": [{"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"}}]}
    ))
    assert main(["axioms", "--system", str(system), "--format", "json", "--no-timing"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries and not [e for e in entries if e["status"] == "fail"]


def test_axioms_on_a_zero_agent_system_exits_one(tmp_path, capsys):
    # the default group is every agent, and a system with none has no group
    system = tmp_path / "empty.system.json"
    system.write_text(json.dumps(
        {"schema": 1, "agents": 0, "horizon": 0, "valuation": {"p": [["r", 0]]},
         "runs": [{"id": "r", "wake_up": {}, "initial_state": {}, "events": []}]}
    ))
    assert main(["axioms", "--system", str(system), "--no-timing"]) == 1
    assert capsys.readouterr().err == "agent group must be nonempty\n"


def test_output_is_deterministic(attack_files, capsys):
    system, _ = attack_files
    argv = ["eval", "--system", str(system), "--formula", "E{0,1} prefav",
            "--all", "--no-timing"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


_SMALL_SCENARIOS = {
    "muddy_children": ["n=3", "announce=true", "rounds=3", "staggered_announcement=true"],
    "coordinated_attack": ["k_legs=2", "horizon=3"],
    "r2d2": ["eps=1", "t_S=4", "k_max=3"],
    "ok_protocol": ["horizon=3"],
    "broadcast_channel": ["L=1", "eps=1", "n=3", "horizon=4", "clocked=true"],
    "timestamped_demo": ["delta=1", "eps=1", "horizon="],  # an optional int left empty
}


@pytest.mark.parametrize("name", sorted(_SMALL_SCENARIOS))
def test_scenario_files_are_indented_json_with_the_system_embedded(tmp_path, capsys, name):
    argv = ["scenario", name, "--out", str(tmp_path)]
    for param in _SMALL_SCENARIOS[name]:
        argv += ["--param", param]
    assert main(argv) == 0
    texts = {
        kind: (tmp_path / f"{name}.{kind}.json").read_text() for kind in ("manifest", "system")
    }
    docs = {kind: json.loads(text) for kind, text in texts.items()}
    for kind, text in texts.items():
        assert text == json.dumps(docs[kind], indent=2, sort_keys=True) + "\n"
    assert docs["manifest"]["system"] == docs["system"]


_NESTED = ("[" * 100_000, "not valid JSON: nested too deeply")
_LONG_INTEGER = (
    '{"schema": 1, "agents": 1, "horizon": ' + "1" * 5000 + ', "runs": []}',
    "not valid JSON: Exceeds the limit (4300 digits)",
)


@pytest.mark.parametrize(
    "command, text, message",
    [
        pytest.param("eval", *_NESTED, id="eval"),
        pytest.param("verify", *_NESTED, id="verify"),
        pytest.param("eval", *_LONG_INTEGER, id="eval-long-integer"),
        pytest.param("verify", *_LONG_INTEGER, id="verify-long-integer"),
    ],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, command, text, message):
    path = tmp_path / "deep.json"
    path.write_text(text)
    if command == "eval":
        argv = ["eval", "--system", str(path), "--formula", "true", "--all"]
    else:
        argv = ["verify", "--manifest", str(path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("parameters", [[1], "ab"])
def test_manifest_parameters_not_an_object_exits_two(attack_files, tmp_path, capsys, parameters):
    _, manifest = attack_files
    doc = json.loads(manifest.read_text())
    doc["parameters"] = parameters
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(edited), "--no-timing"]) == 2
    assert "manifest.parameters: expected an object" in capsys.readouterr().err


def test_scenario_unknown_name_exits_two(tmp_path, capsys):
    assert main(["scenario", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenario_bad_params_exit_two(tmp_path, capsys):
    assert main(
        ["scenario", "muddy_children", "--param", "bogus=1", "--out", str(tmp_path)]
    ) == 2
    assert "unexpected keyword argument 'bogus'" in capsys.readouterr().err
    # each value is read as the type the scenario declares for it
    for name, params, named in [
        ("muddy_children", ["n=2", "announce=no", "rounds=2"],
         "announce: expected true or false, got 'no'"),
        ("coordinated_attack", ["k_legs=2", "horizon=2.5"],
         "horizon: expected an integer, got '2.5'"),
        ("coordinated_attack", ["k_legs=true", "horizon=3"],
         "k_legs: expected an integer, got 'true'"),
        ("r2d2", ["eps=1", "t_S=4", "k_max=2", "horizon=x"],
         "horizon: expected an integer or nothing, got 'x'"),
    ]:
        argv = ["scenario", name, "--out", str(tmp_path)]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"--param {named}\n"
    # a depth below 1 would leave the send past the horizon
    argv = ["scenario", "r2d2", "--out", str(tmp_path)]
    for param in ["eps=1", "t_S=4", "k_max=-2"]:
        argv += ["--param", param]
    assert main(argv) == 2
    assert "k_max must be at least 1, got -2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_scenario_negative_broadcast_delays_exit_two(tmp_path, capsys):
    for params in (["L=-1", "eps=1"], ["L=1", "eps=-2"]):
        argv = ["scenario", "broadcast_channel", "--out", str(tmp_path)]
        for param in params + ["n=2", "horizon=6"]:
            argv += ["--param", param]
        assert main(argv) == 2
        assert "nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_200_000_000, 1_200_000_000))


@pytest.mark.parametrize("name, params", [
    ("broadcast_channel", ["L=1", "eps=2", "n=12", "horizon=8"]),  # 531,441 runs
    ("timestamped_demo", ["delta=3000", "eps=3000"]),
    ("muddy_children", ["n=2", "announce=true", "rounds=3000000"]),
    ("coordinated_attack", ["k_legs=1", "horizon=2000000"]),
    ("ok_protocol", ["horizon=1000000"]),
])
def test_oversized_scenarios_exit_two_before_building(tmp_path, name, params):
    """A child with bounded memory and time, so that a builder that does
    start on such a model fails the test instead of hanging it."""
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "epimc.cli", "scenario", name, "--out", str(out)]
    for param in params:
        argv += ["--param", param]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=child_env(), timeout=20,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert "a scenario has at most 1,000,000 in all" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _epimc_modules_imported(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of a child that runs ``cli.main(argv)`` and the epimc
    modules in its ``sys.modules`` afterwards. (``-X importtime`` does not
    log the modules the package's ``__getattr__`` imports.)"""
    script = (
        "import sys\n"
        "from epimc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'epimc'), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    return proc.returncode, set(ast.literal_eval(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("command", ["eval", "verify", "graph", "axioms", "check"])
def test_query_children_import_only_what_their_command_uses(attack_files, command):
    system, manifest = attack_files
    argv = {
        "eval": ["eval", "--system", str(system), "--formula", "C{0,1} prefav", "--all"],
        "verify": ["verify", "--manifest", str(manifest)],
        "graph": ["graph", "--system", str(system), "--group", "0,1"],
        "axioms": ["axioms", "--system", str(system), "--props", "prefav", "--max-k", "2"],
        "check": ["check", "--system", str(system), "--which", "ng1"],
    }[command]
    code, imported = _epimc_modules_imported(argv)
    assert code == 0
    core = {"epimc", "epimc.cli", "epimc.runs", "epimc.serialize"}
    if command == "check":
        # the run part alone: neither the model decoders nor the evaluator
        assert imported == core | {"epimc.protocols"}
        assert not {"epimc.decoders", "epimc.semantics"} & imported
    else:
        query = {"epimc.decoders", "epimc.formulas", "epimc.semantics", "epimc.views"}
        own = {"axioms": {"epimc.axioms"}, "eval": {"epimc.evalreport"}}.get(command, set())
        assert imported == core | query | own


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_scenario_children_load_protocol_code_only_to_enumerate_runs(tmp_path, name):
    # four builders make their runs themselves; the attack and the
    # liveness confirmations enumerate a protocol's runs, and every
    # builder writes the files that its manifest encodes
    params = SMALL_PARAMS[name]
    argv = ["scenario", name, "--out", str(tmp_path)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    code, imported = _epimc_modules_imported(argv)
    assert code == 0
    assert ("epimc.protocols" in imported) == (name in ("coordinated_attack", "ok_protocol"))
    manifest = SCENARIOS[name](**params)
    for kind, doc in (("manifest", manifest_to_dict(manifest)),
                      ("system", model_to_dict(manifest.model))):
        text = (tmp_path / f"{name}.{kind}.json").read_text()
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_closed_stdout_ends_quietly(tmp_path):
    """A reader that stops after one line, as ``| head -1`` does."""
    system = tmp_path / "long.system.json"
    # 30001 report lines, many times what a pipe buffers
    system.write_text(json.dumps(
        {"schema": 1, "agents": 1, "horizon": 30000, "valuation": {"p": []},
         "runs": [{"id": "r", "wake_up": {"0": 0}, "initial_state": {"0": "s"}}]}
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "epimc.cli", "eval", "--system", str(system),
         "--formula", "K0 p", "--all", "--no-timing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.readline() == b"F  r@0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert b"Traceback" not in err
    assert err == b""


# Streamed eval reports. The report of ``eval`` is written while its rows
# are made from the point order and the truth mask; these tests hold it
# to the report the command made eagerly before: ``dump_json`` of a dict
# of lists, and its lines.


def _escaped_system(tmp_path: Path, n_points: int) -> Path:
    """A one-agent system of ``n_points`` points whose run ids need
    escaping in JSON (a quote, a backslash, a non-ASCII letter), with
    ``p`` true at every third point; three ticks a run when that divides
    ``n_points``, else one."""
    width = 3 if n_points % 3 == 0 else 1
    ids = [f'r"{i:03d}\\é' for i in range(n_points // width)]
    doc = {
        "schema": 1, "agents": 1, "horizon": width - 1,
        "runs": [{"id": rid, "wake_up": {"0": 0}, "initial_state": {"0": "s"}} for rid in ids],
        "valuation": {"p": [[rid, t] for j, rid in enumerate(ids) for t in range(width)
                            if (j * width + t) % 3 == 0]},
    }
    path = tmp_path / "escaped.system.json"
    path.write_text(json.dumps(doc))
    return path


def _eager_report(path: Path, formula: str, point: str | None) -> dict:
    """The report as ``eval`` made it eagerly: lists of every row."""
    model = _read(str(path), model_from_dict)
    truth = evaluate(model, parse(formula))
    points = model.system.points if point is None else [serialize.parse_point(point)]
    rows = [(str(pt), pt in truth) for pt in points]
    return {
        "formula": formula,
        "results": [{"point": p, "holds": h} for p, h in rows],
        "lines": [f"{'T' if h else 'F'}  {p}" for p, h in rows],
    }


@pytest.mark.parametrize("n_points", [0, 1, 255, 256, 257, 513])
@pytest.mark.parametrize("timing", [False, True], ids=["no-timing", "timing"])
def test_streamed_eval_reports_equal_the_eager_ones(tmp_path, capsys, n_points, timing):
    path = _escaped_system(tmp_path, n_points)
    where = [["--all", None]]
    if n_points:
        last = str(_read(str(path), model_from_dict).system.points[-1])
        where += [["--point", last], ["--point", last.rpartition("@")[0] + "@0"]]
    for flag, point in where:
        report = _eager_report(path, "p", point)
        for fmt in ("json", "table"):
            argv = ["eval", "--system", str(path), "--formula", "p", "--format", fmt, flag]
            argv += [point] if point else []
            # the clock is read when evaluation starts and when it ends
            with mock.patch("epimc.cli.time.monotonic", side_effect=[7.0, 7.25]):
                assert main(argv + ([] if timing else ["--no-timing"])) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                expected = dict(report, seconds=0.25) if timing else report
                assert out == dump_json(expected)
                assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
                assert list(json.loads(out)) == ["formula", "lines", "results"] + (
                    ["seconds"] if timing else [])
            else:
                lines = report["lines"] + (["elapsed: 0.250s"] if timing else [])
                assert out == "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def bench_broadcast(tmp_path_factory):
    """The bench's broadcast system: 729 clocked runs, 6,561 points and a
    2.5 MB file, whose largest proposition lists 10,206 points."""
    out = tmp_path_factory.mktemp("broadcast")
    with open(os.devnull, "w") as devnull, mock.patch("sys.stdout", new=devnull):
        assert main(["scenario", "broadcast_channel", "--param", "L=1", "--param", "eps=2",
                     "--param", "n=6", "--param", "horizon=8", "--param", "clocked=true",
                     "--out", str(out)]) == 0
    return out / "broadcast_channel.system.json"


def _traced(call) -> tuple:
    """What ``call()`` returns, with the traced memory it holds after and
    at its peak; a first call fills the imports and caches."""
    call()
    tracemalloc.start()
    try:
        value = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held, peak


def test_read_peaks_at_the_model_and_a_few_chunks(bench_broadcast):
    # the runs are decoded as they are parsed, and the valuation a batch of
    # entries at a time, so while the file is read nothing else is alive
    # beside the finished model than a few chunks of text (a chunk read as
    # bytes, as text, the text it is joined to and the join), one run or
    # one batch of entries with its text, and the table that shares the
    # runs' events
    model, held, peak = _traced(lambda: _read(str(bench_broadcast), model_from_dict))
    assert len(model.system.runs) * (model.system.horizon + 1) == 6561
    assert peak <= held + 8 * serialize.CHUNK


def test_reading_the_runs_alone_steps_over_the_valuation_an_entry_at_a_time(bench_broadcast):
    # check decodes no valuation: each entry of its point lists is parsed
    # on its own and dropped, so the read peaks within a few chunks of
    # the system it holds, as a query's read does
    system, held, peak = _traced(lambda: _read(str(bench_broadcast), system_from_dict))
    assert len(system.runs) == 729
    assert peak <= held + 8 * serialize.CHUNK


@pytest.fixture(scope="module")
def bench_muddy(tmp_path_factory):
    """The bench's muddy children manifest: 128 runs and 47,592 events,
    733 of them distinct, in an 8.9 MB file."""
    out = tmp_path_factory.mktemp("muddy")
    with open(os.devnull, "w") as devnull, mock.patch("sys.stdout", new=devnull):
        assert main(["scenario", "muddy_children", "--param", "n=6", "--param", "announce=true",
                     "--param", "rounds=6", "--param", "staggered_announcement=true",
                     "--out", str(out)]) == 0
    return out / "muddy_children.manifest.json"


def _entries_built(path, decode) -> int:
    """The timeline entries built while ``_read`` decodes file ``path``."""
    built = []

    def counted(*args):
        built.append(None)
        return timeline_entry(*args)

    with mock.patch.object(serialize, "timeline_entry", counted):
        _read(str(path), decode)
    return len(built)


def test_runs_share_equal_initial_states_wake_ups_and_clocks(bench_broadcast):
    # the 729 runs have one initial state, wake-up and clock tuple each
    runs = _read(str(bench_broadcast), system_from_dict).runs
    assert len(runs) == 729
    for field in ("initial_state", "wake_up", "clock"):
        assert len({id(getattr(run, field)) for run in runs}) == 1, field


@pytest.mark.parametrize("files, decode, distinct", [
    ("bench_broadcast", model_from_dict, 24), ("bench_muddy", manifest_from_dict, 733)
], ids=["broadcast", "muddy"])
def test_reading_builds_one_entry_per_distinct_event(request, files, decode, distinct):
    # the broadcast's 8,748 events are 24 distinct ones and the muddy
    # manifest's 47,592 events 733, each run's under the same wake-up
    # times and clock tables: each distinct event is checked and made into
    # a timeline entry once per file
    assert _entries_built(request.getfixturevalue(files), decode) <= distinct


def test_read_peak_grows_with_the_chunk_by_a_few_times_as_much(bench_broadcast):
    # a chunk is added to the unread rest of the text after the old text
    # and the bytes read are dropped, so each byte more of CHUNK raises
    # the read's peak by less than 3.2 bytes (3.8 when all are held)
    above = {}
    for kib in (16, 128):
        with mock.patch.object(serialize, "CHUNK", kib * 1024):
            _, held, peak = _traced(lambda: _read(str(bench_broadcast), model_from_dict))
        above[kib] = peak - held
    assert above[128] - above[16] <= 3.2 * (128 - 16) * 1024


def test_verifying_clocked_expectations_builds_no_point_tuple(tmp_path, capsys):
    # Ceps, Cv and Ct count a system's points from its runs and horizon,
    # so replaying their expectations leaves ``system.points`` unbuilt
    assert main(["scenario", "broadcast_channel", "--param", "L=1", "--param", "eps=1",
                 "--param", "n=3", "--param", "horizon=5", "--param", "clocked=true",
                 "--out", str(tmp_path)]) == 0
    manifest = _read(str(tmp_path / "broadcast_channel.manifest.json"), manifest_from_dict)
    assert any(e.formula.startswith("Ceps") for e in manifest.expectations)
    assert verify_manifest(manifest) == ()
    assert "points" not in vars(manifest.model.system)


def test_eval_all_builds_no_point_tuple(tmp_path, capsys):
    # the rows are made from the runs in point order and the ticks, so
    # an eval --all leaves ``system.points`` unbuilt
    assert main(["scenario", "broadcast_channel", "--param", "L=1", "--param", "eps=1",
                 "--param", "n=3", "--param", "horizon=5", "--param", "clocked=true",
                 "--out", str(tmp_path)]) == 0
    models = []

    def read(path, decode):
        models.append(_read(path, decode))
        return models[-1]

    with mock.patch("epimc.cli._read", read):
        assert main(["eval", "--system", str(tmp_path / "broadcast_channel.system.json"),
                     "--formula", "C{0,1,2} psi_recv", "--all", "--no-timing"]) == 0
    [model] = models
    assert "points" not in vars(model.system)
    lines = capsys.readouterr().out.splitlines()[3:]
    assert lines[:2] == ["F  d111@0", "F  d111@1"] and lines[-1] == "T  d222@5"
    assert len(lines) == len(model.system.runs) * 6


def test_eval_all_peaks_near_its_model_and_index(bench_broadcast):
    # the report of every point is streamed and the file's text is gone
    # before the index is built, so an eval --all holds little beyond the
    # model and its index; stdout is a file, which keeps no copy of what
    # is written
    path = str(bench_broadcast)

    def model_and_index():
        model = _read(path, model_from_dict)
        return model, model.index

    _, held, _ = _traced(model_and_index)

    def eval_all():
        with open(os.devnull, "w") as devnull, mock.patch("sys.stdout", new=devnull):
            return main(["eval", "--system", path, "--formula", "C{0,1,2,3,4,5} psi_recv",
                         "--all", "--format", "json", "--no-timing"])

    code, _, eval_peak = _traced(eval_all)
    assert code == 0
    assert eval_peak <= held + 6 * serialize.CHUNK


# Item-by-item decoding. A valuation that follows the runs is decoded one
# proposition at a time, and a manifest's expectations one by one, with
# the checks of the whole document's decoders: whatever those reject,
# ``_read`` reports with their exact message.


def _valued(valuation_text: str, run_id: str = '"r"') -> str:
    """A two-tick, one-run system text whose valuation, after the runs,
    is ``valuation_text``."""
    return (
        '{"schema": 1, "agents": 1, "horizon": 1, "runs": [{"id": ' + run_id + ', '
        '"wake_up": {"0": 0}, "initial_state": {"0": "s"}}], '
        '"valuation": ' + valuation_text + "}"
    )


_REVERSED = '{"valuation": {"p": [["r", 1]]}, "runs": [{"id": "r", "wake_up": {"0": 0}, ' \
    '"initial_state": {"0": "s"}}], "horizon": 1, "agents": 1, "schema": 1}'


@pytest.mark.parametrize("text, message", [
    (_valued('{"p": [["r", 0]], "q": ["r@1"]}'), "system.valuation.q[0]: expected [run_id, time]"),
    (_valued('{"p": [["r", 0, 1]]}'), "system.valuation.p[0]: expected [run_id, time]"),
    (_valued('{"p": [["r", "0"]]}'), "system.valuation.p[0]: time '0' is not an integer"),
    (_valued('{"p": [["r", true]]}'), "system.valuation.p[0]: time True is not an integer"),
    (_valued('{"p": [["r", 2]]}'), "system.valuation.p[0]: point r@2 is not in the system"),
    (_valued('{"p": [["zz", 0]]}'), "system.valuation.p[0]: point zz@0 is not in the system"),
    (_valued('{"p": 5}'), "system.valuation.p: expected an array, got 5"),
    (_valued("[1]"), "system.valuation: expected an object, got [1]"),
    # a repeated name: the last one is the one JSON keeps
    (_valued('{"p": [["r", 0]], "p": [["r", 9]]}'), "system.valuation.p[0]: point r@9 is not "
     "in the system"),
    (_valued('{"p": [["r", 9]], "p": [["r", 0]]}'), None),
    # a numeric run id is read through str, in the run and in the entry
    (_valued('{"p": [[7, 1], ["7", 0]]}', run_id="7"), None),
    (_valued('{"p": [[7.0, 1]]}', run_id="7"), "system.valuation.p[0]: point 7.0@1 is not in "
     "the system"),
    (_REVERSED, None),
    (_REVERSED.replace('"r", 1', '"r", 2'), "system.valuation.p[0]: point r@2 is not in the "
     "system"),
], ids=["not-a-pair", "a-triple", "string-time", "bool-time", "past-horizon", "unknown-run",
        "not-an-array", "not-an-object", "repeated-bad", "repeated-good", "numeric-id",
        "float-id", "before-runs", "before-runs-bad"])
def test_read_decodes_the_valuation_as_the_whole_document_does(tmp_path, capsys, text, message):
    path = tmp_path / "valued.json"
    path.write_text(text)
    assert _read_as(path, model_from_dict) == _whole(text, model_from_dict, str(path))
    code = main(["eval", "--system", str(path), "--formula", "true", "--all", "--no-timing"])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0
        model = _read(str(path), model_from_dict)
        assert model.valuation.masks == model_from_dict(load_json(text)).valuation.masks
    else:
        assert (code, err) == (2, f"{path}: {message}\n")


def test_read_decodes_each_proposition_once_without_the_whole_text(tmp_path):
    # a valuation after the runs never reaches the whole-text decoder
    text = _valued('{"p": [["r", 0]], "q": [], "r": [["r", 1], ["r", 0]]}')
    path = tmp_path / "valued.json"
    path.write_text(text)
    with mock.patch.object(serialize, "load_json", side_effect=AssertionError("whole")):
        model = _read(str(path), model_from_dict)
    assert model.valuation.masks == {"p": 0b01, "q": 0, "r": 0b11}


#: Run ids that a reader cutting the text at a "]" must not split: a
#: bracket, a bracket and a comma, a quote, a backslash, a non-ASCII
#: letter, and one longer than a batch's window.
_AWKWARD_IDS = ("a]", "b],", 'c"', "d\\", "é", 'f"],["g', "h" + "],x" * 6000)


def _awkward_system(ids=_AWKWARD_IDS, horizon: int = 39) -> dict:
    """A one-agent system of runs ``ids`` with an empty, a one-entry, a
    sparse and a full proposition; the full one spans several windows
    and, indented, more than one chunk."""
    points = [[run_id, t] for run_id in ids for t in range(horizon + 1)]
    return {
        "schema": 1, "agents": 1, "horizon": horizon,
        "runs": [{"id": run_id, "wake_up": {"0": 0}, "initial_state": {"0": "s"}}
                 for run_id in ids],
        "valuation": {"empty": [], "one": [points[-1]], "sparse": points[::7],
                      "full": points},
    }


#: The layouts a file may come in: minified, and indented by 1 and by 2.
_LAYOUTS = {"minified": {"separators": (",", ":")}, "indent1": {"indent": 1},
            "indent2": {"indent": 2}}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("window", [decoders.WINDOW, 40])
def test_read_decodes_the_valuation_a_batch_at_a_time(tmp_path, layout, window):
    # whatever the layout, the chunk size and where a window's last "]"
    # falls, the masks are those of the whole document's decode
    text = json.dumps(_awkward_system(), **_LAYOUTS[layout])
    assert len(text) > serialize.CHUNK
    path = tmp_path / "awkward.json"
    path.write_text(text)
    whole = model_from_dict(load_json(text)).valuation.masks
    assert whole["full"] == (1 << 7 * 40) - 1 and whole["empty"] == 0
    for chunk in _CHUNKS:
        with mock.patch.object(serialize, "CHUNK", chunk), \
                mock.patch.object(decoders, "WINDOW", window), \
                mock.patch.object(serialize, "load_json", side_effect=AssertionError("whole")):
            assert _read(str(path), model_from_dict).valuation.masks == whole


def test_read_parses_an_awkward_valuation_in_linear_time(tmp_path):
    # every run id starts with "],", so a window's last "]" often lies
    # inside a string; the entries up to it are then taken one by one,
    # and no text is parsed again and again: the parses, and the
    # characters they pass over, grow linearly with the entries
    ids = [f"],{i:03d}" + "y" * (i % 11) for i in range(60)]
    text = json.dumps(_awkward_system(ids), indent=2)
    path = tmp_path / "awkward.json"
    path.write_text(text)
    spans, failed = [], []
    decode = json.JSONDecoder().raw_decode

    def parse(text, idx=0):
        try:
            value, end = decode(text, idx)
        except ValueError as exc:
            failed.append(exc)
            spans.append(getattr(exc, "pos", len(text)) - idx)
            raise
        spans.append(end - idx)
        return value, end

    with mock.patch.object(serialize, "_value", parse), \
            mock.patch.object(decoders, "_value", parse), \
            mock.patch.object(serialize, "load_json", side_effect=AssertionError("whole")):
        model = _read(str(path), model_from_dict)
    entries = sum(bin(mask).count("1") for mask in model.valuation.masks.values())
    assert entries == 1 + 343 + 2400
    assert failed  # some window was cut inside a string
    # one parse per run, per entry and per batch at most, and about five
    # other values; a batch that failed is parsed again item by item, and
    # no text a third time
    assert len(spans) <= len(ids) + entries + len(text) // decoders.WINDOW + 10
    assert sum(spans) <= 2 * len(text)


def test_check_reads_no_valuation(tmp_path, capsys):
    # check reads the run part alone: a valuation that no query could
    # decode is neither decoded nor reported, and the file is read once
    path = tmp_path / "valued.json"
    path.write_text(_valued('{"p": [["zz", 0]], "q": 5}'))
    # the mask maker is patched where it is defined and called, so that a
    # call would count
    decoded = mock.Mock(wraps=decoders._truth_mask)
    with mock.patch.object(serialize, "load_json", side_effect=AssertionError("whole")), \
            mock.patch.object(decoders, "_truth_mask", decoded):
        assert main(["check", "--system", str(path), "--which", "ng1", "--no-timing"]) == 0
    assert decoded.call_count == 0
    assert capsys.readouterr().out.startswith("ng1: pass\n")


def _manifest_text(attack_files, expectations_text: str, reverse: bool = False) -> str:
    """The attack manifest's text with ``expectations_text`` as its
    expectations, in which ``RUN`` stands for the first run's id."""
    _, manifest = attack_files
    doc = json.loads(manifest.read_text())
    run_id = json.dumps(doc["system"]["runs"][0]["id"])[1:-1]
    doc["expectations"] = "\0"
    if reverse:
        doc = _reversed_keys(doc)
    return json.dumps(doc).replace('"\\u0000"', expectations_text.replace("RUN", run_id))


@pytest.mark.parametrize("expectations, message", [
    ('[{"formula": "prefav", "point": "zz@9", "expected": false}]',
     "manifest.expectations[0].point: zz@9 is not in the system"),
    ('[{"formula": "prefav", "point": null, "expected": true}, '
     '{"formula": "prefav", "point": "RUN@2", "expected": 1}]',
     "manifest.expectations[1].expected: expected true or false, got 1"),
    ('[{"point": "r@x", "expected": true}]',
     "manifest.expectations[0].point: point 'r@x' is not of the form run_id@time"),
    ('[{"point": "zz@1", "expected": true}]',
     "manifest.expectations[0].point: zz@1 is not in the system"),
    ('[{"formula": "prefav", "expected": true}, 3]',
     "manifest.expectations[1]: expected an object, got 3"),
    ('[{"formula": "prefav", "point": 5, "expected": true}]',
     "manifest.expectations[0].point: expected a string, got 5"),
    ('{"formula": "prefav"}',
     "manifest.expectations: expected an array, got {'formula': 'prefav'}"),
    ('[{"formula": "K0 prefav", "point": "RUN@0", "expected": true, "note": 7}]', None),
])
@pytest.mark.parametrize("reverse", [False, True], ids=["after-system", "before-system"])
def test_read_decodes_expectations_as_the_whole_document_does(
    attack_files, tmp_path, capsys, expectations, message, reverse
):
    text = _manifest_text(attack_files, expectations, reverse)
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert _read_as(path, manifest_from_dict) == _whole(text, manifest_from_dict, str(path))
    code = main(["verify", "--manifest", str(path), "--no-timing"])
    err = capsys.readouterr().err
    if message is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"{path}: {message}\n")
