import json
import subprocess
import sys

import pytest

from epimc.cli import EXIT_BROKEN_PIPE, main
from epimc.evaluate import evaluate
from epimc.formulas import parse
from epimc.serialize import model_from_dict
from tests.helpers import child_env


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
    assert rows == [{"point": str(p), "holds": p in sat} for p in model.point_order]
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
    ["K0 " * 3000 + "prefav", "~" * 3000 + "prefav", "(" * 3000 + "prefav" + ")" * 3000],
    ids=["knowledge", "negation", "parentheses"],
)
def test_deeply_nested_formula_exits_one(attack_files, tmp_path, capsys, text):
    system, manifest = attack_files
    assert main(["eval", "--system", str(system), "--formula", text, "--all"]) == 1
    assert "nested too deeply" in capsys.readouterr().err
    doc = json.loads(manifest.read_text())
    doc["expectations"] = [{"formula": text, "point": None, "expected": True}]
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(deep), "--no-timing"]) == 1
    assert "nested too deeply" in capsys.readouterr().err


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


def test_axioms_subcommand(attack_files, capsys):
    system, _ = attack_files
    code = main(
        ["axioms", "--system", str(system), "--props", "prefav,sent_1",
         "--max-k", "2", "--no-timing"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "INFO" in out


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
    "timestamped_demo": ["delta=1", "eps=1"],
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


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    if command == "eval":
        argv = ["eval", "--system", str(path), "--formula", "true", "--all"]
    else:
        argv = ["verify", "--manifest", str(path)]
    assert main(argv) == 2
    assert "not valid JSON: nested too deeply" in capsys.readouterr().err


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


def test_scenario_negative_broadcast_delays_exit_two(tmp_path, capsys):
    for params in (["L=-1", "eps=1"], ["L=1", "eps=-2"]):
        argv = ["scenario", "broadcast_channel", "--out", str(tmp_path)]
        for param in params + ["n=2", "horizon=6"]:
            argv += ["--param", param]
        assert main(argv) == 2
        assert "nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _epimc_modules_imported(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of a ``python -m epimc.cli`` child and the epimc modules
    it imported, read from its ``-X importtime`` log."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "epimc.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    names = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, {n for n in names if n.split(".")[0] == "epimc"}


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
    assert {"epimc", "epimc.evaluate", "epimc.serialize"} <= imported
    assert "epimc.scenarios" not in imported
    assert ("epimc.protocols" in imported) == (command == "check")


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
