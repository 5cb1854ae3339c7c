import importlib
import subprocess
import sys

import pytest

import epimc
from tests.helpers import child_env

#: Every name the package exported when its ``__init__`` imported all of
#: its modules, by the module that defines it.
EXPORTS = {
    "epimc.runs": (
        "EMPTY_HISTORY", "Event", "LocalHistory", "ModelError", "Point", "Run",
        "System", "extends", "history_cover", "make_run", "make_system",
        "validate_system",
    ),
    "epimc.views": (
        "IndistIndex", "ViewPolicy", "build_index", "export_graph", "g_reachable",
        "reachable_set",
    ),
    "epimc.formulas": (
        "Formula", "check_positivity", "expand_fixpoints", "parse", "print_formula",
    ),
    "epimc.semantics": (
        "Model", "ScenarioManifest", "Valuation", "check_validity", "evaluate",
        "gfp", "holds", "make_valuation", "verify_manifest",
    ),
    "epimc.axioms": ("axiom_suite", "check_induction_rule"),
    "epimc.protocols": (
        "DeliveryModel", "InitialConfiguration", "JointProtocol", "check_ng1",
        "check_ng1prime", "check_ng2", "check_temporal_imprecision",
        "close_under_shifts", "generate_runs", "shift_run",
    ),
    "epimc.scenarios": ("SCENARIOS",),
}


def test_every_exported_name_is_the_defining_modules_object():
    for module, names in EXPORTS.items():
        defining = importlib.import_module(module)
        for name in names:
            assert getattr(epimc, name) is getattr(defining, name), name


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        epimc.nope


def _fresh(script: str) -> list[str]:
    """The lines ``script`` prints in a fresh interpreter, so that import
    order is the script's own."""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_LOADED = "print(sorted(m for m in sys.modules if m.startswith('epimc')))\n"


def test_cli_import_leaves_evaluate_the_function_and_defers_scenario_modules():
    script = (
        "import sys, epimc.cli, epimc\n"
        + _LOADED
        + "heavy = {'dataclasses', 'inspect'}\n"
        "assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))\n"
        "assert epimc.evaluate is sys.modules['epimc.semantics'].evaluate\n"
        "assert epimc.scenarios is sys.modules['epimc.scenarios']\n"
        "assert epimc.protocols.generate_runs is epimc.generate_runs\n"
        "assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))\n"
    )
    assert _fresh(script)[0] == str(["epimc", "epimc.cli"])


@pytest.mark.parametrize("first", ["epimc", "epimc.cli", "epimc.semantics", "epimc.serialize"])
def test_evaluate_is_the_function_in_every_import_order(first):
    script = (
        f"import sys, {first}, epimc\n"
        + _LOADED
        + "from epimc import evaluate\n"
        "import epimc.semantics as semantics\n"
        "assert evaluate is epimc.evaluate is semantics.evaluate\n"
        "assert callable(evaluate) and type(semantics).__name__ == 'module'\n"
    )
    loaded = _fresh(script)
    if first == "epimc":  # the package alone loads no submodule
        assert loaded == [str(["epimc"])]


def test_import_profile_lists_every_module_semantics_loads():
    # a module bound through the package's __getattr__ loads outside the
    # import statement that -X importtime reports
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import epimc.semantics"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"epimc.formulas", "epimc.runs", "epimc.views"} <= names
