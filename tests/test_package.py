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
    "epimc.evaluate": (
        "Model", "ScenarioManifest", "Valuation", "axiom_suite",
        "check_induction_rule", "check_validity", "eval_C_reach", "evaluate", "gfp",
        "holds", "make_valuation", "verify_manifest",
    ),
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


def test_cli_import_leaves_evaluate_the_function_and_defers_scenario_modules():
    # a fresh interpreter, so that import order is the CLI's own
    script = (
        "import sys, epimc.cli, epimc\n"
        "assert epimc.evaluate is sys.modules['epimc.evaluate'].evaluate\n"
        "print(sorted(m for m in sys.modules if m.startswith('epimc')))\n"
        "assert epimc.scenarios is sys.modules['epimc.scenarios']\n"
        "assert epimc.protocols.generate_runs is epimc.generate_runs\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == str([
        "epimc", "epimc.cli", "epimc.evaluate", "epimc.formulas", "epimc.runs",
        "epimc.serialize", "epimc.views",
    ])
