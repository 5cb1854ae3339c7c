"""Model checking for knowledge, common knowledge, and its attainable
variants over finite run-based models of distributed systems.

The modules every query needs are imported here. The names of
``protocols`` and ``scenarios`` (run generation, structural checks and
the built-in scenarios) are resolved on first use, so a command that
only loads and evaluates a model never imports those modules.
"""

__version__ = "0.1.0"

from .runs import (
    EMPTY_HISTORY,
    Event,
    LocalHistory,
    ModelError,
    Point,
    Run,
    System,
    extends,
    history_cover,
    make_run,
    make_system,
    validate_system,
)
from .views import (
    IndistIndex,
    ViewPolicy,
    build_index,
    export_graph,
    g_reachable,
    reachable_set,
)
from .formulas import Formula, check_positivity, expand_fixpoints, parse, print_formula
from .evaluate import (
    Model,
    ScenarioManifest,
    Valuation,
    axiom_suite,
    check_induction_rule,
    check_validity,
    eval_C_reach,
    evaluate,
    gfp,
    holds,
    make_valuation,
    verify_manifest,
)

#: Name -> the module that defines it, imported on first use; a module
#: name maps to itself.
_LAZY = {
    name: "protocols"
    for name in (
        "protocols",
        "DeliveryModel",
        "InitialConfiguration",
        "JointProtocol",
        "check_ng1",
        "check_ng1prime",
        "check_ng2",
        "check_temporal_imprecision",
        "close_under_shifts",
        "generate_runs",
        "shift_run",
    )
}
_LAZY.update(scenarios="scenarios", SCENARIOS="scenarios")


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    value = globals()[name] = loaded if name == module else getattr(loaded, name)
    return value
