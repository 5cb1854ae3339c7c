"""Model checking for knowledge, common knowledge, and its attainable
variants over finite run-based models of distributed systems."""

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
    Valuation,
    axiom_suite,
    check_induction_rule,
    check_validity,
    eval_C_reach,
    evaluate,
    gfp,
    holds,
    make_valuation,
)
from .protocols import (
    DeliveryModel,
    InitialConfiguration,
    JointProtocol,
    check_ng1,
    check_ng1prime,
    check_ng2,
    check_temporal_imprecision,
    close_under_shifts,
    generate_runs,
    shift_run,
)
from .scenarios import SCENARIOS, ScenarioManifest, verify_manifest
