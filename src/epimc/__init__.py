"""Model checking for knowledge, common knowledge, and its attainable
variants over finite run-based models of distributed systems.

Every public name, and each module that defines one, is resolved from
``_LAZY`` on first use, so ``import epimc`` loads no submodule and a
command imports only the modules it runs. ``epimc.evaluate`` is the
function; the evaluator's module is ``epimc.semantics``.
"""

__version__ = "0.1.0"

#: The version of the file formats epimc reads and writes (the ``schema``
#: field of docs/file-formats.md).
SCHEMA_VERSION = 1

#: Name -> the module that defines it, imported on first use; a module
#: name maps to itself.
_LAZY = {
    name: module
    for module, names in (
        ("runs", "EMPTY_HISTORY Event LocalHistory ModelError Point Run System extends "
                 "history_cover make_run make_system validate_system"),
        ("views", "IndistIndex ViewPolicy build_index export_graph g_reachable "
                  "reachable_set"),
        ("formulas", "Formula check_positivity expand_fixpoints parse print_formula"),
        ("semantics", "Model ScenarioManifest Valuation check_validity evaluate gfp "
                      "holds make_valuation verify_manifest"),
        ("axioms", "axiom_suite check_induction_rule"),
        ("protocols", "DeliveryModel InitialConfiguration JointProtocol check_ng1 "
                      "check_ng1prime check_ng2 check_temporal_imprecision "
                      "close_under_shifts generate_runs shift_run"),
        ("scenarios", "SCENARIOS"),
    )
    for name in (module, *names.split())
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    value = globals()[name] = loaded if name == module else getattr(loaded, name)
    return value
