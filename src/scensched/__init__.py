"""Total-completion-time scheduling under job-subset scenarios.

Importing the package loads no submodule.  Each public name is looked up in
its defining submodule on first access (PEP 562 ``__getattr__``), so
``import scensched`` and ``python -m scensched.cli`` pay only for the
modules they use.  The lookup is not cached: ``scensched.X`` always returns
the submodule's current binding of ``X``.
"""

import importlib

_EXPORTS = {
    "model": (
        "CostVector",
        "DisbalanceReport",
        "GuardExceeded",
        "Instance",
        "ObjectiveKind",
        "Schedule",
        "SolveResult",
        "disbalance",
        "evaluate",
        "evaluate_scenario",
        "from_processing_times",
        "instance_from_dict",
        "instance_hash",
        "instance_to_dict",
        "make_instance",
        "scenario_optima",
        "schedule_from_dict",
        "schedule_to_dict",
        "single_scenario_optimum",
    ),
    "oracle": (
        "OracleResult",
        "brute_force",
        "expected_uniform_cost",
        "iter_canonical_assignments",
        "optimal_schedules",
    ),
    "two_scenario": ("solve_two_scenarios",),
    "dp_minmax": ("FptasResult", "fptas", "solve_pseudo"),
    "dp_minavg": ("solve_minavg", "solve_regret_sum"),
    "dp_config": ("solve_config",),
    "approx": ("minavg_derandomized", "minmax_all_on_one"),
    "balance": (
        "EqualizeReport",
        "HilbertBasis",
        "LatticePoint",
        "ProbeReport",
        "conjecture_probe",
        "decompose",
        "equalize_all",
        "equalize_two",
        "hilbert_basis",
        "in_cone",
        "profile_index",
        "profile_round_robin",
    ),
    "generators": (
        "Graph",
        "ScenarioMatrix",
        "gen_coloring",
        "gen_maxcut",
        "gen_partition3",
        "gen_random",
        "gen_unsplittable",
        "is_unsplittable",
        "matrix_to_instance",
        "partition3_tight_bound",
    ),
}

# public name -> defining submodule; a submodule's own name maps to itself
_HOME = {module: module for module in _EXPORTS}
_HOME.update((name, module) for module, names in _EXPORTS.items() for name in names)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
