"""What the package holds and what it exposes.

Every module-level function and class of ``capns``, and every method that
is not a dunder, is reached: package code outside its own definition uses
it by name, it is public (``capns.__all__``), or it is on the allowlist
below with the reason it stays. The public names and the external
contracts (CSV columns, exit causes) are pinned as literals, so a rename
fails here and not only downstream.
"""

import ast
from pathlib import Path

import capns
from capns.cli import CAUSE_CODES
from capns.diagnostics import CSV_COLUMNS

SRC = Path(capns.__file__).parent

# names no package code calls, each with the reason it stays
UNREACHED = {
    "rhs_primitive": "benchmark span target; its tracer fails when a target is missing",
    "rhs_effective": "benchmark span target; its tracer fails when a target is missing",
    "tilde_norm": "benchmark span target; runs take spectral_tilde_norm",
    "calibrate_c1": "benchmark job and span target",
    "solve_linear_system": "the exact reference the step and Picard tests compare against",
    "transform": "the one producer of the public SpectralField",
    "vacuum_bound_estimate": "kept for the vacuum-bound report no command emits yet",
}


def _definitions(tree):
    """(name, node) of module-level functions and classes and of the
    non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item


def _uses(tree):
    """(name, line) of every name read or attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_package_function_is_reached():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(module, name, line) for module, tree in trees.items()
            for name, line in _uses(tree)]
    unreached = set()
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (m == module and line in inside)
                       for m, n, line in uses):
                unreached.add(name)
    assert unreached - set(capns.__all__) == set(UNREACHED)


def test_external_contracts_are_pinned():
    assert sorted(capns.__all__) == [
        "BesovSpec", "ConfigurationError", "DiagnosticsAccumulator", "DomainError",
        "EffectiveState", "Grid", "LifespanInputs", "NonContraction", "NumericBlowup",
        "PhysParams", "PicardConfig", "Preset", "PrimitiveState", "RealField",
        "RunResult", "ScheduleStall", "SolverConfig", "SpectralField", "VacuumBreach",
        "__version__", "besov_norm", "bony_decompose", "build", "build_bumps",
        "check_energy_inequality", "decompose", "degiorgi_recursion", "energy",
        "level_set_report", "lifespan_lower_bound", "load_checkpoint", "lp_gain_check",
        "norms_for_data", "picard_solve", "restart_schedule", "run", "save_checkpoint",
        "write_csv",
    ]
    assert CSV_COLUMNS == (
        "t", "mass", "energy", "bd_entropy", "dissip_u", "dissip_v",
        "dissip_density", "jungel", "min_rho", "max_inv_rho", "h1_sqrt",
        "lp_gain_p4", "lp_gain_p8", "lp_gain_p16",
    )
    assert CAUSE_CODES == {
        "ok": 0, "check_failed": 1, "invalid_config": 2, "vacuum_breach": 3,
        "numeric_blowup": 4, "non_contraction": 5, "schedule_stall": 6,
    }
