"""What the package holds and what it exposes.

Every module-level function and class of ``capns``, and every method that
is not a dunder, is reached: package code outside its own definition uses
it by name, it is public (``capns.__all__``), or it is on the allowlist
below with the reason it stays. A module-level name is used as a bare name
(the package never reaches a module's functions as attributes of the
module) and a method as an attribute, so a method does not reach a module
function of the same name, nor the other way round. The public names and the external
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
    """(kind, name, node) of module-level functions and classes (kind
    ``ast.Name``) and of the non-dunder methods of those classes (kind
    ``ast.Attribute``): the kind of use that reaches each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield ast.Name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield ast.Attribute, item.name, item


def _uses(tree):
    """(kind, name, line) of every name read (kind ``ast.Name``) or
    attribute taken (kind ``ast.Attribute``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield ast.Name, node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield ast.Attribute, node.attr, node.lineno


def _unreached(trees):
    uses = [(module, kind, name, line) for module, tree in trees.items()
            for kind, name, line in _uses(tree)]
    unreached = set()
    for module, tree in trees.items():
        for kind, name, node in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(k is kind and n == name and not (m == module and line in inside)
                       for m, k, n, line in uses):
                unreached.add(name)
    return unreached


def test_every_package_function_is_reached():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unreached(trees) - set(capns.__all__) == set(UNREACHED)


def test_method_and_function_of_one_name_are_told_apart():
    # a method call does not reach a module function of the same name, and
    # a bare call does not reach a method; name-only matching reached both
    grid = "class Grid:\n    def integrate(self, v):\n        return v\n"
    for call in ("g.integrate(1)", "integrate(1)"):
        trees = {"a.py": ast.parse("def integrate(f):\n    return f\n"),
                 "b.py": ast.parse(f"{grid}def use(g):\n    return {call}\n"
                                   "def run():\n    return use(Grid())\n")}
        assert _unreached(trees) == {"integrate", "run"}


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
