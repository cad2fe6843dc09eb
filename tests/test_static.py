"""Source-level guards, read with ``ast``: properties of the package code
that no run would show."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "telecloning"
METRICS = PACKAGE / "metrics.py"
# builders of a channel or operator from the generic gaussian ones
ASSEMBLERS = {"loss_map", "compose", "symplectic_map", "eye"}
# the bona fide checks, and the eigenproblems they solve
BONA_FIDE_CHECKS = {"assert_physical", "is_physical", "_assert_bona_fide", "eigvalsh", "eigvals"}


def test_metrics_makes_no_linalg_call():
    # the fidelity is a closed form on 2x2 matrices; a batched LAPACK call
    # (eigvalsh, solve, det) there costs most of a sweep
    used = []
    for node in ast.walk(ast.parse(METRICS.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            used.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and "linalg" in node.module:
            used.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "linalg" in alias.name for alias in node.names):
            used.append(node.lineno)
    assert not used, f"metrics.py references numpy.linalg at lines {used}"


def _name(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _assembly_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """Calls of ``ASSEMBLERS`` in function bodies, as (name, line), except in
    a ``functools.cache`` (or ``lru_cache``) builder, which runs once per
    argument rather than once per config."""
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    cached = {id(node) for f in functions
              if any(_name(getattr(d, "func", d)) in ("cache", "lru_cache")
                     for d in f.decorator_list)
              for node in ast.walk(f)}
    return sorted({(_name(node.func), node.lineno) for f in functions for node in ast.walk(f)
                   if isinstance(node, ast.Call) and id(node) not in cached
                   and _name(node.func) in ASSEMBLERS})


@pytest.mark.parametrize("module", ("protocol.py", "resource.py"))
def test_circuit_route_assembles_no_operator_per_call(module):
    # the network is fixed linear optics: its splitters are built at import
    # or in a functools.cache builder, and a config's losses scale their rows
    # and columns (gaussian.loss_diagonals); assembling loss_map, compose,
    # symplectic_map or np.eye operators per call cost ~40% of a run op
    calls = _assembly_calls(ast.parse((PACKAGE / module).read_text()))
    assert not calls, f"{module} assembles operators per call: {calls}"


@pytest.mark.parametrize("module", ("protocol.py", "resource.py"))
def test_circuit_route_solves_no_eigenproblem_to_check_a_state(module):
    # every element takes bona fide states to bona fide states, so the
    # route's states are physical by construction and the tests hold them to
    # assert_physical; a bona fide check per op cost ~10% of a run op.
    # Sampled mode's eigh factors the conditioned covariance for the draws
    tree = ast.parse((PACKAGE / module).read_text())
    calls = sorted({(_name(node.func), node.lineno)
                    for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                    for node in ast.walk(f) if isinstance(node, ast.Call)
                    and _name(node.func) in BONA_FIDE_CHECKS})
    assert not calls, f"{module} checks a state per call: {calls}"


def test_every_plan_field_is_read_by_a_route():
    # the measurement plan holds exactly what the routes read: a field that
    # only its builder or the tests read is work done per config for nothing
    # (matched by attribute name, outside ``_measurement_plan`` itself)
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    (plan,) = [node for node in ast.walk(trees["protocol.py"])
               if isinstance(node, ast.ClassDef) and node.name == "_MeasurementPlan"]
    fields = {node.target.id for node in plan.body if isinstance(node, ast.AnnAssign)}
    builder = {id(node) for f in ast.walk(trees["protocol.py"])
               if isinstance(f, ast.FunctionDef) and f.name == "_measurement_plan"
               for node in ast.walk(f)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in builder}
    unread = sorted(fields - read)
    assert fields and not unread, f"plan fields no route reads: {unread}"
