"""Source-level guards, read with ``ast``: properties of the package code
that no run would show."""

import ast
from pathlib import Path

METRICS = Path(__file__).resolve().parent.parent / "src" / "telecloning" / "metrics.py"


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
