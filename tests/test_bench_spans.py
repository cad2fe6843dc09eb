"""The traced benchmark's span names still exist in the package.

``perfbench/run.py`` looks up each name of its ``SPANS`` in the tracer's
table and raises ``KeyError`` on a missing one, so a refactor that deletes
or renames a spanned function would otherwise show only in a traced run.
Both files are read with ``ast``; neither is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spans() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SPANS")


def test_every_span_names_a_public_function_or_a_class_of_its_module():
    spans = _spans()
    assert spans
    missing = []
    for span in spans:
        module, name = span.split(".")
        tree = ast.parse((ROOT / "src" / "telecloning" / f"{module}.py").read_text())
        defined = {node.name: node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        node = defined.get(name)
        if node is None or (isinstance(node, ast.FunctionDef) and name.startswith("_")):
            missing.append(span)
    assert not missing, missing
