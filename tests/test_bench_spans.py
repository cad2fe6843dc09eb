"""The traced benchmark's names still exist in the package.

``perfbench/run.py`` looks up each name of its ``SPANS`` in the tracer's
table and raises ``KeyError`` on a missing one. ``perfbench/tracer.py``'s
``traced_callables()`` raises on a missing ``LAYERS`` module or
``CONSTRUCTORS`` class, and would trace a renamed ``UNTRACED`` handler. A
refactor that deletes or renames one of these would otherwise show only
in a benchmark run. The files are read with ``ast``; none is imported,
except ``perfbench/workloads.py``, whose ``exit_stage`` names the stage of
a failed ``run`` from the CLI's error message.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import telecloning.cli
import telecloning.gaussian

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "telecloning"


def _constant(path: Path, name: str):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def _defined(module: str, kind) -> dict:
    """Top-level definitions of one package module that are ``kind``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, kind)}


def test_every_span_names_a_public_function_or_a_class_of_its_module():
    spans = _constant(ROOT / "perfbench" / "run.py", "SPANS")
    assert spans
    missing = []
    for span in spans:
        module, name = span.split(".")
        node = _defined(module, (ast.FunctionDef, ast.ClassDef)).get(name)
        if node is None or (isinstance(node, ast.FunctionDef) and name.startswith("_")):
            missing.append(span)
    assert not missing, missing


def test_every_tracer_name_exists_in_the_package():
    tracer = ROOT / "perfbench" / "tracer.py"
    layers = _constant(tracer, "LAYERS")
    assert layers and not [m for m in layers if not (PACKAGE / f"{m}.py").is_file()]
    missing = []
    for table, kind in (("CONSTRUCTORS", ast.ClassDef), ("UNTRACED", ast.FunctionDef)):
        names = _constant(tracer, table)
        assert names, table
        missing += [entry for entry in names
                    if entry.split(".")[1] not in _defined(entry.split(".")[0], kind)]
    assert not missing, missing


def test_exit_stage_names_each_known_defect(monkeypatch):
    # circuit-audit accepts the wide configs' failures only at these stages;
    # a reworded error message would make every such failure unexpected.
    # The states are physical by construction and no command checks their
    # bona fide condition, so a failing physicality tolerance changes no
    # exit: the first entry names a stage no command reaches any more
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    argv = ["run", str(ROOT / "configs" / "paper.cfg")]
    codes = []
    for module, tolerance in ((telecloning.gaussian, "PHYSICALITY_TOL"),
                              (telecloning.cli, "PATH_AGREEMENT_TOL")):
        with monkeypatch.context() as patch:
            patch.setattr(module, tolerance, -1.0)  # the check would fail on paper.cfg
            outcome = workloads.Outcome()
            codes.append(workloads.cli_call(argv, outcome))
    assert codes == [0, 2], outcome.stderr
    stage = workloads.exit_stage(codes[1], outcome.stderr[0])
    assert stage == workloads.CircuitAudit.KNOWN_DEFECTS[1]
