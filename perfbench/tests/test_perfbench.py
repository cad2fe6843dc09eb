"""Tests of the benchmark itself: seeded inputs, tracer restore, exact counts.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import telecloning  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def small(name: str, workdir: Path):
    """The named workload, with mc-sample cut to 2000 shots per op."""
    workload = workloads.WORKLOADS[name](ROOT, workdir)
    if name == "mc-sample":
        workload.shots = 2000
    return workload


def fingerprint(ops, workdir: Path) -> list:
    """Everything the program would receive, with the work directory removed."""
    rows = []
    for op in ops:
        text = json.dumps([op.items, op.spec, op.expect], sort_keys=True, default=str)
        rows.append(text.replace(str(workdir), "<work>"))
    rows += [path.read_text() for path in sorted(workdir.glob("*.cfg"))]
    return rows


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    dirs = [tmp_path / tag for tag in ("a", "b", "c")]
    prints = []
    for directory, seed in zip(dirs, (7, 7, 8)):
        directory.mkdir()
        prints.append(fingerprint(small(name, directory).make_inputs(seed), directory))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def namespace_snapshot() -> dict:
    snap = {}
    for mod_name, module in sys.modules.items():
        if mod_name == "telecloning" or mod_name.startswith("telecloning."):
            snap.update({(mod_name, attr): obj for attr, obj in vars(module).items()})
    for name in tracer.CONSTRUCTORS:
        owner, attr, obj = tracer.traced_callables()[name]
        snap[(name, attr)] = owner.__dict__[attr]
    return snap


def test_traced_run_restores_every_patched_name(tmp_path):
    workload = small("circuit-audit", tmp_path)
    ops = workload.make_inputs(3)[:20]
    before = namespace_snapshot()
    spans = tracer.Tracer()
    with spans.installed() as bindings:
        assert telecloning.protocol.shot_stream is not before[
            ("telecloning.protocol", "shot_stream")]
        assert telecloning.gaussian.GaussianState.__dict__["__init__"] is not before[
            ("gaussian.GaussianState", "__init__")]
        for op in ops:
            workload.run(op)
    assert len(spans.name) > 0
    assert {(owner.__name__, attr) for owner, attr, _ in bindings} >= {
        ("telecloning.protocol", "shot_stream"), ("telecloning.cli", "run_analytic"),
        ("telecloning.resource", "apply_symplectic"), ("telecloning", "fit_params")}
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_counts_repeat_exactly(name, tmp_path):
    workload = small(name, tmp_path)
    ops, _ = run.split(workload, workload.make_inputs(5))
    counts = []
    for _ in range(2):
        _, metrics = run.traced(workload, ops, 5, tmp_path, io.StringIO())
        counts.append({key: entry["value"] for key, entry in metrics.items()
                       if key.endswith(".calls")})
    assert counts[0] == counts[1]
    assert set(counts[0]) == {f"{span}.calls" for span in run.SPANS}
    shots = counts[0]["homodyne.shot_stream.calls"]
    if name == "mc-sample":
        assert shots == 2 * 2000
    else:
        assert shots == 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mc-sample",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


class Scripted:
    """Stands in for a workload's op: returns a fixed outcome or raises."""

    def __init__(self, outcome=None, error=None):
        self.outcome, self.error = outcome, error

    def __call__(self, op):
        if self.error:
            raise self.error
        return self.outcome


def outcome_of(code: int, stdout: str = "", stderr: str = "") -> workloads.Outcome:
    return workloads.Outcome([code], [stdout], [stderr])


PHYSICALITY = ("error: unphysical state in telecloning resource: smallest "
               "symplectic eigenvalue -1e-3 below 1\n")
GATE = "error: analytic paths disagree by 1.000e-08\n"


@pytest.mark.parametrize("index, outcome, known", [
    (9, outcome_of(2, stderr=PHYSICALITY), True),
    (19, outcome_of(2, stderr=GATE), True),
    (3, outcome_of(2, stderr=PHYSICALITY), False),   # operating range
    (0, outcome_of(2, stderr=GATE), False),
    (9, outcome_of(1, stderr="error: bad config\n"), False),  # other stage
    (9, outcome_of(0, stdout="{}"), False),          # wrong output
    (9, outcome_of(0, stdout="not json"), False),
    (9, None, False),                                # op raised
])
def test_only_known_wide_range_defects_keep_circuit_audit_correct(
        index, outcome, known, tmp_path):
    workload = workloads.CircuitAudit(ROOT, tmp_path)
    workload.run = Scripted(outcome, None if outcome else RuntimeError("boom"))
    tally = run.Tally()
    tally.run(workload, workloads.Op(index, 1, {}, {}))
    assert tally.failed == 1
    assert tally.unexpected == (0 if known else 1)


@pytest.mark.parametrize("name", ["mc-sample", "calibrate-sweep"])
@pytest.mark.parametrize("outcome", [outcome_of(2, stderr=PHYSICALITY), None])
def test_any_failure_makes_other_workloads_incorrect(name, outcome, tmp_path):
    workload = small(name, tmp_path)
    op = workload.make_inputs(1)[9]
    workload.run = Scripted(outcome, None if outcome else ValueError("boom"))
    tally = run.Tally()
    tally.run(workload, op)
    assert tally.failed == 1 and tally.unexpected == 1


def test_mc_sample_tolerance_comes_from_the_oracle(tmp_path):
    workload = small("mc-sample", tmp_path)
    op = workload.make_inputs(1)[1]          # --sampled, no CSV
    outcome = workloads.Outcome()
    workloads.cli_call(op.spec["argv"], outcome)
    assert workload.check(op, outcome) is None
    doc = json.loads(outcome.stdout[0])
    clone = doc["clone_moments"]["clone1"]
    clone["mean_x"] += 1.0                    # far off, with a huge reported se
    clone["se_mean_x"] = 1e6
    outcome.stdout[0] = json.dumps(doc)
    assert workload.check(op, outcome).startswith("check: clone1.mean_x beyond")
    clone["mean_x"] -= 1.0                    # right estimate, inflated se
    outcome.stdout[0] = json.dumps(doc)
    assert workload.check(op, outcome) == (
        "check: clone1.se_mean_x above the analytic standard error")


def test_wide_range_configs_are_audited_not_timed(tmp_path):
    workload = workloads.CircuitAudit(ROOT, tmp_path)
    ops, audited = run.split(workload, workload.make_inputs(2)[:40])
    assert [op.index for op in audited] == [9, 19, 29, 39]
    assert len(ops) == 36 and not any(workload.audited(op) for op in ops)
    audit = run.defect_audit(workload, audited, io.StringIO())
    assert audit.attempted == 4 and audit.unexpected == 0
