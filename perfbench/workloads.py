"""Seeded inputs, operations and output oracles of the benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
once the previous one has returned. Inputs come only from the seed and are
generated, written and checked against their oracle values before any
timing starts. The program sees only the generated config files and data.

An operation drives the package through its public entry points,
``telecloning.cli.main(argv)`` with stdout and stderr captured, and
``telecloning.fit_params``. Both are looked up on their module at call
time, so a tracer that patches the module namespaces sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import telecloning
import telecloning.cli
import telecloning.config

PAPER_CFG = Path("configs") / "paper.cfg"
SWEEP_STEPS = 241
FIDELITY_CAP = 2.0 / 3.0 + 1e-9
# a reported standard error may exceed the oracle's by this factor at most
SE_SLACK = 1.1


@dataclass
class Op:
    """One operation: what to run, how many items it does, what to expect."""

    index: int
    items: int
    spec: dict
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one operation returned: exit codes and captured text per call."""

    codes: list = field(default_factory=list)
    stdout: list = field(default_factory=list)
    stderr: list = field(default_factory=list)
    value: object = None


def cli_call(argv: list[str], outcome: Outcome) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = telecloning.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
    outcome.codes.append(code)
    outcome.stdout.append(out.getvalue())
    outcome.stderr.append(err.getvalue())
    return code


def exit_stage(code: int, stderr: str) -> str:
    """Name the failing stage of a non-zero exit from its stderr message."""
    found = re.search(r"unphysical state in ([^:]+):", stderr)
    if found:
        return f"exit {code}: physicality error in {found.group(1)}"
    if "paths disagree" in stderr:
        return f"exit {code}: analytic path agreement gate"
    last = stderr.strip().splitlines()[-1] if stderr.strip() else "no message"
    return f"exit {code}: {last.split(':')[0]}"


def write_config(path: Path, cfg: dict) -> None:
    path.write_text(telecloning.config.serialize_config(cfg), encoding="utf-8")


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class Workload:
    """Base: subclasses make inputs, run one op and check its output."""

    name = ""
    item = ""           # what ``throughput`` counts
    group = 1           # ops per closed-loop step
    traced_count = 1    # ops in the traced run

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.paper_cfg = str(root / PAPER_CFG)

    def make_inputs(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        """Default op: one CLI call with the op's argv."""
        outcome = Outcome()
        cli_call(op.spec["argv"], outcome)
        return outcome

    def check(self, op: Op, outcome: Outcome) -> str | None:
        """None if the output is correct, else the failing stage."""
        raise NotImplementedError

    def known_defect(self, op: Op, stage: str) -> bool:
        """True if failing at ``stage`` is a known defect of the program for
        this op; any other failure makes the run's ``correct`` false."""
        return False

    def audited(self, op: Op) -> bool:
        """True if the op runs once, untimed, in the defect audit instead of
        in the timed loop and the traced run."""
        return False

    def warmup_calls(self, ops: list[Op]) -> dict:
        """A short op for a fresh interpreter: CLI argvs and fit data."""
        raise NotImplementedError

    def traced_ops(self, ops: list[Op]) -> list[Op]:
        return ops[:self.traced_count]


class McSample(Workload):
    """``sample configs/paper.cfg`` at 1e5 shots, CSV and sampled in turn."""

    name = "mc-sample"
    item = "shot"
    group = 2
    traced_count = 2
    pool = 16
    shots = 100_000

    def make_inputs(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        cfg = telecloning.config.load_config(self.paper_cfg)
        truth = telecloning.run_analytic(
            telecloning.config.protocol_config_from(cfg))
        truth = {"clone1": vars(truth.clone1), "clone2": vars(truth.clone2)}
        csv_path = str(self.workdir / "shots.csv")
        ops = []
        for k, shot_seed in enumerate(rng.integers(0, 2**31, size=self.pool)):
            argv = ["sample", self.paper_cfg, "--shots", str(self.shots),
                    "--seed", str(int(shot_seed))]
            argv += ["--csv", csv_path] if k % 2 == 0 else ["--sampled"]
            ops.append(Op(k, self.shots, {"argv": argv},
                          {"truth": truth, "csv": csv_path if k % 2 == 0 else None}))
        return ops

    def check(self, op: Op, outcome: Outcome) -> str | None:
        if outcome.codes[0] != 0:
            return exit_stage(outcome.codes[0], outcome.stderr[0])
        moments = json.loads(outcome.stdout[0])["clone_moments"]
        for clone, truth in op.expect["truth"].items():
            est = moments[clone]
            for quad in ("x", "p"):
                var = truth[f"var_{quad}"]
                # standard errors of the plain sample mean and variance of
                # Gaussian shots; both estimators of the program are at least
                # as precise, so the tolerance never comes from its output
                oracle_se = {f"mean_{quad}": math.sqrt(var / self.shots),
                             f"var_{quad}": var * math.sqrt(2.0 / (self.shots - 1))}
                for key, se in oracle_se.items():
                    if not abs(est[key] - truth[key]) < 5.0 * se:
                        return f"check: {clone}.{key} beyond 5 standard errors"
                    if not est[f"se_{key}"] <= SE_SLACK * se:
                        return f"check: {clone}.se_{key} above the analytic standard error"
        if op.expect["csv"]:
            with open(op.expect["csv"], encoding="utf-8") as handle:
                rows = sum(1 for _ in handle) - 1
            if rows != self.shots:
                return f"check: CSV has {rows} rows for {self.shots} shots"
        return None

    def warmup_calls(self, ops: list[Op]) -> dict:
        argv = list(ops[0].spec["argv"])
        argv[argv.index("--shots") + 1] = "1000"
        return {"cli": [argv]}


def is_wide(index: int) -> bool:
    """Every tenth circuit-audit config comes from 12-100 dB squeezing."""
    return index % 10 == 9


def _random_squeezer(rng, low: float, high: float, pure: bool) -> tuple[float, float]:
    s = float(rng.uniform(low, high))
    return s, s if pure else s + float(rng.uniform(0.0, 3.0))


class CircuitAudit(Workload):
    """One ``run`` per generated config at 0-10 dB; the 1 in 10 from 12-100 dB
    squeezing is audited once, untimed."""

    name = "circuit-audit"
    item = "config"
    traced_count = 300
    pool = 1000
    # how wide-range configs fail today: the eigvals physicality check rejects
    # valid highly squeezed states (ROADMAP item 4), and the absolute 1e-9
    # path gate of cmd_run trips on large clone variances
    KNOWN_DEFECTS = ("exit 2: physicality error in telecloning resource",
                     "exit 2: analytic path agreement gate")

    def make_inputs(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        base = telecloning.config.parse_config("")
        ops = []
        for k in range(self.pool):
            wide = is_wide(k)
            pure = wide and bool(rng.random() < 0.5)
            low, high = (12.0, 100.0) if wide else (0.0, 10.0)
            s_i, a_i = _random_squeezer(rng, low, high, pure)
            s_ii, a_ii = _random_squeezer(rng, low, high, pure)
            gains = rng.uniform(0.5, 1.5, size=4)
            etas = rng.uniform(0.9, 1.0, size=5)
            cfg = dict(base)
            cfg.update({
                "squeezer_i.squeezing_db": s_i, "squeezer_i.antisqueezing_db": a_i,
                "squeezer_ii.squeezing_db": s_ii, "squeezer_ii.antisqueezing_db": a_ii,
                "input.alpha_re": float(rng.uniform(-5.0, 5.0)),
                "input.alpha_im": float(rng.uniform(-5.0, 5.0)),
                "gains.gx1": float(gains[0]), "gains.gp1": float(gains[1]),
                "gains.gx2": float(gains[2]), "gains.gp2": float(gains[3]),
                "loss.eta_homodyne": float(etas[0]),
                "loss.eta_resource_a": float(etas[1]),
                "loss.eta_resource_b": float(etas[2]),
                "loss.eta_resource_c": float(etas[3]),
                "loss.coupler_t": float(etas[4]),
                "run.seed": int(rng.integers(2**32)),
            })
            path = self.workdir / f"audit-{k:04d}.cfg"
            write_config(path, cfg)
            config = telecloning.config.protocol_config_from(cfg)
            moments = telecloning.run_analytic(config)
            fid = telecloning.fidelity_report(moments, config.input_alpha)
            ops.append(Op(k, 1, {"argv": ["run", str(path)]}, {
                "moments": {"clone1": vars(moments.clone1),
                            "clone2": vars(moments.clone2)},
                "fidelity": (fid.f_clone1, fid.f_clone2),
            }))
        return ops

    def check(self, op: Op, outcome: Outcome) -> str | None:
        if outcome.codes[0] != 0:
            return exit_stage(outcome.codes[0], outcome.stderr[0])
        try:
            doc = json.loads(outcome.stdout[0])
            got = (doc["fidelity"]["f_clone1"], doc["fidelity"]["f_clone2"])
            moments = doc["clone_moments"]
        except (ValueError, KeyError) as exc:
            return f"check: unreadable JSON ({exc.__class__.__name__})"
        if not all(_close(g, w) for g, w in zip(got, op.expect["fidelity"])):
            return "check: fidelity differs from run_analytic"
        for clone, truth in op.expect["moments"].items():
            for key in ("mean_x", "mean_p", "var_x", "var_p"):
                if not _close(moments[clone][key], truth[key]):
                    return f"check: {clone}.{key} differs from run_analytic"
        return None

    def known_defect(self, op: Op, stage: str) -> bool:
        return is_wide(op.index) and stage in self.KNOWN_DEFECTS

    def audited(self, op: Op) -> bool:
        return is_wide(op.index)

    def warmup_calls(self, ops: list[Op]) -> dict:
        return {"cli": [ops[0].spec["argv"]]}


def _sweep_argv(path: str, param: str, top: float) -> list[str]:
    return ["sweep", path, "--param", param, "--from", "0", "--to", repr(top),
            "--steps", str(SWEEP_STEPS)]


class CalibrateSweep(Workload):
    """Fit the OPO model to 12 points, then sweep pump and squeezing."""

    name = "calibrate-sweep"
    item = "cycle"
    traced_count = 4
    pool = 64
    points = 12
    noise_db = 0.05

    def make_inputs(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        base = telecloning.config.load_config(self.paper_cfg)
        ops = []
        for k in range(self.pool):
            p_th = float(rng.uniform(80.0, 200.0))
            eta = float(rng.uniform(0.5, 0.95))
            truth = telecloning.OPOParams(p_th, eta)
            pumps = np.sort(rng.uniform(0.05, 0.9, size=self.points)) * p_th
            data = []
            for pump in pumps:
                spec = telecloning.squeezing_spectra(truth, float(pump))
                data.append((float(pump),
                             spec.squeezing_db + float(rng.normal(0.0, self.noise_db)),
                             spec.antisqueezing_db + float(rng.normal(0.0, self.noise_db))))
            ops.append(Op(k, 1, {"data": data, "base": base,
                                 "path": str(self.workdir / f"fitted-{k:02d}.cfg")},
                          {"p_threshold_mw": p_th, "eta_det": eta}))
        return ops

    def run(self, op: Op) -> Outcome:
        outcome = Outcome()
        fit = telecloning.fit_params(op.spec["data"])
        outcome.value = fit.params
        cfg = dict(op.spec["base"])
        cfg["opo.p_threshold_mw"] = float(fit.params.p_threshold_mw)
        cfg["opo.eta_det"] = float(fit.params.eta_det)
        path = op.spec["path"]
        write_config(Path(path), cfg)
        for argv in (_sweep_argv(path, "pump_mw", 0.95 * fit.params.p_threshold_mw),
                     _sweep_argv(path, "squeezing_db", 12.0)):
            if cli_call(argv, outcome) != 0:
                break
        return outcome

    def check(self, op: Op, outcome: Outcome) -> str | None:
        fitted, truth = outcome.value, op.expect
        if abs(fitted.p_threshold_mw / truth["p_threshold_mw"] - 1.0) > 0.03:
            return "check: fitted p_threshold_mw off by more than 3%"
        if abs(fitted.eta_det - truth["eta_det"]) > 0.03:
            return "check: fitted eta_det off by more than 0.03"
        for code, out, err in zip(outcome.codes, outcome.stdout, outcome.stderr):
            if code != 0:
                return exit_stage(code, err)
            rows = list(csv.reader(io.StringIO(out)))
            if len(rows) != SWEEP_STEPS + 1 or rows[0][-1] != "fidelity":
                return f"check: sweep has {len(rows) - 1} rows, not {SWEEP_STEPS}"
            if not all(0.0 <= float(row[-1]) <= FIDELITY_CAP for row in rows[1:]):
                return "check: sweep fidelity outside [0, 2/3]"
        return None

    def warmup_calls(self, ops: list[Op]) -> dict:
        path = str(self.workdir / "warmup.cfg")
        write_config(Path(path), ops[0].spec["base"])
        return {"fit": ops[0].spec["data"],
                "cli": [_sweep_argv(path, "squeezing_db", 12.0)]}


WORKLOADS = {cls.name: cls for cls in (McSample, CircuitAudit, CalibrateSweep)}
