"""Shared builders for randomized property tests, per-point references, the
whole records of a Monte Carlo run, and the rerun of selected tests below
AVX-512."""

import configparser
import functools
import io
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from telecloning import (
    DegenerateVarianceError,
    FitResult,
    GaussianState,
    OPOParams,
    ProtocolConfig,
    QuadratureSelector,
    SqueezerSpec,
    SymplecticMatrix,
    apply_symplectic,
    beam_splitter_50_50,
    coherent,
    displace,
    loss_channel,
    phase_shift,
    run_monte_carlo,
    squeezed_vacuum,
    tensor,
    vacuum,
)
from telecloning.config import _SCHEMA, ConfigError, parse_config
from telecloning.opo import _spectra
from telecloning.protocol import READOUT

ROOT = Path(__file__).resolve().parent.parent
BELOW_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@functools.cache
def _below_avx512() -> tuple[dict, str | None]:
    """The environment of a process whose numpy skips the AVX-512 loops, and
    why this host cannot run one (``None`` where it can); probed once."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BELOW_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-W", "error", "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=120)
    if not probe.returncode:
        return env, None
    return env, ("numpy refuses NPY_DISABLE_CPU_FEATURES on this host: "
                 + (probe.stderr.strip().splitlines() or ["no message"])[-1])


def only_passed(summary: str) -> bool:
    """Whether pytest's last ``-q`` line reports at least one passed test
    and nothing but passed and deselected ones: a failed, skipped, xfailed
    or xpassed test, or one whose file fails to collect (an error), fails it."""
    counts = dict((kind, int(n)) for n, kind in re.findall(r"(\d+) (\w+)", summary))
    return counts.get("passed", 0) > 0 and set(counts) <= {"passed", "deselected"}


def assert_passes_below_avx512(*args) -> None:
    """Run ``pytest -q args`` in a process whose numpy skips the AVX-512
    loops, and require every test the selection collects there to pass, at
    least one (``only_passed``). Skips the calling test where numpy refuses
    the variable."""
    env, refusal = _below_avx512()
    if refusal:
        pytest.skip(refusal)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             *args], env=env, cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    lines = result.stdout.splitlines() or [""]
    assert result.returncode == 0 and only_passed(lines[-1]), result.stdout[-3000:]


def collect_records(config: ProtocolConfig, sampled: bool = False):
    """``run_monte_carlo`` with a sink that keeps every chunk: the moments
    and the whole read-only (6, shots) records, rows x_u, p_v, x1, p1, x2, p2."""
    chunks = []
    moments = run_monte_carlo(config, sampled, lambda chunk, first: chunks.append(chunk.copy()))
    records = np.concatenate(chunks, axis=1)
    records.flags.writeable = False
    return moments, records


def random_squeeze(rng) -> SymplecticMatrix:
    """Single-mode squeezer diag(e^r, e^-r) with random strength."""
    r = rng.uniform(-1.0, 1.0)
    return SymplecticMatrix(np.diag([np.exp(r), np.exp(-r)]))


def random_state(rng, n_modes: int) -> GaussianState:
    """Generic physical state: squeezed inputs through a random circuit."""
    parts = []
    for _ in range(n_modes):
        v_x = 0.25 * np.exp(rng.uniform(-1.5, 1.5))
        v_p = (0.0625 / v_x) * np.exp(rng.uniform(0.0, 1.0))  # impure by excess
        parts.append(squeezed_vacuum(v_x, v_p))
    state = tensor(*parts)
    for _ in range(2 * n_modes):
        mode = int(rng.integers(n_modes))
        state = apply_symplectic(state, phase_shift(rng.uniform(0, 2 * np.pi)), [mode])
        if n_modes > 1:
            pair = list(rng.choice(n_modes, size=2, replace=False))
            state = apply_symplectic(state, beam_splitter_50_50(), pair)
    for mode in range(n_modes):
        state = displace(state, mode, rng.uniform(-3, 3), rng.uniform(-3, 3))
    return state


def random_selector(rng, n_modes: int) -> QuadratureSelector:
    return QuadratureSelector(int(rng.integers(n_modes)), "xp"[rng.integers(2)])


def random_config(rng) -> ProtocolConfig:
    """Randomized experiment over the documented parameter ranges."""
    s1, s2 = rng.uniform(0.0, 10.0, size=2)
    return ProtocolConfig(
        spec_i=SqueezerSpec(s1, s1 + rng.uniform(0.0, 3.0)),
        spec_ii=SqueezerSpec(s2, s2 + rng.uniform(0.0, 3.0)),
        input_alpha=complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        gains=tuple(rng.uniform(0.5, 1.5, size=4)),
        eta_homodyne=rng.uniform(0.9, 1.0),
        eta_resource=tuple(rng.uniform(0.9, 1.0, size=3)),
        coupler_t=rng.uniform(0.9, 1.0),
        shots=100,
        seed=int(rng.integers(2**32)),
    )


def wide_config(rng) -> ProtocolConfig:
    """A config drawn as the benchmark's 12-100 dB circuit-audit ones: both
    squeezers pure, or each 0-3 dB impure, with the documented gains,
    transmissivities and amplitudes."""
    pure = bool(rng.random() < 0.5)
    specs = []
    for _ in range(2):
        level = float(rng.uniform(12.0, 100.0))
        specs.append(SqueezerSpec(level, level if pure else level + float(rng.uniform(0.0, 3.0))))
    gains, etas = rng.uniform(0.5, 1.5, size=4), rng.uniform(0.9, 1.0, size=5)
    return ProtocolConfig(*specs, input_alpha=complex(*rng.uniform(-5.0, 5.0, size=2)),
                          gains=tuple(gains), eta_homodyne=float(etas[0]),
                          eta_resource=tuple(etas[1:4]), coupler_t=float(etas[4]),
                          shots=16, seed=int(rng.integers(2**32)))


def acceptance_pool() -> dict[str, ProtocolConfig]:
    """Configs on which every command that builds the measurement plan must
    decide alike: random ones, 12-100 dB ones, pure symmetric squeezers at
    0-200 dB with alpha = 1 + 0.5i, and two whose conditioning subtracts
    entries near 1e27-1e30 (300 dB of antisqueezing; 287 dB with a gain of
    1e63 and a detection efficiency of 1e-9)."""
    rng = np.random.default_rng(2525)
    pool = {f"random {k}": random_config(rng) for k in range(20)}
    pool.update({f"wide {k}": wide_config(rng) for k in range(60)})
    for level in np.linspace(0.0, 200.0, 41):
        spec = SqueezerSpec.pure(float(level))
        pool[f"pure {level:g} dB"] = ProtocolConfig(spec, spec, input_alpha=1 + 0.5j)
    pool["300 dB"] = ProtocolConfig(
        SqueezerSpec.pure(0.0), SqueezerSpec(0.0, 300.0), input_alpha=40 + 80j,
        gains=(1.0, 1.0, 300.0, 1.0), eta_resource=(0.999, 1e-9, 1.0))
    pool["287 dB"] = ProtocolConfig(
        SqueezerSpec.pure(117.77), SqueezerSpec.pure(287.28), gains=(1.0, 1.0, -1.1555e63, 1.0),
        eta_homodyne=1e-9, eta_resource=(1e-9, 1.0, 0.769), coupler_t=0.557)
    return pool


def config_dict(config: ProtocolConfig) -> dict:
    """The parsed config file of ``config``: ``protocol_config_from`` inverted."""
    values = {"squeezer_i.squeezing_db": config.spec_i.squeezing_db,
              "squeezer_i.antisqueezing_db": config.spec_i.antisqueezing_db,
              "squeezer_ii.squeezing_db": config.spec_ii.squeezing_db,
              "squeezer_ii.antisqueezing_db": config.spec_ii.antisqueezing_db,
              "input.alpha_re": config.input_alpha.real,
              "input.alpha_im": config.input_alpha.imag,
              "loss.eta_homodyne": config.eta_homodyne, "loss.coupler_t": config.coupler_t}
    values.update(zip(("gains.gx1", "gains.gp1", "gains.gx2", "gains.gp2"), config.gains))
    values.update(zip(("loss.eta_resource_a", "loss.eta_resource_b", "loss.eta_resource_c"),
                      config.eta_resource))
    cfg = dict(parse_config(""), **{key: float(value) for key, value in values.items()})
    cfg.update({"run.shots": int(config.shots), "run.seed": int(config.seed)})
    return cfg


# Per-point references: the pump model, the analytic clone moments and the
# fidelity as first written, one scalar evaluation per point. The batched
# code paths are checked against these.

def reference_spectra(params, p_pump_mw):
    """(squeezing_db, antisqueezing_db) of the pump model: scalar math, ``**2``."""
    x = np.sqrt(p_pump_mw / params.p_threshold_mw)
    w2 = params.omega**2
    low = (1.0 - x) ** 2 + w2
    high = (1.0 + x) ** 2 + w2
    v_minus = (low + 4.0 * x * (1.0 - params.eta_det)) / high
    v_plus = (low + 4.0 * x * params.eta_det) / low
    return float(-10.0 * np.log10(v_minus)) + 0.0, float(10.0 * np.log10(v_plus))


def reference_variance(db: float) -> float:
    """Quadrature variance of a noise level in dB, on a Python float."""
    return 0.25 * 10.0 ** (db / 10.0)


def reference_clones(config, spec_i, spec_ii):
    """Both clones' (mean_x, mean_p, var_x, var_p) by the direct mode
    expansion; ``spec_i`` and ``spec_ii`` are (squeezing_db,
    antisqueezing_db) pairs and replace the config's own squeezers."""
    sqrt2 = math.sqrt(2.0)
    eta_a, eta_b, eta_c = config.eta_resource
    t = config.coupler_t
    eta_hd = config.eta_homodyne
    v_x_i = reference_variance(spec_i[1])
    v_p_i = reference_variance(-spec_i[0])
    v_x_ii = reference_variance(-spec_ii[0])
    v_p_ii = reference_variance(spec_ii[1])
    alpha = config.input_alpha

    def one_clone(g_x, g_p, eta_r, sign):
        w = math.sqrt(t) * math.sqrt(eta_r)

        def ancilla(g):
            return (t * (1.0 - eta_r) + (1.0 - t) + g * g * (1.0 - eta_a)
                    + 2.0 * g * g * (1.0 - eta_hd) / eta_hd) * 0.25

        c_x_i = w / 2.0 - g_x * math.sqrt(eta_a) / sqrt2
        c_x_ii = -w / 2.0 - g_x * math.sqrt(eta_a) / sqrt2
        c_p_i = w / 2.0 + g_p * math.sqrt(eta_a) / sqrt2
        c_p_ii = -w / 2.0 + g_p * math.sqrt(eta_a) / sqrt2
        c_iii = sign * w / sqrt2
        var_x = (g_x * g_x * 0.25 + c_x_i**2 * v_x_i
                 + c_x_ii**2 * v_x_ii + c_iii**2 * 0.25 + ancilla(g_x))
        var_p = (g_p * g_p * 0.25 + c_p_i**2 * v_p_i
                 + c_p_ii**2 * v_p_ii + c_iii**2 * 0.25 + ancilla(g_p))
        return g_x * alpha.real, g_p * alpha.imag, float(var_x), float(var_p)

    g_x1, g_p1, g_x2, g_p2 = config.gains
    return one_clone(g_x1, g_p1, eta_b, +1.0), one_clone(g_x2, g_p2, eta_c, -1.0)


def reference_fidelity(mean, cov, alpha: complex) -> float:
    """Overlap of one single-mode Gaussian state with the coherent state alpha."""
    mean = np.asarray(mean, dtype=float).reshape(2)
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    sigma = cov + 0.25 * np.eye(2)
    delta = mean - np.array([alpha.real, alpha.imag])
    quad = float(delta @ np.linalg.solve(sigma, delta))
    return float(np.exp(-0.5 * quad) / (2.0 * np.sqrt(np.linalg.det(sigma))))


def reference_condition_on(state: GaussianState, sel, value: float) -> GaussianState:
    """``condition_on`` as first written: a rank-1 Schur complement."""
    if sel.mode >= state.n_modes:
        raise ValueError(f"selector mode {sel.mode} out of range")
    if state.n_modes < 2:
        raise ValueError("conditioning drops the measured mode; need at least 2 modes")
    i = sel.index()
    v_q = state.cov[i, i]
    if v_q < 1e-12:
        raise DegenerateVarianceError(f"marginal variance {v_q:.3e} is degenerate")
    keep = np.array([j for j in range(state.mean.size) if j // 2 != sel.mode])
    c = state.cov[keep, i]
    mean_k = state.mean[keep] + c * (value - state.mean[i]) / v_q
    cov_k = state.cov[np.ix_(keep, keep)] - np.outer(c, c) / v_q
    cov_k = 0.5 * (cov_k + cov_k.T)
    return GaussianState(mean_k, cov_k)


def reference_circuit_states(config) -> dict[str, GaussianState]:
    """``circuit_states`` as a chain of public one-operation calls: each
    splitter and each lossy mode applied to the whole state in turn."""
    bs = beam_splitter_50_50()
    spec_i, spec_ii = config.spec_i, config.spec_ii
    state = tensor(squeezed_vacuum(spec_i.antisqueezed_variance, spec_i.squeezed_variance),
                   squeezed_vacuum(spec_ii.squeezed_variance, spec_ii.antisqueezed_variance),
                   vacuum(1))
    state = apply_symplectic(state, bs, [0, 1])
    state = apply_symplectic(state, bs, [1, 2])
    for mode, eta in enumerate(config.eta_resource):
        state = loss_channel(state, mode, eta)
    joint = tensor(coherent([config.input_alpha]), state)
    split = joint
    for mode in (2, 3):  # the receiver couplers on B and C
        split = loss_channel(split, mode, config.coupler_t)
    split = apply_symplectic(split, bs, [0, 1])  # the sender's splitter on (in, A)
    detected = split
    for mode in (0, 1):
        detected = loss_channel(detected, mode, config.eta_homodyne)
    return {"resource": state, "joint": joint, "bell_split": split, "detected": detected}


def reference_clone_state(config) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of both clones from ``reference_circuit_states``:
    the readout of ``READOUT``, then the calibrated feedforward."""
    detected = reference_circuit_states(config)["detected"]
    q = [sel.index() for sel in READOUT]
    keep = [j for j in range(detected.mean.size) if j // 2 not in {sel.mode for sel in READOUT}]
    cov = detected.cov
    sigma, cross = cov[np.ix_(q, q)], cov[np.ix_(keep, q)]
    # the Schur complement written out, not through the package's ``conditional``
    gain = np.linalg.solve(sigma, cross.T).T
    cond = cov[np.ix_(keep, keep)] - gain @ cross.T
    g_x1, g_p1, g_x2, g_p2 = config.gains
    ffwd = math.sqrt(2.0) / math.sqrt(config.eta_homodyne) * np.array(
        [[g_x1, 0.0], [0.0, g_p1], [g_x2, 0.0], [0.0, g_p2]])
    total = gain + ffwd
    mean = detected.mean[keep] + ffwd @ detected.mean[q]
    return mean, cond + total @ sigma @ total.T


# The config file format as first written: the standard library's
# ConfigParser, then the per-key strict parse. The package's own reader is
# checked against these; their messages carry no "(line N)" suffix.

def reference_parse_config(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    cfg = {f"{section}.{key}": default
           for section, keys in _SCHEMA.items()
           for key, (_, default) in keys.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            caster, _ = _SCHEMA[section][key]
            try:
                value = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"invalid value for '{section}.{key}': {raw!r}") from exc
            if not math.isfinite(value):
                raise ConfigError(f"non-finite value for '{section}.{key}': {raw!r}")
            cfg[f"{section}.{key}"] = value
    return cfg


def reference_serialize_config(cfg: dict) -> str:
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key in keys:
            parser.set(section, key, repr(cfg[f"{section}.{key}"]))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


# The OPO fit as it ran on scipy's bounded search, and the bounded
# least-squares optimum from scipy. fit_params must reach the optimum and
# never a higher sum of squared residuals than the old fit.

def reference_fit_scipy(data, omega=0.0) -> FitResult:
    """``fit_params`` as it ran on scipy: a grid seed and six rounds of
    coordinate descent, each search by
    ``scipy.optimize.minimize_scalar(method="bounded")``, with an array
    objective. The rounds stop short of the least-squares optimum."""
    from scipy import optimize

    rows = [(float(p), float(s), float(a)) for p, s, a in data]
    pumps, s_meas, a_meas = np.array(rows).T
    p_max = pumps.max()
    params = OPOParams(p_max, 1.0, omega)
    omega2 = params.omega**2

    def objective(p_th, eta):
        x = np.sqrt(pumps / np.asarray(p_th)[..., None])
        s_db, a_db = _spectra(x, np.asarray(eta)[..., None], omega2)
        return ((s_db - s_meas) ** 2 + (a_db - a_meas) ** 2).sum(axis=-1)

    p_grid = np.geomspace(p_max * 1.02, p_max * 50.0, 60)
    eta_grid = np.linspace(0.05, 1.0, 40)
    scores = objective(p_grid[:, None], eta_grid[None, :])
    best_p, best_eta = np.unravel_index(np.argmin(scores), scores.shape)
    p_th, eta = float(p_grid[best_p]), float(eta_grid[best_eta])
    for _ in range(6):
        p_th = float(optimize.minimize_scalar(
            lambda p: objective(p, eta), bounds=(p_max * 1.0001, p_max * 100.0),
            method="bounded", options={"xatol": 1e-10}).x)
        eta = float(optimize.minimize_scalar(
            lambda e: objective(p_th, e), bounds=(1e-6, 1.0), method="bounded",
            options={"xatol": 1e-12}).x)
    rss = float(objective(p_th, eta))
    return FitResult(replace(params, p_threshold_mw=p_th, eta_det=eta), rss,
                     float(np.sqrt(rss / (2 * len(rows)))), len(rows))


def reference_optimum(data, omega, start):
    """The bounded least-squares optimum by ``scipy.optimize.least_squares``
    on per-point ``reference_spectra`` residuals, from ``start`` =
    (p_threshold_mw, eta_det). Works in p_threshold / max pump, as the fit
    does, under the fit's bounds, with finite-difference derivatives and
    tolerances at the rounding level. Returns the solution's (p_threshold_mw,
    eta_det, sum of squared residuals, active_mask)."""
    from scipy import optimize

    p_max = max(row[0] for row in data)

    def residuals(theta):
        params = OPOParams(theta[0] * p_max, theta[1], omega)
        out = []
        for p, s_db, a_db in data:
            squeezing_db, antisqueezing_db = reference_spectra(params, p)
            out += [squeezing_db - s_db, antisqueezing_db - a_db]
        return out

    sol = optimize.least_squares(
        residuals, [start[0] / p_max, start[1]], jac="3-point",
        bounds=([1.0001, 1e-6], [100.0, 1.0]), x_scale="jac",
        ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=2000)
    return sol.x[0] * p_max, sol.x[1], 2.0 * sol.cost, sol.active_mask
