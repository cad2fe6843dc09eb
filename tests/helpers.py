"""Shared builders for randomized property tests, and per-point references."""

import configparser
import io
import math

import numpy as np

from telecloning import (
    DegenerateVarianceError,
    GaussianState,
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
    squeezed_vacuum,
    tensor,
    vacuum,
)
from telecloning.config import _SCHEMA, ConfigError
from telecloning.homodyne import conditional
from telecloning.protocol import READOUT


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
    keep, gain, cond = conditional(detected, READOUT)
    q = [sel.index() for sel in READOUT]
    g_x1, g_p1, g_x2, g_p2 = config.gains
    ffwd = math.sqrt(2.0) / math.sqrt(config.eta_homodyne) * np.array(
        [[g_x1, 0.0], [0.0, g_p1], [g_x2, 0.0], [0.0, g_p2]])
    total = gain + ffwd
    mean = detected.mean[keep] + ffwd @ detected.mean[q]
    return mean, cond + total @ detected.cov[np.ix_(q, q)] @ total.T


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
