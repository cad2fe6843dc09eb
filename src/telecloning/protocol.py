"""End-to-end 1-to-2 telecloning of a coherent state.

The sender mixes the input with her share of the tripartite resource on a
balanced beam splitter, reads out x on one output port and p on the
other, and broadcasts both results. Each receiver displaces his mode by
sqrt(2) times the gain-weighted results, which completes the cloning.

The same physics is evaluated by three routes that must agree:

``run_analytic``
    Expands each output quadrature over the independent input modes
    (coherent input, the two squeezer outputs, the internal vacuum, and
    one loss ancilla per imperfection) and sums coefficient^2 * variance.
    ``clone_variances`` is that sum, elementwise over arrays of squeezer
    variances.

``run_circuit_analytic``
    Compiles the network into Gaussian channels (X, Y), composed from the
    generic splitter and loss operators of ``gaussian`` (never from
    ``clone_variances``): the resource circuit with its losses acts once
    on the squeezer inputs, and the receiver couplers, the sender's
    splitter and her detection loss act once on the input and the
    resource. It conditions on the sender's two measured quadratures
    (``READOUT``) in one step of ``homodyne.conditional`` and folds the
    feedforward displacement in exactly: the output covariance is outcome
    independent and the output mean is the outcome average.

``run_monte_carlo``
    Samples the two measurement outcomes of every shot from counter-based
    draws keyed by (seed, shot), applies the same displacements, and
    estimates moments. Shots are computed as numpy arrays in fixed-size
    chunks, each output an elementwise expression of the shot's own
    draws, so shot j is bit-identical however the shots are batched. The
    clone variance combines the spread of the per-shot conditional means
    with the constant conditional covariance (law of total variance);
    ``sampled=True`` instead draws one quadrature value per clone per shot
    and estimates everything from raw samples.

Imperfections: per-mode resource transmissivities; homodyne efficiency
as a loss channel on the measured ports, with the configured gains
defined downstream of that loss (the raw displacement coefficient is
rescaled by 1/sqrt(eta), the way unit gain is calibrated in practice);
and an optional coupler transmissivity on each receiver mode ahead of
the displacement.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    apply_channel,
    assert_physical,
    beam_splitter_50_50,
    coherent,
    compose,
    loss_map,
    symplectic_map,
    tensor,
    VACUUM_VARIANCE,
)
from .homodyne import (
    QuadratureSelector,
    conditional,
    marginal,
    shot_normals,
    shot_stream,  # re-exported: draws shot j's normals one at a time
)
from .resource import ResourceState, SqueezerSpec, build_telecloning_resource

# mode layout of the joint state before the sender's beam splitter
MODE_IN, MODE_A, MODE_B, MODE_C = 0, 1, 2, 3

# the sender's readout of x on u and p on v; her splitter outputs are (v, u)
READOUT = (QuadratureSelector(1, "x"), QuadratureSelector(0, "p"))

# the sender's balanced splitter as a channel on (in, A, B, C)
_SENDER_SPLITTER = symplectic_map(4, beam_splitter_50_50(), [MODE_IN, MODE_A])

# shots per Monte Carlo chunk: bounds the temporaries at any shot count;
# on a 2-core x86 host 2**13 ran the Philox kernel faster than 2**12 or
# 2**14..2**16 (its working set stays in cache)
_CHUNK_SHOTS = 1 << 13


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete description of one telecloning experiment."""

    spec_i: SqueezerSpec
    spec_ii: SqueezerSpec
    input_alpha: complex = 0j
    gains: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    eta_homodyne: float = 1.0
    eta_resource: tuple[float, float, float] = (1.0, 1.0, 1.0)
    coupler_t: float = 1.0
    shots: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_alpha", complex(self.input_alpha))
        if not cmath.isfinite(self.input_alpha):
            raise ValueError(f"input_alpha must be finite, got {self.input_alpha}")
        gains = tuple(float(g) for g in self.gains)
        if len(gains) != 4 or not all(math.isfinite(g) for g in gains):
            raise ValueError("gains must be four finite values (gx1, gp1, gx2, gp2)")
        object.__setattr__(self, "gains", gains)
        eta = tuple(float(e) for e in self.eta_resource)
        if len(eta) != 3 or not all(0.0 <= e <= 1.0 for e in eta):
            raise ValueError("eta_resource must be three transmissivities in [0, 1]")
        object.__setattr__(self, "eta_resource", eta)
        if not 0.0 < self.eta_homodyne <= 1.0:
            # eta = 0 leaves nothing to calibrate the gains against
            raise ValueError("eta_homodyne must lie in (0, 1]")
        if not 0.0 < self.coupler_t <= 1.0:
            raise ValueError("coupler_t must lie in (0, 1]")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")

    def build_resource(self) -> ResourceState:
        """The (A, B, C) resource of this experiment, with its losses."""
        return build_telecloning_resource(self.spec_i, self.spec_ii, self.eta_resource)


@dataclass(frozen=True)
class QuadratureMoments:
    """First and second moments of one clone, with optional standard errors."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    se_mean_x: float | None = None
    se_mean_p: float | None = None
    se_var_x: float | None = None
    se_var_p: float | None = None


@dataclass(frozen=True)
class CloneMoments:
    clone1: QuadratureMoments
    clone2: QuadratureMoments


@dataclass(frozen=True)
class ShotRecord:
    """One Monte Carlo trial: Bell outcomes and post-feedforward clone means."""

    x_u: float
    p_v: float
    x1: float
    p1: float
    x2: float
    p2: float


class ShotRecords(Sequence):
    """Read-only sequence of ``ShotRecord`` stored as six column arrays.

    ``columns[k]`` holds field k of ``ShotRecord`` for every shot. Records
    compare equal to another ``ShotRecords`` or to any sequence of
    ``ShotRecord`` with the same values.
    """

    __hash__ = None

    def __init__(self, columns: np.ndarray):
        self._columns = columns.view()  # (6, shots)
        self._columns.flags.writeable = False

    @property
    def columns(self) -> np.ndarray:
        return self._columns

    def __len__(self) -> int:
        return self._columns.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ShotRecords(self._columns[:, index])
        return ShotRecord(*self._columns[:, index].tolist())

    def __iter__(self):
        return itertools.starmap(ShotRecord, zip(*self._columns.tolist()))

    def __eq__(self, other) -> bool:
        if isinstance(other, ShotRecords):
            return bool(np.array_equal(self._columns, other._columns))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ShotRecords({len(self)} shots)"


def clone_variances(config: ProtocolConfig, v_x_i, v_p_i, v_x_ii, v_p_ii):
    """Clone variances ``(var_x1, var_p1, var_x2, var_p2)``.

    The direct mode expansion of ``run_analytic``, with the four squeezer
    variances (x and p of mode i, then of mode ii) given as scalars or as
    arrays of one shape; every other parameter comes from ``config``,
    whose own squeezer specs are not read. Only +, * and / act on the
    variances, so an entry has the same bits alone or inside an array.
    """
    sqrt2 = math.sqrt(2.0)
    eta_a, eta_b, eta_c = config.eta_resource
    t = config.coupler_t
    eta_hd = config.eta_homodyne

    def one_clone(g_x, g_p, eta_r, sign):
        w = math.sqrt(t) * math.sqrt(eta_r)  # weight of the delivered receiver mode
        # fresh vacuum admixed by the resource loss, the sender loss, the
        # coupler, and the inefficient detection (rescaled by the gain
        # calibration)
        def ancilla(g):
            return (t * (1.0 - eta_r) + (1.0 - t) + g * g * (1.0 - eta_a)
                    + 2.0 * g * g * (1.0 - eta_hd) / eta_hd) * VACUUM_VARIANCE

        c_x_i = w / 2.0 - g_x * math.sqrt(eta_a) / sqrt2
        c_x_ii = -w / 2.0 - g_x * math.sqrt(eta_a) / sqrt2
        c_p_i = w / 2.0 + g_p * math.sqrt(eta_a) / sqrt2
        c_p_ii = -w / 2.0 + g_p * math.sqrt(eta_a) / sqrt2
        c_iii = sign * w / sqrt2
        var_x = (g_x * g_x * VACUUM_VARIANCE + c_x_i**2 * v_x_i
                 + c_x_ii**2 * v_x_ii + c_iii**2 * VACUUM_VARIANCE + ancilla(g_x))
        var_p = (g_p * g_p * VACUUM_VARIANCE + c_p_i**2 * v_p_i
                 + c_p_ii**2 * v_p_ii + c_iii**2 * VACUUM_VARIANCE + ancilla(g_p))
        return var_x, var_p

    g_x1, g_p1, g_x2, g_p2 = config.gains
    try:
        return (*one_clone(g_x1, g_p1, eta_b, +1.0), *one_clone(g_x2, g_p2, eta_c, -1.0))
    except OverflowError as exc:  # Python's float ** raises where numpy gives inf
        raise FloatingPointError(
            "analytic clone variances overflow: a coefficient squared is out of range"
        ) from exc


def run_analytic(config: ProtocolConfig) -> CloneMoments:
    """Clone moments from the direct mode expansion."""
    var_x1, var_p1, var_x2, var_p2 = clone_variances(
        config, config.spec_i.antisqueezed_variance, config.spec_i.squeezed_variance,
        config.spec_ii.squeezed_variance, config.spec_ii.antisqueezed_variance)
    alpha = config.input_alpha
    g_x1, g_p1, g_x2, g_p2 = config.gains
    return CloneMoments(
        QuadratureMoments(g_x1 * alpha.real, g_p1 * alpha.imag,
                          float(var_x1), float(var_p1)),
        QuadratureMoments(g_x2 * alpha.real, g_p2 * alpha.imag,
                          float(var_x2), float(var_p2)),
    )


def circuit_states(config: ProtocolConfig, resource: ResourceState | None = None
                   ) -> dict[str, GaussianState]:
    """Named snapshots of the covariance pipeline, for audits and demos;
    ``resource`` is ``config.build_resource()``, built here when not given.

    The receiver couplers act on B and C only, so they commute with
    everything the sender does and come first; couplers then splitter, and
    that followed by her detection loss, are each one composed channel
    applied to the joint state.
    """
    if resource is None:
        resource = config.build_resource()
    joint = tensor(coherent([config.input_alpha]), resource.state)
    t, eta = config.coupler_t, config.eta_homodyne
    split = compose(loss_map(4, {MODE_B: t, MODE_C: t}), _SENDER_SPLITTER)
    detect = compose(split, loss_map(4, {0: eta, 1: eta}))
    return {
        "resource": resource.state,
        "joint": joint,
        "bell_split": apply_channel(joint, split),
        "detected": apply_channel(joint, detect),
    }


@dataclass(frozen=True)
class _MeasurementPlan:
    """Affine structure of measurement plus feedforward, fixed per config.

    For outcome vector m = (x_u, p_v) of ``READOUT``:

        clone means = base_mean + gain_map (m - mu_q) + ffwd m
        clone cov   = cond_cov + (gain_map + ffwd) sigma_q (gain_map + ffwd)^T
    """

    base_mean: np.ndarray   # (4,)  pre-measurement means of (xB, pB, xC, pC)
    mu_q: np.ndarray        # (2,)  outcome means
    sigma_q: np.ndarray     # (2,2) outcome covariance
    gain_map: np.ndarray    # (4,2) conditional-mean response to outcomes
    ffwd: np.ndarray        # (4,2) feedforward displacement map
    cond_cov: np.ndarray    # (4,4) outcome-independent conditional covariance


def _measurement_plan(config: ProtocolConfig,
                      resource: ResourceState | None = None) -> _MeasurementPlan:
    state = circuit_states(config, resource)["detected"]
    keep, gain_map, cond_cov = conditional(state, READOUT)
    q_idx = np.array([sel.index() for sel in READOUT])

    g_x1, g_p1, g_x2, g_p2 = config.gains
    ffwd = math.sqrt(2.0) / math.sqrt(config.eta_homodyne) * np.array(
        [[g_x1, 0.0], [0.0, g_p1], [g_x2, 0.0], [0.0, g_p2]])

    return _MeasurementPlan(
        base_mean=state.mean[keep],
        mu_q=state.mean[q_idx],
        sigma_q=state.cov[q_idx[:, None], q_idx],
        gain_map=gain_map,
        ffwd=ffwd,
        cond_cov=cond_cov,
    )


def _require_finite(what: str, *values) -> None:
    """Raise ``FloatingPointError`` unless every entry is finite: large
    gains or amplitudes can overflow where the config itself is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise FloatingPointError(f"{what} overflows: a value is not finite")


def clone_output_state(config: ProtocolConfig,
                       resource: ResourceState | None = None) -> GaussianState:
    """Two-mode Gaussian state of the clones after feedforward.

    This is the ensemble state averaged over measurement outcomes; for a
    fixed outcome only the mean differs. ``resource`` as in ``circuit_states``.
    """
    plan = _measurement_plan(config, resource)
    total = plan.gain_map + plan.ffwd
    out_mean = plan.base_mean + plan.ffwd @ plan.mu_q
    out_cov = plan.cond_cov + total @ plan.sigma_q @ total.T
    out_cov = 0.5 * (out_cov + out_cov.T)
    _require_finite("clone output", out_mean, out_cov)
    state = GaussianState(out_mean, out_cov)
    assert_physical(state, context="clone output")
    return state


def run_circuit_analytic(config: ProtocolConfig,
                         resource: ResourceState | None = None) -> CloneMoments:
    """Clone moments from the covariance-matrix pipeline; ``resource`` as
    in ``circuit_states``."""
    out = clone_output_state(config, resource)
    m, c = out.mean, out.cov
    return CloneMoments(
        QuadratureMoments(float(m[0]), float(m[1]), float(c[0, 0]), float(c[1, 1])),
        QuadratureMoments(float(m[2]), float(m[3]), float(c[2, 2]), float(c[3, 3])),
    )


def _simulate_shots(plan: _MeasurementPlan, seed: int, first_shot: int,
                    n_shots: int, cond_sqrt: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Shots first_shot .. first_shot + n_shots - 1 as columns.

    Each shot samples x_u, then p_v given x_u, then displaces. Returns the
    (6, n_shots) ``ShotRecord`` fields and, with ``cond_sqrt``, the
    (4, n_shots) raw clone quadratures driven by draws 2-5 of each shot.
    Every output is an elementwise expression of the shot's own draws
    (no matrix products), so a shot's values do not depend on the batch.
    """
    z = shot_normals(seed, first_shot, n_shots, 2 if cond_sqrt is None else 6)
    mu_x, mu_p = plan.mu_q
    v_x = plan.sigma_q[0, 0]
    slope = plan.sigma_q[1, 0] / v_x
    v_p_given = plan.sigma_q[1, 1] - plan.sigma_q[1, 0] ** 2 / v_x
    x_u = mu_x + math.sqrt(v_x) * z[:, 0]
    p_v = (mu_p + slope * (x_u - mu_x)) + math.sqrt(max(v_p_given, 0.0)) * z[:, 1]

    # clone means = base_mean + gain_map (m - mu_q) + ffwd m
    total = plan.gain_map + plan.ffwd
    offset = plan.base_mean - plan.gain_map @ plan.mu_q
    records = np.empty((6, n_shots))
    records[0], records[1] = x_u, p_v
    for k in range(4):
        records[2 + k] = offset[k] + total[k, 0] * x_u + total[k, 1] * p_v
    if cond_sqrt is None:
        return records, None
    draws = np.empty((4, n_shots))
    for k in range(4):
        draws[k] = records[2 + k] + sum(cond_sqrt[k, i] * z[:, 2 + i]
                                        for i in range(4))
    return records, draws


def _simulate_shot(plan: _MeasurementPlan, seed: int, shot_index: int,
                   cond_sqrt: np.ndarray | None = None
                   ) -> tuple[ShotRecord, np.ndarray | None]:
    """One shot, computed exactly as ``run_monte_carlo`` computes it.

    Draw k of shot j comes from stream (seed, j), so results do not
    depend on the order shots are executed in.
    """
    records, draws = _simulate_shots(plan, seed, shot_index, 1, cond_sqrt)
    return ShotRecord(*records[:, 0].tolist()), None if draws is None else draws[:, 0]


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def run_monte_carlo(config: ProtocolConfig, sampled: bool = False,
                    resource: ResourceState | None = None
                    ) -> tuple[CloneMoments, ShotRecords]:
    """Monte Carlo simulation of measurement plus feedforward.

    Returns estimated clone moments with standard errors and the per-shot
    records. With ``sampled=False`` the variance estimate adds the exact
    conditional covariance to the spread of the conditional means; with
    ``sampled=True`` one output quadrature vector is drawn per shot and
    the moments come from those raw samples. ``resource`` as in
    ``circuit_states``.
    """
    plan = _measurement_plan(config, resource)
    assert_physical(GaussianState(plan.base_mean, plan.cond_cov),
                    context="conditioned receiver modes")
    cond_sqrt = _psd_sqrt(plan.cond_cov) if sampled else None

    n = config.shots
    records = np.empty((6, n))
    draws = np.empty((4, n)) if sampled else None
    for first in range(0, n, _CHUNK_SHOTS):
        stop = min(first + _CHUNK_SHOTS, n)
        chunk, drawn = _simulate_shots(plan, config.seed, first, stop - first,
                                       cond_sqrt)
        records[:, first:stop] = chunk
        if sampled:
            draws[:, first:stop] = drawn

    # raw clone quadratures when sampled, else the conditional means
    samples = draws if sampled else records[2:]
    mean_hat = samples.mean(axis=1).tolist()
    cond_var = np.diag(plan.cond_cov)
    if n > 1:
        spread = samples.var(axis=1, ddof=1)
        var_hat = (spread if sampled else spread + cond_var).tolist()
        se_mean = np.sqrt(spread / n).tolist()
        se_var = (spread * math.sqrt(2.0 / (n - 1))).tolist()
    else:  # one shot has no spread
        var_hat, se_mean, se_var = cond_var.tolist(), [None] * 4, [None] * 4
    _require_finite("Monte Carlo clone moments", mean_hat, var_hat)
    if min(var_hat) <= 0.0:  # equal samples: rounding at large means ate the spread
        raise FloatingPointError(f"Monte Carlo variance estimate {min(var_hat)} is not positive")
    fields = (mean_hat, var_hat, se_mean, se_var)

    def quad(k):
        return QuadratureMoments(*(f[j] for f in fields for j in (2 * k, 2 * k + 1)))

    return CloneMoments(quad(0), quad(1)), ShotRecords(records)


def alice_trace_levels(config: ProtocolConfig) -> tuple[float, float]:
    """Sender-side diagnostics of the measured p port.

    Returns ``(var_p_v, amplitude_reduction_db)`` where ``var_p_v`` is the
    detected variance of the p outcome (displacement independent, so the
    same for every input amplitude, vacuum included) and the reduction
    is the mean-power loss of the measured state relative to the input
    imposed by the sender's balanced splitter: exactly 10 log10(2) dB.
    """
    _, var_p_v = marginal(circuit_states(config)["detected"], READOUT[1])
    return var_p_v, 10.0 * math.log10(2.0)
