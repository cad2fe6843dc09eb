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
    variances; ``clone_curve`` is the sweep's use of it, clone 1's
    variances and fidelity with both squeezers at each dB pair.

``run_circuit_analytic``
    Compiles the network into Gaussian channels (X, Y) from the generic
    splitter operators of ``gaussian``, built once at import, and the
    ``gaussian.loss_diagonals`` of the config's losses, which scale their
    rows and columns (never from ``clone_variances``); the channels act on
    plain (mean, cov) arrays: the resource circuit with its losses once to
    the squeezer inputs, and the couplers, the sender's splitter and her
    detection loss once to the input and the resource. One step of
    ``homodyne.conditional`` conditions the detected covariance on
    ``READOUT``, on the readout, cross and kept blocks sliced once by the
    import-time indices ``_READOUT_INDEX`` and ``_KEEP``; only the resource
    is a ``GaussianState``. The feedforward folds in exactly: an
    outcome-independent covariance and the outcome average as mean.

``run_monte_carlo``
    Samples the two measurement outcomes of every shot from the
    counter-based draws that shot owns under the seed, applies the same
    displacements, and estimates moments, in fixed-size chunks whose every
    output is an elementwise expression of the shot's own draws. The clone
    variance adds the spread of the conditional means to the constant
    conditional covariance (law of total variance); ``sampled=True`` draws
    one quadrature value per clone per shot instead. Each chunk is reduced
    as it is drawn and handed to an optional ``sink``, so a run holds the
    same memory at any shot count.

Both circuit routes read ``ProtocolConfig.plan``, one plan per config,
checked once as it is built: a finite resource, a finite plan, positive
and finite conditioned receiver variances, then a finite clone output, so
``run`` and ``sample`` accept the same configs and name the same stage
when they fail. The states are physical by construction: the config
checks each squeezer's uncertainty product and every transmissivity, and
every element keeps the bona fide condition (Weedbrook et al., RMP 84, 621
(2012)), so no route solves an eigenproblem to check them; the tests hold
them to ``gaussian.assert_physical``.

Imperfections: per-mode resource transmissivities; homodyne efficiency
as a loss channel on the measured ports, with the configured gains
defined downstream of that loss (the raw displacement coefficient is
rescaled by 1/sqrt(eta), the way unit gain is calibrated in practice);
and an optional coupler transmissivity on each receiver mode ahead of
the displacement.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    Channel,
    GaussianState,
    _assert_variances,
    _quadrature_indices,
    apply_channel,
    beam_splitter_50_50,
    channel_moments,
    loss_diagonals,
    symplectic_map,
    VACUUM_VARIANCE,
)
from .homodyne import (
    MAX_SHOTS,
    RNG_CONTRACT,
    QuadratureSelector,
    conditional,
    shot_normals,
    shot_stream,  # re-exported: the benchmark's tracer and tests bind protocol.shot_stream
)
from .metrics import _fidelity
from .resource import SqueezerSpec, build_telecloning_resource, squeezer_variances

# mode layout of the joint state before the sender's beam splitter
MODE_IN, MODE_A, MODE_B, MODE_C = 0, 1, 2, 3

# the sender's readout of x on u and p on v; her splitter outputs are (v, u)
READOUT = (QuadratureSelector(1, "x"), QuadratureSelector(0, "p"))
# their quadrature indices in the detected (in, A, B, C) moments, and
# those of the receiver modes B and C, which the readout keeps; read-only
_READOUT_INDEX = np.array([sel.index() for sel in READOUT])
_KEEP = _quadrature_indices(4, (MODE_B, MODE_C))
_READOUT_INDEX.flags.writeable = _KEEP.flags.writeable = False

# the X of the sender's balanced splitter on (in, A, B, C), read-only
_SENDER_SPLITTER = symplectic_map(4, beam_splitter_50_50(), [MODE_IN, MODE_A])[0]
_SENDER_SPLITTER.flags.writeable = False

# shots per Monte Carlo chunk: bounds the temporaries at any shot count;
# 1e5-shot runs on a 2-core x86 host timed flat from 2**12 to 2**14 shots
# per chunk and slower at 2**16, and 2**13 sits in that flat range
_CHUNK_SHOTS = 1 << 13
# glibc raises its mmap threshold to the size of a freed mmapped block, and
# its trim threshold to twice that, for blocks up to 32 MiB (mallopt(3), the
# dynamic mmap threshold). Import allocates and frees one untouched block of
# this size, once per process, so fit grids, sweep blocks and Monte Carlo
# chunks are kept on the heap rather than mmapped or trimmed after each call
# and faulted back in, whichever module imported first. The cost: with the
# trim threshold at about 64 MiB, a process keeps up to that much freed heap
# instead of returning it.
# Through libc the block is never resident, and tracemalloc does not count
# it. 64 KiB below 32 MiB leaves room for the chunk header.
_RELEASED_BLOCK_MAX = (32 << 20) - (64 << 10)
try:
    _LIBC = ctypes.CDLL(None)
    _LIBC.malloc.restype = ctypes.c_void_p
    _LIBC.malloc.argtypes = (ctypes.c_size_t,)
    _LIBC.free.argtypes = (ctypes.c_void_p,)
    _LIBC.free(_LIBC.malloc(_RELEASED_BLOCK_MAX))
except (OSError, AttributeError, TypeError):  # no C library to call by name
    _LIBC = None
# the largest rounding error of a reported Monte Carlo variance, relative to
# that variance, that the moments accept: rounding moves each sample by at
# most half its spacing s, so a spread of variance v by at most about
# s * (sqrt(v) + s); 1e-3 is below the 0.45% sampling error of 1e5 shots
_SAMPLE_RESOLUTION = 1e-3


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
        for name in ("shots", "seed"):  # a float seed would key Philox by its floor
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.shots > MAX_SHOTS:
            raise ValueError(f"shots must be at most 2**64 = {MAX_SHOTS}, "
                             f"the shot indices of RNG contract {RNG_CONTRACT}")

    @functools.cached_property
    def resource(self) -> GaussianState:
        """The shared (A, B, C) resource with its losses, built on first use
        and kept; not a field, so ``==``, ``hash`` and ``replace`` ignore it."""
        return build_telecloning_resource(self.spec_i, self.spec_ii, self.eta_resource)

    @functools.cached_property
    def plan(self) -> _MeasurementPlan:
        """The checked, read-only ``_measurement_plan``, kept like ``resource``."""
        return _measurement_plan(self)


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


def clone_curve(config: ProtocolConfig, squeezing_db, antisqueezing_db):
    """Clone 1's ``(var_x, var_p, fidelity)`` with both squeezers at each
    (squeezing_db, antisqueezing_db) pair, as arrays of the levels' shape;
    every other parameter comes from ``config``. ``squeezer_variances``
    checks the levels, and the variances and the clone mean are checked
    finite before the fidelity, so every value returned is finite."""
    v_sq, v_anti = squeezer_variances(squeezing_db, antisqueezing_db)
    # a gain squared times a variance can overflow to inf, and inf * 0 is
    # NaN: numeric errors, named below as ``run_analytic`` names them, in
    # place of numpy's warning or, under a caller's errstate, its raw text
    with np.errstate(over="ignore", invalid="ignore"):
        var_x, var_p, _, _ = clone_variances(config, v_anti, v_sq, v_sq, v_anti)
    alpha = config.input_alpha
    g_x, g_p = config.gains[:2]
    dx, dp = g_x * alpha.real - alpha.real, g_p * alpha.imag - alpha.imag
    _require_finite("analytic clone variances", var_x, var_p)
    _require_finite("clone mean", [dx, dp])
    try:
        return var_x, var_p, _fidelity(var_x, 0.0, var_p, dx, dp)
    except FloatingPointError:  # numpy's text, under a caller's errstate(over="raise")
        raise FloatingPointError(
            "clone fidelity overflows: an intermediate value is out of the float range") from None


def run_analytic(config: ProtocolConfig) -> CloneMoments:
    """Clone moments from the direct mode expansion."""
    var_x1, var_p1, var_x2, var_p2 = clone_variances(
        config, config.spec_i.antisqueezed_variance, config.spec_i.squeezed_variance,
        config.spec_ii.squeezed_variance, config.spec_ii.antisqueezed_variance)
    _require_finite("analytic clone variances", [var_x1, var_p1, var_x2, var_p2])
    alpha = config.input_alpha
    g_x1, g_p1, g_x2, g_p2 = config.gains
    return CloneMoments(
        QuadratureMoments(g_x1 * alpha.real, g_p1 * alpha.imag,
                          float(var_x1), float(var_p1)),
        QuadratureMoments(g_x2 * alpha.real, g_p2 * alpha.imag,
                          float(var_x2), float(var_p2)),
    )


def _sender_channels(coupler_t: float, eta_homodyne: float) -> tuple[Channel, Channel]:
    """``(split, detect)`` on (in, A, B, C). The couplers act on B and C
    only, so they commute with all the sender does and come first:
    ``split`` is the sender's splitter with its B and C columns scaled by
    the couplers' sqrt(t), and ``detect`` that with its in and A rows
    scaled by sqrt(eta_homodyne), her detection loss; the bits of composing
    the generic ``loss_map`` channels with the splitter."""
    coupler, coupler_noise = loss_diagonals((1.0, 1.0, coupler_t, coupler_t))
    detection, detection_noise = loss_diagonals((eta_homodyne, eta_homodyne, 1.0, 1.0))
    split = (_SENDER_SPLITTER * coupler, np.diag(coupler_noise))
    # each added noise is 0 where the other is not, so the sum is exact
    detect = (detection[:, None] * split[0], np.diag(coupler_noise + detection_noise))
    return split, detect


def _circuit_moments(config: ProtocolConfig) -> tuple:
    """``(joint, split, detected)`` on (in, A, B, C), the states as (mean,
    cov) arrays: the only route to the detected state."""
    resource, alpha = config.resource, config.input_alpha
    mean = np.concatenate(((alpha.real, alpha.imag), resource.mean))
    cov = np.zeros((8, 8))
    cov[0, 0] = cov[1, 1] = VACUUM_VARIANCE
    cov[2:, 2:] = resource.cov
    split, detect = _sender_channels(config.coupler_t, config.eta_homodyne)
    return (mean, cov), split, channel_moments(detect, mean, cov)


def circuit_states(config: ProtocolConfig) -> dict[str, GaussianState]:
    """Named snapshots of the covariance pipeline, for audits and demos;
    the only place that applies ``split`` alone (``bell_split``)."""
    (mean, cov), split, detected = _circuit_moments(config)
    joint = GaussianState(mean, cov)
    return {"resource": config.resource, "joint": joint,
            "bell_split": apply_channel(joint, split), "detected": GaussianState(*detected)}


@dataclass(frozen=True)
class _MeasurementPlan:
    """Affine structure of measurement plus feedforward, fixed per config.

    For outcome vector m = (x_u, p_v) of ``READOUT``, conditional gain G,
    feedforward map F and pre-measurement receiver means mu_K:

        clone means = mu_K + G (m - mu_q) + F m = offset + total m
        clone cov   = cond_cov + spread

    Averaged over the outcomes, the clone output is ``out_mean`` =
    mu_K + F mu_q and ``out_cov`` = cond_cov + spread, symmetrised.
    """

    mu_q: np.ndarray        # (2,)  outcome means
    sigma_q: np.ndarray     # (2,2) outcome covariance
    cond_cov: np.ndarray    # (4,4) outcome-independent conditional covariance
    total: np.ndarray       # (4,2) G + F
    offset: np.ndarray      # (4,)  mu_K - G mu_q
    spread: np.ndarray      # (4,4) total sigma_q total^T, the clone means' covariance
    out_mean: np.ndarray    # (4,)  clone output means of (xB, pB, xC, pC)
    out_cov: np.ndarray     # (4,4) clone output covariance


def _measurement_plan(config: ProtocolConfig) -> _MeasurementPlan:
    """``config.plan``, checked in turn: a finite resource, a finite plan,
    the conditioned receiver variances (``gaussian._assert_variances``: a
    variance at or below 0 within the rounding bound of the kept block it
    comes from is lost precision, one below it unphysical), then a finite
    clone output. The conditioned modes are bona fide by construction, so
    no eigenproblem is solved: only their lost precision can fail here."""
    mean, cov = _circuit_moments(config)[2]
    q_idx, keep = _READOUT_INDEX, _KEEP
    sigma_q, kept = cov[q_idx[:, None], q_idx], cov[keep[:, None], keep]
    gain, cond_cov = conditional(sigma_q, cov[keep[:, None], q_idx], kept)

    g_x1, g_p1, g_x2, g_p2 = config.gains
    ffwd = math.sqrt(2.0) / math.sqrt(config.eta_homodyne) * np.array(
        [[g_x1, 0.0], [0.0, g_p1], [g_x2, 0.0], [0.0, g_p2]])

    base_mean, mu_q = mean[keep], mean[q_idx]
    total = gain + ffwd
    spread = total @ sigma_q @ total.T
    _require_finite("measurement plan", total, spread)
    _assert_variances(cond_cov, kept, "conditioned receiver modes")
    out_mean = base_mean + ffwd @ mu_q
    out_cov = cond_cov + spread
    out_cov = 0.5 * (out_cov + out_cov.T)
    _require_finite("clone output", out_mean, out_cov)
    plan = _MeasurementPlan(
        mu_q=mu_q, sigma_q=sigma_q, cond_cov=cond_cov, total=total,
        offset=base_mean - gain @ mu_q, spread=spread, out_mean=out_mean, out_cov=out_cov)
    for array in vars(plan).values():
        array.flags.writeable = False
    return plan


def _require_finite(what: str, *values) -> None:
    """Raise ``FloatingPointError`` unless every entry is finite: large
    gains or amplitudes can overflow where the config itself is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise FloatingPointError(f"{what} overflows: a value is not finite")


def clone_output_state(config: ProtocolConfig) -> GaussianState:
    """Two-mode Gaussian state of the clones after feedforward, averaged
    over the measurement outcomes (for a fixed outcome only the mean
    differs): the plan's checked ``out_mean`` and ``out_cov``. Its V adds
    spread = total sigma_q total^T >= 0 to the conditioned receiver modes,
    so by Weyl it is physical wherever they are, and they are by
    construction; the tests hold it to ``assert_physical``, no route does."""
    return GaussianState(config.plan.out_mean, config.plan.out_cov)


def run_circuit_analytic(config: ProtocolConfig) -> CloneMoments:
    """Clone moments from the covariance-matrix pipeline: the means and
    variances of ``clone_output_state``, read from ``config.plan``."""
    plan = config.plan
    x1, p1, x2, p2 = plan.out_mean.tolist()
    v_x1, v_p1, v_x2, v_p2 = plan.out_cov.diagonal().tolist()
    return CloneMoments(QuadratureMoments(x1, p1, v_x1, v_p1),
                        QuadratureMoments(x2, p2, v_x2, v_p2))


def _simulate_shots(plan: _MeasurementPlan, seed: int, first_shot: int,
                    n_shots: int, cond_sqrt: np.ndarray | None = None,
                    records: np.ndarray | None = None,
                    draws: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Shots first_shot .. first_shot + n_shots - 1 as columns.

    Each shot samples x_u and p_v, then displaces. The outcomes are
    independent: every element acts as kron(M, I2) on inputs without x-p
    covariance, so ``sigma_q`` is diagonal and ``total`` maps x_u only to
    the x means and p_v only to the p means (test_network_keeps_x_and_p_apart).
    Returns the (6, n_shots) records of ``run_monte_carlo`` and, with
    ``cond_sqrt``, the (4, n_shots) raw clone quadratures driven by draws
    2-5 of each shot, written into ``records`` and ``draws`` when given.
    Every output is an elementwise expression of the shot's own draws
    (no matrix products), so a shot's values do not depend on the batch.
    """
    z = shot_normals(seed, first_shot, n_shots, 2 if cond_sqrt is None else 6)
    if records is None:
        records = np.empty((6, n_shots))
    # x_u = mu_x + sqrt(v_x) z0 and p_v = mu_p + sqrt(v_p) z1
    for k in range(2):
        np.multiply(z[:, k], math.sqrt(plan.sigma_q[k, k]), out=records[k])
        records[k] += plan.mu_q[k]
    # clone means: x rows offset + total x_u, p rows offset + total p_v
    for k in range(4):
        np.multiply(records[k % 2], plan.total[k, k % 2], out=records[2 + k])
        records[2 + k] += plan.offset[k]
    if cond_sqrt is None:
        return records, None
    if draws is None:
        draws = np.empty((4, n_shots))
    tmp = np.empty(n_shots)
    for k in range(4):
        # the clone mean plus sum_i cond_sqrt[k, i] z_(2+i), summed in order
        row = draws[k]
        np.multiply(z[:, 2], cond_sqrt[k, 0], out=row)
        for i in range(1, 4):
            row += np.multiply(z[:, 2 + i], cond_sqrt[k, i], out=tmp)
        row += records[2 + k]
    return records, draws


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def run_monte_carlo(config: ProtocolConfig, sampled: bool = False,
                    sink: Callable[[np.ndarray, int], None] | None = None
                    ) -> CloneMoments:
    """Monte Carlo simulation of measurement plus feedforward.

    Returns estimated clone moments with standard errors. With
    ``sampled=False`` the variance estimate adds the exact conditional
    covariance to the spread of the conditional means; with
    ``sampled=True`` one output quadrature vector is drawn per shot and
    the moments come from those raw samples. Raises ``FloatingPointError``
    when a moment overflows or when the samples' float spacing is too
    coarse for the shot-to-shot spread they should show.

    No array grows with the shot count: each chunk's records, rows x_u,
    p_v (the Bell outcomes) and the clone means x1, p1, x2, p2, are drawn
    into one reused (6, min(shots, _CHUNK_SHOTS)) float64 buffer. A
    ``sink`` gets each as ``sink(records, first)``, a read-only view,
    ``first`` the index of its first shot, before the chunk is reduced. It
    is first called once ``config.plan`` is checked; the moments are
    checked only after its last call, so a sink that writes the records
    out must discard them when this raises.

    Each chunk is reduced as it is drawn, in one chunk-sized buffer: a
    two-pass mean and sum of squared deviations (M2) per clone quadrature,
    and the peak |sample|. A one-chunk run keeps numpy's ``mean`` and
    ``var`` bits. Longer runs reduce every later chunk as deviations from
    the first chunk's mean, so a large common mean leaves no rounding in
    them, and merge each into the shots before it (Chan, Golub & LeVeque
    1979): with delta the difference of the two means, the mean moves by
    delta * m / n and M2 gains the chunk's M2 plus delta**2 * (n - m) * m / n,
    for a chunk of m shots ending at shot n.
    """
    plan = config.plan
    cond_sqrt = _psd_sqrt(plan.cond_cov) if sampled else None

    n = config.shots
    size = min(n, _CHUNK_SHOTS)
    records = np.empty((6, size))
    # one chunk's raw clone quadratures when sampled; in both modes its
    # shifted samples and squared deviations then overwrite them in turn
    buffer = np.empty((4, size))
    for first in range(0, n, _CHUNK_SHOTS):
        stop = min(first + _CHUNK_SHOTS, n)
        m = stop - first
        chunk, rows = buffer[:, :m], records[:, :m]
        _simulate_shots(plan, config.seed, first, m, cond_sqrt, rows,
                        chunk if sampled else None)
        if sink is not None:
            view = rows.view()
            view.flags.writeable = False
            sink(view, first)
        # raw clone quadratures when sampled, else the conditional means
        samples = chunk if sampled else rows[2:]
        chunk_peak = np.maximum(samples.max(axis=1), -samples.min(axis=1))
        if first:  # later chunks are reduced as deviations from the shift
            samples = np.subtract(samples, shift[:, None], out=chunk)
        # two passes, as numpy's mean and var
        chunk_mean = samples.sum(axis=1) / m
        dev = np.subtract(samples, chunk_mean[:, None], out=chunk)
        if not first:
            # the first chunk's mean is the shift, and its rounding error the
            # first offset; a one-chunk run keeps the two-pass bits, since
            # its offset and M2 start at -0.0, which adds exactly nothing
            shift, peak, m2 = chunk_mean, chunk_peak, np.full(4, -0.0)
            offset = dev.sum(axis=1) / m if n > m else np.full(4, -0.0)
        dev *= dev
        m2 += dev.sum(axis=1)
        if first:
            # Chan, Golub & LeVeque (1979): merge this chunk's m shots into
            # the `first` shots before it, whose mean is shift + offset
            delta = chunk_mean - offset
            offset += delta * (m / stop)
            m2 += delta * delta * (first * m / stop)
            np.maximum(peak, chunk_peak, out=peak)

    mean_hat = (shift + offset).tolist()
    cond_var = np.diag(plan.cond_cov)
    if n > 1:
        spread = m2 / (n - 1)
        var_hat = (spread if sampled else spread + cond_var).tolist()
        se_mean = np.sqrt(spread / n).tolist()
        se_var = (spread * math.sqrt(2.0 / (n - 1))).tolist()
        # samples spaced too coarsely for the spread the shots should show
        # (between-shot variance, plus the conditional one in raw draws),
        # measured against the variance reported (plus the exact conditional
        # one in plain mode): rounding at large means ate some or all of it
        varies = np.diag(plan.spread) + (cond_var if sampled else 0.0)
        reported = varies if sampled else varies + cond_var
        coarse = np.spacing(peak)
        if np.any((varies > 0.0) & (coarse * (np.sqrt(varies) + coarse)
                                    > _SAMPLE_RESOLUTION * reported)):
            raise FloatingPointError("Monte Carlo samples are too coarse for their spread: "
                                     "rounding at large means erased it")
    else:  # one shot has no spread
        var_hat, se_mean, se_var = cond_var.tolist(), [None] * 4, [None] * 4
    _require_finite("Monte Carlo clone moments", mean_hat, var_hat)
    fields = (mean_hat, var_hat, se_mean, se_var)

    def quad(k):
        return QuadratureMoments(*(f[j] for f in fields for j in (2 * k, 2 * k + 1)))

    return CloneMoments(quad(0), quad(1))


def alice_trace_levels(config: ProtocolConfig) -> tuple[float, float]:
    """Sender-side diagnostics of the measured p port.

    Returns ``(var_p_v, amplitude_reduction_db)`` where ``var_p_v`` is the
    detected variance of the p outcome (displacement independent, so the
    same for every input amplitude, vacuum included) and the reduction
    is the mean-power loss of the measured state relative to the input
    imposed by the sender's balanced splitter: exactly 10 log10(2) dB.
    """
    return float(config.plan.sigma_q[1, 1]), 10.0 * math.log10(2.0)
