"""Pump-power model of below-threshold parametric squeezing.

With pump amplitude x = sqrt(P / P_threshold) and analysis frequency
omega in units of the cavity half width, the detected quadrature spectra
normalized to vacuum are

    V_minus = 1 - eta_det * 4x / ((1 + x)^2 + omega^2)
    V_plus  = 1 + eta_det * 4x / ((1 - x)^2 + omega^2)

The product V_minus * V_plus is exactly 1 at eta_det = 1 and above 1
otherwise, so the emitted squeezer spec is always physical. This is a
phenomenological calibration model: pump sweeps built on it reproduce
curve shapes and bounds, not any particular measured data points.

The model is written once, as an elementwise expression:
``squeezing_spectra`` evaluates it at one pump, ``pump_spectra`` over an
array of pumps, and ``fidelity_vs_pump`` and ``fit_params`` run each of
their grids as one array call.

``fit_params`` solves the bounded least-squares problem with one
Levenberg–Marquardt loop (D. W. Marquardt, SIAM J. Appl. Math. 11, 431
(1963)) on the closed-form Jacobian ``_spectra_jacobian``, without
importing ``scipy.optimize``; the tests keep scipy's ``least_squares`` as
the oracle for the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .metrics import fidelity_unit_gain
from .protocol import ProtocolConfig, clone_variances
from .resource import SqueezerSpec, squeezer_variances


@dataclass(frozen=True)
class OPOParams:
    """Threshold pump power (mW), detection efficiency, analysis frequency."""

    p_threshold_mw: float
    eta_det: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.p_threshold_mw) and self.p_threshold_mw > 0.0):
            raise ValueError("threshold pump power must be positive and finite")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError("detection efficiency must lie in [0, 1]")
        if not (math.isfinite(self.omega * self.omega) and self.omega >= 0.0):
            raise ValueError("analysis frequency must be >= 0 with a finite square "
                             f"(the model reads omega**2), got {self.omega}")


def _spectra(x, eta_det, omega2):
    """(squeezing_db, antisqueezing_db) at pump amplitude x, elementwise.

    Squares are written as products: a scalar ``**2`` calls libm ``pow``,
    an array ``**2`` multiplies, and the two can differ in the last bit.
    """
    # cancellation-free forms: near threshold 1 - 4x/((1+x)^2) loses all
    # precision, but (1+x)^2 - 4 eta x = (1-x)^2 + 4x(1-eta) is a sum of
    # non-negative terms, so the emitted dB pair keeps v_sq*v_anti >= 1/16
    # to machine precision
    down, up = 1.0 - x, 1.0 + x
    low = down * down + omega2
    high = up * up + omega2
    v_minus = (low + 4.0 * x * (1.0 - eta_det)) / high
    v_plus = (low + 4.0 * x * eta_det) / low
    # + 0.0 turns the -0.0 of a zero pump into 0.0
    return -10.0 * np.log10(v_minus) + 0.0, 10.0 * np.log10(v_plus)


_DB_PER_NEPER = 10.0 / math.log(10.0)


def _spectra_jacobian(x, eta_det, omega2):
    """Derivatives of ``_spectra`` with the same terms, elementwise:
    (d squeezing_db/dx, d antisqueezing_db/dx, d squeezing_db/d eta_det,
    d antisqueezing_db/d eta_det)."""
    down, up = 1.0 - x, 1.0 + x
    low = down * down + omega2
    high = up * up + omega2
    minus = low + 4.0 * x * (1.0 - eta_det)  # numerator of v_minus
    plus = low + 4.0 * x * eta_det  # numerator of v_plus
    return (_DB_PER_NEPER * ((2.0 * down - 4.0 * (1.0 - eta_det)) / minus + 2.0 * up / high),
            _DB_PER_NEPER * ((4.0 * eta_det - 2.0 * down) / plus + 2.0 * down / low),
            _DB_PER_NEPER * 4.0 * x / minus,
            _DB_PER_NEPER * 4.0 * x / plus)


def pump_spectra(params: OPOParams, p_pump_mw):
    """Squeezing and antisqueezing in dB at a pump power or array of them.

    Returns ``(squeezing_db, antisqueezing_db)`` of the pump's shape.
    Every pump must lie in [0, threshold); ``squeezer_variances`` applies
    the ``SqueezerSpec`` checks to the levels. Squeezing is clamped at 0 dB,
    and is 0 dB at eta_det = 0, where the model's 0 dB rounds either way.
    """
    pump = np.asarray(p_pump_mw, dtype=float)
    outside = ~((0.0 <= pump) & (pump < params.p_threshold_mw))
    if outside.any():
        raise ValueError(
            f"pump power must lie in [0, threshold); got "
            f"{pump.flat[np.argmax(outside)]} mW with threshold "
            f"{params.p_threshold_mw} mW"
        )
    squeezing_db, antisqueezing_db = _spectra(
        np.sqrt(pump / params.p_threshold_mw), params.eta_det, params.omega**2)
    if params.eta_det == 0.0:
        squeezing_db = np.zeros_like(squeezing_db)
    return np.maximum(squeezing_db, 0.0), antisqueezing_db


def squeezing_spectra(params: OPOParams, p_pump_mw: float) -> SqueezerSpec:
    """Squeezing and antisqueezing of one squeezer at the given pump power."""
    squeezing_db, antisqueezing_db = pump_spectra(params, p_pump_mw)
    return SqueezerSpec(float(squeezing_db), float(antisqueezing_db))


def fidelity_vs_pump(params: OPOParams, pump_grid_mw: Sequence[float]) -> np.ndarray:
    """Expected unit-gain clone fidelity over a pump-power grid.

    Both squeezers are assumed identical. Returns an array of rows
    (p_pump_mw, fidelity).
    """
    pump = np.asarray(pump_grid_mw, dtype=float).reshape(-1)
    v_sq, v_anti = squeezer_variances(*pump_spectra(params, pump))
    vacuum = SqueezerSpec(0.0, 0.0)  # clone_variances reads no spec
    var_x, var_p, _, _ = clone_variances(ProtocolConfig(vacuum, vacuum),
                                         v_anti, v_sq, v_sq, v_anti)
    return np.column_stack([pump, fidelity_unit_gain(var_x, var_p)])


@dataclass(frozen=True)
class FitResult:
    params: OPOParams
    sum_squared_residual: float
    rms_residual_db: float
    n_points: int


# bounds of the fit in (p_threshold / max pump, eta_det)
_LOWER = np.array([1.0001, 1e-6])
_UPPER = np.array([100.0, 1.0])


def fit_params(data: Sequence[tuple[float, float, float]],
               omega: float = 0.0) -> FitResult:
    """Least-squares (p_threshold, eta_det) from measured noise levels.

    ``data`` rows are (p_pump_mw, squeezing_db, antisqueezing_db). A
    coarse grid search, one array expression over (p_threshold, eta_det,
    point), seeds a bounded Levenberg–Marquardt solve of the 2n dB
    residuals at the fixed analysis frequency, in t = p_threshold / max
    pump within [1.0001, 100] and eta_det within [1e-6, 1]. A parameter
    at a bound that the gradient pushes outward takes no step, and a step
    across a bound is clipped to it. The loop stops when a step no longer
    moves the parameters, or after 200 trial steps.

    Raises ``FloatingPointError`` when the sum of squared residuals at
    the result is not finite, as with dB levels beyond about 1e154.
    """
    rows = [(float(p), float(s), float(a)) for p, s, a in data]
    if len(rows) < 3:
        raise ValueError("need at least three data points")
    for k, (p, s_db, a_db) in enumerate(rows):
        if not (math.isfinite(p) and math.isfinite(s_db) and math.isfinite(a_db)):
            raise ValueError(f"data row {k} {(p, s_db, a_db)} is not finite")
        if p < 0.0:
            raise ValueError(f"data row {k} has a negative pump power {p} mW")
    pumps, s_meas, a_meas = np.array(rows).T
    if len(np.unique(pumps)) != len(pumps):
        raise ValueError("pump values must be distinct")
    p_max = float(pumps.max())
    if p_max <= 0.0:
        raise ValueError("need at least one positive pump power")
    params = OPOParams(p_max, 1.0, omega)  # rejects a bad omega up front
    omega2 = params.omega**2
    # in the ratio the scale of the pumps drops out, down to subnormal ones
    ratio = pumps / p_max
    measured = np.concatenate([s_meas, a_meas])

    def residuals(t, eta):
        """The 2n dB residuals on the last axis; t and eta broadcast."""
        return np.concatenate(_spectra(np.sqrt(ratio / t), eta, omega2), axis=-1) - measured

    # overflow in the residuals shows as a non-finite result, checked below;
    # the 2x2 solve is written out, so a singular system (a flat model) or
    # a non-finite gradient ends the loop with a NaN step, not an exception
    with np.errstate(all="ignore"):
        t_grid = np.geomspace(1.02, 50.0, 60)
        eta_grid = np.linspace(0.05, 1.0, 40)
        scores = (residuals(t_grid[:, None, None], eta_grid[None, :, None]) ** 2).sum(axis=-1)
        # argmin keeps the first of equal scores in t-major order
        best_t, best_eta = np.unravel_index(np.argmin(scores), scores.shape)
        theta = np.array([t_grid[best_t], eta_grid[best_eta]])
        r = residuals(*theta)
        rss = r @ r
        damping, moved = 1e-3, True
        for _ in range(200):
            if moved:
                x = np.sqrt(ratio / theta[0])
                ds_dx, da_dx, ds_deta, da_deta = _spectra_jacobian(x, theta[1], omega2)
                dx_dt = -0.5 * x / theta[0]
                # rows: the residuals' derivatives by t and by eta_det
                jac_t = np.array([np.concatenate([ds_dx * dx_dt, da_dx * dx_dt]),
                                  np.concatenate([ds_deta, da_deta])])
                grad = jac_t @ r
                held = (((theta == _LOWER) & (grad > 0.0))
                        | ((theta == _UPPER) & (grad < 0.0)))
                grad[held] = 0.0
                jac_t[held] = 0.0
                normal = jac_t @ jac_t.T
            # a held parameter's row is 0 with 1 on the diagonal: no step
            (a, b), (_, d) = normal + np.diag(damping * np.diag(normal) + held)
            step = np.array([b * grad[1] - d * grad[0], b * grad[0] - a * grad[1]])
            trial = np.clip(theta + step / (a * d - b * b), _LOWER, _UPPER)
            if np.array_equal(trial, theta) or np.isnan(trial).any():
                break
            r_trial = residuals(*trial)
            rss_trial = r_trial @ r_trial
            moved = rss_trial < rss
            if moved:
                theta, r, rss = trial, r_trial, rss_trial
                damping *= 0.1
            else:
                damping *= 10.0
        p_th, eta, rss = float(theta[0] * p_max), float(theta[1]), float(rss)
    if not math.isfinite(rss):
        raise FloatingPointError(
            f"least-squares fit: the sum of squared residuals is {rss} at "
            f"p_threshold_mw={p_th!r}, eta_det={eta!r}")
    return FitResult(replace(params, p_threshold_mw=p_th, eta_det=eta), rss,
                     float(np.sqrt(rss / (2 * len(rows)))), len(rows))
