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

The model is written once, in ``_spectra``, as an elementwise expression
that allocates each full-size dB array once and finishes it in place:
``squeezing_spectra`` evaluates it at one pump, ``pump_spectra`` over an
array of pumps, and ``fit_params`` runs each of its grids as one array
call. ``fidelity_vs_pump`` is the sweep's ``protocol.clone_curve`` at
unit gain and alpha = 0, over the levels of one ``pump_spectra`` call.

``fit_params`` solves the bounded least-squares problem with one
Levenberg–Marquardt loop (D. W. Marquardt, SIAM J. Appl. Math. 11, 431
(1963)) on the closed-form Jacobian ``_spectra_jacobian``, without
importing ``scipy.optimize``; the tests keep scipy's ``least_squares`` as
the oracle for the optimum. Its grid seed puts the data points on the
leading axis, so the score of the 60 x 40 grid is a sum of contiguous
per-point planes; the scores only pick the grid's argmin. The damped 2x2
step is taken on numpy scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .protocol import ProtocolConfig, clone_curve
from .resource import SqueezerSpec


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

    ``x`` and ``eta_det`` broadcast; ``omega2`` is a scalar. Scalar input
    gives numpy scalars. Squares are written as products: a scalar ``**2``
    calls libm ``pow``, an array ``**2`` multiplies, and the two can differ
    in the last bit.
    """
    # cancellation-free forms: near threshold 1 - 4x/((1+x)^2) loses all
    # precision, but (1+x)^2 - 4 eta x = (1-x)^2 + 4x(1-eta) is a sum of
    # non-negative terms, so the emitted dB pair keeps v_sq*v_anti >= 1/16
    # to machine precision
    down, up = 1.0 - x, 1.0 + x
    low = down * down + omega2
    high = up * up + omega2
    four_x = 4.0 * x
    squeezing = four_x * (1.0 - eta_det)
    antisqueezing = four_x * eta_det
    # each level is one full-size array finished in place (a scalar is
    # rebound), in the order of -10 log10((low + 4x(1 - eta)) / high) + 0.0
    # and 10 log10((low + 4x eta) / low)
    squeezing += low
    squeezing /= high
    antisqueezing += low
    antisqueezing /= low
    if isinstance(squeezing, np.ndarray):
        np.log10(squeezing, out=squeezing)
        np.log10(antisqueezing, out=antisqueezing)
    else:  # a numpy scalar has no buffer to write into
        squeezing, antisqueezing = np.log10(squeezing), np.log10(antisqueezing)
    squeezing *= -10.0
    squeezing += 0.0  # turns the -0.0 of a zero pump into 0.0
    antisqueezing *= 10.0
    return squeezing, antisqueezing


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

    Both squeezers are assumed identical: the fidelity column of the
    sweep's ``clone_curve`` at unit gain and alpha = 0. Returns an array of
    rows (p_pump_mw, fidelity).
    """
    pump = np.asarray(pump_grid_mw, dtype=float).reshape(-1)
    vacuum = SqueezerSpec(0.0, 0.0)  # clone_curve reads no spec
    fidelity = clone_curve(ProtocolConfig(vacuum, vacuum), *pump_spectra(params, pump))[2]
    return np.column_stack([pump, fidelity])


@dataclass(frozen=True)
class FitResult:
    params: OPOParams
    sum_squared_residual: float
    rms_residual_db: float
    n_points: int


# bounds of the fit in t = p_threshold / max pump and in eta_det
_T_LOW, _T_HIGH = 1.0001, 100.0
_ETA_LOW, _ETA_HIGH = 1e-6, 1.0
# the seed grid in t and eta_det
_T_GRID = np.geomspace(1.02, 50.0, 60)
_ETA_GRID = np.linspace(0.05, 1.0, 40)


def fit_params(data: Sequence[tuple[float, float, float]],
               omega: float = 0.0) -> FitResult:
    """Least-squares (p_threshold, eta_det) from measured noise levels.

    ``data`` rows are (p_pump_mw, squeezing_db, antisqueezing_db). A
    coarse grid search over (p_threshold, eta_det) seeds a bounded
    Levenberg–Marquardt solve of the 2n dB residuals at the fixed analysis
    frequency, in t = p_threshold / max pump within [1.0001, 100] and
    eta_det within [1e-6, 1]. The 60 x 40 grid is scored in one
    ``_spectra`` call with the data points on the leading axis, summed
    over the points. A parameter at a bound that the gradient pushes
    outward takes no step, and a step across a bound is clipped to it. The
    damped 2x2 normal equations are solved on numpy scalars. The loop stops
    when a step no longer moves the parameters, or after 200 trial steps.

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
    if len(set(pumps.tolist())) != len(pumps):
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
        """The 2n dB residuals at one (t, eta_det)."""
        return np.concatenate(_spectra(np.sqrt(ratio / t), eta, omega2)) - measured

    # overflow in the residuals shows as a non-finite result, checked below;
    # the step is taken on numpy scalars, so a singular system (a flat model)
    # or a non-finite gradient ends the loop with a NaN step, where Python
    # floats would raise ZeroDivisionError
    with np.errstate(all="ignore"):
        s_sq, a_sq = _spectra(np.sqrt(ratio[:, None, None] / _T_GRID[:, None]),
                              _ETA_GRID, omega2)
        s_sq -= s_meas[:, None, None]
        a_sq -= a_meas[:, None, None]
        s_sq *= s_sq
        a_sq *= a_sq
        scores = s_sq.sum(axis=0) + a_sq.sum(axis=0)
        # argmin keeps the first of equal scores in t-major order
        best_t, best_eta = np.unravel_index(np.argmin(scores), scores.shape)
        t, eta = _T_GRID[best_t], _ETA_GRID[best_eta]
        r = residuals(t, eta)
        rss = r @ r
        damping, moved = 1e-3, True
        for _ in range(200):
            if moved:
                x = np.sqrt(ratio / t)
                ds_dx, da_dx, ds_deta, da_deta = _spectra_jacobian(x, eta, omega2)
                dx_dt = -0.5 * x / t
                # rows: the residuals' derivatives by t and by eta_det
                jac_t = np.array([np.concatenate([ds_dx * dx_dt, da_dx * dx_dt]),
                                  np.concatenate([ds_deta, da_deta])])
                grad_t, grad_eta = jac_t @ r
                held_t = ((t == _T_LOW and grad_t > 0.0)
                          or (t == _T_HIGH and grad_t < 0.0))
                held_eta = ((eta == _ETA_LOW and grad_eta > 0.0)
                            or (eta == _ETA_HIGH and grad_eta < 0.0))
                if held_t:
                    grad_t = jac_t[0] = 0.0
                if held_eta:
                    grad_eta = jac_t[1] = 0.0
                (n_tt, n_te), (_, n_ee) = jac_t @ jac_t.T
            # a held parameter's row is 0 with 1 on the diagonal: no step
            a = n_tt + (damping * n_tt + held_t)
            d = n_ee + (damping * n_ee + held_eta)
            det = a * d - n_te * n_te
            t_trial = t + (n_te * grad_eta - d * grad_t) / det
            eta_trial = eta + (n_te * grad_t - a * grad_eta) / det
            if math.isnan(t_trial) or math.isnan(eta_trial):
                break
            t_trial = min(max(t_trial, _T_LOW), _T_HIGH)
            eta_trial = min(max(eta_trial, _ETA_LOW), _ETA_HIGH)
            if t_trial == t and eta_trial == eta:
                break
            r_trial = residuals(t_trial, eta_trial)
            rss_trial = r_trial @ r_trial
            moved = rss_trial < rss
            if moved:
                t, eta, r, rss = t_trial, eta_trial, r_trial, rss_trial
                damping *= 0.1
            else:
                damping *= 10.0
        p_th, eta, rss = float(t * p_max), float(eta), float(rss)
    if not math.isfinite(rss):
        raise FloatingPointError(
            f"least-squares fit: the sum of squared residuals is {rss} at "
            f"p_threshold_mw={p_th!r}, eta_det={eta!r}")
    return FitResult(replace(params, p_threshold_mw=p_th, eta_det=eta), rss,
                     float(np.sqrt(rss / (2 * len(rows)))), len(rows))
