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

``fit_params`` minimizes with ``_bounded_min``, Brent's bounded
golden-section/parabolic search (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 5) ported line for line
from scipy's ``minimize_scalar(method="bounded")``, so fits give the same
bits without importing ``scipy.optimize``; the tests keep scipy as the
oracle for the port.
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
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError("analysis frequency must be finite and >= 0")


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


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXFUN = 500


def _bounded_min(func, lo, hi, xatol):
    """``(x, func(x))`` at a local minimum of ``func`` on [lo, hi].

    A line-by-line port of scipy's ``_minimize_scalar_bounded`` (Brent's
    method): the same golden and parabolic steps, tolerances and float
    operations in the same order, so it visits the same points and
    returns the same ``x`` and ``fun`` as ``minimize_scalar(func,
    bounds=(lo, hi), method="bounded", options={"xatol": xatol})``. It
    stops after ``_MAXFUN`` evaluations. The bounds are finite with
    lo <= hi.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e

        # scipy's np.sign(v) + (v == 0): +1 at zero; rat is never nan here
        si = 1.0 if rat >= 0.0 else -1.0
        x = xf + si * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


def fit_params(data: Sequence[tuple[float, float, float]],
               omega: float = 0.0) -> FitResult:
    """Least-squares (p_threshold, eta_det) from measured noise levels.

    ``data`` rows are (p_pump_mw, squeezing_db, antisqueezing_db). A
    coarse grid search seeds coordinate descent on the two parameters at
    the fixed analysis frequency: six rounds of one bounded search in
    p_threshold and one in eta_det, each by ``_bounded_min``, the port of
    scipy's bounded Brent search. Each objective is one array expression
    over the data points; the grid search is one over (p_threshold,
    eta_det, point).

    The six rounds stop short of the least-squares optimum: polished by
    ``scipy.optimize.least_squares(method="lm")``, seeded noisy 12-point
    sets move by up to about 1e-4 relative in p_threshold_mw, 2e-4 in
    eta_det and 6e-4 in the sum of squared residuals (worst of 480 sets;
    6e-5, 1.7e-4 and 5e-4 on 120 of them).

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

    def objective(p_th, eta):
        """Sum of squared dB residuals; p_th and eta broadcast against the
        point axis, which is last."""
        s_db, a_db = _spectra(np.sqrt(pumps / p_th), eta, omega2)
        return ((s_db - s_meas) ** 2 + (a_db - a_meas) ** 2).sum(axis=-1)

    # overflow in the residuals shows as a non-finite result, checked below
    with np.errstate(all="ignore"):
        p_grid = np.geomspace(p_max * 1.02, p_max * 50.0, 60)
        eta_grid = np.linspace(0.05, 1.0, 40)
        # argmin keeps the first of equal scores in p-major order
        scores = objective(p_grid[:, None, None], eta_grid[None, :, None])
        best_p, best_eta = np.unravel_index(np.argmin(scores), scores.shape)
        p_th, eta = float(p_grid[best_p]), float(eta_grid[best_eta])

        # Python floats in and out of the searches, so their steps and the
        # fitted parameters are Python floats, never numpy scalars
        p_lo, p_hi = p_max * 1.0001, p_max * 100.0
        for _ in range(6):
            p_th = _bounded_min(lambda p: float(objective(p, eta)), p_lo, p_hi, 1e-10)[0]
            eta = _bounded_min(lambda e: float(objective(p_th, e)), 1e-6, 1.0, 1e-12)[0]

        rss = float(objective(p_th, eta))
    if not math.isfinite(rss):
        raise FloatingPointError(
            f"least-squares fit: the sum of squared residuals is {rss} at "
            f"p_threshold_mw={p_th!r}, eta_det={eta!r}")
    return FitResult(replace(params, p_threshold_mw=p_th, eta_det=eta), rss,
                     float(np.sqrt(rss / (2 * len(rows)))), len(rows))
