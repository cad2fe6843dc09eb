"""Fidelity against coherent inputs, channel-gain estimation, dB helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .gaussian import VACUUM_VARIANCE, _is_symmetric

if TYPE_CHECKING:
    from .protocol import CloneMoments

CLASSICAL_LIMIT = 0.5
OPTIMAL_GAUSSIAN = 2.0 / 3.0


class UndefinedGainError(ValueError):
    """Input amplitude too small for a meaningful gain ratio."""


@dataclass(frozen=True)
class FidelityReport:
    f_clone1: float
    f_clone2: float
    classical_limit: float = CLASSICAL_LIMIT
    optimal_gaussian: float = OPTIMAL_GAUSSIAN


@dataclass(frozen=True)
class GainEstimates:
    g_x1: float
    g_p1: float
    g_x2: float
    g_p2: float
    se_g_x1: float | None = None
    se_g_p1: float | None = None
    se_g_x2: float | None = None
    se_g_p2: float | None = None


def variance_to_db(v: float) -> float:
    """Noise level in dB relative to the vacuum variance 1/4."""
    if not v > 0.0:  # NaN fails too
        raise ValueError("variance must be positive")
    return 10.0 * np.log10(v / VACUUM_VARIANCE)


def db_to_variance(db):
    """Variance of a noise level in dB, elementwise over scalars or arrays.
    A scalar goes through libm ``pow`` and an array through numpy's SIMD
    ``power``, so a value alone and inside an array can differ in the last bit."""
    return VACUUM_VARIANCE * 10.0 ** (db / 10.0)


def fidelity_unit_gain(var_x, var_p):
    """Overlap of a unit-gain clone with the coherent input.

    Valid when the clone mean equals the input amplitude; then the overlap
    depends only on the clone variances: F = 2 / sqrt((1+4vx)(1+4vp)).
    Elementwise over scalars or arrays.
    """
    if not np.all((var_x > 0.0) & (var_p > 0.0)):  # NaN fails too
        raise ValueError("variances must be positive")
    return 2.0 / np.sqrt((1.0 + 4.0 * var_x) * (1.0 + 4.0 * var_p))


def _fidelity(var_x, cov_xp, var_p, dx, dp):
    """``fidelity_general``'s check and closed form, elementwise over
    scalars or arrays: covariance [[var_x, cov_xp], [cov_xp, var_p]], mean
    (dx, dp) away from the coherent amplitude.

    The test reads the LDL^T pivots, never var_x var_p - cov_xp^2, which
    underflows to 0 for a tiny diagonal state; the quadratic form divides
    before it multiplies, so an inf variance gives dx (dx / inf) = 0, not
    inf / inf.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a zero, tiny or NaN var_x
        pivot = var_p - cov_xp * (cov_xp / var_x)
    if not np.all((var_x > 0.0) & (pivot > 0.0)):  # NaN fails too
        raise ValueError("clone covariance is not positive definite")
    s_x = var_x + VACUUM_VARIANCE
    ratio = cov_xp / s_x
    s_p = (var_p + VACUUM_VARIANCE) - cov_xp * ratio
    residual = dp - ratio * dx
    quad = dx * (dx / s_x) + residual * (residual / s_p)
    return np.exp(-0.5 * quad) / (2.0 * np.sqrt(s_x * s_p))


def fidelity_general(mean, cov, alpha: complex):
    """Overlap of a single-mode Gaussian state with the coherent state alpha.

    F = exp(-(1/2) d^T S^{-1} d) / (2 sqrt(det S)) with S = V + I/4 and
    d = mean - (Re alpha, Im alpha). Reduces to the unit-gain formula at
    d = 0 and to exp(-|alpha - beta|^2) for a displaced vacuum.

    The 2x2 algebra is the closed form of S = L D L^T: with a, b, d the
    entries V_00, V_01, V_11, s_a = a + 1/4, r = b / s_a and
    s_d = (d + 1/4) - b r, d^T S^{-1} d = dx^2 / s_a + (dp - r dx)^2 / s_d
    and det S = s_a s_d. V is positive definite when the pivots of its own
    LDL^T are, a > 0 and d - b (b / a) > 0.
    """
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    mean = np.asarray(mean, dtype=float).reshape(2)
    if not _is_symmetric(cov):
        raise ValueError("clone covariance is not symmetric")
    return float(_fidelity(cov[0, 0], cov[0, 1], cov[1, 1],
                           mean[0] - alpha.real, mean[1] - alpha.imag))


def fidelity_report(moments: "CloneMoments", alpha: complex) -> FidelityReport:
    """Per-clone fidelity of a protocol run against its coherent input,
    both clones in one elementwise evaluation (each the bits of a lone
    ``fidelity_general`` call on its diagonal covariance)."""
    clones = (moments.clone1, moments.clone2)
    f = _fidelity(np.array([c.var_x for c in clones]), 0.0,
                  np.array([c.var_p for c in clones]),
                  np.array([c.mean_x for c in clones]) - alpha.real,
                  np.array([c.mean_p for c in clones]) - alpha.imag).tolist()
    return FidelityReport(f[0], f[1])


def estimate_gains(moments: "CloneMoments", alpha: complex) -> GainEstimates:
    """Ratio of clone mean to input mean per quadrature.

    For estimated moments the floor is 10 standard errors of the worst
    clone-mean estimate; an amplitude at or below the floor makes the
    corresponding gain undefined.
    """
    c1, c2 = moments.clone1, moments.clone2

    def axis_floor(se1, se2):
        return 10.0 * max(se1 or 0.0, se2 or 0.0)

    floor_x = axis_floor(c1.se_mean_x, c2.se_mean_x)
    floor_p = axis_floor(c1.se_mean_p, c2.se_mean_p)
    if abs(alpha.real) <= floor_x:
        raise UndefinedGainError(
            f"|Re alpha| = {abs(alpha.real):.3g} at or below floor {floor_x:.3g}; "
            "x gains are undefined"
        )
    if abs(alpha.imag) <= floor_p:
        raise UndefinedGainError(
            f"|Im alpha| = {abs(alpha.imag):.3g} at or below floor {floor_p:.3g}; "
            "p gains are undefined"
        )

    def se_ratio(se, denom):
        return None if se is None else se / abs(denom)

    return GainEstimates(
        g_x1=c1.mean_x / alpha.real,
        g_p1=c1.mean_p / alpha.imag,
        g_x2=c2.mean_x / alpha.real,
        g_p2=c2.mean_p / alpha.imag,
        se_g_x1=se_ratio(c1.se_mean_x, alpha.real),
        se_g_p1=se_ratio(c1.se_mean_p, alpha.imag),
        se_g_x2=se_ratio(c2.se_mean_x, alpha.real),
        se_g_p2=se_ratio(c2.se_mean_p, alpha.imag),
    )
