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


def fidelity_general(mean, cov, alpha: complex):
    """Overlap of a single-mode Gaussian state with the coherent state alpha.

    F = exp(-(1/2) d^T (V + I/4)^{-1} d) / (2 sqrt(det(V + I/4))) with
    d = mean - (Re alpha, Im alpha). Reduces to the unit-gain formula at
    d = 0 and to exp(-|alpha - beta|^2) for a displaced vacuum.

    A ``cov`` of shape (..., 2, 2) with ``mean`` of shape (..., 2) is a
    batch of states, checked and evaluated in one call; the result is then
    an array of the batch shape, each entry the same bits as a call on
    that state alone. Otherwise the result is a float.
    """
    cov = np.asarray(cov, dtype=float)
    batch = cov.shape[:-2]
    cov = cov.reshape(batch + (2, 2))
    mean = np.asarray(mean, dtype=float).reshape(batch + (2,))
    if not _is_symmetric(cov):
        raise ValueError("clone covariance is not symmetric")
    if np.linalg.eigvalsh(cov).min(initial=np.inf) <= 0.0:  # an empty batch passes
        raise ValueError("clone covariance is not positive definite")
    sigma = cov + VACUUM_VARIANCE * np.eye(2)
    delta = mean - np.array([alpha.real, alpha.imag])
    # (1, 2) @ (2, 1) per state: the product a lone d @ solve(sigma, d) makes
    quad = (delta[..., None, :] @ np.linalg.solve(sigma, delta[..., None]))[..., 0, 0]
    fidelity = np.exp(-0.5 * quad) / (2.0 * np.sqrt(np.linalg.det(sigma)))
    return fidelity if batch else float(fidelity)


def fidelity_report(moments: "CloneMoments", alpha: complex) -> FidelityReport:
    """Per-clone fidelity of a protocol run against its coherent input, from
    one batched ``fidelity_general`` call (each entry the bits of a lone call)."""
    clones = (moments.clone1, moments.clone2)
    cov = np.zeros((2, 2, 2))
    cov[:, 0, 0] = [c.var_x for c in clones]
    cov[:, 1, 1] = [c.var_p for c in clones]
    f = fidelity_general([(c.mean_x, c.mean_p) for c in clones], cov, alpha).tolist()
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
