"""Tripartite entangled resource for 1-to-2 telecloning.

Two independently squeezed vacua are mixed on a balanced beam splitter.
One output becomes the sender mode A; the other is split against a vacuum
on a second balanced splitter to give the receiver modes B and C. The
squeezing orientations are fixed so that mode i is antisqueezed in x and
squeezed in p while mode ii is squeezed in x and antisqueezed in p; with
the symmetric beam-splitter convention of :mod:`telecloning.gaussian`
this reproduces the standard telecloning output coefficients with no
explicit phase element.

Impure squeezers are described by independent squeezing and antisqueezing
noise levels in dB relative to vacuum, which is exactly what a measured
pump-power curve provides.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    MIN_VARIANCE_PRODUCT,
    GaussianState,
    PhysicalityError,
    apply_channel,
    assert_physical,
    beam_splitter_50_50,
    compose,
    loss_map,
    squeezed_vacuum,
    symplectic_map,
    tensor,
    vacuum,
)
from .metrics import db_to_variance

MODE_A, MODE_B, MODE_C = 0, 1, 2


@dataclass(frozen=True)
class SqueezerSpec:
    """Noise levels of one squeezer output, in dB relative to vacuum.

    ``squeezing_db`` is the reduction of the squeezed quadrature and
    ``antisqueezing_db`` the excess of the conjugate one, both quoted as
    non-negative magnitudes. Equal magnitudes describe a pure state.
    """

    squeezing_db: float
    antisqueezing_db: float

    def __post_init__(self):
        squeezer_variances(self.squeezing_db, self.antisqueezing_db)

    @property
    def squeezed_variance(self) -> float:
        return db_to_variance(-self.squeezing_db)

    @property
    def antisqueezed_variance(self) -> float:
        return db_to_variance(self.antisqueezing_db)

    @classmethod
    def pure(cls, squeezing_db: float) -> "SqueezerSpec":
        return cls(squeezing_db, squeezing_db)


def squeezer_variances(squeezing_db, antisqueezing_db):
    """Squeezed and antisqueezed variances of dB noise levels, elementwise.

    Holds the checks of every ``SqueezerSpec``: a negative or non-finite
    magnitude raises ``ValueError``, a pair with v_sq * v_anti below
    ``MIN_VARIANCE_PRODUCT`` raises ``PhysicalityError``, and a variance
    that overflows raises ``FloatingPointError``; each message names the
    first offending value. Returns ``(v_sq, v_anti)``.
    """
    sq = np.asarray(squeezing_db, dtype=float)
    anti = np.asarray(antisqueezing_db, dtype=float)
    bad = ~(np.isfinite(sq) & np.isfinite(anti) & (sq >= 0.0) & (anti >= 0.0))
    if bad.any():
        k = np.argmax(bad)
        raise ValueError("dB noise levels are magnitudes and must be finite and "
                         f">= 0; got {sq.flat[k]} and {anti.flat[k]} dB")
    with np.errstate(over="raise"):
        v_sq = db_to_variance(-sq)
        v_anti = db_to_variance(anti)
    unphysical = v_sq * v_anti < MIN_VARIANCE_PRODUCT
    if unphysical.any():
        k = np.argmax(unphysical)
        raise PhysicalityError(
            f"squeezing {sq.flat[k]} dB with antisqueezing "
            f"{anti.flat[k]} dB violates the uncertainty bound"
        )
    return v_sq, v_anti


@dataclass(frozen=True)
class ResourceState:
    """Three-mode entangled state (A, B, C) plus the specs that made it."""

    state: GaussianState
    spec_i: SqueezerSpec
    spec_ii: SqueezerSpec


@functools.cache
def resource_circuit_matrix() -> np.ndarray:
    """Total symplectic matrix of the resource circuit.

    Maps the quadratures of the input modes (i, ii, vacuum) to those of
    the output modes (A, B, C): the first splitter on (i, ii), then the
    second on its second output and the vacuum. Every call returns the
    same read-only matrix, composed on the first call.
    """
    bs = beam_splitter_50_50()
    x, _ = compose(symplectic_map(3, bs, [0, 1]), symplectic_map(3, bs, [1, 2]))
    x.flags.writeable = False
    return x


def build_telecloning_resource(spec_i: SqueezerSpec, spec_ii: SqueezerSpec,
                               eta: tuple[float, float, float] | None = None
                               ) -> ResourceState:
    """Build the (A, B, C) resource, optionally with per-mode loss.

    Mode i enters antisqueezed in x, mode ii antisqueezed in p. The first
    splitter produces A = (i + ii)/sqrt(2) and an internal mode; the
    second splits the internal mode against a vacuum into B and C; then
    mode k of (A, B, C) loses 1 - eta[k] to vacuum. The circuit and the
    losses are one composed channel, applied once to the product of the
    inputs.
    """
    mode_i = squeezed_vacuum(spec_i.antisqueezed_variance, spec_i.squeezed_variance)
    mode_ii = squeezed_vacuum(spec_ii.squeezed_variance, spec_ii.antisqueezed_variance)
    circuit = (resource_circuit_matrix(), np.zeros((6, 6)))
    if eta is not None:
        circuit = compose(circuit, loss_map(3, dict(zip((MODE_A, MODE_B, MODE_C), eta))))
    state = apply_channel(tensor(mode_i, mode_ii, vacuum(1)), circuit)
    assert_physical(state, context="telecloning resource")
    return ResourceState(state, spec_i, spec_ii)


def _pair_lhs(state: GaussianState, first: int, second: int) -> float:
    """Var(x_first - x_second) + Var(p_first + p_second) from the covariance."""
    c = state.cov
    fx, fp = 2 * first, 2 * first + 1
    sx, sp = 2 * second, 2 * second + 1
    var_x = c[fx, fx] + c[sx, sx] - 2.0 * c[fx, sx]
    var_p = c[fp, fp] + c[sp, sp] + 2.0 * c[fp, sp]
    return float(var_x + var_p)


def bipartite_criterion_lhs(resource: ResourceState, partner: str = "B") -> float:
    """Left-hand side of the bipartite inseparability criterion for A-partner.

    A value below 1 certifies entanglement between mode A and the chosen
    receiver mode.
    """
    mode = {"B": MODE_B, "C": MODE_C}.get(partner.upper())
    if mode is None:
        raise ValueError(f"partner must be 'B' or 'C', got {partner!r}")
    return _pair_lhs(resource.state, MODE_A, mode)


def clone_pair_criterion_lhs(resource: ResourceState) -> float:
    """The same combination evaluated for the receiver pair (B, C).

    Reported as a diagnostic only; no separability classification of the
    reduced B-C pair is implied.
    """
    return _pair_lhs(resource.state, MODE_B, MODE_C)


def optimal_squeezing() -> tuple[float, float, float]:
    """Squeezing that minimizes the criterion for pure symmetric squeezers.

    Returns (r_star, e^{-2 r_star}, squeezing in dB). The minimizer is
    e^{-2r} = (sqrt(2)-1)/(sqrt(2)+1) = 3 - 2 sqrt(2), about 7.66 dB,
    where the criterion reaches 1/2.
    """
    e_minus_2r = 3.0 - 2.0 * np.sqrt(2.0)
    r_star = -0.5 * np.log(e_minus_2r)
    db = -10.0 * np.log10(e_minus_2r)
    return float(r_star), float(e_minus_2r), float(db)
