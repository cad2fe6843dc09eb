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
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    MIN_VARIANCE_PRODUCT,
    VACUUM_VARIANCE,
    Channel,
    GaussianState,
    PhysicalityError,
    beam_splitter_50_50,
    channel_moments,
    check_variance_pair,
    compose,
    loss_diagonals,
    symplectic_map,
)
from .metrics import db_to_variance

MODE_A, MODE_B, MODE_C = 0, 1, 2


@dataclass(frozen=True)
class SqueezerSpec:
    """Noise levels of one squeezer output, in dB relative to vacuum.

    ``squeezing_db`` is the reduction of the squeezed quadrature and
    ``antisqueezing_db`` the excess of the conjugate one, both quoted as
    non-negative magnitudes. Equal magnitudes describe a pure state.
    ``squeezed_variance`` and ``antisqueezed_variance`` are the checked
    ``squeezer_variances`` of the levels, set once as the spec is built;
    ``==``, ``hash`` and ``repr`` read only the levels.
    """

    squeezing_db: float
    antisqueezing_db: float
    squeezed_variance: float = field(init=False, repr=False, compare=False)
    antisqueezed_variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v_sq, v_anti = squeezer_variances(self.squeezing_db, self.antisqueezing_db)
        object.__setattr__(self, "squeezed_variance", float(v_sq))
        object.__setattr__(self, "antisqueezed_variance", float(v_anti))

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
        v_sq = db_to_variance(-sq)  # sq >= 0: at most the vacuum variance
        try:
            v_anti = db_to_variance(anti)
        except FloatingPointError:  # numpy's text names no value: find the first
            with np.errstate(over="ignore"):
                k = np.argmax(np.isinf(db_to_variance(anti)))
            raise FloatingPointError(
                f"squeezer variance overflows: antisqueezing {anti.flat[k]} dB "
                "is out of the float range") from None
    unphysical = v_sq * v_anti < MIN_VARIANCE_PRODUCT
    if unphysical.any():
        k = np.argmax(unphysical)
        raise PhysicalityError(
            f"squeezing {sq.flat[k]} dB with antisqueezing "
            f"{anti.flat[k]} dB violates the uncertainty bound"
        )
    return v_sq, v_anti


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


def _resource_channel(eta: tuple[float, float, float]) -> Channel:
    """The resource circuit followed by the losses ``eta`` of (A, B, C): the
    cached circuit matrix with its rows scaled by sqrt(eta), the bits of
    composing it with the generic ``loss_map``."""
    scale, added = loss_diagonals(eta)
    return resource_circuit_matrix() * scale[:, None], np.diag(added)


def build_telecloning_resource(spec_i: SqueezerSpec, spec_ii: SqueezerSpec,
                               eta: tuple[float, float, float] = (1.0, 1.0, 1.0)
                               ) -> GaussianState:
    """The (A, B, C) resource with per-mode transmissivities ``eta``.

    Mode i enters antisqueezed in x, mode ii antisqueezed in p. The first
    splitter produces A = (i + ii)/sqrt(2) and an internal mode; the
    second splits the internal mode against a vacuum into B and C; then
    mode k of (A, B, C) loses 1 - eta[k] to vacuum. The circuit and the
    losses are one channel, ``_resource_channel``, applied once to the
    diagonal covariance of the inputs.

    The state is bona fide by construction (each squeezer passes
    ``check_variance_pair``, and splitters and losses keep the condition),
    so no eigenproblem is solved: the tests hold it to ``assert_physical``.
    A non-finite covariance raises ``LinAlgError``, as that check would.
    """
    variances = (spec_i.antisqueezed_variance, spec_i.squeezed_variance,
                 spec_ii.squeezed_variance, spec_ii.antisqueezed_variance)
    check_variance_pair(*variances[:2])
    check_variance_pair(*variances[2:])
    inputs = np.diag([*variances, VACUUM_VARIANCE, VACUUM_VARIANCE])
    state = GaussianState(*channel_moments(_resource_channel(eta), np.zeros(6), inputs))
    if not np.isfinite(state.cov).all():  # an antisqueezed variance can overflow the sums
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return state


def _pair_lhs(state: GaussianState, first: int, second: int) -> float:
    """Var(x_first - x_second) + Var(p_first + p_second) from the covariance."""
    c = state.cov
    fx, fp = 2 * first, 2 * first + 1
    sx, sp = 2 * second, 2 * second + 1
    var_x = c[fx, fx] + c[sx, sx] - 2.0 * c[fx, sx]
    var_p = c[fp, fp] + c[sp, sp] + 2.0 * c[fp, sp]
    return float(var_x + var_p)


def bipartite_criterion_lhs(resource: GaussianState, partner: str = "B") -> float:
    """Left-hand side of the bipartite inseparability criterion for A-partner.

    A value below 1 certifies entanglement between mode A and the chosen
    receiver mode.
    """
    mode = {"B": MODE_B, "C": MODE_C}.get(partner.upper())
    if mode is None:
        raise ValueError(f"partner must be 'B' or 'C', got {partner!r}")
    return _pair_lhs(resource, MODE_A, mode)


def clone_pair_criterion_lhs(resource: GaussianState) -> float:
    """The same combination evaluated for the receiver pair (B, C).

    Reported as a diagnostic only; no separability classification of the
    reduced B-C pair is implied.
    """
    return _pair_lhs(resource, MODE_B, MODE_C)


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
