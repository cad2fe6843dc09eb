"""Multimode Gaussian states and the linear optics that acts on them.

Conventions used throughout the package:

* quadratures are the real and imaginary parts of the mode amplitude,
  a = x + i p, with [x, p] = i/2 (photon-number units), so every
  quadrature of the vacuum has variance 1/4;
* moments are stored in the interleaved ordering (x1, p1, ..., xn, pn);
* a state is physical iff its covariance V satisfies the bona fide
  condition V + (i/4) Omega >= 0 (Simon, PRL 84, 2726 (2000)), that is,
  iff every symplectic eigenvalue of V is at least 1/4 and V > 0, which
  ``assert_physical`` tests within its own rounding, however squeezed.

Every linear-optics element is a Gaussian channel ``(X, Y)``: mean -> X mean,
V -> X V X^T + Y (Weedbrook et al., RMP 84, 621 (2012), sec. II.D). A
symplectic S is (S, 0); a loss of transmissivity eta on one mode is
sqrt(eta) on that mode in X and (1 - eta)/4 on that mode in Y, the pair
``loss_diagonals`` returns, so a fixed network scales its X by it. ``compose``
chains channels into one, so a whole network is applied to a state in one
step, and ``apply_channel`` (``channel_moments`` on plain arrays) returns
an exactly symmetric covariance.

All states and matrices are immutable value objects; every operation
returns a new state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

VACUUM_VARIANCE = 0.25
SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
MIN_VARIANCE_PRODUCT = VACUUM_VARIANCE**2 - 1e-12  # v_x * v_p bound, less rounding slack
_EPS = float(np.finfo(float).eps)


class PhysicalityError(ValueError):
    """A state or parameter set would violate the uncertainty bound."""


def _is_symmetric(matrix: np.ndarray) -> bool:
    """``np.allclose(m, m^T, rtol=0, atol=SYMMETRY_TOL)`` without its overhead."""
    t = matrix.swapaxes(-1, -2)
    equal = matrix == t
    if equal.all():  # the common case, without the cost of errstate
        return True
    with np.errstate(invalid="ignore"):  # inf - inf; equal infinities pass
        return bool((equal | (np.abs(matrix - t) <= SYMMETRY_TOL)).all())


@functools.cache
def _omega(n_modes: int) -> np.ndarray:
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.flags.writeable = False
    return omega


@functools.cache
def _bona_fide_shift(n_modes: int) -> np.ndarray:
    """(i/4) Omega, read-only: V + (i/4) Omega >= 0 is the bona fide condition."""
    shift = VACUUM_VARIANCE * 1j * _omega(n_modes)
    shift.flags.writeable = False
    return shift


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n [[0, 1], [-1, 0]] blocks in the interleaved ordering."""
    return _omega(n_modes).copy()


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode state; read-only entries."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.size == 0 or mean.size % 2:
            raise ValueError(f"mean must have even positive length, got {mean.size}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if not _is_symmetric(cov):
            raise ValueError("covariance matrix is not symmetric")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SymplecticMatrix:
    """Real matrix S acting on k modes with S^T Omega S = Omega; read-only entries."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
            raise ValueError(f"symplectic matrix must be square of even size, got {entries.shape}")
        omega = _omega(entries.shape[0] // 2)
        if not np.allclose(entries.T @ omega @ entries, omega, rtol=0.0, atol=SYMMETRY_TOL):
            raise ValueError("matrix does not satisfy S^T Omega S = Omega")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, covariance (1/4) * identity."""
    if n_modes < 1:
        raise ValueError("a state needs at least one mode")
    dim = 2 * n_modes
    return GaussianState(np.zeros(dim), VACUUM_VARIANCE * np.eye(dim))


def coherent(alphas: Sequence[complex]) -> GaussianState:
    """Product of coherent states; mode k has mean (Re alpha_k, Im alpha_k)."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one amplitude")
    mean = np.empty(2 * len(alphas))
    mean[0::2] = [complex(a).real for a in alphas]
    mean[1::2] = [complex(a).imag for a in alphas]
    return GaussianState(mean, VACUUM_VARIANCE * np.eye(mean.size))


def check_variance_pair(v_x: float, v_p: float) -> None:
    """Raise unless v_x, v_p > 0 and the uncertainty product v_x * v_p >= 1/16."""
    if v_x <= 0.0 or v_p <= 0.0:
        raise ValueError("variances must be positive")
    if v_x * v_p < MIN_VARIANCE_PRODUCT:
        raise PhysicalityError(
            f"variance product {v_x * v_p:.3e} violates the bound {VACUUM_VARIANCE**2:.3e}"
        )


def squeezed_vacuum(v_x: float, v_p: float) -> GaussianState:
    """Single zero-mean mode with quadrature variances (v_x, v_p); unequal
    dB magnitudes give an impure (thermal squeezed) state."""
    check_variance_pair(v_x, v_p)
    return GaussianState(np.zeros(2), np.diag([v_x, v_p]))


def tensor(*states: GaussianState) -> GaussianState:
    """Product state: concatenated means, block-diagonal covariance."""
    if not states:
        raise ValueError("need at least one state")
    mean = np.concatenate([s.mean for s in states])
    cov = np.zeros((mean.size, mean.size))
    at = 0
    for s in states:
        cov[at:at + s.mean.size, at:at + s.mean.size] = s.cov
        at += s.mean.size
    return GaussianState(mean, cov)


_BEAM_SPLITTER_50_50 = SymplecticMatrix(
    np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(2)))


def beam_splitter_50_50() -> SymplecticMatrix:
    """Balanced beam splitter on a mode pair.

    Acts identically on x and p: out1 = (in1 + in2)/sqrt(2),
    out2 = (in1 - in2)/sqrt(2). Every call returns the same read-only
    matrix, checked once at import.
    """
    return _BEAM_SPLITTER_50_50


def phase_shift(phi: float) -> SymplecticMatrix:
    """Single-mode rotation of (x, p) by angle phi."""
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticMatrix(np.array([[c, -s], [s, c]]))


def _quadrature_indices(n_modes: int, modes: Sequence[int]) -> np.ndarray:
    """Interleaved (x, p) indices of the listed modes; checks range and repeats."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    if any(m < 0 or m >= n_modes for m in modes):
        raise ValueError(f"modes {modes} out of range for {n_modes}-mode state")
    return np.array([2 * m + q for m in modes for q in (0, 1)], dtype=int)


Channel = tuple[np.ndarray, np.ndarray]  # (X, Y): V -> X V X^T + Y


def symplectic_map(n_modes: int, sym: SymplecticMatrix, modes: Sequence[int]) -> Channel:
    """Channel (S, 0) of S on the listed modes of n modes, identity on the rest."""
    idx = _quadrature_indices(n_modes, modes)
    if 2 * sym.n_modes != idx.size:
        raise ValueError(
            f"symplectic acts on {sym.n_modes} modes but {idx.size // 2} were selected"
        )
    x = np.eye(2 * n_modes)
    x[idx[:, None], idx] = sym.entries
    return x, np.zeros_like(x)


def loss_diagonals(etas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The loss of mode k to vacuum at transmissivity ``etas[k]`` as the
    diagonals of its X and Y, two entries per mode (x, then p): sqrt(eta)
    and (1 - eta)/4. Scaling rows or columns by them has the bits of a
    product with the diagonal matrix, whose other terms are exact zeros."""
    scale, added = [], []
    for eta in etas:
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
        s, a = math.sqrt(eta), (1.0 - eta) * VACUUM_VARIANCE
        scale += (s, s)
        added += (a, a)
    return np.array(scale), np.array(added)


def loss_map(n_modes: int, etas: dict[int, float]) -> Channel:
    """Channel of each listed mode mixing with vacuum at transmissivity
    ``etas[mode]``: ``loss_diagonals`` on those modes, identity elsewhere."""
    idx = _quadrature_indices(n_modes, etas)
    x = np.eye(2 * n_modes)
    y = np.zeros_like(x)
    x[idx, idx], y[idx, idx] = loss_diagonals(list(etas.values()))
    return x, y


def compose(*channels: Channel) -> Channel:
    """One channel that applies ``channels`` in the order given."""
    x, y = channels[0]
    for x_next, y_next in channels[1:]:
        x, y = x_next @ x, x_next @ y @ x_next.T + y_next
    return x, y


def channel_moments(channel: Channel, mean: np.ndarray, cov: np.ndarray) -> tuple:
    """Mean and covariance after ``channel``, as plain arrays; the
    covariance is symmetrised, so it is exactly symmetric at any scale."""
    x, y = channel
    cov = x @ cov @ x.T + y
    return x @ mean, 0.5 * (cov + cov.T)


def apply_channel(state: GaussianState, channel: Channel) -> GaussianState:
    """The state after ``channel``: ``channel_moments`` of its arrays."""
    return GaussianState(*channel_moments(channel, state.mean, state.cov))


def apply_symplectic(state: GaussianState, sym: SymplecticMatrix,
                     modes: Sequence[int]) -> GaussianState:
    """Apply S to the listed modes, identity on the rest.

    Cross blocks between acted and spectator modes transform consistently
    through the embedded full-size matrix.
    """
    return apply_channel(state, symplectic_map(state.n_modes, sym, modes))


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    """Shift the mean of one mode by (dx, dp); covariance is untouched."""
    idx = _quadrature_indices(state.n_modes, [mode])
    mean = state.mean.copy()
    mean[idx] += (dx, dp)
    return GaussianState(mean, state.cov)


def loss_channel(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Mix one mode with vacuum at transmissivity eta.

    Mean scales by sqrt(eta), variances go to eta*v + (1 - eta)/4 and
    cross covariances scale by sqrt(eta).
    """
    return apply_channel(state, loss_map(state.n_modes, {mode: eta}))


def partial_trace(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Restrict to the listed modes, in the order given."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep list is empty")
    idx = _quadrature_indices(state.n_modes, keep)
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """The n symplectic eigenvalues of the covariance matrix, ascending.

    Computed as the absolute values of the eigenvalues of i*Omega*cov,
    which come in +/- pairs; one representative per pair is returned. The
    covariance is symmetric: ``GaussianState`` checks it. The values mean
    something only for a positive-definite one: diag(1, -1) gives [1].
    They are ill-conditioned for a nearly pure, highly squeezed state, so
    ``assert_physical`` does not use them.
    """
    omega = _omega(state.n_modes)
    nu = np.sort(np.abs(np.linalg.eigvals(1j * omega @ state.cov)))
    return nu[::2].copy()


def is_physical(state: GaussianState) -> bool:
    """Whether ``assert_physical`` passes; its numeric errors propagate."""
    try:
        assert_physical(state)
    except PhysicalityError:
        return False
    return True


def assert_physical(state: GaussianState, context: str = "") -> None:
    """Raise PhysicalityError unless every variance is positive and the
    smallest eigenvalue of V + (i/4) Omega is at least
    -(PHYSICALITY_TOL + 8 n eps ||V||_inf), n the dimension of V and
    ||V||_inf its largest absolute row sum: ``eigvalsh`` is backward
    stable, so by Weyl's inequality the bound is the test's own rounding,
    which grows with the squeezing. A variance at or below 0 by no more than
    the bound is lost precision and raises FloatingPointError; an inf or NaN
    entry raises LinAlgError.
    """
    _assert_bona_fide(state.cov, state.cov, context)


def _rounding_bound(source: np.ndarray) -> float:
    """PHYSICALITY_TOL + 8 n eps ||source||_inf, n the dimension of ``source``."""
    return PHYSICALITY_TOL + 8 * source.shape[0] * _EPS * np.abs(source).sum(axis=1).max()


def _assert_variances(cov: np.ndarray, source: np.ndarray, context: str = "") -> None:
    """The part of ``_assert_bona_fide`` that solves no eigenproblem: every
    variance positive, a variance at or below 0 by no more than
    ``_rounding_bound(source)`` being lost precision, and every entry finite.
    The bound is computed only when a variance fails."""
    v_min = cov.diagonal().min()
    if v_min <= 0.0:  # a NaN goes on to the LinAlgError below, a numeric error
        bound = _rounding_bound(source)
        if v_min >= -bound:
            raise FloatingPointError(
                f"{context or 'covariance'} lost precision: variance {v_min:.12g} "
                f"is within the rounding bound {bound:.12g} of 0")
        where = f" in {context}" if context else ""
        raise PhysicalityError(f"unphysical state{where}: variance {v_min:.12g} is not positive")
    if not np.isfinite(cov).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")


def _assert_bona_fide(cov: np.ndarray, source: np.ndarray, context: str = "") -> None:
    """``assert_physical`` on a covariance array computed from ``source``, with
    ||source||_inf for ||V||_inf: it carries the rounding of that subtraction.
    ``_assert_variances`` first, then the smallest eigenvalue."""
    _assert_variances(cov, source, context)
    bound = _rounding_bound(source)
    lam_min = np.linalg.eigvalsh(cov + _bona_fide_shift(cov.shape[0] // 2))[0]
    if not lam_min >= -bound:  # a NaN fails too
        where = f" in {context}" if context else ""
        raise PhysicalityError(
            f"unphysical state{where}: smallest eigenvalue of V + (i/4) Omega "
            f"{lam_min:.12g} < -{bound:.12g}"
        )
