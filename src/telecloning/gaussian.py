"""Multimode Gaussian states and the linear optics that acts on them.

Conventions used throughout the package:

* quadratures are the real and imaginary parts of the mode amplitude,
  a = x + i p, with [x, p] = i/2 (photon-number units), so every
  quadrature of the vacuum has variance 1/4;
* moments are stored in the interleaved ordering (x1, p1, ..., xn, pn);
* a state is physical iff every symplectic eigenvalue of its covariance
  matrix is at least 1/4.

Every linear-optics element is a Gaussian channel ``(X, Y)``: mean -> X mean,
V -> X V X^T + Y (Weedbrook et al., RMP 84, 621 (2012), sec. II.D). A
symplectic S is (S, 0); a loss of transmissivity eta on one mode is
sqrt(eta) on that mode in X and (1 - eta)/4 on that mode in Y. ``compose``
chains channels into one, so a whole network is applied to a state in one
step, and ``apply_channel`` returns an exactly symmetric covariance.

All states and matrices are immutable value objects; every operation
returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

VACUUM_VARIANCE = 0.25
SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
MIN_VARIANCE_PRODUCT = VACUUM_VARIANCE**2 - 1e-12  # v_x * v_p bound, less rounding slack


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


_OMEGAS: dict[int, np.ndarray] = {}  # read-only symplectic form per mode count


def _omega(n_modes: int) -> np.ndarray:
    if n_modes not in _OMEGAS:
        _OMEGAS[n_modes] = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        _OMEGAS[n_modes].flags.writeable = False
    return _OMEGAS[n_modes]


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n [[0, 1], [-1, 0]] blocks in the interleaved ordering."""
    return _omega(n_modes).copy()


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state."""

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


def squeezed_vacuum(v_x: float, v_p: float) -> GaussianState:
    """Single zero-mean mode with quadrature variances (v_x, v_p).

    The pair must respect the uncertainty product v_x * v_p >= 1/16;
    unequal dB magnitudes give an impure (thermal squeezed) state.
    """
    if v_x <= 0.0 or v_p <= 0.0:
        raise ValueError("variances must be positive")
    if v_x * v_p < MIN_VARIANCE_PRODUCT:
        raise PhysicalityError(
            f"variance product {v_x * v_p:.3e} violates the bound {VACUUM_VARIANCE**2:.3e}"
        )
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


def loss_map(n_modes: int, etas: dict[int, float]) -> Channel:
    """Channel of each listed mode mixing with vacuum at transmissivity
    ``etas[mode]``: sqrt(eta) in X and (1 - eta)/4 in Y on that mode."""
    _quadrature_indices(n_modes, etas)
    x = np.eye(2 * n_modes)
    y = np.zeros_like(x)
    for mode, eta in etas.items():
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
        for i in (2 * mode, 2 * mode + 1):
            x[i, i], y[i, i] = math.sqrt(eta), (1.0 - eta) * VACUUM_VARIANCE
    return x, y


def compose(*channels: Channel) -> Channel:
    """One channel that applies ``channels`` in the order given."""
    x, y = channels[0]
    for x_next, y_next in channels[1:]:
        x, y = x_next @ x, x_next @ y @ x_next.T + y_next
    return x, y


def apply_channel(state: GaussianState, channel: Channel) -> GaussianState:
    """The state after ``channel``; the covariance is symmetrised, so it is
    exactly symmetric at any scale."""
    x, y = channel
    cov = x @ state.cov @ x.T + y
    return GaussianState(x @ state.mean, 0.5 * (cov + cov.T))


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
    covariance is symmetric: ``GaussianState`` checks it.
    """
    omega = _omega(state.n_modes)
    nu = np.sort(np.abs(np.linalg.eigvals(1j * omega @ state.cov)))
    return nu[::2].copy()


def is_physical(state: GaussianState, tol: float = PHYSICALITY_TOL) -> bool:
    return bool(symplectic_eigenvalues(state).min() >= VACUUM_VARIANCE - tol)


def assert_physical(state: GaussianState, tol: float = PHYSICALITY_TOL,
                    context: str = "") -> None:
    """Raise PhysicalityError unless all symplectic eigenvalues are >= 1/4 - tol."""
    nu_min = symplectic_eigenvalues(state).min()
    if nu_min < VACUUM_VARIANCE - tol:
        where = f" in {context}" if context else ""
        raise PhysicalityError(
            f"unphysical state{where}: smallest symplectic eigenvalue "
            f"{nu_min:.12g} < {VACUUM_VARIANCE}"
        )
