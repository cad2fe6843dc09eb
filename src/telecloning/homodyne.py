"""Homodyne detection of quadratures.

An ideal homodyne detector reads out exactly one quadrature of one mode.
Reading out quadratures Q (one per measured mode) updates the quadratures
K of the other modes by the Gaussian conditional rule, a Schur complement
(Weedbrook et al., RMP 84, 621 (2012)), written once in ``conditional``:

    gain    = C_KQ C_QQ^-1
    mean_K' = mean_K + gain (value_Q - mean_Q)
    cov_K'  = C_KK - gain C_KQ^T

The conjugate quadrature of a measured mode is destroyed by the readout,
so measured modes are dropped entirely.

Detector inefficiency is modeled upstream by a loss channel on the mode
before the ideal measurement.

Sampling is reproducible and counter based (Salmon et al., SC'11,
"Parallel random numbers: as easy as 1, 2, 3"). Draw k of Monte Carlo
shot j is raw word k of Philox4x64-10 keyed by (seed mod 2**64, j),
mapped to a standard normal by the inverse normal CDF (``RNG_CONTRACT``).
``shot_normals`` computes those draws for a whole range of shots at once
as numpy arrays; ``shot_stream(seed, j)`` hands out the same draws of one
shot one at a time, from numpy's own Philox. Shot j therefore depends
only on (seed, j), never on how many shots run or in what order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _quadrature_indices

DEGENERATE_VARIANCE_TOL = 1e-12

# version of the (seed, shot, draw) -> value map; change it whenever any
# per-shot value changes
RNG_CONTRACT = "philox4x64-10/ndtri52/v2"

# Philox4x64 round multipliers and Weyl key increments
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


class DegenerateVarianceError(ValueError):
    """Marginal variance is too small to condition on."""


@dataclass(frozen=True)
class QuadratureSelector:
    """Which quadrature ('x' or 'p') of which mode to measure."""

    mode: int
    which: str

    def __post_init__(self):
        if self.which not in ("x", "p"):
            raise ValueError(f"which must be 'x' or 'p', got {self.which!r}")

    def index(self) -> int:
        return 2 * self.mode + (0 if self.which == "x" else 1)


@dataclass(frozen=True)
class HomodyneOutcome:
    value: float
    selector: QuadratureSelector


def marginal(state: GaussianState, sel: QuadratureSelector) -> tuple[float, float]:
    """Mean and variance of the selected quadrature."""
    _quadrature_indices(state.n_modes, [sel.mode])
    i = sel.index()
    return float(state.mean[i]), float(state.cov[i, i])


def conditional(state: GaussianState, sels: Sequence[QuadratureSelector]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional rule for a joint readout of quadratures of distinct modes:
    ``(keep, gain, cov)``, the quadrature indices of the unmeasured modes,
    the gain C_KQ C_QQ^-1 and their outcome-independent covariance."""
    measured = [sel.mode for sel in sels]
    _quadrature_indices(state.n_modes, measured)  # range and duplicate check
    keep = np.array([j for j in range(state.mean.size) if j // 2 not in measured])
    if not keep.size:
        raise ValueError("conditioning drops the measured modes; need at least one more")
    q = np.array([sel.index() for sel in sels])
    sigma = state.cov[q[:, None], q]
    v_min = sigma.diagonal().min()
    if v_min < DEGENERATE_VARIANCE_TOL:
        raise DegenerateVarianceError(
            f"marginal variance {v_min:.3e} is degenerate; cannot condition"
        )
    cross = state.cov[keep[:, None], q]
    gain = np.linalg.solve(sigma.T, cross.T).T
    cond = state.cov[keep[:, None], keep] - gain @ cross.T
    # enforce exact symmetry against rounding in the update
    return keep, gain, 0.5 * (cond + cond.T)


def condition_on(state: GaussianState, sel: QuadratureSelector,
                 value: float) -> GaussianState:
    """State of the unmeasured modes given an observed quadrature value."""
    keep, gain, cov = conditional(state, [sel])
    i = sel.index()
    return GaussianState(state.mean[keep] + gain[:, 0] * (value - state.mean[i]), cov)


def sample_homodyne(state: GaussianState, sel: QuadratureSelector,
                    rng) -> tuple[HomodyneOutcome, GaussianState]:
    """Draw an outcome from the marginal and return the conditioned state.

    ``rng`` is anything with ``normal(loc, scale)``: a numpy ``Generator``
    or a ``shot_stream``.
    """
    m, v = marginal(state, sel)
    value = float(rng.normal(m, np.sqrt(v)))
    return HomodyneOutcome(value, sel), condition_on(state, sel, value)


def _mulhilo(a, m):
    """High and low 64-bit words of the 128-bit product a * m.

    The high word is assembled from 32-bit halves; the caller silences
    the (intended) wrap-around of the uint64 products.
    """
    a_lo, a_hi = a & _LO32, a >> _HALF
    m_lo, m_hi = m & _LO32, m >> _HALF
    lo_lo, hi_lo, lo_hi = a_lo * m_lo, a_hi * m_lo, a_lo * m_hi
    carry = ((lo_lo >> _HALF) + (hi_lo & _LO32) + (lo_hi & _LO32)) >> _HALF
    return a_hi * m_hi + (hi_lo >> _HALF) + (lo_hi >> _HALF) + carry, a * m


def _philox_words(seed: int, shots: np.ndarray, n_words: int) -> np.ndarray:
    """Raw words 0..n_words-1 of Philox4x64-10 keyed by (seed, j), per shot j.

    Returns shape (n_words, len(shots)); column i equals
    ``np.random.Philox(key=[seed % 2**64, shots[i]]).random_raw(n_words)``.
    """
    n_blocks = -(-n_words // 4)
    words = np.empty((4 * n_blocks, shots.size), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(n_blocks):
            # numpy increments the counter before it generates a block, so
            # block b has counter (b + 1, 0, 0, 0); the scalars broadcast
            # to arrays once the per-shot key word mixes in
            x0, x1, x2, x3 = np.uint64(b + 1), np.uint64(0), np.uint64(0), np.uint64(0)
            k0, k1 = np.uint64(seed % 2**64), shots
            for r in range(_PHILOX_ROUNDS):
                if r:
                    k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
                hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
                hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
                x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            words[4 * b:4 * b + 4] = x0, x1, x2, x3
    return words[:n_words]


def _to_normal(words):
    """Standard normals from raw 64-bit words (Python ints or uint64 arrays).

    The top 52 bits pick one of 2**52 equal bins of (0, 1) and the bin's
    midpoint goes through the inverse normal CDF. With 52 bits the
    midpoint is exact and stays below 1, so every word maps to a finite
    value.
    """
    from scipy.special import ndtri  # imported here: a slow import only sampling needs

    return ndtri(((words >> 12) + 0.5) * 2.0**-52)


def shot_normals(seed: int, first_shot: int, n_shots: int, draws: int) -> np.ndarray:
    """Standard normals for shots first_shot .. first_shot + n_shots - 1.

    Returns shape (n_shots, draws). Row i holds draws 0..draws-1 of shot
    first_shot + i, the same values ``shot_stream`` yields for that shot.
    """
    if first_shot < 0 or n_shots < 0 or first_shot + n_shots > 2**64:
        raise ValueError("shot indices must lie in [0, 2**64)")
    shots = np.uint64(first_shot) + np.arange(n_shots, dtype=np.uint64)
    return _to_normal(_philox_words(seed, shots, draws)).T


class _ShotStream:
    """The draws of one shot in order, one ``normal`` call per draw."""

    def __init__(self, key: np.ndarray):
        self._next_word = np.random.Philox(key=key).random_raw

    def normal(self, loc=0.0, scale=1.0):
        return loc + scale * _to_normal(self._next_word())


def shot_stream(seed: int, shot_index: int) -> _ShotStream:
    """Independent deterministic stream for one Monte Carlo shot.

    Streams are keyed by (seed, shot index) in a counter-based generator,
    so shot j draws the same numbers no matter how many shots run or in
    what order. Draw k equals ``shot_normals(seed, j, 1, k + 1)[0, k]``.
    """
    if shot_index < 0:
        raise ValueError("shot index must be non-negative")
    key = np.array([seed % 2**64, shot_index], dtype=np.uint64)
    return _ShotStream(key)
