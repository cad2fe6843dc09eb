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
"Parallel random numbers: as easy as 1, 2, 3"). numpy's Philox4x64-10 is
keyed by seed mod 2**64 and shot j owns the 8 raw words at counter 2j
(two 4-word blocks); draw k of the shot is word k, mapped to a standard
normal by the inverse normal CDF (``RNG_CONTRACT``). ``shot_normals``
reads a whole range of shots in one call; ``shot_stream(seed, j)`` hands
out the draws of one shot one at a time. A shot has 8 draws, so shot j
depends only on (seed, j), never on how many shots run or in what order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _quadrature_indices

DEGENERATE_VARIANCE_TOL = 1e-12

# version of the (seed, shot, draw) -> value map; change it whenever any
# per-shot value changes
RNG_CONTRACT = "philox4x64-10/ctr2j/ndtri52/v3"

# raw words (draws) per Monte Carlo shot: two Philox4x64 blocks
_WORDS_PER_SHOT = 8


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
                    rng) -> tuple[float, GaussianState]:
    """Draw an outcome from the marginal: ``(value, conditioned state)``.

    ``rng`` is anything with ``normal(loc, scale)``: a numpy ``Generator``
    or a ``shot_stream``.
    """
    m, v = marginal(state, sel)
    value = float(rng.normal(m, np.sqrt(v)))
    return value, condition_on(state, sel, value)


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
    if not 0 <= draws <= _WORDS_PER_SHOT:
        raise ValueError(f"a shot has {_WORDS_PER_SHOT} draws, asked for {draws}")
    bits = np.random.Philox(key=seed % 2**64, counter=2 * first_shot)
    words = bits.random_raw(_WORDS_PER_SHOT * n_shots).reshape(n_shots, _WORDS_PER_SHOT)
    return _to_normal(words[:, :draws])


class _ShotStream:
    """The draws of one shot in order, one ``normal`` call per draw."""

    def __init__(self, normals: np.ndarray):
        self._normals = iter(normals)

    def normal(self, loc=0.0, scale=1.0):
        z = next(self._normals, None)
        if z is None:
            raise ValueError(f"a shot has only {_WORDS_PER_SHOT} draws")
        return loc + scale * z


def shot_stream(seed: int, shot_index: int) -> _ShotStream:
    """Deterministic stream of the draws of one Monte Carlo shot.

    Draw k equals ``shot_normals(seed, j, 1, k + 1)[0, k]``, so shot j
    draws the same numbers no matter how many shots run or in what order.
    """
    return _ShotStream(shot_normals(seed, shot_index, 1, _WORDS_PER_SHOT)[0])
