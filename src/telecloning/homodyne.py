"""Homodyne detection of quadratures.

An ideal homodyne detector reads out exactly one quadrature of one mode.
Reading out quadratures Q (one per measured mode) updates the quadratures
K of the other modes by the Gaussian conditional rule, a Schur complement
(Weedbrook et al., RMP 84, 621 (2012)):

    gain    = C_KQ C_QQ^-1
    mean_K' = mean_K + gain (value_Q - mean_Q)
    cov_K'  = C_KK - gain C_KQ^T

The rule is written once, in ``conditional``, on the blocks C_QQ, C_KQ
and C_KK that its caller slices: it returns gain and cov_K', and callers
apply the mean update. Measured modes are dropped: the readout destroys
their conjugate quadratures. ``condition_on`` slices the blocks of one
quadrature of a ``GaussianState``; the protocol slices its joint readout.

Detector inefficiency is a loss channel on the mode ahead of the readout.

Sampling is reproducible and counter based (Salmon et al., SC'11,
"Parallel random numbers: as easy as 1, 2, 3"). numpy's Philox4x64-10 is
keyed by seed mod 2**64 and shot j owns the 8 raw words at counter 2j
(two 4-word blocks); draw k of the shot is word k, mapped to a standard
normal by the inverse normal CDF (``RNG_CONTRACT``). That CDF is the
Cephes ``ndtri`` (Moshier, "Methods and Programs for Mathematical
Functions", 1989) evaluated with numpy in ``_ndtri``. Draws repeat exactly
on one host; across hosts, numpy's ``log`` may round a tail value
differently, so draws agree to a few ulp. ``shot_normals``
reads a whole range of shots in one call, the only way the package draws;
``shot_stream(seed, j)`` hands out the draws of one shot one at a time,
for the benchmark's tracer. A shot has 8 draws, so shot j depends only on
(seed, j), never on how many shots run or in what order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _quadrature_indices

DEGENERATE_VARIANCE_TOL = 1e-12

# version of the (seed, shot, draw) -> value map; change it whenever any
# per-shot value changes
RNG_CONTRACT = "philox4x64-10/ctr2j/ndtri52/v4"

# raw words (draws) per Monte Carlo shot: two Philox4x64 blocks
_WORDS_PER_SHOT = 8
# shots a run can hold: the contract indexes them 0 .. 2**64 - 1
MAX_SHOTS = 2**64


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


def conditional(sigma: np.ndarray, cross: np.ndarray, kept: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Conditional rule for a joint readout, on the blocks its caller sliced:
    ``sigma`` = C_QQ, ``cross`` = C_KQ and ``kept`` = C_KK. Returns the gain
    C_KQ C_QQ^-1 and the outcome-independent covariance of the kept
    quadratures."""
    v_min = sigma.diagonal().min()
    if v_min < DEGENERATE_VARIANCE_TOL:
        raise DegenerateVarianceError(
            f"marginal variance {v_min:.3e} is degenerate; cannot condition"
        )
    gain = np.linalg.solve(sigma.T, cross.T).T
    cond = kept - gain @ cross.T
    # enforce exact symmetry against rounding in the update
    return gain, 0.5 * (cond + cond.T)


def condition_on(state: GaussianState, sel: QuadratureSelector,
                 value: float) -> GaussianState:
    """State of the unmeasured modes given an observed quadrature value."""
    _quadrature_indices(state.n_modes, [sel.mode])  # range check
    q = [sel.index()]
    keep = _quadrature_indices(state.n_modes, [m for m in range(state.n_modes) if m != sel.mode])
    if not keep.size:
        raise ValueError("conditioning drops the measured modes; need at least one more")
    cov = state.cov
    gain, cond = conditional(cov[np.ix_(q, q)], cov[np.ix_(keep, q)], cov[np.ix_(keep, keep)])
    return GaussianState(state.mean[keep] + gain[:, 0] * (value - state.mean[q[0]]), cond)


# Cephes ndtri (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989), the algorithm behind scipy.special.ndtri. P0/Q0 in
# (y - 1/2)**2 for exp(-2) < y <= 1 - exp(-2); z * P/Q in z = 1/x,
# x = sqrt(-2 log y), for the tails, P1/Q1 while x < 8 and P2/Q2 beyond.
# The Q polynomials are monic; their leading 1 is left out.
_S2PI = 2.50662827463100050242
_EXP_M2 = 0.13533528323661269189  # exp(-2); 1 - _EXP_M2 == _ONE_MINUS_EXP_M2 exactly
_ONE_MINUS_EXP_M2 = 1.0 - _EXP_M2
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ratio(x, p, q, num, den):
    """``(x * P(x)) / Q(x)`` for monic Q, each by Horner in Cephes's order
    (``polevl``, ``p1evl``), written into ``num``; ``den`` is a work buffer."""
    np.multiply(x, p[0], out=num)
    num += p[1]
    for c in p[2:]:
        num *= x
        num += c
    np.add(x, q[0], out=den)
    for c in q[1:]:
        den *= x
        den += c
    num *= x
    num /= den
    return num


def _ndtri(y):
    """Inverse standard normal CDF on the open interval (0, 1), elementwise.

    The Cephes ``ndtri`` evaluated with numpy in its own operation order,
    so it equals ``scipy.special.ndtri`` bit for bit wherever the central
    rational applies. In the tails numpy's ``log`` may differ from the C
    library's in the last bit, which moves a value by a few ulp. The map
    is odd: ``_ndtri(1 - y) == -_ndtri(y)`` except where y or 1 - y is
    exactly exp(-2), the edge of the central branch.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    # the central rational runs on every element: that is cheaper than
    # compacting the ~73% of draws it serves
    ym = flat - 0.5
    y2 = ym * ym
    out = _ratio(y2, _P0, _Q0, ym, np.empty_like(y2))
    np.subtract(flat, 0.5, out=y2)  # y - 1/2 again: ``_ratio`` wrote over ym
    out *= y2
    out += y2
    out *= _S2PI
    del y2  # the tail's temporaries can reuse its memory
    tail = np.flatnonzero((flat <= _EXP_M2) | (flat > _ONE_MINUS_EXP_M2))
    if tail.size:
        t = flat.take(tail)
        upper = t > _ONE_MINUS_EXP_M2
        # the smaller of t and 1 - t is the tail's distance from its end:
        # t itself in the lower tail, and 1 - t, exact for t >= 1/2, in the upper
        t = np.minimum(t, 1.0 - t)
        x = np.log(t)
        x *= -2.0
        np.sqrt(x, out=x)
        x0 = np.log(x)
        x0 /= x
        np.subtract(x, x0, out=x0)
        z = np.divide(1.0, x, out=t)
        far = np.flatnonzero(x >= 8.0)  # t < exp(-32)
        x1 = _ratio(z, _P1, _Q1, np.empty_like(z), x)
        if far.size:
            zf = z.take(far)
            x1[far] = _ratio(zf, _P2, _Q2, np.empty_like(zf), np.empty_like(zf))
        x0 -= x1
        x0 *= upper * 2.0 - 1.0  # +1 in the upper tail, -1 in the lower
        out[tail] = x0
    return out.reshape(y.shape)[()]  # a numpy scalar for a 0-d input


def _to_normal(words):
    """Standard normals from raw 64-bit words (Python ints or uint64 arrays).

    The top 52 bits pick one of 2**52 equal bins of (0, 1) and the bin's
    midpoint goes through the inverse normal CDF ``_ndtri``. With 52 bits
    the midpoint is exact and stays below 1, so every word maps to a
    finite value.
    """
    y = np.asarray(words >> 12, dtype=float)
    y += 0.5
    y *= 2.0**-52
    return _ndtri(y)


def shot_normals(seed: int, first_shot: int, n_shots: int, draws: int) -> np.ndarray:
    """Standard normals for shots first_shot .. first_shot + n_shots - 1.

    Returns shape (n_shots, draws). Row i holds draws 0..draws-1 of shot
    first_shot + i, the same values ``shot_stream`` yields for that shot.
    """
    if first_shot < 0 or n_shots < 0 or first_shot + n_shots > MAX_SHOTS:
        raise ValueError("shot indices must lie in [0, 2**64)")
    if not 0 <= draws <= _WORDS_PER_SHOT:
        raise ValueError(f"a shot has {_WORDS_PER_SHOT} draws, asked for {draws}")
    # a numpy integer is reduced as a Python int, which cannot overflow
    bits = np.random.Philox(key=operator.index(seed) % 2**64, counter=2 * first_shot)
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
