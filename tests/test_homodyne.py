import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from telecloning import (
    DegenerateVarianceError,
    GaussianState,
    QuadratureSelector,
    SqueezerSpec,
    build_telecloning_resource,
    coherent,
    condition_on,
    is_physical,
    marginal,
    shot_normals,
    shot_stream,
    squeezed_vacuum,
    tensor,
    vacuum,
)
from telecloning.homodyne import _ndtri, _to_normal, conditional
from helpers import random_selector, random_state, reference_condition_on

X0 = QuadratureSelector(0, "x")
P0 = QuadratureSelector(0, "p")


def test_selector_rejects_bad_quadrature():
    with pytest.raises(ValueError):
        QuadratureSelector(0, "y")


def test_marginal_of_vacuum():
    assert marginal(vacuum(2), X0) == (0.0, 0.25)
    assert marginal(vacuum(2), QuadratureSelector(1, "p")) == (0.0, 0.25)


def test_marginal_of_coherent():
    assert marginal(coherent([5 + 3j]), X0) == (5.0, 0.25)


def test_marginal_of_squeezed_vacuum():
    st = squeezed_vacuum(0.9, 0.1)
    assert marginal(st, P0) == (0.0, pytest.approx(0.1))


def test_marginal_rejects_out_of_range_mode():
    with pytest.raises(ValueError):
        marginal(vacuum(1), QuadratureSelector(3, "x"))


def test_conditioned_covariance_is_outcome_independent():
    st = random_state(np.random.default_rng(0), 3)
    sel = QuadratureSelector(1, "x")
    a = condition_on(st, sel, -2.0)
    b = condition_on(st, sel, 5.5)
    assert np.allclose(a.cov, b.cov, atol=1e-12)
    assert not np.allclose(a.mean, b.mean)  # correlated state shifts


def test_conditioning_product_state_leaves_rest_untouched():
    other = squeezed_vacuum(0.1, 0.7)
    st = tensor(coherent([2 + 1j]), other)
    out = condition_on(st, X0, 1.3)
    assert np.allclose(out.mean, other.mean)
    assert np.allclose(out.cov, other.cov)


def test_conditioning_vacuum_mode_changes_nothing():
    st = tensor(vacuum(1), squeezed_vacuum(0.3, 0.4))
    out = condition_on(st, X0, 0.8)
    assert np.allclose(out.cov, np.diag([0.3, 0.4]))
    assert np.allclose(out.mean, 0.0)


def test_conditioning_resource_arm_reduces_partner_variance():
    # measuring x on mode A sharpens x of the correlated mode B
    spec = SqueezerSpec.pure(7.6555137067572675)
    res = build_telecloning_resource(spec, spec)
    sel = QuadratureSelector(0, "x")
    before = res.cov[2, 2]
    after = condition_on(res, sel, 0.0).cov[0, 0]
    assert after < before - 1e-6


def test_conditioned_state_is_physical():
    rng = np.random.default_rng(1)
    for _ in range(20):
        st = random_state(rng, 3)
        sel = QuadratureSelector(int(rng.integers(3)), "xp"[rng.integers(2)])
        out = condition_on(st, sel, float(rng.normal(0, 2)))
        assert is_physical(out)


def test_conditioning_never_increases_kept_covariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        st = random_state(rng, 3)
        sel = QuadratureSelector(int(rng.integers(3)), "xp"[rng.integers(2)])
        keep = [m for m in range(3) if m != sel.mode]
        idx = [2 * m + q for m in keep for q in (0, 1)]
        prior = st.cov[np.ix_(idx, idx)]
        post = condition_on(st, sel, 0.0).cov
        assert np.linalg.eigvalsh(prior - post).min() > -1e-10


def test_conditioning_degenerate_variance_raises():
    narrow = squeezed_vacuum(1e-14, 0.0625 / 1e-14)
    st = tensor(narrow, vacuum(1))
    with pytest.raises(DegenerateVarianceError):
        condition_on(st, X0, 0.0)


def test_conditioning_single_mode_state_rejected():
    with pytest.raises(ValueError):
        condition_on(vacuum(1), X0, 0.0)


def test_condition_on_matches_rank_one_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        st = random_state(rng, int(rng.integers(2, 5)))
        sel = random_selector(rng, st.n_modes)
        value = float(rng.normal(0, 2))
        out = condition_on(st, sel, value)
        ref = reference_condition_on(st, sel, value)
        np.testing.assert_allclose(out.mean, ref.mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.cov, ref.cov, rtol=1e-12, atol=1e-12)


def successive_conditioning(state, first, second):
    """Gain and covariance of conditioning on two quadratures one at a time.

    The gain columns are the conditional means of a zero-mean copy at unit
    outcomes; ``second`` names its mode in the original numbering.
    """
    zero = GaussianState(np.zeros_like(state.mean), state.cov)
    second_after = QuadratureSelector(second.mode - (second.mode > first.mode),
                                      second.which)
    columns = [condition_on(condition_on(zero, first, a), second_after, b)
               for a, b in ((1.0, 0.0), (0.0, 1.0))]
    return np.column_stack([c.mean for c in columns]), columns[0].cov


def blocks(cov, q, keep):
    """The readout, cross and kept blocks C_QQ, C_KQ and C_KK of ``cov``."""
    return cov[np.ix_(q, q)], cov[np.ix_(keep, q)], cov[np.ix_(keep, keep)]


def unmeasured(n_modes, *sels):
    """Quadrature indices of the modes no selector reads."""
    return [j for j in range(2 * n_modes) if j // 2 not in {sel.mode for sel in sels}]


def assert_close_relative(actual, expected, rtol=1e-12):
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


def test_joint_conditioning_equals_successive():
    rng = np.random.default_rng(8)
    for _ in range(20):
        st = random_state(rng, int(rng.integers(3, 5)))
        first, second = (QuadratureSelector(int(m), "xp"[rng.integers(2)])
                         for m in rng.choice(st.n_modes, size=2, replace=False))
        gain, cov = conditional(*blocks(st.cov, [first.index(), second.index()],
                                        unmeasured(st.n_modes, first, second)))
        gain_seq, cov_seq = successive_conditioning(st, first, second)
        assert_close_relative(gain, gain_seq)
        assert_close_relative(cov, cov_seq)
        assert np.array_equal(cov, cov.T)


def test_joint_conditioning_rejects_bad_selectors():
    # ``condition_on`` derives its indices from the selector and checks them;
    # ``conditional`` takes sliced blocks and checks the readout's variances
    st = random_state(np.random.default_rng(9), 2)
    with pytest.raises(ValueError, match=r"^modes \[2\] out of range for 2-mode state$"):
        condition_on(st, QuadratureSelector(2, "x"), 0.0)
    with pytest.raises(ValueError, match="^conditioning drops the measured modes; "
                                         "need at least one more$"):
        condition_on(vacuum(1), X0, 0.0)  # nothing left
    narrow = tensor(squeezed_vacuum(0.5, 0.5), squeezed_vacuum(1e-14, 0.0625 / 1e-14),
                    vacuum(1))
    x1 = QuadratureSelector(1, "x")
    with pytest.raises(DegenerateVarianceError):
        conditional(*blocks(narrow.cov, [X0.index(), x1.index()], unmeasured(3, X0, x1)))


def outcomes(state, sel, seed, n):
    """Readouts of ``sel`` on shots 0..n-1: the marginal mean plus its
    standard deviation times each shot's first draw."""
    m, v = marginal(state, sel)
    return m + np.sqrt(v) * shot_normals(seed, 0, n, 1)[:, 0]


def test_sampling_is_seed_deterministic():
    st = random_state(np.random.default_rng(3), 2)
    for seed in (11, -17):
        values = outcomes(st, X0, seed, 2)
        assert np.array_equal(values, outcomes(st, X0, seed, 2))
        assert values[0] != values[1]  # each shot draws its own value
        assert values[0] != outcomes(st, X0, seed + 1, 1)[0]
        # the conditioned state follows its outcome bit for bit
        assert np.array_equal(condition_on(st, X0, values[0]).mean,
                              condition_on(st, X0, outcomes(st, X0, seed, 1)[0]).mean)
    # seeds that agree mod 2**64 key the same generator
    assert np.array_equal(outcomes(st, X0, -17, 3), outcomes(st, X0, 2**64 - 17, 3))


def test_shot_stream_handles_negative_seed():
    a = shot_stream(-17, 3).normal()
    b = shot_stream(-17, 3).normal()
    assert a == b
    with pytest.raises(ValueError):
        shot_stream(5, -1)


def test_outcome_variance_matches_marginal():
    # 1e5 vacuum samples: sample variance within 5 standard errors of 1/4
    n = 100_000
    values = outcomes(vacuum(2), X0, 5, n)
    se = 0.25 * np.sqrt(2.0 / (n - 1))
    assert abs(values.var(ddof=1) - 0.25) < 5 * se
    assert abs(values.mean()) < 5 * np.sqrt(0.25 / n)


def test_law_of_total_expectation():
    # averaging conditioned means over sampled outcomes recovers the prior
    # mean; the gain of ``conditional`` applied to all outcomes at once gives
    # the means ``condition_on`` gives one outcome at a time
    st = random_state(np.random.default_rng(4), 2)
    sel = QuadratureSelector(0, "p")
    n = 100_000
    values = outcomes(st, sel, 6, n)
    keep = unmeasured(st.n_modes, sel)
    gain, _ = conditional(*blocks(st.cov, [sel.index()], keep))
    conditioned = st.mean[keep] + (values - st.mean[sel.index()])[:, None] * gain[:, 0]
    for j in (0, 1, 99_999):
        assert np.array_equal(conditioned[j], condition_on(st, sel, values[j]).mean)
    prior = st.mean[keep]
    spread = conditioned.std(axis=0, ddof=1)
    assert np.all(np.abs(conditioned.mean(axis=0) - prior) < 5 * spread / np.sqrt(n) + 1e-12)


# seeds beyond int64 reduce mod 2**64 into the key; shot 2**63 puts its
# counter 2j past the low 64-bit word of numpy's 256-bit counter
PHILOX_SEEDS = (0, -17, 2**63 + 5, 2**64 - 1)
PHILOX_SHOTS = (0, 1, 2**32 - 1, 2**32, 2**63)


@pytest.mark.parametrize("draws", (2, 6, 8),
                         ids=("one-block", "part-of-two-blocks", "two-blocks"))
def test_shot_normals_match_numpy_philox(draws):
    for seed in PHILOX_SEEDS:
        for j in PHILOX_SHOTS:
            ref = np.random.Philox(key=seed % 2**64, counter=2 * j).random_raw(8)
            expect = _to_normal(ref[:draws])
            assert np.array_equal(shot_normals(seed, j, 1, draws)[0], expect), (seed, j)


def test_shot_normals_batch_equals_single_shots():
    # the counters of shots 2**63 - 1 .. 2**63 + 1 lie on both sides of 2**64
    for seed, first, n_shots, draws in ((-17, 2**32 - 3, 6, 6), (5, 2**63 - 1, 3, 8)):
        batch = shot_normals(seed, first, n_shots, draws)
        assert batch.shape == (n_shots, draws)
        for i in range(n_shots):
            assert np.array_equal(batch[i], shot_normals(seed, first + i, 1, draws)[0])


def test_extreme_words_map_to_finite_normals():
    words = np.array([0, 2**64 - 1], dtype=np.uint64)
    z = _to_normal(words)
    assert np.all(np.isfinite(z))
    assert z[0] == -z[1]
    assert _to_normal(0) == z[0] and _to_normal(2**64 - 1) == z[1]


def test_shot_normals_rejects_out_of_range_shots():
    with pytest.raises(ValueError):
        shot_normals(1, -1, 2, 2)
    with pytest.raises(ValueError):
        shot_normals(1, 2**64 - 1, 2, 2)
    with pytest.raises(ValueError):
        shot_stream(1, 2**64)


def test_a_shot_has_eight_draws():
    with pytest.raises(ValueError):
        shot_normals(3, 0, 1, 9)
    stream = shot_stream(3, 0)
    for _ in range(8):
        stream.normal()
    with pytest.raises(ValueError):
        stream.normal()


def test_shot_stream_draws_equal_shot_normals():
    for seed, j in ((3, 0), (-17, 2**32), (2**64 - 1, 12345)):
        stream = shot_stream(seed, j)
        drawn = [stream.normal() for _ in range(6)]
        assert drawn == shot_normals(seed, j, 1, 6)[0].tolist()
    # location and scale are applied as loc + scale * z
    z = shot_normals(8, 2, 1, 1)[0, 0]
    assert shot_stream(8, 2).normal(1.5, 0.25) == 1.5 + 0.25 * z


# the bins of the 52-bit map whose midpoints sit at Cephes's branch edges:
# exp(-2) and 1 - exp(-2) bound the central rational, exp(-32) splits the tails
EXP_M2, EXP_M32 = math.exp(-2.0), math.exp(-32.0)
EDGE_BINS = [int(v * 2**52 - 0.5) for v in (EXP_M2, 1.0 - EXP_M2, EXP_M32)]
ORACLE_BINS = sorted({*range(50), *(2**52 - 1 - k for k in range(50)),
                      *(2**i for i in range(52)),
                      *(b + d for b in EDGE_BINS for d in range(-2, 3))})


def bin_midpoints(bins):
    return (np.array(bins, dtype=np.uint64) + 0.5) * 2.0**-52


def is_central(u):
    return (u > EXP_M2) & (u <= 1.0 - EXP_M2)


def test_ndtri_equals_scipy_on_philox_words():
    words = np.random.Philox(key=20240601).random_raw(1_200_000)
    u = ((words >> 12) + 0.5) * 2.0**-52
    u = np.concatenate([u, bin_midpoints(ORACLE_BINS)])
    ours, theirs = _ndtri(u), ndtri(u)
    central = is_central(u)
    assert 0.7 < central.mean() < 0.76
    assert np.array_equal(ours[central], theirs[central])
    tail = ~central
    ulps = np.abs(ours[tail] - theirs[tail]) / np.spacing(np.abs(theirs[tail]))
    assert ulps.max() <= 8
    # numpy's log and the C library's differ in the last bit on few inputs,
    # so nearly every tail value is still scipy's, also beyond exp(-32)
    assert np.mean(ours[tail] != theirs[tail]) < 1e-3
    far = (u < EXP_M32) | (u > 1.0 - EXP_M32)
    assert far.sum() >= 100 and np.mean(ours[far] != theirs[far]) < 0.05


def test_ndtri_matches_mpmath_erfinv():
    u = bin_midpoints(ORACLE_BINS)
    z = _ndtri(u)
    with mpmath.workdps(40):
        exact = [mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(v)) - 1) for v in u]
        worst = max(abs((mpmath.mpf(float(a)) - b) / b) for a, b in zip(z, exact))
    assert worst <= 1e-15


def test_to_normal_is_odd_in_the_word():
    # word 2**64 - 1 - w lands in bin 2**52 - 1 - k, at midpoint 1 - u
    words = np.concatenate([np.random.Philox(key=77).random_raw(200_000),
                            np.array(ORACLE_BINS, dtype=np.uint64) << np.uint64(12)])
    z, mirrored = _to_normal(words), _to_normal(~words)
    u = ((words >> 12) + 0.5) * 2.0**-52
    # exp(-2) is itself a bin midpoint: it takes the tail branch and its
    # mirror 1 - exp(-2) the central one, which round apart
    edge = (u == EXP_M2) | (u == 1.0 - EXP_M2)
    assert edge.sum() == 2
    assert np.array_equal(z[~edge], -mirrored[~edge])
    assert np.all(np.abs(z[edge] + mirrored[edge]) <= np.spacing(np.abs(z[edge])))


def test_ndtri_takes_scalars_and_any_shape():
    z = _ndtri(0.3)
    assert isinstance(z, np.float64) and z == ndtri(0.3)
    assert _ndtri(np.array(0.975)) == ndtri(0.975)
    assert _ndtri(np.empty(0)).shape == (0,)
    assert _ndtri(np.empty((0, 3))).shape == (0, 3)
    grid = np.linspace(0.01, 0.99, 12).reshape(3, 4)
    assert np.array_equal(_ndtri(grid), _ndtri(grid.ravel()).reshape(3, 4))
    assert _to_normal(5) == _to_normal(np.array([5], dtype=np.uint64))[0]
    assert _to_normal(np.empty((0, 2), dtype=np.uint64)).shape == (0, 2)
