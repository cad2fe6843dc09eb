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
    sample_homodyne,
    shot_normals,
    shot_stream,
    squeezed_vacuum,
    tensor,
    vacuum,
)
from telecloning.homodyne import _philox_words, _to_normal, conditional
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
    res = build_telecloning_resource(spec, spec).state
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


def assert_close_relative(actual, expected, rtol=1e-12):
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


def test_joint_conditioning_equals_successive():
    rng = np.random.default_rng(8)
    for _ in range(20):
        st = random_state(rng, int(rng.integers(3, 5)))
        first, second = (QuadratureSelector(int(m), "xp"[rng.integers(2)])
                         for m in rng.choice(st.n_modes, size=2, replace=False))
        keep, gain, cov = conditional(st, [first, second])
        assert keep.tolist() == [j for j in range(st.mean.size)
                                 if j // 2 not in (first.mode, second.mode)]
        gain_seq, cov_seq = successive_conditioning(st, first, second)
        assert_close_relative(gain, gain_seq)
        assert_close_relative(cov, cov_seq)
        assert np.array_equal(cov, cov.T)


def test_joint_conditioning_rejects_bad_selectors():
    st = random_state(np.random.default_rng(9), 2)
    with pytest.raises(ValueError, match="duplicate"):
        conditional(st, [X0, P0])
    with pytest.raises(ValueError, match="out of range"):
        conditional(st, [QuadratureSelector(2, "x")])
    with pytest.raises(ValueError):
        conditional(st, [X0, QuadratureSelector(1, "p")])  # nothing left
    narrow = tensor(squeezed_vacuum(0.5, 0.5), squeezed_vacuum(1e-14, 0.0625 / 1e-14),
                    vacuum(1))
    with pytest.raises(DegenerateVarianceError):
        conditional(narrow, [X0, QuadratureSelector(1, "x")])


def test_sampling_is_seed_deterministic():
    st = random_state(np.random.default_rng(3), 2)
    out1, st1 = sample_homodyne(st, X0, shot_stream(11, 0))
    out2, st2 = sample_homodyne(st, X0, shot_stream(11, 0))
    assert out1.value == out2.value
    assert np.array_equal(st1.mean, st2.mean)
    out3, _ = sample_homodyne(st, X0, shot_stream(11, 1))
    assert out3.value != out1.value


def test_shot_stream_handles_negative_seed():
    a = shot_stream(-17, 3).normal()
    b = shot_stream(-17, 3).normal()
    assert a == b
    with pytest.raises(ValueError):
        shot_stream(5, -1)


def test_outcome_variance_matches_marginal():
    # 1e5 vacuum samples: sample variance within 5 standard errors of 1/4
    n = 100_000
    values = np.array([
        sample_homodyne(vacuum(2), X0, shot_stream(5, j))[0].value
        for j in range(n)
    ])
    se = 0.25 * np.sqrt(2.0 / (n - 1))
    assert abs(values.var(ddof=1) - 0.25) < 5 * se
    assert abs(values.mean()) < 5 * np.sqrt(0.25 / n)


def test_law_of_total_expectation():
    # averaging conditioned means over sampled outcomes recovers the prior mean
    st = random_state(np.random.default_rng(4), 2)
    sel = QuadratureSelector(0, "p")
    n = 100_000
    keep_idx = [2, 3]
    conditioned = np.empty((n, 2))
    for j in range(n):
        _, post = sample_homodyne(st, sel, shot_stream(6, j))
        conditioned[j] = post.mean
    prior = st.mean[keep_idx]
    spread = conditioned.std(axis=0, ddof=1)
    assert np.all(np.abs(conditioned.mean(axis=0) - prior) < 5 * spread / np.sqrt(n) + 1e-12)


# seeds beyond int64 and shot indices on either side of 2**32 exercise the
# carries between the 32-bit halves of the Philox multiply and key bumps
PHILOX_SEEDS = (0, -17, 2**63 + 5, 2**64 - 1)
PHILOX_SHOTS = (0, 1, 2**32 - 1, 2**32, 2**63)


@pytest.mark.parametrize("draws", (4, 8), ids=("one-block", "two-blocks"))
def test_shot_normals_match_numpy_philox(draws):
    for seed in PHILOX_SEEDS:
        for j in PHILOX_SHOTS:
            key = np.array([seed % 2**64, j], dtype=np.uint64)
            ref = np.random.Philox(key=key).random_raw(draws)
            words = _philox_words(seed, np.array([j], dtype=np.uint64), draws)
            assert np.array_equal(words[:, 0], ref), (seed, j)
            expect = ndtri(((ref >> 12) + 0.5) * 2.0**-52)
            assert np.array_equal(shot_normals(seed, j, 1, draws)[0], expect)


def test_shot_normals_batch_equals_single_shots():
    batch = shot_normals(-17, 2**32 - 3, 6, 6)
    assert batch.shape == (6, 6)
    for i in range(6):
        assert np.array_equal(batch[i], shot_normals(-17, 2**32 - 3 + i, 1, 6)[0])


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


def test_shot_stream_draws_equal_shot_normals():
    for seed, j in ((3, 0), (-17, 2**32), (2**64 - 1, 12345)):
        stream = shot_stream(seed, j)
        drawn = [stream.normal() for _ in range(6)]
        assert drawn == shot_normals(seed, j, 1, 6)[0].tolist()
    # location and scale are applied as loc + scale * z
    z = shot_normals(8, 2, 1, 1)[0, 0]
    assert shot_stream(8, 2).normal(1.5, 0.25) == 1.5 + 0.25 * z
