from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from telecloning import (
    PhysicalityError,
    SqueezerSpec,
    bipartite_criterion_lhs,
    build_telecloning_resource,
    clone_pair_criterion_lhs,
    optimal_squeezing,
    partial_trace,
    resource_circuit_matrix,
    squeezer_variances,
    symplectic_eigenvalues,
)

SQRT2 = np.sqrt(2.0)
C_MINUS_SQ = ((1 - SQRT2) / 2) ** 2
C_PLUS_SQ = ((1 + SQRT2) / 2) ** 2


def criterion_closed_form(spec_i, spec_ii):
    """Independent evaluation of the criterion from the mode expansion."""
    return (C_MINUS_SQ * (spec_i.antisqueezed_variance + spec_ii.antisqueezed_variance)
            + C_PLUS_SQ * (spec_ii.squeezed_variance + spec_i.squeezed_variance)
            + 0.25)


def pure_spec_of_r(r):
    return SqueezerSpec.pure(20.0 * r * np.log10(np.e))


def test_spec_variances_from_db():
    spec = SqueezerSpec(3.0, 6.0)
    assert spec.squeezed_variance == pytest.approx(0.25 * 10**-0.3)
    assert spec.antisqueezed_variance == pytest.approx(0.25 * 10**0.6)


def test_spec_rejects_impossible_pair():
    with pytest.raises(PhysicalityError):
        SqueezerSpec(10.0, 5.0)


def test_spec_rejects_negative_db():
    with pytest.raises(ValueError):
        SqueezerSpec(-1.0, 3.0)


@pytest.mark.parametrize("levels", ((np.nan, np.nan), (np.inf, np.inf), (3.0, np.nan),
                                    (np.inf, 3.0), (-np.inf, 3.0)))
def test_spec_rejects_non_finite_db(levels):
    # inf dB gives v_sq * v_anti = 0 * inf = NaN, which no bound comparison catches
    with pytest.raises(ValueError, match="finite") as info:
        SqueezerSpec(*levels)
    assert info.type is ValueError
    assert f"{levels[0]} and {levels[1]} dB" in str(info.value)
    with pytest.raises(ValueError, match="nan"):
        squeezer_variances(np.array([1.0, np.nan]), np.array([1.0, 1.0]))


def test_zero_squeezing_gives_uncorrelated_vacua():
    res = build_telecloning_resource(SqueezerSpec.pure(0), SqueezerSpec.pure(0))
    assert np.allclose(res.state.cov, 0.25 * np.eye(6), atol=1e-14)
    assert np.allclose(res.state.mean, 0.0)


def test_circuit_coefficients_match_mode_expansion():
    # rows of the circuit matrix reproduce the telecloning output
    # combination x_in - (x_A - x_B) with the exact coefficient set
    m = resource_circuit_matrix()
    x_noise_1 = -(m[0] - m[2])   # clone 1
    x_noise_2 = -(m[0] - m[4])   # clone 2
    assert np.allclose(x_noise_1[[0, 2, 4]],
                       [(1 - SQRT2) / 2, -(1 + SQRT2) / 2, 1 / SQRT2], atol=1e-12)
    assert np.allclose(x_noise_2[[0, 2, 4]],
                       [(1 - SQRT2) / 2, -(1 + SQRT2) / 2, -1 / SQRT2], atol=1e-12)
    p_noise_1 = m[1] + m[3]
    p_noise_2 = m[1] + m[5]
    assert np.allclose(p_noise_1[[1, 3, 5]],
                       [(1 + SQRT2) / 2, -(1 - SQRT2) / 2, 1 / SQRT2], atol=1e-12)
    assert np.allclose(p_noise_2[[1, 3, 5]],
                       [(1 + SQRT2) / 2, -(1 - SQRT2) / 2, -1 / SQRT2], atol=1e-12)
    # x rows carry no p components and vice versa
    assert np.allclose(x_noise_1[[1, 3, 5]], 0.0)
    assert np.allclose(p_noise_1[[0, 2, 4]], 0.0)


def test_sender_mode_variance_at_optimal_squeezing():
    _, _, db = optimal_squeezing()
    res = build_telecloning_resource(SqueezerSpec.pure(db), SqueezerSpec.pure(db))
    assert res.state.cov[1, 1] == pytest.approx(0.75, abs=1e-12)  # Var(p_A)
    assert res.state.cov[0, 0] == pytest.approx(0.75, abs=1e-12)  # Var(x_A)


def test_criterion_boundary_at_zero_squeezing():
    res = build_telecloning_resource(SqueezerSpec.pure(0), SqueezerSpec.pure(0))
    assert bipartite_criterion_lhs(res, "B") == pytest.approx(1.0, abs=1e-12)


def test_criterion_minimum_value():
    _, _, db = optimal_squeezing()
    res = build_telecloning_resource(SqueezerSpec.pure(db), SqueezerSpec.pure(db))
    assert bipartite_criterion_lhs(res, "B") == pytest.approx(0.5, abs=1e-12)
    assert bipartite_criterion_lhs(res, "C") == pytest.approx(0.5, abs=1e-12)


def test_criterion_covariance_path_equals_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s1, s2 = rng.uniform(0, 10, size=2)
        spec_i = SqueezerSpec(s1, s1 + rng.uniform(0, 3))
        spec_ii = SqueezerSpec(s2, s2 + rng.uniform(0, 3))
        res = build_telecloning_resource(spec_i, spec_ii)
        assert bipartite_criterion_lhs(res, "B") == pytest.approx(
            criterion_closed_form(spec_i, spec_ii), abs=1e-9)


def test_criterion_partner_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        s1, s2 = rng.uniform(0, 8, size=2)
        res = build_telecloning_resource(SqueezerSpec(s1, s1 + 1.0),
                                         SqueezerSpec(s2, s2 + 0.5))
        assert bipartite_criterion_lhs(res, "B") == pytest.approx(
            bipartite_criterion_lhs(res, "C"), abs=1e-12)


def test_receiver_exchange_symmetry_of_covariance():
    res = build_telecloning_resource(SqueezerSpec(5, 6), SqueezerSpec(4, 7))
    swap = np.arange(6)
    swap[[2, 3, 4, 5]] = [4, 5, 2, 3]
    swapped = res.state.cov[np.ix_(swap, swap)]
    assert np.allclose(swapped, res.state.cov, atol=1e-12)


def test_optimal_squeezing_closed_form():
    r_star, e_minus_2r, db = optimal_squeezing()
    assert e_minus_2r == pytest.approx(0.171573, abs=1e-6)
    assert e_minus_2r == pytest.approx((SQRT2 - 1) / (SQRT2 + 1), rel=1e-14)
    assert db == pytest.approx(7.656, abs=1e-3)
    assert np.exp(-2 * r_star) == pytest.approx(e_minus_2r, rel=1e-14)


def test_numerical_minimization_recovers_optimum():
    def lhs_of_r(r):
        spec = pure_spec_of_r(r)
        return bipartite_criterion_lhs(build_telecloning_resource(spec, spec))

    res = optimize.minimize_scalar(lhs_of_r, bounds=(0.01, 2.0), method="bounded",
                                   options={"xatol": 1e-12})
    r_star, _, _ = optimal_squeezing()
    assert res.x == pytest.approx(r_star, abs=1e-6)
    assert res.fun == pytest.approx(0.5, abs=1e-9)


def test_criterion_below_one_between_zero_and_twice_optimum():
    r_star, _, _ = optimal_squeezing()
    for r in np.linspace(0.05, 2 * r_star - 0.05, 15):
        spec = pure_spec_of_r(r)
        lhs = bipartite_criterion_lhs(build_telecloning_resource(spec, spec))
        assert lhs < 1.0
    at_twice = pure_spec_of_r(2 * r_star)
    lhs_edge = bipartite_criterion_lhs(build_telecloning_resource(at_twice, at_twice))
    assert lhs_edge == pytest.approx(1.0, abs=1e-9)


def test_clone_pair_value_at_zero_squeezing():
    res = build_telecloning_resource(SqueezerSpec.pure(0), SqueezerSpec.pure(0))
    assert clone_pair_criterion_lhs(res) == pytest.approx(1.0, abs=1e-12)


def test_clone_pair_value_reported_at_optimum():
    _, _, db = optimal_squeezing()
    res = build_telecloning_resource(SqueezerSpec.pure(db), SqueezerSpec.pure(db))
    # diagnostic value only, no separability claim attached
    assert clone_pair_criterion_lhs(res) == pytest.approx(2.0, abs=1e-9)


def test_reduced_modes_are_thermal_with_excess_noise():
    res = build_telecloning_resource(SqueezerSpec.pure(6), SqueezerSpec.pure(6))
    for mode in range(3):
        single = partial_trace(res.state, [mode])
        assert np.all(np.diag(single.cov) > 0.25 + 1e-6)
        assert symplectic_eigenvalues(single)[0] > 0.25 + 1e-6


def test_lossy_resource_stays_physical_and_symmetric():
    res = build_telecloning_resource(SqueezerSpec(5, 7), SqueezerSpec(5, 7),
                                     eta=(0.95, 0.9, 0.9))
    swap = np.arange(6)
    swap[[2, 3, 4, 5]] = [4, 5, 2, 3]
    assert np.allclose(res.state.cov[np.ix_(swap, swap)], res.state.cov, atol=1e-12)
    assert symplectic_eigenvalues(res.state).min() >= 0.25 - 1e-9


def test_squeezer_variances_apply_spec_checks_elementwise():
    sq = np.array([0.0, 3.5, 7.0])
    anti = np.array([0.0, 8.5, 7.0])
    v_sq, v_anti = squeezer_variances(sq, anti)
    specs = [SqueezerSpec(float(s), float(a)) for s, a in zip(sq, anti)]
    np.testing.assert_allclose(v_sq, [s.squeezed_variance for s in specs], rtol=1e-15)
    np.testing.assert_allclose(v_anti, [s.antisqueezed_variance for s in specs],
                               rtol=1e-15)
    with pytest.raises(ValueError, match="-1.0"):
        squeezer_variances(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(PhysicalityError, match="squeezing 6.0 dB"):
        squeezer_variances(np.array([1.0, 6.0]), np.array([1.0, 3.0]))
    with pytest.raises(FloatingPointError):
        squeezer_variances(np.array([0.0, 1e308]), np.array([0.0, 1e308]))


@pytest.mark.parametrize("eta, message", (
    ((1.0, 1.5, 1.0), "transmissivity must lie in [0, 1], got 1.5"),
    ((-0.1, 1.0, 1.0), "transmissivity must lie in [0, 1], got -0.1"),
    ((1.0, 1.0, np.nan), "transmissivity must lie in [0, 1], got nan"),
))
def test_resource_rejects_out_of_range_transmissivity(eta, message):
    spec = SqueezerSpec.pure(3.0)
    with pytest.raises(ValueError) as got:
        build_telecloning_resource(spec, spec, eta)
    assert type(got.value) is ValueError
    assert str(got.value) == message


@pytest.mark.parametrize("squeezed, antisqueezed, error, message", (
    (-0.1, 1.0, ValueError, "variances must be positive"),
    (0.0, 1.0, ValueError, "variances must be positive"),
    (0.01, 1.0, PhysicalityError,  # below the uncertainty product
     "variance product 1.000e-02 violates the bound 6.250e-02"),
))
def test_resource_rejects_bad_squeezer_variances(squeezed, antisqueezed, error, message):
    # a spec that skipped SqueezerSpec's own checks
    bad = SimpleNamespace(squeezed_variance=squeezed, antisqueezed_variance=antisqueezed)
    good = SqueezerSpec.pure(3.0)
    for spec_i, spec_ii in ((bad, good), (good, bad)):
        with pytest.raises(error) as got:
            build_telecloning_resource(spec_i, spec_ii)
        assert type(got.value) is error
        assert str(got.value) == message
