import numpy as np
import pytest

from telecloning import (
    ProtocolConfig,
    SqueezerSpec,
    UndefinedGainError,
    db_to_variance,
    estimate_gains,
    fidelity_general,
    fidelity_report,
    fidelity_unit_gain,
    optimal_squeezing,
    run_analytic,
    run_monte_carlo,
    variance_to_db,
)


def wigner_overlap_quadrature(mean, cov, alpha, half_width=10.0, points=1201):
    """Numerical overlap oracle: pi * integral of the two Wigner functions."""
    xs = np.linspace(-half_width, half_width, points)
    dx = xs[1] - xs[0]
    gx, gp = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gp.ravel()], axis=1)

    def gauss(center, sigma):
        inv = np.linalg.inv(sigma)
        d = pts - center
        quad = np.einsum("ni,ij,nj->n", d, inv, d)
        return np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(np.linalg.det(sigma)))

    w_state = gauss(np.asarray(mean, dtype=float), np.asarray(cov, dtype=float))
    w_coherent = gauss(np.array([alpha.real, alpha.imag]), 0.25 * np.eye(2))
    return np.pi * np.sum(w_state * w_coherent) * dx * dx


def test_unit_gain_identity_case():
    assert fidelity_unit_gain(0.25, 0.25) == pytest.approx(1.0, abs=1e-15)


def test_unit_gain_optimal_point():
    assert fidelity_unit_gain(0.5, 0.5) == pytest.approx(2 / 3, abs=1e-15)


def test_unit_gain_classical_point():
    assert fidelity_unit_gain(0.75, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_unit_gain_measured_noise_levels():
    # 3.74 dB / 4.06 dB measured clone noise sits just below 0.58
    v_x = db_to_variance(3.74)
    v_p = db_to_variance(4.06)
    assert v_x == pytest.approx(0.5915, abs=2e-4)
    assert v_p == pytest.approx(0.6367, abs=2e-4)
    assert fidelity_unit_gain(v_x, v_p) == pytest.approx(0.579, abs=0.005)
    # second clone: 3.79 dB / 4.03 dB
    f2 = fidelity_unit_gain(db_to_variance(3.79), db_to_variance(4.03))
    assert 0.57 < f2 < 0.59


def test_unit_gain_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        fidelity_unit_gain(0.0, 0.5)


def test_unit_gain_strictly_decreasing():
    grid = np.linspace(0.05, 2.0, 40)
    f_x = [fidelity_unit_gain(v, 0.3) for v in grid]
    f_p = [fidelity_unit_gain(0.3, v) for v in grid]
    assert np.all(np.diff(f_x) < 0)
    assert np.all(np.diff(f_p) < 0)


def test_general_identity_case():
    assert fidelity_general([0, 0], 0.25 * np.eye(2), 0j) == pytest.approx(1.0)


def test_general_coherent_overlap():
    # displaced vacuum against another coherent state: exp(-|a-b|^2)
    f = fidelity_general([1.0, 0.0], 0.25 * np.eye(2), 0j)
    assert f == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert f == pytest.approx(0.3679, abs=1e-4)
    beta = 2.0 - 1.5j
    alpha = 0.5 + 0.5j
    f = fidelity_general([beta.real, beta.imag], 0.25 * np.eye(2), alpha)
    assert f == pytest.approx(np.exp(-abs(alpha - beta) ** 2), rel=1e-12)


def test_general_reduces_to_unit_gain():
    rng = np.random.default_rng(0)
    for _ in range(30):
        v_x, v_p = rng.uniform(0.05, 3.0, size=2)
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        f_general = fidelity_general([alpha.real, alpha.imag],
                                     np.diag([v_x, v_p]), alpha)
        assert f_general == pytest.approx(fidelity_unit_gain(v_x, v_p), abs=1e-12)


def test_general_against_numerical_quadrature():
    cases = [
        (np.array([0.3, -0.2]), np.diag([0.5, 0.5]), 0j),
        (np.array([1.0, 2.0]), np.diag([0.6367, 0.5915]), 1 + 2j),
        (np.array([0.0, 0.0]), np.array([[0.4, 0.1], [0.1, 0.3]]), 0.5 - 0.3j),
    ]
    for mean, cov, alpha in cases:
        numeric = wigner_overlap_quadrature(mean, cov, alpha)
        assert fidelity_general(mean, cov, alpha) == pytest.approx(numeric, abs=1e-6)


def test_general_rejects_bad_covariance():
    with pytest.raises(ValueError):
        fidelity_general([0, 0], np.diag([-0.1, 0.2]), 0j)


def test_unit_gain_fidelity_independent_of_alpha():
    _, _, db = optimal_squeezing()
    spec = SqueezerSpec.pure(db)
    values = []
    for alpha in (0j, 1 + 0j, 5 + 3j, -2 + 7j):
        m = run_analytic(ProtocolConfig(spec, spec, input_alpha=alpha))
        values.append(fidelity_report(m, alpha).f_clone1)
    assert np.ptp(values) < 1e-12
    assert values[0] == pytest.approx(2 / 3, abs=1e-9)


def test_fidelity_report_equals_lone_calls_bit_for_bit():
    rng = np.random.default_rng(9)
    _, _, db = optimal_squeezing()
    for _ in range(50):
        spec = SqueezerSpec(db, db + rng.uniform(0.0, 3.0))
        alpha = complex(*rng.uniform(-5, 5, size=2))
        m = run_analytic(ProtocolConfig(spec, spec, input_alpha=alpha,
                                        gains=tuple(rng.uniform(0.5, 1.5, size=4))))
        report = fidelity_report(m, alpha)
        lone = [fidelity_general((c.mean_x, c.mean_p), np.diag([c.var_x, c.var_p]), alpha)
                for c in (m.clone1, m.clone2)]
        assert (report.f_clone1, report.f_clone2) == tuple(lone)
        assert all(type(f) is float for f in (report.f_clone1, report.f_clone2))


def test_fidelity_bounds_and_uniqueness_of_unity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mean = rng.uniform(-2, 2, size=2)
        v = rng.uniform(0.05, 2.0, size=2)
        f = fidelity_general(mean, np.diag(v), complex(*rng.uniform(-2, 2, size=2)))
        assert 0.0 < f <= 1.0
    off = fidelity_general([0.1, 0], 0.25 * np.eye(2), 0j)
    broad = fidelity_general([0, 0], np.diag([0.3, 0.25]), 0j)
    assert off < 1.0 and broad < 1.0


def test_gain_estimates_unit_gain_run():
    _, _, db = optimal_squeezing()
    m = run_analytic(ProtocolConfig(SqueezerSpec.pure(db), SqueezerSpec.pure(db),
                                    input_alpha=5 + 3j))
    g = estimate_gains(m, 5 + 3j)
    assert (g.g_x1, g.g_p1, g.g_x2, g.g_p2) == pytest.approx((1, 1, 1, 1), abs=1e-12)


def test_gain_estimates_recover_configured_gains():
    gains = (0.8, 1.2, 1.0, 1.0)
    config = ProtocolConfig(SqueezerSpec.pure(5), SqueezerSpec.pure(5),
                            input_alpha=4 - 2j, gains=gains)
    g = estimate_gains(run_analytic(config), 4 - 2j)
    assert (g.g_x1, g.g_p1, g.g_x2, g.g_p2) == pytest.approx(gains, abs=1e-9)
    mc, _ = run_monte_carlo(
        ProtocolConfig(SqueezerSpec.pure(5), SqueezerSpec.pure(5),
                       input_alpha=4 - 2j, gains=gains, shots=20_000, seed=3))
    g_mc = estimate_gains(mc, 4 - 2j)
    assert abs(g_mc.g_x1 - 0.8) < 5 * g_mc.se_g_x1
    assert abs(g_mc.g_p1 - 1.2) < 5 * g_mc.se_g_p1


def test_gain_estimates_zero_amplitude_rejected():
    m = run_analytic(ProtocolConfig(SqueezerSpec.pure(5), SqueezerSpec.pure(5)))
    with pytest.raises(UndefinedGainError):
        estimate_gains(m, 0j)


def test_db_conversions():
    assert variance_to_db(0.25) == 0.0
    assert db_to_variance(4.06) == pytest.approx(0.6367, abs=1e-4)
    rng = np.random.default_rng(2)
    for v in rng.uniform(0.01, 5.0, size=20):
        assert db_to_variance(variance_to_db(v)) == pytest.approx(v, rel=1e-12)
    with pytest.raises(ValueError):
        variance_to_db(0.0)


def test_fidelity_general_batch_matches_single_calls_bit_for_bit():
    rng = np.random.default_rng(41)
    n = 500
    mean = rng.uniform(-6.0, 6.0, size=(n, 2))
    cov = np.zeros((n, 2, 2))
    cov[:, 0, 0], cov[:, 1, 1] = rng.uniform(0.2, 5.0, size=(2, n))
    cov[:, 0, 1] = cov[:, 1, 0] = rng.uniform(-0.1, 0.1, size=n)
    batch = fidelity_general(mean, cov, 2 - 1j)
    assert batch.shape == (n,)
    assert batch.tolist() == [fidelity_general(m, c, 2 - 1j) for m, c in zip(mean, cov)]
    grid = fidelity_general(mean.reshape(50, 10, 2), cov.reshape(50, 10, 2, 2), 2 - 1j)
    assert grid.shape == (50, 10) and grid.ravel().tolist() == batch.tolist()


@pytest.mark.parametrize("entry, message", (
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "not symmetric"),
    (np.array([[0.5, 0.0], [0.0, -0.1]]), "not positive definite"),
    (np.array([[np.nan, 0.0], [0.0, 0.5]]), "not symmetric"),
))
def test_fidelity_general_checks_every_batch_entry(entry, message):
    cov = np.tile(np.diag([0.5, 0.5]), (4, 1, 1))
    cov[2] = entry
    with pytest.raises(ValueError, match=message):
        fidelity_general(np.zeros((4, 2)), cov, 0j)


def test_fidelity_unit_gain_elementwise():
    v_x = np.array([0.25, 0.5, 0.75])
    v_p = np.array([0.25, 0.5, 0.75])
    assert fidelity_unit_gain(v_x, v_p).tolist() == [
        fidelity_unit_gain(a, b) for a, b in zip(v_x, v_p)]
    with pytest.raises(ValueError):
        fidelity_unit_gain(v_x, np.array([0.25, 0.0, 0.75]))
