import warnings

import numpy as np
import pytest
from scipy import optimize

from helpers import reference_clones, reference_fit_scipy, reference_spectra
from telecloning import (
    OPOParams,
    ProtocolConfig,
    SqueezerSpec,
    fidelity_vs_pump,
    fit_params,
    pump_spectra,
    squeezing_spectra,
)
from telecloning.opo import _bounded_min


def test_params_validation():
    with pytest.raises(ValueError):
        OPOParams(0.0)
    with pytest.raises(ValueError):
        OPOParams(100.0, eta_det=1.2)
    with pytest.raises(ValueError):
        OPOParams(100.0, omega=-0.1)


def test_zero_pump_is_vacuum():
    spec = squeezing_spectra(OPOParams(80.0, 0.9, 0.2), 0.0)
    assert spec.squeezing_db == 0.0
    assert spec.antisqueezing_db == 0.0


def test_pump_at_threshold_rejected():
    with pytest.raises(ValueError):
        squeezing_spectra(OPOParams(80.0), 80.0)


def test_squeezing_diverges_toward_threshold():
    params = OPOParams(100.0, eta_det=1.0, omega=0.0)
    near = squeezing_spectra(params, 99.99)
    assert near.squeezing_db > 30.0


def test_asymmetry_strict_for_imperfect_detection():
    params = OPOParams(100.0, eta_det=0.9, omega=0.0)
    for pump in (5.0, 20.0, 60.0, 95.0):
        spec = squeezing_spectra(params, pump)
        assert spec.antisqueezing_db > spec.squeezing_db


def test_spectra_always_physical():
    # v_sq * v_anti >= 1/16 with equality only at unit detection efficiency
    for x2 in np.linspace(0.01, 0.97, 5):
        for eta in np.linspace(0.1, 1.0, 5):
            for omega in (0.0, 0.5, 2.0, 10.0):
                params = OPOParams(100.0, eta, omega)
                spec = squeezing_spectra(params, 100.0 * x2)
                product = spec.squeezed_variance * spec.antisqueezed_variance
                assert product >= 1 / 16 - 1e-12
                if eta == 1.0:
                    assert product == pytest.approx(1 / 16, rel=1e-10)
                else:
                    assert product > 1 / 16


def test_squeezing_monotone_in_pump():
    params = OPOParams(100.0, eta_det=0.95, omega=0.0)
    levels = [squeezing_spectra(params, p).squeezing_db
              for p in np.linspace(0.0, 99.0, 50)]
    assert np.all(np.diff(levels) > 0)


def test_fidelity_curve_reference_points():
    params = OPOParams(100.0, eta_det=1.0, omega=0.0)
    curve = fidelity_vs_pump(params, np.linspace(0.0, 99.0, 200))
    assert curve[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert curve[:, 1].max() <= 2 / 3 + 1e-9
    # optimum where the pure spectra hit the criterion minimum:
    # x^2 = 3 - 2 sqrt(2), i.e. about 17.2 percent of threshold
    peak = curve[np.argmax(curve[:, 1]), 0]
    assert peak == pytest.approx(100.0 * (3 - 2 * np.sqrt(2)), abs=1.0)


def test_fidelity_curve_unimodal():
    params = OPOParams(100.0, eta_det=1.0, omega=0.0)
    fid = fidelity_vs_pump(params, np.linspace(0.0, 99.0, 200))[:, 1]
    rises = np.diff(fid) > 0
    # one contiguous rising stretch followed by one falling stretch
    assert np.sum(np.diff(rises.astype(int)) != 0) == 1


def test_fidelity_capped_for_imperfect_detection():
    for eta in (0.5, 0.8, 0.95, 1.0):
        params = OPOParams(100.0, eta_det=eta, omega=0.1)
        curve = fidelity_vs_pump(params, np.linspace(0.0, 99.0, 120))
        assert curve[:, 1].max() <= 2 / 3 + 1e-9


def test_fit_recovers_generating_parameters():
    truth = OPOParams(120.0, eta_det=0.9, omega=0.0)
    data = []
    for pump in (10.0, 25.0, 45.0, 70.0, 95.0):
        spec = squeezing_spectra(truth, pump)
        data.append((pump, spec.squeezing_db, spec.antisqueezing_db))
    fit = fit_params(data)
    assert fit.params.p_threshold_mw == pytest.approx(120.0, rel=0.01)
    assert fit.params.eta_det == pytest.approx(0.9, rel=0.01)
    assert fit.sum_squared_residual < 1e-10


def test_fit_rejects_underdetermined_data():
    with pytest.raises(ValueError):
        fit_params([(10.0, 1.0, 1.5)])


def test_fit_rejects_duplicate_pump_values():
    with pytest.raises(ValueError):
        fit_params([(10.0, 1.0, 1.5), (10.0, 1.1, 1.6), (20.0, 2.0, 2.5)])


@pytest.mark.parametrize("kwargs", (
    {"p_threshold_mw": float("nan")},
    {"p_threshold_mw": float("inf")},
    {"p_threshold_mw": 100.0, "omega": float("nan")},
    {"p_threshold_mw": 100.0, "omega": float("inf")},
))
def test_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError):
        OPOParams(**kwargs)


def _noisy_data(seed, points=12):
    """Seeded noisy calibration points from random generating parameters."""
    rng = np.random.default_rng(seed)
    truth = OPOParams(rng.uniform(80.0, 200.0), rng.uniform(0.5, 0.95))
    data = []
    for pump in np.sort(rng.uniform(0.05, 0.9, size=points)) * truth.p_threshold_mw:
        spec = squeezing_spectra(truth, float(pump))
        data.append((float(pump), spec.squeezing_db + rng.normal(0.0, 0.05),
                     spec.antisqueezing_db + rng.normal(0.0, 0.05)))
    return data


@pytest.mark.parametrize("column", (0, 1, 2))
@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
def test_fit_rejects_non_finite_row(column, value):
    data = [list(row) for row in _noisy_data(3)]
    data[4][column] = value
    with pytest.raises(ValueError, match="data row 4"):
        fit_params(data)


def test_fit_rejects_negative_pump():
    data = [list(row) for row in _noisy_data(3)]
    data[0][0] = -1.0
    with pytest.raises(ValueError, match="data row 0"):
        fit_params(data)


def test_no_detected_squeezing_gives_exactly_0_db():
    # at eta_det = 0 the model's 0 dB squeezing rounds to either side of zero
    params = OPOParams(100.0, 0.0)
    for p in np.linspace(0.0, 99.99, 401):
        spec = squeezing_spectra(params, float(p))
        assert (spec.squeezing_db, spec.antisqueezing_db) == (0.0, 0.0)
    squeezing, antisqueezing = pump_spectra(params, np.linspace(0.0, 99.99, 401))
    assert np.all(squeezing == 0.0) and np.all(antisqueezing == 0.0)


def test_pump_spectra_match_scalar_bit_for_bit():
    pumps = np.concatenate([[0.0, 1e-12], np.linspace(0.0, 99.99, 401),
                            np.random.default_rng(1).uniform(0.0, 100.0, 200)])
    for eta in (0.3, 0.9, 1.0):
        for omega in (0.0, 0.5, 3.0):
            params = OPOParams(100.0, eta, omega)
            squeezing, antisqueezing = pump_spectra(params, pumps)
            specs = [squeezing_spectra(params, float(p)) for p in pumps]
            assert squeezing.tolist() == [s.squeezing_db for s in specs]
            assert antisqueezing.tolist() == [s.antisqueezing_db for s in specs]
            reference = np.array([reference_spectra(params, float(p)) for p in pumps])
            np.testing.assert_allclose(squeezing, reference[:, 0], rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(antisqueezing, reference[:, 1], rtol=1e-13,
                                       atol=0.0)
            # a zero pump gives +0.0 dB on both paths, never -0.0
            assert not np.signbit(squeezing[0])
            assert not np.signbit(specs[0].squeezing_db)


def test_pump_spectra_reject_pumps_outside_domain():
    params = OPOParams(100.0, 0.9)
    for bad in (-1.0, 100.0, 150.0, float("nan")):
        with pytest.raises(ValueError, match="pump power"):
            pump_spectra(params, np.array([10.0, bad, 20.0]))
    with pytest.raises(ValueError, match="pump power"):
        squeezing_spectra(params, -1.0)


def test_fidelity_vs_pump_matches_per_point_loop():
    for eta, omega in ((1.0, 0.0), (0.8, 0.3)):
        params = OPOParams(120.0, eta, omega)
        pumps = np.linspace(0.0, 119.0, 300)
        unit_gain = ProtocolConfig(SqueezerSpec(0.0, 0.0), SqueezerSpec(0.0, 0.0))
        reference = []
        for p in pumps:
            spec = reference_spectra(params, float(p))
            _, _, var_x, var_p = reference_clones(unit_gain, spec, spec)[0]
            reference.append((float(p), 2.0 / np.sqrt((1.0 + 4.0 * var_x)
                                                      * (1.0 + 4.0 * var_p))))
        # the batch turns dB into variances with numpy's power, the reference
        # with Python's; the two may differ in the last bit
        np.testing.assert_allclose(fidelity_vs_pump(params, pumps), reference,
                                   rtol=1e-13, atol=0.0)


def _reference_fit(data, omega=0.0):
    """The fit as first written: one scalar pump-model call per point."""
    p_max = max(row[0] for row in data)

    def objective(p_th, eta):
        params = OPOParams(p_th, eta, omega)
        total = 0.0
        for p, s_db, a_db in data:
            squeezing_db, antisqueezing_db = reference_spectra(params, p)
            total += (squeezing_db - s_db) ** 2
            total += (antisqueezing_db - a_db) ** 2
        return total

    p_grid = np.geomspace(p_max * 1.02, p_max * 50.0, 60)
    eta_grid = np.linspace(0.05, 1.0, 40)
    _, p_th, eta = min(((objective(p, e), p, e) for p in p_grid for e in eta_grid),
                       key=lambda row: row[0])
    for _ in range(6):
        p_th = float(optimize.minimize_scalar(
            lambda p: objective(p, eta), bounds=(p_max * 1.0001, p_max * 100.0),
            method="bounded", options={"xatol": 1e-10}).x)
        eta = float(optimize.minimize_scalar(
            lambda e: objective(p_th, e), bounds=(1e-6, 1.0), method="bounded",
            options={"xatol": 1e-12}).x)
    return p_th, eta, objective(p_th, eta)


@pytest.mark.parametrize("seed", range(20))
def test_fit_matches_per_point_reference(seed):
    data = _noisy_data(100 + seed)
    fit = fit_params(data)
    p_th, eta, rss = _reference_fit(data)
    assert fit.params.p_threshold_mw == pytest.approx(p_th, rel=1e-9)
    assert fit.params.eta_det == pytest.approx(eta, rel=1e-9)
    assert fit.sum_squared_residual == pytest.approx(rss, rel=1e-9)


@pytest.mark.parametrize("seed", range(60))
def test_fit_equals_scipy_driven_fit(seed):
    data = _noisy_data(300 + seed, points=3 + seed % 12)
    omega = 0.4 if seed % 2 else 0.0
    fit, reference = fit_params(data, omega), reference_fit_scipy(data, omega)
    assert fit == reference
    assert repr(fit) == repr(reference)  # Python floats, not numpy scalars


def test_fit_with_overflowing_residuals_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="least-squares fit"):
            fit_params([(10.0, 1e200, 1.5), (20.0, 2.0, 3.0), (30.0, 3.0, 4.5)])


def _recording(func, calls):
    def recorded(x):
        calls.append(x)
        return func(x)
    return recorded


def _search_problems(rng):
    """Seeded (name, func, lo, hi); squares are products, so the value does
    not depend on whether x arrives as a Python or a numpy float."""
    lo = rng.uniform(-5.0, 5.0)
    hi = lo + rng.uniform(0.1, 20.0)
    c = rng.uniform(lo, hi)
    k = rng.uniform(0.1, 10.0)
    d = rng.normal()
    w = 0.1 * (hi - lo)
    outside = hi + rng.uniform(0.0, 5.0)

    def flat(x):
        t = max(abs(x - c) - w, 0.0)
        return t * t * t * t

    return (
        ("quadratic", lambda x: k * (x - c) * (x - c) + d, lo, hi),
        ("quartic", lambda x: (x - c) * (x - c) * (x - c) * (x - c), lo, hi),
        ("flat-bottomed quartic", flat, lo, hi),
        ("abs", lambda x: abs(x - c), lo, hi),
        ("minimum at lo", lambda x: k * x + d, lo, hi),
        ("minimum at hi", lambda x: d - k * x, lo, hi),
        ("vertex past hi", lambda x: (x - outside) * (x - outside), lo, hi),
    )


@pytest.mark.parametrize("xatol", (1e-5, 1e-10, 1e-12))
@pytest.mark.parametrize("seed", range(8))
def test_bounded_min_equals_scipy_bounded_search(seed, xatol):
    for name, func, lo, hi in _search_problems(np.random.default_rng(seed)):
        ported, scipy_calls = [], []
        x, fun = _bounded_min(_recording(func, ported), lo, hi, xatol)
        res = optimize.minimize_scalar(_recording(func, scipy_calls),
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": xatol})
        assert (x, fun) == (res.x, res.fun), name
        assert ported == scipy_calls and len(ported) == res.nfev, name
