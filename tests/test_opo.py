import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from helpers import (
    reference_clones,
    reference_fit_scipy,
    reference_optimum,
    reference_spectra,
)
from telecloning import (
    OPOParams,
    ProtocolConfig,
    SqueezerSpec,
    fidelity_vs_pump,
    fit_params,
    pump_spectra,
    squeezing_spectra,
)
from telecloning import opo
from telecloning.opo import _spectra, _spectra_jacobian

PINS = Path(__file__).resolve().parent / "data" / "opo_pins.json"


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


def test_fit_rejects_signed_zero_pumps_as_duplicates():
    # 0.0 == -0.0, as np.unique counts them
    with pytest.raises(ValueError, match="pump values must be distinct"):
        fit_params([(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (20.0, 2.0, 2.5)])


@pytest.mark.parametrize("kwargs", (
    {"p_threshold_mw": float("nan")},
    {"p_threshold_mw": float("inf")},
    {"p_threshold_mw": 100.0, "omega": float("nan")},
    {"p_threshold_mw": 100.0, "omega": float("inf")},
    {"p_threshold_mw": 100.0, "omega": 1e200},  # finite, but its square is not
))
def test_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError):
        OPOParams(**kwargs)


def test_fit_names_an_overflowing_omega():
    with pytest.raises(ValueError, match="analysis frequency") as got:
        fit_params(_noisy_data(3), omega=1e200)
    assert type(got.value) is ValueError


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


def test_fidelity_vs_pump_on_an_empty_grid_is_empty():
    assert fidelity_vs_pump(OPOParams(100.0), []).shape == (0, 2)


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


def _assert_least_squares_optimum(fit, data, omega, reference_rss):
    """The fit is the bounded least-squares optimum to 1e-8 relative and
    reaches no higher a sum of squared residuals than ``reference_rss``;
    returns scipy's active-bound mask at the optimum."""
    p_th, eta, _, active = reference_optimum(
        data, omega, (fit.params.p_threshold_mw, fit.params.eta_det))
    assert fit.params.p_threshold_mw == pytest.approx(p_th, rel=1e-8, abs=0.0)
    assert fit.params.eta_det == pytest.approx(eta, rel=1e-8, abs=0.0)
    assert fit.sum_squared_residual <= reference_rss * (1.0 + 1e-12)
    return active


@pytest.mark.parametrize("seed", range(20))
def test_fit_matches_per_point_reference(seed):
    data = _noisy_data(100 + seed)
    _assert_least_squares_optimum(fit_params(data), data, 0.0, _reference_fit(data)[2])


@pytest.mark.parametrize("seed", range(60))
def test_fit_equals_scipy_driven_fit(seed):
    data = _noisy_data(300 + seed, points=3 + seed % 12)
    omega = 0.4 if seed % 2 else 0.0
    fit = fit_params(data, omega)
    active = _assert_least_squares_optimum(
        fit, data, omega, reference_fit_scipy(data, omega).sum_squared_residual)
    # 29 of the 30 omega = 0.4 sets have their optimum on the lower bound of
    # p_threshold; the gradient holds it there, so eta_det converges alone
    at_bound = fit.params.p_threshold_mw == 1.0001 * max(row[0] for row in data)
    assert at_bound == (active[0] == -1)
    assert "np." not in repr(fit)  # Python floats, not numpy scalars


NOISE_FREE = (
    (OPOParams(120.0, 0.02), (10.0, 25.0, 45.0, 70.0, 95.0)),
    (OPOParams(150.0, 0.7), (0.0, 10.0, 20.0)),
    # subnormal and tiny pumps: the fit works in p_threshold / max pump
    (OPOParams(1.3e-300, 0.8), (5e-324, 3e-301, 1e-300)),
)


def _noise_free_data(truth, pumps):
    data = []
    for pump in pumps:
        spec = squeezing_spectra(truth, pump)
        data.append((pump, spec.squeezing_db, spec.antisqueezing_db))
    return data


@pytest.mark.parametrize(("truth", "pumps"), NOISE_FREE)
def test_fit_recovers_noise_free_parameters(truth, pumps):
    fit = fit_params(_noise_free_data(truth, pumps))
    assert fit.params.p_threshold_mw == pytest.approx(truth.p_threshold_mw, rel=1e-6)
    assert fit.params.eta_det == pytest.approx(truth.eta_det, rel=1e-6)
    assert fit.sum_squared_residual < 1e-20


def _tiny_pump_data(seed):
    """Seeded noisy points at subnormal and tiny pump powers."""
    rng = np.random.default_rng(seed)
    truth = OPOParams(1.3e-300, rng.uniform(0.5, 0.95))
    data = []
    for pump in (5e-324, 2e-301, 5e-301, 1e-300):
        spec = squeezing_spectra(truth, pump)
        data.append((pump, spec.squeezing_db + rng.normal(0.0, 0.05),
                     spec.antisqueezing_db + rng.normal(0.0, 0.05)))
    return data


@pytest.mark.parametrize("seed", range(4))
def test_fit_at_tiny_pump_scale_is_the_optimum(seed):
    data = _tiny_pump_data(seed)
    _assert_least_squares_optimum(fit_params(data), data, 0.0,
                                  reference_fit_scipy(data).sum_squared_residual)


@pytest.mark.parametrize("seed", range(8))
def test_spectra_jacobian_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.01, 0.99, 16)
    omega2 = rng.uniform(0.05, 2.0) ** 2
    for eta in (1e-6, rng.uniform(0.0, 1.0), 1.0):
        jacobian = _spectra_jacobian(x, eta, omega2)
        h_x, h_eta = 1e-5 * x, 1e-7
        s_up, a_up = _spectra(x + h_x, eta, omega2)
        s_down, a_down = _spectra(x - h_x, eta, omega2)
        s_more, a_more = _spectra(x, eta + h_eta, omega2)
        s_less, a_less = _spectra(x, eta - h_eta, omega2)
        differences = ((s_up - s_down) / (2.0 * h_x), (a_up - a_down) / (2.0 * h_x),
                       (s_more - s_less) / (2.0 * h_eta), (a_more - a_less) / (2.0 * h_eta))
        for analytic, difference in zip(jacobian, differences):
            np.testing.assert_allclose(analytic, difference, rtol=1e-5, atol=1e-7)


def test_fit_with_overflowing_residuals_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="least-squares fit"):
            fit_params([(10.0, 1e200, 1.5), (20.0, 2.0, 3.0), (30.0, 3.0, 4.5)])


def test_fit_ends_on_a_singular_step_at_the_grid_seed(monkeypatch):
    # a model flat in p_threshold makes the damped 2x2 system singular: the
    # step is NaN (numpy's 0/0, not a ZeroDivisionError) and ends the loop
    jacobian = opo._spectra_jacobian

    def flat_in_x(x, eta_det, omega2):
        ds_dx, da_dx, ds_deta, da_deta = jacobian(x, eta_det, omega2)
        return np.zeros_like(ds_dx), np.zeros_like(da_dx), ds_deta, da_deta

    monkeypatch.setattr(opo, "_spectra_jacobian", flat_in_x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_params([(10.0, 1.0, 1.5), (20.0, 2.0, 3.0), (30.0, 3.0, 4.5)])
    assert (fit.params.p_threshold_mw, fit.params.eta_det) == (328.95275478883684,
                                                               0.6102564102564103)


def _pinned_fits():
    """(name, data, omega) of the fits whose results ``PINS`` holds."""
    cases = [(f"noisy-{points}-{omega}", _noisy_data(500 + points, points), omega)
             for points in range(3, 15) for omega in (0.0, 0.4)]
    cases += [(f"noise-free-{k}", _noise_free_data(*case), 0.0)
              for k, case in enumerate(NOISE_FREE)]
    cases += [(f"tiny-pump-{seed}", _tiny_pump_data(seed), 0.0) for seed in range(4)]
    return cases


def _pinned_spectra():
    """name -> (x, eta_det, omega2) of the ``_spectra`` calls ``PINS`` holds:
    scalar, 1-d and the fit's (points, t, 1) x (eta,) grid, with zero pumps."""
    t_grid = np.geomspace(1.02, 50.0, 60)
    grid_x = np.sqrt(np.array([0.0, 0.1, 0.35, 0.6, 0.9])[:, None, None] / t_grid[:, None])
    eta_grid = np.linspace(0.05, 1.0, 40)
    pumps_x = np.sqrt(np.linspace(0.0, 0.99, 241))
    return {
        "scalar": (np.sqrt(np.float64(0.375)), 0.9, 0.16),
        "scalar-zero-pump": (np.float64(0.0), 0.9, 0.0),
        "1d": (pumps_x, 0.8, 0.16),
        "1d-unit-eta": (pumps_x, 1.0, 0.0),
        "grid": (grid_x, eta_grid, 0.0),
        "grid-omega": (grid_x, eta_grid, 0.16),
    }


def _spectra_digest(x, eta_det, omega2):
    """Type, shape and sha256 of the bytes (so -0.0 differs from 0.0)."""
    squeezing, antisqueezing = _spectra(x, eta_det, omega2)
    digest = hashlib.sha256(np.asarray(squeezing).tobytes()
                            + np.asarray(antisqueezing).tobytes()).hexdigest()
    return [type(squeezing).__name__, type(antisqueezing).__name__,
            list(np.shape(squeezing)), digest]


@pytest.mark.parametrize(("name", "data", "omega"),
                         [pytest.param(*case, id=case[0]) for case in _pinned_fits()])
def test_fit_result_is_pinned_bit_for_bit(name, data, omega):
    assert repr(fit_params(data, omega)) == json.loads(PINS.read_text())["fits"][name]


@pytest.mark.parametrize("name", sorted(_pinned_spectra()))
def test_spectra_bytes_are_pinned(name):
    expected = json.loads(PINS.read_text())["spectra"][name]
    assert _spectra_digest(*_pinned_spectra()[name]) == expected


def write_pins() -> None:
    """Record the pinned fits and ``_spectra`` digests with
    ``PYTHONPATH=src python tests/test_opo.py``, only when the fit or the
    model is meant to change."""
    pins = {"fits": {name: repr(fit_params(data, omega))
                     for name, data, omega in _pinned_fits()},
            "spectra": {name: _spectra_digest(*args)
                        for name, args in _pinned_spectra().items()}}
    PINS.write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    write_pins()
