import dataclasses
from pathlib import Path

import numpy as np
import pytest

from telecloning import (
    GaussianState,
    ProtocolConfig,
    QuadratureSelector,
    ShotRecord,
    ShotRecords,
    SqueezerSpec,
    alice_trace_levels,
    circuit_states,
    condition_on,
    clone_output_state,
    displace,
    is_physical,
    optimal_squeezing,
    run_analytic,
    run_circuit_analytic,
    run_monte_carlo,
    sample_homodyne,
    shot_stream,
)
from telecloning.protocol import (
    _CHUNK_SHOTS,
    READOUT,
    _measurement_plan,
    _psd_sqrt,
    _simulate_shot,
    _simulate_shots,
)
from telecloning.config import load_config, protocol_config_from
from helpers import random_config, reference_circuit_states, reference_clone_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_, _, OPT_DB = optimal_squeezing()
OPT = SqueezerSpec.pure(OPT_DB)
ZERO = SqueezerSpec.pure(0)


def optimal_config(**kw):
    return ProtocolConfig(OPT, OPT, input_alpha=5 + 3j, **kw)


def moments_tuple(m):
    return tuple(getattr(getattr(m, c), f)
                 for c in ("clone1", "clone2")
                 for f in ("mean_x", "mean_p", "var_x", "var_p"))


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(OPT, OPT, shots=0)
    with pytest.raises(ValueError):
        ProtocolConfig(OPT, OPT, eta_homodyne=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(OPT, OPT, eta_resource=(1.0, 1.2, 1.0))
    with pytest.raises(ValueError):
        ProtocolConfig(OPT, OPT, gains=(1.0, 1.0))


@pytest.mark.parametrize("alpha", (complex(np.nan, 0.0), complex(0.0, np.inf),
                                   complex(-np.inf, 1.0)))
def test_config_rejects_non_finite_input(alpha):
    with pytest.raises(ValueError, match="input_alpha") as info:
        ProtocolConfig(OPT, OPT, input_alpha=alpha)
    assert str(alpha) in str(info.value)


def test_plan_conditioning_equals_successive_readouts():
    # the plan's joint x/p conditioning equals reading x_u, then p_v
    rng = np.random.default_rng(12)
    first, second = READOUT
    assert second.mode < first.mode  # p_v keeps its mode number after x_u
    for _ in range(50):
        config = random_config(rng)
        plan = _measurement_plan(config)
        detected = circuit_states(config)["detected"]
        zero = GaussianState(np.zeros_like(detected.mean), detected.cov)
        columns = [condition_on(condition_on(zero, first, a), second, b)
                   for a, b in ((1.0, 0.0), (0.0, 1.0))]
        gain = np.column_stack([c.mean for c in columns])
        for actual, expected in ((plan.gain_map, gain), (plan.cond_cov, columns[0].cov)):
            assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


def test_optimal_point_moments():
    # one unit of vacuum noise on top of the input: var 1/2 per quadrature
    m = run_analytic(optimal_config())
    for clone in (m.clone1, m.clone2):
        assert clone.mean_x == pytest.approx(5.0, abs=1e-12)
        assert clone.mean_p == pytest.approx(3.0, abs=1e-12)
        assert clone.var_x == pytest.approx(0.5, abs=1e-9)
        assert clone.var_p == pytest.approx(0.5, abs=1e-9)


def test_classical_point_moments():
    # no squeezing: two units of vacuum noise, var 3/4 per quadrature
    m = run_analytic(ProtocolConfig(ZERO, ZERO, input_alpha=5 + 3j))
    for clone in (m.clone1, m.clone2):
        assert clone.var_x == pytest.approx(0.75, abs=1e-12)
        assert clone.var_p == pytest.approx(0.75, abs=1e-12)


def test_clone_symmetry_at_equal_gains():
    m = run_analytic(ProtocolConfig(SqueezerSpec(4, 6), SqueezerSpec(5, 7),
                                    input_alpha=1 - 2j))
    assert m.clone1.var_x == pytest.approx(m.clone2.var_x, abs=1e-12)
    assert m.clone1.var_p == pytest.approx(m.clone2.var_p, abs=1e-12)
    assert m.clone1.mean_x == m.clone2.mean_x
    assert m.clone1.mean_p == m.clone2.mean_p


def test_path_equivalence_over_random_configs():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        config = random_config(rng)
        a = moments_tuple(run_analytic(config))
        b = moments_tuple(run_circuit_analytic(config))
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    assert worst < 1e-9


def test_gain_linearity_of_clone_means():
    gains = (0.8, 1.2, 1.0, 0.6)
    for alpha in (1 + 0j, 0 + 1j, 3 - 4j):
        config = ProtocolConfig(OPT, OPT, input_alpha=alpha, gains=gains)
        m = run_analytic(config)
        assert m.clone1.mean_x == pytest.approx(0.8 * alpha.real, abs=1e-12)
        assert m.clone1.mean_p == pytest.approx(1.2 * alpha.imag, abs=1e-12)
        assert m.clone2.mean_x == pytest.approx(1.0 * alpha.real, abs=1e-12)
        assert m.clone2.mean_p == pytest.approx(0.6 * alpha.imag, abs=1e-12)


def test_gains_are_calibrated_downstream_of_detection_loss():
    # the configured gain is the effective input-to-clone gain even with
    # an inefficient detector: the displacement is rescaled by 1/sqrt(eta)
    config = ProtocolConfig(OPT, OPT, input_alpha=4 - 2j, eta_homodyne=0.81)
    m = run_circuit_analytic(config)
    assert m.clone1.mean_x == pytest.approx(4.0, abs=1e-12)
    assert m.clone1.mean_p == pytest.approx(-2.0, abs=1e-12)
    # the rescaling costs extra noise relative to perfect detection
    perfect = run_circuit_analytic(ProtocolConfig(OPT, OPT, input_alpha=4 - 2j))
    assert m.clone1.var_x > perfect.clone1.var_x + 1e-3


def test_unit_gain_variances_independent_of_alpha():
    ref = run_analytic(optimal_config())
    for alpha in (0j, 1j, -2 + 7j, 5 + 3j):
        m = run_analytic(ProtocolConfig(OPT, OPT, input_alpha=alpha))
        assert m.clone1.var_x == pytest.approx(ref.clone1.var_x, abs=1e-12)
        assert m.clone1.var_p == pytest.approx(ref.clone1.var_p, abs=1e-12)


def test_circuit_path_asymmetric_gains_and_losses():
    config = ProtocolConfig(SqueezerSpec(6, 8), SqueezerSpec(5.5, 7.5),
                            input_alpha=2 + 1j, gains=(0.9, 1.1, 1.05, 0.95),
                            eta_homodyne=0.93, eta_resource=(0.97, 0.95, 0.92),
                            coupler_t=0.99)
    a = moments_tuple(run_analytic(config))
    b = moments_tuple(run_circuit_analytic(config))
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def test_monte_carlo_matches_analytic():
    config = optimal_config(shots=30_000, seed=123)
    mc, records = run_monte_carlo(config)
    ana = run_circuit_analytic(config)
    assert len(records) == 30_000
    for est, truth in ((mc.clone1, ana.clone1), (mc.clone2, ana.clone2)):
        assert abs(est.mean_x - truth.mean_x) < 5 * est.se_mean_x
        assert abs(est.mean_p - truth.mean_p) < 5 * est.se_mean_p
        assert abs(est.var_x - truth.var_x) < 5 * est.se_var_x
        assert abs(est.var_p - truth.var_p) < 5 * est.se_var_p


def test_monte_carlo_matches_analytic_with_imperfections():
    config = ProtocolConfig(SqueezerSpec(5, 8), SqueezerSpec(5, 8),
                            input_alpha=-1 + 4j, gains=(1.1, 0.9, 1.0, 1.0),
                            eta_homodyne=0.95, eta_resource=(0.98, 0.96, 0.96),
                            coupler_t=0.99, shots=30_000, seed=321)
    mc, _ = run_monte_carlo(config)
    ana = run_circuit_analytic(config)
    for est, truth in ((mc.clone1, ana.clone1), (mc.clone2, ana.clone2)):
        assert abs(est.mean_x - truth.mean_x) < 5 * est.se_mean_x
        assert abs(est.var_x - truth.var_x) < 5 * est.se_var_x
        assert abs(est.var_p - truth.var_p) < 5 * est.se_var_p


def test_monte_carlo_sampled_mode_consistent():
    config = optimal_config(shots=20_000, seed=77)
    mc, _ = run_monte_carlo(config, sampled=True)
    ana = run_circuit_analytic(config)
    for est, truth in ((mc.clone1, ana.clone1), (mc.clone2, ana.clone2)):
        assert abs(est.mean_x - truth.mean_x) < 5 * est.se_mean_x
        assert abs(est.var_x - truth.var_x) < 5 * est.se_var_x


def test_monte_carlo_seed_determinism():
    config = optimal_config(shots=500, seed=9)
    _, r1 = run_monte_carlo(config)
    _, r2 = run_monte_carlo(config)
    assert r1 == r2
    _, r3 = run_monte_carlo(dataclasses.replace(config, seed=10))
    assert r1 != r3


def test_monte_carlo_order_independent():
    # shot j depends only on (seed, j), so any execution order agrees
    config = optimal_config(shots=64, seed=5)
    _, records = run_monte_carlo(config)
    plan = _measurement_plan(config)
    shuffled = [_simulate_shot(plan, config.seed, j)[0]
                for j in reversed(range(64))]
    assert records == list(reversed(shuffled))


def test_monte_carlo_agrees_with_measurement_operations():
    # the vectorized shot loop reproduces the explicit chain of
    # sample / condition / displace operations draw for draw
    config = ProtocolConfig(SqueezerSpec(6, 7), SqueezerSpec(6, 7),
                            input_alpha=2 - 1j, gains=(1.2, 0.8, 0.9, 1.1),
                            eta_homodyne=0.9, shots=25, seed=99)
    _, records = run_monte_carlo(config)
    detected = circuit_states(config)["detected"]
    scale = np.sqrt(2.0 / config.eta_homodyne)
    gx1, gp1, gx2, gp2 = config.gains
    for j, rec in enumerate(records):
        rng = shot_stream(config.seed, j)
        out_x, st = sample_homodyne(detected, QuadratureSelector(1, "x"), rng)
        out_p, st = sample_homodyne(st, QuadratureSelector(0, "p"), rng)
        st = displace(st, 0, scale * gx1 * out_x.value, scale * gp1 * out_p.value)
        st = displace(st, 1, scale * gx2 * out_x.value, scale * gp2 * out_p.value)
        assert rec.x_u == pytest.approx(out_x.value, abs=1e-12)
        assert rec.p_v == pytest.approx(out_p.value, abs=1e-12)
        assert np.allclose([rec.x1, rec.p1, rec.x2, rec.p2], st.mean, atol=1e-10)


def test_bell_outcome_distribution():
    # sampled x_u variance matches (Var(x_in) + Var(x_A)) / 2
    config = optimal_config(shots=30_000, seed=13)
    _, records = run_monte_carlo(config)
    x_u = np.array([r.x_u for r in records])
    joint = circuit_states(config)["joint"]
    expect = 0.5 * (joint.cov[0, 0] + joint.cov[2, 2])
    se = expect * np.sqrt(2.0 / (len(x_u) - 1))
    assert abs(x_u.var(ddof=1) - expect) < 5 * se


@pytest.mark.parametrize("sampled", (False, True))
@pytest.mark.parametrize("shots", (1, 2, 5000))
def test_monte_carlo_estimator_matches_per_mode_reference(shots, sampled):
    # the estimator as first written, one branch per mode
    config = ProtocolConfig(SqueezerSpec(5, 8), SqueezerSpec(4, 6), input_alpha=1 - 2j,
                            eta_homodyne=0.9, shots=shots, seed=23)
    moments, records = run_monte_carlo(config, sampled=sampled)
    plan = _measurement_plan(config)
    cond_var = np.diag(plan.cond_cov)
    means = records.columns[2:]
    if sampled:
        _, draws = _simulate_shots(plan, config.seed, 0, shots, _psd_sqrt(plan.cond_cov))
        mean_hat = draws.mean(axis=1)
        var_hat = draws.var(axis=1, ddof=1) if shots > 1 else cond_var.copy()
    else:
        mean_hat = means.mean(axis=1)
        between = means.var(axis=1, ddof=1) if shots > 1 else np.zeros(4)
        var_hat = between + cond_var
    if shots > 1:
        spread = draws.var(axis=1, ddof=1) if sampled else means.var(axis=1, ddof=1)
        se_mean = np.sqrt(var_hat / shots) if sampled else np.sqrt(spread / shots)
        se_var = spread * np.sqrt(2.0 / (shots - 1))
    else:
        se_mean = se_var = [None] * 4
    expected = [mean_hat[0], mean_hat[1], var_hat[0], var_hat[1], se_mean[0], se_mean[1],
                se_var[0], se_var[1], mean_hat[2], mean_hat[3], var_hat[2], var_hat[3],
                se_mean[2], se_mean[3], se_var[2], se_var[3]]
    actual = [getattr(getattr(moments, clone), field.name)
              for clone in ("clone1", "clone2")
              for field in dataclasses.fields(moments.clone1)]
    assert actual == expected


def test_single_shot_run_is_valid():
    moments, records = run_monte_carlo(optimal_config(shots=1, seed=1))
    assert len(records) == 1
    assert moments.clone1.se_mean_x is None  # spread undefined from one shot
    assert moments.clone1.var_x > 0


def test_output_state_physical():
    for config in (optimal_config(),
                   ProtocolConfig(SqueezerSpec(4, 9), SqueezerSpec(3, 8),
                                  input_alpha=1j, eta_homodyne=0.9,
                                  eta_resource=(0.9, 0.95, 0.85), coupler_t=0.95)):
        out = clone_output_state(config)
        assert is_physical(out)
        for name, state in circuit_states(config).items():
            assert is_physical(state), name


def test_alice_amplitude_reduction_is_3db():
    _, reduction = alice_trace_levels(optimal_config())
    assert reduction == pytest.approx(10 * np.log10(2.0), abs=1e-12)


def test_alice_variance_ignores_input_amplitude():
    v0, _ = alice_trace_levels(ProtocolConfig(OPT, OPT, input_alpha=0j))
    v1, _ = alice_trace_levels(ProtocolConfig(OPT, OPT, input_alpha=5 + 3j))
    assert v0 == pytest.approx(v1, abs=1e-12)


def test_alice_variance_levels():
    v_opt, _ = alice_trace_levels(optimal_config())
    assert v_opt == pytest.approx(0.5, abs=1e-12)  # 3.01 dB above vacuum
    v_zero, _ = alice_trace_levels(ProtocolConfig(ZERO, ZERO))
    assert v_zero == pytest.approx(0.25, abs=1e-12)  # two vacua on a splitter


@pytest.mark.parametrize("sampled", (False, True))
def test_records_are_prefixes_across_chunks(sampled):
    # shot j depends only on (seed, j): a longer run extends a shorter one,
    # also where the longer run crosses a chunk boundary the shorter does not
    longer = optimal_config(shots=2 * _CHUNK_SHOTS + 5, seed=31)
    _, records = run_monte_carlo(longer, sampled=sampled)
    for n in (1, _CHUNK_SHOTS - 1, _CHUNK_SHOTS + 2):
        _, prefix = run_monte_carlo(dataclasses.replace(longer, shots=n),
                                    sampled=sampled)
        assert records[:n] == prefix


def test_sampled_mode_keeps_records_and_draws_per_shot():
    config = ProtocolConfig(SqueezerSpec(5, 8), SqueezerSpec(5, 8),
                            input_alpha=1 + 2j, eta_homodyne=0.95,
                            shots=40, seed=17)
    _, plain = run_monte_carlo(config)
    _, sampled = run_monte_carlo(config, sampled=True)
    assert plain == sampled
    plan = _measurement_plan(config)
    cond_sqrt = _psd_sqrt(plan.cond_cov)
    records, draws = _simulate_shots(plan, config.seed, 0, 40, cond_sqrt)
    for j in (0, 17, 39):
        record, drawn = _simulate_shot(plan, config.seed, j, cond_sqrt)
        assert record == ShotRecord(*records[:, j])
        assert np.array_equal(drawn, draws[:, j])


def test_shot_records_sequence():
    _, records = run_monte_carlo(optimal_config(shots=5, seed=2))
    assert isinstance(records, ShotRecords)
    assert len(records) == 5
    as_list = list(records)
    assert all(isinstance(r, ShotRecord) for r in as_list)
    assert records[-1] == as_list[4] and records[1] == as_list[1]
    assert (records == as_list) is True and (as_list == records) is True
    assert records != as_list[:4]
    assert records.columns.shape == (6, 5)
    assert records.columns[0, 3] == as_list[3].x_u
    with pytest.raises(ValueError):
        records.columns[0, 0] = 1.0
    with pytest.raises(IndexError):
        records[5]


def _pipeline_configs():
    rng = np.random.default_rng(20241)
    bundled = [protocol_config_from(load_config(str(CONFIGS / f"{name}.cfg")))
               for name in ("paper", "optimal", "classical")]
    return bundled + [random_config(rng) for _ in range(200)]


def test_shared_resource_gives_bit_identical_pipeline():
    for config in _pipeline_configs():
        resource = config.build_resource()
        own = circuit_states(config)
        shared = circuit_states(config, resource)
        assert list(shared) == ["resource", "joint", "bell_split", "detected"]
        assert shared["resource"] is resource.state
        for name, state in own.items():
            assert np.array_equal(state.mean, shared[name].mean), name
            assert np.array_equal(state.cov, shared[name].cov), name
        plan, shared_plan = _measurement_plan(config), _measurement_plan(config, resource)
        for field in dataclasses.fields(plan):
            assert np.array_equal(getattr(plan, field.name),
                                  getattr(shared_plan, field.name)), field.name
        assert run_circuit_analytic(config, resource) == run_circuit_analytic(config)


def test_pipeline_keeps_the_transmissivity_check():
    config = optimal_config()
    object.__setattr__(config, "coupler_t", 1.5)  # past ProtocolConfig's own check
    for route in (circuit_states, run_circuit_analytic):
        with pytest.raises(ValueError, match=r"^transmissivity must lie in \[0, 1\], got 1\.5$"):
            route(config)


def _close(got, want, rel=1e-14):
    return bool(np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want))))


def test_composed_plan_matches_stepwise_reference():
    rng = np.random.default_rng(23)
    configs = [protocol_config_from(load_config(str(CONFIGS / f"{name}.cfg")))
               for name in ("optimal", "classical", "paper")]
    configs += [random_config(rng) for _ in range(200)]
    for config in configs:
        states = circuit_states(config)
        reference = reference_circuit_states(config)
        assert list(states) == list(reference)
        for name, state in states.items():
            assert _close(state.mean, reference[name].mean), name
            assert _close(state.cov, reference[name].cov), name
            assert np.array_equal(state.cov, state.cov.T), name
        out = clone_output_state(config)
        mean, cov = reference_clone_state(config)
        assert _close(out.mean, mean) and _close(out.cov, cov)
