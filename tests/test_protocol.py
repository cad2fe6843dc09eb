import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telecloning import (
    GaussianState,
    ProtocolConfig,
    QuadratureSelector,
    SqueezerSpec,
    alice_trace_levels,
    assert_physical,
    circuit_states,
    condition_on,
    clone_output_state,
    displace,
    is_physical,
    marginal,
    optimal_squeezing,
    run_analytic,
    run_circuit_analytic,
    run_monte_carlo,
    shot_normals,
)
from telecloning.gaussian import (
    _assert_bona_fide,
    beam_splitter_50_50,
    compose,
    loss_map,
    symplectic_map,
)
from telecloning.protocol import (
    _CHUNK_SHOTS,
    MODE_A,
    MODE_B,
    MODE_C,
    MODE_IN,
    READOUT,
    _KEEP,
    _measurement_plan,
    _psd_sqrt,
    _sender_channels,
    _simulate_shots,
)
from telecloning.resource import _resource_channel
from telecloning.config import ConfigError, load_config, parse_config, protocol_config_from
from helpers import (
    acceptance_pool,
    collect_records,
    random_config,
    reference_circuit_states,
    reference_clone_state,
)

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


NON_INTEGERS = (2.5, 16.0, "16", None)


@pytest.mark.parametrize("field, value",
                         [("shots", v) for v in NON_INTEGERS] + [("seed", v) for v in NON_INTEGERS],
                         ids=[*map(str, NON_INTEGERS), *(f"seed-{v}" for v in NON_INTEGERS)])
def test_config_rejects_non_integer_shots(field, value):
    # numpy would refuse any of these as a buffer size inside run_monte_carlo,
    # and a float seed would key Philox by its floor (seed 2.5 drew seed 2's
    # shots); the CLI reports the ConfigError as exit 1
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        ProtocolConfig(OPT, OPT, **{field: value})
    cfg = dict(parse_config(""), **{f"run.{field}": value})
    with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got "):
        protocol_config_from(cfg)
    # a numpy integer is accepted and runs as the Python int does
    runs = [run_monte_carlo(ProtocolConfig(OPT, OPT, **{"shots": 16, field: n}))
            for n in (np.int64(5), 5)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("alpha", (complex(np.nan, 0.0), complex(0.0, np.inf),
                                   complex(-np.inf, 1.0)))
def test_config_rejects_non_finite_input(alpha):
    with pytest.raises(ValueError, match="input_alpha") as info:
        ProtocolConfig(OPT, OPT, input_alpha=alpha)
    assert str(alpha) in str(info.value)


def feedforward(config):
    """The plan's (4, 2) feedforward map, by the plan's own expression."""
    g_x1, g_p1, g_x2, g_p2 = config.gains
    return math.sqrt(2.0) / math.sqrt(config.eta_homodyne) * np.array(
        [[g_x1, 0.0], [0.0, g_p1], [g_x2, 0.0], [0.0, g_p2]])


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
        for actual, expected in ((plan.total - feedforward(config), gain),
                                 (plan.cond_cov, columns[0].cov)):
            assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


def test_plan_conditions_on_the_detected_state_of_circuit_states(monkeypatch):
    # one route to the detected state: the audit snapshot, the plan's
    # conditioning input and the sender's trace levels hold the same bits
    import telecloning.protocol

    seen = []
    real = telecloning.protocol.conditional

    def recording(*blocks):
        seen.append(blocks)
        return real(*blocks)

    monkeypatch.setattr(telecloning.protocol, "conditional", recording)
    rng = np.random.default_rng(31)
    configs = [protocol_config_from(load_config(str(CONFIGS / f"{name}.cfg")))
               for name in ("optimal", "classical", "paper")]
    configs += [random_config(rng) for _ in range(50)]
    q, kept = [sel.index() for sel in READOUT], [4, 5, 6, 7]  # (xB, pB, xC, pC)
    for config in configs:
        seen.clear()
        plan = _measurement_plan(config)
        (conditioned,) = seen
        detected = circuit_states(config)["detected"]
        assert [block.tobytes() for block in conditioned] == [
            detected.cov[np.ix_(rows, cols)].tobytes()
            for rows, cols in ((q, q), (kept, q), (kept, kept))]
        out_mean = detected.mean[4:] + feedforward(config) @ detected.mean[q]  # xB, pB, xC, pC
        assert plan.out_mean.tobytes() == out_mean.tobytes()
        assert plan.mu_q.tobytes() == detected.mean[q].tobytes()
        assert alice_trace_levels(config)[0] == detected.cov[q[1], q[1]]


def test_network_keeps_x_and_p_apart():
    """Every element acts as kron(M, I2) on inputs without x-p covariance,
    so x and p never mix: the outcome covariance is diagonal and each clone
    mean reads one outcome. ``_simulate_shots`` samples x_u and p_v
    independently and maps each to one quadrature; the sampler is wrong the
    day an element mixes x and p."""
    rng = np.random.default_rng(47)
    configs = [protocol_config_from(load_config(str(CONFIGS / f"{name}.cfg")))
               for name in ("optimal", "classical", "paper")]
    configs += [random_config(rng) for _ in range(200)]
    for config in configs:
        plan = _measurement_plan(config)
        assert plan.sigma_q[0, 1] == plan.sigma_q[1, 0] == 0.0
        assert np.all(plan.total[0::2, 1] == 0.0)  # x means ignore p_v
        assert np.all(plan.total[1::2, 0] == 0.0)  # p means ignore x_u
        for name, state in circuit_states(config).items():
            assert np.all(state.cov[0::2, 1::2] == 0.0), name


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
    mc, records = collect_records(config)
    ana = run_circuit_analytic(config)
    assert records.shape == (6, 30_000)
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
    mc = run_monte_carlo(config)
    ana = run_circuit_analytic(config)
    for est, truth in ((mc.clone1, ana.clone1), (mc.clone2, ana.clone2)):
        assert abs(est.mean_x - truth.mean_x) < 5 * est.se_mean_x
        assert abs(est.var_x - truth.var_x) < 5 * est.se_var_x
        assert abs(est.var_p - truth.var_p) < 5 * est.se_var_p


def test_monte_carlo_sampled_mode_consistent():
    config = optimal_config(shots=20_000, seed=77)
    mc = run_monte_carlo(config, sampled=True)
    ana = run_circuit_analytic(config)
    for est, truth in ((mc.clone1, ana.clone1), (mc.clone2, ana.clone2)):
        assert abs(est.mean_x - truth.mean_x) < 5 * est.se_mean_x
        assert abs(est.var_x - truth.var_x) < 5 * est.se_var_x


def test_monte_carlo_seed_determinism():
    config = optimal_config(shots=500, seed=9)
    _, r1 = collect_records(config)
    _, r2 = collect_records(config)
    assert np.array_equal(r1, r2)
    _, r3 = collect_records(dataclasses.replace(config, seed=10))
    assert not np.array_equal(r1, r3)


def test_monte_carlo_order_independent():
    # shot j depends only on (seed, j), so any execution order agrees
    config = optimal_config(shots=64, seed=5)
    _, records = collect_records(config)
    plan = _measurement_plan(config)
    shuffled = [_simulate_shots(plan, config.seed, j, 1)[0][:, 0]
                for j in reversed(range(64))]
    assert np.array_equal(records, np.column_stack(shuffled[::-1]))


def test_monte_carlo_agrees_with_measurement_operations():
    # the vectorized shot loop reproduces the explicit chain of readout,
    # conditioning and displacement: each outcome is its marginal's mean plus
    # its standard deviation times the shot's own draw, x_u read first and
    # p_v from the state x_u leaves
    config = ProtocolConfig(SqueezerSpec(6, 7), SqueezerSpec(6, 7),
                            input_alpha=2 - 1j, gains=(1.2, 0.8, 0.9, 1.1),
                            eta_homodyne=0.9, shots=25, seed=99)
    _, records = collect_records(config)
    z = shot_normals(config.seed, 0, config.shots, 2)
    detected = circuit_states(config)["detected"]
    scale = np.sqrt(2.0 / config.eta_homodyne)
    gx1, gp1, gx2, gp2 = config.gains
    for j, rec in enumerate(records.T):
        m, v = marginal(detected, QuadratureSelector(1, "x"))
        out_x = m + np.sqrt(v) * z[j, 0]
        st = condition_on(detected, QuadratureSelector(1, "x"), rec[0])
        m, v = marginal(st, QuadratureSelector(0, "p"))
        out_p = m + np.sqrt(v) * z[j, 1]
        st = condition_on(st, QuadratureSelector(0, "p"), rec[1])
        st = displace(st, 0, scale * gx1 * rec[0], scale * gp1 * rec[1])
        st = displace(st, 1, scale * gx2 * rec[0], scale * gp2 * rec[1])
        assert rec[0] == pytest.approx(out_x, abs=1e-12)
        assert rec[1] == pytest.approx(out_p, abs=1e-12)
        assert np.allclose(rec[2:], st.mean, atol=1e-10)


def test_bell_outcome_distribution():
    # sampled x_u variance matches (Var(x_in) + Var(x_A)) / 2
    config = optimal_config(shots=30_000, seed=13)
    _, records = collect_records(config)
    x_u = records[0]
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
    moments, records = collect_records(config, sampled=sampled)
    plan = _measurement_plan(config)
    cond_var = np.diag(plan.cond_cov)
    means = records[2:]
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


def _reduced_samples(config, sampled):
    """What the moments reduce, as (4, shots): the raw clone quadratures
    when sampled, else the clone means; and the variance added to them."""
    plan = _measurement_plan(config)
    records, draws = _simulate_shots(plan, config.seed, 0, config.shots,
                                     _psd_sqrt(plan.cond_cov) if sampled else None)
    return (draws, np.zeros(4)) if sampled else (records[2:], np.diag(plan.cond_cov))


def _means_and_variances(moments):
    clones = (moments.clone1, moments.clone2)
    return (np.array([getattr(c, f"mean_{q}") for c in clones for q in "xp"]),
            np.array([getattr(c, f"var_{q}") for c in clones for q in "xp"]))


def _fsum_moments(samples, added):
    n = samples.shape[1]
    means = [math.fsum(row) / n for row in samples.tolist()]
    return (np.array(means),
            np.array([math.fsum((x - m) ** 2 for x in row) / (n - 1)
                      for row, m in zip(samples.tolist(), means)]) + added)


@pytest.mark.parametrize("sampled", (False, True))
@pytest.mark.parametrize("shots, alpha, gain", (
    (3, 5 + 3j, 1.0), (_CHUNK_SHOTS, 5 + 3j, 1.0),
    # clone means near 1e155: a merge of the first chunk into an empty run
    # would square a difference of 1e155 and multiply the inf by 0 shots
    (64, 1e5 + 1e5j, 1e150),
))
def test_one_chunk_moments_are_the_two_pass_bits(shots, alpha, gain, sampled):
    config = ProtocolConfig(OPT, OPT, input_alpha=alpha, gains=(gain,) * 4,
                            shots=shots, seed=41)
    samples, added = _reduced_samples(config, sampled)
    mean, var = _means_and_variances(run_monte_carlo(config, sampled=sampled))
    assert mean.tobytes() == samples.mean(axis=1).tobytes()
    assert var.tobytes() == (samples.var(axis=1, ddof=1) + added).tobytes()


@pytest.mark.parametrize("sampled", (False, True))
@pytest.mark.parametrize("alpha", (5 + 3j, 1e8 - 1e8j))
def test_merged_chunk_moments_match_an_exact_sum(sampled, alpha):
    # three chunks, the last one short; at |mean| = 1e8 each chunk's mean
    # rounds by about 1e-8, and merging the rounded chunk means moved the
    # variance by about 1e-10 of itself
    config = optimal_config(shots=2 * _CHUNK_SHOTS + 7, seed=43)
    config = dataclasses.replace(config, input_alpha=alpha)
    samples, added = _reduced_samples(config, sampled)
    mean, var = _means_and_variances(run_monte_carlo(config, sampled=sampled))
    ref_mean, ref_var = _fsum_moments(samples, added)
    assert np.all(np.abs(mean - ref_mean) <= 1e-15 * np.abs(ref_mean))
    assert np.all(np.abs(var - ref_var) <= 1e-15 * ref_var)


def test_single_shot_run_is_valid():
    moments, records = collect_records(optimal_config(shots=1, seed=1))
    assert records.shape == (6, 1)
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
    _, records = collect_records(longer, sampled=sampled)
    for n in (1, _CHUNK_SHOTS - 1, _CHUNK_SHOTS + 2):
        _, prefix = collect_records(dataclasses.replace(longer, shots=n), sampled=sampled)
        assert np.array_equal(records[:, :n], prefix)


@pytest.mark.parametrize("sampled", (False, True))
@pytest.mark.parametrize("shots", (1, _CHUNK_SHOTS, _CHUNK_SHOTS + 1, 20_000))
def test_sink_gets_the_records_chunk_by_chunk(sampled, shots):
    # the moments of a run without a sink, and chunks that concatenate to
    # the records of one batch of all the shots
    config = optimal_config(shots=shots, seed=23)
    chunks, firsts = [], []

    def sink(chunk, first):
        assert not chunk.flags.writeable
        chunks.append(chunk.copy())
        firsts.append(first)

    assert run_monte_carlo(config, sampled=sampled, sink=sink) == run_monte_carlo(
        config, sampled=sampled)
    assert firsts == list(range(0, shots, _CHUNK_SHOTS))
    records, _ = _simulate_shots(_measurement_plan(config), config.seed, 0, shots)
    assert np.concatenate(chunks, axis=1).tobytes() == records.tobytes()


def _run_peak_bytes(shots: int, sampled: bool, sink) -> int:
    config = optimal_config(shots=shots, seed=5)
    tracemalloc.start()
    try:
        run_monte_carlo(config, sampled=sampled, sink=sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sampled", (False, True))
def test_sink_run_memory_does_not_grow_with_the_shots(sampled):
    # 8x the shots, with a sink and without: kept records would add 48 bytes
    # a shot, 44 MB here; the first run is a warm-up, so both measured runs
    # start from the same state
    for sink in (lambda chunk, first: None, None):
        _run_peak_bytes(2, sampled, sink)
        small = _run_peak_bytes(2**17, sampled, sink)
        large = _run_peak_bytes(2**20, sampled, sink)
        assert large - small < 2**20, (sink, small, large)


def test_sampled_mode_keeps_records_and_draws_per_shot():
    config = ProtocolConfig(SqueezerSpec(5, 8), SqueezerSpec(5, 8),
                            input_alpha=1 + 2j, eta_homodyne=0.95,
                            shots=40, seed=17)
    _, plain = collect_records(config)
    _, sampled = collect_records(config, sampled=True)
    assert np.array_equal(plain, sampled)
    plan = _measurement_plan(config)
    cond_sqrt = _psd_sqrt(plan.cond_cov)
    records, draws = _simulate_shots(plan, config.seed, 0, 40, cond_sqrt)
    for j in (0, 17, 39):
        record, drawn = _simulate_shots(plan, config.seed, j, 1, cond_sqrt)
        assert np.array_equal(record[:, 0], records[:, j])
        assert np.array_equal(drawn[:, 0], draws[:, j])


def test_shot_records_sequence():
    # the sink gets one read-only float64 row per field: x_u, p_v, x1, p1, x2, p2
    chunks = []
    run_monte_carlo(optimal_config(shots=5, seed=2), sink=lambda chunk, first: chunks.append(chunk))
    (records,) = chunks
    assert records.shape == (6, 5) and records.dtype == np.float64
    with pytest.raises(ValueError):
        records[0, 0] = 1.0


def test_config_keeps_one_read_only_resource():
    config = optimal_config()
    states = circuit_states(config)
    assert list(states) == ["resource", "joint", "bell_split", "detected"]
    assert states["resource"] is config.resource
    assert circuit_states(config)["resource"] is config.resource
    with pytest.raises(ValueError, match="read-only"):
        config.resource.cov[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        config.resource.mean[0] = 1.0
    # not a field: equality, hashing and replace see the fields only
    copy = dataclasses.replace(config)
    assert copy == config and hash(copy) == hash(config)
    assert np.array_equal(copy.resource.cov, config.resource.cov)
    lossy = dataclasses.replace(config, eta_resource=(0.9, 0.9, 0.9))
    assert not np.array_equal(lossy.resource.cov, config.resource.cov)


def test_config_keeps_one_plan(monkeypatch):
    import telecloning.protocol

    conditioned = []
    real = telecloning.protocol.conditional

    def counting(*blocks):
        conditioned.append(blocks)
        return real(*blocks)

    monkeypatch.setattr(telecloning.protocol, "conditional", counting)
    config = optimal_config(shots=20)
    run_circuit_analytic(config)
    run_monte_carlo(config)
    run_monte_carlo(config, sampled=True)
    alice_trace_levels(config)
    assert len(conditioned) == 1
    assert all(not array.flags.writeable for array in vars(config.plan).values())
    with pytest.raises(ValueError, match="read-only"):
        config.plan.cond_cov[0, 0] = 1.0
    # not a field: replace builds a config with a plan of its own
    copy = dataclasses.replace(config)
    assert copy.plan is not config.plan and len(conditioned) == 2
    assert np.array_equal(copy.plan.cond_cov, config.plan.cond_cov)


def test_clone_output_is_physical_wherever_the_plan_builds():
    # the clone output adds spread = total sigma_q total^T >= 0 to the
    # checked conditioned receiver modes, so by Weyl's inequality it passes
    # wherever they do, and no command checks it again
    built = 0
    for name, config in acceptance_pool().items():
        try:
            config.plan
        except FloatingPointError:  # a conditioned variance rounds to 0 or below
            continue
        assert is_physical(clone_output_state(config)), name
        built += 1
    assert built >= 100


@st.composite
def fuzz_configs(draw) -> ProtocolConfig:
    """Squeezers at 0-200 dB, pure or up to 50 dB impure; gains 0, 1 or in
    [-3, 3]; resource transmissivities 0, 1e-9, 1 or in [0, 1]; homodyne and
    coupler transmissivities 1e-9, 1 or in (0, 1]."""
    def squeezer():
        level = draw(st.floats(0.0, 200.0))
        return SqueezerSpec(level, level + draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0))))

    def open_eta():
        return draw(st.one_of(st.sampled_from([1e-9, 1.0]),
                              st.floats(0.0, 1.0, exclude_min=True)))

    spec_i, spec_ii = squeezer(), squeezer()
    gains = tuple(draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-3.0, 3.0)))
                  for _ in range(4))
    eta_resource = tuple(draw(st.one_of(st.sampled_from([0.0, 1e-9, 1.0]), st.floats(0.0, 1.0)))
                         for _ in range(3))
    alpha = complex(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))
    return ProtocolConfig(spec_i, spec_ii, input_alpha=alpha, gains=gains,
                          eta_homodyne=open_eta(), eta_resource=eta_resource,
                          coupler_t=open_eta())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(config=fuzz_configs())
def test_every_state_is_bona_fide_by_construction(config):
    # no command checks the bona fide condition: squeezers within the
    # uncertainty bound, splitters, losses with eta in [0, 1] and homodyne
    # conditioning keep it, so the resource, the conditioned receiver modes
    # (within the rounding of the kept block they come from) and the clone
    # output pass it wherever the plan builds
    assert_physical(config.resource)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs it
            plan = config.plan
    except FloatingPointError:  # an overflow, or a conditioned variance rounded to <= 0
        return
    kept = circuit_states(config)["detected"].cov[np.ix_(_KEEP, _KEEP)]
    _assert_bona_fide(plan.cond_cov, kept, "conditioned receiver modes")
    assert_physical(clone_output_state(config))


def test_pipeline_keeps_the_transmissivity_check():
    config = optimal_config()
    object.__setattr__(config, "coupler_t", 1.5)  # past ProtocolConfig's own check
    for route in (circuit_states, run_circuit_analytic):
        with pytest.raises(ValueError, match=r"^transmissivity must lie in \[0, 1\], got 1\.5$"):
            route(config)


def test_scaled_channels_equal_the_composed_generic_channels():
    # the route scales import-time splitter matrices by loss_diagonals; every
    # other term of the generic products is an exact zero, so the bits agree
    rng = np.random.default_rng(27)
    bs = beam_splitter_50_50()
    circuit = compose(symplectic_map(3, bs, [0, 1]), symplectic_map(3, bs, [1, 2]))
    sender = symplectic_map(4, bs, [MODE_IN, MODE_A])
    draws = np.concatenate(([0.0, 1.0, 1e-9], rng.uniform(0.0, 1.0, size=13)))
    for _ in range(300):
        t, eta, *eta_resource = rng.choice(draws, size=5)
        split, detect = _sender_channels(t, eta)
        split_ref = compose(loss_map(4, {MODE_B: t, MODE_C: t}), sender)
        detect_ref = compose(split_ref, loss_map(4, {MODE_IN: eta, MODE_A: eta}))
        channels = {
            "resource": (_resource_channel(tuple(eta_resource)),
                         compose(circuit, loss_map(3, dict(enumerate(eta_resource))))),
            "split": (split, split_ref),
            "detect": (detect, detect_ref),
        }
        for name, ((x, y), (x_ref, y_ref)) in channels.items():
            assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref), (name, t, eta)


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
