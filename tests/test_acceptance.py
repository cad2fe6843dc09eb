"""Endpoint checks for the telecloning simulator.

One test per acceptance criterion; each prints a [PASS]/[FAIL] line so
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import time

import numpy as np
from scipy import optimize

from telecloning import (
    OPOParams,
    ProtocolConfig,
    SqueezerSpec,
    alice_trace_levels,
    bipartite_criterion_lhs,
    build_telecloning_resource,
    circuit_states,
    clone_output_state,
    condition_on,
    db_to_variance,
    fidelity_unit_gain,
    fidelity_vs_pump,
    is_physical,
    marginal,
    optimal_squeezing,
    run_analytic,
    run_circuit_analytic,
    squeezing_spectra,
    symplectic_eigenvalues,
)
from telecloning.protocol import READOUT, _measurement_plan, _simulate_shots
from helpers import collect_records, random_config

R_STAR, E_MINUS_2R, OPT_DB = optimal_squeezing()
OPT_SPEC = SqueezerSpec.pure(OPT_DB)
ZERO_SPEC = SqueezerSpec.pure(0.0)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} {detail}"


def test_criterion_1_optimal_fidelity():
    t0 = time.perf_counter()
    config = ProtocolConfig(OPT_SPEC, OPT_SPEC, input_alpha=5 + 3j)
    m = run_analytic(config)
    f1 = fidelity_unit_gain(m.clone1.var_x, m.clone1.var_p)
    f2 = fidelity_unit_gain(m.clone2.var_x, m.clone2.var_p)
    elapsed = time.perf_counter() - t0
    ok = abs(f1 - 2 / 3) < 1e-9 and abs(f2 - 2 / 3) < 1e-9 and elapsed < 1.0
    report("criterion 1: optimal telecloning fidelity 2/3", ok,
           f"F1={f1:.12f} F2={f2:.12f} in {elapsed:.3f}s")


def test_criterion_2_classical_limit():
    m = run_analytic(ProtocolConfig(ZERO_SPEC, ZERO_SPEC, input_alpha=5 + 3j))
    f = fidelity_unit_gain(m.clone1.var_x, m.clone1.var_p)
    vars_ok = all(abs(v - 0.75) < 1e-9 for v in
                  (m.clone1.var_x, m.clone1.var_p, m.clone2.var_x, m.clone2.var_p))
    ok = abs(f - 0.5) < 1e-9 and vars_ok
    report("criterion 2: classical limit 1/2 with two vacuum units", ok,
           f"F={f:.12f} var={m.clone1.var_x:.12f}")


def test_criterion_3_measured_noise_fidelity():
    t0 = time.perf_counter()
    f1 = fidelity_unit_gain(db_to_variance(3.74), db_to_variance(4.06))
    f2 = fidelity_unit_gain(db_to_variance(3.79), db_to_variance(4.03))
    elapsed = time.perf_counter() - t0
    ok = (abs(f1 - 0.579) < 0.005 and abs(f1 - 0.58) <= 0.01
          and 0.57 <= f2 <= 0.59 and elapsed < 1e-3)
    report("criterion 3: measured-noise fidelity 0.579 / 0.578", ok,
           f"F1={f1:.6f} F2={f2:.6f} in {elapsed * 1e6:.0f}us")


def test_criterion_4_criterion_minimum():
    def lhs_of_r(r):
        spec = SqueezerSpec.pure(20.0 * r * np.log10(np.e))
        return bipartite_criterion_lhs(build_telecloning_resource(spec, spec))

    res = optimize.minimize_scalar(lhs_of_r, bounds=(0.01, 2.0), method="bounded",
                                   options={"xatol": 1e-12})
    db_found = -10.0 * np.log10(np.exp(-2.0 * res.x))
    lhs_zero = bipartite_criterion_lhs(
        build_telecloning_resource(ZERO_SPEC, ZERO_SPEC))
    ok = (abs(db_found - 7.656) <= 1e-3 and abs(res.fun - 0.5) <= 1e-6
          and abs(lhs_zero - 1.0) <= 1e-9)
    report("criterion 4: criterion minimum 0.5 at 7.656 dB", ok,
           f"db={db_found:.6f} min={res.fun:.9f} lhs(0dB)={lhs_zero:.12f}")


def test_criterion_5_dual_path_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        config = random_config(rng)
        a, b = run_analytic(config), run_circuit_analytic(config)
        for clone in ("clone1", "clone2"):
            for field in ("mean_x", "mean_p", "var_x", "var_p"):
                worst = max(worst, abs(getattr(getattr(a, clone), field)
                                       - getattr(getattr(b, clone), field)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report("criterion 5: dual-path equivalence over 100 random configs", ok,
           f"worst diff {worst:.3e} in {elapsed:.2f}s")


def test_criterion_6_monte_carlo_convergence():
    t0 = time.perf_counter()
    config = ProtocolConfig(OPT_SPEC, OPT_SPEC, input_alpha=5 + 3j,
                            shots=100_000, seed=424242)
    mc, records = collect_records(config)
    ana = run_circuit_analytic(config)
    within = True
    for est, truth in ((mc.clone1, ana.clone1), (mc.clone2, ana.clone2)):
        within &= abs(est.mean_x - truth.mean_x) < 5 * est.se_mean_x
        within &= abs(est.mean_p - truth.mean_p) < 5 * est.se_mean_p
        within &= abs(est.var_x - truth.var_x) < 5 * est.se_var_x
        within &= abs(est.var_p - truth.var_p) < 5 * est.se_var_p
    f_mc = fidelity_unit_gain(mc.clone1.var_x, mc.clone1.var_p)
    fid_ok = abs(f_mc - 2 / 3) < 0.01

    _, again = collect_records(config)
    deterministic = np.array_equal(records, again)
    plan = _measurement_plan(config)
    permuted = [_simulate_shots(plan, config.seed, j, 1)[0][:, 0]
                for j in (99_999, 5, 31_337, 0)]
    order_free = all(np.array_equal(records[:, j], rec) for j, rec in
                     zip((99_999, 5, 31_337, 0), permuted))
    elapsed = time.perf_counter() - t0
    ok = within and fid_ok and deterministic and order_free and elapsed < 30.0
    report("criterion 6: Monte Carlo convergence at 1e5 shots", ok,
           f"F={f_mc:.4f} deterministic={deterministic} "
           f"order-free={order_free} in {elapsed:.1f}s")


def test_criterion_7_output_coefficients():
    from telecloning import resource_circuit_matrix
    m = resource_circuit_matrix()
    s2 = np.sqrt(2.0)
    targets = {
        (+1, "x"): [(1 - s2) / 2, -(1 + s2) / 2, 1 / s2],
        (-1, "x"): [(1 - s2) / 2, -(1 + s2) / 2, -1 / s2],
        (+1, "p"): [(1 + s2) / 2, -(1 - s2) / 2, 1 / s2],
        (-1, "p"): [(1 + s2) / 2, -(1 - s2) / 2, -1 / s2],
    }
    rows = {
        (+1, "x"): -(m[0] - m[2]), (-1, "x"): -(m[0] - m[4]),
        (+1, "p"): m[1] + m[3], (-1, "p"): m[1] + m[5],
    }
    cols = {"x": [0, 2, 4], "p": [1, 3, 5]}
    worst = max(np.max(np.abs(rows[key][cols[key[1]]] - np.array(target)))
                for key, target in targets.items())
    ok = worst < 1e-12
    report("criterion 7: exact output coefficients", ok, f"worst {worst:.2e}")


def test_criterion_8_physicality_suite():
    configs = [
        ProtocolConfig(OPT_SPEC, OPT_SPEC, input_alpha=5 + 3j),
        ProtocolConfig(ZERO_SPEC, ZERO_SPEC),
        ProtocolConfig(SqueezerSpec(4, 9), SqueezerSpec(3, 8), input_alpha=1j,
                       gains=(0.7, 1.3, 1.1, 0.9), eta_homodyne=0.9,
                       eta_resource=(0.92, 0.95, 0.9), coupler_t=0.95),
    ]
    rng = np.random.default_rng(31)
    checked, floor = 0, np.inf
    for config in configs:
        states = list(circuit_states(config).values())
        states.append(clone_output_state(config))
        # the sender's readout, each outcome at its marginal mean
        st = circuit_states(config)["detected"]
        for sel in READOUT:
            st = condition_on(st, sel, marginal(st, sel)[0])
            states.append(st)
        for state in states:
            checked += 1
            floor = min(floor, symplectic_eigenvalues(state).min())
            assert is_physical(state)
    ok = floor >= 0.25 - 1e-9
    report("criterion 8: physicality across the pipeline", ok,
           f"{checked} states, min eigenvalue {floor:.12f}")


def test_criterion_9_sweep_shapes():
    # pure-squeezing sweep: unimodal, argmax at the optimum, peak 2/3
    grid_db = np.linspace(0.0, 12.0, 1201)
    fid = []
    for s in grid_db:
        spec = SqueezerSpec.pure(float(s))
        m = run_analytic(ProtocolConfig(spec, spec))
        fid.append(fidelity_unit_gain(m.clone1.var_x, m.clone1.var_p))
    fid = np.array(fid)
    best = int(np.argmax(fid))
    rises = np.diff(fid) > 0
    unimodal = np.sum(np.diff(rises.astype(int)) != 0) == 1
    sq_ok = (unimodal and abs(grid_db[best] - 7.66) <= 0.05
             and abs(fid[best] - 2 / 3) <= 1e-6)

    # pump sweep: starts at 1/2, never exceeds 2/3 for eta_det <= 1
    pump_ok = True
    for eta in (0.6, 0.9, 1.0):
        curve = fidelity_vs_pump(OPOParams(100.0, eta, 0.0),
                                 np.linspace(0.0, 99.5, 200))
        pump_ok &= abs(curve[0, 1] - 0.5) < 1e-12
        pump_ok &= bool(curve[:, 1].max() <= 2 / 3 + 1e-9)
    ok = sq_ok and pump_ok
    report("criterion 9: sweep shapes", ok,
           f"argmax {grid_db[best]:.3f} dB peak {fid[best]:.9f} pump-capped={pump_ok}")


def test_criterion_10_sender_side_checks():
    config = ProtocolConfig(OPT_SPEC, OPT_SPEC, input_alpha=5 + 3j)
    v_a, red_a = alice_trace_levels(config)
    v_b, red_b = alice_trace_levels(
        ProtocolConfig(OPT_SPEC, OPT_SPEC, input_alpha=0j))
    exact = red_a == red_b and abs(red_a - 10 * np.log10(2.0)) < 1e-12
    independent = abs(v_a - v_b) < 1e-12
    # sub-optimal squeezing leaves the excess between 0 and 3 dB
    banded = True
    for r in np.linspace(0.1, R_STAR * 0.98, 12):
        spec = SqueezerSpec.pure(20.0 * r * np.log10(np.e))
        v, _ = alice_trace_levels(ProtocolConfig(spec, spec))
        excess_db = 10 * np.log10(v / 0.25)
        banded &= 0.0 < excess_db < 10 * np.log10(2.0)
    ok = exact and independent and banded
    report("criterion 10: sender-side levels", ok,
           f"reduction={red_a:.6f} dB, Var(p_v)={v_a:.6f}")
