"""Shot-by-shot simulation of the measurement and feedforward.

Each trial samples the two readout outcomes, conditions the receiver
modes, and applies the displacements. Estimates converge to the analytic
moments as 1/sqrt(shots); a fixed seed reproduces every shot exactly
because shot j draws from its own words of a counter-based generator.
"""

import numpy as np

from telecloning import (
    ProtocolConfig,
    SqueezerSpec,
    fidelity_unit_gain,
    optimal_squeezing,
    run_circuit_analytic,
    run_monte_carlo,
)

_, _, opt_db = optimal_squeezing()
SPEC = SqueezerSpec.pure(opt_db)
ALPHA = 5 + 3j


def shot_records(config):
    """The (6, shots) per-shot records, gathered from ``run_monte_carlo``'s
    chunks as it draws them: one row per field, x_u, p_v, then the clone
    means x1, p1, x2, p2."""
    chunks = []
    run_monte_carlo(config, sink=lambda records, first: chunks.append(records.copy()))
    return np.concatenate(chunks, axis=1)


truth = run_circuit_analytic(ProtocolConfig(SPEC, SPEC, input_alpha=ALPHA))
print(f"analytic targets: mean ({truth.clone1.mean_x}, {truth.clone1.mean_p}), "
      f"var ({truth.clone1.var_x:.4f}, {truth.clone1.var_p:.4f}), F = 2/3\n")

print(f"{'shots':>8} {'mean_x':>9} {'var_x':>9} {'+-':>8} {'fidelity':>9}")
for shots in (100, 1_000, 10_000, 100_000):
    config = ProtocolConfig(SPEC, SPEC, input_alpha=ALPHA, shots=shots, seed=7)
    c = run_monte_carlo(config).clone1
    f = fidelity_unit_gain(c.var_x, c.var_p)
    print(f"{shots:8d} {c.mean_x:9.4f} {c.var_x:9.4f} {c.se_var_x:8.4f} {f:9.4f}")

print("\nfirst three shot records (seed 7):")
config = ProtocolConfig(SPEC, SPEC, input_alpha=ALPHA, shots=3, seed=7)
records = shot_records(config)
for j, (x_u, p_v, x1, p1, _, _) in enumerate(records.T):
    print(f"  shot {j}: x_u = {x_u:+.4f}, p_v = {p_v:+.4f} "
          f"-> clone means ({x1:+.4f}, {p1:+.4f})")

print("re-run with same seed identical:", np.array_equal(records, shot_records(config)))

# Bell outcome statistics: x_u = (x_in - x_A)/sqrt(2) mixes the input
# variance with the sender mode's thermal excess
config = ProtocolConfig(SPEC, SPEC, input_alpha=ALPHA, shots=50_000, seed=11)
x_u = shot_records(config)[0]
print(f"\nsampled Var(x_u) = {x_u.var(ddof=1):.4f}, "
      f"expected (0.25 + 0.75)/2 = 0.5")

# an imperfect bench: impure squeezing, detection and propagation losses
lossy = ProtocolConfig(SqueezerSpec(5, 8), SqueezerSpec(5, 8),
                       input_alpha=ALPHA, eta_homodyne=0.93,
                       eta_resource=(0.97, 0.95, 0.95), coupler_t=0.99,
                       shots=100_000, seed=13)
mc = run_monte_carlo(lossy)
ana = run_circuit_analytic(lossy)
print(f"\nlossy bench: sampled var_x {mc.clone1.var_x:.4f} "
      f"vs analytic {ana.clone1.var_x:.4f}, "
      f"F = {fidelity_unit_gain(mc.clone1.var_x, mc.clone1.var_p):.4f}")
