"""Gaussian quantum-optics simulation of 1-to-2 coherent-state telecloning.

Covariance-matrix simulation of the full protocol: tripartite resource
preparation from two squeezed vacua, the sender's joint quadrature
measurement, classical feedforward to two receivers, and fidelity
evaluation of the resulting clones against the coherent input.
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    PhysicalityError,
    SymplecticMatrix,
    VACUUM_VARIANCE,
    apply_symplectic,
    assert_physical,
    beam_splitter_50_50,
    coherent,
    displace,
    is_physical,
    loss_channel,
    partial_trace,
    phase_shift,
    squeezed_vacuum,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    vacuum,
)
from .homodyne import (
    DegenerateVarianceError,
    HomodyneOutcome,
    QuadratureSelector,
    condition_on,
    marginal,
    sample_homodyne,
    shot_normals,
    shot_stream,
)
from .resource import (
    ResourceState,
    SqueezerSpec,
    bipartite_criterion_lhs,
    build_telecloning_resource,
    clone_pair_criterion_lhs,
    optimal_squeezing,
    resource_circuit_matrix,
    squeezer_variances,
)
from .protocol import (
    CloneMoments,
    ProtocolConfig,
    QuadratureMoments,
    ShotRecord,
    ShotRecords,
    alice_trace_levels,
    circuit_states,
    clone_output_state,
    clone_variances,
    run_analytic,
    run_circuit_analytic,
    run_monte_carlo,
)
from .metrics import (
    CLASSICAL_LIMIT,
    OPTIMAL_GAUSSIAN,
    FidelityReport,
    GainEstimates,
    UndefinedGainError,
    db_to_variance,
    estimate_gains,
    fidelity_general,
    fidelity_report,
    fidelity_unit_gain,
    variance_to_db,
)
from .opo import (
    FitResult,
    OPOParams,
    fidelity_vs_pump,
    fit_params,
    pump_spectra,
    squeezing_spectra,
)
