import warnings

import mpmath
import numpy as np
import pytest

from telecloning import (
    GaussianState,
    PhysicalityError,
    QuadratureSelector,
    SymplecticMatrix,
    apply_symplectic,
    assert_physical,
    beam_splitter_50_50,
    coherent,
    displace,
    is_physical,
    loss_channel,
    marginal,
    partial_trace,
    phase_shift,
    squeezed_vacuum,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    vacuum,
)
from telecloning.gaussian import (
    PHYSICALITY_TOL,
    SYMMETRY_TOL,
    _assert_bona_fide,
    _is_symmetric,
    apply_channel,
    compose,
    loss_map,
    symplectic_map,
)
from telecloning.homodyne import conditional
from telecloning.protocol import READOUT, ProtocolConfig, circuit_states
from telecloning.resource import SqueezerSpec, build_telecloning_resource
from helpers import random_state, random_squeeze, wide_config


def test_vacuum_moments():
    st = vacuum(1)
    assert np.array_equal(st.mean, np.zeros(2))
    assert np.array_equal(st.cov, 0.25 * np.eye(2))


def test_vacuum_three_modes():
    st = vacuum(3)
    assert st.n_modes == 3
    assert np.array_equal(st.mean, np.zeros(6))
    assert np.array_equal(st.cov, 0.25 * np.eye(6))


def test_vacuum_is_minimum_uncertainty():
    assert np.allclose(symplectic_eigenvalues(vacuum(2)), [0.25, 0.25])


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum(0)


def test_coherent_zero_amplitude_is_vacuum():
    st = coherent([0])
    assert np.array_equal(st.mean, vacuum(1).mean)
    assert np.array_equal(st.cov, vacuum(1).cov)


def test_coherent_mean_is_amplitude():
    st = coherent([5 + 3j])
    assert np.allclose(st.mean, [5.0, 3.0])
    assert np.array_equal(st.cov, 0.25 * np.eye(2))


@pytest.mark.parametrize("alpha", [0j, 1 + 1j, -7 + 2.5j, 100j])
def test_coherent_variance_independent_of_amplitude(alpha):
    st = coherent([alpha])
    assert np.allclose(np.diag(st.cov), [0.25, 0.25])


def test_coherent_rejects_empty():
    with pytest.raises(ValueError):
        coherent([])


def test_squeezed_vacuum_zero_squeezing_is_vacuum():
    st = squeezed_vacuum(0.25, 0.25)
    assert np.array_equal(st.cov, 0.25 * np.eye(2))


def test_squeezed_vacuum_pure_optimal_values():
    # e^{-2r} = (sqrt(2)-1)/(sqrt(2)+1): variances (3 +- 2 sqrt(2))/4
    v_p = (3 - 2 * np.sqrt(2)) / 4
    v_x = (3 + 2 * np.sqrt(2)) / 4
    st = squeezed_vacuum(v_x, v_p)
    assert v_x * v_p == pytest.approx(1 / 16, rel=1e-12)
    assert np.allclose(symplectic_eigenvalues(st), [0.25], atol=1e-12)
    # the squeezed level of this pure state is 7.66 dB below vacuum
    assert 10 * np.log10(v_p / 0.25) == pytest.approx(-7.6555137, abs=1e-6)


def test_squeezed_vacuum_rejects_uncertainty_violation():
    with pytest.raises(PhysicalityError):
        squeezed_vacuum(0.1, 0.1)


def test_beam_splitter_is_symplectic():
    s = beam_splitter_50_50().entries
    omega = symplectic_form(2)
    assert np.allclose(s.T @ omega @ s, omega, atol=1e-14)


def test_beam_splitter_is_one_read_only_matrix():
    bs = beam_splitter_50_50()
    assert bs is beam_splitter_50_50()
    with pytest.raises(ValueError, match="read-only"):
        bs.entries[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        phase_shift(0.3).entries[0, 1] = 1.0


def test_mutating_a_symplectic_form_leaves_the_next_call_unchanged():
    omega = symplectic_form(3)
    expected = omega.copy()
    omega[:] = 7.0
    assert np.array_equal(symplectic_form(3), expected)
    assert np.allclose(symplectic_eigenvalues(vacuum(3)), 0.25, rtol=0, atol=1e-15)


def test_beam_splitter_preserves_vacuum():
    st = apply_symplectic(vacuum(2), beam_splitter_50_50(), [0, 1])
    assert np.allclose(st.cov, 0.25 * np.eye(4), atol=1e-14)
    assert np.allclose(st.mean, 0.0)


def test_beam_splitter_splits_amplitude():
    st = apply_symplectic(coherent([4 + 2j, 0]), beam_splitter_50_50(), [0, 1])
    expect = np.array([4, 2, 4, 2]) / np.sqrt(2)
    assert np.allclose(st.mean, expect)


def test_phase_shift_zero_is_identity():
    assert np.allclose(phase_shift(0.0).entries, np.eye(2))


def test_phase_shift_quarter_turn():
    st = apply_symplectic(coherent([1]), phase_shift(np.pi / 2), [0])
    assert np.allclose(st.mean, [0.0, 1.0], atol=1e-15)


def test_phase_shift_twice_flips_sign():
    st = coherent([1 + 2j])
    for _ in range(2):
        st = apply_symplectic(st, phase_shift(np.pi / 2), [0])
    assert np.allclose(st.mean, [-1.0, -2.0], atol=1e-15)


def test_apply_identity_leaves_state():
    st = random_state(np.random.default_rng(0), 3)
    out = apply_symplectic(st, SymplecticMatrix(np.eye(4)), [0, 2])
    assert np.allclose(out.mean, st.mean)
    assert np.allclose(out.cov, st.cov)


def test_double_beam_splitter_is_identity():
    # the symmetric convention matrix is an involution: S @ S == identity
    s = beam_splitter_50_50().entries
    assert np.allclose(s @ s, np.eye(4), atol=1e-15)
    st = random_state(np.random.default_rng(1), 2)
    out = apply_symplectic(
        apply_symplectic(st, beam_splitter_50_50(), [0, 1]),
        beam_splitter_50_50(), [0, 1])
    assert np.allclose(out.mean, st.mean, atol=1e-12)
    assert np.allclose(out.cov, st.cov, atol=1e-12)


def test_symplectic_preserves_symplectic_eigenvalues():
    rng = np.random.default_rng(2)
    st = random_state(rng, 3)
    before = symplectic_eigenvalues(st)
    out = apply_symplectic(st, random_squeeze(rng), [1])
    out = apply_symplectic(out, beam_splitter_50_50(), [0, 2])
    assert np.allclose(symplectic_eigenvalues(out), before, atol=1e-9)


def test_apply_symplectic_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(vacuum(3), beam_splitter_50_50(), [0])


def test_apply_symplectic_duplicate_modes():
    with pytest.raises(ValueError):
        apply_symplectic(vacuum(3), beam_splitter_50_50(), [1, 1])


@pytest.mark.parametrize("mode", (-1, 2))
def test_every_operation_checks_mode_range(mode):
    st = vacuum(2)
    for operation in (lambda: apply_symplectic(st, phase_shift(0.3), [mode]),
                      lambda: displace(st, mode, 1.0, 0.0),
                      lambda: loss_channel(st, mode, 0.5),
                      lambda: partial_trace(st, [mode]),
                      lambda: marginal(st, QuadratureSelector(mode, "x"))):
        with pytest.raises(ValueError, match="out of range"):
            operation()
    with pytest.raises(ValueError, match="duplicate"):
        partial_trace(st, [1, 1])


def test_symmetry_check_equals_allclose():
    base = np.random.default_rng(5).normal(size=(4, 4))
    base = base + base.T
    edge = np.zeros((4, 4))
    edge[0, 1] = SYMMETRY_TOL  # exactly at the tolerance: symmetric
    cases = [base, edge]
    for delta in (0.5e-12, 1e-12, 1.5e-12, 1e-6):
        case = base.copy()
        case[0, 1] += delta
        cases.append(case)
    for value in (np.inf, -np.inf, np.nan):
        for cells in (((0, 1), (1, 0)), ((2, 2),), ((0, 1),)):
            case = base.copy()
            for cell in cells:
                case[cell] = value
            cases.append(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in cases:
            assert _is_symmetric(case) == np.allclose(case, case.T, rtol=0.0,
                                                      atol=SYMMETRY_TOL)
        stack = np.stack(cases)
        assert not _is_symmetric(stack)
        assert _is_symmetric(stack[[0, 1, 2, 6, 7]])  # in tolerance, equal infinities


def test_symplectic_matrix_rejects_non_symplectic():
    with pytest.raises(ValueError):
        SymplecticMatrix(np.diag([2.0, 2.0]))


def test_displace_shifts_mean_only():
    st = displace(vacuum(1), 0, 2.0, 0.0)
    assert np.allclose(st.mean, [2.0, 0.0])
    assert np.array_equal(st.cov, vacuum(1).cov)


def test_displace_inverse_restores_state():
    st = random_state(np.random.default_rng(3), 2)
    out = displace(displace(st, 1, 0.7, -1.2), 1, -0.7, 1.2)
    assert np.allclose(out.mean, st.mean, atol=1e-15)
    assert np.allclose(out.cov, st.cov)


def test_loss_identity_at_full_transmission():
    st = random_state(np.random.default_rng(4), 2)
    out = loss_channel(st, 0, 1.0)
    assert np.allclose(out.mean, st.mean)
    assert np.allclose(out.cov, st.cov)


def test_loss_zero_gives_decorrelated_vacuum():
    st = random_state(np.random.default_rng(5), 2)
    out = loss_channel(st, 0, 0.0)
    assert np.allclose(out.mean[:2], 0.0)
    assert np.allclose(out.cov[:2, :2], 0.25 * np.eye(2))
    assert np.allclose(out.cov[:2, 2:], 0.0)


def test_loss_variance_formula():
    st = squeezed_vacuum(0.5, 0.5)
    out = loss_channel(st, 0, 0.5)
    assert out.cov[0, 0] == pytest.approx(0.375, abs=1e-15)


def test_loss_requires_eta_in_range():
    with pytest.raises(ValueError):
        loss_channel(vacuum(1), 0, 1.5)


def test_loss_preserves_physicality():
    rng = np.random.default_rng(6)
    for _ in range(20):
        st = random_state(rng, 3)
        out = loss_channel(st, int(rng.integers(3)), rng.uniform(0.0, 1.0))
        assert is_physical(out)


def test_partial_trace_all_modes_is_identity():
    st = random_state(np.random.default_rng(7), 3)
    out = partial_trace(st, [0, 1, 2])
    assert np.allclose(out.mean, st.mean)
    assert np.allclose(out.cov, st.cov)


def test_partial_trace_of_product_state():
    a = squeezed_vacuum(0.1, 0.7)
    b = coherent([2 - 1j])
    out = partial_trace(tensor(a, b), [1])
    assert np.allclose(out.mean, b.mean)
    assert np.allclose(out.cov, b.cov)


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(vacuum(2), [])


def test_symplectic_eigenvalue_of_thermal_mode():
    st = GaussianState(np.zeros(2), np.diag([0.4, 0.4]))
    assert np.allclose(symplectic_eigenvalues(st), [0.4])


def test_pure_squeezed_state_eigenvalue_quarter():
    st = squeezed_vacuum(0.05, 0.0625 / 0.05)
    assert np.allclose(symplectic_eigenvalues(st), [0.25], atol=1e-12)


def test_operations_keep_covariance_symmetric():
    rng = np.random.default_rng(8)
    st = random_state(rng, 4)
    st = loss_channel(st, 2, 0.7)
    st = apply_symplectic(st, beam_splitter_50_50(), [0, 3])
    st = displace(st, 1, 0.3, 0.4)
    assert np.allclose(st.cov, st.cov.T, atol=1e-12)
    assert_physical(st)


def test_composed_channel_equals_channels_in_turn():
    rng = np.random.default_rng(31)
    for _ in range(20):
        st = random_state(rng, 3)
        channels = []
        for _ in range(3):
            pair = [int(m) for m in rng.choice(3, size=2, replace=False)]
            channels += [
                symplectic_map(3, beam_splitter_50_50(), pair),
                symplectic_map(3, random_squeeze(rng), [int(rng.integers(3))]),
                loss_map(3, {m: rng.uniform(0.0, 1.0) for m in pair}),
            ]
        in_turn = st
        for channel in channels:
            in_turn = apply_channel(in_turn, channel)
        once = apply_channel(st, compose(*channels))
        assert np.allclose(once.mean, in_turn.mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(once.cov, in_turn.cov, rtol=1e-12, atol=1e-12)
        assert np.array_equal(once.cov, once.cov.T)


def test_unphysical_covariance_detected():
    bad = GaussianState(np.zeros(2), np.diag([0.1, 0.1]))
    with pytest.raises(PhysicalityError):
        assert_physical(bad)


@pytest.mark.parametrize("diagonal", ([1.0, -1.0], [1.0, 1.0, -3.0, -3.0]))
def test_negative_variance_is_unphysical(diagonal):
    # |eig(i Omega V)| is blind to the sign: both pass the symplectic bound
    bad = GaussianState(np.zeros(len(diagonal)), np.diag(diagonal))
    assert symplectic_eigenvalues(bad).min() > 0.99
    assert not is_physical(bad)
    with pytest.raises(PhysicalityError, match=r"unphysical state in here: variance -\d"):
        assert_physical(bad, context="here")


@pytest.mark.parametrize("variance, error, message", (
    (0.0, FloatingPointError, "here lost precision: variance 0 is within the rounding "
                              "bound 7.1054273586 of 0"),
    (-7.0, FloatingPointError, "here lost precision: variance -7 is within the rounding "
                               "bound 7.1054273586 of 0"),
    (-7.2, PhysicalityError, "unphysical state in here: variance -7.2 is not positive"),
))
def test_variance_lost_to_rounding_is_a_numeric_error(variance, error, message):
    # a variance at or below 0 by no more than the check's bound is the
    # rounding of the subtraction that made it; only one further below is
    # unphysical. Bound: 1e-9 + 8 * 4 * eps * 1e15 = 7.105...
    cov = np.diag([0.25, variance, 0.25, 0.25])
    with pytest.raises(error) as raised:
        _assert_bona_fide(cov, np.diag([1e15] * 4), "here")
    assert str(raised.value) == message


@pytest.mark.parametrize("cov, physical", (
    (random_state(np.random.default_rng(4), 3).cov, True),
    (np.diag([1.0, -1.0]), False),
    (np.diag([1.0, 1.0, -3.0, -3.0]), False),
    (np.diag([0.25 - 2e-9, 0.25 - 2e-9, 1.0, 1.0]), False),  # eigenvalue -2e-9, tolerance 1e-9
    # positive variances, not positive definite: V + (i/4) Omega has eigenvalue -1.02
    (np.array([[1.0, 2.0], [2.0, 1.0]]), False),
), ids=("random", "negative-x", "negative-pair", "below-bound", "indefinite"))
def test_is_physical_is_whether_assert_physical_passes(cov, physical):
    state = GaussianState(np.zeros(len(cov)), cov)
    try:
        assert_physical(state)
        passed = True
    except PhysicalityError:
        passed = False
    assert is_physical(state) == passed == physical


def _unchecked_state(cov) -> GaussianState:
    """A state holding ``cov`` as given: ``GaussianState`` refuses a NaN off
    the diagonal as asymmetric, and the check must not rely on that."""
    state = object.__new__(GaussianState)
    object.__setattr__(state, "mean", np.zeros(len(cov)))
    object.__setattr__(state, "cov", np.array(cov, dtype=float))
    return state


@pytest.mark.parametrize("entry", (np.inf, -np.inf, np.nan))
def test_non_finite_covariance_is_a_numeric_error(entry):
    # eigvalsh returns NaN on an inf entry and raises nothing; the check
    # raises numpy's own non-finite error, which the CLI reports as exit 2
    cov = np.eye(4)
    cov[0, 3] = cov[3, 0] = entry
    for check in (assert_physical, is_physical):
        with pytest.raises(np.linalg.LinAlgError, match="^Array must not contain infs or NaNs$"):
            check(_unchecked_state(cov))


def _exact_smallest_eigenvalue(cov):
    """Smallest eigenvalue of cov + (i/4) Omega, for the entries of cov (float
    or mpmath) as they are, in 60-digit arithmetic."""
    n = len(cov)
    shift = 0.25 * symplectic_form(n // 2)
    with mpmath.workdps(60):
        h = mpmath.matrix([[mpmath.mpc(cov[i, j], float(shift[i, j])) for j in range(n)]
                           for i in range(n)])
        return min(mpmath.eighe(h, eigvals_only=True))


@pytest.mark.parametrize("impurity_db", (0.0, 3.0), ids=("pure", "impure"))
def test_physicality_check_agrees_with_a_60_digit_oracle(impurity_db):
    # every symmetric resource is physical by construction, up to the
    # rounding of its float covariance, which grows with the squeezing
    built = [build_telecloning_resource(spec, spec) for spec in
             (SqueezerSpec(level, level + impurity_db) for level in np.linspace(0.0, 150.0, 11))]
    for state in built:
        cov = state.cov
        exact = _exact_smallest_eigenvalue(cov)
        weyl = 8 * len(cov) * np.finfo(float).eps * np.abs(cov).sum(axis=1).max()
        computed = np.linalg.eigvalsh(cov + 0.25j * symplectic_form(3))[0]
        assert abs(computed - exact) <= weyl, (cov[0, 0], computed, exact)
        if exact >= 0:
            assert is_physical(state), (cov[0, 0], exact)
        assert_physical(state)
    # a thermal mode 2e-9 below the vacuum is twice the tolerance below it
    thermal = GaussianState(np.zeros(2), np.diag([0.25 - 2e-9] * 2))
    assert _exact_smallest_eigenvalue(thermal.cov) < -1.9e-9
    with pytest.raises(PhysicalityError, match=r"^unphysical state: smallest eigenvalue "):
        assert_physical(thermal)


KEPT = [4, 5, 6, 7]  # (xB, pB, xC, pC) of the detected state on (in, A, B, C)


def test_conditioned_modes_check_agrees_with_a_60_digit_oracle():
    # the conditioned receiver covariance is C_KK - C_KQ C_QQ^-1 C_QK: its
    # rounding is that of the kept block C_KK, whose entries grow as
    # 10**(level/10) while the result stays near the vacuum
    configs = [ProtocolConfig(spec, spec) for spec in
               (SqueezerSpec(level, level + impurity)
                for level in np.linspace(0.0, 150.0, 11) for impurity in (0.0, 3.0))]
    rng = np.random.default_rng(77)
    configs += [wide_config(rng) for _ in range(40)]
    q = [sel.index() for sel in READOUT]
    for config in configs:
        plan = config.plan  # it builds: no conditioned variance rounds to 0 or below
        detected = circuit_states(config)["detected"].cov
        kk, kq, qq = (detected[np.ix_(rows, cols)] for rows, cols in
                      ((KEPT, KEPT), (KEPT, q), (q, q)))
        with mpmath.workdps(60):
            kq_exact = mpmath.matrix(kq.tolist())
            exact = _exact_smallest_eigenvalue(
                mpmath.matrix(kk.tolist())
                - kq_exact * mpmath.inverse(mpmath.matrix(qq.tolist())) * kq_exact.T)
        bound = PHYSICALITY_TOL + 8 * 4 * np.finfo(float).eps * np.abs(kk).sum(axis=1).max()
        computed = np.linalg.eigvalsh(plan.cond_cov + 0.25j * symplectic_form(2))[0]
        assert abs(computed - exact) <= bound, (config.spec_i, computed, exact, bound)
        _assert_bona_fide(plan.cond_cov, kk, "conditioned receiver modes")  # no op checks it
    # a conditioned thermal mode 2e-9 below the vacuum fails
    detected = np.diag([1.0] * 4 + [0.25 - 2e-9] * 4)
    kept = detected[np.ix_(KEPT, KEPT)]
    _, cond = conditional(detected[np.ix_(q, q)], detected[np.ix_(KEPT, q)], kept)
    assert _exact_smallest_eigenvalue(cond) < -1.9e-9
    with pytest.raises(PhysicalityError, match=r"^unphysical state in conditioned receiver "
                                               r"modes: smallest eigenvalue "):
        _assert_bona_fide(cond, kept, "conditioned receiver modes")
