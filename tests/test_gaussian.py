import warnings

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
    SYMMETRY_TOL,
    _is_symmetric,
    apply_channel,
    compose,
    loss_map,
    symplectic_map,
)
from helpers import random_state, random_squeeze


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
