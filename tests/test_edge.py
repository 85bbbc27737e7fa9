import numpy as np
import pytest

from nonlocal_ssh.edge import (
    EdgeLabels,
    build_zero_mode,
    count_admissible_labels,
    localization_fit,
    operator_residual,
    phase_label,
    zero_mode_exponents,
)
from nonlocal_ssh.errors import (
    DegenerateLabel,
    InsufficientPeaks,
    NonCommensurateBox,
    ValidationError,
    ZeroCoupling,
)
from nonlocal_ssh.finite import build_finite, spectrum
from nonlocal_ssh.model import FiniteParams, make_grid

# the standard box geometry: 50 hop lengths across, 20 grid points per hop
BOX = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0, dx=0.01)
RATE = np.log(2.0) / 0.2  # (1/a) ln|w0/v0| = 3.4657...


def test_exponents_closed_form():
    q_a, q_b = zero_mode_exponents(BOX)
    assert q_a == pytest.approx(-RATE + 1j * np.pi / 0.2)
    assert q_b == pytest.approx(+RATE - 1j * np.pi / 0.2)
    # swapping the couplings flips the decay direction
    r_a, _ = zero_mode_exponents(
        FiniteParams(v0=1.0, w0=0.5, a=0.2, L=10.0, dx=0.01)
    )
    assert r_a.real == pytest.approx(RATE)
    with pytest.raises(ZeroCoupling):
        zero_mode_exponents(FiniteParams(v0=0.0, w0=1.0, a=0.2, L=10.0, dx=0.01))
    with pytest.raises(ZeroCoupling):
        zero_mode_exponents(FiniteParams(v0=1.0, w0=0.0, a=0.2, L=10.0, dx=0.01))


@pytest.mark.parametrize("v0, w0", [(0.5, 1.0), (0.5, -1.0), (-0.5, 1.0), (-0.5, -1.0)])
def test_zero_modes_all_sign_pairs(v0, w0):
    # the per-hop factor -v0/w0 is negative for equal signs (Im q = +-pi/a)
    # and positive for opposite signs (Im q = 0)
    box = FiniteParams(v0=v0, w0=w0, a=0.2, L=10.0, dx=0.01)
    q_a, q_b = zero_mode_exponents(box)
    assert np.exp(q_a * box.a) == pytest.approx(-v0 / w0)
    assert np.exp(q_b * box.a) == pytest.approx(-w0 / v0)
    op = build_finite(box)
    for comp, labels, sign in (("A", EdgeLabels(n=3, m=1), -1.0),
                               ("B", EdgeLabels(n=5, m=2), +1.0)):
        st = build_zero_mode(box, comp, labels).state
        assert operator_residual(op, st) < 1e-10
        psi = st.psi_a if comp == "A" else st.psi_b
        fit = localization_fit(op.grid, psi, box.a)
        assert fit.slope == pytest.approx(sign * RATE, rel=0.02)


def test_phase_label_values():
    # (2m+1) pi/2 + n pi L/a with L/a = 50
    assert phase_label(3, 1, BOX) == pytest.approx(1.5 * np.pi + 150 * np.pi)
    assert phase_label(5, 2, BOX) == pytest.approx(2.5 * np.pi + 250 * np.pi)


def test_label_validation():
    with pytest.raises(DegenerateLabel):
        phase_label(0, 1, BOX)
    with pytest.raises(ValidationError):
        phase_label(-2, 1, BOX)
    with pytest.raises(ValidationError):
        phase_label(1.5, 1, BOX)  # type: ignore[arg-type]
    # box length must hold a half-integer number of oscillations
    crooked = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0125, dx=0.0125)
    with pytest.raises(NonCommensurateBox):
        phase_label(1, 0, crooked)
    # harmonic beyond the grid resolution
    with pytest.raises(ValidationError):
        phase_label(11, 0, BOX)


def test_analytic_modes_annihilated():
    op = build_finite(BOX)
    mode_a = build_zero_mode(BOX, "A", EdgeLabels(n=3, m=1))
    mode_b = build_zero_mode(BOX, "B", EdgeLabels(n=5, m=2))
    assert operator_residual(op, mode_a.state) < 1e-10
    assert operator_residual(op, mode_b.state) < 1e-10
    # unit norm, support on a single sublattice
    assert mode_a.state.norm() == pytest.approx(1.0)
    assert np.all(mode_a.state.psi_b == 0.0)
    assert np.all(mode_b.state.psi_a == 0.0)


def test_modes_vanish_at_walls():
    mode_a = build_zero_mode(BOX, "A", EdgeLabels(n=3, m=1))
    mode_b = build_zero_mode(BOX, "B", EdgeLabels(n=5, m=2))
    for mode, comp in ((mode_a, "psi_a"), (mode_b, "psi_b")):
        psi = getattr(mode.state, comp)
        peak = np.max(np.abs(psi))
        assert abs(psi[0]) < 1e-10 * peak
        assert abs(psi[-1]) < 1e-10 * peak


def test_phase_branch_redundancy():
    base = build_zero_mode(BOX, "A", EdgeLabels(n=3, m=1)).state.psi_a
    plus2 = build_zero_mode(BOX, "A", EdgeLabels(n=3, m=3)).state.psi_a
    plus1 = build_zero_mode(BOX, "A", EdgeLabels(n=3, m=2)).state.psi_a
    assert np.allclose(plus2, base, atol=1e-12)  # m -> m+2 is the same state
    assert np.allclose(plus1, -base, atol=1e-12)  # m -> m+1 is a global sign


def test_component_validation():
    with pytest.raises(ValidationError):
        build_zero_mode(BOX, "C", EdgeLabels(n=3, m=1))


def test_nyquist_edge_harmonic_vanishes_on_grid():
    # n = a/(2 dx) passes the resolution check but its sampled oscillation
    # is identically zero on a box with integer L/a
    with pytest.raises(DegenerateLabel):
        build_zero_mode(BOX, "A", EdgeLabels(n=10, m=0))


def test_localization_slopes():
    op = build_finite(BOX)
    fit_a = localization_fit(
        op.grid, build_zero_mode(BOX, "A", EdgeLabels(n=3, m=1)).state.psi_a, BOX.a
    )
    fit_b = localization_fit(
        op.grid, build_zero_mode(BOX, "B", EdgeLabels(n=5, m=2)).state.psi_b, BOX.a
    )
    assert fit_a.n_peaks == 50
    assert fit_a.slope == pytest.approx(-RATE, rel=1e-6)
    assert fit_b.slope == pytest.approx(+RATE, rel=1e-6)


def test_localization_flat_at_equal_couplings():
    flat = FiniteParams(v0=1.0, w0=1.0, a=0.2, L=10.0, dx=0.01)
    mode = build_zero_mode(flat, "A", EdgeLabels(n=3, m=1))
    fit = localization_fit(make_grid(flat), mode.state.psi_a, flat.a)
    assert abs(fit.slope) < 1e-8


def test_localization_needs_enough_windows():
    small = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=1.0, dx=0.01)
    mode = build_zero_mode(small, "A", EdgeLabels(n=3, m=1))
    with pytest.raises(InsufficientPeaks):
        localization_fit(make_grid(small), mode.state.psi_a, small.a)


def test_label_budget():
    budget = count_admissible_labels(BOX)
    assert budget.n_max == 10
    assert budget.phase_parities == 2
    assert budget.total == 20
    finer = count_admissible_labels(
        FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0, dx=0.005)
    )
    assert finer.n_max == 20
    assert finer.total == 40


def test_analytic_modes_live_in_numerical_kernel():
    # project each analytic mode onto the span of the numerically obtained
    # midgap eigenvectors; the out-of-span remainder must be tiny
    op = build_finite(BOX)
    res = spectrum(op, want_vectors=True)
    tol = 1e-8 * abs(BOX.w0)
    idx = np.where(np.abs(res.eigenvalues) < tol)[0]
    assert idx.size == 40
    basis = np.stack(
        [np.concatenate([res.vectors[j].psi_a, res.vectors[j].psi_b]) for j in idx],
        axis=1,
    )
    for comp, labels in (("A", EdgeLabels(n=3, m=1)), ("B", EdgeLabels(n=5, m=2))):
        st = build_zero_mode(BOX, comp, labels).state
        vec = np.concatenate([st.psi_a, st.psi_b])
        remainder = vec - basis @ (basis.conj().T @ vec)
        assert np.linalg.norm(remainder) < 1e-6
