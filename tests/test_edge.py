import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_ssh import cli
from nonlocal_ssh.edge import (
    COMPONENTS,
    EdgeLabels,
    build_zero_mode,
    localization_fit,
    operator_residual,
    phase_label,
    zero_mode_exponents,
)
from nonlocal_ssh.errors import ValidationError
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
    with pytest.raises(ValidationError, match="need v0 != 0 and w0 != 0"):
        zero_mode_exponents(FiniteParams(v0=0.0, w0=1.0, a=0.2, L=10.0, dx=0.01))
    with pytest.raises(ValidationError, match="need v0 != 0 and w0 != 0"):
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


@st.composite
def _edge_case(draw):
    # the topological phase |v0| < |w0| (in the trivial phase the modes sit
    # at the wrong wall and are no kernel states) with any sign pair, and
    # L/a a whole number of hops so that every harmonic below the Nyquist
    # bound a/(2 dx) closes at both walls. A mode misses the kernel only by
    # its tail at the far wall, |v0/w0|^(L/a); that is held under e^-40.
    hops = draw(st.integers(4, 40))
    per_hop = draw(st.integers(4, 12))
    w0 = draw(st.floats(0.5, 2.0))
    v0 = w0 * np.exp(-draw(st.floats(40.0, 100.0)) / hops)
    sv, sw = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    a = draw(st.floats(0.1, 2.0))
    box = FiniteParams(v0=sv * float(v0), w0=sw * w0, a=a, L=hops * a, dx=a / per_hop)
    labels = EdgeLabels(n=draw(st.integers(1, per_hop // 2 - 1)), m=draw(st.integers(-3, 3)))
    return box, draw(st.sampled_from(COMPONENTS)), labels


@settings(max_examples=50, deadline=None)
@given(_edge_case())
def test_zero_mode_residual_property(case):
    # the analytic modes are kernel states of the box for every sign pair
    box, comp, labels = case
    mode = build_zero_mode(box, comp, labels)
    assert operator_residual(build_finite(box), mode.state) < 1e-10
    factor = -box.v0 / box.w0 if comp == "A" else -box.w0 / box.v0
    assert np.exp(mode.q * box.a) == pytest.approx(factor, rel=1e-12)


def test_phase_label_values():
    # (2m+1) pi/2 + n pi L/a with L/a = 50
    assert phase_label(3, 1, BOX) == pytest.approx(1.5 * np.pi + 150 * np.pi)
    assert phase_label(5, 2, BOX) == pytest.approx(2.5 * np.pi + 250 * np.pi)


def test_label_validation():
    with pytest.raises(ValidationError, match="n = 0 makes the oscillatory factor vanish"):
        phase_label(0, 1, BOX)
    with pytest.raises(ValidationError):
        phase_label(-2, 1, BOX)
    with pytest.raises(ValidationError):
        phase_label(1.5, 1, BOX)  # type: ignore[arg-type]
    # box length must hold a half-integer number of oscillations
    crooked = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0125, dx=0.0125)
    with pytest.raises(ValidationError, match="cosine cannot vanish at both walls"):
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


def _mode_in_x(params, component, labels):
    """osc(x) * exp(q x), normalized: the mode as built in x, before hop units."""
    q_a, q_b = zero_mode_exponents(params)
    x = make_grid(params).x
    phase = 2.0 * np.pi * labels.n * x / params.a + phase_label(labels.n, labels.m, params)
    psi = np.cos(phase) * np.exp((q_a if component == "A" else q_b) * x)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("hops", [49, 50])
@pytest.mark.parametrize("v0, w0", [(0.5, 1.0), (-0.5, -1.0), (0.5, -1.0)])
def test_modes_keep_the_phase_reference_of_exp_qx(hops, v0, w0):
    # the decay is taken from the peak wall in the real exponent only, so Re psi
    # is that of exp(q x); shifting the complex exponent instead multiplies the
    # mode by exp(-i Im(qa) t_wall) = exp(-+i pi hops/2), which turns Re psi
    # into +-Im psi for an odd number of hops and flips its sign for 50
    box = FiniteParams(v0=v0, w0=w0, a=0.2, L=hops * 0.2, dx=0.01)
    for comp, labels in (("A", EdgeLabels(n=3, m=1)), ("B", EdgeLabels(n=5, m=2))):
        state = build_zero_mode(box, comp, labels).state
        psi = state.psi_a if comp == "A" else state.psi_b
        want = _mode_in_x(box, comp, labels)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(psi.real - want.real)) <= 1e-10 * peak
        assert np.max(np.abs(psi.imag - want.imag)) <= 1e-10 * peak


def test_component_validation():
    with pytest.raises(ValidationError):
        build_zero_mode(BOX, "C", EdgeLabels(n=3, m=1))


def test_nyquist_edge_harmonic_vanishes_on_grid():
    # n = a/(2 dx) passes the resolution check but its sampled oscillation
    # is identically zero on a box with integer L/a
    with pytest.raises(ValidationError, match="harmonic n = 10 vanishes at every grid point"):
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


def _loop_localization_fit(grid, values, a):
    # the per-window loop the vectorized fit replaced
    m = max(1, round(a / grid.dx))
    mags = np.abs(values)
    peaks, locs = [], []
    for start in range(0, grid.n - m + 1, m):
        block = mags[start : start + m]
        j = int(np.argmax(block))
        if block[j] > 0.0:
            peaks.append(block[j])
            locs.append(grid.x[start + j])
    slope, intercept = np.polyfit(locs, np.log(peaks), 1)
    return float(slope), float(intercept), len(peaks)


def test_localization_fit_matches_loop_reference():
    grid = make_grid(BOX)
    m = round(BOX.a / BOX.dx)
    assert grid.n % m != 0  # a partial window at the end is dropped
    mode = build_zero_mode(BOX, "B", EdgeLabels(n=5, m=2)).state.psi_b
    leading_zeros = mode.copy()
    leading_zeros[: 3 * m + 7] = 0.0
    leading_zeros[20 * m : 21 * m] = 0.0
    ties = np.random.default_rng(5).integers(0, 3, grid.n).astype(float)  # many equal maxima
    ties[: 2 * m] = 0.0
    for values in (mode, leading_zeros, ties, -1j * mode):
        fit = localization_fit(grid, values, BOX.a)
        assert (fit.slope, fit.intercept, fit.n_peaks) == _loop_localization_fit(grid, values, BOX.a)
    assert localization_fit(grid, leading_zeros, BOX.a).n_peaks == grid.n // m - 4


def test_localization_flat_at_equal_couplings():
    # |v0| = |w0| has no zero modes; the closed-form profile there, built
    # here from its exponent, has a flat envelope
    flat = FiniteParams(v0=1.0, w0=1.0, a=0.2, L=10.0, dx=0.01)
    q_a, _ = zero_mode_exponents(flat)
    x = make_grid(flat).x
    values = np.cos(2.0 * np.pi * 3 * x / flat.a + phase_label(3, 1, flat)) * np.exp(q_a * x)
    fit = localization_fit(make_grid(flat), values, flat.a)
    assert abs(fit.slope) < 1e-8


@pytest.mark.parametrize("v0, w0", [(1.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, -0.5), (1.0, 0.0)])
def test_no_zero_modes_outside_the_topological_phase(v0, w0):
    # the edge states are of topological origin: at |v0| >= |w0| the closed
    # form is no kernel state (residual 0.14 at v0 = w0, 1.73 at v0 = 2 w0)
    box = FiniteParams(v0=v0, w0=w0, a=0.2, L=10.0, dx=0.01)
    message = ("need v0 != 0 and w0 != 0" if w0 == 0.0 else
               f"v0 = {v0!r}, w0 = {w0!r} is not in the topological phase")
    for comp in COMPONENTS:
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_zero_mode(box, comp, EdgeLabels(n=3, m=1))


def test_localization_needs_enough_windows():
    small = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=1.0, dx=0.01)
    mode = build_zero_mode(small, "A", EdgeLabels(n=3, m=1))
    with pytest.raises(ValidationError, match="need at least 10 envelope maxima, found 5"):
        localization_fit(make_grid(small), mode.state.psi_a, small.a)


def test_analytic_modes_live_in_numerical_kernel():
    # project each analytic mode onto the span of the numerically obtained
    # midgap eigenvectors; the out-of-span remainder must be tiny
    op = build_finite(BOX)
    res = spectrum(op)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1e-300, 1e-200, 1.0, 1e200, 1e300])
def test_localization_fit_at_any_hop_length(capsys, a):
    # the fit used to take raw positions: x^2 overflowed at a = 1e300 (slopes
    # 0 and a polyfit warning, exit 0) and underflowed at a = 1e-200
    # (LinAlgError); on x over a power of two the fitted rates are Re q to
    # 1e-12 at every a, and the fit keeps its bits where the old one worked
    params = FiniteParams(v0=0.5, w0=1.0, a=a, L=20 * a, dx=a / 10)
    q_a, q_b = zero_mode_exponents(params)
    argv = ["edge", "--v0", "0.5", "--w0", "1", "--a", repr(a), "--L", repr(20 * a),
            "--dx", repr(a / 10), "--n-a", "1", "--n-b", "1"]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().err.splitlines()[0])["result"]
    assert result["fitted_slope_a"] == pytest.approx(q_a.real, rel=1e-12)
    assert result["fitted_slope_b"] == pytest.approx(q_b.real, rel=1e-12)
    if a == 1.0:
        grid = make_grid(params)
        mode = build_zero_mode(params, "A", EdgeLabels(n=1, m=0)).state.psi_a
        fit = localization_fit(grid, mode, a)
        assert (fit.slope, fit.intercept) == _loop_localization_fit(grid, mode, a)[:2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e-300, 1.0, 1e300])
def test_edge_residual_at_any_coupling_magnitude(scale):
    # v0 * w0 underflowed (Im q = 0, a wrong mode) and the residual's squares
    # underflowed to 0 at 1e-200; the residual scales with the couplings
    params = FiniteParams(v0=0.5 * scale, w0=scale, a=1.0, L=20.0, dx=0.1)
    unit = FiniteParams(v0=0.5, w0=1.0, a=1.0, L=20.0, dx=0.1)
    q_a, q_b = zero_mode_exponents(params)
    assert (q_a, q_b) == zero_mode_exponents(unit)
    got = [operator_residual(build_finite(p), build_zero_mode(p, "A", EdgeLabels(1, 0)).state)
           for p in (params, unit)]
    assert got[1] == pytest.approx(8.26e-7, rel=1e-3)
    assert got[0] == pytest.approx(got[1] * scale, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_coupling_ratio_beyond_float64():
    # |w0/v0| underflows to 0 (a divide-by-zero warning before the refusal)
    # or overflows to inf (the refusal printed ln|w0/v0|*L/a = inf); the log
    # of each coupling gives 2 ln(1e300) = 1381.55...
    flipped = FiniteParams(v0=1e300, w0=1e-300, a=1.0, L=20.0, dx=0.1)
    q_a, _ = zero_mode_exponents(flipped)
    assert q_a.real == pytest.approx(2 * 300 * np.log(10.0), rel=1e-14)
    with pytest.raises(ValidationError, match="not in the topological phase"):
        build_zero_mode(flipped, "A", EdgeLabels(1, 0))
    # the mode decays by that per hop, e^-138 per grid step, from its peak
    # wall: it used to be refused as overflowing (ln|w0/v0|*L/a = 27631); its
    # tail now underflows to zeros, and one window of the envelope is left
    wide = FiniteParams(v0=1e-300, w0=1e300, a=1.0, L=20.0, dx=0.1)
    mode = build_zero_mode(wide, "A", EdgeLabels(1, 0)).state
    assert mode.norm() == pytest.approx(1.0, rel=1e-15)
    assert np.count_nonzero(mode.psi_a) == 6 and np.all(mode.psi_a[:6] != 0.0)
    with pytest.raises(ValidationError, match="need at least 10 envelope maxima, found 1"):
        localization_fit(make_grid(wide), mode.psi_a, wide.a)


def _edge_argv(a, L, dx):
    return ["edge", "--v0", "0.5", "--w0", "1", "--a", repr(a), "--L", repr(L), "--dx", repr(dx),
            "--n-a", "1", "--n-b", "1"]


@pytest.mark.filterwarnings("error")
def test_edge_at_hop_lengths_near_the_float64_maximum(capsys):
    # 2nL and n pi L overflowed before the division by a (a traceback, exit
    # 1), then so did 2 pi n x; the box of 16 hops answers as its a = 1 twin
    # does, and labels that do not fit the box are refused by name
    assert cli.main(_edge_argv(1e307, 1.6e308, 1e306)) == 0
    huge = json.loads(capsys.readouterr().err.splitlines()[0])["result"]
    assert cli.main(_edge_argv(1.0, 16.0, 0.1)) == 0
    unit = json.loads(capsys.readouterr().err.splitlines()[0])["result"]
    assert huge["fitted_slope_a"] == pytest.approx(-np.log(2.0) / 1e307, rel=1e-12)
    assert huge["residual"] == pytest.approx(unit["residual"], rel=1e-12)
    params = FiniteParams(v0=0.5, w0=1.0, a=1e307, L=1.6e308, dx=1e306)
    assert phase_label(3, 1, params) == pytest.approx(1.5 * np.pi + 3 * np.pi * 16, rel=1e-15)
    assert cli.main(_edge_argv(1e308, 1.6e308, 1e307)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "2nL/a = 3.1999999999999997 is not an integer" in err


@pytest.mark.filterwarnings("error")
def test_subnormal_hop_length_refused_by_name(capsys):
    # ln|w0/v0|/a is inf at a = 1e-310: the refusal blamed the mode's growth
    # ln|w0/v0|*L/a = 13.86 with exit 3; pi/a leaves float64 below ~1.75e-308
    assert cli.main(_edge_argv(1e-310, 2e-309, 1e-311)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the decay rate ln|w0/v0|/a at --a = 1e-310 leaves the float64 range\n"
    with pytest.raises(ValidationError, match=r"the phase rate pi/a at --a = 1.7e-308 leaves"):
        zero_mode_exponents(FiniteParams(v0=0.5, w0=1.0, a=1.7e-308, L=3.4e-307, dx=1.7e-309))
    opposite = FiniteParams(v0=0.5, w0=-1.0, a=1.7e-308, L=3.4e-307, dx=1.7e-309)
    assert zero_mode_exponents(opposite)[0].imag == 0.0  # no phase rate to overflow
