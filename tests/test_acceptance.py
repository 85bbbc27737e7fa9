"""Acceptance gate: one test per release criterion, tolerances pinned.

Run with `pytest -v tests/test_acceptance.py`; the verbose report is the
pass/fail line per criterion. Each test also prints a [criterion N] line
(visible with -s or in failure output).
"""

import numpy as np
import pytest
from box_reference import box_h, chain_cells, reference_levels, symmetry_defects

from nonlocal_ssh.approx import approx_bands, berry_integral
from nonlocal_ssh.bulk import energy_bands, zak_wilson
from nonlocal_ssh.edge import (
    EdgeLabels,
    build_zero_mode,
    localization_fit,
    operator_residual,
)
from nonlocal_ssh.finite import build_finite, compare_ssh, spectrum
from nonlocal_ssh.model import BulkParams, FiniteParams

BOX = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0, dx=0.01)  # dimension 2002


def _chain_oracle(p):
    # all 2P levels from the SVD of each chain block, built entry by entry
    s = reference_levels(p.v0, p.w0, chain_cells(p))
    return np.concatenate([-s[::-1], s])


def _ok(n, msg):
    print(f"[criterion {n}] PASS: {msg}")


def test_criterion_1_bulk_band_closed_form():
    """E+(0) = 1.5 and E+(pi) = 0.5 exactly at (v, w, a) = (0.5, 1, 1);
    periodicity E(k + 2 pi / a) = E(k) within 1e-12 on 100 random k."""
    p = BulkParams(v=0.5, w=1.0, a=1.0)
    assert energy_bands(p, 0.0).e_plus == pytest.approx(1.5, abs=0)
    assert energy_bands(p, np.pi).e_plus == pytest.approx(0.5, abs=1e-15)
    k = np.random.default_rng(1).uniform(-30, 30, 100)
    shift = energy_bands(p, k + 2 * np.pi / p.a).e_plus
    assert np.max(np.abs(shift - energy_bands(p, k).e_plus)) < 1e-12
    _ok(1, "band values at k = 0 and pi exact; periodicity < 1e-12 on 100 k")


def test_criterion_2_zak_quantization():
    """Wilson-loop phase with nk = 2048: pi within 1e-6 at (0.5, 1) and
    0 within 1e-6 at (1.5, 1), for a in {0.2, 1, 3}."""
    for a in (0.2, 1.0, 3.0):
        topo = zak_wilson(BulkParams(v=0.5, w=1.0, a=a), nk=2048).value
        triv = zak_wilson(BulkParams(v=1.5, w=1.0, a=a), nk=2048).value
        assert abs(np.angle(np.exp(1j * (topo - np.pi)))) < 1e-6, a
        assert abs(np.angle(np.exp(1j * triv))) < 1e-6, a
    _ok(2, "Wilson loop quantized to pi / 0 within 1e-6 for a in {0.2, 1, 3}")


def test_criterion_3_berry_integrals_of_truncations():
    """berry_integral matches -pi/2 sgn(a w (v+w)) at order 1 and
    -pi H(w) at order 2 within 1e-3 on a 12-point sign grid. The grid
    keeps v + w > 0, where the order-2 closed form and the defining
    winding integral coincide."""
    grid = [(0.5, 1.0), (-0.5, 1.0), (2.0, 1.0), (2.0, -1.0)]
    count = 0
    for v, w in grid:
        for a in (0.5, 1.0, 2.0):
            p = BulkParams(v=v, w=w, a=a)
            want1 = -0.5 * np.pi * np.sign(a * w * (v + w))
            want2 = -np.pi if w > 0 else 0.0
            assert berry_integral(p, 1).value == pytest.approx(want1, abs=1e-3)
            assert berry_integral(p, 2).value == pytest.approx(want2, abs=1e-3)
            count += 1
    assert count == 12
    _ok(3, "12-point sign grid matches both closed forms within 1e-3")


def test_criterion_4_truncation_band_geometry():
    """All truncation orders give +-|v+w| at k = 0 exactly; on |ka| <= 0.5
    the order-2 band is pointwise at least as close to the exact band as
    order 1."""
    p = BulkParams(v=0.5, w=1.0, a=1.0)
    for order in (0, 1, 2):
        assert approx_bands(p, order, 0.0).e_plus == 1.5
        assert approx_bands(p, order, 0.0).e_minus == -1.5
    k = np.linspace(-0.5, 0.5, 1001)
    e = energy_bands(p, k).e_plus
    d1 = np.abs(approx_bands(p, 1, k).e_plus - e)
    d2 = np.abs(approx_bands(p, 2, k).e_plus - e)
    assert np.all(d2 <= d1 + 1e-15)
    _ok(4, "k = 0 values exact; order 2 pointwise closer on |ka| <= 0.5")


def test_criterion_5_box_spectrum_at_scale():
    """Box with v0 = 0.5, w0 = 1, a = 0.2, L = 10, dx = 0.01 (2002 levels):
    (i) spectrum equals the SVD oracle of its 20 chains within 1e-9 as a
    multiset; (ii) 40 zero modes at |E| < 1e-8 |w0| while the 1001-cell
    single chain has exactly 2; (iii) Kolmogorov distance of the two
    spectral CDFs < 0.02."""
    op = build_finite(BOX)
    assert op.dimension == 2002
    assert op.hop_steps == 20
    ev = spectrum(op).eigenvalues
    oracle = _chain_oracle(BOX)
    mismatch = float(np.max(np.abs(np.sort(ev) - oracle)))
    assert mismatch < 1e-9
    cmp = compare_ssh(BOX)
    assert cmp.zero_modes_box == 40
    assert cmp.zero_modes_chain == 2
    assert cmp.ks_distance < 0.02
    _ok(5, f"oracle multiset gap {mismatch:.1e} < 1e-9; 40 vs 2 zero modes; "
           f"KS = {cmp.ks_distance:.4f} < 0.02")


def test_criterion_6_symmetries():
    """On a random complex spinor, through the operator's apply():
    chiral anticommutation H Sz psi = -Sz H psi with Sz psi = (psi_a, -psi_b)
    and parity H X psi = X H psi with X psi = (rev psi_b, rev psi_a), both
    exact; the eigenvalues of a dense H built entry by entry are closed
    under negation within 1e-9 ||H||_F."""
    op = build_finite(BOX)
    assert symmetry_defects(op, seed=6) == (0.0, 0.0)
    dense = box_h(BOX)
    ev = np.linalg.eigvalsh(dense)
    closure = float(np.max(np.abs(ev + ev[::-1])))
    assert closure <= 1e-9 * np.linalg.norm(dense)
    _ok(6, f"chiral and parity identities exact; negation closure {closure:.1e}")


def test_criterion_7_edge_modes():
    """Analytic zero modes with labels (3, 1) on A and (5, 2) on B:
    operator residual < 1e-10, wall values < 1e-10 of the peak, fitted
    log-envelope slopes within 2% of +-(1/a) ln|w0/v0| = +-3.466."""
    op = build_finite(BOX)
    rate = np.log(abs(BOX.w0 / BOX.v0)) / BOX.a
    mode_a = build_zero_mode(BOX, "A", EdgeLabels(n=3, m=1))
    mode_b = build_zero_mode(BOX, "B", EdgeLabels(n=5, m=2))
    for mode, psi, sign in ((mode_a, mode_a.psi, -1.0),
                            (mode_b, mode_b.psi, +1.0)):
        assert operator_residual(op, mode) < 1e-10
        peak = np.max(np.abs(psi))
        assert abs(psi[0]) < 1e-10 * peak and abs(psi[-1]) < 1e-10 * peak
        fit = localization_fit(BOX, psi)
        assert fit.slope == pytest.approx(sign * rate, rel=0.02)
    _ok(7, f"residuals < 1e-10; walls clean; slopes within 2% of +-{rate:.3f}")


def test_criterion_8_small_instance_oracles():
    """Every instance of dimension <= 12: production solver agrees with
    brute-force dense diagonalization within 1e-10, and so does the SVD
    of the box's chains."""
    boxes = [
        FiniteParams(v0=0.0, w0=1.0, a=0.1, L=0.2, dx=0.1),   # dim 6
        FiniteParams(v0=0.5, w0=1.0, a=0.2, L=0.5, dx=0.1),   # dim 12
        FiniteParams(v0=0.7, w0=-1.3, a=0.3, L=0.5, dx=0.1),  # dim 12
    ]
    for p in boxes:
        op = build_finite(p)
        assert op.dimension <= 12
        brute = np.linalg.eigvalsh(box_h(p))
        assert np.max(np.abs(spectrum(op).eigenvalues - brute)) < 1e-10
        assert np.max(np.abs(_chain_oracle(p) - brute)) < 1e-10
    _ok(8, "closed-form, chain SVD and brute-force routes agree within 1e-10")
