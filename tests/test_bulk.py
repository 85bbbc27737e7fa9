import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_ssh import bulk
from nonlocal_ssh.bulk import energy_bands, phase_phi, zak_analytic, zak_wilson
from nonlocal_ssh.errors import NumericalError, ValidationError
from nonlocal_ssh.model import BulkParams, wrap_angle

P_TOPO = BulkParams(v=0.5, w=1.0, a=1.0)
P_TRIV = BulkParams(v=2.0, w=1.0, a=1.0)

RNG = np.random.default_rng(20260822)


def test_band_edges_closed_form():
    bp0 = energy_bands(P_TOPO, 0.0)
    bppi = energy_bands(P_TOPO, np.pi)
    assert bp0.e_plus == pytest.approx(1.5, abs=0)
    assert bp0.e_minus == pytest.approx(-1.5, abs=0)
    assert bppi.e_plus == pytest.approx(0.5, abs=1e-15)
    assert bppi.e_minus == pytest.approx(-0.5, abs=1e-15)


def test_band_dispersion_formula():
    k = RNG.uniform(-10, 10, 64)
    for v, w, a in [(0.5, 1.0, 1.0), (2.0, -1.0, 0.3), (-1.5, 0.7, 2.5)]:
        p = BulkParams(v=v, w=w, a=a)
        ref = np.sqrt(v**2 + w**2 + 2 * v * w * np.cos(a * k))
        bp = energy_bands(p, k)
        assert np.allclose(bp.e_plus, ref, atol=1e-14)
        assert np.allclose(bp.e_minus, -ref, atol=1e-14)


def test_bands_beyond_squaring_range():
    # v*v overflows above ~1e154; the bands |v + w e^{-iak}| do not
    k = np.linspace(-np.pi, np.pi, 101)
    for v, w in [(1e200, 1.5e200), (-3e250, 1e249), (1e-200, -2e-200)]:
        bp = energy_bands(BulkParams(v=v, w=w, a=1.0), k)
        ref = np.abs(v + w * np.exp(-1j * k))
        assert np.all(np.isfinite(bp.e_plus))
        assert np.allclose(bp.e_plus, ref, rtol=1e-15, atol=0)
        assert np.array_equal(bp.e_minus, -bp.e_plus)


def test_bands_at_float_max():
    # max(|v|, |w|) >= 2**1023: the scale 2**1024 itself used to overflow;
    # bands that fit are answered, bands beyond the float64 range refused
    k = np.linspace(-np.pi, np.pi, 101)
    for v, w in [(1e307, 1e308), (1.7e308, -1e300), (-(2.0**1023), 2.0**1022)]:
        bp = energy_bands(BulkParams(v=v, w=w, a=1.0), k)
        ref = 4.0 * np.abs(v / 4.0 + w / 4.0 * np.exp(-1j * k))
        assert np.allclose(bp.e_plus, ref, rtol=1e-15, atol=0)
    for v, w in [(1e308, 1e308), (-1.7e308, 1e308)]:
        with pytest.raises(NumericalError, match=re.escape(f"v = {v!r}, w = {w!r}")):
            energy_bands(BulkParams(v=v, w=w, a=1.0), k)


def test_band_scaling_is_bit_identical():
    # scaling by a power of two is exact: where the plain formula neither
    # overflows nor underflows it gives the same bits
    rng = np.random.default_rng(154)
    k = rng.uniform(-10, 10, 64)
    for _ in range(200):
        v, w = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-100, 100, 2)
        a = rng.uniform(0.1, 3.0)
        plain = np.sqrt(v * v + w * w + 2.0 * v * w * np.cos(a * k))
        assert np.array_equal(energy_bands(BulkParams(v=v, w=w, a=a), k).e_plus, plain)


def test_band_periodicity():
    k = RNG.uniform(-20, 20, 100)
    for a in (0.2, 1.0, 3.0):
        p = BulkParams(v=0.5, w=1.0, a=a)
        e0 = energy_bands(p, k).e_plus
        e1 = energy_bands(p, k + 2 * np.pi / a).e_plus
        assert np.max(np.abs(e1 - e0)) < 1e-12


def test_phase_matches_arg_of_offdiag():
    k = RNG.uniform(-3, 3, 32)
    phi = phase_phi(P_TOPO, k)
    ref = np.angle(P_TOPO.v + P_TOPO.w * np.exp(-1j * P_TOPO.a * k))
    assert np.allclose(phi, ref, atol=1e-13)


def test_phase_zone_boundary_branch():
    # v < w: h(pi/a) is a negative real; its argument must come out +pi,
    # not -pi from a sign flip in the rounded sine
    assert phase_phi(P_TOPO, np.pi) == pytest.approx(np.pi)
    assert phase_phi(P_TOPO, -np.pi) == pytest.approx(np.pi)
    assert phase_phi(P_TOPO, 3 * np.pi) == pytest.approx(np.pi)


def test_phase_gap_closure():
    p = BulkParams(v=1.0, w=-1.0, a=1.0)
    with pytest.raises(NumericalError, match="phase undefined"):
        phase_phi(p, 0.0)


def test_phase_at_any_coupling_magnitude():
    # the gap test is relative to the couplings: gapped ones get their phase
    # down to the subnormal range, bit for bit that of v = 1, w = 3
    k = np.linspace(-np.pi, np.pi, 65)
    ref = phase_phi(BulkParams(v=1.0, w=3.0, a=1.0), k)
    for scale in (2.0**-1060, 2.0**-1000, 2.0**-40, 2.0**1000):
        assert np.array_equal(phase_phi(BulkParams(v=scale, w=3.0 * scale, a=1.0), k), ref)
    assert zak_wilson(BulkParams(v=1e-310, w=1e-309, a=1.0)).classification == "topological"
    with pytest.raises(NumericalError, match=re.escape("at v = -1e-320, w = 1e-320: phase undefined")):
        phase_phi(BulkParams(v=-1e-320, w=1e-320, a=1.0), k)


def _bloch_matrix(p, k):
    # H(k) = [[0, h], [conj(h), 0]] with h(k) = v + w e^{-iak}, from the paper
    h = p.v + p.w * np.exp(-1j * p.a * k)
    return np.array([[0.0, h], [np.conj(h), 0.0]])


def test_bloch_state_is_eigenvector():
    # u(+-) = (e^{i phi/2}, +-e^{-i phi/2}) / sqrt(2) from phase_phi, with
    # E(+-) = +-e_plus from energy_bands, solves H(k) u = E u
    for p in (P_TOPO, P_TRIV, BulkParams(v=-1.2, w=0.4, a=2.2)):
        for k in (-2.1, 0.0, 0.7, np.pi / p.a, *RNG.uniform(-5, 5, 8)):
            phi = phase_phi(p, k)
            e = energy_bands(p, k).e_plus
            u = {s: np.array([np.exp(0.5j * phi), s * np.exp(-0.5j * phi)]) / np.sqrt(2.0)
                 for s in (1.0, -1.0)}
            for s in (1.0, -1.0):
                assert np.linalg.norm(_bloch_matrix(p, k) @ u[s] - s * e * u[s]) < 1e-12
            assert abs(np.vdot(u[1.0], u[-1.0])) < 1e-15


def test_zak_analytic_cases():
    assert zak_analytic(P_TOPO).value == pytest.approx(np.pi)
    assert zak_analytic(P_TOPO).classification == "topological"
    assert zak_analytic(P_TRIV).value == 0.0
    assert zak_analytic(P_TRIV).classification == "trivial"
    # only |v| vs |w| matters
    assert zak_analytic(BulkParams(v=1.0, w=-2.0, a=0.4)).value == pytest.approx(np.pi)
    assert zak_analytic(BulkParams(v=-3.0, w=1.0, a=0.4)).value == 0.0
    with pytest.raises(NumericalError, match="gap closes, Zak phase undefined"):
        zak_analytic(BulkParams(v=1.0, w=-1.0, a=1.0))


def test_zak_wilson_matches_analytic():
    for v, w in [(0.5, 1.0), (1.5, 1.0), (1.0, -2.0), (-3.0, 1.0)]:
        for a in (0.2, 1.0, 3.0):
            p = BulkParams(v=v, w=w, a=a)
            got = zak_wilson(p, nk=2048).value
            want = zak_analytic(p).value
            # compare on the circle
            d = np.angle(np.exp(1j * (got - want)))
            assert abs(d) < 1e-6, (v, w, a)


def test_zak_wilson_at_any_hop_length():
    # the zone is sampled with a scaled into [1, 2) by a power of two, where
    # the momenta -pi/a + (2 pi/a) j/nk themselves would overflow; a power of
    # two a gives the bits of a = 1
    for v, w in [(0.5, 1.0), (1.5, 1.0), (1.0, -2.0), (-3.0, 1.0)]:
        unit = zak_wilson(BulkParams(v=v, w=w, a=1.0), nk=64)
        for a in (5e-324, 1e-310, 1e-307, 2.0**-1000, 1e308):
            p = BulkParams(v=v, w=w, a=a)
            got = zak_wilson(p, nk=64)
            assert abs(wrap_angle(got.value - zak_analytic(p).value)) < 1e-6, (v, w, a)
            if a in (5e-324, 2.0**-1000):
                assert got == unit


@st.composite
def _gapped_bulk(draw):
    # ||v| - |w|| >= 0.05 max(|v|, |w|): the weaker coupling is at most 0.95
    # of the stronger, either one may be the stronger, any signs
    strong = draw(st.floats(0.1, 10.0))
    weak = draw(st.floats(0.0, 0.95)) * strong
    v, w = (weak, strong) if draw(st.booleans()) else (strong, weak)
    sv, sw = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    return BulkParams(v=sv * v, w=sw * w, a=draw(st.floats(0.05, 5.0)))


@settings(max_examples=50, deadline=None)
@given(_gapped_bulk(), st.sampled_from(["plus", "minus"]))
def test_zak_wilson_matches_analytic_property(p, band):
    got = zak_wilson(p, band=band).value
    assert abs(wrap_angle(got - zak_analytic(p).value)) < 1e-6


def test_zak_wilson_both_bands_agree():
    gp = zak_wilson(P_TOPO, band="plus").value
    gm = zak_wilson(P_TOPO, band="minus").value
    assert abs(np.angle(np.exp(1j * (gp - gm)))) < 1e-6


def test_zak_wilson_odd_grid_around_the_gap_minimum():
    # v*w < 0 puts the gap minimum at k = 0, midway between two samples of an
    # odd grid; where the phase turns by pi or more between them the loop
    # missed the turn and answered 0 for a topological chain; it now refuses
    refused = 0
    for nk in (17, 33, 101):
        for r in 1.0 - np.geomspace(1e-12, 0.2, 60):
            for v, w in ((r, -1.0), (-r, 1.0), (1.0, -r)):
                p = BulkParams(v=v, w=w, a=0.7)
                try:
                    got = zak_wilson(p, nk=nk).value
                except ValidationError as exc:
                    assert f"nk = {nk} cannot resolve the phase" in str(exc)
                    assert abs(p.v) < abs(p.w)
                    refused += 1
                    continue
                assert abs(wrap_angle(got - zak_analytic(p).value)) < 1e-6
    assert refused > 100
    with pytest.raises(ValidationError, match="at v = 1.0, w = -1.0"):
        zak_wilson(BulkParams(v=1.0, w=-1.0, a=1.0), nk=17)


def test_zak_wilson_validation():
    with pytest.raises(ValidationError):
        zak_wilson(P_TOPO, nk=8)
    with pytest.raises(NumericalError, match="band gap closes"):
        zak_wilson(BulkParams(v=1.0, w=-1.0, a=1.0))


def test_wilson_loop_gauge_invariance(monkeypatch):
    # phi + 2 pi flips the sign of both components of u: a random +-1 gauge
    # per k point, which the overlaps around the closed loop cancel; the
    # phases sit on the +-pi cut, and the Zak phase is defined modulo 2 pi
    cases = [(p, band) for p in (P_TOPO, P_TRIV, BulkParams(v=1.0, w=-2.0, a=0.4))
             for band in ("plus", "minus")]
    want = [zak_wilson(p, band=band, nk=512).value for p, band in cases]
    rng = np.random.default_rng(512)
    phase = bulk.phase_phi
    monkeypatch.setattr(bulk, "phase_phi",
                        lambda p, k: phase(p, k) + 2.0 * np.pi * rng.integers(0, 2, np.size(k)))
    for (p, band), gamma in zip(cases, want):
        assert abs(wrap_angle(zak_wilson(p, band=band, nk=512).value - gamma)) < 1e-10


def test_parity_relation():
    # inversion sigma_x H(-k) sigma_x = H(k) takes h(k) to conj(h(-k)), so the
    # bands are even in k and phi is odd, exactly, except on the cut, where
    # the branch convention gives +pi on both sides
    k = np.concatenate([RNG.uniform(-20, 20, 256), np.pi * np.arange(-4, 5)])
    on_cut = 0
    for p in (P_TOPO, P_TRIV, BulkParams(v=-1.2, w=0.4, a=2.2), BulkParams(v=3e-300, w=-1e-299, a=0.3)):
        ka = k / p.a
        assert np.array_equal(energy_bands(p, -ka).e_plus, energy_bands(p, ka).e_plus)
        phi, phi_minus = phase_phi(p, ka), phase_phi(p, -ka)
        cut = phi == np.pi
        assert np.array_equal(phi_minus[~cut], -phi[~cut])
        assert np.all(phi_minus[cut] == np.pi)
        on_cut += cut.sum()
    assert on_cut > 0
