from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nonlocal_ssh.approx import (
    BERRY_DEFAULT_CUTOFF,
    _b_numerator,
    approx_bands,
    berry_integral,
    comparison_table,
)
from nonlocal_ssh.bulk import energy_bands
from nonlocal_ssh.errors import ModelError, NumericalError, ValidationError
from nonlocal_ssh.model import BulkParams

P = BulkParams(v=0.5, w=1.0, a=1.0)
RNG = np.random.default_rng(7)


def _numerator(params, order, k):
    # reference truncation of v + w exp(+iak) used only by the tests
    c, b = params.v + params.w, params.a * params.w
    if order == 0:
        return c + 0j * k
    if order == 1:
        return c + 1j * b * k
    return c - 0.5 * params.w * (params.a * k) ** 2 + 1j * b * k


def test_all_orders_exact_at_k0():
    for v, w, a in [(0.5, 1.0, 1.0), (2.0, -1.0, 0.3), (-0.5, 1.0, 2.0)]:
        p = BulkParams(v=v, w=w, a=a)
        for order in (0, 1, 2):
            bp = approx_bands(p, order, 0.0)
            assert bp.e_plus == pytest.approx(abs(v + w), abs=0)
            assert bp.e_minus == pytest.approx(-abs(v + w), abs=0)


def test_order0_is_flat():
    k = RNG.uniform(-8, 8, 32)
    bp = approx_bands(P, 0, k)
    assert np.all(bp.e_plus == abs(P.v + P.w))


def test_truncation_remainder_bound():
    # |E_n - E| <= |w| |ak|^{n+1} / (n+1)!  follows from the Taylor
    # remainder of the exponential; it must hold at every k
    k = RNG.uniform(-4, 4, 200)
    e = energy_bands(P, k).e_plus
    for order in (0, 1, 2):
        en = approx_bands(P, order, k).e_plus
        bound = abs(P.w) * np.abs(P.a * k) ** (order + 1) / factorial(order + 1)
        assert np.all(np.abs(en - e) <= bound + 1e-13)


def test_second_order_closer_near_zone_center():
    k = np.linspace(-0.5, 0.5, 501) / P.a
    e = energy_bands(P, k).e_plus
    e1 = approx_bands(P, 1, k).e_plus
    e2 = approx_bands(P, 2, k).e_plus
    assert np.all(np.abs(e2 - e) <= np.abs(e1 - e) + 1e-15)


def _matrix(params, order, k):
    # H_n(k) = [[0, conj(z)], [z, 0]] with z the test's own numerator
    z = _numerator(params, order, k)
    return np.array([[0.0, np.conj(z)], [z, 0.0]])


def test_matrix_and_numerator():
    # the bands are the eigenvalues of the matrix built from _numerator
    for p in (P, BulkParams(v=2.0, w=-1.0, a=0.3), BulkParams(v=-0.5, w=1.0, a=2.0)):
        for order in (0, 1, 2):
            for k in (-1.3, 0.2, 2.9):
                bp = approx_bands(p, order, k)
                lam = np.linalg.eigvalsh(_matrix(p, order, k))
                assert lam == pytest.approx([bp.e_minus, bp.e_plus], rel=1e-14, abs=1e-15)


def test_eigvec_residual():
    # u(+-) = (1, z/E(+-)) / sqrt(2) with E(+-) from approx_bands solves H u = E u
    for order in (0, 1, 2):
        for k in (-2.0, 0.4, 1.7):
            h = _matrix(P, order, k)
            bp = approx_bands(P, order, k)
            for lam in (bp.e_plus, bp.e_minus):
                u = np.array([1.0, _numerator(P, order, k) / lam]) / np.sqrt(2.0)
                assert np.linalg.norm(h @ u - lam * u) < 1e-12
                assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def _winding_oracle(params, order):
    """-1/2 the total turn of the truncation numerator along the real line.

    Independent route: adaptive quadrature of Im(z'(k) conj(z(k))) / |z|^2
    with the derivative taken analytically.
    """
    c, b, w, a = params.v + params.w, params.a * params.w, params.w, params.a

    def dtheta(k):
        if order == 1:
            z = c + 1j * b * k
            dz = 1j * b
        else:
            z = c - 0.5 * w * (a * k) ** 2 + 1j * b * k
            dz = -w * a * a * k + 1j * b
        return (dz * np.conj(z)).imag / abs(z) ** 2

    left, e1 = quad(dtheta, -np.inf, 0.0, limit=400)
    right, e2 = quad(dtheta, 0.0, np.inf, limit=400)
    assert e1 + e2 < 1e-7
    return -0.5 * (left + right)


@pytest.mark.parametrize("v,w", [(0.5, 1.0), (-0.5, 1.0), (2.0, 1.0), (2.0, -1.0)])
@pytest.mark.parametrize("order", [1, 2])
def test_berry_matches_quadrature_oracle(v, w, order):
    for a in (0.5, 2.0):
        p = BulkParams(v=v, w=w, a=a)
        got = berry_integral(p, order).value
        want = _winding_oracle(p, order)
        assert got == pytest.approx(want, abs=1e-6), (v, w, a, order)


def test_berry_first_order_closed_form():
    for v, w in [(0.5, 1.0), (2.0, -1.0), (-0.5, 1.0), (1.0, -3.0)]:
        for a in (0.5, 1.0, 2.0):
            p = BulkParams(v=v, w=w, a=a)
            want = -0.5 * np.pi * np.sign(a * w * (v + w))
            assert berry_integral(p, 1).value == pytest.approx(want, abs=1e-6)


def test_berry_second_order_encircling_rule():
    # the numerator traces a parabola that encloses the origin iff
    # w (v + w) > 0; the turn is then a full -pi, otherwise zero
    cases = [
        (0.5, 1.0, -np.pi),
        (-0.5, 1.0, -np.pi),
        (2.0, -1.0, 0.0),
        (0.5, -2.0, -np.pi),  # both couplings matter, not just w's sign
        (-2.0, 1.0, 0.0),
    ]
    for v, w, want in cases:
        got = berry_integral(BulkParams(v=v, w=w, a=1.0), 2).value
        assert got == pytest.approx(want, abs=1e-6), (v, w)


@st.composite
def _berry_params(draw):
    # s = (v + w)/w with 0.25 <= |s| <= 4, either sign, so v + w < 0 occurs
    # and the default k sampling tracks the winding (|v + w| >= 0.25|w|)
    w = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.1, 10.0))
    s = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.25, 4.0))
    return BulkParams(v=w * (s - 1.0), w=w, a=draw(st.floats(0.1, 5.0)))


@settings(max_examples=50, deadline=None)
@given(_berry_params(), st.sampled_from(["plus", "minus"]))
def test_berry_first_order_sign_rule(p, band):
    want = -0.5 * np.pi * np.sign(p.a * p.w * (p.v + p.w))
    assert berry_integral(p, 1, band=band).value == pytest.approx(want, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(_berry_params(), st.sampled_from(["plus", "minus"]))
def test_berry_second_order_encircling_property(p, band):
    want = -np.pi if p.w * (p.v + p.w) > 0 else 0.0
    assert berry_integral(p, 2, band=band).value == pytest.approx(want, abs=1e-6)


@st.composite
def _second_order_grids(draw):
    # any signs; cutoff*a log-uniform in 1e2..1e9 and nk in 1001..1e6, so
    # many grids are far too coarse for the turn of z(k) near k = 0
    sv, sw = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([1.0, -1.0]))
    p = BulkParams(v=sv * draw(st.floats(0.1, 10.0)), w=sw * draw(st.floats(0.1, 10.0)),
                   a=draw(st.floats(0.1, 5.0)))
    cutoff_k = 10.0 ** draw(st.floats(2.0, 9.0)) / p.a
    nk = max(1001, round(10.0 ** draw(st.floats(3.0, 6.0))))
    return p, cutoff_k, nk


@settings(max_examples=50, deadline=None)
@given(_second_order_grids())
def test_berry_second_order_answers_are_right(grid):
    # a grid may be refused, but an answer must be the closed form
    p, cutoff_k, nk = grid
    try:
        got = berry_integral(p, 2, cutoff_k=cutoff_k, nk=nk).value
    except ModelError:
        return
    want = -np.pi if p.w * (p.v + p.w) > 0 else 0.0
    assert got == pytest.approx(want, abs=1e-3)


def test_berry_gauge_dependence_of_open_line_integral():
    # discrete line integral of the connection over [-K, K]; a k-dependent
    # phase twist alpha(k) shifts it by -(alpha(K) - alpha(-K)), so unlike
    # the closed Wilson loop it is not gauge invariant
    K, nk = 50.0, 8001
    k = np.linspace(-K, K, nk)
    z = _numerator(P, 1, k)
    states = np.stack([np.ones(nk), z / np.abs(z)], axis=1) / np.sqrt(2.0)
    ov = np.sum(np.conj(states[:-1]) * states[1:], axis=1)
    base = -np.sum(np.angle(ov))
    alpha = np.arctan(P.a * k)
    twisted = states * np.exp(1j * alpha)[:, None]
    ov2 = np.sum(np.conj(twisted[:-1]) * twisted[1:], axis=1)
    shifted = -np.sum(np.angle(ov2))
    assert shifted - base == pytest.approx(-(alpha[-1] - alpha[0]), abs=1e-9)
    assert abs(shifted - base) > 3.0  # an order-pi effect, not roundoff


def test_berry_zero_coupling_shortcut():
    res = berry_integral(BulkParams(v=1.0, w=0.0, a=1.0), 2)
    assert res.value == 0.0
    assert res.quadrature_error == 0.0


def test_berry_validation():
    with pytest.raises(ValidationError, match="implemented for orders 1 and 2, got 0"):
        berry_integral(P, 0)
    with pytest.raises(ValidationError, match="implemented for orders 1 and 2, got 3"):
        berry_integral(P, 3)
    with pytest.raises(ValidationError, match="cutoff_k must be >= 100.0/a"):
        berry_integral(P, 1, cutoff_k=10.0)
    # NaN passes every < comparison, so finiteness is checked on its own
    for order, cutoff_k in ((1, np.nan), (2, np.nan), (1, np.inf), (2, -np.inf)):
        with pytest.raises(ValidationError, match="cutoff_k must be finite"):
            berry_integral(P, order, cutoff_k=cutoff_k)
    with pytest.raises(ValidationError):
        berry_integral(P, 1, nk=999)
    # order 2: a spacing a*2K/(nk-1) of at least max(1, sqrt(2(v+w)/w)) can
    # step over the whole turn near k = 0, so it is refused before sampling
    with pytest.raises(ValidationError, match="k spacing"):
        berry_integral(P, 2, cutoff_k=np.sqrt(3.0) * 1000.0, nk=2001)
    with pytest.raises(ValidationError, match="k spacing"):
        berry_integral(P, 2, cutoff_k=1e7, nk=196608)
    with pytest.raises(NumericalError, match="truncated bands touch zero inside the cutoff"):
        berry_integral(BulkParams(v=1.0, w=-1.0, a=1.0), 1)
    assert berry_integral(P, 1).cutoff_k == pytest.approx(BERRY_DEFAULT_CUTOFF / P.a)


@pytest.mark.filterwarnings("error")
def test_overflowing_samples_refused_cleanly():
    # a cutoff whose 2K or 2aK overflows used to reach the sampling loop and
    # die there with a ValueError on a NaN wrap count
    for order, cutoff_k, a in ((1, 1e308, 1.0), (2, 1e308, 1.0), (1, 1e307, 10.0)):
        with pytest.raises(ValidationError, match="2\\*cutoff_k and 2\\*a\\*cutoff_k"):
            berry_integral(BulkParams(v=0.5, w=1.0, a=a), order, cutoff_k=cutoff_k)
    # (ak)^2 overflows: the band is beyond the float64 range, refused without
    # an overflow warning
    with pytest.raises(NumericalError, match="order-2 bands at v = 0.5, w = 1.0 exceed"):
        approx_bands(P, 2, np.array([0.0, 1e200]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w, far", [(0.0, 1.0), (1e-300, 5e99)])
def test_order2_bands_where_the_square_overflows(w, far):
    # (ak)^2 overflows at ak = 1e200 while w (ak)^2 / 2 fits: answered, and
    # the k where the square fits keep the bits of the plain formula
    p = BulkParams(v=1.0, w=w, a=1.0)
    k = np.array([-np.pi, 0.5, 1e200])
    e = approx_bands(p, 2, k).e_plus
    assert np.array_equal(e[:2], np.abs((1.0 + w) - 0.5 * w * k[:2] ** 2 + 1j * w * k[:2]))
    assert e[2] == pytest.approx(far, rel=1e-15)


def test_comparison_table_at_any_hop_length():
    # the table is in ka and samples k with a scaled into [1, 2) by a power
    # of two: a table at every a, with the bits of k = ka/a where that is
    # finite
    ka = np.linspace(-np.pi, np.pi, 9)
    _, unit = comparison_table(BulkParams(v=0.5, w=1.0, a=1.0), k_samples=9)
    for a in (5e-324, 1e-310, 1e-200, 3.0, 1e200, 1.7e308):
        p = BulkParams(v=0.5, w=1.0, a=a)
        _, rows = comparison_table(p, k_samples=9)
        assert np.allclose(rows, unit, rtol=1e-14, atol=0.0)
        if 1e-300 < a < 1e300:
            direct = [approx_bands(p, order, ka / a).e_plus for order in (0, 1, 2)]
            direct.append(energy_bands(p, ka / a).e_plus)
            assert np.array_equal(rows[:, 2::2], np.column_stack(direct))


def test_comparison_table():
    cols, rows = comparison_table(P, k_samples=25)
    assert cols == ["ka", "E0_minus", "E0_plus", "E1_minus", "E1_plus",
                    "E2_minus", "E2_plus", "E_minus", "E_plus"]
    assert rows.shape == (25, 9)
    ka = rows[:, 0]
    assert ka[0] == pytest.approx(-np.pi)
    assert ka[-1] == pytest.approx(np.pi)
    # spot-check one interior row against the direct calls
    j = 7
    k = ka[j] / P.a
    assert rows[j, 3] == pytest.approx(approx_bands(P, 1, k).e_minus)
    assert rows[j, 8] == pytest.approx(energy_bands(P, k).e_plus)
    with pytest.raises(ValidationError):
        comparison_table(P, k_samples=1)


def test_truncated_bands_scaling_is_bit_identical():
    # |z| is taken on couplings divided by a power of two: where the plain
    # formula neither overflows nor underflows it gives the same bits
    rng = np.random.default_rng(1023)
    k = rng.uniform(-10, 10, 64)
    for _ in range(100):
        v, w = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-100, 100, 2)
        p = BulkParams(v=v, w=w, a=rng.uniform(0.1, 3.0))
        for order in (0, 1, 2):
            plain = np.abs(_b_numerator(p, order, k))
            assert np.array_equal(approx_bands(p, order, k).e_plus, plain)


def test_truncated_bands_at_float_max():
    # one zone of every order fits below the float64 maximum at
    # (1.5e308, 1e307); at (1e307, 1e308) order 1 reaches ~3.3e308 at ka = pi
    k = np.linspace(-np.pi, np.pi, 101)
    p = BulkParams(v=1.5e308, w=1e307, a=1.0)
    scaled = BulkParams(v=1.5e308 / 2**10, w=1e307 / 2**10, a=1.0)
    for order in (0, 1, 2):
        ref = 2**10 * np.abs(_b_numerator(scaled, order, k))
        assert np.array_equal(approx_bands(p, order, k).e_plus, ref)
    _, rows = comparison_table(p, k_samples=101)
    assert np.isfinite(rows).all()
    with pytest.raises(NumericalError, match="order-1 bands at v = 1e[+]307, w = 1e[+]308"):
        comparison_table(BulkParams(v=1e307, w=1e308, a=1.0), k_samples=5)
    with pytest.raises(NumericalError, match="order-0 bands at v = 1e[+]308, w = 1e[+]308"):
        approx_bands(BulkParams(v=1e308, w=1e308, a=1.0), 0, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [1, 2])
def test_berry_at_float_max(order):
    # arg z does not change under positive scaling: the same bits as at
    # v = w = 1, with no overflow on the way (order 1 used to warn, order 2
    # to refuse the cutoff)
    big = berry_integral(BulkParams(v=1e308, w=1e308, a=1.0), order)
    unit = berry_integral(BulkParams(v=1.0, w=1.0, a=1.0), order)
    assert big.value == unit.value == (-0.5 * np.pi if order == 1 else -np.pi)
