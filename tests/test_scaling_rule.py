"""The one magnitude rule: model.power_of_two and model.scale_back.

Every kernel divides its couplings (or its hop, or its samples) by the power
of two at or below the largest magnitude, and scales its results back once.
The references below are the formulas each function used before the rule
was shared: a local frexp/ldexp exponent and a local overflow check. The
scalings are exact powers of two, so the results must equal them bit for
bit, refusals included, on couplings log-uniform over 1e+-300 with random
signs.
"""

import math
import re
import sys

import numpy as np
import pytest

from nonlocal_ssh import approx, bulk
from nonlocal_ssh._chain import chain_levels
from nonlocal_ssh.edge import EdgeLabels, build_zero_mode, localization_fit
from nonlocal_ssh.errors import NumericalError
from nonlocal_ssh.finite import _chain_eigensystem, build_finite, spectrum
from nonlocal_ssh.model import (
    EPS,
    BulkParams,
    FiniteParams,
    norm,
    power_of_two,
    scale_back,
)

RNG = np.random.default_rng(1 << 24)

# (v, w) pairs, each log-uniform over [1e-300, 1e300] with a random sign,
# and a hop of 1e-3 .. 1e3 for each bulk pair
COUPLINGS = 10.0 ** RNG.uniform(-300.0, 300.0, (40, 2)) * RNG.choice([-1.0, 1.0], (40, 2))
HOPS = 10.0 ** RNG.uniform(-3.0, 3.0, 20)
# boxes of m = 1..7 grid steps per hop and P = m + 2 .. 119 points
STEPS = RNG.integers(1, 8, 20)
POINTS = STEPS + 2 + RNG.integers(0, 118 - STEPS)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _outcome(fn, *args):
    """fn(*args) as bytes, or the refusal's type and message."""
    try:
        result = fn(*args)
    except NumericalError as exc:
        return "NumericalError", str(exc)
    return _bits(result)


@pytest.mark.parametrize("x, s", [
    (0.0, 1.0),
    (5e-324, 5e-324),
    (2.2250738585072014e-308, 2.2250738585072014e-308),
    (1.0, 1.0),
    (np.nextafter(2.0, 0.0), 1.0),
    (2.0, 2.0),
    (1.7976931348623157e308, 2.0 ** 1023),
])
def test_power_of_two(x, s):
    for value in (x, -x):
        assert power_of_two(value) == s
        assert power_of_two(0.0, value, 0.5 * value) == s
    if x:
        assert 1.0 <= x / s < 2.0


def test_scale_back_refuses_past_the_float64_range():
    assert _bits(scale_back(2.0 ** 1023, np.array([1.0, -1.5]), "x")) == \
        _bits([2.0 ** 1023, -1.5 * 2.0 ** 1023])
    with pytest.raises(NumericalError, match=r"^the values exceed the float64 range$"):
        scale_back(2.0 ** 1023, np.array([1.0, 2.0]), "the values")


# --- the bulk formulas before the rule ----------------------------------------

def _scaled(v, w):
    s = math.ldexp(1.0, math.frexp(max(abs(v), abs(w)))[1] - 1)
    return s, v / s, w / s


def _rescaled(s, e, v, w, what):
    with np.errstate(over="ignore"):
        e = s * e
    if not np.isfinite(e).all():
        raise NumericalError(f"{what} at v = {v!r}, w = {w!r} exceed the float64 range")
    return e


def _energy_bands(p, k):
    s, v, w = _scaled(p.v, p.w)
    return _rescaled(s, np.sqrt(v * v + w * w + 2.0 * v * w * np.cos(p.a * k)), p.v, p.w,
                     "the bands")


def _phase_phi(p, k):
    s, v, w = _scaled(p.v, p.w)
    ak = p.a * k
    x = v + w * np.cos(ak)
    y = -w * np.sin(ak)
    y = np.where(np.abs(y) <= 16.0 * EPS * abs(w) * np.maximum(1.0, np.abs(ak)), 0.0, y)
    if np.any(np.hypot(x, y) < bulk.GAP_ABS_TOL):
        raise NumericalError(
            f"|v + w e^{{-iak}}| < 1e-12 * {s!r} at v = {p.v!r}, w = {p.w!r}: phase undefined")
    return np.arctan2(y, x)


def _approx_bands(p, order, k):
    s, v, w = _scaled(p.v, p.w)
    with np.errstate(over="ignore", invalid="ignore"):
        z = approx._b_numerator(BulkParams(v=v, w=w, a=p.a), order, k)
    return _rescaled(s, np.abs(z), p.v, p.w, f"the order-{order} bands")


def _zak_wilson(p, nk):
    """gamma of bulk.zak_wilson in one pass, with the hop in [1, 2) by frexp/ldexp."""
    _, v, w = _scaled(p.v, p.w)
    a = math.ldexp(p.a, 1 - math.frexp(p.a)[1])
    k = -np.pi / a + (2.0 * np.pi / a) * np.arange(nk) / nk
    ak = a * k
    x, y = v + w * np.cos(ak), -w * np.sin(ak)
    if np.hypot(x, y).min() < bulk.WILSON_GAP_RTOL * max(abs(v), abs(w)):
        raise NumericalError("band gap closes (to sampling accuracy) inside the zone")
    y = np.where(np.abs(y) <= 16.0 * EPS * abs(w) * np.maximum(1.0, np.abs(ak)), 0.0, y)
    phi = np.arctan2(y, x)
    steps = np.concatenate([[0.0], np.diff(phi), [phi[0] - phi[-1]]])
    return bulk.wrap_angle(-np.angle(np.multiply.reduce(np.cos(0.5 * steps), initial=1.0)))


@pytest.mark.parametrize("v, w, a", zip(*COUPLINGS[:20].T, HOPS))
def test_bulk_formulas_keep_their_bits(v, w, a):
    p = BulkParams(v=float(v), w=float(w), a=float(a))
    k = np.linspace(-np.pi / p.a, np.pi / p.a, 101)
    assert _outcome(lambda: bulk.energy_bands(p, k).e_plus) == _outcome(_energy_bands, p, k)
    assert _outcome(bulk.phase_phi, p, k) == _outcome(_phase_phi, p, k)
    for order in approx.ORDERS:
        assert _outcome(lambda: approx.approx_bands(p, order, k).e_plus) == \
            _outcome(_approx_bands, p, order, k)
    for nk in (16, 2048):
        assert _outcome(lambda: bulk.zak_wilson(p, nk=nk).value) == _outcome(_zak_wilson, p, nk)


# --- the box formulas before the rule -----------------------------------------

def _edge_level(chain, exponent):
    n, v, kappa = chain.n, chain.v, chain.kappa
    if kappa == math.inf:
        return 0.0
    if kappa == 0.0:
        return math.ldexp(v / n, exponent)
    z = (n - 1) * kappa / math.log(2.0)
    whole = math.floor(z)
    mantissa = v * 2.0 ** (whole - z) * (math.expm1(-2.0 * kappa) / math.expm1(-2.0 * n * kappa))
    return math.ldexp(mantissa, exponent - whole)


def _chain_sigma(chain, v0, w0):
    """A chain's levels from its roots, scaled back by an integer exponent."""
    exponent = math.frexp(max(abs(v0), abs(w0)))[1] - 1
    v, w = math.ldexp(abs(v0), -exponent), math.ldexp(abs(w0), -exponent)
    assert (chain.v, chain.w) == (v, w)  # the roots depend on n, v and w alone
    if chain.n == 1:
        return np.array([abs(v0)])
    t = chain.j * chain.h + chain.eps
    with np.errstate(over="ignore"):
        sigma = np.ldexp(np.hypot(w - v, 2.0 * math.sqrt(v) * math.sqrt(w) * np.sin(0.5 * t)),
                         exponent)
    return np.append(sigma, _edge_level(chain, exponent)) if chain.edge else sigma


def _box_levels(params):
    """The box's levels from its chains' sigma, sorted as spectrum sorts them."""
    p, m = params.n_points, params.hop_steps
    cells = (p - 1 - np.arange(m)) // m + 1
    lengths = sorted({int(cells[0]), int(cells[-1])}, reverse=True)
    chains = chain_levels(lengths, params.v0, params.w0)
    s = np.concatenate([np.tile(_chain_sigma(c, params.v0, params.w0), np.count_nonzero(cells == n))
                        for n, c in zip(lengths, chains)])
    s = np.sort(s)[::-1]
    return np.concatenate([-s, s[::-1]])


def _residual_bound(op, evals):
    """The 19-level residual, squared as it is and rescaled only near the float64 limits."""
    p, dim = op.n_points, op.dimension
    sample = np.array(sorted({(dim - 1) * i // 16 for i in range(17)} | {p - 1, p}))
    psi_a, psi_b = _chain_eigensystem(op)[1](sample)
    defect_a = op.c_block @ psi_b - psi_a * evals[sample]
    defect_b = op.c_block.T @ psi_a - psi_b * evals[sample]

    def largest_square():
        return float(np.max(np.einsum("ij,ij->j", defect_a, defect_a)
                            + np.einsum("ij,ij->j", defect_b, defect_b)))

    with np.errstate(over="ignore"):
        squared = largest_square()
    if 2.0 ** -900 <= squared <= 2.0 ** 1000:
        return math.sqrt(squared)
    s = math.ldexp(1.0, math.frexp(max(np.max(np.abs(defect_a)), np.max(np.abs(defect_b))))[1])
    defect_a /= s
    defect_b /= s
    return s * math.sqrt(largest_square())


def _norm(psi_a, psi_b):
    a, b = np.abs(psi_a), np.abs(psi_b)
    s = math.ldexp(1.0, math.frexp(max(a.max(initial=0.0), b.max(initial=0.0)))[1])
    return float(s * np.sqrt(np.sum((a / s) ** 2) + np.sum((b / s) ** 2)))


@pytest.mark.parametrize("v0, w0, m, p", zip(*COUPLINGS[20:].T, STEPS, POINTS))
def test_box_formulas_keep_their_bits(v0, w0, m, p):
    m, p = int(m), int(p)
    params = FiniteParams(v0=float(v0), w0=float(w0), a=float(m), L=float(p - 1), dx=1.0)
    op = build_finite(params)
    res = spectrum(op)
    assert _bits(res.eigenvalues) == _bits(_box_levels(params))
    assert _bits(res.residual_bound) == _bits(_residual_bound(op, res.eigenvalues))
    psi_a, psi_b = res.vectors[p]
    scaled = (psi_a * v0, psi_b * w0)  # any magnitude
    assert _bits(norm(*scaled)) == _bits(_norm(*scaled))


@pytest.mark.parametrize("v0, w0", [(1.7e308, 1e308), (1e308, -1e308)])
def test_box_levels_past_the_float64_range_keep_their_refusal(v0, w0):
    params = FiniteParams(v0=v0, w0=w0, a=0.2, L=2.0, dx=0.05)
    message = (f"the levels of the box at v0 = {v0!r}, w0 = {w0!r} "
               "exceed the float64 range")
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        spectrum(build_finite(params))


@pytest.mark.parametrize("a", [1e-300, 3e-7, 1.0, 0.7, 1e300])
def test_localization_fit_keeps_its_bits(a):
    # the fit runs on x over a's power of two; the one before took twice that
    # power, and polyfit's column scaling makes the two slopes agree bit for bit
    params = FiniteParams(v0=0.5, w0=1.0, a=a, L=20 * a, dx=a / 10)
    x = params.grid_x()
    mode = build_zero_mode(params, "B", EdgeLabels(n=1, m=0)).psi
    s = math.ldexp(1.0, math.frexp(a)[1])
    peaks = np.abs(mode)[:200].reshape(20, 10).max(axis=1)
    locs = x[np.arange(20) * 10 + np.abs(mode)[:200].reshape(20, 10).argmax(axis=1)]
    assert np.all(peaks >= sys.float_info.min)
    slope, intercept = np.polyfit(locs / s, np.log(peaks), 1)
    fit = localization_fit(params, mode)
    assert (fit.slope, fit.intercept) == (float(slope) / s, float(intercept))
