"""The Zak Wilson loop and the Berry winding swept in chunks of k samples.

Both sweeps run over their k grid in chunks of a fixed size so that memory
does not grow with nk. The references below are one-pass versions, which
hold every array at full length; the chunked results must equal them bit
for bit, refusals included. The Zak loop, which multiplies real overlaps,
also has the earlier loop over complex states as a reference: the same
gamma text, classification and refusals. The Berry winding also has a second reference,
the earlier np.unwrap formula, which it must match to rounding.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_ssh import approx, bulk
from nonlocal_ssh.errors import NumericalError, ValidationError
from nonlocal_ssh.model import BulkParams, _require_finite, band_sign, wrap_angle
from nonlocal_ssh.serialize import format_float

CHUNK = bulk._K_CHUNK
SIGNS = list(itertools.product([1.0, -1.0], repeat=2))
RNG = np.random.default_rng(65536)


def _wilson_loop_phase_reference(states):
    overlaps = np.sum(np.conj(states) * np.roll(states, -1, axis=0), axis=1)
    if np.any(np.abs(overlaps) < 1e-12):
        raise NumericalError("vanishing overlap between neighboring states")
    return wrap_angle(-np.angle(np.prod(overlaps)))


def _zak_reference(params, band, nk):
    s = band_sign(band)
    if nk < bulk.WILSON_MIN_POINTS:
        raise ValidationError(f"nk must be >= {bulk.WILSON_MIN_POINTS}, got {nk}")
    v, w, a = params.v, params.w, params.a
    k = -np.pi / a + (2.0 * np.pi / a) * np.arange(nk) / nk
    gap = np.abs(v + w * np.exp(-1j * a * k))
    if gap.min() < bulk.WILSON_GAP_RTOL * max(abs(v), abs(w)):
        raise NumericalError("band gap closes (to sampling accuracy) inside the zone")
    phi = bulk.phase_phi(params, k)
    states = np.empty((nk, 2), dtype=complex)
    states[:, 0] = np.exp(0.5j * phi)
    states[:, 1] = s * np.exp(-0.5j * phi)
    states /= np.sqrt(2.0)
    gamma = _wilson_loop_phase_reference(states)
    dist_topo = abs(wrap_angle(gamma - np.pi))
    dist_triv = abs(wrap_angle(gamma))
    cls = "topological" if dist_topo < dist_triv else "trivial"
    return bulk.ZakResult(value=gamma, classification=cls, k_points=nk)


def _complex_overlap_product(states, prod):
    overlaps = np.sum(np.conj(states[:-1]) * states[1:], axis=1)
    if np.any(np.abs(overlaps) < 1e-12):
        raise NumericalError("vanishing overlap between neighboring states")
    return np.multiply.reduce(overlaps, initial=prod)


def _zak_complex_states(params, band, nk):
    """The Wilson loop over complex states u(+-), chunk by chunk, with zak_wilson's
    scaling and refusals: the loop zak_wilson ran before it took real overlaps."""
    s = band_sign(band)
    if nk < bulk.WILSON_MIN_POINTS:
        raise ValidationError(f"nk must be >= {bulk.WILSON_MIN_POINTS}, got {nk}")
    # the couplings over the power of two at or below the larger, a over its own
    scale = math.ldexp(1.0, math.frexp(max(abs(params.v), abs(params.w)))[1] - 1)
    scaled = BulkParams(v=params.v / scale, w=params.w / scale,
                        a=math.ldexp(params.a, 1 - math.frexp(params.a)[1]))
    v, w, a = scaled.v, scaled.w, scaled.a
    h0, x_near = v + w, v + w * math.cos(math.pi / nk)
    if nk % 2 and v * w < 0.0 and (h0 == 0.0 or x_near * h0 < 0.0):
        raise ValidationError(
            f"nk = {nk} cannot resolve the phase at v = {params.v!r}, w = {params.w!r}: "
            "it turns by pi or more between the two samples around k = 0; "
            "use an even or a larger nk"
        )
    gap_tol = bulk.WILSON_GAP_RTOL * max(abs(v), abs(w))
    prod = 1.0 + 0.0j
    for start in range(0, nk, CHUNK):
        k = -np.pi / a + (2.0 * np.pi / a) * np.arange(start, min(start + CHUNK, nk)) / nk
        if np.abs(v + w * np.exp(-1j * a * k)).min() < gap_tol:
            raise NumericalError("band gap closes (to sampling accuracy) inside the zone")
        phi = bulk.phase_phi(scaled, k)
        states = np.empty((k.size + 1, 2), dtype=complex)  # row 0: the previous chunk's last
        states[1:, 0] = np.exp(0.5j * phi)
        states[1:, 1] = s * np.exp(-0.5j * phi)
        states[1:] /= np.sqrt(2.0)
        if start:
            states[0] = last
        else:
            states = states[1:]
            first = states[0].copy()
        prod = _complex_overlap_product(states, prod)
        last = states[-1].copy()
    prod = _complex_overlap_product(np.stack([last, first]), prod)  # the wrap
    gamma = wrap_angle(-np.angle(prod))
    dist_topo = abs(wrap_angle(gamma - np.pi))
    dist_triv = abs(wrap_angle(gamma))
    cls = "topological" if dist_topo < dist_triv else "trivial"
    return bulk.ZakResult(value=gamma, classification=cls, k_points=nk)


def _berry_checks(params, order, band, cutoff_k, nk):
    """The refusals both formulas make before sampling.

    Returns the cutoff and, for order 2 with w != 0, the axis-crossing
    scale max(1, sqrt(2(v+w)/w)) (else None).
    """
    band_sign(band)
    if order not in (1, 2):
        raise ValidationError(f"Berry integral implemented for orders 1 and 2, got {order}")
    v, w, a = params.v, params.w, params.a
    if cutoff_k is None:
        cutoff_k = approx.BERRY_DEFAULT_CUTOFF / a
    _require_finite(cutoff_k=cutoff_k)
    if cutoff_k * a < approx.BERRY_MIN_CUTOFF:
        raise ValidationError(f"cutoff_k must be >= {approx.BERRY_MIN_CUTOFF}/a")
    if nk < 1001:
        raise ValidationError(f"nk must be >= 1001, got {nk}")
    if order != 2 or w == 0.0:
        return cutoff_k, None
    scale = max(1.0, np.sqrt(max(2.0 * (v + w) / w, 0.0)))
    if cutoff_k * a < 10.0 * scale:
        raise ValidationError("cutoff_k too close to the axis-crossing scale sqrt(2(v+w)/w)/a")
    return cutoff_k, scale


def _berry_reference(params, order, band="plus", cutoff_k=None, nk=approx.BERRY_NK):
    """One pass over np.linspace: the phase steps split into integer wraps."""
    cutoff_k, scale = _berry_checks(params, order, band, cutoff_k, nk)
    h = (cutoff_k - -cutoff_k) / (nk - 1)
    if scale is not None and params.a * h >= scale:
        raise ValidationError(
            f"k spacing a*2K/(nk-1) = {params.a * h:g} can skip the winding near k = 0; "
            "raise nk or lower cutoff_k"
        )
    v, w = params.v, params.w
    if w == 0.0:
        return approx.BerryIntegralResult(value=0.0, cutoff_k=float(cutoff_k), quadrature_error=0.0)
    z = approx._b_numerator(params, order, np.linspace(-cutoff_k, cutoff_k, nk))
    if np.min(np.abs(z)) < bulk.GAP_ABS_TOL * (abs(v) + abs(w)):
        raise NumericalError("truncated bands touch zero inside the cutoff")
    p = np.angle(z)
    dd = np.diff(p)
    wraps = np.rint(dd / (2.0 * np.pi))
    if np.abs(dd - 2.0 * np.pi * wraps).max() > 0.5 * np.pi:
        raise NumericalError("k sampling too coarse to track the phase winding")
    theta = p - 2.0 * np.pi * np.concatenate([[0.0], np.cumsum(wraps)])
    th_plus, th_minus = approx._asymptote_angles(params, order)
    tail_plus = wrap_angle(th_plus - float(p[-1]))
    tail_minus = wrap_angle(float(p[0]) - th_minus)
    value = -0.5 * ((theta[-1] - p[0]) + tail_plus + tail_minus)
    err = 4.0 * np.abs(theta).max() * np.finfo(float).eps
    return approx.BerryIntegralResult(value=float(value), cutoff_k=float(cutoff_k),
                                      quadrature_error=float(err))


def _berry_unwrap_reference(params, order, band="plus", cutoff_k=None, nk=approx.BERRY_NK):
    """The earlier formula: np.unwrap over the whole grid, without the spacing
    refusal, and an error estimate from a half-resolution unwrap."""
    cutoff_k, _ = _berry_checks(params, order, band, cutoff_k, nk)
    v, w = params.v, params.w
    if w == 0.0:
        return approx.BerryIntegralResult(value=0.0, cutoff_k=float(cutoff_k), quadrature_error=0.0)
    ks = np.linspace(-cutoff_k, cutoff_k, nk)
    z = approx._b_numerator(params, order, ks)
    if np.min(np.abs(z)) < bulk.GAP_ABS_TOL * (abs(v) + abs(w)):
        raise NumericalError("truncated bands touch zero inside the cutoff")
    theta = np.unwrap(np.angle(z))
    steps = np.abs(np.diff(theta))
    if steps.max() > 0.5 * np.pi:
        raise NumericalError("k sampling too coarse to track the phase winding")
    th_plus, th_minus = approx._asymptote_angles(params, order)
    tail_plus = wrap_angle(th_plus - float(np.angle(z[-1])))
    tail_minus = wrap_angle(float(np.angle(z[0])) - th_minus)
    total = (theta[-1] - theta[0]) + tail_plus + tail_minus
    value = -0.5 * total
    theta_c = np.unwrap(theta[::2])
    value_c = -0.5 * ((theta_c[-1] - theta_c[0]) + tail_plus + tail_minus)
    err = abs(value - value_c) + 4.0 * np.abs(theta).max() * np.finfo(float).eps
    if err > 1e-3 * max(1.0, abs(value)):
        raise NumericalError(f"winding error estimate {err:g} out of bounds")
    return approx.BerryIntegralResult(value=float(value), cutoff_k=float(cutoff_k),
                                      quadrature_error=float(err))


def _outcome(fn, *args, **kwargs):
    """Result fields as a tuple, or the refusal's type and message."""
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:  # the refusal itself is compared
        return type(exc).__name__, str(exc)
    return tuple(getattr(res, f) for f in res.__dataclass_fields__)


def _same(a, b):
    # repr gives the shortest string that reads back to the same float, so
    # equal reprs mean equal bits on every field (and -0.0 differs from 0.0)
    assert repr(a) == repr(b)


def _random_bulk(sv, sw):
    v, w = RNG.uniform(0.1, 3.0, 2)
    return BulkParams(v=sv * v, w=sw * w, a=float(RNG.uniform(0.2, 3.0)))


@pytest.mark.parametrize("nk", [16, 2047, 2048, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_zak_chunks_match_one_pass(nk):
    for (sv, sw), band in itertools.product(SIGNS, ("plus", "minus")):
        p = _random_bulk(sv, sw)
        _same(_outcome(bulk.zak_wilson, p, band=band, nk=nk), _outcome(_zak_reference, p, band, nk))


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _wilson_runs(draw):
    sign = st.sampled_from([1.0, -1.0])
    v = draw(_log_uniform(1e-320, 1e308)) * draw(sign)
    if draw(st.booleans()):
        w = draw(_log_uniform(1e-320, 1e308)) * draw(sign)
    else:  # v = -w closes the gap at k = 0; next to it the gap is tiny there
        w = -v * (1.0 + draw(st.one_of(st.sampled_from([0.0, 1e-15, 1e-9, 1e-4]),
                                       st.floats(-1e-3, 1e-3))))
    a = draw(_log_uniform(1e-300, 1e300))
    nk = draw(st.one_of(st.integers(1, 64), st.integers(16, 4100)))
    return BulkParams(v=v, w=w, a=a), draw(st.sampled_from(["plus", "minus"])), nk


def _zak_text(outcome):
    # the refusal itself, or the answer as the CLI writes it
    if isinstance(outcome[0], str):
        return outcome
    return format_float(outcome[0]), *outcome[1:]


@settings(max_examples=400, deadline=None)
@given(_wilson_runs())
def test_zak_real_overlaps_match_complex_states(run):
    p, band, nk = run
    assert _zak_text(_outcome(bulk.zak_wilson, p, band=band, nk=nk)) == \
        _zak_text(_outcome(_zak_complex_states, p, band, nk))


@pytest.mark.parametrize("nk", [1001, 1002, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2 * CHUNK + 2])
def test_berry_chunks_match_one_pass(nk):
    for (sv, sw), order, band in itertools.product(SIGNS, (1, 2), ("plus", "minus")):
        p = _random_bulk(sv, sw)
        _same(_outcome(approx.berry_integral, p, order, band=band, nk=nk),
              _outcome(_berry_reference, p, order, band=band, nk=nk))


@pytest.mark.parametrize("chunk", [4, 6, 64, 1000])
def test_small_chunks_match_one_pass(monkeypatch, chunk):
    # many chunk boundaries on small grids, so every carry is exercised
    monkeypatch.setattr(bulk, "_K_CHUNK", chunk)
    monkeypatch.setattr(approx, "_K_CHUNK", chunk)
    for (sv, sw), nk in itertools.product(SIGNS, (1001, 1002, 1003, 4096)):
        p = _random_bulk(sv, sw)
        _same(_outcome(bulk.zak_wilson, p, nk=nk), _outcome(_zak_reference, p, "plus", nk))
        for order in (1, 2):
            _same(_outcome(approx.berry_integral, p, order, nk=nk),
                  _outcome(_berry_reference, p, order, nk=nk))
    # coarse grids: phase steps just under pi/2 at every chunk boundary, steps
    # above pi/2 in a later chunk, and a spacing that skips the order-2 turn
    for p, order, cutoff_k, nk, kind in (
        (BulkParams(v=0.5, w=1.0, a=1.0), 1, 1e9, 1001, "answer"),
        (BulkParams(v=-0.9, w=1.0, a=1.0), 2, 400.0, 1001, "NumericalError"),
        (BulkParams(v=-0.9, w=1.0, a=1.0), 2, 1200.0, 3 * 1000, "NumericalError"),
        (BulkParams(v=0.5, w=1.0, a=1.0), 2, 1e7, 3 * 1000, "ValidationError"),
    ):
        got = _outcome(approx.berry_integral, p, order, cutoff_k=cutoff_k, nk=nk)
        assert (got[0] if isinstance(got[0], str) else "answer") == kind
        _same(got, _outcome(_berry_reference, p, order, cutoff_k=cutoff_k, nk=nk))


@pytest.mark.parametrize("v, w, nk, message", [
    # v = -w closes the gap at k = 0, sample nk/2 = 2^17: in the third chunk,
    # at any magnitude of the couplings
    (1.0, -1.0, 2 ** 18, "band gap closes"),
    (1e-13, -1e-13, 2 ** 18, "band gap closes"),
    # k = 0 falls midway between samples CHUNK - 1 and CHUNK, whose states
    # are orthogonal: the vanishing overlap spans a chunk boundary
    (-np.cos(np.pi / (2 * CHUNK - 1)), 1.0, 2 * CHUNK - 1, "vanishing overlap"),
    (-np.cos(np.pi / (2 * CHUNK + 1)), 1.0, 2 * CHUNK + 1, "vanishing overlap"),
])
def test_zak_refusals_in_later_chunks(v, w, nk, message):
    p = BulkParams(v=v, w=w, a=1.0)
    got = _outcome(bulk.zak_wilson, p, nk=nk)
    assert got[0] == "NumericalError" and message in got[1]
    _same(got, _outcome(_zak_reference, p, "plus", nk))


@pytest.mark.parametrize("v, w, nk", [
    (1e-13, 2e-13, 2 * CHUNK + 3),
    (1e-310, -1e-309, CHUNK + 1),
    (-3e-320, 1e-320, 4096),
])
def test_zak_tiny_couplings_match_one_pass(v, w, nk):
    # |v + w e^{-iak}| is below 1e-12 everywhere; the loop samples the scaled
    # couplings, so these gapped ones are answered, which they were not
    p = BulkParams(v=v, w=w, a=1.0)
    got = _outcome(bulk.zak_wilson, p, nk=nk)
    _same(got, _outcome(_zak_reference, p, "plus", nk))
    assert abs(wrap_angle(got[0] - bulk.zak_analytic(p).value)) < 1e-6


@pytest.mark.parametrize("order", [1, 2])
def test_berry_gap_closure_in_a_later_chunk(order):
    # z(0) = v + w = 0 at the middle sample, CHUNK, the second chunk's first
    p = BulkParams(v=1.0, w=-1.0, a=1.0)
    got = _outcome(approx.berry_integral, p, order, nk=2 * CHUNK + 1)
    assert got[0] == "NumericalError" and "truncated bands touch zero" in got[1]
    _same(got, _outcome(_berry_reference, p, order, nk=2 * CHUNK + 1))


@pytest.mark.parametrize("cutoff_k, nk", [(64754.23220626758, 1001), (386.813, 140001)])
def test_berry_chunks_sample_np_linspace(monkeypatch, cutoff_k, nk):
    # (nk - 1) * step - cutoff_k rounds away from cutoff_k here; np.linspace
    # puts the cutoff itself at the end, and so must every chunking
    assert (nk - 1) * ((cutoff_k + cutoff_k) / (nk - 1)) - cutoff_k != cutoff_k
    numerator = approx._b_numerator
    for chunk in (CHUNK, 64):
        seen = []
        monkeypatch.setattr(approx, "_K_CHUNK", chunk)
        monkeypatch.setattr(approx, "_b_numerator", lambda p, o, k: seen.append(k) or numerator(p, o, k))
        approx.berry_integral(BulkParams(v=0.5, w=1.0, a=1.0), 1, cutoff_k=cutoff_k, nk=nk)
        assert np.concatenate(seen).tobytes() == np.linspace(-cutoff_k, cutoff_k, nk).tobytes()


def test_overlap_product_chains_bit_for_bit():
    phi = RNG.uniform(-np.pi, np.pi, 5001)
    whole = np.prod(np.cos(0.5 * np.diff(phi)))
    for cuts in ([1], [2500], sorted(RNG.choice(np.arange(1, 5000), 30, replace=False))):
        prod, lo = 1.0, 0
        for hi in [*cuts, 5000]:
            prod = bulk._overlap_product(np.diff(phi[lo:hi + 1]), prod)  # neighbors share a phase
            lo = hi
        assert repr(prod) == repr(whole)


def test_berry_error_is_rounding_floor():
    # 4 max|theta| eps for odd and even nk alike; np.unwrap gives the same
    # theta up to the rounding of its 2 pi corrections
    p = BulkParams(v=0.5, w=1.0, a=1.0)
    for order in (1, 2):
        for nk in (CHUNK + 1, CHUNK):
            err = approx.berry_integral(p, order, nk=nk).quadrature_error
            assert err == _berry_reference(p, order, nk=nk).quadrature_error
            ks = np.linspace(-1e4, 1e4, nk)
            theta = np.unwrap(np.angle(approx._b_numerator(p, order, ks)))
            assert err == pytest.approx(4.0 * np.abs(theta).max() * np.finfo(float).eps, rel=1e-12)


def test_berry_matches_np_unwrap_formula():
    # values to rounding, and the same refusals except the spacing check,
    # which only the wrap count makes
    cases = [(p, order, nk, cutoff_k)
             for p in (_random_bulk(sv, sw) for sv, sw in SIGNS for _ in range(3))
             for order in (1, 2)
             for nk in (1001, 1002, 4096, CHUNK + 1)
             for cutoff_k in (None, 1e3 / p.a, 1e6 / p.a)]
    answered = spacing = 0
    for p, order, nk, cutoff_k in cases:
        got = _outcome(approx.berry_integral, p, order, cutoff_k=cutoff_k, nk=nk)
        want = _outcome(_berry_unwrap_reference, p, order, cutoff_k=cutoff_k, nk=nk)
        if isinstance(got[0], str):
            if "k spacing" in got[1]:
                spacing += 1
            else:
                assert got == want
        else:
            answered += 1
            assert isinstance(want[0], float) and abs(got[0] - want[0]) <= 1e-14
            assert got[1] == want[1]
    assert answered > 100 and spacing > 0


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_zak_memory_is_bounded():
    p = BulkParams(v=0.5, w=1.0, a=1.0)
    assert _peak_mb(lambda: bulk.zak_wilson(p, nk=2 ** 22)) < 16.0


def test_berry_memory_is_bounded():
    p = BulkParams(v=0.5, w=1.0, a=1.0)
    assert _peak_mb(lambda: approx.berry_integral(p, 2, nk=8_000_001)) < 16.0
