import dataclasses
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonlocal_ssh.errors import ValidationError
from nonlocal_ssh.model import (
    BulkParams,
    FiniteParams,
    band_sign,
    log_ratio,
    norm,
    wrap_angle,
)


def test_band_sign():
    assert band_sign("plus") == 1.0
    assert band_sign("minus") == -1.0
    with pytest.raises(ValidationError):
        band_sign("upper")


def test_wrap_angle_half_open_branch():
    # branch is (-pi, pi]: the -pi image lands on +pi
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2.5 * np.pi) == pytest.approx(0.5 * np.pi)
    assert wrap_angle(-0.5 * np.pi) == pytest.approx(-0.5 * np.pi)


def test_bulk_validation():
    BulkParams(v=0.5, w=1.0, a=1.0)
    with pytest.raises(ValidationError, match="hop distance a must be positive, got 0.0"):
        BulkParams(v=0.5, w=1.0, a=0.0)
    with pytest.raises(ValidationError, match="hop distance a must be positive, got -2.0"):
        BulkParams(v=0.5, w=1.0, a=-2.0)
    with pytest.raises(ValidationError, match="v = w = 0 gives the zero Hamiltonian"):
        BulkParams(v=0.0, w=0.0, a=1.0)
    with pytest.raises(ValidationError):
        BulkParams(v=np.nan, w=1.0, a=1.0)


def test_finite_grid_derivation():
    p = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0, dx=0.01)
    assert p.hop_steps == 20
    assert p.n_points == 1001


def test_finite_validation():
    with pytest.raises(ValidationError, match="a = 1.0 is not an integer multiple of dx = 0.3"):
        FiniteParams(v0=0.5, w0=1.0, a=1.0, L=10.0, dx=0.3)
    with pytest.raises(ValidationError, match="dx must be positive, got -0.1"):
        FiniteParams(v0=0.5, w0=1.0, a=1.0, L=10.0, dx=-0.1)
    with pytest.raises(ValidationError, match="L must be positive, got 0.0"):
        FiniteParams(v0=0.5, w0=1.0, a=1.0, L=0.0, dx=0.1)
    # box must hold at least one hop
    with pytest.raises(ValidationError):
        FiniteParams(v0=0.5, w0=1.0, a=2.0, L=1.0, dx=0.5)
    # the zero Hamiltonian: every level is 0, no midgap count means anything
    with pytest.raises(ValidationError, match="v0 = w0 = 0 gives the zero Hamiltonian"):
        FiniteParams(v0=0.0, w0=0.0, a=0.2, L=1.0, dx=0.1)
    FiniteParams(v0=0.0, w0=1.0, a=0.2, L=1.0, dx=0.1)


def test_no_invalid_record_from_a_valid_one():
    bulk = BulkParams(v=0.5, w=1.0, a=1.0)
    with pytest.raises(ValidationError, match="hop distance a must be positive, got 0.0"):
        dataclasses.replace(bulk, a=0.0)
    with pytest.raises(ValidationError, match="v = w = 0 gives the zero Hamiltonian"):
        dataclasses.replace(bulk, v=0.0, w=0.0)
    with pytest.raises(ValidationError, match="v must be finite"):
        dataclasses.replace(bulk, v=np.inf)
    box = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=1.0, dx=0.1)
    with pytest.raises(ValidationError, match="a = 0.2 is not an integer multiple of dx = 0.03"):
        dataclasses.replace(box, dx=0.03)
    with pytest.raises(ValidationError, match="L = 1.05 is not an integer multiple of dx = 0.1"):
        dataclasses.replace(box, L=1.05)
    with pytest.raises(ValidationError, match="dx must be positive, got -0.1"):
        dataclasses.replace(box, dx=-0.1)
    with pytest.raises(ValidationError, match="v0 = w0 = 0 gives the zero Hamiltonian"):
        dataclasses.replace(box, v0=0.0, w0=0.0)
    # every accepted box, the v0 = 0 one included, has a valid bulk record
    for ok in (box, dataclasses.replace(box, v0=0.0), dataclasses.replace(box, w0=-3.0)):
        BulkParams(v=ok.v0, w=ok.w0, a=ok.a)


def test_grid_is_symmetric():
    p = FiniteParams(v0=0.5, w0=1.0, a=0.5, L=4.0, dx=0.25)
    x = p.grid_x()
    assert x.shape == (p.n_points,)
    assert x[0] == pytest.approx(-2.0)
    assert x[-1] == pytest.approx(2.0)
    assert np.max(np.abs(x + x[::-1])) < 1e-12
    # at chosen indices, the bits of the full grid
    idx = np.array([16, 0, 7, 7])
    assert np.array_equal(p.grid_x(idx), x[idx])


def _magnitudes():
    return st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(_magnitudes(), st.one_of(_magnitudes(), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
       st.sampled_from([1.0, -1.0]), st.booleans())
def test_log_ratio_to_a_few_ulps(v, factor, sign, near):
    # against ln(|w|/|v|) from the exact binary inputs to 40 digits; ratios
    # near 1 (w = v * 10^e, |e| <= 3) and ratios beyond float64 included
    w = v * factor if near else factor
    assume(w != 0.0 and np.isfinite(w))
    with localcontext() as ctx:
        ctx.prec = 40
        want = (Decimal(abs(w)) / Decimal(v)).ln()
    got = log_ratio(sign * v, w)
    assert abs(Decimal(got) - want) <= 4 * Decimal(float(np.finfo(float).eps)) * abs(want), (v, w)


def test_norm_takes_any_magnitude():
    # the sum of squares would overflow at 1e200 and underflow at 1e-200
    for scale in (1e-200, 1.0, 1e200):
        assert norm(scale * np.ones(4), [3j * scale]) == pytest.approx(np.sqrt(13.0) * scale, rel=1e-15)
    assert norm(np.zeros(3)) == 0.0 and norm(np.empty(0)) == 0.0
    # a box state's (psi_a, psi_b) pair with one half zero
    assert norm(np.ones(17), np.zeros(17)) == pytest.approx(np.sqrt(17.0))
