import dataclasses

import numpy as np
import pytest

from nonlocal_ssh.errors import ValidationError
from nonlocal_ssh.model import (
    BulkParams,
    FiniteParams,
    SpinorGrid,
    band_sign,
    make_grid,
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
    g = make_grid(p)
    assert g.n == p.n_points
    assert g.x[0] == pytest.approx(-2.0)
    assert g.x[-1] == pytest.approx(2.0)
    assert np.max(np.abs(g.x + g.x[::-1])) < 1e-12


def test_spinor_grid_checks():
    p = FiniteParams(v0=0.5, w0=1.0, a=0.5, L=4.0, dx=0.25)
    g = make_grid(p)
    psi = np.ones(g.n)
    s = SpinorGrid(grid=g, psi_a=psi, psi_b=0 * psi)
    assert s.norm() == pytest.approx(np.sqrt(g.n))
    with pytest.raises(ValidationError, match="spinor components must have shape"):
        SpinorGrid(grid=g, psi_a=psi, psi_b=np.ones(g.n + 1))
