import numpy as np
import pytest
import scipy.sparse as sp

from nonlocal_ssh.errors import ValidationError
from nonlocal_ssh.finite import (
    FiniteOperator,
    SshChain,
    build_finite,
    chain_decomposition,
    compare_ssh,
    decoupled_spectrum,
    kolmogorov_distance,
    spectrum,
    ssh_chain_matrix,
    ssh_spectrum,
    symmetry_residuals,
    zero_mode_count,
)
from nonlocal_ssh.model import FiniteParams, SpinorGrid, make_grid

RNG = np.random.default_rng(31)

SMALL = FiniteParams(v0=0.7, w0=-1.3, a=0.3, L=2.1, dx=0.1)  # m=3, P=22


def test_tiny_box_brute_force():
    # P=3, m=1, v0=0: C is a pure shift, singular values {1, 1, 0}
    p = FiniteParams(v0=0.0, w0=1.0, a=0.1, L=0.2, dx=0.1)
    op = build_finite(p)
    assert op.dimension == 6
    ev = spectrum(op).eigenvalues
    brute = np.linalg.eigvalsh(op.to_dense())
    assert np.allclose(ev, brute, atol=1e-12)
    assert np.allclose(ev, [-1, -1, 0, 0, 1, 1], atol=1e-12)


def test_chain_closed_forms():
    # single cell: a dimer
    assert np.allclose(ssh_spectrum(SshChain(n_cells=1, v=0.5, w=1.0)), [-0.5, 0.5])
    # two cells with v = w = 1: golden-ratio quadruplet
    g = (np.sqrt(5.0) + 1.0) / 2.0
    want = np.sort([-g, -(g - 1.0), g - 1.0, g])
    assert np.allclose(ssh_spectrum(SshChain(n_cells=2, v=1.0, w=1.0)), want, atol=1e-12)


def test_chain_matrix_layout():
    h = ssh_chain_matrix(SshChain(n_cells=2, v=0.5, w=2.0))
    want = np.array(
        [
            [0.0, 0.5, 0.0, 0.0],
            [0.5, 0.0, 2.0, 0.0],
            [0.0, 2.0, 0.0, 0.5],
            [0.0, 0.0, 0.5, 0.0],
        ]
    )
    assert np.array_equal(h, want)
    with pytest.raises(ValidationError):
        ssh_chain_matrix(SshChain(n_cells=0, v=1.0, w=1.0))
    with pytest.raises(ValidationError):
        ssh_chain_matrix(SshChain(n_cells=2, v=1.0, w=1.0, boundary="periodic"))


def test_svd_and_dense_agree():
    op = build_finite(SMALL)
    e_svd = spectrum(op, method="svd").eigenvalues
    e_dense = spectrum(op, method="dense").eigenvalues
    assert np.max(np.abs(e_svd - e_dense)) < 1e-12
    with pytest.raises(ValidationError):
        spectrum(op, method="lanczos")


def test_negation_closure_is_exact():
    ev = spectrum(build_finite(SMALL)).eigenvalues
    assert np.array_equal(ev, -ev[::-1])


def test_apply_matches_recursion():
    op = build_finite(SMALL)
    p, m = op.n_points, op.hop_steps
    psi_a = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    psi_b = RNG.normal(size=p) + 1j * RNG.normal(size=p)
    out = op.apply(SpinorGrid(grid=op.grid, psi_a=psi_a, psi_b=psi_b))
    # A row couples psi_B at x and x - a, B row couples psi_A at x and x + a
    want_a = SMALL.v0 * psi_b.copy()
    want_a[m:] += SMALL.w0 * psi_b[:-m]
    want_b = SMALL.v0 * psi_a.copy()
    want_b[:-m] += SMALL.w0 * psi_a[m:]
    assert np.allclose(out.psi_a, want_a, atol=1e-13)
    assert np.allclose(out.psi_b, want_b, atol=1e-13)


def test_spectrum_vectors_are_eigenvectors():
    op = build_finite(SMALL)
    res = spectrum(op, want_vectors=True)
    h = op.to_dense()
    assert len(res.vectors) == op.dimension
    for j in range(op.dimension):
        st = res.vectors[j]
        vec = np.concatenate([st.psi_a, st.psi_b])
        assert np.linalg.norm(h @ vec - res.eigenvalues[j] * vec) < 1e-12


@pytest.mark.parametrize("geometry", [
    dict(a=0.3, L=2.0, dx=0.1),  # P = 21, m = 3: one cell count
    dict(a=0.3, L=2.1, dx=0.1),  # P = 22, m = 3: cell counts 8 and 7
    dict(a=0.1, L=2.0, dx=0.1),  # m = 1: a single chain
], ids=["even", "uneven", "single"])
@pytest.mark.parametrize("phase", [(0.6, 1.3), (1.3, 0.6)], ids=["topological", "trivial"])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                         ids=["++", "+-", "-+", "--"])
def test_chain_route_matches_oracles(signs, phase, geometry):
    p = FiniteParams(v0=signs[0] * phase[0], w0=signs[1] * phase[1], **geometry)
    op = build_finite(p)
    ev = spectrum(op).eigenvalues
    assert np.max(np.abs(ev - np.linalg.eigvalsh(op.to_dense()))) < 1e-10
    assert np.max(np.abs(ev - decoupled_spectrum(op))) < 1e-10
    assert np.array_equal(ev, -ev[::-1])


def test_chain_decomposition_sizes():
    p = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0, dx=0.01)
    chains = chain_decomposition(build_finite(p))
    assert len(chains) == 20
    sizes = sorted(c.n_cells for c in chains)
    assert sizes == [50] * 19 + [51]
    assert sorted(c.offset for c in chains) == list(range(20))


def test_decoupling_oracle_small():
    op = build_finite(SMALL)
    full = spectrum(op).eigenvalues
    dec = decoupled_spectrum(op)
    assert full.size == dec.size == 2 * op.n_points
    assert np.max(np.abs(np.sort(full) - dec)) < 1e-12


def test_symmetry_residuals_structural():
    res = symmetry_residuals(build_finite(SMALL))
    assert res.chiral == 0.0
    assert res.parity == 0.0
    assert res.h_norm > 0.0


def _extra_hop_operator():
    # hand-built operator with one extra hop from grid point 1 to 0: it
    # mixes two residue classes, so it breaks the chain structure, and it
    # avoids the anti-diagonal, which parity fixes
    p = SMALL
    c = build_finite(p).c_block.toarray()
    c[0, 1] += 0.5
    return FiniteOperator(params=p, grid=make_grid(p), c_block=sp.csr_array(c))


def test_symmetry_detects_broken_parity():
    # still chiral, not parity
    res = symmetry_residuals(_extra_hop_operator())
    assert res.chiral == 0.0
    assert res.parity > 0.1


def test_residual_bound_measured_on_operator_c_block():
    # the chain route solves the blocks implied by the parameters; the
    # residual must expose that they are not this operator's C
    op = _extra_hop_operator()
    assert spectrum(op).residual_bound > 0.1
    assert spectrum(op, method="dense").residual_bound < 1e-12


def test_zero_mode_window_is_strict():
    ev = np.array([-1.0, -1e-9, 0.0, 1e-9, 1.0])
    assert zero_mode_count(ev, 1e-8) == 3
    assert zero_mode_count(ev, 1e-9) == 1  # strict inequality


def test_nonzero_levels_stay_in_bulk_band():
    # open-chain levels obey E^2 = v^2 + w^2 + 2 v w cos(theta), so away
    # from the midgap states |E| lies inside [|v|-|w|, |v|+|w|]
    p = FiniteParams(v0=0.5, w0=1.0, a=0.5, L=10.0, dx=0.1)
    ev = spectrum(build_finite(p)).eigenvalues
    bulk = ev[np.abs(ev) > 1e-3]
    assert np.all(np.abs(bulk) >= 0.5 - 1e-9)
    assert np.all(np.abs(bulk) <= 1.5 + 1e-9)


def test_kolmogorov_distance_basics():
    x = np.arange(10.0)
    assert kolmogorov_distance(x, x) == 0.0
    assert kolmogorov_distance(np.array([0.0, 1.0]), np.array([5.0, 6.0])) == 1.0
    got = kolmogorov_distance(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0]))
    assert got == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        kolmogorov_distance(np.array([]), x)


def test_compare_ssh_small_box():
    cmp = compare_ssh(FiniteParams(v0=0.5, w0=1.0, a=0.2, L=2.0, dx=0.05))
    assert cmp.e_box.size == cmp.e_chain.size == 82
    assert 0.0 <= cmp.ks_distance <= 1.0
    # 41-cell chain is deep enough in the topological phase for 2 midgap
    # states, the 10-cell subchains of the box are not
    assert cmp.zero_modes_chain == 2
    assert cmp.zero_modes_box == 0


def test_norm_bound():
    op = build_finite(SMALL)
    ev = spectrum(op).eigenvalues
    assert np.max(np.abs(ev)) <= op.norm_bound() + 1e-12
