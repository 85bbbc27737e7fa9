"""Independent checks of the box Hamiltonian.

The dense matrices are built entry by entry and share no code with the
package's HopBlock, so a solver compared against them is compared against
an independent construction of H. The box's levels also come chain by
chain: residue class r of the P grid points mod m is an open chain of
len(range(r, P, m)) cells, whose levels are +- the singular values of its
block. The symmetry identities act through the operator's O(P) apply() on
a random spinor, at any box size.
"""

import math

import numpy as np

from nonlocal_ssh.model import SpinorGrid


def reference_c(v0, w0, m, p):
    # row i couples grid point i (v0) and grid point i - m (w0)
    c = np.zeros((p, p))
    for i in range(p):
        c[i, i] = v0
        if i - m >= 0:
            c[i, i - m] = w0
    return c


def reference_h(c):
    """[[0, C], [C^T, 0]] for a dense coupling block C, in (A, B) block order."""
    zero = np.zeros_like(c)
    return np.block([[zero, c], [c.T, zero]])


def box_h(params):
    """Dense 2P x 2P box Hamiltonian of FiniteParams, from its couplings and grid alone."""
    return reference_h(reference_c(params.v0, params.w0, params.hop_steps, params.n_points))


def chain_cells(params):
    """Cell counts of the box's m chains, residue class by residue class."""
    p, m = params.n_points, params.hop_steps
    return [len(range(r, p, m)) for r in range(m)]


def chain_singular_values(n_cells, v, w):
    """Singular values of one chain's block: v on the diagonal, w below it, built entry by entry."""
    block = np.zeros((n_cells, n_cells))
    for i in range(n_cells):
        block[i, i] = v
        if i:
            block[i, i - 1] = w
    return np.linalg.svd(block, compute_uv=False)


def reference_levels(v0, w0, cells):
    """The P non-negative levels of chains with these cell counts, ascending.

    Each chain's singular values are taken on the couplings divided by the
    power of two 2^e that puts the larger one in [1/2, 1), and multiplied
    back, so no entry under- or overflows; a level beyond the float64
    maximum reads inf.
    """
    e = math.frexp(max(abs(v0), abs(w0)))[1]
    s = np.sort(np.concatenate([chain_singular_values(n, math.ldexp(v0, -e), math.ldexp(w0, -e))
                                for n in cells]))
    with np.errstate(over="ignore"):
        return np.ldexp(s, e)


def symmetry_defects(op, seed=0):
    """Largest entries of {H, Sz} psi and [H, X] psi, both through op.apply.

    psi is a random complex spinor; Sz psi = (psi_a, -psi_b) and
    X psi = (rev psi_b, rev psi_a). A defect is 0.0 exactly when the
    identity holds bit for bit.
    """
    rng = np.random.default_rng(seed)
    p = op.n_points
    psi_a, psi_b = (rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(2))
    h = op.apply(SpinorGrid(op.grid, psi_a, psi_b))
    h_sz = op.apply(SpinorGrid(op.grid, psi_a, -psi_b))
    h_x = op.apply(SpinorGrid(op.grid, psi_b[::-1], psi_a[::-1]))
    chiral = max(np.max(np.abs(h_sz.psi_a + h.psi_a)), np.max(np.abs(h_sz.psi_b - h.psi_b)))
    parity = max(np.max(np.abs(h_x.psi_a - h.psi_b[::-1])),
                 np.max(np.abs(h_x.psi_b - h.psi_a[::-1])))
    return float(chiral), float(parity)
