"""Independent checks of the box Hamiltonian.

The dense matrices are built entry by entry and share no code with the
package's HopBlock, so a solver compared against them is compared against
an independent construction of H. The symmetry identities act through
the operator's O(P) apply() on a random spinor, at any box size.
"""

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
