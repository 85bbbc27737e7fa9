"""Finite-box discretization of the non-local chain and its exact decoupling.

Inside the box the A equation couples psi_B at x and x - a, and the B
equation couples psi_A at x and x + a; couplings vanish outside [-L/2, L/2].
On a grid with a = m*dx this produces, in (A-sites, B-sites) block order,

    H = [[0, C], [C^T, 0]],   C = v0*I + w0*S,   S[i, i-m] = 1,

a real symmetric matrix of dimension 2P. Because the hop always jumps m
grid points, the residue classes of the site index mod m never mix: H is
permutation-similar to m independent open dimerized (SSH) chains whose cell
counts are ceil((P - r)/m). All chains share (v0, w0) and there are at most
two distinct cell counts.

The default eigensolver uses that decomposition: one SVD per distinct cell
count of C restricted to a residue class (a lower-bidiagonal block), whose
singular values, tiled by multiplicity, give the spectrum as exact +-sigma
pairs (chiral symmetry built in). Full dense diagonalization of H is the
cross-check, and dense per-chain diagonalization is the oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import GridMismatch, ValidationError
from .model import FiniteParams, Grid, SpinorGrid, make_grid, validate_finite

# relative (to |w0|) half-width of the "zero energy" window
ZERO_TOL_DEFAULT = 1e-8


@dataclass(frozen=True)
class FiniteOperator:
    """The box Hamiltonian, stored as its P x P coupling block C."""

    params: FiniteParams
    grid: Grid
    c_block: sp.csr_array

    @property
    def n_points(self) -> int:
        return self.grid.n

    @property
    def dimension(self) -> int:
        return 2 * self.grid.n

    @property
    def hop_steps(self) -> int:
        return self.params.hop_steps

    def matrix(self) -> sp.csr_array:
        """Full 2P x 2P sparse matrix in (A, B) block order."""
        return sp.block_array([[None, self.c_block], [self.c_block.T, None]], format="csr")

    def to_dense(self) -> np.ndarray:
        return self.matrix().toarray()

    def apply(self, spinor: SpinorGrid) -> SpinorGrid:
        """H acting on a sampled spinor."""
        if spinor.grid.n != self.grid.n:
            raise GridMismatch(
                f"spinor lives on {spinor.grid.n} points, operator on {self.grid.n}"
            )
        return SpinorGrid(
            grid=self.grid,
            psi_a=self.c_block @ spinor.psi_b,
            psi_b=self.c_block.T @ spinor.psi_a,
        )

    def norm_bound(self) -> float:
        """|v0| + |w0|, an upper bound on the spectral norm."""
        return abs(self.params.v0) + abs(self.params.w0)


def build_finite(params: FiniteParams) -> FiniteOperator:
    """Assemble the box Hamiltonian for validated parameters.

    Row i of C carries v0 at column i and, when i >= m, w0 at column i - m;
    hops that would leave the box are absent, which is what the vanishing
    coupling profile outside [-L/2, L/2] dictates.
    """
    validate_finite(params)
    p = params.n_points
    m = params.hop_steps
    c = sp.diags_array([np.full(p, params.v0)], offsets=[0], shape=(p, p))
    if m < p:
        c = c + sp.diags_array([np.full(p - m, params.w0)], offsets=[-m], shape=(p, p))
    return FiniteOperator(params=params, grid=make_grid(params), c_block=sp.csr_array(c))


@dataclass
class SpectrumResult:
    """Sorted eigenvalues, optional eigenvectors, and solver diagnostics.

    vectors, when requested, is a read-only sequence of 2P states that
    builds each SpinorGrid only when it is indexed.
    """

    eigenvalues: np.ndarray
    vectors: Sequence[SpinorGrid] | None
    method: str
    residual_bound: float


class _LazyStates(Sequence):
    """Eigenstates by level index, each built on access."""

    def __init__(self, n: int, build: Callable[[int], SpinorGrid]):
        self._n = n
        self._build = build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, j: int) -> SpinorGrid:
        return self._build(range(self._n)[j])


def _chain_block(n_cells: int, v: float, w: float) -> np.ndarray:
    """C restricted to one residue class: v on the diagonal, w below it."""
    block = np.diag(np.full(n_cells, float(v)))
    block[np.arange(1, n_cells), np.arange(n_cells - 1)] = w
    return block


def _chain_eigensystem(op: FiniteOperator):
    # A chain's block B = U S V^T gives H eigenpairs (+-s_c, (u_c, +-v_c)/sqrt2)
    # on its residue class; one SVD serves every chain with that cell count.
    chains = chain_decomposition(op)
    blocks = {}
    for chain in chains:
        if chain.n_cells not in blocks:
            blocks[chain.n_cells] = np.linalg.svd(_chain_block(chain.n_cells, chain.v, chain.w))
    s_all = np.concatenate([blocks[c.n_cells][1] for c in chains])
    order = np.argsort(-s_all, kind="stable")  # descending, ties in chain order
    s = s_all[order]
    evals = np.concatenate([-s, s[::-1]])  # ascending, exactly negation-closed
    owner = np.repeat(np.arange(len(chains)), [c.n_cells for c in chains])[order]
    column = np.concatenate([np.arange(c.n_cells) for c in chains])[order]
    p, m = op.n_points, op.hop_steps

    def pair(j):
        i, sign = (j, -1.0) if j < p else (2 * p - 1 - j, 1.0)
        chain = chains[owner[i]]
        u, _, vt = blocks[chain.n_cells]
        psi_a = np.zeros(p)
        psi_b = np.zeros(p)
        psi_a[chain.offset :: m] = u[:, column[i]] / np.sqrt(2.0)
        psi_b[chain.offset :: m] = sign * vt[column[i]] / np.sqrt(2.0)
        return psi_a, psi_b

    return evals, pair


def _eig_residual(op: FiniteOperator, psi_a, psi_b, lam) -> float:
    ha = op.c_block @ psi_b
    hb = op.c_block.T @ psi_a
    return float(np.sqrt(np.sum(np.abs(ha - lam * psi_a) ** 2) + np.sum(np.abs(hb - lam * psi_b) ** 2)))


def spectrum(op: FiniteOperator, want_vectors: bool = False, method: str = "svd") -> SpectrumResult:
    """All 2P eigenvalues in ascending order.

    method="svd" (default) solves the box chain by chain: one SVD of the
    lower-bidiagonal block per distinct cell count, singular values tiled
    by multiplicity, which enforces the +-E pairing exactly. method="dense"
    diagonalizes the full symmetric matrix as a cross-check that does not
    use the decomposition. residual_bound is the largest measured
    ||H psi - E psi||, with H built from the operator's own c_block, over a
    deterministic sample of eigenpairs.
    """
    if method not in ("svd", "dense"):
        raise ValidationError(f"method must be 'svd' or 'dense', got {method!r}")
    p = op.n_points
    dim = op.dimension
    if method == "svd":
        evals, pair = _chain_eigensystem(op)
    else:
        evals, vecs = np.linalg.eigh(op.to_dense())

        def pair(j):
            return vecs[:p, j], vecs[p:, j]

    sample = sorted(set(np.linspace(0, dim - 1, 17, dtype=int)) | {p - 1, p})
    residual = max(_eig_residual(op, *pair(j), evals[j]) for j in sample)

    vectors = None
    if want_vectors:
        vectors = _LazyStates(dim, lambda j: SpinorGrid(op.grid, *pair(j)))
    return SpectrumResult(
        eigenvalues=np.asarray(evals, dtype=float),
        vectors=vectors,
        method=method,
        residual_bound=residual,
    )


def default_zero_tol(params: FiniteParams) -> float:
    return ZERO_TOL_DEFAULT * abs(params.w0)


def zero_mode_count(eigenvalues: np.ndarray, tol_abs: float) -> int:
    """Number of eigenvalues inside the window |E| < tol_abs."""
    return int(np.sum(np.abs(np.asarray(eigenvalues)) < tol_abs))


@dataclass(frozen=True)
class SshChain:
    """Open dimerized chain: n_cells cells, intra-cell v, inter-cell w.

    offset records the grid residue class the chain came from (its first
    cell sits at grid index offset); boundary is always open here.
    """

    n_cells: int
    v: float
    w: float
    boundary: str = "open"
    offset: int = 0


def chain_decomposition(op: FiniteOperator) -> list[SshChain]:
    """The m independent chains hiding in the box Hamiltonian.

    Residue class r mod m collects grid indices r, r+m, ..., so it holds
    ceil((P - r)/m) cells coupled v0 within a cell and w0 between
    consecutive cells; classes never mix because every hop moves exactly m
    grid points.
    """
    p = op.n_points
    m = op.hop_steps
    chains = []
    for r in range(m):
        n_cells = len(range(r, p, m))
        if n_cells:
            chains.append(SshChain(n_cells=n_cells, v=op.params.v0, w=op.params.w0, offset=r))
    return chains


def ssh_chain_matrix(chain: SshChain) -> np.ndarray:
    """Dense 2n x 2n matrix in interleaved (A1, B1, A2, B2, ...) order."""
    if chain.n_cells < 1:
        raise ValidationError("chain must have at least one cell")
    if chain.boundary != "open":
        raise ValidationError(f"only open chains are supported, got {chain.boundary!r}")
    n = chain.n_cells
    h = np.zeros((2 * n, 2 * n))
    for j in range(n):
        h[2 * j, 2 * j + 1] = chain.v
        h[2 * j + 1, 2 * j] = chain.v
    for j in range(n - 1):
        h[2 * j + 1, 2 * j + 2] = chain.w
        h[2 * j + 2, 2 * j + 1] = chain.w
    return h


def ssh_spectrum(chain: SshChain) -> np.ndarray:
    """Eigenvalues of one open chain, ascending (dense symmetric solver)."""
    return np.linalg.eigvalsh(ssh_chain_matrix(chain))


def decoupled_spectrum(op: FiniteOperator) -> np.ndarray:
    """Union of the chain spectra, sorted. Exact alternative route to spectrum().

    Every chain is diagonalized on its own as a dense symmetric matrix, so
    this oracle shares no solver with the chain-block SVD of spectrum().
    """
    return np.sort(np.concatenate([ssh_spectrum(c) for c in chain_decomposition(op)]))


@dataclass(frozen=True)
class SymmetryResiduals:
    """Frobenius norms of the symmetry defects and of H itself."""

    chiral: float
    parity: float
    h_norm: float


def symmetry_residuals(op: FiniteOperator) -> SymmetryResiduals:
    """Chiral defect ||{H, Sz}||_F and inversion defect ||[H, X]||_F.

    Sz is +1 on A sites and -1 on B sites; X maps (A, x) <-> (B, -x). On
    the symmetric grid both defects are structural zeros; an asymmetric
    c_block (hand-built operators) reports a positive parity defect rather
    than raising.
    """
    p = op.n_points
    h = op.matrix()
    sz = sp.diags_array([np.concatenate([np.ones(p), -np.ones(p)])], offsets=[0])
    rev = sp.csr_array((np.ones(p), (np.arange(p), np.arange(p)[::-1])), shape=(p, p))
    x = sp.block_array([[None, rev], [rev, None]], format="csr")
    chiral = sp.linalg.norm(h @ sz + sz @ h, "fro")
    parity = sp.linalg.norm(h @ x - x @ h, "fro")
    return SymmetryResiduals(
        chiral=float(chiral), parity=float(parity), h_norm=float(sp.linalg.norm(h, "fro"))
    )


def kolmogorov_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """sup-distance between the empirical CDFs of two samples."""
    xs = np.sort(np.asarray(sample_a, dtype=float))
    ys = np.sort(np.asarray(sample_b, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValidationError("need non-empty samples")
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


@dataclass
class SpectrumComparison:
    """Box spectrum next to a single chain with the same couplings and size."""

    e_box: np.ndarray
    e_chain: np.ndarray
    ks_distance: float
    zero_modes_box: int
    zero_modes_chain: int
    tol_zero: float


def compare_ssh(params: FiniteParams, tol_zero: float | None = None) -> SpectrumComparison:
    """Spectrum of the box vs. a single open chain with P cells.

    Both systems have 2P levels. The chain is the a = dx limit of the same
    couplings, so the bulk densities agree while the midgap content differs:
    the box hosts 2m near-zero modes in the topological phase, the chain 2.
    """
    op = build_finite(params)
    if tol_zero is None:
        tol_zero = default_zero_tol(params)
    e_box = spectrum(op).eigenvalues
    # the P-cell chain is the m = 1 case of the box's chain block
    s = np.linalg.svd(_chain_block(params.n_points, params.v0, params.w0), compute_uv=False)
    e_chain = np.concatenate([-s, s[::-1]])
    return SpectrumComparison(
        e_box=e_box,
        e_chain=e_chain,
        ks_distance=kolmogorov_distance(e_box, e_chain),
        zero_modes_box=zero_mode_count(e_box, tol_zero),
        zero_modes_chain=zero_mode_count(e_chain, tol_zero),
        tol_zero=float(tol_zero),
    )
