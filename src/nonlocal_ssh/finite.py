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

The eigensolver uses that decomposition: one SVD per distinct cell count
of C restricted to a residue class (a lower-bidiagonal block), whose
singular values, tiled by multiplicity, give the spectrum as exact +-sigma
pairs (chiral symmetry built in). Dense per-chain diagonalization
(decoupled_spectrum) is the oracle.

C itself is kept as its two diagonals (HopBlock) and applied with numpy
slices.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import FiniteParams, Grid, SpinorGrid, make_grid

# relative (to |w0|) half-width of the "zero energy" window
ZERO_TOL_DEFAULT = 1e-8

# largest dense chain block (in elements) the solver may allocate: 2**26
# float64 entries are 512 MiB, which admits chains up to 8192 cells
DENSE_MAX_ELEMENTS = 2**26


class HopBlock:
    """C = v0*I + w0*S_m (or its transpose) stored as its two diagonals.

    S_m shifts by m grid points: (S_m x)[i] = x[i - m] for i >= m and 0
    otherwise, so row i of C holds v0 at column i and w0 at column i - m.
    The transposed block holds w0 at column i + m instead.
    """

    __slots__ = ("v0", "w0", "m", "n", "transposed")

    def __init__(self, v0: float, w0: float, m: int, n: int, transposed: bool = False):
        if m < 1 or n < 1:
            raise ValidationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        self.v0 = float(v0)
        self.w0 = float(w0)
        self.m = int(m)
        self.n = int(n)
        self.transposed = bool(transposed)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def T(self) -> HopBlock:
        return HopBlock(self.v0, self.w0, self.m, self.n, not self.transposed)

    def __matmul__(self, x) -> np.ndarray:
        """This block times x along its first axis, as a new array; x is left untouched."""
        x = np.asarray(x)
        if x.shape[:1] != (self.n,):
            raise ValidationError(f"operand has leading size {x.shape[:1]}, block is {self.shape}")
        m = self.m
        out = self.v0 * x
        if self.transposed:
            out[:-m] += self.w0 * x[m:]
        else:
            out[m:] += self.w0 * x[:-m]
        return out


@dataclass(frozen=True)
class FiniteOperator:
    """The box Hamiltonian, stored as its P x P coupling block C.

    c_block is anything with @ and .T for a P x P matrix; build_finite
    stores a HopBlock.
    """

    params: FiniteParams
    grid: Grid
    c_block: HopBlock

    @property
    def n_points(self) -> int:
        return self.grid.n

    @property
    def dimension(self) -> int:
        return 2 * self.grid.n

    @property
    def hop_steps(self) -> int:
        return self.params.hop_steps

    def apply(self, spinor: SpinorGrid) -> SpinorGrid:
        """H acting on a sampled spinor."""
        if spinor.grid.n != self.grid.n:
            raise ValidationError(
                f"spinor lives on {spinor.grid.n} points, operator on {self.grid.n}"
            )
        return SpinorGrid(
            grid=self.grid,
            psi_a=self.c_block @ spinor.psi_b,
            psi_b=self.c_block.T @ spinor.psi_a,
        )


def build_finite(params: FiniteParams) -> FiniteOperator:
    """Assemble the box Hamiltonian for validated parameters.

    Row i of C carries v0 at column i and, when i >= m, w0 at column i - m;
    hops that would leave the box are absent, which is what the vanishing
    coupling profile outside [-L/2, L/2] dictates.
    """
    c = HopBlock(params.v0, params.w0, params.hop_steps, params.n_points)
    return FiniteOperator(params=params, grid=make_grid(params), c_block=c)


@dataclass
class SpectrumResult:
    """Sorted eigenvalues, the eigenstates, and the measured residual bound.

    vectors is a read-only sequence of 2P states that builds each
    SpinorGrid only when it is indexed.
    """

    eigenvalues: np.ndarray
    vectors: Sequence[SpinorGrid]
    residual_bound: float


class _LazyStates(Sequence):
    """Eigenstates of the given levels, each built on access; a slice is another such view."""

    def __init__(self, levels: range, build: Callable[[int], SpinorGrid]):
        self._levels = levels
        self._build = build

    def __len__(self) -> int:
        return len(self._levels)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return _LazyStates(self._levels[j], self._build)
        return self._build(self._levels[j])


def _chain_block(n_cells: int, v: float, w: float) -> np.ndarray:
    """C restricted to one residue class: v on the diagonal, w below it.

    Dense n x n, so it refuses above DENSE_MAX_ELEMENTS before allocating.
    """
    if n_cells**2 > DENSE_MAX_ELEMENTS:
        raise ValidationError(
            f"the dense block of a {n_cells}-cell chain would need {n_cells**2} dense "
            f"elements, above the ceiling DENSE_MAX_ELEMENTS = {DENSE_MAX_ELEMENTS}"
        )
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


def _sampled_residual(op: FiniteOperator, evals: np.ndarray, pair) -> float:
    """Largest ||H psi - E psi|| over 19 levels: 17 evenly spaced, P-1 and P.

    pair(j) gives level j's (psi_a, psi_b); the sampled pairs become the
    columns of two P x 19 blocks, so C and C^T are applied once each.

    The defects are divided by a power of two near the largest of them
    before they are squared: that is exact, so couplings near the float64
    maximum cannot overflow the squares and ordinary ones keep their bits.
    """
    p, dim = op.n_points, op.dimension
    sample = sorted(set(np.linspace(0, dim - 1, 17, dtype=int)) | {p - 1, p})
    psi_a, psi_b = (np.stack(cols, axis=1) for cols in zip(*map(pair, sample)))
    lam = evals[sample]
    defect_a = np.abs(op.c_block @ psi_b - lam * psi_a)
    defect_b = np.abs(op.c_block.T @ psi_a - lam * psi_b)
    s = math.ldexp(1.0, math.frexp(max(defect_a.max(), defect_b.max()))[1])
    squares = ((defect_a / s) ** 2).sum(axis=0) + ((defect_b / s) ** 2).sum(axis=0)
    return float(s * np.sqrt(np.max(squares)))


def spectrum(op: FiniteOperator) -> SpectrumResult:
    """All 2P eigenvalues in ascending order, with lazily built eigenstates.

    The box is solved chain by chain: one SVD of the lower-bidiagonal block
    per distinct cell count, singular values tiled by multiplicity, which
    enforces the +-E pairing exactly. residual_bound is measured with H
    built from the operator's own c_block, so it exposes an operator whose
    C is not the chain structure its parameters imply. Levels beyond the
    float64 range are a NumericalError.
    """
    evals, pair = _chain_eigensystem(op)
    _require_finite_levels(evals, op.params, "the box")
    return SpectrumResult(
        eigenvalues=evals,
        vectors=_LazyStates(range(op.dimension), lambda j: SpinorGrid(op.grid, *pair(j))),
        residual_bound=_sampled_residual(op, evals, pair),
    )


def _require_finite_levels(levels: np.ndarray, params: FiniteParams, what: str) -> None:
    if not np.isfinite(levels).all():
        raise NumericalError(
            f"the levels of {what} at v0 = {params.v0!r}, w0 = {params.w0!r} "
            "exceed the float64 range"
        )


def default_zero_tol(params: FiniteParams) -> float:
    return ZERO_TOL_DEFAULT * abs(params.w0)


def check_zero_window(tol_abs: float) -> float:
    """The zero-mode window |E| < tol_abs; refused unless positive and finite."""
    if not 0.0 < tol_abs < math.inf:
        raise ValidationError(f"the zero-mode window {tol_abs} must be positive and finite")
    return float(tol_abs)


def zero_mode_count(eigenvalues: np.ndarray, tol_abs: float) -> int:
    """Number of eigenvalues inside the window |E| < tol_abs (checked)."""
    return int(np.sum(np.abs(np.asarray(eigenvalues)) < check_zero_window(tol_abs)))


@dataclass(frozen=True)
class SshChain:
    """Open dimerized chain: n_cells cells, intra-cell v, inter-cell w.

    offset records the grid residue class the chain came from (its first
    cell sits at grid index offset).
    """

    n_cells: int
    v: float
    w: float
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
    tol_zero is the absolute zero-mode window, 1e-8*|w0| by default; one
    that is not positive and finite is a ValidationError. Levels of either
    system beyond the float64 range are a NumericalError.
    """
    op = build_finite(params)
    tol_zero = check_zero_window(default_zero_tol(params) if tol_zero is None else tol_zero)
    # the P-cell chain is the m = 1 case of the box's chain block; it is the
    # larger block, so its size guard runs before the box is solved
    s = np.linalg.svd(_chain_block(params.n_points, params.v0, params.w0), compute_uv=False)
    e_chain = np.concatenate([-s, s[::-1]])
    _require_finite_levels(e_chain, params, f"the {params.n_points}-cell chain")
    e_box = spectrum(op).eigenvalues
    return SpectrumComparison(
        e_box=e_box,
        e_chain=e_chain,
        ks_distance=kolmogorov_distance(e_box, e_chain),
        zero_modes_box=zero_mode_count(e_box, tol_zero),
        zero_modes_chain=zero_mode_count(e_chain, tol_zero),
        tol_zero=float(tol_zero),
    )
