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

The eigensolver uses that decomposition: each distinct cell count is
solved once, in O(n), from its chain's quantization condition, and the
levels are tiled by multiplicity, which gives the spectrum as exact +-sigma
pairs (chiral symmetry built in). Each chain is solved on couplings divided
by their power_of_two and its levels go back through scale_back (see
model), as the residual's defects are scaled before they are squared. States are built only for the levels
that are read. compare_ssh takes the single P-cell chain's levels from
LAPACK's SVD of its dense block.

C itself is kept as its two diagonals (HopBlock) and applied with numpy
slices.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import FiniteParams, Grid, SpinorGrid, make_grid, power_of_two, scale_back

# relative (to |w0|) half-width of the "zero energy" window
ZERO_TOL_DEFAULT = 1e-8

# largest dense chain block (in elements) compare_ssh may allocate for its
# single P-cell chain: 2**26 float64 entries are 512 MiB, which admits
# chains up to 8192 cells
DENSE_MAX_ELEMENTS = 2**26

# most levels spectrum() solves: `finite` peaks at about 400 bytes resident
# per level (measured up to 2**21 levels), about 1.7 GB at this ceiling
MAX_LEVELS = 2**22


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
    compare_ssh's single P-cell chain and decoupled_spectrum's classes use it.
    """
    if n_cells**2 > DENSE_MAX_ELEMENTS:
        raise ValidationError(
            f"the dense block of a {n_cells}-cell chain would need {n_cells**2} dense "
            f"elements, above the ceiling DENSE_MAX_ELEMENTS = {DENSE_MAX_ELEMENTS}"
        )
    block = np.diag(np.full(n_cells, float(v)))
    block[np.arange(1, n_cells), np.arange(n_cells - 1)] = w
    return block


def check_levels(params: FiniteParams) -> None:
    """Refuse a box with more than MAX_LEVELS levels, before anything is allocated."""
    levels = 2 * params.n_points
    if levels > MAX_LEVELS:
        raise ValidationError(
            f"the box --L = {params.L!r}, --dx = {params.dx!r} has {levels} levels, "
            f"above the ceiling MAX_LEVELS = {MAX_LEVELS}"
        )


def _chain_eigensystem(op: FiniteOperator):
    # The chains share (v0, w0) and at most two cell counts, so each count
    # is solved once: chain r holds cells[r] cells, the longer ones first.
    # The solver module is compiled on first use, not when the package loads.
    from ._chain import chain_levels

    p, m = op.n_points, op.hop_steps
    cells = (p - 1 - np.arange(m)) // m + 1
    lengths = sorted({int(cells[0]), int(cells[-1])}, reverse=True)
    solved = dict(zip(lengths, chain_levels(lengths, op.params.v0, op.params.w0)))
    starts = np.concatenate([[0], np.cumsum(cells)])
    s_all = np.concatenate([np.tile(solved[n].sigma, np.count_nonzero(cells == n)) for n in lengths])
    order = np.argsort(-s_all, kind="stable")  # descending, ties in chain order
    s = s_all[order]
    evals = np.concatenate([-s, s[::-1]])  # ascending, exactly negation-closed

    def states(levels):
        # psi_a, psi_b of the given levels as the columns of two row-major P x k blocks
        levels = np.asarray(levels)
        positive = levels >= p
        pos = order[np.where(positive, 2 * p - 1 - levels, levels)]
        owner = np.searchsorted(starts, pos, side="right") - 1
        column = pos - starts[owner]
        blocks = np.zeros((2, p, levels.size))
        for n, chain in solved.items():
            picked = np.flatnonzero(cells[owner] == n)
            cell = owner[picked, None] + m * np.arange(n)
            blocks[:, cell, picked[:, None]] = chain.vectors(column[picked], positive[picked])
        return blocks[0], blocks[1]

    return evals, states


def _sampled_residual(op: FiniteOperator, evals: np.ndarray, states) -> float:
    """Largest ||H psi - E psi|| over 19 levels: 17 evenly spaced, P-1 and P.

    states(levels) gives the sampled levels' (psi_a, psi_b) as the columns
    of two P x 19 blocks, so C and C^T are applied once each; the blocks
    are overwritten.

    The defects are divided by their power_of_two before they are squared,
    which is exact, so couplings near the float64 limits get a finite bound
    and ordinary ones the bits of the unscaled sum.
    """
    p, dim = op.n_points, op.dimension
    sample = np.array(sorted({(dim - 1) * i // 16 for i in range(17)} | {p - 1, p}))
    psi_a, psi_b = states(sample)
    lam = evals[sample]
    defect_b = op.c_block.T @ psi_a
    defect_a = op.c_block @ psi_b
    psi_a *= lam
    psi_b *= lam
    defect_a -= psi_a
    defect_b -= psi_b
    s = power_of_two(defect_a.min(), defect_a.max(), defect_b.min(), defect_b.max())
    defect_a /= s
    defect_b /= s
    return s * math.sqrt(float(np.max(np.einsum("ij,ij->j", defect_a, defect_a)
                                      + np.einsum("ij,ij->j", defect_b, defect_b))))


def spectrum(op: FiniteOperator) -> SpectrumResult:
    """All 2P eigenvalues in ascending order, with lazily built eigenstates.

    The box is solved chain by chain: the levels of each distinct cell
    count come from its quantization condition in O(n), and are tiled by
    multiplicity, which enforces the +-E pairing exactly; a state is built
    only when it is read. residual_bound is measured with H built from the
    operator's own c_block, so it exposes an operator whose C is not the
    chain structure its parameters imply. A box above MAX_LEVELS levels is
    a ValidationError, and levels beyond the float64 range are a
    NumericalError.
    """
    check_levels(op.params)
    evals, states = _chain_eigensystem(op)
    return SpectrumResult(
        eigenvalues=evals,
        vectors=_LazyStates(range(op.dimension),
                            lambda j: SpinorGrid(op.grid, *(s[:, 0] for s in states([j])))),
        residual_bound=_sampled_residual(op, evals, states),
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


def decoupled_spectrum(op: FiniteOperator) -> np.ndarray:
    """All 2P levels, sorted: +- the singular values of each residue class's chain block.

    A route apart from spectrum(): LAPACK's SVD, one class at a time. Only
    the benchmark's oracle check calls it; it leaves with ROADMAP item 1.
    """
    p, m = op.n_points, op.hop_steps
    s = [np.linalg.svd(_chain_block(len(range(r, p, m)), op.params.v0, op.params.w0),
                       compute_uv=False) for r in range(m)]
    return np.sort(np.concatenate([*s, *(-x for x in s)]))


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
    tol_zero = check_zero_window(default_zero_tol(params) if tol_zero is None else tol_zero)
    # the P-cell chain is the m = 1 case of the box's chain block; its dense
    # size guard is the stricter one, so it runs before the box is built;
    # LAPACK scales the block itself, so its levels need only the range check
    s = np.linalg.svd(_chain_block(params.n_points, params.v0, params.w0), compute_uv=False)
    e_chain = scale_back(1.0, np.concatenate([-s, s[::-1]]),
                         f"the levels of the {params.n_points}-cell chain "
                         f"at v0 = {params.v0!r}, w0 = {params.w0!r}")
    e_box = spectrum(build_finite(params)).eigenvalues
    return SpectrumComparison(
        e_box=e_box,
        e_chain=e_chain,
        ks_distance=kolmogorov_distance(e_box, e_chain),
        zero_modes_box=zero_mode_count(e_box, tol_zero),
        zero_modes_chain=zero_mode_count(e_chain, tol_zero),
        tol_zero=float(tol_zero),
    )
