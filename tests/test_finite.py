import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from box_reference import (
    box_h,
    chain_cells,
    reference_c,
    reference_h,
    reference_levels,
    symmetry_defects,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonlocal_ssh.errors import NumericalError, ValidationError
from nonlocal_ssh.finite import (
    DENSE_MAX_ELEMENTS,
    MAX_LEVELS,
    FiniteOperator,
    HopBlock,
    _chain_eigensystem,
    _sampled_residual,
    build_finite,
    check_levels,
    compare_ssh,
    decoupled_spectrum,
    kolmogorov_distance,
    spectrum,
    zero_mode_count,
)
from nonlocal_ssh.model import FiniteParams, SpinorGrid, make_grid

RNG = np.random.default_rng(31)

SMALL = FiniteParams(v0=0.7, w0=-1.3, a=0.3, L=2.1, dx=0.1)  # m=3, P=22

SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_tiny_box_brute_force():
    # P=3, m=1, v0=0: C is a pure shift, singular values {1, 1, 0}
    p = FiniteParams(v0=0.0, w0=1.0, a=0.1, L=0.2, dx=0.1)
    op = build_finite(p)
    assert op.dimension == 6
    ev = spectrum(op).eigenvalues
    brute = np.linalg.eigvalsh(box_h(p))
    assert np.allclose(ev, brute, atol=1e-12)
    assert np.allclose(ev, [-1, -1, 0, 0, 1, 1], atol=1e-12)


def test_chain_closed_forms():
    # P = 5, m = 3: a 1-cell chain, the dimer +-|v0|, and two 2-cell chains,
    # whose singular values are (sqrt(w0^2 + 4 v0^2) +- |w0|)/2
    ev = spectrum(build_finite(FiniteParams(v0=0.5, w0=1.0, a=0.3, L=0.4, dx=0.1))).eigenvalues
    s = (np.sqrt(2.0) + np.array([1.0, 1.0, -1.0, -1.0])) / 2
    want = np.sort(np.concatenate([[-0.5, 0.5], -s, s]))
    assert np.allclose(ev, want, rtol=0.0, atol=1e-14)
    # P = 4, m = 2: two 2-cell chains with v0 = w0 = 1, the golden-ratio quadruplet twice
    ev = spectrum(build_finite(FiniteParams(v0=1.0, w0=1.0, a=0.2, L=0.3, dx=0.1))).eigenvalues
    g = (np.sqrt(5.0) + 1.0) / 2.0
    want = np.sort(2 * [-g, -(g - 1.0), g - 1.0, g])
    assert np.allclose(ev, want, rtol=0.0, atol=1e-14)


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
    res = spectrum(op)
    h = box_h(SMALL)
    assert len(res.vectors) == op.dimension
    for j in range(op.dimension):
        st = res.vectors[j]
        vec = np.concatenate([st.psi_a, st.psi_b])
        assert np.linalg.norm(h @ vec - res.eigenvalues[j] * vec) < 1e-12


def test_spectrum_vectors_slice_like_a_sequence():
    res = spectrum(build_finite(SMALL))
    dim = len(res.vectors)
    levels = list(range(dim))
    for sl in (slice(1, 3), slice(None, None, -2), slice(dim - 1, 2, -3),
               slice(3, 1), slice(dim, None)):
        part = res.vectors[sl]
        want = levels[sl]
        assert len(part) == len(want)
        for state, j in zip(part, want):
            assert np.array_equal(state.psi_a, res.vectors[j].psi_a)
            assert np.array_equal(state.psi_b, res.vectors[j].psi_b)
    assert len(res.vectors[1:3][::-1]) == 2
    assert np.array_equal(res.vectors[1:3][-1].psi_a, res.vectors[2].psi_a)
    for j in (dim, -dim - 1):
        with pytest.raises(IndexError):
            res.vectors[j]
    with pytest.raises(IndexError):
        res.vectors[1:3][2]


@pytest.mark.parametrize("geometry", [
    dict(a=0.3, L=2.0, dx=0.1),  # P = 21, m = 3: one cell count
    dict(a=0.3, L=2.1, dx=0.1),  # P = 22, m = 3: cell counts 8 and 7
    dict(a=0.1, L=2.0, dx=0.1),  # m = 1: a single chain
], ids=["even", "uneven", "single"])
@pytest.mark.parametrize("phase", [(0.6, 1.3), (1.3, 0.6)], ids=["topological", "trivial"])
@pytest.mark.parametrize("signs", SIGNS, ids=["++", "+-", "-+", "--"])
def test_chain_route_matches_oracles(signs, phase, geometry):
    p = FiniteParams(v0=signs[0] * phase[0], w0=signs[1] * phase[1], **geometry)
    op = build_finite(p)
    ev = spectrum(op).eigenvalues
    assert np.max(np.abs(ev - np.linalg.eigvalsh(box_h(p)))) < 1e-10
    assert np.max(np.abs(ev - decoupled_spectrum(op))) < 1e-10
    assert np.array_equal(ev, -ev[::-1])


@st.composite
def _random_boxes(draw):
    # a = m*dx on a grid of 3..41 points, any admissible m, either phase
    steps = draw(st.integers(2, 40))
    m = draw(st.integers(1, steps - 1))
    weak = draw(st.floats(0.05, 1.0))
    strong = draw(st.floats(0.2, 5.0))
    v0, w0 = (weak * strong, strong) if draw(st.booleans()) else (strong, weak * strong)
    sign_v, sign_w = draw(st.sampled_from(SIGNS))
    return FiniteParams(v0=sign_v * v0, w0=sign_w * w0, a=m * 0.1, L=steps * 0.1, dx=0.1)


@settings(max_examples=50, deadline=None)
@given(_random_boxes())
def test_chain_route_matches_brute_force_on_random_boxes(params):
    op = build_finite(params)
    ev = spectrum(op).eigenvalues
    brute = np.linalg.eigvalsh(box_h(params))
    assert np.max(np.abs(ev - brute)) <= 1e-12 * (abs(params.v0) + abs(params.w0))
    assert np.array_equal(ev, -ev[::-1])


@pytest.mark.parametrize("p, m", [(9, 1), (9, 8), (10, 3), (12, 3), (6, 6), (4, 7)],
                         ids=["m=1", "m=P-1", "uneven", "even", "m=P", "m>P"])
@pytest.mark.parametrize("signs", SIGNS, ids=["++", "+-", "-+", "--"])
def test_hop_block_matches_reference(signs, p, m):
    v0, w0 = signs[0] * 0.7, signs[1] * 1.3
    block = HopBlock(v0, w0, m, p)
    want = reference_c(v0, w0, m, p)
    eye = np.eye(p)
    assert block.shape == (p, p)
    assert np.array_equal(block @ eye, want)
    assert np.array_equal(block.T @ eye, want.T)
    assert np.array_equal(block.T.T @ eye, want)
    rng = np.random.default_rng(p * 100 + m)
    for x in (rng.normal(size=p),
              rng.normal(size=p) + 1j * rng.normal(size=p),
              rng.normal(size=(p, 3)) + 1j * rng.normal(size=(p, 3))):
        keep = x.copy()
        got, got_t = block @ x, block.T @ x
        assert np.array_equal(x, keep)  # the operand is never written to
        assert got is not x and got_t is not x
        assert np.allclose(got, want @ x, rtol=0.0, atol=1e-14)
        assert np.allclose(got_t, want.T @ x, rtol=0.0, atol=1e-14)


def test_hop_block_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        HopBlock(1.0, 1.0, 0, 5)
    with pytest.raises(ValidationError):
        HopBlock(1.0, 1.0, 2, 5) @ np.ones(6)


def test_build_finite_stores_hop_block():
    op = build_finite(SMALL)
    assert isinstance(op.c_block, HopBlock)
    assert (op.c_block.m, op.c_block.n) == (op.hop_steps, op.n_points)
    assert np.array_equal(
        op.c_block @ np.eye(op.n_points),
        reference_c(SMALL.v0, SMALL.w0, op.hop_steps, op.n_points),
    )


def test_symmetry_identities_exact_on_large_box():
    # P = 40001: apply() serves this box in O(P), and both identities hold
    # bit for bit
    op = build_finite(FiniteParams(v0=0.5, w0=1.0, a=0.2, L=400.0, dx=0.01))
    assert op.n_points == 40001
    assert symmetry_defects(op) == (0.0, 0.0)
    ones = np.ones(op.n_points)
    out = op.apply(SpinorGrid(grid=op.grid, psi_a=ones, psi_b=ones))
    assert out.psi_a[0] == 0.5 and out.psi_a[-1] == 1.5


def _sturm_counts(v, w, n_cells, energies):
    # levels below each energy of the interleaved open chain (off-diagonals
    # v, w, v, ..., v), counted by the signs of its LDL^T pivots (Barth,
    # Martin & Wilkinson, Numer. Math. 9, 386 (1967)); no eigensolver
    energies = np.asarray(energies, dtype=float)
    d = -energies
    count = (d < 0).astype(int)
    for b in np.resize([v, w], 2 * n_cells - 1):
        d = -energies - b * b / np.where(d == 0.0, 1e-300, d)
        count += d < 0
    return count


def test_chain_block_guard_refuses_long_chains():
    # m = 1 makes the whole box one 40001-cell chain (block 12.8 GB dense):
    # spectrum() solves it without a dense block, and Sturm counts agree;
    # compare_ssh's single chain has P = 10001 cells (0.8 GB) even though
    # this box's own chains (m = 20) have about 500 cells each: refused
    single = FiniteParams(v0=0.5, w0=1.0, a=0.01, L=400.0, dx=0.01)
    wide = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=100.0, dx=0.01)
    assert (single.hop_steps, single.n_points) == (1, 40001)
    assert (wide.hop_steps, wide.n_points) == (20, 10001)
    assert wide.n_points**2 > DENSE_MAX_ELEMENTS
    res = spectrum(build_finite(single))
    assert res.eigenvalues.size == 80002 and res.residual_bound < 1e-12
    assert zero_mode_count(res.eigenvalues, 1e-8) == 2
    cuts = np.array([-1.4, -0.9, -0.51, -1e-9, 1e-9, 0.5000001, 0.7, 1.2, 1.49])
    assert np.array_equal(np.searchsorted(res.eigenvalues, cuts), _sturm_counts(0.5, 1.0, 40001, cuts))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="10001-cell chain"):
            compare_ssh(wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # refused before allocating


def test_levels_guard():
    # the largest admitted box has MAX_LEVELS levels; one more grid point is
    # refused, naming --L, --dx and the level count, before anything is
    # allocated (spectrum checks the parameters, not the operator's grid)
    at_ceiling = FiniteParams(v0=0.5, w0=1.0, a=1.0, L=MAX_LEVELS // 2 - 1.0, dx=1.0)
    above = FiniteParams(v0=0.5, w0=1.0, a=1.0, L=MAX_LEVELS // 2 * 1.0, dx=1.0)
    assert 2 * at_ceiling.n_points == MAX_LEVELS
    check_levels(at_ceiling)
    op = FiniteOperator(params=above, grid=make_grid(SMALL), c_block=HopBlock(1.0, 1.0, 1, 3))
    message = (f"the box --L = 2097152.0, --dx = 1.0 has {MAX_LEVELS + 2} levels, "
               f"above the ceiling MAX_LEVELS = {MAX_LEVELS}")
    tracemalloc.start()
    try:
        for refuse in (lambda: check_levels(above), lambda: spectrum(op)):
            with pytest.raises(ValidationError) as err:
                refuse()
            assert str(err.value) == message
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_dense_ceiling_admits_acceptance_box():
    # the largest dense array the 2002-level box needs is compare-ssh's
    # 1001-cell chain block; the ceiling leaves it a margin of 64x
    p = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0, dx=0.01)
    assert 64 * p.n_points**2 <= DENSE_MAX_ELEMENTS


def test_chain_decomposition_sizes():
    # the acceptance box is 19 chains of 50 cells and one of 51: its positive
    # levels are their SVD levels, tiled by multiplicity
    p = FiniteParams(v0=0.5, w0=1.0, a=0.2, L=10.0, dx=0.01)
    cells = chain_cells(p)
    assert cells == [51] + [50] * 19
    ev = spectrum(build_finite(p)).eigenvalues
    assert np.max(np.abs(ev[p.n_points:] - reference_levels(p.v0, p.w0, cells))) < 1e-13


def test_decoupling_oracle_small():
    op = build_finite(SMALL)
    full = spectrum(op).eigenvalues
    dec = decoupled_spectrum(op)
    assert full.size == dec.size == 2 * op.n_points
    assert np.max(np.abs(np.sort(full) - dec)) < 1e-12


@st.composite
def _hop_operators(draw):
    # a HopBlock wrapped as a box operator: m = 1, P - 1, P or beyond P
    # (the last two only by hand, as FiniteParams needs L > a), any signs
    p = draw(st.integers(3, 60))
    m = draw(st.sampled_from([1, p - 1, p, p + draw(st.integers(1, 5))]))
    sign_v, sign_w = draw(st.sampled_from(SIGNS))
    v0 = sign_v * draw(st.floats(1e-3, 1e3))
    w0 = sign_w * draw(st.floats(1e-3, 1e3))
    params = FiniteParams(v0=v0, w0=w0, a=0.1, L=(p - 1) * 0.1, dx=0.1)
    return FiniteOperator(params=params, grid=make_grid(params), c_block=HopBlock(v0, w0, m, p))


@settings(max_examples=100, deadline=None)
@given(_hop_operators(), st.integers(0, 2**32 - 1))
def test_symmetry_identities_exact(op, seed):
    assert symmetry_defects(op, seed) == (0.0, 0.0)


def _extra_hop_operator():
    # hand-built operator with one extra hop from grid point 1 to 0: it
    # mixes two residue classes, so it breaks the chain structure, and it
    # avoids the anti-diagonal, which parity fixes; its c_block is the
    # dense C itself
    p = SMALL
    c = reference_c(p.v0, p.w0, p.hop_steps, p.n_points)
    c[0, 1] += 0.5
    return FiniteOperator(params=p, grid=make_grid(p), c_block=c)


def test_symmetry_detects_broken_parity():
    # the P = 22 box keeps both identities exactly; one extra hop leaves it
    # still chiral, not parity
    assert symmetry_defects(build_finite(SMALL)) == (0.0, 0.0)
    chiral, parity = symmetry_defects(_extra_hop_operator())
    assert chiral <= 1e-12
    assert parity > 0.1


def _dense_eigensystem(op):
    # eigh of the whole H, built from the loop-built C (or a hand-built
    # operator's own dense C): eigenpairs that spread over every residue class
    c = op.c_block if isinstance(op.c_block, np.ndarray) else reference_c(
        op.params.v0, op.params.w0, op.hop_steps, op.n_points)
    evals, vecs = np.linalg.eigh(reference_h(c))
    p = op.n_points
    return evals, lambda j: (vecs[:p, j], vecs[p:, j])


def _eigensystem(op, method):
    # eigenvalues, pair(j) -> (psi_a, psi_b) and the sampled residual bound,
    # from spectrum()'s closed-form chain route (id "svd", kept from the
    # former SVD route) or from eigh of H ("dense")
    if method == "dense":
        evals, pair = _dense_eigensystem(op)
        return evals, pair, _sampled_residual(op, evals, pair)
    res = spectrum(op)

    def pair(j):
        return res.vectors[j].psi_a, res.vectors[j].psi_b

    return res.eigenvalues, pair, res.residual_bound


def test_residual_bound_measured_on_operator_c_block():
    # the chain route solves the blocks implied by the parameters; the
    # residual must expose that they are not this operator's C
    op = _extra_hop_operator()
    assert spectrum(op).residual_bound > 0.1
    assert _sampled_residual(op, *_dense_eigensystem(op)) < 1e-12


def _loop_residual_bound(op, evals, pair):
    # the same sample as spectrum(), measured one eigenpair at a time
    p, dim = op.n_points, op.dimension
    worst = 0.0
    for j in sorted(set(np.linspace(0, dim - 1, 17, dtype=int)) | {p - 1, p}):
        (psi_a, psi_b), lam = pair(j), evals[j]
        ha = op.c_block @ psi_b - lam * psi_a
        hb = op.c_block.T @ psi_a - lam * psi_b
        worst = max(worst, float(np.sqrt(np.sum(np.abs(ha) ** 2) + np.sum(np.abs(hb) ** 2))))
    return worst


@pytest.mark.parametrize("method", ["svd", "dense"])
@pytest.mark.parametrize("geometry", [
    dict(a=0.1, L=2.0, dx=0.1),  # m = 1
    dict(a=2.0 * (1 - 1e-10), L=2.0, dx=0.1),  # m = P - 1, the largest hop L > a admits
    dict(a=0.3, L=2.1, dx=0.1),  # P = 22, m = 3: uneven cell counts
], ids=["m=1", "m=P-1", "uneven"])
@pytest.mark.parametrize("signs", SIGNS, ids=["++", "+-", "-+", "--"])
def test_residual_bound_matches_per_pair_loop(signs, geometry, method):
    op = build_finite(FiniteParams(v0=signs[0] * 0.6, w0=signs[1] * 1.3, **geometry))
    if geometry["a"] > 1.0:
        assert op.hop_steps == op.n_points - 1
    evals, pair, bound = _eigensystem(op, method)
    want = _loop_residual_bound(op, evals, pair)
    assert 0.0 < want < 1e-12
    assert bound == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("method", ["svd", "dense"])
def test_residual_bound_matches_per_pair_loop_off_structure(method):
    op = _extra_hop_operator()
    evals, pair, bound = _eigensystem(op, method)
    assert bound == pytest.approx(_loop_residual_bound(op, evals, pair), rel=1e-14, abs=0.0)


def test_zero_mode_window_is_strict():
    ev = np.array([-1.0, -1e-9, 0.0, 1e-9, 1.0])
    assert zero_mode_count(ev, 1e-8) == 3
    assert zero_mode_count(ev, 1e-9) == 1  # strict inequality


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1e-8])
def test_zero_mode_window_must_be_positive_and_finite(tol):
    # a nan window used to count no level and an infinite one every level
    with pytest.raises(ValidationError, match="zero-mode window"):
        zero_mode_count(np.array([-1.0, 0.0, 1.0]), tol)
    with pytest.raises(ValidationError, match="zero-mode window"):
        compare_ssh(FiniteParams(v0=0.5, w0=1.0, a=0.2, L=2.0, dx=0.05), tol_zero=tol)


def test_default_zero_mode_window_needs_w0():
    # the default window 1e-8*|w0| is empty when w0 = 0
    with pytest.raises(ValidationError, match="zero-mode window"):
        compare_ssh(FiniteParams(v0=0.5, w0=0.0, a=0.2, L=2.0, dx=0.05))


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
    # |v0| + |w0| bounds the spectral norm
    ev = spectrum(build_finite(SMALL)).eigenvalues
    assert np.max(np.abs(ev)) <= abs(SMALL.v0) + abs(SMALL.w0) + 1e-12


def test_batched_states_have_the_bits_of_single_ones():
    # the residual builds its 19 states in one pass; each must be the state
    # res.vectors[j] builds alone, bit for bit, in every sign pair and with
    # two cell counts, the edge pair included
    for signs in SIGNS:
        op = build_finite(FiniteParams(v0=signs[0] * 0.6, w0=signs[1] * 1.3, a=0.3, L=2.1, dx=0.1))
        res = spectrum(op)
        _, states = _chain_eigensystem(op)
        levels = np.arange(op.dimension)
        psi_a, psi_b = states(levels)
        for j in levels:
            assert np.array_equal(psi_a[:, j], res.vectors[j].psi_a.real)
            assert np.array_equal(psi_b[:, j], res.vectors[j].psi_b.real)


@st.composite
def _chain_boxes(draw):
    # boxes of m chains with n and n - 1 cells (1-cell chains when p < 2m):
    # equal couplings, the dimer limits, n near |v|/(|w| - |v|) where the
    # edge pair turns into a real root, log-uniform ratios, any signs, and
    # magnitudes from 1e-320 to 1e308
    m = draw(st.integers(1, 5))
    p = draw(st.one_of(st.integers(m + 2, max(m + 2, 2 * m - 1)), st.integers(m + 2, 60 * m)))
    n = -(-p // m)
    kind = draw(st.sampled_from(["ratio", "equal", "v=0", "w=0", "threshold"]))
    if kind == "threshold":  # n (w - v) = v (1 + delta) with |delta| <= 1e-6
        weak = 1.0 / (1.0 + (1.0 + draw(st.sampled_from([0.0, 1e-14, -1e-14, 1e-9, -1e-6]))) / n)
        strong = 1.0
    else:
        weak = {"equal": 1.0, "v=0": 0.0, "w=0": 0.0}.get(kind, 10.0 ** draw(st.floats(-3, 0)))
        strong = 1.0
    if kind not in ("v=0", "threshold") and draw(st.booleans()):
        weak, strong = strong, weak  # |v| > |w|: trivial, or w = 0
    scale = 10.0 ** draw(st.floats(-320, 308))
    sign_v, sign_w = draw(st.sampled_from(SIGNS))
    v0, w0 = sign_v * weak * scale, sign_w * strong * scale
    assume(v0 != 0.0 or w0 != 0.0)
    return FiniteParams(v0=v0, w0=w0, a=m * 0.1, L=(p - 1) * 0.1, dx=0.1)


@settings(max_examples=300, deadline=None)
@given(_chain_boxes())
def test_chain_levels_match_svd_at_every_scale(params):
    # the closed form against LAPACK's SVD of each distinct chain block,
    # taken on the couplings over a power of two e and scaled back, to
    # 1e-13 (|v0| + |w0|) or the subnormal spacing; a box whose levels pass
    # the float64 maximum is refused; the sampled pairs are eigenpairs of
    # the operator to 1e-12 (|v0| + |w0|) or 2^-1074 per entry
    op = build_finite(params)
    want = reference_levels(params.v0, params.w0, chain_cells(params))
    if not np.isfinite(want).all():
        with pytest.raises(NumericalError, match="exceed the float64 range"):
            spectrum(op)
        return
    res = spectrum(op)
    norm = 2.0 * max(abs(params.v0), abs(params.w0))
    got = res.eigenvalues[op.n_points:]
    assert np.max(np.abs(got - want)) <= max(1e-13 * norm, 4 * 2.0**-1074)
    assert np.array_equal(res.eigenvalues, -res.eigenvalues[::-1])
    assert np.all(res.eigenvalues[1:] >= res.eigenvalues[:-1])
    assert res.residual_bound <= 1e-12 * norm + 16 * op.n_points * 2.0**-1074
    for j in (0, op.n_points - 1, op.n_points, 2 * op.n_points - 1):
        assert np.linalg.norm(res.vectors[j].psi_a) ** 2 * 2 == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4000), st.integers(1, 3), st.floats(0.05, 0.95),
       st.floats(-300, 300), st.sampled_from(SIGNS))
def test_smallest_level_has_full_relative_accuracy(n, m, ratio, exponent, signs):
    # a topological box's smallest level is its longest chains' edge pair,
    # (w0^2 - v0^2)/|w0| |v0/w0|^n up to a relative n |v0/w0|^(2n), here
    # below 1e-14; exact rational arithmetic gives the reference
    assume(n * ratio ** (2 * n) < 1e-14)
    w0 = signs[1] * 10.0**exponent
    v0 = signs[0] * ratio * abs(w0)
    params = FiniteParams(v0=v0, w0=w0, a=m * 0.1, L=(n * m - 1) * 0.1, dx=0.1)
    assert max(chain_cells(params)) == n
    v, w = Fraction(abs(v0)), Fraction(abs(w0))
    want = float((w * w - v * v) / w * (v / w) ** n)
    assume(want >= 2.2250738585072014e-308)  # until it underflows
    got = spectrum(build_finite(params)).eigenvalues[n * m]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
