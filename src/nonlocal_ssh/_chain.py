"""Closed-form levels and states of one open SSH chain.

finite.spectrum solves the distinct chains of the box with chain_levels.
This module is imported on first use, so a process that never solves a
box does not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EPS, power_of_two, scale_back

# safeguarded Newton steps per root; bisection alone needs about 60
_ROOT_STEPS = 100


class ChainLevels:
    """Levels, and states on demand, of one open chain: the block B = v0*I + w0*S.

    B is n x n lower bidiagonal. Its magnitudes v = |v0| and w = |w0| are
    divided by their power_of_two, scale; sigma is in the original units,
    and levels beyond the float64 range are a NumericalError. With
    theta = pi - t, B has the singular value
    sigma = |v + w e^{i theta}| = hypot(w - v, 2 sqrt(v w) sin(t/2)) at each
    root of v sin((n+1) theta) + w sin(n theta) = 0, and bracket j holds one
    root t = j*h + eps with 0 < eps <= h = pi/(n+1), solving
    (n+1) eps = arg(w e^{it} - v). Bracket j = 0 is empty exactly when
    w > v and n(w - v) >= v; its root is then the edge pair theta =
    pi + i*kappa with v (cosh kappa + sinh kappa coth n kappa) = w, whose
    level v sinh kappa / sinh n kappa keeps full relative accuracy.
    Delplace, Ullmo & Montambaux, PRB 84, 195452 (2011).

    chain_levels builds the chains of a box, which share v0 and w0, and
    solves their brackets together; a chain of one cell needs no root.

    Column c counts levels in descending order: the brackets j = n - 1,
    n - 2, ... and the edge pair last. For |v0|, |w0| the right singular
    vector of bracket j is y_k = sin(k theta), k = 1..n, and of the edge
    pair (-1)^k sinh(k kappa); the left one is +-y reversed, because
    J B J = B^T for the reversal J. B = s_v D^tau |B| D^tau with
    D = diag((-1)^k), s_v the sign of v0 (of w0 if v0 = 0) and
    tau = [v0 w0 < 0] carries the coupling signs to the states.
    """

    def __init__(self, n: int, v0: float, w0: float):
        self.scale = power_of_two(v0, w0)
        v, w = abs(v0) / self.scale, abs(w0) / self.scale
        self.n, self.v, self.w, self.v0, self.w0 = n, v, w, v0, w0
        self.s_v = math.copysign(1.0, v0 if v0 != 0.0 else w0)
        self.same_sign = not (v0 < 0.0 < w0 or w0 < 0.0 < v0)
        self.h = math.pi / (n + 1)
        self.edge = n > 1 and w > v and n * (w - v) >= v
        self.j = np.arange(n - 1, int(self.edge) - 1, -1)
        if n == 1:  # B = (v0); its vector sin(theta) normalizes to 1 for any root
            self.eps = np.array([0.5 * self.h])
            self.sigma = np.array([abs(v0)])

    def _set_roots(self, eps: np.ndarray) -> None:
        """The levels of a chain of n > 1 cells, from the roots eps of its brackets."""
        self.eps = eps
        v, w = self.v, self.w
        t = self.j * self.h + eps
        sigma = scale_back(self.scale,
                           np.hypot(w - v, 2.0 * math.sqrt(v) * math.sqrt(w) * np.sin(0.5 * t)),
                           f"the levels of the box at v0 = {self.v0!r}, w0 = {self.w0!r}")
        if self.edge:
            self.kappa = self._edge_root()
            sigma = np.append(sigma, self._edge_level())
        self.sigma = sigma

    def _edge_root(self) -> float:
        """kappa >= 0 of the edge pair (0 where n(w - v) = v); inf when v = 0."""
        n, v, w = self.n, self.v, self.w
        if v == 0.0:
            return math.inf
        # kappa + log1p(q(kappa)) = ln(w/v), q = -expm1(-2 kappa)/expm1(2 n kappa)
        log_ratio = math.log1p((w - v) / v) if w <= 2.0 * v else math.log(w) - math.log(v)
        if math.log1p(1.0 / n) >= log_ratio:
            return 0.0

        def q(kappa):
            return 0.0 if 2 * n * kappa > 700.0 else -math.expm1(-2.0 * kappa) / math.expm1(2 * n * kappa)

        lo, hi = 0.0, log_ratio
        kappa = log_ratio - math.log1p(q(log_ratio))
        for _ in range(_ROOT_STEPS):
            qk = q(kappa)
            f = kappa + math.log1p(qk) - log_ratio
            df = 1.0 + qk / (1.0 + qk) * (1.0 / math.tanh(kappa) - n / math.tanh(n * kappa) - (n + 1))
            if f < 0.0:
                lo = kappa
            elif f > 0.0:
                hi = kappa
            step = f / df if df > 0.0 else kappa - hi
            if abs(step) <= 4.0 * EPS * kappa:
                return kappa - step
            kappa = kappa - step if lo < kappa - step < hi else 0.5 * (lo + hi)
        return kappa

    def _edge_level(self) -> float:
        """scale * v sinh kappa / sinh(n kappa), without intermediate underflow.

        That is v e^{-(n-1) kappa} expm1(-2 kappa)/expm1(-2 n kappa), whose
        power 2**(-z), z = (n-1) kappa/ln 2, is applied as an exponent
        together with scale's.
        """
        n, v, kappa = self.n, self.v, self.kappa
        exponent = math.frexp(self.scale)[1] - 1
        if kappa == math.inf:
            return 0.0
        if kappa == 0.0:
            return math.ldexp(v / n, exponent)
        z = (n - 1) * kappa / math.log(2.0)
        whole = math.floor(z)
        mantissa = v * 2.0 ** (whole - z) * (math.expm1(-2.0 * kappa) / math.expm1(-2.0 * n * kappa))
        return math.ldexp(mantissa, exponent - whole)

    def vectors(self, columns: np.ndarray, positive: np.ndarray) -> np.ndarray:
        """The states of the given columns on the chain's cells, as a
        [psi_a, psi_b] x column x cell array: the level +sigma where positive
        is set, else -sigma.

        The right vector of |B| is y = P s with P_k = (-1)^(k+1), s_k =
        sin(k t) in a bracket and s_k = -sinh(k kappa) e^{-n kappa} (which
        cannot overflow) for the edge pair; the left one is (-1)^j P rev(s),
        with j = 0 for the edge pair. D^tau P is P, or 1 for couplings of
        opposite sign, so psi_b = +-P s/sqrt2 and psi_a = s_v (-1)^j P
        rev(s)/sqrt2, each without P where the signs differ. The phase k j h
        of sin(k t) is reduced modulo 2 pi in integers, so each entry is
        good to a few ulps at any n. Each row is normalized on its own, so
        its bits do not depend on the other columns asked for.
        """
        n = self.n
        k = np.arange(1, n + 1)
        edge = columns >= self.j.size  # only the last column can be the edge pair
        col = np.minimum(columns, self.j.size - 1)
        j = np.where(edge, 0, self.j[col])
        xy = np.empty((2, columns.size, n))
        psi_a, psi_b = xy
        np.multiply(k * j[:, None] % (2 * n + 2), self.h, out=psi_b)
        psi_b += k * self.eps[col][:, None]
        np.sin(psi_b, out=psi_b)
        if edge.any():
            kappa = self.kappa
            if kappa == math.inf:
                psi_b[edge] = (k == n) * -1.0
            elif kappa == 0.0:
                psi_b[edge] = -k
            else:
                psi_b[edge] = np.exp(-(n - k) * kappa) * np.expm1(-2.0 * kappa * k)
        psi_b /= np.sqrt(np.einsum("ij,ij->i", psi_b, psi_b))[:, None]
        np.multiply(psi_b[:, ::-1], (self.s_v / math.sqrt(2.0) * (1 - 2 * (j % 2)))[:, None], out=psi_a)
        psi_b *= np.where(positive, 1.0, -1.0)[:, None] / math.sqrt(2.0)
        if self.same_sign:
            xy[:, :, 1::2] *= -1.0
        return xy


def chain_levels(lengths: list[int], v0: float, w0: float) -> list[ChainLevels]:
    """The chains of the given cell counts with couplings v0, w0, their brackets solved in one loop."""
    chains = [ChainLevels(n, v0, w0) for n in lengths]
    longer = [chain for chain in chains if chain.n > 1]
    for chain, eps in zip(longer, _bracket_roots(longer)):
        chain._set_roots(eps)
    return chains


def _bracket_roots(chains: list[ChainLevels]) -> list[np.ndarray]:
    """eps of every nonempty bracket of each chain: closed forms, else Newton kept inside the bracket.

    The chains share v and w; one loop solves the brackets of all of them,
    with n and h per bracket. A chain's roots are taken from the step at
    which all of its brackets have converged, where a loop of its own
    would stop, so every root has the bits it has when its chain is solved
    alone.
    """
    if not chains:
        return []
    v, w = chains[0].v, chains[0].w
    if w == 0.0:  # B = v*I: theta = (n - j) pi/(n + 1)
        return [np.full(c.j.size, c.h) for c in chains]
    if v == w:  # theta = 2 (n - j) pi/(2n + 1)
        return [(c.n + 1 + c.j) * (math.pi / ((2 * c.n + 1) * (c.n + 1))) for c in chains]
    if v == 0.0:  # B = w*S: theta = (n - j) pi/n
        return [c.j * (c.h / c.n) for c in chains]
    sizes = [c.j.size for c in chains]
    spans = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    j = np.concatenate([c.j for c in chains])
    n1 = np.repeat([c.n + 1.0 for c in chains], sizes)
    h = np.repeat([c.h for c in chains], sizes)
    lo, hi = np.zeros(j.size), h.copy()
    jh = j * h
    t = jh + h
    eps = np.minimum(h, np.arctan2(w * np.sin(t), (w - v) - 2.0 * w * np.sin(0.5 * t) ** 2) / n1)
    roots = [None] * len(chains)
    with np.errstate(divide="ignore", invalid="ignore"):  # a step f/0 bisects instead
        for _ in range(_ROOT_STEPS):
            t = jh + eps
            s2 = np.sin(0.5 * t) ** 2
            re, im = (w - v) - 2.0 * w * s2, w * np.sin(t)  # w e^{it} - v, no cancellation
            f = n1 * eps - np.arctan2(im, re)
            # d arg/dt = w (w - v cos t) / |w e^{it} - v|^2
            df = n1 - w * ((w - v) + 2.0 * v * s2) / ((w - v) ** 2 + 4.0 * v * w * s2)
            np.copyto(lo, eps, where=f < 0.0)
            np.copyto(hi, eps, where=f > 0.0)
            step = f / df
            done = np.abs(step) <= 4.0 * EPS * eps
            new = eps - step
            eps = np.where(done | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
            for c, span in enumerate(spans):
                if roots[c] is None and done[span].all():
                    roots[c] = eps[span]  # each step makes a new eps
            if all(r is not None for r in roots):
                break
    return [eps[span] if r is None else r for r, span in zip(roots, spans)]
