"""Analytic zero-energy edge modes of the finite box.

At E = 0 the two sublattices decouple and each obeys a one-step recursion:
psi_A(x + a) = -(v0/w0) psi_A(x) and psi_B(x) = -(w0/v0) psi_B(x - a).
Solutions are an exponential envelope times a free a-periodic factor,

    psi_s(x) = cos(2 pi n_s x / a + phi_{n_s}) * exp(q_s x),
    q_s = eta_s (1/a) ln|w0/v0| - i eta_s theta / a,   eta_A = -1, eta_B = +1,

where theta = pi when v0 w0 > 0 encodes the sign flip per hop, and
theta = 0 when v0 w0 < 0, because the per-hop factor -v0/w0 is then
positive. The hard walls quantize the oscillatory factor: choosing

    phi_{n_s}(m_s) = (2 m_s + 1) pi / 2 + n_s pi L / a

zeroes the cosine at x = -L/2 for any label, and at x = +L/2 exactly when
2 n_s L / a is an integer. n_s = 0 makes the factor vanish identically and
is rejected. On a grid of step dx only harmonics with n_s <= a/(2 dx) are
resolvable, so the continuum's countable family collapses to a finite
budget of labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabel,
    InsufficientPeaks,
    NonCommensurateBox,
    ValidationError,
    ZeroCoupling,
)
from .finite import FiniteOperator
from .model import FiniteParams, Grid, SpinorGrid, make_grid, validate_finite

COMPONENTS = ("A", "B")
_ETA = {"A": -1.0, "B": 1.0}

# fewest envelope maxima accepted for a log-linear decay fit
MIN_PEAKS = 10


@dataclass(frozen=True)
class EdgeLabels:
    """Oscillation harmonic n >= 1 and phase branch m (integer)."""

    n: int
    m: int


@dataclass(frozen=True)
class ZeroModeAnalytic:
    """One closed-form zero mode: component, exponent, labels, sampled state."""

    component: str
    q: complex
    labels: EdgeLabels
    phase: float
    state: SpinorGrid


def zero_mode_exponents(params: FiniteParams) -> tuple[complex, complex]:
    """(q_A, q_B): complex spatial exponents of the two zero-mode families.

    Re q_A = -Re q_B = -(1/a) ln|w0/v0|, Im q_A = -Im q_B = pi/a for
    couplings of equal sign and 0 for opposite signs, so that exp(q_A a)
    equals the per-hop factor -v0/w0. The A mode grows toward the left
    wall and the B mode toward the right wall when |w0| > |v0|.
    """
    validate_finite(params)
    if params.v0 == 0.0 or params.w0 == 0.0:
        raise ZeroCoupling("zero-mode exponents need v0 != 0 and w0 != 0")
    rate = np.log(abs(params.w0 / params.v0)) / params.a
    turn = np.pi / params.a if params.v0 * params.w0 > 0.0 else 0.0
    return complex(-rate, turn), complex(rate, 0.0 - turn)  # no -0.0 in the output


def phase_label(n: int, m: int, params: FiniteParams) -> float:
    """Hard-wall phase offset (2m+1) pi/2 + n pi L / a for harmonic n."""
    validate_finite(params)
    _check_labels(n, m, params)
    return float((2 * m + 1) * np.pi / 2.0 + n * np.pi * params.L / params.a)


def _check_labels(n: int, m: int, params: FiniteParams) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(m, (int, np.integer)):
        raise ValidationError(f"labels must be integers, got n={n!r}, m={m!r}")
    if n == 0:
        raise DegenerateLabel("n = 0 makes the oscillatory factor vanish identically")
    if n < 0:
        raise ValidationError(f"harmonic n must be positive, got {n}")
    ratio = 2.0 * n * params.L / params.a
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
        raise NonCommensurateBox(
            f"2nL/a = {ratio} is not an integer: cosine cannot vanish at both walls"
        )
    nyquist = params.a / (2.0 * params.dx)
    if n > nyquist + 1e-9:
        raise ValidationError(
            f"harmonic n = {n} exceeds the grid Nyquist bound a/(2 dx) = {nyquist}"
        )


def build_zero_mode(params: FiniteParams, component: str, labels: EdgeLabels) -> ZeroModeAnalytic:
    """Sample one analytic zero mode on the grid (unit norm, one sublattice).

    Raises DegenerateLabel when the sampled oscillatory factor vanishes at
    every grid point, which happens for the Nyquist-edge harmonic on boxes
    with integer L/a.
    """
    validate_finite(params)
    if component not in COMPONENTS:
        raise ValidationError(f"component must be one of {COMPONENTS}, got {component!r}")
    q_a, q_b = zero_mode_exponents(params)
    q = q_a if component == "A" else q_b
    phi = phase_label(labels.n, labels.m, params)
    grid = make_grid(params)
    osc = np.cos(2.0 * np.pi * labels.n * grid.x / params.a + phi)
    if np.max(np.abs(osc)) < 1e-9:
        raise DegenerateLabel(
            f"harmonic n = {labels.n} vanishes at every grid point of this box"
        )
    psi = osc * np.exp(q * grid.x)
    psi = psi / np.linalg.norm(psi)
    zero = np.zeros_like(psi)
    if component == "A":
        state = SpinorGrid(grid=grid, psi_a=psi, psi_b=zero)
    else:
        state = SpinorGrid(grid=grid, psi_a=zero, psi_b=psi)
    return ZeroModeAnalytic(component=component, q=q, labels=labels, phase=phi, state=state)


def operator_residual(op: FiniteOperator, state: SpinorGrid) -> float:
    """||H psi|| / ||psi|| for a candidate kernel state."""
    nrm = state.norm()
    if nrm == 0.0:
        raise ValidationError("cannot take the residual of the zero vector")
    return op.apply(state).norm() / nrm


@dataclass(frozen=True)
class LocalizationFit:
    """Log-linear envelope fit: |psi| ~ exp(slope * x) through window maxima."""

    slope: float
    intercept: float
    n_peaks: int


def localization_fit(grid: Grid, values: np.ndarray, a: float) -> LocalizationFit:
    """Fit the decay rate of |values| from its maxima over windows of width a.

    The grid is cut into consecutive windows of a/dx points; the largest
    magnitude in each window and its position enter an ordinary
    least-squares line through (x, log |psi|). Needs at least MIN_PEAKS
    windows with nonzero maxima.
    """
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValidationError(f"values must have shape ({grid.n},), got {values.shape}")
    m = max(1, round(a / grid.dx))
    mags = np.abs(values)
    peaks, locs = [], []
    for start in range(0, grid.n - m + 1, m):
        block = mags[start : start + m]
        j = int(np.argmax(block))
        if block[j] > 0.0:
            peaks.append(block[j])
            locs.append(grid.x[start + j])
    if len(peaks) < MIN_PEAKS:
        raise InsufficientPeaks(
            f"need at least {MIN_PEAKS} envelope maxima, found {len(peaks)}"
        )
    slope, intercept = np.polyfit(locs, np.log(peaks), 1)
    return LocalizationFit(slope=float(slope), intercept=float(intercept), n_peaks=len(peaks))


@dataclass(frozen=True)
class LabelBudget:
    """Finite label budget per component on a given grid.

    The continuum admits countably many harmonics; the grid resolves
    n in {1, ..., n_max} with n_max = floor(a / (2 dx)), each in two phase
    parities (m and m+2 give the same phase mod 2 pi, m and m+1 states
    differ by an overall sign).
    """

    n_max: int
    phase_parities: int
    total: int


def count_admissible_labels(params: FiniteParams) -> LabelBudget:
    """Distinct (harmonic, phase parity) classes representable per component."""
    validate_finite(params)
    n_max = int(np.floor(params.a / (2.0 * params.dx) + 1e-9))
    return LabelBudget(n_max=n_max, phase_parities=2, total=2 * n_max)
