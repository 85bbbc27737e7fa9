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
resolvable; build_zero_mode refuses the others. The modes are of
topological origin: they exist only for |w0| > |v0|, where each decays
away from its wall, and build_zero_mode refuses every other box.

build_zero_mode samples each mode in hop units, from the wall where it
peaks, so no box length or hop overflows float64.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .finite import FiniteOperator, check_levels
from .model import FiniteParams, log_ratio, norm, power_of_two

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
    """One closed-form zero mode: component, exponent, labels, samples psi on its sublattice."""

    component: str
    q: complex
    labels: EdgeLabels
    phase: float
    psi: np.ndarray


def zero_mode_exponents(params: FiniteParams) -> tuple[complex, complex]:
    """(q_A, q_B): complex spatial exponents of the two zero-mode families.

    Re q_A = -Re q_B = -(1/a) ln|w0/v0|, Im q_A = -Im q_B = pi/a for
    couplings of equal sign and 0 for opposite signs, so that exp(q_A a)
    equals the per-hop factor -v0/w0. The A mode grows toward the left
    wall and the B mode toward the right wall when |w0| > |v0|. A rate
    beyond the float64 range (a subnormal a) is a ValidationError naming --a.
    """
    if params.v0 == 0.0 or params.w0 == 0.0:
        raise ValidationError("zero-mode exponents need v0 != 0 and w0 != 0")
    rate = log_ratio(params.v0, params.w0) / params.a
    turn = np.pi / params.a if (params.v0 > 0.0) == (params.w0 > 0.0) else 0.0  # v0*w0 may underflow
    if not math.isfinite(rate):
        raise ValidationError(f"the decay rate ln|w0/v0|/a at --a = {params.a!r} leaves the float64 range")
    if not math.isfinite(turn):
        raise ValidationError(f"the phase rate pi/a at --a = {params.a!r} leaves the float64 range")
    return complex(-rate, turn), complex(rate, 0.0 - turn)  # no -0.0 in the output


def phase_label(n: int, m: int, params: FiniteParams) -> float:
    """Hard-wall phase offset (2m+1) pi/2 + n pi L / a for harmonic n."""
    _check_labels(n, m, params)
    return float((2 * m + 1) * np.pi / 2.0 + n * np.pi * (params.L / params.a))


def _check_labels(n: int, m: int, params: FiniteParams) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(m, (int, np.integer)):
        raise ValidationError(f"labels must be integers, got n={n!r}, m={m!r}")
    if n == 0:
        raise ValidationError("n = 0 makes the oscillatory factor vanish identically")
    if n < 0:
        raise ValidationError(f"harmonic n must be positive, got {n}")
    ratio = 2.0 * n * (params.L / params.a)
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
        raise ValidationError(
            f"2nL/a = {ratio} is not an integer: cosine cannot vanish at both walls"
        )
    nyquist = params.a / (2.0 * params.dx)
    if n > nyquist + 1e-9:
        raise ValidationError(
            f"harmonic n = {n} exceeds the grid Nyquist bound a/(2 dx) = {nyquist}"
        )


def build_zero_mode(params: FiniteParams, component: str, labels: EdgeLabels) -> ZeroModeAnalytic:
    """Sample one analytic zero mode on its sublattice's grid points (unit norm).

    The mode is built in hop units, t = x/a = (i - (P-1)/2)/m at grid index
    i, with q a = Re(qa) + i Im(qa) (see zero_mode_exponents) and its decay
    taken from the wall t_wall where it peaks:

        psi = osc * exp(Re(qa) (t - t_wall)) * exp(i Im(qa) t) / norm.

    That is exp(q x) times a positive constant, so the normalized mode,
    and its real part, are those of osc * exp(q x) at any box length; the
    factor is at most 1, and a tail beyond float64 underflows to zeros.

    Raises ValidationError outside the topological phase (|v0| >= |w0|),
    where the box has no zero modes, when the sampled oscillatory factor
    vanishes at every grid point, which happens for the Nyquist-edge
    harmonic on boxes with integer L/a, and, before anything P-sized is
    allocated, for a box above finite.MAX_LEVELS levels.
    """
    if component not in COMPONENTS:
        raise ValidationError(f"component must be one of {COMPONENTS}, got {component!r}")
    q_a, q_b = zero_mode_exponents(params)
    if abs(params.v0) >= abs(params.w0):
        raise ValidationError(
            f"v0 = {params.v0!r}, w0 = {params.w0!r} is not in the topological phase "
            "|v0| < |w0|: the box has no zero-energy edge modes"
        )
    q = q_a if component == "A" else q_b
    phi = phase_label(labels.n, labels.m, params)
    check_levels(params)
    p = params.n_points
    t = (np.arange(p) - 0.5 * (p - 1)) / params.hop_steps  # x/a
    osc = np.cos(2.0 * np.pi * labels.n * t + phi)
    if np.max(np.abs(osc)) < 1e-9:
        raise ValidationError(f"harmonic n = {labels.n} vanishes at every grid point of this box")
    eta = _ETA[component]
    decay = eta * log_ratio(params.v0, params.w0)  # Re(qa)
    turn = -eta * np.pi if (params.v0 > 0.0) == (params.w0 > 0.0) else 0.0  # Im(qa)
    wall = t[0] if decay < 0.0 else t[-1]  # where the mode peaks
    psi = np.empty(p, dtype=complex)
    np.multiply(t - wall, decay, out=psi.real)
    np.multiply(t, turn, out=psi.imag)
    np.exp(psi, out=psi)
    psi *= osc
    psi /= norm(psi)
    return ZeroModeAnalytic(component=component, q=q, labels=labels, phase=phi, psi=psi)


def operator_residual(op: FiniteOperator, mode: ZeroModeAnalytic) -> float:
    """||H psi|| / ||psi||: ||C^T psi|| for an A mode, ||C psi|| for a B mode, over ||psi||."""
    nrm = norm(mode.psi)
    if nrm == 0.0:
        raise ValidationError("cannot take the residual of the zero vector")
    block = op.c_block.T if mode.component == "A" else op.c_block
    return norm(block @ mode.psi) / nrm


@dataclass(frozen=True)
class LocalizationFit:
    """Log-linear envelope fit: |psi| ~ exp(slope * x) through window maxima."""

    slope: float
    intercept: float
    n_peaks: int


def localization_fit(params: FiniteParams, values: np.ndarray) -> LocalizationFit:
    """Fit the decay rate of |values| on the box's grid from its maxima over windows of width a.

    The grid is cut into consecutive windows of m = a/dx points; the largest
    magnitude in each window and its position enter an ordinary
    least-squares line through (x/s, log |psi|), where s is a's
    power_of_two: the division is exact, so the slope is the fitted one
    over s bit for bit, and x/s stays near 1 at any a. A maximum enters only
    as a normal float64: a subnormal one has lost bits, and the tail of a
    strongly localized mode underflows through them to zeros. Needs at
    least MIN_PEAKS such windows.
    """
    values = np.asarray(values)
    p, m = params.n_points, params.hop_steps
    if values.shape != (p,):
        raise ValidationError(f"values must have shape ({p},), got {values.shape}")
    k = p // m  # full windows; a shorter tail is dropped
    windows = np.abs(values)[: k * m].reshape(k, m)
    j = np.argmax(windows, axis=1)
    peaks = windows[np.arange(k), j]
    keep = peaks >= sys.float_info.min
    peaks = peaks[keep]
    locs = params.grid_x((np.arange(k) * m + j)[keep])
    if len(peaks) < MIN_PEAKS:
        raise ValidationError(
            f"need at least {MIN_PEAKS} envelope maxima, found {len(peaks)}"
        )
    s = power_of_two(params.a)
    slope, intercept = np.polyfit(locs / s, np.log(peaks), 1)
    return LocalizationFit(slope=float(slope) / s, intercept=float(intercept), n_peaks=len(peaks))
