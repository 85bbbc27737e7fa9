"""Local gradient truncations of the non-local chain and their Berry phases.

Expanding the hop over distance a in powers of the gradient gives a family
of local two-band models. In momentum space the lower-left matrix element
(the numerator of the B amplitude) is

    order 0:  z(k) = v + w                       (flat bands +-|v+w|)
    order 1:  z(k) = v + w + i a w k
    order 2:  z(k) = v + w - (w/2)(a k)^2 + i a w k

with H_n(k) = [[0, conj(z)], [z, 0]], bands +-|z(k)|, and eigenvectors
u(+-) = (1, z/E(+-)) / sqrt(2). k runs over the whole real line for these
truncations, so their Berry integral is taken over (-inf, inf).

Because |u_B| = 1 in this gauge, the Berry connection reduces to
i<u|du/dk> = -(1/2) d(arg z)/dk and the integral is -(1/2) times the total
winding of arg z(k). That winding is computed by counting the 2 pi wraps
of sampled phases on [-K, K] and adding the exact residual arcs from +-K
to the asymptotic directions of z (the curve crosses no axis beyond the
cutoff, so the residual arc is shorter than pi and the wrap is exact).

Closed forms this reproduces: order 1 gives -(pi/2) sgn(a w (v+w)) for all
gapped parameters; order 2 gives -pi when the parabola traced by z encloses
the origin, i.e. -pi*Theta(w(v+w)), which reduces to the familiar
-pi*Theta(w) when v + w > 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bulk import _K_CHUNK, BandPoint, GAP_ABS_TOL, energy_bands
from .errors import NumericalError, ValidationError
from .model import BulkParams, _require_finite, band_sign, power_of_two, scale_back, wrap_angle

ORDERS = (0, 1, 2)

# defaults for the winding computation
BERRY_NK = 200_001
BERRY_MIN_CUTOFF = 100.0  # in units of 1/a
BERRY_DEFAULT_CUTOFF = 1e4  # in units of 1/a


def _check_order(order: int) -> int:
    if order not in ORDERS:
        raise ValidationError(f"truncation order must be one of {ORDERS}, got {order}")
    return order


def _curvature(w: float, ak):
    """(w/2)(ak)^2, with (w/2)(ak) taken first where that overflows.

    A small w then still gives a term in the float64 range where (ak)^2
    alone overflows; elsewhere the bits are those of (w/2) times (ak)^2.
    """
    curve = 0.5 * w * ak**2
    wide = ~np.isfinite(curve)
    return np.where(wide, 0.5 * w * ak * ak, curve) if wide.any() else curve


def _b_numerator(params: BulkParams, order: int, k):
    """Lower-left matrix element z(k) of the order-n truncation."""
    v, w, a = params.v, params.w, params.a
    k = np.asarray(k, dtype=float)
    if order == 0:
        return np.full(k.shape, v + w, dtype=complex)
    if order == 1:
        return (v + w) + 1j * a * w * k
    return (v + w) - _curvature(w, a * k) + 1j * a * w * k


def approx_bands(params: BulkParams, order: int, k) -> BandPoint:
    """Truncated band energies +-|z(k)| (scalar or array k).

    |z| is taken on the couplings divided by their power_of_two and scaled
    back, which is exact; bands beyond the float64 range are a
    NumericalError. A term that overflows (order 2 squares ak) gives an inf
    or NaN that scale_back refuses, without a floating-point warning.
    """
    _check_order(order)
    k = np.asarray(k, dtype=float)
    s = power_of_two(params.v, params.w)
    with np.errstate(over="ignore", invalid="ignore"):
        z = _b_numerator(dataclasses.replace(params, v=params.v / s, w=params.w / s), order, k)
    e = scale_back(s, np.abs(z), f"the order-{order} bands at v = {params.v!r}, w = {params.w!r}")
    return BandPoint(k=k, e_minus=-e, e_plus=e)


@dataclass(frozen=True)
class BerryIntegralResult:
    """Berry integral over the real line, the cutoff used, and an error estimate."""

    value: float
    cutoff_k: float
    quadrature_error: float


def _asymptote_angles(params: BulkParams, order: int) -> tuple[float, float]:
    # direction of z(k) as k -> +inf / -inf, as angles in (-pi, pi]
    w = params.w
    if order == 1:
        return (np.sign(w) * np.pi / 2, -np.sign(w) * np.pi / 2)
    # order 2: the -(w/2)(ak)^2 term dominates; the sign of Im z picks the side
    if w > 0:
        return (np.pi, -np.pi)
    return (0.0, 0.0)


def berry_integral(
    params: BulkParams,
    order: int,
    band: str = "plus",
    cutoff_k: float | None = None,
    nk: int = BERRY_NK,
) -> BerryIntegralResult:
    """Berry integral of the order-n truncation, n in {1, 2}.

    Computed as -(1/2) times the winding of arg z(k): count the 2 pi wraps
    of the sampled phase on [-K, K], then add the exact arcs between z(+-K)
    and the asymptotic directions. Both bands give the same value (the +-1
    in u_B cancels in <u|du>); the band argument is validated and otherwise
    unused.

    cutoff_k defaults to 1e4/a; a NaN or infinite one is a ValidationError,
    and so is one whose 2K or 2aK leaves the float64 range (a sample of the
    order-1 z(k) reaches a*w*K with |w| < 2 after scaling).
    It must be at least 100/a, and for order 2 it must also clear the
    axis-crossing scale sqrt(2(v+w)/w)/a, otherwise ValidationError is raised.
    For order 2 the spacing a*2K/(nk-1) must stay below max(1, sqrt(2(v+w)/w))
    too (ValidationError): a coarser grid can step over the whole turn of
    z(k) near k = 0 with every phase step small.

    The grid np.linspace(-K, K, nk) is swept in chunks of _K_CHUNK samples.
    Each phase step splits into an integer wrap count rint(step/2pi) and a
    remainder, which must stay within pi/2 (else NumericalError). The
    running wrap count is exact, so the result does not depend on the chunk
    size, and memory does not grow with nk. z(k) can come near zero only at
    the sample nearest k = 0, and a step above pi/2 then starts or ends on
    that sample, so the gap closure is found first, as in one pass.
    quadrature_error is the rounding floor 4 max|theta| eps of the unwrapped
    phase theta. z is sampled on the couplings divided by their
    power_of_two: that leaves arg z as it is and cannot overflow.
    """
    band_sign(band)
    if order not in (1, 2):
        raise ValidationError(f"Berry integral implemented for orders 1 and 2, got {order}")
    s = power_of_two(params.v, params.w)
    params = dataclasses.replace(params, v=params.v / s, w=params.w / s)
    v, w, a = params.v, params.w, params.a
    if cutoff_k is None:
        cutoff_k = BERRY_DEFAULT_CUTOFF / a
    _require_finite(cutoff_k=cutoff_k)
    if not (math.isfinite(2.0 * cutoff_k) and math.isfinite(2.0 * a * cutoff_k)):
        raise ValidationError(
            f"cutoff_k = {cutoff_k!r} at a = {a!r}: 2*cutoff_k and 2*a*cutoff_k "
            "must stay in the float64 range"
        )
    if cutoff_k * a < BERRY_MIN_CUTOFF:
        raise ValidationError(f"cutoff_k must be >= {BERRY_MIN_CUTOFF}/a")
    if nk < 1001:
        raise ValidationError(f"nk must be >= 1001, got {nk}")
    lo, step = -cutoff_k, (cutoff_k - -cutoff_k) / (nk - 1)
    if order == 2 and w != 0.0:
        crossing = np.sqrt(max(2.0 * (v + w) / w, 0.0))  # |ak| where Re z = 0
        if cutoff_k * a < 10.0 * max(1.0, crossing):
            raise ValidationError(
                "cutoff_k too close to the axis-crossing scale sqrt(2(v+w)/w)/a"
            )
        if a * step >= max(1.0, crossing):
            raise ValidationError(
                f"k spacing a*2K/(nk-1) = {a * step:g} can skip the winding near k = 0; "
                "raise nk or lower cutoff_k"
            )
    if w == 0.0:
        # z(k) = v is constant: no winding
        return BerryIntegralResult(value=0.0, cutoff_k=float(cutoff_k), quadrature_error=0.0)

    gap_tol = GAP_ABS_TOL * (abs(v) + abs(w))
    wraps = 0  # 2 pi wraps of the phase so far
    for start in range(0, nk, _K_CHUNK):
        stop = min(start + _K_CHUNK, nk)
        ks = np.arange(start, stop, dtype=float) * step + lo
        if stop == nk:
            ks[-1] = cutoff_k
        z = _b_numerator(params, order, ks)
        if np.min(np.abs(z)) < gap_tol:
            raise NumericalError("truncated bands touch zero inside the cutoff")
        p = np.angle(z)
        if start:
            dd = np.diff(p, prepend=p_last)
        else:
            dd = np.diff(p)
            p_first = p[0]
            max_abs = abs(p_first)
        turns = np.rint(dd / (2.0 * np.pi))
        if np.abs(dd - 2.0 * np.pi * turns).max() > 0.5 * np.pi:
            raise NumericalError("k sampling too coarse to track the phase winding")
        np.cumsum(turns, out=turns)
        turns += wraps
        theta = p[p.size - turns.size:] - 2.0 * np.pi * turns
        max_abs = max(max_abs, np.abs(theta).max())
        p_last, wraps = p[-1], int(turns[-1])

    th_plus, th_minus = _asymptote_angles(params, order)
    tail_plus = wrap_angle(th_plus - float(p_last))
    tail_minus = wrap_angle(float(p_first) - th_minus)
    value = -0.5 * ((p_last - 2.0 * np.pi * wraps - p_first) + tail_plus + tail_minus)
    err = 4.0 * max_abs * np.finfo(float).eps
    return BerryIntegralResult(value=float(value), cutoff_k=float(cutoff_k), quadrature_error=float(err))


def comparison_table(params: BulkParams, k_samples: int = 401):
    """All truncated bands next to the exact ones on one zone of ka.

    Returns (columns, rows): column names and an (k_samples, 9) array with
    ka in [-pi, pi] followed by the order-0/1/2 and exact band pairs. k is
    sampled with a divided by its power_of_two, which leaves every a*k as
    it is and keeps k finite at any a.
    """
    if k_samples < 2:
        raise ValidationError(f"k_samples must be >= 2, got {k_samples}")
    params = dataclasses.replace(params, a=params.a / power_of_two(params.a))
    ka = np.linspace(-np.pi, np.pi, k_samples)
    k = ka / params.a
    cols = ["ka"]
    data = [ka]
    for order in ORDERS:
        bp = approx_bands(params, order, k)
        cols += [f"E{order}_minus", f"E{order}_plus"]
        data += [bp.e_minus, bp.e_plus]
    exact = energy_bands(params, k)
    cols += ["E_minus", "E_plus"]
    data += [exact.e_minus, exact.e_plus]
    return cols, np.column_stack(data)
