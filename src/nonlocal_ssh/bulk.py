"""Bulk band structure and Zak phase of the non-local dimerized chain.

The Bloch Hamiltonian is purely off-diagonal,

    H(k) = [[0, h(k)], [conj(h(k)), 0]],      h(k) = v + w*exp(-i*a*k),

so the two bands are E(k) = +-|h(k)| = +-sqrt(v^2 + w^2 + 2 v w cos(a k))
with period 2*pi/a, and the eigenvectors are fixed by the phase
phi(k) = arg h(k) alone:

    u(+-) = (exp(i*phi/2), +-exp(-i*phi/2)) / sqrt(2).

phi winds by -2*pi per Brillouin zone when |w| > |v| and does not wind when
|w| < |v|; the Zak phase is correspondingly pi or 0 (mod 2*pi). The Wilson
loop below computes it from the gauge-invariant product of neighbor
overlaps <u_j|u_{j+1}> = cos((phi_{j+1} - phi_j)/2), which are real and the
same for both bands (J. Zak, Phys. Rev. Lett. 62, 2747 (1989)), so the
product is real and the phase exactly 0 or pi.

Every function here works on v and w divided by their power_of_two (see
model): phi is left as it is, and the bands go back through scale_back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import EPS, BulkParams, band_sign, power_of_two, scale_back, wrap_angle

# |h(k)| below this, on couplings divided by their power_of_two, is a closed
# gap (phases undefined)
GAP_ABS_TOL = 1e-12

# Wilson loop refuses when the sampled gap dips under this times max(|v|,|w|)
WILSON_GAP_RTOL = 1e-8

WILSON_MIN_POINTS = 16

# k samples per chunk of the Zak and Berry sweeps, so that their memory stays
# a few MB for any nk; even, so every chunk starts on an even sample
_K_CHUNK = 1 << 16


@dataclass(frozen=True)
class BandPoint:
    """Band energies at momentum k; e_plus = -e_minus >= 0. Fields may be arrays."""

    k: np.ndarray
    e_minus: np.ndarray
    e_plus: np.ndarray


@dataclass(frozen=True)
class ZakResult:
    """A Zak phase in (-pi, pi], its phase classification, and the k-points used."""

    value: float
    classification: str
    k_points: int


def energy_bands(params: BulkParams, k):
    """Band energies at momentum k (scalar or array).

    Returns a BandPoint with e_plus = -e_minus >= 0. The couplings are
    divided by their power_of_two, so ordinary couplings give the unscaled
    formula's bits; bands beyond the float64 range are a NumericalError.
    """
    k = np.asarray(k, dtype=float)
    s = power_of_two(params.v, params.w)
    v, w = params.v / s, params.w / s
    e = scale_back(s, np.sqrt(v * v + w * w + 2.0 * v * w * np.cos(params.a * k)),
                   f"the bands at v = {params.v!r}, w = {params.w!r}")
    return BandPoint(k=k, e_minus=-e, e_plus=e)


def _snapped(w: float, ak: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y = Im h(k) with the values under sin(ak)'s rounding noise set to +0 (see phase_phi)."""
    noise = 16.0 * EPS * abs(w) * np.maximum(1.0, np.abs(ak))
    return np.where(np.abs(y) <= noise, 0.0, y)


def phase_phi(params: BulkParams, k):
    """Phase phi(k) = arg(v + w e^{-iak}) in (-pi, pi].

    Branch convention at the cut: points with v + w cos(ak) < 0 and
    sin(ak) = 0 report +pi (step function valued 1 at 0). sin(ak) carries
    rounding noise of order eps*|ak| at multiples of pi, which would land
    exactly-on-the-cut momenta on a random side; imaginary parts below that
    noise floor are snapped to +0 before arctan2, which realizes the
    convention in floating point.

    The phase is taken on the couplings divided by their power_of_two s,
    which leaves it as it is, so the gap test is |h| < 1e-12 * s, and a
    gapped h gets its phase at any magnitude.
    """
    k = np.asarray(k, dtype=float)
    s = power_of_two(params.v, params.w)
    v, w = params.v / s, params.w / s
    ak = params.a * k
    x = v + w * np.cos(ak)
    y = _snapped(w, ak, -w * np.sin(ak))
    if np.any(np.hypot(x, y) < GAP_ABS_TOL):
        raise NumericalError(
            f"|v + w e^{{-iak}}| < 1e-12 * {s!r} at v = {params.v!r}, w = {params.w!r}: "
            "phase undefined"
        )
    phi = np.arctan2(y, x)
    return phi if phi.ndim else float(phi)


def zak_analytic(params: BulkParams) -> ZakResult:
    """Quantized Zak phase from the coupling ratio alone.

    0 for |v| > |w|, pi for |v| < |w| (the principal representative in
    (-pi, pi]; which band carries +pi and which -pi is a gauge choice, and
    the two coincide mod 2*pi). Raises NumericalError at |v| = |w|.
    """
    av, aw = abs(params.v), abs(params.w)
    if av == aw:
        raise NumericalError("|v| = |w|: gap closes, Zak phase undefined")
    value = np.pi if av < aw else 0.0
    cls = "topological" if av < aw else "trivial"
    return ZakResult(value=float(value), classification=cls, k_points=0)


def _overlap_product(steps: np.ndarray, prod: float) -> float:
    """prod times the overlaps cos(d/2) of the phase steps d along a loop.

    For u(+-) = (exp(i*phi/2), +-exp(-i*phi/2)) / sqrt(2) the overlap of
    neighbors, <u_j|u_{j+1}>, is cos((phi_{j+1} - phi_j)/2) for both bands.
    The overlaps are multiplied in order onto prod, so a loop cut into
    pieces gives the bits of one product over the whole loop.
    """
    overlaps = np.cos(0.5 * steps)
    if np.any(np.abs(overlaps) < 1e-12):
        raise NumericalError("vanishing overlap between neighboring states")
    return np.multiply.reduce(overlaps, initial=prod)


def zak_wilson(params: BulkParams, band: str = "plus", nk: int = 2048) -> ZakResult:
    """Zak phase from a Wilson loop over one Brillouin zone.

    Uses nk uniformly spaced momenta on [-pi/a, pi/a) (endpoint excluded;
    the loop closes on the first phase). Refuses with NumericalError if
    the sampled gap dips below 1e-8 * max(|v|, |w|). The couplings are
    divided by their power_of_two, as in phase_phi.

    For v*w < 0 the gap is smallest at k = 0, which an odd nk does not
    sample. The loop counts the phase's turn there only if the phase moves
    by less than pi between the two samples around k = 0, that is if
    Re h(k) = v + w cos(pi/nk) there does not have the sign opposite to
    h(0) = v + w; otherwise nk is refused (ValidationError), as is every odd
    nk at v = -w. Where Re h(k) = 0 the overlap vanishes (NumericalError).
    The zone is sampled with a divided by its power_of_two, which leaves
    every a*k as it is and keeps the momenta finite at any a.

    The zone is swept in chunks of _K_CHUNK momenta, so memory does not
    grow with nk; only the first and last phases and the running product
    pass from one chunk to the next. An overlap vanishes only between the
    two samples nearest the closest approach to h = 0, so a gap closure
    there is found in the same chunk or an earlier one, before the overlap:
    the refusal is the one a single pass over the whole zone gives.
    """
    band_sign(band)  # refuses an unknown band; both bands have the same overlaps
    if nk < WILSON_MIN_POINTS:
        raise ValidationError(f"nk must be >= {WILSON_MIN_POINTS}, got {nk}")
    s = power_of_two(params.v, params.w)
    v, w, a = params.v / s, params.w / s, params.a / power_of_two(params.a)
    h0, x_near = v + w, v + w * math.cos(math.pi / nk)
    if nk % 2 and v * w < 0.0 and (h0 == 0.0 or x_near * h0 < 0.0):
        raise ValidationError(
            f"nk = {nk} cannot resolve the phase at v = {params.v!r}, w = {params.w!r}: "
            "it turns by pi or more between the two samples around k = 0; "
            "use an even or a larger nk"
        )
    gap_tol = WILSON_GAP_RTOL * max(abs(v), abs(w))
    prod = 1.0
    for start in range(0, nk, _K_CHUNK):
        k = -np.pi / a + (2.0 * np.pi / a) * np.arange(start, min(start + _K_CHUNK, nk)) / nk
        ak = a * k
        x, y = v + w * np.cos(ak), -w * np.sin(ak)
        if np.hypot(x, y).min() < gap_tol:
            raise NumericalError("band gap closes (to sampling accuracy) inside the zone")
        phi = np.arctan2(_snapped(w, ak, y), x)  # phase_phi's bits
        if not start:
            first = last = phi[0]  # a zero step: an overlap of exactly 1
        prod = _overlap_product(np.diff(phi, prepend=last), prod)
        last = phi[-1]
    prod = _overlap_product(np.array([first - last]), prod)  # the wrap
    gamma = wrap_angle(-np.angle(prod))
    dist_topo = abs(wrap_angle(gamma - np.pi))
    dist_triv = abs(wrap_angle(gamma))
    cls = "topological" if dist_topo < dist_triv else "trivial"
    return ZakResult(value=gamma, classification=cls, k_points=nk)
