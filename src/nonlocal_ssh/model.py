"""Parameter sets, their grid, and the shared magnitude rule.

The model lives on two sublattices A and B. In the bulk it is parametrized
by (v, w, a): v is the local A-B coupling, w the non-local coupling acting
over the fixed distance a. In a finite box of length L the couplings take
the constant values (v0, w0) inside [-L/2, L/2] and vanish outside, and the
box is discretized with step dx commensurate with a.

Magnitudes have one rule: a kernel divides its couplings (or its hop, or
its samples) by power_of_two, the power of two at or below the largest
magnitude, which is exact and leaves that magnitude in [1, 2), and its
results go back through scale_back, the one place that refuses a float64
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import sys

import numpy as np

from .errors import NumericalError, ValidationError

EPS = float(np.finfo(float).eps)

# relative tolerance for "this ratio is an integer" checks
COMMENSURATE_RTOL = 1e-9

_BAND_SIGNS = {"plus": 1.0, "minus": -1.0}


def band_sign(band: str) -> float:
    """+1.0 for the upper band, -1.0 for the lower."""
    try:
        return _BAND_SIGNS[band]
    except KeyError:
        raise ValidationError(f"band must be 'plus' or 'minus', got {band!r}") from None


def wrap_angle(x: float) -> float:
    """Reduce an angle to the principal range (-pi, pi]."""
    return np.pi - (np.pi - x) % (2.0 * np.pi)


def power_of_two(*values: float) -> float:
    """The power of two s with s <= max |x| < 2s over the values; 1.0 where all are 0.

    Division by s is exact and puts the largest magnitude in [1, 2), so
    squares and sums of the scaled values cannot overflow and results keep
    their bits; s is a finite float64 for every finite value, subnormals
    included.
    """
    top = max(map(abs, values))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top else 1.0


def norm(*arrays) -> float:
    """Euclidean norm of the arrays together, taken on magnitudes over their power_of_two."""
    mags = [np.abs(x) for x in arrays]
    s = power_of_two(*(m.max(initial=0.0) for m in mags))
    return float(s * np.sqrt(sum(np.sum((m / s) ** 2) for m in mags)))


def log_ratio(v: float, w: float) -> float:
    """ln(|w|/|v|) for nonzero v, w to a few ulps, with no rounded ratio: log1p((w - v)/v)
    for 1/2 <= |w/v| <= 2, where w - v is exact (Sterbenz), else ln|w| - ln|v| over their
    power_of_two (unscaled where that makes the smaller subnormal; the difference is > 708)."""
    v, w = abs(v), abs(w)
    if 0.5 * v <= w <= 2.0 * v:
        return math.log1p((w - v) / v)
    s = power_of_two(v, w)
    if min(v, w) / s >= sys.float_info.min:
        v, w = v / s, w / s
    return math.log(w) - math.log(v)


def scale_back(s: float, values, what: str):
    """s * values, the one way back from scaled units; a NumericalError
    "{what} exceed the float64 range" where the product leaves it."""
    with np.errstate(over="ignore"):
        values = s * values
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} exceed the float64 range")
    return values


def _require_finite(**values: float) -> None:
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val!r}")


@dataclass(frozen=True)
class BulkParams:
    """Couplings v, w and the non-local hop distance a (a > 0).

    Checked on construction: all finite, a > 0, and not v = w = 0.
    """

    v: float
    w: float
    a: float

    def __post_init__(self) -> None:
        _require_finite(v=self.v, w=self.w, a=self.a)
        if self.a <= 0.0:
            raise ValidationError(f"hop distance a must be positive, got {self.a}")
        if self.v == 0.0 and self.w == 0.0:
            raise ValidationError("v = w = 0 gives the zero Hamiltonian")


@dataclass(frozen=True)
class FiniteParams:
    """Box couplings (v0, w0), hop a, box length L, grid step dx.

    Checked on construction: all finite, a, L and dx positive, not
    v0 = w0 = 0, L > a, and a and L integer multiples of dx (the hop
    connects grid points), both to 1e-9 relative.
    """

    v0: float
    w0: float
    a: float
    L: float
    dx: float

    def __post_init__(self) -> None:
        _require_finite(v0=self.v0, w0=self.w0, a=self.a, L=self.L, dx=self.dx)
        for name in ("a", "L", "dx"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.v0 == 0.0 and self.w0 == 0.0:
            raise ValidationError("v0 = w0 = 0 gives the zero Hamiltonian")
        if not self.L > self.a:
            raise ValidationError(
                f"box length L = {self.L} must exceed the hop distance a = {self.a}"
            )
        for name in ("a", "L"):
            length = getattr(self, name)
            steps = round(length / self.dx)
            if steps < 1 or abs(steps * self.dx - length) > COMMENSURATE_RTOL * length:
                raise ValidationError(
                    f"{name} = {length} is not an integer multiple of dx = {self.dx}"
                )

    @property
    def hop_steps(self) -> int:
        """m = a/dx, the hop measured in grid steps."""
        return round(self.a / self.dx)

    @property
    def n_points(self) -> int:
        """P = L/dx + 1 grid points per sublattice."""
        return round(self.L / self.dx) + 1

    def grid_x(self, index=None) -> np.ndarray:
        """x_i = -L/2 + i*dx at the given grid indices, all P of them by default."""
        if index is None:
            index = np.arange(self.n_points)
        return -0.5 * self.L + self.dx * index
