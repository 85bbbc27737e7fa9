"""Dimerized chain with a non-local (finite-range) hop.

Bulk two-band model, Zak phase (closed form and Wilson loop), gradient
truncations of the non-local term with their Berry integrals, exact
finite-box spectra via the hidden decomposition into independent dimerized
chains, and analytic zero-energy edge modes on the discretization grid.
"""

from .bulk import (
    BandPoint,
    ZakResult,
    energy_bands,
    phase_phi,
    zak_analytic,
    zak_wilson,
)
from .approx import (
    BerryIntegralResult,
    approx_bands,
    berry_integral,
    comparison_table,
)
from .edge import (
    EdgeLabels,
    ZeroModeAnalytic,
    build_zero_mode,
    localization_fit,
    operator_residual,
    zero_mode_exponents,
)
from .errors import ModelError, NumericalError, ValidationError
from .finite import (
    FiniteOperator,
    SpectrumResult,
    build_finite,
    compare_ssh,
    spectrum,
)
from .model import BulkParams, FiniteParams, Grid, SpinorGrid, make_grid

__version__ = "0.1.0"

__all__ = [
    "BandPoint",
    "BerryIntegralResult",
    "BulkParams",
    "EdgeLabels",
    "FiniteOperator",
    "FiniteParams",
    "Grid",
    "ModelError",
    "NumericalError",
    "SpectrumResult",
    "SpinorGrid",
    "ValidationError",
    "ZakResult",
    "ZeroModeAnalytic",
    "approx_bands",
    "berry_integral",
    "build_finite",
    "build_zero_mode",
    "comparison_table",
    "compare_ssh",
    "energy_bands",
    "localization_fit",
    "make_grid",
    "operator_residual",
    "phase_phi",
    "spectrum",
    "zak_analytic",
    "zak_wilson",
    "zero_mode_exponents",
    "__version__",
]
