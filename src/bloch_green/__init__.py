"""Numerics for 1D periodic drift-diffusion / Schrodinger operators:
transfer matrices, Floquet band data, half-line reflection coefficients,
Weyl-Titchmarsh functions, Green functions and their low-energy expansions.
"""

__version__ = "0.1.0"

from .green import (GreenSeries, GreenValue, SquareWellParams, green_exact,
                    green_series, square_well_oracle)
from .halfline import (HalflineState, halfline_state, m_functions,
                       reflect_halfline, s_functions)
from .iterint import SignWord, bracket, cell_Q
from .potential import (CellConstants, ParseError, PeriodicPotential,
                        PointEval, PotentialError, QuadratureError,
                        cell_constants, load_potential, load_potential_file,
                        square_potential)
from .transfer import (BandClass, EvolutionMatrix, GeneralizedScattering,
                       Monodromy, ScatteringCoeffs, SeriesDivergenceError,
                       SingularIntervalError, branch_Z, classify_band, evolve,
                       generalize, monodromy, scattering, series_evolution)
from .wop import expansion_coeffs

__all__ = [
    "__version__",
    "PeriodicPotential", "PointEval", "CellConstants", "PotentialError",
    "ParseError", "QuadratureError", "load_potential", "load_potential_file",
    "cell_constants", "square_potential",
    "SignWord", "bracket", "cell_Q",
    "EvolutionMatrix", "ScatteringCoeffs", "GeneralizedScattering", "Monodromy",
    "BandClass", "SingularIntervalError", "SeriesDivergenceError",
    "evolve", "series_evolution", "scattering", "generalize", "monodromy",
    "classify_band", "branch_Z",
    "HalflineState", "halfline_state", "reflect_halfline", "s_functions",
    "m_functions",
    "expansion_coeffs",
    "GreenValue", "GreenSeries", "SquareWellParams",
    "green_exact", "green_series", "square_well_oracle",
]
