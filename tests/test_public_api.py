"""The package's public names: the exported set is pinned, every module's
`__all__` resolves, and the W-grid operator engine (a test-side reference
route, `tests/wop_engine.py`) is not part of the package."""

import importlib
import pkgutil
import sys

import bloch_green

PUBLIC = {
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
    "m_functions", "expansion_coeffs",
    "GreenValue", "GreenSeries", "SquareWellParams",
    "green_exact", "green_series", "square_well_oracle",
}


def _modules():
    return [importlib.import_module(f"bloch_green.{m.name}")
            for m in pkgutil.iter_modules(bloch_green.__path__)]


def test_package_exports_are_pinned():
    assert len(bloch_green.__all__) == len(PUBLIC) == 40
    assert set(bloch_green.__all__) == PUBLIC


def test_every_module_all_resolves():
    for mod in [bloch_green] + _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)


def test_operator_engine_is_not_shipped():
    _modules()
    for name, mod in list(sys.modules.items()):
        if name == "bloch_green" or name.startswith("bloch_green."):
            for attr in ("WopGrid", "op_A_inv"):
                assert not hasattr(mod, attr), (name, attr)
