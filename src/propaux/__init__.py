"""Finite-population proportion estimation with auxiliary information.

The package evaluates a family of proportion estimators for simple random
sampling without replacement, their first-order bias/MSE theory with
population-optimal constants, percent-relative-efficiency reporting, a
rounding-sensitivity scan, and two independent verification oracles (exact
subset enumeration and seeded Monte Carlo).

Importing the package loads no numpy: the configurations, errors and theory
(with the population summary and the design) are imported here, and the names
of the modules that need numpy are resolved on first use.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .config import T1Config, T2Config, T3Config, TableConfig, TbConfig, TcConfig
from .errors import DataError, NumericalError, ToolkitError
from .theory import (
    Design,
    PopulationParams,
    SensitivityReport,
    TheoryReport,
    comparison_conditions,
    pre,
    sampling_fraction,
    sensitivity,
    theory_report,
    var_usual,
)

#: The public names of each module that imports numpy.
_LAZY = {
    "estimators": ("FAILURE_CLASSES", "Estimate", "EstimatorConfig", "evaluate",
                   "evaluate_batch", "resolve_config"),
    "montecarlo": ("DEFAULT_CONFIGS", "SimulationReport", "SyntheticSpec",
                   "draw_replicates", "enumerate_exact", "generate_population",
                   "run_experiment"),
    "population": ("PopulationFrame", "SampleStats", "batch_stats",
                   "compute_population_params", "sample_stats"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# the imported names and submodules, and the names resolved on first use
__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | _HOME.keys() | _LAZY.keys())


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | __all__)
