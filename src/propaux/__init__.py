"""Finite-population proportion estimation with auxiliary information.

The package evaluates a family of proportion estimators for simple random
sampling without replacement, their first-order bias/MSE theory with
population-optimal constants, percent-relative-efficiency reporting, a
rounding-sensitivity scan, and two independent verification oracles (exact
subset enumeration and seeded Monte Carlo).
"""

__version__ = "0.1.0"

from .config import T1Config, T2Config, T3Config, TableConfig, TbConfig, TcConfig
from .errors import DataError, NumericalError, ToolkitError
from .estimators import (
    FAILURE_CLASSES,
    Estimate,
    EstimatorConfig,
    evaluate,
    evaluate_batch,
    resolve_config,
)
from .montecarlo import (
    DEFAULT_CONFIGS,
    SimulationReport,
    SyntheticSpec,
    draw_replicates,
    enumerate_exact,
    generate_population,
    run_experiment,
)
from .population import (
    Design,
    PopulationFrame,
    PopulationParams,
    SampleStats,
    batch_stats,
    central_moment,
    compute_population_params,
    sample_stats,
    sampling_fraction,
)
from .theory import (
    SensitivityReport,
    T3Constants,
    TcConstants,
    TheoryReport,
    class_bias_t2,
    class_bias_tb,
    comparison_conditions,
    min_mse_tb,
    pre,
    sensitivity,
    t1_bias,
    t1_min_mse,
    t1_mse,
    t1_optimal,
    t2_mse,
    t2_optimal,
    t3_bias,
    t3_bias_min,
    t3_constants,
    tb_optimal_h1,
    tc_bias,
    tc_constants,
    theory_report,
    var_usual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
