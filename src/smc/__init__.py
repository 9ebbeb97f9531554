"""Singular control of space-mean reaction-diffusion dynamics, desk scale.

Subpackages:

* :mod:`smc.grid`      -- uniform grid, nodal fields, discrete L2 geometry
* :mod:`smc.operators` -- generator, adjoint, space mean, coercivity check
* :mod:`smc.forward`   -- Euler-Maruyama state simulation and derivatives
* :mod:`smc.backward`  -- reflected backward equations by penalization
* :mod:`smc.psor`      -- independent projected-SOR obstacle oracle
* :mod:`smc.control`   -- adjoint assembly, rewards, policy, checks
* :mod:`smc.config`    -- strict JSON run configuration
* :mod:`smc.report`    -- run reports and deterministic persistence
* :mod:`smc.suites`    -- named verification suites
* :mod:`smc.cli`       -- command-line entry point
"""

from .backward import (
    BackwardSolution,
    BackwardSpec,
    RateStudy,
    penalization_rate,
    skorokhod_residual,
    solve_penalized,
    solve_reflected,
)
from .control import (
    AdjointSpec,
    DerivativeComparison,
    JEstimate,
    MPReport,
    PolicyResult,
    assemble_adjoint,
    check_necessary,
    directional_derivative_J,
    extract_policy,
    performance_J,
    performance_Js,
)
from .forward import (
    ControlPerturbation,
    EnsembleSummary,
    NoisePath,
    ProblemSpec,
    SingularControl,
    derivative_process,
    simulate_ensemble,
    simulate_path,
)
from .grid import Field, FieldPath, Grid, build_grid, inner_product, norm_h, norm_w
from .operators import (
    CoercivityReport,
    OperatorSpec,
    SpaceMeanOperator,
    apply_a,
    apply_a_star,
    check_garding,
    space_mean,
    space_mean_adjoint,
    space_mean_dual_weight,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
