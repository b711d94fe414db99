"""Generalized probabilistically thinned Matern-type point processes.

Simulation, exact first- and second-order characteristics, nonparametric
summary statistics, and minimum-contrast fitting with Monte-Carlo
goodness-of-fit tests.
"""

from .core import Window, PointPattern, SummaryTable, ball_volume
from .distributions import MarkDistribution, WeightDistribution
from .interactions import (InteractionFunction, RadialSlice, make_interaction,
                           registry_ids)
from .models import ModelSpec

__version__ = "0.1.0"

from . import analytic, estimate, infer, io, simulate  # noqa: E402
from .estimate import EstimatorConfig  # noqa: E402
from .infer import (DeviationTestSpec, FitProblem, FreeParameter,  # noqa: E402
                    deviation_test, fit_min_contrast,
                    solve_lambda_constraint)
from .simulate import SimConfig, simulate_model  # noqa: E402

__all__ = [
    "Window", "PointPattern", "SummaryTable", "ball_volume",
    "MarkDistribution", "WeightDistribution",
    "InteractionFunction", "RadialSlice", "make_interaction", "registry_ids",
    "ModelSpec",
    "analytic", "estimate", "infer", "io", "simulate",
    "EstimatorConfig", "SimConfig", "simulate_model",
    "DeviationTestSpec", "FitProblem", "FreeParameter",
    "deviation_test", "fit_min_contrast", "solve_lambda_constraint",
    "__version__",
]
