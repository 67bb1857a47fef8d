"""Bayesian clock-offset estimation for two-way timing exchange.

Factor-graph max-product estimation of a Gauss-Markov clock offset
observed through exponential network delays, with independent exact-MAP
oracles and a Monte Carlo MSE harness.
"""

from .errors import (
    DegenerateModelError,
    FgclockError,
    GridCoverageError,
    ParameterError,
    ShapeError,
    SizeError,
)
from .estimators import (
    BacktrackResult,
    BackwardConstants,
    OffsetEstimate,
    backtrack_estimate,
    backward_constants,
    closed_form_estimate_paper,
    fge_offset,
    ml_offset,
    shift_kernel,
)
from .model import (
    ClockModelParams,
    LatentPath,
    ObservationSeries,
    chain_log_posterior,
    simulate_observations,
    simulate_paths,
)
from .oracle import (
    MapSolution,
    exact_map_active_set,
    grid_max_marginal,
    hull_map,
)
from .oracle import coordinate_ascent_map  # the benchmark's name for hull_map, not in __all__

__version__ = "0.1.0"

__all__ = [
    "ClockModelParams",
    "LatentPath",
    "ObservationSeries",
    "simulate_paths",
    "simulate_observations",
    "chain_log_posterior",
    "BackwardConstants",
    "BacktrackResult",
    "OffsetEstimate",
    "backward_constants",
    "shift_kernel",
    "backtrack_estimate",
    "closed_form_estimate_paper",
    "fge_offset",
    "ml_offset",
    "MapSolution",
    "exact_map_active_set",
    "hull_map",
    "grid_max_marginal",
    "FgclockError",
    "ParameterError",
    "ShapeError",
    "DegenerateModelError",
    "SizeError",
    "GridCoverageError",
]
