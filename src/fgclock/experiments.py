"""Monte Carlo MSE harness comparing the offset estimators.

Sweeps either the round count N or the random-walk noise sigma, scoring
each estimator's theta_hat_N against the final latent offset theta_N.
Per-trial generator seeds are derived from the master seed by a fixed
counter scheme: the latent path for trial t at axis position i uses
``[master_seed, i, t, 0]`` and the observations ``[master_seed, i, t, 1]``
(fed to numpy's default_rng), so trials are independent and the whole
table is reproducible bit-for-bit. A cell draws its trials one generator
pair at a time but transforms and estimates them in blocks of trials, as
``(block, N)`` arrays.
"""

import csv
import dataclasses
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FgclockError, ParameterError
from .estimators import (
    VARIANT_ML,
    VARIANT_PAPER,
    VARIANT_RECURSIVE,
    chain_kernel,
    fge_offset,
    ml_offset,
)
from .model import (
    ClockModelParams,
    draw_delay_uniforms,
    draw_path_noise,
    exponential_delays,
    random_walks,
)
from .oracle import MAX_ENUM_ROUNDS, exact_map_active_set

AXIS_ROUNDS = "rounds"
AXIS_SIGMA = "sigma"

TAG_FGE_RECURSIVE = "fge-recursive"
TAG_FGE_PAPER = "fge-paper"
TAG_ML = "ml"
ALL_ESTIMATORS = (TAG_FGE_RECURSIVE, TAG_FGE_PAPER, TAG_ML)
_VARIANTS = {
    TAG_FGE_RECURSIVE: VARIANT_RECURSIVE,
    TAG_FGE_PAPER: VARIANT_PAPER,
    TAG_ML: VARIANT_ML,
}

#: Trial-rounds per block: a cell of N rounds is evaluated
#: ``block_trials(N)`` trials at a time, so its memory does not grow with
#: the trial count.
BLOCK_ROUNDS = 1 << 16

CSV_HEADER = ("axis", "estimator", "mse", "stderr", "trials")


@dataclass(frozen=True)
class SweepConfig:
    """One Monte Carlo sweep: base model, axis, trials and seeding."""

    params: ClockModelParams
    axis: str
    values: tuple
    trials: int
    seed: int
    estimators: tuple = ALL_ESTIMATORS

    def __post_init__(self):
        if self.axis not in (AXIS_ROUNDS, AXIS_SIGMA):
            raise ParameterError(f"axis must be 'rounds' or 'sigma', got {self.axis!r}")
        vals = tuple(self.values)
        if len(vals) == 0:
            raise ParameterError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ParameterError("sweep values must be strictly increasing")
        if self.axis == AXIS_ROUNDS and any(int(v) != v or v < 1 for v in vals):
            raise ParameterError("rounds values must be positive integers")
        if self.axis == AXIS_SIGMA and any(v < 0 for v in vals):
            raise ParameterError("sigma values must be >= 0")
        object.__setattr__(self, "values", vals)
        if int(self.trials) != self.trials or self.trials < 1:
            raise ParameterError(f"trials must be a positive integer, got {self.trials}")
        bad = [t for t in self.estimators if t not in ALL_ESTIMATORS]
        if bad or not self.estimators:
            raise ParameterError(f"unknown estimator tags {bad}")
        object.__setattr__(self, "estimators", tuple(self.estimators))


@dataclass(frozen=True)
class MseRow:
    axis_value: float
    estimator: str
    mse: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class MseTable:
    """Rows of (axis value, estimator, MSE, standard error, trials)."""

    axis: str
    rows: tuple

    def to_csv(self):
        """CSV document with header ``axis,estimator,mse,stderr,trials``.

        Floats use shortest round-trip formatting; an undefined standard
        error (trials = 1) is an empty field.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            stderr = "" if math.isnan(row.stderr) else repr(row.stderr)
            writer.writerow(
                [repr(row.axis_value), row.estimator, repr(row.mse), stderr, row.trials]
            )
        return buf.getvalue()

    def to_json_dict(self):
        return {
            "axis": self.axis,
            "rows": [
                {
                    "axis": row.axis_value,
                    "estimator": row.estimator,
                    "mse": row.mse,
                    "stderr": None if math.isnan(row.stderr) else row.stderr,
                    "trials": row.trials,
                }
                for row in self.rows
            ],
        }

    def cell(self, axis_value, estimator):
        """The unique row for one (axis value, estimator) pair."""
        for row in self.rows:
            if row.axis_value == axis_value and row.estimator == estimator:
                return row
        raise KeyError((axis_value, estimator))


def block_trials(rounds):
    """Trials per block in a cell of ``rounds`` rounds."""
    return max(1, BLOCK_ROUNDS // rounds)


def _run_cell(params, axis_index, trials, master_seed, estimators):
    """Squared errors of every estimator over ``trials`` independent runs."""
    n = params.rounds
    kernels = {
        tag: (
            chain_kernel(_VARIANTS[tag], params.lambda_xi, params.sigma, n),
            chain_kernel(_VARIANTS[tag], params.lambda_psi, params.sigma, n),
        )
        for tag in estimators
    }
    sq = {tag: np.empty(trials) for tag in estimators}
    block = min(block_trials(n), trials)
    noise = np.empty((block, 2, n))
    uniforms = np.empty((block, 2, n))
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        z, u = noise[: stop - start], uniforms[: stop - start]
        for b, t in enumerate(range(start, stop)):
            draw_path_noise([master_seed, axis_index, t, 0], z[b])
            draw_delay_uniforms([master_seed, axis_index, t, 1], u[b])
        walk = random_walks(z, params)
        obs = walk[..., 1:] + exponential_delays(u, params)
        truth = (walk[:, 0, -1] - walk[:, 1, -1]) / 2.0
        for tag, (xi_kernel, psi_kernel) in kernels.items():
            err = (xi_kernel(obs[:, 0]) - psi_kernel(obs[:, 1])) / 2.0 - truth
            sq[tag][start:stop] = err * err
    return sq


def _cell_rows(axis_value, params, axis_index, config):
    try:
        sq = _run_cell(params, axis_index, config.trials, config.seed, config.estimators)
    except FgclockError as exc:
        # Tagged failure rows keep the table rectangular while flagging the cell.
        return [
            MseRow(float(axis_value), f"{tag}:failed[{type(exc).__name__}]",
                   math.nan, math.nan, 0)
            for tag in config.estimators
        ]
    rows = []
    for tag in config.estimators:
        errors = sq[tag]
        mse = float(np.mean(errors))
        if config.trials > 1:
            stderr = float(np.std(errors, ddof=1) / math.sqrt(config.trials))
        else:
            stderr = math.nan
        rows.append(MseRow(float(axis_value), tag, mse, stderr, config.trials))
    return rows


def mse_vs_rounds(config):
    """MSE of each estimator as the number of rounds N grows."""
    if config.axis != AXIS_ROUNDS:
        raise ParameterError(f"config.axis must be 'rounds', got {config.axis!r}")
    rows = []
    for i, n in enumerate(config.values):
        params = dataclasses.replace(config.params, rounds=int(n))
        rows.extend(_cell_rows(n, params, i, config))
    return MseTable(axis=AXIS_ROUNDS, rows=tuple(rows))


def mse_vs_sigma(config):
    """MSE of each estimator as the random-walk noise sigma grows, N fixed.

    The ML row is recomputed at every sigma (delays and drift are
    resampled), serving as the reference the factor-graph rows approach
    for small sigma.
    """
    if config.axis != AXIS_SIGMA:
        raise ParameterError(f"config.axis must be 'sigma', got {config.axis!r}")
    rows = []
    for i, s in enumerate(config.values):
        params = dataclasses.replace(config.params, sigma=float(s))
        rows.extend(_cell_rows(s, params, i, config))
    return MseTable(axis=AXIS_SIGMA, rows=tuple(rows))


def compare_estimators(U, V, params):
    """Side-by-side report of all three estimators on one instance.

    Includes the exact-MAP oracle coordinates when N is small enough for
    enumeration and sigma**2 is in the normal range (the oracle's domain),
    plus absolute deviations between every estimator pair.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    thetas = {
        TAG_FGE_RECURSIVE: fge_offset(
            U, V, params.lambda_xi, params.lambda_psi, params.sigma, VARIANT_RECURSIVE
        ),
        TAG_FGE_PAPER: fge_offset(
            U, V, params.lambda_xi, params.lambda_psi, params.sigma, VARIANT_PAPER
        ),
        TAG_ML: ml_offset(U, V),
    }
    report = {
        "theta_hat": {tag: est.theta_hat_N for tag, est in thetas.items()},
        "xi_hat_N": {tag: est.xi_hat_N for tag, est in thetas.items()},
        "psi_hat_N": {tag: est.psi_hat_N for tag, est in thetas.items()},
        "deviations": {
            a: {
                b: abs(thetas[a].theta_hat_N - thetas[b].theta_hat_N)
                for b in thetas
            }
            for a in thetas
        },
        "oracle": None,
    }
    if len(U) <= MAX_ENUM_ROUNDS and params.sigma**2 >= sys.float_info.min:
        xi_sol = exact_map_active_set(U, params.lambda_xi, params.sigma)
        psi_sol = exact_map_active_set(V, params.lambda_psi, params.sigma)
        report["oracle"] = {
            "xi_hat_N": float(xi_sol.path[-1]),
            "psi_hat_N": float(psi_sol.path[-1]),
            "theta_hat_N": float(xi_sol.path[-1] - psi_sol.path[-1]) / 2.0,
        }
    return report
