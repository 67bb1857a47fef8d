"""Monte Carlo MSE harness comparing the offset estimators.

Sweeps either the round count N or the random-walk noise sigma, scoring
each estimator's theta_hat_N against the final latent offset theta_N.
The estimators are the entries of :data:`fgclock.estimators.ESTIMATORS`,
named in tables by their labels (:data:`ALL_ESTIMATORS`), and
:class:`SweepConfig` is where every sweep input is checked.
A cell's trials are drawn in blocks by :func:`fgclock.model.draw_trials`,
which holds the sweep's seed scheme and draw order, and each block is
transformed and estimated as ``(block, N)`` arrays.
"""

import csv
import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import FgclockError, ParameterError
from .estimators import ESTIMATORS, chain_kernel
from .model import (
    ClockModelParams,
    check_count,
    check_real,
    draw_trials,
    exponential_delays,
    random_walks,
)

AXIS_ROUNDS = "rounds"
AXIS_SIGMA = "sigma"
#: Type of each axis's values in the cell's model; an axis names its field.
_AXIS_TYPES = {AXIS_ROUNDS: int, AXIS_SIGMA: float}

#: Variant tag of each estimator label, in the table's order.
_TAGS = {variant.label: tag for tag, variant in ESTIMATORS.items()}
ALL_ESTIMATORS = tuple(_TAGS)

#: Trial-rounds per block: a cell of N rounds is evaluated
#: ``block_trials(N)`` trials at a time, so its memory does not grow with
#: the trial count.
BLOCK_ROUNDS = 1 << 16

CSV_HEADER = ("axis", "estimator", "mse", "stderr", "trials")


@dataclass(frozen=True)
class SweepConfig:
    """One Monte Carlo sweep: base model, axis, trials and seeding.

    Every sweep input is checked here, so callers pass values as read;
    rounds values, trials and seed are stored as ints.
    """

    params: ClockModelParams
    axis: str
    values: tuple
    trials: int
    seed: int
    estimators: tuple = ALL_ESTIMATORS

    def __post_init__(self):
        if self.axis not in (AXIS_ROUNDS, AXIS_SIGMA):
            raise ParameterError(f"axis must be 'rounds' or 'sigma', got {self.axis!r}")
        vals = _as_tuple(self.values)
        if not vals:
            raise ParameterError(
                f"sweep values must be a nonempty list of numbers, got {self.values!r}"
            )
        if self.axis == AXIS_ROUNDS:
            # ints, so that a manifest records rounds 2, not 2.0
            vals = tuple(check_count(v, "rounds values") for v in vals)
        else:
            vals = tuple(check_real(v, "sigma values", 0.0) for v in vals)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ParameterError("sweep values must be strictly increasing")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "trials", check_count(self.trials, "trials"))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", low=0))
        tags = _as_tuple(self.estimators)
        if not tags or not all(t in ALL_ESTIMATORS for t in tags):
            raise ParameterError(
                f"estimators must be a nonempty list of {list(ALL_ESTIMATORS)}, "
                f"got {self.estimators!r}"
            )
        object.__setattr__(self, "estimators", tags)


def _as_tuple(value):
    """``value`` as a tuple, or () for a string or a non-iterable (None, a number)."""
    try:
        return () if isinstance(value, str) else tuple(value)
    except TypeError:
        return ()


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
            chain_kernel(_TAGS[tag], params.lambda_xi, params.sigma, n),
            chain_kernel(_TAGS[tag], params.lambda_psi, params.sigma, n),
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
        draw_trials(master_seed, axis_index, start, z, u)
        walk = random_walks(z, params)
        obs = walk[..., 1:] + exponential_delays(u, params)
        truth = (walk[:, 0, -1] - walk[:, 1, -1]) / 2.0
        for tag, (xi_kernel, psi_kernel) in kernels.items():
            err = (xi_kernel(obs[:, 0]) - psi_kernel(obs[:, 1])) / 2.0 - truth
            sq[tag][start:stop] = err * err
    return sq


def _cell_rows(axis_value, axis_index, config):
    trials = config.trials
    rows = []
    try:
        value = _AXIS_TYPES[config.axis](axis_value)
        params = dataclasses.replace(config.params, **{config.axis: value})
        # near the float limit errors overflow: the cell fails, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sq = _run_cell(params, axis_index, trials, config.seed, config.estimators)
            for tag in config.estimators:
                mse = float(np.mean(sq[tag]))
                stderr = (float(np.std(sq[tag], ddof=1) / math.sqrt(trials))
                          if trials > 1 else math.nan)
                if not math.isfinite(mse) or math.isinf(stderr):
                    raise ParameterError(f"the squared errors of {tag} overflow")
                rows.append(MseRow(float(axis_value), tag, mse, stderr, trials))
    except FgclockError as exc:
        # Tagged failure rows keep the table rectangular while flagging the cell.
        return [
            MseRow(float(axis_value), f"{tag}:failed[{type(exc).__name__}]",
                   math.nan, math.nan, 0)
            for tag in config.estimators
        ]
    return rows


def _sweep(config, axis):
    """The table of ``config``, one cell per axis value; its axis must be ``axis``."""
    if config.axis != axis:
        raise ParameterError(f"config.axis must be {axis!r}, got {config.axis!r}")
    rows = []
    for i, value in enumerate(config.values):
        rows.extend(_cell_rows(value, i, config))
    return MseTable(axis=axis, rows=tuple(rows))


def mse_vs_rounds(config):
    """MSE of each estimator as the number of rounds N grows."""
    return _sweep(config, AXIS_ROUNDS)


def mse_vs_sigma(config):
    """MSE of each estimator as the random-walk noise sigma grows, N fixed.

    The ML row is recomputed at every sigma (delays and drift are
    resampled), serving as the reference the factor-graph rows approach
    for small sigma.
    """
    return _sweep(config, AXIS_SIGMA)

