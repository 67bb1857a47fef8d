"""Monte Carlo MSE harness comparing the offset estimators.

Sweeps either the round count N or the random-walk noise sigma, scoring
each estimator's theta_hat_N against the final latent offset theta_N.
The estimators are the entries of :data:`fgclock.estimators.ESTIMATORS`,
named in tables by their labels (:data:`ALL_ESTIMATORS`), and
:class:`SweepConfig` is where every sweep input is checked.
Every subcommand draws its trials, in its own seed domain, in blocks of
:func:`trial_blocks`: :func:`fgclock.model.draw_trials` holds the seed scheme
and draw order, and each block is simulated as ``(block, 2, N)`` arrays, which a
sweep checks once per chain and estimates in one call per estimator.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import FgclockError, ParameterError
from .estimators import ESTIMATORS
from .model import (
    DOMAIN_SWEEP,
    FLOAT_MAX,
    ClockModelParams,
    check_chain,
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

#: The unchecked estimator of each estimator label, in the table's order.
_ESTIMATES = {variant.label: variant.estimate for variant in ESTIMATORS.values()}
ALL_ESTIMATORS = tuple(_ESTIMATES)

#: Trial-rounds per block: a cell of N rounds is evaluated
#: ``block_trials(N)`` trials at a time, so its memory does not grow with
#: the trial count. A block's draws take 32 B per trial-round, and its
#: walks, delays and errors about 120 B more per trial at any N, so a trial
#: counts as at least 8 rounds: a block holds at most ``BLOCK_ROUNDS // 8``
#: trials. At N = 1, 65 536 trials in one block peaked at 9.4 MB, and eight
#: blocks of 8192 at 3.5 MB.
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
            raise ParameterError(f"axis must be 'rounds' or 'sigma', got {self.axis!r}",
                                 settings=("axis",))
        vals = _as_tuple(self.values)
        if not vals:
            raise ParameterError(
                f"sweep values must be a nonempty list of numbers, got {self.values!r}",
                settings=("values",))
        if self.axis == AXIS_ROUNDS:
            # ints, so that a manifest records rounds 2, not 2.0
            vals = tuple(check_count(v, "rounds values") for v in vals)
        else:
            vals = tuple(check_real(v, "sigma values", 0.0, FLOAT_MAX) for v in vals)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ParameterError("sweep values must be strictly increasing", settings=("values",))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "trials", check_count(self.trials, "trials"))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", low=0))
        tags = _as_tuple(self.estimators)
        if not tags or not all(t in ALL_ESTIMATORS for t in tags):
            raise ParameterError(
                f"estimators must be a nonempty list of {list(ALL_ESTIMATORS)}, "
                f"got {self.estimators!r}", settings=("estimators",))
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
        lines = [",".join(CSV_HEADER)]
        for row in self.rows:
            stderr = "" if math.isnan(row.stderr) else repr(row.stderr)
            lines.append(f"{row.axis_value!r},{row.estimator},{row.mse!r},{stderr},{row.trials}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "axis": self.axis,
            "rows": [
                {
                    "axis": row.axis_value,
                    "estimator": row.estimator,
                    "mse": None if math.isnan(row.mse) else row.mse,
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
    return max(1, BLOCK_ROUNDS // max(rounds, 8))


def trial_blocks(params, seed, trials, axis_index=0, domain=DOMAIN_SWEEP):
    """``(start, walk, obs)`` of each block of the trials 0 .. ``trials - 1``, drawn by
    :func:`draw_trials`: their ``(block, 2, N + 1)`` xi and psi walks and ``(block, 2, N)``
    U and V, in which a value that overflows is inf or NaN, without a warning."""
    block = min(block_trials(params.rounds), trials)
    noise, uniforms = np.empty((2, block, 2, params.rounds))
    for start in range(0, trials, block):
        z, u = noise[: trials - start], uniforms[: trials - start]
        draw_trials(seed, axis_index, start, z, u, domain=domain)
        # computed inside, yielded outside: the error state stays the consumer's
        with np.errstate(over="ignore", invalid="ignore"):
            walk = random_walks(z, params)
            obs = walk[..., 1:] + exponential_delays(u, params)
        yield start, walk, obs


def _run_cell(params, axis_index, trials, master_seed, estimators):
    """Squared errors of every estimator over ``trials`` independent runs. Each block's
    chains are checked once, and each estimator reads both, at their own rates, in one call."""
    rates, s2 = (params.lambda_xi, params.lambda_psi), float(params.sigma) ** 2
    sq = {tag: np.empty(trials) for tag in estimators}
    for start, walk, obs in trial_blocks(params, master_seed, trials, axis_index):
        truth = (walk[:, 0, -1] - walk[:, 1, -1]) / 2.0
        lows = [check_chain(obs[:, c], "observations", ndims=(2,))[1] for c in (0, 1)]
        for tag in estimators:
            xi, psi = _ESTIMATES[tag](obs, lows, rates, s2).T
            err = (xi - psi) / 2.0 - truth
            sq[tag][start:start + len(err)] = err * err
    return sq


def _moments(sq):
    """``np.mean(sq)`` and ``np.std(sq, ddof=1) / sqrt(n)`` (NaN at n = 1), bit for bit, from
    one sum and one sum of squared deviations: the operations they run, in their order."""
    n = len(sq)
    mean = np.add.reduce(sq) / n
    dev = sq - mean
    np.multiply(dev, dev, out=dev)
    stderr = math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
    return float(mean), stderr


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
                mse, stderr = _moments(sq[tag])
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

