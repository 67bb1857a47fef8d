"""Generative model for two-way timing exchange with exponential delays.

A sender/receiver pair runs N two-way message rounds. With propagation
delay d and clock offset theta, the per-round time-stamp differences are

    U_k = xi_k + X_k,   V_k = psi_k + Y_k

where xi = d + theta and psi = d - theta are the combined unknowns and
X_k, Y_k are independent exponential network delays. Oscillator
imperfection makes the offset drift, so xi and psi each follow a
Gaussian random walk with increment standard deviation sigma.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, ParameterError, ShapeError

FLOAT_MAX = sys.float_info.max
#: Largest sigma whose square is still finite.
SIGMA_MAX = math.sqrt(FLOAT_MAX)
#: Largest count: a float holds every whole number up to it, and an array of
#: that many values is refused by the allocator (MemoryError), not by numpy.
COUNT_MAX = 2**53


def check_real(value, name, low=-math.inf, high=math.inf):
    """``value``, unchanged, if it is a real number in [``low``, ``high``] that numpy computes with.

    ParameterError refuses bools, strings, None, NaN, ints too large for a float,
    and a real type other than an int, a float or a NumPy number, such as a Fraction.
    A NumPy float is compared as a Python float, so that no bound is cast to float32."""
    number = value
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"{name} must be a number, got {value!r}", settings=(name,))
        try:
            as_float = float(value)
        except OverflowError:
            raise ParameterError(f"{name} must fit in a float, got {value!r}",
                                 settings=(name,)) from None
        if isinstance(value, np.floating):
            number = as_float
    if not low <= number <= high:
        raise ParameterError(f"{name} must be in [{low:.4g}, {high:.4g}], got {value!r}",
                             settings=(name,))
    if not isinstance(value, (int, float, np.number)):
        raise ParameterError(f"{name} must be an int or a float, got {value!r}",
                             settings=(name,))
    return value


def check_rate(lam, name="lam"):
    """Raise ParameterError unless ``lam`` is a finite delay rate > 0."""
    check_real(lam, name, math.ulp(0.0), FLOAT_MAX)


def as_array(U, name):
    """``np.asarray(U)``, refusing a ragged nested sequence with ShapeError."""
    try:
        return np.asarray(U)
    except ValueError:
        raise ShapeError(f"{name} must be a rectangular sequence, not a ragged one") from None


def check_chain(U, name="U", ndims=(1,)):
    """``U`` as a float array of finite numbers, nonempty, ``U.ndim`` in ``ndims``, and its min.

    Ints and floats of any width are checked as float64 values, by their min and max, which NaN
    wins: a longdouble beyond the float range casts to inf, without a warning, and is refused."""
    U = as_array(U, name)
    if U.ndim not in ndims or U.size == 0:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise ShapeError(f"{name} must be a nonempty {dims} sequence")
    if U.dtype.kind in "iuf":
        if U.dtype != float:
            with np.errstate(over="ignore"):
                U = U.astype(float)
        low = np.minimum.reduce(U, axis=None)
        if -FLOAT_MAX <= low and np.maximum.reduce(U, axis=None) <= FLOAT_MAX:
            return U, low
    raise ParameterError(f"{name} must hold finite numbers only")


def check_count(value, name, low=1):
    """``value`` as an int, checked to be a whole number in [``low``, COUNT_MAX]."""
    if int(check_real(value, name, low, COUNT_MAX)) != value:
        raise ParameterError(f"{name} must be a whole number >= {low}, got {value!r}",
                             settings=(name,))
    return int(value)


def sigma_squared(sigma, lam, rates=("lam",)):
    """sigma**2 for a chain with delay rate ``lam``, after checking both.

    sigma must be >= 0 with a finite square, and the unit shift
    lam * sigma**2 of the estimators must be finite: where it overflows,
    a zero-distance term would be inf * 0 = NaN; ``rates`` names the settings of ``lam``.
    """
    check_rate(lam)
    # squared as a Python float, which a float32 or int64 sigma cannot overflow
    s2 = float(check_real(sigma, "sigma", 0.0, SIGMA_MAX)) ** 2
    # Python floats: an overflowing product is inf, without a numpy warning
    if math.isinf(float(lam) * s2):
        raise ParameterError(f"lam * sigma**2 overflows (lam={lam}, sigma={sigma})",
                             settings=("sigma", *rates))
    return s2


def density_sigma_squared(sigma, lam):
    """:func:`sigma_squared`, also requiring sigma**2 in the normal range.

    The Gauss-Markov density divides by sigma**2, so it is degenerate when
    sigma**2 is 0 or so small (subnormal) that 1 / sigma**2 overflows.
    """
    s2 = sigma_squared(sigma, lam)
    if s2 < sys.float_info.min:
        raise DegenerateModelError(
            f"the Gauss-Markov density is degenerate when sigma**2 is 0 or below "
            f"the normal range, got sigma={sigma}"
        )
    return s2


@dataclass(frozen=True)
class ClockModelParams:
    """Generative parameters for one two-way exchange session.

    Attributes
    ----------
    lambda_xi : float
        Exponential rate of the forward-link delay (1/time).
    lambda_psi : float
        Exponential rate of the reverse-link delay (1/time).
    sigma : float
        Standard deviation of the random-walk increments (time).
    d0 : float
        Initial propagation delay (time), symmetric in both directions.
    theta0 : float
        Initial clock offset of the receiver relative to the sender.
    rounds : int
        Number of two-way message rounds N.
    """

    lambda_xi: float
    lambda_psi: float
    sigma: float
    d0: float
    theta0: float
    rounds: int

    def __post_init__(self):
        check_rate(self.lambda_xi, "lambda_xi")
        check_rate(self.lambda_psi, "lambda_psi")
        # the larger rate compared as Python floats, so that no rate is cast to float32
        sigma_squared(self.sigma, max(self.lambda_xi, self.lambda_psi, key=float),
                      ("lambda_xi", "lambda_psi"))
        check_real(self.d0, "d0", 0.0, FLOAT_MAX)
        check_real(self.theta0, "theta0", -FLOAT_MAX, FLOAT_MAX)
        object.__setattr__(self, "rounds", check_count(self.rounds, "rounds"))


@dataclass(frozen=True)
class LatentPath:
    """Hidden per-round state: xi_k and psi_k for k = 0..N, as float64 arrays.

    An overflowed walk holds inf, which ``theta``, ``d`` and the observations refuse."""

    xi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if not all(isinstance(a, np.ndarray) and a.dtype == float for a in (self.xi, self.psi)):
            raise ParameterError("xi and psi must be float64 arrays")
        if self.xi.shape != self.psi.shape or self.xi.ndim != 1 or len(self.xi) < 2:
            raise ShapeError("xi and psi must be equal-length 1-D arrays of length >= 2")

    @property
    def rounds(self):
        return len(self.xi) - 1

    @property
    def theta(self):
        """Per-index clock offset theta_k = (xi_k - psi_k) / 2, checked finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            return check_chain((self.xi - self.psi) / 2.0, "simulated theta")[0]

    @property
    def d(self):
        """Per-index propagation delay d_k = (xi_k + psi_k) / 2, checked finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            return check_chain((self.xi + self.psi) / 2.0, "simulated d")[0]

    @property
    def negative_d_count(self):
        """How many indices drifted to a negative delay (not clamped)."""
        return int(np.count_nonzero(self.d < 0))


@dataclass(frozen=True)
class ObservationSeries:
    """Observed time-stamp differences U_k, V_k for rounds k = 1..N, as finite float64 arrays."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if not all(isinstance(a, np.ndarray) and a.dtype == float for a in (self.U, self.V)):
            raise ParameterError("U and V must be float64 arrays")
        if check_chain(self.U, "U")[0].shape != check_chain(self.V, "V")[0].shape:
            raise ShapeError("U and V must be equal-length nonempty 1-D arrays")


def _generator(seed):
    """numpy's default generator seeded with ``seed``; ParameterError refuses a bad seed."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ParameterError(
            f"seed must be a whole number >= 0 or a sequence of them, got {seed!r}"
        ) from None


#: The seed scheme that manifests record. Each stream is numpy's Philox4x64
#: generator (Salmon et al., SC 2011) keyed by ``[seed, domain]``, and each
#: subcommand draws in a domain of its own.
SEED_SCHEME = 2
DOMAIN_SWEEP, DOMAIN_SIMULATE, DOMAIN_COMPARE_ORACLE = 0, 1, 2


def draw_trials(master_seed, axis_index, start, noise, uniforms, domain=DOMAIN_SWEEP):
    """Fill the ``(trials, 2, N)`` rows of trials ``start``, ``start + 1``, ... in ``domain``.

    Trial t at axis position ``axis_index`` fills ``noise[t - start]``, then
    ``uniforms[t - start]``, row 0 before row 1, from the one stream
    ``np.random.Philox(key=[master_seed, domain], counter=[0, 0, axis_index, t])``.
    Streams sit at least 2**128 Philox blocks apart, so a trial draws the
    same numbers in any block. One generator seeks from trial to trial: each
    trial writes t into the counter of one state of Python ints, built per
    call, and sets it, which costs less than a Philox constructor (that also
    reads OS entropy a key leaves unused) or a state read back as numpy arrays.
    """
    bits = np.random.Philox(key=[master_seed, domain])
    generator = np.random.Generator(bits)
    normal, uniform = generator.standard_normal, generator.random
    counter = [0, 0, axis_index, start]
    # as constructed: the buffer is spent, so the first draw advances the counter
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": [master_seed, domain]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for t, (z, u) in enumerate(zip(noise, uniforms), start):
        counter[3] = t
        bits.state = state
        normal(out=z)
        uniform(out=u)


def random_walks(noise, params):
    """xi and psi random walks driven by ``(..., 2, N)`` standard normals.

    Returns ``(..., 2, N + 1)`` values: row 0 starts at xi_0 = d0 + theta0,
    row 1 at psi_0 = d0 - theta0, and each adds the cumulative sum of the
    N(0, sigma^2) increments ``sigma * noise`` along the last axis.
    """
    # summed as Python floats: not in float32, in int64 or as an object array
    d0, theta0 = float(params.d0), float(params.theta0)
    start = np.array([d0 + theta0, d0 - theta0])
    walk = np.empty(noise.shape[:-1] + (noise.shape[-1] + 1,))
    walk[..., 0] = start
    steps = walk[..., 1:]
    np.multiply(noise, params.sigma, out=steps)
    np.cumsum(steps, axis=-1, out=steps)
    steps += start[:, None]
    return walk


def exponential_delays(uniforms, params):
    """Network delays from ``(..., 2, N)`` uniforms on [0, 1).

    Inverse-CDF transform: row 0 becomes Exp(lambda_xi) delays (the U side)
    and row 1 Exp(lambda_psi) delays (the V side). A rate near 0 gives inf
    delays: callers silence the overflow warning, and refuse or fail on inf.
    """
    delays = np.log1p(-uniforms)
    np.negative(delays, out=delays)
    delays /= np.array([[params.lambda_xi], [params.lambda_psi]])
    return delays


def simulate_paths(params, seed):
    """Sample the latent random-walk paths xi_0..xi_N and psi_0..psi_N.

    Starts at xi_0 = d0 + theta0, psi_0 = d0 - theta0 and adds i.i.d.
    N(0, sigma^2) increments, drawn from ``np.random.default_rng(seed)``.
    """
    if not isinstance(params, ClockModelParams):
        raise ParameterError(f"params must be a ClockModelParams, got {params!r}")
    noise = np.empty((2, params.rounds))
    _generator(seed).standard_normal(out=noise)
    xi, psi = random_walks(noise, params)
    return LatentPath(xi=xi, psi=psi)


def simulate_observations(path, params, seed):
    """Sample U_k = xi_k + X_k and V_k = psi_k + Y_k for k = 1..N.

    The exponential delays are the :func:`exponential_delays` of uniforms
    drawn from ``np.random.default_rng(seed)``. ParameterError refuses a U
    or V that overflows.
    """
    if not (isinstance(path, LatentPath) and isinstance(params, ClockModelParams)):
        raise ParameterError("path must be a LatentPath and params a ClockModelParams")
    if path.rounds != params.rounds:
        raise ShapeError(
            f"path has {path.rounds} rounds but params.rounds = {params.rounds}"
        )
    uniforms = np.empty((2, params.rounds))
    _generator(seed).random(out=uniforms)
    with np.errstate(over="ignore"):
        obs = exponential_delays(uniforms, params)
        obs[0] += path.xi[1:]
        obs[1] += path.psi[1:]
    return simulated_series(*obs)


def simulated_series(U, V):
    """The ObservationSeries of simulated float64 U and V; ParameterError refuses an overflow."""
    try:
        return ObservationSeries(U, V)
    except ParameterError:  # a value overflowed: the series checks that each is finite
        raise ParameterError("simulated U and V must hold finite numbers only") from None


def chain_log_posterior(candidate, obs, lam, sigma):
    """Log posterior of one chain (xi given U, or psi given V), up to a constant.

    ``candidate`` holds the N+1 values xi_0..xi_N; ``obs`` the N
    observations. The value is

        sum_k [ -(xi_k - xi_{k-1})^2 / (2 sigma^2) + lam * xi_k ]

    and -inf whenever any xi_k > U_k (a delay would have to be negative).
    The flat prior on xi_0 contributes nothing. ParameterError refuses a
    value that overflows.
    """
    s2 = density_sigma_squared(sigma, lam)
    candidate, _ = check_chain(candidate, "candidate")
    obs, _ = check_chain(obs, "obs")
    if len(candidate) != len(obs) + 1:
        raise ShapeError(
            f"candidate must have len(obs)+1 entries, got {len(candidate)} vs {len(obs)}"
        )
    if np.any(candidate[1:] > obs):
        return -np.inf
    return _chain_log_posterior(candidate, lam, s2)


def _chain_log_posterior(candidate, lam, s2):
    """:func:`chain_log_posterior` of a float ``candidate`` within its bounds, s2 = sigma**2."""
    # finite values near the float limit can overflow it: refused, not ranked
    with np.errstate(over="ignore", invalid="ignore"):
        incr = candidate[1:] - candidate[:-1]
        value = float(-np.dot(incr, incr) / (2.0 * s2) + lam * candidate[1:].sum())
    if not -FLOAT_MAX <= value <= FLOAT_MAX:
        check_chain(candidate, "candidate")  # a non-finite candidate is refused as such
    return check_real(value, "the chain log posterior", -FLOAT_MAX, FLOAT_MAX)
