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
    """``value``, unchanged, if it is a real number in [``low``, ``high``].

    ParameterError refuses bools, strings, None, NaN and ints too large for a float."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"{name} must be a number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ParameterError(f"{name} must fit in a float, got {value!r}") from None
    if not low <= value <= high:
        raise ParameterError(f"{name} must be in [{low:.4g}, {high:.4g}], got {value!r}")
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
    """``U`` as a float array of finite numbers, nonempty, ``U.ndim`` in ``ndims``."""
    U = as_array(U, name)
    if U.ndim not in ndims or U.size == 0:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise ShapeError(f"{name} must be a nonempty {dims} sequence")
    if U.dtype.kind not in "iuf" or not np.isfinite(U).all():
        raise ParameterError(f"{name} must hold finite numbers only")
    return U.astype(float, copy=False)


def check_count(value, name, low=1):
    """``value`` as an int, checked to be a whole number in [``low``, COUNT_MAX]."""
    if int(check_real(value, name, low, COUNT_MAX)) != value:
        raise ParameterError(f"{name} must be a whole number >= {low}, got {value!r}")
    return int(value)


def sigma_squared(sigma, lam):
    """sigma**2 for a chain with delay rate ``lam``, after checking both.

    sigma must be >= 0 with a finite square, and the unit shift
    lam * sigma**2 of the estimators must be finite: where it overflows,
    a zero-distance term would be inf * 0 = NaN.
    """
    check_rate(lam)
    s2 = check_real(sigma, "sigma", 0.0, SIGMA_MAX) ** 2
    # Python floats: an overflowing product is inf, without a numpy warning
    if math.isinf(float(lam) * float(s2)):
        raise ParameterError(f"lam * sigma**2 overflows (lam={lam}, sigma={sigma})")
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
        sigma_squared(self.sigma, max(self.lambda_xi, self.lambda_psi))
        check_real(self.d0, "d0", 0.0, FLOAT_MAX)
        check_real(self.theta0, "theta0", -FLOAT_MAX, FLOAT_MAX)
        object.__setattr__(self, "rounds", check_count(self.rounds, "rounds"))


@dataclass(frozen=True)
class LatentPath:
    """Hidden per-round state: xi_k and psi_k for k = 0..N."""

    xi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if self.xi.shape != self.psi.shape or self.xi.ndim != 1 or len(self.xi) < 2:
            raise ShapeError("xi and psi must be equal-length 1-D arrays of length >= 2")

    @property
    def rounds(self):
        return len(self.xi) - 1

    @property
    def theta(self):
        """Per-index clock offset theta_k = (xi_k - psi_k) / 2, checked finite."""
        with np.errstate(over="ignore"):
            return check_chain((self.xi - self.psi) / 2.0, "simulated theta")

    @property
    def d(self):
        """Per-index propagation delay d_k = (xi_k + psi_k) / 2, checked finite."""
        with np.errstate(over="ignore"):
            return check_chain((self.xi + self.psi) / 2.0, "simulated d")

    @property
    def negative_d_count(self):
        """How many indices drifted to a negative delay (not clamped)."""
        return int(np.count_nonzero(self.d < 0))


@dataclass(frozen=True)
class ObservationSeries:
    """Observed time-stamp differences U_k, V_k for rounds k = 1..N."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.shape != self.V.shape or self.U.ndim != 1 or len(self.U) < 1:
            raise ShapeError("U and V must be equal-length nonempty 1-D arrays")

    @property
    def rounds(self):
        return len(self.U)


def draw_path_noise(seed, out):
    """Fill ``out`` (shape (2, N)) with the standard normals of one latent path.

    Both rows come from one generator seeded with ``seed``: row 0 (the xi
    increments) is drawn before row 1 (the psi increments), so the draw
    order is part of the reproducibility contract.
    """
    np.random.default_rng(seed).standard_normal(out=out)


def draw_delay_uniforms(seed, out):
    """Fill ``out`` (shape (2, N)) with the uniforms of one observation series.

    Both rows come from one generator seeded with ``seed``: row 0 (the
    U-side delays) is drawn before row 1 (the V-side delays).
    """
    np.random.default_rng(seed).random(out=out)


def random_walks(noise, params):
    """xi and psi random walks driven by ``(..., 2, N)`` standard normals.

    Returns ``(..., 2, N + 1)`` values: row 0 starts at xi_0 = d0 + theta0,
    row 1 at psi_0 = d0 - theta0, and each adds the cumulative sum of the
    N(0, sigma^2) increments ``sigma * noise`` along the last axis.
    """
    start = np.array([params.d0 + params.theta0, params.d0 - params.theta0])
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
    N(0, sigma^2) increments drawn by :func:`draw_path_noise`.
    """
    if not isinstance(params, ClockModelParams):
        params = ClockModelParams(**params)
    noise = np.empty((2, params.rounds))
    draw_path_noise(seed, noise)
    xi, psi = random_walks(noise, params)
    return LatentPath(xi=xi, psi=psi)


def simulate_observations(path, params, seed):
    """Sample U_k = xi_k + X_k and V_k = psi_k + Y_k for k = 1..N.

    The exponential delays are the inverse-CDF transform of the uniforms
    drawn by :func:`draw_delay_uniforms` (U-side draws first, then V-side).
    ParameterError refuses a U or V that overflows.
    """
    if path.rounds != params.rounds:
        raise ShapeError(
            f"path has {path.rounds} rounds but params.rounds = {params.rounds}"
        )
    uniforms = np.empty((2, params.rounds))
    draw_delay_uniforms(seed, uniforms)
    with np.errstate(over="ignore"):
        obs = exponential_delays(uniforms, params)
        obs[0] += path.xi[1:]
        obs[1] += path.psi[1:]
    return ObservationSeries(*check_chain(obs, "simulated U and V", ndims=(2,)))


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
    candidate = check_chain(candidate, "candidate")
    obs = check_chain(obs, "obs")
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


def log_posterior(candidate_xi, U, params):
    """Log posterior of the xi chain under ``params`` (see chain_log_posterior).

    The psi chain uses the identical form with V and lambda_psi.
    """
    return chain_log_posterior(candidate_xi, U, params.lambda_xi, params.sigma)
