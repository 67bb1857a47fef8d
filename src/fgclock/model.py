"""Generative model for two-way timing exchange with exponential delays.

A sender/receiver pair runs N two-way message rounds. With propagation
delay d and clock offset theta, the per-round time-stamp differences are

    U_k = xi_k + X_k,   V_k = psi_k + Y_k

where xi = d + theta and psi = d - theta are the combined unknowns and
X_k, Y_k are independent exponential network delays. Oscillator
imperfection makes the offset drift, so xi and psi each follow a
Gaussian random walk with increment standard deviation sigma.
"""

import functools
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
            raise ParameterError(f"{name} must be a number, got {value!r}")
        try:
            as_float = float(value)
        except OverflowError:
            raise ParameterError(f"{name} must fit in a float, got {value!r}") from None
        if isinstance(value, np.floating):
            number = as_float
    if not low <= number <= high:
        raise ParameterError(f"{name} must be in [{low:.4g}, {high:.4g}], got {value!r}")
    if not isinstance(value, (int, float, np.number)):
        raise ParameterError(f"{name} must be an int or a float, got {value!r}")
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
        raise ParameterError(f"{name} must be a whole number >= {low}, got {value!r}")
    return int(value)


def sigma_squared(sigma, lam):
    """sigma**2 for a chain with delay rate ``lam``, after checking both.

    sigma must be >= 0 with a finite square, and the unit shift
    lam * sigma**2 of the estimators must be finite: where it overflows,
    a zero-distance term would be inf * 0 = NaN.
    """
    check_rate(lam)
    # squared as a Python float, which a float32 or int64 sigma cannot overflow
    s2 = float(check_real(sigma, "sigma", 0.0, SIGMA_MAX)) ** 2
    # Python floats: an overflowing product is inf, without a numpy warning
    if math.isinf(float(lam) * s2):
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
        # the larger rate compared as Python floats, so that no rate is cast to float32
        sigma_squared(self.sigma, max(self.lambda_xi, self.lambda_psi, key=float))
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


_MASK32 = 0xFFFF_FFFF
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init, mult, count):
    """``init * mult**k`` mod 2**32 for k = 0..count, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


#: The hash constants of numpy's SeedSequence with its pool of 4 words. Mixing
#: in entropy, hashmix call k xors with _MIX_HASH[k] and multiplies by
#: _MIX_HASH[k + 1]: calls 0-15 for the first 4 words, then 4 for each further
#: word, whose constants are _MIX_STEP times those of the word before.
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 20)
_MIX_STEP = np.uint32(pow(0x931E8875, 4, 1 << 32))
#: The constants of ``generate_state``: its word w, of 8, xors with
#: _STATE_HASH[w] and multiplies by _STATE_HASH[w + 1].
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8).ravel()


def _uint32_words(value):
    """Whole number ``value`` >= 0 as 32-bit words, the lowest first, as SeedSequence reads it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(values, consts):
    """SeedSequence's hashmix of ``values`` with the hash constants ``consts``."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> _SHIFT
    return values


def _mix(x, y):
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> _SHIFT
    return x


def _pool_states(entropy, out):
    """Write ``generate_state(4, np.uint64)`` of the SeedSequence of each column of ``entropy``.

    ``entropy`` is a (words, columns) uint32 array with at least 4 words,
    and ``out`` a little-endian uint32 array that gets 8 words per column,
    in column order: each column's state, read as 4 little-endian 64-bit
    words as numpy reads it. The uint32 arithmetic wraps as numpy's does,
    over the pool's 4 lanes and every column at once.
    """
    pool = _hashmix(entropy[:4], _MIX_HASH[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX_HASH[k:k + 4]))
    consts = _MIX_HASH[16:].copy()
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, consts))
        consts *= _MIX_STEP
    # the state's 8 words hash the pool's 4 twice over, written in place
    words = out.reshape(-1, 2, 4)
    np.bitwise_xor(pool.T[:, None], _STATE_HASH[:-1].reshape(2, 4), out=words)
    words *= _STATE_HASH[1:].reshape(2, 4)
    words ^= words >> _SHIFT


def stream_states(master_seed, axis_index, start, stop):
    """The PCG64 seed states of the sweep streams of trials ``start`` to ``stop``.

    Entry ``[t - start, s]`` of the ``(stop - start, 2, 4)`` uint64 result
    is ``np.random.SeedSequence([master_seed, axis_index, t, s])
    .generate_state(4, np.uint64)``, the state ``default_rng`` seeds PCG64
    with, for s = 0 and 1 and 0 <= t < 2**64. numpy's documented hash is
    computed for all of them in one pass per number of 32-bit words of t.
    """
    prefix = _uint32_words(master_seed) + _uint32_words(axis_index)
    states = np.empty((stop - start, 2, 8), dtype="<u4")
    lo = start
    while lo < stop:
        t_words = len(_uint32_words(lo))
        hi = min(stop, 1 << 32 * t_words)
        t = np.arange(lo, hi, dtype=np.uint64)
        entropy = np.empty((len(prefix) + t_words + 1, hi - lo, 2), dtype=np.uint32)
        entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None, None]
        for j in range(t_words):
            # the low 32 bits, as the uint32 cast keeps them
            entropy[len(prefix) + j] = (t >> np.uint64(32 * j))[:, None]
        entropy[-1] = np.array([0, 1], dtype=np.uint32)
        _pool_states(entropy.reshape(len(entropy), -1), states[lo - start : hi - start])
        lo = hi
    return states.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _state_sequence_type():
    """The class of a seed sequence that hands out given PCG64 seed states in turn.

    PCG64 reads only ``generate_state(4, np.uint64)`` of its seed sequence,
    once, so each generator built on one of these seeds from its next state
    exactly as from the SeedSequence that state stands for. Made on first
    use: numpy loads ``numpy.random`` only when it is used.
    """

    class StateSequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, states):
            self._next_state = iter(states).__next__

        def generate_state(self, n_words, dtype=np.uint32):
            return self._next_state()

    return StateSequence


def draw_trials(master_seed, axis_index, start, noise, uniforms):
    """Fill the ``(trials, 2, N)`` rows of trials ``start``, ``start + 1``, ... of one sweep cell.

    This is the sweep's seed scheme. Trial t at axis position ``axis_index``
    fills ``noise[t - start]`` from the generator that
    ``np.random.default_rng([master_seed, axis_index, t, 0])`` gives, and
    ``uniforms[t - start]`` from ``[master_seed, axis_index, t, 1]``, each
    row 0 before row 1, as :func:`random_walks` and
    :func:`exponential_delays` read them. The generators are seeded from
    the :func:`stream_states` of the trials, in order, on one seed
    sequence: a trial makes its two generators and no other object.
    """
    states = stream_states(master_seed, axis_index, start, start + len(noise))
    sequence = _state_sequence_type()(states.reshape(-1, 4))
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for z, u in zip(noise, uniforms):
        generator(pcg64(sequence)).standard_normal(out=z)
        generator(pcg64(sequence)).random(out=u)


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
    try:
        return ObservationSeries(*obs)
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
