"""Max-product estimators for the final combined unknowns xi_N, psi_N.

The posterior over one chain factorizes along a cycle-free chain graph,
so max-product message passing is exact. The backward sweep keeps each
message in canonical quadratic-exponent form with coefficients
(A_k, B_k, C_k, D_k); the induced map on candidate estimates is the
affine shift kernel g_k(x) = x + D_k * sigma^2, which distributes over
min because it is monotone increasing. Backtracking forward with
per-level clipping at U_k yields the chain estimate, and the offset
estimate is theta_hat = (xi_hat_N - psi_hat_N) / 2.

The table :data:`ESTIMATORS` holds every estimator of xi_hat_N, keyed by
variant tag. :func:`chain_kernel` is the one checked way to get one: the
offset estimators, the experiments and the CLI all go through it, and
``Variant.build`` is its unchecked internal. The variants are:

* ``recursive`` — forward backtracking with the D-constants produced by
  the backward recursion (D_{N-i} = (i+1) * lam), i.e. cumulative shifts
  that grow triangularly with distance from the last round. In floating
  point the recursion reduces to a running sum of lam (see
  :func:`_chain_shifts`), so the estimators compute the shifts as a
  cumulative sum; :func:`backward_constants` evaluates the literal A/B/C/D
  recursion and is kept as the check of that lemma, not run by them;
* ``paper`` — the simplified closed form
  min(U_N, U_{N-1} + lam sigma^2, ..., U_1 + (N-1) lam sigma^2)
  whose shifts grow linearly;
* ``ml`` — the running minimum of U, which both factor-graph variants
  collapse to at sigma = 0.

The two factor-graph variants differ for sigma > 0; the exact-MAP oracles
in :mod:`fgclock.oracle` arbitrate between them.

In a long series only the last rounds can bind xi_hat_N of either
factor-graph variant, because each round's shift grows with its distance
from round N. A 1-D series therefore reads a window of its last rounds,
sized from its own data (its min, max or last value and the unit shift
lam sigma^2, see :func:`_window`), and computes shifts only there; the
result is bit for bit that of the whole chain. Beyond the check of its
finite values, the whole chain is read by one or two reductions.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .model import as_array, check_chain, check_count, density_sigma_squared, sigma_squared


@dataclass(frozen=True)
class BackwardConstants:
    """Canonical-form coefficients of the backward max-product messages.

    Arrays are indexed by level: entry ``k - 1`` holds the level-k
    coefficient, k = 1..N. These coefficients fully determine the
    backward messages, so they double as the message representation.
    """

    lam: float
    sigma: float
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def n_levels(self):
        return len(self.D)

    def shift(self, k):
        """Additive shift of the level-k kernel, D_k * sigma^2."""
        self._check_level(k)
        return self.D[k - 1] * self.sigma**2

    def _check_level(self, k):
        if not 1 <= k <= self.n_levels:
            raise ParameterError(f"level {k} outside 1..{self.n_levels}")


@dataclass(frozen=True)
class BacktrackResult:
    """Forward-backtracked chain estimates for levels 1..N.

    ``xi_hat[k-1] = min(xi_bar[k-1], U_k)`` with ``xi_bar`` the
    unconstrained per-level maximizers; the root estimate is +inf.
    """

    xi_hat: np.ndarray
    xi_bar: np.ndarray
    xi0_hat: float = math.inf


@dataclass(frozen=True)
class OffsetEstimate:
    """Final-round estimates of xi_N, psi_N and the offset theta_N."""

    xi_hat_N: float
    psi_hat_N: float
    theta_hat_N: float
    variant: str


def backward_constants(lam, sigma, n):
    """Run the backward coefficient recursion from level N down to 1.

    Initializes A = B = -1/(2 sigma^2), C = 1/sigma^2, D = lam at level N
    and recurses downward. In exact arithmetic A stays level-invariant
    (the B - C^2/(4A) correction vanishes) and D_{N-i} = (i+1) * lam; the
    recursion is evaluated literally so tests can verify those closed
    forms rather than assume them. The estimators do not call it: their
    shifts come from the cumulative sum of :func:`_chain_shifts`, which
    equals ``D * sigma**2`` bit for bit and is tested against it.

    sigma**2 must lie in the normal floating-point range: at sigma = 0, or
    when sigma**2 underflows, 1/sigma^2 overflows and the constants diverge
    (DegenerateModelError). 2 sigma**2 must be finite, or 1/(2 sigma^2) is
    0 and C/(2A) is 0/0 (ParameterError).
    """
    n = check_count(n, "n")
    s2 = density_sigma_squared(sigma, lam)
    if math.isinf(2.0 * float(s2)):
        raise ParameterError(
            f"the backward recursion needs a finite 2 * sigma**2, got sigma={sigma}"
        )
    inv2s2 = 1.0 / (2.0 * s2)
    A = np.empty(n)
    B = np.full(n, -inv2s2)
    C = np.full(n, 2.0 * inv2s2)
    D = np.empty(n)
    A[n - 1] = -inv2s2
    D[n - 1] = lam
    for k in range(n - 1, 0, -1):
        # factor C^2/(4A) = (C/2) * (C/(2A)) so the C/(2A) = -1 cancellation
        # stays exact in floating point and errors do not compound down the chain
        ratio = C[k] / (2.0 * A[k])
        A[k - 1] = -inv2s2 + B[k] - (C[k] / 2.0) * ratio
        D[k - 1] = lam - ratio * D[k]
    return BackwardConstants(lam=lam, sigma=sigma, A=A, B=B, C=C, D=D)


def shift_kernel(constants, k, x):
    """Apply the level-k kernel g_k(x) = -(C_k x + D_k) / (2 A_k).

    Evaluated in the equivalent additive form x + D_k * sigma^2, which
    keeps the min/shift algebra exact in floating point and maps +inf to
    +inf. g_k is monotone increasing, hence distributes over min.
    """
    return x + constants.shift(k)


def compose_shift(constants, k, m, x):
    """Left-composition g_m(g_{m-1}(... g_k(x))) for levels k <= m.

    Equals x + sigma^2 * sum_{j=k..m} D_j.
    """
    constants._check_level(k)
    constants._check_level(m)
    if k > m:
        raise ParameterError(f"compose_shift needs k <= m, got k={k}, m={m}")
    return x + constants.sigma**2 * float(constants.D[k - 1 : m].sum())


def _chain_shifts(lam, sigma, n):
    """Per-level additive shifts D_k * sigma^2 for k = 1..N, contiguous.

    Wherever :func:`backward_constants` is defined, its ratio C_k/(2 A_k)
    is exactly -1 and A_k stays exactly -1/(2 sigma^2) in floating point,
    so each D_{k-1} is the rounded sum lam + D_k: D is the cumulative sum
    of lam taken from level N down, and the shifts equal the recursion's
    ``D * sigma**2`` bit for bit. The sum is accumulated in place, in a
    reversed view of the result.

    Zeros, the sigma = 0 limit, when sigma**2 is 0 or below the normal
    range, where the backward recursion would divide by it.
    """
    s2 = sigma_squared(sigma, lam)
    if s2 < sys.float_info.min:
        return np.zeros(n)
    shifts = np.empty(n)
    from_last = shifts[::-1]
    from_last.fill(lam)
    # a shift that overflows rounds to +inf, as in the literal recursion;
    # min then keeps the observation at that level
    with np.errstate(over="ignore"):
        np.add.accumulate(from_last, out=from_last)
        shifts *= s2
    return shifts


def backtrack_estimate(U, lam, sigma):
    """Forward backtracking sweep producing xi_hat_1..xi_hat_N.

    Starting from the root estimate xi_hat_0 = +inf, each level takes
    xi_bar_k = g_k(xi_hat_{k-1}) and clips it at the observation:
    xi_hat_k = min(xi_bar_k, U_k). At sigma = 0 this reduces to the
    running minimum of U.
    """
    U = check_chain(U)
    n = len(U)
    shifts = _chain_shifts(lam, sigma, n)
    xi_bar = np.empty(n)
    xi_hat = np.empty(n)
    bars, hats = memoryview(xi_bar), memoryview(xi_hat)
    prev = math.inf
    # Python floats through memoryviews: no numpy scalar per round
    for k, (shift, u) in enumerate(zip(memoryview(shifts), memoryview(U))):
        bar = prev + shift
        # min(bar, u): a tie keeps bar, which decides the sign of 0.0 vs -0.0
        prev = u if u < bar else bar
        bars[k] = bar
        hats[k] = prev
    return BacktrackResult(xi_hat=xi_hat, xi_bar=xi_bar)


def _suffixes(shifts_of):
    """``last(m)``: the shifts of the last m rounds, from one array grown on demand.

    Exact because the shifts of both variants depend on the distance from
    the last round alone, so ``shifts_of(m)`` is the last m entries of
    ``shifts_of(n)`` bit for bit: the running sum of :func:`_chain_shifts`
    starts at the last level, and the paper's shift of distance d is
    unit * d.
    """
    held = np.empty(0)

    def last(m):
        nonlocal held
        # one read of held, so a call that another thread's growth overtakes
        # still slices the array it measured
        shifts = held
        if m > len(shifts):
            shifts = held = shifts_of(m)
        return shifts[len(shifts) - m:]

    return last


def _window(n, low, high, unit, last):
    """The shifts of the last rounds of an n-round series that can bind it.

    Returns ``last(m)`` for a window of m rounds whose first round has a
    shift s with fl(low + s) > high, checked with the exact rounded shift;
    the two estimators say why such a round, and every earlier one, cannot
    change the result. Shifts grow by about ``unit`` per round of distance,
    so m is about (high - low) / unit; the ulp of high is added because
    fl(low + s) rounds down to high until s exceeds high - low by about an
    ulp. The whole chain when the quotient overflows, when unit is 0 or
    subnormal, when the window would reach N, or when the first round
    fails its check.
    """
    if unit >= sys.float_info.min:
        span = (high - low + math.ulp(high)) / unit
        if span < n - 2:
            # the first round's shift is about m (recursive) or m - 1 (paper)
            # unit shifts, and m - 1 > span
            shifts = last(int(span) + 2)
            if low + float(shifts[0]) > high:
                return shifts
    return last(n)


def _recursive_estimator(lam, sigma, n):
    """xi_hat_N of :func:`backtrack_estimate`, without keeping the levels.

    A 1-D series runs the pass only from its last certain reset, a round
    where prev_k = U_k whatever came before. The shifts s_k are >= 0 and
    rounded addition is monotone, so from a certain reset i on, prev_{k-1}
    is at least m_{k-1} = min(U_i..U_{k-1}) and bar_k = fl(prev_{k-1} + s_k)
    is at least fl(m_{k-1} + s_k); wherever U_k < fl(m_{k-1} + s_k), round
    k resets for certain. The test is strict, so a 0.0/-0.0 tie still
    keeps bar.

    Two steps find the last such round. First the window: with
    M = min(U) and X = max(U), every round k with fl(M + s_k) > X resets
    for certain, since prev_{k-1} >= M, s_k >= 0, rounding is monotone and
    U_k <= X. The shifts shrink toward round N, so these rounds form a
    prefix of the chain, and the window starts at one of them (see
    :func:`_window`); it spans about (X - M) / (lam sigma^2) rounds. Then,
    inside the window, one vector pass over the running minimum from its
    first round finds the last certain reset j, and the pass runs on Python
    floats through memoryviews from there (from +inf, which U_j replaces),
    bit for bit the full pass.

    A ``(trials, n)`` block runs the full pass across all rows at once, one
    column per round, where the per-row loop would cost a Python loop per
    trial.
    """
    unit = float(lam) * float(sigma_squared(sigma, lam))
    last = _suffixes(lambda m: _chain_shifts(lam, sigma, m))

    def estimate(U):
        # a shifted value that overflows is +inf and loses the min to U_k
        with np.errstate(over="ignore"):
            if U.ndim == 1:
                low, high = float(np.minimum.reduce(U)), float(np.maximum.reduce(U))
                shifts = _window(n, low, high, unit, last)
                U = U[n - len(shifts):]
                # bound_k = fl(min(U_first..U_{k-1}) + s_k), +inf at the first round
                bound = np.empty(len(U))
                bound[0] = math.inf
                np.minimum.accumulate(U[:-1], out=bound[1:])
                bound += shifts
                # the last certain reset, found from the end without an index array
                j = len(U) - 1 - (U < bound)[::-1].argmax()
                prev = math.inf
                for shift, u in zip(memoryview(shifts[j:]), memoryview(U[j:])):
                    bar = prev + shift
                    prev = u if u < bar else bar
                return prev
            shifts = last(n)
            prev = U[:, 0].copy()
            smaller = np.empty(len(prev), dtype=bool)
            for k in range(1, n):
                np.add(prev, shifts[k], out=prev)
                # u replaces bar only where strictly smaller, as in min(bar, u):
                # a 0.0/-0.0 tie keeps bar
                np.less(U[:, k], prev, out=smaller)
                np.copyto(prev, U[:, k], where=smaller)
            return prev

    return estimate


def _paper_estimator(lam, sigma, n):
    """min over k of U_k + (N - k) * lam * sigma^2, along the last axis.

    A 1-D series takes the min over a window of its last rounds. With
    M = min(U), a round k with fl(M + s_k) > U_N has a candidate
    fl(U_k + s_k) >= fl(M + s_k), since rounding is monotone, so it lies
    strictly above U_N + 0.0, the candidate of round N, and cannot be the
    min. The shifts shrink toward round N, so these rounds form a prefix of
    the chain, and the window starts at one of them (see :func:`_window`);
    it spans about (U_N - M) / (lam sigma^2) rounds. The shifts are never
    -0.0, so every zero candidate is +0.0, and the min over the window
    equals the min over all rounds bit for bit.
    """
    unit = lam * sigma_squared(sigma, lam)
    # run under the estimate's errstate: unit is finite, so an overflowing
    # shift is +inf, never inf * 0
    last = _suffixes(lambda m: unit * np.arange(m - 1, -1, -1, dtype=float))
    span_unit = float(unit)

    def estimate(U):
        # an overflowing shift or candidate is +inf and loses the min
        with np.errstate(over="ignore"):
            if U.ndim == 1:
                low = float(np.minimum.reduce(U))
                shifts = _window(n, low, float(U[-1]), span_unit, last)
            else:
                shifts = last(n)
            return np.minimum.reduce(U[..., n - len(shifts):] + shifts, axis=-1)

    return estimate


def _ml_estimator(lam, sigma, n):
    """The minimum of U along the last axis; lam and sigma play no part."""
    return lambda U: U.min(axis=-1)


Variant = namedtuple("Variant", "build label oracle_key")

#: The estimator table, keyed by variant tag, in report order: every variant
#: dispatch is a lookup here. ``build(lam, sigma, n)`` checks lam and sigma
#: and returns the unchecked estimator of xi_hat_N for one chain of n rounds,
#: which computes shifts when a call first needs them, keeps them, and lets
#: no overflow warn; only :func:`chain_kernel` calls it. ``label``
#: names the variant's rows in sweep tables and comparison reports;
#: ``oracle_key`` names its deviation from the exact MAP in the
#: compare-oracle report (None for ML, not a factor-graph estimate).
ESTIMATORS = {
    "recursive": Variant(_recursive_estimator, "fge-recursive", "max_abs_dev_backtrack"),
    "paper": Variant(_paper_estimator, "fge-paper", "max_abs_dev_paper_closed_form"),
    "ml": Variant(_ml_estimator, "ml", None),
}


def chain_kernel(variant, lam, sigma, n):
    """The checked estimator of ``variant`` for one chain of ``n`` rounds.

    Returns a function that checks its observations once, finite values
    as a 1-D series of ``n`` rounds or a ``(trials, n)`` block, and maps
    a series to xi_hat_N and a block to the ``(trials,)`` estimates, each
    row bit for bit the series result. The kernel keeps one shift array,
    computed when a call first needs it and grown when a longer window
    does, so one kernel serves every block of a Monte Carlo cell and both
    chains of an offset estimate.
    """
    try:
        build = ESTIMATORS[variant].build
    except (KeyError, TypeError):
        raise ParameterError(f"unknown variant {variant!r}") from None
    n = check_count(n, "n")
    estimate = build(lam, sigma, n)

    def kernel(U):
        U = check_chain(U, "observations", ndims=(1, 2))
        if U.shape[-1] != n:
            raise ShapeError(f"expected {n} rounds, got {U.shape[-1]}")
        return estimate(U)

    return kernel


def _series_length(U):
    shape = U.shape
    if len(shape) != 1 or not shape[0]:
        raise ShapeError(f"a series must be a nonempty 1-D sequence, got shape {shape}")
    return shape[0]


def closed_form_estimate_paper(U, lam, sigma):
    """The published closed form for xi_hat_N with linearly growing shifts.

    Returns min over k = 1..N of U_k + (N - k) * lam * sigma^2.
    """
    U = as_array(U, "U")
    return float(chain_kernel("paper", lam, sigma, _series_length(U))(U))


def _offset(U, V, variant, lambda_xi, lambda_psi, sigma):
    U, V = as_array(U, "U"), as_array(V, "V")
    if U.shape != V.shape:
        raise ShapeError(f"U and V shapes differ: {U.shape} vs {V.shape}")
    n = _series_length(U)
    kernel = chain_kernel(variant, lambda_xi, sigma, n)
    xi_n = float(kernel(U))
    # a kernel keeps only shifts, and equal float rates pass the same checks
    # and give the same shifts, so both chains share one; equality alone
    # would let True through as 1.0
    if not (type(lambda_psi) is type(lambda_xi) is float and lambda_psi == lambda_xi):
        kernel = chain_kernel(variant, lambda_psi, sigma, n)
    psi_n = float(kernel(V))
    # halved first, so that estimates near the float limit give a finite offset
    return OffsetEstimate(xi_n, psi_n, xi_n / 2.0 - psi_n / 2.0, variant)


def fge_offset(U, V, lambda_xi, lambda_psi, sigma, variant="recursive"):
    """Offset estimate theta_hat_N = (xi_hat_N - psi_hat_N) / 2.

    Runs the estimator of ``variant``, a tag of :data:`ESTIMATORS`, on
    (U, lambda_xi) and the same estimator on (V, lambda_psi).
    """
    return _offset(U, V, variant, lambda_xi, lambda_psi, sigma)


def ml_offset(U, V):
    """ML offset estimate: half the difference of the running minima.

    Independent of lam and sigma; equals both factor-graph variants in
    the sigma -> 0 limit.
    """
    return _offset(U, V, "ml", None, None, None)
