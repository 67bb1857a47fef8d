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
from round N. A 1-D series reads one window of its last rounds, taken
only where min U plus the window's shifts, with the same rounding, lies
strictly above U_N, so the result is bit for bit the whole chain's: about
sqrt(2 (U_N - min U) / (lam sigma^2)) rounds for ``recursive``, whose
shifts add up triangularly, and (U_N - min U) / (lam sigma^2) for
``paper``. Beyond the check of its finite values, the whole chain is read
by one reduction, its minimum.
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


def _recursive_window(U, lam, sigma, unit):
    """The shifts of the last rounds of series U, from which its pass starts.

    Unrolled, the pass returns min_j C_j with C_j = fl(...fl(U_j + s_{j+1})
    ... + s_N), as rounded addition is monotone. Before a window of the
    last m rounds, every C_j >= L = fl(...fl(M + s_{N-m+1})... + s_N) with
    M = min U. When L > U_N, the full pass resets in the window (at round N
    at the latest), and its first reset there is also one of the window's
    pass from +inf, which stays at or above the full pass until then; from
    there on the two passes are equal, bit for bit.

    The shifts of the last m rounds add up to about unit * m (m + 1) / 2,
    so m = sqrt(2 (U_N - M + ulp(U_N)) / unit) + 2; the ulp because
    fl(M + s) rounds down to U_N until s exceeds U_N - M by about an ulp.
    L is checked with the exact rounded chain. The whole chain when the
    check fails, when unit is 0 or subnormal, or when m >= N.
    """
    n = len(U)
    low, last = float(np.minimum.reduce(U)), float(U[-1])
    if unit >= sys.float_info.min:
        # Python floats: an overflowing quotient is inf, without a warning
        m = math.sqrt(2.0 * (last - low + math.ulp(last)) / unit) + 2
        if m < n:
            shifts = _chain_shifts(lam, sigma, int(m))
            bound = low
            for shift in memoryview(shifts):
                bound += shift
            if bound > last:
                return shifts
    return _chain_shifts(lam, sigma, n)


def _recursive_estimator(lam, sigma, n):
    """xi_hat_N of :func:`backtrack_estimate`, without keeping the levels.

    A 1-D series runs the pass on Python floats through memoryviews, from
    +inf over the window of its last rounds that :func:`_recursive_window`
    finds. Where sigma**2 is 0 or subnormal every shift is 0.0, and the
    pass over a series of N > 1 rounds is its last step after a running
    min: U_N where U_N < fl(min(U_1..U_{N-1}) + 0.0), which is +0.0 for a
    zero min of either sign, and that value elsewhere. A ``(trials, n)``
    block runs the full pass across all rows at once, one column per
    round, where the per-row loop would cost a Python loop per trial.
    """
    s2 = sigma_squared(sigma, lam)
    unit = float(lam) * float(s2)

    def estimate(U):
        if U.ndim == 1:
            if s2 < sys.float_info.min and n > 1:
                bar = float(np.minimum.reduce(U[:-1])) + 0.0
                last = float(U[-1])
                return last if last < bar else bar
            shifts = _recursive_window(U, lam, sigma, unit)
            prev = math.inf
            for shift, u in zip(memoryview(shifts), memoryview(U[n - len(shifts):])):
                bar = prev + shift
                prev = u if u < bar else bar
            return prev
        shifts = _chain_shifts(lam, sigma, n)
        prev = U[:, 0].copy()
        smaller = np.empty(len(prev), dtype=bool)
        # a shifted value that overflows is +inf and loses the min to U_k
        with np.errstate(over="ignore"):
            for k in range(1, n):
                np.add(prev, shifts[k], out=prev)
                # u replaces bar only where strictly smaller, as in min(bar, u):
                # a 0.0/-0.0 tie keeps bar
                np.less(U[:, k], prev, out=smaller)
                np.copyto(prev, U[:, k], where=smaller)
        return prev

    return estimate


def _paper_shifts(unit, m):
    """The paper's shifts unit * d of the last m rounds, d = m - 1 down to 0."""
    shifts = np.arange(m - 1, -1, -1, dtype=float)
    # in place, as the candidates are built: where a chain is long, every
    # fresh array of its length costs page faults, more than filling it
    shifts *= unit
    return shifts


def _paper_window(U, unit):
    """The shifts of the last rounds of series U whose candidates can be the min.

    With M = min U, a round with fl(M + s) > U_N has a candidate
    fl(U_k + s) >= fl(M + s), as rounding is monotone, above U_N + 0.0, the
    candidate of round N; so has every earlier round, whose shift is
    larger. The shifts are never -0.0, so every zero candidate is +0.0 and
    the window's min is bit for bit the whole chain's. The shifts grow by
    unit per round, so the window has m = (U_N - M + ulp(U_N)) / unit + 2
    rounds, the ulp as in :func:`_recursive_window`, and its first round is
    checked with the exact rounded shift. The whole chain when the quotient
    overflows, when unit is 0 or subnormal, when m >= N, or when the check
    fails.
    """
    n = len(U)
    low, last = float(np.minimum.reduce(U)), float(U[-1])
    span_unit = float(unit)
    if span_unit >= sys.float_info.min:
        span = (last - low + math.ulp(last)) / span_unit
        if span < n - 2:
            # the first round's shift is m - 1 > span unit shifts
            shifts = _paper_shifts(unit, int(span) + 2)
            if low + float(shifts[0]) > last:
                return shifts
    return _paper_shifts(unit, n)


def _paper_estimator(lam, sigma, n):
    """min over k of U_k + (N - k) * lam * sigma^2, along the last axis.

    A 1-D series takes the min over the window of its last rounds that
    :func:`_paper_window` finds; a ``(trials, n)`` block over all rounds.
    """
    unit = lam * sigma_squared(sigma, lam)

    def estimate(U):
        # unit is finite, so an overflowing shift or candidate is +inf, never
        # inf * 0, and loses the min
        with np.errstate(over="ignore"):
            if U.ndim == 2:
                return np.minimum.reduce(U + _paper_shifts(unit, n), axis=-1)
            # the candidates U_k + s_k take the place of the shifts
            candidates = _paper_window(U, unit)
            candidates += U[n - len(candidates):]
            return np.minimum.reduce(candidates)

    return estimate


def _ml_estimator(lam, sigma, n):
    """The minimum of U along the last axis; lam and sigma play no part."""
    return lambda U: U.min(axis=-1)


Variant = namedtuple("Variant", "build label oracle_key")

#: The estimator table, keyed by variant tag, in report order: every variant
#: dispatch is a lookup here. ``build(lam, sigma, n)`` checks lam and sigma
#: and returns the unchecked estimator of xi_hat_N for one chain of n rounds,
#: which computes on each call only the shifts that call reads and lets no
#: overflow warn; only :func:`chain_kernel` calls it. ``label``
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
    row bit for bit the series result. Each call computes the shifts it
    reads: a block those of all n rounds, a series only those of its
    window.
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
    xi_n = float(chain_kernel(variant, lambda_xi, sigma, n)(U))
    psi_n = float(chain_kernel(variant, lambda_psi, sigma, n)(V))
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
