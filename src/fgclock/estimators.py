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
  :func:`_shifts`), so the estimators compute the shifts as a running
  sum; :func:`backward_constants` evaluates the literal A/B/C/D
  recursion and is kept as the check of that lemma, not run by them;
* ``paper`` — the simplified closed form
  min(U_N, U_{N-1} + lam sigma^2, ..., U_1 + (N-1) lam sigma^2)
  whose shifts grow linearly;
* ``ml`` — the running minimum of U, which both factor-graph variants
  collapse to at sigma = 0.

The two factor-graph variants differ for sigma > 0; the exact-MAP oracles
in :mod:`fgclock.oracle` arbitrate between them.

In a long chain only the last rounds can bind xi_hat_N of either
factor-graph variant, because each round's shift grows with its distance
from round N. A series, or a ``(trials, n)`` block, reads one window of
its last rounds, taken only where min U plus the window's shifts, with
the same rounding, lies strictly above the largest U_N of any row, so
every result is bit for bit the whole chain's: about
sqrt(2 (U_N - min U) / (lam sigma^2)) rounds for ``recursive``, whose
shifts add up triangularly, and (U_N - min U) / (lam sigma^2) for
``paper``. The whole chain is read once, by the check's min/max pass, and
the window reuses its min.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat

import numpy as np

from .errors import ParameterError, ShapeError
from .model import (FLOAT_MAX, as_array, check_chain, check_count, check_real,
                    density_sigma_squared, sigma_squared)


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
    shifts come from the running sum of :func:`_shifts`, which equals
    ``D * sigma**2`` bit for bit and is tested against it.

    sigma**2 must lie in the normal floating-point range: at sigma = 0, or
    when sigma**2 underflows, 1/sigma^2 overflows and the constants diverge
    (DegenerateModelError). 2 sigma**2 must be finite, or 1/(2 sigma^2) is
    0 and C/(2A) is 0/0 (ParameterError). A D_k beyond the float range is
    inf, as the estimators' shift of that level is, without a warning.
    """
    n = check_count(n, "n")
    s2 = density_sigma_squared(sigma, lam)
    if math.isinf(2.0 * s2):
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
    with np.errstate(over="ignore"):
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
    +inf. g_k is monotone increasing, hence distributes over min. ``x`` is
    a number in [-FLOAT_MAX, inf]; a shifted value that overflows is inf.
    """
    if not isinstance(constants, BackwardConstants):
        raise ParameterError(f"constants must be a BackwardConstants, got {constants!r}")
    if not 1 <= check_count(k, "level k") <= len(constants.D):
        raise ParameterError(f"level {k} outside 1..{len(constants.D)}")
    x = float(check_real(x, "x", -FLOAT_MAX, math.inf))
    # Python floats: a product or a sum that overflows is inf, without a warning
    return x + float(constants.D[k - 1]) * float(constants.sigma) ** 2


def _shifts(lam, s2, m):
    """The shifts D_k * sigma^2 of the last m rounds of a chain, as Python floats.

    Wherever :func:`backward_constants` is defined, its ratio C_k/(2 A_k)
    is exactly -1 and A_k stays exactly -1/(2 sigma^2) in floating point,
    so each D_{k-1} is the rounded sum lam + D_k: D is the running sum of
    lam taken from level N down, and the shifts equal the recursion's
    ``D * sigma**2`` bit for bit. The sum starts at round N, so the shifts
    of a chain's last m rounds are the same for every N. A shift that
    overflows is inf, as in the literal recursion, without a warning; min
    then keeps the observation at that level.

    ``s2`` is sigma**2 as :func:`fgclock.model.sigma_squared` checked it
    with lam. Zeros, the sigma = 0 limit, when s2 is 0 or below the normal
    range, where the backward recursion would divide by it.
    """
    if s2 < sys.float_info.min:
        return [0.0] * m
    shifts = [total * s2 for total in accumulate(repeat(float(lam), m))]
    shifts.reverse()
    return shifts


def backtrack_estimate(U, lam, sigma):
    """Forward backtracking sweep producing xi_hat_1..xi_hat_N.

    Starting from the root estimate xi_hat_0 = +inf, each level takes
    xi_bar_k = g_k(xi_hat_{k-1}) and clips it at the observation:
    xi_hat_k = min(xi_bar_k, U_k). At sigma = 0 this reduces to the
    running minimum of U.
    """
    U, _ = check_chain(U)
    n = len(U)
    shifts = _shifts(lam, sigma_squared(sigma, lam), n)
    xi_bar = np.empty(n)
    xi_hat = np.empty(n)
    bars, hats = memoryview(xi_bar), memoryview(xi_hat)
    prev = math.inf
    # Python floats, U through a memoryview: no numpy scalar per round
    for k, (shift, u) in enumerate(zip(shifts, memoryview(U))):
        bar = prev + shift
        # min(bar, u): a tie keeps bar, which decides the sign of 0.0 vs -0.0
        prev = u if u < bar else bar
        bars[k] = bar
        hats[k] = prev
    return BacktrackResult(xi_hat=xi_hat, xi_bar=xi_bar)


def _window(U, low, unit, width, shifts, bound):
    """The shifts of the last rounds of U that its variant's pass must read.

    U is a series or a ``(trials, n)`` block with min ``low``. ``shifts(m)``
    gives the variant's shifts of the last m rounds, and
    ``bound(low, shifts)`` the least term that a round before them can
    give, from the exact rounded shifts. Where that lies strictly above the
    largest U_N of any row, no such round binds any row: a row's min is at
    least ``low``, and its U_N at most the largest. ``width(q)`` is about
    the number of rounds whose shifts reach q unit shifts, so the window
    has m = width((U_N - low + ulp(U_N)) / unit) + 2 rounds; the ulp
    because fl(low + s) rounds down to U_N until s exceeds U_N - low by
    about an ulp. The whole chain's shifts when unit is 0 or subnormal,
    when m >= n, or when the bound fails.
    """
    n, low = U.shape[-1], float(low)
    last = float(U[-1] if U.ndim == 1 else U[:, -1].max())
    if unit >= sys.float_info.min:
        # Python floats: an overflowing quotient or sum is inf, without a warning
        m = width((last - low + math.ulp(last)) / unit) + 2
        if m < n:
            window = shifts(int(m))
            if bound(low, window) > last:
                return window
    return shifts(n)


def _total(low, shifts):
    """fl(...fl(low + s_1)... + s_m), where the recursive pass takes ``low`` through the shifts."""
    for shift in shifts:
        low += shift
    return low


def _recursive_estimator(lam, sigma, n):
    """xi_hat_N of :func:`backtrack_estimate`, without keeping the levels.

    The pass runs from +inf over the window of the last rounds that
    :func:`_window` finds. Unrolled, it returns min_j C_j with
    C_j = fl(...fl(U_j + s_{j+1})... + s_N), so every round before the
    window has C_j at least :func:`_total` of the min and the window's
    shifts. Where that bound lies above U_N, the full pass resets in the
    window, at round N at the latest, and its first reset there is also
    one of the window's pass from +inf, which stays at or above the full
    pass until then; from there on the two passes are equal, bit for bit.
    The shifts of the last m rounds add up to about unit * m (m + 1) / 2,
    so the window has about sqrt(2 (U_N - min U) / unit) rounds. A series
    runs the pass on Python floats through a memoryview; a
    ``(trials, n)`` block runs it across all rows at once, one column per
    round, where the per-row loop would cost a Python loop per trial.

    Where sigma**2 is 0 or subnormal every shift is 0.0, so the pass over
    a chain is its last step after a running min: U_N if it is below
    fl(min(U_1..U_{N-1}) + 0.0), which is +0.0 for a zero min of either
    sign, else that. A series with U_N above its min takes fl(min U + 0.0)
    and reads no round again.
    """
    s2 = sigma_squared(sigma, lam)
    unit = float(lam) * s2
    shifts = partial(_shifts, lam, s2)

    def estimate(U, low):
        if s2 < sys.float_info.min:
            if U.ndim == 1 and U[-1] > low:
                return float(low) + 0.0
            last = U[..., -1]
            bar = np.minimum.reduce(U[..., :-1], axis=-1, initial=math.inf) + 0.0
            xi = np.where(last < bar, last, bar)
            return xi if U.ndim == 2 else float(xi)
        window = _window(U, low, unit, lambda units: math.sqrt(2.0 * units), shifts, _total)
        U = U[..., n - len(window):]
        if U.ndim == 1:
            prev = math.inf
            for shift, u in zip(window, memoryview(U)):
                bar = prev + shift
                prev = u if u < bar else bar
            return prev
        prev = U[:, 0].copy()
        smaller = np.empty(len(prev), dtype=bool)
        # a shifted value that overflows is +inf and loses the min to U_k
        with np.errstate(over="ignore"):
            for k in range(1, len(window)):
                np.add(prev, window[k], out=prev)
                # u replaces bar only where strictly smaller, as in min(bar, u):
                # a 0.0/-0.0 tie keeps bar
                np.less(U[:, k], prev, out=smaller)
                np.copyto(prev, U[:, k], where=smaller)
        return prev

    return estimate


def _paper_estimator(lam, sigma, n):
    """min over k of U_k + (N - k) * lam * sigma^2, along the last axis.

    The min runs over the window of the last rounds that :func:`_window`
    finds. Its first round's shift is (m - 1) unit shifts, about
    (U_N - min U) / unit rounds from the end; a round with fl(min U + s)
    above U_N has a term fl(U_k + s) >= fl(min U + s), as rounding is
    monotone, above U_N + 0.0, the term of round N; so has every earlier
    round, whose shift is larger. The shifts are never -0.0, so every zero
    term is +0.0 and the window's min is bit for bit the whole chain's.
    Where unit is 0, a series's min is min U + 0.0.
    """
    # checked before float(lam), which would raise on a lam of the wrong type
    s2 = sigma_squared(sigma, lam)
    unit = float(lam) * s2

    def shifts(m):
        shifts = np.arange(m - 1, -1, -1, dtype=float)
        # in place, as the terms are built: where a chain is long, every
        # fresh array of its length costs page faults, more than filling it
        shifts *= unit
        return shifts

    def estimate(U, low):
        if U.ndim == 1 and not unit:
            return low + 0.0
        # unit is finite, so an overflowing shift or term is +inf, never
        # inf * 0, and loses the min
        with np.errstate(over="ignore"):
            window = _window(U, low, unit, lambda units: units, shifts,
                             lambda low, window: low + float(window[0]))
            if U.ndim == 2:
                return np.minimum.reduce(U[:, n - len(window):] + window, axis=-1)
            # a series's terms U_k + s_k take the place of its shifts
            window += U[n - len(window):]
            return np.minimum.reduce(window)

    return estimate


def _ml_estimator(lam, sigma, n):
    """The min of U along the last axis, the check's ``low`` for a series; lam, sigma unused."""
    return lambda U, low: low if U.ndim == 1 else U.min(axis=-1)


Variant = namedtuple("Variant", "build label oracle_key")

#: The estimator table, keyed by variant tag, in report order: every variant
#: dispatch is a lookup here. ``build(lam, sigma, n)`` checks lam and sigma
#: and returns the unchecked estimator ``estimate(U, low)`` of xi_hat_N for a
#: series or block of n rounds with min ``low``, which computes on each call
#: only the shifts of the window :func:`_window` finds for it and lets no
#: overflow warn; only :func:`chain_kernel` calls it. ``label`` names the
#: variant's rows in sweep tables; ``oracle_key`` names its deviation from
#: the exact MAP in the compare-oracle report (None for ML, not a
#: factor-graph estimate).
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
    row bit for bit the series result. The check's min/max pass is the
    only full read of a series: its min sizes the window, or is the ``ml``
    estimate. Each call computes only the shifts of its window, which for a
    block is sized by the largest U_N of any row.
    """
    try:
        build = ESTIMATORS[variant].build
    except (KeyError, TypeError):
        raise ParameterError(f"unknown variant {variant!r}") from None
    n = check_count(n, "n")
    estimate = build(lam, sigma, n)

    def kernel(U):
        U, low = check_chain(U, "observations", ndims=(1, 2))
        if U.shape[-1] != n:
            raise ShapeError(f"expected {n} rounds, got {U.shape[-1]}")
        return estimate(U, low)

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
