"""Max-product estimators for the final combined unknowns xi_N, psi_N.

The posterior over one chain factorizes along a cycle-free chain graph,
so max-product message passing is exact. The backward sweep keeps each
message in canonical quadratic-exponent form with coefficients
(A_k, B_k, C_k, D_k); the induced map on candidate estimates is the
affine shift kernel g_k(x) = x + D_k * sigma^2, which distributes over
min because it is monotone increasing. Backtracking forward with
per-level clipping at U_k yields the chain estimate, and the offset
estimate is theta_hat = (xi_hat_N - psi_hat_N) / 2.

Two variants of the factor-graph estimate are provided:

* ``recursive`` — forward backtracking with the D-constants produced by
  the backward recursion (D_{N-i} = (i+1) * lam), i.e. cumulative shifts
  that grow triangularly with distance from the last round. In floating
  point the recursion reduces to a running sum of lam (see
  :func:`_chain_shifts`), so the estimators compute the shifts as a
  cumulative sum; :func:`backward_constants` evaluates the literal A/B/C/D
  recursion and is kept as the check of that lemma, not run by them;
* ``paper`` — the simplified closed form
  min(U_N, U_{N-1} + lam sigma^2, ..., U_1 + (N-1) lam sigma^2)
  whose shifts grow linearly.

They coincide at sigma = 0 (both collapse to the running minimum, which
is the ML estimator) but differ for sigma > 0; the exact-MAP oracles in
:mod:`fgclock.oracle` arbitrate between them.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .model import check_chain, check_rate, density_sigma_squared, sigma_squared

#: Variant tags accepted by fge_offset / carried by OffsetEstimate.
VARIANT_RECURSIVE = "recursive"
VARIANT_PAPER = "paper"
VARIANT_ML = "ml"


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

    @classmethod
    def from_chains(cls, xi_hat_n, psi_hat_n, variant):
        return cls(
            xi_hat_N=xi_hat_n,
            psi_hat_N=psi_hat_n,
            theta_hat_N=(xi_hat_n - psi_hat_n) / 2.0,
            variant=variant,
        )


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
    if int(n) != n or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    s2 = density_sigma_squared(sigma, lam)
    if math.isinf(2.0 * float(s2)):
        raise ParameterError(
            f"the backward recursion needs a finite 2 * sigma**2, got sigma={sigma}"
        )
    n = int(n)
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
        np.cumsum(from_last, out=from_last)
        shifts *= s2
    return shifts


def _paper_shifts(lam, sigma, n):
    """Linearly growing shifts (N - k) * lam * sigma^2 for k = 1..N."""
    unit = lam * sigma_squared(sigma, lam)
    # unit is finite, so an overflowing shift is +inf, never inf * 0
    with np.errstate(over="ignore"):
        return unit * np.arange(n - 1, -1, -1, dtype=float)


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


def _final_estimate(U, lam, sigma):
    """xi_hat_N of :func:`backtrack_estimate` on a checked ``U``, levels not kept.

    Not storing xi_bar and xi_hat makes ``fge_offset(..., "recursive")``
    2.6x faster end to end at N = 28 800 than taking ``xi_hat[-1]`` from
    :func:`backtrack_estimate`; the tests hold the two to the same bits.
    """
    prev = math.inf
    for shift, u in zip(memoryview(_chain_shifts(lam, sigma, len(U))), memoryview(U)):
        bar = prev + shift
        prev = u if u < bar else bar
    return prev


def closed_form_estimate_paper(U, lam, sigma):
    """The published closed form for xi_hat_N with linearly growing shifts.

    Returns min over k = 1..N of U_k + (N - k) * lam * sigma^2.
    """
    U = check_chain(U)
    return float(np.min(U + _paper_shifts(lam, sigma, len(U))))


def fge_offset(U, V, lambda_xi, lambda_psi, sigma, variant=VARIANT_RECURSIVE):
    """Factor-graph offset estimate theta_hat_N = (xi_hat_N - psi_hat_N) / 2.

    Runs the selected xi-chain estimator on (U, lambda_xi) and reuses the
    same machinery verbatim on (V, lambda_psi).
    """
    U = check_chain(U, "U")
    V = check_chain(V, "V")
    if U.shape != V.shape:
        raise ShapeError(f"U and V must have equal length, got {U.shape} vs {V.shape}")
    if variant == VARIANT_RECURSIVE:
        xi_n = _final_estimate(U, lambda_xi, sigma)
        psi_n = _final_estimate(V, lambda_psi, sigma)
    elif variant == VARIANT_PAPER:
        xi_n = closed_form_estimate_paper(U, lambda_xi, sigma)
        psi_n = closed_form_estimate_paper(V, lambda_psi, sigma)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    return OffsetEstimate.from_chains(xi_n, psi_n, variant)


def ml_offset(U, V):
    """ML offset estimate: half the difference of the running minima.

    Independent of lam and sigma; equals both factor-graph variants in
    the sigma -> 0 limit.
    """
    U = check_chain(U, "U")
    V = check_chain(V, "V")
    if U.shape != V.shape:
        raise ShapeError(f"U and V must have equal length, got {U.shape} vs {V.shape}")
    return OffsetEstimate.from_chains(float(U.min()), float(V.min()), VARIANT_ML)


def chain_kernel(variant, lam, sigma, n):
    """Batched final-coordinate estimator for one chain of ``n`` rounds.

    Returns a function that maps a ``(trials, n)`` block of observations
    to the ``(trials,)`` estimates xi_hat_N, equal bit for bit, row by
    row, to the single-series estimator of ``variant``. Shifts are
    computed here, once, so one kernel serves every block of a Monte
    Carlo cell. ``recursive`` runs the forward clipping pass across all
    rows at once; ``paper`` and ``ml`` take one vectorized min per row.
    """
    check_rate(lam)
    if int(n) != n or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    n = int(n)
    if variant == VARIANT_RECURSIVE:
        shifts = _chain_shifts(lam, sigma, n)

        def final(U):
            prev = U[:, 0].copy()
            smaller = np.empty(len(prev), dtype=bool)
            for k in range(1, n):
                np.add(prev, shifts[k], out=prev)
                # u replaces bar only where strictly smaller, as in min(bar, u):
                # a 0.0/-0.0 tie keeps bar
                np.less(U[:, k], prev, out=smaller)
                np.copyto(prev, U[:, k], where=smaller)
            return prev

    elif variant == VARIANT_PAPER:
        shifts = _paper_shifts(lam, sigma, n)

        def final(U):
            return np.min(U + shifts, axis=1)

    elif variant == VARIANT_ML:

        def final(U):
            return U.min(axis=1)

    else:
        raise ParameterError(f"unknown variant {variant!r}")

    def kernel(U):
        U = check_chain(U, ndim=2)
        if U.shape[1] != n:
            raise ShapeError(f"expected {n} rounds per row, got {U.shape[1]}")
        return final(U)

    return kernel
