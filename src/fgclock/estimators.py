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
  that grow triangularly with distance from the last round;
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

from .errors import DegenerateModelError, ParameterError, ShapeError

#: Variant tags accepted by fge_offset / carried by OffsetEstimate.
VARIANT_RECURSIVE = "recursive"
VARIANT_PAPER = "paper"
VARIANT_ML = "ml"

#: Largest sigma whose square is still finite.
_SIGMA_MAX = math.sqrt(sys.float_info.max)


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


def _check_chain(U, name="U", ndim=1):
    """``U`` as a float array, checked to be ``ndim``-D, nonempty and all finite."""
    U = np.asarray(U, dtype=float)
    if U.ndim != ndim or U.size == 0:
        raise ShapeError(f"{name} must be a nonempty {ndim}-D sequence")
    if not np.isfinite(U).all():
        raise ParameterError(f"{name} must hold finite values only")
    return U


def _check_lam(lam):
    if not lam > 0:
        raise ParameterError(f"lam must be > 0, got {lam}")


def _sigma_squared(sigma):
    """sigma**2, after checking that sigma >= 0 and that its square is finite."""
    if not 0 <= sigma <= _SIGMA_MAX:
        raise ParameterError(
            f"sigma must be >= 0 with a finite square (<= {_SIGMA_MAX:.4g}), got {sigma}"
        )
    return sigma**2


def backward_constants(lam, sigma, n):
    """Run the backward coefficient recursion from level N down to 1.

    Initializes A = B = -1/(2 sigma^2), C = 1/sigma^2, D = lam at level N
    and recurses downward. In exact arithmetic A stays level-invariant
    (the B - C^2/(4A) correction vanishes) and D_{N-i} = (i+1) * lam; the
    recursion is evaluated literally so tests can verify those closed
    forms rather than assume them.

    sigma**2 must lie in the normal floating-point range: at sigma = 0, or
    when sigma**2 underflows, 1/sigma^2 overflows and the constants diverge.
    """
    _check_lam(lam)
    if int(n) != n or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    s2 = _sigma_squared(sigma)
    if s2 < sys.float_info.min:
        raise DegenerateModelError(
            "backward constants diverge when sigma**2 is 0 or below the normal "
            "range; use the running-minimum shortcut"
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
    """Per-level additive shifts D_k * sigma^2 for k = 1..N.

    Zeros, the sigma = 0 limit, when sigma**2 is 0 or below the normal
    range, where the backward recursion would divide by it.
    """
    s2 = _sigma_squared(sigma)
    if s2 < sys.float_info.min:
        return np.zeros(n)
    return backward_constants(lam, sigma, n).D * s2


def _paper_shifts(lam, sigma, n):
    """Linearly growing shifts (N - k) * lam * sigma^2 for k = 1..N."""
    return lam * _sigma_squared(sigma) * np.arange(n - 1, -1, -1, dtype=float)


def backtrack_estimate(U, lam, sigma):
    """Forward backtracking sweep producing xi_hat_1..xi_hat_N.

    Starting from the root estimate xi_hat_0 = +inf, each level takes
    xi_bar_k = g_k(xi_hat_{k-1}) and clips it at the observation:
    xi_hat_k = min(xi_bar_k, U_k). At sigma = 0 this reduces to the
    running minimum of U.
    """
    U = _check_chain(U)
    _check_lam(lam)
    n = len(U)
    shifts = _chain_shifts(lam, sigma, n)
    xi_bar = np.empty(n)
    xi_hat = np.empty(n)
    prev = math.inf
    for k in range(n):
        bar = prev + shifts[k]
        prev = min(bar, U[k])
        xi_bar[k] = bar
        xi_hat[k] = prev
    return BacktrackResult(xi_hat=xi_hat, xi_bar=xi_bar)


def closed_form_estimate_paper(U, lam, sigma):
    """The published closed form for xi_hat_N with linearly growing shifts.

    Returns min over k = 1..N of U_k + (N - k) * lam * sigma^2.
    """
    U = _check_chain(U)
    _check_lam(lam)
    return float(np.min(U + _paper_shifts(lam, sigma, len(U))))


def fge_offset(U, V, lambda_xi, lambda_psi, sigma, variant=VARIANT_RECURSIVE):
    """Factor-graph offset estimate theta_hat_N = (xi_hat_N - psi_hat_N) / 2.

    Runs the selected xi-chain estimator on (U, lambda_xi) and reuses the
    same machinery verbatim on (V, lambda_psi).
    """
    U = _check_chain(U, "U")
    V = _check_chain(V, "V")
    if U.shape != V.shape:
        raise ShapeError(f"U and V must have equal length, got {U.shape} vs {V.shape}")
    if variant == VARIANT_RECURSIVE:
        xi_n = float(backtrack_estimate(U, lambda_xi, sigma).xi_hat[-1])
        psi_n = float(backtrack_estimate(V, lambda_psi, sigma).xi_hat[-1])
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
    U = _check_chain(U, "U")
    V = _check_chain(V, "V")
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
    _check_lam(lam)
    if int(n) != n or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    n = int(n)
    if variant == VARIANT_RECURSIVE:
        shifts = _chain_shifts(lam, sigma, n)

        def final(U):
            prev = U[:, 0].copy()
            for k in range(1, n):
                np.add(prev, shifts[k], out=prev)
                np.minimum(prev, U[:, k], out=prev)
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
        U = _check_chain(U, ndim=2)
        if U.shape[1] != n:
            raise ShapeError(f"expected {n} rounds per row, got {U.shape[1]}")
        return final(U)

    return kernel
