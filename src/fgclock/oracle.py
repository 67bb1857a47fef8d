"""Independent exact solvers for the constrained chain MAP problem.

The chain posterior maximized by the max-product estimator is, after
taking logs and dropping constants,

    f(x) = sum_{k=1..N} lam * x_k - sum_{k=2..N} (x_k - x_{k-1})^2 / (2 sigma^2)

subject to x_k <= U_k. The flat-prior root variable x_0 is eliminated
analytically (its optimum is x_0 = x_1, zeroing the first increment).
Three independent routes to the same optimum are provided: exhaustive
active-set enumeration with tridiagonal equality solves, cyclic
coordinate ascent, and a discretized max-product sweep on a grid. None
of them shares code with the estimators they validate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridCoverageError, ParameterError, SizeError
from .model import chain_log_posterior, check_chain, density_sigma_squared

#: Active-set enumeration is 2^N; keep desk-scale.
MAX_ENUM_ROUNDS = 12


@dataclass(frozen=True)
class MapSolution:
    """Exact constrained-MAP path for one chain.

    ``path`` holds x_1..x_N, ``objective`` the chain log posterior at the
    path (root eliminated), ``active_set`` the 1-based rounds where the
    constraint x_k = U_k binds.
    """

    path: np.ndarray
    objective: float
    active_set: frozenset


def _validate_chain_args(U, lam, sigma):
    """Checked ``U``; the MAP objective divides by sigma**2, so it must be normal."""
    density_sigma_squared(sigma, lam)
    return check_chain(U)


def _objective(path, U, lam, sigma):
    """Chain log posterior with the root variable pinned at x_1."""
    candidate = np.concatenate(([path[0]], path))
    return chain_log_posterior(candidate, U, lam, sigma)


def _solve_free_segment(x, U, lo, hi, n, lam_s2):
    """Fill x[lo..hi] with the stationary point of one free segment.

    Anchors are x[lo-1] = U[lo-1] when lo > 0 and x[hi+1] = U[hi+1] when
    hi < n-1 (at least one exists because the active set is nonempty).
    The stationarity conditions form a symmetric tridiagonal system with
    off-diagonal -1 and diagonal equal to the number of chain neighbors;
    solved by the Thomas algorithm.
    """
    m = hi - lo + 1
    diag = [2.0] * m
    rhs = [lam_s2] * m
    if lo == 0:
        diag[0] = 1.0
    else:
        rhs[0] += U[lo - 1]
    if hi == n - 1:
        diag[-1] = 1.0
    else:
        rhs[-1] += U[hi + 1]
    # Thomas forward elimination (off-diagonals are -1).
    for i in range(1, m):
        w = -1.0 / diag[i - 1]
        diag[i] += w
        rhs[i] -= w * rhs[i - 1]
    x[hi] = rhs[m - 1] / diag[m - 1]
    for i in range(m - 2, -1, -1):
        x[lo + i] = (rhs[i] + x[lo + i + 1]) / diag[i]


def _solve_for_active_set(U, active_mask, lam_s2, n):
    """Path with x_k = U_k on the active set and stationary free segments."""
    x = np.empty(n)
    seg_start = None
    for k in range(n):
        if active_mask >> k & 1:
            if seg_start is not None:
                _solve_free_segment(x, U, seg_start, k - 1, n, lam_s2)
                seg_start = None
            x[k] = U[k]
        elif seg_start is None:
            seg_start = k
    if seg_start is not None:
        _solve_free_segment(x, U, seg_start, n - 1, n, lam_s2)
    return x


def exact_map_active_set(U, lam, sigma):
    """Global constrained MAP by exhaustive active-set enumeration.

    Every nonempty subset of rounds is tried as the binding set (the
    empty set leaves the objective unbounded along the all-ones
    direction, so the optimum always binds somewhere). Each candidate is
    an equality-constrained concave quadratic maximization solved in
    closed form; feasible candidates are ranked by objective. The winner
    is the global MAP; ties keep the lexicographically smallest set.
    """
    U = _validate_chain_args(U, lam, sigma)
    n = len(U)
    if n > MAX_ENUM_ROUNDS:
        raise SizeError(
            f"active-set enumeration supports N <= {MAX_ENUM_ROUNDS}, got {n}"
        )
    lam_s2 = lam * sigma**2
    feas_tol = 1e-9 * max(1.0, float(np.max(np.abs(U))))
    best = None
    for mask in range(1, 1 << n):
        x = _solve_for_active_set(U, mask, lam_s2, n)
        if np.any(x > U + feas_tol):
            continue
        obj = _objective(np.minimum(x, U), U, lam, sigma)
        members = tuple(k + 1 for k in range(n) if mask >> k & 1)
        if best is None:
            best = (obj, members, x)
            continue
        tie_tol = 1e-12 * max(1.0, abs(best[0]))
        if obj > best[0] + tie_tol:
            best = (obj, members, x)
        elif obj > best[0] - tie_tol and members < best[1]:
            best = (obj, members, x)
    if best is None:
        raise ParameterError("no feasible active set found (inconsistent inputs)")
    obj, members, x = best
    path = np.minimum(x, U)
    return MapSolution(path=path, objective=obj, active_set=frozenset(members))


def coordinate_ascent_map(U, lam, sigma, tol=1e-12, max_iters=200_000):
    """Cyclic clipped coordinate ascent on the chain objective.

    Each update is the closed-form maximizer of the 1-D concave
    quadratic in x_k given its neighbors, clipped at U_k. The objective
    is concave with unique per-coordinate maximizers, so the sweep
    converges to the global constrained maximum. Terminates when the
    largest coordinate change in a sweep drops below ``tol``.
    """
    U = _validate_chain_args(U, lam, sigma)
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    n = len(U)
    lam_s2 = lam * sigma**2
    x = U.astype(float).copy()
    if n == 1:
        return MapSolution(path=x, objective=_objective(x, U, lam, sigma),
                           active_set=frozenset({1}))
    for _ in range(max_iters):
        delta = 0.0
        for k in range(n):
            if k == 0:
                prop = x[1] + lam_s2
            elif k == n - 1:
                prop = x[n - 2] + lam_s2
            else:
                prop = (x[k - 1] + x[k + 1] + lam_s2) / 2.0
            new = min(prop, U[k])
            delta = max(delta, abs(new - x[k]))
            x[k] = new
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"coordinate ascent did not converge in {max_iters} sweeps", last_path=x
        )
    atol = max(tol * 10.0, 1e-12)
    active = frozenset(k + 1 for k in range(n) if U[k] - x[k] <= atol)
    return MapSolution(path=x, objective=_objective(x, U, lam, sigma),
                       active_set=active)


def _quad_max_conv(values, step_sq_half_inv):
    """Upper envelope q[i] = max_j (values[j] - c (i - j)^2) on a uniform grid.

    ``c = step_sq_half_inv`` is h^2 / (2 sigma^2) in grid-index units.
    Linear-time lower-envelope-of-parabolas transform applied to the
    negated values; entries equal to -inf are skipped.
    """
    n = len(values)
    out = np.full(n, -math.inf)
    finite = np.flatnonzero(np.isfinite(values))
    if len(finite) == 0:
        return out
    c = step_sq_half_inv
    f = values
    v = [finite[0]]          # indices of parabolas in the envelope
    z = [-math.inf, math.inf]  # breakpoints between them
    for q in finite[1:]:
        q = int(q)
        while True:
            p = v[-1]
            # intersection of the parabolas rooted at q and p
            s = ((q * q - p * p) - (f[q] - f[p]) / c) / (2.0 * (q - p))
            if s <= z[-2] and len(v) > 1:
                v.pop()
                z.pop()
            else:
                break
        v.append(q)
        z[-1] = s
        z.append(math.inf)
    j = 0
    for i in range(n):
        while z[j + 1] < i:
            j += 1
        p = v[j]
        out[i] = f[p] - c * (i - p) * (i - p)
    return out


def grid_max_marginal(U, lam, sigma, lo, hi, points):
    """Discretized max-product sweep; returns the argmax of the xi_N max-marginal.

    Tabulates the forward max-marginal recursion on a uniform grid of
    ``points`` values over [lo, hi] and returns the grid value maximizing
    the final max-marginal. Approaches the continuous MAP coordinate as
    the grid is refined. Raises GridCoverageError when the argmax lands
    on a grid boundary or the grid misses the feasible region entirely.
    """
    U = _validate_chain_args(U, lam, sigma)
    if not lo < hi:
        raise ParameterError(f"need lo < hi, got {lo} >= {hi}")
    if int(points) != points or points < 2:
        raise ParameterError(f"points must be an integer >= 2, got {points}")
    points = int(points)
    grid = np.linspace(lo, hi, points)
    h = grid[1] - grid[0]
    c = h * h / (2.0 * sigma**2)
    linear = lam * grid
    # round each constraint boundary to the nearest grid point; flooring it
    # would bias every level's cut downward by up to a full step
    half = h / 2.0
    msg = linear.copy()
    msg[grid > U[0] + half] = -math.inf
    if not np.any(np.isfinite(msg)):
        raise GridCoverageError("grid lies entirely above U_1; no feasible point")
    for k in range(1, len(U)):
        msg = _quad_max_conv(msg, c) + linear
        msg[grid > U[k] + half] = -math.inf
    i = int(np.argmax(msg))
    if not math.isfinite(msg[i]):
        raise GridCoverageError("final max-marginal is -inf everywhere on the grid")
    if i == 0 or i == points - 1:
        raise GridCoverageError(
            f"argmax landed on the grid boundary (index {i}); widen [lo, hi]"
        )
    # sub-step refinement: the max-marginal is piecewise quadratic, so a
    # three-point vertex fit recovers the continuous peak when it lies inside
    # a segment; at a constraint cut a neighbor is -inf and the grid point
    # itself is the peak
    left, mid, right = msg[i - 1], msg[i], msg[i + 1]
    delta = 0.0
    if math.isfinite(left) and math.isfinite(right):
        den = 2.0 * (2.0 * mid - left - right)
        if den > 0.0:
            delta = (right - left) / den
            delta = max(-1.0, min(1.0, delta))
    return float(grid[i] + delta * h)
