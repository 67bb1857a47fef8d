"""Independent exact solvers for the constrained chain MAP problem.

The chain posterior maximized by the max-product estimator is, after
taking logs and dropping constants,

    f(x) = sum_{k=1..N} lam * x_k - sum_{k=2..N} (x_k - x_{k-1})^2 / (2 sigma^2)

subject to x_k <= U_k. The flat-prior root variable x_0 is eliminated
analytically (its optimum is x_0 = x_1, zeroing the first increment).
Three independent routes to the same optimum are provided: active-set
enumeration with tridiagonal equality solves, which walks only the feasible
sets, cyclic coordinate ascent, and a discretized max-product sweep on a
grid, whose envelopes take one vector pass where the input allows. Each
shortcut gives, bit for bit, the results of the full loop it skips.
Coordinate ascent starts its sweeps at the O(N) lower-hull path, the
optimum up to rounding, so that one sweep usually meets its tolerance: the
sweeps reach the unique maximum from any start, so the answer is still
their own fixed point, and the start decides only how many sweeps it takes.
None of the oracles shares code with the estimators they validate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridCoverageError, ParameterError, SizeError
from .model import (FLOAT_MAX, _chain_log_posterior, check_chain, check_count, check_real,
                    density_sigma_squared)

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
    """Checked ``U`` and sigma**2, which the MAP objective divides by: it must be normal."""
    s2 = density_sigma_squared(sigma, lam)
    return check_chain(U)[0], s2


def check_enumerable(n):
    """Raise SizeError unless active-set enumeration supports ``n`` rounds."""
    if n > MAX_ENUM_ROUNDS:
        raise SizeError(f"active-set enumeration supports N <= {MAX_ENUM_ROUNDS}, got {n}")


def _objective(path, lam, s2):
    """Chain log posterior at a feasible float path, the root pinned at x_1, s2 = sigma**2."""
    return _chain_log_posterior(np.concatenate((path[:1], path)), lam, s2)


def _free_segment(U, lo, hi, n, lam_s2):
    """The stationary point x[lo..hi] of one free segment, as a list.

    Anchors are x[lo-1] = U[lo-1] when lo > 0 and x[hi+1] = U[hi+1] when
    hi < n-1 (at least one exists because the active set is nonempty).
    The stationarity conditions form a symmetric tridiagonal system with off-diagonal
    -1 and diagonal equal to the number of chain neighbors; solved by the Thomas algorithm.
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
    x = [rhs[m - 1] / diag[m - 1]] * m
    for i in range(m - 2, -1, -1):
        x[i] = (rhs[i] + x[i + 1]) / diag[i]
    return x


def exact_map_active_set(U, lam, sigma):
    """Global constrained MAP by active-set enumeration.

    With no active round the objective is unbounded along the all-ones
    direction, so the optimum binds somewhere: it is the best nonempty set
    whose equality-constrained maximizer is feasible; ties keep the
    lexicographically smallest set. A maximizer is pieced together from its
    free segments, each fixed by the active rounds a < b around it (a = -1
    and b = n where there are none), so its (n + 1)(n + 2) / 2 - 1 pieces
    are solved once, on Python floats. An active round has x_k = U_k <= U_k
    + tol, so a set is feasible exactly when each of its pieces is: only the
    paths -1 -> n through feasible pieces are walked, not all 2^n - 1 sets.
    The paths through b extend those ending at a = -1, 0, ..., b - 1 in
    turn, which by induction lists their masks in increasing order: scored
    in that order with the arithmetic of ``chain_log_posterior``, as a loop
    over every set would, they give the same result to the bit.
    """
    U, s2 = _validate_chain_args(U, lam, sigma)
    n = len(U)
    check_enumerable(n)
    lam_s2 = float(lam) * s2
    feas_tol = 1e-9 * max(1.0, float(np.max(np.abs(U))))
    u = U.tolist()
    # Python floats: a bound near the float limit overflows to inf, unwarned
    cap = [v + feas_tol for v in u]
    # ends[b]: (mask of its rounds and b, x[0..b]) of each path -1 -> b, in mask order; piece
    # (a, b) holds x[a+1..b], feasible unless above U + tol (a NaN is; the objective refuses it)
    ends = {-1: [(0, [])]}
    for b in range(n + 1):
        ends[b] = []
        for a in range(-1, b):
            if ends[a] and (a, b) != (-1, n):  # the empty set has no anchor
                x = _free_segment(u, a + 1, b - 1, n, lam_s2) if b > a + 1 else []
                x += u[b:b + 1]
                if not any(v > c for v, c in zip(x, cap[a + 1:])):
                    ends[b] += [(mask | 1 << b, head + x) for mask, head in ends[a]]
    best = None
    bounds = np.concatenate((U[:1], U))  # of the root, pinned at x_1, and of x
    for mask, x in ends[n]:
        candidate = np.minimum(x[:1] + x, bounds)
        obj = _chain_log_posterior(candidate, lam, s2)
        members = tuple(k + 1 for k in range(n) if mask >> k & 1)
        tie_tol = 1e-12 * max(1.0, abs(best[0])) if best else 0.0
        if (best is None or obj > best[0] + tie_tol
                or (obj > best[0] - tie_tol and members < best[1])):
            best = (obj, members, candidate[1:])
    obj, members, path = best  # the set of every round is always feasible
    return MapSolution(path=path, objective=obj, active_set=frozenset(members))


def _hull_path(u, a):
    """The constrained MAP path of the Python floats ``u`` at unit shift a = lam sigma**2.

    With y_k = x_k + a k^2 / 2 the optimality conditions say that y is the
    greatest convex minorant of W_k = U_k + a k^2 / 2 over k = 1..N whose
    slopes lie in [a/2, a(2N + 1)/2], the slopes of x_0 = x_1 and
    x_{N+1} = x_N: one monotone-chain lower hull (Andrew 1979; Barlow et al.
    1972). W, which reaches 4e9 at N = 28 800, is never formed: a vertex j
    between i and k is dropped when slope(i, j) >= slope(j, k), that is when
    (U_j - U_i)/(j - i) - (U_k - U_j)/(k - j) >= a(k - i)/2, and an end
    segment whose slope lies outside the bounds is dropped too. Between
    vertices i < j the path is U_i + (k - i)(U_j - U_i)/(j - i) +
    a(k - i)(j - k)/2, and beyond the end vertices it follows the bounding
    slopes. A value that overflows, or rounds above U_k, is U_k.
    """
    n = len(u)
    hull = []
    for k in range(n):
        while len(hull) > 1:
            i, j = hull[-2], hull[-1]
            if not (u[j] - u[i]) / (j - i) - (u[k] - u[j]) / (k - j) >= a * (k - i) / 2.0:
                break
            hull.pop()
        hull.append(k)
    # 0-based rounds: slope(i, j) < a/2 and slope(i, j) > a(2N + 1)/2 in U's terms
    first, last = 0, len(hull) - 1
    while first < last:
        i, j = hull[first], hull[first + 1]
        if not (u[j] - u[i]) / (j - i) < -a * (i + j + 1) / 2.0:
            break
        first += 1
    while last > first:
        i, j = hull[last - 1], hull[last]
        if not (u[j] - u[i]) / (j - i) > a * (2 * n - 1 - i - j) / 2.0:
            break
        last -= 1
    p, q = hull[first], hull[last]
    x = [u[p] + a * (p - k) * (p + k + 1) / 2.0 for k in range(p)]
    for i, j in zip(hull[first:last], hull[first + 1:last + 1]):
        d = (u[j] - u[i]) / (j - i)
        x += [u[i] + (k - i) * d + a * (k - i) * (j - k) / 2.0 for k in range(i, j)]
    x += [u[q] + a * (k - q) * (2 * n - 1 - k - q) / 2.0 for k in range(q, n)]
    return [v if -math.inf < v < c else c for v, c in zip(x, u)]


def coordinate_ascent_map(U, lam, sigma, tol=1e-12, max_iters=200_000):
    """Cyclic clipped coordinate ascent on the chain objective.

    Each update is the closed-form maximizer of the 1-D concave
    quadratic in x_k given its neighbors, clipped at U_k. The objective
    is concave with unique per-coordinate maximizers, so the sweep
    converges to the global constrained maximum from any start. Terminates
    when the largest coordinate change in a sweep drops below ``tol``. The
    sweeps start from the lower-hull path of :func:`_hull_path`, which is
    the maximum up to rounding, so one sweep usually meets ``tol``; the
    answer is still the sweep's own fixed point, and the start decides only
    how many sweeps reach it. The sweeps run on Python floats, with the tie
    rules of ``min`` and ``max``.
    """
    U, s2 = _validate_chain_args(U, lam, sigma)
    # a Python float, which compares with Python floats without a cast to float32
    tol = float(check_real(tol, "tol", math.ulp(0.0)))
    max_iters = check_count(max_iters, "max_iters")
    n = len(U)
    lam_s2 = float(lam) * s2
    if n == 1:
        x = U.astype(float).copy()
        return MapSolution(path=x, objective=_objective(x, lam, s2), active_set=frozenset({1}))
    u = U.tolist()
    x = _hull_path(u, lam_s2)
    for _ in range(max_iters):
        delta = 0.0
        for k in range(n):
            if k == 0:
                prop = x[1] + lam_s2
            elif k == n - 1:
                prop = x[n - 2] + lam_s2
            else:
                prop = (x[k - 1] + x[k + 1] + lam_s2) / 2.0
            new = u[k] if u[k] < prop else prop
            change = abs(new - x[k])
            if change > delta:
                delta = change
            x[k] = new
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"coordinate ascent did not converge in {max_iters} sweeps", last_path=np.array(x)
        )
    atol = max(tol * 10.0, 1e-12)
    active = frozenset(k + 1 for k in range(n) if u[k] - x[k] <= atol)
    x = np.array(x)
    return MapSolution(path=x, objective=_objective(x, lam, s2), active_set=active)


def _quad_max_conv(values, step_sq_half_inv):
    """Upper envelope q[i] = max_j (values[j] - c (i - j)^2) on a uniform grid.

    ``c = step_sq_half_inv`` is h^2 / (2 sigma^2) in grid-index units.
    Linear-time lower-envelope-of-parabolas transform applied to the
    negated values (Felzenszwalb and Huttenlocher, 2012); entries equal
    to -inf are skipped. The breakpoints of neighbouring finite entries
    take one vector pass, in the stack loop's own expression: where they
    strictly increase, as for every concave input and so every grid
    message, the loop would pop nothing and they are its envelope, bit for
    bit. Otherwise the loop runs, on Python floats and ints read through
    memoryviews. The breakpoints never decrease, so the parabola at each i
    is found by one binary search.
    """
    n = len(values)
    finite = np.flatnonzero(np.isfinite(values))
    if len(finite) == 0:
        return np.full(n, -math.inf)
    c = step_sq_half_inv
    q, p = finite[1:], finite[:-1]
    with np.errstate(over="ignore"):
        z = ((q * q - p * p) - (values[q] - values[p]) / c) / (2.0 * (q - p))
    v = finite                 # indices of parabolas in the envelope
    if n > 2**31 or not np.all(z[1:] > z[:-1]):  # int64 squares of indices wrap past 2**31
        f = memoryview(values)
        v = [int(finite[0])]
        z = [-math.inf, math.inf]  # breakpoints between them
        for q in memoryview(finite[1:]):
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
        v, z = np.array(v), z[1:-1]
    i = np.arange(n)
    p = v[np.searchsorted(z, i, "left")]
    d = (i - p).astype(float)
    # c (i - p)^2 in the order of the scalar form; one that overflows is inf
    with np.errstate(over="ignore"):
        return values[p] - (c * d) * d


def grid_max_marginal(U, lam, sigma, lo, hi, points):
    """Discretized max-product sweep; returns the argmax of the xi_N max-marginal.

    Tabulates the forward max-marginal recursion on a uniform grid of
    ``points`` values over [lo, hi] and returns the grid value maximizing
    the final max-marginal. Approaches the continuous MAP coordinate as
    the grid is refined. Raises GridCoverageError when the argmax lands
    on a grid boundary or the grid misses the feasible region entirely.
    """
    U, s2 = _validate_chain_args(U, lam, sigma)
    # compared and spaced as Python floats, whatever the bounds' type
    low, high = float(check_real(lo, "lo")), float(check_real(hi, "hi"))
    if not (low < high and math.isfinite(high - low)):
        raise ParameterError(f"need lo < hi with hi - lo finite, got lo={lo}, hi={hi}")
    points = check_count(points, "points", low=2)
    grid = np.linspace(low, high, points)
    # squared in Python floats, so that an overflow is refused without a warning
    h = float(grid[1] - grid[0])
    c = check_real(h * h / (2.0 * s2), "grid step**2 / (2 sigma**2)",
                   math.ulp(0.0), FLOAT_MAX)
    # round each constraint boundary to the nearest grid point; flooring it
    # would bias every level's cut downward by up to a full step (Python
    # floats: a bound that overflows is inf and cuts nothing)
    cut = [v + h / 2.0 for v in U.tolist()]
    try:
        with np.errstate(over="raise"):
            linear = lam * grid
            msg = linear.copy()
            msg[grid > cut[0]] = -math.inf
            if not np.any(np.isfinite(msg)):
                raise GridCoverageError("grid lies entirely above U_1; no feasible point")
            for k in range(1, len(U)):
                msg = _quad_max_conv(msg, c) + linear
                msg[grid > cut[k]] = -math.inf
    except FloatingPointError:
        raise ParameterError(f"the max-marginals overflow on the grid (lam={lam}, "
                             f"lo={lo}, hi={hi})") from None
    i = int(np.argmax(msg))
    if not math.isfinite(msg[i]):
        raise GridCoverageError("final max-marginal is -inf everywhere on the grid")
    if i == 0 or i == points - 1:
        raise GridCoverageError(f"argmax landed on the grid boundary (index {i}); widen [lo, hi]")
    # sub-step refinement: the max-marginal is piecewise quadratic, so a three-point
    # vertex fit recovers the continuous peak when it lies inside a segment; at a
    # constraint cut a neighbor is -inf and the grid point itself is the peak
    left, mid, right = msg[i - 1:i + 2].tolist()  # Python floats overflow unwarned
    delta = 0.0
    if math.isfinite(left) and math.isfinite(right):
        den = 2.0 * (2.0 * mid - left - right)
        if den > 0.0:
            delta = (right - left) / den
            delta = max(-1.0, min(1.0, delta))
    return float(grid[i] + delta * h)
