"""Independent exact solvers for the constrained chain MAP problem.

The chain posterior maximized by the max-product estimator is, after
taking logs and dropping constants,

    f(x) = sum_{k=1..N} lam * x_k - sum_{k=2..N} (x_k - x_{k-1})^2 / (2 sigma^2)

subject to x_k <= U_k. The flat-prior root variable x_0 is eliminated
analytically (its optimum is x_0 = x_1, zeroing the first increment).
Three independent routes to the same optimum are provided: active-set
enumeration with tridiagonal equality solves, one forward elimination shared
by the pieces that start at each round, which walks only the feasible sets
and scores exactly only those a vector pass puts near the best, the O(N)
lower hull of U_k + lam sigma^2 k^2 / 2, whose path is the optimum up to
rounding, and a discretized max-product sweep on a grid, whose envelopes
take one vector pass where the input allows and are read out in linear
time. Each shortcut gives, bit for bit, the results of the full loop it
skips.
None of the oracles shares code with the estimators they validate.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError, ParameterError, SizeError
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


def _pieces(u, cap, a, lam_s2):
    """The free rounds x[a+1..b-1] of each piece (a, b), b = a+1, a+2, ..., as lists.

    Anchors are x[a] = u[a] when a >= 0 and x[b] = u[b] when b < n; a = -1
    stops at b = n - 1, since a piece needs an anchor. The stationarity
    conditions form a symmetric tridiagonal system with off-diagonal -1 and
    diagonal equal to the number of chain neighbors. The systems of the
    pieces from a share every row but the last, so one Thomas forward
    elimination serves them all: each piece eliminates only its own last
    row and back-substitutes, operation for operation as the Thomas
    algorithm on its own system. A piece is None once a round of it rises
    above ``cap`` (a NaN does not), and the rest of it is not solved.
    """
    n = len(u)
    diag, rhs = [], []  # rows a+1, a+2, ..., eliminated as rows that are not the last
    first = (2.0, lam_s2 + u[a]) if a >= 0 else (1.0, lam_s2)
    yield []
    for b in range(a + 2, n + 1 if a >= 0 else n):
        d, r = (2.0, lam_s2) if diag else first
        if b == n:
            d = 1.0
        else:
            r += u[b]
        if diag:
            w = -1.0 / diag[-1]
            d += w
            r -= w * rhs[-1]
            row = (2.0 + w, lam_s2 - w * rhs[-1])
        else:
            row = first
        x = [r / d] * (len(diag) + 1)
        k = len(diag)  # x[k] is round a+1+k; back-substitute while each is within cap
        while k >= 0 and not x[k] > cap[a + 1 + k]:
            k -= 1
            if k >= 0:
                x[k] = (rhs[k] + x[k + 1]) / diag[k]
        diag.append(row[0])
        rhs.append(row[1])
        yield x if k < 0 else None


def exact_map_active_set(U, lam, sigma):
    """Global constrained MAP by active-set enumeration.

    With no active round the objective is unbounded along the all-ones
    direction, so the optimum binds somewhere: it is the best nonempty set
    whose equality-constrained maximizer is feasible; ties keep the
    lexicographically smallest set. A maximizer is pieced together from its
    free segments, each fixed by the active rounds a < b around it (a = -1
    and b = n where there are none), so each of its (n + 1)(n + 2) / 2 - 1
    pieces is solved at most once, on Python floats, by :func:`_pieces`:
    the pieces from one round a share one forward elimination, and a piece
    is dropped at its first round above U + tol. An active round has
    x_k = U_k <= U_k + tol, so a set is feasible exactly when each of its
    pieces is: only the paths -1 -> n through feasible pieces are walked,
    not all 2^n - 1 sets. The walk takes a = -1, 0, ..., n - 1 in turn, once
    every path to a is listed, and extends those paths through each b > a,
    so the paths through b extend those ending at a = -1, 0, ..., b - 1 in
    turn, which by induction lists their masks in increasing order. The
    feasible paths are gathered into one 2-D array of candidates.

    One vector pass scores every feasible set approximately, and only the
    sets within 1e-6 (1 + S) of the best approximate score, S the largest
    quad + lam sum |x|, are scored exactly, in mask order, with the
    arithmetic of ``chain_log_posterior``. This gives the bits of a loop
    that scores every set: the tie tolerance never exceeds 1e-12 (1 + S),
    so a set below a wider gap neither replaces a set above it nor keeps
    its place against one, and the answer depends only on the sets linked
    to the best by steps within the tolerance. At most 4094 steps span
    4.1e-9 (1 + S), which the margin holds with room for the rounding of
    both scores. Where a score could near the float limit every set is
    scored, so the first one refused, if any, is the same.
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
    ends = {-1: [(0, [])], **{b: [] for b in range(n + 1)}}
    for a in range(-1, n):
        if ends[a]:
            for b, x in enumerate(_pieces(u, cap, a, lam_s2), a + 1):
                if x is not None:  # x[b] = u[b] <= cap[b]
                    x += u[b:b + 1]
                    ends[b] += [(mask | 1 << b, head + x) for mask, head in ends[a]]
    masks, paths = zip(*ends[n])
    xs = np.fromiter(itertools.chain.from_iterable(paths), float, n * len(paths)).reshape(-1, n)
    bounds = np.concatenate((U[:1], U))  # of the root, pinned at x_1, and of x
    rows = np.minimum(np.concatenate((xs[:, :1], xs), axis=1), bounds)  # each set's candidate
    with np.errstate(over="ignore", invalid="ignore"):
        incr = rows[:, 1:] - rows[:, :-1]
        sq = (incr * incr).sum(axis=1)
        quad = sq / (2.0 * s2)
        approx = lam * rows[:, 1:].sum(axis=1) - quad
        scale = quad + lam * np.abs(rows[:, 1:]).sum(axis=1)
        # then no score overflows, so none is refused, and each is within rounding of approx
        safe = np.all((sq < FLOAT_MAX / 4) & (scale < FLOAT_MAX / 4))
        # 1e-6 (1 + S) holds the 4094 tie steps of at most 1e-12 (1 + S) that can
        # link a set to the best, and the rounding of both scores, with room to spare
        keep = (approx >= approx.max() - 1e-6 * (1.0 + scale.max())) | (not safe)
    best = None
    for j in np.flatnonzero(keep).tolist():
        candidate = rows[j]
        obj = _chain_log_posterior(candidate, lam, s2)
        members = tuple(k + 1 for k in range(n) if masks[j] >> k & 1)
        tie_tol = 1e-12 * max(1.0, abs(best[0])) if best else 0.0
        if (best is None or obj > best[0] + tie_tol
                or (obj > best[0] - tie_tol and members < best[1])):
            best = (obj, members, candidate[1:])
    obj, members, path = best  # the set of every round is always feasible
    # a copy: a view would hold every candidate
    return MapSolution(path=path.copy(), objective=obj, active_set=frozenset(members))


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


def hull_map(U, lam, sigma):
    """Constrained MAP in O(N): the path of :func:`_hull_path`, the optimum up to rounding.

    The active set is the rounds where the path equals U_k; one round is
    its own hull, so a single-round chain returns U itself.
    """
    U, s2 = _validate_chain_args(U, lam, sigma)
    u = U.tolist()
    x = _hull_path(u, float(lam) * s2)
    active = frozenset(k + 1 for k in range(len(u)) if x[k] == u[k])
    x = np.array(x)
    return MapSolution(path=x, objective=_objective(x, lam, s2), active_set=active)


# the benchmark calls and traces this name; ROADMAP item 1 re-points it and removes it
coordinate_ascent_map = hull_map


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
    memoryviews. The breakpoints never decrease, so the parabola v[m]
    covers the grid points i with z[m-1] < i <= z[m], floor(z[m]) -
    floor(z[m-1]) of them with z clipped to [-1, n - 1], and the read-out
    repeats each parabola that many times: it is linear, as the scalar
    loop's read-out is, and picks the parabola that a binary search for
    each i would.
    """
    n = len(values)
    finite = np.flatnonzero(np.isfinite(values))
    if len(finite) == 0:
        return np.full(n, -math.inf)
    c = step_sq_half_inv
    top = values[finite]       # apexes and roots of the parabolas in the envelope
    v = finite.astype(float)
    q, p = v[1:], v[:-1]
    with np.errstate(over="ignore"):
        z = ((q * q - p * p) - (top[1:] - top[:-1]) / c) / (2.0 * (q - p))
    if n > 2**26 or not np.all(z[1:] > z[:-1]):  # float squares of indices round past 2**26
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
        top, v, z = values[v], np.array(v, dtype=float), z[1:-1]
    # floor(z[m]) + 1 grid points lie at or below z[m], with z clipped to [-1, n - 1]
    last = np.empty(len(v) + 1)
    last[0], last[-1] = -1.0, n - 1.0
    inner = last[1:-1]
    np.floor(np.clip(z, -1.0, n - 1.0, out=inner), out=inner)
    counts = (last[1:] - last[:-1]).astype(np.intp)
    d = np.arange(n, dtype=float) - np.repeat(v, counts)
    # c (i - p)^2 in the order of the scalar form; one that overflows is inf
    with np.errstate(over="ignore"):
        return np.repeat(top, counts) - (c * d) * d


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
    # floats: a bound that overflows is inf and cuts nothing). The grid
    # never decreases, so the points above a cut are the suffix from its
    # index, and the grid misses U_1 when that index is 0
    cut = np.searchsorted(grid, [v + h / 2.0 for v in U.tolist()], "right").tolist()
    try:
        with np.errstate(over="raise"):
            linear = lam * grid
            if cut[0] == 0:
                raise GridCoverageError("grid lies entirely above U_1; no feasible point")
            msg = linear.copy()
            msg[cut[0]:] = -math.inf
            for k in range(1, len(U)):
                msg = _quad_max_conv(msg, c) + linear
                msg[cut[k]:] = -math.inf
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
