import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgclock import (
    ClockModelParams,
    ConvergenceError,
    DegenerateModelError,
    FgclockError,
    GridCoverageError,
    ParameterError,
    SizeError,
    backtrack_estimate,
    chain_log_posterior,
    coordinate_ascent_map,
    exact_map_active_set,
    grid_max_marginal,
    simulate_observations,
    simulate_paths,
)
from fgclock import oracle
from fgclock.oracle import _quad_max_conv


def random_instance(i, n=None, lam=1.0, sigma=0.1, master=17):
    rng = np.random.default_rng([master, i])
    if n is None:
        n = int(rng.integers(1, 11))
    params = ClockModelParams(lam, lam, sigma, 1.0, 0.3, n)
    path = simulate_paths(params, seed=[master, i, 0])
    obs = simulate_observations(path, params, seed=[master, i, 1])
    return obs.U


def objective(path, U, lam, sigma):
    return chain_log_posterior(np.concatenate(([path[0]], path)), U, lam, sigma)


def kkt_residuals(path, U, lam, sigma, atol=1e-9):
    """(max |grad| over free coords, min grad over active coords)."""
    n = len(path)
    g = np.full(n, lam)
    d = np.diff(path) / sigma**2
    g[:-1] += d
    g[1:] -= d
    active = U - path <= atol
    free_res = np.max(np.abs(g[~active])) if np.any(~active) else 0.0
    active_res = np.min(g[active]) if np.any(active) else np.inf
    return free_res, active_res


class TestExactMap:
    def test_hand_worked_example(self):
        sol = exact_map_active_set([0.0, 10.0, 10.0], 1.0, 1.0)
        np.testing.assert_allclose(sol.path, [0.0, 2.0, 3.0], atol=1e-12)
        assert sol.active_set == frozenset({1})

    def test_translation_equivariance(self):
        for c in (-3.5, 0.25, 7.0):
            sol = exact_map_active_set([c, c + 10.0, c + 10.0], 1.0, 1.0)
            np.testing.assert_allclose(sol.path, [c, c + 2.0, c + 3.0], atol=1e-9)

    def test_single_round(self):
        sol = exact_map_active_set([4.2], 1.0, 0.5)
        assert sol.path[0] == pytest.approx(4.2)
        assert sol.active_set == frozenset({1})

    def test_huge_shift_dominated_by_minimum(self):
        # with lam*sigma^2 dwarfing the data spread the minimum binds and
        # the path climbs (clipping as needed) beyond it
        rng = np.random.default_rng(0)
        U = rng.permutation([1.0, 2.0, 3.0, 4.0, 5.0])
        sol = exact_map_active_set(U, 100.0, 1.0)
        ca = coordinate_ascent_map(U, 100.0, 1.0)
        k = int(np.argmin(U))
        assert (k + 1) in sol.active_set
        assert np.all(np.diff(sol.path[k:]) >= -1e-9)
        np.testing.assert_allclose(sol.path, ca.path, atol=1e-8)

    def test_feasibility_and_kkt(self):
        for i in range(60):
            U = random_instance(i)
            sol = exact_map_active_set(U, 1.0, 0.1)
            assert np.all(sol.path <= U + 1e-9)
            free_res, active_res = kkt_residuals(sol.path, U, 1.0, 0.1)
            assert free_res <= 1e-8
            assert active_res >= -1e-8

    def test_size_limit(self):
        with pytest.raises(SizeError):
            exact_map_active_set(np.ones(13), 1.0, 0.1)

    def test_sigma_zero_unsupported(self):
        with pytest.raises(DegenerateModelError):
            exact_map_active_set([1.0, 2.0], 1.0, 0.0)


class TestCoordinateAscent:
    def test_single_round(self):
        sol = coordinate_ascent_map([4.2], 1.0, 0.5)
        assert sol.path[0] == 4.2

    def test_unconstrained_tail_stationarity(self):
        # nondecreasing data with large gaps: final coordinate interior,
        # so xi_N - xi_{N-1} = lam * sigma^2 at the optimum
        lam, sigma = 2.0, 0.5
        sol = coordinate_ascent_map([0.0, 10.0, 20.0, 30.0], lam, sigma)
        assert sol.path[-1] - sol.path[-2] == pytest.approx(lam * sigma**2, abs=1e-9)

    def test_agrees_with_exact_enumeration(self):
        rng = np.random.default_rng(31)
        for i in range(300):
            lam = float(rng.choice([1.0, 10.0]))
            sigma = float(rng.choice([1e-2, 1e-1]))
            U = random_instance(i, lam=lam, sigma=sigma, master=23)
            exact = exact_map_active_set(U, lam, sigma)
            ca = coordinate_ascent_map(U, lam, sigma)
            np.testing.assert_allclose(ca.path, exact.path, atol=1e-8)
            assert abs(ca.objective - exact.objective) <= 1e-8 * max(
                1.0, abs(exact.objective)
            )

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            coordinate_ascent_map([1.0], 1.0, 0.1, tol=0.0)

    @pytest.mark.parametrize("tol", ["1e-3", None, True])
    def test_tol_must_be_a_positive_number(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            coordinate_ascent_map([1.0, 2.0], 1.0, 0.1, tol=tol)

    def test_float32_tol_is_compared_as_a_float(self):
        # 1e185 cast to float32 to be compared with the tolerance would overflow
        # (pytest makes a RuntimeWarning an error)
        sol = coordinate_ascent_map([0.0, 1e185], 10.0, 10.0, tol=np.float32(10.0))
        assert sol.path.tolist() == [0.0, 1000.0]

    def test_convergence_error_carries_last_path(self):
        # the sweep from the hull start moves some round by an ulp, which the
        # smallest tol does not forgive
        U = random_instance(4, n=8)
        with pytest.raises(ConvergenceError) as exc:
            coordinate_ascent_map(U, 1.0, 0.1, tol=5e-324, max_iters=1)
        path = exc.value.last_path
        assert path.shape == (8,) and np.isfinite(path).all()

    @pytest.mark.parametrize("U, sigma, message", [
        ([-1.7e308, 1.7e308], 1.0, "chain log posterior"),
        ([1.7e308, -1.7e308, 1.7e308], 1.0, "candidate"),
        # lam sigma**2 = 1e308: the hull's value at round 2 is NaN, and starts at U_2
        ([-1e308, -1.7e308, 1.7e308], 1e154, "chain log posterior"),
    ])
    def test_overflowing_hull_differences_leave_the_objective_to_refuse(self, U, sigma, message):
        # the hull's differences overflow; the sweeps still end where the cold
        # start's did, at a path whose log posterior is refused
        with pytest.raises(ParameterError, match=message):
            coordinate_ascent_map(U, 1.0, sigma)

    @pytest.mark.parametrize("max_iters", [2.5, "5", 0])
    def test_max_iters_must_be_a_whole_number(self, max_iters):
        with pytest.raises(ParameterError, match="max_iters"):
            coordinate_ascent_map([1.0, 2.0], 1.0, 0.1, max_iters=max_iters)


class TestOracleNeverBeaten:
    def test_backtracked_path_never_exceeds_oracle(self):
        for i in range(40):
            U = random_instance(i, master=29)
            sol = exact_map_active_set(U, 1.0, 0.1)
            bt = backtrack_estimate(U, 1.0, 0.1)
            assert objective(sol.path, U, 1.0, 0.1) >= (
                objective(bt.xi_hat, U, 1.0, 0.1) - 1e-8
            )


class TestGridMaxMarginal:
    def test_hand_worked_example(self):
        got = grid_max_marginal([0.0, 10.0, 10.0], 1.0, 1.0, lo=-5.0, hi=11.0,
                                points=4096)
        assert abs(got - 3.0) <= 16.0 / 4095

    def test_single_round_snaps_to_nearest_grid_point(self):
        got = grid_max_marginal([4.2], 1.0, 0.5, lo=0.0, hi=5.0, points=1001)
        assert abs(got - 4.2) <= 5.0 / 2000

    def test_refinement_halves_deviation(self):
        U = random_instance(3, n=4, master=41)
        lam, sigma = 1.0, 0.1
        truth = exact_map_active_set(U, lam, sigma).path[-1]
        lo = float(np.min(U)) - 5 * sigma * 2
        hi = float(np.max(U)) + 0.5
        worst = []
        for points in (1024, 2048):
            got = grid_max_marginal(U, lam, sigma, lo, hi, points)
            worst.append(abs(got - truth))
        step = (hi - lo) / 1023
        assert worst[1] <= worst[0] + 1e-12 or worst[1] <= step
        assert worst[1] <= (hi - lo) / 2047

    def test_coverage_error_when_grid_misses(self):
        with pytest.raises(GridCoverageError):
            grid_max_marginal([0.0, 0.0], 1.0, 0.1, lo=1.0, hi=2.0, points=512)

    def test_boundary_argmax_detected(self):
        # grid whose upper edge sits below the optimum
        with pytest.raises(GridCoverageError):
            grid_max_marginal([10.0], 1.0, 0.1, lo=0.0, hi=5.0, points=512)

    def test_bad_bounds(self):
        with pytest.raises(ParameterError):
            grid_max_marginal([1.0], 1.0, 0.1, lo=2.0, hi=1.0, points=512)

    @pytest.mark.parametrize(
        "lo, hi",
        [(-math.inf, 5.0), (0.0, math.inf), (-1e308, 1e308),
         (np.float64(-1e308), np.float64(1e308))],
    )
    def test_bounds_must_span_a_finite_range(self, lo, hi):
        with pytest.raises(ParameterError, match="lo < hi"):
            grid_max_marginal([1.0], 1.0, 0.1, lo=lo, hi=hi, points=512)

    @pytest.mark.parametrize(
        "lo, hi",
        [("0", 5.0), (0.0, None), (True, 5.0), pytest.param(0.0, 10**400, id="0.0-10**400")],
    )
    def test_bounds_must_be_numbers(self, lo, hi):
        with pytest.raises(ParameterError, match="lo|hi"):
            grid_max_marginal([1.0], 1.0, 0.1, lo=lo, hi=hi, points=512)

    @pytest.mark.parametrize(
        "lo, hi", [(-1e200, 1e200), (1.0, math.nextafter(1.0, 2.0))]
    )
    def test_grid_step_square_must_be_finite_and_positive(self, lo, hi):
        # the step squared overflows, or the step rounds to 0
        with pytest.raises(ParameterError, match="grid step"):
            grid_max_marginal([1.0], 1.0, 0.1, lo=lo, hi=hi, points=512)

    @pytest.mark.parametrize("points", [math.nan, math.inf])
    def test_points_must_be_a_whole_number(self, points):
        with pytest.raises(ParameterError, match="points"):
            grid_max_marginal([1.0], 1.0, 0.1, lo=0.0, hi=2.0, points=points)

    @pytest.mark.parametrize("U, lam, sigma, lo, hi, points", [
        # lam * max(|lo|, |hi|) overflows
        ([-1.41e70, -2.80e70], 2.73e291, 2.70e-82, -5.60e70, 1.39e70, 65),
        # lam * hi does not, but the two rounds' messages add up past the limit
        ([1e10, 1e12], 1e298, 1e-145, 1e10 - 1e8, 1e10 + 2e8, 4097),
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_max_marginals_are_refused(self, U, lam, sigma, lo, hi, points):
        # refused with no warning of any kind
        with pytest.raises(ParameterError, match="max-marginals overflow"):
            grid_max_marginal(U, lam, sigma, lo, hi, points)

    def test_peak_near_the_float_limit_is_finite(self):
        # the peak max-marginal is about 1.2e308, so twice it overflows in the
        # vertex fit; the grid point is then the answer, within a step of
        # x_2 = U_1 + lam sigma^2
        lo, hi, points = 1e10 - 1e8, 1e10 + 2e8, 4097
        got = grid_max_marginal([1e10, 1e12], 6e297, 1e-145, lo, hi, points)
        assert abs(got - (1e10 + 6e7)) <= (hi - lo) / (points - 1)


def literal_feasible_sets(U, lam, sigma):
    """(active rounds, x) of every feasible set in mask order, each set's free
    segments solved on numpy scalars as in the first release."""
    n = len(U)
    lam_s2 = lam * sigma**2
    cap = U + 1e-9 * max(1.0, float(np.max(np.abs(U))))
    for mask in range(1, 1 << n):
        active = [k for k in range(n) if mask >> k & 1]
        x = U.copy()
        for lo, hi in zip([0, *(k + 1 for k in active)], [*(k - 1 for k in active), n - 1]):
            m = hi - lo + 1
            if m == 0:
                continue
            diag, rhs = [2.0] * m, [lam_s2] * m
            if lo == 0:
                diag[0] = 1.0
            else:
                rhs[0] += U[lo - 1]
            if hi == n - 1:
                diag[-1] = 1.0
            else:
                rhs[-1] += U[hi + 1]
            for i in range(1, m):
                w = -1.0 / diag[i - 1]
                diag[i] += w
                rhs[i] -= w * rhs[i - 1]
            x[hi] = rhs[m - 1] / diag[m - 1]
            for i in range(m - 2, -1, -1):
                x[lo + i] = (rhs[i] + x[lo + i + 1]) / diag[i]
        if not np.any(x > cap):
            yield active, x


def literal_exact_map(U, lam, sigma):
    """The first release's enumeration, one set at a time over all 2^n - 1
    sets in mask order: the reference."""
    best = None
    for active, x in literal_feasible_sets(U, lam, sigma):
        obj = objective(np.minimum(x, U), U, lam, sigma)
        members = tuple(k + 1 for k in active)
        if best is None or obj > best[0] + 1e-12 * max(1.0, abs(best[0])):
            best = (obj, members, x)
        elif obj > best[0] - 1e-12 * max(1.0, abs(best[0])) and members < best[1]:
            best = (obj, members, x)
    return np.minimum(best[2], U), best[0], frozenset(best[1])


def literal_coordinate_ascent(U, lam, sigma, start, tol, max_iters):
    """The first release's sweeps on numpy scalars, from the path ``start``:
    the last path and whether it converged."""
    n = len(U)
    lam_s2 = lam * sigma**2
    x = np.array(start, dtype=float)
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
            return x, True
    return x, False


LITERAL_CASES = [
    *((random_instance(i, lam=lam, sigma=sigma, master=43), lam, sigma)
      for i, (lam, sigma) in enumerate([(1.0, 0.1), (10.0, 1e-2), (0.5, 1.0), (100.0, 1e-3)] * 8)),
    (np.full(6, 2.5), 1.0, 1e-7),
    (np.array([-0.0, 0.0, -0.0, 0.0, -0.0]), 2.0, 0.3),
    (0.125 * np.array([0.0, 4.0, 7.0, 9.0, 10.0]), 0.5, 0.5),
    # objectives within the tie tolerance of one another, where the order in
    # which the sets are visited picks the winner
    (np.array([0.0, 0.0, 1.0, 2.0, 1.0, 0.0]), 1.0, 1e-7),
    # a proposal of +0.0 against U_1 = -0.0: the tie keeps the proposal
    (np.array([-0.0, -0.125]), 0.5, 0.5),
]


class TestLiteralReferences:
    """The oracles' Python-float loops give the numpy-scalar loops' bits."""

    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    def test_exact_map_equals_reference(self, case):
        U, lam, sigma = LITERAL_CASES[case]
        sol = exact_map_active_set(U, lam, sigma)
        path, obj, active = literal_exact_map(U, lam, sigma)
        assert sol.path.tobytes() == path.tobytes()
        assert (sol.objective, sol.active_set) == (obj, active)

    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    # the hull start meets 1e-12 in one sweep; the smallest tol only a sweep that
    # changes nothing meets, so one sweep ends in ConvergenceError on many cases
    @pytest.mark.parametrize("tol, max_iters", [(1e-12, 3), (1e-12, 200_000), (5e-324, 1)])
    def test_coordinate_ascent_equals_reference(self, case, tol, max_iters):
        U, lam, sigma = LITERAL_CASES[case]
        if len(U) == 1:
            return
        start = oracle._hull_path(U.tolist(), lam * sigma**2)
        want, converged = literal_coordinate_ascent(U, lam, sigma, start, tol, max_iters)
        if converged:
            got = coordinate_ascent_map(U, lam, sigma, tol, max_iters).path
        else:
            with pytest.raises(ConvergenceError) as exc:
                coordinate_ascent_map(U, lam, sigma, tol, max_iters)
            got = exc.value.last_path
        assert got.tobytes() == want.tobytes()

    # reals, reals rounded to 0.1, and a few values with signed zeros: the last
    # two give exact ties and ties within the tolerance
    @given(
        U=st.lists(
            st.one_of(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0).map(lambda v: round(v, 1)),
                      st.sampled_from([-0.0, 0.0, 0.125, 1.0])),
            min_size=1, max_size=10,
        ).map(np.array),
        lam=st.sampled_from([0.5, 1.0, 10.0, 100.0]),
        sigma=st.sampled_from([1e-7, 1e-3, 1e-2, 0.1, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_chains_equal_reference(self, U, lam, sigma):
        sol = exact_map_active_set(U, lam, sigma)
        path, obj, active = literal_exact_map(U, lam, sigma)
        assert sol.path.tobytes() == path.tobytes()
        assert (sol.objective, sol.active_set) == (obj, active)

    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    def test_objective_scores_each_feasible_set_once_in_mask_order(self, case, monkeypatch):
        U, lam, sigma = LITERAL_CASES[case]
        scored = []

        def record(candidate, *args):
            scored.append(candidate.tobytes())
            return core(candidate, *args)

        core = oracle._chain_log_posterior
        monkeypatch.setattr(oracle, "_chain_log_posterior", record)
        exact_map_active_set(U, lam, sigma)
        want = []
        for _, x in literal_feasible_sets(U, lam, sigma):
            path = np.minimum(x, U)
            want.append(np.concatenate(([path[0]], path)).tobytes())
        assert scored == want


class TestOraclesConsistent:
    def test_objectives_match_across_routes(self):
        for i in range(50):
            U = random_instance(i, master=37)
            exact = exact_map_active_set(U, 1.0, 0.1)
            ca = coordinate_ascent_map(U, 1.0, 0.1)
            assert abs(exact.objective - ca.objective) <= 1e-8


ORACLES = {
    "exact": lambda U, lam, sigma: exact_map_active_set(U, lam, sigma),
    "coordinate-ascent": lambda U, lam, sigma: coordinate_ascent_map(U, lam, sigma),
    "grid": lambda U, lam, sigma: grid_max_marginal(U, lam, sigma, -5.0, 5.0, 64),
}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize(
    "lam, sigma, U, error",
    [
        (1.0, 1e200, [1.0, 0.5], ParameterError),
        (1e300, 1e5, [1.0, 0.5], ParameterError),
        (math.inf, 0.1, [1.0, 0.5], ParameterError),
        (math.nan, 0.1, [1.0, 0.5], ParameterError),
        (1.0, 1e-200, [1.0, 0.5], DegenerateModelError),
        (1.0, 1e-160, [1.0, 0.5], DegenerateModelError),
        (1.0, 0.1, [1.0, math.nan], ParameterError),
        (1.0, 0.1, [math.inf, 0.5], ParameterError),
    ],
)
def test_invalid_inputs_raise(oracle, lam, sigma, U, error):
    # the oracles share the estimators' validation: no OverflowError,
    # NaN objective or RuntimeWarning at extreme parameters
    with pytest.raises(error):
        ORACLES[oracle](U, lam, sigma)


def dense_map_candidates(U, lam, sigma):
    """{active set: objective} of every feasible set, by dense linear solves.

    The stationarity conditions of the free rounds F are L_FF x_F =
    lam sigma^2 - L_FA U_A, with L the Laplacian of the chain whose first
    increment is zero (x_0 = x_1).
    """
    n = len(U)
    L = np.diag(np.r_[1.0, np.full(n - 2, 2.0), 1.0]) if n > 1 else np.zeros((1, 1))
    L -= np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(U))))
    out = {}
    for mask in range(1, 1 << n):
        A = np.array([mask >> k & 1 for k in range(n)], dtype=bool)
        x = U.copy()
        if (~A).any():
            rhs = lam * sigma**2 - L[np.ix_(~A, A)] @ U[A]
            x[~A] = np.linalg.solve(L[np.ix_(~A, ~A)], rhs)
        if np.all(x <= U + tol):
            members = tuple(int(k) + 1 for k in np.flatnonzero(A))
            out[members] = objective(np.minimum(x, U), U, lam, sigma)
    return out


class TestTiesAndOverflow:
    @pytest.mark.parametrize("U", [
        *(np.full(n, value) for n in (1, 2, 5, 8) for value in (0.0, -0.0, 3.5, -1e3)),
        np.array([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0]),
    ], ids=lambda U: repr(U.tolist()))
    def test_constant_chain_keeps_the_smallest_set(self, U):
        # lam sigma^2 = 1e-14: every free segment lies within the feasibility
        # tolerance of U, so all 2^n - 1 sets are feasible and tie
        sol = exact_map_active_set(U, 1.0, 1e-7)
        assert sol.active_set == frozenset({1})
        np.testing.assert_allclose(sol.path, U, rtol=1e-15, atol=1e-13)

    @pytest.mark.parametrize("U, tied, want", [
        # the free tail after round 1 has increments 4a, 3a, 2a, a and meets
        # every U_k, so each set holding round 1 gives the same path
        ([0.0, 4.0, 7.0, 9.0, 10.0], 16, {1}),
        # the same after round 2, where U_1 lies far above the free x_1
        ([40.0, 0.0, 3.0, 5.0, 6.0], 8, {2}),
    ])
    def test_ties_keep_the_lexicographically_smallest_set(self, U, tied, want):
        # lam sigma^2 = a = 0.125; the dense reference finds the tie
        U = 0.125 * np.array(U)
        candidates = dense_map_candidates(U, 0.5, 0.5)
        best = max(candidates.values())
        near = [s for s, obj in candidates.items() if obj >= best - 1e-12 * max(1.0, abs(best))]
        assert len(near) == tied and set(min(near)) == want
        sol = exact_map_active_set(U, 0.5, 0.5)
        assert sol.active_set == frozenset(want)
        assert abs(sol.objective - best) <= 1e-15

    @pytest.mark.parametrize("U", [
        np.full(4, 1e308), np.full(4, -1e308), np.array([1.7e308, -1.7e308, 1.7e308]),
        np.array([1e308, 1.5e308, 1.7e308, 1.79e308]), -np.array([1e308, 1.5e308, 1.7e308]),
        np.array([-1.79e308, 0.0, 1.79e308]), np.array([1.7976931348623157e308]),
        np.full(3, -1.7976931348623157e308),
    ], ids=lambda U: repr(U.tolist()))
    @pytest.mark.parametrize("lam, sigma", [(1.0, 1.0), (10.0, 1e-2), (1e-3, 1e150)])
    def test_chains_near_the_float_limit(self, U, lam, sigma):
        # a finite answer or an FgclockError, with no overflow warning (pytest
        # makes a RuntimeWarning an error)
        spread = 1e-9 * float(np.max(np.abs(U)))
        calls = [
            lambda: exact_map_active_set(U, lam, sigma),
            lambda: coordinate_ascent_map(U, lam, sigma, max_iters=500),
            lambda: grid_max_marginal(U, lam, sigma, float(np.min(U)) - spread,
                                      float(np.max(U)) + spread, 513),
            lambda: grid_max_marginal(U, lam, sigma, -1e150, 1e150, 513),
        ]
        for call in calls:
            try:
                got = call()
            except FgclockError:
                continue
            values = [got] if isinstance(got, float) else [*got.path, got.objective]
            assert all(math.isfinite(v) for v in values)


def assert_hull_path_is_the_map(U, lam, sigma):
    """The hull path agrees with enumeration, and binds at its active set."""
    sol = exact_map_active_set(U, lam, sigma)
    x = np.array(oracle._hull_path(U.tolist(), lam * sigma**2))
    assert np.all(np.abs(x - sol.path) <= 1e-9 * max(1.0, float(np.max(np.abs(U)))))
    active = frozenset((np.flatnonzero(x == U) + 1).tolist())
    if active != sol.active_set:
        # a tie, which enumeration breaks to the lexicographically smallest set:
        # both sets must be among the best
        candidates = dense_map_candidates(U, lam, sigma)
        best = max(candidates.values())
        near = {frozenset(s) for s, obj in candidates.items()
                if obj >= best - 1e-12 * max(1.0, abs(best))}
        assert active in near and sol.active_set in near


class TestHullPath:
    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    def test_literal_cases_equal_enumeration(self, case):
        assert_hull_path_is_the_map(*LITERAL_CASES[case])

    def test_generated_chains_equal_enumeration(self):
        # reals, reals rounded to 0.1, and signed zeros and small dyadics, which tie
        rng = np.random.default_rng(67)
        for _ in range(2000):
            n = int(rng.integers(1, 11))
            kind = rng.integers(3, size=n)
            U = np.where(kind == 0, rng.uniform(-10.0, 10.0, n),
                         np.where(kind == 1, np.round(rng.uniform(-10.0, 10.0, n), 1),
                                  rng.choice([-0.0, 0.0, 0.125, 1.0], n)))
            lam = float(rng.choice([0.5, 1.0, 10.0, 100.0]))
            sigma = float(rng.choice([1e-7, 1e-3, 1e-2, 0.1, 0.5, 1.0]))
            assert_hull_path_is_the_map(U, lam, sigma)

    @pytest.mark.parametrize("U", [[-1e308, -1.7e308, 1.7e308], [-1.7e308, *[1.7e308] * 3]])
    def test_overflowing_values_are_u(self, U):
        # at lam sigma**2 = 1e308 the fill overflows to NaN or inf
        assert oracle._hull_path(U, 1e308) == U

    @pytest.mark.parametrize("n", [1000, 28_800])
    def test_long_model_chains_take_one_sweep_to_the_map(self, n):
        # max_iters=1: the sweep from the hull start moves no round by 1e-12
        U = random_instance(n, n=n, lam=10.0, sigma=1e-2, master=71)
        got = coordinate_ascent_map(U, 10.0, 1e-2, max_iters=1).path[-1]
        want = backtrack_estimate(U, 10.0, 1e-2).xi_hat[-1]
        assert abs(got - want) <= 1e-8 * max(1.0, float(np.max(np.abs(U))))


def literal_quad_max_conv(values, c):
    """The envelope with a scalar read-out, indexing numpy scalars: the reference."""
    finite = np.flatnonzero(np.isfinite(values))
    out = np.full(len(values), -math.inf)
    if len(finite) == 0:
        return out
    v, z = [int(finite[0])], [-math.inf, math.inf]
    for q in finite[1:].tolist():
        while True:
            p = v[-1]
            s = ((q * q - p * p) - (values[q] - values[p]) / c) / (2.0 * (q - p))
            if s <= z[-2] and len(v) > 1:
                v.pop()
                z.pop()
            else:
                break
        v.append(q)
        z[-1] = s
        z.append(math.inf)
    j = 0
    for i in range(len(values)):
        while z[j + 1] < i:
            j += 1
        out[i] = values[v[j]] - c * (i - v[j]) * (i - v[j])
    return out


def neighbour_breakpoints(values, c):
    """Where the parabolas rooted at neighbouring finite entries intersect."""
    q = np.flatnonzero(np.isfinite(values)).tolist()
    return [((b * b - a * a) - (values[b] - values[a]) / c) / (2.0 * (b - a))
            for a, b in zip(q, q[1:])]


def brute_quad_max_conv(values, c):
    i = np.arange(len(values), dtype=float)
    return np.max(values[None, :] - c * (i[:, None] - i[None, :]) ** 2, axis=1)


class TestQuadMaxConv:
    @pytest.mark.parametrize("c", [1e-3, 0.37, 1.0, 50.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 513])
    def test_matches_brute_force(self, c, n):
        rng = np.random.default_rng([n, int(c * 1000)])
        cases = [
            rng.normal(0.0, 10.0, n),
            np.where(rng.random(n) < 0.4, -math.inf, rng.normal(0.0, 10.0, n)),
            np.full(n, -math.inf),
            np.where(np.arange(n) == n // 2, 3.0, -math.inf),
            rng.choice([0.0, 1.0, 2.5], size=n),  # ties
            np.full(n, 7.25),
            -c * (np.arange(n) - n / 3.0) ** 2,  # a single parabola's own shape
        ]
        for values in cases:
            got = _quad_max_conv(values, c)
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()
            want = brute_quad_max_conv(values, c)
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            finite = np.isfinite(want)
            assert np.isfinite(got[finite]).all()
            assert np.all(np.abs(got[finite] - want[finite])
                          <= 1e-12 * np.maximum(1.0, np.abs(want[finite])))

    def test_concave_inputs_take_the_vector_pass(self, monkeypatch):
        # a grid message is a ramp cut at U_k + h/2, max-convolved with a
        # concave quadratic: concave, so its breakpoints strictly increase
        captured = []

        def capture(values, c):
            captured.append((values.copy(), c))
            return conv(values, c)

        conv = oracle._quad_max_conv
        monkeypatch.setattr(oracle, "_quad_max_conv", capture)
        for i in range(15):
            n = 2 + i % 5
            U = random_instance(i, n=n, lam=10.0, sigma=1e-2, master=47)
            lo = float(np.min(U)) - 5e-2 * math.sqrt(n) - 0.1
            grid_max_marginal(U, 10.0, 1e-2, lo, float(np.max(U)) + 0.1, 513)
        assert len(captured) == sum(1 + i % 5 for i in range(15))
        rng = np.random.default_rng(53)
        i = np.arange(64.0)
        for _ in range(40):
            ramp = rng.uniform(-5.0, 5.0) * i
            ramp[i > rng.integers(0, 64)] = -math.inf
            captured.append((ramp, float(rng.choice([1e-3, 0.37, 50.0]))))
            captured.append((-rng.uniform(0.0, 3.0) * (i - rng.uniform(0.0, 64.0)) ** 2, 0.37))
        for values, c in captured:
            z = neighbour_breakpoints(values, c)
            assert all(right > left for left, right in zip(z, z[1:]))
            got = _quad_max_conv(values, c)
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_exact_ties_run_the_loop(self, c):
        # every breakpoint of c i^2 is exactly 0.0, so the loop pops all the
        # parabolas between the first and the last
        values = c * np.arange(17.0) ** 2
        assert set(neighbour_breakpoints(values, c)) == {0.0}
        assert _quad_max_conv(values, c).tobytes() == literal_quad_max_conv(values, c).tobytes()

    def test_convex_parabolas_match_the_loop(self):
        # three or more parabolas meeting at one grid point: their breakpoints
        # tie, or miss by an ulp, and the loop's recomputed breakpoints decide
        # which one is read out there
        rng = np.random.default_rng(59)
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            c = float(rng.uniform(0.05, 5.0))
            values = rng.normal(0.0, 10.0) + c * (rng.integers(0, n) - np.arange(n)) ** 2
            got = _quad_max_conv(values, c)
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()

    @pytest.mark.parametrize("c", [1e-3, 1.0, 50.0])
    @pytest.mark.parametrize("top", [1e300, -1e300])
    def test_values_near_1e300(self, c, top):
        i = np.arange(64.0)
        constant = top + i  # the increments round away
        assert np.all(constant == top)
        cases = [
            constant,
            # concave for top > 0, else convex: q^2 - p^2 rounds away against
            # the steps of the values in each breakpoint
            top * (1.0 - ((i - 20.0) / 64.0) ** 2),
            top * np.random.default_rng(61).uniform(0.5, 1.0, 64),
        ]
        for values in cases:
            got = _quad_max_conv(values, c)
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()
        assert _quad_max_conv(constant, c).tobytes() == constant.tobytes()
