import math

import numpy as np
import pytest

from fgclock import (
    ClockModelParams,
    DegenerateModelError,
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
