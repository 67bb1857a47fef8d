import math

import numpy as np
import pytest

from fgclock import (
    ClockModelParams,
    DegenerateModelError,
    LatentPath,
    ParameterError,
    ShapeError,
    chain_log_posterior,
    log_posterior,
    simulate_observations,
    simulate_paths,
)


def make_params(**kw):
    base = dict(lambda_xi=10.0, lambda_psi=10.0, sigma=1e-2, d0=1.0,
                theta0=0.5, rounds=10)
    base.update(kw)
    return ClockModelParams(**base)


class TestParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("lambda_xi", 0.0),
            ("lambda_xi", -1.0),
            ("lambda_psi", 0.0),
            ("sigma", -1e-9),
            ("d0", -0.1),
            ("rounds", 0),
            ("rounds", 2.5),
            ("lambda_xi", math.inf),
            ("lambda_psi", math.nan),
            ("d0", math.inf),
            ("d0", math.nan),
            ("theta0", math.nan),
            ("theta0", -math.inf),
            ("rounds", True),
            ("rounds", math.nan),
            ("rounds", math.inf),
            ("rounds", "3"),
        ],
    )
    def test_invalid_params_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            make_params(**{field: value})

    @pytest.mark.parametrize("rounds", [2.0, np.int64(2), np.float64(2.0)])
    def test_rounds_stored_as_int(self, rounds):
        params = make_params(rounds=rounds)
        assert params.rounds == 2 and type(params.rounds) is int

    def test_theta0_may_be_negative(self):
        make_params(theta0=-0.3)


class TestSimulatePaths:
    def test_zero_noise_path_is_constant(self):
        params = make_params(sigma=0.0, d0=1.0, theta0=0.2, rounds=3)
        path = simulate_paths(params, seed=123)
        np.testing.assert_array_equal(path.xi, [1.2, 1.2, 1.2, 1.2])
        np.testing.assert_array_equal(path.psi, [0.8, 0.8, 0.8, 0.8])

    def test_initial_values_match_reparametrization(self):
        params = make_params(d0=2.0, theta0=-0.4)
        path = simulate_paths(params, seed=5)
        assert path.xi[0] == pytest.approx(1.6)
        assert path.psi[0] == pytest.approx(2.4)
        np.testing.assert_allclose(path.theta[0], -0.4)
        np.testing.assert_allclose(path.d[0], 2.0)

    def test_same_seed_same_path(self):
        params = make_params()
        a = simulate_paths(params, seed=99)
        b = simulate_paths(params, seed=99)
        np.testing.assert_array_equal(a.xi, b.xi)
        np.testing.assert_array_equal(a.psi, b.psi)

    def test_increment_variance_matches_sigma(self):
        # law of large numbers at N = 1e4: sample variance within 10% of sigma^2
        params = make_params(sigma=0.01, rounds=10_000)
        path = simulate_paths(params, seed=7)
        var = np.var(np.diff(path.xi), ddof=1)
        assert abs(var - 1e-4) < 1e-5

    def test_negative_d_counter(self):
        path = LatentPath(xi=np.array([1.0, -2.0, 1.0]), psi=np.array([1.0, -2.0, 1.0]))
        assert path.negative_d_count == 1


class TestSimulateObservations:
    def test_observations_dominate_path(self):
        params = make_params(rounds=200)
        path = simulate_paths(params, seed=1)
        obs = simulate_observations(path, params, seed=2)
        assert np.all(obs.U >= path.xi[1:])
        assert np.all(obs.V >= path.psi[1:])

    def test_exponential_mean(self):
        # mean of U_k - xi_k should be 1/lambda within 5% at N = 1e5
        params = make_params(lambda_xi=10.0, sigma=0.0, rounds=100_000)
        path = simulate_paths(params, seed=3)
        obs = simulate_observations(path, params, seed=4)
        delays = obs.U - path.xi[1:]
        assert abs(delays.mean() - 0.1) < 0.005
        assert abs(np.var(delays, ddof=1) - 0.01) < 0.001

    def test_same_seed_same_series(self):
        params = make_params()
        path = simulate_paths(params, seed=11)
        a = simulate_observations(path, params, seed=12)
        b = simulate_observations(path, params, seed=12)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    def test_length_mismatch_rejected(self):
        params = make_params(rounds=5)
        path = simulate_paths(params, seed=0)
        with pytest.raises(ShapeError):
            simulate_observations(path, make_params(rounds=6), seed=0)


class TestLogPosterior:
    def test_indicator_violation_gives_minus_inf(self):
        params = make_params(rounds=3)
        U = np.array([1.0, 1.0, 1.0])
        cand = np.array([0.5, 1.1, 0.5, 0.5])
        assert log_posterior(cand, U, params) == -np.inf

    def test_constant_candidate_value(self):
        # flat feasible candidate has zero quadratic penalty: value N*lam*c
        params = make_params(rounds=4, lambda_xi=3.0, sigma=0.5)
        U = np.array([2.0, 3.0, 2.5, 2.2])
        v1 = log_posterior(np.full(5, 1.0), U, params)
        v2 = log_posterior(np.full(5, 1.5), U, params)
        assert v2 - v1 == pytest.approx(4 * 3.0 * 0.5)

    def test_last_coordinate_perturbation(self):
        # direct expansion: shifting xi_N by eps changes the value by
        # lam*eps - (2*(xi_N - xi_{N-1})*eps + eps^2) / (2 sigma^2)
        rng = np.random.default_rng(8)
        params = make_params(rounds=6, sigma=0.3)
        U = rng.uniform(1.0, 2.0, 6)
        cand = np.concatenate(([0.5], U - rng.uniform(0.1, 0.5, 6)))
        eps = 0.01
        bumped = cand.copy()
        bumped[-1] += eps
        expected = (
            params.lambda_xi * eps
            - (2 * (cand[-1] - cand[-2]) * eps + eps**2) / (2 * params.sigma**2)
        )
        got = log_posterior(bumped, U, params) - log_posterior(cand, U, params)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_sigma_zero_unsupported(self):
        params = make_params(sigma=0.0, rounds=2)
        with pytest.raises(DegenerateModelError):
            log_posterior(np.zeros(3), np.ones(2), params)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            chain_log_posterior(np.zeros(3), np.ones(3), 1.0, 1.0)

    @pytest.mark.parametrize(
        "lam, sigma, error",
        [
            (1.0, 1e200, ParameterError),
            (1e300, 1e5, ParameterError),
            (math.inf, 1.0, ParameterError),
            (1.0, 1e-200, DegenerateModelError),
            (1.0, 1e-160, DegenerateModelError),
        ],
    )
    def test_extreme_parameters_raise(self, lam, sigma, error):
        # sigma**2 or lam * sigma**2 overflowing, or sigma**2 below the normal
        # range, where dividing by it would overflow
        with pytest.raises(error):
            chain_log_posterior(np.zeros(3), np.ones(2), lam, sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            chain_log_posterior([0.0, bad, 0.0], np.ones(2), 1.0, 1.0)
        with pytest.raises(ParameterError, match="finite"):
            chain_log_posterior(np.zeros(3), [1.0, bad], 1.0, 1.0)

    def test_concavity_on_feasible_region(self):
        rng = np.random.default_rng(21)
        params = make_params(rounds=8, sigma=0.2)
        U = rng.uniform(1.0, 3.0, 8)
        for _ in range(200):
            a = np.concatenate(([0.0], U)) - rng.uniform(0.0, 1.0, 9)
            b = np.concatenate(([0.0], U)) - rng.uniform(0.0, 1.0, 9)
            t = rng.uniform(0.0, 1.0)
            mix = t * a + (1 - t) * b
            fa = log_posterior(a, U, params)
            fb = log_posterior(b, U, params)
            fmix = log_posterior(mix, U, params)
            assert fmix >= t * fa + (1 - t) * fb - 1e-9
