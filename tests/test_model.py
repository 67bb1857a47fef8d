import math
from fractions import Fraction

import numpy as np
import pytest

from fgclock import (
    ClockModelParams,
    DegenerateModelError,
    LatentPath,
    ObservationSeries,
    ParameterError,
    ShapeError,
    backtrack_estimate,
    chain_log_posterior,
    closed_form_estimate_paper,
    coordinate_ascent_map,
    exact_map_active_set,
    fge_offset,
    grid_max_marginal,
    ml_offset,
    simulate_observations,
    simulate_paths,
)
from fgclock.estimators import ESTIMATORS, chain_kernel
from fgclock.model import check_chain, check_real, draw_trials, stream_states


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
            ("sigma", 1e200),
            ("sigma", math.inf),
            ("sigma", 5e153),  # lambda * sigma**2 overflows at lambda = 10
            ("sigma", "0.1"),
            ("lambda_xi", "x"),
            ("d0", "1"),
            ("theta0", None),
            ("sigma", None),
            ("lambda_psi", True),
            pytest.param("rounds", 10**400, id="rounds-10**400"),
            pytest.param("theta0", -(10**400), id="theta0--10**400"),
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


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [10, 2.5, -0.0, np.float64(0.5), np.int64(3), math.inf]
    )
    def test_returns_value_unchanged(self, value):
        assert check_real(value, "x") is value

    @pytest.mark.parametrize(
        "value",
        [True, "1", None, math.nan, np.float64(math.nan), [1.0], 1j, Fraction(1, 3),
         pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
    )
    def test_refused(self, value):
        with pytest.raises(ParameterError, match="x"):
            check_real(value, "x")

    def test_bounds_are_inclusive(self):
        assert check_real(0.0, "x", 0.0, 1) == 0.0
        assert check_real(1, "x", 0.0, 1) == 1
        for value in (-5e-324, 1.0000000000000002, math.inf):
            with pytest.raises(ParameterError, match=r"x must be in \[0, 1\]"):
                check_real(value, "x", 0.0, 1)


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

    def test_infinite_sigma_rejected_before_drawing(self):
        # ClockModelParams refuses sigma = inf (a sweep reports it as a failed
        # cell), so no path is drawn with inf and NaN values
        with pytest.raises(ParameterError, match="sigma"):
            simulate_paths(make_params(sigma=math.inf), seed=1)

    def test_overflowing_theta_and_d_refused(self):
        # xi - psi and xi + psi overflow, although xi and psi are finite
        path = LatentPath(xi=np.array([1.7e308, 1.7e308]),
                          psi=np.array([-1.7e308, 1.7e308]))
        with pytest.raises(ParameterError, match="simulated theta"):
            path.theta
        with pytest.raises(ParameterError, match="simulated d"):
            path.d

    def test_infinite_xi_and_psi_refused(self):
        # inf - inf and inf + -inf are NaN: refused, without an invalid-value warning
        path = LatentPath(xi=np.array([math.inf, 1.0]), psi=np.array([math.inf, -math.inf]))
        with pytest.raises(ParameterError, match="simulated theta"):
            path.theta
        with pytest.raises(ParameterError, match="simulated d"):
            path.d

    @pytest.mark.parametrize("xi, psi", [
        ([1.0, 2.0], [1.0, 2.0]), (np.array([1, 2]), np.array([1, 2])), (None, None),
    ])
    def test_non_float_arrays_refused(self, xi, psi):
        with pytest.raises(ParameterError, match="xi and psi must be float64 arrays"):
            LatentPath(xi, psi)

    def test_params_must_be_clock_model_params(self):
        with pytest.raises(ParameterError, match="params must be a ClockModelParams"):
            simulate_paths(None, 1)
        with pytest.raises(ParameterError, match="params must be a ClockModelParams"):
            simulate_paths(dict(lambda_xi=10.0, lambda_psi=10.0, sigma=0.01, d0=1.0,
                                theta0=0.5, rounds=3), 1)

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

    @pytest.mark.parametrize(
        "fields",
        [dict(lambda_xi=1e-320), dict(lambda_psi=5e-324), dict(d0=1e308, theta0=1e308)],
    )
    def test_overflowing_values_refused(self, fields):
        # a rate near 0 overflows a delay, d0 + theta0 overflows xi: the
        # simulation refuses, without a RuntimeWarning
        params = make_params(**fields)
        path = simulate_paths(params, seed=1)
        with pytest.raises(ParameterError, match="simulated U and V"):
            simulate_observations(path, params, seed=2)

    def test_length_mismatch_rejected(self):
        params = make_params(rounds=5)
        path = simulate_paths(params, seed=0)
        with pytest.raises(ShapeError):
            simulate_observations(path, make_params(rounds=6), seed=0)

    def test_path_and_params_types_refused(self):
        params = make_params(rounds=3)
        path = simulate_paths(params, seed=0)
        for bad_path, bad_params in [(path, {"rounds": 3}), (None, params)]:
            with pytest.raises(ParameterError, match="must be a LatentPath"):
                simulate_observations(bad_path, bad_params, 1)


class TestObservationSeries:
    @pytest.mark.parametrize("U, V", [
        ([1.0], [1.0]), (np.array([1, 2]), np.array([1, 2])), (None, np.array([1.0])),
    ])
    def test_non_float_arrays_refused(self, U, V):
        with pytest.raises(ParameterError, match="U and V must be float64 arrays"):
            ObservationSeries(U, V)

    @pytest.mark.parametrize("U, error", [
        (np.array([1.0, math.nan]), ParameterError), (np.array([]), ShapeError),
        (np.ones((1, 2)), ShapeError), (np.ones(3), ShapeError),
    ])
    def test_series_checked(self, U, error):
        with pytest.raises(error):
            ObservationSeries(U, np.ones(2))


class TestLogPosterior:
    def test_indicator_violation_gives_minus_inf(self):
        params = make_params(rounds=3)
        U = np.array([1.0, 1.0, 1.0])
        cand = np.array([0.5, 1.1, 0.5, 0.5])
        assert chain_log_posterior(cand, U, params.lambda_xi, params.sigma) == -np.inf

    def test_constant_candidate_value(self):
        # flat feasible candidate has zero quadratic penalty: value N*lam*c
        params = make_params(rounds=4, lambda_xi=3.0, sigma=0.5)
        U = np.array([2.0, 3.0, 2.5, 2.2])
        v1 = chain_log_posterior(np.full(5, 1.0), U, params.lambda_xi, params.sigma)
        v2 = chain_log_posterior(np.full(5, 1.5), U, params.lambda_xi, params.sigma)
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
        got = (chain_log_posterior(bumped, U, params.lambda_xi, params.sigma)
               - chain_log_posterior(cand, U, params.lambda_xi, params.sigma))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_sigma_zero_unsupported(self):
        params = make_params(sigma=0.0, rounds=2)
        with pytest.raises(DegenerateModelError):
            chain_log_posterior(np.zeros(3), np.ones(2), params.lambda_xi, params.sigma)

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
            fa = chain_log_posterior(a, U, params.lambda_xi, params.sigma)
            fb = chain_log_posterior(b, U, params.lambda_xi, params.sigma)
            fmix = chain_log_posterior(mix, U, params.lambda_xi, params.sigma)
            assert fmix >= t * fa + (1 - t) * fb - 1e-9


@pytest.mark.filterwarnings("error")
class TestSeeds:
    BAD_SEEDS = [-1, 1.5, "a", [1, -1]]

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_path_seed_refused(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            simulate_paths(make_params(), seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_observation_seed_refused(self, seed):
        params = make_params()
        path = simulate_paths(params, seed=1)
        with pytest.raises(ParameterError, match="seed"):
            simulate_observations(path, params, seed)

    def test_valid_seed_draws_from_default_rng(self):
        # the draws are numpy's default_rng(seed) stream, as before the check
        params = make_params(sigma=0.5, d0=0.0, theta0=0.0, rounds=4)
        path = simulate_paths(params, seed=[3, 0])
        z = np.random.default_rng([3, 0]).standard_normal((2, 4))
        np.testing.assert_array_equal(path.xi[1:], np.cumsum(0.5 * z[0]))
        np.testing.assert_array_equal(path.psi[1:], np.cumsum(0.5 * z[1]))



@pytest.mark.filterwarnings("error")
class TestStreamStates:
    """The block-derived PCG64 states are numpy's own SeedSequence states."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**53])
    @pytest.mark.parametrize("axis_index", [0, 7, 2**32 + 1])
    @pytest.mark.parametrize("start, stop", [(0, 300), (2**32 - 3, 2**32 + 3)])
    def test_states_equal_seed_sequence_states(self, master, axis_index, start, stop):
        states = stream_states(master, axis_index, start, stop)
        assert states.shape == (stop - start, 2, 4) and states.dtype == np.uint64
        for t in range(start, stop):
            for s in (0, 1):
                seq = np.random.SeedSequence([master, axis_index, t, s])
                want = seq.generate_state(4, np.uint64)
                assert states[t - start, s].tobytes() == want.tobytes(), (t, s)

    @pytest.mark.parametrize("master", [0, 2**53])
    def test_draw_trials_draws_as_default_rng(self, master):
        # trials 2**32 - 3 .. 2**32 + 2: t grows from one 32-bit word to two
        start, trials = 2**32 - 3, 6
        whole = np.empty((2, trials, 2, 50))
        draw_trials(master, 7, start, whole[0], whole[1])
        # the same trials as two blocks, the second one crossing 2**32
        split = np.empty_like(whole)
        draw_trials(master, 7, start, split[0, :2], split[1, :2])
        draw_trials(master, 7, start + 2, split[0, 2:], split[1, 2:])
        assert split.tobytes() == whole.tobytes()
        for t in range(start, start + trials):
            want = np.empty((2, 2, 50))
            np.random.default_rng([master, 7, t, 0]).standard_normal(out=want[0])
            np.random.default_rng([master, 7, t, 1]).random(out=want[1])
            assert whole[:, t - start].tobytes() == want.tobytes(), t


@pytest.mark.filterwarnings("error")
class TestNumpyScalarInputs:
    """Narrow NumPy floats compute as their float64 values, without a warning."""

    U = np.array([1.0, 1.2, 0.9, 1.1])
    V = np.array([1.1, 0.95, 1.05, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_params_keep_the_values(self, dtype):
        lam, sigma = dtype(10), dtype(0.01)
        params = make_params(lambda_xi=lam, lambda_psi=lam, sigma=sigma, d0=dtype(1))
        assert params.lambda_xi is lam and params.sigma is sigma

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_estimators_and_oracles_match_float64(self, dtype):
        lam, sigma = dtype(10), dtype(0.01)
        lam64, sigma64 = float(lam), float(sigma)
        U, V = self.U, self.V
        for variant in ESTIMATORS:
            assert (fge_offset(U, V, lam, lam, sigma, variant)
                    == fge_offset(U, V, lam64, lam64, sigma64, variant))
            np.testing.assert_array_equal(
                chain_kernel(variant, lam, sigma, 4)(np.stack([U, V])),
                chain_kernel(variant, lam64, sigma64, 4)(np.stack([U, V])))
        np.testing.assert_array_equal(exact_map_active_set(U, lam, sigma).path,
                                      exact_map_active_set(U, lam64, sigma64).path)
        assert (grid_max_marginal(U[:3], lam, sigma, dtype(0.5), dtype(1.5), 256)
                == grid_max_marginal(U[:3], lam64, sigma64, 0.5, 1.5, 256))

    def test_large_float32_sigma_is_squared_in_float64(self):
        # 1e20**2 overflows float32 but not float64
        sigma = np.float32(1e20)
        assert fge_offset(self.U, self.V, 10.0, 10.0, sigma) == fge_offset(
            self.U, self.V, 10.0, 10.0, float(sigma))
        with pytest.raises(ParameterError, match="overflows"):
            make_params(lambda_xi=1e300, sigma=np.float32(3e38))

    def test_float32_rate_beside_a_huge_rate(self):
        # the larger rate is chosen by comparing Python floats: 1e308 is not cast to float32
        params = ClockModelParams(np.float32(0.5), 1e308, 0.1, 1.0, 0.0, 3)
        assert params.lambda_psi == 1e308
        with pytest.raises(ParameterError, match="overflows"):
            ClockModelParams(np.float32(0.5), 1e308, 1e3, 1.0, 0.0, 3)

    def test_float32_theta0_beside_a_huge_d0(self):
        # xi_0 = d0 + theta0 is summed as Python floats, not in float32, where 1e308 is inf
        narrow = simulate_paths(ClockModelParams(2.0, 2.0, 0.3, 1e308, np.float32(0.5), 2), 1)
        wide = simulate_paths(ClockModelParams(2.0, 2.0, 0.3, 1e308, 0.5, 2), 1)
        assert np.all(np.isfinite(narrow.xi))
        assert narrow.xi.tobytes() == wide.xi.tobytes()
        assert narrow.psi.tobytes() == wide.psi.tobytes()

    @pytest.mark.parametrize("big", [np.int64(2**62), 2**62, 2**70])
    def test_int_walk_start_is_summed_as_floats(self, big):
        # neither wrapped in int64 nor left as an object array numpy cannot add
        path = simulate_paths(ClockModelParams(2.0, 2.0, 0.0, big, big, 2), 1)
        assert path.xi.tolist() == [2.0 * big] * 3 and path.psi.tolist() == [0.0] * 3

    def test_float32_zero_rate_refused(self):
        # the smallest rate, 5e-324, is 0 in float32: compared as a float, 0 is below it
        with pytest.raises(ParameterError, match="lambda_xi"):
            make_params(lambda_xi=np.float32(0.0))

    @pytest.mark.parametrize("field", ["lambda_xi", "lambda_psi", "sigma", "d0", "theta0"])
    def test_fraction_params_refused(self, field):
        with pytest.raises(ParameterError, match=f"{field} must be an int or a float"):
            make_params(**{field: Fraction(2)})

    def test_fraction_refused_by_the_estimators_and_oracles(self):
        U, V = self.U, self.V
        calls = [
            lambda: fge_offset(U, V, Fraction(2), 2.0, 0.01),
            lambda: fge_offset(U, V, 2.0, 2.0, Fraction(1, 100), "paper"),
            lambda: chain_kernel("recursive", Fraction(2), 0.01, 4),
            lambda: exact_map_active_set(U, Fraction(2), 0.01),
            lambda: grid_max_marginal(U, Fraction(2), 0.01, 0.5, 1.5, 64),
            lambda: grid_max_marginal(U, 2.0, 0.01, Fraction(1, 2), 1.5, 64),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="must be an int or a float"):
                call()


#: A longdouble beyond the float64 range, where numpy's longdouble is wider.
WIDE_LONGDOUBLE = np.finfo(np.longdouble).max > np.finfo(float).max
needs_wide_longdouble = pytest.mark.skipif(
    not WIDE_LONGDOUBLE, reason="longdouble is float64 here")


def reference_check(U, name, ndims):
    """The finite-values rule stated directly: kind in "iuf" and np.isfinite of the float64 cast."""
    U = np.asarray(U)
    if U.ndim not in ndims or U.size == 0:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise ShapeError(f"{name} must be a nonempty {dims} sequence")
    if U.dtype.kind in "iuf":
        with np.errstate(over="ignore"):
            U = U.astype(float)
        if np.isfinite(U).all():
            return U
    raise ParameterError(f"{name} must hold finite numbers only")


def outcome(check, U):
    try:
        return check(U)
    except (ParameterError, ShapeError) as exc:
        return type(exc), str(exc)


def check_cases():
    """Series, blocks and strided views of every numeric dtype, with extreme values placed."""
    specials = [np.nan, np.inf, -np.inf, 1.7976931348623157e308, -1.7976931348623157e308, -0.0]
    for dtype in (np.int8, np.int64, np.uint64, np.float16, np.float32, np.float64,
                  np.longdouble):
        if np.dtype(dtype).kind == "f":
            values = specials + ([np.longdouble("1e400"), np.longdouble("-1e400")]
                                 if dtype is np.longdouble and WIDE_LONGDOUBLE else [])
        else:
            values = [np.iinfo(dtype).min, np.iinfo(dtype).max, 0]
        for value in values:
            for position in (0, 3, 6):
                base = np.arange(1, 15).reshape(7, 2).astype(dtype)
                with np.errstate(over="ignore", invalid="ignore"):
                    base[position] = value
                yield base[:, 0].copy()
                yield base[:, 0]  # a strided view
                yield base.T  # a 2-D block, read column-major
                yield base.T[:, ::2]


@pytest.mark.filterwarnings("error")
class TestCheckChain:
    """``check_chain`` decides finite values on the float64 cast, from its min and max."""

    @pytest.mark.parametrize("ndims", [(1,), (2,), (1, 2)])
    def test_decision_table_equals_the_reference(self, ndims):
        cases = 0
        for U in check_cases():
            want = outcome(lambda U: reference_check(U, "obs", ndims), U)
            got = outcome(lambda U: check_chain(U, "obs", ndims), U)
            if isinstance(want, tuple):
                assert got == want, (U.dtype, U)
            else:
                checked, low = got
                assert checked.dtype == np.float64 and checked.tobytes() == want.tobytes()
                assert np.float64(low).tobytes() == np.minimum.reduce(want, axis=None).tobytes()
                cases += 1
        assert cases > 100

    @pytest.mark.parametrize("bad", [
        np.ones(4, dtype=bool), np.ones(4, dtype=complex), np.array([1.0, 2.0], dtype=object),
        np.array(["1", "2"]), np.ones((2, 3), dtype=bool), [1.0, None],
    ])
    def test_non_numeric_kinds_refused(self, bad):
        with pytest.raises(ParameterError, match="^obs must hold finite numbers only$"):
            check_chain(bad, "obs", (1, 2))

    def test_float64_input_is_returned_uncopied(self):
        U = np.linspace(-1.0, 1.0, 9)
        checked, low = check_chain(U)
        assert checked is U and low == -1.0

    @needs_wide_longdouble
    def test_longdouble_beyond_the_float_range_is_refused_everywhere(self):
        # the cast to float64 makes 1e400 inf, and no public entry warns or drops it
        big = np.array([np.longdouble("1e400"), 1.0])
        ok = [1.0, 2.0]
        calls = [
            lambda: fge_offset(big, ok, 10.0, 10.0, 1e-2),
            lambda: fge_offset(ok, big, 10.0, 10.0, 1e-2, "paper"),
            lambda: ml_offset(big, ok),
            lambda: chain_kernel("recursive", 10.0, 1e-2, 2)(big),
            lambda: chain_kernel("ml", 10.0, 1e-2, 2)(np.stack([big, big])),
            lambda: backtrack_estimate(big, 10.0, 1e-2),
            lambda: closed_form_estimate_paper(big, 10.0, 1e-2),
            lambda: exact_map_active_set(big, 10.0, 1e-2),
            lambda: coordinate_ascent_map(big, 10.0, 1e-2),
            lambda: grid_max_marginal(big, 10.0, 1e-2, 0.0, 2.0, 64),
            lambda: chain_log_posterior(np.array([1.0, 1.0, 1.0]), big, 10.0, 1e-2),
            lambda: chain_log_posterior(np.append(big, 1.0), ok, 10.0, 1e-2),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="must hold finite numbers only"):
                call()
