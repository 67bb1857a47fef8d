import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgclock import (
    ClockModelParams,
    DegenerateModelError,
    FgclockError,
    ParameterError,
    ShapeError,
    backtrack_estimate,
    backward_constants,
    closed_form_estimate_paper,
    exact_map_active_set,
    fge_offset,
    ml_offset,
    shift_kernel,
    simulate_observations,
    simulate_paths,
)
from fgclock import estimators
from fgclock.estimators import ESTIMATORS, _shifts, chain_kernel
from fgclock.experiments import ALL_ESTIMATORS, SweepConfig, mse_vs_sigma
from fgclock.model import check_chain, sigma_squared

finite_reals = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def chain_shifts(lam, sigma, n):
    """The estimators' shifts of a chain of n rounds as an array, lam and sigma checked."""
    return np.array(_shifts(lam, sigma_squared(sigma, lam), n))


def build(tag, lam, sigma, n):
    """The unchecked estimator of ``tag``, handed the min of U as the kernel's check finds it."""
    estimate = ESTIMATORS[tag].build(lam, sigma, n)
    return lambda U: estimate(U, check_chain(U, ndims=(1, 2))[1])


class TestBackwardConstants:
    def test_base_case(self):
        c = backward_constants(1.0, 1.0, 1)
        assert (c.A[0], c.B[0], c.C[0], c.D[0]) == (-0.5, -0.5, 1.0, 1.0)

    def test_a_is_level_invariant(self):
        c = backward_constants(10.0, 0.1, 3)
        np.testing.assert_allclose(c.A, -50.0, rtol=1e-12)

    def test_d_ladder(self):
        c = backward_constants(10.0, 0.1, 3)
        np.testing.assert_allclose(c.D, [30.0, 20.0, 10.0], rtol=1e-12)

    def test_closed_forms_large_n(self):
        lam, sigma, n = 3.7, 0.05, 1000
        c = backward_constants(lam, sigma, n)
        np.testing.assert_allclose(c.A, -1.0 / (2 * sigma**2), rtol=1e-12)
        expected_d = lam * np.arange(n, 0, -1, dtype=float)
        np.testing.assert_allclose(c.D, expected_d, rtol=1e-12)

    def test_monotonicity_guarantee(self):
        # A_k < 0 and -C_k/(2 A_k) > 0 make every kernel monotone increasing
        c = backward_constants(2.0, 0.3, 20)
        assert np.all(c.A < 0)
        assert np.all(-c.C / (2 * c.A) > 0)

    def test_sigma_zero_unsupported(self):
        with pytest.raises(DegenerateModelError):
            backward_constants(1.0, 0.0, 3)

    def test_bad_lambda(self):
        with pytest.raises(ParameterError):
            backward_constants(0.0, 1.0, 3)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_d_is_inf_without_a_warning(self):
        # D_{N-i} = (i + 1) lam: past the float range it is inf, as the shifts are
        c = backward_constants(1e308, 1.0, 3)
        assert c.D.tolist() == [math.inf, math.inf, 1e308]
        assert _shifts(1e308, 1.0, 3) == c.D.tolist()

    def test_two_sigma_squared_overflow_raises(self):
        # lam * sigma**2 is finite but 2 sigma**2 is not: the literal
        # recursion would give C/(2A) = 0/0, while the estimators stay finite
        with pytest.raises(ParameterError, match="2 \\* sigma"):
            backward_constants(1e-3, 1.2e154, 3)
        assert math.isfinite(fge_offset([1.0, 0.4], [0.9, 1.1], 1e-3, 1e-3, 1.2e154)
                             .theta_hat_N)


class TestShiftKernel:
    def test_shift_at_last_level(self):
        c = backward_constants(10.0, 0.1, 4)
        assert shift_kernel(c, 4, 2.0) == pytest.approx(2.1)

    def test_infinity_maps_to_infinity(self):
        c = backward_constants(1.0, 1.0, 2)
        assert shift_kernel(c, 1, math.inf) == math.inf

    def test_matches_quotient_form(self):
        # additive form x + D_k sigma^2 must agree with -(C x + D)/(2A)
        c = backward_constants(4.2, 0.07, 12)
        rng = np.random.default_rng(2)
        for k in range(1, 13):
            for x in rng.uniform(-5, 5, 8):
                quotient = -(c.C[k - 1] * x + c.D[k - 1]) / (2 * c.A[k - 1])
                assert shift_kernel(c, k, x) == pytest.approx(quotient, rel=1e-12)

    @given(a=finite_reals, b=finite_reals, k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_min_distributivity(self, a, b, k):
        c = backward_constants(2.5, 0.2, 6)
        assert shift_kernel(c, k, min(a, b)) == min(
            shift_kernel(c, k, a), shift_kernel(c, k, b)
        )

    @given(a=finite_reals, b=finite_reals)
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, a, b):
        c = backward_constants(2.5, 0.2, 6)
        lo, hi = min(a, b), max(a, b)
        assert shift_kernel(c, 3, lo) <= shift_kernel(c, 3, hi)

    def test_level_out_of_range(self):
        c = backward_constants(1.0, 1.0, 3)
        with pytest.raises(ParameterError):
            shift_kernel(c, 4, 0.0)

    @pytest.mark.parametrize("constants, k, x", [
        ("c", 1.5, 0.0), ("c", "1", 0.0), ("c", 1, "a"), (None, 1, 0.0), ("c", 1, math.nan),
        ("c", 1, -math.inf), ("c", True, 0.0),
    ])
    def test_bad_arguments_refused(self, constants, k, x):
        c = backward_constants(1.0, 1.0, 3) if constants == "c" else constants
        with pytest.raises(ParameterError):
            shift_kernel(c, k, x)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_shift_is_inf(self):
        # D_1 sigma**2 = 1e302 * 1e7 overflows: inf, without a warning
        c = backward_constants(1e300, math.sqrt(1e7), 100)
        assert math.isfinite(c.D[0]) and shift_kernel(c, 1, 0.0) == math.inf
        assert shift_kernel(backward_constants(1e300, 1.0, 3), 1, 1.7976931348623157e308) == math.inf

    def test_float32_sigma_is_squared_without_overflow(self):
        # 1e40 overflows float32; squared as a Python float it is finite
        c = backward_constants(10.0, np.float32(1e20), 3)
        assert shift_kernel(c, 2, 0.0) == pytest.approx(2.0e41, rel=1e-6)


class TestBacktrackEstimate:
    def test_single_round(self):
        res = backtrack_estimate([4.2], 1.0, 1.0)
        assert res.xi_hat[0] == 4.2
        assert res.xi_bar[0] == math.inf
        assert res.xi0_hat == math.inf

    def test_three_round_example(self):
        res = backtrack_estimate([0.0, 10.0, 10.0], 1.0, 1.0)
        np.testing.assert_allclose(res.xi_hat, [0.0, 2.0, 3.0])

    def test_clip_at_last_round(self):
        res = backtrack_estimate([2.0, 1.5], 10.0, 1e-2)
        assert res.xi_hat[-1] == 1.5

    def test_sigma_zero_is_running_min(self):
        U = np.array([3.0, 1.0, 2.0, 0.5, 4.0])
        res = backtrack_estimate(U, 5.0, 0.0)
        np.testing.assert_array_equal(res.xi_hat, np.minimum.accumulate(U))

    def test_clipping_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            U = rng.uniform(0, 2, rng.integers(1, 15))
            res = backtrack_estimate(U, 4.0, 0.05)
            assert np.all(res.xi_hat <= U + 1e-15)
            np.testing.assert_array_equal(res.xi_hat, np.minimum(res.xi_bar, U))

    def test_non_binding_constraint_is_irrelevant(self):
        # raising U at a non-binding level leaves the final estimate unchanged
        U = np.array([0.0, 10.0, 10.0])
        base = backtrack_estimate(U, 1.0, 1.0).xi_hat[-1]
        U2 = U.copy()
        U2[1] = 50.0
        assert backtrack_estimate(U2, 1.0, 1.0).xi_hat[-1] == base

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            backtrack_estimate([], 1.0, 1.0)


class TestClosedFormPaper:
    def test_single_round(self):
        assert closed_form_estimate_paper([4.2], 1.0, 1.0) == 4.2

    def test_sigma_zero_is_min(self):
        assert closed_form_estimate_paper([3.0, 1.0, 2.0], 2.0, 0.0) == 1.0

    def test_direct_evaluation(self):
        assert closed_form_estimate_paper([2.0, 1.5], 10.0, 1e-2) == pytest.approx(1.5)

    def test_linear_shift_structure(self):
        lam, sigma = 2.0, 0.5
        U = np.array([1.0, 5.0, 5.0, 5.0])
        # only the first term can win: 1.0 + 3 * lam * sigma^2 = 2.5
        assert closed_form_estimate_paper(U, lam, sigma) == pytest.approx(2.5)


class TestOffsets:
    def test_ml_direct(self):
        est = ml_offset([3.0, 2.0, 4.0], [1.0, 2.0, 3.0])
        assert est.theta_hat_N == 0.5
        assert est.variant == "ml"

    def test_ml_symmetry(self):
        U = np.array([1.0, 0.7, 2.0])
        assert ml_offset(U, U).theta_hat_N == 0.0

    def test_fge_sigma_zero_collapse(self):
        for variant in ("recursive", "paper"):
            est = fge_offset([3.0, 2.0, 4.0], [1.0, 2.0, 3.0], 1.0, 1.0, 0.0, variant)
            assert est.theta_hat_N == 0.5

    def test_fge_symmetric_inputs(self):
        U = np.array([1.0, 0.9, 1.4])
        for variant in ("recursive", "paper"):
            est = fge_offset(U, U, 2.0, 2.0, 0.1, variant)
            assert est.theta_hat_N == 0.0

    def test_fge_recursive_example(self):
        est = fge_offset([0.0, 10.0, 10.0], [10.0, 10.0, 0.0], 1.0, 1.0, 1.0,
                         "recursive")
        assert est.theta_hat_N == pytest.approx(1.5)
        assert est.xi_hat_N == pytest.approx(3.0)
        assert est.psi_hat_N == pytest.approx(0.0)

    def test_theta_is_half_difference(self):
        rng = np.random.default_rng(4)
        U = rng.uniform(0, 2, 7)
        V = rng.uniform(0, 2, 7)
        est = fge_offset(U, V, 3.0, 2.0, 0.05, "recursive")
        assert est.theta_hat_N == (est.xi_hat_N - est.psi_hat_N) / 2

    def test_fge_equals_ml_at_sigma_zero_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = rng.integers(1, 12)
            U = rng.uniform(0, 2, n)
            V = rng.uniform(0, 2, n)
            ml = ml_offset(U, V).theta_hat_N
            for variant in ("recursive", "paper"):
                assert fge_offset(U, V, 3.0, 7.0, 0.0, variant).theta_hat_N == ml

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fge_offset([1.0, 2.0], [1.0], 1.0, 1.0, 0.1)
        with pytest.raises(ShapeError):
            ml_offset([1.0, 2.0], [1.0])

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            fge_offset([1.0], [1.0], 1.0, 1.0, 0.1, variant="bogus")

    @pytest.mark.parametrize("call", [
        lambda: fge_offset([[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0]], 10, 10, 0.1),
        lambda: fge_offset([1.0, 2.0], [[1.0], [2.0, 3.0]], 1.0, 1.0, 0.1),
        lambda: closed_form_estimate_paper([[1.0, 2.0], [3.0]], 1.0, 0.1),
        lambda: chain_kernel("ml", 1.0, 0.1, 2)([[1.0, 2.0], [3.0]]),
        lambda: exact_map_active_set([[1.0], [2.0, 3.0]], 10, 0.1),
    ])
    def test_ragged_nested_lists_are_shape_errors(self, call):
        with pytest.raises(ShapeError, match="ragged"):
            call()

    @pytest.mark.parametrize("lambda_psi", [True, np.True_])
    def test_equal_but_invalid_rate_still_refused(self, lambda_psi):
        # True == 1.0, so a check shared on equality alone would let it through
        with pytest.raises(ParameterError):
            fge_offset([1.0, 2.0], [2.0, 1.0], 1.0, lambda_psi, 0.1)
        with pytest.raises(ParameterError):
            fge_offset([1.0, 2.0], [2.0, 1.0], lambda_psi, 1.0, 0.1)


class TestEquivariance:
    def test_translation(self):
        rng = np.random.default_rng(6)
        U = rng.uniform(0, 2, 9)
        V = rng.uniform(0, 2, 9)
        c = 0.8125  # exactly representable so the shift is exact
        for variant in ("recursive", "paper"):
            base = fge_offset(U, V, 4.0, 4.0, 0.05, variant).theta_hat_N
            shifted = fge_offset(U + c, V, 4.0, 4.0, 0.05, variant).theta_hat_N
            assert shifted == pytest.approx(base + c / 2, abs=1e-12)
        assert ml_offset(U + c, V).theta_hat_N == pytest.approx(
            ml_offset(U, V).theta_hat_N + c / 2, abs=1e-12
        )

    def test_monotone_in_each_observation(self):
        rng = np.random.default_rng(7)
        U = rng.uniform(0, 2, 6)
        for variant in ("recursive", "paper"):
            for k in range(6):
                for bump in (0.1, 0.5):
                    U2 = U.copy()
                    U2[k] += bump
                    if variant == "recursive":
                        lo = backtrack_estimate(U, 3.0, 0.1).xi_hat[-1]
                        hi = backtrack_estimate(U2, 3.0, 0.1).xi_hat[-1]
                    else:
                        lo = closed_form_estimate_paper(U, 3.0, 0.1)
                        hi = closed_form_estimate_paper(U2, 3.0, 0.1)
                    assert hi >= lo


class TestSigmaLimit:
    def test_paper_variant_within_stated_bound(self):
        rng = np.random.default_rng(8)
        for sigma in (1e-6, 1e-4):
            for _ in range(100):
                n = int(rng.integers(1, 26))
                U = rng.uniform(0, 2, n)
                V = rng.uniform(0, 2, n)
                lam_xi, lam_psi = 10.0, 7.0
                fge = fge_offset(U, V, lam_xi, lam_psi, sigma, "paper").theta_hat_N
                ml = ml_offset(U, V).theta_hat_N
                assert abs(fge - ml) <= n * max(lam_xi, lam_psi) * sigma**2

    def test_recursive_variant_within_triangular_bound(self):
        # cumulative shifts grow as m(m+1)/2, so the recursive variant's
        # distance to ML is bounded by that triangular factor instead
        rng = np.random.default_rng(9)
        for sigma in (1e-6, 1e-4):
            for _ in range(100):
                n = int(rng.integers(1, 26))
                U = rng.uniform(0, 2, n)
                V = rng.uniform(0, 2, n)
                lam = 10.0
                fge = fge_offset(U, V, lam, lam, sigma, "recursive").theta_hat_N
                ml = ml_offset(U, V).theta_hat_N
                assert abs(fge - ml) <= lam * sigma**2 * n * (n + 1) / 2


CHAIN_ESTIMATORS = {
    "backtrack": lambda U: backtrack_estimate(U, 2.0, 0.1),
    "paper": lambda U: closed_form_estimate_paper(U, 2.0, 0.1),
    "fge-recursive": lambda U: fge_offset(U, [1.0, 1.0, 1.0], 2.0, 2.0, 0.1, "recursive"),
    "fge-paper": lambda U: fge_offset(U, [1.0, 1.0, 1.0], 2.0, 2.0, 0.1, "paper"),
    "ml": lambda U: ml_offset(U, [1.0, 1.0, 1.0]),
    "ml-v": lambda U: ml_offset([1.0, 1.0, 1.0], U),
    "kernel": lambda U: chain_kernel("recursive", 2.0, 0.1, 3)(np.array([U])),
    "kernel-series": lambda U: chain_kernel("ml", 2.0, 0.1, 3)(U),
}


class TestNonFiniteObservations:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("estimator", sorted(CHAIN_ESTIMATORS))
    def test_rejected(self, estimator, bad):
        # min(bar, nan) is bar, so an unchecked recursive pass would skip a NaN
        with pytest.raises(ParameterError, match="finite"):
            CHAIN_ESTIMATORS[estimator]([0.5, bad, 0.7])

    def test_kernel_checks_shape(self):
        kernel = chain_kernel("paper", 2.0, 0.1, 3)
        U = np.array([0.4, 1.0, 0.7])
        want = np.float64(closed_form_estimate_paper(U, 2.0, 0.1))
        assert kernel(U).tobytes() == want.tobytes()
        with pytest.raises(ShapeError):
            kernel(np.ones((2, 4)))
        with pytest.raises(ShapeError):
            kernel(np.ones(4))
        with pytest.raises(ShapeError):
            kernel(np.ones((2, 1, 3)))


class TestChainKernel:
    @pytest.mark.parametrize("variant", ["recursive", "paper", "ml"])
    @pytest.mark.parametrize("sigma", [0.0, 1e-2, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_rows_match_single_series(self, variant, sigma, n):
        rng = np.random.default_rng(n)
        U = rng.uniform(0.0, 2.0, size=(40, n))
        single = {
            "recursive": lambda row: backtrack_estimate(row, 3.0, sigma).xi_hat[-1],
            "paper": lambda row: closed_form_estimate_paper(row, 3.0, sigma),
            "ml": lambda row: ml_offset(row, row).xi_hat_N,
        }[variant]
        got = chain_kernel(variant, 3.0, sigma, n)(U)
        want = np.array([single(row) for row in U])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", ["recursive", "paper"])
    @pytest.mark.parametrize("shape", [(1000,), (4, 1000)])
    def test_each_build_checks_sigma_once(self, monkeypatch, variant, shape):
        calls = []

        def counting(sigma, lam):
            calls.append(sigma)
            return sigma_squared(sigma, lam)

        monkeypatch.setattr(estimators, "sigma_squared", counting)
        U = np.random.default_rng(3).uniform(0.0, 2.0, shape)
        chain_kernel(variant, 3.0, 1e-2, shape[-1])(U)
        assert len(calls) == 1

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            chain_kernel("bogus", 1.0, 0.1, 3)

    @pytest.mark.parametrize("variant", ["recursive", "paper", "ml"])
    @pytest.mark.parametrize("bad", [
        np.array([1.0, 2.0]), [1.0, math.nan, 2.0, 3.0, 4.0], [math.inf] * 5,
        np.full((2, 5), -math.inf), np.float64(1.0), np.ones((1, 2, 5)), list("abcde"),
        ["1", "2", "3", "4", "5"], [None] * 5, [True] * 5, np.ones((0, 5)),
    ])
    def test_malformed_observations_refused(self, variant, bad):
        # an unchecked builder estimates a 2-round series with the shifts of 5 rounds
        with pytest.raises(FgclockError):
            chain_kernel(variant, 10.0, 0.1, 5)(bad)

    @pytest.mark.parametrize("n", [True, "3", 2.5])
    def test_round_count_must_be_a_whole_number(self, n):
        with pytest.raises(ParameterError):
            chain_kernel("paper", 1.0, 0.1, n)
        with pytest.raises(ParameterError):
            backward_constants(1.0, 0.1, n)


@pytest.mark.parametrize(
    "sigma, underflows",
    [(1e-200, True), (1e-160, True), (1e200, False), (math.inf, False), (math.nan, False),
     (5e153, False), (1.34e154, False)],
)
def test_extreme_sigma_stays_in_error_contract(sigma, underflows):
    # sigma**2 underflowing (to 0 or below the normal range) behaves as
    # sigma = 0; a sigma whose square, or lam * sigma**2 (lam = 10 here), is
    # not finite is a ParameterError.
    U, V = [1.0, 0.4, 0.8], [0.9, 1.1, 0.7]
    estimators = {
        "backtrack": lambda s: backtrack_estimate(U, 10.0, s).xi_hat[-1],
        "paper": lambda s: closed_form_estimate_paper(U, 10.0, s),
        "fge-recursive": lambda s: fge_offset(U, V, 10.0, 7.0, s).theta_hat_N,
        "fge-paper": lambda s: fge_offset(U, V, 10.0, 7.0, s, "paper").theta_hat_N,
        "kernel": lambda s: chain_kernel("recursive", 10.0, s, 3)(np.array([U]))[0],
    }

    def sweep():
        return mse_vs_sigma(SweepConfig(
            params=ClockModelParams(10.0, 7.0, 0.0, 1.0, 0.5, 25),
            axis="sigma", values=(sigma,), trials=20, seed=1,
        ))

    if underflows:
        for name, estimate in estimators.items():
            assert estimate(sigma) == estimate(0.0), name
        with pytest.raises(DegenerateModelError):
            backward_constants(10.0, sigma, 3)
        for row in sweep().rows:
            assert ":failed[" not in row.estimator and math.isfinite(row.mse)
        return
    for name, estimate in estimators.items():
        with pytest.raises(ParameterError):
            estimate(sigma)
    with pytest.raises(ParameterError):
        backward_constants(10.0, sigma, 3)
    if math.isnan(sigma):
        # ClockModelParams rejects it before any cell runs
        with pytest.raises(ParameterError, match="sigma"):
            sweep()
    else:
        assert {row.estimator for row in sweep().rows} == {
            f"{tag}:failed[ParameterError]" for tag in ALL_ESTIMATORS
        }


SHIFTED_ESTIMATORS = {
    "backtrack": lambda lam, s: backtrack_estimate([1.0, 0.4, 0.8], lam, s),
    "paper": lambda lam, s: closed_form_estimate_paper([1.0, 0.4, 0.8], lam, s),
    "fge-recursive": lambda lam, s: fge_offset([1.0, 0.4], [0.9, 1.1], lam, 1.0, s),
    "fge-paper": lambda lam, s: fge_offset([1.0, 0.4], [0.9, 1.1], 1.0, lam, s, "paper"),
    "kernel-recursive": lambda lam, s: chain_kernel("recursive", lam, s, 3),
    "kernel-paper": lambda lam, s: chain_kernel("paper", lam, s, 3),
    "kernel-series": lambda lam, s: chain_kernel("recursive", lam, s, 3)([1.0, 0.4, 0.8]),
    "backward_constants": lambda lam, s: backward_constants(lam, s, 3),
}


@pytest.mark.parametrize("estimator", sorted(SHIFTED_ESTIMATORS))
@pytest.mark.parametrize(
    "lam, sigma",
    [(math.inf, 0.01), (math.inf, 0.0), (math.nan, 0.01), (1e300, 1e5),
     (None, 0.01), (1j, 0.01), (10**400, 0.01)],
)
def test_non_finite_unit_shift_rejected(estimator, lam, sigma):
    # lam = inf made paper NaN (inf * 0) while recursive returned U_N; a lam
    # that float() refuses or overflows on is checked before paper converts it
    with pytest.raises(ParameterError):
        SHIFTED_ESTIMATORS[estimator](lam, sigma)


def literal_backtrack(U, shifts):
    """The first release's forward pass, indexing numpy scalars: the reference."""
    n = len(U)
    xi_bar = np.empty(n)
    xi_hat = np.empty(n)
    prev = math.inf
    for k in range(n):
        bar = prev + shifts[k]
        prev = min(bar, U[k])
        xi_bar[k] = bar
        xi_hat[k] = prev
    return xi_hat, xi_bar


def last_certain_reset(U, shifts):
    """The last 0-based round k where U_k < min(U_0..U_{k-1}) + s_k, else 0."""
    with np.errstate(over="ignore"):
        bounds = np.minimum.accumulate(U[:-1]) + shifts[1:]
    resets = np.flatnonzero(U[1:] < bounds)
    return int(resets[-1]) + 1 if resets.size else 0


def recursion_shifts(lam, sigma, n):
    """Shifts from the literal A/B/C/D recursion; zeros at sigma = 0."""
    if sigma == 0:
        return np.zeros(n)
    with np.errstate(over="ignore"):
        return backward_constants(lam, sigma, n).D * sigma**2


def paper_reference(U, lam, sigma):
    """min(U + shifts) with the shift of every round built: the paper reference."""
    with np.errstate(over="ignore"):
        return np.min(U + lam * sigma**2 * np.arange(len(U) - 1, -1, -1, dtype=float))


@pytest.fixture
def window_lengths(monkeypatch):
    """The length of every window a series or block estimator reads, in call order."""
    lengths = []

    def recording(*args, window=estimators._window):
        shifts = window(*args)
        lengths.append(len(shifts))
        return shifts

    monkeypatch.setattr(estimators, "_window", recording)
    return lengths


def model_chain(n, lam, sigma, seed):
    """A random walk plus exponential delays, as the model draws a chain."""
    params = ClockModelParams(lam, lam, sigma, 1.0, 0.5, n)
    return simulate_observations(simulate_paths(params, [seed, 0]), params, [seed, 1]).U


FAST_PATH_GRID = pytest.mark.parametrize(
    "lam, sigma, n",
    [
        (lam, sigma, n)
        for lam in (1e-3, 1.0, 10.0, 1e3)
        for sigma in (1e-150, 1e-2, 1.0, 1e150)
        for n in (1, 2, 25, 1000, 28_800)
    ],
)


class TestFastRecursivePath:
    """The recursive estimators agree bit for bit with the literal recursion."""

    @FAST_PATH_GRID
    def test_shifts_equal_recursion(self, lam, sigma, n):
        shifts = _shifts(lam, sigma_squared(sigma, lam), n)
        assert all(type(shift) is float for shift in shifts)
        assert np.array(shifts).tobytes() == recursion_shifts(lam, sigma, n).tobytes()

    @FAST_PATH_GRID
    def test_estimates_equal_reference_loop(self, lam, sigma, n):
        rng = np.random.default_rng([n, int(lam * 1000)])
        U = rng.uniform(0.0, 2.0, n)
        V = rng.uniform(-1.0, 3.0, n)
        self.assert_all_equal_reference(U, V, lam, sigma)

    def test_signed_zero_ties_keep_the_shifted_value(self):
        # at sigma = 0, bar = prev + 0.0 turns -0.0 into 0.0; a tie with an
        # observation -0.0 keeps bar, so the sign of the estimate shows the rule
        U = np.array([-0.0, -0.0, 0.0, -0.0])
        V = np.array([0.0, -0.0, -0.0, -0.0])
        xi_hat, _ = literal_backtrack(U, np.zeros(4))
        assert not np.signbit(xi_hat[-1])
        self.assert_all_equal_reference(U, V, 2.0, 0.0)

    def test_signed_zero_ties_in_every_row_of_a_wide_block(self):
        # more rows than any SIMD width, so vector body and scalar tail both run
        rng = np.random.default_rng(5)
        block = rng.choice([-0.0, 0.0], size=(37, 6))
        block[:2] = [[-0.0, -0.0, 0.0, -0.0, -0.0, -0.0], [0.0, -0.0, -0.0, -0.0, 0.0, -0.0]]
        rows = chain_kernel("recursive", 2.0, 0.0, 6)(block)
        want = np.array([literal_backtrack(u, np.zeros(6))[0][-1] for u in block])
        # bar = prev + 0.0 is +0.0, and every tie keeps it
        assert not np.signbit(want).any() and np.signbit(block[:, -1]).sum() > 9
        assert rows.tobytes() == want.tobytes()

    def test_overflowing_shifts_are_inf_without_warnings(self):
        # lam * sigma**2 = 1e307 is finite, but the shifts of distant levels
        # overflow; they round to +inf in both variants, and no NaN appears
        lam, sigma, n = 10.0, 1e153, 100
        shifts = chain_shifts(lam, sigma, n)
        with np.errstate(over="ignore"):
            paper_shifts = lam * sigma**2 * np.arange(n - 1, -1, -1, dtype=float)
        assert np.isinf(shifts[0]) and np.isfinite(shifts[-1])
        assert shifts.tobytes() == recursion_shifts(lam, sigma, n).tobytes()
        U = np.random.default_rng(6).uniform(0.0, 2.0, n)
        self.assert_all_equal_reference(U, U[::-1].copy(), lam, sigma)
        assert closed_form_estimate_paper(U, lam, sigma) == np.min(U + paper_shifts)
        assert chain_kernel("paper", lam, sigma, n)(U[None, :]).tolist() == [
            np.min(U + paper_shifts)
        ]

    @pytest.mark.parametrize("n", [1000, 28_800])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_model_shaped_chains(self, n, seed):
        # a random walk plus exponential delays, as the model draws them:
        # almost every round is a certain reset, so only late rounds bind
        params = ClockModelParams(10.0, 4.0, 1e-2, 1.0, 0.5, n)
        obs = simulate_observations(simulate_paths(params, [seed, 0]), params, [seed, 1])
        assert last_certain_reset(obs.U, chain_shifts(10.0, 1e-2, n)) > n // 2
        self.assert_all_equal_reference(obs.U, obs.V, 10.0, 1e-2)
        # the two chains at their own rates, as the offset estimators take them
        est = fge_offset(obs.U, obs.V, 10.0, 4.0, 1e-2)
        want = [literal_backtrack(X, recursion_shifts(lam, 1e-2, n))[0][-1]
                for X, lam in ((obs.U, 10.0), (obs.V, 4.0))]
        assert np.array([est.xi_hat_N, est.psi_hat_N]).tobytes() == np.array(want).tobytes()

    def test_chain_without_a_certain_reset(self):
        # sigma = 0 and strictly increasing U: no U_k lies below the running
        # minimum, and the pass runs over the whole chain
        U = np.arange(1.0, 3001.0)
        assert last_certain_reset(U, np.zeros(len(U))) == 0
        self.assert_all_equal_reference(U, U + 0.5, 3.0, 0.0)

    def test_chain_where_every_round_resets(self):
        U = np.linspace(5.0, -5.0, 2000)
        shifts = chain_shifts(3.0, 0.1, len(U))
        assert (U[1:] < np.minimum.accumulate(U[:-1]) + shifts[1:]).all()
        self.assert_all_equal_reference(U, U[::-1].copy(), 3.0, 0.1)

    @pytest.mark.parametrize("sigma", [0.0, 1e-150, 1e-3])
    def test_signed_zeros_around_certain_resets(self, sigma):
        # -0.0 < 0.0 is false: at sigma = 0 a zero never resets for certain,
        # and with shifts > 0 the reset keeps the sign of the observation
        rng = np.random.default_rng(9)
        U = rng.choice([-0.0, 0.0, 1.0], size=500)
        U[-40:] = rng.choice([-0.0, 0.0], size=40)
        self.assert_all_equal_reference(U, -U, 2.0, sigma)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_bounds_do_not_warn(self, sign):
        # the table's estimator called directly, outside the kernel's errstate:
        # near 1.7e308 the running minimum plus a finite shift overflows, and
        # distant shifts are inf; pytest makes an overflow warning an error
        lam, sigma, n = 10.0, 1e153, 60
        rng = np.random.default_rng(10)
        U = sign * 1.7e308 - rng.uniform(0.0, 1e306, n)
        U[::7] = 1.79e308
        shifts = recursion_shifts(lam, sigma, n)
        assert np.isinf(shifts[0]) and np.isfinite(shifts[-2]) and shifts[-2] > 1e307
        got = build("recursive", lam, sigma, n)(U)
        with np.errstate(over="ignore"):
            want = literal_backtrack(U, shifts)[0][-1]
        assert np.float64(got).tobytes() == want.tobytes()

    @FAST_PATH_GRID
    def test_shifts_of_a_suffix_are_a_suffix_of_the_shifts(self, lam, sigma, n):
        # the windows rest on this: a kernel keeps one shift array and slices it
        self.assert_suffix_lemma(lam, sigma, n)

    @pytest.mark.parametrize("lam", [0.1, 7.1])
    @pytest.mark.parametrize("sigma", [1e-2, 1.0])
    def test_suffix_lemma_for_rates_floats_cannot_hold(self, lam, sigma):
        self.assert_suffix_lemma(lam, sigma, 28_800)

    @staticmethod
    def assert_suffix_lemma(lam, sigma, n):
        shifts = chain_shifts(lam, sigma, n)
        with np.errstate(over="ignore"):
            paper = lam * sigma**2 * np.arange(n - 1, -1, -1, dtype=float)
            for m in {1, max(n // 3, 1), n}:
                assert chain_shifts(lam, sigma, m).tobytes() == shifts[-m:].tobytes()
                suffix = lam * sigma**2 * np.arange(m - 1, -1, -1, dtype=float)
                assert suffix.tobytes() == paper[-m:].tobytes()

    @FAST_PATH_GRID
    def test_windows_of_every_spread_equal_the_full_chain(self, lam, sigma, n, window_lengths):
        unit = lam * sigma_squared(sigma, lam)
        # U_N - min U of 0 to 1e300 unit shifts, within the float range
        for spread in (0.0, 1.0, 40.0, 5e3, 1e300):
            U = np.zeros(n)
            U[-1] = min(spread * unit, 1.7e308)
            # the full pass, which the literal recursion checks above
            want = backtrack_estimate(U, lam, sigma).xi_hat[-1]
            got = chain_kernel("recursive", lam, sigma, n)(U)
            assert np.float64(got).tobytes() == want.tobytes()
        # a flat series reads its last two rounds
        assert min(window_lengths) == min(n, 2)

    def test_python_float_shifts_overflow_to_inf(self, window_lengths):
        # lam * sigma**2 = 1e308: the window's first two shifts overflow to
        # inf without a warning, and its bound is inf > U_N
        lam, sigma, n = 1.0, 1e154, 100
        s2 = sigma_squared(sigma, lam)
        assert _shifts(lam, s2, 3) == [math.inf, math.inf, s2]
        U = np.zeros(n)
        U[-1] = 0.8 * s2
        with np.errstate(over="ignore"):
            want = literal_backtrack(U, chain_shifts(lam, sigma, n))[0][-1]
        got = chain_kernel("recursive", lam, sigma, n)(U)
        assert np.float64(got).tobytes() == want.tobytes()
        assert window_lengths == [3]

    def test_subnormal_sigma_squared_gives_zero_shifts(self, window_lengths):
        # sigma**2 = 1e-310 is subnormal while lam * sigma**2 = 1e-300 is
        # normal: the shifts are zeros, although U_N sizes a window of 143
        # rounds whose nonzero shifts would pass; a series and a block take
        # the running min and read no window
        lam, sigma, n = 1e10, 1e-155, 1000
        s2 = sigma_squared(sigma, lam)
        assert s2 < 2.2e-308 and lam * s2 > 2.3e-308
        assert np.array(_shifts(lam, s2, n)).tobytes() == np.zeros(n).tobytes()
        U = np.zeros(n)
        U[-1] = 1e-296
        want = literal_backtrack(U, np.zeros(n))[0][-1]
        assert np.float64(chain_kernel("recursive", lam, sigma, n)(U)).tobytes() == want.tobytes()
        rows = chain_kernel("recursive", lam, sigma, n)(np.array([U, U]))
        assert rows.tobytes() == np.array([want, want]).tobytes()
        assert window_lengths == []

    @pytest.mark.parametrize("n", [2, 3, 1000, 28_800])
    def test_windows_equal_the_full_chain(self, n, window_lengths):
        for lam, sigma in ((10.0, 1e-2), (4.0, 1e-2), (10.0, 1.0)):
            self.assert_windows_equal_references(model_chain(n, lam, sigma, n), lam, sigma)
        # at sigma = 1 a spread below one unit shift leaves the last two rounds
        self.assert_windows_equal_references(np.linspace(0.3, 0.1, n), 1.0, 1.0)
        assert min(window_lengths) == 2
        if n == 28_800:
            assert max(window_lengths) < n // 2

    # lam = 1 and sigma = 2**-5 give the recursive shifts d / 1024 at distance
    # d - 1 from the end, exact in binary, so the bound of the last m rounds
    # from M is L = M + m (m + 1) / 2048
    EXACT = dict(lam=1.0, sigma=2.0**-5)

    @classmethod
    def window_of_100(cls, U):
        """The recursive window of U, with a width that sizes it at 100 rounds."""
        lam, s2 = cls.EXACT["lam"], cls.EXACT["sigma"] ** 2
        return np.array(estimators._window(
            U, U.min(), lam * s2, lambda units: 98.5, partial(_shifts, lam, s2), estimators._total))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_window_edge_is_checked_with_the_rounded_shift(self, offset):
        # with M = 0 and U_N = (m(m - 1) / 2 + 1) / 1024 for m = 100 - offset,
        # the shortest window with L > U_N has one round more than the sized
        # window of 100, as many or one fewer; only the check of L refuses it
        n = 1000
        U = np.random.default_rng(15).uniform(0.0, 1.0, n)
        U[0] = 0.0
        m = 100 - offset
        U[-1] = (m * (m - 1) // 2 + 1) / 1024
        shifts = self.window_of_100(U)
        assert len(shifts) == (n if offset == -1 else 100)
        assert shifts.tobytes() == chain_shifts(n=n, **self.EXACT)[-len(shifts):].tobytes()

    def test_bound_tying_the_last_round_takes_the_whole_chain(self):
        # L of the sized window, 5050 / 1024, equals U_N: a tie is no proof
        n = 1000
        U = np.random.default_rng(16).uniform(0.0, 1.0, n)
        U[0], U[-1] = 0.0, 5050 / 1024
        assert len(self.window_of_100(U)) == n
        U[-1] = 5049 / 1024
        assert len(self.window_of_100(U)) == 100

    def test_round_just_before_the_window_that_ties_the_result(self):
        # the round just before the sized window holds M = -5050 / 1024, so its
        # candidate, and L, is -5050 / 1024 + 5050 / 1024 = +0.0; U_N = -0.0
        # ties it, and the full pass keeps +0.0 while a pass over the window
        # alone would end at -0.0
        n = 1000
        U = np.ones(n)
        U[n - 101], U[-1] = -5050 / 1024, -0.0
        full = literal_backtrack(U, chain_shifts(n=n, **self.EXACT))[0][-1]
        assert not np.signbit(full)
        shifts = self.window_of_100(U)
        assert len(shifts) == n
        window = literal_backtrack(U[n - 100:], shifts[n - 100:])[0][-1]
        assert np.signbit(window)
        self.assert_windows_equal_references(U, **self.EXACT)

    def test_model_chain_windows_are_short(self, window_lengths):
        # the triangular shifts leave only the last few dozen rounds of a
        # model chain; a window sized from one level's shift held thousands
        n = 28_800
        for seed in range(4):
            U = model_chain(n, 10.0, 1e-2, seed)
            got = chain_kernel("recursive", 10.0, 1e-2, n)(U)
            want = literal_backtrack(U, chain_shifts(10.0, 1e-2, n))[0][-1]
            assert np.float64(got).tobytes() == want.tobytes()
        assert len(window_lengths) == 4 and max(window_lengths) < 200

    def test_model_block_reads_a_short_window(self, window_lengths):
        # a 28 800-round block is sized by its largest U_N, and each row is
        # bit for bit its series
        n = 28_800
        block = np.array([model_chain(n, 10.0, 1e-2, seed) for seed in (5, 6)])
        for tag in ("recursive", "paper"):
            kernel = chain_kernel(tag, 10.0, 1e-2, n)
            rows = kernel(block)
            assert window_lengths.pop() < n // 2, tag
            assert rows.tobytes() == np.array([kernel(U) for U in block]).tobytes(), tag

    def test_block_rows_far_apart_read_the_whole_chain(self, window_lengths):
        # the second row's U_N lies 1e4 above the first's: the block's window,
        # sized from the largest U_N, is the whole chain, where the first row
        # alone reads a short one
        n = 2000
        U = model_chain(n, 10.0, 1e-2, 7)
        block = np.array([U, U])
        block[1, -1] += 1e4
        for tag in ("recursive", "paper"):
            kernel = chain_kernel(tag, 10.0, 1e-2, n)
            rows = kernel(block)
            series = [kernel(row) for row in block]
            assert rows.tobytes() == np.array(series).tobytes(), tag
            assert window_lengths[0] == n and window_lengths[1] < n // 2, tag
            window_lengths.clear()

    def test_window_covers_sums_that_round_down(self, window_lengths):
        # near 2**45 the spacing of floats is 8 unit shifts of 1 / 1024, so
        # fl(M + s) rounds down to U_N unless s exceeds U_N - M by about an
        # ulp; with U_N = M the last shifts alone round away
        U = 2.0**45 + np.random.default_rng(14).integers(0, 50, 1000) / 128
        self.assert_windows_equal_references(U, 1.0, 2.0**-5)
        U[-1] = U.min()
        self.assert_windows_equal_references(U, 1.0, 2.0**-5)
        assert max(window_lengths) < 500

    def test_edge_ties_stay_inside_the_window(self, window_lengths):
        # shifts exact, M = 0: for recursive U_N = 210 / 1024 ties L of the
        # last 20 rounds; for paper U_N ties the candidate of M at distance
        # 150 or 210; each tying round must stay in the window
        rng = np.random.default_rng(11)
        U = rng.integers(1, 200, 1000) / 1024
        U[3] = 0.0
        for last in (150 / 1024, 210 / 1024):
            U[-1] = last
            self.assert_windows_equal_references(U, 1.0, 2.0**-5)
        # recursive: int(sqrt(2 * 1024 * U_N)) + 2; paper: 1024 * U_N + 2
        assert window_lengths == [19, 152, 22, 212]

    @pytest.mark.parametrize("lam, sigma", [(3.0, 0.0), (1e10, 1e-155), (1e-300, 1e-5)])
    def test_whole_chain_when_the_unit_shift_vanishes(self, lam, sigma, window_lengths):
        # sigma = 0; sigma**2 subnormal, so recursive shifts are 0 and a
        # recursive series reads no window; lam * sigma**2 subnormal
        U = np.zeros(1000)
        self.assert_windows_equal_references(U, lam, sigma)
        U[0] = -1e-298
        self.assert_windows_equal_references(U, lam, sigma)
        self.assert_windows_equal_references(model_chain(1000, 10.0, 1e-2, 7), lam, sigma)
        if sigma == 1e-155:
            # paper's shifts 1e-300 * d are not zero, and its windows stand
            assert window_lengths == [2, 102, 1000]
        elif sigma == 0.0:
            # every shift of either variant is 0.0: neither series reads a window
            assert window_lengths == []
        else:
            assert window_lengths == [1000] * 6

    @pytest.mark.parametrize("sigma", [0.0, 1e-170, 1e-155])
    def test_flat_series_take_one_reduction(self, sigma, window_lengths):
        # sigma**2 is 0 or subnormal, so every shift is 0.0: a series reads
        # no window, and its min keeps the pass's signed zeros, huge and
        # subnormal values
        rng = np.random.default_rng(14)
        pool = [0.0, -0.0, 1.0, -1.0, 1.7e308, -1.7e308, 5e-324, -5e-324]
        chains = [rng.choice(pool, size=int(rng.integers(1, 9))) for _ in range(3000)]
        # U_N is the min, of either sign, tied or not by an earlier zero of either sign
        chains += [np.array(U) for U in ([-0.0], [0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0],
                                         [-0.0, -0.0], [1.0, 0.0, -0.0], [1.0, -0.0, 0.0],
                                         [1.0, 0.0], [1.0, -0.0], [-1.0, 2.0, -1.0])]
        for U in chains:
            want = literal_backtrack(U, np.zeros(len(U)))[0][-1]
            got = chain_kernel("recursive", 2.0, sigma, len(U))(U)
            assert np.float64(got).tobytes() == want.tobytes()
            got = chain_kernel("paper", 2.0, sigma, len(U))(U)
            assert np.float64(got).tobytes() == paper_reference(U, 2.0, sigma).tobytes()
        # paper's shifts 2 sigma**2 d are subnormal, not zero, at sigma = 1e-155
        assert window_lengths == ([len(U) for U in chains] if sigma == 1e-155 else [])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_spread_takes_the_whole_chain(self, sign, window_lengths):
        lam, sigma, n = 1.0, 1e153, 200
        rng = np.random.default_rng(12)
        U = sign * 1.7e308 - rng.uniform(0.0, 1e306, n)
        U[::9] = -sign * 1.7e308
        U[-1] = 1.7e308
        # U_N - M overflows
        assert math.isinf(float(U[-1]) - float(U.min()))
        self.assert_windows_equal_references(U, lam, sigma)
        assert window_lengths == [n, n]
        # the table's estimators, outside any errstate, do not warn
        for tag in ("recursive", "paper"):
            build(tag, lam, sigma, n)(U)

    @pytest.mark.parametrize("last", [0.0, -0.0])
    def test_signed_zeros_at_the_window_edge(self, last, window_lengths):
        # M = -100 / 1024: the paper candidate of M at distance 100 is +0.0,
        # a tie with U_N + 0.0
        rng = np.random.default_rng(13)
        U = rng.choice([-0.0, 0.0, -2.0**-10], size=1000)
        U[[0, 400]] = -100 / 1024, 0.0
        U[-1] = last
        self.assert_windows_equal_references(U, 1.0, 2.0**-5)
        U[-101:] = rng.choice([-0.0, 0.0], size=101)
        self.assert_windows_equal_references(U, 1.0, 2.0**-5)
        assert max(window_lengths) < 200

    def test_strided_float32_and_int_series_equal_float64_copies(self, window_lengths):
        chain = model_chain(4000, 10.0, 1e-2, 8)
        for U in (chain[::2], chain.astype(np.float32), np.round(chain * 1e3).astype(int)):
            copy = np.ascontiguousarray(U, dtype=float)
            n = len(U)
            for tag in ("recursive", "paper"):
                for lam, sigma in ((10.0, 1e-2), (1e-3, 1.0)):
                    kernel = chain_kernel(tag, lam, sigma, n)
                    got = np.float64(kernel(U)).tobytes()
                    assert got == np.float64(kernel(copy)).tobytes(), (tag, U.dtype)
                    assert got == np.float64(fge_offset(U, copy, lam, lam, sigma, tag)
                                              .psi_hat_N).tobytes()
        assert min(window_lengths) < 1000

    @staticmethod
    def assert_windows_equal_references(U, lam, sigma):
        """Each variant's series result, bit for bit its full-chain reference."""
        n = len(U)
        with np.errstate(over="ignore"):
            want = {
                "recursive": literal_backtrack(U, chain_shifts(lam, sigma, n))[0][-1],
                "paper": paper_reference(U, lam, sigma),
            }
        for tag, value in want.items():
            got = chain_kernel(tag, lam, sigma, n)(U)
            assert np.float64(got).tobytes() == value.tobytes(), tag

    @staticmethod
    def assert_all_equal_reference(U, V, lam, sigma):
        n = len(U)
        shifts = recursion_shifts(lam, sigma, n)
        want_hat, want_bar = literal_backtrack(U, shifts)
        want_psi, _ = literal_backtrack(V, shifts)
        got = backtrack_estimate(U, lam, sigma)
        assert got.xi_hat.tobytes() == want_hat.tobytes()
        assert got.xi_bar.tobytes() == want_bar.tobytes()
        est = fge_offset(U, V, lam, lam, sigma)
        assert np.array([est.xi_hat_N, est.psi_hat_N]).tobytes() == np.array(
            [want_hat[-1], want_psi[-1]]
        ).tobytes()
        rows = chain_kernel("recursive", lam, sigma, n)(np.array([U, V]))
        assert rows.tobytes() == np.array([want_hat[-1], want_psi[-1]]).tobytes()


# Drawn from a small pool as well as from all finite floats, so that
# repeated values and 0.0/-0.0 ties are common.
chain_values = st.sampled_from([0.0, -0.0, 1.0, -1.5]) | st.floats(
    allow_nan=False, allow_infinity=False
)
chains = st.lists(chain_values, min_size=1, max_size=40).map(np.array)


class TestEstimatorTable:
    @given(U=chains, lam=st.floats(1e-3, 1e3), sigma=st.just(0.0) | st.floats(1e-4, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_series_block_rows_and_backtrack_agree_bit_for_bit(self, U, lam, sigma):
        # 17 rows: more than any SIMD width, so vector body and scalar tail both run
        block = np.array([np.roll(U, j) for j in range(17)])
        final = {}
        for tag in ESTIMATORS:
            estimate = build(tag, lam, sigma, len(U))
            singles = np.array([estimate(row) for row in block])
            assert estimate(block).tobytes() == singles.tobytes(), tag
            final[tag] = singles[0]
            series = chain_kernel(tag, lam, sigma, len(U))(U)
            offset = fge_offset(U, U[::-1], lam, lam, sigma, tag).xi_hat_N
            assert np.float64(series).tobytes() == np.float64(offset).tobytes(), tag
        want = backtrack_estimate(U, lam, sigma).xi_hat[-1]
        assert final["recursive"].tobytes() == want.tobytes()
        assert final["ml"] <= final["paper"] and final["ml"] <= final["recursive"]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6000),
        lam=st.floats(2.0, 50.0),
        sigma=st.floats(3e-3, 0.3) | st.just(0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_model_chains_series_and_block_rows_agree(self, seed, n, lam, sigma):
        # model-shaped chains long enough that a window starts after round 1:
        # a random walk plus exponential delays
        rng = np.random.default_rng(seed)
        U = np.cumsum(rng.normal(0.0, sigma, n)) + rng.exponential(1.0 / lam, n)
        block = np.array([U, U[::-1]])
        series = {}
        for tag in ESTIMATORS:
            series[tag] = np.float64(chain_kernel(tag, lam, sigma, n)(U))
            rows = build(tag, lam, sigma, n)(block)
            assert series[tag].tobytes() == rows[0].tobytes(), tag
        want = literal_backtrack(U, chain_shifts(lam, sigma, n))[0][-1]
        assert series["recursive"].tobytes() == want.tobytes()

    @given(U=chains, lam=st.integers(1, 1000), log2_sigma=st.integers(-30, 3))
    @settings(max_examples=300, deadline=None)
    def test_order_is_exact_when_shifts_are(self, U, lam, log2_sigma):
        """ml <= paper <= recursive exactly in floating point.

        With lam a small integer and sigma a power of two every shift is
        exact, so the first shift that recursive adds to U_k equals the
        shift (N - k) lam sigma^2 of paper, and rounding is monotone. With
        other lam the two shifts can round apart by an ulp, and so can the
        estimates: at lam = 1/6, sigma = 1, N = 7 and U_1 = 2**53 + 2 (all
        other U_k = 1e300), recursive is 2**53 + 2 and paper 2**53 + 4.
        """
        sigma = 2.0**log2_sigma
        final = {tag: build(tag, float(lam), sigma, len(U))(U) for tag in ESTIMATORS}
        assert final["ml"] <= final["paper"] <= final["recursive"]
