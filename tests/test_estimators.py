import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgclock import (
    ClockModelParams,
    DegenerateModelError,
    ParameterError,
    ShapeError,
    backtrack_estimate,
    backward_constants,
    closed_form_estimate_paper,
    compose_shift,
    fge_offset,
    ml_offset,
    shift_kernel,
)
from fgclock.estimators import _chain_shifts, chain_kernel
from fgclock.experiments import ALL_ESTIMATORS, SweepConfig, mse_vs_sigma

finite_reals = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


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


class TestComposeShift:
    def test_single_level_equals_kernel(self):
        c = backward_constants(3.0, 0.4, 5)
        x = 1.25
        assert compose_shift(c, 5, 5, x) == shift_kernel(c, 5, x)

    def test_two_level_sum(self):
        c = backward_constants(1.0, 1.0, 3)
        assert compose_shift(c, 2, 3, 0.0) == pytest.approx(3.0)

    def test_monotone_in_x(self):
        c = backward_constants(2.0, 0.5, 6)
        xs = np.linspace(-3, 3, 20)
        ys = [compose_shift(c, 2, 5, x) for x in xs]
        assert np.all(np.diff(ys) >= 0)

    def test_index_order_violation(self):
        c = backward_constants(1.0, 1.0, 4)
        with pytest.raises(ParameterError):
            compose_shift(c, 3, 2, 0.0)


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
        with pytest.raises(ShapeError):
            kernel(np.ones(3))
        with pytest.raises(ShapeError):
            kernel(np.ones((2, 4)))


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

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            chain_kernel("bogus", 1.0, 0.1, 3)


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
    "backward_constants": lambda lam, s: backward_constants(lam, s, 3),
}


@pytest.mark.parametrize("estimator", sorted(SHIFTED_ESTIMATORS))
@pytest.mark.parametrize(
    "lam, sigma",
    [(math.inf, 0.01), (math.inf, 0.0), (math.nan, 0.01), (1e300, 1e5)],
)
def test_non_finite_unit_shift_rejected(estimator, lam, sigma):
    # lam = inf made paper NaN (inf * 0) while recursive returned U_N
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


def recursion_shifts(lam, sigma, n):
    """Shifts from the literal A/B/C/D recursion; zeros at sigma = 0."""
    if sigma == 0:
        return np.zeros(n)
    with np.errstate(over="ignore"):
        return backward_constants(lam, sigma, n).D * sigma**2


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
        shifts = _chain_shifts(lam, sigma, n)
        assert shifts.flags.c_contiguous
        assert shifts.tobytes() == recursion_shifts(lam, sigma, n).tobytes()

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
        shifts = _chain_shifts(lam, sigma, n)
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
