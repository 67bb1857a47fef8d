import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgclock
from fgclock import (
    ClockModelParams,
    DegenerateModelError,
    FgclockError,
    GridCoverageError,
    ParameterError,
    SizeError,
    backtrack_estimate,
    chain_log_posterior,
    exact_map_active_set,
    grid_max_marginal,
    hull_map,
    simulate_observations,
    simulate_paths,
)
from fgclock import oracle
from fgclock.estimators import final_estimate
from fgclock.oracle import MapSolution, _quad_max_conv


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
        hull = hull_map(U, 100.0, 1.0)
        k = int(np.argmin(U))
        assert (k + 1) in sol.active_set
        assert np.all(np.diff(sol.path[k:]) >= -1e-9)
        np.testing.assert_allclose(sol.path, hull.path, atol=1e-8)

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

    @pytest.mark.parametrize("U", [[1.0, -10.0], [1.0, -10.0, 1.0]])
    def test_a_later_round_below_the_grid_is_refused(self, U):
        # the cut of round 2 is index 0, so its message, and every later one, is empty
        with pytest.raises(GridCoverageError, match="-inf everywhere"):
            grid_max_marginal(U, 1.0, 0.1, lo=0.0, hi=2.0, points=64)

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

    @pytest.mark.filterwarnings("error")
    def test_overflow_past_the_last_cut_is_refused(self):
        # lam hi = 1e308: the second round's sums overflow only above its cut, which
        # no later round reads, and are refused all the same
        with pytest.raises(ParameterError, match="the max-marginals overflow on the grid"):
            grid_max_marginal([0.9e8, 0.5e8], 1e300, 1e4, 0.0, 1e8, 4096)

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


def rounded(U, lam, sigma):
    """``U`` rounded to multiples of lam sigma**2, where free segments meet it and sets tie."""
    a = lam * sigma**2
    return np.round(U / a) * a


# the enumeration cap: model chains, the same rounded (at lam sigma**2 = 1, 2 to 4 sets
# tie), and constant chains, where all 2047 or 4095 sets are feasible and tie
CAP_CASES = [
    *((U, lam, sigma) for n in (11, 12) for lam, sigma in [(10.0, 1e-2), (1.0, 1.0)]
      for U in (random_instance(n, n=n, lam=lam, sigma=sigma, master=73),
                rounded(random_instance(n, n=n, lam=lam, sigma=sigma, master=73), lam, sigma))),
    (np.full(11, -0.75), 1.0, 1e-7),
    (np.full(12, 2.5), 1.0, 1e-7),
]


def literal_candidates(U, lam, sigma):
    """The bytes of each feasible set's clipped path, its root pinned at x_1, in mask order."""
    candidates = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, x in literal_feasible_sets(U, lam, sigma):
            path = np.minimum(x, U)
            candidates.append(np.concatenate(([path[0]], path)).tobytes())
    return candidates


def scored_candidates(U, lam, sigma, monkeypatch):
    """The bytes of each candidate that enumeration scores, in turn, whether or not it raises."""
    scored = []

    def record(candidate, *args):
        scored.append(candidate.tobytes())
        return core(candidate, *args)

    core = oracle._chain_log_posterior
    monkeypatch.setattr(oracle, "_chain_log_posterior", record)
    try:
        exact_map_active_set(U, lam, sigma)
    except ParameterError:
        pass
    return scored


def is_subsequence(short, long):
    rest = iter(long)
    return all(any(item == other for other in rest) for item in short)


def thomas_free_segment(u, lo, hi, n, lam_s2):
    """The stationary point x[lo..hi] of one free segment, as a list: each piece's own
    Thomas solve, as enumeration ran it before the pieces from one round shared their
    forward elimination; the reference."""
    m = hi - lo + 1
    diag = [2.0] * m
    rhs = [lam_s2] * m
    if lo == 0:
        diag[0] = 1.0
    else:
        rhs[0] += u[lo - 1]
    if hi == n - 1:
        diag[-1] = 1.0
    else:
        rhs[-1] += u[hi + 1]
    for i in range(1, m):
        w = -1.0 / diag[i - 1]
        diag[i] += w
        rhs[i] -= w * rhs[i - 1]
    x = [rhs[m - 1] / diag[m - 1]] * m
    for i in range(m - 2, -1, -1):
        x[i] = (rhs[i] + x[i + 1]) / diag[i]
    return x


def piece_chains():
    """``(U, lam, sigma)`` of 1 to 12 rounds: model chains, the same rounded to multiples
    of lam sigma**2, where free segments meet U, signed zeros, and values from +-1e300 to
    +-1.7e308, whose sums overflow to inf."""
    rng = np.random.default_rng(83)
    for i in range(60):
        n = 1 + i % 12
        lam, sigma = [(10.0, 1e-2), (1.0, 1.0), (0.5, 0.5)][i % 3]
        U = random_instance(i, n=n, lam=lam, sigma=sigma, master=89)
        yield U, lam, sigma
        yield rounded(U, lam, sigma), lam, sigma
        yield rng.choice([0.0, -0.0, -2.0**-10, 2.0**-10], n), 1.0, 2.0**-5
        yield rng.choice([1e300, -1e300, 1.7e308, -1.7e308, 0.0, -0.0], n), lam, sigma


class TestSharedElimination:
    """Each piece from one start round, solved by the shared forward elimination, gives
    the bits of its own Thomas solve."""

    def test_every_piece_equals_its_own_thomas_solve(self):
        checked = 0
        for U, lam, sigma in piece_chains():
            n, u, lam_s2 = len(U), U.tolist(), lam * sigma**2
            for a in range(-1, n):
                pieces = list(oracle._pieces(u, [math.inf] * n, a, lam_s2))
                # a piece needs an anchor, so a = -1 stops short of b = n
                ends = range(a + 1, n + 1 if a >= 0 else n)
                assert len(pieces) == len(ends)
                for b, x in zip(ends, pieces):
                    want = thomas_free_segment(u, a + 1, b - 1, n, lam_s2) if b > a + 1 else []
                    assert np.array(x, dtype=float).tobytes() == np.array(want, float).tobytes()
                    checked += 1
        assert checked == sum((n + 1) * (n + 2) // 2 - 1 for n in range(1, 13)) * 20

    def test_the_piece_with_no_free_round_comes_first(self):
        # so every round is reached from the one before it, whatever the caps
        for U, lam, sigma in piece_chains():
            n, u, lam_s2 = len(U), U.tolist(), lam * sigma**2
            for cap in ([math.inf] * n, u, [-math.inf] * n):
                for a in range(-1, n):
                    assert next(oracle._pieces(u, cap, a, lam_s2)) == []

    def test_a_piece_above_cap_is_dropped(self):
        for U, lam, sigma in piece_chains():
            n, u, lam_s2 = len(U), U.tolist(), lam * sigma**2
            tol = 1e-9 * max(1.0, float(np.max(np.abs(U))))
            cap = [v + tol for v in u]
            for a in range(-1, n):
                full = oracle._pieces(u, [math.inf] * n, a, lam_s2)
                for x, capped in zip(full, oracle._pieces(u, cap, a, lam_s2)):
                    if any(v > c for v, c in zip(x, cap[a + 1:])):
                        assert capped is None
                    else:
                        assert np.array(capped, float).tobytes() == np.array(x, float).tobytes()


class TestLiteralReferences:
    """The oracles' Python-float loops give the numpy-scalar loops' bits."""

    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    def test_exact_map_equals_reference(self, case):
        U, lam, sigma = LITERAL_CASES[case]
        sol = exact_map_active_set(U, lam, sigma)
        path, obj, active = literal_exact_map(U, lam, sigma)
        assert sol.path.tobytes() == path.tobytes()
        assert (sol.objective, sol.active_set) == (obj, active)

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

    @pytest.mark.parametrize("case", range(len(CAP_CASES)))
    def test_exact_map_at_the_cap_equals_reference(self, case):
        U, lam, sigma = CAP_CASES[case]
        sol = exact_map_active_set(U, lam, sigma)
        path, obj, active = literal_exact_map(U, lam, sigma)
        assert sol.path.tobytes() == path.tobytes()
        assert (sol.objective, sol.active_set) == (obj, active)

    @pytest.mark.parametrize("U, lam, sigma", [
        *LITERAL_CASES, *CAP_CASES,
        # three sets within 1.5e-7 of the best, which the tie rule tells apart
        (np.array([0.0, 3e-7, 1e-7, 4e-7, 2e-7]), 1.0, 1e-4),
    ])
    def test_objective_scores_the_sets_near_the_best_in_mask_order(self, U, lam, sigma,
                                                                   monkeypatch):
        scored = scored_candidates(U, lam, sigma, monkeypatch)
        want = literal_candidates(U, lam, sigma)
        # each set at most once, in mask order
        assert is_subsequence(scored, want)
        objectives, scales = [], []
        for candidate in map(np.frombuffer, want):
            incr = np.diff(candidate)
            objectives.append(chain_log_posterior(candidate, U, lam, sigma))
            scales.append(incr @ incr / (2.0 * sigma**2) + lam * np.abs(candidate[1:]).sum())
        low = max(objectives) - 1e-6 * (1.0 + max(scales))
        near = [c for c, obj in zip(want, objectives) if obj >= low]
        assert is_subsequence(near, scored)

    @pytest.mark.parametrize("U, lam, sigma", [
        # from TestTiesAndOverflow, each refused at its first set
        *((U, lam, sigma) for U in ([-1e308] * 4, [1e308, 1.5e308, 1.7e308, 1.79e308],
                                    [-1.7976931348623157e308] * 3)
          for lam, sigma in [(1.0, 1.0), (1e-3, 1e150)]),
        # the second set's log posterior overflows, where the screen's would drop it
        ([0.0, 1e308], 1.0, 1.0),
        ([0.0, 1e308], 1e-3, 1e150),
        # every lam * sum |x| is 1e308, past the screen's limit, and every set is finite
        ([5e307, 5e307], 1.0, 1.0),
    ], ids=str)
    def test_chains_near_the_float_limit_score_every_feasible_set(self, U, lam, sigma,
                                                                  monkeypatch):
        U = np.array(U)
        # up to the first refused set, so that the same one is refused with the same message
        want = []
        for candidate in literal_candidates(U, lam, sigma):
            want.append(candidate)
            try:
                oracle._chain_log_posterior(np.frombuffer(candidate), lam, sigma**2)
            except ParameterError:
                break
        assert scored_candidates(U, lam, sigma, monkeypatch) == want


def walked_exact_map(U, lam, sigma):
    """Enumeration as it walked before each piece was scored once: every feasible set's path,
    built through ``oracle._pieces`` in mask order, each scored exactly in turn with the tie
    rule; the reference."""
    U, s2 = oracle._validate_chain_args(U, lam, sigma)
    n = len(U)
    oracle.check_enumerable(n)
    lam_s2 = float(lam) * s2
    u = U.tolist()
    tol = 1e-9 * max(1.0, float(np.max(np.abs(U))))
    cap = [v + tol for v in u]
    # the paths -1 -> b through feasible pieces, in mask order
    ends = {-1: [(0, [])], **{b: [] for b in range(n + 1)}}
    for a in range(-1, n):
        if ends[a]:
            for b, x in enumerate(oracle._pieces(u, cap, a, lam_s2), a + 1):
                if x is not None:
                    x += u[b:b + 1]
                    ends[b] += [(mask | 1 << b, head + x) for mask, head in ends[a]]
    bounds = np.concatenate((U[:1], U))
    best = None
    for mask, x in ends[n]:
        candidate = np.minimum(np.array(x)[[0, *range(n)]], bounds)
        obj = oracle._chain_log_posterior(candidate, lam, s2)
        members = tuple(k + 1 for k in range(n) if mask >> k & 1)
        tie_tol = 1e-12 * max(1.0, abs(best[0])) if best else 0.0
        if (best is None or obj > best[0] + tie_tol
                or (obj > best[0] - tie_tol and members < best[1])):
            best = (obj, members, candidate[1:])
    return MapSolution(path=best[2].copy(), objective=best[0], active_set=frozenset(best[1]))


def outcome(solve, *args):
    """A solution's path bytes, objective in hex and active set, or a refusal's class and
    message."""
    try:
        sol = solve(*args)
    except FgclockError as exc:
        return type(exc), str(exc)
    return sol.path.tobytes(), sol.objective.hex(), sol.active_set


class TestScoredPieces:
    """Enumeration scores each piece once and builds only the sets near the best, with the
    bits of the walk that built and scored every feasible set."""

    def test_equals_the_walk_that_scores_every_set(self):
        # every lam sum |x| of the 5e307 chains is 1e308, past the screen's limit, so
        # every feasible set is scored, as the float-limit test above shows for two rounds
        chains = [*piece_chains(), *CAP_CASES,
                  *((np.full(n, 5e307), 1.0, 1.0) for n in (2, 3))]
        results = [outcome(exact_map_active_set, *chain) for chain in chains]
        for chain, got in zip(chains, results):
            assert got == outcome(walked_exact_map, *chain)
        refused = sum(len(got) == 2 for got in results)
        assert 0 < refused < len(chains) - 100

    def test_the_search_scores_few_of_the_feasible_sets(self, monkeypatch):
        # the search prunes: on model chains it scores the sets near the best, not all
        scored = feasible = 0
        for i in range(16):
            U = random_instance(i, n=8, lam=10.0, sigma=1e-2, master=97)
            scored += len(scored_candidates(U, 10.0, 1e-2, monkeypatch))
            feasible += len(literal_candidates(U, 10.0, 1e-2))
        assert 16 <= scored * 10 < feasible


class TestOraclesConsistent:
    def test_objectives_match_across_routes(self):
        for i in range(50):
            U = random_instance(i, master=37)
            exact = exact_map_active_set(U, 1.0, 0.1)
            hull = hull_map(U, 1.0, 0.1)
            assert abs(exact.objective - hull.objective) <= 1e-8


ORACLES = {
    "exact": lambda U, lam, sigma: exact_map_active_set(U, lam, sigma),
    "hull": lambda U, lam, sigma: hull_map(U, lam, sigma),
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
            lambda: hull_map(U, lam, sigma),
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


def kkt_violations(path, U, lam, sigma):
    """The 1-based rounds where ``path`` fails the KKT conditions of the MAP, in 16 ulps.

    With a = lam sigma**2, x_0 = x_1 and x_{N+1} = x_N, sigma**2 mu_k = a + x_{k+1} -
    2 x_k + x_{k-1} is the multiplier of x_k <= U_k. The objective is concave, so a
    feasible path is the maximum exactly when every mu_k >= 0 and mu_k = 0 wherever
    x_k < U_k. This check shares no code with the oracles.
    """
    x, U = np.asarray(path, dtype=float), np.asarray(U, dtype=float)
    mu = np.diff(np.concatenate((x[:1], x, x[-1:])), 2) + lam * sigma**2
    tol = 16 * math.ulp(max(1.0, float(np.max(np.abs(x)))))
    bad = (x > U) | (mu < -tol) | ((x < U) & (np.abs(mu) > tol))
    return (np.flatnonzero(bad) + 1).tolist()


def literal_hull(U, lam, sigma):
    """The MAP path as the upper envelope of supporting lines, in O(N^3).

    With a = lam sigma**2 and W_k = U_k + a k^2 / 2, y_k = x_k + a k^2 / 2 is the
    greatest convex minorant of W whose slopes lie in [a/2, a(2N + 1)/2]: the
    supremum over those slopes s of the highest line of slope s under W. The
    supremum is reached at a bound or at a chord slope of W, so only those are
    tried. This forms W and shares no code with the oracle's monotone chain.
    """
    n = len(U)
    a = lam * sigma**2
    k = np.arange(1, n + 1, dtype=float)
    W = np.asarray(U, dtype=float) + a * k**2 / 2.0
    lo, hi = a / 2.0, a * (2 * n + 1) / 2.0
    chords = [(W[j] - W[i]) / (j - i) for i in range(n) for j in range(i + 1, n)]
    slopes = np.clip([lo, hi, *chords], lo, hi)
    # lines[s, k]: the highest line of slope s under W, at round k
    lines = np.min(W[None, None, :] + slopes[:, None, None] * (k[None, :, None] - k[None, None, :]),
                   axis=2)
    return np.max(lines, axis=0) - a * k**2 / 2.0


class TestHullMap:
    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    def test_literal_cases_equal_the_supporting_line_reference(self, case):
        U, lam, sigma = LITERAL_CASES[case]
        got = hull_map(U, lam, sigma).path
        want = literal_hull(U, lam, sigma)
        assert np.all(np.abs(got - want) <= 1e-9 * max(1.0, float(np.max(np.abs(U)))))

    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    def test_literal_cases_are_certified(self, case):
        # small chains, constant and signed-zero chains, and near-ties
        U, lam, sigma = LITERAL_CASES[case]
        sol = hull_map(U, lam, sigma)
        assert kkt_violations(sol.path, U, lam, sigma) == []
        assert sol.active_set == frozenset((np.flatnonzero(sol.path == U) + 1).tolist())

    @pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
    def test_literal_cases_score_as_enumeration(self, case):
        # the objective is the log posterior at the path, and the active set is
        # enumeration's or, in a tie, one of the best sets
        U, lam, sigma = LITERAL_CASES[case]
        sol = hull_map(U, lam, sigma)
        exact = exact_map_active_set(U, lam, sigma)
        assert sol.objective == objective(sol.path, U, lam, sigma)
        assert abs(sol.objective - exact.objective) <= 1e-12 * max(1.0, abs(exact.objective))
        if sol.active_set != exact.active_set:
            candidates = dense_map_candidates(U, lam, sigma)
            best = max(candidates.values())
            near = {frozenset(s) for s, obj in candidates.items()
                    if obj >= best - 1e-12 * max(1.0, abs(best))}
            assert sol.active_set in near and exact.active_set in near

    def test_unconstrained_tail_stationarity(self):
        # nondecreasing data with large gaps: final coordinate interior,
        # so xi_N - xi_{N-1} = lam * sigma^2 at the optimum
        lam, sigma = 2.0, 0.5
        sol = hull_map([0.0, 10.0, 20.0, 30.0], lam, sigma)
        assert sol.path[-1] - sol.path[-2] == pytest.approx(lam * sigma**2, abs=1e-9)

    def test_agrees_with_exact_enumeration(self):
        rng = np.random.default_rng(31)
        for i in range(300):
            lam = float(rng.choice([1.0, 10.0]))
            sigma = float(rng.choice([1e-2, 1e-1]))
            U = random_instance(i, lam=lam, sigma=sigma, master=23)
            exact = exact_map_active_set(U, lam, sigma)
            sol = hull_map(U, lam, sigma)
            np.testing.assert_allclose(sol.path, exact.path, atol=1e-8)
            assert abs(sol.objective - exact.objective) <= 1e-8 * max(
                1.0, abs(exact.objective)
            )

    @pytest.mark.parametrize("n", [100, 1000, 28_800])
    @pytest.mark.parametrize("lam, sigma", [(10.0, 1e-2), (1.0, 0.1), (10.0, 1e-3)])
    def test_model_chains_are_certified_and_end_at_recursive(self, n, lam, sigma):
        for i in range(n, n + 3):
            U = random_instance(i, n=n, lam=lam, sigma=sigma, master=71)
            sol = hull_map(U, lam, sigma)
            assert kkt_violations(sol.path, U, lam, sigma) == []
            assert sol.active_set == frozenset((np.flatnonzero(sol.path == U) + 1).tolist())
            want = final_estimate("recursive", U, lam, sigma)
            assert abs(sol.path[-1] - want) <= 1e-8 * max(1.0, float(np.max(np.abs(U))))

    def test_certificate_refuses_a_moved_free_round(self):
        U = random_instance(100, n=100, lam=10.0, sigma=1e-2, master=71)
        path = hull_map(U, 10.0, 1e-2).path
        free = np.flatnonzero(path < U)
        assert len(free) and kkt_violations(path, U, 10.0, 1e-2) == []
        for k in free[[0, len(free) // 2, -1]]:
            moved = path.copy()
            moved[k] -= 1e-6
            assert k + 1 in kkt_violations(moved, U, 10.0, 1e-2)

    def test_certificate_refuses_an_active_round_above_u(self):
        U = random_instance(100, n=100, lam=10.0, sigma=1e-2, master=71)
        path = hull_map(U, 10.0, 1e-2).path
        active = np.flatnonzero(path == U)
        assert len(active)
        for k in active:
            lifted = path.copy()
            lifted[k] = np.nextafter(U[k], math.inf)
            assert k + 1 in kkt_violations(lifted, U, 10.0, 1e-2)

    def test_the_benchmarks_name_is_hull_map_outside_all(self):
        assert fgclock.coordinate_ascent_map is oracle.coordinate_ascent_map is hull_map
        assert "hull_map" in fgclock.__all__ and "coordinate_ascent_map" not in fgclock.__all__

    def test_single_round_is_u(self):
        sol = hull_map([4.2], 1.0, 0.5)
        assert sol.path.tolist() == [4.2]
        assert sol.active_set == frozenset({1})

    @pytest.mark.parametrize("U, sigma", [
        ([-1.7e308, 1.7e308], 1.0),
        ([1.7e308, -1.7e308, 1.7e308], 1.0),
        # lam sigma**2 = 1e308: the hull's value at round 2 is NaN, and is U_2
        ([-1e308, -1.7e308, 1.7e308], 1e154),
    ])
    def test_overflowing_hull_differences_leave_the_objective_to_refuse(self, U, sigma):
        with pytest.raises(ParameterError, match="chain log posterior"):
            hull_map(U, 1.0, sigma)


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


def grid_messages(monkeypatch, chains, points):
    """``(values, c)`` of each envelope the grid oracle takes on the ``(U, lo, hi)`` of
    ``chains`` at lam = 10, sigma = 1e-2, its message on the whole grid: -inf past the cut."""
    captured = []

    def capture(values, c, n):
        captured.append((np.concatenate((values, np.full(points - len(values), -math.inf))), c))
        return conv(values, c, n)

    conv = oracle._quad_max_conv
    monkeypatch.setattr(oracle, "_quad_max_conv", capture)
    for U, lo, hi in chains:
        grid_max_marginal(U, 10.0, 1e-2, lo, hi, points)
    monkeypatch.undo()
    return captured


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
            got = _quad_max_conv(values, c, len(values))
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()
            want = brute_quad_max_conv(values, c)
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            finite = np.isfinite(want)
            assert np.isfinite(got[finite]).all()
            assert np.all(np.abs(got[finite] - want[finite])
                          <= 1e-12 * np.maximum(1.0, np.abs(want[finite])))

    @pytest.mark.parametrize("c", [1e-3, 0.37, 50.0])
    def test_read_out_length(self, c, monkeypatch):
        # the first n points of the envelope: the reference's cut short below
        # len(values), and above it the reference's own read-out of the values
        # with -inf appended, which carries the parabolas on
        rng = np.random.default_rng([79, int(c * 1000)])
        cases = [rng.normal(0.0, 10.0, m) for m in (1, 2, 7, 64)]
        cases += [np.where(rng.random(64) < 0.4, -math.inf, rng.normal(0.0, 10.0, 64)),
                  np.full(5, -math.inf), np.array([]), -c * (np.arange(40.0) - 13.5) ** 2,
                  rng.choice([0.0, 1.0, 2.5], size=30)]
        grids = []
        for i in range(2):
            U = random_instance(i, n=3, lam=10.0, sigma=1e-2, master=97)
            grids.append((U, float(np.min(U)) - 0.2, float(np.max(U)) + 0.1))
        # the finite prefixes that the grid oracle passes
        messages = grid_messages(monkeypatch, grids, 513)
        cases += [values[np.isfinite(values)] for values, _ in messages]
        extended = 0
        for values in cases:
            m = len(values)
            for n in sorted({0, 1, m // 2, max(m - 1, 0), m, m + 1, 2 * m + 5}):
                padded = np.concatenate((values, np.full(max(0, n - m), -math.inf)))
                want = literal_quad_max_conv(padded, c)[:n]
                assert _quad_max_conv(values, c, n).tobytes() == want.tobytes()
                extended += n > m and bool(np.isfinite(want[m:]).all())
        assert extended > 20

    def test_concave_inputs_take_the_vector_pass(self, monkeypatch):
        # a grid message is a ramp cut at U_k + h/2, max-convolved with a
        # concave quadratic: concave, so its breakpoints strictly increase
        chains = []
        for i in range(15):
            n = 2 + i % 5
            U = random_instance(i, n=n, lam=10.0, sigma=1e-2, master=47)
            chains.append((U, float(np.min(U)) - 5e-2 * math.sqrt(n) - 0.1, float(np.max(U)) + 0.1))
        captured = grid_messages(monkeypatch, chains, 513)
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
            got = _quad_max_conv(values, c, len(values))
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_exact_ties_run_the_loop(self, c):
        # every breakpoint of c i^2 is exactly 0.0, so the loop pops all the
        # parabolas between the first and the last
        values = c * np.arange(17.0) ** 2
        assert set(neighbour_breakpoints(values, c)) == {0.0}
        got = _quad_max_conv(values, c, len(values))
        assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()

    def test_convex_parabolas_match_the_loop(self):
        # three or more parabolas meeting at one grid point: their breakpoints
        # tie, or miss by an ulp, and the loop's recomputed breakpoints decide
        # which one is read out there
        rng = np.random.default_rng(59)
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            c = float(rng.uniform(0.05, 5.0))
            values = rng.normal(0.0, 10.0) + c * (rng.integers(0, n) - np.arange(n)) ** 2
            got = _quad_max_conv(values, c, len(values))
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
            got = _quad_max_conv(values, c, len(values))
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()
        assert _quad_max_conv(constant, c, len(constant)).tobytes() == constant.tobytes()

    def test_benchmark_grid_messages(self, monkeypatch):
        # the oracle-check benchmark's grids: 3-round model chains at 4096
        # points, from 5 sigma sqrt(3) + 0.1 below the chain to 0.1 above it
        chains = []
        for i in range(4):
            U = random_instance(i, n=3, lam=10.0, sigma=1e-2, master=97)
            chains.append((U, float(np.min(U)) - 5e-2 * math.sqrt(3) - 0.1, float(np.max(U)) + 0.1))
        captured = grid_messages(monkeypatch, chains, 4096)
        assert len(captured) == 8
        for values, c in captured:
            assert len(values) == 4096
            got = _quad_max_conv(values, c, len(values))
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_breakpoints_on_grid_points(self, c):
        # a ramp of slope (1 - 2s) c has every breakpoint at p + s, a grid point
        # for 0 <= p + s <= 39, below 0 or above 39 for the others; integer
        # values put many of the loop's breakpoints on grid points too
        i = np.arange(40.0)
        cases = [(1.0 - 2.0 * s) * c * i for s in range(-45, 46)]
        rng = np.random.default_rng(71)
        cases += [rng.integers(-20, 20, 40).astype(float) for _ in range(40)]
        cases += [np.where(rng.random(40) < 0.3, -math.inf, case) for case in cases[-40:]]
        on_points = below = above = 0
        for values in cases:
            z = neighbour_breakpoints(values, c)
            on_points += sum(0.0 <= b <= 39.0 and b == math.floor(b) for b in z)
            below += sum(b < 0.0 for b in z)
            above += sum(b > 39.0 for b in z)
            got = _quad_max_conv(values, c, len(values))
            assert got.tobytes() == literal_quad_max_conv(values, c).tobytes()
        assert min(on_points, below, above) > 100

    @pytest.mark.parametrize("c", [1e-300, 1e-3, 1.0])
    def test_breakpoints_at_infinity(self, c):
        # value steps near the float limit overflow, over c, to +-inf breakpoints,
        # first and last in a run the vector pass takes, and anywhere in the loop's
        top = 1.7e308
        cases = [np.array([-top, top, top, -top]), np.array([-top, 0.0, -1.0, -3.0, -6.0, -top]),
                 np.array([-top, top, -top, 0.0]), np.array([top, -top])]
        rng = np.random.default_rng(73)
        cases += [rng.choice([top, -top, 1e300, 0.0, -math.inf], int(rng.integers(2, 9)))
                  for _ in range(200)]
        infinite = 0
        for values in cases:
            with np.errstate(over="ignore"):
                infinite += sum(math.isinf(b) for b in neighbour_breakpoints(values, c))
                want = literal_quad_max_conv(values, c)
            assert _quad_max_conv(values, c, len(values)).tobytes() == want.tobytes()
        with np.errstate(over="ignore"):
            z = neighbour_breakpoints(cases[0], c)
        assert z[0] == -math.inf and z[-1] == math.inf
        assert all(right > left for left, right in zip(z, z[1:]))
        assert infinite > 50

    @pytest.mark.parametrize("c", [1e-3, 1.0, 50.0])
    def test_one_and_two_points(self, c):
        entries = [-math.inf, -1e300, -1.0, -0.0, 0.0, 2.5, 1e300]
        for n in (1, 2):
            for values in itertools.product(entries, repeat=n):
                values = np.array(values)
                with np.errstate(over="ignore"):
                    want = literal_quad_max_conv(values, c)
                assert _quad_max_conv(values, c, len(values)).tobytes() == want.tobytes()
