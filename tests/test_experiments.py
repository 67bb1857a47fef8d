import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fgclock import (
    ClockModelParams,
    ParameterError,
    fge_offset,
    ml_offset,
    simulate_observations,
    simulate_paths,
)
from fgclock import experiments
from fgclock.estimators import final_estimate
from fgclock.experiments import (
    ALL_ESTIMATORS,
    CSV_HEADER,
    MseTable,
    SweepConfig,
    _run_cell,
    block_trials,
    mse_vs_rounds,
    mse_vs_sigma,
)
from fgclock.model import exponential_delays, random_walks


def make_config(**kw):
    base = dict(
        params=ClockModelParams(10.0, 10.0, 1e-2, 1.0, 0.5, 25),
        axis="rounds",
        values=(2, 5),
        trials=100,
        seed=7,
    )
    base.update(kw)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_values_must_increase(self):
        with pytest.raises(ParameterError):
            make_config(values=(5, 2))

    def test_values_nonempty(self):
        with pytest.raises(ParameterError):
            make_config(values=())

    def test_trials_positive(self):
        with pytest.raises(ParameterError):
            make_config(trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("values", (2.5,)),
            ("values", ("a",)),
            ("values", (True, 3)),
            ("values", None),
            ("values", 5),
            ("trials", "x"),
            ("trials", 2.5),
            ("seed", -1),
            ("seed", "x"),
            ("estimators", 5),
            ("axis", ["rounds"]),
            pytest.param("values", (10**400,), id="values-10**400"),
        ],
    )
    def test_malformed_input_rejected(self, field, value):
        with pytest.raises(ParameterError) as exc:
            make_config(**{field: value})
        # each rounds value is checked under the name "rounds values"
        assert exc.value.settings in {(field,), (f"rounds {field}",)}

    def test_counts_stored_as_int(self):
        cfg = make_config(values=[2.0, 5.0], trials=30.0, seed=np.int64(3))
        assert cfg.values == (2, 5) and cfg.trials == 30 and cfg.seed == 3
        assert {type(v) for v in (*cfg.values, cfg.trials, cfg.seed)} == {int}

    def test_unknown_estimator(self):
        with pytest.raises(ParameterError):
            make_config(estimators=("fge-recursive", "bogus"))

    def test_axis_checked(self):
        with pytest.raises(ParameterError):
            make_config(axis="delay")
        with pytest.raises(ParameterError):
            mse_vs_sigma(make_config(axis="rounds"))
        with pytest.raises(ParameterError):
            mse_vs_rounds(make_config(axis="sigma", values=(0.01, 0.1)))


class TestMseVsRounds:
    def test_sigma_zero_rows_identical(self):
        params = ClockModelParams(10.0, 10.0, 0.0, 1.0, 0.5, 25)
        table = mse_vs_rounds(make_config(params=params, values=(2, 4), trials=50))
        for n in (2, 4):
            cells = [table.cell(n, tag) for tag in ALL_ESTIMATORS]
            assert len({c.mse for c in cells}) == 1
            assert len({c.stderr for c in cells}) == 1

    def test_reproducible(self):
        cfg = make_config(trials=64)
        a = mse_vs_rounds(cfg)
        b = mse_vs_rounds(cfg)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_one_row_per_cell(self):
        table = mse_vs_rounds(make_config(trials=10))
        keys = [(r.axis_value, r.estimator) for r in table.rows]
        assert len(keys) == len(set(keys)) == 2 * len(ALL_ESTIMATORS)

    def test_stderr_scaling(self):
        # quadrupling trials should roughly halve the standard error
        lo = mse_vs_rounds(make_config(values=(10,), trials=2000, seed=3))
        hi = mse_vs_rounds(make_config(values=(10,), trials=8000, seed=3))
        ratio = hi.cell(10, "ml").stderr / lo.cell(10, "ml").stderr
        assert 0.4 <= ratio <= 0.6

    def test_estimates_finite(self):
        table = mse_vs_rounds(make_config(trials=30))
        for row in table.rows:
            assert math.isfinite(row.mse) and row.mse >= 0
            assert row.stderr >= 0

    @pytest.mark.parametrize("lambda_xi, lambda_psi", [(10.0, 10.0), (10.0, 4.0)])
    def test_sigma_zero_matches_the_analytic_mse(self, lambda_xi, lambda_psi):
        # At sigma = 0 every estimator is ML, whose error (X_min - Y_min) / 2 has
        # independent X_min ~ Exp(N lambda_xi) and Y_min ~ Exp(N lambda_psi) with
        # means a and b: MSE = ((a - b) / 2)**2 + (a**2 + b**2) / 4. Seeding,
        # draws, transforms, estimates and aggregation are checked together.
        params = ClockModelParams(lambda_xi, lambda_psi, 0.0, 1.0, 0.5, 1)
        table = mse_vs_rounds(make_config(params=params, values=(1, 5, 25), trials=5000,
                                          seed=77))
        for n in (1, 5, 25):
            a, b = 1.0 / (n * lambda_xi), 1.0 / (n * lambda_psi)
            want = ((a - b) / 2.0) ** 2 + (a * a + b * b) / 4.0
            for tag in ALL_ESTIMATORS:
                cell = table.cell(n, tag)
                z = (cell.mse - want) / cell.stderr
                assert abs(z) <= 4.0, (n, tag, z)

    def test_insensitive_to_d0_theta0(self):
        # translation equivariance makes the MSE independent of d0/theta0
        base = make_config(values=(8,), trials=500, seed=11)
        shifted = dataclasses.replace(
            base, params=dataclasses.replace(base.params, d0=3.0, theta0=-1.0)
        )
        a = mse_vs_rounds(base)
        b = mse_vs_rounds(shifted)
        for tag in ALL_ESTIMATORS:
            assert a.cell(8, tag).mse == pytest.approx(b.cell(8, tag).mse, rel=1e-9)


class TestMseVsSigma:
    def test_sigma_zero_point_collapses_to_ml(self):
        cfg = make_config(axis="sigma", values=(0.0, 0.05), trials=60)
        table = mse_vs_sigma(cfg)
        ml = table.cell(0.0, "ml")
        for tag in ("fge-recursive", "fge-paper"):
            assert table.cell(0.0, tag).mse == ml.mse

    def test_rounds_fixed_from_params(self):
        cfg = make_config(axis="sigma", values=(0.01, 0.1), trials=40)
        table = mse_vs_sigma(cfg)
        assert {r.axis_value for r in table.rows} == {0.01, 0.1}


class TestCsvAndJson:
    def test_header_exact(self):
        table = mse_vs_rounds(make_config(trials=5))
        assert table.to_csv().splitlines()[0] == ",".join(CSV_HEADER)

    def test_single_trial_stderr_empty(self):
        table = mse_vs_rounds(make_config(trials=1))
        line = table.to_csv().splitlines()[1]
        fields = line.split(",")
        assert fields[3] == ""
        assert math.isnan(table.rows[0].stderr)

    def test_csv_round_trips(self):
        table = mse_vs_rounds(make_config(trials=17))
        lines = table.to_csv().splitlines()[1:]
        for line, row in zip(lines, table.rows):
            fields = line.split(",")
            assert float(fields[0]) == row.axis_value
            assert float(fields[2]) == row.mse
            assert int(fields[4]) == row.trials

    def test_json_mirrors_rows(self):
        table = mse_vs_rounds(make_config(trials=9))
        doc = table.to_json_dict()
        assert doc["axis"] == "rounds"
        assert len(doc["rows"]) == len(table.rows)
        assert doc["rows"][0]["estimator"] == table.rows[0].estimator


def trial_stream(seed, axis_index, t):
    """Trial t's generator at axis position ``axis_index``, from the Philox constructor."""
    return np.random.Generator(np.random.Philox(key=[seed, 0], counter=[0, 0, axis_index, t]))


def reference_cell(params, axis_index, trials, seed):
    """Per-trial squared errors from the public single-series functions."""
    sq = {tag: np.empty(trials) for tag in ALL_ESTIMATORS}
    for t in range(trials):
        # one stream per trial: the path's normals, then the observations' uniforms
        rng = trial_stream(seed, axis_index, t)
        path = simulate_paths(params, rng)
        obs = simulate_observations(path, params, rng)
        truth = float(path.theta[-1])
        estimates = {
            "fge-recursive": fge_offset(obs.U, obs.V, params.lambda_xi,
                                        params.lambda_psi, params.sigma, "recursive"),
            "fge-paper": fge_offset(obs.U, obs.V, params.lambda_xi,
                                    params.lambda_psi, params.sigma, "paper"),
            "ml": ml_offset(obs.U, obs.V),
        }
        for tag, est in estimates.items():
            err = est.theta_hat_N - truth
            sq[tag][t] = err * err
    return sq


class TestBatchedCell:
    """The blocked cell must equal the one-trial-at-a-time evaluation bit for bit."""

    @pytest.mark.parametrize(
        "sigma, rounds, trials",
        [
            (1e-2, 1, 40),  # rounds axis, N = 1
            (1e-2, 2, 40),
            (1e-2, 25, 40),
            (0.0, 10, 40),  # sigma axis, sigma = 0
            (1e-4, 10, 40),
            (1.0, 10, 40),
            (1e-2, 7, 1),  # a single trial
            (1e-2, 200, block_trials(200) + 1),  # crosses a block boundary
        ],
    )
    def test_matches_per_trial_reference(self, sigma, rounds, trials):
        params = ClockModelParams(10.0, 7.0, sigma, 1.0, 0.5, rounds)
        got = _run_cell(params, 3, trials, 21, ALL_ESTIMATORS)
        want = reference_cell(params, 3, trials, 21)
        for tag in ALL_ESTIMATORS:
            assert got[tag].tobytes() == want[tag].tobytes(), tag

    @pytest.mark.parametrize(
        "axis, values", [("rounds", (1, 4, 9)), ("sigma", (0.0, 1e-3, 0.2))]
    )
    def test_tables_match_per_trial_reference(self, axis, values):
        params = ClockModelParams(10.0, 7.0, 1e-2, 1.0, 0.5, 6)
        cfg = make_config(params=params, axis=axis, values=values, trials=30, seed=5)
        table = (mse_vs_rounds if axis == "rounds" else mse_vs_sigma)(cfg)
        for i, v in enumerate(values):
            field = "rounds" if axis == "rounds" else "sigma"
            ref = reference_cell(dataclasses.replace(params, **{field: v}), i, 30, 5)
            for tag in ALL_ESTIMATORS:
                assert table.cell(v, tag).mse == float(np.mean(ref[tag]))

    def test_one_round_cell_memory_is_bounded_by_its_block(self):
        # a block costs about 120 B per trial besides its draws: 65 536 one-round
        # trials in one block peaked at 9.4 MB, eight blocks of 8192 at 3.5 MB
        params = ClockModelParams(10.0, 7.0, 1e-2, 1.0, 0.5, 1)
        tracemalloc.start()
        try:
            _run_cell(params, 0, 1 << 16, 3, ALL_ESTIMATORS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def philox_cell(params, axis_index, trials, master_seed, estimators):
    """:func:`_run_cell` with every trial drawn from its own Philox constructor."""
    n = params.rounds
    label = {"fge-recursive": "recursive", "fge-paper": "paper", "ml": "ml"}
    sq = {tag: np.empty(trials) for tag in estimators}
    block = min(block_trials(n), trials)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        z = np.empty((stop - start, 2, n))
        u = np.empty((stop - start, 2, n))
        for b, t in enumerate(range(start, stop)):
            rng = trial_stream(master_seed, axis_index, t)
            rng.standard_normal(out=z[b])
            rng.random(out=u[b])
        walk = random_walks(z, params)
        obs = walk[..., 1:] + exponential_delays(u, params)
        truth = (walk[:, 0, -1] - walk[:, 1, -1]) / 2.0
        for tag in estimators:
            xi = final_estimate(label[tag], obs[:, 0], params.lambda_xi, params.sigma)
            psi = final_estimate(label[tag], obs[:, 1], params.lambda_psi, params.sigma)
            err = (xi - psi) / 2.0 - truth
            sq[tag][start:stop] = err * err
    return sq


class TestBlockSeeding:
    """Tables drawn in blocks equal per-trial Philox ones, and each other, byte for byte."""

    @pytest.mark.parametrize("block_rounds", [experiments.BLOCK_ROUNDS, 7, 56])
    @pytest.mark.parametrize(
        "axis, values", [("rounds", (1, 2, 25)), ("sigma", (0.0, 1e-3, 0.2))]
    )
    def test_tables_equal_philox_tables(self, monkeypatch, block_rounds, axis, values):
        monkeypatch.setattr(experiments, "BLOCK_ROUNDS", block_rounds)
        # the last block is partly filled at N = 25, and at N = 1 and 2 for 56;
        # for 7 every block holds one trial
        trials = block_trials(25) + 10
        params = ClockModelParams(10.0, 7.0, 1e-2, 1.0, 0.5, 25)
        cfg = make_config(params=params, axis=axis, values=values, trials=trials,
                          seed=2**32 + 5)
        sweep = mse_vs_rounds if axis == "rounds" else mse_vs_sigma
        got = sweep(cfg).to_csv()
        monkeypatch.setattr(experiments, "_run_cell", philox_cell)
        assert got == sweep(cfg).to_csv()

    @pytest.mark.parametrize(
        "axis, values", [("rounds", (1, 2, 25)), ("sigma", (0.0, 1e-3, 0.2))]
    )
    def test_tables_do_not_depend_on_the_block_size(self, monkeypatch, axis, values):
        # needs no per-trial reference, so it holds for any scheme that gives
        # each trial its own stream
        # 7: one trial per block; 56: blocks of 7 trials at N = 1 and 2, the
        # last one partly filled, and of 2 at N = 25; 65 536: one block per cell
        params = ClockModelParams(10.0, 7.0, 1e-2, 1.0, 0.5, 25)
        cfg = make_config(params=params, axis=axis, values=values, trials=300, seed=2**32 + 5)
        sweep = mse_vs_rounds if axis == "rounds" else mse_vs_sigma
        tables = set()
        for block_rounds in (7, 56, 65_536):
            monkeypatch.setattr(experiments, "BLOCK_ROUNDS", block_rounds)
            tables.add(sweep(cfg).to_csv())
        assert len(tables) == 1

