"""The benchmark's three workloads and the checks on their outputs.

Each workload generates its inputs from the workload seed in its
constructor (the set-up the benchmark times as ``setup_s``) and then
runs one operation per ``run_op`` call. ``run_op`` times only the calls
into fgclock and checks the outputs afterwards; ``finish`` runs the
checks that need every operation's output.

Calls go through module attributes looked up at call time
(``fg.pkg.fge_offset``, ``fg.cli.main``), so the tracer's patches
apply to them.
"""

import contextlib
import csv
import io
import math
import os
import time
from collections import namedtuple

import numpy as np

#: One operation: its timed seconds, items of work done, failures found,
#: and bytes the program wrote to files.
Op = namedtuple("Op", "seconds items errors bytes_written")

LAM = 10.0
SIGMA = 1e-2


def _params(fg, rounds):
    return fg.pkg.ClockModelParams(LAM, LAM, SIGMA, 1.0, 0.5, rounds)


def _simulate(fg, rounds, seed):
    params = _params(fg, rounds)
    path = fg.pkg.simulate_paths(params, seed=seed + [0])
    obs = fg.pkg.simulate_observations(path, params, seed=seed + [1])
    return obs.U, obs.V


class McRounds:
    """``fgclock sweep --axis rounds`` through ``fgclock.cli.main``, in process."""

    name = "mc-rounds"
    item = "trials"
    rate_name = "trials_per_s"
    VALUES = (2, 5, 10, 25)
    TRIALS = 250
    HEADER = ["axis", "estimator", "mse", "stderr", "trials"]
    ESTIMATORS = ("fge-recursive", "fge-paper", "ml")
    trace_ops_per_s = 1.5

    def __init__(self, fg, seed, workdir):
        self.fg = fg
        self.seed = seed
        self.out = os.path.join(workdir, "mse_rounds.csv")
        self.outputs = (self.out, self.out + ".json", self.out + ".manifest.json")
        self.values = ",".join(str(v) for v in self.VALUES)
        self.cells = {}

    def argv(self, i):
        return ["sweep", "--axis", "rounds", "--values", self.values,
                "--trials", str(self.TRIALS), "--seed", str(self.seed * 1_000_000 + i),
                "--out", self.out]

    def run_op(self, i):
        argv = self.argv(i)
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = self.fg.cli.main(argv)
            seconds = time.perf_counter() - t0
        items = self.TRIALS * len(self.VALUES)
        if code != 0:
            return Op(seconds, items, [f"exit code {code}: {stderr.getvalue().strip()}"], 0)
        written = sum(os.path.getsize(p) for p in self.outputs if os.path.exists(p))
        return Op(seconds, items, self._check(i), written)

    def _check(self, i):
        try:
            with open(self.out, newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return [f"cannot read sweep CSV: {exc}"]
        if not rows or rows[0] != self.HEADER:
            return [f"CSV header is {rows[:1]}, want {self.HEADER}"]
        errors = []
        cells = {}
        for row in rows[1:]:
            if len(row) != 5 or ":failed[" in row[1]:
                errors.append(f"bad sweep row {row}")
                continue
            mse, stderr = float(row[2]), float(row[3])
            if int(row[4]) != self.TRIALS or not (mse > 0 and math.isfinite(mse)
                                                  and math.isfinite(stderr)):
                errors.append(f"bad sweep row {row}")
            cells[(int(float(row[0])), row[1])] = (mse, stderr)
        want = {(n, tag) for n in self.VALUES for tag in self.ESTIMATORS}
        if set(cells) != want or len(rows) != len(want) + 1:
            errors.append(f"sweep rows cover {sorted(cells)}, want {sorted(want)}")
        if not errors:
            self.cells[i] = cells
        return errors

    def finish(self):
        """Criterion 3 on all operations pooled, one distinct sweep seed each.

        At N=25, MSE(ml) - MSE(fge-recursive) must exceed three standard
        errors of the difference, and MSE(ml) must grow from N=5 to N=25.
        """
        if not self.cells:
            return ["no sweep completed"]
        k = len(self.cells)
        fge = [c[(25, "fge-recursive")] for c in self.cells.values()]
        ml = [c[(25, "ml")] for c in self.cells.values()]
        ml5 = [c[(5, "ml")][0] for c in self.cells.values()]
        gap = sum(m for m, _ in ml) / k - sum(m for m, _ in fge) / k
        margin = 3.0 * math.sqrt(sum(s * s for _, s in ml + fge)) / k
        errors = []
        if not gap > margin:
            errors.append(f"criterion 3: MSE gap {gap:.3e} <= 3 stderr {margin:.3e}")
        if not sum(m for m, _ in ml) > sum(ml5):
            errors.append("criterion 3: MSE(ml) does not grow from N=5 to N=25")
        return errors


def triangular_closed_form(U, lam, sigma):
    """min_k U_k + lam sigma^2 (N-k)(N-k+1)/2, the exact-MAP final coordinate."""
    j = np.arange(len(U) - 1, -1, -1, dtype=float)
    return float(np.min(U + lam * sigma * sigma * j * (j + 1) / 2.0))


class LongSession:
    """All three estimates of one long observation log, repeated."""

    name = "long-session"
    item = "estimates"
    rate_name = "estimates_per_s"
    #: Eight hours of exchanges at 1 Hz.
    ROUNDS = 28_800
    trace_ops_per_s = 3.0

    def __init__(self, fg, seed, workdir):
        self.fg = fg
        self.U, self.V = _simulate(fg, self.ROUNDS, [seed])
        self.want = {
            "xi": triangular_closed_form(self.U, LAM, SIGMA),
            "psi": triangular_closed_form(self.V, LAM, SIGMA),
        }
        self.tol = {
            "xi": 1e-9 * max(1.0, float(np.max(np.abs(self.U)))),
            "psi": 1e-9 * max(1.0, float(np.max(np.abs(self.V)))),
        }

    def run_op(self, i):
        pkg = self.fg.pkg
        U, V = self.U, self.V
        t0 = time.perf_counter()
        try:
            rec = pkg.fge_offset(U, V, LAM, LAM, SIGMA, "recursive")
            pap = pkg.fge_offset(U, V, LAM, LAM, SIGMA, "paper")
            ml = pkg.ml_offset(U, V)
        except self.fg.errors.FgclockError as exc:
            return Op(time.perf_counter() - t0, 1, [f"{type(exc).__name__}: {exc}"], 0)
        seconds = time.perf_counter() - t0
        errors = []
        for chain, got in (("xi", (rec.xi_hat_N, pap.xi_hat_N, ml.xi_hat_N)),
                           ("psi", (rec.psi_hat_N, pap.psi_hat_N, ml.psi_hat_N))):
            r, p, m = got
            tol = self.tol[chain]
            if not abs(r - self.want[chain]) <= tol:
                errors.append(f"recursive {chain}_N {r!r} != closed form {self.want[chain]!r}")
            if not (m <= p + tol and p <= r + tol):
                errors.append(f"{chain}_N order ml {m!r} <= paper {p!r} <= recursive {r!r} fails")
        return Op(seconds, 1, errors, 0)

    def finish(self):
        return []


class OracleCheck:
    """A fixed mix of exact-MAP oracle solves, each compared with ``recursive``."""

    name = "oracle-check"
    item = "solves"
    rate_name = "oracle_solves_per_s"
    EXACT_N = 10
    COORD_N = 100
    #: The grid oracle's distance from the exact MAP grows with N. At
    #: lam=10, sigma=1e-2 it stayed below 0.74 grid steps on 6000 chains
    #: at N=3 and below 0.98 at N=4, but exceeded the one-step check on
    #: 6 of 800 chains at N=6.
    GRID_N = 3
    GRID_INSTANCES = 2
    GRID_POINTS = 4096
    #: Distinct instances; operations cycle through them.
    POOL = 128
    trace_ops_per_s = 2.0

    def __init__(self, fg, seed, workdir):
        self.fg = fg
        self.pool = []
        for j in range(self.POOL):
            exact = _simulate(fg, self.EXACT_N, [seed, j, 0])
            coord = _simulate(fg, self.COORD_N, [seed, j, 1])[0]
            grid = []
            for g in range(self.GRID_INSTANCES):
                for U in _simulate(fg, self.GRID_N, [seed, j, 2, g]):
                    lo = float(np.min(U)) - 5 * SIGMA * math.sqrt(self.GRID_N) - 0.1
                    hi = float(np.max(U)) + 0.1
                    grid.append((U, lo, hi, (hi - lo) / (self.GRID_POINTS - 1)))
            self.pool.append((exact, coord, grid))
        self.max_grid_steps = 0.0

    def run_op(self, i):
        pkg = self.fg.pkg
        (exact_u, exact_v), coord_u, grid = self.pool[i % self.POOL]
        # (kind, chain, solution, tolerance against recursive)
        solves = []
        t0 = time.perf_counter()
        try:
            for U in (exact_u, exact_v):
                solves.append(("exact", U, pkg.exact_map_active_set(U, LAM, SIGMA).path[-1],
                               1e-8))
            solves.append(("coordinate", coord_u,
                           pkg.coordinate_ascent_map(coord_u, LAM, SIGMA).path[-1], 1e-8))
            for U, lo, hi, step in grid:
                got = pkg.grid_max_marginal(U, LAM, SIGMA, lo, hi, self.GRID_POINTS)
                solves.append(("grid", U, got, step))
        except self.fg.errors.FgclockError as exc:
            return Op(time.perf_counter() - t0, len(solves) + 1,
                      [f"{type(exc).__name__}: {exc}"], 0)
        seconds = time.perf_counter() - t0
        errors = []
        for kind, U, got, tol in solves:
            want = float(pkg.backtrack_estimate(U, LAM, SIGMA).xi_hat[-1])
            dev = abs(got - want)
            if kind == "grid":
                self.max_grid_steps = max(self.max_grid_steps, dev / tol)
            if not dev <= tol:
                errors.append(f"{kind} oracle {got!r} is {dev:.3e} from recursive "
                              f"{want!r}, tolerance {tol:.3e}")
        return Op(seconds, len(solves), errors, 0)

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (McRounds, LongSession, OracleCheck)}
