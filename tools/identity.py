"""Digest fgclock's results so that two source trees can be compared bit for bit.

    python3 tools/identity.py --src PATH --out FILE [--tiny]

PATH is a source checkout (or its ``src`` directory); fgclock is imported
from there, with every warning raised as an error. FILE gets one line per
group, ``<group> <records> <sha256>``, over two parts:

* a fixed generated corpus of chains, each estimated by every variant
  through ``fge_offset``, a series kernel and a 2-row block kernel, and
  each of at most 10 rounds solved by the three exact-MAP oracles; a
  record is the result's type and bytes, or the error's class and message;
* the standard CLI commands, run in a scratch directory through
  ``fgclock.cli.main``: their exit code, stdout, stderr and the bytes of
  every file they write. ``simulate`` and ``sweep`` also run with one
  config file that sets every setting, alone, overridden by flags, with
  an unknown key and with a refused count; and every subcommand prints
  its ``--help``.

Run it on two trees and ``diff`` the files: a differing line names the
corpus family, variant and path, or the command, that changed. ``--tiny``
runs a small corpus and small commands, for a quick self-check.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

def load_fgclock(path):
    src = path / "src" if (path / "src" / "fgclock").is_dir() else path
    sys.path.insert(0, str(src.resolve()))
    import fgclock
    import fgclock.cli
    import fgclock.estimators

    if Path(fgclock.__file__).resolve().parent != (src / "fgclock").resolve():
        raise SystemExit(f"imported fgclock from {fgclock.__file__}, not from {src}")
    return fgclock


def encode(value):
    """The type and exact bytes of a result."""
    if isinstance(value, np.ndarray):
        return f"ndarray {value.dtype.str} {value.shape} ".encode() + value.tobytes()
    if isinstance(value, (float, np.floating)):
        return f"{type(value).__name__} {float(value).hex()}".encode()
    if hasattr(value, "__dataclass_fields__"):
        fields = (encode(getattr(value, name)) for name in value.__dataclass_fields__)
        return type(value).__name__.encode() + b"(" + b",".join(fields) + b")"
    return repr(value).encode()


def record(call):
    try:
        return b"= " + encode(call())
    except Exception as exc:  # the error class and message are the result
        return f"! {type(exc).__name__}: {exc}".encode()


def model_chain(rng, n, lam, sigma):
    """A random walk plus exponential delays, as the model draws a chain."""
    return np.cumsum(rng.normal(0.0, sigma, n)) + rng.exponential(1.0 / lam, n) + 1.0


def corpus(rng, scale):
    """``(family, U, V, lam_xi, lam_psi, sigma)`` cases, the same for every tree."""
    sigmas = (0.0, 1e-170, 1e-155, 1e-3, 1e-2, 1.0, 1e150, 1.2e154)
    lengths = (1, 2, 3, 25, 1000, 5000)
    for _ in range(20 * scale):
        n = int(rng.choice(lengths))
        lam = float(10.0 ** rng.uniform(-1, 2))
        sigma = float(rng.choice(sigmas[3:5]))
        U, V = model_chain(rng, n, lam, sigma), model_chain(rng, n, lam / 2, sigma)
        yield "model", U, V, lam, lam / 2, sigma
        yield "model-rounded", np.round(U, 1), np.round(V, 1), lam, lam / 2, sigma
        # the same chains at every sigma, from 0 to 1.2e154: at a rate of 1e-3,
        # which keeps lam * sigma**2 finite, and as float32, int and strided
        # series at their own rate, where an overflowing lam * sigma**2 is refused
        sigma = float(rng.choice(sigmas))
        yield "model-sigmas", U, V, 1e-3, 1e-3, sigma
        yield "dtypes", U.astype(np.float32), np.round(V * 1e3).astype(np.int64), lam, lam, sigma
        yield "strided", np.repeat(U, 2)[::2], np.repeat(V, 2)[1::2], lam, lam, sigma
    for _ in range(3 * scale):
        # eight hours at 1 Hz, in the tiny corpus too: series and blocks read a window
        U = model_chain(rng, 28_800, 10.0, 1e-2)
        yield "long", U, model_chain(rng, 28_800, 4.0, 1e-2), 10.0, 4.0, 1e-2
        yield "long-flat", U, U[::-1], 10.0, 10.0, float(rng.choice(sigmas[:3]))
    # exact unit shifts 2**-10 (lam 1, sigma 2**-5), so ties of 0.0 and -0.0 occur
    zeros = [0.0, -0.0, -2.0**-10, -2.0**-9, 1.0]
    for _ in range(30 * scale):
        n = int(rng.integers(1, 9))
        sigma = float(rng.choice([0.0, 2.0**-5, 1e-170]))
        yield "signed-zeros", rng.choice(zeros, n), rng.choice(zeros, n), 1.0, 1.0, sigma
        n = int(rng.integers(1, 300))
        yield "signed-zeros-long", rng.choice(zeros, n), rng.choice(zeros, n), 1.0, 1.0, 2.0**-5
    huge = [1.7e308, -1.7e308, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324, 0.0]
    for _ in range(10 * scale):
        n = int(rng.integers(1, 60))
        U = rng.choice(huge, n)
        U -= np.sign(U) * rng.uniform(0.0, 1e306, n) * (rng.random(n) < 0.5)
        sigma = float(rng.choice([0.0, 1e-2, 1e153]))
        yield "huge", U, U[::-1].copy(), 10.0, 1.0, sigma
        U = 2.0**45 + rng.integers(0, 50, 1000) / 128
        yield "near-2**45", U, U[::-1].copy(), 1.0, 1.0, 2.0**-5
    for _ in range(10 * scale):
        n = int(rng.choice(lengths[1:]))
        U = model_chain(rng, n, 10.0, 1e-2)
        U[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        yield "non-finite", U, model_chain(rng, n, 10.0, 1e-2), 10.0, 10.0, 1e-2
    if np.finfo(np.longdouble).max > np.finfo(float).max:
        big = np.array([np.longdouble("1e400"), 1.0, 2.0])
        yield "longdouble", big, np.ones(3, np.longdouble), 10.0, 10.0, 1e-2
        yield "longdouble", -big[::-1], np.ones(3, np.longdouble), 10.0, 10.0, 1e-2


def digest_corpus(fgclock, scale, groups):
    kernel = fgclock.estimators.chain_kernel
    for family, U, V, lam_xi, lam_psi, sigma in corpus(np.random.default_rng(20261019), scale):
        n = len(U)
        for tag in fgclock.estimators.ESTIMATORS:
            calls = {
                "offset": lambda: fgclock.fge_offset(U, V, lam_xi, lam_psi, sigma, tag),
                "series": lambda: kernel(tag, lam_xi, sigma, n)(U),
                "block": lambda: kernel(tag, lam_xi, sigma, n)(np.array([U, V])),
            }
            for path, call in calls.items():
                groups[f"{family} {tag} {path}"].append(record(call))
        if n <= 10:
            digest_oracles(fgclock, U, lam_xi, sigma, groups)


def digest_oracles(fgclock, U, lam, sigma, groups):
    """The three exact-MAP oracles on one chain, the grid spanning the chain's values."""
    def grid():
        lo = float(np.min(U)) - 5.0 * sigma * math.sqrt(len(U)) - 0.1
        return fgclock.grid_max_marginal(U, lam, sigma, lo, float(np.max(U)) + 0.1, 513)

    calls = {
        "exact": lambda: fgclock.exact_map_active_set(U, lam, sigma),
        "coordinate-ascent": lambda: fgclock.coordinate_ascent_map(U, lam, sigma),
        "grid": grid,
    }
    for name, call in calls.items():
        groups[f"oracle {name}"].append(record(call))


def commands(scale):
    """``(group, argv, config)`` of each command; ``config`` is written to config.json first."""
    rounds, trials = ("28800", "2000") if scale > 1 else ("300", "20")
    oracle = ("8", "200") if scale > 1 else ("4", "5")
    runs = [
        ("simulate-long", ["simulate", "--rounds", rounds, "--seed", "3", "--out", "long"]),
        ("estimate-long", ["estimate", "--input", "long_observations.csv", "--variant", "all"]),
        ("simulate-flat", ["simulate", "--rounds", rounds, "--seed", "3", "--sigma", "0",
                           "--out", "flat"]),
        ("estimate-flat", ["estimate", "--input", "flat_observations.csv", "--variant", "all",
                           "--sigma", "0"]),
        ("sweep", ["sweep", "--axis", "rounds", "--values", "2,5,10,25", "--trials", trials,
                   "--out", "sweep.csv"]),
        ("compare-oracle", ["compare-oracle", "--rounds", oracle[0], "--instances", oracle[1]]),
    ]
    runs = [(group, argv, None) for group, argv in runs]
    config = {"lambda_xi": 8.0, "lambda_psi": 4.0, "sigma": 0.02, "d0": 1.5, "theta0": -0.25,
              "rounds": 6, "axis": "rounds", "values": [2, 5], "trials": int(trials),
              "seed": 11, "estimators": ["fge-recursive", "ml"]}
    overrides = ["--lambda-xi", "6", "--sigma", "0.05", "--rounds", "4", "--seed", "12"]
    for command, suffix, extra in (
        ("simulate", "", []),
        ("sweep", ".csv", ["--axis", "sigma", "--values", "0.005,0.05", "--trials", "7"]),
    ):
        forms = {
            "config": (config, []),
            "override": (config, [*overrides, *extra]),
            "unknown-key": ({**config, "sigmas": 0.02}, []),
            "refused-count": ({**config, "rounds": 2.5}, []),
        }
        for form, (form_config, flags) in forms.items():
            argv = [command, "--config", "config.json", *flags, "--out", form + suffix]
            runs.append((f"{command}-{form}", argv, form_config))
    for command in ("simulate", "estimate", "sweep", "compare-oracle"):
        runs.append((f"help-{command}", [command, "--help"], None))
    return runs


def digest_commands(fgclock, scale, groups):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, argv, config in commands(scale):
                if config is not None:
                    Path("config.json").write_text(json.dumps(config))
                before = set(os.listdir())
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = fgclock.cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                entries = groups[f"cli {name}"]
                entries += [f"exit {code}".encode(), out.getvalue().encode(),
                            err.getvalue().encode()]
                for file in sorted(set(os.listdir()) - before):
                    entries.append(file.encode() + b"\n" + Path(file).read_bytes())
        finally:
            os.chdir(home)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="source checkout or its src/")
    parser.add_argument("--out", required=True, type=Path, help="digest file to write")
    parser.add_argument("--tiny", action="store_true", help="a small corpus and small commands")
    args = parser.parse_args(argv)
    warnings.simplefilter("error")
    fgclock = load_fgclock(args.src)
    scale = 1 if args.tiny else 10
    groups = defaultdict(list)
    digest_corpus(fgclock, scale, groups)
    digest_commands(fgclock, scale, groups)
    lines = []
    for group in sorted(groups):
        digest = hashlib.sha256()
        for entry in groups[group]:
            digest.update(len(entry).to_bytes(8, "little") + entry)
        lines.append(f"{group} {len(groups[group])} {digest.hexdigest()}\n")
    args.out.write_text("".join(lines))
    print(f"{args.out}: {len(lines)} groups, {sum(map(len, groups.values()))} records")


if __name__ == "__main__":
    main()
