"""Command-line front end: simulate, estimate, sweep, compare-oracle.

Every subcommand is deterministic given its flags, config file and seed.
File-writing subcommands drop a JSON manifest next to their outputs so a
run can be reproduced bit-for-bit. Exit codes: 0 success, 2 usage,
3 validation, 5 I/O.
"""

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .errors import FgclockError, ParameterError, SizeError
from .estimators import ESTIMATORS, fge_offset, final_estimate
from .experiments import (
    AXIS_ROUNDS,
    AXIS_SIGMA,
    ALL_ESTIMATORS,
    SweepConfig,
    mse_vs_rounds,
    mse_vs_sigma,
)
from .model import ClockModelParams, check_count, simulate_observations, simulate_paths
from .model import DOMAIN_COMPARE_ORACLE, DOMAIN_SIMULATE, SEED_SCHEME, seed_stream
from .oracle import check_enumerable, exact_map_active_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 5

#: Work one ``compare-oracle`` run may do, instances * (2^N - 1 + INSTANCE_SETS) sets.
MAX_ENUM_SETS = 2**28
#: One instance's simulation and estimates, in active sets: about 200 at N = 12.
INSTANCE_SETS = 2**8

#: Exit code of each error; the first matching row wins.
EXIT_CODES = (
    (SizeError, EXIT_USAGE),
    (MemoryError, EXIT_USAGE),
    (FgclockError, EXIT_VALIDATION),
    (OSError, EXIT_IO),
    (json.JSONDecodeError, EXIT_IO),
    (UnicodeDecodeError, EXIT_IO),
)

#: Every setting with its default; each run merges the defaults, then the
#: ``--config`` file, then the flags given, in :func:`_settings`.
_DEFAULTS = {
    "lambda_xi": 10.0,
    "lambda_psi": 10.0,
    "sigma": 1e-2,
    "d0": 1.0,
    "theta0": 0.5,
    "rounds": 25,
    "axis": None,
    "values": None,
    "trials": 10_000,
    "seed": 0,
    "estimators": ALL_ESTIMATORS,
}

_MODEL_KEYS = tuple(field.name for field in dataclasses.fields(ClockModelParams))
_SWEEP_KEYS = tuple(key for key in _DEFAULTS if key not in _MODEL_KEYS)
#: The model settings the estimators read.
_ESTIMATOR_KEYS = ("lambda_xi", "lambda_psi", "sigma")


def _settings(args):
    """Every setting: its default, then its value in the ``--config`` file or in the
    manifest of a simulated ``--input``, then its flag."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None) is not None:
        cfg = _read_json(args.config, "config file")
        if not isinstance(cfg, dict):
            raise ParameterError("config file must hold a JSON object")
        unknown = set(cfg) - set(_DEFAULTS)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        settings.update(cfg)
    if getattr(args, "input", None) is not None:
        settings.update(_simulated_model(args.input)[1])
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = _parse_values(flag) if key == "values" else flag
    return settings


def _read_json(path, what):
    """The JSON in ``path``, the ``what``; one that is not JSON is refused naming both."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: the {what} is not JSON: {exc.msg}",
                                       exc.doc, exc.pos) from None


def _simulated_model(path):
    """The manifest that ``simulate`` wrote beside ``path``, and its estimator settings.

    ``simulate --out p`` writes ``p_observations.csv`` and ``p_manifest.json``;
    any other input, or one with no manifest beside it, has none: ``(None, {})``.
    """
    prefix = path.removesuffix("_observations.csv")
    if prefix == path:
        return None, {}
    manifest_file = f"{prefix}_manifest.json"
    try:
        manifest = _read_json(manifest_file, "simulate manifest")
    except FileNotFoundError:
        return None, {}
    simulated = isinstance(manifest, dict) and manifest.get("subcommand") == "simulate"
    config = manifest.get("config") if simulated else None
    if not isinstance(config, dict) or not set(_ESTIMATOR_KEYS) <= set(config):
        raise ParameterError(f"{manifest_file}: not a simulate manifest with "
                             f"{', '.join(_ESTIMATOR_KEYS)} in its config")
    return manifest_file, {key: config[key] for key in _ESTIMATOR_KEYS}


def _parse_values(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError(f"--values must be comma-separated numbers, got {text!r}") from None


def _model(settings):
    return ClockModelParams(**{key: settings[key] for key in _MODEL_KEYS})


def _write_manifest(path, subcommand, config, seed, outputs):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "seed_scheme": SEED_SCHEME,
        "artifact_version": __version__,
        "outputs": outputs,
    }
    _write_json(path, manifest, sort_keys=True)


def _write_json(path, document, sort_keys=False):
    """Write ``document`` as indented JSON and a newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=sort_keys) + "\n")


def _add_estimator_flags(parser):
    parser.add_argument("--lambda-xi", dest="lambda_xi", type=float, default=None)
    parser.add_argument("--lambda-psi", dest="lambda_psi", type=float, default=None)
    parser.add_argument("--sigma", type=float, default=None)


def _add_model_flags(parser):
    _add_estimator_flags(parser)
    parser.add_argument("--d0", type=float, default=None)
    parser.add_argument("--theta0", type=float, default=None)


def cmd_simulate(args):
    settings = _settings(args)
    params = _model(settings)
    seed = check_count(settings["seed"], "seed", low=0)
    rng = seed_stream(seed, DOMAIN_SIMULATE)  # the path's normals, then the uniforms
    path = simulate_paths(params, rng)
    obs = simulate_observations(path, params, rng)
    theta, d = path.theta, path.d

    obs_file = f"{args.out}_observations.csv"
    latent_file = f"{args.out}_latent.csv"
    manifest_file = f"{args.out}_manifest.json"
    with open(obs_file, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "U", "V"])
        for k in range(params.rounds):
            writer.writerow([k + 1, repr(float(obs.U[k])), repr(float(obs.V[k]))])
    with open(latent_file, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "xi", "psi", "theta", "d"])
        for k in range(params.rounds + 1):
            writer.writerow(
                [k, repr(float(path.xi[k])), repr(float(path.psi[k])),
                 repr(float(theta[k])), repr(float(d[k]))]
            )
    _write_manifest(
        manifest_file,
        "simulate",
        dataclasses.asdict(params),
        seed,
        [obs_file, latent_file],
    )
    if path.negative_d_count:
        print(
            f"warning: {path.negative_d_count} latent delay values drifted negative",
            file=sys.stderr,
        )
    print(f"wrote {obs_file}, {latent_file}, {manifest_file}")
    return EXIT_OK


def _read_observations(path):
    U, V = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["k", "U", "V"]:
            raise ParameterError(f"{path}: expected header 'k,U,V', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                k, u, v = float(row[0]), float(row[1]), float(row[2])
            except (IndexError, ValueError):
                raise ParameterError(f"{path}: malformed CSV at row {lineno}: {row}")
            # the estimators take the last row as round N, so a reordered,
            # missing or repeated round would be estimated as another one
            if k != len(U) + 1:
                raise ParameterError(
                    f"{path}: row {lineno} has k = {row[0]}, expected {len(U) + 1}: "
                    f"rounds must be numbered 1, 2, ..., N in file order"
                )
            U.append(u)
            V.append(v)
    if not U:
        raise ParameterError(f"{path}: no observation rows")
    return np.array(U), np.array(V)


def cmd_estimate(args):
    U, V = _read_observations(args.input)
    settings = _settings(args)
    try:
        params = _model(settings)
    except FgclockError as exc:
        manifest_file, model = _simulated_model(args.input)
        taken = {key: _DEFAULTS[key] for key in model if getattr(args, key) is None}
        try:  # refused too with the defaults in place of the manifest's values?
            _model({**settings, **taken})
        except FgclockError:
            raise exc from None
        raise type(exc)(f"{manifest_file}: {exc}") from None
    used = {key: getattr(params, key) for key in _ESTIMATOR_KEYS}
    out = {}
    for variant in ESTIMATORS if args.variant == "all" else [args.variant]:
        est = fge_offset(U, V, params.lambda_xi, params.lambda_psi, params.sigma, variant)
        out[variant] = {
            "xi_hat_N": est.xi_hat_N,
            "psi_hat_N": est.psi_hat_N,
            "theta_hat_N": est.theta_hat_N,
        }
    print(json.dumps({"rounds": len(U), "params": used, "estimates": out}, indent=2))
    return EXIT_OK


def cmd_sweep(args):
    settings = _settings(args)
    config = SweepConfig(params=_model(settings), **{key: settings[key] for key in _SWEEP_KEYS})
    table = mse_vs_rounds(config) if config.axis == AXIS_ROUNDS else mse_vs_sigma(config)

    csv_file = args.out
    json_file = f"{args.out}.json"
    manifest_file = f"{args.out}.manifest.json"
    with open(csv_file, "w", newline="") as fh:
        fh.write(table.to_csv())
    _write_json(json_file, table.to_json_dict())
    resolved = dataclasses.asdict(config.params)
    resolved.update({key: getattr(config, key) for key in _SWEEP_KEYS})
    _write_manifest(manifest_file, "sweep", resolved, config.seed, [csv_file, json_file])
    print(f"wrote {csv_file}, {json_file}, {manifest_file}")
    return EXIT_OK


def cmd_compare_oracle(args):
    settings = _settings(args)
    check_enumerable(settings["rounds"])
    instances = check_count(args.instances, "--instances")
    seed = check_count(settings["seed"], "--seed", low=0)
    params = _model(settings)
    cost = 2**params.rounds - 1 + INSTANCE_SETS
    if instances * cost > MAX_ENUM_SETS:
        raise SizeError(
            f"compare-oracle does the work of --instances * (2**--rounds - 1 + {INSTANCE_SETS}) "
            f"active sets, at most {MAX_ENUM_SETS}; got {instances} * {cost}"
        )
    # the factor-graph variants, each against the exact MAP
    estimators = {variant.oracle_key: tag for tag, variant in ESTIMATORS.items()
                  if variant.oracle_key is not None}
    worst = dict.fromkeys(estimators, (-1.0, None))
    for i in range(instances):
        rng = seed_stream(seed, DOMAIN_COMPARE_ORACLE, [0, 0, 0, i])
        path = simulate_paths(params, rng)
        obs = simulate_observations(path, params, rng)
        exact = exact_map_active_set(obs.U, params.lambda_xi, params.sigma).path[-1]
        for key, tag in estimators.items():
            dev = abs(final_estimate(tag, obs.U, params.lambda_xi, params.sigma) - exact)
            if dev > worst[key][0]:
                worst[key] = (dev, i)
    report = {"rounds": params.rounds, "instances": instances, "seed": seed}
    for key, (value, index) in worst.items():
        report[key] = {"value": value, "at": {"seed": seed, "index": index}}
    print(json.dumps(report, indent=2))
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI's parser, built once per process; ``func`` names each subcommand's function."""
    parser = argparse.ArgumentParser(
        prog="fgclock",
        description="Clock-offset estimation for two-way timing exchange",
    )
    parser.add_argument("--version", action="version", version=f"fgclock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample latent paths and observations")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output file prefix")
    _add_model_flags(p)
    p.add_argument("--rounds", type=int, default=None)
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser("estimate", help="estimate the offset from a k,U,V CSV")
    p.add_argument("--input", required=True, help="observation CSV with k,U,V columns")
    p.add_argument(
        "--variant",
        choices=[*ESTIMATORS, "all"],
        default="all",
    )
    _add_estimator_flags(p)
    p.set_defaults(func="cmd_estimate")

    p = sub.add_parser("sweep", help="Monte Carlo MSE sweep over rounds or sigma")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--axis", choices=[AXIS_ROUNDS, AXIS_SIGMA], default=None)
    p.add_argument("--values", default=None, help="comma-separated sweep values")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_model_flags(p)
    p.add_argument("--rounds", type=int, default=None)
    p.set_defaults(func="cmd_sweep")

    p = sub.add_parser(
        "compare-oracle", help="deviation of both FGE variants from the exact MAP"
    )
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    _add_model_flags(p)
    p.set_defaults(func="cmd_compare_oracle")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced module attribute is the one called
        return globals()[args.func](args)
    except tuple(error for error, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
