"""Command-line front end: simulate, estimate, sweep, compare-oracle.

Every subcommand is deterministic given its flags, config file and seed.
File-writing subcommands drop a JSON manifest next to their outputs so a
run can be reproduced bit-for-bit. Exit codes: 0 success, 2 usage,
3 validation, 5 I/O.
"""

import argparse
import contextlib
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
    trial_blocks,
)
from .model import ClockModelParams, LatentPath, check_count, simulated_series
from .model import DOMAIN_COMPARE_ORACLE, DOMAIN_SIMULATE, SEED_SCHEME
from .oracle import check_enumerable, exact_map_active_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 5

#: Work one ``compare-oracle`` run may do, instances * (2^N - 1 + INSTANCE_SETS) sets.
MAX_ENUM_SETS = 2**28
#: One instance's simulation and estimates, in active sets: about 200 at N = 12.
INSTANCE_SETS = 2**8
#: Rows of a ``simulate`` CSV formatted per write: a block's text takes a few MB, so a
#: log of any length is written in flat memory.
CSV_BLOCK_ROWS = 2**16

#: Exit code of each error; the first matching row wins.
EXIT_CODES = (
    (SizeError, EXIT_USAGE),
    (MemoryError, EXIT_USAGE),
    (FgclockError, EXIT_VALIDATION),
    (OSError, EXIT_IO),
    (json.JSONDecodeError, EXIT_IO),
    (UnicodeError, EXIT_IO),
)

#: Every setting with its default; each run merges the defaults, then the
#: ``--config`` file or a ``simulate`` manifest, then the flags given, in :func:`_settings`.
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
#: The setting of each check that reads one under another name.
_CHECKED_AS = {"rounds values": "values", "sigma values": "values"}


@contextlib.contextmanager
def _settings(args, *files):
    """Every setting, to check inside: its default, then its value in each of ``files``,
    (path, values) pairs, then its flag. A refusal inside names the path of each file
    that set a setting it read; a default or a flag has no path."""
    flags = {key: getattr(args, key, None) for key in _DEFAULTS}
    flags = {key: _parse_values(flag) if key == "values" else flag
             for key, flag in flags.items() if flag is not None}
    settings, sources = dict(_DEFAULTS), {}
    for path, values in (*files, (None, flags)):
        settings.update(values)
        sources.update(dict.fromkeys(values, path))
    try:
        yield settings
    except FgclockError as exc:
        named = {sources.get(_CHECKED_AS.get(key, key)) for key in exc.settings} - {None}
        if named:
            exc.args = (f"{', '.join(sorted(named))}: {exc}",)
        raise


@contextlib.contextmanager
def _open_utf8(path, what, newline=None):
    """``path``, the ``what``, open as UTF-8; one that is not is refused naming both
    and the offset of the bad bytes in the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # the text layer decodes in chunks: exc.object, the last, ends at tell()
            at = fh.buffer.tell() - len(exc.object) + exc.start
            bad = exc.object[exc.start:exc.end]
            where = (f"byte 0x{bad[0]:02x} in position {at}" if len(bad) == 1
                     else f"bytes in position {at}-{at + len(bad) - 1}")
            raise UnicodeError(f"{path}: the {what} is not UTF-8: '{exc.encoding}' codec "
                               f"can't decode {where}: {exc.reason}") from None


def _read_json(path, what):
    """The JSON in ``path``, the ``what``; one that is not JSON is refused naming both."""
    with _open_utf8(path, what) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: the {what} is not JSON: {exc.msg}",
                                       exc.doc, exc.pos) from None


def _config_file(path):
    """The ``--config`` file at ``path``, if one is given, and its settings."""
    cfg = {} if path is None else _read_json(path, "config file")
    if not isinstance(cfg, dict):
        raise ParameterError(f"{path}: config file must hold a JSON object")
    unknown = set(cfg) - set(_DEFAULTS)
    if unknown:
        raise ParameterError(f"{path}: unknown config keys: {sorted(unknown)}")
    return path, cfg


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


def _write_run(manifest_file, subcommand, config, seed, outputs):
    """Write ``outputs``, a path -> text pieces mapping, then the manifest that lists
    them, each file as UTF-8 in one pass, and print what was written."""
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "seed_scheme": SEED_SCHEME,
        "artifact_version": __version__,
        "outputs": list(outputs),
    }
    files = {**outputs, manifest_file: [json.dumps(manifest, indent=2, sort_keys=True) + "\n"]}
    for path, pieces in files.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    print(f"wrote {', '.join(files)}")


def _csv_blocks(header, *columns):
    """CSV text, the ``header`` row and then the ``repr`` of each column's values row
    by row, in blocks of :data:`CSV_BLOCK_ROWS` rows."""
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = (column[start:start + CSV_BLOCK_ROWS].tolist() for column in columns)
        yield "".join([",".join(map(repr, row)) + "\n" for row in zip(*block)])


def _add_estimator_flags(parser):
    parser.add_argument("--lambda-xi", dest="lambda_xi", type=float, default=None)
    parser.add_argument("--lambda-psi", dest="lambda_psi", type=float, default=None)
    parser.add_argument("--sigma", type=float, default=None)


def _add_model_flags(parser):
    _add_estimator_flags(parser)
    parser.add_argument("--d0", type=float, default=None)
    parser.add_argument("--theta0", type=float, default=None,
                        help="initial clock offset; a negative one with an exponent as "
                             "--theta0=-1e-3")


def cmd_simulate(args):
    with _settings(args, _config_file(args.config)) as settings:
        params = _model(settings)
        seed = check_count(settings["seed"], "seed", low=0)
    _, walk, obs = next(trial_blocks(params, seed, 1, domain=DOMAIN_SIMULATE))
    path = LatentPath(*walk[0])
    obs = simulated_series(*obs[0])
    k = np.arange(params.rounds + 1)
    outputs = {
        f"{args.out}_observations.csv": _csv_blocks(("k", "U", "V"), k[1:], obs.U, obs.V),
        f"{args.out}_latent.csv": _csv_blocks(("k", "xi", "psi", "theta", "d"), k, path.xi,
                                              path.psi, path.theta, path.d),
    }
    if path.negative_d_count:
        print(
            f"warning: {path.negative_d_count} latent delay values drifted negative",
            file=sys.stderr,
        )
    _write_run(f"{args.out}_manifest.json", "simulate", dataclasses.asdict(params), seed,
               outputs)
    return EXIT_OK


def _read_observations(path):
    U, V = [], []
    with _open_utf8(path, "observation CSV", newline="") as fh:
        reader = csv.reader(fh)
        lineno = 0  # the last row read
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["k", "U", "V"]:
                raise ParameterError(f"{path}: expected header 'k,U,V', got {header}")
            lineno = 1
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
        except csv.Error as exc:  # a field over csv.field_size_limit(), a NUL byte (3.10)
            raise ParameterError(f"{path}: malformed CSV at row {lineno + 1}: {exc}") from None
    if not U:
        raise ParameterError(f"{path}: no observation rows")
    U, V = np.array(U), np.array(V)
    if not (finite := np.isfinite(U) & np.isfinite(V)).all():
        i = int(np.argmin(finite))  # the first that is not: round k is at index k - 1
        raise ParameterError(f"{path}: round {i + 1} is not finite: U = {U[i]}, V = {V[i]}")
    return U, V


def cmd_estimate(args):
    with _settings(args, _simulated_model(args.input)) as settings:
        params = _model(settings)
    U, V = _read_observations(args.input)
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
    with _settings(args, _config_file(args.config)) as settings:
        config = SweepConfig(params=_model(settings), **{key: settings[key] for key in _SWEEP_KEYS})
    table = mse_vs_rounds(config) if config.axis == AXIS_ROUNDS else mse_vs_sigma(config)

    resolved = dataclasses.asdict(config.params)
    resolved.update({key: getattr(config, key) for key in _SWEEP_KEYS})
    _write_run(f"{args.out}.manifest.json", "sweep", resolved, config.seed, {
        args.out: [table.to_csv()],
        f"{args.out}.json": [json.dumps(table.to_json_dict(), indent=2) + "\n"],
    })
    return EXIT_OK


def cmd_compare_oracle(args):
    with _settings(args) as settings:
        check_enumerable(settings["rounds"])
        instances = check_count(args.instances, "--instances")
        seed = check_count(settings["seed"], "seed", low=0)
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
    for start, _, obs in trial_blocks(params, seed, instances, domain=DOMAIN_COMPARE_ORACLE):
        # instance by instance, so that the first instance refused is the one reported
        exact = [exact_map_active_set(simulated_series(*chain).U, params.lambda_xi,
                                      params.sigma).path[-1] for chain in obs]
        for key, tag in estimators.items():
            dev = np.abs(final_estimate(tag, obs[:, 0], params.lambda_xi, params.sigma) - exact)
            i = int(np.argmax(dev))  # the first of equal deviations, as across blocks
            if dev[i] > worst[key][0]:
                worst[key] = (float(dev[i]), start + i)
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
