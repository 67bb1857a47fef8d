"""In-memory span tracer that wraps fgclock's public functions from outside.

The program is not modified: ``install`` replaces each traced function
with a wrapper at every lookup site (every ``fgclock`` module attribute
that is bound to the original function, plus class attributes for
methods), and ``uninstall`` puts the originals back so that untraced
runs execute unmodified code. Each call records a span (name, start,
end, parent span index) in flat arrays; counters that the wrappers
compute from argument and array sizes are kept beside the spans.
"""

import json
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: Counters computed from argument/array sizes rather than measured.
COMPUTED_COUNTS = ("model.draws", "oracle.active_sets", "oracle.grid_cells",
                   "estimators.rounds_in")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rounds(params):
    return params.rounds if hasattr(params, "rounds") else params["rounds"]


class Tracer:
    """Records spans and counters for the fgclock calls made while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts = Counter()
        self.constant_keys = set()
        self._restore = []

    # -- span recording -------------------------------------------------
    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_name(self):
        idx = self._stack[-1]
        return None if idx < 0 else self.names[self.name[idx]]

    def _wrap(self, fn, name, before=None, after=None, layer=None):
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            idx = len(tracer.start)
            tracer.name.append(tracer._name_id(span_name))
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(math.nan)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if layer is not None and _is_fgclock_error(exc):
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------
    def install(self, targets):
        """Patch every lookup site of each ``(module, attr, wrap_kwargs)`` target."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fgclock" or key.startswith("fgclock."))]
        for owner, attr, spec in targets:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, **spec)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------
    def summary(self):
        """Per-name call counts and self times, plus the covered root time.

        A span's self time is its duration minus the durations of its
        direct children; the self times of all spans therefore sum to
        the total duration of the root spans.
        """
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        return {
            "calls": {self.names[i]: int(calls[i]) for i in range(k)},
            "self_s": {self.names[i]: float(self_s[i]) for i in range(k)},
            "root_s": float(dur[~has_parent].sum()),
            "spans": n,
        }

    def write(self, path, meta):
        """Write the raw spans (times relative to the first span) to ``path``."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        t0 = float(start[0]) if n else 0.0
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float, count=n) - t0,
            meta=np.array(json.dumps(meta)),
        )


def _is_fgclock_error(exc):
    errors = sys.modules.get("fgclock.errors")
    return errors is not None and isinstance(exc, errors.FgclockError)


# -- what to trace --------------------------------------------------------

def _count_draws(params_index):
    def before(tracer, args, kwargs):
        params = _arg(args, kwargs, params_index, "params")
        tracer.counts["model.draws"] += 2 * _rounds(params)
    return before


def _count_rounds_in(names):
    """Count observation entries at the outermost estimators call only."""
    def before(tracer, args, kwargs):
        parent = tracer.parent_name()
        if parent is not None and parent.startswith("estimators."):
            return
        for index, name in names:
            tracer.counts["estimators.rounds_in"] += np.size(_arg(args, kwargs, index, name))
    return before


def _fge_name(args, kwargs):
    return "estimators.fge_offset." + _arg(args, kwargs, 5, "variant", "recursive")


def _backward_constants_args(tracer, args, kwargs):
    tracer.constant_keys.add((float(_arg(args, kwargs, 0, "lam")),
                              float(_arg(args, kwargs, 1, "sigma")),
                              int(_arg(args, kwargs, 2, "n"))))


def _count_active_sets(tracer, args, kwargs):
    tracer.counts["oracle.active_sets"] += 2 ** np.size(_arg(args, kwargs, 0, "U")) - 1


def _count_grid_cells(tracer, args, kwargs):
    U = _arg(args, kwargs, 0, "U")
    tracer.counts["oracle.grid_cells"] += int(_arg(args, kwargs, 5, "points")) * np.size(U)


def _count_cells(tracer, args, kwargs, table):
    config = _arg(args, kwargs, 0, "config")
    tracer.counts["experiments.cells"] += len(config.values)
    failed = {row.axis_value for row in table.rows if ":failed[" in row.estimator}
    tracer.counts["experiments.failed_cells"] += len(failed)


def targets(fg):
    """Traced functions of the ``fg`` namespace, as ``install`` expects them."""
    return [
        (fg.model, "simulate_paths",
         dict(name="model.simulate_paths", before=_count_draws(0))),
        (fg.model, "simulate_observations",
         dict(name="model.simulate_observations", before=_count_draws(1))),
        (fg.estimators, "fge_offset",
         dict(name=_fge_name, before=_count_rounds_in(((0, "U"), (1, "V"))))),
        (fg.estimators, "ml_offset",
         dict(name="estimators.ml_offset", before=_count_rounds_in(((0, "U"), (1, "V"))))),
        (fg.estimators, "backtrack_estimate",
         dict(name="estimators.backtrack_estimate", before=_count_rounds_in(((0, "U"),)))),
        (fg.estimators, "backward_constants",
         dict(name="estimators.backward_constants", before=_backward_constants_args)),
        (fg.oracle, "exact_map_active_set",
         dict(name="oracle.exact_map_active_set", before=_count_active_sets, layer="oracle")),
        (fg.oracle, "coordinate_ascent_map",
         dict(name="oracle.coordinate_ascent_map", layer="oracle")),
        (fg.oracle, "grid_max_marginal",
         dict(name="oracle.grid_max_marginal", before=_count_grid_cells, layer="oracle")),
        (fg.experiments, "mse_vs_rounds",
         dict(name="experiments.mse_vs_rounds", after=_count_cells)),
        (fg.experiments.MseTable, "to_csv", dict(name="experiments.to_csv")),
        (fg.cli, "main", dict(name="cli.main")),
    ]
