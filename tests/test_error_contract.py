"""The library's error contract: every public entry returns a finite result or raises
an FgclockError, without a warning, whatever the type of each argument."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgclock
from fgclock import ClockModelParams, FgclockError, LatentPath, ObservationSeries
from fgclock.estimators import chain_kernel
from fgclock.model import COUNT_MAX

PARAMS = ClockModelParams(10.0, 10.0, 0.01, 1.0, 0.5, 4)
PATH = fgclock.simulate_paths(PARAMS, 1)
OBS = fgclock.simulate_observations(PATH, PARAMS, 2)
CONSTANTS = fgclock.backward_constants(10.0, 0.01, 4)
#: A longdouble beyond the float64 range, where numpy's longdouble is wider.
HUGE_LONGDOUBLE = np.longdouble("1e400" if np.finfo(np.longdouble).max > 1e308 else "inf")

#: Values of no kind in particular, offered for every argument.
JUNK = [
    None, True, "1", 1j, Fraction(2), 10**400, math.nan, math.inf, -math.inf,
    np.float16(0.5), np.float32(3e38), HUGE_LONGDOUBLE,
    np.int8(-3), np.uint64(2**64 - 1), {"rounds": 3},
]
#: Reals, from generated floats and from the edges of the model's domains.
NUMBERS = st.floats() | st.sampled_from([
    0.0, -0.0, 5e-324, 1e-155, 1e-3, 0.01, 0.5, 1.0, 2, 10.0, 10, -2.5, 1e154, 1.2e154,
    1e300, 1e308, -1e308, 1.7976931348623157e308, np.float32(10), np.float16(0.01),
])
#: Counts: small, or above COUNT_MAX, so that no count allocates gigabytes.
COUNTS = st.integers(-2, 1000) | st.integers(COUNT_MAX + 1, 2**70) | st.sampled_from([1, 2, 4])
SEEDS = COUNTS | st.sampled_from([[3, 0], [1, -1], [1.5]])
CHAINS = st.sampled_from([
    OBS.U, OBS.V, [1.0, 1.2, 0.9, 1.1], [1.0], [0.5, 0.25], np.linspace(0.0, 1.0, 13),
    np.array([1, 2, 3, 4], dtype=np.int8), np.array([1.0, 1.2, 0.9, 1.1], dtype=np.float32),
    PATH.xi,
]) | st.sampled_from([
    [[1.0], [1.0, 2.0]], np.array([1.0, math.nan]), np.array(["1", "2"]), np.ones((2, 4)),
    np.array([]), np.array([1.7e308, -1.7e308, 1e308, 0.0]),
    np.array([2**64 - 1, 0], dtype=np.uint64), np.array([HUGE_LONGDOUBLE, 1.0]),
]) | st.lists(st.floats(), max_size=6)
VARIANTS = st.sampled_from(["recursive", "paper", "ml", "bogus"])
#: The package's own objects, at ordinary and at extreme parameters: an
#: overflowing walk, and backward constants that overflow to inf.
HUGE_PARAMS = ClockModelParams(10.0, 10.0, 0.01, 1e308, 1e308, 4)
MODELS = st.sampled_from([PARAMS, HUGE_PARAMS])
PATHS = st.sampled_from([PATH, fgclock.simulate_paths(HUGE_PARAMS, 1)])
BACKWARD = st.sampled_from([CONSTANTS, fgclock.backward_constants(1e308, 1.0, 3)])
OBJECTS = MODELS | PATHS | BACKWARD | st.sampled_from([
    OBS, fgclock.backtrack_estimate(OBS.U, 10.0, 0.01), fgclock.ml_offset(OBS.U, OBS.V),
])


def kernel(variant, lam, sigma, n, U):
    return chain_kernel(variant, lam, sigma, n)(U)


#: Each entry, and the kind of each of its arguments.
ENTRIES = {
    "ClockModelParams": (ClockModelParams, [NUMBERS] * 5 + [COUNTS]),
    "LatentPath": (LatentPath, [CHAINS, CHAINS]),
    "ObservationSeries": (ObservationSeries, [CHAINS, CHAINS]),
    "simulate_paths": (fgclock.simulate_paths, [MODELS, SEEDS]),
    "simulate_observations": (fgclock.simulate_observations, [PATHS, MODELS, SEEDS]),
    "chain_log_posterior": (fgclock.chain_log_posterior, [CHAINS, CHAINS, NUMBERS, NUMBERS]),
    "backward_constants": (fgclock.backward_constants, [NUMBERS, NUMBERS, COUNTS]),
    "shift_kernel": (fgclock.shift_kernel, [BACKWARD, COUNTS, NUMBERS]),
    "backtrack_estimate": (fgclock.backtrack_estimate, [CHAINS, NUMBERS, NUMBERS]),
    "closed_form_estimate_paper": (fgclock.closed_form_estimate_paper,
                                   [CHAINS, NUMBERS, NUMBERS]),
    "fge_offset": (fgclock.fge_offset, [CHAINS, CHAINS] + [NUMBERS] * 3 + [VARIANTS]),
    "ml_offset": (fgclock.ml_offset, [CHAINS, CHAINS]),
    "exact_map_active_set": (fgclock.exact_map_active_set, [CHAINS, NUMBERS, NUMBERS]),
    "coordinate_ascent_map": (fgclock.coordinate_ascent_map,
                              [CHAINS] + [NUMBERS] * 3 + [COUNTS]),
    "grid_max_marginal": (fgclock.grid_max_marginal, [CHAINS] + [NUMBERS] * 4 + [COUNTS]),
    "chain_kernel": (chain_kernel, [VARIANTS, NUMBERS, NUMBERS, COUNTS]),
    "kernel": (kernel, [VARIANTS, NUMBERS, NUMBERS, COUNTS, CHAINS]),
}


def test_every_public_function_is_an_entry():
    functions = {name for name in fgclock.__all__
                 if callable(getattr(fgclock, name)) and not isinstance(getattr(fgclock, name), type)}
    assert functions <= set(ENTRIES)


def argument(kind):
    """A value of ``kind`` nine times in ten, else one of any kind."""
    return st.integers(0, 9).flatmap(
        lambda i: kind if i else st.sampled_from(JUNK) | CHAINS | OBJECTS)


CALLS = st.sampled_from(sorted(ENTRIES)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(*map(argument, ENTRIES[name][1]))))

#: The infinities a result documents, by entry or by class and field: an
#: overflowing shift is inf, and so is the root estimate; an infeasible
#: candidate has log posterior -inf.
DOCUMENTED_INF = {
    "shift_kernel": math.inf, "chain_log_posterior": -math.inf,
    ("BackwardConstants", "D"): math.inf,
    ("BacktrackResult", "xi_bar"): math.inf, ("BacktrackResult", "xi0_hat"): math.inf,
}


def numbers(name, result):
    """``(key, value)`` of each number in ``result``; a path's are its checked theta and d."""
    if isinstance(result, LatentPath):
        return [(name, result.theta), (name, result.d)]
    if dataclasses.is_dataclass(result):
        return [((type(result).__name__, field.name), getattr(result, field.name))
                for field in dataclasses.fields(result)]
    return [] if callable(result) else [(name, result)]


@pytest.mark.filterwarnings("error")
@given(call=CALLS)
# calls that raised TypeError, AttributeError or IndexError, or warned
@example(call=("simulate_paths", (None, 1)))
@example(call=("simulate_observations", (PATH, {"rounds": 3}, 1)))
@example(call=("simulate_observations", (None, PARAMS, 1)))
@example(call=("LatentPath", ([1.0, 2.0], [1.0, 2.0])))
@example(call=("ObservationSeries", ([1.0], [1.0])))
@example(call=("shift_kernel", (CONSTANTS, 1.5, 0.0)))
@example(call=("shift_kernel", (CONSTANTS, "1", 0.0)))
@example(call=("shift_kernel", (CONSTANTS, 1, "a")))
@example(call=("shift_kernel", (None, 1, 0.0)))
@example(call=("coordinate_ascent_map", ([0.0, 1e185], 10.0, 10.0, np.float32(10.0), 1000)))
# calls that raised TypeError or warned before their arguments were checked first
@example(call=("closed_form_estimate_paper", ([1.0, 2.0], None, 0.01)))
@example(call=("chain_kernel", ("paper", 1j, 0.01, 2)))
@example(call=("fge_offset", ([1.0, 2.0], [1.0, 2.0], 10**400, 1.0, 0.01, "paper")))
@example(call=("ClockModelParams", (np.float32(0.5), 1e308, 0.1, 1.0, 0.0, 3)))
@example(call=("simulate_paths", (ClockModelParams(2.0, 2.0, 0.3, 1e308, np.float32(0.5), 2), 1)))
@example(call=("backward_constants", (1e308, 1.0, 3)))
@settings(max_examples=400, deadline=None)
def test_finite_result_or_fgclock_error(call):
    name, args = call
    try:
        found = numbers(name, ENTRIES[name][0](*args))
    except FgclockError:
        return
    for key, value in found:
        if isinstance(value, (str, frozenset)):
            continue
        value = np.asarray(value, dtype=float)
        assert (np.isfinite(value) | (value == DOCUMENTED_INF.get(key, math.nan))).all(), key
