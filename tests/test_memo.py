"""The per-potential memo of cell constants, the cell invariant and brackets:
results do not depend on who filled it, it travels with pickling, and it
dies with its potential."""

import gc
import pickle
import sys
import threading
import weakref

import pytest

import bloch_green
from bloch_green import (bracket, cell_constants, cell_Q, expansion_coeffs,
                         green_series, load_potential)
from wop_engine import rbar_closed

SQUARE_SPEC = "period=1; const V=0 len=0.6; const V=1 len=0.4"
COSINE_SPEC = "period=2; cosine amp=0.3 len=2"

# (spec, x, y) with x, y inside the cell
CASES = [(SQUARE_SPEC, 0.4, 0.1), (COSINE_SPEC, 1.1, 0.3)]


def _tasks(pot, x, y):
    """One call of each memo-using public function."""
    L = pot.period
    return [
        lambda: green_series(pot, x, y, order=3),
        lambda: tuple(map(tuple, expansion_coeffs(pot, x, 4))),
        lambda: rbar_closed(pot, y, cell_constants(pot).V0 + 0.3, 2),
        lambda: bracket(pot, "+-+", x - L, x),
    ]


def _serial(spec, x, y):
    pot = load_potential(spec)
    return [task() for task in _tasks(pot, x, y)]


@pytest.mark.parametrize("spec,x,y", CASES, ids=["square", "cosine"])
def test_threads_sharing_a_fresh_potential_match_serial(spec, x, y):
    want = _serial(spec, x, y)
    pot = load_potential(spec)
    tasks = _tasks(pot, x, y)
    n = len(tasks)
    start = threading.Barrier(n)
    results = [None] * n
    errors = []

    def worker(i):
        # every thread runs all tasks, each from a different first task, so
        # they miss the cold memo together
        start.wait()
        try:
            results[i] = {j % n: tasks[j % n]() for j in range(i, i + n)}
        except Exception as exc:  # reported below, with the thread's index
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so misses and stores interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for got in results:
        assert [got[j] for j in range(n)] == want


@pytest.mark.parametrize("spec,x,y", CASES, ids=["square", "cosine"])
def test_pickle_round_trip_with_warm_memo(spec, x, y):
    pot = load_potential(spec)
    want = [task() for task in _tasks(pot, x, y)]
    copy = pickle.loads(pickle.dumps(pot))
    assert copy.fingerprint == pot.fingerprint
    assert [task() for task in _tasks(copy, x, y)] == want
    fresh = pickle.loads(pickle.dumps(load_potential(spec)))
    assert [task() for task in _tasks(fresh, x, y)] == want


def test_dropping_a_potential_frees_its_memo():
    pot = load_potential(SQUARE_SPEC)
    cell_Q(pot)
    green_series(pot, 0.4, 0.1, order=2)
    ref = weakref.ref(pot)
    del pot
    gc.collect()
    assert ref() is None


def _module_container_sizes():
    """Sizes of every module-level container and functools cache of the
    package."""
    sizes = {}
    for name, mod in sys.modules.items():
        if name != "bloch_green" and not name.startswith("bloch_green."):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, "cache_info"):
                sizes[f"{name}.{attr}"] = val.cache_info().currsize
            elif isinstance(val, (dict, list, set)) and not attr.startswith("__"):
                sizes[f"{name}.{attr}"] = len(val)
    return sizes


def test_no_module_level_state_grows_with_potentials():
    def use(offset):
        pot = load_potential(f"period=1; offset={offset}; const V=0 len=0.6; const V=1 len=0.4")
        green_series(pot, offset + 0.4, offset + 0.1, order=2)
        rbar_closed(pot, offset + 0.3, 0.2, 2)

    use(0.0)  # fills the per-order spectral matrices
    before = _module_container_sizes()
    for i in range(1, 6):
        use(0.1 * i)
    assert _module_container_sizes() == before
    assert "_cache" not in vars(bloch_green.iterint)


def test_cc_must_be_the_potentials_own():
    square = load_potential(SQUARE_SPEC)
    cosine = load_potential(COSINE_SPEC)
    own = cell_constants(square)
    assert green_series(square, 0.4, 0.1, cc=own, order=2) == green_series(square, 0.4, 0.1, order=2)
    with pytest.raises(ValueError):
        expansion_coeffs(square, 0.4, 2, cc=cell_constants(cosine))
    with pytest.raises(ValueError):
        green_series(square, 0.4, 0.1, cc=cell_constants(cosine))
