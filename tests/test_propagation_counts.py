"""Each public call propagates a given (x, x', k) at most once.

Every module binding of `evolve` is wrapped; nested calls (a reversed
interval recursing on its inverse) are not counted, so each key is one
top-level propagation.
"""

import pytest

from bloch_green import green, halfline, transfer
from bloch_green.green import green_exact
from bloch_green.halfline import halfline_state, m_functions, s_functions
from bloch_green.transfer import monodromy

CALLS = {
    "monodromy": lambda pot, k: monodromy(pot, k),
    "green_exact": lambda pot, k: green_exact(pot, 0.4, 0.1, k),
    "s_functions": lambda pot, k: s_functions(pot, 0.3, k),
    "m_functions": lambda pot, k: m_functions(pot, 0.3, k),
    "halfline_state": lambda pot, k: halfline_state(pot, 0.3, k),
}

# top-level evolve calls per call at k = 1.0 (band), 3.0 (gap), 0.8+0.3i:
# the cell window (Y, Z and the band class); the one-period matrix at the
# base point (halfline) or at y (green); and U(x, y) for the Green function
CASES = [
    ("monodromy", 1.0, 1), ("monodromy", 3.0, 1), ("monodromy", 0.8 + 0.3j, 1),
    ("green_exact", 1.0, 3), ("green_exact", 3.0, 3), ("green_exact", 0.8 + 0.3j, 3),
] + [(name, k, n) for name in ("s_functions", "m_functions", "halfline_state")
     for k, n in ((1.0, 2), (3.0, 2), (0.8 + 0.3j, 2))]


@pytest.fixture
def evolve_keys(monkeypatch):
    keys = []
    depth = [0]
    inner = transfer.evolve

    def counted(pot, x, xprime, k, *args, **kwargs):
        if depth[0] == 0:
            keys.append((float(x), float(xprime), complex(k)))
        depth[0] += 1
        try:
            return inner(pot, x, xprime, k, *args, **kwargs)
        finally:
            depth[0] -= 1

    for mod in (transfer, halfline, green):
        monkeypatch.setattr(mod, "evolve", counted)
    return keys


@pytest.mark.parametrize("name,k,calls", CASES)
def test_no_repeated_propagation(pot_square, evolve_keys, name, k, calls):
    CALLS[name](pot_square, k)
    assert len(set(evolve_keys)) == len(evolve_keys), evolve_keys
    assert len(evolve_keys) == calls
