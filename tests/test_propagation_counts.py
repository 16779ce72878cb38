"""Each public call propagates a given (x, x', k) at most once.

Every propagation, a span matrix U(b, a) or a one-period matrix
U(x, x - L), goes through `transfer._span_matrix`; that binding is
wrapped, so the count includes the matrices made inside `evolve` and its
private helpers, not only top-level `evolve` calls.
"""

import pytest

from bloch_green import transfer
from bloch_green.green import green_exact
from bloch_green.halfline import halfline_state, m_functions, s_functions
from bloch_green.transfer import monodromy

CALLS = {
    "monodromy": lambda pot, k: monodromy(pot, k),
    "green_exact": lambda pot, k: green_exact(pot, 0.4, 0.1, k),
    "green_exact_far": lambda pot, k: green_exact(pot, 2.5, 0.1, k),
    "s_functions": lambda pot, k: s_functions(pot, 0.3, k),
    "m_functions": lambda pot, k: m_functions(pot, 0.3, k),
    "halfline_state": lambda pot, k: halfline_state(pot, 0.3, k),
}

# propagations per call at k = 1.0 (band), 3.0 (gap), 0.8+0.3i: the cell
# window (monodromy); the one-period matrix at the base point, which gives
# Y, Z and the band class (halfline) or also S_l(y) and S(y) (green); and
# U(x, y) for the Green function, whose power path over x - y >= 2L reuses
# the matrix at y and adds only the remainder span
CASES = [
    ("monodromy", 1.0, 1), ("monodromy", 3.0, 1), ("monodromy", 0.8 + 0.3j, 1),
    ("green_exact", 1.0, 2), ("green_exact", 3.0, 2), ("green_exact", 0.8 + 0.3j, 2),
    ("green_exact_far", 1.0, 2), ("green_exact_far", 3.0, 2),
    ("green_exact_far", 0.8 + 0.3j, 2),
] + [(name, k, n) for name in ("s_functions", "m_functions", "halfline_state")
     for k, n in ((1.0, 1), (3.0, 1), (0.8 + 0.3j, 1))]

# ceiling per call: the count when Y, Z and the band class came from a
# propagation of their own (one more than above for green_exact and the
# halfline calls); a call that repeats a span or propagates more fails here
# as well as in test_propagation_count
BUDGETS = [
    ("monodromy", 1.0, 1), ("monodromy", 3.0, 1), ("monodromy", 0.8 + 0.3j, 1),
    ("green_exact", 1.0, 3), ("green_exact", 3.0, 3), ("green_exact", 0.8 + 0.3j, 3),
] + [(name, k, n) for name in ("s_functions", "m_functions", "halfline_state")
     for k, n in ((1.0, 2), (3.0, 2), (0.8 + 0.3j, 2))]


@pytest.fixture
def span_keys(monkeypatch):
    keys = []
    inner = transfer._span_matrix

    def counted(pot, b, a, k, *args, **kwargs):
        keys.append((float(b), float(a), complex(k)))
        return inner(pot, b, a, k, *args, **kwargs)

    monkeypatch.setattr(transfer, "_span_matrix", counted)
    return keys


@pytest.mark.parametrize("name,k,budget", BUDGETS)
def test_no_repeated_propagation(pot_square, span_keys, name, k, budget):
    CALLS[name](pot_square, k)
    assert len(set(span_keys)) == len(span_keys), span_keys
    assert len(span_keys) <= budget


@pytest.mark.parametrize("name,k,calls", CASES)
def test_propagation_count(pot_square, span_keys, name, k, calls):
    CALLS[name](pot_square, k)
    assert len(set(span_keys)) == len(span_keys), span_keys
    assert len(span_keys) == calls
