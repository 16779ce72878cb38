"""The Magnus kernel that propagates cosine and table segments, checked
against DOP853 integration (`transfer._ode_piece`, the test reference)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from bloch_green import transfer
from bloch_green.cli import EXIT_OK, RunConfig, run
from bloch_green.potential import load_potential
from bloch_green.transfer import _jump_matrix, _magnus_product, _ode_piece, evolve
from test_acceptance import POT_POOL_SPECS

KS = (0.05, 1.0, 3.0, 6.0, 12.0, 0.8 + 0.3j, 2j)
# the last cell is short and weak: there the drift's rate of change, not its
# size or k, sets the step length
SMOOTH_SPECS = ["period=2; cosine amp=0.3 len=2", "period=1; cosine amp=3 len=1",
                "period=0.05; cosine amp=0.05 len=0.05"]


def table_cell(tmp_path):
    # the bump of test_transfer.test_table_potential_propagation
    xs = np.linspace(0.0, 1.0, 41)
    vs = 0.4 * np.sin(np.pi * xs) ** 2
    path = tmp_path / "bump.csv"
    np.savetxt(path, np.column_stack([xs, vs]), delimiter=",")
    return load_potential(f"period=1; table file={path} len=1")


def reference_span(pot, b, a, k):
    """U(b, a; k) by DOP853 at rtol 1e-13 on every piece between segment
    boundaries and table knots, with the exact jump factors."""
    jumps = dict(pot.boundaries_in(a, b))
    bps = pot.breakpoints(a, b)
    U = np.eye(2, dtype=complex)
    for lo, hi in zip(bps[:-1], bps[1:]):
        U = _ode_piece(pot, lo, hi, k, U, 1e-13)[:, :, -1]
        if jumps.get(hi, 0.0) != 0.0:
            U = _jump_matrix(jumps[hi]) @ U
    return U


@pytest.mark.parametrize("cell", SMOOTH_SPECS + ["table"] + POT_POOL_SPECS)
def test_kernel_matches_dop853(cell, tmp_path):
    pot = table_cell(tmp_path) if cell == "table" else load_potential(cell)
    L = pot.period
    # the one-period cell window, and a span over several segments and
    # one cell boundary
    spans = [(pot.offset + L, pot.offset), (1.9 * L, 0.13 * L)]
    for k in KS:
        for b, a in spans:
            want = reference_span(pot, b, a, complex(k))
            got = evolve(pot, b, a, k).matrix
            err = np.abs(got - want).max() / max(1.0, np.abs(want).max())
            assert err <= 1e-12, (cell, k, a, b, err)


def test_kernel_converges_at_sixth_order():
    pot = load_potential("period=1; cosine amp=3 len=1")
    seg, start = pot.segment_at(0.5)
    k = 3.0
    want = _ode_piece(pot, 0.0, 1.0, k, np.eye(2), 1e-13)[:, :, -1]
    steps = (16, 32, 64, 128)
    errs = [np.abs(_magnus_product(seg, start, np.linspace(0.0, 1.0, n + 1), k) - want).max()
            for n in steps]
    slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 5.5 <= slope <= 6.5, (errs, slope)


def test_cosine_cli_makes_no_ode_solves(monkeypatch, tmp_path):
    calls = []
    inner = transfer.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(transfer, "solve_ivp", counted)
    spec = tmp_path / "cosine.pot"
    spec.write_text("period=2\nsegment cosine amp=0.3 len=2\n")
    for command in ("bands", "green"):
        # band points: the band limit rule's shifted evaluations run too
        cfg = RunConfig(command=command, potential_path=str(spec), k_min=0.5,
                        k_max=1.6, k_count=6, out=str(tmp_path / f"{command}.csv"))
        assert run(cfg) == EXIT_OK
    assert calls == []
    # the counter does see the reference route
    _ode_piece(load_potential("period=2; cosine amp=0.3 len=2"), 0.0, 1.0, 1.0,
               np.eye(2), 1e-10)
    assert len(calls) == 1


def test_chunked_product_matches_single_pass(monkeypatch):
    # long pieces are multiplied in chunks of steps; the split must not
    # change the product beyond rounding
    pot = load_potential("period=2; cosine amp=0.3 len=2")
    for k in (1.0, 0.8 + 0.3j):
        whole = evolve(pot, 1.9, 0.1, k).matrix
        monkeypatch.setattr(transfer, "_CHUNK", 7)
        chunked = evolve(pot, 1.9, 0.1, k).matrix
        monkeypatch.undo()
        assert np.abs(chunked - whole).max() < 1e-13


def test_package_import_leaves_scipy_integrate_unloaded():
    # the DOP853 reference imports scipy.integrate on its first call; the
    # package itself must not pay that import
    code = "import sys, bloch_green.cli; print('scipy.integrate' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
