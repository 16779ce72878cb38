import json
import math
import os
import subprocess
import sys

import pytest

from bloch_green.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, RunConfig, run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SQUARE = "period=1\nsegment const V=0 len=0.6\nsegment const V=1 len=0.4\n"
FREE = "period=1\nsegment const V=0 len=1\n"


@pytest.fixture()
def square_file(tmp_path):
    p = tmp_path / "square.pot"
    p.write_text(SQUARE)
    return str(p)


@pytest.fixture()
def free_file(tmp_path):
    p = tmp_path / "free.pot"
    p.write_text(FREE)
    return str(p)


def read_rows(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows


def test_bands_csv(square_file, tmp_path):
    out = tmp_path / "bands.csv"
    cfg = RunConfig(command="bands", potential_path=square_file,
                    k_min=0.02, k_max=12.0, k_count=60, out=str(out))
    assert run(cfg) == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["k", "Y", "band_flag", "Z_re", "Z_im"]
    assert len(rows) == 60
    flags = {r[2] for r in rows}
    assert "band" in flags and "gap" in flags
    first = rows[0]
    assert abs(float(first[1])) <= 1.0 + 1e-9  # low k is in the lowest band
    text = out.read_text()
    assert text.startswith("# bloch-green v0.1.0, schema=1\n")
    assert "# config:" in text


def test_green_csv_and_gap_reality(square_file, tmp_path):
    out = tmp_path / "green.csv"
    cfg = RunConfig(command="green", potential_path=square_file,
                    k_min=0.3, k_max=3.2, k_count=24, out=str(out))
    assert run(cfg) == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["k", "re_G_S", "im_G_S", "re_G_F", "im_G_F", "band_flag"]
    for r in rows:
        if r[5] == "gap":
            assert abs(float(r[2])) < 1e-9
        # x and y sit in the zero segment, so both weights coincide
        assert float(r[1]) == pytest.approx(float(r[3]), abs=1e-15)


def test_expand_csv(square_file, tmp_path):
    out = tmp_path / "expand.csv"
    cfg = RunConfig(command="expand", potential_path=square_file,
                    k_count=6, y=0.1, out=str(out))
    assert run(cfg) == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["x", "a0", "a1", "a2", "s0", "s2", "g_m1", "g0", "g1", "g2"]
    assert len(rows) == 6
    for r in rows:
        assert float(r[4]) == pytest.approx(2 * float(r[1]), abs=1e-12)


def test_compare_free_small_k(free_file, tmp_path):
    # order-k^2 truncation of the free kernel: residual is ~ k^4 d^4/24
    # relative, far below 1e-10 for d = 0.05 and k <= 0.1
    out = tmp_path / "cmp.csv"
    cfg = RunConfig(command="compare", potential_path=free_file,
                    k_min=0.005, k_max=0.1, k_count=12, x=0.15, y=0.10,
                    out=str(out))
    assert run(cfg) == EXIT_OK
    _, rows = read_rows(out)
    for r in rows:
        assert float(r[3]) <= 1e-10, r


def test_green_csv_smooth_potential(tmp_path):
    spec = tmp_path / "cos.pot"
    spec.write_text("period=2\nsegment cosine amp=0.3 len=2\n")
    out = tmp_path / "green.csv"
    cfg = RunConfig(command="green", potential_path=str(spec),
                    k_min=0.3, k_max=1.0, k_count=4, x=0.7, y=0.2, out=str(out))
    assert run(cfg) == EXIT_OK
    _, rows = read_rows(out)
    # Fokker-Planck weight differs from unity when V(x) != V(y)
    import math
    w = math.exp(-0.5 * (0.3 * math.cos(math.pi * 0.7) - 0.3 * math.cos(math.pi * 0.2)))
    for r in rows:
        assert float(r[3]) == pytest.approx(w * float(r[1]), rel=1e-12)


def test_determinism(square_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = RunConfig(command="compare", potential_path=square_file,
                        k_min=0.05, k_max=1.5, k_count=12, out=str(out))
        assert run(cfg) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_config_errors(square_file, tmp_path):
    bad = [
        RunConfig(command="bands", potential_path=None, out="x.csv"),
        RunConfig(command="bands", potential_path=square_file, out=None),
        RunConfig(command="bands", potential_path=square_file, out="x.csv",
                  k_min=2.0, k_max=1.0),
        RunConfig(command="bands", potential_path=square_file, out="x.csv",
                  k_count=1),
        RunConfig(command="compare", potential_path=square_file, out="x.csv",
                  order=5),
        RunConfig(command="nope", potential_path=square_file, out="x.csv"),
        # G and the series are singular at k = 0: no grid may hold it
        RunConfig(command="green", potential_path=square_file, out="x.csv", k_min=0.0),
        RunConfig(command="green", potential_path=square_file, out="x.csv",
                  k_min=-1.0, k_max=1.0, k_count=3),
        RunConfig(command="compare", potential_path=square_file, out="x.csv", k_min=0.0),
        RunConfig(command="compare", potential_path=square_file, out="x.csv",
                  k_min=-1.0, k_max=1.0, k_count=3),
        RunConfig(command="expand", potential_path=square_file, out="x.csv", k_count=0),
        RunConfig(command="expand", potential_path=square_file, out="x.csv", k_count=-3),
    ]
    for cfg in bad:
        assert run(cfg) == EXIT_CONFIG, cfg


def test_bands_accepts_k_zero(square_file, tmp_path):
    out = tmp_path / "bands.csv"
    cfg = RunConfig(command="bands", potential_path=square_file, out=str(out),
                    k_min=-1.0, k_max=1.0, k_count=3)
    assert run(cfg) == EXIT_OK
    assert [r[0] for r in read_rows(out)[1]] == ["-1", "0", "1"]


def test_unreadable_and_invalid_potential(tmp_path):
    cfg = RunConfig(command="bands", potential_path=str(tmp_path / "missing.pot"),
                    out=str(tmp_path / "o.csv"))
    assert run(cfg) == EXIT_CONFIG
    bad = tmp_path / "bad.pot"
    bad.write_text("period=1\nsegment const V=0 len=0.4\n")
    cfg = RunConfig(command="bands", potential_path=str(bad),
                    out=str(tmp_path / "o.csv"))
    assert run(cfg) == EXIT_CONFIG


@pytest.mark.parametrize("segment", ["cosine amp=0.3 phase=nan len=1",
                                     "const V=nan len=1", "const V=inf len=1",
                                     "cosine amp=inf len=1"])
def test_non_finite_potential_exits_with_config_error(tmp_path, segment):
    # a NaN phase used to hang the adaptive integrator: the process must
    # end, with the configuration exit code
    pot = tmp_path / "bad.pot"
    pot.write_text(f"period=1\nsegment {segment}\n")
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bloch_green.cli", "--cmd", "green", "--potential",
         str(pot), "--n", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "non-finite" in proc.stderr
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["bands", "green"])
def test_overflowing_propagation_exits_with_numeric_error(tmp_path, command):
    # a jump of 800 overflows the one-period matrix: the run must fail
    # loudly instead of writing NaN rows
    pot = tmp_path / "jump.pot"
    pot.write_text("period=1\nsegment const V=0 len=0.5\nsegment const V=800 len=0.5\n")
    out = tmp_path / "o.csv"
    cfg = RunConfig(command=command, potential_path=str(pot), k_count=5, out=str(out))
    assert run(cfg) == EXIT_NUMERIC
    assert not out.exists()


def test_cli_argument_parsing(square_file, tmp_path):
    from bloch_green.cli import build_parser
    out = tmp_path / "out.csv"
    args = build_parser().parse_args([
        "--potential", square_file, "--cmd", "bands", "--kmin", "0.1",
        "--kmax", "2.0", "--n", "5", "--out", str(out)])
    cfg = RunConfig(**vars(args))
    assert run(cfg) == EXIT_OK
    assert out.exists()


def test_parser_defaults_are_the_run_config_defaults():
    from bloch_green.cli import build_parser
    args = build_parser().parse_args(["--cmd", "expand"])
    assert RunConfig(**vars(args)) == RunConfig(command="expand")


def test_selftest_passes():
    cfg = RunConfig(command="selftest")
    assert run(cfg) == EXIT_OK


def _strong_cell_runs(tmp_path, level):
    """bands and green rows of the cell with a jump of `level`."""
    pot = tmp_path / f"strong{level}.pot"
    pot.write_text(f"period=1; const V=0 len=0.5; const V={level} len=0.5\n")
    rows = {}
    for command in ("bands", "green"):
        out = tmp_path / f"{command}{level}.csv"
        cfg = RunConfig(command=command, potential_path=str(pot), k_count=40,
                        x=0.4, y=0.1, out=str(out))
        assert run(cfg) == EXIT_OK, (level, command)
        rows[command] = read_rows(out)[1]
    return rows


def test_strong_cells_stay_finite(tmp_path):
    # |Y| passes 1e154 from a jump of about 400: the band class and the gap
    # Z must not square it, and the Green function saturates, so it matches
    # the V = 300 cell
    ref = _strong_cell_runs(tmp_path, 300)
    for level in (400, 600, 700):
        rows = _strong_cell_runs(tmp_path, level)
        for command, flag_col in (("bands", 2), ("green", 5)):
            assert [r[flag_col] for r in rows[command]] == [r[flag_col] for r in ref[command]]
            for r in rows[command]:
                assert all(math.isfinite(float(v)) for i, v in enumerate(r) if i != flag_col)
        for r, r0 in zip(rows["green"], ref["green"]):
            g = complex(float(r[1]), float(r[2]))
            g0 = complex(float(r0[1]), float(r0[2]))
            assert abs(g - g0) <= 1e-10 * abs(g0), (level, r[0])


def test_expand_on_strong_cell_stays_finite(tmp_path):
    # the raw bracket over [y, x] passes 1e102 on this cell; the series is
    # written through q_1 = exp(-V0) * bracket, which stays of order one
    pot = tmp_path / "strong300.pot"
    pot.write_text("period=1; const V=0 len=0.5; const V=300 len=0.5\n")
    out = tmp_path / "expand300.csv"
    cfg = RunConfig(command="expand", potential_path=str(pot), k_count=8, y=0.1,
                    out=str(out))
    assert run(cfg) == EXIT_OK
    rows = read_rows(out)[1]
    assert len(rows) == 8
    for r in rows:
        assert all(math.isfinite(float(v)) for v in r), r


def test_expand_overflow_names_the_quantity(tmp_path, capsys):
    # at V = 700 the cell scale L0 ~ 5e151, so L0**4 leaves the float range
    pot = tmp_path / "strong700.pot"
    pot.write_text("period=1; const V=0 len=0.5; const V=700 len=0.5\n")
    out = tmp_path / "expand700.csv"
    cfg = RunConfig(command="expand", potential_path=str(pot), k_count=4, out=str(out))
    assert run(cfg) == EXIT_NUMERIC
    assert not out.exists()
    err = capsys.readouterr().err
    assert "numeric failure in expand: OverflowError: L0**4" in err, err
    assert "L0 = 5.03545e+151" in err, err


def test_expand_on_steep_cosine_converges_or_fails_loud(tmp_path):
    # amplitudes 3 and 8 converge on panels set by the range of V; at
    # amplitude 800 e^V overflows, and the run says so
    for amp, code in ((3, EXIT_OK), (8, EXIT_OK), (800, EXIT_NUMERIC)):
        pot = tmp_path / f"cos{amp}.pot"
        pot.write_text(f"period=1; cosine amp={amp} len=1\n")
        out = tmp_path / f"expand{amp}.csv"
        cfg = RunConfig(command="expand", potential_path=str(pot), k_count=8,
                        out=str(out))
        assert run(cfg) == code, amp
        assert out.exists() == (code == EXIT_OK)


@pytest.mark.parametrize("command", ["bands", "green"])
def test_numeric_failure_is_one_stderr_line(tmp_path, command):
    pot = tmp_path / "jump.pot"
    pot.write_text("period=1\nsegment const V=0 len=0.5\nsegment const V=800 len=0.5\n")
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bloch_green.cli", "--cmd", command, "--potential",
         str(pot), "--n", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == EXIT_NUMERIC
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"numeric failure in {command}: OverflowError: ")
    assert not out.exists()


def test_row_formatter_rejects_non_finite():
    from bloch_green.cli import _fmt
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(ArithmeticError):
            _fmt(v)


def test_non_finite_points_are_config_errors(square_file, tmp_path):
    for field in ("k_min", "k_max", "x", "y"):
        cfg = RunConfig(command="green", potential_path=square_file,
                        out=str(tmp_path / "o.csv"), **{field: math.nan})
        assert run(cfg) == EXIT_CONFIG, field
    assert not (tmp_path / "o.csv").exists()


def test_compare_order_reaches_series_max(square_file, tmp_path):
    errs = {}
    for order in (2, 3):
        out = tmp_path / f"compare{order}.csv"
        cfg = RunConfig(command="compare", potential_path=square_file, k_min=0.05,
                        k_max=0.5, k_count=6, order=order, out=str(out))
        assert run(cfg) == EXIT_OK
        errs[order] = [float(r[3]) for r in read_rows(out)[1]]
    # the (ik)^3 term shrinks the error at every small k
    assert all(e3 < e2 for e2, e3 in zip(errs[2], errs[3]))
    cfg = RunConfig(command="compare", potential_path=square_file,
                    out=str(tmp_path / "o.csv"), order=4)
    assert run(cfg) == EXIT_CONFIG


def write_mixed_cell(tmp_path):
    """The field-mixed cell of test_base_point as a potential file and its
    table CSV, floats written exactly."""
    from test_base_point import mixed_cell

    pot = mixed_cell()
    const, cosine, linear, table = pot.segments
    (tmp_path / "table.csv").write_text(
        "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(table.xs, table.vs)))
    path = tmp_path / "mixed.pot"
    path.write_text(
        f"period={pot.period!r}\n"
        f"const V={const.level!r} len={const.length!r}\n"
        f"cosine amp={cosine.amp!r} phase={cosine.phase!r} len={cosine.length!r}\n"
        f"linear V0={linear.v_start!r} V1={linear.v_end!r} len={linear.length!r}\n"
        f"table file=table.csv len={table.length!r}\n")
    return path


# a meta-path finder that fails every scipy import: the run has only numpy
_BLOCK_SCIPY = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

_RUN_ALL = """
import json, sys
from bloch_green.cli import RunConfig, run

pot, outdir = sys.argv[1:]
codes = {"selftest": run(RunConfig(command="selftest"))}
for command, n in (("bands", 40), ("green", 40), ("expand", 8)):
    codes[command] = run(RunConfig(command=command, potential_path=pot, k_count=n,
                                   out=f"{outdir}/{command}.csv"))
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: selftest and every command on a
    # table cell run with scipy imports blocked, and write the same bytes
    pot = write_mixed_cell(tmp_path)
    runs = {}
    for name, prelude in (("blocked", _BLOCK_SCIPY), ("open", "")):
        outdir = tmp_path / name
        outdir.mkdir()
        proc = subprocess.run([sys.executable, "-c", prelude + _RUN_ALL, str(pot), str(outdir)],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        *selftest, last = proc.stdout.splitlines()
        result = json.loads(last)
        assert result["codes"] == {"selftest": EXIT_OK, "bands": EXIT_OK,
                                   "green": EXIT_OK, "expand": EXIT_OK}, proc.stderr
        assert sum(line.startswith("PASS") for line in selftest) == 12
        runs[name] = (selftest, result["scipy"],
                      {c: (outdir / f"{c}.csv").read_bytes() for c in ("bands", "green", "expand")})
    assert runs["blocked"][1] == runs["open"][1] == []
    assert runs["blocked"][0] == runs["open"][0]
    assert runs["blocked"][2] == runs["open"][2]
