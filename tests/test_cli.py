import os
import subprocess
import sys

import pytest

from bloch_green.cli import EXIT_CONFIG, EXIT_OK, RunConfig, run

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
    ]
    for cfg in bad:
        assert run(cfg) == EXIT_CONFIG


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


def test_cli_argument_parsing(square_file, tmp_path):
    from bloch_green.cli import build_parser
    out = tmp_path / "out.csv"
    args = build_parser().parse_args([
        "--potential", square_file, "--cmd", "bands", "--kmin", "0.1",
        "--kmax", "2.0", "--n", "5", "--out", str(out)])
    cfg = RunConfig(**vars(args))
    assert run(cfg) == EXIT_OK
    assert out.exists()


def test_eps_override(square_file, tmp_path):
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    base = dict(command="bands", potential_path=square_file,
                k_min=0.3, k_max=1.5, k_count=5)
    assert run(RunConfig(**base, eps=1e-5, out=str(out1))) == EXIT_OK
    assert run(RunConfig(**base, out=str(out2))) == EXIT_OK
    # the override is recorded and the branch values stay consistent
    assert "eps=" in out1.read_text().splitlines()[1]
    _, rows1 = read_rows(out1)
    _, rows2 = read_rows(out2)
    for r1, r2 in zip(rows1, rows2):
        assert float(r1[3]) == pytest.approx(float(r2[3]), abs=1e-9)
    assert run(RunConfig(**base, eps=-1.0, out=str(out1))) == EXIT_CONFIG


def test_selftest_passes():
    cfg = RunConfig(command="selftest")
    assert run(cfg) == EXIT_OK
