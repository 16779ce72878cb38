"""Command-line front end producing deterministic CSV artifacts.

Output files carry a versioned header, echo the full configuration, and are
byte-stable across runs of the same configuration: node counts are fixed
and nothing time- or environment-dependent is written.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .green import green_exact, green_series
from .potential import (ParseError, PotentialError, QuadratureError, cell_constants,
                        load_potential_file)
from .transfer import SeriesDivergenceError, SingularIntervalError, monodromy
from .wop import DomainError, ExtrapolationError, GridResolutionError, expansion_coeffs

COMMANDS = ("bands", "green", "expand", "compare", "selftest")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_SELFTEST = 4

_NUMERIC_ERRORS = (QuadratureError, SingularIntervalError, SeriesDivergenceError,
                   DomainError, GridResolutionError, ExtrapolationError,
                   ArithmeticError)


@dataclass
class RunConfig:
    command: str
    potential_path: str | None = None
    k_min: float = 0.01
    k_max: float = 12.0
    k_count: int = 600
    x: float = 0.4
    y: float = 0.1
    order: int = 2
    out: str | None = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command == "selftest":
            return
        if self.potential_path is None:
            raise ValueError("--potential is required")
        if self.out is None:
            raise ValueError("--out is required")
        if self.command in ("bands", "green", "compare"):
            if not self.k_min < self.k_max:
                raise ValueError("need kmin < kmax")
            if self.k_count < 2:
                raise ValueError("need n >= 2")
        if self.order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")


def _fmt(v: float) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize negative zero
    return format(v, ".17g")


def _header(config: RunConfig, columns: str) -> list[str]:
    echo = (f"cmd={config.command} potential={config.potential_path} "
            f"kmin={_fmt(config.k_min)} kmax={_fmt(config.k_max)} n={config.k_count} "
            f"x={_fmt(config.x)} y={_fmt(config.y)} order={config.order}")
    return [f"# bloch-green v{__version__}, schema=1", f"# config: {echo}", columns]


def _k_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(config.k_min, config.k_max, config.k_count)


def _cmd_bands(config, pot, lines):
    for k in _k_grid(config):
        mono = monodromy(pot, float(k))
        lines.append(",".join([_fmt(k), _fmt(mono.Y.real), str(mono.band),
                               _fmt(mono.Z.real), _fmt(mono.Z.imag)]))


def _cmd_green(config, pot, lines):
    for k in _k_grid(config):
        gv = green_exact(pot, config.x, config.y, float(k))
        lines.append(",".join([_fmt(k), _fmt(gv.G_S.real), _fmt(gv.G_S.imag),
                               _fmt(gv.G_F.real), _fmt(gv.G_F.imag),
                               str(gv.band_class)]))


def _cmd_expand(config, pot, lines):
    L = pot.period
    count = config.k_count
    cc = cell_constants(pot)
    for i in range(count):
        x = pot.offset + (i + 0.5) * L / count
        a, s = expansion_coeffs(pot, x, 2, cc=cc)
        gs = green_series(pot, x, config.y, cc=cc, order=2)
        lines.append(",".join([_fmt(x), _fmt(a[0]), _fmt(a[1]), _fmt(a[2]),
                               _fmt(s[0]), _fmt(s[2]), _fmt(gs.g_m1),
                               _fmt(gs.g_0), _fmt(gs.g_1), _fmt(gs.g_2)]))


def _cmd_compare(config, pot, lines):
    gs = green_series(pot, config.x, config.y, order=config.order)
    for k in _k_grid(config):
        exact = green_exact(pot, config.x, config.y, float(k)).G_S
        approx = gs(float(k))
        rel = abs(approx - exact) / abs(exact)
        lines.append(",".join([_fmt(k), _fmt(abs(exact)), _fmt(abs(approx)), _fmt(rel)]))


_COLUMNS = {
    "bands": "k,Y,band_flag,Z_re,Z_im",
    "green": "k,re_G_S,im_G_S,re_G_F,im_G_F,band_flag",
    "expand": "x,a0,a1,a2,s0,s2,g_m1,g0,g1,g2",
    "compare": "k,abs_G_exact,abs_G_series,rel_err",
}

_RUNNERS = {
    "bands": _cmd_bands,
    "green": _cmd_green,
    "expand": _cmd_expand,
    "compare": _cmd_compare,
}


def run(config: RunConfig) -> int:
    try:
        config.validate()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if config.command == "selftest":
        from .selftest import run_selftest
        failures = run_selftest(sys.stdout)
        return EXIT_OK if failures == 0 else EXIT_SELFTEST

    try:
        pot = load_potential_file(config.potential_path)
    except (OSError, ParseError, PotentialError) as exc:
        print(f"config error: cannot load potential: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    lines = _header(config, _COLUMNS[config.command])
    try:
        _RUNNERS[config.command](config, pot, lines)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure in {config.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    try:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"config error: cannot write {config.out!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bloch-green",
        description="Band structure, Green functions and low-energy expansions "
                    "of 1D periodic drift/Schrodinger operators.")
    ap.add_argument("--potential", dest="potential_path", help="potential spec file")
    ap.add_argument("--cmd", dest="command", required=True, choices=COMMANDS)
    ap.add_argument("--kmin", dest="k_min", type=float, default=0.01)
    ap.add_argument("--kmax", dest="k_max", type=float, default=12.0)
    ap.add_argument("--n", dest="k_count", type=int, default=600)
    ap.add_argument("--x", dest="x", type=float, default=0.4)
    ap.add_argument("--y", dest="y", type=float, default=0.1)
    ap.add_argument("--order", dest="order", type=int, default=2)
    ap.add_argument("--out", dest="out", help="output CSV path")
    return ap


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    config = RunConfig(**vars(args))
    sys.exit(run(config))


if __name__ == "__main__":
    main()
