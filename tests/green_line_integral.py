"""Cross-check route for the exact Green function: the textbook line-integral
assembly, with the cell-scan propagators it needs.

G = exp(ik(x - y) - ik * integral of S along [y, x]) over the square-root
endpoint factor.  The package computes G by propagating the decaying
solution instead; this route shares only the elementary propagator
factors with it and is used by the tests to check it.
"""

import cmath

import numpy as np

from bloch_green.transfer import DEFAULT_RTOL, _jump_matrix, _ode_piece


def _piece_scan(pot, a: float, b: float, k: complex, U0: np.ndarray,
                targets: np.ndarray, rtol: float):
    """Propagate U0 from a to b inside one segment, recording U at each
    target point (sorted, strictly inside (a, b)).  Returns (records, U_b)."""
    seg, _ = pot.segment_at(0.5 * (a + b))
    if seg.kind in ("const", "linear"):
        f = 0.0 if seg.kind == "const" else -0.5 * float(seg.slope(0.0))
        d = np.concatenate([targets, [b]]) - a
        mu = cmath.sqrt(f * f - k * k)
        if abs(mu) * (b - a) < 1e-8:
            ch = 1.0 + (f * f - k * k) * d * d / 2.0
            shm = d * (1.0 + (f * f - k * k) * d * d / 6.0)
        else:
            ch = np.cosh(mu * d)
            shm = np.sinh(mu * d) / mu
        ik = 1j * k
        # rows of exp(d*A) @ U0 for each distance
        out = np.empty((d.size, 2, 2), dtype=complex)
        out[:, 0, 0] = (ch - ik * shm) * U0[0, 0] + f * shm * U0[1, 0]
        out[:, 0, 1] = (ch - ik * shm) * U0[0, 1] + f * shm * U0[1, 1]
        out[:, 1, 0] = f * shm * U0[0, 0] + (ch + ik * shm) * U0[1, 0]
        out[:, 1, 1] = f * shm * U0[0, 1] + (ch + ik * shm) * U0[1, 1]
        return out[:-1], out[-1]
    t_eval = np.concatenate([targets, [b]])
    y = _ode_piece(pot, a, b, k, U0, rtol, t_eval=t_eval)
    y = np.moveaxis(y, 2, 0)
    return y[:-1], y[-1]


def propagator_scan(pot, k: complex, zs, rtol: float = DEFAULT_RTOL):
    """Propagators from the bottom of the cell to each requested point.

    zs must be sorted points inside (lo, x0] with lo = offset and
    x0 = offset + period.  Returns (E, M) where E[i] = U(zs[i], lo; k) and
    M = U(x0, lo; k).  One-period matrices anywhere in the cell follow by
    similarity: U(z, z - L) = E(z) @ M @ E(z)^{-1}.
    """
    k = complex(k)
    lo = pot.offset  # x0 - L can round below the offset and count its jump twice
    x0 = lo + pot.period
    zs = np.asarray(zs, dtype=float)
    if zs.size and (np.any(np.diff(zs) < 0) or zs[0] <= lo or zs[-1] > x0):
        raise ValueError("scan points must be sorted inside (offset, offset + L]")

    stops = pot.boundaries_in(lo, x0)
    if not stops or stops[-1][0] < x0:
        stops = stops + [(x0, 0.0)]

    E = np.empty((zs.size, 2, 2), dtype=complex)
    U = np.eye(2, dtype=complex)
    cur = lo
    zi = 0
    for pos, delta in stops:
        hi = int(np.searchsorted(zs, pos, side="left"))
        if pos > cur:
            records, U = _piece_scan(pot, cur, pos, k, U, zs[zi:hi], rtol)
            E[zi:hi] = records
            zi = hi
            cur = pos
        if delta != 0.0:
            U = _jump_matrix(delta) @ U
        while zi < zs.size and zs[zi] == pos:
            E[zi] = U
            zi += 1
    return E, U


def _reduce_to_cell(pot, z: np.ndarray) -> np.ndarray:
    """Map points into the window (offset, offset + L]."""
    L = pot.period
    r = np.mod(z - pot.offset, L)
    r = np.where(r == 0.0, L, r)
    return pot.offset + r


def _green_by_line_integral(pot, x: float, y: float, kc: complex, Z: complex,
                            quad_order: int, rtol: float) -> complex:
    """Cross-check route: exp(ik(x-y) - ik * integral of S) over the
    square-root endpoint factor, with per-factor principal roots.

    The principal roots agree with the true branch away from gaps and
    edges; the primary route does not have this caveat.
    """
    if x > y:
        nodes, weights = pot.mesh(y, x, quad_order, pot.period / 2.0).gauss_rule(quad_order)
        pts = np.concatenate([nodes, [x, y]])
    else:
        weights = np.zeros(0)
        nodes = np.zeros(0)
        pts = np.array([x, y])
    red = _reduce_to_cell(pot, pts)
    uniq, inverse = np.unique(red, return_inverse=True)
    E, M = propagator_scan(pot, kc, uniq, rtol)
    Einv = np.empty_like(E)
    Einv[:, 0, 0] = E[:, 1, 1]
    Einv[:, 1, 1] = E[:, 0, 0]
    Einv[:, 0, 1] = -E[:, 0, 1]
    Einv[:, 1, 0] = -E[:, 1, 0]
    U = E @ M @ Einv
    da = U[:, 0, 0] - U[:, 1, 1]
    svals = (1.0 + 2j * Z / (da + U[:, 1, 0] - U[:, 0, 1]))[inverse]
    line = np.dot(weights, svals[: nodes.size]) if weights.size else 0.0
    phase = cmath.exp(1j * kc * (x - y) - 1j * kc * line)
    root = cmath.sqrt(1.0 - svals[-2]) * cmath.sqrt(1.0 - svals[-1])
    return phase / (2j * kc * root)
