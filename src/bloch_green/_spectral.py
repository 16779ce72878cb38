"""Chebyshev-Lobatto machinery of the bracket quadrature.

The nested bracket integrals live on panel meshes whose breakpoints are
aligned with the potential's segment boundaries, with Chebyshev-Lobatto
nodes inside each panel.  One cumulative antiderivative per letter is then
spectrally accurate, which keeps the brackets near machine precision.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = ["lobatto_nodes", "cumulative_integral", "PanelMesh"]


def lobatto_nodes(order: int) -> np.ndarray:
    """Chebyshev-Lobatto points of the given order, ascending on [-1, 1]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return -np.cos(np.pi * np.arange(order + 1) / order)


# values->coefficients and cumulative-integral matrices, cached per order

@functools.cache
def _v2c_matrix(n: int) -> np.ndarray:
    j = np.arange(n + 1)
    # values are at ascending nodes -cos(pi*j/n); flip to classic order
    cosmat = np.cos(np.pi * np.outer(j, n - j) / n)
    w = np.full(n + 1, 2.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    mat = cosmat * w
    mat[0] *= 0.5
    mat[-1] *= 0.5
    return mat


@functools.cache
def _cumint_matrix(n: int) -> np.ndarray:
    """Lobatto-node values on [-1, 1] -> their interpolant's integral from
    -1 at the same nodes."""
    ci = _cheb.chebint(np.eye(n + 1), lbnd=-1)  # column j integrates T_j
    mat = _cheb.chebval(lobatto_nodes(n), ci).T @ _v2c_matrix(n)
    mat[0] = 0.0  # the first node is the lower limit itself
    return mat


def cumulative_integral(values: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Cumulative integral from the left end of a panel mesh, continuous
    across panels, of values shaped (npanels, order+1, ...) on panels of
    half-widths `half`."""
    values = np.asarray(values)
    vals = np.moveaxis(np.tensordot(values, _cumint_matrix(values.shape[1] - 1),
                                    axes=([1], [1])), -1, 1)
    vals = vals * np.reshape(half, (-1,) + (1,) * (values.ndim - 1))
    ends = vals[:, -1]
    offsets = np.concatenate([np.zeros_like(ends[:1]), np.cumsum(ends, axis=0)[:-1]])
    return vals + offsets[:, None]


class PanelMesh:
    """A sorted set of panels [breaks[i], breaks[i+1]] with per-panel Lobatto nodes."""

    def __init__(self, breaks, order: int):
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2:
            raise ValueError("need at least one panel")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breaks = breaks
        self.order = order
        self.npanels = breaks.size - 1
        self.half = 0.5 * np.diff(breaks)
        self.mid = 0.5 * (breaks[:-1] + breaks[1:])
        ref = lobatto_nodes(order)
        # nodes[i, j]: physical node j of panel i
        self.nodes = self.mid[:, None] + self.half[:, None] * ref[None, :]

