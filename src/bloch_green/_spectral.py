"""Chebyshev-Lobatto machinery shared by the quadrature and operator grids.

All piecewise-smooth functions in this package live on panel meshes whose
breakpoints are aligned with the potential's segment boundaries, with
Chebyshev-Lobatto nodes inside each panel.  Cumulative integrals,
derivatives and point evaluation are then spectrally accurate, which is
what keeps the operator chains and the nested bracket integrals near
machine precision.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "lobatto_nodes",
    "vals_to_coeffs",
    "coeffs_to_vals",
    "cheb_definite_integral_weights",
    "cumulative_integral",
    "PanelMesh",
    "PanelFunction",
]


def lobatto_nodes(order: int) -> np.ndarray:
    """Chebyshev-Lobatto points of the given order, ascending on [-1, 1]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return -np.cos(np.pi * np.arange(order + 1) / order)


# values<->coefficients and cumulative-integral matrices, cached per order

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
def _c2v_matrix(n: int) -> np.ndarray:
    return np.cos(np.outer(np.arccos(lobatto_nodes(n)), np.arange(n + 1)))


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


def vals_to_coeffs(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through Lobatto-node values."""
    values = np.asarray(values)
    n = values.shape[axis] - 1
    return np.moveaxis(np.tensordot(_v2c_matrix(n), np.moveaxis(values, axis, 0), 1), 0, axis)


def coeffs_to_vals(coeffs: np.ndarray, axis: int = 0) -> np.ndarray:
    """Values at ascending Lobatto nodes from Chebyshev coefficients."""
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[axis] - 1
    return np.moveaxis(np.tensordot(_c2v_matrix(n), np.moveaxis(coeffs, axis, 0), 1), 0, axis)


def cheb_definite_integral_weights(n: int) -> np.ndarray:
    """Weights w with integral_{-1}^{1} sum c_k T_k = w . c."""
    k = np.arange(n + 1)
    w = np.zeros(n + 1)
    even = k % 2 == 0
    w[even] = 2.0 / (1.0 - k[even] ** 2)
    return w


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

    @property
    def a(self) -> float:
        return float(self.breaks[0])

    def gauss_rule(self, order: int):
        """(nodes, weights) of the Gauss-Legendre rule of the given order on
        every panel, panels in order."""
        t, w = np.polynomial.legendre.leggauss(order)
        return ((self.mid[:, None] + self.half[:, None] * t).ravel(),
                (self.half[:, None] * w).ravel())

    def panel_of(self, x: np.ndarray) -> np.ndarray:
        """Panel index per point; interior breakpoints belong to the right panel."""
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        return np.clip(idx, 0, self.npanels - 1)


class PanelFunction:
    """Function values on a PanelMesh; supports spectral calculus per panel.

    Values may be real or complex.  Discontinuities are representable at
    panel boundaries only (each panel owns both its endpoints).
    """

    def __init__(self, mesh: PanelMesh, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != mesh.nodes.shape:
            raise ValueError("values shape does not match mesh")
        self.mesh = mesh
        self.values = values
        self._coeffs = None

    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = vals_to_coeffs(self.values, axis=1)
        return self._coeffs

    def antiderivative(self) -> "PanelFunction":
        """Cumulative integral from the left end of the mesh, continuous across panels."""
        return PanelFunction(self.mesh, cumulative_integral(self.values, self.mesh.half))

    def integral(self):
        w = cheb_definite_integral_weights(self.mesh.order)
        return np.sum(self.coeffs() @ w * self.mesh.half)

    def end_value(self):
        return self.values[-1, -1]

    def __mul__(self, values: np.ndarray) -> "PanelFunction":
        """Pointwise product with values given on the same nodes."""
        return PanelFunction(self.mesh, self.values * values)
