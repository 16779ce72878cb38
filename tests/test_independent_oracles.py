"""Cross-validation of the smooth-potential paths against direct
integration of the second-order equation in (psi, psi') variables.

The amplitude-pair formulation used by the package and the plain
(psi, psi') formulation are related by a periodic change of variables, so
one-period traces must coincide, and the Green function built from
directly-integrated decaying solutions must match the package value.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bloch_green.green import green_exact
from bloch_green.transfer import monodromy


def schrodinger_propagate(pot, k, x_from, x_to, y0, rtol=1e-11):
    """Integrate psi'' = (V_S - k^2) psi; y = (psi, psi')."""

    def rhs(t, y):
        return (y[1], (pot.schrodinger_potential(t) - k * k) * y[0])

    sol = solve_ivp(rhs, (x_from, x_to), np.asarray(y0, dtype=complex),
                    method="DOP853", rtol=rtol, atol=1e-13)
    assert sol.success
    return sol.y[:, -1]


def test_discriminant_against_second_order_form(pot_cosine):
    L = pot_cosine.period
    for k in (0.4, 0.9, 1.6, 0.7 + 0.2j):
        c1 = schrodinger_propagate(pot_cosine, k, 0.0, L, (1.0, 0.0))
        c2 = schrodinger_propagate(pot_cosine, k, 0.0, L, (0.0, 1.0))
        y_direct = 0.5 * (c1[0] + c2[1])
        y_pkg = monodromy(pot_cosine, k).Y
        assert y_pkg == pytest.approx(y_direct, abs=1e-9), k


def test_green_against_shooting_construction(pot_cosine):
    # build the decaying solutions by integrating inward from deep inside
    # the evanescent region on each side; backward integration makes the
    # wanted solution dominant, so generic far data converges onto it
    x, y = 0.7, 0.2
    far = 15 * pot_cosine.period  # transient decays like |lambda|^{-2n}
    for k in (0.5 + 0.5j, 0.9 + 0.3j):
        chi_p_x = schrodinger_propagate(pot_cosine, k, x + far, x, (1.0, 0.0))
        chi_p_y = schrodinger_propagate(pot_cosine, k, x + far, y, (1.0, 0.0))
        chi_m_y = schrodinger_propagate(pot_cosine, k, y - far, y, (1.0, 0.0))
        wronskian = chi_p_y[1] * chi_m_y[0] - chi_p_y[0] * chi_m_y[1]
        g_direct = chi_p_x[0] * chi_m_y[0] / wronskian
        g_pkg = green_exact(pot_cosine, x, y, k).G_S
        assert g_pkg == pytest.approx(g_direct, rel=1e-6), k


def test_green_series_against_contour_taylor(pot_cosine):
    # Taylor coefficients of ik * G(k) around k = 0, extracted by contour
    # quadrature of the exact kernel at complex k, must reproduce the
    # bracket-built series coefficients on a smooth potential too
    from bloch_green.green import green_series

    from bloch_green.green import _green_at
    from bloch_green.potential import cell_constants
    from bloch_green.transfer import evolve

    x, y = 0.7, 0.2
    gs = green_series(pot_cosine, x, y)
    cc = cell_constants(pot_cosine)

    def g_disk(k):
        # single-valued continuation in the small-k disk: Z picked by
        # continuity with k L0 (the contour dips below the real axis,
        # where the boundary-limit branch would switch sheets)
        U = evolve(pot_cosine, y, y - pot_cosine.period, k)
        Y = 0.5 * (U.alpha_plus + U.alpha_minus)
        s = np.sqrt((1.0 - Y) * (1.0 + Y) + 0j)
        if (s / (k * cc.L0)).real < 0.0:
            s = -s
        return _green_at(pot_cosine, x, y, k, U, s)

    rho = 0.25
    npts = 32
    theta = 2 * np.pi * np.arange(npts) / npts
    zeta = rho * np.exp(1j * theta)
    vals = np.array([z * g_disk(-1j * z) for z in zeta])
    spectrum = np.fft.fft(vals) / npts
    coeffs = (spectrum[:5] / rho ** np.arange(5)).real
    assert coeffs[0] == pytest.approx(gs.g_m1, abs=1e-10)
    assert coeffs[1] == pytest.approx(gs.g_0, abs=1e-10)
    assert coeffs[2] == pytest.approx(gs.g_1, abs=1e-9)
    assert coeffs[3] == pytest.approx(gs.g_2, abs=1e-9)
    assert coeffs[4] == pytest.approx(gs.g_3, abs=1e-9)


def test_drift_and_schrodinger_potential_consistency(pot_cosine):
    # V_S = f^2 + f' with f = -V'/2, checked by finite differences
    h = 1e-5
    for x in (0.3, 0.9, 1.7):
        fp = (pot_cosine.f(x + h) - pot_cosine.f(x - h)) / (2 * h)
        vs = pot_cosine.f(x) ** 2 + fp
        assert pot_cosine.schrodinger_potential(x) == pytest.approx(vs, abs=1e-8)
        vp = (pot_cosine.V(x + h) - pot_cosine.V(x - h)) / (2 * h)
        assert pot_cosine.f(x) == pytest.approx(-0.5 * vp, abs=1e-8)
