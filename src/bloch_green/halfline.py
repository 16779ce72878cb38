"""Semi-infinite reflection coefficients, S-functions and Weyl-Titchmarsh
functions, all built from one-period evolution data.

Each public function propagates the one-period matrix U(x, x - L; k) once
and reads Y, the branch-resolved Z and the band class off that same
matrix: one one-period propagation per call, at every k.
The half-line reflection coefficients are Mobius images of that data;
S_r, S_l and S = S_r + S_l follow in closed form, and the m-functions are
affine images of S_r, S_l shifted by the local drift.  The R, S and m
formulas are written once here; the exact Green function reuses the S
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .transfer import BandClass, SingularIntervalError, _period_monodromy, _upper_k, evolve

__all__ = [
    "HalflineState",
    "reflect_halfline",
    "s_functions",
    "m_functions",
    "halfline_state",
]


@dataclass(frozen=True)
class HalflineState:
    Rr_inf: complex
    Rl_inf: complex
    Sr: complex
    Sl: complex
    S: complex
    m_plus: complex | None
    m_minus: complex | None
    x: float
    k: complex
    edge: bool = False


def _period_data(pot, x, k):
    """(U(x, x - L; k), its monodromy data): everything the formulas below need."""
    U = evolve(pot, x, pot.period_start(x), _upper_k(k))
    return U, _period_monodromy(U)


def _reflection(U, mono, k):
    denom = 1.0 / mono.lam - U.alpha_plus
    scale = max(1.0, abs(U.alpha_plus))
    if abs(denom) < 1e-12 * scale:
        raise SingularIntervalError(
            f"1/lambda - alpha(k) vanished at k = {k}; band-edge degeneracy")
    return -U.beta_plus / denom, U.beta_minus / denom


def _s_values(U, Z, x, k):
    """(S_r, S_l, S) from the one-period matrix based at x and Z."""
    da = U.alpha_plus - U.alpha_minus
    denom = da + U.beta_plus - U.beta_minus
    scale = max(1.0, abs(U.alpha_plus) + abs(U.beta_plus))
    if abs(denom) < 1e-14 * scale:
        raise SingularIntervalError(
            f"S-function denominator vanished at x = {x}, k = {k}")
    two_iz = 2j * Z
    Sr = 2.0 * U.beta_plus / (da + 2.0 * U.beta_plus - two_iz)
    Sl = -2.0 * U.beta_minus / (da - 2.0 * U.beta_minus - two_iz)
    S = 1.0 + two_iz / denom
    return Sr, Sl, S


def _m_values(Sr, Sl, k, f):
    """(m_plus, m_minus) from S_r, S_l and the drift f at x."""
    ik = 1j * k
    return ik - 2.0 * ik * Sl + f, ik - 2.0 * ik * Sr - f


def reflect_halfline(pot, x: float, k: complex):
    """Reflection coefficients of the half-lines left and right of x.

    Well defined for Im k > 0; real k values are boundary limits from the
    upper half plane, inherited through the Z branch rule.
    """
    k = complex(k)
    U, mono = _period_data(pot, x, k)
    return _reflection(U, mono, k)


def s_functions(pot, x: float, k: complex):
    """(S_r, S_l, S) at position x from the one-period closed forms."""
    k = complex(k)
    U, mono = _period_data(pot, x, k)
    return _s_values(U, mono.Z, x, k)


def m_functions(pot, x: float, k: complex):
    """Weyl-Titchmarsh functions (m_plus, m_minus) of the half-lines at x."""
    pe = pot.eval(x)
    if pe.has_jump:
        raise ValueError(
            f"x = {x} is a jump point of the potential; the drift (and hence "
            "the m-functions) is undefined there")
    k = complex(k)
    U, mono = _period_data(pot, x, k)
    Sr, Sl, _ = _s_values(U, mono.Z, x, k)
    return _m_values(Sr, Sl, k, pe.f)


def halfline_state(pot, x: float, k: complex) -> HalflineState:
    """All half-line quantities at (x, k) in one bundle.

    m-functions are set to None when x is a jump point.  The edge flag is
    raised when a real k is classified as a band edge (the band class read
    off the one-period matrix), where the boundary values degenerate.
    """
    k = complex(k)
    U, mono = _period_data(pot, x, k)
    Rr, Rl = _reflection(U, mono, k)
    Sr, Sl, S = _s_values(U, mono.Z, x, k)
    pe = pot.eval(x)
    m_plus, m_minus = (None, None) if pe.has_jump else _m_values(Sr, Sl, k, pe.f)
    return HalflineState(Rr_inf=Rr, Rl_inf=Rl, Sr=Sr, Sl=Sl, S=S,
                         m_plus=m_plus, m_minus=m_minus, x=float(x), k=k,
                         edge=mono.band is BandClass.EDGE)
