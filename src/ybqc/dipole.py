"""Magnetic dipole-dipole couplings between lattice sites.

Only the secular (Ising) part of the dipole operator is retained: under
the strong bias field the flip-flop terms between m_F = -3/2 and +3/2
would change a single atom's m_F by 3 units and are non-secular.  For
moments aligned with the quantization axis z,

    E_dd / h = (mu_0 / 4 pi h) * m1 * m2 * (1 - 3 cos^2 theta) / r^3

with theta the angle between z and the separation vector.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import h, mu_0, mu_B
from .errors import PhysicsError
from .atomic import AtomParams, lande_g_F

_K_DD = mu_0 / (4 * math.pi * h)  # Hz per (J/T)^2 / m^3


def ddi_coupling(m1: float, m2: float, r: float, theta: float) -> float:
    """Secular dipole-dipole energy in Hz for z-aligned moments; a
    coupling that overflows a float is a PhysicsError."""
    if not 0 < r < math.inf:
        raise PhysicsError("dipole pair requires a finite, strictly positive "
                           "separation")
    if not all(map(math.isfinite, (m1, m2, theta))):
        raise PhysicsError("dipole pair requires finite moments and angle")
    try:
        coupling = _K_DD * m1 * m2 * (1 - 3 * math.cos(theta) ** 2) / r ** 3
    except (OverflowError, ZeroDivisionError):   # r ** 3 out of range
        coupling = math.nan
    if not math.isfinite(coupling):
        raise PhysicsError(f"dipole coupling of moments {m1!r} and {m2!r} "
                           f"J/T at separation {r!r} m overflows a float")
    return coupling


def pair_coupling(position1_m, position2_m) -> float:
    """Secular coupling (Hz per (J/T)^2) of unit z-moments at two
    positions: `ddi_coupling(1, 1, r, theta)` of their separation."""
    dr = np.asarray(position2_m, float) - np.asarray(position1_m, float)
    r = float(np.linalg.norm(dr))
    if r == 0.0:
        raise PhysicsError("dipole pair requires distinct positions")
    theta = math.acos(max(-1.0, min(1.0, dr[2] / r)))
    return ddi_coupling(1.0, 1.0, r, theta)


def auxiliary_qubit_moments(params: AtomParams) -> tuple[float, float]:
    """z-moments (J/T) of logical 0 (m_F=-3/2) and 1 (m_F=+3/2).

    Low-field F=3/2 values: mu_z = -g_F m_F mu_B, i.e. +/-2.7 mu_B for the
    pure-LS g_J.  Note this is not the 3 mu_B of the stretched F=5/2 level.
    """
    gF = lande_g_F(params.g_J_3P2, 1.5, params.electronic_J_3P2,
                   params.nuclear_spin)
    m = gF * 1.5 * mu_B
    return (m, -m)


def cnot_shift(spacing: float, params: AtomParams, theta: float) -> float:
    """Conditional shift (Hz) of the |10><->|11> line at the given spacing:
    [E(11) - E(10)] - [E(01) - E(00)] of the secular coupling, which is
    the coupling of the moment differences m1 - m0 of the two atoms."""
    m0, m1 = auxiliary_qubit_moments(params)
    return ddi_coupling(m1 - m0, m1 - m0, spacing, theta)
