"""Zeeman/hyperfine structure of the 171Yb 1S0 and 3P2(I=1/2, J=2) manifolds.

Energies are in Hz. The excited manifold is measured from the 3P2
fine-structure centroid; the ground manifold from the 1S0 level at B=0.
Transition frequencies are therefore offsets from the zero-field line
center, never absolute optical frequencies.

Conventions
-----------
* Nuclear moment: 0.49367 mu_N is the magnitude of the stretched-state
  projection, so the ground level energy is E(m_I) = -moment * B * 2*m_I / h
  and the qubit splitting is 2 * moment * B / h.
* 3P2 Hamiltonian: H = A (I.J) + (g_J mu_B J_z - g_I mu_N I_z) B / h with
  g_I = moment / (mu_N * I).  m_F = m_J + m_I is conserved, so the 10x10
  problem splits into 1x1 blocks (|m_F| = 5/2) and 2x2 blocks solved in
  closed form.
* One array kernel, `zeeman_table`, evaluates all ten levels at every
  field of an array B, with `level_labels` naming its rows;
  `register_table` builds on it.  One field is a one-field array, and
  `addressing.site_levels` caches a register's table, a column per site.
* `ladder_detunings` gives the 3-photon ladder in the Breit-Rabi closed
  form, from the atom and the field alone, elementwise over B (exactly
  0 at B = 0).  As E(A, B) = A E(1, B / A), one call of the atom with
  A = 1 at the fields B / A tries 65 values of A for
  `calibrate_hyperfine_A`.
* Branch label: 'lower'/'upper' by energy within each m_F block.  The 2x2
  blocks have a field-independent off-diagonal element, so the ordering is
  an avoided crossing and the label is adiabatically stable at all B.
  For A > 0 the F=3/2 sublevels are the 'lower' branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .constants import atomic_mass, h, mu_B, mu_N
from .errors import ConfigError, PhysicsError

# Defaults for 171Yb.  The 3P2 hyperfine constant is not critical at the
# percent level anywhere in the protocols; see calibrate_hyperfine_A for
# pinning it to the 3-photon operating point.
DEFAULT_HYPERFINE_A_3P2_HZ = 2.6777e9

# Register levels, in `register_table` row order: the 1S0 nuclear-spin qubit
# and the 3P2 F=3/2 ladder a, b, c, d (m_F = -3/2 .. +3/2).
GM, GP, EM32, EM12, EP12, EP32 = range(6)


@dataclass(frozen=True)
class AtomParams:
    """Static atomic data; every numeric field carries an SI-unit suffix.
    The spins I = 1/2 and J = 2 define the qubit and its gate manifold,
    so they are constants, not fields."""

    nuclear_spin: ClassVar[float] = 0.5
    electronic_J_3P2: ClassVar[int] = 2
    nuclear_moment_mu_n: float = 0.49367
    g_J_3P2: float = 1.5
    hyperfine_A_3P2_hz: float = DEFAULT_HYPERFINE_A_3P2_HZ
    mass_kg: float = 171 * atomic_mass
    linewidth_1S0_3P2_hz: float = 0.010
    lifetime_1P1_s: float = 5.5e-9
    wavelength_1S0_3P2_m: float = 507e-9
    wavelength_1S0_1P1_m: float = 399e-9
    wavelength_lattice_m: float = 532e-9

    def __post_init__(self):
        for name in ("nuclear_moment_mu_n", "g_J_3P2", "hyperfine_A_3P2_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.hyperfine_A_3P2_hz == 0.0:
            raise ConfigError("hyperfine A must be nonzero")
        for name in ("mass_kg", "linewidth_1S0_3P2_hz", "lifetime_1P1_s",
                     "wavelength_1S0_3P2_m", "wavelength_1S0_1P1_m",
                     "wavelength_lattice_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive")

    @property
    def nuclear_moment_j_per_t(self) -> float:
        return self.nuclear_moment_mu_n * mu_N

    @property
    def g_I(self) -> float:
        """Nuclear g-factor in nuclear magnetons: moment = g_I * mu_N * I."""
        return self.nuclear_moment_mu_n / self.nuclear_spin


@dataclass(frozen=True)
class ThreePhotonDetunings:
    omega0_rad_s: np.ndarray  # drive: a third of the a->d splitting
    delta1_rad_s: np.ndarray  # omega_ab - omega0
    delta2_rad_s: np.ndarray  # omega_cd - omega0


def lande_g_F(g_J: float, F: float, J: float, I: float) -> float:
    """Electronic Lande factor of a hyperfine level (nuclear term neglected)."""
    return g_J * (F * (F + 1) + J * (J + 1) - I * (I + 1)) / (2 * F * (F + 1))


def _check_finite(values, what: str, B) -> None:
    """PhysicsError naming the first field of B at which one of `values`
    (floats, or arrays whose last axis runs over B) is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = ~finite.reshape(-1, np.size(B)).all(axis=0)
        raise PhysicsError(
            f"{what} at B = {float(np.ravel(B)[np.argmax(bad)]):.6g} T "
            "leave the float range; check the atom constants g_J_3P2, "
            "hyperfine_A_3P2_hz and nuclear_moment_mu_n")


def _field_array(B) -> np.ndarray:
    """B as a 1-d float array; ConfigError at its first negative or
    non-finite field."""
    B = np.asarray(B, dtype=float).reshape(-1)
    ok = (B >= 0) & (B < math.inf)
    if not ok.all():
        raise ConfigError(f"B must be finite and >= 0, got "
                          f"{float(B[~ok][0])!r} T")
    return B


# The ten 3P2 states |m_J, m_I> in the diagonal order of `zeeman_table`:
# the stretched m_F = -5/2, the |m_J, -1/2> and then the |m_J - 1, +1/2>
# state of each 2x2 block m_F = -3/2 .. +3/2, and the stretched m_F = +5/2
_BLOCK_MJ = np.array([[-1.0], [0.0], [1.0], [2.0]])
_STATE_MJ = np.vstack(([-2.0], _BLOCK_MJ, _BLOCK_MJ - 1, [2.0]))
_STATE_MI = np.repeat([[-0.5], [-0.5], [0.5], [0.5]], [1, 4, 4, 1], axis=0)
# <m_J - 1, +1/2| J- I+ |m_J, -1/2> of each block, for J = 2
_BLOCK_OFF = np.sqrt(6.0 - _BLOCK_MJ * (_BLOCK_MJ - 1))


def level_labels(params: AtomParams) -> tuple[tuple[float, str], ...]:
    """(m_F, branch) of each row of `zeeman_table`.  The stretched
    |m_F| = 5/2 levels belong to F=5/2 at zero field: the 'upper' branch
    for A > 0 and 'lower' for A < 0.  In the 2x2 blocks 'lower' is F=3/2
    for A > 0."""
    stretched = "upper" if params.hyperfine_A_3P2_hz > 0 else "lower"
    return ((-2.5, stretched),
            *((m_F, branch) for m_F in (-1.5, -0.5, 0.5, 1.5)
              for branch in ("lower", "upper")),
            (2.5, stretched))


@np.errstate(all="ignore")      # overflow surfaces as the PhysicsError
def zeeman_table(params: AtomParams, B) -> np.ndarray:
    """Energies (Hz) and field slopes (Hz/T) of all 10 levels of the 3P2
    (I=1/2, J=2) Zeeman+hyperfine problem at every field of the 1-d
    array B: a (2, 10, len(B)) array, energies then slopes, whose level
    rows follow `level_labels`.

    The 1x1 blocks are diagonal; each 2x2 block [[d1, off], [off, d2]]
    is solved in closed form.  Its slope follows from Hellmann-Feynman:
    off does not depend on B, so
    dE/dB = (d1' + d2')/2 +/- (d1 - d2)(d1' - d2') / (4 rad).
    """
    B = _field_array(B)
    A = params.hyperfine_A_3P2_hz
    k = params.g_J_3P2 * mu_B * _STATE_MJ - params.g_I * mu_N * _STATE_MI
    # <m_J, m_I|H|m_J, m_I> (Hz) and its slope (Hz/T) for the ten states;
    # the two levels of each 2x2 block then replace its two states
    out = np.empty((2, 10, B.size))
    out[0] = A * _STATE_MJ * _STATE_MI + k * B / h
    out[1] = k / h
    mean = (out[:, 1:5] + out[:, 5:9]) / 2
    half = (out[:, 1:5] - out[:, 5:9]) / 2
    shift = np.empty_like(half)
    rad = np.hypot(half[0], (A / 2) * _BLOCK_OFF, out=shift[0])
    # at an exact crossing (off == 0) the branches keep the diagonal
    # slopes, the smaller one below
    shift[1] = np.where(rad != 0, half[0] / rad * half[1], abs(half[1]))
    np.subtract(mean, shift, out=out[:, 1:9:2])
    np.add(mean, shift, out=out[:, 2:9:2])
    _check_finite(out, "3P2 Zeeman energies", B)
    return out


def aux_branch(params: AtomParams) -> str:
    """Branch label of the F=3/2 manifold (the auxiliary-qubit manifold)."""
    return "lower" if params.hyperfine_A_3P2_hz >= 0 else "upper"


@dataclass(frozen=True)
class RegisterLevels:
    """Energies (Hz) and z-moments -h dE/dB (J/T) of the register levels,
    indexed GM, GP, EM32, EM12, EP12, EP32: the 1S0 qubit g-, g+ and the
    3P2 F=3/2 ladder e-3/2 .. e+3/2, at an array of fields, with one
    column per field."""
    field_t: np.ndarray
    energy_hz: np.ndarray
    moment_j_per_t: np.ndarray


@np.errstate(all="ignore")      # overflow surfaces as the PhysicsError
def register_table(params: AtomParams, B) -> RegisterLevels:
    """Closed-form level table of one atom at every field of the 1-d
    array B: (6, len(B)) energies and moments."""
    B = np.asarray(B, dtype=float)
    energy, slopes = zeeman_table(params, B)
    # rows of the F=3/2 branch, m_F = -3/2 .. +3/2
    rows = slice(1, 9, 2) if aux_branch(params) == "lower" else slice(2, 9, 2)
    mu = params.nuclear_moment_j_per_t
    out = np.empty((2, 6, B.size))
    np.divide(mu * B, h, out=out[0, GM])
    np.negative(out[0, GM], out=out[0, GP])
    out[0, EM32:] = energy[rows]
    out[1, GM], out[1, GP] = -mu, mu
    np.multiply(-h, slopes[rows], out=out[1, EM32:])
    _check_finite(out, "register level energies", B)
    return RegisterLevels(B, *out)


@np.errstate(all="ignore")      # overflow surfaces as the PhysicsError
def ladder_detunings(params: AtomParams, B) -> ThreePhotonDetunings:
    """Drive frequency omega0 = (E_d - E_a) / (3 hbar) and detunings
    Delta1, Delta2 of the 3-photon F=3/2 ladder a -> d at every field of
    the 1-d array B, elementwise: a one-field array reads the bits of
    that field's entry of any longer one.

    Each level is mean -/+ r (- for A > 0), the block mean linear in m_F
    and, in the Breit-Rabi form (Phys. Rev. 38, 2082 (1931)),
    r^2 = (kappa B - A m_F/2)^2 + A^2 (25 - 4 m_F^2)/16 with kappa =
    (g_J mu_B + g_I mu_N)/(2h).  r^2 steps by exactly c = -A kappa B per
    unit m_F, so each first difference of r is c over the sum of its two
    r, all of one sign, and Delta1 and Delta2 are sums of their products:
    no step subtracts two large numbers.  At B = 0 the F=3/2 sublevels
    are degenerate and all three are exactly 0; a negative or
    non-finite B raises ConfigError."""
    fields = _field_array(B)
    A = params.hyperfine_A_3P2_hz
    x = (params.g_J_3P2 * mu_B + params.g_I * mu_N) / (2 * h) * fields
    # r of a, b, c, d: the blocks m_F = -3/2 .. +3/2
    r = [np.hypot(x - A / 2 * m_F, A / 2 * off)
         for m_F, off in zip((-1.5, -0.5, 0.5, 1.5), _BLOCK_OFF.flat)]
    s = [r[k] + r[k + 1] for k in range(3)]
    # r_b - r_a, r_c - r_b, r_d - r_c as c / s, without forming c
    p, q, t = (-A * (x / s_k) for s_k in s)
    u, v = p + q, q + t                     # r_c - r_a, r_d - r_b
    w = math.copysign(2 * math.pi / 3, -A)  # F=3/2 is mean - r for A > 0
    delta1 = w * p * (u / s[1] + (u + v) / s[2])
    delta2 = -w * t * ((u + v) / s[0] + v / s[1])
    omega0 = 2 * math.pi * params.g_J_3P2 * mu_B / h * fields + w * (u + t)
    out = (omega0, delta1, delta2)
    _check_finite(out, "three-photon ladder detunings", fields)
    return ThreePhotonDetunings(*out)


# The 3-photon operating point and the bracket searched for A(3P2)
CALIBRATION_FIELD_T = 650e-4
CALIBRATION_DETUNING_RAD_S = 2 * math.pi * 20e6
CALIBRATION_A_BRACKET_HZ = (1e9, 1e10)


@np.errstate(all="ignore")      # an overflowing mismatch is +inf
def calibrate_hyperfine_A(params: AtomParams) -> AtomParams:
    """Return params with A(3P2) pinned so that the geometric mean of
    |Delta1|, |Delta2| at CALIBRATION_FIELD_T is CALIBRATION_DETUNING_RAD_S.

    Every level obeys E(A, B) = A E(1, B / A), so one `ladder_detunings`
    call of the atom with A = 1 gives the mismatch at 65 candidates
    across the bracket.  Each call keeps the first pair of adjacent
    candidates across which its sign changes, until the bracket holds
    two adjacent floats; the end of smaller mismatch is the root."""
    lo, hi = CALIBRATION_A_BRACKET_HZ
    # an atom whose ladder overflows raises naming the calibration field
    ladder_detunings(replace(params, hyperfine_A_3P2_hz=lo),
                     [CALIBRATION_FIELD_T])
    unit = replace(params, hyperfine_A_3P2_hz=1.0)
    while True:
        A = np.linspace(lo, hi, 65)
        det = ladder_detunings(unit, CALIBRATION_FIELD_T / A)
        product = det.delta1_rad_s * det.delta2_rad_s
        mismatch = A * np.sqrt(abs(product)) - CALIBRATION_DETUNING_RAD_S
        below = mismatch < 0
        # a detuning product that underflows to 0 has no root to find
        if below[0] == below[-1] or not product.all():
            raise PhysicsError(
                "no hyperfine A in CALIBRATION_A_BRACKET_HZ ({:g}, {:g}) Hz "
                "brings the 3-photon detuning at {:g} G to 2pi x {:g} MHz; "
                "check g_J_3P2 and nuclear_moment_mu_n".format(
                    *CALIBRATION_A_BRACKET_HZ, CALIBRATION_FIELD_T / 1e-4,
                    CALIBRATION_DETUNING_RAD_S / (2e6 * math.pi)))
        # the first pair across which the sign changes: a narrower
        # bracket, or this one once no candidate lies strictly inside
        i = int(np.argmax(below != below[0]))
        if (A[i - 1], A[i]) == (lo, hi):
            break
        lo, hi = A[i - 1], A[i]
    A_cal = lo if abs(mismatch[0]) <= abs(mismatch[-1]) else hi
    return replace(params, hyperfine_A_3P2_hz=float(A_cal))
