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
* Branch label: 'lower'/'upper' by energy within each m_F block.  The 2x2
  blocks have a field-independent off-diagonal element, so the ordering is
  an avoided crossing and the label is adiabatically stable at all B.
  For A > 0 the F=3/2 sublevels are the 'lower' branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .constants import atomic_mass, h, mu_B, mu_N
from .errors import ConfigError, DegenerateManifoldError

# Defaults for 171Yb.  The 3P2 hyperfine constant is not critical at the
# percent level anywhere in the protocols; see calibrate_hyperfine_A for
# pinning it to the 3-photon operating point.
DEFAULT_HYPERFINE_A_3P2_HZ = 2.6777e9


@dataclass(frozen=True)
class AtomParams:
    """Static atomic data; every numeric field carries an SI-unit suffix."""

    nuclear_spin: float = 0.5
    nuclear_moment_mu_n: float = 0.49367
    electronic_J_3P2: int = 2
    g_J_3P2: float = 1.5
    hyperfine_A_3P2_hz: float = DEFAULT_HYPERFINE_A_3P2_HZ
    mass_kg: float = 171 * atomic_mass
    lifetime_3P2_s: float = 15.0
    linewidth_1S0_3P2_hz: float = 0.010
    lifetime_1P1_s: float = 5.5e-9
    wavelength_1S0_3P2_m: float = 507e-9
    wavelength_1S0_1P1_m: float = 399e-9
    wavelength_lattice_m: float = 532e-9
    # Emulation switch: strictly linear Zeeman shifts (kills the
    # nonlinearity that generates the 3-photon detunings).
    linear_zeeman: bool = False

    def __post_init__(self):
        if self.nuclear_spin != 0.5:
            raise ConfigError("nuclear_spin must be 1/2 for 171Yb")
        if self.electronic_J_3P2 != 2:
            raise ConfigError("electronic J must be 2 for the 3P2 state")
        if self.hyperfine_A_3P2_hz == 0.0 and not self.linear_zeeman:
            raise ConfigError(
                "hyperfine A = 0 only makes sense with linear_zeeman=True")
        for name in ("mass_kg", "lifetime_3P2_s", "linewidth_1S0_3P2_hz",
                     "lifetime_1P1_s", "wavelength_1S0_3P2_m",
                     "wavelength_1S0_1P1_m", "wavelength_lattice_m"):
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
class ZeemanLevel:
    m_F: float
    branch: str  # 'lower' | 'upper'
    energy_hz: float
    # amplitudes over |m_J, m_I> product states
    composition: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class ZeemanSpectrum:
    field_t: float
    levels: tuple[ZeemanLevel, ...]

    def level(self, m_F: float, branch: str) -> ZeemanLevel:
        for lv in self.levels:
            if lv.m_F == m_F and lv.branch == branch:
                return lv
        raise ConfigError(f"no 3P2 level with m_F={m_F}, branch={branch!r}")


@dataclass(frozen=True)
class ThreePhotonDetunings:
    field_t: float
    omega0_rad_s: float   # drive angular frequency, one third of the a->d splitting
    delta1_rad_s: float   # omega_ab - omega0
    delta2_rad_s: float   # omega_cd - omega0


def lande_g_F(g_J: float, F: float, J: float, I: float) -> float:
    """Electronic Lande factor of a hyperfine level (nuclear term neglected)."""
    return g_J * (F * (F + 1) + J * (J + 1) - I * (I + 1)) / (2 * F * (F + 1))


def _block_states(m_F: float, J: float):
    """(m_J, m_I) product states in the m_F block, ordered by m_I."""
    return [(m_F - m_I, m_I) for m_I in (-0.5, +0.5) if abs(m_F - m_I) <= J]


def _linear_level_energy(params: AtomParams, m_F: float, branch: str,
                         B: float) -> float:
    # Linear emulation: zero-field F energies plus a strictly linear
    # g_F * m_F Zeeman slope.  branch 'lower' is F=3/2 for A>=0.
    A = params.hyperfine_A_3P2_hz
    J, I = params.electronic_J_3P2, params.nuclear_spin
    F = 1.5 if (branch == "lower") == (A >= 0) else 2.5
    E0 = A * (F * (F + 1) - J * (J + 1) - I * (I + 1)) / 2
    gF = lande_g_F(params.g_J_3P2, F, J, I)
    return E0 + gF * m_F * mu_B * B / h


def zeeman_spectrum(params: AtomParams, B: float) -> ZeemanSpectrum:
    """All 10 eigenpairs of the 3P2 (I=1/2, J=2) Zeeman+hyperfine problem."""
    if B < 0:
        raise ConfigError("B must be >= 0")
    A = params.hyperfine_A_3P2_hz
    J, I = float(params.electronic_J_3P2), params.nuclear_spin
    gJ = params.g_J_3P2
    gI = params.g_I
    levels = []
    for twice_mF in range(-5, 6, 2):
        m_F = twice_mF / 2
        states = _block_states(m_F, J)
        if params.linear_zeeman:
            for branch in (["lower", "upper"] if len(states) == 2
                           else ["lower" if A >= 0 else "upper"]):
                # composition: pure F states are not tracked in the
                # emulation; report the dominant product state.
                comp = tuple((mJ, mI, 1.0 if k == 0 else 0.0)
                             for k, (mJ, mI) in enumerate(states))
                levels.append(ZeemanLevel(
                    m_F, branch, _linear_level_energy(params, m_F, branch, B),
                    comp))
            continue
        if len(states) == 1:
            (mJ, mI), = states
            E = A * mJ * mI + (gJ * mu_B * mJ - gI * mu_N * mI) * B / h
            # 1x1 blocks: stretched states belong to F=5/2 at zero field,
            # i.e. the 'upper' branch for A>0 and 'lower' for A<0.
            branch = "upper" if A > 0 else "lower"
            levels.append(ZeemanLevel(m_F, branch, E, ((mJ, mI, 1.0),)))
        else:
            (mJ1, mI1), (mJ2, mI2) = states  # mI1 = -1/2, mI2 = +1/2
            d1 = A * mJ1 * mI1 + (gJ * mu_B * mJ1 - gI * mu_N * mI1) * B / h
            d2 = A * mJ2 * mI2 + (gJ * mu_B * mJ2 - gI * mu_N * mI2) * B / h
            # <mJ2, +1/2 | (A/2) J- I+ | mJ1, -1/2>, with mJ2 = mJ1 - 1
            off = (A / 2) * math.sqrt(J * (J + 1) - mJ1 * (mJ1 - 1))
            mean = (d1 + d2) / 2
            rad = math.hypot((d1 - d2) / 2, off)
            for branch, E in (("lower", mean - rad), ("upper", mean + rad)):
                # eigenvector of [[d1, off], [off, d2]] for eigenvalue E
                v = np.array([off, E - d1])
                n = np.linalg.norm(v)
                if n == 0.0:  # off==0 and degenerate: pick basis state
                    v = np.array([1.0, 0.0]) if E == d1 else np.array([0.0, 1.0])
                else:
                    v = v / n
                comp = ((mJ1, mI1, float(v[0])), (mJ2, mI2, float(v[1])))
                levels.append(ZeemanLevel(m_F, branch, E, comp))
    return ZeemanSpectrum(B, tuple(levels))


def ground_state_energy(params: AtomParams, B: float, m_I: float) -> float:
    """1S0 nuclear Zeeman energy in Hz: -moment * B * (m_I / (1/2)) / h."""
    if m_I not in (-0.5, +0.5):
        raise ConfigError("ground m_I must be +/-1/2")
    return -params.nuclear_moment_j_per_t * B * (m_I / 0.5) / h


def ground_qubit_splitting(params: AtomParams, B: float) -> float:
    """NMR frequency of the 1S0 nuclear-spin qubit in Hz."""
    if B < 0:
        raise ConfigError("B must be >= 0")
    return 2 * params.nuclear_moment_j_per_t * B / h


def transition_frequency(params: AtomParams, ground_m_I: float,
                         excited: tuple[float, str], B: float) -> float:
    """Optical resonance offset (Hz) from the zero-field line center."""
    m_F, branch = excited
    spec = zeeman_spectrum(params, B)
    return spec.level(m_F, branch).energy_hz - ground_state_energy(
        params, B, ground_m_I)


def transition_slope(params: AtomParams, ground_m_I: float,
                     excited: tuple[float, str], B: float,
                     dB: float = 1e-7) -> float:
    """d(transition frequency)/dB in Hz/T by central finite difference."""
    lo = max(B - dB, 0.0)
    f1 = transition_frequency(params, ground_m_I, excited, B + dB)
    f0 = transition_frequency(params, ground_m_I, excited, lo)
    return (f1 - f0) / (B + dB - lo)


def aux_branch(params: AtomParams) -> str:
    """Branch label of the F=3/2 manifold (the auxiliary-qubit manifold)."""
    return "lower" if params.hyperfine_A_3P2_hz >= 0 else "upper"


def f32_energies(params: AtomParams, B: float) -> np.ndarray:
    """Energies (Hz) of the F=3/2-branch ladder a,b,c,d (m_F=-3/2..+3/2)."""
    spec = zeeman_spectrum(params, B)
    br = aux_branch(params)
    return np.array([spec.level(m, br).energy_hz
                     for m in (-1.5, -0.5, 0.5, 1.5)])


def three_photon_detunings(params: AtomParams, B: float) -> ThreePhotonDetunings:
    """Detunings Delta1, Delta2 of the 3-photon ladder at field B.

    The drive frequency omega0 is the 3-photon-resonance choice
    omega0 = (E_d - E_a) / (3 hbar), which makes the a->d oscillation
    resonant by construction.
    """
    if B <= 0:
        raise DegenerateManifoldError(
            "three-photon detunings are ill-conditioned at B=0 "
            "(degenerate F=3/2 sublevels)")
    E = f32_energies(params, B)
    w_ab = 2 * math.pi * (E[1] - E[0])
    w_bc = 2 * math.pi * (E[2] - E[1])
    w_cd = 2 * math.pi * (E[3] - E[2])
    omega0 = (w_ab + w_bc + w_cd) / 3
    return ThreePhotonDetunings(B, float(omega0), float(w_ab - omega0),
                                float(w_cd - omega0))


def calibrate_hyperfine_A(params: AtomParams, B: float = 650e-4,
                          target_rad_s: float = 2 * math.pi * 20e6,
                          a_min_hz: float = 1e9,
                          a_max_hz: float = 1e10) -> AtomParams:
    """Return params with A(3P2) pinned so that the geometric mean of
    |Delta1|, |Delta2| at field B equals the target."""

    def mismatch(A):
        p = replace(params, hyperfine_A_3P2_hz=A)
        d = three_photon_detunings(p, B)
        return math.sqrt(abs(d.delta1_rad_s * d.delta2_rad_s)) - target_rad_s

    A_cal = brentq(mismatch, a_min_hz, a_max_hz)
    return replace(params, hyperfine_A_3P2_hz=A_cal)
