"""Pulse-level state-vector simulation of the atom register.

Each active atom carries seven levels: the 1S0 nuclear-spin qubit
(g-, g+), the 3P2(F=3/2) manifold (e -3/2 .. e +3/2), and an absorbing
LOST label.  The register is the tensor product over active sites
(spectator sites are not represented).  Evolution is rotating-frame,
piecewise-constant-Hamiltonian, with per-site detunings from the
gradient-resolved resonances and the always-on secular dipole-dipole
diagonal.  3P2 decay and lattice photon scattering enter as a
norm-decaying anti-Hermitian term; the removed mass is tracked so that
||amplitudes||^2 + leaked = 1 at all times.

Frame convention: within each segment every undriven level co-rotates
with its own local resonance (zero diagonal); levels reached by a drive
leg carry the cumulative (local transition frequency - laser frequency)
detuning.  Frames may differ between segments, so only relative,
convention-stable phases are physical; all phases are deterministic.

Blocked propagation: every drive couples fixed level pairs of one atom,
and the dipole and decay terms are diagonal, so the register Hamiltonian
is block-diagonal.  A block is one coupled level group per atom (the
connected components of that atom's 7x7 coupling pattern, e.g.
{g+, e+3/2}, {g-, e-3/2}, {e-1/2}, {e+1/2}, {lost} under the optical
pair drive), and its basis is the Cartesian product of those groups.
Only the live blocks, those holding a nonzero amplitude, are assembled
and exponentiated; the 7^n x 7^n register matrix is never built.  The
dense kron-sum propagator is the test oracle in
tests/test_blocked_propagator.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .addressing import GradientConfig, LatticeGeometry, site_field
from .atomic import (EM12, EM32, EP12, EP32, GM, GP, AtomParams,
                     register_levels, three_photon_detunings)
from .dipole import pair_coupling
from .errors import ConfigError, IntegratorError

# Per-atom level indices: the register levels of `atomic.register_levels`
# (GM, GP, EM32, EM12, EP12, EP32) plus an absorbing LOST label
LOST = 6
NLEV = 7
E_LEVELS = (EM32, EM12, EP12, EP32)
G_LEVELS = (GM, GP)
AUX = {0: EM32, 1: EP32}           # logical value -> auxiliary level

UNITARITY_TOL = 1e-6


@lru_cache(maxsize=None)
def basis_labels(n_atoms: int) -> np.ndarray:
    """Read-only (7^n, n) table: row b lists each atom's level in basis
    state b (atom 0 is the most significant digit)."""
    labels = np.array(list(np.ndindex(*(NLEV,) * n_atoms)))
    labels.flags.writeable = False
    return labels


@dataclass(frozen=True)
class NoiseParams:
    lifetime_3P2_s: float = 15.0
    photon_scattering_rate_hz: float = 0.2
    branching_1P1_to_3D: float = 1e-7
    detection_time_s: float = 3e-3
    detection_scatter_rate_hz: float = 8e6

    def __post_init__(self):
        if self.lifetime_3P2_s <= 0 and not math.isinf(self.lifetime_3P2_s):
            raise ConfigError("3P2 lifetime must be positive")
        if self.photon_scattering_rate_hz < 0:
            raise ConfigError("scattering rate must be >= 0")
        if not 0 <= self.branching_1P1_to_3D <= 1:
            raise ConfigError("branching ratio must lie in [0, 1]")

    @classmethod
    def off(cls) -> "NoiseParams":
        return cls(lifetime_3P2_s=math.inf, photon_scattering_rate_hz=0.0,
                   branching_1P1_to_3D=0.0)


@dataclass(frozen=True)
class Pulse:
    """One timed drive segment.

    transition: 'optical_pair' (simultaneous pi-pulse legs on
    g+ <-> e+3/2 and g- <-> e-3/2), 'three_photon' (single drive through
    the F=3/2 ladder), 'rf' (ground-qubit NMR drive), 'aux_flip'
    (effective drive on the auxiliary e-3/2 <-> e+3/2 pair used by the
    CNOT), 'blow_away' (radiation-pressure removal of all 1S0
    population, no Hamiltonian), or 'measure'.
    """
    transition: str
    duration_s: float
    rabi_rad_s: float = 0.0
    detuning_rad_s: float = 0.0
    phase_rad: float = 0.0
    target: tuple = ("all",)
    compensate_light_shift: bool = True
    metastable_weight: float = 0.0  # annotation for the decoherence budget

    def __post_init__(self):
        if self.duration_s < 0:
            raise ConfigError("pulse duration must be >= 0")
        if self.rabi_rad_s < 0:
            raise ConfigError("Rabi frequency must be >= 0")


@dataclass(frozen=True)
class PulseSegment:
    config: GradientConfig
    pulse: Pulse


@dataclass(frozen=True)
class PulseSchedule:
    segments: tuple[PulseSegment, ...]
    n_atoms: int = 0

    @property
    def total_duration_s(self) -> float:
        return sum(s.pulse.duration_s for s in self.segments)


class RegisterState:
    """Amplitudes of the active atoms over the 7-level basis."""

    def __init__(self, params: AtomParams, geom: LatticeGeometry,
                 sites, amps: np.ndarray, leaked: float = 0.0):
        self.params = params
        self.geom = geom
        self.sites = tuple(tuple(s) for s in sites)
        if len(set(self.sites)) != len(self.sites):
            raise ConfigError("duplicate active sites")
        self.amps = np.asarray(amps, complex).reshape(-1)
        if self.amps.size != NLEV ** len(self.sites):
            raise ConfigError("amplitude vector size does not match sites")
        self.leaked = float(leaked)

    @classmethod
    def product(cls, params, geom, sites, levels) -> "RegisterState":
        sites = [tuple(s) for s in sites]
        amps = np.zeros(NLEV ** len(sites), complex)
        idx = 0
        for lv in levels:
            idx = idx * NLEV + lv
        amps[idx] = 1.0
        return cls(params, geom, sites, amps)

    # -- bookkeeping -------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return len(self.sites)

    @property
    def survival(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def copy(self) -> "RegisterState":
        return RegisterState(self.params, self.geom, self.sites,
                             self.amps.copy(), self.leaked)

    def site_index(self, site) -> int:
        return self.sites.index(tuple(site))

    def _tensor(self) -> np.ndarray:
        return self.amps.reshape((NLEV,) * self.n_atoms)

    def reduced_density(self, site) -> np.ndarray:
        """Unnormalized 7x7 reduced density matrix of one atom."""
        a = np.moveaxis(self._tensor(), self.site_index(site), 0)
        m = a.reshape(NLEV, -1)
        return m @ m.conj().T

    def level_populations(self, site) -> np.ndarray:
        return np.diag(self.reduced_density(site)).real

    def population(self, site, level: int) -> float:
        return float(self.level_populations(site)[level])

    def check_accounting(self, tol: float = 1e-9) -> None:
        if abs(self.survival + self.leaked - 1.0) > tol:
            raise IntegratorError(
                f"norm accounting violated: survival {self.survival} "
                f"+ leaked {self.leaked} != 1")


# ---------------------------------------------------------------------------
# Hamiltonian construction

def light_shift_compensation(delta1: float, delta2: float,
                             rabi: float) -> float:
    """Drive-frequency offset cancelling the differential AC-Stark shift
    of the 3-photon ladder ends (fixed-point solution of the dressed
    resonance condition).

    Iterates until the value repeats exactly; raises IntegratorError
    when 80 steps leave the last step above 1e-9 relative (the iteration
    diverges for drives of a few ladder gaps)."""
    eps = step = 0.0
    for _ in range(80):
        new = (rabi ** 2 / 4) * (1 / (delta1 - eps) + 1 / (delta2 - eps)) / 3
        if new == eps:
            return eps
        step, eps = abs(new - eps), new
    if not step <= 1e-9 * abs(eps):
        raise IntegratorError(
            f"light-shift compensation does not converge (last step "
            f"{step:.2e} rad/s at {eps:.3e} rad/s); the drive is too strong "
            "for the ladder detunings")
    return eps


def _resolve_reference(reg: RegisterState, target: tuple):
    kind = target[0]
    if kind == "site":
        return tuple(target[1])
    if kind == "layer":
        return (0, 0, target[1])
    return reg.sites[0]


# Drive legs (lower, upper) of each transition.  The three 3-photon legs
# share one laser.  The rf leg runs from g+ up to g-: the positive 171Yb
# nuclear moment puts m_I = +1/2 lowest.
LEGS = {"optical_pair": ((GP, EP32), (GM, EM32)),
        "three_photon": ((EM32, EM12), (EM12, EP12), (EP12, EP32)),
        "rf": ((GP, GM),),
        "aux_flip": ((EM32, EP32),)}


def _laser_frequencies(params, B_ref, pulse) -> tuple:
    """Laser angular frequency (rad/s) of each drive leg: resonant at the
    reference field B_ref, plus the pulse detuning; the 3-photon laser
    also carries the light-shift compensation."""
    if pulse.transition not in LEGS:
        raise ConfigError(f"unknown pulse transition {pulse.transition!r}")
    if pulse.transition == "three_photon":
        det = three_photon_detunings(params, B_ref)
        eps = 0.0
        if pulse.compensate_light_shift and pulse.rabi_rad_s > 0:
            eps = light_shift_compensation(det.delta1_rad_s,
                                           det.delta2_rad_s, pulse.rabi_rad_s)
        return (det.omega0_rad_s + eps + pulse.detuning_rad_s,) * 3
    E = register_levels(params, B_ref).energy_hz
    return tuple(2 * math.pi * (E[up] - E[lo]) + pulse.detuning_rad_s
                 for lo, up in LEGS[pulse.transition])


def _single_atom_hamiltonian(energy_hz, lasers, pulse) -> np.ndarray:
    """7x7 rotating-frame block (rad/s) for one atom whose register levels
    sit at `energy_hz` (Hz), driven by `lasers` (rad/s, one per leg)."""
    hmat = np.zeros((NLEV, NLEV), complex)
    coupling = pulse.rabi_rad_s / 2 * np.exp(1j * pulse.phase_rad)
    for (lo, up), wL in zip(LEGS[pulse.transition], lasers):
        hmat[up, up] = hmat[lo, lo] \
            + (2 * math.pi * (energy_hz[up] - energy_hz[lo]) - wL)
        hmat[up, lo] = coupling
        hmat[lo, up] = np.conj(coupling)
    return hmat


def _coupled_groups(hmat: np.ndarray) -> np.ndarray:
    """Coupled level group of each level of one atom's 7x7 block, named
    by the group's lowest level (connected components of |hmat| > 0)."""
    reach = ((hmat != 0) | np.eye(NLEV, dtype=bool)).astype(np.int8)
    for _ in range(3):          # paths of up to 8 > NLEV - 1 hops
        reach = ((reach @ reach) > 0).astype(np.int8)
    return reach.argmax(axis=1)


def segment_hamiltonian(reg: RegisterState, segment: PulseSegment,
                        dipole_scale: float = 1.0) -> list:
    """Live blocks of the register Hamiltonian (rad/s) for one segment.

    Returns one (indices, blocks) pair per block size d: `indices` is an
    (nb, d) array of basis states, `blocks` the (nb, d, d) Hermitian
    blocks over them.  A block is live when any of its amplitudes is
    nonzero; the others are never built.
    """
    params, geom = reg.params, reg.geom
    config, pulse = segment.config, segment.pulse
    n = reg.n_atoms
    B_ref = site_field(geom, config, _resolve_reference(reg, pulse.target))
    lasers = _laser_frequencies(params, B_ref, pulse)
    hs = np.stack([_single_atom_hamiltonian(
        register_levels(params, site_field(geom, config, s)).energy_hz,
        lasers, pulse) for s in reg.sites])
    labels = basis_labels(n)
    # block of each basis state, coded by its atoms' groups as base-7
    # digits; ascending basis order within a block is the Cartesian order
    group = np.stack([_coupled_groups(h_i) for h_i in hs])
    block = group[np.arange(n), labels] @ NLEV ** np.arange(n - 1, -1, -1)
    states = np.flatnonzero(np.isin(block, block[reg.amps != 0]))
    states = states[np.argsort(block[states], kind="stable")]
    _, sizes = np.unique(block[states], return_counts=True)
    size_of = np.repeat(sizes, sizes)

    dd = _dipole_diagonal(params, geom, reg.sites, config, dipole_scale)
    out = []
    for d in np.unique(sizes):
        idx = states[size_of == d].reshape(-1, d)
        L = labels[idx]
        La, Lb = L[:, :, None, :], L[:, None, :, :]
        differ = La != Lb
        n_differ = differ.sum(axis=-1)
        H = np.zeros(idx.shape + (d,), complex)
        for i in range(n):
            # atom i's term couples states equal on every other atom
            H += np.where(n_differ == differ[..., i],
                          hs[i][La[..., i], Lb[..., i]], 0.0)
        H[:, np.arange(d), np.arange(d)] += dd[idx]
        out.append((idx, H))
    return out


@lru_cache(maxsize=64)
def _dipole_diagonal(params: AtomParams, geom: LatticeGeometry, sites: tuple,
                     config: GradientConfig,
                     dipole_scale: float) -> np.ndarray:
    """Read-only always-on secular dipole-dipole diagonal (rad/s) over the
    7^n basis; computed once per register, field and scale."""
    n = len(sites)
    moments = np.array(
        [register_levels(params, site_field(geom, config, s)).moment_j_per_t
         + (0.0,) for s in sites])     # LOST carries no moment
    labels = basis_labels(n)
    dd = np.zeros(NLEV ** n)
    for i in range(n):
        for j in range(i + 1, n):
            coef = 2 * math.pi * dipole_scale * pair_coupling(
                geom.position_m(sites[i]), geom.position_m(sites[j]))
            dd += coef * moments[i][labels[:, i]] * moments[j][labels[:, j]]
    dd.flags.writeable = False
    return dd


def _gamma_levels(noise: NoiseParams) -> np.ndarray:
    """Norm-decay rate (1/s) of each per-atom level."""
    decay = 0.0 if math.isinf(noise.lifetime_3P2_s) else 1 / noise.lifetime_3P2_s
    per_level = np.zeros(NLEV)
    for lv in E_LEVELS:
        per_level[lv] = decay + noise.photon_scattering_rate_hz
    for lv in G_LEVELS:
        per_level[lv] = noise.photon_scattering_rate_hz
    return per_level


def segment_propagator(reg: RegisterState, segment: PulseSegment,
                       noise: NoiseParams, dt: float,
                       dipole_scale: float = 1.0) -> list:
    """Propagators over dt of the live blocks, as (indices, blocks) pairs
    like `segment_hamiltonian`, with the decay rates as -i Gamma/2 on the
    diagonal; blocks of equal size are exponentiated in one call."""
    rates = _gamma_levels(noise)
    labels = basis_labels(reg.n_atoms)
    out = []
    for idx, H in segment_hamiltonian(reg, segment, dipole_scale):
        d = idx.shape[1]
        H[:, np.arange(d), np.arange(d)] -= 0.5j * rates[labels[idx]].sum(-1)
        out.append((idx, expm(-1j * dt * H)))
    return out


def apply_propagator(reg: RegisterState, U: list,
                     noise_on: bool) -> RegisterState:
    """Apply block propagators from `segment_propagator`; amplitudes
    outside the blocks stay zero."""
    before = reg.survival
    amps = np.zeros_like(reg.amps)
    for idx, blocks in U:
        amps[idx] = (blocks @ reg.amps[idx][..., None])[..., 0]
    after = float(np.vdot(amps, amps).real)
    if not noise_on and abs(after - before) > UNITARITY_TOL:
        raise IntegratorError(
            f"unitarity deviation {abs(after - before):.2e} per step "
            "exceeds 1e-6; use a smaller dt")
    out = RegisterState(reg.params, reg.geom, reg.sites, amps,
                        reg.leaked + (before - after))
    out.check_accounting()
    return out


def _noise_on(noise: NoiseParams) -> bool:
    return noise.photon_scattering_rate_hz > 0 \
        or not math.isinf(noise.lifetime_3P2_s)


def evolve(reg: RegisterState, segment: PulseSegment, noise: NoiseParams,
           dt: float, dipole_scale: float = 1.0) -> RegisterState:
    """Propagate through dt <= segment duration of the segment drive."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if dt > segment.pulse.duration_s * (1 + 1e-12):
        raise ConfigError("dt exceeds the segment duration")
    U = segment_propagator(reg, segment, noise, dt, dipole_scale)
    return apply_propagator(reg, U, _noise_on(noise))


def apply_segment(reg: RegisterState, segment: PulseSegment,
                  noise: NoiseParams,
                  dipole_scale: float = 1.0) -> RegisterState:
    """Propagate through the whole segment (exact exponentiation)."""
    if segment.pulse.duration_s == 0.0:
        return reg.copy()
    return evolve(reg, segment, noise, segment.pulse.duration_s, dipole_scale)


def ground_basis_probability(reg: RegisterState, bits: dict) -> float:
    """Joint probability of finding each given site's qubit value in the
    ground manifold (0 -> g-, 1 -> g+); other sites are traced out."""
    labels = basis_labels(reg.n_atoms)
    mask = np.ones(len(labels), bool)
    for site, bit in bits.items():
        want = GP if bit else GM
        mask &= labels[:, reg.site_index(site)] == want
    return float((np.abs(reg.amps) ** 2)[mask].sum())


# ---------------------------------------------------------------------------
# incoherent operations

def blow_away(reg: RegisterState) -> tuple[RegisterState, dict]:
    """Radiation-pressure removal of all remaining 1S0 population.

    Modeled as a perfect filter: every basis component with any atom in a
    ground level is removed and its mass booked as leaked.  Returns the
    filtered register and the per-site removed mass.
    """
    in_ground = np.isin(basis_labels(reg.n_atoms), G_LEVELS)
    removed = {}
    probs = np.abs(reg.amps) ** 2
    for i, site in enumerate(reg.sites):
        removed[site] = float(probs[in_ground[:, i]].sum())
    keep = ~in_ground.any(axis=1)
    amps = np.where(keep, reg.amps, 0.0)
    lost = reg.survival - float(np.vdot(amps, amps).real)
    out = RegisterState(reg.params, reg.geom, reg.sites, amps,
                        reg.leaked + lost)
    out.check_accounting()
    return out, removed
