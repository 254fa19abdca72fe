"""Pulse builders and the gate and measurement protocols that use them.

The builders (`transfer_pulse`, `rotation_pulse`, `cnot_pulse`) take no
register and return one engine `Pulse`; `compiler.compile_circuit` is a
loop over them.  The protocols (coherent 1S0 <-> 3P2 `transfer`, gradient
`select_layer`, the 3-photon `single_qubit_gate`, the dipole-shift `cnot`)
check the register, build the same pulses, apply them and report.
`measure_qubit` is projective measurement with MOT fluorescence
branching-loss bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .addressing import GradientConfig, check_resolvable, site_field
from .atomic import register_levels, three_photon_detunings
from .dipole import pair_coupling
from .engine import (EM12, EM32, EP12, EP32, GM, GP, G_LEVELS, NoiseParams,
                     Pulse, PulseSegment, RegisterState, apply_segment,
                     basis_labels, blow_away, light_shift_compensation)
from .errors import ConfigError, GeometryError, ProtocolOrderError

DEFAULT_TRANSFER_RABI = 2 * math.pi * 500.0  # 1 ms pi-pulse
# CNOT Rabi frequency over the unscaled conditional shift: spectral
# selectivity against the off-resonant |00> <-> |01> line.
CNOT_RABI_FACTOR = 0.1


# ---------------------------------------------------------------------------
# 3-photon reference dynamics (exact 4-level ladder)

@dataclass(frozen=True)
class ThreePhotonScan:
    field_t: float
    rabi_rad_s: float
    omega_eff_rad_s: float      # Omega^3 / (4 Delta1 Delta2), signed
    predicted_pi_time_s: float
    pi_time_s: float            # first maximum of the a->d population
    transfer_probability: float
    leakage: float              # population left in the intermediate states


def _ladder_hamiltonian(det, rabi, compensate=True):
    eps = light_shift_compensation(det.delta1_rad_s, det.delta2_rad_s,
                                   rabi) if compensate else 0.0
    H = np.zeros((4, 4))
    H[1, 1] = det.delta1_rad_s - eps
    H[2, 2] = -det.delta2_rad_s - 2 * eps
    H[3, 3] = -3 * eps
    for n in range(3):
        H[n, n + 1] = H[n + 1, n] = rabi / 2
    return H


def three_photon_scan(params, B, rabi, compensate=True,
                      n_samples=40001) -> ThreePhotonScan:
    """Exact 4-level simulation of the 3-photon drive starting in state a.

    Returns the first-maximum pi time of the a->d transfer together with
    the effective-model prediction Omega_eff = Omega^3 / (4 Delta1 Delta2).
    """
    det = three_photon_detunings(params, B)
    omega_eff = rabi ** 3 / (4 * det.delta1_rad_s * det.delta2_rad_s)
    if omega_eff == 0.0:
        raise ConfigError("zero Rabi frequency has no pi time")
    t_pred = math.pi / abs(omega_eff)
    H = _ladder_hamiltonian(det, rabi, compensate)
    w, V = np.linalg.eigh(H)
    c = V[0, :]  # overlap of eigenvectors with the initial state a

    def populations(ts):
        phases = np.exp(-1j * np.outer(ts, w)) * c
        amps = phases @ V.T  # (nt, 4)
        return np.abs(amps) ** 2

    ts = np.linspace(0.0, 1.5 * t_pred, n_samples)
    P = populations(ts)
    Pd = P[:, 3]
    # The a->d envelope carries a small fast ripple from the detuned
    # intermediate states, so naive peak hunting latches onto ripple
    # maxima on the rising slope.  The first upward half-maximum crossing
    # pins the envelope (pi time = twice the half-maximum time for a
    # sin^2 envelope); a windowed argmax around that estimate refines it.
    half = 0.5 * Pd.max()
    k = int(np.argmax(Pd >= half))
    if k > 0 and Pd[k] != Pd[k - 1]:
        t_half = ts[k - 1] + (half - Pd[k - 1]) * (ts[k] - ts[k - 1]) \
            / (Pd[k] - Pd[k - 1])
    else:
        t_half = ts[k]
    t_est = 2 * t_half
    lo = min(int(np.searchsorted(ts, 0.8 * t_est)), len(ts) - 2)
    hi = max(min(int(np.searchsorted(ts, 1.2 * t_est)) + 1, len(ts)), lo + 1)
    idx = lo + int(np.argmax(Pd[lo:hi]))
    t_pi = ts[idx]
    if 0 < idx < len(ts) - 1:
        # parabolic refinement around the grid maximum
        dt = ts[1] - ts[0]
        y0, ym, yp = Pd[idx], Pd[idx - 1], Pd[idx + 1]
        denom = ym - 2 * y0 + yp
        if denom != 0:
            t_pi = t_pi + 0.5 * dt * (ym - yp) / denom
    Ppi = populations(np.array([t_pi]))[0]
    return ThreePhotonScan(B, rabi, omega_eff, t_pred, float(t_pi),
                           float(Ppi[3]), float(Ppi[1] + Ppi[2]))


# ---------------------------------------------------------------------------
# pulse builders

def transfer_pulse(target: tuple, rabi: float, weight: float) -> Pulse:
    """Optical-pair pi-pulse (both qubit legs at once) on a target:
    ("site", s), ("layer", z) or ("all",)."""
    return Pulse("optical_pair", math.pi / rabi, rabi, target=target,
                 metastable_weight=weight)


def ladder_gap(params, B) -> float:
    """Smaller 3-photon ladder detuning min(|Delta1|, |Delta2|) (rad/s)."""
    det = three_photon_detunings(params, B)
    return min(abs(det.delta1_rad_s), abs(det.delta2_rad_s))


def rotation_pulse(params, B, site, angle: float, rabi: float,
                   weight: float, axis: float = 0.0):
    """3-photon rotation by `angle` of the auxiliary qubit at `site`
    (local field B), timed by the exact ladder scan; returns the pulse and
    the scan.  `axis` is the azimuth of the rotation axis in the
    auxiliary-qubit equatorial plane; it maps onto one third of the drive
    phase because the effective coupling is third order in the field."""
    scan = three_photon_scan(params, B, rabi)
    pulse = Pulse("three_photon", (angle / math.pi) * scan.pi_time_s, rabi,
                  phase_rad=axis / 3, target=("site", tuple(site)),
                  metastable_weight=weight)
    return pulse, scan


def cnot_pulse_parameters(params, geom, config, control_site, target_site):
    """Conditional shift (Hz) and resonant laser detuning (rad/s) of the
    |10> <-> |11> line for a control/target pair."""
    coupling = pair_coupling(geom.position_m(control_site),
                             geom.position_m(target_site))
    m_c, m_t = (register_levels(params, site_field(geom, config, s))
                .moment_j_per_t for s in (control_site, target_site))
    shift_hz = coupling * (m_c[EP32] - m_c[EM32]) * (m_t[EP32] - m_t[EM32])
    detuning_rad_s = 2 * math.pi * coupling * m_c[EP32] \
        * (m_t[EP32] - m_t[EM32])
    return shift_hz, detuning_rad_s


def cnot_pulse(params, geom, config, control_site, target_site,
               weight: float, dipole_scale: float = 1.0):
    """aux_flip pi-pulse of the dipole-shift CNOT on adjacent sites.

    The laser sits on the |10> <-> |11> line shifted at `dipole_scale`;
    the Rabi frequency is CNOT_RABI_FACTOR times the unscaled shift.
    Returns the pulse and the conditional shift (Hz) at `dipole_scale`.
    """
    control_site, target_site = tuple(control_site), tuple(target_site)
    if sum(abs(a - b) for a, b in zip(control_site, target_site)) != 1:
        raise GeometryError(
            f"CNOT sites {control_site}, {target_site} are not adjacent "
            "(no routing in scope)")
    shift_hz, detuning = cnot_pulse_parameters(params, geom, config,
                                               control_site, target_site)
    rabi = 2 * math.pi * abs(shift_hz) * CNOT_RABI_FACTOR
    pulse = Pulse("aux_flip", math.pi / rabi, rabi,
                  detuning_rad_s=dipole_scale * detuning,
                  target=("site", target_site), metastable_weight=weight)
    return pulse, dipole_scale * shift_hz


# ---------------------------------------------------------------------------
# transfer and layer selection

@dataclass(frozen=True)
class TransferReport:
    direction: str
    sites: tuple
    excited_population: dict    # per site, after the pulse
    ground_population: dict


def transfer(reg: RegisterState, sites, direction: str,
             config: GradientConfig, noise: NoiseParams | None = None,
             rabi: float = DEFAULT_TRANSFER_RABI):
    """Simultaneous pi-pulses on both qubit legs of the optical transition.

    Addressed sites are driven one segment at a time, after checking that
    every other site is resolved from them; a transfer of the whole
    register under zero gradients collapses to one global segment.
    """
    if direction not in ("to_metastable", "to_ground"):
        raise ConfigError("direction must be 'to_metastable' or 'to_ground'")
    noise = noise or NoiseParams.off()
    sites = [tuple(s) for s in sites]
    if (set(sites) == set(reg.sites)
            and config.Gx_t_per_m == config.Gy_t_per_m
            == config.Gz_t_per_m == 0.0):
        pulses = [transfer_pulse(("all",), rabi, 0.5 * len(sites))]
    else:
        check_resolvable(reg.geom, config, reg.params, sites,
                         list(reg.sites), rabi)
        pulses = [transfer_pulse(("site", s), rabi, 0.5) for s in sites]
    out = reg
    for pulse in pulses:
        out = apply_segment(out, PulseSegment(config, pulse), noise)
    surv = max(out.survival, 1e-300)
    excited = {s: _aux_fraction(out, s) for s in sites}
    ground = {s: sum(out.population(s, lv) for lv in G_LEVELS) / surv
              for s in sites}
    return out, TransferReport(direction, tuple(sites), excited, ground)


@dataclass(frozen=True)
class SelectionReport:
    z_index: int
    removed_mass: dict          # per site, blown away during the filter
    selection_error: dict       # per site: loss (selected) / survival (other)
    survival: float


def select_layer(reg: RegisterState, z_index: int, config: GradientConfig,
                 noise: NoiseParams | None = None,
                 rabi: float = DEFAULT_TRANSFER_RABI):
    """Keep one x-y layer: transfer it to 3P2, blow away the remaining
    ground-state atoms, transfer back.  Only the z gradient is applied
    during the transfers (the x/y gradients come on afterwards)."""
    if not 0 <= z_index < reg.geom.n_z:
        raise IndexError(f"layer {z_index} outside lattice with n_z={reg.geom.n_z}")
    noise = noise or NoiseParams.off()
    segment = PulseSegment(
        replace(config, Gx_t_per_m=0.0, Gy_t_per_m=0.0),
        transfer_pulse(("layer", z_index), rabi, 0.5 * reg.n_atoms))
    out = apply_segment(reg, segment, noise)
    out, removed = blow_away(out)
    out = apply_segment(out, segment, noise)
    error = {s: removed[s] if s[2] == z_index else 1.0 - removed[s]
             for s in reg.sites}
    return out, SelectionReport(z_index, removed, error, out.survival)


# ---------------------------------------------------------------------------
# gates

@dataclass(frozen=True)
class GateReport:
    kind: str
    duration_s: float
    rabi_rad_s: float
    omega_eff_rad_s: float = 0.0
    predicted_pi_time_s: float = 0.0
    simulated_pi_time_s: float = 0.0
    leakage: float = 0.0
    achieved_rotation_rad: float = 0.0
    shift_hz: float = 0.0
    conditional: bool = True
    off_resonant_excitation: float = 0.0
    warnings: tuple = ()


def _aux_fraction(reg: RegisterState, site) -> float:
    surv = reg.survival
    if surv <= 1e-300:
        return 0.0
    return sum(reg.population(site, lv) for lv in (EM32, EP32)) / surv


def single_qubit_gate(reg: RegisterState, site, angle: float, axis: float,
                      B: float, rabi: float,
                      noise: NoiseParams | None = None,
                      config: GradientConfig | None = None,
                      dipole_scale: float = 1.0):
    """3-photon rotation of the auxiliary qubit at one site (see
    `rotation_pulse`).  The atom must already sit in the e(+/-3/2)
    manifold."""
    noise = noise or NoiseParams.off()
    site = tuple(site)
    if reg.survival <= 1e-300:
        return reg.copy(), GateReport("single_qubit", 0.0, rabi)
    if _aux_fraction(reg, site) < 0.99:
        raise ProtocolOrderError(
            f"atom at {site} is not in the auxiliary manifold; run transfer "
            "first")
    config = config or GradientConfig(B0_t=B)
    B_loc = site_field(reg.geom, config, site)
    warnings = ()
    min_d = ladder_gap(reg.params, B_loc)
    if rabi > 0.3 * min_d:
        warnings = (f"rabi/min(Delta) = {rabi / min_d:.2f} exceeds 0.3; "
                    "the effective 3-photon model is unreliable",)
    if angle == 0.0:
        return reg.copy(), GateReport("single_qubit", 0.0, rabi,
                                      warnings=warnings)
    pulse, scan = rotation_pulse(reg.params, B_loc, site, angle, rabi,
                                 float(reg.n_atoms), axis)
    before = reg.level_populations(site)
    out = apply_segment(reg, PulseSegment(config, pulse), noise, dipole_scale)
    surv = max(out.survival, 1e-300)
    after = out.level_populations(site)
    leakage = (after[EM12] + after[EP12]) / surv
    # rotation inferred from the population moved between the aux levels,
    # meaningful for basis-state inputs
    frac_before = before[EP32] / max(before[EM32] + before[EP32], 1e-300)
    frac_after = after[EP32] / max(after[EM32] + after[EP32], 1e-300)
    moved = min(1.0, max(0.0, abs(frac_after - frac_before)))
    achieved = 2 * math.asin(math.sqrt(moved))
    return out, GateReport(
        "single_qubit", pulse.duration_s, rabi,
        omega_eff_rad_s=scan.omega_eff_rad_s,
        predicted_pi_time_s=scan.predicted_pi_time_s,
        simulated_pi_time_s=scan.pi_time_s,
        leakage=leakage, achieved_rotation_rad=achieved, warnings=warnings)


def cnot(reg: RegisterState, control_site, target_site,
         config: GradientConfig, noise: NoiseParams | None = None,
         dipole_scale: float = 1.0):
    """Dipole-shift CNOT: pi-pulse at the shifted |10> <-> |11> frequency
    (see `cnot_pulse`).  Both atoms must already be in the auxiliary
    manifold."""
    noise = noise or NoiseParams.off()
    for s in (control_site, target_site):
        if _aux_fraction(reg, s) < 0.99:
            raise ProtocolOrderError(
                f"atom at {tuple(s)} is not in the auxiliary manifold")
    pulse, shift_hz = cnot_pulse(reg.params, reg.geom, config, control_site,
                                 target_site, float(reg.n_atoms),
                                 dipole_scale)
    out = apply_segment(reg, PulseSegment(config, pulse), noise, dipole_scale)
    rabi = pulse.rabi_rad_s
    delta = 2 * math.pi * abs(shift_hz)
    off_res = rabi ** 2 / (rabi ** 2 + delta ** 2) if delta > 0 else 1.0
    return out, GateReport(
        "cnot", pulse.duration_s, rabi, shift_hz=shift_hz,
        conditional=abs(shift_hz) > 0.0,
        off_resonant_excitation=off_res,
        warnings=() if abs(shift_hz) > 0 else
        ("dipole shift is zero: target flips regardless of the control "
         "state (conditionality lost)",))


# ---------------------------------------------------------------------------
# measurement

@dataclass(frozen=True)
class DetectionReport:
    site: tuple
    probability_one: float
    n_scattered: float
    fluorescence_survival: float
    branching_loss_flag: bool


def measure_qubit(reg: RegisterState, site, noise: NoiseParams,
                  rng_seed, project: float = +0.5):
    """Projective measurement of one qubit via selective return and MOT
    fluorescence.

    Protocol order (caller's responsibility): all qubits were transferred
    to 3P2 first; this routine returns the selected qubit's chosen state
    to 1S0 (an ideal pi-pulse; the transfer imperfection physics lives in
    `transfer`) and samples the fluorescence outcome.  Fluorescence means
    the atom ended in the ground state -> outcome 1 for project=+1/2.
    """
    if rng_seed is None:
        raise ConfigError("measurement requires an explicit rng seed "
                          "(strict-deterministic mode)")
    rng = np.random.default_rng(rng_seed)  # a Generator passes through
    site = tuple(site)
    surv = reg.survival
    pops = reg.level_populations(site)
    if surv > 1e-300 and (pops[EM12] + pops[EP12]) / surv > 0.01:
        raise ProtocolOrderError(
            f"atom at {site} has population in the intermediate e levels; "
            "measurement protocol out of order")
    glev, elev = (GP, EP32) if project > 0 else (GM, EM32)
    axis = reg.site_index(site)
    moved = np.moveaxis(reg._tensor(), axis, 0)
    swapped = moved.copy()
    swapped[glev] = -1j * moved[elev]
    swapped[elev] = -1j * moved[glev]
    amps = np.moveaxis(swapped, 0, axis).reshape(-1)
    work = RegisterState(reg.params, reg.geom, reg.sites, amps, reg.leaked)

    p1 = float(sum(work.population(site, lv) for lv in G_LEVELS))
    outcome = int(rng.random() < p1)

    in_ground = np.isin(basis_labels(reg.n_atoms)[:, axis], G_LEVELS)
    keep = in_ground if outcome == 1 else ~in_ground
    collapsed = np.where(keep, work.amps, 0.0)
    norm = float(np.vdot(collapsed, collapsed).real)
    if norm > 1e-300:
        collapsed = collapsed / math.sqrt(norm)
        out = RegisterState(reg.params, reg.geom, reg.sites, collapsed, 0.0)
    else:
        out = RegisterState(reg.params, reg.geom, reg.sites, collapsed, 1.0)

    n_sc = noise.detection_time_s * noise.detection_scatter_rate_hz
    fluor_survival = (1.0 - noise.branching_1P1_to_3D) ** n_sc
    report = DetectionReport(site, p1, n_sc, fluor_survival,
                             1.0 - fluor_survival > 0.01)
    return outcome, out, report
