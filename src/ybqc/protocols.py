"""Pulse builders and measurement.

The builders (`transfer_pulse`, `rotation_pulse`, `cnot_pulse`) take no
register and return one engine `Pulse`; `compiler.compile_circuit` is a
loop over them and `compiler.execute_schedule` runs the result, so every
gate reaches the engine through one path.  The builders index columns
of the register's cached `addressing.site_levels` table (the rotation
its ladder, the CNOT its moments), and the 3-photon scan times the
rotation from the engine's own ladder block (`engine._leg_offsets`): its
eigenphases, factorised over blocks of the time grid, give the e+3/2
population in one small matrix product.
`measure_qubit` samples and projects one readout; the fluorescence loss,
equal for every readout of a run, is one `DetectionReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dipole import pair_coupling
from .engine import (EM12, EM32, EP12, EP32, GM, GP, NLEV, NoiseParams,
                     Pulse, RegisterState, _leg_offsets,
                     _single_atom_hamiltonian, basis_labels)
from .errors import (ConfigError, DegenerateManifoldError, GeometryError,
                     IntegratorError, PhysicsError, ProtocolOrderError)

# CNOT Rabi frequency over the unscaled conditional shift: spectral
# selectivity against the off-resonant |00> <-> |01> line.
CNOT_RABI_FACTOR = 0.1
GATE_RABI_FRACTION = 0.05     # 3-photon Rabi over min(|Delta1|, |Delta2|)
# Time grid of the exact ladder scan, over 1.5 predicted pi times; only
# its points in SCAN_WINDOW (in predicted pi times), and one more on
# each side, are evaluated.
SCAN_SAMPLES = 40001
SCAN_WINDOW = (0.95, 1.15)
# block length of the scan grid's factorised phases (`_d_population`)
_SCAN_BLOCK = 64


# ---------------------------------------------------------------------------
# 3-photon reference dynamics (exact 4-level ladder)

@dataclass(frozen=True)
class ThreePhotonScan:
    predicted_pi_time_s: float  # pi / |Omega^3 / (4 Delta1 Delta2)|
    pi_time_s: float            # first maximum of the a->d population
    transfer_probability: float
    leakage: float              # population left in the intermediate states


def _d_population(w, amp, dt: float, lo: int, hi: int) -> np.ndarray:
    """e+3/2 population at the grid times n * dt, lo <= n < hi, of a ladder
    with eigenfrequencies `w` started in state a; `amp` = V[d, k] V[a, k].

    With n = q B + r (B = _SCAN_BLOCK, anchored on absolute indices),
    e^(-i w_k n dt) = e^(-i w_k qB dt) e^(-i w_k r dt), so the amplitude
    sum_k amp_k e^(-i w_k n dt) over whole blocks q is one (nq, 4) @ (4, B)
    product of the two phase tables.  The blocks are anchored on grid
    index 0, so a point's phases do not depend on lo and hi."""
    B = _SCAN_BLOCK
    q0 = lo // B
    q = np.arange(q0, (hi - 1) // B + 1)
    outer = np.exp(-1j * np.outer(q * (B * dt), w)) * amp
    inner = np.exp(-1j * np.outer(np.arange(B) * dt, w))
    d = (outer @ inner.T).ravel()[lo - q0 * B:hi - q0 * B]
    return np.abs(d) ** 2


def three_photon_scan(ladder, k: int, rabi) -> ThreePhotonScan:
    """Exact 4-level simulation of the 3-photon drive starting in state a,
    on entry k of `ladder`, the `atomic.ThreePhotonDetunings` of one atom
    at each of its fields.

    The ladder Hamiltonian is the engine's e-3/2 .. e+3/2 block of the
    light-shift-compensated drive.  Returns the first-maximum pi time of
    the a->d transfer together with the effective-model prediction
    Omega_eff = Omega^3 / (4 Delta1 Delta2).

    The pi time is the argmax of the a->d population on a grid over 1.5
    predicted pi times, refined by a parabola through its neighbours.
    Between 20 G and 1.5 T, at Rabi frequencies of 0.5 % to 30 % of
    min(|Delta1|, |Delta2|), the pi time is 0.99 to 1.07 of the
    prediction, and the next maximum of the a->d envelope lies near 3 pi
    times.  So only the grid points in SCAN_WINDOW, plus one on each
    side, are evaluated: grid indices 25333-30667, by `_d_population`
    from the ladder's eigenphases.  The scan raises IntegratorError if
    the dressed-state envelope maximum pi / |w_i - w_j|, over the two
    eigenstates i, j of largest |V[a, k] V[d, k]|, lies outside
    SCAN_WINDOW (it lies at 1.00 to 1.05 predicted pi times in the range
    above), or if the argmax is the first or last evaluated point, and
    DegenerateManifoldError at a zero detuning (B = 0) or where the
    effective Rabi frequency underflows to 0.
    """
    d1, d2 = float(ladder.delta1_rad_s[k]), float(ladder.delta2_rad_s[k])
    if not (d1 and d2):
        raise DegenerateManifoldError(
            "3-photon ladder detunings are zero: the site sits at B = 0, or "
            "the atom's F=3/2 sublevels do not split")
    product = 4 * d1 * d2
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan raise below
        omega_eff = float(np.float64(rabi) ** 3 / product) if product else 0.0
    if not math.isfinite(omega_eff):
        raise ConfigError(f"Rabi frequency {rabi} rad/s gives a non-finite "
                          "3-photon Rabi frequency")
    if rabi == 0:
        raise ConfigError("zero Rabi frequency has no pi time")
    if omega_eff == 0.0:    # the gate's drive: |Delta| below ~1e-107 rad/s
        raise DegenerateManifoldError(
            f"3-photon ladder detunings {d1:.6g} and {d2:.6g} rad/s "
            "underflow Omega^3 or 4 Delta1 Delta2 to a zero product: no "
            "effective Rabi frequency; check g_J_3P2, hyperfine_A_3P2_hz "
            "and nuclear_moment_mu_n")
    t_pred = math.pi / abs(omega_eff)
    drive = Pulse("three_photon", t_pred, rabi)
    offsets = _leg_offsets(ladder, None, k, drive)[k]
    H = _single_atom_hamiltonian(offsets, drive)[EM32:, EM32:]  # the e levels
    w, V = np.linalg.eigh(H)
    c = V[0, :]  # overlap of eigenvectors with the initial state a
    amp = V[3, :] * c
    i, j = np.argsort(np.abs(amp))[-2:]
    beat = abs(float(w[i] - w[j])) * t_pred  # pi / beat predicted pi times
    if not SCAN_WINDOW[0] * beat < math.pi < SCAN_WINDOW[1] * beat:
        raise IntegratorError(
            "3-photon dressed-state envelope maximum lies outside "
            f"{SCAN_WINDOW} predicted pi times")

    dt = 1.5 * t_pred / (SCAN_SAMPLES - 1)
    lo = math.ceil(SCAN_WINDOW[0] * (SCAN_SAMPLES - 1) / 1.5) - 1
    hi = math.floor(SCAN_WINDOW[1] * (SCAN_SAMPLES - 1) / 1.5) + 2
    Pd = _d_population(w, amp, dt, lo, hi)
    idx = int(np.argmax(Pd))
    if not 0 < idx < len(Pd) - 1:
        raise IntegratorError(
            f"3-photon scan maximum lies outside {SCAN_WINDOW} predicted "
            "pi times")
    t_pi = (lo + idx) * dt
    # parabolic refinement around the grid maximum
    y0, ym, yp = Pd[idx], Pd[idx - 1], Pd[idx + 1]
    denom = ym - 2 * y0 + yp
    if denom != 0:
        t_pi = t_pi + 0.5 * dt * (ym - yp) / denom
    Ppi = np.abs((np.exp(-1j * t_pi * w) * c) @ V.T) ** 2
    return ThreePhotonScan(t_pred, float(t_pi), float(Ppi[3]),
                           float(Ppi[1] + Ppi[2]))


# ---------------------------------------------------------------------------
# pulse builders

def transfer_pulse(target: tuple, rabi: float) -> Pulse:
    """Optical-pair pi-pulse (both qubit legs at once) on a target:
    ("site", s) or ("all",)."""
    return Pulse("optical_pair", math.pi / rabi, rabi, target=target)


def rotation_pulse(ladder, k: int, site, angle: float) -> Pulse:
    """3-photon x rotation by `angle` of the auxiliary qubit at `site`,
    whose ladder is entry k of `ladder`, timed by the exact ladder scan;
    the drive phase is zero."""
    rabi = GATE_RABI_FRACTION * min(abs(float(ladder.delta1_rad_s[k])),
                                    abs(float(ladder.delta2_rad_s[k])))
    scan = three_photon_scan(ladder, k, rabi)
    return Pulse("three_photon", (angle / math.pi) * scan.pi_time_s, rabi,
                 target=("site", tuple(site)))


def cnot_pulse_parameters(geom, control_site, target_site, m_control,
                          m_target):
    """Conditional shift (Hz) and resonant laser detuning (rad/s) of the
    |10> <-> |11> line for a control/target pair and their moment columns."""
    coupling = pair_coupling(geom.position_m(control_site),
                             geom.position_m(target_site))
    aux = m_target[EP32] - m_target[EM32]
    shift_hz = coupling * (m_control[EP32] - m_control[EM32]) * aux
    detuning_rad_s = 2 * math.pi * coupling * m_control[EP32] * aux
    return float(shift_hz), float(detuning_rad_s)


def cnot_pulse(geom, control_site, target_site, m_control, m_target) -> Pulse:
    """aux_flip pi-pulse of the dipole-shift CNOT on adjacent sites, from
    the two sites' register moment columns.

    The laser sits on the nominal |10> <-> |11> line and the Rabi
    frequency is CNOT_RABI_FACTOR times the nominal conditional shift;
    the engine's `dipole_scale` scales only its dipole diagonal.  No
    finite pi time (no conditional shift) is a DegenerateManifoldError.
    """
    control_site, target_site = tuple(control_site), tuple(target_site)
    if sum(abs(a - b) for a, b in zip(control_site, target_site)) != 1:
        raise GeometryError(
            f"CNOT sites {control_site}, {target_site} are not adjacent "
            "(no routing in scope)")
    shift_hz, detuning = cnot_pulse_parameters(
        geom, control_site, target_site, m_control, m_target)
    rabi = 2 * math.pi * abs(shift_hz) * CNOT_RABI_FACTOR
    if not (rabi and math.isfinite(math.pi / rabi)):
        raise DegenerateManifoldError(
            f"CNOT {control_site} -> {target_site}: conditional shift "
            f"{shift_hz:.6g} Hz leaves the flip no finite pi time")
    return Pulse("aux_flip", math.pi / rabi, rabi, detuning_rad_s=detuning,
                 target=("site", target_site))


# ---------------------------------------------------------------------------
# measurement

@dataclass(frozen=True)
class DetectionReport:
    """Loss of each MOT fluorescence readout: noise parameters alone."""
    n_scattered: float
    fluorescence_survival: float
    branching_loss_flag: bool

    @classmethod
    def from_noise(cls, noise: NoiseParams) -> "DetectionReport":
        n_sc = noise.detection_time_s * noise.detection_scatter_rate_hz
        fluor_survival = (1.0 - noise.branching_1P1_to_3D) ** n_sc
        return cls(n_sc, fluor_survival, 1.0 - fluor_survival > 0.01)


def measure_qubit(reg: RegisterState, axis: int, rng: np.random.Generator):
    """Projective measurement of the qubit of atom `axis`, its position
    in the schedule's sites, via selective return and MOT fluorescence;
    returns (bit, collapsed register, probability of 1).

    Protocol order (caller's responsibility): all qubits were transferred
    to 3P2 first; this routine returns the selected qubit's e+3/2 state
    to 1S0 m_I=+1/2 (an ideal pi-pulse; the transfer imperfection physics
    lives in the compiled transfer pulses) and samples the fluorescence
    outcome from `rng`.  Fluorescence means the atom ended in the ground
    state -> outcome 1: P(1) = P(g-) + P(e+3/2), read before the return.
    A register with every atom lost raises PhysicsError.  An atom with
    more population in e+/-1/2 than in e+/-3/2 is mid-protocol and raises
    ProtocolOrderError; the small ladder residue of a 3-photon rotation
    does not."""
    levels = basis_labels(round(math.log(reg.amps.size, NLEV)))[:, axis]
    pops = np.bincount(levels, np.abs(reg.amps) ** 2, NLEV)
    if pops.sum() <= 1e-300:
        raise PhysicsError("every atom has been lost")
    if pops[EM12] + pops[EP12] > pops[EM32] + pops[EP32]:
        raise ProtocolOrderError(
            f"atom {axis} sits mostly in the intermediate e levels; "
            "measurement protocol out of order")
    p1 = float(pops[GM] + pops[EP32])
    outcome = int(rng.random() < p1)

    # both masks list the other atoms' states in the same basis order
    gp, ep = levels == GP, levels == EP32
    amps = reg.amps.copy()
    amps[gp], amps[ep] = -1j * reg.amps[ep], -1j * reg.amps[gp]

    keep = (levels <= GP) == outcome     # the ground levels GM, GP on 1
    collapsed = np.where(keep, amps, 0.0)
    norm = float(np.vdot(collapsed, collapsed).real)
    if norm > 1e-300:
        return outcome, RegisterState(collapsed / math.sqrt(norm), 0.0), p1
    return outcome, RegisterState(collapsed, 1.0), p1
