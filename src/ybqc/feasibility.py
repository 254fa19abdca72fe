"""Experimental-parameter estimates and pass/fail checks.

Computes the drive intensity, lattice depth and tunneling (the band width
by a bisection in plain floats), photon scattering and bias-field
requirements from first principles and compares each against its
published target value.  Saturation-intensity convention:
I_sat = pi h c / (3 lambda^3 tau) with on-resonance s = I/I_sat = 2 (Omega/Gamma)^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .addressing import LatticeGeometry, plan_gradients, validate_gradients
from .atomic import AtomParams
from .constants import c, h, hbar, k_B
from .engine import NoiseParams, PulseSchedule
from .errors import ConfigError, PhysicsError


def pi_pulse_intensity(t_pi: float, linewidth_hz: float,
                       wavelength_m: float) -> float:
    """Laser intensity (W/m^2) for a pi-pulse of duration t_pi on a
    transition of the given natural linewidth."""
    if min(t_pi, linewidth_hz, wavelength_m) <= 0:
        raise ConfigError("t_pi, linewidth and wavelength must be positive")
    gamma = 2 * math.pi * linewidth_hz
    try:
        omega = math.pi / t_pi
        tau = 1 / gamma
        i_sat = math.pi * h * c / (3 * wavelength_m ** 3 * tau)
        return 2 * i_sat * (omega / gamma) ** 2
    except ArithmeticError:
        raise PhysicsError(
            f"pi-pulse intensity leaves the floating-point range for a "
            f"{linewidth_hz!r} Hz line at {wavelength_m!r} m") from None


def recoil_energy_j(params: AtomParams) -> float:
    try:
        return h ** 2 / (2 * params.mass_kg
                         * params.wavelength_lattice_m ** 2)
    except ArithmeticError:
        raise PhysicsError(
            f"recoil energy leaves the floating-point range for mass "
            f"{params.mass_kg!r} kg at lattice wavelength "
            f"{params.wavelength_lattice_m!r} m") from None


# Plane waves exp(2ikx) with |k| <= FOURIER_ORDER in the band calculation.
FOURIER_ORDER = 24
# Depth above which the band width comes from the deep-lattice form: the
# plane-wave width, a difference of two band energies of about sqrt(s),
# sinks into rounding noise near 250 recoils.
DEEP_LATTICE_RECOILS = 200.0


def lowest_band_width_recoils(depth_recoils: float) -> float:
    """Lowest-band width of the 1D sinusoidal lattice (Mathieu problem),
    in recoil units: plane-wave band energies at q = 0 and 1 up to
    DEEP_LATTICE_RECOILS, the deep-lattice asymptote
    16/sqrt(pi) s^(3/4) exp(-2 sqrt(s)) above (0.968 of it at 200
    recoils).  A band energy, the lowest eigenvalue of the tridiagonal T,
    is a bisection on positive definiteness (Barth, Martin and Wilkinson
    1967): x lies below it while every LDL^T pivot of T - x is positive.
    Against a 50-digit solve the width is off by 8e-12 relative at 50
    recoils, 2e-9 at 100, 1.4e-7 at 150 and 1.2e-5 at 199 (LAPACK stebz
    by default: 1.4e-9, 3e-7, 6e-6, 1.2e-3), near T's rounding floor."""
    s = depth_recoils
    if not 0 <= s < math.inf:
        raise ConfigError("lattice depth must be finite and >= 0")
    if s > DEEP_LATTICE_RECOILS:
        return 16 / math.sqrt(math.pi) * s ** 0.75 \
            * math.exp(-2 * math.sqrt(s))

    def band_energy(q):
        diag = [(2 * k + q) ** 2 + s / 2
                for k in range(-FOURIER_ORDER, FOURIER_ORDER + 1)]
        off2 = (s / 4) ** 2
        # Gershgorin below, the smallest Rayleigh quotient min(diag) above
        lo, hi = min(diag) - s / 2, min(diag)
        x = (lo + hi) / 2
        while lo < x < hi:
            pivot = math.inf
            for d in diag:
                pivot = d - x - off2 / pivot
                if pivot <= 0:
                    break
            lo, hi = (lo, x) if pivot <= 0 else (x, hi)
            x = (lo + hi) / 2
        return x

    return abs(band_energy(1.0) - band_energy(0.0))


@dataclass(frozen=True)
class LatticeDepthReport:
    depth_uk: float
    tunneling_rate_hz: float
    hold_survival: float    # site retention over HOLD_TIME_S


HOLD_TIME_S = 5.0   # one experiment: site retention and idle survival


def lattice_depth_report(depth_recoils: float,
                         params: AtomParams) -> LatticeDepthReport:
    """Depth in uK, lowest-band tunneling rate, and site retention."""
    width = lowest_band_width_recoils(depth_recoils)
    e_r = recoil_energy_j(params)
    e_r_uk = e_r / k_B * 1e6
    tunneling_hz = width / 4 * e_r / h
    return LatticeDepthReport(depth_recoils * e_r_uk, tunneling_hz,
                              math.exp(-tunneling_hz * HOLD_TIME_S))


def scattering_rate(depth_uk: float, params: AtomParams) -> float:
    """Lattice photon scattering rate (Hz) at the given depth.

    Effective two-level estimate from the dominant 1S0-1P1 transition
    detuned to the lattice wavelength, with counter-rotating term and the
    omega^3 emission factor retained.
    """
    if depth_uk <= 0:
        raise ConfigError("depth must be positive")
    u0 = k_B * depth_uk * 1e-6
    w0 = 2 * math.pi * c / params.wavelength_1S0_1P1_m
    w = 2 * math.pi * c / params.wavelength_lattice_m
    if w >= w0:
        raise ConfigError("lattice light must be red of the 1S0-1P1 line")
    gamma = 1 / params.lifetime_1P1_s
    inv_delta_eff = 1 / (w0 - w) + 1 / (w0 + w)
    rate = gamma * (u0 / hbar) * inv_delta_eff * (w / w0) ** 3
    if not math.isfinite(rate):
        raise PhysicsError(f"lattice scattering rate leaves the "
                           f"floating-point range at {depth_uk!r} uK")
    return rate


@dataclass(frozen=True)
class BudgetReport:
    total_duration_s: float
    metastable_atom_time_s: float
    decay_survival: float
    scattering_survival: float
    survival: float     # product of the channels the pulse engine models


def metastable_weights(schedule: PulseSchedule) -> tuple[float, ...]:
    """Atoms in 3P2 during each segment of `schedule`, from all-ground: the
    mean of the counts before and after it, less 0.5 for a readout (output
    only).  A transfer toggles its target site, or all for ("all",): a
    resonant pi pulse keeps the atom in e for half its time on average."""
    up, every, weights = set(), set(schedule.sites), []
    for seg in schedule.segments:
        p, n = seg.pulse, len(up)
        if p.transition == "optical_pair":
            up ^= every if p.target == ("all",) else {p.target[1]}
        weights.append((n + len(up)) / 2 - 0.5 * (p.transition == "measure"))
    return tuple(weights)


def decoherence_budget(schedule: PulseSchedule,
                       noise: NoiseParams) -> BudgetReport:
    """Closed-form survival over a schedule, channel by channel.

    Matches the pulse engine's norm-loss bookkeeping (3P2 decay plus
    lattice photon scattering); tunneling-driven site loss is reported by
    lattice_depth_report instead since the engine does not model motion.
    Only the segments the engine evolves count: `measure` segments are
    left out, so `total_duration_s` here is the evolved time, not the
    schedule's.
    """
    evolved = [(s.pulse.duration_s, w) for s, w in
               zip(schedule.segments, metastable_weights(schedule))
               if s.pulse.transition != "measure"]
    total = sum(t for t, _ in evolved)
    meta_time = sum(w * t for t, w in evolved)
    decay = math.exp(-meta_time / noise.lifetime_3P2_s)     # 1 at inf
    scatter = math.exp(-len(schedule.sites)
                       * noise.photon_scattering_rate_hz * total)
    return BudgetReport(total, meta_time, decay, scatter, decay * scatter)


# ---------------------------------------------------------------------------
# consolidated report

@dataclass(frozen=True)
class FeasibilityItem:
    quantity: str
    computed: float
    paper_target: float | None
    tolerance: float | None
    tolerance_kind: str     # 'relative' | 'factor' | 'bool' | 'info'
    passed: bool | None
    note: str = ""


def _check(quantity, computed, target, tol, kind, note=""):
    if kind == "relative":
        ok = abs(computed - target) <= tol * abs(target)
    elif kind == "factor":
        a, b = abs(computed), abs(target)
        ok = max(a, b) <= tol * min(a, b) if min(a, b) > 0 else False
    elif kind == "bool":
        ok = bool(computed)
    else:
        ok = None
    return FeasibilityItem(quantity, computed, target, tol, kind, ok, note)


@dataclass(frozen=True)
class FeasibilityReport:
    items: tuple[FeasibilityItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(it.passed for it in self.items if it.passed is not None)

    def to_json(self) -> str:
        payload = [{"quantity": it.quantity, "computed": it.computed,
                    "paper_target": it.paper_target,
                    "tolerance": it.tolerance,
                    "tolerance_kind": it.tolerance_kind,
                    "pass": it.passed, "note": it.note}
                   for it in self.items]
        return json.dumps(payload, indent=2, sort_keys=False)


def build_feasibility_report(params: AtomParams, geom: LatticeGeometry,
                             depth_recoils: float) -> FeasibilityReport:
    """All derived experimental parameters with pass/fail verdicts; of
    `geom` only the lattice spacing enters."""
    items = []

    intensity = pi_pulse_intensity(100e-6, params.linewidth_1S0_3P2_hz,
                                   params.wavelength_1S0_3P2_m)
    items.append(_check("pi_pulse_intensity_w_per_m2", intensity, 4.82e4,
                        0.20, "relative",
                        "100 us pi-pulse on the 10 mHz line"))

    depth = lattice_depth_report(depth_recoils, params)
    items.append(_check("lattice_depth_uk", depth.depth_uk, 10.0, 0.15,
                        "relative", f"{depth_recoils:g} recoil energies"))
    items.append(_check("tunneling_rate_hz", depth.tunneling_rate_hz, None,
                        None, "info",
                        f"lowest-band rate; retention over "
                        f"{HOLD_TIME_S:g} s = {depth.hold_survival:.3f}"))

    rate = scattering_rate(depth.depth_uk, params)
    items.append(_check("photon_scattering_rate_hz", rate, 0.2, 3.0,
                        "factor", "lattice light on the 1S0-1P1 line"))
    items.append(_check(
        "idle_survival_5s", math.exp(-rate * HOLD_TIME_S), None, None, "info",
        "scattering-limited survival over a 5 s experiment; sits in "
        "tension with multi-second coherence and is surfaced, not hidden"))

    # The gradient and bias checks refer to the reference design (10x10
    # sites per layer, 10 layers, 1 kHz gap) regardless of the scenario's
    # own lattice extent; only the spacing carries over.
    plan = plan_gradients(LatticeGeometry(10, 10, 1, geom.spacing_m),
                          1000.0, params, B0_t=100e-4)
    items.append(_check("gradient_x_g_per_cm", plan.Gx_t_per_m * 1e2, 10.0,
                        0.25, "relative", "planned for a 1 kHz gap"))
    items.append(_check("gradient_y_g_per_cm", plan.Gy_t_per_m * 1e2, 100.0,
                        0.25, "relative", "planned for a 1 kHz gap"))

    bias = validate_gradients(LatticeGeometry(10, 10, 10, geom.spacing_m),
                              plan)
    need = plan.safety_factor * bias.field_range_t
    margin = math.inf if need == 0 else plan.B0_t / need
    items.append(_check("bias_field_100g_sufficient", float(bias.bias_ok),
                        True, None, "bool",
                        f"margin {margin:.1f}x over the "
                        f"{plan.safety_factor:g}x safety factor"))
    return FeasibilityReport(tuple(items))
